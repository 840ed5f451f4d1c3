//! The partitioned memory layout of Section 3 (Figure 3a / 3b).
//!
//! Both the code generator (which bakes the private-stack OFFSET and segment
//! usage into the emitted code) and the VM loader (which maps the regions,
//! sets the bounds/segment registers and places stacks, heaps and globals)
//! must agree on this layout, so it lives in the shared machine crate.

use crate::program::Scheme;

/// 4 GiB, the alignment and nominal size of the segments in the segmentation
/// scheme.
pub const FOUR_GB: u64 = 4 << 30;

/// The complete memory layout for one loaded U compartment plus its trusted
/// library T.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    pub scheme: Scheme,
    /// Whether public and private data have separate (lock-step) stacks.
    pub split_stacks: bool,
    /// Whether T has its own memory (stack switching on every T call).
    pub separate_trusted: bool,

    /// Base and usable size of the public region.
    pub public_base: u64,
    pub public_size: u64,
    /// Base and usable size of the private region.
    pub private_base: u64,
    pub private_size: u64,
    /// Base and size of T's own region.
    pub trusted_base: u64,
    pub trusted_size: u64,
    /// Guard bytes below the public region and above each region (unmapped).
    pub guard_size: u64,

    /// Offsets of the sub-areas inside each region (identical in the public
    /// and the private region so the stacks stay in lock-step).
    pub globals_off: u64,
    pub heap_off: u64,
    pub heap_size: u64,
    pub stack_area_off: u64,
    pub stack_area_size: u64,
    /// Per-thread stack size (1 MiB by default, 1 MiB aligned — Section 3,
    /// multi-threading support).
    pub thread_stack_size: u64,
}

impl MemoryLayout {
    /// Size of the 1 MiB guard areas around the MPX regions.  Displacements
    /// strictly below this can be folded out of a bounds check (the
    /// `mpx-fold-displacements` optimisation); the code generator and the
    /// machine passes must agree on this limit.
    pub const MPX_GUARD_SIZE: u64 = 1 << 20;

    /// Build the layout for a scheme.
    ///
    /// * MPX scheme (Figure 3b): public and private regions are contiguous
    ///   partitions of `partition` bytes each; OFFSET (the distance between
    ///   the lock-step stacks) equals the partition size and must fit in a
    ///   31-bit displacement.
    /// * Segmentation scheme (Figure 3a): both regions are 4 GiB aligned and
    ///   40 GiB apart (4 GiB usable + 36 GiB guard), with a 2 GiB guard below
    ///   the public region.
    pub fn new(scheme: Scheme, split_stacks: bool, separate_trusted: bool) -> Self {
        // The usable area we actually touch is far below 4 GiB to keep the
        // simulation cheap; the bases follow the paper's alignment rules.
        let globals_off = 1 << 20; // +1 MiB
        let heap_off = 16 << 20; // +16 MiB
        let heap_size = 64 << 20; // 64 MiB
        let stack_area_off = 128 << 20; // +128 MiB
        let stack_area_size = 64 << 20; // 64 MiB = 64 thread stacks
        let thread_stack_size = 1 << 20;

        let (public_base, private_base, public_size, private_size, guard_size) = match scheme {
            Scheme::Mpx => {
                // Contiguous partitions; OFFSET = partition size = 256 MiB.
                let partition: u64 = 256 << 20;
                let public_base = FOUR_GB;
                (
                    public_base,
                    public_base + partition,
                    partition,
                    partition,
                    Self::MPX_GUARD_SIZE, // guard areas (Section 5.1 MPX optimisation)
                )
            }
            Scheme::Segment => {
                // 4 GiB-aligned segments, 40 GiB apart, 36 GiB guards.
                let public_base = FOUR_GB;
                let private_base = public_base + 10 * FOUR_GB;
                (public_base, private_base, FOUR_GB, FOUR_GB, 2 << 30)
            }
            Scheme::None => {
                // Single region; the "private" region aliases the public one.
                let public_base = FOUR_GB;
                (public_base, public_base, 512 << 20, 512 << 20, 1 << 20)
            }
        };

        MemoryLayout {
            scheme,
            split_stacks,
            separate_trusted,
            public_base,
            public_size,
            private_base,
            private_size,
            trusted_base: 1 << 40, // 1 TiB, far away from U
            trusted_size: 64 << 20,
            guard_size,
            globals_off,
            heap_off,
            heap_size,
            stack_area_off,
            stack_area_size,
            thread_stack_size,
        }
    }

    /// The OFFSET between the public stack top and the private stack top
    /// (Section 3): the constant added to an rsp-relative address to reach
    /// the private mirror slot.  Zero when the stacks are not split.
    pub fn private_stack_offset(&self) -> i64 {
        if !self.split_stacks {
            return 0;
        }
        (self.private_base - self.public_base) as i64
    }

    /// Segment register bases (segmentation scheme).
    pub fn fs_base(&self) -> u64 {
        self.public_base
    }

    pub fn gs_base(&self) -> u64 {
        self.private_base
    }

    /// MPX bounds register 0: the public region `[lower, upper)`.
    pub fn bnd0(&self) -> (u64, u64) {
        (self.public_base, self.public_base + self.public_size)
    }

    /// MPX bounds register 1: the private region `[lower, upper)`.
    pub fn bnd1(&self) -> (u64, u64) {
        if self.split_stacks || self.scheme == Scheme::None {
            (self.private_base, self.private_base + self.private_size)
        } else {
            // OurMPX-Sep: a single stack holds both public and private slots,
            // so the private bound is widened to cover the (public) stack
            // area.  This keeps the *number* of executed checks identical to
            // the split-stack configuration, which is what the experiment
            // measures.
            (
                self.public_base + self.stack_area_off,
                self.private_base + self.private_size,
            )
        }
    }

    /// Absolute address of the public globals area.
    pub fn public_globals_base(&self) -> u64 {
        self.public_base + self.globals_off
    }

    /// Absolute address of the private globals area.
    pub fn private_globals_base(&self) -> u64 {
        self.private_base + self.globals_off
    }

    /// Absolute address of the public heap.
    pub fn public_heap_base(&self) -> u64 {
        self.public_base + self.heap_off
    }

    pub fn private_heap_base(&self) -> u64 {
        self.private_base + self.heap_off
    }

    pub fn trusted_heap_base(&self) -> u64 {
        self.trusted_base + self.heap_off
    }

    /// Base address of thread `tid`'s public stack (1 MiB aligned; TLS lives
    /// in the first bytes, Section 3).
    pub fn thread_stack_base(&self, tid: usize) -> u64 {
        self.public_base + self.stack_area_off + tid as u64 * self.thread_stack_size
    }

    /// Initial rsp for thread `tid`: the top of its public stack, minus a
    /// small red zone, 16-byte aligned.
    pub fn initial_rsp(&self, tid: usize) -> u64 {
        self.thread_stack_base(tid) + self.thread_stack_size - 64
    }

    /// True if `[lo, hi)` contains `addr..addr+len`.  `addr` and `len` are
    /// guest-controlled, so the end address must not wrap around u64: a
    /// wrapped range would compare below `hi` and falsely pass.
    fn range_contains(lo: u64, hi: u64, addr: u64, len: u64) -> bool {
        match addr.checked_add(len) {
            Some(end) => addr >= lo && end <= hi,
            None => false,
        }
    }

    /// True if `addr..addr+len` lies entirely inside the public region.
    pub fn in_public(&self, addr: u64, len: u64) -> bool {
        Self::range_contains(
            self.public_base,
            self.public_base + self.public_size,
            addr,
            len,
        )
    }

    /// True if `addr..addr+len` lies entirely inside the private region.
    pub fn in_private(&self, addr: u64, len: u64) -> bool {
        Self::range_contains(
            self.private_base,
            self.private_base + self.private_size,
            addr,
            len,
        )
    }

    /// True if `addr..addr+len` lies inside the window the instrumentation
    /// allows private data to inhabit: exactly the private region with split
    /// stacks, widened over the shared stack area without (the [`bnd1`]
    /// range).  The trusted wrappers must use this rather than
    /// [`in_private`], or stack-allocated private buffers are rejected under
    /// the single-stack configuration.
    ///
    /// [`bnd1`]: MemoryLayout::bnd1
    /// [`in_private`]: MemoryLayout::in_private
    pub fn in_private_window(&self, addr: u64, len: u64) -> bool {
        let (lo, hi) = self.bnd1();
        Self::range_contains(lo, hi, addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpx_layout_offset_fits_in_displacement() {
        let l = MemoryLayout::new(Scheme::Mpx, true, true);
        let off = l.private_stack_offset();
        assert!(off > 0);
        assert!(
            off <= i32::MAX as i64,
            "OFFSET must fit a 31-bit displacement"
        );
        assert_eq!(l.private_base, l.public_base + l.public_size);
    }

    #[test]
    fn segment_layout_is_4gb_aligned_and_40gb_apart() {
        let l = MemoryLayout::new(Scheme::Segment, true, true);
        assert_eq!(l.public_base % FOUR_GB, 0);
        assert_eq!(l.private_base % FOUR_GB, 0);
        assert_eq!(l.private_base - l.public_base, 40 << 30);
        assert_eq!(l.fs_base(), l.public_base);
        assert_eq!(l.gs_base(), l.private_base);
    }

    #[test]
    fn lock_step_stacks() {
        let l = MemoryLayout::new(Scheme::Mpx, true, true);
        let off = l.private_stack_offset() as u64;
        let pub_rsp = l.initial_rsp(0);
        assert!(l.in_public(pub_rsp, 8));
        assert!(l.in_private(pub_rsp + off, 8));
    }

    #[test]
    fn unsplit_stacks_have_zero_offset_and_widened_bnd1() {
        let l = MemoryLayout::new(Scheme::Mpx, false, true);
        assert_eq!(l.private_stack_offset(), 0);
        let (lo, hi) = l.bnd1();
        assert!(lo <= l.initial_rsp(0));
        assert!(hi >= l.private_base);
    }

    #[test]
    fn regions_are_disjoint_from_trusted() {
        for scheme in [Scheme::None, Scheme::Mpx, Scheme::Segment] {
            let l = MemoryLayout::new(scheme, true, true);
            let trusted = l.trusted_base..l.trusted_base + l.trusted_size;
            assert!(!trusted.contains(&l.public_base));
            assert!(!l.in_public(l.trusted_base, 8));
            assert!(trusted.contains(&l.trusted_heap_base()));
        }
    }

    #[test]
    fn thread_stacks_are_aligned_and_distinct() {
        let l = MemoryLayout::new(Scheme::Segment, true, true);
        for t in 0..4 {
            let base = l.thread_stack_base(t);
            assert_eq!(base % l.thread_stack_size, 0);
            // The paper finds a thread's TLS by masking rsp's low bits.
            assert_eq!(l.initial_rsp(t) & !(l.thread_stack_size - 1), base);
        }
        assert!(l.stack_area_size / l.thread_stack_size >= 6);
    }

    #[test]
    fn region_checks_reject_wrapping_ranges() {
        // Guest-controlled addr/len must not wrap the end address around
        // u64 and falsely pass (or panic the host under debug assertions).
        let l = MemoryLayout::new(Scheme::Mpx, false, true);
        assert!(!l.in_public(u64::MAX, 32));
        assert!(!l.in_private(u64::MAX, 32));
        assert!(!l.in_private_window(u64::MAX, 32));
    }

    #[test]
    fn membership_checks() {
        let l = MemoryLayout::new(Scheme::Mpx, true, true);
        assert!(l.in_public(l.public_globals_base(), 64));
        assert!(l.in_private(l.private_heap_base(), 64));
        assert!(!l.in_public(l.private_base, 8));
        assert!(!l.in_private(l.public_base, 8));
    }
}
