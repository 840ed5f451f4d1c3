//! Heap allocators.
//!
//! ConfLLVM replaces the system allocator with a customised dlmalloc that
//! keeps public and private allocations inside their respective regions
//! (Section 6).  The evaluation's `BaseOA` configuration measures exactly
//! this replacement, so two allocators are provided:
//!
//! * [`AllocatorKind::SystemBump`] — a simple bump allocator standing in for
//!   the system allocator of the `Base` configuration,
//! * [`AllocatorKind::ConfBins`] — a size-class, free-list allocator standing
//!   in for the modified dlmalloc ("our custom allocator"), which reuses
//!   freed blocks and therefore tends to have the better locality the paper
//!   observes on some benchmarks (e.g. milc).

/// Which allocator implementation backs a heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocatorKind {
    /// Bump allocation, no reuse (the baseline system allocator stand-in).
    #[default]
    SystemBump,
    /// Size-class bins with free lists (the ConfLLVM custom allocator).
    ConfBins,
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocError {
    pub requested: u64,
}

const NUM_BINS: usize = 16;

/// One heap covering `[base, base+size)`.
#[derive(Debug, Clone)]
pub struct Heap {
    kind: AllocatorKind,
    base: u64,
    size: u64,
    cursor: u64,
    /// Free lists per size class (ConfBins only).  Empty until the first
    /// recycled free, so cloning a heap that never freed — two per session
    /// fork and per restore — allocates nothing.
    bins: Vec<Vec<u64>>,
    pub allocations: u64,
    pub frees: u64,
    pub live_bytes: u64,
}

fn size_class(size: u64) -> usize {
    // 16, 32, 64, ... doubling classes.
    let mut class = 0usize;
    let mut cap = 16u64;
    while cap < size && class < NUM_BINS - 1 {
        cap *= 2;
        class += 1;
    }
    class
}

fn class_bytes(class: usize) -> u64 {
    16u64 << class
}

impl Heap {
    pub fn new(kind: AllocatorKind, base: u64, size: u64) -> Self {
        Heap {
            kind,
            base,
            size,
            cursor: base,
            bins: Vec::new(),
            allocations: 0,
            frees: 0,
            live_bytes: 0,
        }
    }

    /// Allocate `size` bytes, 16-byte aligned.  Returns the address.
    pub fn alloc(&mut self, size: u64) -> Result<u64, AllocError> {
        let size = size.max(1);
        self.allocations += 1;
        self.live_bytes += size;
        match self.kind {
            AllocatorKind::SystemBump => {
                let aligned = size.div_ceil(16) * 16;
                if self.cursor + aligned > self.base + self.size {
                    return Err(AllocError { requested: size });
                }
                let addr = self.cursor;
                self.cursor += aligned;
                Ok(addr)
            }
            AllocatorKind::ConfBins => {
                let class = size_class(size);
                if let Some(addr) = self.bins.get_mut(class).and_then(Vec::pop) {
                    return Ok(addr);
                }
                let bytes = class_bytes(class);
                if self.cursor + bytes > self.base + self.size {
                    return Err(AllocError { requested: size });
                }
                let addr = self.cursor;
                self.cursor += bytes;
                Ok(addr)
            }
        }
    }

    /// Free a previous allocation of (approximately) `size` bytes.  The bump
    /// allocator ignores frees; the bin allocator recycles the block.
    pub fn free(&mut self, addr: u64, size: u64) {
        self.frees += 1;
        self.live_bytes = self.live_bytes.saturating_sub(size.max(1));
        if self.kind == AllocatorKind::ConfBins && addr >= self.base && addr < self.base + self.size
        {
            if self.bins.is_empty() {
                self.bins = vec![Vec::new(); NUM_BINS];
            }
            self.bins[size_class(size.max(1))].push(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocator_never_reuses() {
        let mut h = Heap::new(AllocatorKind::SystemBump, 0x1000, 0x1000);
        let a = h.alloc(32).unwrap();
        h.free(a, 32);
        let b = h.alloc(32).unwrap();
        assert_ne!(a, b);
        let region = h.base..h.base + h.size;
        assert!(region.contains(&a) && region.contains(&b));
    }

    #[test]
    fn bin_allocator_reuses_freed_blocks() {
        let mut h = Heap::new(AllocatorKind::ConfBins, 0x1000, 0x1000);
        let a = h.alloc(40).unwrap();
        h.free(a, 40);
        let b = h.alloc(33).unwrap(); // same 64-byte class
        assert_eq!(a, b);
    }

    #[test]
    fn allocations_are_disjoint() {
        for kind in [AllocatorKind::SystemBump, AllocatorKind::ConfBins] {
            let mut h = Heap::new(kind, 0, 1 << 20);
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for i in 1..100u64 {
                let size = (i * 7) % 200 + 1;
                let addr = h.alloc(size).unwrap();
                ranges.push((addr, addr + size));
            }
            ranges.sort();
            for w in ranges.windows(2) {
                assert!(w[0].1 <= w[1].0, "{kind:?}: overlap {w:?}");
            }
        }
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut h = Heap::new(AllocatorKind::SystemBump, 0, 64);
        assert!(h.alloc(32).is_ok());
        assert!(h.alloc(64).is_err());
    }

    #[test]
    fn size_classes_are_monotonic() {
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(16), 0);
        assert_eq!(size_class(17), 1);
        assert!(class_bytes(size_class(1000)) >= 1000);
    }
}
