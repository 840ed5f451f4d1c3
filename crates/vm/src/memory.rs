//! Sparse 64-bit memory with explicit mapped ranges and copy-on-write pages.
//!
//! Only the usable parts of the public, private and trusted regions are
//! mapped; everything else — in particular the guard areas between and around
//! the regions (Figure 3a) — faults on access, exactly like the unmapped
//! guard pages of the paper.
//!
//! Pages are reference-counted (`Arc`) so snapshots and forks share clean
//! pages instead of copying them:
//!
//! * [`Memory::snapshot`] is O(pages) pointer clones — no byte copies.
//! * [`Memory::fork`] builds a new memory over a snapshot's page table; the
//!   first write to a shared page copies it private (a CoW fault, counted in
//!   [`Memory::cow_faults`]), so a forked session's resident cost is its
//!   *written* working set, not the whole address space.  The fork shares
//!   the snapshot's page table itself as its ownership base, and its
//!   software TLB is one shared, empty table until the fork first fills a
//!   slot — a fork that never runs owns one page-table clone and nothing
//!   else.
//! * [`Memory::restore`] stays O(pages written since the snapshot): dirty
//!   pages are re-pointed at the snapshot's buffers, releasing the private
//!   copies.
//!
//! The [`Memory::resident_private_pages`] count tracks pages whose backing
//! buffer this memory materialised itself (created or CoW-copied) — the
//! per-session memory cost the serving layer's scale sweep reports.

use std::collections::{HashMap, HashSet};
use std::hash::BuildHasherDefault;
use std::ptr::NonNull;
use std::sync::Arc;

/// Page size used by the sparse backing store (simulation detail, not
/// architectural).
const PAGE_SIZE: u64 = 4096;

type Page = [u8; PAGE_SIZE as usize];

/// Multiplicative hasher for page numbers.  Page indices are single `u64`s on
/// the interpreter's per-access hot path, where the default SipHash dominates
/// the lookup; a golden-ratio multiply distributes them just as well here.
#[derive(Default)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap = HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>;

/// Slots in the per-memory software TLB, direct-mapped on the page number's
/// low bits.  64 entries × 16 bytes is small next to a session's page table
/// yet covers the working set of a tight guest loop.
const TLB_SIZE: usize = 64;

/// One software-TLB slot: a page number plus a raw pointer to that page's
/// buffer.  `page == u64::MAX` marks the slot empty (no real page has that
/// number — the mapped ranges sit far below it).
///
/// An occupied slot certifies, until the TLB is next cleared, that the whole
/// page is inside a mapped range (so a hit needs no bounds check) and that
/// the buffer is still this page's live backing store.  A *writable* slot
/// further certifies that the buffer is uniquely owned and the page already
/// recorded in the dirty set of the current snapshot epoch, so writes
/// through the pointer need no CoW or tracking work.  A read-only slot may
/// point into a buffer shared with snapshots or fork siblings; the first
/// write takes the page-table path, which does the CoW/dirty accounting and
/// upgrades the slot.  See the invariant note on [`Memory::tlb`].
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    page: u64,
    writable: bool,
    ptr: *mut u8,
}

impl TlbEntry {
    const INVALID: TlbEntry = TlbEntry {
        page: u64::MAX,
        writable: false,
        ptr: std::ptr::null_mut(),
    };
}

/// The all-invalid table every memory's TLB points at until its first
/// fill.  Never written: [`Tlb::set`] gives the memory a table of its own
/// first.
static EMPTY_TLB: SharedTable = SharedTable([TlbEntry::INVALID; TLB_SIZE]);

/// Makes the empty table a `static` (`TlbEntry` holds a raw pointer, which
/// is not `Sync`).
struct SharedTable([TlbEntry; TLB_SIZE]);

/// SAFETY: the table is never written, and every pointer in it is null.
unsafe impl Sync for SharedTable {}

/// A memory's software TLB: [`EMPTY_TLB`] until the first slot is filled,
/// then a table the memory owns.  A probe reads through the pointer either
/// way — one load and one compare, with no branch on which table it is —
/// so forks that never touch memory allocate no table at all.
#[derive(Debug)]
struct Tlb(NonNull<[TlbEntry; TLB_SIZE]>);

impl Tlb {
    fn shared() -> Tlb {
        Tlb(NonNull::from(&EMPTY_TLB.0))
    }

    fn is_shared(&self) -> bool {
        std::ptr::eq(self.0.as_ptr(), &EMPTY_TLB.0)
    }

    #[inline]
    fn get(&self, slot: usize) -> TlbEntry {
        // SAFETY: the pointer targets `EMPTY_TLB` or the table this TLB owns.
        unsafe { (*self.0.as_ptr())[slot] }
    }

    fn set(&mut self, slot: usize, entry: TlbEntry) {
        if self.is_shared() {
            self.0 = NonNull::from(Box::leak(Box::new([TlbEntry::INVALID; TLB_SIZE])));
        }
        // SAFETY: the table is now this TLB's own, reached only through it.
        unsafe { (*self.0.as_ptr())[slot] = entry };
    }

    fn clear(&mut self) {
        if !self.is_shared() {
            // SAFETY: as in `set` — an owned table.
            unsafe { (*self.0.as_ptr()).fill(TlbEntry::INVALID) };
        }
    }
}

impl Drop for Tlb {
    fn drop(&mut self) {
        if !self.is_shared() {
            // SAFETY: an owned table came from `Box::leak` in `set`.
            drop(unsafe { Box::from_raw(self.0.as_ptr()) });
        }
    }
}

/// A memory access fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemFault {
    pub addr: u64,
    pub len: u64,
    pub write: bool,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} fault at {:#x} (+{})",
            if self.write { "write" } else { "read" },
            self.addr,
            self.len
        )
    }
}

/// A point-in-time capture of memory contents taken by [`Memory::snapshot`].
///
/// Pages are shared with the capturing memory by reference count, so taking a
/// snapshot copies no bytes; the memory pays for a page copy only when it
/// next *writes* a page the snapshot still references.  Restoring is O(pages
/// written since the snapshot), not O(total pages).  A snapshot can also seed
/// whole new memories via [`Memory::fork`].
#[derive(Debug, Clone)]
pub struct MemSnapshot {
    /// Shared with every fork of the snapshot as its ownership base.
    pages: Arc<PageMap>,
    mapped: Vec<(u64, u64)>,
}

impl MemSnapshot {
    /// Number of pages captured.
    pub fn pages(&self) -> usize {
        self.pages.len()
    }
}

/// Sparse memory.
#[derive(Debug)]
pub struct Memory {
    pages: PageMap,
    /// Mapped (accessible) address ranges, non-overlapping.
    mapped: Vec<(u64, u64)>,
    /// Pages written since the last snapshot/restore (empty when no snapshot
    /// has been taken; tracking costs one hash insert per written page).
    dirty: HashSet<u64, BuildHasherDefault<PageHasher>>,
    /// The page most recently recorded dirty — write-heavy loops touch the
    /// same page repeatedly, so this short-circuits the set insert on the
    /// interpreter's hottest path.  `u64::MAX` when nothing is recorded.
    last_dirty: u64,
    /// Index into `mapped` of the range that satisfied the last bounds
    /// check; checked first, since consecutive accesses overwhelmingly hit
    /// the same region.  Relaxed atomic (a plain load/store on x86) so the
    /// read-only check can remember it without costing `Sync`.
    hot_range: std::sync::atomic::AtomicUsize,
    /// Whether dirty tracking is armed (set by the first `snapshot`, or at
    /// birth for a fork).
    tracking: bool,
    /// For a fork: the base snapshot's page table (shared with the snapshot,
    /// not copied), used to tell shared pages from privately materialised
    /// ones by buffer identity.  Holding the `Arc`s (rather than raw
    /// pointers) keeps the comparison sound even if the base snapshot is
    /// dropped.  Empty for a memory that was never forked — every page it
    /// materialises is its own cost.
    base: Arc<PageMap>,
    /// Writes that had to copy a shared page private.
    cow_faults: u64,
    /// Software TLB over `pages`, the interpreter's per-access fast path.
    ///
    /// Invariant: every occupied slot covers a fully-mapped page and points
    /// at its live buffer; a *writable* slot was filled in `page_mut`
    /// (post-`make_mut`) during the current snapshot epoch, with the
    /// dirty/CoW accounting already done on a uniquely-owned buffer.  The
    /// operations that break liveness or uniqueness or start a new epoch —
    /// `snapshot` (clones the page table, resets the dirty set) and
    /// `restore` (re-points pages at shared buffers, resets the dirty set) —
    /// clear the TLB, and a new memory or fork starts on the shared empty
    /// table, where every probe misses; `page_mut` itself refreshes the slot
    /// after a possible `make_mut` move.  Accesses that hit a slot may
    /// therefore go straight through the pointer.  Only `page_mut` and
    /// `read_slow` fill slots, and [`Tlb::set`] gives the memory its own
    /// table before the first one; clearing leaves the shared table alone.
    ///
    /// Provenance: raw pointers are taken via `Arc::as_ptr` / `as_mut_ptr`
    /// on the page-table path.  While a slot is live, references into its
    /// buffer are only created by `page_mut` (which immediately refreshes
    /// the slot with a fresh pointer) — reads and writes probe the TLB
    /// before touching the page table — so no pointer is used after a
    /// reference has retagged its buffer.
    tlb: Tlb,
}

/// SAFETY: `tlb` points either at the never-written, all-null `EMPTY_TLB`
/// or at a table this `Memory` owns, and the raw pointers in its slots
/// target buffers owned (via `Arc`) by `pages` of the same `Memory`.  Slot
/// pointers are only ever dereferenced and the table only ever written
/// through `&mut self` methods; `&self` methods never touch them — so
/// sending the value or sharing `&Memory` across threads is as safe as it
/// was without the TLB.
unsafe impl Send for Memory {}
/// SAFETY: see the `Send` impl.
unsafe impl Sync for Memory {}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    pub fn new() -> Self {
        Memory {
            pages: PageMap::default(),
            mapped: Vec::new(),
            dirty: HashSet::default(),
            last_dirty: u64::MAX,
            hot_range: std::sync::atomic::AtomicUsize::new(0),
            tracking: false,
            base: Arc::default(),
            cow_faults: 0,
            tlb: Tlb::shared(),
        }
    }

    #[inline]
    fn tlb_slot(page: u64) -> usize {
        (page as usize) & (TLB_SIZE - 1)
    }

    /// Declare `[base, base+size)` accessible.
    pub fn map_range(&mut self, base: u64, size: u64) {
        self.mapped.push((base, base + size));
    }

    /// Is the whole access inside a mapped range?
    #[inline]
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        let end = addr.saturating_add(len);
        if let Some(&(lo, hi)) = self.mapped.get(self.hot_range.load(Relaxed)) {
            if addr >= lo && end <= hi {
                return true;
            }
        }
        for (i, &(lo, hi)) in self.mapped.iter().enumerate() {
            if addr >= lo && end <= hi {
                self.hot_range.store(i, Relaxed);
                return true;
            }
        }
        false
    }

    fn page_mut(&mut self, page: u64) -> &mut Page {
        if self.tracking && self.last_dirty != page {
            self.dirty.insert(page);
            self.last_dirty = page;
        }
        // TLB hits skip the bounds check, so only a fully-mapped page may
        // occupy a slot.  Checked before the page table is borrowed below.
        let fully_mapped = self.is_mapped(page * PAGE_SIZE, PAGE_SIZE);
        let slot = self
            .pages
            .entry(page)
            .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize]));
        // A buffer still referenced by a snapshot or a fork sibling is
        // copied private on first write — the CoW fault.
        if Arc::strong_count(slot) > 1 {
            self.cow_faults += 1;
        }
        let buf = Arc::make_mut(slot);
        // The buffer is now uniquely owned and the page's accounting for this
        // epoch is done: later accesses may go straight through the pointer.
        // (If `make_mut` copied the page, this also replaces any read-only
        // slot still aiming at the old shared buffer.)
        let entry = if fully_mapped {
            TlbEntry {
                page,
                writable: true,
                ptr: buf.as_mut_ptr(),
            }
        } else {
            TlbEntry::INVALID
        };
        self.tlb.set(Self::tlb_slot(page), entry);
        buf
    }

    /// Capture the current contents and arm dirty-page tracking, so a later
    /// [`Memory::restore`] can rewind in O(pages written in between).  The
    /// capture itself is O(pages) reference-count bumps — no bytes move.
    pub fn snapshot(&mut self) -> MemSnapshot {
        // Cloning the page table shares every buffer, so no TLB entry may
        // outlive it; the reset dirty set starts a new tracking epoch too.
        self.tlb.clear();
        self.tracking = true;
        self.dirty.clear();
        self.last_dirty = u64::MAX;
        MemSnapshot {
            pages: Arc::new(self.pages.clone()),
            mapped: self.mapped.clone(),
        }
    }

    /// A new memory sharing every page of `snap` copy-on-write: reads hit the
    /// shared buffers, the first write to a page copies it private.  The fork
    /// starts with dirty tracking armed and owns no pages — its resident
    /// cost grows only with the pages it actually writes.  Its one copy is
    /// of the page table; the base it measures ownership against is the
    /// snapshot's own table, and its TLB is the shared empty one.
    pub fn fork(snap: &MemSnapshot) -> Memory {
        Memory {
            pages: PageMap::clone(&snap.pages),
            mapped: snap.mapped.clone(),
            dirty: HashSet::default(),
            last_dirty: u64::MAX,
            hot_range: std::sync::atomic::AtomicUsize::new(0),
            tracking: true,
            base: Arc::clone(&snap.pages),
            cow_faults: 0,
            tlb: Tlb::shared(),
        }
    }

    /// Rewind every page written since the last [`Memory::snapshot`] /
    /// [`Memory::restore`] to its state in `snap`.  Returns the number of
    /// dirty pages that were restored.
    ///
    /// Only pages recorded as dirty are touched, so restoring between
    /// requests of a warm VM costs O(working set of one request).  Restored
    /// pages re-point at the snapshot's buffers, so private copies made
    /// since the snapshot are released.  The snapshot must come from this
    /// memory or from the snapshot this memory was forked from (restoring an
    /// unrelated snapshot would miss pages dirtied before it was taken).
    pub fn restore(&mut self, snap: &MemSnapshot) -> usize {
        // Dirty pages re-point at shared buffers and the dirty set restarts:
        // both void the TLB's uniqueness/accounting certificate.
        self.tlb.clear();
        self.last_dirty = u64::MAX;
        let restored = self.dirty.len();
        // Drained in place, so the set keeps its allocation for the next
        // request.
        for page in self.dirty.drain() {
            match snap.pages.get(&page) {
                Some(p) => {
                    self.pages.insert(page, Arc::clone(p));
                }
                None => {
                    self.pages.remove(&page);
                }
            }
        }
        restored
    }

    /// Number of pages written since the last snapshot/restore.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.len()
    }

    /// Pages whose backing buffer this memory materialised itself rather
    /// than inheriting from its fork base — the per-session resident cost of
    /// a forked VM.  A page re-pointed at the base's buffer by a restore
    /// stops counting (the private copy was released).  For a memory that
    /// was never forked this counts every materialised page.
    pub fn resident_private_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|(page, buf)| match self.base.get(page) {
                Some(b) => !Arc::ptr_eq(b, buf),
                None => true,
            })
            .count()
    }

    /// Writes that had to copy a shared page private so far.
    pub fn cow_faults(&self) -> u64 {
        self.cow_faults
    }

    /// Read a 64-bit value — the dominant access width, monomorphic so the
    /// TLB hit is a single unaligned load with no width dispatch.
    #[inline]
    pub fn read8(&mut self, addr: u64) -> Result<u64, MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + 8 <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb.get(Self::tlb_slot(page));
            if e.page == page {
                // SAFETY: TLB invariant (see `read`) + the single-page check.
                return Ok(unsafe { (e.ptr.add(off) as *const u64).read_unaligned() });
            }
        }
        self.read_slow(addr, 8)
    }

    /// Write a 64-bit value; monomorphic mirror of [`Memory::read8`].
    #[inline]
    pub fn write8(&mut self, addr: u64, value: u64) -> Result<(), MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + 8 <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb.get(Self::tlb_slot(page));
            if e.page == page && e.writable {
                // SAFETY: TLB invariant (see `write`) + the single-page check.
                unsafe { (e.ptr.add(off) as *mut u64).write_unaligned(value) };
                return Ok(());
            }
        }
        self.write_slow(addr, 8, value)
    }

    /// Read `len` (1..=8) bytes, zero-extended into a u64.
    ///
    /// The body the interpreter actually inlines is just the TLB probe;
    /// everything else lives in `Memory::read_slow`.
    #[inline]
    pub fn read(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb.get(Self::tlb_slot(page));
            if e.page == page {
                // SAFETY: the TLB invariant (see the `tlb` field) — `e.ptr`
                // points at this page's live buffer, the whole page is
                // mapped (so the access cannot fault), and
                // `off + len <= PAGE_SIZE` bounds the access.  The width
                // match keeps the copy a single unaligned load (a
                // runtime-length `copy_nonoverlapping` would be a `memcpy`
                // call on this per-instruction path).
                let p = unsafe { e.ptr.add(off) };
                let v = match len {
                    8 => unsafe { (p as *const u64).read_unaligned() },
                    4 => (unsafe { (p as *const u32).read_unaligned() }) as u64,
                    2 => (unsafe { (p as *const u16).read_unaligned() }) as u64,
                    1 => (unsafe { *p }) as u64,
                    _ => {
                        let mut out = [0u8; 8];
                        unsafe {
                            std::ptr::copy_nonoverlapping(p, out.as_mut_ptr(), len as usize);
                        }
                        u64::from_le_bytes(out)
                    }
                };
                return Ok(v);
            }
        }
        self.read_slow(addr, len)
    }

    fn read_slow(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        if !self.is_mapped(addr, len) {
            return Err(MemFault {
                addr,
                len,
                write: false,
            });
        }
        let mut out = [0u8; 8];
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            // The access stays on one page — at most a single lookup and a
            // slice copy (unmaterialised pages read as zero).
            let page = addr / PAGE_SIZE;
            if let Some(p) = self.pages.get(&page) {
                out[..len as usize].copy_from_slice(&p[off..off + len as usize]);
                // Remember the buffer read-only (`Arc::as_ptr` — no `&` into
                // the data, see the provenance note on `tlb`) so further
                // reads of this hot page skip the page table.  Only a
                // fully-mapped page may occupy a slot.
                let ptr = Arc::as_ptr(p) as *mut u8;
                if self.is_mapped(page * PAGE_SIZE, PAGE_SIZE) {
                    let entry = TlbEntry {
                        page,
                        writable: false,
                        ptr,
                    };
                    self.tlb.set(Self::tlb_slot(page), entry);
                }
            }
            return Ok(u64::from_le_bytes(out));
        }
        for i in 0..len {
            let a = addr + i;
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            out[i as usize] = match self.pages.get(&page) {
                Some(p) => p[off],
                None => 0,
            };
        }
        Ok(u64::from_le_bytes(out))
    }

    /// Write the low `len` bytes of `value`.
    ///
    /// Mirror of [`Memory::read`]: inlined TLB probe, outlined slow path.
    #[inline]
    pub fn write(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        let bytes = value.to_le_bytes();
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            let page = addr / PAGE_SIZE;
            let e = self.tlb.get(Self::tlb_slot(page));
            if e.page == page && e.writable {
                // SAFETY: TLB invariant — unique live buffer on a fully
                // mapped page, CoW/dirty accounting for it already done this
                // epoch, access bounded by the single-page check above.  The
                // width match keeps the copy a single unaligned store (see
                // the note in `read`).
                let p = unsafe { e.ptr.add(off) };
                match len {
                    8 => unsafe { (p as *mut u64).write_unaligned(value) },
                    4 => unsafe { (p as *mut u32).write_unaligned(value as u32) },
                    2 => unsafe { (p as *mut u16).write_unaligned(value as u16) },
                    1 => unsafe { *p = value as u8 },
                    _ => unsafe {
                        std::ptr::copy_nonoverlapping(bytes.as_ptr(), p, len as usize);
                    },
                }
                return Ok(());
            }
        }
        self.write_slow(addr, len, value)
    }

    fn write_slow(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        if !self.is_mapped(addr, len) {
            return Err(MemFault {
                addr,
                len,
                write: true,
            });
        }
        let bytes = value.to_le_bytes();
        let off = (addr % PAGE_SIZE) as usize;
        if off as u64 + len <= PAGE_SIZE {
            // One `page_mut` (one dirty insert, at most one CoW fault —
            // identical to what the per-byte loop counted, since the first
            // byte's copy makes the page private for the rest).
            let buf = self.page_mut(addr / PAGE_SIZE);
            buf[off..off + len as usize].copy_from_slice(&bytes[..len as usize]);
            return Ok(());
        }
        for i in 0..len {
            let a = addr + i;
            let page = a / PAGE_SIZE;
            let off = (a % PAGE_SIZE) as usize;
            self.page_mut(page)[off] = bytes[i as usize];
        }
        Ok(())
    }

    /// Bulk copy out of memory (used by the trusted library wrappers), one
    /// page-sized chunk at a time.  A chunk that is not fully mapped is read
    /// byte by byte, so a fault names the same first unmapped byte a
    /// byte-at-a-time copy would.
    pub fn read_bytes(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let mut v = Vec::with_capacity(len as usize);
        for (a, page, off, n) in page_chunks(addr, len) {
            let e = self.tlb.get(Self::tlb_slot(page));
            if e.page == page {
                // SAFETY: TLB invariant — the live buffer of a fully-mapped
                // page — and `off + n <= PAGE_SIZE` (`page_chunks`).
                v.extend_from_slice(unsafe { std::slice::from_raw_parts(e.ptr.add(off), n) });
            } else if self.is_mapped(a, n as u64) {
                match self.pages.get(&page) {
                    Some(p) => v.extend_from_slice(&p[off..off + n]),
                    None => v.resize(v.len() + n, 0),
                }
            } else {
                for i in 0..n as u64 {
                    v.push(self.read(a + i, 1)? as u8);
                }
            }
        }
        Ok(v)
    }

    /// Bulk copy into memory, one page-sized chunk at a time.  Each chunk
    /// does the dirty and CoW accounting of its page once — exactly what
    /// the first byte of a byte-at-a-time copy did for it.  A chunk that is
    /// not fully mapped is written byte by byte, so a fault leaves the same
    /// bytes written and names the same address.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let mut rest = bytes;
        for (a, page, off, n) in page_chunks(addr, bytes.len() as u64) {
            let (chunk, tail) = rest.split_at(n);
            rest = tail;
            let e = self.tlb.get(Self::tlb_slot(page));
            if e.page == page && e.writable {
                // SAFETY: TLB invariant — unique live buffer on a fully
                // mapped page, its accounting done — and `off + n <=
                // PAGE_SIZE` (`page_chunks`).
                unsafe { std::ptr::copy_nonoverlapping(chunk.as_ptr(), e.ptr.add(off), n) };
            } else if self.is_mapped(a, n as u64) {
                self.page_mut(page)[off..off + n].copy_from_slice(chunk);
            } else {
                for (i, b) in chunk.iter().enumerate() {
                    self.write(a + i as u64, 1, *b as u64)?;
                }
            }
        }
        Ok(())
    }

    /// Read a NUL-terminated string of at most `max` bytes.
    pub fn read_cstring(&mut self, addr: u64, max: u64) -> Result<Vec<u8>, MemFault> {
        let mut v = Vec::new();
        for i in 0..max {
            let b = self.read(addr + i, 1)? as u8;
            if b == 0 {
                break;
            }
            v.push(b);
        }
        Ok(v)
    }

    /// Number of distinct pages reachable (shared or private — a locality
    /// proxy reported in statistics).
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }
}

/// `[addr, addr + len)` split at page boundaries, as (chunk address, page,
/// offset in the page, chunk length).
fn page_chunks(addr: u64, len: u64) -> impl Iterator<Item = (u64, u64, usize, usize)> {
    let end = addr.saturating_add(len);
    let mut a = addr;
    std::iter::from_fn(move || {
        (a < end).then(|| {
            let off = a % PAGE_SIZE;
            let n = (end - a).min(PAGE_SIZE - off);
            let chunk = (a, a / PAGE_SIZE, off as usize, n as usize);
            a += n;
            chunk
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map_range(0x1000, 0x1000);
        m
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        m.write(0x1000, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read(0x1000, 8).unwrap(), 0xdead_beef_cafe_f00d);
        m.write(0x1100, 1, 0xab).unwrap();
        assert_eq!(m.read(0x1100, 1).unwrap(), 0xab);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = mem();
        assert!(m.read(0x5000, 8).is_err());
        assert!(m.write(0x0, 1, 1).is_err());
        // An access straddling the end of the mapping also faults.
        assert!(m.read(0x1ffc, 8).is_err());
    }

    #[test]
    fn zero_initialised() {
        let mut m = mem();
        assert_eq!(m.read(0x1800, 8).unwrap(), 0);
    }

    #[test]
    fn bulk_and_cstring_helpers() {
        let mut m = mem();
        m.write_bytes(0x1200, b"hello\0world").unwrap();
        assert_eq!(m.read_cstring(0x1200, 64).unwrap(), b"hello");
        assert_eq!(m.read_bytes(0x1200, 5).unwrap(), b"hello");
    }

    #[test]
    fn snapshot_restore_rewinds_only_dirty_pages() {
        let mut m = Memory::new();
        m.map_range(0, 16 * 4096);
        m.write(0x0, 8, 1).unwrap();
        m.write(0x2000, 8, 2).unwrap();
        let snap = m.snapshot();
        assert_eq!(m.dirty_pages(), 0);
        // Dirty two pages: one that existed in the snapshot, one fresh.
        m.write(0x0, 8, 99).unwrap();
        m.write(0x5000, 8, 77).unwrap();
        assert_eq!(m.dirty_pages(), 2);
        let restored = m.restore(&snap);
        assert_eq!(restored, 2);
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
        assert_eq!(m.read(0x2000, 8).unwrap(), 2);
        assert_eq!(m.read(0x5000, 8).unwrap(), 0, "fresh page dropped");
        // Restore re-arms tracking: a second round works identically.
        m.write(0x0, 8, 123).unwrap();
        assert_eq!(m.restore(&snap), 1);
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
    }

    #[test]
    fn restore_with_no_writes_is_free() {
        let mut m = mem();
        m.write(0x1000, 8, 5).unwrap();
        let snap = m.snapshot();
        assert_eq!(m.restore(&snap), 0);
        assert_eq!(m.read(0x1000, 8).unwrap(), 5);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        m.map_range(0, 2 * 4096);
        m.write(4090, 8, u64::MAX).unwrap();
        assert_eq!(m.read(4090, 8).unwrap(), u64::MAX);
    }

    #[test]
    fn snapshot_write_copies_page_lazily_and_preserves_the_capture() {
        let mut m = mem();
        m.write(0x1000, 8, 7).unwrap();
        let snap = m.snapshot();
        // The snapshot shares the buffer; the next write CoW-copies it.
        assert_eq!(m.cow_faults(), 0);
        m.write(0x1000, 8, 8).unwrap();
        assert!(m.cow_faults() >= 1);
        assert_eq!(m.read(0x1000, 8).unwrap(), 8);
        m.restore(&snap);
        assert_eq!(m.read(0x1000, 8).unwrap(), 7, "capture unharmed by CoW");
    }

    #[test]
    fn restore_after_restore_rewinds_each_rounds_writes() {
        // Two restore rounds with different write sets: the second restore
        // must rewind exactly the second round's pages, including a page the
        // first round never touched.
        let mut m = Memory::new();
        m.map_range(0, 16 * 4096);
        m.write(0x0, 8, 1).unwrap();
        let snap = m.snapshot();
        m.write(0x0, 8, 2).unwrap();
        assert_eq!(m.restore(&snap), 1);
        m.write(0x3000, 8, 3).unwrap();
        m.write(0x7000, 8, 4).unwrap();
        assert_eq!(m.restore(&snap), 2, "second round tracked independently");
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
        assert_eq!(m.read(0x3000, 8).unwrap(), 0);
        assert_eq!(m.read(0x7000, 8).unwrap(), 0);
        // And a third round still works after back-to-back restores with no
        // writes in between.
        assert_eq!(m.restore(&snap), 0);
        assert_eq!(m.read(0x0, 8).unwrap(), 1);
    }

    #[test]
    fn dirty_write_straddling_a_page_boundary_restores_both_pages() {
        let mut m = Memory::new();
        m.map_range(0, 4 * 4096);
        m.write(4090, 8, 0x1111_2222_3333_4444).unwrap();
        let snap = m.snapshot();
        // One 8-byte store spanning pages 0 and 1 dirties both.
        m.write(4090, 8, u64::MAX).unwrap();
        assert_eq!(m.dirty_pages(), 2);
        assert_eq!(m.restore(&snap), 2);
        assert_eq!(m.read(4090, 8).unwrap(), 0x1111_2222_3333_4444);
    }

    #[test]
    fn forks_share_pages_and_never_observe_each_others_writes() {
        let mut base = Memory::new();
        base.map_range(0, 8 * 4096);
        base.write(0x0, 8, 42).unwrap();
        base.write(0x2000, 8, 43).unwrap();
        let snap = base.snapshot();
        let mut f1 = Memory::fork(&snap);
        let mut f2 = Memory::fork(&snap);
        assert_eq!(f1.resident_private_pages(), 0, "forks own nothing");
        assert_eq!(f1.read(0x0, 8).unwrap(), 42, "reads hit shared pages");
        f1.write(0x0, 8, 100).unwrap();
        f2.write(0x0, 8, 200).unwrap();
        assert_eq!(f1.read(0x0, 8).unwrap(), 100);
        assert_eq!(f2.read(0x0, 8).unwrap(), 200);
        assert_eq!(base.read(0x0, 8).unwrap(), 42, "base unharmed");
        assert_eq!(f1.cow_faults(), 1);
        assert_eq!(f1.resident_private_pages(), 1);
        assert_eq!(f2.read(0x2000, 8).unwrap(), 43, "untouched page shared");
    }

    #[test]
    fn fork_restore_releases_private_copies() {
        let mut base = Memory::new();
        base.map_range(0, 8 * 4096);
        base.write(0x0, 8, 7).unwrap();
        let snap = base.snapshot();
        let mut f = Memory::fork(&snap);
        f.write(0x0, 8, 9).unwrap();
        f.write(0x5000, 8, 10).unwrap();
        assert_eq!(f.resident_private_pages(), 2);
        assert_eq!(f.restore(&snap), 2);
        assert_eq!(f.resident_private_pages(), 0, "copies released");
        assert_eq!(f.read(0x0, 8).unwrap(), 7);
        assert_eq!(f.read(0x5000, 8).unwrap(), 0);
    }

    #[test]
    fn a_fork_holds_the_shared_tlb_until_its_first_access() {
        let mut base = Memory::new();
        base.map_range(0, 4 * 4096);
        base.write(0x0, 8, 5).unwrap();
        let snap = base.snapshot();
        let mut f = Memory::fork(&snap);
        assert!(f.tlb.is_shared(), "a fresh fork allocates no table");
        f.restore(&snap);
        assert!(f.tlb.is_shared(), "rewinding an unused fork allocates none");
        assert_eq!(f.read(0x0, 8).unwrap(), 5);
        assert!(!f.tlb.is_shared(), "the first fill gives the fork its own");
        assert_eq!(f.read(0x0, 8).unwrap(), 5, "and later reads hit it");
        f.write(0x0, 8, 6).unwrap();
        assert!(
            EMPTY_TLB.0.iter().all(|e| e.page == u64::MAX),
            "the shared table is never written"
        );
        let mut g = Memory::fork(&snap);
        assert_eq!(g.read(0x0, 8).unwrap(), 5, "a sibling sees no stale slot");
    }

    /// The byte-at-a-time copies the page-wise `read_bytes`/`write_bytes`
    /// must match exactly.
    fn read_bytes_oracle(m: &mut Memory, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        (0..len)
            .map(|i| m.read(addr + i, 1).map(|b| b as u8))
            .collect()
    }

    fn write_bytes_oracle(m: &mut Memory, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        for (i, b) in bytes.iter().enumerate() {
            m.write(addr + i as u64, 1, *b as u64)?;
        }
        Ok(())
    }

    #[test]
    fn page_wise_copies_match_a_byte_at_a_time_oracle() {
        // Pages 0-2 mapped whole; a second range starting and ending inside
        // pages 4 and 5; page 3 and everything from page 6 up unmapped.
        let ranges = [(0, 3 * 4096), (4 * 4096 + 100, 5 * 4096 + 2048)];
        let mut base = Memory::new();
        for (lo, hi) in ranges {
            base.map_range(lo, hi - lo);
        }
        // Materialise pages 0, 2 and 4; pages 1 and 5 read as zeros.
        for a in [0x10, 2 * 4096 + 7, 4 * 4096 + 200] {
            base.write(a, 8, 0x0102_0304_0506_0708).unwrap();
        }
        let snap = base.snapshot();
        let cases: &[(u64, u64)] = &[
            (0, 0),
            (0x10, 8),
            (4090, 20),                    // straddles pages 0 and 1
            (4096 - 8, 4096 + 16),         // three pages
            (0, 3 * 4096),                 // the whole first mapping
            (3 * 4096 - 5, 10),            // runs off its end
            (3 * 4096 + 10, 4),            // unmapped page
            (4 * 4096 + 90, 20),           // starts before the second range
            (4 * 4096 + 100, 4096 + 1948), // exactly the second range
            (5 * 4096 + 2000, 100),        // runs off its end
            (5 * 4096 + 2047, 1),          // its last byte
        ];
        for &(addr, len) in cases {
            for warm in [false, true] {
                let fresh = || {
                    let mut m = Memory::fork(&snap);
                    if warm {
                        // Writable and read-only TLB slots on the pages the
                        // copy starts and ends on.
                        let _ = m.write(addr, 1, 0xee);
                        let _ = m.read(addr + len.saturating_sub(1), 1);
                    }
                    m
                };
                let (mut m, mut o) = (fresh(), fresh());
                let want = read_bytes_oracle(&mut o, addr, len);
                assert_eq!(m.read_bytes(addr, len), want, "read {addr:#x}+{len}");

                let data: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
                let (mut m, mut o) = (fresh(), fresh());
                let want = write_bytes_oracle(&mut o, addr, &data);
                let ctx = format!("write {addr:#x}+{len} warm={warm}");
                assert_eq!(m.write_bytes(addr, &data), want, "{ctx}");
                assert_eq!(m.dirty_pages(), o.dirty_pages(), "{ctx}");
                assert_eq!(m.cow_faults(), o.cow_faults(), "{ctx}");
                assert_eq!(m.touched_pages(), o.touched_pages(), "{ctx}");
                for (lo, hi) in ranges {
                    assert_eq!(
                        read_bytes_oracle(&mut m, lo, hi - lo),
                        read_bytes_oracle(&mut o, lo, hi - lo),
                        "{ctx}: contents after the copy"
                    );
                }
            }
        }
    }

    #[test]
    fn fork_of_a_forks_snapshot_tracks_ownership_through_restore() {
        // A fork takes its own snapshot (post-setup); restoring to it must
        // keep the fork's setup pages owned but release request pages.
        let mut base = Memory::new();
        base.map_range(0, 8 * 4096);
        base.write(0x0, 8, 1).unwrap();
        let base_snap = base.snapshot();
        let mut f = Memory::fork(&base_snap);
        f.write(0x1000, 8, 2).unwrap(); // "setup" page: materialised by the fork
        let post_setup = f.snapshot();
        f.write(0x1000, 8, 3).unwrap(); // re-dirty the setup page
        f.write(0x0, 8, 4).unwrap(); // CoW a base page
        assert_eq!(f.resident_private_pages(), 2);
        assert_eq!(f.restore(&post_setup), 2);
        assert_eq!(f.read(0x1000, 8).unwrap(), 2);
        assert_eq!(f.read(0x0, 8).unwrap(), 1, "base page rewound");
        assert_eq!(
            f.resident_private_pages(),
            1,
            "setup page stays owned, the CoW'd base page is released"
        );
    }
}
