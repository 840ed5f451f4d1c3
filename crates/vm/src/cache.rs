//! A small set-associative data-cache model.
//!
//! The cache exists purely for the cost model: it reproduces the
//! cache-pressure effect the paper attributes to the separation of public and
//! private stacks (the `OurMPX` vs `OurMPX-Sep` gap in Figure 6 grows with
//! the response size because the split stacks double the frames' cache
//! footprint).

/// A physically-indexed, LRU, set-associative cache.
///
/// Tags are stored flat (`sets × ways`, each set one contiguous MRU-first
/// chunk) so an access touches a single host cache line: this sits on the
/// interpreter's per-load/store hot path.  Empty slots hold `EMPTY` and
/// collect at a set's LRU end, so the lookup needs no per-set length.
///
/// The cache keeps no hit/miss counters of its own — [`DataCache::access`]
/// reports each outcome to its caller, and the execution engines account
/// them in whatever way is cheapest for their loop (per-step statistics for
/// the legacy engine, register accumulators for the block engine).
///
/// Every cache satisfies `tags.len() == (set_mask + 1) * ways`: the
/// constructors build it, `DataCache::unallocated` holds it with zero ways,
/// and `clone_from` copies all four fields together.
#[derive(Debug)]
pub struct DataCache {
    tags: Vec<u64>,
    ways: usize,
    line_bits: u32,
    set_mask: u64,
}

/// Sentinel for an unoccupied way.  Guest addresses live in the layout's
/// mapped ranges far below `2^64`, so no real line tag collides with it.
const EMPTY: u64 = u64::MAX;

impl DataCache {
    /// Default configuration: 32 KiB, 64-byte lines, 8 ways.
    pub fn default_l1() -> Self {
        DataCache::new(32 * 1024, 64, 8)
    }

    /// A cache with no tag storage (zero ways): the placeholder a forked VM
    /// holds until its first run copies the snapshot's cache state in with
    /// `clone_from`.  It must not be accessed — [`DataCache::access`] on it
    /// panics on the empty set, it never reads out of bounds.
    pub(crate) fn unallocated() -> Self {
        DataCache {
            tags: Vec::new(),
            ways: 0,
            line_bits: 0,
            set_mask: 0,
        }
    }

    pub fn new(size_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        let lines = size_bytes / line_bytes;
        let sets = (lines / ways).max(1);
        DataCache {
            tags: vec![EMPTY; sets * ways],
            ways,
            line_bits: line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
        }
    }

    /// Access one address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_bits;
        let base = (line & self.set_mask) as usize * self.ways;
        // SAFETY: `line & set_mask <= set_mask`, so `base + ways <=
        // (set_mask + 1) * ways == tags.len()` (the invariant on the type).
        // The explicit bounds check would sit on the interpreter's
        // per-load/store path.
        let set = unsafe { self.tags.get_unchecked_mut(base..base + self.ways) };
        // Consecutive accesses overwhelmingly land on the line they just
        // touched: an MRU hit is one compare and no reordering.
        if set[0] == line {
            return true;
        }
        if let Some(pos) = set[1..].iter().position(|&t| t == line) {
            // Move the hit to the MRU slot, sliding the ways it passed.
            set[..=pos + 1].rotate_right(1);
            true
        } else {
            // The LRU way (or an empty slot — they pool at the tail) falls
            // off as everything slides towards LRU.
            set.rotate_right(1);
            set[0] = line;
            false
        }
    }
}

impl Clone for DataCache {
    fn clone(&self) -> Self {
        DataCache {
            tags: self.tags.clone(),
            ways: self.ways,
            line_bits: self.line_bits,
            set_mask: self.set_mask,
        }
    }

    /// Copies the tags into this cache's own allocation, so a VM rewound to
    /// the same snapshot request after request allocates its tags once.
    fn clone_from(&mut self, source: &Self) {
        self.tags.clone_from(&source.tags);
        self.ways = source.ways;
        self.line_bits = source.line_bits;
        self.set_mask = source.set_mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = DataCache::default_l1();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line");
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = DataCache::new(1024, 64, 2);
        // Touch 64 distinct lines twice; the 1 KiB cache can hold only 16,
        // so the second round must still miss almost everywhere.
        let mut misses = 0;
        for _ in 0..2 {
            for i in 0..64u64 {
                if !c.access(i * 64) {
                    misses += 1;
                }
            }
        }
        assert!(misses >= 64 + 57, "got {misses}");
    }

    #[test]
    fn lru_keeps_recent_lines() {
        let mut c = DataCache::new(128, 64, 2); // 1 set, 2 ways
        c.access(0);
        c.access(64);
        c.access(0); // 0 becomes MRU
        c.access(128); // evicts 64
        assert!(c.access(0));
        assert!(!c.access(64));
    }
}
