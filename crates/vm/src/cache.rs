//! A small set-associative data-cache model.
//!
//! The cache exists purely for the cost model: it reproduces the
//! cache-pressure effect the paper attributes to the separation of public and
//! private stacks (the `OurMPX` vs `OurMPX-Sep` gap in Figure 6 grows with
//! the response size because the split stacks double the frames' cache
//! footprint).

/// log2 of the line size: 64-byte lines.
const LINE_BITS: u32 = 6;
/// Number of sets (a power of two, so the set index is a mask).
const SETS: usize = 64;
/// Ways per set.
const WAYS: usize = 8;

/// The modelled L1: a physically-indexed, LRU, set-associative cache of
/// 64-byte lines × 64 sets × 8 ways (32 KiB).
///
/// The geometry is fixed at compile time, so an access is a shift, a mask
/// and a probe of one 64-byte set with no geometry loaded from the cache
/// itself: this sits on the interpreter's per-load/store hot path.  Each
/// set keeps its tags MRU-first; empty slots hold `EMPTY` and collect at a
/// set's LRU end, so the lookup needs no per-set length.
///
/// The cache keeps no hit/miss counters of its own — [`DataCache::access`]
/// reports each outcome to its caller, and the execution engines account
/// them in whatever way is cheapest for their loop (per-step statistics for
/// the legacy engine, locals of the block engine's op loop).
#[derive(Debug)]
pub struct DataCache {
    /// `SETS` sets, or none for the placeholder `DataCache::unallocated`
    /// builds (see the invariant at [`DataCache::access`]).
    sets: Vec<[u64; WAYS]>,
}

/// Sentinel for an unoccupied way.  Guest addresses live in the layout's
/// mapped ranges far below `2^64`, so no real line tag collides with it.
const EMPTY: u64 = u64::MAX;

impl DataCache {
    /// An empty cache: 32 KiB, 64-byte lines, 8 ways.
    pub fn default_l1() -> Self {
        DataCache {
            sets: vec![[EMPTY; WAYS]; SETS],
        }
    }

    /// A cache with no tag storage: the placeholder a forked VM holds until
    /// its first run copies the snapshot's cache state in with `clone_from`.
    ///
    /// # Safety
    ///
    /// The caller must not call [`DataCache::access`] on the result until
    /// `clone_from` has copied a cache built by [`DataCache::default_l1`]
    /// (or a clone of one) into it.
    pub(crate) unsafe fn unallocated() -> Self {
        DataCache { sets: Vec::new() }
    }

    /// Access one address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> LINE_BITS;
        let index = line as usize & (SETS - 1);
        debug_assert_eq!(self.sets.len(), SETS, "access to an unallocated cache");
        // SAFETY: `index < SETS`, and every cache that is accessed holds
        // `SETS` sets: `default_l1` builds them, `clone`/`clone_from` copy
        // them, and the only cache with fewer is `unallocated`'s, whose
        // caller guarantees no access before `clone_from` fills it (a
        // forked `Vm` holds one only while its `cache_pending` is set, and
        // `run_thread` copies the pending state in before an engine runs).
        // The explicit bounds check would sit on every load and store.
        let set = unsafe { self.sets.get_unchecked_mut(index) };
        // Consecutive accesses overwhelmingly land on the line they just
        // touched: an MRU hit is one compare and no reordering.
        if set[0] == line {
            return true;
        }
        // A hit slides the ways it passed one step towards LRU; a miss
        // slides all of them, dropping the LRU way (or an empty slot —
        // they pool at the tail).  Either way the line becomes MRU.
        let way = set[1..].iter().position(|&t| t == line);
        let end = way.map_or(WAYS - 1, |pos| pos + 1);
        set.copy_within(0..end, 1);
        set[0] = line;
        way.is_some()
    }
}

impl Clone for DataCache {
    fn clone(&self) -> Self {
        DataCache {
            sets: self.sets.clone(),
        }
    }

    /// Copies the tags into this cache's own allocation, so a VM rewound to
    /// the same snapshot request after request allocates its tags once.
    fn clone_from(&mut self, source: &Self) {
        self.sets.clone_from(&source.sets);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// splitmix64, for reproducible address streams.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The naive reference: one MRU-first recency list of at most `WAYS`
    /// lines per set, searched and reordered with plain `Vec` operations.
    struct Model(Vec<Vec<u64>>);

    impl Model {
        fn new() -> Self {
            Model(vec![Vec::new(); SETS])
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / 64;
            let set = &mut self.0[(line % SETS as u64) as usize];
            let hit = match set.iter().position(|&t| t == line) {
                Some(i) => {
                    set.remove(i);
                    true
                }
                None => {
                    set.truncate(WAYS - 1);
                    false
                }
            };
            set.insert(0, line);
            hit
        }
    }

    /// Every access of `addrs` must hit or miss in the cache exactly as in
    /// the model.
    fn assert_matches_model(addrs: impl IntoIterator<Item = u64>, ctx: &str) {
        let mut cache = DataCache::default_l1();
        let mut model = Model::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, addr) in addrs.into_iter().enumerate() {
            let hit = cache.access(addr);
            assert_eq!(hit, model.access(addr), "{ctx}: access {i} at {addr:#x}");
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        // A stream that only hits or only misses exercises half the path.
        assert!(
            hits > 0 && misses > 0,
            "{ctx}: {hits} hits, {misses} misses"
        );
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = DataCache::default_l1();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line");
    }

    #[test]
    fn matches_a_naive_lru_model_on_random_streams() {
        for seed in 0..16u64 {
            let mut rng = Rng(seed);
            // A working set of `lines` distinct lines around a base: 64 fits
            // easily, 512 is the whole cache, 2048 is four times too large.
            let lines = [64u64, 512, 2048][seed as usize % 3];
            let base = 0x10_0000 + (rng.next() % 1024) * 8;
            let stream: Vec<u64> = (0..20_000)
                .map(|_| base + (rng.next() % lines) * 64 + rng.next() % 64)
                .collect();
            assert_matches_model(stream, &format!("seed {seed}, {lines} lines"));
        }
    }

    #[test]
    fn matches_the_model_when_one_set_is_hammered() {
        // Addresses 4 KiB apart share one set (64 sets of 64-byte lines):
        // 12 lines compete for 8 ways.
        for seed in 0..8u64 {
            let mut rng = Rng(seed);
            let set_offset = (rng.next() % SETS as u64) * 64;
            let stream: Vec<u64> = (0..5_000)
                .map(|_| 0x40_0000 + set_offset + (rng.next() % 12) * 4096)
                .collect();
            assert_matches_model(stream, &format!("seed {seed}"));
        }
    }

    #[test]
    fn matches_the_model_on_sweeps_larger_than_the_cache() {
        // Cyclic sweeps over 520 and 1024 lines (the cache holds 512), with
        // a strided revisit mixed in, then a random tail.
        let mut rng = Rng(7);
        let mut stream = Vec::new();
        for lines in [520u64, 1024] {
            for round in 0..3 {
                for i in 0..lines {
                    stream.push(i * 64);
                    if i % 97 == round {
                        stream.push((i / 2) * 64 + 8);
                    }
                }
            }
        }
        stream.extend((0..4_000).map(|_| (rng.next() % 1536) * 64));
        assert_matches_model(stream, "sweeps");
    }

    #[test]
    fn working_set_larger_than_cache_misses() {
        let mut c = DataCache::default_l1();
        // Touch 1024 distinct lines twice; the 32 KiB cache holds only 512,
        // and under LRU a cyclic sweep of twice its size evicts every line
        // before it comes round again.
        let mut misses = 0;
        for _ in 0..2 {
            for i in 0..1024u64 {
                if !c.access(i * 64) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 2 * 1024);
    }

    #[test]
    fn lru_keeps_recent_lines() {
        let mut c = DataCache::default_l1();
        // Nine lines 4 KiB apart all map to set 0, one more than its ways.
        let line = |i: u64| i * 4096;
        for i in 0..WAYS as u64 {
            c.access(line(i));
        }
        c.access(line(0)); // line 0 becomes MRU; line 1 is now LRU
        c.access(line(WAYS as u64)); // evicts line 1
        assert!(c.access(line(0)));
        assert!(!c.access(line(1)));
    }
}
