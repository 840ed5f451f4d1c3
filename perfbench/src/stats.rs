//! The benchmark's own arithmetic: percentiles, the geometric-mean
//! overhead, op accounting, and the seeded input generator.

/// Nearest-rank percentile of `samples` (sorted or not): the smallest
/// sample with at least `pct`% of the samples at or below it.
pub fn nearest_rank(samples: &[u64], pct: u32) -> Option<u64> {
    if samples.is_empty() || pct == 0 || pct > 100 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank - 1])
}

/// The percentile, reported only when at least ten samples lie beyond it:
/// a tail read from fewer samples is one or two outliers, not a tail.
pub fn reportable_percentile(samples: &[u64], pct: u32) -> Option<u64> {
    let value = nearest_rank(samples, pct)?;
    let beyond = samples.iter().filter(|&&s| s > value).count();
    (beyond >= 10).then_some(value)
}

/// Median of a list of floats (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Ops per second of `clients` closed-loop clients: each client always
/// has one op in flight, so the ops' latencies summed over the clients are
/// the time they took.
pub fn closed_loop_rate(latencies_ns: &[f64], clients: usize) -> f64 {
    let busy_ns: f64 = latencies_ns.iter().sum();
    if busy_ns <= 0.0 {
        return 0.0;
    }
    (clients * latencies_ns.len()) as f64 * 1e9 / busy_ns
}

/// Host speed at `at_ns` relative to the reference host: `reference_s`
/// over the median of the `k` yardstick times measured nearest to `at_ns`.
/// `probes` holds (when, yardstick seconds) sorted by time; 1.0 without
/// probes.
pub fn local_speed(probes: &[(u64, f64)], at_ns: u64, k: usize, reference_s: f64) -> f64 {
    if probes.is_empty() {
        return 1.0;
    }
    let k = k.clamp(1, probes.len());
    // Grow the window [lo, hi) outwards from `at_ns`, nearer side first.
    let mut hi = probes.partition_point(|&(t, _)| t < at_ns);
    let mut lo = hi;
    while hi - lo < k {
        let take_left = match (lo.checked_sub(1), probes.get(hi)) {
            (Some(l), Some(&(th, _))) => at_ns - probes[l].0 <= th - at_ns,
            (Some(_), None) => true,
            _ => false,
        };
        if take_left {
            lo -= 1;
        } else {
            hi += 1;
        }
    }
    let times: Vec<f64> = probes[lo..hi].iter().map(|&(_, s)| s).collect();
    reference_s / median(&times)
}

/// Geometric mean of `ratios`, minus 1, in percent: the paper's way of
/// averaging per-program overheads over a baseline.
pub fn geomean_overhead_pct(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "overhead of no programs");
    assert!(
        ratios.iter().all(|r| *r > 0.0),
        "cycle ratios must be positive"
    );
    let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
    (log_mean.exp() - 1.0) * 100.0
}

/// How one unit of work ended.  A unit is one op, except on `scale`,
/// where `ok_pct` counts arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Correct,
    /// The program faulted or returned an error.
    Fault,
    /// The program finished but its output differs from the reference.
    Wrong,
    /// The scheduler refused the arrival.
    Shed,
}

/// Tally of units and how they ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub correct: u64,
    pub faults: u64,
    pub wrong: u64,
    pub shed: u64,
}

impl Tally {
    pub fn record(&mut self, verdict: Verdict) {
        self.record_n(verdict, 1);
    }

    pub fn record_n(&mut self, verdict: Verdict, n: u64) {
        match verdict {
            Verdict::Correct => self.correct += n,
            Verdict::Fault => self.faults += n,
            Verdict::Wrong => self.wrong += n,
            Verdict::Shed => self.shed += n,
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.correct += other.correct;
        self.faults += other.faults;
        self.wrong += other.wrong;
        self.shed += other.shed;
    }

    pub fn attempted(&self) -> u64 {
        self.correct + self.faults + self.wrong + self.shed
    }

    /// Units that ended in a fault or a wrong output.  A shed arrival is
    /// the scheduler working as designed, so it lowers `ok_pct` without
    /// marking the run incorrect.
    pub fn broken(&self) -> u64 {
        self.faults + self.wrong
    }

    /// Share of attempted units that finished with correct output.
    pub fn ok_pct(&self) -> f64 {
        let attempted = self.attempted();
        if attempted == 0 {
            return 0.0;
        }
        self.correct as f64 * 100.0 / attempted as f64
    }
}

/// Seeded input generator (splitmix64).  The benchmark's inputs come from
/// this alone, so one seed always gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a digest of observable bytes, as recorded in `expected.txt`.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&s, 50), Some(5));
        assert_eq!(nearest_rank(&s, 90), Some(9));
        assert_eq!(nearest_rank(&s, 91), Some(10));
        assert_eq!(nearest_rank(&s, 100), Some(10));
        assert_eq!(nearest_rank(&[7], 50), Some(7));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&[3, 1, 2], 0), None);
        // Order of the input does not matter.
        assert_eq!(nearest_rank(&[9, 1, 5, 3, 7], 50), Some(5));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<u64> = (1..=100).collect();
        // p90 of 100 samples is 90 with exactly 10 samples above it.
        assert_eq!(reportable_percentile(&hundred, 90), Some(90));
        // p90 of 99 samples has only 9 samples above it.
        let ninety_nine: Vec<u64> = (1..=99).collect();
        assert_eq!(reportable_percentile(&ninety_nine, 90), None);
        // Ties at the percentile do not count as beyond it.
        let mut tied = vec![5u64; 95];
        tied.extend(6..=10);
        assert_eq!(reportable_percentile(&tied, 90), None);
        assert_eq!(reportable_percentile(&hundred, 50), Some(50));
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn closed_loop_rate_is_ops_over_busy_time() {
        // Six ops taking 4 s in all: 1.5 ops/s on one client.
        let s = 1e9;
        let lat = [s / 2.0, s / 2.0, s, s, s / 2.0, s / 2.0];
        assert!((closed_loop_rate(&lat, 1) - 1.5).abs() < 1e-9);
        // Two clients each with one op in flight finish twice the ops.
        assert!((closed_loop_rate(&lat, 2) - 3.0).abs() < 1e-9);
        assert_eq!(closed_loop_rate(&[], 1), 0.0);
    }

    #[test]
    fn local_speed_is_the_median_of_the_nearest_probes() {
        let probes = [(10, 2.0), (20, 4.0), (30, 1.0), (40, 8.0), (100, 1.0)];
        // Nearest three to 31: 30, 20 and 40 -> median 4.0.
        assert!((local_speed(&probes, 31, 3, 2.0) - 0.5).abs() < 1e-12);
        // Before the first probe and after the last, the window clamps.
        assert!((local_speed(&probes, 0, 1, 2.0) - 1.0).abs() < 1e-12);
        assert!((local_speed(&probes, 500, 1, 2.0) - 2.0).abs() < 1e-12);
        // Ties go to the earlier probe: 15 is as near 10 as 20.
        assert!((local_speed(&probes, 15, 1, 2.0) - 1.0).abs() < 1e-12);
        // A window wider than the probes uses all of them.
        assert!((local_speed(&probes, 50, 9, 2.0) - 1.0).abs() < 1e-12);
        assert_eq!(local_speed(&[], 50, 3, 2.0), 1.0);
    }

    #[test]
    fn geomean_overhead_matches_hand_computation() {
        // sqrt(1.21 * 1.0) = 1.1 -> 10 %.
        assert!((geomean_overhead_pct(&[1.21, 1.0]) - 10.0).abs() < 1e-9);
        assert!(geomean_overhead_pct(&[1.0, 1.0, 1.0]).abs() < 1e-12);
        // A speed-up averages below zero.
        assert!(geomean_overhead_pct(&[0.5, 1.0]) < 0.0);
        // The geometric mean of 2x and 0.5x is no overhead at all.
        assert!(geomean_overhead_pct(&[2.0, 0.5]).abs() < 1e-12);
    }

    #[test]
    fn ok_pct_counts_faults_wrong_outputs_and_sheds_as_failed() {
        let mut t = Tally::default();
        t.record_n(Verdict::Correct, 94);
        t.record_n(Verdict::Fault, 1);
        t.record_n(Verdict::Wrong, 2);
        t.record_n(Verdict::Shed, 3);
        assert_eq!(t.attempted(), 100);
        assert_eq!(t.broken(), 3);
        assert!((t.ok_pct() - 94.0).abs() < 1e-12);
        let mut all = Tally::default();
        all.record(Verdict::Correct);
        all.merge(&t);
        assert_eq!(all.attempted(), 101);
        assert_eq!(Tally::default().ok_pct(), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_permutes() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
