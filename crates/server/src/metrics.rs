//! Per-request and per-stream metrics.
//!
//! All absolute numbers are *simulated cycles* from the VM's cost model
//! ([`confllvm_vm::CostModel`]); throughput is therefore reported as
//! requests per billion simulated cycles, directly comparable across
//! configurations and across cold vs pooled execution.  Each request's
//! cycles are split into application cycles and U↔T crossing cycles
//! (wrapper base cost, copies, stack switches), the attribution the paper's
//! Section 7.2/7.3 discussion turns on.

use confllvm_vm::ExecStats;

/// What one request cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMetrics {
    /// Total simulated cycles charged to the request: execution plus, for a
    /// cold start, the setup run, plus, for a pooled request, the
    /// snapshot-restore cost.
    pub cycles: u64,
    /// Cycles of the setup entry (cold execution only; zero when pooled).
    pub setup_cycles: u64,
    /// Simulated cost of rewinding the instance (pooled only).
    pub restore_cycles: u64,
    /// Pages the restore had to rewind (pooled only).
    pub dirty_pages: u64,
    pub instructions: u64,
    pub bound_checks: u64,
    pub check_cycles: u64,
    /// Trusted-wrapper calls (U→T round trips).
    pub extern_calls: u64,
    /// Stack/segment switches on those calls (separate-memory builds only).
    pub stack_switches: u64,
    /// Cycles spent crossing the U/T boundary.
    pub extern_cycles: u64,
    /// Host-side wall time of the request, nanoseconds.  Unlike every cycle
    /// figure this is *measured*, not simulated — it is what the
    /// load-vs-serve interference numbers quote (how much a concurrent
    /// verification slows real request handling down).
    pub host_nanos: u64,
}

impl RequestMetrics {
    /// The difference `after - before` of two cumulative [`ExecStats`],
    /// i.e. what a single `run_function` added.
    pub fn from_stats_delta(before: &ExecStats, after: &ExecStats) -> Self {
        RequestMetrics {
            cycles: after.cycles - before.cycles,
            setup_cycles: 0,
            restore_cycles: 0,
            dirty_pages: 0,
            instructions: after.instructions - before.instructions,
            bound_checks: after.bound_checks - before.bound_checks,
            check_cycles: after.check_cycles - before.check_cycles,
            extern_calls: after.extern_calls - before.extern_calls,
            stack_switches: after.stack_switches - before.stack_switches,
            extern_cycles: after.extern_cycles - before.extern_cycles,
            host_nanos: 0,
        }
    }
}

/// Aggregation over a stream (one session's, one worker's, or the whole
/// run's): the record of every request the stream committed, in commit
/// order, plus the arrivals it shed.  Every total, mean and percentile is
/// computed from the records, so a merged stream answers exactly as if its
/// requests had been added to it one by one.
#[derive(Debug, Clone, Default)]
pub struct StreamMetrics {
    records: Vec<RequestMetrics>,
    /// Arrivals the scheduler shed because its queue was full (set on a
    /// scale run's merged metrics; see
    /// [`ScaleReport`](crate::ScaleReport) for its queue depths and
    /// virtual latencies).
    pub shed: u64,
}

impl StreamMetrics {
    pub fn add(&mut self, r: &RequestMetrics) {
        self.records.push(*r);
    }

    /// Fold another stream's requests and shed arrivals into this one.
    pub fn merge(&mut self, other: &StreamMetrics) {
        self.records.extend_from_slice(&other.records);
        self.shed += other.shed;
    }

    /// Every committed request's record, in commit order.
    pub fn records(&self) -> &[RequestMetrics] {
        &self.records
    }

    /// Requests committed.
    pub fn requests(&self) -> u64 {
        self.records.len() as u64
    }

    /// One field summed over every request, e.g. `sum(|r| r.restore_cycles)`.
    pub fn sum(&self, field: impl Fn(&RequestMetrics) -> u64) -> u64 {
        self.records.iter().map(field).sum()
    }

    /// Simulated cycles charged to the whole stream.
    pub fn total_cycles(&self) -> u64 {
        self.sum(|r| r.cycles)
    }

    /// Requests per billion simulated cycles.
    pub fn requests_per_gcycle(&self) -> f64 {
        match self.total_cycles() {
            0 => 0.0,
            total => self.requests() as f64 / total as f64 * 1e9,
        }
    }

    /// Mean simulated cycles per request.
    pub fn mean_cycles(&self) -> u64 {
        self.total_cycles()
            .checked_div(self.requests())
            .unwrap_or(0)
    }

    /// The `pct`-th latency percentile in simulated cycles (e.g. 50, 99).
    /// Exact nearest-rank over this stream's requests, shared with the
    /// observability layer's [`confllvm_obs::exact_percentile`].
    pub fn percentile(&self, pct: u32) -> u64 {
        self.percentile_milli(pct * 10)
    }

    /// The `pct`-th *measured host* latency percentile in nanoseconds —
    /// what the load-vs-serve interference comparison quotes.
    pub fn host_percentile(&self, pct: u32) -> u64 {
        let nanos: Vec<u64> = self.records.iter().map(|r| r.host_nanos).collect();
        confllvm_obs::exact_percentile(&nanos, pct)
    }

    /// Latency percentile at per-mille resolution (999 = p99.9) over the
    /// per-request service cycles.
    pub fn percentile_milli(&self, per_mille: u32) -> u64 {
        let cycles: Vec<u64> = self.records.iter().map(|r| r.cycles).collect();
        confllvm_obs::exact_percentile_milli(&cycles, per_mille)
    }

    /// Share of total cycles spent crossing the U/T boundary, in percent.
    pub fn tcross_pct(&self) -> f64 {
        match self.total_cycles() {
            0 => 0.0,
            total => self.sum(|r| r.extern_cycles) as f64 / total as f64 * 100.0,
        }
    }

    /// Executed bound checks per request.
    pub fn checks_per_request(&self) -> u64 {
        self.sum(|r| r.bound_checks)
            .checked_div(self.requests())
            .unwrap_or(0)
    }

    /// Pages rewound per pooled request (zero for cold streams).
    pub fn dirty_pages_per_request(&self) -> f64 {
        match self.requests() {
            0 => 0.0,
            n => self.sum(|r| r.dirty_pages) as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cycles: u64) -> RequestMetrics {
        RequestMetrics {
            cycles,
            extern_cycles: cycles / 4,
            ..Default::default()
        }
    }

    /// `requests` split at every point into two streams, the second merged
    /// into the first (the ends leave one side empty, so one of them is the
    /// single stream): every way of building a stream must answer alike.
    fn streams(requests: &[RequestMetrics]) -> impl Iterator<Item = StreamMetrics> + '_ {
        (0..=requests.len()).map(|cut| {
            let (mut head, mut tail) = (StreamMetrics::default(), StreamMetrics::default());
            requests[..cut].iter().for_each(|r| head.add(r));
            requests[cut..].iter().for_each(|r| tail.add(r));
            head.merge(&tail);
            head
        })
    }

    #[test]
    fn aggregation_and_percentiles() {
        let requests: Vec<_> = [100, 200, 300, 400, 1000].map(req).into();
        for s in streams(&requests) {
            assert_eq!(s.records(), requests);
            assert_eq!(s.requests(), 5);
            assert_eq!(s.total_cycles(), 2000);
            assert_eq!(s.mean_cycles(), 400);
            assert_eq!(s.percentile(50), 300);
            assert_eq!(s.percentile(99), 1000);
            assert_eq!(s.percentile(100), 1000);
            assert!((s.requests_per_gcycle() - 2.5e6).abs() < 1.0);
            assert!((s.tcross_pct() - 25.0).abs() < 0.1);
        }
    }

    #[test]
    fn merge_combines_streams() {
        for s in streams(&[req(100), req(300)]) {
            assert_eq!(s.requests(), 2);
            assert_eq!(s.mean_cycles(), 200);
            assert_eq!(s.percentile(99), 300);
        }
        let empty = StreamMetrics::default();
        assert_eq!((empty.mean_cycles(), empty.percentile(99)), (0, 0));
        assert_eq!(empty.requests_per_gcycle(), 0.0);
    }

    #[test]
    fn host_time_is_tracked_separately_from_cycles() {
        let requests =
            [(100, 5_000), (100, 9_000), (100, 1_000)].map(|(cycles, nanos)| RequestMetrics {
                host_nanos: nanos,
                ..req(cycles)
            });
        for s in streams(&requests) {
            assert_eq!(s.sum(|r| r.host_nanos), 15_000);
            assert_eq!(s.host_percentile(50), 5_000);
            assert_eq!(s.host_percentile(99), 9_000);
            assert_eq!(s.percentile(99), 100, "cycle percentiles unaffected");
        }
    }

    #[test]
    fn scale_counters_merge_and_resolve_the_tail() {
        let requests: Vec<_> = (1..=1000u64).map(req).collect();
        for mut s in streams(&requests) {
            s.shed = 3;
            s.merge(&StreamMetrics {
                shed: 2,
                ..Default::default()
            });
            assert_eq!(s.shed, 5);
            assert_eq!(s.requests(), 1000);
            // Per-mille resolution sees a tail that whole percents cannot.
            assert_eq!(s.percentile(99), 990);
            assert_eq!(s.percentile_milli(999), 999);
            assert_eq!(s.percentile_milli(1000), 1000);
        }
    }
}
