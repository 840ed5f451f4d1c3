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
#[derive(Debug, Clone, Copy, Default)]
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
/// run's).
#[derive(Debug, Clone, Default)]
pub struct StreamMetrics {
    pub requests: u64,
    pub total_cycles: u64,
    pub setup_cycles: u64,
    pub restore_cycles: u64,
    pub dirty_pages: u64,
    pub instructions: u64,
    pub bound_checks: u64,
    pub check_cycles: u64,
    pub extern_calls: u64,
    pub stack_switches: u64,
    pub extern_cycles: u64,
    /// Total measured host time over the stream, nanoseconds.
    pub host_nanos: u64,
    /// Arrivals the scheduler shed because its queue was full (set on a
    /// scale run's merged metrics; see
    /// [`ScaleReport`](crate::ScaleReport) for its queue depths and
    /// virtual latencies).
    pub shed: u64,
    /// Per-request total cycles, kept for the latency percentiles.
    latencies: Vec<u64>,
    /// Per-request measured host times, kept for the host percentiles.
    host_latencies: Vec<u64>,
}

impl StreamMetrics {
    pub fn add(&mut self, r: &RequestMetrics) {
        // Feed the shared observability histograms (the trace/metrics
        // exports aggregate over every stream; the exact per-stream sample
        // vectors below stay authoritative for this stream's percentiles).
        let rec = confllvm_obs::recorder();
        if rec.enabled() {
            rec.record_hist("server.request.cycles", r.cycles);
            rec.record_hist("server.request.host_nanos", r.host_nanos);
            rec.record_hist("server.request.dirty_pages", r.dirty_pages);
        }
        self.requests += 1;
        self.total_cycles += r.cycles;
        self.setup_cycles += r.setup_cycles;
        self.restore_cycles += r.restore_cycles;
        self.dirty_pages += r.dirty_pages;
        self.instructions += r.instructions;
        self.bound_checks += r.bound_checks;
        self.check_cycles += r.check_cycles;
        self.extern_calls += r.extern_calls;
        self.stack_switches += r.stack_switches;
        self.extern_cycles += r.extern_cycles;
        self.host_nanos += r.host_nanos;
        self.latencies.push(r.cycles);
        self.host_latencies.push(r.host_nanos);
    }

    /// Fold another stream's totals into this one.
    pub fn merge(&mut self, other: &StreamMetrics) {
        self.requests += other.requests;
        self.total_cycles += other.total_cycles;
        self.setup_cycles += other.setup_cycles;
        self.restore_cycles += other.restore_cycles;
        self.dirty_pages += other.dirty_pages;
        self.instructions += other.instructions;
        self.bound_checks += other.bound_checks;
        self.check_cycles += other.check_cycles;
        self.extern_calls += other.extern_calls;
        self.stack_switches += other.stack_switches;
        self.extern_cycles += other.extern_cycles;
        self.host_nanos += other.host_nanos;
        self.shed += other.shed;
        self.latencies.extend_from_slice(&other.latencies);
        self.host_latencies.extend_from_slice(&other.host_latencies);
    }

    /// Requests per billion simulated cycles.
    pub fn requests_per_gcycle(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.requests as f64 / self.total_cycles as f64 * 1e9
    }

    /// Mean simulated cycles per request.
    pub fn mean_cycles(&self) -> u64 {
        self.total_cycles.checked_div(self.requests).unwrap_or(0)
    }

    /// The `pct`-th latency percentile in simulated cycles (e.g. 50, 99).
    /// Exact nearest-rank over this stream's samples, shared with the
    /// observability layer's [`confllvm_obs::exact_percentile`].
    pub fn percentile(&self, pct: u32) -> u64 {
        confllvm_obs::exact_percentile(&self.latencies, pct)
    }

    /// The `pct`-th *measured host* latency percentile in nanoseconds —
    /// what the load-vs-serve interference comparison quotes.
    pub fn host_percentile(&self, pct: u32) -> u64 {
        confllvm_obs::exact_percentile(&self.host_latencies, pct)
    }

    /// Latency percentile at per-mille resolution (999 = p99.9) over the
    /// per-request service cycles.
    pub fn percentile_milli(&self, per_mille: u32) -> u64 {
        confllvm_obs::exact_percentile_milli(&self.latencies, per_mille)
    }

    /// Share of total cycles spent crossing the U/T boundary, in percent.
    pub fn tcross_pct(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.extern_cycles as f64 / self.total_cycles as f64 * 100.0
    }

    /// Executed bound checks per request.
    pub fn checks_per_request(&self) -> u64 {
        self.bound_checks.checked_div(self.requests).unwrap_or(0)
    }

    /// Pages rewound per pooled request (zero for cold streams).
    pub fn dirty_pages_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.dirty_pages as f64 / self.requests as f64
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

    #[test]
    fn aggregation_and_percentiles() {
        let mut s = StreamMetrics::default();
        for c in [100, 200, 300, 400, 1000] {
            s.add(&req(c));
        }
        assert_eq!(s.requests, 5);
        assert_eq!(s.total_cycles, 2000);
        assert_eq!(s.mean_cycles(), 400);
        assert_eq!(s.percentile(50), 300);
        assert_eq!(s.percentile(99), 1000);
        assert_eq!(s.percentile(100), 1000);
        assert!((s.requests_per_gcycle() - 2.5e6).abs() < 1.0);
        assert!((s.tcross_pct() - 25.0).abs() < 0.1);
    }

    #[test]
    fn merge_combines_streams() {
        let mut a = StreamMetrics::default();
        a.add(&req(100));
        let mut b = StreamMetrics::default();
        b.add(&req(300));
        a.merge(&b);
        assert_eq!(a.requests, 2);
        assert_eq!(a.mean_cycles(), 200);
        assert_eq!(a.percentile(99), 300);
    }

    #[test]
    fn host_time_is_tracked_separately_from_cycles() {
        let mut s = StreamMetrics::default();
        for (cycles, nanos) in [(100, 5_000), (100, 9_000), (100, 1_000)] {
            let mut r = req(cycles);
            r.host_nanos = nanos;
            s.add(&r);
        }
        assert_eq!(s.host_nanos, 15_000);
        assert_eq!(s.host_percentile(50), 5_000);
        assert_eq!(s.host_percentile(99), 9_000);
        assert_eq!(s.percentile(99), 100, "cycle percentiles unaffected");
    }

    #[test]
    fn scale_counters_merge_and_resolve_the_tail() {
        let mut a = StreamMetrics {
            shed: 3,
            ..Default::default()
        };
        for c in 1..=999u64 {
            a.add(&req(c));
        }
        let mut b = StreamMetrics {
            shed: 2,
            ..Default::default()
        };
        b.add(&req(1000));
        a.merge(&b);
        assert_eq!(a.shed, 5);
        assert_eq!(a.requests, 1000);
        // Per-mille resolution sees a tail that whole percents cannot.
        assert_eq!(a.percentile(99), 990);
        assert_eq!(a.percentile_milli(999), 999);
        assert_eq!(a.percentile_milli(1000), 1000);
    }
}
