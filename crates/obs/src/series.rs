//! Windowed time-series telemetry and the SLO burn-rate monitor.
//!
//! The serving stack's virtual-time scheduler aggregates one
//! [`WindowStat`] per admission window — request rate, sheds, queue
//! depth, p99/p99.9 virtual latency, CoW faults — into a bounded
//! [`WindowSeries`] ring.  Everything is integer arithmetic over simulated
//! cycles, so the series (and its JSONL export) is byte-stable across
//! hosts, exactly like every other simulated observable in the workspace.
//!
//! On top of the series, [`SloMonitor`] evaluates classic multi-window
//! burn-rate rules: a window's requests are **good** (completed within the
//! SLO) or **bad** (shed or completed late), and a rule fires
//! when the bad fraction over the trailing `k` windows exceeds its
//! per-mille threshold.  The fast rule (few windows, high threshold)
//! catches sudden overload; the slow rule (many windows, low threshold)
//! catches sustained degradation.  Rule edges are counted — an overload
//! burst that stays over threshold for ten windows is **one** breach —
//! and emitted as `slo.breach.*` counters/instants when the recorder is
//! enabled.

use std::collections::VecDeque;

/// Default bound on a [`WindowSeries`] ring.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Everything one admission window aggregated.  All integers, all derived
/// from simulated state — deterministic by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStat {
    /// Window sequence number (0-based).
    pub index: u64,
    /// Window start in simulated cycles.
    pub start_cycle: u64,
    /// New arrivals that landed in this window (admitted or not).
    pub arrivals: u64,
    /// Arrivals admitted into the dispatch queue.
    pub admitted: u64,
    /// Requests dispatched (and completed) during this window.
    pub executed: u64,
    /// Arrivals shed in this window because the queue was full.
    pub shed: u64,
    /// Queue depth after admission, before dispatch.
    pub queue_depth: u64,
    /// p99 / p99.9 virtual latency of this window's completions (0 when the
    /// window completed nothing).
    pub p99_cycles: u64,
    pub p999_cycles: u64,
    /// Copy-on-write faults charged to this window's requests.
    pub cow_faults: u64,
    /// Verifier-cache hits attributed to this window (checkout-time work;
    /// the serving layer charges it to the window it happened in).
    pub verify_cache_hits: u64,
    /// Requests that met the latency SLO in this window.
    pub good: u64,
    /// Requests that missed it: shed or completed late.
    pub bad: u64,
}

/// A bounded ring of [`WindowStat`]s.  When full, the oldest window is
/// dropped and counted — the same discipline as the trace recorder's ring.
#[derive(Debug, Clone)]
pub struct WindowSeries {
    capacity: usize,
    windows: VecDeque<WindowStat>,
    dropped: u64,
}

impl Default for WindowSeries {
    fn default() -> Self {
        WindowSeries::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl WindowSeries {
    pub fn new(capacity: usize) -> Self {
        WindowSeries {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append a window; drops (and counts) the oldest when full.
    pub fn push(&mut self, w: WindowStat) {
        if self.windows.len() >= self.capacity {
            self.windows.pop_front();
            self.dropped += 1;
        }
        self.windows.push_back(w);
    }

    pub fn len(&self) -> usize {
        self.windows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows dropped to ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn iter(&self) -> impl Iterator<Item = &WindowStat> {
        self.windows.iter()
    }

    pub fn last(&self) -> Option<&WindowStat> {
        self.windows.back()
    }

    /// Mutable access to the oldest retained window (the serving layer uses
    /// it to charge serve-start checkout work to the window it happened in).
    pub fn first_mut(&mut self) -> Option<&mut WindowStat> {
        self.windows.front_mut()
    }

    /// Serialise as JSONL: one meta object line, then one object per
    /// retained window.  `meta_text` values are emitted as JSON strings,
    /// `meta_nums` as integers; every per-window field is an integer, so
    /// the export is byte-deterministic.
    pub fn jsonl(&self, meta_text: &[(&str, &str)], meta_nums: &[(&str, u64)]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"confllvm.metrics-series.v2\",\"windows\":{},\"dropped\":{},\"capacity\":{}",
            self.windows.len(),
            self.dropped,
            self.capacity
        ));
        for (k, v) in meta_text {
            out.push_str(&format!(",\"{k}\":\"{v}\""));
        }
        for (k, v) in meta_nums {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}\n");
        for w in &self.windows {
            out.push_str(&format!(
                "{{\"window\":{},\"start_cycle\":{},\"arrivals\":{},\"admitted\":{},\"executed\":{},\"shed\":{},\"queue_depth\":{},\"p99_cycles\":{},\"p999_cycles\":{},\"cow_faults\":{},\"verify_cache_hits\":{},\"good\":{},\"bad\":{}}}\n",
                w.index,
                w.start_cycle,
                w.arrivals,
                w.admitted,
                w.executed,
                w.shed,
                w.queue_depth,
                w.p99_cycles,
                w.p999_cycles,
                w.cow_faults,
                w.verify_cache_hits,
                w.good,
                w.bad,
            ));
        }
        out
    }
}

/// Multi-window burn-rate rules.  A window's requests split into good/bad
/// (see [`WindowStat`]); a rule fires while
/// `sum(bad) * 1000 > threshold_per_mille * sum(good + bad)` over its
/// trailing window count.  Integer arithmetic only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloRules {
    /// Fast-burn rule: few windows, high threshold — pages on sudden
    /// overload.
    pub fast_windows: usize,
    pub fast_burn_per_mille: u64,
    /// Slow-burn rule: many windows, low threshold — catches sustained
    /// degradation a short burst would not show.
    pub slow_windows: usize,
    pub slow_burn_per_mille: u64,
}

impl Default for SloRules {
    fn default() -> Self {
        SloRules {
            fast_windows: 5,
            fast_burn_per_mille: 200,
            slow_windows: 60,
            slow_burn_per_mille: 50,
        }
    }
}

/// What the monitor counted over a whole run.  Breaches are rule *edges*:
/// entering the burning state counts once, however long it lasts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloReport {
    pub windows: u64,
    pub good: u64,
    pub bad: u64,
    pub fast_breaches: u64,
    pub slow_breaches: u64,
}

impl SloReport {
    pub fn total_breaches(&self) -> u64 {
        self.fast_breaches + self.slow_breaches
    }
}

/// Evaluates [`SloRules`] over a stream of windows.  Feed every window in
/// order via [`SloMonitor::observe`]; read the counted result with
/// [`SloMonitor::report`].  Breach edges also emit `slo.breach.fast` /
/// `slo.breach.slow` counters and instant events into the process recorder
/// (free when tracing is off, like all instrumentation).
#[derive(Debug, Clone)]
pub struct SloMonitor {
    rules: SloRules,
    /// Trailing (total, bad) per window, bounded by the longer rule.
    recent: VecDeque<(u64, u64)>,
    fast_burning: bool,
    slow_burning: bool,
    report: SloReport,
}

impl SloMonitor {
    pub fn new(rules: SloRules) -> Self {
        SloMonitor {
            rules,
            recent: VecDeque::new(),
            fast_burning: false,
            slow_burning: false,
            report: SloReport::default(),
        }
    }

    fn burning(&self, windows: usize, per_mille: u64) -> bool {
        let n = windows.max(1).min(self.recent.len());
        let mut total = 0u64;
        let mut bad = 0u64;
        for &(t, b) in self.recent.iter().rev().take(n) {
            total += t;
            bad += b;
        }
        total > 0 && bad * 1000 > per_mille * total
    }

    /// Feed the next window.  Returns whether any rule newly fired on it.
    pub fn observe(&mut self, w: &WindowStat) -> bool {
        let keep = self.rules.fast_windows.max(self.rules.slow_windows).max(1);
        if self.recent.len() >= keep {
            self.recent.pop_front();
        }
        self.recent.push_back((w.good + w.bad, w.bad));
        self.report.windows += 1;
        self.report.good += w.good;
        self.report.bad += w.bad;

        let rec = crate::recorder();
        let mut fired = false;
        let fast = self.burning(self.rules.fast_windows, self.rules.fast_burn_per_mille);
        if fast && !self.fast_burning {
            self.report.fast_breaches += 1;
            fired = true;
            rec.count("slo.breach.fast", 1);
            let mut i = rec.instant("server", "slo.breach.fast");
            i.attr("window", w.index);
        }
        self.fast_burning = fast;
        let slow = self.burning(self.rules.slow_windows, self.rules.slow_burn_per_mille);
        if slow && !self.slow_burning {
            self.report.slow_breaches += 1;
            fired = true;
            rec.count("slo.breach.slow", 1);
            let mut i = rec.instant("server", "slo.breach.slow");
            i.attr("window", w.index);
        }
        self.slow_burning = slow;
        fired
    }

    pub fn report(&self) -> SloReport {
        self.report
    }

    /// Evaluate rules over a whole recorded series in one call.
    pub fn evaluate(rules: SloRules, series: &WindowSeries) -> SloReport {
        let mut m = SloMonitor::new(rules);
        for w in series.iter() {
            m.observe(w);
        }
        m.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(index: u64, good: u64, bad: u64) -> WindowStat {
        WindowStat {
            index,
            start_cycle: index * 100,
            good,
            bad,
            ..WindowStat::default()
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut s = WindowSeries::new(3);
        for i in 0..5 {
            s.push(window(i, 1, 0));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.iter().next().unwrap().index, 2, "oldest dropped first");
        assert_eq!(s.last().unwrap().index, 4);
    }

    #[test]
    fn jsonl_has_meta_then_one_line_per_window() {
        let mut s = WindowSeries::new(8);
        s.push(window(0, 3, 1));
        s.push(WindowStat {
            arrivals: 7,
            admitted: 5,
            executed: 4,
            shed: 2,
            queue_depth: 3,
            p99_cycles: 900,
            p999_cycles: 990,
            cow_faults: 11,
            verify_cache_hits: 1,
            ..window(1, 4, 0)
        });
        let out = s.jsonl(&[("workload", "nginx")], &[("sessions", 10)]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"confllvm.metrics-series.v2\""));
        assert!(lines[0].contains("\"windows\":2"));
        assert!(lines[0].contains("\"workload\":\"nginx\""));
        assert!(lines[0].contains("\"sessions\":10"));
        // Each window line carries exactly the v2 keys, in this order, with
        // its window's values; a changed field must bump the schema tag.
        const V2_KEYS: [&str; 13] = [
            "window",
            "start_cycle",
            "arrivals",
            "admitted",
            "executed",
            "shed",
            "queue_depth",
            "p99_cycles",
            "p999_cycles",
            "cow_faults",
            "verify_cache_hits",
            "good",
            "bad",
        ];
        for (line, w) in lines[1..].iter().zip(s.iter()) {
            let json = crate::parse_json(line).unwrap();
            let obj = json.as_obj().unwrap();
            let mut keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            keys.sort_by_key(|k| line.find(&format!("\"{k}\":")));
            assert_eq!(keys, V2_KEYS, "{line}");
            let values = [
                w.index,
                w.start_cycle,
                w.arrivals,
                w.admitted,
                w.executed,
                w.shed,
                w.queue_depth,
                w.p99_cycles,
                w.p999_cycles,
                w.cow_faults,
                w.verify_cache_hits,
                w.good,
                w.bad,
            ];
            for (k, v) in V2_KEYS.iter().zip(values) {
                assert_eq!(obj[*k].as_num(), Some(v as f64), "{k} in {line}");
            }
        }
    }

    #[test]
    fn fast_burn_fires_once_per_excursion() {
        let rules = SloRules {
            fast_windows: 2,
            fast_burn_per_mille: 200,
            slow_windows: 60,
            slow_burn_per_mille: 50,
        };
        let mut m = SloMonitor::new(rules);
        // Quiet, then a 3-window burst, quiet again, then a second burst.
        assert!(!m.observe(&window(0, 10, 0)));
        assert!(m.observe(&window(1, 2, 8)), "burst start must fire");
        assert!(!m.observe(&window(2, 2, 8)), "still burning, no new edge");
        m.observe(&window(3, 2, 8));
        m.observe(&window(4, 10, 0));
        m.observe(&window(5, 10, 0));
        assert!(
            m.observe(&window(6, 0, 10)),
            "second excursion, second edge"
        );
        let r = m.report();
        assert_eq!(r.fast_breaches, 2);
        assert_eq!(r.windows, 7);
        assert_eq!(r.bad, 34);
    }

    #[test]
    fn slow_burn_needs_sustained_badness() {
        let rules = SloRules {
            fast_windows: 1,
            fast_burn_per_mille: 900,
            slow_windows: 10,
            slow_burn_per_mille: 100,
        };
        let mut m = SloMonitor::new(rules);
        // One bad window out of ten: 10% of requests bad — at the slow
        // threshold but not over it.
        for i in 0..9 {
            m.observe(&window(i, 9, 0));
        }
        m.observe(&window(9, 0, 9));
        assert_eq!(m.report().slow_breaches, 0);
        // Two more bad windows push the trailing fraction past 10%.
        m.observe(&window(10, 0, 9));
        assert_eq!(m.report().slow_breaches, 1);
    }

    #[test]
    fn empty_windows_never_burn() {
        let mut m = SloMonitor::new(SloRules::default());
        for i in 0..100 {
            m.observe(&window(i, 0, 0));
        }
        let r = m.report();
        assert_eq!(r.total_breaches(), 0);
        assert_eq!(r.windows, 100);
    }

    #[test]
    fn evaluate_runs_the_whole_series() {
        let mut s = WindowSeries::new(64);
        for i in 0..5 {
            s.push(window(i, 10, 0));
        }
        for i in 5..8 {
            s.push(window(i, 0, 10));
        }
        let r = SloMonitor::evaluate(SloRules::default(), &s);
        assert_eq!(r.fast_breaches, 1);
        assert_eq!(r.bad, 30);
    }
}
