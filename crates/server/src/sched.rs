//! The event-driven, backpressured scheduler.
//!
//! [`run_virtual`] is a deterministic *virtual-time* run loop used by the
//! scale benchmarks.  Arrivals (from
//! [`RequestGen::arrival_plan`](crate::reqgen::RequestGen::arrival_plan))
//! are admitted in fixed windows into a bounded queue; an arrival that
//! finds the queue full is **shed** (counted, dropped); a fixed set of
//! model workers drains the queue in earliest-deadline-first order.
//! Everything is integer arithmetic over simulated cycles with total-order
//! tie-breaks, so queue depths, shed counts and the p99.9 latency tail are
//! byte-stable across hosts — the same rule the rest of the workspace
//! applies to cycle counts.  (The real serve loop needs no scheduler: its
//! worker threads claim sessions from a shared cursor, see
//! [`Server::serve`](crate::Server::serve).)
//!
//! Virtual time is sound here because every request is served from a
//! snapshot-reset instance: its simulated cost does not depend on when the
//! scheduler runs it, only on *which* (session, request) it is and on the
//! session's requests before it (a restore rewinds the pages the previous
//! request dirtied).  The executor callback returns that cost and the loop
//! does the bookkeeping.
//!
//! The same fact lets the serving layer run a request *before* the loop
//! dispatches it.  `run_windows`, the loop behind [`run_virtual`], reports
//! each window's newly admitted arrivals before it dispatches any of them,
//! so [`Server::serve_scaled`](crate::Server::serve_scaled) hands them to
//! worker threads at admission and only collects each result at dispatch.
//! That is legal for three reasons.  The queue loses items only to dispatch,
//! so every reported arrival is dispatched exactly once, and shed arrivals
//! are never reported.  The cost the loop needs at dispatch is the one the
//! early run measured.  And admission runs in plan order, so with a
//! non-decreasing plan, EDF dispatches in admission order too, and each
//! session's requests run in the order the loop dispatches them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use confllvm_obs::{WindowSeries, WindowStat};

/// Tuning for the virtual-time run loop.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Modelled worker count (virtual — independent of host threads).
    pub model_workers: usize,
    /// Bound on the admission queue; arrivals past it are shed.
    pub queue_capacity: usize,
    /// Service-level objective: an arrival's deadline is its arrival time
    /// plus this, and dispatch order is earliest-deadline-first.
    pub slo_cycles: u64,
    /// Admission window width in simulated cycles.
    pub window_cycles: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            model_workers: 4,
            queue_capacity: 64,
            slo_cycles: 200_000,
            window_cycles: 50_000,
        }
    }
}

/// What one executed request cost, as reported by the executor callback.
/// Plain `u64` cycle costs convert (`cycles` only), so simple callers and
/// tests can keep returning a number; the serving layer also reports the
/// request's copy-on-write faults so the per-window telemetry can carry
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCost {
    /// Simulated cycles occupying the worker (service + restore).
    pub cycles: u64,
    /// Copy-on-write faults the request took.
    pub cow_faults: u64,
}

impl From<u64> for ExecCost {
    fn from(cycles: u64) -> Self {
        ExecCost {
            cycles,
            cow_faults: 0,
        }
    }
}

/// One request arriving at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in simulated cycles.
    pub vtime: u64,
    /// Index into the serve call's session list.
    pub session: usize,
    /// Index into that session's request list.
    pub request: usize,
}

/// A generated arrival schedule (see
/// [`RequestGen::arrival_plan`](crate::reqgen::RequestGen::arrival_plan)).
#[derive(Debug, Clone, Default)]
pub struct ArrivalPlan {
    /// Arrivals in non-decreasing `vtime` order.
    pub arrivals: Vec<Arrival>,
}

impl ArrivalPlan {
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// How many requests each of `sessions` sessions receives — the shape
    /// the serve call needs to build matching `SessionSpec`s.
    pub fn per_session_counts(&self, sessions: usize) -> Vec<usize> {
        let mut counts = vec![0usize; sessions];
        for a in &self.arrivals {
            counts[a.session] += 1;
        }
        counts
    }
}

/// One executed request's accounting.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub session: usize,
    pub request: usize,
    /// Completion minus arrival — queue wait (admission + dispatch delay)
    /// plus service time, in simulated cycles.
    pub latency_cycles: u64,
}

/// What the virtual-time run loop measured.
#[derive(Debug, Clone, Default)]
pub struct SchedResult {
    /// Requests actually executed (arrivals minus shed).
    pub executed: u64,
    /// Arrivals dropped at admission because the queue was full.
    pub shed: u64,
    /// Admission windows the loop ran.
    pub windows: u64,
    /// Queue depth sampled once per window, after admission.
    pub queue_depth_samples: Vec<u64>,
    pub completions: Vec<Completion>,
    /// Latest completion time in simulated cycles.
    pub makespan_cycles: u64,
    /// Per-window telemetry: one [`WindowStat`] per admission window in a
    /// bounded ring (long overload runs drop the oldest windows, counted).
    pub series: WindowSeries,
}

/// Queue entry, ordered so that `BinaryHeap<Reverse<QueueItem>>` pops
/// earliest-deadline-first with the arrival sequence number as a total-order
/// tie-break (determinism requires no partial orders anywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueueItem {
    deadline: u64,
    seq: usize,
    vtime: u64,
    session: usize,
    request: usize,
}

/// Run `plan` through the windowed, backpressured virtual-time loop.
/// `execute(session, request)` must perform the request and return its
/// simulated cost (service + restore — everything that occupies a worker),
/// either as plain cycles (`u64`) or as an [`ExecCost`] when it also has
/// per-request CoW faults to report.
///
/// Besides the run totals, every admission window aggregates one
/// [`WindowStat`] into `SchedResult::series`: arrivals, admissions,
/// sheds, queue depth, this window's p99/p99.9 completion latency, CoW
/// faults, and the good/bad split (a request is *bad* if it was shed or
/// completed past `slo_cycles`) the SLO burn-rate monitor consumes.
pub fn run_virtual<F, C>(cfg: &SchedulerConfig, plan: &ArrivalPlan, mut execute: F) -> SchedResult
where
    F: FnMut(usize, usize) -> C,
    C: Into<ExecCost>,
{
    run_windows(
        cfg,
        plan,
        |_| {},
        |seq| {
            let a = plan.arrivals[seq];
            execute(a.session, a.request)
        },
    )
}

/// The loop behind [`run_virtual`], naming arrivals by their index in
/// `plan.arrivals`.  After each window's admission, `admitted` receives the
/// indices that window admitted, in admission order, before any of them is
/// dispatched; `execute(index)` runs at dispatch.  Every reported index is
/// dispatched exactly once, and no shed arrival is reported.
pub(crate) fn run_windows<A, F, C>(
    cfg: &SchedulerConfig,
    plan: &ArrivalPlan,
    mut admitted: A,
    mut execute: F,
) -> SchedResult
where
    A: FnMut(&[usize]),
    F: FnMut(usize) -> C,
    C: Into<ExecCost>,
{
    let rec = confllvm_obs::recorder();
    let window = cfg.window_cycles.max(1);
    let capacity = cfg.queue_capacity.max(1);
    let mut workers = vec![0u64; cfg.model_workers.max(1)];
    let mut queue: BinaryHeap<Reverse<QueueItem>> = BinaryHeap::new();
    let mut result = SchedResult::default();
    // This window's admissions (reported before dispatch) and completion
    // latencies (for the per-window percentiles); both buffers are reused.
    let mut window_admitted: Vec<usize> = Vec::new();
    let mut window_lat: Vec<u64> = Vec::new();

    // Arrivals are admitted in plan order; the seq doubles as the EDF
    // tie-break.
    let mut next = 0usize;
    let mut window_start = plan
        .arrivals
        .first()
        .map_or(0, |a| a.vtime / window * window);

    while next < plan.arrivals.len() || !queue.is_empty() {
        let window_end = window_start + window;
        let mut wstat = WindowStat {
            index: result.windows,
            start_cycle: window_start,
            ..WindowStat::default()
        };

        // Admit the arrivals landing inside this window; a full queue sheds.
        window_admitted.clear();
        while next < plan.arrivals.len() && plan.arrivals[next].vtime < window_end {
            let a = plan.arrivals[next];
            let item = QueueItem {
                deadline: a.vtime + cfg.slo_cycles,
                seq: next,
                vtime: a.vtime,
                session: a.session,
                request: a.request,
            };
            next += 1;
            wstat.arrivals += 1;
            if queue.len() < capacity {
                queue.push(Reverse(item));
                window_admitted.push(item.seq);
                wstat.admitted += 1;
            } else {
                result.shed += 1;
                wstat.shed += 1;
                wstat.bad += 1;
                rec.count("server.shed", 1);
            }
        }
        result.windows += 1;
        let depth = queue.len() as u64;
        result.queue_depth_samples.push(depth);
        wstat.queue_depth = depth;
        rec.record_hist("server.queue_depth", depth);
        admitted(&window_admitted);

        // Dispatch: any worker whose clock is inside the window picks the
        // most urgent queued request; service may run past the window edge
        // (that worker just starts late next window).
        window_lat.clear();
        while let Some((widx, &vclock)) = workers
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < window_end)
            .min_by_key(|(i, &v)| (v, *i))
        {
            let Some(Reverse(item)) = queue.pop() else {
                break;
            };
            let start = vclock.max(item.vtime);
            let cost: ExecCost = execute(item.seq).into();
            let done = start + cost.cycles;
            workers[widx] = done;
            result.executed += 1;
            result.makespan_cycles = result.makespan_cycles.max(done);
            let latency_cycles = done - item.vtime;
            result.completions.push(Completion {
                session: item.session,
                request: item.request,
                latency_cycles,
            });
            wstat.executed += 1;
            wstat.cow_faults += cost.cow_faults;
            window_lat.push(latency_cycles);
            if latency_cycles <= cfg.slo_cycles {
                wstat.good += 1;
            } else {
                wstat.bad += 1;
            }
        }
        wstat.p99_cycles = confllvm_obs::exact_percentile_milli(&window_lat, 990);
        wstat.p999_cycles = confllvm_obs::exact_percentile_milli(&window_lat, 999);
        result.series.push(wstat);

        window_start = window_end;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(arrivals: &[(u64, usize, usize)]) -> ArrivalPlan {
        ArrivalPlan {
            arrivals: arrivals
                .iter()
                .map(|&(vtime, session, request)| Arrival {
                    vtime,
                    session,
                    request,
                })
                .collect(),
        }
    }

    #[test]
    fn uncontended_arrivals_all_execute_with_service_only_latency() {
        let cfg = SchedulerConfig {
            model_workers: 2,
            queue_capacity: 8,
            window_cycles: 100,
            slo_cycles: 1000,
        };
        let p = plan(&[(0, 0, 0), (10, 1, 0), (250, 0, 1)]);
        let r = run_virtual(&cfg, &p, |_, _| 40u64);
        assert_eq!(r.executed, 3);
        assert_eq!(r.shed, 0);
        // Two workers, two simultaneous-ish arrivals: both run immediately.
        assert_eq!(r.completions[0].latency_cycles, 40);
        assert_eq!(r.completions[1].latency_cycles, 40);
        assert_eq!(r.completions[2].latency_cycles, 40);
        assert_eq!(r.makespan_cycles, 290);
    }

    #[test]
    fn queue_overflow_sheds_exactly_the_overflow() {
        let cfg = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 2,
            window_cycles: 100,
            slo_cycles: 100,
        };
        // Five arrivals in one window; the single worker drains the queue
        // during the window, so admission sees the capacity bound only for
        // what piles up before dispatch: 2 admitted, 3 shed.
        let p = plan(&[(0, 0, 0), (1, 0, 1), (2, 0, 2), (3, 0, 3), (4, 0, 4)]);
        let r = run_virtual(&cfg, &p, |_, _| 1000u64);
        assert_eq!(r.executed + r.shed, 5);
        assert_eq!(r.shed, 3);
        assert_eq!(r.queue_depth_samples.iter().max(), Some(&2));
    }

    #[test]
    fn dispatch_is_earliest_deadline_first() {
        let cfg = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 8,
            window_cycles: 1000,
            slo_cycles: 10,
        };
        // Both in the same window; the later arrival has the earlier
        // deadline? No — deadline = vtime + slo, so arrival order == EDF
        // order here.  Instead give the later arrival an earlier vtime via
        // plan order: arrivals are admitted by plan order, dispatch must
        // re-order by deadline.
        let p = plan(&[(500, 1, 0), (100, 0, 0)]);
        let r = run_virtual(&cfg, &p, |_, _| 7u64);
        assert_eq!(r.executed, 2);
        // Session 0 (deadline 110) must run before session 1 (deadline 510).
        assert_eq!(r.completions[0].session, 0);
        assert_eq!(r.completions[1].session, 1);
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = SchedulerConfig::default();
        let p = plan(&[(0, 0, 0), (100, 1, 0), (100, 2, 0), (40_000, 0, 1)]);
        let a = run_virtual(&cfg, &p, |s, r| 100 + (s as u64) * 7 + (r as u64));
        let b = run_virtual(&cfg, &p, |s, r| 100 + (s as u64) * 7 + (r as u64));
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.queue_depth_samples, b.queue_depth_samples);
        let latencies = |r: &SchedResult| -> Vec<u64> {
            r.completions.iter().map(|c| c.latency_cycles).collect()
        };
        assert_eq!(latencies(&a), latencies(&b));
    }

    #[test]
    fn empty_plan_terminates_immediately() {
        let r = run_virtual(
            &SchedulerConfig::default(),
            &ArrivalPlan::default(),
            |_, _| 1u64,
        );
        assert_eq!(r.executed, 0);
        assert_eq!(r.windows, 0);
    }

    /// One seeded draw below `bound` (splitmix64).
    fn draw(state: &mut u64, bound: u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    #[test]
    fn hooked_loop_reports_each_admission_once_before_its_dispatch() {
        let mut rng = 0x5EED_u64;
        // Cases that shed at admission.
        let mut covered = 0u32;
        for case in 0..400 {
            let cfg = SchedulerConfig {
                model_workers: 1 + draw(&mut rng, 4) as usize,
                queue_capacity: 1 + draw(&mut rng, 8) as usize,
                slo_cycles: 50 + draw(&mut rng, 400),
                window_cycles: 50 + draw(&mut rng, 200),
            };
            // Each arrival is its session's next request, with a random
            // cost; every fourth plan breaks the non-decreasing order.
            let monotone = case % 4 != 0;
            let mut costs: Vec<Vec<u64>> = vec![Vec::new(); 5];
            let mut vtime = 0;
            let arrivals = (0..1 + draw(&mut rng, 60))
                .map(|_| {
                    vtime += draw(&mut rng, 3) * draw(&mut rng, 60);
                    let session = draw(&mut rng, 5) as usize;
                    costs[session].push(1 + draw(&mut rng, 300));
                    Arrival {
                        vtime: if monotone { vtime } else { draw(&mut rng, 500) },
                        session,
                        request: costs[session].len() - 1,
                    }
                })
                .collect();
            let plan = ArrivalPlan { arrivals };
            let n = plan.len();
            let reference = run_virtual(&cfg, &plan, |s, r| costs[s][r]);

            // (reported, index) events in the order the loop makes them.
            let events = std::cell::RefCell::new(Vec::new());
            let hooked = run_windows(
                &cfg,
                &plan,
                |admitted| {
                    let mut events = events.borrow_mut();
                    events.extend(admitted.iter().map(|&i| (true, i)));
                },
                |i| {
                    events.borrow_mut().push((false, i));
                    let a = plan.arrivals[i];
                    costs[a.session][a.request]
                },
            );
            assert_eq!(
                format!("{hooked:?}"),
                format!("{reference:?}"),
                "case {case}: the hook must not change the run ({cfg:?})"
            );

            let events = events.into_inner();
            let mut reported = vec![0u32; n];
            let mut dispatched = vec![0u32; n];
            for &(report, i) in &events {
                if report {
                    assert_eq!(dispatched[i], 0, "case {case}: {i} reported after dispatch");
                    reported[i] += 1;
                } else {
                    assert_eq!(reported[i], 1, "case {case}: {i} dispatched unreported");
                    dispatched[i] += 1;
                }
            }
            // Every reported arrival dispatches exactly once, and the
            // reported set is the executed set: no shed arrival is ever
            // reported.
            assert_eq!(reported, dispatched, "case {case}: {cfg:?}");
            assert!(reported.iter().all(|&c| c <= 1), "case {case}");
            let reports = reported.iter().filter(|&&c| c == 1).count() as u64;
            assert_eq!(reports, hooked.executed, "case {case}");
            assert_eq!(hooked.executed + hooked.shed, n as u64, "case {case}");
            covered += u32::from(hooked.shed > 0);
            if monotone {
                // A non-decreasing plan dispatches in admission order, so
                // work run at admission runs each session's requests in
                // dispatch order.
                let order = |report: bool| -> Vec<usize> {
                    events
                        .iter()
                        .filter(|e| e.0 == report)
                        .map(|e| e.1)
                        .collect()
                };
                assert_eq!(order(true), order(false), "case {case}: {cfg:?}");
            }
        }
        assert!(covered > 20, "{covered}");
    }
}
