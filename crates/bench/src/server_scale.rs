//! The `server_scale` section: copy-on-write session VMs under an
//! event-driven, backpressured scheduler, swept to 10^4–10^5 concurrent
//! sessions.
//!
//! Each sweep point forks every session from the version's shared snapshot
//! template and drives a zipfian, bursty arrival plan through the
//! deterministic virtual-time scheduler
//! ([`Server::serve_scaled`](confllvm_server::Server::serve_scaled)).  The
//! smallest point is additionally re-run with `isolate_sessions` — the
//! per-session-pool baseline, where every session pays its own full load +
//! setup — to establish two things the section then quotes at every scale:
//!
//! * **equivalence** — forked and isolated execution produce byte-identical
//!   attacker-observable traces (asserted, and also covered by the pool and
//!   runtime unit tests);
//! * **residency** — an isolated session parks on its full private snapshot
//!   while a forked session parks only on its CoW-faulted pages (zero when
//!   setup is shareable, as NGINX's is).  Per-session parked residency is
//!   constant per mode by construction, so the baseline measured at the
//!   small point is the honest per-session denominator at 10^4 too.
//!
//! Everything the scheduler reports — executed/shed counts, queue
//! depths, virtual-latency percentiles, makespan — is integer virtual-time
//! arithmetic over simulated cycles, so the emitted
//! `BENCH_server_scale.json` is exact-diffable against its golden copy on
//! any host; only `*_host_micros` keys are timing-class.

use confllvm_core::Config;
use confllvm_server::{
    ArrivalOptions, ArrivalPlan, BinaryId, ExecMode, PoolOptions, RequestGen, ScaleReport,
    SchedulerConfig, Server, ServerConfig, SessionSpec, StreamKind,
};
use confllvm_workloads::nginx;

use crate::{server_for, BenchJson, ServerLoad};

/// One sweep point: one forked scale run at `sessions` concurrent sessions.
#[derive(Debug, Clone)]
pub struct ServerScalePoint {
    pub sessions: usize,
    pub arrivals: usize,
    pub executed: u64,
    pub shed: u64,
    pub windows: u64,
    pub max_queue_depth: u64,
    pub mean_queue_depth: f64,
    /// Virtual (arrival-to-completion) latency percentiles, simulated cycles.
    pub p99_virtual_cycles: u64,
    pub p999_virtual_cycles: u64,
    /// Service-only latency tail, simulated cycles.
    pub p999_service_cycles: u64,
    /// Pages in the shared template snapshot — paid once per version.
    pub template_pages: usize,
    pub mean_parked_pages: f64,
    pub max_parked_pages: usize,
    pub mean_peak_pages: f64,
    pub cow_faults: u64,
    pub makespan_cycles: u64,
    /// Windows the SLO monitor classified bad (shed or late).
    pub slo_bad_windows: u64,
    /// Edge-triggered burn-rate breaches over the point's window series.
    pub slo_fast_breaches: u64,
    pub slo_slow_breaches: u64,
    pub host_micros: u128,
}

/// The whole section: the forked sweep plus the isolated baseline run at
/// the smallest point.
#[derive(Debug, Clone)]
pub struct ServerScaleReport {
    pub quick: bool,
    pub workload: &'static str,
    pub config: Config,
    pub points: Vec<ServerScalePoint>,
    /// Session count the isolated baseline ran at (the smallest point).
    pub baseline_sessions: usize,
    /// Per-session parked pages of an isolated (full private load + setup)
    /// session — constant per session by construction.
    pub isolated_mean_parked_pages: f64,
    /// Ratio of isolated over forked per-session parked pages at the
    /// largest point (forked mean floored at 0.1 pages so a perfect zero
    /// still yields a finite ratio).
    pub resident_improvement: f64,
    /// Forked and isolated runs produced byte-identical observables.
    pub observables_match: bool,
    pub isolated_host_micros: u128,
    /// Sessions actually completed through the *real-thread*
    /// [`Server::serve`] path (host worker threads) — the full
    /// sweep drives 10^4 live sessions through it; quick runs skip this
    /// leg (0) to stay inside CI time, where `serve` is covered by the
    /// throughput section and unit tests instead.
    pub live_serve_sessions: usize,
    /// Requests those live sessions completed.
    pub live_serve_requests: u64,
    pub live_serve_host_micros: u128,
    /// The quiet control run: the same session count as the baseline under
    /// an arrival rate the 4 modelled workers drain without queueing.  The
    /// SLO monitor must stay silent here — the breaches at the bursty
    /// points are then attributable to the induced overload, not the rules.
    pub quiet_sessions: usize,
    pub quiet_windows: u64,
    pub quiet_breaches: u64,
    /// Host scaling with threads: the largest point re-run on one owner
    /// thread and at the default worker count (`scaling_workers` owner
    /// threads), host microseconds each.  Printed only: host time is not
    /// golden-diffed exactly, and the simulated results of both runs are
    /// asserted identical.
    pub scaling_workers: usize,
    pub one_worker_host_micros: u128,
    pub default_workers_host_micros: u128,
    /// The largest point's per-window telemetry as metrics-series JSONL
    /// (schema `confllvm.metrics-series.v2`), for `--metrics-series <out>`.
    pub metrics_series: String,
}

/// Drive `count` single-request sessions through the real-thread
/// [`Server::serve`] path and return (sessions completed, requests
/// completed, host micros).  Every session must exit cleanly.
fn live_serve_leg(server: &Server, binary: BinaryId, count: usize) -> (usize, u64, u128) {
    let specs: Vec<SessionSpec> = (0..count)
        .map(|id| {
            let world = nginx::file_world(SCALE_FILES, SCALE_RESPONSE, id as u8);
            let requests = RequestGen::new(0x11FE_5E55 + id as u64).stream(
                StreamKind::NginxFiles {
                    files: SCALE_FILES,
                    response_size: SCALE_RESPONSE,
                },
                1,
            );
            SessionSpec::new(id, world, requests)
        })
        .collect();
    let report = server
        .serve(binary, &specs, ExecMode::Pooled)
        .unwrap_or_else(|e| panic!("live serve leg at {count} sessions: {e}"));
    assert_eq!(
        report.sessions.len(),
        count,
        "every live session must complete"
    );
    (
        report.sessions.len(),
        report.metrics.requests,
        report.host_micros.max(1),
    )
}

/// Session counts swept.  `--quick` reaches 10^4 forked sessions in CI
/// time; the full sweep reaches 10^5.
pub fn scale_sweep(quick: bool) -> &'static [usize] {
    if quick {
        &[1_000, 10_000]
    } else {
        &[2_000, 20_000, 100_000]
    }
}

const SCALE_FILES: usize = 2;
const SCALE_RESPONSE: usize = 512;

/// The bursty, zipf-skewed arrival plan for one sweep point.  Bursts are
/// deliberately hotter than the 4 modelled workers drain in a window, so
/// the bounded admission queue fills and the shed counter moves.
fn scale_plan(sessions: usize) -> ArrivalPlan {
    RequestGen::new(0x5CA1_E000 + sessions as u64).arrival_plan(&ArrivalOptions {
        sessions,
        arrivals: (sessions / 4).max(256),
        window_cycles: 50_000,
        on_windows: 3,
        off_windows: 2,
        on_per_window: 96,
        off_per_window: 4,
    })
}

/// The quiet control plan: same shape as [`scale_plan`] but with every
/// window's arrivals well under what the modelled workers drain, so no
/// request queues past its deadline and no window classifies bad.
fn quiet_plan(sessions: usize) -> ArrivalPlan {
    RequestGen::new(0x5CA1_E000 + sessions as u64).arrival_plan(&ArrivalOptions {
        sessions,
        arrivals: 128,
        window_cycles: 50_000,
        on_windows: 3,
        off_windows: 2,
        on_per_window: 4,
        off_per_window: 2,
    })
}

/// Build the per-session specs for a plan: each session gets its own
/// private [`World`] and exactly as many requests as the plan sends it.
fn scale_sessions(plan: &ArrivalPlan, sessions: usize) -> Vec<SessionSpec> {
    let counts = plan.per_session_counts(sessions);
    (0..sessions)
        .map(|id| {
            let world = nginx::file_world(SCALE_FILES, SCALE_RESPONSE, id as u8);
            let requests = RequestGen::new(0xF0_5E55 + id as u64).stream(
                StreamKind::NginxFiles {
                    files: SCALE_FILES,
                    response_size: SCALE_RESPONSE,
                },
                counts[id],
            );
            SessionSpec::new(id, world, requests)
        })
        .collect()
}

fn scale_server() -> (Server, BinaryId) {
    let load = ServerLoad {
        sessions: 0,
        requests_per_session: 0,
        files: SCALE_FILES,
        response_size: SCALE_RESPONSE,
        entries: 0,
        hit_pct: 0,
    };
    server_for("nginx", Config::OurMpx, &load)
}

fn point_of(sessions: usize, plan: &ArrivalPlan, report: &ScaleReport) -> ServerScalePoint {
    ServerScalePoint {
        sessions,
        arrivals: plan.len(),
        executed: report.executed,
        shed: report.metrics.shed,
        windows: report.windows,
        max_queue_depth: report.max_queue_depth(),
        mean_queue_depth: report.mean_queue_depth(),
        p99_virtual_cycles: report.virtual_percentile_milli(990),
        p999_virtual_cycles: report.virtual_percentile_milli(999),
        p999_service_cycles: report.metrics.percentile_milli(999),
        template_pages: report.resident.template_pages,
        mean_parked_pages: report.resident.mean_parked_pages,
        max_parked_pages: report.resident.max_parked_pages,
        mean_peak_pages: report.resident.mean_peak_pages,
        cow_faults: report.resident.cow_faults,
        makespan_cycles: report.makespan_cycles,
        slo_bad_windows: report.slo.bad,
        slo_fast_breaches: report.slo.fast_breaches,
        slo_slow_breaches: report.slo.slow_breaches,
        host_micros: report.host_micros.max(1),
    }
}

/// Run the sweep.  Asserts the section's acceptance bounds internally:
/// the sweep reaches >= 10^4 forked sessions, overload sheds at the
/// largest point, forked and isolated execution are byte-identical, and
/// per-session parked residency drops >= 10x versus the isolated baseline.
pub fn server_scale_report(quick: bool) -> ServerScaleReport {
    let sweep = scale_sweep(quick);
    let (server, binary) = scale_server();
    let sched = SchedulerConfig::default();

    let mut points = Vec::new();
    let mut baseline_observable: Option<Vec<u8>> = None;
    let mut metrics_series = String::new();
    for (i, &sessions) in sweep.iter().enumerate() {
        let plan = scale_plan(sessions);
        let specs = scale_sessions(&plan, sessions);
        let forked = server
            .serve_scaled(binary, &specs, &plan, &sched)
            .unwrap_or_else(|e| panic!("forked scale run at {sessions} sessions: {e}"));
        assert_eq!(
            forked.executed + forked.metrics.shed,
            plan.len() as u64,
            "every arrival is either executed or shed"
        );
        if i == 0 {
            baseline_observable = Some(forked.observable());
        }
        if i == sweep.len() - 1 {
            metrics_series = forked.series.jsonl(
                &[("workload", "nginx"), ("config", Config::OurMpx.name())],
                &[
                    ("sessions", sessions as u64),
                    ("slo_cycles", sched.slo_cycles),
                ],
            );
        }
        points.push(point_of(sessions, &plan, &forked));
    }

    // The per-session-pool baseline: same registry, same version, same plan
    // — every session spawned as a full private load + setup.
    let baseline_sessions = sweep[0];
    let iso_server = Server::new(
        std::sync::Arc::clone(&server.registry),
        ServerConfig {
            pool: PoolOptions {
                isolate_sessions: true,
                ..PoolOptions::default()
            },
            ..ServerConfig::default()
        },
    );
    let plan = scale_plan(baseline_sessions);
    let specs = scale_sessions(&plan, baseline_sessions);
    let isolated = iso_server
        .serve_scaled(binary, &specs, &plan, &sched)
        .unwrap_or_else(|e| panic!("isolated baseline run: {e}"));
    let observables_match =
        baseline_observable.as_deref() == Some(isolated.observable().as_slice());
    assert!(
        observables_match,
        "forked and isolated execution must be byte-identical"
    );
    assert_eq!(points[0].executed, isolated.executed);
    assert_eq!(points[0].shed, isolated.metrics.shed);

    let isolated_mean = isolated.resident.mean_parked_pages;
    let top = points.last().expect("sweep is non-empty");
    assert!(
        top.sessions >= 10_000,
        "the sweep must reach 10^4 concurrent sessions"
    );
    assert!(top.shed > 0, "the largest point must demonstrate shedding");
    for p in &points {
        assert!(
            isolated_mean >= 10.0 * p.mean_parked_pages.max(0.1),
            "forked sessions must park >= 10x fewer private pages than \
             isolated ones ({} vs {} at {} sessions)",
            p.mean_parked_pages,
            isolated_mean,
            p.sessions
        );
    }
    let resident_improvement = isolated_mean / top.mean_parked_pages.max(0.1);

    // Every bursty point must trip the fast burn-rate rule (the plan is
    // engineered to shed), and the quiet control run must not: breaches
    // measure induced overload, not monitor noise.
    for p in &points {
        assert!(
            p.slo_fast_breaches >= 1,
            "the bursty plan at {} sessions must trip the fast burn-rate rule",
            p.sessions
        );
    }
    let quiet = {
        let plan = quiet_plan(baseline_sessions);
        let specs = scale_sessions(&plan, baseline_sessions);
        server
            .serve_scaled(binary, &specs, &plan, &sched)
            .unwrap_or_else(|e| panic!("quiet control run: {e}"))
    };
    assert_eq!(
        quiet.metrics.shed, 0,
        "the quiet plan must stay under the drain rate"
    );
    assert_eq!(
        quiet.slo.total_breaches(),
        0,
        "the quiet control run must not trip any burn-rate rule \
         ({} bad windows of {})",
        quiet.slo.bad,
        quiet.slo.windows
    );

    // Host scaling: the largest point again on one owner thread, then at
    // the default worker count.  Only host time may differ.
    let (scaling_workers, one_worker_host_micros, default_workers_host_micros) = {
        let plan = scale_plan(top.sessions);
        let specs = scale_sessions(&plan, top.sessions);
        let one_worker = Server::new(
            std::sync::Arc::clone(&server.registry),
            server.config.clone().workers(1),
        );
        let run = |server: &Server| {
            server
                .serve_scaled(binary, &specs, &plan, &sched)
                .unwrap_or_else(|e| panic!("host scaling run: {e}"))
        };
        let (one, default) = (run(&one_worker), run(&server));
        assert_eq!(
            (one.executed, one.makespan_cycles, one.observable()),
            (
                default.executed,
                default.makespan_cycles,
                default.observable()
            ),
            "the worker count must not change a scale run's results"
        );
        (
            default.workers,
            one.host_micros.max(1),
            default.host_micros.max(1),
        )
    };

    // The full sweep additionally exercises the *real-thread* serve path at
    // 10^4 live sessions — worker threads, per-version fork templates
    // — so the scale claim is not carried by the virtual-time model alone.
    let (live_serve_sessions, live_serve_requests, live_serve_host_micros) = if quick {
        (0, 0, 0)
    } else {
        let (s, r, us) = live_serve_leg(&server, binary, 10_000);
        assert!(
            s >= 10_000,
            "the real-thread serve leg must reach 10^4 live sessions"
        );
        (s, r, us)
    };

    ServerScaleReport {
        quick,
        workload: "nginx",
        config: Config::OurMpx,
        points,
        baseline_sessions,
        isolated_mean_parked_pages: isolated_mean,
        resident_improvement,
        observables_match,
        isolated_host_micros: isolated.host_micros.max(1),
        live_serve_sessions,
        live_serve_requests,
        live_serve_host_micros,
        quiet_sessions: baseline_sessions,
        quiet_windows: quiet.slo.windows,
        quiet_breaches: quiet.slo.total_breaches(),
        scaling_workers,
        one_worker_host_micros,
        default_workers_host_micros,
        metrics_series,
    }
}

/// Render the section as an aligned text table.
pub fn render_server_scale(r: &ServerScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== Server scale — CoW session forks + backpressured virtual-time scheduler ({}/{})\n",
        r.workload,
        r.config.name()
    ));
    out.push_str(&format!(
        "{:>9}{:>9}{:>9}{:>7}{:>8}{:>12}{:>12}{:>12}{:>10}{:>10}\n",
        "sessions",
        "arrivals",
        "executed",
        "shed",
        "queue",
        "p99v cyc",
        "p99.9v cyc",
        "parked pg",
        "cow flt",
        "host ms",
    ));
    for p in &r.points {
        out.push_str(&format!(
            "{:>9}{:>9}{:>9}{:>7}{:>8}{:>12}{:>12}{:>12.2}{:>10}{:>10}\n",
            p.sessions,
            p.arrivals,
            p.executed,
            p.shed,
            p.max_queue_depth,
            p.p99_virtual_cycles,
            p.p999_virtual_cycles,
            p.mean_parked_pages,
            p.cow_faults,
            p.host_micros / 1000,
        ));
    }
    out.push_str(&format!(
        "   template snapshot      {} pages shared across every session of the version\n",
        r.points.first().map(|p| p.template_pages).unwrap_or(0)
    ));
    out.push_str(&format!(
        "   isolated baseline      {:.2} parked pages/session at {} sessions -> {:.0}x resident improvement\n",
        r.isolated_mean_parked_pages, r.baseline_sessions, r.resident_improvement
    ));
    out.push_str(&format!(
        "   equivalence            forked vs isolated observables byte-identical: {}\n",
        r.observables_match
    ));
    if let Some(top) = r.points.last() {
        out.push_str(&format!(
            "   slo monitor            burst: {} fast / {} slow breaches over {} bad windows; quiet control ({} sessions, {} windows): {} breaches\n",
            top.slo_fast_breaches,
            top.slo_slow_breaches,
            top.slo_bad_windows,
            r.quiet_sessions,
            r.quiet_windows,
            r.quiet_breaches
        ));
    }
    if let Some(top) = r.points.last() {
        out.push_str(&format!(
            "   host scaling           {} sessions: {} ms on 1 owner thread, {} ms on {} ({:.2}x)\n",
            top.sessions,
            r.one_worker_host_micros / 1000,
            r.default_workers_host_micros / 1000,
            r.scaling_workers,
            r.one_worker_host_micros as f64 / r.default_workers_host_micros.max(1) as f64
        ));
    }
    if r.live_serve_sessions > 0 {
        out.push_str(&format!(
            "   real-thread serve      {} live sessions / {} requests through Server::serve in {} ms\n",
            r.live_serve_sessions,
            r.live_serve_requests,
            r.live_serve_host_micros / 1000
        ));
    }
    out
}

/// The section's BENCH document.  Only `*_host_micros` keys are
/// timing-class; everything else is virtual-time or page arithmetic and
/// diffs exactly.
pub fn server_scale_json(r: &ServerScaleReport) -> BenchJson {
    let mut json = BenchJson::new("server_scale", r.quick);
    json.str("workload", r.workload)
        .str("config", r.config.name())
        .plain("points", r.points.len());
    for p in &r.points {
        let k = format!("scale.{}", p.sessions);
        json.plain(format_args!("{k}.sessions"), p.sessions)
            .plain(format_args!("{k}.arrivals"), p.arrivals)
            .plain(format_args!("{k}.executed"), p.executed)
            .plain(format_args!("{k}.shed"), p.shed)
            .plain(format_args!("{k}.windows"), p.windows)
            .plain(format_args!("{k}.max_queue_depth"), p.max_queue_depth)
            .ratio(format_args!("{k}.mean_queue_depth"), p.mean_queue_depth)
            .plain(format_args!("{k}.p99_virtual_cycles"), p.p99_virtual_cycles)
            .plain(
                format_args!("{k}.p999_virtual_cycles"),
                p.p999_virtual_cycles,
            )
            .plain(
                format_args!("{k}.p999_service_cycles"),
                p.p999_service_cycles,
            )
            .plain(format_args!("{k}.template_pages"), p.template_pages)
            .ratio(format_args!("{k}.mean_parked_pages"), p.mean_parked_pages)
            .plain(format_args!("{k}.max_parked_pages"), p.max_parked_pages)
            .ratio(format_args!("{k}.mean_peak_pages"), p.mean_peak_pages)
            .plain(format_args!("{k}.cow_faults"), p.cow_faults)
            .plain(format_args!("{k}.makespan_cycles"), p.makespan_cycles)
            .plain(format_args!("{k}.slo_bad_windows"), p.slo_bad_windows)
            .plain(format_args!("{k}.slo_fast_breaches"), p.slo_fast_breaches)
            .plain(format_args!("{k}.slo_slow_breaches"), p.slo_slow_breaches)
            .plain(format_args!("{k}.host_micros"), p.host_micros);
    }
    json.plain("quiet.sessions", r.quiet_sessions)
        .plain("quiet.windows", r.quiet_windows)
        .plain("quiet.breaches", r.quiet_breaches)
        .plain("baseline.sessions", r.baseline_sessions)
        .ratio(
            "baseline.isolated_mean_parked_pages",
            r.isolated_mean_parked_pages,
        )
        .ratio("baseline.resident_improvement", r.resident_improvement)
        .plain("baseline.observables_match", r.observables_match)
        .plain("baseline.isolated_host_micros", r.isolated_host_micros);
    // The real-thread serve leg only runs in the full sweep; quick output
    // omits the keys entirely so the quick golden stays byte-identical.
    if r.live_serve_sessions > 0 {
        json.plain("live_serve.sessions", r.live_serve_sessions)
            .plain("live_serve.requests", r.live_serve_requests)
            .plain("live_serve.host_micros", r.live_serve_host_micros);
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_reaches_ten_thousand_sessions_and_slashes_residency() {
        // server_scale_report asserts internally: >= 10^4 sessions, shed
        // under overload, byte-identical forked vs isolated observables,
        // >= 10x parked-residency drop at every point.
        let r = server_scale_report(true);
        assert_eq!(r.points.len(), scale_sweep(true).len());
        let top = r.points.last().unwrap();
        assert!(top.sessions >= 10_000);
        assert!(top.shed > 0 && top.executed > 0);
        assert!(top.max_queue_depth > 0, "overload must queue");
        assert!(
            top.p999_virtual_cycles >= top.p999_service_cycles,
            "queueing delay can only lengthen the virtual tail"
        );
        assert!(top.cow_faults > 0, "writes must fault pages private");
        assert!(r.observables_match);
        assert!(r.resident_improvement >= 10.0);
    }

    #[test]
    fn scale_json_round_trips_and_diffs_cleanly_against_itself() {
        let r = server_scale_report(true);
        let json = server_scale_json(&r).to_string();
        let errors = crate::bench_json::diff_bench_json(&json, &json).unwrap();
        assert!(errors.is_empty(), "{errors:?}");
        assert!(render_server_scale(&r).contains("10000"));
    }

    #[test]
    fn live_serve_leg_completes_every_session_on_real_threads() {
        let (server, binary) = scale_server();
        let (sessions, requests, host_micros) = live_serve_leg(&server, binary, 64);
        assert_eq!(sessions, 64);
        assert_eq!(requests, 64, "one request per live session");
        assert!(host_micros > 0);
    }

    #[test]
    fn quick_json_omits_the_live_serve_keys() {
        // A zero leg (what quick runs produce) must omit the keys entirely —
        // that is what keeps the quick golden byte-identical — while a
        // non-zero leg emits them.
        let mut r = ServerScaleReport {
            quick: true,
            workload: "nginx",
            config: Config::OurMpx,
            points: Vec::new(),
            baseline_sessions: 0,
            isolated_mean_parked_pages: 0.0,
            resident_improvement: 0.0,
            observables_match: true,
            isolated_host_micros: 1,
            live_serve_sessions: 0,
            live_serve_requests: 0,
            live_serve_host_micros: 0,
            quiet_sessions: 0,
            quiet_windows: 0,
            quiet_breaches: 0,
            scaling_workers: 1,
            one_worker_host_micros: 1,
            default_workers_host_micros: 1,
            metrics_series: String::new(),
        };
        assert!(!server_scale_json(&r).to_string().contains("live_serve."));
        r.live_serve_sessions = 10_000;
        r.live_serve_requests = 10_000;
        r.live_serve_host_micros = 1;
        let json = server_scale_json(&r).to_string();
        assert!(json.contains("\"live_serve.sessions\": 10000"));
        let errors = crate::bench_json::diff_bench_json(&json, &json).unwrap();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn burst_trips_the_fast_burn_rule_and_quiet_stays_silent() {
        // server_scale_report already asserts both internally; this pins
        // the exported shape too.
        let r = server_scale_report(true);
        let top = r.points.last().unwrap();
        assert!(top.slo_fast_breaches >= 1);
        assert!(top.slo_bad_windows > 0);
        assert_eq!(r.quiet_breaches, 0);
        assert!(r.quiet_windows > 0, "the quiet run must produce windows");
        let json = server_scale_json(&r).to_string();
        assert!(json.contains(".slo_fast_breaches"));
        assert!(json.contains("\"quiet.breaches\": 0"));
        // The top point's telemetry rides along as metrics-series JSONL.
        let first = r.metrics_series.lines().next().unwrap();
        assert!(first.contains("\"schema\":\"confllvm.metrics-series.v2\""));
        assert!(first.contains("\"workload\":\"nginx\""));
        assert!(
            r.metrics_series.lines().count() as u64 >= top.windows,
            "one JSONL line per window plus the schema header"
        );
    }

    #[test]
    fn arrival_plans_are_deterministic_per_point() {
        let a = scale_plan(1_000);
        let b = scale_plan(1_000);
        assert_eq!(a.arrivals, b.arrivals);
        assert!(!a.is_empty());
    }
}
