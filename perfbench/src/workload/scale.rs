//! `scale`: one op is one `Server::serve_scaled` run on one thread.  It
//! forks 10^4 nginx sessions from the version's shared template, drives a
//! seeded arrival plan (zipf session choice, on/off bursts) through the
//! virtual-time scheduler (bounded EDF queue, `Backpressure::Shed`), then
//! parks and drops every session.  It is the only workload that runs
//! `sched::run_virtual` and keeps 10^4 sessions resident.
//!
//! The bursts overflow the admission queue a little, so a small share of
//! arrivals is shed and `ok_pct` sits below 100: it moves when admission or
//! dispatch changes.  Every op replays the run's one plan.

use std::sync::Arc;
use std::time::Instant;

use confllvm_core::vm::World;
use confllvm_core::{CompileOptions, Config};
use confllvm_server::sched::run_virtual;
use confllvm_server::{
    Arrival, ArrivalPlan, BinaryId, ExecCost, Registry, Request, ScaleReport, SchedulerConfig,
    Server, ServerConfig, SessionSpec, SetupSpec, SnapshotStore, VerifyPolicy,
};
use confllvm_workloads::nginx;

use crate::harness::{
    finish, leaks, session_cycles, set_up, tampered_copies_rejected, Args, Expected, Layers, Phase,
    Report, FILE_WINDOW,
};
use crate::stats::{digest, Rng, Tally, Verdict};
use crate::trace::{totals, SpanLog};
use crate::yardstick::Yardstick;

const SESSIONS: usize = 10_000;
const ARRIVALS: usize = SESSIONS / 4;
const RESPONSE: usize = 512;
/// nginx logs one 64-byte encrypted entry per request.
const LOG_BYTES: usize = 64;
/// File contents come from this many fills, so `expected.txt` holds one
/// digest pair per fill.
const FILLS: usize = 8;
/// Burst shape, in admission windows of the default scheduler's width.
/// Four modelled workers drain about 33 requests a window, so 34 a window
/// during a burst sheds about 3% of arrivals.
const ON_WINDOWS: u64 = 3;
const OFF_WINDOWS: u64 = 2;
const ON_PER_WINDOW: usize = 34;
const OFF_PER_WINDOW: usize = 4;
/// Ops per second of `--seconds`, and the floor that keeps ten samples
/// beyond p90.
const OPS_PER_S: u64 = 10;
const MIN_OPS: u64 = 100;
/// Forking, page copies and teardown: the allocation yardstick tracks it.
const YARDSTICK: Yardstick = Yardstick::Alloc;

fn fill(k: usize) -> u8 {
    (k * 37 + 3) as u8
}

fn session_world(fill: u8) -> World {
    nginx::file_world(1, RESPONSE, fill)
}

fn request() -> Request {
    Request::with_input(
        nginx::REQUEST_ENTRY,
        &[RESPONSE as i64],
        nginx::request_bytes(0),
    )
}

/// The seeded plan: on/off bursts spread evenly over each window, each
/// arrival's session drawn zipf (s = 1) over a seeded ranking of sessions.
fn plan(rng: &mut Rng, window: u64) -> ArrivalPlan {
    let mut cdf = Vec::with_capacity(SESSIONS);
    let mut total = 0.0f64;
    for i in 0..SESSIONS {
        total += 1.0 / (i + 1) as f64;
        cdf.push(total);
    }
    let mut ranking: Vec<usize> = (0..SESSIONS).collect();
    rng.shuffle(&mut ranking);
    let mut counts = vec![0usize; SESSIONS];
    let mut arrivals = Vec::with_capacity(ARRIVALS);
    let mut w = 0u64;
    while arrivals.len() < ARRIVALS {
        let k = if w % (ON_WINDOWS + OFF_WINDOWS) < ON_WINDOWS {
            ON_PER_WINDOW
        } else {
            OFF_PER_WINDOW
        };
        for j in 0..k.min(ARRIVALS - arrivals.len()) {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
            let rank = cdf.partition_point(|&c| c <= u).min(SESSIONS - 1);
            let session = ranking[rank];
            arrivals.push(Arrival {
                vtime: w * window + j as u64 * window / k as u64,
                session,
                request: counts[session],
            });
            counts[session] += 1;
        }
        w += 1;
    }
    ArrivalPlan { arrivals }
}

struct State {
    server: Server,
    binary: BinaryId,
    sched: SchedulerConfig,
    plan: ArrivalPlan,
    specs: Vec<SessionSpec>,
    /// Fill index per session.
    fills: Vec<usize>,
    /// Expected (sent, log) digest of one request, per fill.
    want: Vec<(u64, u64)>,
    ops: u64,
}

fn deploy() -> Result<(Server, BinaryId), String> {
    let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
    let opts = CompileOptions {
        config: Config::OurMpx,
        entry: nginx::SETUP_ENTRY.to_string(),
        ..Default::default()
    };
    registry
        .deploy_source(
            "nginx",
            nginx::SOURCE,
            &opts,
            Some(SetupSpec::new(nginx::SETUP_ENTRY, &[])),
        )
        .map_err(|e| format!("nginx must deploy: {e}"))?;
    let binary = registry.binary_id("nginx").ok_or("nginx has no handle")?;
    Ok((Server::new(registry, ServerConfig::default()), binary))
}

fn prepare(args: &Args, expected: &Expected) -> Result<State, String> {
    let want = (0..FILLS)
        .map(|k| {
            let key = format!("scale.fill.{k}");
            Ok((expected.digest(&key, 0)?, expected.digest(&key, 1)?))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let (server, binary) = deploy()?;
    let sched = SchedulerConfig::default();
    let mut rng = Rng::new(args.seed ^ 0x5ca1e);
    let plan = plan(&mut rng, sched.window_cycles);
    let counts = plan.per_session_counts(SESSIONS);
    let fills: Vec<usize> = (0..SESSIONS).map(|_| rng.below(FILLS)).collect();
    let specs = (0..SESSIONS)
        .map(|s| SessionSpec::new(s, session_world(fill(fills[s])), vec![request(); counts[s]]))
        .collect();
    let state = State {
        server,
        binary,
        sched,
        plan,
        specs,
        fills,
        want,
        ops: (args.seconds * OPS_PER_S).max(MIN_OPS),
    };
    // Untimed warm-up run: the first 10^4-session fork pass is far slower
    // than later ones.
    state
        .server
        .serve_scaled(state.binary, &state.specs, &state.plan, &state.sched)
        .map_err(|e| format!("warm-up run: {e}"))?;
    Ok(state)
}

/// Does one session's output match `n` requests of its fill's expected
/// response?  On a mismatch, also scan the output for the session's file.
fn session_ok(
    state: &State,
    s: usize,
    exits: &[i64],
    sent: &[u8],
    log: &[u8],
    failures: &mut Vec<String>,
) -> bool {
    let n = exits.len();
    let (want_sent, want_log) = state.want[state.fills[s]];
    let ok = exits.iter().all(|&c| c == 1)
        && sent.len() == n * RESPONSE
        && log.len() == n * LOG_BYTES
        && sent.chunks(RESPONSE).all(|c| digest(c) == want_sent)
        && log.chunks(LOG_BYTES).all(|c| digest(c) == want_log);
    if !ok {
        let file = &state.specs[s].world.secret_files["doc0"];
        if leaks(sent, file, FILE_WINDOW) || leaks(log, file, FILE_WINDOW) {
            failures.push(format!("session {s}: private file bytes appear in clear"));
        }
    }
    ok
}

/// Tally one run's arrivals: executed with correct output, wrong, or shed.
fn judge(state: &State, report: &ScaleReport, failures: &mut Vec<String>) -> Tally {
    let mut tally = Tally::default();
    for (s, o) in report.sessions.iter().enumerate() {
        let n = o.exit_codes.len() as u64;
        let verdict = if session_ok(state, s, &o.exit_codes, &o.sent, &o.log, failures) {
            Verdict::Correct
        } else {
            Verdict::Wrong
        };
        tally.record_n(verdict, n);
    }
    tally.record_n(Verdict::Shed, report.metrics.shed);
    let unaccounted = (state.plan.len() as u64).saturating_sub(tally.attempted());
    tally.record_n(Verdict::Fault, unaccounted);
    tally
}

fn drive(
    state: &State,
    log: Option<&mut SpanLog>,
    failures: &mut Vec<String>,
) -> (Phase, Option<(u64, u64)>) {
    let mut phase = Phase::new(YARDSTICK);
    let mut log = log;
    let mut sched_counts = None;
    let start = Instant::now();
    for op in 0..state.ops {
        phase.probe(start);
        let t0 = Instant::now();
        let run = || {
            state
                .server
                .serve_scaled(state.binary, &state.specs, &state.plan, &state.sched)
        };
        let result = match log.as_deref_mut() {
            None => run(),
            Some(log) => {
                let root = log.open("op.scale", op, None);
                let r = log.time("server.serve_scaled", op, root, run);
                log.close(root);
                r
            }
        };
        phase.time_op(start, t0);
        let tally = match &result {
            Ok(report) => {
                sched_counts = Some((report.executed, report.metrics.shed));
                judge(state, report, failures)
            }
            Err(e) => {
                failures.push(format!("scale run {op}: {e}"));
                let mut t = Tally::default();
                t.record_n(Verdict::Fault, state.plan.len() as u64);
                t
            }
        };
        phase.broken_ops += u64::from(tally.broken() > 0);
        phase.tally.merge(&tally);
        drop(result);
    }
    phase.probe(start);
    (phase, sched_counts)
}

#[derive(Default)]
struct ReplayCounts {
    dirty_pages: u64,
    trusted_calls: u64,
    sim_insts: u64,
    executed: u64,
    shed: u64,
    cow_faults: u64,
    resident_pages: u64,
}

/// Replay each op through the public calls `serve_scaled` makes inside
/// itself: checkout, template, a fork per session, `run_virtual` with a
/// restore and a run per dispatched request, park, teardown — and then
/// `run_virtual` alone on the same plan, replaying the recorded costs.
fn replay(
    state: &State,
    log: &mut SpanLog,
    failures: &mut Vec<String>,
) -> Result<ReplayCounts, String> {
    let registry = Arc::clone(&state.server.registry);
    let store = SnapshotStore::new(Arc::clone(&registry));
    let pool_opts = state.server.config.pool;
    let mut counts = ReplayCounts::default();
    for op in 0..state.ops {
        let root = log.open("op.replay", op, None);
        let (version, service) = log
            .time("server.checkout", op, root, || {
                registry.checkout_active(state.binary)
            })
            .ok_or("no active version")?;
        let mut vm_opts = state.server.config.vm.clone();
        vm_opts.allocator = service.config.allocator();
        let template = log
            .time("server.template", op, root, || {
                store.template(version, &service, vm_opts)
            })
            .map_err(|e| e.to_string())?;
        let mut instances = Vec::with_capacity(SESSIONS);
        for spec in &state.specs {
            let inst = log.time("server.fork", op, root, || template.instance(&spec.world));
            instances.push(inst.map_err(|e| e.to_string())?);
        }
        let mut costs: Vec<Vec<ExecCost>> = state
            .specs
            .iter()
            .map(|s| vec![ExecCost::default(); s.requests.len()])
            .collect();
        let mut wrong = 0u64;
        let mut peak_pages = vec![0usize; SESSIONS];
        let dispatch = log.open("server.dispatch", op, Some(root));
        let result = run_virtual(&state.sched, &state.plan, |si, ri| {
            let inst = &mut instances[si];
            let cow_before = inst.vm.cow_faults();
            let (dirty, restore_cycles) =
                log.time("server.restore", op, dispatch, || inst.reset(&pool_opts));
            counts.dirty_pages += dirty;
            let req = &state.specs[si].requests[ri];
            if let Some(input) = &req.input {
                inst.vm.world.push_request(input);
            }
            let before = inst.vm.stats.clone();
            let r = log.time("vm.exec", op, dispatch, || {
                inst.vm.run_function(&req.entry, &req.args)
            });
            counts.trusted_calls += inst.vm.stats.extern_calls - before.extern_calls;
            counts.sim_insts += inst.vm.stats.instructions - before.instructions;
            let sent = &inst.vm.world.sent[inst.sent_baseline..];
            let out_log = &inst.vm.world.log[inst.log_baseline..];
            let exits = [r.exit_code().unwrap_or(-1)];
            if !session_ok(state, si, &exits, sent, out_log, failures) {
                wrong += 1;
            }
            peak_pages[si] = peak_pages[si].max(inst.vm.resident_private_pages());
            let cost = ExecCost {
                cycles: inst.vm.stats.cycles - before.cycles + restore_cycles,
                cow_faults: inst.vm.cow_faults() - cow_before,
            };
            costs[si][ri] = cost;
            cost
        });
        log.close(dispatch);
        log.time("server.park", op, root, || {
            for inst in &mut instances {
                inst.reset(&pool_opts);
                counts.cow_faults += inst.vm.cow_faults();
            }
        });
        log.time("server.teardown", op, root, || drop(instances));
        counts.resident_pages += peak_pages.iter().sum::<usize>() as u64;
        let replayed = log.time("sched.run_virtual", op, root, || {
            run_virtual(&state.sched, &state.plan, |si, ri| costs[si][ri])
        });
        registry.release(version);
        log.close(root);
        if wrong > 0 || (replayed.executed, replayed.shed) != (result.executed, result.shed) {
            return Err(format!(
                "replay {op} differs from the served run ({wrong} wrong requests)"
            ));
        }
        counts.executed += result.executed;
        counts.shed += result.shed;
    }
    Ok(counts)
}

fn traced(state: &State, failures: &mut Vec<String>) -> Result<(Phase, Layers), String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, 0);
    let (phase, served) = drive(state, Some(&mut log), failures);
    let counts = replay(state, &mut log, failures)?;
    if let Some((executed, shed)) = served {
        if (executed * state.ops, shed * state.ops) != (counts.executed, counts.shed) {
            failures.push("replayed scheduler counts differ from serve_scaled".to_string());
        }
    }
    let t = totals(std::slice::from_ref(&log));
    let ops = phase.ops() as f64;
    let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
    let per_call_us = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.total_ns as f64 / x.calls.max(1) as f64 / 1e3)
    };
    let per_op_ms = |name: &str| ns(name) / ops / 1e6;
    let mut layers = Layers::new();
    layers.insert("server.fork_us", per_call_us("server.fork"));
    layers.insert("server.restore_us", per_call_us("server.restore"));
    layers.insert("server.dirty_pages", counts.dirty_pages as f64);
    layers.insert("vm.exec_us", per_call_us("vm.exec"));
    layers.insert("vm.trusted_calls", counts.trusted_calls as f64);
    layers.insert("vm.run_ms", per_op_ms("vm.exec"));
    layers.insert("vm.sim_insts", counts.sim_insts as f64);
    layers.insert(
        "vm.ns_per_sim_inst",
        ns("vm.exec") / counts.sim_insts.max(1) as f64,
    );
    layers.insert("server.park_ms", per_op_ms("server.park"));
    layers.insert("server.teardown_ms", per_op_ms("server.teardown"));
    layers.insert("sched.run_virtual_ms", per_op_ms("sched.run_virtual"));
    layers.insert("sched.executed", counts.executed as f64);
    layers.insert("sched.shed", counts.shed as f64);
    layers.insert("server.cow_faults", counts.cow_faults as f64);
    layers.insert("server.resident_pages", counts.resident_pages as f64);
    crate::trace::write_trace("scale", &[log], &t);
    Ok((finish(phase), layers))
}

/// Run-level checks: one session per fill against `expected.txt` with a
/// leak scan, and tampered copies of the deployed binary.
fn check(state: &State, failures: &mut Vec<String>) -> Result<(), String> {
    for k in 0..FILLS {
        let (sent, log) = serve_one(&state.server, state.binary, k)?;
        let file = session_world(fill(k)).secret_files["doc0"].clone();
        if leaks(&sent, &file, FILE_WINDOW) || leaks(&log, &file, FILE_WINDOW) {
            failures.push(format!("fill {k}: private file bytes appear in clear"));
        }
        if (digest(&sent), digest(&log)) != state.want[k] {
            failures.push(format!("fill {k}: output differs from expected.txt"));
        }
    }
    let registry = &state.server.registry;
    let (version, service) = registry
        .checkout_active(state.binary)
        .ok_or("no active version")?;
    let (accepted, had_bnd1) = tampered_copies_rejected("nginx", &service.program);
    registry.release(version);
    failures.extend(accepted);
    if !had_bnd1 {
        failures.push("nginx: no Bnd1 checks to tamper with".to_string());
    }
    Ok(())
}

/// Serve one session of one request for fill `k`: its (sent, log).
fn serve_one(server: &Server, binary: BinaryId, k: usize) -> Result<(Vec<u8>, Vec<u8>), String> {
    let spec = SessionSpec::new(0usize, session_world(fill(k)), vec![request()]);
    let r = server
        .serve(
            binary,
            std::slice::from_ref(&spec),
            confllvm_server::ExecMode::Pooled,
        )
        .map_err(|e| e.to_string())?;
    let s = r.sessions.into_iter().next().ok_or("no session served")?;
    if s.exit_codes != [1] {
        return Err(format!("fill {k}: exit codes {:?}", s.exit_codes));
    }
    Ok((s.sent, s.log))
}

/// One nginx request, OurMPX over Base, in simulated cycles.
fn sim_overhead_pct() -> Result<f64, String> {
    let world = session_world(fill(0));
    let requests = [request()];
    let setup = (nginx::SETUP_ENTRY, &[][..]);
    let base = session_cycles(nginx::SOURCE, Config::Base, setup, &world, &requests)?;
    let mpx = session_cycles(nginx::SOURCE, Config::OurMpx, setup, &world, &requests)?;
    Ok((mpx as f64 / base as f64 - 1.0) * 100.0)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let expected = Expected::load()?;
    let (state, setup) = set_up(YARDSTICK, || prepare(args, &expected))?;
    let mut check_failures = Vec::new();
    check(&state, &mut check_failures)?;
    let (untraced, _) = drive(&state, None, &mut check_failures);
    let untraced = finish(untraced);
    let traced = if args.trace {
        Some(traced(&state, &mut check_failures)?)
    } else {
        None
    };
    Ok(Report {
        setup,
        untraced,
        sim_overhead_pct: sim_overhead_pct()?,
        check_failures,
        traced,
    })
}

/// `expected.txt` lines for the fills, recorded from the program once
/// (never during a benchmark run).
pub fn record(out: &mut String) -> Result<(), String> {
    let (server, binary) = deploy()?;
    for k in 0..FILLS {
        let (sent, log) = serve_one(&server, binary, k)?;
        out.push_str(&format!(
            "scale.fill.{k} {:016x} {:016x}\n",
            digest(&sent),
            digest(&log)
        ));
    }
    Ok(())
}
