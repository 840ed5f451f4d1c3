//! `serve`: one op is one client visit — an ldap session, then an nginx
//! session, each its own `Server::serve(…, ExecMode::Pooled)` call against
//! verified OurMPX builds of both services.  One client thread sends
//! visits in a closed loop to one `Server`; each `serve` call runs its
//! session on a server worker thread the client waits on.  The run pins
//! itself to one core first (see `harness::pin_to_one_cpu`), so that worker
//! starts on the client's core.  With two clients on the 2-core host, a
//! visit's latency depended on what the other client's worker was doing on
//! the other core, and its median fell between the two resulting
//! populations.
//!
//! Pairing the two sessions keeps op latency unimodal: measured apart, the
//! two session kinds differ by more than 2x and a mix of them puts the
//! median in the gap between them.
//!
//! Sessions come from a fixed catalogue of variants (private state plus a
//! request stream), so `expected.txt` can hold the digest of each one's
//! observable output; the seed draws which variants each visit uses.

use std::sync::Arc;
use std::time::Instant;

use confllvm_core::vm::World;
use confllvm_core::{CompileOptions, Config};
use confllvm_server::{
    BinaryId, ExecMode, Registry, Request, Server, ServerConfig, ServiceReport, SessionSpec,
    SetupSpec, SnapshotStore, VerifyPolicy,
};
use confllvm_workloads::{ldap, nginx};

use crate::harness::{
    finish, leaks, pin_to_one_cpu, session_cycles, set_up, since, tampered_copies_rejected, Args,
    Expected, Layers, Phase, Report, FILE_WINDOW, PASSWORD_WINDOW,
};
use crate::stats::{digest, geomean_overhead_pct, Rng, Tally, Verdict};
use crate::trace::{totals, SpanLog};
use crate::yardstick::Yardstick;

/// Requests per session.
const K: usize = 16;
/// Directory entries `populate` inserts at fork.
const ENTRIES: usize = 64;
const FILES: usize = 4;
const RESPONSE: usize = 1024;
/// Session variants per service.
const VARIANTS: usize = 8;
/// Visits per second of `--seconds`, and the floor that keeps ten samples
/// beyond p90.  A run is about twice `--seconds` long: the host swings
/// between fast and slow spells of about a second, visits slow more than
/// the yardstick in a slow spell, and the median visit sits between the
/// two, so a longer run averages over more spells.
const VISITS_PER_S: u64 = 1400;
const MIN_VISITS: u64 = 200;
/// Closed-loop client threads (see the module comment for why one).
const CLIENTS: usize = 1;
/// Visits a client makes between two yardstick passes.
const PROBE_EVERY: usize = 16;
/// Forks, restores and session bookkeeping: the allocation yardstick
/// tracks them.
const YARDSTICK: Yardstick = Yardstick::Alloc;

/// One catalogue session: its spec, the exit codes it must return, and the
/// private bytes that must stay out of its observable output.
struct Variant {
    spec: SessionSpec,
    exits: Vec<i64>,
    secrets: Vec<(Vec<u8>, usize)>,
}

fn ldap_variant(v: usize) -> Variant {
    let mut rng = Rng::new(0x1dab_0000 + v as u64);
    let password: Vec<u8> = (0..16).map(|_| b'!' + rng.below(94) as u8).collect();
    let mut world = World::new();
    world.set_password("user", &password);
    // Exactly half the lookups hit, in a variant-specific order.
    let mut keys: Vec<(i64, i64)> = (0..K)
        .map(|i| {
            let idx = rng.below(ENTRIES);
            if i % 2 == 0 {
                (ldap::present_key(idx), 1)
            } else {
                (ldap::absent_key(idx), 0)
            }
        })
        .collect();
    rng.shuffle(&mut keys);
    let requests = keys
        .iter()
        .map(|(key, _)| Request::new(ldap::REQUEST_ENTRY, &[*key]))
        .collect();
    Variant {
        spec: SessionSpec::new(v, world, requests),
        exits: keys.iter().map(|(_, hit)| *hit).collect(),
        secrets: vec![(password, PASSWORD_WINDOW)],
    }
}

fn nginx_variant(v: usize) -> Variant {
    let mut rng = Rng::new(0x2917_0000 + v as u64);
    let world = nginx::file_world(FILES, RESPONSE, (v * 29 + 7) as u8);
    let secrets = world
        .secret_files
        .values()
        .map(|body| (body.clone(), FILE_WINDOW))
        .collect();
    let requests = (0..K)
        .map(|_| {
            Request::with_input(
                nginx::REQUEST_ENTRY,
                &[RESPONSE as i64],
                nginx::request_bytes(rng.below(FILES)),
            )
        })
        .collect();
    Variant {
        spec: SessionSpec::new(v, world, requests),
        exits: vec![1; K],
        secrets,
    }
}

/// The deployed services.
struct Services {
    server: Server,
    ldap: BinaryId,
    nginx: BinaryId,
}

fn deploy(registry: &Registry, name: &str) -> Result<BinaryId, String> {
    let (source, setup) = match name {
        "ldap" => (
            ldap::annotated_source(),
            SetupSpec::new(ldap::SETUP_ENTRY, &[ENTRIES as i64]),
        ),
        _ => (
            nginx::SOURCE.to_string(),
            SetupSpec::new(nginx::SETUP_ENTRY, &[]),
        ),
    };
    let opts = CompileOptions {
        config: Config::OurMpx,
        entry: setup.entry.clone(),
        ..Default::default()
    };
    registry
        .deploy_source(name, &source, &opts, Some(setup))
        .map_err(|e| format!("{name} must deploy: {e}"))?;
    registry
        .binary_id(name)
        .ok_or_else(|| format!("{name} has no handle after deploy"))
}

fn services() -> Result<Services, String> {
    let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
    let ldap = deploy(&registry, "ldap")?;
    let nginx = deploy(&registry, "nginx")?;
    Ok(Services {
        server: Server::new(registry, ServerConfig::default()),
        ldap,
        nginx,
    })
}

/// Expected (sent, log) digests per variant.
struct Digests {
    ldap: Vec<(u64, u64)>,
    nginx: Vec<(u64, u64)>,
}

impl Digests {
    fn load(expected: &Expected) -> Result<Digests, String> {
        let read = |service: &str| {
            (0..VARIANTS)
                .map(|v| {
                    let key = format!("serve.{service}.{v}");
                    Ok((expected.digest(&key, 0)?, expected.digest(&key, 1)?))
                })
                .collect::<Result<Vec<_>, String>>()
        };
        Ok(Digests {
            ldap: read("ldap")?,
            nginx: read("nginx")?,
        })
    }
}

struct State {
    svc: Services,
    ldap: Vec<Variant>,
    nginx: Vec<Variant>,
    digests: Digests,
    /// (ldap variant, nginx variant) per visit.
    visits: Vec<(usize, usize)>,
}

/// Observable output of a one-session report: (sent digest, log digest,
/// the bytes themselves for a leak scan).
fn observed(report: &ServiceReport) -> Option<(&[i64], &[u8], &[u8])> {
    let s = report.sessions.first()?;
    Some((&s.exit_codes, &s.sent, &s.log))
}

/// Does any of the variant's private bytes appear in clear?
fn leaked(variant: &Variant, sent: &[u8], log: &[u8]) -> bool {
    variant
        .secrets
        .iter()
        .any(|(secret, window)| leaks(sent, secret, *window) || leaks(log, secret, *window))
}

/// Judge one session's output; on a mismatch, also scan it for leaks.
fn judge(
    exits: &[i64],
    sent: &[u8],
    log: &[u8],
    variant: &Variant,
    want: (u64, u64),
    failures: &mut Vec<String>,
    what: &str,
) -> Verdict {
    if exits == variant.exits && (digest(sent), digest(log)) == want {
        return Verdict::Correct;
    }
    if leaked(variant, sent, log) {
        failures.push(format!("{what}: private bytes appear in clear"));
    }
    Verdict::Wrong
}

fn visit_verdict(
    state: &State,
    (lv, nv): (usize, usize),
    ldap: &Result<ServiceReport, confllvm_server::ServeError>,
    nginx: &Result<ServiceReport, confllvm_server::ServeError>,
    failures: &mut Vec<String>,
) -> Verdict {
    let (Ok(l), Ok(n)) = (ldap, nginx) else {
        return Verdict::Fault;
    };
    let (Some(l), Some(n)) = (observed(l), observed(n)) else {
        return Verdict::Fault;
    };
    let lw = judge(
        l.0,
        l.1,
        l.2,
        &state.ldap[lv],
        state.digests.ldap[lv],
        failures,
        "ldap session",
    );
    let nw = judge(
        n.0,
        n.1,
        n.2,
        &state.nginx[nv],
        state.digests.nginx[nv],
        failures,
        "nginx session",
    );
    if lw == Verdict::Correct && nw == Verdict::Correct {
        Verdict::Correct
    } else {
        Verdict::Wrong
    }
}

fn prepare(args: &Args, expected: &Expected) -> Result<State, String> {
    let digests = Digests::load(expected)?;
    let svc = services()?;
    let ldap: Vec<Variant> = (0..VARIANTS).map(ldap_variant).collect();
    let nginx: Vec<Variant> = (0..VARIANTS).map(nginx_variant).collect();
    let count = (args.seconds * VISITS_PER_S).max(MIN_VISITS);
    let mut rng = Rng::new(args.seed ^ 0x5e4e);
    let visits = (0..count)
        .map(|_| (rng.below(VARIANTS), rng.below(VARIANTS)))
        .collect();
    let state = State {
        svc,
        ldap,
        nginx,
        digests,
        visits,
    };
    // Untimed warm-up pass: every variant served once.
    for v in 0..VARIANTS {
        let l = state.svc.server.serve(
            state.svc.ldap,
            std::slice::from_ref(&state.ldap[v].spec),
            ExecMode::Pooled,
        );
        let n = state.svc.server.serve(
            state.svc.nginx,
            std::slice::from_ref(&state.nginx[v].spec),
            ExecMode::Pooled,
        );
        l.and(n).map_err(|e| format!("warm-up visit {v}: {e}"))?;
    }
    Ok(state)
}

/// What one client thread hands back.
struct ClientOut {
    /// (visit, latency, midpoint since the phase started).
    latencies: Vec<(usize, u64, u64)>,
    /// The client's yardstick passes.
    probes: Vec<(u64, f64)>,
    tally: Tally,
    failures: Vec<String>,
    log: Option<SpanLog>,
}

/// Run every visit on [`CLIENTS`] threads, client `c` taking visits `c`,
/// `c + CLIENTS`, ...; with `epoch`, each visit is traced.
fn drive(state: &State, epoch: Option<Instant>) -> (Phase, Vec<String>, Vec<SpanLog>) {
    let start = Instant::now();
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = ClientOut {
                        latencies: Vec::new(),
                        probes: Vec::new(),
                        tally: Tally::default(),
                        failures: Vec::new(),
                        log: epoch.map(|e| SpanLog::new(e, c as u32)),
                    };
                    for (n, i) in (c..state.visits.len()).step_by(CLIENTS).enumerate() {
                        if n % PROBE_EVERY == 0 {
                            out.probes.push(YARDSTICK.probe(start));
                        }
                        let (lv, nv) = state.visits[i];
                        let serve = |binary, spec: &SessionSpec| {
                            state.svc.server.serve(
                                binary,
                                std::slice::from_ref(spec),
                                ExecMode::Pooled,
                            )
                        };
                        let t0 = Instant::now();
                        let (l, n) = match out.log.as_mut() {
                            None => (
                                serve(state.svc.ldap, &state.ldap[lv].spec),
                                serve(state.svc.nginx, &state.nginx[nv].spec),
                            ),
                            Some(log) => {
                                let op = i as u64;
                                let root = log.open("op.visit", op, None);
                                let l = log.time("server.serve", op, root, || {
                                    serve(state.svc.ldap, &state.ldap[lv].spec)
                                });
                                let n = log.time("server.serve", op, root, || {
                                    serve(state.svc.nginx, &state.nginx[nv].spec)
                                });
                                log.close(root);
                                (l, n)
                            }
                        };
                        let (latency, mid) = since(start, t0);
                        out.latencies.push((i, latency, mid));
                        out.tally
                            .record(visit_verdict(state, (lv, nv), &l, &n, &mut out.failures));
                    }
                    out.probes.push(YARDSTICK.probe(start));
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase::new(YARDSTICK);
    phase.clients = CLIENTS;
    phase.latencies_ns = vec![0; state.visits.len()];
    phase.mid_ns = vec![0; state.visits.len()];
    let mut failures = Vec::new();
    let mut logs = Vec::new();
    for out in outs {
        for (i, latency, mid) in out.latencies {
            phase.latencies_ns[i] = latency;
            phase.mid_ns[i] = mid;
        }
        phase.probes.extend(out.probes);
        phase.tally.merge(&out.tally);
        failures.extend(out.failures);
        logs.extend(out.log);
    }
    phase.probes.sort_by_key(|&(t, _)| t);
    phase.broken_ops = phase.tally.broken();
    (phase, failures, logs)
}

/// Counts the replay adds up.
#[derive(Default)]
struct ReplayCounts {
    dirty_pages: u64,
    trusted_calls: u64,
    sim_insts: u64,
}

/// Replay every visit's two sessions through the public calls `serve`
/// makes inside itself: checkout, template, fork (with ldap's `populate`
/// and snapshot), then per request a restore and a run.
fn replay(state: &State, epoch: Instant) -> Result<(Vec<SpanLog>, ReplayCounts), String> {
    let registry = Arc::clone(&state.svc.server.registry);
    let store = SnapshotStore::new(Arc::clone(&registry));
    let pool_opts = state.svc.server.config.pool;
    let results: Vec<Result<(SpanLog, ReplayCounts), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (registry, store) = (&registry, &store);
                scope.spawn(move || {
                    let mut log = SpanLog::new(epoch, c as u32);
                    let mut counts = ReplayCounts::default();
                    for i in (c..state.visits.len()).step_by(CLIENTS) {
                        let op = i as u64;
                        let (lv, nv) = state.visits[i];
                        let root = log.open("op.replay", op, None);
                        for (binary, variant, want) in [
                            (state.svc.ldap, &state.ldap[lv], state.digests.ldap[lv]),
                            (state.svc.nginx, &state.nginx[nv], state.digests.nginx[nv]),
                        ] {
                            let (version, service) = log
                                .time("server.checkout", op, root, || {
                                    registry.checkout_active(binary)
                                })
                                .ok_or("no active version")?;
                            let mut vm_opts = state.svc.server.config.vm.clone();
                            vm_opts.allocator = service.config.allocator();
                            let template = log
                                .time("server.template", op, root, || {
                                    store.template(version, &service, vm_opts)
                                })
                                .map_err(|e| e.to_string())?;
                            let mut inst = log
                                .time("server.fork", op, root, || {
                                    template.instance(&variant.spec.world)
                                })
                                .map_err(|e| e.to_string())?;
                            let (mut exits, mut sent, mut out_log) =
                                (Vec::new(), Vec::new(), Vec::new());
                            for req in &variant.spec.requests {
                                let (dirty, _) =
                                    log.time("server.restore", op, root, || inst.reset(&pool_opts));
                                counts.dirty_pages += dirty;
                                if let Some(input) = &req.input {
                                    inst.vm.world.push_request(input);
                                }
                                let before = inst.vm.stats.clone();
                                let r = log.time("vm.exec", op, root, || {
                                    inst.vm.run_function(&req.entry, &req.args)
                                });
                                counts.trusted_calls +=
                                    inst.vm.stats.extern_calls - before.extern_calls;
                                counts.sim_insts +=
                                    inst.vm.stats.instructions - before.instructions;
                                exits.push(r.exit_code().ok_or("replayed request faulted")?);
                                sent.extend_from_slice(&inst.vm.world.sent[inst.sent_baseline..]);
                                out_log.extend_from_slice(&inst.vm.world.log[inst.log_baseline..]);
                            }
                            registry.release(version);
                            let mut failures = Vec::new();
                            if judge(
                                &exits,
                                &sent,
                                &out_log,
                                variant,
                                want,
                                &mut failures,
                                "replay",
                            ) != Verdict::Correct
                            {
                                return Err(format!(
                                    "replayed visit {i} differs from the served one {failures:?}"
                                ));
                            }
                        }
                        log.close(root);
                    }
                    Ok((log, counts))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut logs = Vec::new();
    let mut counts = ReplayCounts::default();
    for r in results {
        let (log, c) = r?;
        logs.push(log);
        counts.dirty_pages += c.dirty_pages;
        counts.trusted_calls += c.trusted_calls;
        counts.sim_insts += c.sim_insts;
    }
    Ok((logs, counts))
}

fn traced(state: &State, failures: &mut Vec<String>) -> Result<(Phase, Layers), String> {
    let epoch = Instant::now();
    let (phase, f, mut logs) = drive(state, Some(epoch));
    failures.extend(f);
    let (replay_logs, counts) = replay(state, epoch)?;
    logs.extend(replay_logs);
    let t = totals(&logs);
    let visits = phase.ops() as f64;
    let sessions = 2.0 * visits;
    let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
    let per_call_us = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.total_ns as f64 / x.calls.max(1) as f64 / 1e3)
    };
    let mut layers = Layers::new();
    layers.insert("server.fork_us", per_call_us("server.fork"));
    layers.insert("server.restore_us", per_call_us("server.restore"));
    layers.insert("server.dirty_pages", counts.dirty_pages as f64);
    layers.insert("vm.exec_us", per_call_us("vm.exec"));
    layers.insert("vm.trusted_calls", counts.trusted_calls as f64);
    layers.insert("vm.run_ms", ns("vm.exec") / visits / 1e6);
    layers.insert("vm.sim_insts", counts.sim_insts as f64);
    layers.insert(
        "vm.ns_per_sim_inst",
        ns("vm.exec") / counts.sim_insts.max(1) as f64,
    );
    let replayed = ns("server.fork") + ns("server.restore") + ns("vm.exec");
    layers.insert(
        "server.runtime_us",
        (ns("server.serve") - replayed) / sessions / 1e3,
    );
    crate::trace::write_trace("serve", &logs, &t);
    Ok((finish(phase), layers))
}

/// Run-level checks: the warm-up's outputs against `expected.txt` with a
/// leak scan of every variant, and tampered copies of both deployed
/// binaries.
fn check(state: &State, failures: &mut Vec<String>) {
    for v in 0..VARIANTS {
        for (binary, variant, want, what) in [
            (
                state.svc.ldap,
                &state.ldap[v],
                state.digests.ldap[v],
                "ldap",
            ),
            (
                state.svc.nginx,
                &state.nginx[v],
                state.digests.nginx[v],
                "nginx",
            ),
        ] {
            match state.svc.server.serve(
                binary,
                std::slice::from_ref(&variant.spec),
                ExecMode::Pooled,
            ) {
                Ok(r) => {
                    let (exits, sent, log) = observed(&r).expect("one session served");
                    if leaked(variant, sent, log) {
                        failures.push(format!("{what} variant {v}: private bytes appear in clear"));
                    }
                    if exits != variant.exits || (digest(sent), digest(log)) != want {
                        failures.push(format!(
                            "{what} variant {v}: output differs from expected.txt"
                        ));
                    }
                }
                Err(e) => failures.push(format!("{what} variant {v}: {e}")),
            }
        }
    }
    let registry = &state.svc.server.registry;
    for (binary, name) in [(state.svc.ldap, "ldap"), (state.svc.nginx, "nginx")] {
        if let Some((version, service)) = registry.checkout_active(binary) {
            let (accepted, had_bnd1) = tampered_copies_rejected(name, &service.program);
            failures.extend(accepted);
            if !had_bnd1 {
                failures.push(format!("{name}: no Bnd1 checks to tamper with"));
            }
            registry.release(version);
        }
    }
}

/// Simulated cycles of variant 0 of each session kind, OurMPX over Base.
fn sim_overhead_pct() -> Result<f64, String> {
    let ldap = ldap_variant(0);
    let nginx = nginx_variant(0);
    let ldap_src = ldap::annotated_source();
    let mut ratios = Vec::new();
    for (src, setup, v) in [
        (
            ldap_src.as_str(),
            (ldap::SETUP_ENTRY, &[ENTRIES as i64][..]),
            &ldap,
        ),
        (nginx::SOURCE, (nginx::SETUP_ENTRY, &[][..]), &nginx),
    ] {
        let base = session_cycles(src, Config::Base, setup, &v.spec.world, &v.spec.requests)?;
        let mpx = session_cycles(src, Config::OurMpx, setup, &v.spec.world, &v.spec.requests)?;
        ratios.push(mpx as f64 / base as f64);
    }
    Ok(geomean_overhead_pct(&ratios))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    match pin_to_one_cpu() {
        Some(cpu) => println!("serve pinned to cpu {cpu} of {nproc}"),
        None => {
            println!("serve not pinned ({nproc} cpus): the host refused or does not support it")
        }
    }
    let expected = Expected::load()?;
    let (state, setup) = set_up(YARDSTICK, || prepare(args, &expected))?;
    let mut check_failures = Vec::new();
    check(&state, &mut check_failures);
    let (untraced, failures, _) = drive(&state, None);
    let untraced = finish(untraced);
    check_failures.extend(failures);
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

/// `expected.txt` lines for the session catalogue, recorded from the
/// program once (never during a benchmark run).
pub fn record(out: &mut String) -> Result<(), String> {
    let svc = services()?;
    for (binary, name, make) in [
        (svc.ldap, "ldap", ldap_variant as fn(usize) -> Variant),
        (svc.nginx, "nginx", nginx_variant),
    ] {
        for v in 0..VARIANTS {
            let variant = make(v);
            let r = svc
                .server
                .serve(
                    binary,
                    std::slice::from_ref(&variant.spec),
                    ExecMode::Pooled,
                )
                .map_err(|e| e.to_string())?;
            let (exits, sent, log) = observed(&r).expect("one session served");
            if exits != variant.exits {
                return Err(format!(
                    "{name} variant {v} exits {exits:?}, want {:?}",
                    variant.exits
                ));
            }
            out.push_str(&format!(
                "serve.{name}.{v} {:016x} {:016x}\n",
                digest(sent),
                digest(log)
            ));
        }
    }
    Ok(())
}
