//! End-to-end properties of the observability layer:
//!
//! * **Redaction** — private `World` state (passwords, secret files) planted
//!   with a recognisable sentinel never reaches the emitted trace or metrics
//!   JSON.  The typed attribute layer makes this true by construction; debug
//!   builds additionally panic at the record site if a registered sentinel
//!   appears in any recorded string, so merely *finishing* the traced run is
//!   itself an assertion.
//! * **Zero perturbation** — serving the same deterministic streams with the
//!   recorder on and off produces byte-identical attacker-observable output,
//!   identical exit codes and identical simulated cycle counts.  Tracing
//!   only ever reads simulated state.
//! * **Coverage** — the trace of a compile + verify + serve run carries
//!   spans from all four instrumented layers.

use std::sync::Arc;

use confllvm_repro::core::{CompileOptions, Config};
use confllvm_repro::obs;
use confllvm_repro::server::{
    BinaryId, ExecMode, Registry, RequestGen, Server, ServerConfig, SessionSpec, SetupSpec,
    StreamKind, VerifyPolicy,
};
use confllvm_repro::workloads::{ldap, nginx};

/// Planted in every session's private state; ASCII so a plain substring
/// search over the exported JSON finds any leak.
const SENTINEL: &[u8] = b"TOP-SECRET-SENTINEL-0xB1D";

fn nginx_server() -> (Server, BinaryId) {
    let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
    let opts = CompileOptions {
        config: Config::OurSeg,
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
        .expect("nginx deploys");
    let binary = registry.binary_id("nginx").unwrap();
    (Server::new(registry, ServerConfig::new()), binary)
}

fn ldap_server() -> (Server, BinaryId) {
    let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
    let opts = CompileOptions {
        config: Config::OurMpx,
        entry: ldap::SETUP_ENTRY.to_string(),
        ..Default::default()
    };
    registry
        .deploy_source(
            "ldap",
            &ldap::annotated_source(),
            &opts,
            Some(SetupSpec::new(ldap::SETUP_ENTRY, &[32])),
        )
        .expect("ldap deploys");
    let binary = registry.binary_id("ldap").unwrap();
    (Server::new(registry, ServerConfig::new()), binary)
}

fn nginx_sessions() -> Vec<SessionSpec> {
    (0..2u64)
        .map(|id| {
            let mut world = nginx::file_world(3, 256, id as u8);
            // Private state the request stream never asks for: if any of it
            // shows up anywhere, something leaked.
            world.add_secret_file("vault", SENTINEL);
            world.set_password("admin", SENTINEL);
            let requests = RequestGen::new(id).stream(
                StreamKind::NginxFiles {
                    files: 3,
                    response_size: 256,
                },
                4,
            );
            SessionSpec::new(id, world, requests)
        })
        .collect()
}

fn ldap_sessions() -> Vec<SessionSpec> {
    (0..2u64)
        .map(|id| {
            let mut world = confllvm_repro::vm::World::new();
            world.set_password("user", SENTINEL);
            let requests = RequestGen::new(100 + id).stream(
                StreamKind::LdapMix {
                    entries: 32,
                    hit_pct: 50,
                },
                4,
            );
            SessionSpec::new(id, world, requests)
        })
        .collect()
}

/// Deploy both workloads and serve their streams (pooled and cold, so both
/// request paths are exercised).  Returns everything the simulation lets an
/// attacker or an evaluator observe: the observable byte traces, the exit
/// codes, and the total simulated cycles.
fn compile_and_serve() -> (Vec<u8>, Vec<i64>, u64) {
    let (nginx_srv, nginx_bin) = nginx_server();
    let (ldap_srv, ldap_bin) = ldap_server();
    let n = nginx_srv
        .serve(nginx_bin, &nginx_sessions(), ExecMode::Pooled)
        .expect("nginx serves");
    let l = ldap_srv
        .serve(ldap_bin, &ldap_sessions(), ExecMode::Cold)
        .expect("ldap serves");
    let mut observable = n.observable();
    observable.extend_from_slice(&l.observable());
    let exit_codes: Vec<i64> = n
        .sessions
        .iter()
        .chain(&l.sessions)
        .flat_map(|s| s.exit_codes.iter().copied())
        .collect();
    (
        observable,
        exit_codes,
        n.metrics.total_cycles() + l.metrics.total_cycles(),
    )
}

#[test]
fn traced_runs_leak_nothing_and_perturb_nothing() {
    let rec = obs::recorder();
    rec.clear();
    rec.add_private_sentinel(SENTINEL);

    // Untraced baseline, then the identical run with the recorder on.  In
    // debug builds every recorded event is scanned against the registered
    // sentinel, so the traced run completing at all is already a redaction
    // assertion.
    let (obs_off, codes_off, cycles_off) = compile_and_serve();
    rec.set_enabled(true);
    let (obs_on, codes_on, cycles_on) = compile_and_serve();
    rec.set_enabled(false);

    assert_eq!(
        obs_off, obs_on,
        "tracing must not change the attacker-observable byte trace"
    );
    assert_eq!(codes_off, codes_on, "tracing must not change results");
    assert_eq!(
        cycles_off, cycles_on,
        "tracing must not change simulated cycle counts"
    );

    let snap = rec.snapshot();
    let trace = obs::chrome_trace_json(&snap);
    let metrics = obs::metrics_json(&snap);
    rec.clear_private_sentinels();
    rec.clear();

    // The sentinel is ASCII: a substring search over the full exports is a
    // complete leak check.
    let needle = std::str::from_utf8(SENTINEL).unwrap();
    assert!(
        !trace.contains(needle),
        "private sentinel leaked into the Chrome trace"
    );
    assert!(
        !metrics.contains(needle),
        "private sentinel leaked into the metrics JSON"
    );

    // The exports are well-formed and the trace covers every instrumented
    // layer: compile (compiler), deploy-time ConfVerify (verifier),
    // execution and snapshot/restore (vm), and the request path (server).
    let check = obs::validate_chrome_trace(&trace).expect("valid Chrome trace");
    let missing = check.missing_categories(&obs::LAYERS);
    assert!(missing.is_empty(), "layers missing from trace: {missing:?}");
    assert!(check.events > 0);
    obs::parse_json(&metrics).expect("valid metrics JSON");
}
