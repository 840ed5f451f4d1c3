//! # confllvm-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! paper's evaluation (Section 7) on top of the simulator.  The `repro`
//! binary prints the tables and writes each section's `BENCH_<name>.json`,
//! which CI diffs against the golden copies in `crates/bench/golden/`.
//! [`bench_json`] owns that file format: every section builds its file with
//! one [`BenchJson`] builder, and `repro --diff-bench` reads and compares
//! it with [`diff_bench_json`].
//!
//! Absolute numbers are simulated cycles, not seconds; what is compared with
//! the paper is the *shape*: which configuration wins, by roughly what
//! factor, and how the gap moves with the workload parameter
//! (`repro --usage` lists the sections).

use confllvm_core::codegen::{PIPELINE_MPX_FULL, PIPELINE_MPX_PR1};
use confllvm_core::vm::World;
use confllvm_core::{CompileOptions, Config};
use confllvm_server::{
    BinaryId, ExecMode, Registry, RequestGen, Server, ServerConfig, SessionSpec, SetupSpec,
    StreamKind, VerifyPolicy,
};
use confllvm_workloads::{ldap, merkle, nginx, overhead_pct, privado, spec, vuln};

pub mod bench_json;
pub mod interp_speed;
pub mod profile;
pub mod server_scale;
pub mod verify_scale;

pub use bench_json::{diff_bench_json, BenchJson};
pub use interp_speed::{
    interp_speed_json, interp_speed_report, render_interp_speed, InterpSpeedReport, InterpSpeedRow,
};
pub use profile::{
    profile_json, profile_report, render_profile, ProfileReport, ProfileRow, ServerProfileRow,
};
pub use server_scale::{
    render_server_scale, server_scale_json, server_scale_report, ServerScalePoint,
    ServerScaleReport,
};
pub use verify_scale::{
    render_verify_scale, verify_scale_json, verify_scale_report, VerifyScaleReport,
};

/// One row of a figure: a labelled series of (configuration, value) pairs.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub values: Vec<(Config, f64)>,
}

/// A reproduced figure/table.
#[derive(Debug, Clone)]
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    pub metric: &'static str,
    pub rows: Vec<Row>,
}

impl Figure {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== {} — {} ({})\n",
            self.id, self.title, self.metric
        ));
        if let Some(first) = self.rows.first() {
            out.push_str(&format!("{:<18}", ""));
            for (c, _) in &first.values {
                out.push_str(&format!("{:>12}", c.name()));
            }
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&format!("{:<18}", row.label));
            for (_, v) in &row.values {
                out.push_str(&format!("{:>12.2}", v));
            }
            out.push('\n');
        }
        out
    }

    /// The figure's BENCH document.  Every value is a ratio of
    /// simulated-cycle totals, so every key diffs exactly — figures carry no
    /// timing-class keys at all.
    pub fn figure_json(&self, section: &str, quick: bool) -> BenchJson {
        let mut json = BenchJson::new(section, quick);
        json.str("id", self.id)
            .str("metric", self.metric)
            .plain("rows", self.rows.len());
        for row in &self.rows {
            for (config, value) in &row.values {
                json.ratio(format_args!("{}.{}", row.label, config.name()), *value);
            }
        }
        json
    }
}

/// Figure 5: SPEC CPU overhead (execution time as % of Base).
pub fn fig5_spec(scale: i64) -> Figure {
    let mut rows = Vec::new();
    let mut averages: Vec<(Config, Vec<f64>)> =
        Config::FIG5.iter().map(|c| (*c, Vec::new())).collect();
    for kernel in spec::KERNELS {
        let mut k = *kernel;
        k.size = (k.size / scale.max(1)).max(2);
        let base = spec::run(&k, Config::Base).cycles();
        let mut values = Vec::new();
        for (i, config) in Config::FIG5.iter().enumerate() {
            let cycles = if *config == Config::Base {
                base
            } else {
                spec::run(&k, *config).cycles()
            };
            let pct = 100.0 + overhead_pct(base, cycles);
            values.push((*config, pct));
            averages[i].1.push(pct);
        }
        rows.push(Row {
            label: kernel.name.to_string(),
            values,
        });
    }
    rows.push(Row {
        label: "average".to_string(),
        values: averages
            .iter()
            .map(|(c, v)| (*c, v.iter().sum::<f64>() / v.len().max(1) as f64))
            .collect(),
    });
    Figure {
        id: "Figure 5",
        title: "SPEC CPU stand-ins, execution time relative to Base",
        metric: "% of Base cycles",
        rows,
    }
}

/// Figure 6: NGINX max sustained throughput as % of Base, by response size.
pub fn fig6_nginx(requests: usize, sizes: &[usize]) -> Figure {
    let mut rows = Vec::new();
    for &size in sizes {
        let base = nginx::run(Config::Base, requests, size);
        let base_tp = nginx::throughput(&base, requests);
        let mut values = vec![(Config::Base, 100.0)];
        for config in Config::FIG6.iter().skip(1) {
            let r = nginx::run(*config, requests, size);
            let tp = nginx::throughput(&r, requests);
            values.push((*config, tp / base_tp * 100.0));
        }
        rows.push(Row {
            label: format!("{} KB", size / 1024),
            values,
        });
    }
    Figure {
        id: "Figure 6",
        title: "NGINX stand-in, sustained throughput relative to Base",
        metric: "% of Base throughput",
        rows,
    }
}

/// Section 7.3: OpenLDAP throughput degradation for miss and hit workloads.
pub fn ldap_table(entries: usize, queries: usize) -> Figure {
    let mut rows = Vec::new();
    for (label, hit) in [("absent entries", false), ("present entries", true)] {
        let base = ldap::run(Config::Base, entries, queries, hit);
        let ours = ldap::run(Config::OurMpx, entries, queries, hit);
        let base_tp = ldap::throughput(&base, queries);
        let our_tp = ldap::throughput(&ours, queries);
        rows.push(Row {
            label: label.to_string(),
            values: vec![
                (Config::Base, 100.0),
                (Config::OurMpx, our_tp / base_tp * 100.0),
            ],
        });
    }
    Figure {
        id: "Section 7.3",
        title: "OpenLDAP stand-in, query throughput relative to Base",
        metric: "% of Base throughput",
        rows,
    }
}

/// Figure 7: Privado classification latency as % of Base.
pub fn fig7_privado(images: usize) -> Figure {
    let base = privado::run(Config::Base, images);
    let base_lat = privado::latency_per_image(&base, images);
    let mut values = Vec::new();
    for config in Config::FIG7 {
        let lat = if config == Config::Base {
            base_lat
        } else {
            let r = privado::run(config, images);
            privado::latency_per_image(&r, images)
        };
        values.push((config, lat / base_lat * 100.0));
    }
    Figure {
        id: "Figure 7",
        title: "Privado stand-in, classification latency relative to Base",
        metric: "% of Base latency",
        rows: vec![Row {
            label: "11-layer NN".to_string(),
            values,
        }],
    }
}

/// Figure 8: Merkle FS read time as % of Base, per thread count.
pub fn fig8_merkle(blocks: usize, block_size: usize, max_threads: usize) -> Figure {
    let mut rows = Vec::new();
    for threads in 1..=max_threads {
        let (_b, base_wall) = merkle::run(Config::Base, threads, blocks, block_size);
        let mut values = vec![(Config::Base, 100.0)];
        for config in [Config::OurSeg, Config::OurMpx] {
            let (_r, wall) = merkle::run(config, threads, blocks, block_size);
            values.push((config, wall as f64 / base_wall as f64 * 100.0));
        }
        rows.push(Row {
            label: format!("{threads} thread(s)"),
            values,
        });
    }
    Figure {
        id: "Figure 8",
        title: "Merkle-tree FS stand-in, total read time relative to Base",
        metric: "% of Base wall cycles",
        rows,
    }
}

/// One row of the pass-manager ablation: the same workload compiled under
/// OurMPX with the PR-1 pipeline (the three Section 5.1 optimisations) and
/// with the full pipeline (plus loop hoisting and cross-block elimination).
#[derive(Debug, Clone)]
pub struct AblationPassesRow {
    pub workload: &'static str,
    pub checks_pr1: u64,
    pub checks_full: u64,
    pub cycles_pr1: u64,
    pub cycles_full: u64,
}

impl AblationPassesRow {
    /// Did the new passes strictly reduce both executed checks and cycles?
    pub fn improved(&self) -> bool {
        self.checks_full < self.checks_pr1 && self.cycles_full < self.cycles_pr1
    }
}

/// Run every SPEC stand-in under OurMPX with the PR-1 and the full machine
/// pipeline, measuring executed bound checks and simulated cycles.
pub fn ablation_passes_rows(scale: i64) -> Vec<AblationPassesRow> {
    let mut rows = Vec::new();
    for kernel in spec::KERNELS {
        let mut k = *kernel;
        k.size = (k.size / scale.max(1)).max(2);
        let pr1 = spec::run_with_passes(&k, Config::OurMpx, PIPELINE_MPX_PR1);
        let full = spec::run_with_passes(&k, Config::OurMpx, PIPELINE_MPX_FULL);
        assert_eq!(
            pr1.exit_code(),
            full.exit_code(),
            "{}: pipelines must not change results",
            kernel.name
        );
        rows.push(AblationPassesRow {
            workload: kernel.name,
            checks_pr1: pr1.result.checks_executed(),
            checks_full: full.result.checks_executed(),
            cycles_pr1: pr1.result.cycles(),
            cycles_full: full.result.cycles(),
        });
    }
    rows
}

/// The ablation's BENCH document.  Every key — executed checks and
/// simulated cycles under each pipeline — is deterministic, so the whole
/// file is exact-diffed against its golden copy.
pub fn ablation_passes_json(rows: &[AblationPassesRow], quick: bool) -> BenchJson {
    let mut json = BenchJson::new("ablation_passes", quick);
    json.plain("rows", rows.len())
        .plain("improved", rows.iter().filter(|r| r.improved()).count());
    for r in rows {
        let k = r.workload;
        json.plain(format_args!("{k}.checks_pr1"), r.checks_pr1)
            .plain(format_args!("{k}.checks_full"), r.checks_full)
            .plain(format_args!("{k}.cycles_pr1"), r.cycles_pr1)
            .plain(format_args!("{k}.cycles_full"), r.cycles_full);
    }
    json
}

/// Render the ablation table for rows the caller already computed (so one
/// run can feed both the table and the JSON emission).
pub fn ablation_passes_table_for(rows: &[AblationPassesRow]) -> String {
    let mut out = String::new();
    out.push_str("== Ablation — machine pass pipelines on OurMPX (pr1 = Section 5.1 trio, full = +hoist +cross-block)\n");
    out.push_str(&format!(
        "{:<12}{:>14}{:>14}{:>9}{:>14}{:>14}{:>9}\n",
        "", "checks pr1", "checks full", "Δ%", "cycles pr1", "cycles full", "Δ%"
    ));
    let pct = |a: u64, b: u64| {
        if a == 0 {
            0.0
        } else {
            (a as f64 - b as f64) / a as f64 * 100.0
        }
    };
    let mut improved = 0;
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:>14}{:>14}{:>8.1}%{:>14}{:>14}{:>8.2}%\n",
            r.workload,
            r.checks_pr1,
            r.checks_full,
            pct(r.checks_pr1, r.checks_full),
            r.cycles_pr1,
            r.cycles_full,
            pct(r.cycles_pr1, r.cycles_full),
        ));
        if r.improved() {
            improved += 1;
        }
    }
    out.push_str(&format!(
        "{improved} of {} workloads strictly improved by the new passes\n",
        rows.len()
    ));
    out
}

/// Workload parameters for one `server_throughput` run.
#[derive(Debug, Clone, Copy)]
pub struct ServerLoad {
    pub sessions: usize,
    pub requests_per_session: usize,
    /// NGINX stream: number of private documents and response size.
    pub files: usize,
    pub response_size: usize,
    /// LDAP stream: directory size and hit percentage.
    pub entries: usize,
    pub hit_pct: u8,
}

impl ServerLoad {
    pub fn quick() -> Self {
        ServerLoad {
            sessions: 2,
            requests_per_session: 4,
            files: 3,
            response_size: 512,
            entries: 64,
            hit_pct: 50,
        }
    }

    pub fn full() -> Self {
        ServerLoad {
            sessions: 4,
            requests_per_session: 12,
            files: 8,
            response_size: 2048,
            entries: 256,
            hit_pct: 50,
        }
    }
}

/// The configurations the serving section measures.  `OurMpxSep` is absent
/// on purpose: with a single stack, private locals spill into the shared
/// (public) stack, so its binaries fail ConfVerify's store discipline — the
/// verify-then-load gate would refuse to serve them, which is exactly the
/// point of the gate (the paper's deployed scheme splits the stacks).
pub fn server_configs(quick: bool) -> &'static [Config] {
    if quick {
        &[Config::Base, Config::OurMpx, Config::OurSeg]
    } else {
        &[
            Config::Base,
            Config::Our1Mem,
            Config::OurBare,
            Config::OurCFI,
            Config::OurMpx,
            Config::OurSeg,
        ]
    }
}

/// Build a serving runtime for one workload under one configuration; the
/// registry verifies every verifiable binary at submission (the
/// verify-then-load gate), and admits only the uninstrumented baselines
/// unverified.  Returns the runtime and the deployed binary's handle.
pub fn server_for(workload: &str, config: Config, load: &ServerLoad) -> (Server, BinaryId) {
    let registry = std::sync::Arc::new(Registry::new(VerifyPolicy::AllowUnverifiable));
    match workload {
        "nginx" => {
            let opts = CompileOptions {
                config,
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
                .unwrap_or_else(|e| panic!("nginx must register under {config}: {e}"));
        }
        "ldap" => {
            let opts = CompileOptions {
                config,
                entry: ldap::SETUP_ENTRY.to_string(),
                ..Default::default()
            };
            registry
                .deploy_source(
                    "ldap",
                    &ldap::annotated_source(),
                    &opts,
                    Some(SetupSpec::new(ldap::SETUP_ENTRY, &[load.entries as i64])),
                )
                .unwrap_or_else(|e| panic!("ldap must register under {config}: {e}"));
        }
        other => panic!("unknown serving workload `{other}`"),
    }
    let binary = registry
        .binary_id(workload)
        .expect("just-deployed workload has a handle");
    (Server::new(registry, ServerConfig::default()), binary)
}

/// The request streams for one workload: `sessions` clients, each with its
/// own private state (distinct secret files / passwords) and a deterministic
/// per-session request mix.
pub fn server_sessions(workload: &str, load: &ServerLoad) -> Vec<SessionSpec> {
    (0..load.sessions)
        .map(|id| {
            let (world, kind) = match workload {
                "nginx" => (
                    nginx::file_world(load.files, load.response_size, id as u8),
                    StreamKind::NginxFiles {
                        files: load.files,
                        response_size: load.response_size,
                    },
                ),
                "ldap" => {
                    let mut w = World::new();
                    w.set_password("user", format!("session-{id}-secret").as_bytes());
                    (
                        w,
                        StreamKind::LdapMix {
                            entries: load.entries,
                            hit_pct: load.hit_pct,
                        },
                    )
                }
                other => panic!("unknown serving workload `{other}`"),
            };
            let requests =
                RequestGen::new(0xC0FF_EE00 + id as u64).stream(kind, load.requests_per_session);
            SessionSpec::new(id, world, requests)
        })
        .collect()
}

/// One row of the serving benchmark: one workload under one configuration,
/// cold vs pooled.
#[derive(Debug, Clone)]
pub struct ServerThroughputRow {
    pub workload: &'static str,
    pub config: Config,
    /// Did the binary pass ConfVerify at registration?  (`false` only for
    /// the unverifiable baselines the relaxed policy admits.)
    pub verified: bool,
    pub requests: u64,
    pub cold_cycles_per_req: u64,
    pub pooled_cycles_per_req: u64,
    pub pooled_rps: f64,
    pub pooled_p99: u64,
    pub checks_per_req: u64,
    pub tcross_pct: f64,
    pub dirty_pages_per_req: f64,
    pub cold_host_micros: u128,
    pub pooled_host_micros: u128,
}

impl ServerThroughputRow {
    /// Cold-to-pooled speedup in per-request simulated cycles.
    pub fn speedup(&self) -> f64 {
        if self.pooled_cycles_per_req == 0 {
            return 0.0;
        }
        self.cold_cycles_per_req as f64 / self.pooled_cycles_per_req as f64
    }
}

/// Run the serving benchmark: both request-shaped workloads, every selected
/// configuration, cold and pooled, same deterministic streams.
pub fn server_throughput_rows(quick: bool) -> Vec<ServerThroughputRow> {
    let load = if quick {
        ServerLoad::quick()
    } else {
        ServerLoad::full()
    };
    let mut rows = Vec::new();
    for workload in ["nginx", "ldap"] {
        for &config in server_configs(quick) {
            let (server, binary) = server_for(workload, config, &load);
            let verified = server
                .registry
                .checkout_active(binary)
                .map(|(version, service)| {
                    server.registry.release(version);
                    service.verified()
                })
                .unwrap_or(false);
            let sessions = server_sessions(workload, &load);
            let cold = server
                .serve(binary, &sessions, ExecMode::Cold)
                .unwrap_or_else(|e| panic!("{workload}/{config} cold: {e}"));
            let pooled = server
                .serve(binary, &sessions, ExecMode::Pooled)
                .unwrap_or_else(|e| panic!("{workload}/{config} pooled: {e}"));
            // Same streams, same binary: the serving mode must not change
            // application results or the observable trace.
            for (c, p) in cold.sessions.iter().zip(&pooled.sessions) {
                assert_eq!(c.exit_codes, p.exit_codes, "{workload}/{config}");
                assert_eq!(c.sent, p.sent, "{workload}/{config}");
                assert_eq!(c.log, p.log, "{workload}/{config}");
            }
            rows.push(ServerThroughputRow {
                workload,
                config,
                verified,
                requests: pooled.metrics.requests,
                cold_cycles_per_req: cold.metrics.mean_cycles(),
                pooled_cycles_per_req: pooled.metrics.mean_cycles(),
                pooled_rps: pooled.metrics.requests_per_gcycle(),
                pooled_p99: pooled.metrics.percentile(99),
                checks_per_req: pooled.metrics.checks_per_request(),
                tcross_pct: pooled.metrics.tcross_pct(),
                dirty_pages_per_req: pooled.metrics.dirty_pages_per_request(),
                cold_host_micros: cold.host_micros,
                pooled_host_micros: pooled.host_micros,
            });
        }
    }
    rows
}

/// Render the table for rows the caller already computed (so one run can
/// feed both the table and the JSON emission).
pub fn server_throughput_table_for(rows: &[ServerThroughputRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "== Serving layer — verify-then-load + VM pooling (cold = load+setup per request, pooled = snapshot/reset)\n",
    );
    out.push_str(&format!(
        "{:<8}{:<12}{:>9}{:>14}{:>14}{:>9}{:>12}{:>12}{:>11}{:>10}{:>10}\n",
        "",
        "",
        "verified",
        "cold cyc/req",
        "pool cyc/req",
        "speedup",
        "req/Gcyc",
        "p99 cyc",
        "checks/req",
        "T-cross%",
        "pages/req",
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8}{:<12}{:>9}{:>14}{:>14}{:>8.1}x{:>12.1}{:>12}{:>11}{:>9.1}%{:>10.1}\n",
            r.workload,
            r.config.name(),
            if r.verified { "yes" } else { "n/a" },
            r.cold_cycles_per_req,
            r.pooled_cycles_per_req,
            r.speedup(),
            r.pooled_rps,
            r.pooled_p99,
            r.checks_per_req,
            r.tcross_pct,
            r.dirty_pages_per_req,
        ));
    }
    let wins = rows
        .iter()
        .filter(|r| r.pooled_cycles_per_req < r.cold_cycles_per_req)
        .count();
    out.push_str(&format!(
        "pooled execution strictly cheaper per request on {wins} of {} workload×config combinations\n",
        rows.len()
    ));
    out
}

/// The serving section's BENCH document: `*_micros` keys are
/// machine-dependent host timings, everything else — simulated cycles,
/// request counts, check counts — is deterministic and exact-diffed.
pub fn server_throughput_json(rows: &[ServerThroughputRow], quick: bool) -> BenchJson {
    let mut json = BenchJson::new("server_throughput", quick);
    json.plain("rows", rows.len());
    for r in rows {
        let k = format!("{}.{}", r.workload, r.config.name());
        json.plain(format_args!("{k}.verified"), r.verified)
            .plain(format_args!("{k}.requests"), r.requests)
            .plain(
                format_args!("{k}.cold_cycles_per_req"),
                r.cold_cycles_per_req,
            )
            .plain(
                format_args!("{k}.pooled_cycles_per_req"),
                r.pooled_cycles_per_req,
            )
            .plain(format_args!("{k}.pooled_p99_cycles"), r.pooled_p99)
            .plain(format_args!("{k}.checks_per_req"), r.checks_per_req)
            .ratio(
                format_args!("{k}.dirty_pages_per_req"),
                r.dirty_pages_per_req,
            )
            .plain(format_args!("{k}.cold_host_micros"), r.cold_host_micros)
            .plain(format_args!("{k}.pooled_host_micros"), r.pooled_host_micros);
    }
    json
}

/// Section 7.6: the vulnerability-injection summary.
pub fn vuln_table() -> String {
    let mut out = String::new();
    out.push_str("== Section 7.6 — vulnerability injection\n");
    for config in [Config::Base, Config::OurMpx, Config::OurSeg] {
        for (name, o) in vuln::run_all(config) {
            let status = if o.rejected_at_compile_time {
                "rejected at compile time".to_string()
            } else if o.leaked {
                "LEAKED".to_string()
            } else {
                match &o.outcome {
                    Some(confllvm_core::vm::Outcome::Fault(f)) => {
                        format!("stopped at runtime ({f})")
                    }
                    _ => "no leak".to_string(),
                }
            };
            out.push_str(&format!("{:<10} {:<24} {}\n", config.name(), name, status));
        }
    }
    out
}

/// Section 7.2/7.3 porting effort table.
pub fn porting_table() -> String {
    let mut out = String::new();
    out.push_str("== Porting effort (annotations + trusted interface lines)\n");
    for (name, src) in [
        ("nginx", nginx::SOURCE.to_string()),
        ("openldap", ldap::annotated_source()),
        ("privado", privado::SOURCE.to_string()),
        ("merkle-fs", merkle::SOURCE.to_string()),
    ] {
        let (ann, ext) = confllvm_workloads::porting_effort(&src);
        let loc = src.lines().filter(|l| !l.trim().is_empty()).count();
        out.push_str(&format!(
            "{:<10} {:>5} LoC, {:>3} private annotations, {:>3} trusted-interface functions\n",
            name, loc, ann, ext
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_has_one_row_per_kernel_plus_average() {
        let f = fig5_spec(16);
        assert_eq!(f.rows.len(), spec::KERNELS.len() + 1);
        let rendered = f.render();
        assert!(rendered.contains("OurMPX"));
        assert!(rendered.contains("average"));
    }

    #[test]
    fn new_passes_improve_at_least_three_workloads_and_binaries_verify() {
        // The acceptance bar of the pass-manager refactor: on OurMPX,
        // cross-block elimination + hoisting strictly reduce executed checks
        // *and* simulated cycles versus the PR-1 pipeline on >= 3 workloads,
        // and ConfVerify accepts every optimised binary.
        let rows = ablation_passes_rows(16);
        let improved = rows.iter().filter(|r| r.improved()).count();
        assert!(
            improved >= 3,
            "only {improved} workloads improved: {rows:?}"
        );
        // No workload may regress in executed checks.
        for r in &rows {
            assert!(
                r.checks_full <= r.checks_pr1,
                "{} regressed: {} > {}",
                r.workload,
                r.checks_full,
                r.checks_pr1
            );
        }
        for kernel in spec::KERNELS {
            let opts = confllvm_core::CompileOptions {
                config: Config::OurMpx,
                entry: "run".to_string(),
                ..Default::default()
            };
            let compiled = confllvm_core::compile(kernel.source, &opts).unwrap();
            let report = confllvm_verify::verify(&compiled.binary())
                .unwrap_or_else(|e| panic!("{} failed to verify: {:?}", kernel.name, &e[..1]));
            assert!(report.procedures > 0);
        }
    }

    #[test]
    fn pooled_serving_is_strictly_cheaper_than_cold_everywhere() {
        // The acceptance bar of the serving layer: under every measured
        // configuration, for both request-shaped workloads, warm
        // (snapshot/reset) execution costs strictly fewer simulated cycles
        // per request than cold load+setup per request — and every
        // verifiable binary went through ConfVerify at registration.
        let rows = server_throughput_rows(true);
        assert!(rows.iter().any(|r| r.workload == "nginx"));
        assert!(rows.iter().any(|r| r.workload == "ldap"));
        for r in &rows {
            assert!(
                r.pooled_cycles_per_req < r.cold_cycles_per_req,
                "{}/{} pooled {} !< cold {}",
                r.workload,
                r.config,
                r.pooled_cycles_per_req,
                r.cold_cycles_per_req
            );
            if r.config.is_instrumented() && r.config != Config::Our1Mem {
                assert!(
                    r.verified,
                    "{}/{} must be verifier-accepted",
                    r.workload, r.config
                );
            }
            if r.config == Config::OurMpx {
                assert!(r.checks_per_req > 0, "MPX serving must execute checks");
            }
        }
    }

    #[test]
    fn instrumented_configs_are_slower_on_average() {
        let f = fig5_spec(16);
        let avg = f.rows.last().unwrap();
        let get = |c: Config| {
            avg.values
                .iter()
                .find(|(cc, _)| *cc == c)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get(Config::OurMpx) > 100.0);
        assert!(get(Config::OurSeg) > 100.0);
        assert!(
            get(Config::OurSeg) <= get(Config::OurMpx),
            "segmentation must not be slower than MPX (paper's headline finding)"
        );
        assert!(get(Config::OurCFI) <= get(Config::OurMpx));
    }
}
