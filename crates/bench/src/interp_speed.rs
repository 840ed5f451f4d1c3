//! The `interp_speed` section: host wall-clock speed of the block execution
//! engine versus the legacy decode-per-step interpreter.
//!
//! This is the one section whose headline number is *host* time, not
//! simulated cycles: the engines are bit-exact in every simulated counter
//! (asserted here row by row), so the only thing left to compare is how fast
//! the simulator itself runs.  Two workload families:
//!
//! * every SPEC stand-in kernel under OurMPX (the paper's deployed
//!   configuration — dense bound checks, call-heavy control flow), and
//! * a pooled NGINX serving mix (setup → snapshot, then request + restore per
//!   iteration), the shape the serving layer runs at scale — forked off one
//!   base VM, so every repetition dispatches over the image's shared block
//!   translation.
//!
//! The acceptance bar (ISSUE 9) is a ≥3× aggregate host-time speedup on the
//! SPEC stand-ins with bit-identical simulated counters; the report
//! constructor asserts both, so `repro --section interp_speed` fails loudly
//! on a regression.

use confllvm_core::vm::{Engine, ExecStats, Vm, VmOptions, VmSnapshot, World};
use confllvm_core::{compile, CompileOptions, Config};
use confllvm_workloads::{nginx, spec};
use std::time::Instant;

use crate::BenchJson;

/// Aggregate SPEC speedup the section must clear (ISSUE 9 acceptance).
pub const REQUIRED_SPEC_SPEEDUP: f64 = 3.0;

/// One workload measured under both engines.
#[derive(Debug, Clone)]
pub struct InterpSpeedRow {
    pub workload: String,
    /// Simulated counters — identical under both engines by construction
    /// (asserted before the row is built).
    pub sim_cycles: u64,
    pub sim_instructions: u64,
    pub exit_code: i64,
    /// Best-of-N host time per engine, in nanoseconds.
    pub legacy_host_nanos: u128,
    pub block_host_nanos: u128,
    /// Is this row part of the SPEC aggregate the acceptance bar applies to?
    pub spec_kernel: bool,
}

impl InterpSpeedRow {
    /// Host-time speedup of the block engine on this workload.
    pub fn speedup(&self) -> f64 {
        if self.block_host_nanos == 0 {
            return 0.0;
        }
        self.legacy_host_nanos as f64 / self.block_host_nanos as f64
    }
}

/// The whole section.
#[derive(Debug, Clone)]
pub struct InterpSpeedReport {
    pub quick: bool,
    pub rows: Vec<InterpSpeedRow>,
    /// Aggregate speedup over the SPEC rows: total legacy time / total block
    /// time (best-of-N per row), the number the acceptance bar applies to.
    pub spec_speedup: f64,
}

/// One engine's measurement of one program: best-of-`reps` host time with
/// every repetition's simulated counters and observables cross-checked.
/// Repetitions fork off one base VM, so the block engine's repetitions share
/// a single translation through the image (the serving layer's sharing
/// story), and an untimed warm-up rep keeps the one-time translation build
/// out of the timings for both engines.
struct Measured {
    stats: ExecStats,
    exit_code: i64,
    observable: Vec<u8>,
    best_nanos: u128,
}

/// A warmed-up base VM for one engine, ready to hand out timed forks.
struct Bench {
    base: Vm,
    snap: VmSnapshot,
}

impl Bench {
    fn new(
        program: &confllvm_core::machine::Program,
        config: Config,
        engine: Engine,
        world: &World,
        entry: &str,
        args: &[i64],
    ) -> Bench {
        let opts = VmOptions {
            allocator: config.allocator(),
            engine,
            ..Default::default()
        };
        let mut base = Vm::new(program, opts, World::new()).expect("program loads");
        let snap = base.snapshot();
        {
            // Warm-up (untimed): on the block engine this builds the
            // translation once on the shared image, so the timed forks below
            // dispatch over a warm cache — the serving layer's steady state.
            // Run it on the legacy engine too so both sides see warm
            // allocator/page state.
            let mut warm = base.fork(&snap, world.clone());
            let r = warm.run_function(entry, args);
            assert!(
                !r.outcome.is_fault(),
                "{entry} warm-up faulted: {:?}",
                r.outcome
            );
        }
        Bench { base, snap }
    }

    /// One timed fork; folds into `best`, cross-checking determinism across
    /// repetitions (part of the contract).
    fn rep(&mut self, world: &World, entry: &str, args: &[i64], best: &mut Option<Measured>) {
        let mut vm = self.base.fork(&self.snap, world.clone());
        let t0 = Instant::now();
        let result = vm.run_function(entry, args);
        let nanos = t0.elapsed().as_nanos().max(1);
        assert!(
            !result.outcome.is_fault(),
            "{entry} faulted: {:?}",
            result.outcome
        );
        let m = Measured {
            stats: vm.stats.clone(),
            exit_code: result.exit_code().unwrap_or(-1),
            observable: vm.world.observable(),
            best_nanos: nanos,
        };
        *best = Some(match best.take() {
            None => m,
            Some(prev) => {
                assert_eq!(prev.stats, m.stats, "{entry}: stats varied across reps");
                assert_eq!(prev.exit_code, m.exit_code);
                assert_eq!(prev.observable, m.observable);
                Measured {
                    best_nanos: prev.best_nanos.min(m.best_nanos),
                    ..m
                }
            }
        });
    }
}

/// Compare the two engines on one program and build the row.
///
/// Repetitions are interleaved — legacy, block, legacy, block, … — so slow
/// drift in the host's clock speed or cache temperature lands on both
/// engines alike instead of biasing whichever ran second; with best-of-N on
/// each side, the speedup ratio is stable run to run.
#[allow(clippy::too_many_arguments)]
fn row(
    name: &str,
    program: &confllvm_core::machine::Program,
    config: Config,
    world: &World,
    entry: &str,
    args: &[i64],
    reps: u32,
    spec_kernel: bool,
) -> InterpSpeedRow {
    let mut legacy_bench = Bench::new(program, config, Engine::Legacy, world, entry, args);
    let mut block_bench = Bench::new(program, config, Engine::Block, world, entry, args);
    let (mut legacy, mut block) = (None, None);
    for _ in 0..reps {
        legacy_bench.rep(world, entry, args, &mut legacy);
        block_bench.rep(world, entry, args, &mut block);
    }
    let (legacy, block) = (
        legacy.expect("at least one repetition"),
        block.expect("at least one repetition"),
    );
    // The tentpole contract: bit-identical simulated counters, results and
    // observables.
    assert_eq!(
        legacy.stats, block.stats,
        "{name}: engines disagree on ExecStats"
    );
    assert_eq!(legacy.exit_code, block.exit_code, "{name}: exit codes");
    assert_eq!(legacy.observable, block.observable, "{name}: observables");
    InterpSpeedRow {
        workload: name.to_string(),
        sim_cycles: block.stats.cycles,
        sim_instructions: block.stats.instructions,
        exit_code: block.exit_code,
        legacy_host_nanos: legacy.best_nanos,
        block_host_nanos: block.best_nanos,
        spec_kernel,
    }
}

/// Run the section.
pub fn interp_speed_report(quick: bool) -> InterpSpeedReport {
    let scale = if quick { 8 } else { 1 };
    // Host timing on a shared machine is noisy (interference is additive and
    // positive), so take the minimum over enough interleaved repetitions for
    // it to converge.
    let reps = if quick { 7 } else { 9 };
    let config = Config::OurMpx;
    let mut rows = Vec::new();
    for kernel in spec::KERNELS {
        let size = (kernel.size / scale).max(2);
        let opts = CompileOptions {
            config,
            entry: "run".to_string(),
            ..Default::default()
        };
        let compiled = compile(kernel.source, &opts)
            .unwrap_or_else(|e| panic!("{} must compile under {config}: {e}", kernel.name));
        rows.push(row(
            kernel.name,
            &compiled.program,
            config,
            &World::new(),
            "run",
            &[size],
            reps,
            true,
        ));
    }
    rows.push(pooled_nginx_row(quick, config));
    let legacy_total: u128 = rows
        .iter()
        .filter(|r| r.spec_kernel)
        .map(|r| r.legacy_host_nanos)
        .sum();
    let block_total: u128 = rows
        .iter()
        .filter(|r| r.spec_kernel)
        .map(|r| r.block_host_nanos)
        .sum();
    let spec_speedup = legacy_total as f64 / block_total.max(1) as f64;
    // The wall-clock bar applies to unprofiled runs only: the sampling
    // profiler instruments the block engine alone (the legacy engine is the
    // untouched differential oracle), so under a globally enabled profiler
    // the measured ratio legitimately shrinks.  Simulated counters and
    // observables are asserted bit-identical per row above regardless.
    if !confllvm_obs::prof::profiler().enabled() {
        assert!(
            spec_speedup >= REQUIRED_SPEC_SPEEDUP,
            "block engine speedup {spec_speedup:.2}x is below the required \
             {REQUIRED_SPEC_SPEEDUP}x on the SPEC stand-ins"
        );
    }
    InterpSpeedReport {
        quick,
        rows,
        spec_speedup,
    }
}

/// The pooled serving mix: one VM per engine runs NGINX's setup once, takes a
/// snapshot, then serves a request stream with a restore between requests —
/// the per-request shape of the serving layer, where everything shares one
/// warm image (and, on the block engine, one translation).
fn pooled_nginx_row(quick: bool, config: Config) -> InterpSpeedRow {
    let (files, response_size, requests) = if quick { (3, 512, 16) } else { (8, 2048, 128) };
    let opts = CompileOptions {
        config,
        entry: nginx::SETUP_ENTRY.to_string(),
        ..Default::default()
    };
    let compiled = compile(nginx::SOURCE, &opts)
        .unwrap_or_else(|e| panic!("nginx must compile under {config}: {e}"));
    let run_mix = |engine: Engine| -> Measured {
        let vm_opts = VmOptions {
            allocator: config.allocator(),
            engine,
            ..Default::default()
        };
        let world = nginx::file_world(files, response_size, 7);
        let mut vm = Vm::new(&compiled.program, vm_opts, world).expect("nginx loads");
        let setup = vm.run_function(nginx::SETUP_ENTRY, &[]);
        assert!(
            !setup.outcome.is_fault(),
            "setup faulted: {:?}",
            setup.outcome
        );
        let snap = vm.snapshot();
        let mut served = 0i64;
        let mut observable = Vec::new();
        let t0 = Instant::now();
        for r in 0..requests {
            vm.world.push_request(&nginx::request_bytes(r % files));
            let res = vm.run_function(nginx::REQUEST_ENTRY, &[response_size as i64]);
            assert!(
                !res.outcome.is_fault(),
                "request faulted: {:?}",
                res.outcome
            );
            served += res.exit_code().unwrap_or(0);
            observable.extend_from_slice(&vm.world.observable());
            vm.restore(&snap);
        }
        let nanos = t0.elapsed().as_nanos().max(1);
        Measured {
            stats: vm.stats.clone(),
            exit_code: served,
            observable,
            best_nanos: nanos,
        }
    };
    let legacy = run_mix(Engine::Legacy);
    let block = run_mix(Engine::Block);
    assert_eq!(
        legacy.stats, block.stats,
        "nginx_pooled: engines disagree on ExecStats"
    );
    assert_eq!(legacy.exit_code, block.exit_code, "nginx_pooled: served");
    assert_eq!(
        legacy.observable, block.observable,
        "nginx_pooled: observables"
    );
    assert_eq!(
        block.exit_code, requests as i64,
        "every queued request must be served"
    );
    InterpSpeedRow {
        workload: "nginx_pooled".to_string(),
        sim_cycles: block.stats.cycles,
        sim_instructions: block.stats.instructions,
        exit_code: block.exit_code,
        legacy_host_nanos: legacy.best_nanos,
        block_host_nanos: block.best_nanos,
        spec_kernel: false,
    }
}

/// Render the section as an aligned text table.
pub fn render_interp_speed(report: &InterpSpeedReport) -> String {
    let mut out = String::new();
    out.push_str(
        "== Interpreter speed — block engine vs legacy decode-per-step (host time, equal simulated counters)\n",
    );
    out.push_str(&format!(
        "{:<14}{:>16}{:>14}{:>14}{:>14}{:>9}\n",
        "", "sim cycles", "sim insts", "legacy µs", "block µs", "speedup"
    ));
    for r in &report.rows {
        out.push_str(&format!(
            "{:<14}{:>16}{:>14}{:>14}{:>14}{:>8.1}x\n",
            r.workload,
            r.sim_cycles,
            r.sim_instructions,
            r.legacy_host_nanos / 1_000,
            r.block_host_nanos / 1_000,
            r.speedup(),
        ));
    }
    out.push_str(&format!(
        "SPEC aggregate speedup {:.1}x (required ≥ {REQUIRED_SPEC_SPEEDUP}x); every row bit-identical in simulated counters\n",
        report.spec_speedup
    ));
    out
}

/// The section's BENCH document: simulated counters and exit codes are
/// deterministic (exact-diffed); `*_host_nanos` and `*speedup` keys are
/// machine-dependent (positive-only).
pub fn interp_speed_json(report: &InterpSpeedReport) -> BenchJson {
    let mut json = BenchJson::new("interp_speed", report.quick);
    json.plain("rows", report.rows.len())
        .fixed("required_spec_speedup", REQUIRED_SPEC_SPEEDUP, 1)
        .ratio("spec_speedup", report.spec_speedup);
    for r in &report.rows {
        let k = &r.workload;
        json.plain(format_args!("{k}.sim_cycles"), r.sim_cycles)
            .plain(format_args!("{k}.sim_instructions"), r.sim_instructions)
            .plain(format_args!("{k}.exit_code"), r.exit_code)
            .plain(format_args!("{k}.legacy_host_nanos"), r.legacy_host_nanos)
            .plain(format_args!("{k}.block_host_nanos"), r.block_host_nanos)
            .ratio(format_args!("{k}.speedup"), r.speedup());
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json::diff_bench_json;

    fn fake_report() -> InterpSpeedReport {
        InterpSpeedReport {
            quick: true,
            rows: vec![
                InterpSpeedRow {
                    workload: "bzip2".into(),
                    sim_cycles: 1000,
                    sim_instructions: 400,
                    exit_code: 7,
                    legacy_host_nanos: 9000,
                    block_host_nanos: 2000,
                    spec_kernel: true,
                },
                InterpSpeedRow {
                    workload: "nginx_pooled".into(),
                    sim_cycles: 5000,
                    sim_instructions: 2100,
                    exit_code: 16,
                    legacy_host_nanos: 40_000,
                    block_host_nanos: 11_000,
                    spec_kernel: false,
                },
            ],
            spec_speedup: 4.5,
        }
    }

    #[test]
    fn json_is_flat_and_diffable_with_timing_tolerance() {
        let a = interp_speed_json(&fake_report()).to_string();
        // Same counters, different host timings: must still diff clean.
        let mut slower = fake_report();
        slower.rows[0].legacy_host_nanos = 123_456;
        slower.rows[1].block_host_nanos = 77_777;
        slower.spec_speedup = 3.2;
        let b = interp_speed_json(&slower).to_string();
        let errors = diff_bench_json(&a, &b).expect("parses");
        assert!(errors.is_empty(), "{errors:?}");
        // A simulated-counter drift is a hard mismatch.
        let mut drift = fake_report();
        drift.rows[0].sim_cycles += 1;
        let c = interp_speed_json(&drift).to_string();
        let errors = diff_bench_json(&a, &c).expect("parses");
        assert!(!errors.is_empty(), "counter drift must be caught");
    }

    #[test]
    fn render_mentions_the_acceptance_bar() {
        let table = render_interp_speed(&fake_report());
        assert!(table.contains("speedup"));
        assert!(table.contains("nginx_pooled"));
        assert!(table.contains("3x") || table.contains("3.0") || table.contains("≥ 3"));
    }
}
