//! `spec`: one op runs one SPEC stand-in kernel on freshly loaded VMs
//! (`Vm::new` + `run_function("run", [size])`), on one thread.  The
//! binaries are Figure 5's set — the 9 kernels under Base, OurMPX and
//! OurSeg — compiled in set-up, so the block engine's dispatch loop does
//! almost all the timed work.  Kernel inputs are Figure 5's fixed sizes;
//! the seed permutes the op order of every pass.
//!
//! At those sizes one kernel run takes from 4 to 44 million simulated
//! cycles, so single runs would make op latency a mix of nine far-apart
//! clusters whose tail falls between two of them.  An op therefore runs
//! its kernel `REPEATS` times, each on a fresh VM, which puts every op
//! within about 20% of 40 million Base cycles.  Each repetition is
//! identical, so exit codes and `sim_overhead_pct` are those of one run.

use std::time::Instant;

use confllvm_core::vm::{Vm, VmOptions, World};
use confllvm_core::{compile, CompileOptions, Compiled, Config};
use confllvm_workloads::spec::KERNELS;

use crate::harness::{
    finish, set_up, tampered_copies_rejected, Args, Expected, Layers, Phase, Report,
};
use crate::stats::{geomean_overhead_pct, Rng, Verdict};
use crate::trace::{totals, SpanLog};
use crate::yardstick::Yardstick;

const CONFIGS: [Config; 3] = [Config::Base, Config::OurMpx, Config::OurSeg];
/// Runs per op of each kernel, in `KERNELS` order (bzip2, gcc, mcf, gobmk,
/// hmmer, sjeng, libquantum, h264ref, milc).
const REPEATS: [usize; 9] = [2, 6, 6, 11, 5, 1, 3, 2, 4];
/// A pass runs all 27 binaries once; a run makes one pass per this many
/// seconds.
const PASS_S: f64 = 2.4;
/// The fewest passes that keep ten ops beyond p90.
const MIN_PASSES: usize = 4;
/// The block engine's dispatch loop does nearly all the work: the dispatch
/// yardstick tracks it.
const YARDSTICK: Yardstick = Yardstick::Dispatch;

struct Binary {
    kernel: usize,
    config: Config,
    compiled: Compiled,
}

struct State {
    binaries: Vec<Binary>,
    /// Index into `binaries` per op, in op order.
    ops: Vec<usize>,
    expected: Vec<i64>,
    /// Simulated cycles of one run of each binary, from the warm-up pass.
    cycles: Vec<u64>,
}

fn vm_options(config: Config) -> VmOptions {
    VmOptions {
        allocator: config.allocator(),
        ..Default::default()
    }
}

fn prepare(args: &Args, expected: &Expected) -> Result<State, String> {
    let mut binaries = Vec::new();
    for (k, kernel) in KERNELS.iter().enumerate() {
        for config in CONFIGS {
            let opts = CompileOptions {
                config,
                entry: "run".to_string(),
                ..Default::default()
            };
            let compiled = compile(kernel.source, &opts)
                .map_err(|e| format!("{} under {config}: {e}", kernel.name))?;
            binaries.push(Binary {
                kernel: k,
                config,
                compiled,
            });
        }
    }
    let expected = KERNELS
        .iter()
        .map(|k| expected.int(&format!("kernel.{}", k.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let passes = ((args.seconds as f64 / PASS_S).round() as usize).max(MIN_PASSES);
    let mut rng = Rng::new(args.seed ^ 0x5bec);
    let mut ops = Vec::new();
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..binaries.len()).collect();
        rng.shuffle(&mut pass);
        ops.extend(pass);
    }
    // Untimed warm-up pass, which also records each binary's cycles.
    let mut cycles = Vec::new();
    for b in &binaries {
        let mut vm = Vm::new(&b.compiled.program, vm_options(b.config), World::new())
            .map_err(|e| e.to_string())?;
        let r = vm.run_function("run", &[KERNELS[b.kernel].size]);
        cycles.push(r.stats.cycles);
    }
    Ok(State {
        binaries,
        ops,
        expected,
        cycles,
    })
}

/// Work counts the traced ops add up.
#[derive(Default)]
struct Counts {
    sim_insts: u64,
    bound_checks: u64,
    sim_cycles: u64,
}

/// Run every op; with a log, each op is a root span with one `vm.load` and
/// one `vm.run` child per repetition.
fn drive(state: &State, mut log: Option<&mut SpanLog>, counts: &mut Counts) -> Phase {
    let mut phase = Phase::new(YARDSTICK);
    let start = Instant::now();
    for (op, &i) in state.ops.iter().enumerate() {
        let op = op as u64;
        let b = &state.binaries[i];
        let size = KERNELS[b.kernel].size;
        phase.probe(start);
        let t0 = Instant::now();
        let root = log.as_deref_mut().map(|l| l.open("op.spec", op, None));
        let mut verdict = Verdict::Correct;
        for _ in 0..REPEATS[b.kernel] {
            let load = || Vm::new(&b.compiled.program, vm_options(b.config), World::new());
            let loaded = match (log.as_deref_mut(), root) {
                (Some(l), Some(root)) => l.time("vm.load", op, root, load),
                _ => load(),
            };
            let Ok(mut vm) = loaded else {
                verdict = Verdict::Fault;
                break;
            };
            let mut run = || vm.run_function("run", &[size]);
            let r = match (log.as_deref_mut(), root) {
                (Some(l), Some(root)) => l.time("vm.run", op, root, run),
                _ => run(),
            };
            counts.sim_insts += r.stats.instructions;
            counts.bound_checks += r.stats.bound_checks;
            counts.sim_cycles += r.stats.cycles;
            match r.exit_code() {
                None => verdict = Verdict::Fault,
                Some(code) if code != state.expected[b.kernel] => verdict = Verdict::Wrong,
                Some(_) => {}
            }
        }
        if let (Some(l), Some(root)) = (log.as_deref_mut(), root) {
            l.close(root);
        }
        phase.time_op(start, t0);
        phase.tally.record(verdict);
    }
    phase.probe(start);
    phase.broken_ops = phase.tally.broken();
    phase
}

fn traced(state: &State) -> (Phase, Layers) {
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut counts = Counts::default();
    let phase = drive(state, Some(&mut log), &mut counts);
    let t = totals(std::slice::from_ref(&log));
    let ops = phase.ops() as f64;
    let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
    let mut layers = Layers::new();
    layers.insert("vm.load_us", ns("vm.load") / ops / 1e3);
    layers.insert("vm.run_ms", ns("vm.run") / ops / 1e6);
    layers.insert("vm.sim_insts", counts.sim_insts as f64);
    layers.insert(
        "vm.ns_per_sim_inst",
        ns("vm.run") / counts.sim_insts.max(1) as f64,
    );
    layers.insert("vm.bound_checks", counts.bound_checks as f64);
    layers.insert("vm.sim_cycles", counts.sim_cycles as f64);
    crate::trace::write_trace("spec", &[log], &t);
    (finish(phase), layers)
}

/// Figure 5's number: the geometric mean over the 9 kernels × {OurMPX,
/// OurSeg} of simulated cycles over Base, minus 1.
fn sim_overhead_pct(state: &State) -> f64 {
    let base = |k: usize| {
        state
            .binaries
            .iter()
            .zip(&state.cycles)
            .find(|(b, _)| b.kernel == k && b.config == Config::Base)
            .map(|(_, c)| *c as f64)
            .expect("every kernel has a Base build")
    };
    let ratios: Vec<f64> = state
        .binaries
        .iter()
        .zip(&state.cycles)
        .filter(|(b, _)| b.config != Config::Base)
        .map(|(b, c)| *c as f64 / base(b.kernel))
        .collect();
    geomean_overhead_pct(&ratios)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let expected = Expected::load()?;
    let (state, setup) = set_up(YARDSTICK, || prepare(args, &expected))?;
    let mut check_failures = Vec::new();
    for b in state.binaries.iter().filter(|b| b.config != Config::Base) {
        let name = format!("{} under {}", KERNELS[b.kernel].name, b.config);
        check_failures.extend(tampered_copies_rejected(&name, &b.compiled.program).0);
    }
    let untraced = finish(drive(&state, None, &mut Counts::default()));
    let traced = args.trace.then(|| traced(&state));
    Ok(Report {
        setup,
        untraced,
        sim_overhead_pct: sim_overhead_pct(&state),
        check_failures,
        traced,
    })
}
