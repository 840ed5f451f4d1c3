//! `build`: one op takes one program from mini-C source to a loaded binary
//! that ConfVerify accepts — `compile` → `Compiled::binary` → serial
//! `verify` → `Vm::new` — on one thread.  Nothing runs on the VM inside an
//! op, so only the compiler, the verifier and the loader are timed.

use std::time::Instant;

use confllvm_codegen::compile_module_with_entry;
use confllvm_core::machine::Binary;
use confllvm_core::vm::{Vm, VmOptions, World};
use confllvm_core::{compile, vm_for, CompileOptions, Compiled, Config};
use confllvm_ir::{infer, lower, InferOptions, PassManager};
use confllvm_minic::{parse, Sema};
use confllvm_workloads::{ldap, merkle, nginx, privado, spec};

use crate::harness::{
    finish, leaks, set_up, tampered_copies_rejected, Args, Expected, Layers, Phase, Report,
    FILE_WINDOW, PASSWORD_WINDOW,
};
use crate::stats::{digest, geomean_overhead_pct, Rng, Verdict};
use crate::trace::{totals, SpanLog};
use crate::yardstick::Yardstick;

/// The two production configurations every program is built under.
const CONFIGS: [Config; 2] = [Config::OurMpx, Config::OurSeg];
/// Generated services per run, drawn from evenly spaced strata of
/// `WORKERS`, so build cost per op spreads evenly and leaves no gap at p50
/// or p90.
const SYNTHETIC: usize = 24;
const WORKERS: std::ops::Range<usize> = 0..96;
/// One pass builds every program under both configurations; a run makes
/// one pass per this many seconds.
const PASS_S: f64 = 0.35;
/// The fewest passes that keep ten ops beyond p90.
const MIN_PASSES: usize = 2;
/// Compile-bound work: the allocation yardstick tracks it.
const YARDSTICK: Yardstick = Yardstick::Alloc;
/// Ops between two yardstick passes.
const PROBE_EVERY: usize = 12;

/// One program of the run and how its check entry is judged.
struct Source {
    name: String,
    text: String,
    entry: &'static str,
    check_args: Vec<i64>,
    world: World,
    expected_exit: i64,
    /// Private bytes that must never appear in the observable channels,
    /// with the run length that counts as a leak.
    secrets: Vec<(Vec<u8>, usize)>,
}

/// The exit code of `synthetic_service(workers, _)`'s `main`, in closed
/// form: `handle_login(0)` threads its argument through `w0..w{n-1}`, and
/// `w{i}` adds `i + (i + 2) * reps * (reps - 1) / 2` with `reps = 6 + i % 5`.
fn synthetic_exit(workers: usize) -> i64 {
    (0..workers as i64)
        .map(|i| {
            let reps = 6 + i % 5;
            i + (i + 2) * reps * (reps - 1) / 2
        })
        .sum()
}

/// Every program of a run; `expected_exit` looks up the reference exit
/// code of a named check entry.
fn sources(
    seed: u64,
    expected_exit: &dyn Fn(&str) -> Result<i64, String>,
) -> Result<Vec<Source>, String> {
    let mut out = Vec::new();
    for k in spec::KERNELS {
        out.push(Source {
            name: k.name.to_string(),
            text: k.source.to_string(),
            entry: "run",
            check_args: vec![k.size],
            world: World::new(),
            expected_exit: expected_exit(&format!("kernel.{}", k.name))?,
            secrets: Vec::new(),
        });
    }
    let nginx_world = nginx::world(1, 1024);
    let nginx_file = nginx_world.secret_files["doc"].clone();
    let mut ldap_world = World::new();
    ldap_world.set_password("user", b"ldap-secret-pw");
    let privado_world = privado::world();
    let image = privado_world.secret_files["image"].clone();
    let merkle_world = merkle::world(1024);
    let block = merkle_world.secret_files["bigfile"].clone();
    let named = [
        (
            "nginx",
            nginx::SOURCE.to_string(),
            nginx_world,
            vec![(nginx_file, FILE_WINDOW)],
        ),
        (
            "ldap",
            ldap::annotated_source(),
            ldap_world,
            vec![(b"ldap-secret-pw".to_vec(), PASSWORD_WINDOW)],
        ),
        (
            "privado",
            privado::SOURCE.to_string(),
            privado_world,
            vec![(image, FILE_WINDOW)],
        ),
        (
            "merkle",
            merkle::SOURCE.to_string(),
            merkle_world,
            vec![(block, FILE_WINDOW)],
        ),
    ];
    for (name, text, world, secrets) in named {
        out.push(Source {
            name: name.to_string(),
            text,
            entry: "main",
            check_args: Vec::new(),
            world,
            expected_exit: expected_exit(&format!("check.{name}"))?,
            secrets,
        });
    }
    let mut rng = Rng::new(seed);
    let span = WORKERS.end - WORKERS.start;
    for i in 0..SYNTHETIC {
        let lo = WORKERS.start + i * span / SYNTHETIC;
        let hi = WORKERS.start + (i + 1) * span / SYNTHETIC;
        let workers = lo + rng.below(hi - lo);
        let salt = rng.next_u64() % 1_000_000;
        let password: Vec<u8> = (0..32).map(|_| b'a' + rng.below(26) as u8).collect();
        let mut world = World::new();
        world.set_password("u", &password);
        out.push(Source {
            name: format!("synthetic{i}.w{workers}"),
            text: confllvm_bench::verify_scale::synthetic_service(workers, salt),
            entry: "main",
            check_args: Vec::new(),
            world,
            expected_exit: synthetic_exit(workers),
            secrets: vec![(password, PASSWORD_WINDOW)],
        });
    }
    Ok(out)
}

fn options(src: &Source, config: Config) -> CompileOptions {
    CompileOptions {
        config,
        entry: src.entry.to_string(),
        ..Default::default()
    }
}

/// The op: source to loaded, verified binary.
fn build_once(src: &Source, config: Config) -> Result<(Compiled, Binary), String> {
    let compiled = compile(&src.text, &options(src, config)).map_err(|e| e.to_string())?;
    let binary = compiled.binary();
    confllvm_verify::verify(&binary).map_err(|e| format!("{} errors, first: {}", e.len(), e[0]))?;
    let vm = vm_for(&compiled, World::new()).map_err(|e| e.to_string())?;
    std::hint::black_box(&vm);
    Ok((compiled, binary))
}

fn digest_words(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    digest(&bytes)
}

/// Work counts the traced op adds up.
#[derive(Default)]
struct Counts {
    src_bytes: u64,
    ir_insts: u64,
    pass_changes: u64,
    cg_insts: u64,
    cg_checks: u64,
    code_words: u64,
    insts_checked: u64,
}

/// The op again, one child span per public call `compile` makes, plus the
/// verifier and the loader.
fn build_traced(
    src: &Source,
    config: Config,
    pm: &PassManager,
    log: &mut SpanLog,
    op: u64,
    counts: &mut Counts,
) -> Result<Binary, String> {
    let root = log.open("op.build", op, None);
    let result = (|| {
        let ast = log
            .time("minic.parse", op, root, || parse(&src.text))
            .map_err(|e| e.to_string())?;
        let sema = log
            .time("minic.sema", op, root, || Sema::analyze(&ast))
            .map_err(|e| e.to_string())?;
        let mut module = log
            .time("ir.lower", op, root, || lower(&ast, &sema, "u_module"))
            .map_err(|e| e.to_string())?;
        counts.src_bytes += src.text.len() as u64;
        counts.ir_insts += module.inst_count() as u64;
        let pipeline = log.time("ir.passes", op, root, || pm.run(&mut module));
        counts.pass_changes += pipeline.total_changes() as u64;
        let inferred = log.time("ir.infer", op, root, || {
            infer(
                &mut module,
                InferOptions {
                    strict: true,
                    all_private: false,
                },
            )
        });
        inferred.map_err(|e| format!("{} taint errors", e.len()))?;
        let cg_opts = config.codegen_options();
        let (program, report) = log
            .time("codegen.compile", op, root, || {
                compile_module_with_entry(&module, &cg_opts, src.entry)
            })
            .map_err(|e| e.to_string())?;
        counts.cg_insts += report.instructions as u64;
        counts.cg_checks += report.bound_checks as u64;
        let binary = log.time("machine.encode", op, root, || program.encode());
        counts.code_words += binary.words.len() as u64;
        let verified = log
            .time("verifier.verify", op, root, || {
                confllvm_verify::verify(&binary)
            })
            .map_err(|e| format!("{} verify errors", e.len()))?;
        counts.insts_checked += verified.instructions_checked as u64;
        let vm_opts = VmOptions {
            allocator: config.allocator(),
            ..Default::default()
        };
        let vm = log
            .time("vm.load", op, root, || {
                Vm::new(&program, vm_opts, World::new())
            })
            .map_err(|e| e.to_string())?;
        std::hint::black_box(&vm);
        Ok(binary)
    })();
    log.close(root);
    result
}

struct State {
    sources: Vec<Source>,
    /// (source, config) per op, in op order.
    ops: Vec<(usize, usize)>,
    /// Binary digest per (source, config), from the warm-up pass.
    reference: Vec<[u64; 2]>,
    /// Each target's warm-up build, for the run-level checks.
    builds: Vec<[Compiled; 2]>,
}

fn prepare(args: &Args, expected: &Expected) -> Result<State, String> {
    let sources = sources(args.seed, &|key| expected.int(key))?;
    let passes = ((args.seconds as f64 / PASS_S).round() as usize).max(MIN_PASSES);
    let mut rng = Rng::new(args.seed ^ 0xb111d);
    let mut ops = Vec::new();
    for _ in 0..passes {
        let mut pass: Vec<(usize, usize)> = (0..sources.len())
            .flat_map(|s| (0..CONFIGS.len()).map(move |c| (s, c)))
            .collect();
        rng.shuffle(&mut pass);
        ops.extend(pass);
    }
    // The untimed warm-up pass, which also yields the reference digests.
    let mut reference = Vec::new();
    let mut builds = Vec::new();
    for src in &sources {
        let mut digests = [0u64; 2];
        let mut built = Vec::new();
        for (c, &config) in CONFIGS.iter().enumerate() {
            let (compiled, binary) =
                build_once(src, config).map_err(|e| format!("{} under {config}: {e}", src.name))?;
            digests[c] = digest_words(&binary.words);
            built.push(compiled);
        }
        reference.push(digests);
        builds.push(built.try_into().expect("one build per config"));
    }
    Ok(State {
        sources,
        ops,
        reference,
        builds,
    })
}

/// A built binary is correct when it matches the warm-up build and its
/// target's check entry passed.
fn verdict(
    state: &State,
    broken: &[[bool; 2]],
    (s, c): (usize, usize),
    built: Option<&Binary>,
) -> Verdict {
    match built {
        None => Verdict::Fault,
        Some(b) if digest_words(&b.words) != state.reference[s][c] || broken[s][c] => {
            Verdict::Wrong
        }
        Some(_) => Verdict::Correct,
    }
}

fn timed(state: &State, broken_targets: &[[bool; 2]]) -> Phase {
    let mut phase = Phase::new(YARDSTICK);
    let start = Instant::now();
    for (op, &(s, c)) in state.ops.iter().enumerate() {
        if op % PROBE_EVERY == 0 {
            phase.probe(start);
        }
        let t0 = Instant::now();
        let result = build_once(&state.sources[s], CONFIGS[c]);
        phase.time_op(start, t0);
        let built = result.as_ref().ok().map(|(_, b)| b);
        phase
            .tally
            .record(verdict(state, broken_targets, (s, c), built));
    }
    phase.probe(start);
    phase.broken_ops = phase.tally.broken();
    phase
}

fn traced(state: &State, broken_targets: &[[bool; 2]]) -> Result<(Phase, Layers), String> {
    let pms: Vec<PassManager> = CONFIGS
        .iter()
        .map(|c| PassManager::parse(c.ir_pipeline()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut log = SpanLog::new(Instant::now(), 0);
    let mut counts = Counts::default();
    let mut phase = Phase::new(YARDSTICK);
    let start = Instant::now();
    for (op, &(s, c)) in state.ops.iter().enumerate() {
        if op % PROBE_EVERY == 0 {
            phase.probe(start);
        }
        let t0 = Instant::now();
        let result = build_traced(
            &state.sources[s],
            CONFIGS[c],
            &pms[c],
            &mut log,
            op as u64,
            &mut counts,
        );
        phase.time_op(start, t0);
        phase
            .tally
            .record(verdict(state, broken_targets, (s, c), result.as_ref().ok()));
    }
    phase.probe(start);
    phase.broken_ops = phase.tally.broken();

    let t = totals(std::slice::from_ref(&log));
    let ops = phase.ops() as f64;
    let ns = |name: &str| t.get(name).map_or(0.0, |x| x.total_ns as f64);
    let per_op_us = |name: &str| ns(name) / ops / 1e3;
    let ratio = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let mut layers = Layers::new();
    layers.insert("minic.parse_us", per_op_us("minic.parse"));
    layers.insert("minic.sema_us", per_op_us("minic.sema"));
    layers.insert("ir.lower_us", per_op_us("ir.lower"));
    layers.insert("ir.passes_us", per_op_us("ir.passes"));
    layers.insert("ir.infer_us", per_op_us("ir.infer"));
    layers.insert("codegen.compile_us", per_op_us("codegen.compile"));
    layers.insert("machine.encode_us", per_op_us("machine.encode"));
    layers.insert("verifier.verify_us", per_op_us("verifier.verify"));
    layers.insert("vm.load_us", per_op_us("vm.load"));
    layers.insert("minic.src_bytes", counts.src_bytes as f64);
    layers.insert("ir.insts", counts.ir_insts as f64);
    layers.insert("ir.pass_changes", counts.pass_changes as f64);
    layers.insert("codegen.insts", counts.cg_insts as f64);
    layers.insert("codegen.checks", counts.cg_checks as f64);
    layers.insert("machine.code_words", counts.code_words as f64);
    layers.insert("verifier.insts_checked", counts.insts_checked as f64);
    layers.insert(
        "ir.passes_ns_per_inst",
        ratio(ns("ir.passes"), counts.ir_insts),
    );
    layers.insert(
        "codegen.ns_per_inst",
        ratio(ns("codegen.compile"), counts.cg_insts),
    );
    layers.insert(
        "verifier.ns_per_word",
        ratio(ns("verifier.verify"), counts.code_words),
    );
    crate::trace::write_trace("build", &[log], &t);
    Ok((finish(phase), layers))
}

/// Run-level checks: every target's check entry against `expected.txt`,
/// no secret in clear, tampered copies rejected; plus the simulated
/// overhead of the check entries over Base builds of the same sources.
fn check(state: &State, failures: &mut Vec<String>) -> Result<(Vec<[bool; 2]>, f64), String> {
    let mut broken = vec![[false; 2]; state.sources.len()];
    let mut ratios = Vec::new();
    let mut bnd1_programs = 0;
    for (s, src) in state.sources.iter().enumerate() {
        let run = |compiled: &Compiled| -> Result<(i64, u64, Vec<u8>), String> {
            let mut vm = vm_for(compiled, src.world.clone()).map_err(|e| e.to_string())?;
            let r = vm.run_function(src.entry, &src.check_args);
            let code = r.exit_code().ok_or_else(|| format!("{:?}", r.outcome))?;
            Ok((code, r.stats.cycles, vm.world.observable()))
        };
        let base = compile(&src.text, &options(src, Config::Base)).map_err(|e| e.to_string())?;
        let (_, base_cycles, _) =
            run(&base).map_err(|e| format!("{} under Base: {e}", src.name))?;
        for (c, compiled) in state.builds[s].iter().enumerate() {
            let name = format!("{} under {}", src.name, CONFIGS[c]);
            match run(compiled) {
                Ok((code, cycles, observable)) => {
                    if code != src.expected_exit {
                        failures.push(format!(
                            "{name}: check entry exited {code}, expected {}",
                            src.expected_exit
                        ));
                        broken[s][c] = true;
                    }
                    for (secret, window) in &src.secrets {
                        if leaks(&observable, secret, *window) {
                            failures.push(format!("{name}: private bytes appear in clear"));
                            broken[s][c] = true;
                        }
                    }
                    ratios.push(cycles as f64 / base_cycles as f64);
                }
                Err(e) => {
                    failures.push(format!("{name}: check entry faulted: {e}"));
                    broken[s][c] = true;
                }
            }
            let (accepted, had_bnd1) = tampered_copies_rejected(&name, &compiled.program);
            bnd1_programs += usize::from(had_bnd1);
            failures.extend(accepted);
        }
    }
    if bnd1_programs == 0 {
        failures.push("no built program carried Bnd1 checks to tamper with".to_string());
    }
    Ok((broken, geomean_overhead_pct(&ratios)))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let expected = Expected::load()?;
    let (state, setup) = set_up(YARDSTICK, || prepare(args, &expected))?;
    let mut check_failures = Vec::new();
    let (broken, sim_overhead_pct) = check(&state, &mut check_failures)?;
    let untraced = finish(timed(&state, &broken));
    let traced = if args.trace {
        Some(traced(&state, &broken)?)
    } else {
        None
    };
    Ok(Report {
        setup,
        untraced,
        sim_overhead_pct,
        check_failures,
        traced,
    })
}

/// `expected.txt` lines for the kernels and the named programs' check
/// entries, recorded from the program once (never during a benchmark run).
/// Each must exit the same under Base, OurMPX and OurSeg.
pub fn record(out: &mut String) -> Result<(), String> {
    for src in sources(0, &|_| Ok(0))?
        .iter()
        .filter(|s| !s.name.starts_with("synthetic"))
    {
        let mut codes = Vec::new();
        for config in [Config::Base, Config::OurMpx, Config::OurSeg] {
            let compiled = compile(&src.text, &options(src, config)).map_err(|e| e.to_string())?;
            let mut vm = vm_for(&compiled, src.world.clone()).map_err(|e| e.to_string())?;
            let r = vm.run_function(src.entry, &src.check_args);
            codes.push(
                r.exit_code()
                    .ok_or_else(|| format!("{} faulted under {config}", src.name))?,
            );
        }
        if codes.iter().any(|c| *c != codes[0]) {
            return Err(format!(
                "{} exits differ across configurations: {codes:?}",
                src.name
            ));
        }
        let key = if src.entry == "run" {
            "kernel"
        } else {
            "check"
        };
        out.push_str(&format!("{key}.{} {}\n", src.name, codes[0]));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::synthetic_exit;

    #[test]
    fn synthetic_exit_closed_form() {
        assert_eq!(synthetic_exit(0), 0);
        // w0: reps 6, scale 2 -> 0 + 2 * 15 = 30.
        assert_eq!(synthetic_exit(1), 30);
        // w1: reps 7, scale 3 -> 1 + 3 * 21 = 64.
        assert_eq!(synthetic_exit(2), 94);
    }
}
