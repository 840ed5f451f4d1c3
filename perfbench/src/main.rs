//! The repository's benchmark: four seeded workloads that drive the ConfLLVM
//! reproduction from outside, from mini-C source to served session.
//!
//! ```text
//! perfbench --workload <build|spec|serve|scale> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record > perfbench/expected.txt
//! ```
//!
//! Every run sets the workload up several times, runs a fixed op sequence
//! made from the seed (sized by `--seconds`), checks the outputs against
//! `expected.txt` and the paper's security property, and prints one JSON
//! object as its last line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.  A traced run first repeats the
//! untraced measurement, then runs the same ops again with the benchmark's
//! spans on, and prints each end-to-end metric traced next to untraced.
//! End-to-end times are scaled to a reference host by yardstick passes run
//! between ops (see `yardstick`); the wall-clock values are printed above
//! the JSON line.

mod harness;
mod stats;
mod trace;
mod workload;
mod yardstick;

use std::fmt::Write as _;

use harness::{Args, Phase, Report};
use stats::{median, reportable_percentile};
use yardstick::Yardstick;

const WORKLOADS: [&str; 4] = ["build", "spec", "serve", "scale"];

/// Every per-layer metric and its unit.  A traced run reports all of them;
/// a layer a workload's ops never call reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("minic.parse_us", "us"),
    ("minic.sema_us", "us"),
    ("ir.lower_us", "us"),
    ("ir.passes_us", "us"),
    ("ir.infer_us", "us"),
    ("codegen.compile_us", "us"),
    ("machine.encode_us", "us"),
    ("verifier.verify_us", "us"),
    ("vm.load_us", "us"),
    ("minic.src_bytes", "bytes"),
    ("ir.insts", "count"),
    ("ir.pass_changes", "count"),
    ("codegen.insts", "count"),
    ("codegen.checks", "count"),
    ("machine.code_words", "count"),
    ("verifier.insts_checked", "count"),
    ("ir.passes_ns_per_inst", "ns"),
    ("codegen.ns_per_inst", "ns"),
    ("verifier.ns_per_word", "ns"),
    ("vm.run_ms", "ms"),
    ("vm.sim_insts", "count"),
    ("vm.ns_per_sim_inst", "ns"),
    ("vm.bound_checks", "count"),
    ("vm.sim_cycles", "count"),
    ("server.fork_us", "us"),
    ("server.restore_us", "us"),
    ("server.dirty_pages", "count"),
    ("vm.exec_us", "us"),
    ("vm.trusted_calls", "count"),
    ("server.runtime_us", "us"),
    ("server.park_ms", "ms"),
    ("server.teardown_ms", "ms"),
    ("sched.run_virtual_ms", "ms"),
    ("sched.executed", "count"),
    ("sched.shed", "count"),
    ("server.cow_faults", "count"),
    ("server.resident_pages", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <1-600> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// The end-to-end metrics of one timed phase, in `BENCHMARK.json` order.
/// Times are scaled to the reference host (see `yardstick`).
fn end_to_end(
    report: &Report,
    phase: &Phase,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let ms = |ns: u64| ns as f64 / 1e6;
    let latencies: Vec<u64> = phase
        .normalized_ns()
        .iter()
        .map(|&ns| ns.round() as u64)
        .collect();
    let p50 = reportable_percentile(&latencies, 50).ok_or("too few ops for a median")?;
    let p90 = reportable_percentile(&latencies, 90).ok_or("too few ops beyond p90 to report it")?;
    Ok(vec![
        ("setup_s", median(&report.setup.normalized_s), "s"),
        ("ops_per_s", phase.ops_per_s(), "1/s"),
        ("p50_ms", ms(p50), "ms"),
        ("p90_ms", ms(p90), "ms"),
        ("ok_pct", phase.tally.ok_pct(), "%"),
        ("peak_rss_mb", phase.peak_rss_mb, "MiB"),
        ("sim_overhead_pct", report.sim_overhead_pct, "%"),
    ])
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(
            s,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    s.push('}');
    s
}

fn run(args: &Args) -> Result<(bool, u64, u64, String), String> {
    let report = match args.workload.as_str() {
        "build" => workload::build::run(args)?,
        "spec" => workload::spec::run(args)?,
        "serve" => workload::serve::run(args)?,
        "scale" => workload::scale::run(args)?,
        other => unreachable!("workload `{other}` passed argument checks"),
    };
    for f in &report.check_failures {
        println!("CHECK FAILED: {f}");
    }
    let untraced = end_to_end(&report, &report.untraced)?;
    let u = &report.untraced;
    let raw_ms =
        |pct| reportable_percentile(&u.latencies_ns, pct).map_or(0.0, |ns| ns as f64 / 1e6);
    println!(
        "{} seed {}: {} ops in {:.3} s, {} yardstick passes, host speed {:.4}; \
         wall clock: ops_per_s {:.4}, p50_ms {:.4}, p90_ms {:.4}, setup {:?} s",
        args.workload,
        args.seed,
        u.ops(),
        u.elapsed_s(),
        u.probes.len(),
        u.host_speed(),
        u.raw_ops_per_s(),
        raw_ms(50),
        raw_ms(90),
        report.setup.raw_s
    );
    let phase = match &report.traced {
        None => &report.untraced,
        Some((phase, _)) => phase,
    };
    let correct = report.check_failures.is_empty()
        && report.untraced.broken_ops == 0
        && phase.broken_ops == 0;
    let json = match &report.traced {
        None => metrics_json(&untraced),
        Some((phase, layers)) => {
            let traced = end_to_end(&report, phase)?;
            println!(
                "{:<18} {:>14} {:>14} {:>14}",
                "end-to-end", "untraced", "traced", "traced-untraced"
            );
            for ((name, u, unit), (_, t, _)) in untraced.iter().zip(&traced) {
                println!(
                    "{:<18} {:>14.4} {:>14.4} {:>14.4} {unit}",
                    name,
                    u,
                    t,
                    t - u
                );
            }
            if let Some(name) = layers
                .keys()
                .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            {
                return Err(format!(
                    "workload reported unlisted per-layer metric `{name}`"
                ));
            }
            let per_layer: Vec<(&str, f64, &str)> = PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
                .collect();
            metrics_json(&per_layer)
        }
    };
    Ok((correct, phase.ops(), phase.broken_ops, json))
}

/// Print a fresh `expected.txt` recorded from the program at this commit.
/// Used once when the reference outputs are authored; a benchmark run only
/// ever reads the committed file.
fn record() -> Result<(), String> {
    let mut out = String::from(
        "# Reference outputs of the benchmark's programs (see README.md).\n\
         # kernel.<name>: exit code of run(size) at Figure 5's size, the same under\n\
         #   Base, OurMPX and OurSeg.\n\
         # check.<name>: exit code of the program's check entry, the same under\n\
         #   Base, OurMPX and OurSeg.\n\
         # serve.<service>.<variant>: FNV-1a digests of a catalogue session's sent\n\
         #   and log bytes.\n\
         # scale.fill.<k>: FNV-1a digests of one request's sent and log bytes.\n",
    );
    workload::build::record(&mut out)?;
    workload::serve::record(&mut out)?;
    workload::scale::record(&mut out)?;
    print!("{out}");
    Ok(())
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--record") {
        if let Err(e) = record() {
            eprintln!("perfbench --record: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args();
    let probe = || Yardstick::ALL.map(Yardstick::host_probe_s);
    let probe_before = probe();
    let outcome = run(&args);
    let probe_after = probe();
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            for (i, y) in Yardstick::ALL.iter().enumerate() {
                println!(
                    "host_probe_s {} before {:.4} after {:.4}",
                    y.name(),
                    probe_before[i],
                    probe_after[i]
                );
            }
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
