//! Property tests for pass-pipeline correctness: every workload program must
//! behave *identically* when compiled with the full optimisation pipelines
//! (IR `const-fold,copy-prop,cse,dce` plus the full MPX machine pipeline
//! with cross-block check elimination and loop hoisting) and with everything
//! off — same exit code, same observable output, same taint verdict — and
//! ConfVerify must accept both binaries.

use confllvm_core::{compile, CompileOptions, Config};
use confllvm_vm::World;
use confllvm_workloads::{merkle, nginx, privado, run_workload_opts, spec};
use proptest::prelude::*;

/// The pipelines under comparison.
fn full_opts(entry: &str) -> CompileOptions {
    CompileOptions {
        config: Config::OurMpx,
        entry: entry.to_string(),
        ..Default::default()
    }
}

fn unopt_opts(entry: &str) -> CompileOptions {
    CompileOptions {
        config: Config::OurMpx,
        entry: entry.to_string(),
        ir_passes: Some(String::new()),
        machine_passes: Some(String::new()),
    }
}

/// One equivalence check: compile + run a program both ways and compare
/// everything the paper cares about.
fn assert_equivalent(name: &str, source: &str, world: World, entry: &str, args: &[i64]) {
    let full = full_opts(entry);
    let unopt = unopt_opts(entry);

    // Identical taint verdicts: both accepted, agreeing on whether the
    // program touches private state at all (the inferred counts may differ —
    // CSE legitimately removes duplicate accesses).
    let full_compiled =
        compile(source, &full).unwrap_or_else(|e| panic!("{name}: full pipeline rejected: {e}"));
    let unopt_compiled =
        compile(source, &unopt).unwrap_or_else(|e| panic!("{name}: empty pipeline rejected: {e}"));
    assert_eq!(
        full_compiled.private_accesses > 0,
        unopt_compiled.private_accesses > 0,
        "{name}: pipelines disagree on private accesses"
    );

    // ConfVerify accepts both binaries.
    for (label, c) in [("full", &full_compiled), ("unopt", &unopt_compiled)] {
        confllvm_verify::verify(&c.binary()).unwrap_or_else(|errs| {
            panic!(
                "{name}: {label} binary failed to verify: {:?}",
                &errs[..1.min(errs.len())]
            )
        });
    }

    // Identical observable behaviour.
    let r_full = run_workload_opts(source, &full, world.clone(), args, false);
    let r_unopt = run_workload_opts(source, &unopt, world, args, false);
    assert_eq!(
        r_full.exit_code(),
        r_unopt.exit_code(),
        "{name}: exit codes differ"
    );
    assert_eq!(
        r_full.world.observable(),
        r_unopt.world.observable(),
        "{name}: observable outputs differ"
    );
    // The optimised build must never execute more checks than the naive one.
    assert!(
        r_full.result.checks_executed() <= r_unopt.result.checks_executed(),
        "{name}: full pipeline executed more checks"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spec_kernels_are_pipeline_invariant(idx in 0usize..spec::KERNELS.len(), size in 2i64..5) {
        let kernel = spec::KERNELS[idx];
        assert_equivalent(kernel.name, kernel.source, World::new(), "run", &[size]);
    }

    #[test]
    fn servers_and_enclaves_are_pipeline_invariant(which in 0usize..3, scale in 1i64..3) {
        match which {
            0 => {
                let requests = scale as usize;
                assert_equivalent(
                    "nginx",
                    nginx::SOURCE,
                    nginx::world(requests, 512),
                    "serve",
                    &[requests as i64, 512],
                );
            }
            1 => assert_equivalent("privado", privado::SOURCE, privado::world(), "classify", &[1]),
            _ => {
                let blocks = scale;
                assert_equivalent(
                    "merkle",
                    merkle::SOURCE,
                    merkle::world(256),
                    "read_file_blocks",
                    &[blocks, 256],
                );
            }
        }
    }
}
