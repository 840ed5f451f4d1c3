//! # confllvm-workloads
//!
//! The mini-C programs standing in for the paper's evaluation targets, plus
//! drivers that compile and run them under a given configuration and report
//! simulated cycles.
//!
//! * [`spec`] — nine CPU-bound kernels named after the SPEC CPU 2006
//!   benchmarks they stand in for (Figure 5),
//! * [`nginx`] — a small web server serving private files and writing an
//!   encrypted log (Figure 6),
//! * [`ldap`] — a directory server with hit/miss lookup workloads
//!   (Section 7.3),
//! * [`privado`] — a fixed-point neural-network classifier running
//!   "inside the enclave" with everything private (Figure 7),
//! * [`merkle`] — the integrity-protecting, multi-threaded file reader
//!   (Figure 8, Section 7.5),
//! * [`vuln`] — the three vulnerability-injection targets of Section 7.6.

pub mod ldap;
pub mod merkle;
pub mod nginx;
pub mod privado;
pub mod spec;
pub mod vuln;

use confllvm_core::{compile, CompileOptions, Config};
use confllvm_vm::{RunResult, Vm, VmOptions, World};

/// The result of running one workload under one configuration.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    pub config: Config,
    pub result: RunResult,
    pub world: World,
}

impl WorkloadRun {
    pub fn cycles(&self) -> u64 {
        self.result.stats.cycles
    }

    pub fn exit_code(&self) -> Option<i64> {
        self.result.exit_code()
    }
}

/// Compile `source` under `config`, run `entry(args)` on a fresh VM seeded
/// with `world`, and return cycles plus the final world.
pub fn run_workload(
    source: &str,
    config: Config,
    world: World,
    entry: &str,
    args: &[i64],
) -> WorkloadRun {
    let opts = CompileOptions {
        config,
        entry: entry.to_string(),
        ..Default::default()
    };
    run_workload_opts(source, &opts, world, args, false)
}

/// Like [`run_workload`] but with full control over the compile options —
/// the pass-manager ablations use this to pin specific pipelines — and with
/// per-VM sampling-profiler collection switchable: the `profile` benchmark
/// section opts its runs in so concurrently running unprofiled VMs cannot
/// pollute a byte-exact profile.  Sampling never writes simulated state, so
/// the returned run is identical either way.
pub fn run_workload_opts(
    source: &str,
    opts: &CompileOptions,
    world: World,
    args: &[i64],
    profile: bool,
) -> WorkloadRun {
    let config = opts.config;
    let entry = opts.entry.as_str();
    let compiled = compile(source, opts)
        .unwrap_or_else(|e| panic!("workload failed to compile under {config}: {e}"));
    let vm_opts = VmOptions {
        allocator: config.allocator(),
        profile,
        ..Default::default()
    };
    let mut vm = Vm::new(&compiled.program, vm_opts, world).expect("load");
    let result = vm.run_function(entry, args);
    assert!(
        !result.outcome.is_fault(),
        "workload faulted under {config}: {:?}",
        result.outcome
    );
    WorkloadRun {
        config,
        result,
        world: vm.world,
    }
}

/// Overhead (in percent) of `ours` relative to `base`, the number every
/// figure of the evaluation reports.
pub fn overhead_pct(base_cycles: u64, our_cycles: u64) -> f64 {
    if base_cycles == 0 {
        return 0.0;
    }
    (our_cycles as f64 - base_cycles as f64) / base_cycles as f64 * 100.0
}

/// Count the `private` annotations and extern-interface lines of a workload —
/// the porting-effort numbers of Section 7.2 / 7.3.
pub fn porting_effort(source: &str) -> (usize, usize) {
    let annotations = source.matches("private ").count();
    let trusted_interface = source
        .lines()
        .filter(|l| l.trim_start().starts_with("extern "))
        .count();
    (annotations, trusted_interface)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert_eq!(overhead_pct(100, 112), 12.0);
        assert_eq!(overhead_pct(0, 50), 0.0);
        assert!(overhead_pct(100, 90) < 0.0);
    }

    #[test]
    fn porting_effort_counts_annotations() {
        let (ann, ext) = porting_effort(nginx::SOURCE);
        assert!(ann > 0, "the NGINX stand-in must carry private annotations");
        assert!(ext >= 4, "it must declare a trusted interface");
    }
}
