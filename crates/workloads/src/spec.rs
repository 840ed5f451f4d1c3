//! SPEC CPU 2006 stand-in kernels (Figure 5).
//!
//! The paper compiles the SPEC C benchmarks as U with no annotations (all
//! data public) and measures pure instrumentation overhead.  Each kernel
//! below is a small CPU-bound mini-C program whose instruction mix loosely
//! follows the benchmark it is named after (integer compression, graph
//! relaxation, game-tree search, dynamic programming, stencils, ...).  The
//! absolute numbers differ from real SPEC, but the *relative* cost of the
//! configurations — which is what Figure 5 reports — is driven by the density
//! of memory accesses, calls and arithmetic, which these kernels preserve.

use crate::{run_workload, WorkloadRun};
use confllvm_core::Config;
use confllvm_vm::World;

/// One SPEC stand-in.
#[derive(Debug, Clone, Copy)]
pub struct SpecKernel {
    pub name: &'static str,
    pub source: &'static str,
    /// Problem size passed to `run(n)`.
    pub size: i64,
}

/// The kernel list (perlbench is omitted, as in the paper, because it needs
/// `fork`).
pub const KERNELS: &[SpecKernel] = &[
    SpecKernel {
        name: "bzip2",
        source: BZIP2,
        size: 48,
    },
    SpecKernel {
        name: "gcc",
        source: GCC,
        size: 40,
    },
    SpecKernel {
        name: "mcf",
        source: MCF,
        size: 28,
    },
    SpecKernel {
        name: "gobmk",
        source: GOBMK,
        size: 24,
    },
    SpecKernel {
        name: "hmmer",
        source: HMMER,
        size: 28,
    },
    SpecKernel {
        name: "sjeng",
        source: SJENG,
        size: 22,
    },
    SpecKernel {
        name: "libquantum",
        source: LIBQUANTUM,
        size: 40,
    },
    SpecKernel {
        name: "h264ref",
        source: H264REF,
        size: 24,
    },
    SpecKernel {
        name: "milc",
        source: MILC,
        size: 26,
    },
];

/// Run one kernel under one configuration.
pub fn run(kernel: &SpecKernel, config: Config) -> WorkloadRun {
    run_workload(kernel.source, config, World::new(), "run", &[kernel.size])
}

/// Run one kernel under a configuration with an explicit machine-pass
/// pipeline (the pass-manager ablation), with the VM's sampling-profiler
/// collection opted in when `profile` is set (the `profile` benchmark
/// section's differential runs).
pub fn run_with_passes(
    kernel: &SpecKernel,
    config: Config,
    machine_passes: &str,
    profile: bool,
) -> WorkloadRun {
    let opts = confllvm_core::CompileOptions {
        config,
        entry: "run".to_string(),
        machine_passes: Some(machine_passes.to_string()),
        ..Default::default()
    };
    crate::run_workload_opts(kernel.source, &opts, World::new(), &[kernel.size], profile)
}

/// bzip2: run-length + move-to-front style byte shuffling over a buffer.
pub const BZIP2: &str = "
    char data[4096];
    char table[256];
    int run(int n) {
        int i; int j; int acc = 0;
        for (i = 0; i < 256; i = i + 1) { table[i] = i; }
        for (i = 0; i < n * 64; i = i + 1) { data[i % 4096] = (i * 7 + 13) % 251; }
        for (j = 0; j < n; j = j + 1) {
            for (i = 0; i < 2048; i = i + 1) {
                int b = data[i];
                int t = table[b % 256];
                table[b % 256] = table[0];
                table[0] = t;
                acc = acc + t;
            }
        }
        return acc % 1000;
    }
";

/// gcc: pointer-heavy symbol-table style hashing and chaining.
pub const GCC: &str = "
    int table[1024];
    int next[1024];
    int run(int n) {
        int i; int j; int acc = 0;
        for (i = 0; i < 1024; i = i + 1) { table[i] = 0; next[i] = 0; }
        for (j = 0; j < n; j = j + 1) {
            for (i = 0; i < 512; i = i + 1) {
                int h = (i * 2654435761) % 1024;
                if (h < 0) { h = 0 - h; }
                table[h] = table[h] + i;
                next[h] = (next[h] + table[h]) % 65536;
                acc = acc + next[h];
            }
        }
        return acc % 1000;
    }
";

/// mcf: Bellman-Ford style relaxation over an array graph.
pub const MCF: &str = "
    int dist[512];
    int edge_to[1024];
    int edge_w[1024];
    int run(int n) {
        int i; int r;
        for (i = 0; i < 512; i = i + 1) { dist[i] = 1000000; }
        dist[0] = 0;
        for (i = 0; i < 1024; i = i + 1) {
            edge_to[i] = (i * 37 + 11) % 512;
            edge_w[i] = (i * 13) % 97 + 1;
        }
        for (r = 0; r < n; r = r + 1) {
            for (i = 0; i < 1024; i = i + 1) {
                int from = i % 512;
                int to = edge_to[i];
                int cand = dist[from] + edge_w[i];
                if (cand < dist[to]) { dist[to] = cand; }
            }
        }
        return dist[511] % 1000;
    }
";

/// gobmk: board scanning with small helper calls (call-heavy).
pub const GOBMK: &str = "
    char board[361];
    int liberties(int p) {
        int l = 0;
        if (p > 18) { if (board[p - 19] == 0) { l = l + 1; } }
        if (p < 342) { if (board[p + 19] == 0) { l = l + 1; } }
        if (p % 19 != 0) { if (board[p - 1] == 0) { l = l + 1; } }
        if (p % 19 != 18) { if (board[p + 1] == 0) { l = l + 1; } }
        return l;
    }
    int run(int n) {
        int g; int p; int acc = 0;
        for (p = 0; p < 361; p = p + 1) { board[p] = (p * 31) % 3; }
        for (g = 0; g < n; g = g + 1) {
            for (p = 0; p < 361; p = p + 1) {
                acc = acc + liberties(p);
            }
        }
        return acc % 1000;
    }
";

/// hmmer: Viterbi-like dynamic programming over two rows.
pub const HMMER: &str = "
    int prev[256];
    int cur[256];
    int run(int n) {
        int i; int t; int acc = 0;
        for (i = 0; i < 256; i = i + 1) { prev[i] = i % 7; }
        for (t = 0; t < n * 4; t = t + 1) {
            for (i = 1; i < 256; i = i + 1) {
                int stay = prev[i] + 3;
                int move = prev[i - 1] + (i % 5);
                if (move < stay) { cur[i] = move; } else { cur[i] = stay; }
            }
            for (i = 0; i < 256; i = i + 1) { prev[i] = cur[i]; }
            acc = acc + prev[255];
        }
        return acc % 1000;
    }
";

/// sjeng: recursive game-tree search with alternating min/max.
pub const SJENG: &str = "
    int eval(int pos) { return (pos * 2654435761) % 127 - 63; }
    int search(int pos, int depth, int maximize) {
        if (depth == 0) { return eval(pos); }
        int best;
        if (maximize) { best = 0 - 100000; } else { best = 100000; }
        int m;
        for (m = 0; m < 4; m = m + 1) {
            int child = pos * 4 + m + 1;
            int v = search(child, depth - 1, 1 - maximize);
            if (maximize) { if (v > best) { best = v; } }
            else { if (v < best) { best = v; } }
        }
        return best;
    }
    int run(int n) {
        int i; int acc = 0;
        for (i = 0; i < n; i = i + 1) {
            acc = acc + search(i, 6, 1);
        }
        return acc % 1000;
    }
";

/// libquantum: streaming bit-twiddling over a register array.
pub const LIBQUANTUM: &str = "
    int reg[2048];
    int run(int n) {
        int i; int r; int acc = 0;
        for (i = 0; i < 2048; i = i + 1) { reg[i] = i; }
        for (r = 0; r < n; r = r + 1) {
            for (i = 0; i < 2048; i = i + 1) {
                reg[i] = reg[i] ^ (1 << (r % 16));
                reg[i] = (reg[i] + (reg[i] >> 3)) & 1048575;
            }
            acc = acc + reg[r % 2048];
        }
        return acc % 1000;
    }
";

/// h264ref: sum-of-absolute-differences motion search over two frames.
pub const H264REF: &str = "
    char frame_a[4096];
    char frame_b[4096];
    int sad(int off_a, int off_b) {
        int i; int s = 0;
        for (i = 0; i < 64; i = i + 1) {
            int d = frame_a[off_a + i] - frame_b[off_b + i];
            if (d < 0) { d = 0 - d; }
            s = s + d;
        }
        return s;
    }
    int run(int n) {
        int i; int k; int best = 1000000;
        for (i = 0; i < 4096; i = i + 1) {
            frame_a[i] = (i * 7) % 255;
            frame_b[i] = (i * 11 + 3) % 255;
        }
        int acc = 0;
        for (k = 0; k < n; k = k + 1) {
            for (i = 0; i < 48; i = i + 1) {
                int s = sad((i * 64) % 4032, ((i + k) * 64) % 4032);
                if (s < best) { best = s; }
                acc = acc + s;
            }
        }
        return (acc + best) % 1000;
    }
";

/// milc / lbm: 1-D stencil sweeps with multiply-heavy updates and dynamic
/// allocation (exercises the custom allocator like the paper's milc does).
pub const MILC: &str = "
    extern int malloc_pub(int size);
    int run(int n) {
        int lattice = malloc_pub(8 * 1024);
        int scratch = malloc_pub(8 * 1024);
        int *a = (int *) lattice;
        int *b = (int *) scratch;
        int i; int r; int acc = 0;
        for (i = 0; i < 1024; i = i + 1) { a[i] = i % 97; }
        for (r = 0; r < n; r = r + 1) {
            for (i = 1; i < 1023; i = i + 1) {
                b[i] = (a[i - 1] * 3 + a[i] * 5 + a[i + 1] * 7) / 15;
            }
            for (i = 1; i < 1023; i = i + 1) { a[i] = b[i]; }
            acc = acc + a[512];
        }
        return acc % 1000;
    }
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_produce_identical_results_across_configs() {
        // Functional correctness: instrumentation must not change results.
        for kernel in &KERNELS[..3] {
            let mut small = *kernel;
            small.size = 4;
            let base = run(&small, Config::Base);
            let seg = run(&small, Config::OurSeg);
            assert_eq!(base.exit_code(), seg.exit_code(), "{}", kernel.name);
        }
    }

    #[test]
    fn instrumented_kernels_cost_more() {
        let mut k = KERNELS[0];
        k.size = 4;
        let base = run(&k, Config::Base).cycles();
        let mpx = run(&k, Config::OurMpx).cycles();
        assert!(mpx > base);
    }

    #[test]
    fn coalescing_strictly_reduces_checks_executed() {
        // The Section 5.1 claim, measured end-to-end on OurMPX: enabling
        // `mpx-coalesce-checks` strictly reduces the number of bound checks
        // the simulator executes.
        let without = "mpx-skip-stack-checks,mpx-fold-displacements";
        let with = confllvm_core::codegen::PIPELINE_MPX_PR1;
        for kernel in &KERNELS[..3] {
            let mut small = *kernel;
            small.size = 2;
            let off = run_with_passes(&small, Config::OurMpx, without, false);
            let on = run_with_passes(&small, Config::OurMpx, with, false);
            assert_eq!(off.exit_code(), on.exit_code(), "{}", kernel.name);
            assert!(
                on.result.checks_executed() < off.result.checks_executed(),
                "{}: {} !< {}",
                kernel.name,
                on.result.checks_executed(),
                off.result.checks_executed()
            );
        }
    }

    #[test]
    fn all_kernels_compile_and_run_baseline() {
        for kernel in KERNELS {
            let mut small = *kernel;
            small.size = 2;
            let r = run(&small, Config::Base);
            assert!(r.exit_code().is_some(), "{} failed", kernel.name);
        }
    }
}
