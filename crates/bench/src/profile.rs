//! The `profile` section: the deterministic sampling profiler over the
//! SPEC stand-ins and the serving workloads.
//!
//! Every SPEC kernel runs under OurMPX twice — once with the PR-1 machine
//! pipeline (the Section 5.1 trio) and once with the full pipeline (plus
//! loop-invariant hoisting and cross-block elimination) — with the sampling
//! profiler on, and the two profiles are diffed: the per-check-site tables
//! show exactly which pending-check cycles the extra passes deleted, ranked
//! hottest first with the eliminating-pass candidate column (`hoist` for
//! loop-head sites, `cross-block` otherwise).  NGINX and LDAP additionally
//! run through the real serving path under the profiler, so server-side
//! stacks (request handlers over the trusted interface) appear in the
//! folded export too.
//!
//! The section asserts its own acceptance bounds:
//!
//! * **determinism** — running the same kernel twice yields byte-identical
//!   folded output (the sampling grid lives in simulated cycles);
//! * **zero perturbation** — a profiled run's `ExecStats` equal the
//!   unprofiled run's, field for field;
//! * **ranking consistency** — on every kernel the full pipeline improves
//!   (fewer executed checks *and* fewer cycles), the profiler sees the
//!   deletion: check-site samples do not increase, and they strictly drop
//!   in aggregate.
//!
//! Everything in `BENCH_profile.json` is integer sample/check/cycle
//! arithmetic over simulated time, so the file is exact-diffed against its
//! golden copy; the run prints the hottest kernel's differential report.

use confllvm_core::codegen::{PIPELINE_MPX_FULL, PIPELINE_MPX_PR1};
use confllvm_core::Config;
use confllvm_obs::{profiler, Profile};
use confllvm_server::ExecMode;
use confllvm_workloads::spec;

use crate::{server_for, server_sessions, BenchJson, ServerLoad};

/// Sampling interval for the section, simulated cycles.  Smaller than the
/// profiler's default so even `--quick` kernel runs collect a dense,
/// stable sample population; still prime, so fixed-period loops cannot
/// alias with the grid.
pub const PROFILE_INTERVAL: u64 = 509;

/// One kernel's profiled pipeline comparison.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    pub workload: &'static str,
    /// Total / pending-check samples under each pipeline.
    pub samples_pr1: u64,
    pub samples_full: u64,
    pub check_samples_pr1: u64,
    pub check_samples_full: u64,
    /// Distinct sampled check sites under each pipeline.
    pub sites_pr1: usize,
    pub sites_full: usize,
    /// Hottest sampled check site under PR-1 (`-1` if none sampled) and
    /// whether its block is a loop head (a hoisting candidate).
    pub top_check_word_pr1: i64,
    pub top_check_is_loop_head: bool,
    /// Ground truth from the same runs: executed checks and simulated
    /// cycles, the `ablation_passes` numbers.
    pub checks_pr1: u64,
    pub checks_full: u64,
    pub cycles_pr1: u64,
    pub cycles_full: u64,
}

impl ProfileRow {
    /// Did the full pipeline strictly reduce both executed checks and
    /// cycles (the `ablation_passes` improvement predicate)?
    pub fn improved(&self) -> bool {
        self.checks_full < self.checks_pr1 && self.cycles_full < self.cycles_pr1
    }
}

/// One serving workload's profile summary (single configuration).
#[derive(Debug, Clone)]
pub struct ServerProfileRow {
    pub workload: &'static str,
    pub samples: u64,
    pub check_samples: u64,
    /// Distinct sampled check sites.
    pub sites: usize,
    /// Distinct procedures on sampled stacks.
    pub procs: usize,
}

/// The whole section.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    pub quick: bool,
    /// Simulated cycles per sample.
    pub interval: u64,
    pub rows: Vec<ProfileRow>,
    pub server: Vec<ServerProfileRow>,
    /// Kernels the full pipeline improved (checks and cycles both down).
    pub improved: usize,
    /// The hottest improved kernel's differential report, PR-1 vs full.
    pub diff_render: String,
    /// Combined folded-stack export of every full-pipeline kernel run and
    /// both serving runs, each line prefixed with the workload name as the
    /// root frame — feed it to `flamegraph.pl` directly.
    pub folded: String,
}

/// Serialises the section's use of the process-wide profiler sink, so the
/// byte-exactness assertions hold even when tests run it concurrently.
static PROFILE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run `f` — whose VMs must opt in via `VmOptions::profile` — against a
/// clean profiler sink at [`PROFILE_INTERVAL`] and hand back its result
/// plus the profile of exactly that run.
fn profiled<T>(f: impl FnOnce() -> T) -> (T, Profile) {
    let p = profiler();
    p.clear();
    p.set_interval(PROFILE_INTERVAL);
    let out = f();
    (out, p.take())
}

/// Prefix every folded line with `root;` — the flamegraph idiom for
/// merging several workloads into one export without colliding frames.
fn reroot_folded(root: &str, folded: &str) -> String {
    folded
        .lines()
        .map(|l| format!("{root};{l}\n"))
        .collect::<String>()
}

fn kernel_size(kernel: &spec::SpecKernel, scale: i64) -> spec::SpecKernel {
    let mut k = *kernel;
    k.size = (k.size / scale.max(1)).max(2);
    k
}

/// Run the section.  `scale` divides every kernel's problem size, exactly
/// like the `ablation_passes` section (`--quick` passes 8).
pub fn profile_report(quick: bool) -> ProfileReport {
    let _serial = PROFILE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scale = if quick { 8 } else { 1 };
    let mut rows = Vec::new();
    let mut folded = String::new();
    let mut hottest: Option<(u64, String)> = None;

    // Determinism and zero-perturbation gates, on the first kernel: two
    // profiled runs fold byte-identically, and an unprofiled run's stats
    // equal the profiled ones field for field.
    {
        let k = kernel_size(&spec::KERNELS[0], scale);
        let (run_a, prof_a) = profiled(|| {
            spec::run_with_passes_profiled(&k, Config::OurMpx, PIPELINE_MPX_FULL, true)
        });
        let (run_b, prof_b) = profiled(|| {
            spec::run_with_passes_profiled(&k, Config::OurMpx, PIPELINE_MPX_FULL, true)
        });
        assert_eq!(
            prof_a.folded(),
            prof_b.folded(),
            "two profiled runs of the same kernel must fold byte-identically"
        );
        let bare = spec::run_with_passes(&k, Config::OurMpx, PIPELINE_MPX_FULL);
        assert_eq!(
            run_a.result.stats, bare.result.stats,
            "sampling must not perturb simulated execution"
        );
        assert_eq!(run_a.exit_code(), run_b.exit_code());
        assert!(
            prof_a.total_samples() > 0,
            "the kernel must collect samples"
        );
    }

    for kernel in spec::KERNELS {
        let k = kernel_size(kernel, scale);
        let (pr1, prof_pr1) =
            profiled(|| spec::run_with_passes_profiled(&k, Config::OurMpx, PIPELINE_MPX_PR1, true));
        let (full, prof_full) = profiled(|| {
            spec::run_with_passes_profiled(&k, Config::OurMpx, PIPELINE_MPX_FULL, true)
        });
        assert_eq!(
            pr1.exit_code(),
            full.exit_code(),
            "{}: pipelines must not change results",
            kernel.name
        );
        let top = prof_pr1.check_rows().into_iter().next();
        let row = ProfileRow {
            workload: kernel.name,
            samples_pr1: prof_pr1.total_samples(),
            samples_full: prof_full.total_samples(),
            check_samples_pr1: prof_pr1.check_samples(),
            check_samples_full: prof_full.check_samples(),
            sites_pr1: prof_pr1.check_rows().len(),
            sites_full: prof_full.check_rows().len(),
            top_check_word_pr1: top.as_ref().map_or(-1, |r| r.check_word as i64),
            top_check_is_loop_head: top.as_ref().is_some_and(|r| r.loop_head),
            checks_pr1: pr1.result.checks_executed(),
            checks_full: full.result.checks_executed(),
            cycles_pr1: pr1.result.cycles(),
            cycles_full: full.result.cycles(),
        };
        if row.improved() {
            let delta = row.check_samples_pr1 - row.check_samples_full.min(row.check_samples_pr1);
            let diff = prof_pr1.diff(&prof_full, "pr1", "full");
            if hottest.as_ref().is_none_or(|(d, _)| delta > *d) {
                hottest = Some((delta, format!("{}:\n{}", kernel.name, diff.render())));
            }
        }
        folded.push_str(&reroot_folded(kernel.name, &prof_full.folded()));
        rows.push(row);
    }

    // Ranking consistency against the ablation ground truth: wherever the
    // full pipeline deleted checks, the profiler's check-site samples do
    // not increase — and across all improved kernels they strictly drop.
    let improved = rows.iter().filter(|r| r.improved()).count();
    assert!(
        improved >= 3,
        "the full pipeline must improve at least three kernels (got {improved})"
    );
    let (mut agg_pr1, mut agg_full) = (0u64, 0u64);
    for r in rows.iter().filter(|r| r.improved()) {
        assert!(
            r.check_samples_full <= r.check_samples_pr1,
            "{}: full pipeline deleted checks but check samples rose ({} -> {})",
            r.workload,
            r.check_samples_pr1,
            r.check_samples_full
        );
        agg_pr1 += r.check_samples_pr1;
        agg_full += r.check_samples_full;
    }
    assert!(
        agg_full < agg_pr1,
        "across improved kernels check samples must strictly drop ({agg_pr1} -> {agg_full})"
    );

    // The serving workloads, through the real registry + pool + serve path.
    let mut server_rows = Vec::new();
    for workload in ["nginx", "ldap"] {
        let load = ServerLoad::quick();
        let (mut server, binary) = server_for(workload, Config::OurMpx, &load);
        // Per-VM opt-in: the version template (and every session instance
        // forked from it) collects samples; unrelated VMs stay silent.
        server.config.vm.profile = true;
        let sessions = server_sessions(workload, &load);
        let (report, prof) = profiled(|| {
            server
                .serve(binary, &sessions, ExecMode::Pooled)
                .unwrap_or_else(|e| panic!("{workload} serve under profiler: {e}"))
        });
        assert!(report.metrics.requests > 0);
        assert!(
            prof.total_samples() > 0,
            "{workload}: the serving run must collect samples"
        );
        folded.push_str(&reroot_folded(workload, &prof.folded()));
        server_rows.push(ServerProfileRow {
            workload: if workload == "nginx" { "nginx" } else { "ldap" },
            samples: prof.total_samples(),
            check_samples: prof.check_samples(),
            sites: prof.check_rows().len(),
            procs: prof.proc_rows().len(),
        });
    }

    ProfileReport {
        quick,
        interval: PROFILE_INTERVAL,
        improved,
        diff_render: hottest.map(|(_, s)| s).unwrap_or_default(),
        rows,
        server: server_rows,
        folded,
    }
}

/// Render the section as aligned text tables plus the hottest kernel's
/// differential report.
pub fn render_profile(r: &ProfileReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== Profile — deterministic sampling profiler, {} cycles/sample (pr1 vs full pipeline on OurMPX)\n",
        r.interval
    ));
    out.push_str(&format!(
        "{:<12}{:>10}{:>10}{:>10}{:>10}{:>7}{:>7}{:>14}  candidate\n",
        "", "smp pr1", "smp full", "chk pr1", "chk full", "sites", "sites", "top site",
    ));
    for p in &r.rows {
        let site = if p.top_check_word_pr1 < 0 {
            "-".to_string()
        } else {
            format!("check_{:#x}", p.top_check_word_pr1)
        };
        out.push_str(&format!(
            "{:<12}{:>10}{:>10}{:>10}{:>10}{:>7}{:>7}{:>14}  {}\n",
            p.workload,
            p.samples_pr1,
            p.samples_full,
            p.check_samples_pr1,
            p.check_samples_full,
            p.sites_pr1,
            p.sites_full,
            site,
            if p.top_check_word_pr1 < 0 {
                "-"
            } else if p.top_check_is_loop_head {
                "hoist"
            } else {
                "cross-block"
            },
        ));
    }
    out.push_str(&format!(
        "   {} of {} kernels improved by the full pipeline; serving runs:\n",
        r.improved,
        r.rows.len()
    ));
    for s in &r.server {
        out.push_str(&format!(
            "   {:<10}{:>8} samples, {:>6} on checks, {:>3} sites, {:>3} procedures\n",
            s.workload, s.samples, s.check_samples, s.sites, s.procs
        ));
    }
    if !r.diff_render.is_empty() {
        out.push_str("\nhottest improved kernel, where the deleted checks' cycles went — ");
        out.push_str(&r.diff_render);
    }
    out
}

/// The section's BENCH document.  Every key is deterministic
/// sample/check/cycle arithmetic in simulated time, so the whole file
/// exact-diffs against its golden copy.
pub fn profile_json(r: &ProfileReport) -> BenchJson {
    let mut json = BenchJson::new("profile", r.quick);
    json.plain("interval", r.interval)
        .plain("rows", r.rows.len())
        .plain("improved", r.improved);
    for p in &r.rows {
        let k = p.workload;
        json.plain(format_args!("{k}.samples_pr1"), p.samples_pr1)
            .plain(format_args!("{k}.samples_full"), p.samples_full)
            .plain(format_args!("{k}.check_samples_pr1"), p.check_samples_pr1)
            .plain(format_args!("{k}.check_samples_full"), p.check_samples_full)
            .plain(format_args!("{k}.sites_pr1"), p.sites_pr1)
            .plain(format_args!("{k}.sites_full"), p.sites_full)
            .plain(format_args!("{k}.top_check_word_pr1"), p.top_check_word_pr1)
            .plain(format_args!("{k}.checks_pr1"), p.checks_pr1)
            .plain(format_args!("{k}.checks_full"), p.checks_full)
            .plain(format_args!("{k}.cycles_pr1"), p.cycles_pr1)
            .plain(format_args!("{k}.cycles_full"), p.cycles_full);
    }
    for srv in &r.server {
        let k = srv.workload;
        json.plain(format_args!("{k}.samples"), srv.samples)
            .plain(format_args!("{k}.check_samples"), srv.check_samples)
            .plain(format_args!("{k}.sites"), srv.sites)
            .plain(format_args!("{k}.procs"), srv.procs);
    }
    json.plain("folded.lines", r.folded.lines().count())
        .plain("folded.bytes", r.folded.len());
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_section_is_deterministic_and_diffs_cleanly() {
        // profile_report asserts internally: byte-identical double-run
        // folded output, zero perturbation of ExecStats, >= 3 improved
        // kernels with non-increasing check samples.
        let a = profile_report(true);
        let b = profile_report(true);
        assert_eq!(a.folded, b.folded, "the combined export must be stable");
        let json = profile_json(&a).to_string();
        assert_eq!(
            json,
            profile_json(&b).to_string(),
            "the JSON must be byte-stable"
        );
        let errors = crate::bench_json::diff_bench_json(&json, &json).unwrap();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn folded_export_is_flamegraph_shaped() {
        let r = profile_report(true);
        assert!(!r.folded.is_empty());
        for line in r.folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("`frames count` shape");
            assert!(
                count.parse::<u64>().is_ok(),
                "count must be integer: {line}"
            );
            assert!(
                stack.split(';').count() >= 3,
                "workload;tidN;...;block frames expected: {line}"
            );
        }
        // Both serving workloads and at least one kernel appear as roots.
        assert!(r.folded.lines().any(|l| l.starts_with("nginx;")));
        assert!(r.folded.lines().any(|l| l.starts_with("ldap;")));
        assert!(r.folded.lines().any(|l| l.starts_with("bzip2;")));
    }

    #[test]
    fn check_sites_survive_into_rows() {
        let r = profile_report(true);
        // At least one kernel must sample a pending check under PR-1 —
        // otherwise the ranking the section exists to produce is empty.
        assert!(
            r.rows.iter().any(|p| p.top_check_word_pr1 >= 0),
            "no kernel sampled a check site"
        );
        assert!(r.rows.iter().any(|p| p.check_samples_pr1 > 0));
        assert!(render_profile(&r).contains("cycles/sample"));
    }
}
