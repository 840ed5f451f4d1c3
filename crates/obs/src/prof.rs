//! The deterministic sampling profiler.
//!
//! Sampling is keyed to **simulated cycles**, not host time: the VM's block
//! engine asks the process-wide [`profiler`] once per thread run whether
//! sampling is on, and if so records one (stack, block, pending-check-site)
//! frame every `interval` virtual cycles at the block boundary that crosses
//! the sampling grid.  Because the grid lives in simulated time, two runs of
//! the same workload produce **byte-identical** profiles on any host — the
//! folded output and the derived tables are golden-able artifacts.
//!
//! The leak-safety rules of the recorder apply unchanged: every frame is a
//! `&'static` string obtained through [`intern`] (program symbols — function
//! names from compiled binaries), never runtime `World` bytes, and in debug
//! builds every interned name is scanned against the recorder's registered
//! private sentinels before it can enter a profile.
//!
//! Like the recorder, a disabled profiler is free on the hot path: the VM
//! performs one relaxed atomic load per thread run and one `Option` test per
//! block, and sampling never writes simulated state either way — profiled
//! and unprofiled runs have byte-identical observables and cycle counts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default sampling interval in simulated cycles.  A prime, so fixed-period
/// loops in the workloads cannot alias with the sampling grid and hide
/// entire blocks from every sample.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 4093;

/// `check_word` value meaning "no bound check pending at the sample".
pub const NO_CHECK: u32 = u32::MAX;

/// One aggregated sample bucket: everything that identifies where a sample
/// landed.  `Ord` on the fields (thread, then stack, then site) fixes the
/// export order, so every exporter inherits determinism from the map.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SampleKey {
    /// Deterministic VM thread id (0 for single-threaded runs).
    pub tid: u64,
    /// Call stack, outermost caller first, the sampled procedure last.
    /// Frames are interned `&'static` program symbols (see [`intern`]).
    pub stack: Vec<&'static str>,
    /// Code word of the sampled block's leader.
    pub block_word: u32,
    /// Code word of the bound check the sample landed on, or [`NO_CHECK`].
    pub check_word: u32,
    /// The sampled block is a loop head (a back-edge target) — the signal
    /// that a pending check there is a hoisting candidate.
    pub loop_head: bool,
}

/// The process-wide sampling profiler.  Disabled (and free) until a driver
/// (`repro --section profile`, a test) enables it.
pub struct Profiler {
    on: AtomicBool,
    interval: AtomicU64,
    data: Mutex<BTreeMap<SampleKey, u64>>,
}

static GLOBAL: OnceLock<Profiler> = OnceLock::new();

/// The process-wide profiler instance the VM samples into.
pub fn profiler() -> &'static Profiler {
    GLOBAL.get_or_init(Profiler::new)
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh, disabled profiler with the default interval.
    pub fn new() -> Self {
        Profiler {
            on: AtomicBool::new(false),
            interval: AtomicU64::new(DEFAULT_SAMPLE_INTERVAL),
            data: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether sampling is on — one relaxed load, asked once per VM thread
    /// run.
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turn sampling on or off.  Already-recorded samples are kept.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// The sampling interval in simulated cycles.
    pub fn interval(&self) -> u64 {
        self.interval.load(Ordering::Relaxed)
    }

    /// Change the sampling interval (simulated cycles between samples).
    ///
    /// # Panics
    /// A zero interval would sample every cycle forever.
    pub fn set_interval(&self, interval: u64) {
        assert!(interval > 0, "sampling interval must be positive");
        self.interval.store(interval, Ordering::Relaxed);
    }

    /// Discard every recorded sample.  The enabled flag and interval are
    /// untouched.
    pub fn clear(&self) {
        self.data.lock().expect("profiler samples poisoned").clear();
    }

    /// Fold a batch of raw samples in — one lock per VM thread run, not per
    /// sample.  Each key counts `n` samples.
    pub fn record_batch(&self, samples: impl IntoIterator<Item = (SampleKey, u64)>) {
        let mut data = self.data.lock().expect("profiler samples poisoned");
        for (key, n) in samples {
            *data.entry(key).or_insert(0) += n;
        }
    }

    /// Copy out everything sampled so far.
    pub fn snapshot(&self) -> Profile {
        Profile {
            interval: self.interval(),
            samples: self.data.lock().expect("profiler samples poisoned").clone(),
        }
    }

    /// [`Profiler::snapshot`] followed by [`Profiler::clear`] — the usual
    /// "one workload, one profile" driver step.
    pub fn take(&self) -> Profile {
        let p = self.snapshot();
        self.clear();
        p
    }
}

// --- interning ---------------------------------------------------------------

static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();

/// Intern a program symbol as a `&'static str` profile frame.  The set of
/// distinct symbols is bounded by the programs loaded into the process, so
/// the leak is bounded too; the same name interns to the same pointer.  In
/// debug builds the name is scanned against the recorder's registered
/// private sentinels first — runtime `World` bytes must never become a
/// frame, mirroring the [`crate::AttrValue`] rule for trace attributes.
pub fn intern(name: &str) -> &'static str {
    let set = INTERNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut set = set.lock().expect("profiler intern table poisoned");
    if let Some(&interned) = set.get(name) {
        return interned;
    }
    crate::recorder().debug_scan(name, "interned profile frame");
    let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(interned);
    interned
}

// --- profiles and exporters --------------------------------------------------

/// A consistent copy of the profiler's aggregated samples, with the
/// exporters on top.  Everything derives its order from the [`SampleKey`]
/// map, so every export is byte-deterministic.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Sampling interval (simulated cycles per sample) — one sample
    /// estimates `interval` cycles.
    pub interval: u64,
    pub samples: BTreeMap<SampleKey, u64>,
}

/// One procedure's row of the self/total table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcRow {
    pub name: &'static str,
    /// Samples whose innermost frame is this procedure.
    pub self_samples: u64,
    /// Samples with this procedure anywhere on the stack (counted once per
    /// sample).
    pub total_samples: u64,
}

/// One check site's row of the pending-check table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckRow {
    /// Code word of the bound check.
    pub check_word: u32,
    pub samples: u64,
    /// The enclosing block is a loop head.
    pub loop_head: bool,
}

/// Which eliminating pass (ROADMAP item 2b) a check site is a candidate
/// for: a check hot inside a loop head wants loop-invariant hoisting;
/// anything else is a cross-block / available-check elimination candidate.
pub fn candidate(loop_head: bool) -> &'static str {
    if loop_head {
        "hoist"
    } else {
        "cross-block"
    }
}

impl Profile {
    /// Total samples across every bucket.
    pub fn total_samples(&self) -> u64 {
        self.samples.values().sum()
    }

    /// Samples that landed on a pending bound check.
    pub fn check_samples(&self) -> u64 {
        self.samples
            .iter()
            .filter(|(k, _)| k.check_word != NO_CHECK)
            .map(|(_, n)| *n)
            .sum()
    }

    /// The collapsed-stack ("folded") export, one line per bucket:
    ///
    /// ```text
    /// tid0;main;inner;block_0x2a;check_0x30 17
    /// ```
    ///
    /// Frames are `;`-separated, the count follows a space — the format
    /// `flamegraph.pl` and every folded-stack consumer read directly.  The
    /// thread is the root frame; the sampled block (and, when present, the
    /// pending check site) are synthetic leaf frames.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (k, n) in &self.samples {
            out.push_str(&format!("tid{}", k.tid));
            for frame in &k.stack {
                out.push(';');
                out.push_str(frame);
            }
            out.push_str(&format!(";block_{:#x}", k.block_word));
            if k.check_word != NO_CHECK {
                out.push_str(&format!(";check_{:#x}", k.check_word));
            }
            out.push_str(&format!(" {n}\n"));
        }
        out
    }

    /// Per-procedure self/total sample counts, hottest self first (ties
    /// break on the name, so the order is total).
    pub fn proc_rows(&self) -> Vec<ProcRow> {
        let mut self_of: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut total_of: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (k, n) in &self.samples {
            if let Some(leaf) = k.stack.last() {
                *self_of.entry(leaf).or_insert(0) += n;
            }
            let mut seen: Vec<&'static str> = Vec::new();
            for frame in &k.stack {
                if !seen.contains(frame) {
                    seen.push(frame);
                    *total_of.entry(frame).or_insert(0) += n;
                }
            }
        }
        let mut rows: Vec<ProcRow> = total_of
            .iter()
            .map(|(&name, &total)| ProcRow {
                name,
                self_samples: self_of.get(name).copied().unwrap_or(0),
                total_samples: total,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.self_samples
                .cmp(&a.self_samples)
                .then_with(|| a.name.cmp(b.name))
        });
        rows
    }

    /// Per-check-site sample counts, hottest first (ties break on the
    /// word), with the eliminating-pass candidate column — the ranked
    /// worklist for ROADMAP item 2b.
    pub fn check_rows(&self) -> Vec<CheckRow> {
        let mut by_site: BTreeMap<u32, (u64, bool)> = BTreeMap::new();
        for (k, n) in &self.samples {
            if k.check_word == NO_CHECK {
                continue;
            }
            let entry = by_site.entry(k.check_word).or_insert((0, false));
            entry.0 += n;
            entry.1 |= k.loop_head;
        }
        let mut rows: Vec<CheckRow> = by_site
            .iter()
            .map(|(&check_word, &(samples, loop_head))| CheckRow {
                check_word,
                samples,
                loop_head,
            })
            .collect();
        rows.sort_by(|a, b| {
            b.samples
                .cmp(&a.samples)
                .then_with(|| a.check_word.cmp(&b.check_word))
        });
        rows
    }

    /// Diff against another profile of the *same workload* under a
    /// different configuration: where did the cycles go?
    pub fn diff(&self, other: &Profile, label_a: &str, label_b: &str) -> ProfileDiff {
        let mut sites: BTreeMap<u32, (u64, u64, bool)> = BTreeMap::new();
        for r in self.check_rows() {
            let e = sites.entry(r.check_word).or_insert((0, 0, false));
            e.0 = r.samples;
            e.2 |= r.loop_head;
        }
        for r in other.check_rows() {
            let e = sites.entry(r.check_word).or_insert((0, 0, false));
            e.1 = r.samples;
            e.2 |= r.loop_head;
        }
        let mut procs: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for r in self.proc_rows() {
            procs.entry(r.name).or_insert((0, 0)).0 = r.self_samples;
        }
        for r in other.proc_rows() {
            procs.entry(r.name).or_insert((0, 0)).1 = r.self_samples;
        }
        ProfileDiff {
            label_a: label_a.to_owned(),
            label_b: label_b.to_owned(),
            interval: self.interval,
            total_a: self.total_samples(),
            total_b: other.total_samples(),
            check_a: self.check_samples(),
            check_b: other.check_samples(),
            sites: sites
                .into_iter()
                .map(|(check_word, (a, b, loop_head))| SiteDiff {
                    check_word,
                    samples_a: a,
                    samples_b: b,
                    loop_head,
                })
                .collect(),
            procs: procs
                .into_iter()
                .map(|(name, (a, b))| ProcDiff {
                    name,
                    self_a: a,
                    self_b: b,
                })
                .collect(),
        }
    }
}

/// One check site's side-by-side sample counts in a [`ProfileDiff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteDiff {
    pub check_word: u32,
    pub samples_a: u64,
    pub samples_b: u64,
    pub loop_head: bool,
}

/// One procedure's side-by-side self-sample counts in a [`ProfileDiff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcDiff {
    pub name: &'static str,
    pub self_a: u64,
    pub self_b: u64,
}

/// The differential profile: the same workload under two configurations
/// (e.g. the full pass pipeline vs PR-1), reporting where the eliminated
/// checks' cycles went.
#[derive(Debug, Clone)]
pub struct ProfileDiff {
    pub label_a: String,
    pub label_b: String,
    pub interval: u64,
    pub total_a: u64,
    pub total_b: u64,
    pub check_a: u64,
    pub check_b: u64,
    /// Per-check-site counts, keyed ascending by word.
    pub sites: Vec<SiteDiff>,
    /// Per-procedure self counts, keyed ascending by name.
    pub procs: Vec<ProcDiff>,
}

impl ProfileDiff {
    /// Render as an aligned text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== profile diff — {} vs {} ({} cycles/sample)\n",
            self.label_a, self.label_b, self.interval
        ));
        out.push_str(&format!(
            "total samples: {} vs {} ({:+})\n",
            self.total_a,
            self.total_b,
            self.total_b as i64 - self.total_a as i64
        ));
        out.push_str(&format!(
            "check samples: {} vs {} ({:+})\n",
            self.check_a,
            self.check_b,
            self.check_b as i64 - self.check_a as i64
        ));
        let mut sites = self.sites.clone();
        sites.sort_by(|x, y| {
            let dx = x.samples_a as i64 - x.samples_b as i64;
            let dy = y.samples_a as i64 - y.samples_b as i64;
            dy.cmp(&dx).then_with(|| x.check_word.cmp(&y.check_word))
        });
        for s in &sites {
            out.push_str(&format!(
                "  check_{:<10}{:>8}{:>8}  ({:+})  [{}]\n",
                format!("{:#x}", s.check_word),
                s.samples_a,
                s.samples_b,
                s.samples_b as i64 - s.samples_a as i64,
                candidate(s.loop_head),
            ));
        }
        let mut procs = self.procs.clone();
        procs.sort_by(|x, y| {
            let dx = x.self_b as i64 - x.self_a as i64;
            let dy = y.self_b as i64 - y.self_a as i64;
            dy.cmp(&dx).then_with(|| x.name.cmp(y.name))
        });
        for p in &procs {
            out.push_str(&format!(
                "  {:<16}{:>8}{:>8}  ({:+})\n",
                p.name,
                p.self_a,
                p.self_b,
                p.self_b as i64 - p.self_a as i64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(stack: &[&'static str], block: u32, check: u32, loop_head: bool) -> SampleKey {
        SampleKey {
            tid: 0,
            stack: stack.to_vec(),
            block_word: block,
            check_word: check,
            loop_head,
        }
    }

    #[test]
    fn intern_dedups_to_one_pointer() {
        let a = intern("some_function");
        let b = intern(&String::from("some_function"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn disabled_profiler_is_off_and_empty() {
        let p = Profiler::new();
        assert!(!p.enabled());
        assert_eq!(p.snapshot().total_samples(), 0);
    }

    #[test]
    fn batches_aggregate_and_export_deterministically() {
        let p = Profiler::new();
        p.set_interval(100);
        let k1 = key(&["main", "inner"], 0x10, 0x14, true);
        let k2 = key(&["main"], 0x2, NO_CHECK, false);
        p.record_batch([(k1.clone(), 3), (k2.clone(), 2)]);
        p.record_batch([(k1.clone(), 1)]);
        let prof = p.take();
        assert_eq!(prof.total_samples(), 6);
        assert_eq!(prof.check_samples(), 4);
        assert_eq!(prof.interval, 100);
        let folded = prof.folded();
        assert_eq!(
            folded,
            "tid0;main;block_0x2 2\ntid0;main;inner;block_0x10;check_0x14 4\n"
        );
        let procs = prof.proc_rows();
        assert_eq!(procs[0].name, "inner");
        assert_eq!(procs[0].self_samples, 4);
        assert_eq!(procs[0].total_samples, 4);
        let main = procs.iter().find(|r| r.name == "main").unwrap();
        assert_eq!(main.self_samples, 2);
        assert_eq!(main.total_samples, 6);
        let checks = prof.check_rows();
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].check_word, 0x14);
        assert_eq!(checks[0].samples, 4);
        assert_eq!(candidate(checks[0].loop_head), "hoist");
        // Taking drained the buckets.
        assert_eq!(p.snapshot().total_samples(), 0);
    }

    #[test]
    fn recursive_stacks_count_total_once_per_sample() {
        let p = Profiler::new();
        p.record_batch([(key(&["f", "f", "f"], 0, NO_CHECK, false), 5)]);
        let rows = p.take().proc_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].total_samples, 5, "not once per frame");
        assert_eq!(rows[0].self_samples, 5);
    }

    #[test]
    fn diff_reports_site_and_proc_deltas() {
        let a = Profiler::new();
        a.record_batch([
            (key(&["main", "hot"], 0x10, 0x14, true), 10),
            (key(&["main"], 0x2, NO_CHECK, false), 4),
        ]);
        let a = a.take();
        let b = Profiler::new();
        b.record_batch([(key(&["main"], 0x2, NO_CHECK, false), 5)]);
        let b = b.take();
        let d = a.diff(&b, "pr1", "full");
        assert_eq!((d.total_a, d.total_b), (14, 5));
        assert_eq!((d.check_a, d.check_b), (10, 0));
        assert_eq!(d.sites.len(), 1);
        assert_eq!(d.sites[0].samples_a, 10);
        assert_eq!(d.sites[0].samples_b, 0);
        assert!(d.sites[0].loop_head);
        let rendered = d.render();
        assert!(rendered.contains("pr1 vs full"));
        assert!(rendered.contains("check_0x14"));
        assert!(rendered.contains("[hoist]"));
    }

    #[test]
    fn candidate_column_distinguishes_loop_heads() {
        assert_eq!(candidate(true), "hoist");
        assert_eq!(candidate(false), "cross-block");
    }
}
