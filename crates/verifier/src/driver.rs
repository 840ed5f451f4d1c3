//! The verification driver: serial or work-queue-parallel over procedures,
//! optionally backed by a [`VerifyCache`], plus the fleet driver that
//! schedules many binaries over one worker pool.
//!
//! ConfVerify's per-procedure scan reads only shared immutable state (see
//! [`crate::check`]), so the parallel driver is a plain work queue: an atomic
//! index over the procedure list, one checker per worker, outcomes merged in
//! procedure order so the result — errors, counters, everything — is
//! byte-identical to the serial scan regardless of thread count.
//!
//! Timing note: besides host wall time, the fleet driver reports
//! *work/makespan* accounting (total per-task busy time and the maximum
//! per-worker busy time).  Wall time on a loaded or single-core CI box
//! under-reports parallelism; the makespan is the schedule the work queue
//! actually produced and is what the `verify_scale` figures quote, in the
//! same spirit as the simulator quoting simulated cycles rather than host
//! seconds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use confllvm_machine::Binary;

use crate::cache::{binary_content_hash, header_ctx_hash, proc_content_hash, VerifyCache};
use crate::check::{check_procedure, Proc, ProcOutcome, Shared};
use crate::{VerifyError, VerifyReport};

/// How to run verification.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Worker threads for the per-procedure work queue; `1` is the serial
    /// scan.
    pub threads: usize,
}

impl VerifyOptions {
    /// The serial single-threaded scan (what [`crate::verify`] runs).
    pub fn serial() -> Self {
        VerifyOptions { threads: 1 }
    }

    /// Exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        VerifyOptions { threads }
    }
}

/// Run `task(index, item)` for every item over `workers` scoped threads
/// that claim indices from one atomic cursor, and return the results in
/// input order.  The cursor publishes nothing but the index, so `Relaxed`
/// suffices; each result lands in its own slot.
fn work_queue<T, R, F>(items: &[T], workers: usize, task: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = task(i, item);
                assert!(slots[i].set(out).is_ok(), "each slot is claimed once");
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("every item was run"))
        .collect()
}

/// Verify a binary under explicit options, optionally consulting (and
/// filling) a content-hash cache.  Produces exactly the result of
/// [`crate::verify`]: same report counters, same errors in the same order.
pub fn verify_with(
    binary: &Binary,
    opts: &VerifyOptions,
    cache: Option<&VerifyCache>,
) -> Result<VerifyReport, Vec<VerifyError>> {
    let rec = confllvm_obs::recorder();
    let mut obs_span = rec.span("verifier", "verify.binary");
    let binary_key = cache.map(|c| (c, binary_content_hash(binary)));
    if let Some((c, key)) = binary_key {
        if let Some(mut cached) = c.lookup_binary(key) {
            if let Ok(report) = &mut cached {
                report.cached_procedures = report.procedures;
            }
            rec.count("verify.cache.binary_hits", 1);
            if obs_span.active() {
                obs_span.attr("cached", true);
                obs_span.attr("accepted", cached.is_ok());
            }
            return cached;
        }
        rec.count("verify.cache.binary_misses", 1);
    }
    let shared = Shared::new(binary)?;
    let procs = shared.discover_procedures();
    let mut errors = Vec::new();
    let mut report = VerifyReport::default();
    if procs.is_empty() {
        errors.push(VerifyError {
            word: 0,
            message: "no procedures found (no call magic words)".to_string(),
        });
    }
    let outcomes = run_procs(&shared, &procs, opts.threads, cache);
    for (outcome, was_hit) in outcomes {
        report.absorb(&outcome.report);
        if was_hit {
            report.cached_procedures += 1;
        }
        errors.extend(outcome.errors);
    }
    let result = if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
    };
    if let Some((c, key)) = binary_key {
        c.store_binary(key, &result);
    }
    if obs_span.active() {
        obs_span.attr("cached", false);
        obs_span.attr("procedures", procs.len());
        obs_span.attr("accepted", result.is_ok());
    }
    result
}

/// Check every procedure, serially or over a work queue.  Returns outcomes
/// in procedure order with a was-cache-hit flag each.
///
/// With the recorder enabled, each procedure records a `verifier`-layer
/// span (magic word, cache hit, error count) and the cache lookups feed
/// the `verify.cache.proc_*` counters; the parallel path additionally
/// accounts each task's wait between queue creation and pickup under
/// `verify.queue_wait_nanos`.
fn run_procs(
    shared: &Shared<'_>,
    procs: &[Proc],
    threads: usize,
    cache: Option<&VerifyCache>,
) -> Vec<(ProcOutcome, bool)> {
    let rec = confllvm_obs::recorder();
    let header_ctx = cache.map(|_| header_ctx_hash(&shared.binary.header));
    let check_one = |p: &Proc| -> (ProcOutcome, bool) {
        let mut span = rec.span("verifier", "verify.proc");
        let (outcome, was_hit) = if let (Some(c), Some(ctx)) = (cache, header_ctx) {
            let key = proc_content_hash(shared, p, ctx);
            if let Some(hit) = c.lookup_proc(key, p.magic_word) {
                rec.count("verify.cache.proc_hits", 1);
                (hit, true)
            } else {
                rec.count("verify.cache.proc_misses", 1);
                let outcome = check_procedure(shared, p);
                c.store_proc(key, p.magic_word, &outcome);
                (outcome, false)
            }
        } else {
            (check_procedure(shared, p), false)
        };
        if span.active() {
            span.attr("magic_word", p.magic_word);
            span.attr("cache_hit", was_hit);
            span.attr("errors", outcome.errors.len());
        }
        (outcome, was_hit)
    };
    let workers = threads.max(1).min(procs.len().max(1));
    if workers <= 1 {
        return procs.iter().map(check_one).collect();
    }
    // Queue-wait accounting: time from queue creation to each task's
    // pickup.  Only sampled when tracing, so the untraced hot path never
    // reads the clock.
    let queued_at = rec.enabled().then(Instant::now);
    work_queue(procs, workers, |_, p| {
        if let Some(t0) = queued_at {
            rec.count("verify.queue_tasks", 1);
            rec.count("verify.queue_wait_nanos", t0.elapsed().as_nanos() as u64);
        }
        check_one(p)
    })
}

/// What verifying a fleet of binaries cost and produced.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-binary results, in input order.
    pub results: Vec<Result<VerifyReport, Vec<VerifyError>>>,
    /// Host wall time for the whole fleet, microseconds.
    pub wall_micros: u128,
    /// Sum of every task's measured busy time — the serial cost of the
    /// schedule's work.
    pub total_task_micros: u128,
    /// Makespan of the greedy work-queue schedule of the measured task times
    /// over the workers — what the fleet costs once each worker runs on its
    /// own core.  (Host wall time on a shared or single-core box mixes in
    /// scheduler noise; this is the schedule the queue actually computes.)
    pub makespan_micros: u128,
    /// Workers the queue ran with.
    pub threads: usize,
}

impl FleetReport {
    /// How many binaries were verifier-accepted.
    pub fn accepted(&self) -> usize {
        self.results.iter().filter(|r| r.is_ok()).count()
    }

    /// Work/makespan speedup of the schedule over the serial scan (1.0 for a
    /// single worker).
    pub fn modeled_speedup(&self) -> f64 {
        if self.makespan_micros == 0 {
            return 1.0;
        }
        self.total_task_micros as f64 / self.makespan_micros as f64
    }
}

/// Verify many binaries over one work queue (one task per binary; each task
/// runs the serial per-procedure scan so binary-level parallelism composes
/// with, rather than fights, the per-binary queue).  Results come back in
/// input order; per-worker busy times feed the makespan accounting.
pub fn verify_fleet(
    binaries: &[&Binary],
    opts: &VerifyOptions,
    cache: Option<&VerifyCache>,
) -> FleetReport {
    let workers = opts.threads.max(1).min(binaries.len().max(1));
    let started = Instant::now();
    let done = work_queue(binaries, workers, |i, binary| {
        let mut span = confllvm_obs::recorder().span("verifier", "verify.fleet_task");
        let t0 = Instant::now();
        let result = verify_with(binary, &VerifyOptions::serial(), cache);
        let micros = t0.elapsed().as_micros();
        if span.active() {
            span.attr("task", i);
            span.attr("accepted", result.is_ok());
        }
        (result, micros)
    });
    let wall_micros = started.elapsed().as_micros();
    let (results, task_micros): (Vec<_>, Vec<u128>) = done.into_iter().unzip();
    let total_task_micros: u128 = task_micros.iter().sum();
    // Greedy queue schedule: each task goes to the worker that frees up
    // first, exactly the assignment the work queue makes when every worker
    // has its own core.
    let mut loads = vec![0u128; workers];
    for &t in &task_micros {
        if let Some(min) = loads.iter_mut().min() {
            *min += t;
        }
    }
    let makespan_micros = loads.into_iter().max().unwrap_or(0);
    FleetReport {
        results,
        wall_micros,
        total_task_micros,
        makespan_micros,
        threads: workers,
    }
}
