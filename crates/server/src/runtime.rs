//! The service runtime: registry + snapshot store + worker threads.
//!
//! [`Server::serve`] drives many concurrent sessions' request streams
//! against one registered binary, addressed by its [`BinaryId`] handle.
//! Workers claim sessions one at a time from a shared cursor over the
//! session list, so a slow session never strands the sessions behind it:
//! whichever worker frees up first takes the next one.  The calling thread
//! is one of the workers and spawns the others, at most one fewer than
//! there are sessions, so a call that serves one session starts no thread.
//! A session's VM lives on the worker running it, for the length of its
//! stream (VMs are plain `Send` state, nothing is shared mutably across
//! workers), so the simulation stays deterministic per session while the
//! host-side work is genuinely parallel.
//!
//! Per-session VMs are copy-on-write forks of a per-version
//! [`SessionTemplate`] kept in the server's [`SnapshotStore`] — the binary
//! is loaded once per *version*, not per session or per worker, and
//! sessions share its clean pages.
//!
//! Every session *pins* the binary's active version at session start
//! ([`Registry::checkout_active`]) and releases it when its stream ends, so
//! a blue/green promotion that lands mid-serve only affects sessions that
//! start after it — in-flight sessions finish on the version they began
//! with, and the drained old version retires once the last session ends and
//! the store sweeps its template.
//!
//! Two execution modes make the serving cost model measurable:
//!
//! * [`ExecMode::Cold`] — every request pays load + setup on a fresh VM
//!   (the repeated cold compile-and-execute our earlier reproduction did).
//! * [`ExecMode::Pooled`] — per-session warm instances are rewound to their
//!   post-setup snapshot between requests (O(dirty pages)), the paper's
//!   many-requests-per-load deployment.
//!
//! [`Server::serve_scaled`] is the other entry point: it runs an
//! [`ArrivalPlan`] through the deterministic virtual-time scheduler
//! ([`run_virtual`](crate::sched::run_virtual)'s loop) over forked
//! instances — bounded admission that sheds overflow, EDF dispatch — and
//! reports queueing-aware latency tails plus per-session resident-page
//! statistics, the 10^4–10^5 session experiment.  Its sessions are split
//! among owner threads (session `i` belongs to owner `i % owners`), and
//! each owner forks, runs, parks and drops only its own sessions, so a
//! session's pages are allocated and freed on one thread.  The scheduler
//! stays on the calling thread: it hands each request to its session's
//! owner when the request is admitted, and commits the result when it
//! dispatches the request, in dispatch order.  The schedule depends only on
//! simulated costs, and an owner runs each session's requests in admission
//! order, which for a non-decreasing plan is dispatch order, so every
//! simulated number is the same at any worker count.
//!
//! Both entry points serve every request through one function,
//! `execute_request`: the modes differ only in where the request's VM comes
//! from (the session's warm instance, rewound; or a fresh spawn), so every
//! request — pooled, cold or scheduled — gets the same `server.request`
//! span and request histograms, measured host time and cycle accounting.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use confllvm_vm::{Outcome, VmOptions, World};

use crate::handles::{BinaryId, SessionId, VersionId};
use crate::metrics::{RequestMetrics, StreamMetrics};
use crate::pool::{PoolOptions, PooledInstance, SpawnError};
use crate::registry::{Registry, ServiceBinary};
use crate::sched::{run_windows, Arrival, ArrivalPlan, ExecCost, SchedResult, SchedulerConfig};
use crate::session::{Request, SessionSpec};
use crate::store::{SessionTemplate, SnapshotStore};

/// How requests are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Fresh VM + setup per request.
    Cold,
    /// Warm per-session instances with snapshot/reset between requests.
    Pooled,
}

impl ExecMode {
    /// Short lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Cold => "cold",
            ExecMode::Pooled => "pooled",
        }
    }
}

/// Runtime configuration, built fluently:
/// `ServerConfig::new().workers(8)`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Workers driving sessions (host-side parallelism); [`Server::serve`]'s
    /// calling thread is one of them.  [`Server::serve_scaled`] caps it at
    /// the host's available parallelism.
    pub workers: usize,
    /// Options for every VM the runtime spawns.
    pub vm: VmOptions,
    /// Snapshot-restore cost model for pooled instances.
    pub pool: PoolOptions,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            vm: VmOptions::default(),
            pool: PoolOptions::default(),
        }
    }
}

impl ServerConfig {
    /// The default configuration (4 workers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the VM options.
    pub fn vm(mut self, vm: VmOptions) -> Self {
        self.vm = vm;
        self
    }

    /// Set the pool cost model.
    pub fn pool(mut self, pool: PoolOptions) -> Self {
        self.pool = pool;
        self
    }
}

/// A serving failure.
#[derive(Debug)]
pub enum ServeError {
    /// The handle does not name a submitted binary.
    UnknownBinary {
        /// The unknown handle.
        binary: BinaryId,
    },
    /// The binary exists but nothing is promoted: versions may be warm,
    /// draining or rejected, but none is active to serve new sessions.
    NoActiveVersion {
        /// The binary with nothing active.
        binary: BinaryId,
    },
    /// Two sessions share an id.  Outcomes are reported by session id, so
    /// admitting this would make one client's results indistinguishable
    /// from another's (and their order in the report scheduling-dependent).
    DuplicateSession {
        /// The colliding id.
        id: SessionId,
    },
    /// An instance could not be spawned.
    Spawn(SpawnError),
    /// A request faulted (the instrumentation stopping an attempted leak is
    /// a fault, so a serving test failing here is meaningful).
    Request {
        /// The session whose request failed.
        session: SessionId,
        /// Index of the request in the session's stream.
        index: usize,
        /// How the request ended.
        outcome: Outcome,
    },
    /// A scale run's arrival plan names a session or a request the session
    /// specs do not have (plan and specs must be built from the same
    /// [`ArrivalPlan::per_session_counts`]).  Checked before any session
    /// forks.
    PlanMismatch {
        /// The first such arrival's index in the plan.
        arrival: usize,
        /// The session index it names.
        session: usize,
        /// The request index it names.
        request: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownBinary { binary } => write!(f, "no such binary {binary}"),
            ServeError::NoActiveVersion { binary } => {
                write!(f, "{binary} has no active version (nothing promoted)")
            }
            ServeError::DuplicateSession { id } => {
                write!(f, "duplicate {id} in one serve call")
            }
            ServeError::Spawn(e) => write!(f, "instance spawn failed: {e}"),
            ServeError::Request {
                session,
                index,
                outcome,
            } => write!(f, "{session} request {index} failed: {outcome:?}"),
            ServeError::PlanMismatch {
                arrival,
                session,
                request,
            } => write!(
                f,
                "arrival {arrival} names request {request} of session index \
                 {session}, which the session specs do not have: arrival plan \
                 and session specs disagree"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SpawnError> for ServeError {
    fn from(e: SpawnError) -> Self {
        ServeError::Spawn(e)
    }
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session this outcome belongs to.
    pub id: SessionId,
    /// The version the session was pinned to for its whole stream.
    pub version: VersionId,
    /// Exit code of each request's entry, in execution order (stream order
    /// for `serve`; scheduler dispatch order for `serve_scaled`, where shed
    /// requests never execute).
    pub exit_codes: Vec<i64>,
    /// Bytes this session's requests sent on the network in clear —
    /// attacker-observable.
    pub sent: Vec<u8>,
    /// Bytes this session's requests appended to the log —
    /// attacker-observable.
    pub log: Vec<u8>,
    /// The session's aggregated request metrics.
    pub metrics: StreamMetrics,
}

impl SessionOutcome {
    /// Nothing served yet: `session` pinned to `version`.
    fn new(session: &SessionSpec, version: VersionId) -> Self {
        SessionOutcome {
            id: session.id,
            version,
            exit_codes: Vec::with_capacity(session.requests.len()),
            sent: Vec::new(),
            log: Vec::new(),
            metrics: StreamMetrics::default(),
        }
    }

    /// Charge one served request to the session: its exit code, its bytes
    /// on both observable channels and its metrics.
    fn commit(&mut self, ran: Ran) {
        self.exit_codes.push(ran.exit_code);
        self.metrics.add(&ran.metrics);
        self.sent.extend_from_slice(&ran.sent);
        self.log.extend_from_slice(&ran.log);
    }
}

/// One served request, not yet charged to its session.
struct Ran {
    exit_code: i64,
    /// What the request sent on the network and appended to the log.
    sent: Vec<u8>,
    log: Vec<u8>,
    metrics: RequestMetrics,
}

/// The result of serving a set of streams.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The served binary's handle.
    pub binary: BinaryId,
    /// The served binary's name (for display).
    pub name: String,
    /// Execution mode of the run.
    pub mode: ExecMode,
    /// Per-session outcomes, sorted by session id.
    pub sessions: Vec<SessionOutcome>,
    /// All sessions' metrics merged.
    pub metrics: StreamMetrics,
    /// Warm instances spawned (pooled mode; cold mode spawns per request and
    /// reports the request count here).
    pub instances_spawned: u64,
    /// Host-side wall time for the whole run, microseconds (includes the
    /// compile-free load/setup work cold mode repeats per request).
    pub host_micros: u128,
}

impl ServiceReport {
    /// The attacker-observable trace of every session, concatenated in
    /// session order — what the two-run equivalence tests compare.
    pub fn observable(&self) -> Vec<u8> {
        observable_of(&self.sessions)
    }
}

fn observable_of(sessions: &[SessionOutcome]) -> Vec<u8> {
    let mut v = Vec::new();
    for s in sessions {
        v.extend_from_slice(&s.sent);
        v.extend_from_slice(&s.log);
    }
    v
}

/// Per-session resident-memory statistics of a scale run, in 4 KiB pages.
/// "Parked" is the steady-state footprint of an idle session (measured
/// after rewinding every instance to its snapshot); "peak" is the largest
/// footprint any request left behind before its rewind.
#[derive(Debug, Clone, Default)]
pub struct ResidentStats {
    /// Pages in the shared template snapshot — paid once per *version*.
    pub template_pages: usize,
    /// Mean private pages per parked session.
    pub mean_parked_pages: f64,
    pub max_parked_pages: usize,
    pub total_parked_pages: usize,
    /// Mean of each session's peak private-page count.
    pub mean_peak_pages: f64,
    /// Copy-on-write faults taken across all sessions.
    pub cow_faults: u64,
}

/// The result of a virtual-time scale run ([`Server::serve_scaled`]).
#[derive(Debug, Clone)]
pub struct ScaleReport {
    pub binary: BinaryId,
    /// The served binary's name (for display).
    pub name: String,
    /// The version the whole run was pinned to.
    pub version: VersionId,
    /// Owner threads that ran the sessions: [`ServerConfig::workers`],
    /// capped at the host's available parallelism and the session count.
    pub workers: usize,
    /// Per-session outcomes, sorted by session id.
    pub sessions: Vec<SessionOutcome>,
    /// All sessions' metrics merged, plus the scheduler's shed count.
    pub metrics: StreamMetrics,
    /// Requests executed (arrivals minus shed).
    pub executed: u64,
    /// Admission windows the scheduler ran.
    pub windows: u64,
    /// Virtual makespan of the run in simulated cycles.
    pub makespan_cycles: u64,
    pub resident: ResidentStats,
    /// Per-window telemetry from the scheduler: one
    /// [`WindowStat`](confllvm_obs::WindowStat) per admission window, with
    /// per-request CoW faults filled in and the run's verify-cache-hit
    /// delta charged to the first window (the checkout happens before any
    /// window opens).
    pub series: confllvm_obs::WindowSeries,
    /// Burn-rate evaluation of the window series against
    /// [`SloRules::default`](confllvm_obs::SloRules) — fast and slow
    /// breach excursions, counted edge-triggered.
    pub slo: confllvm_obs::SloReport,
    /// Host-side wall time for the whole run, microseconds.
    pub host_micros: u128,
    /// The scheduler's queue depth after each window's admission.
    queue_depths: Vec<u64>,
    /// Each executed request's virtual latency (arrival to completion, so
    /// queue wait *and* service), in dispatch order.
    latencies: Vec<u64>,
}

impl ScaleReport {
    /// The attacker-observable trace of every session, concatenated in
    /// session order — compared across forked vs isolated spawn modes.
    pub fn observable(&self) -> Vec<u8> {
        observable_of(&self.sessions)
    }

    /// The deepest the admission queue got after any window's admission.
    pub fn max_queue_depth(&self) -> u64 {
        self.queue_depths.iter().copied().max().unwrap_or(0)
    }

    /// The admission queue's depth after admission, averaged over windows.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depths.is_empty() {
            return 0.0;
        }
        self.queue_depths.iter().sum::<u64>() as f64 / self.queue_depths.len() as f64
    }

    /// Virtual end-to-end latency percentile at per-mille resolution
    /// (999 = p99.9), in simulated cycles — queue wait plus service, the
    /// number that moves under overload (the service-only
    /// [`StreamMetrics::percentile_milli`] cannot see queueing).
    pub fn virtual_percentile_milli(&self, per_mille: u32) -> u64 {
        confllvm_obs::exact_percentile_milli(&self.latencies, per_mille)
    }
}

/// The service runtime.  Shares its [`Registry`] with submitters, so
/// serving and (re-)registration run concurrently against one source of
/// truth; keeps a [`SnapshotStore`] of per-version fork templates.
#[derive(Debug)]
pub struct Server {
    /// The shared verify-then-load registry.
    pub registry: Arc<Registry>,
    /// Runtime configuration.
    pub config: ServerConfig,
    /// Per-version fork templates (pin-counted against the registry).
    store: SnapshotStore,
}

impl Default for Server {
    fn default() -> Self {
        Server::new(Arc::new(Registry::default()), ServerConfig::default())
    }
}

impl Server {
    /// A runtime over a shared registry.
    pub fn new(registry: Arc<Registry>, config: ServerConfig) -> Self {
        let store = SnapshotStore::new(Arc::clone(&registry));
        Server {
            registry,
            config,
            store,
        }
    }

    /// Serve every session's request stream against `binary`'s active
    /// version, handing sessions to worker threads as they free up.  Each
    /// session pins the version active *when it starts* and keeps it for
    /// its whole stream.
    pub fn serve(
        &self,
        binary: BinaryId,
        sessions: &[SessionSpec],
        mode: ExecMode,
    ) -> Result<ServiceReport, ServeError> {
        // Fail fast before any worker starts (individual sessions still
        // re-checkout so a mid-run promotion is picked up by later
        // sessions).
        let (version, service) = checkout(&self.registry, binary)?;
        self.registry.release(version);
        let mut ids = HashSet::new();
        for s in sessions {
            if !ids.insert(s.id) {
                return Err(ServeError::DuplicateSession { id: s.id });
            }
        }
        let started = Instant::now();
        let rec = confllvm_obs::recorder();
        let mut obs_span = rec.span("server", "server.serve");
        if obs_span.active() {
            obs_span.attr("sessions", sessions.len());
            obs_span.attr("mode", mode.name());
            obs_span.attr("workers", self.config.workers);
        }

        let workers = self.config.workers.max(1).min(sessions.len().max(1));
        let cursor = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);

        // Each worker claims the next unserved session index from the shared
        // cursor until the list runs out or a sibling's failure aborts the
        // run, and hands back `(session index, outcome)` pairs in the order
        // it ran them.  The cursor publishes nothing but the index itself,
        // so `Relaxed` suffices.  The calling thread is one of the workers,
        // so a one-worker call (one session, or `workers(1)`) spawns no
        // thread.
        type Ran = Vec<(usize, Result<SessionOutcome, ServeError>)>;
        let work = || {
            let mut ran = Ran::new();
            while !abort.load(Ordering::Relaxed) {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(session) = sessions.get(index) else {
                    break;
                };
                let result = self.serve_session(binary, session, mode, started);
                if result.is_err() {
                    abort.store(true, Ordering::Relaxed);
                }
                ran.push((index, result));
            }
            ran
        };
        let ran: Vec<Ran> = std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mut ran = vec![work()];
            ran.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker thread panicked")),
            );
            ran
        });

        let mut outcomes = Vec::with_capacity(sessions.len());
        let mut errors: Vec<(usize, ServeError)> = Vec::new();
        for (index, r) in ran.into_iter().flatten() {
            match r {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => errors.push((index, e)),
            }
        }
        // Retire drained versions whose last session just released.
        self.store.sweep();
        if let Some((_, e)) = errors.into_iter().min_by_key(|(i, _)| *i) {
            return Err(e);
        }
        outcomes.sort_by_key(|s| s.id);
        let mut metrics = StreamMetrics::default();
        for s in &outcomes {
            metrics.merge(&s.metrics);
        }
        // Every session ran: one fork each when pooled, one spawn per
        // request when cold.
        let spawned = match mode {
            ExecMode::Pooled => sessions.len() as u64,
            ExecMode::Cold => metrics.requests(),
        };
        if obs_span.active() {
            obs_span.attr("instances_spawned", spawned);
            obs_span.attr("requests", metrics.requests());
        }
        Ok(ServiceReport {
            binary,
            name: service.name.clone(),
            mode,
            sessions: outcomes,
            metrics,
            instances_spawned: spawned,
            host_micros: started.elapsed().as_micros(),
        })
    }

    /// Run an [`ArrivalPlan`] against `binary` through the deterministic
    /// virtual-time scheduler: bounded admission windows that shed
    /// overflow, EDF dispatch over `sched.model_workers` virtual workers.
    /// All sessions fork from the version's shared template (or spawn fully
    /// isolated under [`PoolOptions::isolate_sessions`] — the baseline), and
    /// the report carries queueing-aware latency tails plus resident-page
    /// statistics.
    ///
    /// Requests run on real threads: [`ServerConfig::workers`] owner
    /// threads, capped at the host's available parallelism, each fork, run,
    /// park and drop their own sessions (session `i` belongs to owner
    /// `i % owners`).  The scheduler runs on the calling thread; it hands
    /// each admitted request to its session's owner at admission, and
    /// commits the result (exit code, output, metrics, peak pages, CoW
    /// faults) when it dispatches that request, in dispatch order.  Every
    /// simulated number is therefore the same at any worker count (see the
    /// `sched` module docs for why running a request before its dispatch is
    /// legal); only `host_micros` and the per-request host times move.
    ///
    /// `sessions[i]` must have at least as many requests as the plan sends
    /// to session `i` (build the specs from
    /// [`ArrivalPlan::per_session_counts`]); a plan that names a missing
    /// session or request is refused with [`ServeError::PlanMismatch`]
    /// before anything runs.  A failing request aborts the run with the
    /// first failure in dispatch order.
    pub fn serve_scaled(
        &self,
        binary: BinaryId,
        sessions: &[SessionSpec],
        plan: &ArrivalPlan,
        sched: &SchedulerConfig,
    ) -> Result<ScaleReport, ServeError> {
        let mismatch = plan.arrivals.iter().enumerate().find(|(_, a)| {
            sessions
                .get(a.session)
                .is_none_or(|s| a.request >= s.requests.len())
        });
        if let Some((arrival, a)) = mismatch {
            return Err(ServeError::PlanMismatch {
                arrival,
                session: a.session,
                request: a.request,
            });
        }
        let rec = confllvm_obs::recorder();
        let started = Instant::now();
        let cache_hits_before = self.registry.cache_stats().hits;
        let (version, service) = checkout(&self.registry, binary)?;
        let mut span = rec.span("server", "server.scale");
        let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = self
            .config
            .workers
            .clamp(1, host_threads)
            .min(sessions.len().max(1));
        let run = self
            .template(version, &service)
            .map_err(ServeError::from)
            .and_then(|template| {
                let run = ScaleRun {
                    server: self,
                    template: &template,
                    sessions,
                    plan,
                    owners: workers,
                    abort: AtomicBool::new(false),
                };
                run.run(version, sched)
            });
        self.registry.release(version);
        self.store.sweep();
        let (mut outcomes, mut sched_result, resident) = run?;

        let mut metrics = StreamMetrics::default();
        outcomes.sort_by_key(|s| s.id);
        for o in &outcomes {
            metrics.merge(&o.metrics);
        }
        metrics.shed = sched_result.shed;

        // Lift the scheduler's window series into the report: charge the
        // run's verify-cache-hit delta to the first window (checkout and
        // template build happen before any window opens), then run the
        // burn-rate monitor over it — every breach excursion is counted
        // and recorded as an `slo.breach.*` event.
        let mut series = std::mem::take(&mut sched_result.series);
        if let Some(w) = series.first_mut() {
            w.verify_cache_hits = self.registry.cache_stats().hits - cache_hits_before;
        }
        let slo = confllvm_obs::SloMonitor::evaluate(confllvm_obs::SloRules::default(), &series);

        if span.active() {
            span.attr("sessions", sessions.len());
            span.attr("workers", workers);
            span.attr("executed", sched_result.executed);
            span.attr("shed", sched_result.shed);
            span.attr("windows", sched_result.windows);
            span.attr("forked", !self.config.pool.isolate_sessions);
            span.attr("template_pages", resident.template_pages);
            span.attr("total_parked_pages", resident.total_parked_pages);
            span.attr("slo_fast_breaches", slo.fast_breaches);
            span.attr("slo_slow_breaches", slo.slow_breaches);
            span.cycles(sched_result.makespan_cycles);
        }
        drop(span);

        Ok(ScaleReport {
            binary,
            name: service.name.clone(),
            version,
            workers,
            sessions: outcomes,
            metrics,
            executed: sched_result.executed,
            windows: sched_result.windows,
            makespan_cycles: sched_result.makespan_cycles,
            resident,
            series,
            slo,
            host_micros: started.elapsed().as_micros(),
            queue_depths: sched_result.queue_depth_samples,
            latencies: sched_result
                .completions
                .iter()
                .map(|c| c.latency_cycles)
                .collect(),
        })
    }

    /// `version`'s fork template from the store (built on first use), its
    /// VMs using the allocator the service was compiled for.
    fn template(
        &self,
        version: VersionId,
        service: &Arc<ServiceBinary>,
    ) -> Result<Arc<SessionTemplate>, SpawnError> {
        let mut vm = self.config.vm.clone();
        vm.allocator = service.config.allocator();
        self.store.template(version, service, vm)
    }

    /// A session's warm instance: a copy-on-write fork of the template, or
    /// a full private load + setup under [`PoolOptions::isolate_sessions`].
    fn session_instance(
        &self,
        template: &SessionTemplate,
        world: &World,
    ) -> Result<PooledInstance, SpawnError> {
        if self.config.pool.isolate_sessions {
            template.isolated_instance(world)
        } else {
            template.instance(world)
        }
    }

    /// Serve one session end to end: pin the active version, serve the
    /// stream on it, release the pin — success or failure.
    ///
    /// With the recorder enabled, each session records a `server`-layer
    /// span carrying its pinned version and how long it waited behind
    /// earlier sessions (`queue_wait_nanos`, measured from `queued_at`, the
    /// instant `serve` enqueued the sessions).
    fn serve_session(
        &self,
        binary: BinaryId,
        session: &SessionSpec,
        mode: ExecMode,
        queued_at: Instant,
    ) -> Result<SessionOutcome, ServeError> {
        let rec = confllvm_obs::recorder();
        let mut span = rec.span("server", "server.session");
        let queue_wait_nanos = span.active().then(|| queued_at.elapsed().as_nanos() as u64);
        let (version, service) = checkout(&self.registry, binary)?;
        let result = self.serve_stream(version, &service, session, mode);
        self.registry.release(version);
        if span.active() {
            span.attr("session", session.id.raw());
            span.attr("version", version.raw());
            span.attr("requests", session.requests.len());
            span.attr("queue_wait_nanos", queue_wait_nanos.unwrap_or(0));
            rec.count("server.queue_wait_nanos", queue_wait_nanos.unwrap_or(0));
            rec.count("server.sessions", 1);
        }
        result
    }

    /// Run a session's stream on `version`: pooled, on one warm instance
    /// forked for the session and dropped when its stream ends; cold, on a
    /// fresh VM per request.
    fn serve_stream(
        &self,
        version: VersionId,
        service: &Arc<ServiceBinary>,
        session: &SessionSpec,
        mode: ExecMode,
    ) -> Result<SessionOutcome, ServeError> {
        let template = self.template(version, service)?;
        let mut warm = match mode {
            ExecMode::Pooled => Some(self.session_instance(&template, &session.world)?),
            ExecMode::Cold => None,
        };
        let mut out = SessionOutcome::new(session, version);
        for (index, req) in session.requests.iter().enumerate() {
            let instance = match &mut warm {
                Some(inst) => Instance::Warm(inst, &self.config.pool),
                None => Instance::Cold(&template, &session.world),
            };
            out.commit(execute_request(instance, req, index, session.id)?);
        }
        Ok(out)
    }
}

/// One `serve_scaled` run: what its scheduler thread and its owner threads
/// share.
struct ScaleRun<'a> {
    server: &'a Server,
    template: &'a SessionTemplate,
    sessions: &'a [SessionSpec],
    plan: &'a ArrivalPlan,
    /// Owner threads; session `i` belongs to owner `i % owners`.
    owners: usize,
    /// Set once the run has failed: the scheduler stops handing out work
    /// and the owners skip what they still hold.  It publishes no data, so
    /// `Relaxed` suffices: an owner that reads it late runs a request whose
    /// result nobody collects.
    abort: AtomicBool,
}

/// An owner's answer for one request, keyed by the arrival's plan index.
type Reply = (usize, Result<Executed, ServeError>);

/// A request an owner thread ran, waiting for its dispatch.
struct Executed {
    ran: Ran,
    /// Copy-on-write faults the session took during the request.
    cow_faults: u64,
    /// The session's private pages right after the request.
    resident_pages: usize,
}

/// What an owner's sessions keep resident once parked.
#[derive(Default)]
struct Parked {
    pages: usize,
    max_pages: usize,
    cow_faults: u64,
}

impl ScaleRun<'_> {
    /// Start the owner threads, run the scheduler on this thread, then let
    /// the owners park and drop their sessions.  Returns the per-session
    /// outcomes in session-list order, the scheduler's result and the
    /// resident-page statistics.
    fn run(
        &self,
        version: VersionId,
        sched: &SchedulerConfig,
    ) -> Result<(Vec<SessionOutcome>, SchedResult, ResidentStats), ServeError> {
        // What the scheduler charges a dispatch once the run has failed, so
        // the rest of the plan drains cheaply.
        const DRAIN: ExecCost = ExecCost {
            cycles: 1,
            cow_faults: 0,
        };
        let (sessions, plan) = (self.sessions, self.plan);
        let mut outcomes: Vec<SessionOutcome> = sessions
            .iter()
            .map(|s| SessionOutcome::new(s, version))
            .collect();
        let mut peak_pages = vec![0usize; sessions.len()];
        let mut first_error = None;
        let (sched_result, owned) = std::thread::scope(|scope| {
            let mut jobs = Vec::with_capacity(self.owners);
            let mut replies = Vec::with_capacity(self.owners);
            let mut owners = Vec::with_capacity(self.owners);
            for owner in 0..self.owners {
                let (job_tx, job_rx) = mpsc::channel();
                let (reply_tx, reply_rx) = mpsc::channel();
                owners.push(scope.spawn(move || self.own(owner, job_rx, reply_tx)));
                jobs.push(job_tx);
                replies.push(reply_rx);
            }
            // Replies that came back before their dispatch asked for them
            // (only a plan whose times go backwards dispatches out of
            // admission order).
            let mut early: HashMap<usize, Result<Executed, ServeError>> = HashMap::new();
            let sched_result = run_windows(
                sched,
                plan,
                |admitted| {
                    if self.abort.load(Ordering::Relaxed) {
                        return;
                    }
                    for &seq in admitted {
                        // Fails only if the owner stopped; its dispatch
                        // notices.
                        let _ = jobs[plan.arrivals[seq].session % self.owners].send(seq);
                    }
                },
                |seq| {
                    if self.abort.load(Ordering::Relaxed) {
                        return DRAIN;
                    }
                    let si = plan.arrivals[seq].session;
                    let reply = early.remove(&seq).or_else(|| loop {
                        match replies[si % self.owners].recv() {
                            Ok((s, reply)) if s == seq => break Some(reply),
                            Ok((s, reply)) => {
                                early.insert(s, reply);
                            }
                            // The owner stopped: a fork failed or it panicked.
                            Err(_) => break None,
                        }
                    });
                    match reply {
                        Some(Ok(done)) => {
                            peak_pages[si] = peak_pages[si].max(done.resident_pages);
                            let cost = ExecCost {
                                cycles: done.ran.metrics.cycles,
                                cow_faults: done.cow_faults,
                            };
                            outcomes[si].commit(done.ran);
                            cost
                        }
                        failed => {
                            if let Some(Err(e)) = failed {
                                first_error = Some(e);
                            }
                            self.abort.store(true, Ordering::Relaxed);
                            DRAIN
                        }
                    }
                },
            );
            // Closing the job queues tells each owner to park and drop its
            // sessions.
            drop(jobs);
            let owned: Vec<_> = owners
                .into_iter()
                .map(|h| h.join().expect("session owner thread panicked"))
                .collect();
            (sched_result, owned)
        });

        let mut parked = Parked::default();
        let mut fork_errors = Vec::new();
        for owned in owned {
            match owned {
                Ok(p) => {
                    parked.pages += p.pages;
                    parked.max_pages = parked.max_pages.max(p.max_pages);
                    parked.cow_faults += p.cow_faults;
                }
                Err(e) => fork_errors.push(e),
            }
        }
        // Report the failed fork of the lowest session, as a serial fork
        // pass would.
        if let Some((_, e)) = fork_errors.into_iter().min_by_key(|(si, _)| *si) {
            return Err(e.into());
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let n = sessions.len().max(1) as f64;
        let resident = ResidentStats {
            template_pages: self.template.shared_pages(),
            mean_parked_pages: parked.pages as f64 / n,
            max_parked_pages: parked.max_pages,
            total_parked_pages: parked.pages,
            mean_peak_pages: peak_pages.iter().sum::<usize>() as f64 / n,
            cow_faults: parked.cow_faults,
        };
        Ok((outcomes, sched_result, resident))
    }

    /// Owner thread `owner`: fork its sessions, run each request the
    /// scheduler hands it, in the order handed, and reply with the result;
    /// once the scheduler closes `jobs`, park its sessions (rewind each to
    /// its snapshot and measure what it keeps) and drop them.  A session's
    /// pages are thus allocated and freed on one thread.  A failed fork
    /// stops the owner, naming the session.
    fn own(
        &self,
        owner: usize,
        jobs: Receiver<usize>,
        replies: Sender<Reply>,
    ) -> Result<Parked, (usize, SpawnError)> {
        let pool = &self.server.config.pool;
        let mut instances = Vec::with_capacity(self.sessions.len() / self.owners + 1);
        for si in (owner..self.sessions.len()).step_by(self.owners) {
            let world = &self.sessions[si].world;
            let instance = self.server.session_instance(self.template, world);
            instances.push(instance.map_err(|e| (si, e))?);
        }
        for seq in jobs {
            if self.abort.load(Ordering::Relaxed) {
                continue;
            }
            let Arrival {
                session: si,
                request: ri,
                ..
            } = self.plan.arrivals[seq];
            // `serve_scaled` checked the plan against the specs.
            let session = &self.sessions[si];
            let instance = &mut instances[si / self.owners];
            let cow_before = instance.vm.cow_faults();
            let warm = Instance::Warm(instance, pool);
            let done =
                execute_request(warm, &session.requests[ri], ri, session.id).map(|ran| Executed {
                    ran,
                    cow_faults: instance.vm.cow_faults() - cow_before,
                    resident_pages: instance.resident_private_pages(),
                });
            // The scheduler keeps every reply queue until the owners return.
            let _ = replies.send((seq, done));
        }
        let mut parked = Parked::default();
        for instance in &mut instances {
            instance.reset(pool);
            let pages = instance.resident_private_pages();
            parked.pages += pages;
            parked.max_pages = parked.max_pages.max(pages);
            parked.cow_faults += instance.vm.cow_faults();
        }
        Ok(parked)
    }
}

/// Pin `binary`'s active version, telling a handle the registry never
/// minted apart from a binary with nothing promoted.  The caller releases
/// the pin.
fn checkout(
    registry: &Registry,
    binary: BinaryId,
) -> Result<(VersionId, Arc<ServiceBinary>), ServeError> {
    registry.checkout_active(binary).ok_or_else(|| {
        if registry.versions(binary).is_empty() {
            ServeError::UnknownBinary { binary }
        } else {
            ServeError::NoActiveVersion { binary }
        }
    })
}

/// Where a request's VM comes from.
enum Instance<'a> {
    /// The session's warm instance, rewound to its post-setup snapshot
    /// under `server.restore` before the request runs.
    Warm(&'a mut PooledInstance, &'a PoolOptions),
    /// A fresh VM spawned from the template for this request alone, its
    /// setup run against the session's world under `server.spawn`
    /// ([`ExecMode::Cold`]).
    Cold(&'a SessionTemplate, &'a World),
}

/// Serve request `index` of `session`: take the VM from `instance`, run the
/// entry under `server.execute`, and return the exit code, the observable
/// output and the request's metrics — its restore or setup cycles and
/// measured host time — all under one `server.request` span, beside which
/// the `server.request.{cycles,host_nanos,dirty_pages}` histograms record
/// the same request.  Every served request comes through here, whether
/// `serve` runs it pooled or cold or a `serve_scaled` owner thread runs it
/// for the scheduler.
fn execute_request(
    instance: Instance<'_>,
    req: &Request,
    index: usize,
    session: SessionId,
) -> Result<Ran, ServeError> {
    let rec = confllvm_obs::recorder();
    let mut req_span = rec.span("server", "server.request");
    let host_t0 = Instant::now();
    let mut cold_vm;
    // The VM, its observable channels' lengths before the request, and
    // what obtaining it charged the request.
    let (vm, sent_baseline, log_baseline, charged) = match instance {
        Instance::Warm(inst, pool) => {
            let mut restore_span = rec.span("server", "server.restore");
            let (dirty_pages, restore_cycles) = inst.reset(pool);
            if restore_span.active() {
                restore_span.attr("dirty_pages", dirty_pages);
                restore_span.cycles(restore_cycles);
            }
            let charged = RequestMetrics {
                cycles: restore_cycles,
                restore_cycles,
                dirty_pages,
                ..RequestMetrics::default()
            };
            (&mut inst.vm, inst.sent_baseline, inst.log_baseline, charged)
        }
        Instance::Cold(template, world) => {
            let mut spawn_span = rec.span("server", "server.spawn");
            let (vm, setup_cycles) = template.spawn_cold(world)?;
            if spawn_span.active() {
                spawn_span.cycles(setup_cycles);
            }
            let (sent_baseline, log_baseline) = (vm.world.sent.len(), vm.world.log.len());
            let charged = RequestMetrics {
                cycles: setup_cycles,
                setup_cycles,
                ..RequestMetrics::default()
            };
            cold_vm = vm;
            (&mut cold_vm, sent_baseline, log_baseline, charged)
        }
    };
    if let Some(input) = &req.input {
        vm.world.push_request(input);
    }
    let before = vm.stats.clone();
    let result = {
        let _exec_span = rec.span("server", "server.execute");
        vm.run_function(&req.entry, &req.args)
    };
    let exit_code = match result.outcome {
        Outcome::Exit(code) => code,
        outcome => {
            return Err(ServeError::Request {
                session,
                index,
                outcome,
            })
        }
    };
    let ran = RequestMetrics::from_stats_delta(&before, &vm.stats);
    let m = RequestMetrics {
        cycles: ran.cycles + charged.cycles,
        setup_cycles: charged.setup_cycles,
        restore_cycles: charged.restore_cycles,
        dirty_pages: charged.dirty_pages,
        host_nanos: host_t0.elapsed().as_nanos() as u64,
        ..ran
    };
    if req_span.active() {
        req_span.attr("index", index);
        req_span.attr("dirty_pages", m.dirty_pages);
        req_span.attr("restore_cycles", m.restore_cycles);
        req_span.attr("setup_cycles", m.setup_cycles);
        req_span.attr("tcross", m.stack_switches);
        req_span.attr("extern_cycles", m.extern_cycles);
        req_span.cycles(m.cycles);
        rec.record_hist("server.request.cycles", m.cycles);
        rec.record_hist("server.request.host_nanos", m.host_nanos);
        rec.record_hist("server.request.dirty_pages", m.dirty_pages);
    }
    drop(req_span);
    Ok(Ran {
        exit_code,
        sent: vm.world.sent[sent_baseline..].to_vec(),
        log: vm.world.log[log_baseline..].to_vec(),
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{SetupSpec, VerifyPolicy};
    use crate::reqgen::{ArrivalOptions, RequestGen, StreamKind};
    use confllvm_core::{CompileOptions, Config};
    use confllvm_workloads::{ldap, nginx};

    fn ldap_server(config: Config, entries: i64) -> (Server, BinaryId) {
        let policy = if config.is_instrumented() {
            VerifyPolicy::RequireVerified
        } else {
            VerifyPolicy::AllowUnverifiable
        };
        let registry = Arc::new(Registry::new(policy));
        let opts = CompileOptions {
            config,
            entry: ldap::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        registry
            .deploy_source(
                "ldap",
                &ldap::annotated_source(),
                &opts,
                Some(SetupSpec::new(ldap::SETUP_ENTRY, &[entries])),
            )
            .expect("registers");
        let binary = registry.binary_id("ldap").unwrap();
        (Server::new(registry, ServerConfig::default()), binary)
    }

    fn ldap_sessions(n: usize, requests: usize, entries: usize) -> Vec<SessionSpec> {
        (0..n)
            .map(|id| {
                let mut w = confllvm_vm::World::new();
                w.set_password("user", format!("secret-of-{id}").as_bytes());
                let reqs = RequestGen::new(1000 + id as u64).stream(
                    StreamKind::LdapMix {
                        entries,
                        hit_pct: 50,
                    },
                    requests,
                );
                SessionSpec::new(id, w, reqs)
            })
            .collect()
    }

    fn nginx_server() -> (Server, BinaryId) {
        let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
        let opts = CompileOptions {
            config: Config::OurSeg,
            entry: nginx::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        registry
            .deploy_source(
                "nginx",
                nginx::SOURCE,
                &opts,
                Some(SetupSpec::new(nginx::SETUP_ENTRY, &[])),
            )
            .unwrap();
        let binary = registry.binary_id("nginx").unwrap();
        (Server::new(registry, ServerConfig::new()), binary)
    }

    #[test]
    fn pooled_and_cold_agree_on_results_and_observables() {
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let sessions = ldap_sessions(3, 6, 32);
        let cold = server.serve(binary, &sessions, ExecMode::Cold).unwrap();
        let pooled = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(cold.sessions.len(), 3);
        for (c, p) in cold.sessions.iter().zip(&pooled.sessions) {
            assert_eq!(c.id, p.id);
            assert_eq!(c.version, p.version, "one deployed version serves both");
            assert_eq!(c.exit_codes, p.exit_codes, "mode must not change results");
            assert_eq!(c.sent, p.sent, "mode must not change the observable trace");
            assert_eq!(c.log, p.log);
        }
        // Pooled skips setup per request, so per-request cycles are strictly
        // lower; cold spawned one VM per request, pooled one per session.
        assert!(pooled.metrics.mean_cycles() < cold.metrics.mean_cycles());
        assert_eq!(cold.instances_spawned, 18);
        assert_eq!(pooled.instances_spawned, 3);
        assert_eq!(pooled.metrics.requests(), 18);
        assert!(pooled.metrics.sum(|r| r.restore_cycles) > 0);
        assert_eq!(cold.metrics.sum(|r| r.restore_cycles), 0);
        assert!(cold.metrics.sum(|r| r.setup_cycles) > 0);
        // The smallest per-request sample (percentile 0) is measured, not a
        // placeholder zero, in both modes.
        for report in [&cold, &pooled] {
            assert!(
                report.metrics.host_percentile(0) > 0,
                "{} requests must carry measured host time",
                report.mode.name()
            );
        }
    }

    #[test]
    fn nginx_streams_serve_under_all_modes() {
        let (server, binary) = nginx_server();
        let sessions: Vec<SessionSpec> = (0..2u64)
            .map(|id| {
                let world = nginx::file_world(3, 512, id as u8);
                let reqs = RequestGen::new(id).stream(
                    StreamKind::NginxFiles {
                        files: 3,
                        response_size: 512,
                    },
                    4,
                );
                SessionSpec::new(id, world, reqs)
            })
            .collect();
        for mode in [ExecMode::Cold, ExecMode::Pooled] {
            let report = server.serve(binary, &sessions, mode).unwrap();
            assert_eq!(report.metrics.requests(), 8);
            for s in &report.sessions {
                assert!(s.exit_codes.iter().all(|c| *c == 1), "{:?}", s.exit_codes);
                assert_eq!(s.sent.len(), 4 * 512, "each request sends one response");
                assert!(!s.log.is_empty());
            }
            assert!(report.metrics.sum(|r| r.extern_calls) > 0);
            assert!(
                report.metrics.sum(|r| r.stack_switches) > 0,
                "OurSeg separates U/T memory, so every trusted call switches stacks"
            );
        }
    }

    #[test]
    fn unknown_binary_and_unpromoted_binary_are_distinct_errors() {
        let server = Server::default();
        let bogus = {
            // Mint a real handle in a different registry: unknown here.
            let other = Registry::default();
            let opts = CompileOptions::for_config(Config::OurMpx);
            other
                .deploy_source("ldap", &ldap::annotated_source(), &opts, None)
                .unwrap();
            other.binary_id("ldap").unwrap()
        };
        let err = server.serve(bogus, &[], ExecMode::Pooled).unwrap_err();
        assert!(matches!(err, ServeError::UnknownBinary { .. }), "{err}");

        // Submitted but never promoted: a different, actionable error.
        let registry = Arc::new(Registry::new(VerifyPolicy::RequireVerified));
        let opts = CompileOptions::for_config(Config::OurMpx);
        registry
            .submit_source("ldap", &ldap::annotated_source(), &opts, None)
            .unwrap();
        let binary = registry.binary_id("ldap").unwrap();
        let server = Server::new(registry, ServerConfig::new());
        let err = server.serve(binary, &[], ExecMode::Pooled).unwrap_err();
        assert!(matches!(err, ServeError::NoActiveVersion { .. }), "{err}");
    }

    #[test]
    fn duplicate_session_ids_are_refused() {
        // Outcomes are reported by session id; two sessions sharing one
        // would make one client's results indistinguishable from another's.
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let mut sessions = ldap_sessions(2, 2, 32);
        sessions[1].id = sessions[0].id;
        let err = server
            .serve(binary, &sessions, ExecMode::Pooled)
            .unwrap_err();
        assert!(matches!(err, ServeError::DuplicateSession { .. }), "{err}");
    }

    #[test]
    fn worker_count_does_not_change_outcomes() {
        let sessions = ldap_sessions(5, 4, 32);
        let (mut single, binary_a) = ldap_server(Config::OurMpx, 32);
        single.config = ServerConfig::new().workers(1);
        let (mut many, binary_b) = ldap_server(Config::OurMpx, 32);
        many.config = ServerConfig::new().workers(8);
        let a = single.serve(binary_a, &sessions, ExecMode::Pooled).unwrap();
        let b = many.serve(binary_b, &sessions, ExecMode::Pooled).unwrap();
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.exit_codes, y.exit_codes);
            assert_eq!(x.sent, y.sent);
            assert_eq!(x.log, y.log);
        }
        assert_eq!(a.metrics.total_cycles(), b.metrics.total_cycles());
    }

    #[test]
    fn a_failing_request_aborts_serve_naming_it_and_leaks_no_pin() {
        for workers in [1, 4] {
            let (mut server, binary) = ldap_server(Config::OurMpx, 32);
            server.config = ServerConfig::new().workers(workers);
            let version = server.registry.active_version(binary).unwrap();
            let mut sessions = ldap_sessions(6, 3, 32);
            server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
            let pins = server.registry.version_info(version).unwrap().pins;

            sessions[3].requests[1] = Request::new("no_such_entry", &[]);
            match server.serve(binary, &sessions, ExecMode::Pooled) {
                Err(ServeError::Request { session, index, .. }) => {
                    assert_eq!((session, index), (sessions[3].id, 1), "{workers} workers");
                }
                other => panic!("{workers} workers: expected a request error, got {other:?}"),
            }
            assert_eq!(
                server.registry.version_info(version).unwrap().pins,
                pins,
                "{workers} workers: the failed serve must release every session's pin"
            );
        }
    }

    #[test]
    fn promotion_between_serves_moves_new_sessions_to_the_new_version() {
        let (server, binary) = ldap_server(Config::OurMpx, 32);
        let v1 = server.registry.active_version(binary).unwrap();
        let sessions = ldap_sessions(2, 3, 32);
        let versions = |r: &ServiceReport| r.sessions.iter().map(|s| s.version).collect::<Vec<_>>();
        let before = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(versions(&before), [v1, v1]);
        assert_eq!(server.store.live_templates(), 1, "v1's template is cached");

        // Roll the same source as v2 and cut over.
        let opts = CompileOptions {
            config: Config::OurMpx,
            entry: ldap::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        let v2 = server
            .registry
            .submit_source(
                "ldap",
                &ldap::annotated_source(),
                &opts,
                Some(SetupSpec::new(ldap::SETUP_ENTRY, &[32])),
            )
            .unwrap();
        server.registry.promote(v2).unwrap();
        let after = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(versions(&after), [v2, v2]);
        assert_eq!(
            server.store.live_templates(),
            1,
            "the sweep evicted v1's template after the cut-over"
        );
        // Same source, same streams: the swap is observably invisible.
        assert_eq!(before.observable(), after.observable());
        for (x, y) in before.sessions.iter().zip(&after.sessions) {
            assert_eq!(x.exit_codes, y.exit_codes);
        }
    }

    fn scale_inputs(sessions: usize, arrivals: usize) -> (Vec<SessionSpec>, ArrivalPlan) {
        let plan = RequestGen::new(9).arrival_plan(&ArrivalOptions {
            sessions,
            arrivals,
            window_cycles: 50_000,
            on_windows: 2,
            off_windows: 1,
            on_per_window: 8,
            off_per_window: 2,
        });
        let specs = plan
            .per_session_counts(sessions)
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let world = nginx::file_world(2, 256, i as u8);
                let reqs = RequestGen::new(100 + i as u64).stream(
                    StreamKind::NginxFiles {
                        files: 2,
                        response_size: 256,
                    },
                    count,
                );
                SessionSpec::new(i, world, reqs)
            })
            .collect();
        (specs, plan)
    }

    #[test]
    fn scaled_forked_run_matches_isolated_and_slashes_resident_pages() {
        let (server, binary) = nginx_server();
        let (sessions, plan) = scale_inputs(48, 192);
        let sched = SchedulerConfig::default();
        let forked = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();

        let iso_config = ServerConfig::new().pool(PoolOptions {
            isolate_sessions: true,
            ..Default::default()
        });
        let iso_server = Server::new(Arc::clone(&server.registry), iso_config);
        let isolated = iso_server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();

        // Byte-identical observables and results: CoW forking is invisible
        // to clients.
        assert_eq!(forked.observable(), isolated.observable());
        assert_eq!(forked.executed, isolated.executed);
        assert_eq!(forked.executed, 192);
        for (f, i) in forked.sessions.iter().zip(&isolated.sessions) {
            assert_eq!(f.id, i.id);
            assert_eq!(f.exit_codes, i.exit_codes);
        }
        // Identical costs mean identical schedules, down to the tail.
        assert_eq!(
            forked.virtual_percentile_milli(999),
            isolated.virtual_percentile_milli(999)
        );

        // The residency win: the file server's setup is shareable, so a
        // parked forked session keeps ~0 private pages while the isolated
        // baseline keeps its whole address space.
        assert!(forked.resident.template_pages > 0);
        assert!(
            isolated.resident.mean_parked_pages
                >= 10.0 * forked.resident.mean_parked_pages.max(0.1),
            "expected >=10x drop: isolated {} vs forked {}",
            isolated.resident.mean_parked_pages,
            forked.resident.mean_parked_pages
        );
        assert!(forked.resident.cow_faults > 0, "requests must CoW-fault");
        // Scheduled requests run through the same request path as `serve`:
        // every one carries measured host time (percentile 0 is the
        // smallest sample).
        assert!(
            forked.metrics.host_percentile(0) > 0,
            "scaled requests must carry measured host time"
        );
    }

    #[test]
    fn overload_sheds_and_the_virtual_tail_sees_queueing() {
        let (server, binary) = nginx_server();
        let (sessions, plan) = scale_inputs(32, 256);
        // One slow virtual worker and a tiny queue: a burst must overflow.
        let sched = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 4,
            slo_cycles: 100_000,
            window_cycles: 50_000,
        };
        let r = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert!(r.metrics.shed > 0, "overload must shed");
        assert_eq!(r.executed + r.metrics.shed, 256);
        assert!(r.max_queue_depth() > 0);
        assert!(
            r.virtual_percentile_milli(999) > r.metrics.percentile_milli(999),
            "queueing must push the end-to-end tail above pure service time"
        );
        // The window series mirrors the run totals (nothing dropped at this
        // size) and the burn-rate monitor sees the overload.
        assert_eq!(r.series.dropped(), 0);
        assert_eq!(r.series.len() as u64, r.windows);
        let (w_shed, w_executed) = r
            .series
            .iter()
            .fold((0u64, 0u64), |(s, e), w| (s + w.shed, e + w.executed));
        assert_eq!(w_shed, r.metrics.shed);
        assert_eq!(w_executed, r.executed);
        assert!(
            r.slo.fast_breaches >= 1,
            "a shedding overload run must trip the fast burn rule: {:?}",
            r.slo
        );
        // Deterministic: the same plan yields the same schedule.
        let r2 = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert_eq!(r.metrics.shed, r2.metrics.shed);
        assert_eq!(r.makespan_cycles, r2.makespan_cycles);
        assert_eq!(r.observable(), r2.observable());
        assert_eq!(r.slo.total_breaches(), r2.slo.total_breaches());
    }

    /// `scale_inputs`' plan with ldap sessions: each gets the plan's count
    /// of hit/miss queries, and runs `populate` against its own passwords
    /// when it forks.
    fn ldap_scale_inputs(sessions: usize, arrivals: usize) -> (Vec<SessionSpec>, ArrivalPlan) {
        let (_, plan) = scale_inputs(sessions, arrivals);
        let counts = plan.per_session_counts(sessions);
        let longest = counts.iter().copied().max().unwrap_or(0);
        let mut specs = ldap_sessions(sessions, longest, 32);
        for (spec, &count) in specs.iter_mut().zip(&counts) {
            spec.requests.truncate(count);
        }
        (specs, plan)
    }

    /// A stream's simulated figures: its request records without their
    /// measured host time, and its shed arrivals.
    fn simulated(m: &StreamMetrics) -> (Vec<RequestMetrics>, u64) {
        let records = m.records().iter().map(|r| RequestMetrics {
            host_nanos: 0,
            ..*r
        });
        (records.collect(), m.shed)
    }

    /// The serial reference for `serve_scaled`: one fork per session, and
    /// each request run on this thread when `run_virtual` dispatches it.
    fn serial_scale_run(
        server: &Server,
        binary: BinaryId,
        sessions: &[SessionSpec],
        plan: &ArrivalPlan,
        sched: &SchedulerConfig,
    ) -> (SchedResult, Vec<SessionOutcome>) {
        let (version, service) = checkout(&server.registry, binary).unwrap();
        let template = server.template(version, &service).unwrap();
        let mut instances: Vec<PooledInstance> = sessions
            .iter()
            .map(|s| server.session_instance(&template, &s.world).unwrap())
            .collect();
        let mut outcomes: Vec<SessionOutcome> = sessions
            .iter()
            .map(|s| SessionOutcome::new(s, version))
            .collect();
        let result = crate::sched::run_virtual(sched, plan, |si, ri| {
            let instance = &mut instances[si];
            let cow_before = instance.vm.cow_faults();
            let warm = Instance::Warm(instance, &server.config.pool);
            let session = &sessions[si];
            let ran = execute_request(warm, &session.requests[ri], ri, session.id).unwrap();
            let cost = ExecCost {
                cycles: ran.metrics.cycles,
                cow_faults: instance.vm.cow_faults() - cow_before,
            };
            outcomes[si].commit(ran);
            cost
        });
        server.registry.release(version);
        (result, outcomes)
    }

    #[test]
    fn scaled_runs_match_the_serial_loop_at_every_worker_count() {
        // One modelled worker and a short queue: the bursts shed.
        let sched = SchedulerConfig {
            model_workers: 1,
            queue_capacity: 4,
            ..SchedulerConfig::default()
        };
        let (nginx, nginx_binary) = nginx_server();
        let (ldap, ldap_binary) = ldap_server(Config::OurMpx, 32);
        let runs = [
            ("nginx", nginx, nginx_binary, scale_inputs(48, 192)),
            ("ldap", ldap, ldap_binary, ldap_scale_inputs(24, 96)),
        ];
        for (name, mut server, binary, (sessions, plan)) in runs {
            let (serial, serial_outcomes) =
                serial_scale_run(&server, binary, &sessions, &plan, &sched);
            assert!(serial.shed > 0, "{name}: the plan must shed");
            let mut one_worker: Option<ScaleReport> = None;
            for workers in [1, 2, 4] {
                server.config = ServerConfig::new().workers(workers);
                let r = server
                    .serve_scaled(binary, &sessions, &plan, &sched)
                    .unwrap();
                let at = format!("{name}, {workers} workers");
                assert!((1..=workers).contains(&r.workers), "{at}: {}", r.workers);
                // Exactly the dispatched requests commit, with the serial
                // reference's results, output and simulated metrics.
                assert_eq!(
                    (r.executed, r.metrics.shed, r.windows, r.makespan_cycles),
                    (
                        serial.executed,
                        serial.shed,
                        serial.windows,
                        serial.makespan_cycles
                    ),
                    "{at}"
                );
                let serial_latencies: Vec<u64> = serial
                    .completions
                    .iter()
                    .map(|c| c.latency_cycles)
                    .collect();
                assert_eq!(
                    (r.max_queue_depth(), r.virtual_percentile_milli(999)),
                    (
                        serial.queue_depth_samples.iter().copied().max().unwrap(),
                        confllvm_obs::exact_percentile_milli(&serial_latencies, 999)
                    ),
                    "{at}"
                );
                let committed: usize = r.sessions.iter().map(|s| s.exit_codes.len()).sum();
                assert_eq!(committed as u64, r.executed, "{at}");
                assert_eq!(r.metrics.requests(), r.executed, "{at}");
                for (o, want) in r.sessions.iter().zip(&serial_outcomes) {
                    assert_eq!(o.id, want.id, "{at}");
                    assert_eq!(o.exit_codes, want.exit_codes, "{at}: {}", o.id);
                    assert_eq!((&o.sent, &o.log), (&want.sent, &want.log), "{at}: {}", o.id);
                    assert_eq!(
                        simulated(&o.metrics),
                        simulated(&want.metrics),
                        "{at}: {}",
                        o.id
                    );
                }
                // Everything a report derives from simulated state repeats
                // at every worker count.
                match &one_worker {
                    None => one_worker = Some(r),
                    Some(one) => {
                        assert_eq!(r.observable(), one.observable(), "{at}");
                        assert_eq!(simulated(&r.metrics), simulated(&one.metrics), "{at}");
                        assert_eq!(
                            (r.max_queue_depth(), r.virtual_percentile_milli(999)),
                            (one.max_queue_depth(), one.virtual_percentile_milli(999)),
                            "{at}"
                        );
                        assert_eq!(
                            format!("{:?}", r.resident),
                            format!("{:?}", one.resident),
                            "{at}"
                        );
                        assert_eq!(r.series.jsonl(&[], &[]), one.series.jsonl(&[], &[]), "{at}");
                        assert_eq!(r.slo, one.slo, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_failing_scaled_request_aborts_naming_the_first_dispatched_and_leaks_no_pin() {
        let (mut server, binary) = nginx_server();
        let version = server.registry.active_version(binary).unwrap();
        let sched = SchedulerConfig::default();
        let (mut sessions, plan) = scale_inputs(16, 64);
        server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        let pins = server.registry.version_info(version).unwrap().pins;

        // Break two requests mid-plan, in sessions different owners hold:
        // the error names the one dispatched first, whichever owner fails
        // first.
        let first = plan.arrivals[plan.len() / 2];
        let second = plan.arrivals[plan.len() / 2 + 1..]
            .iter()
            .find(|a| a.session % 2 != first.session % 2)
            .copied()
            .unwrap();
        for a in [first, second] {
            sessions[a.session].requests[a.request] = Request::new("no_such_entry", &[]);
        }
        for workers in [1, 2, 4] {
            server.config = ServerConfig::new().workers(workers);
            match server.serve_scaled(binary, &sessions, &plan, &sched) {
                Err(ServeError::Request { session, index, .. }) => assert_eq!(
                    (session, index),
                    (sessions[first.session].id, first.request),
                    "{workers} workers"
                ),
                other => panic!("{workers} workers: expected a request error, got {other:?}"),
            }
            assert_eq!(
                server.registry.version_info(version).unwrap().pins,
                pins,
                "{workers} workers: the failed run must release its pin"
            );
        }
    }

    #[test]
    fn scale_plan_mismatch_is_reported_not_panicked() {
        let (server, binary) = nginx_server();
        let version = server.registry.active_version(binary).unwrap();
        let pins = server.registry.version_info(version).unwrap().pins;
        let sched = SchedulerConfig::default();
        let (sessions, plan) = scale_inputs(8, 40);

        // One session's requests dropped, so the plan points past the end.
        let victim = plan.arrivals[0].session;
        let mut short = sessions.clone();
        short[victim].requests.clear();
        // The last session's spec dropped, so the plan names a session the
        // specs do not have.
        let missing = sessions.len() - 1;
        let first_missing = plan
            .arrivals
            .iter()
            .position(|a| a.session == missing)
            .expect("the plan reaches the last session");
        for (specs, arrival, session) in [
            (&short[..], 0, victim),
            (&sessions[..missing], first_missing, missing),
        ] {
            match server.serve_scaled(binary, specs, &plan, &sched) {
                Err(ServeError::PlanMismatch {
                    arrival: a,
                    session: s,
                    request,
                }) => assert_eq!(
                    (a, s, request),
                    (arrival, session, plan.arrivals[arrival].request)
                ),
                other => panic!("expected a plan mismatch, got {other:?}"),
            }
        }
        assert_eq!(
            server.registry.version_info(version).unwrap().pins,
            pins,
            "a refused plan leaks no pin"
        );
    }
}
