//! The service runtime: registry + snapshot store + worker threads.
//!
//! [`Server::serve`] drives many concurrent sessions' request streams
//! against one registered binary, addressed by its [`BinaryId`] handle.
//! Worker threads claim sessions one at a time from a shared cursor over
//! the session list, so a slow session never strands the sessions behind
//! it: whichever worker frees up first takes the next one.  A session's VM
//! lives on the worker running it, for the length of its stream (VMs are
//! plain `Send` state, nothing is shared mutably across workers), so the
//! simulation stays deterministic per session while the host-side work is
//! genuinely parallel.
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
//! ([`run_virtual`]) over forked instances — bounded admission,
//! backpressure (shed/defer), EDF dispatch — and reports queueing-aware
//! latency tails plus per-session resident-page statistics, the 10^4–10^5
//! session experiment.
//!
//! Both entry points serve every request through one function,
//! `execute_request`: the modes differ only in where the request's VM comes
//! from (the session's warm instance, rewound; or a fresh spawn), so every
//! request — pooled, cold or scheduled — gets the same `server.request`
//! span, measured host time and cycle accounting.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use confllvm_vm::{Outcome, VmOptions, World};

use crate::handles::{BinaryId, SessionId, VersionId};
use crate::metrics::{RequestMetrics, StreamMetrics};
use crate::pool::{PoolOptions, PooledInstance, SpawnError};
use crate::registry::{Registry, ServiceBinary};
use crate::sched::{run_virtual, ArrivalPlan, ExecCost, SchedulerConfig};
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
    /// Worker threads driving sessions (host-side parallelism).
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
    /// A scale run's arrival plan referenced a request the session spec
    /// does not have (plan and specs must be built from the same
    /// [`ArrivalPlan::per_session_counts`]).
    PlanMismatch {
        /// The session with too few requests.
        session: SessionId,
        /// The missing request index.
        index: usize,
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
            ServeError::PlanMismatch { session, index } => write!(
                f,
                "{session} has no request {index}: arrival plan and session \
                 specs disagree"
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

    /// How many sessions were served by `version` — what the hot-swap
    /// tests count per side of the blue/green cut.
    pub fn sessions_on(&self, version: VersionId) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.version == version)
            .count()
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
    /// Per-session outcomes, sorted by session id.
    pub sessions: Vec<SessionOutcome>,
    /// All sessions' metrics merged, including the scheduler's shed/defer
    /// counters, queue-depth samples and virtual latencies.
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
}

impl ScaleReport {
    /// The attacker-observable trace of every session, concatenated in
    /// session order — compared across forked vs isolated spawn modes.
    pub fn observable(&self) -> Vec<u8> {
        observable_of(&self.sessions)
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

    /// Fork templates currently held (and versions pinned) by this server.
    pub fn live_templates(&self) -> usize {
        self.store.live_templates()
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
        // so `Relaxed` suffices.
        type Ran = Vec<(usize, Result<SessionOutcome, ServeError>)>;
        let ran: Vec<Ran> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (cursor, abort) = (&cursor, &abort);
                    scope.spawn(move || {
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
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
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
            ExecMode::Cold => metrics.requests,
        };
        if obs_span.active() {
            obs_span.attr("instances_spawned", spawned);
            obs_span.attr("requests", metrics.requests);
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
    /// virtual-time scheduler: bounded admission windows, shed/defer
    /// backpressure, EDF dispatch over `sched.model_workers` virtual
    /// workers.  All sessions fork from the version's shared template (or
    /// spawn fully isolated under [`PoolOptions::isolate_sessions`] — the
    /// baseline), and the report carries queueing-aware latency tails plus
    /// resident-page statistics.
    ///
    /// `sessions[i]` must have at least as many requests as the plan sends
    /// to session `i` (build the specs from
    /// [`ArrivalPlan::per_session_counts`]).
    pub fn serve_scaled(
        &self,
        binary: BinaryId,
        sessions: &[SessionSpec],
        plan: &ArrivalPlan,
        sched: &SchedulerConfig,
    ) -> Result<ScaleReport, ServeError> {
        let rec = confllvm_obs::recorder();
        let started = Instant::now();
        let cache_hits_before = self.registry.cache_stats().hits;
        let (version, service) = checkout(&self.registry, binary)?;
        let mut span = rec.span("server", "server.scale");
        let finish = || {
            self.registry.release(version);
            self.store.sweep();
        };

        // Fork (or isolate) every session's instance up front — the run
        // models already-admitted sessions, and admission cost is visible
        // separately via the fork spans.
        let forked = self.template(version, &service).and_then(|template| {
            let mut instances = Vec::with_capacity(sessions.len());
            for s in sessions {
                instances.push(self.session_instance(&template, &s.world)?);
            }
            Ok((template, instances))
        });
        let (template, mut instances) = match forked {
            Ok(forked) => forked,
            Err(e) => {
                finish();
                return Err(e.into());
            }
        };
        let pool_opts = self.config.pool;

        let mut outcomes: Vec<SessionOutcome> = sessions
            .iter()
            .map(|s| SessionOutcome::new(s, version))
            .collect();
        let mut peak_pages = vec![0usize; sessions.len()];
        let mut first_error: Option<ServeError> = None;

        let drain = ExecCost {
            cycles: 1,
            cow_faults: 0,
        };
        let mut sched_result = run_virtual(sched, plan, |si, ri| {
            if first_error.is_some() {
                return drain; // drain the plan cheaply once the run has failed
            }
            let Some(req) = sessions[si].requests.get(ri) else {
                first_error = Some(ServeError::PlanMismatch {
                    session: sessions[si].id,
                    index: ri,
                });
                return drain;
            };
            let cow_before = instances[si].vm.cow_faults();
            let instance = Instance::Warm(&mut instances[si], &pool_opts);
            match execute_request(instance, req, ri, &mut outcomes[si]) {
                Ok(m) => {
                    let vm = &instances[si].vm;
                    peak_pages[si] = peak_pages[si].max(vm.resident_private_pages());
                    ExecCost {
                        cycles: m.cycles,
                        cow_faults: vm.cow_faults() - cow_before,
                    }
                }
                Err(e) => {
                    first_error = Some(e);
                    drain
                }
            }
        });

        if let Some(e) = first_error {
            finish();
            return Err(e);
        }

        // Park every session (rewind to its snapshot) and measure what an
        // idle session actually keeps resident.
        let mut parked: Vec<usize> = Vec::with_capacity(instances.len());
        let mut cow_faults = 0u64;
        for inst in &mut instances {
            inst.reset(&pool_opts);
            parked.push(inst.resident_private_pages());
            cow_faults += inst.vm.cow_faults();
        }
        let n = parked.len().max(1);
        let resident = ResidentStats {
            template_pages: template.shared_pages(),
            mean_parked_pages: parked.iter().sum::<usize>() as f64 / n as f64,
            max_parked_pages: parked.iter().copied().max().unwrap_or(0),
            total_parked_pages: parked.iter().sum(),
            mean_peak_pages: peak_pages.iter().sum::<usize>() as f64 / n as f64,
            cow_faults,
        };

        let mut metrics = StreamMetrics::default();
        outcomes.sort_by_key(|s| s.id);
        for o in &outcomes {
            metrics.merge(&o.metrics);
        }
        metrics.shed = sched_result.shed;
        metrics.deferred = sched_result.deferred;
        for &d in &sched_result.queue_depth_samples {
            metrics.record_queue_depth(d);
        }
        for c in &sched_result.completions {
            metrics.add_virtual_latency(c.latency_cycles);
        }

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
            span.attr("executed", sched_result.executed);
            span.attr("shed", sched_result.shed);
            span.attr("windows", sched_result.windows);
            span.attr("forked", !pool_opts.isolate_sessions);
            span.attr("template_pages", resident.template_pages);
            span.attr("total_parked_pages", resident.total_parked_pages);
            span.attr("slo_fast_breaches", slo.fast_breaches);
            span.attr("slo_slow_breaches", slo.slow_breaches);
            span.cycles(sched_result.makespan_cycles);
        }
        drop(span);
        finish();

        Ok(ScaleReport {
            binary,
            name: service.name.clone(),
            version,
            sessions: outcomes,
            metrics,
            executed: sched_result.executed,
            windows: sched_result.windows,
            makespan_cycles: sched_result.makespan_cycles,
            resident,
            series,
            slo,
            host_micros: started.elapsed().as_micros(),
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
            execute_request(instance, req, index, &mut out)?;
        }
        Ok(out)
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

/// Serve one request and charge it to `out`: take the VM from `instance`,
/// run the entry under `server.execute`, then record the exit code, the
/// observable output and the request's metrics — its restore or setup
/// cycles and measured host time — under one `server.request` span.  Every
/// served request comes through here, whether `serve` runs it pooled or
/// cold or `serve_scaled`'s scheduler dispatches it.
fn execute_request(
    instance: Instance<'_>,
    req: &Request,
    index: usize,
    out: &mut SessionOutcome,
) -> Result<RequestMetrics, ServeError> {
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
    match result.outcome {
        Outcome::Exit(code) => out.exit_codes.push(code),
        outcome => {
            return Err(ServeError::Request {
                session: out.id,
                index,
                outcome,
            })
        }
    }
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
    }
    drop(req_span);
    out.metrics.add(&m);
    out.sent.extend_from_slice(&vm.world.sent[sent_baseline..]);
    out.log.extend_from_slice(&vm.world.log[log_baseline..]);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{SetupSpec, VerifyPolicy};
    use crate::reqgen::{ArrivalOptions, RequestGen, StreamKind};
    use crate::sched::Backpressure;
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
        assert_eq!(pooled.metrics.requests, 18);
        assert!(pooled.metrics.restore_cycles > 0);
        assert_eq!(cold.metrics.restore_cycles, 0);
        assert!(cold.metrics.setup_cycles > 0);
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
            assert_eq!(report.metrics.requests, 8);
            for s in &report.sessions {
                assert!(s.exit_codes.iter().all(|c| *c == 1), "{:?}", s.exit_codes);
                assert_eq!(s.sent.len(), 4 * 512, "each request sends one response");
                assert!(!s.log.is_empty());
            }
            assert!(report.metrics.extern_calls > 0);
            assert!(
                report.metrics.stack_switches > 0,
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
        assert_eq!(a.metrics.total_cycles, b.metrics.total_cycles);
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
        let before = server.serve(binary, &sessions, ExecMode::Pooled).unwrap();
        assert_eq!(before.sessions_on(v1), 2);
        assert_eq!(server.live_templates(), 1, "v1's template is cached");

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
        assert_eq!(after.sessions_on(v2), 2);
        assert_eq!(after.sessions_on(v1), 0);
        assert_eq!(
            server.live_templates(),
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
            forked.metrics.virtual_percentile_milli(999),
            isolated.metrics.virtual_percentile_milli(999)
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
            backpressure: Backpressure::Shed,
            slo_cycles: 100_000,
            window_cycles: 50_000,
            defer_age_windows: u64::MAX,
        };
        let r = server
            .serve_scaled(binary, &sessions, &plan, &sched)
            .unwrap();
        assert!(r.metrics.shed > 0, "overload must shed");
        assert_eq!(r.executed + r.metrics.shed, 256);
        assert!(r.metrics.max_queue_depth() > 0);
        assert!(
            r.metrics.virtual_percentile_milli(999) > r.metrics.percentile_milli(999),
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

    #[test]
    fn scale_plan_mismatch_is_reported_not_panicked() {
        let (server, binary) = nginx_server();
        let (mut sessions, plan) = scale_inputs(8, 40);
        // Drop one session's requests so the plan points past the end.
        let victim = plan.arrivals[0].session;
        sessions[victim].requests.clear();
        let err = server
            .serve_scaled(binary, &sessions, &plan, &SchedulerConfig::default())
            .unwrap_err();
        assert!(matches!(err, ServeError::PlanMismatch { .. }), "{err}");
    }
}
