//! The registry-version-keyed shared-snapshot store.
//!
//! One verified binary serving 10^4-10^5 sessions cannot afford a full
//! address space per session.  The store keeps, per *registry version*, a
//! single [`SessionTemplate`]: the binary loaded once, its setup entry run
//! once (when the setup provably does not depend on per-session state), and
//! the resulting machine state snapshotted.  Every session is then a
//! [`Vm::fork`] of that snapshot — clean pages shared copy-on-write, the
//! decoded image shared by reference — so a parked session's resident cost
//! is its CoW-faulted page set plus registers/heaps/`World`, not the whole
//! address space.
//!
//! ## Shared vs per-session setup
//!
//! Whether the post-*setup* state can be shared is detected, not declared:
//! the template runs the setup entry against a pristine reference
//! [`World`] and shares the result only if that run performed **zero world
//! reads** and produced **zero observable output** (`World::reads == 0`,
//! empty `sent`/`log`/`declassified`).  Execution is deterministic and, with
//! no reads, independent of the session's private state, so every session
//! would compute exactly this machine state — sharing it is sound and
//! byte-identical to running setup per session (the file server's
//! buffer-clearing `setup` qualifies).  Otherwise the template holds the
//! post-*load* snapshot and each fork runs setup itself against its own
//! world (the directory server's `populate` reads passwords, so its
//! post-setup state is genuinely per-session — but its code, globals and
//! load-time pages still fork shared).
//!
//! A template loads its binary exactly once: the probe snapshots the
//! freshly loaded VM before running setup, and when the setup turns out
//! unshareable it rewinds to that snapshot with [`Vm::restore`] instead of
//! loading again.
//!
//! ## Pin counting vs blue/green hot-swap
//!
//! A template pins its version in the [`Registry`] for as long as it sits in
//! the store, exactly like a session does, so a version with live templates
//! drains instead of retiring mid-fork.  [`SnapshotStore::sweep`] evicts
//! templates whose version is no longer active and releases their pins —
//! the serve loop sweeps after sessions finish, which is what lets a
//! drained old version finally retire after a promotion.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use confllvm_vm::{Vm, VmOptions, VmSnapshot, World};

use crate::handles::VersionId;
use crate::pool::{PooledInstance, SpawnError};
use crate::registry::{Registry, ServiceBinary, VersionState};

/// One version's shared fork template: the binary loaded (and, when
/// shareable, set up) once, plus the snapshot every session forks from.
#[derive(Debug)]
pub struct SessionTemplate {
    /// The registry version this template serves.
    pub version: VersionId,
    /// The verified binary the template was built from.
    pub binary: Arc<ServiceBinary>,
    /// The template VM.  Kept alive so forks share its decoded image and so
    /// the snapshot's pages stay referenced.
    base: Vm,
    /// What forks start from — post-setup when `shared_setup`, post-load
    /// otherwise.
    snapshot: Arc<VmSnapshot>,
    /// Whether `snapshot` already contains the setup run's effects.
    pub shared_setup: bool,
    /// Simulated cycles the template's setup run cost (`shared_setup` only;
    /// forks inherit the state without re-paying this).
    pub setup_cycles: u64,
}

impl SessionTemplate {
    /// Load the binary and build the fork template, probing whether the
    /// setup entry's machine state can be shared across sessions (see the
    /// module docs for the exact soundness condition).
    pub fn build(
        version: VersionId,
        binary: Arc<ServiceBinary>,
        vm_opts: VmOptions,
    ) -> Result<SessionTemplate, SpawnError> {
        let mut span = confllvm_obs::recorder().span("server", "server.template");
        let mut vm = Vm::new(&binary.program, vm_opts, World::new()).map_err(SpawnError::Load)?;
        let mut shared_setup = true;
        let mut setup_cycles = 0;
        if binary.setup.is_some() {
            let loaded = vm.snapshot();
            let ran = run_setup(&mut vm, &binary);
            let w = &vm.world;
            let untouched =
                w.reads == 0 && w.sent.is_empty() && w.log.is_empty() && w.declassified.is_empty();
            match ran {
                Ok(cycles) if untouched => setup_cycles = cycles,
                // Setup depends on per-session state (or faulted against
                // the reference world — it may still succeed against real
                // session worlds): rewind to the post-load state and share
                // only that.
                _ => {
                    vm.restore(&loaded);
                    shared_setup = false;
                }
            }
        }
        let snapshot = Arc::new(vm.snapshot());
        if span.active() {
            span.attr("version", version.raw());
            span.attr("shared_setup", shared_setup);
            span.attr("pages", snapshot.captured_pages());
        }
        Ok(SessionTemplate {
            version,
            binary,
            base: vm,
            snapshot,
            shared_setup,
            setup_cycles,
        })
    }

    /// Pages in the shared snapshot — the one-time cost all sessions split.
    pub fn shared_pages(&self) -> usize {
        self.snapshot.captured_pages()
    }

    /// Fork a session instance: CoW memory over the template snapshot, the
    /// session's own `world`.  When the template could not share its setup
    /// state, the fork runs the setup entry here, against the session's
    /// world, and snapshots itself — still sharing every load-time page.
    pub fn instance(&self, world: &World) -> Result<PooledInstance, SpawnError> {
        let mut span = confllvm_obs::recorder().span("server", "server.fork");
        let mut vm = self.base.fork(&self.snapshot, world.clone());
        let (snapshot, setup_cycles) = if self.shared_setup {
            (Arc::clone(&self.snapshot), self.setup_cycles)
        } else {
            let cycles = run_setup(&mut vm, &self.binary)?;
            (Arc::new(vm.snapshot()), cycles)
        };
        if span.active() {
            span.attr("shared_setup", self.shared_setup);
            span.attr("shared_pages", self.snapshot.captured_pages());
            span.attr("private_pages", vm.resident_private_pages());
        }
        Ok(PooledInstance::new(vm, snapshot, setup_cycles))
    }

    /// The per-session-pool baseline: a full load + setup with nothing
    /// shared — what every session cost before the fork model.  Kept so the
    /// scale benchmarks can quote the resident-page drop against it.
    pub fn isolated_instance(&self, world: &World) -> Result<PooledInstance, SpawnError> {
        let (mut vm, setup_cycles) = self.spawn_cold(world)?;
        let snapshot = Arc::new(vm.snapshot());
        Ok(PooledInstance::new(vm, snapshot, setup_cycles))
    }

    /// Spawn a fresh (non-pooled) VM with `world` installed and the setup
    /// entry run — the cold path.  Returns the VM and the setup run's
    /// simulated cycles.
    pub fn spawn_cold(&self, world: &World) -> Result<(Vm, u64), SpawnError> {
        let mut vm = Vm::new(&self.binary.program, self.base.opts.clone(), world.clone())
            .map_err(SpawnError::Load)?;
        let setup_cycles = run_setup(&mut vm, &self.binary)?;
        Ok((vm, setup_cycles))
    }
}

/// Run `binary`'s setup entry, if it has one, on `vm`: the simulated cycles
/// it cost, or the fault that stopped it.
fn run_setup(vm: &mut Vm, binary: &ServiceBinary) -> Result<u64, SpawnError> {
    let Some(setup) = &binary.setup else {
        return Ok(0);
    };
    let before = vm.stats.cycles;
    let result = vm.run_function(&setup.entry, &setup.args);
    if result.outcome.is_fault() {
        return Err(SpawnError::Setup {
            outcome: result.outcome,
        });
    }
    Ok(vm.stats.cycles - before)
}

/// Version-keyed store of fork templates, shared by every worker of a
/// server.  Templates are built on first use (one load + setup probe per
/// version, not per session or per worker) and hold a registry pin until
/// [`SnapshotStore::sweep`] evicts them.
#[derive(Debug)]
pub struct SnapshotStore {
    registry: Arc<Registry>,
    templates: Mutex<HashMap<VersionId, Arc<SessionTemplate>>>,
}

impl SnapshotStore {
    pub fn new(registry: Arc<Registry>) -> Self {
        SnapshotStore {
            registry,
            templates: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<VersionId, Arc<SessionTemplate>>> {
        self.templates.lock().expect("snapshot store lock poisoned")
    }

    /// The template for `version`, building (and pinning the version) on
    /// first use.  The build holds the store lock so exactly one load +
    /// setup probe runs per version: racing workers block briefly and reuse
    /// the winner's template.  A duplicate probe would not be unsound, but
    /// it would execute the setup entry a scheduling-dependent number of
    /// times — which the deterministic sampling profiler would observe.
    pub fn template(
        &self,
        version: VersionId,
        service: &Arc<ServiceBinary>,
        vm_opts: VmOptions,
    ) -> Result<Arc<SessionTemplate>, SpawnError> {
        match self.lock().entry(version) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(Arc::clone(e.get())),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let built = Arc::new(SessionTemplate::build(
                    version,
                    Arc::clone(service),
                    vm_opts,
                )?);
                self.registry.pin(version);
                slot.insert(Arc::clone(&built));
                Ok(built)
            }
        }
    }

    /// Evict templates whose version is no longer active, releasing their
    /// pins.  The last pin released on a draining version retires it, so a
    /// blue/green cut-over completes once the serve loop sweeps.
    pub fn sweep(&self) {
        let registry = Arc::clone(&self.registry);
        self.lock().retain(|version, _| {
            let keep = registry.version_state(*version) == Some(VersionState::Active);
            if !keep {
                registry.release(*version);
            }
            keep
        });
    }

    /// Number of templates currently held (and versions currently pinned).
    pub fn live_templates(&self) -> usize {
        self.lock().len()
    }
}

impl Drop for SnapshotStore {
    fn drop(&mut self) {
        // Release the remaining pins so a dropped server cannot wedge a
        // draining version forever.
        let map = std::mem::take(
            self.templates
                .get_mut()
                .expect("snapshot store lock poisoned"),
        );
        for version in map.into_keys() {
            self.registry.release(version);
        }
    }
}
