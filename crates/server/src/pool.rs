//! Warm per-session instances.
//!
//! A pooled instance is a copy-on-write fork of its version's
//! [`SessionTemplate`](crate::store::SessionTemplate): the binary was loaded
//! once per version, its setup ran once (or per fork when it reads session
//! state — see the store's module docs), and the resulting snapshot is
//! shared.  Serving a request then costs: rewind to the snapshot in O(dirty
//! pages), queue the request, run the request entry — compile, load and
//! setup are all skipped, and a parked instance's resident footprint is just
//! its CoW-faulted pages plus registers/heaps/`World`.  Each session owns
//! its instance for the length of its stream, so one client's private state
//! never bleeds into another's VM.

use std::sync::Arc;

use confllvm_vm::{Outcome, Vm, VmSnapshot, World};

/// Cost accounting for the snapshot-restore, in simulated cycles.  Rewinding
/// is not free on real hardware (madvise/memcpy of the dirtied pages), so a
/// reset charges a base cost plus a per-page cost; the pooled-vs-cold
/// comparison stays honest because restore cost scales with the request's
/// write working set.
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    pub restore_base_cycles: u64,
    pub restore_per_page_cycles: u64,
    /// Spawn every session as a full private load + setup instead of a CoW
    /// fork — the per-session-pool baseline the scale benchmarks quote the
    /// resident-page drop against.  Observables are identical either way
    /// (asserted in the runtime tests); only residency and spawn cost move.
    pub isolate_sessions: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            // Roughly one syscall-ish boundary plus a page-copy per dirty
            // page — the same order as a trusted-call crossing.
            restore_base_cycles: 150,
            restore_per_page_cycles: 40,
            isolate_sessions: false,
        }
    }
}

/// Why an instance could not be spawned.
#[derive(Debug)]
pub enum SpawnError {
    Load(confllvm_vm::LoadError),
    /// The setup entry faulted or exited abnormally.
    Setup {
        outcome: Outcome,
    },
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Load(e) => write!(f, "{e}"),
            SpawnError::Setup { outcome } => write!(f, "setup entry failed: {outcome:?}"),
        }
    }
}

impl std::error::Error for SpawnError {}

/// One warm instance: a (usually forked) VM plus the post-setup snapshot it
/// is rewound to between requests.
#[derive(Debug)]
pub struct PooledInstance {
    pub vm: Vm,
    snapshot: Arc<VmSnapshot>,
    /// The session's own world at snapshot time.  The snapshot may be the
    /// version-wide shared one (whose world is the template's reference
    /// world), so `reset` restores memory from the snapshot but the world
    /// from here — private state survives the rewind.
    world_baseline: World,
    /// Lengths of the observable channels at snapshot time, so per-request
    /// output can be sliced out after each run.
    pub sent_baseline: usize,
    pub log_baseline: usize,
    /// Simulated cycles the setup run cost (what every cold request re-pays).
    pub setup_cycles: u64,
}

impl PooledInstance {
    /// Wrap a freshly spawned VM whose current memory state is captured by
    /// `snapshot`.  The world baseline is taken from the VM itself, not the
    /// snapshot, so version-wide shared snapshots work (see the field docs).
    pub(crate) fn new(vm: Vm, snapshot: Arc<VmSnapshot>, setup_cycles: u64) -> Self {
        let sent_baseline = vm.world.sent.len();
        let log_baseline = vm.world.log.len();
        let world_baseline = vm.world.clone();
        PooledInstance {
            vm,
            snapshot,
            world_baseline,
            sent_baseline,
            log_baseline,
            setup_cycles,
        }
    }

    /// Rewind to the post-setup snapshot.  Returns (dirty pages restored,
    /// simulated restore cost).
    pub fn reset(&mut self, opts: &PoolOptions) -> (u64, u64) {
        let stats = self.vm.restore(&self.snapshot);
        // The snapshot's world may be the shared template's; the session's
        // private state lives in the baseline.
        self.vm.world = self.world_baseline.clone();
        let dirty = stats.dirty_pages as u64;
        let cost = opts.restore_base_cycles + dirty * opts.restore_per_page_cycles;
        (dirty, cost)
    }

    /// Pages this instance holds privately (CoW-faulted or newly mapped) on
    /// top of its fork base — the per-session resident cost while parked.
    pub fn resident_private_pages(&self) -> usize {
        self.vm.resident_private_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Registry, ServiceBinary, SetupSpec, VerifyPolicy};
    use crate::store::SessionTemplate;
    use confllvm_core::{CompileOptions, Config};
    use confllvm_vm::{ExecStats, VmOptions};
    use confllvm_workloads::{ldap, nginx};

    fn template_for(
        version: crate::handles::VersionId,
        service: Arc<ServiceBinary>,
    ) -> SessionTemplate {
        SessionTemplate::build(version, service, VmOptions::default()).expect("template must build")
    }

    fn ldap_template() -> SessionTemplate {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions {
            config: Config::OurMpx,
            entry: ldap::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        reg.deploy_source(
            "ldap",
            &ldap::annotated_source(),
            &opts,
            Some(SetupSpec::new(ldap::SETUP_ENTRY, &[32])),
        )
        .expect("directory server must verify");
        let binary = reg.binary_id("ldap").unwrap();
        let (version, service) = reg.checkout_active(binary).unwrap();
        reg.release(version);
        template_for(version, service)
    }

    fn nginx_template() -> SessionTemplate {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions {
            config: Config::OurSeg,
            entry: nginx::SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        reg.deploy_source(
            "nginx",
            nginx::SOURCE,
            &opts,
            Some(SetupSpec::new(nginx::SETUP_ENTRY, &[])),
        )
        .expect("file server must verify");
        let binary = reg.binary_id("nginx").unwrap();
        let (version, service) = reg.checkout_active(binary).unwrap();
        reg.release(version);
        template_for(version, service)
    }

    fn world() -> World {
        let mut w = World::new();
        w.set_password("user", b"pool-secret");
        w
    }

    #[test]
    fn warm_instance_serves_repeatedly_after_resets() {
        let pool_opts = PoolOptions::default();
        let mut inst = ldap_template().instance(&world()).unwrap();
        assert!(inst.setup_cycles > 0, "populate must cost cycles");
        let mut round0: Option<ExecStats> = None;
        for round in 0..3 {
            let (_dirty, cost) = inst.reset(&pool_opts);
            assert!(cost >= pool_opts.restore_base_cycles);
            inst.vm.stats = ExecStats::default();
            let r = inst
                .vm
                .run_function(ldap::REQUEST_ENTRY, &[ldap::present_key(4)]);
            assert_eq!(r.exit_code(), Some(1), "round {round}: {:?}", r.outcome);
            // Every round starts from the same snapshot, so the observable
            // output is exactly one response past the baseline...
            assert_eq!(inst.vm.world.sent.len() - inst.sent_baseline, 16);
            // ...and the run repeats round 0's exactly, data-cache hits and
            // misses included: the reset rewinds the cache state too.
            let first = round0.get_or_insert_with(|| r.stats.clone());
            assert_eq!(r.stats, *first, "round {round}");
        }
    }

    #[test]
    fn sessions_get_distinct_instances_with_their_own_state() {
        let template = ldap_template();
        let pool_opts = PoolOptions::default();
        let mut w1 = World::new();
        w1.set_password("user", b"alpha-password!!");
        let mut w2 = World::new();
        w2.set_password("user", b"omega-password??");
        let mut a = template.instance(&w1).unwrap();
        let a_resp = {
            a.reset(&pool_opts);
            let r =
                a.vm.run_function(ldap::REQUEST_ENTRY, &[ldap::present_key(0)]);
            assert_eq!(r.exit_code(), Some(1));
            a.vm.world.sent.clone()
        };
        let mut b = template.instance(&w2).unwrap();
        let b_resp = {
            b.reset(&pool_opts);
            let r =
                b.vm.run_function(ldap::REQUEST_ENTRY, &[ldap::present_key(0)]);
            assert_eq!(r.exit_code(), Some(1));
            b.vm.world.sent.clone()
        };
        assert_ne!(
            a_resp, b_resp,
            "different private passwords declassify to different ciphertexts"
        );
    }

    #[test]
    fn forked_and_isolated_instances_produce_identical_observables() {
        let template = ldap_template();
        // The directory server's populate reads passwords, so its setup runs
        // per fork over the template's rewound post-load snapshot — but
        // load-time pages still share.
        assert!(!template.shared_setup);
        let pool_opts = PoolOptions::default();
        let w = world();
        let mut outputs = Vec::new();
        for mut inst in [
            template.instance(&w).unwrap(),
            template.isolated_instance(&w).unwrap(),
        ] {
            let mut served = Vec::new();
            for key in [
                ldap::present_key(2),
                ldap::absent_key(1),
                ldap::present_key(2),
            ] {
                inst.reset(&pool_opts);
                inst.vm.stats = ExecStats::default();
                let r = inst.vm.run_function(ldap::REQUEST_ENTRY, &[key]);
                assert!(r.exit_code().is_some(), "{:?}", r.outcome);
                let world = &inst.vm.world;
                served.push((r.stats, world.sent.clone(), world.log.clone()));
            }
            outputs.push(served);
        }
        // Request by request, cycle for cycle: the fork's data-cache hits
        // and misses match a fresh load's.
        assert_eq!(
            outputs[0], outputs[1],
            "fork must be byte-identical to isolation"
        );
    }

    #[test]
    fn shared_setup_forks_park_with_no_private_pages() {
        let template = nginx_template();
        // The file server's setup reads nothing session-private, so its
        // post-setup state is shared and a freshly parked fork owns nothing.
        assert!(template.shared_setup);
        assert!(template.shared_pages() > 0);
        let pool_opts = PoolOptions::default();
        let w = nginx::file_world(2, 256, 1);
        let mut parked = Vec::new();
        for mut inst in [
            template.instance(&w).unwrap(),
            template.isolated_instance(&w).unwrap(),
        ] {
            inst.reset(&pool_opts);
            inst.vm.world.push_request(&nginx::request_bytes(0));
            let r = inst.vm.run_function(nginx::REQUEST_ENTRY, &[256]);
            assert_eq!(r.exit_code(), Some(1), "{:?}", r.outcome);
            assert!(
                inst.resident_private_pages() > 0,
                "a running request dirties private pages"
            );
            inst.reset(&pool_opts);
            parked.push(inst.resident_private_pages());
        }
        let (f_parked, i_parked) = (parked[0], parked[1]);
        assert_eq!(f_parked, 0, "parked fork must share everything again");
        assert!(
            i_parked > 0,
            "isolated baseline keeps its whole address space resident"
        );
    }
}
