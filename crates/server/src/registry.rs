//! The versioned, verify-then-load binary registry.
//!
//! Deployment step one of the paper's service model: the provider receives a
//! binary, runs ConfVerify on it, and only a verifier-accepted binary can
//! ever serve.  The registry is the single gate — the only way to obtain a
//! servable [`ServiceBinary`] is [`Registry::checkout_active`], which hands
//! out *promoted* versions only, so "every serving binary is
//! verifier-accepted" holds by construction under the default policy.
//!
//! # Lifecycle
//!
//! Every submission gets its own [`VersionId`] and walks an explicit state
//! machine (see `crates/server/README.md` for the full diagram):
//!
//! ```text
//! submit ─→ Verifying ─→ Warm ─→ Active ─→ Draining ─→ Retired
//!                │  (promote)      (newer version promoted, pins drain)
//!                └─→ Rejected   (ConfVerify said no; never serves)
//! ```
//!
//! Re-submitting a name is not an error any more — it creates the *next
//! version* of that binary, which verifies and warms while the current
//! active version keeps serving (blue/green).  [`Registry::promote`] is the
//! atomic cut-over: the new version becomes [`VersionState::Active`], the
//! old one moves to [`VersionState::Draining`] and retires when its last
//! pinned session ends.  A rejected submission changes nothing: the old
//! active version never stops serving, which is the rollback story.
//!
//! # Concurrency
//!
//! Submission does its expensive work (compile, encode, ConfVerify, warm
//! load-probe) *outside* the registry lock, so many binaries can verify
//! concurrently; the shared [`VerifyCache`] makes re-submitting unchanged
//! content O(1) ([`Registry::with_verify_threads`] additionally spreads one
//! binary's procedures over a work queue).  All bookkeeping is behind one
//! mutex, and checkout/release are pin-counted so hot-swap can tell when a
//! drained version is safe to retire.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use confllvm_core::{compile, CompileError, CompileOptions, Config};
use confllvm_machine::Program;
use confllvm_verify::{
    is_verifiable, verify_with, CacheStats, VerifyCache, VerifyError, VerifyOptions, VerifyReport,
};
use confllvm_vm::{Vm, VmOptions, World};

use crate::handles::{BinaryId, VersionId};

/// What to do with binaries ConfVerify cannot check (builds without a
/// partitioning scheme or CFI, e.g. the `Base` baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// Reject anything that is not verifier-accepted (the production
    /// posture; unverifiable baselines cannot be registered at all).
    #[default]
    RequireVerified,
    /// Let unverifiable baseline builds through *unverified* — needed to
    /// measure `Base` in the evaluation.  Verifiable binaries are still
    /// verified and still rejected on failure.
    AllowUnverifiable,
}

/// Where a version is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionState {
    /// Submitted; ConfVerify is (conceptually) still running.  Only
    /// observable from other threads during a concurrent submission.
    Verifying,
    /// Verifier-accepted and load-probed; ready to be promoted.
    Warm,
    /// The version [`Registry::checkout_active`] hands out.  At most one
    /// per binary.
    Active,
    /// A newer version was promoted; existing pinned sessions finish here,
    /// no new checkouts.
    Draining,
    /// Drained to zero pins; gone for good.
    Retired,
    /// ConfVerify (or the warm probe) said no.  Never serves, never leaves
    /// this state.
    Rejected,
}

impl VersionState {
    /// Short lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            VersionState::Verifying => "verifying",
            VersionState::Warm => "warm",
            VersionState::Active => "active",
            VersionState::Draining => "draining",
            VersionState::Retired => "retired",
            VersionState::Rejected => "rejected",
        }
    }
}

impl std::fmt::Display for VersionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum RegisterError {
    /// The source failed to compile (includes the compile-time
    /// information-flow rejections).
    Compile(CompileError),
    /// The binary carries no instrumentation ConfVerify can check and the
    /// policy demands verification.
    Unverifiable {
        /// Service name as submitted.
        name: String,
        /// Build configuration of the refused binary.
        config: Config,
        /// The rejected submission's version handle.
        version: VersionId,
    },
    /// ConfVerify rejected the binary — the load-time stop of a compiler
    /// bug or a malicious build.  The version is left in
    /// [`VersionState::Rejected`]; nothing about the currently active
    /// version changed.
    Verify {
        /// Service name as submitted.
        name: String,
        /// The rejected submission's version handle.
        version: VersionId,
        /// Everything ConfVerify found wrong.
        errors: Vec<VerifyError>,
    },
    /// The verified binary failed its warm load-probe (it cannot be loaded
    /// into a VM at all).
    Warm {
        /// Service name as submitted.
        name: String,
        /// The rejected submission's version handle.
        version: VersionId,
        /// The loader's complaint.
        message: String,
    },
}

impl RegisterError {
    /// The version handle of the refused submission, if one was minted
    /// (compile failures happen before any version exists).
    pub fn version(&self) -> Option<VersionId> {
        match self {
            RegisterError::Compile(_) => None,
            RegisterError::Unverifiable { version, .. }
            | RegisterError::Verify { version, .. }
            | RegisterError::Warm { version, .. } => Some(*version),
        }
    }
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Compile(e) => write!(f, "submission failed to compile: {e}"),
            RegisterError::Unverifiable {
                name,
                config,
                version,
            } => write!(
                f,
                "`{name}` {version} ({config}) is not verifiable and the registry requires verification"
            ),
            RegisterError::Verify {
                name,
                version,
                errors,
            } => {
                write!(
                    f,
                    "`{name}` {version} rejected by ConfVerify ({} error(s)",
                    errors.len()
                )?;
                if let Some(first) = errors.first() {
                    write!(f, "; first: {first}")?;
                }
                write!(f, ")")
            }
            RegisterError::Warm {
                name,
                version,
                message,
            } => write!(f, "`{name}` {version} failed its warm load-probe: {message}"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Why a promotion was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PromoteError {
    /// No such version.
    UnknownVersion(VersionId),
    /// Only [`VersionState::Warm`] versions can be promoted; in particular
    /// a [`VersionState::Rejected`] version can *never* become active.
    NotWarm {
        /// The version whose promotion was refused.
        version: VersionId,
        /// The state it was actually in.
        state: VersionState,
    },
}

impl std::fmt::Display for PromoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PromoteError::UnknownVersion(v) => write!(f, "no such version {v}"),
            PromoteError::NotWarm { version, state } => {
                write!(
                    f,
                    "{version} is {state}, only warm versions can be promoted"
                )
            }
        }
    }
}

impl std::error::Error for PromoteError {}

/// The once-per-instance initialisation a workload needs before it can serve
/// (e.g. `populate(entries)` for the directory server).  Cold execution pays
/// this on every request; pooled execution pays it once per instance and
/// snapshots the result.
#[derive(Debug, Clone, Default)]
pub struct SetupSpec {
    /// Entry point to run once per instance.
    pub entry: String,
    /// Its arguments.
    pub args: Vec<i64>,
}

impl SetupSpec {
    /// A setup running `entry(args)`.
    pub fn new(entry: &str, args: &[i64]) -> Self {
        SetupSpec {
            entry: entry.to_string(),
            args: args.to_vec(),
        }
    }
}

/// A registered, servable binary — one version's immutable payload.
#[derive(Debug, Clone)]
pub struct ServiceBinary {
    /// The service this version belongs to.
    pub binary_id: BinaryId,
    /// This build's version handle.
    pub version_id: VersionId,
    /// Service name as submitted.
    pub name: String,
    /// Build configuration.
    pub config: Config,
    /// The verified program, shared with every pool that loads it.
    pub program: Arc<Program>,
    /// ConfVerify's report — `None` only when an unverifiable baseline was
    /// admitted under [`VerifyPolicy::AllowUnverifiable`].
    pub verify_report: Option<VerifyReport>,
    /// Per-instance initialisation, if the workload needs any.
    pub setup: Option<SetupSpec>,
}

impl ServiceBinary {
    /// Was this binary accepted by ConfVerify (as opposed to admitted
    /// unverified under the relaxed policy)?
    pub fn verified(&self) -> bool {
        self.verify_report.is_some()
    }
}

/// A snapshot of one version's bookkeeping, for reports and tests.
#[derive(Debug, Clone)]
pub struct VersionInfo {
    /// The service this version belongs to.
    pub binary: BinaryId,
    /// Service name as submitted.
    pub name: String,
    /// Lifecycle state at snapshot time.
    pub state: VersionState,
    /// Sessions currently pinned to this version.
    pub pins: u64,
    /// ConfVerify errors (non-empty only for rejected versions).
    pub errors: Vec<VerifyError>,
}

struct VersionEntry {
    binary: BinaryId,
    name: String,
    state: VersionState,
    service: Option<Arc<ServiceBinary>>,
    pins: u64,
    errors: Vec<VerifyError>,
}

struct BinaryEntry {
    active: Option<VersionId>,
    versions: Vec<VersionId>,
}

#[derive(Default)]
struct Inner {
    by_name: HashMap<String, BinaryId>,
    binaries: HashMap<BinaryId, BinaryEntry>,
    versions: HashMap<VersionId, VersionEntry>,
    next_binary: u64,
    next_version: u64,
}

/// The versioned registry.  See the module docs for the lifecycle; all
/// methods take `&self`, so one registry can be shared (`Arc<Registry>`)
/// between concurrent submitters and the serving runtime.
pub struct Registry {
    policy: VerifyPolicy,
    verify_opts: VerifyOptions,
    cache: VerifyCache,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("policy", &self.policy)
            .field("verify_opts", &self.verify_opts)
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new(VerifyPolicy::default())
    }
}

/// Record one version-lifecycle transition as a tagged `server`-layer
/// instant event — one per edge of
/// `Verifying → Warm → Active → Draining → Retired | Rejected`, carrying
/// the version and binary handles and the state entered.  No-op when the
/// process-wide recorder is disabled.
fn lifecycle_event(binary: BinaryId, version: VersionId, state: VersionState) {
    let rec = confllvm_obs::recorder();
    if !rec.enabled() {
        return;
    }
    let mut e = rec.instant("server", "registry.transition");
    e.attr("binary", binary.0);
    e.attr("version", version.0);
    e.attr("state", state.name());
}

impl Registry {
    /// A fresh registry with the serial verifier and an empty cache.
    pub fn new(policy: VerifyPolicy) -> Self {
        Registry {
            policy,
            verify_opts: VerifyOptions::serial(),
            cache: VerifyCache::new(),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Builder-style: verify each submission's procedures over `threads`
    /// workers.
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        self.verify_opts = VerifyOptions::with_threads(threads);
        self
    }

    /// The unverifiable-binary policy this registry enforces.
    pub fn policy(&self) -> VerifyPolicy {
        self.policy
    }

    /// Hit/miss/size counters of the shared verification cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("registry lock poisoned")
    }

    /// Submit a binary the provider received from a developer.  This is the
    /// load-time gate: the program is encoded to its binary form and
    /// ConfVerify re-disassembles and checks it (outside the registry lock,
    /// through the shared cache); a verifier-accepted version is load-probed
    /// and parked in [`VersionState::Warm`], awaiting [`Registry::promote`].
    /// Re-submitting an existing name creates that binary's next version —
    /// the currently active version is not affected either way.
    pub fn submit_program(
        &self,
        name: &str,
        program: Program,
        config: Config,
        setup: Option<SetupSpec>,
    ) -> Result<VersionId, RegisterError> {
        // Mint the handles and the Verifying entry under the lock…
        let (binary_id, version_id) = {
            let mut inner = self.lock();
            let binary_id = match inner.by_name.get(name) {
                Some(&id) => id,
                None => {
                    inner.next_binary += 1;
                    let id = BinaryId(inner.next_binary);
                    inner.by_name.insert(name.to_string(), id);
                    inner.binaries.insert(
                        id,
                        BinaryEntry {
                            active: None,
                            versions: Vec::new(),
                        },
                    );
                    id
                }
            };
            inner.next_version += 1;
            let version_id = VersionId(inner.next_version);
            inner.versions.insert(
                version_id,
                VersionEntry {
                    binary: binary_id,
                    name: name.to_string(),
                    state: VersionState::Verifying,
                    service: None,
                    pins: 0,
                    errors: Vec::new(),
                },
            );
            inner
                .binaries
                .get_mut(&binary_id)
                .expect("binary entry just ensured")
                .versions
                .push(version_id);
            (binary_id, version_id)
        };
        lifecycle_event(binary_id, version_id, VersionState::Verifying);

        // …then do all the expensive work unlocked, so submissions verify
        // concurrently.
        let binary = program.encode();
        let verify_report = if is_verifiable(&binary) {
            match verify_with(&binary, &self.verify_opts, Some(&self.cache)) {
                Ok(report) => Some(report),
                Err(errors) => {
                    self.reject(version_id, errors.clone());
                    return Err(RegisterError::Verify {
                        name: name.to_string(),
                        version: version_id,
                        errors,
                    });
                }
            }
        } else {
            match self.policy {
                VerifyPolicy::RequireVerified => {
                    self.reject(version_id, Vec::new());
                    return Err(RegisterError::Unverifiable {
                        name: name.to_string(),
                        config,
                        version: version_id,
                    });
                }
                VerifyPolicy::AllowUnverifiable => None,
            }
        };

        let service = Arc::new(ServiceBinary {
            binary_id,
            version_id,
            name: name.to_string(),
            config,
            program: Arc::new(program),
            verify_report,
            setup,
        });

        // Warm load-probe: the verified program must actually load into a
        // VM.  (Per-session setup and snapshots are the pool's job — setup
        // runs against each session's private world.)
        let vm_opts = VmOptions {
            allocator: config.allocator(),
            ..Default::default()
        };
        if let Err(e) = Vm::new(&service.program, vm_opts, World::new()) {
            self.reject(version_id, Vec::new());
            return Err(RegisterError::Warm {
                name: name.to_string(),
                version: version_id,
                message: e.to_string(),
            });
        }

        let mut inner = self.lock();
        let entry = inner
            .versions
            .get_mut(&version_id)
            .expect("version entry outlives submission");
        entry.state = VersionState::Warm;
        entry.service = Some(service);
        drop(inner);
        lifecycle_event(binary_id, version_id, VersionState::Warm);
        Ok(version_id)
    }

    /// Convenience for the common case where the provider also builds:
    /// compile `source` under `opts`, then go through the same
    /// verify-then-load gate as [`Registry::submit_program`].
    pub fn submit_source(
        &self,
        name: &str,
        source: &str,
        opts: &CompileOptions,
        setup: Option<SetupSpec>,
    ) -> Result<VersionId, RegisterError> {
        let compiled = compile(source, opts).map_err(RegisterError::Compile)?;
        self.submit_program(name, compiled.program, opts.config, setup)
    }

    fn reject(&self, version: VersionId, errors: Vec<VerifyError>) {
        let mut inner = self.lock();
        let binary = if let Some(entry) = inner.versions.get_mut(&version) {
            entry.state = VersionState::Rejected;
            entry.errors = errors;
            Some(entry.binary)
        } else {
            None
        };
        drop(inner);
        if let Some(binary) = binary {
            lifecycle_event(binary, version, VersionState::Rejected);
        }
    }

    /// Atomically cut traffic over to a [`VersionState::Warm`] version: it
    /// becomes [`VersionState::Active`]; the previously active version of
    /// the same binary moves to [`VersionState::Draining`] (or straight to
    /// [`VersionState::Retired`] if no session is pinned to it).  Sessions
    /// already running keep the version they checked out — promotion never
    /// interrupts them.
    pub fn promote(&self, version: VersionId) -> Result<(), PromoteError> {
        let mut inner = self.lock();
        let (binary, state) = match inner.versions.get(&version) {
            None => return Err(PromoteError::UnknownVersion(version)),
            Some(e) => (e.binary, e.state),
        };
        if state != VersionState::Warm {
            return Err(PromoteError::NotWarm { version, state });
        }
        let previous = inner
            .binaries
            .get(&binary)
            .and_then(|b| b.active)
            .filter(|&old| old != version);
        let mut old_state = None;
        if let Some(old) = previous {
            let old_entry = inner
                .versions
                .get_mut(&old)
                .expect("active version has an entry");
            old_entry.state = if old_entry.pins == 0 {
                old_entry.service = None;
                VersionState::Retired
            } else {
                VersionState::Draining
            };
            old_state = Some((old, old_entry.state));
        }
        inner
            .versions
            .get_mut(&version)
            .expect("checked above")
            .state = VersionState::Active;
        inner
            .binaries
            .get_mut(&binary)
            .expect("version's binary exists")
            .active = Some(version);
        drop(inner);
        if let Some((old, state)) = old_state {
            lifecycle_event(binary, old, state);
        }
        lifecycle_event(binary, version, VersionState::Active);
        Ok(())
    }

    /// Pin a session to the binary's currently active version and hand out
    /// its payload.  Returns `None` when the binary has no active version
    /// (nothing promoted yet, or never submitted).  The caller must pair
    /// this with [`Registry::release`] when the session ends.
    ///
    /// Only [`VersionState::Active`] versions are ever returned — this is
    /// the single point through which binaries reach the serving runtime,
    /// so a rejected or merely warm version cannot serve by construction.
    pub fn checkout_active(&self, binary: BinaryId) -> Option<(VersionId, Arc<ServiceBinary>)> {
        let mut inner = self.lock();
        let active = inner.binaries.get(&binary)?.active?;
        let entry = inner.versions.get_mut(&active)?;
        if entry.state != VersionState::Active {
            return None;
        }
        entry.pins += 1;
        Some((
            active,
            entry.service.clone().expect("active version has a payload"),
        ))
    }

    /// Pin `version` directly (without going through the active lookup).
    /// Used by the snapshot store to keep a session template's version alive
    /// for the template's lifetime: evicting the template releases the pin,
    /// which is what lets a drained blue/green cut-over finally retire.
    /// Returns `false` — and takes no pin — if the version is already
    /// retired or rejected.  Pair with [`Registry::release`].
    pub fn pin(&self, version: VersionId) -> bool {
        let mut inner = self.lock();
        match inner.versions.get_mut(&version) {
            Some(entry)
                if matches!(
                    entry.state,
                    VersionState::Active | VersionState::Draining | VersionState::Warm
                ) =>
            {
                entry.pins += 1;
                true
            }
            _ => false,
        }
    }

    /// Unpin a session from `version`.  The last release of a
    /// [`VersionState::Draining`] version retires it.
    pub fn release(&self, version: VersionId) {
        let mut inner = self.lock();
        let mut retired = None;
        if let Some(entry) = inner.versions.get_mut(&version) {
            entry.pins = entry.pins.saturating_sub(1);
            if entry.pins == 0 && entry.state == VersionState::Draining {
                entry.state = VersionState::Retired;
                entry.service = None;
                retired = Some(entry.binary);
            }
        }
        drop(inner);
        if let Some(binary) = retired {
            lifecycle_event(binary, version, VersionState::Retired);
        }
    }

    /// The handle for `name`, if it was ever submitted.
    pub fn binary_id(&self, name: &str) -> Option<BinaryId> {
        self.lock().by_name.get(name).copied()
    }

    /// The binary's currently active version, if any.
    pub fn active_version(&self, binary: BinaryId) -> Option<VersionId> {
        self.lock().binaries.get(&binary)?.active
    }

    /// Every version ever submitted for `binary`, in submission order.
    pub fn versions(&self, binary: BinaryId) -> Vec<VersionId> {
        self.lock()
            .binaries
            .get(&binary)
            .map(|b| b.versions.clone())
            .unwrap_or_default()
    }

    /// Lifecycle state of one version.
    pub fn version_state(&self, version: VersionId) -> Option<VersionState> {
        self.lock().versions.get(&version).map(|e| e.state)
    }

    /// Full bookkeeping snapshot of one version.
    pub fn version_info(&self, version: VersionId) -> Option<VersionInfo> {
        self.lock().versions.get(&version).map(|e| VersionInfo {
            binary: e.binary,
            name: e.name.clone(),
            state: e.state,
            pins: e.pins,
            errors: e.errors.clone(),
        })
    }

    /// Submit `source` and, on success, immediately promote — the one-step
    /// deploy for callers that do not stage a warm version first.
    pub fn deploy_source(
        &self,
        name: &str,
        source: &str,
        opts: &CompileOptions,
        setup: Option<SetupSpec>,
    ) -> Result<VersionId, RegisterError> {
        let version = self.submit_source(name, source, opts, setup)?;
        self.promote(version)
            .expect("a just-submitted warm version promotes");
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_core::compile_for;
    use confllvm_machine::{BndReg, MInst};

    const APP: &str = "
        extern void read_passwd(char *u, private char *p, int n);
        extern void encrypt(private char *src, char *dst, int n);
        extern int send(int fd, char *buf, int n);
        private int digest(private char *pw, int n) {
            int i;
            int acc = 0;
            for (i = 0; i < n; i = i + 1) { acc = acc + pw[i] * 31; }
            return acc;
        }
        int handle(int n) {
            char user[8];
            user[0] = 'a'; user[1] = 0;
            char pw[16];
            read_passwd(user, pw, 16);
            private int d = digest(pw, 16);
            char out[16];
            encrypt(pw, out, 16);
            send(1, out, 16);
            return n;
        }
        int main() { return handle(0); }
    ";

    fn tampered_program() -> Program {
        let compiled = compile_for(APP, Config::OurMpx).unwrap();
        let mut program = compiled.program.clone();
        let mut dropped = 0;
        for inst in &mut program.insts {
            if matches!(
                inst,
                MInst::BndCheck {
                    bnd: BndReg::Bnd1,
                    ..
                }
            ) {
                *inst = MInst::Nop;
                dropped += 1;
            }
        }
        assert!(dropped > 0, "build must contain private-region checks");
        program
    }

    #[test]
    fn submission_walks_the_lifecycle_to_active() {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions::for_config(Config::OurMpx);
        let v1 = reg
            .submit_source("auth", APP, &opts, Some(SetupSpec::new("handle", &[0])))
            .expect("verifier-accepted binary must submit");
        assert_eq!(reg.version_state(v1), Some(VersionState::Warm));
        let binary = reg.binary_id("auth").unwrap();
        assert!(
            reg.checkout_active(binary).is_none(),
            "warm versions must not serve before promotion"
        );
        reg.promote(v1).unwrap();
        assert_eq!(reg.version_state(v1), Some(VersionState::Active));
        let (version, service) = reg.checkout_active(binary).unwrap();
        assert_eq!(version, v1);
        assert!(service.verified());
        assert!(service.verify_report.as_ref().unwrap().procedures >= 2);
        assert_eq!(service.binary_id, binary);
        assert_eq!(service.version_id, v1);
        assert_eq!(reg.version_info(v1).unwrap().pins, 1);
        reg.release(v1);
        assert_eq!(reg.version_info(v1).unwrap().pins, 0);
        let names: Vec<String> = reg.lock().by_name.keys().cloned().collect();
        assert_eq!(names, ["auth"]);
    }

    #[test]
    fn tampered_binary_is_rejected_and_cannot_be_promoted() {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let err = reg
            .submit_program("vuln", tampered_program(), Config::OurMpx, None)
            .unwrap_err();
        let version = match &err {
            RegisterError::Verify {
                name,
                version,
                errors,
            } => {
                assert_eq!(name, "vuln");
                assert!(!errors.is_empty());
                *version
            }
            other => panic!("expected a ConfVerify rejection, got {other:?}"),
        };
        assert_eq!(reg.version_state(version), Some(VersionState::Rejected));
        assert!(!reg.version_info(version).unwrap().errors.is_empty());
        assert!(matches!(
            reg.promote(version),
            Err(PromoteError::NotWarm {
                state: VersionState::Rejected,
                ..
            })
        ));
        let binary = reg.binary_id("vuln").unwrap();
        assert!(
            reg.checkout_active(binary).is_none(),
            "a rejected version must never serve"
        );
    }

    #[test]
    fn hot_swap_promotes_new_and_drains_old() {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions::for_config(Config::OurMpx);
        let v1 = reg.deploy_source("auth", APP, &opts, None).unwrap();
        let binary = reg.binary_id("auth").unwrap();
        // A session pins v1…
        let (pinned, _) = reg.checkout_active(binary).unwrap();
        assert_eq!(pinned, v1);
        // …while v2 of the same name verifies and is promoted.
        let v2 = reg.submit_source("auth", APP, &opts, None).unwrap();
        assert_ne!(v1, v2);
        reg.promote(v2).unwrap();
        assert_eq!(reg.version_state(v2), Some(VersionState::Active));
        assert_eq!(
            reg.version_state(v1),
            Some(VersionState::Draining),
            "the pinned old version drains instead of dying under the session"
        );
        // New sessions land on v2; the pinned session finishes on v1.
        let (now, _) = reg.checkout_active(binary).unwrap();
        assert_eq!(now, v2);
        reg.release(v1);
        assert_eq!(
            reg.version_state(v1),
            Some(VersionState::Retired),
            "last release of a draining version retires it"
        );
        reg.release(v2);
        assert_eq!(reg.versions(binary), vec![v1, v2]);
        assert_eq!(reg.lock().binaries.len(), 1, "two versions, one binary");
    }

    #[test]
    fn rejected_resubmission_rolls_back_to_the_serving_version() {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions::for_config(Config::OurMpx);
        let v1 = reg.deploy_source("auth", APP, &opts, None).unwrap();
        let binary = reg.binary_id("auth").unwrap();
        let err = reg
            .submit_program("auth", tampered_program(), Config::OurMpx, None)
            .unwrap_err();
        let v2 = err.version().unwrap();
        assert_eq!(reg.version_state(v2), Some(VersionState::Rejected));
        // Rollback is a non-event: v1 never stopped being active.
        assert_eq!(reg.active_version(binary), Some(v1));
        assert_eq!(reg.version_state(v1), Some(VersionState::Active));
        let (serving, _) = reg.checkout_active(binary).unwrap();
        assert_eq!(serving, v1);
    }

    #[test]
    fn unchanged_resubmission_hits_the_verification_cache() {
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions::for_config(Config::OurMpx);
        reg.submit_source("auth", APP, &opts, None).unwrap();
        let first = reg.cache_stats();
        reg.submit_source("auth", APP, &opts, None).unwrap();
        let second = reg.cache_stats();
        assert_eq!(
            second.hits,
            first.hits + 1,
            "an unchanged build re-verifies through the binary-level cache"
        );
    }

    #[test]
    fn unverifiable_baseline_follows_policy() {
        let opts = CompileOptions::for_config(Config::Base);
        let strict = Registry::new(VerifyPolicy::RequireVerified);
        match strict.submit_source("base", APP, &opts, None) {
            Err(RegisterError::Unverifiable { version, .. }) => {
                assert_eq!(strict.version_state(version), Some(VersionState::Rejected));
            }
            other => panic!("expected Unverifiable, got {other:?}"),
        }
        let relaxed = Registry::new(VerifyPolicy::AllowUnverifiable);
        let v = relaxed.deploy_source("base", APP, &opts, None).unwrap();
        let binary = relaxed.binary_id("base").unwrap();
        let (version, service) = relaxed.checkout_active(binary).unwrap();
        assert_eq!(version, v);
        assert!(!service.verified());
    }

    #[test]
    fn leaky_source_is_rejected_at_compile_time() {
        let leaky = "
            extern void read_passwd(char *u, private char *p, int n);
            extern int send(int fd, char *buf, int n);
            int main() {
                char user[8];
                char pw[16];
                read_passwd(user, pw, 16);
                send(1, pw, 16);
                return 0;
            }
        ";
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions::for_config(Config::OurMpx);
        let err = reg.submit_source("leaky", leaky, &opts, None).unwrap_err();
        assert!(matches!(
            err,
            RegisterError::Compile(CompileError::Taint(_))
        ));
        assert!(err.version().is_none(), "no version minted before compile");
        assert!(reg.lock().binaries.is_empty());
    }

    #[test]
    fn lifecycle_transitions_emit_tagged_events() {
        use confllvm_obs::{recorder, AttrValue};

        // Other tests in this binary mint the same `VersionId`s on their own
        // threads while the recorder is on.  Transitions are emitted on the
        // submitting thread, so only this thread's ring is read, from a
        // marker recorded before the first submission.
        const MARKER: &str = "test.lifecycle.begin";
        let rec = recorder();
        rec.set_enabled(true);
        drop(rec.instant("server", MARKER));
        let reg = Registry::new(VerifyPolicy::RequireVerified);
        let opts = CompileOptions::for_config(Config::OurMpx);
        let v1 = reg.submit_source("auth", APP, &opts, None).unwrap();
        reg.promote(v1).unwrap();
        let v2 = reg.submit_source("auth", APP, &opts, None).unwrap();
        reg.promote(v2).unwrap();
        rec.set_enabled(false);

        let snapshot = rec.snapshot();
        let ours = snapshot
            .threads
            .iter()
            .find_map(|t| {
                let at = t.events.iter().rposition(|e| e.name == MARKER)?;
                Some(&t.events[at + 1..])
            })
            .expect("the marker is in this thread's ring");
        // Pull out the transition markers tagged with each version's id.
        let states_of = |version: VersionId| -> Vec<&'static str> {
            ours.iter()
                .filter(|e| {
                    e.name == "registry.transition"
                        && e.attrs.contains(&("version", AttrValue::U64(version.0)))
                })
                .filter_map(|e| {
                    e.attrs.iter().find_map(|(k, v)| match v {
                        AttrValue::Text(s) if *k == "state" => Some(*s),
                        _ => None,
                    })
                })
                .collect()
        };
        // v1: submitted, warmed, promoted, then retired by v2's promotion
        // (no pinned sessions, so it skips Draining).
        assert_eq!(
            states_of(v1),
            ["verifying", "warm", "active", "retired"],
            "v1 walks the full lifecycle"
        );
        assert_eq!(states_of(v2), ["verifying", "warm", "active"]);
    }
}
