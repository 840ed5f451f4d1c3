//! Opaque typed handles for the registry API.
//!
//! The string-keyed registry API conflated three different things under one
//! `&str`: *which service* ("auth"), *which build of it* (the re-registered
//! roll of the same name), and *which client* (session ids were bare
//! `usize`s).  The handle types split those apart and make the type system
//! enforce the lifecycle:
//!
//! * [`BinaryId`] names a service across all its versions.  Only the
//!   registry mints these (on first submission of a name), so holding one
//!   proves the service exists.
//! * [`VersionId`] names one submitted build.  Only the registry mints
//!   these; every submission — including a rejected one — gets a fresh id,
//!   and all lifecycle queries (`version_state`, `promote`, `release`) key
//!   on it.
//! * [`SessionId`] names one client's session.  Clients pick these (one
//!   converts from a `u64` or `usize`); the runtime only requires
//!   uniqueness within one serve call.
//!
//! Handles are small `Copy` integers underneath: cheap to pass around,
//! `Ord` so reports can sort deterministically, and deliberately *not*
//! convertible back into each other or into raw integers by accident.

/// A service across all its versions.  Minted by the registry on the first
/// submission under a new name; stable for the registry's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BinaryId(pub(crate) u64);

impl std::fmt::Display for BinaryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "binary#{}", self.0)
    }
}

/// One submitted build of a service.  Minted by the registry per
/// submission; tracks that build through its whole lifecycle
/// (`Verifying → Warm → Active → Draining → Retired`, or `Rejected`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionId(pub(crate) u64);

impl VersionId {
    /// The raw version number (for labelling output and trace attributes).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for VersionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "version#{}", self.0)
    }
}

/// One client session.  Chosen by the caller; must be unique within a
/// single serve call (instances and private state are keyed by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw session number (for labelling output).
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl From<u64> for SessionId {
    fn from(id: u64) -> Self {
        SessionId(id)
    }
}

impl From<usize> for SessionId {
    fn from(id: usize) -> Self {
        SessionId(id as u64)
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_convert_and_compare() {
        let a: SessionId = 3usize.into();
        let b = SessionId::from(3u64);
        assert_eq!(a, b);
        assert_eq!(a.raw(), 3);
        assert!(SessionId::from(2u64) < SessionId::from(10u64));
        assert_eq!(format!("{a}"), "session#3");
    }

    #[test]
    fn handles_display_distinctly() {
        assert_eq!(format!("{}", BinaryId(1)), "binary#1");
        assert_eq!(format!("{}", VersionId(1)), "version#1");
    }
}
