//! # confllvm-verify — ConfVerify
//!
//! The independent static verifier of Section 5.2: given only the *binary*
//! produced by the compiler (code words + the trusted extern signature table
//! and magic prefixes from the header), ConfVerify re-disassembles the code,
//! discovers procedure boundaries from the magic words, re-runs a register
//! taint analysis and checks that every store, call, return and indirect call
//! carries the instrumentation required for confidentiality.  The compiler is
//! thereby removed from the TCB: a buggy or malicious ConfLLVM cannot produce
//! a leaking binary that passes ConfVerify.
//!
//! The verifier shares only the instruction *decoder* with the rest of the
//! toolchain (mirroring the paper's use of an off-the-shelf disassembler);
//! the taint reasoning here is implemented independently of the compiler.
//!
//! The scan carries one state record per procedure: for each register its
//! taint, its bound check (bound register and displacement, a complete
//! `bndcl`/`bndcu` pair or a half waiting for the other), the stack slot it
//! was reloaded from, its `rsp` offset and the global whose address it
//! holds; the checked stack slots and globals; whether `_chkstk` has run;
//! and the taint of what the last `cmp` compared, which a `setcc` inherits.
//! Under MPX an access through a checked base counts as checked only with
//! no index register and a displacement within the guard areas of the
//! checked one.
//!
//! Because the scan is a single pass *per procedure* over immutable shared
//! state, verification scales out two ways (Section 7's deployment story at
//! fleet size):
//!
//! * [`verify_with`] runs the per-procedure checks over a work queue
//!   ([`VerifyOptions::threads`] workers) and/or consults a content-hash
//!   [`VerifyCache`], so re-registering an unchanged binary is an O(1)
//!   lookup and unchanged procedures inside a changed binary are skipped.
//! * [`verify_fleet`] schedules many binaries over one worker pool and
//!   reports work/makespan accounting alongside host wall time.
//!
//! Both produce byte-identical results to the serial [`verify`] — same
//! errors in the same order, same report counters.

mod cache;
mod check;
mod driver;

use confllvm_machine::{Binary, Scheme};

pub use cache::{binary_content_hash, CacheStats, VerifyCache};
pub use driver::{verify_fleet, verify_with, FleetReport, VerifyOptions};

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Code word offset the error refers to.
    pub word: u32,
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "verification failed at word {}: {}",
            self.word, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Statistics from a successful verification.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    pub procedures: usize,
    pub instructions_checked: usize,
    pub stores_checked: usize,
    pub calls_checked: usize,
    pub returns_checked: usize,
    pub indirect_calls_checked: usize,
    /// Procedures whose outcome came from a [`VerifyCache`] hit rather than
    /// a fresh scan (counts the whole binary's procedures on a binary-level
    /// hit).  Always zero when no cache was supplied.
    pub cached_procedures: usize,
}

impl VerifyReport {
    /// Fold another report's counters into this one (`cached_procedures` is
    /// tracked by the driver, not absorbed).
    pub(crate) fn absorb(&mut self, other: &VerifyReport) {
        self.procedures += other.procedures;
        self.instructions_checked += other.instructions_checked;
        self.stores_checked += other.stores_checked;
        self.calls_checked += other.calls_checked;
        self.returns_checked += other.returns_checked;
        self.indirect_calls_checked += other.indirect_calls_checked;
    }
}

/// Verify a binary with the serial single-threaded scan.  Returns a report
/// on success, or the list of violations.
pub fn verify(binary: &Binary) -> Result<VerifyReport, Vec<VerifyError>> {
    verify_with(binary, &VerifyOptions::serial(), None)
}

/// True if the binary is one ConfVerify can meaningfully check (it must have
/// been produced with a partitioning scheme and CFI).
pub fn is_verifiable(binary: &Binary) -> bool {
    binary.header.cfi && binary.header.scheme != Scheme::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_machine::{Binary, BinaryHeader};

    fn empty_binary(cfi: bool, scheme: Scheme) -> Binary {
        Binary {
            words: vec![],
            header: BinaryHeader {
                cfi,
                scheme,
                ..Default::default()
            },
        }
    }

    #[test]
    fn uninstrumented_binaries_are_rejected() {
        assert!(!is_verifiable(&empty_binary(false, Scheme::Mpx)));
        assert!(!is_verifiable(&empty_binary(true, Scheme::None)));
        assert!(verify(&empty_binary(false, Scheme::Mpx)).is_err());
    }

    #[test]
    fn empty_instrumented_binary_has_no_procedures() {
        let err = verify(&empty_binary(true, Scheme::Mpx)).unwrap_err();
        assert!(err[0].message.contains("no procedures"));
    }
}
