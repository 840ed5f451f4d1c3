//! Content-hash verification cache.
//!
//! Verification is a pure function of a binary's *content*: the code words
//! plus the header facts the checker reads (scheme, CFI, stack layout, magic
//! prefixes, the trusted extern signature table).  The cache exploits that in
//! two tiers:
//!
//! * **Binary-level** — the hash of the whole binary maps to its complete
//!   verification result, so re-registering an unchanged binary (the common
//!   fleet roll: the same build pushed under a new version) is an O(1)
//!   lookup instead of a re-scan.
//! * **Procedure-level** — each procedure's word span (plus the
//!   cross-procedure facts its check reads: the magic word at every direct
//!   call target and the trap-ness of out-of-body branch targets) maps to
//!   that procedure's outcome, so unchanged functions inside a changed
//!   binary are also skipped.
//!
//! Cached procedure errors are stored with word offsets *relative* to the
//! procedure's magic word and rebased on every hit, so a hit from a
//! procedure that moved still reports correct absolute offsets.
//!
//! The cache is safe to share across threads and across concurrent
//! registrations; all lookups and stores go through one mutex (the guarded
//! work is a hash-map probe, orders of magnitude cheaper than the
//! verification it saves).  It lives in memory only: a process starts cold,
//! so no cache file is ever read back as input to the gate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use confllvm_machine::{Binary, BinaryHeader, MInst, Taint};

use crate::check::{Proc, ProcOutcome, Shared};
use crate::{VerifyError, VerifyReport};

/// FNV-1a 64-bit, the usual dependency-free content hash.
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(Self::PRIME);
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    /// Fold one 64-bit code word in a single xor+multiply step (FNV-1a over
    /// u64 units; the multiply by an odd prime is bijective, so a one-word
    /// difference always survives to the final state).  Byte-at-a-time
    /// hashing made the binary-level cache *hit* path hash-bound — the whole
    /// point of that tier is to be an order of magnitude cheaper than the
    /// re-scan it skips.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        // Length-prefix so concatenated fields cannot alias each other.
        self.u64(bs.len() as u64);
        for &b in bs {
            self.u8(b);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    pub fn taint(&mut self, t: Taint) {
        self.u8(match t {
            Taint::Public => 0,
            Taint::Private => 1,
        });
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of every header fact the checker reads.  The binary's *name* is
/// deliberately excluded: the same content registered under a different name
/// (or a new version) must hit.
pub(crate) fn header_ctx_hash(header: &BinaryHeader) -> u64 {
    let mut h = Fnv::new();
    h.u8(header.scheme as u8);
    h.u8(header.cfi as u8);
    h.u8(header.split_stacks as u8);
    h.u8(header.separate_trusted_memory as u8);
    h.u64(header.prefixes.call_prefix);
    h.u64(header.prefixes.ret_prefix);
    h.u64(header.externs.len() as u64);
    for e in &header.externs {
        h.str(&e.name);
        h.u64(e.param_taints.len() as u64);
        for &t in &e.param_taints {
            h.taint(t);
        }
        for &t in &e.param_pointee_taints {
            h.taint(t);
        }
        for &p in &e.param_is_pointer {
            h.u8(p as u8);
        }
        h.taint(e.ret_taint);
        h.u8(e.has_ret_value as u8);
    }
    h.u64(header.globals.len() as u64);
    for g in &header.globals {
        h.str(&g.name);
        h.u64(g.size);
        h.taint(g.taint);
        h.bytes(&g.init);
    }
    h.finish()
}

/// Content hash of a whole binary: the header context plus every code word.
pub fn binary_content_hash(binary: &Binary) -> u64 {
    let mut h = Fnv::new();
    h.u64(header_ctx_hash(&binary.header));
    h.u64(binary.words.len() as u64);
    for &w in &binary.words {
        h.word(w);
    }
    h.finish()
}

/// Content hash of one procedure: its word span, plus every cross-procedure
/// fact its check consults — the magic word preceding each direct call
/// target (the callee signature the call-site taints are checked against)
/// and whether each out-of-body branch target is a trap (the CFI guard
/// check).  Everything else the check reads lives inside the span itself.
pub(crate) fn proc_content_hash(s: &Shared<'_>, p: &Proc, header_ctx: u64) -> u64 {
    let mut h = Fnv::new();
    h.u64(header_ctx);
    let start = p.magic_word as usize;
    let end = (p.end_word as usize).min(s.binary.words.len());
    h.u64((end - start) as u64);
    for &w in &s.binary.words[start..end] {
        h.word(w);
    }
    for &idx in &p.body {
        match &s.insts[idx].1 {
            MInst::CallDirect { target } => {
                let callee_magic = s
                    .inst_at_word(target.saturating_sub(1))
                    .and_then(|mi| match s.insts[mi].1 {
                        MInst::MagicWord { value } => Some(value),
                        _ => None,
                    });
                h.u8(1);
                h.u64(callee_magic.unwrap_or(0));
                h.u8(callee_magic.is_some() as u8);
            }
            MInst::Jcc { target, .. } if *target < p.magic_word || *target >= p.end_word => {
                h.u8(2);
                h.u64(*target as u64);
                h.u8(s
                    .inst_at_word(*target)
                    .map(|ti| matches!(s.insts[ti].1, MInst::Trap { .. }))
                    .unwrap_or(false) as u8);
            }
            _ => {}
        }
    }
    h.finish()
}

/// A cached procedure outcome: errors stored relative to the procedure's
/// magic word, plus the procedure's share of the report counters.
#[derive(Clone)]
struct ProcEntry {
    rel_errors: Vec<VerifyError>,
    report: VerifyReport,
}

enum CacheEntry {
    Binary(Result<VerifyReport, Vec<VerifyError>>),
    Proc(ProcEntry),
}

/// Cache statistics: lookups that hit, lookups that missed, entries stored.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
}

/// The shared verification cache.  See the module docs for the two tiers.
#[derive(Default)]
pub struct VerifyCache {
    map: Mutex<HashMap<u64, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for VerifyCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("VerifyCache")
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl VerifyCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("verify cache poisoned").len(),
        }
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn lookup_binary(&self, key: u64) -> Option<Result<VerifyReport, Vec<VerifyError>>> {
        let map = self.map.lock().expect("verify cache poisoned");
        let out = match map.get(&key) {
            Some(CacheEntry::Binary(r)) => Some(r.clone()),
            _ => None,
        };
        drop(map);
        self.record(out.is_some());
        out
    }

    pub(crate) fn store_binary(&self, key: u64, result: &Result<VerifyReport, Vec<VerifyError>>) {
        self.map
            .lock()
            .expect("verify cache poisoned")
            .insert(key, CacheEntry::Binary(result.clone()));
    }

    /// Look up one procedure's outcome, rebasing cached error offsets onto
    /// `magic_word`.  Counts a hit/miss.
    pub(crate) fn lookup_proc(&self, key: u64, magic_word: u32) -> Option<ProcOutcome> {
        let map = self.map.lock().expect("verify cache poisoned");
        let out = match map.get(&key) {
            Some(CacheEntry::Proc(e)) => Some(ProcOutcome {
                errors: e
                    .rel_errors
                    .iter()
                    .map(|err| VerifyError {
                        word: err.word.wrapping_add(magic_word),
                        message: err.message.clone(),
                    })
                    .collect(),
                report: e.report.clone(),
            }),
            _ => None,
        };
        drop(map);
        self.record(out.is_some());
        out
    }

    pub(crate) fn store_proc(&self, key: u64, magic_word: u32, outcome: &ProcOutcome) {
        let entry = ProcEntry {
            rel_errors: outcome
                .errors
                .iter()
                .map(|err| VerifyError {
                    word: err.word.wrapping_sub(magic_word),
                    message: err.message.clone(),
                })
                .collect(),
            report: outcome.report.clone(),
        };
        self.map
            .lock()
            .expect("verify cache poisoned")
            .insert(key, CacheEntry::Proc(entry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_field_separated() {
        let mut a = Fnv::new();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Fnv::new();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(
            a.finish(),
            b.finish(),
            "length prefixes must prevent field aliasing"
        );
        let mut c = Fnv::new();
        c.bytes(b"ab");
        c.bytes(b"c");
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn cached_procedure_errors_rebase_onto_the_new_magic_word() {
        let cache = VerifyCache::new();
        let outcome = ProcOutcome {
            errors: vec![VerifyError {
                word: 108,
                message: "missing lower-bound check".into(),
            }],
            report: VerifyReport::default(),
        };
        cache.store_proc(0xCCCC, 100, &outcome);
        let hit = cache.lookup_proc(0xCCCC, 200).unwrap();
        assert_eq!(
            hit.errors[0].word, 208,
            "relative offsets must rebase onto the new magic word"
        );
    }

    #[test]
    fn binary_hash_ignores_name_but_not_words() {
        let mut a = Binary {
            words: vec![1, 2, 3],
            header: BinaryHeader {
                cfi: true,
                scheme: confllvm_machine::Scheme::Mpx,
                ..Default::default()
            },
        };
        let h1 = binary_content_hash(&a);
        a.header.name = "renamed".to_string();
        assert_eq!(h1, binary_content_hash(&a), "name must not affect the hash");
        a.words[1] = 99;
        assert_ne!(h1, binary_content_hash(&a));
    }
}
