//! The external world the trusted library T mediates access to: the network,
//! files, stored passwords, logs, and the declassified-output channel.
//!
//! Everything an attacker can observe is collected here (`sent`, `log`), so
//! end-to-end confidentiality tests reduce to: run the program twice with
//! different private state and compare the observable fields.
//!
//! The inputs T only reads — files, secret files and passwords — sit behind
//! `Arc`s, so cloning a world (once per session fork and per restore) copies
//! no file bytes.  Change them through [`World::add_file`],
//! [`World::add_secret_file`] and [`World::set_password`], which copy a
//! shared table before writing it.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The world state visible to / mutated by T functions.
#[derive(Debug, Clone, Default)]
pub struct World {
    /// Incoming network messages (consumed by `recv`).
    pub network_in: VecDeque<Vec<u8>>,
    /// Bytes sent in clear on the network (`send`) — attacker-observable.
    pub sent: Vec<u8>,
    /// The log file (`log_write`) — attacker-observable.
    pub log: Vec<u8>,
    /// Public files (`read_file`).  Shared between clones; add through
    /// [`World::add_file`].
    pub files: Arc<HashMap<String, Vec<u8>>>,
    /// Private files (`read_file_secret`): served content, user data.
    /// Shared between clones; add through [`World::add_secret_file`].
    pub secret_files: Arc<HashMap<String, Vec<u8>>>,
    /// Stored per-user passwords (`read_passwd`).  Shared between clones;
    /// set through [`World::set_password`].
    pub passwords: Arc<HashMap<String, Vec<u8>>>,
    /// Values declassified through T (`declassify_result`).
    pub declassified: Vec<i64>,
    /// Toy symmetric key used by `encrypt`/`decrypt`/`encrypt_log`.
    pub key: u8,
    /// State of the deterministic `rng_next` generator.
    pub rng_state: u64,
    /// Monotonic counter returned by `get_time`.
    pub time: i64,
    /// Number of T calls that *read* world state so far (`recv`,
    /// `read_file`, `read_file_secret`, `read_passwd`, `rng_next`,
    /// `get_time`).  The serving layer uses this to detect whether a
    /// workload's setup entry point depends on per-session state: a setup
    /// run with zero reads (and no observable output) produced machine state
    /// every session can share copy-on-write.
    pub reads: u64,
}

impl World {
    pub fn new() -> Self {
        World {
            key: 0x5a,
            rng_state: 0x9e3779b97f4a7c15,
            ..Default::default()
        }
    }

    /// Queue an incoming network message.
    pub fn push_request(&mut self, bytes: &[u8]) {
        self.network_in.push_back(bytes.to_vec());
    }

    pub fn add_file(&mut self, name: &str, contents: &[u8]) {
        Arc::make_mut(&mut self.files).insert(name.to_string(), contents.to_vec());
    }

    pub fn add_secret_file(&mut self, name: &str, contents: &[u8]) {
        Arc::make_mut(&mut self.secret_files).insert(name.to_string(), contents.to_vec());
    }

    pub fn set_password(&mut self, user: &str, password: &[u8]) {
        Arc::make_mut(&mut self.passwords).insert(user.to_string(), password.to_vec());
    }

    /// The attacker-observable trace: everything that left U in clear.
    pub fn observable(&self) -> Vec<u8> {
        let mut v = self.sent.clone();
        v.extend_from_slice(&self.log);
        v
    }

    /// Toy stream "encryption" (xor with the key) used by the T crypto
    /// routines; its only purpose is to make declassified bytes differ from
    /// the raw private bytes so leak tests can tell the difference.
    pub fn xor_crypt(&self, data: &[u8]) -> Vec<u8> {
        data.iter().map(|b| b ^ self.key).collect()
    }

    /// Deterministic xorshift generator for workload inputs.
    pub fn next_rand(&mut self) -> i64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        (x & 0x7fff_ffff_ffff_ffff) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observable_concatenates_public_channels() {
        let mut w = World::new();
        w.sent.extend_from_slice(b"response");
        w.log.extend_from_slice(b"logline");
        assert_eq!(w.observable(), b"responselogline");
    }

    #[test]
    fn xor_crypt_is_involutive_and_nontrivial() {
        let w = World::new();
        let data = b"secret".to_vec();
        let enc = w.xor_crypt(&data);
        assert_ne!(enc, data);
        assert_eq!(w.xor_crypt(&enc), data);
    }

    #[test]
    fn clones_share_inputs_until_one_side_changes_them() {
        let mut a = World::new();
        a.add_secret_file("doc", b"private bytes");
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.secret_files, &b.secret_files), "no copy");
        b.add_secret_file("doc", b"replaced");
        b.add_secret_file("other", b"new");
        assert!(!Arc::ptr_eq(&a.secret_files, &b.secret_files));
        assert_eq!(a.secret_files.len(), 1, "the original is unchanged");
        assert_eq!(a.secret_files["doc"], b"private bytes");
        assert_eq!(b.secret_files["doc"], b"replaced");
    }

    #[test]
    fn rand_is_deterministic() {
        let mut a = World::new();
        let mut b = World::new();
        let xs: Vec<i64> = (0..5).map(|_| a.next_rand()).collect();
        let ys: Vec<i64> = (0..5).map(|_| b.next_rand()).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().all(|v| *v >= 0));
    }
}
