//! The OpenLDAP stand-in (Section 7.3): a directory server holding user
//! entries whose passwords are private; lookups are driven by public keys so
//! the two workloads of the paper (queries for entries that do not exist vs
//! entries that do) can be reproduced.

use crate::WorkloadRun;
use confllvm_core::Config;
use confllvm_vm::World;

/// Directory server source.  The store is pre-populated by `populate(n)`;
/// `query(count, hit)` performs `count` lookups that hit (`hit=1`) or miss
/// (`hit=0`) and returns the number of matches found.
pub const SOURCE: &str = "
    extern void read_passwd(char *uname, private char *pass, int size);
    extern void encrypt(private char *src, char *dst, int size);
    extern int send(int fd, char *buf, int size);

    int keys[16384];
    int heads[1024];
    int nexts[16384];
    char passwords[16384];
    int entry_count;

    int hash(int k) {
        int h = (k * 2654435761) % 1024;
        if (h < 0) { h = 0 - h; }
        return h;
    }

    int populate(int n) {
        int i;
        char pwbuf[16];
        for (i = 0; i < 1024; i = i + 1) { heads[i] = 0 - 1; }
        entry_count = n;
        for (i = 0; i < n; i = i + 1) {
            int key = i * 7 + 3;
            keys[i] = key;
            int h = hash(key);
            nexts[i] = heads[h];
            heads[h] = i;
            // Store a (private) password byte per entry, fetched from T.
            read_passwd(\"user\", pwbuf, 16);
            passwords[i] = pwbuf[i % 16];
        }
        return n;
    }

    int lookup(int key) {
        int h = hash(key);
        int cur = heads[h];
        while (cur >= 0) {
            if (keys[cur] == key) { return cur; }
            cur = nexts[cur];
        }
        return 0 - 1;
    }

    int query(int count, int hit) {
        int q;
        int found = 0;
        char out[16];
        char staging[16];
        for (q = 0; q < count; q = q + 1) {
            int key;
            if (hit) { key = (q % entry_count) * 7 + 3; }
            else { key = q * 7 + 5; }
            int idx = lookup(key);
            if (idx >= 0) {
                found = found + 1;
                // Return the entry: declassify the password via T before it
                // leaves the server.
                staging[0] = passwords[idx];
                encrypt(staging, out, 16);
                send(1, out, 16);
            }
        }
        return found;
    }

    // Service entry point: answer exactly one lookup.  A hit declassifies
    // the entry's password via T and sends it; the return value says whether
    // the entry existed (1) or not (0).
    int handle_query(int key) {
        char out[16];
        char staging[16];
        int idx = lookup(key);
        if (idx >= 0) {
            staging[0] = passwords[idx];
            encrypt(staging, out, 16);
            send(1, out, 16);
            return 1;
        }
        return 0;
    }

    int main() { populate(64); return query(64, 1); }
";

/// Entry point the service runtime runs once per instance before taking the
/// warm-pool snapshot (and that a cold start re-runs on every request).
pub const SETUP_ENTRY: &str = "populate";

/// Entry point answering exactly one directory lookup.
pub const REQUEST_ENTRY: &str = "handle_query";

/// The key of the `i`-th entry `populate(n)` inserts (for hit streams).
pub fn present_key(i: usize) -> i64 {
    (i as i64) * 7 + 3
}

/// A key no `populate` call ever inserts (for miss streams).
pub fn absent_key(i: usize) -> i64 {
    (i as i64) * 7 + 5
}

/// The annotated source marks the password store private.
pub const PRIVATE_STORE_ANNOTATION: &str = "private char passwords[16384];";

/// Source with the password store annotated private (the deployed version).
pub fn annotated_source() -> String {
    SOURCE.replace("char passwords[16384];", PRIVATE_STORE_ANNOTATION)
}

/// One experiment: populate `entries`, then run `queries` lookups that hit or
/// miss.  Returns (populate+query) cycles and the run itself.
pub fn run(config: Config, entries: usize, queries: usize, hit: bool) -> WorkloadRun {
    let src = annotated_source();
    let mut w = World::new();
    w.set_password("user", b"ldap-secret-pw");
    // populate() and query() are driven from a tiny main written here via the
    // entry arguments: we call populate first, then query, by running two
    // functions on the same VM state.  For simplicity the driver calls
    // `populate` within `run_two`.
    run_two(&src, config, w, entries, queries, hit)
}

fn run_two(
    src: &str,
    config: Config,
    world: World,
    entries: usize,
    queries: usize,
    hit: bool,
) -> WorkloadRun {
    use confllvm_core::{compile, vm_for, CompileOptions};
    let opts = CompileOptions {
        config,
        entry: "populate".to_string(),
        ..Default::default()
    };
    let compiled = compile(src, &opts).expect("ldap workload compiles");
    let mut vm = vm_for(&compiled, world).expect("load");
    let pop = vm.run_function("populate", &[entries as i64]);
    assert!(
        !pop.outcome.is_fault(),
        "populate faulted: {:?}",
        pop.outcome
    );
    let result = vm.run_function("query", &[queries as i64, i64::from(hit)]);
    assert!(
        !result.outcome.is_fault(),
        "query faulted under {config}: {:?}",
        result.outcome
    );
    WorkloadRun {
        config,
        result,
        world: vm.world,
    }
}

/// Queries per billion cycles.
pub fn throughput(run: &WorkloadRun, queries: usize) -> f64 {
    queries as f64 / run.cycles() as f64 * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_workloads_behave() {
        let hit = run(Config::Base, 32, 32, true);
        assert_eq!(hit.exit_code(), Some(32));
        let miss = run(Config::Base, 32, 32, false);
        assert_eq!(miss.exit_code(), Some(0));
    }

    #[test]
    fn passwords_do_not_leave_in_clear() {
        let r = run(Config::OurMpx, 16, 16, true);
        let observable = r.world.observable();
        assert!(
            !observable.windows(6).any(|w| w == b"ldap-s"),
            "password prefix leaked"
        );
        assert!(!r.world.sent.is_empty());
    }

    #[test]
    fn query_entry_answers_single_lookups() {
        use confllvm_core::{compile, CompileOptions};
        use confllvm_vm::{Vm, VmOptions};
        let opts = CompileOptions {
            config: Config::OurMpx,
            entry: SETUP_ENTRY.to_string(),
            ..Default::default()
        };
        let compiled = compile(&annotated_source(), &opts).expect("compiles");
        let mut w = World::new();
        w.set_password("user", b"ldap-secret-pw");
        let mut vm = Vm::new(&compiled.program, VmOptions::default(), w).expect("load");
        let pop = vm.run_function(SETUP_ENTRY, &[32]);
        assert_eq!(pop.exit_code(), Some(32), "{:?}", pop.outcome);
        let hit = vm.run_function(REQUEST_ENTRY, &[present_key(5)]);
        assert_eq!(hit.exit_code(), Some(1), "{:?}", hit.outcome);
        assert_eq!(
            vm.world.sent.len(),
            16,
            "a hit sends the declassified entry"
        );
        let miss = vm.run_function(REQUEST_ENTRY, &[absent_key(5)]);
        assert_eq!(miss.exit_code(), Some(0), "{:?}", miss.outcome);
        assert_eq!(vm.world.sent.len(), 16, "a miss sends nothing");
        assert!(
            !vm.world.sent.windows(6).any(|s| s == b"ldap-s"),
            "password prefix leaked in clear"
        );
    }

    #[test]
    fn miss_workload_does_more_work_than_hit() {
        // Misses traverse longer chains / more probes, like the paper's
        // observation that OpenLDAP works harder for absent entries.
        let hit = run(Config::Base, 64, 64, true);
        let miss = run(Config::Base, 64, 64, false);
        assert!(miss.cycles() != hit.cycles());
    }
}
