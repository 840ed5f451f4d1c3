//! The vulnerability-injection targets of Section 7.6: three deliberately
//! buggy programs whose exploits leak private data under an unprotected
//! build, and are stopped (statically or at runtime) by ConfLLVM.
//!
//! Unlike the other workloads these drivers tolerate faults: a fault *is* the
//! expected outcome when the instrumentation stops an exploit.

use confllvm_core::{compile, vm_for, CompileError, CompileOptions, Config};
use confllvm_vm::{Outcome, World};

/// Outcome of driving one vulnerable application.
#[derive(Debug, Clone)]
pub struct ExploitOutcome {
    pub config: Config,
    /// Did the static analysis already reject the program?
    pub rejected_at_compile_time: bool,
    /// Runtime outcome (None if rejected at compile time).
    pub outcome: Option<Outcome>,
    /// Did any private bytes reach the attacker-observable channels?
    pub leaked: bool,
}

/// 1. The Mongoose-style stale-stack disclosure: a handler that serves a
///    private file leaves its contents on the stack; a later handler sends
///    an uninitialised buffer of the same shape, disclosing the stale data.
pub const MONGOOSE_STALE_STACK: &str = "
    extern int read_file_secret(char *name, private char *buf, int size);
    extern int send(int fd, char *buf, int size);

    int handle_private_request(int size) {
        char buf[256];
        read_file_secret(\"private.html\", buf, size);
        return size;
    }

    int handle_public_request(int size) {
        char buf[256];
        // BUG: buf is sent without ever being initialised — it discloses
        // whatever the previous request left at this stack location.
        send(1, buf, size);
        return size;
    }

    int run_exploit() {
        handle_private_request(256);
        handle_public_request(256);
        return 0;
    }

    int main() { return run_exploit(); }
";

/// 2. The Minizip-style password leak: the password is written to the log,
///    with enough pointer casts that the static analysis cannot see the
///    flow — only the runtime checks can stop it.
pub const MINIZIP_CAST_LEAK: &str = "
    extern void read_passwd(char *uname, private char *pass, int size);
    extern int log_write(char *buf, int size);

    int run_exploit() {
        char user[8];
        user[0] = 'z'; user[1] = 0;
        char password[32];
        read_passwd(user, password, 32);
        // BUG + evasion: launder the pointer through casts so the qualifier
        // inference loses track of it, then log it in clear.
        char *alias;
        alias = (char *) (int *) password;
        log_write(alias, 32);
        return 0;
    }

    int main() { return run_exploit(); }
";

/// 3. The format-string style over-read: a printf-like helper walks more
///    "arguments" than were passed and reads adjacent stack memory, which
///    in an unprotected build contains a private key copied by the caller.
pub const FORMAT_STRING: &str = "
    extern void read_passwd(char *uname, private char *pass, int size);
    extern int send(int fd, char *buf, int size);

    int mini_printf(char *out, char *args, int directives) {
        int i;
        // BUG: trusts `directives` and reads past the 8 real argument bytes.
        for (i = 0; i < directives * 8; i = i + 1) {
            out[i] = args[i];
        }
        return directives;
    }

    int run_exploit(int directives) {
        char user[8];
        user[0] = 'z'; user[1] = 0;
        // The argument save area sits directly below the private key in the
        // unprotected build's single frame, so walking past it discloses the
        // key.
        char args[8];
        args[0] = 65;
        char key[64];
        read_passwd(user, key, 64);
        char out[256];
        mini_printf(out, args, directives);
        send(1, out, 256);
        return 0;
    }

    int main() { return run_exploit(8); }
";

/// Drive one vulnerable program under one configuration and report whether
/// the secret leaked into the observable channels.
pub fn drive(
    source: &str,
    config: Config,
    secret: &[u8],
    entry: &str,
    args: &[i64],
) -> ExploitOutcome {
    let opts = CompileOptions {
        config,
        entry: entry.to_string(),
        ..Default::default()
    };
    let compiled = match compile(source, &opts) {
        Ok(c) => c,
        Err(CompileError::Taint(_)) => {
            return ExploitOutcome {
                config,
                rejected_at_compile_time: true,
                outcome: None,
                leaked: false,
            }
        }
        Err(e) => panic!("unexpected compile error: {e}"),
    };
    let mut world = World::new();
    world.set_password("z", secret);
    world.add_secret_file("private.html", secret);
    let mut vm = vm_for(&compiled, world).expect("load");
    let result = vm.run_function(entry, args);
    let observable = vm.world.observable();
    let leaked = secret.len() >= 8 && observable.windows(8).any(|w| w == &secret[..8]);
    ExploitOutcome {
        config,
        rejected_at_compile_time: false,
        outcome: Some(result.outcome),
        leaked,
    }
}

/// The secret planted by all three exploit drivers.
pub const SECRET: &[u8] = b"TOP-SECRET-KEY-0123456789abcdef";

/// Run all three exploits under `config`; returns (name, outcome) pairs.
pub fn run_all(config: Config) -> Vec<(&'static str, ExploitOutcome)> {
    vec![
        (
            "mongoose-stale-stack",
            drive(MONGOOSE_STALE_STACK, config, SECRET, "run_exploit", &[]),
        ),
        (
            "minizip-cast-leak",
            drive(MINIZIP_CAST_LEAK, config, SECRET, "run_exploit", &[]),
        ),
        (
            "format-string",
            drive(FORMAT_STRING, config, SECRET, "run_exploit", &[8]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_build_leaks_at_least_once() {
        let leaks = run_all(Config::Base)
            .iter()
            .filter(|(_, o)| o.leaked)
            .count();
        assert!(
            leaks >= 1,
            "the vulnerable programs must actually leak without protection"
        );
    }

    #[test]
    fn protected_builds_never_leak() {
        for config in [Config::OurMpx, Config::OurSeg] {
            for (name, outcome) in run_all(config) {
                assert!(!outcome.leaked, "{name} leaked under {config}");
            }
        }
    }
}
