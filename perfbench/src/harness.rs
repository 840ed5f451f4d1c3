//! What every workload shares: the command line, set-up repetitions, the
//! reference outputs, the security checks, and what a run reports.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use confllvm_core::machine::{BndReg, MInst, Program};
use confllvm_core::vm::World;
use confllvm_core::{compile, vm_for, CompileOptions, Config};
use confllvm_server::Request;

use crate::stats::{closed_loop_rate, local_speed, median, Tally};
use crate::yardstick::Yardstick;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Yardstick passes a host-speed estimate takes the median of.
const SPEED_WINDOW: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one timed pass over the op sequence measured.  Gated times are
/// scaled to the reference host: each op's latency is multiplied by the
/// host speed around it, the yardstick's reference time over the median of
/// the [`SPEED_WINDOW`] passes measured nearest to the op.
#[derive(Debug, Clone)]
pub struct Phase {
    /// The yardstick run between ops.
    pub yardstick: Yardstick,
    /// Latency of each op, in op order.
    pub latencies_ns: Vec<u64>,
    /// The midpoint of each op, since the phase started.
    pub mid_ns: Vec<u64>,
    /// (midpoint since the phase started, seconds) of each yardstick pass
    /// run between ops, sorted by time.
    pub probes: Vec<(u64, f64)>,
    /// Closed-loop clients the ops ran on.
    pub clients: usize,
    /// Units for `ok_pct` (ops, or arrivals on `scale`).
    pub tally: Tally,
    /// Ops that faulted or produced a wrong output.
    pub broken_ops: u64,
    /// Peak resident set of the process when the phase (and, traced, its
    /// replay) ended.
    pub peak_rss_mb: f64,
}

impl Phase {
    pub fn new(yardstick: Yardstick) -> Self {
        Phase {
            yardstick,
            latencies_ns: Vec::new(),
            mid_ns: Vec::new(),
            probes: Vec::new(),
            clients: 1,
            tally: Tally::default(),
            broken_ops: 0,
            peak_rss_mb: 0.0,
        }
    }

    /// Record one op that started at `t0`, in a phase that started at
    /// `start`.
    pub fn time_op(&mut self, start: Instant, t0: Instant) {
        let (latency, mid) = since(start, t0);
        self.latencies_ns.push(latency);
        self.mid_ns.push(mid);
    }

    /// Run one yardstick pass and record it.
    pub fn probe(&mut self, start: Instant) {
        self.probes.push(self.yardstick.probe(start));
    }

    pub fn ops(&self) -> u64 {
        self.latencies_ns.len() as u64
    }

    pub fn elapsed_s(&self) -> f64 {
        self.mid_ns
            .iter()
            .zip(&self.latencies_ns)
            .map(|(m, l)| m + l / 2)
            .max()
            .unwrap_or(0) as f64
            / 1e9
    }

    /// Each op's latency scaled to the reference host.
    pub fn normalized_ns(&self) -> Vec<f64> {
        let reference = self.yardstick.reference_s();
        self.latencies_ns
            .iter()
            .zip(&self.mid_ns)
            .map(|(&l, &m)| l as f64 * local_speed(&self.probes, m, SPEED_WINDOW, reference))
            .collect()
    }

    /// Ops per second on the reference host.
    pub fn ops_per_s(&self) -> f64 {
        closed_loop_rate(&self.normalized_ns(), self.clients)
    }

    /// Ops per second as the wall clock measured them.
    pub fn raw_ops_per_s(&self) -> f64 {
        let raw: Vec<f64> = self.latencies_ns.iter().map(|&l| l as f64).collect();
        closed_loop_rate(&raw, self.clients)
    }

    /// Median host speed over the phase's yardstick passes.
    pub fn host_speed(&self) -> f64 {
        if self.probes.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self.probes.iter().map(|&(_, s)| s).collect();
        self.yardstick.reference_s() / median(&times)
    }
}

/// (latency, midpoint since `start`) of something that started at `t0`
/// and ends now.
pub fn since(start: Instant, t0: Instant) -> (u64, u64) {
    let now = Instant::now();
    let latency = (now - t0).as_nanos() as u64;
    let mid = (t0 - start).as_nanos() as u64 + latency / 2;
    (latency, mid)
}

/// Per-layer values a traced run measured, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Report {
    pub setup: Setup,
    pub untraced: Phase,
    pub sim_overhead_pct: f64,
    /// Failures of the run-level checks: reference outputs of check
    /// entries, leaked secrets, tampered binaries ConfVerify accepted.
    pub check_failures: Vec<String>,
    pub traced: Option<(Phase, Layers)>,
}

/// The set-up times of one run.
#[derive(Debug)]
pub struct Setup {
    /// Wall-clock seconds of each set-up.
    pub raw_s: Vec<f64>,
    /// Each set-up scaled to the reference host.
    pub normalized_s: Vec<f64>,
}

/// Run `build` [`SETUP_REPS`] times, keep the last state, and return it
/// with every set-up time.  Yardstick passes before and after each set-up
/// give its host speed.
pub fn set_up<S>(
    yardstick: Yardstick,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, Setup), String> {
    let mut setup = Setup {
        raw_s: Vec::with_capacity(SETUP_REPS),
        normalized_s: Vec::with_capacity(SETUP_REPS),
    };
    let mut state = None;
    let start = Instant::now();
    for _ in 0..SETUP_REPS {
        // Drop the previous state first so set-ups do not stack in memory.
        drop(state.take());
        let passes = SPEED_WINDOW / 2 + 1;
        let mut probes: Vec<(u64, f64)> = (0..passes).map(|_| yardstick.probe(start)).collect();
        let t0 = Instant::now();
        state = Some(build()?);
        let s = t0.elapsed().as_secs_f64();
        probes.extend((0..passes).map(|_| yardstick.probe(start)));
        let times: Vec<f64> = probes.iter().map(|&(_, s)| s).collect();
        setup.raw_s.push(s);
        setup
            .normalized_s
            .push(s * yardstick.reference_s() / median(&times));
    }
    Ok((state.expect("SETUP_REPS > 0"), setup))
}

/// Pin the calling thread, and every thread it spawns afterwards (they
/// inherit the mask), to the CPU it is running on; returns that CPU, or
/// `None` where pinning is unsupported or refused.
///
/// On a shared 2-core virtual machine, a thread woken on the other core
/// waits until the hypervisor runs that core, so a `serve` visit's latency
/// depended on which core its server worker thread landed on.  The
/// single-threaded workloads stay unpinned: pinned, their times tracked
/// the yardstick less closely.  The standard library has no affinity call
/// and the benchmark adds no crates, so this makes the two Linux system
/// calls itself.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_one_cpu() -> Option<u32> {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const SYS_GETCPU: usize = 309;
    /// A raw three-argument Linux system call.
    ///
    /// # Safety
    /// The arguments must be valid for system call `nr`.
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret: isize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }
    let mut cpu = 0u32;
    // SAFETY: getcpu(&cpu, NULL, NULL) writes one u32 through a valid pointer.
    let ret = unsafe { syscall3(SYS_GETCPU, &mut cpu as *mut u32 as usize, 0, 0) };
    if ret != 0 {
        return None;
    }
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu as usize / 64)? |= 1 << (cpu % 64);
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes of `mask`.
    let ret = unsafe {
        syscall3(
            SYS_SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(&mask),
            mask.as_ptr() as usize,
        )
    };
    (ret == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_one_cpu() -> Option<u32> {
    None
}

/// Stamp a finished phase with the process's peak resident set so far.
pub fn finish(mut phase: Phase) -> Phase {
    phase.peak_rss_mb = peak_rss_mb();
    phase
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The committed reference outputs (`expected.txt`).
pub struct Expected {
    values: BTreeMap<String, Vec<String>>,
}

impl Expected {
    pub fn load() -> Result<Expected, String> {
        Self::parse(include_str!("../expected.txt"))
    }

    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut values = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split_whitespace();
            let key = fields.next().expect("non-empty line has a field");
            let rest: Vec<String> = fields.map(str::to_string).collect();
            if rest.is_empty() || values.insert(key.to_string(), rest).is_some() {
                return Err(format!(
                    "expected.txt line {}: bad or duplicate `{key}`",
                    n + 1
                ));
            }
        }
        Ok(Expected { values })
    }

    fn field(&self, key: &str, index: usize) -> Result<&str, String> {
        self.values
            .get(key)
            .and_then(|v| v.get(index))
            .map(String::as_str)
            .ok_or_else(|| format!("expected.txt has no field {index} for `{key}`"))
    }

    pub fn int(&self, key: &str) -> Result<i64, String> {
        let v = self.field(key, 0)?;
        v.parse()
            .map_err(|_| format!("expected.txt: `{key}` is not an integer"))
    }

    /// A digest recorded as 16 hex digits.
    pub fn digest(&self, key: &str, index: usize) -> Result<u64, String> {
        let v = self.field(key, index)?;
        u64::from_str_radix(v, 16).map_err(|_| format!("expected.txt: `{key}` is not hex"))
    }
}

/// Does any `window`-byte run of `secret` appear in `observable`?
pub fn leaks(observable: &[u8], secret: &[u8], window: usize) -> bool {
    let window = window.min(secret.len());
    if window == 0 {
        return false;
    }
    let runs: HashSet<&[u8]> = secret.windows(window).collect();
    observable.windows(window).any(|w| runs.contains(w))
}

/// Window for passwords: any six bytes of one in clear count as a leak.
pub const PASSWORD_WINDOW: usize = 6;
/// Window for file contents.
pub const FILE_WINDOW: usize = 16;

/// Check that ConfVerify rejects two tampered copies of an accepted
/// instrumented program: every `Bnd1` (private-region) check dropped, and
/// one CFI magic word corrupted.  Returns one message per copy it
/// accepted, and whether the program had `Bnd1` checks to drop.
pub fn tampered_copies_rejected(name: &str, program: &Program) -> (Vec<String>, bool) {
    let mut accepted = Vec::new();
    let mut no_bnd1 = program.clone();
    let mut dropped = 0;
    for inst in &mut no_bnd1.insts {
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
    if dropped > 0 && confllvm_verify::verify(&no_bnd1.encode()).is_ok() {
        accepted.push(format!(
            "{name}: ConfVerify accepted a copy with its Bnd1 checks dropped"
        ));
    }
    let mut bad_cfi = program.clone();
    let prefixes = bad_cfi.prefixes;
    let magic = bad_cfi
        .insts
        .iter()
        .position(|i| matches!(i, MInst::MagicWord { value } if prefixes.is_ret_word(*value)))
        .or_else(|| {
            bad_cfi
                .insts
                .iter()
                .position(|i| matches!(i, MInst::MagicWord { .. }))
        });
    match magic {
        Some(idx) => {
            if let MInst::MagicWord { value } = &mut bad_cfi.insts[idx] {
                // Flip the lowest prefix bit: the word no longer carries
                // the magic prefix the CFI guards compare against.
                *value ^= 1 << confllvm_core::machine::magic::TAINT_FIELD_BITS;
            }
            if confllvm_verify::verify(&bad_cfi.encode()).is_ok() {
                accepted.push(format!(
                    "{name}: ConfVerify accepted a copy with a corrupted magic word"
                ));
            }
        }
        None => accepted.push(format!("{name}: instrumented program has no magic word")),
    }
    (accepted, dropped > 0)
}

/// Simulated cycles of one session on a plain VM: load, the setup entry,
/// then each request in turn.  The basis of `sim_overhead_pct` on the
/// serving workloads.
pub fn session_cycles(
    source: &str,
    config: Config,
    setup: (&str, &[i64]),
    world: &World,
    requests: &[Request],
) -> Result<u64, String> {
    let opts = CompileOptions {
        config,
        entry: setup.0.to_string(),
        ..Default::default()
    };
    let compiled = compile(source, &opts).map_err(|e| format!("compile under {config}: {e}"))?;
    let mut vm = vm_for(&compiled, world.clone()).map_err(|e| format!("load: {e}"))?;
    let run = vm.run_function(setup.0, setup.1);
    if run.outcome.is_fault() {
        return Err(format!("setup faulted under {config}: {:?}", run.outcome));
    }
    for r in requests {
        if let Some(input) = &r.input {
            vm.world.push_request(input);
        }
        let run = vm.run_function(&r.entry, &r.args);
        if run.outcome.is_fault() {
            return Err(format!("request faulted under {config}: {:?}", run.outcome));
        }
    }
    Ok(vm.stats.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_file_parses_and_rejects_duplicates() {
        let e = Expected::parse("# comment\nkernel.a 42\n\nd.x 00000000000000ff 10\n").unwrap();
        assert_eq!(e.int("kernel.a").unwrap(), 42);
        assert_eq!(e.digest("d.x", 0).unwrap(), 255);
        assert_eq!(e.digest("d.x", 1).unwrap(), 16);
        assert!(e.int("missing").is_err());
        assert!(Expected::parse("a 1\na 2\n").is_err());
        assert!(Expected::parse("lonely\n").is_err());
        assert!(Expected::load().is_ok());
    }

    #[test]
    fn leak_windows() {
        assert!(leaks(b"xxhunter2yy", b"hunter2", 6));
        assert!(!leaks(b"xxhuntEr2yy", b"hunter2", 6));
        // Secrets shorter than the window must appear whole.
        assert!(leaks(b"..abc..", b"abc", 6));
        assert!(!leaks(b"..ab..", b"abc", 6));
        assert!(!leaks(b"anything", b"", 6));
    }
}
