//! Host-speed yardsticks.  The host this benchmark runs on is shared, and
//! how fast it runs the same code drifts by tens of percent over seconds
//! to minutes.  Each workload therefore runs a short, fixed piece of work
//! built from the standard library alone between its ops, and every gated
//! time is scaled to a reference host by the yardstick times measured next
//! to it.  No change to the program can alter a yardstick's own time, so a
//! faster program still reads faster.
//!
//! A yardstick tracks the host best when it does the same kind of work as
//! the layer that dominates its workload, so there are two.

use std::collections::BTreeMap;
use std::time::Instant;

/// The kind of host work a workload's times are scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yardstick {
    /// String formatting, a `BTreeMap` of a few thousand string keys, and a
    /// sort: allocation, pointer chasing and branchy comparisons, like the
    /// compiler and the server's session handling.
    Alloc,
    /// A register-machine interpreter running a hash loop over 64 KiB:
    /// the dispatch-loop work of the VM's block engine.
    Dispatch,
}

impl Yardstick {
    pub const ALL: [Yardstick; 2] = [Yardstick::Alloc, Yardstick::Dispatch];

    pub fn name(self) -> &'static str {
        match self {
            Yardstick::Alloc => "alloc",
            Yardstick::Dispatch => "dispatch",
        }
    }

    /// Seconds of one pass on the reference host: the fastest passes seen
    /// on the 2-core x86-64 virtual machine the benchmark was written on.
    pub fn reference_s(self) -> f64 {
        match self {
            Yardstick::Alloc => 0.0030,
            Yardstick::Dispatch => 0.0016,
        }
    }

    /// Run one pass.
    pub fn run(self) {
        match self {
            Yardstick::Alloc => alloc_pass(),
            Yardstick::Dispatch => dispatch_pass(),
        }
    }

    /// One timed pass: (its midpoint since `start`, seconds).
    pub fn probe(self, start: Instant) -> (u64, f64) {
        let t0 = Instant::now();
        self.run();
        let s = t0.elapsed().as_secs_f64();
        let mid = (t0 - start).as_nanos() as u64 + (s * 5e8) as u64;
        (mid, s)
    }

    /// The host probe printed before and after a run: twenty passes in a
    /// row, in seconds.  It is not gated.
    pub fn host_probe_s(self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..20 {
            self.run();
        }
        t0.elapsed().as_secs_f64()
    }
}

fn alloc_pass() {
    let mut map = BTreeMap::new();
    let mut x = 12_345u64;
    for i in 0..10_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *map.entry(format!("k{}", (x >> 33) % 5000)).or_insert(0u64) += i;
    }
    let mut entries: Vec<(String, u64)> = map.into_iter().collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    std::hint::black_box(&entries);
}

/// One instruction of the dispatch yardstick's register machine.
#[derive(Debug, Clone, Copy)]
enum Op {
    Imm(usize, u32),
    Add(usize, usize, usize),
    Xor(usize, usize, usize),
    Mul(usize, usize, usize),
    Shl(usize, usize, u32),
    Shr(usize, usize, u32),
    /// `r[d] = mem[r[a] % MEM_WORDS]`
    Load(usize, usize),
    /// `mem[r[a] % MEM_WORDS] = r[v]`
    Store(usize, usize),
    Dec(usize),
    JumpIfNonZero(usize, usize),
    Halt,
}

const MEM_WORDS: usize = 1 << 14;

/// A hash loop over the machine's memory: r0 counts down, r1 is the
/// running hash, r2 and r4 are scratch, r5 the FNV prime.
const HASH_LOOP: [Op; 17] = [
    Op::Imm(0, 60_000),
    Op::Imm(1, 2_166_136_261),
    Op::Imm(3, 0),
    Op::Imm(5, 16_777_619),
    // Loop head (index 4).
    Op::Add(2, 0, 1),
    Op::Xor(2, 2, 1),
    Op::Shr(4, 2, 7),
    Op::Xor(2, 2, 4),
    Op::Load(4, 2),
    Op::Xor(1, 1, 4),
    Op::Mul(1, 1, 5),
    Op::Store(2, 1),
    Op::Shl(4, 1, 3),
    Op::Add(1, 1, 4),
    Op::Dec(0),
    Op::JumpIfNonZero(0, 4),
    Op::Halt,
];

fn dispatch_pass() {
    // Hidden from the optimiser, so the loop really dispatches.
    let program: &[Op] = std::hint::black_box(&HASH_LOOP);
    let mut mem = vec![0u32; MEM_WORDS];
    let mut r = [0u32; 8];
    let mut pc = 0;
    loop {
        match program[pc] {
            Op::Imm(d, v) => r[d] = v,
            Op::Add(d, a, b) => r[d] = r[a].wrapping_add(r[b]),
            Op::Xor(d, a, b) => r[d] = r[a] ^ r[b],
            Op::Mul(d, a, b) => r[d] = r[a].wrapping_mul(r[b]),
            Op::Shl(d, a, k) => r[d] = r[a] << k,
            Op::Shr(d, a, k) => r[d] = r[a] >> k,
            Op::Load(d, a) => r[d] = mem[r[a] as usize % MEM_WORDS],
            Op::Store(a, v) => mem[r[a] as usize % MEM_WORDS] = r[v],
            Op::Dec(d) => r[d] = r[d].wrapping_sub(1),
            Op::JumpIfNonZero(c, target) => {
                if r[c] != 0 {
                    pc = target;
                    continue;
                }
            }
            Op::Halt => break,
        }
        pc += 1;
    }
    std::hint::black_box((&r, &mem));
}
