//! Differential suite for the two execution engines.
//!
//! Every program here runs under both [`Engine::Legacy`] (the decode-per-step
//! reference interpreter) and [`Engine::Block`] (the predecoded basic-block
//! engine), asserting the full equivalence contract: identical outcome
//! (exit code or fault, at the same instruction), identical [`ExecStats`]
//! down to every counter, and byte-identical world observables.
//!
//! The bulk of the coverage is a seeded random-program generator driven by a
//! proptest harness; targeted tests pin the corners the generator reaches
//! only rarely (fuel exhaustion on an exact step, dual-issue state across a
//! fall-through edge, mid-block indirect entry, CFI return-site checking).

use confllvm_machine::program::{ExternSpec, FuncSym, GlobalSpec};
use confllvm_machine::{
    encoded_len, AluOp, BndReg, Cond, MInst, MagicPrefixes, MemOperand, Program, Reg, RegImm,
    Scheme, Taint,
};
use confllvm_vm::cpu::VmOptions;
use confllvm_vm::{CostModel, Engine, ExecStats, Fault, Outcome, Vm, World};
use proptest::prelude::*;

/// Registers the generator may freely clobber (never Rsp: push/pop and
/// chkstk give the stack pointer its own, deliberate traffic).
const POOL: [Reg; 8] = [
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R8,
    Reg::R9,
    Reg::R10,
];

/// splitmix64 — deterministic program builder, reproducible from the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn reg(&mut self) -> Reg {
        POOL[self.below(POOL.len() as u64) as usize]
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    /// A displacement for an 8-byte `[rsp + disp]` access: mostly a slot
    /// below rsp inside the thread's stack, sometimes an unaligned one
    /// around rsp (which may clobber the return slot), and sometimes
    /// [`FAR_STACK_DISP`], so the access faults.
    fn stack_disp(&mut self) -> i32 {
        match self.below(16) {
            0 => FAR_STACK_DISP,
            1 => self.below(64) as i32 - 32,
            _ => -8 * (1 + self.below(64) as i32),
        }
    }
}

/// A displacement that takes `[rsp + disp]` 2 GiB below the stack, where
/// no scheme maps anything: the access faults.
const FAR_STACK_DISP: i32 = i32::MIN + 8;

fn stack_slot(disp: i32) -> MemOperand {
    MemOperand::base_disp(Reg::Rsp, disp)
}

fn base_program(insts: Vec<MInst>, scheme: Scheme, cfi: bool) -> Program {
    Program {
        name: "diff".into(),
        insts,
        functions: vec![FuncSym {
            name: "main".into(),
            magic_word: None,
            entry_word: 0,
            arg_taints: [Taint::Private; 4],
            ret_taint: Taint::Public,
        }],
        globals: vec![
            GlobalSpec {
                name: "scratch".into(),
                size: 4096,
                taint: Taint::Public,
                init: (0u16..512).flat_map(|i| i.to_le_bytes()).collect(),
            },
            GlobalSpec {
                name: "secret".into(),
                size: 256,
                taint: Taint::Private,
                init: vec![0xAB; 256],
            },
        ],
        externs: vec![],
        entry_function: 0,
        prefixes: MagicPrefixes::test_defaults(),
        scheme,
        cfi,
        separate_trusted_memory: false,
        split_stacks: false,
    }
}

/// Build a random but deterministic program from `seed`.  Every structural
/// hazard the block engine has to get right is reachable: backward jumps
/// (loops → fuel exhaustion), jumps to invalid words, indirect jumps with
/// garbage targets, faulting loads/stores/bound-checks mid-block, div-by-zero
/// and the dual-issue mul/div→check pairing.  So are the translator's
/// stack-slot ops and its pair fusions: 8-byte `[rsp + disp]` accesses
/// (some faulting), store→reload pairs on the same or another slot, and
/// `MovReg d, s; Alu d, imm` pairs (some dividing by zero).  A pair's
/// second instruction is never a jump target, so the pair stays in one
/// block.
fn gen_program(seed: u64) -> (Program, u64) {
    let mut rng = Rng(seed);
    let scheme = match rng.below(3) {
        0 => Scheme::None,
        1 => Scheme::Mpx,
        _ => Scheme::Segment,
    };
    // Rsi holds the scratch global's base for valid memory traffic.
    let mut insts = vec![MInst::MovGlobal {
        dst: Reg::Rsi,
        index: 0,
    }];
    let mut w: u32 = insts.iter().map(encoded_len).sum();
    let mut word_starts: Vec<u32> = Vec::new();
    let n = 4 + rng.below(32);
    for _ in 0..n {
        word_starts.push(w);
        let mut second = None;
        let inst = match rng.below(19) {
            0 => MInst::MovImm {
                dst: rng.reg(),
                imm: rng.below(1024) as i64 - 512,
            },
            1 => MInst::MovReg {
                dst: rng.reg(),
                src: rng.reg(),
            },
            2 => MInst::Alu {
                op: AluOp::ALL[rng.below(10) as usize],
                dst: rng.reg(),
                src: RegImm::Reg(rng.reg()),
            },
            // Imm 0 is reachable: Div/Rem by zero must fault identically.
            3 => MInst::Alu {
                op: AluOp::ALL[rng.below(10) as usize],
                dst: rng.reg(),
                src: RegImm::Imm(rng.below(16) as i64 - 8),
            },
            4 => MInst::Cmp {
                lhs: rng.reg(),
                rhs: if rng.chance(2) {
                    RegImm::Reg(rng.reg())
                } else {
                    RegImm::Imm(rng.below(64) as i64 - 32)
                },
            },
            5 => MInst::SetCond {
                dst: rng.reg(),
                cond: Cond::ALL[rng.below(6) as usize],
            },
            6 => {
                // Mostly valid scratch-relative loads; occasionally a wild
                // register base (unmapped address → memory fault mid-block).
                let mem = if rng.chance(8) {
                    MemOperand::base(rng.reg())
                } else {
                    MemOperand::base_disp(Reg::Rsi, rng.below(4088) as i32)
                };
                MInst::Load {
                    dst: rng.reg(),
                    mem,
                    size: [1u8, 2, 4, 8][rng.below(4) as usize],
                }
            }
            7 => {
                let mem = if rng.chance(8) {
                    MemOperand::base(rng.reg())
                } else {
                    MemOperand::base_disp(Reg::Rsi, rng.below(4088) as i32)
                };
                MInst::Store {
                    mem,
                    src: rng.reg(),
                    size: [1u8, 2, 4, 8][rng.below(4) as usize],
                }
            }
            8 => MInst::Push { src: rng.reg() },
            9 => MInst::Pop { dst: rng.reg() },
            10 => {
                let mem = if rng.chance(4) {
                    MemOperand::base(rng.reg())
                } else {
                    MemOperand::base_disp(Reg::Rsi, rng.below(4088) as i32)
                };
                MInst::BndCheck {
                    bnd: if rng.chance(2) {
                        BndReg::Bnd0
                    } else {
                        BndReg::Bnd1
                    },
                    mem,
                    upper: rng.chance(2),
                }
            }
            11 => MInst::Jcc {
                cond: Cond::ALL[rng.below(6) as usize],
                target: if rng.chance(6) {
                    w + 1 // mid-instruction word: InvalidJump on the taken edge
                } else {
                    word_starts[rng.below(word_starts.len() as u64) as usize]
                },
            },
            12 if rng.chance(3) => MInst::Jmp {
                target: word_starts[rng.below(word_starts.len() as u64) as usize],
            },
            13 if rng.chance(3) => MInst::JmpReg { reg: rng.reg() },
            14 => MInst::ChkStk,
            15 => MInst::LoadCode {
                dst: rng.reg(),
                addr: rng.reg(),
            },
            16 => {
                let mem = stack_slot(rng.stack_disp());
                if rng.chance(2) {
                    MInst::Load {
                        dst: rng.reg(),
                        mem,
                        size: 8,
                    }
                } else {
                    MInst::Store {
                        mem,
                        src: rng.reg(),
                        size: 8,
                    }
                }
            }
            17 => {
                // A spill and a reload of the same slot half the time.
                let store_disp = rng.stack_disp();
                let load_disp = if rng.chance(2) {
                    store_disp
                } else {
                    rng.stack_disp()
                };
                second = Some(MInst::Load {
                    dst: rng.reg(),
                    mem: stack_slot(load_disp),
                    size: 8,
                });
                MInst::Store {
                    mem: stack_slot(store_disp),
                    src: rng.reg(),
                    size: 8,
                }
            }
            18 => {
                let dst = rng.reg();
                // Imm 0 is reachable: Div/Rem by zero faults in the second
                // slot.
                second = Some(MInst::Alu {
                    op: AluOp::ALL[rng.below(10) as usize],
                    dst,
                    src: RegImm::Imm(rng.below(16) as i64 - 8),
                });
                MInst::MovReg {
                    dst,
                    src: rng.reg(),
                }
            }
            _ => MInst::Nop,
        };
        for inst in std::iter::once(inst).chain(second) {
            w += encoded_len(&inst);
            insts.push(inst);
        }
    }
    insts.push(MInst::MovImm {
        dst: Reg::Rax,
        imm: rng.below(128) as i64,
    });
    insts.push(MInst::Ret);
    let fuel = 500 + rng.below(2000);
    (base_program(insts, scheme, false), fuel)
}

fn test_world() -> World {
    let mut w = World::new();
    w.push_request(b"differential-request");
    w.add_file("f", b"file contents");
    w
}

fn run_engine(p: &Program, engine: Engine, fuel: u64) -> (Outcome, ExecStats, Vec<u8>) {
    let opts = VmOptions {
        engine,
        fuel,
        ..Default::default()
    };
    let mut vm = Vm::new(p, opts, test_world()).expect("program loads");
    let r = vm.run();
    (r.outcome, r.stats, vm.world.observable())
}

/// The equivalence contract, asserted with the reproduction seed in every
/// message.
fn assert_equivalent(p: &Program, fuel: u64, ctx: &str) {
    let legacy = run_engine(p, Engine::Legacy, fuel);
    let block = run_engine(p, Engine::Block, fuel);
    assert_eq!(legacy.0, block.0, "outcome diverged ({ctx})");
    assert_eq!(legacy.1, block.1, "ExecStats diverged ({ctx})");
    assert_eq!(legacy.2, block.2, "observables diverged ({ctx})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The main differential sweep: random programs, random fuel.
    #[test]
    fn engines_agree_on_generated_programs(seed in 0u64..u64::MAX) {
        let (p, fuel) = gen_program(seed);
        assert_equivalent(&p, fuel, &format!("seed {seed}"));
    }

    /// Starved runs: tiny fuel exercises OutOfFuel inside translated blocks;
    /// the fault must fire on exactly the legacy step.
    #[test]
    fn engines_agree_under_fuel_starvation(seed in 0u64..u64::MAX, fuel in 0u64..48) {
        let (p, _) = gen_program(seed);
        assert_equivalent(&p, fuel, &format!("seed {seed} fuel {fuel}"));
    }
}

/// A counting loop whose trip count dwarfs any single block, swept across
/// every fuel value from 0 to past completion: OutOfFuel must fire after
/// exactly the same number of instructions under both engines, including
/// every mid-block cut point.
#[test]
fn fuel_sweep_is_step_exact() {
    let insts = vec![
        MInst::MovImm {
            dst: Reg::Rcx,
            imm: 6,
        },
        // loop:
        MInst::Alu {
            op: AluOp::Mul,
            dst: Reg::Rax,
            src: RegImm::Imm(2),
        },
        MInst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: RegImm::Imm(1),
        },
        MInst::Alu {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            src: RegImm::Imm(1),
        },
        MInst::Cmp {
            lhs: Reg::Rcx,
            rhs: RegImm::Imm(0),
        },
        MInst::Jcc {
            cond: Cond::Gt,
            target: 2, // word offset of the loop head (MovImm is 2 words)
        },
        MInst::Ret,
    ];
    assert_eq!(encoded_len(&insts[0]), 2, "loop-head word offset moved");
    let p = base_program(insts, Scheme::None, false);
    // Total steps to completion first, then sweep every cut point.
    let full = run_engine(&p, Engine::Legacy, u64::MAX);
    assert!(matches!(full.0, Outcome::Exit(_)));
    let total = full.1.instructions;
    for fuel in 0..=total + 1 {
        assert_equivalent(&p, fuel, &format!("fuel {fuel}/{total}"));
    }
}

/// Dual-issue accounting across a fall-through edge: a block ending in `mul`
/// falls into a block that *starts* with a bound check (a backward-jump
/// target, hence a leader).  The check is free on the fall-through entry but
/// paid when re-entered around the loop, and the block engine's pre-summed
/// costs must reproduce both.
#[test]
fn dual_issue_state_crosses_fallthrough_edges() {
    let insts = vec![
        MInst::MovGlobal {
            dst: Reg::Rsi,
            index: 0,
        },
        MInst::MovImm {
            dst: Reg::Rcx,
            imm: 5,
        },
        MInst::Alu {
            op: AluOp::Mul,
            dst: Reg::Rax,
            src: RegImm::Imm(1),
        },
        // check: (leader — Jcc target below)
        MInst::BndCheck {
            bnd: BndReg::Bnd0,
            mem: MemOperand::base(Reg::Rsi),
            upper: false,
        },
        MInst::Alu {
            op: AluOp::Sub,
            dst: Reg::Rcx,
            src: RegImm::Imm(1),
        },
        MInst::Cmp {
            lhs: Reg::Rcx,
            rhs: RegImm::Imm(0),
        },
        MInst::Jcc {
            cond: Cond::Gt,
            target: {
                // word offset of the BndCheck
                let head: u32 = [
                    MInst::MovGlobal {
                        dst: Reg::Rsi,
                        index: 0,
                    },
                    MInst::MovImm {
                        dst: Reg::Rcx,
                        imm: 5,
                    },
                    MInst::Alu {
                        op: AluOp::Mul,
                        dst: Reg::Rax,
                        src: RegImm::Imm(1),
                    },
                ]
                .iter()
                .map(encoded_len)
                .sum();
                head
            },
        },
        MInst::Ret,
    ];
    let p = base_program(insts, Scheme::Mpx, false);
    let legacy = run_engine(&p, Engine::Legacy, 10_000);
    let block = run_engine(&p, Engine::Block, 10_000);
    assert!(matches!(legacy.0, Outcome::Exit(_)), "{:?}", legacy.0);
    // 5 bound checks executed, exactly one of them (the fall-through entry
    // after the mul) dual-issued for free.
    assert_eq!(legacy.1.bound_checks, 5);
    assert_eq!(legacy.1, block.1);
    assert_eq!(legacy.0, block.0);
}

/// An indirect jump into the *middle* of a translated block: the block engine
/// must fall back to single-stepping from the entry point (there is no block
/// starting there) and still produce identical numbers.
#[test]
fn jmpreg_into_block_interior_matches() {
    let target_word: u32 = [
        MInst::MovImm {
            dst: Reg::Rdi,
            imm: 0,
        },
        MInst::JmpReg { reg: Reg::Rdi },
        MInst::MovImm {
            dst: Reg::Rax,
            imm: 1,
        },
        MInst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: RegImm::Imm(10),
        },
    ]
    .iter()
    .map(encoded_len)
    .sum();
    let insts = vec![
        MInst::MovImm {
            dst: Reg::Rdi,
            imm: target_word as i64,
        },
        MInst::JmpReg { reg: Reg::Rdi },
        // Straight-line block the jump lands inside of:
        MInst::MovImm {
            dst: Reg::Rax,
            imm: 1,
        },
        MInst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: RegImm::Imm(10),
        },
        MInst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: RegImm::Imm(100), // ← landing point (not a static leader)
        },
        MInst::Alu {
            op: AluOp::Add,
            dst: Reg::Rax,
            src: RegImm::Imm(1000),
        },
        MInst::Ret,
    ];
    let p = base_program(insts, Scheme::None, false);
    let legacy = run_engine(&p, Engine::Legacy, 10_000);
    let block = run_engine(&p, Engine::Block, 10_000);
    // Landed past the first two adds: rax = 100 + 1000 on top of rax=0.
    assert_eq!(legacy.0, Outcome::Exit(1100));
    assert_eq!(legacy.0, block.0);
    assert_eq!(legacy.1, block.1);
}

fn extern_spec(name: &str) -> ExternSpec {
    ExternSpec {
        name: name.into(),
        param_taints: vec![],
        param_pointee_taints: vec![],
        param_is_pointer: vec![],
        ret_taint: Taint::Public,
        has_ret_value: true,
    }
}

/// CallExternal under CFI: the return-site magic word is validated (and
/// skipped) by both engines; a mismatched word faults identically.
#[test]
fn call_external_cfi_return_site_matches() {
    let prefixes = MagicPrefixes::test_defaults();
    for (ret_taint_word, label) in [
        (prefixes.ret_word(Taint::Public), "matching"),
        (prefixes.ret_word(Taint::Private), "mismatched"),
    ] {
        let insts = vec![
            MInst::CallExternal { index: 0 },
            MInst::MagicWord {
                value: ret_taint_word,
            },
            MInst::MovImm {
                dst: Reg::Rax,
                imm: 7,
            },
            MInst::Ret,
        ];
        let mut p = base_program(insts, Scheme::Mpx, true);
        p.externs = vec![extern_spec("get_time")];
        assert_equivalent(&p, 10_000, label);
    }
    // Unknown extern index: both engines fault before charging anything.
    let insts = vec![MInst::CallExternal { index: 9 }, MInst::Ret];
    let p = base_program(insts, Scheme::Mpx, true);
    assert_equivalent(&p, 10_000, "unknown extern");
}

/// Observable bytes flow through the trusted `send` and must come out
/// byte-identical: the block engine calls the same trusted runtime at the
/// same points with the same register file.
#[test]
fn observables_match_through_trusted_send() {
    let insts = vec![
        MInst::MovGlobal {
            dst: Reg::Rdx, // arg 1: buffer = scratch global (public)
            index: 0,
        },
        MInst::MovImm {
            dst: Reg::R8, // arg 2: size
            imm: 64,
        },
        MInst::CallExternal { index: 0 },
        MInst::Ret,
    ];
    let mut p = base_program(insts, Scheme::Mpx, false);
    p.externs = vec![extern_spec("send")];
    let legacy = run_engine(&p, Engine::Legacy, 10_000);
    let block = run_engine(&p, Engine::Block, 10_000);
    assert!(matches!(legacy.0, Outcome::Exit(_)), "{:?}", legacy.0);
    assert!(!legacy.2.is_empty(), "send produced no observable bytes");
    assert_eq!(legacy.0, block.0);
    assert_eq!(legacy.1, block.1);
    assert_eq!(legacy.2, block.2);
}

/// Unbounded recursion: `_chkstk` catches the runaway stack at exactly the
/// same recursion depth (same instruction count, same faulting rsp).
#[test]
fn chkstk_faults_at_identical_depth() {
    let insts = vec![
        MInst::ChkStk,
        MInst::Push { src: Reg::Rax },
        MInst::CallDirect { target: 0 },
        MInst::Ret,
    ];
    let p = base_program(insts, Scheme::Segment, false);
    let legacy = run_engine(&p, Engine::Legacy, 10_000_000);
    let block = run_engine(&p, Engine::Block, 10_000_000);
    assert!(
        matches!(
            legacy.0,
            Outcome::Fault(confllvm_vm::Fault::StackCheck { .. })
        ),
        "{:?}",
        legacy.0
    );
    assert_eq!(legacy.0, block.0);
    assert_eq!(legacy.1, block.1);
}

/// Forked sessions share one translation through the image: fork two VMs off
/// a snapshot, run both engines, and check the forks agree with each other
/// and with a fresh load.
#[test]
fn forked_sessions_share_translation_and_agree() {
    let (p, _) = gen_program(0xC0FFEE);
    let fuel = 5_000;
    let mk = |engine: Engine| -> (Outcome, ExecStats, Vec<u8>) {
        let opts = VmOptions {
            engine,
            fuel,
            ..Default::default()
        };
        let mut base = Vm::new(&p, opts, test_world()).expect("load");
        let snap = base.snapshot();
        let mut fork = base.fork(&snap, test_world());
        let r = fork.run();
        (r.outcome, r.stats, fork.world.observable())
    };
    let legacy = mk(Engine::Legacy);
    let block = mk(Engine::Block);
    let fresh = run_engine(&p, Engine::Block, fuel);
    assert_eq!(legacy.0, block.0);
    assert_eq!(legacy.1, block.1);
    assert_eq!(legacy.2, block.2);
    assert_eq!(fresh.0, block.0, "fork diverged from fresh load");
    assert_eq!(fresh.1, block.1);
}

/// `main` runs `body`, then returns 0.  Rcx and Rdx hold values worth
/// storing; Rsp is the thread's stack pointer as `run` set it up.
fn straight_line(body: Vec<MInst>) -> Program {
    let mut insts = vec![
        MInst::MovImm {
            dst: Reg::Rcx,
            imm: 0x1234,
        },
        MInst::MovImm {
            dst: Reg::Rdx,
            imm: -77,
        },
    ];
    insts.extend(body);
    insts.push(MInst::MovImm {
        dst: Reg::Rax,
        imm: 0,
    });
    insts.push(MInst::Ret);
    base_program(insts, Scheme::None, false)
}

fn store8(disp: i32, src: Reg) -> MInst {
    MInst::Store {
        mem: stack_slot(disp),
        src,
        size: 8,
    }
}

fn load8(dst: Reg, disp: i32) -> MInst {
    MInst::Load {
        dst,
        mem: stack_slot(disp),
        size: 8,
    }
}

/// Both engines agree on `body`, and the legacy run ends as `expect` says
/// after exactly `instructions` steps — so a fault reported one slot early
/// or late shows even where both engines would agree on its kind.
fn assert_stack_case(body: Vec<MInst>, expect: fn(&Outcome) -> bool, ctx: &str) -> ExecStats {
    let p = straight_line(body);
    assert_equivalent(&p, 10_000, ctx);
    let (outcome, stats, _) = run_engine(&p, Engine::Legacy, 10_000);
    assert!(expect(&outcome), "{ctx}: {outcome:?}");
    stats
}

fn exits(o: &Outcome) -> bool {
    matches!(o, Outcome::Exit(0))
}

fn memory_fault(o: &Outcome) -> bool {
    matches!(o, Outcome::Fault(Fault::Memory(_)))
}

/// 8-byte accesses at `[rsp + disp]` — the translator's `Load8Sp` and
/// `Store8Sp` — inside the stack, and at a displacement that faults.
#[test]
fn stack_slot_accesses_match_in_and_outside_the_stack() {
    let ok = assert_stack_case(
        vec![
            store8(-8, Reg::Rcx),
            MInst::Nop,
            load8(Reg::Rsi, -8),
            MInst::Nop,
            store8(-4100, Reg::Rdx), // another page, unaligned
            MInst::Nop,
            load8(Reg::Rdi, -4100),
            MInst::Alu {
                op: AluOp::Sub,
                dst: Reg::Rsi,
                src: RegImm::Reg(Reg::Rdi),
            },
        ],
        exits,
        "in the stack",
    );
    assert_eq!((ok.loads, ok.stores), (2, 2));
    for (body, ctx) in [
        (vec![load8(Reg::Rsi, FAR_STACK_DISP)], "far load"),
        (vec![store8(FAR_STACK_DISP, Reg::Rcx)], "far store"),
    ] {
        let stats = assert_stack_case(body, memory_fault, ctx);
        // Two set-up moves, then the faulting access.
        assert_eq!(stats.instructions, 3, "{ctx}");
    }
}

/// The fused store→reload pair on one slot and on two, and with either
/// half faulting: the fault reports the half that faulted.
#[test]
fn store_reload_pairs_match_and_fault_in_the_right_half() {
    let same = assert_stack_case(
        vec![store8(-16, Reg::Rcx), load8(Reg::Rax, -16)],
        exits,
        "same slot",
    );
    let other = assert_stack_case(
        vec![store8(-16, Reg::Rcx), load8(Reg::Rax, -4096)],
        exits,
        "different slots",
    );
    // The second half accesses the cache as well: a hit on the slot it
    // just stored, a miss on a line nothing touched.
    assert_eq!(same.cache_misses + 1, other.cache_misses);
    assert_eq!(same.cache_hits, other.cache_hits + 1);
    let load_faults = assert_stack_case(
        vec![store8(-16, Reg::Rcx), load8(Reg::Rax, FAR_STACK_DISP)],
        memory_fault,
        "load half faults",
    );
    assert_eq!(load_faults.instructions, 4, "faults in the second slot");
    assert_eq!(load_faults.stores, 1, "the store half completed");
    let store_faults = assert_stack_case(
        vec![store8(FAR_STACK_DISP, Reg::Rcx), load8(Reg::Rax, -16)],
        memory_fault,
        "store half faults",
    );
    assert_eq!(store_faults.instructions, 3, "faults in the first slot");
}

/// The fused `MovReg d, s; Alu d, imm` pair: its result, and a `Div` or
/// `Rem` by zero faulting in the second slot after the copy completed.
#[test]
fn mov_then_alu_imm_pairs_match_and_divide_by_zero_in_the_second_slot() {
    let pair = |op: AluOp, imm: i64| {
        vec![
            MInst::MovReg {
                dst: Reg::Rsi,
                src: Reg::Rdx,
            },
            MInst::Alu {
                op,
                dst: Reg::Rsi,
                src: RegImm::Imm(imm),
            },
        ]
    };
    for op in AluOp::ALL {
        assert_stack_case(pair(op, 3), exits, &format!("{op:?} by 3"));
    }
    for op in [AluOp::Div, AluOp::Rem] {
        let stats = assert_stack_case(
            pair(op, 0),
            |o| matches!(o, Outcome::Fault(Fault::DivZero)),
            &format!("{op:?} by 0"),
        );
        assert_eq!(stats.instructions, 4, "{op:?}: faults in the second slot");
        let mov_cost = CostModel::default().mov;
        assert_eq!(stats.cycles, 3 * mov_cost, "{op:?}: the copy was charged");
    }
}
