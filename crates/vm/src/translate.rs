//! Basic-block translation for the block execution engine (ROADMAP item 2a).
//!
//! The legacy interpreter decodes one [`MInst`] per step: it clones the
//! instruction, resolves every control transfer through the `word_to_inst`
//! hash map, and pays fuel/cost/statistics bookkeeping per instruction.  This
//! module predecodes the instruction stream *once* into basic blocks:
//!
//! * **Leaders** are function entries (and their magic words), the loader's
//!   exit thunks, static jump/call targets, and every instruction following a
//!   control transfer (post-call/ret words).
//! * Each block carries its straight-line run predecoded into compact
//!   `Op`s — effective-address recipes with the segment base and
//!   displacement folded into one constant, bound checks with the bound
//!   resolved, `MovGlobal`/`MovFunc` folded to constants — so the hot loop
//!   executes by reference with no per-step clone and no `Option` chasing.
//! * Straight-line cycle costs and statistics (loads, stores, bound checks,
//!   check cycles, CFI checks) are **pre-summed** and charged once per block;
//!   a precise per-instruction fall-back reproduces the legacy accounting
//!   when a block faults or exhausts fuel mid-block.
//! * Successors are pre-resolved to instruction indices
//!   (`BlockTarget::Inst`) so the dispatch loop never touches a hash map;
//!   statically invalid targets keep their faulting word
//!   (`BlockTarget::Invalid`).  Indirect transfers (`JmpReg`, `CallReg`,
//!   `Ret`) resolve through the flat `BlockCache::inst_of_word` table; a
//!   target that is a block leader dispatches straight into the next block (a
//!   counted hit), anything mid-block falls back to single-stepping until the
//!   next leader (a counted miss).
//!
//! The translation is built lazily on first use and stored in an
//! `Arc`-shared slot inside [`Image`], so every CoW-forked session VM — and
//! every session template the server builds over one image — shares a single
//! translation.
//!
//! The accounting contract is **bit-exact equivalence** with the legacy
//! engine: identical [`crate::ExecStats`], identical faults at identical
//! instruction granularity (including `OutOfFuel` on exactly the same step),
//! and byte-identical observables.  `crates/vm/tests/engine_equivalence.rs`
//! checks the contract differentially.

use confllvm_machine::{AluOp, BndReg, Cond, MInst, MemOperand, Reg, RegImm, Seg, Taint};

use crate::cost::CostModel;
use crate::loader::Image;

/// Which execution engine [`crate::Vm`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Decode-per-step reference interpreter (the differential oracle).
    Legacy,
    /// Predecoded basic-block engine (the default).
    Block,
}

/// Sentinel for "no entry" in the flat index tables.
pub(crate) const NO_INDEX: u32 = u32::MAX;
/// Sentinel register slot in [`MemRef`].
pub(crate) const NO_REG: u8 = u8::MAX;

/// A predecoded effective-address recipe: `mask(base) + mask(index)*scale +
/// off`, where `off` already folds the displacement and the segment base
/// (wrapping addition commutes, so folding is exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemRef {
    pub base: u8,
    pub index: u8,
    pub scale: u8,
    pub low32: bool,
    pub off: u64,
}

impl MemRef {
    #[inline]
    pub(crate) fn ea(&self, regs: &[u64; Reg::COUNT]) -> u64 {
        let mask = if self.low32 { 0xffff_ffff } else { u64::MAX };
        let mut addr = self.off;
        // `& 15` == `% Reg::COUNT`: a no-op for the valid slots the
        // translator emits, but it lets the bounds check vanish on this
        // per-access path.
        if self.base != NO_REG {
            addr = addr.wrapping_add(regs[self.base as usize & 15] & mask);
        }
        if self.index != NO_REG {
            addr = addr.wrapping_add(
                (regs[self.index as usize & 15] & mask).wrapping_mul(self.scale as u64),
            );
        }
        addr
    }

    /// The displacement of a stack-slot access: `Some(off)` when this
    /// recipe is `rsp + off` (rsp base, no index, no low-32 mask; a
    /// segment base is already folded into `off`).
    fn stack_slot(&self) -> Option<u64> {
        let rsp = reg_slot(Reg::Rsp);
        (self.base == rsp && self.index == NO_REG && !self.low32).then_some(self.off)
    }
}

/// A predecoded straight-line instruction.  Semantically identical to the
/// corresponding [`MInst`] arm of the legacy interpreter; everything that is
/// static per image (global addresses, function words, bound registers,
/// segment bases) is resolved at translation time.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Nop,
    MovImm {
        dst: u8,
        imm: u64,
    },
    MovReg {
        dst: u8,
        src: u8,
    },
    /// `MovGlobal` / `MovFunc` with the loader's answer folded in.
    MovConst {
        dst: u8,
        value: u64,
    },
    Lea {
        dst: u8,
        mem: MemRef,
    },
    AluReg {
        op: AluOp,
        dst: u8,
        src: u8,
    },
    AluImm {
        op: AluOp,
        dst: u8,
        imm: i64,
    },
    CmpReg {
        lhs: u8,
        rhs: u8,
    },
    CmpImm {
        lhs: u8,
        imm: i64,
    },
    SetCond {
        dst: u8,
        cond: Cond,
    },
    /// 8-byte load/store — the dominant width, split out so the dispatch arm
    /// is monomorphic down to the memory access.
    Load8 {
        dst: u8,
        mem: MemRef,
    },
    Store8 {
        src: u8,
        mem: MemRef,
    },
    Load {
        dst: u8,
        mem: MemRef,
        size: u8,
    },
    Store {
        src: u8,
        mem: MemRef,
        size: u8,
    },
    /// `Load8`/`Store8` at a stack slot, `[rsp + off]`: frame traffic, the
    /// largest class of executed ops, with the effective address reduced
    /// to one add.
    Load8Sp {
        dst: u8,
        off: u64,
    },
    Store8Sp {
        src: u8,
        off: u64,
    },
    Push {
        src: u8,
    },
    Pop {
        dst: u8,
    },
    BndCheck {
        mem: MemRef,
        bound: u64,
        upper: bool,
        region: Taint,
    },
    /// The codegen's canonical `BndCheck lo; BndCheck hi; Load8/Store8`
    /// triple (one address recipe), fused at translation: one dispatch, one
    /// effective address.  The fused op sits in the triple's first slot and
    /// the dispatch loop skips the two shadowed slots, so op slots stay 1:1
    /// with instruction offsets; faults report the shadowed slot they
    /// correspond to (`k` for the lower check, `k+1` upper, `k+2` access),
    /// keeping fault granularity identical to the legacy engine.
    CheckedLoad8 {
        dst: u8,
        mem: MemRef,
        lo: u64,
        hi: u64,
        region: Taint,
    },
    CheckedStore8 {
        src: u8,
        mem: MemRef,
        lo: u64,
        hi: u64,
        region: Taint,
    },
    /// A lower/upper check pair with no fusable access behind it (the
    /// codegen also hoists pairs out of loops).  Occupies two slots.
    CheckPair {
        mem: MemRef,
        lo: u64,
        hi: u64,
        region: Taint,
    },
    /// `Store8Sp; Load8Sp` — a spill and the next slot reload, one of the
    /// two most frequent adjacent pairs.  Slot-preserving like
    /// `CheckedLoad8`: it
    /// sits in the store's slot `k`, shadows the load's slot `k+1`, and a
    /// fault reports `k` for the store and `k+1` for the load.  Both halves
    /// access the data cache, in order.
    StoreLoad8Sp {
        src: u8,
        store_off: u64,
        dst: u8,
        load_off: u64,
    },
    /// `MovReg dst, src; AluImm op dst, imm` — a copy and the immediate
    /// operation on it, fused the same way; a `Div`/`Rem` by zero faults
    /// at `k+1`, after the copy.
    MovAluImm {
        op: AluOp,
        dst: u8,
        src: u8,
        imm: i64,
    },
    LoadCode {
        dst: u8,
        addr: u8,
    },
    ChkStk,
}

/// A pre-resolved control-transfer target.  Static edges also carry the
/// target's *block* index (patched in a second pass once every leader has
/// one), so the dispatch loop chains block to block without re-consulting
/// `leader_block`; [`NO_INDEX`] means "look it up" and is always correct.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BlockTarget {
    /// Target instruction index (always a block leader for static targets).
    Inst { inst: u32, block: u32 },
    /// Statically invalid word; taking this edge faults `InvalidJump`.
    Invalid(u64),
}

/// What happens after a `CallExternal` returns into U.  With CFI the
/// return-site magic word is validated at translation time (it is static).
#[derive(Debug, Clone, Copy)]
pub(crate) enum PostExtern {
    Next { inst: u32, block: u32 },
    CfiFault,
}

/// How a block ends.
#[derive(Debug, Clone)]
pub(crate) enum Terminator {
    /// No control transfer: the next instruction is another block's leader.
    FallThrough {
        next: u32,
        next_block: u32,
    },
    Jmp {
        target: BlockTarget,
    },
    Jcc {
        cond: Cond,
        taken: BlockTarget,
        fall: u32,
        fall_block: u32,
    },
    JmpReg {
        reg: u8,
    },
    CallDirect {
        target: BlockTarget,
        ret_word: u64,
    },
    CallReg {
        reg: u8,
        ret_word: u64,
    },
    CallExternal {
        index: u16,
        post: PostExtern,
    },
    Ret,
    Magic {
        value: u64,
    },
    Trap {
        code: u8,
    },
    /// Execution would step past the end of the instruction stream; the
    /// legacy engine counts that phantom step and faults `InvalidJump`.
    OffEnd,
}

/// One basic block: a predecoded straight-line run plus its terminator and
/// the pre-summed statistics the fast path charges on completion.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    /// Instruction index of the leader.
    pub start: u32,
    /// Predecoded straight-line instructions (the terminator excluded).
    pub ops: Vec<Op>,
    /// Fuel steps a completed block consumes (straight ops + terminator).
    pub steps: u64,
    /// Pre-summed cycles of the straight-line run, computed with
    /// `prev_was_muldiv = false` on entry (see `first_is_bndcheck`).
    pub cycles: u64,
    pub check_cycles: u64,
    pub loads: u64,
    pub stores: u64,
    pub bound_checks: u64,
    pub cfi_checks: u64,
    /// The first instruction is a bound check: its cost depends on whether
    /// the *previous block* ended in a mul/div (dual-issue), so the dispatch
    /// loop subtracts the check cost from the pre-summed totals when the
    /// incoming `prev_was_muldiv` makes it free.
    pub first_is_bndcheck: bool,
    /// The last straight-line instruction is a mul/div — carried across a
    /// fall-through edge for the next block's dual-issue adjustment.
    pub ends_muldiv: bool,
    /// The leader is the target of a backward static jump — a loop head.
    /// The sampling profiler uses this to flag a pending bound check here
    /// as a loop-invariant-hoisting candidate.
    pub loop_head: bool,
    pub term: Terminator,
}

/// The shared translation: blocks and the leader index.  Dynamic
/// control-transfer words resolve through the image's flat word table
/// ([`Image::inst_at_word`]).
#[derive(Debug)]
pub(crate) struct BlockCache {
    /// Cost model the pre-summed block costs were computed with.  A VM whose
    /// options disagree falls back to the legacy engine.
    pub cost: CostModel,
    pub blocks: Vec<Block>,
    /// instruction index -> block index if the instruction is a leader,
    /// else [`NO_INDEX`].
    pub leader_block: Vec<u32>,
}

/// Accumulator for the static per-instruction contributions of a
/// straight-line run — shared by translation (pre-summing whole blocks) and
/// by the fault fall-back (re-summing the executed prefix).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StaticAcc {
    pub cycles: u64,
    pub check_cycles: u64,
    pub loads: u64,
    pub stores: u64,
    pub bound_checks: u64,
    pub cfi_checks: u64,
}

/// Add `inst`'s static cost/counter contributions to `acc`, mirroring the
/// legacy engine's per-step accounting.  Returns whether the instruction is
/// a mul/div (the dual-issue state threaded to the next instruction).
/// Control-transfer instructions are never straight-line and must not be
/// passed here.
pub(crate) fn accumulate_static(
    inst: &MInst,
    cost: &CostModel,
    prev_was_muldiv: bool,
    acc: &mut StaticAcc,
) -> bool {
    match inst {
        MInst::Nop | MInst::Cmp { .. } | MInst::SetCond { .. } => {
            acc.cycles += cost.alu;
            false
        }
        MInst::Alu { op, .. } => {
            acc.cycles += cost.alu;
            matches!(op, AluOp::Mul | AluOp::Div | AluOp::Rem)
        }
        MInst::MovImm { .. }
        | MInst::MovReg { .. }
        | MInst::MovGlobal { .. }
        | MInst::MovFunc { .. } => {
            acc.cycles += cost.mov;
            false
        }
        MInst::Lea { .. } => {
            acc.cycles += cost.lea;
            false
        }
        MInst::Load { .. } => {
            acc.cycles += cost.load;
            acc.loads += 1;
            false
        }
        MInst::Store { .. } => {
            acc.cycles += cost.store;
            acc.stores += 1;
            false
        }
        MInst::Push { .. } | MInst::Pop { .. } => {
            acc.cycles += cost.push_pop;
            false
        }
        MInst::BndCheck { .. } => {
            let c = cost.check_cost(prev_was_muldiv);
            acc.cycles += c;
            acc.check_cycles += c;
            acc.bound_checks += 1;
            false
        }
        MInst::LoadCode { .. } => {
            acc.cycles += cost.load_code;
            acc.cfi_checks += 1;
            false
        }
        MInst::ChkStk => {
            acc.cycles += cost.chkstk;
            false
        }
        _ => unreachable!("control-transfer instruction in a straight-line run"),
    }
}

fn reg_slot(r: Reg) -> u8 {
    r.index() as u8
}

fn memref(mem: &MemOperand, image: &Image) -> MemRef {
    let seg = match mem.seg {
        Some(Seg::Fs) => image.fs_base(),
        Some(Seg::Gs) => image.gs_base(),
        None => 0,
    };
    MemRef {
        base: mem.base.map_or(NO_REG, reg_slot),
        index: mem.index.map_or(NO_REG, |(r, _)| reg_slot(r)),
        scale: mem.index.map_or(0, |(_, s)| s),
        low32: mem.use_low32,
        off: (mem.disp as i64 as u64).wrapping_add(seg),
    }
}

/// Predecode one straight-line instruction.
fn lower_op(inst: &MInst, image: &Image) -> Op {
    match inst {
        MInst::Nop => Op::Nop,
        MInst::MovImm { dst, imm } => Op::MovImm {
            dst: reg_slot(*dst),
            imm: *imm as u64,
        },
        MInst::MovReg { dst, src } => Op::MovReg {
            dst: reg_slot(*dst),
            src: reg_slot(*src),
        },
        MInst::MovGlobal { dst, index } => Op::MovConst {
            dst: reg_slot(*dst),
            value: image
                .global_addrs
                .get(*index as usize)
                .copied()
                .unwrap_or(0),
        },
        MInst::MovFunc { dst, index } => {
            let f = &image.functions[*index as usize];
            Op::MovConst {
                dst: reg_slot(*dst),
                value: f.magic_word.unwrap_or(f.entry_word) as u64,
            }
        }
        MInst::Lea { dst, mem } => Op::Lea {
            dst: reg_slot(*dst),
            mem: memref(mem, image),
        },
        MInst::Alu { op, dst, src } => match src {
            RegImm::Reg(r) => Op::AluReg {
                op: *op,
                dst: reg_slot(*dst),
                src: reg_slot(*r),
            },
            RegImm::Imm(i) => Op::AluImm {
                op: *op,
                dst: reg_slot(*dst),
                imm: *i,
            },
        },
        MInst::Cmp { lhs, rhs } => match rhs {
            RegImm::Reg(r) => Op::CmpReg {
                lhs: reg_slot(*lhs),
                rhs: reg_slot(*r),
            },
            RegImm::Imm(i) => Op::CmpImm {
                lhs: reg_slot(*lhs),
                imm: *i,
            },
        },
        MInst::SetCond { dst, cond } => Op::SetCond {
            dst: reg_slot(*dst),
            cond: *cond,
        },
        MInst::Load { dst, mem, size: 8 } => {
            let (dst, mem) = (reg_slot(*dst), memref(mem, image));
            match mem.stack_slot() {
                Some(off) => Op::Load8Sp { dst, off },
                None => Op::Load8 { dst, mem },
            }
        }
        MInst::Load { dst, mem, size } => Op::Load {
            dst: reg_slot(*dst),
            mem: memref(mem, image),
            size: *size,
        },
        MInst::Store { mem, src, size: 8 } => {
            let (src, mem) = (reg_slot(*src), memref(mem, image));
            match mem.stack_slot() {
                Some(off) => Op::Store8Sp { src, off },
                None => Op::Store8 { src, mem },
            }
        }
        MInst::Store { mem, src, size } => Op::Store {
            src: reg_slot(*src),
            mem: memref(mem, image),
            size: *size,
        },
        MInst::Push { src } => Op::Push {
            src: reg_slot(*src),
        },
        MInst::Pop { dst } => Op::Pop {
            dst: reg_slot(*dst),
        },
        MInst::BndCheck { bnd, mem, upper } => {
            let (lo, hi) = match bnd {
                BndReg::Bnd0 => image.bnd0(),
                BndReg::Bnd1 => image.bnd1(),
            };
            Op::BndCheck {
                mem: memref(mem, image),
                bound: if *upper { hi } else { lo },
                upper: *upper,
                region: match bnd {
                    BndReg::Bnd0 => Taint::Public,
                    BndReg::Bnd1 => Taint::Private,
                },
            }
        }
        MInst::LoadCode { dst, addr } => Op::LoadCode {
            dst: reg_slot(*dst),
            addr: reg_slot(*addr),
        },
        MInst::ChkStk => Op::ChkStk,
        _ => unreachable!("control-transfer instruction in a straight-line run"),
    }
}

/// Peephole over a block's lowered ops: fuse the codegen's canonical
/// `BndCheck lo; BndCheck hi[; Load8/Store8]` sequences on one address
/// recipe into a single superinstruction, and the two most frequent
/// adjacent pairs, `Store8Sp; Load8Sp` and `MovReg d, s; AluImm d`, into
/// one op each.  The fused op replaces the first slot and the shadowed
/// slots keep their (now dead) originals, so op slots stay 1:1 with
/// instruction offsets — the fault fall-back's per-instruction prefix
/// re-summing and fault indices are untouched.  A shadowed slot never
/// starts another fusion.
fn fuse_ops(ops: &mut [Op]) {
    let mut k = 0;
    while k + 1 < ops.len() {
        let (op, width) = match (&ops[k], &ops[k + 1]) {
            (
                Op::BndCheck {
                    mem: m1,
                    bound: lo,
                    upper: false,
                    region: r1,
                },
                Op::BndCheck {
                    mem: m2,
                    bound: hi,
                    upper: true,
                    region: r2,
                },
            ) if m1 == m2 && r1 == r2 => {
                let (mem, lo, hi, region) = (*m1, *lo, *hi, *r1);
                match ops.get(k + 2) {
                    Some(&Op::Load8 { dst, mem: m3 }) if m3 == mem => (
                        Op::CheckedLoad8 {
                            dst,
                            mem,
                            lo,
                            hi,
                            region,
                        },
                        3,
                    ),
                    Some(&Op::Load8Sp { dst, off }) if mem.stack_slot() == Some(off) => (
                        Op::CheckedLoad8 {
                            dst,
                            mem,
                            lo,
                            hi,
                            region,
                        },
                        3,
                    ),
                    Some(&Op::Store8 { src, mem: m3 }) if m3 == mem => (
                        Op::CheckedStore8 {
                            src,
                            mem,
                            lo,
                            hi,
                            region,
                        },
                        3,
                    ),
                    Some(&Op::Store8Sp { src, off }) if mem.stack_slot() == Some(off) => (
                        Op::CheckedStore8 {
                            src,
                            mem,
                            lo,
                            hi,
                            region,
                        },
                        3,
                    ),
                    _ => (
                        Op::CheckPair {
                            mem,
                            lo,
                            hi,
                            region,
                        },
                        2,
                    ),
                }
            }
            (
                &Op::Store8Sp {
                    src,
                    off: store_off,
                },
                &Op::Load8Sp { dst, off: load_off },
            ) => (
                Op::StoreLoad8Sp {
                    src,
                    store_off,
                    dst,
                    load_off,
                },
                2,
            ),
            (&Op::MovReg { dst, src }, &Op::AluImm { op, dst: d2, imm }) if d2 == dst => {
                (Op::MovAluImm { op, dst, src, imm }, 2)
            }
            _ => {
                k += 1;
                continue;
            }
        };
        ops[k] = op;
        k += width;
    }
}

fn is_terminator(inst: &MInst) -> bool {
    inst.is_control_flow() || matches!(inst, MInst::MagicWord { .. })
}

/// Build the translation for `image` under `cost`.
pub(crate) fn translate(image: &Image, cost: CostModel) -> BlockCache {
    let insts = &image.insts;
    let n = insts.len();

    let inst_at = |word: u32| image.inst_at_word(word as u64);

    // --- leaders ------------------------------------------------------------
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for f in &image.functions {
        if let Some(i) = inst_at(f.entry_word) {
            leader[i] = true;
        }
        if let Some(i) = f.magic_word.and_then(inst_at) {
            leader[i] = true;
        }
    }
    for thunk in [image.exit_thunks.public_ret, image.exit_thunks.private_ret] {
        if let Some(i) = inst_at(thunk) {
            leader[i] = true;
        }
    }
    for (i, inst) in insts.iter().enumerate() {
        match inst {
            MInst::Jmp { target } | MInst::Jcc { target, .. } | MInst::CallDirect { target } => {
                if let Some(j) = inst_at(*target) {
                    leader[j] = true;
                }
            }
            _ => {}
        }
        // Post-call/ret/jump words (and the word after an embedded magic
        // word, where the CFI skip of `CallExternal` resumes).
        if is_terminator(inst) && i + 1 < n {
            leader[i + 1] = true;
        }
    }

    // --- blocks -------------------------------------------------------------
    // Target block indices are patched in after every leader has a block.
    let resolve_static = |word: u32| -> BlockTarget {
        match inst_at(word) {
            Some(i) => BlockTarget::Inst {
                inst: i as u32,
                block: NO_INDEX,
            },
            None => BlockTarget::Invalid(word as u64),
        }
    };
    let mut blocks = Vec::new();
    let mut leader_block = vec![NO_INDEX; n];
    let mut i = 0;
    while i < n {
        let start = i;
        // Scan the straight-line run.
        let mut j = i;
        let term = loop {
            let inst = &insts[j];
            if is_terminator(inst) {
                break Some(j);
            }
            if j + 1 >= n {
                // Straight-line code runs off the end of the stream.
                j += 1;
                break None;
            }
            if leader[j + 1] {
                j += 1;
                break None;
            }
            j += 1;
        };
        let straight_end = term.unwrap_or(j);
        let straight = &insts[start..straight_end];

        let mut acc = StaticAcc::default();
        let mut prev_md = false;
        let mut ops = Vec::with_capacity(straight.len());
        for inst in straight {
            prev_md = accumulate_static(inst, &cost, prev_md, &mut acc);
            ops.push(lower_op(inst, image));
        }
        fuse_ops(&mut ops);
        let terminator = match term {
            None if straight_end >= n => Terminator::OffEnd,
            None => Terminator::FallThrough {
                next: straight_end as u32,
                next_block: NO_INDEX,
            },
            Some(ti) => match &insts[ti] {
                MInst::Jmp { target } => Terminator::Jmp {
                    target: resolve_static(*target),
                },
                MInst::Jcc { cond, target } => Terminator::Jcc {
                    cond: *cond,
                    taken: resolve_static(*target),
                    fall: ti as u32 + 1,
                    fall_block: NO_INDEX,
                },
                MInst::JmpReg { reg } => Terminator::JmpReg {
                    reg: reg_slot(*reg),
                },
                MInst::CallDirect { target } => Terminator::CallDirect {
                    target: resolve_static(*target),
                    ret_word: (image.word_of[ti] + 2) as u64,
                },
                MInst::CallReg { reg } => Terminator::CallReg {
                    reg: reg_slot(*reg),
                    ret_word: (image.word_of[ti] + 2) as u64,
                },
                MInst::CallExternal { index } => {
                    let post = if image.cfi {
                        if let Some(MInst::MagicWord { value }) = insts.get(ti + 1) {
                            let spec_ret = image
                                .externs
                                .get(*index as usize)
                                .map(|e| e.ret_taint)
                                .unwrap_or(Taint::Public);
                            match image.prefixes.decode_ret(*value) {
                                Some(rt) if rt == spec_ret => PostExtern::Next {
                                    inst: ti as u32 + 2,
                                    block: NO_INDEX,
                                },
                                _ => PostExtern::CfiFault,
                            }
                        } else {
                            PostExtern::Next {
                                inst: ti as u32 + 1,
                                block: NO_INDEX,
                            }
                        }
                    } else {
                        PostExtern::Next {
                            inst: ti as u32 + 1,
                            block: NO_INDEX,
                        }
                    };
                    Terminator::CallExternal {
                        index: *index,
                        post,
                    }
                }
                MInst::Ret => Terminator::Ret,
                MInst::MagicWord { value } => Terminator::Magic { value: *value },
                MInst::Trap { code } => Terminator::Trap { code: *code },
                _ => unreachable!("is_terminator and terminator lowering disagree"),
            },
        };
        let term_steps = match terminator {
            Terminator::FallThrough { .. } => 0,
            _ => 1,
        };
        let straight_len = straight.len() as u64;
        let block_index = blocks.len() as u32;
        leader_block[start] = block_index;
        blocks.push(Block {
            start: start as u32,
            steps: straight_len + term_steps,
            cycles: acc.cycles,
            check_cycles: acc.check_cycles,
            loads: acc.loads,
            stores: acc.stores,
            bound_checks: acc.bound_checks,
            cfi_checks: acc.cfi_checks,
            first_is_bndcheck: matches!(straight.first(), Some(MInst::BndCheck { .. })),
            ends_muldiv: prev_md,
            loop_head: false,
            ops,
            term: terminator,
        });
        i = match term {
            Some(ti) => ti + 1,
            None => straight_end,
        };
    }

    // --- static-edge block indices -----------------------------------------
    // Now that every leader has its block, patch the static edges so the
    // dispatch loop chains block to block directly.  Every static target is
    // a leader by the leader-marking pass, but `NO_INDEX` (= "look it up")
    // stays correct if one ever is not.
    let lb = |inst: u32, leader_block: &[u32]| -> u32 {
        leader_block.get(inst as usize).copied().unwrap_or(NO_INDEX)
    };
    for b in &mut blocks {
        match &mut b.term {
            Terminator::FallThrough { next, next_block } => {
                *next_block = lb(*next, &leader_block);
            }
            Terminator::Jmp { target } | Terminator::CallDirect { target, .. } => {
                if let BlockTarget::Inst { inst, block } = target {
                    *block = lb(*inst, &leader_block);
                }
            }
            Terminator::Jcc {
                taken,
                fall,
                fall_block,
                ..
            } => {
                if let BlockTarget::Inst { inst, block } = taken {
                    *block = lb(*inst, &leader_block);
                }
                *fall_block = lb(*fall, &leader_block);
            }
            Terminator::CallExternal {
                post: PostExtern::Next { inst, block },
                ..
            } => {
                *block = lb(*inst, &leader_block);
            }
            _ => {}
        }
    }

    // --- loop heads ---------------------------------------------------------
    // A block whose leader is the target of a backward static jump (`Jmp` or
    // a `Jcc` taken edge pointing at or before the jumping block's own
    // leader) is a loop head.  Calls are excluded: a backward call is
    // recursion, not a loop back-edge.
    let mut back_targets: Vec<u32> = Vec::new();
    for b in &blocks {
        let mut mark = |t: &BlockTarget| {
            if let BlockTarget::Inst { inst, .. } = t {
                if *inst <= b.start {
                    back_targets.push(*inst);
                }
            }
        };
        match &b.term {
            Terminator::Jmp { target } => mark(target),
            Terminator::Jcc { taken, .. } => mark(taken),
            _ => {}
        }
    }
    for inst in back_targets {
        let bi = lb(inst, &leader_block);
        if bi != NO_INDEX {
            blocks[bi as usize].loop_head = true;
        }
    }

    BlockCache {
        cost,
        blocks,
        leader_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocatorKind;
    use crate::loader::load;
    use confllvm_machine::program::FuncSym;
    use confllvm_machine::{trap, MagicPrefixes, Program, Scheme};

    fn program(insts: Vec<MInst>) -> Program {
        Program {
            name: "t".into(),
            insts,
            functions: vec![FuncSym {
                name: "main".into(),
                magic_word: None,
                entry_word: 0,
                arg_taints: [Taint::Private; 4],
                ret_taint: Taint::Public,
            }],
            globals: vec![],
            externs: vec![],
            entry_function: 0,
            prefixes: MagicPrefixes::test_defaults(),
            scheme: Scheme::None,
            cfi: false,
            separate_trusted_memory: false,
            split_stacks: false,
        }
    }

    #[test]
    fn every_instruction_is_covered_and_leaders_start_blocks() {
        let p = program(vec![
            MInst::MovImm {
                dst: Reg::Rax,
                imm: 1,
            },
            MInst::Jcc {
                cond: Cond::Eq,
                target: 0,
            },
            MInst::Alu {
                op: AluOp::Add,
                dst: Reg::Rax,
                src: RegImm::Imm(1),
            },
            MInst::Ret,
        ]);
        let image = load(&p, AllocatorKind::ConfBins).unwrap().image;
        let bc = translate(&image, CostModel::default());
        // The leader table points every leader at a block starting there.
        for (i, &b) in bc.leader_block.iter().enumerate() {
            if b != NO_INDEX {
                assert_eq!(bc.blocks[b as usize].start as usize, i);
            }
        }
        // Blocks tile the stream: block k ends where block k+1 starts.
        let mut covered = 0usize;
        for b in &bc.blocks {
            assert_eq!(b.start as usize, covered);
            let term_len = match b.term {
                Terminator::FallThrough { .. } | Terminator::OffEnd => 0,
                _ => 1,
            };
            covered += b.ops.len() + term_len;
        }
        assert_eq!(covered, image.insts.len());
    }

    #[test]
    fn pre_summed_costs_match_the_static_walk() {
        let p = program(vec![
            MInst::Alu {
                op: AluOp::Mul,
                dst: Reg::Rax,
                src: RegImm::Imm(3),
            },
            MInst::BndCheck {
                bnd: BndReg::Bnd0,
                mem: MemOperand::base(Reg::Rcx),
                upper: false,
            },
            MInst::BndCheck {
                bnd: BndReg::Bnd0,
                mem: MemOperand::base(Reg::Rcx),
                upper: true,
            },
            MInst::Ret,
        ]);
        let image = load(&p, AllocatorKind::ConfBins).unwrap().image;
        let cost = CostModel::default();
        let bc = translate(&image, cost);
        let b = &bc.blocks[0];
        // mul + (check after mul: free, dual-issued) + check.
        assert_eq!(b.cycles, cost.alu + cost.bnd_check);
        assert_eq!(b.check_cycles, cost.bnd_check);
        assert_eq!(b.bound_checks, 2);
        assert!(!b.first_is_bndcheck);
        assert!(!b.ends_muldiv, "the checks follow the mul");
        assert_eq!(b.steps, 4);
    }

    #[test]
    fn stack_slots_lower_to_sp_ops_and_adjacent_pairs_fuse() {
        let sp = |disp| MemOperand::base_disp(Reg::Rsp, disp);
        let p = program(vec![
            MInst::Store {
                mem: sp(-8),
                src: Reg::Rax,
                size: 8,
            },
            MInst::Load {
                dst: Reg::Rcx,
                mem: sp(-16),
                size: 8,
            },
            MInst::MovReg {
                dst: Reg::Rdx,
                src: Reg::Rcx,
            },
            MInst::Alu {
                op: AluOp::Div,
                dst: Reg::Rdx,
                src: RegImm::Imm(0),
            },
            // Not stack slots: a 4-byte width, an index, a low-32 mask.
            MInst::Load {
                dst: Reg::Rsi,
                mem: sp(8),
                size: 4,
            },
            MInst::Load {
                dst: Reg::Rsi,
                mem: MemOperand {
                    index: Some((Reg::Rax, 8)),
                    ..sp(0)
                },
                size: 8,
            },
            MInst::Store {
                mem: MemOperand {
                    use_low32: true,
                    ..sp(0)
                },
                src: Reg::Rsi,
                size: 8,
            },
            // A lone stack store, and a copy into a register the next
            // operation does not write: neither fuses.
            MInst::Store {
                mem: sp(24),
                src: Reg::Rsi,
                size: 8,
            },
            MInst::MovReg {
                dst: Reg::Rdi,
                src: Reg::Rcx,
            },
            MInst::Alu {
                op: AluOp::Add,
                dst: Reg::Rsi,
                src: RegImm::Imm(1),
            },
            MInst::Ret,
        ]);
        let image = load(&p, AllocatorKind::ConfBins).unwrap().image;
        let bc = translate(&image, CostModel::default());
        let ops = &bc.blocks[0].ops;
        assert_eq!(ops.len(), 10, "slots stay 1:1 with instructions");
        assert!(matches!(
            ops[0],
            Op::StoreLoad8Sp { src: 0, store_off, dst: 1, load_off }
                if store_off == -8i64 as u64 && load_off == -16i64 as u64
        ));
        assert!(matches!(ops[1], Op::Load8Sp { .. }), "the shadowed slot");
        assert!(matches!(
            ops[2],
            Op::MovAluImm {
                op: AluOp::Div,
                dst: 2,
                src: 1,
                imm: 0
            }
        ));
        assert!(matches!(ops[3], Op::AluImm { .. }), "the shadowed slot");
        assert!(matches!(ops[4], Op::Load { size: 4, .. }));
        assert!(matches!(ops[5], Op::Load8 { .. }));
        assert!(matches!(ops[6], Op::Store8 { .. }));
        assert!(matches!(ops[7], Op::Store8Sp { off: 24, .. }));
        assert!(matches!(ops[8], Op::MovReg { .. }));
        assert!(matches!(ops[9], Op::AluImm { .. }));
    }

    #[test]
    fn exit_thunks_are_trap_leaders() {
        let p = program(vec![
            MInst::MovImm {
                dst: Reg::Rax,
                imm: 7,
            },
            MInst::CallDirect { target: 0 },
            MInst::Ret,
        ]);
        let image = load(&p, AllocatorKind::ConfBins).unwrap().image;
        let bc = translate(&image, CostModel::default());
        let thunk = image
            .inst_at_word(image.exit_thunks.public_ret as u64)
            .expect("the thunk starts an instruction");
        let b = bc.leader_block[thunk];
        assert_ne!(b, NO_INDEX);
        assert!(matches!(
            bc.blocks[b as usize].term,
            Terminator::Trap { code } if code == trap::EXIT
        ));
    }
}
