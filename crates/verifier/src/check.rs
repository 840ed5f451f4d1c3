//! The per-procedure checking engine.
//!
//! ConfVerify's scan is a *single pass per procedure* over read-only shared
//! state (the decoded instruction stream and the binary header), so checking
//! is embarrassingly parallel across procedures: [`Shared`] carries the
//! immutable context, [`check_procedure`] turns one [`Proc`] into an
//! independent [`ProcOutcome`], and the driver (see [`crate::driver`]) is
//! free to schedule those calls over a work queue.
//!
//! What the scan knows at one point of a procedure is one value, [`Facts`]:
//! per register a [`RegFacts`] record (taint, a complete or half bound
//! check with its displacement, the stack slot it was reloaded from, its
//! `rsp` offset, the global whose address it holds), the checked slots and
//! globals, the globals' addresses held in slots, whether `_chkstk` has run
//! and the taint of the flags.  Each instruction updates it through three
//! methods: [`Facts::define`] kills every fact about a register it writes,
//! [`Facts::call`] clears what a call clobbers, and [`Facts::mem_taint`]
//! classifies a memory access.

use std::collections::HashMap;

use confllvm_machine::{
    decode_words, AluOp, Binary, BndReg, Cond, MInst, MemOperand, MemoryLayout, Reg, RegImm,
    Scheme, Seg, Taint, ARG_REGS, CALLEE_SAVED, CALLER_SAVED, RET_REG,
};

use crate::{VerifyError, VerifyReport};

/// One discovered procedure (Section 5.2): every call-magic word starts a
/// procedure; its body extends to the next call-magic word.
pub(crate) struct Proc {
    /// Word offset of the procedure's call-magic word.
    pub magic_word: u32,
    /// Indices (into the decoded instruction list) of the body.
    pub body: Vec<usize>,
    /// First word offset past the body (the next procedure's magic word, or
    /// the end of the code).
    pub end_word: u32,
    pub arg_taints: [Taint; 4],
    pub ret_taint: Taint,
}

/// What checking one procedure produced: its violations plus its share of
/// the report counters.  Outcomes are merged in procedure order, so the
/// result is deterministic regardless of how many threads checked them.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProcOutcome {
    pub errors: Vec<VerifyError>,
    pub report: VerifyReport,
}

/// How far from a checked displacement an access may reach: the guard areas
/// around the MPX regions absorb it, the bound `mpx-fold-displacements`
/// relies on.
const GUARD: i64 = MemoryLayout::MPX_GUARD_SIZE as i64 - 1;

/// One bound check of `[base + disp]`: its bound register and `disp`.
type Check = (BndReg, i32);

/// What the scan knows about the value in one register.
#[derive(Clone, Copy)]
struct RegFacts {
    taint: Taint,
    /// The check a complete `bndcl`/`bndcu` pair made of the value.
    pair: Option<Check>,
    /// The half of a pair (check, `upper`) still waiting for its other
    /// half.  Either half alone proves nothing.
    half: Option<(Check, bool)>,
    /// The stack slot (its `rsp` displacement) the value was loaded from.
    slot: Option<i32>,
    /// The value is `rsp + offset`, a materialised stack address.
    rsp_off: Option<i64>,
    /// The value is the (link-time constant) address of this global.
    global: Option<u32>,
}

impl RegFacts {
    /// A fresh value of taint `taint` that nothing else is known about.
    const fn new(taint: Taint) -> RegFacts {
        RegFacts {
            taint,
            pair: None,
            half: None,
            slot: None,
            rsp_off: None,
            global: None,
        }
    }
}

/// The scan's whole state at one point of a procedure: what it knows about
/// each register, which stack slots hold checked pointers or global
/// addresses, which globals' addresses are checked, whether `_chkstk` has
/// run, and the taint of the flags.
struct Facts {
    regs: [RegFacts; Reg::COUNT],
    /// Slots holding a pointer checked since the last call (the
    /// check-coalescing optimisation of Section 5.1).
    checked_slots: HashMap<i32, Check>,
    /// Slots holding a global's address.  Slot contents survive a call.
    global_of_slot: HashMap<i32, u32>,
    /// Globals whose address was checked since the last call, which
    /// justifies the cross-block elimination and loop hoisting of checks on
    /// global bases.
    checked_globals: HashMap<u32, Check>,
    /// `_chkstk` has run, so `rsp` lies inside the thread's stack.
    chkstk: bool,
    /// The taint of what the last `cmp` compared, which a `setcc` copies.
    flags: Taint,
}

impl Facts {
    /// The state at the entry of `p`: argument registers carry the taints
    /// of its magic word, the rest what any call leaves behind.
    fn entry(p: &Proc) -> Facts {
        let mut f = Facts {
            regs: [RegFacts::new(Taint::Private); Reg::COUNT],
            checked_slots: HashMap::new(),
            global_of_slot: HashMap::new(),
            checked_globals: HashMap::new(),
            chkstk: false,
            flags: Taint::Private,
        };
        f.call();
        for (r, t) in ARG_REGS.iter().zip(p.arg_taints) {
            f.regs[r.index()].taint = t;
        }
        f
    }

    fn taint(&self, r: Reg) -> Taint {
        self.regs[r.index()].taint
    }

    /// `r` gets a new value of taint `taint`: every fact about its old value
    /// dies.  Returns its record for the caller to fill in what it knows.
    fn define(&mut self, r: Reg, taint: Taint) -> &mut RegFacts {
        let f = &mut self.regs[r.index()];
        *f = RegFacts::new(taint);
        f
    }

    /// What a call leaves: caller-saved registers and the flags are
    /// conservatively private and callee-saved registers public (Section
    /// 4).  The bound registers count as clobbered, so every check dies.
    /// Nothing checks that a callee preserves any register (the CFI return
    /// sequence itself overwrites `r15`), so every register's slot, global
    /// and `rsp` offset die too.  Slot contents survive.
    fn call(&mut self) {
        for f in &mut self.regs {
            *f = RegFacts::new(f.taint);
        }
        for r in CALLER_SAVED {
            self.regs[r.index()].taint = Taint::Private;
        }
        for r in CALLEE_SAVED.into_iter().chain([Reg::Rsp]) {
            self.regs[r.index()].taint = Taint::Public;
        }
        self.checked_slots.clear();
        self.checked_globals.clear();
        self.flags = Taint::Private;
    }

    /// The taint of the memory `mem` addresses, derived *only* from the
    /// checks and prefixes present in the code (never from compiler
    /// metadata), or why it cannot be classified.
    ///
    /// * Segmentation scheme: the segment prefix is the classification, and
    ///   the operand must use only the low 32 bits of its registers.
    /// * MPX scheme: the operand must have no segment prefix and use full
    ///   64-bit registers, since the checks classify the address its
    ///   registers hold, not one offset by a segment base or truncated.
    ///   `rsp`-relative operands, and registers holding `rsp + constant`,
    ///   are classified by their offset relative to OFFSET, justified by
    ///   the `_chkstk` enforcement.  Any other base
    ///   counts as checked if this state records a complete pair on it: on
    ///   the register itself, on the stack slot its value was reloaded from
    ///   with no call since the check (the check-coalescing optimisation of
    ///   Section 5.1), or on the global whose address it provably holds — a
    ///   link-time constant, so any register derived from `mov_global` of
    ///   the same global holds the identical, already checked value.  The
    ///   access must have no index register, and its displacement must lie
    ///   within [`GUARD`] of the checked one.
    fn mem_taint(&self, s: &Shared<'_>, mem: &MemOperand) -> Result<Taint, String> {
        let header = &s.binary.header;
        match header.scheme {
            Scheme::Segment => {
                if !mem.use_low32 {
                    return Err(
                        "segment-scheme memory operand uses full 64-bit registers".to_string()
                    );
                }
                match mem.seg {
                    Some(Seg::Fs) => Ok(Taint::Public),
                    Some(Seg::Gs) => Ok(Taint::Private),
                    None => Err("memory operand without segment prefix".to_string()),
                }
            }
            Scheme::Mpx => {
                if mem.seg.is_some() || mem.use_low32 {
                    return Err(
                        "MPX-scheme memory operand has a segment prefix or uses 32-bit registers"
                            .to_string(),
                    );
                }
                let offset = s.layout.private_stack_offset();
                if mem.is_stack_relative() {
                    if !self.chkstk {
                        return Err(
                            "stack access without chkstk enforcement in the prologue".to_string()
                        );
                    }
                    if header.split_stacks && (mem.disp as i64) >= offset {
                        return Ok(Taint::Private);
                    }
                    return Ok(Taint::Public);
                }
                let Some(base) = mem.base else {
                    return Err("memory operand without a base register".to_string());
                };
                let r = self.regs[base.index()];
                if let (Some(off), true, None) = (r.rsp_off, self.chkstk, mem.index) {
                    let total = off.wrapping_add(mem.disp as i64);
                    let stack = s.layout.thread_stack_size as i64;
                    if header.split_stacks && (offset..offset + stack).contains(&total) {
                        return Ok(Taint::Private);
                    }
                    if (0..stack).contains(&total) {
                        return Ok(Taint::Public);
                    }
                }
                let checked = r
                    .pair
                    .or_else(|| r.slot.and_then(|d| self.checked_slots.get(&d).copied()))
                    .or_else(|| r.global.and_then(|g| self.checked_globals.get(&g).copied()));
                match checked {
                    None => Err(format!(
                        "access through {base} has no bound check in this block"
                    )),
                    Some(_) if mem.index.is_some() => Err(format!(
                        "access through {base} has an unchecked index register"
                    )),
                    Some((_, d)) if (mem.disp as i64 - d as i64).abs() >= GUARD => Err(format!(
                        "access at {base}{:+} lies beyond the guard of its check at {base}{d:+}",
                        mem.disp
                    )),
                    Some((BndReg::Bnd0, _)) => Ok(Taint::Public),
                    Some((BndReg::Bnd1, _)) => Ok(Taint::Private),
                }
            }
            // `Shared::new` refuses a binary without a scheme.
            Scheme::None => Ok(Taint::Private),
        }
    }
}

/// `Shared::idx_of_word` entry for a word that starts no instruction.
const NO_INST: u32 = u32::MAX;

/// The immutable context every procedure check reads: the binary, its
/// decoded instruction stream, the word→index table and the memory layout.
pub(crate) struct Shared<'a> {
    pub binary: &'a Binary,
    pub insts: Vec<(u32, MInst)>,
    /// One entry per code word: the index (into `insts`) of the instruction
    /// starting there, else [`NO_INST`].
    idx_of_word: Vec<u32>,
    pub layout: MemoryLayout,
}

impl<'a> Shared<'a> {
    pub fn new(binary: &'a Binary) -> Result<Shared<'a>, Vec<VerifyError>> {
        if !crate::is_verifiable(binary) {
            return Err(vec![VerifyError {
                word: 0,
                message:
                    "binary was not built with a partitioning scheme and CFI; nothing to verify"
                        .to_string(),
            }]);
        }
        let insts = decode_words(&binary.words, &binary.header.prefixes).map_err(|e| {
            vec![VerifyError {
                word: e.word_index,
                message: format!("disassembly failed: {e}"),
            }]
        })?;
        let mut idx_of_word = vec![NO_INST; binary.words.len()];
        for (i, (w, _)) in insts.iter().enumerate() {
            idx_of_word[*w as usize] = i as u32;
        }
        let layout = MemoryLayout::new(
            binary.header.scheme,
            binary.header.split_stacks,
            binary.header.separate_trusted_memory,
        );
        Ok(Shared {
            binary,
            insts,
            idx_of_word,
            layout,
        })
    }

    pub fn prefixes(&self) -> confllvm_machine::MagicPrefixes {
        self.binary.header.prefixes
    }

    /// The index of the instruction starting at code word `word`, if any.
    /// Words past the end of the code, or inside an instruction, resolve to
    /// `None`: a jump or call there targets no instruction.
    pub fn inst_at_word(&self, word: u32) -> Option<usize> {
        match self.idx_of_word.get(word as usize) {
            Some(&i) if i != NO_INST => Some(i as usize),
            _ => None,
        }
    }

    /// Procedure discovery (Section 5.2): every call-magic word starts a
    /// procedure; its body extends to the next call-magic word.
    pub fn discover_procedures(&self) -> Vec<Proc> {
        let prefixes = self.prefixes();
        let starts: Vec<usize> = self
            .insts
            .iter()
            .enumerate()
            .filter_map(|(i, (_, inst))| match inst {
                MInst::MagicWord { value } if prefixes.is_call_word(*value) => Some(i),
                _ => None,
            })
            .collect();
        let total_words = self.binary.words.len() as u32;
        let mut procs = Vec::with_capacity(starts.len());
        for (si, &start) in starts.iter().enumerate() {
            let end = starts.get(si + 1).copied().unwrap_or(self.insts.len());
            let end_word = starts
                .get(si + 1)
                .map(|&n| self.insts[n].0)
                .unwrap_or(total_words);
            let (word, inst) = &self.insts[start];
            let MInst::MagicWord { value } = inst else {
                continue;
            };
            let Some((arg_taints, ret_taint)) = prefixes.decode_call(*value) else {
                continue;
            };
            procs.push(Proc {
                magic_word: *word,
                body: (start + 1..end).collect(),
                end_word,
                arg_taints,
                ret_taint,
            });
        }
        procs
    }

    fn target_is_trap(&self, target_word: u32) -> bool {
        match self.inst_at_word(target_word) {
            Some(idx) => matches!(self.insts[idx].1, MInst::Trap { .. }),
            None => false,
        }
    }
}

/// Check one procedure against the shared context.  Pure with respect to the
/// context: all mutation is confined to the returned outcome.
pub(crate) fn check_procedure(s: &Shared<'_>, p: &Proc) -> ProcOutcome {
    let mut c = ProcChecker {
        s,
        out: ProcOutcome::default(),
    };
    c.check(p);
    c.out.report.procedures = 1;
    c.out
}

struct ProcChecker<'a, 'b> {
    s: &'a Shared<'b>,
    out: ProcOutcome,
}

impl ProcChecker<'_, '_> {
    fn err(&mut self, word: u32, message: impl Into<String>) {
        self.out.errors.push(VerifyError {
            word,
            message: message.into(),
        });
    }

    fn prefixes(&self) -> confllvm_machine::MagicPrefixes {
        self.s.prefixes()
    }

    /// Classify the access `mem` under `f`, reporting why when it cannot be.
    fn access(&mut self, word: u32, f: &Facts, mem: &MemOperand) -> Option<Taint> {
        f.mem_taint(self.s, mem)
            .map_err(|message| self.err(word, message))
            .ok()
    }

    fn check(&mut self, p: &Proc) {
        let mut f = Facts::entry(p);
        let prefixes = self.prefixes();
        for (k, &idx) in p.body.iter().enumerate() {
            let (word, inst) = self.s.insts[idx];
            self.out.report.instructions_checked += 1;
            match inst {
                MInst::ChkStk => f.chkstk = true,
                MInst::MovGlobal { dst, index } => {
                    f.define(dst, Taint::Public).global = Some(index)
                }
                MInst::MovImm { dst, .. }
                | MInst::MovFunc { dst, .. }
                | MInst::Lea { dst, .. }
                | MInst::Pop { dst }
                | MInst::LoadCode { dst, .. } => {
                    f.define(dst, Taint::Public);
                }
                MInst::MovReg { dst, src } => {
                    let s = f.regs[src.index()];
                    let d = f.define(dst, s.taint);
                    d.rsp_off = if src == Reg::Rsp { Some(0) } else { s.rsp_off };
                    d.global = s.global;
                }
                MInst::Alu { op, dst, src } => {
                    let (t, imm) = match src {
                        RegImm::Reg(r) => (f.taint(r), None),
                        RegImm::Imm(c) => (Taint::Public, Some(c)),
                    };
                    let old = f.regs[dst.index()];
                    let d = f.define(dst, old.taint.join(t));
                    if let (AluOp::Add, Some(c), Some(o)) = (op, imm, old.rsp_off) {
                        d.rsp_off = Some(o.wrapping_add(c));
                    }
                }
                MInst::Cmp { lhs, rhs } => {
                    f.flags = match rhs {
                        RegImm::Reg(r) => f.taint(lhs).join(f.taint(r)),
                        RegImm::Imm(_) => f.taint(lhs),
                    };
                }
                MInst::SetCond { dst, .. } => {
                    let t = f.flags;
                    f.define(dst, t);
                }
                MInst::Jmp { .. }
                | MInst::Jcc { .. }
                | MInst::Nop
                | MInst::Push { .. }
                | MInst::Trap { .. } => {}
                MInst::BndCheck { bnd, mem, upper } => {
                    // The base is checked once the other half, on the same
                    // bound register and displacement, has been seen too, in
                    // either order.  A check with an index register bounds
                    // no base.
                    if let (Some(base), None) = (mem.base, mem.index) {
                        let check = (bnd, mem.disp);
                        let r = &mut f.regs[base.index()];
                        if r.half == Some((check, !upper)) {
                            r.pair = Some(check);
                            r.half = None;
                            if let Some(d) = r.slot {
                                f.checked_slots.insert(d, check);
                            }
                            if let Some(g) = r.global {
                                f.checked_globals.insert(g, check);
                            }
                        } else {
                            r.half = Some((check, upper));
                        }
                    }
                }
                MInst::Load { dst, mem, .. } => {
                    let t = self.access(word, &f, &mem).unwrap_or(Taint::Private);
                    let slot = mem.is_stack_relative().then_some(mem.disp);
                    let global = slot.and_then(|d| f.global_of_slot.get(&d).copied());
                    let d = f.define(dst, t);
                    d.slot = slot;
                    d.global = global;
                }
                MInst::Store { mem, src, .. } => {
                    self.out.report.stores_checked += 1;
                    let from = f.taint(src);
                    if let Some(t) = self.access(word, &f, &mem) {
                        if !from.flows_to(t) {
                            self.err(
                                word,
                                format!(
                                    "store of a {} register into {} memory",
                                    from.name(),
                                    t.name()
                                ),
                            );
                        }
                    }
                    if mem.is_stack_relative() {
                        // Overwriting a slot invalidates any coalesced check
                        // associated with the pointer it used to hold, and
                        // records whether the slot now holds a global address.
                        f.checked_slots.remove(&mem.disp);
                        match f.regs[src.index()].global {
                            Some(g) => f.global_of_slot.insert(mem.disp, g),
                            None => f.global_of_slot.remove(&mem.disp),
                        };
                    }
                }
                MInst::CallDirect { target } => {
                    self.out.report.calls_checked += 1;
                    self.check_call_target_taints(word, target, &f);
                    self.after_call(&mut f, idx);
                }
                MInst::CallReg { .. } => {
                    self.out.report.indirect_calls_checked += 1;
                    match self.guard(&p.body, k, 24, |w| prefixes.is_call_word(w)) {
                        None => self.err(word, "indirect call without a magic-word guard"),
                        Some(None) => self.err(
                            word,
                            "indirect call guard does not compare against a call magic word",
                        ),
                        Some(Some(w)) => {
                            if let Some((expect, _)) = prefixes.decode_call(w) {
                                self.check_args(word, &f, expect, |i, t, e| {
                                    format!("indirect call argument {i} is {t} but the checked target expects {e}")
                                });
                            }
                        }
                    }
                    self.after_call(&mut f, idx);
                }
                MInst::CallExternal { index } => {
                    self.out.report.calls_checked += 1;
                    let s = self.s;
                    match s.binary.header.externs.get(index as usize) {
                        Some(spec) => self.check_args(word, &f, spec.arg_reg_taints(), |i, t, e| {
                            format!(
                                "argument {i} of call to trusted `{}` is {t} but the signature expects {e}",
                                spec.name
                            )
                        }),
                        None => self.err(word, format!("call to unknown extern #{index}")),
                    }
                    self.after_call(&mut f, idx);
                }
                MInst::Ret => {
                    self.err(word, "plain ret is forbidden under taint-aware CFI");
                }
                MInst::JmpReg { .. } => {
                    // The expected word's taint bit must cover the return
                    // register's taint.
                    self.out.report.returns_checked += 1;
                    match self.guard(&p.body, k, 16, |w| prefixes.is_ret_word(w)) {
                        None => self.err(
                            word,
                            "return without a magic-word guard (possible plain indirect jump)",
                        ),
                        Some(w) => match w.and_then(|w| prefixes.decode_ret(w)) {
                            Some(expected) => {
                                if !f.taint(RET_REG).flows_to(expected)
                                    && p.ret_taint == Taint::Public
                                {
                                    self.err(
                                        word,
                                        "private value in the return register at a public return site",
                                    );
                                }
                            }
                            None => self.err(
                                word,
                                "return guard does not compare against a ret magic word",
                            ),
                        },
                    }
                }
                MInst::MagicWord { value } => {
                    // Return-site magic words inside a body are fine; a call
                    // magic word would have started a new procedure.
                    if !prefixes.is_ret_word(value) {
                        self.err(word, "unexpected magic word inside a procedure body");
                    }
                }
            }
        }
    }

    /// After the call at instruction `call_idx`: the state loses what a call
    /// clobbers, and the return register's taint comes from the ret-site
    /// magic word that must follow the call.
    fn after_call(&mut self, f: &mut Facts, call_idx: usize) {
        f.call();
        let prefixes = self.prefixes();
        match self.s.insts.get(call_idx + 1) {
            Some((_, MInst::MagicWord { value })) if prefixes.is_ret_word(*value) => {
                if let Some(rt) = prefixes.decode_ret(*value) {
                    f.regs[RET_REG.index()].taint = rt;
                }
            }
            _ => self.err(
                self.s.insts[call_idx].0,
                "call is not followed by a return-site magic word",
            ),
        }
    }

    /// Each argument register's taint at a call must flow to what the
    /// callee expects; `message(i, actual, expected)` words a violation.
    fn check_args(
        &mut self,
        word: u32,
        f: &Facts,
        expect: [Taint; 4],
        message: impl Fn(usize, &str, &str) -> String,
    ) {
        for (i, r) in ARG_REGS.iter().enumerate() {
            let t = f.taint(*r);
            if !t.flows_to(expect[i]) {
                self.err(word, message(i, t.name(), expect[i].name()));
            }
        }
    }

    /// Direct calls: the argument-register taints at the call site must match
    /// the callee's magic word (which precedes its entry).
    fn check_call_target_taints(&mut self, word: u32, target: u32, f: &Facts) {
        let Some(mi) = self.s.inst_at_word(target.saturating_sub(1)) else {
            self.err(word, "direct call target has no preceding magic word");
            return;
        };
        let MInst::MagicWord { value } = self.s.insts[mi].1 else {
            self.err(word, "direct call target is not preceded by a magic word");
            return;
        };
        let Some((expect, _)) = self.prefixes().decode_call(value) else {
            self.err(
                word,
                "direct call target's magic word is not a call magic word",
            );
            return;
        };
        self.check_args(word, f, expect, |i, t, e| {
            format!("argument {i} is {t} at the call site but the callee expects {e}")
        });
    }

    /// The CFI guard an indirect call or a return needs (Section 5.2): the
    /// `window` instructions before `body[k]` must hold a `LoadCode` and a
    /// `jne` to a trap.  `None` if either is missing; else the last magic
    /// word `kind` accepts among the inverted `mov` immediates the guard
    /// compares against, if there is one.
    fn guard(
        &self,
        body: &[usize],
        k: usize,
        window: usize,
        kind: impl Fn(u64) -> bool,
    ) -> Option<Option<u64>> {
        let (mut loadcode, mut branch, mut magic) = (false, false, None);
        for &idx in &body[k - window.min(k)..k] {
            match self.s.insts[idx].1 {
                MInst::LoadCode { .. } => loadcode = true,
                MInst::Jcc {
                    cond: Cond::Ne,
                    target,
                } if self.s.target_is_trap(target) => branch = true,
                MInst::MovImm { imm, .. } if kind(!(imm as u64)) => magic = Some(!(imm as u64)),
                _ => {}
            }
        }
        (loadcode && branch).then_some(magic)
    }
}
