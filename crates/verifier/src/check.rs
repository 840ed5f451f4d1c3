//! The per-procedure checking engine.
//!
//! ConfVerify's scan is a *single pass per procedure* over read-only shared
//! state (the decoded instruction stream and the binary header), so checking
//! is embarrassingly parallel across procedures: [`Shared`] carries the
//! immutable context, [`check_procedure`] turns one [`Proc`] into an
//! independent [`ProcOutcome`], and the driver (see [`crate::driver`]) is
//! free to schedule those calls over a work queue.

use std::collections::HashMap;

use confllvm_machine::{
    decode_words, Binary, BndReg, MInst, MemOperand, MemoryLayout, Reg, RegImm, Scheme, Seg, Taint,
    ARG_REGS, CALLEE_SAVED, RET_REG,
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

/// Per-register facts of the linear scan, indexed by register number.
struct RegMap<T: Copy>([Option<T>; Reg::COUNT]);

impl<T: Copy> RegMap<T> {
    fn new() -> Self {
        RegMap([None; Reg::COUNT])
    }

    fn get(&self, r: Reg) -> Option<T> {
        self.0[r.index()]
    }

    fn insert(&mut self, r: Reg, v: T) {
        self.0[r.index()] = Some(v);
    }

    fn remove(&mut self, r: Reg) {
        self.0[r.index()] = None;
    }

    fn clear(&mut self) {
        *self = RegMap::new();
    }
}

/// What the bound checks seen so far establish about one register: the
/// bound register a complete `bndcl`/`bndcu` pair checked it against, and
/// the half of a pair (bound register, `upper`) still waiting for its
/// other half.  Only a complete pair checks the register.
#[derive(Debug, Clone, Copy, Default)]
struct Checked {
    pair: Option<BndReg>,
    half: Option<(BndReg, bool)>,
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

    /// The taint of a memory operand, derived *only* from the checks and
    /// prefixes present in the code (never from compiler metadata).
    ///
    /// * Segmentation scheme: the segment prefix is the classification, and
    ///   the operand must use only the low 32 bits of its registers.
    /// * MPX scheme: a pair of bound checks against the same base register
    ///   must appear earlier in the window with no intervening call or
    ///   redefinition of the base; rsp-relative operands are classified by
    ///   their displacement relative to OFFSET, justified by the `_chkstk`
    ///   enforcement.
    #[allow(clippy::too_many_arguments)]
    fn mem_taint(
        &mut self,
        word: u32,
        mem: &MemOperand,
        checked: &RegMap<Checked>,
        slot_of_reg: &RegMap<i32>,
        checked_slots: &HashMap<i32, BndReg>,
        rsp_off: &RegMap<i64>,
        global_of_reg: &RegMap<u32>,
        checked_globals: &HashMap<u32, BndReg>,
        saw_chkstk: bool,
    ) -> Option<Taint> {
        match self.s.binary.header.scheme {
            Scheme::Segment => {
                if !mem.use_low32 {
                    self.err(
                        word,
                        "segment-scheme memory operand uses full 64-bit registers",
                    );
                    return None;
                }
                match mem.seg {
                    Some(Seg::Fs) => Some(Taint::Public),
                    Some(Seg::Gs) => Some(Taint::Private),
                    None => {
                        self.err(word, "memory operand without segment prefix");
                        None
                    }
                }
            }
            Scheme::Mpx => {
                if mem.is_stack_relative() {
                    if !saw_chkstk {
                        self.err(
                            word,
                            "stack access without chkstk enforcement in the prologue",
                        );
                        return None;
                    }
                    let offset = self.s.layout.private_stack_offset();
                    if self.s.binary.header.split_stacks && (mem.disp as i64) >= offset {
                        return Some(Taint::Private);
                    }
                    return Some(Taint::Public);
                }
                let base = match mem.base {
                    Some(b) => b,
                    None => {
                        self.err(word, "memory operand without a base register");
                        return None;
                    }
                };
                // Registers holding `rsp + constant` are materialised stack
                // addresses; with `_chkstk` keeping rsp in bounds they are
                // classified by their offset just like rsp-relative operands
                // (this is what justifies eliminating their checks).
                if let Some(off) = rsp_off.get(base) {
                    if saw_chkstk && mem.index.is_none() {
                        let total = off + mem.disp as i64;
                        let offset = self.s.layout.private_stack_offset();
                        let stack = self.s.layout.thread_stack_size as i64;
                        if self.s.binary.header.split_stacks
                            && total >= offset
                            && total < offset + stack
                        {
                            return Some(Taint::Private);
                        }
                        if total >= 0 && total < stack {
                            return Some(Taint::Public);
                        }
                    }
                }
                // A register is considered checked because a bndcl/bndcu pair
                // on it appears earlier, because its value was reloaded from
                // a stack slot that was checked earlier with no intervening
                // call (the check-coalescing optimisation of Section 5.1), or
                // because it provably holds the address of a global whose
                // address was checked earlier with no intervening call — a
                // global's address is a link-time constant, so any register
                // derived from `mov_global` of the same global holds the
                // identical (already checked) value.  The latter justifies
                // the compiler's cross-block elimination and loop hoisting of
                // checks on global bases.
                let effective = checked
                    .get(base)
                    .and_then(|c| c.pair)
                    .or_else(|| {
                        slot_of_reg
                            .get(base)
                            .and_then(|d| checked_slots.get(&d))
                            .copied()
                    })
                    .or_else(|| {
                        global_of_reg
                            .get(base)
                            .and_then(|g| checked_globals.get(&g))
                            .copied()
                    });
                match effective {
                    Some(BndReg::Bnd0) => Some(Taint::Public),
                    Some(BndReg::Bnd1) => Some(Taint::Private),
                    None => {
                        self.err(
                            word,
                            format!("access through {base} has no bound check in this block"),
                        );
                        None
                    }
                }
            }
            Scheme::None => None,
        }
    }

    fn check(&mut self, p: &Proc) {
        // Register taint state at procedure entry: argument registers from
        // the magic word, everything else conservatively private except the
        // callee-saved registers which the convention forces to be public
        // (Section 4).
        let mut taint: [Taint; Reg::COUNT] = [Taint::Private; Reg::COUNT];
        for r in CALLEE_SAVED {
            taint[r.index()] = Taint::Public;
        }
        taint[Reg::Rsp.index()] = Taint::Public;
        for (i, r) in ARG_REGS.iter().enumerate() {
            taint[r.index()] = p.arg_taints[i];
        }

        let mut checked: RegMap<Checked> = RegMap::new();
        // For the check-coalescing optimisation: which stack slot a register's
        // current value was loaded from, and which slots hold already-checked
        // pointers.
        let mut slot_of_reg: RegMap<i32> = RegMap::new();
        let mut checked_slots: HashMap<i32, BndReg> = HashMap::new();
        // Registers currently holding `rsp + constant` (materialised stack
        // addresses).
        let mut rsp_off: RegMap<i64> = RegMap::new();
        // Global-address provenance, justifying the cross-block elimination
        // and loop hoisting of checks on global bases: which global's
        // (link-time constant) address a register or slot provably holds, and
        // which globals' addresses have been checked since the last call.
        let mut global_of_reg: RegMap<u32> = RegMap::new();
        let mut global_of_slot: HashMap<i32, u32> = HashMap::new();
        let mut checked_globals: HashMap<u32, BndReg> = HashMap::new();
        let mut saw_chkstk = false;
        let body = &p.body;
        let prefixes = self.prefixes();

        for (k, &idx) in body.iter().enumerate() {
            let (word, inst) = self.s.insts[idx];
            self.out.report.instructions_checked += 1;
            match inst {
                MInst::ChkStk => saw_chkstk = true,
                MInst::MovGlobal { dst, index } => {
                    taint[dst.index()] = Taint::Public;
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    rsp_off.remove(dst);
                    global_of_reg.insert(dst, index);
                }
                MInst::MovImm { dst, .. } | MInst::MovFunc { dst, .. } | MInst::Lea { dst, .. } => {
                    taint[dst.index()] = Taint::Public;
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    rsp_off.remove(dst);
                    global_of_reg.remove(dst);
                }
                MInst::MovReg { dst, src } => {
                    taint[dst.index()] = taint[src.index()];
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    if src == Reg::Rsp {
                        rsp_off.insert(dst, 0);
                    } else if let Some(o) = rsp_off.get(src) {
                        rsp_off.insert(dst, o);
                    } else {
                        rsp_off.remove(dst);
                    }
                    if let Some(g) = global_of_reg.get(src) {
                        global_of_reg.insert(dst, g);
                    } else {
                        global_of_reg.remove(dst);
                    }
                }
                MInst::Alu { op, dst, src } => {
                    let s = match src {
                        RegImm::Reg(r) => taint[r.index()],
                        RegImm::Imm(_) => Taint::Public,
                    };
                    taint[dst.index()] = taint[dst.index()].join(s);
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    global_of_reg.remove(dst);
                    match (op, src, rsp_off.get(dst)) {
                        (confllvm_machine::AluOp::Add, RegImm::Imm(c), Some(o)) => {
                            rsp_off.insert(dst, o + c);
                        }
                        _ => {
                            rsp_off.remove(dst);
                        }
                    }
                }
                MInst::SetCond { dst, .. } => {
                    taint[dst.index()] = Taint::Public;
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    rsp_off.remove(dst);
                    global_of_reg.remove(dst);
                }
                MInst::Cmp { .. } | MInst::Jmp { .. } | MInst::Jcc { .. } | MInst::Nop => {}
                MInst::BndCheck { bnd, mem, upper } => {
                    if let Some(base) = mem.base {
                        // Either half alone proves nothing: the base is
                        // checked once the other half against the same
                        // bound register has been seen too, in either order.
                        let mut c = checked.get(base).unwrap_or_default();
                        if c.half == Some((bnd, !upper)) {
                            c = Checked {
                                pair: Some(bnd),
                                half: None,
                            };
                            if let Some(d) = slot_of_reg.get(base) {
                                checked_slots.insert(d, bnd);
                            }
                            if let Some(g) = global_of_reg.get(base) {
                                checked_globals.insert(g, bnd);
                            }
                        } else {
                            c.half = Some((bnd, upper));
                        }
                        checked.insert(base, c);
                    }
                }
                MInst::Load { dst, mem, .. } => {
                    if let Some(t) = self.mem_taint(
                        word,
                        &mem,
                        &checked,
                        &slot_of_reg,
                        &checked_slots,
                        &rsp_off,
                        &global_of_reg,
                        &checked_globals,
                        saw_chkstk,
                    ) {
                        taint[dst.index()] = t;
                    } else {
                        taint[dst.index()] = Taint::Private;
                    }
                    checked.remove(dst);
                    rsp_off.remove(dst);
                    if mem.is_stack_relative() {
                        slot_of_reg.insert(dst, mem.disp);
                        if let Some(g) = global_of_slot.get(&mem.disp).copied() {
                            global_of_reg.insert(dst, g);
                        } else {
                            global_of_reg.remove(dst);
                        }
                    } else {
                        slot_of_reg.remove(dst);
                        global_of_reg.remove(dst);
                    }
                }
                MInst::Store { mem, src, .. } => {
                    self.out.report.stores_checked += 1;
                    if let Some(t) = self.mem_taint(
                        word,
                        &mem,
                        &checked,
                        &slot_of_reg,
                        &checked_slots,
                        &rsp_off,
                        &global_of_reg,
                        &checked_globals,
                        saw_chkstk,
                    ) {
                        if !taint[src.index()].flows_to(t) {
                            self.err(
                                word,
                                format!(
                                    "store of a {} register into {} memory",
                                    taint[src.index()].name(),
                                    t.name()
                                ),
                            );
                        }
                    }
                    if mem.is_stack_relative() {
                        // Overwriting a slot invalidates any coalesced check
                        // associated with the pointer it used to hold, and
                        // records whether the slot now holds a global address.
                        checked_slots.remove(&mem.disp);
                        if let Some(g) = global_of_reg.get(src) {
                            global_of_slot.insert(mem.disp, g);
                        } else {
                            global_of_slot.remove(&mem.disp);
                        }
                    }
                }
                MInst::Push { .. } => {}
                MInst::Pop { dst } => {
                    taint[dst.index()] = Taint::Public;
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    rsp_off.remove(dst);
                    global_of_reg.remove(dst);
                }
                MInst::LoadCode { dst, .. } => {
                    taint[dst.index()] = Taint::Public;
                    checked.remove(dst);
                    slot_of_reg.remove(dst);
                    rsp_off.remove(dst);
                    global_of_reg.remove(dst);
                }
                MInst::CallDirect { target } => {
                    self.out.report.calls_checked += 1;
                    self.check_call_target_taints(word, target, &taint);
                    checked_slots.clear();
                    slot_of_reg.clear();
                    // Register contents do not survive the call; the bound
                    // registers are conservatively treated as clobbered, so
                    // checked-global facts die with them (slot contents — and
                    // therefore global_of_slot — persist).
                    global_of_reg.clear();
                    checked_globals.clear();
                    self.after_call(&mut taint, &mut checked, body, k);
                }
                MInst::CallReg { .. } => {
                    self.out.report.indirect_calls_checked += 1;
                    self.check_indirect_call_guard(word, body, k, &taint);
                    checked_slots.clear();
                    slot_of_reg.clear();
                    global_of_reg.clear();
                    checked_globals.clear();
                    self.after_call(&mut taint, &mut checked, body, k);
                }
                MInst::CallExternal { index } => {
                    self.out.report.calls_checked += 1;
                    let spec = self.s.binary.header.externs.get(index as usize).cloned();
                    match spec {
                        Some(spec) => {
                            let expect = spec.arg_reg_taints();
                            for (i, r) in ARG_REGS.iter().enumerate() {
                                if !taint[r.index()].flows_to(expect[i]) {
                                    self.err(
                                        word,
                                        format!(
                                            "argument {i} of call to trusted `{}` is {} but the signature expects {}",
                                            spec.name,
                                            taint[r.index()].name(),
                                            expect[i].name()
                                        ),
                                    );
                                }
                            }
                        }
                        None => self.err(word, format!("call to unknown extern #{index}")),
                    }
                    checked_slots.clear();
                    slot_of_reg.clear();
                    global_of_reg.clear();
                    checked_globals.clear();
                    self.after_call(&mut taint, &mut checked, body, k);
                }
                MInst::Ret => {
                    self.err(word, "plain ret is forbidden under taint-aware CFI");
                }
                MInst::JmpReg { .. } => {
                    self.out.report.returns_checked += 1;
                    self.check_return_guard(word, body, k, &taint, p);
                }
                MInst::Trap { .. } => {}
                MInst::MagicWord { value } => {
                    // Return-site magic words inside a body are fine; a call
                    // magic word would have started a new procedure.
                    if !prefixes.is_ret_word(value) {
                        self.err(word, "unexpected magic word inside a procedure body");
                    }
                }
            }
        }
        let _ = p.magic_word;
    }

    /// After any call: the return register's taint comes from the ret-site
    /// magic word that must follow the call; caller-saved registers are
    /// conservatively private, callee-saved ones public; bound checks do not
    /// survive the call.
    fn after_call(
        &mut self,
        taint: &mut [Taint; Reg::COUNT],
        checked: &mut RegMap<Checked>,
        body: &[usize],
        k: usize,
    ) {
        checked.clear();
        for r in confllvm_machine::CALLER_SAVED {
            taint[r.index()] = Taint::Private;
        }
        for r in CALLEE_SAVED {
            taint[r.index()] = Taint::Public;
        }
        taint[Reg::Rsp.index()] = Taint::Public;
        // Ret-site magic word: determines the return register taint.
        let call_idx = body[k];
        let (word, _) = self.s.insts[call_idx];
        match self.s.insts.get(call_idx + 1) {
            Some((_, MInst::MagicWord { value })) if self.prefixes().is_ret_word(*value) => {
                if let Some(rt) = self.prefixes().decode_ret(*value) {
                    taint[RET_REG.index()] = rt;
                }
            }
            _ => self.err(word, "call is not followed by a return-site magic word"),
        }
    }

    /// Direct calls: the argument-register taints at the call site must match
    /// the callee's magic word (which precedes its entry).
    fn check_call_target_taints(&mut self, word: u32, target: u32, taint: &[Taint; Reg::COUNT]) {
        let magic_idx = self.s.inst_at_word(target.saturating_sub(1));
        let Some(mi) = magic_idx else {
            self.err(word, "direct call target has no preceding magic word");
            return;
        };
        let (_, inst) = &self.s.insts[mi];
        let MInst::MagicWord { value } = inst else {
            self.err(word, "direct call target is not preceded by a magic word");
            return;
        };
        let Some((expect, _ret)) = self.prefixes().decode_call(*value) else {
            self.err(
                word,
                "direct call target's magic word is not a call magic word",
            );
            return;
        };
        for (i, r) in ARG_REGS.iter().enumerate() {
            if !taint[r.index()].flows_to(expect[i]) {
                self.err(
                    word,
                    format!(
                        "argument {i} is {} at the call site but the callee expects {}",
                        taint[r.index()].name(),
                        expect[i].name()
                    ),
                );
            }
        }
    }

    /// Indirect calls must be dominated (within the preceding window) by the
    /// LoadCode / compare / branch-to-trap guard, and the expected magic word
    /// immediate must be consistent with the argument taints at the site.
    fn check_indirect_call_guard(
        &mut self,
        word: u32,
        body: &[usize],
        k: usize,
        taint: &[Taint; Reg::COUNT],
    ) {
        let window = 24.min(k);
        let mut saw_loadcode = false;
        let mut saw_guard_branch = false;
        let mut expected_bits: Option<u64> = None;
        for &idx in &body[k - window..k] {
            match &self.s.insts[idx].1 {
                MInst::LoadCode { .. } => saw_loadcode = true,
                MInst::Jcc { cond, target }
                    if *cond == confllvm_machine::Cond::Ne && self.s.target_is_trap(*target) =>
                {
                    saw_guard_branch = true;
                }
                MInst::MovImm { imm, .. } => {
                    let candidate = !(*imm as u64);
                    if self.prefixes().is_call_word(candidate) {
                        expected_bits = Some(candidate);
                    }
                }
                _ => {}
            }
        }
        if !saw_loadcode || !saw_guard_branch {
            self.err(word, "indirect call without a magic-word guard");
            return;
        }
        if let Some(expected) = expected_bits {
            if let Some((expect_args, _)) = self.prefixes().decode_call(expected) {
                for (i, r) in ARG_REGS.iter().enumerate() {
                    if !taint[r.index()].flows_to(expect_args[i]) {
                        self.err(
                            word,
                            format!(
                                "indirect call argument {i} is {} but the checked target expects {}",
                                taint[r.index()].name(),
                                expect_args[i].name()
                            ),
                        );
                    }
                }
            }
        } else {
            self.err(
                word,
                "indirect call guard does not compare against a call magic word",
            );
        }
    }

    /// Return sites: the `jmp reg` ending a procedure must be guarded by a
    /// LoadCode / compare / branch-to-trap on the return address, and the
    /// expected word's taint bit must cover the return register's taint.
    fn check_return_guard(
        &mut self,
        word: u32,
        body: &[usize],
        k: usize,
        taint: &[Taint; Reg::COUNT],
        p: &Proc,
    ) {
        let window = 16.min(k);
        let mut saw_loadcode = false;
        let mut saw_guard_branch = false;
        let mut expected_ret_taint: Option<Taint> = None;
        for &idx in &body[k - window..k] {
            match &self.s.insts[idx].1 {
                MInst::LoadCode { .. } => saw_loadcode = true,
                MInst::Jcc { cond, target }
                    if *cond == confllvm_machine::Cond::Ne && self.s.target_is_trap(*target) =>
                {
                    saw_guard_branch = true;
                }
                MInst::MovImm { imm, .. } => {
                    let candidate = !(*imm as u64);
                    if self.prefixes().is_ret_word(candidate) {
                        expected_ret_taint = self.prefixes().decode_ret(candidate);
                    }
                }
                _ => {}
            }
        }
        if !saw_loadcode || !saw_guard_branch {
            self.err(
                word,
                "return without a magic-word guard (possible plain indirect jump)",
            );
            return;
        }
        match expected_ret_taint {
            Some(expected) => {
                if !taint[RET_REG.index()].flows_to(expected) && p.ret_taint == Taint::Public {
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
        }
    }
}
