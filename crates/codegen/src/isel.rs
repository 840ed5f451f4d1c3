//! Instruction selection: compiling one IR function into machine code with
//! the configured instrumentation (Sections 3–5).
//!
//! The selector is deliberately simple — every IR value lives in a stack
//! slot, operations are performed in a small set of scratch registers — but
//! it is *taint-faithful*: private values and buffers are placed on the
//! private (lock-step) stack, every user-level memory access is preceded by
//! the bound checks or segment prefixes of the selected scheme, and calls,
//! returns and indirect calls carry the taint-aware CFI instrumentation.
//!
//! Under the MPX scheme the selector emits checks *naively* — a full bndcl /
//! bndcu pair before every memory access, stack slots included — and records
//! a [`CheckSite`] for each pair.  The machine-level pass manager
//! ([`crate::mpass`]) then removes the redundant ones according to the
//! configured pipeline; an empty pipeline therefore corresponds to the
//! paper's fully unoptimised ablation baseline.

use std::collections::HashMap;

use confllvm_ir::{
    BinOp, BlockId, CmpOp, Function, Inst, MemSize, Module, Operand, Terminator, ValueId,
};
use confllvm_machine::{
    trap, AluOp, BndReg, Cond, MInst, MemOperand, MemoryLayout, Reg, RegImm, Scheme, Seg, Taint,
    ARG_REGS, RET_REG, SCRATCH0, SCRATCH1, SCRATCH2,
};

use crate::frame::FrameLayout;
use crate::options::CodegenOptions;

/// What a bound-check pair protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// An rsp-relative access to the function's own frame (spills, slots,
    /// stack arguments) — removable when `_chkstk` enforcement is on.
    Stack,
    /// A user-level access through a pointer value.
    User,
}

/// One emitted bndcl/bndcu pair, with enough provenance for the machine
/// passes to reason about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckSite {
    /// Instruction indices of the lower and upper check.
    pub lower: usize,
    pub upper: usize,
    pub kind: CheckKind,
    /// IR block the access belongs to.
    pub block: BlockId,
    /// For user checks: the base value of the checked operand (None for
    /// stack checks and for checks of directly materialised global
    /// addresses).
    pub base_val: Option<ValueId>,
    /// Global-table index when the checked base is a global's address (a
    /// link-time constant).
    pub global: Option<u32>,
    /// Displacement of the checked memory operand.
    pub disp: i32,
    /// Region taint the check enforces (meaningless for stack checks).
    pub taint: Taint,
}

/// The machine span of one IR block inside [`CompiledFunction::insts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MBlock {
    pub id: BlockId,
    /// First instruction of the block (the entry block includes the
    /// prologue).
    pub start: usize,
    /// First instruction of the terminator sequence — the insertion point
    /// for code hoisted to the end of the block.
    pub term_start: usize,
}

/// A placeholder in the instruction stream whose final value depends on the
/// magic prefixes chosen at link time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MagicPatch {
    /// `MagicWord` at a procedure entry: `MCall ++ taint bits`.
    CallMagic { args: [Taint; 4], ret: Taint },
    /// `MagicWord` at a valid return site: `MRet ++ taint bit`.
    RetMagic { ret: Taint },
    /// `MovImm` of the *bitwise negation* of a call magic word (indirect-call
    /// check).
    NotCallMagic { args: [Taint; 4], ret: Taint },
    /// `MovImm` of the negation of a return-site magic word (return check).
    NotRetMagic { ret: Taint },
}

/// The output of compiling one function, before linking.
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    pub name: String,
    /// Machine instructions.  `Jmp`/`Jcc` targets are *local label ids*;
    /// `CallDirect` targets and `MovFunc` indices are *function indices*;
    /// both are rewritten by the linker.
    pub insts: Vec<MInst>,
    /// Label id -> index into `insts`.
    pub labels: Vec<usize>,
    /// Positions whose encoding depends on the magic prefixes.
    pub patches: Vec<(usize, MagicPatch)>,
    /// Taints encoded into the procedure's call magic word.
    pub arg_taints: [Taint; 4],
    pub ret_taint: Taint,
    /// Counts used by reports: how many bound checks / CFI checks remain
    /// after the machine passes.
    pub bound_checks: usize,
    pub cfi_checks: usize,
    /// Every emitted bndcl/bndcu pair (maintained by the machine passes).
    pub check_sites: Vec<CheckSite>,
    /// Machine spans of the IR blocks, in emission order.
    pub mblocks: Vec<MBlock>,
    /// The frame layout the code was emitted against.  The machine passes
    /// must reason with exactly this layout (slot displacements feed the
    /// kill sets and hoisted rematerialisations), so it travels with the
    /// function instead of being rebuilt.
    pub frame: FrameLayout,
}

/// Errors raised during instruction selection / linking.
#[derive(Debug, Clone)]
pub struct CodegenError {
    pub message: String,
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codegen error: {}", self.message)
    }
}

impl std::error::Error for CodegenError {}

fn err(msg: impl Into<String>) -> CodegenError {
    CodegenError {
        message: msg.into(),
    }
}

/// Compile one function.
pub fn compile_function(
    module: &Module,
    f: &Function,
    opts: &CodegenOptions,
    func_index: &HashMap<String, usize>,
) -> Result<CompiledFunction, CodegenError> {
    let layout = MemoryLayout::new(opts.scheme, opts.split_stacks, opts.separate_trusted_memory);
    let frame = FrameLayout::build(f, opts);
    let c = FnCompiler {
        module,
        f,
        opts,
        layout,
        frame,
        func_index,
        insts: Vec::new(),
        labels: Vec::new(),
        patches: Vec::new(),
        block_labels: Vec::new(),
        fail_label: 0,
        add_const_defs: Vec::new(),
        global_defs: Vec::new(),
        check_sites: Vec::new(),
        mblocks: Vec::new(),
        cur_block: BlockId(0),
        bound_checks: 0,
        cfi_checks: 0,
    };
    c.compile()
}

/// A per-value table of `f`, indexed by `ValueId`.
pub(crate) type ValueTable<T> = Vec<Option<T>>;

/// Look `v` up in a [`ValueTable`].
pub(crate) fn lookup<T: Copy>(table: &ValueTable<T>, v: ValueId) -> Option<T> {
    table.get(v.0 as usize).copied().flatten()
}

/// Compute the `v -> (base, const)` table of values defined as
/// `base + const` — the displacement-folding addressing patterns (shared
/// with the machine passes, which must mirror the selector's address
/// resolution).
pub fn add_const_defs(f: &Function) -> ValueTable<(ValueId, i64)> {
    let mut table = vec![None; f.values.len()];
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::Bin {
                dst,
                op: BinOp::Add,
                lhs: Operand::Value(base),
                rhs: Operand::Const(c),
            } = inst
            {
                table[dst.0 as usize] = Some((*base, *c));
            }
        }
    }
    table
}

/// Values defined by `GlobalAddr`, mapped to their global-table index.
pub fn global_addr_defs(module: &Module, f: &Function) -> ValueTable<u32> {
    let mut table = vec![None; f.values.len()];
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::GlobalAddr { dst, name } = inst {
                if let Some(i) = module.globals.iter().position(|g| &g.name == name) {
                    table[dst.0 as usize] = Some(i as u32);
                }
            }
        }
    }
    table
}

/// The instruction sequence that materialises the value of `v` into `dst`
/// (shared between the selector's value loads and the check-hoisting machine
/// pass, which must re-materialise loop-invariant bases in preheaders).
pub fn materialize_value(
    frame: &FrameLayout,
    opts: &CodegenOptions,
    layout: &MemoryLayout,
    v: ValueId,
    dst: Reg,
) -> Vec<MInst> {
    let offset = layout.private_stack_offset();
    if let Some(area) = frame.alloca(v) {
        // The value of an alloca is its address.
        let extra = if area.taint == Taint::Private && opts.split_stacks {
            offset
        } else {
            0
        };
        return vec![
            MInst::MovReg { dst, src: Reg::Rsp },
            MInst::Alu {
                op: AluOp::Add,
                dst,
                src: RegImm::Imm(area.offset as i64 + extra),
            },
        ];
    }
    let slot = frame.slot(v).unwrap_or(crate::frame::Slot {
        offset: 0,
        taint: Taint::Public,
    });
    let mem = stack_slot_mem(opts, layout, slot.offset, slot.taint);
    vec![MInst::Load { dst, mem, size: 8 }]
}

/// Memory operand for a stack location at `off` from rsp in the frame of the
/// given taint (the scheme-dependent half of the selector's slot addressing).
pub fn stack_slot_mem(
    opts: &CodegenOptions,
    layout: &MemoryLayout,
    off: i32,
    taint: Taint,
) -> MemOperand {
    let private = taint == Taint::Private && opts.split_stacks;
    match opts.scheme {
        Scheme::Segment => {
            let seg = if private { Seg::Gs } else { Seg::Fs };
            MemOperand::base_disp(Reg::Rsp, off).with_seg(seg)
        }
        _ => {
            let disp = if private {
                off + layout.private_stack_offset() as i32
            } else {
                off
            };
            MemOperand::base_disp(Reg::Rsp, disp)
        }
    }
}

struct FnCompiler<'a> {
    module: &'a Module,
    f: &'a Function,
    opts: &'a CodegenOptions,
    layout: MemoryLayout,
    frame: FrameLayout,
    func_index: &'a HashMap<String, usize>,
    insts: Vec<MInst>,
    labels: Vec<usize>,
    patches: Vec<(usize, MagicPatch)>,
    /// Label of each IR block, indexed by block.
    block_labels: Vec<u32>,
    fail_label: u32,
    /// `v -> (base, const)` for values defined as `base + const` (used for the
    /// MPX displacement-folding addressing patterns).
    add_const_defs: ValueTable<(ValueId, i64)>,
    /// Values holding global addresses, for check-site provenance.
    global_defs: ValueTable<u32>,
    check_sites: Vec<CheckSite>,
    mblocks: Vec<MBlock>,
    cur_block: BlockId,
    bound_checks: usize,
    cfi_checks: usize,
}

impl<'a> FnCompiler<'a> {
    fn emit(&mut self, inst: MInst) {
        self.insts.push(inst);
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(usize::MAX);
        (self.labels.len() - 1) as u32
    }

    fn bind_label(&mut self, label: u32) {
        self.labels[label as usize] = self.insts.len();
    }

    fn emit_patched(&mut self, inst: MInst, patch: MagicPatch) {
        self.patches.push((self.insts.len(), patch));
        self.insts.push(inst);
    }

    // ----- slot addressing --------------------------------------------------

    /// Memory operand for a stack location at `off` from rsp in the frame of
    /// the given taint.
    fn stack_mem(&self, off: i32, taint: Taint) -> MemOperand {
        stack_slot_mem(self.opts, &self.layout, off, taint)
    }

    /// Emit a (naively checked) stack access.  Under the MPX scheme every
    /// stack access gets a check pair here; the `mpx-skip-stack-checks`
    /// machine pass removes them when `_chkstk` enforcement justifies it.
    fn emit_stack_access(
        &mut self,
        mem: MemOperand,
        taint: Taint,
        store_from: Option<Reg>,
        load_to: Option<Reg>,
    ) {
        if self.opts.scheme == Scheme::Mpx {
            let bnd = if taint == Taint::Private && self.opts.split_stacks {
                BndReg::Bnd1
            } else {
                BndReg::Bnd0
            };
            self.check_sites.push(CheckSite {
                lower: self.insts.len(),
                upper: self.insts.len() + 1,
                kind: CheckKind::Stack,
                block: self.cur_block,
                base_val: None,
                global: None,
                disp: 0,
                taint,
            });
            self.emit(MInst::BndCheck {
                bnd,
                mem,
                upper: false,
            });
            self.emit(MInst::BndCheck {
                bnd,
                mem,
                upper: true,
            });
            self.bound_checks += 2;
        }
        if let Some(src) = store_from {
            self.emit(MInst::Store { mem, src, size: 8 });
        } else if let Some(dst) = load_to {
            self.emit(MInst::Load { dst, mem, size: 8 });
        }
    }

    /// Load the value of `v` into `dst`.
    fn load_value(&mut self, dst: Reg, v: ValueId) {
        if self.frame.alloca(v).is_some() {
            let seq = materialize_value(&self.frame, self.opts, &self.layout, v, dst);
            for inst in seq {
                self.emit(inst);
            }
            return;
        }
        let slot = self.frame.slot(v).unwrap_or(crate::frame::Slot {
            offset: 0,
            taint: Taint::Public,
        });
        let mem = self.stack_mem(slot.offset, slot.taint);
        self.emit_stack_access(mem, slot.taint, None, Some(dst));
    }

    /// Store `src` into the home slot of `v`.
    fn store_value(&mut self, src: Reg, v: ValueId) {
        if self.frame.alloca(v).is_some() {
            // Allocas are never re-assigned; nothing to do.
            return;
        }
        let slot = self.frame.slot(v).unwrap_or(crate::frame::Slot {
            offset: 0,
            taint: Taint::Public,
        });
        let mem = self.stack_mem(slot.offset, slot.taint);
        self.emit_stack_access(mem, slot.taint, Some(src), None);
    }

    /// Load an operand (constant or value) into `dst`.
    fn load_operand(&mut self, dst: Reg, op: Operand) {
        match op {
            Operand::Const(c) => self.emit(MInst::MovImm { dst, imm: c }),
            Operand::Value(v) => self.load_value(dst, v),
        }
    }

    // ----- user-level memory accesses ----------------------------------------

    /// Resolve the address operand of a user-level load/store into a base
    /// register plus displacement.  Under the MPX scheme `base + const`
    /// definitions are always folded into the addressing mode (the
    /// displacement stays small enough for the guard areas); whether the
    /// *check* covers the base alone or the full operand is decided later by
    /// the `mpx-fold-displacements` machine pass.
    fn resolve_address(&mut self, addr: Operand, base_reg: Reg) -> (Operand, i32) {
        let guard = MemoryLayout::MPX_GUARD_SIZE as i64 - 1;
        if self.opts.scheme == Scheme::Mpx {
            if let Operand::Value(v) = addr {
                if let Some((base, c)) = lookup(&self.add_const_defs, v) {
                    if c.abs() < guard {
                        self.load_value(base_reg, base);
                        return (Operand::Value(base), c as i32);
                    }
                }
            }
        }
        self.load_operand(base_reg, addr);
        (addr, 0)
    }

    /// Build the memory operand (and emit the scheme's checks) for a
    /// user-level access of the given region taint.  MPX checks are emitted
    /// unconditionally on the full operand and recorded as a [`CheckSite`];
    /// elimination is the machine passes' job.
    fn user_mem(
        &mut self,
        base_reg: Reg,
        disp: i32,
        region: Taint,
        addr_key: Operand,
    ) -> MemOperand {
        match self.opts.scheme {
            Scheme::None => MemOperand::base_disp(base_reg, disp),
            Scheme::Segment => {
                let seg = if region == Taint::Private {
                    Seg::Gs
                } else {
                    Seg::Fs
                };
                MemOperand::base_disp(base_reg, disp).with_seg(seg)
            }
            Scheme::Mpx => {
                let bnd = if region == Taint::Private {
                    BndReg::Bnd1
                } else {
                    BndReg::Bnd0
                };
                let base_val = addr_key.as_value();
                let global = base_val.and_then(|v| lookup(&self.global_defs, v));
                self.check_sites.push(CheckSite {
                    lower: self.insts.len(),
                    upper: self.insts.len() + 1,
                    kind: CheckKind::User,
                    block: self.cur_block,
                    base_val,
                    global,
                    disp,
                    taint: region,
                });
                let check_mem = MemOperand::base_disp(base_reg, disp);
                self.emit(MInst::BndCheck {
                    bnd,
                    mem: check_mem,
                    upper: false,
                });
                self.emit(MInst::BndCheck {
                    bnd,
                    mem: check_mem,
                    upper: true,
                });
                self.bound_checks += 2;
                MemOperand::base_disp(base_reg, disp)
            }
        }
    }

    // ----- calls -------------------------------------------------------------

    fn emit_call_arguments(&mut self, args: &[Operand]) {
        for (i, arg) in args.iter().enumerate() {
            if i < 4 {
                self.load_operand(ARG_REGS[i], *arg);
            } else {
                self.load_operand(SCRATCH0, *arg);
                let taint = self.f.operand_taint(*arg);
                let off = FrameLayout::outgoing_stack_arg_offset(i);
                let mem = self.stack_mem(off, taint);
                self.emit_stack_access(mem, taint, Some(SCRATCH0), None);
            }
        }
    }

    fn emit_ret_site_magic(&mut self, ret: Taint) {
        if self.opts.cfi {
            self.emit_patched(MInst::MagicWord { value: 0 }, MagicPatch::RetMagic { ret });
        }
    }

    // ----- main driver -------------------------------------------------------

    fn compile(mut self) -> Result<CompiledFunction, CodegenError> {
        // Pre-compute the addressing-pattern and global-address maps shared
        // with the machine passes.
        self.add_const_defs = add_const_defs(self.f);
        self.global_defs = global_addr_defs(self.module, self.f);

        let arg_taints = confllvm_machine::pad_arg_taints(&self.f.param_taints);
        let ret_taint = self.f.ret_taint;

        // Procedure-entry magic word.
        if self.opts.cfi {
            self.emit_patched(
                MInst::MagicWord { value: 0 },
                MagicPatch::CallMagic {
                    args: arg_taints,
                    ret: ret_taint,
                },
            );
        }

        // Prologue.
        if self.frame.frame_size > 0 {
            self.emit(MInst::Alu {
                op: AluOp::Sub,
                dst: Reg::Rsp,
                src: RegImm::Imm(self.frame.frame_size as i64),
            });
        }
        if self.opts.separate_trusted_memory {
            self.emit(MInst::ChkStk);
        }
        // Spill incoming arguments into their slots.
        for (i, p) in self.f.params.iter().enumerate() {
            if i < 4 {
                self.store_value(ARG_REGS[i], *p);
            } else {
                let taint = self.f.param_taints[i];
                let off = self.frame.incoming_stack_arg_offset(i);
                let mem = self.stack_mem(off, taint);
                self.emit_stack_access(mem, taint, None, Some(SCRATCH0));
                self.store_value(SCRATCH0, *p);
            }
        }

        // Labels for blocks and the CFI failure stub.
        for _ in &self.f.blocks {
            let l = self.new_label();
            self.block_labels.push(l);
        }
        self.fail_label = self.new_label();

        // Entry block falls through; make sure it is first.
        let f = self.f;
        for (bi, block) in f.blocks.iter().enumerate() {
            let label = self.block_labels[block.id.0 as usize];
            // The entry block's machine span includes the prologue above.
            let start = if bi == 0 { 0 } else { self.insts.len() };
            self.bind_label(label);
            self.cur_block = block.id;
            for inst in &block.insts {
                self.compile_inst(inst)?;
            }
            let term_start = self.insts.len();
            self.mblocks.push(MBlock {
                id: block.id,
                start,
                term_start,
            });
            self.compile_terminator(&block.term)?;
        }

        // CFI failure stub.
        self.bind_label(self.fail_label);
        self.emit(MInst::Trap {
            code: trap::CFI_FAIL,
        });

        Ok(CompiledFunction {
            name: self.f.name.clone(),
            insts: self.insts,
            labels: self.labels,
            patches: self.patches,
            arg_taints,
            ret_taint,
            bound_checks: self.bound_checks,
            cfi_checks: self.cfi_checks,
            check_sites: self.check_sites,
            mblocks: self.mblocks,
            frame: self.frame,
        })
    }

    fn compile_inst(&mut self, inst: &Inst) -> Result<(), CodegenError> {
        match inst {
            Inst::Alloca { .. } => {
                // Space is reserved in the frame; nothing to execute.
            }
            Inst::Load {
                dst,
                addr,
                size,
                region,
                ..
            } => {
                let (key, disp) = self.resolve_address(*addr, SCRATCH2);
                let mem = self.user_mem(SCRATCH2, disp, *region, key);
                self.emit(MInst::Load {
                    dst: SCRATCH0,
                    mem,
                    size: size.bytes() as u8,
                });
                self.store_value(SCRATCH0, *dst);
            }
            Inst::Store {
                addr,
                value,
                size,
                region,
                ..
            } => {
                let (key, disp) = self.resolve_address(*addr, SCRATCH2);
                self.load_operand(SCRATCH0, *value);
                let mem = self.user_mem(SCRATCH2, disp, *region, key);
                self.emit(MInst::Store {
                    mem,
                    src: SCRATCH0,
                    size: size.bytes() as u8,
                });
            }
            Inst::Bin { dst, op, lhs, rhs } => {
                self.load_operand(SCRATCH0, *lhs);
                let src = match rhs {
                    Operand::Const(c) => RegImm::Imm(*c),
                    Operand::Value(_) => {
                        self.load_operand(SCRATCH1, *rhs);
                        RegImm::Reg(SCRATCH1)
                    }
                };
                self.emit(MInst::Alu {
                    op: alu_of(*op),
                    dst: SCRATCH0,
                    src,
                });
                self.store_value(SCRATCH0, *dst);
            }
            Inst::Cmp { dst, op, lhs, rhs } => {
                self.load_operand(SCRATCH0, *lhs);
                let rhs_ri = match rhs {
                    Operand::Const(c) => RegImm::Imm(*c),
                    Operand::Value(_) => {
                        self.load_operand(SCRATCH1, *rhs);
                        RegImm::Reg(SCRATCH1)
                    }
                };
                self.emit(MInst::Cmp {
                    lhs: SCRATCH0,
                    rhs: rhs_ri,
                });
                self.emit(MInst::SetCond {
                    dst: SCRATCH0,
                    cond: cond_of(*op),
                });
                self.store_value(SCRATCH0, *dst);
            }
            Inst::Copy { dst, src } => {
                self.load_operand(SCRATCH0, *src);
                self.store_value(SCRATCH0, *dst);
            }
            Inst::GlobalAddr { dst, name } => {
                let index = self
                    .module
                    .globals
                    .iter()
                    .position(|g| &g.name == name)
                    .ok_or_else(|| err(format!("unknown global `{name}`")))?;
                self.emit(MInst::MovGlobal {
                    dst: SCRATCH0,
                    index: index as u32,
                });
                self.store_value(SCRATCH0, *dst);
            }
            Inst::FuncAddr { dst, name } => {
                let index = *self
                    .func_index
                    .get(name)
                    .ok_or_else(|| err(format!("unknown function `{name}`")))?;
                self.emit(MInst::MovFunc {
                    dst: SCRATCH0,
                    index: index as u32,
                });
                self.store_value(SCRATCH0, *dst);
            }
            Inst::Call {
                dst, callee, args, ..
            } => {
                let callee_idx = *self
                    .func_index
                    .get(callee)
                    .ok_or_else(|| err(format!("call to unknown function `{callee}`")))?;
                let callee_fn = self
                    .module
                    .function(callee)
                    .ok_or_else(|| err(format!("call to unknown function `{callee}`")))?;
                self.emit_call_arguments(args);
                self.emit(MInst::CallDirect {
                    target: callee_idx as u32,
                });
                self.emit_ret_site_magic(callee_fn.ret_taint);
                if let Some(d) = dst {
                    self.store_value(RET_REG, *d);
                }
            }
            Inst::CallExtern {
                dst, callee, args, ..
            } => {
                let index = self
                    .module
                    .extern_index(callee)
                    .ok_or_else(|| err(format!("call to unknown extern `{callee}`")))?;
                let ret = self
                    .module
                    .extern_func(callee)
                    .map(|e| e.ret_taint)
                    .unwrap_or(Taint::Public);
                self.emit_call_arguments(args);
                self.emit(MInst::CallExternal {
                    index: index as u16,
                });
                self.emit_ret_site_magic(ret);
                if let Some(d) = dst {
                    self.store_value(RET_REG, *d);
                }
            }
            Inst::CallIndirect {
                dst,
                target,
                args,
                param_taints,
                ret_taint,
                ..
            } => {
                self.load_operand(SCRATCH2, *target);
                if self.opts.cfi {
                    // Check that the target starts with a call magic word whose
                    // taint bits match the static signature of the pointer.
                    self.emit(MInst::LoadCode {
                        dst: SCRATCH0,
                        addr: SCRATCH2,
                    });
                    self.emit_patched(
                        MInst::MovImm {
                            dst: SCRATCH1,
                            imm: 0,
                        },
                        MagicPatch::NotCallMagic {
                            args: confllvm_machine::pad_arg_taints(param_taints),
                            ret: *ret_taint,
                        },
                    );
                    self.emit(MInst::Alu {
                        op: AluOp::Xor,
                        dst: SCRATCH1,
                        src: RegImm::Imm(-1),
                    });
                    self.emit(MInst::Cmp {
                        lhs: SCRATCH0,
                        rhs: RegImm::Reg(SCRATCH1),
                    });
                    self.emit(MInst::Jcc {
                        cond: Cond::Ne,
                        target: self.fail_label,
                    });
                    // Skip the magic word itself.
                    self.emit(MInst::Alu {
                        op: AluOp::Add,
                        dst: SCRATCH2,
                        src: RegImm::Imm(1),
                    });
                    self.cfi_checks += 1;
                }
                self.emit_call_arguments(args);
                self.emit(MInst::CallReg { reg: SCRATCH2 });
                self.emit_ret_site_magic(*ret_taint);
                if let Some(d) = dst {
                    self.store_value(RET_REG, *d);
                }
            }
        }
        Ok(())
    }

    fn compile_terminator(&mut self, term: &Terminator) -> Result<(), CodegenError> {
        match term {
            Terminator::Br(b) => {
                let l = self.block_labels[b.0 as usize];
                self.emit(MInst::Jmp { target: l });
            }
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
                ..
            } => {
                self.load_operand(SCRATCH0, *cond);
                self.emit(MInst::Cmp {
                    lhs: SCRATCH0,
                    rhs: RegImm::Imm(0),
                });
                let lt = self.block_labels[then_bb.0 as usize];
                let le = self.block_labels[else_bb.0 as usize];
                self.emit(MInst::Jcc {
                    cond: Cond::Ne,
                    target: lt,
                });
                self.emit(MInst::Jmp { target: le });
            }
            Terminator::Ret { value, .. } => {
                if let Some(v) = value {
                    self.load_operand(RET_REG, *v);
                } else if !self.f.has_ret_value {
                    // Scrub the return register: a void function must not
                    // leak a stale private value to its (public-expecting)
                    // caller — the register-clearing discipline of Section 4
                    // applied to returns, and what lets ConfVerify classify
                    // the return site.
                    self.emit(MInst::MovImm {
                        dst: RET_REG,
                        imm: 0,
                    });
                }
                if self.frame.frame_size > 0 {
                    self.emit(MInst::Alu {
                        op: AluOp::Add,
                        dst: Reg::Rsp,
                        src: RegImm::Imm(self.frame.frame_size as i64),
                    });
                }
                if self.opts.cfi {
                    // The taint-aware return expansion of Section 4.
                    self.emit(MInst::Pop { dst: SCRATCH0 });
                    self.emit(MInst::LoadCode {
                        dst: SCRATCH1,
                        addr: SCRATCH0,
                    });
                    self.emit_patched(
                        MInst::MovImm {
                            dst: SCRATCH2,
                            imm: 0,
                        },
                        MagicPatch::NotRetMagic {
                            ret: self.f.ret_taint,
                        },
                    );
                    self.emit(MInst::Alu {
                        op: AluOp::Xor,
                        dst: SCRATCH2,
                        src: RegImm::Imm(-1),
                    });
                    self.emit(MInst::Cmp {
                        lhs: SCRATCH1,
                        rhs: RegImm::Reg(SCRATCH2),
                    });
                    self.emit(MInst::Jcc {
                        cond: Cond::Ne,
                        target: self.fail_label,
                    });
                    self.emit(MInst::Alu {
                        op: AluOp::Add,
                        dst: SCRATCH0,
                        src: RegImm::Imm(1),
                    });
                    self.emit(MInst::JmpReg { reg: SCRATCH0 });
                    self.cfi_checks += 1;
                } else {
                    self.emit(MInst::Ret);
                }
            }
        }
        Ok(())
    }
}

fn alu_of(op: BinOp) -> AluOp {
    match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::Mul => AluOp::Mul,
        BinOp::Div => AluOp::Div,
        BinOp::Rem => AluOp::Rem,
        BinOp::Shl => AluOp::Shl,
        BinOp::Shr => AluOp::Shr,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
    }
}

fn cond_of(op: CmpOp) -> Cond {
    match op {
        CmpOp::Eq => Cond::Eq,
        CmpOp::Ne => Cond::Ne,
        CmpOp::Lt => Cond::Lt,
        CmpOp::Le => Cond::Le,
        CmpOp::Gt => Cond::Gt,
        CmpOp::Ge => Cond::Ge,
    }
}

#[allow(unused_imports)]
use MemSize as _MemSizeUsed;
