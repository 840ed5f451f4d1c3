//! The machine instruction set.
//!
//! The ISA is a compact, x64-flavoured abstract machine.  It contains exactly
//! the ingredients ConfLLVM's instrumentation needs:
//!
//! * memory operands of the x64 form `[base + index*scale + disp]`, optionally
//!   prefixed with a segment register (`fs` = public base, `gs` = private
//!   base) and optionally restricted to the low 32 bits of their registers
//!   (the segmentation scheme of Section 3),
//! * MPX-style bound-check instructions `bndcu`/`bndcl` against two bounds
//!   registers (`bnd0` = public region, `bnd1` = private region),
//! * magic data words embedded in the instruction stream, plus `LoadCode` and
//!   register-indirect jumps for the taint-aware CFI expansions (Section 4),
//! * a `ChkStk` pseudo-instruction modelling the inlined `_chkstk` check,
//! * `CallExternal` for calls into the trusted library T through the
//!   externals table (Section 6).

use crate::operand::MemOperand;
use crate::reg::Reg;

/// Condition codes for `Jcc`/`SetCond` (always interpreted against the last
/// `Cmp`, signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => lhs < rhs,
            Cond::Le => lhs <= rhs,
            Cond::Gt => lhs > rhs,
            Cond::Ge => lhs >= rhs,
        }
    }

    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    pub fn index(self) -> u8 {
        Cond::ALL
            .iter()
            .position(|c| *c == self)
            .expect("member of ALL") as u8
    }

    pub fn from_index(i: u8) -> Option<Cond> {
        Cond::ALL.get(i as usize).copied()
    }
}

/// ALU operations (`dst = dst op src`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    And,
    Or,
    Xor,
}

impl AluOp {
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
    ];

    pub fn index(self) -> u8 {
        AluOp::ALL
            .iter()
            .position(|o| *o == self)
            .expect("member of ALL") as u8
    }

    pub fn from_index(i: u8) -> Option<AluOp> {
        AluOp::ALL.get(i as usize).copied()
    }

    /// Evaluate the operation (wrapping semantics; division by zero traps in
    /// the VM before this is called).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
        }
    }
}

/// Register-or-immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegImm {
    Reg(Reg),
    Imm(i64),
}

impl std::fmt::Display for RegImm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegImm::Reg(r) => write!(f, "{r}"),
            RegImm::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// MPX bounds registers.  `bnd0` holds the bounds of the public region,
/// `bnd1` those of the private region (Figure 3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BndReg {
    Bnd0,
    Bnd1,
}

/// Trap codes for the `Trap` instruction.
pub mod trap {
    /// CFI check failure (the paper's `call __debugbreak`).
    pub const CFI_FAIL: u8 = 1;
    /// Explicit program abort.
    pub const ABORT: u8 = 2;
    /// Division by zero.
    pub const DIV_ZERO: u8 = 3;
    /// Clean program exit (used by the loader's exit thunk; the exit code is
    /// taken from the return register).
    pub const EXIT: u8 = 4;
}

/// A machine instruction.
///
/// Control-flow targets (`Jmp`, `Jcc`, `CallDirect`) are *code word indices*.
/// During code generation they temporarily hold label ids; the assembler in
/// `confllvm-codegen` rewrites them to word offsets before the program is
/// encoded (the encoded form always holds word offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MInst {
    /// `dst = imm`.
    MovImm { dst: Reg, imm: i64 },
    /// `dst = src`.
    MovReg { dst: Reg, src: Reg },
    /// `dst = dst op src`.
    Alu { op: AluOp, dst: Reg, src: RegImm },
    /// Compare and remember the operands for the next `Jcc`/`SetCond`.
    Cmp { lhs: Reg, rhs: RegImm },
    /// `dst = last-cmp satisfies cond ? 1 : 0`.
    SetCond { dst: Reg, cond: Cond },
    /// Conditional jump to a code word index.
    Jcc { cond: Cond, target: u32 },
    /// Unconditional jump to a code word index.
    Jmp { target: u32 },
    /// Register-indirect jump; only emitted by the CFI expansions (ConfVerify
    /// rejects any other use, Section 5.2).
    JmpReg { reg: Reg },
    /// `dst = load(size) [mem]`.
    Load { dst: Reg, mem: MemOperand, size: u8 },
    /// `store(size) [mem] = src`.
    Store { mem: MemOperand, src: Reg, size: u8 },
    /// `dst = effective address of mem`.
    Lea { dst: Reg, mem: MemOperand },
    /// Push `src` on the public stack (rsp -= 8).
    Push { src: Reg },
    /// Pop from the public stack into `dst`.
    Pop { dst: Reg },
    /// Direct call: push the return address (word index of the following
    /// instruction) and jump.
    CallDirect { target: u32 },
    /// Indirect call through a register holding a code word index (x64
    /// `call reg`); pushes the return address like `CallDirect`.  Under CFI
    /// it is always preceded by a magic-word check of the target.
    CallReg { reg: Reg },
    /// Call to trusted-library function number `index` through the externals
    /// table (the stub + wrapper mechanism of Section 6).
    CallExternal { index: u16 },
    /// Plain return (only in uninstrumented configurations; the CFI scheme
    /// replaces it with an explicit pop/check/jump expansion).
    Ret,
    /// MPX bound check of the effective address of `mem` against `bnd`
    /// (`upper` selects `bndcu` vs `bndcl`).
    BndCheck {
        bnd: BndReg,
        mem: MemOperand,
        upper: bool,
    },
    /// Read the code word at the word index held in `addr` (used by CFI
    /// checks to inspect magic words at jump targets).
    LoadCode { dst: Reg, addr: Reg },
    /// A 64-bit data word embedded in the instruction stream (magic
    /// sequences).  Executing it is a fault.
    MagicWord { value: u64 },
    /// Inline `_chkstk`: fault unless rsp lies within the current thread's
    /// stack bounds (Section 3, multi-threading support).
    ChkStk,
    /// `dst = absolute address of global #index` (patched by the loader).
    MovGlobal { dst: Reg, index: u32 },
    /// `dst = code word index of function #index` (for function pointers).
    MovFunc { dst: Reg, index: u32 },
    /// Abort execution with a trap code.
    Trap { code: u8 },
    /// No operation.
    Nop,
}

impl MInst {
    /// True for instructions that transfer control somewhere other than the
    /// next instruction.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            MInst::Jcc { .. }
                | MInst::Jmp { .. }
                | MInst::JmpReg { .. }
                | MInst::CallDirect { .. }
                | MInst::CallReg { .. }
                | MInst::CallExternal { .. }
                | MInst::Ret
                | MInst::Trap { .. }
        )
    }
}

impl std::fmt::Display for MInst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MInst::MovImm { dst, imm } => write!(f, "mov {dst}, {imm}"),
            MInst::MovReg { dst, src } => write!(f, "mov {dst}, {src}"),
            MInst::Alu { op, dst, src } => write!(f, "{op:?} {dst}, {src}"),
            MInst::Cmp { lhs, rhs } => write!(f, "cmp {lhs}, {rhs}"),
            MInst::SetCond { dst, cond } => write!(f, "set{cond:?} {dst}"),
            MInst::Jcc { cond, target } => write!(f, "j{cond:?} @{target}"),
            MInst::Jmp { target } => write!(f, "jmp @{target}"),
            MInst::JmpReg { reg } => write!(f, "jmp {reg}"),
            MInst::Load { dst, mem, size } => write!(f, "load{size} {dst}, {mem}"),
            MInst::Store { mem, src, size } => write!(f, "store{size} {mem}, {src}"),
            MInst::Lea { dst, mem } => write!(f, "lea {dst}, {mem}"),
            MInst::Push { src } => write!(f, "push {src}"),
            MInst::Pop { dst } => write!(f, "pop {dst}"),
            MInst::CallDirect { target } => write!(f, "call @{target}"),
            MInst::CallReg { reg } => write!(f, "call {reg}"),
            MInst::CallExternal { index } => write!(f, "call.ext #{index}"),
            MInst::Ret => write!(f, "ret"),
            MInst::BndCheck { bnd, mem, upper } => write!(
                f,
                "{} {mem}, {bnd:?}",
                if *upper { "bndcu" } else { "bndcl" }
            ),
            MInst::LoadCode { dst, addr } => write!(f, "loadcode {dst}, [{addr}]"),
            MInst::MagicWord { value } => write!(f, ".quad {value:#018x}"),
            MInst::ChkStk => write!(f, "chkstk"),
            MInst::MovGlobal { dst, index } => write!(f, "mov {dst}, global#{index}"),
            MInst::MovFunc { dst, index } => write!(f, "mov {dst}, func#{index}"),
            MInst::Trap { code } => write!(f, "trap #{code}"),
            MInst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::MemOperand;

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(3, 3));
        assert!(Cond::Lt.eval(-1, 0));
        assert!(!Cond::Gt.eval(-1, 0));
        for c in Cond::ALL {
            assert_eq!(Cond::from_index(c.index()), Some(c));
        }
    }

    #[test]
    fn aluop_roundtrip_and_eval() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::from_index(op.index()), Some(op));
        }
        assert_eq!(AluOp::Add.eval(40, 2), 42);
        assert_eq!(AluOp::Div.eval(10, 0), 0);
    }

    #[test]
    fn control_flow_classification() {
        assert!(MInst::Ret.is_control_flow());
        assert!(MInst::Jmp { target: 3 }.is_control_flow());
        assert!(!MInst::Nop.is_control_flow());
        assert!(!MInst::MovImm {
            dst: Reg::Rax,
            imm: 1
        }
        .is_control_flow());
    }

    #[test]
    fn display_forms() {
        let s = MInst::BndCheck {
            bnd: BndReg::Bnd1,
            mem: MemOperand::base(Reg::Rcx),
            upper: true,
        }
        .to_string();
        assert!(s.starts_with("bndcu"));
        assert!(MInst::MagicWord { value: 0xabcd }
            .to_string()
            .contains("0x"));
    }
}
