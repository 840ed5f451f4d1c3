//! IR instructions.
//!
//! The IR is a conventional register-based, basic-block IR in the style of
//! (a much simplified) LLVM IR: an unbounded supply of virtual values, memory
//! accessed only through explicit `Load`/`Store`, and calls that distinguish
//! direct calls inside U, calls to the trusted library T (`CallExtern`) and
//! indirect calls through function pointers.
//!
//! Every `Load`/`Store` carries a `region` taint — the statically determined
//! taint of the memory it touches.  It is filled in by the qualifier
//! inference (`crate::taint`) and later consumed by the instrumentation
//! passes in `confllvm-codegen`.

use confllvm_minic::{Span, Taint};

/// A virtual value (SSA-ish register).  Values are local to a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl std::fmt::Display for ValueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl std::fmt::Display for BlockId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Instruction operands: either a virtual value or an integer constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    Value(ValueId),
    Const(i64),
}

impl Operand {
    pub fn as_value(&self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }

    pub fn as_const(&self) -> Option<i64> {
        match self {
            Operand::Const(c) => Some(*c),
            Operand::Value(_) => None,
        }
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Value(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Self {
        Operand::Value(v)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Self {
        Operand::Const(c)
    }
}

/// Width of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSize {
    /// Single byte (`char`).
    B1,
    /// Full 64-bit word (`int`, pointers).
    B8,
}

impl MemSize {
    pub fn bytes(self) -> u64 {
        match self {
            MemSize::B1 => 1,
            MemSize::B8 => 8,
        }
    }

    pub fn from_bytes(n: u64) -> MemSize {
        if n == 1 {
            MemSize::B1
        } else {
            MemSize::B8
        }
    }
}

/// Arithmetic / bitwise binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
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

impl BinOp {
    /// Constant-fold the operation; division by zero folds to 0 (the VM traps
    /// at runtime instead).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
        }
    }
}

/// Comparison predicates (signed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        i64::from(r)
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Allocate `size` bytes of stack space; `dst` is a pointer to the slot.
    /// The taint of the slot's *contents* is an inference variable — this is
    /// where "ConfLLVM automatically infers that passwd is a private buffer"
    /// happens (Section 2).
    Alloca {
        dst: ValueId,
        size: u64,
        name: String,
    },
    /// `dst = *(addr)` with the given access width.  `region` is the taint of
    /// the accessed memory, filled in by inference.
    Load {
        dst: ValueId,
        addr: Operand,
        size: MemSize,
        region: Taint,
        span: Span,
    },
    /// `*(addr) = value`.
    Store {
        addr: Operand,
        value: Operand,
        size: MemSize,
        region: Taint,
        span: Span,
    },
    /// `dst = lhs op rhs`.
    Bin {
        dst: ValueId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = (lhs op rhs) ? 1 : 0`.
    Cmp {
        dst: ValueId,
        op: CmpOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst = src`.
    Copy { dst: ValueId, src: Operand },
    /// `dst = &global`.
    GlobalAddr { dst: ValueId, name: String },
    /// `dst = &function` (for building function pointers).
    FuncAddr { dst: ValueId, name: String },
    /// Direct call to a function defined in U.
    Call {
        dst: Option<ValueId>,
        callee: String,
        args: Vec<Operand>,
        span: Span,
    },
    /// Call to a trusted-library (T) function through the externals table.
    CallExtern {
        dst: Option<ValueId>,
        callee: String,
        args: Vec<Operand>,
        span: Span,
    },
    /// Indirect call through a function-pointer value.  `param_taints` and
    /// `ret_taint` record the static signature of the pointer so both the
    /// inference and the CFI instrumentation know what to expect at the
    /// target.
    CallIndirect {
        dst: Option<ValueId>,
        target: Operand,
        args: Vec<Operand>,
        param_taints: Vec<Taint>,
        ret_taint: Taint,
        span: Span,
    },
}

impl Inst {
    /// The value defined by this instruction, if any.
    pub fn def(&self) -> Option<ValueId> {
        match self {
            Inst::Alloca { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::GlobalAddr { dst, .. }
            | Inst::FuncAddr { dst, .. } => Some(*dst),
            Inst::Call { dst, .. }
            | Inst::CallExtern { dst, .. }
            | Inst::CallIndirect { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// All operands read by this instruction.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Inst::Alloca { .. } | Inst::GlobalAddr { .. } | Inst::FuncAddr { .. } => vec![],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { addr, value, .. } => vec![*addr, *value],
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Copy { src, .. } => vec![*src],
            Inst::Call { args, .. } | Inst::CallExtern { args, .. } => args.clone(),
            Inst::CallIndirect { target, args, .. } => {
                let mut v = vec![*target];
                v.extend(args.iter().copied());
                v
            }
        }
    }

    /// True if removing the instruction (when its result is unused) changes
    /// program behaviour.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            Inst::Store { .. }
                | Inst::Call { .. }
                | Inst::CallExtern { .. }
                | Inst::CallIndirect { .. }
        )
    }

    /// True for any of the three call forms.
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            Inst::Call { .. } | Inst::CallExtern { .. } | Inst::CallIndirect { .. }
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone)]
pub enum Terminator {
    /// Unconditional branch.
    Br(BlockId),
    /// Two-way conditional branch on `cond != 0`.
    CondBr {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
        span: Span,
    },
    /// Function return.
    Ret { value: Option<Operand>, span: Span },
}

impl Terminator {
    /// Successor blocks of this terminator, in order (a conditional branch
    /// with equal targets yields its target twice).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + Clone {
        let (first, second) = match *self {
            Terminator::Br(b) => (Some(b), None),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => (Some(then_bb), Some(else_bb)),
            Terminator::Ret { .. } => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Operands read by the terminator.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Terminator::Br(_) => vec![],
            Terminator::CondBr { cond, .. } => vec![*cond],
            Terminator::Ret { value, .. } => value.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_eval() {
        assert_eq!(BinOp::Add.eval(2, 3), 5);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Shl.eval(1, 4), 16);
        assert_eq!(BinOp::Xor.eval(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn cmp_eval() {
        assert_eq!(CmpOp::Lt.eval(1, 2), 1);
        assert_eq!(CmpOp::Ge.eval(1, 2), 0);
        assert_eq!(CmpOp::Eq.eval(5, 5), 1);
    }

    #[test]
    fn inst_defs_and_uses() {
        let i = Inst::Bin {
            dst: ValueId(3),
            op: BinOp::Add,
            lhs: Operand::Value(ValueId(1)),
            rhs: Operand::Const(4),
        };
        assert_eq!(i.def(), Some(ValueId(3)));
        assert_eq!(i.uses().len(), 2);
        assert!(!i.has_side_effects());

        let s = Inst::Store {
            addr: Operand::Value(ValueId(1)),
            value: Operand::Value(ValueId(2)),
            size: MemSize::B8,
            region: Taint::Public,
            span: Span::default(),
        };
        assert_eq!(s.def(), None);
        assert!(s.has_side_effects());
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::CondBr {
            cond: Operand::Const(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
            span: Span::default(),
        };
        assert!(t.successors().eq([BlockId(1), BlockId(2)]));
        assert!(Terminator::Br(BlockId(7)).successors().eq([BlockId(7)]));
        assert_eq!(
            Terminator::Ret {
                value: None,
                span: Span::default()
            }
            .successors()
            .count(),
            0
        );
    }

    #[test]
    fn memsize_bytes() {
        assert_eq!(MemSize::B1.bytes(), 1);
        assert_eq!(MemSize::B8.bytes(), 8);
        assert_eq!(MemSize::from_bytes(1), MemSize::B1);
        assert_eq!(MemSize::from_bytes(8), MemSize::B8);
    }
}
