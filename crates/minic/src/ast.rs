//! Abstract syntax tree for mini-C, the source language accepted by the
//! ConfLLVM reproduction.
//!
//! Mini-C is an (intentionally) unsafe C-like language: raw pointers, pointer
//! arithmetic, casts, fixed-size arrays, structs, globals, and indirect calls
//! through function pointers are all supported.  The single extension over
//! plain C is the `private` type qualifier of the paper (Section 2), which may
//! appear on globals, parameters, struct fields and local declarations.

use crate::types::Type;

/// A source location, used for diagnostics.  Mini-C programs are small enough
/// that a line/column pair is sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    pub fn new(line: u32, col: u32) -> Self {
        Span { line, col }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A complete translation unit.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub structs: Vec<StructDef>,
    pub globals: Vec<GlobalDef>,
    pub externs: Vec<ExternDecl>,
    pub functions: Vec<FunctionDef>,
}

/// A struct definition: `struct name { fields };`
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub struct FieldDef {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// A global variable definition, optionally initialised with a constant
/// expression (integer literals and string literals only).
#[derive(Debug, Clone)]
pub struct GlobalDef {
    pub name: String,
    pub ty: Type,
    pub init: Option<Expr>,
    pub span: Span,
}

/// A declaration of a trusted (T) function: `extern int send(int fd, char *buf, int n);`
///
/// Extern functions are the only interface between the untrusted compartment
/// U and the trusted library T.  Their signatures, including `private`
/// qualifiers, are trusted (Section 2, "Partitioning U's memory").
#[derive(Debug, Clone)]
pub struct ExternDecl {
    pub name: String,
    pub params: Vec<ParamDecl>,
    pub ret: Type,
    pub span: Span,
}

/// A function defined inside U.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    pub name: String,
    pub params: Vec<ParamDecl>,
    pub ret: Type,
    pub body: Block,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub struct ParamDecl {
    pub name: String,
    pub ty: Type,
    pub span: Span,
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Local declaration `type name [= init];` (including local arrays).
    Decl {
        name: String,
        ty: Type,
        init: Option<Expr>,
        span: Span,
    },
    /// Expression statement (calls, assignments, ...).
    Expr(Expr),
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
        span: Span,
    },
    /// `while (cond) { .. }`
    While {
        cond: Expr,
        body: Block,
        span: Span,
    },
    /// `for (init; cond; step) { .. }` — all three clauses optional.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Block,
        span: Span,
    },
    /// `return;` or `return e;`
    Return {
        value: Option<Expr>,
        span: Span,
    },
    Break {
        span: Span,
    },
    Continue {
        span: Span,
    },
    /// Nested block.
    Block(Block),
}

impl Stmt {
    /// The source location of the statement, for diagnostics.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Break { span }
            | Stmt::Continue { span } => *span,
            Stmt::Expr(e) => e.span,
            Stmt::Block(b) => b.stmts.first().map(|s| s.span()).unwrap_or_default(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    LogicalAnd,
    LogicalOr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// True for the six comparison operators (which always produce a public
    /// 0/1 value *derived from* their operands, so taint still propagates).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
    /// Bitwise not `~e`.
    BitNot,
    /// Pointer dereference `*e`.
    Deref,
    /// Address-of `&e`.
    AddrOf,
}

/// Expressions, annotated with their source location.  The resolved type of
/// an expression is computed during semantic analysis and cached by the
/// lowering pass; the AST itself stays untyped.
#[derive(Debug, Clone)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

#[derive(Debug, Clone)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Character literal (stored as its byte value).
    CharLit(u8),
    /// String literal; lowered to a public global byte array.
    StrLit(String),
    /// Variable reference (local, parameter, global or function name).
    Ident(String),
    /// Unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// Binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Assignment `lhs = rhs` (lhs must be an lvalue).
    Assign { lhs: Box<Expr>, rhs: Box<Expr> },
    /// Direct or indirect call.  `callee` is an arbitrary expression; if it
    /// resolves to a function name the call is direct, otherwise it is an
    /// indirect call through a function pointer.
    Call { callee: Box<Expr>, args: Vec<Expr> },
    /// Array indexing `base[index]` (sugar for `*(base + index)`).
    Index { base: Box<Expr>, index: Box<Expr> },
    /// Struct member access `base.field`.
    Member { base: Box<Expr>, field: String },
    /// Struct member access through a pointer, `base->field`.
    Arrow { base: Box<Expr>, field: String },
    /// C-style cast `(type) expr`.
    Cast { ty: Type, expr: Box<Expr> },
    /// `sizeof(type)`.
    SizeOf(Type),
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// True if this expression can syntactically appear as the target of an
    /// assignment or of `&`.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self.kind,
            ExprKind::Ident(_)
                | ExprKind::Index { .. }
                | ExprKind::Member { .. }
                | ExprKind::Arrow { .. }
                | ExprKind::Unary {
                    op: UnOp::Deref,
                    ..
                }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lvalue_classification() {
        let expr = |kind| Expr::new(kind, Span::default());
        let ident = || Box::new(expr(ExprKind::Ident("p".into())));
        assert!(expr(ExprKind::Ident("x".into())).is_lvalue());
        assert!(!expr(ExprKind::IntLit(4)).is_lvalue());
        let deref = expr(ExprKind::Unary {
            op: UnOp::Deref,
            operand: ident(),
        });
        assert!(deref.is_lvalue());
        let addr = expr(ExprKind::Unary {
            op: UnOp::AddrOf,
            operand: ident(),
        });
        assert!(!addr.is_lvalue());
    }

    #[test]
    fn comparison_ops() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
