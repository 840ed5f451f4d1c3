//! # confllvm-minic
//!
//! The mini-C frontend of the ConfLLVM reproduction.
//!
//! Mini-C is a small but deliberately *unsafe* C-like language: raw pointers,
//! pointer arithmetic, fixed-size buffers, casts, structs and indirect calls
//! are all supported, and nothing prevents buffer overflows — that is the
//! point.  The only extension over plain C is the `private` type qualifier of
//! the paper (Section 2), used to mark sensitive data in top-level
//! definitions: globals, function signatures, extern (trusted-library)
//! signatures, and struct fields.
//!
//! The crate exposes:
//! * [`lexer`] / [`parser`] — text to AST,
//! * [`ast`] — the AST,
//! * [`types`] — the type representation with the two-point taint lattice,
//! * [`sema`] — symbol resolution, struct layout and loose type checking.
//!
//! ```
//! use confllvm_minic::{parse, Sema};
//!
//! let prog = parse("private int secret; int get() { return secret; }").unwrap();
//! let sema = Sema::analyze(&prog).unwrap();
//! assert!(sema.signature("get").is_some());
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod sema;
pub mod types;

pub use ast::{Block, Expr, ExprKind, ExternDecl, FunctionDef, GlobalDef, Program, Span, Stmt};
pub use error::FrontendError;
pub use parser::parse;
pub use sema::{Sema, Signature, StructLayout, WORD_SIZE};
pub use types::{Taint, Type, TypeKind};
