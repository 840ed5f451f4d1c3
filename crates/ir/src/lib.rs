//! # confllvm-ir
//!
//! The intermediate representation of the ConfLLVM reproduction, together
//! with:
//!
//! * [`mod@lower`] — lowering from the mini-C AST to the IR,
//! * [`taint`] — the type-qualifier inference of Section 5.1 (a constraint
//!   solver over the two-point lattice replacing the paper's use of Z3),
//! * [`pm`] — the IR pass manager: a [`pm::Pass`] trait, textual pipeline
//!   descriptions (`"const-fold,copy-prop,cse,dce"`), ordering/requirement
//!   declarations and per-pass statistics,
//! * [`passes`] — the standard clean-up optimisations kept enabled by
//!   ConfLLVM, registered as pass-manager passes,
//! * [`dataflow`] — a small dataflow framework (a forward solver,
//!   must-sets, dominators, natural loops) shared with the machine-layer
//!   passes in `confllvm-codegen`.
//!
//! ```
//! use confllvm_ir::{lower, taint};
//! use confllvm_minic::{parse, Sema};
//!
//! let src = "private int key; private int get() { return key; }";
//! let prog = parse(src).unwrap();
//! let sema = Sema::analyze(&prog).unwrap();
//! let mut module = lower::lower(&prog, &sema, "demo").unwrap();
//! let report = taint::infer(&mut module, taint::InferOptions::default()).unwrap();
//! assert!(report.private_accesses > 0);
//! ```

pub mod builder;
pub mod dataflow;
pub mod inst;
pub mod lower;
pub mod module;
pub mod passes;
pub mod pm;
pub mod taint;

pub use builder::FunctionBuilder;
pub use dataflow::{natural_loops, DomTree, MustSet, NaturalLoop};
pub use inst::{BinOp, BlockId, CmpOp, Inst, MemSize, Operand, Terminator, ValueId};
pub use lower::lower;
pub use module::{Block, ExternFunc, Function, Global, Module, ValueInfo};
pub use passes::DEFAULT_IR_PIPELINE;
pub use pm::{Pass, PassManager, PipelineError, PipelineReport};
pub use taint::{infer, InferOptions, TaintError, TaintReport};
