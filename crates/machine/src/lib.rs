//! # confllvm-machine
//!
//! The abstract, x64-flavoured machine layer of the ConfLLVM reproduction:
//!
//! * [`reg`] — registers and the Windows-x64-style calling convention,
//! * [`operand`] — `[base + index*scale + disp]` memory operands with
//!   optional `fs`/`gs` segment prefixes and 32-bit register restriction,
//! * [`inst`] — the instruction set, including MPX bound checks, magic data
//!   words, `LoadCode` and register-indirect jumps for taint-aware CFI, and
//!   `CallExternal` for calls into the trusted library T,
//! * [`magic`] — the 59-bit magic prefixes and taint-bit encodings of
//!   Section 4,
//! * [`program`] / [`encode`] — structured programs, their 64-bit-word binary
//!   encoding, and the decoder used by both the VM loader and ConfVerify.
//!
//! This crate deliberately knows nothing about *how* instrumentation is
//! generated (that is `confllvm-codegen`) or *checked* (that is
//! `confllvm-verify`); it only defines the shared vocabulary.

pub mod encode;
pub mod inst;
pub mod layout;
pub mod magic;
pub mod operand;
pub mod program;
pub mod reg;

pub use encode::{decode_words, encode_inst, encoded_len, DecodeError, EncodedInst};
pub use inst::{trap, AluOp, BndReg, Cond, MInst, RegImm};
pub use layout::MemoryLayout;
pub use magic::{find_unique_prefixes, pad_arg_taints, MagicPrefixes};
pub use operand::{MemOperand, Seg};
pub use program::{Binary, BinaryHeader, ExternSpec, FuncSym, GlobalSpec, Program, Scheme};
pub use reg::{
    Reg, ALLOCATABLE, ARG_REGS, CALLEE_SAVED, CALLER_SAVED, RET_REG, SCRATCH0, SCRATCH1, SCRATCH2,
};

/// Re-export of the taint lattice shared with the frontend.
pub use confllvm_minic::Taint;
