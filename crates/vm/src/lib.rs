//! # confllvm-vm
//!
//! The machine simulator of the ConfLLVM reproduction.  It stands in for the
//! x64 hardware + OS of the paper's evaluation:
//!
//! * [`memory`] — a sparse 64-bit address space where only the usable parts
//!   of the public / private / trusted regions are mapped; the guard areas of
//!   Figure 3 fault on access,
//! * [`loader`] — the load-time steps of Section 6 (relocate globals, set up
//!   heaps and stacks, set the bounds/segment registers),
//! * [`cpu`] — the interpreter, enforcing MPX bound registers, segment bases,
//!   `_chkstk`, and magic-word semantics, with cycle accounting,
//! * [`translate`] — the basic-block translation behind the fast
//!   [`cpu::VmOptions::engine`] (`Engine::Block`) dispatch loop, shared by
//!   all forks of an image,
//! * [`cache`] / [`cost`] — the cost model (simulated cycles, small L1 data
//!   cache),
//! * [`alloc`] — the two heap allocators (system bump vs the ConfLLVM
//!   custom allocator of the `BaseOA` configuration),
//! * [`trusted`] — the trusted library T: I/O, crypto, declassifiers and the
//!   wrapper range checks of Section 6,
//! * [`world`] — the external world (network, files, passwords, logs) whose
//!   public channels are what an attacker observes.

pub mod alloc;
pub mod cache;
pub mod cost;
pub mod cpu;
pub mod loader;
pub mod memory;
pub mod translate;
pub mod trusted;
pub mod world;

pub use alloc::{AllocatorKind, Heap};
pub use cache::DataCache;
pub use cost::CostModel;
pub use cpu::{ExecStats, Fault, Outcome, RestoreStats, RunResult, Vm, VmOptions, VmSnapshot};
pub use loader::{load, Image, LoadError, Loaded};
pub use memory::{MemFault, MemSnapshot, Memory};
pub use translate::Engine;
pub use trusted::{TrustedCtx, TrustedError};
pub use world::World;
