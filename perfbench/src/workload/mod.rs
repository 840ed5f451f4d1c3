//! The four workloads.  Each sets itself up, runs its seeded op sequence,
//! checks its outputs and, when traced, reports its layers.

pub mod build;
pub mod scale;
pub mod serve;
pub mod spec;
