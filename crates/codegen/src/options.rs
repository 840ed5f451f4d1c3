//! Code-generation options: which scheme, which instrumentation, which
//! machine-level optimisation pipeline.
//!
//! Since the pass-manager refactor the MPX check optimisations of
//! Section 5.1 are no longer independent booleans but named machine passes
//! (see [`crate::mpass`]) listed in a textual pipeline, mirroring the IR
//! pipelines of `confllvm_ir::pm`.  The paper's evaluation configurations
//! (Base, OurBare, OurCFI, OurMPX, OurSeg, ...) in `confllvm-core` each name
//! their pipeline:
//!
//! * [`PIPELINE_MPX_FULL`] — everything, including the cross-block
//!   redundant-check elimination and loop-invariant check hoisting,
//! * [`PIPELINE_MPX_PR1`] — the three original Section 5.1 optimisations
//!   only (displacement folding, per-block check coalescing, stack-check
//!   elision), kept as the ablation baseline,
//! * the empty pipeline — fully unoptimised instrumentation.

use confllvm_machine::Scheme;

/// The full machine pipeline: the three Section 5.1 optimisations plus the
/// dataflow-driven cross-block elimination and loop-invariant hoisting.
pub const PIPELINE_MPX_FULL: &str = "mpx-skip-stack-checks,mpx-fold-displacements,\
                                     mpx-coalesce-checks,mpx-hoist-checks,mpx-cross-block-elim";

/// The pre-refactor pipeline: only the three optimisations the original
/// reproduction implemented (no cross-block elimination, no hoisting).
pub const PIPELINE_MPX_PR1: &str =
    "mpx-skip-stack-checks,mpx-fold-displacements,mpx-coalesce-checks";

/// Full code-generation configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodegenOptions {
    /// Memory-partitioning scheme used for bounds enforcement.
    pub scheme: Scheme,
    /// Emit taint-aware CFI (magic sequences + expanded returns and indirect
    /// calls).
    pub cfi: bool,
    /// Keep public and private data on separate, lock-step stacks.
    pub split_stacks: bool,
    /// Separate T's memory from U's and switch stacks on every call into T.
    /// Also emits the inlined `_chkstk` stack-bounds enforcement in every
    /// prologue, which keeps `rsp` inside U's stack area (Section 5.1).
    pub separate_trusted_memory: bool,
    /// Machine-level optimisation pipeline (comma-separated pass names, see
    /// [`crate::mpass`]).  Empty = no machine optimisations.
    pub passes: String,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            scheme: Scheme::Segment,
            cfi: true,
            split_stacks: true,
            separate_trusted_memory: true,
            passes: PIPELINE_MPX_FULL.to_string(),
        }
    }
}

impl CodegenOptions {
    /// A plain, uninstrumented build (the `Base` baseline).
    pub fn baseline() -> Self {
        CodegenOptions {
            scheme: Scheme::None,
            cfi: false,
            split_stacks: false,
            separate_trusted_memory: false,
            passes: String::new(),
        }
    }

    /// Full ConfLLVM with MPX bounds checks.
    pub fn mpx() -> Self {
        CodegenOptions {
            scheme: Scheme::Mpx,
            ..Default::default()
        }
    }

    /// Full ConfLLVM with segment-register bounds enforcement.
    pub fn segment() -> Self {
        CodegenOptions {
            scheme: Scheme::Segment,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(CodegenOptions::baseline().scheme, Scheme::None);
        assert!(!CodegenOptions::baseline().cfi);
        assert!(CodegenOptions::baseline().passes.is_empty());
        assert_eq!(CodegenOptions::mpx().scheme, Scheme::Mpx);
        assert!(CodegenOptions::mpx().cfi);
        assert_eq!(CodegenOptions::mpx().passes, PIPELINE_MPX_FULL);
        assert_eq!(CodegenOptions::segment().scheme, Scheme::Segment);
    }
}
