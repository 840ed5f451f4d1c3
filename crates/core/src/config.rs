//! The evaluation configurations of the paper (Sections 7.1 and 7.2), mapped
//! onto code-generation and VM options.

use confllvm_codegen::{CodegenOptions, PIPELINE_MPX_FULL};
use confllvm_ir::DEFAULT_IR_PIPELINE;
use confllvm_machine::Scheme;
use confllvm_vm::AllocatorKind;

/// One of the build/run configurations used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Config {
    /// Vanilla compiler, default allocator (the baseline).
    Base,
    /// Vanilla compiler but with ConfLLVM's custom allocator.
    BaseOA,
    /// ConfLLVM codegen, no instrumentation, U and T share memory.
    Our1Mem,
    /// ConfLLVM codegen, no runtime checks, but T/U memories separated
    /// (stack switching on every T call) and unsupported optimisations
    /// disabled.
    OurBare,
    /// OurBare + taint-aware CFI.
    OurCFI,
    /// Full instrumentation with MPX bounds checks but a single stack.
    OurMpxSep,
    /// Full ConfLLVM, MPX bounds checks.
    OurMpx,
    /// Full ConfLLVM, segment-register scheme.
    OurSeg,
}

impl Config {
    /// All configurations, in the order the paper's figures use.
    pub const ALL: [Config; 8] = [
        Config::Base,
        Config::BaseOA,
        Config::Our1Mem,
        Config::OurBare,
        Config::OurCFI,
        Config::OurMpxSep,
        Config::OurMpx,
        Config::OurSeg,
    ];

    /// The configurations shown in Figure 5 (SPEC).
    pub const FIG5: [Config; 6] = [
        Config::Base,
        Config::BaseOA,
        Config::OurBare,
        Config::OurCFI,
        Config::OurMpx,
        Config::OurSeg,
    ];

    /// The configurations shown in Figure 6 (NGINX).
    pub const FIG6: [Config; 6] = [
        Config::Base,
        Config::Our1Mem,
        Config::OurBare,
        Config::OurCFI,
        Config::OurMpxSep,
        Config::OurMpx,
    ];

    /// The configurations shown in Figure 7 (Privado / SGX).
    pub const FIG7: [Config; 5] = [
        Config::Base,
        Config::BaseOA,
        Config::OurBare,
        Config::OurCFI,
        Config::OurMpx,
    ];

    /// The configurations shown in Figure 8 (Merkle FS).
    pub const FIG8: [Config; 3] = [Config::Base, Config::OurSeg, Config::OurMpx];

    pub fn name(self) -> &'static str {
        match self {
            Config::Base => "Base",
            Config::BaseOA => "BaseOA",
            Config::Our1Mem => "Our1Mem",
            Config::OurBare => "OurBare",
            Config::OurCFI => "OurCFI",
            Config::OurMpxSep => "OurMPX-Sep",
            Config::OurMpx => "OurMPX",
            Config::OurSeg => "OurSeg",
        }
    }

    /// Is this one of the instrumented (ConfLLVM-compiled) configurations?
    pub fn is_instrumented(self) -> bool {
        !matches!(self, Config::Base | Config::BaseOA)
    }

    /// The IR optimisation pipeline run for this configuration (the paper
    /// keeps the standard taint-safe clean-up passes enabled everywhere).
    pub fn ir_pipeline(self) -> &'static str {
        DEFAULT_IR_PIPELINE
    }

    /// The machine-level pass pipeline for this configuration.  Only the MPX
    /// configurations carry bounds checks to optimise; see
    /// `confllvm_codegen::mpass` for the pass catalogue.
    pub fn machine_pipeline(self) -> &'static str {
        match self {
            Config::OurMpx | Config::OurMpxSep => PIPELINE_MPX_FULL,
            _ => "",
        }
    }

    /// Code-generation options for this configuration.
    pub fn codegen_options(self) -> CodegenOptions {
        let named = |mut o: CodegenOptions| {
            o.passes = self.machine_pipeline().to_string();
            o
        };
        match self {
            Config::Base | Config::BaseOA => CodegenOptions::baseline(),
            Config::Our1Mem => named(CodegenOptions {
                scheme: Scheme::None,
                cfi: false,
                split_stacks: false,
                separate_trusted_memory: false,
                passes: String::new(),
            }),
            Config::OurBare => named(CodegenOptions {
                scheme: Scheme::None,
                cfi: false,
                split_stacks: false,
                separate_trusted_memory: true,
                passes: String::new(),
            }),
            Config::OurCFI => named(CodegenOptions {
                scheme: Scheme::None,
                cfi: true,
                split_stacks: false,
                separate_trusted_memory: true,
                passes: String::new(),
            }),
            Config::OurMpxSep => named(CodegenOptions {
                split_stacks: false,
                ..CodegenOptions::mpx()
            }),
            Config::OurMpx => named(CodegenOptions::mpx()),
            Config::OurSeg => named(CodegenOptions::segment()),
        }
    }

    /// Which heap allocator the runtime uses under this configuration.
    pub fn allocator(self) -> AllocatorKind {
        match self {
            Config::Base => AllocatorKind::SystemBump,
            // Every other configuration (including BaseOA by definition) uses
            // the custom split-region allocator.
            _ => AllocatorKind::ConfBins,
        }
    }

    /// Whether the full confidentiality guarantee holds under this
    /// configuration (only the complete schemes enforce it).
    pub fn enforces_confidentiality(self) -> bool {
        matches!(self, Config::OurMpx | Config::OurSeg)
    }
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_table_matches_paper_semantics() {
        assert_eq!(Config::Base.codegen_options().scheme, Scheme::None);
        assert!(!Config::Base.codegen_options().cfi);
        assert_eq!(Config::Base.allocator(), AllocatorKind::SystemBump);
        assert_eq!(Config::BaseOA.allocator(), AllocatorKind::ConfBins);
        assert!(Config::OurCFI.codegen_options().cfi);
        assert!(!Config::OurBare.codegen_options().cfi);
        assert!(Config::OurBare.codegen_options().separate_trusted_memory);
        assert!(!Config::Our1Mem.codegen_options().separate_trusted_memory);
        assert_eq!(Config::OurMpx.codegen_options().scheme, Scheme::Mpx);
        assert_eq!(Config::OurSeg.codegen_options().scheme, Scheme::Segment);
        assert!(!Config::OurMpxSep.codegen_options().split_stacks);
        assert!(Config::OurMpx.codegen_options().split_stacks);
        assert!(Config::OurMpx.enforces_confidentiality());
        assert!(!Config::OurCFI.enforces_confidentiality());
    }

    #[test]
    fn figure_config_lists_are_subsets_of_all() {
        for c in Config::FIG5
            .iter()
            .chain(&Config::FIG6)
            .chain(&Config::FIG7)
            .chain(&Config::FIG8)
        {
            assert!(Config::ALL.contains(c));
        }
    }
}
