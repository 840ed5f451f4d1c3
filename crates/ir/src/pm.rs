//! The IR-level pass manager.
//!
//! Every IR optimisation is a [`Pass`] registered under a stable textual
//! name.  A pipeline is described as comma-separated pass names
//! (`"const-fold,copy-prop,cse,dce"`), the format the `-Zpasses=`-style
//! overrides in `confllvm_core::CompileOptions` use; [`PassManager::parse`]
//! validates the names and the ordering/requirement declarations each pass
//! makes, and [`PassManager::run`] drives the passes to a fixpoint while
//! collecting per-pass statistics.
//!
//! The machine layer has the same spine in `confllvm_codegen::mpass`; the two
//! managers share the naming and dependency conventions (and
//! [`validate_constraints`]) so a configuration in `confllvm_core::Config` is
//! fully described by two pipeline strings, and both report through
//! [`PipelineReport`].  Registering a pass means adding its name to
//! `create_pass` here (`create_machine_pass` there): that match is each
//! layer's one list of passes.

use crate::module::{Function, Module};

/// One IR transformation.
///
/// Implementations are stateless: `run_on_function` is called repeatedly
/// (over every function, over multiple fixpoint rounds) and must be monotone
/// — repeated application reaches a state where it reports `0` changes.
pub trait Pass {
    /// Stable pipeline name (kebab-case, used in pipeline strings).
    fn name(&self) -> &'static str;

    /// Passes that, *when present* in the same pipeline, must be scheduled
    /// before this one (a soft ordering constraint).
    fn run_after(&self) -> &'static [&'static str] {
        &[]
    }

    /// Passes that *must* be present in any pipeline containing this one
    /// (a hard requirement; ordering is still governed by [`Pass::run_after`]).
    fn requires(&self) -> &'static [&'static str] {
        &[]
    }

    /// Apply the pass to one function; returns the number of changes made.
    fn run_on_function(&self, f: &mut Function) -> usize;
}

/// An invalid pipeline description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    UnknownPass(String),
    /// `first` is declared to run after `second`, but appears before it.
    OrderViolation {
        first: String,
        second: String,
    },
    /// `pass` requires `missing` to be present in the pipeline.
    MissingRequirement {
        pass: String,
        missing: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownPass(n) => write!(f, "unknown pass `{n}`"),
            PipelineError::OrderViolation { first, second } => {
                write!(f, "pass `{first}` must run after `{second}`")
            }
            PipelineError::MissingRequirement { pass, missing } => {
                write!(f, "pass `{pass}` requires `{missing}` in the pipeline")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Statistics of one pass across a whole [`PassManager::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassRun {
    pub name: &'static str,
    /// Total number of changes over all functions and fixpoint rounds.
    pub changes: usize,
}

/// The outcome of running a pipeline: over a module for this manager, over
/// one compiled function (merged across a module's functions) for the
/// machine-layer manager in `confllvm-codegen`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    pub per_pass: Vec<PassRun>,
}

impl PipelineReport {
    pub fn changes_of(&self, name: &str) -> usize {
        self.per_pass
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.changes)
            .sum()
    }

    pub fn total_changes(&self) -> usize {
        self.per_pass.iter().map(|p| p.changes).sum()
    }

    /// Add `other`'s changes into this report, pass by pass.
    pub fn merge(&mut self, other: &PipelineReport) {
        for run in &other.per_pass {
            match self.per_pass.iter_mut().find(|p| p.name == run.name) {
                Some(p) => p.changes += run.changes,
                None => self.per_pass.push(run.clone()),
            }
        }
    }
}

/// An ordered, validated list of IR passes.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

/// Validate the soft-ordering and hard-requirement declarations of an
/// ordered pass list.  Shared with the machine-layer manager in
/// `confllvm-codegen`, which follows the same conventions.
pub fn validate_constraints(
    names: &[&'static str],
    after: impl Fn(usize) -> &'static [&'static str],
    requires: impl Fn(usize) -> &'static [&'static str],
) -> Result<(), PipelineError> {
    for (i, name) in names.iter().enumerate() {
        for dep in after(i) {
            if let Some(j) = names.iter().position(|n| n == dep) {
                if j > i {
                    return Err(PipelineError::OrderViolation {
                        first: name.to_string(),
                        second: dep.to_string(),
                    });
                }
            }
        }
        for req in requires(i) {
            if !names.contains(req) {
                return Err(PipelineError::MissingRequirement {
                    pass: name.to_string(),
                    missing: req.to_string(),
                });
            }
        }
    }
    Ok(())
}

impl PassManager {
    /// Parse a comma-separated pipeline description.  The empty string is the
    /// empty pipeline (used for the unoptimised configurations).
    pub fn parse(text: &str) -> Result<PassManager, PipelineError> {
        let mut passes: Vec<Box<dyn Pass>> = Vec::new();
        for name in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match crate::passes::create_pass(name) {
                Some(p) => passes.push(p),
                None => return Err(PipelineError::UnknownPass(name.to_string())),
            }
        }
        let names: Vec<&'static str> = passes.iter().map(|p| p.name()).collect();
        validate_constraints(&names, |i| passes[i].run_after(), |i| passes[i].requires())?;
        Ok(PassManager { passes })
    }

    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run the pipeline over every function until a fixpoint (bounded by a
    /// small round count; each pass is individually monotone).
    ///
    /// When the process-wide [`confllvm_obs::recorder`] is enabled, every
    /// pass application records a `compiler`-layer span named after the
    /// pass, carrying the change count and the function's instruction count
    /// (instructions touched).  The instrumentation only *reads* the
    /// function, so traced and untraced runs transform identically.
    pub fn run(&self, module: &mut Module) -> PipelineReport {
        let rec = confllvm_obs::recorder();
        let mut report = PipelineReport {
            per_pass: self
                .passes
                .iter()
                .map(|p| PassRun {
                    name: p.name(),
                    changes: 0,
                })
                .collect(),
        };
        for f in &mut module.functions {
            for _ in 0..4 {
                let mut round = 0usize;
                for (i, p) in self.passes.iter().enumerate() {
                    let mut span = rec.span("compiler", p.name());
                    let changes = p.run_on_function(f);
                    if span.active() {
                        span.attr("layer", "ir");
                        span.attr("changes", changes);
                        span.attr("insts", f.inst_count());
                    }
                    report.per_pass[i].changes += changes;
                    round += changes;
                }
                if round == 0 {
                    break;
                }
            }
        }
        report
    }
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field("passes", &self.pass_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use confllvm_minic::{parse, Sema};

    fn lower_src(src: &str) -> Module {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        lower(&prog, &sema, "test").unwrap()
    }

    #[test]
    fn parse_accepts_the_default_pipeline() {
        let pm = PassManager::parse("const-fold,copy-prop,cse,dce").unwrap();
        assert_eq!(pm.pass_names(), ["const-fold", "copy-prop", "cse", "dce"]);
        assert!(PassManager::parse("").unwrap().pass_names().is_empty());
        assert!(PassManager::parse("  const-fold ,dce ").is_ok());
    }

    #[test]
    fn parse_rejects_unknown_and_misordered_pipelines() {
        assert_eq!(
            PassManager::parse("const-fold,loop-unroll").map(|_| ()),
            Err(PipelineError::UnknownPass("loop-unroll".into()))
        );
        // cse declares run_after copy-prop: the reversed order is rejected.
        match PassManager::parse("cse,copy-prop") {
            Err(PipelineError::OrderViolation { first, second }) => {
                assert_eq!(first, "cse");
                assert_eq!(second, "copy-prop");
            }
            other => panic!("expected an ordering error, got {other:?}"),
        }
        // ...but cse without copy-prop at all is fine (soft constraint).
        assert!(PassManager::parse("cse").is_ok());
    }

    #[test]
    fn run_reports_per_pass_statistics() {
        let mut m = lower_src("int f() { return 2 + 3 * 4; }");
        let pm = PassManager::parse("const-fold,copy-prop,dce").unwrap();
        let report = pm.run(&mut m);
        assert!(report.changes_of("const-fold") >= 2);
        assert!(report.total_changes() >= report.changes_of("const-fold"));
        // Merging adds counts pass by pass, keeping one entry per pass.
        let mut twice = report.clone();
        twice.merge(&report);
        assert_eq!(twice.per_pass.len(), report.per_pass.len());
        assert_eq!(twice.total_changes(), 2 * report.total_changes());
        // A second run over the already-optimised module is a no-op.
        let again = pm.run(&mut m);
        assert_eq!(again.total_changes(), 0, "passes must be monotone");
    }

    #[test]
    fn empty_pipeline_changes_nothing() {
        let mut m = lower_src("int f() { return 2 + 3; }");
        let before = m.inst_count();
        let report = PassManager::parse("").unwrap().run(&mut m);
        assert_eq!(report.total_changes(), 0);
        assert_eq!(m.inst_count(), before);
    }
}
