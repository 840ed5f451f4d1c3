//! The end-to-end ConfLLVM pipeline (Figure 2): annotated source → frontend →
//! IR optimisations → qualifier inference → instrumented code generation →
//! linked program, plus helpers for loading and running the result on the
//! simulator and for verifying the emitted binary with ConfVerify.

use confllvm_codegen::{compile_module_with_entry, CodegenReport};
use confllvm_ir::{infer, lower, InferOptions, PassManager, TaintError};
use confllvm_machine::{Binary, Program};
use confllvm_minic::{parse, FrontendError, Sema};
use confllvm_vm::{RunResult, Vm, VmOptions, World};

use crate::config::Config;

/// Any error the pipeline can produce.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing, parsing or semantic analysis failed.
    Frontend(FrontendError),
    /// An invalid `-Zpasses`-style pipeline description.
    Pipeline(confllvm_ir::PipelineError),
    /// The qualifier inference found information-flow errors (e.g. private
    /// data flowing to a public sink) — the compile-time rejections of
    /// Section 2.
    Taint(Vec<TaintError>),
    /// Code generation / linking failed.
    Codegen(confllvm_codegen::CodegenError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "{e}"),
            CompileError::Pipeline(e) => write!(f, "{e}"),
            CompileError::Taint(errs) => {
                writeln!(f, "{} information-flow error(s):", errs.len())?;
                for e in errs {
                    writeln!(f, "  {e}")?;
                }
                Ok(())
            }
            CompileError::Codegen(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<FrontendError> for CompileError {
    fn from(e: FrontendError) -> Self {
        CompileError::Frontend(e)
    }
}

/// Options for one compilation.  Qualifier inference always runs with
/// [`InferOptions::default`]: strict mode, rejecting branches on private data
/// (implicit flows) as all the paper's experiments do (Section 2), and not
/// all-private.  Call [`infer`] directly for the other modes.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Paper configuration (decides instrumentation and allocator).
    pub config: Config,
    /// `-Zpasses=...` override of the IR pipeline (comma-separated pass
    /// names); `None` uses the configuration's named pipeline and
    /// `Some(String::new())` runs no IR passes.
    pub ir_passes: Option<String>,
    /// Override of the machine-level pipeline; `None` uses the
    /// configuration's named pipeline.
    pub machine_passes: Option<String>,
    /// Entry function.
    pub entry: String,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            config: Config::OurSeg,
            ir_passes: None,
            machine_passes: None,
            entry: "main".to_string(),
        }
    }
}

impl CompileOptions {
    pub fn for_config(config: Config) -> Self {
        CompileOptions {
            config,
            ..Default::default()
        }
    }
}

/// The output of a successful compilation.
#[derive(Debug, Clone)]
pub struct Compiled {
    pub program: Program,
    pub report: CodegenReport,
    /// Number of values / memory accesses inferred private.
    pub private_values: usize,
    pub private_accesses: usize,
    pub config: Config,
}

impl Compiled {
    /// Encode to the binary form consumed by ConfVerify and by the loader.
    pub fn binary(&self) -> Binary {
        self.program.encode()
    }
}

/// Compile mini-C source under a configuration.
pub fn compile(source: &str, opts: &CompileOptions) -> Result<Compiled, CompileError> {
    let ast = parse(source)?;
    let sema = Sema::analyze(&ast)?;
    let mut module = lower(&ast, &sema, "u_module")?;
    let ir_pipeline = opts
        .ir_passes
        .as_deref()
        .unwrap_or(opts.config.ir_pipeline());
    let pm = PassManager::parse(ir_pipeline).map_err(CompileError::Pipeline)?;
    pm.run(&mut module);
    let report = infer(&mut module, InferOptions::default()).map_err(CompileError::Taint)?;
    let mut cg_opts = opts.config.codegen_options();
    if let Some(mp) = &opts.machine_passes {
        cg_opts.passes = mp.clone();
    }
    let (program, cg_report) =
        compile_module_with_entry(&module, &cg_opts, &opts.entry).map_err(CompileError::Codegen)?;
    Ok(Compiled {
        program,
        report: cg_report,
        private_values: report.private_values,
        private_accesses: report.private_accesses,
        config: opts.config,
    })
}

/// Convenience: compile under a paper configuration with default settings.
pub fn compile_for(source: &str, config: Config) -> Result<Compiled, CompileError> {
    compile(source, &CompileOptions::for_config(config))
}

/// Build a VM for a compiled program (world supplied by the caller).
pub fn vm_for(compiled: &Compiled, world: World) -> Result<Vm, confllvm_vm::LoadError> {
    let vm_opts = VmOptions {
        allocator: compiled.config.allocator(),
        ..Default::default()
    };
    Vm::new(&compiled.program, vm_opts, world)
}

/// Compile and run `main()` in one go; returns the run result and the final
/// world (for inspecting observable output).
pub fn compile_and_run(
    source: &str,
    config: Config,
    world: World,
) -> Result<(RunResult, World), CompileError> {
    let compiled = compile_for(source, config)?;
    let mut vm = vm_for(&compiled, world).map_err(|e| {
        CompileError::Codegen(confllvm_codegen::CodegenError {
            message: e.to_string(),
        })
    })?;
    let result = vm.run();
    Ok((result, vm.world))
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_vm::Outcome;

    const ARITH: &str = "
        int mul(int a, int b) { return a * b; }
        int main() { return mul(6, 7); }
    ";

    #[test]
    fn end_to_end_arithmetic_all_configs() {
        for config in Config::ALL {
            let (result, _) = compile_and_run(ARITH, config, World::new()).unwrap();
            assert_eq!(
                result.exit_code(),
                Some(42),
                "wrong result under {config}: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn end_to_end_loops_and_arrays() {
        let src = "
            int main() {
                int arr[16];
                int i;
                for (i = 0; i < 16; i = i + 1) { arr[i] = i * i; }
                int s = 0;
                for (i = 0; i < 16; i = i + 1) { s = s + arr[i]; }
                return s;
            }
        ";
        let expected: i64 = (0..16).map(|i| i * i).sum();
        for config in [Config::Base, Config::OurCFI, Config::OurMpx, Config::OurSeg] {
            let (result, _) = compile_and_run(src, config, World::new()).unwrap();
            assert_eq!(result.exit_code(), Some(expected), "under {config}");
        }
    }

    #[test]
    fn end_to_end_private_data_flow() {
        let src = "
            extern void read_passwd(char *u, private char *p, int n);
            extern void encrypt(private char *src, char *dst, int n);
            extern int send(int fd, char *buf, int n);
            int main() {
                char user[8];
                user[0] = 'a'; user[1] = 0;
                char pw[16];
                read_passwd(user, pw, 16);
                char out[16];
                encrypt(pw, out, 16);
                send(1, out, 16);
                return 0;
            }
        ";
        let mut world = World::new();
        world.set_password("a", b"hunter2");
        for config in [Config::OurMpx, Config::OurSeg] {
            let (result, world_after) = compile_and_run(src, config, world.clone()).unwrap();
            assert_eq!(
                result.exit_code(),
                Some(0),
                "under {config}: {:?}",
                result.outcome
            );
            // The password must not appear in clear in the observable output.
            let observable = world_after.observable();
            assert!(
                !observable.windows(7).any(|w| w == b"hunter2"),
                "password leaked under {config}"
            );
            assert!(!world_after.sent.is_empty());
        }
    }

    #[test]
    fn compile_time_leak_detection() {
        // Figure 1's bug: the password buffer is sent in clear.
        let src = "
            extern void read_passwd(char *u, private char *p, int n);
            extern int send(int fd, char *buf, int n);
            int main() {
                char user[8];
                char pw[16];
                read_passwd(user, pw, 16);
                send(1, pw, 16);
                return 0;
            }
        ";
        match compile_for(src, Config::OurSeg) {
            Err(CompileError::Taint(errs)) => assert!(!errs.is_empty()),
            other => panic!("expected a taint error, got {other:?}"),
        }
    }

    #[test]
    fn function_pointers_run_end_to_end() {
        let src = "
            int twice(int x) { return 2 * x; }
            int thrice(int x) { return 3 * x; }
            int apply(int (*fp)(int), int v) { return fp(v); }
            int main() { return apply(twice, 10) + apply(thrice, 10); }
        ";
        for config in [Config::Base, Config::OurCFI, Config::OurMpx, Config::OurSeg] {
            let (result, _) = compile_and_run(src, config, World::new()).unwrap();
            assert_eq!(
                result.exit_code(),
                Some(50),
                "under {config}: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn globals_and_struct_access() {
        let src = "
            struct counter { int lo; int hi; };
            int total;
            int main() {
                struct counter c;
                c.lo = 30;
                c.hi = 12;
                total = c.lo + c.hi;
                return total;
            }
        ";
        for config in [Config::Base, Config::OurMpx, Config::OurSeg] {
            let (result, _) = compile_and_run(src, config, World::new()).unwrap();
            assert_eq!(
                result.exit_code(),
                Some(42),
                "under {config}: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn instrumented_runs_cost_more_cycles() {
        let base = compile_and_run(ARITH, Config::Base, World::new())
            .unwrap()
            .0;
        let mpx = compile_and_run(ARITH, Config::OurMpx, World::new())
            .unwrap()
            .0;
        assert!(mpx.cycles() >= base.cycles());
    }

    #[test]
    fn stack_args_beyond_four_work() {
        let src = "
            int sum6(int a, int b, int c, int d, int e, int f) {
                return a + b + c + d + e + f;
            }
            int main() { return sum6(1, 2, 3, 4, 5, 6); }
        ";
        for config in [Config::Base, Config::OurCFI, Config::OurMpx, Config::OurSeg] {
            let (result, _) = compile_and_run(src, config, World::new()).unwrap();
            assert_eq!(
                result.exit_code(),
                Some(21),
                "under {config}: {:?}",
                result.outcome
            );
        }
    }

    #[test]
    fn runaway_programs_run_out_of_fuel() {
        let src = "int main() { while (1) { } return 0; }";
        // Strict mode forbids nothing here (the condition is a constant).
        let compiled = compile_for(src, Config::Base).unwrap();
        let mut vm = Vm::new(
            &compiled.program,
            VmOptions {
                fuel: 10_000,
                ..Default::default()
            },
            World::new(),
        )
        .unwrap();
        let result = vm.run();
        assert!(matches!(
            result.outcome,
            Outcome::Fault(confllvm_vm::Fault::OutOfFuel)
        ));
    }
}
