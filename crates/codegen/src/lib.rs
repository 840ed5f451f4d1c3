//! # confllvm-codegen
//!
//! Code generation for the ConfLLVM reproduction: lowering the taint-typed IR
//! to the abstract x64 machine with the paper's instrumentation —
//!
//! * lock-step public/private stack frames ([`frame`], Section 3),
//! * MPX bound checks or segment-register prefixes on every user-level
//!   memory access ([`isel`], emitted naively), with the MPX optimisations
//!   of Section 5.1 — plus cross-block redundant-check elimination and
//!   loop-invariant check hoisting — as machine passes under a pass manager
//!   ([`mpass`]),
//! * taint-aware CFI: magic words at procedure entries and return sites,
//!   expanded returns, checked indirect calls (Section 4),
//! * post-link selection of the unique 59-bit magic prefixes and patching of
//!   every magic-dependent word ([`link`], Section 6).

pub mod frame;
pub mod isel;
pub mod link;
pub mod mpass;
pub mod options;

pub use frame::{AllocaArea, FrameLayout, Slot};
pub use isel::{CheckKind, CheckSite, CodegenError, CompiledFunction, MBlock, MagicPatch};
pub use link::{compile_module, compile_module_with_entry, CodegenReport};
pub use options::{CodegenOptions, PIPELINE_MPX_FULL, PIPELINE_MPX_PR1};

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_ir::{infer, lower, InferOptions};
    use confllvm_machine::{MInst, Scheme};
    use confllvm_minic::{parse, Sema};

    fn compile(src: &str, opts: &CodegenOptions) -> (confllvm_machine::Program, CodegenReport) {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let mut m = lower(&prog, &sema, "test").unwrap();
        confllvm_ir::PassManager::parse(confllvm_ir::DEFAULT_IR_PIPELINE)
            .unwrap()
            .run(&mut m);
        infer(&mut m, InferOptions::default()).unwrap();
        compile_module(&m, opts).unwrap()
    }

    const SIMPLE: &str = "
        int add(int a, int b) { return a + b; }
        int main() { return add(40, 2); }
    ";

    const PRIVATE_BUF: &str = "
        extern void read_passwd(char *u, private char *p, int n);
        private int peek(char *u) {
            char pw[32];
            read_passwd(u, pw, 32);
            return pw[3];
        }
        int main() { peek(0); return 0; }
    ";

    #[test]
    fn baseline_has_no_instrumentation() {
        let (p, report) = compile(SIMPLE, &CodegenOptions::baseline());
        assert_eq!(report.bound_checks, 0);
        assert_eq!(report.cfi_checks, 0);
        assert_eq!(report.magic_words, 0);
        assert!(p
            .insts
            .iter()
            .all(|i| !matches!(i, MInst::MagicWord { .. })));
        assert!(p.insts.iter().any(|i| matches!(i, MInst::Ret)));
    }

    #[test]
    fn cfi_adds_magic_words_and_removes_plain_ret() {
        let mut opts = CodegenOptions::segment();
        opts.scheme = Scheme::None;
        let (p, report) = compile(SIMPLE, &opts);
        assert!(report.magic_words >= 3, "2 entries + >=1 return site");
        assert!(report.cfi_checks >= 2);
        assert!(
            p.insts.iter().all(|i| !matches!(i, MInst::Ret)),
            "CFI replaces every ret with the expanded sequence"
        );
        // All magic words must carry one of the two chosen prefixes.
        for inst in &p.insts {
            if let MInst::MagicWord { value } = inst {
                assert!(p.prefixes.is_call_word(*value) || p.prefixes.is_ret_word(*value));
            }
        }
    }

    #[test]
    fn mpx_emits_bound_checks_for_user_accesses() {
        let (p, report) = compile(PRIVATE_BUF, &CodegenOptions::mpx());
        assert!(report.bound_checks > 0);
        assert!(p.insts.iter().any(|i| matches!(i, MInst::BndCheck { .. })));
    }

    #[test]
    fn segment_scheme_prefixes_user_accesses() {
        let (p, _) = compile(PRIVATE_BUF, &CodegenOptions::segment());
        let has_gs = p.insts.iter().any(|i| match i {
            MInst::Load { mem, .. } | MInst::Store { mem, .. } => {
                mem.seg == Some(confllvm_machine::Seg::Gs)
            }
            _ => false,
        });
        let has_fs = p.insts.iter().any(|i| match i {
            MInst::Load { mem, .. } | MInst::Store { mem, .. } => {
                mem.seg == Some(confllvm_machine::Seg::Fs)
            }
            _ => false,
        });
        assert!(has_gs, "private accesses must be gs-prefixed");
        assert!(has_fs, "public accesses must be fs-prefixed");
        // The segmentation scheme never emits MPX checks.
        assert!(p.insts.iter().all(|i| !matches!(i, MInst::BndCheck { .. })));
    }

    #[test]
    fn mpx_optimisations_reduce_check_count() {
        let full = CodegenOptions::mpx();
        let mut unopt = CodegenOptions::mpx();
        unopt.passes = String::new();
        let (_, with_opts) = compile(PRIVATE_BUF, &full);
        let (_, without) = compile(PRIVATE_BUF, &unopt);
        assert!(
            with_opts.bound_checks < without.bound_checks,
            "optimisations should eliminate checks: {} vs {}",
            with_opts.bound_checks,
            without.bound_checks
        );
        assert!(with_opts.checks_eliminated > 0);
        assert_eq!(without.checks_eliminated, 0);
    }

    #[test]
    fn full_pipeline_beats_the_pr1_trio() {
        let full = CodegenOptions::mpx();
        let mut pr1 = CodegenOptions::mpx();
        pr1.passes = PIPELINE_MPX_PR1.to_string();
        // A loop over a global with a constant-index access: the full
        // pipeline hoists the `table[0]` check out of the loop.
        let src = "
            int table[64];
            int sum(int n) {
                int i; int s = 0;
                for (i = 0; i < n; i = i + 1) {
                    table[0] = table[0] + i;
                    s = s + table[0];
                }
                return s;
            }
            int main() { return sum(8); }
        ";
        let (_, full_r) = compile(src, &full);
        let (_, pr1_r) = compile(src, &pr1);
        assert!(full_r.checks_hoisted > 0, "table[0] must be hoisted");
        assert!(
            full_r.checks_eliminated > pr1_r.checks_eliminated,
            "cross-block elimination must remove more: {} vs {}",
            full_r.checks_eliminated,
            pr1_r.checks_eliminated
        );
    }

    #[test]
    fn function_symbols_and_entry_are_resolved() {
        let (p, _) = compile(SIMPLE, &CodegenOptions::segment());
        let main = p.function("main").unwrap();
        let add = p.function("add").unwrap();
        assert_ne!(main.entry_word, add.entry_word);
        assert_eq!(p.entry_function, 1, "main is the second function");
        // Direct call targets must point at add's entry word.
        assert!(p
            .insts
            .iter()
            .any(|i| matches!(i, MInst::CallDirect { target } if *target == add.entry_word)));
    }

    #[test]
    fn encode_decode_roundtrip_of_whole_program() {
        let (p, _) = compile(PRIVATE_BUF, &CodegenOptions::mpx());
        let bin = p.encode();
        let decoded = bin.decode().unwrap();
        assert_eq!(decoded.len(), p.insts.len());
        for ((_, d), orig) in decoded.iter().zip(&p.insts) {
            assert_eq!(d, orig);
        }
    }

    #[test]
    fn indirect_calls_are_checked_under_cfi() {
        let src = "
            int inc(int x) { return x + 1; }
            int apply(int (*fp)(int), int v) { return fp(v); }
            int main() { return apply(inc, 41); }
        ";
        let mut opts = CodegenOptions::segment();
        opts.scheme = Scheme::None;
        let (p, _) = compile(src, &opts);
        assert!(p.insts.iter().any(|i| matches!(i, MInst::LoadCode { .. })));
        assert!(p.insts.iter().any(|i| matches!(i, MInst::CallReg { .. })));
    }

    #[test]
    fn stack_arguments_beyond_four_are_passed() {
        let src = "
            int six(int a, int b, int c, int d, int e, int f) { return a + b + c + d + e + f; }
            int main() { return six(1, 2, 3, 4, 5, 6); }
        ";
        let (p, _) = compile(src, &CodegenOptions::baseline());
        assert!(p.function("six").is_some());
        assert!(!p.insts.is_empty());
    }
}
