//! Linking: assemble compiled functions into one program, resolve labels and
//! call targets to code-word offsets, choose the magic prefixes post-link and
//! patch every magic-dependent word (Section 6).

use std::collections::HashMap;

use confllvm_ir::Module;
use confllvm_machine::program::{ExternSpec, FuncSym, GlobalSpec};
use confllvm_machine::{encoded_len, find_unique_prefixes, MInst, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::isel::{compile_function, CodegenError, MagicPatch};
use crate::options::CodegenOptions;

/// Seed of the magic-prefix search: a fixed seed makes every build of the
/// same module emit the same prefixes, so compiled output is reproducible.
const PREFIX_SEED: u64 = 0xC0FF_EE00;

/// Statistics about the produced code, used by the evaluation harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodegenReport {
    pub functions: usize,
    pub instructions: usize,
    pub code_words: u32,
    /// Bound checks remaining in the emitted code after the machine passes.
    pub bound_checks: usize,
    pub cfi_checks: usize,
    pub magic_words: usize,
    /// Check pairs removed by the machine pipeline (skip-stack, coalescing
    /// and cross-block elimination together).
    pub checks_eliminated: usize,
    /// Check pairs inserted into loop preheaders by `mpx-hoist-checks`.
    pub checks_hoisted: usize,
    /// How many candidate prefixes were tried before a unique one was found.
    pub prefix_attempts: usize,
}

/// Compile and link a whole IR module into a machine [`Program`].
pub fn compile_module(
    module: &Module,
    opts: &CodegenOptions,
) -> Result<(Program, CodegenReport), CodegenError> {
    compile_module_with_entry(module, opts, "main")
}

/// Like [`compile_module`] but with an explicit entry function name.
pub fn compile_module_with_entry(
    module: &Module,
    opts: &CodegenOptions,
    entry: &str,
) -> Result<(Program, CodegenReport), CodegenError> {
    let func_index: HashMap<String, usize> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    if !func_index.contains_key(entry) {
        return Err(CodegenError {
            message: format!("entry function `{entry}` is not defined"),
        });
    }

    // Module-level compile span (closes when this function returns, so it
    // parents the isel, per-pass and link spans recorded on this thread).
    let rec = confllvm_obs::recorder();
    let mut obs_span = rec.span("compiler", "codegen.module");

    // 1. Select instructions for every function, then run the machine pass
    //    pipeline over each.
    let pipeline = crate::mpass::MachinePipeline::parse(&opts.passes)?;
    let mut compiled = Vec::with_capacity(module.functions.len());
    {
        let mut span = rec.span("compiler", "codegen.isel");
        for f in &module.functions {
            compiled.push(compile_function(module, f, opts, &func_index)?);
        }
        if span.active() {
            span.attr("functions", compiled.len());
            span.attr(
                "insts",
                compiled.iter().map(|c| c.insts.len()).sum::<usize>(),
            );
        }
    }
    let mut pass_report = confllvm_ir::PipelineReport::default();
    for (f, cf) in module.functions.iter().zip(&mut compiled) {
        let frame = cf.frame.clone();
        let mut cx = crate::mpass::MachineCtx::new(module, f, &frame, opts);
        pass_report.merge(&pipeline.run(cf, &mut cx));
        cf.bound_checks = cf
            .insts
            .iter()
            .filter(|i| matches!(i, MInst::BndCheck { .. }))
            .count();
    }
    let mut link_span = rec.span("compiler", "codegen.link");

    // 2. Concatenate, remembering per-function instruction ranges.
    let mut insts: Vec<MInst> = Vec::with_capacity(compiled.iter().map(|c| c.insts.len()).sum());
    let mut patches: Vec<(usize, MagicPatch)> = Vec::new();
    let mut func_ranges: Vec<(usize, usize)> = Vec::new(); // [start, end) inst indices
    for cf in &mut compiled {
        let start = insts.len();
        for (idx, patch) in &cf.patches {
            patches.push((start + idx, *patch));
        }
        insts.append(&mut cf.insts);
        func_ranges.push((start, insts.len()));
    }

    // 3. Word offsets for every instruction.
    let mut word_of: Vec<u32> = Vec::with_capacity(insts.len());
    let mut w = 0u32;
    for inst in &insts {
        word_of.push(w);
        w += encoded_len(inst);
    }
    let total_words = w;

    // 4. Function symbols.
    let mut functions = Vec::new();
    for (fi, cf) in compiled.iter().enumerate() {
        let (start, _) = func_ranges[fi];
        let magic_word = if opts.cfi { Some(word_of[start]) } else { None };
        let entry_inst = if opts.cfi { start + 1 } else { start };
        functions.push(FuncSym {
            name: cf.name.clone(),
            magic_word,
            entry_word: word_of[entry_inst],
            arg_taints: cf.arg_taints,
            ret_taint: cf.ret_taint,
        });
    }

    // 5. Resolve jumps (local labels), direct calls and function references.
    for (fi, cf) in compiled.iter().enumerate() {
        let (start, end) = func_ranges[fi];
        let label_word = |label: u32| -> u32 {
            let local_idx = cf.labels[label as usize];
            word_of[start + local_idx]
        };
        for inst in &mut insts[start..end] {
            match inst {
                MInst::Jmp { target } => *target = label_word(*target),
                MInst::Jcc { target, .. } => *target = label_word(*target),
                MInst::CallDirect { target } => {
                    let callee = *target as usize;
                    *target = functions[callee].entry_word;
                }
                MInst::MovFunc { dst, index } => {
                    // Function pointers point at the callee's magic word when
                    // CFI is on (the indirect-call check reads it and then
                    // skips it), at its entry otherwise.
                    let callee = *index as usize;
                    let word = functions[callee]
                        .magic_word
                        .unwrap_or(functions[callee].entry_word);
                    *inst = MInst::MovImm {
                        dst: *dst,
                        imm: word as i64,
                    };
                }
                _ => {}
            }
        }
    }

    // 6. Choose magic prefixes and patch the magic-dependent words, retrying
    //    (with new random prefixes) in the astronomically unlikely event that
    //    a prefix also appears in an unrelated code word.  Candidate
    //    prefixes are drawn against the unpatched words — exactly the
    //    paper's "generate random bit sequences and check for uniqueness"
    //    loop.  Patching keeps every instruction's length and rewrites the
    //    same fields on each attempt, so it works in place.
    let mut words: Vec<u64> = Vec::with_capacity(total_words as usize);
    for inst in &insts {
        words.extend_from_slice(&confllvm_machine::encode_inst(inst));
    }
    let candidate_words = words.clone();
    let mut is_magic = vec![false; total_words as usize];
    for (idx, patch) in &patches {
        if matches!(
            patch,
            MagicPatch::CallMagic { .. } | MagicPatch::RetMagic { .. }
        ) {
            is_magic[word_of[*idx] as usize] = true;
        }
    }
    let mut rng = StdRng::seed_from_u64(PREFIX_SEED);
    let mut attempts = 0usize;
    let prefixes = loop {
        attempts += 1;
        let prefixes = find_unique_prefixes(&mut rng, &candidate_words);
        for (idx, patch) in &patches {
            let inst = &mut insts[*idx];
            match patch {
                MagicPatch::CallMagic { args, ret } => {
                    *inst = MInst::MagicWord {
                        value: prefixes.call_word(*args, *ret),
                    };
                }
                MagicPatch::RetMagic { ret } => {
                    *inst = MInst::MagicWord {
                        value: prefixes.ret_word(*ret),
                    };
                }
                MagicPatch::NotCallMagic { args, ret } => {
                    if let MInst::MovImm { imm, .. } = inst {
                        *imm = !(prefixes.call_word(*args, *ret)) as i64;
                    }
                }
                MagicPatch::NotRetMagic { ret } => {
                    if let MInst::MovImm { imm, .. } = inst {
                        *imm = !(prefixes.ret_word(*ret)) as i64;
                    }
                }
            }
            let at = word_of[*idx] as usize;
            let enc = confllvm_machine::encode_inst(inst);
            words[at..at + enc.len()].copy_from_slice(&enc);
        }
        // Verify uniqueness in the final image: no word other than the magic
        // words themselves may carry either prefix.
        let ok = words
            .iter()
            .zip(&is_magic)
            .all(|(&wv, &magic)| magic || !(prefixes.is_call_word(wv) || prefixes.is_ret_word(wv)));
        if ok {
            break prefixes;
        }
        if attempts > 64 {
            return Err(CodegenError {
                message: "could not find unique magic prefixes".to_string(),
            });
        }
    };
    if link_span.active() {
        link_span.attr("insts", insts.len());
        link_span.attr("code_words", total_words);
        link_span.attr("prefix_attempts", attempts);
    }
    drop(link_span);

    let entry_function = func_index[entry];
    let globals: Vec<GlobalSpec> = module
        .globals
        .iter()
        .map(|g| GlobalSpec {
            name: g.name.clone(),
            size: g.size,
            taint: g.taint,
            init: g.init.clone(),
        })
        .collect();
    let externs: Vec<ExternSpec> = module
        .externs
        .iter()
        .map(|e| ExternSpec {
            name: e.name.clone(),
            param_taints: e.param_taints.clone(),
            param_pointee_taints: e.param_pointee_taints.clone(),
            param_is_pointer: e.param_is_pointer.clone(),
            ret_taint: e.ret_taint,
            has_ret_value: e.has_ret_value,
        })
        .collect();

    let report = CodegenReport {
        functions: compiled.len(),
        instructions: insts.len(),
        code_words: total_words,
        bound_checks: compiled.iter().map(|c| c.bound_checks).sum(),
        cfi_checks: compiled.iter().map(|c| c.cfi_checks).sum(),
        checks_eliminated: pass_report.changes_of("mpx-skip-stack-checks")
            + pass_report.changes_of("mpx-coalesce-checks")
            + pass_report.changes_of("mpx-cross-block-elim"),
        checks_hoisted: pass_report.changes_of("mpx-hoist-checks"),
        magic_words: patches
            .iter()
            .filter(|(_, p)| {
                matches!(
                    p,
                    MagicPatch::CallMagic { .. } | MagicPatch::RetMagic { .. }
                )
            })
            .count(),
        prefix_attempts: attempts,
    };
    if obs_span.active() {
        obs_span.attr("functions", report.functions);
        obs_span.attr("instructions", report.instructions);
        obs_span.attr("bound_checks", report.bound_checks);
        obs_span.attr("checks_eliminated", report.checks_eliminated);
        obs_span.attr("checks_hoisted", report.checks_hoisted);
    }

    let program = Program {
        name: module.name.clone(),
        insts,
        functions,
        globals,
        externs,
        entry_function,
        prefixes,
        scheme: opts.scheme,
        cfi: opts.cfi,
        separate_trusted_memory: opts.separate_trusted_memory,
        split_stacks: opts.split_stacks,
    };
    Ok((program, report))
}
