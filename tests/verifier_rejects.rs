//! Experiment E8: ConfVerify accepts ConfLLVM's output and rejects binaries
//! whose instrumentation has been tampered with — the property that removes
//! the compiler from the TCB (Section 5.2).

use confllvm_core::{compile_for, Config};
use confllvm_machine::{BndReg, MInst, Taint};
use confllvm_verify::{is_verifiable, verify};

const APP: &str = "
    extern void read_passwd(char *u, private char *p, int n);
    extern void encrypt(private char *src, char *dst, int n);
    extern int send(int fd, char *buf, int n);

    private int remember(private int x) { return x + 1; }

    private int scramble(private char *pw, int n) {
        int i;
        int acc = 0;
        for (i = 0; i < n; i = i + 1) {
            acc = acc + pw[i] * 31;
        }
        return remember(acc);
    }

    int main() {
        char user[8];
        user[0] = 'a'; user[1] = 0;
        char pw[16];
        read_passwd(user, pw, 16);
        private int digest = scramble(pw, 16);
        char out[16];
        encrypt(pw, out, 16);
        send(1, out, 16);
        return 0;
    }
";

#[test]
fn compiled_mpx_binary_passes_confverify() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let binary = compiled.binary();
    assert!(is_verifiable(&binary));
    let report = verify(&binary).unwrap_or_else(|e| panic!("verification failed: {e:?}"));
    assert!(report.procedures >= 3);
    assert!(report.stores_checked > 0);
    assert!(report.returns_checked >= 3);
}

#[test]
fn compiled_segment_binary_passes_confverify() {
    let compiled = compile_for(APP, Config::OurSeg).unwrap();
    let report =
        verify(&compiled.binary()).unwrap_or_else(|e| panic!("verification failed: {e:?}"));
    assert!(report.procedures >= 3);
    assert!(report.indirect_calls_checked == 0);
}

#[test]
fn baseline_binary_is_not_verifiable() {
    let compiled = compile_for(APP, Config::Base).unwrap();
    assert!(!is_verifiable(&compiled.binary()));
}

/// Simulate a compiler bug: drop one MPX bound check.  The verifier must
/// notice the unchecked access.
#[test]
fn dropping_a_bound_check_is_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let mut program = compiled.program.clone();
    // Drop every private-region bound check, as a buggy compiler might.  At
    // least one private access goes through a pointer loaded from memory (the
    // `pw[i]` reads in `scramble`), so the remaining `_chkstk`-based stack
    // reasoning cannot justify all of them.
    let mut dropped = 0;
    for inst in &mut program.insts {
        if matches!(
            inst,
            MInst::BndCheck {
                bnd: BndReg::Bnd1,
                ..
            }
        ) {
            *inst = MInst::Nop;
            dropped += 1;
        }
    }
    assert!(
        dropped > 0,
        "instrumented program must contain private-region checks"
    );
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter().any(|e| e.message.contains("no bound check")),
        "expected an unchecked-access error, got {errs:?}"
    );
}

/// Simulate a malicious compiler: lie about a procedure's taints by flipping
/// the taint bits in its entry magic word.
#[test]
fn flipping_magic_taint_bits_is_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let mut program = compiled.program.clone();
    let prefixes = program.prefixes;
    // `scramble` takes a private buffer and returns private data; claim that
    // everything is public instead.
    let scramble = program.function("scramble").unwrap().clone();
    let magic_word = scramble.magic_word.unwrap();
    let idx = program
        .word_offsets()
        .iter()
        .position(|w| *w == magic_word)
        .unwrap();
    program.insts[idx] = MInst::MagicWord {
        value: prefixes.call_word([Taint::Public; 4], Taint::Public),
    };
    let errs = verify(&program.encode()).unwrap_err();
    assert!(!errs.is_empty());
}

/// Smuggling a plain `ret` (bypassing the CFI expansion) must be rejected.
#[test]
fn plain_ret_is_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let mut program = compiled.program.clone();
    // Replace the first JmpReg (the tail of a return expansion) with a plain
    // ret, as a buggy compiler might.
    let pos = program
        .insts
        .iter()
        .position(|i| matches!(i, MInst::JmpReg { .. }))
        .unwrap();
    program.insts[pos] = MInst::Ret;
    let errs = verify(&program.encode()).unwrap_err();
    assert!(errs.iter().any(|e| e.message.contains("plain ret")));
}

/// A store that writes a private register into public memory (the exact bug
/// class ConfLLVM prevents) must be flagged even if the rest of the
/// instrumentation is intact.
#[test]
fn private_store_to_public_memory_is_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let mut program = compiled.program.clone();
    // Find a store into the private stack mirror (disp >= OFFSET) and
    // redirect it to the public frame by zeroing the displacement.
    let offset = confllvm_machine::MemoryLayout::new(
        program.scheme,
        program.split_stacks,
        program.separate_trusted_memory,
    )
    .private_stack_offset() as i32;
    let pos = program.insts.iter().position(|i| match i {
        MInst::Store { mem, .. } => mem.is_stack_relative() && mem.disp >= offset,
        _ => false,
    });
    let Some(pos) = pos else {
        // No private spill in this build — nothing to tamper with.
        return;
    };
    if let MInst::Store { mem, .. } = &mut program.insts[pos] {
        mem.disp -= offset;
    }
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter().any(|e| e
            .message
            .contains("store of a private register into public")),
        "expected a store-taint error, got {errs:?}"
    );
}

/// A direct call whose target word starts no instruction — past the end of
/// the code, far out of range, or the immediate word of the callee's first
/// instruction — has no callee magic word to check the argument taints
/// against, and must be rejected.
#[test]
fn call_targets_that_start_no_instruction_are_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let pos = compiled
        .program
        .insts
        .iter()
        .position(|i| matches!(i, MInst::CallDirect { .. }))
        .unwrap();
    let MInst::CallDirect { target: entry } = compiled.program.insts[pos] else {
        unreachable!("found above")
    };
    let end = compiled.program.code_words();
    for target in [end + 1, end + 64, u32::MAX, entry + 2] {
        let mut program = compiled.program.clone();
        program.insts[pos] = MInst::CallDirect { target };
        let errs = verify(&program.encode()).unwrap_err();
        assert!(
            errs.iter().any(|e| e
                .message
                .contains("direct call target has no preceding magic word")),
            "target {target}: expected a missing-magic-word error, got {errs:?}"
        );
    }
}
