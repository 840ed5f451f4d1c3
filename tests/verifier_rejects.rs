//! Experiment E8: ConfVerify accepts ConfLLVM's output and rejects binaries
//! whose instrumentation has been tampered with — the property that removes
//! the compiler from the TCB (Section 5.2).

use std::collections::BTreeMap;

use confllvm_core::{compile_for, Config};
use confllvm_machine::{AluOp, Binary, BndReg, MInst, Reg, RegImm, Seg, Taint};
use confllvm_verify::{
    is_verifiable, verify, verify_with, VerifyError, VerifyOptions, VerifyReport,
};

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

/// Simulate a compiler that emits only the lower half of each private-region
/// check: every `bndcu` against `bnd1` becomes a `nop`.  A `bndcl` alone
/// bounds an address from below only, so the accesses it guards count as
/// unchecked.
#[test]
fn a_check_missing_its_upper_half_is_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let mut program = compiled.program.clone();
    let mut dropped = 0;
    for inst in &mut program.insts {
        if matches!(
            inst,
            MInst::BndCheck {
                bnd: BndReg::Bnd1,
                upper: true,
                ..
            }
        ) {
            *inst = MInst::Nop;
            dropped += 1;
        }
    }
    assert!(dropped > 0, "instrumented program must contain bndcu");
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter().any(|e| e.message.contains("no bound check")),
        "expected an unchecked-access error, got {errs:?}"
    );
}

/// The two halves of a check must name the same bound register: a lower
/// bound taken against the public region and an upper bound against the
/// private one confine the address to neither.  Here every private-region
/// pair's `bndcl` names `bnd0` instead of `bnd1`.
#[test]
fn a_pair_whose_halves_name_different_bound_registers_is_rejected() {
    let compiled = compile_for(APP, Config::OurMpx).unwrap();
    let mut program = compiled.program.clone();
    let mut renamed = 0;
    for inst in &mut program.insts {
        if let MInst::BndCheck {
            bnd: bnd @ BndReg::Bnd1,
            upper: false,
            ..
        } = inst
        {
            *bnd = BndReg::Bnd0;
            renamed += 1;
        }
    }
    assert!(renamed > 0, "instrumented program must contain bndcl");
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

/// `APP` under OurMPX and the index of its only byte load through a base
/// register: `pw[i]` in `scramble`, whose checked base is reloaded from a
/// stack slot.
fn scramble_byte_load() -> (confllvm_machine::Program, usize) {
    let program = compile_for(APP, Config::OurMpx).unwrap().program;
    let pos = program
        .insts
        .iter()
        .position(|i| matches!(i, MInst::Load { size: 1, mem, .. } if mem.base != Some(Reg::Rsp)));
    (program, pos.expect("scramble reads pw[i]"))
}

/// A bound check covers its displacement plus what the guard areas absorb,
/// no more: moving the checked `pw[i]` load 2^28 bytes up (the distance
/// from a public address to its private mirror under MPX) leaves it
/// unchecked.
#[test]
fn a_displacement_past_the_guard_is_rejected() {
    let (mut program, pos) = scramble_byte_load();
    if let MInst::Load { mem, .. } = &mut program.insts[pos] {
        mem.disp += 1 << 28;
    }
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter().any(|e| e.message.contains("beyond the guard")),
        "expected a guard-distance error, got {errs:?}"
    );
}

/// A check of `[base]` says nothing about `[base + index]`: adding an index
/// register to the checked `pw[i]` load leaves it unchecked.
#[test]
fn an_unchecked_index_register_is_rejected() {
    let (mut program, pos) = scramble_byte_load();
    if let MInst::Load { mem, .. } = &mut program.insts[pos] {
        mem.index = Some((Reg::Rax, 1));
    }
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter()
            .any(|e| e.message.contains("unchecked index register")),
        "expected an index error, got {errs:?}"
    );
}

/// A `setcc` result carries the taint of what the `cmp` before it compared:
/// storing a comparison on a private byte into the public frame leaks it.
#[test]
fn a_setcc_of_private_data_stored_to_public_memory_is_rejected() {
    const SOURCE: &str = "
        extern void read_passwd(char *u, private char *p, int n);
        int main() {
            char user[8];
            user[0] = 'a'; user[1] = 0;
            char pw[16];
            read_passwd(user, pw, 16);
            private int b = pw[0] < 77;
            return 0;
        }
    ";
    for config in [Config::OurMpx, Config::OurSeg] {
        let mut program = compile_for(SOURCE, config).unwrap().program;
        verify(&program.encode()).unwrap_or_else(|e| panic!("{config:?}: {e:?}"));
        let set = program
            .insts
            .iter()
            .position(|i| matches!(i, MInst::SetCond { .. }))
            .unwrap();
        let MInst::SetCond { dst, .. } = program.insts[set] else {
            unreachable!("found above")
        };
        let store = (set..program.insts.len())
            .find(|&i| matches!(program.insts[i], MInst::Store { src, .. } if src == dst))
            .unwrap();
        // Redirect the store from the private frame to the public one.
        let offset = confllvm_machine::MemoryLayout::new(
            program.scheme,
            program.split_stacks,
            program.separate_trusted_memory,
        )
        .private_stack_offset() as i32;
        if let MInst::Store { mem, .. } = &mut program.insts[store] {
            match config {
                Config::OurMpx => mem.disp -= offset,
                _ => mem.seg = Some(Seg::Fs),
            }
        }
        let errs = verify(&program.encode()).unwrap_err();
        assert!(
            errs.iter().any(|e| e
                .message
                .contains("store of a private register into public")),
            "{config:?}: expected a store-taint error, got {errs:?}"
        );
    }
}

/// Under MPX the checks and `rsp` offsets classify an operand, yet the VM
/// still adds an `fs`/`gs` base and truncates to 32 bits when an operand
/// asks for it.  `scramble`'s reload of its public argument slot,
/// `[rsp+128]`, turned into `gs:[esp+128]` reads the private region while
/// the scan would type the loaded register public.
#[test]
fn a_segment_prefixed_operand_under_mpx_is_rejected() {
    let mut program = compile_for(APP, Config::OurMpx).unwrap().program;
    let entry = program.function("scramble").unwrap().entry_word;
    let words = program.word_offsets();
    let pos = (0..program.insts.len())
        .filter(|&i| words[i] >= entry)
        .find(|&i| {
            matches!(program.insts[i], MInst::Load { size: 8, mem, .. }
                if mem.is_stack_relative() && mem.disp == 128)
        })
        .expect("scramble reloads its first argument");
    if let MInst::Load { mem, .. } = &mut program.insts[pos] {
        mem.seg = Some(Seg::Gs);
        mem.use_low32 = true;
    }
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter().any(|e| e.message.contains("segment prefix")),
        "expected a segment-prefix error, got {errs:?}"
    );
}

/// A callee need not preserve any register (the CFI return sequence itself
/// overwrites `r15`), so an `rsp + C` value computed before a call says
/// nothing about the register after it.  Here `main` puts the private
/// stack address that the compiler re-materialises after `call scramble`
/// into `r15` before `call read_passwd` instead, and the
/// re-materialisation and its bound check are gone: the store of the digest
/// goes through whatever `r15` holds when `scramble` returns.
#[test]
fn an_rsp_offset_held_across_a_call_is_rejected() {
    let mut program = compile_for(APP, Config::OurMpx).unwrap().program;
    let read_passwd = program
        .externs
        .iter()
        .position(|e| e.name == "read_passwd")
        .unwrap() as u16;
    let scramble = program.function("scramble").unwrap().entry_word;
    let insts = &mut program.insts;
    let first_call = insts
        .iter()
        .position(|i| matches!(i, MInst::CallExternal { index } if *index == read_passwd))
        .unwrap();
    let second_call = first_call
        + insts[first_call..]
            .iter()
            .position(|i| matches!(i, MInst::CallDirect { target } if *target == scramble))
            .unwrap();
    // After the second call: `mov r15, rsp; add r15, C` and a bnd1 pair.
    let mov = second_call
        + insts[second_call..]
            .iter()
            .position(|i| {
                *i == MInst::MovReg {
                    dst: Reg::R15,
                    src: Reg::Rsp,
                }
            })
            .unwrap();
    let MInst::Alu {
        src: RegImm::Imm(c),
        ..
    } = insts[mov + 1]
    else {
        panic!("expected `add r15, C` after {:?}", insts[mov]);
    };
    let checks: Vec<usize> = (mov..insts.len())
        .filter(|&i| {
            matches!(insts[i], MInst::BndCheck { bnd: BndReg::Bnd1, mem, .. }
                if mem.base == Some(Reg::R15))
        })
        .take(2)
        .collect();
    for i in [mov, mov + 1].into_iter().chain(checks) {
        insts[i] = MInst::Nop;
    }
    // Before the first call: the last `add r15, 0` now adds C.
    let add_r15 = |imm| MInst::Alu {
        op: AluOp::Add,
        dst: Reg::R15,
        src: RegImm::Imm(imm),
    };
    let add = insts[..first_call]
        .iter()
        .rposition(|i| *i == add_r15(0))
        .unwrap();
    insts[add] = add_r15(c);
    let errs = verify(&program.encode()).unwrap_err();
    assert!(
        errs.iter()
            .any(|e| e.message == "access through r15 has no bound check in this block"),
        "expected an unchecked-access error, got {errs:?}"
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

/// FNV-1a digest of every verdict over [`verdict_corpus`].  A refactor of
/// the verifier must not move it; a change meant to move a verdict re-pins it
/// and lists the flips.  The guard-distance and `setcc` rules flipped seven
/// mutants from accepted to rejected: three whose checked access moved past
/// the guard and four that compare an unknown register or stale flags and
/// store the `setcc` result to public memory.  The rule against segment
/// prefixes and 32-bit registers under MPX flipped all 116 `segment`
/// mutants (#842 to #957) from accepted to rejected.
const VERDICT_DIGEST: u64 = 0x3840_01a9_f62d_6577;

/// Word-level mutants of each binary, per kind (bit flip, random word,
/// truncation, deleted word).
const WORD_MUTANTS_PER_KIND: usize = 48;

/// FNV-1a 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// SplitMix64: a seeded, dependency-free word source for the mutants.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The mutant corpus as `(configuration, kind, binary)`: over APP under
/// OurMPX and OurSeg, every single-instruction `Nop` mutant, every
/// `BndCheck` with its bound register swapped, and seeded word-level mutants
/// of the encoded binary; under OurMPX also every load and store given a
/// `gs:` and, separately, an `fs:` prefix with 32-bit registers.
fn verdict_corpus() -> Vec<(&'static str, &'static str, Binary)> {
    let mut out = Vec::new();
    for config in [Config::OurMpx, Config::OurSeg] {
        let name = config.name();
        let program = compile_for(APP, config).unwrap().program;
        for (i, inst) in program.insts.iter().enumerate() {
            let swapped = match *inst {
                MInst::Nop => continue,
                MInst::BndCheck { bnd, mem, upper } => Some(MInst::BndCheck {
                    bnd: match bnd {
                        BndReg::Bnd0 => BndReg::Bnd1,
                        BndReg::Bnd1 => BndReg::Bnd0,
                    },
                    mem,
                    upper,
                }),
                _ => None,
            };
            for (kind, mutated) in [("nop", Some(MInst::Nop)), ("bnd-swap", swapped)] {
                if let Some(mutated) = mutated {
                    let mut p = program.clone();
                    p.insts[i] = mutated;
                    out.push((name, kind, p.encode()));
                }
            }
        }
        let binary = program.encode();
        let n = binary.words.len();
        let mut rng = SplitMix(config as u64);
        for kind in 0..4 {
            for _ in 0..WORD_MUTANTS_PER_KIND {
                let mut b = binary.clone();
                let at = rng.below(n);
                match kind {
                    0 => b.words[at] ^= 1 << rng.below(64),
                    1 => b.words[at] = rng.next(),
                    2 => b.words.truncate(at),
                    _ => {
                        b.words.remove(at);
                    }
                }
                out.push((name, "word", b));
            }
        }
    }
    let config = Config::OurMpx;
    let program = compile_for(APP, config).unwrap().program;
    for (i, inst) in program.insts.iter().enumerate() {
        if !matches!(inst, MInst::Load { .. } | MInst::Store { .. }) {
            continue;
        }
        for seg in [Seg::Gs, Seg::Fs] {
            let mut p = program.clone();
            if let MInst::Load { mem, .. } | MInst::Store { mem, .. } = &mut p.insts[i] {
                mem.seg = Some(seg);
                mem.use_low32 = true;
            }
            out.push((config.name(), "segment", p.encode()));
        }
    }
    out
}

fn absorb(h: &mut Fnv, outcome: &Result<VerifyReport, Vec<VerifyError>>) {
    match outcome {
        Ok(r) => {
            h.u64(1);
            for c in [
                r.procedures,
                r.instructions_checked,
                r.stores_checked,
                r.calls_checked,
                r.returns_checked,
                r.indirect_calls_checked,
                r.cached_procedures,
            ] {
                h.u64(c as u64);
            }
        }
        Err(errs) => {
            h.u64(0);
            h.u64(errs.len() as u64);
            for e in errs {
                h.u64(e.word as u64);
                h.u64(e.message.len() as u64);
                h.bytes(e.message.as_bytes());
            }
        }
    }
}

/// Every verifier verdict over the mutant corpus is pinned: `verify` never
/// panics, the parallel driver agrees with the serial scan on the
/// word-level mutants, and one digest over all outcomes equals
/// [`VERDICT_DIGEST`].
#[test]
fn every_verdict_on_the_mutant_corpus_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut accepted: BTreeMap<(&str, &str), (usize, usize)> = BTreeMap::new();
    for (i, (config, kind, binary)) in verdict_corpus().iter().enumerate() {
        let outcome = std::panic::catch_unwind(|| verify(binary))
            .unwrap_or_else(|_| panic!("verify panicked on mutant #{i} ({config} {kind})"));
        if *kind == "word" {
            let parallel = verify_with(binary, &VerifyOptions::with_threads(4), None);
            assert_eq!(
                format!("{parallel:?}"),
                format!("{outcome:?}"),
                "mutant #{i} ({config} {kind}): parallel and serial verdicts differ"
            );
        }
        absorb(&mut h, &outcome);
        let (ok, n) = accepted.entry((config, kind)).or_default();
        *ok += outcome.is_ok() as usize;
        *n += 1;
    }
    let counts: String = accepted
        .iter()
        .map(|((config, kind), (ok, n))| format!("  {config} {kind}: {ok} of {n} accepted\n"))
        .collect();
    assert!(
        h.0 == VERDICT_DIGEST,
        "verifier verdicts changed; digest now 0x{:016x}\n{counts}",
        h.0
    );
}
