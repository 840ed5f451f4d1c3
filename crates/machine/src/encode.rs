//! Binary encoding and decoding of machine instructions.
//!
//! Instructions are encoded into 64-bit words: one opcode/field word plus one
//! immediate word.  Magic sequences occupy exactly one word — the magic value
//! itself — so that the scheme's "the magic sequence appears nowhere else in
//! the binary" invariant can be established literally, by scanning words
//! (Section 6).  The decoder tells magic words apart from opcode words using
//! the magic prefixes from the binary header, which is valid precisely
//! because of that uniqueness invariant.

use crate::inst::{AluOp, BndReg, Cond, MInst, RegImm};
use crate::magic::MagicPrefixes;
use crate::operand::{MemOperand, Seg};
use crate::program::{Binary, BinaryHeader, Program};
use crate::reg::Reg;

/// Encoded length of an instruction in words.
pub fn encoded_len(inst: &MInst) -> u32 {
    match inst {
        MInst::MagicWord { .. } => 1,
        _ => 2,
    }
}

/// A decoding failure (malformed binary).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    pub word_index: u32,
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "decode error at word {}: {}",
            self.word_index, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

// Opcode numbers.  0 is deliberately invalid.
const OP_MOV_IMM: u8 = 1;
const OP_MOV_REG: u8 = 2;
const OP_ALU: u8 = 3;
const OP_CMP: u8 = 4;
const OP_SETCC: u8 = 5;
const OP_JCC: u8 = 6;
const OP_JMP: u8 = 7;
const OP_JMP_REG: u8 = 8;
const OP_LOAD: u8 = 9;
const OP_STORE: u8 = 10;
const OP_LEA: u8 = 11;
const OP_PUSH: u8 = 12;
const OP_POP: u8 = 13;
const OP_CALL: u8 = 14;
const OP_CALL_EXT: u8 = 15;
const OP_RET: u8 = 16;
const OP_BNDC: u8 = 17;
const OP_LOAD_CODE: u8 = 18;
const OP_CHKSTK: u8 = 19;
const OP_MOV_GLOBAL: u8 = 20;
const OP_MOV_FUNC: u8 = 21;
const OP_TRAP: u8 = 22;
const OP_NOP: u8 = 23;
const OP_CALL_REG: u8 = 24;

#[derive(Default)]
struct Fields {
    opcode: u8,
    reg1: u8,
    reg2: u8,
    reg3: u8,
    scale_log2: u8,
    has_base: bool,
    has_index: bool,
    use_low32: bool,
    seg: u8,
    byte_size: bool,
    upper: bool,
    bnd1: bool,
    rhs_is_imm: bool,
    cond: u8,
    aluop: u8,
    trap: u8,
}

impl Fields {
    fn pack(&self) -> u64 {
        let mut w = 0u64;
        w |= self.opcode as u64;
        w |= (self.reg1 as u64 & 0xf) << 8;
        w |= (self.reg2 as u64 & 0xf) << 12;
        w |= (self.reg3 as u64 & 0xf) << 16;
        w |= (self.scale_log2 as u64 & 0x3) << 20;
        w |= (self.has_base as u64) << 22;
        w |= (self.has_index as u64) << 23;
        w |= (self.use_low32 as u64) << 24;
        w |= (self.seg as u64 & 0x3) << 25;
        w |= (self.byte_size as u64) << 27;
        w |= (self.upper as u64) << 28;
        w |= (self.bnd1 as u64) << 29;
        w |= (self.rhs_is_imm as u64) << 30;
        w |= (self.cond as u64 & 0xf) << 32;
        w |= (self.aluop as u64 & 0xf) << 36;
        w |= (self.trap as u64 & 0xff) << 40;
        w
    }

    fn unpack(w: u64) -> Fields {
        Fields {
            opcode: (w & 0xff) as u8,
            reg1: ((w >> 8) & 0xf) as u8,
            reg2: ((w >> 12) & 0xf) as u8,
            reg3: ((w >> 16) & 0xf) as u8,
            scale_log2: ((w >> 20) & 0x3) as u8,
            has_base: (w >> 22) & 1 == 1,
            has_index: (w >> 23) & 1 == 1,
            use_low32: (w >> 24) & 1 == 1,
            seg: ((w >> 25) & 0x3) as u8,
            byte_size: (w >> 27) & 1 == 1,
            upper: (w >> 28) & 1 == 1,
            bnd1: (w >> 29) & 1 == 1,
            rhs_is_imm: (w >> 30) & 1 == 1,
            cond: ((w >> 32) & 0xf) as u8,
            aluop: ((w >> 36) & 0xf) as u8,
            trap: ((w >> 40) & 0xff) as u8,
        }
    }

    fn set_mem(&mut self, mem: &MemOperand) {
        if let Some(b) = mem.base {
            self.has_base = true;
            self.reg2 = b.index() as u8;
        }
        if let Some((i, scale)) = mem.index {
            self.has_index = true;
            self.reg3 = i.index() as u8;
            self.scale_log2 = match scale {
                1 => 0,
                2 => 1,
                4 => 2,
                _ => 3,
            };
        }
        self.use_low32 = mem.use_low32;
        self.seg = match mem.seg {
            None => 0,
            Some(Seg::Fs) => 1,
            Some(Seg::Gs) => 2,
        };
    }

    fn mem(&self, disp: i64) -> MemOperand {
        MemOperand {
            seg: match self.seg {
                1 => Some(Seg::Fs),
                2 => Some(Seg::Gs),
                _ => None,
            },
            base: if self.has_base {
                Reg::from_index(self.reg2 as usize)
            } else {
                None
            },
            index: if self.has_index {
                Reg::from_index(self.reg3 as usize).map(|r| (r, 1u8 << self.scale_log2))
            } else {
                None
            },
            disp: disp as i32,
            use_low32: self.use_low32,
        }
    }
}

fn reg(f: u8) -> Reg {
    Reg::from_index(f as usize).unwrap_or(Reg::Rax)
}

/// The one or two words of an encoded instruction, held inline so that
/// encoding never allocates.  Derefs to the word slice.
#[derive(Debug, Clone, Copy)]
pub struct EncodedInst {
    words: [u64; 2],
    len: u8,
}

impl std::ops::Deref for EncodedInst {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.words[..self.len as usize]
    }
}

/// Encode one instruction to one or two words.
pub fn encode_inst(inst: &MInst) -> EncodedInst {
    if let MInst::MagicWord { value } = inst {
        return EncodedInst {
            words: [*value, 0],
            len: 1,
        };
    }
    let mut f = Fields::default();
    let mut imm: u64 = 0;
    match inst {
        MInst::MagicWord { .. } => unreachable!("handled above"),
        MInst::MovImm { dst, imm: i } => {
            f.opcode = OP_MOV_IMM;
            f.reg1 = dst.index() as u8;
            imm = *i as u64;
        }
        MInst::MovReg { dst, src } => {
            f.opcode = OP_MOV_REG;
            f.reg1 = dst.index() as u8;
            f.reg2 = src.index() as u8;
        }
        MInst::Alu { op, dst, src } => {
            f.opcode = OP_ALU;
            f.aluop = op.index();
            f.reg1 = dst.index() as u8;
            match src {
                RegImm::Reg(r) => f.reg2 = r.index() as u8,
                RegImm::Imm(i) => {
                    f.rhs_is_imm = true;
                    imm = *i as u64;
                }
            }
        }
        MInst::Cmp { lhs, rhs } => {
            f.opcode = OP_CMP;
            f.reg1 = lhs.index() as u8;
            match rhs {
                RegImm::Reg(r) => f.reg2 = r.index() as u8,
                RegImm::Imm(i) => {
                    f.rhs_is_imm = true;
                    imm = *i as u64;
                }
            }
        }
        MInst::SetCond { dst, cond } => {
            f.opcode = OP_SETCC;
            f.reg1 = dst.index() as u8;
            f.cond = cond.index();
        }
        MInst::Jcc { cond, target } => {
            f.opcode = OP_JCC;
            f.cond = cond.index();
            imm = *target as u64;
        }
        MInst::Jmp { target } => {
            f.opcode = OP_JMP;
            imm = *target as u64;
        }
        MInst::JmpReg { reg: r } => {
            f.opcode = OP_JMP_REG;
            f.reg1 = r.index() as u8;
        }
        MInst::Load { dst, mem, size } => {
            f.opcode = OP_LOAD;
            f.reg1 = dst.index() as u8;
            f.byte_size = *size == 1;
            f.set_mem(mem);
            imm = mem.disp as i64 as u64;
        }
        MInst::Store { mem, src, size } => {
            f.opcode = OP_STORE;
            f.reg1 = src.index() as u8;
            f.byte_size = *size == 1;
            f.set_mem(mem);
            imm = mem.disp as i64 as u64;
        }
        MInst::Lea { dst, mem } => {
            f.opcode = OP_LEA;
            f.reg1 = dst.index() as u8;
            f.set_mem(mem);
            imm = mem.disp as i64 as u64;
        }
        MInst::Push { src } => {
            f.opcode = OP_PUSH;
            f.reg1 = src.index() as u8;
        }
        MInst::Pop { dst } => {
            f.opcode = OP_POP;
            f.reg1 = dst.index() as u8;
        }
        MInst::CallDirect { target } => {
            f.opcode = OP_CALL;
            imm = *target as u64;
        }
        MInst::CallReg { reg: r } => {
            f.opcode = OP_CALL_REG;
            f.reg1 = r.index() as u8;
        }
        MInst::CallExternal { index } => {
            f.opcode = OP_CALL_EXT;
            imm = *index as u64;
        }
        MInst::Ret => f.opcode = OP_RET,
        MInst::BndCheck { bnd, mem, upper } => {
            f.opcode = OP_BNDC;
            f.bnd1 = *bnd == BndReg::Bnd1;
            f.upper = *upper;
            f.set_mem(mem);
            imm = mem.disp as i64 as u64;
        }
        MInst::LoadCode { dst, addr } => {
            f.opcode = OP_LOAD_CODE;
            f.reg1 = dst.index() as u8;
            f.reg2 = addr.index() as u8;
        }
        MInst::ChkStk => f.opcode = OP_CHKSTK,
        MInst::MovGlobal { dst, index } => {
            f.opcode = OP_MOV_GLOBAL;
            f.reg1 = dst.index() as u8;
            imm = *index as u64;
        }
        MInst::MovFunc { dst, index } => {
            f.opcode = OP_MOV_FUNC;
            f.reg1 = dst.index() as u8;
            imm = *index as u64;
        }
        MInst::Trap { code } => {
            f.opcode = OP_TRAP;
            f.trap = *code;
        }
        MInst::Nop => f.opcode = OP_NOP,
    }
    EncodedInst {
        words: [f.pack(), imm],
        len: 2,
    }
}

/// Decode one instruction starting at `words[0]`; returns the instruction and
/// the number of words consumed.
pub fn decode_inst(
    words: &[u64],
    word_index: u32,
    prefixes: &MagicPrefixes,
) -> Result<(MInst, u32), DecodeError> {
    let err = |msg: String| DecodeError {
        word_index,
        message: msg,
    };
    let Some(&w0) = words.first() else {
        return Err(err("unexpected end of code".to_string()));
    };
    if prefixes.is_call_word(w0) || prefixes.is_ret_word(w0) {
        return Ok((MInst::MagicWord { value: w0 }, 1));
    }
    let f = Fields::unpack(w0);
    let imm = words
        .get(1)
        .copied()
        .ok_or_else(|| err("truncated instruction".to_string()))?;
    let simm = imm as i64;
    let size = if f.byte_size { 1u8 } else { 8u8 };
    let inst = match f.opcode {
        OP_MOV_IMM => MInst::MovImm {
            dst: reg(f.reg1),
            imm: simm,
        },
        OP_MOV_REG => MInst::MovReg {
            dst: reg(f.reg1),
            src: reg(f.reg2),
        },
        OP_ALU => MInst::Alu {
            op: AluOp::from_index(f.aluop).ok_or_else(|| err(format!("bad ALU op {}", f.aluop)))?,
            dst: reg(f.reg1),
            src: if f.rhs_is_imm {
                RegImm::Imm(simm)
            } else {
                RegImm::Reg(reg(f.reg2))
            },
        },
        OP_CMP => MInst::Cmp {
            lhs: reg(f.reg1),
            rhs: if f.rhs_is_imm {
                RegImm::Imm(simm)
            } else {
                RegImm::Reg(reg(f.reg2))
            },
        },
        OP_SETCC => MInst::SetCond {
            dst: reg(f.reg1),
            cond: Cond::from_index(f.cond).ok_or_else(|| err("bad condition".to_string()))?,
        },
        OP_JCC => MInst::Jcc {
            cond: Cond::from_index(f.cond).ok_or_else(|| err("bad condition".to_string()))?,
            target: imm as u32,
        },
        OP_JMP => MInst::Jmp { target: imm as u32 },
        OP_JMP_REG => MInst::JmpReg { reg: reg(f.reg1) },
        OP_LOAD => MInst::Load {
            dst: reg(f.reg1),
            mem: f.mem(simm),
            size,
        },
        OP_STORE => MInst::Store {
            mem: f.mem(simm),
            src: reg(f.reg1),
            size,
        },
        OP_LEA => MInst::Lea {
            dst: reg(f.reg1),
            mem: f.mem(simm),
        },
        OP_PUSH => MInst::Push { src: reg(f.reg1) },
        OP_POP => MInst::Pop { dst: reg(f.reg1) },
        OP_CALL => MInst::CallDirect { target: imm as u32 },
        OP_CALL_REG => MInst::CallReg { reg: reg(f.reg1) },
        OP_CALL_EXT => MInst::CallExternal { index: imm as u16 },
        OP_RET => MInst::Ret,
        OP_BNDC => MInst::BndCheck {
            bnd: if f.bnd1 { BndReg::Bnd1 } else { BndReg::Bnd0 },
            mem: f.mem(simm),
            upper: f.upper,
        },
        OP_LOAD_CODE => MInst::LoadCode {
            dst: reg(f.reg1),
            addr: reg(f.reg2),
        },
        OP_CHKSTK => MInst::ChkStk,
        OP_MOV_GLOBAL => MInst::MovGlobal {
            dst: reg(f.reg1),
            index: imm as u32,
        },
        OP_MOV_FUNC => MInst::MovFunc {
            dst: reg(f.reg1),
            index: imm as u32,
        },
        OP_TRAP => MInst::Trap { code: f.trap },
        OP_NOP => MInst::Nop,
        other => return Err(err(format!("unknown opcode {other}"))),
    };
    Ok((inst, 2))
}

/// Decode an entire code image into (word offset, instruction) pairs.
pub fn decode_words(
    words: &[u64],
    prefixes: &MagicPrefixes,
) -> Result<Vec<(u32, MInst)>, DecodeError> {
    let mut out = Vec::new();
    let mut i = 0u32;
    while (i as usize) < words.len() {
        let (inst, len) = decode_inst(&words[i as usize..], i, prefixes)?;
        out.push((i, inst));
        i += len;
    }
    Ok(out)
}

/// Encode a whole program into a binary, resolving nothing: control-flow
/// targets must already be word offsets.
pub fn encode_program(p: &Program) -> Binary {
    let mut words = Vec::with_capacity(p.insts.len() * 2);
    for inst in &p.insts {
        words.extend_from_slice(&encode_inst(inst));
    }
    let entry_word = p
        .functions
        .get(p.entry_function)
        .map(|f| f.entry_word)
        .unwrap_or(0);
    Binary {
        words,
        header: BinaryHeader {
            name: p.name.clone(),
            globals: p.globals.clone(),
            externs: p.externs.clone(),
            entry_word,
            prefixes: p.prefixes,
            scheme: p.scheme,
            cfi: p.cfi,
            separate_trusted_memory: p.separate_trusted_memory,
            split_stacks: p.split_stacks,
            functions: p.functions.clone(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_minic::Taint;

    fn roundtrip(inst: MInst) {
        let prefixes = MagicPrefixes::test_defaults();
        let words = encode_inst(&inst);
        let (decoded, len) = decode_inst(&words, 0, &prefixes).unwrap();
        assert_eq!(len as usize, words.len());
        assert_eq!(decoded, inst);
    }

    #[test]
    fn roundtrip_simple_instructions() {
        roundtrip(MInst::MovImm {
            dst: Reg::Rax,
            imm: -12345,
        });
        roundtrip(MInst::MovReg {
            dst: Reg::R12,
            src: Reg::Rcx,
        });
        roundtrip(MInst::Alu {
            op: AluOp::Xor,
            dst: Reg::Rbx,
            src: RegImm::Imm(-1),
        });
        roundtrip(MInst::Cmp {
            lhs: Reg::R9,
            rhs: RegImm::Reg(Reg::R10),
        });
        roundtrip(MInst::SetCond {
            dst: Reg::Rax,
            cond: Cond::Le,
        });
        roundtrip(MInst::Jcc {
            cond: Cond::Ne,
            target: 1234,
        });
        roundtrip(MInst::Ret);
        roundtrip(MInst::ChkStk);
        roundtrip(MInst::Trap { code: 2 });
        roundtrip(MInst::CallExternal { index: 7 });
        roundtrip(MInst::MovGlobal {
            dst: Reg::Rsi,
            index: 3,
        });
    }

    #[test]
    fn roundtrip_memory_instructions() {
        roundtrip(MInst::Load {
            dst: Reg::Rax,
            mem: MemOperand::base_index(Reg::Rcx, Reg::Rdx, 8, -64),
            size: 8,
        });
        roundtrip(MInst::Store {
            mem: MemOperand::base_disp(Reg::Rsp, 24).with_seg(Seg::Gs),
            src: Reg::R8,
            size: 1,
        });
        roundtrip(MInst::Lea {
            dst: Reg::Rdi,
            mem: MemOperand::base_index(Reg::Rsp, Reg::Rbx, 4, 100),
        });
        roundtrip(MInst::BndCheck {
            bnd: BndReg::Bnd1,
            mem: MemOperand::base_disp(Reg::Rcx, 8),
            upper: true,
        });
    }

    #[test]
    fn magic_words_are_one_word_and_recognised() {
        let prefixes = MagicPrefixes::test_defaults();
        let magic = prefixes.call_word([Taint::Private; 4], Taint::Public);
        let inst = MInst::MagicWord { value: magic };
        let words = encode_inst(&inst);
        assert_eq!(words.len(), 1);
        let (decoded, len) = decode_inst(&words, 0, &prefixes).unwrap();
        assert_eq!(len, 1);
        assert_eq!(decoded, inst);
    }

    #[test]
    fn decode_stream_with_mixed_instructions() {
        let prefixes = MagicPrefixes::test_defaults();
        let insts = vec![
            MInst::MagicWord {
                value: prefixes.call_word([Taint::Public; 4], Taint::Public),
            },
            MInst::MovImm {
                dst: Reg::Rax,
                imm: 1,
            },
            MInst::Ret,
        ];
        let mut words = Vec::new();
        for i in &insts {
            words.extend_from_slice(&encode_inst(i));
        }
        let decoded = decode_words(&words, &prefixes).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[0].0, 0);
        assert_eq!(decoded[1].0, 1);
        assert_eq!(decoded[2].0, 3);
        assert_eq!(decoded[2].1, MInst::Ret);
    }

    #[test]
    fn truncated_binary_is_rejected() {
        let prefixes = MagicPrefixes::test_defaults();
        let words = encode_inst(&MInst::MovImm {
            dst: Reg::Rax,
            imm: 7,
        });
        let truncated = &words[..1];
        assert!(decode_words(truncated, &prefixes).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let prefixes = MagicPrefixes::test_defaults();
        let words = vec![0xff, 0];
        assert!(decode_words(&words, &prefixes).is_err());
    }
}
