//! Machine registers and the calling convention.
//!
//! The ISA is an abstract 64-bit machine modelled after x64 with the Windows
//! x64 calling convention the paper uses (Section 4): four argument
//! registers, one return register, the usual caller-/callee-saved split.

/// General-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Reg {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    pub const COUNT: usize = 16;

    /// All registers, in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rbx,
        Reg::Rsp,
        Reg::Rbp,
        Reg::Rsi,
        Reg::Rdi,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn from_index(i: usize) -> Option<Reg> {
        Reg::ALL.get(i).copied()
    }

    pub fn name(self) -> &'static str {
        match self {
            Reg::Rax => "rax",
            Reg::Rcx => "rcx",
            Reg::Rdx => "rdx",
            Reg::Rbx => "rbx",
            Reg::Rsp => "rsp",
            Reg::Rbp => "rbp",
            Reg::Rsi => "rsi",
            Reg::Rdi => "rdi",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::R12 => "r12",
            Reg::R13 => "r13",
            Reg::R14 => "r14",
            Reg::R15 => "r15",
        }
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Argument registers, in order (Windows x64: rcx, rdx, r8, r9).
pub const ARG_REGS: [Reg; 4] = [Reg::Rcx, Reg::Rdx, Reg::R8, Reg::R9];

/// Return-value register.
pub const RET_REG: Reg = Reg::Rax;

/// Callee-saved registers under the Windows x64 convention.
pub const CALLEE_SAVED: [Reg; 8] = [
    Reg::Rbx,
    Reg::Rbp,
    Reg::Rdi,
    Reg::Rsi,
    Reg::R12,
    Reg::R13,
    Reg::R14,
    Reg::R15,
];

/// Caller-saved (volatile) registers.
pub const CALLER_SAVED: [Reg; 7] = [
    Reg::Rax,
    Reg::Rcx,
    Reg::Rdx,
    Reg::R8,
    Reg::R9,
    Reg::R10,
    Reg::R11,
];

/// Registers the code generator may use for holding IR values.  `rsp` is the
/// stack pointer; `r10`/`r11` are reserved as scratch registers for address
/// computation and the CFI expansions; `rax` is reserved for return values
/// and as a third scratch register.
pub const ALLOCATABLE: [Reg; 11] = [
    Reg::Rcx,
    Reg::Rdx,
    Reg::R8,
    Reg::R9,
    Reg::Rbx,
    Reg::Rbp,
    Reg::Rsi,
    Reg::Rdi,
    Reg::R12,
    Reg::R13,
    Reg::R14,
];

/// Scratch registers reserved for the instruction selector and the CFI/check
/// expansions.
pub const SCRATCH0: Reg = Reg::R10;
pub const SCRATCH1: Reg = Reg::R11;
pub const SCRATCH2: Reg = Reg::R15;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_indices_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index()), Some(r));
        }
        assert_eq!(Reg::from_index(16), None);
    }

    #[test]
    fn calling_convention_sets_are_disjoint() {
        for r in CALLEE_SAVED {
            assert!(!CALLER_SAVED.contains(&r));
        }
        for r in ARG_REGS {
            assert!(CALLER_SAVED.contains(&r));
        }
        assert!(CALLER_SAVED.contains(&RET_REG));
    }

    #[test]
    fn allocatable_excludes_reserved() {
        assert!(!ALLOCATABLE.contains(&Reg::Rsp));
        assert!(!ALLOCATABLE.contains(&SCRATCH0));
        assert!(!ALLOCATABLE.contains(&SCRATCH1));
        assert!(!ALLOCATABLE.contains(&SCRATCH2));
        assert!(!ALLOCATABLE.contains(&RET_REG));
    }
}
