//! Memory operands.
//!
//! x64 memory operands have the form `[base + index*scale + disp]`.  The two
//! partitioning schemes of Section 3 add, respectively, a segment prefix
//! (`fs:`/`gs:`) and a restriction of the base/index registers to their low
//! 32 bits (segmentation scheme), or a pair of MPX bound checks before the
//! access (MPX scheme).

use crate::reg::Reg;

/// Segment prefix.  `fs` holds the base of the public region, `gs` the base
/// of the private region (Figure 3a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seg {
    Fs,
    Gs,
}

impl Seg {
    pub fn name(self) -> &'static str {
        match self {
            Seg::Fs => "fs",
            Seg::Gs => "gs",
        }
    }
}

/// An x64-style memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOperand {
    /// Optional segment prefix (segmentation scheme only).
    pub seg: Option<Seg>,
    /// Base register.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8).
    pub index: Option<(Reg, u8)>,
    /// Signed 32-bit displacement.
    pub disp: i32,
    /// If set, only the low 32 bits of the base and index registers
    /// contribute to the address (segmentation scheme, Section 3).
    pub use_low32: bool,
}

impl MemOperand {
    /// `[base]`
    pub fn base(base: Reg) -> Self {
        MemOperand {
            seg: None,
            base: Some(base),
            index: None,
            disp: 0,
            use_low32: false,
        }
    }

    /// `[base + disp]`
    pub fn base_disp(base: Reg, disp: i32) -> Self {
        MemOperand {
            disp,
            ..MemOperand::base(base)
        }
    }

    /// `[base + index*scale + disp]`
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i32) -> Self {
        MemOperand {
            seg: None,
            base: Some(base),
            index: Some((index, scale)),
            disp,
            use_low32: false,
        }
    }

    /// Add a segment prefix and restrict registers to their low 32 bits (the
    /// segmentation scheme applies both together).
    pub fn with_seg(mut self, seg: Seg) -> Self {
        self.seg = Some(seg);
        self.use_low32 = true;
        self
    }

    /// Registers read to compute the effective address.
    pub fn regs(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        if let Some(b) = self.base {
            v.push(b);
        }
        if let Some((i, _)) = self.index {
            v.push(i);
        }
        v
    }

    /// Effective address given a register-read function and the segment
    /// bases.  This is shared by the VM (for execution) and by nothing else —
    /// the verifier never computes addresses, it only reasons about checks.
    pub fn effective_address(
        &self,
        read_reg: &dyn Fn(Reg) -> u64,
        fs_base: u64,
        gs_base: u64,
    ) -> u64 {
        let mask = |v: u64| if self.use_low32 { v & 0xffff_ffff } else { v };
        let mut addr: u64 = 0;
        if let Some(b) = self.base {
            addr = addr.wrapping_add(mask(read_reg(b)));
        }
        if let Some((i, scale)) = self.index {
            addr = addr.wrapping_add(mask(read_reg(i)).wrapping_mul(scale as u64));
        }
        addr = addr.wrapping_add(self.disp as i64 as u64);
        match self.seg {
            Some(Seg::Fs) => addr.wrapping_add(fs_base),
            Some(Seg::Gs) => addr.wrapping_add(gs_base),
            None => addr,
        }
    }

    /// True when the operand is an rsp-relative stack access (candidate for
    /// the `_chkstk`-based check-elimination optimisation of Section 5.1).
    pub fn is_stack_relative(&self) -> bool {
        self.base == Some(Reg::Rsp) && self.index.is_none()
    }
}

impl std::fmt::Display for MemOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(b) = self.base {
            if self.use_low32 {
                parts.push(format!("e{}", &b.name()[1..]));
            } else {
                parts.push(b.name().to_string());
            }
        }
        if let Some((i, s)) = self.index {
            let iname = if self.use_low32 {
                format!("e{}", &i.name()[1..])
            } else {
                i.name().to_string()
            };
            parts.push(format!("{iname}*{s}"));
        }
        if self.disp != 0 || parts.is_empty() {
            parts.push(format!("{}", self.disp));
        }
        let body = parts.join("+");
        match self.seg {
            Some(s) => write!(f, "{}:[{}]", s.name(), body),
            None => write!(f, "[{}]", body),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_address_plain() {
        let mem = MemOperand::base_index(Reg::Rcx, Reg::Rdx, 8, 16);
        let read = |r: Reg| match r {
            Reg::Rcx => 0x1000u64,
            Reg::Rdx => 3,
            _ => 0,
        };
        assert_eq!(mem.effective_address(&read, 0, 0), 0x1000 + 24 + 16);
    }

    #[test]
    fn effective_address_segment_masks_to_32_bits() {
        // With the segmentation scheme, the upper 32 bits of the base come
        // from the segment register, not the general-purpose register.
        let mem = MemOperand::base(Reg::Rcx).with_seg(Seg::Gs);
        let read = |r: Reg| match r {
            Reg::Rcx => 0xdead_beef_0000_0010u64,
            _ => 0,
        };
        let gs = 0xb_0000_0000u64;
        assert_eq!(mem.effective_address(&read, 0, gs), gs + 0x10);
    }

    #[test]
    fn negative_displacement() {
        let mem = MemOperand::base_disp(Reg::Rsp, -8);
        let read = |_: Reg| 0x2000u64;
        assert_eq!(mem.effective_address(&read, 0, 0), 0x2000 - 8);
    }

    #[test]
    fn stack_relative_detection() {
        assert!(MemOperand::base_disp(Reg::Rsp, 24).is_stack_relative());
        assert!(!MemOperand::base_disp(Reg::Rcx, 24).is_stack_relative());
        assert!(!MemOperand::base_index(Reg::Rsp, Reg::Rcx, 1, 0).is_stack_relative());
    }

    #[test]
    fn display_segment_form_uses_32bit_register_names() {
        let mem = MemOperand::base_disp(Reg::Rsp, 4).with_seg(Seg::Gs);
        assert_eq!(mem.to_string(), "gs:[esp+4]");
        let plain = MemOperand::base_disp(Reg::Rcx, 0);
        assert_eq!(plain.to_string(), "[rcx]");
    }
}
