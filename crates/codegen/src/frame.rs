//! Stack frame layout with lock-step public/private frames (Section 3).
//!
//! Every IR value gets a home slot; `Alloca`s get a byte range.  A slot's
//! taint decides which of the two lock-step frames it lives in: public slots
//! are addressed `[rsp + off]`, private slots `[rsp + off + OFFSET]` (MPX
//! scheme) or `gs:[esp + off]` (segmentation scheme).  Both frames are the
//! same size and move together with a single `sub rsp, frame_size`.

use confllvm_ir::{Function, Inst, ValueId};
use confllvm_minic::Taint;

use crate::options::CodegenOptions;

/// A value's home slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Offset from rsp (identical in both frames thanks to lock-step layout).
    pub offset: i32,
    /// Which frame the slot lives in.
    pub taint: Taint,
}

/// An `Alloca`'s reserved byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocaArea {
    pub offset: i32,
    pub size: u32,
    pub taint: Taint,
}

/// The complete frame layout of one function.
#[derive(Debug, Clone, Default)]
pub struct FrameLayout {
    /// Home slot of each scalar value, indexed by value.
    slots: Vec<Option<Slot>>,
    /// Byte range of each alloca, indexed by the alloca's result value.
    allocas: Vec<Option<AllocaArea>>,
    /// Bytes reserved at the bottom of the frame for outgoing stack
    /// arguments (arguments beyond the four register arguments).
    pub outgoing_args_bytes: u32,
    /// Total frame size in bytes (16-byte aligned).
    pub frame_size: u32,
}

impl FrameLayout {
    /// Compute the frame layout for a function.
    pub fn build(f: &Function, opts: &CodegenOptions) -> FrameLayout {
        let mut layout = FrameLayout {
            slots: vec![None; f.values.len()],
            allocas: vec![None; f.values.len()],
            ..FrameLayout::default()
        };

        // Outgoing argument area: the widest call decides.
        let mut max_extra_args = 0usize;
        for b in &f.blocks {
            for inst in &b.insts {
                let nargs = match inst {
                    Inst::Call { args, .. }
                    | Inst::CallExtern { args, .. }
                    | Inst::CallIndirect { args, .. } => args.len(),
                    _ => 0,
                };
                max_extra_args = max_extra_args.max(nargs.saturating_sub(4));
            }
        }
        layout.outgoing_args_bytes = (max_extra_args as u32) * 8;

        let mut offset = layout.outgoing_args_bytes as i32;
        let reserve = |bytes: u32, offset: &mut i32| {
            let off = *offset;
            let aligned = bytes.div_ceil(8) * 8;
            *offset += aligned as i32;
            off
        };

        // A slot's frame is chosen by the value's inferred taint; when the
        // stacks are not split everything goes to the (single public) frame.
        let frame_taint = |t: Taint| if opts.split_stacks { t } else { Taint::Public };

        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Alloca { dst, size, .. } = inst {
                    let taint = frame_taint(f.value_info(*dst).pointee_taint);
                    let off = reserve((*size).max(8) as u32, &mut offset);
                    layout.allocas[dst.0 as usize] = Some(AllocaArea {
                        offset: off,
                        size: (*size).max(8) as u32,
                        taint,
                    });
                } else if let Some(dst) = inst.def() {
                    let taint = frame_taint(f.value_info(dst).taint);
                    let off = reserve(8, &mut offset);
                    layout.slots[dst.0 as usize] = Some(Slot { offset: off, taint });
                }
            }
        }
        // Parameters also need home slots (they are values 0..nparams and are
        // never defined by an instruction).
        for (i, p) in f.params.iter().enumerate() {
            let taint = frame_taint(f.param_taints[i]);
            let off = reserve(8, &mut offset);
            layout.slots[p.0 as usize] = Some(Slot { offset: off, taint });
        }

        layout.frame_size = (offset as u32).div_ceil(16) * 16;
        layout
    }

    /// Slot of a scalar value (panics for allocas — those use
    /// [`FrameLayout::alloca`]).
    pub fn slot(&self, v: ValueId) -> Option<Slot> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Every value's home slot, in value order.
    pub fn slots(&self) -> impl Iterator<Item = (ValueId, Slot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(v, s)| Some((ValueId(v as u32), (*s)?)))
    }

    /// The rsp-relative displacement a slot is addressed with under the MPX
    /// scheme: private slots live `private_stack_offset` above the public
    /// lock-step frame.  Machine passes use this to map stack stores back to
    /// the value whose home they overwrite.
    pub fn slot_disp(slot: Slot, split_stacks: bool, private_stack_offset: i64) -> i32 {
        if slot.taint == Taint::Private && split_stacks {
            slot.offset + private_stack_offset as i32
        } else {
            slot.offset
        }
    }

    pub fn alloca(&self, v: ValueId) -> Option<AllocaArea> {
        self.allocas.get(v.0 as usize).copied().flatten()
    }

    /// Offset (from the callee's rsp, after its prologue) of incoming stack
    /// argument `i` (i >= 4): skip the frame and the pushed return address.
    pub fn incoming_stack_arg_offset(&self, i: usize) -> i32 {
        self.frame_size as i32 + 8 + ((i - 4) as i32) * 8
    }

    /// Offset (from the caller's rsp) of outgoing stack argument `i`.
    pub fn outgoing_stack_arg_offset(i: usize) -> i32 {
        ((i - 4) as i32) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_ir::{infer, lower, InferOptions};
    use confllvm_minic::{parse, Sema};

    fn build_frame(src: &str, fname: &str, opts: &CodegenOptions) -> (Function, FrameLayout) {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let mut m = lower(&prog, &sema, "t").unwrap();
        infer(&mut m, InferOptions::default()).unwrap();
        let f = m.function(fname).unwrap().clone();
        let layout = FrameLayout::build(&f, opts);
        (f, layout)
    }

    #[test]
    fn private_buffers_go_to_the_private_frame() {
        let src = "
            extern void read_passwd(char *u, private char *p, int n);
            private int f(char *u) {
                char pw[64];
                char pubbuf[32];
                read_passwd(u, pw, 64);
                return pw[0] + pubbuf[0];
            }
        ";
        let (f, layout) = build_frame(src, "f", &CodegenOptions::mpx());
        let mut private_allocas = 0;
        let mut public_allocas = 0;
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Alloca { dst, .. } = inst {
                    match layout.alloca(*dst).unwrap().taint {
                        Taint::Private => private_allocas += 1,
                        Taint::Public => public_allocas += 1,
                    }
                }
            }
        }
        assert!(private_allocas >= 1, "pw must be on the private stack");
        assert!(public_allocas >= 1, "pubbuf must stay on the public stack");
    }

    #[test]
    fn unsplit_stacks_place_everything_public() {
        let src = "
            extern void read_passwd(char *u, private char *p, int n);
            private int f(char *u) { char pw[64]; read_passwd(u, pw, 64); return pw[0]; }
        ";
        let mut opts = CodegenOptions::mpx();
        opts.split_stacks = false;
        let (_f, layout) = build_frame(src, "f", &opts);
        assert!(layout
            .allocas
            .iter()
            .flatten()
            .all(|a| a.taint == Taint::Public));
        assert!(layout.slots().all(|(_, s)| s.taint == Taint::Public));
    }

    #[test]
    fn frame_is_16_byte_aligned_and_covers_outgoing_args() {
        let src = "
            int callee(int a, int b, int c, int d, int e, int f) { return a + f; }
            int caller() { return callee(1, 2, 3, 4, 5, 6); }
        ";
        let (_f, layout) = build_frame(src, "caller", &CodegenOptions::baseline());
        assert_eq!(layout.frame_size % 16, 0);
        assert_eq!(layout.outgoing_args_bytes, 16);
        assert!(layout.frame_size >= 16);
    }

    #[test]
    fn slots_do_not_overlap() {
        let src = "int f(int a, int b) { int c = a + b; int d = c * 2; return d - a; }";
        let (_f, layout) = build_frame(src, "f", &CodegenOptions::segment());
        let mut ranges: Vec<(i32, i32)> = layout
            .slots()
            .map(|(_, s)| (s.offset, s.offset + 8))
            .chain(
                layout
                    .allocas
                    .iter()
                    .flatten()
                    .map(|a| (a.offset, a.offset + a.size as i32)),
            )
            .collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlapping slots: {w:?}");
        }
    }
}
