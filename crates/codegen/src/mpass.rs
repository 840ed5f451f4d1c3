//! The machine-level pass manager: bounds-check optimisation passes over
//! compiled (but not yet linked) functions.
//!
//! Instruction selection emits MPX checks naively — a bndcl/bndcu pair
//! before *every* memory access — and records a [`CheckSite`] for each pair.
//! The passes here remove the redundant ones:
//!
//! * `mpx-skip-stack-checks` — drop checks on rsp-relative frame accesses
//!   (the inlined `_chkstk` keeps rsp inside the stack area, Section 5.1),
//! * `mpx-fold-displacements` — narrow a check of `[base + disp]` to
//!   `[base]` for small `disp`, relying on the 1 MiB guard areas around the
//!   regions (Section 5.1),
//! * `mpx-coalesce-checks` — drop a check whose address was already checked
//!   against the same region earlier *in the same block* with no intervening
//!   call (Section 5.1),
//! * `mpx-hoist-checks` — emit one check of a loop-invariant base in the
//!   loop preheader, making the per-iteration checks redundant,
//! * `mpx-cross-block-elim` — drop checks that are available on *every* CFG
//!   path (a forward must-dataflow over the IR blocks, `avail_in`) **and**
//!   along the linear code layout, which is the discipline ConfVerify's
//!   single-pass scan can re-derive.  Requiring both keeps the elimination
//!   semantically sound (no path reaches the access unchecked) and
//!   verifiable (the binary still convinces the independent checker).
//!
//! All passes are taint-aware by construction: a check is only ever removed
//! when a check of the *same region* against the same address is proved to
//! dominate it, so the set of binaries the verifier must accept never
//! widens.
//!
//! Each pass is a plain function and a row of this module's `PASSES`
//! table, parsed by the IR layer's [`confllvm_ir::pm::parse_pipeline`].
//! A pipeline's run reports through the IR layer's [`PipelineReport`],
//! which the linker merges across a module's functions.

use std::collections::{BTreeSet, HashMap, HashSet};

use confllvm_ir::pm::{parse_pipeline, PassRun, PassSpec, PipelineError, PipelineReport};
use confllvm_ir::{natural_loops, BlockId, DomTree, Function, Inst, Module, Operand, ValueId};
use confllvm_machine::{BndReg, MInst, MemOperand, MemoryLayout, Scheme, Taint, SCRATCH2};

use crate::frame::FrameLayout;
use crate::isel::{
    add_const_defs, global_addr_defs, lookup, materialize_value, CheckKind, CheckSite,
    CompiledFunction, ValueTable,
};
use crate::options::CodegenOptions;
use crate::CodegenError;

/// Displacements the guard areas around the MPX regions can absorb — the
/// single shared limit the selector's address folding also uses.
const GUARD: i64 = MemoryLayout::MPX_GUARD_SIZE as i64 - 1;

/// Symbolic base of a checked address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseSym {
    /// The (single-assignment) value the base register was loaded from.
    Val(ValueId),
    /// A global's address — a link-time constant, invariant everywhere.
    Global(u32),
}

/// The identity of a bounds check: what address against which region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CheckKey {
    pub base: BaseSym,
    pub disp: i32,
    pub taint: Taint,
}

/// Shared analysis context handed to every machine pass of one function.
pub(crate) struct MachineCtx<'a> {
    f: &'a Function,
    frame: &'a FrameLayout,
    opts: &'a CodegenOptions,
    layout: MemoryLayout,
    /// Set by `mpx-fold-displacements`: checks now cover the base register
    /// only, so availability keys ignore displacements.
    folded: bool,
    /// Keys checked at the *end* of each preheader block (indexed by block)
    /// by `mpx-hoist-checks`, consumed by the availability analysis of
    /// `mpx-cross-block-elim`.
    hoisted: Vec<Vec<CheckKey>>,
    add_const: ValueTable<(ValueId, i64)>,
    globals: ValueTable<u32>,
}

impl<'a> MachineCtx<'a> {
    pub fn new(
        module: &'a Module,
        f: &'a Function,
        frame: &'a FrameLayout,
        opts: &'a CodegenOptions,
    ) -> MachineCtx<'a> {
        MachineCtx {
            f,
            frame,
            opts,
            layout: MemoryLayout::new(opts.scheme, opts.split_stacks, opts.separate_trusted_memory),
            folded: false,
            hoisted: vec![Vec::new(); f.blocks.len()],
            add_const: add_const_defs(f),
            globals: global_addr_defs(module, f),
        }
    }

    /// The check key of an IR access address, mirroring the selector's
    /// address resolution (and the fold pass when it has run).
    fn key_of_addr(&self, addr: Operand, region: Taint) -> Option<CheckKey> {
        let v = addr.as_value()?;
        let (base, disp) = match lookup(&self.add_const, v) {
            Some((b, c)) if c.abs() < GUARD => (b, c as i32),
            _ => (v, 0),
        };
        let disp = if self.folded { 0 } else { disp };
        let sym = match lookup(&self.globals, base) {
            Some(g) => BaseSym::Global(g),
            None => BaseSym::Val(base),
        };
        Some(CheckKey {
            base: sym,
            disp,
            taint: region,
        })
    }

    /// The key of a recorded check site.
    fn key_of_site(&self, site: &CheckSite) -> Option<CheckKey> {
        let sym = match (site.global, site.base_val) {
            (Some(g), _) => BaseSym::Global(g),
            (None, Some(v)) => BaseSym::Val(v),
            (None, None) => return None,
        };
        Some(CheckKey {
            base: sym,
            disp: site.disp,
            taint: site.taint,
        })
    }
}

/// What a machine pass's `run` is: it transforms one compiled function and
/// returns the number of changes made.
type MachineRun = fn(&mut CompiledFunction, &mut MachineCtx) -> usize;

/// The machine passes: the one list the pipeline parser looks names up in.
const PASSES: &[PassSpec<MachineRun>] = &[
    PassSpec {
        name: "mpx-skip-stack-checks",
        after: &[],
        requires: &[],
        run: skip_stack_checks,
    },
    PassSpec {
        name: "mpx-fold-displacements",
        after: &[],
        requires: &[],
        run: fold_displacements,
    },
    PassSpec {
        name: "mpx-coalesce-checks",
        after: &["mpx-skip-stack-checks", "mpx-fold-displacements"],
        requires: &[],
        run: coalesce_checks,
    },
    PassSpec {
        name: "mpx-hoist-checks",
        after: &[
            "mpx-skip-stack-checks",
            "mpx-fold-displacements",
            "mpx-coalesce-checks",
        ],
        // Hoisting only *adds* checks; the elimination pass that makes the
        // in-loop ones redundant must follow, or the pipeline is a net loss.
        requires: &["mpx-cross-block-elim"],
        run: hoist_checks,
    },
    PassSpec {
        name: "mpx-cross-block-elim",
        after: &[
            "mpx-skip-stack-checks",
            "mpx-fold-displacements",
            "mpx-coalesce-checks",
            "mpx-hoist-checks",
        ],
        requires: &[],
        run: cross_block_elim,
    },
];

/// An ordered, validated machine pipeline.
#[derive(Debug)]
pub(crate) struct MachinePipeline {
    passes: Vec<PassSpec<MachineRun>>,
}

impl MachinePipeline {
    /// Parse a comma-separated pipeline description (empty = no passes).
    pub fn parse(text: &str) -> Result<MachinePipeline, CodegenError> {
        let passes = parse_pipeline(text, PASSES).map_err(|e| CodegenError {
            message: match e {
                PipelineError::UnknownPass(name) => format!("unknown machine pass `{name}`"),
                e => format!("invalid machine pipeline: {e}"),
            },
        })?;
        Ok(MachinePipeline { passes })
    }

    /// Run the pipeline over one compiled function.
    ///
    /// With the process-wide [`confllvm_obs::recorder`] enabled, each pass
    /// records a `compiler`-layer span carrying its change count, the
    /// instruction-stream size (instructions touched) and how many check
    /// sites the pass deleted.  The spans only read the function, so traced
    /// and untraced pipelines produce identical code.
    pub fn run(&self, mf: &mut CompiledFunction, cx: &mut MachineCtx) -> PipelineReport {
        let rec = confllvm_obs::recorder();
        let mut report = PipelineReport::default();
        for p in &self.passes {
            let checks_before = mf.check_sites.len();
            let mut span = rec.span("compiler", p.name);
            let changes = (p.run)(mf, cx);
            if span.active() {
                span.attr("layer", "machine");
                span.attr("changes", changes);
                span.attr("insts", mf.insts.len());
                span.attr(
                    "checks_deleted",
                    checks_before.saturating_sub(mf.check_sites.len()),
                );
            }
            report.per_pass.push(PassRun {
                name: p.name,
                changes,
            });
        }
        report
    }
}

// ---------------------------------------------------------------------------
// instruction stream surgery
// ---------------------------------------------------------------------------

/// Delete the instructions flagged in `dead` (one flag per instruction),
/// remapping labels, patches, check sites and block spans through one
/// prefix sum of the deleted counts.  Returns how many were deleted.
fn delete_insts(mf: &mut CompiledFunction, dead: &[bool]) -> usize {
    // removed_before[i]: deleted instructions at indices below i, for every
    // i up to and including the end of the stream.
    let mut removed_before = Vec::with_capacity(dead.len() + 1);
    let mut removed = 0usize;
    for &d in dead {
        removed_before.push(removed);
        removed += d as usize;
    }
    removed_before.push(removed);
    if removed == 0 {
        return 0;
    }
    let shift = |idx: usize| idx - removed_before[idx];
    let mut i = 0;
    mf.insts.retain(|_| {
        i += 1;
        !dead[i - 1]
    });
    for l in &mut mf.labels {
        if *l != usize::MAX {
            *l = shift(*l);
        }
    }
    for (idx, _) in &mut mf.patches {
        debug_assert!(!dead[*idx], "patched instructions are never dead");
        *idx = shift(*idx);
    }
    mf.check_sites.retain(|s| !dead[s.lower]);
    for s in &mut mf.check_sites {
        s.lower = shift(s.lower);
        s.upper = shift(s.upper);
    }
    for b in &mut mf.mblocks {
        b.start = shift(b.start);
        b.term_start = shift(b.term_start);
    }
    removed
}

/// Insert instructions at `at`, remapping all recorded indices.  A label
/// pointing exactly at `at` keeps pointing at the first inserted instruction
/// (jumps into the block must execute hoisted code).
fn insert_insts(mf: &mut CompiledFunction, at: usize, new: Vec<MInst>) {
    let n = new.len();
    if n == 0 {
        return;
    }
    mf.insts.splice(at..at, new);
    for l in &mut mf.labels {
        if *l != usize::MAX && *l > at {
            *l += n;
        }
    }
    for (idx, _) in &mut mf.patches {
        if *idx >= at {
            *idx += n;
        }
    }
    for s in &mut mf.check_sites {
        if s.lower >= at {
            s.lower += n;
            s.upper += n;
        }
    }
    for b in &mut mf.mblocks {
        if b.start > at {
            b.start += n;
        }
        if b.term_start >= at {
            b.term_start += n;
        }
    }
}

/// For each instruction index, the check site whose lower check sits there
/// (`usize::MAX` for none).
fn site_at_lower(mf: &CompiledFunction) -> Vec<usize> {
    let mut site = vec![usize::MAX; mf.insts.len()];
    for (i, s) in mf.check_sites.iter().enumerate() {
        site[s.lower] = i;
    }
    site
}

/// The half-open instruction ranges of each block, in emission order.
fn block_ranges(mf: &CompiledFunction) -> Vec<(BlockId, usize, usize)> {
    let mut ranges = Vec::with_capacity(mf.mblocks.len());
    for (i, b) in mf.mblocks.iter().enumerate() {
        let end = mf
            .mblocks
            .get(i + 1)
            .map(|n| n.start)
            .unwrap_or(mf.insts.len());
        ranges.push((b.id, b.start, end));
    }
    ranges
}

fn is_call(inst: &MInst) -> bool {
    matches!(
        inst,
        MInst::CallDirect { .. } | MInst::CallReg { .. } | MInst::CallExternal { .. }
    )
}

// ---------------------------------------------------------------------------
// the passes
// ---------------------------------------------------------------------------

fn skip_stack_checks(mf: &mut CompiledFunction, _cx: &mut MachineCtx) -> usize {
    let mut dead = vec![false; mf.insts.len()];
    for s in &mf.check_sites {
        if s.kind == CheckKind::Stack {
            dead[s.lower] = true;
            dead[s.upper] = true;
        }
    }
    delete_insts(mf, &dead) / 2
}

fn fold_displacements(mf: &mut CompiledFunction, cx: &mut MachineCtx) -> usize {
    let mut changed = 0;
    for s in &mut mf.check_sites {
        if s.kind != CheckKind::User || (s.disp as i64).abs() >= GUARD {
            continue;
        }
        if s.disp != 0 {
            for idx in [s.lower, s.upper] {
                if let MInst::BndCheck { mem, .. } = &mut mf.insts[idx] {
                    mem.disp = 0;
                }
            }
            s.disp = 0;
            changed += 1;
        }
    }
    cx.folded = true;
    changed
}

fn coalesce_checks(mf: &mut CompiledFunction, cx: &mut MachineCtx) -> usize {
    if mf.check_sites.is_empty() {
        return 0;
    }
    let site_by_lower = site_at_lower(mf);
    let mut dead = vec![false; mf.insts.len()];
    for (_, start, end) in block_ranges(mf) {
        let mut checked: HashSet<CheckKey> = HashSet::new();
        for (inst, &si) in mf.insts[start..end].iter().zip(&site_by_lower[start..end]) {
            if is_call(inst) {
                checked.clear();
                continue;
            }
            if let Some(site) = mf.check_sites.get(si) {
                if site.kind != CheckKind::User {
                    continue;
                }
                if let Some(key) = cx.key_of_site(site) {
                    if !checked.insert(key) {
                        dead[site.lower] = true;
                        dead[site.upper] = true;
                    }
                }
            }
        }
    }
    delete_insts(mf, &dead) / 2
}

fn hoist_checks(mf: &mut CompiledFunction, cx: &mut MachineCtx) -> usize {
    if mf.check_sites.is_empty() || cx.opts.scheme != Scheme::Mpx {
        return 0;
    }
    let f = cx.f;
    let doms = DomTree::new(f);
    let loops = natural_loops(f, &doms);
    if loops.is_empty() {
        return 0;
    }
    // Defining block of every value (parameters live in the entry).
    let mut def_block: Vec<Option<BlockId>> = vec![None; f.values.len()];
    for p in &f.params {
        def_block[p.0 as usize] = Some(f.entry());
    }
    for b in &f.blocks {
        for inst in &b.insts {
            if let Some(d) = inst.def() {
                def_block[d.0 as usize] = Some(b.id);
            }
        }
    }
    let has_call: Vec<bool> = f
        .blocks
        .iter()
        .map(|b| b.insts.iter().any(Inst::is_call))
        .collect();

    let mut hoisted_total = 0usize;
    // Keys already hoisted into an enclosing loop, with that loop.
    let mut enclosing: Vec<(&confllvm_ir::NaturalLoop, CheckKey)> = Vec::new();
    for l in &loops {
        let Some(preheader) = l.preheader else {
            continue;
        };
        if l.body.iter().any(|b| has_call[b.0 as usize]) {
            // A call clobbers the bound registers conservatively: hoisted
            // availability would not survive an iteration.
            continue;
        }
        let mut keys: BTreeSet<CheckKey> = BTreeSet::new();
        for site in &mf.check_sites {
            if site.kind != CheckKind::User || !l.contains(site.block) {
                continue;
            }
            // Profitability: only checks that execute on every complete
            // iteration are worth paying for up front.
            if !l.latches.iter().all(|&t| doms.dominates(site.block, t)) {
                continue;
            }
            let Some(key) = cx.key_of_site(site) else {
                continue;
            };
            // Safety: the hoisted check runs even when the loop is never
            // entered (zero-trip), so it must be provably unable to
            // fault.  That restricts hoisting to bases that are
            // in-region by construction — global addresses and alloca
            // (stack) addresses, whose folded displacement the guard
            // areas absorb.  Arbitrary loop-invariant pointer values
            // (e.g. heap pointers held in registers) must NOT be
            // speculated: an out-of-region pointer guarded by a false
            // loop condition would turn a clean exit into a fault.
            let invariant = match key.base {
                BaseSym::Global(_) => true,
                BaseSym::Val(v) => {
                    cx.frame.alloca(v).is_some()
                        && match def_block.get(v.0 as usize).copied().flatten() {
                            Some(db) => !l.contains(db) && doms.dominates(db, preheader),
                            None => false,
                        }
                }
            };
            if !invariant {
                continue;
            }
            if enclosing
                .iter()
                .any(|(outer, k)| *k == key && outer.contains(l.header))
            {
                continue;
            }
            keys.insert(key);
        }
        if keys.is_empty() {
            continue;
        }
        let mut new_insts: Vec<MInst> = Vec::new();
        let mut new_sites: Vec<CheckSite> = Vec::new();
        let mut new_keys: Vec<CheckKey> = Vec::new();
        let at = mf
            .mblocks
            .iter()
            .find(|b| b.id == preheader)
            .map(|b| b.term_start);
        let Some(at) = at else { continue };
        for key in keys {
            let mat = match key.base {
                BaseSym::Global(g) => vec![MInst::MovGlobal {
                    dst: SCRATCH2,
                    index: g,
                }],
                BaseSym::Val(v) => materialize_value(cx.frame, cx.opts, &cx.layout, v, SCRATCH2),
            };
            let bnd = if key.taint == Taint::Private {
                BndReg::Bnd1
            } else {
                BndReg::Bnd0
            };
            let mem = MemOperand::base_disp(SCRATCH2, key.disp);
            let lower_at = at + new_insts.len() + mat.len();
            new_insts.extend(mat);
            new_insts.push(MInst::BndCheck {
                bnd,
                mem,
                upper: false,
            });
            new_insts.push(MInst::BndCheck {
                bnd,
                mem,
                upper: true,
            });
            let (base_val, global) = match key.base {
                BaseSym::Val(v) => (Some(v), None),
                BaseSym::Global(g) => (None, Some(g)),
            };
            new_sites.push(CheckSite {
                lower: lower_at,
                upper: lower_at + 1,
                kind: CheckKind::User,
                block: preheader,
                base_val,
                global,
                disp: key.disp,
                taint: key.taint,
            });
            new_keys.push(key);
            enclosing.push((l, key));
            hoisted_total += 1;
        }
        // The new sites carry their post-insertion indices, so they are
        // registered after `insert_insts` has shifted the existing ones.
        insert_insts(mf, at, new_insts);
        mf.check_sites.extend(new_sites);
        cx.hoisted[preheader.0 as usize].extend(new_keys);
    }
    hoisted_total
}

/// The forward availability analysis behind `mpx-cross-block-elim`: the
/// check keys checked on every path into each block, indexed by block.
/// `None` is the universal set, the optimistic fact of a block no path has
/// reached yet; intersection only ever shrinks it.  The worklist starts
/// with every block, pops the last, and gives up after `64n + 1024` visits.
fn avail_in(cx: &MachineCtx) -> Vec<Option<HashSet<CheckKey>>> {
    let f = cx.f;
    let n = f.blocks.len();
    let mut in_facts: Vec<Option<HashSet<CheckKey>>> = vec![None; n];
    in_facts[f.entry().0 as usize] = Some(HashSet::new());
    let mut worklist: Vec<BlockId> = f.blocks.iter().map(|b| b.id).collect();
    let mut queued = vec![true; n];
    let mut iterations = 0usize;
    while let Some(b) = worklist.pop() {
        queued[b.0 as usize] = false;
        iterations += 1;
        if iterations > n * 64 + 1024 {
            break;
        }
        // The block's effect: accesses check their address, a call
        // clobbers the bound registers, a redefinition kills its keys, and
        // a preheader ends with the checks hoisted into it.
        let mut out = in_facts[b.0 as usize].clone();
        for inst in &f.block(b).insts {
            if inst.is_call() {
                out = Some(HashSet::new());
                continue;
            }
            let Some(avail) = &mut out else { continue };
            if let Inst::Load { addr, region, .. } | Inst::Store { addr, region, .. } = inst {
                avail.extend(cx.key_of_addr(*addr, *region));
            }
            if let Some(d) = inst.def() {
                avail.retain(|k| k.base != BaseSym::Val(d));
            }
        }
        // A fact still universal at the block's end adds nothing to its
        // successors' intersections.
        let Some(mut out) = out else { continue };
        out.extend(&cx.hoisted[b.0 as usize]);
        for succ in f.block(b).term.successors() {
            let s = succ.0 as usize;
            let changed = match &mut in_facts[s] {
                Some(avail) => {
                    let before = avail.len();
                    avail.retain(|k| out.contains(k));
                    avail.len() != before
                }
                fact @ None => {
                    *fact = Some(out.clone());
                    true
                }
            };
            if changed && !queued[s] {
                queued[s] = true;
                worklist.push(succ);
            }
        }
    }
    in_facts
}

fn cross_block_elim(mf: &mut CompiledFunction, cx: &mut MachineCtx) -> usize {
    if mf.check_sites.is_empty() {
        return 0;
    }
    let avail_in = avail_in(cx);

    // ConfVerify scans each procedure linearly: an elimination is only
    // verifiable if the providing check also precedes the access in the
    // code layout with no intervening call or slot overwrite.  Track that
    // linear availability in lock-step with the CFG facts.
    let slot_owner: HashMap<i32, ValueId> = cx
        .frame
        .slots()
        .map(|(v, slot)| {
            let disp = FrameLayout::slot_disp(
                slot,
                cx.opts.split_stacks,
                cx.layout.private_stack_offset(),
            );
            (disp, v)
        })
        .collect();
    let site_by_lower = site_at_lower(mf);

    let mut linear: HashSet<CheckKey> = HashSet::new();
    let mut dead = vec![false; mf.insts.len()];
    for (bid, start, end) in block_ranges(mf) {
        // A block no fact has reached gets nothing for free.
        let mut avail = avail_in[bid.0 as usize].clone().unwrap_or_default();
        for (inst, &si) in mf.insts[start..end].iter().zip(&site_by_lower[start..end]) {
            if is_call(inst) {
                avail.clear();
                linear.clear();
                continue;
            }
            if let MInst::Store { mem, .. } = inst {
                if mem.is_stack_relative() {
                    if let Some(v) = slot_owner.get(&mem.disp) {
                        avail.retain(|k| k.base != BaseSym::Val(*v));
                        linear.retain(|k| k.base != BaseSym::Val(*v));
                    }
                }
            }
            if let Some(site) = mf.check_sites.get(si) {
                if site.kind != CheckKind::User {
                    continue;
                }
                let Some(key) = cx.key_of_site(site) else {
                    continue;
                };
                // Alloca-materialised bases verify through the chkstk
                // offset rule; everything else through slot or global
                // provenance.
                let verifiable = match key.base {
                    BaseSym::Global(_) => true,
                    BaseSym::Val(v) => {
                        cx.frame.alloca(v).is_none() || cx.opts.separate_trusted_memory
                    }
                };
                if verifiable && avail.contains(&key) && linear.contains(&key) {
                    dead[site.lower] = true;
                    dead[site.upper] = true;
                } else {
                    avail.insert(key);
                    linear.insert(key);
                }
            }
        }
    }
    delete_insts(mf, &dead) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use confllvm_ir::{infer, lower, InferOptions, PassManager, DEFAULT_IR_PIPELINE};
    use confllvm_minic::{parse, Sema};
    use proptest::prelude::*;

    /// The remap `delete_insts` replaced: one ordered-set range count per
    /// recorded index.  Kept only as the oracle for the prefix sum.
    fn delete_insts_naive(mf: &mut CompiledFunction, dead: &BTreeSet<usize>) {
        if dead.is_empty() {
            return;
        }
        let removed_before = |idx: usize| dead.range(..idx).count();
        mf.insts = mf
            .insts
            .iter()
            .enumerate()
            .filter(|(i, _)| !dead.contains(i))
            .map(|(_, inst)| *inst)
            .collect();
        for l in &mut mf.labels {
            if *l != usize::MAX {
                *l -= removed_before(*l);
            }
        }
        for (idx, _) in &mut mf.patches {
            *idx -= removed_before(*idx);
        }
        mf.check_sites.retain(|s| !dead.contains(&s.lower));
        for s in &mut mf.check_sites {
            s.lower -= removed_before(s.lower);
            s.upper -= removed_before(s.upper);
        }
        for b in &mut mf.mblocks {
            b.start -= removed_before(b.start);
            b.term_start -= removed_before(b.term_start);
        }
    }

    /// Every function of a small program with loops, globals, pointers and
    /// calls, selected under MPX so it carries check sites.
    fn compiled_functions() -> Vec<CompiledFunction> {
        let src = "
            int table[16];
            int sum(int *p, int n) {
                int s = 0; int i;
                for (i = 0; i < n; i = i + 1) { s = s + p[i] + table[i % 16]; }
                return s;
            }
            int main() {
                int local[8]; int j;
                for (j = 0; j < 8; j = j + 1) { local[j] = j; table[j] = j * 2; }
                if (local[3] > 2) { return sum(local, 8); }
                return table[5];
            }
        ";
        let ast = parse(src).unwrap();
        let sema = Sema::analyze(&ast).unwrap();
        let mut module = lower(&ast, &sema, "t").unwrap();
        PassManager::parse(DEFAULT_IR_PIPELINE)
            .unwrap()
            .run(&mut module);
        infer(&mut module, InferOptions::default()).unwrap();
        let func_index: HashMap<String, usize> = module
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), i))
            .collect();
        let opts = CodegenOptions::mpx();
        module
            .functions
            .iter()
            .map(|f| crate::isel::compile_function(&module, f, &opts, &func_index).unwrap())
            .collect()
    }

    fn assert_same(a: &CompiledFunction, b: &CompiledFunction) {
        assert_eq!(a.insts, b.insts);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.patches, b.patches);
        assert_eq!(a.check_sites, b.check_sites);
        assert_eq!(a.mblocks, b.mblocks);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn prefix_sum_delete_matches_the_naive_remap(
            which in 0usize..2,
            picks in prop::collection::vec(0usize..1 << 16, 0..64),
        ) {
            let base = &compiled_functions()[which];
            assert!(!base.check_sites.is_empty());
            // Any instruction may go except the magic-patched ones (the
            // linker patches them in place).
            let n = base.insts.len();
            let dead: BTreeSet<usize> = picks
                .iter()
                .map(|p| p % n)
                .filter(|i| base.patches.iter().all(|(idx, _)| idx != i))
                .collect();
            let mut mask = vec![false; n];
            for &i in &dead {
                mask[i] = true;
            }
            let mut fast = base.clone();
            let mut naive = base.clone();
            prop_assert_eq!(delete_insts(&mut fast, &mask), dead.len());
            delete_insts_naive(&mut naive, &dead);
            assert_same(&fast, &naive);
        }
    }

    #[test]
    fn deleting_whole_check_sites_matches_the_naive_remap() {
        for base in compiled_functions() {
            for step in 1..4 {
                let dead: BTreeSet<usize> = base
                    .check_sites
                    .iter()
                    .step_by(step)
                    .flat_map(|s| [s.lower, s.upper])
                    .collect();
                let mut mask = vec![false; base.insts.len()];
                for &i in &dead {
                    mask[i] = true;
                }
                let mut fast = base.clone();
                let mut naive = base.clone();
                assert_eq!(delete_insts(&mut fast, &mask), dead.len());
                delete_insts_naive(&mut naive, &dead);
                assert_same(&fast, &naive);
                assert!(fast.check_sites.len() < base.check_sites.len());
            }
        }
    }

    #[test]
    fn pass_table_names_are_unique_and_dependencies_resolve() {
        for (i, p) in PASSES.iter().enumerate() {
            assert!(
                PASSES[..i].iter().all(|q| q.name != p.name),
                "`{}` is listed twice",
                p.name
            );
            for dep in p.after.iter().chain(p.requires) {
                assert!(
                    PASSES.iter().any(|q| q.name == *dep),
                    "`{}` names `{dep}`, which is not a machine pass",
                    p.name
                );
            }
        }
        for pipeline in [
            crate::options::PIPELINE_MPX_FULL,
            crate::options::PIPELINE_MPX_PR1,
        ] {
            MachinePipeline::parse(pipeline).unwrap();
        }
    }

    #[test]
    fn pipeline_parsing_validates_names_and_constraints() {
        assert!(MachinePipeline::parse("").unwrap().passes.is_empty());
        let full = MachinePipeline::parse(crate::options::PIPELINE_MPX_FULL).unwrap();
        assert_eq!(full.passes.len(), 5);
        assert!(MachinePipeline::parse("mpx-make-fast").is_err());
        // Hoisting without the elimination pass is rejected.
        let err = MachinePipeline::parse("mpx-hoist-checks").unwrap_err();
        assert!(err.message.contains("requires"), "{}", err.message);
        // Elimination after hoisting is fine; the reverse order is not.
        assert!(MachinePipeline::parse("mpx-hoist-checks,mpx-cross-block-elim").is_ok());
        let err = MachinePipeline::parse("mpx-cross-block-elim,mpx-hoist-checks").unwrap_err();
        assert!(err.message.contains("after"), "{}", err.message);
    }
}
