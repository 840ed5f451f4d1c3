//! The IR optimisation passes, standing in for the "standard LLVM IR
//! optimizations" the paper keeps enabled (Section 5.1).
//!
//! Every optimisation here is a plain function over one IR function, and
//! its row of the `PASSES` table (a [`crate::pm::PassSpec`]) gives it a
//! pipeline name and its ordering and requirements.  Pipelines are
//! described textually — `"const-fold,copy-prop,cse,dce"` is the default
//! run by every `confllvm_core::Config`.  The passes are deliberately
//! conservative and taint-aware: none of them changes the set of memory
//! accesses in a way that would alter taint flow (values carrying declared
//! taint or pointee pins are never merged or propagated through), mirroring
//! the paper's choice to disable metadata-changing optimizations.
//!
//! The available passes:
//!
//! * `const-fold` — fold `Bin`/`Cmp` on constant operands,
//! * `copy-prop` — replace uses of `Copy` destinations with the source,
//! * `cse` — dominator-scoped common-subexpression elimination of pure
//!   instructions plus conservative redundant-load elimination (this is what
//!   exposes repeated address computations to the machine layer's bounds
//!   check elimination),
//! * `dce` — remove side-effect-free instructions whose result is unused.

use std::collections::HashMap;

use crate::dataflow::DomTree;
use crate::inst::{BlockId, Inst, Operand, Terminator, ValueId};
use crate::module::Function;
use crate::pm::{IrRun, PassSpec};

/// The default optimisation pipeline, in dependency order.
pub const DEFAULT_IR_PIPELINE: &str = "const-fold,copy-prop,cse,dce";

/// The IR passes: the one list the pipeline parser looks names up in.
pub(crate) const PASSES: &[PassSpec<IrRun>] = &[
    PassSpec {
        name: "const-fold",
        after: &[],
        requires: &[],
        run: const_fold,
    },
    PassSpec {
        name: "copy-prop",
        after: &["const-fold"],
        requires: &[],
        run: copy_propagate,
    },
    PassSpec {
        name: "cse",
        after: &["const-fold", "copy-prop"],
        requires: &[],
        run: common_subexpr_elim,
    },
    PassSpec {
        name: "dce",
        after: &["copy-prop", "cse"],
        requires: &[],
        run: dead_code_elim,
    },
];

/// Fold `Bin`/`Cmp` instructions whose operands are both constants into
/// copies of the folded constant.
fn const_fold(f: &mut Function) -> usize {
    let mut folded = 0;
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            let replacement = match inst {
                Inst::Bin { dst, op, lhs, rhs } => match (lhs.as_const(), rhs.as_const()) {
                    (Some(a), Some(c)) => Some((*dst, op.eval(a, c))),
                    _ => None,
                },
                Inst::Cmp { dst, op, lhs, rhs } => match (lhs.as_const(), rhs.as_const()) {
                    (Some(a), Some(c)) => Some((*dst, op.eval(a, c))),
                    _ => None,
                },
                _ => None,
            };
            if let Some((dst, value)) = replacement {
                *inst = Inst::Copy {
                    dst,
                    src: Operand::Const(value),
                };
                folded += 1;
            }
        }
    }
    folded
}

/// Replace uses of values defined by `Copy` with the copy source.  Only
/// copies from constants or other values are propagated; the copy itself is
/// left for DCE to remove.
///
/// Copies produced by pointer casts are *not* propagated: the cast result
/// carries its own declared pointee qualifier which must stay distinct from
/// the source value (see `crate::taint`).
fn copy_propagate(f: &mut Function) -> usize {
    let mut map: HashMap<ValueId, Operand> = HashMap::new();
    for b in &f.blocks {
        for inst in &b.insts {
            if let Inst::Copy { dst, src } = inst {
                let is_cast_like = f.values[dst.0 as usize].declared_pointee.is_some();
                if !is_cast_like {
                    map.insert(*dst, *src);
                }
            }
        }
    }
    if map.is_empty() {
        return 0;
    }
    // Resolve chains (a = copy b; c = copy a).
    let resolve = |mut op: Operand| {
        let mut hops = 0;
        while let Operand::Value(v) = op {
            match map.get(&v) {
                Some(next) if hops < 32 => {
                    op = *next;
                    hops += 1;
                }
                _ => break,
            }
        }
        op
    };
    let mut changed = 0;
    let rewrite = |op: &mut Operand, changed: &mut usize| {
        let new = resolve(*op);
        if new != *op {
            *op = new;
            *changed += 1;
        }
    };
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            match inst {
                Inst::Load { addr, .. } => rewrite(addr, &mut changed),
                Inst::Store { addr, value, .. } => {
                    rewrite(addr, &mut changed);
                    rewrite(value, &mut changed);
                }
                Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                    rewrite(lhs, &mut changed);
                    rewrite(rhs, &mut changed);
                }
                Inst::Copy { src, .. } => rewrite(src, &mut changed),
                Inst::Call { args, .. } | Inst::CallExtern { args, .. } => {
                    for a in args {
                        rewrite(a, &mut changed);
                    }
                }
                Inst::CallIndirect { target, args, .. } => {
                    rewrite(target, &mut changed);
                    for a in args {
                        rewrite(a, &mut changed);
                    }
                }
                Inst::Alloca { .. } | Inst::GlobalAddr { .. } | Inst::FuncAddr { .. } => {}
            }
        }
        match &mut b.term {
            Terminator::CondBr { cond, .. } => rewrite(cond, &mut changed),
            Terminator::Ret { value: Some(v), .. } => rewrite(v, &mut changed),
            _ => {}
        }
    }
    changed
}

/// Remove side-effect-free instructions whose result is never used.
fn dead_code_elim(f: &mut Function) -> usize {
    let mut used = vec![false; f.values.len()];
    for b in &f.blocks {
        for inst in &b.insts {
            for op in inst.uses() {
                if let Operand::Value(v) = op {
                    used[v.0 as usize] = true;
                }
            }
        }
        for op in b.term.uses() {
            if let Operand::Value(v) = op {
                used[v.0 as usize] = true;
            }
        }
    }
    let mut removed = 0;
    for b in &mut f.blocks {
        let before = b.insts.len();
        b.insts.retain(|inst| {
            if inst.has_side_effects() {
                return true;
            }
            // Allocas are kept: their addresses may escape via pointer
            // arithmetic that the simple use-scan above misses only if the
            // alloca value itself is unused, in which case removal is safe.
            match inst.def() {
                Some(dst) => used[dst.0 as usize],
                None => true,
            }
        });
        removed += before - b.insts.len();
    }
    removed
}

/// Key of a pure (side-effect-free, operand-determined) instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PureKey {
    Bin(crate::inst::BinOp, Operand, Operand),
    Cmp(crate::inst::CmpOp, Operand, Operand),
    Global(String),
    Func(String),
}

/// Symbolic base of an address expression, for the may-alias test used by
/// redundant-load elimination.  Distinct allocas and distinct globals never
/// alias; everything else conservatively aliases everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddrBase {
    Alloca(ValueId),
    Global(u32),
    Unknown,
}

fn may_alias(a: AddrBase, b: AddrBase) -> bool {
    match (a, b) {
        (AddrBase::Alloca(x), AddrBase::Alloca(y)) => x == y,
        (AddrBase::Global(x), AddrBase::Global(y)) => x == y,
        (AddrBase::Alloca(_), AddrBase::Global(_)) | (AddrBase::Global(_), AddrBase::Alloca(_)) => {
            false
        }
        _ => true,
    }
}

/// Dominator-scoped common-subexpression elimination.
///
/// Pure instructions (`Bin`, `Cmp`, `GlobalAddr`, `FuncAddr`) computed in a
/// dominating block are reused instead of recomputed; redundant `Load`s are
/// reused within a block (and into single-predecessor successors) as long as
/// no intervening store may alias the loaded address and no call intervenes.
/// Duplicates are rewritten to `Copy` so `dce` can drop them once unused.
///
/// Taint-awareness: values carrying a declared taint or pointee pin (casts,
/// pointer-typed loads) never participate, so the qualifier inference sees
/// exactly the same pinned constraint set.
fn common_subexpr_elim(f: &mut Function) -> usize {
    let doms = DomTree::new(f);
    let preds = f.predecessors();
    let nvals = f.values.len();

    // --- immutable prepass -------------------------------------------------
    // Symbolic address base of every value (resolved through `+ const` and
    // copies to a fixpoint), and the set of pinned values that must never
    // participate in unification.
    let mut value_bases: Vec<Option<AddrBase>> = vec![None; nvals];
    let mut global_ids: HashMap<&str, u32> = HashMap::new();
    for b in &f.blocks {
        for inst in &b.insts {
            match inst {
                Inst::Alloca { dst, .. } => {
                    value_bases[dst.0 as usize] = Some(AddrBase::Alloca(*dst));
                }
                Inst::GlobalAddr { dst, name } => {
                    let next = global_ids.len() as u32;
                    let id = *global_ids.entry(name).or_insert(next);
                    value_bases[dst.0 as usize] = Some(AddrBase::Global(id));
                }
                _ => {}
            }
        }
    }
    for _ in 0..8 {
        let mut grew = false;
        for b in &f.blocks {
            for inst in &b.insts {
                let (dst, src) = match inst {
                    Inst::Bin {
                        dst,
                        op: crate::inst::BinOp::Add,
                        lhs: Operand::Value(base),
                        rhs: Operand::Const(_),
                    } => (*dst, *base),
                    Inst::Copy {
                        dst,
                        src: Operand::Value(src),
                    } => (*dst, *src),
                    _ => continue,
                };
                if value_bases[dst.0 as usize].is_none() {
                    if let Some(k) = value_bases[src.0 as usize] {
                        value_bases[dst.0 as usize] = Some(k);
                        grew = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let operand_base = |op: Operand| -> AddrBase {
        match op {
            Operand::Value(v) => value_bases[v.0 as usize].unwrap_or(AddrBase::Unknown),
            Operand::Const(_) => AddrBase::Unknown,
        }
    };
    let pinned: Vec<bool> = f
        .values
        .iter()
        .map(|info| info.declared_taint.is_some() || info.declared_pointee.is_some())
        .collect();
    let pin_ok = |op: Operand, dst: ValueId| -> bool {
        if pinned[dst.0 as usize] {
            return false;
        }
        match op {
            Operand::Value(v) => !pinned[v.0 as usize],
            Operand::Const(_) => true,
        }
    };

    // Global replacement map: in a dominator-tree preorder walk a
    // replacement's definition is always visited before any of its uses.
    let mut replace: Vec<Option<Operand>> = vec![None; nvals];

    let mut changed = 0usize;
    // Explicit DFS over the dominator tree.  Pure expressions live in one
    // table whose entries are undone when the block that added them is
    // left (a key is only added when no enclosing block has it, so nothing
    // is ever shadowed); available-load tables flow only into
    // sole-predecessor children.
    type LoadTable = HashMap<(Operand, u8), ValueId>;
    let mut pure: HashMap<PureKey, ValueId> = HashMap::new();
    let mut added: Vec<PureKey> = Vec::new();
    let mut scope_marks: Vec<usize> = Vec::new();
    let mut stack: Vec<(BlockId, Option<LoadTable>, bool)> = Vec::new();
    if doms.is_reachable(f.entry()) {
        stack.push((f.entry(), Some(LoadTable::default()), false));
    }
    while let Some((bid, inherited_loads, exited)) = stack.pop() {
        if exited {
            let mark = scope_marks.pop().expect("scope entered");
            for key in added.drain(mark..) {
                pure.remove(&key);
            }
            continue;
        }
        stack.push((bid, None, true));
        scope_marks.push(added.len());

        let mut loads: LoadTable = inherited_loads.unwrap_or_default();
        let bi = bid.0 as usize;
        for ii in 0..f.blocks[bi].insts.len() {
            // Canonicalise operands through the replacement map.
            {
                let resolve = |op: &mut Operand| {
                    let mut hops = 0;
                    while let Operand::Value(v) = *op {
                        match replace[v.0 as usize] {
                            Some(next) if hops < 32 => {
                                *op = next;
                                hops += 1;
                            }
                            _ => break,
                        }
                    }
                };
                let inst = &mut f.blocks[bi].insts[ii];
                match inst {
                    Inst::Load { addr, .. } => resolve(addr),
                    Inst::Store { addr, value, .. } => {
                        resolve(addr);
                        resolve(value);
                    }
                    Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                        resolve(lhs);
                        resolve(rhs);
                    }
                    Inst::Copy { src, .. } => resolve(src),
                    Inst::Call { args, .. } | Inst::CallExtern { args, .. } => {
                        args.iter_mut().for_each(resolve)
                    }
                    Inst::CallIndirect { target, args, .. } => {
                        resolve(target);
                        args.iter_mut().for_each(resolve);
                    }
                    Inst::Alloca { .. } | Inst::GlobalAddr { .. } | Inst::FuncAddr { .. } => {}
                }
            }

            let inst = &f.blocks[bi].insts[ii];
            let pure_key = match inst {
                Inst::Bin { op, lhs, rhs, .. } => Some(PureKey::Bin(*op, *lhs, *rhs)),
                Inst::Cmp { op, lhs, rhs, .. } => Some(PureKey::Cmp(*op, *lhs, *rhs)),
                Inst::GlobalAddr { name, .. } => Some(PureKey::Global(name.clone())),
                Inst::FuncAddr { name, .. } => Some(PureKey::Func(name.clone())),
                _ => None,
            };
            if let (Some(key), Some(dst)) = (pure_key, inst.def()) {
                match pure.get(&key).copied() {
                    Some(prev) if prev != dst && pin_ok(Operand::Value(prev), dst) => {
                        f.blocks[bi].insts[ii] = Inst::Copy {
                            dst,
                            src: Operand::Value(prev),
                        };
                        replace[dst.0 as usize] = Some(Operand::Value(prev));
                        changed += 1;
                    }
                    Some(_) => {}
                    None => {
                        pure.insert(key.clone(), dst);
                        added.push(key);
                    }
                }
                continue;
            }

            match &f.blocks[bi].insts[ii] {
                Inst::Load {
                    dst, addr, size, ..
                } => {
                    let (dst, lk) = (*dst, (*addr, size.bytes() as u8));
                    match loads.get(&lk).copied() {
                        Some(prev) if prev != dst && pin_ok(Operand::Value(prev), dst) => {
                            f.blocks[bi].insts[ii] = Inst::Copy {
                                dst,
                                src: Operand::Value(prev),
                            };
                            replace[dst.0 as usize] = Some(Operand::Value(prev));
                            changed += 1;
                        }
                        Some(_) => {}
                        None => {
                            loads.insert(lk, dst);
                        }
                    }
                }
                Inst::Store { addr, .. } => {
                    let sb = operand_base(*addr);
                    loads.retain(|(laddr, _), _| !may_alias(operand_base(*laddr), sb));
                }
                Inst::Call { .. } | Inst::CallExtern { .. } | Inst::CallIndirect { .. } => {
                    loads.clear();
                }
                _ => {}
            }
        }
        for &c in doms.children(bid) {
            let sole_pred = matches!(preds[c.0 as usize][..], [p] if p == bid);
            let inherit = if sole_pred {
                Some(loads.clone())
            } else {
                Some(LoadTable::default())
            };
            stack.push((c, inherit, false));
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use crate::module::Module;
    use crate::pm::{PassManager, PipelineReport};
    use confllvm_minic::{parse, Sema};

    fn lower_src(src: &str) -> Module {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        lower(&prog, &sema, "test").unwrap()
    }

    fn optimise(m: &mut Module, pipeline: &str) -> PipelineReport {
        PassManager::parse(pipeline).unwrap().run(m)
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
                    "`{}` names `{dep}`, which is not an IR pass",
                    p.name
                );
            }
        }
        PassManager::parse(DEFAULT_IR_PIPELINE).unwrap();
    }

    #[test]
    fn folds_constant_expressions() {
        let mut m = lower_src("int f() { return 2 + 3 * 4; }");
        let report = optimise(&mut m, DEFAULT_IR_PIPELINE);
        assert!(report.changes_of("const-fold") >= 2);
    }

    #[test]
    fn removes_dead_code() {
        let mut m = lower_src("int f(int x) { x + 1; 3 * 4; return x; }");
        let before = m.function("f").unwrap().inst_count();
        let report = optimise(&mut m, DEFAULT_IR_PIPELINE);
        let after = m.function("f").unwrap().inst_count();
        assert!(report.changes_of("dce") > 0);
        assert!(after < before);
    }

    #[test]
    fn keeps_side_effects() {
        let mut m = lower_src(
            "extern int send(int fd, char *buf, int n);\n\
             char buf[8];\n\
             int f() { send(1, buf, 8); return 0; }",
        );
        optimise(&mut m, DEFAULT_IR_PIPELINE);
        let f = m.function("f").unwrap();
        let has_call = f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Inst::CallExtern { .. })));
        assert!(has_call);
    }

    #[test]
    fn disabled_passes_do_nothing() {
        let mut m = lower_src("int f() { return 2 + 3; }");
        let before = m.function("f").unwrap().inst_count();
        let report = optimise(&mut m, "");
        assert_eq!(report.total_changes(), 0);
        assert_eq!(m.function("f").unwrap().inst_count(), before);
    }

    #[test]
    fn cse_unifies_repeated_global_address_computations() {
        // `table[0]` is mentioned twice: both address chains must collapse to
        // one GlobalAddr so the machine layer can coalesce their checks.
        let mut m = lower_src(
            "int table[16];\n\
             int f() { table[0] = table[0] + 1; return table[0]; }",
        );
        let before: usize = count_global_addrs(m.function("f").unwrap());
        let report = optimise(&mut m, DEFAULT_IR_PIPELINE);
        let after = count_global_addrs(m.function("f").unwrap());
        assert!(report.changes_of("cse") > 0);
        assert!(after < before, "{after} vs {before}");
        assert_eq!(after, 1, "one GlobalAddr(table) must remain");
    }

    fn count_global_addrs(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::GlobalAddr { .. }))
            .count()
    }

    #[test]
    fn cse_forwards_repeated_loads_but_respects_stores() {
        // Two loads of `i` with no intervening aliasing store unify; the
        // store to `x[i]` (a different base) must not block it, while a store
        // to `i` itself must.
        let src = "
            int x[8];
            int f(int k) {
                int i = k;
                x[i] = x[i] + i;
                i = i + 1;
                return x[i];
            }
        ";
        let mut m = lower_src(src);
        let before_loads = count_loads(m.function("f").unwrap());
        let report = optimise(&mut m, DEFAULT_IR_PIPELINE);
        let after_loads = count_loads(m.function("f").unwrap());
        assert!(report.changes_of("cse") > 0);
        assert!(
            after_loads < before_loads,
            "{after_loads} vs {before_loads}"
        );
        // After `i = i + 1` the old load of i must NOT be reused: there must
        // still be at least two loads of i's slot (before and after).
        assert!(after_loads >= 2);
    }

    fn count_loads(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .count()
    }

    #[test]
    fn cse_does_not_merge_across_calls() {
        let src = "
            extern int recv(int fd, char *buf, int size);
            char buf[8];
            int f() {
                int a = buf[0];
                recv(0, buf, 8);
                int b = buf[0];
                return a + b;
            }
        ";
        let mut m = lower_src(src);
        optimise(&mut m, DEFAULT_IR_PIPELINE);
        // Both loads of buf[0] must survive: the extern call may rewrite buf.
        let loads = count_loads(m.function("f").unwrap());
        assert!(loads >= 2, "load across the call must not be forwarded");
    }

    #[test]
    fn passes_preserve_program_shape_for_inference() {
        // Optimised and unoptimised versions must infer the same regions.
        let src = "
            extern void read_passwd(char *u, private char *p, int n);
            private int f(char *u) {
                char pw[32];
                read_passwd(u, pw, 32);
                return pw[0] + 0;
            }
        ";
        let mut opt = lower_src(src);
        optimise(&mut opt, DEFAULT_IR_PIPELINE);
        let mut unopt = lower_src(src);
        optimise(&mut unopt, "");
        let r1 = crate::taint::infer(&mut opt, crate::taint::InferOptions::default()).unwrap();
        let r2 = crate::taint::infer(&mut unopt, crate::taint::InferOptions::default()).unwrap();
        assert!(r1.private_accesses > 0);
        assert!(r2.private_accesses > 0);
    }
}
