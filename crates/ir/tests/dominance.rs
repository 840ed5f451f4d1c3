//! Property tests for the dominator tree and the natural-loop analysis over
//! random CFGs: unreachable blocks, self-loops, duplicate edges and
//! irreducible (multi-entry) cycles all arise from random terminators.
//!
//! `DomTree` is checked against the definition of dominance (`a` dominates
//! `b` when removing `a` cuts `b` off from the entry), and `natural_loops`
//! against the classic set-based dominator computation it replaced, kept
//! here only as an oracle.

use std::collections::{HashMap, HashSet};

use confllvm_ir::{natural_loops, BlockId, DomTree, Function, FunctionBuilder, Terminator};
use confllvm_minic::Span;
use proptest::prelude::*;

/// One random terminator per block: `(kind, a, b)` with targets taken
/// modulo the block count; kind 0 returns, 1 branches to `a`, 2 branches
/// on a parameter to `a` or `b`.
type Shape = Vec<(u8, usize, usize)>;

fn cfg(shape: &Shape) -> Function {
    let n = shape.len();
    let mut b = FunctionBuilder::new("f", 1);
    let blocks: Vec<BlockId> = std::iter::once(BlockId(0))
        .chain((1..n).map(|_| b.new_block()))
        .collect();
    let cond = b.param(0);
    for (i, &(kind, x, y)) in shape.iter().enumerate() {
        b.switch_to(blocks[i]);
        b.terminate(match kind {
            0 => Terminator::Ret {
                value: None,
                span: Span::default(),
            },
            1 => Terminator::Br(blocks[x % n]),
            _ => Terminator::CondBr {
                cond: cond.into(),
                then_bb: blocks[x % n],
                else_bb: blocks[y % n],
                span: Span::default(),
            },
        });
    }
    b.finish()
}

fn shapes() -> impl Strategy<Value = Shape> {
    prop::collection::vec((0u8..3, 0usize..12, 0usize..12), 1..12)
}

/// Blocks reachable from the entry without passing through `removed`.
fn reachable_without(f: &Function, removed: Option<BlockId>) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    if removed == Some(f.entry()) {
        return seen;
    }
    let mut stack = vec![f.entry()];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if Some(s) != removed && !std::mem::replace(&mut seen[s.0 as usize], true) {
                stack.push(s);
            }
        }
    }
    seen
}

/// The set-based dominator computation the tree replaced: every reachable
/// block starts dominated by all reachable blocks and the sets shrink to
/// the maximal fixpoint.
struct SetDominators {
    doms: HashMap<BlockId, HashSet<BlockId>>,
    reachable: HashSet<BlockId>,
}

impl SetDominators {
    fn new(f: &Function) -> SetDominators {
        let entry = f.entry();
        let mut reachable: HashSet<BlockId> = HashSet::new();
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            if reachable.insert(b) {
                stack.extend(f.block(b).term.successors());
            }
        }
        let preds = f.predecessors();
        let mut doms: HashMap<BlockId, HashSet<BlockId>> = reachable
            .iter()
            .map(|&b| {
                if b == entry {
                    (b, std::iter::once(b).collect())
                } else {
                    (b, reachable.clone())
                }
            })
            .collect();
        let mut order: Vec<BlockId> = reachable.iter().copied().collect();
        order.sort();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &order {
                if b == entry {
                    continue;
                }
                let mut new: Option<HashSet<BlockId>> = None;
                for p in &preds[b.0 as usize] {
                    if !reachable.contains(p) {
                        continue;
                    }
                    let pd = &doms[p];
                    new = Some(match new {
                        None => pd.clone(),
                        Some(acc) => acc.intersection(pd).copied().collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                new.insert(b);
                if new != doms[&b] {
                    doms.insert(b, new);
                    changed = true;
                }
            }
        }
        SetDominators { doms, reachable }
    }

    fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.reachable.contains(&a) && self.doms.get(&b).is_some_and(|d| d.contains(&a))
    }
}

/// The loop finder the set-based dominators fed: `(header, latches, body,
/// preheader)` per header, sorted by header.
type OracleLoop = (BlockId, Vec<BlockId>, Vec<BlockId>, Option<BlockId>);

fn oracle_loops(f: &Function, doms: &SetDominators) -> Vec<OracleLoop> {
    let preds = f.predecessors();
    let mut by_header: HashMap<BlockId, (Vec<BlockId>, HashSet<BlockId>)> = HashMap::new();
    for b in &f.blocks {
        if !doms.reachable.contains(&b.id) {
            continue;
        }
        for header in b.term.successors() {
            if !doms.dominates(header, b.id) {
                continue;
            }
            let (latches, body) = by_header
                .entry(header)
                .or_insert_with(|| (Vec::new(), std::iter::once(header).collect()));
            latches.push(b.id);
            let mut stack = vec![b.id];
            while let Some(n) = stack.pop() {
                if body.insert(n) {
                    stack.extend(preds[n.0 as usize].iter().copied());
                }
            }
        }
    }
    let mut loops: Vec<OracleLoop> = by_header
        .into_iter()
        .map(|(header, (latches, body))| {
            let outside: Vec<BlockId> = preds[header.0 as usize]
                .iter()
                .copied()
                .filter(|p| !body.contains(p) && doms.reachable.contains(p))
                .collect();
            let preheader = match outside[..] {
                [p] if matches!(f.block(p).term, Terminator::Br(t) if t == header) => Some(p),
                _ => None,
            };
            let mut body: Vec<BlockId> = body.into_iter().collect();
            body.sort();
            (header, latches, body, preheader)
        })
        .collect();
    loops.sort_by_key(|l| l.0);
    loops
}

fn check_tree(f: &Function) {
    let tree = DomTree::new(f);
    let oracle = SetDominators::new(f);
    let ids: Vec<BlockId> = f.blocks.iter().map(|b| b.id).collect();
    let reachable = reachable_without(f, None);
    for &b in &ids {
        assert_eq!(
            tree.is_reachable(b),
            reachable[b.0 as usize],
            "reachability of {b}"
        );
    }
    for &a in &ids {
        let cut = reachable_without(f, Some(a));
        for &b in &ids {
            let by_definition = reachable[b.0 as usize] && (a == b || !cut[b.0 as usize]);
            assert_eq!(tree.dominates(a, b), by_definition, "{a} dom {b}");
            assert_eq!(tree.dominates(a, b), oracle.dominates(a, b), "{a} dom {b}");
        }
    }
    for &p in &ids {
        let expected: Vec<BlockId> = ids
            .iter()
            .copied()
            .filter(|&c| {
                c != p
                    && tree.dominates(p, c)
                    && !ids
                        .iter()
                        .any(|&m| m != p && m != c && tree.dominates(p, m) && tree.dominates(m, c))
            })
            .collect();
        assert_eq!(tree.children(p), &expected[..], "children of {p}");
    }
}

fn check_loops(f: &Function) {
    let loops = natural_loops(f, &DomTree::new(f));
    let mut ours: Vec<OracleLoop> = loops
        .iter()
        .map(|l| (l.header, l.latches.clone(), l.body.clone(), l.preheader))
        .collect();
    ours.sort_by_key(|l| l.0);
    assert_eq!(ours, oracle_loops(f, &SetDominators::new(f)));
    // Outermost first, ties broken by header: independent of hashing.
    for w in loops.windows(2) {
        let key = |l: &confllvm_ir::NaturalLoop| (std::cmp::Reverse(l.body.len()), l.header);
        assert!(key(&w[0]) < key(&w[1]), "loop order");
    }
    for l in &loops {
        for &b in &l.body {
            assert!(l.contains(b));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn dom_tree_matches_the_definition(shape in shapes()) {
        check_tree(&cfg(&shape));
    }

    #[test]
    fn natural_loops_match_the_set_based_oracle(shape in shapes()) {
        check_loops(&cfg(&shape));
    }
}

#[test]
fn irreducible_cycle_and_unreachable_blocks() {
    // 0 -> {1, 2}; 1 <-> 2 (two entries, so no natural loop); 3 -> 1 is
    // unreachable; 4 loops on itself and is entered from 2.
    let shape: Shape = vec![(2, 1, 2), (1, 2, 0), (2, 1, 4), (1, 1, 0), (1, 4, 0)];
    let f = cfg(&shape);
    check_tree(&f);
    check_loops(&f);
    let tree = DomTree::new(&f);
    assert!(!tree.is_reachable(BlockId(3)));
    assert!(!tree.dominates(BlockId(1), BlockId(2)));
    assert!(!tree.dominates(BlockId(2), BlockId(1)));
    assert_eq!(tree.children(BlockId(0)), &[BlockId(1), BlockId(2)]);
    let loops = natural_loops(&f, &tree);
    assert_eq!(loops.len(), 1, "only the self-loop is natural");
    assert_eq!(loops[0].header, BlockId(4));
    assert_eq!(loops[0].latches, vec![BlockId(4)]);
}
