//! A small generic forward-dataflow framework over IR CFGs, plus the CFG
//! analyses built on it:
//!
//! * [`MustSet`] — an intersection (must) lattice for forward analyses such
//!   as the available-bounds-checks analysis behind the cross-block
//!   redundant-check elimination in `confllvm-codegen`,
//! * [`DomTree`] and [`natural_loops`] — the dominator tree behind the IR's
//!   CSE and the loop structure needed by the loop-invariant check-hoisting
//!   machine pass.
//!
//! Every per-block table is a `Vec` indexed by the dense `BlockId`.

use std::collections::HashSet;
use std::hash::Hash;

use crate::inst::BlockId;
use crate::module::Function;

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone + PartialEq {
    /// Least element.
    fn bottom() -> Self;
    /// Least upper bound; returns `true` if `self` changed.
    fn join(&mut self, other: &Self) -> bool;
}

/// A forward transfer function over basic blocks.
pub trait ForwardTransfer {
    type Fact: Lattice;
    /// Apply the block's effect to the incoming fact.
    fn transfer(&self, f: &Function, block: BlockId, fact: &Self::Fact) -> Self::Fact;
}

/// Solve a forward dataflow problem to a fixpoint using a worklist.
/// Returns the fact holding *at entry* of each block, indexed by block.
pub fn solve_forward<T: ForwardTransfer>(
    f: &Function,
    transfer: &T,
    entry_fact: T::Fact,
) -> Vec<T::Fact> {
    let n = f.blocks.len();
    let mut in_facts: Vec<T::Fact> = vec![T::Fact::bottom(); n];
    in_facts[f.entry().0 as usize] = entry_fact;
    let mut worklist: Vec<BlockId> = f.blocks.iter().map(|b| b.id).collect();
    let mut queued = vec![true; n];
    let mut iterations = 0usize;
    while let Some(b) = worklist.pop() {
        queued[b.0 as usize] = false;
        iterations += 1;
        if iterations > n * 64 + 1024 {
            // Defensive bound; lattices used here all have finite height.
            break;
        }
        let out = transfer.transfer(f, b, &in_facts[b.0 as usize]);
        for succ in f.block(b).term.successors() {
            let s = succ.0 as usize;
            if in_facts[s].join(&out) && !queued[s] {
                queued[s] = true;
                worklist.push(succ);
            }
        }
    }
    in_facts
}

/// An intersection ("must") lattice over an arbitrary fact type, for forward
/// analyses such as available expressions or available bounds checks.
///
/// `bottom()` is the *universal* set (`All`): in a must-analysis the
/// optimistic starting point for a not-yet-visited block is "everything is
/// available", and `join` (set intersection) only ever shrinks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MustSet<K: Eq + Hash + Clone> {
    /// The universal set (top of the subset order, bottom of the join order).
    All,
    /// A concrete set of facts.
    Only(HashSet<K>),
}

impl<K: Eq + Hash + Clone> MustSet<K> {
    /// The empty set of facts.
    pub fn empty() -> Self {
        MustSet::Only(HashSet::new())
    }

    pub fn contains(&self, k: &K) -> bool {
        match self {
            MustSet::All => true,
            MustSet::Only(s) => s.contains(k),
        }
    }

    /// Add a fact (no-op on `All`, which already contains everything).
    pub fn insert(&mut self, k: K) {
        if let MustSet::Only(s) = self {
            s.insert(k);
        }
    }

    /// Remove every fact rejected by `keep`.  `All` is left unchanged: it is
    /// the identity of the must-join and only arises for blocks no concrete
    /// fact has reached yet (unreachable, or not yet visited mid-fixpoint),
    /// where it must keep acting as the join identity.  Consumers that *act*
    /// on facts must go through [`MustSet::as_concrete`], which treats `All`
    /// as empty — the conservative direction.
    pub fn retain(&mut self, keep: impl Fn(&K) -> bool) {
        match self {
            MustSet::All => {}
            MustSet::Only(s) => s.retain(|k| keep(k)),
        }
    }

    /// The concrete facts, treating the universal set as empty (conservative
    /// for consumers that *use* availability to justify eliminations).
    pub fn as_concrete(&self) -> HashSet<K> {
        match self {
            MustSet::All => HashSet::new(),
            MustSet::Only(s) => s.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone> Lattice for MustSet<K> {
    fn bottom() -> Self {
        MustSet::All
    }

    fn join(&mut self, other: &Self) -> bool {
        match (&mut *self, other) {
            (_, MustSet::All) => false,
            (MustSet::All, MustSet::Only(o)) => {
                *self = MustSet::Only(o.clone());
                true
            }
            (MustSet::Only(s), MustSet::Only(o)) => {
                let before = s.len();
                s.retain(|k| o.contains(k));
                s.len() != before
            }
        }
    }
}

/// "No block": the dense per-block tables below use it for unreachable
/// blocks and absent entries.
const NO_BLOCK: u32 = u32::MAX;

/// The dominator tree of a function's reachable blocks.
///
/// Immediate dominators come from the Cooper–Harvey–Kennedy iteration over
/// reverse postorder ("A Simple, Fast Dominance Algorithm", 2001).  The tree
/// is then numbered with DFS intervals, so [`DomTree::dominates`] is two
/// comparisons and [`DomTree::children`] a slice.  Every table is indexed by
/// the dense `BlockId`.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Preorder number of each block in the tree ([`NO_BLOCK`] when
    /// unreachable) ...
    pre: Vec<u32>,
    /// ... and the largest preorder number inside its subtree.
    last: Vec<u32>,
    /// `children[child_start[b]..child_start[b + 1]]` are `b`'s children,
    /// in ascending block order.
    child_start: Vec<u32>,
    children: Vec<BlockId>,
}

impl DomTree {
    /// Build the dominator tree of `f`'s CFG.
    pub fn new(f: &Function) -> DomTree {
        let n = f.blocks.len();
        let entry = f.entry().0 as usize;

        // Reverse postorder of the reachable blocks, by an explicit DFS that
        // takes successors in terminator order.
        let mut postorder: Vec<usize> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
        seen[entry] = true;
        while let Some((b, next)) = stack.last_mut() {
            let (b, succ) = (*b, f.blocks[*b].term.successors().nth(*next));
            *next += 1;
            match succ {
                Some(s) => {
                    let s = s.0 as usize;
                    if !std::mem::replace(&mut seen[s], true) {
                        stack.push((s, 0));
                    }
                }
                None => {
                    postorder.push(b);
                    stack.pop();
                }
            }
        }
        let mut rpo_num = vec![NO_BLOCK; n];
        for (i, &b) in postorder.iter().rev().enumerate() {
            rpo_num[b] = i as u32;
        }

        // Cooper–Harvey–Kennedy: iterate to a fixpoint, intersecting the
        // processed predecessors' dominator chains by walking the finger
        // with the larger reverse-postorder number up the tree.  The
        // entry's immediate dominator is itself, an unreachable block's
        // `NO_BLOCK`.
        let preds = f.predecessors();
        let mut idom = vec![NO_BLOCK; n];
        idom[entry] = entry as u32;
        let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
            while a != b {
                while rpo_num[a as usize] > rpo_num[b as usize] {
                    a = idom[a as usize];
                }
                while rpo_num[b as usize] > rpo_num[a as usize] {
                    b = idom[b as usize];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in postorder.iter().rev().skip(1) {
                let mut new = NO_BLOCK;
                for p in &preds[b] {
                    let p = p.0;
                    if idom[p as usize] == NO_BLOCK {
                        continue;
                    }
                    new = if new == NO_BLOCK {
                        p
                    } else {
                        intersect(&idom, p, new)
                    };
                }
                if idom[b] != new {
                    idom[b] = new;
                    changed = true;
                }
            }
        }

        // Children lists, in ascending block order.
        let mut child_start = vec![0u32; n + 1];
        for (b, &d) in idom.iter().enumerate() {
            if d != NO_BLOCK && b != entry {
                child_start[d as usize + 1] += 1;
            }
        }
        for b in 0..n {
            child_start[b + 1] += child_start[b];
        }
        let mut fill = child_start.clone();
        let mut children = vec![BlockId(0); child_start[n] as usize];
        for (b, &d) in idom.iter().enumerate() {
            if d != NO_BLOCK && b != entry {
                children[fill[d as usize] as usize] = BlockId(b as u32);
                fill[d as usize] += 1;
            }
        }

        // DFS interval numbering: preorder numbers, then subtree extents
        // accumulated in reverse preorder.
        let mut pre = vec![NO_BLOCK; n];
        let mut preorder: Vec<usize> = Vec::with_capacity(postorder.len());
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            pre[b] = preorder.len() as u32;
            preorder.push(b);
            let kids = &children[child_start[b] as usize..child_start[b + 1] as usize];
            stack.extend(kids.iter().map(|c| c.0 as usize));
        }
        let mut size = vec![1u32; n];
        for &b in preorder.iter().skip(1).rev() {
            size[idom[b] as usize] += size[b];
        }
        let last = (0..n)
            .map(|b| {
                if pre[b] == NO_BLOCK {
                    NO_BLOCK
                } else {
                    pre[b] + size[b] - 1
                }
            })
            .collect();

        DomTree {
            pre,
            last,
            child_start,
            children,
        }
    }

    /// Does `a` dominate `b`?  Every block dominates itself; unreachable
    /// blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, b) = (a.0 as usize, b.0 as usize);
        let pb = self.pre[b];
        self.pre[a] != NO_BLOCK && pb != NO_BLOCK && self.pre[a] <= pb && pb <= self.last[a]
    }

    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.pre[b.0 as usize] != NO_BLOCK
    }

    /// The blocks `b` immediately dominates, in ascending block order.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        let b = b.0 as usize;
        &self.children[self.child_start[b] as usize..self.child_start[b + 1] as usize]
    }
}

/// A natural loop: a header, the blocks that jump back to it (latches), and
/// the body (header included).  `preheader` is the unique out-of-loop
/// predecessor of the header, present only when it unconditionally branches
/// to the header (the safe insertion point for hoisted code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    pub header: BlockId,
    pub latches: Vec<BlockId>,
    /// The body, header included, in ascending block order.
    pub body: Vec<BlockId>,
    pub preheader: Option<BlockId>,
}

impl NaturalLoop {
    /// Is `b` in the loop body?
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// Find the natural loops of a function (back edges `latch -> header` where
/// the header dominates the latch); loops sharing a header are merged.
/// Loops come outermost first: by descending body size, ties by header.
pub fn natural_loops(f: &Function, doms: &DomTree) -> Vec<NaturalLoop> {
    let preds = f.predecessors();
    let n = f.blocks.len();
    let mut latches: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for b in &f.blocks {
        if !doms.is_reachable(b.id) {
            continue;
        }
        for succ in b.term.successors() {
            if doms.dominates(succ, b.id) {
                latches[succ.0 as usize].push(b.id);
            }
        }
    }
    let mut in_body = vec![false; n];
    let mut loops = Vec::new();
    for (h, latches) in latches.into_iter().enumerate() {
        if latches.is_empty() {
            continue;
        }
        // The body is everything that reaches a latch without passing
        // through the header.
        let header = BlockId(h as u32);
        in_body[h] = true;
        let mut body = vec![header];
        let mut stack = latches.clone();
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut in_body[b.0 as usize], true) {
                body.push(b);
                stack.extend_from_slice(&preds[b.0 as usize]);
            }
        }
        for b in &body {
            in_body[b.0 as usize] = false;
        }
        body.sort_unstable();
        let outside: Vec<BlockId> = preds[h]
            .iter()
            .copied()
            .filter(|p| body.binary_search(p).is_err() && doms.is_reachable(*p))
            .collect();
        let preheader = match outside[..] {
            [p] if matches!(f.block(p).term, crate::inst::Terminator::Br(t) if t == header) => {
                Some(p)
            }
            _ => None,
        };
        loops.push(NaturalLoop {
            header,
            latches,
            body,
            preheader,
        });
    }
    loops.sort_by_key(|l| (std::cmp::Reverse(l.body.len()), l.header));
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use confllvm_minic::{parse, Sema};

    fn lower_fn(src: &str, name: &str) -> Function {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let m = lower(&prog, &sema, "t").unwrap();
        m.function(name).unwrap().clone()
    }

    #[test]
    fn mustset_join_is_intersection() {
        let mut a: MustSet<u32> = MustSet::bottom();
        let mut b = MustSet::empty();
        b.insert(1);
        b.insert(2);
        assert!(
            a.join(&b),
            "bottom (All) must collapse to the first operand"
        );
        let mut c = MustSet::empty();
        c.insert(2);
        c.insert(3);
        assert!(a.join(&c));
        assert!(a.contains(&2));
        assert!(!a.contains(&1));
        assert!(!a.join(&b), "already the intersection");
    }

    #[test]
    fn dominators_of_loop() {
        let f = lower_fn(
            "int f(int n) { int s = 0; int i; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
            "f",
        );
        let doms = DomTree::new(&f);
        let entry = f.entry();
        for b in &f.blocks {
            if doms.is_reachable(b.id) {
                assert!(doms.dominates(entry, b.id), "entry dominates {}", b.id);
            }
        }
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert!(!l.latches.is_empty());
        assert!(l.body.len() >= 3, "header, body and step blocks");
        let ph = l.preheader.expect("for-loops have a preheader");
        assert!(!l.contains(ph));
        // Every body block is dominated by the header.
        for b in &l.body {
            assert!(doms.dominates(l.header, *b));
        }
    }

    #[test]
    fn nested_loops_are_both_found() {
        let f = lower_fn(
            "int f(int n) { int s = 0; int i; int j;
               for (i = 0; i < n; i = i + 1) {
                 for (j = 0; j < n; j = j + 1) { s = s + j; }
               }
               return s; }",
            "f",
        );
        let doms = DomTree::new(&f);
        let loops = natural_loops(&f, &doms);
        assert_eq!(loops.len(), 2);
        // Outermost first (larger body).
        assert!(loops[0].body.len() > loops[1].body.len());
        assert!(loops[0].contains(loops[1].header));
    }
}
