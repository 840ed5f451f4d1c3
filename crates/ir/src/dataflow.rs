//! The CFG analyses of an IR function: the [`DomTree`] behind the IR's CSE
//! and the [`natural_loops`] behind the loop-invariant check-hoisting
//! machine pass in `confllvm-codegen`.
//!
//! Every per-block table is a `Vec` indexed by the dense `BlockId`.

use crate::inst::BlockId;
use crate::module::Function;

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
