//! Type-qualifier inference over the IR.
//!
//! This is the reproduction of the paper's flow analysis (Section 5.1): a
//! constraint-based qualifier inference in the style of Foster et al. (their
//! reference 29).
//! The programmer only annotates top-level definitions; this pass propagates
//! the `private` qualifier to every value (including the contents of local
//! `Alloca` slots, which is how `passwd` in the paper's Figure 1 is inferred
//! to be a private buffer) and determines, for every load and store, which
//! memory region it must touch.
//!
//! The original implementation hands subtyping constraints over the two-point
//! lattice to Z3; for a two-point lattice a union-find plus a reachability
//! fixpoint is an exact solver, so no SMT solver is needed.

use std::collections::HashMap;

use confllvm_minic::{Span, Taint};

use crate::inst::{Inst, Operand, Terminator, ValueId};
use crate::module::{Function, Module};

/// A taint error produced by the inference (e.g. private data flowing into a
/// public sink).  These correspond to the compile-time errors of the paper,
/// such as flagging `send(log_file, passwd, SIZE)`.
#[derive(Debug, Clone)]
pub struct TaintError {
    pub function: String,
    pub message: String,
    pub span: Span,
}

impl std::fmt::Display for TaintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "taint error in `{}` at {}: {}",
            self.function, self.span, self.message
        )
    }
}

impl std::error::Error for TaintError {}

/// Summary of a successful inference run.
#[derive(Debug, Clone, Default)]
pub struct TaintReport {
    /// Implicit-flow warnings (branches on private data) when not in strict
    /// mode; in strict mode these are errors instead.
    pub warnings: Vec<TaintError>,
    /// Number of values inferred private across the module.
    pub private_values: usize,
    /// Number of memory operations whose region was inferred private.
    pub private_accesses: usize,
    /// Number of memory operations whose region was inferred public.
    pub public_accesses: usize,
}

/// Inference configuration.
#[derive(Debug, Clone, Copy)]
pub struct InferOptions {
    /// Reject branches on private data (implicit flows).  The paper runs all
    /// its experiments in this stricter mode (Section 2).
    pub strict: bool,
    /// Treat *all* data in U as private (the "all-private" mode of
    /// Section 5.1, used for the SGX/Privado deployment).
    pub all_private: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions {
            strict: true,
            all_private: false,
        }
    }
}

/// Run qualifier inference over the whole module, writing the solution back
/// into value metadata and load/store regions.
pub fn infer(module: &mut Module, opts: InferOptions) -> Result<TaintReport, Vec<TaintError>> {
    let mut report = TaintReport::default();
    let mut errors = Vec::new();

    // Snapshot of the callee signatures (direct calls need them while we
    // mutate functions one at a time).
    let fn_sigs: HashMap<String, (Vec<Taint>, Vec<Taint>, Taint)> = module
        .functions
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                (
                    f.param_taints.clone(),
                    f.param_pointee_taints.clone(),
                    f.ret_taint,
                ),
            )
        })
        .collect();
    let extern_sigs: HashMap<String, (Vec<Taint>, Vec<Taint>, Taint)> = module
        .externs
        .iter()
        .map(|e| {
            (
                e.name.clone(),
                (
                    e.param_taints.clone(),
                    e.param_pointee_taints.clone(),
                    e.ret_taint,
                ),
            )
        })
        .collect();
    let global_taints: HashMap<String, Taint> = module
        .globals
        .iter()
        .map(|g| (g.name.clone(), g.taint))
        .collect();

    for func in &mut module.functions {
        match infer_function(func, &fn_sigs, &extern_sigs, &global_taints, opts) {
            Ok(mut fn_report) => {
                report.warnings.append(&mut fn_report.warnings);
                report.private_values += fn_report.private_values;
                report.private_accesses += fn_report.private_accesses;
                report.public_accesses += fn_report.public_accesses;
            }
            Err(mut errs) => errors.append(&mut errs),
        }
    }

    if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
    }
}

// ---------------------------------------------------------------------------
// Constraint representation
// ---------------------------------------------------------------------------

/// Qualifier variables: each IR value owns three — the taint of the value
/// itself, the taint of what it points to, and the taint of what *that*
/// points to (enough for pointers held in local slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Level {
    Value,
    Pointee,
    Pointee2,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Var(u32);

#[derive(Debug, Clone)]
struct Constraint<'a> {
    kind: ConstraintKind,
    span: Span,
    why: Why<'a>,
}

/// Why a constraint exists, for diagnostics.  A reason is read only when
/// inference fails, so one that names a symbol or a qualifier keeps its
/// parts, borrowed from the function, and is formatted by [`Why::text`] on
/// that path alone.
#[derive(Debug, Clone, Copy)]
enum Why<'a> {
    Fixed(&'static str),
    /// Parameter `i`'s declared value taint.
    Param(usize, Taint),
    /// Parameter `i`'s declared pointee taint.
    ParamPointee(usize, Taint),
    /// A value's declared taint.
    Declared(ValueId, Taint),
    /// A value's declared pointee taint.
    DeclaredPointee(ValueId, Taint),
    /// The function's declared return taint.
    Return(Taint),
    /// The region a global lives in.
    Global(&'a str, Taint),
    /// Argument `i` of a call to the named callee, and its expected taint.
    Arg(usize, &'a str, Taint),
    /// Argument `i` of a call to the named callee, and its required region.
    ArgRegion(usize, &'a str, Taint),
    /// The named callee returns private data.
    PrivateReturn(&'a str),
}

impl Why<'_> {
    /// The reason's text; `fname` names the function being inferred.
    fn text(self, fname: &str) -> String {
        match self {
            Why::Fixed(why) => why.to_string(),
            Why::Param(i, t) => format!("parameter {i} of `{fname}` is declared {t}"),
            Why::ParamPointee(i, t) => format!("parameter {i} of `{fname}` points to {t} data"),
            Why::Declared(v, t) => format!("value {v} is declared {t}"),
            Why::DeclaredPointee(v, t) => format!("value {v} is declared to point to {t} data"),
            Why::Return(t) => format!("return value of `{fname}` is declared {t}"),
            Why::Global(name, t) => format!("global `{name}` lives in the {t} region"),
            Why::Arg(i, callee, t) => {
                format!("argument {i} of call to `{callee}` expects {t} data")
            }
            Why::ArgRegion(i, callee, t) => {
                format!("argument {i} of call to `{callee}` must point to the {t} region")
            }
            Why::PrivateReturn(callee) => format!("`{callee}` returns private data"),
        }
    }
}

impl From<&'static str> for Why<'_> {
    fn from(why: &'static str) -> Self {
        Why::Fixed(why)
    }
}

#[derive(Debug, Clone)]
enum ConstraintKind {
    /// `lo ⊑ hi` between two variables.
    Flow(Var, Var),
    /// `Private ⊑ v` (v must be private).
    AtLeastPrivate(Var),
    /// `v ⊑ Public` (v must remain public).
    AtMostPublic(Var),
    /// `a = b`.
    Eq(Var, Var),
    /// `v = t`.
    Pin(Var, Taint),
}

/// The qualifier variable of `v` at `level`.
fn var(v: ValueId, level: Level) -> Var {
    let l = match level {
        Level::Value => 0,
        Level::Pointee => 1,
        Level::Pointee2 => 2,
    };
    Var(v.0 * 3 + l)
}

struct ConstraintSet<'a> {
    nvalues: usize,
    constraints: Vec<Constraint<'a>>,
}

impl<'a> ConstraintSet<'a> {
    fn new(nvalues: usize) -> Self {
        ConstraintSet {
            nvalues,
            constraints: Vec::new(),
        }
    }

    fn var_count(&self) -> usize {
        self.nvalues * 3
    }

    fn push(&mut self, kind: ConstraintKind, span: Span, why: impl Into<Why<'a>>) {
        self.constraints.push(Constraint {
            kind,
            span,
            why: why.into(),
        });
    }

    /// Flow from an operand's value taint into a variable.
    fn flow_operand_into(&mut self, op: Operand, hi: Var, span: Span, why: &'static str) {
        match op {
            Operand::Const(_) => {} // public ⊑ anything, vacuous
            Operand::Value(v) => {
                self.push(ConstraintKind::Flow(var(v, Level::Value), hi), span, why)
            }
        }
    }

    /// Constrain an operand's value taint to flow into a fixed taint bound.
    fn operand_at_most(&mut self, op: Operand, bound: Taint, span: Span, why: impl Into<Why<'a>>) {
        if bound == Taint::Private {
            return; // anything ⊑ private
        }
        if let Operand::Value(v) = op {
            self.push(
                ConstraintKind::AtMostPublic(var(v, Level::Value)),
                span,
                why,
            );
        }
    }

    /// Pin an operand's pointee taint to exactly `t` (pointer invariance at
    /// call boundaries).
    fn operand_pointee_eq(&mut self, op: Operand, t: Taint, span: Span, why: impl Into<Why<'a>>) {
        if let Operand::Value(v) = op {
            self.push(ConstraintKind::Pin(var(v, Level::Pointee), t), span, why);
        }
    }
}

// ---------------------------------------------------------------------------
// Constraint generation
// ---------------------------------------------------------------------------

type Sig = (Vec<Taint>, Vec<Taint>, Taint);

fn infer_function(
    func: &mut Function,
    fn_sigs: &HashMap<String, Sig>,
    extern_sigs: &HashMap<String, Sig>,
    global_taints: &HashMap<String, Taint>,
    opts: InferOptions,
) -> Result<TaintReport, Vec<TaintError>> {
    let mut cs = ConstraintSet::new(func.values.len());
    let fname = func.name.clone();

    // Parameter pins from the (trusted for externs, declared for U) signature.
    for (i, p) in func.params.iter().enumerate() {
        let t = if opts.all_private {
            Taint::Private
        } else {
            func.param_taints[i]
        };
        let pt = if opts.all_private {
            Taint::Private
        } else {
            func.param_pointee_taints[i]
        };
        cs.push(
            ConstraintKind::Pin(var(*p, Level::Value), t),
            func.span,
            Why::Param(i, t),
        );
        cs.push(
            ConstraintKind::Pin(var(*p, Level::Pointee), pt),
            func.span,
            Why::ParamPointee(i, pt),
        );
    }

    // Declared pins recorded by the lowering (explicit `private` locals,
    // pointer-typed loads, casts).
    for (i, info) in func.values.iter().enumerate() {
        let v = ValueId(i as u32);
        if let Some(t) = info.declared_taint {
            cs.push(
                ConstraintKind::Pin(var(v, Level::Value), t),
                func.span,
                Why::Declared(v, t),
            );
        }
        if let Some(t) = info.declared_pointee {
            let t = if opts.all_private { Taint::Private } else { t };
            cs.push(
                ConstraintKind::Pin(var(v, Level::Pointee), t),
                func.span,
                Why::DeclaredPointee(v, t),
            );
        }
    }

    let mut warnings = Vec::new();

    for block in &func.blocks {
        for inst in &block.insts {
            gen_inst_constraints(&mut cs, inst, fn_sigs, extern_sigs, global_taints, opts);
        }
        match &block.term {
            Terminator::Ret {
                value: Some(v),
                span,
            } => {
                let bound = if opts.all_private {
                    Taint::Private
                } else {
                    func.ret_taint
                };
                cs.operand_at_most(*v, bound, *span, Why::Return(bound));
            }
            Terminator::CondBr { cond, span, .. } => {
                if opts.strict {
                    cs.operand_at_most(
                        *cond,
                        Taint::Public,
                        *span,
                        "branching on private data (implicit flow) is rejected in strict mode",
                    );
                } else if let Operand::Value(_) = cond {
                    // Recorded after solving (we only know the taint then);
                    // handled below by re-checking the solution.
                }
            }
            _ => {}
        }
    }

    // Solve.
    let solution = solve(&cs, &fname)?;

    // Write the solution back into the function.
    let mut private_values = 0;
    for (i, info) in func.values.iter_mut().enumerate() {
        let v = ValueId(i as u32);
        info.taint = solution.taint_of(var(v, Level::Value));
        info.pointee_taint = solution.taint_of(var(v, Level::Pointee));
        if info.taint == Taint::Private {
            private_values += 1;
        }
    }
    let mut private_accesses = 0;
    let mut public_accesses = 0;
    for block in &mut func.blocks {
        for inst in &mut block.insts {
            match inst {
                Inst::Load { addr, region, .. } | Inst::Store { addr, region, .. } => {
                    let r = match addr {
                        Operand::Const(_) => Taint::Public,
                        Operand::Value(v) => solution.taint_of(var(*v, Level::Pointee)),
                    };
                    let r = if opts.all_private { Taint::Private } else { r };
                    *region = r;
                    if r == Taint::Private {
                        private_accesses += 1;
                    } else {
                        public_accesses += 1;
                    }
                }
                _ => {}
            }
        }
        // Non-strict mode: surface implicit flows as warnings.
        if !opts.strict {
            if let Terminator::CondBr {
                cond: Operand::Value(v),
                span,
                ..
            } = &block.term
            {
                if solution.taint_of(var(*v, Level::Value)) == Taint::Private {
                    warnings.push(TaintError {
                        function: fname.clone(),
                        message:
                            "branch condition depends on private data (possible implicit flow)"
                                .to_string(),
                        span: *span,
                    });
                }
            }
        }
    }

    Ok(TaintReport {
        warnings,
        private_values,
        private_accesses,
        public_accesses,
    })
}

#[allow(clippy::too_many_arguments)]
fn gen_inst_constraints<'a>(
    cs: &mut ConstraintSet<'a>,
    inst: &'a Inst,
    fn_sigs: &HashMap<String, Sig>,
    extern_sigs: &HashMap<String, Sig>,
    global_taints: &HashMap<String, Taint>,
    opts: InferOptions,
) {
    match inst {
        Inst::Alloca { dst, .. } => {
            cs.push(
                ConstraintKind::Pin(var(*dst, Level::Value), Taint::Public),
                Span::default(),
                "stack addresses are public values",
            );
            if opts.all_private {
                cs.push(
                    ConstraintKind::Pin(var(*dst, Level::Pointee), Taint::Private),
                    Span::default(),
                    "all-private mode: every slot is private",
                );
            }
        }
        Inst::Load {
            dst, addr, span, ..
        } => {
            if let Operand::Value(a) = addr {
                cs.push(
                    ConstraintKind::Flow(var(*a, Level::Pointee), var(*dst, Level::Value)),
                    *span,
                    "loaded value carries the taint of the memory it was read from",
                );
                cs.push(
                    ConstraintKind::Eq(var(*a, Level::Pointee2), var(*dst, Level::Pointee)),
                    *span,
                    "loading a pointer preserves what it points to",
                );
            }
        }
        Inst::Store {
            addr, value, span, ..
        } => {
            if let Operand::Value(a) = addr {
                cs.flow_operand_into(
                    *value,
                    var(*a, Level::Pointee),
                    *span,
                    "stored value must not exceed the taint of the destination memory",
                );
                if let Operand::Value(v) = value {
                    cs.push(
                        ConstraintKind::Eq(var(*v, Level::Pointee), var(*a, Level::Pointee2)),
                        *span,
                        "storing a pointer records what it points to",
                    );
                }
            }
        }
        Inst::Bin { dst, lhs, rhs, .. } => {
            cs.flow_operand_into(
                *lhs,
                var(*dst, Level::Value),
                Span::default(),
                "arithmetic result derives from its operands",
            );
            cs.flow_operand_into(
                *rhs,
                var(*dst, Level::Value),
                Span::default(),
                "arithmetic result derives from its operands",
            );
            // Pointer arithmetic: the result designates the same region as the
            // pointer operand.  The lowering always places the pointer on the
            // left-hand side of address computations (`base + scaled_index`),
            // so only the lhs pointee is connected; connecting the index
            // operand as well would spuriously unify unrelated buffers that
            // happen to share an index variable.
            let ptr_operand = match (lhs, rhs) {
                (Operand::Value(v), _) => Some(*v),
                (Operand::Const(_), Operand::Value(v)) => Some(*v),
                _ => None,
            };
            if let Some(v) = ptr_operand {
                cs.push(
                    ConstraintKind::Eq(var(v, Level::Pointee), var(*dst, Level::Pointee)),
                    Span::default(),
                    "pointer arithmetic stays within the pointed-to region",
                );
                cs.push(
                    ConstraintKind::Eq(var(v, Level::Pointee2), var(*dst, Level::Pointee2)),
                    Span::default(),
                    "pointer arithmetic preserves indirect pointees",
                );
            }
        }
        Inst::Cmp { dst, lhs, rhs, .. } => {
            cs.flow_operand_into(
                *lhs,
                var(*dst, Level::Value),
                Span::default(),
                "comparison result derives from its operands",
            );
            cs.flow_operand_into(
                *rhs,
                var(*dst, Level::Value),
                Span::default(),
                "comparison result derives from its operands",
            );
        }
        Inst::Copy { dst, src } => {
            // Copies are produced by pointer casts (and by constant folding).
            // The value taint still flows, but the pointee qualifier is *not*
            // connected: a cast re-declares what the pointer points to.  This
            // is precisely the loophole of the Minizip experiment (Section
            // 7.6) that only the runtime checks can close.
            cs.flow_operand_into(
                *src,
                var(*dst, Level::Value),
                Span::default(),
                "copy propagates taint",
            );
        }
        Inst::GlobalAddr { dst, name } => {
            cs.push(
                ConstraintKind::Pin(var(*dst, Level::Value), Taint::Public),
                Span::default(),
                "global addresses are public values",
            );
            let t = if opts.all_private {
                Taint::Private
            } else {
                global_taints.get(name).copied().unwrap_or(Taint::Public)
            };
            cs.push(
                ConstraintKind::Pin(var(*dst, Level::Pointee), t),
                Span::default(),
                Why::Global(name, t),
            );
        }
        Inst::FuncAddr { dst, .. } => {
            cs.push(
                ConstraintKind::Pin(var(*dst, Level::Value), Taint::Public),
                Span::default(),
                "function addresses are public values",
            );
        }
        Inst::Call {
            dst,
            callee,
            args,
            span,
        } => {
            if let Some((param_taints, param_pointees, ret_taint)) = fn_sigs.get(callee) {
                gen_call_constraints(
                    cs,
                    callee,
                    args,
                    *dst,
                    param_taints,
                    param_pointees,
                    *ret_taint,
                    *span,
                    opts,
                );
            }
        }
        Inst::CallExtern {
            dst,
            callee,
            args,
            span,
        } => {
            if let Some((param_taints, param_pointees, ret_taint)) = extern_sigs.get(callee) {
                // Extern (T) signatures are trusted as-is even in all-private
                // mode; they are the declassification boundary.
                gen_call_constraints(
                    cs,
                    callee,
                    args,
                    *dst,
                    param_taints,
                    param_pointees,
                    *ret_taint,
                    *span,
                    InferOptions {
                        all_private: false,
                        ..opts
                    },
                );
            }
        }
        Inst::CallIndirect {
            dst,
            target,
            args,
            param_taints,
            ret_taint,
            span,
        } => {
            cs.operand_at_most(
                *target,
                Taint::Public,
                *span,
                "function pointers must be public values",
            );
            let pointees: Vec<Taint> = param_taints.clone();
            gen_call_constraints(
                cs,
                "<indirect>",
                args,
                *dst,
                param_taints,
                &pointees,
                *ret_taint,
                *span,
                opts,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn gen_call_constraints<'a>(
    cs: &mut ConstraintSet<'a>,
    callee: &'a str,
    args: &[Operand],
    dst: Option<ValueId>,
    param_taints: &[Taint],
    param_pointees: &[Taint],
    ret_taint: Taint,
    span: Span,
    opts: InferOptions,
) {
    for (i, arg) in args.iter().enumerate() {
        let pt = param_taints.get(i).copied().unwrap_or(Taint::Private);
        let pp = param_pointees.get(i).copied().unwrap_or(Taint::Private);
        // All-private mode treats every U-internal parameter as private no
        // matter its declared qualifier, mirroring the definition-side pins;
        // extern (T) call sites are exempted by the caller, which clears
        // `all_private` before generating their constraints.
        let (pt, pp) = if opts.all_private {
            (Taint::Private, Taint::Private)
        } else {
            (pt, pp)
        };
        cs.operand_at_most(*arg, pt, span, Why::Arg(i, callee, pt));
        cs.operand_pointee_eq(*arg, pp, span, Why::ArgRegion(i, callee, pp));
    }
    if let Some(d) = dst {
        if ret_taint == Taint::Private || opts.all_private {
            cs.push(
                ConstraintKind::AtLeastPrivate(var(d, Level::Value)),
                span,
                Why::PrivateReturn(callee),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Constraint solving
// ---------------------------------------------------------------------------

struct Solution {
    taints: Vec<Taint>,
    uf: UnionFind,
}

impl Solution {
    fn taint_of(&self, v: Var) -> Taint {
        let root = self.uf.find_immut(v.0 as usize);
        self.taints[root]
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn find_immut(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
        ra
    }
}

fn solve(cs: &ConstraintSet, fname: &str) -> Result<Solution, Vec<TaintError>> {
    let n = cs.var_count();
    let mut uf = UnionFind::new(n);
    let mut errors = Vec::new();

    // Phase 1: equalities.
    for c in &cs.constraints {
        if let ConstraintKind::Eq(a, b) = &c.kind {
            uf.union(a.0 as usize, b.0 as usize);
        }
    }

    // Phase 2: collect pins and bounds per class.
    let mut pinned: Vec<Option<Taint>> = vec![None; n];
    let mut pin_why: Vec<Option<(Span, Why)>> = vec![None; n];
    let mut at_most_public: Vec<Option<(Span, Why)>> = vec![None; n];
    let mut at_least_private: Vec<Option<(Span, Why)>> = vec![None; n];
    for c in &cs.constraints {
        match &c.kind {
            ConstraintKind::Pin(v, t) => {
                let r = uf.find(v.0 as usize);
                match pinned[r] {
                    None => {
                        pinned[r] = Some(*t);
                        pin_why[r] = Some((c.span, c.why));
                    }
                    Some(existing) if existing != *t => {
                        let prev = pin_why[r].map(|(_, w)| w.text(fname)).unwrap_or_default();
                        errors.push(TaintError {
                            function: fname.to_string(),
                            message: format!(
                                "conflicting qualifier requirements: {} vs {}",
                                c.why.text(fname),
                                prev
                            ),
                            span: c.span,
                        });
                    }
                    _ => {}
                }
            }
            ConstraintKind::AtMostPublic(v) => {
                let r = uf.find(v.0 as usize);
                if at_most_public[r].is_none() {
                    at_most_public[r] = Some((c.span, c.why));
                }
            }
            ConstraintKind::AtLeastPrivate(v) => {
                let r = uf.find(v.0 as usize);
                if at_least_private[r].is_none() {
                    at_least_private[r] = Some((c.span, c.why));
                }
            }
            _ => {}
        }
    }

    // Phase 3: propagate "private" along flow edges.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for c in &cs.constraints {
        if let ConstraintKind::Flow(lo, hi) = &c.kind {
            let a = uf.find(lo.0 as usize);
            let b = uf.find(hi.0 as usize);
            if a != b {
                edges[a].push(b);
            }
        }
    }

    let mut taints = vec![Taint::Public; n];
    let mut worklist = Vec::new();
    for r in 0..n {
        if uf.find(r) != r {
            continue;
        }
        let is_private = pinned[r] == Some(Taint::Private) || at_least_private[r].is_some();
        if is_private {
            taints[r] = Taint::Private;
            worklist.push(r);
        }
    }
    while let Some(r) = worklist.pop() {
        for &target in &edges[r] {
            if taints[target] == Taint::Private {
                continue;
            }
            taints[target] = Taint::Private;
            worklist.push(target);
        }
    }

    // Phase 4: check upper bounds.
    for r in 0..n {
        if uf.find(r) != r {
            continue;
        }
        if taints[r] == Taint::Private {
            if pinned[r] == Some(Taint::Public) {
                let (span, why) =
                    pin_why[r].map_or_else(Default::default, |(span, why)| (span, why.text(fname)));
                errors.push(TaintError {
                    function: fname.to_string(),
                    message: format!(
                        "private data reaches a location required to be public ({why})"
                    ),
                    span,
                });
            }
            if let Some((span, why)) = at_most_public[r] {
                errors.push(TaintError {
                    function: fname.to_string(),
                    message: format!("private data flows into a public sink: {}", why.text(fname)),
                    span,
                });
            }
        }
    }

    if !errors.is_empty() {
        return Err(errors);
    }
    Ok(Solution { taints, uf })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use confllvm_minic::{parse, Sema};

    fn infer_src(src: &str) -> Result<(Module, TaintReport), Vec<TaintError>> {
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let mut module = lower(&prog, &sema, "test").unwrap();
        let report = infer(&mut module, InferOptions::default())?;
        Ok((module, report))
    }

    #[test]
    fn public_only_program_infers_public() {
        let (m, report) = infer_src("int add(int a, int b) { return a + b; }").unwrap();
        assert_eq!(report.private_values, 0);
        let f = m.function("add").unwrap();
        for b in &f.blocks {
            for i in &b.insts {
                if let Inst::Store { region, .. } | Inst::Load { region, .. } = i {
                    assert_eq!(*region, Taint::Public);
                }
            }
        }
    }

    #[test]
    fn private_param_propagates_to_local_buffer() {
        // The paper's key inference example: `passwd` is inferred private
        // because it is passed to `read_passwd`, whose signature says the
        // buffer receives private data.
        let src = "
            extern void read_passwd(char *uname, private char *pass, int size);
            int handle(char *uname) {
                char passwd[64];
                read_passwd(uname, passwd, 64);
                return passwd[0];
            }
        ";
        let err = infer_src(src);
        // passwd[0] is private and flows into the public return value: error.
        assert!(err.is_err());
        let errors = err.unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.message.contains("public sink") || e.message.contains("public")));
    }

    #[test]
    fn private_buffer_ok_when_return_is_private() {
        let src = "
            extern void read_passwd(char *uname, private char *pass, int size);
            private int handle(char *uname) {
                char passwd[64];
                read_passwd(uname, passwd, 64);
                return passwd[0];
            }
        ";
        let (m, report) = infer_src(src).unwrap();
        assert!(report.private_accesses > 0);
        let f = m.function("handle").unwrap();
        // The buffer's loads must be tagged private.
        let has_private_load = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Load {
                        region: Taint::Private,
                        ..
                    }
                )
            })
        });
        assert!(has_private_load);
    }

    #[test]
    fn leak_to_public_extern_is_detected() {
        // Figure 1's bug: sending the password buffer to `send` (public).
        let src = "
            extern void read_passwd(char *uname, private char *pass, int size);
            extern int send(int fd, char *buf, int n);
            void handle(char *uname) {
                char passwd[64];
                read_passwd(uname, passwd, 64);
                send(1, passwd, 64);
            }
        ";
        let errs = infer_src(src).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("send")),
            "expected an error mentioning the call to send, got: {errs:?}"
        );
    }

    #[test]
    fn error_texts_name_the_violated_constraint() {
        let src = "
            extern void read_passwd(char *uname, private char *pass, int size);
            extern int send(int fd, char *buf, int n);
            int counter;
            int handle(char *uname) {
                char passwd[64];
                read_passwd(uname, passwd, 64);
                send(1, passwd, 64);
                counter = passwd[1];
                return passwd[0];
            }
        ";
        let errs = infer_src(src).unwrap_err();
        let texts: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        assert_eq!(
            texts,
            [
                "taint error in `handle` at 8:21: conflicting qualifier requirements: \
                 argument 1 of call to `send` must point to the public region vs \
                 argument 1 of call to `read_passwd` must point to the private region",
                "taint error in `handle` at 0:0: private data reaches a location required \
                 to be public (global `counter` lives in the public region)",
                "taint error in `handle` at 10:17: private data flows into a public sink: \
                 return value of `handle` is declared public",
            ]
        );
    }

    #[test]
    fn explicit_private_local_is_pinned() {
        let src = "
            private int get(private int x) {
                private int y;
                y = x;
                return y;
            }
        ";
        let (m, report) = infer_src(src).unwrap();
        assert!(report.private_values > 0);
        assert!(m.function("get").is_some());
    }

    #[test]
    fn strict_mode_rejects_branch_on_private() {
        let src = "
            private int check(private int x) {
                if (x > 0) { return 1; }
                return 0;
            }
        ";
        let errs = infer_src(src).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("implicit flow") || e.message.contains("branch")));
    }

    #[test]
    fn non_strict_mode_warns_on_branch_on_private() {
        let src = "
            private int check(private int x) {
                if (x > 0) { return 1; }
                return 0;
            }
        ";
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let mut module = lower(&prog, &sema, "test").unwrap();
        let report = infer(
            &mut module,
            InferOptions {
                strict: false,
                all_private: false,
            },
        )
        .unwrap();
        assert_eq!(report.warnings.len(), 1);
    }

    #[test]
    fn all_private_mode_marks_every_access_private() {
        let src = "int f(int *p) { return p[0]; }";
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let mut module = lower(&prog, &sema, "test").unwrap();
        let report = infer(
            &mut module,
            InferOptions {
                strict: true,
                all_private: true,
            },
        )
        .unwrap();
        assert_eq!(report.public_accesses, 0);
        assert!(report.private_accesses > 0);
    }

    #[test]
    fn all_private_mode_accepts_private_args_to_publicly_declared_params() {
        // `use_it` declares a public parameter, but in all-private mode every
        // U-internal value is private, so the call site must not reject the
        // (private) argument — the declared qualifier is overridden, exactly
        // as it is at the definition side.
        let src = "
            int use_it(int v) { return v + 1; }
            int f(int *p) { return use_it(p[0]); }
        ";
        let prog = parse(src).unwrap();
        let sema = Sema::analyze(&prog).unwrap();
        let mut module = lower(&prog, &sema, "test").unwrap();
        let report = infer(
            &mut module,
            InferOptions {
                strict: true,
                all_private: true,
            },
        )
        .unwrap();
        assert_eq!(report.public_accesses, 0);
    }

    #[test]
    fn private_global_accesses_are_private() {
        let src = "
            private int key;
            private int get_key() { return key; }
        ";
        let (m, _) = infer_src(src).unwrap();
        let f = m.function("get_key").unwrap();
        let has_private_load = f.blocks.iter().any(|b| {
            b.insts.iter().any(|i| {
                matches!(
                    i,
                    Inst::Load {
                        region: Taint::Private,
                        ..
                    }
                )
            })
        });
        assert!(has_private_load);
    }

    #[test]
    fn function_pointer_must_be_public() {
        let src = "
            int inc(int x) { return x + 1; }
            int apply(int (*fp)(int), int v) { return fp(v); }
        ";
        // fp is a public value; this should infer fine.
        assert!(infer_src(src).is_ok());
    }

    #[test]
    fn cast_suppresses_static_detection() {
        // The Minizip scenario (Section 7.6): casting launders the pointee
        // taint, so no static error — the runtime checks must catch it.
        let src = "
            extern void get_password(private char *pass, int size);
            extern int send(int fd, char *buf, int n);
            void leak() {
                char password[32];
                get_password(password, 32);
                char *alias;
                alias = (char *) password;
                send(1, alias, 32);
            }
        ";
        let res = infer_src(src);
        assert!(
            res.is_ok(),
            "the cast hides the flow from the static analysis: {res:?}"
        );
    }
}
