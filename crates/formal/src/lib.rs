//! # confllvm-formal
//!
//! An executable version of the formal model of Appendix A: an abstract
//! command language (Table 1) with register taints, the verifier's typing
//! judgment (Figure 10), a small-step operational semantics (Figure 9), and
//! property-based tests of the termination-insensitive non-interference
//! theorem (Theorem 1): two public-equivalent configurations of a well-typed
//! program stay public-equivalent.

use std::collections::HashMap;

/// Security labels (H = private, L = public).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    L,
    H,
}

impl Label {
    pub fn join(self, other: Label) -> Label {
        if self == Label::H || other == Label::H {
            Label::H
        } else {
            Label::L
        }
    }

    pub fn flows_to(self, other: Label) -> bool {
        self == Label::L || other == Label::H
    }
}

/// Expressions over registers and constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exp {
    Const(i64),
    Reg(usize),
    Add(Box<Exp>, Box<Exp>),
}

impl Exp {
    /// Evaluate under a register file.
    pub fn eval(&self, regs: &[i64]) -> i64 {
        match self {
            Exp::Const(c) => *c,
            Exp::Reg(r) => regs[*r],
            Exp::Add(a, b) => a.eval(regs).wrapping_add(b.eval(regs)),
        }
    }

    /// Static label of the expression under a register typing Γ.
    pub fn label(&self, gamma: &[Label]) -> Label {
        match self {
            Exp::Const(_) => Label::L,
            Exp::Reg(r) => gamma[*r],
            Exp::Add(a, b) => a.label(gamma).join(b.label(gamma)),
        }
    }
}

/// Commands (a subset of Table 1 sufficient for the theorem: loads, stores,
/// register moves, conditionals and direct jumps; calls are modelled as
/// jumps).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd {
    /// `ldr(reg, e)`: load from the memory named by `e`'s label-region.
    Ldr {
        reg: usize,
        addr: Exp,
        region: Label,
    },
    /// `str(reg, e)`.
    Str {
        reg: usize,
        addr: Exp,
        region: Label,
    },
    /// `reg := e`.
    Mov { reg: usize, exp: Exp },
    /// `ifthenelse(e, goto a, goto b)`.
    If {
        cond: Exp,
        then_pc: usize,
        else_pc: usize,
    },
    /// `goto(pc)`.
    Goto(usize),
    /// `ret` (halts the program in this model).
    Ret,
}

/// A program together with the register typing at every node (the CFG of
/// Appendix A flattened into a vector; `Γ` is per-node).
#[derive(Debug, Clone)]
pub struct Program {
    pub cmds: Vec<Cmd>,
    pub gammas: Vec<Vec<Label>>,
}

/// A machine configuration: registers, the two memories (low and high) and a
/// program counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    pub regs: Vec<i64>,
    pub mem_low: HashMap<i64, i64>,
    pub mem_high: HashMap<i64, i64>,
    pub pc: usize,
}

impl Config {
    pub fn new(nregs: usize) -> Config {
        Config {
            regs: vec![0; nregs],
            mem_low: HashMap::new(),
            mem_high: HashMap::new(),
            pc: 0,
        }
    }
}

/// Type-check a program against its per-node register typings (the checks of
/// Figure 10, specialised to this command subset).
pub fn well_typed(prog: &Program) -> bool {
    let n = prog.cmds.len();
    if prog.gammas.len() != n {
        return false;
    }
    for (pc, cmd) in prog.cmds.iter().enumerate() {
        let gamma = &prog.gammas[pc];
        let next_ok = |target: usize, out: &Vec<Label>| -> bool {
            target >= n
                || out
                    .iter()
                    .zip(&prog.gammas[target])
                    .all(|(a, b)| a.flows_to(*b))
        };
        let ok = match cmd {
            Cmd::Ldr { reg, addr, region } => {
                // The address must be public (no address-channel leaks) and
                // the loaded value takes the region's label.
                let mut out = gamma.clone();
                out[*reg] = *region;
                addr.label(gamma) == Label::L && next_ok(pc + 1, &out)
            }
            Cmd::Str { reg, addr, region } => {
                addr.label(gamma) == Label::L
                    && gamma[*reg].flows_to(*region)
                    && next_ok(pc + 1, &gamma.clone())
            }
            Cmd::Mov { reg, exp } => {
                let mut out = gamma.clone();
                out[*reg] = exp.label(gamma);
                next_ok(pc + 1, &out)
            }
            Cmd::If {
                cond,
                then_pc,
                else_pc,
            } => {
                cond.label(gamma) == Label::L
                    && next_ok(*then_pc, &gamma.clone())
                    && next_ok(*else_pc, &gamma.clone())
            }
            Cmd::Goto(t) => next_ok(*t, &gamma.clone()),
            Cmd::Ret => true,
        };
        if !ok {
            return false;
        }
    }
    true
}

/// One small step.  Returns `None` when the program has halted.
pub fn step(prog: &Program, cfg: &Config) -> Option<Config> {
    let cmd = prog.cmds.get(cfg.pc)?;
    let mut next = cfg.clone();
    match cmd {
        Cmd::Ldr { reg, addr, region } => {
            let a = addr.eval(&cfg.regs);
            let v = match region {
                Label::L => *cfg.mem_low.get(&a).unwrap_or(&0),
                Label::H => *cfg.mem_high.get(&a).unwrap_or(&0),
            };
            next.regs[*reg] = v;
            next.pc += 1;
        }
        Cmd::Str { reg, addr, region } => {
            let a = addr.eval(&cfg.regs);
            match region {
                Label::L => {
                    next.mem_low.insert(a, cfg.regs[*reg]);
                }
                Label::H => {
                    next.mem_high.insert(a, cfg.regs[*reg]);
                }
            }
            next.pc += 1;
        }
        Cmd::Mov { reg, exp } => {
            next.regs[*reg] = exp.eval(&cfg.regs);
            next.pc += 1;
        }
        Cmd::If {
            cond,
            then_pc,
            else_pc,
        } => {
            next.pc = if cond.eval(&cfg.regs) != 0 {
                *then_pc
            } else {
                *else_pc
            };
        }
        Cmd::Goto(t) => next.pc = *t,
        Cmd::Ret => return None,
    }
    Some(next)
}

/// Run for at most `fuel` steps.
pub fn run(prog: &Program, mut cfg: Config, fuel: usize) -> Config {
    for _ in 0..fuel {
        match step(prog, &cfg) {
            Some(next) => cfg = next,
            None => break,
        }
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NREGS: usize = 4;

    /// Generate small well-typed programs with a fixed per-node Γ where
    /// register 0 is always H and the others L.  The generator only produces
    /// commands that satisfy the typing rules by construction; `well_typed`
    /// re-checks them.
    fn gamma() -> Vec<Label> {
        let mut g = vec![Label::L; NREGS];
        g[0] = Label::H;
        g
    }

    fn arb_exp(allow_high: bool) -> impl Strategy<Value = Exp> {
        let reg_range = if allow_high { 0..NREGS } else { 1..NREGS };
        prop_oneof![
            (-8i64..8).prop_map(Exp::Const),
            reg_range.prop_map(Exp::Reg),
        ]
    }

    fn arb_cmd(len: usize) -> impl Strategy<Value = Cmd> {
        prop_oneof![
            // Loads: high loads only into r0, low loads into r1..;
            (arb_exp(false), 0..4i64).prop_map(|(a, _)| Cmd::Ldr {
                reg: 0,
                addr: a,
                region: Label::H
            }),
            ((1..NREGS), arb_exp(false)).prop_map(|(r, a)| Cmd::Ldr {
                reg: r,
                addr: a,
                region: Label::L
            }),
            // Stores: low registers to low memory, r0 to high memory.
            ((1..NREGS), arb_exp(false)).prop_map(|(r, a)| Cmd::Str {
                reg: r,
                addr: a,
                region: Label::L
            }),
            arb_exp(false).prop_map(|a| Cmd::Str {
                reg: 0,
                addr: a,
                region: Label::H
            }),
            // Moves: r0 may receive anything; r1.. only low expressions.
            arb_exp(true).prop_map(|e| Cmd::Mov { reg: 0, exp: e }),
            ((1..NREGS), arb_exp(false)).prop_map(|(r, e)| Cmd::Mov { reg: r, exp: e }),
            // Control flow on low data only.
            (arb_exp(false), 0..len, 0..len).prop_map(|(c, a, b)| Cmd::If {
                cond: c,
                then_pc: a,
                else_pc: b
            }),
            (0..len).prop_map(Cmd::Goto),
            Just(Cmd::Ret),
        ]
    }

    fn arb_program() -> impl Strategy<Value = Program> {
        prop::collection::vec(arb_cmd(12), 1..12).prop_map(|cmds| {
            let n = cmds.len();
            Program {
                cmds,
                gammas: vec![gamma(); n],
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Generated programs are accepted by the type system.
        #[test]
        fn generated_programs_are_well_typed(prog in arb_program()) {
            prop_assert!(well_typed(&prog));
        }

        /// Theorem 1 (termination-insensitive non-interference): starting from
        /// two configurations that differ only in high registers and high
        /// memory, running a well-typed program keeps the low projections
        /// equal.
        #[test]
        fn noninterference(prog in arb_program(), secret_a in -100i64..100, secret_b in -100i64..100) {
            let mut a = Config::new(NREGS);
            let mut b = Config::new(NREGS);
            a.regs[0] = secret_a;
            b.regs[0] = secret_b;
            a.mem_high.insert(0, secret_a * 7);
            b.mem_high.insert(0, secret_b * 13);
            let fa = run(&prog, a, 64);
            let fb = run(&prog, b, 64);
            prop_assert_eq!(&fa.mem_low, &fb.mem_low, "low memory diverged");
            // Low registers agree as well (public-equivalence).
            let g = gamma();
            for (r, label) in g.iter().enumerate() {
                if *label == Label::L {
                    prop_assert_eq!(fa.regs[r], fb.regs[r]);
                }
            }
        }
    }

    #[test]
    fn ill_typed_program_is_rejected() {
        // Store the high register into low memory: Figure 10 forbids it.
        let prog = Program {
            cmds: vec![
                Cmd::Str {
                    reg: 0,
                    addr: Exp::Const(0),
                    region: Label::L,
                },
                Cmd::Ret,
            ],
            gammas: vec![gamma(), gamma()],
        };
        assert!(!well_typed(&prog));
    }

    #[test]
    fn branch_on_high_is_rejected() {
        let prog = Program {
            cmds: vec![
                Cmd::If {
                    cond: Exp::Reg(0),
                    then_pc: 1,
                    else_pc: 1,
                },
                Cmd::Ret,
            ],
            gammas: vec![gamma(), gamma()],
        };
        assert!(!well_typed(&prog));
    }

    #[test]
    fn leaking_program_violates_noninterference_and_typing() {
        // mov r1 := r0 ; str r1 -> low[0]   (explicit leak)
        let prog = Program {
            cmds: vec![
                Cmd::Mov {
                    reg: 1,
                    exp: Exp::Reg(0),
                },
                Cmd::Str {
                    reg: 1,
                    addr: Exp::Const(0),
                    region: Label::L,
                },
                Cmd::Ret,
            ],
            gammas: vec![gamma(); 3],
        };
        assert!(
            !well_typed(&prog),
            "the leak must be rejected by the type system"
        );
        // And indeed it breaks non-interference when run.
        let mut a = Config::new(NREGS);
        let mut b = Config::new(NREGS);
        a.regs[0] = 1;
        b.regs[0] = 2;
        let fa = run(&prog, a, 16);
        let fb = run(&prog, b, 16);
        assert_ne!(fa.mem_low, fb.mem_low);
    }
}
