//! The cycle-accounting cost model.
//!
//! The reproduction measures *simulated cycles*, not wall-clock time.  The
//! constants below are chosen so the relative costs match the qualitative
//! structure the paper reports: MPX bound checks add one cheap µop per
//! check (but two checks per access), segment prefixes are free, the CFI
//! expansion costs a handful of straight-line instructions per return /
//! indirect call, calls into T pay a stack-and-segment-switch penalty when
//! U and T memories are separated, and data accesses pay a cache miss
//! penalty that makes the split public/private stacks measurably more
//! expensive for large working sets (Figure 6).

/// Cycle costs per instruction class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub alu: u64,
    pub mov: u64,
    pub load: u64,
    pub store: u64,
    pub push_pop: u64,
    pub jump: u64,
    pub call: u64,
    pub ret: u64,
    pub bnd_check: u64,
    pub load_code: u64,
    pub chkstk: u64,
    pub lea: u64,
    /// Extra cycles on a data-cache miss.
    pub cache_miss: u64,
    /// Base cost of any call into T (kernel-ish boundary crossing).
    pub extern_base: u64,
    /// Additional cost of switching rsp and gs when U and T memories are
    /// separated (OurBare and up).
    pub trusted_switch: u64,
    /// Cycles per 4 bytes copied across the U/T boundary by a wrapper.
    pub extern_per_4_bytes: u64,
    /// When true, a bound check issued right after a multiply/divide is free
    /// (models the port-level parallelism that makes the Privado classifier's
    /// tight FP loop hide the MPX overhead, Section 7.4).
    pub dual_issue_checks: bool,
}

impl CostModel {
    /// Cycles one executed bound check costs, given whether the immediately
    /// preceding instruction was a multiply/divide (dual-issue makes such a
    /// check free).  Split out so the simulator can attribute check cycles to
    /// the dedicated `check_cycles` counter — the number the pass-manager
    /// ablation reads to show what check elimination buys end-to-end.
    pub fn check_cost(&self, prev_was_muldiv: bool) -> u64 {
        if self.dual_issue_checks && prev_was_muldiv {
            0
        } else {
            self.bnd_check
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alu: 1,
            mov: 1,
            load: 3,
            store: 3,
            push_pop: 2,
            jump: 1,
            call: 4,
            ret: 4,
            bnd_check: 1,
            load_code: 2,
            chkstk: 2,
            lea: 1,
            cache_miss: 15,
            extern_base: 120,
            trusted_switch: 60,
            extern_per_4_bytes: 1,
            dual_issue_checks: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_keep_relative_order() {
        let c = CostModel::default();
        assert!(c.bnd_check <= c.load, "checks must be cheaper than loads");
        assert!(c.cache_miss > c.load);
        assert!(c.trusted_switch > c.call);
        assert!(c.extern_base > c.trusted_switch);
    }

    #[test]
    fn check_cost_respects_dual_issue() {
        let c = CostModel::default();
        assert_eq!(c.check_cost(true), 0, "dual-issued checks are free");
        assert_eq!(c.check_cost(false), c.bnd_check);
        let serial = CostModel {
            dual_issue_checks: false,
            ..CostModel::default()
        };
        assert_eq!(serial.check_cost(true), serial.bnd_check);
    }
}
