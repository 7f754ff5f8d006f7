//! Switch-cost measurement — the paper's Fig. 5 methodology.
//!
//! *"We start a dd command that writes 600 MB of zeroes from /dev/zero
//! to a file in parallel on four machines within the same physical
//! machine"*, then
//! `Cost = Time_withTwoSolutions − ½ (Time_Solution1 + Time_Solution2)`.
//!
//! Costs are *measured from the simulated stack* (drain under the old
//! elevator + re-init stalls + lost sorting during the transition), so
//! they inherit the properties the paper reports: state-dependent,
//! non-commutative, non-zero even on the diagonal, and growing with VM
//! consolidation.

use iosched::SchedPair;
use simcore::{SimDuration, SimTime};
use vmstack::runner::{NodeRunner, SyntheticProc};
use vmstack::NodeParams;

/// Configuration of the dd experiment.
#[derive(Debug, Clone)]
pub struct DdConfig {
    /// Node stack parameters.
    pub node: NodeParams,
    /// Concurrent VMs (the paper uses 4).
    pub vms: u32,
    /// Bytes written per VM (the paper uses 600 MB).
    pub bytes_per_vm: u64,
}

impl Default for DdConfig {
    fn default() -> Self {
        DdConfig {
            node: NodeParams::default(),
            vms: 4,
            bytes_per_vm: 600 * 1000 * 1000,
        }
    }
}

impl DdConfig {
    fn runner(&self, pair: SchedPair) -> NodeRunner {
        let mut r = NodeRunner::new(self.node.clone(), self.vms, pair);
        for vm in 0..self.vms {
            r.add_proc(SyntheticProc::dd_writer(vm, 0, 0, self.bytes_per_vm));
        }
        r
    }

    /// Elapsed time of the dd workload under a single pair.
    pub fn time_single(&self, pair: SchedPair) -> SimDuration {
        self.runner(pair).run().makespan
    }

    /// Elapsed time with a switch from `from` to `to` at `at`.
    pub fn time_with_switch(&self, from: SchedPair, to: SchedPair, at: SimTime) -> SimDuration {
        let mut r = self.runner(from);
        r.switch_at(at, to);
        r.run().makespan
    }
}

/// One cell of the switch-cost matrix.
#[derive(Debug, Clone, Copy)]
pub struct SwitchCost {
    /// State before the switch.
    pub from: SchedPair,
    /// State after the switch.
    pub to: SchedPair,
    /// `Time_withTwoSolutions`.
    pub combined: SimDuration,
    /// The paper's cost formula (may round up to zero from below —
    /// clamped at zero like an elapsed-time measurement).
    pub cost: SimDuration,
}

/// Measure the switch cost between two states with the paper's formula,
/// switching halfway through the first solution's solo elapsed time.
pub fn measure_switch_cost(cfg: &DdConfig, from: SchedPair, to: SchedPair) -> SwitchCost {
    let t_from = cfg.time_single(from);
    let t_to = cfg.time_single(to);
    let half = SimTime::ZERO + t_from.div(2);
    let combined = cfg.time_with_switch(from, to, half);
    let baseline_ns = (t_from.as_nanos() + t_to.as_nanos()) / 2;
    let cost = SimDuration::from_nanos(combined.as_nanos().saturating_sub(baseline_ns));
    SwitchCost {
        from,
        to,
        combined,
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched::SchedKind;

    fn small() -> DdConfig {
        DdConfig {
            bytes_per_vm: 48 * 1024 * 1024,
            vms: 2,
            ..Default::default()
        }
    }

    #[test]
    fn diagonal_switch_costs_time() {
        let cfg = small();
        let c = measure_switch_cost(&cfg, SchedPair::DEFAULT, SchedPair::DEFAULT);
        assert!(
            c.cost > SimDuration::from_millis(500),
            "re-installing the same pair still drains + stalls: {}",
            c.cost
        );
    }

    #[test]
    fn cost_is_not_commutative() {
        let cfg = small();
        let a = SchedPair::new(SchedKind::Noop, SchedKind::Noop);
        let b = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);
        let ab = measure_switch_cost(&cfg, a, b);
        let ba = measure_switch_cost(&cfg, b, a);
        assert_ne!(ab.cost, ba.cost, "drain runs under different elevators");
    }

    #[test]
    fn consolidation_raises_cost() {
        let mut c1 = small();
        c1.vms = 1;
        let mut c3 = small();
        c3.vms = 3;
        let lo = measure_switch_cost(&c1, SchedPair::DEFAULT, SchedPair::DEFAULT);
        let hi = measure_switch_cost(&c3, SchedPair::DEFAULT, SchedPair::DEFAULT);
        assert!(
            hi.cost > lo.cost,
            "more VMs, deeper queues, costlier drain: {} vs {}",
            hi.cost,
            lo.cost
        );
    }
}
