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
//!
//! Runs are deterministic, so every cell of one matrix row shares its
//! first half: the `from` run up to the switch instant.
//! [`DdConfig::time_with_switch`] simulates that prefix once per thread
//! and finishes a clone of it for each `to` pair.

use iosched::SchedPair;
use simcore::{SimDuration, SimTime};
use std::cell::RefCell;
use vmstack::runner::{NodeRunner, SyntheticProc};
use vmstack::NodeParams;

/// A run paused where its switch pops, with the `(config, from, at)`
/// that built it.
type Prefix = (DdConfig, SchedPair, SimTime, NodeRunner);

thread_local! {
    /// The last prefix this thread built. `par_map` runs one matrix row
    /// per task with its cells in order, so one entry serves every cell
    /// after a row's first, and each worker holds one paused run.
    static PREFIX: RefCell<Option<Prefix>> = const { RefCell::new(None) };
}

/// Configuration of the dd experiment.
#[derive(Debug, Clone, PartialEq)]
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

    /// Elapsed time with a switch from `from` to `to` at `at`: a clone
    /// of the run under `from`, paused where its switch pops, finished
    /// with the switch aimed at `to`. The paused run is built on this
    /// thread's first call for `(self, from, at)` and reused until a
    /// call names another.
    pub fn time_with_switch(&self, from: SchedPair, to: SchedPair, at: SimTime) -> SimDuration {
        let mut r = PREFIX.with_borrow_mut(|memo| match memo {
            Some((cfg, f, a, prefix)) if cfg == self && *f == from && *a == at => prefix.clone(),
            _ => {
                let mut prefix = self.runner(from);
                // The target is read only when the switch is applied.
                prefix.switch_at(at, from);
                prefix.run_to_switch();
                let r = prefix.clone();
                *memo = Some((self.clone(), from, at, prefix));
                r
            }
        });
        r.retarget_switch(Some(to.host), Some(to.guest));
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
    use simcore::par::par_map_threads;
    use simcore::Telemetry;

    fn small() -> DdConfig {
        DdConfig {
            bytes_per_vm: 48 * 1024 * 1024,
            vms: 2,
            ..Default::default()
        }
    }

    /// The switched run with nothing shared: a fresh runner.
    fn fresh(cfg: &DdConfig, from: SchedPair, to: SchedPair, at: SimTime) -> SimDuration {
        let mut r = cfg.runner(from);
        r.switch_at(at, to);
        r.run().makespan
    }

    /// The `(config, from, at)` of this thread's stored prefix.
    fn memo_key() -> Option<(DdConfig, SchedPair, SimTime)> {
        PREFIX.with_borrow(|m| m.as_ref().map(|(cfg, from, at, _)| (cfg.clone(), *from, *at)))
    }

    #[test]
    fn prefix_memo_keys_on_the_whole_config() {
        let a = DdConfig { bytes_per_vm: 16 * 1024 * 1024, ..small() };
        let more_vms = DdConfig { vms: 3, ..a.clone() };
        let telemetry = DdConfig {
            node: NodeParams { telemetry: Telemetry::Full, ..a.node.clone() },
            ..a.clone()
        };
        let from = SchedPair::DEFAULT;
        let at = SimTime::from_millis(150);
        let tos = [SchedPair::new(SchedKind::Noop, SchedKind::Deadline), SchedPair::DEFAULT];
        for cfg in [&a, &more_vms, &a, &telemetry, &a] {
            for to in tos {
                assert_eq!(cfg.time_with_switch(from, to, at), fresh(cfg, from, to, at));
                assert_eq!(memo_key(), Some((cfg.clone(), from, at)), "the prefix is rebuilt");
            }
        }
    }

    #[test]
    fn prefix_memo_keys_on_the_switch_instant() {
        let cfg = DdConfig { bytes_per_vm: 16 * 1024 * 1024, ..small() };
        let from = SchedPair::new(SchedKind::Anticipatory, SchedKind::Cfq);
        let to = SchedPair::new(SchedKind::Deadline, SchedKind::Noop);
        for ms in [100, 250, 100] {
            let at = SimTime::from_millis(ms);
            assert_eq!(cfg.time_with_switch(from, to, at), fresh(&cfg, from, to, at), "at {ms} ms");
        }
    }

    #[test]
    fn forked_matrix_equals_fresh_runs_at_any_thread_count() {
        let cfg = DdConfig { bytes_per_vm: 8 * 1024 * 1024, ..small() };
        let states = SchedPair::all();
        let rows: Vec<usize> = (0..states.len()).collect();
        let matrix = |threads: usize| {
            let solo = par_map_threads(threads, &states, |&p| cfg.time_single(p));
            par_map_threads(threads, &rows, |&i| {
                let half = SimTime::ZERO + solo[i].div(2);
                let cell = |&to: &SchedPair| (half, cfg.time_with_switch(states[i], to, half));
                states.iter().map(cell).collect::<Vec<_>>()
            })
        };
        let one = matrix(1);
        assert_eq!(one, matrix(2), "the matrix depends on the thread count");
        for (i, row) in one.iter().enumerate() {
            for (j, &(half, combined)) in row.iter().enumerate() {
                assert_eq!(combined, fresh(&cfg, states[i], states[j], half), "cell {i},{j}");
            }
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
