//! # metasched — adaptive disk I/O scheduler selection for MapReduce
//!
//! The paper's contribution, reproduced end to end:
//!
//! 1. **Profiling** ([`profiler`]): run the job once under every
//!    candidate (VMM, VM) elevator pair and record per-phase scores
//!    (the paper's Fig. 6 input).
//! 2. **Phase detection** (`mrsim::phases` + [`meta::MetaScheduler::choose_split`]):
//!    Ph1 (maps), Ph2 (non-concurrent shuffle, merged into Ph3 when
//!    short — Table II) and Ph3 (sort/reduce).
//! 3. **Switch-cost awareness** ([`switch_cost`]): costs are *measured*
//!    with the paper's dd methodology (Fig. 5) and are implicitly part
//!    of every heuristic evaluation, because evaluations are full
//!    simulated runs including the hot-switch drain and stalls.
//! 4. **Algorithm 1** ([`heuristic`]): the greedy per-phase assignment
//!    search over the `S^P` solution space, bounded by `P × S` runs.
//! 5. **Evaluation memoization** ([`cache`]): a shared [`EvalCache`]
//!    keyed on (workload fingerprint, canonical assignment) so the
//!    profiler, Algorithm 1 and the exhaustive baseline never
//!    re-simulate a plan they have already measured.
//!
//! ```no_run
//! use metasched::{Experiment, MetaScheduler};
//!
//! let meta = MetaScheduler::new(Experiment::paper_sort());
//! let report = meta.tune();
//! println!(
//!     "adaptive plan {:?}: {:.1}% over default, {:.1}% over best single",
//!     report.heuristic.resolved,
//!     report.gain_vs_default_pct(),
//!     report.gain_vs_best_single_pct(),
//! );
//! ```

#![warn(missing_docs)]

pub mod blend;
pub mod cache;
pub mod experiment;
pub mod heuristic;
pub mod meta;
pub mod online;
pub mod profiler;
pub mod switch_cost;

pub use blend::{calibrate_tenants, BlendedTuner};
pub use cache::{canonical_assignment, CacheStats, CachedEvaluator, EvalCache};
pub use experiment::{Experiment, PhaseProfile};
pub use heuristic::{
    algorithm1, assignment_plan, CandidateScore, Evaluation, HeuristicResult, PhaseDecision,
    PhaseSplit, PlanEvaluator, StopReason,
};
pub use meta::{MetaConfig, MetaScheduler, TuneReport};
pub use online::{PhaseReactivePolicy, QueueDepthPolicy};
pub use profiler::{
    best_for_tail, best_single, profile_pairs_cached, rank_for_phase,
};
pub use switch_cost::{measure_switch_cost, DdConfig, SwitchCost};
