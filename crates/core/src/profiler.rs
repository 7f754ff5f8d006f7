//! Per-phase profiling of scheduler pairs.
//!
//! The meta-scheduler's first step (§IV-C): *"Initially, we execute the
//! job completely using single pair schedulers, and then we find the
//! performance score of each phase with each pair schedulers"* — one
//! run per candidate pair, phase durations extracted from the job's
//! milestone events. Runs are independent, so they execute in parallel
//! (`simcore::par`, honouring `SIM_THREADS`) when profiling all 16
//! pairs.

use crate::cache::EvalCache;
use crate::experiment::{Experiment, PhaseProfile};
use crate::heuristic::PhaseSplit;
use iosched::SchedPair;
use simcore::par::par_map;
use simcore::SimDuration;
use vcluster::SwitchPlan;

/// Profile every pair in `pairs` with one full single-pair run each,
/// memoized through `cache`: a pair's profile is the cached run of
/// `SwitchPlan::single(pair)`, so pairs already run under this
/// experiment's fingerprint are served without a run, and every fresh
/// run also answers Algorithm 1's and the exhaustive baseline's uniform
/// plans `[pair, pair]`.
pub fn profile_pairs_cached(
    exp: &Experiment,
    pairs: &[SchedPair],
    cache: &EvalCache,
) -> Vec<PhaseProfile> {
    let _prof = simcore::prof::span("metasched.profile_pairs");
    let fp = exp.fingerprint();
    par_map(pairs, |&pair| {
        let (phases, _) = cache.run(exp, fp, SwitchPlan::single(pair));
        PhaseProfile::from_outcome(pair, &phases)
    })
}

/// Pairs ranked ascending by their measured duration of phase `phase`
/// of `split` (see [`PhaseSplit::durations`]); ties break by pair.
pub fn rank_for_phase(profiles: &[PhaseProfile], split: PhaseSplit, phase: usize) -> Vec<SchedPair> {
    let mut scored: Vec<_> = profiles.iter().map(|p| (split.durations(p)[phase], p.pair)).collect();
    scored.sort();
    scored.into_iter().map(|(_, p)| p).collect()
}

/// The single pair with the lowest whole-job time (the paper's "best
/// single pair schedulers" baseline).
pub fn best_single(profiles: &[PhaseProfile]) -> PhaseProfile {
    *profiles
        .iter()
        .min_by_key(|p| (p.total, p.pair))
        .expect("non-empty profiles")
}

/// The pair minimizing the combined duration of phases `lo..` of
/// `split` — the heuristic's `S_{i+1}` ("the best disk pair schedulers
/// for all the left phases together, considering all the left phases as
/// one integrated phase").
pub fn best_for_tail(profiles: &[PhaseProfile], split: PhaseSplit, lo: usize) -> SchedPair {
    profiles
        .iter()
        .min_by_key(|p| (split.durations(p)[lo..].iter().copied().sum::<SimDuration>(), p.pair))
        .expect("non-empty profiles")
        .pair
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched::SchedKind;

    fn prof(pair: SchedPair, ph: [u64; 3]) -> PhaseProfile {
        PhaseProfile {
            pair,
            total: SimDuration::from_secs(ph.iter().sum()),
            phase: ph.map(SimDuration::from_secs),
        }
    }

    fn pairs() -> Vec<PhaseProfile> {
        vec![
            prof(SchedPair::new(SchedKind::Cfq, SchedKind::Cfq), [100, 10, 80]),
            prof(SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline), [70, 12, 90]),
            prof(SchedPair::new(SchedKind::Deadline, SchedKind::Deadline), [90, 8, 60]),
        ]
    }

    #[test]
    fn ranking_per_phase() {
        let p = pairs();
        let r1 = rank_for_phase(&p, PhaseSplit::Three, 0);
        assert_eq!(r1[0], SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline));
        let r3 = rank_for_phase(&p, PhaseSplit::Three, 2);
        assert_eq!(r3[0], SchedPair::new(SchedKind::Deadline, SchedKind::Deadline));
    }

    #[test]
    fn best_single_is_min_total() {
        let p = pairs();
        assert_eq!(
            best_single(&p).pair,
            SchedPair::new(SchedKind::Deadline, SchedKind::Deadline)
        );
    }

    #[test]
    fn tail_best_combines_remaining_phases() {
        let p = pairs();
        // Tail from phase 1: CFQ 90, ASDL 102, DLDL 68.
        assert_eq!(best_for_tail(&p, PhaseSplit::Three, 1), SchedPair::new(SchedKind::Deadline, SchedKind::Deadline));
    }

    #[test]
    fn deterministic_tiebreak() {
        let a = prof(SchedPair::new(SchedKind::Cfq, SchedKind::Cfq), [50, 5, 50]);
        let b = prof(SchedPair::new(SchedKind::Noop, SchedKind::Cfq), [50, 5, 50]);
        let r = rank_for_phase(&[b, a], PhaseSplit::Two, 0);
        // Equal scores: ordered by pair identity (enum declaration
        // order — noop first), stable across runs.
        assert_eq!(r[0], SchedPair::new(SchedKind::Noop, SchedKind::Cfq));
    }
}
