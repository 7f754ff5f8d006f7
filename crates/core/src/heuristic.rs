//! Algorithm 1 — the paper's greedy assignment of scheduler pairs to
//! phases.
//!
//! The search space is `S^P` (16 pairs, 2–3 phases). Exhaustive
//! enumeration is impractical for the general case the paper argues
//! (fine-grained phases, Pig job chains), so the heuristic fixes phases
//! left to right: for phase *i* it walks the phase's pair ranking in
//! descending quality, evaluating the *real* elapsed time of
//! `(Sol_{i-1}, s_i^j, S_{i+1})` — the already-fixed prefix, the
//! candidate, and the best single pair for all remaining phases taken
//! together (which keeps the comparison fair under asymmetric switch
//! costs). It keeps descending while the next candidate improves the
//! measured time, stops at the first regression, and records a `0`
//! (no-switch) when the chosen pair equals the previous phase's.

use crate::experiment::PhaseProfile;
use crate::profiler::{best_for_tail, rank_for_phase};
use iosched::SchedPair;
use simcore::SimDuration;
use std::collections::BTreeMap;
use vcluster::SwitchPlan;

/// Anything that can measure the elapsed time of a per-phase pair
/// assignment. The production evaluator is
/// [`CachedEvaluator`](crate::CachedEvaluator) (a full simulated run,
/// switch costs included, memoized); tests use synthetic oracles.
pub trait PlanEvaluator {
    /// Measured elapsed time of the job under `assignment`, and whether
    /// the measurement was served from a memo cache rather than a fresh
    /// simulation — the provenance bit the audit records carry.
    fn evaluate(&self, assignment: &[SchedPair]) -> (SimDuration, bool);
}

/// How many phases the meta-scheduler distinguishes for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseSplit {
    /// Ph1 | Ph2+Ph3 merged (the paper's choice when the non-concurrent
    /// shuffle is short — their 8-maps-per-node example).
    Two,
    /// Ph1 | Ph2 | Ph3.
    Three,
}

impl PhaseSplit {
    /// Number of phases.
    pub fn count(self) -> usize {
        match self {
            PhaseSplit::Two => 2,
            PhaseSplit::Three => 3,
        }
    }
}

/// One evaluated candidate during the search.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-phase pairs of the evaluated plan.
    pub assignment: Vec<SchedPair>,
    /// Measured whole-job time (switch costs included).
    pub time: SimDuration,
}

/// One candidate considered during a phase's ranking walk: where it
/// ranked, the profile score that put it there, the measured
/// composed-plan time, and whether that measurement came out of a memo
/// cache ([`PlanEvaluator::evaluate`]).
#[derive(Debug, Clone, Copy)]
pub struct CandidateScore {
    /// The candidate pair.
    pub pair: SchedPair,
    /// Its position in the phase ranking (0 = best profile score).
    pub rank: usize,
    /// The per-phase profile duration that produced `rank`.
    pub profile_score: SimDuration,
    /// Measured whole-job time of `(prefix, candidate, tail)`.
    pub time: SimDuration,
    /// True when the measurement was served from a cache, not a run.
    pub cached: bool,
}

/// Why a phase's ranking walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The next candidate measured worse — the greedy stop condition.
    Regression,
    /// The walk exhausted its rank cap without a regression.
    RankCap,
}

/// Audit record of one phase's greedy decision: the full candidate
/// score table the walk built, the winner, and its margin over the
/// runner-up. Serialized as the `decisions` section of `adios.tune/2`.
#[derive(Debug, Clone)]
pub struct PhaseDecision {
    /// Phase index the decision fixes (0-based).
    pub phase: usize,
    /// The `S_{i+1}` tail pair the candidates were composed with
    /// (`None` for the last phase).
    pub tail_pair: Option<SchedPair>,
    /// Every candidate evaluated, in walk order.
    pub candidates: Vec<CandidateScore>,
    /// The winning pair.
    pub chosen: SchedPair,
    /// Runner-up time minus winner time over the evaluated candidates
    /// (zero when only one candidate was measured).
    pub margin: SimDuration,
    /// False when this phase keeps the previous phase's pair — the
    /// paper's `0` entry.
    pub switched: bool,
    /// Why the walk stopped.
    pub stop: StopReason,
}

/// Result of running Algorithm 1.
#[derive(Debug, Clone)]
pub struct HeuristicResult {
    /// The chosen pair per phase; `None` is the paper's `0` — keep the
    /// previous phase's pair, no switch.
    pub solution: Vec<Option<SchedPair>>,
    /// The fully resolved per-phase pairs.
    pub resolved: Vec<SchedPair>,
    /// Measured time of the final solution.
    pub time: SimDuration,
    /// Every evaluation performed, in order.
    pub evaluations: Vec<Evaluation>,
    /// Per-phase audit records of the greedy walk.
    pub decisions: Vec<PhaseDecision>,
}

impl HeuristicResult {
    /// The executable plan for the chosen solution.
    pub fn plan(&self) -> SwitchPlan {
        assignment_plan(&self.resolved)
    }

    /// Number of simulated job executions the search needed.
    pub fn runs(&self) -> usize {
        self.evaluations.len()
    }
}

/// Turn a per-phase assignment into a [`SwitchPlan`]. Two-phase
/// assignments switch at the maps-done boundary; three-phase ones also
/// at shuffle-done. Consecutive equal pairs produce no switch.
pub fn assignment_plan(assignment: &[SchedPair]) -> SwitchPlan {
    match assignment {
        [p] => SwitchPlan::single(*p),
        [p1, p2] => SwitchPlan::phased(*p1, Some(*p2), None),
        [p1, p2, p3] => SwitchPlan::phased(*p1, Some(*p2), Some(*p3)),
        _ => panic!("assignments cover 1..=3 phases, got {}", assignment.len()),
    }
}

/// Run Algorithm 1.
///
/// `profiles` must come from single-pair runs of this same experiment
/// (see [`crate::profiler::profile_pairs_cached`]). `max_rank`
/// optionally caps how deep the ranking walk may go per phase (the
/// paper's complexity bound is `P × S`; the cap trades search quality
/// for evaluations).
pub fn algorithm1<E: PlanEvaluator + ?Sized>(
    exp: &E,
    split: PhaseSplit,
    profiles: &[PhaseProfile],
    max_rank: Option<usize>,
) -> HeuristicResult {
    assert!(!profiles.is_empty(), "need at least one profiled pair");
    let phases = split.count();
    let cap = max_rank.unwrap_or(profiles.len()).min(profiles.len());
    let mut evaluations = Vec::new();
    let mut cache: BTreeMap<Vec<SchedPair>, SimDuration> = BTreeMap::new();

    // Measured elapsed time of a full assignment, with cache-hit
    // provenance: true when the score came from the walk's own memo or
    // the evaluator's cache rather than a fresh simulation.
    let measure = |assignment: &[SchedPair],
                       evaluations: &mut Vec<Evaluation>,
                       cache: &mut BTreeMap<Vec<SchedPair>, SimDuration>|
     -> (SimDuration, bool) {
        if let Some(&t) = cache.get(assignment) {
            return (t, true);
        }
        let (t, hit) = exp.evaluate(assignment);
        cache.insert(assignment.to_vec(), t);
        evaluations.push(Evaluation {
            assignment: assignment.to_vec(),
            time: t,
        });
        (t, hit)
    };

    let mut resolved: Vec<SchedPair> = Vec::with_capacity(phases);
    let mut solution: Vec<Option<SchedPair>> = Vec::with_capacity(phases);
    let mut decisions: Vec<PhaseDecision> = Vec::with_capacity(phases);

    for i in 0..phases {
        let last_phase = i == phases - 1;
        // Ranking of candidates for this phase. With a two-way split the
        // second phase is Ph2+Ph3 combined.
        let ranking = match (split, i) {
            (PhaseSplit::Two, 1) => rank_for_phase(profiles, 1, true),
            _ => rank_for_phase(profiles, i, false),
        };
        // Best single pair for the remaining phases together (S_{i+1}).
        let tail_pair = if last_phase {
            None
        } else {
            Some(match split {
                PhaseSplit::Two => best_for_tail(profiles, 1),
                PhaseSplit::Three => best_for_tail(profiles, i + 1),
            })
        };
        let compose = |cand: SchedPair, resolved: &[SchedPair]| -> Vec<SchedPair> {
            let mut a = resolved.to_vec();
            a.push(cand);
            if let Some(tail) = tail_pair {
                // Remaining phases as one integrated phase under S_{i+1}:
                // in a 3-phase split fixing phase 0, phases 1 and 2 both
                // run under the tail pair.
                for _ in (i + 1)..phases {
                    a.push(tail);
                }
            }
            a
        };

        // The ranking score that placed each candidate (same duration
        // `rank_for_phase` sorted by) — recorded in the audit table.
        let profile_score = |pair: SchedPair| -> SimDuration {
            let p = profiles
                .iter()
                .find(|p| p.pair == pair)
                .expect("ranked pair has a profile");
            match (split, i) {
                (PhaseSplit::Two, 1) => p.tail_from(1),
                _ => p.phase[i],
            }
        };
        let score_of = |pair: SchedPair, rank: usize, time: SimDuration, cached: bool| {
            CandidateScore {
                pair,
                rank,
                profile_score: profile_score(pair),
                time,
                cached,
            }
        };

        let mut j = 0;
        let (t0, hit0) = measure(&compose(ranking[0], &resolved), &mut evaluations, &mut cache);
        let mut candidates = vec![score_of(ranking[0], 0, t0, hit0)];
        let mut best_time = t0;
        let mut stop = StopReason::RankCap;
        while j + 1 < cap {
            let (next_time, hit) = measure(
                &compose(ranking[j + 1], &resolved),
                &mut evaluations,
                &mut cache,
            );
            candidates.push(score_of(ranking[j + 1], j + 1, next_time, hit));
            if next_time < best_time {
                j += 1;
                best_time = next_time;
            } else {
                stop = StopReason::Regression;
                break;
            }
        }
        let chosen = ranking[j];
        let prev = resolved.last().copied();
        let switched = prev != Some(chosen);
        let margin = {
            let mut times: Vec<SimDuration> = candidates.iter().map(|c| c.time).collect();
            times.sort();
            if times.len() >= 2 {
                times[1].saturating_sub(times[0])
            } else {
                SimDuration::ZERO
            }
        };
        decisions.push(PhaseDecision {
            phase: i,
            tail_pair,
            candidates,
            chosen,
            margin,
            switched,
            stop,
        });
        solution.push(if switched { Some(chosen) } else { None });
        resolved.push(chosen);
    }

    let (time, _) = measure(&resolved.clone(), &mut evaluations, &mut cache);
    HeuristicResult {
        solution,
        resolved,
        time,
        evaluations,
        decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched::SchedKind;

    #[test]
    fn assignment_plan_merges_no_switch() {
        let p = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);
        let plan = assignment_plan(&[p, p]);
        assert_eq!(plan.switches(), 0);
        let q = SchedPair::DEFAULT;
        let plan2 = assignment_plan(&[p, q, q]);
        assert_eq!(plan2.switches(), 1);
        let plan3 = assignment_plan(&[p, q, p]);
        assert_eq!(plan3.switches(), 2);
    }

    #[test]
    #[should_panic(expected = "assignments cover")]
    fn oversized_assignment_rejected() {
        let p = SchedPair::DEFAULT;
        assignment_plan(&[p, p, p, p]);
    }

    /// A synthetic world with *known* phase-heterogeneous optima: each
    /// pair has fixed per-phase durations, and every switch between
    /// distinct pairs costs a fixed penalty. This isolates the search
    /// logic from the simulator.
    struct Oracle {
        table: Vec<(SchedPair, [u64; 3])>,
        switch_cost_s: u64,
    }

    impl Oracle {
        fn phase_secs(&self, pair: SchedPair, phase: usize) -> u64 {
            self.table
                .iter()
                .find(|(p, _)| *p == pair)
                .map(|(_, d)| d[phase])
                .unwrap_or(1000)
        }

        fn profiles(&self) -> Vec<PhaseProfile> {
            self.table
                .iter()
                .map(|&(pair, d)| PhaseProfile {
                    pair,
                    total: SimDuration::from_secs(d.iter().sum()),
                    phase: d.map(SimDuration::from_secs),
                })
                .collect()
        }
    }

    impl PlanEvaluator for Oracle {
        fn evaluate(&self, assignment: &[SchedPair]) -> (SimDuration, bool) {
            // Expand 2-phase assignments over (Ph1 | Ph2+Ph3).
            let spans: Vec<Vec<usize>> = match assignment.len() {
                2 => vec![vec![0], vec![1, 2]],
                3 => vec![vec![0], vec![1], vec![2]],
                _ => panic!("unsupported"),
            };
            let mut total = 0;
            for (i, phases) in spans.iter().enumerate() {
                for &ph in phases {
                    total += self.phase_secs(assignment[i], ph);
                }
                if i > 0 && assignment[i] != assignment[i - 1] {
                    total += self.switch_cost_s;
                }
            }
            (SimDuration::from_secs(total), false)
        }
    }

    fn asdl() -> SchedPair {
        SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline)
    }
    fn dldl() -> SchedPair {
        SchedPair::new(SchedKind::Deadline, SchedKind::Deadline)
    }

    #[test]
    fn finds_multi_pair_solution_when_phases_diverge() {
        // (AS,DL) dominates Ph1, (DL,DL) dominates Ph2+3; switching is
        // cheap relative to the gap.
        let o = Oracle {
            table: vec![
                (asdl(), [60, 5, 90]),
                (dldl(), [90, 5, 50]),
                (SchedPair::DEFAULT, [100, 10, 100]),
            ],
            switch_cost_s: 4,
        };
        let r = algorithm1(&o, PhaseSplit::Two, &o.profiles(), None);
        assert_eq!(r.resolved, vec![asdl(), dldl()]);
        assert_eq!(r.solution, vec![Some(asdl()), Some(dldl())]);
        // 60 + (5+50) + 4 = 119 < best single (AS,DL)=155, (DL,DL)=145.
        assert_eq!(r.time, SimDuration::from_secs(119));
        // Audit: one decision per phase, each with a full candidate
        // table, positive winner margin, and switch flags that mirror
        // the solution.
        assert_eq!(r.decisions.len(), 2);
        assert_eq!(r.decisions[0].chosen, asdl());
        assert_eq!(r.decisions[1].chosen, dldl());
        assert!(r.decisions.iter().all(|d| d.switched));
        assert!(r.decisions.iter().all(|d| !d.candidates.is_empty()));
        assert!(r.decisions[0].margin > SimDuration::ZERO);
        // Phase 0 composes candidates with the tail pair; the ranking
        // walk stopped at the first regression.
        assert_eq!(r.decisions[0].tail_pair, Some(dldl()));
        assert_eq!(r.decisions[0].stop, StopReason::Regression);
        // Candidate ranks follow the profile ranking in walk order.
        for d in &r.decisions {
            for (k, c) in d.candidates.iter().enumerate() {
                assert_eq!(c.rank, k);
            }
        }
    }

    #[test]
    fn high_switch_cost_yields_no_switch() {
        // Same world, but switching costs more than the phase gap.
        let o = Oracle {
            table: vec![
                (asdl(), [60, 5, 90]),
                (dldl(), [90, 5, 50]),
                (SchedPair::DEFAULT, [100, 10, 100]),
            ],
            switch_cost_s: 60,
        };
        let r = algorithm1(&o, PhaseSplit::Two, &o.profiles(), None);
        // With a 60 s switch penalty, any two-pair plan loses; the walk
        // lands on the single pair with the best whole-job time,
        // (DL,DL) = 145 s, and phase 2 records the paper's `0` entry.
        assert_eq!(r.resolved, vec![dldl(), dldl()]);
        assert_eq!(r.solution[1], None, "no switch when it cannot pay");
        assert_eq!(r.time, SimDuration::from_secs(145));
        // The no-switch phase records `switched: false` in its audit.
        assert!(!r.decisions[1].switched);
        assert_eq!(r.decisions[1].chosen, dldl());
    }

    #[test]
    fn three_phase_split_switches_twice_when_worth_it() {
        let a = asdl();
        let b = dldl();
        let c = SchedPair::DEFAULT;
        let o = Oracle {
            table: vec![(a, [50, 40, 90]), (b, [90, 10, 80]), (c, [95, 35, 40])],
            switch_cost_s: 2,
        };
        let r = algorithm1(&o, PhaseSplit::Three, &o.profiles(), None);
        assert_eq!(r.resolved, vec![a, b, c]);
        // 50 + 2 + 10 + 2 + 40 = 104.
        assert_eq!(r.time, SimDuration::from_secs(104));
    }

    #[test]
    fn evaluation_budget_respects_p_times_s() {
        let o = Oracle {
            table: SchedPair::all()
                .into_iter()
                .enumerate()
                .map(|(i, p)| (p, [60 + i as u64, 5, 50 + (16 - i as u64)]))
                .collect(),
            switch_cost_s: 3,
        };
        let profiles = o.profiles();
        let r = algorithm1(&o, PhaseSplit::Two, &profiles, None);
        assert!(
            r.runs() <= 2 * profiles.len(),
            "paper bound: at most P x S evaluations, got {}",
            r.runs()
        );
    }

    #[test]
    fn greedy_stops_at_first_regression() {
        // Ranking for phase 1 (by profile): a(50) then b(60) then c(70);
        // but the oracle makes b worse in combination — the walk must
        // stop at a and not explore c.
        let a = asdl();
        let b = dldl();
        let c = SchedPair::DEFAULT;
        let o = Oracle {
            table: vec![(a, [50, 5, 50]), (b, [60, 5, 45]), (c, [70, 5, 40])],
            switch_cost_s: 30,
        };
        let r = algorithm1(&o, PhaseSplit::Two, &o.profiles(), None);
        assert_eq!(r.resolved[0], a);
        let tried_c_in_phase1 = r
            .evaluations
            .iter()
            .any(|e| e.assignment[0] == c);
        assert!(!tried_c_in_phase1, "ranking walk must stop at the first regression");
    }
}
