//! Cross-component memo cache for plan evaluations.
//!
//! The meta-scheduler's offline search (profiling, Algorithm 1, the
//! exhaustive-enumeration baseline) evaluates many per-phase pair
//! assignments against the *same* (cluster, job) configuration, and the
//! different components keep asking for overlapping plans: the profiler
//! runs every single pair, Algorithm 1's final measurement of a uniform
//! `[p, p]` plan re-runs what the profiler already measured, and the
//! exhaustive baseline's diagonal repeats all sixteen of them again.
//! Every one of those is a full cluster simulation.
//!
//! [`EvalCache`] memoizes the phase milestones of each run, keyed on
//! the *workload fingerprint* (a stable hash of the experiment's
//! cluster parameters and job spec) plus the [`SwitchPlan`] that ran.
//! Plan identity is decided once, by [`SwitchPlan::from_phases`]: `[p]`,
//! `[p, p]` and `[p, p, p]` build the same zero-switch plan and share
//! one entry, while `[p, q, q]` (switch at maps-done) and `[p, p, q]`
//! (switch at shuffle-done) are two plans with two scores. A pair's
//! per-phase profile is the entry of `SwitchPlan::single(pair)`, so the
//! profiler's runs answer Algorithm 1's uniform plans, and repeated
//! tuning passes (`MetaScheduler::tune_with_cache`) skip the 16
//! single-pair profiling runs entirely.
//!
//! The cache is `Sync` (a mutex around an [`FxHashMap`]) so it can be
//! shared across `simcore::par::par_map` workers; the lock is only held
//! for lookups and inserts, never across a simulation run, so parallel
//! sweeps keep their full fan-out. Determinism note: a hit returns the
//! exact milestones the original run produced for the same plan, so
//! cached and uncached searches choose bit-identical solutions.

use crate::experiment::Experiment;
use crate::heuristic::PlanEvaluator;
use iosched::SchedPair;
use mrsim::PhaseTimes;
use simcore::{FxHashMap, SimDuration};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use vcluster::SwitchPlan;

/// Hit/miss counters of an [`EvalCache`] (monotone; read via
/// [`EvalCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (simulations avoided).
    pub hits: u64,
    /// Lookups that had to run the simulation.
    pub misses: u64,
    /// Measured runs currently stored.
    pub entries: usize,
}

#[derive(Default)]
struct Inner {
    runs: FxHashMap<(u64, SwitchPlan), PhaseTimes>,
    hits: u64,
    misses: u64,
}

/// Shared memo cache of plan-evaluation results. See the module docs.
#[derive(Default)]
pub struct EvalCache {
    inner: Mutex<Inner>,
}

impl EvalCache {
    /// Empty cache.
    pub fn new() -> Self {
        EvalCache::default()
    }

    /// Phase milestones of `plan`'s run under the workload with
    /// `fingerprint`, if one is stored. Counts a hit or miss.
    pub fn get(&self, fingerprint: u64, plan: SwitchPlan) -> Option<PhaseTimes> {
        let mut g = self.inner.lock().unwrap();
        let found = g.runs.get(&(fingerprint, plan)).copied();
        if found.is_some() {
            g.hits += 1;
            simcore::prof::count("evalcache.hit", 1);
        } else {
            g.misses += 1;
            simcore::prof::count("evalcache.miss", 1);
        }
        found
    }

    /// Store the phase milestones of `plan`'s run.
    pub fn insert(&self, fingerprint: u64, plan: SwitchPlan, phases: PhaseTimes) {
        self.inner.lock().unwrap().runs.insert((fingerprint, plan), phases);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().unwrap();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            entries: g.runs.len(),
        }
    }

    /// `plan`'s phase milestones under `exp` (whose fingerprint is
    /// `fingerprint`), and whether they came from the cache: a miss runs
    /// the simulation and stores its result.
    pub(crate) fn run(
        &self,
        exp: &Experiment,
        fingerprint: u64,
        plan: SwitchPlan,
    ) -> (PhaseTimes, bool) {
        if let Some(phases) = self.get(fingerprint, plan) {
            return (phases, true);
        }
        let phases = exp.run(plan).phases;
        self.insert(fingerprint, plan, phases);
        (phases, false)
    }
}

impl Experiment {
    /// Stable fingerprint of this (cluster, job) configuration — the
    /// workload half of every cache key. Hashes the full `Debug`
    /// rendering of the parameters and job spec, so *any* field change
    /// (shape, disk model, data size, workload mix…) produces a new
    /// fingerprint and stale entries can never be served.
    pub fn fingerprint(&self) -> u64 {
        let mut h = simcore::fxmap::FxHasher::default();
        format!("{:?}|{:?}", self.params, self.job).hash(&mut h);
        h.finish()
    }
}

/// A [`PlanEvaluator`] that consults an [`EvalCache`] before running
/// the underlying experiment, and records every fresh measurement.
/// Algorithm 1 and the exhaustive baseline both evaluate through this,
/// so their overlapping plans — and anything the profiler already
/// seeded — simulate exactly once.
pub struct CachedEvaluator<'a> {
    exp: &'a Experiment,
    cache: &'a EvalCache,
    fingerprint: u64,
}

impl<'a> CachedEvaluator<'a> {
    /// Wrap `exp`, memoizing through `cache`.
    pub fn new(exp: &'a Experiment, cache: &'a EvalCache) -> Self {
        CachedEvaluator {
            fingerprint: exp.fingerprint(),
            exp,
            cache,
        }
    }
}

impl PlanEvaluator for CachedEvaluator<'_> {
    fn evaluate(&self, assignment: &[SchedPair]) -> (SimDuration, bool) {
        let plan = SwitchPlan::from_phases(assignment);
        let (phases, cached) = self.cache.run(self.exp, self.fingerprint, plan);
        (phases.total(), cached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PhaseProfile;
    use iosched::SchedKind;
    use simcore::SimTime;

    /// Milestones of a made-up run ending at `secs`.
    fn run_of(secs: u64) -> PhaseTimes {
        let t = SimTime::from_secs;
        PhaseTimes::new(t(0), t(secs / 2), t(secs / 2), t(secs))
    }

    fn plan(assignment: &[SchedPair]) -> SwitchPlan {
        SwitchPlan::from_phases(assignment)
    }

    #[test]
    fn uniform_plans_share_one_entry() {
        let c = EvalCache::new();
        let p = SchedPair::DEFAULT;
        c.insert(7, plan(&[p]), run_of(42));
        assert_eq!(c.get(7, plan(&[p, p])), Some(run_of(42)));
        assert_eq!(c.get(7, plan(&[p, p, p])), Some(run_of(42)));
        // A different fingerprint never sees it.
        assert_eq!(c.get(8, plan(&[p])), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 1, 1));
    }

    #[test]
    fn plans_that_switch_at_different_boundaries_are_two_entries() {
        let c = EvalCache::new();
        let p = SchedPair::DEFAULT;
        let q = SchedPair::new(SchedKind::Deadline, SchedKind::Noop);
        c.insert(1, plan(&[p, q, q]), run_of(20));
        assert_eq!(c.get(1, plan(&[p, p, q])), None, "shuffle-done is not maps-done");
        c.insert(1, plan(&[p, p, q]), run_of(18));
        assert_eq!(c.get(1, plan(&[p, q, q])), Some(run_of(20)));
        assert_eq!(c.get(1, plan(&[p, p, q])), Some(run_of(18)));
        // A two-phase assignment switches at maps-done.
        assert_eq!(c.get(1, plan(&[p, q])), Some(run_of(20)));
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn a_profiled_pair_answers_its_uniform_plans() {
        // The profiler stores a pair's run under `SwitchPlan::single`.
        let exp = Experiment::paper_sort();
        let fp = exp.fingerprint();
        let cache = EvalCache::new();
        let p = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);
        cache.insert(fp, SwitchPlan::single(p), run_of(90));
        let profile = crate::profiler::profile_pairs_cached(&exp, &[p], &cache);
        assert_eq!(profile[0].total, SimDuration::from_secs(90));
        assert_eq!(profile[0].phase, PhaseProfile::from_outcome(p, &run_of(90)).phase);
        let ev = CachedEvaluator::new(&exp, &cache);
        for uniform in [&[p][..], &[p, p], &[p, p, p]] {
            assert_eq!(ev.evaluate(uniform), (SimDuration::from_secs(90), true));
        }
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn fingerprint_distinguishes_workloads() {
        let a = Experiment::paper_sort();
        let mut b = Experiment::paper_sort();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same config, same print");
        b.job.data_per_vm_bytes += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn cached_evaluator_runs_each_plan_once() {
        // Use the real Experiment type but never call run(): pre-seed
        // every plan the probe will ask for.
        let exp = Experiment::paper_sort();
        let fp = exp.fingerprint();
        let cache = EvalCache::new();
        let p = SchedPair::DEFAULT;
        let q = SchedPair::new(SchedKind::Noop, SchedKind::Deadline);
        cache.insert(fp, plan(&[p, q]), run_of(5));
        cache.insert(fp, plan(&[q]), run_of(6));
        let ev = CachedEvaluator::new(&exp, &cache);
        assert_eq!(ev.evaluate(&[p, q]).0, SimDuration::from_secs(5));
        assert_eq!(ev.evaluate(&[q, q]).0, SimDuration::from_secs(6));
        let s = cache.stats();
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn traced_evaluation_reports_cache_provenance() {
        // Pre-seeded runs come back flagged as cache hits — the
        // provenance bit the decision audit records carry.
        let exp = Experiment::paper_sort();
        let cache = EvalCache::new();
        let p = SchedPair::DEFAULT;
        cache.insert(exp.fingerprint(), plan(&[p]), run_of(9));
        let ev = CachedEvaluator::new(&exp, &cache);
        assert_eq!(ev.evaluate(&[p, p]), (SimDuration::from_secs(9), true));
    }
}
