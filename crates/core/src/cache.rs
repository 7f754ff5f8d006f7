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
//! [`EvalCache`] memoizes measured scores keyed on the *workload
//! fingerprint* (a stable hash of the experiment's cluster parameters
//! and job spec) plus the *canonical assignment*. Canonicalization
//! collapses consecutive equal pairs — exactly the equivalence
//! [`SwitchPlan::phased`](vcluster::SwitchPlan) applies, so `[p]`,
//! `[p, p]` and `[p, p, p]` (which all build the same zero-switch plan)
//! share one entry. Two kinds of values are cached:
//!
//! * whole-job scores ([`EvalCache::score`]) — shared by Algorithm 1
//!   and the exhaustive baseline via [`CachedEvaluator`];
//! * full per-phase profiles ([`EvalCache::profile`]) — so repeated
//!   tuning passes (`MetaScheduler::tune_with_cache`) skip the 16
//!   single-pair profiling runs entirely.
//!
//! The cache is `Sync` (a mutex around an [`FxHashMap`]) so it can be
//! shared across `simcore::par::par_map` workers; the lock is only held
//! for lookups and inserts, never across a simulation run, so parallel
//! sweeps keep their full fan-out. Determinism note: a hit returns the
//! exact `SimDuration` the original run produced, and plan equivalence
//! is structural (same `SwitchPlan` value), so cached and uncached
//! searches choose bit-identical solutions.

use crate::experiment::{Experiment, PhaseProfile};
use crate::heuristic::{assignment_plan, PlanEvaluator};
use iosched::SchedPair;
use simcore::{FxHashMap, SimDuration};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

/// Collapse consecutive equal pairs — the canonical form under which
/// assignments are cached. `SwitchPlan::phased` drops switches to the
/// pair already active, so two assignments with equal canonical forms
/// build the same plan and measure the same score.
pub fn canonical_assignment(assignment: &[SchedPair]) -> Vec<SchedPair> {
    let mut out: Vec<SchedPair> = Vec::with_capacity(assignment.len());
    for &p in assignment {
        if out.last() != Some(&p) {
            out.push(p);
        }
    }
    out
}

/// Hit/miss counters of an [`EvalCache`] (monotone; read via
/// [`EvalCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (simulations avoided).
    pub hits: u64,
    /// Lookups that had to run the simulation.
    pub misses: u64,
    /// Score entries currently stored.
    pub score_entries: usize,
    /// Per-phase profile entries currently stored.
    pub profile_entries: usize,
}

#[derive(Default)]
struct Inner {
    scores: FxHashMap<(u64, Vec<SchedPair>), SimDuration>,
    profiles: FxHashMap<(u64, SchedPair), PhaseProfile>,
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

    /// Cached whole-job score of `assignment` under the workload with
    /// `fingerprint`, if one is stored. Counts a hit or miss.
    pub fn score(&self, fingerprint: u64, assignment: &[SchedPair]) -> Option<SimDuration> {
        let key = (fingerprint, canonical_assignment(assignment));
        let mut g = self.inner.lock().unwrap();
        match g.scores.get(&key).copied() {
            Some(t) => {
                g.hits += 1;
                simcore::prof::count("evalcache.hit", 1);
                Some(t)
            }
            None => {
                g.misses += 1;
                simcore::prof::count("evalcache.miss", 1);
                None
            }
        }
    }

    /// Store the measured score of `assignment`.
    pub fn insert_score(&self, fingerprint: u64, assignment: &[SchedPair], time: SimDuration) {
        let key = (fingerprint, canonical_assignment(assignment));
        self.inner.lock().unwrap().scores.insert(key, time);
    }

    /// Cached per-phase profile of a single pair, if stored. Counts a
    /// hit or miss.
    pub fn profile(&self, fingerprint: u64, pair: SchedPair) -> Option<PhaseProfile> {
        let mut g = self.inner.lock().unwrap();
        match g.profiles.get(&(fingerprint, pair)).copied() {
            Some(p) => {
                g.hits += 1;
                simcore::prof::count("evalcache.hit", 1);
                Some(p)
            }
            None => {
                g.misses += 1;
                simcore::prof::count("evalcache.miss", 1);
                None
            }
        }
    }

    /// Store a measured per-phase profile (also seeds the whole-job
    /// score of the single-pair plan `[pair]`).
    pub fn insert_profile(&self, fingerprint: u64, profile: PhaseProfile) {
        let mut g = self.inner.lock().unwrap();
        g.scores
            .insert((fingerprint, vec![profile.pair]), profile.total);
        g.profiles.insert((fingerprint, profile.pair), profile);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().unwrap();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            score_entries: g.scores.len(),
            profile_entries: g.profiles.len(),
        }
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
        if let Some(t) = self.cache.score(self.fingerprint, assignment) {
            return (t, true);
        }
        let t = self.exp.run(assignment_plan(assignment)).makespan;
        self.cache.insert_score(self.fingerprint, assignment, t);
        (t, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosched::SchedKind;

    fn pair(a: SchedKind, b: SchedKind) -> SchedPair {
        SchedPair::new(a, b)
    }

    #[test]
    fn canonicalization_collapses_runs() {
        let p = pair(SchedKind::Cfq, SchedKind::Cfq);
        let q = pair(SchedKind::Deadline, SchedKind::Noop);
        assert_eq!(canonical_assignment(&[p, p, p]), vec![p]);
        assert_eq!(canonical_assignment(&[p, q, q]), vec![p, q]);
        assert_eq!(canonical_assignment(&[p, q, p]), vec![p, q, p]);
        assert_eq!(canonical_assignment(&[]), Vec::<SchedPair>::new());
    }

    #[test]
    fn uniform_plans_share_one_entry() {
        let c = EvalCache::new();
        let p = SchedPair::DEFAULT;
        c.insert_score(7, &[p], SimDuration::from_secs(42));
        assert_eq!(c.score(7, &[p, p]), Some(SimDuration::from_secs(42)));
        assert_eq!(c.score(7, &[p, p, p]), Some(SimDuration::from_secs(42)));
        // A different fingerprint never sees it.
        assert_eq!(c.score(8, &[p]), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.score_entries), (2, 1, 1));
    }

    #[test]
    fn profile_insert_seeds_single_pair_score() {
        let c = EvalCache::new();
        let p = pair(SchedKind::Anticipatory, SchedKind::Deadline);
        let prof = PhaseProfile {
            pair: p,
            total: SimDuration::from_secs(90),
            phase: [
                SimDuration::from_secs(50),
                SimDuration::from_secs(10),
                SimDuration::from_secs(30),
            ],
        };
        c.insert_profile(3, prof);
        assert_eq!(c.profile(3, p).map(|x| x.total), Some(SimDuration::from_secs(90)));
        assert_eq!(c.score(3, &[p, p]), Some(SimDuration::from_secs(90)));
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
        // every assignment the probe will ask for.
        let exp = Experiment::paper_sort();
        let fp = exp.fingerprint();
        let cache = EvalCache::new();
        let p = SchedPair::DEFAULT;
        let q = pair(SchedKind::Noop, SchedKind::Deadline);
        cache.insert_score(fp, &[p, q], SimDuration::from_secs(5));
        cache.insert_score(fp, &[q], SimDuration::from_secs(6));
        let ev = CachedEvaluator::new(&exp, &cache);
        assert_eq!(ev.evaluate(&[p, q]).0, SimDuration::from_secs(5));
        assert_eq!(ev.evaluate(&[q, q]).0, SimDuration::from_secs(6));
        let s = cache.stats();
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn traced_evaluation_reports_cache_provenance() {
        // Pre-seeded scores come back flagged as cache hits — the
        // provenance bit the decision audit records carry.
        let exp = Experiment::paper_sort();
        let cache = EvalCache::new();
        let p = SchedPair::DEFAULT;
        cache.insert_score(exp.fingerprint(), &[p], SimDuration::from_secs(9));
        let ev = CachedEvaluator::new(&exp, &cache);
        assert_eq!(ev.evaluate(&[p, p]), (SimDuration::from_secs(9), true));
    }
}
