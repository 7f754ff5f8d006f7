//! Blended-fingerprint tuning for the multi-job cluster service.
//!
//! A single job walks through the paper's phases one at a time, so
//! Algorithm 1 can pick one pair per phase. A *service* has many
//! overlapping jobs: at any instant the cluster is in a phase **mix**
//! ([`vcluster::PhaseMix`]) — tenant 0 might have two jobs mapping
//! while tenant 1 drains a reduce tail. The blended tuner extends the
//! same measured-profile machinery to that regime:
//!
//! 1. **Calibrate** each tenant once with [`calibrate_tenants`]: real
//!    single-job runs of the tenant's workload under every elevator
//!    pair, memoized through the shared [`EvalCache`] (so a sweep, the
//!    meta-scheduler, and the service tuner all reuse each other's
//!    simulations).
//! 2. At every retune tick, **blend**: score each pair by the
//!    mix-weighted sum of the calibrated per-phase durations —
//!    Algorithm 1's "evaluate the candidate on the measured workload"
//!    step, applied to the blended workload fingerprint instead of a
//!    single phase.
//! 3. Apply a **hysteresis margin** before switching away from the
//!    installed pair, mirroring the switch-cost guard of the online
//!    policies: a candidate must beat the incumbent by a relative
//!    margin, or the cluster keeps what it has.
//!
//! Every tick scans all pairs afresh: 16 pairs × 9 multiply-adds, less
//! work than hashing the mix for a memo would be.

use crate::cache::EvalCache;
use crate::experiment::Experiment;
use crate::profiler::profile_pairs_cached;
use iosched::SchedPair;
use vcluster::{ClusterParams, PhaseMix, ServicePolicy, TenantMix, TenantProfile};

/// Measure every tenant's per-pair phase profile with real single-job
/// simulations, memoized through `cache`. Output order matches
/// `mix.tenants`; each profile's pair order matches [`SchedPair::all`],
/// which is what [`vcluster::run_service`] expects.
pub fn calibrate_tenants(
    params: &ClusterParams,
    mix: &TenantMix,
    cache: &EvalCache,
) -> Vec<TenantProfile> {
    let pairs = SchedPair::all();
    mix.tenants
        .iter()
        .map(|t| {
            let exp = Experiment::new(params.clone(), t.job.clone());
            let profiles = profile_pairs_cached(&exp, &pairs, cache);
            TenantProfile { phase: profiles.iter().map(|p| p.phase).collect() }
        })
        .collect()
}

/// The adaptive service policy: argmin over the blended workload
/// fingerprint with switch hysteresis. See the module docs.
pub struct BlendedTuner {
    profiles: Vec<TenantProfile>,
    /// Relative improvement a challenger must offer before a switch is
    /// worth its stall (e.g. `0.05` = 5%).
    margin: f64,
}

impl BlendedTuner {
    /// Build from per-tenant calibration profiles (one per tenant, in
    /// service tenant order) and a relative hysteresis margin.
    pub fn new(profiles: Vec<TenantProfile>, margin: f64) -> BlendedTuner {
        assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
        for p in &profiles {
            p.validate().expect("invalid tenant profile");
        }
        BlendedTuner { profiles, margin }
    }

    /// Mix-weighted total seconds the cluster would spend per unit of
    /// work under `pair_idx` — the blended analog of a candidate's
    /// evaluation score in Algorithm 1.
    pub fn blended_score(&self, mix: &PhaseMix, pair_idx: usize) -> f64 {
        let mut s = 0.0;
        for (t, weights) in mix.per_tenant.iter().enumerate() {
            if t >= self.profiles.len() {
                continue;
            }
            let phase = &self.profiles[t].phase[pair_idx];
            for p in 0..3 {
                s += weights[p] * phase[p].as_secs_f64();
            }
        }
        s
    }

    fn best_pair_idx(&self, mix: &PhaseMix) -> usize {
        let n = SchedPair::all().len();
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for i in 0..n {
            let s = self.blended_score(mix, i);
            // Strict `<`: ties keep the lowest pair index, so the
            // decision is deterministic.
            if s < best_score {
                best = i;
                best_score = s;
            }
        }
        best
    }
}

impl ServicePolicy for BlendedTuner {
    fn name(&self) -> String {
        format!("blended:margin={}", self.margin)
    }

    fn choose(&mut self, mix: &PhaseMix, current: SchedPair) -> SchedPair {
        if mix.is_idle() {
            return current;
        }
        let pairs = SchedPair::all();
        let best = self.best_pair_idx(mix);
        if pairs[best] == current {
            return current;
        }
        let cur_score = self.blended_score(mix, current.index());
        let best_score = self.blended_score(mix, best);
        // Hysteresis: the challenger must beat the incumbent by the
        // margin to justify the switch stall.
        if cur_score > 0.0 && (cur_score - best_score) / cur_score > self.margin {
            pairs[best]
        } else {
            current
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    /// Profiles with crossing rankings: pair 0 fastest for ph1, the
    /// last pair fastest for the tail.
    fn crossing_profiles(tenants: usize) -> Vec<TenantProfile> {
        let n = SchedPair::all().len();
        (0..tenants)
            .map(|_| TenantProfile {
                phase: (0..n)
                    .map(|i| {
                        let k = i as f64;
                        [
                            SimDuration::from_secs_f64(10.0 + 3.0 * k),
                            SimDuration::from_secs_f64(40.0 - 2.0 * k),
                            SimDuration::from_secs_f64(20.0 - 1.0 * k),
                        ]
                    })
                    .collect(),
            })
            .collect()
    }

    fn mix_all_in(phase: usize, tenants: usize) -> PhaseMix {
        let mut per_tenant = vec![[0.0; 3]; tenants];
        for w in per_tenant.iter_mut() {
            w[phase] = 1.0;
        }
        PhaseMix { per_tenant }
    }

    #[test]
    fn tuner_tracks_the_dominant_phase() {
        let pairs = SchedPair::all();
        let mut tuner = BlendedTuner::new(crossing_profiles(2), 0.02);
        // Everyone mapping: pair 0 has the cheapest ph1.
        let p1 = tuner.choose(&mix_all_in(0, 2), pairs[7]);
        assert_eq!(p1, pairs[0]);
        // Everyone in the tail: the last pair has the cheapest ph2+ph3.
        let p2 = tuner.choose(&mix_all_in(2, 2), pairs[0]);
        assert_eq!(p2, pairs[pairs.len() - 1]);
    }

    #[test]
    fn idle_mix_and_margin_hold_the_current_pair() {
        let pairs = SchedPair::all();
        let mut tuner = BlendedTuner::new(crossing_profiles(1), 0.02);
        let idle = PhaseMix { per_tenant: vec![[0.0; 3]] };
        assert_eq!(tuner.choose(&idle, pairs[5]), pairs[5]);
        // A huge margin suppresses every switch.
        let mut stubborn = BlendedTuner::new(crossing_profiles(1), 0.99);
        assert_eq!(stubborn.choose(&mix_all_in(0, 1), pairs[3]), pairs[3]);
    }

    /// The margin rule over a brute-force argmin: score every pair,
    /// the lowest index wins a tie, and the incumbent stays unless the
    /// winner beats it by more than `margin` of its score.
    fn reference_choose(
        profiles: &[TenantProfile],
        margin: f64,
        mix: &PhaseMix,
        current: usize,
    ) -> usize {
        let scores: Vec<f64> = (0..SchedPair::all().len())
            .map(|i| {
                (mix.per_tenant.iter().zip(profiles))
                    .flat_map(|(w, prof)| w.iter().zip(&prof.phase[i]))
                    .map(|(w, d)| w * d.as_secs_f64())
                    .sum()
            })
            .collect();
        if mix.per_tenant.iter().flatten().all(|&w| w == 0.0) {
            return current;
        }
        let mut best = 0;
        for (i, &s) in scores.iter().enumerate() {
            if s < scores[best] {
                best = i;
            }
        }
        let cur = scores[current];
        if best != current && cur > 0.0 && (cur - scores[best]) / cur > margin {
            best
        } else {
            current
        }
    }

    /// `choose` against the reference over random mixes of 1–4
    /// tenants. Durations are whole seconds and weights are halves, so
    /// every score is exact and ties are real; some pairs copy another
    /// pair's profile to force them.
    #[test]
    fn choose_matches_the_brute_force_argmin() {
        let pairs = SchedPair::all();
        simcore::check::check(300, |g| {
            let tenants = g.usize_in(1, 5);
            let profiles: Vec<TenantProfile> = (0..tenants)
                .map(|_| {
                    let mut phase: Vec<[SimDuration; 3]> = (0..pairs.len())
                        .map(|_| [(); 3].map(|_| SimDuration::from_secs(g.u64_in(0, 6))))
                        .collect();
                    for _ in 0..g.usize_in(0, 4) {
                        let (from, to) = (g.usize_in(0, pairs.len()), g.usize_in(0, pairs.len()));
                        phase[to] = phase[from];
                    }
                    TenantProfile { phase }
                })
                .collect();
            let margin = *g.pick(&[0.0, 0.02, 0.1, 0.5]);
            let mut tuner = BlendedTuner::new(profiles.clone(), margin);
            for _ in 0..8 {
                let mix = PhaseMix {
                    per_tenant: (0..tenants)
                        .map(|_| [(); 3].map(|_| g.u32_in(0, 5) as f64 * 0.5))
                        .collect(),
                };
                let current = g.usize_in(0, pairs.len());
                let want = reference_choose(&profiles, margin, &mix, current);
                assert_eq!(
                    tuner.choose(&mix, pairs[current]),
                    pairs[want],
                    "mix {:?}, current {current}, margin {margin}",
                    mix.per_tenant
                );
            }
        });
    }

    #[test]
    fn calibration_reuses_the_eval_cache() {
        let mut params = ClusterParams::default();
        params.shape.nodes = 1;
        params.shape.vms_per_node = 2;
        let mix = TenantMix::parse("sort:1", 8 * 1024 * 1024).unwrap();
        let cache = EvalCache::new();
        let first = calibrate_tenants(&params, &mix, &cache);
        let runs = cache.stats().misses;
        assert!(runs >= SchedPair::all().len() as u64);
        let second = calibrate_tenants(&params, &mix, &cache);
        assert_eq!(cache.stats().misses, runs, "second calibration is all hits");
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.phase, b.phase, "cached profiles must round-trip exactly");
        }
    }
}
