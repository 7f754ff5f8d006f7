//! The four workloads: how each is set up, what its timed phase runs,
//! and which outputs pin it. Everything goes through the simulator's
//! public library functions.
//!
//! | workload            | timed phase                                           |
//! |---------------------|-------------------------------------------------------|
//! | `shuffle_128x4`     | one sort job, 128 nodes x 4 VMs, 64 MB/VM, (CFQ, CFQ) |
//! | `tune_paper_4x4`    | the paper's tuning pass on its 4x4 testbed, 512 MB/VM |
//! | `switch_matrix_dd`  | the Fig. 5 matrix: 16 solo + 256 switched dd runs     |
//! | `tenant_stream_2pm` | 14 simulated days of a 3-tenant stream at 2 jobs/min  |
//!
//! Only `tenant_stream_2pm` has random inputs: its arrival list is built
//! here from the seed and handed to the service as an explicit trace.

use iosched::SchedPair;
use metasched::{
    calibrate_tenants, profile_pairs_cached, BlendedTuner, DdConfig, EvalCache, Experiment,
    MetaScheduler,
};
use mrsim::{ClusterShape, JobSpec, WorkloadSpec};
use simcore::par::par_map;
use simcore::{Json, OracleConfig, SampleSet, SimDuration, SimTime, Telemetry, Trace, TraceOracle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use vcluster::{
    run_service, ArrivalSpec, ClusterParams, ClusterSim, PhaseMix, ServiceParams, ServicePolicy,
    SwitchPlan, TenantMix, TenantProfile,
};

const MIB: u64 = 1024 * 1024;

/// Outputs pinned at full size (see README.md for how to re-pin).
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Shuffle,
    Tune,
    SwitchMatrix,
    TenantStream,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Shuffle,
        Workload::Tune,
        Workload::SwitchMatrix,
        Workload::TenantStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Shuffle => "shuffle_128x4",
            Workload::Tune => "tune_paper_4x4",
            Workload::SwitchMatrix => "switch_matrix_dd",
            Workload::TenantStream => "tenant_stream_2pm",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Operations one child run attempts: one job, one tuning pass, one
    /// node run per matrix run (solo or switched), one service run.
    pub fn ops(self, quick: bool) -> u64 {
        match self {
            Workload::SwitchMatrix => {
                let n = matrix_states(quick).len() as u64;
                n + n * n
            }
            _ => 1,
        }
    }
}

/// A value the benchmark measures around a public call, or a simulated
/// count it reads off a result, reported among the per-layer metrics.
pub type LayerValue = (&'static str, f64);

/// A workload set up and ready for its timed phase.
pub enum Prepared {
    Shuffle(Box<ClusterSim>),
    Tune(Box<MetaScheduler>, EvalCache),
    Matrix(DdConfig, Vec<SchedPair>),
    Stream(Box<Stream>),
}

pub struct Stream {
    params: ServiceParams,
    mix: TenantMix,
    profiles: Vec<TenantProfile>,
    arrivals: ArrivalSpec,
    expected_jobs: u64,
    policy: TimedPolicy,
}

/// What a timed phase produced.
pub struct Outcome {
    /// The outputs that pin the run (compared across runs and against
    /// `expected.json`).
    pub outputs: Json,
    pub values: Vec<LayerValue>,
    /// Matrix runs that panicked (their outputs are `null`).
    pub panicked: u64,
    /// The service run's trace and shape, replayed by [`verify`].
    service: Option<(Trace, ClusterShape, u64, u64)>,
}

fn cluster_params(telemetry: Telemetry) -> ClusterParams {
    let mut p = ClusterParams::default();
    p.node.telemetry = telemetry;
    p
}

/// The dd matrix's pair states: all 16, or 2 at quick size.
fn matrix_states(quick: bool) -> Vec<SchedPair> {
    let mut s = SchedPair::all();
    if quick {
        s.truncate(2);
    }
    s
}

/// Build the workload's inputs. Only the tenant stream reads `seed`.
pub fn setup(
    w: Workload,
    seed: u64,
    quick: bool,
    telemetry: Telemetry,
) -> (Prepared, Vec<LayerValue>) {
    match w {
        Workload::Shuffle => {
            let mut params = cluster_params(telemetry);
            (params.shape.nodes, params.shape.vms_per_node) = if quick { (8, 2) } else { (128, 4) };
            let job = JobSpec {
                data_per_vm_bytes: if quick { 16 } else { 64 } * MIB,
                ..JobSpec::new(WorkloadSpec::sort())
            };
            let t = Instant::now();
            let sim = ClusterSim::new(params, job, SwitchPlan::single(SchedPair::DEFAULT));
            let new_ms = t.elapsed().as_secs_f64() * 1e3;
            (
                Prepared::Shuffle(Box::new(sim)),
                vec![("vcluster.new_ms", new_ms)],
            )
        }
        Workload::Tune => {
            let mut params = cluster_params(telemetry);
            let mut job = JobSpec::new(WorkloadSpec::sort());
            if quick {
                (params.shape.nodes, params.shape.vms_per_node) = (2, 2);
                job.data_per_vm_bytes = 32 * MIB;
            }
            let meta = MetaScheduler::new(Experiment::new(params, job));
            (Prepared::Tune(Box::new(meta), EvalCache::new()), Vec::new())
        }
        Workload::SwitchMatrix => {
            let mut cfg = DdConfig::default();
            cfg.node.telemetry = telemetry;
            if quick {
                cfg.vms = 2;
                cfg.bytes_per_vm = 8 * MIB;
            }
            (Prepared::Matrix(cfg, matrix_states(quick)), Vec::new())
        }
        Workload::TenantStream => {
            let mut params = cluster_params(telemetry);
            let (data_mb, window_s) = if quick {
                (8, 2 * 3600)
            } else {
                (64, 14 * 86_400)
            };
            if quick {
                (params.shape.nodes, params.shape.vms_per_node) = (2, 2);
            }
            let mix = TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", data_mb * MIB)
                .expect("the tenant mix literal parses");
            let cache = EvalCache::new();
            let t = Instant::now();
            let profiles = calibrate_tenants(&params, &mix, &cache);
            let calibrate_s = t.elapsed().as_secs_f64();
            let service = ServiceParams {
                shape: params.shape,
                duration: SimDuration::from_secs(window_s),
                seed,
                ..ServiceParams::default()
            };
            // Open loop at 2 jobs/min: below the knee (between 2.5 and 3
            // jobs/min on this mix) where the backlog grows without bound.
            // The service sees only the generated list.
            let arrivals =
                ArrivalSpec::Poisson { rate_per_min: 2.0 }.generate(&mix, service.duration, seed);
            let expected_jobs = arrivals.len() as u64;
            let retunes = service.duration.as_nanos() / service.retune_period.as_nanos();
            let stream = Stream {
                policy: TimedPolicy {
                    inner: BlendedTuner::new(profiles.clone(), 0.05),
                    choose_ns: Vec::with_capacity(retunes as usize + 1024),
                },
                params: service,
                mix,
                profiles,
                arrivals: ArrivalSpec::Trace(arrivals),
                expected_jobs,
            };
            let mut values = cache_values(&cache);
            values.push(("metasched.calibrate_s", calibrate_s));
            (Prepared::Stream(Box::new(stream)), values)
        }
    }
}

/// The timed phase. A panic escapes to the caller, except in the dd
/// matrix, where each node run fails on its own.
pub fn run(p: Prepared) -> Outcome {
    match p {
        Prepared::Shuffle(mut sim) => {
            let out = {
                let _span = simcore::prof::span("vcluster.run");
                sim.run()
            };
            let requests: u64 = out.disk_stats.iter().map(|d| d.requests).sum();
            let sequential: u64 = out.disk_stats.iter().map(|d| d.sequential_requests).sum();
            Outcome {
                outputs: Json::obj()
                    .field("makespan_ns", out.makespan.as_nanos())
                    .field("events", out.events_processed)
                    .field("network_bytes", out.network_bytes)
                    .field("disk_requests", requests),
                // The disk model's simulated counts; its host time sits in
                // `vmstack.handle`.
                values: vec![
                    ("blkdev.requests", requests as f64),
                    ("blkdev.seq_ratio", sequential as f64 / requests as f64),
                ],
                panicked: 0,
                service: None,
            }
        }
        Prepared::Tune(meta, cache) => {
            // One tuning pass, split at its two public stages so the
            // profiling runs and Algorithm 1 are timed apart. The second
            // call finds the 16 profiles in the cache it shares.
            let t = Instant::now();
            profile_pairs_cached(&meta.exp, &meta.cfg.candidates, &cache);
            let profile_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let report = meta.tune_with_cache(&cache);
            let algorithm1_s = t.elapsed().as_secs_f64();
            let plan: Vec<String> = report.final_assignment().iter().map(|p| p.code()).collect();
            let mut values = cache_values(&cache);
            values.push(("metasched.profile_s", profile_s));
            values.push(("metasched.algorithm1_s", algorithm1_s));
            Outcome {
                outputs: Json::obj()
                    .field("final_ns", report.final_time().as_nanos())
                    .field("plan", plan.join(">"))
                    .field("default_ns", report.default_time.as_nanos())
                    .field("best_single", report.best_single.pair.code())
                    .field("evaluations", report.heuristic.runs() as u64),
                values,
                panicked: 0,
                service: None,
            }
        }
        Prepared::Matrix(cfg, states) => run_matrix(&cfg, &states),
        Prepared::Stream(mut s) => {
            let out = {
                let _span = simcore::prof::span("jobs.run_service");
                run_service(&s.params, &s.mix, &s.profiles, &s.arrivals, &mut s.policy)
            };
            let choose_ns = sample_set(std::mem::take(&mut s.policy.choose_ns));
            Outcome {
                outputs: Json::obj()
                    .field("seed", s.params.seed)
                    .field("jobs", out.completed)
                    .field("p99_latency_s", out.p99_latency_s)
                    .field("trace_digest", format!("{:#018x}", out.trace_digest)),
                values: vec![
                    ("jobs.retunes", out.retunes as f64),
                    ("jobs.switches", out.switches as f64),
                    ("jobs.choose_ns_p50", quantile(&choose_ns, 0.50)),
                    ("jobs.choose_ns_p99", quantile(&choose_ns, 0.99)),
                ],
                panicked: 0,
                service: Some((out.trace, s.params.shape, s.expected_jobs, out.completed)),
            }
        }
    }
}

/// The Fig. 5 matrix as `fig5_switch_cost` measures it: each pair's
/// solo dd run once, then one `par_map` task per row runs every
/// (from, to) cell, switching at half the `from` solo time.
fn run_matrix(cfg: &DdConfig, states: &[SchedPair]) -> Outcome {
    let solo = par_map(states, |&p| node_run(|| cfg.time_single(p)));
    let rows: Vec<usize> = (0..states.len()).collect();
    let switched = par_map(&rows, |&i| {
        let from = states[i];
        states
            .iter()
            .map(|&to| {
                let t = Instant::now();
                let ns = solo[i].and_then(|solo_ns| {
                    let half = SimTime::ZERO + SimDuration::from_nanos(solo_ns).div(2);
                    node_run(|| cfg.time_with_switch(from, to, half))
                });
                (ns, t.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Vec<_>>()
    });
    let (combined, cell_ms): (Vec<Option<u64>>, Vec<f64>) = switched.into_iter().flatten().unzip();
    let makespans = |runs: &[Option<u64>]| {
        Json::Arr(
            runs.iter()
                .map(|r| r.map_or(Json::Null, Json::from))
                .collect(),
        )
    };
    let cell_ms = sample_set(cell_ms);
    Outcome {
        outputs: Json::obj()
            .field("solo_ns", makespans(&solo))
            .field("combined_ns", makespans(&combined)),
        values: vec![
            ("vmstack.node_run_ms_p50", quantile(&cell_ms, 0.50)),
            ("vmstack.node_run_ms_p90", quantile(&cell_ms, 0.90)),
        ],
        panicked: solo.iter().chain(&combined).filter(|r| r.is_none()).count() as u64,
        service: None,
    }
}

/// One dd node run of the matrix: its makespan in ns, or None when it
/// panicked (one failed op; the rest of the matrix still runs).
fn node_run(f: impl FnOnce() -> SimDuration) -> Option<u64> {
    catch_unwind(AssertUnwindSafe(|| {
        let _span = simcore::prof::span("vmstack.node_run");
        f().as_nanos()
    }))
    .ok()
}

/// `xs` as a sample set, recorded in ascending order so each record
/// appends to the set's sorted index instead of shifting it.
fn sample_set(mut xs: Vec<f64>) -> SampleSet {
    xs.sort_by(f64::total_cmp);
    let mut set = SampleSet::new();
    for x in xs {
        set.record(x);
    }
    set
}

/// A nearest-rank quantile; 0 for no samples.
fn quantile(set: &SampleSet, q: f64) -> f64 {
    set.quantile(q).unwrap_or(0.0)
}

/// Lookups the eval cache answered and missed. Read from the cache
/// itself: the profiler's `evalcache.*` counters fire inside `par_map`
/// workers with no span open, and the worker-profile merge drops them.
fn cache_values(cache: &EvalCache) -> Vec<LayerValue> {
    let stats = cache.stats();
    vec![
        ("metasched.cache_hits", stats.hits as f64),
        ("metasched.cache_misses", stats.misses as f64),
    ]
}

/// Check a timed phase's outputs, outside the timed region; returns the
/// number of failed ops with a reason for each kind of failure. Full-size
/// outputs must equal `expected.json` (the tenant stream's only at the
/// seed it was pinned with); the tenant stream must also complete every
/// arrival and replay clean through the trace oracle with slot caps.
pub fn verify(w: Workload, quick: bool, out: &Outcome) -> (u64, Vec<String>) {
    let mut failed = out.panicked;
    let mut why = Vec::new();
    if out.panicked > 0 {
        why.push(format!("{} node run(s) panicked", out.panicked));
    }
    let expected = if quick { None } else { expected(w) };
    match (w, expected) {
        (Workload::SwitchMatrix, Some(exp)) => {
            let arr = |doc: &Json, key| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
            let mut mismatched = 0;
            for key in ["solo_ns", "combined_ns"] {
                let (got, want) = (arr(&out.outputs, key), arr(&exp, key));
                // Panicked runs (null) are already counted.
                let differ = got
                    .iter()
                    .zip(&want)
                    .filter(|(g, w)| **g != Json::Null && g != w);
                mismatched += differ.count() as u64 + got.len().abs_diff(want.len()) as u64;
            }
            if mismatched > 0 {
                why.push(format!(
                    "{mismatched} node run makespan(s) differ from expected.json"
                ));
            }
            failed += mismatched;
        }
        // The tenant stream's outputs are pinned at one seed only.
        (_, Some(exp))
            if exp
                .get("seed")
                .is_none_or(|s| Some(s) == out.outputs.get("seed"))
                && out.outputs != exp =>
        {
            why.push(format!(
                "outputs {} differ from expected.json {}",
                out.outputs.to_string(),
                exp.to_string()
            ));
            failed = 1;
        }
        _ => {}
    }
    if let Some((trace, shape, arrivals, completed)) = &out.service {
        if arrivals != completed {
            why.push(format!("{completed} of {arrivals} jobs completed"));
            failed = 1;
        }
        let mut oracle = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(shape.map_slots_per_vm),
            reduce_slots_per_vm: Some(shape.reduce_slots_per_vm),
            ..OracleConfig::default()
        });
        oracle.replay(trace);
        if !oracle.violations().is_empty() {
            why.push(format!("trace oracle: {}", oracle.violations().join("; ")));
            failed = 1;
        }
    }
    (failed.min(w.ops(quick)), why)
}

fn expected(w: Workload) -> Option<Json> {
    let doc = Json::parse(EXPECTED).expect("expected.json is valid JSON");
    doc.get(w.name()).cloned()
}

/// A timing wrapper around the blended tuner: the service sees the same
/// policy (and name), the benchmark gets the host time of every choice.
struct TimedPolicy {
    inner: BlendedTuner,
    choose_ns: Vec<f64>,
}

impl ServicePolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn choose(&mut self, mix: &PhaseMix, current: SchedPair) -> SchedPair {
        let t = Instant::now();
        let pair = self.inner.choose(mix, current);
        self.choose_ns.push(t.elapsed().as_nanos() as f64);
        pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    fn quick_run(w: Workload, telemetry: Telemetry) -> Outcome {
        let (prepared, values) = setup(w, 7, true, telemetry);
        let out = run(prepared);
        for (name, _) in values.iter().chain(&out.values) {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} is not in the catalog"
            );
        }
        out
    }

    #[test]
    fn quick_sizes_of_every_workload_complete_without_failed_ops() {
        for w in Workload::ALL {
            let out = quick_run(w, Telemetry::Off);
            let (failed, why) = verify(w, true, &out);
            assert_eq!(failed, 0, "{}: {why:?}", w.name());
        }
    }

    #[test]
    fn quick_shuffle_outputs_do_not_depend_on_telemetry_level() {
        let off = quick_run(Workload::Shuffle, Telemetry::Off).outputs;
        simcore::prof::set_level(Telemetry::Full);
        let full = quick_run(Workload::Shuffle, Telemetry::Full).outputs;
        simcore::prof::set_level(Telemetry::Off);
        assert!(
            !simcore::prof::take().is_empty(),
            "the full-level run was profiled"
        );
        assert_eq!(off.to_string(), full.to_string());
    }

    #[test]
    fn every_pinned_workload_has_expected_outputs() {
        for w in Workload::ALL {
            assert!(
                expected(w).is_some(),
                "{} missing from expected.json",
                w.name()
            );
        }
    }
}
