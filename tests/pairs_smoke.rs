//! End-to-end smoke test: a tiny sort job under all 16 (VMM, VM)
//! elevator pairs, checking the qualitative shape of the paper's §5
//! pair matrix — noop at the VMM is the worst family, and the stock
//! (CFQ, CFQ) default is never the winner.
//!
//! The sweep itself runs through `simcore::par::par_map`, so this also
//! exercises the in-tree parallel map on real workloads.

use adaptive_disk_sched::iosched::{SchedKind, SchedPair};
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{run_job, ClusterParams, ClusterSim, SwitchPlan};
use simcore::par::par_map;
use simcore::{OracleConfig, TraceOracle};

#[test]
fn all_sixteen_pairs_match_the_papers_shape() {
    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    let job = JobSpec {
        data_per_vm_bytes: 96 * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };

    let pairs = SchedPair::all();
    assert_eq!(pairs.len(), 16);
    let times: Vec<(SchedPair, f64)> = par_map(&pairs, |&p| {
        let out = run_job(&params, &job, SwitchPlan::single(p));
        (p, out.makespan.as_secs_f64())
    });

    // Every configuration completes in sane, finite time.
    for &(p, t) in &times {
        assert!(t.is_finite() && t > 1.0, "{p}: implausible makespan {t}");
    }

    let best = times
        .iter()
        .cloned()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let worst = times
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();

    // §5 shape target 1: the catastrophic configurations have noop in
    // the VMM — the worst pair overall is one of them, the noop-host
    // family is on average slower than every other host family, and
    // even the *best* noop-at-VMM pair clearly loses to the winner.
    assert_eq!(
        worst.0.host,
        SchedKind::Noop,
        "worst pair {} should have noop at the VMM",
        worst.0
    );
    let family_mean = |host: SchedKind| -> f64 {
        let fam: Vec<f64> = times
            .iter()
            .filter(|(p, _)| p.host == host)
            .map(|&(_, t)| t)
            .collect();
        fam.iter().sum::<f64>() / fam.len() as f64
    };
    let noop_mean = family_mean(SchedKind::Noop);
    for host in SchedKind::ALL {
        if host != SchedKind::Noop {
            assert!(
                noop_mean > family_mean(host),
                "noop-host family ({noop_mean:.1}s mean) should be slower than \
                 host {host} ({:.1}s mean)",
                family_mean(host)
            );
        }
    }
    let best_noop_host = times
        .iter()
        .filter(|(p, _)| p.host == SchedKind::Noop)
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    assert!(
        best_noop_host > 1.2 * best.1,
        "noop at the VMM should clearly lose: best noop-host \
         {best_noop_host:.1}s vs overall best {:.1}s",
        best.1
    );

    // §5 shape target 2: the stock (CFQ, CFQ) default never wins — the
    // whole premise of adaptive pair selection.
    assert_ne!(best.0, SchedPair::DEFAULT, "(CFQ, CFQ) must not be the best pair");
    let default_t = times
        .iter()
        .find(|(p, _)| *p == SchedPair::DEFAULT)
        .unwrap()
        .1;
    assert!(
        best.1 < default_t,
        "some pair must beat the default: best {} {:.1}s vs default {:.1}s",
        best.0,
        best.1,
        default_t
    );
}

/// Replay the structured event trace of a full (small-scale) sort job
/// through the [`TraceOracle`] for every one of the 16 (VMM, VM)
/// pairs: request lifecycle order, exact merge tiling, quiesce
/// discipline around hot switches, the blkfront ring bound, deadline
/// expiry service bounds, flow pairing and phase monotonicity must all
/// hold with zero violations, whatever elevators are installed.
#[test]
fn trace_oracle_is_clean_for_all_sixteen_pairs() {
    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    // The oracle refuses truncated histories: record every event.
    params.node.trace_capacity = usize::MAX;
    let job = JobSpec {
        data_per_vm_bytes: 64 * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };

    let pairs = SchedPair::all();
    par_map(&pairs, |&p| {
        let mut sim = ClusterSim::new(params.clone(), job.clone(), SwitchPlan::single(p));
        let out = sim.run();
        assert!(out.makespan.as_secs_f64() > 1.0, "{p}: degenerate run");
        // Per-node traces carry the block-stack events (the oracle's
        // deadline shadow uses the elevator's stock tunables).
        for n in 0..params.shape.nodes as usize {
            let trace = sim.node(n).trace();
            assert!(!trace.is_empty(), "{p}: node {n} recorded nothing");
            assert_eq!(trace.dropped(), 0, "{p}: node {n} dropped records");
            let mut oracle = TraceOracle::new(OracleConfig::default());
            oracle.replay(trace);
            oracle.assert_clean();
        }
        // The cluster-level trace carries flow and phase events.
        let mut oracle = TraceOracle::default();
        oracle.replay(sim.trace());
        oracle.assert_clean();
    });
}

/// A 3-tenant multi-job service smoke, calibrated from real runs:
/// every arrival completes, and the service trace replays through the
/// oracle's multi-job invariants with zero violations — no slot
/// oversubscription on any VM, job lifecycle ordering
/// (arrive ≤ admit ≤ first task ≤ complete), and per-job map byte
/// conservation.
#[test]
fn multijob_service_trace_is_oracle_clean() {
    use adaptive_disk_sched::metasched::{calibrate_tenants, BlendedTuner, EvalCache};
    use adaptive_disk_sched::vcluster::{run_service, ArrivalSpec, ServiceParams, TenantMix};
    use simcore::SimDuration;

    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    let mix = TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", 16 * 1024 * 1024)
        .expect("tenant mix");
    let cache = EvalCache::new();
    let profiles = calibrate_tenants(&params, &mix, &cache);
    assert!(
        cache.stats().entries >= SchedPair::all().len(),
        "calibration must record its profiles in the shared cache"
    );

    let sp = ServiceParams {
        shape: params.shape,
        duration: SimDuration::from_secs(180),
        seed: 11,
        ..ServiceParams::default()
    };
    let spec = ArrivalSpec::Poisson { rate_per_min: 5.0 };
    let mut policy = BlendedTuner::new(profiles.clone(), 0.05);
    let out = run_service(&sp, &mix, &profiles, &spec, &mut policy);

    assert!(out.arrivals >= 3, "window too quiet: {} arrivals", out.arrivals);
    assert_eq!(out.arrivals, out.completed, "open-loop service must drain");
    assert_eq!(out.trace.dropped(), 0, "oracle needs the full history");
    let mut oracle = TraceOracle::new(OracleConfig {
        map_slots_per_vm: Some(sp.shape.map_slots_per_vm),
        reduce_slots_per_vm: Some(sp.shape.reduce_slots_per_vm),
        ..OracleConfig::default()
    });
    oracle.replay(&out.trace);
    oracle.assert_clean();
}
