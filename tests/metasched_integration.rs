//! End-to-end meta-scheduler integration: the full
//! profile → split → Algorithm 1 → deploy pipeline on small simulated
//! clusters, plus the Fig. 5 switch-cost measurement methodology.

use adaptive_disk_sched::iosched::{SchedKind, SchedPair};
use adaptive_disk_sched::metasched::{
    measure_switch_cost, profile_pairs_cached, DdConfig, EvalCache, Experiment, MetaConfig,
    MetaScheduler,
};
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::ClusterParams;

fn small_exp(w: WorkloadSpec) -> Experiment {
    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    let job = JobSpec {
        data_per_vm_bytes: 128 * 1024 * 1024,
        ..JobSpec::new(w)
    };
    Experiment::new(params, job)
}

/// A focused candidate set keeps the test quick in debug builds.
fn candidates() -> Vec<SchedPair> {
    vec![
        SchedPair::DEFAULT,
        SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline),
        SchedPair::new(SchedKind::Deadline, SchedKind::Deadline),
        SchedPair::new(SchedKind::Deadline, SchedKind::Anticipatory),
        SchedPair::new(SchedKind::Cfq, SchedKind::Deadline),
        SchedPair::new(SchedKind::Noop, SchedKind::Cfq),
    ]
}

#[test]
fn tune_beats_the_default_and_never_loses_to_best_single() {
    let meta = MetaScheduler {
        exp: small_exp(WorkloadSpec::sort()),
        cfg: MetaConfig {
            candidates: candidates(),
            ..MetaConfig::default()
        },
    };
    let report = meta.tune();
    assert!(
        report.gain_vs_default_pct() > 0.0,
        "adaptive must beat (CFQ, CFQ): {:.2}%",
        report.gain_vs_default_pct()
    );
    assert!(report.final_time() <= report.best_single.total);
    // The paper's complexity bound: at most P x S evaluations (+1 for
    // the final re-measure, which is cached in practice).
    let p = report.split.count();
    assert!(report.heuristic.runs() <= p * candidates().len() + 1);
}

#[test]
fn profiles_are_internally_consistent() {
    let exp = small_exp(WorkloadSpec::sort());
    let profiles = profile_pairs_cached(&exp, &candidates(), &EvalCache::new());
    assert_eq!(profiles.len(), candidates().len());
    for p in &profiles {
        let sum = p.phase[0] + p.phase[1] + p.phase[2];
        assert_eq!(sum, p.total, "{}: phases must tile the makespan", p.pair);
    }
}

#[test]
fn tuning_is_deterministic() {
    let build = || MetaScheduler {
        exp: small_exp(WorkloadSpec::sort()),
        cfg: MetaConfig {
            candidates: candidates(),
            ..MetaConfig::default()
        },
    };
    let a = build().tune();
    let b = build().tune();
    assert_eq!(a.final_time(), b.final_time());
    assert_eq!(a.final_assignment(), b.final_assignment());
    assert_eq!(a.heuristic.runs(), b.heuristic.runs());
}

#[test]
fn switch_cost_is_positive_statedependent_noncommutative() {
    let cfg = DdConfig {
        vms: 2,
        bytes_per_vm: 64 * 1024 * 1024,
        ..DdConfig::default()
    };
    let cc = SchedPair::DEFAULT;
    let nn = SchedPair::new(SchedKind::Noop, SchedKind::Noop);
    let ad = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);

    let diag = measure_switch_cost(&cfg, cc, cc);
    assert!(
        diag.cost.as_secs_f64() > 0.3,
        "re-installing the same pair is not free (paper Fig. 5 diagonal): {}",
        diag.cost
    );

    let nn_ad = measure_switch_cost(&cfg, nn, ad).cost.as_secs_f64();
    let ad_nn = measure_switch_cost(&cfg, ad, nn).cost.as_secs_f64();
    assert!(
        (nn_ad - ad_nn).abs() > 0.05,
        "switch cost should not be commutative: {nn_ad:.2} vs {ad_nn:.2}"
    );
}

#[test]
fn fallback_protects_against_heuristic_regression() {
    // Even when the heuristic's multi-pair exploration finds nothing,
    // the deployed plan must match the measured best single pair.
    let meta = MetaScheduler {
        exp: small_exp(WorkloadSpec::wordcount()),
        cfg: MetaConfig {
            candidates: candidates(),
            ..MetaConfig::default()
        },
    };
    let report = meta.tune();
    let assignment = report.final_assignment();
    assert!(!assignment.is_empty());
    assert!(report.final_time() <= report.best_single.total);
}

#[test]
fn online_policy_switches_during_a_real_job() {
    use adaptive_disk_sched::metasched::PhaseReactivePolicy;
    use adaptive_disk_sched::simcore::SimDuration;
    use adaptive_disk_sched::vcluster::ClusterSim;

    let exp = small_exp(WorkloadSpec::sort());
    let a = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);
    let b = SchedPair::new(SchedKind::Deadline, SchedKind::Anticipatory);
    let mut sim = ClusterSim::new(
        exp.params.clone(),
        exp.job.clone(),
        adaptive_disk_sched::vcluster::SwitchPlan::single(a),
    );
    sim.set_online_policy(
        Box::new(PhaseReactivePolicy {
            map_pair: a,
            reduce_pair: b,
        }),
        SimDuration::from_secs(2),
    );
    let out = sim.run();
    // The policy must have switched the cluster to the reduce pair.
    assert!(
        out.switch_log.iter().any(|&(_, p)| p == b),
        "phase-reactive policy never switched: {:?}",
        out.switch_log
    );
    assert!((out.progress.last().unwrap().1 - 1.0).abs() < 1e-9);
}

#[test]
fn heartbeat_lag_lengthens_the_shuffle_tail() {
    use adaptive_disk_sched::vcluster::run_job;
    let mut exp = small_exp(WorkloadSpec::sort());
    let fast = {
        exp.params.heartbeat = adaptive_disk_sched::simcore::SimDuration::from_millis(100);
        run_job(
            &exp.params,
            &exp.job,
            adaptive_disk_sched::vcluster::SwitchPlan::single(SchedPair::DEFAULT),
        )
        .phases
        .non_concurrent_shuffle_pct()
    };
    let slow = {
        exp.params.heartbeat = adaptive_disk_sched::simcore::SimDuration::from_secs(8);
        run_job(
            &exp.params,
            &exp.job,
            adaptive_disk_sched::vcluster::SwitchPlan::single(SchedPair::DEFAULT),
        )
        .phases
        .non_concurrent_shuffle_pct()
    };
    assert!(
        slow > fast,
        "a slower heartbeat must grow the non-concurrent shuffle: {slow:.1}% vs {fast:.1}%"
    );
}
