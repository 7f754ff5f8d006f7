//! Kernel-throughput sweep bench: run the `vcluster::sweep` sharded
//! driver over a cluster-scale grid (8 → 512 nodes) and record
//! events/sec and wall-clock per cell into `BENCH_sweep.json`
//! (adios.bench/1).
//!
//! The headline number is the 64-node sort cell (64 nodes × 4 VMs,
//! 64 MB/VM, default pair), compared against the original kernel
//! measured on the same cell: popping one event at a time and
//! allocating per event, it took **136.377 s** of host wall-clock for
//! the identical simulation (same event count — the rework is
//! bit-exact, so both kernels process exactly the same events). The
//! acceptance bar is ≥5× events/sec over that baseline.
//!
//! `REPRO_QUICK=1` shrinks the grid to a liveness smoke pass and skips
//! the speedup assertion (the headline cell never runs).

use iosched::{SchedKind, SchedPair};
use metasched::{
    calibrate_tenants, BlendedTuner, EvalCache, Experiment, MetaScheduler, PhaseReactivePolicy,
    QueueDepthPolicy,
};
use mrsim::{ClusterShape, JobSpec, WorkloadSpec};
use repro_bench::quick;
use simcore::{Json, SimDuration};
use vcluster::{
    run_service, run_sweep, ArrivalSpec, ClusterParams, ClusterSim, FixedPolicy, OnlinePolicy,
    ServiceParams, ServicePolicy, SweepGrid, SwitchPlan, TenantMix,
};

/// Host wall-clock of the headline cell (64×4 VMs, 64 MB/VM sort,
/// default pair) under the original kernel — measured before the
/// batching/slab rework on the same simulation (which, being bit-exact,
/// processes the same event count).
const BASELINE_WALL_S: f64 = 136.377;

fn shape(nodes: u32) -> ClusterShape {
    ClusterShape {
        nodes,
        ..ClusterShape::default()
    }
}

fn out_path() -> std::path::PathBuf {
    std::env::var_os("BENCH_SWEEP_OUT")
        .map(Into::into)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json")
        })
}

/// Run one labelled cell, optionally under an online policy, and fold
/// it into a JSON row. Switch decisions are counted from the run's
/// audit records (`online` section of the metrics document).
fn policy_cell(
    params: &ClusterParams,
    job: &JobSpec,
    label: &str,
    plan: SwitchPlan,
    policy: Option<Box<dyn OnlinePolicy>>,
) -> Json {
    let started = std::time::Instant::now();
    let mut sim = ClusterSim::new(params.clone(), job.clone(), plan);
    if let Some(p) = policy {
        sim.set_online_policy(p, SimDuration::from_millis(500));
    }
    let out = sim.run();
    let wall = started.elapsed().as_secs_f64();
    let audit = |name: &str| {
        out.metrics
            .get("online")
            .and_then(|o| o.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    println!(
        "policy {:>14}: makespan {:>6.1}s, {} switches, {} audit steps, wall {:.2}s",
        label,
        out.makespan.as_secs_f64(),
        out.switch_log.len(),
        audit("audit_steps"),
        wall
    );
    Json::obj()
        .field("plan", label)
        .field("makespan_s", out.makespan.as_secs_f64())
        .field("events", out.events_processed)
        .field("switches", out.switch_log.len() as u64)
        .field("audit_steps", audit("audit_steps"))
        .field("audit_flips", audit("audit_flips"))
        .field("wall_s", wall)
}

/// The offline-vs-online comparison column set: `default`,
/// `best-single` and `adaptive` from a real tune of the given shape,
/// then the two reactive policies (`reactive-queue`,
/// `reactive-phase`) mirroring the tuned plan online.
fn policy_cells(base: &ClusterParams, job: &JobSpec, shape: ClusterShape) -> Json {
    let mut params = base.clone();
    params.shape = shape;
    println!("\n## Policy comparison ({}x{} VMs, {} MB/VM)\n", shape.nodes, shape.vms_per_node, job.data_per_vm_bytes >> 20);
    let tune = MetaScheduler::new(Experiment::new(params.clone(), job.clone())).tune();
    let assignment = tune.final_assignment();
    let dd = SchedPair::new(SchedKind::Deadline, SchedKind::Deadline);
    let rows = vec![
        policy_cell(
            &params,
            job,
            "default",
            SwitchPlan::single(SchedPair::DEFAULT),
            None,
        ),
        policy_cell(
            &params,
            job,
            "best-single",
            SwitchPlan::single(tune.best_single.pair),
            None,
        ),
        policy_cell(&params, job, "adaptive", SwitchPlan::from_phases(&assignment), None),
        policy_cell(
            &params,
            job,
            "reactive-queue",
            SwitchPlan::single(SchedPair::DEFAULT),
            Some(Box::new(QueueDepthPolicy::new(
                dd,
                SchedPair::DEFAULT,
                8.0,
                2.0,
            ))),
        ),
        policy_cell(
            &params,
            job,
            "reactive-phase",
            SwitchPlan::single(assignment[0]),
            Some(Box::new(PhaseReactivePolicy {
                map_pair: assignment[0],
                reduce_pair: *assignment.last().expect("non-empty assignment"),
            })),
        ),
    ];
    Json::Arr(rows)
}

/// The D6 re-run, regenerated instead of hand-recorded: the
/// adaptive-vs-static comparison under *contention*. A Poisson
/// three-tenant stream shares the cluster's slots; each policy cell is
/// a full service run, and the margin column is measured from the two
/// runs' mean latencies. Returns the cell rows plus the adaptive
/// improvement over the offline best single pair, in percent.
fn multijob_cells(base: &ClusterParams, shape: ClusterShape) -> (Json, f64) {
    let data_mb: u64 = if quick() { 16 } else { 64 };
    let mix = TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", data_mb << 20)
        .expect("tenant mix");
    let mut params = base.clone();
    params.shape = shape;
    println!(
        "\n## Multi-job service ({}x{} VMs, 3 tenants, {} MB/VM)\n",
        shape.nodes, shape.vms_per_node, data_mb
    );
    let cache = EvalCache::new();
    let profiles = calibrate_tenants(&params, &mix, &cache);
    // Offline best single pair for the blended (weight-averaged)
    // workload — the strongest static baseline.
    let pairs = SchedPair::all();
    let blended_total = |i: usize| {
        mix.tenants
            .iter()
            .zip(&profiles)
            .map(|(t, p)| {
                t.weight as f64 * p.phase[i].iter().map(|d| d.as_secs_f64()).sum::<f64>()
            })
            .sum::<f64>()
    };
    let best_idx = (0..pairs.len())
        .min_by(|&a, &b| blended_total(a).total_cmp(&blended_total(b)))
        .expect("non-empty pair table");
    let sp = ServiceParams {
        shape,
        duration: SimDuration::from_secs(if quick() { 120 } else { 480 }),
        seed: 42,
        ..ServiceParams::default()
    };
    let spec = ArrivalSpec::Poisson { rate_per_min: 8.0 };
    let cell = |label: &str, policy: &mut dyn ServicePolicy| {
        let started = std::time::Instant::now();
        let out = run_service(&sp, &mix, &profiles, &spec, policy);
        let wall = started.elapsed().as_secs_f64();
        println!(
            "service {:>12}: {} jobs, mean latency {:>6.1}s, p99 {:>6.1}s, {:>5.2} jobs/min, {} switches, wall {:.2}s",
            label,
            out.completed,
            out.mean_latency_s,
            out.p99_latency_s,
            out.throughput_jpm,
            out.switches,
            wall
        );
        (
            Json::obj()
                .field("plan", label)
                .field("jobs", out.completed)
                .field("mean_latency_s", out.mean_latency_s)
                .field("p50_latency_s", out.p50_latency_s)
                .field("p99_latency_s", out.p99_latency_s)
                .field("throughput_jpm", out.throughput_jpm)
                .field("map_slot_util", out.map_slot_util)
                .field("switches", out.switches as u64)
                .field("wall_s", wall),
            out.mean_latency_s,
        )
    };
    let (default_row, _) = cell("default", &mut FixedPolicy(SchedPair::DEFAULT));
    let (single_row, single_lat) = cell("best-single", &mut FixedPolicy(pairs[best_idx]));
    let (adaptive_row, adaptive_lat) =
        cell("adaptive", &mut BlendedTuner::new(profiles.clone(), 0.05));
    let margin_pct = if single_lat > 0.0 {
        (single_lat - adaptive_lat) / single_lat * 100.0
    } else {
        0.0
    };
    println!(
        "\nD6 (contention): adaptive vs best single {} -> {margin_pct:+.2}% mean latency",
        pairs[best_idx]
    );
    (Json::Arr(vec![default_row, single_row, adaptive_row]), margin_pct)
}

fn main() {
    let base = ClusterParams::default();
    let mut job = JobSpec::new(WorkloadSpec::sort());
    let dd = SchedPair::new(SchedKind::Deadline, SchedKind::Deadline);
    let grid = if quick() {
        job.data_per_vm_bytes = 32 << 20;
        SweepGrid {
            shapes: vec![shape(4), shape(8)],
            data_mb_per_vm: vec![32],
            plans: vec![
                ("cc".into(), SwitchPlan::single(SchedPair::DEFAULT)),
                ("dd".into(), SwitchPlan::single(dd)),
            ],
            parallel_copies: vec![],
        }
    } else {
        job.data_per_vm_bytes = 64 << 20;
        SweepGrid {
            shapes: vec![
                shape(8),
                shape(16),
                shape(32),
                shape(64),
                shape(128),
                shape(256),
                shape(512),
            ],
            data_mb_per_vm: vec![64],
            plans: vec![
                ("cc".into(), SwitchPlan::single(SchedPair::DEFAULT)),
                ("dd".into(), SwitchPlan::single(dd)),
            ],
            parallel_copies: vec![],
        }
    };

    println!("\n## Sharded sweep bench ({} cells)\n", grid.cells().len());
    let report = run_sweep(&base, &job, &grid);
    for r in &report.results {
        println!(
            "{:>3} nodes x {} VMs, {:>3} MB/VM, {}: makespan {:>7.1}s, {:>9} events, wall {:>7.2}s, {:>10.0} events/s",
            r.cell.shape.nodes,
            r.cell.shape.vms_per_node,
            r.cell.data_mb_per_vm,
            r.cell.plan_label,
            r.makespan.as_secs_f64(),
            r.events_processed,
            r.wall_s,
            r.events_per_sec()
        );
    }
    println!(
        "\ntotal: {} events in {:.1}s wall ({:.0} events/s aggregate, sharded)",
        report.total_events(),
        report.total_wall_s,
        report.events_per_sec()
    );

    let mut doc = report
        .to_json()
        .field("baseline_kernel", "flat BinaryHeap, pop-per-event, alloc-per-dispatch");

    // Policy comparison on the grid's smallest shape: the offline
    // plans (default / best-single / adaptive, from a real tune) next
    // to the two online switchers. Their switch decisions land in the
    // metrics document's audit records, surfaced here as
    // switches/audit counts per cell.
    doc = doc.field(
        "policy_cells",
        policy_cells(&base, &job, grid.shapes[0]),
    );

    // The multi-job service column set (D6 under contention): three
    // policy cells from real service runs, plus the measured adaptive
    // margin over the best static pair.
    let (mj_cells, mj_margin) = multijob_cells(&base, grid.shapes[0]);
    doc = doc
        .field("multijob_cells", mj_cells)
        .field("multijob_margin_vs_best_single_pct", mj_margin);

    if !quick() {
        let headline = report
            .results
            .iter()
            .find(|r| r.cell.shape.nodes == 64 && r.cell.plan_label == "cc")
            .expect("64-node cc cell in the full grid");
        let baseline_eps = headline.events_processed as f64 / BASELINE_WALL_S;
        let speedup = headline.events_per_sec() / baseline_eps;
        println!(
            "\nheadline (64x4 sort, 64 MB/VM, cc): {:.0} events/s vs pre-change {:.0} events/s ({:.1}x, wall {:.2}s vs {:.2}s)",
            headline.events_per_sec(),
            baseline_eps,
            speedup,
            headline.wall_s,
            BASELINE_WALL_S
        );
        doc = doc
            .field("headline_cell", "64x4 sort 64MB/VM cc")
            .field("headline_events", headline.events_processed)
            .field("headline_wall_s", headline.wall_s)
            .field("headline_events_per_sec", headline.events_per_sec())
            .field("baseline_wall_s", BASELINE_WALL_S)
            .field("baseline_events_per_sec", baseline_eps)
            .field("speedup", speedup);
        assert!(
            speedup >= 5.0,
            "acceptance: >=5x events/sec on the 64-node sort cell, got {speedup:.2}x"
        );
    }

    let path = out_path();
    match std::fs::write(&path, doc.to_string() + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
