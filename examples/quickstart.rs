//! Quickstart: run the paper's sort benchmark on the simulated 4×4
//! virtual cluster under the default (CFQ, CFQ) pair, then let the
//! adaptive meta-scheduler tune it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::metasched::{Experiment, MetaScheduler};
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{run_job, ClusterParams, SwitchPlan};

fn main() {
    // A modest configuration so the example finishes in a few seconds:
    // 4 nodes x 4 VMs, 256 MB of sort input per data node.
    let params = ClusterParams::default();
    let job = JobSpec {
        data_per_vm_bytes: 256 * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };

    // One plain run first: every JobOutcome carries the per-layer
    // observability document (schema `adios.metrics/2`).
    let out = run_job(&params, &job, SwitchPlan::single(SchedPair::DEFAULT));
    println!(
        "default-pair sort: {} (trace digest {:#018x})",
        out.makespan, out.trace_digest
    );
    println!("metrics document:\n{}\n", out.metrics.to_string());

    let exp = Experiment::new(params, job);

    println!("profiling all 16 (VMM, VM) elevator pairs and searching…");
    let report = MetaScheduler::new(exp).tune();

    println!();
    println!(
        "default  (CFQ, CFQ)          : {:>7.1} s",
        report.default_time.as_secs_f64()
    );
    println!(
        "best single pair {:<11}: {:>7.1} s",
        report.best_single.pair.to_string(),
        report.best_single.total.as_secs_f64()
    );
    let plan: Vec<String> = report
        .final_assignment()
        .iter()
        .map(|p| p.to_string())
        .collect();
    println!(
        "adaptive per-phase {:?}: {:>7.1} s",
        plan,
        report.final_time().as_secs_f64()
    );
    println!(
        "gain vs default: {:.1}%   gain vs best single: {:.1}%   ({} job executions)",
        report.gain_vs_default_pct(),
        report.gain_vs_best_single_pct(),
        report.heuristic.runs() + report.profiles.len(),
    );
}
