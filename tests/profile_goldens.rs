//! Profiler goldens.
//!
//! The structural skeleton of an exported `adios.profile/1` document —
//! names, hierarchy, call counts, event counters — is byte-identical
//! whatever the worker fan-out. Wall-clock fields (`total_ns`/`self_ns`)
//! are host-dependent and excluded from the skeleton, which is exactly
//! why only the skeleton is compared.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::mrsim::JobSpec;
use adaptive_disk_sched::mrsim::WorkloadSpec;
use adaptive_disk_sched::vcluster::{ClusterParams, ClusterSim, SwitchPlan};
use simcore::par::par_map_threads;
use simcore::prof;

fn small_cell() -> (ClusterParams, JobSpec) {
    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    let mut job = JobSpec::new(WorkloadSpec::sort());
    job.data_per_vm_bytes = 16 * 1024 * 1024;
    (params, job)
}

/// Profile the same two-cell workload under `n` workers and return the
/// merged skeleton document.
fn profiled_skeleton(n: usize) -> String {
    let prev = prof::thread_level();
    prof::set_thread_level(prof::LEVEL_FULL);
    prof::reset();
    let cells: Vec<u64> = vec![16, 24];
    let _makespans: Vec<f64> = par_map_threads(n, &cells, |&mb| {
        let (params, mut job) = small_cell();
        job.data_per_vm_bytes = mb * 1024 * 1024;
        let mut sim = ClusterSim::new(params, job, SwitchPlan::single(SchedPair::DEFAULT));
        sim.run().makespan.as_secs_f64()
    });
    let skeleton = prof::take().skeleton_json().to_string();
    prof::set_thread_level(prev);
    skeleton
}

#[test]
fn profile_skeleton_is_byte_identical_across_worker_counts() {
    let one = profiled_skeleton(1);
    let two = profiled_skeleton(2);
    let eight = profiled_skeleton(8);
    assert!(one.contains("\"schema\":\"adios.profile/1\""), "{one}");
    // Both cells' trees merged: every subsystem must be present with
    // summed call counts, independent of which worker ran which cell.
    for sub in ["vcluster.batch", "net.solve", "iosched.add", "vmstack.handle"] {
        assert!(one.contains(sub), "missing {sub} in {one}");
    }
    // The net solver's per-component statistics are `net.solve`
    // counters.
    let solve = one.split("\"name\":\"net.solve\",").nth(1).unwrap();
    let (calls, counters) = solve.split_once(",\"counters\":{").unwrap();
    assert!(!calls.contains(','), "net.solve has no counters in {one}");
    let counters = counters.split('}').next().unwrap();
    for c in ["components", "comp_edges", "comp_flows", "rounds"] {
        assert!(counters.contains(&format!("\"{c}\":")), "missing {c} in {counters}");
    }
    assert_eq!(one, two, "skeleton differs between 1 and 2 workers");
    assert_eq!(one, eight, "skeleton differs between 1 and 8 workers");
    // And the skeleton really is wall-free.
    assert!(!one.contains("total_ns"), "{one}");
    assert!(!one.contains("self_ns"), "{one}");
}
