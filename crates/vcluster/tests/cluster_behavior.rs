//! vcluster-level behaviour tests: accounting across the disk, cache,
//! network and CPU models during real MapReduce runs.

use iosched::{SchedKind, SchedPair};
use mrsim::{JobSpec, WorkloadSpec};
use simcore::SimDuration;
use vcluster::{run_job, ClusterParams, SwitchPlan};

fn tiny() -> (ClusterParams, JobSpec) {
    let mut p = ClusterParams::default();
    p.shape.nodes = 2;
    p.shape.vms_per_node = 2;
    let j = JobSpec {
        data_per_vm_bytes: 128 * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };
    (p, j)
}

/// Sort moves roughly input-sized volumes through shuffle: with 2 nodes
/// half the fetches are node-local (loopback), the rest cross the NIC,
/// plus one remote replica per reducer output.
#[test]
fn network_volume_is_plausible_for_sort() {
    let (p, j) = tiny();
    let total_map_output = j.total_map_output(&p.shape);
    let out = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT));
    // Shuffle (all of it transits the flow model, loopback included) +
    // replica copies: between 1x and 3x the map output.
    assert!(
        out.network_bytes as f64 > 0.9 * total_map_output as f64,
        "network {} vs map output {}",
        out.network_bytes,
        total_map_output
    );
    assert!(
        (out.network_bytes as f64) < 3.0 * total_map_output as f64,
        "network volume implausibly large"
    );
}

/// The page cache elides a large share of reads: physical disk reads
/// stay well below the logical read volume of the job.
#[test]
fn page_cache_elides_reads() {
    let (p, j) = tiny();
    let out = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT));
    let disk_bytes: u64 = out.disk_stats.iter().map(|d| d.bytes).sum();
    // Logical I/O for sort ≈ read input + spill + merge r/w + reduce
    // read + 2x output writes + shuffle r/w ≈ 8-9x input. With the
    // cache, physical traffic should be clearly below that.
    let input = j.data_per_vm_bytes * p.shape.total_vms() as u64;
    assert!(
        disk_bytes < 8 * input,
        "disk {} vs input {} — cache not eliding reads?",
        disk_bytes,
        input
    );
    assert!(
        disk_bytes > 2 * input,
        "disk volume implausibly small: spills and outputs must hit disk"
    );
}

/// Disabling the page cache slows the job down (more physical reads).
#[test]
fn disabling_cache_hurts() {
    let (mut p, j) = tiny();
    let with_cache = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    p.page_cache_bytes = 0;
    let without = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    assert!(
        without > with_cache,
        "no cache must be slower: {without} vs {with_cache}"
    );
}

/// A tighter dirty limit throttles writers and slows the job.
#[test]
fn tight_dirty_limit_throttles() {
    let (mut p, j) = tiny();
    p.dirty_limit_bytes = 512 * 1024 * 1024;
    let loose = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    p.dirty_limit_bytes = 16 * 1024 * 1024;
    let tight = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    assert!(
        tight > loose,
        "16 MB dirty ceiling must throttle: {tight} vs {loose}"
    );
}

/// A slower network lengthens the job (shuffle and replication are on
/// the critical path), and only the network model changed.
#[test]
fn slower_network_lengthens_job() {
    let (mut p, j) = tiny();
    let fast = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    p.net.nic_bytes_per_sec = 12 * 1024 * 1024; // ~100 Mb/s
    let slow = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    assert!(slow > fast, "100 Mb/s NIC must hurt: {slow} vs {fast}");
}

/// More VMs per node with the same per-VM data: more total work over
/// the same disk — the job must slow superlinearly in total data.
#[test]
fn consolidation_slows_the_cluster() {
    let (mut p, j) = tiny();
    let t2 = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    p.shape.vms_per_node = 4;
    let t4 = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan;
    assert!(
        t4.as_secs_f64() > 1.7 * t2.as_secs_f64(),
        "doubling VMs (and data) should at least ~double time: {t4} vs {t2}"
    );
}

/// Workload classes behave as the paper describes: wordcount (light)
/// finishes far faster than sort (heavy) on the same input volume, and
/// wordcount w/o combiner (moderate-heavy) is the slowest of the three
/// because its map output is 1.7x the input.
#[test]
fn workload_classes_rank_correctly() {
    let (p, base) = tiny();
    let time = |w: WorkloadSpec| {
        let j = JobSpec {
            workload: w,
            ..base.clone()
        };
        run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT)).makespan.as_secs_f64()
    };
    let wc = time(WorkloadSpec::wordcount());
    let sort = time(WorkloadSpec::sort());
    let wc_nc = time(WorkloadSpec::wordcount_no_combiner());
    assert!(wc < sort, "wordcount {wc:.1}s vs sort {sort:.1}s");
    assert!(sort < wc_nc, "sort {sort:.1}s vs wc-no-combiner {wc_nc:.1}s");
}

/// Switch completion log respects causality and lands on the target.
#[test]
fn double_switch_plan_executes_in_order() {
    let (p, j) = tiny();
    let a = SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline);
    let b = SchedPair::new(SchedKind::Deadline, SchedKind::Anticipatory);
    let c = SchedPair::DEFAULT;
    let out = run_job(&p, &j, SwitchPlan::from_phases(&[a, b, c]));
    // Two switches per node, in order b then c.
    let mut per_pair: Vec<SchedPair> = out.switch_log.iter().map(|&(_, p)| p).collect();
    per_pair.dedup();
    assert_eq!(per_pair, vec![b, c]);
    for w in out.switch_log.windows(2) {
        assert!(w[0].0 <= w[1].0);
    }
}

/// Heartbeat changes only shift shuffle visibility; byte accounting is
/// untouched.
#[test]
fn heartbeat_does_not_change_volumes() {
    let (mut p, j) = tiny();
    p.heartbeat = SimDuration::from_millis(500);
    let a = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT));
    p.heartbeat = SimDuration::from_secs(6);
    let b = run_job(&p, &j, SwitchPlan::single(SchedPair::DEFAULT));
    assert_eq!(a.network_bytes, b.network_bytes);
}
