//! Kernel-swap goldens: hardcoded fingerprints of small reference runs,
//! captured from the original kernel (one pop per event from a flat
//! `BinaryHeap` event queue, `BTreeMap` id maps, allocating dispatch
//! loops). The rebuilt hot path — batched same-instant dispatch,
//! slab-backed network and id maps — and any event-queue structure that
//! keeps the `(time, seq)` pop order must reproduce every one of these
//! values bit-for-bit: the optimization contract is "faster, not
//! different".
//!
//! If a *deliberate* behaviour change ever invalidates these numbers,
//! re-capture them with the printing helper below and say so in the
//! commit message.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{run_job, ClusterParams, SwitchPlan};
use simcore::par::par_map_threads;
use simcore::Telemetry;

struct Golden {
    pair_idx: usize,
    data_mb: u64,
    makespan_ns: u64,
    trace_digest: u64,
    metrics_fnv: u64,
}

/// FNV-1a over a byte string (stable fingerprint of the metrics doc).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn params() -> ClusterParams {
    let mut p = ClusterParams::default();
    p.shape.nodes = 2;
    p.shape.vms_per_node = 2;
    p.node.trace_capacity = 4096;
    p.node.telemetry = Telemetry::Counters;
    p
}

fn fingerprint(pair_idx: usize, data_mb: u64) -> (u64, u64, u64) {
    let job = JobSpec {
        data_per_vm_bytes: data_mb * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };
    let out = run_job(
        &params(),
        &job,
        SwitchPlan::single(SchedPair::all()[pair_idx]),
    );
    (
        out.makespan.as_nanos(),
        out.trace_digest,
        fnv1a(out.metrics.to_string().as_bytes()),
    )
}

/// Captured from the seed kernel (commit 92d140c) with
/// `cargo test -q --test kernel_goldens -- --ignored --nocapture`.
/// The incremental network solver reproduced every makespan and trace
/// digest bit-for-bit; only the `metrics_fnv` values were re-captured —
/// the `network/bytes` gauge now credits the sub-byte horizon-rounding
/// residual at flow completion (exact conservation at drain), which
/// perturbs that one gauge's last decimal digits and nothing else.
const GOLDENS: &[Golden] = &[
    Golden { pair_idx: 0, data_mb: 64, makespan_ns: 6403298906, trace_digest: 0xaca5ae7afd87e97c, metrics_fnv: 0x59bf423bf7079267 },
    Golden { pair_idx: 5, data_mb: 64, makespan_ns: 6257273994, trace_digest: 0x6a5f7b1fcdb23fa9, metrics_fnv: 0x71f1ddc7bc97c5c2 },
    Golden { pair_idx: 10, data_mb: 96, makespan_ns: 9385997512, trace_digest: 0x89a9cfc194d9e09c, metrics_fnv: 0x3a955068814f54af },
    Golden { pair_idx: 15, data_mb: 48, makespan_ns: 7526422090, trace_digest: 0x628faec7bd2bd011, metrics_fnv: 0x5ad11ad835fdf52e },
];

/// 128-node sweep-scale golden: the incremental network solver's
/// component BFS, dirty-set coalescing and heap repair all see much
/// larger populations here than in the 2-node cases above, so this
/// pins the solver at the scale the sweep axis extension targets.
/// Small per-VM data keeps the debug-mode run time reasonable.
const GOLDEN_128: Golden = Golden {
    pair_idx: 0,
    data_mb: 8,
    makespan_ns: 8067224194,
    trace_digest: 0x3625f7f9a417db91,
    metrics_fnv: 0x3725aa2b9700c77c,
};

/// A two-switch phased plan on the 2x2 shape, `(makespan_ns,
/// trace_digest, metrics_fnv)` at 64 MB/VM: the Dom0 and guest
/// elevators both switch under load at the map and shuffle boundaries,
/// so drains, staging and re-init stalls feed the digest. Captured
/// before the two levels shared one switch path. The makespan equals
/// the `dd` row's: at this size the sort's critical path does not run
/// through the disk, so the switches show in the digest and the metrics
/// document (`switches`, `drain_s`, `freeze_s`) instead.
const GOLDEN_PHASED: (u64, u64, u64) = (6257273994, 0x5096a3aa8ae46b75, 0x9e23c756cb490838);

/// `ac` for the maps, `dd` for the shuffle, `cc` for the reduces.
fn fingerprint_phased() -> (u64, u64, u64) {
    let job = JobSpec {
        data_per_vm_bytes: 64 * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };
    let p = |code: &str| code.parse::<SchedPair>().expect("pair code");
    let plan = SwitchPlan::from_phases(&[p("ac"), p("dd"), p("cc")]);
    assert_eq!(plan.switches(), 2);
    let out = run_job(&params(), &job, plan);
    (
        out.makespan.as_nanos(),
        out.trace_digest,
        fnv1a(out.metrics.to_string().as_bytes()),
    )
}

#[test]
fn phased_plan_preserves_golden() {
    assert_eq!(fingerprint_phased(), GOLDEN_PHASED, "phased-plan golden drifted");
}

fn params_128() -> ClusterParams {
    let mut p = params();
    p.shape.nodes = 128;
    p.shape.vms_per_node = 2;
    p
}

fn fingerprint_128(pair_idx: usize, data_mb: u64) -> (u64, u64, u64) {
    let job = JobSpec {
        data_per_vm_bytes: data_mb * 1024 * 1024,
        ..JobSpec::new(WorkloadSpec::sort())
    };
    let out = run_job(
        &params_128(),
        &job,
        SwitchPlan::single(SchedPair::all()[pair_idx]),
    );
    (
        out.makespan.as_nanos(),
        out.trace_digest,
        fnv1a(out.metrics.to_string().as_bytes()),
    )
}

/// The 128-node fingerprint is bit-identical on 1, 2 and 8 `par_map`
/// workers, and matches the hardcoded golden on all of them.
#[test]
fn sweep_128_golden_thread_invariant() {
    let configs = [(GOLDEN_128.pair_idx, GOLDEN_128.data_mb)];
    for threads in [1usize, 2, 8] {
        let got = par_map_threads(threads, &configs, |&(p, mb)| fingerprint_128(p, mb));
        assert_eq!(
            got[0],
            (GOLDEN_128.makespan_ns, GOLDEN_128.trace_digest, GOLDEN_128.metrics_fnv),
            "128-node golden drifted on {threads} worker(s)"
        );
    }
}

#[test]
#[ignore]
fn capture_goldens() {
    for (pair_idx, data_mb) in [(0usize, 64u64), (5, 64), (10, 96), (15, 48)] {
        let (m, d, f) = fingerprint(pair_idx, data_mb);
        println!(
            "Golden {{ pair_idx: {pair_idx}, data_mb: {data_mb}, makespan_ns: {m}, \
             trace_digest: 0x{d:016x}, metrics_fnv: 0x{f:016x} }},"
        );
    }
    let (m, d, f) = fingerprint_128(0, 8);
    println!(
        "Golden128 {{ pair_idx: 0, data_mb: 8, makespan_ns: {m}, \
         trace_digest: 0x{d:016x}, metrics_fnv: 0x{f:016x} }}"
    );
    let (m, d, f) = fingerprint_phased();
    println!("GOLDEN_PHASED: ({m}, 0x{d:016x}, 0x{f:016x})");
}

#[test]
fn kernel_swap_preserves_goldens() {
    for g in GOLDENS {
        let (m, d, f) = fingerprint(g.pair_idx, g.data_mb);
        assert_eq!(m, g.makespan_ns, "makespan drifted (pair {})", g.pair_idx);
        assert_eq!(d, g.trace_digest, "trace digest drifted (pair {})", g.pair_idx);
        assert_eq!(f, g.metrics_fnv, "metrics doc drifted (pair {})", g.pair_idx);
    }
}

/// The goldens hold whatever the `par_map` worker count: 1-thread and
/// 8-thread sweeps over the golden configurations yield the same
/// fingerprints.
#[test]
fn kernel_goldens_thread_invariant() {
    let configs: Vec<(usize, u64)> = vec![(0, 64), (15, 48)];
    let one = par_map_threads(1, &configs, |&(p, mb)| fingerprint(p, mb));
    let eight = par_map_threads(8, &configs, |&(p, mb)| fingerprint(p, mb));
    assert_eq!(one, eight, "worker count changed kernel fingerprints");
}
