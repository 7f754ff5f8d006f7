//! Goldens for the cross-run tables `repro-cli sweep` prints
//! (`SweepReport::rank`, `correlate`, `overlap`): their output is a pure
//! function of the sweep grid. The same sweep run under
//! `SIM_THREADS=1/2/8` must give byte-identical tables, and the bytes
//! themselves are pinned: an FNV-1a digest of the full `rank` and
//! `correlate` text plus the lines a reader checks by eye, and the
//! exact overlap means.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::mrsim::{JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{run_sweep, ClusterParams, SweepGrid, SweepReport, SwitchPlan};

/// FNV-1a of the `rank` text of [`sweep`].
const RANK_FNV: u64 = 0x41d48853879e9a87;
/// FNV-1a of the `correlate` text of [`sweep`].
const CORRELATE_FNV: u64 = 0xb0e41d733152d991;

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A small sweep: 2x2 VMs × 2 data sizes × cc/dd × parallel copies 1/5.
fn sweep() -> SweepReport {
    let mut base = ClusterParams::default();
    base.shape.nodes = 2;
    base.shape.vms_per_node = 2;
    let mut job = JobSpec::new(WorkloadSpec::sort());
    job.data_per_vm_bytes = 64 * 1024 * 1024;
    let dd: SchedPair = "dd".parse().unwrap();
    let grid = SweepGrid {
        shapes: vec![base.shape],
        data_mb_per_vm: vec![64, 96],
        plans: vec![
            ("cc".into(), SwitchPlan::single(SchedPair::DEFAULT)),
            ("dd".into(), SwitchPlan::single(dd)),
        ],
        parallel_copies: vec![1, 5],
    };
    run_sweep(&base, &job, &grid)
}

/// `rank`, `correlate` and `overlap` text of one sweep.
fn tables(report: &SweepReport) -> [String; 3] {
    [report.rank(), report.correlate(), report.overlap().text]
}

/// The tables are byte-identical when the underlying sweep runs on 1,
/// 2 or 8 workers, and equal the pinned bytes. (Only this test touches
/// `SIM_THREADS`; the sweeps of the other tests are thread-invariant
/// anyway.)
#[test]
fn tables_invariant_to_sim_threads() {
    let mut all = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("SIM_THREADS", threads);
        all.push(tables(&sweep()));
    }
    std::env::remove_var("SIM_THREADS");
    assert_eq!(all[0], all[1], "SIM_THREADS=2 changed the tables");
    assert_eq!(all[0], all[2], "SIM_THREADS=8 changed the tables");
    let [rank_text, corr_text, _] = &all[0];
    assert_eq!(fnv1a(rank_text), RANK_FNV, "rank bytes moved:\n{rank_text}");
    assert_eq!(
        fnv1a(corr_text),
        CORRELATE_FNV,
        "correlate bytes moved:\n{corr_text}"
    );
}

/// The lines behind the digests, and the overlap means to the bit.
#[test]
fn tables_match_pinned_lines() {
    let report = sweep();
    let r = report.rank();
    assert!(r.ends_with("\ncrossovers: 0\n"), "{r}");
    assert!(
        r.contains("  ph1  1. dd@pc1 4.047s  2. dd@pc5 +0.000s  3. cc@pc1 +1.332s"),
        "{r}"
    );
    let c = report.correlate();
    for line in [
        "  corr(gain, qdepth) = +0.831   corr(gain, busy) = +0.237\n",
        "  corr(gain, qdepth) = +0.993   corr(gain, busy) = +1.000\n",
    ] {
        assert!(c.contains(line), "missing {line:?} in\n{c}");
    }
    let o = report.overlap();
    assert_eq!(
        o.rows,
        vec![(1, 4, 43.34754313832858), (5, 4, 43.29139365082737)],
        "{}",
        o.text
    );
}
