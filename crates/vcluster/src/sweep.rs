//! Sharded experiment sweeps: fan a `ClusterShape × data-size × plan`
//! grid over worker threads and merge the results deterministically.
//!
//! The paper's evaluation (Fig. 7b–d) and every capacity-planning
//! question downstream of it reduce to the same loop: run one job per
//! grid cell and compare. Cells are completely independent simulations,
//! so the driver shards them over `simcore::par::par_map`, which
//! returns results **in grid order no matter how the threads
//! interleave** — the report is byte-identical for any `SIM_THREADS`.
//! Cross-cell aggregation ([`SweepReport::merged`]) only uses
//! commutative integer arithmetic (sums of `u64` event counts and
//! nanosecond totals, an order-insensitive digest fold), so it is
//! order-independent by construction, not by scheduling luck.
//!
//! Wall-clock per cell is measured with a monotonic clock and reported
//! for throughput accounting (`events/sec`); it is *host* time and
//! deliberately kept out of every deterministic artifact except the
//! benchmark document, which exists to record it.
//!
//! Three cross-run tables read the cells' metrics documents and answer
//! the questions the discrepancy log keeps asking:
//!
//! * [`SweepReport::rank`] — per-phase ranking tables of switch plans
//!   within each (shape, data size) group, flagging *phase-local
//!   ranking crossovers*: a pair that wins phase 1 but loses phases 2–3
//!   is exactly the Fig. 6 structure that makes phase-wise switching
//!   pay (the D6 signal). Without a crossover every phase agrees on one
//!   winner and the adaptive plan can only match best-single.
//! * [`SweepReport::correlate`] — per-group gain-vs-signal table (Dom0
//!   queue depth, disk busy fraction) with Pearson coefficients, the D3
//!   diagnosis tool for non-monotone gains across cluster shapes.
//! * [`SweepReport::overlap`] — mean non-concurrent-shuffle share per
//!   shuffle fetch concurrency (`parallel_copies`) setting against the
//!   paper's Table II figure, the D4 probe.
//!
//! Their bytes follow from the grid (DESIGN.md §11): cells group by
//! (nodes, vms, data), each group walks its members stably sorted by
//! plan label, phase rows stable-sort that order by time, Pearson sums
//! fold in member order, and overlap sums run in grid order. A table
//! panics on a cell whose document lacks a path it reads; `run_job`
//! writes every one of them at every telemetry level.

use crate::driver::{run_job, ClusterParams, SwitchPlan};
use iosched::SchedPair;
use mrsim::{ClusterShape, JobSpec};
use simcore::par::par_map;
use simcore::{Json, SimDuration};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One point of the sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cluster shape for this cell.
    pub shape: ClusterShape,
    /// HDFS data per VM, MB.
    pub data_mb_per_vm: u64,
    /// Shuffle fetch concurrency (`parallel copies`) override; 0
    /// inherits the base job's setting.
    pub parallel_copies: u32,
    /// Human-readable plan label (pair code or plan description,
    /// suffixed `@pcN` when the cell overrides parallel copies).
    pub plan_label: String,
    /// The switch plan to run.
    pub plan: SwitchPlan,
}

/// A sweep grid: the cartesian product of shapes, data sizes,
/// parallel-copies settings and plans, enumerated shapes-outer /
/// data / parallel-copies / plans-inner. The enumeration order *is*
/// the report order.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Cluster shapes to sweep.
    pub shapes: Vec<ClusterShape>,
    /// Data sizes (MB per VM) to sweep.
    pub data_mb_per_vm: Vec<u64>,
    /// Shuffle-fetch-concurrency settings to sweep (the D4
    /// overlap axis); empty = a single cell inheriting the base job.
    pub parallel_copies: Vec<u32>,
    /// Labelled plans to sweep.
    pub plans: Vec<(String, SwitchPlan)>,
}

impl SweepGrid {
    /// The classic single-shape pairs sweep: all 16 single-pair plans
    /// on one shape and data size (the `repro-cli sweep` default).
    pub fn pairs(shape: ClusterShape, data_mb_per_vm: u64) -> Self {
        SweepGrid {
            shapes: vec![shape],
            data_mb_per_vm: vec![data_mb_per_vm],
            parallel_copies: Vec::new(),
            plans: SchedPair::all()
                .into_iter()
                .map(|p| (p.code(), SwitchPlan::single(p)))
                .collect(),
        }
    }

    /// Materialize the grid cells in enumeration order.
    pub fn cells(&self) -> Vec<SweepCell> {
        // An empty parallel-copies axis is one inherit-the-base cell.
        let pcs: &[u32] = if self.parallel_copies.is_empty() {
            &[0]
        } else {
            &self.parallel_copies
        };
        let mut out = Vec::with_capacity(
            self.shapes.len() * self.data_mb_per_vm.len() * pcs.len() * self.plans.len(),
        );
        for &shape in &self.shapes {
            for &mb in &self.data_mb_per_vm {
                for &pc in pcs {
                    for (label, plan) in &self.plans {
                        let plan_label = if pc == 0 {
                            label.clone()
                        } else {
                            format!("{label}@pc{pc}")
                        };
                        out.push(SweepCell {
                            shape,
                            data_mb_per_vm: mb,
                            parallel_copies: pc,
                            plan_label,
                            plan: *plan,
                        });
                    }
                }
            }
        }
        out
    }
}

/// Outcome of one grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: SweepCell,
    /// Shuffle fetch concurrency the cell ran with: its override, else
    /// the base job's setting (the overlap table's axis).
    pub parallel_copies: u32,
    /// Simulated job elapsed time.
    pub makespan: SimDuration,
    /// Kernel events the cell's run processed.
    pub events_processed: u64,
    /// Bytes moved over the simulated network.
    pub network_bytes: u64,
    /// The run's combined trace digest (determinism witness).
    pub trace_digest: u64,
    /// Host wall-clock seconds the cell took (monotonic clock;
    /// non-deterministic, excluded from merged deterministic state).
    pub wall_s: f64,
    /// The cell's full `adios.metrics/2` document, which the cross-run
    /// tables read.
    pub metrics: Json,
}

impl CellResult {
    /// Events per host wall-clock second — the kernel throughput this
    /// cell sustained.
    pub fn events_per_sec(&self) -> f64 {
        self.events_processed as f64 / self.wall_s.max(1e-9)
    }

    /// The number at `path` in the cell's metrics document; a miss is a
    /// broken document, not a sweep input.
    fn metric(&self, path: &[&str]) -> f64 {
        path.iter()
            .try_fold(&self.metrics, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| {
                panic!(
                    "metrics document of cell {} has no number at {}",
                    self.cell.plan_label,
                    path.join(".")
                )
            })
    }
}

/// Deterministic cross-cell aggregate. Every field is merged with a
/// commutative, associative operation over exact integers, so the
/// result is independent of both thread interleaving *and* the order
/// the cells are folded in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergedMetrics {
    /// Number of cells merged.
    pub cells: u64,
    /// Total kernel events across cells.
    pub events: u64,
    /// Sum of simulated makespans, nanoseconds.
    pub sim_ns: u64,
    /// Total simulated network bytes.
    pub network_bytes: u64,
    /// Order-insensitive fold (wrapping sum) of per-cell trace
    /// digests: equal multisets of runs ⇒ equal combined digest.
    pub digest: u64,
}

impl MergedMetrics {
    /// Fold one cell in (commutative).
    pub fn absorb(&mut self, r: &CellResult) {
        self.cells += 1;
        self.events += r.events_processed;
        self.sim_ns += r.makespan.as_nanos();
        self.network_bytes += r.network_bytes;
        self.digest = self.digest.wrapping_add(r.trace_digest);
    }
}

/// A completed sweep: per-cell results in grid order plus the merged
/// aggregate and total host wall-clock.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Per-cell results, in [`SweepGrid::cells`] order.
    pub results: Vec<CellResult>,
    /// Host wall-clock of the whole sweep (with sharding this is far
    /// less than the sum of per-cell walls).
    pub total_wall_s: f64,
}

impl SweepReport {
    /// The deterministic cross-cell aggregate.
    pub fn merged(&self) -> MergedMetrics {
        let mut m = MergedMetrics::default();
        for r in &self.results {
            m.absorb(r);
        }
        m
    }

    /// Aggregate kernel throughput: total events over total wall time.
    pub fn events_per_sec(&self) -> f64 {
        self.merged().events as f64 / self.total_wall_s.max(1e-9)
    }

    /// Serialize as an `adios.bench/1` document (the shape
    /// `BENCH_sweep.json` and `adios-report` consume). Wall-clock and
    /// throughput fields are host measurements; everything else is
    /// deterministic.
    pub fn to_json(&self) -> Json {
        let cells = Json::Arr(
            self.results
                .iter()
                .map(|r| {
                    Json::obj()
                        .field("nodes", r.cell.shape.nodes as u64)
                        .field("vms_per_node", r.cell.shape.vms_per_node as u64)
                        .field("data_mb_per_vm", r.cell.data_mb_per_vm)
                        .field("plan", r.cell.plan_label.clone())
                        .field("makespan_s", r.makespan.as_secs_f64())
                        .field("events", r.events_processed)
                        .field("network_mb", r.network_bytes >> 20)
                        .field("wall_s", r.wall_s)
                        .field("events_per_sec", r.events_per_sec())
                })
                .collect(),
        );
        let m = self.merged();
        Json::obj()
            .field("schema", "adios.bench/1")
            .field("kind", "sweep")
            .field("cells", cells)
            .field("total_events", m.events)
            .field("total_sim_s", SimDuration::from_nanos(m.sim_ns).as_secs_f64())
            .field("total_wall_s", self.total_wall_s)
            .field("events_per_sec", self.events_per_sec())
            .field("merged_digest", format!("{:#018x}", m.digest))
    }
}

/// The paper's Table II non-concurrent-shuffle share at 1 wave — the
/// reference the D4 overlap table compares against.
const TABLE2_SHUFFLE_PCT: f64 = 29.5;

const PHASES: [&str; 3] = ["ph1_s", "ph2_s", "ph3_s"];

/// Result of [`SweepReport::overlap`]: the rendered table plus its rows.
#[derive(Debug)]
pub struct OverlapReport {
    /// Human-readable table.
    pub text: String,
    /// `(parallel_copies, cells, mean non-concurrent-shuffle %)` per
    /// setting, in ascending `parallel_copies` order.
    pub rows: Vec<(u32, u64, f64)>,
}

fn group_header(key: (u32, u32, u64), n: usize) -> String {
    format!(
        "[{}x{} nodes·vms · {} MB/vm · {} runs]\n",
        key.0, key.1, key.2, n
    )
}

/// Mean of a full-telemetry time series (`sum[]` / `count[]` buckets),
/// if the document carries one.
fn series_mean(doc: &Json, name: &str) -> Option<f64> {
    let s = doc.get("series")?.get(name)?;
    let (Some(Json::Arr(sums)), Some(Json::Arr(counts))) = (s.get("sum"), s.get("count")) else {
        return None;
    };
    let total: f64 = sums.iter().filter_map(Json::as_f64).sum();
    let n: f64 = counts.iter().filter_map(Json::as_f64).sum();
    if n > 0.0 {
        Some(total / n)
    } else {
        None
    }
}

/// Single-pass Pearson moment accumulator: push `(x, y)` points, read
/// the coefficient at the end.
#[derive(Debug, Clone, Copy, Default)]
struct PearsonAcc {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl PearsonAcc {
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    /// Pearson r over the pushed points; `None` below 3 points or on a
    /// degenerate (zero-variance) axis.
    fn r(&self) -> Option<f64> {
        if self.n < 3 {
            return None;
        }
        let n = self.n as f64;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        let cov = self.sxy - self.sx * self.sy / n;
        Some(cov / (vx * vy).sqrt())
    }
}

impl SweepReport {
    /// Cells grouped by (nodes, vms, data), each group stably sorted by
    /// plan label — the member order every table walks. Cells with
    /// equal labels keep grid order.
    fn groups(&self) -> BTreeMap<(u32, u32, u64), Vec<&CellResult>> {
        let mut groups: BTreeMap<_, Vec<&CellResult>> = BTreeMap::new();
        for r in &self.results {
            let shape = r.cell.shape;
            let key = (shape.nodes, shape.vms_per_node, r.cell.data_mb_per_vm);
            groups.entry(key).or_default().push(r);
        }
        for members in groups.values_mut() {
            members.sort_by(|a, b| a.cell.plan_label.cmp(&b.cell.plan_label));
        }
        groups
    }

    /// Per-phase plan rankings within each (shape, data) group, with
    /// crossover detection, ending with the count of crossing plan
    /// pairs (`crossovers: N`).
    pub fn rank(&self) -> String {
        let mut out = String::from("adios cross-run ranking (adios.metrics/2)\n");
        let mut crossovers = 0;
        for (key, members) in self.groups() {
            let times: Vec<[f64; 3]> = members
                .iter()
                .map(|r| PHASES.map(|ph| r.metric(&["phases", ph])))
                .collect();
            out.push('\n');
            out.push_str(&group_header(key, members.len()));
            for ph in 0..PHASES.len() {
                // Stable sort of the member order: time ties stay in
                // plan-label order.
                let mut row: Vec<(f64, &str)> = members
                    .iter()
                    .zip(&times)
                    .map(|(r, t)| (t[ph], r.cell.plan_label.as_str()))
                    .collect();
                row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
                let best = row[0].0;
                let _ = write!(out, "  ph{}", ph + 1);
                for (j, (t, plan)) in row.iter().enumerate() {
                    if j == 0 {
                        let _ = write!(out, "  1. {plan} {t:.3}s");
                    } else {
                        let _ = write!(out, "  {}. {plan} +{:.3}s", j + 1, t - best);
                    }
                }
                out.push('\n');
            }
            // A crossover between plans A and B: A strictly faster in
            // one phase, strictly slower in another. Each pair counts
            // once.
            let mut found = 0;
            for a in 0..members.len() {
                for b in a + 1..members.len() {
                    let (mut a_wins, mut b_wins) = (Vec::new(), Vec::new());
                    for (ph, (ta, tb)) in times[a].iter().zip(&times[b]).enumerate() {
                        if ta < tb {
                            a_wins.push(ph + 1);
                        } else if tb < ta {
                            b_wins.push(ph + 1);
                        }
                    }
                    if !a_wins.is_empty() && !b_wins.is_empty() {
                        let _ = writeln!(
                            out,
                            "  ** crossover: {} wins ph{a_wins:?}, {} wins ph{b_wins:?}",
                            members[a].cell.plan_label, members[b].cell.plan_label
                        );
                        found += 1;
                    }
                }
            }
            if found == 0 {
                out.push_str("  (no phase-local ranking crossover)\n");
            }
            crossovers += found;
        }
        let _ = writeln!(out, "\ncrossovers: {crossovers}");
        out
    }

    /// Gain-vs-signal tables per group: each plan's makespan gain over
    /// the group baseline (`cc`/`default`, else the first member)
    /// against Dom0 queue depth and disk busy fraction, plus Pearson
    /// coefficients folded in member order (D3 diagnosis).
    pub fn correlate(&self) -> String {
        let mut out = String::from("adios cross-run correlation (adios.metrics/2)\n");
        for (key, members) in self.groups() {
            out.push('\n');
            out.push_str(&group_header(key, members.len()));
            let base = members
                .iter()
                .find(|r| r.cell.plan_label == "cc" || r.cell.plan_label == "default")
                .unwrap_or(&members[0]);
            let base_mk = base.metric(&["run", "makespan_s"]);
            let _ = write!(
                out,
                "  baseline {} makespan {:.3}s\n  {:<10} {:>10} {:>8} {:>8} {:>9}\n",
                base.cell.plan_label, base_mk, "plan", "makespan", "gain%", "qdepth", "busy"
            );
            let (mut acc_qd, mut acc_busy) = (PearsonAcc::default(), PearsonAcc::default());
            for r in &members {
                let mk = r.metric(&["run", "makespan_s"]);
                let gain = (base_mk - mk) / base_mk * 100.0;
                let qd = series_mean(&r.metrics, "dom0_qdepth")
                    .unwrap_or_else(|| r.metric(&["dom0_elevator", "queue_depth", "mean"]));
                // busy_s normalised to one disk-second per node over the
                // makespan.
                let busy = r.metric(&["disk", "busy_s"]) / (mk * r.cell.shape.nodes as f64);
                acc_qd.push(gain, qd);
                acc_busy.push(gain, busy);
                let _ = writeln!(
                    out,
                    "  {:<10} {:>9.3}s {:>8.2} {:>8.2} {:>9.3}",
                    r.cell.plan_label, mk, gain, qd, busy
                );
            }
            if members.len() < 3 {
                out.push_str("  (fewer than 3 runs — no correlation)\n");
            } else {
                // A degenerate axis (zero variance) has no coefficient.
                let fmt = |c: Option<f64>| c.map_or("n/a".into(), |c| format!("{c:+.3}"));
                let _ = writeln!(
                    out,
                    "  corr(gain, qdepth) = {}   corr(gain, busy) = {}",
                    fmt(acc_qd.r()),
                    fmt(acc_busy.r())
                );
            }
        }
        out
    }

    /// The D4 overlap probe: mean non-concurrent-shuffle share per
    /// shuffle fetch-concurrency (`parallel_copies`) setting, and the
    /// setting that lands closest to the paper's Table II share. Sums
    /// run in grid order.
    pub fn overlap(&self) -> OverlapReport {
        let mut sums: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
        for r in &self.results {
            let slot = sums.entry(r.parallel_copies).or_default();
            slot.0 += r.metric(&["phases", "non_concurrent_shuffle_pct"]);
            slot.1 += 1;
        }
        let rows: Vec<(u32, u64, f64)> = sums
            .into_iter()
            .map(|(pc, (sum, n))| (pc, n, sum / n as f64))
            .collect();
        let mut out = format!(
            "adios shuffle-overlap probe (adios.metrics/2)\n\n  Table II non-concurrent shuffle at 1 wave: {TABLE2_SHUFFLE_PCT:.1}%\n  {:>15} {:>5} {:>14} {:>9}\n",
            "parallel_copies", "runs", "mean shuffle%", "delta"
        );
        for &(pc, n, mean) in &rows {
            let _ = writeln!(
                out,
                "  {pc:>15} {n:>5} {mean:>14.3} {:>+9.3}",
                mean - TABLE2_SHUFFLE_PCT
            );
        }
        // `min_by` keeps the first of equal elements: a tie on |delta|
        // goes to the smaller setting.
        let delta = |mean: f64| (mean - TABLE2_SHUFFLE_PCT).abs();
        if let Some((pc, _, mean)) = rows
            .iter()
            .copied()
            .min_by(|a, b| delta(a.2).total_cmp(&delta(b.2)))
        {
            let _ = writeln!(
                out,
                "  closest to Table II: parallel_copies {pc} ({mean:.3}%)"
            );
        }
        OverlapReport { text: out, rows }
    }
}

/// Run every cell of `grid`, sharded over `simcore::par::par_map`
/// (honouring `SIM_THREADS`). `base` and `base_job` supply everything
/// the grid does not vary — disk model, network parameters, workload,
/// telemetry level.
pub fn run_sweep(base: &ClusterParams, base_job: &JobSpec, grid: &SweepGrid) -> SweepReport {
    let cells = grid.cells();
    let sweep_start = Instant::now();
    let results = par_map(&cells, |cell| {
        let mut params = base.clone();
        params.shape = cell.shape;
        let mut job = base_job.clone();
        job.data_per_vm_bytes = cell.data_mb_per_vm * 1024 * 1024;
        if cell.parallel_copies != 0 {
            job.parallel_copies = cell.parallel_copies;
        }
        let start = Instant::now();
        let out = run_job(&params, &job, cell.plan);
        CellResult {
            cell: cell.clone(),
            parallel_copies: job.parallel_copies,
            makespan: out.makespan,
            events_processed: out.events_processed,
            network_bytes: out.network_bytes,
            trace_digest: out.trace_digest,
            wall_s: start.elapsed().as_secs_f64(),
            metrics: out.metrics,
        }
    });
    SweepReport {
        results,
        total_wall_s: sweep_start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_shape(nodes: u32) -> ClusterShape {
        ClusterShape {
            nodes,
            vms_per_node: 2,
            ..ClusterShape::default()
        }
    }

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            shapes: vec![tiny_shape(1), tiny_shape(2)],
            data_mb_per_vm: vec![16, 32],
            parallel_copies: Vec::new(),
            plans: vec![
                ("cc".into(), SwitchPlan::single(SchedPair::DEFAULT)),
                (
                    "dd".into(),
                    SwitchPlan::single(
                        SchedPair::new(iosched::SchedKind::Deadline, iosched::SchedKind::Deadline),
                    ),
                ),
            ],
        }
    }

    #[test]
    fn grid_enumeration_order_is_shapes_data_plans() {
        let g = tiny_grid();
        let cells = g.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].shape.nodes, 1);
        assert_eq!(cells[0].data_mb_per_vm, 16);
        assert_eq!(cells[0].plan_label, "cc");
        assert_eq!(cells[1].plan_label, "dd");
        assert_eq!(cells[2].data_mb_per_vm, 32);
        assert_eq!(cells[4].shape.nodes, 2);
    }

    #[test]
    fn pairs_grid_covers_all_sixteen() {
        let g = SweepGrid::pairs(tiny_shape(1), 64);
        assert_eq!(g.cells().len(), SchedPair::all().len());
    }

    #[test]
    fn parallel_copies_axis_labels_and_overrides() {
        let mut g = tiny_grid();
        g.shapes.truncate(1);
        g.data_mb_per_vm.truncate(1);
        g.parallel_copies = vec![1, 10];
        let cells = g.cells();
        assert_eq!(cells.len(), 4); // 1 shape × 1 size × 2 pc × 2 plans
        assert_eq!(cells[0].plan_label, "cc@pc1");
        assert_eq!(cells[2].plan_label, "cc@pc10");
        // Each result records the concurrency its cell ran with: the
        // override, else the base job's own setting.
        let job = JobSpec {
            data_per_vm_bytes: 16 << 20,
            ..JobSpec::default()
        };
        let pcs = |grid: &SweepGrid| -> Vec<u32> {
            let report = run_sweep(&ClusterParams::default(), &job, grid);
            report.results.iter().map(|r| r.parallel_copies).collect()
        };
        assert_eq!(pcs(&g), [1, 1, 10, 10]);
        g.parallel_copies.clear();
        assert_eq!(pcs(&g), [job.parallel_copies; 2]);
    }

    /// A cell result whose metrics document carries just the paths the
    /// cross-run tables read, at 5 parallel copies.
    fn cell(
        shape: (u32, u32, u64),
        plan: &str,
        mk: f64,
        phases: [f64; 3],
        qdepth: f64,
    ) -> CellResult {
        let (nodes, vms, mb) = shape;
        let metrics = Json::obj()
            .field("run", Json::obj().field("makespan_s", mk))
            .field(
                "phases",
                Json::obj()
                    .field("ph1_s", phases[0])
                    .field("ph2_s", phases[1])
                    .field("ph3_s", phases[2])
                    .field("non_concurrent_shuffle_pct", 100.0 * phases[1] / mk),
            )
            .field(
                "dom0_elevator",
                Json::obj().field("queue_depth", Json::obj().field("mean", qdepth)),
            )
            .field("disk", Json::obj().field("busy_s", mk * nodes as f64 * 0.5));
        CellResult {
            cell: SweepCell {
                shape: ClusterShape {
                    nodes,
                    vms_per_node: vms,
                    ..ClusterShape::default()
                },
                data_mb_per_vm: mb,
                parallel_copies: 0,
                plan_label: plan.into(),
                plan: SwitchPlan::single(SchedPair::DEFAULT),
            },
            parallel_copies: 5,
            makespan: SimDuration::from_secs_f64(mk),
            events_processed: 0,
            network_bytes: 0,
            trace_digest: 0,
            wall_s: 0.0,
            metrics,
        }
    }

    fn report(results: Vec<CellResult>) -> SweepReport {
        SweepReport {
            results,
            total_wall_s: 0.0,
        }
    }

    #[test]
    fn rank_detects_fig6_style_crossover() {
        // The Fig. 6 structure: (AS,DL) "ad" wins phase 1, (DL,AS)
        // "da" wins phases 2 and 3.
        let r = report(vec![
            cell((4, 4, 512), "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            cell((4, 4, 512), "da", 29.0, [11.0, 11.0, 7.0], 7.0),
            cell((4, 4, 512), "cc", 33.0, [12.0, 13.0, 8.5], 9.0),
        ])
        .rank();
        assert!(
            r.contains("** crossover: ad wins ph[1], da wins ph[2, 3]"),
            "{r}"
        );
        assert!(r.contains("ph1  1. ad 10.000s"), "{r}");
        assert!(r.contains("ph2  1. da 11.000s"), "{r}");
        // "cc" is slowest in every phase: ad/da is the one crossing pair.
        assert!(r.ends_with("\ncrossovers: 1\n"), "{r}");
    }

    #[test]
    fn rank_reports_absence_of_crossover() {
        // One plan dominates every phase: no crossover anywhere.
        let r = report(vec![
            cell((2, 2, 64), "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            cell((2, 2, 64), "dd", 19.0, [7.0, 7.5, 3.9], 5.5),
        ])
        .rank();
        assert!(r.contains("(no phase-local ranking crossover)"), "{r}");
        assert!(r.ends_with("\ncrossovers: 0\n"), "{r}");
    }

    #[test]
    fn rank_groups_shapes_separately_and_is_deterministic() {
        let sweep = report(vec![
            cell((4, 4, 512), "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            cell((2, 2, 64), "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            cell((4, 4, 512), "da", 29.0, [11.0, 11.0, 7.0], 7.0),
            cell((2, 2, 64), "dd", 19.0, [7.0, 8.5, 3.9], 5.5),
        ]);
        let a = sweep.rank();
        assert_eq!(a, sweep.rank());
        let small = a.find("[2x2").unwrap();
        let big = a.find("[4x4").unwrap();
        assert!(small < big, "groups must render in shape order:\n{a}");
        assert!(a.contains("[4x4 nodes·vms · 512 MB/vm · 2 runs]"), "{a}");
        assert!(a.contains("** crossover: cc wins ph[2], dd wins ph[1, 3]"), "{a}");
        // One crossing pair per group; the count sums over groups.
        assert!(a.ends_with("\ncrossovers: 2\n"), "{a}");
    }

    #[test]
    fn correlate_renders_gains_and_coefficients() {
        // Gains rise with queue depth -> strong positive correlation.
        let out = report(vec![
            cell((4, 4, 512), "cc", 30.0, [10.0, 12.0, 8.0], 4.0),
            cell((4, 4, 512), "ad", 27.0, [9.0, 11.0, 7.0], 6.0),
            cell((4, 4, 512), "da", 24.0, [8.0, 10.0, 6.0], 8.0),
        ])
        .correlate();
        assert!(out.contains("baseline cc makespan 30.000s"), "{out}");
        assert!(out.contains("corr(gain, qdepth) = +1.000"), "{out}");
        // Baseline's own gain is zero.
        assert!(out.contains("cc            30.000s     0.00"), "{out}");
    }

    #[test]
    fn correlate_prefers_series_signal_when_present() {
        let mut c = cell((4, 4, 512), "cc", 30.0, [10.0, 12.0, 8.0], 4.0);
        // Graft a full-telemetry series whose mean (12.0) differs from
        // the counters-level stat (4.0).
        c.metrics = c.metrics.field(
            "series",
            Json::obj().field(
                "dom0_qdepth",
                Json::obj()
                    .field("sum", Json::Arr(vec![Json::from(20.0), Json::from(4.0)]))
                    .field("count", Json::Arr(vec![Json::from(1u64), Json::from(1u64)])),
            ),
        );
        let out = report(vec![c]).correlate();
        assert!(out.contains("12.00"), "series mean must win:\n{out}");
    }

    #[test]
    fn overlap_tracks_parallel_copies_axis() {
        // Distinct settings, each with a controlled shuffle share: at a
        // 25 s makespan the share is 4 × the phase-2 time, exactly.
        let with_pc = |plan: &str, pc: u32, ph2: f64| {
            let mut c = cell((4, 4, 512), plan, 25.0, [10.0, ph2, 8.0], 6.0);
            c.parallel_copies = pc;
            c
        };
        let o = report(vec![
            with_pc("cc@pc1", 1, 10.0),
            with_pc("cc@pc5", 5, 7.0),
            with_pc("dd@pc5", 5, 7.5),
            with_pc("cc@pc10", 10, 3.5),
        ])
        .overlap();
        assert_eq!(o.rows, vec![(1, 1, 40.0), (5, 2, 29.0), (10, 1, 14.0)]);
        assert!(o.text.contains("at 1 wave: 29.5%"), "{}", o.text);
        assert!(
            o.text
                .contains("closest to Table II: parallel_copies 5 (29.000%)"),
            "{}",
            o.text
        );
    }

    #[test]
    fn pearson_accumulator_matches_closed_form() {
        let mut acc = PearsonAcc::default();
        for (x, y) in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)] {
            acc.push(x, y);
        }
        assert!((acc.r().unwrap() - 1.0).abs() < 1e-12);
        let mut anti = PearsonAcc::default();
        for (x, y) in [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)] {
            anti.push(x, y);
        }
        assert!((anti.r().unwrap() + 1.0).abs() < 1e-12);
        // Degenerate axis: no coefficient.
        let mut flat = PearsonAcc::default();
        for x in [1.0, 2.0, 3.0] {
            flat.push(x, 5.0);
        }
        assert_eq!(flat.r(), None);
        // Under 3 points: no coefficient.
        let mut two = PearsonAcc::default();
        two.push(1.0, 1.0);
        two.push(2.0, 2.0);
        assert_eq!(two.r(), None);
    }

    #[test]
    fn merge_is_order_independent() {
        let base = ClusterParams::default();
        let job = JobSpec {
            data_per_vm_bytes: 16 << 20,
            ..JobSpec::default()
        };
        let report = run_sweep(&base, &job, &tiny_grid());
        let forward = report.merged();
        let mut backward = MergedMetrics::default();
        for r in report.results.iter().rev() {
            backward.absorb(r);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.cells, 8);
        assert!(forward.events > 0);
    }

    #[test]
    fn sweep_deterministic_across_thread_counts() {
        use simcore::par::par_map_threads;
        let base = ClusterParams::default();
        let job = JobSpec {
            data_per_vm_bytes: 16 << 20,
            ..JobSpec::default()
        };
        let grid = tiny_grid();
        let cells = grid.cells();
        // Strip the host wall-clock: compare only deterministic fields.
        let run_with = |threads: usize| -> Vec<(u64, u64, u64)> {
            par_map_threads(threads, &cells, |cell| {
                let mut params = base.clone();
                params.shape = cell.shape;
                let mut j = job.clone();
                j.data_per_vm_bytes = cell.data_mb_per_vm * 1024 * 1024;
                let out = run_job(&params, &j, cell.plan);
                (
                    out.makespan.as_nanos(),
                    out.events_processed,
                    out.trace_digest,
                )
            })
        };
        assert_eq!(run_with(1), run_with(8));
    }
}
