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

use crate::driver::{run_job, ClusterParams, SwitchPlan};
use iosched::SchedPair;
use mrsim::{ClusterShape, JobSpec};
use simcore::par::par_map;
use simcore::{Json, SimDuration};
use std::hash::{Hash, Hasher};
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
    /// The cell's full `adios.metrics/2` document — the per-cell
    /// artifact a `--metrics-dir` export writes for the cross-run
    /// analytics.
    pub metrics: Json,
}

/// The identity of one sweep cell's run: shape × data size × plan ×
/// telemetry level × seed. This is the key under which a
/// `--metrics-dir` export stores the cell's metrics document and the
/// cross-run tables (`adios-report rank`/`correlate`) group runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Physical nodes.
    pub nodes: u32,
    /// VMs per node.
    pub vms_per_node: u32,
    /// HDFS data per VM, MB.
    pub data_mb_per_vm: u64,
    /// Plan label (pair code or plan description).
    pub plan: String,
    /// Telemetry level label (`off`/`counters`/`full`).
    pub telemetry: String,
    /// Workload name (e.g. `sort`).
    pub workload: String,
    /// Effective shuffle fetch concurrency the cell ran with (after
    /// any cell override) — the D4 overlap-axis key.
    pub parallel_copies: u32,
    /// Stable hash of the complete (params, job) configuration the
    /// cell ran — the run's seed: two documents with equal seeds came
    /// from bit-identical configurations, so their metrics are
    /// directly comparable.
    pub seed: u64,
}

impl RunManifest {
    /// Manifest of `cell` as [`run_sweep`] would execute it under
    /// `base`/`base_job`.
    pub fn new(cell: &SweepCell, base: &ClusterParams, base_job: &JobSpec) -> Self {
        let mut params = base.clone();
        params.shape = cell.shape;
        let mut job = base_job.clone();
        job.data_per_vm_bytes = cell.data_mb_per_vm * 1024 * 1024;
        if cell.parallel_copies != 0 {
            job.parallel_copies = cell.parallel_copies;
        }
        let mut h = simcore::fxmap::FxHasher::default();
        format!("{:?}|{:?}", params, job).hash(&mut h);
        let telemetry = match base.node.telemetry {
            simcore::Telemetry::Off => "off",
            simcore::Telemetry::Counters => "counters",
            simcore::Telemetry::Full => "full",
        };
        RunManifest {
            nodes: cell.shape.nodes,
            vms_per_node: cell.shape.vms_per_node,
            data_mb_per_vm: cell.data_mb_per_vm,
            plan: cell.plan_label.clone(),
            telemetry: telemetry.to_string(),
            workload: job.workload.name.clone(),
            parallel_copies: job.parallel_copies,
            seed: h.finish(),
        }
    }

    /// Deterministic file stem for this run's exported document.
    pub fn key(&self) -> String {
        let plan: String = self
            .plan
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' { c } else { '-' })
            .collect();
        format!(
            "n{}x{}_d{}mb_{}_{}_s{:016x}",
            self.nodes, self.vms_per_node, self.data_mb_per_vm, plan, self.telemetry, self.seed
        )
    }

    /// The manifest as the `manifest` section of an exported document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("nodes", self.nodes as u64)
            .field("vms_per_node", self.vms_per_node as u64)
            .field("data_mb_per_vm", self.data_mb_per_vm)
            .field("plan", self.plan.clone())
            .field("telemetry", self.telemetry.clone())
            .field("workload", self.workload.clone())
            .field("parallel_copies", self.parallel_copies as u64)
            .field("seed", format!("{:016x}", self.seed))
    }
}

/// A copy of a metrics document with the run manifest stamped in,
/// right after the `telemetry` field — the form `--metrics-dir`
/// exports write and the cross-run tables read.
pub fn stamp_manifest(doc: &Json, m: &RunManifest) -> Json {
    match doc {
        Json::Obj(entries) => {
            let mut out: Vec<(String, Json)> = Vec::with_capacity(entries.len() + 1);
            let mut inserted = false;
            for (k, v) in entries {
                out.push((k.clone(), v.clone()));
                if !inserted && k == "telemetry" {
                    out.push(("manifest".to_string(), m.to_json()));
                    inserted = true;
                }
            }
            if !inserted {
                out.insert(0, ("manifest".to_string(), m.to_json()));
            }
            Json::Obj(out)
        }
        other => other.clone(),
    }
}

impl CellResult {
    /// Events per host wall-clock second — the kernel throughput this
    /// cell sustained.
    pub fn events_per_sec(&self) -> f64 {
        self.events_processed as f64 / self.wall_s.max(1e-9)
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
        // The manifest records the *effective* concurrency, and the
        // override feeds the seed hash: different pc, different seed.
        let base = ClusterParams::default();
        let job = JobSpec::default();
        let m1 = RunManifest::new(&cells[0], &base, &job);
        let m10 = RunManifest::new(&cells[2], &base, &job);
        assert_eq!(m1.parallel_copies, 1);
        assert_eq!(m10.parallel_copies, 10);
        assert_eq!(m1.workload, "sort");
        assert_ne!(m1.seed, m10.seed);
        assert!(m1.key().contains("cc-pc1"), "{}", m1.key());
        // A pc-0 cell inherits the base job's setting.
        let inherit = RunManifest::new(&tiny_grid().cells()[0], &base, &job);
        assert_eq!(inherit.parallel_copies, job.parallel_copies);
        let j = m1.to_json().to_string();
        assert!(j.contains("\"workload\":\"sort\""), "{j}");
        assert!(j.contains("\"parallel_copies\":1"), "{j}");
    }

    #[test]
    fn manifest_key_is_deterministic_and_filesystem_safe() {
        let base = ClusterParams::default();
        let job = JobSpec::default();
        let g = tiny_grid();
        let cells = g.cells();
        let m = RunManifest::new(&cells[0], &base, &job);
        assert_eq!(m, RunManifest::new(&cells[0], &base, &job));
        let key = m.key();
        assert!(key.starts_with("n1x2_d16mb_cc_"), "{key}");
        assert!(key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'));
        // Different cells get different seeds (config hash covers the
        // grid axes), same cell under a different telemetry level gets
        // a different key.
        let m2 = RunManifest::new(&cells[2], &base, &job);
        assert_ne!(m.seed, m2.seed);
        let mut full = base.clone();
        full.node.telemetry = simcore::Telemetry::Full;
        let m3 = RunManifest::new(&cells[0], &full, &job);
        assert_ne!(m.key(), m3.key());
    }

    #[test]
    fn stamped_manifest_lands_after_telemetry() {
        let doc = Json::obj()
            .field("schema", "adios.metrics/2")
            .field("telemetry", "counters")
            .field("run", Json::obj().field("makespan_s", 1.0));
        let m = RunManifest {
            nodes: 4,
            vms_per_node: 4,
            data_mb_per_vm: 512,
            plan: "ad".into(),
            telemetry: "counters".into(),
            workload: "sort".into(),
            parallel_copies: 5,
            seed: 0xabcd,
        };
        let stamped = stamp_manifest(&doc, &m);
        let s = stamped.to_string();
        assert!(
            s.contains("\"telemetry\":\"counters\",\"manifest\":{\"nodes\":4"),
            "{s}"
        );
        // Stamping is idempotent in shape: schema stays first.
        assert!(s.starts_with("{\"schema\":\"adios.metrics/2\""), "{s}");
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
