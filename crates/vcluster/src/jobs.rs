//! Multi-job cluster service: open-loop tenant job streams sharing one
//! cluster through per-job map/reduce slot scheduling.
//!
//! Every other entry point in this crate simulates *one* job on an idle
//! cluster. The paper's adaptive case (Fig. 7 / Table I) only becomes
//! interesting under sustained concurrent traffic, where overlapping
//! jobs put the cluster in a *mixed* phase state no single-job phase
//! plan describes. This module provides that regime as a service-level
//! simulation:
//!
//! * an **arrival stream** ([`ArrivalSpec`]): Poisson interarrivals via
//!   [`SimRng::exponential`] or an explicit `adios.jobs/1` trace file
//!   parsed with [`simcore::Json`];
//! * a **tenant mix** ([`TenantMix`]): weighted workload classes, each
//!   a full [`JobSpec`];
//! * a **slot ledger** ([`SlotLedger`]): per-VM map/reduce slot
//!   capacities shared by all active jobs, scheduled round-robin and
//!   data-local exactly like the single-job tracker;
//! * a **service policy** ([`ServicePolicy`]): consulted every retune
//!   period with the live [`PhaseMix`]; the `metasched` crate's blended
//!   tuner implements it with the paper's Algorithm 1 machinery, and
//!   [`FixedPolicy`] pins any static pair for baselines.
//!
//! Task service times come from **per-tenant calibration profiles**
//! ([`TenantProfile`]): the measured per-(pair, phase) durations of the
//! inner cluster simulation, scaled to a single task's share. A task
//! started while `k` jobs are active is additionally slowed by the
//! configured cross-job contention penalty — independent streams on a
//! shared disk destroy each other's locality, which is exactly why the
//! installed elevator pair matters.
//!
//! The run is one deterministic discrete-event loop: task completions
//! and retune ticks go through an [`EventQueue`], and the sorted job
//! arrivals are read from a cursor beside it. The emitted trace uses
//! the multi-job `Job*`/`Slot*` events which [`simcore::TraceOracle`]
//! checks for lifecycle order, slot oversubscription and per-job byte
//! conservation. Results export as a schema-bumped `adios.metrics/3`
//! document, byte-identical across `SIM_THREADS`.

use iosched::SchedPair;
use mrsim::{ClusterShape, JobSpec, JobTracker, TaskKind, WorkloadSpec};
use mrsim::plan::TaskId;
use simcore::{
    EventQueue, Json, MetricsRegistry, SampleSet, SimDuration, SimRng, SimTime, Trace,
    TraceEvent,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Tenants
// ---------------------------------------------------------------------

/// One tenant class: a named workload with an arrival weight.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Display name (also the key trace files reference).
    pub name: String,
    /// The job every arrival of this tenant runs.
    pub job: JobSpec,
    /// Relative arrival weight within the mix.
    pub weight: u32,
}

/// A weighted set of tenant classes.
#[derive(Debug, Clone)]
pub struct TenantMix {
    /// The classes, in declaration order (index = tenant id).
    pub tenants: Vec<Tenant>,
}

impl TenantMix {
    /// Parse a `name:weight,name:weight` mix string, e.g.
    /// `sort:2,wordcount:1,wordcount-nc:1`. Recognized names are the
    /// CLI workload names (`sort`, `wordcount`/`wc`,
    /// `wordcount-nc`/`wc-nc`); the weight defaults to 1.
    pub fn parse(s: &str, data_per_vm_bytes: u64) -> Result<TenantMix, String> {
        let mut tenants = Vec::new();
        for part in s.split(',').filter(|p| !p.is_empty()) {
            let (name, weight) = match part.split_once(':') {
                Some((n, w)) => (
                    n.trim(),
                    w.trim()
                        .parse::<u32>()
                        .map_err(|e| format!("bad weight in {part:?}: {e}"))?,
                ),
                None => (part.trim(), 1),
            };
            if weight == 0 {
                return Err(format!("tenant {name:?} has zero weight"));
            }
            let workload = match name {
                "sort" => WorkloadSpec::sort(),
                "wordcount" | "wc" => WorkloadSpec::wordcount(),
                "wordcount-nc" | "wc-nc" => WorkloadSpec::wordcount_no_combiner(),
                other => return Err(format!("unknown workload {other:?}")),
            };
            let job = JobSpec { data_per_vm_bytes, ..JobSpec::new(workload) };
            tenants.push(Tenant { name: name.to_string(), job, weight });
        }
        if tenants.is_empty() {
            return Err("empty tenant mix".to_string());
        }
        Ok(TenantMix { tenants })
    }

    fn total_weight(&self) -> u64 {
        self.tenants.iter().map(|t| t.weight as u64).sum()
    }
}

// ---------------------------------------------------------------------
// Arrival streams
// ---------------------------------------------------------------------

/// How jobs enter the service.
#[derive(Debug, Clone)]
pub enum ArrivalSpec {
    /// Open-loop Poisson stream at a fixed mean rate; tenants drawn by
    /// mix weight. Fully determined by the service seed.
    Poisson {
        /// Mean arrival rate, jobs per minute.
        rate_per_min: f64,
    },
    /// An explicit schedule of `(time, tenant index)` arrivals (from an
    /// `adios.jobs/1` trace file).
    Trace(Vec<(SimTime, usize)>),
}

/// Deterministic Poisson arrival instants over `[0, duration)`.
/// Interarrival gaps are `Exp(60 / rate_per_min seconds)` drawn from a
/// stream split off `seed`, so equal seeds give byte-equal streams.
pub fn poisson_arrivals(rate_per_min: f64, duration: SimDuration, seed: u64) -> Vec<SimTime> {
    assert!(rate_per_min > 0.0, "arrival rate must be positive");
    let mut rng = SimRng::from_seed(seed).split("jobs.arrivals");
    let mean_gap_s = 60.0 / rate_per_min;
    let horizon = duration.as_secs_f64();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(mean_gap_s);
        if t >= horizon {
            return out;
        }
        out.push(SimTime::ZERO + SimDuration::from_secs_f64(t));
    }
}

impl ArrivalSpec {
    /// Materialize the stream: sorted `(arrival time, tenant index)`
    /// pairs over `[0, duration)`.
    pub fn generate(
        &self,
        mix: &TenantMix,
        duration: SimDuration,
        seed: u64,
    ) -> Vec<(SimTime, usize)> {
        match self {
            ArrivalSpec::Poisson { rate_per_min } => {
                let times = poisson_arrivals(*rate_per_min, duration, seed);
                let mut pick = SimRng::from_seed(seed).split("jobs.tenants");
                let total = mix.total_weight();
                times
                    .into_iter()
                    .map(|t| {
                        let mut roll = pick.range_u64(0, total);
                        let mut idx = 0usize;
                        for (i, tn) in mix.tenants.iter().enumerate() {
                            if roll < tn.weight as u64 {
                                idx = i;
                                break;
                            }
                            roll -= tn.weight as u64;
                        }
                        (t, idx)
                    })
                    .collect()
            }
            ArrivalSpec::Trace(arrivals) => {
                let mut out: Vec<(SimTime, usize)> = arrivals
                    .iter()
                    .filter(|(t, _)| *t < SimTime::ZERO + duration)
                    .cloned()
                    .collect();
                out.sort_by_key(|&(t, i)| (t, i));
                out
            }
        }
    }

    /// Parse an `adios.jobs/1` trace document:
    ///
    /// ```json
    /// {"schema": "adios.jobs/1",
    ///  "arrivals": [{"t_s": 1.5, "tenant": "sort"}, …]}
    /// ```
    ///
    /// Tenant names must appear in `mix`.
    pub fn parse_trace(doc: &Json, mix: &TenantMix) -> Result<ArrivalSpec, String> {
        match doc.get("schema").and_then(|s| s.as_str()) {
            Some("adios.jobs/1") => {}
            other => return Err(format!("expected schema adios.jobs/1, got {other:?}")),
        }
        let arr = doc
            .get("arrivals")
            .and_then(|a| a.as_arr())
            .ok_or("missing arrivals array")?;
        let mut out = Vec::with_capacity(arr.len());
        for (i, e) in arr.iter().enumerate() {
            let t = e
                .get("t_s")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("arrival {i}: missing t_s"))?;
            if !(t.is_finite() && t >= 0.0) {
                return Err(format!("arrival {i}: bad t_s {t}"));
            }
            let name = e
                .get("tenant")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("arrival {i}: missing tenant"))?;
            let idx = mix
                .tenants
                .iter()
                .position(|tn| tn.name == name)
                .ok_or_else(|| format!("arrival {i}: unknown tenant {name:?}"))?;
            out.push((SimTime::ZERO + SimDuration::from_secs_f64(t), idx));
        }
        Ok(ArrivalSpec::Trace(out))
    }
}

// ---------------------------------------------------------------------
// Slot ledger
// ---------------------------------------------------------------------

/// Per-VM map/reduce slot accounting shared by all active jobs.
///
/// The ledger is the single source of truth for admission of a task
/// onto a VM; the trace oracle independently re-derives occupancy from
/// `SlotAcquire`/`SlotRelease` events and cross-checks it against the
/// configured capacities.
#[derive(Debug, Clone)]
pub struct SlotLedger {
    map_used: Vec<u32>,
    reduce_used: Vec<u32>,
    map_cap: u32,
    reduce_cap: u32,
}

impl SlotLedger {
    /// Empty ledger for a cluster shape.
    pub fn new(shape: &ClusterShape) -> SlotLedger {
        SlotLedger {
            map_used: vec![0; shape.total_vms() as usize],
            reduce_used: vec![0; shape.total_vms() as usize],
            map_cap: shape.map_slots_per_vm,
            reduce_cap: shape.reduce_slots_per_vm,
        }
    }

    /// Occupy one slot on `gvm` if capacity remains; false when full.
    pub fn try_acquire(&mut self, gvm: u32, map: bool) -> bool {
        let (used, cap) = if map {
            (&mut self.map_used[gvm as usize], self.map_cap)
        } else {
            (&mut self.reduce_used[gvm as usize], self.reduce_cap)
        };
        if *used >= cap {
            return false;
        }
        *used += 1;
        true
    }

    /// Release a previously acquired slot.
    pub fn release(&mut self, gvm: u32, map: bool) {
        let used = if map {
            &mut self.map_used[gvm as usize]
        } else {
            &mut self.reduce_used[gvm as usize]
        };
        assert!(*used > 0, "releasing a slot nobody holds (vm {gvm}, map={map})");
        *used -= 1;
    }

    /// Free slots of a kind on one VM.
    pub fn free(&self, gvm: u32, map: bool) -> u32 {
        if map {
            self.map_cap - self.map_used[gvm as usize]
        } else {
            self.reduce_cap - self.reduce_used[gvm as usize]
        }
    }

    /// VMs the ledger covers.
    fn vms(&self) -> u32 {
        self.map_used.len() as u32
    }

    /// Occupied slots of a kind, cluster-wide.
    pub fn in_use(&self, map: bool) -> u32 {
        if map {
            self.map_used.iter().sum()
        } else {
            self.reduce_used.iter().sum()
        }
    }
}

// ---------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------

/// The live phase mix: for each tenant, how many of its active jobs sit
/// in each paper phase (index 0 = maps, 1 = shuffle, 2 = reduce).
/// Overlapping jobs make this a *vector*, not a single phase code —
/// the quantity the cluster-level meta-scheduler blends profiles with.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseMix {
    /// `per_tenant[t][p]` = weight of tenant `t`'s active jobs in phase `p`.
    pub per_tenant: Vec<[f64; 3]>,
}

impl PhaseMix {
    /// Sum over tenants.
    pub fn total(&self) -> [f64; 3] {
        let mut t = [0.0; 3];
        for v in &self.per_tenant {
            for p in 0..3 {
                t[p] += v[p];
            }
        }
        t
    }

    /// True when no job is active.
    pub fn is_idle(&self) -> bool {
        self.total().iter().all(|&x| x == 0.0)
    }
}

/// A cluster-level pair-selection policy consulted at every retune tick.
pub trait ServicePolicy {
    /// Display name for reports.
    fn name(&self) -> String;
    /// The pair to have installed given the live mix. Returning a pair
    /// different from `current` triggers a cluster-wide switch (costing
    /// the configured switch stall).
    fn choose(&mut self, mix: &PhaseMix, current: SchedPair) -> SchedPair;
}

/// Never switches: the static baseline (stock default, or the offline
/// best-single pair).
#[derive(Debug, Clone, Copy)]
pub struct FixedPolicy(pub SchedPair);

impl ServicePolicy for FixedPolicy {
    fn name(&self) -> String {
        format!("fixed:{}", self.0)
    }
    fn choose(&mut self, _mix: &PhaseMix, _current: SchedPair) -> SchedPair {
        self.0
    }
}

// ---------------------------------------------------------------------
// Calibration profiles
// ---------------------------------------------------------------------

/// Calibrated single-job phase durations of one tenant under every
/// elevator pair, in [`SchedPair::all`] order. Produced by the
/// metasched crate's cached profiler (or any other measurement) from
/// real inner-simulation runs.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// `phase[pair_idx]` = the tenant's `[ph1, ph2, ph3]` durations
    /// under `SchedPair::all()[pair_idx]`.
    pub phase: Vec<[SimDuration; 3]>,
}

impl TenantProfile {
    /// Validate against the pair table.
    pub fn validate(&self) -> Result<(), String> {
        if self.phase.len() != SchedPair::all().len() {
            return Err(format!(
                "profile covers {} pairs, expected {}",
                self.phase.len(),
                SchedPair::all().len()
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Service parameters and outcome
// ---------------------------------------------------------------------

/// Knobs of the multi-job service simulation.
#[derive(Debug, Clone)]
pub struct ServiceParams {
    /// Cluster shape (nodes, VMs, per-VM slot counts).
    pub shape: ClusterShape,
    /// Open-loop arrival window; jobs arriving before this horizon all
    /// run to completion (the run itself extends past it).
    pub duration: SimDuration,
    /// Master seed for the arrival and tenant-choice streams.
    pub seed: u64,
    /// How often the service policy is consulted.
    pub retune_period: SimDuration,
    /// Stall applied to task starts after a pair switch (the paper's
    /// Fig. 5 switching cost, surfaced at the service level).
    pub switch_cost: SimDuration,
    /// Admission cap: jobs beyond this many active wait in a FIFO.
    pub max_concurrent: u32,
    /// Fractional slowdown added to a task for every *other* job in
    /// the system at its start, admitted or waiting in the admission
    /// FIFO (cross-job disk interference).
    pub contention_penalty: f64,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            shape: ClusterShape::default(),
            duration: SimDuration::from_secs(300),
            seed: 42,
            retune_period: SimDuration::from_secs(5),
            switch_cost: SimDuration::from_millis(500),
            max_concurrent: 8,
            contention_penalty: 0.08,
        }
    }
}

/// Everything one service run produces.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// The `adios.metrics/3` document (deterministic bytes).
    pub metrics: Json,
    /// The service-level trace (replayable through the oracle).
    pub trace: Trace,
    /// The trace's rolling digest.
    pub trace_digest: u64,
    /// Jobs that arrived inside the window.
    pub arrivals: u64,
    /// Jobs that ran to completion (all of them, open-loop).
    pub completed: u64,
    /// Last job completion instant.
    pub makespan: SimDuration,
    /// Mean job sojourn time, seconds.
    pub mean_latency_s: f64,
    /// Median job sojourn time, seconds.
    pub p50_latency_s: f64,
    /// 99th-percentile job sojourn time, seconds.
    pub p99_latency_s: f64,
    /// Completed jobs per minute of makespan.
    pub throughput_jpm: f64,
    /// Busy map-slot fraction over the makespan.
    pub map_slot_util: f64,
    /// Busy reduce-slot fraction over the makespan.
    pub reduce_slot_util: f64,
    /// Pair switches the policy triggered.
    pub switches: u32,
    /// Policy consultations.
    pub retunes: u32,
}

// ---------------------------------------------------------------------
// The service simulation
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SEv {
    /// `arrivals[i]` entered the service. Read from the arrival cursor,
    /// never pushed to the queue.
    Arrive(usize),
    /// A task finished.
    TaskDone { job: u64, task: TaskId, gvm: u32, map: bool },
    /// Consult the policy.
    Retune,
}

struct ActiveJob {
    tenant: usize,
    tracker: JobTracker,
    /// Maps the tracker already popped (slot-refill hints) but the
    /// ledger could not yet place.
    ready_maps: VecDeque<mrsim::Assignment>,
    /// Next reduce index to consider starting.
    next_reduce: u32,
    arrived: SimTime,
    total_bytes: u64,
}

impl ActiveJob {
    /// Acquire a slot for this job's next task and hand the task out,
    /// or `None` when none of its tasks can start on a free slot. The
    /// order: the oldest refill hint, then a local map on the lowest VM
    /// with a free map slot, then the next reduce once every map is
    /// done (service model: shuffle is folded into the reduce span).
    fn next_start(&mut self, ledger: &mut SlotLedger) -> Option<mrsim::Assignment> {
        if let Some(a) = self.ready_maps.front() {
            if ledger.try_acquire(a.gvm, true) {
                return self.ready_maps.pop_front();
            }
        }
        if self.tracker.pending_map_count() > 0 {
            for gvm in 0..ledger.vms() {
                if ledger.free(gvm, true) > 0 {
                    if let Some(a) = self.tracker.pop_local_map(gvm) {
                        ledger.try_acquire(gvm, true);
                        return Some(a);
                    }
                }
            }
        }
        if self.tracker.t_maps_done.is_some() && self.next_reduce < self.tracker.num_reduces() {
            let home = self.tracker.reduce_home(self.next_reduce);
            if ledger.try_acquire(home, false) {
                self.next_reduce += 1;
                let a = self.tracker.next_reduce().expect("reduce available");
                debug_assert_eq!(a.gvm, home);
                return Some(a);
            }
        }
        None
    }
}

/// I/O charged to one job: a read per finished map, a write per
/// finished reduce.
#[derive(Debug, Clone, Copy, Default)]
struct JobIo {
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
}

/// Export every charged job's counters into the `jobs_io` section of
/// `reg` (`job{N}_reads`, `job{N}_writes`, `job{N}_read_bytes`,
/// `job{N}_write_bytes`), ascending by id. `io` is indexed by job id.
fn export_job_io(io: &[JobIo], reg: &mut MetricsRegistry) {
    let mut name = String::new();
    for (j, io) in io.iter().enumerate().filter(|(_, io)| io.reads + io.writes > 0) {
        for (field, v) in [
            ("reads", io.reads),
            ("writes", io.writes),
            ("read_bytes", io.read_bytes),
            ("write_bytes", io.write_bytes),
        ] {
            name.clear();
            write!(name, "job{j}_{field}").expect("writing to a String cannot fail");
            reg.inc("jobs_io", &name, v);
        }
    }
}

/// Run the multi-job service to completion: every arrival inside
/// `params.duration` is admitted (FIFO beyond the concurrency cap),
/// scheduled round-robin onto the shared slot ledger, and timed with
/// `profiles` under the pair the `policy` keeps installed.
pub fn run_service(
    params: &ServiceParams,
    mix: &TenantMix,
    profiles: &[TenantProfile],
    arrivals_spec: &ArrivalSpec,
    policy: &mut dyn ServicePolicy,
) -> ServiceOutcome {
    assert_eq!(
        profiles.len(),
        mix.tenants.len(),
        "one calibration profile per tenant"
    );
    for p in profiles {
        p.validate().expect("invalid tenant profile");
    }
    let pairs = SchedPair::all();
    let arrivals = arrivals_spec.generate(mix, params.duration, params.seed);
    let shape = params.shape;
    let total_vms = shape.total_vms();

    let mut queue: EventQueue<SEv> = EventQueue::new();
    // The sorted arrivals are read through this cursor, not parked in
    // the queue: `arrivals[next_arrival..]` have not arrived yet.
    let mut next_arrival = 0usize;
    if !arrivals.is_empty() {
        queue.push(SimTime::ZERO + params.retune_period, SEv::Retune);
    }

    // Unbounded: the oracle replays the whole history after the run.
    let mut trace = Trace::unbounded();
    let mut ledger = SlotLedger::new(&shape);
    let mut active: BTreeMap<u64, ActiveJob> = BTreeMap::new();
    let mut admit_queue: VecDeque<u64> = VecDeque::new();
    // Job ids are the dense arrival indices.
    let mut job_io = vec![JobIo::default(); arrivals.len()];
    let mut latencies = SampleSet::new();
    let mut per_tenant_done: Vec<(u64, f64)> = vec![(0, 0.0); mix.tenants.len()];
    let mut per_tenant_arrived: Vec<u64> = vec![0; mix.tenants.len()];
    let mut current = SchedPair::DEFAULT;
    let mut frozen_until = SimTime::ZERO;
    let mut switches = 0u32;
    let mut retunes = 0u32;
    let mut switch_log: Vec<(SimTime, SchedPair)> = Vec::new();
    let mut map_busy_ns = 0u64;
    let mut reduce_busy_ns = 0u64;
    let mut completed = 0u64;
    let mut last_completion = SimTime::ZERO;

    let pair_idx =
        |p: SchedPair| pairs.iter().position(|&q| q == p).expect("known pair");

    // One task's calibrated duration alone on the cluster, as
    // `[map, reduce]` per tenant and pair index. A task started while
    // `n` jobs are in the system takes this times the contention
    // slowdown for the `n - 1` others.
    let base_duration: Vec<Vec<[SimDuration; 2]>> = mix
        .tenants
        .iter()
        .zip(profiles)
        .map(|(tn, prof)| {
            // Ph1 covers all map waves at full cluster width; one
            // task's share is slots/maps of it — capped at the whole
            // phase when the maps fit in a single wave.
            let num_maps = tn.job.num_blocks(&shape).max(1);
            let map_share = (shape.total_map_slots() as f64 / num_maps as f64).min(1.0);
            // A reducer spans shuffle and reduce; reducers run one wave.
            prof.phase.iter().map(|ph| [ph[0].mul_f64(map_share), ph[1] + ph[2]]).collect()
        })
        .collect();
    let mut current_idx = pair_idx(current);

    let mut batch: Vec<SEv> = Vec::with_capacity(16);
    loop {
        batch.clear();
        // One batch per instant: its arrivals first, then its queued
        // events, so a retune tick sees the jobs that arrive with it
        // (`tests/multijob_goldens.rs` pins this order).
        let next_at = arrivals.get(next_arrival).map(|&(t, _)| t);
        let now = match (next_at, queue.peek_time()) {
            (None, None) => break,
            (Some(t), queued) if queued.is_none_or(|q| t <= q) => {
                while arrivals.get(next_arrival).is_some_and(|&(at, _)| at == t) {
                    batch.push(SEv::Arrive(next_arrival));
                    next_arrival += 1;
                }
                if queued == Some(t) {
                    queue.pop_batch(&mut batch);
                } else {
                    queue.advance_to(t);
                }
                t
            }
            _ => queue.pop_batch(&mut batch).expect("peeked an event"),
        };
        let _prof = simcore::prof::span_hot("jobs.event");
        let evs = std::mem::take(&mut batch);
        for ev in &evs {
            match *ev {
                SEv::Arrive(i) => {
                    let (at, tenant) = arrivals[i];
                    debug_assert_eq!(at, now);
                    let job_id = i as u64;
                    let job = &mix.tenants[tenant].job;
                    let total_bytes =
                        job.num_blocks(&shape) as u64 * job.block_bytes;
                    per_tenant_arrived[tenant] += 1;
                    trace.push(now, TraceEvent::JobArrive { job: job_id, bytes: total_bytes });
                    if active.len() < params.max_concurrent as usize {
                        admit(job_id, tenant, now, now, &shape, mix, &mut active, &mut trace);
                    } else {
                        admit_queue.push_back(job_id);
                    }
                }
                SEv::TaskDone { job, task, gvm, map } => {
                    ledger.release(gvm, map);
                    let aj = active.get_mut(&job).expect("task of inactive job");
                    let tenant = aj.tenant;
                    let jspec = &mix.tenants[tenant].job;
                    let release_bytes = if map { jspec.block_bytes } else { 0 };
                    trace.push(
                        now,
                        TraceEvent::SlotRelease { job, gvm, map, bytes: release_bytes },
                    );
                    let io = &mut job_io[job as usize];
                    if map {
                        io.reads += 1;
                        io.read_bytes += jspec.block_bytes;
                        let (next, _events) = aj.tracker.on_map_done(task, now);
                        if let Some(a) = next {
                            aj.ready_maps.push_back(a);
                        }
                    } else {
                        // Reduce write volume: this reducer's share of
                        // the job's map output.
                        let out_bytes = (aj.total_bytes as f64
                            * jspec.workload.map_output_ratio
                            / jspec.num_reduces(&shape).max(1) as f64)
                            as u64;
                        io.writes += 1;
                        io.write_bytes += out_bytes;
                        aj.tracker.on_reduce_done(task, now);
                        if aj.tracker.finished() {
                            let aj = active.remove(&job).expect("finishing job");
                            trace.push(now, TraceEvent::JobComplete { job });
                            let sojourn = now.saturating_since(aj.arrived);
                            latencies.record(sojourn.as_secs_f64());
                            let (n, sum) = per_tenant_done[tenant];
                            per_tenant_done[tenant] =
                                (n + 1, sum + sojourn.as_secs_f64());
                            completed += 1;
                            last_completion = now;
                            // A slot's worth of room: admit the next
                            // queued job.
                            if let Some(next_id) = admit_queue.pop_front() {
                                let (arrived, tn) = arrivals[next_id as usize];
                                admit(
                                    next_id, tn, arrived, now, &shape, mix, &mut active,
                                    &mut trace,
                                );
                            }
                        }
                    }
                }
                SEv::Retune => {
                    retunes += 1;
                    let mix_vec = phase_mix(mix, &active);
                    let want = policy.choose(&mix_vec, current);
                    if want != current {
                        current = want;
                        current_idx = pair_idx(want);
                        switches += 1;
                        frozen_until = now + params.switch_cost;
                        switch_log.push((now, want));
                    }
                    // Keep ticking while anything can still happen.
                    if !active.is_empty() || !queue.is_empty() || next_arrival < arrivals.len() {
                        queue.push(now + params.retune_period, SEv::Retune);
                    }
                }
            }
        }
        batch = evs;

        // Round-robin dispatch: one task per active job per round, in
        // job-id order, until a round starts nothing. Nothing admits or
        // retires a job here, so the rounds walk `active` in place.
        let n_active = active.len() + admit_queue.len();
        let contention =
            1.0 + params.contention_penalty * (n_active.saturating_sub(1)) as f64;
        loop {
            let mut progress = false;
            for (&id, aj) in active.iter_mut() {
                let Some(a) = aj.next_start(&mut ledger) else { continue };
                let map = a.kind == TaskKind::Map;
                start_task(
                    &mut queue, &mut trace, id, &a, map, now, frozen_until,
                    base_duration[aj.tenant][current_idx][usize::from(!map)].mul_f64(contention),
                    if map { &mut map_busy_ns } else { &mut reduce_busy_ns },
                );
                progress = true;
            }
            if !progress {
                break;
            }
        }
    }

    assert!(active.is_empty() && admit_queue.is_empty(), "service drained early");

    let makespan = last_completion.saturating_since(SimTime::ZERO);
    let makespan_s = makespan.as_secs_f64();
    let arrivals_n = arrivals.len() as u64;
    let q = |p: f64| latencies.quantile(p).unwrap_or(0.0);
    let mean_latency_s = latencies.mean().unwrap_or(0.0);
    let throughput_jpm = if makespan_s > 0.0 {
        completed as f64 * 60.0 / makespan_s
    } else {
        0.0
    };
    let slot_util = |busy_ns: u64, cap: u32| {
        if makespan_s > 0.0 && cap > 0 {
            (busy_ns as f64 / 1e9) / (cap as f64 * makespan_s)
        } else {
            0.0
        }
    };
    let map_slot_util = slot_util(map_busy_ns, shape.total_map_slots());
    let reduce_slot_util = slot_util(reduce_busy_ns, shape.total_reduce_slots());

    // ---- adios.metrics/3 document -----------------------------------
    let mut reg = MetricsRegistry::new();
    reg.set_gauge("service", "duration_s", params.duration.as_secs_f64());
    reg.set_gauge("service", "makespan_s", makespan_s);
    reg.inc("service", "arrivals", arrivals_n);
    reg.inc("service", "completed", completed);
    reg.set_gauge("service", "nodes", shape.nodes as f64);
    reg.set_gauge("service", "vms", total_vms as f64);
    reg.set_gauge("service", "tenants", mix.tenants.len() as f64);
    reg.set_gauge("service", "throughput_jpm", throughput_jpm);
    for x in latencies.samples() {
        reg.sample("latency", "job_latency_s", *x);
    }
    reg.set_gauge("latency", "mean_s", mean_latency_s);
    reg.set_gauge("latency", "p50_s", q(0.5));
    reg.set_gauge("latency", "p95_s", q(0.95));
    reg.set_gauge("latency", "p99_s", q(0.99));
    reg.set_gauge("slots", "map_busy_s", map_busy_ns as f64 / 1e9);
    reg.set_gauge("slots", "reduce_busy_s", reduce_busy_ns as f64 / 1e9);
    reg.set_gauge("slots", "map_util", map_slot_util);
    reg.set_gauge("slots", "reduce_util", reduce_slot_util);
    for (i, tn) in mix.tenants.iter().enumerate() {
        reg.inc("tenants", &format!("{}_arrivals", tn.name), per_tenant_arrived[i]);
        let (n, sum) = per_tenant_done[i];
        reg.inc("tenants", &format!("{}_completed", tn.name), n);
        reg.set_gauge(
            "tenants",
            &format!("{}_mean_latency_s", tn.name),
            if n > 0 { sum / n as f64 } else { 0.0 },
        );
    }
    reg.inc("policy", "retunes", retunes as u64);
    reg.inc("policy", "switches", switches as u64);
    let mut name = String::new();
    for (i, (t, p)) in switch_log.iter().enumerate() {
        for (field, v) in [("t_s", t.as_secs_f64()), ("pair_idx", pair_idx(*p) as f64)] {
            name.clear();
            write!(name, "switch{i}_{field}").expect("writing to a String cannot fail");
            reg.set_gauge("policy", &name, v);
        }
    }
    export_job_io(&job_io, &mut reg);
    reg.inc("trace", "records", trace.total());
    reg.inc("trace", "dropped", trace.dropped());
    let mut doc = Json::obj()
        .field("schema", "adios.metrics/3")
        .field("kind", "service")
        .field("policy", policy.name());
    if let (Json::Obj(dst), Json::Obj(src)) = (&mut doc, reg.into_json()) {
        dst.extend(src);
    }

    let trace_digest = trace.digest();
    ServiceOutcome {
        metrics: doc,
        trace,
        trace_digest,
        arrivals: arrivals_n,
        completed,
        makespan,
        mean_latency_s,
        p50_latency_s: q(0.5),
        p99_latency_s: q(0.99),
        throughput_jpm,
        map_slot_util,
        reduce_slot_util,
        switches,
        retunes,
    }
}

/// Admit one job: build its tracker and record the admission. Task ids
/// repeat across jobs; each only ever goes back to its own job's
/// tracker.
#[allow(clippy::too_many_arguments)]
fn admit(
    job_id: u64,
    tenant: usize,
    arrived: SimTime,
    now: SimTime,
    shape: &ClusterShape,
    mix: &TenantMix,
    active: &mut BTreeMap<u64, ActiveJob>,
    trace: &mut Trace,
) {
    let job = &mix.tenants[tenant].job;
    let tracker = JobTracker::new(job, shape);
    let total_bytes = job.num_blocks(shape) as u64 * job.block_bytes;
    trace.push(now, TraceEvent::JobAdmit { job: job_id });
    active.insert(
        job_id,
        ActiveJob {
            tenant,
            tracker,
            ready_maps: VecDeque::new(),
            next_reduce: 0,
            arrived,
            total_bytes,
        },
    );
}

/// Start one task: acquire already done by the caller; push the trace
/// event and the completion.
#[allow(clippy::too_many_arguments)]
fn start_task(
    queue: &mut EventQueue<SEv>,
    trace: &mut Trace,
    job: u64,
    a: &mrsim::Assignment,
    map: bool,
    now: SimTime,
    frozen_until: SimTime,
    dur: SimDuration,
    busy_ns: &mut u64,
) {
    debug_assert_eq!(map, a.kind == TaskKind::Map);
    trace.push(now, TraceEvent::SlotAcquire { job, gvm: a.gvm, map });
    // Tasks launched during a switch stall start when the stall lifts.
    let begin = if now < frozen_until { frozen_until } else { now };
    let end = begin + dur;
    *busy_ns += end.saturating_since(now).as_nanos();
    queue.push(end, SEv::TaskDone { job, task: a.task, gvm: a.gvm, map });
}

/// The live phase mix over `active`, tenant-resolved.
fn phase_mix(mix: &TenantMix, active: &BTreeMap<u64, ActiveJob>) -> PhaseMix {
    let mut per_tenant = vec![[0.0f64; 3]; mix.tenants.len()];
    for aj in active.values() {
        if aj.tracker.t_maps_done.is_none() {
            per_tenant[aj.tenant][0] += 1.0;
        } else {
            // Shuffle and reduce overlap in the service model: split
            // the job's weight across the two tail phases.
            per_tenant[aj.tenant][1] += 0.5;
            per_tenant[aj.tenant][2] += 0.5;
        }
    }
    PhaseMix { per_tenant }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{OracleConfig, TraceOracle};

    fn small_mix() -> TenantMix {
        TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", 64 * 1024 * 1024).unwrap()
    }

    /// Synthetic calibration: pair 0 fast for maps / slow for tails,
    /// pair 15 the reverse, everything else in between — rankings that
    /// cross by phase, like the paper's Table I.
    fn synthetic_profiles(tenants: usize) -> Vec<TenantProfile> {
        let n = SchedPair::all().len();
        (0..tenants)
            .map(|t| TenantProfile {
                phase: (0..n)
                    .map(|i| {
                        let k = i as u64 as f64;
                        let ph1 = 20.0 + k * 1.5 + t as f64;
                        let ph23 = 50.0 - k * 2.0 + t as f64;
                        [
                            SimDuration::from_secs_f64(ph1),
                            SimDuration::from_secs_f64(ph23 * 0.4),
                            SimDuration::from_secs_f64(ph23 * 0.6),
                        ]
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn tenant_mix_parsing() {
        let m = small_mix();
        assert_eq!(m.tenants.len(), 3);
        assert_eq!(m.tenants[0].name, "sort");
        assert_eq!(m.tenants[0].weight, 2);
        assert_eq!(m.total_weight(), 4);
        assert!(TenantMix::parse("", 1).is_err());
        assert!(TenantMix::parse("nosuch:1", 1).is_err());
        assert!(TenantMix::parse("sort:0", 1).is_err());
    }

    /// Satellite property: the Poisson stream is a pure function of the
    /// seed, and different seeds diverge.
    #[test]
    fn poisson_stream_deterministic_per_seed() {
        let d = SimDuration::from_secs(3600);
        let a = poisson_arrivals(10.0, d, 7);
        let b = poisson_arrivals(10.0, d, 7);
        let c = poisson_arrivals(10.0, d, 8);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must give byte-equal streams");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
    }

    /// Satellite property: the empirical mean rate converges within 5%
    /// over 10k arrivals.
    #[test]
    fn poisson_mean_rate_converges() {
        let rate = 30.0; // jobs/min → 0.5/s
        // Horizon sized for ~12k arrivals.
        let d = SimDuration::from_secs(24_000);
        let a = poisson_arrivals(rate, d, 1234);
        assert!(a.len() > 10_000, "want >10k arrivals, got {}", a.len());
        let empirical = a.len() as f64 / d.as_secs_f64() * 60.0;
        let err = (empirical - rate).abs() / rate;
        assert!(err < 0.05, "empirical rate {empirical:.2}/min vs {rate} (err {err:.3})");
    }

    /// Weighted tenant choice respects the mix and is deterministic.
    #[test]
    fn arrival_generation_follows_weights() {
        let mix = small_mix();
        let spec = ArrivalSpec::Poisson { rate_per_min: 60.0 };
        let d = SimDuration::from_secs(20_000);
        let a = spec.generate(&mix, d, 99);
        let b = spec.generate(&mix, d, 99);
        assert_eq!(a, b);
        let mut counts = [0usize; 3];
        for &(_, t) in &a {
            counts[t] += 1;
        }
        // sort has weight 2 of 4: ~half the arrivals.
        let frac = counts[0] as f64 / a.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "sort fraction {frac}");
    }

    #[test]
    fn trace_file_roundtrip() {
        let mix = small_mix();
        let doc = Json::parse(
            r#"{"schema":"adios.jobs/1","arrivals":[
                {"t_s":5.0,"tenant":"wordcount"},
                {"t_s":1.0,"tenant":"sort"}]}"#,
        )
        .unwrap();
        let spec = ArrivalSpec::parse_trace(&doc, &mix).unwrap();
        let a = spec.generate(&mix, SimDuration::from_secs(10), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], (SimTime::ZERO + SimDuration::from_secs(1), 0));
        assert_eq!(a[1], (SimTime::ZERO + SimDuration::from_secs(5), 1));
        // Unknown tenants and bad schemas are rejected.
        let bad = Json::parse(
            r#"{"schema":"adios.jobs/1","arrivals":[{"t_s":1.0,"tenant":"nope"}]}"#,
        )
        .unwrap();
        assert!(ArrivalSpec::parse_trace(&bad, &mix).is_err());
        let wrong = Json::parse(r#"{"schema":"adios.jobs/2","arrivals":[]}"#).unwrap();
        assert!(ArrivalSpec::parse_trace(&wrong, &mix).is_err());
    }

    /// Satellite property: under randomized acquire/release sequences
    /// the ledger never exceeds capacity and never goes negative.
    #[test]
    fn slot_ledger_never_oversubscribes_under_random_traffic() {
        let shape = ClusterShape::default();
        let mut ledger = SlotLedger::new(&shape);
        let mut rng = SimRng::from_seed(2024).split("ledger.test");
        let mut held: Vec<(u32, bool)> = Vec::new();
        for _ in 0..20_000 {
            let gvm = rng.range_u64(0, shape.total_vms() as u64) as u32;
            let map = rng.range_u64(0, 2) == 0;
            if rng.range_u64(0, 3) < 2 {
                if ledger.try_acquire(gvm, map) {
                    held.push((gvm, map));
                }
            } else if !held.is_empty() {
                let i = rng.range_u64(0, held.len() as u64) as usize;
                let (g, m) = held.swap_remove(i);
                ledger.release(g, m);
            }
            for g in 0..shape.total_vms() {
                let cap = ledger.free(g, true) > shape.map_slots_per_vm;
                assert!(!cap, "map free exceeded capacity on vm {g}");
                assert!(
                    ledger.free(g, false) <= shape.reduce_slots_per_vm,
                    "reduce free exceeded capacity on vm {g}"
                );
            }
            let used: u32 = held.iter().filter(|&&(_, m)| m).count() as u32;
            assert_eq!(ledger.in_use(true), used, "ledger disagrees with shadow");
        }
        // Saturate one VM: the next acquire must refuse.
        let mut l2 = SlotLedger::new(&shape);
        for _ in 0..shape.map_slots_per_vm {
            assert!(l2.try_acquire(0, true));
        }
        assert!(!l2.try_acquire(0, true), "acquire beyond capacity must fail");
    }

    /// End-to-end service smoke: a 3-tenant Poisson stream completes,
    /// the trace is oracle-clean under the real slot capacities, and
    /// the metrics doc carries the bumped schema.
    #[test]
    fn service_run_completes_and_is_oracle_clean() {
        let mut params = ServiceParams::default();
        params.shape.nodes = 2;
        params.shape.vms_per_node = 2;
        params.duration = SimDuration::from_secs(120);
        params.seed = 7;
        let mix = small_mix();
        let profiles = synthetic_profiles(mix.tenants.len());
        let spec = ArrivalSpec::Poisson { rate_per_min: 6.0 };
        let mut policy = FixedPolicy(SchedPair::DEFAULT);
        let out = run_service(&params, &mix, &profiles, &spec, &mut policy);
        assert!(out.arrivals > 0, "window should see arrivals");
        assert_eq!(out.arrivals, out.completed, "open-loop: every job completes");
        assert!(out.makespan.as_secs_f64() > 0.0);
        assert!(out.p50_latency_s > 0.0 && out.p99_latency_s >= out.p50_latency_s);
        assert_eq!(
            out.metrics.get("schema").and_then(|s| s.as_str()),
            Some("adios.metrics/3")
        );
        let mut oracle = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(params.shape.map_slots_per_vm),
            reduce_slots_per_vm: Some(params.shape.reduce_slots_per_vm),
            ..OracleConfig::default()
        });
        oracle.replay(&out.trace);
        oracle.assert_clean();
    }

    /// The whole service run is a pure function of its inputs: byte-
    /// equal metrics and equal digests across repeated runs.
    #[test]
    fn service_run_is_deterministic() {
        let mut params = ServiceParams::default();
        params.shape.nodes = 2;
        params.shape.vms_per_node = 2;
        params.duration = SimDuration::from_secs(90);
        let mix = small_mix();
        let profiles = synthetic_profiles(mix.tenants.len());
        let spec = ArrivalSpec::Poisson { rate_per_min: 8.0 };
        let a = run_service(&params, &mix, &profiles, &spec, &mut FixedPolicy(SchedPair::DEFAULT));
        let b = run_service(&params, &mix, &profiles, &spec, &mut FixedPolicy(SchedPair::DEFAULT));
        assert_eq!(a.trace_digest, b.trace_digest);
        assert_eq!(a.metrics.to_string(), b.metrics.to_string());
    }

    /// A job waiting in the admission FIFO counts toward the running
    /// jobs' contention: with one job admitted and one queued, the
    /// running job's next map takes `1 + contention_penalty` times its
    /// calibrated time.
    #[test]
    fn queued_jobs_count_toward_contention() {
        let params = ServiceParams {
            shape: ClusterShape {
                nodes: 2,
                vms_per_node: 1,
                map_slots_per_vm: 1,
                reduce_slots_per_vm: 1,
            },
            max_concurrent: 1,
            contention_penalty: 0.25,
            ..ServiceParams::default()
        };
        let mix = TenantMix::parse("sort:1", 256 << 20).unwrap();
        let profiles = synthetic_profiles(1);
        // Job 0's map durations on VM 0 (one map slot), in start order.
        let map_durations = |arrivals: Vec<(SimTime, usize)>| -> Vec<SimDuration> {
            let spec = ArrivalSpec::Trace(arrivals);
            let mut policy = FixedPolicy(SchedPair::DEFAULT);
            let out = run_service(&params, &mix, &profiles, &spec, &mut policy);
            let mut started = None;
            let mut durations = Vec::new();
            for r in out.trace.records() {
                match r.ev {
                    TraceEvent::SlotAcquire { job: 0, gvm: 0, map: true } => started = Some(r.t),
                    TraceEvent::SlotRelease { job: 0, gvm: 0, map: true, .. } => {
                        durations.push(r.t.saturating_since(started.take().unwrap()));
                    }
                    _ => {}
                }
            }
            durations
        };
        let solo = map_durations(vec![(SimTime::ZERO, 0)]);
        assert!(solo.len() >= 2, "job 0 needs two map waves on VM 0");
        assert_eq!(solo[1], solo[0], "alone, every map takes its calibrated time");
        let queued = map_durations(vec![(SimTime::ZERO, 0), (SimTime::from_secs(1), 0)]);
        assert_eq!(queued[0], solo[0], "the first map started before job 1 arrived");
        assert_eq!(queued[1], solo[0].mul_f64(1.25), "job 1 waits in the FIFO yet slows job 0");
    }

    /// Admission cap: with max_concurrent 1 the service still drains
    /// every arrival, one at a time, and stays oracle-clean.
    #[test]
    fn admission_queue_drains_under_tight_cap() {
        let mut params = ServiceParams::default();
        params.shape.nodes = 2;
        params.shape.vms_per_node = 2;
        params.duration = SimDuration::from_secs(60);
        params.max_concurrent = 1;
        let mix = small_mix();
        let profiles = synthetic_profiles(mix.tenants.len());
        let spec = ArrivalSpec::Poisson { rate_per_min: 10.0 };
        let out = run_service(&params, &mix, &profiles, &spec, &mut FixedPolicy(SchedPair::DEFAULT));
        assert_eq!(out.arrivals, out.completed);
        let mut oracle = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(params.shape.map_slots_per_vm),
            reduce_slots_per_vm: Some(params.shape.reduce_slots_per_vm),
            ..OracleConfig::default()
        });
        oracle.replay(&out.trace);
        oracle.assert_clean();
    }
}
