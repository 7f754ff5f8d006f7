//! The virtualized block path of one physical node.
//!
//! ```text
//!  VM task ──submit──▶ guest elevator ──ring (depth N)──▶ Dom0 elevator ──▶ disk
//!            (stream = task id)            (blkfront/blkback)  (stream = VM id)
//! ```
//!
//! Each guest runs its own elevator over its tasks' requests; dispatched
//! guest requests enter a bounded ring (the Xen blkfront/blkback path)
//! and become Dom0-level requests whose *stream is the VM id* — the
//! hypervisor sees every VM as a single process, exactly the aggregation
//! the paper describes. The Dom0 elevator feeds the physical disk, one
//! request at a time. Guest LBAs are offset into a per-VM contiguous
//! extent of the physical disk (file-backed VM images), so guest-
//! sequential access is host-sequential *within* a VM but interleaving
//! across VMs costs seeks — the mechanism behind the consolidation
//! slowdowns of the paper's Fig. 1.
//!
//! The stack is a pure state machine: callers inject events and receive
//! action lists; the event loop lives in `vcluster`.
//!
//! Dom0 and every guest are one `Level` type: an elevator plus its
//! kick timer, switch state, re-init stall, counters, throughput meter
//! and drain clock. Entering an elevator, recording a dispatch or an
//! idle window, arming a kick, finishing a drain and thawing after a
//! swap are each written once, over a level index.

use crate::switching::{SwitchState, SwitchTiming};
use crate::telemetry::NodeTelemetry;
use blkdev::{Disk, DiskParams};
use iosched::{
    build_elevator, AddOutcome, AnyElevator, Dispatch, Dir, Elevator, IoRequest, QueuedRq,
    RequestId, RunStep, SchedKind, SchedPair, SegRun, Tunables,
};
use simcore::trace::{Layer, Trace, TraceEvent};
use simcore::{
    FxHashMap, MetricsRegistry, OnlineStats, SampleSet, SimDuration, SimTime, Telemetry,
    ThroughputMeter, Timer, TimerTicket,
};
use std::collections::VecDeque;

/// Identifier of a VM on this node.
pub type VmId = u32;

/// Events the node stack schedules for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackEvent {
    /// Re-poll one level's elevator (idle window or re-init stall
    /// expired).
    Kick {
        /// Which level: Dom0 (`Layer::Host`) or one guest.
        layer: Layer,
        /// Arming ticket (stale tickets are ignored).
        ticket: TimerTicket,
    },
    /// The in-service physical disk request finished.
    DiskDone,
}

/// Actions the stack asks its driver to perform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackAction {
    /// Schedule `event` at `at`.
    At(SimTime, StackEvent),
    /// A guest-submitted request fully completed.
    IoDone {
        /// VM that submitted it.
        vm: VmId,
        /// The id the submitter attached.
        req: RequestId,
        /// Bytes transferred.
        bytes: u64,
    },
    /// A previously requested elevator switch fully took effect at
    /// every level it touched.
    SwitchComplete {
        /// The pair now installed.
        pair: SchedPair,
    },
}

/// Static configuration of a node stack.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeParams {
    /// Physical disk model parameters.
    pub disk: DiskParams,
    /// Elevator tunables (shared by both levels).
    pub tunables: Tunables,
    /// Ring depth: in-flight request slots per VM (Xen blkfront has 32
    /// ring slots).
    pub ring_depth: usize,
    /// Maximum sectors per ring slot. A blkfront request carries at
    /// most 11 4-KiB segments = 88 sectors (44 KiB); larger guest
    /// requests are split across slots, and the Dom0 elevator re-merges
    /// them — or not, which is precisely why noop collapses at the VMM
    /// level.
    pub ring_seg_sectors: u64,
    /// Per-VM virtual disk extent, in sectors.
    pub vm_extent_sectors: u64,
    /// Switch timing model (drain + re-init stalls).
    pub switch: SwitchTiming,
    /// Throughput meter window (paper Fig. 3 uses ~1 s samples).
    pub meter_window: SimDuration,
    /// Trace ring capacity per node (0 disables tracing entirely;
    /// `usize::MAX` never drops, which the replay oracle requires).
    pub trace_capacity: usize,
    /// Instrumentation level: `Off` skips even the per-level counters,
    /// `Counters` (the default) keeps the flat counters, `Full` adds
    /// the latency/seek/run histograms and sim-time series.
    pub telemetry: Telemetry,
}

impl Default for NodeParams {
    fn default() -> Self {
        NodeParams {
            disk: DiskParams::default(),
            tunables: Tunables::default(),
            ring_depth: 32,
            ring_seg_sectors: 88,
            // 40 GiB per VM image by default.
            vm_extent_sectors: 40 * 1024 * 1024 * 2,
            switch: SwitchTiming::default(),
            meter_window: SimDuration::from_secs(1),
            trace_capacity: 0,
            telemetry: Telemetry::Counters,
        }
    }
}

/// Cumulative per-elevator instrumentation, kept for the Dom0 level
/// and each guest level. Everything here is derived from the same
/// points the trace records, so metrics stay available even when the
/// trace ring itself is disabled (`trace_capacity == 0`).
#[derive(Debug, Clone, Default)]
pub struct LevelCounters {
    /// Requests that entered the elevator as fresh queue entries or
    /// merges (one per submitted request).
    pub arrivals: u64,
    /// Arrivals absorbed onto the tail of a queued extent.
    pub merges_back: u64,
    /// Arrivals absorbed onto the head of a queued extent.
    pub merges_front: u64,
    /// Requests handed downwards (post-merge units).
    pub dispatches: u64,
    /// Sectors handed downwards.
    pub dispatched_sectors: u64,
    /// Originally submitted requests completed at this level.
    pub completions: u64,
    /// Idle decisions (anticipation / slice idling) instead of a
    /// dispatch; repeated polls during one window each count.
    pub idles: u64,
    /// Completed hot switches of this elevator.
    pub switches: u64,
    /// Queue depth observed after each arrival.
    pub queue_depth: OnlineStats,
    /// Length of each armed idle window, seconds.
    pub idle_wait: OnlineStats,
    /// Measured drain duration of each switch (begin → swap), seconds.
    pub drain_durations: SampleSet,
    /// Total post-swap re-init stall, seconds.
    pub freeze_secs: f64,
}

impl LevelCounters {
    /// Fold this level into a metrics section (`inc`/`merge` semantics,
    /// so multiple levels and nodes accumulate deterministically).
    pub fn export(&self, reg: &mut MetricsRegistry, section: &str) {
        reg.inc(section, "arrivals", self.arrivals);
        reg.inc(section, "merges_back", self.merges_back);
        reg.inc(section, "merges_front", self.merges_front);
        reg.inc(section, "dispatches", self.dispatches);
        reg.inc(section, "dispatched_sectors", self.dispatched_sectors);
        reg.inc(section, "completions", self.completions);
        reg.inc(section, "idles", self.idles);
        reg.inc(section, "switches", self.switches);
        reg.merge_stats(section, "queue_depth", &self.queue_depth);
        reg.merge_stats(section, "idle_wait_s", &self.idle_wait);
        reg.extend_samples(section, "drain_s", &self.drain_durations);
        reg.add_gauge(section, "freeze_s", self.freeze_secs);
    }
}

/// One elevator level of the stack: Dom0 or one guest. Either level
/// switches the same way (quiesce, drain, swap, re-init stall), so
/// everything a switch touches lives here.
#[derive(Clone)]
struct Level {
    /// Trace identity: `Layer::Host` for Dom0, `Layer::Guest(vm)`.
    layer: Layer,
    elevator: AnyElevator,
    /// Re-polls the elevator after an idle window or the re-init stall.
    timer: Timer,
    switch: SwitchState,
    /// Stall after this level's elevator swap.
    reinit: SimDuration,
    counters: LevelCounters,
    /// Completions at this level: disk requests for Dom0, guest
    /// requests for a guest.
    meter: ThroughputMeter,
    /// When the in-progress switch began draining (for drain metrics).
    drain_began: Option<SimTime>,
}

impl Level {
    /// The level `layer`, running its half of `pair`.
    fn new(layer: Layer, pair: SchedPair, params: &NodeParams) -> Level {
        let (kind, reinit) = match layer {
            Layer::Host => (pair.host, params.switch.dom0_reinit),
            Layer::Guest(_) => (pair.guest, params.switch.guest_reinit),
        };
        Level {
            layer,
            elevator: build_elevator(kind, &params.tunables),
            timer: Timer::new(),
            switch: SwitchState::new(),
            reinit,
            counters: LevelCounters::default(),
            meter: ThroughputMeter::new(params.meter_window),
            drain_began: None,
        }
    }

    /// Arm this level's kick at `at` unless one is already pending (at
    /// most one live kick per timer keeps the event queue small and
    /// every pending ticket current).
    fn arm_kick(&mut self, at: SimTime, out: &mut Vec<StackAction>) {
        if !self.timer.is_armed() {
            let ticket = self.timer.arm();
            out.push(StackAction::At(at, StackEvent::Kick { layer: self.layer, ticket }));
        }
    }

    /// A request this level dispatched finished: meter its bytes, tell
    /// the elevator and count its parts.
    fn complete(&mut self, now: SimTime, rq: &QueuedRq, counters: bool) {
        self.meter.record(now, rq.bytes());
        self.elevator.completed(rq, now);
        if counters {
            self.counters.completions += rq.parts.len() as u64;
        }
    }
}

/// Index of Dom0 in `NodeStack::levels`.
const DOM0: usize = 0;

/// Index of guest `vm`'s level in `NodeStack::levels`.
fn guest_level(vm: VmId) -> usize {
    vm as usize + 1
}

/// A guest request split across ring slots (a slot of
/// `NodeStack::parents`; `grq` is `None` while the slot is free).
#[derive(Clone)]
struct RingParent {
    vm: VmId,
    /// Segments still in flight.
    remaining: u32,
    grq: Option<QueuedRq>,
}

/// Marks a completed id in `NodeStack::ring`.
const SEG_DONE: u32 = u32::MAX;

/// The ring id window holds at most this many times the hard bound on
/// live segments (`vm_count × ring_bound`): room enough that a segment
/// completes inside the window unless it waits behind several rings'
/// worth of newer ones.
const RING_WINDOW_FACTOR: usize = 4;

/// The two-level block stack of one node.
#[derive(Clone)]
pub struct NodeStack {
    params: NodeParams,
    disk: Disk,
    /// Dom0 at [`DOM0`], then one level per guest in VM order.
    levels: Vec<Level>,
    /// Ring segments in flight, per VM.
    in_ring: Vec<usize>,
    /// Dom0 ids are handed out consecutively, one per ring segment:
    /// `ring[id - ring_base]` is the `parents` slot of segment `id`, or
    /// [`SEG_DONE`] once it completed. Completed ids are popped off the
    /// front, and the window never grows past `ring_window` ids: a
    /// segment still in flight when new ids push it out of the front
    /// moves to `stragglers`.
    ring: VecDeque<u32>,
    ring_base: RequestId,
    /// Cap on `ring.len()`: [`RING_WINDOW_FACTOR`] × the live-segment
    /// bound, so the window stays small however long one segment waits.
    ring_window: usize,
    /// Segments in flight below `ring_base`: id -> `parents` slot.
    stragglers: FxHashMap<RequestId, u32>,
    /// Guest requests with segments in flight (slab; `free_parents`
    /// lists the vacant slots).
    parents: Vec<RingParent>,
    free_parents: Vec<u32>,
    next_dom0_id: RequestId,
    /// Reused by `enter` for the elevators' run steps.
    run_steps: Vec<RunStep>,
    /// Reused by `on_disk_done` for VMs whose ring occupancy changed.
    occ_scratch: Vec<VmId>,
    in_service: Option<QueuedRq>,
    /// Guest requests submitted and not yet completed.
    outstanding: usize,
    pair: SchedPair,
    /// Pending switch target (Some while any level is still draining).
    switching_to: Option<SchedPair>,
    /// Completed-request latency, seconds (submit → IoDone).
    pub latency: simcore::OnlineStats,
    /// Level-gated histograms and time series.
    tel: NodeTelemetry,
    trace: Trace,
    /// Ring occupancy observed after every change, across all VMs.
    ring_occ: OnlineStats,
    ring_peak: u32,
    /// Hard occupancy bound: `ring_depth - 1` slots may be full when
    /// the depth check passes, plus the segments of one more dispatch
    /// (largest merged request). Assumes single submissions never
    /// exceed `max_merge_sectors`, which every in-repo workload honors.
    ring_bound: u32,
}

impl NodeStack {
    /// Build a stack with `vm_count` guests and the given initial pair.
    pub fn new(params: NodeParams, vm_count: u32, pair: SchedPair) -> Self {
        assert!(vm_count > 0, "need at least one VM");
        let needed = params.vm_extent_sectors * vm_count as u64;
        assert!(
            needed <= params.disk.capacity_sectors,
            "VM extents ({needed} sectors) exceed disk capacity"
        );
        let levels: Vec<Level> = std::iter::once(Layer::Host)
            .chain((0..vm_count).map(Layer::Guest))
            .map(|layer| Level::new(layer, pair, &params))
            .collect();
        let seg = params.ring_seg_sectors.max(1);
        let ring_bound = (params.ring_depth.saturating_sub(1)
            + params.tunables.max_merge_sectors.max(seg).div_ceil(seg) as usize)
            as u32;
        let mut trace = Trace::bounded(params.trace_capacity);
        for lv in &levels {
            trace.push(
                SimTime::ZERO,
                TraceEvent::SchedInstall {
                    layer: lv.layer,
                    sched: lv.elevator.kind().code() as u8,
                },
            );
        }
        // Size the ring-path buffers for every VM's ring full of
        // single-segment requests up front, and keep the occupancy
        // scratch at its vm_count bound.
        let ring_cap = vm_count as usize * ring_bound as usize;
        NodeStack {
            disk: Disk::new(params.disk.clone()),
            levels,
            in_ring: vec![0; vm_count as usize],
            ring: VecDeque::with_capacity(ring_cap),
            ring_base: 1,
            ring_window: RING_WINDOW_FACTOR * ring_cap,
            stragglers: FxHashMap::default(),
            parents: Vec::with_capacity(ring_cap),
            free_parents: Vec::with_capacity(ring_cap),
            run_steps: Vec::new(),
            occ_scratch: Vec::with_capacity(vm_count as usize),
            next_dom0_id: 1,
            in_service: None,
            outstanding: 0,
            pair,
            switching_to: None,
            latency: simcore::OnlineStats::new(),
            tel: NodeTelemetry::new(params.telemetry, vm_count),
            trace,
            ring_occ: OnlineStats::new(),
            ring_peak: 0,
            ring_bound,
            params,
        }
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> u32 {
        self.in_ring.len() as u32
    }

    /// The guest levels, in VM order.
    fn guests(&self) -> &[Level] {
        &self.levels[guest_level(0)..]
    }

    /// The currently installed pair (the old one while a switch drains).
    pub fn pair(&self) -> SchedPair {
        self.pair
    }

    /// True while a switch is still draining/stalling.
    pub fn switching(&self) -> bool {
        self.switching_to.is_some()
    }

    /// Guest requests submitted but not yet completed.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// True when no I/O is pending anywhere in the stack.
    pub fn is_idle(&self) -> bool {
        self.outstanding == 0 && self.in_service.is_none() && !self.switching()
    }

    /// Queued requests in the Dom0 elevator (for the online switcher).
    pub fn dom0_queue_len(&self) -> usize {
        self.levels[DOM0].elevator.queued()
    }

    /// Dom0-level throughput meter (physical disk completions).
    pub fn dom0_meter(&self) -> &ThroughputMeter {
        &self.levels[DOM0].meter
    }

    /// Per-VM throughput meter (guest request completions).
    pub fn vm_meter(&self, vm: VmId) -> &ThroughputMeter {
        &self.levels[guest_level(vm)].meter
    }

    /// The physical disk's cumulative statistics.
    pub fn disk_stats(&self) -> &blkdev::DiskStats {
        self.disk.stats()
    }

    /// Close meter windows at end of run.
    pub fn finish_meters(&mut self, now: SimTime) {
        for lv in &mut self.levels {
            lv.meter.finish(now);
        }
    }

    /// The node's trace ring (empty when `trace_capacity == 0`).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The node's level-gated telemetry state.
    pub fn telemetry(&self) -> &NodeTelemetry {
        &self.tel
    }

    /// Announce the job phase (1–3) so guest latency histograms are
    /// recorded per phase. Cheap; callers may set it redundantly.
    pub fn set_phase(&mut self, phase: u8) {
        self.tel.set_phase(phase);
    }

    /// Fold this node's histograms and series into `reg` (`hist` and
    /// `series` sections); no-op below [`Telemetry::Full`]. `vm_base`
    /// is the cluster-global index of this node's VM 0.
    pub fn export_telemetry(&self, reg: &mut MetricsRegistry, vm_base: usize) {
        self.tel.export(reg, vm_base);
    }

    /// Dom0-level instrumentation counters.
    pub fn dom0_counters(&self) -> &LevelCounters {
        &self.levels[DOM0].counters
    }

    /// One guest's instrumentation counters.
    pub fn guest_counters(&self, vm: VmId) -> &LevelCounters {
        &self.levels[guest_level(vm)].counters
    }

    /// The hard ring-occupancy bound the oracle checks against.
    pub fn ring_bound(&self) -> u32 {
        self.ring_bound
    }

    /// Peak observed ring occupancy (segments in flight, any VM).
    pub fn ring_peak(&self) -> u32 {
        self.ring_peak
    }

    /// Fold every per-layer metric of this node into `reg`. Sections
    /// accumulate across nodes: counters add, stats merge, sample sets
    /// extend in node order, so the fold is deterministic.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        let d = self.disk.stats();
        reg.inc("disk", "requests", d.requests);
        reg.inc("disk", "sequential_requests", d.sequential_requests);
        reg.inc("disk", "bytes", d.bytes);
        reg.add_gauge("disk", "seek_s", d.seek_time.as_secs_f64());
        reg.add_gauge("disk", "rotation_s", d.rotation_time.as_secs_f64());
        reg.add_gauge("disk", "transfer_s", d.transfer_time.as_secs_f64());
        reg.add_gauge("disk", "busy_s", d.busy_time.as_secs_f64());
        self.dom0_counters().export(reg, "dom0_elevator");
        for g in self.guests() {
            g.counters.export(reg, "guest_elevator");
        }
        reg.merge_stats("ring", "occupancy", &self.ring_occ);
        reg.observe("ring", "peak", self.ring_peak as f64);
        reg.set_gauge("ring", "bound", self.ring_bound as f64);
        reg.merge_stats("latency", "io_complete_s", &self.latency);
    }

    /// Export this node's throughput meters as a `throughput` section:
    /// Dom0 window samples, per-VM window samples, and Jain fairness
    /// across the VMs' mean throughputs (the paper's Fig. 3 probe
    /// instruments a single node, so callers pick which node).
    pub fn export_throughput(&self, reg: &mut MetricsRegistry) {
        reg.extend_samples("throughput", "dom0_mbps", self.dom0_meter().samples());
        let mut per_vm = SampleSet::new();
        for (v, g) in self.guests().iter().enumerate() {
            reg.extend_samples("throughput", &format!("vm{v}_mbps"), g.meter.samples());
            let xs = g.meter.samples().samples();
            per_vm.record(xs.iter().sum::<f64>() / xs.len().max(1) as f64);
        }
        reg.set_gauge(
            "throughput",
            "vm_fairness_jain",
            per_vm.jain_fairness().unwrap_or(0.0),
        );
    }

    // ------------------------------------------------------------------
    // Per-level steps, each written once for Dom0 and the guests
    // ------------------------------------------------------------------

    /// Route `run` into level `at`'s elevator, then record each piece's
    /// arrival in id order: counters, telemetry and an `Arrive` /
    /// `MergeBack` / `MergeFront` trace event by outcome. While the
    /// level is quiesced for a switch the pieces are staged one by one,
    /// and each re-enters later as a run of one.
    fn enter(&mut self, now: SimTime, at: usize, mut run: SegRun) {
        let lv = &mut self.levels[at];
        if !lv.switch.is_settled() {
            for r in run {
                lv.switch.stage(r);
            }
            return;
        }
        let mut pieces = run.clone();
        let steps = &mut self.run_steps;
        steps.clear();
        lv.elevator.add_run(&mut run, now, steps);
        let counters = self.tel.level.counters();
        let c = &mut lv.counters;
        for step in steps.iter() {
            for r in pieces.by_ref().take(step.count as usize) {
                if counters {
                    c.arrivals += 1;
                    c.queue_depth.record(step.depth as f64);
                }
                self.tel.on_arrival(now, lv.layer == Layer::Host, step.depth);
                let (layer, id, sector, sectors) = (lv.layer, r.id, r.sector, r.sectors);
                let write = r.dir == Dir::Write;
                let ev = match step.outcome {
                    AddOutcome::Queued => TraceEvent::Arrive { layer, id, sector, sectors, write },
                    AddOutcome::MergedBack(_) => {
                        if counters {
                            c.merges_back += 1;
                        }
                        TraceEvent::MergeBack { layer, id, sector, sectors, write }
                    }
                    AddOutcome::MergedFront(_) => {
                        if counters {
                            c.merges_front += 1;
                        }
                        TraceEvent::MergeFront { layer, id, sector, sectors, write }
                    }
                };
                self.trace.push(now, ev);
            }
        }
        debug_assert!(pieces.next().is_none(), "one step entry per piece");
    }

    /// Level `at` handed `rq` downwards: trace and count the dispatch.
    fn record_dispatch(&mut self, now: SimTime, at: usize, rq: &QueuedRq) {
        let lv = &mut self.levels[at];
        self.trace.push(
            now,
            TraceEvent::Dispatch {
                layer: lv.layer,
                id: rq.id(),
                sector: rq.sector,
                sectors: rq.sectors,
                write: rq.dir == Dir::Write,
            },
        );
        if self.tel.level.counters() {
            lv.counters.dispatches += 1;
            lv.counters.dispatched_sectors += rq.sectors;
        }
    }

    /// Level `at`'s elevator chose to idle until `until` (anticipation
    /// or slice idling): count the window and arm the kick that
    /// re-polls it.
    fn record_idle(&mut self, now: SimTime, at: usize, until: SimTime, out: &mut Vec<StackAction>) {
        let lv = &mut self.levels[at];
        if self.tel.level.counters() {
            lv.counters.idles += 1;
            lv.counters.idle_wait.record(until.saturating_since(now).as_secs_f64());
        }
        self.trace.push(now, TraceEvent::IdleArm { layer: lv.layer, until });
        lv.arm_kick(until, out);
    }

    /// If level `at` is draining for a switch and holds nothing, swap
    /// in the target elevator, start the re-init stall and arm the kick
    /// that ends it. Dom0 also waits for the request on the disk.
    fn try_finish_drain(&mut self, now: SimTime, at: usize, out: &mut Vec<StackAction>) {
        let disk_busy = at == DOM0 && self.in_service.is_some();
        let lv = &mut self.levels[at];
        if disk_busy || !(lv.switch.is_draining() && lv.elevator.queued() == 0) {
            return;
        }
        let kind = lv.switch.target().expect("draining has a target");
        lv.elevator = build_elevator(kind, &self.params.tunables);
        let thaw_at = now + lv.reinit;
        lv.switch.swap_done(thaw_at);
        let drained = lv.drain_began.take().map(|began| now.saturating_since(began));
        if self.tel.level.counters() {
            lv.counters.switches += 1;
            if let Some(d) = drained {
                lv.counters.drain_durations.record(d.as_secs_f64());
            }
            lv.counters.freeze_secs += lv.reinit.as_secs_f64();
        }
        if let Some(d) = drained {
            self.tel.on_drain(d.as_nanos());
        }
        self.tel.on_reinit(lv.reinit.as_nanos());
        self.trace
            .push(now, TraceEvent::SwapDone { layer: lv.layer, to: kind.code() as u8 });
        lv.arm_kick(thaw_at, out);
    }

    /// True while level `at` sits in its post-swap re-init stall (the
    /// kick that ends it is armed). Once the stall is over, release the
    /// queue: the staged requests re-enter as runs of one, and the
    /// switch completes if this was the last level.
    fn still_frozen(&mut self, now: SimTime, at: usize, out: &mut Vec<StackAction>) -> bool {
        let lv = &mut self.levels[at];
        let Some(until) = lv.switch.frozen_until() else {
            return false;
        };
        if now < until {
            lv.arm_kick(until, out);
            return true;
        }
        let staged = lv.switch.thaw();
        let to = lv.elevator.kind().code() as u8;
        self.trace.push(now, TraceEvent::SwitchEnd { layer: lv.layer, to });
        for r in staged {
            self.enter(now, at, SegRun::one(r));
        }
        self.finish_switch_if_done(out);
        false
    }

    /// Enter `nsegs` fresh Dom0 ids for parent `slot` into the ring
    /// window, moving any live segment pushed out of its front to the
    /// stragglers.
    fn push_segments(&mut self, slot: u32, nsegs: u32) {
        self.ring.extend(std::iter::repeat_n(slot, nsegs as usize));
        while self.ring.len() > self.ring_window {
            let old = self.ring.pop_front().expect("the window is over its cap");
            if old != SEG_DONE {
                self.stragglers.insert(self.ring_base, old);
            }
            self.ring_base += 1;
        }
    }

    /// Retire Dom0 segment `id` from the ring window, returning its
    /// parent slot.
    fn retire_segment(&mut self, id: RequestId) -> u32 {
        if id < self.ring_base {
            return self.stragglers.remove(&id).expect("straggler segment in flight");
        }
        let at = (id - self.ring_base) as usize;
        let slot = std::mem::replace(&mut self.ring[at], SEG_DONE);
        debug_assert_ne!(slot, SEG_DONE, "segment {id} completed twice");
        while self.ring.front() == Some(&SEG_DONE) {
            self.ring.pop_front();
            self.ring_base += 1;
        }
        slot
    }

    // ------------------------------------------------------------------
    // Submission path
    // ------------------------------------------------------------------

    /// Submit a guest request. `req.sector` is relative to the VM's
    /// virtual disk; `req.stream` identifies the submitting task. The
    /// resulting actions are appended to `out` (which the driver
    /// recycles across calls).
    pub fn submit_into(
        &mut self,
        now: SimTime,
        vm: VmId,
        req: IoRequest,
        out: &mut Vec<StackAction>,
    ) {
        let _prof = simcore::prof::span_hot("vmstack.submit");
        assert!(
            req.sector + req.sectors <= self.params.vm_extent_sectors,
            "guest request beyond VM extent"
        );
        self.outstanding += 1;
        self.enter(now, guest_level(vm), SegRun::one(req));
        self.pump_guest(now, vm, out);
        self.pump_dom0(now, out);
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Handle a previously scheduled stack event, appending the
    /// resulting actions to `out` (which the driver recycles across
    /// calls).
    pub fn handle_into(&mut self, now: SimTime, ev: StackEvent, out: &mut Vec<StackAction>) {
        let _prof = simcore::prof::span_hot("vmstack.handle");
        match ev {
            StackEvent::Kick { layer, ticket } => {
                let at = match layer {
                    Layer::Host => DOM0,
                    Layer::Guest(vm) => guest_level(vm),
                };
                if self.levels[at].timer.fire(ticket) {
                    if let Layer::Guest(vm) = layer {
                        self.pump_guest(now, vm, out);
                    }
                    self.pump_dom0(now, out);
                }
            }
            StackEvent::DiskDone => self.on_disk_done(now, out),
        }
    }

    /// Drive the guest elevator: move dispatchable requests into the
    /// ring (and on into Dom0) while ring slots are available.
    fn pump_guest(&mut self, now: SimTime, vm: VmId, out: &mut Vec<StackAction>) {
        let at = guest_level(vm);
        loop {
            let ring_full = self.in_ring[vm as usize] >= self.params.ring_depth;
            if self.still_frozen(now, at, out) || ring_full {
                return;
            }
            match self.levels[at].elevator.dispatch(now) {
                Dispatch::Request(grq) => {
                    self.record_dispatch(now, at, &grq);
                    // Split across ring slots of at most ring_seg_sectors.
                    let seg_max = self.params.ring_seg_sectors.max(1);
                    let nsegs = grq.sectors.div_ceil(seg_max) as u32;
                    self.in_ring[vm as usize] += nsegs as usize;
                    let occ = self.in_ring[vm as usize] as u32;
                    self.tel.on_guest_dispatch(grq.sectors);
                    self.tel.on_ring_occ(now, occ);
                    self.ring_occ.record(occ as f64);
                    self.ring_peak = self.ring_peak.max(occ);
                    self.trace.push(
                        now,
                        TraceEvent::RingOcc { vm, occupied: occ, bound: self.ring_bound },
                    );
                    let run = SegRun::new(
                        IoRequest {
                            id: self.next_dom0_id,
                            stream: vm,
                            sector: vm as u64 * self.params.vm_extent_sectors + grq.sector,
                            sectors: grq.sectors,
                            dir: grq.dir,
                            sync: grq.sync,
                            submitted: now,
                        },
                        seg_max,
                    );
                    self.next_dom0_id += nsegs as u64;
                    let parent = RingParent { vm, remaining: nsegs, grq: Some(grq) };
                    let slot = match self.free_parents.pop() {
                        Some(slot) => {
                            self.parents[slot as usize] = parent;
                            slot
                        }
                        None => {
                            self.parents.push(parent);
                            (self.parents.len() - 1) as u32
                        }
                    };
                    self.push_segments(slot, nsegs);
                    self.enter(now, DOM0, run);
                    // Check drain progress of the guest switch.
                    self.try_finish_drain(now, at, out);
                }
                Dispatch::Idle { until } => {
                    self.record_idle(now, at, until, out);
                    return;
                }
                Dispatch::Empty => {
                    self.try_finish_drain(now, at, out);
                    return;
                }
            }
        }
    }

    /// Drive the Dom0 elevator onto the disk.
    fn pump_dom0(&mut self, now: SimTime, out: &mut Vec<StackAction>) {
        if self.in_service.is_some() || self.still_frozen(now, DOM0, out) {
            return;
        }
        match self.levels[DOM0].elevator.dispatch(now) {
            Dispatch::Request(rq) => {
                self.record_dispatch(now, DOM0, &rq);
                let b = self
                    .disk
                    .service(now, rq.sector, rq.sectors, rq.dir == Dir::Write);
                self.tel
                    .on_dom0_dispatch(now, rq.sector, rq.sectors, b.total().as_nanos());
                self.trace.push(
                    now,
                    TraceEvent::DiskService {
                        id: rq.id(),
                        seek_ns: b.seek.as_nanos(),
                        rotation_ns: b.rotation.as_nanos(),
                        transfer_ns: b.transfer.as_nanos(),
                        sectors: rq.sectors,
                        sequential: b.is_sequential(),
                    },
                );
                self.in_service = Some(rq);
                out.push(StackAction::At(now + b.total(), StackEvent::DiskDone));
            }
            Dispatch::Idle { until } => self.record_idle(now, DOM0, until, out),
            Dispatch::Empty => self.try_finish_drain(now, DOM0, out),
        }
    }

    /// Physical completion: fan out to rings, guests and submitters.
    fn on_disk_done(&mut self, now: SimTime, out: &mut Vec<StackAction>) {
        let rq = self.in_service.take().expect("DiskDone without in-service rq");
        let counters = self.tel.level.counters();
        self.levels[DOM0].complete(now, &rq, counters);
        // VMs whose ring occupancy changed, in first-touch order.
        let mut occ_vms = std::mem::take(&mut self.occ_scratch);
        occ_vms.clear();
        for part in &rq.parts {
            self.trace
                .push(now, TraceEvent::Complete { layer: Layer::Host, id: part.id });
            self.tel
                .on_dom0_complete(now.saturating_since(part.submitted).as_nanos());
            let slot = self.retire_segment(part.id);
            let parent = &mut self.parents[slot as usize];
            let vm = parent.vm;
            self.in_ring[vm as usize] -= 1;
            if !occ_vms.contains(&vm) {
                occ_vms.push(vm);
            }
            parent.remaining -= 1;
            if parent.remaining > 0 {
                continue;
            }
            let grq = parent.grq.take().expect("parent slot is live");
            self.free_parents.push(slot);
            self.levels[guest_level(vm)].complete(now, &grq, counters);
            self.tel.on_vm_bytes(now, vm, grq.bytes());
            for gpart in &grq.parts {
                self.trace.push(
                    now,
                    TraceEvent::Complete { layer: Layer::Guest(vm), id: gpart.id },
                );
                let waited = now.saturating_since(gpart.submitted);
                if counters {
                    self.latency.record(waited.as_secs_f64());
                }
                self.tel.on_guest_complete(waited.as_nanos());
                self.outstanding -= 1;
                out.push(StackAction::IoDone {
                    vm,
                    req: gpart.id,
                    bytes: gpart.bytes(),
                });
            }
        }
        for &vm in &occ_vms {
            let occ = self.in_ring[vm as usize] as u32;
            self.ring_occ.record(occ as f64);
            self.tel.on_ring_occ(now, occ);
            self.trace
                .push(now, TraceEvent::RingOcc { vm, occupied: occ, bound: self.ring_bound });
        }
        self.occ_scratch = occ_vms;
        // Freed ring slots: refill from every guest that was blocked.
        for vm in 0..self.vm_count() {
            self.pump_guest(now, vm, out);
        }
        self.pump_dom0(now, out);
    }

    // ------------------------------------------------------------------
    // Elevator hot switching
    // ------------------------------------------------------------------

    /// Begin switching Dom0 to `host` and every guest to `guest`,
    /// Linux-style; `None` keeps that level's elevator (the per-level
    /// control the paper's §IV-B analyses). Each switching elevator
    /// stops accepting new requests (they are staged), drains what it
    /// holds, then swaps and stalls for its re-init time. The
    /// observable cost — queue drain under load plus the stalls — is
    /// what the paper's Fig. 5 measures.
    ///
    /// Switching while a switch is in progress replaces the target.
    pub fn begin_switch(
        &mut self,
        now: SimTime,
        host: Option<SchedKind>,
        guest: Option<SchedKind>,
    ) -> Vec<StackAction> {
        let _prof = simcore::prof::span("vmstack.switch");
        let mut out = Vec::new();
        self.switching_to = Some(SchedPair::new(
            host.unwrap_or(self.pair.host),
            guest.unwrap_or(self.pair.guest),
        ));
        for (at, lv) in self.levels.iter_mut().enumerate() {
            let Some(kind) = (if at == DOM0 { host } else { guest }) else {
                continue;
            };
            lv.switch.begin(kind);
            lv.drain_began.get_or_insert(now);
            self.trace
                .push(now, TraceEvent::SwitchBegin { layer: lv.layer, to: kind.code() as u8 });
        }
        // Drains may finish immediately on empty elevators.
        for vm in 0..self.vm_count() {
            self.try_finish_drain(now, guest_level(vm), &mut out);
            // pump so a frozen guest schedules its thaw kick
            self.pump_guest(now, vm, &mut out);
        }
        self.try_finish_drain(now, DOM0, &mut out);
        self.pump_dom0(now, &mut out);
        // A one-level switch on an idle level may already be complete.
        self.finish_switch_if_done(&mut out);
        out
    }

    /// If every level finished draining *and* thawed, declare the switch
    /// complete.
    fn finish_switch_if_done(&mut self, out: &mut Vec<StackAction>) {
        let Some(pair) = self.switching_to else {
            return;
        };
        if self.levels.iter().all(|lv| lv.switch.is_settled()) {
            self.pair = pair;
            self.switching_to = None;
            out.push(StackAction::SwitchComplete { pair });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::EventQueue;

    /// Under a CFQ Dom0 the dd writers share one async queue with a
    /// one-way scan, so the VMs are served one after another and the
    /// first segments of the later VMs wait while newer ids run far
    /// ahead. The window must stay within its cap, those segments must
    /// pass through the straggler map, and every request must complete.
    #[test]
    fn ring_window_stays_within_its_cap() {
        let vms: VmId = 4;
        let (chunk, per_vm) = (256, 512); // 512 × 128 KiB = 64 MiB per VM
        let mut stack = NodeStack::new(NodeParams::default(), vms, SchedPair::DEFAULT);
        let cap = RING_WINDOW_FACTOR * vms as usize * stack.ring_bound as usize;
        let submit = |stack: &mut NodeStack, now, vm: VmId, n: u64, out: &mut Vec<_>| {
            let req = IoRequest {
                id: vm as u64 * per_vm + n + 1,
                stream: 0,
                sector: n * chunk,
                sectors: chunk,
                dir: Dir::Write,
                sync: false,
                submitted: now,
            };
            stack.submit_into(now, vm, req, out);
        };
        // A dd writeback window of 16 requests per VM.
        let (mut queue, mut out, mut now) = (EventQueue::new(), Vec::new(), SimTime::ZERO);
        let mut next = vec![16; vms as usize];
        for vm in 0..vms {
            for n in 0..16 {
                submit(&mut stack, now, vm, n, &mut out);
            }
        }
        let (mut done, mut peak_window, mut peak_stragglers) = (0, 0, 0);
        loop {
            while !out.is_empty() {
                for action in std::mem::take(&mut out) {
                    match action {
                        StackAction::At(t, ev) => queue.push(t, ev),
                        StackAction::IoDone { vm, .. } => {
                            done += 1;
                            let n = &mut next[vm as usize];
                            if *n < per_vm {
                                submit(&mut stack, now, vm, *n, &mut out);
                                *n += 1;
                            }
                        }
                        StackAction::SwitchComplete { .. } => unreachable!("no switch"),
                    }
                }
            }
            peak_window = peak_window.max(stack.ring.len());
            peak_stragglers = peak_stragglers.max(stack.stragglers.len());
            let Some((t, ev)) = queue.pop() else { break };
            now = t;
            stack.handle_into(now, ev, &mut out);
        }
        assert_eq!(done, vms as u64 * per_vm, "every request completes");
        assert!(stack.is_idle() && stack.ring.is_empty() && stack.stragglers.is_empty());
        assert!(peak_window <= cap, "window of {peak_window} ids over its cap of {cap}");
        assert!(peak_stragglers > 0, "no segment outlived the window");
    }
}
