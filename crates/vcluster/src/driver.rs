//! The whole-cluster MapReduce simulation driver.
//!
//! Wires together `mrsim` task programs, per-node `vmstack` block
//! stacks, the per-VM VCPU processor-sharing model and the flow-level
//! network into one deterministic event loop, and executes a job under
//! a [`SwitchPlan`] — the per-phase (VMM, VM) elevator-pair schedule
//! the paper's meta-scheduler produces.

use crate::cache::PageCache;
use crate::cpu::{Vcpu, WorkId};
use crate::files::VmFiles;
use crate::network::{FlowId, NetParams, Network};
use iosched::{Dir, IoRequest, RequestId, SchedPair, StreamId};
use mrsim::{
    map_output_file, map_plan, reduce_plan, ClusterShape, FileRef, JobEvent, JobPhase, JobSpec,
    JobTracker, PhaseTimes, TaskId, TaskKind, TaskOp,
};
use simcore::trace::{combine_digests, Trace, TraceEvent};
use simcore::{
    EventQueue, FxHashMap, Json, MetricsRegistry, OnlineStats, SimDuration, SimTime, Timer,
    TimerTicket,
};
use vmstack::{NodeParams, NodeStack, StackAction, StackEvent, VmId};

use std::collections::VecDeque;

/// Reserved guest stream ids: the shuffle HTTP server and the DataNode
/// replica writer are single daemons per VM, as in Hadoop.
const STREAM_HTTP_SERVER: StreamId = 0;
const STREAM_DATANODE: StreamId = 1;
/// The per-VM writeback daemon (pdflush): all buffered writes reach the
/// disk under this stream, as in Linux 2.6 where background writeback
/// is not attributed to the writing process.
const STREAM_PDFLUSH: StreamId = 2;
/// Task streams start here.
const STREAM_TASK_BASE: StreamId = 3;

/// Cluster-level configuration.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Nodes × VMs × slots.
    pub shape: ClusterShape,
    /// Per-node disk stack parameters.
    pub node: NodeParams,
    /// Network parameters.
    pub net: NetParams,
    /// Readahead window (chunks) for task stream reads.
    pub read_window: usize,
    /// Writeback window (chunks) for task stream writes.
    pub write_window: usize,
    /// Per-VM page-cache budget, bytes (0 disables caching). The
    /// paper's VMs have 1 GB of RAM; after JVM heaps roughly 384 MB is
    /// available to the guest page cache.
    pub page_cache_bytes: u64,
    /// Per-VM dirty-page ceiling: a buffered write blocks while this
    /// much data awaits writeback (Linux `vm.dirty_ratio` behaviour).
    pub dirty_limit_bytes: u64,
    /// How many chunks of read data may sit unprocessed (CPU-pending)
    /// before a stream stops prefetching. HDFS DataNodes stream blocks
    /// into socket/user buffers well ahead of the consuming map
    /// function, so this is much larger than the readahead window.
    pub cpu_backlog_chunks: u32,
    /// Heartbeat lag between a map committing and reducers learning its
    /// output is fetchable (Hadoop 0.19 TaskTracker heartbeats + event
    /// polling). This lag is what makes the non-concurrent shuffle share
    /// large for short (few-wave) jobs — the paper's Table II.
    pub heartbeat: SimDuration,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            shape: ClusterShape::default(),
            node: NodeParams::default(),
            net: NetParams::default(),
            read_window: 4,
            write_window: 16,
            page_cache_bytes: 384 * 1024 * 1024,
            dirty_limit_bytes: 200 * 1024 * 1024,
            cpu_backlog_chunks: 64,
            heartbeat: SimDuration::from_secs(3),
        }
    }
}

/// When to install which elevator pair during a job — the output of the
/// paper's meta-scheduler heuristic (a pair per phase, `None` = keep,
/// i.e. the paper's "0 / no switch" entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchPlan {
    /// Pair installed before the job starts.
    pub initial: SchedPair,
    /// Switch when all maps finish (Ph1 → Ph2/Ph3 boundary).
    pub at_maps_done: Option<SchedPair>,
    /// Switch when the shuffle finishes (Ph2 → Ph3 boundary).
    pub at_shuffle_done: Option<SchedPair>,
}

impl SwitchPlan {
    /// Run the whole job under one pair (the paper's baselines).
    pub fn single(pair: SchedPair) -> Self {
        SwitchPlan {
            initial: pair,
            at_maps_done: None,
            at_shuffle_done: None,
        }
    }

    /// Per-phase pairs; equal consecutive pairs become no-switches
    /// (the heuristic's "assign 0" rule).
    pub fn phased(ph1: SchedPair, ph2: Option<SchedPair>, ph3: Option<SchedPair>) -> Self {
        let at_maps_done = ph2.filter(|&p| p != ph1);
        let effective_ph2 = at_maps_done.unwrap_or(ph1);
        let at_shuffle_done = ph3.filter(|&p| p != effective_ph2);
        SwitchPlan {
            initial: ph1,
            at_maps_done,
            at_shuffle_done,
        }
    }

    /// Number of switches this plan performs.
    pub fn switches(&self) -> u32 {
        self.at_maps_done.is_some() as u32 + self.at_shuffle_done.is_some() as u32
    }
}

/// A point-in-time view of cluster I/O state handed to an
/// [`OnlinePolicy`] — the "status of the VMs' I/O (i.e. the number of
/// requests)" the paper's future-work section proposes to switch on.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Fraction of map tasks committed.
    pub maps_done_fraction: f64,
    /// Per-node Dom0 elevator queue depth.
    pub dom0_queue_lens: Vec<usize>,
    /// The pair currently installed on node 0.
    pub current_pair: SchedPair,
    /// True while any node is still draining a switch.
    pub switching: bool,
}

/// The audit record behind one observe→threshold→hysteresis→decide
/// step of an [`OnlinePolicy`]: what the policy sampled, what it
/// compared the sample against, and where its hysteresis stood after
/// the tick. Surfaced in the metrics doc (`online` section) and as
/// Perfetto instant events on the cluster trace track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyAudit {
    /// Machine-readable name of the observed signal (e.g.
    /// `dom0_avg_qdepth`, `maps_done_fraction`).
    pub signal: &'static str,
    /// The sampled value that drove this step.
    pub observed: f64,
    /// Threshold the sample was compared against.
    pub threshold: f64,
    /// Consecutive confirming ticks after this one (hysteresis state;
    /// stateless policies report 0).
    pub streak: u32,
    /// Ticks the condition must hold before the policy acts.
    pub confirm: u32,
    /// True when this tick flipped the policy's internal state (for
    /// stateless policies: when the trigger condition held).
    pub flipped: bool,
}

/// A reactive switching policy consulted periodically during the run —
/// the paper's proposed fine-grained extension of the offline
/// meta-scheduler.
pub trait OnlinePolicy: Send {
    /// Inspect the snapshot; return a pair to switch the cluster to
    /// (returning the current pair or `None` keeps it) and the
    /// [`PolicyAudit`] that explains the step.
    fn decide(&mut self, snap: &ClusterSnapshot) -> (Option<SchedPair>, PolicyAudit);
}

/// Result of one job execution.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Phase milestones.
    pub phases: PhaseTimes,
    /// Whole-job elapsed time (the paper's performance score).
    pub makespan: SimDuration,
    /// `(time, completed-task fraction)` after every task commit.
    pub progress: Vec<(SimTime, f64)>,
    /// Per-node Dom0 throughput samples (MB/s per window).
    pub dom0_throughput: Vec<Vec<f64>>,
    /// Per-VM (global index) throughput samples.
    pub vm_throughput: Vec<Vec<f64>>,
    /// Per-node physical disk statistics.
    pub disk_stats: Vec<blkdev::DiskStats>,
    /// Completed switches `(time, pair)`.
    pub switch_log: Vec<(SimTime, SchedPair)>,
    /// Total bytes moved over the network.
    pub network_bytes: u64,
    /// Deterministic per-layer metrics document (disk, Dom0 elevator,
    /// guest elevators, ring, latency, throughput probe, network,
    /// cache, CPU, phases) — one JSON object per run, byte-stable.
    pub metrics: Json,
    /// Combined rolling digest of every node's trace plus the
    /// cluster-level trace (flows/phases). Bit-identical runs produce
    /// identical digests even when the trace rings dropped records.
    pub trace_digest: u64,
    /// Kernel events processed by the main loop (throughput accounting
    /// for the sweep benches; deliberately not part of the metrics
    /// document, whose byte layout is pinned by goldens).
    pub events_processed: u64,
}

#[derive(Debug, Clone, Copy)]
enum Owner {
    /// The current stream op of a task.
    TaskStream(TaskId),
    /// Shuffle fetch: source-side read.
    FetchSrc(u64),
    /// Shuffle fetch: destination-side write.
    FetchDst(u64),
    /// Replicated write: local copy.
    RepLocal(TaskId),
    /// Replicated write: remote copy.
    RepRemote(TaskId),
}

#[derive(Debug, Clone, Copy)]
enum IoTarget {
    /// Chunk of an [`IoStream`].
    Stream(u64),
    /// Background writeback chunk of a VM.
    Writeback(u32),
}

#[derive(Debug, Clone, Copy)]
enum CpuOwner {
    Stream(u64),
    Op(TaskId),
}

#[derive(Debug, Clone, Copy)]
enum FlowOwner {
    Fetch(u64),
    Replica(TaskId),
}

struct IoStream {
    node: u32,
    vm: VmId,
    stream: StreamId,
    base_sector: u64,
    /// Total length in sectors.
    sectors: u64,
    /// Chunk size in sectors.
    chunk_sectors: u64,
    window: usize,
    dir: Dir,
    sync: bool,
    cpu_ns_per_byte: u64,
    issued_sectors: u64,
    completed_sectors: u64,
    inflight: u32,
    cpu_out: u32,
    owner: Owner,
    /// File backing this stream (cache bookkeeping for writes).
    file: Option<FileRef>,
    /// Buffered write: chunks are admitted to the page cache / dirty
    /// pool instead of hitting the disk synchronously.
    buffered: bool,
}

/// Per-VM background writeback (pdflush) state.
struct Writeback {
    /// Dirty chunks awaiting disk writeback.
    queue: VecDeque<(u64, u64)>,
    inflight: u32,
    window: u32,
    dirty_bytes: u64,
    limit: u64,
    /// Buffered-write streams parked on the dirty limit.
    parked: VecDeque<u64>,
}

impl Writeback {
    fn new(limit: u64, window: u32) -> Self {
        Writeback {
            queue: VecDeque::new(),
            inflight: 0,
            window,
            dirty_bytes: 0,
            limit,
            parked: VecDeque::new(),
        }
    }
}

struct Fetch {
    reduce_idx: u32,
    map: TaskId,
    bytes: u64,
}

struct TaskRt {
    kind: TaskKind,
    gvm: u32,
    ops: Vec<TaskOp>,
    cur: usize,
    /// Shuffle state (reduces only).
    fetch_queue: VecDeque<TaskId>,
    active_fetches: u32,
    /// Replicated-write state.
    rep_local_done: bool,
    rep_remote_done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Stack { node: u32, ev: StackEvent },
    Net { ticket: TimerTicket },
    Cpu { gvm: u32, ticket: TimerTicket },
    /// Reducers learn (via heartbeat) that a map's output is fetchable.
    MapFetchable { map: TaskId },
    /// Periodic online-policy consultation.
    PolicyTick,
}

/// The cluster simulator. Build one per job execution.
pub struct ClusterSim {
    params: ClusterParams,
    job: JobSpec,
    plan: SwitchPlan,
    nodes: Vec<NodeStack>,
    net: Network,
    net_timer: Timer,
    /// Network population changed this batch; re-arm [`Self::net_timer`]
    /// once per dispatch batch instead of per flow event.
    net_stale: bool,
    vcpus: Vec<Vcpu>,
    cpu_timers: Vec<Timer>,
    files: Vec<VmFiles>,
    tracker: JobTracker,
    // Sequential-id lookup maps on the hot path. None of these are ever
    // iterated (iteration order would be nondeterministic), so the fast
    // hash map is safe.
    tasks: FxHashMap<TaskId, TaskRt>,
    streams: FxHashMap<u64, IoStream>,
    next_stream: u64,
    /// Request and CPU-work ids are sequential, so these are slabs
    /// like `flow_map`: one insert + one take per request, no hashing.
    io_map: Vec<Option<IoTarget>>,
    next_req: RequestId,
    cpu_map: Vec<Option<CpuOwner>>,
    next_work: WorkId,
    /// Flow owner plus start time (for flow-duration metrics). Flow
    /// ids are sequential, so this is a slab, not a hash map — the
    /// dispatch path indexes it directly.
    flow_map: Vec<Option<(FlowOwner, SimTime)>>,
    fetches: FxHashMap<u64, Fetch>,
    next_fetch: u64,
    /// Bytes appended to each reducer's shuffle run so far.
    shuffle_off: Vec<u64>,
    caches: Vec<PageCache>,
    writeback: Vec<Writeback>,
    queue: EventQueue<Ev>,
    now: SimTime,
    progress: Vec<(SimTime, f64)>,
    switch_log: Vec<(SimTime, SchedPair)>,
    online: Option<(Box<dyn OnlinePolicy>, SimDuration)>,
    /// Cluster-level trace: network flows and job-phase transitions
    /// (per-node I/O events live in each node's own trace).
    trace: Trace,
    flows_started: u64,
    flow_stats: OnlineStats,
    cache_hits: u64,
    cache_misses: u64,
    /// Per-VM (global index) VCPU busy nanoseconds handed out.
    cpu_busy_ns: Vec<u64>,
    /// Recycled `StackAction` buffers: `submit`/`handle` cascades nest
    /// (an `IoDone` can trigger further submissions), so this is a pool
    /// rather than a single scratch vec.
    action_bufs: Vec<Vec<StackAction>>,
    /// Recycled completion buffers for the network and CPU timers.
    flow_buf: Vec<FlowId>,
    cpu_buf: Vec<WorkId>,
    events_processed: u64,
    /// Online-policy accounting (S2): consultations and the decisions
    /// taken, exported as an `online` metrics section when a policy is
    /// attached.
    policy_ticks: u64,
    policy_decisions: Vec<(SimTime, SchedPair)>,
    /// Audit log of every consulted policy step `(time, audit, acted)`
    /// — the explained observe→threshold→hysteresis→switch chain.
    policy_audit: Vec<(SimTime, PolicyAudit, bool)>,
}

impl ClusterSim {
    /// Set up a job on a fresh cluster.
    pub fn new(params: ClusterParams, job: JobSpec, plan: SwitchPlan) -> Self {
        let shape = params.shape;
        job.validate(&shape).expect("invalid job");
        let tracker = JobTracker::new(&job, &shape);
        let nodes: Vec<NodeStack> = (0..shape.nodes)
            .map(|_| NodeStack::new(params.node.clone(), shape.vms_per_node, plan.initial))
            .collect();
        let total_vms = shape.total_vms();
        let mut files: Vec<VmFiles> = (0..total_vms)
            .map(|_| VmFiles::new(params.node.vm_extent_sectors))
            .collect();
        // Pre-existing HDFS blocks: replica 0 at the block's home VM.
        for b in 0..job.num_blocks(&shape) {
            let home = tracker.block_home(b);
            files[home as usize].ensure(FileRef::HdfsBlock { block: b, replica: 0 }, job.block_bytes);
        }
        let num_reduces = job.num_reduces(&shape) as usize;
        ClusterSim {
            nodes,
            net: Network::new(params.net.clone(), shape.nodes),
            net_timer: Timer::new(),
            net_stale: false,
            vcpus: (0..total_vms).map(|_| Vcpu::new()).collect(),
            cpu_timers: (0..total_vms).map(|_| Timer::new()).collect(),
            files,
            tracker,
            tasks: FxHashMap::default(),
            streams: FxHashMap::default(),
            next_stream: 1,
            io_map: Vec::new(),
            next_req: 1,
            cpu_map: Vec::new(),
            next_work: 1,
            flow_map: Vec::new(),
            fetches: FxHashMap::default(),
            next_fetch: 1,
            shuffle_off: vec![0; num_reduces],
            caches: (0..total_vms)
                .map(|_| PageCache::new(params.page_cache_bytes))
                .collect(),
            writeback: (0..total_vms)
                .map(|_| {
                    Writeback::new(params.dirty_limit_bytes, params.write_window as u32)
                })
                .collect(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            progress: vec![(SimTime::ZERO, 0.0)],
            switch_log: Vec::new(),
            online: None,
            trace: Trace::bounded(params.node.trace_capacity),
            flows_started: 0,
            flow_stats: OnlineStats::new(),
            cache_hits: 0,
            cache_misses: 0,
            cpu_busy_ns: vec![0; total_vms as usize],
            action_bufs: Vec::new(),
            flow_buf: Vec::new(),
            cpu_buf: Vec::new(),
            events_processed: 0,
            policy_ticks: 0,
            policy_decisions: Vec::new(),
            policy_audit: Vec::new(),
            params,
            job,
            plan,
        }
    }

    /// The cluster-level trace (flows and phase transitions).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Attach a reactive switching policy consulted every `period`
    /// (the paper's future-work fine-grained control). Usually combined
    /// with `SwitchPlan::single(initial)` so the policy owns all
    /// switching decisions.
    pub fn set_online_policy(&mut self, policy: Box<dyn OnlinePolicy>, period: SimDuration) {
        assert!(!period.is_zero(), "policy period must be positive");
        self.online = Some((policy, period));
    }

    fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            maps_done_fraction: self.tracker.maps_done_count() as f64
                / self.tracker.num_maps() as f64,
            dom0_queue_lens: self.nodes.iter().map(|n| n.dom0_queue_len()).collect(),
            current_pair: self.nodes[0].pair(),
            switching: self.nodes.iter().any(|n| n.switching()),
        }
    }

    fn gvm_loc(&self, gvm: u32) -> (u32, VmId) {
        (
            gvm / self.params.shape.vms_per_node,
            gvm % self.params.shape.vms_per_node,
        )
    }

    /// VM hosting the remote replica of a reducer's output: the same
    /// VM index on the next node (always off-node, like HDFS's
    /// rack-aware second replica).
    fn replica_gvm(&self, gvm: u32) -> u32 {
        (gvm + self.params.shape.vms_per_node) % self.params.shape.total_vms()
    }

    // ------------------------------------------------------------------
    // Event plumbing
    // ------------------------------------------------------------------

    /// Borrow a recycled action buffer (cascades nest, hence a pool).
    fn take_buf(&mut self) -> Vec<StackAction> {
        self.action_bufs.pop().unwrap_or_default()
    }

    fn put_buf(&mut self, mut buf: Vec<StackAction>) {
        buf.clear();
        self.action_bufs.push(buf);
    }

    fn apply_stack_actions(&mut self, node: u32, actions: &mut Vec<StackAction>) {
        for a in actions.drain(..) {
            match a {
                StackAction::At(t, ev) => self.queue.push(t, Ev::Stack { node, ev }),
                StackAction::IoDone { req, bytes, .. } => {
                    // Completions can cascade synchronously; handle now.
                    // Nested submissions use their own pooled buffer, so
                    // the cascade order matches the old one-Vec-per-call
                    // recursion exactly.
                    self.on_io_done(req, bytes);
                }
                StackAction::SwitchComplete { pair } => {
                    self.switch_log.push((self.now, pair));
                }
            }
        }
    }

    fn push_stack_actions(&mut self, node: u32, mut actions: Vec<StackAction>) {
        self.apply_stack_actions(node, &mut actions);
    }

    fn rearm_net(&mut self) {
        if let Some(t) = self.net.next_completion() {
            let ticket = self.net_timer.arm();
            self.queue.push(t.max(self.now), Ev::Net { ticket });
        } else {
            self.net_timer.cancel();
        }
    }

    fn rearm_cpu(&mut self, gvm: u32) {
        if let Some(t) = self.vcpus[gvm as usize].next_completion() {
            let ticket = self.cpu_timers[gvm as usize].arm();
            self.queue.push(t.max(self.now), Ev::Cpu { gvm, ticket });
        } else {
            self.cpu_timers[gvm as usize].cancel();
        }
    }

    fn add_cpu_work(&mut self, gvm: u32, owner: CpuOwner, nanos: u64) {
        let id = self.next_work;
        self.next_work += 1;
        if self.cpu_map.len() <= id as usize {
            self.cpu_map.resize_with(id as usize + 1, || None);
        }
        self.cpu_map[id as usize] = Some(owner);
        self.cpu_busy_ns[gvm as usize] += nanos.max(1);
        self.vcpus[gvm as usize].add(self.now, id, nanos.max(1));
        self.rearm_cpu(gvm);
    }

    fn start_flow(&mut self, owner: FlowOwner, src_node: u32, dst_node: u32, bytes: u64) {
        let id = self.net.start_flow(self.now, src_node, dst_node, bytes.max(1));
        if self.flow_map.len() <= id as usize {
            self.flow_map.resize_with(id as usize + 1, || None);
        }
        self.flow_map[id as usize] = Some((owner, self.now));
        self.flows_started += 1;
        self.trace.push(
            self.now,
            TraceEvent::FlowStart { id, src: src_node, dst: dst_node, bytes: bytes.max(1) },
        );
        self.net_stale = true;
    }

    // ------------------------------------------------------------------
    // IoStream machinery
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn start_stream(
        &mut self,
        owner: Owner,
        gvm: u32,
        stream: StreamId,
        base_sector: u64,
        bytes: u64,
        dir: Dir,
        sync: bool,
        cpu_ns_per_byte: u64,
        window: usize,
        file: Option<FileRef>,
        buffered: bool,
    ) {
        debug_assert!(bytes > 0, "empty stream");
        debug_assert!(!buffered || dir == Dir::Write, "only writes buffer");
        let (node, vm) = self.gvm_loc(gvm);
        let key = self.next_stream;
        self.next_stream += 1;
        self.streams.insert(
            key,
            IoStream {
                node,
                vm,
                stream,
                base_sector,
                sectors: bytes.div_ceil(512).max(1),
                chunk_sectors: (self.job.io_chunk_bytes / 512).max(1),
                window,
                dir,
                sync,
                cpu_ns_per_byte,
                issued_sectors: 0,
                completed_sectors: 0,
                inflight: 0,
                cpu_out: 0,
                owner,
                file,
                buffered,
            },
        );
        self.issue_chunks(key);
    }

    fn issue_chunks(&mut self, key: u64) {
        let backlog = self.params.cpu_backlog_chunks;
        loop {
            let Some(s) = self.streams.get(&key) else { return };
            let cpu_gate = s.cpu_ns_per_byte > 0 && s.cpu_out >= backlog;
            if s.issued_sectors >= s.sectors || cpu_gate {
                return;
            }
            if s.buffered {
                // Admission into the dirty pool instead of the disk.
                let gvm = s.node * self.params.shape.vms_per_node + s.vm;
                let wb = &self.writeback[gvm as usize];
                if wb.dirty_bytes >= wb.limit {
                    // Park until writeback frees dirty budget.
                    let already = self.writeback[gvm as usize]
                        .parked
                        .contains(&key);
                    if !already {
                        self.writeback[gvm as usize].parked.push_back(key);
                    }
                    return;
                }
                let chunk = s.chunk_sectors.min(s.sectors - s.issued_sectors);
                let sector = s.base_sector + s.issued_sectors;
                let cpu = s.cpu_ns_per_byte;
                let file = s.file;
                {
                    let s = self.streams.get_mut(&key).expect("live stream");
                    s.issued_sectors += chunk;
                    s.completed_sectors += chunk; // admitted = complete
                    if cpu > 0 {
                        s.cpu_out += 1;
                    }
                }
                if let Some(file) = file {
                    self.caches[gvm as usize].on_write(file, chunk * 512);
                }
                let wb = &mut self.writeback[gvm as usize];
                wb.dirty_bytes += chunk * 512;
                wb.queue.push_back((sector, chunk));
                self.pump_writeback(gvm);
                if cpu > 0 {
                    self.add_cpu_work(gvm, CpuOwner::Stream(key), cpu * chunk * 512);
                }
                self.check_stream_done(key);
                if self.streams.contains_key(&key) {
                    continue;
                }
                return;
            }
            if s.inflight as usize >= s.window {
                return;
            }
            let chunk = s.chunk_sectors.min(s.sectors - s.issued_sectors);
            let req = IoRequest {
                id: self.next_req,
                stream: s.stream,
                sector: s.base_sector + s.issued_sectors,
                sectors: chunk,
                dir: s.dir,
                sync: s.sync,
                submitted: self.now,
            };
            let node = s.node;
            let vm = s.vm;
            let ri = self.next_req as usize;
            if self.io_map.len() <= ri {
                self.io_map.resize_with(ri + 1, || None);
            }
            self.io_map[ri] = Some(IoTarget::Stream(key));
            self.next_req += 1;
            {
                let s = self.streams.get_mut(&key).expect("live stream");
                s.issued_sectors += chunk;
                s.inflight += 1;
            }
            let mut buf = self.take_buf();
            self.nodes[node as usize].submit_into(self.now, vm, req, &mut buf);
            self.apply_stack_actions(node, &mut buf);
            self.put_buf(buf);
        }
    }

    /// Issue queued writeback chunks of one VM to its disk stack, up to
    /// the writeback window.
    fn pump_writeback(&mut self, gvm: u32) {
        let (node, vm) = self.gvm_loc(gvm);
        loop {
            let wb = &mut self.writeback[gvm as usize];
            if wb.inflight >= wb.window {
                return;
            }
            let Some((sector, sectors)) = wb.queue.pop_front() else { return };
            wb.inflight += 1;
            let req = IoRequest {
                id: self.next_req,
                stream: STREAM_PDFLUSH,
                sector,
                sectors,
                dir: Dir::Write,
                sync: false,
                submitted: self.now,
            };
            let ri = self.next_req as usize;
            if self.io_map.len() <= ri {
                self.io_map.resize_with(ri + 1, || None);
            }
            self.io_map[ri] = Some(IoTarget::Writeback(gvm));
            self.next_req += 1;
            let mut buf = self.take_buf();
            self.nodes[node as usize].submit_into(self.now, vm, req, &mut buf);
            self.apply_stack_actions(node, &mut buf);
            self.put_buf(buf);
        }
    }

    fn on_io_done(&mut self, req: RequestId, bytes: u64) {
        let Some(target) = self.io_map.get_mut(req as usize).and_then(Option::take) else {
            panic!("completion for unknown request {req}");
        };
        match target {
            IoTarget::Writeback(gvm) => {
                let wb = &mut self.writeback[gvm as usize];
                wb.inflight -= 1;
                wb.dirty_bytes = wb.dirty_bytes.saturating_sub(bytes);
                self.pump_writeback(gvm);
                // Dirty budget freed: wake parked buffered writers.
                while let Some(key) = self.writeback[gvm as usize].parked.pop_front() {
                    self.issue_chunks(key);
                    if self.writeback[gvm as usize].dirty_bytes
                        >= self.writeback[gvm as usize].limit
                    {
                        break;
                    }
                }
            }
            IoTarget::Stream(key) => {
                let gvm;
                let cpu;
                {
                    let s = self.streams.get_mut(&key).expect("live stream");
                    s.completed_sectors += bytes / 512;
                    s.inflight -= 1;
                    gvm = s.node * self.params.shape.vms_per_node + s.vm;
                    cpu = s.cpu_ns_per_byte;
                    if cpu > 0 {
                        s.cpu_out += 1;
                    }
                }
                if cpu > 0 {
                    self.add_cpu_work(gvm, CpuOwner::Stream(key), cpu * bytes);
                }
                self.issue_chunks(key);
                self.check_stream_done(key);
            }
        }
    }

    fn on_cpu_done(&mut self, work: WorkId) {
        let owner = self
            .cpu_map
            .get_mut(work as usize)
            .and_then(Option::take)
            .expect("unknown cpu work");
        match owner {
            CpuOwner::Stream(key) => {
                if let Some(s) = self.streams.get_mut(&key) {
                    s.cpu_out -= 1;
                }
                self.issue_chunks(key);
                self.check_stream_done(key);
            }
            CpuOwner::Op(task) => {
                self.tasks.get_mut(&task).expect("live task").cur += 1;
                self.advance_task(task);
            }
        }
    }

    fn check_stream_done(&mut self, key: u64) {
        let done = match self.streams.get(&key) {
            Some(s) => {
                s.completed_sectors >= s.sectors && s.cpu_out == 0 && s.issued_sectors >= s.sectors
            }
            None => false,
        };
        if !done {
            return;
        }
        let s = self.streams.remove(&key).expect("live stream");
        // Buffered writes populate the cache at admission; only direct
        // (sync) writes do so at disk completion.
        if s.dir == Dir::Write && !s.buffered {
            if let Some(file) = s.file {
                let gvm = s.node * self.params.shape.vms_per_node + s.vm;
                self.caches[gvm as usize].on_write(file, s.sectors * 512);
            }
        }
        match s.owner {
            Owner::TaskStream(task) => {
                self.tasks.get_mut(&task).expect("live task").cur += 1;
                self.advance_task(task);
            }
            Owner::FetchSrc(fid) => {
                let f = &self.fetches[&fid];
                let src_node = self.tracker.block_home(f.map) / self.params.shape.vms_per_node;
                let dst_gvm = self.tracker.reduce_home(f.reduce_idx);
                let dst_node = dst_gvm / self.params.shape.vms_per_node;
                let bytes = f.bytes;
                self.start_flow(FlowOwner::Fetch(fid), src_node, dst_node, bytes);
            }
            Owner::FetchDst(fid) => self.on_fetch_finished(fid),
            Owner::RepLocal(task) => {
                let rt = self.tasks.get_mut(&task).expect("live task");
                rt.rep_local_done = true;
                self.maybe_finish_repwrite(task);
            }
            Owner::RepRemote(task) => {
                let rt = self.tasks.get_mut(&task).expect("live task");
                rt.rep_remote_done = true;
                self.maybe_finish_repwrite(task);
            }
        }
    }

    fn maybe_finish_repwrite(&mut self, task: TaskId) {
        let rt = self.tasks.get_mut(&task).expect("live task");
        let need_remote = self.job.replicas > 1;
        if rt.rep_local_done && (rt.rep_remote_done || !need_remote) {
            rt.rep_local_done = false;
            rt.rep_remote_done = false;
            rt.cur += 1;
            self.advance_task(task);
        }
    }

    fn on_flow_done(&mut self, flow: FlowId) {
        let (owner, started) = self.flow_map[flow as usize].take().expect("unknown flow");
        self.flow_stats
            .record(self.now.saturating_since(started).as_secs_f64());
        self.trace.push(self.now, TraceEvent::FlowEnd { id: flow });
        match owner {
            FlowOwner::Fetch(fid) => {
                let f = &self.fetches[&fid];
                let r = f.reduce_idx;
                let bytes = f.bytes;
                let dst_gvm = self.tracker.reduce_home(r);
                let reduce_task = self.tracker.reduce_task_id(r);
                let total = self.job.shuffle_per_reduce(&self.params.shape);
                let ext = self.files[dst_gvm as usize]
                    .ensure(FileRef::ShuffleRun { task: reduce_task }, total.max(1));
                let off = self.shuffle_off[r as usize];
                self.shuffle_off[r as usize] += bytes;
                self.start_stream(
                    Owner::FetchDst(fid),
                    dst_gvm,
                    STREAM_TASK_BASE + reduce_task,
                    ext.start + off / 512,
                    bytes.max(1),
                    Dir::Write,
                    false,
                    0,
                    self.params.write_window,
                    Some(FileRef::ShuffleRun { task: reduce_task }),
                    true,
                );
            }
            FlowOwner::Replica(task) => {
                let rt = &self.tasks[&task];
                let remote_gvm = self.replica_gvm(rt.gvm);
                let bytes = match rt.ops[rt.cur] {
                    TaskOp::ReplicatedWrite { bytes, .. } => bytes,
                    _ => unreachable!("replica flow outside ReplicatedWrite"),
                };
                let file = FileRef::ReduceOutput { task, replica: 1 };
                let ext = self.files[remote_gvm as usize].ensure(file, bytes);
                self.start_stream(
                    Owner::RepRemote(task),
                    remote_gvm,
                    STREAM_DATANODE,
                    ext.start,
                    bytes.max(1),
                    Dir::Write,
                    false,
                    0,
                    self.params.write_window,
                    Some(file),
                    true,
                );
            }
        }
    }

    fn on_fetch_finished(&mut self, fid: u64) {
        let f = self.fetches.remove(&fid).expect("live fetch");
        let events = self.tracker.on_fetch_complete(f.reduce_idx, f.map, self.now);
        let reduce_task = self.tracker.reduce_task_id(f.reduce_idx);
        {
            let rt = self.tasks.get_mut(&reduce_task).expect("live reduce");
            rt.active_fetches -= 1;
        }
        self.try_start_fetches(f.reduce_idx);
        // Advance the reducer past its Shuffle op when everything landed.
        let rt = &self.tasks[&reduce_task];
        if matches!(rt.ops.get(rt.cur), Some(TaskOp::Shuffle))
            && rt.active_fetches == 0
            && self.tracker.reduce_shuffle_complete(f.reduce_idx)
        {
            self.tasks.get_mut(&reduce_task).expect("live").cur += 1;
            self.advance_task(reduce_task);
        }
        self.handle_job_events(events);
    }

    fn try_start_fetches(&mut self, r: u32) {
        let reduce_task = self.tracker.reduce_task_id(r);
        loop {
            let rt = self.tasks.get_mut(&reduce_task).expect("live reduce");
            if !matches!(rt.ops.get(rt.cur), Some(TaskOp::Shuffle)) {
                return;
            }
            if rt.active_fetches >= self.job.parallel_copies {
                return;
            }
            let Some(map) = rt.fetch_queue.pop_front() else { return };
            rt.active_fetches += 1;
            let bytes = (self.job.map_output_per_block()
                / self.tracker.num_reduces() as u64)
                .max(1);
            let fid = self.next_fetch;
            self.next_fetch += 1;
            self.fetches.insert(
                fid,
                Fetch {
                    reduce_idx: r,
                    map,
                    bytes,
                },
            );
            // Source-side read of the map's output partition by the
            // per-VM HTTP server daemon. A recently committed output is
            // still in the source VM's page cache and skips the disk.
            let src_gvm = self.tracker.block_home(map);
            let file = map_output_file(&self.job, map);
            if self.caches[src_gvm as usize].read_hit(file, bytes) {
                self.cache_hits += 1;
                let src_node = src_gvm / self.params.shape.vms_per_node;
                let dst_node =
                    self.tracker.reduce_home(r) / self.params.shape.vms_per_node;
                self.start_flow(FlowOwner::Fetch(fid), src_node, dst_node, bytes);
                continue;
            }
            self.cache_misses += 1;
            let ext = self.files[src_gvm as usize]
                .get(file)
                .expect("map output exists after map committed");
            // Partition offset within the output: reducer index slice.
            let off_sectors =
                ext.sectors * r as u64 / self.tracker.num_reduces() as u64;
            self.start_stream(
                Owner::FetchSrc(fid),
                src_gvm,
                STREAM_HTTP_SERVER,
                ext.start + off_sectors,
                bytes,
                Dir::Read,
                true,
                0,
                self.params.read_window,
                None,
                false,
            );
        }
    }

    // ------------------------------------------------------------------
    // Task execution
    // ------------------------------------------------------------------

    fn start_task(&mut self, a: mrsim::Assignment) {
        let ops = match a.kind {
            TaskKind::Map => map_plan(&self.job, a.task, a.block.expect("map has a block")),
            TaskKind::Reduce => reduce_plan(&self.job, &self.params.shape, a.task),
        };
        self.tasks.insert(
            a.task,
            TaskRt {
                kind: a.kind,
                gvm: a.gvm,
                ops,
                cur: 0,
                fetch_queue: VecDeque::new(),
                active_fetches: 0,
                rep_local_done: false,
                rep_remote_done: false,
            },
        );
        // Reducers all start with the job, before any map commits, so
        // there is nothing to pre-fill: fetch work arrives exclusively
        // through MapFetchable heartbeat events.
        self.advance_task(a.task);
    }

    fn advance_task(&mut self, task: TaskId) {
        loop {
            let rt = &self.tasks[&task];
            let gvm = rt.gvm;
            if rt.cur >= rt.ops.len() {
                return self.finish_task(task);
            }
            match rt.ops[rt.cur].clone() {
                TaskOp::Cpu { nanos } => {
                    self.add_cpu_work(gvm, CpuOwner::Op(task), nanos);
                    return;
                }
                TaskOp::StreamRead {
                    file,
                    offset,
                    bytes,
                    cpu_ns_per_byte,
                } => {
                    // Recently written data is served from the VM's page
                    // cache: no disk I/O, just the copy + user-function
                    // CPU time on the VCPU.
                    if self.caches[gvm as usize].read_hit(file, offset + bytes) {
                        self.cache_hits += 1;
                        let work = bytes * cpu_ns_per_byte.max(1);
                        self.add_cpu_work(gvm, CpuOwner::Op(task), work);
                        return;
                    }
                    self.cache_misses += 1;
                    // Reads address existing data: size the extent at
                    // the end of this access, not just this segment.
                    let ext = self.files[gvm as usize].ensure(file, offset + bytes);
                    self.start_stream(
                        Owner::TaskStream(task),
                        gvm,
                        STREAM_TASK_BASE + task,
                        ext.start + offset / 512,
                        bytes,
                        Dir::Read,
                        true,
                        cpu_ns_per_byte,
                        self.params.read_window,
                        None,
                        false,
                    );
                    return;
                }
                TaskOp::StreamWrite {
                    file,
                    offset,
                    bytes,
                    sync,
                    cpu_ns_per_byte,
                } => {
                    let ext = self.files[gvm as usize].ensure(file, offset + bytes);
                    self.start_stream(
                        Owner::TaskStream(task),
                        gvm,
                        STREAM_TASK_BASE + task,
                        ext.start + offset / 512,
                        bytes,
                        Dir::Write,
                        sync,
                        cpu_ns_per_byte,
                        self.params.write_window,
                        Some(file),
                        !sync,
                    );
                    return;
                }
                TaskOp::Shuffle => {
                    let r = self.tracker.reduce_index(task);
                    self.try_start_fetches(r);
                    let rt = &self.tasks[&task];
                    if rt.active_fetches == 0 && self.tracker.reduce_shuffle_complete(r) {
                        self.tasks.get_mut(&task).expect("live").cur += 1;
                        continue;
                    }
                    return; // fetch completions will advance us
                }
                TaskOp::ReplicatedWrite { file, bytes } => {
                    let ext = self.files[gvm as usize].ensure(file, bytes);
                    self.start_stream(
                        Owner::RepLocal(task),
                        gvm,
                        STREAM_TASK_BASE + task,
                        ext.start,
                        bytes,
                        Dir::Write,
                        false,
                        0,
                        self.params.write_window,
                        Some(file),
                        true,
                    );
                    if self.job.replicas > 1 {
                        let (src_node, _) = self.gvm_loc(gvm);
                        let remote = self.replica_gvm(gvm);
                        let dst_node = remote / self.params.shape.vms_per_node;
                        self.start_flow(FlowOwner::Replica(task), src_node, dst_node, bytes);
                    }
                    return;
                }
            }
        }
    }

    fn finish_task(&mut self, task: TaskId) {
        let kind = self.tasks[&task].kind;
        match kind {
            TaskKind::Map => {
                let (next, events) = self.tracker.on_map_done(task, self.now);
                // The committed map's output becomes fetchable after the
                // next TaskTracker heartbeat round.
                self.queue.push(
                    self.now + self.params.heartbeat,
                    Ev::MapFetchable { map: task },
                );
                if let Some(a) = next {
                    self.start_task(a);
                }
                self.handle_job_events(events);
            }
            TaskKind::Reduce => {
                let events = self.tracker.on_reduce_done(task, self.now);
                self.handle_job_events(events);
            }
        }
        let total = (self.tracker.num_maps() + self.tracker.num_reduces()) as f64;
        let done = (self.tracker.maps_done_count() + self.tracker.reduces_done_count()) as f64;
        self.progress.push((self.now, done / total));
    }

    fn handle_job_events(&mut self, events: Vec<JobEvent>) {
        for ev in events {
            match ev {
                JobEvent::MapsAllDone => {
                    self.trace
                        .push(self.now, TraceEvent::Phase { phase: JobPhase::Ph2.code() });
                    self.set_phase_all(JobPhase::Ph2.code());
                    if let Some(pair) = self.plan.at_maps_done {
                        self.switch_all(pair);
                    }
                }
                JobEvent::ShuffleAllDone => {
                    self.trace
                        .push(self.now, TraceEvent::Phase { phase: JobPhase::Ph3.code() });
                    self.set_phase_all(JobPhase::Ph3.code());
                    if let Some(pair) = self.plan.at_shuffle_done {
                        self.switch_all(pair);
                    }
                }
                JobEvent::ReduceShuffleDone(_) | JobEvent::JobDone => {}
            }
        }
    }

    /// Tell every node's telemetry which job phase is running (so guest
    /// latency histograms split per phase).
    fn set_phase_all(&mut self, phase: u8) {
        for node in &mut self.nodes {
            node.set_phase(phase);
        }
    }

    fn switch_all(&mut self, pair: SchedPair) {
        for node in 0..self.nodes.len() as u32 {
            let actions =
                self.nodes[node as usize].begin_switch(self.now, Some(pair.host), Some(pair.guest));
            self.push_stack_actions(node, actions);
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    /// Borrow one node's stack (post-run inspection).
    pub fn node(&self, i: usize) -> &NodeStack {
        &self.nodes[i]
    }

    fn dispatch(&mut self, t: SimTime, ev: Ev) {
        match ev {
            Ev::Stack { node, ev } => {
                let _prof = simcore::prof::span_hot("vmstack.stack_event");
                let mut buf = self.take_buf();
                self.nodes[node as usize].handle_into(t, ev, &mut buf);
                self.apply_stack_actions(node, &mut buf);
                self.put_buf(buf);
            }
            Ev::Net { ticket } => {
                let _prof = simcore::prof::span_hot("net.deliver");
                if self.net_timer.fire(ticket) {
                    // Flow completion never re-enters take_completed
                    // synchronously, so one recycled buffer suffices.
                    let mut flows = std::mem::take(&mut self.flow_buf);
                    self.net.take_completed_into(t, &mut flows);
                    for flow in flows.drain(..) {
                        self.on_flow_done(flow);
                    }
                    self.flow_buf = flows;
                    self.net_stale = true;
                }
            }
            Ev::Cpu { gvm, ticket } => {
                let _prof = simcore::prof::span_hot("vcluster.cpu_event");
                if self.cpu_timers[gvm as usize].fire(ticket) {
                    let mut works = std::mem::take(&mut self.cpu_buf);
                    self.vcpus[gvm as usize].take_completed_into(t, &mut works);
                    for work in works.drain(..) {
                        self.on_cpu_done(work);
                    }
                    self.cpu_buf = works;
                    self.rearm_cpu(gvm);
                }
            }
            Ev::MapFetchable { map } => {
                for r in 0..self.tracker.num_reduces() {
                    let rt_id = self.tracker.reduce_task_id(r);
                    if let Some(rt) = self.tasks.get_mut(&rt_id) {
                        rt.fetch_queue.push_back(map);
                    }
                }
                for r in 0..self.tracker.num_reduces() {
                    self.try_start_fetches(r);
                }
            }
            Ev::PolicyTick => {
                if self.online.is_some() {
                    self.policy_ticks += 1;
                    let snap = self.snapshot();
                    let (policy, period) = self.online.as_mut().expect("checked");
                    let period = *period;
                    // Mid-switch ticks skip consultation entirely (no
                    // audit step: the policy was never asked).
                    if !snap.switching {
                        let (decision, audit) = policy.decide(&snap);
                        let acted = decision.is_some_and(|p| p != snap.current_pair);
                        self.trace.push(
                            self.now,
                            TraceEvent::PolicyDecision {
                                observed_bits: audit.observed.to_bits(),
                                threshold_bits: audit.threshold.to_bits(),
                                streak: audit.streak,
                                acted,
                            },
                        );
                        self.policy_audit.push((self.now, audit, acted));
                        if acted {
                            let pair = decision.expect("acted implies a decision");
                            self.policy_decisions.push((self.now, pair));
                            self.switch_all(pair);
                        }
                    }
                    self.queue.push(self.now + period, Ev::PolicyTick);
                }
            }
        }
    }

    /// Execute the job to completion and report the outcome.
    pub fn run(&mut self) -> JobOutcome {
        self.trace
            .push(self.now, TraceEvent::Phase { phase: JobPhase::Ph1.code() });
        self.set_phase_all(JobPhase::Ph1.code());
        let initial = self.tracker.initial_assignments();
        for a in initial {
            self.start_task(a);
        }
        if let Some((_, period)) = &self.online {
            let p = *period;
            self.queue.push(SimTime::ZERO + p, Ev::PolicyTick);
        }
        // Claim all same-instant events in one queue touch; dispatch in
        // the exact (time, seq) order single pops would give.
        let mut batch: Vec<Ev> = Vec::with_capacity(64);
        while !self.tracker.finished() {
            // The coarse per-batch span carries the driver's own share
            // of the profile (rearm + claim + dispatch, minus whatever
            // the nested subsystem spans claim for themselves).
            let _batch_span = simcore::prof::span("vcluster.batch");
            // One net timer re-arm per batch: every flow start/finish in
            // the batch just marked `net_stale`, and the network defers
            // its re-solve until `next_completion` asks — so an N-flow
            // same-instant burst costs one water-filling pass, not N.
            if self.net_stale {
                self.net_stale = false;
                self.rearm_net();
            }
            batch.clear();
            let Some(t) = self.queue.pop_batch(&mut batch) else {
                panic!(
                    "event queue drained before job completion (deadlock): \
                     {} maps done, streams={}, fetches={}",
                    self.tracker.maps_done_count(),
                    self.streams.len(),
                    self.fetches.len()
                );
            };
            self.now = t;
            for &ev in &batch {
                // The job can finish mid-batch; stop exactly where a
                // pop-per-event loop would have.
                if self.tracker.finished() {
                    break;
                }
                self.events_processed += 1;
                self.dispatch(t, ev);
            }
        }
        let end = self.tracker.t_job_done.expect("job finished");
        for n in &mut self.nodes {
            n.finish_meters(end);
        }
        let phases = PhaseTimes::new(
            SimTime::ZERO,
            self.tracker.t_maps_done.expect("maps done"),
            self.tracker.t_shuffle_done.expect("shuffle done"),
            end,
        );
        let metrics = self.export_metrics(&phases);
        let trace_digest = combine_digests(
            self.nodes
                .iter()
                .map(|n| n.trace().digest())
                .chain(std::iter::once(self.trace.digest())),
        );
        JobOutcome {
            phases,
            makespan: phases.total(),
            progress: std::mem::take(&mut self.progress),
            dom0_throughput: self
                .nodes
                .iter()
                .map(|n| n.dom0_meter().samples().samples().to_vec())
                .collect(),
            vm_throughput: (0..self.params.shape.total_vms())
                .map(|g| {
                    let (node, vm) = self.gvm_loc(g);
                    self.nodes[node as usize]
                        .vm_meter(vm)
                        .samples()
                        .samples()
                        .to_vec()
                })
                .collect(),
            disk_stats: self.nodes.iter().map(|n| n.disk_stats().clone()).collect(),
            switch_log: std::mem::take(&mut self.switch_log),
            network_bytes: self.net.delivered_bytes() as u64,
            metrics,
            trace_digest,
            events_processed: self.events_processed,
        }
    }

    /// Build the per-run metrics document: cluster sections first
    /// (run, phases), then every node's per-layer sections folded in
    /// node order, the node-0 throughput probe (the paper instruments a
    /// single machine), and cluster-wide network / cache / CPU / trace
    /// accounting. Registration order fixes the JSON byte layout.
    fn export_metrics(&self, phases: &PhaseTimes) -> Json {
        let mut reg = MetricsRegistry::new();
        reg.set_gauge("run", "makespan_s", phases.total().as_secs_f64());
        reg.set_gauge("run", "nodes", self.nodes.len() as f64);
        reg.set_gauge("run", "vms", self.params.shape.total_vms() as f64);
        reg.inc("run", "switches", self.switch_log.len() as u64);
        for p in JobPhase::ALL {
            reg.set_gauge(
                "phases",
                &format!("ph{}_s", p.code()),
                phases.duration(p).as_secs_f64(),
            );
        }
        // Absolute phase boundaries so time series can be cut per phase.
        for (name, t) in phases.boundaries() {
            reg.set_gauge("phases", name, t.as_secs_f64());
        }
        reg.set_gauge(
            "phases",
            "non_concurrent_shuffle_pct",
            phases.non_concurrent_shuffle_pct(),
        );
        for n in &self.nodes {
            n.export_metrics(&mut reg);
        }
        // Telemetry sections (Telemetry::Full only): per-VM series get
        // cluster-global names via each node's VM-0 index.
        for (i, n) in self.nodes.iter().enumerate() {
            n.export_telemetry(&mut reg, i * self.params.shape.vms_per_node as usize);
        }
        self.nodes[0].export_throughput(&mut reg);
        reg.inc("network", "flows", self.flows_started);
        reg.set_gauge("network", "bytes", self.net.delivered_bytes());
        reg.merge_stats("network", "flow_duration_s", &self.flow_stats);
        reg.inc("cache", "hits", self.cache_hits);
        reg.inc("cache", "misses", self.cache_misses);
        for (g, ns) in self.cpu_busy_ns.iter().enumerate() {
            reg.add_gauge("cpu", &format!("vm{g}_busy_s"), *ns as f64 / 1e9);
        }
        // Reactive-switcher decision log — only present when a policy is
        // attached, so plain runs keep their pinned byte layout.
        if self.online.is_some() {
            reg.inc("online", "ticks", self.policy_ticks);
            reg.inc("online", "switch_decisions", self.policy_decisions.len() as u64);
            let all = SchedPair::all();
            for (i, (t, pair)) in self.policy_decisions.iter().enumerate() {
                reg.set_gauge("online", &format!("decision{i}_t_s"), t.as_secs_f64());
                let idx = all.iter().position(|p| p == pair).expect("known pair");
                reg.set_gauge("online", &format!("decision{i}_pair_idx"), idx as f64);
            }
            // Decision audit: every consulted step is counted, state
            // flips separately; the steps that acted export their full
            // observe→threshold→hysteresis provenance so a switch can
            // be explained from the metrics doc alone.
            reg.inc("online", "audit_steps", self.policy_audit.len() as u64);
            let flips = self.policy_audit.iter().filter(|(_, a, _)| a.flipped).count();
            reg.inc("online", "audit_flips", flips as u64);
            let mut k = 0usize;
            for (t, a, acted) in &self.policy_audit {
                if !acted {
                    continue;
                }
                reg.set_gauge("online", &format!("audit{k}_t_s"), t.as_secs_f64());
                reg.set_gauge("online", &format!("audit{k}_observed"), a.observed);
                reg.set_gauge("online", &format!("audit{k}_threshold"), a.threshold);
                reg.set_gauge("online", &format!("audit{k}_streak"), a.streak as f64);
                reg.set_gauge("online", &format!("audit{k}_confirm"), a.confirm as f64);
                k += 1;
            }
        }
        let records: u64 =
            self.nodes.iter().map(|n| n.trace().total()).sum::<u64>() + self.trace.total();
        let dropped: u64 =
            self.nodes.iter().map(|n| n.trace().dropped()).sum::<u64>() + self.trace.dropped();
        reg.inc("trace", "records", records);
        reg.inc("trace", "dropped", dropped);
        let telemetry = match self.params.node.telemetry {
            simcore::Telemetry::Off => "off",
            simcore::Telemetry::Counters => "counters",
            simcore::Telemetry::Full => "full",
        };
        let mut doc = Json::obj()
            .field("schema", "adios.metrics/2")
            .field("telemetry", telemetry);
        if let (Json::Obj(dst), Json::Obj(src)) = (&mut doc, reg.into_json()) {
            dst.extend(src);
        }
        doc
    }

    /// Export the run as a Chrome Trace Event Format document (opens in
    /// Perfetto / `chrome://tracing`). Meaningful only when
    /// `node.trace_capacity` retained the records of interest; rings
    /// that dropped records export what they kept.
    pub fn chrome_trace(&self) -> Json {
        let nodes: Vec<&Trace> = self.nodes.iter().map(|n| n.trace()).collect();
        simcore::trace::to_chrome_json(&self.trace, &nodes)
    }
}

/// Convenience: run `job` under `plan` on `params`, returning the
/// outcome.
pub fn run_job(params: &ClusterParams, job: &JobSpec, plan: SwitchPlan) -> JobOutcome {
    ClusterSim::new(params.clone(), job.clone(), plan).run()
}
