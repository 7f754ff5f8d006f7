//! Single-node synthetic workload runner.
//!
//! Drives one [`NodeStack`] with simple I/O processes
//! — the `dd`/Sysbench-style generators the paper uses for its Fig. 1
//! (consolidation study) and Fig. 5 (switch-cost matrix) experiments —
//! and with ad-hoc workloads in tests. MapReduce workloads live in
//! `mrsim`/`vcluster`; this runner is deliberately minimal.

use crate::node::{NodeParams, NodeStack, StackAction, StackEvent, VmId};
use iosched::{Dir, IoRequest, RequestId, SchedKind, SchedPair, StreamId};
use simcore::{EventQueue, FxHashMap, SimDuration, SimRng, SimTime};

/// Access pattern of a synthetic process.
#[derive(Debug, Clone)]
pub enum Pattern {
    /// Sequential within the process's extent.
    Sequential,
    /// Uniformly random chunk positions within the extent (chunk-aligned).
    Random {
        /// Seed for the process's private position stream.
        seed: u64,
    },
    /// Round-robin across `files` equal sub-extents, sequential within
    /// each — Sysbench `fileio seqwr` over its default 16 files, and
    /// the reason the paper's Fig. 1 writers look semi-random to the
    /// disk despite being "sequential".
    RoundRobinFiles {
        /// Number of files the extent is divided into.
        files: u64,
    },
}

/// One synthetic I/O process (think `dd` or one Sysbench thread).
#[derive(Debug, Clone)]
pub struct SyntheticProc {
    /// VM the process runs in.
    pub vm: VmId,
    /// Stream id inside the guest (the guest elevator's "process").
    pub stream: StreamId,
    /// Direction of all its requests.
    pub dir: Dir,
    /// Synchronous requests? (`dd` writeback is async; reads are sync.)
    pub sync: bool,
    /// First sector of the file extent (guest-relative).
    pub start_sector: u64,
    /// Total sectors to transfer.
    pub total_sectors: u64,
    /// Request size in sectors.
    pub chunk_sectors: u64,
    /// Outstanding-request window (writeback window / readahead depth).
    pub window: usize,
    /// Think time between a completion and the next submission.
    pub think: SimDuration,
    /// Access pattern.
    pub pattern: Pattern,
    /// Delay before the process starts issuing.
    pub start_delay: SimDuration,
}

impl SyntheticProc {
    /// A `dd`-style sequential async writer (the paper's switch-cost
    /// workload: `dd if=/dev/zero of=file bs=.. count=..`).
    pub fn dd_writer(vm: VmId, stream: StreamId, start_sector: u64, bytes: u64) -> Self {
        SyntheticProc {
            vm,
            stream,
            dir: Dir::Write,
            sync: false,
            start_sector,
            total_sectors: bytes / 512,
            chunk_sectors: 256, // 128 KiB writeback chunks
            window: 16,
            think: SimDuration::ZERO,
            pattern: Pattern::Sequential,
            start_delay: SimDuration::ZERO,
        }
    }

    /// A Sysbench-style sequential writer (one per VM in Fig. 1).
    /// `sysbench fileio seqwr` spreads its writes over 16 files, but
    /// Linux writeback gathers dirty pages per inode, so the disk still
    /// sees long per-file sequential runs — modelled as one stream.
    /// (Use [`Pattern::RoundRobinFiles`] to model a writeback path with
    /// no per-inode gathering.)
    pub fn sysbench_seqwr(vm: VmId, stream: StreamId, start_sector: u64, bytes: u64) -> Self {
        SyntheticProc {
            window: 16,
            ..Self::dd_writer(vm, stream, start_sector, bytes)
        }
    }

    /// A sequential reader with readahead (e.g. HDFS block streaming).
    pub fn seq_reader(vm: VmId, stream: StreamId, start_sector: u64, bytes: u64) -> Self {
        SyntheticProc {
            vm,
            stream,
            dir: Dir::Read,
            sync: true,
            start_sector,
            total_sectors: bytes / 512,
            chunk_sectors: 256,
            window: 4, // readahead window
            think: SimDuration::from_micros(200),
            pattern: Pattern::Sequential,
            start_delay: SimDuration::ZERO,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunnerEvent {
    Stack(StackEvent),
    Issue { proc: usize },
    SwitchAt { idx: usize },
}

#[derive(Clone)]
struct ProcState {
    spec: SyntheticProc,
    issued_sectors: u64,
    completed_sectors: u64,
    inflight: usize,
    rng: Option<SimRng>,
    finished_at: Option<SimTime>,
}

impl ProcState {
    fn done_issuing(&self) -> bool {
        self.issued_sectors >= self.spec.total_sectors
    }
    fn finished(&self) -> bool {
        self.completed_sectors >= self.spec.total_sectors
    }
}

/// Result of a [`NodeRunner`] run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Time the last process finished (the benchmark's elapsed time).
    pub makespan: SimDuration,
    /// Per-process completion times.
    pub proc_finish: Vec<SimDuration>,
    /// Total bytes transferred.
    pub bytes: u64,
}

/// Event-loop driver for one node plus synthetic processes.
///
/// A runner can be forked at a scheduled switch.
/// [`NodeRunner::run_to_switch`] stops the run where the switch pops,
/// before applying it. A clone of the paused runner, given a target by
/// [`NodeRunner::retarget_switch`], finishes under [`NodeRunner::run`]
/// exactly as a fresh run scheduled with that target does: the target
/// is read only when the switch is applied, and every event before it
/// has already popped, in the same order and with the same sequence
/// numbers.
#[derive(Clone)]
pub struct NodeRunner {
    stack: NodeStack,
    queue: EventQueue<RunnerEvent>,
    procs: Vec<ProcState>,
    /// request id -> proc index (looked up by key, never iterated).
    pending: FxHashMap<RequestId, usize>,
    next_req_id: RequestId,
    /// Stack actions, recycled across `submit_into`/`handle_into` calls.
    actions: Vec<StackAction>,
    now: SimTime,
    /// Scheduled mid-run switches: when, and the new Dom0 and guest
    /// elevators (`None` keeps that level's). Sorted by time when the
    /// run starts; a `SwitchAt { idx }` event names entry `idx`.
    switches: Vec<(SimTime, Option<SchedKind>, Option<SchedKind>)>,
    /// Process starts and switches are queued.
    started: bool,
    /// The switch `run_to_switch` stopped at, applied by the next call
    /// that runs.
    paused: Option<usize>,
}

impl NodeRunner {
    /// Build a runner over a fresh node stack.
    pub fn new(params: NodeParams, vm_count: u32, pair: SchedPair) -> Self {
        NodeRunner {
            stack: NodeStack::new(params, vm_count, pair),
            queue: EventQueue::new(),
            procs: Vec::new(),
            pending: FxHashMap::default(),
            next_req_id: 1,
            actions: Vec::new(),
            now: SimTime::ZERO,
            switches: Vec::new(),
            started: false,
            paused: None,
        }
    }

    /// Access the underlying stack (meters, stats).
    pub fn stack(&self) -> &NodeStack {
        &self.stack
    }

    /// Register a synthetic process before `run`.
    pub fn add_proc(&mut self, spec: SyntheticProc) {
        assert!(!self.started, "processes are added before the run starts");
        let rng = match spec.pattern {
            Pattern::Random { seed } => Some(SimRng::from_seed(seed)),
            Pattern::Sequential | Pattern::RoundRobinFiles { .. } => None,
        };
        self.procs.push(ProcState {
            spec,
            issued_sectors: 0,
            completed_sectors: 0,
            inflight: 0,
            rng,
            finished_at: None,
        });
    }

    /// Schedule a pair switch at an absolute time during the run.
    pub fn switch_at(&mut self, at: SimTime, pair: SchedPair) {
        self.schedule_switch(at, Some(pair.host), Some(pair.guest));
    }

    /// Schedule a Dom0-only switch (the guests keep their elevator).
    pub fn switch_host_at(&mut self, at: SimTime, host: SchedKind) {
        self.schedule_switch(at, Some(host), None);
    }

    /// Schedule a guests-only switch (Dom0 keeps its elevator).
    pub fn switch_guests_at(&mut self, at: SimTime, guest: SchedKind) {
        self.schedule_switch(at, None, Some(guest));
    }

    fn schedule_switch(&mut self, at: SimTime, host: Option<SchedKind>, guest: Option<SchedKind>) {
        assert!(!self.started, "switches are scheduled before the run starts");
        self.switches.push((at, host, guest));
    }

    /// Replace the target of the switch this runner is paused at (see
    /// [`NodeRunner::run_to_switch`]): Dom0 to `host` and every guest
    /// to `guest`, `None` keeping that level's elevator.
    ///
    /// # Panics
    ///
    /// If the runner is not paused at a switch.
    pub fn retarget_switch(&mut self, host: Option<SchedKind>, guest: Option<SchedKind>) {
        let idx = self.paused.expect("retarget_switch needs a runner paused at a switch");
        self.switches[idx] = (self.switches[idx].0, host, guest);
    }

    /// Carry out (and empty) `actions`.
    fn apply(&mut self, actions: &mut Vec<StackAction>) {
        for a in actions.drain(..) {
            match a {
                StackAction::At(t, ev) => self.queue.push(t, RunnerEvent::Stack(ev)),
                StackAction::IoDone { req, bytes, .. } => {
                    let idx = self
                        .pending
                        .remove(&req)
                        .expect("completion for unknown request");
                    let p = &mut self.procs[idx];
                    p.inflight -= 1;
                    p.completed_sectors += bytes / 512;
                    if p.finished() && p.finished_at.is_none() {
                        p.finished_at = Some(self.now);
                    }
                    let think = p.spec.think;
                    if !p.done_issuing() {
                        self.queue
                            .push(self.now + think, RunnerEvent::Issue { proc: idx });
                    }
                }
                StackAction::SwitchComplete { .. } => {}
            }
        }
    }

    fn issue_one(&mut self, idx: usize) {
        let p = &mut self.procs[idx];
        if p.done_issuing() {
            return;
        }
        let chunk = p.spec.chunk_sectors.min(p.spec.total_sectors - p.issued_sectors);
        let sector = match &p.spec.pattern {
            Pattern::Sequential => p.spec.start_sector + p.issued_sectors,
            Pattern::Random { .. } => {
                let rng = p.rng.as_mut().expect("random pattern has rng");
                let slots = p.spec.total_sectors / p.spec.chunk_sectors;
                let slot = rng.range_u64(0, slots.max(1));
                p.spec.start_sector + slot * p.spec.chunk_sectors
            }
            Pattern::RoundRobinFiles { files } => {
                let files = (*files).max(1);
                let idx = p.issued_sectors / p.spec.chunk_sectors;
                let file = idx % files;
                let within = idx / files;
                let file_len = p.spec.total_sectors / files;
                p.spec.start_sector + file * file_len + within * p.spec.chunk_sectors
            }
        };
        p.issued_sectors += chunk;
        p.inflight += 1;
        let id = self.next_req_id;
        self.next_req_id += 1;
        let req = IoRequest {
            id,
            stream: p.spec.stream,
            sector,
            sectors: chunk,
            dir: p.spec.dir,
            sync: p.spec.sync,
            submitted: self.now,
        };
        let vm = p.spec.vm;
        self.pending.insert(id, idx);
        let mut actions = std::mem::take(&mut self.actions);
        self.stack.submit_into(self.now, vm, req, &mut actions);
        self.apply(&mut actions);
        self.actions = actions;
    }

    /// Fill a process's window.
    fn prime(&mut self, idx: usize) {
        while self.procs[idx].inflight < self.procs[idx].spec.window
            && !self.procs[idx].done_issuing()
        {
            self.issue_one(idx);
        }
    }

    /// Queue the process starts, then the switches in time order, once.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.procs.len() {
            let at = SimTime::ZERO + self.procs[i].spec.start_delay;
            self.queue.push(at, RunnerEvent::Issue { proc: i });
        }
        self.switches.sort_by_key(|&(t, _, _)| t);
        for (idx, &(t, _, _)) in self.switches.iter().enumerate() {
            self.queue.push(t, RunnerEvent::SwitchAt { idx });
        }
    }

    /// Begin scheduled switch `idx` now.
    fn begin_switch(&mut self, idx: usize) {
        let (_, host, guest) = self.switches[idx];
        let mut actions = self.stack.begin_switch(self.now, host, guest);
        self.apply(&mut actions);
    }

    /// Apply the switch the runner is paused at, if any, then pop events
    /// until the queue is empty (`false`) or, with `pause`, until a
    /// switch pops (`true`; that switch is left unapplied in `paused`).
    fn advance(&mut self, pause: bool) -> bool {
        self.start();
        if let Some(idx) = self.paused.take() {
            self.begin_switch(idx);
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            match ev {
                RunnerEvent::Stack(s) => {
                    let mut actions = std::mem::take(&mut self.actions);
                    self.stack.handle_into(t, s, &mut actions);
                    self.apply(&mut actions);
                    self.actions = actions;
                }
                RunnerEvent::Issue { proc } => self.prime(proc),
                RunnerEvent::SwitchAt { idx } if pause => {
                    self.paused = Some(idx);
                    return true;
                }
                RunnerEvent::SwitchAt { idx } => self.begin_switch(idx),
            }
        }
        false
    }

    /// Run until the next scheduled switch pops, and return its instant
    /// without applying it; `None` once no switch is left to pop and the
    /// run is over. The next [`NodeRunner::run`] or `run_to_switch`
    /// applies the switch at that instant, with the target it has then
    /// (see [`NodeRunner::retarget_switch`]).
    pub fn run_to_switch(&mut self) -> Option<SimTime> {
        self.advance(true).then_some(self.now)
    }

    /// Run to completion; returns the outcome. A runner paused by
    /// [`NodeRunner::run_to_switch`] first applies the switch it
    /// stopped at.
    pub fn run(&mut self) -> RunOutcome {
        self.advance(false);

        assert!(
            self.procs.iter().all(|p| p.finished()),
            "run ended with unfinished processes (lost completions?)"
        );
        let makespan = self
            .procs
            .iter()
            .map(|p| p.finished_at.expect("finished"))
            .max()
            .unwrap_or(SimTime::ZERO)
            .saturating_since(SimTime::ZERO);
        self.stack.finish_meters(self.now);
        RunOutcome {
            makespan,
            proc_finish: self
                .procs
                .iter()
                .map(|p| p.finished_at.unwrap().saturating_since(SimTime::ZERO))
                .collect(),
            bytes: self.procs.iter().map(|p| p.spec.total_sectors * 512).sum(),
        }
    }
}
