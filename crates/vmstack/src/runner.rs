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
    /// elevators (`None` keeps that level's).
    switches: Vec<(SimTime, Option<SchedKind>, Option<SchedKind>)>,
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
        }
    }

    /// Access the underlying stack (meters, stats).
    pub fn stack(&self) -> &NodeStack {
        &self.stack
    }

    /// Register a synthetic process before `run`.
    pub fn add_proc(&mut self, spec: SyntheticProc) {
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
        self.switches.push((at, Some(pair.host), Some(pair.guest)));
    }

    /// Schedule a Dom0-only switch (the guests keep their elevator).
    pub fn switch_host_at(&mut self, at: SimTime, host: SchedKind) {
        self.switches.push((at, Some(host), None));
    }

    /// Schedule a guests-only switch (Dom0 keeps its elevator).
    pub fn switch_guests_at(&mut self, at: SimTime, guest: SchedKind) {
        self.switches.push((at, None, Some(guest)));
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

    /// Run to completion; returns the outcome.
    pub fn run(&mut self) -> RunOutcome {
        // Schedule process starts and switches.
        for i in 0..self.procs.len() {
            let at = SimTime::ZERO + self.procs[i].spec.start_delay;
            self.queue.push(at, RunnerEvent::Issue { proc: i });
        }
        let mut switches = std::mem::take(&mut self.switches);
        switches.sort_by_key(|&(t, _, _)| t);
        for (idx, &(t, _, _)) in switches.iter().enumerate() {
            self.queue.push(t, RunnerEvent::SwitchAt { idx });
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
                RunnerEvent::SwitchAt { idx } => {
                    let (_, host, guest) = switches[idx];
                    let mut actions = self.stack.begin_switch(t, host, guest);
                    self.apply(&mut actions);
                }
            }
        }

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
