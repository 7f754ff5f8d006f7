//! The JobTracker: block placement, slot scheduling in waves, shuffle
//! availability, and job progress events.
//!
//! Scheduling follows Hadoop 0.19 with the paper's setup: map tasks are
//! data-local (HDFS blocks are spread evenly over the data nodes, each
//! map runs where its block's first replica lives), every VM offers
//! `map_slots_per_vm` + `reduce_slots_per_vm` slots, reducers all start
//! with the job (so shuffle overlaps the map waves), and a reducer can
//! fetch a map's output as soon as that map commits.
//!
//! Task ids are local to the job: map `b` (the one over block `b`) is
//! id `b`, and reduce `r` is `num_maps + r`. Concurrent jobs on one
//! cluster reuse the same ids; whoever tracks several jobs keys tasks
//! by job first.

use crate::job::{ClusterShape, JobSpec};
use crate::plan::TaskId;
use simcore::SimTime;

/// Task flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Map task.
    Map,
    /// Reduce task.
    Reduce,
}

/// A task assignment to a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// The task.
    pub task: TaskId,
    /// Its flavour.
    pub kind: TaskKind,
    /// Global VM index (`node * vms_per_node + local`).
    pub gvm: u32,
    /// For maps: the HDFS block processed.
    pub block: Option<u32>,
}

/// Progress milestones the tracker emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// Every map task has committed (end of the paper's Ph1).
    MapsAllDone,
    /// One reducer finished fetching all partitions.
    ReduceShuffleDone(TaskId),
    /// Every reducer finished fetching (end of the paper's Ph2).
    ShuffleAllDone,
    /// Every reduce task has committed.
    JobDone,
}

/// The job tracker.
pub struct JobTracker {
    shape: ClusterShape,
    num_maps: u32,
    num_reduces: u32,
    /// Reduce indices handed out so far via [`JobTracker::next_reduce`].
    reduces_started: u32,
    /// Per VM, the next block not yet handed out. Block `b` lives on VM
    /// `b % total_vms`, so VM `g`'s blocks are `g, g + total_vms, …`
    /// and popping one steps the cursor by `total_vms`; a cursor at or
    /// past `num_maps` means the VM has none left.
    next_block: Vec<u32>,
    /// Maps not yet handed out, over all VMs.
    pending_maps: u32,
    maps_done: Vec<bool>,
    maps_done_count: u32,
    /// `fetched[reduce * num_maps + map]`.
    fetched: Vec<bool>,
    fetch_count: Vec<u32>,
    shuffle_done: Vec<bool>,
    shuffle_done_count: u32,
    reduces_done: Vec<bool>,
    reduces_done_count: u32,
    /// When the last map committed.
    pub t_maps_done: Option<SimTime>,
    /// When the last reducer finished fetching.
    pub t_shuffle_done: Option<SimTime>,
    /// When the job committed.
    pub t_job_done: Option<SimTime>,
}

impl JobTracker {
    /// Plan a job on a cluster: places block `b` (and map `b`) on VM
    /// `b % total_vms`, reducer `r` on VM `r / reduce_slots_per_vm`.
    pub fn new(job: &JobSpec, shape: &ClusterShape) -> Self {
        job.validate(shape).expect("invalid job spec");
        let num_maps = job.num_blocks(shape);
        let num_reduces = job.num_reduces(shape);
        JobTracker {
            shape: *shape,
            num_maps,
            num_reduces,
            reduces_started: 0,
            next_block: (0..shape.total_vms()).collect(),
            pending_maps: num_maps,
            maps_done: vec![false; num_maps as usize],
            maps_done_count: 0,
            fetched: vec![false; num_maps as usize * num_reduces as usize],
            fetch_count: vec![0; num_reduces as usize],
            shuffle_done: vec![false; num_reduces as usize],
            shuffle_done_count: 0,
            reduces_done: vec![false; num_reduces as usize],
            reduces_done_count: 0,
            t_maps_done: None,
            t_shuffle_done: None,
            t_job_done: None,
        }
    }

    /// Total map tasks.
    pub fn num_maps(&self) -> u32 {
        self.num_maps
    }

    /// Total reduce tasks.
    pub fn num_reduces(&self) -> u32 {
        self.num_reduces
    }

    /// The VM hosting block `b`'s first replica (and its map task).
    pub fn block_home(&self, block: u32) -> u32 {
        block % self.shape.total_vms()
    }

    /// The block a map task id processes.
    pub fn map_block(&self, task: TaskId) -> u32 {
        debug_assert!(task < self.num_maps);
        task
    }

    /// The VM a reduce task runs on.
    pub fn reduce_home(&self, reduce_idx: u32) -> u32 {
        reduce_idx / self.shape.reduce_slots_per_vm
    }

    /// Task id of reduce index `r`.
    pub fn reduce_task_id(&self, r: u32) -> TaskId {
        self.num_maps + r
    }

    /// Reduce index of a reduce task id.
    pub fn reduce_index(&self, task: TaskId) -> u32 {
        debug_assert!(task >= self.num_maps);
        task - self.num_maps
    }

    /// First-wave assignments: fill every map slot from its VM's local
    /// queue and start every reducer.
    pub fn initial_assignments(&mut self) -> Vec<Assignment> {
        let mut out = Vec::new();
        for gvm in 0..self.shape.total_vms() {
            for _ in 0..self.shape.map_slots_per_vm {
                out.extend(self.pop_local_map(gvm));
            }
        }
        for r in 0..self.num_reduces {
            out.push(Assignment {
                task: self.reduce_task_id(r),
                kind: TaskKind::Reduce,
                gvm: self.reduce_home(r),
                block: None,
            });
        }
        self.reduces_started = self.num_reduces;
        out
    }

    /// Pull one pending data-local map for VM `gvm` (slot-at-a-time
    /// scheduling under slot contention, instead of the greedy
    /// [`JobTracker::initial_assignments`] wave).
    pub fn pop_local_map(&mut self, gvm: u32) -> Option<Assignment> {
        let next = &mut self.next_block[gvm as usize];
        let block = *next;
        if block >= self.num_maps {
            return None;
        }
        *next += self.shape.total_vms();
        self.pending_maps -= 1;
        Some(Assignment {
            task: block,
            kind: TaskKind::Map,
            gvm,
            block: Some(block),
        })
    }

    /// Maps not yet handed out.
    pub fn pending_map_count(&self) -> u32 {
        self.pending_maps
    }

    /// Hand out the next not-yet-started reduce task, in index order.
    /// Mixing this with [`JobTracker::initial_assignments`] (which
    /// starts every reducer) yields nothing further.
    pub fn next_reduce(&mut self) -> Option<Assignment> {
        if self.reduces_started == self.num_reduces {
            return None;
        }
        let r = self.reduces_started;
        self.reduces_started += 1;
        Some(Assignment {
            task: self.reduce_task_id(r),
            kind: TaskKind::Reduce,
            gvm: self.reduce_home(r),
            block: None,
        })
    }

    /// A map committed: frees its slot (next local map is assigned) and
    /// makes its output fetchable.
    pub fn on_map_done(
        &mut self,
        map: TaskId,
        now: SimTime,
    ) -> (Option<Assignment>, Vec<JobEvent>) {
        let m = self.map_block(map);
        assert!(!self.maps_done[m as usize], "map {map} finished twice");
        self.maps_done[m as usize] = true;
        self.maps_done_count += 1;
        let mut events = Vec::new();
        if self.maps_done_count == self.num_maps {
            self.t_maps_done = Some(now);
            events.push(JobEvent::MapsAllDone);
        }
        let gvm = self.block_home(m);
        let next = self.pop_local_map(gvm);
        (next, events)
    }

    /// Record that reduce index `r` finished fetching map `m`'s output.
    pub fn on_fetch_complete(&mut self, r: u32, m: TaskId, now: SimTime) -> Vec<JobEvent> {
        let m = self.map_block(m);
        assert!(
            self.maps_done[m as usize],
            "fetched output of unfinished map {m}"
        );
        let fetched = &mut self.fetched[r as usize * self.num_maps as usize + m as usize];
        assert!(!*fetched, "reduce {r} fetched map {m} twice");
        *fetched = true;
        self.fetch_count[r as usize] += 1;
        let mut events = Vec::new();
        if self.fetch_count[r as usize] == self.num_maps {
            self.shuffle_done[r as usize] = true;
            self.shuffle_done_count += 1;
            events.push(JobEvent::ReduceShuffleDone(self.reduce_task_id(r)));
            if self.shuffle_done_count == self.num_reduces {
                self.t_shuffle_done = Some(now);
                events.push(JobEvent::ShuffleAllDone);
            }
        }
        events
    }

    /// True once reduce index `r` fetched every partition.
    pub fn reduce_shuffle_complete(&self, r: u32) -> bool {
        self.shuffle_done[r as usize]
    }

    /// A reduce task committed.
    pub fn on_reduce_done(&mut self, task: TaskId, now: SimTime) -> Vec<JobEvent> {
        let r = self.reduce_index(task) as usize;
        assert!(!self.reduces_done[r], "reduce {task} finished twice");
        self.reduces_done[r] = true;
        self.reduces_done_count += 1;
        if self.reduces_done_count == self.num_reduces {
            self.t_job_done = Some(now);
            vec![JobEvent::JobDone]
        } else {
            Vec::new()
        }
    }

    /// Completed map count (progress reporting).
    pub fn maps_done_count(&self) -> u32 {
        self.maps_done_count
    }

    /// Completed reduce count (progress reporting).
    pub fn reduces_done_count(&self) -> u32 {
        self.reduces_done_count
    }

    /// True when the job has fully committed.
    pub fn finished(&self) -> bool {
        self.reduces_done_count == self.num_reduces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn setup() -> (JobSpec, ClusterShape, JobTracker) {
        let job = JobSpec::new(WorkloadSpec::sort());
        let shape = ClusterShape::default();
        let t = JobTracker::new(&job, &shape);
        (job, shape, t)
    }

    #[test]
    fn initial_wave_fills_slots() {
        let (_, shape, mut t) = setup();
        let a = t.initial_assignments();
        let maps = a.iter().filter(|x| x.kind == TaskKind::Map).count();
        let reduces = a.iter().filter(|x| x.kind == TaskKind::Reduce).count();
        assert_eq!(maps, shape.total_map_slots() as usize);
        assert_eq!(reduces, t.num_reduces() as usize);
        // Every map is data-local.
        for x in a.iter().filter(|x| x.kind == TaskKind::Map) {
            assert_eq!(x.gvm, t.block_home(x.block.unwrap()));
        }
    }

    #[test]
    fn waves_progress_and_maps_done_event() {
        let (_, _, mut t) = setup();
        let first = t.initial_assignments();
        let mut running: Vec<TaskId> = first
            .iter()
            .filter(|a| a.kind == TaskKind::Map)
            .map(|a| a.task)
            .collect();
        let mut done = 0;
        let mut now = SimTime::ZERO;
        let mut saw_maps_done = false;
        while let Some(m) = running.pop() {
            now += simcore::SimDuration::from_secs(1);
            let (next, events) = t.on_map_done(m, now);
            done += 1;
            if let Some(a) = next {
                assert_eq!(a.kind, TaskKind::Map);
                running.push(a.task);
            }
            if events.contains(&JobEvent::MapsAllDone) {
                saw_maps_done = true;
                assert_eq!(done, t.num_maps());
            }
        }
        assert!(saw_maps_done);
        assert_eq!(t.maps_done_count(), t.num_maps());
        assert_eq!(t.t_maps_done, Some(now));
    }

    #[test]
    fn shuffle_completion_events() {
        let (_, _, mut t) = setup();
        t.initial_assignments();
        let now = SimTime::from_secs(1);
        // Finish all maps.
        let mut frontier: Vec<TaskId> = (0..t.num_maps()).collect();
        for m in frontier.drain(..) {
            // Ignore slot refills; all maps eventually finish.
            if !t.maps_done[m as usize] {
                t.on_map_done(m, now);
            }
        }
        assert_eq!(t.maps_done_count(), t.num_maps());
        // Reduce 0 fetches everything.
        let mut saw_rsd = false;
        for m in 0..t.num_maps() {
            let ev = t.on_fetch_complete(0, m, now);
            if m + 1 == t.num_maps() {
                assert!(ev.contains(&JobEvent::ReduceShuffleDone(t.reduce_task_id(0))));
                saw_rsd = true;
            } else {
                assert!(ev.is_empty());
            }
        }
        assert!(saw_rsd);
        assert!(t.reduce_shuffle_complete(0));
        assert!(!t.reduce_shuffle_complete(1));
        // Remaining reducers fetch: the last one triggers ShuffleAllDone.
        let mut saw_all = false;
        for r in 1..t.num_reduces() {
            for m in 0..t.num_maps() {
                let ev = t.on_fetch_complete(r, m, now);
                if ev.contains(&JobEvent::ShuffleAllDone) {
                    saw_all = true;
                    assert_eq!(r, t.num_reduces() - 1);
                }
            }
        }
        assert!(saw_all);
        assert_eq!(t.t_shuffle_done, Some(now));
    }

    #[test]
    fn job_done_event() {
        let (_, _, mut t) = setup();
        let now = SimTime::from_secs(9);
        let mut saw = false;
        for r in 0..t.num_reduces() {
            let ev = t.on_reduce_done(t.reduce_task_id(r), now);
            if ev.contains(&JobEvent::JobDone) {
                saw = true;
                assert_eq!(r, t.num_reduces() - 1);
            }
        }
        assert!(saw);
        assert!(t.finished());
        assert_eq!(t.t_job_done, Some(now));
    }

    #[test]
    fn reduce_placement_two_per_vm() {
        let (_, shape, t) = setup();
        let mut per_vm = vec![0u32; shape.total_vms() as usize];
        for r in 0..t.num_reduces() {
            per_vm[t.reduce_home(r) as usize] += 1;
        }
        assert!(per_vm.iter().all(|&c| c == shape.reduce_slots_per_vm));
    }

    /// Slot-at-a-time scheduling: local pulls hand every map out exactly
    /// once, on its block's VM in ascending block order, the pending
    /// count tracks them, and `next_reduce` hands each reducer out
    /// exactly once.
    #[test]
    fn incremental_slot_pulls() {
        let job = JobSpec::new(WorkloadSpec::sort());
        let shape = ClusterShape::default();
        let mut t = JobTracker::new(&job, &shape);
        let total = t.pending_map_count();
        assert_eq!(total, t.num_maps());
        assert!(total > 2 * shape.total_vms(), "several blocks per VM");
        let mut handed = vec![0u32; total as usize];
        // VM 2 first, then every VM from the highest down: the order
        // pulls are asked in must not change which block a VM yields.
        for gvm in std::iter::once(2).chain((0..shape.total_vms()).rev()) {
            let mut last = None;
            while let Some(a) = t.pop_local_map(gvm) {
                let b = a.block.unwrap();
                assert_eq!((a.gvm, a.kind, a.task), (gvm, TaskKind::Map, b));
                assert_eq!(t.block_home(b), gvm);
                assert!(last < Some(b), "vm {gvm} handed block {b} after {last:?}");
                last = Some(b);
                handed[b as usize] += 1;
                assert_eq!(t.pending_map_count(), total - handed.iter().sum::<u32>());
            }
        }
        assert!(handed.iter().all(|&n| n == 1), "every map exactly once: {handed:?}");
        assert_eq!(t.pending_map_count(), 0);
        let mut reduces = 0;
        while let Some(r) = t.next_reduce() {
            assert_eq!(r.kind, TaskKind::Reduce);
            assert_eq!(r.gvm, t.reduce_home(t.reduce_index(r.task)));
            reduces += 1;
        }
        assert_eq!(reduces, t.num_reduces());
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn double_completion_rejected() {
        let (_, _, mut t) = setup();
        t.on_map_done(0, SimTime::ZERO);
        t.on_map_done(0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "unfinished map")]
    fn premature_fetch_rejected() {
        let (_, _, mut t) = setup();
        t.on_fetch_complete(0, 5, SimTime::ZERO);
    }
}
