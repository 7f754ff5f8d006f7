//! The Completely Fair Queuing elevator (Linux 2.6 `cfq-iosched`).
//!
//! Each stream ("process" — a task inside a guest, a whole VM at the
//! Dom0 level) gets its own sector-sorted queue of *synchronous*
//! requests; all asynchronous (writeback) requests share one queue.
//! Queues are served round-robin with a time slice (`slice_sync`,
//! default 100 ms); within a slice, if the active queue runs dry, CFQ
//! idles for `slice_idle` (8 ms) waiting for the stream's next sync
//! request rather than seeking away — the same seek-conservation idea
//! as Anticipatory, but bounded per-slice and therefore *fair* among
//! sync streams: each receives an equal share of disk time, which is
//! the behaviour the paper measures in Fig. 3 (best per-VM fairness,
//! slightly lower aggregate throughput than Anticipatory).
//!
//! The async queue joins the round-robin with a shorter slice
//! (`slice_async`) and no idling, reproducing CFQ's trickled writeback.
//! Its streams share no time: the queue is one one-way sector scan
//! with no FIFO expiry, so a writer whose requests sit ahead of the
//! scan keeps it until it has nothing queued. Under a CFQ Dom0 the dd
//! VMs of the Fig. 5 workload write one after another for that reason
//! (EXPERIMENTS.md, D7).

use crate::elevator::{Dispatch, Elevator, SchedKind};
use crate::pool::{add_run_with_merge, PoolKernel, RqPool};
use crate::request::{IoRequest, QueuedRq, RunStep, Sector, SegRun, StreamId};
use simcore::{FxHashMap, SimDuration, SimTime};
use std::collections::VecDeque;

/// CFQ tunables (Linux defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct CfqConfig {
    /// Time slice for sync (per-stream) queues.
    pub slice_sync: SimDuration,
    /// Time slice for the shared async queue.
    pub slice_async: SimDuration,
    /// Idle window within a sync slice while the queue is empty.
    pub slice_idle: SimDuration,
}

impl Default for CfqConfig {
    fn default() -> Self {
        CfqConfig {
            slice_sync: SimDuration::from_millis(100),
            slice_async: SimDuration::from_millis(40),
            slice_idle: SimDuration::from_millis(8),
        }
    }
}

/// Round-robin queue identity. `Sync` holds an *interned* dense index
/// into `Cfq::queues`, not the raw stream id: dispatch-path queue
/// accesses are plain `Vec` indexing with no hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueKey {
    Sync(u32),
    Async,
}

#[derive(Debug, Default, Clone)]
struct CfqQueue<P: PoolKernel = RqPool> {
    pool: P,
    /// One-way scan position within this queue.
    next_sector: Sector,
    /// Is the queue currently linked on the round-robin list?
    on_rr: bool,
}

#[derive(Clone)]
struct ActiveSlice {
    key: QueueKey,
    slice_end: SimTime,
    /// Idle deadline while the queue is empty (set at completion time).
    idle_until: Option<SimTime>,
}

/// The CFQ scheduler. Generic over the pool kernel so the differential
/// suite can run it against the naive oracle; production code uses the
/// default slab [`RqPool`].
#[derive(Clone)]
pub struct Cfq<P: PoolKernel = RqPool> {
    cfg: CfqConfig,
    max_merge_sectors: u64,
    /// stream id -> dense queue index; hashed only on `add` and
    /// `completed`, never on dispatch. Never iterated.
    stream_idx: FxHashMap<StreamId, u32>,
    /// Interned stream table: `streams[i]` owns `queues[i]`. Queues are
    /// kept across empty/refill cycles (streams are long-lived VMs) and
    /// only released by `drain`.
    streams: Vec<StreamId>,
    queues: Vec<CfqQueue<P>>,
    async_queue: CfqQueue<P>,
    rr: VecDeque<QueueKey>,
    active: Option<ActiveSlice>,
    queued: usize,
}

impl<P: PoolKernel> Cfq<P> {
    /// New CFQ elevator.
    pub fn new(cfg: CfqConfig, max_merge_sectors: u64) -> Self {
        Cfq {
            cfg,
            max_merge_sectors,
            stream_idx: FxHashMap::default(),
            streams: Vec::new(),
            queues: Vec::new(),
            async_queue: CfqQueue::default(),
            rr: VecDeque::new(),
            active: None,
            queued: 0,
        }
    }

    /// Dense queue index for `stream`, interning it on first sight.
    fn intern(&mut self, stream: StreamId) -> u32 {
        match self.stream_idx.entry(stream) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let idx = self.streams.len() as u32;
                e.insert(idx);
                self.streams.push(stream);
                self.queues.push(CfqQueue::default());
                idx
            }
        }
    }

    /// Queue an arrival belongs to: its stream's sync queue (interned
    /// on first sight) or the shared async queue.
    fn key_for(&mut self, r: &IoRequest) -> QueueKey {
        if r.sync {
            QueueKey::Sync(self.intern(r.stream))
        } else {
            QueueKey::Async
        }
    }

    fn queue_mut(&mut self, key: QueueKey) -> &mut CfqQueue<P> {
        match key {
            QueueKey::Sync(i) => &mut self.queues[i as usize],
            QueueKey::Async => &mut self.async_queue,
        }
    }

    fn queue(&self, key: QueueKey) -> &CfqQueue<P> {
        match key {
            QueueKey::Sync(i) => &self.queues[i as usize],
            QueueKey::Async => &self.async_queue,
        }
    }

    fn link_rr(&mut self, key: QueueKey) {
        let active_key = self.active.as_ref().map(|a| a.key);
        let q = self.queue_mut(key);
        if !q.on_rr && active_key != Some(key) {
            q.on_rr = true;
            self.rr.push_back(key);
        }
    }

    fn slice_for(&self, key: QueueKey) -> SimDuration {
        match key {
            QueueKey::Sync(_) => self.cfg.slice_sync,
            QueueKey::Async => self.cfg.slice_async,
        }
    }

    /// Expire the active slice, relinking its queue if it still has work.
    fn expire_active(&mut self) {
        if let Some(a) = self.active.take() {
            let key = a.key;
            if !self.queue(key).pool.is_empty() {
                let q = self.queue_mut(key);
                if !q.on_rr {
                    q.on_rr = true;
                    self.rr.push_back(key);
                }
            }
        }
    }

    /// Activate the next queue from the round-robin list.
    fn activate_next(&mut self, now: SimTime) -> bool {
        while let Some(key) = self.rr.pop_front() {
            let q = self.queue_mut(key);
            q.on_rr = false;
            if q.pool.is_empty() {
                continue;
            }
            let slice = self.slice_for(key);
            self.active = Some(ActiveSlice {
                key,
                slice_end: now + slice,
                idle_until: None,
            });
            return true;
        }
        false
    }

    /// Dispatch the next request from the active queue (sector order,
    /// one-way with wrap).
    fn take_from_active(&mut self) -> Option<QueuedRq> {
        let key = self.active.as_ref()?.key;
        let q = self.queue_mut(key);
        let qid = q
            .pool
            .next_at_or_after(q.next_sector)
            .or_else(|| q.pool.first())?;
        let rq = q.pool.remove(qid).expect("live");
        q.next_sector = rq.end();
        self.queued -= 1;
        if let Some(a) = self.active.as_mut() {
            a.idle_until = None;
        }
        Some(rq)
    }
}

impl<P: PoolKernel> Elevator for Cfq<P> {
    fn kind(&self) -> SchedKind {
        SchedKind::Cfq
    }

    fn add_run(&mut self, run: &mut SegRun, _now: SimTime, steps: &mut Vec<RunStep>) {
        let _prof = simcore::prof::span_hot("iosched.add");
        if run.next_len().is_none() {
            return;
        }
        // Every piece maps to the same queue, and `link_rr` is
        // idempotent after the first arrival: intern and link once.
        let key = self.key_for(run.rest());
        let max = self.max_merge_sectors;
        let queued = self.queued;
        let q = self.queue_mut(key);
        let others = queued - q.pool.len();
        add_run_with_merge(&mut q.pool, run, max, others, steps, |_| {});
        self.queued = others + q.pool.len();
        self.link_rr(key);
    }

    fn dispatch(&mut self, now: SimTime) -> Dispatch {
        let _prof = simcore::prof::span_hot("iosched.dispatch");
        loop {
            let Some(active) = self.active.as_ref() else {
                if !self.activate_next(now) {
                    return Dispatch::Empty;
                }
                continue;
            };
            // Slice over?
            if now >= active.slice_end {
                self.expire_active();
                continue;
            }
            let key = active.key;
            let has_work = !self.queue(key).pool.is_empty();
            if has_work {
                match self.take_from_active() {
                    Some(rq) => return Dispatch::Request(rq),
                    None => unreachable!("has_work checked"),
                }
            }
            // Active queue empty: sync queues idle within the slice,
            // waiting for the stream's next request (Linux arms this
            // timer the moment the queue runs dry — cfq_arm_slice_timer
            // — and completions of the stream's in-flight requests
            // refresh it, see `completed`).
            if matches!(key, QueueKey::Sync(_)) {
                let slice_idle = self.cfg.slice_idle;
                let a = self.active.as_mut().unwrap();
                let until = (*a.idle_until.get_or_insert(now + slice_idle)).min(a.slice_end);
                if now < until {
                    return Dispatch::Idle { until };
                }
            }
            // No idle credit (or async queue): give up the slice.
            self.expire_active();
        }
    }

    fn completed(&mut self, rq: &QueuedRq, now: SimTime) {
        // Grant the active sync queue an idle window for its next
        // request, CFQ's intra-slice anticipation.
        if let Some(a) = self.active.as_mut() {
            if let QueueKey::Sync(i) = a.key {
                if rq.sync && self.streams[i as usize] == rq.stream {
                    a.idle_until = Some(now + self.cfg.slice_idle);
                }
            }
        }
    }

    fn queued(&self) -> usize {
        self.queued
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        // Drain order reaches the hot-switch output: sort by stream id
        // (not intern order, which is arrival order) to keep drains
        // byte-identical with the historical goldens. Drains only
        // happen on elevator switches, so the sort is off the hot path.
        let mut out = Vec::with_capacity(self.queued);
        let mut idxs: Vec<u32> = (0..self.queues.len() as u32).collect();
        idxs.sort_unstable_by_key(|&i| self.streams[i as usize]);
        for i in idxs {
            out.extend(self.queues[i as usize].pool.drain_all());
        }
        out.extend(self.async_queue.pool.drain_all());
        self.stream_idx.clear();
        self.streams.clear();
        self.queues.clear();
        self.async_queue = CfqQueue::default();
        self.rr.clear();
        self.active = None;
        self.queued = 0;
        out
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Dir;

    fn sread(id: u64, stream: u32, sector: Sector) -> IoRequest {
        IoRequest {
            id,
            stream,
            sector,
            sectors: 8,
            dir: Dir::Read,
            sync: true,
            submitted: SimTime::ZERO,
        }
    }

    fn awrite(id: u64, stream: u32, sector: Sector) -> IoRequest {
        IoRequest {
            id,
            stream,
            sector,
            sectors: 8,
            dir: Dir::Write,
            sync: false,
            submitted: SimTime::ZERO,
        }
    }

    fn sched() -> Cfq {
        Cfq::new(CfqConfig::default(), 1024)
    }

    fn expect_rq(d: Dispatch) -> QueuedRq {
        match d {
            Dispatch::Request(rq) => rq,
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn serves_one_stream_per_slice() {
        let mut e = sched();
        let now = SimTime::ZERO;
        // Two streams, three requests each.
        for i in 0..3u64 {
            e.add(sread(i * 2 + 1, 1, 1000 + i * 100), now);
            e.add(sread(i * 2 + 2, 2, 900_000 + i * 100), now);
        }
        // Within one slice, all of stream 1 goes first. When its queue
        // runs dry CFQ idles (cfq_arm_slice_timer); the clock advancing
        // past the idle window hands the disk to stream 2.
        let mut t = now;
        let mut streams = Vec::new();
        while streams.len() < 6 {
            match e.dispatch(t) {
                Dispatch::Request(rq) => streams.push(rq.stream),
                Dispatch::Idle { until } => t = until,
                Dispatch::Empty => panic!("queue emptied early"),
            }
        }
        assert_eq!(streams, vec![1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn slice_expiry_rotates_queues() {
        let mut e = sched();
        let now = SimTime::ZERO;
        for i in 0..8u64 {
            e.add(sread(i + 1, 1, 1000 + i * 100), now);
        }
        e.add(sread(100, 2, 900_000), now);
        let rq = expect_rq(e.dispatch(now));
        assert_eq!(rq.stream, 1);
        // Past the 100 ms slice the other stream must get service even
        // though stream 1 still has requests.
        let later = now + SimDuration::from_millis(101);
        let rq2 = expect_rq(e.dispatch(later));
        assert_eq!(rq2.stream, 2);
        // Stream 2's queue is now dry, so CFQ idles for it; once the
        // idle window lapses, the relinked stream 1 continues.
        let t = match e.dispatch(later) {
            Dispatch::Idle { until } => until,
            other => panic!("expected idle for the dry active queue, got {other:?}"),
        };
        let rq3 = expect_rq(e.dispatch(t));
        assert_eq!(rq3.stream, 1);
    }

    #[test]
    fn idles_within_slice_for_active_stream() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(sread(1, 1, 1000), now);
        e.add(sread(2, 2, 900_000), now);
        let rq = expect_rq(e.dispatch(now));
        assert_eq!(rq.stream, 1);
        let t1 = SimTime::from_millis(5);
        e.completed(&rq, t1);
        match e.dispatch(t1) {
            Dispatch::Idle { until } => {
                assert_eq!(until, t1 + SimDuration::from_millis(8));
            }
            other => panic!("expected idle, got {other:?}"),
        }
        // The stream's next sequential read arrives: served immediately.
        e.add(sread(3, 1, 1008), t1 + SimDuration::from_millis(1));
        let rq2 = expect_rq(e.dispatch(t1 + SimDuration::from_millis(1)));
        assert_eq!((rq2.stream, rq2.sector), (1, 1008));
    }

    #[test]
    fn idle_timeout_moves_to_next_queue() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(sread(1, 1, 1000), now);
        e.add(sread(2, 2, 900_000), now);
        let rq = expect_rq(e.dispatch(now));
        let t1 = SimTime::from_millis(5);
        e.completed(&rq, t1);
        let until = match e.dispatch(t1) {
            Dispatch::Idle { until } => until,
            other => panic!("{other:?}"),
        };
        let rq2 = expect_rq(e.dispatch(until));
        assert_eq!(rq2.stream, 2);
    }

    #[test]
    fn async_writes_share_one_queue_and_do_not_idle() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(awrite(1, 1, 1000), now);
        e.add(awrite(2, 2, 2000), now);
        e.add(awrite(3, 3, 3000), now);
        // All in one async queue, served in sector order in one slice.
        let sectors: Vec<Sector> = (0..3)
            .map(|_| expect_rq(e.dispatch(now)).sector)
            .collect();
        assert_eq!(sectors, vec![1000, 2000, 3000]);
        // Queue ran dry: no idling for async.
        assert_eq!(e.dispatch(now), Dispatch::Empty);
    }

    #[test]
    fn sync_preferred_via_rr_order_after_async_slice() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(awrite(1, 1, 1000), now);
        let w = expect_rq(e.dispatch(now));
        assert!(!w.sync);
        // Sync arrival while async slice active; async queue is empty so
        // the slice is given up immediately (no idling for async).
        e.add(sread(2, 2, 5000), now);
        let r = expect_rq(e.dispatch(now));
        assert!(r.sync);
    }

    #[test]
    fn within_queue_sector_order() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(sread(1, 1, 9000), now);
        e.add(sread(2, 1, 1000), now);
        e.add(sread(3, 1, 5000), now);
        let sectors: Vec<Sector> = (0..3)
            .map(|_| expect_rq(e.dispatch(now)).sector)
            .collect();
        assert_eq!(sectors, vec![1000, 5000, 9000]);
    }

    #[test]
    fn fairness_two_equal_streams() {
        // Both streams always have work; count dispatches per stream
        // over many slices — they must be equal.
        let mut e = sched();
        let mut now = SimTime::ZERO;
        let mut id = 0u64;
        let mut counts = [0u32; 2];
        // Keep queues topped up.
        for round in 0..600u64 {
            for s in 0..2u32 {
                id += 1;
                e.add(
                    sread(id, s + 1, s as u64 * 10_000_000 + round * 8),
                    now,
                );
            }
            match e.dispatch(now) {
                Dispatch::Request(rq) => counts[(rq.stream - 1) as usize] += 1,
                Dispatch::Idle { until } => {
                    now = until;
                    continue;
                }
                Dispatch::Empty => {}
            }
            now += SimDuration::from_millis(3); // ~3 ms per request
        }
        let diff = (counts[0] as i64 - counts[1] as i64).abs();
        assert!(
            diff <= (counts[0] + counts[1]) as i64 / 8,
            "unfair service: {counts:?}"
        );
    }

    #[test]
    fn drain_returns_all_and_resets() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(sread(1, 1, 1000), now);
        e.add(sread(2, 2, 2000), now);
        e.add(awrite(3, 1, 3000), now);
        assert_eq!(e.queued(), 3);
        let v = e.drain();
        assert_eq!(v.len(), 3);
        assert_eq!(e.queued(), 0);
        assert_eq!(e.dispatch(now), Dispatch::Empty);
        // Fresh adds work after a drain.
        e.add(sread(4, 5, 100), now);
        assert!(matches!(e.dispatch(now), Dispatch::Request(_)));
    }
}
