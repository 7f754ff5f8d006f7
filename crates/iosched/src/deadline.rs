//! The deadline elevator (Linux 2.6 `deadline-iosched`).
//!
//! Requests live in a per-direction sector-sorted list (serviced as a
//! one-way scan in batches of `fifo_batch`) and a per-direction FIFO
//! carrying an expiry deadline (500 ms reads, 5 s writes). Batches
//! continue the scan; when the FIFO head of the chosen direction has
//! expired, the scan jumps to it — bounding starvation at the cost of a
//! seek. Reads are preferred over writes, but writes may only be starved
//! for `writes_starved` consecutive read batches.

use crate::elevator::{Dispatch, Elevator, SchedKind};
use crate::pool::{add_run_with_merge, DeadlineFifo, DirPools, PoolKernel, RqPool};
use crate::request::{Dir, QueuedRq, RunStep, Sector, SegRun};
use simcore::{SimDuration, SimTime};

/// Deadline tunables (`/sys/block/<dev>/queue/iosched/*` defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineConfig {
    /// Read FIFO expiry.
    pub read_expire: SimDuration,
    /// Write FIFO expiry.
    pub write_expire: SimDuration,
    /// Maximum requests per scan batch.
    pub fifo_batch: u32,
    /// Read batches a pending write may be starved for.
    pub writes_starved: u32,
}

impl Default for DeadlineConfig {
    fn default() -> Self {
        DeadlineConfig {
            read_expire: SimDuration::from_millis(500),
            write_expire: SimDuration::from_secs(5),
            fifo_batch: 16,
            writes_starved: 2,
        }
    }
}

/// The deadline scheduler. Generic over the pool kernel so the
/// differential suite can run it against the naive oracle; production
/// code uses the default slab [`RqPool`].
#[derive(Clone)]
pub struct DeadlineSched<P: PoolKernel = RqPool> {
    cfg: DeadlineConfig,
    max_merge_sectors: u64,
    pools: DirPools<P>,
    fifo: [DeadlineFifo; 2],
    /// One-way scan position (end of the last dispatched request).
    next_sector: Sector,
    /// Direction of the current batch.
    batch_dir: Dir,
    /// Requests remaining in the current batch.
    batch_left: u32,
    /// Consecutive read batches dispatched while writes were pending.
    starved: u32,
}

impl<P: PoolKernel> DeadlineSched<P> {
    /// New deadline elevator.
    pub fn new(cfg: DeadlineConfig, max_merge_sectors: u64) -> Self {
        DeadlineSched {
            cfg,
            max_merge_sectors,
            pools: DirPools::new(),
            fifo: [DeadlineFifo::new(), DeadlineFifo::new()],
            next_sector: 0,
            batch_dir: Dir::Read,
            batch_left: 0,
            starved: 0,
        }
    }

    fn expire_for(&self, dir: Dir) -> SimDuration {
        match dir {
            Dir::Read => self.cfg.read_expire,
            Dir::Write => self.cfg.write_expire,
        }
    }

    /// Pick the request to start a new batch with in `dir`.
    fn start_batch(&mut self, dir: Dir, now: SimTime) -> Option<QueuedRq> {
        let pool = self.pools.pool_mut(dir);
        // Expired FIFO head takes priority and moves the scan.
        let qid = if let Some(expired) = self.fifo[dir.idx()].head_expired(pool, now) {
            expired
        } else {
            // Continue the one-way scan, wrapping to the lowest sector.
            pool.next_at_or_after(self.next_sector)
                .or_else(|| pool.first())?
        };
        let rq = pool.remove(qid).expect("selected qid is live");
        self.batch_dir = dir;
        self.batch_left = self.cfg.fifo_batch.saturating_sub(1);
        self.next_sector = rq.end();
        Some(rq)
    }

    /// Continue the current batch if possible.
    fn continue_batch(&mut self, now: SimTime) -> Option<QueuedRq> {
        if self.batch_left == 0 {
            return None;
        }
        let dir = self.batch_dir;
        // An expired head in the *batch* direction still preempts the
        // scan inside the batch (Linux checks fifo on every dispatch of
        // a new batch only; we match that by ending the batch instead).
        if self.fifo[dir.idx()]
            .head_expired(self.pools.pool(dir), now)
            .is_some()
        {
            self.batch_left = 0;
            return None;
        }
        let pool = self.pools.pool_mut(dir);
        let qid = pool.next_at_or_after(self.next_sector)?;
        let rq = pool.remove(qid).expect("live");
        self.batch_left -= 1;
        self.next_sector = rq.end();
        Some(rq)
    }
}

impl<P: PoolKernel> Elevator for DeadlineSched<P> {
    fn kind(&self) -> SchedKind {
        SchedKind::Deadline
    }

    fn add_run(&mut self, run: &mut SegRun, now: SimTime, steps: &mut Vec<RunStep>) {
        let _prof = simcore::prof::span_hot("iosched.add");
        let dir = run.rest().dir;
        let deadline = now + self.expire_for(dir);
        let others = self.pools.len() - self.pools.pool(dir).len();
        let fifo = &mut self.fifo[dir.idx()];
        add_run_with_merge(
            self.pools.pool_mut(dir),
            run,
            self.max_merge_sectors,
            others,
            steps,
            |qid| fifo.push(qid, deadline),
        );
    }

    fn dispatch(&mut self, now: SimTime) -> Dispatch {
        let _prof = simcore::prof::span_hot("iosched.dispatch");
        if let Some(rq) = self.continue_batch(now) {
            return Dispatch::Request(rq);
        }
        let reads = !self.pools.pool(Dir::Read).is_empty();
        let writes = !self.pools.pool(Dir::Write).is_empty();
        let dir = match (reads, writes) {
            (false, false) => return Dispatch::Empty,
            (true, false) => Dir::Read,
            (false, true) => Dir::Write,
            (true, true) => {
                if self.starved >= self.cfg.writes_starved {
                    Dir::Write
                } else {
                    Dir::Read
                }
            }
        };
        match dir {
            Dir::Read if writes => self.starved += 1,
            Dir::Read => self.starved = 0,
            Dir::Write => self.starved = 0,
        }
        match self.start_batch(dir, now) {
            Some(rq) => Dispatch::Request(rq),
            None => Dispatch::Empty,
        }
    }

    fn completed(&mut self, _rq: &QueuedRq, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.pools.len()
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        self.fifo[0].clear();
        self.fifo[1].clear();
        self.batch_left = 0;
        self.pools.drain_all()
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AddOutcome, IoRequest};

    fn req(id: u64, stream: u32, sector: Sector, sectors: u64, dir: Dir) -> IoRequest {
        IoRequest {
            id,
            stream,
            sector,
            sectors,
            dir,
            sync: dir == Dir::Read,
            submitted: SimTime::ZERO,
        }
    }

    fn sched() -> DeadlineSched {
        DeadlineSched::new(DeadlineConfig::default(), 1024)
    }

    fn take(e: &mut DeadlineSched, now: SimTime) -> Vec<Sector> {
        std::iter::from_fn(|| match e.dispatch(now) {
            Dispatch::Request(rq) => Some(rq.sector),
            _ => None,
        })
        .collect()
    }

    #[test]
    fn sorts_within_batch() {
        let mut e = sched();
        let now = SimTime::ZERO;
        for (id, s) in [(1u64, 9000u64), (2, 1000), (3, 5000), (4, 3000)] {
            e.add(req(id, 0, s, 8, Dir::Read), now);
        }
        assert_eq!(take(&mut e, now), vec![1000, 3000, 5000, 9000]);
    }

    #[test]
    fn one_way_scan_wraps() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(req(1, 0, 5000, 8, Dir::Read), now);
        match e.dispatch(now) {
            Dispatch::Request(rq) => assert_eq!(rq.sector, 5000),
            other => panic!("{other:?}"),
        }
        // Scan position is now 5008; a lower-sector request wraps.
        e.add(req(2, 0, 1000, 8, Dir::Read), now);
        e.add(req(3, 0, 6000, 8, Dir::Read), now);
        assert_eq!(take(&mut e, now), vec![6000, 1000]);
    }

    #[test]
    fn reads_preferred_but_writes_not_starved_forever() {
        let cfg = DeadlineConfig {
            fifo_batch: 1, // one request per batch to see direction flips
            ..DeadlineConfig::default()
        };
        let mut e: DeadlineSched = DeadlineSched::new(cfg, 1024);
        let now = SimTime::ZERO;
        let mut id = 0;
        let mut add = |e: &mut DeadlineSched, dir: Dir, s: Sector| {
            id += 1;
            e.add(req(id, 0, s, 8, dir), now);
        };
        for i in 0..6 {
            add(&mut e, Dir::Read, 1000 * (i + 1));
        }
        add(&mut e, Dir::Write, 50_000);
        let mut dirs = Vec::new();
        for _ in 0..7 {
            match e.dispatch(now) {
                Dispatch::Request(rq) => dirs.push(rq.dir),
                other => panic!("{other:?}"),
            }
        }
        // Default writes_starved = 2: the write goes third.
        assert_eq!(
            dirs,
            vec![
                Dir::Read,
                Dir::Read,
                Dir::Write,
                Dir::Read,
                Dir::Read,
                Dir::Read,
                Dir::Read
            ]
        );
    }

    #[test]
    fn expired_read_jumps_scan() {
        let mut e = sched();
        e.add(req(1, 0, 9000, 8, Dir::Read), SimTime::ZERO);
        // Much later another request arrives below the scan position;
        // dispatch the first (scan at 9008), then add an old-looking one.
        let t1 = SimTime::from_millis(1);
        match e.dispatch(t1) {
            Dispatch::Request(rq) => assert_eq!(rq.sector, 9000),
            other => panic!("{other:?}"),
        }
        e.add(req(2, 0, 100, 8, Dir::Read), t1);
        e.add(req(3, 0, 20_000, 8, Dir::Read), t1);
        // Before expiry the scan prefers 20_000; after read_expire the
        // FIFO head (sector 100) preempts.
        let late = t1 + SimDuration::from_millis(600);
        match e.dispatch(late) {
            Dispatch::Request(rq) => assert_eq!(rq.sector, 100, "expired head first"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_limit_honoured() {
        let cfg = DeadlineConfig {
            fifo_batch: 2,
            writes_starved: 1,
            ..DeadlineConfig::default()
        };
        let mut e: DeadlineSched = DeadlineSched::new(cfg, 1024);
        let now = SimTime::ZERO;
        for i in 0..4u64 {
            e.add(req(i + 1, 0, 1000 * (i + 1), 8, Dir::Read), now);
        }
        e.add(req(9, 0, 90_000, 8, Dir::Write), now);
        let mut dirs = Vec::new();
        for _ in 0..5 {
            if let Dispatch::Request(rq) = e.dispatch(now) {
                dirs.push(rq.dir);
            }
        }
        // 2-read batch, then the starved write, then remaining reads.
        assert_eq!(
            dirs,
            vec![Dir::Read, Dir::Read, Dir::Write, Dir::Read, Dir::Read]
        );
    }

    #[test]
    fn merge_does_not_duplicate_fifo() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(req(1, 0, 1000, 8, Dir::Read), now);
        assert_eq!(
            e.add(req(2, 0, 1008, 8, Dir::Read), now),
            AddOutcome::MergedBack(1)
        );
        assert_eq!(e.queued(), 1);
        match e.dispatch(now) {
            Dispatch::Request(rq) => {
                assert_eq!(rq.sectors, 16);
                rq.check_invariants();
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(e.dispatch(now), Dispatch::Empty);
    }

    #[test]
    fn never_idles() {
        let mut e = sched();
        assert_eq!(e.dispatch(SimTime::ZERO), Dispatch::Empty);
        e.add(req(1, 0, 0, 8, Dir::Write), SimTime::ZERO);
        assert!(matches!(e.dispatch(SimTime::ZERO), Dispatch::Request(_)));
    }

    #[test]
    fn drain_empties_both_directions() {
        let mut e = sched();
        let now = SimTime::ZERO;
        e.add(req(1, 0, 100, 8, Dir::Read), now);
        e.add(req(2, 0, 200, 8, Dir::Write), now);
        let v = e.drain();
        assert_eq!(v.len(), 2);
        assert_eq!(e.queued(), 0);
        assert_eq!(e.dispatch(now), Dispatch::Empty);
    }
}
