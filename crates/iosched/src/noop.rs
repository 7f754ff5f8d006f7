//! The noop elevator: a FIFO with back-merging, nothing else.
//!
//! Noop relies entirely on the device (or a lower layer) to order
//! requests. In the paper's experiments it is catastrophic in the VMM
//! whenever several VMs stream concurrently — every dispatch alternates
//! between VM extents and the disk seeks on almost every request. That
//! collapse (Fig. 2, Table I) emerges here from the FIFO order alone.

use crate::elevator::{Dispatch, Elevator, SchedKind};
use crate::pool::BoundaryMap;
use crate::request::{AddOutcome, IoRequest, QueuedRq, RunStep, SegRun};
use simcore::SimTime;
use std::collections::VecDeque;

/// The noop scheduler.
#[derive(Debug, Clone)]
pub struct Noop {
    /// Queued requests, oldest first. Noop never front-merges and
    /// dispatch pops the front, so every slot from the oldest queued
    /// request to the newest is live: the queue holds what is queued,
    /// whatever the run's age.
    queue: VecDeque<QueuedRq>,
    /// Slot id of `queue[0]`. Slot ids count arrivals since the queue
    /// last emptied.
    front: u32,
    /// extent end -> slots, for back merges (like Linux `elv_rqhash`).
    /// Multi-entry: extents sharing an end sector must all stay
    /// findable as merge candidates.
    by_end: BoundaryMap,
    max_merge_sectors: u64,
}

impl Noop {
    /// New noop elevator with the given merge cap.
    pub fn new(max_merge_sectors: u64) -> Self {
        Noop {
            queue: VecDeque::new(),
            front: 0,
            by_end: BoundaryMap::default(),
            max_merge_sectors,
        }
    }

    /// The queued request in slot `slot`.
    fn slot_mut(&mut self, slot: u32) -> &mut QueuedRq {
        &mut self.queue[(slot - self.front) as usize]
    }

    /// Add one request; returns the outcome and the slot holding it.
    fn add_one(&mut self, r: IoRequest) -> (AddOutcome, u32) {
        // Back merge: some queued request ends exactly where r starts.
        // Slot ids grow with arrival, so the smallest eligible slot is
        // the oldest candidate.
        let slot = self
            .by_end
            .get(r.sector)
            .iter()
            .copied()
            .filter(|&s| {
                let rq = &self.queue[(s - self.front) as usize];
                rq.dir == r.dir && rq.sectors + r.sectors <= self.max_merge_sectors
            })
            .min();
        if let Some(slot) = slot {
            self.by_end.remove(r.sector, slot);
            let rq = self.slot_mut(slot);
            rq.merge_back(r);
            let (new_end, id) = (rq.end(), rq.id());
            self.by_end.insert(new_end, slot);
            return (AddOutcome::MergedBack(id), slot);
        }
        let slot = self.front + self.queue.len() as u32;
        self.by_end.insert(r.end(), slot);
        self.queue.push_back(QueuedRq::from_request(r));
        (AddOutcome::Queued, slot)
    }
}

impl Elevator for Noop {
    fn kind(&self) -> SchedKind {
        SchedKind::Noop
    }

    fn add_run(&mut self, run: &mut SegRun, _now: SimTime, steps: &mut Vec<RunStep>) {
        while let Some(r) = run.next() {
            let id = r.id;
            let (outcome, slot) = self.add_one(r);
            RunStep::push(steps, outcome, self.queue.len(), 1);
            let absorber = match outcome {
                AddOutcome::Queued => id,
                AddOutcome::MergedBack(absorber) => absorber,
                AddOutcome::MergedFront(_) => unreachable!("noop never front-merges"),
            };
            let rq = &mut self.queue[(slot - self.front) as usize];
            let absorbed = self.by_end.extend_back(slot, rq, run, self.max_merge_sectors);
            if absorbed > 0 {
                RunStep::push(steps, AddOutcome::MergedBack(absorber), self.queue.len(), absorbed);
            }
        }
    }

    fn dispatch(&mut self, _now: SimTime) -> Dispatch {
        let _prof = simcore::prof::span_hot("iosched.dispatch");
        let Some(rq) = self.queue.pop_front() else {
            return Dispatch::Empty;
        };
        self.by_end.remove(rq.end(), self.front);
        self.front = if self.queue.is_empty() { 0 } else { self.front + 1 };
        Dispatch::Request(rq)
    }

    fn completed(&mut self, _rq: &QueuedRq, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.queue.len()
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        self.by_end.clear();
        self.front = 0;
        self.queue.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Dir, Sector};

    fn req(id: u64, stream: u32, sector: Sector, sectors: u64) -> IoRequest {
        IoRequest {
            id,
            stream,
            sector,
            sectors,
            dir: Dir::Read,
            sync: true,
            submitted: SimTime::from_micros(id),
        }
    }

    #[test]
    fn fifo_order_across_streams() {
        let mut e = Noop::new(1024);
        let now = SimTime::ZERO;
        e.add(req(1, 0, 1000, 8), now);
        e.add(req(2, 1, 9000, 8), now);
        e.add(req(3, 0, 2000, 8), now);
        let order: Vec<Sector> = std::iter::from_fn(|| match e.dispatch(now) {
            Dispatch::Request(rq) => Some(rq.sector),
            _ => None,
        })
        .collect();
        assert_eq!(order, vec![1000, 9000, 2000], "noop must not sort");
    }

    #[test]
    fn back_merge_preserves_fifo_slot() {
        let mut e = Noop::new(1024);
        let now = SimTime::ZERO;
        e.add(req(1, 0, 1000, 8), now);
        e.add(req(2, 1, 5000, 8), now);
        assert_eq!(e.add(req(3, 0, 1008, 8), now), AddOutcome::MergedBack(1));
        assert_eq!(e.queued(), 2);
        match e.dispatch(now) {
            Dispatch::Request(rq) => {
                assert_eq!(rq.sector, 1000);
                assert_eq!(rq.sectors, 16);
                assert_eq!(rq.parts.len(), 2);
                rq.check_invariants();
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn never_idles() {
        let mut e = Noop::new(1024);
        assert_eq!(e.dispatch(SimTime::ZERO), Dispatch::Empty);
        e.add(req(1, 0, 0, 8), SimTime::ZERO);
        assert!(matches!(e.dispatch(SimTime::ZERO), Dispatch::Request(_)));
        assert_eq!(e.dispatch(SimTime::ZERO), Dispatch::Empty);
    }

    #[test]
    fn merge_cap_enforced() {
        let mut e = Noop::new(16);
        let now = SimTime::ZERO;
        e.add(req(1, 0, 0, 12), now);
        assert_eq!(e.add(req(2, 0, 12, 8), now), AddOutcome::Queued);
    }

    #[test]
    fn drain_returns_everything_in_fifo_order() {
        let mut e = Noop::new(1024);
        let now = SimTime::ZERO;
        e.add(req(1, 0, 500, 8), now);
        e.add(req(2, 1, 100, 8), now);
        let v = e.drain();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].sector, 500);
        assert_eq!(e.queued(), 0);
        assert_eq!(e.dispatch(now), Dispatch::Empty);
    }

    #[test]
    fn duplicate_end_sectors_keep_both_merge_candidates() {
        // Regression: two queued extents ending at the same sector used
        // to overwrite each other in the single-slot `by_end` index,
        // and dispatching one corrupted the survivor's entry.
        let mut e = Noop::new(1024);
        let now = SimTime::ZERO;
        let w = |id: u64, sector: Sector, sectors: u64| {
            let mut r = req(id, id as u32, sector, sectors);
            r.dir = Dir::Write;
            r
        };
        e.add(w(1, 100, 100), now); // ends at 200
        e.add(w(2, 150, 50), now); // also ends at 200
        // The oldest eligible extent absorbs the arrival.
        assert_eq!(e.add(w(3, 200, 8), now), AddOutcome::MergedBack(1));
        // Dispatch the (merged) first extent; the second must STILL be
        // indexed at 200 and absorb the next arrival.
        match e.dispatch(now) {
            Dispatch::Request(rq) => assert_eq!(rq.id(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(e.add(w(4, 200, 8), now), AddOutcome::MergedBack(2));
        // A direction mismatch at the shared boundary is skipped in
        // favor of an eligible same-direction extent.
        e.add(req(5, 5, 400, 100), now); // read, ends at 500
        e.add(w(6, 450, 50), now); // write, also ends at 500
        assert_eq!(e.add(w(7, 500, 8), now), AddOutcome::MergedBack(6));
    }

    #[test]
    fn slab_holds_only_what_is_queued() {
        // 100k add/dispatch rounds that never empty the queue: the slab
        // follows the queued count, not the number of arrivals.
        let mut e = Noop::new(1024);
        let now = SimTime::ZERO;
        e.add(req(0, 0, 0, 8), now);
        e.add(req(1, 0, 16, 8), now);
        for id in 2..100_002 {
            e.add(req(id, 0, id * 16, 8), now);
            assert!(matches!(e.dispatch(now), Dispatch::Request(_)));
            assert_eq!(e.queue.len(), 2, "round {id}");
        }
        assert!(e.queue.capacity() < 16, "slab grew to {}", e.queue.capacity());
    }

    #[test]
    fn stale_end_index_does_not_merge_into_dispatched() {
        let mut e = Noop::new(1024);
        let now = SimTime::ZERO;
        e.add(req(1, 0, 1000, 8), now);
        let _ = e.dispatch(now); // 1000..1008 leaves the queue
        // A contiguous request must be queued fresh, not merged into a
        // request that already left.
        assert_eq!(e.add(req(2, 0, 1008, 8), now), AddOutcome::Queued);
        match e.dispatch(now) {
            Dispatch::Request(rq) => assert_eq!(rq.parts.len(), 1),
            other => panic!("expected request, got {other:?}"),
        }
    }
}
