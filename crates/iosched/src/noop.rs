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
#[derive(Debug)]
pub struct Noop {
    /// Slab of queued requests; `None` marks merged-away/dispatched slots.
    slab: Vec<Option<QueuedRq>>,
    /// FIFO of slab slots.
    fifo: VecDeque<usize>,
    /// extent end -> slots, for back merges (like Linux `elv_rqhash`).
    /// Multi-entry: extents sharing an end sector must all stay
    /// findable as merge candidates.
    by_end: BoundaryMap,
    queued: usize,
    max_merge_sectors: u64,
}

impl Noop {
    /// New noop elevator with the given merge cap.
    pub fn new(max_merge_sectors: u64) -> Self {
        Noop {
            slab: Vec::new(),
            fifo: VecDeque::new(),
            by_end: BoundaryMap::default(),
            queued: 0,
            max_merge_sectors,
        }
    }

    /// Add one request; returns the outcome and the slot holding it.
    fn add_one(&mut self, r: IoRequest) -> (AddOutcome, u32) {
        // Back merge: some queued request ends exactly where r starts.
        // The slab is append-only between full drains, so the smallest
        // eligible slot is the oldest candidate.
        let slot = self
            .by_end
            .get(r.sector)
            .iter()
            .copied()
            .filter(|&s| {
                self.slab[s as usize].as_ref().is_some_and(|rq| {
                    rq.dir == r.dir && rq.sectors + r.sectors <= self.max_merge_sectors
                })
            })
            .min();
        if let Some(slot) = slot {
            self.by_end.remove(r.sector, slot);
            let rq = self.slab[slot as usize].as_mut().expect("filtered live");
            rq.merge_back(r);
            let new_end = rq.end();
            let id = rq.id();
            self.by_end.insert(new_end, slot);
            return (AddOutcome::MergedBack(id), slot);
        }
        let slot = self.slab.len();
        self.by_end.insert(r.end(), slot as u32);
        self.slab.push(Some(QueuedRq::from_request(r)));
        self.fifo.push_back(slot);
        self.queued += 1;
        (AddOutcome::Queued, slot as u32)
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
            RunStep::push(steps, outcome, self.queued, 1);
            let absorber = match outcome {
                AddOutcome::Queued => id,
                AddOutcome::MergedBack(absorber) => absorber,
                AddOutcome::MergedFront(_) => unreachable!("noop never front-merges"),
            };
            let rq = self.slab[slot as usize].as_mut().expect("absorber is live");
            let absorbed = self.by_end.extend_back(slot, rq, run, self.max_merge_sectors);
            if absorbed > 0 {
                RunStep::push(steps, AddOutcome::MergedBack(absorber), self.queued, absorbed);
            }
        }
    }

    fn dispatch(&mut self, _now: SimTime) -> Dispatch {
        let _prof = simcore::prof::span_hot("iosched.dispatch");
        while let Some(slot) = self.fifo.pop_front() {
            if let Some(rq) = self.slab[slot].take() {
                self.by_end.remove(rq.end(), slot as u32);
                self.queued -= 1;
                // Reclaim slab space opportunistically when fully drained.
                if self.queued == 0 {
                    self.slab.clear();
                    self.fifo.clear();
                    self.by_end.clear();
                }
                return Dispatch::Request(rq);
            }
        }
        Dispatch::Empty
    }

    fn completed(&mut self, _rq: &QueuedRq, _now: SimTime) {}

    fn queued(&self) -> usize {
        self.queued
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        let mut out = Vec::with_capacity(self.queued);
        while let Some(slot) = self.fifo.pop_front() {
            if let Some(rq) = self.slab[slot].take() {
                out.push(rq);
            }
        }
        self.slab.clear();
        self.by_end.clear();
        self.queued = 0;
        out
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
