//! Differential property tests: [`EventQueue`]'s `pop` and `pop_batch`
//! against an independent reference model, a `BinaryHeap` of plain
//! `(time, seq, payload)` tuples. Both are driven with the same
//! pseudo-random push/pop/batch schedule, over time scales from the
//! same instant to minutes ahead, and must yield an identical
//! `(time, seq, payload)` stream.

use simcore::check::check;
use simcore::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference model: a heap of `(time, seq, payload)` tuples under
/// their derived order, with no batching, watermark or entry type of its
/// own.
#[derive(Default)]
struct ModelQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    next_seq: u64,
}

impl ModelQueue {
    fn push(&mut self, t: SimTime, payload: u64) {
        self.heap.push(Reverse((t, self.next_seq, payload)));
        self.next_seq += 1;
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
    /// Pop every event at the earliest instant, like
    /// `EventQueue::pop_batch`.
    fn pop_batch(&mut self, buf: &mut Vec<u64>) -> Option<SimTime> {
        let t = self.peek_time()?;
        while self.peek_time() == Some(t) {
            buf.push(self.pop().expect("peeked").1);
        }
        Some(t)
    }
}

/// Draw a time at or after `now`, mixing the scales the simulator
/// actually produces: same-instant fan-out, ns/µs-scale service times,
/// ms-scale transfers, and timers seconds to minutes ahead.
fn draw_time(g: &mut simcore::check::Gen, now: SimTime) -> SimTime {
    let offset = match g.u32_in(0, 9) {
        0 | 1 => 0,                                  // same instant
        2..=5 => g.u64_in(1, 50_000),                // up to 50 µs
        6 | 7 => g.u64_in(1, 20_000_000),            // up to 20 ms
        8 => g.u64_in(1, 5_000_000_000),             // up to 5 s
        _ => g.u64_in(1, 500_000_000_000),           // up to ~8 min
    };
    now + SimDuration::from_nanos(offset)
}

/// Interleaved single pushes and pops: the queue and the model yield
/// the same `(time, payload)` stream (payload carries the model's
/// insertion index, so agreement on payload *is* agreement on
/// `(time, seq)`).
#[test]
fn queue_matches_heap_model_single_pops() {
    check(96, |g| {
        let mut q = EventQueue::new();
        let mut m = ModelQueue::default();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        let ops = g.usize_in(50, 600);
        for _ in 0..ops {
            if g.u32_in(0, 3) == 0 {
                let got = q.pop();
                let want = m.pop();
                assert_eq!(got, want, "pop diverged from reference heap");
                if let Some((t, _)) = got {
                    now = t;
                }
            } else {
                let t = draw_time(g, now);
                q.push(t, payload);
                m.push(t, payload);
                payload += 1;
            }
            assert_eq!(q.len(), m.heap.len());
            assert_eq!(q.peek_time(), m.peek_time());
        }
        // Drain to the end.
        loop {
            let got = q.pop();
            let want = m.pop();
            assert_eq!(got, want, "drain diverged from reference heap");
            if got.is_none() {
                break;
            }
        }
    });
}

/// Same schedule, claimed through `pop_batch`: each batch matches the
/// reference model's whole-instant drain, including events pushed at
/// the current instant between batches (they must form the *next*
/// batch in both).
#[test]
fn queue_matches_heap_model_batches() {
    check(96, |g| {
        let mut q = EventQueue::new();
        let mut m = ModelQueue::default();
        let mut now = SimTime::ZERO;
        let mut payload = 0u64;
        let mut qbuf = Vec::new();
        let mut mbuf = Vec::new();
        for _ in 0..g.usize_in(30, 300) {
            for _ in 0..g.usize_in(0, 8) {
                let t = draw_time(g, now);
                q.push(t, payload);
                m.push(t, payload);
                payload += 1;
            }
            qbuf.clear();
            mbuf.clear();
            let got = q.pop_batch(&mut qbuf);
            let want = m.pop_batch(&mut mbuf);
            assert_eq!(got, want, "batch instant diverged");
            assert_eq!(qbuf, mbuf, "batch contents diverged");
            if let Some(t) = got {
                now = t;
            }
        }
        while !q.is_empty() {
            qbuf.clear();
            mbuf.clear();
            assert_eq!(q.pop_batch(&mut qbuf), m.pop_batch(&mut mbuf));
            assert_eq!(qbuf, mbuf);
        }
        assert_eq!(m.heap.len(), 0);
    });
}
