//! The event queue at the heart of the discrete-event kernel.
//!
//! [`EventQueue`] is one binary min-heap of `(SimTime, T)` pairs ordered
//! by `(time, seq)`, where `seq` is a monotone insertion counter: events
//! scheduled at the same instant pop in insertion order. That tie-break
//! is what makes whole-cluster runs deterministic. It also makes the pop
//! order a total order, which any correct priority queue reproduces
//! event for event (`tests/kernel_goldens.rs` pins it).
//!
//! The heap holds a simulation's frontier, not its history: each
//! component keeps only its next wake-ups queued, and a stream known in
//! advance (a service's job arrivals) is read from a sorted cursor
//! beside the queue instead of being parked in it (see
//! [`EventQueue::advance_to`]). Push and pop are O(log n) in that
//! frontier.
//!
//! Cancellation is handled by *epochs* (see [`Timer`]): instead of
//! removing entries, a component bumps its epoch counter and stale
//! firings are recognized and dropped when popped. This is the standard
//! lazy-deletion trick and keeps scheduling cheap with no auxiliary
//! index.
//!
//! # Causality checking
//!
//! Scheduling an event before the watermark (the last popped or
//! advanced-to time) is a logic error in the caller, and
//! [`EventQueue::push`] panics on it in every build: one compare and a
//! branch per push.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Clone)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic time-ordered event queue.
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// Same-instant events can be claimed in one call:
///
/// ```
/// use simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_secs(1);
/// q.push(t, 'a');
/// q.push(t, 'b');
/// q.push(SimTime::from_secs(2), 'c');
/// let mut batch = Vec::new();
/// assert_eq!(q.pop_batch(&mut batch), Some(t));
/// assert_eq!(batch, vec!['a', 'b']);
/// ```
///
/// A queue of `Clone` payloads clones with its sequence counter and
/// watermark, so a copy pops exactly the events, ties included, that
/// the original would.
#[derive(Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    /// Largest time popped or advanced to so far; a push earlier than
    /// this is a logic error in the caller and panics.
    watermark: SimTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            watermark: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at `time`.
    ///
    /// Scheduling in the past (before the watermark) is a causality
    /// violation and panics, in release builds too.
    pub fn push(&mut self, time: SimTime, payload: T) {
        if time < self.watermark {
            panic!("event scheduled in the past: {} < {}", time, self.watermark);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
    }

    /// Pop the earliest event, advancing the causality watermark.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.heap.pop()?;
        self.watermark = e.time;
        Some((e.time, e.payload))
    }

    /// Pop *every* event scheduled at the earliest pending instant into
    /// `buf` (appended in FIFO order) and return that instant. Events
    /// the caller pushes at the same instant while processing the batch
    /// form the next batch, preserving the exact `(time, seq)` pop order
    /// of repeated [`EventQueue::pop`] calls.
    pub fn pop_batch(&mut self, buf: &mut Vec<T>) -> Option<SimTime> {
        let _prof = crate::prof::span_hot("evq.pop_batch");
        let first = self.heap.pop()?;
        let t = first.time;
        let before = buf.len();
        buf.push(first.payload);
        while self.heap.peek().is_some_and(|e| e.time == t) {
            buf.push(self.heap.pop().expect("just peeked").payload);
        }
        self.watermark = t;
        crate::prof::count("events", (buf.len() - before) as u64);
        Some(t)
    }

    /// Move the causality watermark to `time` without popping. A loop
    /// that also takes events from a source outside the queue (a sorted
    /// cursor of job arrivals) calls it at each instant only that source
    /// reaches, so a later push before that instant is still caught.
    /// `time` lies between the watermark and the earliest pending event.
    pub fn advance_to(&mut self, time: SimTime) {
        debug_assert!(time >= self.watermark, "advance_to moved the watermark back");
        debug_assert!(
            self.peek_time().is_none_or(|next| time <= next),
            "advance_to passed a pending event"
        );
        self.watermark = time;
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Epoch-based cancellable timer handle.
///
/// A component that sets wake-up timers embeds one `Timer`. Arming the
/// timer returns a *ticket*; when the timer event pops, the holder calls
/// [`Timer::is_current`] — if the component re-armed or cancelled in the
/// interim, the stale ticket is simply ignored.
///
/// ```
/// use simcore::Timer;
///
/// let mut t = Timer::new();
/// let a = t.arm();
/// let b = t.arm();          // re-arm: invalidates `a`
/// assert!(!t.is_current(a));
/// assert!(t.is_current(b));
/// t.cancel();               // invalidates `b`
/// assert!(!t.is_current(b));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    epoch: u64,
    armed: bool,
}

/// Ticket identifying one arming of a [`Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerTicket(u64);

impl Timer {
    /// New, unarmed timer.
    pub fn new() -> Self {
        Timer::default()
    }

    /// Arm (or re-arm) the timer, invalidating any outstanding ticket.
    pub fn arm(&mut self) -> TimerTicket {
        self.epoch += 1;
        self.armed = true;
        TimerTicket(self.epoch)
    }

    /// Cancel the timer, invalidating any outstanding ticket.
    pub fn cancel(&mut self) {
        self.epoch += 1;
        self.armed = false;
    }

    /// True if `ticket` refers to the most recent arming and the timer
    /// has not been cancelled. Firing consumes the arming.
    pub fn is_current(&self, ticket: TimerTicket) -> bool {
        self.armed && ticket.0 == self.epoch
    }

    /// Fire the timer: returns true (and disarms) if the ticket was
    /// current, false for stale tickets.
    pub fn fire(&mut self, ticket: TimerTicket) -> bool {
        if self.is_current(ticket) {
            self.armed = false;
            true
        } else {
            false
        }
    }

    /// True if an arming is outstanding.
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::ZERO, 0);
        q.push(t, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(5), ());
        q.push(SimTime::from_secs(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), ())));
        // Same-time push after pop is fine: the watermark is the last
        // popped time, not past it.
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), ())));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), ())));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_causality_violation() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }

    #[test]
    fn advance_to_moves_the_watermark_without_popping() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 'a');
        q.advance_to(SimTime::from_secs(3));
        assert_eq!(q.len(), 1, "advancing pops nothing");
        // A push at the advanced-to instant is fine.
        q.push(SimTime::from_secs(3), 'b');
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 'b')));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 'a')));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_push_before_advanced_instant() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(2));
        q.push(SimTime::from_secs(1), ());
    }

    #[test]
    fn timer_epochs() {
        let mut t = Timer::new();
        let first = t.arm();
        assert!(t.is_armed());
        let second = t.arm();
        assert!(!t.fire(first), "stale ticket must not fire");
        assert!(t.fire(second));
        assert!(!t.is_armed(), "firing disarms");
        assert!(!t.fire(second), "double fire must be rejected");
    }

    #[test]
    fn timer_cancel() {
        let mut t = Timer::new();
        let ticket = t.arm();
        t.cancel();
        assert!(!t.fire(ticket));
        assert!(!t.is_armed());
    }

    #[test]
    fn high_volume_is_sorted() {
        // Pseudo-random but deterministic insertion order.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for i in 0..4096u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(SimTime::ZERO + SimDuration::from_nanos(x % 1_000_000), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            popped += 1;
        }
        assert_eq!(popped, 4096);
    }

    #[test]
    fn batch_claims_whole_instant() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.push(t1, 'a');
        q.push(t2, 'x');
        q.push(t1, 'b');
        q.push(t1, 'c');
        let mut buf = Vec::new();
        assert_eq!(q.pop_batch(&mut buf), Some(t1));
        assert_eq!(buf, vec!['a', 'b', 'c']);
        assert_eq!(q.len(), 1);
        // A same-instant push after a batch forms the next batch.
        q.push(t1, 'd');
        buf.clear();
        assert_eq!(q.pop_batch(&mut buf), Some(t1));
        assert_eq!(buf, vec!['d']);
        buf.clear();
        assert_eq!(q.pop_batch(&mut buf), Some(t2));
        assert_eq!(buf, vec!['x']);
        assert_eq!(q.pop_batch(&mut buf), None);
    }

    /// Mixed time scales, from same-instant runs to minutes ahead, with
    /// clustered and sparse regions, pop in exact `(time, seq)` order.
    #[test]
    fn mixed_time_scales_keep_order() {
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        for i in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix: same-instant runs, µs-scale spacing, and far jumps.
            let t = match i % 5 {
                0 => 1_000_000_000 + (x % 100),
                1 => x % 10_000,
                2 => 60_000_000_000 + (x % 1_000_000_000),
                3 => 5_000_000 + (x % 50),
                _ => x % 200_000_000_000,
            };
            expect.push((t, i));
            q.push(SimTime::ZERO + SimDuration::from_nanos(t), i);
        }
        expect.sort();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, p)| (t.as_nanos(), p))).collect();
        assert_eq!(got, expect);
    }

    /// Interleaved push/pop: pushes at the watermark and just ahead of
    /// it slot into the exact (time, seq) order.
    #[test]
    fn interleaved_push_pop_ordering() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime::from_micros(i * 10), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0u64;
        let mut extra = 1000u64;
        while let Some((t, p)) = q.pop() {
            assert!((t, p) >= last || p >= 1000, "order violated");
            last = (t, p);
            n += 1;
            if n.is_multiple_of(7) && extra < 1018 {
                // Push at the current instant.
                q.push(t, extra);
                // And a little ahead.
                q.push(t + SimDuration::from_nanos(5), extra + 1);
                extra += 2;
            }
        }
        assert_eq!(n, 64 + 18);
    }
}
