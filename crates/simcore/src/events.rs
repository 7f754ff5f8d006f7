//! The event queue at the heart of the discrete-event kernel.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, T)` pairs ordered by
//! time, with FIFO tie-breaking via a monotone sequence number so that
//! events scheduled at the same instant pop in insertion order. That
//! tie-break is what makes whole-cluster runs deterministic.
//!
//! # Two-tier calendar / ladder structure
//!
//! Internally the queue is *not* a flat binary heap: events land in one
//! of three tiers by distance from the cursor.
//!
//! ```text
//!   active (sorted vec) │ calendar buckets (unsorted) │ overflow heap
//!   [watermark, hi)     │ [hi, horizon)               │ [horizon, ∞)
//! ```
//!
//! * **active** — the events of the bucket currently being drained,
//!   sorted descending so a pop is a `Vec::pop`. Same-instant pushes
//!   during processing (the common case: a handler scheduling work at
//!   `now`) append in O(1).
//! * **calendar** — `NBUCKETS` fixed-width time buckets; a push within
//!   the horizon is an O(1) `Vec::push` with no comparisons at all.
//!   A bucket is sorted only when the cursor reaches it.
//! * **overflow** — a binary heap for the far future. When the
//!   calendar is exhausted, a new epoch is laid over the earliest
//!   overflow event and near events are re-bucketed lazily, with the
//!   bucket width re-fitted to the observed event spacing.
//!
//! The pop order is the exact total order `(time, seq)` — identical,
//! event for event, to the flat-heap implementation this replaced (the
//! `tests/kernel_goldens.rs` fingerprints pin that).
//!
//! Cancellation is handled by *epochs* (see [`Timer`]): instead of
//! removing entries, a component bumps its epoch counter and stale
//! firings are recognized and dropped when popped. This is the standard
//! lazy-deletion trick and keeps scheduling cheap with no auxiliary
//! index.
//!
//! # Causality checking
//!
//! Scheduling an event before the watermark (the last popped time) is a
//! logic error in the caller. Debug builds always panic on it; release
//! builds check it too when the `ADIOS_STRICT=1` environment variable is
//! set at process start (`scripts/ci.sh` runs the pairs smoke test once
//! that way).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// True when `ADIOS_STRICT=1` (or any non-empty value other than `0`)
/// was set when the process first asked: release builds then enforce
/// the push-before-watermark causality check just like debug builds.
pub fn strict_checks() -> bool {
    static STRICT: OnceLock<bool> = OnceLock::new();
    *STRICT.get_or_init(|| {
        std::env::var("ADIOS_STRICT").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

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

/// Number of calendar buckets (a power of two keeps the index math to
/// one multiply and one shift-free divide).
const NBUCKETS: usize = 512;
/// Initial bucket width, ns, before any re-fit (8.2 µs × 512 ≈ a 4 ms
/// horizon — the scale of disk service times, the densest event source).
const INITIAL_WIDTH_NS: u64 = 1 << 13;

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
/// Same-instant events can be claimed in one call, without re-touching
/// the queue per event:
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
pub struct EventQueue<T> {
    /// Drained-bucket events, sorted descending by `(time, seq)`;
    /// pops come off the back. All times `< active_hi`.
    active: Vec<Entry<T>>,
    /// Upper time bound (ns) of the region `active` covers.
    active_hi: u64,
    /// Calendar: bucket `i` covers `[epoch_start + i*width, +width)` ns.
    buckets: Vec<Vec<Entry<T>>>,
    /// ns timestamp of bucket 0.
    epoch_start: u64,
    /// Next bucket the cursor will drain (everything before is empty).
    cursor: usize,
    /// Bucket width, ns (re-fitted at each epoch change).
    width: u64,
    /// Far-future events (`time >= horizon`).
    overflow: BinaryHeap<Entry<T>>,
    len: usize,
    next_seq: u64,
    /// Largest time popped so far; pushes earlier than this are a logic
    /// error in the caller (checked in debug builds and under
    /// `ADIOS_STRICT=1`).
    watermark: SimTime,
    /// Cached [`strict_checks`] so the hot push path pays one branch.
    strict: bool,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue sized for roughly `cap` pending events
    /// (pre-reserves the far-future heap; calendar buckets grow on
    /// demand).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            active: Vec::new(),
            active_hi: 0,
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            epoch_start: 0,
            cursor: 0,
            width: INITIAL_WIDTH_NS,
            overflow: BinaryHeap::with_capacity(cap / 4),
            len: 0,
            next_seq: 0,
            watermark: SimTime::ZERO,
            strict: strict_checks(),
        }
    }

    #[inline]
    fn horizon(&self) -> u64 {
        self.epoch_start
            .saturating_add(self.width.saturating_mul(NBUCKETS as u64))
    }

    /// Schedule `payload` to fire at `time`.
    ///
    /// Scheduling in the past (before the last popped event) is a
    /// causality violation; debug builds panic on it, and release
    /// builds do too when `ADIOS_STRICT=1` is set (see
    /// [`strict_checks`]).
    pub fn push(&mut self, time: SimTime, payload: T) {
        debug_assert!(
            time >= self.watermark,
            "event scheduled in the past: {} < {}",
            time,
            self.watermark
        );
        if self.strict && time < self.watermark {
            panic!(
                "ADIOS_STRICT: event scheduled in the past: {} < {}",
                time, self.watermark
            );
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let t = time.as_nanos();
        let e = Entry { time, seq, payload };
        if t < self.active_hi {
            // Into the drained region: keep `active` sorted descending.
            // The overwhelmingly common case is a push at the current
            // instant, whose (time, seq) is the largest-seq among equal
            // times — that lands at the back in O(1)... no: descending
            // order pops smallest from the back, so the newest
            // same-instant event belongs just before older-but-later
            // times. partition_point finds it; for `now`-pushes the
            // scan terminates immediately at the back.
            let key = (time, seq);
            let idx = self.active.partition_point(|x| x.key() > key);
            self.active.insert(idx, e);
        } else if t < self.horizon() {
            let idx = ((t - self.epoch_start) / self.width) as usize;
            debug_assert!(idx >= self.cursor.saturating_sub(1));
            self.buckets[idx].push(e);
        } else {
            self.overflow.push(e);
        }
    }

    /// Lay a new epoch over the earliest overflow event and re-bucket
    /// every overflow event inside the new horizon (lazy re-bucketing).
    /// Only called when the active vec and every calendar bucket are
    /// empty. Guarantees progress: the earliest event always lands in
    /// bucket 0.
    fn reprime(&mut self) {
        let _prof = crate::prof::span("evq.reprime");
        let Some(first) = self.overflow.peek() else {
            return;
        };
        let lo = first.time.as_nanos();
        // Fit the bucket width to the observed spacing: aim for ~2
        // events per bucket over the overflow's span, clamped so the
        // horizon always moves forward.
        let mut hi = lo;
        for e in self.overflow.iter() {
            hi = hi.max(e.time.as_nanos());
        }
        let n = self.overflow.len() as u64;
        let span = hi - lo;
        self.width = (span.saturating_mul(2) / n.max(1)).clamp(1, span.max(1));
        self.epoch_start = lo;
        self.cursor = 0;
        self.active_hi = lo;
        let horizon = self.horizon();
        while let Some(e) = self.overflow.peek() {
            if e.time.as_nanos() >= horizon {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            let idx = ((e.time.as_nanos() - self.epoch_start) / self.width) as usize;
            self.buckets[idx].push(e);
        }
    }

    /// Ensure `active` holds the earliest pending events (drain the
    /// next non-empty bucket, re-priming from overflow as needed).
    /// Returns false when the queue is empty.
    fn prime_active(&mut self) -> bool {
        if !self.active.is_empty() {
            return true;
        }
        if self.len == 0 {
            return false;
        }
        loop {
            while self.cursor < NBUCKETS {
                if self.buckets[self.cursor].is_empty() {
                    self.cursor += 1;
                    continue;
                }
                std::mem::swap(&mut self.active, &mut self.buckets[self.cursor]);
                self.active
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.cursor += 1;
                self.active_hi = self
                    .epoch_start
                    .saturating_add(self.width.saturating_mul(self.cursor as u64));
                return true;
            }
            debug_assert!(!self.overflow.is_empty(), "len counted missing events");
            self.reprime();
        }
    }

    /// Pop the earliest event, advancing the causality watermark.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.prime_active() {
            return None;
        }
        let e = self.active.pop().expect("primed");
        self.len -= 1;
        self.watermark = e.time;
        Some((e.time, e.payload))
    }

    /// Pop *every* event scheduled at the earliest pending instant into
    /// `buf` (appended in FIFO order) and return that instant. The
    /// whole batch costs one queue touch instead of one per event.
    /// Events the caller pushes at the same instant while processing
    /// the batch form the next batch, preserving the exact `(time,
    /// seq)` pop order of repeated [`EventQueue::pop`] calls.
    pub fn pop_batch(&mut self, buf: &mut Vec<T>) -> Option<SimTime> {
        let _prof = crate::prof::span_hot("evq.pop_batch");
        if !self.prime_active() {
            return None;
        }
        let before = buf.len();
        let t = self.active.last().expect("primed").time;
        while let Some(e) = self.active.last() {
            if e.time != t {
                break;
            }
            let e = self.active.pop().expect("just peeked");
            self.len -= 1;
            buf.push(e.payload);
        }
        self.watermark = t;
        crate::prof::count("events", (buf.len() - before) as u64);
        Some(t)
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.active.last() {
            return Some(e.time);
        }
        if self.len == 0 {
            return None;
        }
        for b in &self.buckets[self.cursor.min(NBUCKETS)..] {
            if !b.is_empty() {
                return b.iter().map(|e| e.time).min();
            }
        }
        self.overflow.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    #[cfg(debug_assertions)]
    fn rejects_causality_violation() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        q.pop();
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
        let mut q = EventQueue::with_capacity(1 << 12);
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

    /// Epoch re-priming: events far beyond the initial horizon, with
    /// clustered and sparse regions, still pop in exact order.
    #[test]
    fn far_future_reprime_keeps_order() {
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

    /// Interleaved push/pop around the active window: pushes at the
    /// watermark, inside the drained region, and into later buckets
    /// must all slot into the exact (time, seq) order.
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
                // Push at the current instant (drained region).
                q.push(t, extra);
                // And a little ahead (current or next bucket).
                q.push(t + SimDuration::from_nanos(5), extra + 1);
                extra += 2;
            }
        }
        assert_eq!(n, 64 + 18);
    }
}
