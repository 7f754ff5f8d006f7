//! Scenario tests: each elevator's *signature behaviour* under
//! workloads shaped like the paper's, driven through a tiny
//! service-loop harness with a constant per-request service time.

use iosched::{
    build_elevator, AnyElevator, Dir, Dispatch, Elevator, IoRequest, SchedKind, Tunables,
};
use simcore::{SimDuration, SimTime};

const SVC: SimDuration = SimDuration::from_millis(3);

struct Harness {
    e: AnyElevator,
    now: SimTime,
    next_id: u64,
    served: Vec<(SimTime, IoRequest)>,
}

impl Harness {
    fn new(kind: SchedKind) -> Self {
        Harness {
            e: build_elevator(kind, &Tunables::default()),
            now: SimTime::ZERO,
            next_id: 1,
            served: Vec::new(),
        }
    }

    fn add(&mut self, stream: u32, sector: u64, dir: Dir, sync: bool) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.e.add(
            IoRequest {
                id,
                stream,
                sector,
                sectors: 8,
                dir,
                sync,
                submitted: self.now,
            },
            self.now,
        );
        id
    }

    /// Serve until empty (bounded); returns served request ids in order.
    fn drain_served(&mut self) -> Vec<u64> {
        let mut spins = 0;
        loop {
            match self.e.dispatch(self.now) {
                Dispatch::Request(rq) => {
                    self.now += SVC;
                    self.e.completed(&rq, self.now);
                    for p in &rq.parts {
                        self.served.push((self.now, p.clone()));
                    }
                    spins = 0;
                }
                Dispatch::Idle { until } => {
                    assert!(until > self.now);
                    self.now = until;
                    spins += 1;
                    assert!(spins < 10_000, "livelock");
                }
                Dispatch::Empty => break,
            }
        }
        self.served.iter().map(|(_, p)| p.id).collect()
    }
}

/// Deadline bounds read latency: a read submitted behind a deep write
/// backlog is served within (roughly) its expiry, not after the whole
/// backlog.
#[test]
fn deadline_bounds_read_latency_under_write_backlog() {
    let mut h = Harness::new(SchedKind::Deadline);
    // 200 writes of backlog: > 0.6 s of service at 3 ms each.
    for i in 0..200u64 {
        h.add(0, 1_000_000 + i * 100, Dir::Write, false);
    }
    let read = h.add(1, 50, Dir::Read, true);
    h.drain_served();
    let (t, _) = h
        .served
        .iter()
        .find(|(_, p)| p.id == read)
        .expect("read served");
    assert!(
        *t < SimTime::ZERO + SimDuration::from_millis(100),
        "read should be served promptly (deadline read bias), got {t}"
    );
}

/// Noop serves strictly in FIFO order regardless of direction or
/// position — the same backlog leaves the read at the very end.
#[test]
fn noop_makes_the_read_wait_behind_everything() {
    let mut h = Harness::new(SchedKind::Noop);
    for i in 0..50u64 {
        h.add(0, 1_000_000 + i * 100, Dir::Write, false);
    }
    let read = h.add(1, 50, Dir::Read, true);
    let order = h.drain_served();
    assert_eq!(*order.last().unwrap(), read, "noop must not promote the read");
}

/// CFQ does not starve async writes forever: with one sync hog and a
/// pending async queue, async requests get service within a couple of
/// sync slices.
#[test]
fn cfq_async_not_starved_forever() {
    let mut h = Harness::new(SchedKind::Cfq);
    let w = h.add(9, 2_000_000, Dir::Write, false);
    // A sync stream that always has work: top it up as we serve.
    let mut sector = 0u64;
    let mut served_w_at = None;
    let mut guard = 0;
    loop {
        h.add(1, sector, Dir::Read, true);
        sector += 100;
        match h.e.dispatch(h.now) {
            Dispatch::Request(rq) => {
                h.now += SVC;
                h.e.completed(&rq, h.now);
                if rq.parts.iter().any(|p| p.id == w) {
                    served_w_at = Some(h.now);
                    break;
                }
            }
            Dispatch::Idle { until } => h.now = until,
            Dispatch::Empty => break,
        }
        guard += 1;
        assert!(guard < 500, "async write starved past 500 dispatches");
    }
    let t = served_w_at.expect("write served");
    // One full sync slice (100 ms) plus change.
    assert!(
        t < SimTime::ZERO + SimDuration::from_millis(400),
        "async served too late: {t}"
    );
}

/// Anticipatory protects a thinking reader from a write backlog: the
/// reader's sequential run continues across its think times, while
/// deadline — with no anticipation — falls into write batches during
/// every gap, breaking the read run (this is *the* behavioural
/// difference the paper's (AS, ·) column rests on).
#[test]
fn anticipatory_protects_reader_from_write_backlog() {
    let read_run = |kind: SchedKind| {
        let mut h = Harness::new(kind);
        // Deep async write backlog from the writeback daemon.
        for i in 0..100u64 {
            h.add(9, 50_000_000 + i * 100, Dir::Write, false);
        }
        // One reader with 1 ms think time between sequential reads.
        let mut pos = 0u64;
        h.add(1, pos, Dir::Read, true);
        pos += 8;
        let mut sequence = Vec::new();
        for _ in 0..150 {
            match h.e.dispatch(h.now) {
                Dispatch::Request(rq) => {
                    h.now += SVC;
                    h.e.completed(&rq, h.now);
                    sequence.push(rq.dir);
                    if rq.dir == Dir::Read {
                        h.now += SimDuration::from_millis(1); // think
                        h.add(1, pos, Dir::Read, true);
                        pos += 8;
                    }
                }
                Dispatch::Idle { until } => h.now = until,
                Dispatch::Empty => break,
            }
        }
        // Average consecutive-read run length.
        let mut runs = 0u32;
        let mut reads = 0u32;
        let mut prev_read = false;
        for d in &sequence {
            let is_read = *d == Dir::Read;
            if is_read {
                reads += 1;
                if !prev_read {
                    runs += 1;
                }
            }
            prev_read = is_read;
        }
        if runs == 0 {
            0.0
        } else {
            reads as f64 / runs as f64
        }
    };
    let as_run = read_run(SchedKind::Anticipatory);
    let dl_run = read_run(SchedKind::Deadline);
    assert!(
        as_run > 2.0 * dl_run,
        "AS read-run length {as_run:.1} must clearly exceed deadline's {dl_run:.1}"
    );
}

/// All four schedulers eventually serve everything even under adversarial
/// interleavings of directions, streams and positions.
#[test]
fn no_starvation_under_adversarial_mix() {
    for kind in SchedKind::ALL {
        let mut h = Harness::new(kind);
        let mut expected = Vec::new();
        for i in 0..120u64 {
            let dir = if i % 3 == 0 { Dir::Write } else { Dir::Read };
            let sector = (i * 7_919_993) % 50_000_000;
            expected.push(h.add((i % 5) as u32, sector, dir, dir == Dir::Read));
        }
        let mut served = h.drain_served();
        served.sort_unstable();
        expected.sort_unstable();
        assert_eq!(served, expected, "{kind}: lost or duplicated requests");
    }
}
