//! Property-based tests: whatever request sequence an elevator is fed,
//! it must conserve requests (everything submitted is dispatched or
//! drained exactly once), keep merged extents internally consistent,
//! and make causally sane idle decisions. (In-tree `simcore::check`
//! harness.)

use iosched::{build_elevator, Dispatch, Dir, Elevator, IoRequest, SchedKind, Tunables};
use simcore::check::{check, Gen};
use simcore::{SimDuration, SimTime};
use std::collections::HashSet;

#[derive(Debug, Clone)]
struct GenReq {
    stream: u32,
    sector: u64,
    sectors: u64,
    write: bool,
    sync: bool,
    gap_us: u64,
}

fn gen_req(g: &mut Gen) -> GenReq {
    let write = g.bool();
    let sync = g.bool();
    GenReq {
        stream: g.u32_in(0, 4),
        sector: g.u64_in(0, 2_000_000),
        sectors: g.u64_in(1, 512),
        write,
        sync: if write { sync } else { true },
        gap_us: g.u64_in(0, 5_000),
    }
}

/// Feed a request sequence, interleaving dispatch/completion cycles,
/// then drain. Returns (dispatched ids, drained ids).
fn exercise(kind: SchedKind, reqs: &[GenReq], dispatch_every: usize) -> (Vec<u64>, Vec<u64>) {
    let mut e = build_elevator(kind, &Tunables::default());
    let mut now = SimTime::ZERO;
    let mut dispatched = Vec::new();
    let mut drained = Vec::new();
    for (i, g) in reqs.iter().enumerate() {
        now += SimDuration::from_micros(g.gap_us);
        let r = IoRequest {
            id: i as u64 + 1,
            stream: g.stream,
            sector: g.sector,
            sectors: g.sectors,
            dir: if g.write { Dir::Write } else { Dir::Read },
            sync: g.sync,
            submitted: now,
        };
        e.add(r, now);
        if (i + 1) % dispatch_every == 0 {
            // Service a few requests.
            for _ in 0..2 {
                match e.dispatch(now) {
                    Dispatch::Request(rq) => {
                        rq.check_invariants();
                        for p in &rq.parts {
                            dispatched.push(p.id);
                        }
                        now += SimDuration::from_micros(500);
                        e.completed(&rq, now);
                    }
                    Dispatch::Idle { until } => {
                        assert!(until > now, "idle deadline must be in the future");
                        now = until;
                    }
                    Dispatch::Empty => break,
                }
            }
        }
    }
    // Drain whatever remains: first by dispatching to exhaustion, then
    // via drain() to exercise that path too.
    let mut spins = 0;
    loop {
        match e.dispatch(now) {
            Dispatch::Request(rq) => {
                rq.check_invariants();
                for p in &rq.parts {
                    dispatched.push(p.id);
                }
                now += SimDuration::from_micros(500);
                e.completed(&rq, now);
                spins = 0;
            }
            Dispatch::Idle { until } => {
                assert!(until > now);
                now = until;
                spins += 1;
                assert!(spins < 1000, "livelock: endless idling with queued work");
            }
            Dispatch::Empty => break,
        }
        if dispatched.len() > reqs.len() {
            break;
        }
    }
    for rq in e.drain() {
        rq.check_invariants();
        for p in &rq.parts {
            drained.push(p.id);
        }
    }
    (dispatched, drained)
}

fn all_kinds() -> [SchedKind; 4] {
    SchedKind::ALL
}

/// No request is ever lost or duplicated, for any scheduler.
#[test]
fn conservation() {
    check(64, |g| {
        let reqs = g.vec(1, 120, gen_req);
        let every = g.usize_in(1, 8);
        for kind in all_kinds() {
            let (dispatched, drained) = exercise(kind, &reqs, every);
            let mut seen = HashSet::new();
            for id in dispatched.iter().chain(drained.iter()) {
                assert!(seen.insert(*id), "{kind}: id {id} appeared twice");
            }
            assert_eq!(
                seen.len(),
                reqs.len(),
                "{} lost requests: {} of {}",
                kind,
                seen.len(),
                reqs.len()
            );
        }
    });
}

/// Everything an elevator dispatches lies inside what was submitted
/// (no invented sectors) and merged extents never mix directions.
#[test]
fn extent_sanity() {
    check(64, |g| {
        let reqs = g.vec(1, 80, gen_req);
        for kind in all_kinds() {
            let mut e = build_elevator(kind, &Tunables::default());
            let now = SimTime::ZERO;
            for (i, r) in reqs.iter().enumerate() {
                e.add(
                    IoRequest {
                        id: i as u64 + 1,
                        stream: r.stream,
                        sector: r.sector,
                        sectors: r.sectors,
                        dir: if r.write { Dir::Write } else { Dir::Read },
                        sync: r.sync,
                        submitted: now,
                    },
                    now,
                );
            }
            let mut t = now;
            loop {
                match e.dispatch(t) {
                    Dispatch::Request(rq) => {
                        rq.check_invariants();
                        assert!(
                            rq.sectors <= Tunables::default().max_merge_sectors,
                            "{kind}: merged beyond the cap"
                        );
                        for p in &rq.parts {
                            assert_eq!(p.dir, rq.dir);
                        }
                        e.completed(&rq, t);
                    }
                    Dispatch::Idle { until } => t = until,
                    Dispatch::Empty => break,
                }
            }
        }
    });
}

/// Noop is FIFO: with no merge opportunities, requests leave in exactly
/// the order they arrived, whatever the dispatch interleaving.
#[test]
fn noop_preserves_fifo_order() {
    check(64, |g| {
        // Spaced extents: starts are 10k sectors apart with lengths
        // < 4k, so no two are ever contiguous and nothing can merge.
        let n = g.usize_in(1, 100);
        let reqs: Vec<GenReq> = (0..n)
            .map(|i| GenReq {
                stream: g.u32_in(0, 4),
                sector: i as u64 * 10_000 + g.u64_in(0, 4_000),
                sectors: g.u64_in(1, 512),
                write: g.bool(),
                sync: true,
                gap_us: g.u64_in(0, 5_000),
            })
            .collect();
        let every = g.usize_in(1, 8);
        let (dispatched, drained) = exercise(SchedKind::Noop, &reqs, every);
        let order: Vec<u64> = dispatched.into_iter().chain(drained).collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "noop reordered: {order:?}"
        );
    });
}

/// Deadline may finish its current scan, but once a request's FIFO
/// deadline has expired it is served within a bounded number of further
/// dispatches: one batch per direction plus the write-starvation
/// allowance, `fifo_batch * (writes_starved + 2)`.
#[test]
fn deadline_expiry_bounded_by_one_batch() {
    use std::collections::HashMap;
    let cfg = Tunables::default().deadline;
    let slack = cfg.fifo_batch * (cfg.writes_starved + 2);
    check(64, |g| {
        let mut e = build_elevator(SchedKind::Deadline, &Tunables::default());
        let mut now = SimTime::ZERO;
        // id -> (deadline, dispatches seen since it expired)
        let mut pending: HashMap<u64, (SimTime, u32)> = HashMap::new();
        let n = g.usize_in(1, 120);
        for i in 0..n {
            // Long gaps (up to 100 ms) so read deadlines (500 ms)
            // genuinely expire while work is still queued.
            now += SimDuration::from_micros(g.u64_in(0, 100_000));
            let r = gen_req(g);
            let expire = if r.write && !r.sync {
                cfg.write_expire
            } else {
                cfg.read_expire
            };
            let id = i as u64 + 1;
            e.add(
                IoRequest {
                    id,
                    stream: r.stream,
                    sector: r.sector,
                    sectors: r.sectors,
                    dir: if r.write { Dir::Write } else { Dir::Read },
                    sync: r.sync,
                    submitted: now,
                },
                now,
            );
            pending.insert(id, (now + expire, 0));
            if (i + 1) % 4 != 0 {
                continue;
            }
            for _ in 0..2 {
                match e.dispatch(now) {
                    Dispatch::Request(rq) => {
                        for p in &rq.parts {
                            pending.remove(&p.id);
                        }
                        for (deadline, late_for) in pending.values_mut() {
                            if *deadline <= now {
                                *late_for += 1;
                                assert!(
                                    *late_for <= slack,
                                    "request expired at {deadline} still queued after \
                                     {late_for} dispatches (bound {slack})"
                                );
                            }
                        }
                        now += SimDuration::from_micros(500);
                        e.completed(&rq, now);
                    }
                    Dispatch::Idle { until } => now = until,
                    Dispatch::Empty => break,
                }
            }
        }
    });
}

/// Under a seeking multi-stream load with equal per-stream demand
/// submitted in stream-order bursts, CFQ's time slicing spreads service
/// across the streams at least as fairly (Jain's index over sectors
/// served at the halfway point) as noop's FIFO, which drains the first
/// bursts first.
#[test]
fn cfq_at_least_as_fair_as_noop() {
    check(24, |g| {
        let streams = 4u32;
        let per_stream = g.usize_in(10, 30);
        let sectors = 256;
        let total = (streams as u64) * per_stream as u64 * sectors;
        // One workload, two schedulers: draw the seek targets up front.
        let offsets: Vec<u64> = (0..streams as usize * per_stream)
            .map(|_| g.u64_in(0, 1_000_000))
            .collect();
        let served = |kind: SchedKind| -> simcore::SampleSet {
            let mut e = build_elevator(kind, &Tunables::default());
            let mut now = SimTime::ZERO;
            let mut id = 0;
            for s in 0..streams {
                for _ in 0..per_stream {
                    // Each stream owns a distant disk region: every
                    // cross-stream move is a long seek.
                    let sector = s as u64 * 50_000_000 + offsets[id as usize];
                    id += 1;
                    e.add(
                        IoRequest {
                            id,
                            stream: s,
                            sector,
                            sectors,
                            dir: Dir::Read,
                            sync: true,
                            submitted: now,
                        },
                        now,
                    );
                    now += SimDuration::from_micros(10);
                }
            }
            let mut per = vec![0u64; streams as usize];
            let mut done = 0;
            let mut spins = 0;
            while done < total / 2 {
                match e.dispatch(now) {
                    Dispatch::Request(rq) => {
                        for p in &rq.parts {
                            per[p.stream as usize] += p.sectors;
                        }
                        done += rq.sectors;
                        now += SimDuration::from_millis(1);
                        e.completed(&rq, now);
                        spins = 0;
                    }
                    Dispatch::Idle { until } => {
                        now = until;
                        spins += 1;
                        assert!(spins < 1000, "{kind}: endless idling");
                    }
                    Dispatch::Empty => break,
                }
            }
            let mut set = simcore::SampleSet::new();
            for &x in &per {
                set.record(x as f64);
            }
            set
        };
        let cfq = served(SchedKind::Cfq).jain_fairness().unwrap();
        let noop = served(SchedKind::Noop).jain_fairness().unwrap();
        assert!(
            cfq >= noop - 1e-9,
            "CFQ Jain {cfq:.4} < noop Jain {noop:.4}"
        );
    });
}

/// Merging never changes the byte set served: every dispatched extent
/// is exactly the gapless concatenation of its original parts, and
/// every submitted extent reappears exactly once, unmodified.
#[test]
fn merging_preserves_byte_set() {
    use std::collections::HashMap;
    check(64, |g| {
        let reqs = g.vec(1, 100, gen_req);
        for kind in all_kinds() {
            let mut e = build_elevator(kind, &Tunables::default());
            let mut now = SimTime::ZERO;
            let mut submitted: HashMap<u64, (u64, u64, Dir)> = HashMap::new();
            for (i, r) in reqs.iter().enumerate() {
                let id = i as u64 + 1;
                let dir = if r.write { Dir::Write } else { Dir::Read };
                submitted.insert(id, (r.sector, r.sectors, dir));
                e.add(
                    IoRequest {
                        id,
                        stream: r.stream,
                        sector: r.sector,
                        sectors: r.sectors,
                        dir,
                        sync: r.sync,
                        submitted: now,
                    },
                    now,
                );
            }
            let mut check_rq = |rq: &iosched::QueuedRq| {
                let mut span = 0;
                for p in &rq.parts {
                    let (sector, sectors, dir) = submitted
                        .remove(&p.id)
                        .unwrap_or_else(|| panic!("{kind}: id {} served twice or invented", p.id));
                    assert_eq!((p.sector, p.sectors, p.dir), (sector, sectors, dir),
                        "{kind}: part {} mutated", p.id);
                    assert!(
                        p.sector >= rq.sector && p.sector + p.sectors <= rq.sector + rq.sectors,
                        "{kind}: part {} outside its merged extent", p.id
                    );
                    span += p.sectors;
                }
                assert_eq!(
                    span, rq.sectors,
                    "{kind}: merged extent is not an exact tiling of its parts"
                );
            };
            loop {
                match e.dispatch(now) {
                    Dispatch::Request(rq) => {
                        check_rq(&rq);
                        now += SimDuration::from_micros(500);
                        e.completed(&rq, now);
                    }
                    Dispatch::Idle { until } => now = until,
                    Dispatch::Empty => break,
                }
            }
            for rq in e.drain() {
                check_rq(&rq);
            }
            assert!(
                submitted.is_empty(),
                "{kind}: extents never served: {submitted:?}"
            );
        }
    });
}

/// `queued()` equals the number of (merged) requests actually
/// retrievable via drain.
#[test]
fn queued_count_matches_drain() {
    check(64, |g| {
        let reqs = g.vec(1, 60, gen_req);
        for kind in all_kinds() {
            let mut e = build_elevator(kind, &Tunables::default());
            let now = SimTime::ZERO;
            for (i, r) in reqs.iter().enumerate() {
                e.add(
                    IoRequest {
                        id: i as u64 + 1,
                        stream: r.stream,
                        sector: r.sector,
                        sectors: r.sectors,
                        dir: if r.write { Dir::Write } else { Dir::Read },
                        sync: r.sync,
                        submitted: now,
                    },
                    now,
                );
            }
            let queued = e.queued();
            let drained = e.drain();
            assert_eq!(queued, drained.len(), "{}", kind);
            assert_eq!(e.queued(), 0, "{}", kind);
        }
    });
}
