//! Differential oracle for the slab pool kernel (PR 7 playbook).
//!
//! Every elevator is generic over [`PoolKernel`]; here each one runs
//! twice over identical randomized op traces — once on the production
//! slab [`RqPool`], once on the naive `BTreeMap` + linear-scan-merge
//! [`NaiveRqPool`] oracle — asserting bitwise-identical add outcomes,
//! dispatch sequences, completion handling, and drain contents after
//! every single op. Noop keeps its own inlined slab, so it is checked
//! against a test-local naive FIFO reference instead.
//!
//! Each elevator sees ≥ 20k ops (several seeds × ops-per-seed), per
//! the issue's acceptance bar; a pool-level suite exercises the raw
//! kernel API (including `prev_before`, `has_stream`,
//! `closest_from_stream`) beyond what the elevators reach.
//!
//! A second suite pins each elevator's one-call [`Elevator::add_run`]
//! fast path against a twin that takes the same ring segments one
//! `add` (a run of one) at a time, arrival by arrival.

use iosched::anticipatory::{Anticipatory, AsConfig};
use iosched::cfq::{Cfq, CfqConfig};
use iosched::deadline::{DeadlineConfig, DeadlineSched};
use iosched::noop::Noop;
use iosched::pool::{add_with_merge, NaiveRqPool, PoolKernel, Qid, RqPool};
use iosched::request::{AddOutcome, Dir, IoRequest, QueuedRq, RunStep, SegRun};
use iosched::{Dispatch, Elevator, SchedKind};
use simcore::check::Gen;
use simcore::{SimDuration, SimTime};

const MAX_MERGE: u64 = 1024;

fn gen_request(g: &mut Gen, id: u64, now: SimTime) -> IoRequest {
    let dir = if g.bool() { Dir::Read } else { Dir::Write };
    // Mostly 8-sector-aligned extents in a narrow band so merges and
    // duplicate boundary sectors actually happen.
    let sector = g.u64_in(0, 4_000) * 8;
    let sectors = g.u64_in(1, 16) * 8;
    IoRequest {
        id,
        stream: g.u32_in(0, 5),
        sector,
        sectors,
        dir,
        // Async reads don't exist in the stack; async writes do.
        sync: dir == Dir::Read || g.bool(),
        submitted: now,
    }
}

/// Drive two elevator instances through one identical randomized op
/// trace, asserting equality after every op. Returns ops performed.
fn drive_pair(fast: &mut dyn Elevator, naive: &mut dyn Elevator, seed: u64, ops: usize) -> usize {
    let mut g = Gen::from_seed(seed);
    let mut now = SimTime::ZERO;
    let mut next_id = 1u64;
    // Dispatched-but-uncompleted requests (identical on both sides by
    // induction, so one stash serves both).
    let mut in_flight: Vec<QueuedRq> = Vec::new();
    for op in 0..ops {
        now += SimDuration::from_micros(g.u64_in(0, 2_000));
        match g.u32_in(0, 100) {
            // Add the same request to both.
            0..=44 => {
                let r = gen_request(&mut g, next_id, now);
                next_id += 1;
                let oa = fast.add(r.clone(), now);
                let ob = naive.add(r, now);
                assert_eq!(oa, ob, "add outcome diverged at op {op} (seed {seed})");
                assert_eq!(fast.queued(), naive.queued());
            }
            // Dispatch from both.
            45..=84 => {
                let da = fast.dispatch(now);
                let db = naive.dispatch(now);
                assert_eq!(da, db, "dispatch diverged at op {op} (seed {seed})");
                match da {
                    Dispatch::Request(rq) => in_flight.push(rq),
                    Dispatch::Idle { until } => {
                        // Sometimes honour the idle window, sometimes
                        // let new arrivals preempt it.
                        if g.bool() {
                            now = now.max(until);
                        }
                    }
                    Dispatch::Empty => {}
                }
            }
            // Complete a previously dispatched request on both.
            85..=96 => {
                if !in_flight.is_empty() {
                    let i = g.usize_in(0, in_flight.len());
                    let rq = in_flight.swap_remove(i);
                    fast.completed(&rq, now);
                    naive.completed(&rq, now);
                    let da = fast.dispatch(now);
                    let db = naive.dispatch(now);
                    assert_eq!(da, db, "post-completion dispatch diverged at op {op}");
                    if let Dispatch::Request(rq) = da {
                        in_flight.push(rq);
                    }
                }
            }
            // Hot-switch drain on both.
            _ => {
                let va = fast.drain();
                let vb = naive.drain();
                assert_eq!(va, vb, "drain diverged at op {op} (seed {seed})");
                assert_eq!(fast.queued(), 0);
                in_flight.clear();
            }
        }
    }
    // Final drain must agree too.
    assert_eq!(fast.drain(), naive.drain(), "final drain diverged (seed {seed})");
    ops
}

#[test]
fn deadline_matches_naive_oracle() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast: DeadlineSched<RqPool> = DeadlineSched::new(DeadlineConfig::default(), MAX_MERGE);
        let mut naive: DeadlineSched<NaiveRqPool> =
            DeadlineSched::new(DeadlineConfig::default(), MAX_MERGE);
        total += drive_pair(&mut fast, &mut naive, 0xD15C0 + seed, 6_000);
    }
    assert!(total >= 20_000);
}

#[test]
fn anticipatory_matches_naive_oracle() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast: Anticipatory<RqPool> = Anticipatory::new(AsConfig::default(), MAX_MERGE);
        let mut naive: Anticipatory<NaiveRqPool> = Anticipatory::new(AsConfig::default(), MAX_MERGE);
        total += drive_pair(&mut fast, &mut naive, 0xA5A5 + seed, 6_000);
    }
    assert!(total >= 20_000);
}

#[test]
fn cfq_matches_naive_oracle() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast: Cfq<RqPool> = Cfq::new(CfqConfig::default(), MAX_MERGE);
        let mut naive: Cfq<NaiveRqPool> = Cfq::new(CfqConfig::default(), MAX_MERGE);
        total += drive_pair(&mut fast, &mut naive, 0xCF9 + seed, 6_000);
    }
    assert!(total >= 20_000);
}

// ---------------------------------------------------------------------------
// Noop reference
// ---------------------------------------------------------------------------

/// Trivially correct noop: FIFO of requests, back merges by linear scan
/// over the whole queue picking the oldest eligible extent.
#[derive(Default)]
struct NaiveNoop {
    fifo: Vec<QueuedRq>,
}

impl NaiveNoop {
    fn add(&mut self, r: IoRequest) -> AddOutcome {
        if let Some(rq) = self
            .fifo
            .iter_mut()
            .find(|rq| rq.end() == r.sector && rq.dir == r.dir && rq.sectors + r.sectors <= MAX_MERGE)
        {
            rq.merge_back(r);
            return AddOutcome::MergedBack(rq.id());
        }
        self.fifo.push(QueuedRq::from_request(r));
        AddOutcome::Queued
    }

    fn dispatch(&mut self) -> Dispatch {
        if self.fifo.is_empty() {
            Dispatch::Empty
        } else {
            Dispatch::Request(self.fifo.remove(0))
        }
    }

    fn drain(&mut self) -> Vec<QueuedRq> {
        std::mem::take(&mut self.fifo)
    }
}

#[test]
fn noop_matches_naive_reference() {
    let mut total = 0;
    for seed in 0..4u64 {
        let mut fast = Noop::new(MAX_MERGE);
        let mut naive = NaiveNoop::default();
        let mut g = Gen::from_seed(0x0F0 + seed);
        let mut now = SimTime::ZERO;
        let mut next_id = 1u64;
        for op in 0..6_000 {
            now += SimDuration::from_micros(g.u64_in(0, 500));
            match g.u32_in(0, 100) {
                0..=49 => {
                    let r = gen_request(&mut g, next_id, now);
                    next_id += 1;
                    let oa = fast.add(r.clone(), now);
                    let ob = naive.add(r);
                    assert_eq!(oa, ob, "noop add diverged at op {op} (seed {seed})");
                }
                50..=96 => {
                    assert_eq!(fast.dispatch(now), naive.dispatch(), "noop dispatch diverged at op {op}");
                }
                _ => {
                    assert_eq!(fast.drain(), naive.drain(), "noop drain diverged at op {op}");
                }
            }
            assert_eq!(fast.queued(), naive.fifo.len());
            total += 1;
        }
    }
    assert!(total >= 20_000);
}

// ---------------------------------------------------------------------------
// Raw pool-level differential
// ---------------------------------------------------------------------------

/// Exercise the full [`PoolKernel`] surface with aligned qid pairs
/// (qids differ across kernels, so removals translate through the
/// pairing; query results are compared by request value).
#[test]
fn pool_kernels_agree_on_full_api() {
    for seed in 0..3u64 {
        let mut fast = RqPool::new();
        let mut naive = NaiveRqPool::new();
        let mut g = Gen::from_seed(0x9001 + seed);
        let mut live: Vec<(Qid, Qid)> = Vec::new();
        let mut next_id = 1u64;
        for op in 0..8_000u64 {
            let now = SimTime::from_micros(op);
            match g.u32_in(0, 100) {
                0..=39 => {
                    let r = gen_request(&mut g, next_id, now);
                    next_id += 1;
                    let (oa, qa) = add_with_merge(&mut fast, r.clone(), MAX_MERGE);
                    let (ob, qb) = add_with_merge(&mut naive, r, MAX_MERGE);
                    assert_eq!(oa, ob, "pool add diverged at op {op} (seed {seed})");
                    assert_eq!(fast.get(qa), naive.get(qb), "absorber diverged at op {op}");
                    if oa == AddOutcome::Queued {
                        live.push((qa, qb));
                    }
                }
                40..=59 => {
                    if !live.is_empty() {
                        let i = g.usize_in(0, live.len());
                        let (qa, qb) = live.swap_remove(i);
                        assert_eq!(fast.remove(qa), naive.remove(qb), "remove diverged at op {op}");
                    }
                }
                60..=74 => {
                    let s = g.u64_in(0, 40_000);
                    let a = fast.next_at_or_after(s).map(|q| fast.get(q).unwrap());
                    let b = naive.next_at_or_after(s).map(|q| naive.get(q).unwrap());
                    assert_eq!(a, b, "next_at_or_after({s}) diverged at op {op}");
                }
                75..=84 => {
                    let s = g.u64_in(0, 40_000);
                    let a = fast.prev_before(s).map(|q| fast.get(q).unwrap());
                    let b = naive.prev_before(s).map(|q| naive.get(q).unwrap());
                    assert_eq!(a, b, "prev_before({s}) diverged at op {op}");
                    let fa = fast.first().map(|q| fast.get(q).unwrap());
                    let fb = naive.first().map(|q| naive.get(q).unwrap());
                    assert_eq!(fa, fb, "first diverged at op {op}");
                }
                85..=94 => {
                    let stream = g.u32_in(0, 6);
                    assert_eq!(
                        fast.has_stream(stream),
                        naive.has_stream(stream),
                        "has_stream({stream}) diverged at op {op}"
                    );
                    let s = g.u64_in(0, 40_000);
                    let a = fast.closest_from_stream(stream, s).map(|q| fast.get(q).unwrap());
                    let b = naive.closest_from_stream(stream, s).map(|q| naive.get(q).unwrap());
                    assert_eq!(a, b, "closest_from_stream diverged at op {op}");
                }
                _ => {
                    assert_eq!(fast.drain_all(), naive.drain_all(), "drain_all diverged at op {op}");
                    live.clear();
                }
            }
            // Merges may consume queued entries; keep pairs honest.
            live.retain(|&(qa, qb)| {
                assert_eq!(fast.contains(qa), naive.contains(qb), "contains diverged at op {op}");
                fast.contains(qa)
            });
            assert_eq!(fast.len(), naive.len());
        }
    }
}

// ---------------------------------------------------------------------------
// add_run fast paths vs. one add per segment
// ---------------------------------------------------------------------------

/// The per-segment reference: forwards everything, but enters each
/// piece of a run as a run of one (`add`) and reads the depth after it
/// from `queued()`.
struct PerPiece<E: Elevator>(E);

impl<E: Elevator> Elevator for PerPiece<E> {
    fn kind(&self) -> SchedKind {
        self.0.kind()
    }
    fn add_run(&mut self, run: &mut SegRun, now: SimTime, steps: &mut Vec<RunStep>) {
        for piece in run {
            let outcome = self.0.add(piece, now);
            RunStep::push(steps, outcome, self.0.queued(), 1);
        }
    }
    fn dispatch(&mut self, now: SimTime) -> Dispatch {
        self.0.dispatch(now)
    }
    fn completed(&mut self, rq: &QueuedRq, now: SimTime) {
        self.0.completed(rq, now)
    }
    fn queued(&self) -> usize {
        self.0.queued()
    }
    fn drain(&mut self) -> Vec<QueuedRq> {
        self.0.drain()
    }
}

/// One `(outcome, depth)` pair per arrival.
fn per_arrival(steps: &[RunStep]) -> Vec<(AddOutcome, usize)> {
    steps
        .iter()
        .flat_map(|s| std::iter::repeat_n((s.outcome, s.depth), s.count as usize))
        .collect()
}

/// A guest dispatch to split into ring segments. Besides uniformly
/// placed runs it aims at the cases the fast path must stop or start
/// differently on, relative to `recent` (earlier arrivals): a run that
/// continues a queued extent (and splits where `MAX_MERGE` is reached),
/// a run whose first piece front-merges, and a run with an older
/// same-direction extent ending at one of its inner piece boundaries.
fn gen_run(g: &mut Gen, id: u64, now: SimTime, recent: &[IoRequest]) -> SegRun {
    let seg = *g.pick(&[8u64, 24, 88]);
    let pieces = g.u64_in(1, 14);
    let sectors = pieces * seg - g.u64_in(0, seg);
    let mut r = IoRequest { id, sectors, ..gen_request(g, id, now) };
    if !recent.is_empty() && g.u32_in(0, 4) > 0 {
        let old = &recent[g.usize_in(0, recent.len())];
        match g.u32_in(0, 3) {
            // Continue it: the first piece back-merges.
            0 => r.sector = old.end(),
            // Precede it: the first piece ends where it starts.
            1 => r.sector = old.sector.saturating_sub(seg.min(sectors)),
            // Straddle its end: it ends at an inner piece boundary.
            _ => r.sector = old.end().saturating_sub(seg * g.u64_in(1, pieces.max(2))),
        }
        if g.u32_in(0, 4) > 0 {
            (r.dir, r.sync) = (old.dir, old.sync);
        }
    }
    SegRun::new(r, seg)
}

/// Drive `fast` through `add_run` and `twin` through one `add` per
/// segment over one randomized op trace, asserting the same
/// `(outcome, depth)` for every arrival and the same dispatch,
/// completion and drain behaviour after every op. Returns the ops
/// performed and the back-merged arrivals seen.
fn drive_runs(fast: &mut dyn Elevator, twin: &mut dyn Elevator, seed: u64, ops: usize) -> (usize, usize) {
    let mut g = Gen::from_seed(seed);
    let mut now = SimTime::ZERO;
    let mut next_id = 1u64;
    let mut in_flight: Vec<QueuedRq> = Vec::new();
    let mut recent: Vec<IoRequest> = Vec::new();
    let (mut sa, mut sb) = (Vec::new(), Vec::new());
    let mut merged = 0;
    for op in 0..ops {
        now += SimDuration::from_micros(g.u64_in(0, 2_000));
        match g.u32_in(0, 100) {
            0..=49 => {
                let mut run = gen_run(&mut g, next_id, now, &recent);
                next_id += run.pieces_left() as u64;
                recent.push(run.rest().clone());
                if recent.len() > 16 {
                    recent.remove(0);
                }
                let mut twin_run = run.clone();
                sa.clear();
                sb.clear();
                fast.add_run(&mut run, now, &mut sa);
                twin.add_run(&mut twin_run, now, &mut sb);
                assert!(run.next().is_none(), "add_run left pieces behind");
                let (a, b) = (per_arrival(&sa), per_arrival(&sb));
                assert_eq!(a, b, "add_run arrivals diverged at op {op} (seed {seed})");
                merged += a.iter().filter(|(o, _)| matches!(o, AddOutcome::MergedBack(_))).count();
                assert_eq!(fast.queued(), twin.queued());
            }
            50..=84 => {
                let da = fast.dispatch(now);
                assert_eq!(da, twin.dispatch(now), "dispatch diverged at op {op} (seed {seed})");
                match da {
                    Dispatch::Request(rq) => in_flight.push(rq),
                    Dispatch::Idle { until } if g.bool() => now = now.max(until),
                    _ => {}
                }
            }
            85..=97 => {
                if !in_flight.is_empty() {
                    let rq = in_flight.swap_remove(g.usize_in(0, in_flight.len()));
                    fast.completed(&rq, now);
                    twin.completed(&rq, now);
                    let da = fast.dispatch(now);
                    assert_eq!(da, twin.dispatch(now), "post-completion dispatch diverged at op {op}");
                    if let Dispatch::Request(rq) = da {
                        in_flight.push(rq);
                    }
                }
            }
            _ => {
                assert_eq!(fast.drain(), twin.drain(), "drain diverged at op {op} (seed {seed})");
                in_flight.clear();
            }
        }
    }
    assert_eq!(fast.drain(), twin.drain(), "final drain diverged (seed {seed})");
    (ops, merged)
}

/// Run `make()` and its per-segment twin over four seeds.
fn check_add_run<E: Elevator>(make: impl Fn() -> E, seed: u64) {
    let (mut total, mut merged) = (0, 0);
    for s in 0..4u64 {
        let mut fast = make();
        let mut twin = PerPiece(make());
        let (ops, m) = drive_runs(&mut fast, &mut twin, seed + s, 6_000);
        total += ops;
        merged += m;
    }
    assert!(total >= 20_000);
    assert!(merged > 10_000, "only {merged} back merges: the fast path is barely exercised");
}

#[test]
fn deadline_add_run_matches_per_segment_adds() {
    check_add_run(|| DeadlineSched::<RqPool>::new(DeadlineConfig::default(), MAX_MERGE), 0x5E6D);
}

#[test]
fn anticipatory_add_run_matches_per_segment_adds() {
    check_add_run(|| Anticipatory::<RqPool>::new(AsConfig::default(), MAX_MERGE), 0x5E6A);
}

#[test]
fn cfq_add_run_matches_per_segment_adds() {
    check_add_run(|| Cfq::<RqPool>::new(CfqConfig::default(), MAX_MERGE), 0x5E6C);
}

#[test]
fn noop_add_run_matches_per_segment_adds() {
    check_add_run(|| Noop::new(MAX_MERGE), 0x5E60);
}

/// The naive pool keeps the default `extend_back` (absorbs nothing), so
/// an elevator over it stays a per-segment oracle even through its own
/// `add_run`.
#[test]
fn naive_pool_add_run_matches_slab_add_run() {
    let (mut total, mut merged) = (0, 0);
    for s in 0..4u64 {
        let mut fast = DeadlineSched::<RqPool>::new(DeadlineConfig::default(), MAX_MERGE);
        let mut naive = DeadlineSched::<NaiveRqPool>::new(DeadlineConfig::default(), MAX_MERGE);
        let (ops, m) = drive_runs(&mut fast, &mut naive, 0x5E6E + s, 6_000);
        total += ops;
        merged += m;
    }
    assert!(total >= 20_000 && merged > 10_000);
}
