//! Differential property suite: the incremental edge-level water-filling
//! solver (`Network`) against the flow-level oracle (`NaiveNetwork`, an
//! independent per-flow kernel that re-solves everything).
//!
//! Both implementations are driven through identical randomized op
//! traces — flow starts with uniform / skewed / loopback / shuffle
//! fan-out endpoints, advances to the next completion, and random-time
//! harvests — and after *every* op the suite asserts:
//!
//! * identical per-flow rates, remaining bytes, epochs and horizons
//!   (bitwise, via `debug_state`);
//! * identical `next_completion` instants;
//! * identical completion sets at every harvest;
//! * identical `delivered_bytes` (bitwise), and at final drain exact
//!   conservation against the sum of injected bytes.
//!
//! Across the `diff_*` tests below the traces total well over 20k ops.

use simcore::{SimDuration, SimRng, SimTime};
use vcluster::network::NaiveNetwork;
use vcluster::{NetParams, Network};

/// How endpoint pairs are drawn for new flows.
#[derive(Clone, Copy, Debug)]
enum Endpoints {
    /// src and dst uniform over all nodes (loopback whenever equal).
    Uniform,
    /// Half the flows hammer node 0's ingress: an incast hot spot that
    /// keeps one NIC saturated while the rest stay slack.
    SkewedIncast,
    /// Mostly loopback flows (which bypass the NIC water-filling
    /// entirely) with occasional cross-node traffic mixed in.
    LoopbackHeavy,
    /// A shuffle's shape: three hot sources fan out to every node, so
    /// each `(src, dst)` edge carries several flows at once, and small
    /// flows keep emptying edges and re-creating them.
    ShuffleFanOut,
}

impl Endpoints {
    fn draw(self, rng: &mut SimRng, nodes: u32) -> (u32, u32) {
        match self {
            Endpoints::Uniform => (rng.index(nodes as usize) as u32, rng.index(nodes as usize) as u32),
            Endpoints::SkewedIncast => {
                let src = rng.index(nodes as usize) as u32;
                let dst = if rng.unit() < 0.5 { 0 } else { rng.index(nodes as usize) as u32 };
                (src, dst)
            }
            Endpoints::LoopbackHeavy => {
                let src = rng.index(nodes as usize) as u32;
                if rng.unit() < 0.7 {
                    (src, src)
                } else {
                    (src, rng.index(nodes as usize) as u32)
                }
            }
            Endpoints::ShuffleFanOut => (rng.index(3) as u32, rng.index(nodes as usize) as u32),
        }
    }
}

struct Harness {
    net: Network,
    naive: NaiveNetwork,
    now: SimTime,
    injected_bytes: u128,
    started: u64,
    completed: u64,
}

impl Harness {
    fn new(nodes: u32) -> Self {
        let params = NetParams::default();
        Harness {
            net: Network::new(params.clone(), nodes),
            naive: NaiveNetwork::new(params, nodes),
            now: SimTime::ZERO,
            injected_bytes: 0,
            started: 0,
            completed: 0,
        }
    }

    fn start(&mut self, src: u32, dst: u32, bytes: u64) {
        let a = self.net.start_flow(self.now, src, dst, bytes);
        let b = self.naive.start_flow(self.now, src, dst, bytes);
        assert_eq!(a, b, "flow id allocation diverged");
        self.injected_bytes += bytes as u128;
        self.started += 1;
    }

    /// Harvest completions at `self.now` from both solvers and assert
    /// the done sets match element-for-element.
    fn harvest(&mut self, ctx: &str) -> usize {
        let mut done_inc = Vec::new();
        let mut done_naive = Vec::new();
        self.net.take_completed_into(self.now, &mut done_inc);
        self.naive.take_completed_into(self.now, &mut done_naive);
        assert_eq!(
            done_inc, done_naive,
            "completion sets diverged at {} ns ({ctx})",
            self.now.as_nanos()
        );
        self.completed += done_inc.len() as u64;
        done_inc.len()
    }

    /// Full cross-check: completion horizon, per-flow state (bitwise),
    /// live population, delivered bytes (bitwise).
    fn check(&mut self, ctx: &str) {
        let nc_inc = self.net.next_completion();
        let nc_naive = self.naive.next_completion();
        assert_eq!(
            nc_inc, nc_naive,
            "next_completion diverged at {} ns ({ctx})",
            self.now.as_nanos()
        );
        // next_completion resolved both sides, so the slabs are fully
        // materialized and comparable bit-for-bit.
        let st_inc = self.net.debug_state();
        let st_naive = self.naive.debug_state();
        assert_eq!(
            st_inc, st_naive,
            "flow state diverged at {} ns ({ctx})",
            self.now.as_nanos()
        );
        assert_eq!(self.net.active_flows(), self.naive.active_flows(), "{ctx}");
        assert_eq!(
            self.net.delivered_bytes().to_bits(),
            self.naive.delivered_bytes().to_bits(),
            "delivered bytes diverged at {} ns ({ctx})",
            self.now.as_nanos()
        );
    }

    /// Advance to the earliest completion horizon (if any) and harvest.
    fn advance_to_next(&mut self) {
        if let Some(t) = self.net.next_completion() {
            assert!(t >= self.now, "completion horizon ran backwards");
            self.now = t;
            self.harvest("advance_to_next");
        }
    }

    /// Drain both solvers to empty and check exact byte conservation.
    fn drain(&mut self) {
        let mut guard = 0u32;
        while self.net.active_flows() > 0 || self.naive.active_flows() > 0 {
            self.check("drain");
            self.advance_to_next();
            guard += 1;
            assert!(guard < 2_000_000, "drain failed to converge");
        }
        self.check("drained");
        assert_eq!(self.started, self.completed, "flows lost in flight");
        // With no flow in flight, delivered_bytes is exact: every byte
        // injected must have been materialized out the other side.
        let delivered = self.net.delivered_bytes();
        let expect = self.injected_bytes as f64;
        assert!(
            (delivered - expect).abs() <= expect * 1e-9 + 0.5,
            "byte conservation violated: delivered {delivered} vs injected {expect}"
        );
    }
}

/// One randomized op trace. Returns the number of ops executed.
fn run_trace(seed: u64, nodes: u32, ops: usize, endpoints: Endpoints) -> usize {
    let mut rng = SimRng::from_seed(seed).split("network-diff");
    let mut h = Harness::new(nodes);
    const MAX_LIVE: usize = 400;
    for op in 0..ops {
        let roll = rng.unit();
        if (roll < 0.55 && h.net.active_flows() < MAX_LIVE) || h.net.active_flows() == 0 {
            // Start 1..=4 flows at the same instant: exercises the
            // same-instant dirty-set coalescing path.
            let burst = 1 + rng.index(4);
            for _ in 0..burst {
                let (src, dst) = endpoints.draw(&mut rng, nodes);
                // Log-uniform flow sizes, 1 B .. 64 MiB.
                let mag = rng.index(27) as u32;
                let bytes = rng.range_u64(1, (1u64 << mag).max(2));
                h.start(src, dst, bytes);
            }
        } else if roll < 0.85 {
            h.advance_to_next();
        } else {
            // Advance by a random sub-completion interval and harvest:
            // usually a no-op, sometimes lands exactly on a horizon.
            let dt = SimDuration::from_nanos(rng.range_u64(1, 5_000_000));
            h.now += dt;
            h.harvest("random_advance");
        }
        h.check("op");
        let _ = op;
    }
    h.drain();
    ops
}

#[test]
fn diff_uniform_small_cluster() {
    let mut total = 0;
    for seed in [1, 2, 3] {
        total += run_trace(seed, 4, 2_000, Endpoints::Uniform);
    }
    assert!(total >= 6_000);
}

#[test]
fn diff_uniform_two_nodes() {
    // Two nodes maximizes shared-bottleneck contention: every
    // cross-node flow fights over the same two NICs.
    let mut total = 0;
    for seed in [11, 12] {
        total += run_trace(seed, 2, 2_500, Endpoints::Uniform);
    }
    assert!(total >= 5_000);
}

#[test]
fn diff_skewed_incast() {
    let mut total = 0;
    for seed in [21, 22] {
        total += run_trace(seed, 8, 2_500, Endpoints::SkewedIncast);
    }
    assert!(total >= 5_000);
}

#[test]
fn diff_loopback_heavy() {
    let mut total = 0;
    for seed in [31, 32] {
        total += run_trace(seed, 6, 2_000, Endpoints::LoopbackHeavy);
    }
    assert!(total >= 4_000);
}

#[test]
fn diff_wide_cluster() {
    // Wider fan-out: components stay small relative to the node count,
    // which is exactly the regime the incremental solver exploits.
    let total = run_trace(41, 16, 2_000, Endpoints::Uniform);
    assert!(total >= 2_000);
}

#[test]
fn diff_shuffle_fan_out() {
    let mut total = 0;
    for seed in [51, 52] {
        total += run_trace(seed, 12, 2_500, Endpoints::ShuffleFanOut);
    }
    assert!(total >= 5_000);
}

/// Every live flow holds a solved rate (no NIC flow is left rateless).
fn assert_all_rated(h: &Harness, ctx: &str) {
    for (id, .., rate_bits, _, _, _) in h.net.debug_state() {
        assert!(f64::from_bits(rate_bits) > 0.0, "flow {id} left rateless ({ctx})");
    }
}

/// Fresh-edge rule: a flow joins an edge at the instant another flow of
/// that edge completes, so the edge's solved rate (half the NIC, shared
/// by the survivor and the joiner) comes back bitwise unchanged. The
/// joiner must still be materialized with that rate.
#[test]
fn diff_fresh_edge_join_at_unchanged_rate() {
    let mut h = Harness::new(2);
    h.start(0, 1, 4 << 20);
    h.start(0, 1, 16 << 20);
    h.check("two flows on one edge");
    h.advance_to_next();
    assert_eq!(h.net.active_flows(), 1, "the short flow completed");
    h.start(0, 1, 8 << 20);
    h.check("join at unchanged rate");
    assert_all_rated(&h, "join at unchanged rate");
    h.drain();
}

/// Edge slot reuse: an edge empties and, at the same instant, its slot
/// goes to a new edge whose solved rate equals the old edge's stored
/// one — first for the same `(src, dst)` pair, then for another pair.
/// The stored rate must be reset so the new flows are materialized.
#[test]
fn diff_edge_slot_reuse_same_instant() {
    let mut h = Harness::new(3);
    h.start(0, 1, 4 << 20);
    h.check("lone flow at line rate");
    h.advance_to_next();
    h.start(0, 1, 4 << 20);
    h.check("same pair reuses the slot");
    assert_all_rated(&h, "same pair reuses the slot");
    h.advance_to_next();
    h.start(2, 0, 4 << 20);
    h.check("other pair reuses the slot");
    assert_all_rated(&h, "other pair reuses the slot");
    h.drain();
}

/// Regression for the PR 4 same-instant loop: a burst of equal tiny
/// flows between one node pair used to complete at the *same* instant
/// repeatedly (zero-duration horizons), livelocking the driver until a
/// 1 ns floor was put under `completion_horizon`. Both solvers must
/// apply the floor identically and drain in strictly advancing time.
#[test]
fn diff_same_instant_floor_regression() {
    let mut h = Harness::new(2);
    for _ in 0..16 {
        h.start(0, 1, 1);
    }
    h.check("burst");
    let mut last = SimTime::ZERO;
    let mut guard = 0u32;
    while h.net.active_flows() > 0 {
        let t = h.net.next_completion().expect("live flows must project a horizon");
        assert_eq!(Some(t), h.naive.next_completion());
        assert!(
            t > last || (t == last && last == SimTime::ZERO),
            "completion horizon failed to advance: {} ns twice",
            t.as_nanos()
        );
        assert!(t > h.now, "horizon not strictly ahead of now (1 ns floor)");
        last = t;
        h.now = t;
        h.harvest("floor_regression");
        h.check("floor_regression");
        guard += 1;
        assert!(guard < 1_000, "same-instant burst failed to drain");
    }
    h.drain();
}

/// Interleaved loopback and NIC flows at one instant: loopback flows
/// bypass the dirty set entirely, so this pins the invariant that their
/// fixed-rate horizons coexist with deferred NIC re-solves.
#[test]
fn diff_mixed_loopback_and_nic_same_instant() {
    let mut h = Harness::new(3);
    for i in 0..12u64 {
        if i % 3 == 0 {
            h.start(1, 1, 4096 + i);
        } else {
            h.start(0, 2, 128 * 1024 + i);
        }
    }
    h.check("mixed burst");
    h.drain();
}
