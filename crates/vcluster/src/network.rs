//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! Each node has a full-duplex NIC (1 GbE in the paper's testbed).
//! Active flows receive max-min fair rates computed by water-filling
//! over the per-node ingress/egress capacities; same-node transfers use
//! loopback and are only limited by the loopback rate. The model is a
//! state machine: the driver asks for the earliest flow completion and
//! re-arms its timer whenever the flow set (and hence the rate
//! allocation) changes.
//!
//! # Incremental edge-level solver
//!
//! [`Network`] keeps a dirty-set of NIC ports whose flow population
//! changed and re-solves only the connected components of the port
//! graph reachable from dirty ports; every other component's rates are
//! untouched. A lazily-repaired min-heap of completion horizons makes
//! `next_completion`/`take_completed_into` independent of the number of
//! active flows.
//!
//! The unit of the water-filling is the **edge**: a `(src, dst)` port
//! pair with its multiplicity of live flows. Every flow on an edge
//! crosses the same two ports, so max-min gives them one rate, and the
//! solve only needs each edge's multiplicity: a shuffle component
//! holding thousands of flows is walked over its few hundred edges.
//! Per-port live-flow counters seed the fair-share divisors, so no pass
//! counts flows at all.
//!
//! A flow-level reference solver (`NaiveNetwork`, behind the `oracle`
//! feature) re-solves *every* component on every change with the
//! per-flow kernel the edge solver replaced, and scans all live flows
//! for completions. The differential suite
//! (`crates/vcluster/tests/network_diff.rs`) drives both through
//! identical traces and asserts bit-equal state after every operation,
//! which is the proof obligation for edge aggregation, the dirty set and
//! the heap machinery together.
//!
//! Bit-equality is possible because the numerical contract is
//! *component-local* and *count-based*: a flow's rate is a pure function
//! of the component it lives in, computed from per-port live-flow counts
//! (capacities retired with one multiply-subtract per port per round,
//! one shared fair-share accumulator per component). Aggregating flows
//! into edges leaves every count, and hence every float, unchanged. See
//! DESIGN.md §9 for the invariants.
//!
//! # Storage
//!
//! Flow ids are handed out sequentially, so flows live in an SoA slab:
//! parallel `src`/`dst`/`rate`/`left`/`epoch`/`horizon`/`live` arrays
//! indexed by id. Edges live in a slot table with a free list; each edge
//! lists its flows, each flow keeps an `(edge, index)` back-pointer, and
//! each port lists its edges, so every detach is an O(1) swap-remove.
//! Remaining bytes are materialized lazily: a flow's `(left, epoch)`
//! pair is only folded forward when its rate changes bitwise or when it
//! completes, so steady flows cost nothing as simulation time passes.

#[cfg(any(test, feature = "oracle"))]
mod naive;
#[cfg(any(test, feature = "oracle"))]
pub use naive::NaiveNetwork;

use simcore::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Flow identifier.
pub type FlowId = u64;

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Per-node NIC bandwidth, bytes/second, each direction
    /// (1 GbE ≈ 119 MiB/s of goodput).
    pub nic_bytes_per_sec: u64,
    /// Loopback bandwidth for same-node transfers, bytes/second.
    pub loopback_bytes_per_sec: u64,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            nic_bytes_per_sec: 119 * 1024 * 1024,
            loopback_bytes_per_sec: 1024 * 1024 * 1024,
        }
    }
}

/// Residual port capacity at or below this is saturated (bytes/sec).
const PORT_EPS: f64 = 1e-6;
/// Cap on projected completion distance (seconds) so rate≈0 flows do
/// not overflow the nanosecond clock.
const HORIZON_CAP_SECS: f64 = 1e9;
/// Empty slot in the edge index and edge back-pointers.
const NONE: u32 = u32::MAX;

/// Completion horizon for a flow materialized at `epoch`: `left/rate`
/// rounded to the nanosecond clock. The flow is *declared* complete at
/// this instant; the rounding residue is bounded by half a tick's
/// worth of transfer (≤ 0.6 bytes at loopback rate) and is dropped,
/// the same sub-byte slack the half-byte completion threshold used to
/// absorb.
///
/// Never returns `epoch` itself: a sub-half-nanosecond estimate would
/// round to a zero-length timer, and since flows only progress when
/// time advances, the driver would re-arm at the same instant forever
/// (the PR 4 same-instant loop). Clamping to the 1 ns tick keeps every
/// horizon strictly in the future.
fn completion_horizon(epoch: SimTime, left: f64, rate: f64) -> SimTime {
    if rate <= 0.0 {
        return SimTime::MAX;
    }
    let secs = (left / rate).min(HORIZON_CAP_SECS);
    epoch + SimDuration::from_secs_f64(secs).max(SimDuration::from_nanos(1))
}

/// SoA flow slab shared by the solver and its oracle: per-flow
/// endpoints, rate, lazily materialized remaining bytes and completion
/// horizon, plus the delivered-bytes account. Which flows get a new
/// rate is the solver's business; how a rate change or a completion is
/// folded into the slab is the same for both.
struct FlowSlab {
    params: NetParams,
    nodes: u32,
    // Indexed by flow id (slot 0 unused; ids start at 1).
    src: Vec<u32>,
    dst: Vec<u32>,
    rate: Vec<f64>,
    /// Remaining bytes as of `epoch` (f64: rates divide unevenly;
    /// deterministic IEEE).
    left: Vec<f64>,
    /// Time at which `left` and `rate` were last materialized.
    epoch: Vec<SimTime>,
    /// Cached completion horizon (`SimTime::MAX` while rateless).
    horizon: Vec<SimTime>,
    live: Vec<bool>,
    live_count: usize,
    next_id: FlowId,
    /// Total bytes delivered (accounting).
    delivered_bytes: f64,
}

impl FlowSlab {
    fn new(params: NetParams, nodes: u32) -> Self {
        FlowSlab {
            params,
            nodes,
            src: Vec::new(),
            dst: Vec::new(),
            rate: Vec::new(),
            left: Vec::new(),
            epoch: Vec::new(),
            horizon: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            next_id: 1,
            delivered_bytes: 0.0,
        }
    }

    /// Slab capacity (one slot per flow ever started, +1 for the unused
    /// slot 0).
    fn len(&self) -> usize {
        self.src.len()
    }

    /// Allocate a slab slot for a new flow. Loopback flows get their
    /// fixed rate and horizon immediately; NIC flows start rateless and
    /// wait for the next resolve.
    fn insert(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64) -> FlowId {
        assert!(src < self.nodes && dst < self.nodes, "bad node id");
        assert!(bytes > 0, "zero-byte flow");
        let id = self.next_id;
        self.next_id += 1;
        let i = id as usize;
        if self.src.len() <= i {
            let n = i + 1;
            self.src.resize(n, 0);
            self.dst.resize(n, 0);
            self.rate.resize(n, 0.0);
            self.left.resize(n, 0.0);
            self.epoch.resize(n, SimTime::ZERO);
            self.horizon.resize(n, SimTime::MAX);
            self.live.resize(n, false);
        }
        self.src[i] = src;
        self.dst[i] = dst;
        self.left[i] = bytes as f64;
        self.epoch[i] = now;
        self.live[i] = true;
        self.live_count += 1;
        if src == dst {
            let r = self.params.loopback_bytes_per_sec as f64;
            self.rate[i] = r;
            self.horizon[i] = completion_horizon(now, self.left[i], r);
        } else {
            self.rate[i] = 0.0;
            self.horizon[i] = SimTime::MAX;
        }
        id
    }

    /// Fold a flow's lazy transfer forward to `now` at its current
    /// rate. No-op if the flow is already materialized at or past `now`.
    fn fold(&mut self, now: SimTime, i: usize) {
        if now > self.epoch[i] {
            let dt = now.saturating_since(self.epoch[i]).as_secs_f64();
            let moved = (self.rate[i] * dt).min(self.left[i]);
            self.left[i] -= moved;
            self.delivered_bytes += moved;
            self.epoch[i] = now;
        }
    }

    /// Materialize each `(flow, new rate)` at `now`. Callers pass the
    /// changed flows in ascending id order: the changed set is a pure
    /// function of the re-solved components, so sorting makes the
    /// `delivered_bytes` accumulation order independent of which solver
    /// found it, or in which order.
    fn apply_rates(&mut self, now: SimTime, changed: impl ExactSizeIterator<Item = (FlowId, f64)>) {
        let _mat = simcore::prof::span("net.materialize");
        simcore::prof::count("flows_changed", changed.len() as u64);
        for (f, r) in changed {
            let i = f as usize;
            self.fold(now, i);
            self.rate[i] = r;
            self.horizon[i] = completion_horizon(self.epoch[i], self.left[i], r);
        }
    }

    /// Retire a completed flow: fold its final transfer and mark it
    /// dead. The caller detaches it from its solver's port structures.
    fn complete(&mut self, now: SimTime, f: FlowId) {
        let i = f as usize;
        debug_assert!(self.live[i], "completing a dead flow");
        self.fold(now, i);
        // The horizon is rounded to whole nanoseconds, so the final
        // fold can come up a sub-byte residual short; a completed flow
        // has by definition delivered everything it carried, and
        // crediting the residual keeps `delivered_bytes` exactly
        // conserved at drain.
        self.delivered_bytes += self.left[i];
        self.left[i] = 0.0;
        self.live[i] = false;
        self.live_count -= 1;
        self.horizon[i] = SimTime::MAX;
    }

    /// Observable per-flow state, for the differential harness:
    /// `(id, src, dst, rate_bits, left_bits, epoch_ns, horizon_ns)`
    /// for every live flow, ascending.
    fn debug_state(&self) -> Vec<(FlowId, u32, u32, u64, u64, u64, u64)> {
        (1..self.next_id)
            .filter(|&f| self.live[f as usize])
            .map(|f| {
                let i = f as usize;
                (
                    f,
                    self.src[i],
                    self.dst[i],
                    self.rate[i].to_bits(),
                    self.left[i].to_bits(),
                    self.epoch[i].as_nanos(),
                    self.horizon[i].as_nanos(),
                )
            })
            .collect()
    }
}

/// One `(src, dst)` NIC port pair carrying at least one live flow.
/// Every flow on an edge crosses the same two ports, so the solve
/// freezes them together, at one rate.
struct Edge {
    src: u32,
    dst: u32,
    /// The solved rate every flow of the edge holds — except flows that
    /// joined since the last solve (see `fresh`). A newly created edge
    /// starts at 0.0, which no solve produces.
    rate: f64,
    /// A flow joined this (pre-existing) edge since the last solve. Its
    /// rateless joiner must be materialized even when the edge's solved
    /// rate comes back bitwise unchanged.
    fresh: bool,
    /// Index of this edge in `egress[src]` / `ingress[dst]`.
    pos_e: u32,
    pos_i: u32,
    /// Live flows on the edge (the multiplicity is `flows.len()`).
    flows: Vec<FlowId>,
}

/// Reusable solver scratch (one allocation per network, not one per
/// resolve). Port visit marks are u32 stamps so a pass starts without
/// clearing anything.
#[derive(Default)]
struct Scratch {
    /// Current pass stamp; a mark equal to it means "visited this pass".
    stamp: u32,
    mark_e: Vec<u32>,
    mark_i: Vec<u32>,
    /// Residual capacity / unfrozen-flow count / saturation per port,
    /// (re)initialized per component.
    cap_e: Vec<f64>,
    cap_i: Vec<f64>,
    cnt_e: Vec<u32>,
    cnt_i: Vec<u32>,
    sat_e: Vec<bool>,
    sat_i: Vec<bool>,
    /// Ports that saturated in the current round, whose edge buckets are
    /// walked to freeze their edges.
    sat_new: Vec<(u32, bool)>,
    /// The component under solve: ports and edges, in BFS discovery
    /// order (the solve is order-independent, so no canonical sort is
    /// needed).
    comp_e: Vec<u32>,
    comp_i: Vec<u32>,
    comp_edges: Vec<u32>,
    bfs: Vec<(u32, bool)>,
    /// Per edge slot: frozen in the current solve, and the rate it froze
    /// at. Components of one pass are disjoint, so slot-indexed state is
    /// never shared between them.
    frozen: Vec<bool>,
    solved: Vec<f64>,
    /// Flows whose re-solved rate differs bitwise from the stored one;
    /// the new rate is their edge's.
    changed: Vec<FlowId>,
    /// Completion pop buffer reused across `take_completed_into` calls.
    done_buf: Vec<FlowId>,
}

/// The production network state machine: incremental edge-level
/// component re-solves driven by a dirty port set, plus a
/// lazily-repaired min-heap of completion horizons.
pub struct Network {
    flows: FlowSlab,
    /// Edge slot table; free slots are listed in `free_edges`.
    edges: Vec<Edge>,
    free_edges: Vec<u32>,
    /// Dense `src * nodes + dst → edge slot` index (`NONE` = no live
    /// flow on that pair); 1 MiB at 512 nodes.
    edge_of: Vec<u32>,
    /// Per flow id: `(edge slot, index in that edge's flows)`.
    link: Vec<(u32, u32)>,
    /// Per-port live edges, with back-pointers in the edges.
    egress: Vec<Vec<u32>>,
    ingress: Vec<Vec<u32>>,
    /// Per-port live NIC flows: the solve's initial fair-share divisors.
    live_e: Vec<u32>,
    live_i: Vec<u32>,
    scratch: Scratch,
    /// Ports whose flow population changed since the last resolve.
    /// Every entry was pushed at the same instant, `pending_at`:
    /// mutations at a *later* instant, and every rate/horizon read,
    /// first drain the set with a resolve. Deferring this way
    /// coalesces all same-instant population changes (a batch of flow
    /// starts, a batch of completions) into one component re-solve.
    dirty: Vec<(u32, bool)>,
    /// Instant the pending dirty entries were created at.
    pending_at: SimTime,
    /// Min-heap of `(horizon, id)`. Lazily repaired: each live flow
    /// keeps one *canonical* entry at `heap_t[id]`, which is always at
    /// or before its true horizon (rates only rise when other flows
    /// leave, so a horizon can move earlier than its entry — never the
    /// entry before the horizon without `heap_t` knowing). Entries are
    /// validated on pop: a canonical entry that surfaces early is
    /// re-inserted at the flow's current horizon; anything else stale
    /// is discarded. Horizons that move *later* therefore cost one
    /// deferred pop+push instead of an immediate push per re-rate,
    /// keeping the heap near live-flow size.
    heap: BinaryHeap<Reverse<(SimTime, FlowId)>>,
    /// Earliest heap entry time per flow slot (`MAX` = none); the
    /// entry with `t == heap_t[id]` is the canonical one.
    heap_t: Vec<SimTime>,
}

impl Network {
    /// Network over `nodes` nodes.
    pub fn new(params: NetParams, nodes: u32) -> Self {
        let n = nodes as usize;
        let scratch = Scratch {
            mark_e: vec![0; n],
            mark_i: vec![0; n],
            cap_e: vec![0.0; n],
            cap_i: vec![0.0; n],
            cnt_e: vec![0; n],
            cnt_i: vec![0; n],
            sat_e: vec![false; n],
            sat_i: vec![false; n],
            ..Scratch::default()
        };
        Network {
            flows: FlowSlab::new(params, nodes),
            edges: Vec::new(),
            free_edges: Vec::new(),
            edge_of: vec![NONE; n * n],
            link: Vec::new(),
            egress: vec![Vec::new(); n],
            ingress: vec![Vec::new(); n],
            live_e: vec![0; n],
            live_i: vec![0; n],
            scratch,
            dirty: Vec::new(),
            pending_at: SimTime::ZERO,
            heap: BinaryHeap::new(),
            heap_t: Vec::new(),
        }
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.live_count
    }

    /// Total bytes delivered so far. Exact whenever no flow is in
    /// flight (lazy materialization defers per-flow residue until a
    /// rate change or completion).
    pub fn delivered_bytes(&self) -> f64 {
        self.flows.delivered_bytes
    }

    /// Start a flow; returns its id. Caller re-arms its completion
    /// timer afterwards. The rate re-solve is deferred until the next
    /// rate/horizon read, so a burst of same-instant starts costs one
    /// component solve, not one per flow.
    pub fn start_flow(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64) -> FlowId {
        if !self.dirty.is_empty() && now != self.pending_at {
            self.resolve();
        }
        let id = self.flows.insert(now, src, dst, bytes);
        if src == dst {
            self.heap_push(id);
        } else {
            self.attach(id, src, dst);
            self.dirty.push((src, false));
            self.dirty.push((dst, true));
            self.pending_at = now;
        }
        id
    }

    /// Put a NIC flow on its `(src, dst)` edge, creating the edge if the
    /// pair carries no live flow yet.
    fn attach(&mut self, f: FlowId, src: u32, dst: u32) {
        let key = src as usize * self.flows.nodes as usize + dst as usize;
        let e = match self.edge_of[key] {
            NONE => {
                let e = self.free_edges.pop().unwrap_or_else(|| {
                    self.edges.push(Edge {
                        src: 0,
                        dst: 0,
                        rate: 0.0,
                        fresh: false,
                        pos_e: NONE,
                        pos_i: NONE,
                        flows: Vec::new(),
                    });
                    (self.edges.len() - 1) as u32
                });
                // A reused slot keeps only its flow list's allocation:
                // the stored rate is reset so the first solve of the new
                // pair always reads as a change.
                let edge = &mut self.edges[e as usize];
                edge.src = src;
                edge.dst = dst;
                edge.rate = 0.0;
                edge.fresh = false;
                edge.pos_e = self.egress[src as usize].len() as u32;
                edge.pos_i = self.ingress[dst as usize].len() as u32;
                self.egress[src as usize].push(e);
                self.ingress[dst as usize].push(e);
                self.edge_of[key] = e;
                e
            }
            e => {
                self.edges[e as usize].fresh = true;
                e
            }
        };
        let edge = &mut self.edges[e as usize];
        if self.link.len() <= f as usize {
            self.link.resize(self.flows.len(), (NONE, NONE));
        }
        self.link[f as usize] = (e, edge.flows.len() as u32);
        edge.flows.push(f);
        self.live_e[src as usize] += 1;
        self.live_i[dst as usize] += 1;
    }

    /// Swap-remove a completed NIC flow from its edge; an edge left
    /// empty leaves both port buckets and returns to the free list.
    fn detach(&mut self, f: FlowId) {
        let (e, pos) = self.link[f as usize];
        let edge = &mut self.edges[e as usize];
        edge.flows.swap_remove(pos as usize);
        if let Some(&moved) = edge.flows.get(pos as usize) {
            self.link[moved as usize].1 = pos;
        }
        let (s, d) = (edge.src as usize, edge.dst as usize);
        self.live_e[s] -= 1;
        self.live_i[d] -= 1;
        if !edge.flows.is_empty() {
            return;
        }
        let (pe, pi) = (edge.pos_e as usize, edge.pos_i as usize);
        self.egress[s].swap_remove(pe);
        if let Some(&moved) = self.egress[s].get(pe) {
            self.edges[moved as usize].pos_e = pe as u32;
        }
        self.ingress[d].swap_remove(pi);
        if let Some(&moved) = self.ingress[d].get(pi) {
            self.edges[moved as usize].pos_i = pi as u32;
        }
        self.edge_of[s * self.flows.nodes as usize + d] = NONE;
        self.free_edges.push(e);
    }

    /// Push a heap entry for `f` only if its horizon moved *earlier*
    /// than the flow's canonical entry (`heap_t`). Horizons that move
    /// later keep their old entry; the pop loops re-insert it at the
    /// true horizon when it surfaces. This caps heap growth near the
    /// live-flow count instead of one entry per re-rate.
    fn heap_push(&mut self, f: FlowId) {
        let i = f as usize;
        if i >= self.heap_t.len() {
            self.heap_t.resize(self.flows.len(), SimTime::MAX);
        }
        let h = self.flows.horizon[i];
        if h < self.heap_t[i] {
            self.heap_t[i] = h;
            self.heap.push(Reverse((h, f)));
        }
    }

    /// Drain the dirty set: re-solve every component reachable from a
    /// dirty port, materialize (at the instant the population changed)
    /// every flow whose rate moved, and repair the heap for each.
    fn resolve(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        {
            let _prof = simcore::prof::span("net.solve");
            self.begin_pass();
            for k in 0..self.dirty.len() {
                let (p, ing) = self.dirty[k];
                let s = &self.scratch;
                let seen = if ing { s.mark_i[p as usize] } else { s.mark_e[p as usize] };
                if seen == s.stamp {
                    continue;
                }
                self.collect_component(p, ing);
                if self.scratch.comp_edges.is_empty() {
                    continue;
                }
                let comp_flows: u64 =
                    self.scratch.comp_e.iter().map(|&p| self.live_e[p as usize] as u64).sum();
                simcore::prof::count("components", 1);
                simcore::prof::count("comp_edges", self.scratch.comp_edges.len() as u64);
                simcore::prof::count("comp_flows", comp_flows);
                let rounds = self.solve_component();
                simcore::prof::count("rounds", rounds);
                self.collect_changed();
            }
            let Network { flows, edges, link, scratch, .. } = self;
            // Ascending ids; sorting bare ids (not id/rate pairs) halves
            // the sort's traffic, and each rate is one lookup away.
            scratch.changed.sort_unstable();
            let rates = scratch.changed.iter().map(|&f| (f, edges[link[f as usize].0 as usize].rate));
            flows.apply_rates(self.pending_at, rates);
        }
        self.dirty.clear();
        let changed = std::mem::take(&mut self.scratch.changed);
        for &f in &changed {
            self.heap_push(f);
        }
        self.scratch.changed = changed;
    }

    /// Start a resolve pass: bump the visit stamp and size the per-edge
    /// scratch to the edge table.
    fn begin_pass(&mut self) {
        let s = &mut self.scratch;
        if s.stamp == u32::MAX {
            s.mark_e.iter_mut().for_each(|m| *m = 0);
            s.mark_i.iter_mut().for_each(|m| *m = 0);
            s.stamp = 0;
        }
        s.stamp += 1;
        s.frozen.resize(self.edges.len(), false);
        s.solved.resize(self.edges.len(), 0.0);
        s.changed.clear();
    }

    /// BFS the connected component of the port graph containing the
    /// seed port, marking every port visited with the pass stamp. Fills
    /// `comp_e`/`comp_i`/`comp_edges`; an edge is collected once, from
    /// its egress port. Traversal order depends on the seed, but the
    /// solve below is order-independent, so any seed reproduces the same
    /// rates bit-for-bit.
    fn collect_component(&mut self, seed: u32, seed_ing: bool) {
        let _prof = simcore::prof::span_hot("net.bfs");
        let Network { scratch, edges, egress, ingress, .. } = self;
        let st = scratch.stamp;
        let Scratch { mark_e, mark_i, comp_e, comp_i, comp_edges, bfs, .. } = scratch;
        comp_e.clear();
        comp_i.clear();
        comp_edges.clear();
        bfs.clear();
        if seed_ing {
            mark_i[seed as usize] = st;
        } else {
            mark_e[seed as usize] = st;
        }
        bfs.push((seed, seed_ing));
        while let Some((p, ing)) = bfs.pop() {
            if ing {
                comp_i.push(p);
                for &e in &ingress[p as usize] {
                    let o = edges[e as usize].src as usize;
                    if mark_e[o] != st {
                        mark_e[o] = st;
                        bfs.push((o as u32, false));
                    }
                }
            } else {
                comp_e.push(p);
                for &e in &egress[p as usize] {
                    comp_edges.push(e);
                    let o = edges[e as usize].dst as usize;
                    if mark_i[o] != st {
                        mark_i[o] = st;
                        bfs.push((o as u32, true));
                    }
                }
            }
        }
    }

    /// Water-filling max-min solve of the component currently in
    /// `comp_e`/`comp_i`/`comp_edges`, writing each edge's rate to
    /// `solved`. Returns the number of rounds.
    ///
    /// The numerical contract (every operation below is part of it):
    /// each port starts from its live-flow count; each round finds the
    /// minimum fair share `b` over unsaturated ports, retires port
    /// capacity with one multiply-subtract `cap -= cnt·b`, accumulates
    /// `b` into one per-component running share `S`, and freezes every
    /// edge crossing a newly saturated port at rate `S`, taking its
    /// multiplicity off both of its ports' counts. Every step is
    /// order-independent (min, independent per-port updates, same-value
    /// assignment), so the solve is a pure function of the component
    /// *content* — which lets an incremental solver skip untouched
    /// components bit-exactly. A flow-level solve that freezes the same
    /// flows one at a time sees the same counts, hence the same floats.
    ///
    /// Edges are frozen by walking the buckets of newly saturated
    /// ports, so total freeze work is `O(2·edges)` per solve.
    fn solve_component(&mut self) -> u64 {
        let nic = self.flows.params.nic_bytes_per_sec as f64;
        let Network { scratch, edges, egress, ingress, live_e, live_i, .. } = self;
        let Scratch {
            comp_e,
            comp_i,
            comp_edges,
            cap_e,
            cap_i,
            cnt_e,
            cnt_i,
            sat_e,
            sat_i,
            sat_new,
            frozen,
            solved,
            ..
        } = scratch;
        for &p in comp_e.iter() {
            let p = p as usize;
            cap_e[p] = nic;
            cnt_e[p] = live_e[p];
            sat_e[p] = false;
        }
        for &p in comp_i.iter() {
            let p = p as usize;
            cap_i[p] = nic;
            cnt_i[p] = live_i[p];
            sat_i[p] = false;
        }
        for &e in comp_edges.iter() {
            frozen[e as usize] = false;
        }
        let mut unfrozen = comp_edges.len();
        let mut share = 0.0f64;
        let mut rounds = 0u64;
        while unfrozen > 0 {
            rounds += 1;
            // Fair share offered by each unsaturated port; the minimum
            // is binding.
            let mut b = f64::INFINITY;
            for &p in comp_e.iter() {
                let p = p as usize;
                if !sat_e[p] && cnt_e[p] > 0 {
                    b = b.min(cap_e[p] / cnt_e[p] as f64);
                }
            }
            for &p in comp_i.iter() {
                let p = p as usize;
                if !sat_i[p] && cnt_i[p] > 0 {
                    b = b.min(cap_i[p] / cnt_i[p] as f64);
                }
            }
            debug_assert!(b.is_finite() && b > 0.0, "degenerate round: b={b}");
            share += b;
            // Retire capacity; the binding port's residual lands within
            // f64 rounding of zero, under PORT_EPS, and saturates.
            sat_new.clear();
            for &p in comp_e.iter() {
                let p = p as usize;
                if !sat_e[p] && cnt_e[p] > 0 {
                    cap_e[p] -= cnt_e[p] as f64 * b;
                    if cap_e[p] <= PORT_EPS {
                        sat_e[p] = true;
                        sat_new.push((p as u32, false));
                    }
                }
            }
            for &p in comp_i.iter() {
                let p = p as usize;
                if !sat_i[p] && cnt_i[p] > 0 {
                    cap_i[p] -= cnt_i[p] as f64 * b;
                    if cap_i[p] <= PORT_EPS {
                        sat_i[p] = true;
                        sat_new.push((p as u32, true));
                    }
                }
            }
            // Freeze the edges of every newly saturated port at the
            // accumulated share (bit-identical for all of them).
            for &(p, ing) in sat_new.iter() {
                let bucket = if ing { &ingress[p as usize] } else { &egress[p as usize] };
                for &e in bucket {
                    let e = e as usize;
                    if !frozen[e] {
                        frozen[e] = true;
                        solved[e] = share;
                        let edge = &edges[e];
                        let m = edge.flows.len() as u32;
                        cnt_e[edge.src as usize] -= m;
                        cnt_i[edge.dst as usize] -= m;
                        unfrozen -= 1;
                    }
                }
            }
        }
        rounds
    }

    /// Compare the solved component against the stored rates, per edge,
    /// and queue every flow whose rate changed bitwise. An edge whose
    /// rate moved changes all its flows; an unchanged `fresh` edge
    /// changes only its rateless joiners.
    fn collect_changed(&mut self) {
        let Network { scratch, edges, flows, .. } = self;
        for &e in &scratch.comp_edges {
            let edge = &mut edges[e as usize];
            let bits = scratch.solved[e as usize].to_bits();
            if bits != edge.rate.to_bits() {
                edge.rate = f64::from_bits(bits);
                scratch.changed.extend_from_slice(&edge.flows);
            } else if edge.fresh {
                scratch
                    .changed
                    .extend(edge.flows.iter().filter(|&&f| flows.rate[f as usize].to_bits() != bits));
            }
            edge.fresh = false;
        }
    }

    /// Earliest projected completion time across active flows.
    /// Amortized O(1) once resolved: stale heap heads are discarded
    /// here, early canonical heads are re-inserted at their flow's
    /// true horizon, and valid heads are left in place.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.resolve();
        while let Some(&Reverse((t, f))) = self.heap.peek() {
            let i = f as usize;
            if self.flows.live[i] {
                if self.flows.horizon[i] == t {
                    return Some(t);
                }
                if self.heap_t[i] == t {
                    // Canonical entry surfaced before the (now later)
                    // horizon: repair it in place.
                    self.heap.pop();
                    self.heap_t[i] = self.flows.horizon[i];
                    self.heap.push(Reverse((self.flows.horizon[i], f)));
                    continue;
                }
            }
            self.heap.pop();
        }
        None
    }

    /// Pop every flow that has (effectively) finished by `now`,
    /// appending their ids (ascending) to `done`. The survivors'
    /// re-solve is deferred like `start_flow`'s.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        self.resolve();
        let mut popped = std::mem::take(&mut self.scratch.done_buf);
        popped.clear();
        while let Some(&Reverse((t, f))) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.pop();
            let i = f as usize;
            if self.flows.live[i] {
                if self.flows.horizon[i] == t {
                    popped.push(f);
                } else if self.heap_t[i] == t {
                    // Early canonical entry: re-insert at the true
                    // horizon (which may itself be ≤ `now`, in which
                    // case the loop pops it right back).
                    self.heap_t[i] = self.flows.horizon[i];
                    self.heap.push(Reverse((self.flows.horizon[i], f)));
                }
            }
        }
        if !popped.is_empty() {
            // A flow re-rated onto an unchanged horizon can own two
            // valid heap entries; completion must still fire once.
            popped.sort_unstable();
            popped.dedup();
            for &f in &popped {
                self.flows.complete(now, f);
                let i = f as usize;
                let (s, d) = (self.flows.src[i], self.flows.dst[i]);
                if s != d {
                    self.detach(f);
                    self.dirty.push((s, false));
                    self.dirty.push((d, true));
                    self.pending_at = now;
                }
            }
            done.extend_from_slice(&popped);
        }
        self.scratch.done_buf = popped;
    }

    /// Pop every flow that has (effectively) finished by `now`.
    ///
    /// Legacy convenience wrapper over [`take_completed_into`]: the
    /// internal pop buffer is the reused scratch one, so the only
    /// allocation is the returned `Vec` itself — and `Vec::new` does
    /// not allocate at all when nothing completed.
    ///
    /// [`take_completed_into`]: Network::take_completed_into
    pub fn take_completed(&mut self, now: SimTime) -> Vec<FlowId> {
        let mut done = Vec::new();
        self.take_completed_into(now, &mut done);
        done
    }

    /// Observable per-flow state for the differential harness.
    #[doc(hidden)]
    pub fn debug_state(&self) -> Vec<(FlowId, u32, u32, u64, u64, u64, u64)> {
        self.flows.debug_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: u32) -> Network {
        Network::new(NetParams::default(), nodes)
    }

    #[test]
    fn single_flow_full_rate() {
        let mut n = net(2);
        let bytes = 119 * 1024 * 1024; // exactly 1 second at NIC rate
        n.start_flow(SimTime::ZERO, 0, 1, bytes);
        let t = n.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{}", t);
        let done = n.take_completed(t);
        assert_eq!(done.len(), 1);
        assert_eq!(n.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_egress() {
        let mut n = net(3);
        let b = 119 * 1024 * 1024;
        n.start_flow(SimTime::ZERO, 0, 1, b);
        n.start_flow(SimTime::ZERO, 0, 2, b);
        // Both limited by node 0 egress: each gets half rate -> 2 s.
        let t = n.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_not_just_equal_split() {
        let mut n = net(4);
        let b = 119 * 1024 * 1024;
        // Two flows out of node 0, plus one flow 2->3 that should get
        // the full rate (its ports are uncontended).
        n.start_flow(SimTime::ZERO, 0, 1, b);
        n.start_flow(SimTime::ZERO, 0, 2, b);
        let free = n.start_flow(SimTime::ZERO, 2, 3, b);
        let t1 = n.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6, "uncontended flow runs at line rate");
        let done = n.take_completed(t1);
        assert_eq!(done, vec![free]);
    }

    #[test]
    fn ingress_contention_counts_too() {
        let mut n = net(3);
        let b = 119 * 1024 * 1024;
        n.start_flow(SimTime::ZERO, 0, 2, b);
        n.start_flow(SimTime::ZERO, 1, 2, b);
        let t = n.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6, "node 2 ingress is the bottleneck");
    }

    #[test]
    fn rates_rise_when_flows_finish() {
        let mut n = net(2);
        let b = 119 * 1024 * 1024;
        n.start_flow(SimTime::ZERO, 0, 1, b / 2);
        n.start_flow(SimTime::ZERO, 0, 1, b);
        // First flow: half rate until it finishes at t=1s.
        let t1 = n.next_completion().unwrap();
        assert!((t1.as_secs_f64() - 1.0).abs() < 1e-6);
        n.take_completed(t1);
        // Second flow had b/2 left at t1, now at full rate: +0.5 s.
        let t2 = n.next_completion().unwrap();
        assert!((t2.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn loopback_bypasses_nic() {
        let mut n = net(2);
        let b = 119 * 1024 * 1024;
        n.start_flow(SimTime::ZERO, 0, 1, b);
        let lb = n.start_flow(SimTime::ZERO, 0, 0, 1024 * 1024 * 1024);
        // Loopback: 1 GiB at 1 GiB/s = 1 s, concurrent with the NIC flow
        // which also takes 1 s at full rate (loopback does not consume
        // NIC capacity).
        let t = n.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
        let done = n.take_completed(t);
        assert!(done.contains(&lb));
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn conservation() {
        let mut n = net(4);
        let mut total = 0u64;
        for i in 0..12u64 {
            let b = (i + 1) * 3_000_000;
            total += b;
            n.start_flow(SimTime::from_millis(i * 50), (i % 4) as u32, ((i + 1) % 4) as u32, b);
        }
        let mut guard = 0;
        while n.active_flows() > 0 {
            let t = n.next_completion().unwrap();
            n.take_completed(t);
            guard += 1;
            assert!(guard < 100, "flows never drain");
        }
        assert!((n.delivered_bytes() - total as f64).abs() < 16.0);
    }

    /// Completed-flow ids come back ascending (the order the old
    /// `BTreeMap` implementation guaranteed and the driver relies on).
    #[test]
    fn completion_order_is_ascending() {
        let mut n = net(2);
        let b = 10 * 1024 * 1024;
        let ids: Vec<FlowId> = (0..6).map(|_| n.start_flow(SimTime::ZERO, 0, 1, b)).collect();
        let t = n.next_completion().unwrap();
        let done = n.take_completed(t + SimDuration::from_secs(60));
        assert_eq!(done, ids);
    }

    /// The legacy allocating entry point returns exactly what the
    /// scratch-reusing one does — same ids, same order — and leaves the
    /// network in the same state.
    #[test]
    fn take_completed_matches_take_completed_into() {
        let build = |seed_bytes: u64| {
            let mut n = net(4);
            for i in 0..10u64 {
                n.start_flow(
                    SimTime::from_millis(i * 7),
                    (i % 4) as u32,
                    ((i + 2) % 4) as u32,
                    seed_bytes + i * 1_000_000,
                );
            }
            n
        };
        let mut a = build(5_000_000);
        let mut b = build(5_000_000);
        let mut step = 0;
        while a.active_flows() > 0 {
            let t = a.next_completion().unwrap();
            assert_eq!(b.next_completion(), Some(t));
            let via_vec = a.take_completed(t);
            let mut via_into = Vec::new();
            b.take_completed_into(t, &mut via_into);
            assert_eq!(via_vec, via_into, "paths disagree at step {step}");
            assert_eq!(a.debug_state(), b.debug_state());
            step += 1;
            assert!(step < 100, "flows never drain");
        }
        assert_eq!(b.active_flows(), 0);
        assert_eq!(a.delivered_bytes().to_bits(), b.delivered_bytes().to_bits());
    }

    /// Sub-tick residue regression (PR 4): a flow whose projected
    /// completion rounds below one nanosecond must still be pushed one
    /// tick into the future, never re-armed at the same instant.
    #[test]
    fn same_instant_floor_regression() {
        let mut n = net(2);
        // One byte at loopback rate: (1 - 0.5) / 2^30 s ≈ 0.47 ns.
        n.start_flow(SimTime::ZERO, 0, 0, 1);
        let t = n.next_completion().unwrap();
        assert_eq!(t.as_nanos(), 1, "horizon must clamp to the 1 ns tick");
        assert_eq!(n.take_completed(t).len(), 1);
        // The same property under contention: many tiny flows whose
        // horizons all collapse to the clamp must drain in bounded
        // steps with strictly advancing timestamps.
        let mut n = net(8);
        for i in 0..16u32 {
            n.start_flow(SimTime::ZERO, i % 8, (i + 1) % 8, 1 + (i as u64 % 3));
        }
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while n.active_flows() > 0 {
            let t = n.next_completion().unwrap();
            assert!(t > now, "completion timer re-armed at the same instant");
            now = t;
            n.take_completed(t);
            guard += 1;
            assert!(guard < 64, "tiny flows never drain");
        }
    }

    /// Edge bookkeeping: flows aggregate per `(src, dst)` pair, an
    /// emptied edge leaves its port buckets and its slot is reused, and
    /// the per-port live counters track every NIC flow.
    #[test]
    fn edges_aggregate_and_recycle() {
        let mut n = net(3);
        let b = 10 * 1024 * 1024;
        let a1 = n.start_flow(SimTime::ZERO, 0, 1, b);
        let a2 = n.start_flow(SimTime::ZERO, 0, 1, 2 * b);
        n.start_flow(SimTime::ZERO, 2, 1, 3 * b);
        n.start_flow(SimTime::ZERO, 1, 1, b);
        assert_eq!(n.edges.len(), 2, "two (src, dst) pairs, loopback excluded");
        assert_eq!(n.edges[n.link[a1 as usize].0 as usize].flows, vec![a1, a2]);
        assert_eq!((n.live_e[0], n.live_i[1], n.live_e[2]), (2, 3, 1));
        let mut now = SimTime::ZERO;
        while n.active_flows() > 0 {
            now = n.next_completion().unwrap();
            n.take_completed(now);
        }
        assert!(n.egress.iter().chain(&n.ingress).all(|b| b.is_empty()));
        assert!(n.edge_of.iter().all(|&e| e == NONE));
        assert_eq!(n.free_edges.len(), 2);
        assert!(n.live_e.iter().chain(&n.live_i).all(|&c| c == 0));
        n.start_flow(now, 1, 2, b);
        assert_eq!(n.edges.len(), 2, "a freed edge slot is reused");
    }

    /// Smoke-level differential check (the full randomized suite lives
    /// in `tests/network_diff.rs`): a hand-written trace with fan-in,
    /// fan-out and loopback keeps both solvers bit-identical.
    #[test]
    fn incremental_matches_naive_smoke() {
        let params = NetParams::default();
        let mut inc = Network::new(params.clone(), 5);
        let mut nv = NaiveNetwork::new(params, 5);
        let trace: &[(u64, u32, u32, u64)] = &[
            (0, 0, 1, 40_000_000),
            (0, 0, 2, 25_000_000),
            (0, 0, 2, 5_000_000),
            (10, 3, 4, 60_000_000),
            (15, 2, 2, 9_000_000),
            (20, 1, 2, 33_000_000),
            (25, 4, 2, 12_000_000),
        ];
        for &(ms, s, d, b) in trace {
            let t = SimTime::from_millis(ms);
            assert_eq!(inc.start_flow(t, s, d, b), nv.start_flow(t, s, d, b));
            assert_eq!(inc.debug_state(), nv.debug_state());
        }
        let mut guard = 0;
        while inc.active_flows() > 0 {
            let t = inc.next_completion().unwrap();
            assert_eq!(nv.next_completion(), Some(t));
            assert_eq!(inc.take_completed(t), nv.take_completed(t));
            assert_eq!(inc.debug_state(), nv.debug_state());
            guard += 1;
            assert!(guard < 100, "flows never drain");
        }
        assert_eq!(nv.active_flows(), 0);
        assert_eq!(inc.delivered_bytes().to_bits(), nv.delivered_bytes().to_bits());
    }
}
