//! Flow-level reference solver, the oracle for [`super::Network`].
//!
//! It shares only the flow slab (per-flow state and how a new rate or a
//! completion is folded into it) with the production solver. The
//! water-filling is its own: per-flow port buckets rebuilt on every
//! resolve, a per-flow BFS, a counting pass, and a freeze walk that
//! retires one flow at a time — the kernel the edge-level solver
//! replaced. Every change re-solves every component, and completions
//! are found by scanning all live flows. Built only for tests (the
//! `oracle` feature).

use super::{FlowId, FlowSlab, NetParams, PORT_EPS};
use simcore::SimTime;

/// Reference max-min solver; see the module docs.
pub struct NaiveNetwork {
    flows: FlowSlab,
    /// Population changed at `pending_at`; rates are stale until the
    /// next resolve (same deferral contract as `Network`, so the two
    /// stay bit-identical under identical call sequences).
    stale: bool,
    pending_at: SimTime,
}

impl NaiveNetwork {
    /// Network over `nodes` nodes.
    pub fn new(params: NetParams, nodes: u32) -> Self {
        NaiveNetwork { flows: FlowSlab::new(params, nodes), stale: false, pending_at: SimTime::ZERO }
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.live_count
    }

    /// Total bytes delivered so far.
    pub fn delivered_bytes(&self) -> f64 {
        self.flows.delivered_bytes
    }

    /// Full re-solve of the pending population change: every port
    /// seeds a BFS, so every component is visited. Untouched components
    /// reproduce their rates bit-exactly and materialize nothing.
    fn resolve(&mut self) {
        if !self.stale {
            return;
        }
        self.stale = false;
        let fl = &self.flows;
        let n = fl.nodes as usize;
        let nic = fl.params.nic_bytes_per_sec as f64;
        let (mut egress, mut ingress) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        for f in 1..fl.next_id {
            let i = f as usize;
            if fl.live[i] && fl.src[i] != fl.dst[i] {
                egress[fl.src[i] as usize].push(f);
                ingress[fl.dst[i] as usize].push(f);
            }
        }
        let (mut seen_e, mut seen_i) = (vec![false; n], vec![false; n]);
        // Component-local index of each flow under solve.
        let mut local = vec![0usize; fl.len()];
        let mut changed = Vec::new();
        let seeds = (0..n).map(|p| (p, false)).chain((0..n).map(|p| (p, true)));
        for (seed, seed_ing) in seeds {
            let seen = if seed_ing { &mut seen_i[seed] } else { &mut seen_e[seed] };
            if *seen {
                continue;
            }
            *seen = true;
            // BFS the port/flow graph; a flow is collected from its
            // egress port.
            let (mut comp_e, mut comp_i, mut comp) = (Vec::new(), Vec::new(), Vec::new());
            let mut bfs = vec![(seed, seed_ing)];
            while let Some((p, ing)) = bfs.pop() {
                if ing {
                    comp_i.push(p);
                    for &f in &ingress[p] {
                        let o = fl.src[f as usize] as usize;
                        if !seen_e[o] {
                            seen_e[o] = true;
                            bfs.push((o, false));
                        }
                    }
                } else {
                    comp_e.push(p);
                    for &f in &egress[p] {
                        local[f as usize] = comp.len();
                        comp.push(f);
                        let o = fl.dst[f as usize] as usize;
                        if !seen_i[o] {
                            seen_i[o] = true;
                            bfs.push((o, true));
                        }
                    }
                }
            }
            if comp.is_empty() {
                continue;
            }
            // Water-filling over per-flow counts.
            let (mut cap_e, mut cap_i) = (vec![nic; n], vec![nic; n]);
            let (mut cnt_e, mut cnt_i) = (vec![0u32; n], vec![0u32; n]);
            let (mut sat_e, mut sat_i) = (vec![false; n], vec![false; n]);
            for &f in &comp {
                cnt_e[fl.src[f as usize] as usize] += 1;
                cnt_i[fl.dst[f as usize] as usize] += 1;
            }
            let mut rate: Vec<Option<f64>> = vec![None; comp.len()];
            let mut unfrozen = comp.len();
            let mut share = 0.0f64;
            while unfrozen > 0 {
                let mut b = f64::INFINITY;
                for &p in &comp_e {
                    if !sat_e[p] && cnt_e[p] > 0 {
                        b = b.min(cap_e[p] / cnt_e[p] as f64);
                    }
                }
                for &p in &comp_i {
                    if !sat_i[p] && cnt_i[p] > 0 {
                        b = b.min(cap_i[p] / cnt_i[p] as f64);
                    }
                }
                assert!(b.is_finite() && b > 0.0, "degenerate round: b={b}");
                share += b;
                let mut sat_new = Vec::new();
                for &p in &comp_e {
                    if !sat_e[p] && cnt_e[p] > 0 {
                        cap_e[p] -= cnt_e[p] as f64 * b;
                        if cap_e[p] <= PORT_EPS {
                            sat_e[p] = true;
                            sat_new.push(&egress[p]);
                        }
                    }
                }
                for &p in &comp_i {
                    if !sat_i[p] && cnt_i[p] > 0 {
                        cap_i[p] -= cnt_i[p] as f64 * b;
                        if cap_i[p] <= PORT_EPS {
                            sat_i[p] = true;
                            sat_new.push(&ingress[p]);
                        }
                    }
                }
                for bucket in sat_new {
                    for &f in bucket {
                        let r = &mut rate[local[f as usize]];
                        if r.is_none() {
                            *r = Some(share);
                            cnt_e[fl.src[f as usize] as usize] -= 1;
                            cnt_i[fl.dst[f as usize] as usize] -= 1;
                            unfrozen -= 1;
                        }
                    }
                }
            }
            for (&f, r) in comp.iter().zip(rate) {
                let r = r.expect("every flow freezes");
                if r.to_bits() != fl.rate[f as usize].to_bits() {
                    changed.push((f, r));
                }
            }
        }
        changed.sort_unstable_by_key(|&(f, _)| f);
        self.flows.apply_rates(self.pending_at, changed.into_iter());
    }

    /// Start a flow; returns its id. Defers the re-solve exactly like
    /// `Network::start_flow`.
    pub fn start_flow(&mut self, now: SimTime, src: u32, dst: u32, bytes: u64) -> FlowId {
        if self.stale && now != self.pending_at {
            self.resolve();
        }
        let id = self.flows.insert(now, src, dst, bytes);
        if src != dst {
            self.stale = true;
            self.pending_at = now;
        }
        id
    }

    /// Earliest projected completion time across active flows — O(n)
    /// scan over the whole slab.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.resolve();
        (1..self.flows.next_id)
            .filter(|&f| self.flows.live[f as usize])
            .map(|f| self.flows.horizon[f as usize])
            .min()
    }

    /// Pop every flow that has (effectively) finished by `now`,
    /// appending their ids (ascending) to `done`.
    pub fn take_completed_into(&mut self, now: SimTime, done: &mut Vec<FlowId>) {
        self.resolve();
        let popped: Vec<FlowId> = (1..self.flows.next_id)
            .filter(|&f| self.flows.live[f as usize] && self.flows.horizon[f as usize] <= now)
            .collect();
        for &f in &popped {
            self.flows.complete(now, f);
            if self.flows.src[f as usize] != self.flows.dst[f as usize] {
                self.stale = true;
                self.pending_at = now;
            }
        }
        done.extend_from_slice(&popped);
    }

    /// Pop every flow that has (effectively) finished by `now`.
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
