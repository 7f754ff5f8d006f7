//! Sector-sorted pools of queued requests with merge indexes.
//!
//! All four elevators keep their pending requests in one or more
//! request pools: a sector-ordered "sort list" (the elevator's scan
//! order) plus hash indexes on extent boundaries for O(1) front/back
//! merge candidate lookup (Linux's `elv_rqhash` / rbtree front-merge
//! equivalents).
//!
//! Two implementations share the [`PoolKernel`] trait:
//!
//! * [`RqPool`] — the production kernel: requests live in a
//!   generational slab (`Vec` + free list; a [`Qid`] packs the slot
//!   index with the slot's generation, so stale qids held by expiry
//!   FIFOs are rejected in O(1)); sector order is a sorted index vec
//!   with binary-search insert and a scan-cursor hint that makes the
//!   sequential-continuation `next_at_or_after` amortized O(1); merge
//!   lookups go through `BoundaryMap` indexes that tolerate several
//!   queued extents sharing one boundary sector. Once they reach their
//!   high-water marks the slab and indexes stop allocating; each queued
//!   request still owns its `parts` Vec, which merges grow.
//! * `NaiveRqPool` — the retained differential oracle: a `BTreeMap`
//!   sort list with *linear-scan* merge lookups, trivially correct by
//!   inspection. It is built only for tests (the `oracle` feature,
//!   which the crate's self dev-dependency turns on);
//!   `crates/iosched/tests/kernel_diff.rs` drives both kernels through
//!   identical randomized op traces and asserts bitwise equality.
//!
//! Merge-candidate semantics (identical in both kernels, pinned by the
//! differential suite): back merges are tried before front merges, and
//! when several queued extents share the boundary sector the *oldest*
//! eligible one (same direction, merged size within `max_sectors`)
//! absorbs the arrival.

use crate::request::{AddOutcome, Dir, IoRequest, QueuedRq, RunStep, Sector, SegRun, StreamId};
#[cfg(test)]
use crate::request::RequestId;
use simcore::FxHashMap;
use std::cell::Cell;

#[cfg(any(test, feature = "oracle"))]
mod naive;
#[cfg(any(test, feature = "oracle"))]
pub use naive::NaiveRqPool;

/// Stable pool-internal id of a queued request. Survives merges (unlike
/// `QueuedRq::id()`, which is the first part's id and changes on front
/// merge). In [`RqPool`] a qid packs `(generation << 32) | slot`; in
/// the naive oracle it is a plain insertion counter. Either way qids are
/// never reused for a different request while any holder could still
/// query them.
pub type Qid = u64;

/// The request-pool interface every elevator programs against. Both the
/// slab kernel ([`RqPool`]) and the naive oracle (`NaiveRqPool`)
/// implement it, so the differential suite can instantiate whole
/// elevators over either kernel.
pub trait PoolKernel: Default + Clone + Send + std::fmt::Debug + 'static {
    /// Number of queued (merged) requests.
    fn len(&self) -> usize;

    /// True if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Try to merge `r` into an existing queued request, respecting the
    /// `max_sectors` cap on merged extents. Returns the outcome and the
    /// qid of the absorber on success.
    fn try_merge(&mut self, r: &IoRequest, max_sectors: u64) -> Option<(AddOutcome, Qid)>;

    /// Back-merge the next pieces of `run` into the queued request
    /// `qid`, which must end where the run's next piece starts, for as
    /// long as the per-piece rule would pick it: the merged size stays
    /// within `max_sectors` and no other queued extent ends at the next
    /// boundary (an older one would be the oldest eligible candidate).
    /// Returns the number of pieces absorbed. The default absorbs none,
    /// leaving every piece to [`PoolKernel::try_merge`].
    fn extend_back(&mut self, _qid: Qid, _run: &mut SegRun, _max_sectors: u64) -> u32 {
        0
    }

    /// Insert a fresh request, returning its qid.
    fn insert(&mut self, rq: QueuedRq) -> Qid;

    /// Remove a request by qid (e.g. FIFO-expired dispatch).
    fn remove(&mut self, qid: Qid) -> Option<QueuedRq>;

    /// Is this qid still queued?
    fn contains(&self, qid: Qid) -> bool;

    /// Peek the queued request with the given qid.
    fn get(&self, qid: Qid) -> Option<&QueuedRq>;

    /// Qid of the first request at or after `sector` (one-way elevator
    /// scan position), if any.
    fn next_at_or_after(&self, sector: Sector) -> Option<Qid>;

    /// Qid of the lowest-sector request, if any.
    fn first(&self) -> Option<Qid>;

    /// Qid of the last request strictly before `sector` (for backward
    /// seeks / closest-request heuristics).
    fn prev_before(&self, sector: Sector) -> Option<Qid>;

    /// Remove and return every queued request in sector order
    /// (used when hot-switching elevators).
    fn drain_all(&mut self) -> Vec<QueuedRq>;

    /// Does the pool hold any request from `stream`?
    fn has_stream(&self, stream: StreamId) -> bool;

    /// Qid of the queued request from `stream` closest to `sector`.
    fn closest_from_stream(&self, stream: StreamId, sector: Sector) -> Option<Qid>;
}

// ---------------------------------------------------------------------------
// Boundary index
// ---------------------------------------------------------------------------

/// Slots indexed under one boundary sector. Almost every boundary has
/// exactly one queued extent; the `Many` spill only materializes when
/// extents genuinely collide (e.g. a read and a write covering the same
/// range), so the common path never allocates.
#[derive(Debug, Clone)]
enum SlotSet {
    One(u32),
    Many(Vec<u32>),
}

/// A multi-entry `boundary sector -> slot` index. Unlike a plain
/// `HashMap<Sector, slot>`, two queued extents sharing a boundary do
/// not overwrite each other: both stay findable as merge candidates,
/// and removing one never drops the other's entry.
#[derive(Debug, Default, Clone)]
pub(crate) struct BoundaryMap {
    map: FxHashMap<Sector, SlotSet>,
}

impl BoundaryMap {
    /// Index `slot` under `sector`.
    pub(crate) fn insert(&mut self, sector: Sector, slot: u32) {
        match self.map.entry(sector) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(SlotSet::One(slot));
            }
            std::collections::hash_map::Entry::Occupied(mut e) => match e.get_mut() {
                SlotSet::One(prev) => {
                    let prev = *prev;
                    e.insert(SlotSet::Many(vec![prev, slot]));
                }
                SlotSet::Many(v) => v.push(slot),
            },
        }
    }

    /// Drop `slot`'s entry under `sector`; other slots sharing the
    /// boundary stay indexed. No-op if the pair is not present.
    pub(crate) fn remove(&mut self, sector: Sector, slot: u32) {
        let std::collections::hash_map::Entry::Occupied(mut e) = self.map.entry(sector) else {
            return;
        };
        match e.get_mut() {
            SlotSet::One(s) => {
                if *s == slot {
                    e.remove();
                }
            }
            SlotSet::Many(v) => {
                if let Some(pos) = v.iter().position(|&s| s == slot) {
                    v.swap_remove(pos);
                    if v.is_empty() {
                        e.remove();
                    }
                }
            }
        }
    }

    /// All slots indexed under `sector` (set order is arbitrary —
    /// callers pick deterministically, e.g. by insertion seq).
    pub(crate) fn get(&self, sector: Sector) -> &[u32] {
        match self.map.get(&sector) {
            None => &[],
            Some(SlotSet::One(s)) => std::slice::from_ref(s),
            Some(SlotSet::Many(v)) => v,
        }
    }

    /// Drop every entry, keeping allocated capacity.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
    }

    /// [`PoolKernel::extend_back`] over an end-sector index: grow `rq`,
    /// indexed here under its end as `slot`, by the next pieces of `run`
    /// while the merged size stays within `max_sectors` and no other
    /// slot ends at the next boundary. Returns the pieces absorbed.
    pub(crate) fn extend_back(
        &mut self,
        slot: u32,
        rq: &mut QueuedRq,
        run: &mut SegRun,
        max_sectors: u64,
    ) -> u32 {
        if run.next_len().is_none() {
            return 0;
        }
        debug_assert_eq!(rq.end(), run.rest().sector, "run must continue the absorber");
        debug_assert_eq!(rq.dir, run.rest().dir, "merge must not mix directions");
        let mut end = rq.end();
        // Unindexed while it grows, so any entry found under the next
        // boundary is a rival candidate: leave that piece to the
        // per-piece oldest-eligible rule.
        self.remove(end, slot);
        let mut absorbed = 0;
        while let Some(len) = run.next_len() {
            if rq.sectors + len > max_sectors || !self.get(end).is_empty() {
                break;
            }
            if absorbed == 0 {
                rq.parts.reserve(run.pieces_left());
            }
            rq.merge_back(run.next().expect("next_len saw a piece"));
            end += len;
            absorbed += 1;
        }
        self.insert(end, slot);
        absorbed
    }
}

// ---------------------------------------------------------------------------
// Slab kernel
// ---------------------------------------------------------------------------

/// One slab slot. `gen` counts how many requests have vacated the slot:
/// a [`Qid`] is only valid while its packed generation matches, so
/// expiry FIFOs may hold stale qids indefinitely (lazy invalidation)
/// without ever aliasing a reused slot.
#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    /// Global insertion sequence — the sort-order tie-break (matches
    /// the naive kernel's monotonically increasing qid).
    seq: u64,
    rq: Option<QueuedRq>,
}

/// Sorted-index entry: `order` is kept ascending by `(sector, seq)`.
#[derive(Debug, Clone, Copy)]
struct OrdEnt {
    sector: Sector,
    seq: u64,
    slot: u32,
}

/// The production sector-sorted request pool for one direction (or one
/// CFQ queue): generational slab storage, sorted index vec with a scan
/// cursor, multi-entry boundary indexes, and a per-stream refcount map
/// (O(1) [`PoolKernel::has_stream`] for the anticipation hot path).
#[derive(Debug, Default, Clone)]
pub struct RqPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Sorted by `(sector, seq)` ascending.
    order: Vec<OrdEnt>,
    /// Hint into `order` for the one-way scan: validated before use, so
    /// it may be stale. `Cell` keeps query methods `&self`.
    cursor: Cell<usize>,
    /// extent end -> slots, for back-merge lookup.
    by_end: BoundaryMap,
    /// extent start -> slots, for front-merge lookup.
    by_start: BoundaryMap,
    /// stream -> queued request count (for `has_stream`). A pool sees
    /// few distinct streams (one for a CFQ per-stream queue, the tasks
    /// of one VM or the VMs of one node otherwise), so a linear-scan
    /// vec beats hashing on the per-request bump/drop path.
    stream_refs: Vec<(StreamId, u32)>,
    next_seq: u64,
    len: usize,
}

#[inline]
fn pack_qid(gen: u32, slot: u32) -> Qid {
    ((gen as u64) << 32) | slot as u64
}

#[inline]
fn unpack_qid(qid: Qid) -> (u32, u32) {
    ((qid >> 32) as u32, qid as u32)
}

impl RqPool {
    /// Empty pool.
    pub fn new() -> Self {
        RqPool::default()
    }

    /// Slot index for a live qid, validating the generation.
    #[inline]
    fn live_slot(&self, qid: Qid) -> Option<u32> {
        let (gen, slot) = unpack_qid(qid);
        let s = self.slots.get(slot as usize)?;
        (s.gen == gen && s.rq.is_some()).then_some(slot)
    }

    #[inline]
    fn slot_qid(&self, slot: u32) -> Qid {
        pack_qid(self.slots[slot as usize].gen, slot)
    }

    /// Position in `order` of the first entry with sector >= `sector`.
    /// Hits the cursor hint in O(1) when the scan continues forward
    /// (the sequential-dispatch common case), else binary-searches and
    /// re-seats the hint.
    #[inline]
    fn lower_bound(&self, sector: Sector) -> usize {
        let ord = &self.order;
        let i = self.cursor.get();
        if i <= ord.len()
            && (i == 0 || ord[i - 1].sector < sector)
            && (i == ord.len() || ord[i].sector >= sector)
        {
            return i;
        }
        let j = ord.partition_point(|k| k.sector < sector);
        self.cursor.set(j);
        j
    }

    /// Exact position in `order` of the entry `(sector, seq)`.
    #[inline]
    fn order_pos(&self, sector: Sector, seq: u64) -> usize {
        let idx = self
            .order
            .partition_point(|k| (k.sector, k.seq) < (sector, seq));
        debug_assert!(
            idx < self.order.len() && self.order[idx].seq == seq,
            "order index out of sync"
        );
        idx
    }

    fn order_insert(&mut self, sector: Sector, seq: u64, slot: u32) {
        let idx = self
            .order
            .partition_point(|k| (k.sector, k.seq) < (sector, seq));
        self.order.insert(idx, OrdEnt { sector, seq, slot });
        if idx < self.cursor.get() {
            self.cursor.set(self.cursor.get() + 1);
        }
    }

    fn order_remove(&mut self, sector: Sector, seq: u64) {
        let idx = self.order_pos(sector, seq);
        self.order.remove(idx);
        // The next entry shifted into `idx`: exactly where a one-way
        // scan continues after dispatching this request.
        self.cursor.set(idx);
    }

    /// Among `slots` (extents sharing one boundary), the oldest one
    /// that can absorb `add_sectors` more in direction `dir`.
    #[inline]
    fn oldest_eligible(&self, slots: &[u32], dir: Dir, add_sectors: u64, max: u64) -> Option<u32> {
        let mut best: Option<(u64, u32)> = None;
        for &slot in slots {
            let s = &self.slots[slot as usize];
            let rq = s.rq.as_ref().expect("boundary index points at live slot");
            if rq.dir == dir
                && rq.sectors + add_sectors <= max
                && best.is_none_or(|(bseq, _)| s.seq < bseq)
            {
                best = Some((s.seq, slot));
            }
        }
        best.map(|(_, slot)| slot)
    }

    fn bump_stream(&mut self, stream: StreamId) {
        if let Some(e) = self.stream_refs.iter_mut().find(|(s, _)| *s == stream) {
            e.1 += 1;
        } else {
            self.stream_refs.push((stream, 1));
        }
    }

    fn drop_stream(&mut self, stream: StreamId) {
        let Some(i) = self.stream_refs.iter().position(|(s, _)| *s == stream) else {
            debug_assert!(false, "dropping unknown stream ref");
            return;
        };
        debug_assert!(self.stream_refs[i].1 > 0, "stream refcount underflow");
        self.stream_refs[i].1 -= 1;
        if self.stream_refs[i].1 == 0 {
            self.stream_refs.swap_remove(i);
        }
    }

    /// Iterate queued requests in sector order.
    pub fn iter(&self) -> impl Iterator<Item = (Qid, &QueuedRq)> {
        self.order.iter().map(|e| {
            let s = &self.slots[e.slot as usize];
            (
                pack_qid(s.gen, e.slot),
                s.rq.as_ref().expect("order entry points at live slot"),
            )
        })
    }
}

impl PoolKernel for RqPool {
    fn len(&self) -> usize {
        self.len
    }

    fn try_merge(&mut self, r: &IoRequest, max_sectors: u64) -> Option<(AddOutcome, Qid)> {
        // Back merge: an existing extent ends where r starts.
        if let Some(slot) =
            self.oldest_eligible(self.by_end.get(r.sector), r.dir, r.sectors, max_sectors)
        {
            let qid = self.slot_qid(slot);
            self.by_end.remove(r.sector, slot);
            let rq = self.slots[slot as usize].rq.as_mut().expect("live");
            rq.merge_back(r.clone());
            let (new_end, id) = (rq.end(), rq.id());
            self.by_end.insert(new_end, slot);
            // Start sector unchanged: the order index stays put.
            return Some((AddOutcome::MergedBack(id), qid));
        }
        // Front merge: an existing extent starts where r ends.
        if let Some(slot) =
            self.oldest_eligible(self.by_start.get(r.end()), r.dir, r.sectors, max_sectors)
        {
            let qid = self.slot_qid(slot);
            let seq = self.slots[slot as usize].seq;
            let old_sector = self.slots[slot as usize]
                .rq
                .as_ref()
                .expect("live")
                .sector;
            // The start sector changes: re-key order and by_start. The
            // slot, generation, and seq (sort tie-break) all survive.
            self.order_remove(old_sector, seq);
            self.by_start.remove(old_sector, slot);
            let rq = self.slots[slot as usize].rq.as_mut().expect("live");
            rq.merge_front(r.clone());
            let (new_sector, id) = (rq.sector, rq.id());
            self.order_insert(new_sector, seq, slot);
            self.by_start.insert(new_sector, slot);
            return Some((AddOutcome::MergedFront(id), qid));
        }
        None
    }

    fn extend_back(&mut self, qid: Qid, run: &mut SegRun, max_sectors: u64) -> u32 {
        let slot = self.live_slot(qid).expect("absorber is live");
        let rq = self.slots[slot as usize].rq.as_mut().expect("live");
        self.by_end.extend_back(slot, rq, run, max_sectors)
    }

    fn insert(&mut self, rq: QueuedRq) -> Qid {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (sector, end, stream) = (rq.sector, rq.end(), rq.stream);
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.rq.is_none(), "free-list slot still occupied");
                s.seq = seq;
                s.rq = Some(rq);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, seq, rq: Some(rq) });
                slot
            }
        };
        self.order_insert(sector, seq, slot);
        self.by_end.insert(end, slot);
        self.by_start.insert(sector, slot);
        self.bump_stream(stream);
        self.len += 1;
        self.slot_qid(slot)
    }

    fn remove(&mut self, qid: Qid) -> Option<QueuedRq> {
        let slot = self.live_slot(qid)?;
        let s = &mut self.slots[slot as usize];
        let rq = s.rq.take().expect("live_slot checked occupancy");
        s.gen = s.gen.wrapping_add(1);
        let seq = s.seq;
        self.order_remove(rq.sector, seq);
        self.by_end.remove(rq.end(), slot);
        self.by_start.remove(rq.sector, slot);
        self.drop_stream(rq.stream);
        self.free.push(slot);
        self.len -= 1;
        Some(rq)
    }

    fn contains(&self, qid: Qid) -> bool {
        self.live_slot(qid).is_some()
    }

    fn get(&self, qid: Qid) -> Option<&QueuedRq> {
        let slot = self.live_slot(qid)?;
        self.slots[slot as usize].rq.as_ref()
    }

    fn next_at_or_after(&self, sector: Sector) -> Option<Qid> {
        let idx = self.lower_bound(sector);
        self.order.get(idx).map(|e| self.slot_qid(e.slot))
    }

    fn first(&self) -> Option<Qid> {
        self.order.first().map(|e| self.slot_qid(e.slot))
    }

    fn prev_before(&self, sector: Sector) -> Option<Qid> {
        let idx = self.order.partition_point(|k| k.sector < sector);
        (idx > 0).then(|| self.slot_qid(self.order[idx - 1].slot))
    }

    fn drain_all(&mut self) -> Vec<QueuedRq> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.order.len() {
            let slot = self.order[i].slot;
            let s = &mut self.slots[slot as usize];
            out.push(s.rq.take().expect("order entry points at live slot"));
            s.gen = s.gen.wrapping_add(1);
            self.free.push(slot);
        }
        self.order.clear();
        self.cursor.set(0);
        self.by_end.clear();
        self.by_start.clear();
        self.stream_refs.clear();
        self.len = 0;
        out
    }

    fn has_stream(&self, stream: StreamId) -> bool {
        self.stream_refs.iter().any(|(s, _)| *s == stream)
    }

    fn closest_from_stream(&self, stream: StreamId, sector: Sector) -> Option<Qid> {
        self.iter()
            .filter(|(_, rq)| rq.stream == stream)
            .min_by_key(|(_, rq)| rq.sector.abs_diff(sector))
            .map(|(qid, _)| qid)
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Convenience wrapper: add `r` to the pool, merging when possible.
/// Returns the outcome and the qid holding the request's data. Merges
/// count as `merged` under the caller's open `iosched.add` span.
pub fn add_with_merge<P: PoolKernel>(
    pool: &mut P,
    r: IoRequest,
    max_sectors: u64,
) -> (AddOutcome, Qid) {
    if let Some((outcome, qid)) = pool.try_merge(&r, max_sectors) {
        simcore::prof::count_hot("merged", 1);
        (outcome, qid)
    } else {
        let qid = pool.insert(QueuedRq::from_request(r));
        (AddOutcome::Queued, qid)
    }
}

/// Add every piece of `run` to `pool`: each piece that [`add_with_merge`]
/// queues or back-merges then absorbs as many following pieces as
/// [`PoolKernel::extend_back`] allows. `on_queued` sees the qid of every
/// freshly queued request; `others` is the elevator's queued count
/// outside `pool`, so `others + pool.len()` is the depth after each
/// arrival.
pub fn add_run_with_merge<P: PoolKernel>(
    pool: &mut P,
    run: &mut SegRun,
    max_sectors: u64,
    others: usize,
    steps: &mut Vec<RunStep>,
    mut on_queued: impl FnMut(Qid),
) {
    while let Some(r) = run.next() {
        let id = r.id;
        let (outcome, qid) = add_with_merge(pool, r, max_sectors);
        let depth = others + pool.len();
        RunStep::push(steps, outcome, depth, 1);
        let absorber = match outcome {
            AddOutcome::Queued => {
                on_queued(qid);
                id
            }
            AddOutcome::MergedBack(absorber) => absorber,
            AddOutcome::MergedFront(_) => continue,
        };
        let absorbed = pool.extend_back(qid, run, max_sectors);
        if absorbed > 0 {
            simcore::prof::count_hot("merged", absorbed as u64);
            RunStep::push(steps, AddOutcome::MergedBack(absorber), depth, absorbed);
        }
    }
}

/// Direction-indexed pair of pools (deadline/AS keep one per direction).
#[derive(Debug, Default, Clone)]
pub struct DirPools<P: PoolKernel = RqPool> {
    pools: [P; 2],
}

impl<P: PoolKernel> DirPools<P> {
    /// Empty pools.
    pub fn new() -> Self {
        DirPools::default()
    }

    /// Pool for one direction.
    pub fn pool(&self, dir: Dir) -> &P {
        &self.pools[dir.idx()]
    }

    /// Mutable pool for one direction.
    pub fn pool_mut(&mut self, dir: Dir) -> &mut P {
        &mut self.pools[dir.idx()]
    }

    /// Total queued requests across directions.
    pub fn len(&self) -> usize {
        self.pools[0].len() + self.pools[1].len()
    }

    /// True if both pools are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain both pools in sector order (reads then writes).
    pub fn drain_all(&mut self) -> Vec<QueuedRq> {
        let mut v = self.pools[0].drain_all();
        v.extend(self.pools[1].drain_all());
        v
    }
}

/// A FIFO of (qid, deadline) entries with lazy invalidation: entries
/// whose qid has left the pool are skipped on pop (the deadline
/// elevator's expiry list). Holds slab qids directly — generational
/// validation makes `contains` an O(1) slot probe.
#[derive(Debug, Default, Clone)]
pub struct DeadlineFifo {
    entries: std::collections::VecDeque<(Qid, simcore::SimTime)>,
}

impl DeadlineFifo {
    /// Empty FIFO.
    pub fn new() -> Self {
        DeadlineFifo::default()
    }

    /// Append an entry.
    pub fn push(&mut self, qid: Qid, deadline: simcore::SimTime) {
        self.entries.push_back((qid, deadline));
    }

    /// The head entry still live in `pool`, dropping stale ones.
    pub fn head<P: PoolKernel>(&mut self, pool: &P) -> Option<(Qid, simcore::SimTime)> {
        while let Some(&(qid, dl)) = self.entries.front() {
            if pool.contains(qid) {
                return Some((qid, dl));
            }
            self.entries.pop_front();
        }
        None
    }

    /// Has the head entry expired at `now`?
    pub fn head_expired<P: PoolKernel>(
        &mut self,
        pool: &P,
        now: simcore::SimTime,
    ) -> Option<Qid> {
        match self.head(pool) {
            Some((qid, dl)) if dl <= now => Some(qid),
            _ => None,
        }
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Pending entry count (including stale ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Dir;
    use simcore::SimTime;

    fn req(id: RequestId, sector: Sector, sectors: u64) -> IoRequest {
        IoRequest {
            id,
            stream: (id % 4) as u32,
            sector,
            sectors,
            dir: Dir::Read,
            sync: true,
            submitted: SimTime::from_micros(id),
        }
    }

    #[test]
    fn insert_and_order() {
        let mut p = RqPool::new();
        p.insert(QueuedRq::from_request(req(1, 500, 8)));
        p.insert(QueuedRq::from_request(req(2, 100, 8)));
        p.insert(QueuedRq::from_request(req(3, 300, 8)));
        let order: Vec<Sector> = p.iter().map(|(_, rq)| rq.sector).collect();
        assert_eq!(order, vec![100, 300, 500]);
    }

    #[test]
    fn back_merge_through_index() {
        let mut p = RqPool::new();
        let (o1, q1) = add_with_merge(&mut p, req(1, 100, 8), 1024);
        assert_eq!(o1, AddOutcome::Queued);
        let (o2, q2) = add_with_merge(&mut p, req(2, 108, 8), 1024);
        assert_eq!(o2, AddOutcome::MergedBack(1));
        assert_eq!(q1, q2);
        assert_eq!(p.len(), 1);
        let rq = p.get(q1).unwrap();
        assert_eq!((rq.sector, rq.sectors), (100, 16));
        rq.check_invariants();
        // Chain a third: the end index must have moved.
        let (o3, _) = add_with_merge(&mut p, req(3, 116, 8), 1024);
        assert_eq!(o3, AddOutcome::MergedBack(1));
        assert_eq!(p.get(q1).unwrap().sectors, 24);
    }

    #[test]
    fn front_merge_rekeys() {
        let mut p = RqPool::new();
        let (_, qid) = add_with_merge(&mut p, req(5, 108, 8), 1024);
        let (o, q2) = add_with_merge(&mut p, req(6, 100, 8), 1024);
        assert_eq!(o, AddOutcome::MergedFront(6));
        assert_eq!(qid, q2, "qid survives the front merge");
        let rq = p.get(qid).unwrap();
        assert_eq!((rq.sector, rq.sectors), (100, 16));
        assert_eq!(p.first(), Some(qid));
        // And it can still back-merge at the new end.
        let (o3, _) = add_with_merge(&mut p, req(7, 116, 8), 1024);
        assert_eq!(o3, AddOutcome::MergedBack(6));
    }

    #[test]
    fn merge_respects_max_sectors() {
        let mut p = RqPool::new();
        add_with_merge(&mut p, req(1, 0, 1000), 1024);
        let (o, _) = add_with_merge(&mut p, req(2, 1000, 100), 1024);
        assert_eq!(o, AddOutcome::Queued, "would exceed 1024-sector cap");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn merge_requires_same_dir() {
        let mut p = RqPool::new();
        add_with_merge(&mut p, req(1, 0, 8), 1024);
        let mut w = req(2, 8, 8);
        w.dir = Dir::Write;
        let (o, _) = add_with_merge(&mut p, w, 1024);
        assert_eq!(o, AddOutcome::Queued);
    }

    #[test]
    fn scan_positions() {
        let mut p = RqPool::new();
        let a = p.insert(QueuedRq::from_request(req(1, 100, 8)));
        let b = p.insert(QueuedRq::from_request(req(2, 300, 8)));
        assert_eq!(p.next_at_or_after(0), Some(a));
        assert_eq!(p.next_at_or_after(101), Some(b));
        assert_eq!(p.next_at_or_after(301), None);
        assert_eq!(p.prev_before(300), Some(a));
        assert_eq!(p.prev_before(100), None);
    }

    #[test]
    fn remove_and_contains() {
        let mut p = RqPool::new();
        let q = p.insert(QueuedRq::from_request(req(1, 100, 8)));
        assert!(p.contains(q));
        let rq = p.remove(q).unwrap();
        assert_eq!(rq.sector, 100);
        assert!(!p.contains(q));
        assert!(p.remove(q).is_none());
        // Indexes are gone too: no spurious merges against removed rq.
        let (o, _) = add_with_merge(&mut p, req(2, 108, 8), 1024);
        assert_eq!(o, AddOutcome::Queued);
    }

    #[test]
    fn slot_reuse_invalidates_stale_qids() {
        // A qid held across its slot's reuse (the DeadlineFifo pattern)
        // must not alias the new occupant: the generation differs.
        let mut p = RqPool::new();
        let a = p.insert(QueuedRq::from_request(req(1, 100, 8)));
        p.remove(a).unwrap();
        let b = p.insert(QueuedRq::from_request(req(2, 900, 8)));
        assert_ne!(a, b, "reused slot must carry a new generation");
        assert!(!p.contains(a));
        assert!(p.get(a).is_none());
        assert!(p.remove(a).is_none());
        assert_eq!(p.get(b).unwrap().sector, 900);
    }

    #[test]
    fn fifo_lazy_invalidation() {
        let mut p = RqPool::new();
        let mut f = DeadlineFifo::new();
        let a = p.insert(QueuedRq::from_request(req(1, 100, 8)));
        let b = p.insert(QueuedRq::from_request(req(2, 300, 8)));
        f.push(a, SimTime::from_millis(500));
        f.push(b, SimTime::from_millis(600));
        p.remove(a);
        assert_eq!(f.head(&p), Some((b, SimTime::from_millis(600))));
        assert_eq!(f.head_expired(&p, SimTime::from_millis(599)), None);
        assert_eq!(f.head_expired(&p, SimTime::from_millis(600)), Some(b));
    }

    #[test]
    fn stream_queries() {
        let mut p = RqPool::new();
        p.insert(QueuedRq::from_request(req(4, 100, 8))); // stream 0
        p.insert(QueuedRq::from_request(req(5, 900, 8))); // stream 1
        p.insert(QueuedRq::from_request(req(9, 200, 8))); // stream 1
        assert!(p.has_stream(0));
        assert!(!p.has_stream(3));
        let qid = p.closest_from_stream(1, 250).unwrap();
        assert_eq!(p.get(qid).unwrap().sector, 200);
    }

    #[test]
    fn stream_refcounts_across_merge_remove_drain() {
        // has_stream is backed by refcounts: merges must not change
        // them (a merged extent keeps its absorber's stream), removes
        // and drains must release them exactly.
        let mut p = RqPool::new();
        let mk = |id: u64, stream: u32, sector: u64| IoRequest {
            id,
            stream,
            sector,
            sectors: 8,
            dir: Dir::Read,
            sync: true,
            submitted: SimTime::ZERO,
        };
        let (_, q1) = add_with_merge(&mut p, mk(1, 7, 100), 1024);
        let (_, q2) = add_with_merge(&mut p, mk(2, 7, 900), 1024);
        assert!(p.has_stream(7));
        // Back merge from another stream: absorbed into q1 (stream 7),
        // no new stream-8 entry appears.
        let (o, _) = add_with_merge(&mut p, mk(3, 8, 108), 1024);
        assert_eq!(o, AddOutcome::MergedBack(1));
        assert!(!p.has_stream(8), "merged part does not count as queued");
        // Front merge keeps the absorber's stream refcount.
        let (o, _) = add_with_merge(&mut p, mk(4, 8, 92), 1024);
        assert_eq!(o, AddOutcome::MergedFront(4));
        assert!(p.has_stream(7));
        assert!(!p.has_stream(8));
        // Removing one of two stream-7 requests keeps the stream live.
        p.remove(q1).unwrap();
        assert!(p.has_stream(7));
        p.remove(q2).unwrap();
        assert!(!p.has_stream(7), "last removal releases the stream");
        // Refill and drain: everything released at once.
        add_with_merge(&mut p, mk(5, 9, 500), 1024);
        add_with_merge(&mut p, mk(6, 10, 700), 1024);
        assert!(p.has_stream(9) && p.has_stream(10));
        p.drain_all();
        assert!(!p.has_stream(9) && !p.has_stream(10));
    }

    #[test]
    fn drain_in_sector_order() {
        let mut p = RqPool::new();
        p.insert(QueuedRq::from_request(req(1, 500, 8)));
        p.insert(QueuedRq::from_request(req(2, 100, 8)));
        let drained = p.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(drained[0].sector < drained[1].sector);
        assert!(p.is_empty());
    }

    /// Regression for the single-slot boundary-index bug: two queued
    /// extents sharing a boundary sector must *both* stay findable as
    /// merge candidates, and removing one must not drop the other's
    /// index entry. The original `HashMap<Sector, Key>` indexes
    /// overwrote on insert and removed-by-sector on removal, silently
    /// losing merge candidates. Pinned for both kernels.
    fn duplicate_boundary_case<P: PoolKernel>() {
        let mk = |id: u64, sector: u64, sectors: u64, dir: Dir| IoRequest {
            id,
            stream: id as u32,
            sector,
            sectors,
            dir,
            sync: dir == Dir::Read,
            submitted: SimTime::from_micros(id),
        };
        // Two same-direction extents both ending at 200: 100..200 and
        // 150..200 (overlapping tails happen with duplicate content
        // ranges; the pool does not forbid them).
        let mut p = P::default();
        let (_, qa) = add_with_merge(&mut p, mk(1, 100, 100, Dir::Read), 1024);
        let (_, qb) = add_with_merge(&mut p, mk(2, 150, 50, Dir::Read), 1024);
        assert_eq!(p.len(), 2);
        // A request at 200 back-merges into the *older* extent (qa).
        let (o, q) = add_with_merge(&mut p, mk(3, 200, 8, Dir::Read), 1024);
        assert_eq!(o, AddOutcome::MergedBack(1));
        assert_eq!(q, qa);
        // qb still ends at 200 and must still be indexed: after qa is
        // removed, a fresh arrival at 200 merges into qb rather than
        // queueing (the original index had dropped qb's entry).
        p.remove(qa).unwrap();
        let (o, q) = add_with_merge(&mut p, mk(4, 200, 8, Dir::Read), 1024);
        assert_eq!(o, AddOutcome::MergedBack(2));
        assert_eq!(q, qb);

        // Same collision on the *start* boundary: two extents starting
        // at 1000; a front-merge candidate at 992 picks the older one,
        // and the younger stays findable after the older leaves.
        let mut p = P::default();
        let (_, qa) = add_with_merge(&mut p, mk(10, 1000, 64, Dir::Read), 1024);
        let (_, qb) = add_with_merge(&mut p, mk(11, 1000, 32, Dir::Read), 1024);
        let (o, q) = add_with_merge(&mut p, mk(12, 992, 8, Dir::Read), 1024);
        assert_eq!(o, AddOutcome::MergedFront(12));
        assert_eq!(q, qa);
        p.remove(qa).unwrap();
        let (o, q) = add_with_merge(&mut p, mk(13, 992, 8, Dir::Read), 1024);
        assert_eq!(o, AddOutcome::MergedFront(13));
        assert_eq!(q, qb);

        // Direction mismatch at a shared boundary: the write ending at
        // 200 is skipped, the read (inserted later) still merges.
        let mut p = P::default();
        add_with_merge(&mut p, mk(20, 100, 100, Dir::Write), 1024);
        let (_, qr) = add_with_merge(&mut p, mk(21, 150, 50, Dir::Read), 1024);
        let (o, q) = add_with_merge(&mut p, mk(22, 200, 8, Dir::Read), 1024);
        assert_eq!(o, AddOutcome::MergedBack(21));
        assert_eq!(q, qr);
    }

    #[test]
    fn duplicate_boundary_sectors_slab() {
        duplicate_boundary_case::<RqPool>();
    }

    #[test]
    fn duplicate_boundary_sectors_naive() {
        duplicate_boundary_case::<NaiveRqPool>();
    }

    #[test]
    fn scan_cursor_survives_churn() {
        // Interleave scans with inserts/removes around the cursor: the
        // hint is only a hint, answers must match the naive kernel.
        let mut p = RqPool::new();
        let mut n = NaiveRqPool::new();
        let mut g = simcore::check::Gen::from_seed(7);
        let mut live: Vec<(Qid, Qid)> = Vec::new();
        for i in 0..2000u64 {
            match g.u32_in(0, 10) {
                0..=4 => {
                    let r = req(i + 1, g.u64_in(0, 5_000), g.u64_in(1, 64));
                    let (op, qp) = add_with_merge(&mut p, r.clone(), 1024);
                    let (on, qn) = add_with_merge(&mut n, r, 1024);
                    assert_eq!(op, on);
                    if op == AddOutcome::Queued {
                        live.push((qp, qn));
                    }
                }
                5..=6 => {
                    let s = g.u64_in(0, 5_200);
                    let a = p.next_at_or_after(s).map(|q| p.get(q).unwrap().clone());
                    let b = n.next_at_or_after(s).map(|q| n.get(q).unwrap().clone());
                    assert_eq!(a, b, "scan diverged at sector {s}");
                }
                _ => {
                    if !live.is_empty() {
                        let idx = g.usize_in(0, live.len());
                        let (qp, qn) = live.swap_remove(idx);
                        assert_eq!(p.remove(qp), n.remove(qn));
                    }
                }
            }
            // Merges can consume entries whose qids we hold; prune.
            live.retain(|&(qp, qn)| {
                assert_eq!(p.contains(qp), n.contains(qn));
                p.contains(qp)
            });
            assert_eq!(p.len(), n.len());
        }
    }
}
