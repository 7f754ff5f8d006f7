//! The naive request-pool oracle for [`super::RqPool`]: a `BTreeMap`
//! sort list with linear-scan merge lookups. Built only for tests (the
//! `oracle` feature).

use super::{PoolKernel, Qid};
use crate::request::{AddOutcome, Dir, IoRequest, QueuedRq, Sector, StreamId};
use simcore::FxHashMap;
use std::collections::BTreeMap;

/// Sort key of the naive kernel: requests are ordered by start sector,
/// ties broken by qid (== insertion order).
type NaiveKey = (Sector, Qid);

/// The retained differential oracle: the pre-slab `BTreeMap` pool with
/// merge lookups done by *linear scan* over the sort list instead of
/// boundary hash indexes — trivially correct for duplicate boundary
/// sectors (the single-slot index of the original implementation
/// dropped one of two extents sharing a boundary). O(n) merges: use
/// only in tests.
#[derive(Debug, Default)]
pub struct NaiveRqPool {
    sorted: BTreeMap<NaiveKey, QueuedRq>,
    /// live qid -> key, for FIFO cross-references.
    live: FxHashMap<Qid, NaiveKey>,
    next_qid: Qid,
}

impl NaiveRqPool {
    /// Empty pool.
    pub fn new() -> Self {
        NaiveRqPool::default()
    }

    fn insert_with_qid(&mut self, rq: QueuedRq, qid: Qid) {
        let key = (rq.sector, qid);
        self.live.insert(qid, key);
        let prev = self.sorted.insert(key, rq);
        debug_assert!(prev.is_none(), "duplicate pool key");
    }

    fn remove_by_key(&mut self, key: NaiveKey) -> Option<QueuedRq> {
        let rq = self.sorted.remove(&key)?;
        self.live.remove(&key.1);
        Some(rq)
    }

    /// Oldest queued extent satisfying `pred` that can absorb
    /// `add_sectors` more in direction `dir` (linear scan; qid order ==
    /// insertion order).
    fn oldest_matching(
        &self,
        dir: Dir,
        add_sectors: u64,
        max: u64,
        pred: impl Fn(&QueuedRq) -> bool,
    ) -> Option<NaiveKey> {
        self.sorted
            .iter()
            .filter(|(_, rq)| pred(rq) && rq.dir == dir && rq.sectors + add_sectors <= max)
            .min_by_key(|(&(_, qid), _)| qid)
            .map(|(&key, _)| key)
    }

    /// Iterate queued requests in sector order.
    pub fn iter(&self) -> impl Iterator<Item = (Qid, &QueuedRq)> {
        self.sorted.iter().map(|(&(_, qid), rq)| (qid, rq))
    }
}

impl PoolKernel for NaiveRqPool {
    fn len(&self) -> usize {
        self.sorted.len()
    }

    fn try_merge(&mut self, r: &IoRequest, max_sectors: u64) -> Option<(AddOutcome, Qid)> {
        // Back merge: an existing extent ends where r starts.
        if let Some(key) =
            self.oldest_matching(r.dir, r.sectors, max_sectors, |rq| rq.end() == r.sector)
        {
            let rq = self.sorted.get_mut(&key).expect("scan found it");
            rq.merge_back(r.clone());
            return Some((AddOutcome::MergedBack(rq.id()), key.1));
        }
        // Front merge: an existing extent starts where r ends.
        if let Some(key) =
            self.oldest_matching(r.dir, r.sectors, max_sectors, |rq| rq.sector == r.end())
        {
            let qid = key.1;
            // The start sector changes: re-key the entry.
            let mut rq = self.remove_by_key(key).expect("scan found it");
            rq.merge_front(r.clone());
            let id = rq.id();
            self.insert_with_qid(rq, qid);
            return Some((AddOutcome::MergedFront(id), qid));
        }
        None
    }

    fn insert(&mut self, rq: QueuedRq) -> Qid {
        let qid = self.next_qid;
        self.next_qid += 1;
        self.insert_with_qid(rq, qid);
        qid
    }

    fn remove(&mut self, qid: Qid) -> Option<QueuedRq> {
        let key = *self.live.get(&qid)?;
        self.remove_by_key(key)
    }

    fn contains(&self, qid: Qid) -> bool {
        self.live.contains_key(&qid)
    }

    fn get(&self, qid: Qid) -> Option<&QueuedRq> {
        let key = self.live.get(&qid)?;
        self.sorted.get(key)
    }

    fn next_at_or_after(&self, sector: Sector) -> Option<Qid> {
        self.sorted
            .range((sector, 0)..)
            .next()
            .map(|(&(_, qid), _)| qid)
    }

    fn first(&self) -> Option<Qid> {
        self.sorted.keys().next().map(|&(_, qid)| qid)
    }

    fn prev_before(&self, sector: Sector) -> Option<Qid> {
        self.sorted
            .range(..(sector, 0))
            .next_back()
            .map(|(&(_, qid), _)| qid)
    }

    fn drain_all(&mut self) -> Vec<QueuedRq> {
        self.live.clear();
        std::mem::take(&mut self.sorted).into_values().collect()
    }

    fn has_stream(&self, stream: StreamId) -> bool {
        self.sorted.values().any(|rq| rq.stream == stream)
    }

    fn closest_from_stream(&self, stream: StreamId, sector: Sector) -> Option<Qid> {
        self.sorted
            .iter()
            .filter(|(_, rq)| rq.stream == stream)
            .min_by_key(|(_, rq)| rq.sector.abs_diff(sector))
            .map(|(&(_, qid), _)| qid)
    }
}
