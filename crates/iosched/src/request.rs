//! Block-request types shared by every elevator.
//!
//! An [`IoRequest`] is what a submitter (a guest process, or a whole VM
//! seen from Dom0) hands to the elevator. Elevators may *merge*
//! contiguous requests; what is ultimately dispatched to the device is a
//! [`QueuedRq`], which carries the original requests it satisfies in
//! [`QueuedRq::parts`] so completions can be fanned back out.

use simcore::SimTime;

/// Logical block address in 512-byte sectors (matches `blkdev`).
pub type Sector = u64;

/// Unique id of a submitted request.
pub type RequestId = u64;

/// Identifier of the submitting stream — the elevator's notion of a
/// "process". Inside a guest this is a task id; at the Dom0 level it is
/// a VM id (the VMM treats each VM as one process, as the paper notes).
pub type StreamId = u32;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Read from the device.
    Read,
    /// Write to the device.
    Write,
}

impl Dir {
    /// Index for per-direction arrays (read = 0, write = 1).
    #[inline]
    pub fn idx(self) -> usize {
        match self {
            Dir::Read => 0,
            Dir::Write => 1,
        }
    }
}

/// One submitted block request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoRequest {
    /// Unique id.
    pub id: RequestId,
    /// Submitting stream ("process").
    pub stream: StreamId,
    /// First sector.
    pub sector: Sector,
    /// Length in sectors (> 0).
    pub sectors: u64,
    /// Direction.
    pub dir: Dir,
    /// Synchronous? Reads and O_SYNC writes are synchronous (a task is
    /// blocked on them); background writeback is asynchronous. The
    /// distinction drives anticipation (AS) and sync/async queueing
    /// (CFQ), exactly as in Linux 2.6.
    pub sync: bool,
    /// Submission time.
    pub submitted: SimTime,
}

impl IoRequest {
    /// One past the last sector.
    #[inline]
    pub fn end(&self) -> Sector {
        self.sector + self.sectors
    }

    /// Transfer size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.sectors * 512
    }
}

/// A queued (possibly merged) request as dispatched to the device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuedRq {
    /// First sector of the merged extent.
    pub sector: Sector,
    /// Total length of the merged extent in sectors.
    pub sectors: u64,
    /// Direction (merges never mix directions).
    pub dir: Dir,
    /// Synchronous if any constituent part is synchronous.
    pub sync: bool,
    /// Stream of the *first* constituent (used for anticipation /
    /// accounting; Linux likewise attributes a merged request to the
    /// task that allocated it).
    pub stream: StreamId,
    /// Earliest submission time among the parts.
    pub submitted: SimTime,
    /// The original requests this dispatch satisfies, in extent order.
    pub parts: Vec<IoRequest>,
}

impl QueuedRq {
    /// Wrap a single request.
    pub fn from_request(r: IoRequest) -> Self {
        QueuedRq {
            sector: r.sector,
            sectors: r.sectors,
            dir: r.dir,
            sync: r.sync,
            stream: r.stream,
            submitted: r.submitted,
            parts: vec![r],
        }
    }

    /// Unique id: the id of the first constituent part.
    #[inline]
    pub fn id(&self) -> RequestId {
        self.parts[0].id
    }

    /// One past the last sector.
    #[inline]
    pub fn end(&self) -> Sector {
        self.sector + self.sectors
    }

    /// Transfer size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.sectors * 512
    }

    /// Extend at the back with `r` (`r.sector == self.end()`).
    pub fn merge_back(&mut self, r: IoRequest) {
        debug_assert_eq!(r.sector, self.end(), "back merge must be contiguous");
        debug_assert_eq!(r.dir, self.dir, "merge must not mix directions");
        self.sectors += r.sectors;
        self.sync |= r.sync;
        self.parts.push(r);
    }

    /// Extend at the front with `r` (`r.end() == self.sector`).
    pub fn merge_front(&mut self, r: IoRequest) {
        debug_assert_eq!(r.end(), self.sector, "front merge must be contiguous");
        debug_assert_eq!(r.dir, self.dir, "merge must not mix directions");
        self.sector = r.sector;
        self.sectors += r.sectors;
        self.sync |= r.sync;
        if r.submitted < self.submitted {
            self.submitted = r.submitted;
        }
        self.parts.insert(0, r);
    }

    /// Internal consistency: parts tile the extent exactly.
    pub fn check_invariants(&self) {
        assert!(!self.parts.is_empty(), "QueuedRq with no parts");
        let mut at = self.sector;
        for p in &self.parts {
            assert_eq!(p.sector, at, "parts must tile the extent");
            assert_eq!(p.dir, self.dir);
            at = p.end();
        }
        assert_eq!(at, self.end(), "extent length mismatch");
    }
}

/// Outcome of handing a request to an elevator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// Queued as a new request.
    Queued,
    /// Absorbed into the queued request with the given id (back merge).
    MergedBack(RequestId),
    /// Absorbed into the queued request with the given id (front merge).
    MergedFront(RequestId),
}

/// One extent cut into consecutive pieces of at most `seg_sectors`
/// sectors with consecutive ids — a guest dispatch split across ring
/// slots. Iterating yields the pieces in extent order; the first piece
/// carries the id of the request the run was built from.
#[derive(Debug, Clone)]
pub struct SegRun {
    /// The part of the extent not yet yielded; its `id` is the next
    /// piece's.
    rest: IoRequest,
    seg_sectors: u64,
}

impl SegRun {
    /// Cut `extent` into pieces of at most `seg_sectors` (≥ 1) sectors.
    pub fn new(extent: IoRequest, seg_sectors: u64) -> Self {
        SegRun { rest: extent, seg_sectors: seg_sectors.max(1) }
    }

    /// A run of one piece: `r` whole.
    pub fn one(r: IoRequest) -> Self {
        let seg_sectors = r.sectors;
        SegRun::new(r, seg_sectors)
    }

    /// The extent not yet yielded (stream, direction, sync and submit
    /// time are those of every piece).
    #[inline]
    pub fn rest(&self) -> &IoRequest {
        &self.rest
    }

    /// Length of the next piece, if any.
    #[inline]
    pub fn next_len(&self) -> Option<u64> {
        (self.rest.sectors > 0).then(|| self.seg_sectors.min(self.rest.sectors))
    }

    /// Pieces not yet yielded.
    #[inline]
    pub fn pieces_left(&self) -> usize {
        self.rest.sectors.div_ceil(self.seg_sectors) as usize
    }
}

impl Iterator for SegRun {
    type Item = IoRequest;

    #[inline]
    fn next(&mut self) -> Option<IoRequest> {
        let len = self.next_len()?;
        let piece = IoRequest { sectors: len, ..self.rest.clone() };
        self.rest.id += 1;
        self.rest.sector += len;
        self.rest.sectors -= len;
        Some(piece)
    }
}

/// Consecutive arrivals of one [`SegRun`] that got the same outcome and
/// left the same queue depth (`queued()` after each of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStep {
    /// Outcome of each of the `count` arrivals.
    pub outcome: AddOutcome,
    /// Queue depth after each of them.
    pub depth: usize,
    /// Number of arrivals folded into this step.
    pub count: u32,
}

impl RunStep {
    /// Append `count` arrivals to `steps`, folding them into the last
    /// step when outcome and depth match.
    #[inline]
    pub fn push(steps: &mut Vec<RunStep>, outcome: AddOutcome, depth: usize, count: u32) {
        match steps.last_mut() {
            Some(s) if s.outcome == outcome && s.depth == depth => s.count += count,
            _ => steps.push(RunStep { outcome, depth, count }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: RequestId, sector: Sector, sectors: u64) -> IoRequest {
        IoRequest {
            id,
            stream: 1,
            sector,
            sectors,
            dir: Dir::Read,
            sync: true,
            submitted: SimTime::from_micros(id),
        }
    }

    #[test]
    fn merge_back_extends() {
        let mut q = QueuedRq::from_request(req(1, 100, 8));
        q.merge_back(req(2, 108, 8));
        assert_eq!(q.sector, 100);
        assert_eq!(q.sectors, 16);
        assert_eq!(q.parts.len(), 2);
        q.check_invariants();
    }

    #[test]
    fn merge_front_extends_and_takes_earliest_submit() {
        let mut q = QueuedRq::from_request(req(5, 108, 8));
        q.merge_front(req(2, 100, 8));
        assert_eq!(q.sector, 100);
        assert_eq!(q.sectors, 16);
        assert_eq!(q.submitted, SimTime::from_micros(2));
        assert_eq!(q.id(), 2, "front merge changes the leading part");
        q.check_invariants();
    }

    #[test]
    fn sync_propagates_on_merge() {
        let mut a = req(1, 0, 8);
        a.sync = false;
        let mut q = QueuedRq::from_request(a);
        assert!(!q.sync);
        q.merge_back(req(2, 8, 8)); // sync=true
        assert!(q.sync);
    }

    #[test]
    fn seg_run_cuts_consecutive_pieces() {
        let mut run = SegRun::new(req(10, 100, 200), 88);
        assert_eq!(run.pieces_left(), 3);
        let pieces: Vec<(RequestId, Sector, u64)> =
            run.by_ref().map(|p| (p.id, p.sector, p.sectors)).collect();
        assert_eq!(pieces, vec![(10, 100, 88), (11, 188, 88), (12, 276, 24)]);
        assert_eq!((run.next_len(), run.pieces_left()), (None, 0));
    }

    #[test]
    fn run_steps_fold_equal_neighbours() {
        let mut steps = Vec::new();
        RunStep::push(&mut steps, AddOutcome::Queued, 1, 1);
        RunStep::push(&mut steps, AddOutcome::MergedBack(1), 1, 1);
        RunStep::push(&mut steps, AddOutcome::MergedBack(1), 1, 4);
        RunStep::push(&mut steps, AddOutcome::MergedBack(1), 2, 1);
        let counts: Vec<u32> = steps.iter().map(|s| s.count).collect();
        assert_eq!(counts, vec![1, 5, 1]);
    }

    #[test]
    #[should_panic(expected = "extent length mismatch")]
    fn invariant_catches_gaps() {
        let mut q = QueuedRq::from_request(req(1, 0, 8));
        q.sectors = 24; // corrupt
        q.check_invariants();
    }
}
