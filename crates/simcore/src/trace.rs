//! Compact structured event trace and the replay invariant oracle.
//!
//! Every layer of the simulated I/O stack pushes fixed-size typed
//! records into a [`Trace`] ring: request arrival/merge/dispatch/
//! completion at each elevator level, idle arming, the hot-switch state
//! machine, ring occupancy, physical service breakdowns, network flows
//! and job phase transitions. The trace is the common substrate for
//! per-layer metrics, for the figure benches, and for the
//! [`TraceOracle`] — a replay checker that asserts cross-layer
//! invariants over a finished run.
//!
//! This module is simulation-agnostic: schedulers appear as one-byte
//! codes (the paper's `c`/`d`/`a`/`n` axis labels), layers as
//! [`Layer`], and nothing here depends on the elevator or stack crates.
//!
//! A record is stored as the LEB128 varints of its canonical words
//! (`TraceRecord::words`): the time as a zigzag delta from the
//! previous record, then the variant tag and the fields, about 11
//! bytes for a service record instead of 56. The bytes fill chunks of
//! [`CHUNK_RECORDS`] records, allocated one chunk at a time; a bounded
//! ring evicts whole chunks but still exposes exactly its newest `cap`
//! records and counts the rest as dropped. The rolling FNV-1a
//! [`Trace::digest`] hashes the same words and covers every record ever
//! pushed (including dropped ones), so two runs can be compared
//! bit-for-bit without retaining their full traces.

use crate::json::Json;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Where in the stack an event happened: one guest elevator (DomU) or
/// the host-level (Dom0) elevator of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The hypervisor-level elevator.
    Host,
    /// The elevator of guest (VM) `0`, `1`, …
    Guest(u32),
}

impl Layer {
    fn tag(self) -> u64 {
        match self {
            Layer::Host => u64::MAX,
            Layer::Guest(v) => v as u64,
        }
    }
}

/// One typed trace event. All variants are fixed-size and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An elevator was (re)installed: at stack construction and after
    /// every completed hot switch. `sched` is the one-byte scheduler
    /// code (`b'c'`/`b'd'`/`b'a'`/`b'n'`).
    SchedInstall {
        /// Which elevator.
        layer: Layer,
        /// Scheduler code now installed.
        sched: u8,
    },
    /// A request entered an elevator as a new queue entry.
    Arrive {
        /// Which elevator.
        layer: Layer,
        /// Request id (unique per layer).
        id: u64,
        /// First sector of the extent.
        sector: u64,
        /// Extent length in sectors.
        sectors: u64,
        /// Write (true) or read.
        write: bool,
    },
    /// A request entered an elevator by merging onto the tail of an
    /// existing queued extent.
    MergeBack {
        /// Which elevator.
        layer: Layer,
        /// Id of the absorbed (arriving) request.
        id: u64,
        /// Its extent start.
        sector: u64,
        /// Its extent length.
        sectors: u64,
        /// Write (true) or read.
        write: bool,
    },
    /// A request entered an elevator by merging onto the head of an
    /// existing queued extent.
    MergeFront {
        /// Which elevator.
        layer: Layer,
        /// Id of the absorbed (arriving) request.
        id: u64,
        /// Its extent start.
        sector: u64,
        /// Its extent length.
        sectors: u64,
        /// Write (true) or read.
        write: bool,
    },
    /// An elevator handed a (possibly merged) request downwards.
    Dispatch {
        /// Which elevator.
        layer: Layer,
        /// Leading part's id.
        id: u64,
        /// Merged extent start.
        sector: u64,
        /// Merged extent length — must equal the union of the parents'
        /// extents, which the oracle checks.
        sectors: u64,
        /// Write (true) or read.
        write: bool,
    },
    /// A request fully completed at this layer (one event per
    /// originally submitted request id).
    Complete {
        /// Which elevator.
        layer: Layer,
        /// Originally submitted id.
        id: u64,
    },
    /// The elevator chose to idle (anticipation / slice idling) until
    /// the given time rather than dispatch.
    IdleArm {
        /// Which elevator.
        layer: Layer,
        /// Idle deadline.
        until: SimTime,
    },
    /// A hot switch began: the elevator is quiesced and draining.
    /// New submissions are staged, not added, until [`TraceEvent::SwitchEnd`].
    SwitchBegin {
        /// Which elevator.
        layer: Layer,
        /// Target scheduler code.
        to: u8,
    },
    /// The drain finished and the new elevator is installed but frozen
    /// (re-init stall): nothing may dispatch until `SwitchEnd`.
    SwapDone {
        /// Which elevator.
        layer: Layer,
        /// Target scheduler code.
        to: u8,
    },
    /// The re-init stall elapsed: the queue thaws, staged requests
    /// re-enter (as fresh `Arrive` events after this record).
    SwitchEnd {
        /// Which elevator.
        layer: Layer,
        /// Scheduler code now live.
        to: u8,
    },
    /// Ring occupancy of one VM's blkfront ring after a change.
    RingOcc {
        /// The VM.
        vm: u32,
        /// Segments currently in flight.
        occupied: u32,
        /// The hard bound occupancy may never exceed (ring depth plus
        /// the largest single split, minus one).
        bound: u32,
    },
    /// Physical service of one host-level request, decomposed.
    DiskService {
        /// Host-level request id.
        id: u64,
        /// Seek time, ns.
        seek_ns: u64,
        /// Rotational wait, ns.
        rotation_ns: u64,
        /// Media transfer, ns.
        transfer_ns: u64,
        /// Sectors moved.
        sectors: u64,
        /// Serviced without repositioning.
        sequential: bool,
    },
    /// A network flow started.
    FlowStart {
        /// Flow id.
        id: u64,
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Flow size in bytes.
        bytes: u64,
    },
    /// A network flow delivered its last byte.
    FlowEnd {
        /// Flow id.
        id: u64,
    },
    /// The job entered a phase (1 = maps, 2 = shuffle tail, 3 = reduce
    /// tail); must be non-decreasing.
    Phase {
        /// Phase code.
        phase: u8,
    },
    /// An online reactive policy was consulted (cluster-level trace):
    /// the triggering sample, the threshold it was compared against,
    /// the hysteresis streak after the tick, and whether the step
    /// installed a new elevator pair.
    PolicyDecision {
        /// Sampled signal value (`f64::to_bits` of e.g. the average
        /// Dom0 queue depth or the maps-done fraction).
        observed_bits: u64,
        /// Threshold the sample was compared against (`f64::to_bits`).
        threshold_bits: u64,
        /// Consecutive confirming ticks after this one.
        streak: u32,
        /// True when this step triggered a cluster-wide switch.
        acted: bool,
    },
    /// A tenant job entered the cluster service (open-loop arrival).
    /// Multi-job traces use these five `Job*`/`Slot*` events instead of
    /// the single-job [`TraceEvent::Phase`] marker: overlapping jobs
    /// have no global monotone phase.
    JobArrive {
        /// Service-unique job id.
        job: u64,
        /// Total input bytes the job will read through its map tasks.
        bytes: u64,
    },
    /// The slot scheduler admitted the job (it may start claiming
    /// slots). Admission never precedes arrival.
    JobAdmit {
        /// Job id.
        job: u64,
    },
    /// The job occupied one task slot on a VM.
    SlotAcquire {
        /// Job id.
        job: u64,
        /// Cluster-global VM index.
        gvm: u32,
        /// Map slot (true) or reduce slot.
        map: bool,
    },
    /// The job released a previously acquired slot. For map slots,
    /// `bytes` is the input consumed by the finished task (the oracle
    /// sums these against [`TraceEvent::JobArrive`]'s total).
    SlotRelease {
        /// Job id.
        job: u64,
        /// Cluster-global VM index.
        gvm: u32,
        /// Map slot (true) or reduce slot.
        map: bool,
        /// Input bytes consumed (map slots; 0 for reduce slots).
        bytes: u64,
    },
    /// The job's last reduce finished and it left the service.
    JobComplete {
        /// Job id.
        job: u64,
    },
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// When the event happened.
    pub t: SimTime,
    /// What happened.
    pub ev: TraceEvent,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^k`: folding k zero bytes is one multiply, since
/// `h ^ 0 == h`.
const FNV_PRIME_4: u64 = FNV_PRIME.wrapping_pow(4);
const FNV_PRIME_8: u64 = FNV_PRIME.wrapping_pow(8);

/// Byte-wise FNV-1a over the little-endian bytes of `words`. A word's
/// high zero bytes fold into one multiply: a word below 2^8 (tags,
/// flags) hashes one byte, one below 2^32 (ids, sectors, byte counts)
/// four, any other all eight. Three fixed tiers instead of a loop over
/// each run of zero bytes: the all-ones `Layer::Host` word that
/// dominates node traces made that loop's exits mispredict.
fn fnv1a(mut h: u64, words: &[u64]) -> u64 {
    for &w in words {
        if w < 0x100 {
            h = (h ^ w).wrapping_mul(FNV_PRIME_8);
        } else if w >> 32 == 0 {
            for b in &w.to_le_bytes()[..4] {
                h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
            }
            h = h.wrapping_mul(FNV_PRIME_4);
        } else {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }
    h
}

/// The most words one record has (`DiskService`).
const MAX_WORDS: usize = 8;

impl TraceRecord {
    /// Call `f` with the canonical words of this record, stable across
    /// runs: the time in ns, the variant tag, then the fields. The digest
    /// hashes them and the store encodes them. Each variant passes a
    /// fixed-length array, so an inlined `f` runs unrolled per variant.
    fn words<R>(&self, f: impl FnOnce(&[u64]) -> R) -> R {
        use TraceEvent::*;
        let t = self.t.as_nanos();
        match self.ev {
            SchedInstall { layer, sched } => f(&[t, 1, layer.tag(), sched as u64]),
            Arrive { layer, id, sector, sectors, write } => {
                f(&[t, 2, layer.tag(), id, sector, sectors, write as u64])
            }
            MergeBack { layer, id, sector, sectors, write } => {
                f(&[t, 3, layer.tag(), id, sector, sectors, write as u64])
            }
            MergeFront { layer, id, sector, sectors, write } => {
                f(&[t, 4, layer.tag(), id, sector, sectors, write as u64])
            }
            Dispatch { layer, id, sector, sectors, write } => {
                f(&[t, 5, layer.tag(), id, sector, sectors, write as u64])
            }
            Complete { layer, id } => f(&[t, 6, layer.tag(), id]),
            IdleArm { layer, until } => f(&[t, 7, layer.tag(), until.as_nanos()]),
            SwitchBegin { layer, to } => f(&[t, 8, layer.tag(), to as u64]),
            SwapDone { layer, to } => f(&[t, 9, layer.tag(), to as u64]),
            SwitchEnd { layer, to } => f(&[t, 10, layer.tag(), to as u64]),
            RingOcc { vm, occupied, bound } => {
                f(&[t, 11, vm as u64, occupied as u64, bound as u64])
            }
            DiskService { id, seek_ns, rotation_ns, transfer_ns, sectors, sequential } => {
                f(&[t, 12, id, seek_ns, rotation_ns, transfer_ns, sectors, sequential as u64])
            }
            FlowStart { id, src, dst, bytes } => {
                f(&[t, 13, id, src as u64, dst as u64, bytes])
            }
            FlowEnd { id } => f(&[t, 14, id]),
            Phase { phase } => f(&[t, 15, phase as u64]),
            PolicyDecision { observed_bits, threshold_bits, streak, acted } => {
                f(&[t, 16, observed_bits, threshold_bits, streak as u64, acted as u64])
            }
            JobArrive { job, bytes } => f(&[t, 17, job, bytes]),
            JobAdmit { job } => f(&[t, 18, job]),
            SlotAcquire { job, gvm, map } => f(&[t, 19, job, gvm as u64, map as u64]),
            SlotRelease { job, gvm, map, bytes } => {
                f(&[t, 20, job, gvm as u64, map as u64, bytes])
            }
            JobComplete { job } => f(&[t, 21, job]),
        }
    }

    /// The inverse of [`TraceRecord::words`]: the record at time `t`
    /// whose tag and fields `next` yields in order. (Struct fields and
    /// tuples are evaluated in the order written, which is the order of
    /// `words`.)
    fn from_words(t: u64, mut next: impl FnMut() -> u64) -> TraceRecord {
        use TraceEvent::*;
        let layer = |w: u64| if w == u64::MAX { Layer::Host } else { Layer::Guest(w as u32) };
        let ev = match next() {
            1 => SchedInstall { layer: layer(next()), sched: next() as u8 },
            tag @ 2..=5 => {
                let (layer, id, sector, sectors, write) =
                    (layer(next()), next(), next(), next(), next() != 0);
                match tag {
                    2 => Arrive { layer, id, sector, sectors, write },
                    3 => MergeBack { layer, id, sector, sectors, write },
                    4 => MergeFront { layer, id, sector, sectors, write },
                    _ => Dispatch { layer, id, sector, sectors, write },
                }
            }
            6 => Complete { layer: layer(next()), id: next() },
            7 => IdleArm { layer: layer(next()), until: SimTime::from_nanos(next()) },
            8 => SwitchBegin { layer: layer(next()), to: next() as u8 },
            9 => SwapDone { layer: layer(next()), to: next() as u8 },
            10 => SwitchEnd { layer: layer(next()), to: next() as u8 },
            11 => RingOcc { vm: next() as u32, occupied: next() as u32, bound: next() as u32 },
            12 => DiskService {
                id: next(),
                seek_ns: next(),
                rotation_ns: next(),
                transfer_ns: next(),
                sectors: next(),
                sequential: next() != 0,
            },
            13 => FlowStart { id: next(), src: next() as u32, dst: next() as u32, bytes: next() },
            14 => FlowEnd { id: next() },
            15 => Phase { phase: next() as u8 },
            16 => PolicyDecision {
                observed_bits: next(),
                threshold_bits: next(),
                streak: next() as u32,
                acted: next() != 0,
            },
            17 => JobArrive { job: next(), bytes: next() },
            18 => JobAdmit { job: next() },
            19 => SlotAcquire { job: next(), gvm: next() as u32, map: next() != 0 },
            20 => SlotRelease {
                job: next(),
                gvm: next() as u32,
                map: next() != 0,
                bytes: next(),
            },
            21 => JobComplete { job: next() },
            tag => unreachable!("trace store holds an unknown tag {tag}"),
        };
        TraceRecord { t: SimTime::from_nanos(t), ev }
    }
}

/// Records per store chunk: the unit a bounded ring evicts.
pub const CHUNK_RECORDS: usize = 4096;

/// Bytes reserved for a new chunk: a typical service record encodes
/// to about 11 bytes. A chunk that needs more grows, and is trimmed
/// when it fills.
const CHUNK_RESERVE: usize = CHUNK_RECORDS * 12;

/// The longest encoding of one record: ten bytes per LEB128 word.
const MAX_RECORD_BYTES: usize = MAX_WORDS * 10;

/// Append `w` as a LEB128 varint at `buf[n..]`; returns the new end.
fn put_varint(buf: &mut [u8; MAX_RECORD_BYTES], mut n: usize, mut w: u64) -> usize {
    while w >= 0x80 {
        buf[n] = w as u8 | 0x80;
        w >>= 7;
        n += 1;
    }
    buf[n] = w as u8;
    n + 1
}

/// Read the LEB128 varint at `bytes[*pos..]` and advance past it.
fn varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let (mut w, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*pos];
        *pos += 1;
        w |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return w;
        }
        shift += 7;
    }
}

/// A signed time delta as an unsigned varint word: small magnitudes of
/// either sign stay small.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Up to [`CHUNK_RECORDS`] consecutive encoded records.
#[derive(Debug, Clone)]
struct Chunk {
    /// Time of the record pushed just before this chunk's first one
    /// (0 for the first chunk): the base of the first delta.
    base_t: u64,
    /// Records encoded in `bytes`.
    len: usize,
    bytes: Vec<u8>,
}

impl Chunk {
    fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let (mut pos, mut t) = (0, self.base_t);
        std::iter::from_fn(move || {
            (pos < self.bytes.len()).then(|| {
                let mut next = || varint(&self.bytes, &mut pos);
                t = t.wrapping_add(unzigzag(next()));
                TraceRecord::from_words(t, next)
            })
        })
    }
}

/// A bounded, drop-oldest ring of [`TraceRecord`]s with a rolling
/// digest, stored as varint-encoded chunks (see the module docs).
/// Capacity 0 disables tracing entirely (pushes are no-ops and cost
/// one branch).
#[derive(Debug, Clone)]
pub struct Trace {
    cap: usize,
    chunks: VecDeque<Chunk>,
    /// Records held in `chunks`; the newest `cap` of them are retained.
    stored: usize,
    /// Time of the newest record: the base of the next delta.
    last_t: u64,
    total: u64,
    hash: u64,
}

impl Trace {
    /// A disabled trace: records nothing, digest stays at the seed.
    pub fn disabled() -> Self {
        Trace::bounded(0)
    }

    /// A ring holding at most `cap` records (0 = disabled).
    pub fn bounded(cap: usize) -> Self {
        Trace { cap, chunks: VecDeque::new(), stored: 0, last_t: 0, total: 0, hash: FNV_OFFSET }
    }

    /// A ring that never drops (grows without bound) — for oracle runs.
    pub fn unbounded() -> Self {
        Trace::bounded(usize::MAX)
    }

    /// Append one record, dropping the oldest when the ring is full.
    pub fn push(&mut self, t: SimTime, ev: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        let (hash, last_t) = (self.hash, self.last_t);
        let mut buf = [0; MAX_RECORD_BYTES];
        let (hash, n, t) = TraceRecord { t, ev }.words(
            #[inline(always)]
            |words| {
                let hash = fnv1a(hash, words);
                let mut n = put_varint(&mut buf, 0, zigzag(words[0].wrapping_sub(last_t)));
                for &w in &words[1..] {
                    n = put_varint(&mut buf, n, w);
                }
                (hash, n, words[0])
            },
        );
        self.hash = hash;
        self.total += 1;
        if self.chunks.back().is_none_or(|c| c.len == CHUNK_RECORDS) {
            if let Some(full) = self.chunks.back_mut() {
                full.bytes.shrink_to_fit();
            }
            let bytes = Vec::with_capacity(CHUNK_RESERVE);
            self.chunks.push_back(Chunk { base_t: self.last_t, len: 0, bytes });
        }
        let chunk = self.chunks.back_mut().expect("a chunk was just ensured");
        chunk.bytes.extend_from_slice(&buf[..n]);
        chunk.len += 1;
        self.stored += 1;
        self.last_t = t;
        // Evict whole chunks once the newer ones alone hold `cap`
        // records; the oldest chunk left may still hold dropped ones.
        while self.stored - self.chunks[0].len >= self.cap {
            let evicted = self.chunks.pop_front().expect("more than one chunk");
            self.stored -= evicted.len;
        }
    }

    /// Records currently retained, oldest first, decoded on the fly.
    pub fn records(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let dropped_but_stored = self.stored - self.len();
        self.chunks.iter().flat_map(Chunk::records).skip(dropped_but_stored)
    }

    /// Retained record count.
    pub fn len(&self) -> usize {
        self.stored.min(self.cap)
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records dropped by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.total - self.len() as u64
    }

    /// Rolling FNV-1a digest over every record ever pushed. Equal
    /// inputs produce equal digests; any reordering, added or missing
    /// record changes it.
    pub fn digest(&self) -> u64 {
        self.hash
    }
}

/// Combine several trace digests into one (order-sensitive).
pub fn combine_digests<I: IntoIterator<Item = u64>>(digests: I) -> u64 {
    let mut h = FNV_OFFSET;
    for d in digests {
        h = fnv1a(h, &[d]);
    }
    h
}

// ---------------------------------------------------------------------
// Replay oracle
// ---------------------------------------------------------------------

/// Tunables the oracle needs to judge deadline-expiry behaviour,
/// mirroring the deadline elevator's defaults.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Read FIFO expiry.
    pub read_expire: SimDuration,
    /// Write FIFO expiry.
    pub write_expire: SimDuration,
    /// Dispatches per batch.
    pub fifo_batch: u32,
    /// Read batches a pending write may be starved for.
    pub writes_starved: u32,
    /// The scheduler code that enables the expiry check (`b'd'`).
    pub deadline_code: u8,
    /// Per-VM map-slot capacity for the multi-job slot check. `None`
    /// (the default) still checks release-without-acquire but enforces
    /// no upper bound.
    pub map_slots_per_vm: Option<u32>,
    /// Per-VM reduce-slot capacity (same semantics).
    pub reduce_slots_per_vm: Option<u32>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            read_expire: SimDuration::from_millis(500),
            write_expire: SimDuration::from_secs(5),
            fifo_batch: 16,
            writes_starved: 2,
            deadline_code: b'd',
            map_slots_per_vm: None,
            reduce_slots_per_vm: None,
        }
    }
}

/// One queued extent awaiting dispatch at a layer.
#[derive(Debug, Clone, Copy)]
struct PendingExtent {
    id: u64,
    sectors: u64,
    entered: SimTime,
}

/// A deadline-FIFO entry the oracle shadows: after `deadline` passes,
/// at most `fifo_batch × (writes_starved + 2)` other dispatches may
/// happen at the layer before this request is served.
#[derive(Debug, Clone, Copy)]
struct DlEntry {
    id: u64,
    deadline: SimTime,
    late_dispatches: u32,
}

#[derive(Debug, Default)]
struct LayerState {
    sched: u8,
    /// extent start → queued entries beginning there (FIFO per start).
    pending: BTreeMap<u64, VecDeque<PendingExtent>>,
    pending_count: usize,
    /// id → dispatch time, awaiting completion.
    dispatched: HashMap<u64, SimTime>,
    /// Between SwitchBegin and SwitchEnd: no new elevator entries.
    quiesced: bool,
    /// Between SwapDone and SwitchEnd: no dispatches.
    frozen: bool,
    dl_fifo: Vec<DlEntry>,
}

/// Per-job lifecycle state the oracle shadows in multi-job traces.
#[derive(Debug)]
struct JobState {
    arrived: SimTime,
    bytes: u64,
    admitted: Option<SimTime>,
    first_task: Option<SimTime>,
    completed: bool,
    map_bytes_released: u64,
    /// Slots currently held (acquires minus releases).
    held: u64,
}

/// Replays a [`Trace`] and checks cross-layer invariants:
///
/// * **Lifecycle order** — for every request id: elevator entry ≤
///   dispatch ≤ completion, each at most once.
/// * **Merge extent exactness** — every dispatched extent is tiled
///   *exactly* by the arrival extents it absorbed: no byte served that
///   never arrived, none arrived twice into one dispatch.
/// * **Quiesce discipline** — while an elevator is switching (begin →
///   thaw) nothing enters it (submissions are staged); while it is
///   frozen (swap → thaw) nothing dispatches. (The drain itself
///   dispatches *by design* — draining means serving the old queue —
///   so dispatches are legal between begin and swap.)
/// * **Ring bound** — blkfront ring occupancy never exceeds its bound.
/// * **Deadline expiry** — while the deadline scheduler is installed,
///   once a queued request's FIFO deadline passes, it is served within
///   `fifo_batch × (writes_starved + 2)` further dispatches (the
///   current batch, plus the starvation-bounded batches of the other
///   direction, at batch boundaries).
/// * **Flows and phases** — every flow ends after it starts, at most
///   once; phase codes never decrease.
/// * **Multi-job lifecycle** — for every job id: arrive ≤ admit ≤
///   first slot acquire ≤ complete, each stage at most once, and a
///   completed job has released every slot it held.
/// * **Slot accounting** — per-(VM, slot kind) occupancy never goes
///   negative and, when [`OracleConfig::map_slots_per_vm`] /
///   [`OracleConfig::reduce_slots_per_vm`] are set, never exceeds the
///   configured capacity.
/// * **Byte conservation** — the map-slot releases of a job account for
///   exactly the input bytes announced at its arrival.
///
/// Violations are collected (capped), not panicked, so a test can
/// report them all; [`TraceOracle::assert_clean`] panics with the list.
#[derive(Debug)]
pub struct TraceOracle {
    cfg: OracleConfig,
    layers: HashMap<Layer, LayerState>,
    flows: HashMap<u64, SimTime>,
    phase: u8,
    jobs: HashMap<u64, JobState>,
    /// (gvm, map?) → slots currently occupied across all jobs.
    slots: HashMap<(u32, bool), u32>,
    checked: u64,
    violations: Vec<String>,
}

const MAX_VIOLATIONS: usize = 32;

impl Default for TraceOracle {
    fn default() -> Self {
        TraceOracle::new(OracleConfig::default())
    }
}

impl TraceOracle {
    /// Oracle with explicit deadline tunables.
    pub fn new(cfg: OracleConfig) -> Self {
        TraceOracle {
            cfg,
            layers: HashMap::new(),
            flows: HashMap::new(),
            phase: 0,
            jobs: HashMap::new(),
            slots: HashMap::new(),
            checked: 0,
            violations: Vec::new(),
        }
    }

    /// Replay every retained record of `trace`. The trace must not have
    /// dropped records (a truncated history cannot be checked).
    pub fn replay(&mut self, trace: &Trace) {
        if trace.dropped() > 0 {
            self.violate(format!(
                "trace dropped {} records; oracle needs the full history \
                 (use Trace::unbounded)",
                trace.dropped()
            ));
            return;
        }
        for rec in trace.records() {
            self.observe(&rec);
        }
    }

    fn violate(&mut self, msg: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    fn layer(&mut self, l: Layer) -> &mut LayerState {
        self.layers.entry(l).or_default()
    }

    #[allow(clippy::too_many_arguments)]
    fn enter(&mut self, t: SimTime, layer: Layer, id: u64, sector: u64, sectors: u64, write: bool, fresh_entry: bool) {
        let deadline_code = self.cfg.deadline_code;
        let expire = if write { self.cfg.write_expire } else { self.cfg.read_expire };
        let quiesced = {
            let ls = self.layer(layer);
            ls.pending
                .entry(sector)
                .or_default()
                .push_back(PendingExtent { id, sectors, entered: t });
            ls.pending_count += 1;
            if fresh_entry && ls.sched == deadline_code {
                ls.dl_fifo.push(DlEntry { id, deadline: t + expire, late_dispatches: 0 });
            }
            ls.quiesced
        };
        if quiesced {
            self.violate(format!(
                "{layer:?}: request {id} entered the elevator at {t} while quiesced for a switch"
            ));
        }
    }

    fn dispatch(&mut self, t: SimTime, layer: Layer, id: u64, sector: u64, sectors: u64) {
        let dl_bound = self.cfg.fifo_batch * (self.cfg.writes_starved + 2);
        let deadline_code = self.cfg.deadline_code;
        let mut msgs: Vec<String> = Vec::new();
        let mut served: Vec<u64> = Vec::new();
        {
            let ls = self.layers.entry(layer).or_default();
            if ls.frozen {
                msgs.push(format!(
                    "{layer:?}: dispatch of {id} at {t} while frozen (post-swap re-init stall)"
                ));
            }
            // Consume the exact tiling of [sector, sector+sectors).
            let end = sector + sectors;
            let mut cursor = sector;
            while cursor < end {
                let remaining = end - cursor;
                let Some(q) = ls.pending.get_mut(&cursor) else {
                    msgs.push(format!(
                        "{layer:?}: dispatched extent [{sector}, {end}) of rq {id} at {t} \
                         is not covered by arrivals (gap at {cursor})"
                    ));
                    break;
                };
                // Prefer an entry that fits inside the dispatched extent.
                let pos = q.iter().position(|p| p.sectors <= remaining).unwrap_or(0);
                let p = q.remove(pos).expect("non-empty pending queue");
                if q.is_empty() {
                    ls.pending.remove(&cursor);
                }
                ls.pending_count -= 1;
                if p.sectors > remaining {
                    msgs.push(format!(
                        "{layer:?}: dispatched extent [{sector}, {end}) of rq {id} at {t} \
                         ends inside an arrived extent ({} sectors at {cursor})",
                        p.sectors
                    ));
                    break;
                }
                if p.entered > t {
                    msgs.push(format!(
                        "{layer:?}: request {} dispatched at {t} before its arrival at {}",
                        p.id, p.entered
                    ));
                }
                if ls.dispatched.insert(p.id, t).is_some() {
                    msgs.push(format!("{layer:?}: request {} dispatched twice", p.id));
                }
                served.push(p.id);
                cursor += p.sectors;
            }
            // Deadline expiry shadow: every expired, unserved FIFO entry
            // ages by one dispatch.
            if ls.sched == deadline_code {
                ls.dl_fifo.retain(|e| !served.contains(&e.id));
                for e in ls.dl_fifo.iter_mut() {
                    if e.deadline < t {
                        e.late_dispatches += 1;
                        if e.late_dispatches == dl_bound + 1 {
                            msgs.push(format!(
                                "{layer:?}: request {} expired at {} but {} dispatches \
                                 have passed without serving it (bound {dl_bound})",
                                e.id, e.deadline, e.late_dispatches
                            ));
                        }
                    }
                }
            }
        }
        for m in msgs {
            self.violate(m);
        }
        self.checked += 1;
    }

    /// Feed one record (they must arrive in trace order).
    pub fn observe(&mut self, rec: &TraceRecord) {
        use TraceEvent::*;
        let t = rec.t;
        match rec.ev {
            SchedInstall { layer, sched } => {
                let ls = self.layer(layer);
                ls.sched = sched;
                ls.dl_fifo.clear();
            }
            Arrive { layer, id, sector, sectors, write } => {
                self.enter(t, layer, id, sector, sectors, write, true);
            }
            MergeBack { layer, id, sector, sectors, write }
            | MergeFront { layer, id, sector, sectors, write } => {
                // Merged entries join an existing FIFO entry; no new
                // deadline shadow entry (matching the elevator).
                self.enter(t, layer, id, sector, sectors, write, false);
            }
            Dispatch { layer, id, sector, sectors, .. } => {
                self.dispatch(t, layer, id, sector, sectors);
            }
            Complete { layer, id } => {
                let msg = {
                    let ls = self.layer(layer);
                    match ls.dispatched.remove(&id) {
                        Some(dt) if dt > t => Some(format!(
                            "{layer:?}: request {id} completed at {t} before its dispatch at {dt}"
                        )),
                        Some(_) => None,
                        None => Some(format!(
                            "{layer:?}: request {id} completed at {t} without a dispatch"
                        )),
                    }
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
            }
            IdleArm { layer, until } => {
                if until < t {
                    self.violate(format!("{layer:?}: idle armed at {t} into the past ({until})"));
                }
            }
            SwitchBegin { layer, .. } => {
                // A begin while frozen retargets the switch: the layer
                // is draining (its new, empty elevator) again.
                let ls = self.layer(layer);
                ls.quiesced = true;
                ls.frozen = false;
            }
            SwapDone { layer, .. } => {
                let msg = {
                    let ls = self.layer(layer);
                    ls.frozen = true;
                    (ls.pending_count > 0).then(|| {
                        format!(
                            "{layer:?}: elevator swapped at {t} with {} requests still queued",
                            ls.pending_count
                        )
                    })
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
            }
            SwitchEnd { layer, to } => {
                let ls = self.layer(layer);
                ls.quiesced = false;
                ls.frozen = false;
                ls.sched = to;
                ls.dl_fifo.clear();
            }
            RingOcc { vm, occupied, bound } => {
                if occupied > bound {
                    self.violate(format!(
                        "vm {vm}: ring occupancy {occupied} exceeds bound {bound} at {t}"
                    ));
                }
            }
            DiskService { .. } => {}
            FlowStart { id, .. } => {
                if self.flows.insert(id, t).is_some() {
                    self.violate(format!("flow {id} started twice"));
                }
            }
            FlowEnd { id } => {
                let msg = match self.flows.remove(&id) {
                    Some(st) if st > t => {
                        Some(format!("flow {id} ended at {t} before its start at {st}"))
                    }
                    Some(_) => None,
                    None => Some(format!("flow {id} ended without starting")),
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
            }
            Phase { phase } => {
                if phase < self.phase {
                    self.violate(format!(
                        "phase went backwards: {} after {}",
                        phase, self.phase
                    ));
                }
                self.phase = phase;
            }
            PolicyDecision { streak, acted, .. } => {
                // A step that acted has just reset or re-armed its
                // hysteresis; an unbounded streak means the policy
                // never resolves its confirm window.
                if acted && streak > 0 {
                    self.violate(format!(
                        "policy acted mid-confirm: streak {streak} after acting"
                    ));
                }
            }
            JobArrive { job, bytes } => {
                let prev = self.jobs.insert(
                    job,
                    JobState {
                        arrived: t,
                        bytes,
                        admitted: None,
                        first_task: None,
                        completed: false,
                        map_bytes_released: 0,
                        held: 0,
                    },
                );
                if prev.is_some() {
                    self.violate(format!("job {job} arrived twice (second at {t})"));
                }
            }
            JobAdmit { job } => {
                let msg = match self.jobs.get_mut(&job) {
                    None => Some(format!("job {job} admitted at {t} without arriving")),
                    Some(js) if js.admitted.is_some() => {
                        Some(format!("job {job} admitted twice (second at {t})"))
                    }
                    Some(js) if js.arrived > t => Some(format!(
                        "job {job} admitted at {t} before its arrival at {}",
                        js.arrived
                    )),
                    Some(js) => {
                        js.admitted = Some(t);
                        None
                    }
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
            }
            SlotAcquire { job, gvm, map } => {
                let msg = match self.jobs.get_mut(&job) {
                    None => Some(format!(
                        "job {job} acquired a slot on vm {gvm} at {t} without arriving"
                    )),
                    Some(js) if js.admitted.is_none() => Some(format!(
                        "job {job} acquired a slot on vm {gvm} at {t} before admission"
                    )),
                    Some(js) if js.completed => Some(format!(
                        "job {job} acquired a slot on vm {gvm} at {t} after completing"
                    )),
                    Some(js) => {
                        js.first_task.get_or_insert(t);
                        js.held += 1;
                        None
                    }
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
                let occ = self.slots.entry((gvm, map)).or_insert(0);
                *occ += 1;
                let cap = if map {
                    self.cfg.map_slots_per_vm
                } else {
                    self.cfg.reduce_slots_per_vm
                };
                if let Some(cap) = cap {
                    if *occ > cap {
                        let kind = if map { "map" } else { "reduce" };
                        let occ = *occ;
                        self.violate(format!(
                            "vm {gvm}: {kind}-slot occupancy {occ} exceeds capacity \
                             {cap} at {t} (job {job})"
                        ));
                    }
                }
            }
            SlotRelease { job, gvm, map, bytes } => {
                let kind = if map { "map" } else { "reduce" };
                match self.slots.get_mut(&(gvm, map)) {
                    Some(occ) if *occ > 0 => *occ -= 1,
                    _ => self.violate(format!(
                        "vm {gvm}: {kind} slot released at {t} (job {job}) with none held"
                    )),
                }
                let msg = match self.jobs.get_mut(&job) {
                    None => Some(format!(
                        "job {job} released a {kind} slot on vm {gvm} at {t} without arriving"
                    )),
                    Some(js) if js.held == 0 => Some(format!(
                        "job {job} released a {kind} slot on vm {gvm} at {t} holding none"
                    )),
                    Some(js) => {
                        js.held -= 1;
                        if map {
                            js.map_bytes_released += bytes;
                        }
                        None
                    }
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
            }
            JobComplete { job } => {
                let msg = match self.jobs.get_mut(&job) {
                    None => Some(format!("job {job} completed at {t} without arriving")),
                    Some(js) if js.completed => {
                        Some(format!("job {job} completed twice (second at {t})"))
                    }
                    Some(js) if js.first_task.is_none() => Some(format!(
                        "job {job} completed at {t} without running any task"
                    )),
                    Some(js) if js.held > 0 => Some(format!(
                        "job {job} completed at {t} still holding {} slot(s)",
                        js.held
                    )),
                    Some(js) if js.map_bytes_released != js.bytes => Some(format!(
                        "job {job}: map releases account for {} bytes but {} arrived \
                         (byte conservation)",
                        js.map_bytes_released, js.bytes
                    )),
                    Some(js) => {
                        js.completed = true;
                        None
                    }
                };
                if let Some(m) = msg {
                    self.violate(m);
                }
            }
        }
    }

    /// Dispatch events verified so far.
    pub fn dispatches_checked(&self) -> u64 {
        self.checked
    }

    /// All collected violations (empty = clean).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Panic with every violation if any was found.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "trace oracle found {} violation(s):\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }
}

// ---------------------------------------------------------------------
// Chrome Trace Event Format export
// ---------------------------------------------------------------------

/// Chrome tid of a layer inside its node's process: Dom0 is thread 0,
/// guest `v` is thread `v + 1`.
fn layer_tid(l: Layer) -> u64 {
    match l {
        Layer::Host => 0,
        Layer::Guest(v) => v as u64 + 1,
    }
}

/// Microsecond timestamp for Chrome (`ts`/`dur` are µs; fractional µs
/// keep full ns resolution, and Rust's shortest round-trip float
/// formatting keeps the output deterministic).
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

fn chrome_ev(ph: &str, pid: usize, tid: u64, t: SimTime, name: &str) -> Json {
    Json::obj()
        .field("ph", ph)
        .field("pid", pid)
        .field("tid", tid)
        .field("ts", us(t.as_nanos()))
        .field("name", name)
}

fn chrome_meta(pid: usize, tid: Option<u64>, what: &str, name: &str) -> Json {
    let mut e = Json::obj().field("ph", "M").field("pid", pid);
    if let Some(tid) = tid {
        e = e.field("tid", tid);
    }
    e.field("name", what)
        .field("args", Json::obj().field("name", name))
}

/// Per-layer switch bookkeeping for span reconstruction.
#[derive(Default)]
struct SwitchSpan {
    begin: Option<(SimTime, u8)>,
    swap: Option<SimTime>,
}

/// Export one run as a Chrome Trace Event Format document (the JSON
/// loaded by Perfetto / `chrome://tracing`).
///
/// `cluster` is the driver-level trace (job phases, network flows);
/// `nodes[i]` is node `i`'s stack trace. Mapping:
///
/// * process 0 = the cluster: phases as duration spans on thread 0,
///   network flows as async `b`/`e` pairs;
/// * process `i + 1` = node `i`: thread 0 is Dom0, thread `v + 1` is
///   guest `v`;
/// * per-request lifecycles (elevator entry → completion) as async
///   `b`/`e` pairs named `read`/`write`, with a `dispatch` instant;
/// * elevator switches as nested duration spans: the whole `switch`,
///   with `drain` and `reinit` sub-spans;
/// * disk service as `disk` spans on Dom0 (seek/rotation/transfer in
///   args), ring occupancy as counter tracks, anticipation idles as
///   instants.
///
/// The export walks records in trace order, so it is byte-identical
/// for byte-identical traces. Rings that dropped records export what
/// they retained (async ends without a begin are skipped).
pub fn to_chrome_json(cluster: &Trace, nodes: &[&Trace]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(chrome_meta(0, None, "process_name", "cluster"));
    events.push(chrome_meta(0, Some(0), "thread_name", "job phases"));

    // Cluster track: phases become back-to-back spans, flows async pairs.
    let mut phase_open: Option<(SimTime, u8)> = None;
    let mut last_t = SimTime::ZERO;
    for rec in cluster.records() {
        last_t = last_t.max(rec.t);
        match rec.ev {
            TraceEvent::Phase { phase } => {
                if let Some((t0, p)) = phase_open.take() {
                    events.push(
                        chrome_ev("X", 0, 0, t0, &format!("phase{p}"))
                            .field("dur", us(rec.t.saturating_since(t0).as_nanos())),
                    );
                }
                phase_open = Some((rec.t, phase));
            }
            TraceEvent::FlowStart { id, src, dst, bytes } => {
                events.push(
                    chrome_ev("b", 0, 0, rec.t, "flow")
                        .field("cat", "net")
                        .field("id", format!("f{id}"))
                        .field(
                            "args",
                            Json::obj().field("src", src).field("dst", dst).field("bytes", bytes),
                        ),
                );
            }
            TraceEvent::FlowEnd { id } => {
                events.push(
                    chrome_ev("e", 0, 0, rec.t, "flow")
                        .field("cat", "net")
                        .field("id", format!("f{id}")),
                );
            }
            TraceEvent::PolicyDecision { observed_bits, threshold_bits, streak, acted } => {
                // Each consulted policy tick becomes an instant on the
                // cluster track: observed sample vs threshold, the
                // hysteresis streak, and whether the step switched.
                events.push(
                    chrome_ev("i", 0, 0, rec.t, if acted { "policy switch" } else { "policy tick" })
                        .field("s", "t")
                        .field(
                            "args",
                            Json::obj()
                                .field("observed", f64::from_bits(observed_bits))
                                .field("threshold", f64::from_bits(threshold_bits))
                                .field("streak", streak)
                                .field("acted", acted),
                        ),
                );
            }
            _ => {}
        }
    }

    // Decode each node's ring once for the three walks below.
    let nodes: Vec<Vec<TraceRecord>> = nodes.iter().map(|tr| tr.records().collect()).collect();
    for rec in nodes.iter().flatten() {
        last_t = last_t.max(rec.t);
    }
    // Close the last phase at the end of the run.
    if let Some((t0, p)) = phase_open {
        events.push(
            chrome_ev("X", 0, 0, t0, &format!("phase{p}"))
                .field("dur", us(last_t.saturating_since(t0).as_nanos())),
        );
    }

    for (i, tr) in nodes.iter().enumerate() {
        let pid = i + 1;
        events.push(chrome_meta(pid, None, "process_name", &format!("node{i}")));
        // Name every layer track that appears.
        let mut named: Vec<u64> = Vec::new();
        for rec in tr {
            let layer = match rec.ev {
                TraceEvent::SchedInstall { layer, .. }
                | TraceEvent::Arrive { layer, .. }
                | TraceEvent::MergeBack { layer, .. }
                | TraceEvent::MergeFront { layer, .. }
                | TraceEvent::Dispatch { layer, .. }
                | TraceEvent::Complete { layer, .. }
                | TraceEvent::IdleArm { layer, .. }
                | TraceEvent::SwitchBegin { layer, .. }
                | TraceEvent::SwapDone { layer, .. }
                | TraceEvent::SwitchEnd { layer, .. } => Some(layer),
                _ => None,
            };
            if let Some(l) = layer {
                let tid = layer_tid(l);
                if !named.contains(&tid) {
                    named.push(tid);
                    let label = match l {
                        Layer::Host => "dom0".to_string(),
                        Layer::Guest(v) => format!("vm{v}"),
                    };
                    events.push(chrome_meta(pid, Some(tid), "thread_name", &label));
                }
            }
        }

        let mut begun: HashMap<(u64, u64), ()> = HashMap::new();
        let mut switches: HashMap<u64, SwitchSpan> = HashMap::new();
        for rec in tr {
            let t = rec.t;
            match rec.ev {
                TraceEvent::SchedInstall { layer, sched } => {
                    events.push(
                        chrome_ev("i", pid, layer_tid(layer), t, &format!("install {}", sched as char))
                            .field("s", "t"),
                    );
                }
                TraceEvent::Arrive { layer, id, sector, sectors, write }
                | TraceEvent::MergeBack { layer, id, sector, sectors, write }
                | TraceEvent::MergeFront { layer, id, sector, sectors, write } => {
                    let tid = layer_tid(layer);
                    begun.insert((tid, id), ());
                    events.push(
                        chrome_ev("b", pid, tid, t, if write { "write" } else { "read" })
                            .field("cat", "rq")
                            .field("id", format!("n{i}t{tid}r{id}"))
                            .field(
                                "args",
                                Json::obj().field("sector", sector).field("sectors", sectors),
                            ),
                    );
                }
                TraceEvent::Dispatch { layer, id, sector, sectors, write } => {
                    let tid = layer_tid(layer);
                    events.push(
                        chrome_ev("i", pid, tid, t, "dispatch")
                            .field("s", "t")
                            .field(
                                "args",
                                Json::obj()
                                    .field("id", id)
                                    .field("sector", sector)
                                    .field("sectors", sectors)
                                    .field("write", write),
                            ),
                    );
                }
                TraceEvent::Complete { layer, id } => {
                    let tid = layer_tid(layer);
                    if begun.remove(&(tid, id)).is_some() {
                        events.push(
                            chrome_ev("e", pid, tid, t, "rq")
                                .field("cat", "rq")
                                .field("id", format!("n{i}t{tid}r{id}")),
                        );
                    }
                }
                TraceEvent::IdleArm { layer, until } => {
                    events.push(
                        chrome_ev("i", pid, layer_tid(layer), t, "idle_arm")
                            .field("s", "t")
                            .field(
                                "args",
                                Json::obj()
                                    .field("armed_us", us(until.saturating_since(t).as_nanos())),
                            ),
                    );
                }
                TraceEvent::SwitchBegin { layer, to } => {
                    let s = switches.entry(layer_tid(layer)).or_default();
                    s.begin = Some((t, to));
                    s.swap = None;
                }
                TraceEvent::SwapDone { layer, .. } => {
                    if let Some(s) = switches.get_mut(&layer_tid(layer)) {
                        s.swap = Some(t);
                    }
                }
                TraceEvent::SwitchEnd { layer, to } => {
                    let tid = layer_tid(layer);
                    if let Some(s) = switches.remove(&tid) {
                        if let Some((t0, _)) = s.begin {
                            let name = format!("switch→{}", to as char);
                            events.push(
                                chrome_ev("X", pid, tid, t0, &name)
                                    .field("dur", us(t.saturating_since(t0).as_nanos())),
                            );
                            let swap = s.swap.unwrap_or(t);
                            events.push(
                                chrome_ev("X", pid, tid, t0, "drain")
                                    .field("dur", us(swap.saturating_since(t0).as_nanos())),
                            );
                            events.push(
                                chrome_ev("X", pid, tid, swap, "reinit")
                                    .field("dur", us(t.saturating_since(swap).as_nanos())),
                            );
                        }
                    }
                }
                TraceEvent::RingOcc { vm, occupied, .. } => {
                    events.push(
                        chrome_ev("C", pid, layer_tid(Layer::Guest(vm)), t, &format!("ring_vm{vm}"))
                            .field("args", Json::obj().field("occupied", occupied)),
                    );
                }
                TraceEvent::DiskService { id, seek_ns, rotation_ns, transfer_ns, sectors, sequential } => {
                    let dur = seek_ns + rotation_ns + transfer_ns;
                    events.push(
                        chrome_ev("X", pid, 0, t, "disk")
                            .field("dur", us(dur))
                            .field(
                                "args",
                                Json::obj()
                                    .field("id", id)
                                    .field("seek_us", us(seek_ns))
                                    .field("rotation_us", us(rotation_ns))
                                    .field("transfer_us", us(transfer_ns))
                                    .field("sectors", sectors)
                                    .field("sequential", sequential),
                            ),
                    );
                }
                _ => {}
            }
        }
    }

    Json::obj()
        .field("traceEvents", Json::Arr(events))
        .field("displayTimeUnit", "ms")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_arrive(layer: Layer, id: u64, sector: u64, sectors: u64) -> TraceEvent {
        TraceEvent::Arrive { layer, id, sector, sectors, write: false }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tr = Trace::bounded(2);
        for i in 0..5u64 {
            tr.push(SimTime::from_nanos(i), ev_arrive(Layer::Host, i, i * 8, 8));
        }
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.total(), 5);
        assert_eq!(tr.dropped(), 3);
        let ids: Vec<u64> = tr
            .records()
            .map(|r| match r.ev {
                TraceEvent::Arrive { id, .. } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![3, 4]);
    }

    /// Eviction keeps only chunks that hold retained records, so a
    /// bounded ring stores fewer than `cap + CHUNK_RECORDS` records.
    #[test]
    fn bounded_ring_keeps_no_chunk_of_dropped_records_only() {
        for cap in [1, 2, CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1] {
            let mut tr = Trace::bounded(cap);
            for i in 0..3 * CHUNK_RECORDS as u64 {
                tr.push(SimTime::from_nanos(i), ev_arrive(Layer::Host, i, i * 8, 8));
                assert!(
                    tr.chunks.len() == 1 || tr.stored - tr.chunks[0].len < cap,
                    "cap {cap}, push {i}: the oldest chunk holds only dropped records"
                );
            }
        }
    }

    #[test]
    fn disabled_trace_is_free_and_stable() {
        let mut tr = Trace::disabled();
        let d0 = tr.digest();
        tr.push(SimTime::ZERO, ev_arrive(Layer::Host, 1, 0, 8));
        assert_eq!(tr.len(), 0);
        assert_eq!(tr.total(), 0);
        assert_eq!(tr.digest(), d0);
    }

    #[test]
    fn digest_covers_dropped_records_and_detects_changes() {
        let mut a = Trace::bounded(2);
        let mut b = Trace::bounded(2);
        for i in 0..6u64 {
            a.push(SimTime::from_nanos(i), ev_arrive(Layer::Host, i, i * 8, 8));
            b.push(SimTime::from_nanos(i), ev_arrive(Layer::Host, i, i * 8, 8));
        }
        assert_eq!(a.digest(), b.digest());
        b.push(SimTime::from_nanos(9), ev_arrive(Layer::Host, 9, 0, 8));
        assert_ne!(a.digest(), b.digest());
        // Same events, different order → different digest.
        let mut c = Trace::unbounded();
        let mut d = Trace::unbounded();
        c.push(SimTime::ZERO, ev_arrive(Layer::Host, 1, 0, 8));
        c.push(SimTime::ZERO, ev_arrive(Layer::Host, 2, 8, 8));
        d.push(SimTime::ZERO, ev_arrive(Layer::Host, 2, 8, 8));
        d.push(SimTime::ZERO, ev_arrive(Layer::Host, 1, 0, 8));
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn oracle_accepts_a_clean_merged_lifecycle() {
        let mut tr = Trace::unbounded();
        let l = Layer::Guest(0);
        let t = SimTime::from_micros;
        tr.push(t(0), TraceEvent::SchedInstall { layer: l, sched: b'n' });
        tr.push(t(1), ev_arrive(l, 1, 100, 8));
        tr.push(t(2), TraceEvent::MergeBack { layer: l, id: 2, sector: 108, sectors: 8, write: false });
        tr.push(t(3), TraceEvent::Dispatch { layer: l, id: 1, sector: 100, sectors: 16, write: false });
        tr.push(t(9), TraceEvent::Complete { layer: l, id: 1 });
        tr.push(t(9), TraceEvent::Complete { layer: l, id: 2 });
        let mut o = TraceOracle::default();
        o.replay(&tr);
        o.assert_clean();
        assert_eq!(o.dispatches_checked(), 1);
    }

    #[test]
    fn oracle_rejects_uncovered_dispatch_and_double_completion() {
        let mut tr = Trace::unbounded();
        let l = Layer::Host;
        tr.push(SimTime::from_micros(1), ev_arrive(l, 1, 100, 8));
        // Dispatch claims 16 sectors but only 8 arrived.
        tr.push(
            SimTime::from_micros(2),
            TraceEvent::Dispatch { layer: l, id: 1, sector: 100, sectors: 16, write: false },
        );
        tr.push(SimTime::from_micros(3), TraceEvent::Complete { layer: l, id: 1 });
        tr.push(SimTime::from_micros(4), TraceEvent::Complete { layer: l, id: 1 });
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 2, "{:?}", o.violations());
    }

    #[test]
    fn oracle_rejects_dispatch_while_frozen_and_arrival_while_quiesced() {
        let mut tr = Trace::unbounded();
        let l = Layer::Host;
        let t = SimTime::from_micros;
        tr.push(t(0), ev_arrive(l, 1, 0, 8));
        tr.push(t(1), TraceEvent::SwitchBegin { layer: l, to: b'd' });
        // Arrival while quiesced: illegal (should have been staged).
        tr.push(t(2), ev_arrive(l, 2, 8, 8));
        // Draining dispatch: legal.
        tr.push(t(3), TraceEvent::Dispatch { layer: l, id: 1, sector: 0, sectors: 8, write: false });
        tr.push(t(4), TraceEvent::Dispatch { layer: l, id: 2, sector: 8, sectors: 8, write: false });
        tr.push(t(5), TraceEvent::SwapDone { layer: l, to: b'd' });
        // Dispatch while frozen: illegal (also uncovered — count just the freeze one).
        tr.push(t(6), ev_arrive(l, 3, 16, 8));
        tr.push(t(7), TraceEvent::Dispatch { layer: l, id: 3, sector: 16, sectors: 8, write: false });
        let mut o = TraceOracle::default();
        o.replay(&tr);
        // Violations: arrival-while-quiesced (id 2), arrival-while-quiesced
        // (id 3, still pre-thaw), dispatch-while-frozen (id 3).
        assert_eq!(o.violations().len(), 3, "{:?}", o.violations());
    }

    #[test]
    fn oracle_enforces_ring_bound_and_phase_monotonicity() {
        let mut tr = Trace::unbounded();
        tr.push(SimTime::ZERO, TraceEvent::RingOcc { vm: 0, occupied: 31, bound: 43 });
        tr.push(SimTime::ZERO, TraceEvent::RingOcc { vm: 0, occupied: 44, bound: 43 });
        tr.push(SimTime::ZERO, TraceEvent::Phase { phase: 2 });
        tr.push(SimTime::ZERO, TraceEvent::Phase { phase: 1 });
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 2, "{:?}", o.violations());
    }

    #[test]
    fn oracle_flags_deadline_expiry_starvation() {
        let mut tr = Trace::unbounded();
        let l = Layer::Host;
        tr.push(SimTime::ZERO, TraceEvent::SchedInstall { layer: l, sched: b'd' });
        // A read arrives and expires at 500 ms.
        tr.push(SimTime::ZERO, ev_arrive(l, 1, 0, 8));
        // 65 other reads arrive later and are all served first, far past
        // the expiry — more than fifo_batch × (writes_starved + 2) = 64.
        for i in 0..65u64 {
            let t = SimTime::from_millis(600 + i);
            tr.push(t, ev_arrive(l, 100 + i, 1000 + i * 8, 8));
            tr.push(
                t,
                TraceEvent::Dispatch { layer: l, id: 100 + i, sector: 1000 + i * 8, sectors: 8, write: false },
            );
        }
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 1, "{:?}", o.violations());
        assert!(o.violations()[0].contains("expired"), "{:?}", o.violations());
    }

    #[test]
    fn oracle_checks_flow_pairing() {
        let mut tr = Trace::unbounded();
        tr.push(SimTime::ZERO, TraceEvent::FlowStart { id: 1, src: 0, dst: 1, bytes: 100 });
        tr.push(SimTime::from_secs(1), TraceEvent::FlowEnd { id: 1 });
        tr.push(SimTime::from_secs(2), TraceEvent::FlowEnd { id: 2 });
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 1);
    }

    /// A clean two-job multi-tenant episode: overlapping jobs sharing
    /// slots, byte-conserving map releases, full lifecycle order.
    #[test]
    fn oracle_accepts_clean_multijob_episode() {
        let mut tr = Trace::unbounded();
        let t = SimTime::from_millis;
        tr.push(t(0), TraceEvent::JobArrive { job: 1, bytes: 128 });
        tr.push(t(1), TraceEvent::JobAdmit { job: 1 });
        tr.push(t(2), TraceEvent::SlotAcquire { job: 1, gvm: 0, map: true });
        tr.push(t(3), TraceEvent::JobArrive { job: 2, bytes: 64 });
        tr.push(t(4), TraceEvent::JobAdmit { job: 2 });
        tr.push(t(5), TraceEvent::SlotAcquire { job: 2, gvm: 0, map: true });
        tr.push(t(6), TraceEvent::SlotRelease { job: 1, gvm: 0, map: true, bytes: 128 });
        tr.push(t(7), TraceEvent::SlotAcquire { job: 1, gvm: 1, map: false });
        tr.push(t(8), TraceEvent::SlotRelease { job: 2, gvm: 0, map: true, bytes: 64 });
        tr.push(t(9), TraceEvent::SlotRelease { job: 1, gvm: 1, map: false, bytes: 0 });
        tr.push(t(10), TraceEvent::JobComplete { job: 1 });
        tr.push(t(11), TraceEvent::SlotAcquire { job: 2, gvm: 1, map: false });
        tr.push(t(12), TraceEvent::SlotRelease { job: 2, gvm: 1, map: false, bytes: 0 });
        tr.push(t(13), TraceEvent::JobComplete { job: 2 });
        let mut o = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(2),
            reduce_slots_per_vm: Some(2),
            ..OracleConfig::default()
        });
        o.replay(&tr);
        o.assert_clean();
    }

    /// Oversubscription: two concurrent map slots on one VM with a
    /// capacity of one.
    #[test]
    fn oracle_flags_slot_oversubscription() {
        let mut tr = Trace::unbounded();
        let t = SimTime::from_millis;
        for job in [1u64, 2] {
            tr.push(t(job), TraceEvent::JobArrive { job, bytes: 8 });
            tr.push(t(job + 2), TraceEvent::JobAdmit { job });
            tr.push(t(job + 4), TraceEvent::SlotAcquire { job, gvm: 3, map: true });
        }
        let mut o = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(1),
            ..OracleConfig::default()
        });
        o.replay(&tr);
        assert_eq!(o.violations().len(), 1, "{:?}", o.violations());
        assert!(o.violations()[0].contains("exceeds capacity"), "{:?}", o.violations());
    }

    /// Lifecycle-order violations: admission without arrival, slot
    /// acquire before admission, completion while holding a slot,
    /// completion of a job that never arrived.
    #[test]
    fn oracle_flags_multijob_lifecycle_violations() {
        let mut tr = Trace::unbounded();
        let t = SimTime::from_millis;
        tr.push(t(0), TraceEvent::JobAdmit { job: 9 }); // never arrived
        tr.push(t(1), TraceEvent::JobArrive { job: 1, bytes: 8 });
        tr.push(t(2), TraceEvent::SlotAcquire { job: 1, gvm: 0, map: true }); // pre-admit
        tr.push(t(3), TraceEvent::JobAdmit { job: 1 });
        tr.push(t(4), TraceEvent::SlotAcquire { job: 1, gvm: 0, map: true });
        tr.push(t(5), TraceEvent::JobComplete { job: 1 }); // still holds a slot
        tr.push(t(6), TraceEvent::JobComplete { job: 999_999 }); // never arrived
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 4, "{:?}", o.violations());
        assert!(
            o.violations()[3].contains("without arriving"),
            "{:?}",
            o.violations()
        );
    }

    /// Byte conservation: the job's map releases must sum to the bytes
    /// announced at arrival.
    #[test]
    fn oracle_flags_byte_conservation_breaks() {
        let mut tr = Trace::unbounded();
        let t = SimTime::from_millis;
        tr.push(t(0), TraceEvent::JobArrive { job: 1, bytes: 100 });
        tr.push(t(1), TraceEvent::JobAdmit { job: 1 });
        tr.push(t(2), TraceEvent::SlotAcquire { job: 1, gvm: 0, map: true });
        tr.push(t(3), TraceEvent::SlotRelease { job: 1, gvm: 0, map: true, bytes: 60 });
        tr.push(t(4), TraceEvent::JobComplete { job: 1 });
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 1, "{:?}", o.violations());
        assert!(o.violations()[0].contains("byte conservation"), "{:?}", o.violations());
    }

    /// Releasing a slot nobody holds is flagged at both the VM ledger
    /// and the job ledger.
    #[test]
    fn oracle_flags_release_without_acquire() {
        let mut tr = Trace::unbounded();
        tr.push(SimTime::ZERO, TraceEvent::JobArrive { job: 1, bytes: 0 });
        tr.push(SimTime::from_millis(1), TraceEvent::JobAdmit { job: 1 });
        tr.push(
            SimTime::from_millis(2),
            TraceEvent::SlotRelease { job: 1, gvm: 0, map: false, bytes: 0 },
        );
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 2, "{:?}", o.violations());
    }

    #[test]
    fn oracle_refuses_truncated_traces() {
        let mut tr = Trace::bounded(1);
        tr.push(SimTime::ZERO, ev_arrive(Layer::Host, 1, 0, 8));
        tr.push(SimTime::ZERO, ev_arrive(Layer::Host, 2, 8, 8));
        let mut o = TraceOracle::default();
        o.replay(&tr);
        assert_eq!(o.violations().len(), 1);
        assert!(o.violations()[0].contains("dropped"));
    }

    #[test]
    fn chrome_export_is_valid_parseable_json_with_paired_async_events() {
        let mut cluster = Trace::unbounded();
        cluster.push(SimTime::ZERO, TraceEvent::Phase { phase: 1 });
        cluster.push(SimTime::from_secs(2), TraceEvent::Phase { phase: 2 });
        cluster.push(SimTime::from_millis(100), TraceEvent::FlowStart { id: 7, src: 0, dst: 1, bytes: 4096 });
        cluster.push(SimTime::from_millis(400), TraceEvent::FlowEnd { id: 7 });

        let mut node = Trace::unbounded();
        let l = Layer::Guest(0);
        let t = SimTime::from_micros;
        node.push(t(0), TraceEvent::SchedInstall { layer: l, sched: b'c' });
        node.push(t(1), ev_arrive(l, 1, 100, 8));
        node.push(t(2), TraceEvent::MergeBack { layer: l, id: 2, sector: 108, sectors: 8, write: false });
        node.push(t(3), TraceEvent::Dispatch { layer: l, id: 1, sector: 100, sectors: 16, write: false });
        node.push(t(9), TraceEvent::Complete { layer: l, id: 1 });
        node.push(t(9), TraceEvent::Complete { layer: l, id: 2 });
        node.push(t(10), TraceEvent::SwitchBegin { layer: l, to: b'd' });
        node.push(t(20), TraceEvent::SwapDone { layer: l, to: b'd' });
        node.push(t(30), TraceEvent::SwitchEnd { layer: l, to: b'd' });
        node.push(t(31), TraceEvent::RingOcc { vm: 0, occupied: 3, bound: 43 });
        node.push(
            t(32),
            TraceEvent::DiskService { id: 5, seek_ns: 1000, rotation_ns: 2000, transfer_ns: 3000, sectors: 8, sequential: false },
        );
        node.push(t(33), TraceEvent::IdleArm { layer: l, until: t(40) });

        let doc = to_chrome_json(&cluster, &[&node]);
        let text = doc.to_string();
        let back = crate::json::Json::parse(&text).expect("chrome export must parse");
        let evs = back.get("traceEvents").unwrap().as_arr().unwrap();
        let count_ph = |ph: &str| {
            evs.iter()
                .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph))
                .count()
        };
        // Async begins (2 requests + 1 flow) match ends exactly.
        assert_eq!(count_ph("b"), 3, "{text}");
        assert_eq!(count_ph("e"), 3, "{text}");
        // Both phases became spans; switch adds switch+drain+reinit; disk 1.
        assert_eq!(count_ph("X"), 2 + 3 + 1, "{text}");
        assert_eq!(count_ph("C"), 1, "{text}");
        // Determinism: same input, same bytes.
        assert_eq!(text, to_chrome_json(&cluster, &[&node]).to_string());
        // Timestamps are µs: the 2 s phase span has ts 0, dur 2e6.
        let phase1 = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("phase1"))
            .unwrap();
        assert_eq!(phase1.get("dur").unwrap().as_f64(), Some(2_000_000.0));
    }

    #[test]
    fn chrome_export_skips_unmatched_completions_from_truncated_rings() {
        let mut node = Trace::bounded(1);
        node.push(SimTime::ZERO, ev_arrive(Layer::Host, 1, 0, 8));
        // The arrival is evicted; only the completion is retained.
        node.push(SimTime::from_micros(5), TraceEvent::Complete { layer: Layer::Host, id: 1 });
        let doc = to_chrome_json(&Trace::disabled(), &[&node]);
        let text = doc.to_string();
        let back = crate::json::Json::parse(&text).unwrap();
        let evs = back.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(
            !evs.iter().any(|e| e.get("ph").and_then(|p| p.as_str()) == Some("e")),
            "{text}"
        );
    }
}
