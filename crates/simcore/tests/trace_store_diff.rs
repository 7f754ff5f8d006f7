//! Differential tests: the varint-chunk [`Trace`] store against a
//! reference ring of plain records — a `VecDeque<TraceRecord>` with a
//! byte-at-a-time FNV-1a digest, the structure the store replaced.
//! Both take the same random records of all 21 variants, with extreme
//! fields and timestamps that jump backwards, at capacities around the
//! chunk size. After every push `len`, `total`, `dropped` and `digest`
//! must agree, and so must the retained records wherever the store's
//! layout changes: within two pushes of a chunk boundary, where chunks
//! fill and (at these capacities) get evicted. Elsewhere the records
//! are compared every 32nd push: reading a ring decodes up to a chunk
//! of records, so comparing them after every push would make the suite
//! quadratic in the chunk size.

use simcore::trace::CHUNK_RECORDS;
use simcore::{Layer, SimRng, SimTime, Trace, TraceEvent, TraceRecord};
use std::collections::VecDeque;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// The reference model: a drop-oldest ring of whole records.
struct RefTrace {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    total: u64,
    dropped: u64,
    hash: u64,
}

impl RefTrace {
    fn new(cap: usize) -> Self {
        RefTrace {
            cap,
            buf: VecDeque::new(),
            total: 0,
            dropped: 0,
            hash: FNV_OFFSET,
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.cap == 0 {
            return;
        }
        for w in ref_words(&rec) {
            for b in w.to_le_bytes() {
                self.hash ^= b as u64;
                self.hash = self.hash.wrapping_mul(FNV_PRIME);
            }
        }
        self.total += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }
}

fn layer_tag(l: Layer) -> u64 {
    match l {
        Layer::Host => u64::MAX,
        Layer::Guest(v) => v as u64,
    }
}

/// The digest's canonical encoding: time, variant tag, fields.
fn ref_words(rec: &TraceRecord) -> Vec<u64> {
    use TraceEvent::*;
    let t = rec.t.as_nanos();
    match rec.ev {
        SchedInstall { layer, sched } => vec![t, 1, layer_tag(layer), sched as u64],
        Arrive {
            layer,
            id,
            sector,
            sectors,
            write,
        } => {
            vec![t, 2, layer_tag(layer), id, sector, sectors, write as u64]
        }
        MergeBack {
            layer,
            id,
            sector,
            sectors,
            write,
        } => {
            vec![t, 3, layer_tag(layer), id, sector, sectors, write as u64]
        }
        MergeFront {
            layer,
            id,
            sector,
            sectors,
            write,
        } => {
            vec![t, 4, layer_tag(layer), id, sector, sectors, write as u64]
        }
        Dispatch {
            layer,
            id,
            sector,
            sectors,
            write,
        } => {
            vec![t, 5, layer_tag(layer), id, sector, sectors, write as u64]
        }
        Complete { layer, id } => vec![t, 6, layer_tag(layer), id],
        IdleArm { layer, until } => vec![t, 7, layer_tag(layer), until.as_nanos()],
        SwitchBegin { layer, to } => vec![t, 8, layer_tag(layer), to as u64],
        SwapDone { layer, to } => vec![t, 9, layer_tag(layer), to as u64],
        SwitchEnd { layer, to } => vec![t, 10, layer_tag(layer), to as u64],
        RingOcc {
            vm,
            occupied,
            bound,
        } => vec![t, 11, vm as u64, occupied as u64, bound as u64],
        DiskService {
            id,
            seek_ns,
            rotation_ns,
            transfer_ns,
            sectors,
            sequential,
        } => {
            vec![
                t,
                12,
                id,
                seek_ns,
                rotation_ns,
                transfer_ns,
                sectors,
                sequential as u64,
            ]
        }
        FlowStart {
            id,
            src,
            dst,
            bytes,
        } => vec![t, 13, id, src as u64, dst as u64, bytes],
        FlowEnd { id } => vec![t, 14, id],
        Phase { phase } => vec![t, 15, phase as u64],
        PolicyDecision {
            observed_bits,
            threshold_bits,
            streak,
            acted,
        } => {
            vec![
                t,
                16,
                observed_bits,
                threshold_bits,
                streak as u64,
                acted as u64,
            ]
        }
        JobArrive { job, bytes } => vec![t, 17, job, bytes],
        JobAdmit { job } => vec![t, 18, job],
        SlotAcquire { job, gvm, map } => vec![t, 19, job, gvm as u64, map as u64],
        SlotRelease {
            job,
            gvm,
            map,
            bytes,
        } => vec![t, 20, job, gvm as u64, map as u64, bytes],
        JobComplete { job } => vec![t, 21, job],
    }
}

/// Random records: every variant, fields drawn often from the edges of
/// their types, time mostly advancing but sometimes standing still,
/// jumping backwards or to the ends of the clock.
struct Records {
    rng: SimRng,
    t: u64,
}

impl Records {
    fn new(seed: u64) -> Self {
        Records {
            rng: SimRng::from_seed(seed),
            t: 1 << 40,
        }
    }

    fn word(&mut self) -> u64 {
        match self.rng.index(8) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - 1,
            3 => 1 << 63,
            4 => self.rng.range_u64(0, 0x80),
            5 => self.rng.range_u64(0x80, 1 << 32),
            _ => self.rng.next_u64(),
        }
    }

    fn u32(&mut self) -> u32 {
        match self.rng.index(4) {
            0 => 0,
            1 => u32::MAX,
            _ => self.rng.next_u32(),
        }
    }

    fn byte(&mut self) -> u8 {
        self.rng.next_u32() as u8
    }

    fn flag(&mut self) -> bool {
        self.rng.next_u32() & 1 == 1
    }

    fn layer(&mut self) -> Layer {
        if self.flag() {
            Layer::Host
        } else {
            Layer::Guest(self.u32())
        }
    }

    fn time(&mut self) -> SimTime {
        self.t = match self.rng.index(16) {
            0 => self.t.wrapping_sub(self.rng.range_u64(1, 1 << 30)),
            1 => 0,
            2 => u64::MAX,
            3 | 4 => self.t,
            _ => self.t.wrapping_add(self.rng.range_u64(1, 1 << 34)),
        };
        SimTime::from_nanos(self.t)
    }

    fn next(&mut self) -> TraceRecord {
        use TraceEvent::*;
        let t = self.time();
        let ev = match self.rng.index(21) {
            0 => SchedInstall {
                layer: self.layer(),
                sched: self.byte(),
            },
            v @ 1..=4 => {
                let (layer, id, sector, sectors, write) = (
                    self.layer(),
                    self.word(),
                    self.word(),
                    self.word(),
                    self.flag(),
                );
                match v {
                    1 => Arrive {
                        layer,
                        id,
                        sector,
                        sectors,
                        write,
                    },
                    2 => MergeBack {
                        layer,
                        id,
                        sector,
                        sectors,
                        write,
                    },
                    3 => MergeFront {
                        layer,
                        id,
                        sector,
                        sectors,
                        write,
                    },
                    _ => Dispatch {
                        layer,
                        id,
                        sector,
                        sectors,
                        write,
                    },
                }
            }
            5 => Complete {
                layer: self.layer(),
                id: self.word(),
            },
            6 => IdleArm {
                layer: self.layer(),
                until: SimTime::from_nanos(self.word()),
            },
            7 => SwitchBegin {
                layer: self.layer(),
                to: self.byte(),
            },
            8 => SwapDone {
                layer: self.layer(),
                to: self.byte(),
            },
            9 => SwitchEnd {
                layer: self.layer(),
                to: self.byte(),
            },
            10 => RingOcc {
                vm: self.u32(),
                occupied: self.u32(),
                bound: self.u32(),
            },
            11 => DiskService {
                id: self.word(),
                seek_ns: self.word(),
                rotation_ns: self.word(),
                transfer_ns: self.word(),
                sectors: self.word(),
                sequential: self.flag(),
            },
            12 => FlowStart {
                id: self.word(),
                src: self.u32(),
                dst: self.u32(),
                bytes: self.word(),
            },
            13 => FlowEnd { id: self.word() },
            14 => Phase { phase: self.byte() },
            15 => PolicyDecision {
                observed_bits: self.rng.next_u64(),
                threshold_bits: self.word(),
                streak: self.u32(),
                acted: self.flag(),
            },
            16 => JobArrive {
                job: self.word(),
                bytes: self.word(),
            },
            17 => JobAdmit { job: self.word() },
            18 => SlotAcquire {
                job: self.word(),
                gvm: self.u32(),
                map: self.flag(),
            },
            19 => SlotRelease {
                job: self.word(),
                gvm: self.u32(),
                map: self.flag(),
                bytes: self.word(),
            },
            _ => JobComplete { job: self.word() },
        };
        TraceRecord { t, ev }
    }
}

fn assert_same(store: &Trace, model: &RefTrace, step: usize, records: bool) {
    let ctx = |what: &str| format!("cap {} after push {step}: {what}", model.cap);
    assert_eq!(store.total(), model.total, "{}", ctx("total"));
    assert_eq!(store.len(), model.buf.len(), "{}", ctx("len"));
    assert_eq!(
        store.is_empty(),
        model.buf.is_empty(),
        "{}",
        ctx("is_empty")
    );
    assert_eq!(store.dropped(), model.dropped, "{}", ctx("dropped"));
    assert_eq!(store.digest(), model.hash, "{}", ctx("digest"));
    if !records {
        return;
    }
    let mut got = store.records();
    for (i, want) in model.buf.iter().enumerate() {
        assert_eq!(
            got.next().as_ref(),
            Some(want),
            "{}",
            ctx(&format!("record {i}"))
        );
    }
    assert_eq!(got.next(), None, "{}", ctx("extra records"));
}

/// Push `n` records into a store and its model at `cap` (`None` =
/// unbounded), comparing after every push (see the module docs for
/// when the retained records are compared too).
fn run(cap: Option<usize>, n: usize, seed: u64) {
    let (mut store, mut model) = match cap {
        Some(c) => (Trace::bounded(c), RefTrace::new(c)),
        None => (Trace::unbounded(), RefTrace::new(usize::MAX)),
    };
    let mut records = Records::new(seed);
    for step in 0..n {
        let rec = records.next();
        store.push(rec.t, rec.ev);
        model.push(rec);
        let phase = step % CHUNK_RECORDS;
        let near_boundary = !(3..CHUNK_RECORDS - 3).contains(&phase);
        let records = near_boundary || step % 32 == 0 || step + 1 == n;
        assert_same(&store, &model, step, records);
    }
}

#[test]
fn tiny_and_disabled_rings_match_the_model() {
    for (i, cap) in [0usize, 1, 2].into_iter().enumerate() {
        run(Some(cap), 3 * CHUNK_RECORDS + 7, 0x7ace_0000 + i as u64);
    }
}

/// At a capacity one chunk or one record either side of it, the first
/// whole-chunk eviction lands after about two chunks of pushes.
#[test]
fn rings_around_one_chunk_match_the_model() {
    for (i, cap) in [CHUNK_RECORDS - 1, CHUNK_RECORDS, CHUNK_RECORDS + 1]
        .into_iter()
        .enumerate()
    {
        run(
            Some(cap),
            2 * CHUNK_RECORDS + 64 + 2 * i,
            0x7ace_1000 + i as u64,
        );
    }
}

#[test]
fn unbounded_store_keeps_every_record() {
    run(None, 2 * CHUNK_RECORDS + 5, 0x7ace_2000);
}

/// Every variant round-trips, and the seeds above draw each of them.
#[test]
fn generator_covers_all_21_variants() {
    let mut seen = std::collections::BTreeSet::new();
    let mut records = Records::new(0x7ace_3000);
    for _ in 0..2000 {
        seen.insert(ref_words(&records.next())[1]);
    }
    assert_eq!(seen, (1..=21).collect());
}
