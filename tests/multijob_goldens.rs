//! Multi-job service goldens: hardcoded fingerprints of small
//! reference service runs (3-tenant Poisson streams, and one trace
//! stream with arrivals on retune ticks), pinning the
//! `adios.metrics/3` document bytes and the multi-job trace digest.
//! Seeded exactly like `tests/kernel_goldens.rs`: the fingerprints must
//! reproduce bit-for-bit on every worker count (`SIM_THREADS=1/2/8`
//! equivalents via `par_map_threads`).
//!
//! If a *deliberate* behaviour change ever invalidates these numbers,
//! re-capture them with the printing helper below and say so in the
//! commit message.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::metasched::BlendedTuner;
use adaptive_disk_sched::vcluster::{
    run_service, ArrivalSpec, FixedPolicy, ServiceOutcome, ServiceParams, ServicePolicy,
    TenantMix, TenantProfile,
};
use simcore::par::par_map_threads;
use simcore::SimDuration;

struct Golden {
    seed: u64,
    adaptive: bool,
    completed: u64,
    trace_digest: u64,
    metrics_fnv: u64,
}

/// FNV-1a over a byte string (stable fingerprint of the metrics doc).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Synthetic calibration with phase-crossing pair rankings (pair 0
/// fastest for maps, the last pair fastest for the tail) — fixed
/// numbers, so the goldens do not depend on the inner cluster model.
fn profiles() -> Vec<TenantProfile> {
    let n = SchedPair::all().len();
    (0..3)
        .map(|t| TenantProfile {
            phase: (0..n)
                .map(|i| {
                    let k = i as f64;
                    let ph1 = 22.0 + 1.5 * k + 2.0 * t as f64;
                    let tail = 48.0 - 2.0 * k + t as f64;
                    [
                        SimDuration::from_secs_f64(ph1),
                        SimDuration::from_secs_f64(tail * 0.4),
                        SimDuration::from_secs_f64(tail * 0.6),
                    ]
                })
                .collect(),
        })
        .collect()
}

/// The stream load a golden runs: MB of input per VM for every
/// tenant, and the admission cap.
#[derive(Clone, Copy)]
struct Load {
    data_mb: u64,
    max_concurrent: u32,
}

/// One 64 MB block per VM under the default cap: a job's maps are all
/// handed out by its first dispatch, so no map ever waits on a refill.
const ONE_BLOCK: Load = Load { data_mb: 64, max_concurrent: 8 };

fn run(seed: u64, adaptive: bool, load: Load) -> ServiceOutcome {
    run_arrivals(seed, adaptive, load, &ArrivalSpec::Poisson { rate_per_min: 6.0 })
}

fn run_arrivals(seed: u64, adaptive: bool, load: Load, spec: &ArrivalSpec) -> ServiceOutcome {
    let mut params = ServiceParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    params.duration = SimDuration::from_secs(180);
    params.seed = seed;
    params.max_concurrent = load.max_concurrent;
    let mix = TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", load.data_mb << 20)
        .expect("golden tenant mix");
    let profiles = profiles();
    let mut fixed;
    let mut blended;
    let policy: &mut dyn ServicePolicy = if adaptive {
        blended = BlendedTuner::new(profiles.clone(), 0.02);
        &mut blended
    } else {
        fixed = FixedPolicy(SchedPair::DEFAULT);
        &mut fixed
    };
    run_service(&params, &mix, &profiles, spec, policy)
}

fn fingerprint(seed: u64, adaptive: bool, load: Load) -> (u64, u64, u64) {
    outcome_fingerprint(run(seed, adaptive, load))
}

fn outcome_fingerprint(out: ServiceOutcome) -> (u64, u64, u64) {
    assert_eq!(
        out.metrics.get("schema").and_then(|s| s.as_str()),
        Some("adios.metrics/3"),
        "service document must carry the bumped schema"
    );
    (
        out.completed,
        out.trace_digest,
        fnv1a(out.metrics.to_string().as_bytes()),
    )
}

/// Captured with
/// `cargo test -q --test multijob_goldens -- --ignored --nocapture`.
const GOLDENS: &[Golden] = &[
    Golden { seed: 42, adaptive: false, completed: 22, trace_digest: 0x97dc5affb150a339, metrics_fnv: 0xf7b31e2c10d96f87 },
    Golden { seed: 42, adaptive: true, completed: 22, trace_digest: 0xfc4372d079b2fc9d, metrics_fnv: 0x29a9fb57b091cdd9 },
    Golden { seed: 7, adaptive: true, completed: 16, trace_digest: 0xf9825db2655ddff0, metrics_fnv: 0x0f355f8e70c3ff2d },
];

/// Four 64 MB blocks per VM (256 MB/VM), so a finished map hands its
/// slot to the next local block of the same job (the refill path), and
/// jobs contend for slots; a cap of 2 also parks arrivals in the
/// admission queue.
const MANY_BLOCKS: &[(Load, Golden)] = &[
    (Load { data_mb: 256, max_concurrent: 8 }, Golden { seed: 42, adaptive: true, completed: 22, trace_digest: 0xe481821da93ab01a, metrics_fnv: 0x836bf797f3bf89c1 }),
    (Load { data_mb: 256, max_concurrent: 2 }, Golden { seed: 42, adaptive: true, completed: 22, trace_digest: 0x7c14f5dd9e209035, metrics_fnv: 0xe31cb9a2fb2ffdb8 }),
    (Load { data_mb: 256, max_concurrent: 2 }, Golden { seed: 7, adaptive: false, completed: 16, trace_digest: 0xc4ba80122d32832f, metrics_fnv: 0xfcb2d64fd01bb585 }),
];

/// Every pinned configuration with its load.
fn all_goldens() -> impl Iterator<Item = (Load, &'static Golden)> {
    GOLDENS.iter().map(|g| (ONE_BLOCK, g)).chain(MANY_BLOCKS.iter().map(|(l, g)| (*l, g)))
}

#[test]
#[ignore]
fn capture_goldens() {
    for (load, g) in all_goldens() {
        let (seed, adaptive) = (g.seed, g.adaptive);
        let (c, d, f) = fingerprint(seed, adaptive, load);
        println!(
            "{} MB/VM, cap {}: Golden {{ seed: {seed}, adaptive: {adaptive}, completed: {c}, \
             trace_digest: 0x{d:016x}, metrics_fnv: 0x{f:016x} }},",
            load.data_mb, load.max_concurrent
        );
    }
    let g = &TICK_ARRIVALS;
    let (c, d, f) =
        outcome_fingerprint(run_arrivals(g.seed, g.adaptive, ONE_BLOCK, &tick_arrivals()));
    println!(
        "tick arrivals: Golden {{ seed: {}, adaptive: {}, completed: {c}, \
         trace_digest: 0x{d:016x}, metrics_fnv: 0x{f:016x} }}",
        g.seed, g.adaptive
    );
}

#[test]
fn multijob_service_preserves_goldens() {
    for (load, g) in all_goldens() {
        let (c, d, f) = fingerprint(g.seed, g.adaptive, load);
        let at = format!(
            "seed {}, adaptive {}, {} MB/VM, cap {}",
            g.seed, g.adaptive, load.data_mb, load.max_concurrent
        );
        assert_eq!(c, g.completed, "job count drifted ({at})");
        assert_eq!(d, g.trace_digest, "trace digest drifted ({at})");
        assert_eq!(f, g.metrics_fnv, "adios.metrics/3 bytes drifted ({at})");
    }
}

/// The goldens hold whatever the worker count: sweeping the golden
/// configurations through `par_map_threads` with 1, 2 and 8 workers
/// yields identical fingerprints (the `SIM_THREADS=1/2/8` invariance).
#[test]
fn multijob_goldens_thread_invariant() {
    let configs: Vec<(u64, bool, Load)> =
        all_goldens().map(|(l, g)| (g.seed, g.adaptive, l)).collect();
    let one = par_map_threads(1, &configs, |&(s, a, l)| fingerprint(s, a, l));
    let two = par_map_threads(2, &configs, |&(s, a, l)| fingerprint(s, a, l));
    let eight = par_map_threads(8, &configs, |&(s, a, l)| fingerprint(s, a, l));
    assert_eq!(one, two, "2-worker sweep changed service fingerprints");
    assert_eq!(one, eight, "8-worker sweep changed service fingerprints");
}

/// Trace arrivals that land exactly on retune ticks (multiples of the
/// 5 s retune period), several at one instant, under the adaptive
/// policy. At each instant the service takes its arrivals before the
/// instant's queued events, so the retune at 40 s already sees the three
/// jobs that arrive with it and switches back to the map-fast pair then,
/// not one tick later.
fn tick_arrivals() -> ArrivalSpec {
    let at = |s: u64| simcore::SimTime::from_secs(s);
    ArrivalSpec::Trace(vec![
        (at(5), 0),
        (at(5), 1),
        (at(40), 0),
        (at(40), 1),
        (at(40), 2),
        (at(60), 2),
        (at(60), 0),
        (at(125), 1),
        (at(125), 2),
        (at(150), 0),
    ])
}

/// Captured like [`GOLDENS`], at the commit that still queued every
/// arrival up front, with `capture_goldens`.
const TICK_ARRIVALS: Golden = Golden {
    seed: 42,
    adaptive: true,
    completed: 10,
    trace_digest: 0x24855800b482f21c,
    metrics_fnv: 0x43e32849cda474c0,
};

#[test]
fn arrivals_on_retune_ticks_preserve_golden() {
    let g = &TICK_ARRIVALS;
    let (c, d, f) = outcome_fingerprint(run_arrivals(
        g.seed,
        g.adaptive,
        ONE_BLOCK,
        &tick_arrivals(),
    ));
    assert_eq!(c, g.completed, "job count drifted");
    assert_eq!(d, g.trace_digest, "trace digest drifted");
    assert_eq!(f, g.metrics_fnv, "adios.metrics/3 bytes drifted");
}
