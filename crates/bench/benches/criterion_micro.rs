//! Micro-benchmarks of the simulator itself: elevator add/dispatch
//! throughput, one node's whole virtualized block path at fixed VM
//! counts, one node run switched halfway and one Fig. 5 row forked
//! from a shared prefix, event-queue (binary heap) push/pop and same-instant batch drain,
//! the memo-cache hit path, trace pushes (service-shaped, unbounded;
//! node-shaped, into a dropping ring), sample-set records, the
//! multi-job service loop and its metrics export, mechanical disk
//! service computation, and a complete small MapReduce job — the costs
//! that bound every reproduction experiment above.
//!
//! Runs on the in-tree `repro_bench::micro` timer harness (warmup +
//! fixed iteration count, mean/stddev from `simcore::stats`) so the
//! workspace needs no external benchmarking crate.

//! `REPRO_QUICK=1` shrinks warmup and iteration counts to a smoke pass
//! (CI runs it that way: the numbers are then only a liveness check).

use iosched::{
    build_elevator, Dispatch, Dir, Elevator, IoRequest, SchedKind, SchedPair, SegRun, Tunables,
};
use metasched::{BlendedTuner, EvalCache};
use mrsim::{JobSpec, PhaseTimes, WorkloadSpec};
use repro_bench::micro::{bench, Timing};
use repro_bench::quick;
use simcore::{
    EventQueue, Json, Layer, MetricsRegistry, SampleSet, SimDuration, SimTime, Trace, TraceEvent,
};
use std::hint::black_box;
use vcluster::{
    run_job, run_service, ArrivalSpec, ClusterParams, NetParams, Network, ServiceParams,
    SwitchPlan, TenantMix, TenantProfile,
};
use vmstack::runner::{NodeRunner, SyntheticProc};
use vmstack::NodeParams;

/// Every add enters as a run of one through `add_run` with one reused
/// step buffer, as `vmstack` enters guest requests.
fn elevator_round(kind: SchedKind) -> u64 {
    let mut e = build_elevator(kind, &Tunables::default());
    let now = SimTime::ZERO;
    let mut steps = Vec::new();
    for i in 0..256u64 {
        let r = IoRequest {
            id: i + 1,
            stream: (i % 8) as u32,
            sector: (i * 7919) % 1_000_000,
            sectors: 64,
            dir: if i.is_multiple_of(3) { Dir::Write } else { Dir::Read },
            sync: i % 3 != 0,
            submitted: now,
        };
        steps.clear();
        e.add_run(&mut SegRun::one(r), now, &mut steps);
    }
    let mut t = now;
    let mut served = 0;
    loop {
        match e.dispatch(t) {
            Dispatch::Request(rq) => {
                e.completed(&rq, t);
                served += 1;
            }
            Dispatch::Idle { until } => t = until,
            Dispatch::Empty => break,
        }
    }
    served
}

/// Steady-state elevator churn at a fixed queued population: prefill
/// `population` requests, then run add → dispatch → complete rounds so
/// the queue depth stays constant. Exercises the slab kernel's hot
/// paths at depth — binary-search insert, boundary-index merge probes
/// (the sector band guarantees frequent hits), scan-cursor dispatch —
/// where the pre-slab pool went quadratic. Adds go through `add_run`
/// as in [`elevator_round`].
fn elevator_churn(kind: SchedKind, population: usize, rounds: u64) -> u64 {
    let mut e = build_elevator(kind, &Tunables::default());
    let mut steps = Vec::new();
    let mut now = SimTime::ZERO;
    let mut id = 0u64;
    let mut x = 0x2545_F491_4F6C_DD1D_u64; // fixed LCG: identical workload per iter
    let mut lcg = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    let mk = |id: u64, now: SimTime, lcg: &mut dyn FnMut() -> u64| {
        let r = lcg();
        let dir = if r.is_multiple_of(3) { Dir::Write } else { Dir::Read };
        IoRequest {
            id,
            stream: (r >> 8) as u32 % 8,
            // Narrow 8-aligned band so back/front merges actually hit.
            sector: ((r >> 16) % 8_000) * 8,
            sectors: 8 + ((r >> 40) % 8) * 8,
            dir,
            sync: dir == Dir::Read || r.is_multiple_of(5),
            submitted: now,
        }
    };
    for _ in 0..population {
        id += 1;
        let r = mk(id, now, &mut lcg);
        steps.clear();
        e.add_run(&mut SegRun::one(r), now, &mut steps);
    }
    let mut served = 0u64;
    for _ in 0..rounds {
        id += 1;
        now += SimDuration::from_micros(lcg() % 200);
        let r = mk(id, now, &mut lcg);
        steps.clear();
        e.add_run(&mut SegRun::one(r), now, &mut steps);
        loop {
            match e.dispatch(now) {
                Dispatch::Request(rq) => {
                    e.completed(&rq, now);
                    served += 1;
                    break;
                }
                Dispatch::Idle { until } => now = until,
                Dispatch::Empty => break,
            }
        }
    }
    served
}

/// Event-queue push/pop round: 4,096 pushes at scattered times, then
/// pops in order until the queue is empty.
fn event_queue_push_pop() -> u64 {
    let mut q = EventQueue::new();
    let mut x = 0x9e37_79b9_u64; // fixed LCG keeps the workload identical per iter
    for i in 0..4096u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        q.push(SimTime::from_nanos(x % 1_000_000_000), i);
    }
    let mut popped = 0;
    while let Some((_, v)) = q.pop() {
        popped += black_box(v) & 1;
    }
    popped
}

/// Same-instant batching: push bursts of events sharing a timestamp
/// (the common cluster pattern — many I/O completions per tick) and
/// drain each instant with one `pop_batch` instead of pop-per-event.
fn event_queue_batch_drain() -> u64 {
    let mut q = EventQueue::new();
    for burst in 0..64u64 {
        let t = SimTime::from_micros(burst * 10);
        for i in 0..64u64 {
            q.push(t, burst * 64 + i);
        }
    }
    let mut buf = Vec::with_capacity(64);
    let mut drained = 0;
    while q.pop_batch(&mut buf).is_some() {
        drained += buf.len() as u64;
        buf.clear();
    }
    drained
}

/// Memo-cache hit path: the cost Algorithm 1 and the exhaustive
/// baseline pay per already-measured plan (plan build + lock + map
/// lookup) instead of a full cluster simulation.
fn memo_cache_hits(cache: &EvalCache, pairs: &[SchedPair]) -> u64 {
    let mut hits = 0;
    for round in 0..64u64 {
        for (i, &p) in pairs.iter().enumerate() {
            let q = pairs[(i + round as usize) % pairs.len()];
            if cache.get(1, SwitchPlan::from_phases(&[p, q])).is_some() {
                hits += 1;
            }
        }
    }
    hits
}

/// Flow churn at a steady population: prefill `active` flows across a
/// 16-node cluster, then run start → next_completion → harvest rounds —
/// the per-shuffle-flow cycle the driver pays, exercising the
/// incremental solver's dirty-set re-rate and heap repair at a fixed
/// live-flow scale. Sources are drawn from the first `sources` nodes:
/// all 16 gives uniform pairs (few flows per `(src, dst)` edge), a few
/// gives a shuffle's fan-out (many flows per edge).
fn net_churn(active: usize, rounds: u64, sources: u64) -> u64 {
    let nodes = 16u32;
    let mut net = Network::new(NetParams::default(), nodes);
    let mut now = SimTime::ZERO;
    let mut x = 0x243F_6A88_85A3_08D3_u64; // fixed LCG: identical workload per iter
    let mut lcg = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x
    };
    for _ in 0..active {
        let src = (lcg() % sources) as u32;
        let dst = (lcg() % nodes as u64) as u32;
        let bytes = 64 * 1024 + lcg() % (960 * 1024);
        net.start_flow(now, src, dst, bytes);
    }
    let mut done = Vec::new();
    let mut completed = 0u64;
    for _ in 0..rounds {
        let src = (lcg() % sources) as u32;
        let dst = (lcg() % nodes as u64) as u32;
        let bytes = 64 * 1024 + lcg() % (960 * 1024);
        net.start_flow(now, src, dst, bytes);
        if let Some(t) = net.next_completion() {
            now = t;
            net.take_completed_into(now, &mut done);
            completed += done.len() as u64;
            done.clear();
        }
    }
    completed
}

/// One `dd` pass through a single node's block path: each of `vms`
/// VMs writes 32 MiB sequentially under the default pair, so every
/// request goes submit → guest elevator → ring → Dom0 elevator → disk
/// → completion fan-out.
fn vmstack_dd(vms: u32) -> SimDuration {
    dd_runner(vms, SchedPair::DEFAULT).run().makespan
}

/// The `vmstack_dd` workload under `pair`, before it runs.
fn dd_runner(vms: u32, pair: SchedPair) -> NodeRunner {
    let mut r = NodeRunner::new(NodeParams::default(), vms, pair);
    for vm in 0..vms {
        r.add_proc(SyntheticProc::dd_writer(vm, 0, 0, 32 * 1024 * 1024));
    }
    r
}

/// The `vmstack_dd` workload switched from the default pair to `(AS,
/// DL)` at `at`: the drain, swap and re-init stalls of one Fig. 5 cell.
fn vmstack_switch(vms: u32, at: SimTime) -> SimDuration {
    let mut r = dd_runner(vms, SchedPair::DEFAULT);
    r.switch_at(at, SchedPair::new(SchedKind::Anticipatory, SchedKind::Deadline));
    r.run().makespan
}

/// One Fig. 5 row the way `DdConfig::time_with_switch` runs it: the
/// default-pair run paused where its switch at `at` pops, then 16
/// clones of it, each switched to one pair and finished.
fn vmstack_fork_row(vms: u32, at: SimTime) -> SimDuration {
    let mut prefix = dd_runner(vms, SchedPair::DEFAULT);
    prefix.switch_at(at, SchedPair::DEFAULT);
    prefix.run_to_switch();
    let mut total = SimDuration::ZERO;
    for to in SchedPair::all() {
        let mut fork = prefix.clone();
        fork.retarget_switch(Some(to.host), Some(to.guest));
        total += fork.run().makespan;
    }
    total
}

/// Fixed LCG step: identical workloads per iteration.
fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *x >> 11
}

/// Service-shaped pushes into an unbounded trace, as `run_service`
/// keeps one: per job an arrival, an admission, four slot
/// acquire/release pairs and a completion, second-scale gaps apart.
fn trace_push_service(records: u64) -> u64 {
    let mut tr = Trace::unbounded();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut t = 0u64;
    let mut at = |x: &mut u64| {
        t += lcg(x) % 2_000_000_000;
        SimTime::from_nanos(t)
    };
    for job in 0.. {
        if tr.total() >= records {
            break;
        }
        let bytes = 64 << 20;
        tr.push(at(&mut x), TraceEvent::JobArrive { job, bytes: 4 * bytes });
        tr.push(at(&mut x), TraceEvent::JobAdmit { job });
        for _ in 0..4 {
            let gvm = (lcg(&mut x) % 16) as u32;
            tr.push(at(&mut x), TraceEvent::SlotAcquire { job, gvm, map: true });
            tr.push(at(&mut x), TraceEvent::SlotRelease { job, gvm, map: true, bytes });
        }
        tr.push(at(&mut x), TraceEvent::JobComplete { job });
    }
    tr.digest()
}

/// Node-shaped pushes into a bounded ring four times past its
/// capacity: per request a guest entry and dispatch, a ring occupancy,
/// the Dom0 entry, dispatch and disk service, and both completions.
fn trace_push_node(records: u64, cap: usize) -> u64 {
    let mut tr = Trace::bounded(cap);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut t = SimTime::ZERO;
    for id in 0.. {
        if tr.total() >= records {
            break;
        }
        let (guest, host) = (Layer::Guest((id % 4) as u32), Layer::Host);
        let (sector, sectors, write) = (lcg(&mut x) % 1_900_000_000, 8 + lcg(&mut x) % 248, id % 3 == 0);
        for layer in [guest, host] {
            tr.push(t, TraceEvent::Arrive { layer, id, sector, sectors, write });
            t += SimDuration::from_nanos(lcg(&mut x) % 200_000);
            tr.push(t, TraceEvent::Dispatch { layer, id, sector, sectors, write });
        }
        tr.push(t, TraceEvent::RingOcc { vm: (id % 4) as u32, occupied: (id % 32) as u32, bound: 43 });
        let (seek_ns, rotation_ns) = (lcg(&mut x) % 8_000_000, lcg(&mut x) % 4_000_000);
        let transfer_ns = sectors * 5_000;
        let sequential = seek_ns == 0;
        tr.push(t, TraceEvent::DiskService { id, seek_ns, rotation_ns, transfer_ns, sectors, sequential });
        t += SimDuration::from_nanos(seek_ns + rotation_ns + transfer_ns);
        tr.push(t, TraceEvent::Complete { layer: host, id });
        tr.push(t, TraceEvent::Complete { layer: guest, id });
    }
    tr.digest() ^ tr.dropped()
}

/// `n` job latencies recorded in completion (unsorted) order, then the
/// p99 read `run_service` makes of them.
fn sample_set_record(n: usize) -> f64 {
    let mut set = SampleSet::new();
    let mut x = 0x853c_49e6_748f_ea9b_u64;
    for _ in 0..n {
        set.record((lcg(&mut x) % 150_000) as f64 / 1000.0);
    }
    set.quantile(0.99).unwrap_or(0.0)
}

/// The fixed synthetic calibration of `tests/multijob_goldens.rs`:
/// pair 0 fastest for maps, the last pair fastest for the tail.
fn service_profiles() -> Vec<TenantProfile> {
    (0..3)
        .map(|t| TenantProfile {
            phase: (0..SchedPair::all().len())
                .map(|i| {
                    let k = i as f64;
                    let tail = 48.0 - 2.0 * k + t as f64;
                    [
                        SimDuration::from_secs_f64(22.0 + 1.5 * k + 2.0 * t as f64),
                        SimDuration::from_secs_f64(tail * 0.4),
                        SimDuration::from_secs_f64(tail * 0.6),
                    ]
                })
                .collect(),
        })
        .collect()
}

/// One `run_service` on a 2x2 cluster: the 3-tenant mix at 64 MB/VM,
/// Poisson arrivals at 6 jobs/min for `duration_s` (seed 42), under
/// the blended adaptive tuner. Returns the trace digest.
fn service_loop(mix: &TenantMix, profiles: &[TenantProfile], duration_s: u64) -> u64 {
    let mut params = ServiceParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    params.duration = SimDuration::from_secs(duration_s);
    let spec = ArrivalSpec::Poisson { rate_per_min: 6.0 };
    let mut tuner = BlendedTuner::new(profiles.to_vec(), 0.02);
    run_service(&params, mix, profiles, &spec, &mut tuner).trace_digest
}

/// `names.len()` counters registered into one section, then exported
/// to a JSON tree, as `run_service` exports its per-job `jobs_io`
/// counters. Returns the exported field count.
fn metrics_export(names: &[String]) -> usize {
    let mut reg = MetricsRegistry::new();
    for (i, name) in names.iter().enumerate() {
        reg.inc("jobs_io", name, i as u64);
    }
    match reg.into_json() {
        Json::Obj(sections) => sections[0].1.entries().map_or(0, <[_]>::len),
        _ => 0,
    }
}

/// Serialize one benchmark's timing for `BENCH_micro.json`.
fn timing_json(name: &str, t: Timing) -> Json {
    Json::obj()
        .field("name", name)
        .field("mean_ns", t.mean_ns)
        .field("stddev_ns", t.stddev_ns)
        .field("min_ns", t.min_ns)
        .field("iters", t.iters)
}

/// Where the machine-readable results land: `$BENCH_MICRO_OUT`, or
/// `BENCH_micro.json` at the repository root.
fn out_path() -> std::path::PathBuf {
    std::env::var_os("BENCH_MICRO_OUT")
        .map(Into::into)
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_micro.json")
        })
}

fn main() {
    let (warmup, iters) = if quick() { (2, 5) } else { (10, 60) };
    let mut results: Vec<Json> = Vec::new();
    println!("\n## Micro-benchmarks (in-tree harness)\n");
    for kind in SchedKind::ALL {
        let name = format!("elevator_add_dispatch/{kind}");
        let t = bench(&name, warmup, iters, || black_box(elevator_round(kind)));
        results.push(timing_json(&name, t));
    }

    for kind in SchedKind::ALL {
        for population in [64usize, 512, 4096] {
            let name = format!("elevator_churn/{kind}/{population}");
            let rounds = if quick() { 64 } else { 512 };
            let t = bench(&name, warmup, iters, || {
                black_box(elevator_churn(kind, population, rounds))
            });
            results.push(timing_json(&name, t));
        }
    }

    for vms in [1u32, 4, 16] {
        let name = format!("vmstack_dd/{vms}");
        let t = bench(&name, warmup, iters, || black_box(vmstack_dd(vms)));
        results.push(timing_json(&name, t));
    }

    let half = SimTime::ZERO + vmstack_dd(4).div(2);
    let t = bench("vmstack_switch/4", warmup, iters, || black_box(vmstack_switch(4, half)));
    results.push(timing_json("vmstack_switch/4", t));
    let t = bench("vmstack_fork_row/4", warmup, iters, || black_box(vmstack_fork_row(4, half)));
    results.push(timing_json("vmstack_fork_row/4", t));

    let t = bench("event_queue_push_pop_4k", warmup, iters, || {
        black_box(event_queue_push_pop())
    });
    results.push(timing_json("event_queue_push_pop_4k", t));

    let t = bench("event_queue_batch_drain_4k", warmup, iters, || {
        black_box(event_queue_batch_drain())
    });
    results.push(timing_json("event_queue_batch_drain_4k", t));

    let cache = EvalCache::new();
    let all_pairs: Vec<SchedPair> = SchedKind::ALL
        .iter()
        .flat_map(|&a| SchedKind::ALL.iter().map(move |&b| SchedPair::new(a, b)))
        .collect();
    for (i, &p) in all_pairs.iter().enumerate() {
        let done = SimTime::from_secs(i as u64 + 1);
        for &q in &all_pairs {
            let phases = PhaseTimes::new(SimTime::ZERO, done, done, done);
            cache.insert(1, SwitchPlan::from_phases(&[p, q]), phases);
        }
    }
    let t = bench("memo_cache_hit_1k", warmup, iters, || {
        black_box(memo_cache_hits(&cache, &all_pairs))
    });
    results.push(timing_json("memo_cache_hit_1k", t));

    let rounds = if quick() { 64 } else { 256 };
    for active in [64usize, 512, 4096] {
        let name = format!("net_flow_churn/{active}");
        let t = bench(&name, warmup, iters, || black_box(net_churn(active, rounds, 16)));
        results.push(timing_json(&name, t));
    }
    for active in [512usize, 4096] {
        let name = format!("net_shuffle_churn/{active}");
        let t = bench(&name, warmup, iters, || black_box(net_churn(active, rounds, 3)));
        results.push(timing_json(&name, t));
    }

    let records = if quick() { 1 << 14 } else { 1 << 18 };
    let t = bench("trace_push/service", warmup, iters, || {
        black_box(trace_push_service(records))
    });
    results.push(timing_json("trace_push/service", t));
    let t = bench("trace_push/node", warmup, iters, || {
        black_box(trace_push_node(records, records as usize / 4))
    });
    results.push(timing_json("trace_push/node", t));

    let t = bench("sample_set_record/40k", warmup, iters, || {
        black_box(sample_set_record(40_000))
    });
    results.push(timing_json("sample_set_record/40k", t));

    let mix = TenantMix::parse("sort:2,wordcount:1,wordcount-nc:1", 64 << 20)
        .expect("the service mix literal parses");
    let profiles = service_profiles();
    let duration_s = if quick() { 600 } else { 3600 };
    let t = bench("service_loop/2x2", warmup, iters, || {
        black_box(service_loop(&mix, &profiles, duration_s))
    });
    results.push(timing_json("service_loop/2x2", t));

    let names: Vec<String> = (0..200_000).map(|i| format!("job{}_reads", i)).collect();
    let t = bench("metrics_export/200k", warmup, iters, || black_box(metrics_export(&names)));
    results.push(timing_json("metrics_export/200k", t));

    let t = bench("disk_service_1k_requests", warmup, iters, || {
        let mut d = blkdev::Disk::new(blkdev::DiskParams::default());
        let mut now = SimTime::ZERO;
        for i in 0..1000u64 {
            let s = d.service(now, (i * 104_729) % 1_900_000_000, 128, i.is_multiple_of(2));
            now += s.total();
        }
        black_box(now)
    });
    results.push(timing_json("disk_service_1k_requests", t));

    let mut params = ClusterParams::default();
    params.shape.nodes = 2;
    params.shape.vms_per_node = 2;
    let mut job = JobSpec::new(WorkloadSpec::sort());
    job.data_per_vm_bytes = if quick() { 64 } else { 128 } * 1024 * 1024;
    let job_iters = if quick() { 2 } else { 10 };
    let t = bench("small_sort_job_end_to_end", 2, job_iters, || {
        black_box(run_job(
            &params,
            &job,
            SwitchPlan::single(iosched::SchedPair::DEFAULT),
        ))
    });
    results.push(timing_json("small_sort_job_end_to_end", t));

    let doc = Json::obj()
        .field("schema", "adios.bench/1")
        .field("quick", quick())
        .field("results", Json::Arr(results));
    let path = out_path();
    match std::fs::write(&path, doc.to_string() + "\n") {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("error writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
