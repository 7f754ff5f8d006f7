//! Command-line driver for the reproduction.
//!
//! ```text
//! repro-cli run   [--workload sort] [--pair cc] [--nodes 4] [--vms 4] [--data-mb 512]
//!                 [--telemetry off|counters|full] [--metrics-out FILE] [--trace-out FILE]
//!                 [--profile-out FILE] [--flight-out FILE]
//!                 [--mode plan|reactive] [--policy queue|phase] [--tick-ms 500]
//!                 [--busy-pair dd] [--idle-pair cc] [--map-pair ac] [--reduce-pair dd]
//! repro-cli sweep [--workload sort] [--nodes 4,8,...] [--vms 4] [--data-mb 512,...]
//!                 [--pairs cc,dd,...] [--parallel-copies 1,5,10,...]
//!                 [--json-out FILE] [--metrics-dir DIR]
//! repro-cli tune  [--workload sort] [--nodes 4] [--vms 4] [--data-mb 512] [--json true]
//! repro-cli switch-cost [--from cc] [--to ad] [--vms 4] [--mb 600]
//! repro-cli waves [--data-mb 128,192,256,320,384,448,512]
//! repro-cli serve-jobs [--nodes 4] [--vms 4] [--duration-s 300] [--rate 6]
//!                 [--seed 42] [--tenants sort:2,wordcount:1] [--data-mb 64]
//!                 [--policy adaptive|PAIR] [--margin 0.05] [--switch-cost-ms 500]
//!                 [--retune-s 5] [--max-concurrent 8] [--arrivals-file FILE]
//!                 [--metrics-out FILE] [--flight-out FILE]
//! ```
//!
//! Pairs use the paper's two-letter codes (`c`=CFQ, `d`=deadline,
//! `a`=anticipatory, `n`=noop; first letter = VMM/Dom0, second = VMs).
//!
//! `run --mode reactive` replaces the fixed switch plan with the online
//! switcher the paper sketches as future work: a policy consulted every
//! `--tick-ms` of simulated time that picks the pair from live cluster
//! state. Its switch decisions are recorded in the metrics document
//! (`online` section) and echoed on stdout.
//!
//! `sweep` shards its grid (every `--nodes` entry × every `--data-mb`
//! entry × all 16 pairs, or the `--pairs` subset) over worker threads
//! (`SIM_THREADS` overrides the fan-out); `--json-out` writes the
//! per-cell `adios.bench/1` document with events/sec and wall-clock
//! per cell, and `--metrics-dir` additionally writes each cell's full
//! manifest-stamped `adios.metrics/2` document into the directory —
//! the input format of `adios-report rank`/`correlate`/`overlap`.
//! `--parallel-copies` adds a shuffle fetch-concurrency axis to the
//! grid: each listed value re-runs every cell with that many parallel
//! reduce-side fetch streams (cell labels gain an `@pcN` suffix;
//! `0`/absent inherits the workload default) — the D4 overlap
//! experiment `adios-report overlap` aggregates.
//!
//! `serve-jobs` runs the multi-job cluster service: an open-loop
//! Poisson stream (or an `adios.jobs/1` arrival trace via
//! `--arrivals-file`) of weighted tenant jobs sharing one cluster's
//! map/reduce slots. `--policy adaptive` calibrates every tenant under
//! all 16 pairs (through the shared eval cache) and retunes the
//! installed pair from the live phase mix; any pair code pins a static
//! baseline. With `ADIOS_STRICT=1` the service trace is replayed
//! through the oracle (slot capacities, job lifecycle, byte
//! conservation) and violations fail the run — writing an
//! `adios.flight/1` post-mortem to `--flight-out` (or a temp path)
//! first, so the failure is replayable offline with `adios-report
//! replay`. `ADIOS_INJECT_VIOLATION=1` appends a bogus job-completion
//! record before the strict replay — the CI hook that proves the
//! whole dump/replay path end to end.
//!
//! `run --profile-out FILE` exports the span profiler's accumulated
//! tree as an `adios.profile/1` document after the run (`--telemetry`
//! sets the profiling level: `off` disables it, `counters` times
//! batch-granularity spans, `full` also times per-event hot spans).
//! `run --flight-out FILE` arms the crash flight recorder: on a panic
//! mid-run the ring of periodic state snapshots plus the retained
//! trace tails are written there (or to a temp path when the flag is
//! absent) before the panic resumes — a clean run writes nothing,
//! like any black box.
//!
//! Every output flag is validated *before* the simulation runs: a
//! path pointing into a missing directory fails immediately with a
//! clear error instead of losing the results after a long run. A flag
//! value that does not parse exits 2 with `--flag: "value": error`.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::metasched::{
    calibrate_tenants, measure_switch_cost, BlendedTuner, DdConfig, EvalCache, Experiment,
    MetaScheduler, PhaseReactivePolicy, QueueDepthPolicy,
};
use adaptive_disk_sched::mrsim::{ClusterShape, JobPhase, JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{
    run_job, run_service, run_sweep, stamp_manifest, ArrivalSpec, ClusterParams, ClusterSim,
    FixedPolicy, RunManifest, ServiceParams, ServicePolicy, SweepGrid, SwitchPlan, TenantMix,
};
use simcore::{Json, OracleConfig, SimDuration, Telemetry, TraceOracle};
use std::collections::HashMap;
use std::fmt::Display;
use std::process::exit;
use std::str::FromStr;

fn usage() -> ! {
    eprintln!(
        "usage: repro-cli <run|sweep|tune|switch-cost|waves|serve-jobs> [--key value]...\n\
         see the module docs (src/bin/repro-cli.rs) for the full flag list"
    );
    exit(2);
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut m = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        let Some(v) = it.next() else {
            eprintln!("flag --{key} needs a value");
            usage();
        };
        m.insert(key.to_string(), v.clone());
    }
    m
}

/// Parse the value `v` of `--key`; a bad value prints
/// `--key: "v": error` and exits 2 instead of panicking.
fn parse_value<T: FromStr>(key: &str, v: &str) -> T
where
    T::Err: Display,
{
    v.parse().unwrap_or_else(|e| {
        eprintln!("--{key}: {v:?}: {e}");
        exit(2);
    })
}

/// The parsed value of `--key`, if given.
fn flag<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<T>
where
    T::Err: Display,
{
    flags.get(key).map(|v| parse_value(key, v))
}

/// The parsed entries of a comma-separated `--key` list, if given.
fn flag_list<T: FromStr>(flags: &HashMap<String, String>, key: &str) -> Option<Vec<T>>
where
    T::Err: Display,
{
    flags
        .get(key)
        .map(|v| v.split(',').map(|x| parse_value(key, x.trim())).collect())
}

fn workload(flags: &HashMap<String, String>) -> WorkloadSpec {
    match flags.get("workload").map(String::as_str).unwrap_or("sort") {
        "sort" => WorkloadSpec::sort(),
        "wordcount" | "wc" => WorkloadSpec::wordcount(),
        "wordcount-nc" | "wc-nc" => WorkloadSpec::wordcount_no_combiner(),
        other => {
            eprintln!("unknown workload {other:?}");
            exit(2);
        }
    }
}

fn cluster(flags: &HashMap<String, String>) -> ClusterParams {
    let mut p = ClusterParams::default();
    if let Some(n) = flag(flags, "nodes") {
        p.shape.nodes = n;
    }
    if let Some(v) = flag(flags, "vms") {
        p.shape.vms_per_node = v;
    }
    if let Some(t) = flags.get("telemetry") {
        p.node.telemetry = Telemetry::parse(t).unwrap_or_else(|| {
            eprintln!("--telemetry must be off|counters|full, got {t:?}");
            exit(2);
        });
    }
    p
}

fn write_out(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("writing {path}: {e}");
        exit(1);
    }
}

/// Check that an output file's directory exists, so a mistyped
/// `--metrics-out`/`--trace-out`/`--json-out` fails *before* the
/// simulation instead of silently losing an hour of results after it.
fn validate_out_path(path: &str) -> Result<(), String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        return Err(format!("output path {path} is a directory, expected a file"));
    }
    match p.parent() {
        // Bare file name: lands in the current directory.
        None => Ok(()),
        Some(dir) if dir.as_os_str().is_empty() => Ok(()),
        Some(dir) if dir.is_dir() => Ok(()),
        Some(dir) => Err(format!(
            "output directory {} does not exist (for --flag value {path})",
            dir.display()
        )),
    }
}

/// Validate every output-path flag in `keys` up front; exit 1 with a
/// clear message naming the flag on the first failure.
fn validate_out_flags(flags: &HashMap<String, String>, keys: &[&str]) {
    for key in keys {
        if let Some(path) = flags.get(*key) {
            if let Err(e) = validate_out_path(path) {
                eprintln!("--{key}: {e}");
                exit(1);
            }
        }
    }
}

fn job(flags: &HashMap<String, String>) -> JobSpec {
    let mut j = JobSpec::new(workload(flags));
    if let Some(mb) = flag::<u64>(flags, "data-mb") {
        j.data_per_vm_bytes = mb * 1024 * 1024;
    }
    j
}

/// Exit 2 with a clear message when `job` cannot run on `shape` (too
/// few VMs for the replicas, no blocks, ...), instead of letting the
/// simulator's constructor panic on it.
fn check_job(shape: &ClusterShape, job: &JobSpec) {
    if let Err(e) = job.validate(shape) {
        eprintln!(
            "invalid job on {}x{} VMs, {} MB/VM: {e}",
            shape.nodes,
            shape.vms_per_node,
            job.data_per_vm_bytes >> 20
        );
        exit(2);
    }
}

fn pair(flags: &HashMap<String, String>, key: &str, default: &str) -> SchedPair {
    parse_value(key, flags.get(key).map(String::as_str).unwrap_or(default))
}

/// Every output-path flag `run` accepts — validated up front, so a
/// typo'd directory fails before the simulation, not after it.
const RUN_OUT_FLAGS: &[&str] = &["metrics-out", "trace-out", "profile-out", "flight-out"];

/// Where a fault dump lands when `--flight-out` wasn't given: a
/// pid-keyed file in the temp directory (printed on the fault path, so
/// it is never silently lost).
fn default_flight_path() -> String {
    std::env::temp_dir()
        .join(format!("adios-flight-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

fn cmd_run(flags: HashMap<String, String>) {
    validate_out_flags(&flags, RUN_OUT_FLAGS);
    let params = cluster(&flags);
    simcore::prof::set_level(params.node.telemetry);
    let j = job(&flags);
    check_job(&params.shape, &j);
    let p = pair(&flags, "pair", "cc");
    let mut params = params;
    if flags.contains_key("trace-out") && params.node.trace_capacity == 0 {
        // A timeline export needs retained records; keep the most
        // recent 64k events per ring unless the user sized it.
        params.node.trace_capacity = 1 << 16;
    }
    if flags.contains_key("flight-out") {
        // An armed flight recorder needs a trace tail worth replaying.
        // Only the CLI widens the rings: library defaults stay put so
        // the byte-pinned metrics goldens (`trace.dropped`) hold.
        params.node.trace_capacity = params.node.trace_capacity.max(4096);
    }
    let mut sim = ClusterSim::new(params.clone(), j.clone(), SwitchPlan::single(p));
    let mode = flags.get("mode").map(String::as_str).unwrap_or("plan");
    match mode {
        "plan" => {}
        "reactive" => {
            let tick_ms: u64 = flag(&flags, "tick-ms").unwrap_or(500);
            let period = SimDuration::from_millis(tick_ms);
            match flags.get("policy").map(String::as_str).unwrap_or("queue") {
                "queue" => {
                    // Deep Dom0 queues => the disk is the bottleneck,
                    // install the throughput pair; shallow => return to
                    // the baseline (the pair `--pair` asked for).
                    let busy = pair(&flags, "busy-pair", "dd");
                    let idle = flags
                        .get("idle-pair")
                        .map(|_| pair(&flags, "idle-pair", "cc"))
                        .unwrap_or(p);
                    sim.set_online_policy(
                        Box::new(QueueDepthPolicy::new(busy, idle, 8.0, 2.0)),
                        period,
                    );
                }
                "phase" => {
                    let map_pair = pair(&flags, "map-pair", "ac");
                    let reduce_pair = pair(&flags, "reduce-pair", "dd");
                    sim.set_online_policy(
                        Box::new(PhaseReactivePolicy {
                            map_pair,
                            reduce_pair,
                        }),
                        period,
                    );
                }
                other => {
                    eprintln!("--policy must be queue|phase, got {other:?}");
                    exit(2);
                }
            }
        }
        other => {
            eprintln!("--mode must be plan|reactive, got {other:?}");
            exit(2);
        }
    }
    // A panic mid-simulation dumps the flight recorder (ring of state
    // snapshots + trace tails) before resuming the unwind, so the
    // post-mortem survives even when the process dies.
    let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run())) {
        Ok(out) => out,
        Err(payload) => {
            let path = flags
                .get("flight-out")
                .cloned()
                .unwrap_or_else(default_flight_path);
            match std::fs::write(&path, sim.flight_dump("panic").to_string() + "\n") {
                Ok(()) => eprintln!("panic during run: flight recording written to {path}"),
                Err(e) => eprintln!("panic during run: cannot write flight recording {path}: {e}"),
            }
            std::panic::resume_unwind(payload);
        }
    };
    if let Some(path) = flags.get("metrics-out") {
        write_out(path, &out.metrics.to_string());
    }
    if let Some(path) = flags.get("trace-out") {
        write_out(path, &sim.chrome_trace().to_string());
    }
    if let Some(path) = flags.get("profile-out") {
        write_out(path, &(simcore::prof::take().to_json().to_string() + "\n"));
        println!("wrote {path}");
    }
    println!(
        "{} under {} on {}x{} VMs, {} MB/VM:",
        j.workload.name,
        p,
        params.shape.nodes,
        params.shape.vms_per_node,
        j.data_per_vm_bytes >> 20
    );
    println!("  makespan {:.1}s", out.makespan.as_secs_f64());
    for ph in JobPhase::ALL {
        println!(
            "  {ph}: {:.1}s",
            out.phases.duration(ph).as_secs_f64()
        );
    }
    println!(
        "  non-concurrent shuffle: {:.1}%  network: {} MB",
        out.phases.non_concurrent_shuffle_pct(),
        out.network_bytes >> 20
    );
    if mode == "reactive" {
        // The full decision log also lands in the metrics document's
        // `online` section (`--metrics-out`).
        if out.switch_log.is_empty() {
            println!("  online policy: no switches");
        }
        for (t, p) in &out.switch_log {
            println!("  online switch at {:.1}s -> {}", t.as_secs_f64(), p);
        }
    }
}

fn cmd_sweep(mut flags: HashMap<String, String>) {
    validate_out_flags(&flags, &["json-out"]);
    let metrics_dir = flags.get("metrics-dir").cloned();
    if let Some(dir) = &metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("--metrics-dir: cannot create {dir}: {e}");
            exit(1);
        }
    }
    // `--nodes` and `--data-mb` are comma lists here (unlike `run`), so
    // they are parsed as lists and kept away from `cluster()`/`job()`,
    // which read one number.
    let nodes: Vec<u32> =
        flag_list(&flags, "nodes").unwrap_or_else(|| vec![ClusterParams::default().shape.nodes]);
    flags.remove("nodes");
    let base = cluster(&flags);
    let mut j = JobSpec::new(workload(&flags));
    let data_mb: Vec<u64> =
        flag_list(&flags, "data-mb").unwrap_or_else(|| vec![j.data_per_vm_bytes >> 20]);
    // The grid overrides the size per cell; seed the base job with the
    // first entry so single-size sweeps match a lone `run` exactly.
    j.data_per_vm_bytes = data_mb[0] * 1024 * 1024;
    // Default grid: all 16 elevator pairs; `--pairs cc,dd` restricts
    // it (CI's mini-sweeps, quick A/B comparisons).
    let pairs: Vec<SchedPair> = flag_list(&flags, "pairs").unwrap_or_else(SchedPair::all);
    // Optional shuffle fetch-concurrency axis (D4); empty = one run
    // per cell with the workload's own `parallel_copies`.
    let parallel_copies: Vec<u32> = flag_list(&flags, "parallel-copies").unwrap_or_default();
    let grid = SweepGrid {
        shapes: nodes
            .iter()
            .map(|&n| {
                let mut s = base.shape;
                s.nodes = n;
                s
            })
            .collect(),
        data_mb_per_vm: data_mb,
        plans: pairs
            .into_iter()
            .map(|p| (p.code(), SwitchPlan::single(p)))
            .collect(),
        parallel_copies,
    };
    for shape in &grid.shapes {
        for &mb in &grid.data_mb_per_vm {
            let mut cell_job = j.clone();
            cell_job.data_per_vm_bytes = mb * 1024 * 1024;
            check_job(shape, &cell_job);
        }
    }
    let report = run_sweep(&base, &j, &grid);
    if let Some(dir) = &metrics_dir {
        // One manifest-stamped adios.metrics/2 document per cell —
        // the run set `adios-report rank`/`correlate`/`overlap` reads.
        for r in &report.results {
            let m = RunManifest::new(&r.cell, &base, &j);
            let doc = stamp_manifest(&r.metrics, &m);
            write_out(&format!("{dir}/{}.json", m.key()), &(doc.to_string() + "\n"));
        }
        println!("wrote {} metrics documents to {dir}/", report.results.len());
    }
    println!(
        "{:>6} {:>4} {:>8} {:>6} {:>10} {:>9} {:>12}",
        "nodes", "vms", "data/VM", "plan", "makespan", "wall", "events/s"
    );
    for r in &report.results {
        println!(
            "{:>6} {:>4} {:>6}MB {:>6} {:>9.1}s {:>8.2}s {:>12.0}",
            r.cell.shape.nodes,
            r.cell.shape.vms_per_node,
            r.cell.data_mb_per_vm,
            r.cell.plan_label,
            r.makespan.as_secs_f64(),
            r.wall_s,
            r.events_per_sec()
        );
    }
    // Best plan per (shape, data) group — the comparison each of the
    // paper's Fig. 7 panels makes.
    for chunk in report.results.chunks(grid.plans.len()) {
        let best = chunk
            .iter()
            .min_by(|a, b| a.makespan.cmp(&b.makespan).then(a.cell.plan_label.cmp(&b.cell.plan_label)))
            .expect("non-empty plan group");
        let default = chunk
            .iter()
            .find(|r| r.cell.plan_label == SchedPair::DEFAULT.code());
        println!(
            "{}x{} VMs, {} MB/VM: best {} ({:.1}s){}",
            best.cell.shape.nodes,
            best.cell.shape.vms_per_node,
            best.cell.data_mb_per_vm,
            best.cell.plan_label,
            best.makespan.as_secs_f64(),
            default
                .map(|d| format!("; default cc {:.1}s", d.makespan.as_secs_f64()))
                .unwrap_or_default()
        );
    }
    let merged = report.merged();
    println!(
        "{} cells, {} events in {:.1}s wall ({:.0} events/s aggregate)",
        merged.cells,
        merged.events,
        report.total_wall_s,
        report.events_per_sec()
    );
    if let Some(path) = flags.get("json-out") {
        write_out(path, &(report.to_json().to_string() + "\n"));
        println!("wrote {path}");
    }
}

fn cmd_tune(flags: HashMap<String, String>) {
    let exp = Experiment::new(cluster(&flags), job(&flags));
    check_job(&exp.params.shape, &exp.job);
    let report = MetaScheduler::new(exp).tune();
    if flags.contains_key("json") {
        // Machine-readable one-liner for scripting (simcore::Json —
        // the in-tree writer used for all experiment dumps).
        let plan: Vec<String> = report.final_assignment().iter().map(|p| p.code()).collect();
        let line = Json::obj()
            .field("default_s", rounded(report.default_time.as_secs_f64(), 3))
            .field("best_single_s", rounded(report.best_single.total.as_secs_f64(), 3))
            .field("best_single_pair", report.best_single.pair.code())
            .field("adaptive_s", rounded(report.final_time().as_secs_f64(), 3))
            .field("plan", plan.join("+"))
            .field("gain_vs_default_pct", rounded(report.gain_vs_default_pct(), 2))
            .field("gain_vs_best_single_pct", rounded(report.gain_vs_best_single_pct(), 2))
            .field("evaluations", report.heuristic.runs() as u64);
        println!("{}", line.to_string());
        return;
    }
    println!("default (CFQ, CFQ): {:.1}s", report.default_time.as_secs_f64());
    println!(
        "best single {}: {:.1}s",
        report.best_single.pair,
        report.best_single.total.as_secs_f64()
    );
    println!(
        "adaptive {:?}: {:.1}s ({:+.1}% vs default, {:+.1}% vs best single, {} evaluations)",
        report
            .final_assignment()
            .iter()
            .map(|p| p.code())
            .collect::<Vec<_>>(),
        report.final_time().as_secs_f64(),
        report.gain_vs_default_pct(),
        report.gain_vs_best_single_pct(),
        report.heuristic.runs(),
    );
}

/// Round to `digits` decimal places for stable JSON output.
fn rounded(x: f64, digits: u32) -> f64 {
    let scale = 10f64.powi(digits as i32);
    (x * scale).round() / scale
}

fn cmd_switch_cost(flags: HashMap<String, String>) {
    let mut cfg = DdConfig::default();
    if let Some(v) = flag(&flags, "vms") {
        cfg.vms = v;
    }
    if let Some(mb) = flag::<u64>(&flags, "mb") {
        cfg.bytes_per_vm = mb * 1_000_000;
    }
    let from = pair(&flags, "from", "cc");
    let to = pair(&flags, "to", "ad");
    let c = measure_switch_cost(&cfg, from, to);
    println!(
        "switch {} -> {} under {} VMs x {} MB dd: cost {:.2}s (combined run {:.1}s)",
        from,
        to,
        cfg.vms,
        cfg.bytes_per_vm / 1_000_000,
        c.cost.as_secs_f64(),
        c.combined.as_secs_f64()
    );
}

fn cmd_waves(flags: HashMap<String, String>) {
    let params = cluster(&flags);
    let list: Vec<u64> = flag_list(&flags, "data-mb")
        .unwrap_or_else(|| vec![128, 192, 256, 320, 384, 448, 512]);
    println!("{:>8} {:>7} {:>24} {:>10}", "data/VM", "waves", "non-concurrent shuffle", "time");
    for mb in list {
        let mut j = JobSpec::new(WorkloadSpec::sort());
        j.data_per_vm_bytes = mb * 1024 * 1024;
        check_job(&params.shape, &j);
        let waves = j.waves(&params.shape);
        let out = run_job(&params, &j, SwitchPlan::single(SchedPair::DEFAULT));
        println!(
            "{:>6}MB {:>7.2} {:>23.1}% {:>9.1}s",
            mb,
            waves,
            out.phases.non_concurrent_shuffle_pct(),
            out.makespan.as_secs_f64()
        );
    }
}

fn cmd_serve_jobs(flags: HashMap<String, String>) {
    validate_out_flags(&flags, &["metrics-out", "flight-out"]);
    let params = cluster(&flags);
    simcore::prof::set_level(params.node.telemetry);
    let data_mb: u64 = flag(&flags, "data-mb").unwrap_or(64);
    let mix_str = flags
        .get("tenants")
        .map(String::as_str)
        .unwrap_or("sort:2,wordcount:1,wordcount-nc:1");
    let mix = TenantMix::parse(mix_str, data_mb * 1024 * 1024).unwrap_or_else(|e| {
        eprintln!("--tenants: {e}");
        exit(2);
    });
    let mut sp = ServiceParams {
        shape: params.shape,
        ..ServiceParams::default()
    };
    if let Some(v) = flag(&flags, "duration-s") {
        sp.duration = SimDuration::from_secs(v);
    }
    if let Some(v) = flag(&flags, "seed") {
        sp.seed = v;
    }
    if let Some(v) = flag(&flags, "retune-s") {
        sp.retune_period = SimDuration::from_secs(v);
    }
    if let Some(v) = flag(&flags, "switch-cost-ms") {
        sp.switch_cost = SimDuration::from_millis(v);
    }
    if let Some(v) = flag(&flags, "max-concurrent") {
        sp.max_concurrent = v;
    }
    let rate: f64 = flag(&flags, "rate").unwrap_or(6.0);
    let arrivals = match flags.get("arrivals-file") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("--arrivals-file: reading {path}: {e}");
                exit(1);
            });
            let doc = Json::parse(&text).unwrap_or_else(|e| {
                eprintln!("--arrivals-file: parsing {path}: {e}");
                exit(1);
            });
            ArrivalSpec::parse_trace(&doc, &mix).unwrap_or_else(|e| {
                eprintln!("--arrivals-file: {e}");
                exit(1);
            })
        }
        None => ArrivalSpec::Poisson { rate_per_min: rate },
    };
    // Calibrate every tenant under all 16 pairs with real single-job
    // runs (the adaptive policy needs the full table; static baselines
    // still use it for task service times).
    let cache = EvalCache::new();
    let profiles = calibrate_tenants(&params, &mix, &cache);
    let margin: f64 = flag(&flags, "margin").unwrap_or(0.05);
    let mut policy: Box<dyn ServicePolicy> =
        match flags.get("policy").map(String::as_str).unwrap_or("adaptive") {
            "adaptive" => Box::new(BlendedTuner::new(profiles.clone(), margin)),
            code => Box::new(FixedPolicy(code.parse().unwrap_or_else(|e| {
                eprintln!("--policy must be `adaptive` or a pair code: {e}");
                exit(2);
            }))),
        };
    let out = run_service(&sp, &mix, &profiles, &arrivals, policy.as_mut());
    println!(
        "serve-jobs: {} tenants ({mix_str}), {} arrivals over {:.0}s on {}x{} VMs, policy {}",
        mix.tenants.len(),
        out.arrivals,
        sp.duration.as_secs_f64(),
        sp.shape.nodes,
        sp.shape.vms_per_node,
        policy.name(),
    );
    println!(
        "  completed {} / makespan {:.1}s / throughput {:.2} jobs/min",
        out.completed,
        out.makespan.as_secs_f64(),
        out.throughput_jpm
    );
    println!(
        "  latency p50 {:.1}s p99 {:.1}s mean {:.1}s",
        out.p50_latency_s, out.p99_latency_s, out.mean_latency_s
    );
    println!(
        "  slot util map {:.1}% reduce {:.1}% / {} retunes, {} switches",
        out.map_slot_util * 100.0,
        out.reduce_slot_util * 100.0,
        out.retunes,
        out.switches
    );
    if std::env::var("ADIOS_STRICT").map(|v| v == "1").unwrap_or(false) {
        let mut records: Vec<simcore::trace::TraceRecord> =
            out.trace.records().copied().collect();
        // The CI end-to-end hook: a deliberately impossible record
        // (completion of a job that never arrived) proves the whole
        // violation -> flight dump -> offline replay path.
        if std::env::var("ADIOS_INJECT_VIOLATION").map(|v| v == "1").unwrap_or(false) {
            records.push(simcore::trace::TraceRecord {
                t: simcore::SimTime::ZERO + sp.duration,
                ev: simcore::trace::TraceEvent::JobComplete { job: 999_999 },
            });
        }
        let mut oracle = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(sp.shape.map_slots_per_vm),
            reduce_slots_per_vm: Some(sp.shape.reduce_slots_per_vm),
            ..OracleConfig::default()
        });
        oracle.replay_records(&records);
        let violations = oracle.violations();
        if violations.is_empty() {
            println!("  oracle: clean ({} records)", out.trace.total());
        } else {
            for v in violations {
                eprintln!("  oracle violation: {v}");
            }
            // Dump the replayed trace as an adios.flight/1 post-mortem
            // before failing, so the violation is reproducible offline
            // with `adios-report replay`.
            let dump = Json::obj()
                .field("schema", "adios.flight/1")
                .field("reason", "oracle violation")
                .field("nodes", sp.shape.nodes as u64)
                .field("vms", sp.shape.total_vms() as u64)
                .field("events", out.trace.total())
                .field("t_s", out.makespan.as_secs_f64())
                .field("snapshots", Json::Arr(Vec::new()))
                .field(
                    "cluster_trace",
                    Json::obj()
                        .field("total", out.trace.total())
                        .field("dropped", out.trace.dropped())
                        .field(
                            "records",
                            Json::Arr(records.iter().map(|r| r.to_json()).collect()),
                        ),
                );
            let path = flags
                .get("flight-out")
                .cloned()
                .unwrap_or_else(default_flight_path);
            match std::fs::write(&path, dump.to_string() + "\n") {
                Ok(()) => eprintln!("  flight recording written to {path}"),
                Err(e) => eprintln!("  cannot write flight recording {path}: {e}"),
            }
            exit(1);
        }
    }
    if let Some(path) = flags.get("metrics-out") {
        write_out(path, &(out.metrics.to_string() + "\n"));
        println!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let flags = parse_flags(&args[1..]);
    match cmd.as_str() {
        "run" => cmd_run(flags),
        "sweep" => cmd_sweep(flags),
        "tune" => cmd_tune(flags),
        "switch-cost" => cmd_switch_cost(flags),
        "waves" => cmd_waves(flags),
        "serve-jobs" => cmd_serve_jobs(flags),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::{validate_out_path, RUN_OUT_FLAGS};

    #[test]
    fn run_validates_every_output_flag_up_front() {
        // The new observability exports ride the same up-front
        // validation as the original two; forgetting one here means a
        // long run can end with a "No such file or directory".
        for flag in ["metrics-out", "trace-out", "profile-out", "flight-out"] {
            assert!(RUN_OUT_FLAGS.contains(&flag), "missing {flag}");
        }
    }

    #[test]
    fn out_path_check_applies_to_profile_and_flight_targets() {
        let missing = std::env::temp_dir().join("adios-no-such-dir-prof");
        for name in ["p.profile.json", "f.flight.json"] {
            let path = missing.join(name);
            assert!(validate_out_path(path.to_str().unwrap()).is_err());
        }
        assert_eq!(validate_out_path("profile.json"), Ok(()));
    }

    #[test]
    fn out_path_accepts_bare_names_and_existing_dirs() {
        assert_eq!(validate_out_path("metrics.json"), Ok(()));
        assert_eq!(validate_out_path("./metrics.json"), Ok(()));
        let dir = std::env::temp_dir();
        let inside = dir.join("adios-out-path-test.json");
        assert_eq!(validate_out_path(inside.to_str().unwrap()), Ok(()));
    }

    #[test]
    fn out_path_rejects_missing_directory_with_clear_error() {
        let missing = std::env::temp_dir().join("adios-no-such-dir-xyzzy");
        let path = missing.join("metrics.json");
        let err = validate_out_path(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        assert!(
            err.contains("adios-no-such-dir-xyzzy"),
            "error must name the missing directory: {err}"
        );
    }

    #[test]
    fn out_path_rejects_directory_targets() {
        let dir = std::env::temp_dir();
        let err = validate_out_path(dir.to_str().unwrap()).unwrap_err();
        assert!(err.contains("is a directory"), "{err}");
    }
}
