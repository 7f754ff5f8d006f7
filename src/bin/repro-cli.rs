//! Command-line driver for the reproduction.
//!
//! `repro-cli` with no arguments prints every subcommand with the
//! flags it accepts; the `COMMANDS` table below is the one source of
//! that usage text and of flag validation. Every flag takes a value
//! (`--key value`).
//!
//! Pairs use the paper's two-letter codes (`c`=CFQ, `d`=deadline,
//! `a`=anticipatory, `n`=noop; first letter = VMM/Dom0, second = VMs).
//!
//! `run --policy queue|phase` replaces the fixed switch plan with the
//! online switcher the paper sketches as future work: a policy
//! consulted every `--tick-ms` (default 500) of simulated time that
//! picks the pair from live cluster state — Dom0 queue depth (`queue`:
//! `--busy-pair`, `--idle-pair`) or map completion (`phase`:
//! `--map-pair`, `--reduce-pair`). Its switch decisions are recorded in
//! the metrics document (`online` section) and echoed on stdout.
//!
//! `tune` runs the meta-scheduler (pair profiling, then Algorithm 1)
//! and prints a summary; `--json true` prints the whole `adios.tune/2`
//! decision-audit document instead (every evaluation in search order
//! and each phase's decision with its candidate table).
//!
//! `sweep` shards its grid (every `--nodes` entry × every `--data-mb`
//! entry × all 16 pairs, or the `--pairs` subset) over worker threads
//! (`SIM_THREADS` overrides the fan-out), prints one line per cell,
//! the best plan per group, then the cross-run tables over the cells'
//! metrics documents: per-phase rankings with their crossovers (D6),
//! gain vs Dom0 queue depth (D3) and the shuffle overlap per
//! `parallel_copies` setting (D4). `--json-out` writes the per-cell
//! `adios.bench/1` document with events/sec and wall-clock per cell.
//! `--parallel-copies` adds a shuffle fetch-concurrency axis to the
//! grid: each listed value re-runs every cell with that many parallel
//! reduce-side fetch streams (cell labels gain an `@pcN` suffix;
//! `0`/absent inherits the workload default).
//!
//! `serve-jobs` runs the multi-job cluster service: an open-loop
//! Poisson stream (or an `adios.jobs/1` arrival trace via
//! `--arrivals-file`) of weighted tenant jobs sharing one cluster's
//! map/reduce slots. `--policy adaptive` calibrates every tenant under
//! all 16 pairs (through the shared eval cache) and retunes the
//! installed pair from the live phase mix; any pair code pins a static
//! baseline. With `ADIOS_STRICT` set (any non-empty value but `0`, as
//! `simcore::events::strict_checks` reads it) the service trace is
//! replayed through the oracle (slot capacities, job lifecycle, byte
//! conservation); each violation is printed and the run exits 1.
//!
//! `run --profile-out FILE` exports the span profiler's accumulated
//! tree as an `adios.profile/1` document after the run (`--telemetry`
//! sets the profiling level: `off` disables it, `counters` times
//! batch-granularity spans, `full` also times per-event hot spans).
//!
//! Every output flag is validated *before* the simulation runs: a
//! path pointing into a missing directory fails immediately with a
//! clear error instead of losing the results after a long run. A flag
//! the subcommand does not read exits 2 with `unknown flag --key`, as
//! does a `run` policy flag given without the policy that reads it; a
//! flag value that does not parse exits 2 with `--flag: "value": error`.
//!
//! Every output file is written before anything is printed, so a
//! reader that closes stdout early (`repro-cli sweep … | head -n 1`)
//! cannot lose it. The closed pipe ends the output quietly, and the
//! command finishes with the exit code it would have returned; any
//! other stdout write error exits 1 and names the error.

use adaptive_disk_sched::iosched::SchedPair;
use adaptive_disk_sched::metasched::{
    calibrate_tenants, BlendedTuner, EvalCache, Experiment, MetaScheduler, PhaseReactivePolicy,
    QueueDepthPolicy,
};
use adaptive_disk_sched::mrsim::{ClusterShape, JobPhase, JobSpec, WorkloadSpec};
use adaptive_disk_sched::vcluster::{
    run_service, run_sweep, ArrivalSpec, ClusterParams, ClusterSim, FixedPolicy, OnlinePolicy,
    ServiceParams, ServicePolicy, SweepGrid, SwitchPlan, TenantMix,
};
use simcore::{Json, OracleConfig, SimDuration, Telemetry, TraceOracle};
use std::collections::HashMap;
use std::fmt::Display;
use std::io::Write as _;
use std::ops::RangeInclusive;
use std::process::exit;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout's reader has gone away.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write to stdout. A closed pipe ends the output quietly: this write
/// and every later one are dropped, and the command runs on to its own
/// exit code. Any other write error exits 1 and names it.
fn emit(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            eprintln!("repro-cli: writing to stdout: {e}");
            exit(1);
        }
    }
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A subcommand: its name, its handler and the flags it reads.
type Command = (&'static str, fn(Flags), &'static [&'static str]);

/// Every subcommand (`cluster()` reads nodes/vms/telemetry, `job()`
/// workload/data-mb).
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("run", cmd_run, &[
        "workload", "pair", "nodes", "vms", "data-mb", "telemetry", "metrics-out", "trace-out",
        "profile-out", "policy", "tick-ms", "busy-pair", "idle-pair", "map-pair", "reduce-pair",
    ]),
    ("sweep", cmd_sweep, &[
        "workload", "nodes", "vms", "data-mb", "telemetry", "pairs", "parallel-copies",
        "json-out",
    ]),
    ("tune", cmd_tune, &["workload", "nodes", "vms", "data-mb", "telemetry", "json"]),
    ("serve-jobs", cmd_serve_jobs, &[
        "nodes", "vms", "telemetry", "duration-s", "rate", "seed", "tenants", "data-mb",
        "policy", "margin", "switch-cost-ms", "retune-s", "max-concurrent", "arrivals-file",
        "metrics-out",
    ]),
];

/// Print every subcommand with the flags it accepts, then exit 2.
fn usage() -> ! {
    eprintln!("usage: repro-cli <subcommand> [--key value]...");
    for (name, _, accepted) in COMMANDS {
        let flags: Vec<String> = accepted.iter().map(|key| format!("--{key}")).collect();
        eprintln!("  {name:<10} {}", flags.join(" "));
    }
    exit(2);
}

/// A subcommand's parsed `--key value` pairs.
type Flags = HashMap<String, String>;

/// Parse `--key value` pairs, accepting only the keys in `accepted`.
fn parse_flags(args: &[String], accepted: &[&str]) -> Flags {
    let mut m = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        if !accepted.contains(&key) {
            eprintln!("unknown flag --{key}");
            exit(2);
        }
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
fn flag<T: FromStr>(flags: &Flags, key: &str) -> Option<T>
where
    T::Err: Display,
{
    flags.get(key).map(|v| parse_value(key, v))
}

/// The parsed value of `--key`, if given, which must also pass `ok`: a
/// value that parses but cannot run prints `--key: "v": must be what`
/// and exits 2 before any calibration or simulation starts.
fn flag_where<T: FromStr>(
    flags: &Flags,
    key: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Option<T>
where
    T::Err: Display,
{
    let v = flag(flags, key)?;
    if !ok(&v) {
        eprintln!("--{key}: {:?}: must be {what}", flags[key]);
        exit(2);
    }
    Some(v)
}

/// The value of time flag `--key`, counted in `unit_ns` nanoseconds, if
/// given. It must lie in `range` and fit the simulated clock's `u64`
/// nanoseconds.
fn duration_flag(
    flags: &Flags,
    key: &str,
    unit_ns: u64,
    range: RangeInclusive<u64>,
) -> Option<SimDuration> {
    let range = *range.start()..=(*range.end()).min(u64::MAX / unit_ns);
    let what = format!("in {}..={}", range.start(), range.end());
    let v: u64 = flag_where(flags, key, &what, |v| range.contains(v))?;
    Some(SimDuration::from_nanos(v * unit_ns))
}

/// Longest switch stall `serve-jobs --switch-cost-ms` accepts: one
/// hour, 25 times the paper's worst measured switch (142 s, Fig. 5).
/// Each switch adds the stall to the service clock.
const MAX_SWITCH_COST_MS: u64 = 3_600_000;

/// Longest stream (`--duration-s`) and retune period (`--retune-s`)
/// `serve-jobs` accepts: one simulated year, 26 times the 14-day
/// `tenant_stream_2pm` stream. The service clock runs to the drain of
/// the last arrival, one retune period past it and one switch stall
/// after that tick; with these ceilings that stays centuries inside
/// the 584 years the `u64` nanosecond clock holds.
const MAX_SERVICE_HORIZON_S: u64 = 365 * 86_400;

/// The parsed entries of a comma-separated `--key` list, if given.
fn flag_list<T: FromStr>(flags: &Flags, key: &str) -> Option<Vec<T>>
where
    T::Err: Display,
{
    flags
        .get(key)
        .map(|v| v.split(',').map(|x| parse_value(key, x.trim())).collect())
}

fn workload(flags: &Flags) -> WorkloadSpec {
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

fn cluster(flags: &Flags) -> ClusterParams {
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
fn validate_out_flags(flags: &Flags, keys: &[&str]) {
    for key in keys {
        if let Some(path) = flags.get(*key) {
            if let Err(e) = validate_out_path(path) {
                eprintln!("--{key}: {e}");
                exit(1);
            }
        }
    }
}

fn job(flags: &Flags) -> JobSpec {
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

fn pair(flags: &Flags, key: &str, default: &str) -> SchedPair {
    parse_value(key, flags.get(key).map(String::as_str).unwrap_or(default))
}

/// Every output-path flag `run` accepts — validated up front, so a
/// typo'd directory fails before the simulation, not after it.
const RUN_OUT_FLAGS: &[&str] = &["metrics-out", "trace-out", "profile-out"];

/// The `run` flags only an online policy reads, with the policies that
/// read each one.
const POLICY_FLAGS: &[(&str, &[&str])] = &[
    ("tick-ms", &["queue", "phase"]),
    ("busy-pair", &["queue"]),
    ("idle-pair", &["queue"]),
    ("map-pair", &["phase"]),
    ("reduce-pair", &["phase"]),
];

/// The online switcher `--policy` asks for and its consultation
/// period, or `None` for a fixed-plan run. A policy flag given without
/// a policy that reads it exits 2, as an unknown flag does.
fn online_policy(flags: &Flags, base: SchedPair) -> Option<(Box<dyn OnlinePolicy>, SimDuration)> {
    let name = flags.get("policy").map(String::as_str);
    for (key, readers) in POLICY_FLAGS {
        if flags.contains_key(*key) && !name.is_some_and(|n| readers.contains(&n)) {
            eprintln!("--{key} needs --policy {}", readers.join("|"));
            exit(2);
        }
    }
    let policy: Box<dyn OnlinePolicy> = match name? {
        // Deep Dom0 queues => the disk is the bottleneck, install the
        // throughput pair; shallow => return to the baseline (the pair
        // `--pair` asked for).
        "queue" => Box::new(QueueDepthPolicy::new(
            pair(flags, "busy-pair", "dd"),
            flag(flags, "idle-pair").unwrap_or(base),
            8.0,
            2.0,
        )),
        "phase" => Box::new(PhaseReactivePolicy {
            map_pair: pair(flags, "map-pair", "ac"),
            reduce_pair: pair(flags, "reduce-pair", "dd"),
        }),
        other => {
            eprintln!("--policy must be queue|phase, got {other:?}");
            exit(2);
        }
    };
    let tick = duration_flag(flags, "tick-ms", 1_000_000, 1..=u64::MAX);
    Some((policy, tick.unwrap_or(SimDuration::from_millis(500))))
}

fn cmd_run(flags: Flags) {
    validate_out_flags(&flags, RUN_OUT_FLAGS);
    let mut params = cluster(&flags);
    simcore::prof::set_level(params.node.telemetry);
    let j = job(&flags);
    check_job(&params.shape, &j);
    let p = pair(&flags, "pair", "cc");
    let online = online_policy(&flags, p);
    let reactive = online.is_some();
    if flags.contains_key("trace-out") && params.node.trace_capacity == 0 {
        // A timeline export needs retained records; keep the most
        // recent 64k events per ring unless the user sized it.
        params.node.trace_capacity = 1 << 16;
    }
    let mut sim = ClusterSim::new(params.clone(), j.clone(), SwitchPlan::single(p));
    if let Some((policy, period)) = online {
        sim.set_online_policy(policy, period);
    }
    let out = sim.run();
    if let Some(path) = flags.get("metrics-out") {
        write_out(path, &out.metrics.to_string());
    }
    if let Some(path) = flags.get("trace-out") {
        write_out(path, &sim.chrome_trace().to_string());
    }
    if let Some(path) = flags.get("profile-out") {
        write_out(path, &(simcore::prof::take().to_json().to_string() + "\n"));
        outln!("wrote {path}");
    }
    outln!(
        "{} under {} on {}x{} VMs, {} MB/VM:",
        j.workload.name,
        p,
        params.shape.nodes,
        params.shape.vms_per_node,
        j.data_per_vm_bytes >> 20
    );
    outln!("  makespan {:.1}s", out.makespan.as_secs_f64());
    for ph in JobPhase::ALL {
        outln!(
            "  {ph}: {:.1}s",
            out.phases.duration(ph).as_secs_f64()
        );
    }
    outln!(
        "  non-concurrent shuffle: {:.1}%  network: {} MB",
        out.phases.non_concurrent_shuffle_pct(),
        out.network_bytes >> 20
    );
    if reactive {
        // The full decision log also lands in the metrics document's
        // `online` section (`--metrics-out`).
        if out.switch_log.is_empty() {
            outln!("  online policy: no switches");
        }
        for (t, p) in &out.switch_log {
            outln!("  online switch at {:.1}s -> {}", t.as_secs_f64(), p);
        }
    }
}

fn cmd_sweep(mut flags: Flags) {
    validate_out_flags(&flags, &["json-out"]);
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
    let json_out = flags.get("json-out");
    if let Some(path) = json_out {
        write_out(path, &(report.to_json().to_string() + "\n"));
    }
    outln!(
        "{:>6} {:>4} {:>8} {:>6} {:>10} {:>9} {:>12}",
        "nodes", "vms", "data/VM", "plan", "makespan", "wall", "events/s"
    );
    for r in &report.results {
        outln!(
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
            .find(|r| r.cell.plan == SwitchPlan::single(SchedPair::DEFAULT));
        outln!(
            "{}x{} VMs, {} MB/VM: best {} ({:.1}s){}",
            best.cell.shape.nodes,
            best.cell.shape.vms_per_node,
            best.cell.data_mb_per_vm,
            best.cell.plan_label,
            best.makespan.as_secs_f64(),
            default
                .map(|d| {
                    format!(
                        "; default {} {:.1}s",
                        d.cell.plan_label,
                        d.makespan.as_secs_f64()
                    )
                })
                .unwrap_or_default()
        );
    }
    outln!(
        "{} cells, {} events in {:.1}s wall ({:.0} events/s aggregate)",
        report.results.len(),
        report.total_events(),
        report.total_wall_s,
        report.events_per_sec()
    );
    emit(format_args!(
        "\n{}\n{}\n{}",
        report.rank(),
        report.correlate(),
        report.overlap().text
    ));
    if let Some(path) = json_out {
        outln!("wrote {path}");
    }
}

fn cmd_tune(flags: Flags) {
    let json: bool = flag(&flags, "json").unwrap_or(false);
    let exp = Experiment::new(cluster(&flags), job(&flags));
    check_job(&exp.params.shape, &exp.job);
    let report = MetaScheduler::new(exp).tune();
    if json {
        outln!("{}", report.to_json().to_string());
        return;
    }
    outln!("default (CFQ, CFQ): {:.1}s", report.default_time.as_secs_f64());
    outln!(
        "best single {}: {:.1}s",
        report.best_single.pair,
        report.best_single.total.as_secs_f64()
    );
    outln!(
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

fn cmd_serve_jobs(flags: Flags) {
    validate_out_flags(&flags, &["metrics-out"]);
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
    if let Some(d) = duration_flag(&flags, "duration-s", 1_000_000_000, 0..=MAX_SERVICE_HORIZON_S) {
        sp.duration = d;
    }
    if let Some(v) = flag(&flags, "seed") {
        sp.seed = v;
    }
    if let Some(d) = duration_flag(&flags, "retune-s", 1_000_000_000, 1..=MAX_SERVICE_HORIZON_S) {
        sp.retune_period = d;
    }
    if let Some(d) = duration_flag(&flags, "switch-cost-ms", 1_000_000, 0..=MAX_SWITCH_COST_MS) {
        sp.switch_cost = d;
    }
    if let Some(v) = flag_where(&flags, "max-concurrent", "at least 1", |&n: &u32| n >= 1) {
        sp.max_concurrent = v;
    }
    let rate = flag_where(&flags, "rate", "positive and finite", |r: &f64| {
        r.is_finite() && *r > 0.0
    })
    .unwrap_or(6.0);
    let margin = flag_where(&flags, "margin", "in [0, 1)", |m: &f64| (0.0..1.0).contains(m))
        .unwrap_or(0.05);
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
    // `None` is the adaptive policy; any pair code pins that pair.
    let pinned: Option<SchedPair> = match flags
        .get("policy")
        .map(String::as_str)
        .unwrap_or("adaptive")
    {
        "adaptive" => None,
        code => Some(code.parse().unwrap_or_else(|e| {
            eprintln!("--policy must be `adaptive` or a pair code: {e}");
            exit(2);
        })),
    };
    // Calibrate every tenant under all 16 pairs with real single-job
    // runs (the adaptive policy needs the full table; static baselines
    // still use it for task service times).
    let cache = EvalCache::new();
    let profiles = calibrate_tenants(&params, &mix, &cache);
    let mut policy: Box<dyn ServicePolicy> = match pinned {
        None => Box::new(BlendedTuner::new(profiles.clone(), margin)),
        Some(pair) => Box::new(FixedPolicy(pair)),
    };
    let out = run_service(&sp, &mix, &profiles, &arrivals, policy.as_mut());
    let metrics_out = flags.get("metrics-out");
    if let Some(path) = metrics_out {
        write_out(path, &(out.metrics.to_string() + "\n"));
    }
    outln!(
        "serve-jobs: {} tenants ({mix_str}), {} arrivals over {:.0}s on {}x{} VMs, policy {}",
        mix.tenants.len(),
        out.arrivals,
        sp.duration.as_secs_f64(),
        sp.shape.nodes,
        sp.shape.vms_per_node,
        policy.name(),
    );
    outln!(
        "  completed {} / makespan {:.1}s / throughput {:.2} jobs/min",
        out.completed,
        out.makespan.as_secs_f64(),
        out.throughput_jpm
    );
    outln!(
        "  latency p50 {:.1}s p99 {:.1}s mean {:.1}s",
        out.p50_latency_s, out.p99_latency_s, out.mean_latency_s
    );
    outln!(
        "  slot util map {:.1}% reduce {:.1}% / {} retunes, {} switches",
        out.map_slot_util * 100.0,
        out.reduce_slot_util * 100.0,
        out.retunes,
        out.switches
    );
    if simcore::events::strict_checks() {
        let mut oracle = TraceOracle::new(OracleConfig {
            map_slots_per_vm: Some(sp.shape.map_slots_per_vm),
            reduce_slots_per_vm: Some(sp.shape.reduce_slots_per_vm),
            ..OracleConfig::default()
        });
        oracle.replay(&out.trace);
        let violations = oracle.violations();
        if violations.is_empty() {
            outln!("  oracle: clean ({} records)", out.trace.total());
        } else {
            for v in violations {
                eprintln!("  oracle violation: {v}");
            }
            exit(1);
        }
    }
    if let Some(path) = metrics_out {
        outln!("wrote {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let Some((_, run, accepted)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprintln!("unknown subcommand {cmd:?}");
        usage()
    };
    run(parse_flags(&args[1..], accepted));
}

#[cfg(test)]
mod tests {
    use super::{validate_out_path, RUN_OUT_FLAGS};

    #[test]
    fn run_validates_every_output_flag_up_front() {
        // The new observability exports ride the same up-front
        // validation as the original two; forgetting one here means a
        // long run can end with a "No such file or directory".
        for flag in ["metrics-out", "trace-out", "profile-out"] {
            assert!(RUN_OUT_FLAGS.contains(&flag), "missing {flag}");
        }
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
