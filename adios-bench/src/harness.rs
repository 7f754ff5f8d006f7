//! Child processes: one workload run each, so every run gets its own
//! CPU-time and peak-RSS counters; measurement windows of them; and the
//! per-workload aggregation of their reports.

use crate::catalog::{EndToEnd, END_TO_END, PER_LAYER};
use crate::layers;
use crate::stats::median;
use crate::workload::{self, Workload};
use simcore::prof;
use simcore::{Json, Telemetry};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Simulator worker threads in every child, whatever the host: the
/// benchmark's reference box has 2 vCPUs.
const SIM_THREADS: &str = "2";

/// Untraced children per measurement window, at least.
const MIN_RUNS: usize = 3;

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// One child's report, as the parent sees it.
pub struct ChildRun {
    /// False when the child died without a report.
    pub ok: bool,
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    /// CPU seconds of the timed phase alone, over all threads.
    pub run_cpu_s: f64,
    pub peak_rss_mb: f64,
    pub ops: u64,
    pub ops_failed: u64,
    /// The outputs that pin the run, as canonical JSON text.
    pub outputs: String,
    /// Per-layer values measured around public calls or read off results.
    pub values: Vec<(String, f64)>,
    /// Traced runs only: per-layer values from the span profile.
    pub layers: Vec<(String, f64)>,
    /// Traced runs only: bias-corrected self time over all spans, ms.
    pub measured_ms: f64,
    /// Wall time of the whole child as the parent saw it.
    pub wall_s: f64,
}

impl ChildRun {
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "run_s" => self.run_s,
            "setup_s" => self.setup_s,
            "cpu_s" => self.cpu_s,
            "run_cpu_s" => self.run_cpu_s,
            "peak_rss_mb" => self.peak_rss_mb,
            other => panic!("unknown child metric {other}"),
        }
    }
}

/// Run one child of this executable on `w` and wait for it.
pub fn spawn(w: Workload, seed: u64, traced: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", w.name(), "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    cmd.env("SIM_THREADS", SIM_THREADS).stdin(Stdio::null());
    let t = Instant::now();
    // The child's set-up time runs from here: spawning is part of it.
    cmd.args(["--spawned-at-ns", &unix_ns().to_string()]);
    let out = cmd.output();
    let wall_s = t.elapsed().as_secs_f64();
    let failed = |why: String| {
        eprintln!("{}: child failed: {why}", w.name());
        let ops = w.ops(false);
        ChildRun {
            ok: false,
            setup_s: f64::NAN,
            run_s: f64::NAN,
            cpu_s: f64::NAN,
            run_cpu_s: f64::NAN,
            peak_rss_mb: f64::NAN,
            ops,
            ops_failed: ops,
            outputs: String::new(),
            values: Vec::new(),
            layers: Vec::new(),
            measured_ms: f64::NAN,
            wall_s,
        }
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => return failed(format!("cannot start: {e}")),
    };
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return failed(format!("exit status {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let Some(doc) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
        return failed("no report on stdout".to_string());
    };
    let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let pairs = |k: &str| -> Vec<(String, f64)> {
        doc.get(k)
            .and_then(Json::entries)
            .unwrap_or(&[])
            .iter()
            .map(|(name, v)| (name.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect()
    };
    ChildRun {
        ok: true,
        setup_s: num("setup_s"),
        run_s: num("run_s"),
        cpu_s: num("cpu_s"),
        run_cpu_s: num("run_cpu_s"),
        peak_rss_mb: num("peak_rss_mb"),
        ops: num("ops") as u64,
        ops_failed: num("ops_failed") as u64,
        outputs: doc.get("outputs").map(Json::to_string).unwrap_or_default(),
        values: pairs("values"),
        layers: pairs("layers"),
        measured_ms: num("measured_ms"),
        wall_s,
    }
}

/// The child side: set up, run the timed phase, measure, verify, and
/// print one JSON report line.
///
/// A traced run turns the span profiler to `full` for the timed phase
/// only. The node stacks' own telemetry stays off in every run: at
/// `full` it records histograms on every request, work the untraced
/// runs do not do, which would inflate the vmstack and iosched layers.
pub fn child(w: Workload, seed: u64, traced: bool, spawned_at_ns: u128) {
    prof::set_level(Telemetry::Off);
    let (prepared, mut values) = workload::setup(w, seed, false, Telemetry::Off);
    let setup_s = unix_ns().saturating_sub(spawned_at_ns) as f64 / 1e9;
    if traced {
        prof::set_level(Telemetry::Full);
    }
    let cpu_start = cpu_s();
    let t = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| workload::run(prepared)));
    let run_s = t.elapsed().as_secs_f64();
    prof::set_level(Telemetry::Off);
    let profile = prof::take();
    let (cpu_end, rss_end) = (cpu_s(), peak_rss_mb());

    // Everything below is outside the timed phase.
    let ops = w.ops(false);
    let (outputs, ops_failed) = match &outcome {
        Ok(out) => {
            let (failed, why) = workload::verify(w, false, out);
            for line in why {
                eprintln!("{}: {line}", w.name());
            }
            values.extend(out.values.iter().copied());
            (out.outputs.clone(), failed)
        }
        Err(_) => (Json::Null, ops),
    };
    let mut report = Json::obj()
        .field("setup_s", setup_s)
        .field("run_s", run_s)
        .field("cpu_s", cpu_end)
        .field("run_cpu_s", cpu_end - cpu_start)
        .field("peak_rss_mb", rss_end)
        .field("ops", ops)
        .field("ops_failed", ops_failed)
        .field("outputs", outputs)
        .field("values", object(&values));
    if traced {
        let cost_ns = layers::span_cost_ns();
        let (mut from_profile, measured_ms) = layers::from_profile(&profile.to_json(), cost_ns);
        from_profile.push(("prof.span_cost_ns", cost_ns));
        report = report
            .field("layers", object(&from_profile))
            .field("measured_ms", measured_ms);
    }
    println!("{}", report.to_string());
}

fn object(values: &[(&str, f64)]) -> Json {
    values.iter().fold(Json::obj(), |o, &(k, v)| o.field(k, v))
}

/// User + system CPU seconds of this process over all its threads,
/// finished ones included: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
/// `/proc/self/stat` counts in 10 ms ticks, which would make the fastest
/// of several runs read the same value run after run.
fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux); clock_gettime writes only into it and has no other
    // precondition.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        f64::NAN
    }
}

/// Peak resident set of this process in MB (`VmHWM`); NaN without `/proc`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every child run of one workload in a benchmark run.
pub struct WorkloadRuns {
    pub workload: Workload,
    /// Untraced children, one group per measurement window.
    pub windows: Vec<Vec<ChildRun>>,
    pub traced: Option<ChildRun>,
}

impl WorkloadRuns {
    pub fn new(workload: Workload) -> WorkloadRuns {
        WorkloadRuns {
            workload,
            windows: Vec::new(),
            traced: None,
        }
    }

    /// One measurement window: untraced children back to back until the
    /// next would overrun `budget`, and at least [`MIN_RUNS`]. Its value
    /// of each end-to-end metric is one sample of that metric.
    pub fn measure_window(&mut self, seed: u64, budget: Duration) {
        let start = Instant::now();
        let mut window = Vec::new();
        loop {
            window.push(spawn(self.workload, seed, false));
            let walls: Vec<f64> = window.iter().map(|r: &ChildRun| r.wall_s).collect();
            let next = Duration::from_secs_f64(median(&walls));
            if window.len() >= MIN_RUNS && start.elapsed() + next > budget {
                break;
            }
        }
        self.windows.push(window);
    }

    fn untraced(&self) -> impl Iterator<Item = &ChildRun> {
        self.windows.iter().flatten()
    }

    fn all(&self) -> impl Iterator<Item = &ChildRun> {
        self.untraced().chain(&self.traced)
    }

    /// The pinned outputs every run must reproduce: the first untraced
    /// run's (each run is also checked against `expected.json`).
    fn reference(&self) -> Option<&str> {
        self.untraced().find(|r| r.ok).map(|r| r.outputs.as_str())
    }

    /// Failed ops of one run: those it reported, or all of them when its
    /// outputs differ from the other runs'.
    fn failed_ops(&self, r: &ChildRun) -> u64 {
        if r.ok && Some(r.outputs.as_str()) != self.reference() {
            r.ops
        } else {
            r.ops_failed
        }
    }

    /// (attempted, failed) ops over every run, traced included.
    pub fn ops(&self) -> (u64, u64) {
        self.all()
            .fold((0, 0), |(a, f), r| (a + r.ops, f + self.failed_ops(r)))
    }

    pub fn correct(&self) -> bool {
        self.all().all(|r| r.ok) && self.ops().1 == 0
    }

    /// One value of `m` per window that has a reporting child: its
    /// fastest or its median child, as the catalog fixes for `m`.
    pub fn samples(&self, m: &EndToEnd) -> Vec<f64> {
        self.windows
            .iter()
            .filter_map(|window| {
                let xs = child_values(window.iter(), m.name);
                match (xs.is_empty(), m.fastest) {
                    (true, _) => None,
                    (false, true) => Some(xs.iter().copied().fold(f64::INFINITY, f64::min)),
                    (false, false) => Some(median(&xs)),
                }
            })
            .collect()
    }

    /// Every per-layer metric of the catalog: the traced run's profile
    /// values, the untraced runs' medians of values measured around
    /// public calls, and the two ratios of traced to untraced time.
    /// Metrics a workload does not exercise read 0.
    pub fn per_layer(&self) -> Vec<(&'static str, f64)> {
        let mut pooled: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in self.untraced().filter(|r| r.ok) {
            for (k, v) in &r.values {
                pooled.entry(k.as_str()).or_default().push(*v);
            }
        }
        let mut got: BTreeMap<&str, f64> =
            pooled.into_iter().map(|(k, vs)| (k, median(&vs))).collect();
        let run_s = median(&child_values(self.untraced(), "run_s"));
        // Span self times add up over threads, so closure compares them
        // with the timed phase's CPU time, not its wall time.
        let run_cpu_s = median(&child_values(self.untraced(), "run_cpu_s"));
        if let Some(t) = self.traced.as_ref().filter(|t| t.ok) {
            got.extend(t.layers.iter().map(|(k, v)| (k.as_str(), *v)));
            got.insert("prof.closure_pct", 100.0 * t.measured_ms / 1e3 / run_cpu_s);
            got.insert("trace.overhead_pct", 100.0 * (t.run_s / run_s - 1.0));
        }
        PER_LAYER
            .iter()
            .map(|&(name, _)| {
                (
                    name,
                    got.get(name)
                        .copied()
                        .filter(|v| v.is_finite())
                        .unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// The end-to-end metrics in catalog order: the median over windows
    /// of each metric's samples (with one window, its value).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        END_TO_END
            .iter()
            .map(|m| (m.name, median(&self.samples(m))))
            .collect()
    }
}

/// Values of one child metric over the runs that reported.
fn child_values<'a>(runs: impl Iterator<Item = &'a ChildRun>, metric: &str) -> Vec<f64> {
    runs.filter(|r| r.ok).map(|r| r.metric(metric)).collect()
}
