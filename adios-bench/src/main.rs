//! `adios-bench`: the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! adios-bench --workload NAME --seed N --seconds S --trace 0|1
//! adios-bench run [--reps 7] [--seed 42] [--out FILE] [--append]
//! adios-bench compare PARENT.json CHANGE.json
//! ```
//!
//! The first form measures one workload for one window of about `S`
//! seconds and prints one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of one extra traced run with
//! `--trace 1`. `run` measures every workload for `--reps` windows of
//! `run_seconds`, round-robin, rotating the order each round, then once
//! traced, and prints every metric with its unit, median, quartiles and
//! sample count. `compare` judges one `run --out` file against another.
//! See README.md.

mod catalog;
mod compare;
mod harness;
mod layers;
mod stats;
mod workload;

use catalog::{per_layer_unit, END_TO_END, RUN_SECONDS};
use harness::WorkloadRuns;
use simcore::Json;
use stats::quartiles;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: adios-bench --workload NAME --seed N --seconds S --trace 0|1\n       \
         adios-bench run [--reps 7] [--seed 42] [--out FILE] [--append]\n       \
         adios-bench compare PARENT.json CHANGE.json\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` flags plus the named value-less switches.
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switch_names: &[&str]) -> Result<Flags, String> {
        let mut f = Flags {
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            if switch_names.contains(&key) {
                f.switches.push(key.to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                f.values.insert(key.to_string(), v.clone());
            }
        }
        Ok(f)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> Result<T, String> {
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
            None => default.ok_or_else(|| format!("--{key} is required")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.get("workload", None)?;
        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => cmd_child(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") => cmd_measure(&args),
        _ => return usage(),
    };
    result.unwrap_or_else(|e| {
        eprintln!("adios-bench: {e}");
        ExitCode::from(2)
    })
}

fn cmd_child(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["traced"])?;
    harness::child(
        f.workload()?,
        f.get("seed", None)?,
        f.has("traced"),
        f.get("spawned-at-ns", None)?,
    );
    Ok(ExitCode::SUCCESS)
}

/// One workload for one window of about `--seconds`, after one traced
/// run when `--trace 1`. The last stdout line is the JSON result.
fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    catalog::check()?;
    let f = Flags::parse(args, &[])?;
    let w = f.workload()?;
    let seed: u64 = f.get("seed", None)?;
    let budget = Duration::from_secs_f64(f.get("seconds", None)?);
    let traced = match f.get::<u8>("trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let start = Instant::now();
    let mut runs = WorkloadRuns::new(w);
    if traced {
        runs.traced = Some(harness::spawn(w, seed, true));
    }
    runs.measure_window(seed, budget.saturating_sub(start.elapsed()));
    if runs.samples(&END_TO_END[0]).is_empty() {
        eprintln!("adios-bench: {}: no child run reported", w.name());
        return Ok(ExitCode::FAILURE);
    }
    print_table(std::slice::from_ref(&runs));
    let metrics: Vec<(&str, f64, &str)> = if traced {
        runs.per_layer()
            .into_iter()
            .map(|(k, v)| (k, v, per_layer_unit(k)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(runs.end_to_end())
            .map(|(m, (k, v))| (k, v, m.unit))
            .collect()
    };
    let (attempted, failed) = runs.ops();
    let metrics = metrics.into_iter().fold(Json::obj(), |o, (k, v, unit)| {
        o.field(k, Json::obj().field("value", v).field("unit", unit))
    });
    let line = Json::obj()
        .field("correct", runs.correct())
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", line.to_string());
    Ok(ExitCode::SUCCESS)
}

/// Every workload for `--reps` windows of [`RUN_SECONDS`], round-robin
/// in an order rotated each round so a noisy spell hits every workload,
/// then one traced run each. Each window is one sample, as in a
/// `--workload` invocation.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    catalog::check()?;
    let f = Flags::parse(args, &["append"])?;
    let reps: usize = f.get("reps", Some(7))?;
    let seed: u64 = f.get("seed", Some(42))?;
    let out_path = f.values.get("out");
    if f.has("append") && out_path.is_none() {
        return Err("--append needs --out".to_string());
    }
    let prior = match out_path {
        Some(p) if f.has("append") && std::path::Path::new(p).exists() => Some(compare::load(p)?),
        _ => None,
    };
    let mut all: Vec<WorkloadRuns> = Workload::ALL.map(WorkloadRuns::new).into();
    let n = all.len();
    for rep in 0..reps {
        for k in 0..n {
            let runs = &mut all[(rep + k) % n];
            runs.measure_window(seed, Duration::from_secs(RUN_SECONDS));
            let run_s = runs.samples(&END_TO_END[0]);
            eprintln!(
                "rep {}/{reps} {:<18} run_s {:.4}",
                rep + 1,
                runs.workload.name(),
                run_s.last().copied().unwrap_or(f64::NAN),
            );
        }
    }
    for runs in &mut all {
        eprintln!("traced {}", runs.workload.name());
        runs.traced = Some(harness::spawn(runs.workload, seed, true));
    }
    print_table(&all);
    if let Some(path) = out_path {
        let doc = run_doc(&all, seed, prior.as_ref());
        std::fs::write(path, doc.to_string() + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(if all.iter().all(WorkloadRuns::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_table(all: &[WorkloadRuns]) {
    println!(
        "{:<18} {:<28} {:>6} {:>14} {:>14} {:>14} {:>14} {:>4}",
        "workload", "metric", "unit", "median", "q1", "q3", "min", "n"
    );
    for runs in all {
        let name = runs.workload.name();
        for m in &END_TO_END {
            let xs = runs.samples(m);
            let [q1, med, q3] = quartiles(&xs);
            let min = xs.iter().copied().fold(f64::NAN, f64::min);
            println!(
                "{name:<18} {:<28} {:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {min:>14.6} {:>4}",
                m.name,
                m.unit,
                xs.len()
            );
        }
        let (ops, failed) = runs.ops();
        println!("{name:<18} {:<28} {:>6} {ops:>14}", "ops", "count");
        println!(
            "{name:<18} {:<28} {:>6} {failed:>14}",
            "ops_failed", "count"
        );
        if runs.traced.is_some() {
            for (k, v) in runs.per_layer() {
                println!("{name:<18} {k:<28} {:>6} {v:>14.6}", per_layer_unit(k));
            }
        }
    }
}

/// The `run --out` document (`adios.benchrun/1`). With `prior` (an
/// earlier document of the same kind, `--append`), each metric's new
/// samples follow the earlier ones and ops accumulate; per-layer values
/// and outputs are this run's.
fn run_doc(all: &[WorkloadRuns], seed: u64, prior: Option<&Json>) -> Json {
    let workloads = all.iter().map(|runs| {
        let name = runs.workload.name();
        let before = prior.and_then(|d| compare::entry(d, name));
        let count = |k: &str| {
            before
                .and_then(|b| b.get(k))
                .and_then(Json::as_i64)
                .unwrap_or(0) as u64
        };
        let mut e2e = Json::obj();
        for m in &END_TO_END {
            let mut xs = before.map_or_else(Vec::new, |b| compare::samples(b, m.name));
            xs.extend(runs.samples(m));
            let [q1, med, q3] = quartiles(&xs);
            e2e = e2e.field(
                m.name,
                Json::obj()
                    .field("unit", m.unit)
                    .field("median", med)
                    .field("q1", q1)
                    .field("q3", q3)
                    .field("n", xs.len())
                    .field("samples", Json::arr(xs)),
            );
        }
        let per_layer = runs.per_layer().into_iter().fold(Json::obj(), |o, (k, v)| {
            o.field(
                k,
                Json::obj()
                    .field("unit", per_layer_unit(k))
                    .field("value", v),
            )
        });
        let (ops, failed) = runs.ops();
        let outputs = runs
            .windows
            .iter()
            .flatten()
            .find(|r| r.ok)
            .and_then(|r| Json::parse(&r.outputs).ok())
            .unwrap_or(Json::Null);
        Json::obj()
            .field("name", name)
            .field("ops", ops + count("ops"))
            .field("ops_failed", failed + count("ops_failed"))
            .field("end_to_end", e2e)
            .field("per_layer", per_layer)
            .field("outputs", outputs)
    });
    Json::obj()
        .field("schema", "adios.benchrun/1")
        .field("seed", seed)
        .field("workloads", Json::Arr(workloads.collect()))
}
