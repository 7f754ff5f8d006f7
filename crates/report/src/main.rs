//! `adios-report` — inspect and compare adios metrics documents.
//!
//! ```text
//! adios-report render <doc.json>
//! adios-report diff <a.json> <b.json> [--shape] [--fail-on-delta] [--fail-on-share-delta [pct]]
//! adios-report replay <flight.json>
//! adios-report rank --metrics-dir <dir> [--require-crossover]
//! adios-report correlate --metrics-dir <dir>
//! adios-report overlap --metrics-dir <dir>
//! adios-report history --ledger <file> <doc.json>...
//! ```
//!
//! A path of `-` reads from stdin. `render` exits non-zero on parse or
//! schema errors; `diff --fail-on-delta` additionally exits 2 when the
//! documents differ (so CI can assert a self-diff is empty). `--shape`
//! compares structure only — which keys and named benchmark entries
//! exist, not their values — the right gate for committed benchmark
//! baselines whose timings drift from machine to machine.
//!
//! The cross-run analytics commands ingest manifest-stamped
//! `adios.metrics/2` documents produced by `repro-cli sweep
//! --metrics-dir`: `rank` prints per-phase plan rankings per (shape,
//! data) group and exits 2 under `--require-crossover` when no
//! phase-local ranking crossover exists anywhere (the D6 gate);
//! `correlate` prints gain-vs-queue-depth/disk-busy tables (the D3
//! diagnosis); `overlap` prints the mean non-concurrent shuffle share
//! per `parallel_copies` setting against Table II (the D4 probe);
//! `history` appends `adios.bench/1` and `adios.profile/1` documents
//! to an append-only JSONL ledger with regression deltas,
//! deterministically and idempotently.

use simcore::Json;
use std::io::Read as _;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("stdin: {e}"))?;
        s
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> ExitCode {
    eprintln!("usage: adios-report render <doc.json>");
    eprintln!("       adios-report diff <a.json> <b.json> [--shape] [--fail-on-delta]");
    eprintln!("                          [--fail-on-share-delta [pct]]");
    eprintln!("       adios-report replay <flight.json>");
    eprintln!("       adios-report rank --metrics-dir <dir> [--require-crossover]");
    eprintln!("       adios-report correlate --metrics-dir <dir>");
    eprintln!("       adios-report overlap --metrics-dir <dir>");
    eprintln!("       adios-report history --ledger <file> <doc.json>...");
    ExitCode::FAILURE
}

/// Value of a `--flag value` pair anywhere in `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Load every `*.json` in `dir`, sorted by file name so the run set —
/// and everything rendered from it — is deterministic.
fn load_metrics_dir(dir: &str) -> Result<Vec<(String, Json)>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("{dir}: no *.json metrics documents"));
    }
    let mut docs = Vec::with_capacity(names.len());
    for n in names {
        let path = format!("{dir}/{n}");
        docs.push((n, load(&path)?));
    }
    Ok(docs)
}

fn run_store_command(args: &[String]) -> Result<ExitCode, String> {
    match args[0].as_str() {
        "rank" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("rank needs --metrics-dir")?;
            let require = args.iter().any(|a| a == "--require-crossover");
            let runs = report::store::load_runs(&load_metrics_dir(dir)?)?;
            let r = report::store::rank(&runs)?;
            print!("{}", r.text);
            if require && r.crossovers == 0 {
                eprintln!("adios-report: no phase-local ranking crossover found");
                return Ok(ExitCode::from(2));
            }
            Ok(ExitCode::SUCCESS)
        }
        "correlate" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("correlate needs --metrics-dir")?;
            let runs = report::store::load_runs(&load_metrics_dir(dir)?)?;
            print!("{}", report::store::correlate(&runs)?);
            Ok(ExitCode::SUCCESS)
        }
        "overlap" => {
            let dir = flag_value(args, "--metrics-dir").ok_or("overlap needs --metrics-dir")?;
            let runs = report::store::load_runs(&load_metrics_dir(dir)?)?;
            print!("{}", report::store::overlap(&runs)?.text);
            Ok(ExitCode::SUCCESS)
        }
        "history" => {
            let path = flag_value(args, "--ledger").ok_or("history needs --ledger <file>")?;
            let docs: Vec<&String> = args[1..]
                .iter()
                .filter(|a| !a.starts_with("--") && a.as_str() != path)
                .collect();
            if docs.is_empty() {
                return Err("history needs at least one bench document".into());
            }
            let mut ledger = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
                Err(e) => return Err(format!("{path}: {e}")),
            };
            for d in docs {
                let doc = load(d)?;
                let out = report::store::history_append(&ledger, &doc, d)?;
                println!("{}", out.line);
                ledger = out.ledger;
            }
            std::fs::write(path, &ledger).map_err(|e| format!("{path}: {e}"))?;
            Ok(ExitCode::SUCCESS)
        }
        _ => unreachable!(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("render") => {
            let [_, path] = args.as_slice() else { return usage() };
            match load(path).and_then(|doc| report::render(&doc)) {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("diff") => {
            let fail_on_delta = args.iter().any(|a| a == "--fail-on-delta");
            let shape = args.iter().any(|a| a == "--shape");
            // `--fail-on-share-delta` takes an optional threshold in
            // percentage points (default 5): for adios.profile/1 pairs,
            // exit 2 when any subsystem's share moved more than that.
            let mut share_gate: Option<f64> = None;
            let mut paths: Vec<&String> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                let a = &args[i];
                if a == "--fail-on-share-delta" {
                    let thresh = args
                        .get(i + 1)
                        .and_then(|v| v.parse::<f64>().ok())
                        .inspect(|_| i += 1)
                        .unwrap_or(5.0);
                    share_gate = Some(thresh);
                } else if a.starts_with("--") {
                    if a != "--fail-on-delta" && a != "--shape" {
                        eprintln!("adios-report: unknown flag {a}");
                        return usage();
                    }
                } else {
                    paths.push(a);
                }
                i += 1;
            }
            let [a, b] = paths.as_slice() else { return usage() };
            match (load(a), load(b)) {
                (Ok(da), Ok(db)) => {
                    if let Some(thresh) = share_gate {
                        return match report::diff_profile_shares(&da, &db, thresh) {
                            Ok((text, tripped)) => {
                                print!("{text}");
                                if tripped {
                                    ExitCode::from(2)
                                } else {
                                    ExitCode::SUCCESS
                                }
                            }
                            Err(e) => {
                                eprintln!("adios-report: {e}");
                                ExitCode::FAILURE
                            }
                        };
                    }
                    let (text, deltas) = if shape {
                        report::diff_shape(&da, &db)
                    } else {
                        report::diff(&da, &db)
                    };
                    print!("{text}");
                    if fail_on_delta && !deltas.is_empty() {
                        ExitCode::from(2)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("replay") => {
            let [_, path] = args.as_slice() else { return usage() };
            match load(path).and_then(|doc| report::replay_flight(&doc)) {
                Ok(replay) => {
                    print!("{}", replay.text);
                    if replay.violations == 0 {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(2)
                    }
                }
                Err(e) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("rank" | "correlate" | "overlap" | "history") => match run_store_command(&args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("adios-report: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
