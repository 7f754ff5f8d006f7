//! `adios-report` — inspect and compare adios metrics documents.
//!
//! ```text
//! adios-report render <doc.json>
//! adios-report diff <a.json> <b.json> [--shape] [--fail-on-delta] [--fail-on-share-delta [pct]]
//! ```
//!
//! A path of `-` reads from stdin. `render` exits non-zero on parse or
//! schema errors; `diff --fail-on-delta` additionally exits 2 when the
//! documents differ (so CI can assert a self-diff is empty). `--shape`
//! compares structure only — which keys and named benchmark entries
//! exist, not their values — the right gate for committed benchmark
//! baselines whose timings drift from machine to machine.
//! `--fail-on-share-delta` exits 2 when a subsystem's profile share
//! moved more than its threshold (default 5 percentage points); a
//! threshold that is negative, NaN or infinite exits 1.
//!
//! A reader that closes stdout early (`adios-report render doc.json |
//! head`) ends the output quietly: the exit code is the one the command
//! would have returned. Any other write error exits 1 and names it.

use simcore::Json;
use std::io::{Read as _, Write as _};
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

/// Write `text` to stdout and exit with `code`. A closed pipe stops the
/// output without changing `code`; any other write error exits 1.
fn emit(text: &str, code: ExitCode) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => code,
        Err(e) => {
            eprintln!("adios-report: writing to stdout: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: adios-report render <doc.json>");
    eprintln!("       adios-report diff <a.json> <b.json> [--shape] [--fail-on-delta]");
    eprintln!("                          [--fail-on-share-delta [pct]]");
    ExitCode::FAILURE
}

/// A `--fail-on-share-delta` threshold in percentage points. A NaN or
/// infinite gate never trips and a negative one trips on every row, so
/// all three are refused.
fn share_threshold(pct: f64) -> Result<f64, String> {
    if pct.is_finite() && pct >= 0.0 {
        Ok(pct)
    } else {
        Err(format!(
            "--fail-on-share-delta: {pct}: must be a finite, non-negative number of percentage points"
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("render") => {
            let [_, path] = args.as_slice() else { return usage() };
            match load(path).and_then(|doc| report::render(&doc)) {
                Ok(text) => emit(&text, ExitCode::SUCCESS),
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
                    match share_threshold(thresh) {
                        Ok(thresh) => share_gate = Some(thresh),
                        Err(e) => {
                            eprintln!("adios-report: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
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
                            Ok((text, tripped)) => emit(
                                &text,
                                if tripped { ExitCode::from(2) } else { ExitCode::SUCCESS },
                            ),
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
                    let tripped = fail_on_delta && !deltas.is_empty();
                    emit(&text, if tripped { ExitCode::from(2) } else { ExitCode::SUCCESS })
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("adios-report: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::share_threshold;

    #[test]
    fn share_threshold_refuses_values_that_switch_the_gate_off() {
        assert_eq!(share_threshold(0.0), Ok(0.0));
        assert_eq!(share_threshold(6.5), Ok(6.5));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let err = share_threshold(bad).unwrap_err();
            assert!(err.starts_with("--fail-on-share-delta: "), "{bad}: {err}");
        }
    }
}
