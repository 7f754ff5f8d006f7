//! `adios-bench compare PARENT.json CHANGE.json`: judge every
//! end-to-end metric of every workload the two `run --out` documents
//! share, against the bound the benchmark fixes for it.

use crate::catalog::END_TO_END;
use crate::stats::quartiles;
use simcore::Json;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The parent's own runs spread wider than the bound, so neither
    /// "within bound" nor "regressed" can be told apart from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of comparisons the change wins (reads strictly lower; ties
/// count for neither side). With equal sample counts the i-th samples
/// are compared, as alternating parent/change pairs; otherwise every
/// change sample against every parent sample.
pub fn win_fraction(parent: &[f64], change: &[f64]) -> f64 {
    let (wins, total) = if parent.len() == change.len() {
        let wins = parent.iter().zip(change).filter(|(p, c)| c < p).count();
        (wins, parent.len())
    } else {
        let wins = parent
            .iter()
            .map(|p| change.iter().filter(|c| *c < p).count())
            .sum();
        (wins, parent.len() * change.len())
    };
    if total == 0 {
        0.0
    } else {
        wins as f64 / total as f64
    }
}

/// The verdict on a lower-is-better metric that may worsen by `bound` (a
/// share of the parent's median) or by `floor` (in its unit), whichever
/// is larger.
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, floor: f64) -> Verdict {
    let [p1, pm, p3] = quartiles(parent);
    let [_, cm, _] = quartiles(change);
    let spread = p3 - p1;
    let allowed = (bound * pm).max(floor);
    let every_run_better = change.iter().all(|c| parent.iter().all(|p| c < p));
    if spread > allowed {
        return if every_run_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if cm - pm > allowed {
        Verdict::Regressed
    } else if pm - cm > spread && win_fraction(parent, change) >= 0.9 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Read an `adios.benchrun/1` document (`run --out`).
pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("adios.benchrun/1") => Ok(doc),
        other => Err(format!(
            "{path}: expected schema adios.benchrun/1, got {other:?}"
        )),
    }
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[])
}

/// One workload's entry in an `adios.benchrun/1` document.
pub fn entry<'a>(doc: &'a Json, workload: &str) -> Option<&'a Json> {
    workloads(doc)
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
}

/// The samples of one end-to-end metric in a workload entry.
pub fn samples(entry: &Json, metric: &str) -> Vec<f64> {
    let xs = entry
        .get("end_to_end")
        .and_then(|e| e.get(metric)?.get("samples")?.as_arr());
    xs.unwrap_or(&[]).iter().filter_map(Json::as_f64).collect()
}

pub fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent_path, change_path] = args else {
        return Err("compare takes PARENT.json CHANGE.json".to_string());
    };
    let (parent, change) = (load(parent_path)?, load(change_path)?);
    println!(
        "{:<18} {:<12} {:>32} {:>32} {:>8} {:>6} {:>5}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3] n",
        "change median [q1, q3] n",
        "delta",
        "bound",
        "win"
    );
    for pw in workloads(&parent) {
        let Some(w) = pw.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(cw) = entry(&change, w) else {
            continue;
        };
        for m in &END_TO_END {
            let (p, c) = (samples(pw, m.name), samples(cw, m.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (pq, cq) = (quartiles(&p), quartiles(&c));
            let fmt = |q: [f64; 3], n: usize| format!("{:.4} [{:.4}, {:.4}] {n}", q[1], q[0], q[2]);
            println!(
                "{w:<18} {:<12} {:>32} {:>32} {:>+7.2}% {:>5.0}% {:>5.2}  {}",
                m.name,
                fmt(pq, p.len()),
                fmt(cq, c.len()),
                100.0 * (cq[1] / pq[1] - 1.0),
                100.0 * m.bound,
                win_fraction(&p, &c),
                verdict(&p, &c, m.bound, m.floor).label()
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 7] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02];

    fn scaled(k: f64) -> Vec<f64> {
        PARENT.iter().map(|x| x * k).collect()
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        // Same distribution: within bound.
        assert_eq!(verdict(&PARENT, &PARENT, 0.10, 0.0), Verdict::WithinBound);
        // 5 % slower under a 10 % bound is still within bound.
        assert_eq!(
            verdict(&PARENT, &scaled(1.05), 0.10, 0.0),
            Verdict::WithinBound
        );
        // 20 % slower is a regression.
        assert_eq!(
            verdict(&PARENT, &scaled(1.20), 0.10, 0.0),
            Verdict::Regressed
        );
        // 20 % faster in every pair beats the parent's spread.
        assert_eq!(
            verdict(&PARENT, &scaled(0.80), 0.10, 0.0),
            Verdict::Improved
        );
        // Faster median but only half the pairs won: not a gain.
        let mixed = [9.0, 10.2, 9.0, 10.2, 9.0, 10.2, 9.0];
        assert_eq!(verdict(&PARENT, &mixed, 0.10, 0.0), Verdict::WithinBound);
        // A parent noisier than the bound cannot resolve a regression...
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5];
        assert_eq!(
            verdict(&noisy, &scaled(1.05), 0.10, 0.0),
            Verdict::Unresolved
        );
        // ...but a change better than every parent run still improves.
        assert_eq!(verdict(&noisy, &scaled(0.7), 0.10, 0.0), Verdict::Improved);
        // A millisecond set-up 50 % slower stays under a 0.02 s floor...
        let setup = [0.0020, 0.0021, 0.0019, 0.0020, 0.0022, 0.0020, 0.0021];
        let slower: Vec<f64> = setup.iter().map(|x| x * 1.5).collect();
        assert_eq!(verdict(&setup, &slower, 0.10, 0.02), Verdict::WithinBound);
        assert_eq!(verdict(&setup, &slower, 0.10, 0.0), Verdict::Regressed);
        // ...but not one 0.03 s slower.
        let much: Vec<f64> = setup.iter().map(|x| x + 0.03).collect();
        assert_eq!(verdict(&setup, &much, 0.10, 0.02), Verdict::Regressed);
    }

    #[test]
    fn win_fraction_pairs_by_index_when_counts_match() {
        assert_eq!(
            win_fraction(&[2.0, 2.0, 2.0, 2.0], &[1.0, 3.0, 1.0, 2.0]),
            0.5
        );
        // Unequal counts: every cross pair.
        assert_eq!(win_fraction(&[2.0, 4.0], &[3.0]), 0.5);
    }
}
