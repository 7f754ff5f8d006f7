//! Cross-run analytics: batch tables over manifest-stamped
//! `adios.metrics/2|3` documents (see `vcluster::sweep::stamp_manifest`).
//! They answer the questions the discrepancy log keeps asking:
//!
//! * [`rank`] — per-phase ranking tables of switch plans within each
//!   (shape, data size) group, flagging *phase-local ranking
//!   crossovers*: a pair that wins phase 1 but loses phases 2–3 is
//!   exactly the Fig. 6 structure that makes phase-wise switching pay
//!   (the D6 signal). Without a crossover every phase agrees on one
//!   winner and the adaptive plan can only match best-single.
//! * [`correlate`] — per-group gain-vs-signal table (Dom0 queue depth,
//!   disk busy fraction) with Pearson coefficients, the D3 diagnosis
//!   tool for non-monotone gains across cluster shapes.
//! * [`overlap`] — mean non-concurrent-shuffle share per shuffle fetch
//!   concurrency (`parallel_copies`) setting against the paper's
//!   Table II figure, the D4 probe.
//!
//! Every table is a pure function of the run *set*, never of the order
//! the runs arrive in (DESIGN.md, "Cross-run analytics"): runs group
//! by (nodes, vms, data), each group walks its members in (plan, file)
//! order, phase rows stable-sort that order by time, Pearson sums fold
//! in member order, and overlap sums run in file order.
//!
//! Like the rest of this crate the module is pure: callers hand in
//! parsed documents (plus their file names for error messages) and get
//! rendered text back; `main.rs` owns all I/O.

use simcore::Json;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One ingested metrics document plus the identity of its run, pulled
/// from the `manifest` section.
#[derive(Debug, Clone)]
pub struct Run {
    /// File name the document came from (error messages, tie-breaks).
    pub file: String,
    /// Cluster nodes.
    pub nodes: u64,
    /// VMs per node.
    pub vms: u64,
    /// Input data per VM, MB.
    pub data_mb: u64,
    /// Switch-plan label (e.g. `cc`, `ad`, `ad>da`).
    pub plan: String,
    /// Telemetry level the run captured (`off`/`counters`/`full`).
    pub telemetry: String,
    /// Shuffle fetch concurrency (`parallel copies`) from the
    /// manifest; 0 on documents stamped before the manifest carried it.
    pub parallel_copies: u64,
    /// Parsed document.
    pub doc: Json,
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut v = doc;
    for k in path {
        v = v.get(k)?;
    }
    v.as_f64()
}

fn manifest_u64(m: &Json, key: &str, file: &str) -> Result<u64, String> {
    m.get(key)
        .and_then(Json::as_f64)
        .map(|x| x as u64)
        .ok_or_else(|| format!("{file}: manifest missing numeric '{key}'"))
}

fn manifest_str(m: &Json, key: &str, file: &str) -> Result<String, String> {
    m.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{file}: manifest missing string '{key}'"))
}

/// Ingest named documents into [`Run`]s, rejecting anything that is
/// not a manifest-stamped `adios.metrics/*` document.
pub fn load_runs(named: &[(String, Json)]) -> Result<Vec<Run>, String> {
    let mut runs = Vec::with_capacity(named.len());
    for (file, doc) in named {
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if !schema.starts_with("adios.metrics/") {
            return Err(format!(
                "{file}: not an adios.metrics document (schema '{schema}')"
            ));
        }
        let m = doc.get("manifest").ok_or_else(|| {
            format!("{file}: no manifest section — produced without --metrics-dir?")
        })?;
        runs.push(Run {
            file: file.clone(),
            nodes: manifest_u64(m, "nodes", file)?,
            vms: manifest_u64(m, "vms_per_node", file)?,
            data_mb: manifest_u64(m, "data_mb_per_vm", file)?,
            plan: manifest_str(m, "plan", file)?,
            telemetry: manifest_str(m, "telemetry", file)?,
            parallel_copies: m
                .get("parallel_copies")
                .and_then(Json::as_f64)
                .map(|x| x as u64)
                .unwrap_or(0),
            doc: doc.clone(),
        });
    }
    Ok(runs)
}

/// Runs grouped by (nodes, vms, data), each group in (plan, file)
/// order — the member order every table walks. The sort is stable, so
/// even duplicate (plan, file) keys keep their input order.
fn groups(runs: &[Run]) -> BTreeMap<(u64, u64, u64), Vec<&Run>> {
    let mut groups: BTreeMap<(u64, u64, u64), Vec<&Run>> = BTreeMap::new();
    for r in runs {
        groups
            .entry((r.nodes, r.vms, r.data_mb))
            .or_default()
            .push(r);
    }
    for members in groups.values_mut() {
        members.sort_by(|a, b| (&a.plan, &a.file).cmp(&(&b.plan, &b.file)));
    }
    groups
}

fn group_header(key: (u64, u64, u64), n: usize) -> String {
    format!(
        "[{}x{} nodes·vms · {} MB/vm · {} runs]\n",
        key.0, key.1, key.2, n
    )
}

/// Result of [`rank`]: the rendered tables plus how many plan pairs
/// exhibited a phase-local ranking crossover anywhere in the set.
#[derive(Debug)]
pub struct RankReport {
    /// Human-readable ranking tables.
    pub text: String,
    /// Plan pairs whose relative order inverts between phases.
    pub crossovers: usize,
}

const PHASES: [&str; 3] = ["ph1_s", "ph2_s", "ph3_s"];

/// The paper's Table II non-concurrent-shuffle share at 1 wave — the
/// reference the D4 overlap sweep compares against.
pub const TABLE2_SHUFFLE_PCT: f64 = 29.5;

fn phase_times(r: &Run) -> Result<[f64; 3], String> {
    let mut t = [0.0; 3];
    for (slot, ph) in t.iter_mut().zip(PHASES) {
        *slot = num(&r.doc, &["phases", ph])
            .ok_or_else(|| format!("{}: missing phases.{ph}", r.file))?;
    }
    Ok(t)
}

/// Per-phase plan rankings within each (shape, data) group, with
/// crossover detection. `Err` on an empty set or a document missing
/// its `phases` section.
pub fn rank(runs: &[Run]) -> Result<RankReport, String> {
    if runs.is_empty() {
        return Err("no runs to rank".into());
    }
    let mut out = String::from("adios cross-run ranking (adios.metrics/2)\n");
    let mut crossovers = 0;
    for (key, members) in groups(runs) {
        let times = members
            .iter()
            .map(|r| phase_times(r))
            .collect::<Result<Vec<_>, _>>()?;
        out.push('\n');
        out.push_str(&group_header(key, members.len()));
        for ph in 0..PHASES.len() {
            // Stable sort of the member order: time ties stay in
            // (plan, file) order.
            let mut row: Vec<(f64, &str)> = members
                .iter()
                .zip(&times)
                .map(|(r, t)| (t[ph], r.plan.as_str()))
                .collect();
            row.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
            let best = row[0].0;
            out.push_str(&format!("  ph{}", ph + 1));
            for (j, (t, plan)) in row.iter().enumerate() {
                if j == 0 {
                    out.push_str(&format!("  1. {plan} {t:.3}s"));
                } else {
                    out.push_str(&format!("  {}. {plan} +{:.3}s", j + 1, t - best));
                }
            }
            out.push('\n');
        }
        // A crossover between plans A and B: A strictly faster in one
        // phase, strictly slower in another. Each pair counts once.
        let mut found = 0;
        for a in 0..members.len() {
            for b in a + 1..members.len() {
                let (mut a_wins, mut b_wins) = (Vec::new(), Vec::new());
                for (ph, (ta, tb)) in times[a].iter().zip(&times[b]).enumerate() {
                    if ta < tb {
                        a_wins.push(ph + 1);
                    } else if tb < ta {
                        b_wins.push(ph + 1);
                    }
                }
                if !a_wins.is_empty() && !b_wins.is_empty() {
                    out.push_str(&format!(
                        "  ** crossover: {} wins ph{a_wins:?}, {} wins ph{b_wins:?}\n",
                        members[a].plan, members[b].plan
                    ));
                    found += 1;
                }
            }
        }
        if found == 0 {
            out.push_str("  (no phase-local ranking crossover)\n");
        }
        crossovers += found;
    }
    out.push_str(&format!("\ncrossovers: {crossovers}\n"));
    Ok(RankReport {
        text: out,
        crossovers,
    })
}

/// Mean of a full-telemetry time series (`sum[]` / `count[]` buckets),
/// if the document carries one.
fn series_mean(doc: &Json, name: &str) -> Option<f64> {
    let s = doc.get("series")?.get(name)?;
    let (Some(Json::Arr(sums)), Some(Json::Arr(counts))) = (s.get("sum"), s.get("count")) else {
        return None;
    };
    let total: f64 = sums.iter().filter_map(Json::as_f64).sum();
    let n: f64 = counts.iter().filter_map(Json::as_f64).sum();
    if n > 0.0 {
        Some(total / n)
    } else {
        None
    }
}

fn makespan(r: &Run) -> Result<f64, String> {
    num(&r.doc, &["run", "makespan_s"]).ok_or_else(|| format!("{}: missing run.makespan_s", r.file))
}

/// Single-pass Pearson moment accumulator: push `(x, y)` points, read
/// the coefficient at the end.
#[derive(Debug, Clone, Copy, Default)]
struct PearsonAcc {
    n: u64,
    sx: f64,
    sy: f64,
    sxx: f64,
    syy: f64,
    sxy: f64,
}

impl PearsonAcc {
    fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        self.sx += x;
        self.sy += y;
        self.sxx += x * x;
        self.syy += y * y;
        self.sxy += x * y;
    }

    /// Pearson r over the pushed points; `None` below 3 points or on a
    /// degenerate (zero-variance) axis.
    fn r(&self) -> Option<f64> {
        if self.n < 3 {
            return None;
        }
        let n = self.n as f64;
        let vx = self.sxx - self.sx * self.sx / n;
        let vy = self.syy - self.sy * self.sy / n;
        if vx <= 0.0 || vy <= 0.0 {
            return None;
        }
        let cov = self.sxy - self.sx * self.sy / n;
        Some(cov / (vx * vy).sqrt())
    }
}

/// Gain-vs-signal tables per group: each plan's makespan gain over the
/// group baseline (`cc`/`default`, else the first member) against Dom0
/// queue depth and disk busy fraction, plus Pearson coefficients
/// folded in member order (D3 diagnosis).
pub fn correlate(runs: &[Run]) -> Result<String, String> {
    if runs.is_empty() {
        return Err("no runs to correlate".into());
    }
    let mut out = String::from("adios cross-run correlation (adios.metrics/2)\n");
    for (key, members) in groups(runs) {
        out.push('\n');
        out.push_str(&group_header(key, members.len()));
        let base = members
            .iter()
            .find(|r| r.plan == "cc" || r.plan == "default")
            .unwrap_or(&members[0]);
        let base_mk = makespan(base)?;
        out.push_str(&format!(
            "  baseline {} makespan {:.3}s\n  {:<10} {:>10} {:>8} {:>8} {:>9}\n",
            base.plan, base_mk, "plan", "makespan", "gain%", "qdepth", "busy"
        ));
        let (mut acc_qd, mut acc_busy) = (PearsonAcc::default(), PearsonAcc::default());
        for r in &members {
            let mk = makespan(r)?;
            let gain = (base_mk - mk) / base_mk * 100.0;
            let qd = series_mean(&r.doc, "dom0_qdepth")
                .or_else(|| num(&r.doc, &["dom0_elevator", "queue_depth", "mean"]))
                .ok_or_else(|| format!("{}: no queue-depth signal", r.file))?;
            // busy_s normalised to one disk-second per node over the
            // makespan.
            let busy = num(&r.doc, &["disk", "busy_s"])
                .map(|busy_s| busy_s / (mk * r.nodes as f64))
                .ok_or_else(|| format!("{}: missing disk.busy_s", r.file))?;
            acc_qd.push(gain, qd);
            acc_busy.push(gain, busy);
            out.push_str(&format!(
                "  {:<10} {:>9.3}s {:>8.2} {:>8.2} {:>9.3}\n",
                r.plan, mk, gain, qd, busy
            ));
        }
        if members.len() < 3 {
            out.push_str("  (fewer than 3 runs — no correlation)\n");
        } else {
            // A degenerate axis (zero variance) has no coefficient.
            let fmt = |c: Option<f64>| c.map_or("n/a".into(), |c| format!("{c:+.3}"));
            out.push_str(&format!(
                "  corr(gain, qdepth) = {}   corr(gain, busy) = {}\n",
                fmt(acc_qd.r()),
                fmt(acc_busy.r())
            ));
        }
    }
    Ok(out)
}

/// Result of [`overlap`]: the rendered table plus its rows.
#[derive(Debug)]
pub struct OverlapReport {
    /// Human-readable table.
    pub text: String,
    /// `(parallel_copies, runs, mean non-concurrent-shuffle %)` per
    /// setting, in ascending `parallel_copies` order.
    pub rows: Vec<(u64, u64, f64)>,
}

/// The D4 overlap probe: mean non-concurrent-shuffle share per shuffle
/// fetch-concurrency (`parallel_copies`) setting, and the setting that
/// lands closest to the paper's Table II share. Sums run in file
/// order, so any input order gives the same bits. Runs without a
/// `parallel_copies` stamp or a shuffle share are skipped; `Err` when
/// none is left.
pub fn overlap(runs: &[Run]) -> Result<OverlapReport, String> {
    let mut by_file: Vec<&Run> = runs.iter().collect();
    by_file.sort_by(|a, b| a.file.cmp(&b.file));
    let mut sums: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for r in by_file.into_iter().filter(|r| r.parallel_copies > 0) {
        if let Some(pct) = num(&r.doc, &["phases", "non_concurrent_shuffle_pct"]) {
            let slot = sums.entry(r.parallel_copies).or_insert((0.0, 0));
            slot.0 += pct;
            slot.1 += 1;
        }
    }
    if sums.is_empty() {
        return Err(
            "no runs with a parallel_copies stamp and phases.non_concurrent_shuffle_pct".into(),
        );
    }
    let rows: Vec<(u64, u64, f64)> = sums
        .into_iter()
        .map(|(pc, (sum, n))| (pc, n, sum / n as f64))
        .collect();
    let mut out = format!(
        "adios shuffle-overlap probe (adios.metrics/2)\n\n  Table II non-concurrent shuffle at 1 wave: {TABLE2_SHUFFLE_PCT:.1}%\n  {:>15} {:>5} {:>14} {:>9}\n",
        "parallel_copies", "runs", "mean shuffle%", "delta"
    );
    for &(pc, n, mean) in &rows {
        out.push_str(&format!(
            "  {pc:>15} {n:>5} {mean:>14.3} {:>+9.3}\n",
            mean - TABLE2_SHUFFLE_PCT
        ));
    }
    // `min_by` keeps the first of equal elements: a tie on |delta| goes
    // to the smaller setting.
    let delta = |mean: f64| (mean - TABLE2_SHUFFLE_PCT).abs();
    let (pc, _, mean) = rows
        .iter()
        .copied()
        .min_by(|a, b| delta(a.2).total_cmp(&delta(b.2)))
        .expect("rows is non-empty");
    out.push_str(&format!(
        "  closest to Table II: parallel_copies {pc} ({mean:.3}%)\n"
    ));
    Ok(OverlapReport { text: out, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal manifest-stamped metrics doc.
    fn doc(
        nodes: u64,
        vms: u64,
        mb: u64,
        plan: &str,
        mk: f64,
        phases: [f64; 3],
        qdepth: f64,
    ) -> (String, Json) {
        let d = Json::obj()
            .field("schema", "adios.metrics/2")
            .field("telemetry", "counters")
            .field(
                "manifest",
                Json::obj()
                    .field("nodes", nodes)
                    .field("vms_per_node", vms)
                    .field("data_mb_per_vm", mb)
                    .field("plan", plan)
                    .field("telemetry", "counters")
                    .field("workload", "sort")
                    .field("parallel_copies", 5u64)
                    .field("seed", "00000000deadbeef"),
            )
            .field(
                "run",
                Json::obj().field("makespan_s", mk).field("nodes", nodes),
            )
            .field(
                "phases",
                Json::obj()
                    .field("ph1_s", phases[0])
                    .field("ph2_s", phases[1])
                    .field("ph3_s", phases[2])
                    .field("non_concurrent_shuffle_pct", 100.0 * phases[1] / mk),
            )
            .field(
                "dom0_elevator",
                Json::obj().field("queue_depth", Json::obj().field("mean", qdepth)),
            )
            .field("disk", Json::obj().field("busy_s", mk * nodes as f64 * 0.5));
        (format!("{plan}.json"), d)
    }

    #[test]
    fn rank_detects_fig6_style_crossover() {
        // The Fig. 6 structure: (AS,DL) "ad" wins phase 1, (DL,AS)
        // "da" wins phases 2 and 3.
        let docs = vec![
            doc(4, 4, 512, "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            doc(4, 4, 512, "da", 29.0, [11.0, 11.0, 7.0], 7.0),
            doc(4, 4, 512, "cc", 33.0, [12.0, 13.0, 8.5], 9.0),
        ];
        let runs = load_runs(&docs).unwrap();
        let r = rank(&runs).unwrap();
        assert!(r.crossovers >= 1, "{}", r.text);
        assert!(
            r.text
                .contains("** crossover: ad wins ph[1], da wins ph[2, 3]"),
            "{}",
            r.text
        );
        assert!(r.text.contains("ph1  1. ad 10.000s"), "{}", r.text);
        assert!(r.text.contains("ph2  1. da 11.000s"), "{}", r.text);
    }

    #[test]
    fn rank_reports_absence_of_crossover() {
        // One plan dominates every phase: no crossover anywhere.
        let docs = vec![
            doc(2, 2, 64, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(2, 2, 64, "dd", 19.0, [7.0, 7.5, 3.9], 5.5),
        ];
        let r = rank(&load_runs(&docs).unwrap()).unwrap();
        assert_eq!(r.crossovers, 0);
        assert!(r.text.contains("(no phase-local ranking crossover)"));
        assert!(r.text.contains("crossovers: 0"));
    }

    #[test]
    fn rank_groups_shapes_separately_and_is_deterministic() {
        let docs = vec![
            doc(4, 4, 512, "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            doc(2, 2, 64, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(4, 4, 512, "da", 29.0, [11.0, 11.0, 7.0], 7.0),
        ];
        let runs = load_runs(&docs).unwrap();
        let a = rank(&runs).unwrap().text;
        let b = rank(&runs).unwrap().text;
        assert_eq!(a, b);
        let small = a.find("[2x2").unwrap();
        let big = a.find("[4x4").unwrap();
        assert!(small < big, "groups must render in shape order:\n{a}");
    }

    #[test]
    fn load_rejects_unstamped_documents() {
        let bare = Json::obj().field("schema", "adios.metrics/2");
        let err = load_runs(&[("x.json".into(), bare)]).unwrap_err();
        assert!(err.contains("no manifest"), "{err}");
        let foreign = Json::obj().field("schema", "adios.bench/1");
        let err = load_runs(&[("y.json".into(), foreign)]).unwrap_err();
        assert!(err.contains("not an adios.metrics"), "{err}");
    }

    #[test]
    fn correlate_renders_gains_and_coefficients() {
        // Gains rise with queue depth -> strong positive correlation.
        let docs = vec![
            doc(4, 4, 512, "cc", 30.0, [10.0, 12.0, 8.0], 4.0),
            doc(4, 4, 512, "ad", 27.0, [9.0, 11.0, 7.0], 6.0),
            doc(4, 4, 512, "da", 24.0, [8.0, 10.0, 6.0], 8.0),
        ];
        let out = correlate(&load_runs(&docs).unwrap()).unwrap();
        assert!(out.contains("baseline cc makespan 30.000s"), "{out}");
        assert!(out.contains("corr(gain, qdepth) = +1.000"), "{out}");
        // Baseline's own gain is zero.
        assert!(out.contains("cc            30.000s     0.00"), "{out}");
    }

    #[test]
    fn correlate_prefers_series_signal_when_present() {
        let (name, d) = doc(4, 4, 512, "cc", 30.0, [10.0, 12.0, 8.0], 4.0);
        // Graft a full-telemetry series whose mean (12.0) differs from
        // the counters-level stat (4.0).
        let d = d.field(
            "series",
            Json::obj().field(
                "dom0_qdepth",
                Json::obj()
                    .field("sum", Json::Arr(vec![Json::from(20.0), Json::from(4.0)]))
                    .field("count", Json::Arr(vec![Json::from(1u64), Json::from(1u64)])),
            ),
        );
        let out = correlate(&load_runs(&[(name, d)]).unwrap()).unwrap();
        assert!(out.contains("12.00"), "series mean must win:\n{out}");
    }

    #[test]
    fn tables_are_independent_of_input_order() {
        // Any input order must render the same rank/correlate/overlap
        // bytes: members walk (plan, file) order, overlap sums walk
        // file order.
        let docs = vec![
            doc(4, 4, 512, "ad", 30.0, [10.0, 12.0, 8.0], 6.0),
            doc(4, 4, 512, "da", 29.0, [11.0, 11.0, 7.0], 7.0),
            doc(4, 4, 512, "cc", 33.0, [12.0, 13.0, 8.5], 9.0),
            doc(2, 2, 64, "cc", 20.0, [8.0, 8.0, 4.0], 5.0),
            doc(2, 2, 64, "dd", 19.0, [7.0, 7.5, 3.9], 5.5),
        ];
        let runs = load_runs(&docs).unwrap();
        let base_rank = rank(&runs).unwrap().text;
        let base_corr = correlate(&runs).unwrap();
        let base_overlap = overlap(&runs).unwrap().text;
        // A few representative permutations (reversed, rotated, swapped).
        for order in [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]] {
            let permuted: Vec<Run> = order.iter().map(|&i| runs[i].clone()).collect();
            assert_eq!(rank(&permuted).unwrap().text, base_rank, "order {order:?}");
            assert_eq!(correlate(&permuted).unwrap(), base_corr, "order {order:?}");
            assert_eq!(
                overlap(&permuted).unwrap().text,
                base_overlap,
                "order {order:?}"
            );
        }
    }

    #[test]
    fn overlap_tracks_parallel_copies_axis() {
        // Distinct pc settings via manifest parallel_copies, each with a
        // controlled shuffle share.
        let with_pc = |plan: &str, pc: u64, pct: f64| {
            let (_, d) = doc(4, 4, 512, plan, 30.0, [10.0, 12.0, 8.0], 6.0);
            let mut run = load_runs(&[(format!("{plan}.json"), d)]).unwrap().remove(0);
            run.parallel_copies = pc;
            if let Json::Obj(fields) = &mut run.doc {
                let (_, phases) = fields.iter_mut().find(|(k, _)| k == "phases").unwrap();
                if let Json::Obj(ph) = phases {
                    let (_, v) = ph
                        .iter_mut()
                        .find(|(k, _)| k == "non_concurrent_shuffle_pct")
                        .unwrap();
                    *v = Json::from(pct);
                }
            }
            run
        };
        let runs = vec![
            with_pc("cc@pc1", 1, 40.0),
            with_pc("cc@pc5", 5, 28.0),
            with_pc("dd@pc5", 5, 30.0),
            with_pc("cc@pc10", 10, 14.0),
            // No stamp: skipped.
            with_pc("old", 0, 29.5),
        ];
        let o = overlap(&runs).unwrap();
        assert_eq!(o.rows, vec![(1, 1, 40.0), (5, 2, 29.0), (10, 1, 14.0)]);
        assert!(o.text.contains("at 1 wave: 29.5%"), "{}", o.text);
        assert!(
            o.text
                .contains("closest to Table II: parallel_copies 5 (29.000%)"),
            "{}",
            o.text
        );
        // Nothing stamped: an error, not an empty table.
        assert!(overlap(&runs[4..]).is_err());
    }

    #[test]
    fn pearson_accumulator_matches_closed_form() {
        let mut acc = PearsonAcc::default();
        for (x, y) in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)] {
            acc.push(x, y);
        }
        assert!((acc.r().unwrap() - 1.0).abs() < 1e-12);
        let mut anti = PearsonAcc::default();
        for (x, y) in [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)] {
            anti.push(x, y);
        }
        assert!((anti.r().unwrap() + 1.0).abs() < 1e-12);
        // Degenerate axis: no coefficient.
        let mut flat = PearsonAcc::default();
        for x in [1.0, 2.0, 3.0] {
            flat.push(x, 5.0);
        }
        assert_eq!(flat.r(), None);
        // Under 3 points: no coefficient.
        let mut two = PearsonAcc::default();
        two.push(1.0, 1.0);
        two.push(2.0, 2.0);
        assert_eq!(two.r(), None);
    }
}
