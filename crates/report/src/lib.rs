//! # adios-report — render and diff `adios.metrics` documents
//!
//! The simulator dumps one deterministic JSON document per run
//! (schema `adios.metrics/2`, or `/3` for the multi-job service, whose
//! job-level SLOs render as a first-class `[service SLO]` block). This
//! crate turns such a document into a terminal dashboard — per-phase table, histogram quantiles with
//! bucket sparklines, sim-time series sparklines — and diffs two
//! documents section by section so two scheduler configurations can be
//! compared without leaving the shell.
//!
//! The library half is pure (`&Json` in, `String` out) so the render
//! and diff logic is unit-testable; `src/main.rs` only does argv and
//! file I/O.

#![warn(missing_docs)]

pub mod store;

use simcore::Json;
use std::fmt::Write as _;

/// Sparkline alphabet, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Maximum sparkline width; longer series are max-downsampled.
const SPARK_WIDTH: usize = 60;

/// Render a sequence of non-negative samples as a sparkline, scaled to
/// the sequence's own maximum. Empty input renders as `(empty)`.
pub fn sparkline(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "(empty)".to_string();
    }
    // Max-downsample so wide series still fit a terminal row.
    let chunk = xs.len().div_ceil(SPARK_WIDTH);
    let folded: Vec<f64> = xs
        .chunks(chunk)
        .map(|c| c.iter().cloned().fold(0.0_f64, f64::max))
        .collect();
    let top = folded.iter().cloned().fold(0.0_f64, f64::max);
    folded
        .iter()
        .map(|&x| {
            if top <= 0.0 || x <= 0.0 {
                SPARKS[0]
            } else {
                let i = ((x / top) * (SPARKS.len() - 1) as f64).round() as usize;
                SPARKS[i.min(SPARKS.len() - 1)]
            }
        })
        .collect()
}

/// Format a value whose unit is implied by the metric name: `*_ns`
/// render as human durations, `*_s` as seconds, everything else with
/// shortest-float formatting.
pub fn fmt_value(name: &str, x: f64) -> String {
    if name.ends_with("_ns") {
        fmt_duration_ns(x)
    } else if name.ends_with("_s") {
        format!("{:.3}s", x)
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{:.4}", x)
    }
}

/// Human duration from nanoseconds.
pub fn fmt_duration_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{}ns", ns as i64)
    }
}

fn f(v: &Json) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

/// Is this object a serialized `simcore::Histogram`?
fn is_hist(v: &Json) -> bool {
    v.get("p999").is_some() && v.get("buckets").map(|b| b.as_arr().is_some()) == Some(true)
}

/// Is this object a serialized `simcore::TimeSeries`?
fn is_series(v: &Json) -> bool {
    v.get("bucket_ns").is_some() && v.get("kind").is_some()
}

/// Reconstruct per-bucket display values of a serialized time series:
/// mean series divide sum by count, rate series divide by the bucket
/// width in seconds (values per second).
fn series_values(v: &Json) -> Vec<f64> {
    let sums = v.get("sum").and_then(Json::as_arr).unwrap_or(&[]);
    let counts = v.get("count").and_then(Json::as_arr).unwrap_or(&[]);
    let bucket_s = v.get("bucket_ns").map(f).unwrap_or(1.0) / 1e9;
    let rate = v.get("kind").and_then(Json::as_str) == Some("rate");
    sums.iter()
        .zip(counts.iter())
        .map(|(s, c)| {
            let (s, c) = (f(s), f(c));
            if rate {
                s / bucket_s.max(1e-12)
            } else if c > 0.0 {
                s / c
            } else {
                0.0
            }
        })
        .collect()
}

fn render_hist(out: &mut String, name: &str, h: &Json) {
    let count = h.get("count").map(f).unwrap_or(0.0);
    if count == 0.0 {
        let _ = writeln!(out, "  {name:<24} (empty)");
        return;
    }
    let _ = writeln!(
        out,
        "  {name:<24} n={:<8} mean={:<10} p50={:<10} p90={:<10} p99={:<10} p999={}",
        count as u64,
        fmt_value(name, h.get("mean").map(f).unwrap_or(0.0)),
        fmt_value(name, h.get("p50").map(f).unwrap_or(0.0)),
        fmt_value(name, h.get("p90").map(f).unwrap_or(0.0)),
        fmt_value(name, h.get("p99").map(f).unwrap_or(0.0)),
        fmt_value(name, h.get("p999").map(f).unwrap_or(0.0)),
    );
    let buckets = h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]);
    let counts: Vec<f64> = buckets
        .iter()
        .map(|pair| pair.as_arr().and_then(|p| p.get(1)).map(f).unwrap_or(0.0))
        .collect();
    let lo = fmt_value(name, h.get("min").map(f).unwrap_or(0.0));
    let hi = fmt_value(name, h.get("max").map(f).unwrap_or(0.0));
    let _ = writeln!(out, "  {:<24} {} [{lo} … {hi}]", "", sparkline(&counts));
}

fn render_series(out: &mut String, name: &str, s: &Json) {
    let values = series_values(s);
    let peak = values.iter().cloned().fold(0.0_f64, f64::max);
    let bucket_s = s.get("bucket_ns").map(f).unwrap_or(0.0) / 1e9;
    let kind = s.get("kind").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(
        out,
        "  {name:<24} {} peak={:.3} ({kind}/{}s buckets)",
        sparkline(&values),
        peak,
        bucket_s,
    );
}

/// Render any plain (gauge/summary) section as `key: value` rows,
/// flattening one level of nested objects with dotted keys.
fn render_plain(out: &mut String, fields: &[(String, Json)]) {
    for (k, v) in fields {
        match v {
            Json::Obj(inner) => {
                let row: Vec<String> = inner
                    .iter()
                    .filter_map(|(ik, iv)| iv.as_f64().map(|x| format!("{ik}={}", fmt_value(ik, x))))
                    .collect();
                if row.is_empty() {
                    let _ = writeln!(out, "  {k:<24} {}", v.to_string());
                } else {
                    let _ = writeln!(out, "  {k:<24} {}", row.join(" "));
                }
            }
            Json::Arr(_) => {
                let _ = writeln!(out, "  {k:<24} {}", v.to_string());
            }
            other => {
                let shown = other
                    .as_f64()
                    .map(|x| fmt_value(k, x))
                    .unwrap_or_else(|| other.to_string());
                let _ = writeln!(out, "  {k:<24} {shown}");
            }
        }
    }
}

/// One row per record of a benchmark `results` array: every field on
/// one line, numbers through [`fmt_value`], strings verbatim.
fn render_rows(out: &mut String, rows: &[Json]) {
    for r in rows {
        let Some(fields) = r.entries() else { continue };
        let line: Vec<String> = fields
            .iter()
            .map(|(k, v)| match v.as_f64() {
                Some(x) => format!("{k}={}", fmt_value(k, x)),
                None => format!(
                    "{k}={}",
                    v.as_str().map(str::to_string).unwrap_or_else(|| v.to_string())
                ),
            })
            .collect();
        let _ = writeln!(out, "  {}", line.join(" "));
    }
}

/// Render a metrics or benchmark document as a terminal dashboard.
/// Errors unless the document carries a recognised `adios.metrics` or
/// `adios.bench` schema. Benchmark documents (`criterion_micro`,
/// `bench_sweep`) render their `results` array as one row per record
/// and trailing scalars (headline numbers) as a summary section.
pub fn render(doc: &Json) -> Result<String, String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| "document has no \"schema\" field".to_string())?;
    if schema == "adios.profile/1" {
        return render_profile(doc);
    }
    if schema == "adios.flight/1" {
        return render_flight(doc);
    }
    if !schema.starts_with("adios.metrics/") && !schema.starts_with("adios.bench/") {
        return Err(format!("unsupported schema {schema:?}"));
    }
    let mut out = String::new();
    match doc.get("telemetry").and_then(Json::as_str) {
        Some(t) => {
            let _ = writeln!(out, "== {schema} (telemetry: {t}) ==");
        }
        None => {
            let _ = writeln!(out, "== {schema} ==");
        }
    }
    // Multi-job service documents lead with the four numbers the
    // service is judged on, ahead of the generic section dump.
    if schema == "adios.metrics/3" && doc.get("kind").and_then(Json::as_str) == Some("service") {
        let g = |path: &[&str]| -> f64 {
            let mut v = doc;
            for k in path {
                match v.get(k) {
                    Some(inner) => v = inner,
                    None => return 0.0,
                }
            }
            f(v)
        };
        let _ = writeln!(out, "\n[service SLO]");
        let _ = writeln!(
            out,
            "  {:<24} {}",
            "policy",
            doc.get("policy").and_then(Json::as_str).unwrap_or("?")
        );
        let _ = writeln!(
            out,
            "  {:<24} p50={:.3}s p99={:.3}s",
            "job latency",
            g(&["latency", "p50_s"]),
            g(&["latency", "p99_s"]),
        );
        let _ = writeln!(
            out,
            "  {:<24} {:.2} jobs/min (completed {} of {} arrivals)",
            "throughput",
            g(&["service", "throughput_jpm"]),
            g(&["service", "completed"]) as u64,
            g(&["service", "arrivals"]) as u64,
        );
        let _ = writeln!(
            out,
            "  {:<24} map={:.2} reduce={:.2}",
            "slot utilization",
            g(&["slots", "map_util"]),
            g(&["slots", "reduce_util"]),
        );
    }
    let mut scalars: Vec<(String, Json)> = Vec::new();
    for (section, value) in doc.entries().unwrap_or(&[]) {
        if section == "schema" || section == "telemetry" {
            continue; // already in the banner
        }
        if let Some(rows) = value.as_arr() {
            let _ = writeln!(out, "\n[{section}]");
            render_rows(&mut out, rows);
            continue;
        }
        let fields = match value.entries() {
            Some(fields) => fields,
            None => {
                // Top-level scalars (bench headline numbers): collect
                // into one summary section at the end.
                scalars.push((section.clone(), value.clone()));
                continue;
            }
        };
        let _ = writeln!(out, "\n[{section}]");
        for (name, v) in fields {
            if is_hist(v) {
                render_hist(&mut out, name, v);
            } else if is_series(v) {
                render_series(&mut out, name, v);
            } else {
                render_plain(&mut out, std::slice::from_ref(&(name.clone(), v.clone())));
            }
        }
    }
    if !scalars.is_empty() {
        let _ = writeln!(out, "\n[summary]");
        render_plain(&mut out, &scalars);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// adios.profile/1 — span profiler documents
// ---------------------------------------------------------------------

/// One flattened span row of a profile document.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Span name (`subsystem.detail`).
    pub name: String,
    /// Nesting depth (0 = top-level span).
    pub depth: usize,
    /// Times the span was entered.
    pub calls: u64,
    /// Wall time including children, ns.
    pub total_ns: u64,
    /// Wall time excluding children, ns.
    pub self_ns: u64,
}

fn walk_profile_spans(spans: &[Json], depth: usize, out: &mut Vec<ProfileRow>) {
    for s in spans {
        out.push(ProfileRow {
            name: s.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
            depth,
            calls: s.get("calls").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
            total_ns: s.get("total_ns").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
            self_ns: s.get("self_ns").and_then(Json::as_i64).unwrap_or(0).max(0) as u64,
        });
        if let Some(kids) = s.get("children").and_then(Json::as_arr) {
            walk_profile_spans(kids, depth + 1, out);
        }
    }
}

/// Flatten an `adios.profile/1` document to depth-annotated rows
/// (pre-order, children after their parent).
pub fn profile_rows(doc: &Json) -> Result<Vec<ProfileRow>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("adios.profile/1") {
        return Err("not an adios.profile document".into());
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or_else(|| "profile document has no spans array".to_string())?;
    let mut rows = Vec::new();
    walk_profile_spans(spans, 0, &mut rows);
    Ok(rows)
}

/// Per-subsystem share of measured self-time, percent, sorted
/// descending then by name. The subsystem of a span is the text before
/// the first `.` of its name. Empty when the profile carries no wall
/// time (telemetry off, or a skeleton document).
pub fn profile_subsystem_shares(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let rows = profile_rows(doc)?;
    let mut by_sub: Vec<(String, u64)> = Vec::new();
    for r in &rows {
        if r.self_ns == 0 {
            continue;
        }
        let sub = r.name.split('.').next().unwrap_or(&r.name).to_string();
        match by_sub.iter_mut().find(|(s, _)| *s == sub) {
            Some(e) => e.1 += r.self_ns,
            None => by_sub.push((sub, r.self_ns)),
        }
    }
    let total: u64 = by_sub.iter().map(|&(_, ns)| ns).sum();
    if total == 0 {
        return Ok(Vec::new());
    }
    let mut shares: Vec<(String, f64)> = by_sub
        .into_iter()
        .map(|(s, ns)| (s, 100.0 * ns as f64 / total as f64))
        .collect();
    shares.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    Ok(shares)
}

/// Render an `adios.profile/1` document: a subsystem share summary
/// followed by the flame-style span table (indent = nesting, share =
/// self-time over all measured self-time).
fn render_profile(doc: &Json) -> Result<String, String> {
    let rows = profile_rows(doc)?;
    let shares = profile_subsystem_shares(doc)?;
    let total: u64 = rows.iter().map(|r| r.self_ns).sum();
    let mut out = String::new();
    let _ = writeln!(out, "== adios.profile/1 ==");
    if shares.is_empty() {
        let _ = writeln!(
            out,
            "\n(no wall time recorded — structural skeleton or telemetry off)"
        );
    } else {
        let _ = writeln!(out, "\n[subsystems]  (share of measured self-time)");
        for (name, pct) in &shares {
            let bar_len = (pct / 2.5).round() as usize;
            let _ = writeln!(out, "  {name:<12} {pct:5.1}%  {}", "#".repeat(bar_len));
        }
    }
    let _ = writeln!(out, "\n[spans]");
    let _ = writeln!(
        out,
        "  {:<40} {:>12} {:>10} {:>10} {:>7}",
        "name", "calls", "total", "self", "share%"
    );
    for r in &rows {
        let name = format!("{}{}", "  ".repeat(r.depth), r.name);
        let share = if total > 0 {
            100.0 * r.self_ns as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {:<40} {:>12} {:>10} {:>10} {:>7.1}",
            name,
            r.calls,
            fmt_duration_ns(r.total_ns as f64),
            fmt_duration_ns(r.self_ns as f64),
            share,
        );
    }
    Ok(out)
}

/// Render an `adios.flight/1` crash-dump document: the fault header,
/// the snapshot timeline, and per-trace record counts.
fn render_flight(doc: &Json) -> Result<String, String> {
    let mut out = String::new();
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(out, "== adios.flight/1 (reason: {reason}) ==");
    let g = |k: &str| doc.get(k).and_then(Json::as_i64).unwrap_or(0);
    let _ = writeln!(
        out,
        "  cluster: {} nodes x {} VMs, {} events processed, t={:.3}s",
        g("nodes"),
        g("vms"),
        g("events"),
        doc.get("t_s").and_then(Json::as_f64).unwrap_or(0.0),
    );
    if let Some(snaps) = doc.get("snapshots").and_then(Json::as_arr) {
        let _ = writeln!(out, "\n[snapshots]  ({} retained)", snaps.len());
        for s in snaps {
            let sg = |k: &str| s.get(k).and_then(Json::as_i64).unwrap_or(0);
            let _ = writeln!(
                out,
                "  t={:>9.3}s events={:>10} queue={:>7} streams={:>5} flows={:>5} \
                 maps={:>4.0}% reduces={:>4.0}%",
                s.get("t_s").and_then(Json::as_f64).unwrap_or(0.0),
                sg("events"),
                sg("queue"),
                sg("streams"),
                sg("flows"),
                s.get("maps_done_frac").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
                s.get("reduces_done_frac").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
            );
        }
    }
    let trace_line = |out: &mut String, label: &str, t: &Json| {
        let retained = t.get("records").and_then(Json::as_arr).map_or(0, <[Json]>::len);
        let _ = writeln!(
            out,
            "  {:<16} {} records retained ({} total, {} dropped)",
            label,
            retained,
            t.get("total").and_then(Json::as_i64).unwrap_or(0),
            t.get("dropped").and_then(Json::as_i64).unwrap_or(0),
        );
    };
    let _ = writeln!(out, "\n[traces]");
    if let Some(t) = doc.get("cluster_trace") {
        trace_line(&mut out, "cluster", t);
    }
    if let Some(nodes) = doc.get("node_traces").and_then(Json::as_arr) {
        for (i, t) in nodes.iter().enumerate() {
            trace_line(&mut out, &format!("node{i}"), t);
        }
    }
    Ok(out)
}

/// Compare the subsystem shares of two `adios.profile/1` documents.
/// Returns the rendered table and whether any subsystem's share moved
/// by more than `threshold_pct` percentage points (the
/// `--fail-on-share-delta` CI gate; a self-diff never trips it).
pub fn diff_profile_shares(
    a: &Json,
    b: &Json,
    threshold_pct: f64,
) -> Result<(String, bool), String> {
    let sa = profile_subsystem_shares(a)?;
    let sb = profile_subsystem_shares(b)?;
    let mut names: Vec<&String> = sa.iter().map(|(n, _)| n).collect();
    for (n, _) in &sb {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    let share = |xs: &[(String, f64)], n: &str| {
        xs.iter().find(|(s, _)| s == n).map(|&(_, p)| p).unwrap_or(0.0)
    };
    let mut out = String::new();
    let mut tripped = false;
    let _ = writeln!(out, "subsystem share deltas (gate: {threshold_pct:.1} pct-points):");
    for n in names {
        let (pa, pb) = (share(&sa, n), share(&sb, n));
        let delta = pb - pa;
        let mark = if delta.abs() > threshold_pct {
            tripped = true;
            "  << exceeds gate"
        } else {
            ""
        };
        let _ = writeln!(out, "  {n:<12} {pa:5.1}% -> {pb:5.1}%  ({delta:+5.1}){mark}");
    }
    if !tripped {
        let _ = writeln!(out, "all subsystem shares within gate");
    }
    Ok((out, tripped))
}

/// Outcome of replaying a flight-recorder dump through the trace
/// oracle.
#[derive(Debug)]
pub struct FlightReplay {
    /// Rendered report (per-trace verdicts plus violation lines).
    pub text: String,
    /// Total violations found across all embedded traces.
    pub violations: usize,
}

/// Decode every trace embedded in an `adios.flight/1` document and
/// replay each through a fresh [`simcore::TraceOracle`]. A dump taken
/// at a fault reproduces the violation here — the post-mortem is
/// checkable offline, away from the run that died.
pub fn replay_flight(doc: &Json) -> Result<FlightReplay, String> {
    use simcore::trace::TraceRecord;
    if doc.get("schema").and_then(Json::as_str) != Some("adios.flight/1") {
        return Err("not an adios.flight document".into());
    }
    let mut out = String::new();
    let mut total_violations = 0usize;
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(out, "replaying flight dump (reason: {reason})");
    let mut replay_one = |label: &str, t: &Json| -> Result<(), String> {
        let recs_json = t
            .get("records")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{label}: trace has no records array"))?;
        let records: Vec<TraceRecord> = recs_json
            .iter()
            .map(TraceRecord::from_json)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| format!("{label}: undecodable trace record"))?;
        let mut oracle = simcore::TraceOracle::default();
        oracle.replay_records(&records);
        let v = oracle.violations();
        if v.is_empty() {
            let _ = writeln!(out, "  {label:<16} {} records: clean", records.len());
        } else {
            let _ = writeln!(
                out,
                "  {label:<16} {} records: {} violation(s)",
                records.len(),
                v.len()
            );
            for msg in v {
                let _ = writeln!(out, "    - {msg}");
            }
            total_violations += v.len();
        }
        Ok(())
    };
    if let Some(t) = doc.get("cluster_trace") {
        replay_one("cluster", t)?;
    }
    if let Some(nodes) = doc.get("node_traces").and_then(Json::as_arr) {
        for (i, t) in nodes.iter().enumerate() {
            replay_one(&format!("node{i}"), t)?;
        }
    }
    let _ = writeln!(
        out,
        "{}",
        if total_violations == 0 {
            "flight replay clean".to_string()
        } else {
            format!("flight replay found {total_violations} violation(s)")
        }
    );
    Ok(FlightReplay { text: out, violations: total_violations })
}

/// One numeric difference surfaced by [`diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Dotted path (`section.metric.field`).
    pub path: String,
    /// Value in the first document.
    pub a: f64,
    /// Value in the second document.
    pub b: f64,
}

impl Delta {
    /// Relative change, percent (0 when the base is 0).
    pub fn pct(&self) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            100.0 * (self.b - self.a) / self.a
        }
    }
}

/// Collect numeric leaf differences between two JSON trees. Arrays are
/// compared as aggregates (element sum) so bucket vectors produce one
/// row instead of hundreds; string/bool leaves count as a difference
/// when unequal (reported with a/b = 0/1).
fn walk_diff(path: &str, a: &Json, b: &Json, out: &mut Vec<Delta>) {
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, va) in fa {
                let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => walk_diff(&sub, va, vb, out),
                    None => walk_diff(&sub, va, &Json::Null, out),
                }
            }
            for (k, vb) in fb {
                if !fa.iter().any(|(ka, _)| ka == k) {
                    let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    walk_diff(&sub, &Json::Null, vb, out);
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            let sum = |xs: &[Json]| -> f64 {
                xs.iter()
                    .map(|x| match x {
                        Json::Arr(inner) => inner.iter().filter_map(Json::as_f64).sum(),
                        other => other.as_f64().unwrap_or(0.0),
                    })
                    .sum()
            };
            let (sa, sb) = (sum(xa), sum(xb));
            if sa != sb || xa.len() != xb.len() {
                out.push(Delta { path: format!("{path}[Σ]"), a: sa, b: sb });
            }
        }
        _ => {
            let (na, nb) = (a.as_f64(), b.as_f64());
            match (na, nb) {
                (Some(x), Some(y)) if x != y => out.push(Delta { path: path.into(), a: x, b: y }),
                (Some(_), Some(_)) => {}
                _ => {
                    // Non-numeric leaves (strings, bools, null vs value).
                    if a != b {
                        out.push(Delta { path: path.into(), a: 0.0, b: 1.0 });
                    }
                }
            }
        }
    }
}

/// Diff two metrics documents. Returns the rendered per-section report
/// and the list of differing leaves (empty for identical documents —
/// the CI self-diff gate).
pub fn diff(a: &Json, b: &Json) -> (String, Vec<Delta>) {
    let mut deltas = Vec::new();
    walk_diff("", a, b, &mut deltas);
    let mut out = String::new();
    if deltas.is_empty() {
        out.push_str("documents are identical\n");
        return (out, deltas);
    }
    // Headline: per-phase p99 guest latency, the paper's comparison axis.
    let p99: Vec<&Delta> = deltas
        .iter()
        .filter(|d| d.path.starts_with("hist.guest_lat_ph") && d.path.ends_with(".p99"))
        .collect();
    if !p99.is_empty() {
        out.push_str("guest latency p99 by phase:\n");
        for d in p99 {
            let _ = writeln!(
                out,
                "  {:<28} {} -> {}  ({:+.1}%)",
                d.path,
                fmt_duration_ns(d.a),
                fmt_duration_ns(d.b),
                d.pct(),
            );
        }
        out.push('\n');
    }
    let mut section = String::new();
    for d in &deltas {
        let top = d.path.split('.').next().unwrap_or("").to_string();
        if top != section {
            let _ = writeln!(out, "[{top}]");
            section = top;
        }
        let leaf = d.path.rsplit('.').next().unwrap_or(&d.path);
        let _ = writeln!(
            out,
            "  {:<40} {:>14} -> {:<14} ({:+.1}%)",
            d.path.split_once('.').map_or(d.path.as_str(), |(_, rest)| rest),
            fmt_value(leaf, d.a),
            fmt_value(leaf, d.b),
            d.pct(),
        );
    }
    let _ = writeln!(out, "\n{} differing values", deltas.len());
    (out, deltas)
}

/// Structural walk for [`diff_shape`]: record keys present on only one
/// side and container/scalar type flips; never compare leaf values.
fn walk_shape(path: &str, a: &Json, b: &Json, out: &mut Vec<Delta>) {
    let sub = |k: &str| {
        if path.is_empty() {
            k.to_string()
        } else {
            format!("{path}.{k}")
        }
    };
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, va) in fa {
                match fb.iter().find(|(kb, _)| kb == k) {
                    Some((_, vb)) => walk_shape(&sub(k), va, vb, out),
                    None => out.push(Delta { path: sub(k), a: 1.0, b: 0.0 }),
                }
            }
            for (k, _) in fb {
                if !fa.iter().any(|(ka, _)| ka == k) {
                    out.push(Delta { path: sub(k), a: 0.0, b: 1.0 });
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            fn name(x: &Json) -> Option<&str> {
                x.get("name").and_then(Json::as_str)
            }
            if xa.iter().all(|x| name(x).is_some()) && xb.iter().all(|x| name(x).is_some()) {
                // Arrays of named records (benchmark results): match by
                // name so reorderings don't count and renames do.
                for x in xa {
                    let n = name(x).expect("checked");
                    match xb.iter().find(|y| name(y) == Some(n)) {
                        Some(y) => walk_shape(&sub(&format!("[{n}]")), x, y, out),
                        None => out.push(Delta { path: sub(&format!("[{n}]")), a: 1.0, b: 0.0 }),
                    }
                }
                for y in xb {
                    let n = name(y).expect("checked");
                    if !xa.iter().any(|x| name(x) == Some(n)) {
                        out.push(Delta { path: sub(&format!("[{n}]")), a: 0.0, b: 1.0 });
                    }
                }
            } else if xa.len() != xb.len() {
                out.push(Delta {
                    path: format!("{path}[len]"),
                    a: xa.len() as f64,
                    b: xb.len() as f64,
                });
            }
        }
        // A container on one side only is a shape change even though
        // the leaf values inside it are not compared.
        (Json::Obj(_) | Json::Arr(_), _) | (_, Json::Obj(_) | Json::Arr(_)) => {
            out.push(Delta { path: path.to_string(), a: 1.0, b: 1.0 });
        }
        _ => {} // scalar leaves: values are allowed to drift
    }
}

/// Structurally diff two documents: which keys / named benchmark
/// entries exist, not what their values are. This is the CI gate for
/// committed benchmark baselines — timings drift from machine to
/// machine, but the set of benchmarks and recorded fields must not, so
/// `adios-report diff --shape --fail-on-delta` catches a bench being
/// dropped or renamed without failing on every timing wobble.
pub fn diff_shape(a: &Json, b: &Json) -> (String, Vec<Delta>) {
    let mut deltas = Vec::new();
    walk_shape("", a, b, &mut deltas);
    let mut out = String::new();
    if deltas.is_empty() {
        out.push_str("documents have identical shape\n");
        return (out, deltas);
    }
    for d in &deltas {
        let what = match (d.a > 0.0, d.b > 0.0) {
            (true, false) => "only in first",
            (false, true) => "only in second",
            _ => "type or length mismatch",
        };
        let _ = writeln!(out, "  {:<48} {what}", d.path);
    }
    let _ = writeln!(out, "\n{} shape differences", deltas.len());
    (out, deltas)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        let mut h = simcore::Histogram::new();
        for v in [1_000u64, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        let mut s = simcore::TimeSeries::standard(simcore::SeriesKind::Mean);
        s.record(simcore::SimTime::from_millis(100), 3.0);
        s.record(simcore::SimTime::from_millis(600), 5.0);
        Json::obj()
            .field("schema", "adios.metrics/2")
            .field("telemetry", "full")
            .field("run", Json::obj().field("makespan_s", 10.5).field("nodes", 2u32))
            .field("hist", Json::obj().field("guest_lat_ph1_ns", h.to_json()))
            .field("series", Json::obj().field("dom0_qdepth", s.to_json()))
    }

    #[test]
    fn render_shows_sections_quantiles_and_sparklines() {
        let text = render(&sample_doc()).unwrap();
        assert!(text.contains("adios.metrics/2"), "{text}");
        assert!(text.contains("[run]"), "{text}");
        assert!(text.contains("guest_lat_ph1_ns"), "{text}");
        assert!(text.contains("p99="), "{text}");
        assert!(text.contains("dom0_qdepth"), "{text}");
        assert!(text.chars().any(|c| SPARKS.contains(&c)), "{text}");
    }

    #[test]
    fn render_service_docs_with_first_class_slo_block() {
        let doc = Json::obj()
            .field("schema", "adios.metrics/3")
            .field("kind", "service")
            .field("policy", "adaptive")
            .field(
                "service",
                Json::obj()
                    .field("throughput_jpm", 7.5)
                    .field("completed", 120u64)
                    .field("arrivals", 125u64),
            )
            .field(
                "latency",
                Json::obj().field("p50_s", 20.0).field("p99_s", 45.0),
            )
            .field(
                "slots",
                Json::obj().field("map_util", 0.8).field("reduce_util", 0.6),
            );
        let text = render(&doc).unwrap();
        assert!(text.contains("[service SLO]"), "{text}");
        assert!(text.contains("p50=20.000s p99=45.000s"), "{text}");
        assert!(text.contains("7.50 jobs/min (completed 120 of 125 arrivals)"), "{text}");
        assert!(text.contains("map=0.80 reduce=0.60"), "{text}");
        // The SLO block must come before the generic sections.
        assert!(
            text.find("[service SLO]").unwrap() < text.find("[service]").unwrap(),
            "{text}"
        );
    }

    #[test]
    fn render_rejects_foreign_documents() {
        assert!(render(&Json::obj().field("schema", "other/1")).is_err());
        assert!(render(&Json::obj().field("x", 1u32)).is_err());
    }

    #[test]
    fn self_diff_is_empty() {
        let doc = sample_doc();
        let (text, deltas) = diff(&doc, &doc);
        assert!(deltas.is_empty(), "{text}");
        assert!(text.contains("identical"));
    }

    #[test]
    fn diff_reports_p99_headline_and_counts() {
        let a = sample_doc();
        let mut h = simcore::Histogram::new();
        for v in [2_000u64, 4_000, 8_000, 2_000_000] {
            h.record(v);
        }
        let b = Json::obj()
            .field("schema", "adios.metrics/2")
            .field("telemetry", "full")
            .field("run", Json::obj().field("makespan_s", 9.0).field("nodes", 2u32))
            .field("hist", Json::obj().field("guest_lat_ph1_ns", h.to_json()))
            .field(
                "series",
                a.get("series").cloned().unwrap_or_else(Json::obj),
            );
        let (text, deltas) = diff(&a, &b);
        assert!(!deltas.is_empty());
        assert!(text.contains("guest latency p99 by phase"), "{text}");
        assert!(text.contains("makespan_s"), "{text}");
        assert!(text.contains("differing values"), "{text}");
    }

    fn bench_doc(names: &[&str], mean: f64) -> Json {
        let results: Vec<Json> = names
            .iter()
            .map(|n| Json::obj().field("name", *n).field("mean_ns", mean).field("iters", 60u32))
            .collect();
        Json::obj()
            .field("schema", "adios.bench/1")
            .field("results", Json::Arr(results))
    }

    #[test]
    fn render_bench_documents_as_rows_and_summary() {
        let doc = bench_doc(&["push_pop", "cache_hit"], 1500.0)
            .field("kind", "sweep")
            .field("speedup", 13.2);
        let text = render(&doc).unwrap();
        assert!(text.contains("adios.bench/1"), "{text}");
        assert!(text.contains("[results]"), "{text}");
        assert!(text.contains("name=push_pop"), "{text}");
        assert!(text.contains("mean_ns=1.50µs"), "{text}");
        assert!(text.contains("[summary]"), "{text}");
        assert!(text.contains("speedup"), "{text}");
    }

    #[test]
    fn shape_diff_ignores_value_drift() {
        let a = bench_doc(&["push_pop", "cache_hit"], 100.0);
        let b = bench_doc(&["cache_hit", "push_pop"], 250.0); // reordered + retimed
        let (text, deltas) = diff_shape(&a, &b);
        assert!(deltas.is_empty(), "{text}");
        assert!(text.contains("identical shape"));
    }

    #[test]
    fn shape_diff_catches_dropped_and_renamed_benches() {
        let a = bench_doc(&["push_pop", "cache_hit"], 100.0);
        let b = bench_doc(&["push_pop"], 100.0);
        let (text, deltas) = diff_shape(&a, &b);
        assert_eq!(deltas.len(), 1, "{text}");
        assert!(deltas[0].path.contains("cache_hit"));
        assert!(text.contains("only in first"), "{text}");

        let c = bench_doc(&["push_pop", "cache_hit_1k"], 100.0);
        let (_, deltas) = diff_shape(&a, &c);
        assert_eq!(deltas.len(), 2); // old name gone + new name appeared
    }

    #[test]
    fn shape_diff_catches_missing_fields_and_type_flips() {
        let a = Json::obj().field("run", Json::obj().field("makespan_s", 1.0));
        let b = Json::obj().field("run", Json::obj());
        assert_eq!(diff_shape(&a, &b).1.len(), 1);
        let c = Json::obj().field("run", 3u32);
        let (text, deltas) = diff_shape(&a, &c);
        assert_eq!(deltas.len(), 1);
        assert!(text.contains("type or length mismatch"), "{text}");
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        assert_eq!(sparkline(&[]), "(empty)");
        let s = sparkline(&[0.0, 1.0, 8.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
        let long: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert!(sparkline(&long).chars().count() <= SPARK_WIDTH);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration_ns(500.0), "500ns");
        assert_eq!(fmt_duration_ns(1_500.0), "1.50µs");
        assert_eq!(fmt_duration_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_duration_ns(3_000_000_000.0), "3.000s");
    }
}
