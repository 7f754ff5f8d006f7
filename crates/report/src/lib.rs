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

use simcore::Json;
use std::collections::HashMap;
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

/// The `[service SLO]` block of a service document. A missing or
/// mistyped field is an error naming its path, e.g.
/// `latency.p50_s: expected a number`.
fn render_service_slo(out: &mut String, doc: &Json) -> Result<(), String> {
    let at = |path: &[&str]| path.iter().try_fold(doc, |v, k| v.get(k));
    let num = |path: &[&str]| {
        at(path)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: expected a number", path.join(".")))
    };
    let count = |path: &[&str]| {
        at(path)
            .and_then(Json::as_i64)
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| format!("{}: expected a non-negative integer", path.join(".")))
    };
    let (p50, p99) = (num(&["latency", "p50_s"])?, num(&["latency", "p99_s"])?);
    let throughput = num(&["service", "throughput_jpm"])?;
    let (completed, arrivals) = (count(&["service", "completed"])?, count(&["service", "arrivals"])?);
    let (map_util, reduce_util) = (num(&["slots", "map_util"])?, num(&["slots", "reduce_util"])?);
    let policy = doc
        .get("policy")
        .and_then(Json::as_str)
        .ok_or_else(|| "policy: expected a string".to_string())?;
    let _ = writeln!(out, "\n[service SLO]");
    let _ = writeln!(out, "  {:<24} {policy}", "policy");
    let _ = writeln!(out, "  {:<24} p50={p50:.3}s p99={p99:.3}s", "job latency");
    let _ = writeln!(
        out,
        "  {:<24} {throughput:.2} jobs/min (completed {completed} of {arrivals} arrivals)",
        "throughput"
    );
    let _ = writeln!(out, "  {:<24} map={map_util:.2} reduce={reduce_util:.2}", "slot utilization");
    Ok(())
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
        render_service_slo(&mut out, doc)?;
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
    /// Event counters attributed to the span, in document order.
    pub counters: Vec<(String, u64)>,
}

fn walk_profile_spans(
    spans: &[Json],
    path: &str,
    depth: usize,
    out: &mut Vec<ProfileRow>,
) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let at = format!("{path}[{i}]");
        if s.entries().is_none() {
            return Err(format!("{at}: expected an object"));
        }
        let count = |field: &str, v: Option<&Json>| {
            v.and_then(Json::as_i64)
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| format!("{at}.{field}: expected a non-negative integer"))
        };
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}.name: expected a string"))?;
        let calls = count("calls", s.get("calls"))?;
        // Skeleton documents omit the wall-clock fields.
        let wall = |field: &str| s.get(field).map_or(Ok(0), |v| count(field, Some(v)));
        let (total_ns, self_ns) = (wall("total_ns")?, wall("self_ns")?);
        let counters = match s.get("counters") {
            None => Vec::new(),
            Some(c) => c
                .entries()
                .ok_or_else(|| format!("{at}.counters: expected an object"))?
                .iter()
                .map(|(k, v)| Ok((k.clone(), count(&format!("counters.{k}"), Some(v))?)))
                .collect::<Result<_, String>>()?,
        };
        out.push(ProfileRow { name: name.to_string(), depth, calls, total_ns, self_ns, counters });
        if let Some(kids) = s.get("children") {
            let kids = kids
                .as_arr()
                .ok_or_else(|| format!("{at}.children: expected an array"))?;
            walk_profile_spans(kids, &format!("{at}.children"), depth + 1, out)?;
        }
    }
    Ok(())
}

/// Flatten an `adios.profile/1` document to depth-annotated rows
/// (pre-order, children after their parent). A malformed span is an
/// error naming its path, e.g. `spans[0].name: expected a string`:
/// every span needs a string `name` and a non-negative integer
/// `calls`; `total_ns`, `self_ns` and `counters` values, when present,
/// must be non-negative integers, and `children` an array.
pub fn profile_rows(doc: &Json) -> Result<Vec<ProfileRow>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("adios.profile/1") {
        return Err("not an adios.profile document".into());
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or_else(|| "profile document has no spans array".to_string())?;
    let mut rows = Vec::new();
    walk_profile_spans(spans, "spans", 0, &mut rows)?;
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
/// self-time over all measured self-time). A span's counters follow
/// its row on one indented `name=value` line.
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
        if !r.counters.is_empty() {
            let ctrs: Vec<String> = r.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "  {}  {}", "  ".repeat(r.depth), ctrs.join(" "));
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

/// Which documents hold a [`Delta`]'s path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Both documents: `a` and `b` hold the two values.
    Both,
    /// The first document only.
    OnlyFirst,
    /// The second document only.
    OnlySecond,
}

/// One difference surfaced by [`diff`] or [`diff_shape`].
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Dotted path (`section.metric.field`).
    pub path: String,
    /// Value in the first document (0 when it has none).
    pub a: f64,
    /// Value in the second document (0 when it has none).
    pub b: f64,
    /// Which documents hold the path.
    pub presence: Presence,
}

impl Delta {
    /// A path both documents hold, with its two values.
    fn both(path: String, a: f64, b: f64) -> Delta {
        Delta { path, a, b, presence: Presence::Both }
    }

    /// A path only the first document (`in_first`) or only the second
    /// holds.
    fn one_sided(path: String, in_first: bool) -> Delta {
        let presence = if in_first { Presence::OnlyFirst } else { Presence::OnlySecond };
        Delta { path, a: 0.0, b: 0.0, presence }
    }

    /// Relative change, percent (0 when the base is 0).
    pub fn pct(&self) -> f64 {
        if self.a == 0.0 {
            0.0
        } else {
            100.0 * (self.b - self.a) / self.a
        }
    }
}

/// Pair the entries of `a` with those of `b` by `key`, for the diff
/// walks: the n-th entry of `a` under a key pairs with the n-th entry of
/// `b` under that key, so a key that repeats (a service document's
/// `policy` name and `policy` section) pairs with itself. Returns every
/// entry of `a` in order as `(key, entry, partner)`, then the unpaired
/// entries of `b` in order. `b` is indexed once, so this is linear in
/// the entry count. The keys come from the documents read, so the index
/// keeps the standard hasher.
fn pair_fields<'a, T>(
    a: &'a [T],
    b: &'a [T],
    key: impl Fn(&'a T) -> &'a str,
) -> Vec<(&'a str, Option<&'a T>, Option<&'a T>)> {
    // `unpaired[k]` lists the indices of `b` under key `k` not yet paired,
    // in reverse, so the next partner is a `pop`.
    let mut unpaired: HashMap<&str, Vec<usize>> = HashMap::new();
    for (j, y) in b.iter().enumerate().rev() {
        unpaired.entry(key(y)).or_default().push(j);
    }
    let mut paired = vec![false; b.len()];
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    for x in a {
        let j = unpaired.get_mut(key(x)).and_then(Vec::pop);
        if let Some(j) = j {
            paired[j] = true;
        }
        out.push((key(x), Some(x), j.map(|j| &b[j])));
    }
    out.extend(b.iter().zip(paired).filter(|(_, p)| !p).map(|(y, _)| (key(y), None, Some(y))));
    out
}

/// The `name` of a named record (a benchmark result).
fn record_name(x: &Json) -> Option<&str> {
    x.get("name").and_then(Json::as_str)
}

/// Pair the elements of two arrays of records: named records by `name`
/// (see [`pair_fields`]), then the unnamed ones by position. Returns
/// each pair's path segment (`[name]` or `[i]`, `i` counting unnamed
/// records) and partners.
fn pair_records<'a>(
    a: &'a [Json],
    b: &'a [Json],
) -> Vec<(String, Option<&'a Json>, Option<&'a Json>)> {
    let named = |xs: &'a [Json]| -> Vec<&'a Json> {
        xs.iter().filter(|x| record_name(x).is_some()).collect()
    };
    let (na, nb) = (named(a), named(b));
    let mut out: Vec<_> = pair_fields(&na, &nb, |x| record_name(x).expect("named"))
        .into_iter()
        .map(|(n, x, y)| (format!("[{n}]"), x.copied(), y.copied()))
        .collect();
    let mut ua = a.iter().filter(|x| record_name(x).is_none());
    let mut ub = b.iter().filter(|x| record_name(x).is_none());
    for i in 0.. {
        match (ua.next(), ub.next()) {
            (None, None) => break,
            (x, y) => out.push((format!("[{i}]"), x, y)),
        }
    }
    out
}

/// Collect numeric leaf differences between two JSON trees. Object
/// fields pair by key and arrays of objects pair their records (see
/// [`pair_records`]); a field or record one document lacks is one
/// one-sided row. Other arrays are compared as aggregates (element sum)
/// so bucket vectors produce one row instead of hundreds; string/bool
/// leaves count as a difference when unequal (reported with a/b = 0/1).
fn walk_diff(path: &str, a: &Json, b: &Json, out: &mut Vec<Delta>) {
    let sub = |k: &str| if path.is_empty() { k.to_string() } else { format!("{path}.{k}") };
    let mut pair = |at: String, x: Option<&Json>, y: Option<&Json>| match (x, y) {
        (Some(x), Some(y)) => walk_diff(&at, x, y, out),
        (x, _) => out.push(Delta::one_sided(at, x.is_some())),
    };
    let is_obj = |x: &Json| matches!(x, Json::Obj(_));
    match (a, b) {
        (Json::Obj(fa), Json::Obj(fb)) => {
            for (k, x, y) in pair_fields(fa, fb, |(k, _)| k.as_str()) {
                pair(sub(k), x.map(|(_, v)| v), y.map(|(_, v)| v));
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) if xa.iter().chain(xb).all(is_obj) => {
            for (at, x, y) in pair_records(xa, xb) {
                pair(sub(&at), x, y);
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
                out.push(Delta::both(format!("{path}[Σ]"), sa, sb));
            }
        }
        _ => {
            let (na, nb) = (a.as_f64(), b.as_f64());
            match (na, nb) {
                (Some(x), Some(y)) if x != y => out.push(Delta::both(path.into(), x, y)),
                (Some(_), Some(_)) => {}
                _ => {
                    // Non-numeric leaves (strings, bools, null vs value).
                    if a != b {
                        out.push(Delta::both(path.into(), 0.0, 1.0));
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
        .filter(|d| {
            d.presence == Presence::Both
                && d.path.starts_with("hist.guest_lat_ph")
                && d.path.ends_with(".p99")
        })
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
        let shown = d.path.split_once('.').map_or(d.path.as_str(), |(_, rest)| rest);
        let _ = match d.presence {
            Presence::Both => writeln!(
                out,
                "  {:<40} {:>14} -> {:<14} ({:+.1}%)",
                shown,
                fmt_value(leaf, d.a),
                fmt_value(leaf, d.b),
                d.pct(),
            ),
            Presence::OnlyFirst => writeln!(out, "  {shown:<40} only in first"),
            Presence::OnlySecond => writeln!(out, "  {shown:<40} only in second"),
        };
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
            for (k, x, y) in pair_fields(fa, fb, |(k, _)| k.as_str()) {
                match (x, y) {
                    (Some((_, va)), Some((_, vb))) => walk_shape(&sub(k), va, vb, out),
                    (x, _) => out.push(Delta::one_sided(sub(k), x.is_some())),
                }
            }
        }
        (Json::Arr(xa), Json::Arr(xb)) => {
            let named = |xs: &[Json]| xs.iter().all(|x| record_name(x).is_some());
            if named(xa) && named(xb) {
                // Arrays of named records (benchmark results): match by
                // name so reorderings don't count and renames do.
                for (n, x, y) in pair_fields(xa, xb, |x| record_name(x).expect("checked")) {
                    let at = sub(&format!("[{n}]"));
                    match (x, y) {
                        (Some(x), Some(y)) => walk_shape(&at, x, y, out),
                        (x, _) => out.push(Delta::one_sided(at, x.is_some())),
                    }
                }
            } else if xa.len() != xb.len() {
                out.push(Delta::both(format!("{path}[len]"), xa.len() as f64, xb.len() as f64));
            }
        }
        // A container on one side only is a shape change even though
        // the leaf values inside it are not compared.
        (Json::Obj(_) | Json::Arr(_), _) | (_, Json::Obj(_) | Json::Arr(_)) => {
            out.push(Delta::both(path.to_string(), 1.0, 1.0));
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
        let what = match d.presence {
            Presence::OnlyFirst => "only in first",
            Presence::OnlySecond => "only in second",
            Presence::Both => "type or length mismatch",
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

    /// A service document whose SLO fields are missing or mistyped is
    /// refused with the field's path, not rendered with zeros.
    #[test]
    fn render_service_slo_names_malformed_fields() {
        let err = |text: &str| render(&Json::parse(text).unwrap()).unwrap_err();
        let head = r#""schema":"adios.metrics/3","kind":"service""#;
        assert_eq!(
            err(&format!(r#"{{{head},"latency":{{"p50_s":"x"}}}}"#)),
            "latency.p50_s: expected a number"
        );
        assert_eq!(
            err(&format!(r#"{{{head},"latency":{{"p50_s":1,"p99_s":2}}}}"#)),
            "service.throughput_jpm: expected a number"
        );
        let body = r#""latency":{"p50_s":1,"p99_s":2},"slots":{"map_util":0.5,"reduce_util":0.5}"#;
        assert_eq!(
            err(&format!(
                r#"{{{head},{body},"service":{{"throughput_jpm":1,"completed":-1,"arrivals":2}}}}"#
            )),
            "service.completed: expected a non-negative integer"
        );
        let service = r#""service":{"throughput_jpm":1,"completed":1,"arrivals":2}"#;
        assert_eq!(
            err(&format!(r#"{{{head},{body},{service}}}"#)),
            "policy: expected a string"
        );
        let ok = format!(r#"{{{head},"policy":"fixed",{body},{service}}}"#);
        let text = render(&Json::parse(&ok).unwrap()).unwrap();
        assert!(text.contains("1.00 jobs/min (completed 1 of 2 arrivals)"), "{text}");
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

    /// A service document's top level holds two `policy` fields: the
    /// policy's name and the registry's `policy` section.
    fn service_doc(retunes: u32) -> Json {
        Json::parse(&format!(
            r#"{{"schema":"adios.metrics/3","kind":"service","policy":"blended:margin=0.05",
                "service":{{"completed":3}},"policy":{{"retunes":{retunes},"switches":1}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn repeated_keys_self_diff_clean() {
        let doc = service_doc(12);
        let (text, deltas) = diff(&doc, &doc);
        assert!(deltas.is_empty(), "{text}");
        let (text, deltas) = diff_shape(&doc, &doc);
        assert!(deltas.is_empty(), "{text}");
    }

    #[test]
    fn repeated_keys_pair_nth_with_nth() {
        let (text, deltas) = diff(&service_doc(12), &service_doc(13));
        assert_eq!(
            deltas,
            vec![Delta::both("policy.retunes".into(), 12.0, 13.0)],
            "{text}"
        );
        // A third `policy` on one side only is reported as that side's.
        let extra = Json::parse(r#"{"policy":"a","policy":{"x":1},"policy":2}"#).unwrap();
        let base = Json::parse(r#"{"policy":"a","policy":{"x":1}}"#).unwrap();
        let (text, deltas) = diff_shape(&base, &extra);
        assert_eq!(deltas, vec![Delta::one_sided("policy".into(), false)], "{text}");
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

    /// Arrays of records are compared record by record: named ones by
    /// `name`, the others by position.
    #[test]
    fn value_diff_pairs_records_inside_arrays() {
        let a = bench_doc(&["push_pop", "cache_hit"], 100.0);
        let (text, deltas) = diff(&a, &a);
        assert!(deltas.is_empty(), "{text}");
        let b = bench_doc(&["cache_hit", "push_pop", "new_bench"], 250.0);
        let (text, deltas) = diff(&a, &b);
        assert_eq!(
            deltas,
            vec![
                Delta::both("results.[push_pop].mean_ns".into(), 100.0, 250.0),
                Delta::both("results.[cache_hit].mean_ns".into(), 100.0, 250.0),
                Delta::one_sided("results.[new_bench]".into(), false),
            ],
            "{text}"
        );
        assert!(text.contains("[new_bench]                              only in second"), "{text}");

        let evals = |ts: &[u32]| {
            let recs = ts.iter().map(|&t| Json::obj().field("t", t)).collect();
            Json::obj().field("evals", Json::Arr(recs))
        };
        let (text, deltas) = diff(&evals(&[1, 2, 5]), &evals(&[1, 3]));
        assert_eq!(
            deltas,
            vec![
                Delta::both("evals.[1].t".into(), 2.0, 3.0),
                Delta::one_sided("evals.[2]".into(), true),
            ],
            "{text}"
        );
    }

    /// A field one document lacks is reported as that, not as a
    /// made-up `0 -> 1` change.
    #[test]
    fn value_diff_reports_one_sided_fields() {
        let a = Json::obj().field("policy", Json::obj().field("retunes", 4u32));
        let b = Json::obj().field(
            "policy",
            Json::obj().field("retunes", 4u32).field("switch0_t_s", 15.0),
        );
        let (text, deltas) = diff(&a, &b);
        assert_eq!(deltas, vec![Delta::one_sided("policy.switch0_t_s".into(), false)]);
        assert!(text.contains("switch0_t_s                              only in second"), "{text}");
        assert!(!text.contains("->"), "{text}");
        let (text, deltas) = diff(&b, &a);
        assert_eq!(deltas, vec![Delta::one_sided("policy.switch0_t_s".into(), true)]);
        assert!(text.contains("only in first"), "{text}");
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

    /// A profile whose `net.bfs` nests under `net.solve`. Self-times
    /// are given; a skeleton (`wall == false`) carries none.
    fn profile_doc(solve_ns: u64, bfs_ns: u64, dispatch_ns: u64, wall: bool) -> Json {
        let span = |name: &str, ns: u64| {
            let s = Json::obj().field("name", name).field("calls", 1u64);
            if wall {
                s.field("total_ns", ns).field("self_ns", ns)
            } else {
                s
            }
        };
        let solve = span("net.solve", solve_ns)
            .field("counters", Json::obj().field("components", 2u64).field("rounds", 3u64))
            .field("children", Json::Arr(vec![span("net.bfs", bfs_ns)]));
        Json::obj().field("schema", "adios.profile/1").field(
            "spans",
            Json::Arr(vec![solve, span("iosched.dispatch", dispatch_ns)]),
        )
    }

    #[test]
    fn subsystem_shares_group_spans_by_prefix() {
        let shares = profile_subsystem_shares(&profile_doc(300, 300, 400, true)).unwrap();
        assert_eq!(shares, vec![("net".to_string(), 60.0), ("iosched".to_string(), 40.0)]);
        // A skeleton has no wall time to share out.
        let skeleton = profile_doc(300, 300, 400, false);
        assert_eq!(profile_subsystem_shares(&skeleton).unwrap(), vec![]);
    }

    #[test]
    fn share_gate_trips_only_past_its_threshold() {
        let a = profile_doc(300, 300, 400, true); // net 60 %, iosched 40 %
        let b = profile_doc(150, 150, 700, true); // net 30 %, iosched 70 %
        let (text, tripped) = diff_profile_shares(&a, &a, 5.0).unwrap();
        assert!(!tripped, "{text}");
        assert!(text.contains("all subsystem shares within gate"), "{text}");
        let (text, tripped) = diff_profile_shares(&a, &b, 5.0).unwrap();
        assert!(tripped, "{text}");
        assert!(text.contains("net           60.0% ->  30.0%  (-30.0)  << exceeds gate"), "{text}");
        let (text, tripped) = diff_profile_shares(&a, &b, 35.0).unwrap();
        assert!(!tripped, "{text}");
    }

    /// `profile_rows` error for a one-span profile whose span is `span`.
    fn span_error(span: &str) -> String {
        let doc = Json::parse(&format!(r#"{{"schema":"adios.profile/1","spans":[{span}]}}"#))
            .unwrap();
        let err = profile_rows(&doc).unwrap_err();
        assert_eq!(render(&doc).unwrap_err(), err, "render must fail the same way");
        err
    }

    #[test]
    fn profile_span_name_must_be_a_string() {
        assert_eq!(span_error(r#"{"name":1,"calls":1}"#), "spans[0].name: expected a string");
        assert_eq!(span_error(r#"{"calls":1}"#), "spans[0].name: expected a string");
    }

    #[test]
    fn profile_span_calls_must_be_a_non_negative_integer() {
        let want = "spans[0].calls: expected a non-negative integer";
        assert_eq!(span_error(r#"{"name":"a.b","calls":"many"}"#), want);
        assert_eq!(span_error(r#"{"name":"a.b","calls":-1}"#), want);
        assert_eq!(span_error(r#"{"name":"a.b","calls":1.5}"#), want);
        assert_eq!(span_error(r#"{"name":"a.b"}"#), want);
    }

    #[test]
    fn profile_span_wall_times_must_be_non_negative_integers_when_present() {
        assert_eq!(
            span_error(r#"{"name":"a.b","calls":1,"total_ns":-5}"#),
            "spans[0].total_ns: expected a non-negative integer"
        );
        assert_eq!(
            span_error(r#"{"name":"a.b","calls":1,"total_ns":5,"self_ns":"x"}"#),
            "spans[0].self_ns: expected a non-negative integer"
        );
    }

    #[test]
    fn profile_span_counters_must_be_non_negative_integers() {
        assert_eq!(
            span_error(r#"{"name":"a.b","calls":1,"counters":{"merged":-2}}"#),
            "spans[0].counters.merged: expected a non-negative integer"
        );
        assert_eq!(
            span_error(r#"{"name":"a.b","calls":1,"counters":[1]}"#),
            "spans[0].counters: expected an object"
        );
    }

    #[test]
    fn profile_span_children_must_be_an_array_of_valid_spans() {
        assert_eq!(
            span_error(r#"{"name":"a.b","calls":1,"children":{}}"#),
            "spans[0].children: expected an array"
        );
        assert_eq!(
            span_error(r#"{"name":"a.b","calls":1,"children":[{"name":"c.d","calls":1},{"name":2}]}"#),
            "spans[0].children[1].name: expected a string"
        );
        assert_eq!(span_error("7"), "spans[0]: expected an object");
    }

    #[test]
    fn share_gate_reports_malformed_spans() {
        let good = profile_doc(300, 300, 400, true);
        let bad = Json::parse(r#"{"schema":"adios.profile/1","spans":[{"name":1}]}"#).unwrap();
        assert_eq!(
            diff_profile_shares(&good, &bad, 5.0).unwrap_err(),
            "spans[0].name: expected a string"
        );
    }

    #[test]
    fn render_profile_prints_counters_under_their_span() {
        let text = render(&profile_doc(300, 300, 400, true)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let row = lines.iter().position(|l| l.starts_with("  net.solve ")).unwrap();
        assert_eq!(lines[row + 1], "    components=2 rounds=3", "{text}");
        assert!(lines[row + 2].starts_with("    net.bfs "), "{text}");
        // Spans without counters get no extra line.
        let io = lines.iter().position(|l| l.starts_with("  iosched.dispatch ")).unwrap();
        assert_eq!(io, lines.len() - 1, "{text}");
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
