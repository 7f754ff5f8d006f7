//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! at the repository root lists the same names, units and bounds;
//! [`check`] holds the two in step, in the unit tests and at the start
//! of every measuring run.

use crate::workload::Workload;
use simcore::Json;

/// `BENCHMARK.json`, as this build of the benchmark was compiled with.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Length of one measurement window, s: `run_seconds` in
/// `BENCHMARK.json`. Every sample of an end-to-end metric, in a
/// `--workload` invocation and in `run` alike, is one window's value.
pub const RUN_SECONDS: u64 = 25;

/// An end-to-end metric: measured with tracing off over the child runs
/// of a window. Lower is better for all of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Smallest worsening, in the metric's unit, that `compare` counts
    /// as a regression whatever `bound` gives.
    pub floor: f64,
    /// How a window reduces its child runs to one value: the fastest for
    /// times that host contention only ever lengthens, the median
    /// otherwise.
    pub fastest: bool,
}

pub const END_TO_END: [EndToEnd; 4] = [
    // Host wall time of the timed phase.
    EndToEnd {
        name: "run_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
        fastest: true,
    },
    // Host wall time from child spawn to the timed phase. Spawning a
    // process dominates it for three workloads, at about 2 ms, hence the
    // floor.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
        floor: 0.02,
        fastest: false,
    },
    // User + system CPU time of the child up to the end of the timed
    // phase: catches parallelism that buys wall time with CPU.
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
        floor: 0.0,
        fastest: true,
    },
    // VmHWM of the child at the end of the timed phase.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
        floor: 0.0,
        fastest: false,
    },
];

/// The per-layer metrics of the traced run, in report order. Layer
/// prefixes are the span profiler's subsystem names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("evq.self_ms", "ms"),
    ("evq.self_ms_raw", "ms"),
    ("evq.share_pct", "%"),
    ("evq.events", "count"),
    ("evq.batches", "count"),
    ("evq.events_per_batch", "ratio"),
    ("net.self_ms", "ms"),
    ("net.self_ms_raw", "ms"),
    ("net.share_pct", "%"),
    ("net.solves", "count"),
    ("net.bfs_calls", "count"),
    ("net.flows_changed", "count"),
    ("net.flows_changed_per_solve", "ratio"),
    ("net.us_per_solve", "us"),
    ("iosched.self_ms", "ms"),
    ("iosched.self_ms_raw", "ms"),
    ("iosched.share_pct", "%"),
    ("iosched.adds", "count"),
    ("iosched.merge_ratio", "ratio"),
    ("iosched.dispatches", "count"),
    ("iosched.ns_per_add", "ns"),
    ("vmstack.self_ms", "ms"),
    ("vmstack.self_ms_raw", "ms"),
    ("vmstack.share_pct", "%"),
    ("vmstack.handles", "count"),
    ("vmstack.submits", "count"),
    ("vmstack.ns_per_handle", "ns"),
    ("vmstack.node_run_ms_p50", "ms"),
    ("vmstack.node_run_ms_p90", "ms"),
    ("blkdev.requests", "count"),
    ("blkdev.seq_ratio", "ratio"),
    ("vcluster.self_ms", "ms"),
    ("vcluster.self_ms_raw", "ms"),
    ("vcluster.share_pct", "%"),
    ("vcluster.cpu_events", "count"),
    ("vcluster.new_ms", "ms"),
    ("jobs.self_ms", "ms"),
    ("jobs.self_ms_raw", "ms"),
    ("jobs.share_pct", "%"),
    ("jobs.events", "count"),
    ("jobs.retunes", "count"),
    ("jobs.switches", "count"),
    ("jobs.choose_ns_p50", "ns"),
    ("jobs.choose_ns_p99", "ns"),
    ("metasched.self_ms", "ms"),
    ("metasched.self_ms_raw", "ms"),
    ("metasched.share_pct", "%"),
    ("metasched.cache_hits", "count"),
    ("metasched.cache_misses", "count"),
    ("metasched.calibrate_s", "s"),
    ("metasched.profile_s", "s"),
    ("metasched.algorithm1_s", "s"),
    ("prof.span_cost_ns", "ns"),
    ("prof.closure_pct", "%"),
    ("trace.overhead_pct", "%"),
];

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("per-layer metric {name} is not in the catalog"))
}

/// Whether `BENCHMARK.json` (compiled in) lists exactly this catalog:
/// the workloads, the window length, and each metric's name, unit and,
/// for the end-to-end ones, bound, in order.
pub fn check() -> Result<(), String> {
    check_doc(BENCHMARK_JSON)
}

fn check_doc(text: &str) -> Result<(), String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let field = |e: &Json, key: &str| e.get(key).and_then(Json::as_str).unwrap_or("").to_string();
    let differ = |what: &str, listed: String, ours: String| {
        format!("BENCHMARK.json {what} {listed} differ from the benchmark's {ours}")
    };

    let listed: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let ours = Workload::ALL.map(Workload::name);
    if listed != ours {
        return Err(differ(
            "workloads",
            format!("{listed:?}"),
            format!("{ours:?}"),
        ));
    }
    let listed = doc.get("run_seconds").and_then(Json::as_f64);
    if listed != Some(RUN_SECONDS as f64) {
        return Err(differ(
            "run_seconds",
            format!("{listed:?}"),
            RUN_SECONDS.to_string(),
        ));
    }
    let listed: Vec<(String, String, Option<f64>)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let ours: Vec<(String, String, Option<f64>)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), Some(m.bound)))
        .collect();
    if listed != ours {
        return Err(differ(
            "end_to_end",
            format!("{listed:?}"),
            format!("{ours:?}"),
        ));
    }
    let listed: Vec<(String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    let ours: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    if listed != ours {
        return Err(differ(
            "per_layer",
            format!("{listed:?}"),
            format!("{ours:?}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::WorkloadRuns;

    #[test]
    fn emitted_metrics_match_benchmark_json() {
        check().unwrap();
        // A renamed metric is caught.
        let renamed = BENCHMARK_JSON.replace("\"cpu_s\"", "\"cpu_seconds\"");
        assert!(check_doc(&renamed).is_err());

        // What the two result forms print, for a workload with no runs.
        let runs = WorkloadRuns::new(Workload::Shuffle);
        let e2e: Vec<&str> = runs.end_to_end().iter().map(|(n, _)| *n).collect();
        assert_eq!(e2e, END_TO_END.map(|m| m.name));
        let layers: Vec<&str> = runs.per_layer().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            layers,
            PER_LAYER.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
    }

    /// A package of its own does not inherit the repository's release
    /// profile, so it carries a copy; the copy must not drift.
    #[test]
    fn release_profile_matches_the_repository_manifest() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!ours.is_empty());
        assert_eq!(ours, release_profile(include_str!("../../Cargo.toml")));
    }
}
