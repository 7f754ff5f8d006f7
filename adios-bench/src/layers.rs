//! Per-layer metrics from one traced run's span profile.
//!
//! At `full` level every span pays for its own timer: the per-request
//! hot spans fire millions of times, so raw self times over-read the
//! layers that own them. The benchmark measures that cost from outside
//! ([`span_cost_ns`]) and subtracts it once per call from each span's
//! self time; the raw value is reported alongside (`*.self_ms_raw`).

use crate::workload::LayerValue;
use simcore::prof;
use simcore::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// The profiler subsystems reported as layers, with the names of their
/// corrected self time, raw self time and share of corrected self time.
const LAYERS: [(&str, [&str; 3]); 7] = [
    ("evq", ["evq.self_ms", "evq.self_ms_raw", "evq.share_pct"]),
    ("net", ["net.self_ms", "net.self_ms_raw", "net.share_pct"]),
    (
        "iosched",
        [
            "iosched.self_ms",
            "iosched.self_ms_raw",
            "iosched.share_pct",
        ],
    ),
    (
        "vmstack",
        [
            "vmstack.self_ms",
            "vmstack.self_ms_raw",
            "vmstack.share_pct",
        ],
    ),
    (
        "vcluster",
        [
            "vcluster.self_ms",
            "vcluster.self_ms_raw",
            "vcluster.share_pct",
        ],
    ),
    (
        "jobs",
        ["jobs.self_ms", "jobs.self_ms_raw", "jobs.share_pct"],
    ),
    (
        "metasched",
        [
            "metasched.self_ms",
            "metasched.self_ms_raw",
            "metasched.share_pct",
        ],
    ),
];

/// Host cost of one empty hot span at `full` level, ns: the median of
/// five timed loops of 200 000 spans. Leaves this thread's profile empty.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let level = prof::thread_level();
    prof::set_thread_level(prof::LEVEL_FULL);
    let mut per_span: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                drop(std::hint::black_box(prof::span_hot("prof.calibrate")));
            }
            t.elapsed().as_nanos() as f64 / f64::from(N)
        })
        .collect();
    prof::take();
    prof::set_thread_level(level);
    per_span.sort_by(f64::total_cmp);
    per_span[2]
}

/// One span name's totals over every place it occurs in the tree.
#[derive(Default)]
struct Span {
    calls: f64,
    self_ns: f64,
    total_ns: f64,
    /// Calls of every span nested below this one.
    nested_calls: f64,
    counters: BTreeMap<String, f64>,
}

struct Spans {
    by_name: BTreeMap<String, Span>,
    cost_ns: f64,
}

impl Spans {
    fn new(doc: &Json, cost_ns: f64) -> Spans {
        let mut s = Spans {
            by_name: BTreeMap::new(),
            cost_ns,
        };
        for node in doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            s.walk(node);
        }
        s
    }

    /// Fold `node` and its subtree in; returns the subtree's calls.
    fn walk(&mut self, node: &Json) -> f64 {
        let num = |k: &str| node.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let nested: f64 = node
            .get("children")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|c| self.walk(c))
            .sum();
        let name = node.get("name").and_then(Json::as_str).unwrap_or("");
        let s = self.by_name.entry(name.to_string()).or_default();
        s.calls += num("calls");
        s.self_ns += num("self_ns");
        s.total_ns += num("total_ns");
        s.nested_calls += nested;
        for (k, v) in node.get("counters").and_then(Json::entries).unwrap_or(&[]) {
            *s.counters.entry(k.clone()).or_default() += v.as_f64().unwrap_or(0.0);
        }
        num("calls") + nested
    }

    fn get(&self, name: &str) -> Option<&Span> {
        self.by_name.get(name)
    }

    fn calls(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| s.calls)
    }

    fn counter(&self, name: &str, counter: &str) -> f64 {
        self.get(name)
            .and_then(|s| s.counters.get(counter))
            .copied()
            .unwrap_or(0.0)
    }

    fn corrected_self_ns(&self, s: &Span) -> f64 {
        (s.self_ns - self.cost_ns * s.calls).max(0.0)
    }

    /// Bias-corrected inclusive time per call of `name`, ns.
    fn ns_per_call(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |s| {
            let total = s.total_ns - self.cost_ns * (s.calls + s.nested_calls);
            ratio(total.max(0.0), s.calls)
        })
    }

    /// (raw, corrected) self time of one layer, ns.
    fn layer_self_ns(&self, layer: &str) -> (f64, f64) {
        self.by_name
            .iter()
            .filter(|(name, _)| prof::subsystem(name) == layer)
            .fold((0.0, 0.0), |(raw, cor), (_, s)| {
                (raw + s.self_ns, cor + self.corrected_self_ns(s))
            })
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The profile-derived per-layer metrics, plus the bias-corrected
/// self time summed over every span (`measured_ms`, the numerator of
/// `prof.closure_pct`).
pub fn from_profile(doc: &Json, cost_ns: f64) -> (Vec<LayerValue>, f64) {
    let s = Spans::new(doc, cost_ns);
    let measured: f64 = s.by_name.values().map(|sp| s.corrected_self_ns(sp)).sum();
    let mut out: Vec<LayerValue> = Vec::new();
    for (layer, [self_ms, self_ms_raw, share_pct]) in LAYERS {
        let (raw, corrected) = s.layer_self_ns(layer);
        out.push((self_ms, corrected / 1e6));
        out.push((self_ms_raw, raw / 1e6));
        out.push((share_pct, 100.0 * ratio(corrected, measured)));
    }
    let solves = s.calls("net.solve");
    let flows_changed = s.counter("net.materialize", "flows_changed");
    let adds = s.calls("iosched.add");
    let batches = s.calls("evq.pop_batch");
    let events = s.counter("evq.pop_batch", "events");
    out.extend([
        ("evq.events", events),
        ("evq.batches", batches),
        ("evq.events_per_batch", ratio(events, batches)),
        ("net.solves", solves),
        ("net.bfs_calls", s.calls("net.bfs")),
        ("net.flows_changed", flows_changed),
        ("net.flows_changed_per_solve", ratio(flows_changed, solves)),
        ("net.us_per_solve", s.ns_per_call("net.solve") / 1e3),
        ("iosched.adds", adds),
        (
            "iosched.merge_ratio",
            ratio(s.counter("iosched.add", "merged"), adds),
        ),
        ("iosched.dispatches", s.calls("iosched.dispatch")),
        ("iosched.ns_per_add", s.ns_per_call("iosched.add")),
        ("vmstack.handles", s.calls("vmstack.handle")),
        ("vmstack.submits", s.calls("vmstack.submit")),
        ("vmstack.ns_per_handle", s.ns_per_call("vmstack.handle")),
        ("vcluster.cpu_events", s.calls("vcluster.cpu_event")),
        ("jobs.events", s.calls("jobs.event")),
    ]);
    (out, measured / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_corrected_per_call_and_shares_sum_to_100() {
        let doc = Json::parse(
            r#"{"schema":"adios.profile/1","spans":[
              {"name":"vcluster.batch","calls":10,"total_ns":10000,"self_ns":4000,
               "children":[{"name":"iosched.add","calls":100,"counters":{"merged":25},
                            "total_ns":6000,"self_ns":6000}]}]}"#,
        )
        .unwrap();
        let (m, measured_ms) = from_profile(&doc, 20.0);
        let get = |k: &str| m.iter().find(|(n, _)| *n == k).unwrap().1;
        // 6000 ns raw minus 100 calls x 20 ns.
        assert_eq!(get("iosched.self_ms"), 4000.0 / 1e6);
        assert_eq!(get("iosched.self_ms_raw"), 6000.0 / 1e6);
        assert_eq!(get("iosched.merge_ratio"), 0.25);
        // 4000 - 10 x 20 for the batch span.
        assert_eq!(get("vcluster.self_ms"), 3800.0 / 1e6);
        assert_eq!(measured_ms, 7800.0 / 1e6);
        // Inclusive per call: (10000 - 20 x 110) / 10.
        let s = Spans::new(&doc, 20.0);
        assert_eq!(s.ns_per_call("vcluster.batch"), 780.0);
        let shares: f64 = LAYERS.iter().map(|(_, [_, _, share])| get(share)).sum();
        assert!((shares - 100.0).abs() < 1e-9, "{shares}");
        assert_eq!(get("net.us_per_solve"), 0.0);
        for (name, _) in &m {
            assert!(
                crate::catalog::PER_LAYER.iter().any(|(n, _)| n == name),
                "{name} not in catalog"
            );
        }
    }
}
