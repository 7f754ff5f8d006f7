//! Insertion-ordered metrics registry exported as one deterministic
//! JSON document per run.
//!
//! Metrics are grouped into named sections (`disk`, `dom0_elevator`,
//! `guest_elevator`, `ring`, `network`, `phases`, …) and come in four
//! shapes, all built on the [`crate::stats`] primitives:
//!
//! * **counter** — monotonically accumulated `u64`;
//! * **gauge** — a plain `f64` set or accumulated;
//! * **stats** — streaming moments ([`OnlineStats`]): count, mean,
//!   standard deviation, min, max;
//! * **samples** — a full [`SampleSet`], exported as fixed quantiles
//!   (p0/p25/p50/p75/p100), mean and Jain fairness.
//!
//! Registration order is preserved at both levels, so
//! [`MetricsRegistry::into_json`] emits the same byte sequence for the
//! same sequence of updates — the determinism tests compare the
//! rendered documents of repeated runs directly.

use crate::hist::Histogram;
use crate::json::Json;
use crate::stats::{OnlineStats, SampleSet};
use crate::timeseries::TimeSeries;
use crate::fxmap::FxHashMap;

/// How much instrumentation the simulation layers record.
///
/// The level is checked once per recording site, so with
/// [`Telemetry::Off`] the hot path pays a branch and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Telemetry {
    /// No per-level counters, histograms, or series.
    Off,
    /// Per-level counters and end-of-run aggregates only (the
    /// pre-telemetry behaviour). The default.
    #[default]
    Counters,
    /// Counters plus latency/seek/run-length histograms and sim-time
    /// series — everything `adios-report` renders.
    Full,
}

impl Telemetry {
    /// True when per-level counters should be recorded.
    pub fn counters(self) -> bool {
        self >= Telemetry::Counters
    }

    /// True when histograms and time series should be recorded.
    pub fn full(self) -> bool {
        self >= Telemetry::Full
    }

    /// Parse a CLI-style label (`off` / `counters` / `full`).
    pub fn parse(s: &str) -> Option<Telemetry> {
        match s {
            "off" => Some(Telemetry::Off),
            "counters" => Some(Telemetry::Counters),
            "full" => Some(Telemetry::Full),
            _ => None,
        }
    }
}

/// One registered metric value. The large shapes are boxed, so the
/// many counters and gauges of a service document take 16 bytes each.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Accumulated integer count.
    Counter(u64),
    /// Last-set / accumulated float value.
    Gauge(f64),
    /// Streaming moments.
    Stats(Box<OnlineStats>),
    /// Full sample distribution.
    Samples(Box<SampleSet>),
    /// Log-bucketed histogram (exported with p50/p90/p99/p999).
    Hist(Box<Histogram>),
    /// Windowed sim-time series.
    Series(Box<TimeSeries>),
}

impl Metric {
    fn to_json(&self) -> Json {
        match self {
            Metric::Counter(v) => Json::from(*v),
            Metric::Gauge(v) => Json::from(*v),
            Metric::Stats(s) => Json::obj()
                .field("count", s.count())
                .field("mean", s.mean())
                .field("std_dev", s.std_dev())
                .field("min", s.min().unwrap_or(0.0))
                .field("max", s.max().unwrap_or(0.0)),
            Metric::Samples(s) => Json::obj()
                .field("count", s.len())
                .field("mean", s.mean().unwrap_or(0.0))
                .field("p0", s.quantile(0.0).unwrap_or(0.0))
                .field("p25", s.quantile(0.25).unwrap_or(0.0))
                .field("p50", s.quantile(0.5).unwrap_or(0.0))
                .field("p75", s.quantile(0.75).unwrap_or(0.0))
                .field("p100", s.quantile(1.0).unwrap_or(0.0))
                .field("jain", s.jain_fairness().unwrap_or(1.0)),
            Metric::Hist(h) => h.to_json(),
            Metric::Series(s) => s.to_json(),
        }
    }
}

/// Values keyed by name in first-insertion order. Each name is stored
/// once, as the index key; the values sit in a `Vec` at their
/// position, and [`Ordered::into_entries`] puts the names back.
#[derive(Debug, Clone)]
struct Ordered<T> {
    index: FxHashMap<Box<str>, u32>,
    vals: Vec<T>,
}

impl<T> Default for Ordered<T> {
    fn default() -> Self {
        Ordered { index: FxHashMap::default(), vals: Vec::new() }
    }
}

impl<T> Ordered<T> {
    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&i| &self.vals[i as usize])
    }

    /// The value under `name`, appended from `mk` on first use.
    fn get_or_insert_with(&mut self, name: &str, mk: impl FnOnce() -> T) -> &mut T {
        let i = match self.index.get(name) {
            Some(&i) => i as usize,
            None => {
                let i = self.vals.len();
                self.index.insert(name.into(), u32::try_from(i).expect("under 2^32 metrics"));
                self.vals.push(mk());
                i
            }
        };
        &mut self.vals[i]
    }

    /// `(name, value)` pairs in insertion order. Names are placed by
    /// position, so the index's iteration order never shows.
    fn into_entries(self) -> impl Iterator<Item = (String, T)> {
        let mut names: Vec<Option<Box<str>>> = vec![None; self.vals.len()];
        for (name, i) in self.index {
            names[i as usize] = Some(name);
        }
        names
            .into_iter()
            .map(|n| n.expect("every position has a name").into_string())
            .zip(self.vals)
    }
}

/// An insertion-ordered registry of sections of metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    sections: Ordered<Ordered<Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn slot(&mut self, section: &str, name: &str, mk: impl FnOnce() -> Metric) -> &mut Metric {
        self.sections.get_or_insert_with(section, Ordered::default).get_or_insert_with(name, mk)
    }

    /// Add `by` to a counter (created at 0).
    pub fn inc(&mut self, section: &str, name: &str, by: u64) {
        match self.slot(section, name, || Metric::Counter(0)) {
            Metric::Counter(v) => *v += by,
            other => panic!("{section}.{name} is not a counter: {other:?}"),
        }
    }

    /// Set a gauge to `v`.
    pub fn set_gauge(&mut self, section: &str, name: &str, v: f64) {
        match self.slot(section, name, || Metric::Gauge(0.0)) {
            Metric::Gauge(g) => *g = v,
            other => panic!("{section}.{name} is not a gauge: {other:?}"),
        }
    }

    /// Add `v` to a gauge (created at 0).
    pub fn add_gauge(&mut self, section: &str, name: &str, v: f64) {
        match self.slot(section, name, || Metric::Gauge(0.0)) {
            Metric::Gauge(g) => *g += v,
            other => panic!("{section}.{name} is not a gauge: {other:?}"),
        }
    }

    /// Record one observation into a stats metric.
    pub fn observe(&mut self, section: &str, name: &str, x: f64) {
        match self.slot(section, name, || Metric::Stats(Box::new(OnlineStats::new()))) {
            Metric::Stats(s) => s.record(x),
            other => panic!("{section}.{name} is not a stats metric: {other:?}"),
        }
    }

    /// Merge a whole accumulator into a stats metric (per-node fold).
    pub fn merge_stats(&mut self, section: &str, name: &str, stats: &OnlineStats) {
        match self.slot(section, name, || Metric::Stats(Box::new(OnlineStats::new()))) {
            Metric::Stats(s) => s.merge(stats),
            other => panic!("{section}.{name} is not a stats metric: {other:?}"),
        }
    }

    /// Record one sample into a samples metric.
    pub fn sample(&mut self, section: &str, name: &str, x: f64) {
        match self.slot(section, name, || Metric::Samples(Box::new(SampleSet::new()))) {
            Metric::Samples(s) => s.record(x),
            other => panic!("{section}.{name} is not a samples metric: {other:?}"),
        }
    }

    /// Append every sample of `set` into a samples metric, in the
    /// set's insertion order (deterministic per-node fold).
    pub fn extend_samples(&mut self, section: &str, name: &str, set: &SampleSet) {
        match self.slot(section, name, || Metric::Samples(Box::new(SampleSet::new()))) {
            Metric::Samples(s) => {
                for &x in set.samples() {
                    s.record(x);
                }
            }
            other => panic!("{section}.{name} is not a samples metric: {other:?}"),
        }
    }

    /// Merge a histogram into a hist metric (per-node fold; the
    /// histogram's resolution fixes the metric's on first merge).
    pub fn merge_hist(&mut self, section: &str, name: &str, h: &Histogram) {
        match self.slot(section, name, || Metric::Hist(Box::new(h.empty_like()))) {
            Metric::Hist(dst) => dst.merge(h),
            other => panic!("{section}.{name} is not a hist metric: {other:?}"),
        }
    }

    /// Merge a time series into a series metric (per-node fold).
    pub fn merge_series(&mut self, section: &str, name: &str, s: &TimeSeries) {
        match self.slot(section, name, || Metric::Series(Box::new(s.empty_like()))) {
            Metric::Series(dst) => dst.merge(s),
            other => panic!("{section}.{name} is not a series metric: {other:?}"),
        }
    }

    /// Look up a metric.
    pub fn get(&self, section: &str, name: &str) -> Option<&Metric> {
        self.sections.get(section)?.get(name)
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.vals.len()
    }

    /// True when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.sections.vals.is_empty()
    }

    /// Render every section, in registration order, into one JSON
    /// object — deterministic byte-for-byte for a deterministic run.
    /// Consumes the registry, so each name moves into the document
    /// instead of being copied.
    pub fn into_json(self) -> Json {
        Json::Obj(
            self.sections
                .into_entries()
                .map(|(section, metrics)| {
                    let fields = metrics.into_entries().map(|(n, m)| (n, m.to_json())).collect();
                    (section, Json::Obj(fields))
                })
                .collect(),
        )
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_and_metrics_keep_insertion_order() {
        let mut r = MetricsRegistry::new();
        r.inc("zeta", "b", 1);
        r.inc("zeta", "a", 2);
        r.set_gauge("alpha", "x", 1.5);
        r.inc("zeta", "b", 1);
        let s = r.into_json().to_string();
        let zeta = s.find("\"zeta\"").unwrap();
        let alpha = s.find("\"alpha\"").unwrap();
        assert!(zeta < alpha, "section order must be registration order: {s}");
        let b = s.find("\"b\"").unwrap();
        let a = s.find("\"a\"").unwrap();
        assert!(b < a, "metric order must be registration order: {s}");
        assert!(s.contains("\"b\":2"), "{s}");
    }

    #[test]
    fn all_shapes_render() {
        let mut r = MetricsRegistry::new();
        r.inc("s", "count", 3);
        r.add_gauge("s", "seconds", 1.25);
        r.add_gauge("s", "seconds", 0.25);
        for x in [1.0, 2.0, 3.0, 4.0] {
            r.observe("s", "depth", x);
            r.sample("s", "lat", x);
        }
        let j = r.into_json().to_string();
        assert!(j.contains("\"count\":3"), "{j}");
        assert!(j.contains("\"seconds\":1.5"), "{j}");
        assert!(j.contains("\"mean\":2.5"), "{j}");
        assert!(j.contains("\"p50\":"), "{j}");
        assert!(j.contains("\"jain\":"), "{j}");
    }

    #[test]
    fn identical_update_sequences_render_identically() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.inc("net", "flows", 7);
            r.observe("disk", "seek_ms", 3.25);
            r.observe("disk", "seek_ms", 4.75);
            r.sample("tput", "mbps", 55.0);
            r.into_json().to_string()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn merge_and_extend_fold_per_node_data() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        a.record(3.0);
        let mut set = SampleSet::new();
        set.record(10.0);
        set.record(20.0);
        let mut r = MetricsRegistry::new();
        r.merge_stats("x", "s", &a);
        r.merge_stats("x", "s", &a);
        r.extend_samples("x", "v", &set);
        match r.get("x", "s").unwrap() {
            Metric::Stats(s) => assert_eq!(s.count(), 4),
            other => panic!("wrong shape {other:?}"),
        }
        match r.get("x", "v").unwrap() {
            Metric::Samples(s) => assert_eq!(s.len(), 2),
            other => panic!("wrong shape {other:?}"),
        }
    }
}
