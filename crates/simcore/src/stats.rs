//! Measurement utilities shared by every layer of the simulator:
//! streaming moments, sample sets with quantiles/CDF extraction, and
//! windowed throughput meters (the instrument behind the paper's
//! Fig. 3 CDFs of VMM/VM I/O throughput).

use crate::time::{SimDuration, SimTime};
use std::sync::OnceLock;

/// Streaming mean/variance/min/max over `f64` observations
/// (Welford's algorithm — numerically stable, O(1) memory).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        self.m2 += other.m2 + d * d * (self.n as f64) * (other.n as f64) / n as f64;
        self.mean = mean;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A finite sample set supporting quantiles and CDF extraction.
///
/// Used where the full distribution is reported (paper Fig. 3). Samples
/// are kept verbatim in insertion order ([`SampleSet::samples`]), and
/// recording one is a push. The sorted view behind quantiles, CDFs,
/// `min` and `max` is built once, on the first such read after a
/// record, so every read path takes `&self` and shared views (the
/// metrics registry, post-run exports) never need mutable access.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    /// Insertion order (what `samples()` exposes; determinism
    /// fingerprints hash this).
    xs: Vec<f64>,
    /// The same values sorted ascending; ties (and `-0.0` against
    /// `0.0`) keep insertion order. Unset until the first sorted read
    /// after a record.
    sorted: OnceLock<Vec<f64>>,
}

impl SampleSet {
    /// Empty sample set.
    pub fn new() -> Self {
        SampleSet::default()
    }

    /// Record one sample. NaN is rejected here, so the sorted view's
    /// comparisons are total.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.xs.push(x);
        self.sorted.take();
    }

    /// The samples sorted ascending by a stable sort, so equal values
    /// (`-0.0` and `0.0` included) keep their insertion order.
    fn sorted(&self) -> &[f64] {
        self.sorted.get_or_init(|| {
            let mut v = self.xs.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("NaN is rejected at record"));
            v
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The q-quantile (0 ≤ q ≤ 1) by nearest-rank; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.xs.is_empty() {
            return None;
        }
        let sorted = self.sorted();
        let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
        Some(sorted[idx])
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.xs.is_empty() {
            None
        } else {
            Some(self.xs.iter().sum::<f64>() / self.xs.len() as f64)
        }
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.sorted().first().copied()
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.sorted().last().copied()
    }

    /// Empirical CDF as `(value, cumulative fraction)` pairs, one per
    /// sample, suitable for plotting or table output.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.xs.len() as f64;
        self.sorted()
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }

    /// Jain's fairness index of the samples: `(Σx)² / (n·Σx²)`.
    /// 1.0 = perfectly fair; → 1/n as one sample dominates. Used to
    /// quantify the paper's "CFQ achieves better fairness" observation.
    pub fn jain_fairness(&self) -> Option<f64> {
        if self.xs.is_empty() {
            return None;
        }
        let s: f64 = self.xs.iter().sum();
        let s2: f64 = self.xs.iter().map(|x| x * x).sum();
        if s2 == 0.0 {
            return Some(1.0);
        }
        Some(s * s / (self.xs.len() as f64 * s2))
    }

    /// Borrow the raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.xs
    }
}

/// Windowed throughput meter: accumulates completed bytes and emits one
/// MB/s sample per fixed window of simulated time.
///
/// Matches the measurement style of the paper's Fig. 3, where iostat-like
/// per-interval throughput samples are turned into a CDF.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    window: SimDuration,
    window_start: SimTime,
    bytes_in_window: u64,
    total_bytes: u64,
    samples: SampleSet,
    started: bool,
}

impl ThroughputMeter {
    /// Meter with the given sampling window (e.g. 1 s).
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "throughput window must be positive");
        ThroughputMeter {
            window,
            window_start: SimTime::ZERO,
            bytes_in_window: 0,
            total_bytes: 0,
            samples: SampleSet::new(),
            started: false,
        }
    }

    fn mbps(bytes: u64, span: SimDuration) -> f64 {
        if span.is_zero() {
            return 0.0;
        }
        bytes as f64 / (1024.0 * 1024.0) / span.as_secs_f64()
    }

    /// Record `bytes` completed at time `now`, closing any windows that
    /// have fully elapsed (idle windows emit 0 MB/s samples).
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        if !self.started {
            self.window_start = now;
            self.started = true;
        }
        while now >= self.window_start + self.window {
            let sample = Self::mbps(self.bytes_in_window, self.window);
            self.samples.record(sample);
            self.bytes_in_window = 0;
            self.window_start += self.window;
        }
        self.bytes_in_window += bytes;
        self.total_bytes += bytes;
    }

    /// Close the final partial window at end of run.
    pub fn finish(&mut self, now: SimTime) {
        if !self.started {
            return;
        }
        // Emit zero-samples for whole idle windows, then the partial one.
        while now >= self.window_start + self.window {
            let sample = Self::mbps(self.bytes_in_window, self.window);
            self.samples.record(sample);
            self.bytes_in_window = 0;
            self.window_start += self.window;
        }
        let partial = now.saturating_since(self.window_start);
        if !partial.is_zero() && self.bytes_in_window > 0 {
            self.samples
                .record(Self::mbps(self.bytes_in_window, partial));
            self.bytes_in_window = 0;
        }
    }

    /// Per-window MB/s samples gathered so far (quantile/CDF reads all
    /// take `&self`).
    pub fn samples(&self) -> &SampleSet {
        &self.samples
    }

    /// Total bytes recorded over the meter's lifetime.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        xs[..37].iter().for_each(|&x| left.record(x));
        xs[37..].iter().for_each(|&x| right.record(x));
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantiles() {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.record(i as f64);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        let med = s.quantile(0.5).unwrap();
        assert!((49.0..=52.0).contains(&med));
    }

    #[test]
    fn cdf_points_monotone() {
        let mut s = SampleSet::new();
        for x in [3.0, 1.0, 2.0, 2.0] {
            s.record(x);
        }
        let cdf = s.cdf_points();
        assert_eq!(cdf.len(), 4);
        assert_eq!(cdf[0], (1.0, 0.25));
        assert_eq!(cdf[3], (3.0, 1.0));
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn empty_set_reads_are_none_or_empty() {
        let s = SampleSet::new();
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(s.cdf_points().is_empty());
        assert_eq!(s.jain_fairness(), None);
    }

    #[test]
    fn single_sample_quantiles_collapse() {
        let mut s = SampleSet::new();
        s.record(7.5);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(s.quantile(q), Some(7.5));
        }
        assert_eq!(s.min(), Some(7.5));
        assert_eq!(s.max(), Some(7.5));
        assert_eq!(s.cdf_points(), vec![(7.5, 1.0)]);
    }

    #[test]
    fn q0_and_q1_are_exact_extremes() {
        let mut s = SampleSet::new();
        for x in [9.0, -3.0, 4.0, 4.0, 12.5] {
            s.record(x);
        }
        assert_eq!(s.quantile(0.0), Some(-3.0));
        assert_eq!(s.quantile(1.0), Some(12.5));
    }

    #[test]
    fn reads_take_shared_refs_and_insertion_order_survives() {
        let mut s = SampleSet::new();
        for x in [3.0, 1.0, 2.0] {
            s.record(x);
        }
        let shared: &SampleSet = &s;
        assert_eq!(shared.quantile(0.5), Some(2.0));
        assert_eq!(shared.max(), Some(3.0));
        // Sorted reads must not disturb the insertion-order view.
        assert_eq!(s.samples(), &[3.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_rejected_at_record() {
        SampleSet::new().record(f64::NAN);
    }

    #[test]
    fn jain_fairness_extremes() {
        let mut fair = SampleSet::new();
        let mut unfair = SampleSet::new();
        for _ in 0..4 {
            fair.record(5.0);
        }
        unfair.record(20.0);
        for _ in 0..3 {
            unfair.record(0.0);
        }
        assert!((fair.jain_fairness().unwrap() - 1.0).abs() < 1e-12);
        assert!((unfair.jain_fairness().unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn throughput_meter_windows() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        // 1 MiB at t=0.5s, 2 MiB at t=1.5s, finish at 2.0s. Windows are
        // anchored at the first record: [0.5,1.5) holds 1 MiB -> 1 MB/s,
        // the final partial [1.5,2.0) holds 2 MiB over 0.5 s -> 4 MB/s.
        m.record(SimTime::from_millis(500), 1 << 20);
        m.record(SimTime::from_millis(1500), 2 << 20);
        m.finish(SimTime::from_secs(2));
        let samples = m.samples().samples();
        assert_eq!(samples.len(), 2);
        assert!((samples[0] - 1.0).abs() < 1e-9);
        assert!((samples[1] - 4.0).abs() < 1e-9);
        assert_eq!(m.total_bytes(), 3 << 20);
    }

    #[test]
    fn throughput_meter_idle_windows_emit_zero() {
        let mut m = ThroughputMeter::new(SimDuration::from_secs(1));
        m.record(SimTime::ZERO, 1 << 20);
        m.record(SimTime::from_secs(3), 1 << 20); // windows 1 and 2 idle
        m.finish(SimTime::from_secs(4));
        let s = m.samples().samples();
        assert_eq!(s.len(), 4);
        assert!(s[1] == 0.0 && s[2] == 0.0);
    }
}
