//! Differential property tests: the lazily sorted [`SampleSet`] against
//! the sorted-insert set it replaced, which kept its sorted index
//! current on every record (`partition_point(<=)` then `insert`). Both
//! see the same interleaving of records and reads over pools full of
//! ties, `-0.0` and `0.0`; every read must agree bit for bit.

use simcore::check::{check, Gen};
use simcore::SampleSet;

/// The reference model: the sorted index is maintained on record.
#[derive(Default)]
struct InsertSampleSet {
    xs: Vec<f64>,
    sorted: Vec<f64>,
}

impl InsertSampleSet {
    fn record(&mut self, x: f64) {
        self.xs.push(x);
        let i = self.sorted.partition_point(|v| *v <= x);
        self.sorted.insert(i, x);
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx =
            ((q * (self.sorted.len() - 1) as f64).round() as usize).min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    fn cdf_points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn bits_cdf(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|&(x, p)| (x.to_bits(), p.to_bits()))
        .collect()
}

/// A sample drawn from a pool where ties and signed zeros are common.
fn sample(g: &mut Gen) -> f64 {
    *g.pick(&[
        0.0,
        -0.0,
        0.0,
        -0.0,
        1.5,
        1.5,
        -2.25,
        7.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ])
}

fn assert_reads_match(lazy: &SampleSet, model: &InsertSampleSet, q: f64) {
    assert_eq!(lazy.len(), model.xs.len());
    assert_eq!(lazy.samples().len(), model.xs.len());
    for (a, b) in lazy.samples().iter().zip(&model.xs) {
        assert_eq!(a.to_bits(), b.to_bits(), "insertion order");
    }
    assert_eq!(
        bits(lazy.quantile(q)),
        bits(model.quantile(q)),
        "quantile({q})"
    );
    assert_eq!(bits(lazy.min()), bits(model.sorted.first().copied()), "min");
    assert_eq!(bits(lazy.max()), bits(model.sorted.last().copied()), "max");
    assert_eq!(
        bits_cdf(&lazy.cdf_points()),
        bits_cdf(&model.cdf_points()),
        "cdf_points"
    );
}

/// Records interleaved with reads: each read sorts what the records
/// before it added, and later records must invalidate that view.
#[test]
fn interleaved_records_and_reads_match_sorted_insert() {
    check(256, |g| {
        let mut lazy = SampleSet::new();
        let mut model = InsertSampleSet::default();
        for _ in 0..g.usize_in(1, 120) {
            if g.bool() {
                let x = if g.bool() {
                    sample(g)
                } else {
                    g.f64_in(-4.0, 8.0)
                };
                lazy.record(x);
                model.record(x);
            } else {
                let q = if g.bool() {
                    *g.pick(&[0.0, 0.25, 0.5, 0.99, 1.0])
                } else {
                    g.f64_in(0.0, 1.0)
                };
                assert_reads_match(&lazy, &model, q);
            }
        }
        assert_reads_match(&lazy, &model, 0.5);
    });
}

/// Only signed zeros: the sorted view must keep them in insertion
/// order, as the `<=` insert did, so the bits of every rank match.
#[test]
fn signed_zero_ties_keep_insertion_order() {
    check(128, |g| {
        let mut lazy = SampleSet::new();
        let mut model = InsertSampleSet::default();
        for _ in 0..g.usize_in(1, 40) {
            let x = if g.bool() { 0.0 } else { -0.0 };
            lazy.record(x);
            model.record(x);
        }
        for i in 0..=20 {
            assert_reads_match(&lazy, &model, i as f64 / 20.0);
        }
    });
}
