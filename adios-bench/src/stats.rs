//! Order statistics for repeated samples.

/// First quartile, median and third quartile of `xs`, computed exactly
/// as Python's `statistics.quantiles(xs, n=4)` (the default
/// "exclusive" method), so a spread quoted from this benchmark can be
/// re-derived from its samples with the standard library of either
/// language. One sample gives that sample three times; none gives NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let (m, n) = (ld as i64 + 1, 4i64);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = i * m - j * n;
        let j = j as usize;
        *q = (d[j - 1] * (n - delta) as f64 + d[j] * delta as f64) / n as f64;
    }
    out
}

/// The median of `xs` (the middle value of [`quartiles`]).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2, 4, 6]
        assert_eq!(
            quartiles(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]),
            [2.0, 4.0, 6.0]
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[3.0]), [3.0, 3.0, 3.0]);
        assert_eq!(median(&[1.0, 9.0, 2.0]), 2.0);
    }
}
