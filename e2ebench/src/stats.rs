//! Statistics over the benchmark's samples: the median and mean it
//! reports, the quartiles its steadiness is judged by, and the highest
//! percentile the sample count can support.

/// Samples needed beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentiles tried, highest first, when picking the reported tail.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` when
/// there are no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three cut points exactly as Python's `statistics.quantiles(values,
/// n=4)` computes them (its default, exclusive method, whose index clamp
/// extrapolates for tiny samples); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = (n + 1) as i64;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1i64..).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *cut = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// The nearest-rank percentile `tenths / 10` of sorted, non-empty `v`, and
/// how many samples lie beyond its rank. Integer rank arithmetic, so 99.9
/// of 10,000 is rank 9,990 exactly.
fn nearest_rank(v: &[f64], tenths: usize) -> (f64, usize) {
    let n = v.len();
    let rank = (tenths * n).div_ceil(1000).clamp(1, n);
    (v[rank - 1], n - rank)
}

/// The highest percentile of [`PERCENTILES`] with at least
/// [`TAIL_SAMPLES`] samples beyond its nearest rank, as `(percentile,
/// value)`; `None` when even the median lacks that many.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    PERCENTILES.iter().find_map(|&p| {
        let (value, beyond) = nearest_rank(&v, (p * 10.0).round() as usize);
        (beyond >= TAIL_SAMPLES).then_some((p, value))
    })
}

/// What the benchmark reports for one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Python-style quartiles, when there are at least two samples.
    pub quartiles: Option<[f64; 3]>,
    /// The highest supported tail percentile, as `(percentile, value)`.
    pub tail: Option<(f64, f64)>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        Some(Self {
            n: values.len(),
            median: median(values)?,
            mean: values.iter().sum::<f64>() / values.len() as f64,
            quartiles: quartiles(values),
            tail: tail_percentile(values),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from CPython's statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        // Two samples: Python clamps the index and extrapolates.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&nineteen), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten_thousand), Some((99.9, 9990.0)));
    }

    #[test]
    fn summary_collects_every_statistic() {
        let s = Summary::of(&[2.0, 4.0, 1.0, 3.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.tail, None);
        assert!(Summary::of(&[]).is_none());
    }
}
