//! Summary statistics over repeated measurements: medians, quartiles and
//! the tail-percentile rule.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Spread {
    /// A single exact value (counts, simulated statistics).
    pub fn exact(value: f64) -> Self {
        Self { median: value, q1: value, q3: value, n: 1 }
    }

    /// Quartile distance as a share of the median (0 when the median is 0).
    pub fn relative_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Median and quartiles of `samples`. Quartiles use the "exclusive"
/// interpolation of Python's `statistics.quantiles(data, n=4)`, so a
/// spread computed here matches one computed from the printed values.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn spread(samples: &[f64]) -> Spread {
    assert!(!samples.is_empty(), "spread of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    if n < 2 {
        return Spread { median, q1: median, q3: median, n };
    }
    // Python clamps the rank into 1..n-1 and lets `delta` leave 0..4, so
    // tiny samples extrapolate; mirror that exactly.
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Spread { median, q1: quartile(1), q3: quartile(3), n }
}

/// Percentiles the tail rule tries, highest first, in per-mille so the
/// nearest-rank arithmetic stays exact.
const TAIL_LADDER_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile: which one, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `90.0`).
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// 1-based nearest rank of the `per_mille`-th per-mille among `n` samples.
fn nearest_rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The sample at the `per_mille`-th per-mille by nearest rank (500 is the
/// median as an actual sample, never an interpolation).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(samples: &[f64], per_mille: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    sorted[nearest_rank(per_mille, sorted.len()) - 1]
}

/// The highest percentile of the ladder (99.9, 99, 95, 90, 75, 50) with
/// at least [`TAIL_MIN_BEYOND`] samples beyond it, by nearest rank. Below
/// 20 samples not even the median qualifies; the median is then reported,
/// with its percentile, so a reader sees how little the tail rests on.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let per_mille = TAIL_LADDER_PER_MILLE
        .iter()
        .copied()
        .find(|&pm| n >= nearest_rank(pm, n) + TAIL_MIN_BEYOND)
        .unwrap_or(500);
    Tail { pct: per_mille as f64 / 10.0, value: percentile(samples, per_mille), n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let one = spread(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
        // [1.5, 3.0, 4.5]: a quartile distance of 3 on a median of 3.
        assert_eq!(spread(&[2.0, 4.0]).relative_iqr(), 1.0);
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 leaves 5 beyond, p90 leaves exactly 10.
        assert_eq!(tail(&hundred), Tail { pct: 90.0, value: 90.0, n: 100 });
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(tail(&thousand), Tail { pct: 99.0, value: 990.0, n: 1000 });
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        // p90 leaves 4, p75 leaves exactly 10.
        assert_eq!(tail(&forty), Tail { pct: 75.0, value: 30.0, n: 40 });
        let order_free: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&order_free).value, 90.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        // Twenty samples: the median has exactly ten beyond it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Tail { pct: 50.0, value: 10.0, n: 20 });
        // Nineteen: only nine beyond the median, which is still reported.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&nineteen), Tail { pct: 50.0, value: 10.0, n: 19 });
        let few = [5.0, 1.0, 3.0];
        assert_eq!(tail(&few), Tail { pct: 50.0, value: 3.0, n: 3 });
        // The nearest-rank median of an even count is a sample.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 500), 2.0);
    }
}
