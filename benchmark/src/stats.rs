//! Order statistics for every number the benchmark reports.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (its
//! default "exclusive" method) so that spreads computed here and by a
//! script over the same values agree exactly.

/// Median of `values`; the mean of the two middle values for an even
/// count, as Python's `statistics.median`. NaN when `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three cut points that divide `values` into quarters, as Python's
/// `statistics.quantiles(values, n=4)` computes them. One value is its own
/// quartiles; NaN when `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    match ld {
        0 => return [f64::NAN; 3],
        1 => return [s[0]; 3],
        _ => {}
    }
    // Python's integer arithmetic: `delta` goes negative when the clamp
    // moves `j` up, which extrapolates below the smallest values.
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, cut) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *cut = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank `p`-th percentile (`p` in `[0, 100]`) of `values`. NaN
/// when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p) - 1]
}

/// Samples strictly above the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The percentiles a tail is reported at, highest first.
pub const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that keeps at least ten samples
/// beyond it, with its value: `(percentile, value)`. `None` below twenty
/// samples, where not even the median has ten beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| samples_beyond(values.len(), p) >= 10)
        .map(|&p| (p, percentile(values, p)))
}

/// Median and quartiles of a set of repeated measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of measurements.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
