//! Order statistics for latency samples.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// A tail latency: the value at the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
}

/// The tail of a sample: with `n` sorted samples, the one at 0-based rank
/// `n − 11` has exactly ten samples beyond it, so it sits at percentile
/// `100 · (n − 10) / n`. `None` when there are ten samples or fewer.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND - 1;
    Some(Tail {
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        value: sorted(values)[rank],
        samples: n,
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
