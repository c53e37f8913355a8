//! Order statistics for latency samples.

/// Nearest-rank quantile of `q` in `[0, 1]` over unsorted samples; `None`
/// for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank - 1])
}

/// Median (nearest rank, so always an observed sample).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The highest percentile that still has at least `beyond` samples above
/// it, as reported for a latency tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100)`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
    /// How many samples lie beyond it (by rank).
    pub beyond: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it. With `n` samples that is the sample of rank `n - 10`, i.e. the
/// `100 (n - 10) / n` percentile; fewer than 11 samples support no tail.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_eleven_samples() {
        assert_eq!(tail(&[]), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples support a tail");
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_a_thousand_is_p99() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        let above = v.iter().filter(|&&x| x > t.value).count();
        assert_eq!(above, 10);
    }

    #[test]
    fn tail_counts_ties_by_rank() {
        let mut v = vec![5.0; 30];
        v.push(100.0);
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 5.0, "ties below the top ten stay in the body");
        assert_eq!(t.samples, 31);
    }

    #[test]
    fn tail_ignores_input_order() {
        let v = [
            3.0,
            f64::INFINITY,
            1.0,
            2.0,
            9.0,
            4.0,
            8.0,
            7.0,
            6.0,
            5.0,
            0.5,
            10.0,
        ];
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 12);
    }

    #[test]
    fn median_and_quantile_are_nearest_rank() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), Some(4.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), Some(1.0));
    }
}
