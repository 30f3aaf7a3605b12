//! Order statistics shared by every workload.

/// Samples that must lie strictly beyond a reported tail percentile, so
/// the tail is measured rather than extrapolated from a handful of points.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the tail rank.
    pub value: f64,
    /// The percentile that rank stands for, in percent.
    pub percentile: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice: every workload times at least one op.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample at 0-based rank `n - 1 - TAIL_BEYOND` of the sorted
/// data, which has exactly that many samples ranked above it. `None`
/// when there are too few samples for any such percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: sorted(samples)[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Fewest samples in one window of [`windowed_tail`].
pub const WINDOW_SAMPLES: usize = 2000;

/// The median, over consecutive windows of a run, of each window's
/// [`tail`]. Samples must be in the order they were taken. A run is
/// split into windows of at least [`WINDOW_SAMPLES`] samples (one window
/// when it has fewer), so the tail stays at a percentile the workload's
/// own ops decide: over a whole run of 10^5 ops the ten samples beyond
/// the tail are the ops a stall of the machine happened to hit, and
/// their number changes from run to run. The returned percentile and
/// sample count are those of one window.
pub fn windowed_tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let windows = (n / WINDOW_SAMPLES).max(1);
    let tails: Vec<Tail> = (0..windows)
        .map(|w| tail(&samples[w * n / windows..(w + 1) * n / windows]))
        .collect::<Option<_>>()?;
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        value: median(&values),
        ..tails[0]
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
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn the_tail_leaves_exactly_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(
            samples.iter().filter(|&&s| s > t.value).count(),
            TAIL_BEYOND
        );
        assert_eq!(t.samples, 1000);
        assert!((t.percentile - 99.0).abs() < 1e-9, "{}", t.percentile);
    }

    #[test]
    fn the_tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(
            t.value, 0.0,
            "with 11 samples only the smallest has 10 beyond it"
        );
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn a_short_run_is_one_window() {
        let samples: Vec<f64> = (0..1999).map(f64::from).collect();
        assert_eq!(windowed_tail(&samples), tail(&samples));
        assert_eq!(windowed_tail(&samples[..5]), None);
    }

    #[test]
    fn a_burst_of_stalls_in_one_window_does_not_move_the_windowed_tail() {
        // Ten windows of 2000 samples each; the first holds 30 stalls.
        let mut samples: Vec<f64> = (0..20_000).map(|i| f64::from(i % 2000)).collect();
        for s in &mut samples[..30] {
            *s = 1e6;
        }
        let t = windowed_tail(&samples).unwrap();
        assert_eq!(t.value, 1989.0, "the other nine windows decide");
        assert_eq!(t.samples, 2000);
        assert!((t.percentile - 99.5).abs() < 1e-9);
        assert_eq!(
            tail(&samples).unwrap().value,
            1e6,
            "one tail over the run sees them"
        );
    }

    #[test]
    fn the_tail_percentile_rises_with_the_sample_count() {
        let small: Vec<f64> = (0..100).map(f64::from).collect();
        let large: Vec<f64> = (0..10_000).map(f64::from).collect();
        let (s, l) = (tail(&small).unwrap(), tail(&large).unwrap());
        assert!((s.percentile - 90.0).abs() < 1e-9);
        assert!((l.percentile - 99.9).abs() < 1e-9);
    }
}
