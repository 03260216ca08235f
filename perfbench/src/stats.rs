//! Sample summaries: the percentile rule every reported timing follows.

/// A percentile as reported: which one it is and its value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub value: f64,
}

/// Samples a sample of `n` holds beyond its nearest-rank `pct`-th
/// percentile.
fn beyond(n: usize, pct: u32) -> usize {
    let rank = (pct as usize * n).div_ceil(100).max(1);
    n.saturating_sub(rank)
}

/// The `pct`-th percentile (nearest rank) of `sorted`, reported only when
/// at least 10 samples lie beyond it. Otherwise the highest whole
/// percentile below `pct` that has 10 samples beyond it is reported, under
/// its own number; `None` when no percentile has (11 samples or fewer).
pub fn percentile(sorted: &[f64], pct: u32) -> Option<Tail> {
    let n = sorted.len();
    let pct = (0..=pct.min(100)).rev().find(|&p| beyond(n, p) >= 10)?;
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some(Tail {
        pct,
        value: sorted[rank - 1],
    })
}

/// The median of a sample: its middle value, or the mean of the two
/// middle values of an even-sized sample; NaN for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_reported_when_ten_samples_lie_beyond_it() {
        let t = percentile(&ramp(1000), 99).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 99,
                value: 990.0
            }
        );
        let t = percentile(&ramp(2000), 99).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 99,
                value: 1980.0
            }
        );
    }

    #[test]
    fn a_short_sample_reports_the_highest_percentile_it_supports() {
        // 500 samples: p99 has 5 beyond, p98 has 10.
        let t = percentile(&ramp(500), 99).unwrap();
        assert_eq!(
            t,
            Tail {
                pct: 98,
                value: 490.0
            }
        );
        // 999 samples: p99 rank 990 leaves 9 beyond.
        let t = percentile(&ramp(999), 99).unwrap();
        assert_eq!(t.pct, 98);
        assert_eq!(t.value, 980.0);
        // 20 samples: the median has exactly 10 beyond.
        assert_eq!(percentile(&ramp(20), 99).unwrap().pct, 50);
        assert_eq!(percentile(&ramp(20), 50).unwrap().value, 10.0);
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&ramp(10), 50), None);
        // 11 samples: p9 still has rank 1, so 10 beyond; p10 has 9.
        assert_eq!(
            percentile(&ramp(11), 99).unwrap(),
            Tail { pct: 9, value: 1.0 }
        );
    }

    #[test]
    fn medians_take_the_middle() {
        assert_eq!(median(&[100.0, 2.0, 4.0, 0.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }
}
