//! Order statistics for wall-clock samples. Percentiles are nearest-rank
//! on the sorted sample, so every reported value is one that was measured.

/// Samples beyond a percentile required before it is reported.
pub const BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` in `[0, 100]` of a non-empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as the mean of the two middle values for even counts.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile that still has at least [`BEYOND`]
/// samples above it, with its value; `None` when even the median does
/// not (fewer than `2 * BEYOND` samples).
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 2 * BEYOND {
        return None;
    }
    // Nearest rank of percentile p is ceil(p * n / 100); the samples
    // beyond it number n minus that rank.
    let p = (50..=99u32)
        .rev()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= BEYOND)?;
    Some((p, percentile(samples, p as f64)))
}

/// Distance between the first and third quartile as a share of the
/// median (exclusive method, as Python's `statistics.quantiles(n=4)`).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + frac * (v[lo] - v[lo - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_percentile_are_measured_values() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(100), 90.0), 90.0);
        assert_eq!(percentile(&ramp(100), 100.0), 100.0);
        assert_eq!(percentile(&ramp(7), 0.0), 1.0);
    }

    #[test]
    fn tail_obeys_the_ten_beyond_rule() {
        assert_eq!(tail(&ramp(19)), None);
        // 20 samples: only the median has ten samples above it.
        assert_eq!(tail(&ramp(20)), Some((50, 10.0)));
        // 100 samples: p90 is rank 90, leaving exactly ten beyond.
        assert_eq!(tail(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail(&ramp(99)), Some((89, 89.0)));
        // 1000 samples: p99 leaves ten beyond.
        assert_eq!(tail(&ramp(1000)), Some((99, 990.0)));
        for n in 20..400 {
            let (p, v) = tail(&ramp(n)).unwrap();
            let beyond = ramp(n).iter().filter(|&&x| x > v).count();
            assert!(beyond >= BEYOND, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let got = iqr_share(&ramp(10));
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
