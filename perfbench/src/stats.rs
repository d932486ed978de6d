//! Order statistics: nearest-rank percentiles that refuse to report a
//! tail they have too few samples for, and the latency sample that ranks
//! failed requests above every completed one.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it. Refuses when
/// fewer than [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || rank > n || n - rank < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond its rank; have {n} samples"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of a small sample (the mean of the middle pair when even), for
/// repeated set-up timings where no tail is reported.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-request latencies in milliseconds. A failed request counts as
/// missing every latency limit: it ranks above every completed request,
/// whatever its own wall time was.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ok: Vec<f64>,
    failed: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64, failed: bool) {
        if failed {
            self.failed.push(ms);
        } else {
            self.ok.push(ms);
        }
    }

    /// Nearest-rank percentile with failures ranked last.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let mut ok = self.ok.clone();
        ok.sort_by(f64::total_cmp);
        let mut failed = self.failed.clone();
        failed.sort_by(f64::total_cmp);
        ok.extend(failed);
        percentile(&ok, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Ok(50.0));
        assert_eq!(percentile(&v, 90.0), Ok(90.0));
        assert_eq!(percentile(&v, 89.5), Ok(90.0));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        // ceil(0.5 * 21) = 11: the 11th value, 10 samples beyond it.
        assert_eq!(percentile(&v, 50.0), Ok(11.0));
    }

    #[test]
    fn p95_is_refused_with_fewer_than_ten_samples_beyond() {
        // 199 samples: rank ceil(189.05) = 190, 9 beyond it.
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert!(percentile(&v, 95.0).is_err());
        // 200 samples: rank 190, 10 beyond it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Ok(190.0));
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn failed_requests_rank_above_completed_ones() {
        let mut l = Latencies::default();
        for i in 1..=19 {
            l.push(f64::from(i), false);
        }
        // A fast failure still lands last.
        l.push(0.5, true);
        assert_eq!(l.percentile(50.0), Ok(10.0));
        let sorted: Vec<f64> = (1..=19).map(f64::from).chain([0.5]).collect();
        assert_eq!(percentile(&sorted, 50.0), Ok(10.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
