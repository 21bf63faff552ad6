//! Job-level latency quantiles from the runtime's log2 histograms.
//!
//! [`quantile_from_log2_buckets`] estimates latency percentiles from the
//! runtime's log2-bucketed histograms ([`mgps_runtime::metrics`]) by
//! linear interpolation inside the containing bucket. Buckets double in
//! width, so the estimate is off by at most the width of one bucket: for
//! any quantile `q` of any sample, `estimate / exact` lies in `[0.5, 2]`
//! (the /metrics gauges and `multigrain top` both carry this caveat).
//! A job's lifecycle itself — exactly one terminal, span terms that
//! partition its wall time — is judged by the checker's `job-lifecycle`
//! and `job-retry` rules (`mgps-analysis`).

/// The latency quantiles exported on `/metrics` and shown by `top`.
pub const JOB_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Estimate the `q`-quantile (`0 <= q <= 1`) of the sample a log2
/// histogram recorded, by linear interpolation inside the containing
/// bucket. `buckets[i]` counts values of bit length `i`
/// ([`mgps_runtime::metrics::hist_bucket`]): bucket 0 holds exactly the
/// value 0, bucket `i > 0` spans `[2^(i-1), 2^i)`.
///
/// Returns `None` for an empty histogram — absent, never a NaN, the same
/// guard as atlas cells. The estimate of any quantile is within a factor
/// of 2 of the exact sample percentile (one bucket's width); the pinned
/// error-bound test below holds this on log-uniform samples.
pub fn quantile_from_log2_buckets(buckets: &[u64], q: f64) -> Option<f64> {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Continuous rank in [0, n-1]; the value at that rank, interpolated
    // uniformly inside its bucket.
    let rank = q * ((n - 1) as f64);
    let mut before: u64 = 0;
    for (i, &count) in buckets.iter().enumerate() {
        if count == 0 {
            continue;
        }
        let end = before + count;
        if rank < end as f64 || end == n {
            if i == 0 {
                return Some(0.0);
            }
            let lo = (1u128 << (i - 1)) as f64;
            let hi = (1u128 << i) as f64;
            let frac = ((rank - before as f64) / count as f64).clamp(0.0, 1.0);
            return Some(lo + (hi - lo) * frac);
        }
        before = end;
    }
    None // unreachable: n > 0 guarantees a containing bucket
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::metrics::{hist_bucket, HIST_BUCKETS};

    #[test]
    fn quantiles_of_an_empty_histogram_are_absent() {
        assert_eq!(quantile_from_log2_buckets(&[0; HIST_BUCKETS], 0.5), None);
    }

    #[test]
    fn quantile_of_a_point_mass_lands_in_its_bucket() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[hist_bucket(1000)] = 100; // all observations in [512, 1024)
        for q in JOB_QUANTILES {
            let est = quantile_from_log2_buckets(&buckets, q).unwrap();
            assert!((512.0..1024.0).contains(&est), "q={q} estimated {est}");
        }
        buckets = [0; HIST_BUCKETS];
        buckets[0] = 5; // the zero bucket is exact
        assert_eq!(quantile_from_log2_buckets(&buckets, 0.99), Some(0.0));
    }

    #[test]
    fn quantile_estimates_are_within_one_bucket_of_exact_percentiles() {
        // Log-uniform samples over [2^4, 2^30]: every magnitude equally
        // represented, the worst realistic case for log2 bucketing.
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let samples: Vec<u64> = (0..10_000)
            .map(|_| {
                let log = 4.0 + next() * (30.0 - 4.0);
                2f64.powf(log) as u64
            })
            .collect();
        let mut buckets = [0u64; HIST_BUCKETS];
        for &s in &samples {
            buckets[hist_bucket(s)] += 1;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in JOB_QUANTILES {
            let exact = sorted[(q * (sorted.len() - 1) as f64) as usize] as f64;
            let est = quantile_from_log2_buckets(&buckets, q).unwrap();
            let ratio = est / exact;
            // The pinned bound: one bucket's width, i.e. a factor of 2.
            assert!(
                (0.5..=2.0).contains(&ratio),
                "q={q}: estimate {est} vs exact {exact} (ratio {ratio})"
            );
        }
    }
}
