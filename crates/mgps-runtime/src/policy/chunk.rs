//! Iteration-space partitioning for loop work-sharing (§5.3).
//!
//! A parallel loop of `n` iterations is split across a team of `k` SPEs.
//! The master SPE starts executing immediately after signalling the workers,
//! while each worker must first DMA its input addresses and data from the
//! master's local store — so the master gets a *head start*. The paper
//! compensates by giving the master "a slightly larger portion of the loop";
//! [`partition`] implements that bias, and
//! [`super::balance::LoadBalancer`] tunes it adaptively per loop site.

use std::ops::Range;

/// Split `0..n` into `k` contiguous chunks, the first (master) chunk scaled
/// by `1 + master_bias`.
///
/// Properties (see the property tests):
/// * chunks are disjoint, contiguous, and cover `0..n` exactly;
/// * every chunk is non-empty whenever `n >= k` (workers never receive an
///   empty range unless there are more SPEs than iterations);
/// * `master_bias = 0` gives an even split (remainder spread over the first
///   chunks).
///
/// # Panics
/// Panics if `k == 0` or `master_bias` is not finite or below `0`.
pub fn partition(n: usize, k: usize, master_bias: f64) -> Vec<Range<usize>> {
    assert!(k > 0, "cannot partition across zero SPEs");
    assert!(master_bias.is_finite() && master_bias >= 0.0, "bias must be finite and >= 0");

    if k == 1 {
        #[allow(clippy::single_range_in_vec_init)] // one chunk covering 0..n is the intent
        return vec![0..n];
    }
    if n == 0 {
        return vec![0..0; k];
    }

    // Target master share: (1+b)/(k+b) of the iterations, i.e. a plain
    // 1/k share inflated by the bias while keeping the total fixed.
    let master_share = (1.0 + master_bias) / (k as f64 + master_bias);
    // Master gets at least its even share, at most everything that leaves
    // one iteration per worker when possible.
    let even = n / k;
    let mut master_len = (n as f64 * master_share).round() as usize;
    master_len = master_len.max(even.max(1).min(n));
    if n > k - 1 {
        master_len = master_len.min(n - (k - 1));
    } else {
        master_len = master_len.min(1);
    }

    let mut chunks = Vec::with_capacity(k);
    chunks.push(0..master_len);
    let rest = n - master_len;
    let workers = k - 1;
    let base = rest / workers;
    let extra = rest % workers;
    let mut start = master_len;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        chunks.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_covers(n: usize, chunks: &[Range<usize>]) {
        let mut expect = 0usize;
        for c in chunks {
            assert_eq!(c.start, expect, "chunks must be contiguous");
            assert!(c.end >= c.start);
            expect = c.end;
        }
        assert_eq!(expect, n, "chunks must cover 0..n");
    }

    #[test]
    fn unbiased_split_is_even() {
        let chunks = partition(228, 4, 0.0);
        assert_covers(228, &chunks);
        assert!(chunks.iter().all(|c| c.len() == 57));
    }

    #[test]
    fn remainder_spreads_over_leading_chunks() {
        let chunks = partition(10, 4, 0.0);
        assert_covers(10, &chunks);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn master_bias_inflates_first_chunk() {
        let even = partition(228, 4, 0.0);
        let biased = partition(228, 4, 0.30);
        assert_covers(228, &biased);
        assert!(
            biased[0].len() > even[0].len(),
            "biased master chunk {} should exceed even chunk {}",
            biased[0].len(),
            even[0].len()
        );
        // Bias of 0.3 over 4 SPEs: master share (1.3/4.3) ≈ 30% of 228 ≈ 69.
        assert_eq!(biased[0].len(), 69);
    }

    #[test]
    fn single_spe_gets_everything() {
        assert_eq!(partition(100, 1, 0.5), vec![0..100]);
    }

    #[test]
    fn zero_iterations_yield_empty_chunks() {
        let chunks = partition(0, 3, 0.0);
        assert_eq!(chunks.len(), 3);
        assert!(chunks.iter().all(|c| c.is_empty()));
    }

    #[test]
    fn more_spes_than_iterations_leaves_trailing_chunks_empty() {
        let chunks = partition(3, 8, 0.0);
        assert_covers(3, &chunks);
        let nonempty = chunks.iter().filter(|c| !c.is_empty()).count();
        assert_eq!(nonempty, 3);
    }

    #[test]
    fn workers_always_get_work_when_iterations_suffice() {
        for k in 2..=8 {
            for n in [k, 2 * k, 228, 1000] {
                let chunks = partition(n, k, 0.25);
                assert_covers(n, &chunks);
                assert!(
                    chunks.iter().all(|c| !c.is_empty()),
                    "n={n} k={k} produced an empty chunk: {chunks:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero SPEs")]
    fn zero_team_rejected() {
        let _ = partition(10, 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "bias must be finite")]
    fn negative_bias_rejected() {
        let _ = partition(10, 2, -0.5);
    }
}
