//! Non-parametric bootstrapping (§3.1).
//!
//! A bootstrap replicate re-samples alignment columns with replacement and
//! re-runs the inference on the re-sampled data. With site-pattern
//! compression a replicate is the compressed alignment of its re-sampled
//! columns: each pattern's weight becomes the number of times any of its
//! columns was drawn, and the patterns it did not draw are absent, so no
//! kernel walks a pattern whose term it would multiply by 0. Replicate
//! confidence values are the fraction of replicate trees containing each
//! bipartition of the best-known tree.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::alignment::PatternAlignment;
use crate::tree::Tree;

/// Produce the re-sampled weight vector of one bootstrap replicate,
/// deterministic in `seed`.
pub fn bootstrap_weights<const S: usize>(data: &PatternAlignment<S>, seed: u64) -> Vec<u32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_sites = data.n_sites();
    let col2pat = data.column_pattern();
    let mut weights = vec![0u32; data.n_patterns()];
    for _ in 0..n_sites {
        let col = rng.gen_range(0..n_sites);
        weights[col2pat[col]] += 1;
    }
    weights
}

/// A bootstrap replicate: the compressed alignment of the re-sampled
/// columns — the patterns drawn at least once, in their original order,
/// weighted by [`bootstrap_weights`].
pub fn bootstrap_replicate<const S: usize>(
    data: &PatternAlignment<S>,
    seed: u64,
) -> PatternAlignment<S> {
    data.with_weights(bootstrap_weights(data, seed))
}

/// Support values for the bipartitions of `reference`, as the fraction of
/// `replicates` containing each bipartition. Returned in the iteration
/// order of [`Tree::bipartitions`].
pub fn support_values(reference: &Tree, replicates: &[Tree]) -> Vec<f64> {
    let ref_bips: Vec<_> = reference.bipartitions().into_iter().collect();
    if replicates.is_empty() {
        return vec![0.0; ref_bips.len()];
    }
    let rep_bips: Vec<_> = replicates.iter().map(Tree::bipartitions).collect();
    ref_bips
        .iter()
        .map(|bip| {
            let hits = rep_bips.iter().filter(|set| set.contains(bip)).count();
            hits as f64 / replicates.len() as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::model::Jc69;

    fn data() -> PatternAlignment {
        PatternAlignment::compress(&Alignment::synthetic(6, 300, &Jc69, 0.1, 17))
    }

    #[test]
    fn bootstrap_weights_sum_to_site_count() {
        let d = data();
        for seed in 0..20 {
            let w = bootstrap_weights(&d, seed);
            let total: u32 = w.iter().sum();
            assert_eq!(total as usize, d.n_sites(), "seed {seed}");
        }
    }

    #[test]
    fn bootstrap_is_deterministic_in_seed() {
        let d = data();
        assert_eq!(bootstrap_weights(&d, 5), bootstrap_weights(&d, 5));
        assert_ne!(bootstrap_weights(&d, 5), bootstrap_weights(&d, 6));
    }

    #[test]
    fn a_replicate_keeps_exactly_the_patterns_it_drew() {
        let d = data();
        for seed in [1, 9, 7919] {
            let w = bootstrap_weights(&d, seed);
            let rep = bootstrap_replicate(&d, seed);
            let drawn: Vec<usize> = (0..d.n_patterns()).filter(|&p| w[p] > 0).collect();
            assert!(drawn.len() < d.n_patterns(), "seed {seed}: nothing to drop");
            assert_eq!(rep.n_patterns(), drawn.len());
            for (i, &p) in drawn.iter().enumerate() {
                for t in 0..d.n_taxa() {
                    assert_eq!(rep.code(t, i), d.code(t, p), "seed {seed}");
                }
            }
            let kept: Vec<u32> = drawn.iter().map(|&p| w[p]).collect();
            assert_eq!(rep.weights(), &kept[..]);
            let total: u32 = rep.weights().iter().sum();
            assert_eq!(total as usize, rep.n_sites());
            assert_eq!(rep.n_sites(), d.n_sites());
            assert!(rep.column_pattern().iter().all(|&i| i < rep.n_patterns()));
        }
    }

    #[test]
    fn resampling_typically_drops_some_patterns() {
        // With n draws from n columns, ~1/e of columns are missed, so some
        // patterns should reach weight zero on realistic data.
        let d = data();
        let w = bootstrap_weights(&d, 1);
        assert!(
            w.contains(&0),
            "expected at least one dropped pattern out of {}",
            w.len()
        );
    }

    #[test]
    fn support_of_identical_replicates_is_one() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        let t = Tree::random(8, 0.1, &mut rng);
        let reps = vec![t.clone(), t.clone(), t.clone()];
        let s = support_values(&t, &reps);
        assert_eq!(s.len(), 5); // 8 - 3 bipartitions
        assert!(s.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn support_against_disagreeing_replicates_is_fractional() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(4);
        let reference = Tree::random(8, 0.1, &mut rng);
        let mut other = reference.clone();
        let e = other.internal_edges()[0];
        other.nni(e, 0);
        let reps = vec![reference.clone(), other];
        let s = support_values(&reference, &reps);
        assert!(s.iter().any(|&v| v < 1.0), "some bipartition lost support: {s:?}");
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn support_with_no_replicates_is_zero() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(5);
        let t = Tree::random(6, 0.1, &mut rng);
        let s = support_values(&t, &[]);
        assert!(s.iter().all(|&v| v == 0.0));
    }
}
