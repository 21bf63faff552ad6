//! Γ-distributed rate heterogeneity across sites (Yang 1994) — the
//! `GTR+Γ` likelihood RAxML computes in production.
//!
//! Site rates follow a discretized Gamma(α, α) with `K` equal-probability
//! categories; the site likelihood is the average over categories of the
//! plain likelihood with all branch lengths scaled by the category rate:
//!
//! ```text
//! L_i = (1/K) · Σ_k L_i(r_k · T)
//! ```
//!
//! [`Gamma`] is a substitution model like any other, naming its category
//! rates through [`SubstModel::rates`]; the one kernel body in `likelihood`
//! carries them inside each CLV, so every engine, search and off-loaded
//! request runs +Γ as it runs a single rate.

use crate::alignment::PatternAlignment;
use crate::likelihood::{golden_section_max, LikelihoodEngine};
use crate::model::{Matrix, Spectrum, SubstModel};
use crate::special::discrete_gamma_rates;
use crate::tree::Tree;

/// `model` with discrete-Γ rate heterogeneity: `K` equally weighted
/// categories at the conditional-mean rates of Gamma(α, α).
#[derive(Debug, Clone)]
pub struct Gamma<M> {
    model: M,
    rates: Vec<f64>,
}

impl<M> Gamma<M> {
    /// `model` with `categories` discrete-Γ categories of shape `alpha`.
    ///
    /// # Panics
    /// Panics unless `alpha` is finite and positive and `categories >= 1`.
    pub fn new(model: M, alpha: f64, categories: usize) -> Self {
        Gamma { model, rates: discrete_gamma_rates(alpha, categories) }
    }
}

/// The wrapped model at rate 1, with the categories' rates.
impl<M: SubstModel<S>, const S: usize> SubstModel<S> for Gamma<M> {
    fn prob_matrix(&self, t: f64) -> Matrix<S> {
        self.model.prob_matrix(t)
    }
    fn spectrum(&self) -> Spectrum<S> {
        self.model.spectrum()
    }
    fn base_freqs(&self) -> [f64; S] {
        self.model.base_freqs()
    }
    fn rates(&self) -> &[f64] {
        &self.rates
    }
}

/// Estimate the Γ shape parameter α by golden-section maximization of the
/// mixture likelihood of `tree` over `alpha ∈ [lo, hi]` (log-spaced
/// search; α is a scale-free shape). Returns `(alpha, lnl)`.
///
/// # Panics
/// Panics unless `0 < lo < hi` and `categories >= 1`.
pub fn estimate_alpha<M: SubstModel<S>, const S: usize>(
    model: &M,
    data: &PatternAlignment<S>,
    tree: &Tree,
    categories: usize,
    lo: f64,
    hi: f64,
) -> (f64, f64) {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    let gamma = |alpha: f64| Gamma::new(model, alpha, categories);
    let f = |alpha: f64| LikelihoodEngine::new(&gamma(alpha), data).log_likelihood(tree);
    // Search in log-alpha space.
    let ln_alpha =
        golden_section_max(lo.ln(), hi.ln(), 40, |a, b| (b - a) < 1e-4, |x| f(x.exp()));
    let alpha = ln_alpha.exp();
    (alpha, f(alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::dna::StateMask;
    use crate::model::{Gtr, Jc69};
    use crate::reference::{brute_force, Reference};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> PatternAlignment {
        PatternAlignment::compress(&Alignment::synthetic(6, 120, &Jc69, 0.15, 33))
    }

    /// The one engine's lnL of `tree` under `model` +Γ(`alpha`, `k`).
    fn lnl<M: SubstModel>(model: M, d: &PatternAlignment, alpha: f64, k: usize, tree: &Tree) -> f64 {
        LikelihoodEngine::new(&Gamma::new(model, alpha, k), d).log_likelihood(tree)
    }

    /// The lnL of `tree` under `model` by the one engine and by the
    /// reference.
    fn engine_and_reference<M: SubstModel>(
        model: &M,
        d: &PatternAlignment,
        tree: &Tree,
    ) -> (f64, f64) {
        let engine = LikelihoodEngine::new(model, d).log_likelihood(tree);
        (engine, Reference::new(model, d).log_likelihood(tree))
    }

    /// Branch lengths of `tree` optimized by the one engine's Newton steps
    /// and by the reference's golden section, from the same start:
    /// `(Newton lnL, golden-section lnL, largest |Δt|, the Newton tree)`.
    fn newton_and_golden_section<M: SubstModel>(
        model: &M,
        d: &PatternAlignment,
        alpha: f64,
        tree: &Tree,
    ) -> (f64, f64, f64, Tree) {
        let (mut newton, mut golden) = (tree.clone(), tree.clone());
        let gamma = Gamma::new(model, alpha, 4);
        let lnl = LikelihoodEngine::new(&gamma, d).optimize_branches(&mut newton, 3, 1e-4);
        let reference = Reference::new(&gamma, d);
        let want = crate::traversal::optimize_branches(&mut &reference, &mut golden, 3, 1e-4);
        let dt = tree.edge_ids().map(|e| (newton.length(e) - golden.length(e)).abs());
        (lnl, want, dt.fold(0.0, f64::max), newton)
    }

    #[test]
    fn one_category_equals_plain_engine() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = Tree::random(6, 0.1, &mut rng);
        let a = lnl(Jc69, &d, 0.7, 1, &tree);
        let b = LikelihoodEngine::new(&Jc69, &d).log_likelihood(&tree);
        // One category is the single-rate instance of the body.
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        assert_eq!(a.to_bits(), 0xc087_b0bc_2e31_f742);
        let want = Reference::new(&Gamma::new(Jc69, 0.7, 1), &d).log_likelihood(&tree);
        assert!((a - want).abs() <= 1e-9 * want.abs(), "{a} vs reference {want}");
    }

    #[test]
    fn huge_alpha_converges_to_rate_homogeneity() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(2);
        let tree = Tree::random(6, 0.12, &mut rng);
        let a = lnl(Jc69, &d, 1e4, 4, &tree);
        let b = LikelihoodEngine::new(&Jc69, &d).log_likelihood(&tree);
        assert!((a - b).abs() < 0.05, "alpha=1e4: {a} vs plain {b}");
    }

    #[test]
    fn mixture_matches_manual_category_average_on_small_data() {
        // Manual check: enumerate each category's internal states and
        // average the categories by hand.
        let aln = Alignment::from_strings(&[
            ("a", "ACGTAC"),
            ("b", "ACGTTC"),
            ("c", "AAGTAC"),
            ("d", "ACGAAC"),
        ])
        .unwrap();
        let d = PatternAlignment::compress(&aln);
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = Tree::random(4, 0.2, &mut rng);

        let gamma = Gamma::new(Jc69, 0.5, 4);
        let got = LikelihoodEngine::new(&gamma, &d).log_likelihood(&tree);
        let want = brute_force(&gamma, &d, &tree);
        assert!((got - want).abs() < 1e-10, "{got} vs manual {want}");
        assert_eq!(got.to_bits(), 0xc035_8750_c64c_9728);
    }

    #[test]
    fn gamma_improves_fit_on_rate_heterogeneous_data() {
        // Build data whose halves evolved at very different rates; +Γ must
        // beat the homogeneous model on the same (optimized) tree.
        let fast = Alignment::synthetic(6, 150, &Jc69, 0.5, 9);
        let slow = Alignment::synthetic(6, 150, &Jc69, 0.01, 9);
        let rows: Vec<(String, String)> = (0..6)
            .map(|t| {
                let name = format!("t{t}");
                let mut seq = String::new();
                for s in 0..150 {
                    seq.push(StateMask(fast.code(t, s)).to_char());
                }
                for s in 0..150 {
                    seq.push(StateMask(slow.code(t, s)).to_char());
                }
                (name, seq)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let d = PatternAlignment::compress(&Alignment::from_strings(&borrowed).unwrap());

        let mut rng = SmallRng::seed_from_u64(4);
        let tree = Tree::random(6, 0.1, &mut rng);
        let mut plain_tree = tree.clone();

        let (lnl_gamma, golden, dt, _) = newton_and_golden_section(&Jc69, &d, 0.4, &tree);
        assert!(lnl_gamma >= golden - 1e-6, "Newton {lnl_gamma} below golden section {golden}");
        assert!(dt < 1e-5, "Newton and golden section optima {dt} apart");
        assert_eq!(lnl_gamma.to_bits(), 0xc098_8dd9_c822_ffc8);
        let plain = LikelihoodEngine::new(&Jc69, &d);
        let lnl_plain = plain.optimize_branches(&mut plain_tree, 3, 1e-4);
        assert!(
            lnl_gamma > lnl_plain + 2.0,
            "+Γ should fit heterogeneous data better: {lnl_gamma} vs {lnl_plain}"
        );
    }

    #[test]
    fn gamma_engine_drives_the_generic_hill_climb() {
        let d = data();
        let cfg = crate::search::SearchConfig {
            max_rounds: 2,
            branch_passes: 1,
            epsilon: 1e-3,
            initial_branch: 0.1,
            restarts: 1,
        };
        let r = crate::search::hill_climb(&Gamma::new(Jc69, 0.8, 4), &d, &cfg, 5);
        r.tree.validate().unwrap();
        assert!(r.lnl.is_finite() && r.lnl < 0.0);
    }

    #[test]
    fn gtr_gamma_end_to_end() {
        let gtr = Gtr::example();
        let aln = Alignment::synthetic(6, 100, &gtr, 0.1, 11);
        let d = PatternAlignment::compress(&aln);
        let mut rng = SmallRng::seed_from_u64(6);
        let tree = Tree::random(6, 0.1, &mut rng);
        let before = lnl(&gtr, &d, 0.6, 4, &tree);
        let (after, golden, dt, tree) = newton_and_golden_section(&gtr, &d, 0.6, &tree);
        assert!(after >= before - 1e-9, "optimization regressed: {after} < {before}");
        assert!(after >= golden - 1e-6, "Newton {after} below golden section {golden}");
        assert!(dt < 1e-5, "Newton and golden section optima {dt} apart");
        // The Newton pass, pinned to the bit like the scores above (re-pinned
        // from golden section's, which it is within 1e-5 of, above).
        assert_eq!(before.to_bits(), 0xc078_57dc_ab8f_bfc9);
        assert_eq!(after.to_bits(), 0xc075_1706_f0e1_565c);
        let lengths: Vec<u64> = tree.edge_ids().map(|e| tree.length(e).to_bits()).collect();
        assert_eq!(
            lengths,
            [
                0x3f9a_8cfe_28aa_5788,
                0x3f97_64a9_b2c7_acfd,
                0x3fb0_2c48_63f0_ac4a,
                0x3faa_7f2b_3454_2547,
                0x3f94_338a_20e1_aefa,
                0x3fd5_db17_267e_cb27,
                0x3eb0_c6f7_a0b5_ed8d,
                0x3fb2_a8f9_0ab9_0cdc,
                0x3eb0_c6f7_a0b5_ed8d,
            ]
        );
    }

    #[test]
    fn alpha_estimation_separates_heterogeneous_from_homogeneous_data() {
        // Homogeneous data: the estimate runs to the upper boundary (no
        // heterogeneity to explain). Mixed-rate data: a small alpha wins.
        let homog = PatternAlignment::compress(&Alignment::synthetic(6, 240, &Jc69, 0.1, 51));
        let fast = Alignment::synthetic(6, 120, &Jc69, 0.6, 52);
        let slow = Alignment::synthetic(6, 120, &Jc69, 0.01, 52);
        let rows: Vec<(String, String)> = (0..6)
            .map(|t| {
                let mut seq = String::new();
                for s in 0..120 {
                    seq.push(StateMask(fast.code(t, s)).to_char());
                }
                for s in 0..120 {
                    seq.push(StateMask(slow.code(t, s)).to_char());
                }
                (format!("t{t}"), seq)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let hetero = PatternAlignment::compress(&Alignment::from_strings(&borrowed).unwrap());

        // Use searched trees: topology misfit on a random tree would
        // itself masquerade as rate heterogeneity.
        let cfg = crate::search::SearchConfig::default();
        let tree_h = crate::search::hill_climb(&Jc69, &homog, &cfg, 8).tree;
        let (alpha_homog, lnl_homog) = estimate_alpha(&Jc69, &homog, &tree_h, 4, 0.05, 50.0);

        let tree_x = crate::search::hill_climb(&Jc69, &hetero, &cfg, 8).tree;
        let (alpha_hetero, lnl_hetero) = estimate_alpha(&Jc69, &hetero, &tree_x, 4, 0.05, 50.0);

        assert!(
            alpha_hetero < 1.0,
            "mixed-rate data should estimate strong heterogeneity, got alpha {alpha_hetero}"
        );
        // On homogeneous data the alpha surface is flat near the optimum
        // (a point estimate is unstable), so assert on the likelihood-ratio
        // signal instead: fitting alpha buys almost nothing there, but a
        // lot on the mixed-rate data.
        let homog_flat = lnl(Jc69, &homog, 50.0, 4, &tree_h);
        assert!(
            lnl_homog - homog_flat < 3.0,
            "no heterogeneity signal expected: fitted {lnl_homog} vs alpha=50 {homog_flat} (alpha_hat {alpha_homog})"
        );
        let hetero_flat = lnl(Jc69, &hetero, 50.0, 4, &tree_x);
        assert!(
            lnl_hetero - hetero_flat > 10.0,
            "strong signal expected: fitted {lnl_hetero} vs alpha=50 {hetero_flat}"
        );
        // The fitted alpha must beat an arbitrary one on the same data.
        let bad = lnl(Jc69, &hetero, 10.0, 4, &tree_x);
        assert!(lnl_hetero > bad, "{lnl_hetero} vs {bad}");
    }

    #[test]
    fn scaling_alignment_keeps_deep_gamma_trees_finite() {
        let aln = Alignment::synthetic(200, 10, &Jc69, 0.5, 21);
        let d = PatternAlignment::compress(&aln);
        let tree = Tree::caterpillar(200, 1.0);
        let got = lnl(Jc69, &d, 0.5, 4, &tree);
        assert!(got.is_finite() && got < 0.0, "deep Γ mixture must stay finite: {got}");
    }

    proptest! {
        /// The one kernel body's +Γ is the reference's mixture: on random
        /// trees, shapes and models, at one category and at four, and on a
        /// 200-taxon caterpillar deep enough to rescale.
        #[test]
        fn the_one_body_is_the_reference_mixture(
            seed in 0u64..u64::MAX,
            taxa in 4usize..=12,
            alpha in (-3.0f64..3.0).prop_map(f64::exp),
            k in (0usize..2).prop_map(|i| [1, 4][i]),
            gtr in (0u8..2).prop_map(|i| i == 1),
            caterpillar in (0u8..4).prop_map(|i| i == 3),
        ) {
            let (taxa, sites) = if caterpillar { (200, 10) } else { (taxa, 60) };
            let aln = Alignment::synthetic(taxa, sites, &Jc69, 0.3, seed);
            let d = PatternAlignment::compress(&aln);
            let tree = if caterpillar {
                Tree::caterpillar(taxa, 1.0)
            } else {
                Tree::random(taxa, 0.2, &mut SmallRng::seed_from_u64(seed))
            };
            let (got, want) = if gtr {
                engine_and_reference(&Gamma::new(Gtr::example(), alpha, k), &d, &tree)
            } else {
                engine_and_reference(&Gamma::new(Jc69, alpha, k), &d, &tree)
            };
            let off = (got - want).abs() / want.abs();
            prop_assert!(off <= 1e-9, "one body {got} vs reference {want}");
            if caterpillar {
                let gamma = Gamma::new(Jc69, alpha, k);
                let (spine, _) = tree.neighbors(0)[0];
                let deep = LikelihoodEngine::new(&gamma, &d).clv_toward(&tree, spine, 0);
                prop_assert!(deep.total_scalings() > 0, "the caterpillar must rescale");
            }
        }
    }
}
