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
//! [`GammaEngine`] reuses the single-rate [`LikelihoodEngine`] per category
//! (via [`ScaledModel`]) and combines per-site terms with careful scaling-
//! exponent alignment, so deep trees stay finite exactly as in the
//! single-rate code path.

#![allow(clippy::needless_range_loop)] // index loops mirror the math in dense kernels

use crate::alignment::PatternAlignment;
use crate::likelihood::{
    golden_section_branch, golden_section_max, log_scale, Clv, LikelihoodEngine,
};
use crate::model::{ScaledModel, SubstModel};
use crate::special::discrete_gamma_rates;
use crate::traversal::{self, Kernels};
use crate::tree::Tree;

/// The Γ-mixture likelihood engine.
pub struct GammaEngine<'a, M: SubstModel> {
    model: &'a M,
    data: &'a PatternAlignment,
    rates: Vec<f64>,
    alpha: f64,
}

impl<'a, M: SubstModel> GammaEngine<'a, M> {
    /// A `K`-category discrete-Γ engine with shape `alpha` over `data`.
    ///
    /// # Panics
    /// Panics unless `alpha > 0` and `categories >= 1`.
    pub fn new(model: &'a M, data: &'a PatternAlignment, alpha: f64, categories: usize) -> Self {
        let rates = discrete_gamma_rates(alpha, categories);
        GammaEngine { model, data, rates, alpha }
    }

    /// The category rates in use (ascending, mean 1).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The shape parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// One value per category, computed by the single-rate engine whose
    /// branch lengths are all scaled by that category's rate.
    fn per_category<T>(
        &self,
        f: impl Fn(usize, &LikelihoodEngine<'_, ScaledModel<&M>>) -> T,
    ) -> Vec<T> {
        self.rates
            .iter()
            .enumerate()
            .map(|(c, &rate)| {
                let sm = ScaledModel { inner: self.model, rate };
                f(c, &LikelihoodEngine::new(&sm, self.data))
            })
            .collect()
    }

    /// Mixture log-likelihood at an edge given per-category CLV pairs.
    fn edge_lnl(&self, us: &[Clv], vs: &[Clv], t: f64) -> f64 {
        let k = self.rates.len();
        let n = self.data.n_patterns();
        let w = self.data.weights();
        let ln_min = log_scale();

        // Per-category per-site (term, exp) pairs.
        let terms = self.per_category(|c, eng| eng.site_terms(&us[c], &vs[c], t));

        let mut lnl = 0.0;
        for i in 0..n {
            // Align the categories on the smallest scaling exponent: the
            // true value of category c is term_c · S^{exp_c} with S = 1e-100,
            // so categories more than two exponents above the minimum
            // contribute nothing representable.
            let min_exp = terms.iter().map(|t| t[i].1).min().expect("k >= 1");
            let mut sum = 0.0;
            for t in &terms {
                let (term, exp) = t[i];
                let shift = exp - min_exp;
                if shift <= 2 {
                    sum += term * 1e-100f64.powi(shift as i32);
                }
            }
            let site = (sum / k as f64).max(f64::MIN_POSITIVE).ln() + min_exp as f64 * ln_min;
            lnl += w[i] as f64 * site;
        }
        lnl
    }

    /// Mixture log-likelihood of `tree`.
    pub fn log_likelihood(&self, tree: &Tree) -> f64 {
        traversal::score(&mut &*self, tree)
    }
}

/// The mixture's kernels: one [`Clv`] per rate category, each pruned by
/// that category's single-rate engine.
impl<M: SubstModel> Kernels for &GammaEngine<'_, M> {
    type Clv = Vec<Clv>;

    fn tip(&mut self, taxon: usize) -> Vec<Clv> {
        self.per_category(|_, eng| eng.tip_clv(taxon))
    }

    fn newview(&mut self, left: Vec<Clv>, t_left: f64, right: Vec<Clv>, t_right: f64) -> Vec<Clv> {
        self.per_category(|c, eng| eng.newview(&left[c], t_left, &right[c], t_right))
    }

    fn evaluate(&mut self, us: Vec<Clv>, vs: Vec<Clv>, t: f64) -> f64 {
        self.edge_lnl(&us, &vs, t)
    }

    /// Golden section: the mixture's analytic derivatives buy little at 4
    /// categories.
    fn optimize_edge(&mut self, us: Vec<Clv>, vs: Vec<Clv>, t0: f64) -> f64 {
        golden_section_branch(t0, |t| self.edge_lnl(&us, &vs, t))
    }
}

/// Estimate the Γ shape parameter α by golden-section maximization of the
/// mixture likelihood of `tree` over `alpha ∈ [lo, hi]` (log-spaced
/// search; α is a scale-free shape). Returns `(alpha, lnl)`.
///
/// # Panics
/// Panics unless `0 < lo < hi` and `categories >= 1`.
pub fn estimate_alpha<M: SubstModel>(
    model: &M,
    data: &PatternAlignment,
    tree: &Tree,
    categories: usize,
    lo: f64,
    hi: f64,
) -> (f64, f64) {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    let f = |alpha: f64| GammaEngine::new(model, data, alpha, categories).log_likelihood(tree);
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
    use crate::model::{Gtr, Jc69};
    use crate::search::ScoringEngine;
    use crate::tree::EdgeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> PatternAlignment {
        PatternAlignment::compress(&Alignment::synthetic(6, 120, &Jc69, 0.15, 33))
    }

    #[test]
    fn one_category_equals_plain_engine() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(1);
        let tree = Tree::random(6, 0.1, &mut rng);
        let gamma = GammaEngine::new(&Jc69, &d, 0.7, 1);
        let plain = LikelihoodEngine::new(&Jc69, &d);
        let a = gamma.log_likelihood(&tree);
        let b = plain.log_likelihood(&tree);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        // Pinned against the per-category walk this engine had before the
        // shared traversal: the refactor must not move a bit.
        assert_eq!(a.to_bits(), 0xc087_b0bc_2e31_f742);
    }

    #[test]
    fn huge_alpha_converges_to_rate_homogeneity() {
        let d = data();
        let mut rng = SmallRng::seed_from_u64(2);
        let tree = Tree::random(6, 0.12, &mut rng);
        let gamma = GammaEngine::new(&Jc69, &d, 1e4, 4);
        let plain = LikelihoodEngine::new(&Jc69, &d);
        let a = gamma.log_likelihood(&tree);
        let b = plain.log_likelihood(&tree);
        assert!((a - b).abs() < 0.05, "alpha=1e4: {a} vs plain {b}");
    }

    #[test]
    fn mixture_matches_manual_category_average_on_small_data() {
        // Manual check: compute each category's per-site likelihood with a
        // separately scaled engine and average by hand.
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

        let k = 4;
        let gamma = GammaEngine::new(&Jc69, &d, 0.5, k);
        let got = gamma.log_likelihood(&tree);

        // Manual: per category, per site linear likelihoods via site_terms
        // (no deep scaling on this tiny tree: all exps are 0).
        let e = EdgeId(0);
        let (a, b) = tree.endpoints(e);
        let mut per_site = vec![0.0f64; d.n_patterns()];
        for &r in gamma.rates() {
            let sm = ScaledModel { inner: &Jc69, rate: r };
            let eng = LikelihoodEngine::new(&sm, &d);
            let cu = eng.clv_toward(&tree, a, b);
            let cv = eng.clv_toward(&tree, b, a);
            for (i, (term, exp)) in eng.site_terms(&cu, &cv, tree.length(e)).into_iter().enumerate()
            {
                assert_eq!(exp, 0, "tiny tree must not rescale");
                per_site[i] += term / k as f64;
            }
        }
        let want: f64 = per_site
            .iter()
            .zip(d.weights())
            .map(|(&l, &w)| w as f64 * l.ln())
            .sum();
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
                    seq.push(fast.mask(t, s).to_char());
                }
                for s in 0..150 {
                    seq.push(slow.mask(t, s).to_char());
                }
                (name, seq)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let d = PatternAlignment::compress(&Alignment::from_strings(&borrowed).unwrap());

        let mut rng = SmallRng::seed_from_u64(4);
        let mut tree = Tree::random(6, 0.1, &mut rng);
        let mut plain_tree = tree.clone();

        let mut gamma = GammaEngine::new(&Jc69, &d, 0.4, 4);
        let lnl_gamma = ScoringEngine::optimize_branches(&mut gamma, &mut tree, 3, 1e-4);
        assert_eq!(lnl_gamma.to_bits(), 0xc098_8dd9_c812_5309);
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
        let mut engine = GammaEngine::new(&Jc69, &d, 0.8, 4);
        let cfg = crate::search::SearchConfig {
            max_rounds: 2,
            branch_passes: 1,
            epsilon: 1e-3,
            initial_branch: 0.1,
            restarts: 1,
        };
        let r = crate::search::hill_climb_with(&mut engine, d.n_taxa(), &cfg, 5);
        r.tree.validate().unwrap();
        assert!(r.lnl.is_finite() && r.lnl < 0.0);
    }

    #[test]
    fn gtr_gamma_end_to_end() {
        let gtr = Gtr::example();
        let aln = Alignment::synthetic(6, 100, &gtr, 0.1, 11);
        let d = PatternAlignment::compress(&aln);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut tree = Tree::random(6, 0.1, &mut rng);
        let mut engine = GammaEngine::new(&gtr, &d, 0.6, 4);
        let before = engine.log_likelihood(&tree);
        let after = ScoringEngine::optimize_branches(&mut engine, &mut tree, 3, 1e-4);
        assert!(after >= before - 1e-9, "optimization regressed: {after} < {before}");
        assert!(after.is_finite());
        // The golden-section pass, pinned to the bit like the scores above.
        assert_eq!(before.to_bits(), 0xc078_57dc_ab8f_bfc9);
        assert_eq!(after.to_bits(), 0xc075_1706_f0a5_d544);
        let lengths: Vec<u64> = tree.edge_ids().map(|e| tree.length(e).to_bits()).collect();
        assert_eq!(
            lengths,
            [
                0x3f9a_8cfa_1344_2a38,
                0x3f97_649f_655e_8e29,
                0x3fb0_2c43_fa2c_153a,
                0x3faa_7f23_1599_bb70,
                0x3f94_3383_adf4_d532,
                0x3fd5_db14_3544_4674,
                0x3eb0_c72a_c49b_f23e,
                0x3fb2_a8f7_ca54_3554,
                0x3eb0_c72a_c49b_f23e,
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
                    seq.push(fast.mask(t, s).to_char());
                }
                for s in 0..120 {
                    seq.push(slow.mask(t, s).to_char());
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
        let homog_flat = GammaEngine::new(&Jc69, &homog, 50.0, 4).log_likelihood(&tree_h);
        assert!(
            lnl_homog - homog_flat < 3.0,
            "no heterogeneity signal expected: fitted {lnl_homog} vs alpha=50 {homog_flat} (alpha_hat {alpha_homog})"
        );
        let hetero_flat = GammaEngine::new(&Jc69, &hetero, 50.0, 4).log_likelihood(&tree_x);
        assert!(
            lnl_hetero - hetero_flat > 10.0,
            "strong signal expected: fitted {lnl_hetero} vs alpha=50 {hetero_flat}"
        );
        // The fitted alpha must beat an arbitrary one on the same data.
        let bad = GammaEngine::new(&Jc69, &hetero, 10.0, 4).log_likelihood(&tree_x);
        assert!(lnl_hetero > bad, "{lnl_hetero} vs {bad}");
    }

    #[test]
    fn scaling_alignment_keeps_deep_gamma_trees_finite() {
        let aln = Alignment::synthetic(200, 10, &Jc69, 0.5, 21);
        let d = PatternAlignment::compress(&aln);
        let tree = Tree::caterpillar(200, 1.0);
        let gamma = GammaEngine::new(&Jc69, &d, 0.5, 4);
        let lnl = gamma.log_likelihood(&tree);
        assert!(lnl.is_finite() && lnl < 0.0, "deep Γ mixture must stay finite: {lnl}");
    }
}
