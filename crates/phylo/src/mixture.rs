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
/// The Γ engine the kernels replaced: a fresh single-rate engine per
/// category per kernel call, one [`Clv`] per category, per-site terms
/// aligned on their scaling exponents, and golden section on each edge.
/// Kept as the oracle the one kernel body's +Γ is checked against.
pub(crate) mod classic {
    use crate::alignment::PatternAlignment;
    use crate::dna::STATES;
    use crate::likelihood::classic::golden_section_branch;
    use crate::likelihood::{log_scale, Clv, LikelihoodEngine};
    use crate::model::{ScaledModel, SubstModel};
    use crate::special::discrete_gamma_rates;
    use crate::traversal::{self, Kernels};
    use crate::tree::Tree;

    /// The Γ-mixture likelihood engine.
    pub struct GammaEngine<'a, M: SubstModel> {
        model: &'a M,
        data: &'a PatternAlignment,
        rates: Vec<f64>,
    }

    impl<'a, M: SubstModel> GammaEngine<'a, M> {
        /// A `K`-category discrete-Γ engine with shape `alpha` over `data`.
        pub fn new(model: &'a M, data: &'a PatternAlignment, alpha: f64, k: usize) -> Self {
            GammaEngine { model, data, rates: discrete_gamma_rates(alpha, k) }
        }

        /// The category rates in use (ascending, mean 1).
        pub fn rates(&self) -> &[f64] {
            &self.rates
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
            let w = self.data.weights();
            let ln_min = log_scale();

            // Per-category per-site (term, exp) pairs.
            let terms: Vec<Vec<(f64, u32)>> = self
                .rates
                .iter()
                .enumerate()
                .map(|(c, &rate)| {
                    let sm = ScaledModel { inner: self.model, rate };
                    site_terms(&sm, &us[c], &vs[c], t)
                })
                .collect();

            let mut lnl = 0.0;
            for i in 0..self.data.n_patterns() {
                // Align the categories on the smallest scaling exponent: the
                // true value of category c is term_c · S^{exp_c} with
                // S = 1e-100, so categories more than two exponents above the
                // minimum contribute nothing representable.
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

    /// Per-pattern *linear* likelihood terms of one category at an edge:
    /// `(term, exp)` where the site likelihood is
    /// `term · SCALE_THRESHOLD^exp`, in the single-rate `evaluate`'s float
    /// order.
    pub fn site_terms(model: &impl SubstModel, u: &Clv, v: &Clv, t: f64) -> Vec<(f64, u32)> {
        let (p, pi) = (model.prob_matrix(t), model.base_freqs());
        let (scale_u, scale_v) = (u.as_raw().1, v.as_raw().1);
        (0..u.n_patterns())
            .map(|j| {
                let (lu, lv) = (u.pattern(j), v.pattern(j));
                let mut term = 0.0;
                for x in 0..STATES {
                    let mut inner = 0.0;
                    for y in 0..STATES {
                        inner += p[x][y] * lv[y];
                    }
                    term += pi[x] * lu[x] * inner;
                }
                (term, scale_u[j] + scale_v[j])
            })
            .collect()
    }

    /// The mixture's kernels: one [`Clv`] per rate category, each pruned by
    /// that category's single-rate engine.
    impl<M: SubstModel> Kernels for &GammaEngine<'_, M> {
        type Clv = Vec<Clv>;

        fn tip(&mut self, taxon: usize) -> Vec<Clv> {
            self.per_category(|_, eng| eng.tip_clv(taxon))
        }

        fn newview(&mut self, left: Vec<Clv>, t_l: f64, right: Vec<Clv>, t_r: f64) -> Vec<Clv> {
            self.per_category(|c, eng| eng.newview(&left[c], t_l, &right[c], t_r))
        }

        fn evaluate(&mut self, us: Vec<Clv>, vs: Vec<Clv>, t: f64) -> f64 {
            self.edge_lnl(&us, &vs, t)
        }

        /// Golden section over the mixture likelihood.
        fn optimize_edge(&mut self, us: Vec<Clv>, vs: Vec<Clv>, t0: f64) -> f64 {
            golden_section_branch(t0, |t| self.edge_lnl(&us, &vs, t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::classic::{site_terms, GammaEngine};
    use super::*;
    use crate::alignment::Alignment;
    use crate::dna::StateMask;
    use crate::model::{Gtr, Jc69, ScaledModel};
    use crate::tree::EdgeId;
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

    /// Branch lengths of `tree` optimized by the one engine's Newton steps
    /// and by the oracle's golden section, from the same start: `(Newton
    /// lnL, golden-section lnL, largest |Δt|, the Newton tree)`.
    fn newton_and_golden_section<M: SubstModel>(
        model: &M,
        d: &PatternAlignment,
        alpha: f64,
        tree: &Tree,
    ) -> (f64, f64, f64, Tree) {
        let (mut newton, mut golden) = (tree.clone(), tree.clone());
        let gamma = Gamma::new(model, alpha, 4);
        let lnl = LikelihoodEngine::new(&gamma, d).optimize_branches(&mut newton, 3, 1e-4);
        let oracle = GammaEngine::new(model, d, alpha, 4);
        let want = crate::traversal::optimize_branches(&mut &oracle, &mut golden, 3, 1e-4);
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
        // One category is the single-rate instance of the body, and the
        // oracle's one scaled engine at rate 1.
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        assert_eq!(a.to_bits(), GammaEngine::new(&Jc69, &d, 0.7, 1).log_likelihood(&tree).to_bits());
        assert_eq!(a.to_bits(), 0xc087_b0bc_2e31_f742);
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
        let gamma = Gamma::new(Jc69, 0.5, k);
        let got = LikelihoodEngine::new(&gamma, &d).log_likelihood(&tree);

        // Manual: per category, per site linear likelihoods (no deep
        // scaling on this tiny tree: all exps are 0).
        let e = EdgeId(0);
        let (a, b) = tree.endpoints(e);
        let mut per_site = vec![0.0f64; d.n_patterns()];
        for &r in gamma.rates() {
            let sm = ScaledModel { inner: &Jc69, rate: r };
            let eng = LikelihoodEngine::new(&sm, &d);
            let cu = eng.clv_toward(&tree, a, b);
            let cv = eng.clv_toward(&tree, b, a);
            for (i, (term, exp)) in site_terms(&sm, &cu, &cv, tree.length(e)).into_iter().enumerate() {
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
        /// The one kernel body's +Γ is the per-category oracle's mixture:
        /// on random trees, shapes and models, at one category and at
        /// four, and on a 200-taxon caterpillar deep enough that the
        /// categories rescale jointly in one and apart in the other.
        #[test]
        fn the_one_body_is_the_per_category_oracle(
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
                let m = Gtr::example();
                (lnl(&m, &d, alpha, k, &tree), GammaEngine::new(&m, &d, alpha, k).log_likelihood(&tree))
            } else {
                (lnl(Jc69, &d, alpha, k, &tree), GammaEngine::new(&Jc69, &d, alpha, k).log_likelihood(&tree))
            };
            prop_assert!((got - want).abs() <= 1e-9, "one body {} vs oracle {}", got, want);
            if caterpillar {
                let gamma = Gamma::new(Jc69, alpha, k);
                let (spine, _) = tree.neighbors(0)[0];
                let deep = LikelihoodEngine::new(&gamma, &d).clv_toward(&tree, spine, 0);
                prop_assert!(deep.total_scalings() > 0, "the caterpillar must rescale");
            }
        }
    }
}
