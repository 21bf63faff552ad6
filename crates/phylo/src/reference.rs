//! The textbook likelihood every engine is checked against.
//!
//! Felsenstein pruning as a textbook states it, for any state count `S`
//! and any number `K` of rate categories. A node's partial likelihood in
//! category `c` is `L_c[x] = Π_child Σ_y P(r_c t_child)[x][y] · L_child,c[y]`,
//! and a site's likelihood at an edge of length `t` averages its
//! categories' `Σ_x π_x L_u,c[x] Σ_y P(r_c t)[x][y] L_v,c[y]`. Only
//! [`SubstModel::prob_matrix`], [`SubstModel::rates`] and
//! [`SubstModel::base_freqs`] go into it. A tip is its code's state set in
//! the alphabet, and every node divides each pattern by its largest value
//! and keeps the log of the divisor in an `f64`. None of the one kernel
//! body's choices is shared: no tip products, no threshold-and-exponent
//! scaling, no eigen basis. An engine that agrees with it computes the
//! likelihood, and Newton branch lengths that agree with its golden
//! section rest on a correct spectrum.
//!
//! [`Reference::derivatives`] is the one place it reads
//! [`SubstModel::spectrum`], for `P′` and `P″`.

use crate::alignment::{alphabet, PatternAlignment};
use crate::likelihood::{golden_section_max, log_scale, Clv, MAX_BRANCH};
use crate::model::{Matrix, SubstModel};
use crate::traversal::{self, Kernels};
use crate::tree::{EdgeId, Tree};

/// A node's partial likelihoods: per pattern, one vector per rate
/// category, divided by the pattern's largest value, and the log of the
/// divisors taken over the subtree.
pub(crate) struct Partial<const S: usize> {
    vals: Vec<Vec<[f64; S]>>,
    ln_scale: Vec<f64>,
}

/// A production [`Clv`] read as partials: its exponents become log scales.
impl<const S: usize> From<&Clv> for Partial<S> {
    fn from(clv: &Clv) -> Self {
        let (vals, scale) = clv.as_raw();
        let k = (vals.len() / (S * scale.len().max(1))).max(1);
        let vector = |v: &[f64]| -> [f64; S] { v.try_into().expect("S values") };
        Partial {
            vals: vals.chunks(k * S).map(|p| p.chunks(S).map(vector).collect()).collect(),
            ln_scale: scale.iter().map(|&e| f64::from(e) * log_scale()).collect(),
        }
    }
}

/// A substitution model bound to an alignment over the same states.
pub(crate) struct Reference<'a, M, const S: usize> {
    model: &'a M,
    data: &'a PatternAlignment<S>,
}

impl<'a, M: SubstModel<S>, const S: usize> Reference<'a, M, S> {
    pub fn new(model: &'a M, data: &'a PatternAlignment<S>) -> Self {
        Reference { model, data }
    }

    /// `P(r_c t)` of every rate category `c`.
    fn matrices(&self, t: f64) -> Vec<Matrix<S>> {
        self.model.rates().iter().map(|&r| self.model.prob_matrix(r * t)).collect()
    }

    /// The log-likelihood of `tree`, evaluated at `edge`.
    pub fn log_likelihood_at(&self, tree: &Tree, edge: EdgeId) -> f64 {
        traversal::score_at(&mut &*self, tree, edge)
    }

    /// The log-likelihood of `tree`.
    pub fn log_likelihood(&self, tree: &Tree) -> f64 {
        self.log_likelihood_at(tree, EdgeId(0))
    }

    /// The log-likelihood at an edge of length `t` between `u` and `v`.
    fn edge_lnl(&self, u: &Partial<S>, v: &Partial<S>, t: f64) -> f64 {
        let (p, pi) = (self.matrices(t), self.model.base_freqs());
        let mut lnl = 0.0;
        for (j, &w) in self.data.weights().iter().enumerate() {
            let l: f64 = (0..p.len()).map(|c| site(&pi, &u.vals[j][c], &p[c], &v.vals[j][c])).sum();
            lnl += f64::from(w) * ((l / p.len() as f64).ln() + u.ln_scale[j] + v.ln_scale[j]);
        }
        lnl
    }

    /// The first and second derivatives of the log-likelihood at the edge
    /// between `u` and `v` in its length, at `t`. In category `c`,
    /// `d/dt P(r_c t) = r_c P′(r_c t)` and `P′ = L·diag(λ e^{λt})·R`,
    /// `P″ = L·diag(λ² e^{λt})·R` from the spectrum.
    pub fn derivatives(&self, u: &Partial<S>, v: &Partial<S>, t: f64) -> (f64, f64) {
        let (spectrum, pi) = (self.model.spectrum(), self.model.base_freqs());
        let lam = spectrum.eigenvalues;
        let mats: Vec<[Matrix<S>; 3]> = (self.model.rates().iter())
            .map(|&r| {
                let e = spectrum.exps(r * t);
                [
                    self.model.prob_matrix(r * t),
                    spectrum.matrix(std::array::from_fn(|k| r * lam[k] * e[k])),
                    spectrum.matrix(std::array::from_fn(|k| r * r * lam[k] * lam[k] * e[k])),
                ]
            })
            .collect();
        let (mut d1, mut d2) = (0.0, 0.0);
        for (j, &w) in self.data.weights().iter().enumerate() {
            let sum = |i: usize| -> f64 {
                (0..mats.len()).map(|c| site(&pi, &u.vals[j][c], &mats[c][i], &v.vals[j][c])).sum()
            };
            let (l, dl, ddl) = (sum(0), sum(1), sum(2));
            d1 += f64::from(w) * dl / l;
            d2 += f64::from(w) * (ddl / l - (dl / l).powi(2));
        }
        (d1, d2)
    }
}

/// `Σ_x π_x u[x] Σ_y p[x][y] v[y]`.
fn site<const S: usize>(pi: &[f64; S], u: &[f64; S], p: &Matrix<S>, v: &[f64; S]) -> f64 {
    (0..S).map(|x| pi[x] * u[x] * dot(&p[x], v)).sum()
}

fn dot<const S: usize>(a: &[f64; S], b: &[f64; S]) -> f64 {
    a.iter().zip(b).map(|(a, b)| a * b).sum()
}

/// The reference's kernels; the branch optimizer is golden section over
/// `ln t`, bracketed by the whole legal interval.
impl<M: SubstModel<S>, const S: usize> Kernels for &Reference<'_, M, S> {
    type Clv = Partial<S>;

    fn tip(&mut self, taxon: usize) -> Partial<S> {
        let (states, k) = (alphabet::<S>().states, self.model.rates().len());
        let n = self.data.n_patterns();
        let set = |j: usize| states[usize::from(self.data.code(taxon, j))];
        let tip = |set: u32| std::array::from_fn(|x| if set & 1 << x != 0 { 1.0 } else { 0.0 });
        Partial { vals: (0..n).map(|j| vec![tip(set(j)); k]).collect(), ln_scale: vec![0.0; n] }
    }

    fn newview(&mut self, l: Partial<S>, t_l: f64, r: Partial<S>, t_r: f64) -> Partial<S> {
        let (pl, pr) = (self.matrices(t_l), self.matrices(t_r));
        let mut vals = Vec::with_capacity(l.vals.len());
        let mut ln_scale = Vec::with_capacity(l.vals.len());
        for (j, (lj, rj)) in l.vals.iter().zip(&r.vals).enumerate() {
            let mut node: Vec<[f64; S]> = (0..pl.len())
                .map(|c| std::array::from_fn(|x| dot(&pl[c][x], &lj[c]) * dot(&pr[c][x], &rj[c])))
                .collect();
            let max = node.iter().flatten().fold(0.0, |m: f64, &v| m.max(v));
            node.iter_mut().flatten().for_each(|v| *v /= max);
            vals.push(node);
            ln_scale.push(l.ln_scale[j] + r.ln_scale[j] + max.ln());
        }
        Partial { vals, ln_scale }
    }

    fn evaluate(&mut self, u: Partial<S>, v: Partial<S>, t: f64) -> f64 {
        self.edge_lnl(&u, &v, t)
    }

    fn optimize_edge(&mut self, u: Partial<S>, v: Partial<S>, _t0: f64) -> f64 {
        let (lo, hi) = (Tree::MIN_BRANCH.ln(), MAX_BRANCH.ln());
        let narrow = |lo: f64, hi: f64| hi - lo < 1e-10;
        golden_section_max(lo, hi, 200, narrow, |ln_t| self.edge_lnl(&u, &v, ln_t.exp())).exp()
    }
}

/// The log-likelihood of the 4-taxon `tree` by enumeration: for every
/// pattern and rate category, `π_x · Π_edges P(r_c t)` summed over the
/// `S²` assignments of states to the two internal nodes, rooted at node 4
/// with every edge pointing away from it, each tip summed over the states
/// its code allows.
///
/// # Panics
/// Panics unless `tree` has 4 taxa.
pub(crate) fn brute_force<M: SubstModel<S>, const S: usize>(
    model: &M,
    data: &PatternAlignment<S>,
    tree: &Tree,
) -> f64 {
    assert_eq!(tree.n_taxa(), 4, "enumeration covers 4-taxon trees");
    let (pi, rates) = (model.base_freqs(), model.rates());
    let allows = |taxon: usize, pat: usize, s: usize| {
        alphabet::<S>().states[usize::from(data.code(taxon, pat))] & 1 << s != 0
    };
    let mut sites = vec![0.0; data.n_patterns()];
    for &r in rates {
        let edges: Vec<_> = (tree.edge_ids())
            .map(|e| {
                // Tips are nodes 0–3, so a pendant edge points from its
                // larger end, and the internal edge from 4 to 5.
                let (a, b) = tree.endpoints(e);
                let (from, to) = if a.min(b) < 4 { (a.max(b), a.min(b)) } else { (4, 5) };
                (from, to, model.prob_matrix(r * tree.length(e)))
            })
            .collect();
        for (pat, site) in sites.iter_mut().enumerate() {
            for (x4, x5) in (0..S).flat_map(|x4| (0..S).map(move |x5| (x4, x5))) {
                let mut prod = pi[x4];
                for (from, to, p) in &edges {
                    let p = p[if *from == 4 { x4 } else { x5 }];
                    prod *= if tree.is_tip(*to) {
                        (0..S).filter(|&s| allows(*to, pat, s)).map(|s| p[s]).sum()
                    } else {
                        p[x5]
                    };
                }
                *site += prod;
            }
        }
    }
    let k = rates.len() as f64;
    data.weights().iter().zip(&sites).map(|(&w, &l)| f64::from(w) * (l / k).ln()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::mixture::Gamma;
    use crate::model::{Gtr, Jc69};
    use crate::protein::PoissonAa;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `taxa` rows of `sites` random codes of the `S`-state alphabet, the
    /// ambiguity classes and gaps among them, compressed.
    fn random_data<const S: usize>(
        taxa: usize,
        sites: usize,
        rng: &mut SmallRng,
    ) -> PatternAlignment<S> {
        let alphabet = alphabet::<S>();
        let codes: Vec<u8> = (0..alphabet.states.len() as u8)
            .filter(|&c| alphabet.states[usize::from(c)] != 0)
            .collect();
        let rows: Vec<(String, String)> = (0..taxa)
            .map(|t| {
                let letter = |_| (alphabet.letter)(codes[rng.gen_range(0..codes.len())]);
                (format!("t{t}"), (0..sites).map(letter).collect())
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        PatternAlignment::compress(&Alignment::from_strings(&borrowed).unwrap())
    }

    /// Relative distance.
    fn off(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs().max(1.0)
    }

    /// The reference at every edge of a random 4-taxon tree is the brute
    /// force's lnL to 1e-12 relative, and its derivatives are the central
    /// differences of its lnL.
    fn check<M: SubstModel<S>, const S: usize>(model: &M, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sites = rng.gen_range(1..30);
        let data = random_data::<S>(4, sites, &mut rng);
        let tree = Tree::random(4, rng.gen_range(0.01..1.0), &mut rng);
        let reference = Reference::new(model, &data);
        let want = brute_force(model, &data, &tree);
        for e in tree.edge_ids() {
            let got = reference.log_likelihood_at(&tree, e);
            prop_assert!(off(got, want) <= 1e-12, "edge {e:?}: pruning {got} vs enumeration {want}");
        }
        let (u, v) = traversal::edge_pair(&mut &reference, &tree, EdgeId(0));
        let t = tree.length(EdgeId(0)).max(0.05);
        let (d1, d2) = reference.derivatives(&u, &v, t);
        let lnl = |t| reference.edge_lnl(&u, &v, t);
        let fd1 = (lnl(t + 1e-6) - lnl(t - 1e-6)) / 2e-6;
        let fd2 = (lnl(t + 1e-4) - 2.0 * lnl(t) + lnl(t - 1e-4)) / 1e-8;
        prop_assert!(off(d1, fd1) < 1e-5, "d1 {} vs central difference {}", d1, fd1);
        prop_assert!(off(d2, fd2) < 1e-3, "d2 {} vs central difference {}", d2, fd2);
        Ok(())
    }

    proptest! {
        /// Pruning is enumeration: JC69, GTR, GTR+Γ4, Poisson and
        /// Poisson+Γ4 on random codes and random 4-taxon trees.
        #[test]
        fn the_reference_is_brute_force_on_four_taxa(
            seed in 0u64..u64::MAX,
            model in 0usize..5,
            alpha in (-2.0f64..2.0).prop_map(f64::exp),
        ) {
            match model {
                0 => check(&Jc69, seed)?,
                1 => check(&Gtr::example(), seed)?,
                2 => check(&Gamma::new(Gtr::example(), alpha, 4), seed)?,
                3 => check(&PoissonAa, seed)?,
                _ => check(&Gamma::new(PoissonAa, alpha, 4), seed)?,
            }
        }
    }
}
