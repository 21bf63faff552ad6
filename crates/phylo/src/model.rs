//! Substitution models over `S` states, nucleotide (`S = 4`) by default.
//!
//! A model supplies the transition-probability matrix `P(t)` over a branch
//! of length `t` (expected substitutions per site), its [`Spectrum`] — the
//! eigen-decomposition `P(t) = L · diag(exp(λ t)) · R` in which the
//! Newton–Raphson branch-length optimizer `makenewz` takes its derivatives
//! — and the equilibrium frequencies.
//!
//! The nucleotide models here are Jukes–Cantor (JC69), Kimura
//! two-parameter (K80) and GTR; the 20-state Poisson model is
//! `protein::PoissonAa`. All are normalized so that branch lengths measure
//! expected substitutions per site.

#![allow(clippy::needless_range_loop)] // index loops mirror the math in dense kernels

use crate::dna::STATES;
use crate::linalg::{sym_eigen, SymEigen};

/// An `S`×`S` matrix over states, 4×4 nucleotide by default.
pub type Matrix<const S: usize = STATES> = [[f64; S]; S];

/// The eigen-decomposition of a reversible model's `P(t)`:
/// `P(t)[x][y] = Σ_k left[x][k] · exp(λ_k t) · right[k][y]`. Only the
/// factors `exp(λ_k t)` depend on `t`, so `makenewz` puts an edge's CLV
/// pair into this basis once and each Newton step is a dot product per
/// pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spectrum<const S: usize = STATES> {
    /// The eigenvalues `λ` of the rate matrix (all ≤ 0).
    pub eigenvalues: [f64; S],
    /// `L`: the left factor, one eigenvector per column.
    pub left: Matrix<S>,
    /// `R`: the right factor, one eigenvector per row.
    pub right: Matrix<S>,
}

impl<const S: usize> Spectrum<S> {
    /// `L · diag(f) · R`: `P(t)` for `f = exp(λ t)`, `P′(t)` for
    /// `f = λ·exp(λ t)`, `P″(t)` for `f = λ²·exp(λ t)`.
    pub(crate) fn matrix(&self, f: [f64; S]) -> Matrix<S> {
        let mut out = [[0.0; S]; S];
        for i in 0..S {
            for j in 0..S {
                let mut sum = 0.0;
                for (k, &f) in f.iter().enumerate() {
                    sum += self.left[i][k] * f * self.right[k][j];
                }
                out[i][j] = sum;
            }
        }
        out
    }

    /// `exp(λ_k t)` for every eigenvalue.
    pub(crate) fn exps(&self, t: f64) -> [f64; S] {
        self.eigenvalues.map(|lam| (lam * t).exp())
    }
}

/// The symmetric orthogonal Hadamard matrix: the eigenvectors of every
/// K80-shaped rate matrix (columns: constant, purine/pyrimidine, and the
/// two within-class contrasts).
const HADAMARD: Matrix = [
    [0.5, 0.5, 0.5, 0.5],
    [0.5, -0.5, 0.5, -0.5],
    [0.5, 0.5, -0.5, -0.5],
    [0.5, -0.5, -0.5, 0.5],
];

/// A time-reversible substitution model over `S` states, nucleotide by
/// default.
pub trait SubstModel<const S: usize = STATES>: Send + Sync {
    /// Transition probabilities `P(t)[x][y] = Pr(y at end | x at start)`.
    fn prob_matrix(&self, t: f64) -> Matrix<S>;

    /// The eigen-decomposition of `P(t)`; reconstructs [`Self::prob_matrix`]
    /// up to rounding.
    fn spectrum(&self) -> Spectrum<S>;

    /// Equilibrium state frequencies π.
    fn base_freqs(&self) -> [f64; S];

    /// The rates of the model's equally weighted rate categories: a site's
    /// likelihood averages the categories', each with every branch length
    /// scaled by its rate. `prob_matrix` and `spectrum` are at rate 1.
    fn rates(&self) -> &[f64] {
        &[1.0]
    }
}

impl<M: SubstModel<S> + ?Sized, const S: usize> SubstModel<S> for &M {
    fn prob_matrix(&self, t: f64) -> Matrix<S> {
        (**self).prob_matrix(t)
    }
    fn spectrum(&self) -> Spectrum<S> {
        (**self).spectrum()
    }
    fn base_freqs(&self) -> [f64; S] {
        (**self).base_freqs()
    }
    fn rates(&self) -> &[f64] {
        (**self).rates()
    }
}

/// Jukes–Cantor 1969: all substitutions equally likely, uniform
/// frequencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jc69;

impl SubstModel for Jc69 {
    fn prob_matrix(&self, t: f64) -> Matrix {
        let e = (-4.0 * t / 3.0).exp();
        let same = 0.25 + 0.75 * e;
        let diff = 0.25 - 0.25 * e;
        fill(same, diff, diff)
    }

    fn spectrum(&self) -> Spectrum {
        let lam = -4.0 / 3.0;
        Spectrum { eigenvalues: [0.0, lam, lam, lam], left: HADAMARD, right: HADAMARD }
    }

    fn base_freqs(&self) -> [f64; STATES] {
        [0.25; STATES]
    }
}

/// Kimura 1980: distinct transition (A↔G, C↔T) and transversion rates,
/// parameterized by the transition/transversion rate ratio κ.
#[derive(Debug, Clone, Copy)]
pub struct K80 {
    /// Transition/transversion rate ratio (κ = 1 reduces to JC69).
    pub kappa: f64,
}

impl K80 {
    /// A K80 model with ratio `kappa`.
    ///
    /// # Panics
    /// Panics unless `kappa` is finite and positive.
    pub fn new(kappa: f64) -> K80 {
        assert!(kappa.is_finite() && kappa > 0.0, "kappa must be positive");
        K80 { kappa }
    }

    /// Rates normalized so the expected substitution rate is 1:
    /// per-state total rate α + 2β with α = κβ ⇒ β = 1/(κ+2).
    fn rates(&self) -> (f64, f64) {
        let beta = 1.0 / (self.kappa + 2.0);
        (self.kappa * beta, beta)
    }
}

impl SubstModel for K80 {
    fn prob_matrix(&self, t: f64) -> Matrix {
        let (alpha, beta) = self.rates();
        let e2 = (-4.0 * beta * t).exp();
        let e1 = (-2.0 * (alpha + beta) * t).exp();
        let same = 0.25 + 0.25 * e2 + 0.5 * e1;
        let transition = 0.25 + 0.25 * e2 - 0.5 * e1;
        let transversion = 0.25 - 0.25 * e2;
        fill(same, transition, transversion)
    }

    fn spectrum(&self) -> Spectrum {
        // The e2 term of `prob_matrix` is the purine/pyrimidine contrast,
        // the e1 term the two within-class contrasts.
        let (alpha, beta) = self.rates();
        let within = -2.0 * (alpha + beta);
        Spectrum {
            eigenvalues: [0.0, -4.0 * beta, within, within],
            left: HADAMARD,
            right: HADAMARD,
        }
    }

    fn base_freqs(&self) -> [f64; STATES] {
        [0.25; STATES]
    }
}

/// The general time-reversible model (GTR): six exchangeability rates and
/// arbitrary equilibrium frequencies — the model RAxML actually runs.
///
/// `P(t) = exp(Qt)` is computed by spectral decomposition of the
/// similarity-transformed (symmetric) rate matrix, so `prob_matrix` is
/// closed-form in the precomputed [`Spectrum`].
#[derive(Debug, Clone)]
pub struct Gtr {
    rates: [f64; 6],
    freqs: [f64; STATES],
    /// The normalized rate matrix's eigenvalues, `D^{-1/2} · U` on the
    /// left and `Uᵀ · D^{1/2}` on the right.
    spectrum: Spectrum,
}

impl Gtr {
    /// A GTR model from exchangeabilities `rates` (order: AC, AG, AT, CG,
    /// CT, GT) and equilibrium frequencies `freqs` (A, C, G, T).
    ///
    /// The rate matrix is normalized so branch lengths measure expected
    /// substitutions per site.
    ///
    /// # Panics
    /// Panics on non-positive rates, non-positive frequencies, or
    /// frequencies that do not sum to 1 (within 1e-9).
    pub fn new(rates: [f64; 6], freqs: [f64; STATES]) -> Gtr {
        assert!(rates.iter().all(|&r| r.is_finite() && r > 0.0), "rates must be positive");
        assert!(freqs.iter().all(|&f| f.is_finite() && f > 0.0), "frequencies must be positive");
        let total: f64 = freqs.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "frequencies must sum to 1, got {total}");

        // Assemble Q: q[i][j] = s_ij * pi_j (i != j), diagonal = -rowsum.
        let s = Self::exchangeability_matrix(rates);
        let mut q = [[0.0; STATES]; STATES];
        for i in 0..STATES {
            let mut rowsum = 0.0;
            for j in 0..STATES {
                if i != j {
                    q[i][j] = s[i][j] * freqs[j];
                    rowsum += q[i][j];
                }
            }
            q[i][i] = -rowsum;
        }
        // Normalize: mean rate 1 at equilibrium.
        let mean_rate: f64 = (0..STATES).map(|i| -freqs[i] * q[i][i]).sum();
        for row in q.iter_mut() {
            for v in row.iter_mut() {
                *v /= mean_rate;
            }
        }

        // Symmetrize: B = D^{1/2} Q D^{-1/2}, D = diag(pi).
        let sq: Vec<f64> = freqs.iter().map(|f| f.sqrt()).collect();
        let mut b = [[0.0; STATES]; STATES];
        for i in 0..STATES {
            for j in 0..STATES {
                b[i][j] = q[i][j] * sq[i] / sq[j];
            }
        }
        // Guard against round-off asymmetry before the strict eigensolver.
        for i in 0..STATES {
            for j in (i + 1)..STATES {
                let m = 0.5 * (b[i][j] + b[j][i]);
                b[i][j] = m;
                b[j][i] = m;
            }
        }
        let SymEigen { values, vectors } = sym_eigen(b);

        let mut left = [[0.0; STATES]; STATES];
        let mut right = [[0.0; STATES]; STATES];
        for i in 0..STATES {
            for k in 0..STATES {
                left[i][k] = vectors[i][k] / sq[i];
                right[k][i] = vectors[i][k] * sq[i];
            }
        }
        Gtr { rates, freqs, spectrum: Spectrum { eigenvalues: values, left, right } }
    }

    /// The canonical test instance with unequal rates and frequencies.
    pub fn example() -> Gtr {
        Gtr::new([1.2, 3.9, 0.7, 1.1, 4.2, 1.0], [0.32, 0.18, 0.24, 0.26])
    }

    /// The exchangeability parameters (AC, AG, AT, CG, CT, GT).
    pub fn rates(&self) -> [f64; 6] {
        self.rates
    }

    fn exchangeability_matrix(r: [f64; 6]) -> Matrix {
        let [ac, ag, at, cg, ct, gt] = r;
        [
            [0.0, ac, ag, at],
            [ac, 0.0, cg, ct],
            [ag, cg, 0.0, gt],
            [at, ct, gt, 0.0],
        ]
    }
}

impl SubstModel for Gtr {
    fn prob_matrix(&self, t: f64) -> Matrix {
        self.spectrum.matrix(self.spectrum.exps(t))
    }

    fn spectrum(&self) -> Spectrum {
        self.spectrum
    }

    fn base_freqs(&self) -> [f64; STATES] {
        self.freqs
    }
}

/// Build a K80-shaped matrix from the three distinct entry classes.
/// State order A, C, G, T; transitions are A↔G and C↔T.
fn fill(same: f64, transition: f64, transversion: f64) -> Matrix {
    let mut m = [[transversion; STATES]; STATES];
    for (s, row) in m.iter_mut().enumerate() {
        row[s] = same;
    }
    m[0][2] = transition; // A -> G
    m[2][0] = transition;
    m[1][3] = transition; // C -> T
    m[3][1] = transition;
    m
}

#[cfg(test)]
/// A model with all branch lengths scaled by a fixed `rate`: the
/// `likelihood` tests check Newton's derivatives under a rate-scaled GTR.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScaledModel<M> {
    /// The underlying substitution model.
    pub inner: M,
    /// The rate multiplier applied to every branch length.
    pub rate: f64,
}

#[cfg(test)]
impl<M: SubstModel> SubstModel for ScaledModel<M> {
    fn prob_matrix(&self, t: f64) -> Matrix {
        self.inner.prob_matrix(self.rate * t)
    }
    fn spectrum(&self) -> Spectrum {
        // P(r·t) = L · diag(exp(r·λ t)) · R.
        let mut spectrum = self.inner.spectrum();
        spectrum.eigenvalues = spectrum.eigenvalues.map(|lam| self.rate * lam);
        spectrum
    }
    fn base_freqs(&self) -> [f64; STATES] {
        self.inner.base_freqs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_sum_to_one(m: &Matrix) {
        for row in m {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row sums to {s}");
        }
    }

    #[test]
    fn jc69_limits() {
        let p0 = Jc69.prob_matrix(0.0);
        for x in 0..4 {
            for y in 0..4 {
                let want = if x == y { 1.0 } else { 0.0 };
                assert!((p0[x][y] - want).abs() < 1e-12);
            }
        }
        let pinf = Jc69.prob_matrix(1e6);
        for row in &pinf {
            for &v in row {
                assert!((v - 0.25).abs() < 1e-9, "long branches equilibrate");
            }
        }
        rows_sum_to_one(&Jc69.prob_matrix(0.37));
    }

    #[test]
    fn k80_reduces_to_jc69_at_kappa_one() {
        let k = K80::new(1.0);
        for &t in &[0.01, 0.1, 0.5, 2.0] {
            let pk = k.prob_matrix(t);
            let pj = Jc69.prob_matrix(t);
            for x in 0..4 {
                for y in 0..4 {
                    assert!((pk[x][y] - pj[x][y]).abs() < 1e-12, "t={t} [{x}][{y}]");
                }
            }
        }
    }

    #[test]
    fn k80_rows_sum_to_one_and_transitions_dominate() {
        let k = K80::new(4.0);
        let p = k.prob_matrix(0.3);
        rows_sum_to_one(&p);
        // With kappa > 1, a transition (A->G) must be more likely than a
        // transversion (A->C).
        assert!(p[0][2] > p[0][1]);
        // Symmetry (time reversibility with uniform frequencies).
        for x in 0..4 {
            for y in 0..4 {
                assert!((p[x][y] - p[y][x]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn k80_branch_length_is_expected_substitutions() {
        // At small t, 1 - P(same) ≈ t (rate normalization check).
        let k = K80::new(3.0);
        let t = 1e-4;
        let p = k.prob_matrix(t);
        let p_change = 1.0 - p[0][0];
        assert!((p_change / t - 1.0).abs() < 1e-3, "got rate {}", p_change / t);
        // Same for JC69.
        let pj = Jc69.prob_matrix(t);
        assert!(((1.0 - pj[0][0]) / t - 1.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "kappa")]
    fn k80_rejects_nonpositive_kappa() {
        let _ = K80::new(0.0);
    }

    #[test]
    fn gtr_with_uniform_parameters_reduces_to_jc69() {
        let g = Gtr::new([1.0; 6], [0.25; 4]);
        for &t in &[0.01, 0.1, 0.5, 2.0] {
            let pg = g.prob_matrix(t);
            let pj = Jc69.prob_matrix(t);
            for x in 0..4 {
                for y in 0..4 {
                    assert!((pg[x][y] - pj[x][y]).abs() < 1e-10, "t={t} [{x}][{y}]");
                }
            }
        }
    }

    #[test]
    fn gtr_rows_sum_to_one_and_start_at_identity() {
        let g = Gtr::example();
        rows_sum_to_one(&g.prob_matrix(0.3));
        let p0 = g.prob_matrix(0.0);
        for x in 0..4 {
            for y in 0..4 {
                let want = if x == y { 1.0 } else { 0.0 };
                assert!((p0[x][y] - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gtr_converges_to_its_stationary_distribution() {
        let g = Gtr::example();
        let p = g.prob_matrix(200.0);
        for row in &p {
            for (j, &v) in row.iter().enumerate() {
                assert!((v - g.base_freqs()[j]).abs() < 1e-9, "P(inf)[.][{j}] = {v}");
            }
        }
    }

    #[test]
    fn gtr_satisfies_detailed_balance() {
        let g = Gtr::example();
        let p = g.prob_matrix(0.4);
        let pi = g.base_freqs();
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (pi[i] * p[i][j] - pi[j] * p[j][i]).abs() < 1e-12,
                    "reversibility violated at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn gtr_branch_length_is_expected_substitutions() {
        let g = Gtr::example();
        let t = 1e-5;
        let p = g.prob_matrix(t);
        let pi = g.base_freqs();
        let change: f64 = (0..4).map(|i| pi[i] * (1.0 - p[i][i])).sum();
        assert!((change / t - 1.0).abs() < 1e-3, "normalized rate {}", change / t);
    }

    #[test]
    fn gtr_probabilities_stay_in_unit_interval() {
        let g = Gtr::example();
        for &t in &[1e-6, 0.01, 0.1, 1.0, 10.0, 100.0] {
            for row in &g.prob_matrix(t) {
                for &v in row {
                    assert!((-1e-12..=1.0 + 1e-12).contains(&v), "t={t}: {v}");
                }
            }
        }
    }

    /// The spectrum `P(t)` is built from must be the rate matrix's own:
    /// `L·diag(λ)·R` is `Q`, rebuilt here from the exchangeabilities and
    /// frequencies alone and normalized to mean rate 1 as `Gtr::new` does.
    #[test]
    fn gtr_spectrum_reassembles_its_rate_matrix() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x6e7);
        let random = (0..8).map(|_| {
            let rates: [f64; 6] = std::array::from_fn(|_| rng.gen_range(0.05..8.0));
            let w: [f64; STATES] = std::array::from_fn(|_| rng.gen_range(0.05..1.0));
            let total: f64 = w.iter().sum();
            Gtr::new(rates, w.map(|x| x / total))
        });
        for g in std::iter::once(Gtr::example()).chain(random) {
            let [ac, ag, at, cg, ct, gt] = g.rates();
            let s = [[0.0, ac, ag, at], [ac, 0.0, cg, ct], [ag, cg, 0.0, gt], [at, ct, gt, 0.0]];
            let pi = g.base_freqs();
            let mut q = [[0.0; STATES]; STATES];
            for i in 0..STATES {
                for j in 0..STATES {
                    if i != j {
                        q[i][j] = s[i][j] * pi[j];
                        q[i][i] -= q[i][j];
                    }
                }
            }
            let mean_rate: f64 = (0..STATES).map(|i| -pi[i] * q[i][i]).sum();
            let spectrum = g.spectrum();
            let got = spectrum.matrix(spectrum.eigenvalues);
            for i in 0..STATES {
                for j in 0..STATES {
                    let want = q[i][j] / mean_rate;
                    let err = (got[i][j] - want).abs();
                    assert!(err < 1e-12, "{:?} Q[{i}][{j}] off by {err}", g.rates());
                }
                let row: f64 = got[i].iter().sum();
                assert!(row.abs() < 1e-12, "{:?} row {i} sums to {row}", g.rates());
            }
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn gtr_rejects_bad_frequencies() {
        let _ = Gtr::new([1.0; 6], [0.3, 0.3, 0.3, 0.3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gtr_rejects_zero_rate() {
        let _ = Gtr::new([0.0, 1.0, 1.0, 1.0, 1.0, 1.0], [0.25; 4]);
    }

    #[test]
    fn scaled_model_composes_with_the_chain_rule() {
        let m = ScaledModel { inner: Jc69, rate: 2.5 };
        let t = 0.1;
        // P matches the inner model at the scaled time.
        let p = m.prob_matrix(t);
        let want = Jc69.prob_matrix(2.5 * t);
        for x in 0..4 {
            for y in 0..4 {
                assert!((p[x][y] - want[x][y]).abs() < 1e-15);
            }
        }
        // Its spectrum is the inner one's with every eigenvalue scaled.
        let spectrum = m.spectrum();
        let q = spectrum.matrix(spectrum.exps(t));
        for x in 0..4 {
            for y in 0..4 {
                assert!((q[x][y] - want[x][y]).abs() < 1e-12, "[{x}][{y}]");
            }
        }
        // Rate 1 is the identity wrapper.
        let id = ScaledModel { inner: Jc69, rate: 1.0 };
        assert_eq!(id.prob_matrix(0.3), Jc69.prob_matrix(0.3));
    }
}
