//! Amino-acid (protein) data.
//!
//! RAxML analyzes "multiple alignments of DNA or AA sequences" (§3); this
//! module provides the AA side: the 20-state alphabet with the ambiguity
//! codes B, Z, J and X, and the Poisson (Felsenstein 1981 /
//! "JC69-for-proteins") substitution model. A protein alignment is an
//! `Alignment<20>`, compressed into a `PatternAlignment<20>`; the one
//! likelihood engine, the searches and the off-loaded search requests run
//! it as they run DNA, Newton `makenewz` and +Γ included.

use crate::alignment::Alphabet;
use crate::model::{Matrix, Spectrum, SubstModel};

/// Number of amino-acid states.
pub const AA_STATES: usize = 20;

/// The protein tip codes' letters, by code: the 20 amino acids (code =
/// state), then the ambiguity classes B (N or D), Z (Q or E), J (I or L)
/// and X (any; a gap reads as X).
pub const AA_CODES: [char; 24] = [
    'A', 'R', 'N', 'D', 'C', 'Q', 'E', 'G', 'H', 'I', 'L', 'K', 'M', 'F', 'P', 'S', 'T', 'W',
    'Y', 'V', 'B', 'Z', 'J', 'X',
];

/// The protein alphabet of [`AA_CODES`].
pub(crate) const AMINO_ACIDS: Alphabet = Alphabet {
    code: |c| {
        let c = match c.to_ascii_uppercase() {
            '-' | '?' | '.' | '*' => 'X',
            c => c,
        };
        AA_CODES.iter().position(|&a| a == c).map(|code| code as u8)
    },
    letter: |code| AA_CODES[usize::from(code)],
    states: &{
        let mut states = [(1 << AA_STATES) - 1; AA_CODES.len()]; // X: any
        let mut s = 0;
        while s < AA_STATES {
            states[s] = 1 << s;
            s += 1;
        }
        states[20] = 1 << 2 | 1 << 3; // B: N or D
        states[21] = 1 << 5 | 1 << 6; // Z: Q or E
        states[22] = 1 << 9 | 1 << 10; // J: I or L
        states
    },
};

/// The Poisson amino-acid model: all substitutions equally likely, uniform
/// frequencies — the 20-state analogue of JC69, in closed form:
/// `P_same(t) = 1/20 + 19/20·e^{-20t/19}`,
/// `P_diff(t) = 1/20·(1 − e^{-20t/19})` (rate normalized to one expected
/// substitution per unit branch length). Its spectrum is the eigenvalue 0
/// on the constant vector and −20/19 on the 19 contrasts of the Helmert
/// basis.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoissonAa;

impl PoissonAa {
    const N: f64 = AA_STATES as f64;

    /// `(P_same, P_diff)` at branch length `t`.
    pub fn probs(&self, t: f64) -> (f64, f64) {
        let e = (-Self::N * t / (Self::N - 1.0)).exp();
        let same = 1.0 / Self::N + (Self::N - 1.0) / Self::N * e;
        let diff = (1.0 - e) / Self::N;
        (same, diff)
    }
}

impl SubstModel<AA_STATES> for PoissonAa {
    fn prob_matrix(&self, t: f64) -> Matrix<AA_STATES> {
        let (same, diff) = self.probs(t);
        std::array::from_fn(|x| std::array::from_fn(|y| if x == y { same } else { diff }))
    }

    fn spectrum(&self) -> Spectrum<AA_STATES> {
        // Column 0 is constant; column k contrasts state k with the states
        // before it. The basis is orthonormal, so `R = Lᵀ`.
        let left: Matrix<AA_STATES> = std::array::from_fn(|x| {
            std::array::from_fn(|k| {
                let norm = ((k * (k + 1)) as f64).sqrt();
                match x.cmp(&k) {
                    _ if k == 0 => Self::N.recip().sqrt(),
                    std::cmp::Ordering::Less => norm.recip(),
                    std::cmp::Ordering::Equal => -(k as f64) / norm,
                    std::cmp::Ordering::Greater => 0.0,
                }
            })
        });
        let lam = -Self::N / (Self::N - 1.0);
        Spectrum {
            eigenvalues: std::array::from_fn(|k| if k == 0 { 0.0 } else { lam }),
            left,
            right: std::array::from_fn(|k| std::array::from_fn(|x| left[x][k])),
        }
    }

    fn base_freqs(&self) -> [f64; AA_STATES] {
        [1.0 / Self::N; AA_STATES]
    }
}

#[cfg(test)]
/// The protein engine the one kernel body replaced: its own 20-state CLV,
/// the Poisson model's O(S) pruning shortcut, and golden section on each
/// edge. Kept as the oracle the body's protein likelihood is checked
/// against.
pub(crate) mod classic {
    use super::*;
    use crate::alignment::PatternAlignment;
    use crate::likelihood::classic::golden_section_branch;
    use crate::likelihood::{SCALE_MULTIPLIER, SCALE_THRESHOLD};
    use crate::traversal::{self, Kernels};
    use crate::tree::Tree;

    /// A per-pattern 20-state conditional likelihood vector with scaling
    /// exponents.
    #[derive(Debug, Clone, PartialEq)]
    pub struct AaClv {
        vals: Vec<f64>, // n_patterns * 20
        scale: Vec<u32>,
    }

    /// The protein likelihood engine (Poisson model).
    pub struct ProteinEngine<'a> {
        model: PoissonAa,
        data: &'a PatternAlignment<AA_STATES>,
    }

    impl<'a> ProteinEngine<'a> {
        /// Bind the Poisson model to `data`.
        pub fn new(model: PoissonAa, data: &'a PatternAlignment<AA_STATES>) -> Self {
            ProteinEngine { model, data }
        }

        fn tip_clv(&self, taxon: usize) -> AaClv {
            let n = self.data.n_patterns();
            let mut vals = vec![0.0; n * AA_STATES];
            for p in 0..n {
                let allowed = AMINO_ACIDS.states[usize::from(self.data.code(taxon, p))];
                for s in 0..AA_STATES {
                    if allowed & 1 << s != 0 {
                        vals[p * AA_STATES + s] = 1.0;
                    }
                }
            }
            AaClv { vals, scale: vec![0; n] }
        }

        /// Felsenstein pruning step. With the Poisson model,
        /// `Σ_y P[x][y]·L[y] = P_diff·S + (P_same − P_diff)·L[x]` where
        /// `S = Σ_y L[y]` — an O(states) kernel instead of O(states²).
        fn newview(&self, left: &AaClv, t_left: f64, right: &AaClv, t_right: f64) -> AaClv {
            let n = self.data.n_patterns();
            let (same_l, diff_l) = self.model.probs(t_left);
            let (same_r, diff_r) = self.model.probs(t_right);
            let mut out = AaClv { vals: vec![0.0; n * AA_STATES], scale: vec![0; n] };
            for i in 0..n {
                let l = &left.vals[i * AA_STATES..(i + 1) * AA_STATES];
                let r = &right.vals[i * AA_STATES..(i + 1) * AA_STATES];
                let sum_l: f64 = l.iter().sum();
                let sum_r: f64 = r.iter().sum();
                let mut any_big = false;
                for x in 0..AA_STATES {
                    let a = diff_l * sum_l + (same_l - diff_l) * l[x];
                    let b = diff_r * sum_r + (same_r - diff_r) * r[x];
                    let v = a * b;
                    out.vals[i * AA_STATES + x] = v;
                    if v > SCALE_THRESHOLD {
                        any_big = true;
                    }
                }
                let mut scale = left.scale[i] + right.scale[i];
                if !any_big {
                    for x in 0..AA_STATES {
                        out.vals[i * AA_STATES + x] *= SCALE_MULTIPLIER;
                    }
                    scale += 1;
                }
                out.scale[i] = scale;
            }
            out
        }

        /// Log-likelihood of `tree` under the Poisson model.
        pub fn log_likelihood(&self, tree: &Tree) -> f64 {
            traversal::score(&mut &*self, tree)
        }

        fn evaluate(&self, u: &AaClv, v: &AaClv, t: f64) -> f64 {
            let (same, diff) = self.model.probs(t);
            let pi = 1.0 / AA_STATES as f64;
            let ln_min = SCALE_THRESHOLD.ln();
            let mut lnl = 0.0;
            for i in 0..self.data.n_patterns() {
                let lu = &u.vals[i * AA_STATES..(i + 1) * AA_STATES];
                let lv = &v.vals[i * AA_STATES..(i + 1) * AA_STATES];
                let sum_v: f64 = lv.iter().sum();
                let mut term = 0.0;
                for x in 0..AA_STATES {
                    let inner = diff * sum_v + (same - diff) * lv[x];
                    term += pi * lu[x] * inner;
                }
                let ln = term.max(f64::MIN_POSITIVE).ln()
                    + (u.scale[i] + v.scale[i]) as f64 * ln_min;
                lnl += self.data.weights()[i] as f64 * ln;
            }
            lnl
        }
    }

    impl Kernels for &ProteinEngine<'_> {
        type Clv = AaClv;

        fn tip(&mut self, taxon: usize) -> AaClv {
            self.tip_clv(taxon)
        }

        fn newview(&mut self, left: AaClv, t_left: f64, right: AaClv, t_right: f64) -> AaClv {
            ProteinEngine::newview(self, &left, t_left, &right, t_right)
        }

        fn evaluate(&mut self, u: AaClv, v: AaClv, t: f64) -> f64 {
            ProteinEngine::evaluate(self, &u, &v, t)
        }

        /// Golden section (derivative-free).
        fn optimize_edge(&mut self, u: AaClv, v: AaClv, t0: f64) -> f64 {
            golden_section_branch(t0, |t| ProteinEngine::evaluate(self, &u, &v, t))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::classic::ProteinEngine;
    use super::*;
    use crate::alignment::{Alignment, AlignmentError, PatternAlignment};
    use crate::likelihood::LikelihoodEngine;
    use crate::traversal::{self, Kernels};
    use crate::tree::{EdgeId, Tree};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    type Protein = PatternAlignment<AA_STATES>;

    fn data(rows: &[(&str, &str)]) -> Protein {
        PatternAlignment::compress(&Alignment::from_strings(rows).unwrap())
    }

    #[test]
    fn alphabet_round_trips() {
        let read = AMINO_ACIDS.code;
        for (code, &c) in AA_CODES.iter().enumerate() {
            assert_eq!(read(c), Some(code as u8));
            assert_eq!(read(c.to_ascii_lowercase()), Some(code as u8));
            assert_eq!((AMINO_ACIDS.letter)(code as u8), c);
        }
        let states = |c| AMINO_ACIDS.states[usize::from(read(c).unwrap())];
        for (s, &c) in AA_CODES[..AA_STATES].iter().enumerate() {
            assert_eq!(states(c), 1 << s, "{c}");
        }
        let any = |cs: &str| cs.chars().map(states).fold(0, |a, b| a | b);
        assert_eq!(states('B'), any("ND"));
        assert_eq!(states('Z'), any("QE"));
        assert_eq!(states('J'), any("IL"));
        assert_eq!(states('X'), (1 << AA_STATES) - 1);
        for gap in ['-', '?', '.', '*'] {
            assert_eq!(read(gap), read('X'), "{gap}");
        }
        assert_eq!(read('O'), None, "pyrrolysine not in the 20");
    }

    #[test]
    fn poisson_limits_stochasticity_and_spectrum() {
        let m = PoissonAa;
        let (s0, d0) = m.probs(0.0);
        assert!((s0 - 1.0).abs() < 1e-12 && d0.abs() < 1e-12);
        let (si, di) = m.probs(1e6);
        assert!((si - 0.05).abs() < 1e-9 && (di - 0.05).abs() < 1e-9);
        for &t in &[0.01, 0.1, 1.0, 5.0] {
            let (s, d) = m.probs(t);
            assert!((s + 19.0 * d - 1.0).abs() < 1e-12, "row sum at t={t}");
            assert!(s > d, "same must dominate at finite t");
            // The spectrum is the closed form's, the basis orthonormal.
            let spectrum = m.spectrum();
            let (q, p) = (spectrum.matrix(spectrum.exps(t)), m.prob_matrix(t));
            for x in 0..AA_STATES {
                for y in 0..AA_STATES {
                    assert!((q[x][y] - p[x][y]).abs() < 1e-12, "t={t}: P[{x}][{y}]");
                    let dot: f64 =
                        (0..AA_STATES).map(|k| spectrum.left[x][k] * spectrum.left[y][k]).sum();
                    assert!((dot - f64::from(u8::from(x == y))).abs() < 1e-12);
                }
            }
        }
        // Rate normalization: 1 - P_same ≈ t for small t.
        let t = 1e-6;
        let (s, _) = m.probs(t);
        assert!(((1.0 - s) / t - 1.0).abs() < 1e-3);
    }

    fn toy() -> Protein {
        data(&[
            ("a", "ARNDCQEGHI"),
            ("b", "ARNDCQEGHL"),
            ("c", "ARNDCREGHI"),
            ("d", "AKNDCREGHI"),
        ])
    }

    #[test]
    fn protein_fasta_parses() {
        let fasta = Alignment::<AA_STATES>::from_fasta;
        let d = fasta(">a\nARND\nCQ\n>b desc\nARNDCQ\n").unwrap();
        assert_eq!(d.n_taxa(), 2);
        assert_eq!(d.n_sites(), 6);
        assert!(fasta("ARND\n>a\n").is_err());
        assert!(fasta(">a\nAR!D\n>b\nARND\n").is_err());
        let duplicate = fasta(">a\nARND\n>a\nARND\n");
        assert!(matches!(duplicate, Err(AlignmentError::BadHeader(m)) if m == "duplicate taxon a"));
    }

    #[test]
    fn construction_and_compression() {
        let d = toy();
        assert_eq!(d.n_taxa(), 4);
        assert_eq!(d.n_sites(), 10);
        assert!(d.n_patterns() <= 10);
        assert_eq!(d.weights().iter().sum::<u32>() as usize, 10);
        let strings = Alignment::<AA_STATES>::from_strings;
        assert!(strings(&[("a", "AR")]).is_err());
        assert!(strings(&[("a", "AR"), ("b", "A")]).is_err());
        assert!(strings(&[("a", "A!"), ("b", "AR")]).is_err());
    }

    /// Brute force over internal states for a 4-taxon tree (2 internal
    /// nodes → 400 combinations) validates the pruning implementation.
    #[test]
    fn engine_matches_brute_force() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = Tree::random(4, 0.2, &mut rng);
        let fast = LikelihoodEngine::new(&PoissonAa, &d).log_likelihood(&tree);

        let p = |t: f64| PoissonAa.prob_matrix(t);
        let allows = |taxon: usize, pat: usize, s: usize| {
            AMINO_ACIDS.states[usize::from(d.code(taxon, pat))] & 1 << s != 0
        };
        let mut brute = 0.0;
        for pat in 0..d.n_patterns() {
            let mut site = 0.0;
            for s1 in 0..AA_STATES {
                for s2 in 0..AA_STATES {
                    let state_of = |node: usize| if node == 4 { s1 } else { s2 };
                    let mut prod = 1.0 / AA_STATES as f64;
                    for e in tree.edge_ids() {
                        let (a, b) = tree.endpoints(e);
                        let m = p(tree.length(e));
                        let f = match (tree.is_tip(a), tree.is_tip(b)) {
                            (false, false) => m[state_of(a)][state_of(b)],
                            (false, true) => (0..AA_STATES)
                                .filter(|&s| allows(b, pat, s))
                                .map(|s| m[state_of(a)][s])
                                .sum(),
                            (true, false) => (0..AA_STATES)
                                .filter(|&s| allows(a, pat, s))
                                .map(|s| m[s][state_of(b)])
                                .sum(),
                            (true, true) => unreachable!(),
                        };
                        prod *= f;
                    }
                    site += prod;
                }
            }
            brute += d.weights()[pat] as f64 * site.ln();
        }
        assert!((fast - brute).abs() < 1e-9, "pruning {fast} vs brute {brute}");
        // The oracle still reads the bits it was pinned to before the fold.
        let oracle = ProteinEngine::new(PoissonAa, &d).log_likelihood(&tree);
        assert_eq!(oracle.to_bits(), 0xc04b_ac00_25ab_f3ac);
        assert!((fast - oracle).abs() < 1e-9, "one body {fast} vs oracle {oracle}");
    }

    #[test]
    fn likelihood_edge_invariance() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = Tree::random(4, 0.15, &mut rng);
        let engine = LikelihoodEngine::new(&PoissonAa, &d);
        let base = engine.log_likelihood(&tree);
        for e in tree.edge_ids() {
            let lnl = engine.log_likelihood_at(&tree, e);
            assert!((lnl - base).abs() < 1e-8, "edge {e:?}");
        }
    }

    /// Edge by edge, from the same CLVs and starting length, Newton's
    /// optimum is golden section's within the latter's tolerance, and
    /// scores no lower; over whole passes, Newton's lnL is never below
    /// golden section's.
    #[test]
    fn newton_finds_golden_sections_branch_lengths() {
        let aln = Alignment::<AA_STATES>::synthetic(8, 150, &PoissonAa, 0.2, 3);
        let d = PatternAlignment::compress(&aln);
        // Long enough starts that golden section's bracket, at most 32
        // times the start, holds every optimum.
        let tree = Tree::random(8, 0.5, &mut SmallRng::seed_from_u64(4));
        let (engine, oracle) = (LikelihoodEngine::new(&PoissonAa, &d), ProteinEngine::new(PoissonAa, &d));
        for e in tree.edge_ids() {
            let t0 = tree.length(e);
            let (u, v) = traversal::edge_pair(&mut &engine, &tree, e);
            let newton = Kernels::optimize_edge(&mut &engine, u, v, t0);
            let (u, v) = traversal::edge_pair(&mut &oracle, &tree, e);
            let golden = Kernels::optimize_edge(&mut &oracle, u, v, t0);
            let lnl_at = |t| {
                let mut tree = tree.clone();
                tree.set_length(e, t);
                engine.log_likelihood(&tree)
            };
            assert!((newton - golden).abs() < 1e-6 * (1.0 + golden), "{e:?}: {newton} vs {golden}");
            assert!(lnl_at(newton) >= lnl_at(golden) - 1e-9, "{e:?}");
        }
        let (mut newton, mut golden) = (tree.clone(), tree.clone());
        let lnl = engine.optimize_branches(&mut newton, 3, 1e-4);
        let want = traversal::optimize_branches(&mut &oracle, &mut golden, 3, 1e-4);
        assert!(lnl >= want - 1e-6, "Newton {lnl} below golden section {want}");
    }

    #[test]
    fn protein_search_end_to_end() {
        // Strongly structured protein data: (a,b) vs (c,d,e).
        let d = data(&[
            ("a", "AAAAAAAAAARRRRRRRRRR"),
            ("b", "AAAAAAAAAARRRRRRRRRR"),
            ("c", "WWWWWWWWWWYYYYYYYYYY"),
            ("d", "WWWWWWWWWWYYYYYYYYYY"),
            ("e", "WWWWWWWWWWVVVVVVVVVV"),
        ]);
        let cfg = crate::search::SearchConfig::default();
        // The oracle's search (golden-section passes included), pinned
        // before the fold.
        let mut oracle = ProteinEngine::new(PoissonAa, &d);
        let old = crate::search::hill_climb_with(&mut oracle, d.n_taxa(), &cfg, 3);
        assert_eq!(old.lnl.to_bits(), 0xc064_6464_0593_cbac);
        let lengths: Vec<u64> = old.tree.edge_ids().map(|e| old.tree.length(e).to_bits()).collect();
        assert_eq!(
            lengths,
            [
                0x3eb0_c72a_c49b_f23e,
                0x3eb0_c72a_c49b_f23e,
                0x3eb0_c72a_c49b_f23e,
                0x3fe2_994d_7a7d_7e67,
                0x3eb0_c72a_c49b_f23e,
                0x4023_ffff_f2d7_f02f,
                0x3fc0_77a3_2acd_72ce,
            ]
        );
        // The one engine's Newton search finds the same tree. Its lengths
        // need not be the oracle's: with (a,b) 10.0 away, the data pin only
        // the path from (c,d) to e, the sum of its two edges, so the optima
        // lie on a flat ridge.
        let r = crate::search::hill_climb(&PoissonAa, &d, &cfg, 3);
        r.tree.validate().unwrap();
        assert_eq!(r.tree.bipartitions(), old.tree.bipartitions());
        assert!((r.lnl - old.lnl).abs() < 1e-4, "{} vs {}", r.lnl, old.lnl);
        // (a,b) must form a clade.
        let found = r.tree.bipartitions().iter().any(|side| {
            let members: Vec<usize> =
                side.iter().enumerate().filter_map(|(i, &s)| s.then_some(i)).collect();
            members == vec![0, 1] || members == vec![0, 2, 3, 4]
        });
        assert!(found, "protein search failed to recover (a,b): {:?}", r.tree.bipartitions());
    }

    #[test]
    fn deep_protein_trees_stay_finite() {
        let rows: Vec<(String, String)> = (0..150)
            .map(|i| {
                let c = AA_CODES[i % AA_STATES];
                (format!("t{i}"), std::iter::repeat_n(c, 8).collect())
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let d = data(&borrowed);
        let tree = Tree::caterpillar(150, 1.0);
        let engine = LikelihoodEngine::new(&PoissonAa, &d);
        let lnl = engine.log_likelihood(&tree);
        assert!(lnl.is_finite() && lnl < 0.0, "{lnl}");
        let (spine, _) = tree.neighbors(0)[0];
        assert!(engine.clv_toward(&tree, spine, 0).total_scalings() > 0, "no rescaling");
        let oracle = ProteinEngine::new(PoissonAa, &d).log_likelihood(&tree);
        assert!((lnl - oracle).abs() < 1e-9, "one body {lnl} vs oracle {oracle}");
    }

    proptest! {
        /// The one kernel body's protein likelihood is the classic engine's:
        /// on random residues, the ambiguity classes and gaps among them,
        /// on random trees, at every edge, and on a caterpillar deep enough
        /// to rescale.
        #[test]
        fn the_one_body_is_the_classic_protein_engine(
            seed in 0u64..u64::MAX,
            taxa in 4usize..=12,
            sites in 1usize..60,
            caterpillar in (0u8..4).prop_map(|i| i == 3),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (taxa, sites) = if caterpillar { (120, 6) } else { (taxa, sites) };
            let rows: Vec<(String, String)> = (0..taxa)
                .map(|t| {
                    let residue = |_| match rng.gen_range(0..30) {
                        c @ 0..24 => AA_CODES[c],
                        _ => '-',
                    };
                    (format!("p{t}"), (0..sites).map(residue).collect())
                })
                .collect();
            let borrowed: Vec<(&str, &str)> =
                rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
            let d = data(&borrowed);
            let tree = if caterpillar {
                Tree::caterpillar(taxa, 1.0)
            } else {
                Tree::random(taxa, rng.gen_range(0.01..1.0), &mut rng)
            };
            let engine = LikelihoodEngine::new(&PoissonAa, &d);
            let oracle = ProteinEngine::new(PoissonAa, &d);
            let edges = if caterpillar { vec![EdgeId(0)] } else { tree.edge_ids().collect() };
            for e in edges {
                let got = engine.log_likelihood_at(&tree, e);
                let want = traversal::score_at(&mut &oracle, &tree, e);
                prop_assert!((got - want).abs() <= 1e-9, "edge {:?}: one body {} vs oracle {}", e, got, want);
            }
            let got = engine.log_likelihood_at(&tree, EdgeId(0));
            prop_assert!(got.is_finite() && got < 0.0, "{}", got);
        }
    }
}
