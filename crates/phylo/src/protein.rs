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
mod tests {
    use super::*;
    use crate::alignment::{Alignment, AlignmentError, PatternAlignment};
    use crate::likelihood::LikelihoodEngine;
    use crate::reference::{brute_force, Reference};
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

    /// Enumeration over the 400 assignments of states to the two
    /// internal nodes of a 4-taxon tree validates the pruning.
    #[test]
    fn engine_matches_brute_force() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = Tree::random(4, 0.2, &mut rng);
        let fast = LikelihoodEngine::new(&PoissonAa, &d).log_likelihood(&tree);
        let brute = brute_force(&PoissonAa, &d, &tree);
        assert!((fast - brute).abs() < 1e-9, "pruning {fast} vs brute {brute}");
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

    /// Edge by edge, from the same starting length, Newton's optimum is
    /// the reference's golden section's, and scores no lower; over whole
    /// passes, Newton's lnL is never below golden section's.
    #[test]
    fn newton_finds_golden_sections_branch_lengths() {
        let aln = Alignment::<AA_STATES>::synthetic(8, 150, &PoissonAa, 0.2, 3);
        let d = PatternAlignment::compress(&aln);
        let tree = Tree::random(8, 0.5, &mut SmallRng::seed_from_u64(4));
        let engine = LikelihoodEngine::new(&PoissonAa, &d);
        let reference = Reference::new(&PoissonAa, &d);
        for e in tree.edge_ids() {
            let t0 = tree.length(e);
            let (u, v) = traversal::edge_pair(&mut &engine, &tree, e);
            let newton = Kernels::optimize_edge(&mut &engine, u, v, t0);
            let (u, v) = traversal::edge_pair(&mut &reference, &tree, e);
            let golden = Kernels::optimize_edge(&mut &reference, u, v, t0);
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
        let want = traversal::optimize_branches(&mut &reference, &mut golden, 3, 1e-4);
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
        // The one engine's Newton search finds the reference's
        // golden-section search's tree. Its lengths need not be the
        // reference's: with (a,b) 10.0 away, the data pin only the path
        // from (c,d) to e, the sum of its two edges, so the optima lie on
        // a flat ridge.
        let mut reference = Reference::new(&PoissonAa, &d);
        let want = crate::search::hill_climb_with(&mut reference, d.n_taxa(), &cfg, 3);
        let r = crate::search::hill_climb(&PoissonAa, &d, &cfg, 3);
        r.tree.validate().unwrap();
        assert_eq!(r.tree.bipartitions(), want.tree.bipartitions());
        assert!((r.lnl - want.lnl).abs() < 1e-4, "{} vs {}", r.lnl, want.lnl);
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
        let want = Reference::new(&PoissonAa, &d).log_likelihood(&tree);
        assert!((lnl - want).abs() <= 1e-9 * want.abs(), "one body {lnl} vs reference {want}");
    }

    proptest! {
        /// The one kernel body's protein likelihood at every edge is the
        /// reference's: on random residues, the ambiguity classes and gaps
        /// among them, on random trees, and on a caterpillar deep enough
        /// to rescale.
        #[test]
        fn the_one_body_is_the_reference_protein_likelihood(
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
            let want = Reference::new(&PoissonAa, &d).log_likelihood(&tree);
            let edges = if caterpillar { vec![EdgeId(0)] } else { tree.edge_ids().collect() };
            for e in edges {
                let got = engine.log_likelihood_at(&tree, e);
                let off = (got - want).abs() / want.abs();
                prop_assert!(off <= 1e-9, "edge {:?}: one body {} vs reference {}", e, got, want);
            }
            let got = engine.log_likelihood_at(&tree, EdgeId(0));
            prop_assert!(got.is_finite() && got < 0.0, "{}", got);
        }
    }
}
