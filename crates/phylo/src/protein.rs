//! Amino-acid (protein) likelihood support.
//!
//! RAxML analyzes "multiple alignments of DNA or AA sequences" (§3); this
//! module provides the AA side: a 20-state alphabet with IUPAC ambiguity
//! codes, pattern-compressed protein alignments, the Poisson (Felsenstein
//! 1981 / "JC69-for-proteins") substitution model in closed form, and a
//! likelihood engine with the same Felsenstein-pruning + per-site-rescaling
//! structure as the DNA engine. It plugs into the generic search through
//! [`crate::search::ScoringEngine`], so NNI hill climbing works on protein
//! data unchanged.

#![allow(clippy::needless_range_loop)] // index loops mirror the math in dense kernels

use crate::likelihood::{golden_section_branch, SCALE_MULTIPLIER, SCALE_THRESHOLD};
use crate::traversal::{self, Kernels};
use crate::tree::Tree;

/// Number of amino-acid states.
pub const AA_STATES: usize = 20;

/// Canonical amino-acid ordering (one-letter codes).
pub const AA_CODES: [char; AA_STATES] = [
    'A', 'R', 'N', 'D', 'C', 'Q', 'E', 'G', 'H', 'I', 'L', 'K', 'M', 'F', 'P', 'S', 'T', 'W',
    'Y', 'V',
];

/// A 20-bit amino-acid state mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AaMask(pub u32);

impl AaMask {
    /// Fully ambiguous (X / gap): any amino acid.
    pub const ANY: AaMask = AaMask((1 << AA_STATES) - 1);

    /// Parse a one-letter amino-acid code (case-insensitive), including
    /// the ambiguity codes B (N/D), Z (Q/E), J (I/L), X and gaps.
    pub fn from_char(c: char) -> Option<AaMask> {
        let c = c.to_ascii_uppercase();
        if let Some(idx) = AA_CODES.iter().position(|&a| a == c) {
            return Some(AaMask(1 << idx));
        }
        let mask = |chars: &[char]| {
            AaMask(chars.iter().map(|&ch| 1u32 << aa_index(ch)).fold(0, |a, b| a | b))
        };
        match c {
            'B' => Some(mask(&['N', 'D'])),
            'Z' => Some(mask(&['Q', 'E'])),
            'J' => Some(mask(&['I', 'L'])),
            'X' | '-' | '?' | '.' | '*' => Some(AaMask::ANY),
            _ => None,
        }
    }

    /// Whether state `s` is allowed.
    #[inline]
    pub fn allows(self, s: usize) -> bool {
        self.0 & (1 << s) != 0
    }

    /// Render back to a one-letter code (`X` for anything ambiguous other
    /// than B/Z/J).
    pub fn to_char(self) -> char {
        if self.0.count_ones() == 1 {
            return AA_CODES[self.0.trailing_zeros() as usize];
        }
        let of = |chars: &[char]| chars.iter().map(|&c| 1u32 << aa_index(c)).fold(0, |a, b| a | b);
        if self.0 == of(&['N', 'D']) {
            'B'
        } else if self.0 == of(&['Q', 'E']) {
            'Z'
        } else if self.0 == of(&['I', 'L']) {
            'J'
        } else {
            'X'
        }
    }
}

fn aa_index(c: char) -> usize {
    AA_CODES.iter().position(|&a| a == c).expect("canonical amino acid")
}

/// A pattern-compressed protein alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProteinData {
    taxa: Vec<String>,
    /// `patterns[taxon][pattern]`.
    patterns: Vec<Vec<AaMask>>,
    weights: Vec<u32>,
    n_sites: usize,
}

impl ProteinData {
    /// Build from `(name, sequence)` rows of one-letter codes.
    ///
    /// # Errors
    /// Returns a message for ragged rows, invalid characters, or fewer
    /// than two taxa.
    pub fn from_strings(rows: &[(&str, &str)]) -> Result<ProteinData, String> {
        if rows.len() < 2 {
            return Err("need at least two sequences".into());
        }
        let n_sites = rows[0].1.chars().count();
        if n_sites == 0 {
            return Err("empty alignment".into());
        }
        let mut seqs: Vec<Vec<AaMask>> = Vec::with_capacity(rows.len());
        let mut taxa = Vec::with_capacity(rows.len());
        for (name, seq) in rows {
            let masks: Result<Vec<AaMask>, String> = seq
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    AaMask::from_char(c).ok_or_else(|| format!("{name} site {i}: bad residue {c:?}"))
                })
                .collect();
            let masks = masks?;
            if masks.len() != n_sites {
                return Err(format!("{name}: length {} != {n_sites}", masks.len()));
            }
            taxa.push((*name).to_string());
            seqs.push(masks);
        }
        // Pattern compression, as in the DNA path.
        let mut index = std::collections::HashMap::new();
        let mut patterns: Vec<Vec<AaMask>> = vec![Vec::new(); rows.len()];
        let mut weights: Vec<u32> = Vec::new();
        for site in 0..n_sites {
            let col: Vec<u32> = seqs.iter().map(|s| s[site].0).collect();
            let next = weights.len();
            let pat = *index.entry(col).or_insert(next);
            if pat == weights.len() {
                for (t, pcol) in patterns.iter_mut().enumerate() {
                    pcol.push(seqs[t][site]);
                }
                weights.push(0);
            }
            weights[pat] += 1;
        }
        Ok(ProteinData { taxa, patterns, weights, n_sites })
    }

    /// Parse a protein FASTA file.
    ///
    /// # Errors
    /// Returns a message for malformed FASTA or residues outside the
    /// alphabet.
    pub fn from_fasta(text: &str) -> Result<ProteinData, String> {
        let mut rows: Vec<(String, String)> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(h) = line.strip_prefix('>') {
                let name = h.split_whitespace().next().unwrap_or("");
                if name.is_empty() {
                    return Err("empty FASTA header".into());
                }
                rows.push((name.to_string(), String::new()));
            } else {
                rows.last_mut().ok_or("sequence before first header")?.1.push_str(line);
            }
        }
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        ProteinData::from_strings(&borrowed)
    }

    /// Number of taxa.
    pub fn n_taxa(&self) -> usize {
        self.taxa.len()
    }

    /// Distinct site patterns.
    pub fn n_patterns(&self) -> usize {
        self.weights.len()
    }

    /// Original alignment columns.
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Taxon names.
    pub fn taxa(&self) -> &[String] {
        &self.taxa
    }

    /// The mask of `taxon` at `pattern`.
    pub fn mask(&self, taxon: usize, pattern: usize) -> AaMask {
        self.patterns[taxon][pattern]
    }

    /// Pattern multiplicities.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }
}

/// The Poisson amino-acid model: all substitutions equally likely, uniform
/// frequencies — the 20-state analogue of JC69, in closed form:
/// `P_same(t) = 1/20 + 19/20·e^{-20t/19}`,
/// `P_diff(t) = 1/20·(1 − e^{-20t/19})` (rate normalized to one expected
/// substitution per unit branch length).
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
    data: &'a ProteinData,
}

impl<'a> ProteinEngine<'a> {
    /// Bind the Poisson model to `data`.
    pub fn new(model: PoissonAa, data: &'a ProteinData) -> Self {
        ProteinEngine { model, data }
    }

    fn tip_clv(&self, taxon: usize) -> AaClv {
        let n = self.data.n_patterns();
        let mut vals = vec![0.0; n * AA_STATES];
        for p in 0..n {
            let m = self.data.mask(taxon, p);
            for s in 0..AA_STATES {
                if m.allows(s) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn alphabet_round_trips() {
        for (i, &c) in AA_CODES.iter().enumerate() {
            let m = AaMask::from_char(c).unwrap();
            assert!(m.allows(i));
            assert_eq!(m.0.count_ones(), 1);
            assert_eq!(m.to_char(), c);
        }
        assert_eq!(AaMask::from_char('x').unwrap(), AaMask::ANY);
        assert_eq!(AaMask::from_char('-').unwrap(), AaMask::ANY);
        assert_eq!(AaMask::from_char('O'), None, "pyrrolysine not in the 20");
        let b = AaMask::from_char('B').unwrap();
        assert!(b.allows(aa_index('N')) && b.allows(aa_index('D')) && !b.allows(aa_index('A')));
        assert_eq!(b.to_char(), 'B');
        assert_eq!(AaMask::from_char('Z').unwrap().to_char(), 'Z');
        assert_eq!(AaMask::from_char('J').unwrap().to_char(), 'J');
    }

    #[test]
    fn poisson_limits_and_stochasticity() {
        let m = PoissonAa;
        let (s0, d0) = m.probs(0.0);
        assert!((s0 - 1.0).abs() < 1e-12 && d0.abs() < 1e-12);
        let (si, di) = m.probs(1e6);
        assert!((si - 0.05).abs() < 1e-9 && (di - 0.05).abs() < 1e-9);
        for &t in &[0.01, 0.1, 1.0, 5.0] {
            let (s, d) = m.probs(t);
            assert!((s + 19.0 * d - 1.0).abs() < 1e-12, "row sum at t={t}");
            assert!(s > d, "same must dominate at finite t");
        }
        // Rate normalization: 1 - P_same ≈ t for small t.
        let t = 1e-6;
        let (s, _) = m.probs(t);
        assert!(((1.0 - s) / t - 1.0).abs() < 1e-3);
    }

    fn toy() -> ProteinData {
        ProteinData::from_strings(&[
            ("a", "ARNDCQEGHI"),
            ("b", "ARNDCQEGHL"),
            ("c", "ARNDCREGHI"),
            ("d", "AKNDCREGHI"),
        ])
        .unwrap()
    }

    #[test]
    fn protein_fasta_parses() {
        let d = ProteinData::from_fasta(">a\nARND\nCQ\n>b desc\nARNDCQ\n").unwrap();
        assert_eq!(d.n_taxa(), 2);
        assert_eq!(d.n_sites(), 6);
        assert!(ProteinData::from_fasta("ARND\n>a\n").is_err());
        assert!(ProteinData::from_fasta(">a\nAR!D\n>b\nARND\n").is_err());
    }

    #[test]
    fn construction_and_compression() {
        let d = toy();
        assert_eq!(d.n_taxa(), 4);
        assert_eq!(d.n_sites(), 10);
        assert!(d.n_patterns() <= 10);
        assert_eq!(d.weights().iter().sum::<u32>() as usize, 10);
        assert!(ProteinData::from_strings(&[("a", "AR")]).is_err());
        assert!(ProteinData::from_strings(&[("a", "AR"), ("b", "A")]).is_err());
        assert!(ProteinData::from_strings(&[("a", "A!"), ("b", "AR")]).is_err());
    }

    /// Brute force over internal states for a 4-taxon tree (2 internal
    /// nodes → 400 combinations) validates the pruning implementation.
    #[test]
    fn engine_matches_brute_force() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(3);
        let tree = Tree::random(4, 0.2, &mut rng);
        let engine = ProteinEngine::new(PoissonAa, &d);
        let fast = engine.log_likelihood(&tree);

        let m = PoissonAa;
        let prob = |t: f64, x: usize, y: usize| {
            let (s, df) = m.probs(t);
            if x == y {
                s
            } else {
                df
            }
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
                        let t = tree.length(e);
                        let f = match (tree.is_tip(a), tree.is_tip(b)) {
                            (false, false) => prob(t, state_of(a), state_of(b)),
                            (false, true) => (0..AA_STATES)
                                .filter(|&s| d.mask(b, pat).allows(s))
                                .map(|s| prob(t, state_of(a), s))
                                .sum(),
                            (true, false) => (0..AA_STATES)
                                .filter(|&s| d.mask(a, pat).allows(s))
                                .map(|s| prob(t, s, state_of(b)))
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
        assert!((fast - brute).abs() < 1e-8, "pruning {fast} vs brute {brute}");
        // Pinned against the walk this engine had before the shared
        // traversal: the refactor must not move a bit.
        assert_eq!(fast.to_bits(), 0xc04b_ac00_25ab_f3ac);
    }

    #[test]
    fn likelihood_edge_invariance() {
        let d = toy();
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = Tree::random(4, 0.15, &mut rng);
        let engine = ProteinEngine::new(PoissonAa, &d);
        let base = engine.log_likelihood(&tree);
        for e in tree.edge_ids() {
            let lnl = traversal::score_at(&mut &engine, &tree, e);
            assert!((lnl - base).abs() < 1e-8, "edge {e:?}");
        }
    }

    #[test]
    fn protein_search_end_to_end() {
        // Strongly structured protein data: (a,b) vs (c,d,e).
        let d = ProteinData::from_strings(&[
            ("a", "AAAAAAAAAARRRRRRRRRR"),
            ("b", "AAAAAAAAAARRRRRRRRRR"),
            ("c", "WWWWWWWWWWYYYYYYYYYY"),
            ("d", "WWWWWWWWWWYYYYYYYYYY"),
            ("e", "WWWWWWWWWWVVVVVVVVVV"),
        ])
        .unwrap();
        let mut engine = ProteinEngine::new(PoissonAa, &d);
        let cfg = crate::search::SearchConfig::default();
        let r = crate::search::hill_climb_with(&mut engine, d.n_taxa(), &cfg, 3);
        r.tree.validate().unwrap();
        // The search (golden-section passes included), pinned likewise.
        assert_eq!(r.lnl.to_bits(), 0xc064_6464_0593_cbac);
        let lengths: Vec<u64> = r.tree.edge_ids().map(|e| r.tree.length(e).to_bits()).collect();
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
        let d = ProteinData::from_strings(&borrowed).unwrap();
        let tree = Tree::caterpillar(150, 1.0);
        let lnl = ProteinEngine::new(PoissonAa, &d).log_likelihood(&tree);
        assert!(lnl.is_finite() && lnl < 0.0, "{lnl}");
    }
}
