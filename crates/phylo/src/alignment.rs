//! Multiple sequence alignments of DNA or amino acids ("DNA or AA", §3):
//! storage, site-pattern compression, PHYLIP-style text I/O, and a
//! synthetic-data generator that evolves sequences down a random tree
//! (our stand-in for the paper's `42_SC` input file: 42 organisms × 1167
//! nucleotides).
//!
//! An alignment over `S` states stores each site as a small integer tip
//! code of its alphabet: DNA (`S = 4`, the default; a code is a
//! [`crate::dna::StateMask`]) or protein (`S = 20`; a code indexes
//! [`crate::protein::AA_CODES`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dna::STATES;
use crate::model::SubstModel;
use crate::protein::AA_STATES;

/// The tip codes of `S`-state data: how a one-letter code reads as a code,
/// how a code prints, and which states each code allows. A DNA code is the
/// 4-bit [`crate::dna::StateMask`] (16 codes); a protein code indexes the
/// 24 residue classes of [`crate::protein::AA_CODES`].
#[derive(Debug)]
pub(crate) struct Alphabet {
    /// The code of a one-letter code (any case), `None` outside the
    /// alphabet.
    pub code: fn(char) -> Option<u8>,
    /// The letter a code prints as.
    pub letter: fn(u8) -> char,
    /// The states each code allows, as a bit set, by code.
    pub states: &'static [u32],
}

/// The alphabet of `S`-state data: DNA at 4 states, protein at 20.
///
/// # Panics
/// Panics for any other state count.
pub(crate) fn alphabet<const S: usize>() -> &'static Alphabet {
    match S {
        STATES => &crate::dna::NUCLEOTIDES,
        AA_STATES => &crate::protein::AMINO_ACIDS,
        _ => panic!("no alphabet has {S} states"),
    }
}

/// A multiple sequence alignment over `S` states, DNA by default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment<const S: usize = STATES> {
    taxa: Vec<String>,
    /// `seqs[taxon][site]`, as tip codes.
    seqs: Vec<Vec<u8>>,
}

/// Errors from alignment construction or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlignmentError {
    /// Sequences of unequal length.
    RaggedRows {
        /// Name of the offending taxon.
        taxon: String,
        /// Its sequence length.
        len: usize,
        /// The expected length.
        expected: usize,
    },
    /// A character outside the alphabet.
    BadCharacter {
        /// Name of the offending taxon.
        taxon: String,
        /// 0-based site index.
        site: usize,
        /// The character found.
        ch: char,
    },
    /// Fewer than two taxa, or zero sites.
    TooSmall,
    /// A PHYLIP or FASTA header malformed or inconsistent with the body.
    BadHeader(String),
}

impl std::fmt::Display for AlignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlignmentError::RaggedRows { taxon, len, expected } => {
                write!(f, "taxon {taxon}: sequence length {len}, expected {expected}")
            }
            AlignmentError::BadCharacter { taxon, site, ch } => {
                write!(f, "taxon {taxon}, site {site}: invalid character {ch:?}")
            }
            AlignmentError::TooSmall => f.write_str("alignment needs >= 2 taxa and >= 1 site"),
            AlignmentError::BadHeader(msg) => write!(f, "bad header: {msg}"),
        }
    }
}

impl std::error::Error for AlignmentError {}

impl<const S: usize> Alignment<S> {
    /// Build an alignment from taxon names and strings of one-letter
    /// codes.
    ///
    /// # Errors
    /// Rejects ragged rows, invalid characters, and degenerate sizes.
    pub fn from_strings(rows: &[(&str, &str)]) -> Result<Self, AlignmentError> {
        if rows.len() < 2 {
            return Err(AlignmentError::TooSmall);
        }
        let expected = rows[0].1.chars().count();
        if expected == 0 {
            return Err(AlignmentError::TooSmall);
        }
        let read = alphabet::<S>().code;
        let mut taxa = Vec::with_capacity(rows.len());
        let mut seqs = Vec::with_capacity(rows.len());
        for (name, seq) in rows {
            let mut codes = Vec::with_capacity(expected);
            for (site, ch) in seq.chars().enumerate() {
                let code = read(ch).ok_or_else(|| AlignmentError::BadCharacter {
                    taxon: (*name).to_string(),
                    site,
                    ch,
                })?;
                codes.push(code);
            }
            if codes.len() != expected {
                return Err(AlignmentError::RaggedRows {
                    taxon: (*name).to_string(),
                    len: codes.len(),
                    expected,
                });
            }
            taxa.push((*name).to_string());
            seqs.push(codes);
        }
        Ok(Alignment { taxa, seqs })
    }

    /// Number of taxa (sequences).
    pub fn n_taxa(&self) -> usize {
        self.taxa.len()
    }

    /// Number of alignment columns.
    pub fn n_sites(&self) -> usize {
        self.seqs[0].len()
    }

    /// Taxon names, in row order.
    pub fn taxa(&self) -> &[String] {
        &self.taxa
    }

    /// The tip code of `taxon` at `site`.
    pub fn code(&self, taxon: usize, site: usize) -> u8 {
        self.seqs[taxon][site]
    }

    /// Serialize to (relaxed) sequential PHYLIP.
    pub fn to_phylip(&self) -> String {
        let mut out = format!("{} {}\n", self.n_taxa(), self.n_sites());
        for (name, seq) in self.taxa.iter().zip(&self.seqs) {
            out.push_str(name);
            out.push(' ');
            out.extend(seq.iter().map(|&code| (alphabet::<S>().letter)(code)));
            out.push('\n');
        }
        out
    }

    /// Parse relaxed sequential PHYLIP (header line `ntaxa nsites`, then one
    /// `name sequence` line per taxon).
    ///
    /// # Errors
    /// Rejects malformed headers, invalid characters, and size mismatches.
    pub fn from_phylip(text: &str) -> Result<Self, AlignmentError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or_else(|| AlignmentError::BadHeader("empty input".into()))?;
        let mut parts = header.split_whitespace();
        let n_taxa: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| AlignmentError::BadHeader("missing taxon count".into()))?;
        let n_sites: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| AlignmentError::BadHeader("missing site count".into()))?;
        let mut rows: Vec<(String, String)> = Vec::with_capacity(n_taxa);
        for line in lines {
            let mut p = line.split_whitespace();
            let name = p
                .next()
                .ok_or_else(|| AlignmentError::BadHeader("row without name".into()))?
                .to_string();
            let seq: String = p.collect();
            rows.push((name, seq));
        }
        if rows.len() != n_taxa {
            return Err(AlignmentError::BadHeader(format!(
                "header claims {n_taxa} taxa, found {}",
                rows.len()
            )));
        }
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let aln = Self::from_strings(&borrowed)?;
        if aln.n_sites() != n_sites {
            return Err(AlignmentError::BadHeader(format!(
                "header claims {n_sites} sites, found {}",
                aln.n_sites()
            )));
        }
        Ok(aln)
    }

    /// Parse FASTA (`>name` header lines, sequence possibly wrapped over
    /// multiple lines). Order of appearance defines taxon indices.
    ///
    /// # Errors
    /// Rejects empty input, sequences before the first header, duplicate
    /// names, invalid characters, and ragged lengths.
    pub fn from_fasta(text: &str) -> Result<Self, AlignmentError> {
        let mut rows: Vec<(String, String)> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('>') {
                let name = name.split_whitespace().next().unwrap_or("").to_string();
                if name.is_empty() {
                    return Err(AlignmentError::BadHeader("empty FASTA header".into()));
                }
                if rows.iter().any(|(n, _)| *n == name) {
                    return Err(AlignmentError::BadHeader(format!("duplicate taxon {name}")));
                }
                rows.push((name, String::new()));
            } else {
                match rows.last_mut() {
                    Some((_, seq)) => seq.push_str(line),
                    None => {
                        return Err(AlignmentError::BadHeader(
                            "sequence data before the first '>' header".into(),
                        ))
                    }
                }
            }
        }
        if rows.is_empty() {
            return Err(AlignmentError::BadHeader("no FASTA records".into()));
        }
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        Self::from_strings(&borrowed)
    }

    /// Serialize to FASTA, wrapping sequences at 70 columns.
    pub fn to_fasta(&self) -> String {
        let mut out = String::new();
        for (name, seq) in self.taxa.iter().zip(&self.seqs) {
            out.push('>');
            out.push_str(name);
            out.push('\n');
            for chunk in seq.chunks(70) {
                out.extend(chunk.iter().map(|&code| (alphabet::<S>().letter)(code)));
                out.push('\n');
            }
        }
        out
    }

    /// Generate a synthetic alignment by evolving sequences down a random
    /// coalescent-ish tree under `model`. Deterministic in `seed`.
    ///
    /// `mean_branch` controls divergence (expected substitutions per site
    /// per branch); 0.05–0.2 gives RAxML-realistic signal.
    pub fn synthetic<M: SubstModel<S>>(
        n_taxa: usize,
        n_sites: usize,
        model: &M,
        mean_branch: f64,
        seed: u64,
    ) -> Self {
        assert!(n_taxa >= 2 && n_sites >= 1, "degenerate alignment size");
        assert!(mean_branch > 0.0 && mean_branch.is_finite());
        let mut rng = SmallRng::seed_from_u64(seed);
        // Evolve down an implicit random binary tree built by splitting:
        // maintain a frontier of sequences (states as bytes: S ≤ 20) and
        // split until we have n_taxa leaves.
        let freqs = model.base_freqs();
        let root: Vec<u8> =
            (0..n_sites).map(|_| sample_state(&freqs, &mut rng) as u8).collect();
        let mut frontier: std::collections::VecDeque<Vec<u8>> = [root].into();
        while frontier.len() < n_taxa {
            // Split the first (oldest) lineage into two children.
            let parent = frontier.pop_front().expect("the frontier is never empty");
            for _ in 0..2 {
                let t = sample_branch(mean_branch, &mut rng);
                let cumulative = model.prob_matrix(t).map(|row| cumulative(&row));
                let child: Vec<u8> = parent
                    .iter()
                    .map(|&s| draw(&cumulative[usize::from(s)], rng.gen()) as u8)
                    .collect();
                frontier.push_back(child);
            }
        }
        let taxa: Vec<String> = (0..n_taxa).map(|i| format!("taxon{i:03}")).collect();
        // The code allowing exactly state `s`, by `s`.
        let sets = alphabet::<S>().states;
        let code: [u8; S] = std::array::from_fn(|s| {
            sets.iter().position(|&set| set == 1 << s).expect("a code per state") as u8
        });
        let mut seqs: Vec<Vec<u8>> = frontier.into_iter().take(n_taxa).collect();
        for s in seqs.iter_mut().flatten() {
            *s = code[usize::from(*s)];
        }
        Alignment { taxa, seqs }
    }

    /// The paper's `42_SC` workload shape: 42 organisms, 1167 nucleotides.
    pub fn synthetic_42_sc<M: SubstModel<S>>(model: &M, seed: u64) -> Self {
        Self::synthetic(42, 1167, model, 0.08, seed)
    }
}

fn sample_state<const S: usize>(freqs: &[f64; S], rng: &mut SmallRng) -> usize {
    draw(&cumulative(freqs), rng.gen())
}

/// The running sums of `probs`, summed in order.
fn cumulative<const S: usize>(probs: &[f64; S]) -> [f64; S] {
    let mut acc = 0.0;
    probs.map(|p| {
        acc += p;
        acc
    })
}

/// The first state whose running sum exceeds `u`, or the last state: a
/// draw from the distribution `cumulative` sums. Written without an early
/// exit, whose unpredictable branch was most of [`Alignment::synthetic`]'s
/// time.
fn draw<const S: usize>(cumulative: &[f64; S], u: f64) -> usize {
    let mut state = S - 1;
    for s in (0..S - 1).rev() {
        if u < cumulative[s] {
            state = s;
        }
    }
    state
}

fn sample_branch(mean: f64, rng: &mut SmallRng) -> f64 {
    // Exponential branch lengths, floored to keep P(t) well conditioned.
    let u: f64 = rng.gen::<f64>().max(1e-12);
    (-u.ln() * mean).max(1e-6)
}

/// A site-pattern-compressed view of an alignment.
///
/// Identical columns are merged; each pattern carries an integer weight.
/// The likelihood kernels iterate over patterns, which is what RAxML does;
/// a bootstrap replicate (§3.1) is the compressed alignment of its
/// re-sampled columns, so patterns it did not draw are absent from it.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternAlignment<const S: usize = STATES> {
    /// `patterns[taxon][pattern]` tip codes.
    patterns: Vec<Vec<u8>>,
    /// Multiplicity of each pattern: how many columns it stands for.
    weights: Vec<u32>,
    /// Column → pattern index (needed for bootstrapping).
    column_pattern: Vec<usize>,
    n_taxa: usize,
}

impl<const S: usize> PatternAlignment<S> {
    /// Compress `aln` into site patterns.
    pub fn compress(aln: &Alignment<S>) -> Self {
        let n_taxa = aln.n_taxa();
        let n_sites = aln.n_sites();
        // Column-major copy, so that a column is one slice to look up.
        let mut columns = vec![0u8; n_taxa * n_sites];
        for (t, seq) in aln.seqs.iter().enumerate() {
            for (site, &c) in seq.iter().enumerate() {
                columns[site * n_taxa + t] = c;
            }
        }
        let mut index: std::collections::HashMap<&[u8], usize> = std::collections::HashMap::new();
        let mut patterns: Vec<Vec<u8>> = vec![Vec::new(); n_taxa];
        let mut weights: Vec<u32> = Vec::new();
        let mut column_pattern = Vec::with_capacity(n_sites);
        for col in columns.chunks_exact(n_taxa) {
            let next = weights.len();
            let pat = *index.entry(col).or_insert(next);
            if pat == weights.len() {
                for (pcol, &c) in patterns.iter_mut().zip(col) {
                    pcol.push(c);
                }
                weights.push(0);
            }
            weights[pat] += 1;
            column_pattern.push(pat);
        }
        PatternAlignment { patterns, weights, column_pattern, n_taxa }
    }

    /// Number of taxa.
    pub fn n_taxa(&self) -> usize {
        self.n_taxa
    }

    /// Number of distinct site patterns.
    pub fn n_patterns(&self) -> usize {
        self.weights.len()
    }

    /// Number of alignment columns.
    pub fn n_sites(&self) -> usize {
        self.column_pattern.len()
    }

    /// Pattern weights (multiplicities). Sum equals [`Self::n_sites`] for a
    /// freshly compressed alignment, and for every bootstrap replicate.
    pub fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// The tip code of `taxon` at `pattern`.
    pub fn code(&self, taxon: usize, pattern: usize) -> u8 {
        self.patterns[taxon][pattern]
    }

    /// The tip codes of `taxon`, one per pattern.
    pub(crate) fn codes(&self, taxon: usize) -> &[u8] {
        &self.patterns[taxon]
    }

    /// Column → pattern mapping.
    pub fn column_pattern(&self) -> &[usize] {
        &self.column_pattern
    }

    /// The compressed alignment in which pattern `p` stands for
    /// `weights[p]` columns (used by the bootstrapper). Patterns of weight
    /// 0 are absent; the rest keep their relative order, each as
    /// `weights[p]` consecutive columns of [`Self::column_pattern`].
    pub fn with_weights(&self, weights: Vec<u32>) -> Self {
        assert_eq!(weights.len(), self.weights.len(), "weight vector length mismatch");
        let kept: Vec<usize> = (0..weights.len()).filter(|&p| weights[p] > 0).collect();
        let weights: Vec<u32> = kept.iter().map(|&p| weights[p]).collect();
        let column_pattern =
            weights.iter().enumerate().flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize));
        let patterns = self.patterns.iter().map(|col| kept.iter().map(|&p| col[p]).collect());
        PatternAlignment {
            patterns: patterns.collect(),
            column_pattern: column_pattern.collect(),
            weights,
            n_taxa: self.n_taxa,
        }
    }
}

/// The early-exit draw and the per-column keyed compression that
/// [`draw`] and [`PatternAlignment::compress`] replaced, kept as their
/// reference.
#[cfg(test)]
mod classic {
    use super::*;

    pub fn sample_transition<const S: usize>(probs: &[f64; S], u: f64) -> usize {
        let mut acc = 0.0;
        for (s, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return s;
            }
        }
        S - 1
    }

    pub fn compress<const S: usize>(aln: &Alignment<S>) -> PatternAlignment<S> {
        let n_taxa = aln.n_taxa();
        let mut index: std::collections::HashMap<Vec<u8>, usize> = std::collections::HashMap::new();
        let mut patterns: Vec<Vec<u8>> = vec![Vec::new(); n_taxa];
        let (mut weights, mut column_pattern) = (Vec::new(), Vec::new());
        for site in 0..aln.n_sites() {
            let col: Vec<u8> = (0..n_taxa).map(|t| aln.code(t, site)).collect();
            let pat = *index.entry(col.clone()).or_insert(weights.len());
            if pat == weights.len() {
                patterns.iter_mut().zip(&col).for_each(|(pcol, &c)| pcol.push(c));
                weights.push(0);
            }
            weights[pat] += 1;
            column_pattern.push(pat);
        }
        PatternAlignment { patterns, weights, column_pattern, n_taxa }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dna::StateMask;
    use crate::model::Jc69;
    use proptest::prelude::*;

    proptest! {
        /// The branch-free draw picks the early-exit loop's state for any
        /// row, including rows with tiny negative entries and sums short
        /// of 1, and any `u`.
        #[test]
        fn draw_is_the_early_exit_loop(
            row in prop::collection::vec(-1e-12f64..0.6, 4),
            u in 0.0f64..1.0,
        ) {
            let row: [f64; 4] = [row[0], row[1], row[2], row[3]];
            prop_assert_eq!(draw(&cumulative(&row), u), classic::sample_transition(&row, u));
        }

        /// Slice-keyed compression gives the per-column keyed one's
        /// patterns, weights and column map, DNA and protein.
        #[test]
        fn compress_is_the_per_column_oracle(
            taxa in 2usize..12,
            sites in 1usize..300,
            seed in 0u64..u64::MAX,
        ) {
            let dna = Alignment::synthetic(taxa, sites, &Jc69, 0.3, seed);
            prop_assert_eq!(PatternAlignment::compress(&dna), classic::compress(&dna));
            let aa = Alignment::synthetic(taxa, sites, &crate::protein::PoissonAa, 0.3, seed);
            prop_assert_eq!(PatternAlignment::compress(&aa), classic::compress(&aa));
        }
    }

    /// The DNA alignment: the parse-error tests name no model to infer
    /// the state count from.
    type Dna = Alignment;

    fn toy() -> Alignment {
        Alignment::from_strings(&[
            ("ta", "ACGTAC"),
            ("tb", "ACGTAC"),
            ("tc", "ACGTTT"),
            ("td", "AAGTTT"),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let a = toy();
        assert_eq!(a.n_taxa(), 4);
        assert_eq!(a.n_sites(), 6);
        assert_eq!(a.taxa()[2], "tc");
        assert_eq!(StateMask(a.code(3, 1)), StateMask::from_char('A').unwrap());
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Dna::from_strings(&[("a", "ACGT"), ("b", "ACG")]).unwrap_err();
        assert!(matches!(err, AlignmentError::RaggedRows { .. }));
    }

    #[test]
    fn bad_character_rejected_with_location() {
        let err = Dna::from_strings(&[("a", "ACGT"), ("b", "ACZT")]).unwrap_err();
        assert_eq!(
            err,
            AlignmentError::BadCharacter { taxon: "b".into(), site: 2, ch: 'Z' }
        );
    }

    #[test]
    fn too_small_rejected() {
        assert_eq!(
            Dna::from_strings(&[("a", "ACGT")]).unwrap_err(),
            AlignmentError::TooSmall
        );
    }

    #[test]
    fn phylip_round_trip() {
        let a = toy();
        let text = a.to_phylip();
        let b = Dna::from_phylip(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn phylip_header_validation() {
        assert!(matches!(
            Dna::from_phylip("banana\n").unwrap_err(),
            AlignmentError::BadHeader(_)
        ));
        assert!(matches!(
            Dna::from_phylip("3 4\na ACGT\nb ACGT\n").unwrap_err(),
            AlignmentError::BadHeader(_)
        ));
        assert!(matches!(
            Dna::from_phylip("2 5\na ACGT\nb ACGT\n").unwrap_err(),
            AlignmentError::BadHeader(_)
        ));
    }

    #[test]
    fn fasta_round_trip_with_wrapping() {
        let a = Alignment::synthetic(5, 173, &crate::model::Jc69, 0.1, 3);
        let text = a.to_fasta();
        assert!(text.starts_with('>'));
        let b = Dna::from_fasta(&text).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fasta_accepts_multiline_and_descriptions() {
        let a = Dna::from_fasta(">a some description\nACG\nT\n>b\nACGT\n").unwrap();
        assert_eq!(a.n_taxa(), 2);
        assert_eq!(a.n_sites(), 4);
        assert_eq!(a.taxa()[0], "a");
    }

    #[test]
    fn fasta_error_cases() {
        assert!(matches!(Dna::from_fasta(""), Err(AlignmentError::BadHeader(_))));
        assert!(matches!(
            Dna::from_fasta("ACGT\n>a\nACGT\n"),
            Err(AlignmentError::BadHeader(_))
        ));
        assert!(matches!(
            Dna::from_fasta(">a\nACGT\n>a\nACGT\n"),
            Err(AlignmentError::BadHeader(_))
        ));
        assert!(matches!(
            Dna::from_fasta(">a\nACGT\n>b\nACG\n"),
            Err(AlignmentError::RaggedRows { .. })
        ));
        assert!(matches!(
            Dna::from_fasta(">\nACGT\n>b\nACGT\n"),
            Err(AlignmentError::BadHeader(_))
        ));
    }

    #[test]
    fn synthetic_is_deterministic_in_seed() {
        let a = Alignment::synthetic(8, 200, &Jc69, 0.1, 7);
        let b = Alignment::synthetic(8, 200, &Jc69, 0.1, 7);
        let c = Alignment::synthetic(8, 200, &Jc69, 0.1, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.n_taxa(), 8);
        assert_eq!(a.n_sites(), 200);
    }

    #[test]
    fn synthetic_42_sc_matches_paper_shape() {
        let a = Alignment::synthetic_42_sc(&Jc69, 42);
        assert_eq!(a.n_taxa(), 42);
        assert_eq!(a.n_sites(), 1167);
    }

    #[test]
    fn synthetic_sequences_are_related_not_identical() {
        let a = Alignment::synthetic(6, 500, &Jc69, 0.08, 3);
        // Any two sequences should agree on much more than the 25% random
        // baseline but less than 100%.
        for i in 0..a.n_taxa() {
            for j in (i + 1)..a.n_taxa() {
                let same = (0..a.n_sites()).filter(|&s| a.code(i, s) == a.code(j, s)).count();
                let frac = same as f64 / a.n_sites() as f64;
                assert!(frac > 0.5, "taxa {i},{j} only {frac} identical — no signal");
                assert!(frac < 1.0, "taxa {i},{j} identical — no divergence");
            }
        }
    }

    #[test]
    fn pattern_compression_preserves_counts() {
        let a = toy();
        let p = PatternAlignment::compress(&a);
        assert_eq!(p.n_taxa(), 4);
        assert_eq!(p.n_sites(), 6);
        assert!(p.n_patterns() <= 6);
        let total: u32 = p.weights().iter().sum();
        assert_eq!(total as usize, a.n_sites());
        // Every column maps to a pattern with matching masks.
        for (site, &pat) in p.column_pattern().iter().enumerate() {
            for t in 0..4 {
                assert_eq!(p.code(t, pat), a.code(t, site));
            }
        }
    }

    #[test]
    fn duplicate_columns_share_a_pattern() {
        let a = Dna::from_strings(&[("a", "AAAA"), ("b", "CCCC"), ("c", "GGGG")]).unwrap();
        let p = PatternAlignment::compress(&a);
        assert_eq!(p.n_patterns(), 1);
        assert_eq!(p.weights(), &[4]);
    }

    #[test]
    fn with_weights_replaces_weights_only() {
        let p = PatternAlignment::compress(&toy());
        let w = vec![1u32; p.n_patterns()];
        let q = p.with_weights(w.clone());
        assert_eq!(q.weights(), &w[..]);
        assert_eq!(q.n_patterns(), p.n_patterns());
    }

    #[test]
    fn with_weights_drops_zero_weight_patterns_in_order() {
        let p = PatternAlignment::compress(&toy());
        assert_eq!(p.n_patterns(), 6);
        let q = p.with_weights(vec![0, 3, 0, 1, 2, 0]);
        assert_eq!(q.n_patterns(), 3);
        assert_eq!(q.weights(), &[3, 1, 2]);
        assert_eq!(q.column_pattern(), &[0, 0, 0, 1, 2, 2]);
        assert_eq!(q.n_sites(), 6);
        for (i, src) in [1, 3, 4].into_iter().enumerate() {
            for t in 0..p.n_taxa() {
                assert_eq!(q.code(t, i), p.code(t, src));
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn with_weights_length_checked() {
        let p = PatternAlignment::compress(&toy());
        let _ = p.with_weights(vec![1u32; p.n_patterns() + 1]);
    }
}
