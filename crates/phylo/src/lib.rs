//! # `phylo` — maximum-likelihood phylogenetic inference
//!
//! A self-contained reimplementation of the computational core of
//! RAxML-VI-HPC, the application the PPoPP 2007 multigrain-parallelization
//! paper evaluates. It provides real (not mocked) versions of the three
//! kernels the paper off-loads to SPEs — `newview`, `evaluate`, `makenewz`
//! — plus everything around them: DNA and protein alignments with
//! site-pattern compression, substitution models over 4 or 20 states
//! (JC69, K80 and GTR for DNA, Poisson for protein, each optionally +Γ),
//! unrooted binary trees with NNI and SPR rearrangement, randomized
//! hill-climbing search, and non-parametric bootstrapping. One kernel body
//! serves every model.
//!
//! The crate is deliberately independent of the scheduling runtime; the
//! workspace root provides `LoopBody` adapters that feed these kernels to
//! the multigrain scheduler.
//!
//! ```
//! use phylo::prelude::*;
//!
//! let aln = Alignment::synthetic(8, 200, &Jc69, 0.1, 42);
//! let data = PatternAlignment::compress(&aln);
//! let result = hill_climb(&Jc69, &data, &SearchConfig::default(), 7);
//! assert!(result.lnl.is_finite() && result.lnl < 0.0);
//! ```

#![warn(missing_docs)]

pub mod alignment;
pub mod bootstrap;
pub mod dna;
pub mod io;
pub mod likelihood;
pub mod linalg;
pub mod mixture;
pub mod model;
pub mod protein;
#[cfg(test)]
mod reference;
pub mod search;
pub mod special;
pub mod spr;
pub mod traversal;
pub mod tree;

/// Convenient glob import.
pub mod prelude {
    pub use crate::alignment::{Alignment, AlignmentError, PatternAlignment};
    pub use crate::bootstrap::{bootstrap_replicate, bootstrap_weights, support_values};
    pub use crate::dna::{StateMask, STATES};
    pub use crate::io::{parse_newick, NewickError};
    pub use crate::likelihood::{Clv, ClvArena, LikelihoodEngine, Operand};
    pub use crate::mixture::{estimate_alpha, Gamma};
pub use crate::model::{Gtr, Jc69, Matrix, SubstModel, K80};
    pub use crate::protein::{PoissonAa, AA_STATES};
pub use crate::special::discrete_gamma_rates;
    pub use crate::search::{
        hill_climb, hill_climb_with, spr_hill_climb, spr_hill_climb_with, ScoringEngine,
        SearchConfig, SearchResult,
    };
    pub use crate::spr::SprMove;
pub use crate::tree::{EdgeId, NniMove, Tree};
}
