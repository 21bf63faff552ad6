//! Randomized hill-climbing tree search.
//!
//! RAxML's rapid hill climbing alternates branch-length optimization with
//! topological rearrangements, starting each independent inference from a
//! distinct randomized tree (§3.1). We implement the same skeleton with
//! nearest-neighbor interchanges: optimize branches, sweep all internal
//! edges trying both NNI alternatives, keep any improvement, repeat until a
//! sweep finds nothing better.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::alignment::PatternAlignment;
use crate::likelihood::LikelihoodEngine;
use crate::model::SubstModel;
use crate::traversal::{self, Kernels};
use crate::tree::Tree;

/// Anything that can score trees and optimize their branch lengths.
///
/// [`LikelihoodEngine`] is the direct implementation; the workspace's
/// multigrain runtime provides an implementation that off-loads the
/// likelihood kernels to virtual SPEs, letting the *same* search code run
/// either way (exactly the paper's dual PPE/SPE code-path arrangement).
pub trait ScoringEngine {
    /// Log-likelihood of `tree`.
    fn score(&mut self, tree: &Tree) -> f64;
    /// Optimize all branch lengths in place; returns the final score.
    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64;
}

/// Every engine whose shared borrow is a [`Kernels`] provider — the direct
/// engine under any model, DNA or protein, single-rate or +Γ — scores
/// through the one traversal.
impl<E> ScoringEngine for E
where
    for<'e> &'e E: Kernels,
{
    fn score(&mut self, tree: &Tree) -> f64 {
        traversal::score(&mut &*self, tree)
    }
    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        traversal::optimize_branches(&mut &*self, tree, max_passes, epsilon)
    }
}

/// Tuning knobs for the hill climber.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum NNI improvement sweeps.
    pub max_rounds: usize,
    /// Branch-length optimization passes between sweeps.
    pub branch_passes: usize,
    /// Convergence threshold on the log-likelihood.
    pub epsilon: f64,
    /// Initial branch length for random starting trees.
    pub initial_branch: f64,
    /// Independent randomized starts per search (RAxML runs several
    /// inferences from distinct starting trees; greedy climbs from one
    /// random tree routinely stall in local optima).
    pub restarts: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_rounds: 10,
            branch_passes: 2,
            epsilon: 1e-4,
            initial_branch: 0.1,
            restarts: 3,
        }
    }
}

/// The outcome of one inference (tree search).
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best tree found.
    pub tree: Tree,
    /// Its log-likelihood.
    pub lnl: f64,
    /// NNI moves accepted.
    pub accepted_moves: usize,
    /// Improvement sweeps executed.
    pub rounds: usize,
}

/// Run one randomized hill-climbing search over `data` under `model`,
/// deterministic in `seed`.
pub fn hill_climb<M: SubstModel<S>, const S: usize>(
    model: &M,
    data: &PatternAlignment<S>,
    cfg: &SearchConfig,
    seed: u64,
) -> SearchResult {
    let mut engine = LikelihoodEngine::new(model, data);
    hill_climb_with(&mut engine, data.n_taxa(), cfg, seed)
}

/// The engine-generic hill climber: identical policy to [`hill_climb`],
/// but scoring through any [`ScoringEngine`]. Runs `cfg.restarts`
/// independent climbs from distinct random starting trees (all drawn from
/// the one seeded stream, so results stay deterministic in `seed`) and
/// returns the best.
pub fn hill_climb_with(
    engine: &mut impl ScoringEngine,
    n_taxa: usize,
    cfg: &SearchConfig,
    seed: u64,
) -> SearchResult {
    climb(engine, n_taxa, cfg, seed, |c| {
        let mut improved = false;
        for edge in c.tree.internal_edges() {
            for variant in 0..2u8 {
                if c.try_move(|t| t.nni(edge, variant), Tree::undo_nni) {
                    improved = true;
                    // Keep the move; continue from the new topology.
                    break;
                }
            }
        }
        improved
    })
}

/// SPR-based hill climbing: like [`hill_climb_with`] but rearranging with
/// radius-limited subtree pruning and regrafting — RAxML's actual move set,
/// able to escape local optima NNI cannot.
pub fn spr_hill_climb_with(
    engine: &mut impl ScoringEngine,
    n_taxa: usize,
    cfg: &SearchConfig,
    radius: usize,
    seed: u64,
) -> SearchResult {
    climb(engine, n_taxa, cfg, seed, |c| {
        let mut improved = false;
        'prune: for prune in c.tree.edge_ids().collect::<Vec<_>>() {
            let (pa, pb) = c.tree.endpoints(prune);
            for root in [pa, pb] {
                for target in c.tree.spr_targets(prune, root, radius) {
                    if c.try_move(|t| t.spr(prune, root, target), Tree::undo_spr) {
                        improved = true;
                        // Keep the move; this prune edge's neighborhood
                        // changed, so move on to the next one.
                        continue 'prune;
                    }
                }
            }
        }
        improved
    })
}

/// One greedy climb in progress: the current tree, its score, and the
/// engine that judges candidate moves.
struct Climb<'a, E> {
    engine: &'a mut E,
    cfg: &'a SearchConfig,
    tree: Tree,
    lnl: f64,
    accepted: usize,
}

impl<E: ScoringEngine> Climb<'_, E> {
    /// Apply a move, re-optimize every branch, and keep the move if the
    /// score improved by more than `epsilon`; otherwise undo it. Returns
    /// whether it was kept.
    fn try_move<U>(
        &mut self,
        apply: impl FnOnce(&mut Tree) -> U,
        undo: impl FnOnce(&mut Tree, U),
    ) -> bool {
        // Rejection must restore branch lengths too: candidate
        // evaluation re-optimizes every branch, and undoing only
        // the topology would leave the tree in a mongrel state.
        let saved_lengths: Vec<f64> = self.tree.edge_ids().map(|e| self.tree.length(e)).collect();
        let mv = apply(&mut self.tree);
        let candidate =
            self.engine.optimize_branches(&mut self.tree, self.cfg.branch_passes, self.cfg.epsilon);
        if candidate > self.lnl + self.cfg.epsilon {
            self.lnl = candidate;
            self.accepted += 1;
            return true;
        }
        undo(&mut self.tree, mv);
        for (e, len) in self.tree.edge_ids().zip(saved_lengths) {
            self.tree.set_length(e, len);
        }
        false
    }
}

/// The climb skeleton both move sets share: `cfg.restarts` greedy climbs
/// from fresh random trees, each alternating branch optimization with
/// `sweep` — one pass over the move set's candidates, returning whether
/// any was kept — until a sweep keeps nothing; the best climb wins.
fn climb<E: ScoringEngine>(
    engine: &mut E,
    n_taxa: usize,
    cfg: &SearchConfig,
    seed: u64,
    sweep: impl Fn(&mut Climb<'_, E>) -> bool,
) -> SearchResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best: Option<SearchResult> = None;
    for _ in 0..cfg.restarts.max(1) {
        let mut tree = Tree::random(n_taxa, cfg.initial_branch, &mut rng);
        let lnl = engine.optimize_branches(&mut tree, cfg.branch_passes, cfg.epsilon);
        let mut c = Climb { engine: &mut *engine, cfg, tree, lnl, accepted: 0 };
        let mut rounds = 0usize;
        for _ in 0..cfg.max_rounds {
            rounds += 1;
            if !sweep(&mut c) {
                break;
            }
        }
        // Final tightening.
        let Climb { mut tree, accepted, .. } = c;
        let lnl = engine.optimize_branches(&mut tree, cfg.branch_passes * 2, cfg.epsilon / 10.0);
        if best.as_ref().is_none_or(|b| lnl > b.lnl) {
            best = Some(SearchResult { tree, lnl, accepted_moves: accepted, rounds });
        }
    }
    best.expect("at least one restart runs")
}

/// SPR hill climbing with the default (direct) likelihood engine.
pub fn spr_hill_climb<M: SubstModel<S>, const S: usize>(
    model: &M,
    data: &PatternAlignment<S>,
    cfg: &SearchConfig,
    radius: usize,
    seed: u64,
) -> SearchResult {
    let mut engine = LikelihoodEngine::new(model, data);
    spr_hill_climb_with(&mut engine, data.n_taxa(), cfg, radius, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::Alignment;
    use crate::model::Jc69;

    /// Small, strongly structured data so the search has a clear target.
    fn structured_data() -> PatternAlignment {
        // Two clearly separated clades: (a,b) vs (c,d) — 30 sites of signal.
        let a = Alignment::from_strings(&[
            ("a", "AAAAAAAAAACCCCCCCCCCGGGGGGGGGG"),
            ("b", "AAAAAAAAAACCCCCCCCCCGGGGGGGGGG"),
            ("c", "TTTTTTTTTTGGGGGGGGGGAAAAAAAAAA"),
            ("d", "TTTTTTTTTTGGGGGGGGGGAAAAAAAAAA"),
            ("e", "TTTTTTTTTTGGGGGGGGGGCCCCCCCCCC"),
        ])
        .unwrap();
        PatternAlignment::compress(&a)
    }

    #[test]
    fn search_is_deterministic_in_seed() {
        let data = structured_data();
        let r1 = hill_climb(&Jc69, &data, &SearchConfig::default(), 42);
        let r2 = hill_climb(&Jc69, &data, &SearchConfig::default(), 42);
        assert_eq!(r1.lnl, r2.lnl);
        assert_eq!(r1.tree.bipartitions(), r2.tree.bipartitions());
    }

    #[test]
    fn different_starts_converge_to_comparable_likelihoods() {
        let data = structured_data();
        let scores: Vec<f64> = (0..4)
            .map(|seed| hill_climb(&Jc69, &data, &SearchConfig::default(), seed).lnl)
            .collect();
        let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let worst = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            best - worst < 5.0,
            "searches diverged wildly: best {best}, worst {worst}"
        );
    }

    #[test]
    fn search_recovers_the_obvious_clade() {
        let data = structured_data();
        let r = hill_climb(&Jc69, &data, &SearchConfig::default(), 1);
        // (a,b) must form a clade: some bipartition separates {0,1} from
        // the rest.
        let found = r.tree.bipartitions().iter().any(|side| {
            let ab: Vec<usize> = side
                .iter()
                .enumerate()
                .filter_map(|(i, &s)| s.then_some(i))
                .collect();
            ab == vec![0, 1] || ab == vec![0, 2, 3, 4].into_iter().collect::<Vec<_>>()
        });
        assert!(found, "search failed to recover the (a,b) clade: {:?}", r.tree.bipartitions());
    }

    #[test]
    fn search_beats_its_starting_tree() {
        let data = PatternAlignment::compress(&Alignment::synthetic(10, 150, &Jc69, 0.1, 33));
        let cfg = SearchConfig::default();
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(99);
        let start = Tree::random(10, cfg.initial_branch, &mut rng);
        let start_lnl = engine.log_likelihood(&start);
        let r = hill_climb(&Jc69, &data, &cfg, 99);
        assert!(
            r.lnl > start_lnl,
            "search result {} should beat unoptimized random start {}",
            r.lnl,
            start_lnl
        );
        r.tree.validate().unwrap();
    }

    #[test]
    fn spr_search_is_deterministic_and_valid() {
        let data = structured_data();
        let cfg = SearchConfig { max_rounds: 4, branch_passes: 1, epsilon: 1e-3, initial_branch: 0.1, restarts: 1 };
        let a = spr_hill_climb(&Jc69, &data, &cfg, 3, 11);
        let b = spr_hill_climb(&Jc69, &data, &cfg, 3, 11);
        assert_eq!(a.lnl, b.lnl);
        a.tree.validate().unwrap();
        assert!(a.lnl.is_finite() && a.lnl < 0.0);
    }

    #[test]
    fn spr_matches_or_beats_nni_from_the_same_start() {
        let data = PatternAlignment::compress(&Alignment::synthetic(8, 120, &Jc69, 0.12, 55));
        let cfg = SearchConfig { max_rounds: 4, branch_passes: 1, epsilon: 1e-3, initial_branch: 0.1, restarts: 1 };
        for seed in [1u64, 2] {
            let nni = hill_climb(&Jc69, &data, &cfg, seed);
            let spr = spr_hill_climb(&Jc69, &data, &cfg, 3, seed);
            assert!(
                spr.lnl >= nni.lnl - 0.5,
                "seed {seed}: SPR {} should not lose clearly to NNI {}",
                spr.lnl,
                nni.lnl
            );
        }
    }

    #[test]
    fn result_tree_is_structurally_valid() {
        let data = PatternAlignment::compress(&Alignment::synthetic(8, 100, &Jc69, 0.12, 5));
        let r = hill_climb(&Jc69, &data, &SearchConfig::default(), 7);
        r.tree.validate().unwrap();
        assert!(r.lnl.is_finite());
        assert!(r.rounds >= 1);
    }
}
