//! The one tree traversal under every likelihood engine.
//!
//! RAxML drives its three kernels (`newview`, `evaluate`, `makenewz`,
//! §5.1) from a single walk over the tree. [`Kernels`] is what an engine
//! supplies — the kernels over its own CLV type — and the functions here
//! are that walk: the post-order recursion, the score at an edge, and
//! [`BranchPasses`], the every-edge optimization pass and the convergence
//! loop around it as a cursor any caller can resume. The direct engine
//! (DNA or protein, single-rate or +Γ) and each chunk of the workspace's
//! off-loaded search requests all run through them, so the floating-point
//! order of a tree evaluation is decided in this file only.

use crate::tree::{EdgeId, Tree};

/// The likelihood kernels of one engine, over its own operand
/// representation.
///
/// An operand is whatever the engine hands from one kernel to the next. A
/// tip need not be a buffer: the likelihood engine's operand is a tip by
/// taxon or a computed CLV (`likelihood::Operand`), and its kernels read a
/// tip straight from the alignment. The kernels consume their operands: a
/// child is dead once its parent exists, and an edge's pair is dead once
/// the edge is scored or optimized — which is where an engine that
/// recycles CLV storage takes it back. Methods take `&mut self` because a
/// provider may count calls or hold storage, as an off-loaded chunk holds
/// its pieces; the direct engines implement the trait on a shared borrow.
pub trait Kernels {
    /// An operand as this engine hands it on: a tip or a conditional
    /// likelihood vector.
    type Clv;
    /// The operand standing for the tip of `taxon`.
    fn tip(&mut self, taxon: usize) -> Self::Clv;
    /// The parent CLV of two children across branches `t_left`, `t_right`.
    fn newview(&mut self, left: Self::Clv, t_left: f64, right: Self::Clv, t_right: f64)
        -> Self::Clv;
    /// The log-likelihood at an edge of length `t` between `u` and `v`.
    fn evaluate(&mut self, u: Self::Clv, v: Self::Clv, t: f64) -> f64;
    /// The length maximizing the likelihood of the edge between `u` and
    /// `v`, starting from `t0`.
    fn optimize_edge(&mut self, u: Self::Clv, v: Self::Clv, t0: f64) -> f64;
}

/// Directional CLV of `node` seen from `parent`: the full Felsenstein
/// recursion, one `newview` per internal node, a tip as the engine's tip
/// operand.
///
/// # Panics
/// Panics unless every internal node has exactly two children seen from
/// its parent — the condition that makes the evaluation order well-defined.
pub fn clv_toward<K: Kernels>(k: &mut K, tree: &Tree, node: usize, parent: usize) -> K::Clv {
    if tree.is_tip(node) {
        return k.tip(node);
    }
    let mut children = tree.neighbors(node).iter().filter(|&&(n, _)| n != parent);
    let (Some(&a), Some(&b), None) = (children.next(), children.next(), children.next()) else {
        panic!("internal nodes have exactly two children seen from a parent");
    };
    // Deterministic order for reproducible FP results: the lower node first.
    let ((c1, e1), (c2, e2)) = if b.0 < a.0 { (b, a) } else { (a, b) };
    let l1 = clv_toward(k, tree, c1, node);
    let l2 = clv_toward(k, tree, c2, node);
    k.newview(l1, tree.length(e1), l2, tree.length(e2))
}

/// The CLVs at the two ends of `edge`, each looking away from the other.
pub fn edge_pair<K: Kernels>(k: &mut K, tree: &Tree, edge: EdgeId) -> (K::Clv, K::Clv) {
    let (a, b) = tree.endpoints(edge);
    let cu = clv_toward(k, tree, a, b);
    let cv = clv_toward(k, tree, b, a);
    (cu, cv)
}

/// The log-likelihood of `tree`, evaluated at `edge`.
pub fn score_at<K: Kernels>(k: &mut K, tree: &Tree, edge: EdgeId) -> f64 {
    let (cu, cv) = edge_pair(k, tree, edge);
    k.evaluate(cu, cv, tree.length(edge))
}

/// The log-likelihood of `tree` (evaluated at edge 0; by likelihood
/// invariance any edge gives the same value).
pub fn score<K: Kernels>(k: &mut K, tree: &Tree) -> f64 {
    score_at(k, tree, EdgeId(0))
}

/// One step of [`optimize_branches`], as a [`BranchPasses`] cursor hands
/// it out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Score the tree at this edge.
    Score(EdgeId),
    /// Optimize this edge's length, starting from the given one.
    Optimize(EdgeId, f64),
    /// Finished, with this log-likelihood.
    Done(f64),
}

/// The schedule of [`optimize_branches`] as a resumable cursor: a score,
/// then passes of every edge in id order each closed by a score, until the
/// log-likelihood improves by less than `epsilon` between passes (at most
/// `max_passes`). Whoever runs the kernels feeds each step's result back
/// with [`Self::advance`] — the direct walk in a plain loop, an off-loaded
/// search request from one round of its task to the next — so both take
/// the same steps in the same order.
#[derive(Debug, Clone)]
pub struct BranchPasses {
    step: Step,
    passes_left: usize,
    epsilon: f64,
    last: f64,
}

impl BranchPasses {
    /// The cursor at its first step, the initial score.
    pub fn new(max_passes: usize, epsilon: f64) -> BranchPasses {
        BranchPasses {
            step: Step::Score(EdgeId(0)),
            passes_left: max_passes,
            epsilon,
            last: f64::NEG_INFINITY,
        }
    }

    /// The step to run now.
    pub fn step(&self) -> Step {
        self.step
    }

    /// Feed the current step's result — a score's log-likelihood, or the
    /// optimized length of an edge, which is written into `tree` — and
    /// move to the next step.
    ///
    /// # Panics
    /// Panics once the cursor is [`Step::Done`].
    pub fn advance(&mut self, tree: &mut Tree, result: f64) -> Step {
        let converged = (result - self.last).abs() < self.epsilon;
        self.step = match self.step {
            Step::Score(_) if self.passes_left == 0 || converged => Step::Done(result),
            Step::Score(_) => {
                self.passes_left -= 1;
                self.last = result;
                optimize_from(tree, 0)
            }
            Step::Optimize(e, _) => {
                tree.set_length(e, result);
                optimize_from(tree, e.0 + 1)
            }
            Step::Done(_) => panic!("a finished optimization has no next step"),
        };
        self.step
    }
}

/// The pass's step at edge `first`, or its closing score past the last.
fn optimize_from(tree: &Tree, first: usize) -> Step {
    let e = EdgeId(first);
    if first < tree.n_edges() {
        Step::Optimize(e, tree.length(e))
    } else {
        Step::Score(EdgeId(0))
    }
}

/// Optimize branch lengths — passes of [`Kernels::optimize_edge`] over
/// every edge in id order — until the log-likelihood improves by less than
/// `epsilon` between passes (at most `max_passes`). Returns the final
/// log-likelihood.
pub fn optimize_branches<K: Kernels>(
    k: &mut K,
    tree: &mut Tree,
    max_passes: usize,
    epsilon: f64,
) -> f64 {
    let mut passes = BranchPasses::new(max_passes, epsilon);
    loop {
        let result = match passes.step() {
            Step::Score(e) => score_at(k, tree, e),
            Step::Optimize(e, t0) => {
                let (cu, cv) = edge_pair(k, tree, e);
                k.optimize_edge(cu, cv, t0)
            }
            Step::Done(lnl) => return lnl,
        };
        passes.advance(tree, result);
    }
}
