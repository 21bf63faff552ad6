//! The one tree traversal under every likelihood engine.
//!
//! RAxML drives its three kernels (`newview`, `evaluate`, `makenewz`,
//! §5.1) from a single walk over the tree. [`Kernels`] is what an engine
//! supplies — the kernels over its own CLV type — and the functions here
//! are that walk: the post-order recursion, the score at an edge, the
//! every-edge optimization pass and the convergence loop around it. The
//! direct DNA engine, the Γ mixture, the protein engine and the workspace's
//! off-loading engine all run through them, so the floating-point order of
//! a tree evaluation is decided in this file only.

use crate::tree::{EdgeId, Tree};

/// The likelihood kernels of one engine, over its own operand
/// representation.
///
/// An operand is whatever the engine hands from one kernel to the next. A
/// tip need not be a buffer: the DNA engines' operand is a tip by taxon or
/// a computed CLV (`likelihood::Operand`), and their kernels read a tip
/// straight from the alignment. The kernels consume their operands: a
/// child is dead once its parent exists, and an edge's pair is dead once
/// the edge is scored or optimized — which is where an engine that
/// recycles CLV storage takes it back. Methods take `&mut self` because an
/// off-loading engine counts and dispatches; the direct engines implement
/// the trait on a shared borrow.
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
    let mut children: Vec<_> =
        tree.neighbors(node).iter().filter(|&&(n, _)| n != parent).copied().collect();
    assert_eq!(children.len(), 2, "internal nodes have exactly two children seen from a parent");
    // Deterministic order for reproducible FP results.
    children.sort_by_key(|&(n, _)| n);
    let (c1, e1) = children[0];
    let (c2, e2) = children[1];
    let l1 = clv_toward(k, tree, c1, node);
    let l2 = clv_toward(k, tree, c2, node);
    k.newview(l1, tree.length(e1), l2, tree.length(e2))
}

/// The CLVs at the two ends of `edge`, each looking away from the other.
fn edge_pair<K: Kernels>(k: &mut K, tree: &Tree, edge: EdgeId) -> (K::Clv, K::Clv) {
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
    let mut last = f64::NEG_INFINITY;
    let mut lnl = score(k, tree);
    for _ in 0..max_passes {
        if (lnl - last).abs() < epsilon {
            break;
        }
        last = lnl;
        for e in tree.edge_ids().collect::<Vec<_>>() {
            let (cu, cv) = edge_pair(k, tree, e);
            let t = k.optimize_edge(cu, cv, tree.length(e));
            tree.set_length(e, t);
        }
        lnl = score(k, tree);
    }
    lnl
}
