//! Adapters feeding the `phylo` likelihood kernels through the multigrain
//! runtime — the workspace's equivalent of RAxML's off-loaded SPE module.
//!
//! Three [`LoopBody`] implementations correspond to the three off-loaded
//! functions of §5.1, each iterating over alignment site patterns:
//!
//! * [`EvaluateBody`] — the paper's Figure 3 loop: weighted log-likelihood
//!   terms with a global sum reduction;
//! * [`NewviewBody`] — Felsenstein pruning, producing CLV chunks that are
//!   spliced back together (the "commit modified data" of Figure 4);
//! * [`DerivBody`] — the `makenewz` derivative sums.
//!
//! [`OffloadedEngine`] assembles them into a
//! [`phylo::search::ScoringEngine`], so the *same* hill-climbing search
//! that runs directly on the host can run with every kernel off-loaded to
//! virtual SPEs and work-shared at whatever loop degree the scheduler
//! (EDTLP / static hybrid / MGPS) currently dictates.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use mgps_runtime::native::{LoopBody, LoopSite, OffloadError, ProcessCtx, SpeContext};
use mgps_runtime::policy::KernelKind;
use phylo::alignment::PatternAlignment;
use phylo::likelihood::{newton_branch_length, Clv, ClvArena, LikelihoodEngine};
use phylo::model::SubstModel;
use phylo::search::ScoringEngine;
use phylo::traversal::{self, Kernels};
use phylo::tree::Tree;

/// Loop-site id of the `evaluate()` loop.
pub const SITE_EVALUATE: LoopSite = LoopSite(1);
/// Loop-site id of the `newview()` loop.
pub const SITE_NEWVIEW: LoopSite = LoopSite(2);
/// Loop-site id of the `makenewz()` derivative loop.
pub const SITE_DERIV: LoopSite = LoopSite(3);

/// The paper's Figure-3 loop as an off-loadable work-sharing body.
pub struct EvaluateBody<M> {
    /// Substitution model (cheap to copy; JC69/K80 are parameter structs).
    pub model: M,
    /// Pattern-compressed alignment.
    pub data: Arc<PatternAlignment>,
    /// CLV at one end of the evaluation edge.
    pub u: Arc<Clv>,
    /// CLV at the other end.
    pub v: Arc<Clv>,
    /// Branch length of the evaluation edge.
    pub t: f64,
}

impl<M: SubstModel + Clone + 'static> LoopBody for EvaluateBody<M> {
    type Acc = f64;

    fn len(&self) -> usize {
        self.data.n_patterns()
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        LikelihoodEngine::new(&self.model, &self.data).evaluate_range(&self.u, &self.v, self.t, range)
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Felsenstein pruning (`newview`) as an off-loadable body. Each chunk
/// yields `(start_pattern, clv_piece)`; the merge concatenates pieces and
/// the caller splices them into a full CLV.
///
/// Chunk output buffers come from a shared [`ClvArena`] rather than fresh
/// allocations: a worker takes a piece under a brief lock, computes into it
/// lock-free, and the engine returns the piece after splicing. The arena
/// holds *host-heap* buffers — the simulated local-store staging accounted
/// by `LsAlloc`/`LsFree` trace events is untouched, so those events stay
/// truthful.
pub struct NewviewBody<M> {
    /// Substitution model.
    pub model: M,
    /// Pattern-compressed alignment.
    pub data: Arc<PatternAlignment>,
    /// Left child CLV.
    pub left: Arc<Clv>,
    /// Left branch length.
    pub t_left: f64,
    /// Right child CLV.
    pub right: Arc<Clv>,
    /// Right branch length.
    pub t_right: f64,
    /// Recycled chunk-output storage, shared with the owning engine.
    pub arena: Arc<Mutex<ClvArena>>,
}

impl<M: SubstModel + Clone + 'static> LoopBody for NewviewBody<M> {
    type Acc = Vec<(usize, Clv)>;

    fn len(&self) -> usize {
        self.data.n_patterns()
    }

    fn identity(&self) -> Self::Acc {
        Vec::new()
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> Self::Acc {
        if range.is_empty() {
            return Vec::new();
        }
        let mut piece = self.arena.lock().unwrap().take(range.len());
        LikelihoodEngine::new(&self.model, &self.data).newview_range_into(
            &self.left,
            self.t_left,
            &self.right,
            self.t_right,
            range.clone(),
            &mut piece,
        );
        vec![(range.start, piece)]
    }

    fn merge(&self, mut a: Self::Acc, mut b: Self::Acc) -> Self::Acc {
        a.append(&mut b);
        a
    }
}

/// The `makenewz` derivative loop: partial `(d lnL/dt, d² lnL/dt²)` sums.
pub struct DerivBody<M> {
    /// Substitution model.
    pub model: M,
    /// Pattern-compressed alignment.
    pub data: Arc<PatternAlignment>,
    /// CLV at one end of the branch being optimized.
    pub u: Arc<Clv>,
    /// CLV at the other end.
    pub v: Arc<Clv>,
    /// Current branch length.
    pub t: f64,
}

impl<M: SubstModel + Clone + 'static> LoopBody for DerivBody<M> {
    type Acc = (f64, f64);

    fn len(&self) -> usize {
        self.data.n_patterns()
    }

    fn identity(&self) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> (f64, f64) {
        LikelihoodEngine::new(&self.model, &self.data).lnl_derivatives_range(&self.u, &self.v, self.t, range)
    }

    fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        (a.0 + b.0, a.1 + b.1)
    }
}

/// A [`ScoringEngine`] that off-loads every likelihood kernel through a
/// worker process's [`ProcessCtx`] — the Rust analogue of an MPI process
/// whose `newview`/`evaluate`/`makenewz` run on SPEs.
pub struct OffloadedEngine<'a, 'rt, M> {
    ctx: &'a mut ProcessCtx<'rt>,
    model: M,
    data: Arc<PatternAlignment>,
    offloads: u64,
    /// Per-worker-process CLV recycler. Shared (briefly) with chunk bodies
    /// so piece buffers taken on SPE threads flow back after splicing.
    arena: Arc<Mutex<ClvArena>>,
}

impl<'a, 'rt, M: SubstModel + Clone + 'static> OffloadedEngine<'a, 'rt, M> {
    /// Bind a worker process to `model` and `data`.
    pub fn new(ctx: &'a mut ProcessCtx<'rt>, model: M, data: Arc<PatternAlignment>) -> Self {
        OffloadedEngine {
            ctx,
            model,
            data,
            offloads: 0,
            arena: Arc::new(Mutex::new(ClvArena::new())),
        }
    }

    /// Kernels off-loaded so far.
    pub fn offloads(&self) -> u64 {
        self.offloads
    }

    /// `(hits, misses)` of the CLV arena: how many buffer requests were
    /// served from recycled storage vs fresh allocation.
    pub fn arena_stats(&self) -> (u64, u64) {
        self.arena.lock().unwrap().stats()
    }

    /// Return a CLV to the arena if this was the last reference to it.
    /// Opportunistic: a still-shared CLV is simply dropped by its other
    /// holders later.
    fn reclaim(&self, clv: Arc<Clv>) {
        if let Some(clv) = Arc::into_inner(clv) {
            self.arena.lock().unwrap().put(clv);
        }
    }

    fn unwrap_offload<T>(r: Result<T, OffloadError>) -> T {
        r.expect("off-loaded likelihood kernel panicked")
    }

    /// Off-loaded log-likelihood of `tree`.
    pub fn log_likelihood(&mut self, tree: &Tree) -> f64 {
        traversal::score(self, tree)
    }
}

/// The three kernels as off-loads (one per `newview`, one per `evaluate`,
/// one per Newton iteration of `makenewz` — exactly RAxML's call pattern),
/// over arena-recycled CLVs: a kernel's operands go back to the arena as
/// soon as it has consumed them.
impl<M: SubstModel + Clone + 'static> Kernels for OffloadedEngine<'_, '_, M> {
    type Clv = Arc<Clv>;

    fn tip(&mut self, taxon: usize) -> Arc<Clv> {
        let mut clv = self.arena.lock().unwrap().take(self.data.n_patterns());
        LikelihoodEngine::new(&self.model, &self.data).tip_clv_into(taxon, &mut clv);
        Arc::new(clv)
    }

    fn newview(&mut self, left: Arc<Clv>, t_left: f64, right: Arc<Clv>, t_right: f64) -> Arc<Clv> {
        self.offloads += 1;
        let n = self.data.n_patterns();
        let body = Arc::new(NewviewBody {
            model: self.model.clone(),
            data: Arc::clone(&self.data),
            left: Arc::clone(&left),
            t_left,
            right: Arc::clone(&right),
            t_right,
            arena: Arc::clone(&self.arena),
        });
        let mut pieces =
            Self::unwrap_offload(self.ctx.offload_adaptive(SITE_NEWVIEW, KernelKind::NewView, body));
        pieces.sort_by_key(|&(start, _)| start);
        // The splice target comes from the arena with unspecified contents,
        // so the pieces must tile 0..n exactly — no gap may survive.
        let mut out = self.arena.lock().unwrap().take(n);
        let mut covered = 0;
        for (start, piece) in &pieces {
            assert_eq!(
                *start,
                covered,
                "newview pieces leave a gap at pattern {covered} (next piece starts at {start})"
            );
            out.splice(*start, piece);
            covered += piece.n_patterns();
        }
        assert_eq!(covered, n, "newview pieces cover {covered} of {n} patterns");
        let mut arena = self.arena.lock().unwrap();
        for (_, piece) in pieces {
            arena.put(piece);
        }
        drop(arena);
        // The children were consumed by this newview; recycle their storage
        // when nothing else (tests, the evaluate edge) still holds them.
        self.reclaim(left);
        self.reclaim(right);
        Arc::new(out)
    }

    fn evaluate(&mut self, u: Arc<Clv>, v: Arc<Clv>, t: f64) -> f64 {
        self.offloads += 1;
        let body = Arc::new(EvaluateBody {
            model: self.model.clone(),
            data: Arc::clone(&self.data),
            u: Arc::clone(&u),
            v: Arc::clone(&v),
            t,
        });
        let lnl = Self::unwrap_offload(self.ctx.offload_adaptive(
            SITE_EVALUATE,
            KernelKind::Evaluate,
            body,
        ));
        self.reclaim(u);
        self.reclaim(v);
        lnl
    }

    /// Off-loaded `makenewz`: Newton–Raphson branch-length optimization
    /// with the derivative loop work-shared per iteration.
    fn optimize_edge(&mut self, u: Arc<Clv>, v: Arc<Clv>, t0: f64) -> f64 {
        let t = newton_branch_length(t0, |t| {
            self.offloads += 1;
            let body = Arc::new(DerivBody {
                model: self.model.clone(),
                data: Arc::clone(&self.data),
                u: Arc::clone(&u),
                v: Arc::clone(&v),
                t,
            });
            Self::unwrap_offload(self.ctx.offload_adaptive(SITE_DERIV, KernelKind::MakeNewz, body))
        });
        self.reclaim(u);
        self.reclaim(v);
        t
    }
}

impl<M: SubstModel + Clone + 'static> ScoringEngine for OffloadedEngine<'_, '_, M> {
    fn score(&mut self, tree: &Tree) -> f64 {
        self.log_likelihood(tree)
    }

    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        traversal::optimize_branches(self, tree, max_passes, epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::native::{MgpsRuntime, RuntimeConfig};
    use mgps_runtime::policy::SchedulerKind;
    use phylo::alignment::Alignment;
    use phylo::model::Jc69;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> Arc<PatternAlignment> {
        Arc::new(PatternAlignment::compress(&Alignment::synthetic(8, 120, &Jc69, 0.1, 11)))
    }

    #[test]
    fn offloaded_log_likelihood_matches_direct() {
        let data = data();
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = Tree::random(8, 0.12, &mut rng);
        let want = direct.log_likelihood(&tree);

        for sched in [
            SchedulerKind::Edtlp,
            SchedulerKind::StaticHybrid { spes_per_loop: 4 },
            SchedulerKind::Mgps,
        ] {
            let rt = MgpsRuntime::new(RuntimeConfig::cell(sched));
            let mut ctx = rt.enter_process();
            let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
            let got = eng.log_likelihood(&tree);
            assert!(
                (got - want).abs() < 1e-9,
                "{sched:?}: offloaded {got} vs direct {want}"
            );
            assert!(eng.offloads() > 0);
        }
    }

    #[test]
    fn offloaded_branch_optimization_matches_direct() {
        let data = data();
        let mut rng = SmallRng::seed_from_u64(9);
        let tree0 = Tree::random(8, 0.3, &mut rng);

        let mut t_direct = tree0.clone();
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let lnl_direct = direct.optimize_branches(&mut t_direct, 3, 1e-6);

        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
            spes_per_loop: 2,
        }));
        let mut ctx = rt.enter_process();
        let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        let mut t_off = tree0.clone();
        let lnl_off = ScoringEngine::optimize_branches(&mut eng, &mut t_off, 3, 1e-6);

        assert!(
            (lnl_direct - lnl_off).abs() < 1e-6,
            "direct {lnl_direct} vs offloaded {lnl_off}"
        );
        for e in t_direct.edge_ids() {
            assert!(
                (t_direct.length(e) - t_off.length(e)).abs() < 1e-6,
                "branch {e:?} diverged"
            );
        }
    }

    #[test]
    fn arena_recycles_clvs_across_passes_without_changing_results() {
        let data = data();
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = Tree::random(8, 0.12, &mut rng);
        let want = direct.log_likelihood(&tree);

        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        let mut ctx = rt.enter_process();
        let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        for pass in 0..4 {
            let got = eng.log_likelihood(&tree);
            assert!((got - want).abs() < 1e-9, "pass {pass}: {got} vs direct {want}");
        }
        let (hits, misses) = eng.arena_stats();
        // Warm passes are served from recycled storage: every tip CLV,
        // splice target, and chunk piece after the first traversal should
        // be an arena hit, not a fresh allocation.
        assert!(
            hits > misses,
            "arena barely recycling: {hits} hits vs {misses} misses"
        );
    }

    #[test]
    fn offloaded_search_runs_end_to_end() {
        let data = data();
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Mgps));
        let mut ctx = rt.enter_process();
        let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        let cfg = phylo::search::SearchConfig {
            max_rounds: 2,
            branch_passes: 1,
            epsilon: 1e-3,
            initial_branch: 0.1,
            restarts: 1,
        };
        let r = phylo::search::hill_climb_with(&mut eng, data.n_taxa(), &cfg, 3);
        r.tree.validate().unwrap();
        assert!(r.lnl.is_finite() && r.lnl < 0.0);
    }

    #[test]
    fn offloaded_search_matches_direct_search() {
        let data = data();
        let cfg = phylo::search::SearchConfig {
            max_rounds: 2,
            branch_passes: 1,
            epsilon: 1e-3,
            initial_branch: 0.1,
            restarts: 1,
        };
        let direct = phylo::search::hill_climb(&Jc69, &data, &cfg, 21);

        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        let mut ctx = rt.enter_process();
        let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        let off = phylo::search::hill_climb_with(&mut eng, data.n_taxa(), &cfg, 21);

        assert!((direct.lnl - off.lnl).abs() < 1e-6, "{} vs {}", direct.lnl, off.lnl);
        assert_eq!(direct.tree.bipartitions(), off.tree.bipartitions());
    }
}
