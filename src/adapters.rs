//! Adapters feeding the `phylo` likelihood kernels through the multigrain
//! runtime — the workspace's equivalent of RAxML's off-loaded SPE module.
//!
//! The paper ships `newview`, `evaluate` and `makenewz` as **one** SPE
//! module so that nothing nested inside the other two crosses the PPE↔SPE
//! boundary (§5.1). Here that is [`TraversalBody`], the one [`LoopBody`] of
//! this module: a post-order plan of tip and `newview` ops ending in a
//! terminal — the Figure-3 `evaluate` sum, or the whole Newton iteration of
//! `makenewz` over the edge's [`EdgeTable`] — which every chunk runs on its
//! own range of site patterns, so one off-load carries a traversal and
//! everything done at its edge, not a kernel call.
//!
//! [`OffloadedEngine`] records that plan from the one tree walk
//! (`phylo::traversal`) and ships it when the terminal arrives. It is a
//! [`phylo::search::ScoringEngine`], so the *same* hill-climbing search
//! that runs directly on the host can run with every traversal off-loaded
//! to virtual SPEs and work-shared at whatever loop degree the scheduler
//! (EDTLP / static hybrid / MGPS) currently dictates.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use mgps_runtime::native::{LoopBody, LoopSite, ProcessCtx, SpeContext};
use mgps_runtime::policy::KernelKind;
use phylo::alignment::PatternAlignment;
use phylo::likelihood::{Clv, ClvArena, EdgeTable, LikelihoodEngine, Newton, Operand};
use phylo::model::SubstModel;
use phylo::search::ScoringEngine;
use phylo::traversal::{self, Kernels};
use phylo::tree::Tree;

/// Loop-site id of traversals ending in `evaluate()`.
pub const SITE_EVALUATE: LoopSite = LoopSite(1);
/// Loop-site id of traversals ending in `makenewz()`.
pub const SITE_DERIV: LoopSite = LoopSite(3);

/// One step of a traversal plan. A plan is in post-order: an op's operands
/// are indices of earlier ops, and each op is the operand of at most one
/// later op or of the terminal.
#[derive(Debug, Clone)]
pub enum TraversalOp {
    /// The tip of `taxon`, read from the alignment by the kernels that
    /// consume it; it takes no piece.
    Tip {
        /// Taxon index in the alignment.
        taxon: usize,
    },
    /// Felsenstein pruning of two earlier ops across their branches.
    Newview {
        /// Index of the left child's op.
        left: usize,
        /// Left branch length.
        t_left: f64,
        /// Index of the right child's op.
        right: usize,
        /// Right branch length.
        t_right: f64,
    },
}

/// A chunk's working set of range-sized pieces: taken from the shared
/// arena under one lock when the chunk starts, recycled locally as the
/// walk retires child pieces, handed back under one lock when it ends.
struct Stash<'a> {
    arena: &'a Mutex<ClvArena>,
    free: Vec<Clv>,
}

impl Stash<'_> {
    fn take(&mut self) -> Clv {
        self.free.pop().expect("the stash was filled with every piece the walk holds at once")
    }

    /// Take back whatever pieces `ops` hold.
    fn recycle(&mut self, ops: [Operand<Clv>; 2]) {
        for op in ops {
            if let Operand::Clv(piece) = op {
                self.free.push(piece);
            }
        }
    }
}

impl Drop for Stash<'_> {
    fn drop(&mut self) {
        if self.free.is_empty() {
            return;
        }
        // Not `lock`: a panicking chunk must not abort in its unwind.
        if let Ok(mut arena) = self.arena.lock() {
            arena.extend(self.free.drain(..));
        }
    }
}

fn lock<T>(shared: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    shared.lock().expect("no thread panics while holding an adapter lock")
}

/// What one chunk of a [`TraversalBody`] returns, and — merged — what the
/// off-load does.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Partial {
    /// The terminal's sums over the chunk's range: `(lnL, 0)` of an
    /// `evaluate`, `(d1, d2)` of one Newton round at the current length.
    pub sums: (f64, f64),
    /// Where the Newton iteration of a `MakeNewz` traversal stopped, as
    /// `(length, steps)`: set on the merged value of its last round.
    pub stopped: Option<(f64, u64)>,
}

/// What a `MakeNewz` traversal keeps from one round of its task to the
/// next: the Newton iteration on the edge, and each chunk's piece of the
/// edge's [`EdgeTable`], keyed by the chunk's first pattern — whichever
/// thread runs that chunk next round finds it, and no chunk orients the
/// tree twice.
#[derive(Debug, Default)]
pub struct EdgeLoop {
    newton: Option<Newton>,
    tables: Vec<(usize, EdgeTable)>,
}

impl EdgeLoop {
    /// The table pieces kept so far, as `(first pattern, piece)` in no
    /// particular order; none once the iteration has stopped.
    pub fn tables(&self) -> &[(usize, EdgeTable)] {
        &self.tables
    }

    /// The iteration, started from `t0` by whoever asks first.
    fn newton(&mut self, t0: f64) -> &mut Newton {
        self.newton.get_or_insert_with(|| Newton::new(t0))
    }
}

/// A tree traversal as an off-loadable work-sharing body: the tip and
/// `newview` ops that orient the tree toward an edge, then the terminal at
/// that edge. Alignment columns are independent across the whole walk, so
/// a chunk runs *every* op on its own pattern range, into range-sized
/// pieces, and only the terminal's sums are reduced across chunks.
///
/// With a [`KernelKind::MakeNewz`] terminal the body runs one round per
/// Newton step ([`LoopBody::again`]): the first orients the tree, puts the
/// chunk's two edge operands into the eigen basis as its piece of the
/// [`EdgeTable`] — handing their pieces back to the arena at once — and sums the
/// derivatives at the starting length; each later one only sums them at
/// the length the step before it chose, over the table pieces the chunks
/// kept.
///
/// A tip op takes no piece: the kernels read it from the alignment as an
/// [`Operand::Tip`]. Pieces for `newview` ops and tables come from a
/// shared [`ClvArena`] rather than fresh allocations, and a child piece is
/// recycled as soon as its parent exists, so a chunk holds at most about a
/// tree depth of them — two at a pendant edge of four taxa — and a warm
/// edge allocates nothing. The arena holds *host-heap* buffers — the
/// simulated local-store staging accounted by `LsAlloc`/`LsFree` trace
/// events is untouched, so those events stay truthful.
pub struct TraversalBody<M> {
    /// Substitution model (cheap to copy; JC69/K80 are parameter structs).
    pub model: M,
    /// Pattern-compressed alignment.
    pub data: Arc<PatternAlignment>,
    /// The plan, in post-order. Ops the terminal's operands do not reach
    /// are never run.
    pub ops: Vec<TraversalOp>,
    /// Index of the op at one end of the terminal's edge.
    pub u: usize,
    /// Index of the op at the other end.
    pub v: usize,
    /// The terminal: [`KernelKind::Evaluate`] is the paper's Figure-3 sum,
    /// [`KernelKind::MakeNewz`] the Newton iteration on the edge's length.
    /// It is also the kind the off-load is requested as (§5.2's test is
    /// applied to what is shipped).
    pub terminal: KernelKind,
    /// Length of the terminal's edge; where `MakeNewz` starts from.
    pub t: f64,
    /// Recycled piece storage, shared with the owning engine.
    pub arena: Arc<Mutex<ClvArena>>,
    /// The `MakeNewz` state between rounds; starts out empty.
    pub edge: Mutex<EdgeLoop>,
}

impl<M: SubstModel> TraversalBody<M> {
    /// Most pieces a chunk holds at once while computing op `slot`: none
    /// for a tip, and a `newview` is left holding one of them.
    fn live(&self, slot: usize) -> usize {
        match &self.ops[slot] {
            TraversalOp::Tip { .. } => 0,
            TraversalOp::Newview { left, right, .. } => {
                let (l, r) = (self.live(*left), self.live(*right));
                // The left piece, if any, is held while the right subtree
                // runs, then both children's while the parent is computed.
                l.max(l.min(1) + r).max(l.min(1) + r.min(1) + 1)
            }
        }
    }

    /// Op `slot` over `range` as a kernel operand: a tip as is, a `newview`
    /// computed into a piece from the ops under it, children first.
    fn operand_of(
        &self,
        engine: &LikelihoodEngine<'_, M>,
        slot: usize,
        range: &Range<usize>,
        stash: &mut Stash<'_>,
    ) -> Operand<Clv> {
        match &self.ops[slot] {
            TraversalOp::Tip { taxon } => Operand::Tip(*taxon),
            TraversalOp::Newview { left, t_left, right, t_right } => {
                let l = self.operand_of(engine, *left, range, stash);
                let r = self.operand_of(engine, *right, range, stash);
                let mut piece = stash.take();
                let (l_at, r_at) = (l.as_ref(), r.as_ref());
                engine.newview_range_into(l_at, *t_left, r_at, *t_right, range.clone(), &mut piece);
                stash.recycle([l, r]);
                Operand::Clv(piece)
            }
        }
    }

    /// The edge's two end operands on `range` — the tree oriented toward
    /// the edge — and the stash their pieces came from, which takes them
    /// back when the caller is done with them.
    fn orient(
        &self,
        engine: &LikelihoodEngine<'_, M>,
        range: &Range<usize>,
    ) -> ([Operand<Clv>; 2], Stash<'_>) {
        // Every piece the walk will hold at once, under one lock; `u`'s, if
        // any, is held while `v`'s subtree runs.
        let at_u = self.live(self.u);
        let most = at_u.max(at_u.min(1) + self.live(self.v));
        let mut stash = Stash { arena: &self.arena, free: Vec::with_capacity(most) };
        {
            let mut arena = lock(&self.arena);
            stash.free.extend((0..most).map(|_| arena.take(range.len())));
        }
        let u = self.operand_of(engine, self.u, range, &mut stash);
        let v = self.operand_of(engine, self.v, range, &mut stash);
        ([u, v], stash)
    }
}

impl<M: SubstModel + Clone + 'static> LoopBody for TraversalBody<M> {
    type Acc = Partial;

    fn len(&self) -> usize {
        self.data.n_patterns()
    }

    fn identity(&self) -> Partial {
        Partial::default()
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> Partial {
        if range.is_empty() {
            return self.identity();
        }
        let engine = LikelihoodEngine::new(&self.model, &self.data);
        let sums = match self.terminal {
            KernelKind::Evaluate => {
                let ([u, v], mut stash) = self.orient(&engine, &range);
                let lnl = engine.evaluate_range(u.as_ref(), v.as_ref(), self.t, range);
                stash.recycle([u, v]);
                (lnl, 0.0)
            }
            KernelKind::MakeNewz => {
                let (t, kept) = {
                    let mut edge = lock(&self.edge);
                    let at = edge.tables.iter().position(|&(start, _)| start == range.start);
                    (edge.newton(self.t).t(), at.map(|at| edge.tables.swap_remove(at).1))
                };
                let table = kept.unwrap_or_else(|| {
                    let ([u, v], mut stash) = self.orient(&engine, &range);
                    let mut table = lock(&self.arena).take_table(range.len());
                    engine.edge_table_range(u.as_ref(), v.as_ref(), range.clone(), &mut table);
                    stash.recycle([u, v]);
                    table
                });
                let sums = engine.table_derivatives(&table, t, range.clone());
                lock(&self.edge).tables.push((range.start, table));
                sums
            }
            KernelKind::NewView => panic!("a traversal ends in an evaluate or a makenewz"),
        };
        Partial { sums, stopped: None }
    }

    fn merge(&self, a: Partial, b: Partial) -> Partial {
        Partial { sums: (a.sums.0 + b.sums.0, a.sums.1 + b.sums.1), stopped: None }
    }

    /// One Newton step on the round's derivative sums: another round at the
    /// length it chose, or — the iteration has stopped — the answer into
    /// `merged` and every kept table back to the arena.
    fn again(&self, merged: &mut Partial) -> bool {
        if self.terminal != KernelKind::MakeNewz {
            return false;
        }
        let mut edge = lock(&self.edge);
        let (d1, d2) = merged.sums;
        let newton = edge.newton(self.t);
        if newton.feed(d1, d2).is_some() {
            return true;
        }
        merged.stopped = Some((newton.t(), newton.steps() as u64));
        lock(&self.arena).extend(edge.tables.drain(..).map(|(_, table)| table));
        false
    }
}

/// The off-loading engine's handle on a CLV it has recorded but not yet
/// computed: one op of the plan under construction.
#[derive(Debug)]
pub struct ClvSlot {
    /// Ops recorded by this engine before this one, over all its plans.
    id: u64,
    /// `newview` ops at or under this one.
    newviews: u64,
}

/// A [`ScoringEngine`] that off-loads the likelihood kernels through a
/// worker process's [`ProcessCtx`] — the Rust analogue of an MPI process
/// whose `newview`/`evaluate`/`makenewz` run on SPEs.
pub struct OffloadedEngine<'a, 'rt, M> {
    ctx: &'a mut ProcessCtx<'rt>,
    model: M,
    data: Arc<PatternAlignment>,
    /// The plan being recorded; taken (so emptied) by each terminal.
    plan: Vec<TraversalOp>,
    /// Ops recorded into plans already taken: the id of `plan[0]`.
    retired: u64,
    offloads: u64,
    shipped: u64,
    /// Per-worker-process CLV and edge-table recycler, shared with the
    /// chunk bodies: pieces taken on SPE threads flow back when their chunk
    /// is done, tables when their edge's Newton iteration is.
    arena: Arc<Mutex<ClvArena>>,
}

impl<'a, 'rt, M: SubstModel + Clone + 'static> OffloadedEngine<'a, 'rt, M> {
    /// Bind a worker process to `model` and `data`.
    pub fn new(ctx: &'a mut ProcessCtx<'rt>, model: M, data: Arc<PatternAlignment>) -> Self {
        OffloadedEngine {
            ctx,
            model,
            data,
            plan: Vec::new(),
            retired: 0,
            offloads: 0,
            shipped: 0,
            arena: Arc::new(Mutex::new(ClvArena::new())),
        }
    }

    /// Kernel invocations so far — every `newview`, `evaluate` and Newton
    /// step the search needed, however they were packaged. The same search
    /// gives the same count under every scheduler.
    pub fn offloads(&self) -> u64 {
        self.offloads
    }

    /// Off-loads requested of the runtime so far: one per `evaluate` and
    /// one per optimized edge, each carrying the `newview`s that orient the
    /// tree for it and, for an edge, every Newton step taken on it.
    pub fn shipped(&self) -> u64 {
        self.shipped
    }

    /// `(hits, misses)` of the CLV arena: how many buffer requests were
    /// served from recycled storage vs fresh allocation.
    pub fn arena_stats(&self) -> (u64, u64) {
        lock(&self.arena).stats()
    }

    /// Off-loaded log-likelihood of `tree`.
    pub fn log_likelihood(&mut self, tree: &Tree) -> f64 {
        traversal::score(self, tree)
    }

    fn record(&mut self, op: TraversalOp, newviews: u64) -> ClvSlot {
        self.plan.push(op);
        ClvSlot { id: self.retired + self.plan.len() as u64 - 1, newviews }
    }

    /// Where `slot`'s op sits in the plan being recorded.
    ///
    /// # Panics
    /// Panics if `slot` was recorded before the last terminal: its plan is
    /// gone.
    fn index_of(&self, slot: &ClvSlot) -> usize {
        slot.id
            .checked_sub(self.retired)
            .map(|i| i as usize)
            .filter(|&i| i < self.plan.len())
            .expect("CLV handle outlived the traversal it was recorded in")
    }

    /// The one off-load: ship the plan with `terminal` at the edge of
    /// length `t` between `u` and `v`, and start the next plan empty — a
    /// handle dropped unconsumed neither runs nor rides along again. The
    /// `newview`s are counted here, the terminal's kernels by the caller.
    fn ship(&mut self, terminal: KernelKind, u: ClvSlot, v: ClvSlot, t: f64) -> Partial {
        let site = match terminal {
            KernelKind::Evaluate => SITE_EVALUATE,
            _ => SITE_DERIV,
        };
        let body = Arc::new(TraversalBody {
            model: self.model.clone(),
            data: Arc::clone(&self.data),
            u: self.index_of(&u),
            v: self.index_of(&v),
            terminal,
            t,
            arena: Arc::clone(&self.arena),
            ops: std::mem::take(&mut self.plan),
            edge: Mutex::default(),
        });
        self.retired += body.ops.len() as u64;
        self.offloads += u.newviews + v.newviews;
        self.shipped += 1;
        self.ctx
            .offload_adaptive(site, terminal, body)
            .expect("off-loaded likelihood traversal failed")
    }
}

/// The three kernels, recorded rather than run: `tip` and `newview` append
/// to the plan — so the plan is `traversal::clv_toward`'s own recursion,
/// written down — and the `evaluate` or `makenewz` that consumes an edge's
/// pair ships it as one off-load.
impl<M: SubstModel + Clone + 'static> Kernels for OffloadedEngine<'_, '_, M> {
    type Clv = ClvSlot;

    fn tip(&mut self, taxon: usize) -> ClvSlot {
        self.record(TraversalOp::Tip { taxon }, 0)
    }

    fn newview(&mut self, left: ClvSlot, t_left: f64, right: ClvSlot, t_right: f64) -> ClvSlot {
        let op = TraversalOp::Newview {
            left: self.index_of(&left),
            t_left,
            right: self.index_of(&right),
            t_right,
        };
        self.record(op, left.newviews + right.newviews + 1)
    }

    fn evaluate(&mut self, u: ClvSlot, v: ClvSlot, t: f64) -> f64 {
        self.offloads += 1;
        self.ship(KernelKind::Evaluate, u, v, t).sums.0
    }

    /// Off-loaded `makenewz`: the traversal and the whole Newton–Raphson
    /// iteration on the edge, one off-load.
    fn optimize_edge(&mut self, u: ClvSlot, v: ClvSlot, t0: f64) -> f64 {
        let (t, steps) = self
            .ship(KernelKind::MakeNewz, u, v, t0)
            .stopped
            .expect("a makenewz traversal returns where its Newton iteration stopped");
        self.offloads += steps;
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
    use std::time::Duration;

    use super::*;
    use mgps_runtime::native::{MgpsRuntime, RuntimeConfig};
    use mgps_runtime::policy::{SchedulerKind, SpeId};
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
        // Warm passes are served from recycled storage: every chunk piece
        // after the first traversal should be an arena hit, not a fresh
        // allocation.
        assert!(
            hits > misses,
            "arena barely recycling: {hits} hits vs {misses} misses"
        );
    }

    #[test]
    fn an_optimized_edge_leaves_no_piece_out_of_the_arena() {
        // Round one by hand, over four chunks: each puts its two edge
        // pieces into its table piece and hands both straight back, so
        // between rounds the edge holds its tables and no CLV piece.
        let data = data();
        let n = data.n_patterns();
        let arena = Arc::new(Mutex::new(ClvArena::new()));
        let body = TraversalBody {
            model: Jc69,
            data: Arc::clone(&data),
            ops: vec![
                TraversalOp::Tip { taxon: 0 },
                TraversalOp::Tip { taxon: 1 },
                TraversalOp::Tip { taxon: 2 },
                TraversalOp::Newview { left: 1, t_left: 0.1, right: 2, t_right: 0.2 },
            ],
            u: 0,
            v: 3,
            terminal: KernelKind::MakeNewz,
            t: 0.1,
            arena: Arc::clone(&arena),
            edge: Mutex::default(),
        };
        let mut spe = SpeContext::new(SpeId(usize::MAX), Duration::ZERO);
        let mut round = || {
            (0..4)
                .map(|c| body.run_chunk(n * c / 4..n * (c + 1) / 4, &mut spe))
                .reduce(|a, b| body.merge(a, b))
                .expect("four chunks")
        };
        let mut merged = round();
        assert_eq!(lock(&arena).outstanding(), (0, 4), "round one keeps four tables, no piece");
        while body.again(&mut merged) {
            merged = round();
        }
        assert!(merged.stopped.is_some());
        assert_eq!(lock(&arena).outstanding(), (0, 0));

        // Degree 4 through the engine: a chunk's table stays in the body
        // from one Newton round to the next, for whichever team member runs
        // the chunk then, and all go back when the iteration stops. Were
        // they dropped instead, every edge would allocate its four afresh;
        // recycled, allocations stop once the arena holds the few sizes the
        // balancer's tilings ask for.
        let mut tree = Tree::random(8, 0.3, &mut SmallRng::seed_from_u64(9));
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
            spes_per_loop: 4,
        }));
        let mut ctx = rt.enter_process();
        let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        for _ in 0..6 {
            ScoringEngine::optimize_branches(&mut eng, &mut tree, 1, 0.0);
        }
        let edges = 6 * tree.n_edges() as u64;
        assert!(eng.shipped() >= edges && eng.offloads() > 4 * edges);
        let (hits, misses) = eng.arena_stats();
        assert!(misses < 2 * edges, "{misses} allocations over {edges} edges: pieces are leaking");
        assert!(hits > 10 * misses, "{hits} hits vs {misses} misses");
        assert_eq!(lock(&eng.arena).outstanding(), (0, 0));
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
