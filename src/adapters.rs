//! Adapters feeding the `phylo` likelihood kernels through the multigrain
//! runtime — the workspace's equivalent of RAxML's off-loaded SPE module.
//!
//! The paper ships `newview`, `evaluate` and `makenewz` as **one** SPE
//! module so that nothing nested inside the other two crosses the PPE↔SPE
//! boundary (§5.1). Here that is [`TraversalBody`], the one [`LoopBody`] of
//! this module: a whole search request — a score, or a branch-length
//! optimization with every pass, edge and Newton step of it — run as the
//! rounds of one task. Each round, every chunk orients the tree on its own
//! range of site patterns and runs the request's current step there; the
//! step's sums are reduced across chunks, and [`LoopBody::again`] feeds
//! them to the schedule (`phylo::traversal::BranchPasses`) and to the
//! Newton iteration. So one off-load carries a request, not a kernel call.
//!
//! [`OffloadedEngine`] ships each request as that one off-load. It is a
//! [`phylo::search::ScoringEngine`], so the *same* hill-climbing search
//! that runs directly on the host can run with every request off-loaded to
//! virtual SPEs and work-shared at whatever loop degree the scheduler
//! (EDTLP / static hybrid / MGPS) currently dictates.

use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use mgps_runtime::native::{LoopBody, LoopSite, OffloadError, ProcessCtx, SpeContext};
use mgps_runtime::policy::KernelKind;
use phylo::alignment::PatternAlignment;
use phylo::dna::STATES;
use phylo::likelihood::{Clv, ClvArena, EdgeTable, LikelihoodEngine, Newton, Operand};
use phylo::likelihood::{PerCategory, Transition};
use phylo::model::SubstModel;
use phylo::search::ScoringEngine;
use phylo::traversal::{self, BranchPasses, Kernels, Step};
use phylo::tree::Tree;

/// Loop-site id of score requests, which end in `evaluate()`.
pub const SITE_EVALUATE: LoopSite = LoopSite(1);
/// Loop-site id of branch-length optimizations, whose rounds are mostly
/// `makenewz()` steps.
pub const SITE_DERIV: LoopSite = LoopSite(3);

/// A chunk's working set of range-sized pieces: drawn from the shared
/// arena as the walk first needs each, recycled locally as the walk
/// retires child pieces, handed back under one lock when the chunk ends.
/// The arena so hands out exactly the walk's peak.
struct Stash<'a> {
    arena: &'a Mutex<ClvArena>,
    patterns: usize,
    free: Vec<Clv>,
}

impl Stash<'_> {
    fn take(&mut self) -> Clv {
        self.free.pop().unwrap_or_else(|| lock(self.arena).take(self.patterns))
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

fn lock<T>(shared: &Mutex<T>) -> MutexGuard<'_, T> {
    shared.lock().expect("no thread panics while holding an adapter lock")
}

/// The direct kernels on one chunk's pattern range, which is what a chunk
/// walks the tree with. A tip stays a tip, which the kernels read from
/// the alignment. A `newview` goes into a range-sized piece from the
/// chunk's stash, and its children's pieces go back to the stash at once.
struct Ranged<'a, 'e, M, const S: usize> {
    engine: &'e LikelihoodEngine<'e, M, S>,
    range: Range<usize>,
    stash: Stash<'a>,
    walk: &'a Walk<S>,
}

impl<M: SubstModel<S>, const S: usize> Ranged<'_, '_, M, S> {
    /// The walk's transition of a branch of length `t`.
    fn p(&self, t: f64) -> &PerCategory<Transition<S>> {
        let tree = &self.walk.tree;
        let e = tree.edge_ids().position(|e| tree.length(e).to_bits() == t.to_bits());
        &self.walk.transitions[e.expect("every length the walk reads is an edge's")]
    }
}

impl<M: SubstModel<S>, const S: usize> Kernels for Ranged<'_, '_, M, S> {
    type Clv = Operand<Clv>;

    fn tip(&mut self, taxon: usize) -> Operand<Clv> {
        Operand::Tip(taxon)
    }

    fn newview(&mut self, left: Self::Clv, t_l: f64, right: Self::Clv, t_r: f64) -> Self::Clv {
        let mut piece = self.stash.take();
        let (l, r) = (left.as_ref(), right.as_ref());
        let (p_l, p_r, range) = (self.p(t_l), self.p(t_r), self.range.clone());
        self.engine.newview_range_with(l, p_l, r, p_r, range, &mut piece);
        self.stash.recycle([left, right]);
        Operand::Clv(piece)
    }

    fn evaluate(&mut self, u: Operand<Clv>, v: Operand<Clv>, t: f64) -> f64 {
        let (p, range) = (self.p(t), self.range.clone());
        let lnl = self.engine.evaluate_range_with(u.as_ref(), v.as_ref(), p, range);
        self.stash.recycle([u, v]);
        lnl
    }

    /// Not a chunk's to run: each Newton step sums over every chunk, so
    /// it is a round of the whole task.
    fn optimize_edge(&mut self, _: Operand<Clv>, _: Operand<Clv>, _: f64) -> f64 {
        unreachable!("a chunk sums one Newton step; the task's rounds iterate")
    }
}

/// Where a request stands between rounds: written only by
/// [`LoopBody::again`], read by every chunk of a round.
struct Walk<const S: usize> {
    /// The request's own tree: the topology and the task's branch-length
    /// table, a length written once its edge's Newton iteration stops.
    tree: Tree,
    passes: BranchPasses,
    /// The iteration on the edge being optimized.
    newton: Newton,
    /// Its [`LikelihoodEngine::newton_factors`] at the length it asks for.
    factors: PerCategory<[[f64; S]; 3]>,
    /// [`LikelihoodEngine::transition`] of every edge's length, by id.
    transitions: Vec<PerCategory<Transition<S>>>,
    /// Kernel invocations of the steps finished so far.
    kernels: u64,
}

/// A search request as an off-loadable work-sharing body: the steps of
/// [`BranchPasses`] on the request's own tree, one round per score and
/// one per Newton step, under any model over `S` states (DNA by default,
/// protein at 20). Alignment columns are independent across the
/// whole walk, so a chunk runs every kernel of a step on its own pattern
/// range, into range-sized pieces, and only the step's sums are reduced
/// across chunks.
///
/// A score round orients the tree toward the edge and sums the chunk's
/// `evaluate`. An edge's first round orients the tree toward the edge and
/// puts the chunk's two edge operands into the eigen basis as its piece of
/// the [`EdgeTable`], handing their pieces back at once; it keeps that
/// piece in the body, keyed by the chunk's first pattern, so whichever
/// thread runs the chunk next round finds it. Every round of the edge sums
/// the derivatives at the length the Newton iteration asks for. When the
/// iteration stops, `again` writes the length into the tree, so the next
/// edge's `newview`s read it, and puts every kept table back.
///
/// What no pattern changes is priced once per request — a [`Transition`]
/// per edge, rebuilt when `again` writes its length, the eigen basis, the
/// Newton factors — and a chunk runs only the kernels' `_with` forms.
///
/// Pieces come from a shared [`ClvArena`] rather than fresh allocations,
/// and a child piece is recycled as soon as its parent exists, so a chunk
/// holds at most about a tree depth of them — two at four taxa — and a
/// warm request allocates nothing.
pub struct TraversalBody<M, const S: usize = STATES> {
    model: M,
    data: Arc<PatternAlignment<S>>,
    arena: Arc<Mutex<ClvArena>>,
    /// [`LikelihoodEngine::eigen_basis`].
    basis: [Transition<S>; 2],
    /// `newview`s orienting the tree toward any one edge: one per
    /// internal node.
    newviews: u64,
    walk: RwLock<Walk<S>>,
    /// Each chunk's piece of the table of the edge being optimized.
    tables: Mutex<Vec<(usize, EdgeTable)>>,
}

impl<M: SubstModel<S>, const S: usize> TraversalBody<M, S> {
    /// The request to optimize the branch lengths of `tree` on `data`, as
    /// [`BranchPasses::new`]`(max_passes, epsilon)` schedules it; with no
    /// passes, to score it. Pieces come from and go back to `arena`.
    pub fn new(
        model: M,
        data: Arc<PatternAlignment<S>>,
        arena: Arc<Mutex<ClvArena>>,
        tree: Tree,
        max_passes: usize,
        epsilon: f64,
    ) -> Self {
        let engine = LikelihoodEngine::new(&model, &data);
        let transitions = tree.edge_ids().map(|e| engine.transition(tree.length(e))).collect();
        let (basis, factors) = (engine.eigen_basis(), engine.newton_factors(0.0));
        TraversalBody {
            model,
            data,
            arena,
            basis,
            newviews: (tree.n_nodes() - tree.n_taxa()) as u64,
            walk: RwLock::new(Walk {
                tree,
                passes: BranchPasses::new(max_passes, epsilon),
                // Both replaced where an edge's optimization starts.
                newton: Newton::new(0.0),
                factors,
                transitions,
                kernels: 0,
            }),
            tables: Mutex::default(),
        }
    }

    fn walk(&self) -> RwLockReadGuard<'_, Walk<S>> {
        self.walk.read().expect("no thread panics while holding the walk")
    }

    /// The step the next round runs.
    pub fn step(&self) -> Step {
        self.walk().passes.step()
    }

    /// The request's tree, with every length optimized so far.
    pub fn tree(&self) -> Tree {
        self.walk().tree.clone()
    }

    /// Kernel invocations of the steps finished so far: every `newview`,
    /// `evaluate` and Newton step.
    pub fn kernels(&self) -> u64 {
        self.walk().kernels
    }

    /// A copy of the table pieces kept for the edge being optimized, as
    /// `(first pattern, piece)` by first pattern; none between edges.
    pub fn tables(&self) -> Vec<(usize, EdgeTable)> {
        let mut kept = lock(&self.tables).clone();
        kept.sort_by_key(|&(start, _)| start);
        kept
    }
}

impl<M: SubstModel<S> + Clone + 'static, const S: usize> LoopBody for TraversalBody<M, S> {
    /// A round's sums over a chunk's range: `(lnL, 0)` of a score, `(d1,
    /// d2)` of a Newton step. Merged after the last round, `(lnL, 0)` of
    /// the whole request.
    type Acc = (f64, f64);

    fn len(&self) -> usize {
        self.data.n_patterns()
    }

    fn identity(&self) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> (f64, f64) {
        if range.is_empty() {
            return self.identity();
        }
        let engine = LikelihoodEngine::new(&self.model, &self.data);
        let walk = self.walk();
        let stash = Stash { arena: &self.arena, patterns: range.len(), free: Vec::new() };
        let mut chunk = Ranged { engine: &engine, range: range.clone(), stash, walk: &walk };
        match walk.passes.step() {
            Step::Score(e) => (traversal::score_at(&mut chunk, &walk.tree, e), 0.0),
            Step::Optimize(e, _) => {
                let kept = {
                    let mut tables = lock(&self.tables);
                    let at = tables.iter().position(|&(start, _)| start == range.start);
                    at.map(|at| tables.swap_remove(at).1)
                };
                let table = kept.unwrap_or_else(|| {
                    let (u, v) = traversal::edge_pair(&mut chunk, &walk.tree, e);
                    let mut table = lock(&self.arena).take_table(range.len());
                    let (u_at, v_at, basis) = (u.as_ref(), v.as_ref(), &self.basis);
                    engine.edge_table_range_with(u_at, v_at, basis, range.clone(), &mut table);
                    chunk.stash.recycle([u, v]);
                    table
                });
                let sums = engine.table_derivatives_with(&table, &walk.factors, range.clone());
                lock(&self.tables).push((range.start, table));
                sums
            }
            Step::Done(_) => unreachable!("a finished request runs no round"),
        }
    }

    fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
        (a.0 + b.0, a.1 + b.1)
    }

    /// The round's sums into the step it ran: a score's lnL, or a Newton
    /// step, which stops or asks for another round on the edge. A step
    /// that finishes moves the schedule on; its last step leaves the
    /// request's lnL in `merged`.
    fn again(&self, merged: &mut (f64, f64)) -> bool {
        let mut walk = self.walk.write().expect("no thread panics while holding the walk");
        let walk = &mut *walk;
        let engine = LikelihoodEngine::new(&self.model, &self.data);
        let step = walk.passes.step();
        let result = match step {
            Step::Score(_) => {
                walk.kernels += self.newviews + 1;
                merged.0
            }
            Step::Optimize(..) => {
                if let Some(t) = walk.newton.feed(merged.0, merged.1) {
                    walk.factors = engine.newton_factors(t);
                    return true;
                }
                walk.kernels += self.newviews + walk.newton.steps() as u64;
                lock(&self.arena).extend(lock(&self.tables).drain(..).map(|(_, table)| table));
                walk.newton.t()
            }
            Step::Done(_) => unreachable!("a finished request runs no round"),
        };
        let next = walk.passes.advance(&mut walk.tree, result);
        if let Step::Optimize(e, _) = step {
            walk.transitions[e.0] = engine.transition(walk.tree.length(e));
        }
        match next {
            Step::Done(lnl) => {
                *merged = (lnl, 0.0);
                false
            }
            Step::Optimize(_, t0) => {
                walk.newton = Newton::new(t0);
                walk.factors = engine.newton_factors(walk.newton.t());
                true
            }
            Step::Score(_) => true,
        }
    }

    /// Its kernel invocations ([`TraversalBody::kernels`]).
    fn work(&self) -> u64 {
        self.kernels()
    }
}

/// A [`ScoringEngine`] that off-loads each search request through a
/// worker process's [`ProcessCtx`] — the Rust analogue of an MPI process
/// whose `newview`/`evaluate`/`makenewz` run on SPEs.
pub struct OffloadedEngine<'a, 'rt, M, const S: usize = STATES> {
    ctx: &'a mut ProcessCtx<'rt>,
    model: M,
    data: Arc<PatternAlignment<S>>,
    offloads: u64,
    shipped: u64,
    /// Per-worker-process CLV and edge-table recycler, shared with the
    /// chunk bodies: pieces taken on SPE threads flow back when their chunk
    /// is done, tables when their edge's Newton iteration is.
    arena: Arc<Mutex<ClvArena>>,
}

impl<'a, 'rt, M: SubstModel<S> + Clone + 'static, const S: usize> OffloadedEngine<'a, 'rt, M, S> {
    /// Bind a worker process to `model` and `data`.
    pub fn new(ctx: &'a mut ProcessCtx<'rt>, model: M, data: Arc<PatternAlignment<S>>) -> Self {
        OffloadedEngine {
            ctx,
            model,
            data,
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

    /// Off-loads requested of the runtime so far: one per search request,
    /// a score or a branch-length optimization, each carrying every kernel
    /// the request needed.
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
        self.try_log_likelihood(tree).expect("off-loaded score request failed")
    }

    /// Off-loaded log-likelihood of `tree`, or how its off-load failed.
    pub fn try_log_likelihood(&mut self, tree: &Tree) -> Result<f64, OffloadError> {
        self.ship(SITE_EVALUATE, KernelKind::Evaluate, tree, 0, 0.0).map(|(lnl, _)| lnl)
    }

    /// The one off-load: the request to run `max_passes` and `epsilon` on
    /// a copy of `tree`, requested as `kind` (§5.2's test is applied to
    /// what is shipped). Returns its lnL and the body, which holds the
    /// copy as the request left it, or how the off-load failed.
    fn ship(
        &mut self,
        site: LoopSite,
        kind: KernelKind,
        tree: &Tree,
        max_passes: usize,
        epsilon: f64,
    ) -> Result<(f64, Arc<TraversalBody<M, S>>), OffloadError> {
        let body = Arc::new(TraversalBody::new(
            self.model.clone(),
            Arc::clone(&self.data),
            Arc::clone(&self.arena),
            tree.clone(),
            max_passes,
            epsilon,
        ));
        let outcome = self.ctx.offload_adaptive(site, kind, Arc::clone(&body));
        self.offloads += body.kernels();
        self.shipped += 1;
        outcome.map(|(lnl, _)| (lnl, body))
    }
}

impl<M: SubstModel<S> + Clone + 'static, const S: usize> ScoringEngine
    for OffloadedEngine<'_, '_, M, S>
{
    fn score(&mut self, tree: &Tree) -> f64 {
        self.log_likelihood(tree)
    }

    /// Off-loaded branch-length optimization: every pass, edge and Newton
    /// step of it, one off-load.
    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        let (lnl, body) = self
            .ship(SITE_DERIV, KernelKind::MakeNewz, tree, max_passes, epsilon)
            .expect("off-loaded branch-length request failed");
        *tree = body.tree();
        lnl
    }
}

/// The per-edge packaging this module shipped before a search request was
/// one task: the walk recorded as a post-order plan and shipped at each
/// `evaluate` and each optimized edge, that edge's Newton steps the rounds
/// of its task. Kept as the oracle [`TraversalBody`] is checked against;
/// it runs each plan over a given partition, chunk by chunk, as a team
/// would.
#[cfg(test)]
mod classic {
    use super::*;
    use mgps_runtime::policy::SpeId;

    /// One op of a plan, in post-order: an op's operands are earlier ops.
    enum Op {
        Tip(usize),
        Newview { left: usize, t_left: f64, right: usize, t_right: f64 },
    }

    /// A plan with its terminal at the edge of length `t` between ops `u`
    /// and `v`: an `evaluate`, or `makenewz` one round per Newton step.
    struct PlanBody<M> {
        model: M,
        data: Arc<PatternAlignment>,
        arena: Arc<Mutex<ClvArena>>,
        ops: Vec<Op>,
        u: usize,
        v: usize,
        terminal: KernelKind,
        newton: Mutex<Newton>,
        t: f64,
        tables: Mutex<Vec<(usize, EdgeTable)>>,
    }

    impl<M: SubstModel> PlanBody<M> {
        /// Op `slot` over `range`, children first.
        fn operand_of(
            &self,
            engine: &LikelihoodEngine<'_, M>,
            slot: usize,
            range: &Range<usize>,
            stash: &mut Stash<'_>,
        ) -> Operand<Clv> {
            match self.ops[slot] {
                Op::Tip(taxon) => Operand::Tip(taxon),
                Op::Newview { left, t_left, right, t_right } => {
                    let l = self.operand_of(engine, left, range, stash);
                    let r = self.operand_of(engine, right, range, stash);
                    let (mut piece, range) = (stash.take(), range.clone());
                    let (l_at, r_at) = (l.as_ref(), r.as_ref());
                    engine.newview_range_into(l_at, t_left, r_at, t_right, range, &mut piece);
                    stash.recycle([l, r]);
                    Operand::Clv(piece)
                }
            }
        }
    }

    impl<M: SubstModel + Clone + 'static> LoopBody for PlanBody<M> {
        type Acc = (f64, f64);

        fn len(&self) -> usize {
            self.data.n_patterns()
        }

        fn identity(&self) -> (f64, f64) {
            (0.0, 0.0)
        }

        fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> (f64, f64) {
            if range.is_empty() {
                return self.identity();
            }
            let engine = LikelihoodEngine::new(&self.model, &self.data);
            let mut stash = Stash { arena: &self.arena, patterns: range.len(), free: Vec::new() };
            let orient = |stash: &mut Stash<'_>| {
                let u = self.operand_of(&engine, self.u, &range, stash);
                [u, self.operand_of(&engine, self.v, &range, stash)]
            };
            if self.terminal == KernelKind::Evaluate {
                let [u, v] = orient(&mut stash);
                let lnl = engine.evaluate_range(u.as_ref(), v.as_ref(), self.t, range.clone());
                stash.recycle([u, v]);
                return (lnl, 0.0);
            }
            let kept = {
                let mut tables = lock(&self.tables);
                let at = tables.iter().position(|&(start, _)| start == range.start);
                at.map(|at| tables.swap_remove(at).1)
            };
            let table = kept.unwrap_or_else(|| {
                let [u, v] = orient(&mut stash);
                let mut table = lock(&self.arena).take_table(range.len());
                engine.edge_table_range(u.as_ref(), v.as_ref(), range.clone(), &mut table);
                stash.recycle([u, v]);
                table
            });
            let sums = engine.table_derivatives(&table, lock(&self.newton).t(), range.clone());
            lock(&self.tables).push((range.start, table));
            sums
        }

        fn merge(&self, a: (f64, f64), b: (f64, f64)) -> (f64, f64) {
            (a.0 + b.0, a.1 + b.1)
        }

        fn again(&self, merged: &mut (f64, f64)) -> bool {
            if self.terminal == KernelKind::Evaluate {
                return false;
            }
            if lock(&self.newton).feed(merged.0, merged.1).is_some() {
                return true;
            }
            lock(&self.arena).extend(lock(&self.tables).drain(..).map(|(_, table)| table));
            false
        }
    }

    /// Every round of `body` over `ranges`, partials merged in chunk
    /// order: what a team running that tiling returns.
    pub fn run<B: LoopBody>(body: &B, ranges: &[Range<usize>]) -> B::Acc {
        let mut ctx = SpeContext::new(SpeId(usize::MAX));
        loop {
            let mut merged = ranges
                .iter()
                .map(|r| body.run_chunk(r.clone(), &mut ctx))
                .reduce(|a, b| body.merge(a, b))
                .expect("at least one range");
            if !body.again(&mut merged) {
                return merged;
            }
        }
    }

    /// Records the walk's `tip`s and `newview`s into a plan, and runs it
    /// over `ranges` at the `evaluate` or `makenewz` that consumes it.
    pub struct Engine<'r, M> {
        model: M,
        data: Arc<PatternAlignment>,
        pub arena: Arc<Mutex<ClvArena>>,
        ranges: &'r [Range<usize>],
        plan: Vec<Op>,
        /// Kernel invocations, as `OffloadedEngine` counts them.
        pub kernels: u64,
    }

    impl<'r, M: SubstModel + Clone + 'static> Engine<'r, M> {
        pub fn new(model: M, data: Arc<PatternAlignment>, ranges: &'r [Range<usize>]) -> Self {
            let arena = Arc::new(Mutex::new(ClvArena::new()));
            Engine { model, data, arena, ranges, plan: Vec::new(), kernels: 0 }
        }

        fn ship(&mut self, terminal: KernelKind, u: usize, v: usize, t: f64) -> PlanBody<M> {
            PlanBody {
                model: self.model.clone(),
                data: Arc::clone(&self.data),
                arena: Arc::clone(&self.arena),
                ops: std::mem::take(&mut self.plan),
                u,
                v,
                terminal,
                newton: Mutex::new(Newton::new(t)),
                t,
                tables: Mutex::default(),
            }
        }
    }

    /// A handle is `(op index, newviews at or under it)`.
    impl<M: SubstModel + Clone + 'static> Kernels for Engine<'_, M> {
        type Clv = (usize, u64);

        fn tip(&mut self, taxon: usize) -> (usize, u64) {
            self.plan.push(Op::Tip(taxon));
            (self.plan.len() - 1, 0)
        }

        fn newview(&mut self, l: Self::Clv, t_left: f64, r: Self::Clv, t_right: f64) -> Self::Clv {
            self.plan.push(Op::Newview { left: l.0, t_left, right: r.0, t_right });
            (self.plan.len() - 1, l.1 + r.1 + 1)
        }

        fn evaluate(&mut self, u: (usize, u64), v: (usize, u64), t: f64) -> f64 {
            self.kernels += u.1 + v.1 + 1;
            let body = self.ship(KernelKind::Evaluate, u.0, v.0, t);
            run(&body, self.ranges).0
        }

        fn optimize_edge(&mut self, u: (usize, u64), v: (usize, u64), t0: f64) -> f64 {
            let body = self.ship(KernelKind::MakeNewz, u.0, v.0, t0);
            run(&body, self.ranges);
            let newton = *lock(&body.newton);
            self.kernels += u.1 + v.1 + newton.steps() as u64;
            newton.t()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::faults::FaultPlan;
    use mgps_runtime::metrics::{AtomicMetrics, Counter};
    use mgps_runtime::native::{MgpsRuntime, RuntimeConfig};
    use mgps_runtime::policy::SchedulerKind;
    use phylo::alignment::Alignment;
    use phylo::mixture::Gamma;
    use phylo::model::Jc69;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn data() -> Arc<PatternAlignment> {
        Arc::new(PatternAlignment::compress(&Alignment::synthetic(8, 120, &Jc69, 0.1, 11)))
    }

    fn length_bits(tree: &Tree) -> Vec<u64> {
        tree.edge_ids().map(|e| tree.length(e).to_bits()).collect()
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
        // One pass by hand, over four chunks: the score round hands every
        // piece back; an edge's first round puts each chunk's two edge
        // pieces into its table piece and hands both straight back, so
        // between rounds the request holds its tables and no CLV piece.
        let data = data();
        let n = data.n_patterns();
        let arena = Arc::new(Mutex::new(ClvArena::new()));
        let tree = Tree::random(8, 0.3, &mut SmallRng::seed_from_u64(9));
        let body = TraversalBody::new(Jc69, Arc::clone(&data), Arc::clone(&arena), tree, 1, 0.0);
        let mut spe = SpeContext::new(mgps_runtime::policy::SpeId(usize::MAX));
        let mut round = || {
            (0..4)
                .map(|c| body.run_chunk(n * c / 4..n * (c + 1) / 4, &mut spe))
                .reduce(|a, b| body.merge(a, b))
                .expect("four chunks")
        };
        let mut merged = round();
        assert_eq!(lock(&arena).outstanding(), (0, 0), "a score keeps nothing");
        let mut edges = 0;
        while body.again(&mut merged) {
            let first = matches!(body.step(), Step::Optimize(..)) && body.tables().is_empty();
            merged = round();
            if first {
                edges += 1;
                assert_eq!(lock(&arena).outstanding(), (0, 4), "four tables, no piece");
            }
        }
        assert_eq!(edges, 13);
        assert!(body.tables().is_empty());
        assert_eq!(lock(&arena).outstanding(), (0, 0));

        // Degree 4 through the engine: a chunk's table stays in the body
        // from one Newton round to the next, for whichever team member runs
        // the chunk then, and all go back when the edge's iteration stops.
        // Were they dropped instead, every edge would allocate its four
        // afresh; recycled, allocations stop once the arena holds the few
        // sizes the balancer's tilings ask for.
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
        assert!(eng.shipped() == 6 && eng.offloads() > 4 * edges);
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

    /// Fractional cut points as a partition of `0..n`; equal cuts leave
    /// empty ranges in, as a short loop leaves a team.
    fn partition(n: usize, cuts: &[f64]) -> Vec<Range<usize>> {
        let mut bounds: Vec<usize> = cuts.iter().map(|f| (f * n as f64) as usize).collect();
        bounds.extend([0, n]);
        bounds.sort_unstable();
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    proptest! {
        /// Over the same tiling, the whole request takes the per-edge
        /// packaging's steps with the same sums in the same order: the same
        /// bits, the same kernels, every piece and table back — single-rate
        /// and +Γ.
        #[test]
        fn the_whole_request_is_the_per_edge_oracle_over_any_partition(
            seed in 0u64..u64::MAX,
            taxa in 4usize..=10,
            max_passes in 0usize..=3,
            epsilon in (0usize..3).prop_map(|i| [0.0, 1e-4, 1e9][i]),
            cuts in prop::collection::vec(0.0f64..1.0, 0..6),
            categories in (0usize..2).prop_map(|i| [1, 4][i]),
        ) {
            let aln = Alignment::synthetic(taxa, 90, &Jc69, 0.3, seed ^ 0x5A5A);
            let data = Arc::new(PatternAlignment::compress(&aln));
            let tree = Tree::random(taxa, 0.3, &mut SmallRng::seed_from_u64(seed));
            let ranges = partition(data.n_patterns(), &cuts);
            let model = Gamma::new(Jc69, 0.5, categories);

            let mut oracle = classic::Engine::new(model.clone(), Arc::clone(&data), &ranges);
            let mut want = tree.clone();
            let want_lnl = traversal::optimize_branches(&mut oracle, &mut want, max_passes, epsilon);

            let arena = Arc::new(Mutex::new(ClvArena::new()));
            let body = TraversalBody::new(model, data, Arc::clone(&arena), tree, max_passes, epsilon);
            let (lnl, zero) = classic::run(&body, &ranges);
            prop_assert_eq!((lnl.to_bits(), zero), (want_lnl.to_bits(), 0.0));
            prop_assert_eq!(body.step(), Step::Done(lnl));
            prop_assert_eq!(length_bits(&body.tree()), length_bits(&want));
            prop_assert_eq!(body.kernels(), oracle.kernels);
            prop_assert!(body.tables().is_empty());
            prop_assert_eq!(lock(&arena).outstanding(), (0, 0));
            prop_assert_eq!(lock(&oracle.arena).outstanding(), (0, 0));
        }
    }

    #[test]
    fn an_unrecovered_request_is_an_error_and_the_next_request_scores() {
        let data = data();
        let tree = Tree::random(8, 0.12, &mut SmallRng::seed_from_u64(5));
        let want = LikelihoodEngine::new(&Jc69, &data).log_likelihood(&tree);
        let plan = FaultPlan::parse("pin=crash@0,retries=0,fallback=off").expect("a valid spec");
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan));
        let mut ctx = rt.enter_process();
        let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        assert_eq!(eng.try_log_likelihood(&tree), Err(OffloadError::Unrecovered));
        let got = eng.try_log_likelihood(&tree).expect("task 1 is not pinned");
        assert!((got - want).abs() < 1e-9, "{got} vs direct {want}");
        assert_eq!(eng.shipped(), 2);
        assert_eq!(lock(&eng.arena).outstanding(), (0, 0));
    }

    #[test]
    fn a_faulted_request_returns_the_unfaulted_bits_and_every_piece() {
        // Task 1 is the branch-length optimization between two scores. Its
        // first attempt is faulted before it starts; the retry runs it on
        // an SPE, or — no retries left — its PPE copy runs it whole. At
        // degree 1 both are the unfaulted off-load's arithmetic, so nothing
        // a faulted attempt could have advanced may show in the bits.
        let data = data();
        let tree0 = Tree::random(8, 0.3, &mut SmallRng::seed_from_u64(9));
        let search = |spec: &str| {
            let metrics = Arc::new(AtomicMetrics::new());
            let plan = FaultPlan::parse(spec).expect("a valid fault spec");
            let config = RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan);
            let rt = MgpsRuntime::with_metrics(config, Arc::<AtomicMetrics>::clone(&metrics));
            let mut ctx = rt.enter_process();
            let mut eng = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
            let mut tree = tree0.clone();
            let before = eng.log_likelihood(&tree);
            let lnl = ScoringEngine::optimize_branches(&mut eng, &mut tree, 2, 1e-6);
            let after = eng.log_likelihood(&tree);
            assert_eq!(lock(&eng.arena).outstanding(), (0, 0), "{spec}");
            let counts = [Counter::FaultsInjected, Counter::OffloadRetries, Counter::PpeFallbacks];
            let bits = (before.to_bits(), lnl.to_bits(), after.to_bits(), length_bits(&tree));
            (bits, eng.offloads(), eng.shipped(), counts.map(|c| metrics.get(c)))
        };
        let (want, kernels, shipped, quiet) = search("");
        assert_eq!((shipped, quiet), (3, [0, 0, 0]));
        for kind in ["crash", "stall", "dma", "mbox"] {
            for (retries, counts) in [(2, [1, 1, 0]), (0, [1, 0, 1])] {
                let spec = format!("pin={kind}@1,retries={retries}");
                let (got, got_kernels, got_shipped, got_counts) = search(&spec);
                assert_eq!(got_counts, counts, "{spec}: faults, retries, PPE copies");
                assert_eq!((got_kernels, got_shipped), (kernels, shipped), "{spec}");
                assert_eq!(got, want, "{spec}");
            }
        }
    }
}
