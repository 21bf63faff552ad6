//! The fused request: a [`TraversalBody`] runs a whole search request — a
//! score, or a branch-length optimization with every pass, edge and
//! Newton step of it — as the rounds of one task, each chunk on its own
//! pattern range. Whatever way `0..n` is cut into ranges, every edge's
//! table pieces must be the direct engine's edge table to the bit (built
//! from pieces that are the direct CLVs to the bit, values *and* scale
//! counts — the scale carry at chunk boundaries is the historical bug
//! class), the sums the direct kernels' up to re-association of the
//! partials, every optimized length the direct `optimize_branches`'s after
//! the same kernels, and over one range the whole request the direct
//! `optimize_branches`, bit for bit.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use multigrain::mgps_runtime::metrics::{AtomicMetrics, Counter};
use multigrain::mgps_runtime::policy::granularity::{MIN_SPE_SAMPLES, TEAM_PROBE_PERIOD};
use multigrain::mgps_runtime::policy::SpeId;
use multigrain::prelude::*;
use phylo::likelihood::{newton_branch_length, ClvArena, Newton, Operand};
use phylo::traversal::{self, Kernels, Step};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The request to run `max_passes` and `epsilon` on `tree`.
fn request(
    data: &Arc<PatternAlignment>,
    tree: &Tree,
    max_passes: usize,
    epsilon: f64,
    arena: &Arc<Mutex<ClvArena>>,
) -> TraversalBody<Jc69> {
    TraversalBody::new(Jc69, Arc::clone(data), Arc::clone(arena), tree.clone(), max_passes, epsilon)
}

/// One round of `body` over `ranges` as a team runs it: every chunk,
/// partials merged in chunk order.
fn round<B: LoopBody<Acc = (f64, f64)>>(body: &B, ranges: &[Range<usize>]) -> (f64, f64) {
    let mut ctx = SpeContext::new(SpeId(usize::MAX));
    ranges
        .iter()
        .map(|r| body.run_chunk(r.clone(), &mut ctx))
        .reduce(|a, b| body.merge(a, b))
        .expect("at least one range")
}

/// Every round of `body` over `ranges`, calling `seen` before each with
/// the step it runs and whether the request holds no table yet (before an
/// edge's first round); the request's lnL.
fn run_seeing<M: SubstModel<S> + Clone + 'static, const S: usize>(
    body: &TraversalBody<M, S>,
    ranges: &[Range<usize>],
    mut seen: impl FnMut(Step, bool),
) -> f64 {
    loop {
        let fresh = body.tables().is_empty();
        seen(body.step(), fresh);
        let mut merged = round(body, ranges);
        if !body.again(&mut merged) {
            return merged.0;
        }
    }
}

fn run<M: SubstModel<S> + Clone + 'static, const S: usize>(
    body: &TraversalBody<M, S>,
    ranges: &[Range<usize>],
) -> f64 {
    run_seeing(body, ranges, |_, _| {})
}

/// Fractional cut points as a partition of `0..n` into `cuts.len() + 1`
/// ranges; equal cuts leave empty ranges in, as a short loop leaves a team.
fn partition(n: usize, cuts: &[f64]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|f| (f * n as f64) as usize).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// The direct kernels, counted as the off-loading engine counts them:
/// every `newview`, `evaluate` and Newton step.
struct Census<'e, M, const S: usize = 4> {
    inner: &'e LikelihoodEngine<'e, M, S>,
    kernels: u64,
}

impl<M: SubstModel<S>, const S: usize> Kernels for Census<'_, M, S> {
    type Clv = Operand<Clv>;

    fn tip(&mut self, taxon: usize) -> Operand<Clv> {
        Kernels::tip(&mut self.inner, taxon)
    }

    fn newview(&mut self, left: Self::Clv, t_l: f64, right: Self::Clv, t_r: f64) -> Self::Clv {
        self.kernels += 1;
        Kernels::newview(&mut self.inner, left, t_l, right, t_r)
    }

    fn evaluate(&mut self, u: Operand<Clv>, v: Operand<Clv>, t: f64) -> f64 {
        self.kernels += 1;
        Kernels::evaluate(&mut self.inner, u, v, t)
    }

    fn optimize_edge(&mut self, u: Operand<Clv>, v: Operand<Clv>, t0: f64) -> f64 {
        let table = self.inner.edge_table(u.as_ref(), v.as_ref());
        let all = 0..self.inner.data().n_patterns();
        newton_branch_length(t0, |t| {
            self.kernels += 1;
            self.inner.table_derivatives(&table, t, all.clone())
        })
    }
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

fn length_bits(tree: &Tree) -> Vec<u64> {
    tree.edge_ids().map(|e| tree.length(e).to_bits()).collect()
}

proptest! {
    #[test]
    fn a_traversal_over_any_partition_is_the_direct_engines(
        seed in 0u64..u64::MAX,
        taxa in 4usize..=12,
        sites in 8usize..160,
        max_passes in 0usize..=3,
        epsilon in (0usize..3).prop_map(|i| [0.0, 1e-4, 1e9][i]),
        cuts in prop::collection::vec(0.0f64..1.0, 0..8),
    ) {
        let aln = Alignment::synthetic(taxa, sites, &Jc69, 0.3, seed ^ 0xA5A5);
        let data = Arc::new(PatternAlignment::compress(&aln));
        let n = data.n_patterns();
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let tree = Tree::random(taxa, 0.3, &mut SmallRng::seed_from_u64(seed));
        let arena = Arc::new(Mutex::new(ClvArena::new()));
        let ranges = partition(n, &cuts);

        // The direct optimization, with its kernels counted.
        let mut want_tree = tree.clone();
        let want_lnl = direct.optimize_branches(&mut want_tree, max_passes, epsilon);
        let mut census = Census { inner: &direct, kernels: 0 };
        let counted = traversal::optimize_branches(&mut census, &mut tree.clone(), max_passes, epsilon);
        prop_assert_eq!(counted.to_bits(), want_lnl.to_bits());

        // Over the partition: at each edge's first round, the tables the
        // chunks keep tile 0..n and are the direct table of the request's
        // tree as it stands — every length optimized before read — to the
        // bit, with every CLV piece back in the arena; the first sums are
        // the direct derivatives at the starting length. (That round runs
        // outside the request; the request's own first round then finds
        // the same tables kept.)
        let body = request(&data, &tree, max_passes, epsilon, &arena);
        let mut edges = 0;
        let mut failed = None;
        let lnl = run_seeing(&body, &ranges, |step, first| {
            let Step::Optimize(e, t0) = step else { return };
            if !first || failed.is_some() {
                return;
            }
            edges += 1;
            let now = body.tree();
            let (a, b) = now.endpoints(e);
            let (cu, cv) = (direct.clv_toward(&now, a, b), direct.clv_toward(&now, b, a));
            let want = direct.edge_table(&cu, &cv);
            let (want_d1, want_d2) = direct.table_derivatives(&want, t0, 0..n);
            let (d1, d2) = round(&body, &ranges);
            let tables = body.tables();
            let tiled: Vec<u64> = tables.iter().flat_map(|(_, piece)| bits(piece.as_raw())).collect();
            let starts: Vec<usize> = tables.iter().map(|(start, _)| *start).collect();
            let want_starts: Vec<usize> =
                ranges.iter().filter(|r| !r.is_empty()).map(|r| r.start).collect();
            let close = |got: f64, want: f64| (got - want).abs() < 1e-9 * (1.0 + want.abs());
            if tiled != bits(want.as_raw()) || starts != want_starts {
                failed = Some(format!("edge {e:?}: tables differ over {ranges:?}"));
            } else if arena.lock().unwrap().outstanding() != (0, tables.len() as u64) {
                failed = Some(format!("edge {e:?}: a CLV piece is out"));
            } else if !close(d1, want_d1) || !close(d2, want_d2) {
                failed = Some(format!("edge {e:?}: ({d1}, {d2}) vs ({want_d1}, {want_d2})"));
            }
        });
        prop_assert!(failed.is_none(), "{}", failed.unwrap_or_default());
        prop_assert_eq!(edges > 0, max_passes > 0);
        prop_assert_eq!(body.step(), Step::Done(lnl));
        prop_assert!(body.tables().is_empty());
        prop_assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));

        // Every length it leaves is the direct one's, after as many
        // kernels: the same passes, edges and Newton steps.
        let done = body.tree();
        for e in tree.edge_ids() {
            let (got, want) = (done.length(e), want_tree.length(e));
            prop_assert!((got - want).abs() < 1e-9, "branch {:?}: {} vs {}", e, got, want);
        }
        prop_assert_eq!(body.kernels(), census.kernels);

        // The lnL it returns is its final tree's score over the same
        // ranges, to the bit, and the direct score up to re-association.
        prop_assert_eq!(run(&request(&data, &done, 0, 0.0, &arena), &ranges).to_bits(), lnl.to_bits());
        let want = direct.log_likelihood(&done);
        prop_assert!((lnl - want).abs() < 1e-9 * (1.0 + want.abs()), "{lnl} vs {want}");

        // One range is the direct engine run elsewhere: the same bits, on
        // the lnL and on every length.
        let whole = request(&data, &tree, max_passes, epsilon, &arena);
        prop_assert_eq!(run(&whole, &partition(n, &[])).to_bits(), want_lnl.to_bits());
        prop_assert_eq!(length_bits(&whole.tree()), length_bits(&want_tree));
        prop_assert_eq!(whole.kernels(), census.kernels);
        prop_assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));
    }
}

/// A protein request under `model` is the direct protein engine's over
/// the partition `cuts` makes: the lnL and every length within 1e-9 after
/// as many kernels, every piece back. Shipped through the runtime it is one
/// off-load counting those kernels.
fn protein_request_is_the_direct_engines<M: SubstModel<AA_STATES> + Clone + 'static>(
    model: M,
    seed: u64,
    taxa: usize,
    sites: usize,
    max_passes: usize,
    cuts: &[f64],
) -> TestCaseResult {
    let aln = Alignment::<AA_STATES>::synthetic(taxa, sites, &PoissonAa, 0.3, seed ^ 0xA5A5);
    let data = Arc::new(PatternAlignment::compress(&aln));
    let direct = LikelihoodEngine::new(&model, &*data);
    let tree = Tree::random(taxa, 0.3, &mut SmallRng::seed_from_u64(seed));
    let mut want = tree.clone();
    let mut census = Census { inner: &direct, kernels: 0 };
    let want_lnl = traversal::optimize_branches(&mut census, &mut want, max_passes, 1e-4);
    let close = |got: f64, want: f64| (got - want).abs() < 1e-9 * (1.0 + want.abs());

    let arena = Arc::new(Mutex::new(ClvArena::new()));
    let (d, a) = (Arc::clone(&data), Arc::clone(&arena));
    let body = TraversalBody::new(model.clone(), d, a, tree.clone(), max_passes, 1e-4);
    let lnl = run(&body, &partition(data.n_patterns(), cuts));
    prop_assert!(close(lnl, want_lnl), "{} vs {}", lnl, want_lnl);
    let done = body.tree();
    for e in tree.edge_ids() {
        let (got, want) = (done.length(e), want.length(e));
        prop_assert!((got - want).abs() < 1e-9, "branch {:?}: {} vs {}", e, got, want);
    }
    prop_assert_eq!(body.kernels(), census.kernels);
    prop_assert!(body.tables().is_empty());
    prop_assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));

    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
        spes_per_loop: 4,
    }));
    let mut ctx = rt.enter_process();
    let mut off = OffloadedEngine::new(&mut ctx, model.clone(), Arc::clone(&data));
    let mut got = tree.clone();
    let lnl = ScoringEngine::optimize_branches(&mut off, &mut got, max_passes, 1e-4);
    prop_assert!(close(lnl, want_lnl), "off-loaded {} vs {}", lnl, want_lnl);
    for e in tree.edge_ids() {
        let (got, want) = (got.length(e), want.length(e));
        prop_assert!((got - want).abs() < 1e-9, "off-loaded {:?}: {} vs {}", e, got, want);
    }
    prop_assert_eq!((off.offloads(), off.shipped()), (census.kernels, 1));
    Ok(())
}

proptest! {
    /// A protein request — the Poisson model's 20 states, single-rate and
    /// +Γ — is the direct protein engine's over any partition.
    #[test]
    fn a_protein_request_over_any_partition_is_the_direct_engines(
        seed in 0u64..u64::MAX,
        taxa in 4usize..=8,
        sites in 8usize..60,
        max_passes in 0usize..=2,
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
        alpha in 0.1f64..10.0,
    ) {
        protein_request_is_the_direct_engines(PoissonAa, seed, taxa, sites, max_passes, &cuts)?;
        let gamma = Gamma::new(PoissonAa, alpha, 4);
        protein_request_is_the_direct_engines(gamma, seed, taxa, sites, max_passes, &cuts)?;
    }
}

/// A request prices each branch once and the Newton factors once per
/// length, and `again` refreshes them: an edge's transition once its
/// length is written, the factors at every length Newton asks for. Over
/// several passes every edge is optimized after its neighbours have moved,
/// so at degree 1 — directly and through the runtime — a stale entry shows
/// in the bits, or as a length whose transition the walk cannot find.
#[test]
fn several_passes_at_degree_one_are_the_direct_optimization_to_the_bit() {
    let aln = Alignment::synthetic(8, 200, &Jc69, 0.3, 5);
    let data = Arc::new(PatternAlignment::compress(&aln));
    let tree = Tree::random(8, 0.3, &mut SmallRng::seed_from_u64(5));
    let mut want = tree.clone();
    let want_lnl = LikelihoodEngine::new(&Jc69, &data).optimize_branches(&mut want, 3, 0.0);

    let arena = Arc::new(Mutex::new(ClvArena::new()));
    let body = request(&data, &tree, 3, 0.0, &arena);
    let mut scores = 0;
    let lnl = run_seeing(&body, &partition(data.n_patterns(), &[]), |step, _| {
        scores += u32::from(matches!(step, Step::Score(_)));
    });
    assert_eq!(scores, 4, "a score, then three passes each closed by one");
    assert_eq!(lnl.to_bits(), want_lnl.to_bits());
    assert_eq!(length_bits(&body.tree()), length_bits(&want));

    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    let mut ctx = rt.enter_process();
    let mut engine = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
    let mut got = tree.clone();
    let lnl = ScoringEngine::optimize_branches(&mut engine, &mut got, 3, 0.0);
    assert_eq!(lnl.to_bits(), want_lnl.to_bits());
    assert_eq!(length_bits(&got), length_bits(&want));
}

/// An edge the data say nothing about — the pendant edge of an all-gap
/// taxon — has a table whose derivatives are exactly zero at every length,
/// so Newton stops after one step where it started, directly and
/// off-loaded, instead of lengthening the edge step after step.
#[test]
fn an_edge_the_data_say_nothing_about_stops_at_once() {
    let aln = Alignment::from_strings(&[
        ("a", "ACGTACGTAA"),
        ("b", "ACGTACGTAC"),
        ("c", "ACGTTCGTAG"),
        ("d", "----------"),
    ])
    .unwrap();
    let data = Arc::new(PatternAlignment::compress(&aln));
    let n = data.n_patterns();
    let tree = Tree::random(4, 0.2, &mut SmallRng::seed_from_u64(3));
    let edge = tree.neighbors(3)[0].1;
    let t0 = tree.length(edge);

    let direct = LikelihoodEngine::new(&Jc69, &data);
    let (a, b) = tree.endpoints(edge);
    let (cu, cv) = (direct.clv_toward(&tree, a, b), direct.clv_toward(&tree, b, a));
    let table = direct.edge_table(&cu, &cv);
    let mut newton = Newton::new(t0);
    for t in [t0, 1.0, 9.0] {
        assert_eq!(direct.table_derivatives(&table, t, 0..n), (0.0, 0.0), "t = {t}");
    }
    assert_eq!(newton.feed(0.0, 0.0), None);
    assert_eq!((newton.t(), newton.steps()), (t0, 1));
    assert_eq!(direct.makenewz(&cu, &cv, t0), t0);

    let arena = Arc::new(Mutex::new(ClvArena::new()));
    for ranges in [partition(n, &[]), partition(n, &[0.5])] {
        let body = request(&data, &tree, 1, 0.0, &arena);
        let mut rounds = 0;
        run_seeing(&body, &ranges, |step, _| {
            rounds += u32::from(matches!(step, Step::Optimize(e, _) if e == edge));
        });
        assert_eq!((rounds, body.tree().length(edge)), (1, t0), "{ranges:?}");
    }
}

/// A loop whose every chunk but the first blocks for a millisecond: a team
/// woken for it always loses to its chunk 0 scaled to the whole loop.
struct Lopsided;

impl LoopBody for Lopsided {
    type Acc = ();
    fn len(&self) -> usize {
        4
    }
    fn identity(&self) {}
    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) {
        if range.start > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    fn merge(&self, _: (), _: ()) {}
}

/// The bits of a request's result: its lnL and every length it left.
type ResultBits = (u64, Vec<u64>);

/// Requests `body()` on a four-way loop site whose measurements favour its
/// master: the master alone each time, until the site's periodic probe
/// wakes the team. The site's master bias does not move in between, so
/// every invocation cuts the same tiling. Returns each result and whether
/// the team was woken for it.
fn until_the_team_probe(body: impl Fn() -> TraversalBody<Jc69>) -> Vec<(ResultBits, bool)> {
    let metrics = Arc::new(AtomicMetrics::new());
    let pool = Arc::new(SpePool::with_metrics(4, Arc::<AtomicMetrics>::clone(&metrics)));
    let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
    let completed = || metrics.get(Counter::TasksCompleted);
    let settle = || {
        while pool.idle_count() < pool.n_spes() {
            std::thread::yield_now();
        }
    };
    for _ in 0..MIN_SPE_SAMPLES {
        runner.parallel_reduce(LoopSite(1), 4, Arc::new(Lopsided)).unwrap();
    }
    let mut seen: Vec<(ResultBits, bool)> = Vec::new();
    while seen.last().is_none_or(|(_, woken)| !woken) {
        assert!(seen.len() < TEAM_PROBE_PERIOD as usize, "no team probe in a period");
        settle();
        let before = completed();
        let body = Arc::new(body());
        let (lnl, _) = runner.parallel_reduce(LoopSite(1), 4, Arc::clone(&body)).unwrap();
        settle();
        // The master alone books one job; a woken team one per member.
        seen.push(((lnl.to_bits(), length_bits(&body.tree())), completed() - before > 1));
    }
    seen
}

#[test]
fn the_master_alone_and_its_woken_team_return_the_same_bits() {
    let aln = Alignment::synthetic(10, 300, &Jc69, 0.3, 11);
    let data = Arc::new(PatternAlignment::compress(&aln));
    let tree = Tree::random(10, 0.3, &mut SmallRng::seed_from_u64(11));
    let arena = Arc::new(Mutex::new(ClvArena::new()));
    for passes in [0, 1] {
        let seen = until_the_team_probe(|| request(&data, &tree, passes, 0.0, &arena));
        assert!(seen.len() > 1 && !seen[0].1, "{passes} passes: the master ran alone first");
        let want = &seen[0].0;
        for (got, woken) in &seen {
            assert_eq!(got, want, "{passes} passes, woken: {woken}");
        }
        let optimized = length_bits(&tree) != want.1;
        assert_eq!(optimized, passes > 0, "{passes} passes");
    }
}

/// A chunk holds about a tree depth of pieces, not one per node: at 40 taxa
/// (78 CLVs per edge pair) everything a request takes fits back on the
/// free list, so the second request allocates nothing.
#[test]
fn the_arena_stays_bounded_and_warm_at_forty_taxa() {
    const TAXA: usize = 40;
    let aln = Alignment::synthetic(TAXA, 200, &Jc69, 0.2, 3);
    let data = Arc::new(PatternAlignment::compress(&aln));
    let n = data.n_patterns();
    let tree = Tree::random(TAXA, 0.2, &mut SmallRng::seed_from_u64(40));
    let arena = Arc::new(Mutex::new(ClvArena::new()));
    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    let mut ctx = rt.enter_process();
    let mut off = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
    let mut optimized = tree.clone();

    let mut misses_after_first = None;
    for pass in 0..3 {
        // By hand over four ranges, on an arena this test can see, whose
        // last round hands every kept piece back …
        let body = request(&data, &tree, 1, 0.0, &arena);
        run(&body, &partition(n, &[0.25, 0.5, 0.75]));
        assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));
        // … and through the engine, whose arena reports its misses.
        ScoringEngine::optimize_branches(&mut off, &mut optimized, 1, 0.0);
        let misses = (arena.lock().unwrap().stats().1, off.arena_stats().1);
        let first = *misses_after_first.get_or_insert(misses);
        assert_eq!(misses, first, "pass {pass}: the arena is still allocating");
    }
}

/// A tip takes no piece: a score is taken at edge 0, the pendant edge of
/// taxon 0, and at four taxa its far end is a `newview` of a tip and a
/// cherry, so a chunk holds the cherry's piece and its parent's at once
/// and never more — the arena hands out exactly two. (When every tip held
/// a piece, the stash drew five.)
#[test]
fn a_pendant_edge_draws_exactly_the_walks_peak() {
    let data = Arc::new(PatternAlignment::compress(&Alignment::synthetic(4, 60, &Jc69, 0.2, 4)));
    let n = data.n_patterns();
    let tree = Tree::random(4, 0.2, &mut SmallRng::seed_from_u64(4));
    assert_eq!(tree.endpoints(phylo::tree::EdgeId(0)).0, 0, "edge 0 hangs taxon 0");
    let arena = Arc::new(Mutex::new(ClvArena::new()));
    let score = || request(&data, &tree, 0, 0.0, &arena);
    run(&score(), &partition(n, &[]));
    assert_eq!(arena.lock().unwrap().stats(), (0, 2));
    assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));
    // The next request draws the same two from the free list.
    run(&score(), &partition(n, &[]));
    assert_eq!(arena.lock().unwrap().stats(), (2, 2));
}
