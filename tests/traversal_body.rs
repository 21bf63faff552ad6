//! The fused chunk: a [`TraversalBody`] runs a whole traversal on one
//! pattern range — and, at a `makenewz` edge, the whole Newton iteration,
//! one round per step over the chunk's piece of the edge table. Whatever
//! way `0..n` is cut into ranges, the table pieces must be the direct
//! engine's edge table to the bit (built from pieces that are the direct
//! CLVs to the bit, values *and* scale counts — the scale carry at chunk
//! boundaries is the historical bug class), the terminal's sums the direct
//! kernels' up to re-association of the partials, and the optimized length
//! the direct `makenewz`'s after the same number of steps.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use multigrain::adapters::{Partial, TraversalOp};
use multigrain::mgps_runtime::policy::granularity::{MIN_SPE_SAMPLES, TEAM_PROBE_PERIOD};
use multigrain::mgps_runtime::policy::SpeId;
use multigrain::prelude::*;
use phylo::likelihood::{newton_branch_length, ClvArena, Newton};
use phylo::traversal::{self, Kernels};
use phylo::tree::EdgeId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The walk written down as a plan: what `OffloadedEngine` records, from
/// the same `traversal::clv_toward`, with op indices for handles.
struct Plan(Vec<TraversalOp>);

impl Kernels for Plan {
    type Clv = usize;

    fn tip(&mut self, taxon: usize) -> usize {
        self.0.push(TraversalOp::Tip { taxon });
        self.0.len() - 1
    }

    fn newview(&mut self, left: usize, t_left: f64, right: usize, t_right: f64) -> usize {
        self.0.push(TraversalOp::Newview { left, t_left, right, t_right });
        self.0.len() - 1
    }

    fn evaluate(&mut self, _: usize, _: usize, _: f64) -> f64 {
        unreachable!("the plan stops at the edge")
    }

    fn optimize_edge(&mut self, _: usize, _: usize, _: f64) -> f64 {
        unreachable!("the plan stops at the edge")
    }
}

/// The body that orients `tree` toward `edge` and runs `terminal` there.
fn body_at(
    data: &Arc<PatternAlignment>,
    tree: &Tree,
    edge: EdgeId,
    terminal: KernelKind,
    arena: &Arc<Mutex<ClvArena>>,
) -> TraversalBody<Jc69> {
    let (a, b) = tree.endpoints(edge);
    let mut plan = Plan(Vec::new());
    let u = traversal::clv_toward(&mut plan, tree, a, b);
    let v = traversal::clv_toward(&mut plan, tree, b, a);
    TraversalBody {
        model: Jc69,
        data: Arc::clone(data),
        ops: plan.0,
        u,
        v,
        terminal,
        t: tree.length(edge),
        arena: Arc::clone(arena),
        edge: Mutex::default(),
    }
}

/// One round of `body` over `ranges` as a team runs it: every chunk,
/// partials merged in chunk order.
fn round(body: &TraversalBody<Jc69>, ranges: &[Range<usize>]) -> Partial {
    let mut ctx = SpeContext::new(SpeId(usize::MAX));
    ranges
        .iter()
        .map(|r| body.run_chunk(r.clone(), &mut ctx))
        .reduce(|a, b| body.merge(a, b))
        .expect("at least one range")
}

/// Every round of `body` over `ranges`, given the first one's value.
fn finish(body: &TraversalBody<Jc69>, ranges: &[Range<usize>], mut merged: Partial) -> Partial {
    while body.again(&mut merged) {
        merged = round(body, ranges);
    }
    merged
}

fn run(body: &TraversalBody<Jc69>, ranges: &[Range<usize>]) -> Partial {
    finish(body, ranges, round(body, ranges))
}

/// Fractional cut points as a partition of `0..n` into `cuts.len() + 1`
/// ranges; equal cuts leave empty ranges in, as a short loop leaves a team.
fn partition(n: usize, cuts: &[f64]) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|f| (f * n as f64) as usize).collect();
    bounds.extend([0, n]);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn a_traversal_over_any_partition_is_the_direct_engines(
        seed in 0u64..u64::MAX,
        taxa in 4usize..=12,
        sites in 8usize..160,
        cuts in prop::collection::vec(0.0f64..1.0, 0..8),
    ) {
        let aln = Alignment::synthetic(taxa, sites, &Jc69, 0.3, seed ^ 0xA5A5);
        let data = Arc::new(PatternAlignment::compress(&aln));
        let n = data.n_patterns();
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(seed);
        let tree = Tree::random(taxa, 0.3, &mut rng);
        let edge = EdgeId(rng.gen_range(0..tree.n_edges()));
        let (a, b) = tree.endpoints(edge);
        let (cu, cv) = (direct.clv_toward(&tree, a, b), direct.clv_toward(&tree, b, a));
        let t = tree.length(edge);
        let want_lnl = direct.evaluate(&cu, &cv, t);
        let table = direct.edge_table(&cu, &cv);
        let (want_d1, want_d2) = direct.table_derivatives(&table, t, 0..n);
        let arena = Arc::new(Mutex::new(ClvArena::new()));
        let ranges = partition(n, &cuts);

        // The direct `makenewz`, with its steps counted.
        let mut want_steps = 0;
        let want_t = newton_branch_length(t, |t| {
            want_steps += 1;
            direct.table_derivatives(&table, t, 0..n)
        });

        // Round one of a `makenewz` sums the derivatives at the starting
        // length and keeps each chunk's piece of the edge table, every CLV
        // piece back in the arena: the tables tile 0..n and are the direct
        // table to the bit.
        let newton = body_at(&data, &tree, edge, KernelKind::MakeNewz, &arena);
        let first = round(&newton, &ranges);
        let (d1, d2) = first.sums;
        prop_assert!((d1 - want_d1).abs() < 1e-9 * (1.0 + want_d1.abs()), "d1: {d1} vs {want_d1}");
        prop_assert!((d2 - want_d2).abs() < 1e-9 * (1.0 + want_d2.abs()), "d2: {d2} vs {want_d2}");
        {
            let kept = newton.edge.lock().unwrap();
            let mut tables: Vec<_> = kept.tables().iter().collect();
            tables.sort_by_key(|(start, _)| *start);
            prop_assert_eq!(tables.len(), ranges.iter().filter(|r| !r.is_empty()).count());
            let mut got = Vec::new();
            for (start, piece) in tables {
                prop_assert_eq!(*start * 4, got.len(), "gap or overlap in {:?}", &ranges);
                got.extend(bits(piece.as_raw()));
            }
            prop_assert_eq!(got, bits(table.as_raw()));
            prop_assert_eq!(arena.lock().unwrap().outstanding(), (0, kept.tables().len() as u64));
        }

        // The later rounds re-use those tables, and the loop stops where
        // the direct one does, after as many steps, with every table
        // recycled.
        let (got_t, steps) = finish(&newton, &ranges, first).stopped.expect("the loop has stopped");
        prop_assert!((got_t - want_t).abs() < 1e-9, "t: {got_t} vs {want_t}");
        prop_assert_eq!(steps, want_steps);
        prop_assert!(newton.edge.lock().unwrap().tables().is_empty());
        prop_assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));

        // An evaluate keeps nothing and sums to the direct lnL.
        let evaluate = body_at(&data, &tree, edge, KernelKind::Evaluate, &arena);
        let Partial { sums: (lnl, zero), stopped } = run(&evaluate, &ranges);
        prop_assert!(stopped.is_none() && zero == 0.0);
        prop_assert!(evaluate.edge.lock().unwrap().tables().is_empty());
        prop_assert!((lnl - want_lnl).abs() < 1e-9 * (1.0 + want_lnl.abs()), "{lnl} vs {want_lnl}");

        // One range is the direct kernel run elsewhere: the same bits, from
        // the first sums to the optimized length.
        let whole = partition(n, &[]);
        let (lnl, _) = run(&evaluate, &whole).sums;
        prop_assert_eq!(lnl.to_bits(), want_lnl.to_bits());
        let newton = body_at(&data, &tree, edge, KernelKind::MakeNewz, &arena);
        let first = round(&newton, &whole);
        prop_assert_eq!(
            (first.sums.0.to_bits(), first.sums.1.to_bits()),
            (want_d1.to_bits(), want_d2.to_bits())
        );
        let (got_t, steps) = finish(&newton, &whole, first).stopped.expect("the loop has stopped");
        prop_assert_eq!((got_t.to_bits(), steps), (want_t.to_bits(), want_steps));
    }
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
        let body = body_at(&data, &tree, edge, KernelKind::MakeNewz, &arena);
        assert_eq!(run(&body, &ranges).stopped, Some((t0, 1)), "{ranges:?}");
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

/// Invocations of `body()` on a four-way loop site whose measurements
/// favour its master: the master alone each time, until the site's
/// periodic probe wakes the team. The site's master bias does not move in
/// between, so every invocation cuts the same tiling. Returns each result
/// and whether the team was woken for it.
fn until_the_team_probe(body: impl Fn() -> TraversalBody<Jc69>) -> Vec<(Partial, bool)> {
    let pool = Arc::new(SpePool::new(4, Duration::ZERO));
    let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
    let settle = || {
        while pool.idle_count() < pool.n_spes() {
            std::thread::yield_now();
        }
    };
    for _ in 0..MIN_SPE_SAMPLES {
        runner.parallel_reduce(LoopSite(1), 4, Arc::new(Lopsided)).unwrap();
    }
    let mut seen: Vec<(Partial, bool)> = Vec::new();
    while seen.last().is_none_or(|&(_, woken)| !woken) {
        assert!(seen.len() < TEAM_PROBE_PERIOD as usize, "no team probe in a period");
        settle();
        let before = pool.completed();
        let got = runner.parallel_reduce(LoopSite(1), 4, Arc::new(body())).unwrap();
        settle();
        // The master alone books one job; a woken team one per member.
        seen.push((got, pool.completed() - before > 1));
    }
    seen
}

/// The bits of a traversal's result.
fn result_bits(p: &Partial) -> (u64, u64, Option<(u64, u64)>) {
    (p.sums.0.to_bits(), p.sums.1.to_bits(), p.stopped.map(|(t, steps)| (t.to_bits(), steps)))
}

#[test]
fn the_master_alone_and_its_woken_team_return_the_same_bits() {
    let aln = Alignment::synthetic(10, 300, &Jc69, 0.3, 11);
    let data = Arc::new(PatternAlignment::compress(&aln));
    let tree = Tree::random(10, 0.3, &mut SmallRng::seed_from_u64(11));
    let arena = Arc::new(Mutex::new(ClvArena::new()));
    for terminal in [KernelKind::Evaluate, KernelKind::MakeNewz] {
        let seen = until_the_team_probe(|| body_at(&data, &tree, EdgeId(3), terminal, &arena));
        assert!(seen.len() > 1 && !seen[0].1, "{terminal:?}: the master ran alone first");
        let want = result_bits(&seen[0].0);
        for (got, woken) in &seen {
            assert_eq!(result_bits(got), want, "{terminal:?}, woken: {woken}");
        }
        let newton = terminal == KernelKind::MakeNewz;
        assert_eq!(seen[0].0.stopped.is_some(), newton, "{terminal:?}");
    }
}

/// A chunk holds about a tree depth of pieces, not one per node: at 40 taxa
/// (78 CLVs per edge pair) everything a traversal takes fits back on the
/// free list, so the second traversal allocates nothing.
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
        // By hand over four ranges, on an arena this test can see …
        for edge in tree.edge_ids() {
            let body = body_at(&data, &tree, edge, KernelKind::MakeNewz, &arena);
            // … whose last round hands every kept piece back.
            assert!(run(&body, &partition(n, &[0.25, 0.5, 0.75])).stopped.is_some());
        }
        // … and through the engine, whose arena reports its misses.
        ScoringEngine::optimize_branches(&mut off, &mut optimized, 1, 0.0);
        let misses = (arena.lock().unwrap().stats().1, off.arena_stats().1);
        let first = *misses_after_first.get_or_insert(misses);
        assert_eq!(misses, first, "pass {pass}: the arena is still allocating");
    }
}

/// A tip takes no piece: at a 4-taxon pendant edge the far end is a
/// `newview` of a tip and a cherry, so a chunk holds the cherry's piece and
/// its parent's at once and never more — the arena hands out exactly two.
/// (When every tip held a piece, the stash drew five.)
#[test]
fn a_pendant_edge_draws_exactly_the_walks_peak() {
    let data = Arc::new(PatternAlignment::compress(&Alignment::synthetic(4, 60, &Jc69, 0.2, 4)));
    let n = data.n_patterns();
    let tree = Tree::random(4, 0.2, &mut SmallRng::seed_from_u64(4));
    let edge = tree.neighbors(0)[0].1;
    let arena = Arc::new(Mutex::new(ClvArena::new()));
    let body = body_at(&data, &tree, edge, KernelKind::Evaluate, &arena);
    let newviews = body.ops.iter().filter(|op| matches!(op, TraversalOp::Newview { .. })).count();
    assert_eq!((body.ops.len(), newviews), (6, 2), "four tips and two newviews");
    run(&body, &partition(n, &[]));
    assert_eq!(arena.lock().unwrap().stats(), (0, 2));
    assert_eq!(arena.lock().unwrap().outstanding(), (0, 0));
    // The next chunk draws the same two from the free list.
    run(&body, &partition(n, &[]));
    assert_eq!(arena.lock().unwrap().stats(), (2, 2));
}
