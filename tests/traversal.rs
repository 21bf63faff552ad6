//! Pins on the one tree traversal (`phylo::traversal`) every likelihood
//! engine runs through: the kernel census the benchmark anchors as
//! `kernel_calls`, one off-load per search request, and the agreement of
//! the off-loading engine with the direct one, to the bit where the
//! arithmetic is the same.

use std::sync::Arc;

use multigrain::prelude::*;
use phylo::likelihood::{newton_branch_length, Operand, NEWTON_MAX_ITERS};
use phylo::traversal::{self, Kernels};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn data(n_taxa: usize) -> Arc<PatternAlignment> {
    Arc::new(PatternAlignment::compress(&Alignment::synthetic(n_taxa, 120, &Jc69, 0.1, 11)))
}

/// The direct kernels with a counter on each: what the shared walk asks of
/// a provider, kernel by kernel. `derivs` counts Newton iterations, the
/// unit the off-loading engine counts `makenewz` in; `edges` the
/// `makenewz` calls. `requests` counts what the search asks of it, scores
/// and branch-length optimizations, the unit the off-loading engine ships.
struct Counting<'e> {
    inner: &'e LikelihoodEngine<'e, Jc69>,
    tips: u64,
    newviews: u64,
    evaluates: u64,
    edges: u64,
    derivs: u64,
    requests: u64,
}

impl<'e> Counting<'e> {
    fn new(inner: &'e LikelihoodEngine<'e, Jc69>) -> Self {
        Counting { inner, tips: 0, newviews: 0, evaluates: 0, edges: 0, derivs: 0, requests: 0 }
    }

    /// Kernel invocations, as the off-loading engine counts them.
    fn kernels(&self) -> u64 {
        self.newviews + self.evaluates + self.derivs
    }
}

/// Each kernel is the direct engine's own, on its operands: a tip is
/// counted, never materialized.
impl Kernels for Counting<'_> {
    type Clv = Operand<Clv>;

    fn tip(&mut self, taxon: usize) -> Operand<Clv> {
        self.tips += 1;
        Kernels::tip(&mut self.inner, taxon)
    }

    fn newview(&mut self, left: Self::Clv, t_l: f64, right: Self::Clv, t_r: f64) -> Self::Clv {
        self.newviews += 1;
        Kernels::newview(&mut self.inner, left, t_l, right, t_r)
    }

    fn evaluate(&mut self, u: Operand<Clv>, v: Operand<Clv>, t: f64) -> f64 {
        self.evaluates += 1;
        Kernels::evaluate(&mut self.inner, u, v, t)
    }

    fn optimize_edge(&mut self, u: Operand<Clv>, v: Operand<Clv>, t0: f64) -> f64 {
        self.edges += 1;
        let table = self.inner.edge_table(u.as_ref(), v.as_ref());
        let all = 0..self.inner.data().n_patterns();
        newton_branch_length(t0, |t| {
            self.derivs += 1;
            self.inner.table_derivatives(&table, t, all.clone())
        })
    }
}

#[test]
fn the_walk_calls_the_kernels_the_anchored_number_of_times() {
    for n in [4u64, 8, 12] {
        let data = data(n as usize);
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let mut rng = SmallRng::seed_from_u64(5);
        let tree = Tree::random(n as usize, 0.3, &mut rng);

        // A score: one newview per internal node, one evaluate.
        let mut k = Counting::new(&direct);
        let lnl = traversal::score(&mut k, &tree);
        assert_eq!(lnl.to_bits(), direct.log_likelihood(&tree).to_bits(), "n={n}");
        assert_eq!((k.tips, k.newviews, k.evaluates, k.derivs), (n, n - 2, 1, 0), "n={n}");

        // One pass (epsilon 0 never converges early): a score, then every
        // one of the 2n-3 edges rebuilds its pair and runs Newton, then a
        // score again.
        let mut k = Counting::new(&direct);
        let mut walked = tree.clone();
        let lnl = traversal::optimize_branches(&mut k, &mut walked, 1, 0.0);
        let edges = 2 * n - 3;
        assert_eq!(k.newviews, edges * (n - 2) + 2 * (n - 2), "n={n}");
        assert_eq!((k.evaluates, k.edges), (2, edges), "n={n}");
        assert!((edges..=edges * NEWTON_MAX_ITERS as u64).contains(&k.derivs), "n={n}");

        // The direct engine is that walk, and the off-loading engine counts
        // exactly those kernels — while shipping the whole optimization,
        // every score, edge and Newton step of it, as one off-load.
        let mut optimized = tree.clone();
        assert_eq!(direct.optimize_branches(&mut optimized, 1, 0.0).to_bits(), lnl.to_bits());
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        let mut ctx = rt.enter_process();
        let mut off = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        let mut offloaded = tree.clone();
        ScoringEngine::optimize_branches(&mut off, &mut offloaded, 1, 0.0);
        assert_eq!(off.offloads(), k.kernels(), "n={n}");
        assert_eq!(off.shipped(), 1, "n={n}");
    }
}

/// The search's view of [`Counting`].
impl ScoringEngine for Counting<'_> {
    fn score(&mut self, tree: &Tree) -> f64 {
        self.requests += 1;
        traversal::score(self, tree)
    }

    fn optimize_branches(&mut self, tree: &mut Tree, max_passes: usize, epsilon: f64) -> f64 {
        self.requests += 1;
        traversal::optimize_branches(self, tree, max_passes, epsilon)
    }
}

#[test]
fn a_default_search_ships_one_offload_per_request() {
    // The benchmark's shape: 6 taxa, 120 sites, the default search.
    let data = Arc::new(PatternAlignment::compress(&Alignment::synthetic(6, 120, &Jc69, 0.1, 11)));
    let direct = LikelihoodEngine::new(&Jc69, &data);
    let cfg = phylo::search::SearchConfig::default();
    let mut k = Counting::new(&direct);
    let want = phylo::search::hill_climb_with(&mut k, 6, &cfg, 7);

    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    let mut ctx = rt.enter_process();
    let mut off = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
    let got = phylo::search::hill_climb_with(&mut off, 6, &cfg, 7);
    assert_eq!(got.lnl.to_bits(), want.lnl.to_bits());
    assert_eq!(off.offloads(), k.kernels());
    assert_eq!(off.shipped(), k.requests);
    assert!(
        off.shipped() as f64 <= 0.01 * off.offloads() as f64,
        "{} off-loads for {} kernels",
        off.shipped(),
        off.offloads()
    );
}

proptest! {
    /// A branch-length optimization is one off-load whatever its size: the
    /// direct engine's bits on the lnL and on every length (degree 1), and
    /// every kernel of the walk counted.
    #[test]
    fn one_offload_per_optimization_counts_every_kernel(
        seed in 0u64..u64::MAX,
        taxa in 4usize..=10,
        max_passes in 0usize..=3,
        epsilon in (0usize..3).prop_map(|i| [0.0, 1e-4, 1e9][i]),
    ) {
        let data = Arc::new(PatternAlignment::compress(&Alignment::synthetic(
            taxa, 90, &Jc69, 0.3, seed ^ 0x5A5A,
        )));
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let tree = Tree::random(taxa, 0.3, &mut SmallRng::seed_from_u64(seed));
        let mut k = Counting::new(&direct);
        let mut want = tree.clone();
        let want_lnl = ScoringEngine::optimize_branches(&mut k, &mut want, max_passes, epsilon);

        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        let mut ctx = rt.enter_process();
        let mut off = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        let mut got = tree.clone();
        let lnl = ScoringEngine::optimize_branches(&mut off, &mut got, max_passes, epsilon);
        prop_assert_eq!(lnl.to_bits(), want_lnl.to_bits());
        for e in tree.edge_ids() {
            prop_assert_eq!(got.length(e).to_bits(), want.length(e).to_bits(), "branch {:?}", e);
        }
        prop_assert_eq!(off.offloads(), k.kernels());
        prop_assert_eq!(off.shipped(), 1);
    }
}

#[test]
fn an_internal_node_without_exactly_two_children_is_refused_by_every_engine() {
    // A three-taxon star seen from outside: walking *into* the centre from
    // a non-neighbour leaves it three children.
    let data = data(3);
    let tree = Tree::random(3, 0.1, &mut SmallRng::seed_from_u64(1));
    let centre = 3;
    let outside = usize::MAX;
    let refused = |f: &mut dyn FnMut()| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    };
    let direct = LikelihoodEngine::new(&Jc69, &data);
    assert!(refused(&mut || drop(direct.clv_toward(&tree, centre, outside))));
    let gamma = Gamma::new(Jc69, 0.5, 4);
    let gamma = LikelihoodEngine::new(&gamma, &data);
    assert!(refused(&mut || drop(gamma.clv_toward(&tree, centre, outside))));
    let aa = Alignment::<AA_STATES>::from_strings(&[("a", "AR"), ("b", "AR"), ("c", "AK")]);
    let aa = PatternAlignment::compress(&aa.unwrap());
    let protein = LikelihoodEngine::new(&PoissonAa, &aa);
    assert!(refused(&mut || drop(protein.clv_toward(&tree, centre, outside))));
}

#[test]
fn the_offloaded_engine_agrees_with_the_direct_one() {
    let data = data(8);
    let direct = LikelihoodEngine::new(&Jc69, &data);
    let mut rng = SmallRng::seed_from_u64(9);
    let tree = Tree::random(8, 0.3, &mut rng);
    let want_score = direct.log_likelihood(&tree);
    let mut want_tree = tree.clone();
    let want_lnl = direct.optimize_branches(&mut want_tree, 3, 1e-6);

    for sched in [
        SchedulerKind::Edtlp,
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(sched));
        let mut ctx = rt.enter_process();
        let mut off = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        let score = off.log_likelihood(&tree);
        let mut got_tree = tree.clone();
        let lnl = ScoringEngine::optimize_branches(&mut off, &mut got_tree, 3, 1e-6);

        if sched == SchedulerKind::Edtlp {
            // Degree 1: each kernel is the direct kernel run elsewhere, so
            // nothing may differ — not the score, not one branch length.
            assert_eq!(score.to_bits(), want_score.to_bits(), "{sched:?}");
            assert_eq!(lnl.to_bits(), want_lnl.to_bits(), "{sched:?}");
            for e in tree.edge_ids() {
                assert_eq!(
                    got_tree.length(e).to_bits(),
                    want_tree.length(e).to_bits(),
                    "{sched:?}: branch {e:?}"
                );
            }
        } else {
            // Degree > 1 (fixed at 4, or whatever MGPS settles on): the
            // `evaluate` and derivative sums are per-chunk partials merged
            // in chunk order — deterministic, but a different association
            // of the same additions than the direct engine's single pass,
            // so the last bits may differ and a tolerance stays.
            assert!((score - want_score).abs() < 1e-9, "{sched:?}: {score} vs {want_score}");
            assert!((lnl - want_lnl).abs() < 1e-6, "{sched:?}: {lnl} vs {want_lnl}");
            for e in tree.edge_ids() {
                assert!(
                    (got_tree.length(e) - want_tree.length(e)).abs() < 1e-6,
                    "{sched:?}: branch {e:?}"
                );
            }
        }
    }
}
