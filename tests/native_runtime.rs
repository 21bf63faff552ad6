//! Integration tests of the native engine: real phylogenetic kernels
//! off-loaded through the multigrain runtime must agree exactly with the
//! direct (single-threaded) computation, under every scheduler, including
//! the full parallel-analysis driver.

use std::sync::Arc;

use multigrain::prelude::*;
use multigrain::ParallelAnalysis;
use phylo::bootstrap::bootstrap_replicate;
use proptest::prelude::*;

fn data() -> Arc<PatternAlignment> {
    Arc::new(PatternAlignment::compress(&Alignment::synthetic(10, 160, &Jc69, 0.1, 77)))
}

fn quick_search() -> SearchConfig {
    SearchConfig { max_rounds: 2, branch_passes: 1, epsilon: 1e-3, initial_branch: 0.1, restarts: 1 }
}

#[test]
fn parallel_bootstraps_match_sequential_reference() {
    let data = data();
    let search = quick_search();
    const N: usize = 6;
    const SEED: u64 = 5;

    // Sequential reference with the same seeds the driver uses.
    let expected: Vec<f64> = (0..N)
        .map(|b| {
            let replicate = bootstrap_replicate(&data, SEED.wrapping_add(b as u64));
            let mut engine = LikelihoodEngine::new(&Jc69, &replicate);
            hill_climb_with(
                &mut engine,
                data.n_taxa(),
                &search,
                SEED ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
            .lnl
        })
        .collect();

    for scheduler in [
        SchedulerKind::Edtlp,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::Mgps,
    ] {
        let mut analysis = ParallelAnalysis::cell(scheduler, 3);
        analysis.search = search;
        let (results, stats) = analysis.run_bootstraps(Jc69, &data, N, SEED);
        assert_eq!(results.len(), N);
        for (b, (r, want)) in results.iter().zip(&expected).enumerate() {
            assert!(
                (r.lnl - want).abs() < 1e-6,
                "{scheduler:?} bootstrap {b}: {} vs sequential {want}",
                r.lnl
            );
            r.tree.validate().unwrap();
        }
        if scheduler == SchedulerKind::Edtlp {
            assert!(stats.context_switches > 0, "EDTLP must switch on off-load");
        }
    }
}

#[test]
fn linux_like_driver_still_computes_correctly() {
    // Hold-during-offload serializes workers but must not change results.
    let data = data();
    let mut analysis = ParallelAnalysis::cell(SchedulerKind::LinuxLike, 2);
    analysis.search = quick_search();
    let (results, stats) = analysis.run_bootstraps(Jc69, &data, 3, 11);
    assert_eq!(results.len(), 3);
    assert!(results.iter().all(|r| r.lnl.is_finite()));
    assert_eq!(stats.context_switches, 0, "the baseline never yields voluntarily");
}

#[test]
fn mgps_driver_adapts_under_low_task_parallelism() {
    let data = data();
    let mut analysis = ParallelAnalysis::cell(SchedulerKind::Mgps, 1);
    analysis.search = quick_search();
    let (_results, stats) = analysis.run_bootstraps(Jc69, &data, 2, 13);
    let (evals, acts, _) = stats.mgps.expect("MGPS stats available");
    // Whether §5.2 off-loads its requests or keeps them on the PPE, they
    // tick MGPS: off-loads close windows, PPE runs are the timer's clock.
    assert!(evals > 0, "a single worker streams enough requests to evaluate");
    assert!(acts > 0, "one worker leaves SPEs idle: LLP must activate");
    assert!(stats.final_degree > 1);
}

#[test]
fn bootstrap_support_has_one_value_per_internal_edge() {
    let data = data();
    let best = hill_climb(&Jc69, &data, &quick_search(), 3);
    let mut analysis = ParallelAnalysis::cell(SchedulerKind::Mgps, 2);
    analysis.search = quick_search();
    let (reps, _) = analysis.run_bootstraps(Jc69, &data, 4, 3);
    for r in &reps {
        r.tree.validate().unwrap();
        assert_ne!(r.lnl, best.lnl, "resampled data must change the score");
    }
    let trees: Vec<Tree> = reps.into_iter().map(|r| r.tree).collect();
    let support = support_values(&best.tree, &trees);
    assert_eq!(support.len(), data.n_taxa() - 3);
    assert!(support.iter().all(|s| (0.0..=1.0).contains(s)), "{support:?}");
}

/// Each bootstrap `run_bootstraps` returns under `model` scores as the
/// direct engine does over that model, on its replicate at its tree.
fn replicates_match_the_direct_engine<M: SubstModel<S> + Clone + 'static, const S: usize>(
    model: M,
    data: &Arc<PatternAlignment<S>>,
    seed: u64,
) -> TestCaseResult {
    let mut analysis = ParallelAnalysis::cell(SchedulerKind::Mgps, 2);
    analysis.search = quick_search();
    let (reps, _) = analysis.run_bootstraps(model.clone(), data, 2, seed);
    prop_assert_eq!(reps.len(), 2);
    for (b, r) in reps.iter().enumerate() {
        let replicate = bootstrap_replicate(data, seed.wrapping_add(b as u64));
        let want = LikelihoodEngine::new(&model, &replicate).log_likelihood(&r.tree);
        prop_assert!((r.lnl - want).abs() < 1e-9, "bootstrap {}: {} vs direct {}", b, r.lnl, want);
    }
    Ok(())
}

proptest! {
    /// +Γ bootstraps on the runtime, DNA and protein, are the direct
    /// engine's over the same model within 1e-9.
    #[test]
    fn gamma_and_protein_bootstraps_match_the_direct_engine(
        alpha in 0.1f64..10.0,
        seed in 0u64..u64::MAX,
    ) {
        let dna = Alignment::synthetic(5, 24, &Jc69, 0.1, seed);
        let dna = Arc::new(PatternAlignment::compress(&dna));
        replicates_match_the_direct_engine(Gamma::new(Jc69, alpha, 4), &dna, seed)?;
        let aa = Alignment::<AA_STATES>::synthetic(4, 12, &PoissonAa, 0.3, seed);
        let aa = Arc::new(PatternAlignment::compress(&aa));
        replicates_match_the_direct_engine(Gamma::new(PoissonAa, alpha, 4), &aa, seed)?;
    }
}

#[test]
fn offloaded_engine_identical_under_every_loop_degree() {
    let data = data();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
    use rand::SeedableRng;
    let tree = Tree::random(data.n_taxa(), 0.15, &mut rng);
    let want = LikelihoodEngine::new(&Jc69, &data).log_likelihood(&tree);

    for degree in [1, 2, 3, 5, 8] {
        // Twice, on fresh runtimes: partials are merged in chunk order, so
        // who finished first must not show in the last bit.
        let lnl = [(); 2].map(|()| {
            let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
                spes_per_loop: degree,
            }));
            let mut ctx = rt.enter_process();
            let mut engine = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
            engine.log_likelihood(&tree)
        });
        assert!(
            (lnl[0] - want).abs() < 1e-9,
            "degree {degree}: {} vs {want}",
            lnl[0]
        );
        assert_eq!(
            lnl[0].to_bits(),
            lnl[1].to_bits(),
            "degree {degree}: {} then {}",
            lnl[0],
            lnl[1]
        );
    }
}

#[test]
fn fewer_patterns_than_the_loop_degree() {
    // Four patterns (a bootstrap replicate of them fewer still) under five
    // and eight SPEs per loop: some chunks are empty ranges, and their CLV
    // pieces share a first pattern.
    let aln = Alignment::from_strings(&[
        ("ta", "AAAACCCCGT"),
        ("tb", "AAAACCCCGT"),
        ("tc", "AAAACCCCGA"),
        ("td", "AAAACCCCTA"),
        ("te", "AAAACCCCTA"),
    ])
    .unwrap();
    let full = PatternAlignment::compress(&aln);
    let replicate = bootstrap_replicate(&full, 3);
    assert_eq!(full.n_patterns(), 4);
    assert!(replicate.n_patterns() < 4, "seed 3 drops a pattern");
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(21);
    let tree0 = Tree::random(5, 0.2, &mut rng);

    for data in [full, replicate].map(Arc::new) {
        let direct = LikelihoodEngine::new(&Jc69, &data);
        let want_lnl = direct.log_likelihood(&tree0);
        let mut want_tree = tree0.clone();
        let want_opt = direct.optimize_branches(&mut want_tree, 3, 1e-6);

        for degree in [5, 8] {
            let runs = [(); 2].map(|()| {
                let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
                    spes_per_loop: degree,
                }));
                let mut ctx = rt.enter_process();
                let mut engine = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
                let lnl = engine.log_likelihood(&tree0);
                let mut tree = tree0.clone();
                let opt = ScoringEngine::optimize_branches(&mut engine, &mut tree, 3, 1e-6);
                (lnl, opt, tree)
            });
            let n = data.n_patterns();
            let (lnl, opt, tree) = &runs[0];
            let at = format!("{n} patterns, degree {degree}");
            assert!((lnl - want_lnl).abs() < 1e-9, "{at}: {lnl} vs {want_lnl}");
            assert!((opt - want_opt).abs() < 1e-9, "{at}: {opt} vs {want_opt}");
            for e in tree.edge_ids() {
                assert!((tree.length(e) - want_tree.length(e)).abs() < 1e-9, "branch {e:?}");
            }
            let (lnl2, opt2, tree2) = &runs[1];
            assert_eq!(lnl.to_bits(), lnl2.to_bits(), "{at}");
            assert_eq!(opt.to_bits(), opt2.to_bits(), "{at}");
            for e in tree.edge_ids() {
                assert_eq!(tree.length(e).to_bits(), tree2.length(e).to_bits(), "branch {e:?}");
            }
        }
    }
}

#[test]
fn worker_panic_does_not_poison_the_runtime() {
    use std::ops::Range;
    struct Bomb;
    impl LoopBody for Bomb {
        type Acc = ();
        fn len(&self) -> usize {
            8
        }
        fn identity(&self) {}
        fn run_chunk(&self, _r: Range<usize>, _ctx: &mut SpeContext) {
            panic!("injected kernel failure");
        }
        fn merge(&self, _a: (), _b: ()) {}
    }

    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    {
        let mut ctx = rt.enter_process();
        let err = ctx.offload_loop(LoopSite(99), Arc::new(Bomb));
        assert_eq!(err.unwrap_err(), OffloadError::TaskPanicked);
    }
    // The runtime (and all SPEs) remain serviceable afterwards.
    let data = data();
    let mut ctx = rt.enter_process();
    let mut engine = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    let tree = Tree::random(data.n_taxa(), 0.1, &mut rng);
    assert!(engine.log_likelihood(&tree).is_finite());
}

#[test]
fn every_shipped_offload_lands_in_exactly_one_spes_count() {
    let data = data();
    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    let (shipped, kernels) = {
        let mut ctx = rt.enter_process();
        let mut engine = OffloadedEngine::new(&mut ctx, Jc69, Arc::clone(&data));
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let mut tree = Tree::random(data.n_taxa(), 0.1, &mut rng);
        // Two scores and an optimization: three search requests.
        engine.log_likelihood(&tree);
        let _ = ScoringEngine::optimize_branches(&mut engine, &mut tree, 1, 0.0);
        engine.log_likelihood(&tree);
        (engine.shipped(), engine.offloads())
    };
    assert_eq!(shipped, 3, "one off-load per search request");
    let stats = rt.shutdown();
    let total: u64 = stats.iter().map(|s| s.tasks_run).sum();
    assert_eq!(
        total, shipped,
        "every off-load must appear in exactly one SPE's task count"
    );
    // An off-load is a request: every kernel it needed rode inside it.
    assert!(kernels > shipped, "{kernels} kernels in {shipped} off-loads");
}

#[test]
fn a_returned_offload_has_left_its_spe_idle_and_counted() {
    use multigrain::mgps_runtime::metrics::{AtomicMetrics, Counter};
    use std::ops::Range;

    /// Reports the SPE it ran on; panics when asked to.
    struct Probe {
        bomb: bool,
    }
    impl LoopBody for Probe {
        type Acc = usize;
        fn len(&self) -> usize {
            1
        }
        fn identity(&self) -> usize {
            usize::MAX
        }
        fn run_chunk(&self, _r: Range<usize>, ctx: &mut SpeContext) -> usize {
            assert!(!self.bomb, "injected kernel failure");
            ctx.id.0
        }
        fn merge(&self, a: usize, b: usize) -> usize {
            a.min(b)
        }
    }

    let metrics = Arc::new(AtomicMetrics::new());
    let rt = MgpsRuntime::with_metrics(
        RuntimeConfig::cell(SchedulerKind::Edtlp),
        Arc::<AtomicMetrics>::clone(&metrics),
    );
    let mut ctx = rt.enter_process();
    let mut spes = std::collections::BTreeSet::new();
    for n in 1..=100u64 {
        // One in ten kernels panics; its `Err` is published like a result.
        let bomb = n % 10 == 0;
        match ctx.offload_loop(LoopSite(1), Arc::new(Probe { bomb })) {
            Ok(spe) => {
                assert!(!bomb);
                spes.insert(spe);
            }
            Err(e) => assert_eq!((e, bomb), (OffloadError::TaskPanicked, true)),
        }
        // By the time the off-load returns, the books are done: nothing
        // here waits, yields or retries.
        assert_eq!(rt.idle_spes(), 8, "after off-load {n}");
        assert_eq!(metrics.get(Counter::TasksCompleted), n);
    }
    // And the process kept getting the SPE it used last.
    assert_eq!(spes.len(), 1, "one process, one SPE: {spes:?}");
}
