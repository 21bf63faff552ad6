//! Property-based tests over the core invariants of the workspace:
//! loop chunking, MGPS decisions, DMA legality, event ordering,
//! bootstrapping, and likelihood algebra.

use proptest::prelude::*;

use cellsim::dma::{DmaError, DmaList, DmaRequest};
use cellsim::params::{DMA_MAX_LIST_LEN, DMA_MAX_TRANSFER_BYTES};
use des::prelude::*;
use mgps_runtime::policy::chunk::partition;
use mgps_runtime::policy::mgps::{Directive, MgpsConfig, MgpsScheduler};
use mgps_runtime::policy::types::TaskId;
use phylo::prelude::*;

proptest! {
    /// Chunks cover 0..n exactly once, in order, for any bias/team size.
    #[test]
    fn partition_covers_exactly(
        n in 0usize..5_000,
        k in 1usize..=16,
        bias in 0.0f64..2.0,
    ) {
        let chunks = partition(n, k, bias);
        prop_assert_eq!(chunks.len(), k.min(k));
        let mut expect = 0usize;
        for c in &chunks {
            prop_assert_eq!(c.start, expect);
            prop_assert!(c.end >= c.start);
            expect = c.end;
        }
        prop_assert_eq!(expect, n);
    }

    /// When iterations outnumber the team, nobody receives an empty chunk.
    #[test]
    fn partition_feeds_every_member(
        n in 16usize..5_000,
        k in 1usize..=16,
        bias in 0.0f64..1.0,
    ) {
        prop_assume!(n >= 4 * k);
        let chunks = partition(n, k, bias);
        prop_assert!(chunks.iter().all(|c| !c.is_empty()), "{:?}", chunks);
    }

    /// MGPS directives always stay within the machine: the activated degree
    /// is between 2 and n_spes, and ⌊n_spes / T⌋ exactly.
    #[test]
    fn mgps_degree_bounds(
        n_spes in 1usize..=32,
        events in prop::collection::vec((0u64..1_000_000, 1usize..64), 1..200),
    ) {
        let mut s = MgpsScheduler::new(MgpsConfig::for_spes(n_spes));
        let mut now = 0u64;
        for (i, (dt, waiting)) in events.into_iter().enumerate() {
            now += dt;
            s.on_offload(TaskId(i as u64), now);
            let end = now + 96_000;
            if let Some(d) = s.on_departure(TaskId(i as u64), now, end, waiting) {
                match d {
                    Directive::ActivateLlp(deg) => {
                        prop_assert!(deg.0 >= 2 && deg.0 <= n_spes);
                        prop_assert_eq!(deg.0, (n_spes / waiting.max(1)).clamp(1, n_spes));
                    }
                    Directive::DeactivateLlp => {}
                }
            }
            prop_assert!(s.llp_degree().0 >= 1 && s.llp_degree().0 <= n_spes.max(1));
        }
    }

    /// The MFC accepts exactly the architected transfer sizes.
    #[test]
    fn dma_size_rules(bytes in 0usize..40_000) {
        let r = DmaRequest::new(bytes, 0, 0);
        let legal = bytes > 0
            && bytes <= 16 * 1024
            && (matches!(bytes, 1 | 2 | 4 | 8) || bytes % 16 == 0);
        prop_assert_eq!(r.is_ok(), legal, "bytes={}", bytes);
    }

    /// Misaligned addresses are always rejected; aligned ones never are
    /// (for a legal size).
    #[test]
    fn dma_alignment_rules(local in 0usize..4096, main in 0usize..4096) {
        let r = DmaRequest::new(256, local, main);
        if local % 16 == 0 && main % 16 == 0 {
            prop_assert!(r.is_ok());
        } else {
            prop_assert!(matches!(r, Err(DmaError::Misaligned(_))));
        }
    }

    /// DMA lists preserve total (padded) bytes and respect element caps.
    #[test]
    fn dma_list_structure(total in 1usize..2_000_000) {
        let list = DmaList::for_bytes(total, 0, 0).unwrap();
        let padded = total.div_ceil(16) * 16;
        prop_assert_eq!(list.total_bytes(), padded);
        prop_assert!(list.elements().len() <= DMA_MAX_LIST_LEN);
        prop_assert!(list.elements().iter().all(|e| e.bytes <= DMA_MAX_TRANSFER_BYTES));
    }

    /// The event queue fires in (time, insertion) order regardless of the
    /// insertion order of the schedule.
    #[test]
    fn event_queue_ordering(times in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut sim: Sim<Vec<(u64, usize)>> = Sim::new(Vec::new());
        for (idx, &t) in times.iter().enumerate() {
            sim.schedule_at_with(SimTime(t), |s, idx| {
                let now = s.now().0;
                s.model_mut().push((now, idx));
            }, idx);
        }
        sim.run();
        let fired = sim.model().clone();
        prop_assert_eq!(fired.len(), times.len());
        // Non-decreasing time; FIFO among equal times (insertion index
        // increases within a time class).
        for w in fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    /// Bootstrap weights always resample exactly n_sites columns.
    #[test]
    fn bootstrap_weight_conservation(seed in 0u64..1_000, n_taxa in 3usize..8, n_sites in 10usize..200) {
        let aln = Alignment::synthetic(n_taxa, n_sites, &Jc69, 0.1, seed);
        let data = PatternAlignment::compress(&aln);
        let w = bootstrap_weights(&data, seed ^ 0xabcd);
        prop_assert_eq!(w.iter().map(|&x| x as usize).sum::<usize>(), n_sites);
        prop_assert_eq!(w.len(), data.n_patterns());
    }

    /// A replicate without the patterns it did not draw scores exactly
    /// like the original alignment under the replicate's weights: the
    /// dropped patterns' terms were `0 · ln L`.
    #[test]
    fn bootstrap_compaction_preserves_the_likelihood(
        seed in 0u64..1_000,
        n_taxa in 4usize..8,
        n_sites in 10usize..120,
    ) {
        let aln = Alignment::synthetic(n_taxa, n_sites, &Jc69, 0.1, seed);
        let data = PatternAlignment::compress(&aln);
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x5eed);
        let tree = Tree::random(n_taxa, 0.1, &mut rng);
        let got = LikelihoodEngine::new(&Jc69, &bootstrap_replicate(&data, seed))
            .log_likelihood(&tree);

        // Each pattern's log-likelihood: its `evaluate` at weight 1.
        let w = bootstrap_weights(&data, seed);
        let unit = data.with_weights(vec![1; data.n_patterns()]);
        let engine = LikelihoodEngine::new(&Jc69, &unit);
        let e = phylo::tree::EdgeId(0);
        let (a, b) = tree.endpoints(e);
        let (u, v) = (engine.clv_toward(&tree, a, b), engine.clv_toward(&tree, b, a));
        let want: f64 = (0..data.n_patterns())
            .map(|i| w[i] as f64 * engine.evaluate_range(&u, &v, tree.length(e), i..i + 1))
            .sum();
        prop_assert!(
            (got - want).abs() <= 1e-9 * want.abs(),
            "replicate {} vs re-weighted original {}",
            got,
            want
        );
    }

    /// Site-pattern compression never changes the likelihood: an alignment
    /// with duplicated columns scores exactly like the weighted original.
    #[test]
    fn likelihood_invariant_under_column_duplication(seed in 0u64..200) {
        let base = Alignment::synthetic(5, 30, &Jc69, 0.12, seed);
        // Duplicate every column (same patterns, doubled weights).
        let rows: Vec<(String, String)> = (0..base.n_taxa())
            .map(|t| {
                let name = base.taxa()[t].clone();
                let seq: String = (0..base.n_sites())
                    .flat_map(|s| {
                        let ch = StateMask(base.code(t, s)).to_char();
                        [ch, ch]
                    })
                    .collect();
                (name, seq)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let doubled = Alignment::from_strings(&borrowed).unwrap();

        let d1 = PatternAlignment::compress(&base);
        let d2 = PatternAlignment::compress(&doubled);
        prop_assert_eq!(d1.n_patterns(), d2.n_patterns(), "same patterns");

        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let tree = Tree::random(5, 0.1, &mut rng);
        let l1 = LikelihoodEngine::new(&Jc69, &d1).log_likelihood(&tree);
        let l2 = LikelihoodEngine::new(&Jc69, &d2).log_likelihood(&tree);
        prop_assert!((2.0 * l1 - l2).abs() < 1e-8, "2*{} != {}", l1, l2);
    }

    /// Evaluating the likelihood at any edge of the tree gives the same
    /// value (the pruning algorithm's fundamental invariant).
    #[test]
    fn likelihood_edge_invariance(seed in 0u64..100, n_taxa in 4usize..8) {
        let aln = Alignment::synthetic(n_taxa, 40, &Jc69, 0.15, seed);
        let data = PatternAlignment::compress(&aln);
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 7);
        let tree = Tree::random(n_taxa, 0.12, &mut rng);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let base = engine.log_likelihood_at(&tree, phylo::tree::EdgeId(0));
        for e in tree.edge_ids() {
            let lnl = engine.log_likelihood_at(&tree, e);
            prop_assert!((lnl - base).abs() < 1e-7, "edge {:?}: {} vs {}", e, lnl, base);
        }
    }

    /// NNI moves always produce valid trees, and undo restores the
    /// original bipartitions.
    #[test]
    fn nni_round_trip(seed in 0u64..500, n_taxa in 4usize..16) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut tree = Tree::random(n_taxa, 0.1, &mut rng);
        let before = tree.bipartitions();
        for e in tree.internal_edges() {
            for v in 0..2u8 {
                let mv = tree.nni(e, v);
                prop_assert!(tree.validate().is_ok());
                tree.undo_nni(mv);
                prop_assert!(tree.validate().is_ok());
            }
        }
        prop_assert_eq!(tree.bipartitions(), before);
    }
}
