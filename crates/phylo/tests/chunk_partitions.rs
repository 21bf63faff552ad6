//! Chunked/whole kernel equivalence.
//!
//! The work-sharing teams split the pattern space into arbitrary chunks,
//! so any partition of `0..n` must reproduce the whole-range kernels —
//! for `newview` bit-identically (values *and* scaling exponents: the
//! scale-carry at chunk boundaries is the historical bug class), for the
//! `evaluate`/derivative sums up to FP reassociation of the partial sums.
//! A child may be a tip operand, read from the alignment: its chunks are
//! the materialized tip CLV's. A kernel's `_with` form, its factors built
//! once and shared by every chunk, is its per-call form to the bit.

use phylo::alignment::{Alignment, PatternAlignment};
use phylo::likelihood::{Clv, ClvArena, LikelihoodEngine, Operand};
use phylo::model::{Gtr, Jc69};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A CLV with adversarial contents: magnitudes straddling the rescaling
/// threshold (so chunk boundaries land next to rescale decisions) and
/// nonzero incoming scale exponents (the carry that must survive
/// chunking).
fn random_clv(n: usize, rng: &mut SmallRng) -> Clv {
    let mut vals = Vec::with_capacity(n * 4);
    let mut scale = Vec::with_capacity(n);
    for _ in 0..n {
        for _ in 0..4 {
            let mag = match rng.gen_range(0..4u8) {
                0 => 1e-110, // below SCALE_THRESHOLD: forces rescaling
                1 => 1e-60,
                _ => 0.5,
            };
            vals.push(mag * (0.5 + rng.gen::<f64>()));
        }
        scale.push(rng.gen_range(0..3u32));
    }
    Clv::from_raw(vals, scale)
}

/// Like [`random_clv`], but honoring the invariant rescaling maintains:
/// at least one state per pattern is of normal magnitude. `evaluate` /
/// derivative inputs always satisfy this (they are rescaled `newview`
/// outputs); without it `l·l` underflows and the derivative ratio is
/// legitimately NaN.
fn random_rescaled_clv(n: usize, rng: &mut SmallRng) -> Clv {
    let (mut vals, scale) = random_clv(n, rng).into_raw();
    for p in 0..n {
        let anchor = rng.gen_range(0..4);
        vals[p * 4 + anchor] = 0.2 + rng.gen::<f64>();
    }
    Clv::from_raw(vals, scale)
}

/// Turn fractional cut points into a sorted partition of `0..n`.
fn partition(n: usize, cuts: &[f64]) -> Vec<usize> {
    let mut bounds: Vec<usize> = cuts.iter().map(|f| (f * n as f64) as usize).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

proptest! {
    /// Any partition of the pattern space, its pieces laid end to end,
    /// reproduces the whole-range `newview` bit-for-bit — values and
    /// scaling exponents — whether each child is a CLV or a tip.
    #[test]
    fn newview_over_any_partition_is_bit_identical(
        seed in 0u64..u64::MAX,
        sites in 8usize..160,
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
        pairing in 0u8..4,
    ) {
        let aln = Alignment::synthetic(4, sites, &Jc69, 0.3, seed ^ 0xA5A5);
        let data = PatternAlignment::compress(&aln);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let n = data.n_patterns();
        let mut rng = SmallRng::seed_from_u64(seed);
        let (left, right) = (random_clv(n, &mut rng), random_clv(n, &mut rng));
        let (tl, tr) = (rng.gen_range(1e-4..2.0), rng.gen_range(1e-4..2.0));
        let tips = [engine.tip_clv(0), engine.tip_clv(1)];
        let clvs = [&left, &right];
        // Child `s` as an operand, and as the CLV it stands for.
        let child = |s: usize| -> (Operand<&Clv>, &Clv) {
            if pairing >> s & 1 == 1 {
                (Operand::Tip(s), &tips[s])
            } else {
                (Operand::Clv(clvs[s]), clvs[s])
            }
        };
        let ((l, whole_l), (r, whole_r)) = (child(0), child(1));

        let whole = engine.newview(whole_l, tl, whole_r, tr);
        if pairing == 0 {
            prop_assert!(whole.total_scalings() > 0, "adversarial CLVs should force rescaling");
        }

        let bounds = partition(n, &cuts);
        let mut arena = ClvArena::new();
        let (mut vals, mut scale) = (Vec::new(), Vec::new());
        for w in bounds.windows(2) {
            let mut piece = arena.take(w[1] - w[0]);
            engine.newview_range_into(l, tl, r, tr, w[0]..w[1], &mut piece);
            let (v, s) = piece.as_raw();
            vals.extend_from_slice(v);
            scale.extend_from_slice(s);
            arena.put(piece);
        }
        prop_assert_eq!(&whole, &Clv::from_raw(vals, scale));
    }

    /// Partial `evaluate`/derivative sums over any partition reproduce the
    /// whole-range sums (up to reassociation of the partials).
    #[test]
    fn evaluate_and_derivatives_over_any_partition_sum_to_whole(
        seed in 0u64..u64::MAX,
        sites in 8usize..160,
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let aln = Alignment::synthetic(4, sites, &Jc69, 0.3, seed ^ 0x5A5A);
        let data = PatternAlignment::compress(&aln);
        let engine = LikelihoodEngine::new(&Jc69, &data);
        let n = data.n_patterns();
        let mut rng = SmallRng::seed_from_u64(seed);
        let u = random_rescaled_clv(n, &mut rng);
        let v = random_rescaled_clv(n, &mut rng);
        let t = rng.gen_range(1e-4..2.0);

        let whole = engine.evaluate(&u, &v, t);
        let table = engine.edge_table(&u, &v);
        let (wd1, wd2) = engine.table_derivatives(&table, t, 0..n);
        let bounds = partition(n, &cuts);
        let (mut sum, mut d1, mut d2) = (0.0, 0.0, 0.0);
        for w in bounds.windows(2) {
            let range = w[0]..w[1];
            sum += engine.evaluate_range(&u, &v, t, range.clone());
            // A chunk's own table piece is the whole table's rows.
            let mut piece = ClvArena::new().take_table(range.len());
            engine.edge_table_range(&u, &v, range.clone(), &mut piece);
            prop_assert_eq!(piece.as_raw(), &table.as_raw()[w[0] * 4..w[1] * 4]);
            let (a, b) = engine.table_derivatives(&piece, t, range.clone());
            prop_assert_eq!((a, b), engine.table_derivatives(&table, t, range));
            d1 += a;
            d2 += b;
        }
        let tol = 1e-9 * (1.0 + whole.abs());
        prop_assert!((sum - whole).abs() < tol, "evaluate: {sum} vs {whole}");
        prop_assert!((d1 - wd1).abs() < 1e-9 * (1.0 + wd1.abs()), "d1: {d1} vs {wd1}");
        prop_assert!((d2 - wd2).abs() < 1e-9 * (1.0 + wd2.abs()), "d2: {d2} vs {wd2}");
    }
}

/// The bits of `vals`.
fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Each `_with` form is its per-call form to the bit, under every
    /// tip/CLV pairing and over any partition: a transition, the eigen
    /// basis and the Newton factors built once for the whole pattern space
    /// hold the same products a call builds for its own chunk.
    #[test]
    fn the_with_forms_are_the_per_call_kernels_to_the_bit(
        seed in 0u64..u64::MAX,
        sites in 8usize..160,
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
        pairing in 0u8..4,
    ) {
        let aln = Alignment::synthetic(4, sites, &Jc69, 0.3, seed ^ 0x3C3C);
        let data = PatternAlignment::compress(&aln);
        let model = Gtr::example();
        let engine = LikelihoodEngine::new(&model, &data);
        let n = data.n_patterns();
        let mut rng = SmallRng::seed_from_u64(seed);
        let clvs = [random_rescaled_clv(n, &mut rng), random_rescaled_clv(n, &mut rng)];
        let op = |s: usize| {
            if pairing >> s & 1 == 1 { Operand::Tip(s) } else { Operand::Clv(&clvs[s]) }
        };
        let (l, r) = (op(0), op(1));
        let (tl, tr) = (rng.gen_range(1e-4..2.0), rng.gen_range(1e-4..2.0));
        let (p_l, p_r) = (engine.transition(tl), engine.transition(tr));
        let (basis, factors) = (engine.eigen_basis(), engine.newton_factors(tl));

        let mut arena = ClvArena::new();
        for w in partition(n, &cuts).windows(2) {
            let (range, len) = (w[0]..w[1], w[1] - w[0]);
            let (mut want, mut got) = (arena.take(len), arena.take(len));
            engine.newview_range_into(l, tl, r, tr, range.clone(), &mut want);
            engine.newview_range_with(l, &p_l, r, &p_r, range.clone(), &mut got);
            let ((wv, ws), (gv, gs)) = (want.as_raw(), got.as_raw());
            prop_assert_eq!((bits(wv), ws), (bits(gv), gs), "newview over {:?}", range);

            let want = engine.evaluate_range(l, r, tl, range.clone());
            let got = engine.evaluate_range_with(l, r, &p_l, range.clone());
            prop_assert_eq!(want.to_bits(), got.to_bits(), "evaluate over {:?}", range);

            let (mut want, mut got) = (arena.take_table(len), arena.take_table(len));
            engine.edge_table_range(l, r, range.clone(), &mut want);
            engine.edge_table_range_with(l, r, &basis, range.clone(), &mut got);
            prop_assert_eq!(bits(want.as_raw()), bits(got.as_raw()), "table over {:?}", range);

            let (d1, d2) = engine.table_derivatives(&want, tl, range.clone());
            let (g1, g2) = engine.table_derivatives_with(&want, &factors, range.clone());
            prop_assert_eq!((d1.to_bits(), d2.to_bits()), (g1.to_bits(), g2.to_bits()));
        }
    }
}

/// The arena recycles storage (hits after warm-up) and recycled buffers
/// produce the same chunks as fresh ones.
#[test]
fn clv_arena_reuses_storage_without_changing_results() {
    let aln = Alignment::synthetic(4, 120, &Jc69, 0.2, 5);
    let data = PatternAlignment::compress(&aln);
    let engine = LikelihoodEngine::new(&Jc69, &data);
    let n = data.n_patterns();
    let (l, r) = (Operand::Tip(0), Operand::Tip(1));

    let mut arena = ClvArena::new();
    let mut fresh = Clv::from_raw(vec![0.0; 4 * n], vec![0; n]);
    engine.newview_range_into(l, 0.1, r, 0.2, 0..n, &mut fresh);
    for _ in 0..8 {
        let mut piece = arena.take(n);
        engine.newview_range_into(l, 0.1, r, 0.2, 0..n, &mut piece);
        assert_eq!(piece, fresh);
        arena.put(piece);
        // Differently-sized chunks reuse the same (larger) storage.
        let mut half = arena.take(n / 2);
        engine.newview_range_into(l, 0.1, r, 0.2, 0..n / 2, &mut half);
        assert_eq!(half.n_patterns(), n / 2);
        assert_eq!(half.pattern(0), fresh.pattern(0));
        arena.put(half);
    }
    let (hits, misses) = arena.stats();
    assert!(hits >= 14, "arena should recycle, got {hits} hits / {misses} misses");
    assert!(misses <= 2, "at most the warm-up allocations may miss, got {misses}");
}
