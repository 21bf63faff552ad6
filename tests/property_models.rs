//! Property tests over the extended model layer: GTR spectral matrices,
//! discrete-Γ rates, Newick round trips, and SPR round trips at scale.

use proptest::prelude::*;

use phylo::prelude::*;

fn gtr_strategy() -> impl Strategy<Value = Gtr> {
    (
        prop::array::uniform6(0.05f64..5.0),
        (0.05f64..1.0, 0.05f64..1.0, 0.05f64..1.0, 0.05f64..1.0),
    )
        .prop_map(|(rates, (a, c, g, t))| {
            let sum = a + c + g + t;
            Gtr::new(rates, [a / sum, c / sum, g / sum, t / sum])
        })
}

proptest! {
    /// Every GTR instance produces stochastic matrices that are the
    /// identity at t=0, converge to π, and satisfy detailed balance.
    #[test]
    fn gtr_matrices_are_stochastic_and_reversible(
        gtr in gtr_strategy(),
        t in 0.0f64..5.0,
    ) {
        let p = gtr.prob_matrix(t);
        for (x, row) in p.iter().enumerate() {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "row {x} sums to {sum}");
            for &v in row {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "p = {v}");
            }
        }
        let pi = gtr.base_freqs();
        for x in 0..4 {
            for y in 0..4 {
                prop_assert!(
                    (pi[x] * p[x][y] - pi[y] * p[y][x]).abs() < 1e-9,
                    "detailed balance at ({x},{y})"
                );
            }
        }
    }

    /// The `makenewz` derivatives match central finite differences of the
    /// log-likelihood for random GTR models: the edge table's spectral
    /// basis is the model's.
    #[test]
    fn gtr_derivatives_match_finite_differences(
        gtr in gtr_strategy(),
        t in 0.01f64..2.0,
        seed in 0u64..1_000,
    ) {
        use rand::SeedableRng;
        let data = PatternAlignment::compress(&Alignment::synthetic(5, 80, &gtr, 0.2, seed));
        let engine = LikelihoodEngine::new(&gtr, &data);
        let tree = Tree::random(5, 0.2, &mut rand::rngs::SmallRng::seed_from_u64(seed));
        let (a, b) = tree.endpoints(phylo::tree::EdgeId(0));
        let (u, v) = (engine.clv_toward(&tree, a, b), engine.clv_toward(&tree, b, a));
        let table = engine.edge_table(&u, &v);
        let (d1, _) = engine.table_derivatives(&table, t, 0..data.n_patterns());
        let h = 1e-6;
        let fd = (engine.evaluate(&u, &v, t + h) - engine.evaluate(&u, &v, t - h)) / (2.0 * h);
        prop_assert!((d1 - fd).abs() < 1e-5 * (1.0 + fd.abs()), "d1 {} vs {}", d1, fd);
    }

    /// Discrete-Γ rates are non-negative, ascending, and mean-1 for any
    /// shape and category count.
    #[test]
    fn gamma_rates_invariants(alpha in 0.05f64..100.0, k in 1usize..=16) {
        let rates = discrete_gamma_rates(alpha, k);
        prop_assert_eq!(rates.len(), k);
        let mean: f64 = rates.iter().sum::<f64>() / k as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9, "mean {}", mean);
        for w in rates.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!(rates.iter().all(|&r| r >= 0.0));
    }

    /// Newick render→parse is the identity on topology and lengths.
    #[test]
    fn newick_round_trip(seed in 0u64..2_000, n in 2usize..20) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let tree = Tree::random(n, 0.2, &mut rng);
        let taxa: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        let text = tree.to_newick(&taxa);
        let back = parse_newick(&text, &taxa).unwrap();
        prop_assert_eq!(back.bipartitions(), tree.bipartitions());
        prop_assert!((back.total_length() - tree.total_length()).abs() < 1e-3);
    }

    /// A random SPR move applies and undoes cleanly on any tree.
    #[test]
    fn spr_random_round_trip(seed in 0u64..2_000, n in 5usize..24) {
        use rand::SeedableRng;
        use rand::Rng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut tree = Tree::random(n, 0.1, &mut rng);
        let before = tree.bipartitions();
        let prune_idx = rng.gen_range(0..tree.n_edges());
        let prune = phylo::tree::EdgeId(prune_idx);
        let (a, b) = tree.endpoints(prune);
        let root = if rng.gen_bool(0.5) { a } else { b };
        let radius = rng.gen_range(1..5);
        let targets = tree.spr_targets(prune, root, radius);
        if let Some(&target) = targets.first() {
            let mv = tree.spr(prune, root, target);
            prop_assert!(tree.validate().is_ok());
            tree.undo_spr(mv);
            prop_assert!(tree.validate().is_ok());
            prop_assert_eq!(tree.bipartitions(), before);
        }
    }

    /// Γ-mixture likelihood is finite and bounded per site: the average
    /// over categories cannot exceed the per-site maximum category, and
    /// cannot fall below the per-site minimum.
    #[test]
    fn gamma_mixture_is_bounded_per_site(seed in 0u64..100) {
        use rand::SeedableRng;
        let aln = Alignment::synthetic(5, 40, &Jc69, 0.2, seed);
        let data = PatternAlignment::compress(&aln);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 99);
        let tree = Tree::random(5, 0.15, &mut rng);
        let gamma = Gamma::new(Jc69, 0.5, 4);
        let engine = LikelihoodEngine::new(&gamma, &data);
        let mix = engine.log_likelihood(&tree);
        prop_assert!(mix.is_finite());

        // Per-site per-category likelihoods (no rescaling on this tiny
        // tree: all exps 0), each site's mixture term its `evaluate` over
        // the one pattern.
        let e0 = phylo::tree::EdgeId(0);
        let (a, b) = tree.endpoints(e0);
        let (cu, cv) = (engine.clv_toward(&tree, a, b), engine.clv_toward(&tree, b, a));
        prop_assert!(cu.as_raw().1.iter().chain(cv.as_raw().1).all(|&e| e == 0));
        let mut upper = 0.0f64;
        let mut lower = 0.0f64;
        for (i, &w) in data.weights().iter().enumerate() {
            let terms = category_terms(&gamma, &cu, &cv, tree.length(e0), i);
            let mean = terms.iter().sum::<f64>() / terms.len() as f64;
            let site = engine.evaluate_range(&cu, &cv, tree.length(e0), i..i + 1);
            prop_assert!((site - w as f64 * mean.ln()).abs() < 1e-9, "site {}: {}", i, site);
            upper += w as f64 * terms.iter().copied().fold(f64::NEG_INFINITY, f64::max).ln();
            lower += w as f64 * terms.iter().copied().fold(f64::INFINITY, f64::min).ln();
        }
        prop_assert!(mix <= upper + 1e-9, "mixture {} above per-site max bound {}", mix, upper);
        prop_assert!(mix >= lower - 1e-9, "mixture {} below per-site min bound {}", mix, lower);
    }
}

/// The linear likelihood of pattern `i` in each rate category of `gamma`
/// at the edge of length `t` between the CLVs `u` and `v`, read from the
/// pattern's 4-vector per category.
fn category_terms(gamma: &Gamma<Jc69>, u: &Clv, v: &Clv, t: f64, i: usize) -> Vec<f64> {
    let pi = gamma.base_freqs();
    let (lu, lv) = (u.pattern(i).chunks(STATES), v.pattern(i).chunks(STATES));
    let rates = gamma.rates().iter();
    rates
        .zip(lu.zip(lv))
        .map(|(&r, (lu, lv))| {
            let p = gamma.prob_matrix(r * t);
            let inner = |x: usize| (0..STATES).map(|y| p[x][y] * lv[y]).sum::<f64>();
            (0..STATES).map(|x| pi[x] * lu[x] * inner(x)).sum()
        })
        .collect()
}

proptest! {
    /// The one engine's protein likelihood is finite and the same at every
    /// edge, whichever tips carry ambiguity; Poisson probabilities stay
    /// stochastic.
    #[test]
    fn protein_engine_edge_invariance(seed in 0u64..60) {
        use rand::SeedableRng;
        use rand::Rng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // Random 5-taxon, 12-site protein data (with occasional ambiguity).
        let rows: Vec<(String, String)> = (0..5)
            .map(|t| {
                let seq: String = (0..12)
                    .map(|_| {
                        if rng.gen_bool(0.05) {
                            'X'
                        } else {
                            phylo::protein::AA_CODES[rng.gen_range(0..20)]
                        }
                    })
                    .collect();
                (format!("p{t}"), seq)
            })
            .collect();
        let borrowed: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let aln = Alignment::<AA_STATES>::from_strings(&borrowed).unwrap();
        let data = PatternAlignment::compress(&aln);
        let tree = Tree::random(5, 0.2, &mut rng);
        let engine = LikelihoodEngine::new(&PoissonAa, &data);
        let lnl = engine.log_likelihood(&tree);
        prop_assert!(lnl.is_finite() && lnl < 0.0, "lnl {}", lnl);
        for e in tree.edge_ids() {
            let at = engine.log_likelihood_at(&tree, e);
            prop_assert!((at - lnl).abs() < 1e-8, "edge {:?}: {} vs {}", e, at, lnl);
        }
        for t in [0.0f64, 0.3, 3.0] {
            let (s, d) = PoissonAa.probs(t);
            prop_assert!((s + 19.0 * d - 1.0).abs() < 1e-12);
            prop_assert!(s >= d - 1e-15);
        }
    }
}

/// The models the kernel operand paths are checked under, by index.
fn with_model<R>(which: usize, f: &mut dyn FnMut(&dyn SubstModel) -> R) -> R {
    match which {
        0 => f(&Jc69),
        1 => f(&K80::new(2.5)),
        2 => f(&Gtr::example()),
        _ => f(&Gamma::new(Gtr::example(), 0.5, 4)),
    }
}

/// `n` patterns of CLV over `k` rate categories with magnitudes on both
/// sides of the rescaling threshold and nonzero incoming scale exponents.
fn random_clv(n: usize, k: usize, rng: &mut rand::rngs::SmallRng) -> Clv {
    use rand::Rng;
    let vals = (0..n * k * STATES)
        .map(|_| if rng.gen_bool(0.3) { 1e-110 } else { 0.5 } * (0.5 + rng.gen::<f64>()))
        .collect();
    Clv::from_raw(vals, (0..n).map(|_| rng.gen_range(0..3)).collect())
}

/// Patterns `range` of `clv` as a chunk's own piece.
fn piece_of(clv: &Clv, range: std::ops::Range<usize>) -> Clv {
    let (vals, scale) = clv.as_raw();
    let width = vals.len() / scale.len();
    Clv::from_raw(vals[range.start * width..range.end * width].to_vec(), scale[range].to_vec())
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// A tip operand is its materialized tip CLV to the bit: under every
    /// model, for every tip/CLV pairing of the two sides, over every IUPAC
    /// mask and the gap, on any chunk range with the CLV sides full-width
    /// or the chunk's piece, `newview` (values and scaling exponents), the
    /// edge table and `evaluate` read the same bits from `Operand::Tip` as
    /// from `tip_clv` — the per-code product table is a memo of the same
    /// `matvec`, not a different sum.
    #[test]
    fn a_tip_operand_is_its_materialized_clv_to_the_bit(
        which in 0usize..4,
        seed in 0u64..u64::MAX,
        extra in 0usize..100,
        pairing in 0u8..4,
        pieces in 0u8..2,
        cut in (0.0f64..1.0, 0.0f64..1.0),
        t in (1e-4f64..2.0, 1e-4f64..2.0),
    ) {
        use rand::{Rng, SeedableRng};
        const CODES: &[u8] = b"ACGTRYSWKMBDHVN-";
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // Both taxa name every code at least once, then random columns.
        let mut rows = [CODES.to_vec(), CODES.iter().rev().copied().collect()];
        for row in &mut rows {
            row.extend((0..extra).map(|_| CODES[rng.gen_range(0..CODES.len())]));
        }
        let rows = rows.map(|r| String::from_utf8(r).expect("IUPAC codes are ASCII"));
        let aln = Alignment::from_strings(&[("x", &rows[0]), ("y", &rows[1])]).unwrap();
        let data = PatternAlignment::compress(&aln);
        let n = data.n_patterns();
        let (lo, hi) = ((cut.0 * n as f64) as usize, (cut.1 * n as f64) as usize);
        let range = lo.min(hi)..lo.max(hi);
        with_model(which, &mut |model| -> Result<(), TestCaseError> {
            let k = model.rates().len();
            let (cu, cv) = (random_clv(n, k, &mut rng), random_clv(n, k, &mut rng));
            let pieces = if pieces == 1 {
                [piece_of(&cu, range.clone()), piece_of(&cv, range.clone())]
            } else {
                [cu.clone(), cv.clone()]
            };
            let engine = LikelihoodEngine::new(&model, &data);
            let tips = [engine.tip_clv(0), engine.tip_clv(1)];
            // Side `s` as an operand, and as the CLV it stands for.
            let side = |s: usize| -> (Operand<&Clv>, &Clv) {
                if pairing >> s & 1 == 1 {
                    (Operand::Tip(s), &tips[s])
                } else {
                    (Operand::Clv(&pieces[s]), &pieces[s])
                }
            };
            let ((u, mu), (v, mv)) = (side(0), side(1));
            let m = range.len();

            let mut got = Clv::from_raw(vec![0.0; m * STATES], vec![0; m]);
            let mut want = got.clone();
            engine.newview_range_into(u, t.0, v, t.1, range.clone(), &mut got);
            engine.newview_range_into(mu, t.0, mv, t.1, range.clone(), &mut want);
            prop_assert_eq!(bits(got.as_raw().0), bits(want.as_raw().0), "model {}", which);
            prop_assert_eq!(got.as_raw().1, want.as_raw().1, "model {}", which);

            let mut got = ClvArena::new().take_table(m);
            let mut want = ClvArena::new().take_table(m);
            engine.edge_table_range(u, v, range.clone(), &mut got);
            engine.edge_table_range(mu, mv, range.clone(), &mut want);
            prop_assert_eq!(bits(got.as_raw()), bits(want.as_raw()), "model {}", which);

            let got = engine.evaluate_range(u, v, t.0, range.clone());
            let want = engine.evaluate_range(mu, mv, t.0, range.clone());
            prop_assert_eq!(got.to_bits(), want.to_bits(), "model {}: {} vs {}", which, got, want);
            Ok(())
        })?;
    }
}
