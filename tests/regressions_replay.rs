//! Explicit replay of `.proptest-regressions` seeds.
//!
//! The offline proptest stand-in draws cases from a deterministic
//! per-property stream and does not itself read regression files, so this
//! harness gives the checked-in `tests/property_models.proptest-regressions`
//! entries teeth: every `shrinks to seed = N` line is parsed out and
//! replayed through each seed-indexed property from `property_models.rs`.
//! New failure seeds found in the field get appended to the regressions
//! file (one `# shrinks to seed = N` comment per line) and are picked up
//! here automatically.

use rand::Rng;
use rand::SeedableRng;

use phylo::prelude::*;

/// The checked-in regression corpus, parsed at compile time.
const REGRESSIONS: &str = include_str!("property_models.proptest-regressions");

/// Every `seed = N` recorded in the regressions file.
fn recorded_seeds() -> Vec<u64> {
    let seeds: Vec<u64> = REGRESSIONS
        .lines()
        .filter_map(|line| {
            let (_, rhs) = line.split_once("shrinks to seed = ")?;
            rhs.split_whitespace().next()?.parse().ok()
        })
        .collect();
    assert!(!seeds.is_empty(), "regressions file lost its seed entries");
    seeds
}

#[test]
fn regression_file_parses_and_has_seeds() {
    let seeds = recorded_seeds();
    assert!(seeds.contains(&48), "the original seed-48 shrink must stay on file");
    assert!(seeds.len() >= 4, "expected the curated corpus, got {seeds:?}");
}

/// `newick_round_trip` at every recorded seed (domain: any u64).
#[test]
fn replay_newick_round_trip() {
    for seed in recorded_seeds() {
        for n in [2usize, 9, 19] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let tree = Tree::random(n, 0.2, &mut rng);
            let taxa: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
            let text = tree.to_newick(&taxa);
            let back = parse_newick(&text, &taxa).unwrap();
            assert_eq!(back.bipartitions(), tree.bipartitions(), "seed {seed} n {n}");
            assert!((back.total_length() - tree.total_length()).abs() < 1e-3);
        }
    }
}

/// `spr_random_round_trip` at every recorded seed.
#[test]
fn replay_spr_round_trip() {
    for seed in recorded_seeds() {
        for n in [5usize, 12, 23] {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut tree = Tree::random(n, 0.1, &mut rng);
            let before = tree.bipartitions();
            let prune = phylo::tree::EdgeId(rng.gen_range(0..tree.n_edges()));
            let (a, b) = tree.endpoints(prune);
            let root = if rng.gen_bool(0.5) { a } else { b };
            let radius = rng.gen_range(1..5);
            if let Some(&target) = tree.spr_targets(prune, root, radius).first() {
                let mv = tree.spr(prune, root, target);
                assert!(tree.validate().is_ok(), "seed {seed} n {n}: apply");
                tree.undo_spr(mv);
                assert!(tree.validate().is_ok(), "seed {seed} n {n}: undo");
                assert_eq!(tree.bipartitions(), before, "seed {seed} n {n}");
            }
        }
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

/// `gamma_mixture_is_bounded_per_site` at every recorded seed within its
/// 0..100 domain.
#[test]
fn replay_gamma_mixture_bounds() {
    for seed in recorded_seeds().into_iter().filter(|s| *s < 100) {
        let aln = Alignment::synthetic(5, 40, &Jc69, 0.2, seed);
        let data = PatternAlignment::compress(&aln);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 99);
        let tree = Tree::random(5, 0.15, &mut rng);
        let gamma = Gamma::new(Jc69, 0.5, 4);
        let engine = LikelihoodEngine::new(&gamma, &data);
        let mix = engine.log_likelihood(&tree);
        assert!(mix.is_finite(), "seed {seed}: mixture lnl not finite");

        let e0 = phylo::tree::EdgeId(0);
        let (a, b) = tree.endpoints(e0);
        let (cu, cv) = (engine.clv_toward(&tree, a, b), engine.clv_toward(&tree, b, a));
        assert!(cu.as_raw().1.iter().chain(cv.as_raw().1).all(|&e| e == 0), "seed {seed}");
        let mut upper = 0.0f64;
        for (i, &w) in data.weights().iter().enumerate() {
            let terms = category_terms(&gamma, &cu, &cv, tree.length(e0), i);
            upper += w as f64 * terms.iter().copied().fold(f64::NEG_INFINITY, f64::max).ln();
        }
        assert!(mix <= upper + 1e-9, "seed {seed}: mixture {mix} above bound {upper}");
    }
}

/// `protein_engine_edge_invariance` at every recorded seed within its
/// 0..60 domain.
#[test]
fn replay_protein_engine() {
    for seed in recorded_seeds().into_iter().filter(|s| *s < 60) {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
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
        assert!(lnl.is_finite() && lnl < 0.0, "seed {seed}: lnl {lnl}");
        for e in tree.edge_ids() {
            let at = engine.log_likelihood_at(&tree, e);
            assert!((at - lnl).abs() < 1e-8, "seed {seed}, edge {e:?}: {at} vs {lnl}");
        }
    }
}
