//! The real likelihood kernels at the paper's 42_SC problem size:
//! `newview`, `evaluate`, and `makenewz` over 42 taxa x 1167 sites, with
//! `makenewz` also split into its once-per-edge table and one Newton step,
//! and `newview` also with tip children read by taxon (`newview_tip_tip`,
//! `newview_tip_inner`), each into a freshly allocated CLV like `newview`'s.

use criterion::{criterion_group, criterion_main, Criterion};
use phylo::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn kernels(c: &mut Criterion) {
    let aln = Alignment::synthetic_42_sc(&Jc69, 42);
    let data = PatternAlignment::compress(&aln);
    let engine = LikelihoodEngine::new(&Jc69, &data);
    let mut rng = SmallRng::seed_from_u64(1);
    let tree = Tree::random(42, 0.1, &mut rng);
    let e0 = phylo::tree::EdgeId(0);
    let (a, b) = tree.endpoints(e0);
    let cu = engine.clv_toward(&tree, a, b);
    let cv = engine.clv_toward(&tree, b, a);

    let mut g = c.benchmark_group("phylo_kernels_42sc");
    g.bench_function("newview", |bch| bch.iter(|| engine.newview(&cu, 0.1, &cv, 0.2)));
    let n = data.n_patterns();
    let newview_into = |l: Operand<&Clv>, r: Operand<&Clv>| {
        let mut out = Clv::from_raw(vec![0.0; n * STATES], vec![0; n]);
        engine.newview_range_into(l, 0.1, r, 0.2, 0..n, &mut out);
        out
    };
    g.bench_function("newview_tip_tip", |bch| {
        bch.iter(|| newview_into(Operand::Tip(0), Operand::Tip(1)))
    });
    g.bench_function("newview_tip_inner", |bch| {
        bch.iter(|| newview_into(Operand::Tip(0), Operand::Clv(&cv)))
    });
    g.bench_function("evaluate", |bch| bch.iter(|| engine.evaluate(&cu, &cv, 0.1)));
    g.bench_function("makenewz", |bch| bch.iter(|| engine.makenewz(&cu, &cv, 0.05)));
    g.bench_function("makenewz_edge_table", |bch| bch.iter(|| engine.edge_table(&cu, &cv)));
    let table = engine.edge_table(&cu, &cv);
    let all = 0..n;
    g.bench_function("makenewz_step", |bch| {
        bch.iter(|| engine.table_derivatives(&table, 0.05, all.clone()))
    });
    g.bench_function("full_tree_log_likelihood", |bch| {
        bch.iter(|| engine.log_likelihood(&tree))
    });
    g.finish();
}

criterion_group!(benches, kernels);
criterion_main!(benches);
