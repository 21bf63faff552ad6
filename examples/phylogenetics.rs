//! The paper's task-level work: (scaled-down) RAxML-style bootstrap
//! searches with every likelihood kernel off-loaded through the multigrain
//! runtime.
//!
//! Runs the same bootstrap searches on a synthetic DNA alignment under the
//! EDTLP and MGPS schedulers and reports the replicates' scores and the
//! runtime's adaptation statistics. The whole analysis — ML search,
//! bootstraps and support values under one model — is `multigrain infer
//! --bootstraps N`.
//!
//! ```sh
//! cargo run --release --example phylogenetics
//! ```

use std::sync::Arc;

use multigrain::prelude::*;

fn main() {
    // A 16-taxon, 400-site alignment (a scaled-down 42_SC).
    let aln = Alignment::synthetic(16, 400, &Jc69, 0.08, 2024);
    let data = Arc::new(PatternAlignment::compress(&aln));
    println!(
        "alignment: {} taxa x {} sites ({} distinct patterns)",
        data.n_taxa(),
        data.n_sites(),
        data.n_patterns()
    );

    let search = SearchConfig { max_rounds: 3, branch_passes: 1, epsilon: 1e-3, initial_branch: 0.1, restarts: 1 };
    const BOOTSTRAPS: usize = 8;

    for scheduler in [SchedulerKind::Edtlp, SchedulerKind::Mgps] {
        let mut analysis = ParallelAnalysis::cell(scheduler, 4);
        analysis.search = search;
        let start = std::time::Instant::now();
        let (replicates, stats) = analysis.run_bootstraps(Jc69, &data, BOOTSTRAPS, 99);
        let elapsed = start.elapsed();

        println!(
            "\n{}: {BOOTSTRAPS} bootstraps on 4 worker processes in {elapsed:.1?}",
            scheduler.label()
        );
        println!("  replicate lnL range: {:.2} ..= {:.2}",
            replicates.iter().map(|r| r.lnl).fold(f64::INFINITY, f64::min),
            replicates.iter().map(|r| r.lnl).fold(f64::NEG_INFINITY, f64::max));
        println!("  context switches: {}", stats.context_switches);
        if let Some((evals, acts, deacts)) = stats.mgps {
            println!(
                "  MGPS: {evals} evaluation windows, {acts} LLP activations, {deacts} deactivations; final degree {}",
                stats.final_degree
            );
        }
    }
}
