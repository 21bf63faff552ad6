//! Whole-analysis parallel drivers: the paper's execution model end to end.
//!
//! A real RAxML analysis runs tens of inferences plus 100–1,000 bootstraps
//! (§3.1). [`ParallelAnalysis`] reproduces the paper's arrangement on the
//! native runtime: one worker process per concurrent bootstrap, each
//! alternating PPE-side search control with off-loaded likelihood kernels,
//! under any of the four scheduling policies.

use std::sync::Arc;

use mgps_runtime::native::{MgpsRuntime, RuntimeConfig};
use mgps_runtime::policy::{KernelKind, SchedulerKind};
use phylo::alignment::PatternAlignment;
use phylo::bootstrap::bootstrap_replicate;
use phylo::model::SubstModel;
use phylo::search::{hill_climb_with, SearchConfig, SearchResult};

use crate::adapters::OffloadedEngine;

/// Configuration of a parallel analysis.
#[derive(Debug, Clone, Copy)]
pub struct ParallelAnalysis {
    /// Runtime (machine + scheduler) configuration.
    pub runtime: RuntimeConfig,
    /// Worker processes to run concurrently ("MPI processes").
    pub workers: usize,
    /// Search configuration for every inference.
    pub search: SearchConfig,
}

impl ParallelAnalysis {
    /// A Cell-shaped analysis under `scheduler` with `workers` processes.
    ///
    /// Dynamic granularity control (§5.2) is enabled: each kind of search
    /// request (a score, or a branch-length optimization) is
    /// optimistically off-loaded and measured per kernel it runs, and kinds
    /// that fail the `t_spe + t_code + 2·t_comm < t_ppe` profitability test
    /// fall back to their PPE copies until a periodic re-probe. Under MGPS,
    /// requests kept on the PPE still drive its adaptation, as the ticks of
    /// the paper's timer fallback.
    pub fn cell(scheduler: SchedulerKind, workers: usize) -> ParallelAnalysis {
        ParallelAnalysis {
            runtime: RuntimeConfig::cell(scheduler).with_granularity_control(64),
            workers,
            search: SearchConfig::default(),
        }
    }

    /// Run `n_bootstraps` bootstrap searches under `model` (DNA or
    /// protein, +Γ or not), distributed over the worker processes, each
    /// search request — a score or a branch-length optimization — put to
    /// the runtime as one off-load. Bootstrap `b` searches
    /// `bootstrap_replicate(data, seed + b)`.
    /// Returns the results in bootstrap order plus the runtime's final
    /// statistics.
    pub fn run_bootstraps<M: SubstModel<S> + Clone + 'static, const S: usize>(
        &self,
        model: M,
        data: &Arc<PatternAlignment<S>>,
        n_bootstraps: usize,
        seed: u64,
    ) -> (Vec<SearchResult>, AnalysisStats) {
        assert!(self.workers >= 1, "need at least one worker");
        let rt = MgpsRuntime::new(self.runtime);
        let mut results: Vec<Option<SearchResult>> = Vec::new();
        results.resize_with(n_bootstraps, || None);

        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..self.workers {
                let rt = &rt;
                let model = model.clone();
                let data = Arc::clone(data);
                let search = self.search;
                let stride = self.workers;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    // Static round-robin assignment of bootstraps to
                    // workers, as an MPI master-worker scheme would issue
                    // them.
                    let mut ctx = rt.enter_process();
                    let mut b = w;
                    while b < n_bootstraps {
                        let replicate =
                            Arc::new(bootstrap_replicate(&data, seed.wrapping_add(b as u64)));
                        let mut engine =
                            OffloadedEngine::new(&mut ctx, model.clone(), replicate);
                        let r = hill_climb_with(
                            &mut engine,
                            data.n_taxa(),
                            &search,
                            seed ^ (b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                        );
                        out.push((b, r));
                        b += stride;
                    }
                    out
                }));
            }
            for h in handles {
                for (b, r) in h.join().expect("worker process panicked") {
                    results[b] = Some(r);
                }
            }
        });

        let stats = AnalysisStats {
            context_switches: rt.context_switches(),
            final_degree: rt.current_degree(),
            mgps: rt.mgps_stats(),
            throttled: KernelKind::ALL.map(|k| rt.is_throttled(k)),
        };
        let results = results
            .into_iter()
            .map(|r| r.expect("every bootstrap produced a result"))
            .collect();
        (results, stats)
    }
}

/// Runtime statistics from one parallel analysis.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisStats {
    /// Voluntary PPE context switches.
    pub context_switches: u64,
    /// Loop degree in force at the end.
    pub final_degree: usize,
    /// MGPS counters `(evaluations, activations, deactivations)`, when the
    /// adaptive scheduler was used.
    pub mgps: Option<(u64, u64, u64)>,
    /// Which kernels the granularity controller has throttled to the PPE,
    /// in [`KernelKind::ALL`] order.
    pub throttled: [bool; 3],
}
