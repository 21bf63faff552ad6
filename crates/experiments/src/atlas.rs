//! Sweep driver for the granularity atlas (`mgps_obs::atlas`).
//!
//! [`sweep`] enumerates every cell of a [`GridSpec`] — the cross product
//! of (task size × arrival rate × loop width × scheduler) — and runs each
//! through [`checked_run`](crate::checked_run), so every number in the atlas comes from an
//! invariant-checked log. Per-cell seeds derive deterministically from
//! the atlas seed and the cell index ([`cell_seed`]), so a shard of the
//! grid runs exactly the cells — with exactly the seeds — the full sweep
//! would. Cells whose checker pass reports a violation are refused:
//! their [`CellRecord`] carries the violation count and no metrics.
//!
//! Each clean cell's blame partition is asserted to sum exactly to its
//! critical-path makespan before it enters the atlas.

use cellsim::event::EventKind;
use cellsim::machine::SimConfig;
use des::time::SimDuration;
use mgps_obs::atlas::{
    Atlas, CellMetrics, CellRecord, GridSpec, MgpsInputs, PointCoords, VerdictCounts,
};
use mgps_obs::CriticalPath;
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::SchedulerKind;

use crate::checked::checked_run_counted;

/// Parameters of one atlas sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The grid to sweep.
    pub grid: GridSpec,
    /// Base seed; each cell runs under [`cell_seed`]`(seed, index)`.
    pub seed: u64,
    /// Workload scale divisor (as everywhere: larger is faster).
    pub scale: usize,
    /// Bootstraps per cell.
    pub n_bootstraps: usize,
    /// `Some((i, n))`: run only cells with `index % n == i`.
    pub shard: Option<(usize, usize)>,
    /// Fault plan armed in every cell (inert by default; a lethal plan
    /// is the supported way to exercise the refusal path end to end).
    pub faults: FaultPlan,
}

impl SweepConfig {
    /// A sweep of `grid` with the workspace's default seed, a fast
    /// scale, two bootstraps, no shard, and no faults.
    pub fn new(grid: GridSpec) -> SweepConfig {
        SweepConfig {
            grid,
            seed: 0x5eed,
            scale: 4_000,
            n_bootstraps: 2,
            shard: None,
            faults: FaultPlan::inert(),
        }
    }
}

/// Map an atlas scheduler slug to its [`SchedulerKind`].
pub fn scheduler_of_slug(slug: &str) -> Option<SchedulerKind> {
    Some(match slug {
        "edtlp" => SchedulerKind::Edtlp,
        "linux" => SchedulerKind::LinuxLike,
        "llp2" => SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        "llp4" => SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        "mgps" => SchedulerKind::Mgps,
        _ => return None,
    })
}

/// The seed cell `index` runs under: a splitmix64 finalizer over the
/// atlas seed and the index, so neighbouring cells decorrelate and any
/// shard reproduces the full sweep's per-cell streams.
pub fn cell_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the sweep and assemble the atlas.
///
/// # Panics
/// Panics if the grid names a scheduler slug outside the atlas
/// vocabulary, or if a cell's blame partition fails to sum to its
/// critical-path makespan (an accounting bug, never a workload property).
pub fn sweep(cfg: &SweepConfig) -> Atlas {
    let mut cells = Vec::new();
    for (ti, &task_mean_ns) in cfg.grid.task_mean_ns.iter().enumerate() {
        for (gi, &ppe_gap_ns) in cfg.grid.ppe_gap_ns.iter().enumerate() {
            for (li, &loop_iters) in cfg.grid.loop_iters.iter().enumerate() {
                for (si, slug) in cfg.grid.schedulers.iter().enumerate() {
                    let index = cfg.grid.cell_index(ti, gi, li, si);
                    if let Some((shard, of)) = cfg.shard {
                        if index % of != shard {
                            continue;
                        }
                    }
                    let point = PointCoords { task_mean_ns, ppe_gap_ns, loop_iters };
                    cells.push(run_cell(cfg, point, slug, index));
                }
            }
        }
    }
    Atlas {
        grid: cfg.grid.clone(),
        seed: cfg.seed,
        scale: cfg.scale,
        n_bootstraps: cfg.n_bootstraps,
        shard: cfg.shard,
        cells,
    }
}

fn run_cell(cfg: &SweepConfig, point: PointCoords, slug: &str, index: usize) -> CellRecord {
    let scheduler = scheduler_of_slug(slug)
        .unwrap_or_else(|| panic!("unknown scheduler slug {slug:?} in grid {}", cfg.grid.name));
    let seed = cell_seed(cfg.seed, index);
    let mut sim = SimConfig::cell_42sc(scheduler, cfg.n_bootstraps, cfg.scale);
    sim.seed = seed;
    sim.faults = cfg.faults;
    sim.granularity_verdicts = true;
    sim.workload.task_mean = SimDuration::from_nanos(point.task_mean_ns);
    sim.workload.ppe_gap = SimDuration::from_nanos(point.ppe_gap_ns);
    sim.workload.loop_iters = point.loop_iters;

    let (report, violations) = checked_run_counted(sim);

    let mut cell = CellRecord {
        point,
        scheduler: slug.to_string(),
        seed,
        violations,
        metrics: None,
    };
    if violations > 0 {
        // Refused: no number from a log the checker would not vouch for.
        return cell;
    }

    let log = report.run_log.as_ref().expect("checked_run records events");
    let cp = CriticalPath::from_log(log);
    assert_eq!(
        cp.blame.total(),
        cp.makespan_ns,
        "cell {index} ({slug}): blame partition must sum to the makespan"
    );

    let mut verdicts = VerdictCounts::default();
    for e in &log.events {
        if let EventKind::GranularityVerdict { offload, reprobe, .. } = &e.kind {
            if !offload {
                verdicts.throttle += 1;
            } else if *reprobe {
                verdicts.reprobe += 1;
            } else {
                verdicts.offload += 1;
            }
        }
    }

    let decisions = mgps_obs::decisions(log);
    let mgps = if decisions.is_empty() {
        None
    } else {
        let n = decisions.len() as f64;
        let finite = |v: f64| v.is_finite().then_some(v);
        Some(MgpsInputs {
            decisions: decisions.len(),
            mean_u: finite(decisions.iter().map(|d| d.u as f64).sum::<f64>() / n),
            mean_window_fill: finite(
                decisions.iter().map(|d| d.window_fill as f64).sum::<f64>() / n,
            ),
        })
    };

    cell.metrics = Some(CellMetrics {
        makespan_ns: cp.makespan_ns,
        // The same non-finite guard as experiment ratio columns: a
        // degenerate run yields "absent", never NaN.
        mean_utilization: report
            .mean_spe_utilization
            .is_finite()
            .then_some(report.mean_spe_utilization),
        context_switches: report.context_switches,
        tasks_completed: report.tasks_completed,
        blame: cp.blame,
        mgps,
        verdicts,
    });
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-point, 2-scheduler grid keeps the sweep tests fast.
    fn tiny_grid() -> GridSpec {
        GridSpec {
            name: "tiny".to_string(),
            task_mean_ns: vec![96_000],
            ppe_gap_ns: vec![11_000],
            loop_iters: vec![57],
            schedulers: vec!["edtlp".to_string(), "mgps".to_string()],
        }
    }

    #[test]
    fn sweep_is_byte_deterministic_and_blame_sums() {
        let mut cfg = SweepConfig::new(tiny_grid());
        cfg.seed = 7;
        cfg.scale = 8_000;
        cfg.n_bootstraps = 1;
        let a = sweep(&cfg);
        let b = sweep(&cfg);
        assert_eq!(a.to_json(), b.to_json(), "atlas JSON must be byte-identical across re-runs");
        assert_eq!(a.render_html(), b.render_html(), "atlas HTML must be byte-identical");
        assert_eq!(a.cells.len(), 2);
        for c in &a.cells {
            assert_eq!(c.violations, 0);
            let m = c.metrics.as_ref().expect("clean cell has metrics");
            assert_eq!(m.blame.total(), m.makespan_ns);
            assert!(m.tasks_completed > 0);
        }
        // The MGPS cell observed granularity verdicts and decisions.
        let mgps = a.cells.iter().find(|c| c.scheduler == "mgps").expect("mgps cell");
        let m = mgps.metrics.as_ref().expect("metrics");
        assert!(m.verdicts.throttle + m.verdicts.offload + m.verdicts.reprobe > 0);
        assert!(m.mgps.is_some(), "MGPS cells carry decision inputs");
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let mut cfg = SweepConfig::new(tiny_grid());
        cfg.seed = 7;
        cfg.scale = 8_000;
        cfg.n_bootstraps = 1;
        let full = sweep(&cfg);
        let mut sharded: Vec<CellRecord> = Vec::new();
        for i in 0..2 {
            cfg.shard = Some((i, 2));
            sharded.extend(sweep(&cfg).cells);
        }
        assert_eq!(sharded.len(), full.cells.len());
        for c in &full.cells {
            let twin = sharded
                .iter()
                .find(|s| s.point == c.point && s.scheduler == c.scheduler)
                .expect("every cell lands in exactly one shard");
            assert_eq!(twin, c, "shards must reproduce the full sweep's cells");
        }
    }

    #[test]
    fn lethal_faults_refuse_the_cell() {
        let mut cfg = SweepConfig::new(GridSpec {
            schedulers: vec!["edtlp".to_string()],
            ..tiny_grid()
        });
        cfg.seed = 9;
        cfg.scale = 8_000;
        cfg.n_bootstraps = 1;
        cfg.faults =
            FaultPlan::parse("seed=9,crash=0.5,retries=0,fallback=off").expect("valid spec");
        let atlas = sweep(&cfg);
        assert_eq!(atlas.cells.len(), 1);
        let cell = &atlas.cells[0];
        assert!(cell.violations > 0, "a lethal plan must be seen by the checker");
        assert!(cell.metrics.is_none(), "refused cells carry no metrics");
        assert!(cell.degenerate());
        assert!(atlas.violations() > 0);
    }

    #[test]
    fn cell_seeds_decorrelate_and_reproduce() {
        assert_eq!(cell_seed(7, 3), cell_seed(7, 3));
        assert_ne!(cell_seed(7, 3), cell_seed(7, 4));
        assert_ne!(cell_seed(7, 0), cell_seed(8, 0));
    }

    #[test]
    fn slug_vocabulary_is_closed() {
        for slug in mgps_obs::atlas::SCHEDULER_SLUGS {
            assert!(scheduler_of_slug(slug).is_some(), "slug {slug} must resolve");
        }
        assert!(scheduler_of_slug("fifo").is_none());
    }
}
