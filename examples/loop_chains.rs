//! Advanced runtime features: dependence-driven loop chains (§5.3) and
//! dynamic granularity control (§5.2).
//!
//! Part 1 runs a three-stage numerical pipeline where each parallel loop
//! consumes the previous loop's reduction, as one `LoopBody` whose `again`
//! moves to the next stage: the whole chain is one off-load, and from the
//! second stage on the team stays on its SPEs between loops — the paper's
//! SPE-to-SPE dependence-driven execution.
//!
//! Part 2 off-loads a mix of coarse and ultra-fine kernels under the
//! granularity controller and shows the fine ones being throttled back to
//! the PPE after measurement.
//!
//! ```sh
//! cargo run --release --example loop_chains
//! ```

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use multigrain::mgps_runtime::metrics::{AtomicMetrics, Counter};
use multigrain::prelude::*;

/// Iterations of each stage.
const STAGE_LENS: [usize; 3] = [400_000, 200_000, 1];

/// One stage over `range`, given the previous stage's reduction:
/// 0. mean of sqrt(i) — produces the normalization constant;
/// 1. sum of exp(-i/carry) — consumes it;
/// 2. log of the carry — a cheap one-iteration finish.
fn stage_chunk(stage: usize, carry: f64, range: Range<usize>) -> f64 {
    match stage {
        0 => range.map(|i| (i as f64).sqrt()).sum::<f64>() / STAGE_LENS[0] as f64,
        1 => range.map(|i| (-(i as f64) / carry).exp()).sum(),
        _ => range.map(|_| carry.ln()).sum(),
    }
}

/// The chain as one loop. The runtime hands every round the ranges it cut
/// for the longest stage; a shorter stage clips them. `again` runs between
/// rounds on the master, before any chunk of the next one starts, which is
/// all the ordering the two fields need.
struct Pipeline {
    stage: AtomicUsize,
    carry: AtomicU64,
}

impl LoopBody for Pipeline {
    type Acc = f64;
    fn len(&self) -> usize {
        STAGE_LENS[0]
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        let stage = self.stage.load(Ordering::Relaxed);
        let carry = f64::from_bits(self.carry.load(Ordering::Relaxed));
        let n = STAGE_LENS[stage];
        stage_chunk(stage, carry, range.start.min(n)..range.end.min(n))
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn again(&self, merged: &mut f64) -> bool {
        self.carry.store(merged.to_bits(), Ordering::Relaxed);
        self.stage.fetch_add(1, Ordering::Relaxed) + 1 < STAGE_LENS.len()
    }
}

fn main() {
    println!("Part 1: dependence-driven loop chain on a team that stays\n");
    let sequential = STAGE_LENS
        .iter()
        .enumerate()
        .fold(0.0, |carry, (stage, &n)| stage_chunk(stage, carry, 0..n));
    let metrics = Arc::new(AtomicMetrics::new());
    let pool = Arc::new(SpePool::with_metrics(8, Arc::<AtomicMetrics>::clone(&metrics)));
    let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);

    for degree in [1usize, 2, 4, 8] {
        let before = metrics.get(Counter::TasksCompleted);
        let start = Instant::now();
        let body = Arc::new(Pipeline { stage: AtomicUsize::new(0), carry: AtomicU64::new(0) });
        let value = runner.parallel_reduce(LoopSite(0), degree, body).expect("chain ok");
        let elapsed = start.elapsed();
        // A worker books its job after its last chunk is counted.
        while pool.idle_count() < pool.n_spes() {
            std::thread::yield_now();
        }
        let jobs = metrics.get(Counter::TasksCompleted) - before;
        assert!(
            (value - sequential).abs() < 1e-9,
            "degree {degree}: {value} vs sequential {sequential}"
        );
        println!(
            "  degree {degree}: value {value:.6}, {jobs} SPE jobs for {} stages, {elapsed:?}",
            STAGE_LENS.len()
        );
    }
    println!(
        "  (note: one job on one SPE; on a team, `degree` jobs for the first stage and\n   \
         `degree` for the team held through every later one — not degree x stages)\n"
    );

    println!("Part 2: dynamic granularity control (Section 5.2)\n");
    /// A kernel with distinct PPE and SPE code versions, like RAxML's
    /// scalar PPE copies vs the vectorized SPE module: the PPE path (the
    /// sentinel SPE id) runs 3x slower per iteration.
    struct Spin {
        iters: usize,
        per_iter: Duration,
    }
    impl LoopBody for Spin {
        type Acc = u64;
        fn len(&self) -> usize {
            self.iters
        }
        fn identity(&self) -> u64 {
            0
        }
        fn run_chunk(&self, range: Range<usize>, ctx: &mut SpeContext) -> u64 {
            let on_ppe = ctx.id.0 == usize::MAX;
            let per_iter = if on_ppe { self.per_iter * 3 } else { self.per_iter };
            let end = Instant::now() + per_iter * range.len() as u32;
            while Instant::now() < end {
                std::hint::spin_loop();
            }
            range.len() as u64
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    let cfg = RuntimeConfig::cell(SchedulerKind::Edtlp).with_granularity_control(1_000);
    let rt = MgpsRuntime::new(cfg);
    let mut ctx = rt.enter_process();
    for _ in 0..48 {
        // Coarse kernel: ~600 us of work.
        let coarse = Arc::new(Spin { iters: 60, per_iter: Duration::from_micros(10) });
        ctx.offload_adaptive(LoopSite(1), KernelKind::NewView, coarse).unwrap();
        // Ultra-fine kernel: sub-microsecond.
        let fine = Arc::new(Spin { iters: 1, per_iter: Duration::ZERO });
        ctx.offload_adaptive(LoopSite(2), KernelKind::Evaluate, fine).unwrap();
    }
    println!(
        "  newview  (coarse, SPE code 3x faster)  throttled to PPE? {}",
        rt.is_throttled(KernelKind::NewView)
    );
    println!(
        "  evaluate (ultra-fine, overhead-bound)  throttled to PPE? {}",
        rt.is_throttled(KernelKind::Evaluate)
    );
    assert!(!rt.is_throttled(KernelKind::NewView));
    assert!(rt.is_throttled(KernelKind::Evaluate));
    println!(
        "\n  The controller measured both code paths and applies the paper's\n  \
         test t_spe + t_code + 2*t_comm < t_ppe per kernel."
    );
}
