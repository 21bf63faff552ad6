//! Advanced runtime features: dependence-driven loop chains (§5.3) and
//! dynamic granularity control (§5.2).
//!
//! Part 1 runs a three-stage numerical pipeline where each parallel loop
//! consumes the previous loop's reduction — the team is formed once and
//! its workers stay resident across stages, exactly like the paper's
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
use std::sync::Arc;
use std::time::{Duration, Instant};

use multigrain::prelude::*;
use multigrain::mgps_runtime::native::{ChainRunner, ChainedLoop, SpePool};

/// Stage 1: mean of sqrt(i) — produces the normalization constant.
struct RootMean(usize);
impl ChainedLoop for RootMean {
    fn len(&self) -> usize {
        self.0
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, _carry: f64, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        range.map(|i| (i as f64).sqrt()).sum::<f64>() / self.0 as f64
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Stage 2: sum of exp(-i/carry) — consumes stage 1's constant.
struct Decay(usize);
impl ChainedLoop for Decay {
    fn len(&self) -> usize {
        self.0
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, carry: f64, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        range.map(|i| (-(i as f64) / carry).exp()).sum()
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Stage 3: log of the carry, replicated — a cheap final reduction.
struct Finish;
impl ChainedLoop for Finish {
    fn len(&self) -> usize {
        1
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, carry: f64, _range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        carry.ln()
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

fn main() {
    println!("Part 1: dependence-driven loop chain across a resident SPE team\n");
    let pool = Arc::new(SpePool::new(8, Duration::ZERO));
    let runner = ChainRunner::new(Arc::clone(&pool));
    let stages: Vec<Arc<dyn ChainedLoop>> =
        vec![Arc::new(RootMean(400_000)), Arc::new(Decay(200_000)), Arc::new(Finish)];

    for degree in [1usize, 2, 4, 8] {
        let before = pool.completed();
        let start = Instant::now();
        let value = runner.chained_reduce(degree, stages.clone(), 0.0).expect("chain ok");
        let jobs = pool.completed() - before;
        println!(
            "  degree {degree}: value {value:.6}, {jobs} SPE jobs for 3 stages, {:?}",
            start.elapsed()
        );
    }
    println!("  (note: `degree` jobs per chain, not degree x stages — workers stay resident)\n");

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
