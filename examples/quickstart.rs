//! Quickstart: off-load a simple data-parallel kernel through the
//! multigrain runtime and watch the scheduler pick the loop degree.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::ops::Range;
use std::sync::Arc;

use multigrain::prelude::*;

/// A toy off-loadable kernel: numerically integrate sqrt(x) over [0, 1]
/// with a reduction — the same shape (independent iterations + global sum)
/// as the paper's `evaluate()` loop.
struct Integrate {
    steps: usize,
}

impl LoopBody for Integrate {
    type Acc = f64;

    fn len(&self) -> usize {
        self.steps
    }

    fn identity(&self) -> f64 {
        0.0
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        let h = 1.0 / self.steps as f64;
        range.map(|i| ((i as f64 + 0.5) * h).sqrt() * h).sum()
    }

    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

fn main() {
    println!("multigrain quickstart: one Cell-shaped runtime per scheduler\n");

    for scheduler in [
        SchedulerKind::Edtlp,
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(scheduler));
        let start = std::time::Instant::now();

        // Two worker processes, each off-loading a stream of kernels —
        // the paper's "MPI processes with off-loadable functions".
        let totals: Vec<f64> = std::thread::scope(|scope| {
            (0..2)
                .map(|_| {
                    let rt = &rt;
                    scope.spawn(move || {
                        let mut proc_ctx = rt.enter_process();
                        let mut acc = 0.0;
                        for _ in 0..24 {
                            let body = Arc::new(Integrate { steps: 200_000 });
                            acc += proc_ctx
                                .offload_loop(LoopSite(1), body)
                                .expect("kernel completed");
                        }
                        acc
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("worker finished"))
                .collect()
        });

        let elapsed = start.elapsed();
        let expect = 2.0 / 3.0 * 24.0; // ∫ sqrt = 2/3 per kernel
        for t in &totals {
            assert!((t - expect).abs() < 1e-6);
        }
        println!(
            "{:<38} {:>8.1?}  context switches: {:>4}  final loop degree: {}",
            scheduler.label(),
            elapsed,
            rt.context_switches(),
            rt.current_degree(),
        );
    }

    // The same integral, sequentially, for reference.
    let start = std::time::Instant::now();
    let body = Integrate { steps: 200_000 };
    let mut seq = 0.0;
    for _ in 0..48 {
        let mut scratch = SpeContext::new(mgps_runtime::policy::SpeId(0));
        seq += body.run_chunk(0..body.len(), &mut scratch);
    }
    println!("{:<38} {:>8.1?}", "sequential reference", start.elapsed());
    assert!((seq - 2.0 / 3.0 * 48.0).abs() < 1e-6);
}
