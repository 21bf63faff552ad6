//! The driver of the three overhead smoke bounds: controlled-work
//! off-load loops on the native runtime, with one plane (tracing, the
//! fault plane, snapshot drains) switched on or off, so the ratio of the
//! two wall times bounds that plane's overhead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgps_runtime::native::{LoopBody, LoopSite, MgpsRuntime, RuntimeConfig, SpeContext};
use mgps_runtime::{MetricsSink, SnapshotSource, Tracer};

/// A spin-loop body: `n` iterations of a busy-wait, so the work per
/// off-load is controlled and insensitive to allocator or cache state.
struct SpinBody {
    n: usize,
    /// Minimum busy-wait per iteration.
    spin: Duration,
}

impl LoopBody for SpinBody {
    type Acc = u64;
    fn len(&self) -> usize {
        self.n
    }
    fn identity(&self) -> u64 {
        0
    }
    fn run_chunk(&self, range: std::ops::Range<usize>, _ctx: &mut SpeContext) -> u64 {
        let mut acc = 0u64;
        for i in range {
            let t0 = Instant::now();
            while t0.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            acc += i as u64;
        }
        acc
    }
    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Best-of-`attempts` wall times of `run(false)` and `run(true)`, in that
/// order. The two sides alternate attempt by attempt, so a host that
/// changes speed between attempts slows both minima's candidates rather
/// than one side's whole block; best-of discards the slowed attempts.
pub fn interleaved_best(
    attempts: usize,
    mut run: impl FnMut(bool) -> Duration,
) -> (Duration, Duration) {
    let mut best = (Duration::MAX, Duration::MAX);
    for _ in 0..attempts {
        best.0 = best.0.min(run(false));
        best.1 = best.1.min(run(true));
    }
    best
}

/// Wall time of `offloads` sequential off-loads of an 8-iteration
/// [`SpinBody`] spinning roughly `work` in all, on the runtime `cfg`,
/// `sink` and `tracer` build. With a `scraper`, a thread of its own
/// drains its [`SnapshotSource`] every millisecond — 10-50x hotter than
/// any real `/metrics` cadence — until the last off-load returns.
pub fn offload_wall(
    cfg: RuntimeConfig,
    sink: Arc<dyn MetricsSink>,
    tracer: Option<Arc<Tracer>>,
    scraper: Option<SnapshotSource>,
    offloads: usize,
    work: Duration,
) -> Duration {
    const ITERS_PER_OFFLOAD: usize = 8;
    const DRAIN_GAP: Duration = Duration::from_millis(1);
    let rt = MgpsRuntime::with_observability(cfg, sink, tracer);
    let done = Arc::new(AtomicBool::new(false));
    let scraper = scraper.map(|mut source| {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            // Drain before the first look at `done`: a run that ends
            // before this thread is first scheduled still gets one.
            let mut drains = 0u64;
            loop {
                std::hint::black_box(source.delta());
                drains += 1;
                if done.load(Ordering::Relaxed) {
                    return drains;
                }
                std::thread::sleep(DRAIN_GAP);
            }
        })
    });

    let mut ctx = rt.enter_process();
    let spin = work / ITERS_PER_OFFLOAD as u32;
    let started = Instant::now();
    for _ in 0..offloads {
        let body = Arc::new(SpinBody { n: ITERS_PER_OFFLOAD, spin });
        std::hint::black_box(ctx.offload_loop(LoopSite(0), body).expect("offload succeeds"));
    }
    let elapsed = started.elapsed();
    done.store(true, Ordering::Relaxed);
    if let Some(handle) = scraper {
        let drains = handle.join().expect("scraper joins");
        assert!(drains > 0, "the scraper never drained a snapshot");
    }
    elapsed
}
