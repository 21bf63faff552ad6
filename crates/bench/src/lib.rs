//! Shared helpers for the Criterion benchmarks and their smoke tests:
//! controlled-work off-load loops on the native runtime, with one plane
//! (tracing, the fault plane, snapshot scraping) switched on or off, so
//! the difference is that plane's overhead — the quantity the DESIGN
//! budgets bound.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgps_runtime::faults::FaultPlan;
use mgps_runtime::native::{LoopBody, LoopSite, MgpsRuntime, RuntimeConfig, SpeContext};
use mgps_runtime::policy::SchedulerKind;
use mgps_runtime::{AtomicMetrics, MetricsSink, NopMetrics, SnapshotSource, Tracer};

/// A spin-loop body for the native-runtime overhead benches: `n`
/// iterations of a busy-wait, so the work per off-load is controlled and
/// insensitive to allocator or cache state.
pub struct SpinBody {
    /// Iteration count.
    pub n: usize,
    /// Minimum busy-wait per iteration.
    pub spin: Duration,
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

/// The runtime every overhead bench measures: EDTLP with no modelled
/// context-switch cost, so a plane's cost is not buried under the gate's.
fn edtlp() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::cell(SchedulerKind::Edtlp);
    cfg.switch_cost = Duration::ZERO;
    cfg
}

/// The one driver behind the overhead benches: wall time of `offloads`
/// sequential off-loads of an 8-iteration [`SpinBody`] spinning roughly
/// `work` in all, on the runtime `cfg`, `sink` and `tracer` build. With a
/// `scraper`, a thread of its own drains its [`SnapshotSource`] with the
/// given nanoseconds between drains (`0` = flat out) until the last
/// off-load returns.
fn offload_wall(
    cfg: RuntimeConfig,
    sink: Arc<dyn MetricsSink>,
    tracer: Option<Arc<Tracer>>,
    scraper: Option<(SnapshotSource, u64)>,
    offloads: usize,
    work: Duration,
) -> Duration {
    const ITERS_PER_OFFLOAD: usize = 8;
    let rt = MgpsRuntime::with_observability(cfg, sink, tracer);
    let done = Arc::new(AtomicBool::new(false));
    let scraper = scraper.map(|(mut source, gap)| {
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
                if gap > 0 {
                    std::thread::sleep(Duration::from_nanos(gap));
                }
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

/// Wall time of `offloads` sequential EDTLP off-loads on the native
/// runtime, each spinning for roughly `work`. With `with_tracing` every
/// span lands on a per-thread ring ([`Tracer`]); without, the tracing
/// hooks compile down to a `None` check. The difference between the two
/// is the tracing overhead the DESIGN budget bounds.
pub fn native_offload_wall(with_tracing: bool, offloads: usize, work: Duration) -> Duration {
    let tracer = with_tracing.then(Tracer::with_default_capacity);
    offload_wall(edtlp(), Arc::new(NopMetrics), tracer, None, offloads, work)
}

/// Wall time of `offloads` sequential EDTLP off-loads with the fault
/// plane unarmed (the default inert [`FaultPlan`]) or armed with a plan
/// that can never fire (a single pin on a task id the workload never
/// reaches).
///
/// Unarmed, the entire fault plane is one `Option::is_some` check at the
/// top of `offload_loop` — the quantity the DESIGN budget bounds at
/// < 1 %. Armed-but-quiet additionally pays one mutex'd fault-round
/// decision per off-load, which is the marginal bookkeeping cost chaos
/// runs accept.
pub fn fault_offload_wall(armed: bool, offloads: usize, work: Duration) -> Duration {
    let mut cfg = edtlp();
    if armed {
        // A pinned fault on a task id the run never issues: every armed
        // code path executes, no fault ever fires.
        cfg.faults = FaultPlan::parse(&format!("seed=7,pin=crash@{}", u64::MAX))
            .expect("quiet plan parses");
        assert!(cfg.faults.armed());
    }
    offload_wall(cfg, Arc::new(NopMetrics), None, None, offloads, work)
}

/// Wall time of `offloads` sequential EDTLP off-loads while a scraper
/// thread drains epoch snapshots at the given cadence.
///
/// The runtime records into a shared [`AtomicMetrics`] (or
/// [`NopMetrics`] when `sink_atomic` is false) and, when `cadence` is
/// set, a concurrent thread loops [`SnapshotSource::delta`] against it
/// with that many nanoseconds between drains (`Some(0)` = flat out).
/// Drains are plain atomic loads, so a scraper at any sane cadence must
/// not perturb the SPE-side hot path; a flat-out scraper measurably does
/// — not through locks but through cache-line ping-pong on the counters
/// and plain core theft — which is why the service's telemetry thread
/// polls on a fixed cadence instead of spinning.
pub fn snapshot_scrape_wall_at(
    sink_atomic: bool,
    cadence: Option<u64>,
    offloads: usize,
    work: Duration,
) -> Duration {
    if !sink_atomic {
        return offload_wall(edtlp(), Arc::new(NopMetrics), None, None, offloads, work);
    }
    let atomic = Arc::new(AtomicMetrics::new());
    let scraper = cadence.map(|gap| (SnapshotSource::new(Arc::clone(&atomic)), gap));
    offload_wall(edtlp(), atomic, None, scraper, offloads, work)
}

/// The budgeted configuration: `scraped` drains every millisecond —
/// 10-50x hotter than any real `/metrics` cadence — against the
/// NopMetrics-no-scraper baseline. The DESIGN budget bounds the gap at
/// < 1 % of run wall time.
pub fn snapshot_scrape_wall(scraped: bool, offloads: usize, work: Duration) -> Duration {
    snapshot_scrape_wall_at(scraped, scraped.then_some(1_000_000), offloads, work)
}
