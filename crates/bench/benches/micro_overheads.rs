//! §5.2 micro-overheads of the native runtime: off-load round trip, team
//! work-sharing, PPE-gate switching, and pure policy decision throughput.

use std::ops::Range;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mgps_runtime::native::{
    LoopBody, LoopSite, MgpsRuntime, RuntimeConfig, SpeContext, SpePool, TeamRunner,
};
use mgps_runtime::policy::hybrid::SchedulerKind;
use mgps_runtime::policy::chunk::partition;
use mgps_runtime::policy::mgps::{MgpsConfig, MgpsScheduler};
use mgps_runtime::policy::types::TaskId;

struct Sum(usize);
impl LoopBody for Sum {
    type Acc = f64;
    fn len(&self) -> usize {
        self.0
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, r: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        r.map(|i| (i as f64).sqrt()).sum()
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Wall time of `iters` off-loads issued by two worker processes of `rt`
/// at once, at whatever loop degree `rt` runs.
fn two_process_wall(rt: &MgpsRuntime, iters: u64) -> Duration {
    // Long enough bursts that thread start-up is not what is timed; scaled
    // back to the `iters` asked for.
    let each = (iters / 2).max(2_000);
    let start_line = Barrier::new(3);
    let elapsed = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut ctx = rt.enter_process();
                let body = Arc::new(Sum(8));
                start_line.wait();
                for _ in 0..each {
                    ctx.offload_loop(LoopSite(2), Arc::clone(&body)).unwrap();
                }
            });
        }
        start_line.wait();
        Instant::now()
    })
    .elapsed();
    elapsed.mul_f64(iters as f64 / (2 * each) as f64)
}

fn micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro");
    g.sample_size(20);

    let pool = Arc::new(SpePool::new(8, Duration::ZERO));
    g.bench_function("offload_round_trip", |b| {
        b.iter(|| pool.offload(|_| 42u64).wait().unwrap())
    });

    // Two worker processes off-loading at once, wall per off-load: each
    // reserves an SPE and runs on it itself, so what shows here beyond the
    // single-caller probe above is the two sharing the pool's lock.
    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
    g.bench_function("offload_round_trip_two_processes", |b| {
        b.iter_custom(|iters| two_process_wall(&rt, iters))
    });
    drop(rt);

    // The same two shapes for a four-way work-shared loop, through the
    // whole runtime (gate, team reservation, the off-loading thread as the
    // team's master): one caller, then two callers whose teams share the
    // eight SPEs.
    let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
        spes_per_loop: 4,
    }));
    g.bench_function("team_round_trip_d4", |b| {
        let mut ctx = rt.enter_process();
        let body = Arc::new(Sum(8));
        b.iter(|| ctx.offload_loop(LoopSite(3), Arc::clone(&body)).unwrap())
    });
    g.bench_function("team_round_trip_d4_two_processes", |b| {
        b.iter_custom(|iters| two_process_wall(&rt, iters))
    });
    drop(rt);

    let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
    for degree in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("team_reduce_228", degree), &degree, |b, &k| {
            b.iter(|| runner.parallel_reduce(LoopSite(1), k, Arc::new(Sum(228))).unwrap())
        });
    }

    g.bench_function("mgps_policy_decision", |b| {
        let mut s = MgpsScheduler::new(MgpsConfig::for_spes(8));
        let mut i = 0u64;
        b.iter(|| {
            s.on_offload(TaskId(i), i * 100_000);
            let d = s.on_departure(TaskId(i), i * 100_000, i * 100_000 + 96_000, 4);
            i += 1;
            d
        })
    });

    g.bench_function("partition_228_by_4", |b| b.iter(|| partition(228, 4, 0.25)));
    g.finish();
}

criterion_group!(benches, micro);
criterion_main!(benches);
