//! Anchor for the job-observability hot path.
//!
//! `quantile_from_log2_buckets` runs once per `(histogram, quantile)`
//! pair on every `/metrics` render and every `top` frame — it must stay a
//! sub-microsecond scan of 65 buckets.
//!
//! The input is seeded and fixed-size so the numbers are comparable
//! across runs of `cargo bench -p bench --bench job_obs_anchors`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgps_obs::{quantile_from_log2_buckets, JOB_QUANTILES};
use mgps_runtime::metrics::{hist_bucket, HIST_BUCKETS};

/// The repo's splitmix-flavored stream, for seeded synthetic inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// A log2 histogram filled with `samples` log-uniform latencies — the
/// shape `/metrics` actually serves (most buckets occupied, long tail).
fn filled_histogram(samples: usize) -> Vec<u64> {
    let mut buckets = vec![0u64; HIST_BUCKETS];
    let mut lcg = Lcg(0x9a7c);
    for _ in 0..samples {
        let exp = 10 + lcg.next() % 20; // 1 µs .. ~1 s in ns
        let v = (1u64 << exp) + lcg.next() % (1u64 << exp);
        buckets[hist_bucket(v)] += 1;
    }
    buckets
}

fn bench_job_obs(c: &mut Criterion) {
    let mut g = c.benchmark_group("job_obs");

    let buckets = filled_histogram(100_000);
    g.bench_function("quantile_p50_p95_p99", |b| {
        b.iter(|| {
            for q in JOB_QUANTILES {
                black_box(quantile_from_log2_buckets(black_box(&buckets), q));
            }
        });
    });

    g.finish();
}

criterion_group!(benches, bench_job_obs);
criterion_main!(benches);
