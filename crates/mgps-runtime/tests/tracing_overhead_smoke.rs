//! Non-flaky guard on the tracing overhead budget.
//!
//! DESIGN budgets ring tracing at < 5 % of run wall time; the benchmark's
//! traced runs record the share they see as the ledger row
//! `tracing.overhead_share`. This smoke test only has to catch
//! catastrophic regressions — an accidental lock, syscall, or allocation
//! on the record path — so it compares best-of-N wall times and allows a
//! generous 1.5x before failing. Best-of minimizes scheduler noise: a
//! loaded CI machine inflates the worst runs, not the best ones. It times
//! wall clock, so it is a test binary of its own: no other test competes
//! with it for the host's CPUs.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{interleaved_best, offload_wall};
use mgps_runtime::native::RuntimeConfig;
use mgps_runtime::policy::SchedulerKind;
use mgps_runtime::{NopMetrics, Tracer};

/// Wall time of `offloads` sequential EDTLP off-loads, each spinning for
/// roughly `work`. With `with_tracing` every span lands on a per-thread
/// ring ([`Tracer`]); without, the tracing hooks compile down to a `None`
/// check.
fn native_offload_wall(with_tracing: bool, offloads: usize, work: Duration) -> Duration {
    let tracer = with_tracing.then(Tracer::with_default_capacity);
    let cfg = RuntimeConfig::cell(SchedulerKind::Edtlp);
    offload_wall(cfg, Arc::new(NopMetrics), tracer, None, offloads, work)
}

#[test]
fn ring_tracing_stays_within_the_overhead_budget() {
    const OFFLOADS: usize = 48;
    const WORK: Duration = Duration::from_micros(50);
    const ATTEMPTS: usize = 5;

    // Warm up both paths (thread spawns, lazy allocations).
    native_offload_wall(false, 8, WORK);
    native_offload_wall(true, 8, WORK);

    let (nop, traced) = interleaved_best(ATTEMPTS, |on| native_offload_wall(on, OFFLOADS, WORK));

    let ratio = traced.as_secs_f64() / nop.as_secs_f64();
    assert!(
        ratio < 1.5,
        "ring tracing cost {ratio:.2}x the untraced run (nop {nop:?}, traced {traced:?}); \
         the record path must stay lock- and syscall-free"
    );
}
