//! Non-flaky guard on the tracing overhead budget.
//!
//! The precise number lives in the `tracing_overhead` Criterion bench
//! (DESIGN budget: < 5 % of run wall time). This smoke test only has to
//! catch catastrophic regressions — an accidental lock, syscall, or
//! allocation on the record path — so it compares best-of-N wall times
//! and allows a generous 1.5x before failing. Best-of minimizes scheduler
//! noise: a loaded CI machine inflates the worst runs, not the best ones.

use std::time::Duration;

use bench::{interleaved_best, native_offload_wall};

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
