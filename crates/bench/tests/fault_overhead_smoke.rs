//! Non-flaky guard on the fault-plane overhead budget.
//!
//! The precise number lives in the `fault_overhead` Criterion bench
//! (DESIGN budget: unarmed < 1 % of run wall time, guarded across commits
//! by the bench regression gate). This smoke test only has to catch
//! catastrophic regressions — an unconditional lock or allocation leaking
//! onto the unarmed path — so it compares best-of-N wall times of the
//! armed-but-quiet run against the unarmed run and allows a generous 1.5x
//! before failing. Best-of minimizes scheduler noise: a loaded CI machine
//! inflates the worst runs, not the best ones.

use std::time::Duration;

use bench::{fault_offload_wall, interleaved_best};

#[test]
fn quiet_fault_plane_stays_within_the_overhead_budget() {
    const OFFLOADS: usize = 48;
    const WORK: Duration = Duration::from_micros(50);
    const ATTEMPTS: usize = 5;

    // Warm up both paths (thread spawns, lazy allocations).
    fault_offload_wall(false, 8, WORK);
    fault_offload_wall(true, 8, WORK);

    let (unarmed, armed) = interleaved_best(ATTEMPTS, |on| fault_offload_wall(on, OFFLOADS, WORK));

    let ratio = armed.as_secs_f64() / unarmed.as_secs_f64();
    assert!(
        ratio < 1.5,
        "the quiet fault plane cost {ratio:.2}x the unarmed run (unarmed {unarmed:?}, \
         armed {armed:?}); the per-off-load fault round must stay cheap"
    );
}
