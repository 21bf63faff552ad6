//! Non-flaky guard on the fault-plane overhead.
//!
//! DESIGN budgets the unarmed fault plane at < 1 % of run wall time. No
//! run compares it with a build that has no fault plane, so that figure
//! is a budget, not a measurement. This smoke test guards the armed path
//! instead: it compares best-of-N wall times of an armed-but-quiet run
//! against the unarmed run and allows a generous 1.5x before failing, so
//! it catches a catastrophic cost in the fault round an armed plan pays
//! per off-load. The unarmed run is its denominator, so a cost on the
//! unarmed path cannot trip it. Best-of minimizes scheduler noise: a
//! loaded CI machine inflates the worst runs, not the best ones. It times
//! wall clock, so it is a test binary of its own: no other test competes
//! with it for the host's CPUs.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{interleaved_best, offload_wall};
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::native::RuntimeConfig;
use mgps_runtime::policy::SchedulerKind;
use mgps_runtime::NopMetrics;

/// Wall time of `offloads` sequential EDTLP off-loads with the fault
/// plane unarmed (the default inert [`FaultPlan`]) or armed with a plan
/// that can never fire (a single pin on a task id the workload never
/// reaches).
///
/// Unarmed, the entire fault plane is one `Option::is_some` check at the
/// top of `offload_loop`. Armed-but-quiet additionally pays one mutex'd
/// fault-round decision per off-load, which is the marginal bookkeeping
/// cost chaos runs accept.
fn fault_offload_wall(armed: bool, offloads: usize, work: Duration) -> Duration {
    let mut cfg = RuntimeConfig::cell(SchedulerKind::Edtlp);
    if armed {
        // A pinned fault on a task id the run never issues: every armed
        // code path executes, no fault ever fires.
        cfg.faults = FaultPlan::parse(&format!("seed=7,pin=crash@{}", u64::MAX))
            .expect("quiet plan parses");
        assert!(cfg.faults.armed());
    }
    offload_wall(cfg, Arc::new(NopMetrics), None, None, offloads, work)
}

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
