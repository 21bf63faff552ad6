//! Recorded simulator runs for the differential oracles: the exporters and
//! walks this crate replaced are kept as `#[cfg(test)] mod classic` beside
//! their successors and held equal on these logs.

use std::sync::OnceLock;

use cellsim::event::RunLog;
use cellsim::machine::{run, SimConfig};
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::SchedulerKind;

fn recorded(kind: SchedulerKind, seed: u64, faults: FaultPlan) -> RunLog {
    let mut cfg = SimConfig::cell_42sc(kind, 8, 1_000);
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.record_events = true;
    run(cfg).run_log.expect("record_events was set")
}

/// The benchmark's `sim_verify` grid — its five schedulers at its anchored
/// seeds, 8 bootstraps at `--scale 1000` — plus one faulted MGPS run whose
/// plan quarantines an SPE, retries off-loads and falls back to the PPE.
/// Recorded once per test binary.
pub fn oracle_logs() -> &'static [RunLog] {
    static LOGS: OnceLock<Vec<RunLog>> = OnceLock::new();
    LOGS.get_or_init(record_oracle_logs)
}

fn record_oracle_logs() -> Vec<RunLog> {
    let schedulers = [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ];
    let mut logs = Vec::new();
    for seed in [1, 2, 3, 7919] {
        for kind in schedulers {
            logs.push(recorded(kind, seed, FaultPlan::inert()));
        }
    }
    let plan = FaultPlan::parse("seed=9,crash=0.2,stall=0.1,k=2,retries=1").expect("a valid spec");
    logs.push(recorded(SchedulerKind::Mgps, 7, plan));
    logs
}
