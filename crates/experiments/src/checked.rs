//! Invariant-checked simulation runs.
//!
//! Every table/figure regeneration in this crate funnels its `cellsim`
//! runs through [`checked_run`], which forces structured event recording,
//! hands the resulting [`cellsim::RunLog`] to `mgps-analysis`, and
//! accumulates the verdicts in a process-wide tally. Violations are
//! reported on stderr as they are found; `multigrain analyze` (and the
//! `all` bin) read the tally afterwards with [`tally`] / [`assert_clean`].

use std::sync::Mutex;

use cellsim::machine::{run, RunReport, SimConfig};
use mgps_analysis::check_run;

/// Accumulated checker verdicts across every [`checked_run`] so far.
#[derive(Debug, Clone, Default)]
pub struct CheckTally {
    /// Simulation runs checked.
    pub runs: u64,
    /// Events examined across those runs.
    pub events: u64,
    /// Rendered violations, each prefixed with its run's scheduler tag.
    pub violations: Vec<String>,
}

static TALLY: Mutex<CheckTally> =
    Mutex::new(CheckTally { runs: 0, events: 0, violations: Vec::new() });

/// Run one simulation with event recording on, check every schedule
/// invariant over its log, and fold the verdict into the global tally.
///
/// Drop-in replacement for [`cellsim::machine::run`]; the returned report
/// additionally carries the recorded `run_log`.
pub fn checked_run(cfg: SimConfig) -> RunReport {
    checked_run_counted(cfg).0
}

/// [`checked_run`], also returning how many violations this run added
/// to the tally (a delta of the shared tally would count concurrent
/// runs' violations too).
pub(crate) fn checked_run_counted(mut cfg: SimConfig) -> (RunReport, usize) {
    cfg.record_events = true;
    let report = run(cfg);
    let log = report.run_log.as_ref().expect("record_events was set");
    let check = check_run(log);
    let mut t = TALLY.lock().unwrap();
    t.runs += 1;
    t.events += check.events_checked as u64;
    for v in &check.violations {
        let line = format!("[{} seed={:#x}] {v}", log.scheduler, log.seed);
        eprintln!("invariant violation: {line}");
        t.violations.push(line);
    }
    (report, check.violations.len())
}

/// Snapshot the global tally.
pub fn tally() -> CheckTally {
    TALLY.lock().unwrap().clone()
}

/// Reset the global tally (tests and repeated `analyze` passes).
pub fn reset_tally() {
    *TALLY.lock().unwrap() = CheckTally::default();
}

/// Panic if any checked run violated an invariant.
///
/// # Panics
/// Panics with the full violation list when the tally is not clean.
pub fn assert_clean() {
    let t = tally();
    assert!(
        t.violations.is_empty(),
        "{} invariant violation(s) across {} checked run(s):\n{}",
        t.violations.len(),
        t.runs,
        t.violations.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::policy::SchedulerKind;

    #[test]
    fn checked_run_records_and_tallies() {
        let report = checked_run(SimConfig::cell_42sc(SchedulerKind::Edtlp, 1, 2000));
        assert!(report.run_log.is_some(), "event log must be recorded");
        let t = tally();
        assert!(t.runs >= 1);
        assert!(t.events > 0);
    }
}
