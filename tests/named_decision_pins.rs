//! Byte pins for the records that name a decision: `FaultInjected`
//! (a fault kind), `GranularityVerdict` (a kernel) and `Health` (an alarm
//! and its severity).
//!
//! The benchmark's anchored digests cover unfaulted simulator logs, which
//! carry none of the three. These pins cover logs that do: the run behind
//! `multigrain trace --scheduler mgps --bootstraps 4 --scale 2000 --seed 7
//! --faults 'seed=9,crash=0.2,stall=0.1,k=2,retries=1'`, its Chrome trace,
//! and the same log with a merged `ring_drop` alarm. A change to how a
//! name is held in memory must not move a byte of any of them.

use cellsim::event::{EventKind, RunLog};
use mgps_analysis::digest_hex;
use mgps_obs::{chrome_trace, merge_health_events, AlarmKind, HealthEvent};
use mgps_runtime::faults::FaultPlan;
use multigrain::prelude::*;

const FAULTS: &str = "seed=9,crash=0.2,stall=0.1,k=2,retries=1";

/// The run log `multigrain trace` records for the faulted command line.
fn faulted_trace_log() -> RunLog {
    let mut cfg = machines::blade_config(1, SchedulerKind::Mgps, 4, 2000);
    cfg.seed = 7;
    cfg.record_events = true;
    cfg.granularity_verdicts = true;
    cfg.faults = FaultPlan::parse(FAULTS).expect("the spec parses");
    run_simulation(cfg).run_log.expect("record_events was set")
}

/// FNV-1a 64 of `bytes`, as fixed-width hex.
fn fnv_hex(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

fn round_trips(log: &RunLog) {
    let text = log.to_json();
    let back = RunLog::from_value(&minijson::parse(&text).expect("JSON")).expect("decodes");
    assert_eq!(back.to_json(), text, "decode then encode moves no byte");
}

#[test]
fn a_faulted_trace_log_and_its_chrome_trace_keep_their_bytes() {
    let log = faulted_trace_log();
    let count = |f: fn(&EventKind) -> bool| log.events.iter().filter(|e| f(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::FaultInjected { .. })), 196);
    assert_eq!(count(|k| matches!(k, EventKind::GranularityVerdict { .. })), 455);
    assert_eq!(log.events.len(), 7255);
    assert_eq!(digest_hex(&log), "2efa1bcf3afecc30");
    let chrome = chrome_trace(&log);
    assert_eq!(chrome.len(), 370_273);
    assert_eq!(fnv_hex(chrome.as_bytes()), "42ff5ba77d49f5ab");
    round_trips(&log);
}

#[test]
fn a_log_with_a_merged_ring_drop_alarm_keeps_its_bytes() {
    let mut log = faulted_trace_log();
    let at_ns = log.events[log.events.len() / 2].at_ns;
    let alarm = HealthEvent {
        at_ns,
        kind: AlarmKind::RingDrop,
        detail: "17 trace event(s) lost to ring wrap-around".to_string(),
    };
    merge_health_events(&mut log, &[alarm]);
    let health: Vec<_> =
        log.events.iter().filter(|e| matches!(e.kind, EventKind::Health { .. })).collect();
    assert_eq!(health.len(), 1);
    assert_eq!(digest_hex(&log), "1ab56f669be1aba6");
    assert_eq!(
        cellsim::event::json_line(health[0].at_ns, &health[0].kind),
        format!(
            r#"{{"type":"health","at_ns":{at_ns},"alarm":"ring_drop","severity":"critical","detail":"17 trace event(s) lost to ring wrap-around"}}"#
        )
    );
    round_trips(&log);
}
