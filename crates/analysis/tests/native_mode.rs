//! Checker semantics under [`CheckMode::Native`]: the relaxations admit
//! exactly the clock artifacts a preemptively-scheduled host run cannot
//! avoid, while every genuine scheduling invariant still trips, and
//! [`check_trace_sanity`] surfaces ring overflow before the merge can
//! hide it.

use cellsim::event::{EventKind, EventRecord, RunLog, SchedulerTag, SwitchReason};
use mgps_analysis::{check_run, check_run_with, check_trace_sanity, CheckMode};
use mgps_runtime::tracing::Tracer;

/// A native-shaped log: no quantum, no global loop size (tasks carry
/// their own on chunk events).
fn native_log(events: Vec<(u64, EventKind)>) -> RunLog {
    RunLog {
        scheduler: SchedulerTag::Edtlp,
        n_spes: 4,
        quantum_ns: 0,
        seed: 0,
        local_store_bytes: 256 * 1024,
        loop_iters: 0,
        mgps_window: None,
            fault_policy: None,
            tenant_weights: None,
        events: events
            .into_iter()
            .enumerate()
            .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
            .collect(),
    }
}

/// Two processes race: task 1 starts before task 0 (no FIFO across host
/// threads), the yielding process's context switch is recorded after it
/// re-acquires (later than its off-load instant), and each task's chunks
/// tile its own loop size.
fn racing_native_log() -> RunLog {
    native_log(vec![
        (100, EventKind::Offload { proc: 0, task: 0 }),
        (110, EventKind::Offload { proc: 1, task: 1 }),
        (120, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![1] }),
        (121, EventKind::Chunk { task: 1, loop_iters: 50, start: 0, len: 50, worker: 1 }),
        (130, EventKind::CtxSwitch { proc: 0, reason: SwitchReason::Offload, held_ns: 90 }),
        (140, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
        (141, EventKind::Chunk { task: 0, loop_iters: 64, start: 0, len: 64, worker: 0 }),
        (200, EventKind::TaskEnd { proc: 1, task: 1, team: vec![1] }),
        (220, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
    ])
}

#[test]
fn native_mode_admits_host_scheduling_artifacts() {
    let log = racing_native_log();
    let native = check_run_with(&log, CheckMode::Native);
    assert!(native.is_clean(), "{}", native.render());
    assert_eq!(native.tasks_checked, 2);
    // Busy accounting mirrors the timeline fold: each team member from
    // task start to task end.
    assert_eq!(native.spe_busy_ns, vec![80, 80, 0, 0]);

    // The same log under simulator rules trips the artifacts: task ids
    // out of FIFO order, a context switch off its off-load instant, and
    // chunks sized for their own loops instead of the (zero) global one.
    let sim = check_run(&log);
    let rules: Vec<&str> = sim.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"fifo-order"), "{rules:?}");
    assert!(rules.contains(&"ctx-switch"), "{rules:?}");
    assert!(rules.contains(&"chunk-coverage"), "{rules:?}");
}

#[test]
fn native_team_members_with_empty_ranges_may_skip_chunks() {
    // A degree-3 team where one worker's partition came up empty: only
    // two chunks arrive, but they tile the loop — legal natively.
    let log = native_log(vec![
        (0, EventKind::Offload { proc: 0, task: 0 }),
        (10, EventKind::TaskStart { proc: 0, task: 0, degree: 3, team: vec![0, 1, 2] }),
        (11, EventKind::Chunk { task: 0, loop_iters: 2, start: 0, len: 1, worker: 0 }),
        (12, EventKind::Chunk { task: 0, loop_iters: 2, start: 1, len: 1, worker: 1 }),
        (50, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1, 2] }),
    ]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn native_mode_still_catches_genuine_violations() {
    // Chunks that disagree on the loop size.
    let log = native_log(vec![
        (0, EventKind::Offload { proc: 0, task: 0 }),
        (10, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![0, 1] }),
        (11, EventKind::Chunk { task: 0, loop_iters: 10, start: 0, len: 5, worker: 0 }),
        (12, EventKind::Chunk { task: 0, loop_iters: 12, start: 5, len: 7, worker: 1 }),
        (50, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1] }),
    ]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.violations.iter().any(|v| v.rule == "chunk-coverage"), "{}", report.render());

    // Chunks that leave a gap in the iteration space.
    let log = native_log(vec![
        (0, EventKind::Offload { proc: 0, task: 0 }),
        (10, EventKind::TaskStart { proc: 0, task: 0, degree: 2, team: vec![0, 1] }),
        (11, EventKind::Chunk { task: 0, loop_iters: 10, start: 0, len: 4, worker: 0 }),
        (12, EventKind::Chunk { task: 0, loop_iters: 10, start: 6, len: 4, worker: 1 }),
        (50, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0, 1] }),
    ]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.violations.iter().any(|v| v.rule == "chunk-coverage"), "{}", report.render());

    // A chunk from outside the team.
    let log = native_log(vec![
        (0, EventKind::Offload { proc: 0, task: 0 }),
        (10, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
        (11, EventKind::Chunk { task: 0, loop_iters: 10, start: 0, len: 10, worker: 3 }),
        (50, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
    ]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.violations.iter().any(|v| v.rule == "chunk-coverage"), "{}", report.render());

    // Lifecycle rules are not relaxed: a double end still trips.
    let log = native_log(vec![
        (0, EventKind::Offload { proc: 0, task: 0 }),
        (10, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
        (50, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        (60, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
    ]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.violations.iter().any(|v| v.rule == "task-lifecycle"), "{}", report.render());

    // A context switch from a process that never off-loaded.
    let log = native_log(vec![(
        10,
        EventKind::CtxSwitch { proc: 3, reason: SwitchReason::Offload, held_ns: 10 },
    )]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.violations.iter().any(|v| v.rule == "ctx-switch"), "{}", report.render());

    // A degree decision under a non-MGPS scheduler.
    let log = native_log(vec![(
        10,
        EventKind::DegreeDecision { degree: 2, u: 0, waiting: 1, n_spes: 4, window: 4, window_fill: 1 },
    )]);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.violations.iter().any(|v| v.rule == "mgps-degree"), "{}", report.render());
}

#[test]
fn trace_sanity_passes_a_clean_trace() {
    let tracer = Tracer::new(16);
    let handle = tracer.handle();
    for i in 0..10u64 {
        handle.record(EventKind::Offload { proc: 0, task: i });
    }
    let report = check_trace_sanity(&tracer.drain());
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.events_checked, 10);
    assert_eq!(report.dropped_events, 0);
}

#[test]
fn trace_sanity_surfaces_ring_overflow() {
    // Seeded overflow: a 4-slot ring fed 10 events keeps the first 4 and
    // counts 6 drops. The drops must land in the report as both a count
    // and a violation — a silently truncated trace is not a clean trace.
    let tracer = Tracer::new(4);
    let handle = tracer.handle();
    for i in 0..10u64 {
        handle.record(EventKind::Offload { proc: 0, task: i });
    }
    let log = tracer.drain();
    assert_eq!(log.total_events(), 4);
    let report = check_trace_sanity(&log);
    assert_eq!(report.dropped_events, 6);
    assert!(!report.is_clean());
    let drops: Vec<_> =
        report.violations.iter().filter(|v| v.rule == "trace-drops").collect();
    assert_eq!(drops.len(), 1);
    assert!(drops[0].message.contains("6 event(s) dropped"), "{}", drops[0].message);
}
