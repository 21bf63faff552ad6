//! Checker fixtures: clean simulator runs must report zero violations,
//! seeded corruptions must each trip exactly the invariant they break,
//! and replay must be digest-deterministic in the seed.

use cellsim::event::{EventKind, EventRecord, FaultKind, RunLog, SchedulerTag, SwitchReason};
use cellsim::machine::{run, SimConfig};
use mgps_analysis::{check_run, trace_digest};
use mgps_runtime::faults::FaultPlan;
use mgps_runtime::policy::SchedulerKind;

/// Workload scale for the integration runs (large = fast).
const SCALE: usize = 4_000;

fn recorded_run(scheduler: SchedulerKind, n: usize, seed: u64) -> RunLog {
    let mut cfg = SimConfig::cell_42sc(scheduler, n, SCALE);
    cfg.seed = seed;
    cfg.record_events = true;
    run(cfg).run_log.expect("record_events was set")
}

#[test]
fn clean_runs_have_zero_violations_under_every_scheduler() {
    for scheduler in [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let log = recorded_run(scheduler, 2, 0x5eed);
        let report = check_run(&log);
        assert!(
            report.is_clean(),
            "{scheduler:?} run must satisfy every invariant:\n{}",
            report.render()
        );
        assert!(report.events_checked > 0, "{scheduler:?} run recorded no events");
        assert!(report.tasks_checked > 0, "{scheduler:?} run started no tasks");
    }
}

#[test]
fn digest_is_deterministic_in_the_seed() {
    let a = recorded_run(SchedulerKind::Mgps, 2, 0x5eed);
    let b = recorded_run(SchedulerKind::Mgps, 2, 0x5eed);
    assert_eq!(trace_digest(&a), trace_digest(&b), "same seed must replay identically");
    let c = recorded_run(SchedulerKind::Mgps, 2, 0xbeef);
    assert_ne!(trace_digest(&a), trace_digest(&c), "different seeds should diverge");
}

#[test]
fn serialized_log_round_trips_and_keeps_its_digest() {
    let log = recorded_run(SchedulerKind::Edtlp, 1, 7);
    let json = log.to_value().to_json();
    let back = RunLog::from_value(&minijson::parse(&json).expect("parse")).expect("round trip");
    assert_eq!(trace_digest(&log), trace_digest(&back));
    assert!(check_run(&back).is_clean());
}

// ---------------------------------------------------------------------------
// Seeded violations over a hand-built minimal (clean) log.
// ---------------------------------------------------------------------------

/// A minimal EDTLP log exercising one complete task lifecycle; the checker
/// must find it spotless, and each seeded corruption below must trip
/// exactly the invariant it breaks.
fn minimal_log() -> RunLog {
    let kinds = vec![
        (0, EventKind::Offload { proc: 0, task: 0 }),
        (0, EventKind::CtxSwitch { proc: 0, reason: SwitchReason::Offload, held_ns: 100 }),
        (10, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
        (10, EventKind::LsAlloc { spe: 0, bytes: 4096, in_use: 4096 }),
        (12, EventKind::Dma { spe: 0, element_bytes: vec![4096], local_addr: 0, main_addr: 0x1000 }),
        (12, EventKind::Chunk { task: 0, loop_iters: 64, start: 0, len: 64, worker: 0 }),
        (90, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
        (90, EventKind::LsFree { spe: 0, bytes: 4096, in_use: 0 }),
    ];
    RunLog {
        scheduler: SchedulerTag::Edtlp,
        n_spes: 8,
        quantum_ns: 100_000,
        seed: 1,
        local_store_bytes: 256 * 1024,
        loop_iters: 64,
        mgps_window: None,
        fault_policy: None,
        tenant_weights: None,
        events: kinds
            .into_iter()
            .enumerate()
            .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
            .collect(),
    }
}

fn rules_of(log: &RunLog) -> Vec<&'static str> {
    check_run(log).violations.into_iter().map(|v| v.rule).collect()
}

#[test]
fn minimal_log_is_clean() {
    let report = check_run(&minimal_log());
    assert!(report.is_clean(), "baseline fixture must be clean:\n{}", report.render());
}

#[test]
fn oversized_dma_element_is_flagged() {
    let mut log = minimal_log();
    // 32 KB in one element: double the MFC's 16 KB transfer cap.
    log.events[4].kind =
        EventKind::Dma { spe: 0, element_bytes: vec![32 * 1024], local_addr: 0, main_addr: 0x1000 };
    assert_eq!(rules_of(&log), vec!["dma-legality"]);
    let report = check_run(&log);
    assert_eq!(report.violations[0].seq, Some(4));
    assert!(report.violations[0].message.contains("32768 bytes"));
}

#[test]
fn misaligned_dma_is_flagged() {
    let mut log = minimal_log();
    log.events[4].kind =
        EventKind::Dma { spe: 0, element_bytes: vec![4096], local_addr: 8, main_addr: 0x1000 };
    assert_eq!(rules_of(&log), vec!["dma-legality"]);
}

#[test]
fn local_store_overflow_is_flagged() {
    let mut log = minimal_log();
    // 300 KB into a 256 KB local store.
    log.events[3].kind = EventKind::LsAlloc { spe: 0, bytes: 300_000, in_use: 300_000 };
    log.events[7].kind = EventKind::LsFree { spe: 0, bytes: 300_000, in_use: 0 };
    let report = check_run(&log);
    assert_eq!(rules_of(&log), vec!["local-store"]);
    assert!(report.violations[0].message.contains("over capacity"));
}

#[test]
fn overlapping_spe_tasks_are_flagged() {
    let mut log = minimal_log();
    // A second task starts on SPE 0 while task 0 still runs there. The
    // corrupted busy state also surfaces at the tasks' ends, so every
    // violation must carry the overlap rule and the start must be first.
    let overlap = vec![
        (12, EventKind::Offload { proc: 1, task: 1 }),
        (20, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![0] }),
        (30, EventKind::Chunk { task: 1, loop_iters: 64, start: 0, len: 64, worker: 0 }),
        (40, EventKind::TaskEnd { proc: 1, task: 1, team: vec![0] }),
    ];
    // Splice after task 0's chunk dispatch (position 6), before its end.
    for (offset, (at_ns, kind)) in overlap.into_iter().enumerate() {
        log.events.insert(6 + offset, EventRecord { seq: 0, at_ns, kind });
    }
    for (i, e) in log.events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    let rules = rules_of(&log);
    assert!(!rules.is_empty(), "overlap must be detected");
    assert!(
        rules.iter().all(|r| *r == "spe-overlap"),
        "only the overlap invariant may fire, got {rules:?}"
    );
    let report = check_run(&log);
    assert!(report.violations[0].message.contains("while task 0 still runs there"));
}

#[test]
fn non_monotone_time_is_flagged() {
    let mut log = minimal_log();
    log.events[6].at_ns = 5; // TaskEnd before its TaskStart's timestamp
    assert_eq!(rules_of(&log), vec!["causal-time"]);
}

#[test]
fn out_of_order_grants_are_flagged() {
    let mut log = minimal_log();
    let extra = vec![
        (90, EventKind::Offload { proc: 1, task: 2 }),
        (90, EventKind::Offload { proc: 2, task: 3 }),
        // Task 3 jumps the FIFO queue ahead of task 2.
        (95, EventKind::TaskStart { proc: 2, task: 3, degree: 1, team: vec![1] }),
        (95, EventKind::Chunk { task: 3, loop_iters: 64, start: 0, len: 64, worker: 1 }),
        (96, EventKind::TaskEnd { proc: 2, task: 3, team: vec![1] }),
        (97, EventKind::TaskStart { proc: 1, task: 2, degree: 1, team: vec![2] }),
        (97, EventKind::Chunk { task: 2, loop_iters: 64, start: 0, len: 64, worker: 2 }),
        (98, EventKind::TaskEnd { proc: 1, task: 2, team: vec![2] }),
    ];
    let base = log.events.len();
    for (i, (at_ns, kind)) in extra.into_iter().enumerate() {
        log.events.push(EventRecord { seq: (base + i) as u64, at_ns, kind });
    }
    assert_eq!(rules_of(&log), vec!["fifo-order"]);
}

#[test]
fn quantum_switch_under_edtlp_is_flagged() {
    let mut log = minimal_log();
    log.events[1].kind =
        EventKind::CtxSwitch { proc: 0, reason: SwitchReason::Quantum, held_ns: 200_000 };
    assert_eq!(rules_of(&log), vec!["ctx-switch"]);
}

#[test]
fn degree_decision_outside_mgps_is_flagged() {
    let mut log = minimal_log();
    log.events.push(EventRecord {
        seq: 8,
        at_ns: 95,
        kind: EventKind::DegreeDecision {
            degree: 2,
            u: 0,
            waiting: 1,
            n_spes: 8,
            window: 8,
            window_fill: 4,
        },
    });
    assert_eq!(rules_of(&log), vec!["mgps-degree"]);
}

#[test]
fn chunk_gap_is_flagged() {
    let mut log = minimal_log();
    // The single chunk covers only half the iteration space.
    log.events[5].kind = EventKind::Chunk { task: 0, loop_iters: 64, start: 0, len: 32, worker: 0 };
    assert_eq!(rules_of(&log), vec!["chunk-coverage"]);
}

// ---------------------------------------------------------------------------
// Fault-recovery and quarantine rules.
// ---------------------------------------------------------------------------

const FAULT_SPEC: &str = "seed=9,retries=1,backoff=1000,k=3,readmit=8";

fn fault_plan() -> FaultPlan {
    FaultPlan::parse(FAULT_SPEC).expect("fixture spec must parse")
}

/// [`minimal_log`] plus a second task that faults twice and degrades to
/// the PPE — a complete, policy-conforming recovery story the checker
/// must accept, and each corruption below must break.
fn faulted_log() -> RunLog {
    let plan = fault_plan();
    let mut log = minimal_log();
    log.fault_policy = Some(plan.to_spec());
    let tail = vec![
        (91, EventKind::Offload { proc: 1, task: 1 }),
        (95, EventKind::FaultInjected { spe: 1, task: 1, fault: FaultKind::SpeStall, attempt: 0 }),
        (100, EventKind::OffloadRetry { task: 1, attempt: 1, backoff_ns: plan.backoff_ns(1, 1) }),
        (105, EventKind::FaultInjected { spe: 1, task: 1, fault: FaultKind::SpeCrash, attempt: 1 }),
        (110, EventKind::PpeFallback { proc: 1, task: 1, attempts: 2 }),
    ];
    let base = log.events.len();
    for (i, (at_ns, kind)) in tail.into_iter().enumerate() {
        log.events.push(EventRecord { seq: (base + i) as u64, at_ns, kind });
    }
    log
}

#[test]
fn conforming_fault_recovery_is_clean() {
    let report = check_run(&faulted_log());
    assert!(report.is_clean(), "recovery fixture must be clean:\n{}", report.render());
}

#[test]
fn unparseable_fault_policy_is_flagged() {
    let mut log = minimal_log();
    log.fault_policy = Some("definitely-not-a-spec".into());
    assert!(rules_of(&log).contains(&"fault-policy"));
}

#[test]
fn fault_events_without_a_declared_policy_are_flagged() {
    let mut log = faulted_log();
    log.fault_policy = None;
    assert!(rules_of(&log).contains(&"fault-recovery"));
}

#[test]
fn lost_task_is_flagged() {
    let mut log = faulted_log();
    log.events.pop(); // drop the PpeFallback: the faulted task resolves nowhere
    let report = check_run(&log);
    assert!(
        report.violations.iter().any(|v| v.rule == "fault-recovery" && v.message.contains("lost")),
        "dropping the fallback must lose the task:\n{}",
        report.render()
    );
}

#[test]
fn duplicated_completion_is_flagged() {
    let mut log = faulted_log();
    // Task 1 "also" completes on SPEs after falling back.
    let base = log.events.len();
    for (i, (at_ns, kind)) in [
        (115u64, EventKind::TaskStart { proc: 1, task: 1, degree: 1, team: vec![2] }),
        (116, EventKind::Chunk { task: 1, loop_iters: 64, start: 0, len: 64, worker: 2 }),
        (120, EventKind::TaskEnd { proc: 1, task: 1, team: vec![2] }),
    ]
    .into_iter()
    .enumerate()
    {
        log.events.push(EventRecord { seq: (base + i) as u64, at_ns, kind });
    }
    let report = check_run(&log);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "fault-recovery" && v.message.contains("duplicated")),
        "double completion must be flagged:\n{}",
        report.render()
    );
}

#[test]
fn undeclared_backoff_is_flagged() {
    let mut log = faulted_log();
    let declared = fault_plan().backoff_ns(1, 1);
    for e in &mut log.events {
        if let EventKind::OffloadRetry { backoff_ns, .. } = &mut e.kind {
            *backoff_ns = declared + 1;
        }
    }
    assert!(rules_of(&log).contains(&"fault-recovery"));
}

#[test]
fn double_quarantine_is_flagged() {
    let mut log = faulted_log();
    let base = log.events.len();
    for (i, at_ns) in [115u64, 120].into_iter().enumerate() {
        log.events.push(EventRecord {
            seq: (base + i) as u64,
            at_ns,
            kind: EventKind::SpeQuarantined { spe: 2, faults: 3 },
        });
    }
    let report = check_run(&log);
    assert!(
        report.violations.iter().any(|v| v.rule == "quarantine" && v.message.contains("twice")),
        "overlapping quarantine intervals must be flagged:\n{}",
        report.render()
    );
}

#[test]
fn readmission_without_quarantine_is_flagged() {
    let mut log = faulted_log();
    let base = log.events.len();
    log.events.push(EventRecord {
        seq: base as u64,
        at_ns: 115,
        kind: EventKind::SpeReadmitted { spe: 4 },
    });
    assert!(rules_of(&log).contains(&"quarantine"));
}

#[test]
fn work_on_a_quarantined_spe_is_flagged() {
    let mut log = faulted_log();
    // Quarantine SPE 0 before task 0 is granted to it.
    log.events.insert(
        1,
        EventRecord { seq: 0, at_ns: 1, kind: EventKind::SpeQuarantined { spe: 0, faults: 3 } },
    );
    for (i, e) in log.events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
    assert!(rules_of(&log).contains(&"quarantine"));
}

#[test]
fn premature_quarantine_below_k_is_flagged() {
    let mut log = faulted_log();
    let base = log.events.len();
    log.events.push(EventRecord {
        seq: base as u64,
        at_ns: 115,
        kind: EventKind::SpeQuarantined { spe: 2, faults: 1 }, // policy says k=3
    });
    assert!(rules_of(&log).contains(&"quarantine"));
}

// ---------------------------------------------------------------------------
// Job-plane rules: exactly-once completion and DRR fairness.
// ---------------------------------------------------------------------------

/// Append `tail` to `log`, renumbering seq from the current end.
fn append(log: &mut RunLog, tail: Vec<(u64, EventKind)>) {
    let base = log.events.len();
    for (i, (at_ns, kind)) in tail.into_iter().enumerate() {
        log.events.push(EventRecord { seq: (base + i) as u64, at_ns, kind });
    }
}

fn submitted(job: u64, tenant: usize, queue_depth: usize) -> EventKind {
    EventKind::JobSubmitted {
        job,
        tenant,
        taxa: 8,
        sites: 64,
        bootstraps: 1,
        deadline_ns: 0,
        queue_depth,
        queue_cap: 8,
    }
}

#[test]
fn double_completion_trips_exactly_the_job_retry_rule() {
    let mut log = minimal_log();
    append(
        &mut log,
        vec![
            (100, submitted(50, 0, 1)),
            (110, EventKind::JobStarted { job: 50, tenant: 0, attempt: 0 }),
            // Both completions carry exact partitions of their spans, so
            // the lifecycle arithmetic is happy — only exactly-once breaks.
            (200, EventKind::JobCompleted {
                job: 50,
                tenant: 0,
                t_queue_ns: 10,
                t_dispatch_ns: 30,
                t_kernel_ns: 50,
                t_reduce_ns: 10,
            }),
            (300, EventKind::JobCompleted {
                job: 50,
                tenant: 0,
                t_queue_ns: 10,
                t_dispatch_ns: 30,
                t_kernel_ns: 100,
                t_reduce_ns: 60,
            }),
        ],
    );
    assert_eq!(rules_of(&log), vec!["job-retry"]);
    let report = check_run(&log);
    assert!(
        report.violations[0].message.contains("exactly-once completion is broken"),
        "{}",
        report.render()
    );
}

/// One balanced two-tenant job story: submissions for tenants 0 and 1,
/// dispatched in `start_order`, every job completed with an exact
/// partition. Tenant 0 jobs are 60/61, tenant 1 jobs are 70/71.
fn weighted_log(weights: Vec<u64>, start_order: [u64; 4]) -> RunLog {
    let mut log = minimal_log();
    log.tenant_weights = Some(weights);
    let tenant_of = |job: u64| usize::from(job >= 70);
    let submit_ns =
        |job: u64| 100 + (job % 10) + if job >= 70 { 2 } else { 0 }; // 60→100 61→101 70→102 71→103
    let mut tail = vec![
        (100, submitted(60, 0, 1)),
        (101, submitted(61, 0, 2)),
        (102, submitted(70, 1, 3)),
        (103, submitted(71, 1, 4)),
    ];
    for (i, job) in start_order.into_iter().enumerate() {
        tail.push((
            110 + i as u64,
            EventKind::JobStarted { job, tenant: tenant_of(job), attempt: 0 },
        ));
    }
    for (i, job) in start_order.into_iter().enumerate() {
        let at = 200 + i as u64;
        tail.push((
            at,
            EventKind::JobCompleted {
                job,
                tenant: tenant_of(job),
                t_queue_ns: at - submit_ns(job) - 90,
                t_dispatch_ns: 30,
                t_kernel_ns: 50,
                t_reduce_ns: 10,
            },
        ));
    }
    append(&mut log, tail);
    log
}

#[test]
fn drr_conforming_dispatch_under_declared_weights_is_clean() {
    // Weights 4:1 give tenant 0 the first four deficit units, so the whole
    // tenant-0 backlog drains before tenant 1 gets a turn.
    let log = weighted_log(vec![4, 1], [60, 61, 70, 71]);
    let report = check_run(&log);
    assert!(report.is_clean(), "DRR-conforming fixture must be clean:\n{}", report.render());
}

#[test]
fn weight_inverted_dispatch_trips_exactly_the_tenant_fairness_rule() {
    // The same story dispatched as if the weights were 1:4 — tenant 1
    // drains first against a header that promises tenant 0 priority.
    let log = weighted_log(vec![4, 1], [70, 71, 60, 61]);
    let rules = rules_of(&log);
    assert!(!rules.is_empty(), "inverted dispatch must be detected");
    assert!(
        rules.iter().all(|r| *r == "tenant-fairness"),
        "only the fairness invariant may fire, got {rules:?}"
    );
    let report = check_run(&log);
    assert!(
        report.violations[0].message.contains("deficit round-robin"),
        "{}",
        report.render()
    );
}

#[test]
fn armed_simulator_runs_stay_checker_clean_under_every_scheduler() {
    for scheduler in [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let mut cfg = SimConfig::cell_42sc(scheduler, 2, SCALE);
        cfg.seed = 0x5eed;
        cfg.record_events = true;
        cfg.faults =
            FaultPlan::parse("seed=5,stall=0.05,dma=0.02,broken=1").expect("spec must parse");
        let result = run(cfg);
        assert!(!result.unrecovered, "{scheduler:?}: recovery must complete every task");
        let log = result.run_log.expect("record_events was set");
        assert!(log.fault_policy.is_some(), "armed runs must declare their plan");
        let report = check_run(&log);
        assert!(
            report.is_clean(),
            "{scheduler:?} armed run must satisfy every invariant:\n{}",
            report.render()
        );
    }
}

#[test]
fn lethal_plan_trips_the_checker() {
    let mut cfg = SimConfig::cell_42sc(SchedulerKind::Edtlp, 2, SCALE);
    cfg.seed = 0x5eed;
    cfg.record_events = true;
    cfg.faults =
        FaultPlan::parse("seed=3,pin=crash@0,retries=0,fallback=off").expect("spec must parse");
    let result = run(cfg);
    assert!(result.unrecovered, "a lost task must surface in the report");
    let log = result.run_log.expect("record_events was set");
    let report = check_run(&log);
    assert!(
        report.violations.iter().any(|v| v.rule == "fault-recovery" && v.message.contains("lost")),
        "the checker must convict the lethal plan:\n{}",
        report.render()
    );
}

/// [`minimal_log`] under DRR `weights` plus a job-plane `tail`.
fn job_story(weights: Vec<u64>, tail: Vec<(u64, EventKind)>) -> RunLog {
    let mut log = minimal_log();
    log.tenant_weights = Some(weights);
    append(&mut log, tail);
    log
}

fn expiring(job: u64, tenant: usize, queue_depth: usize) -> EventKind {
    EventKind::JobSubmitted {
        job,
        tenant,
        taxa: 8,
        sites: 64,
        bootstraps: 1,
        deadline_ns: 5,
        queue_depth,
        queue_cap: 8,
    }
}

fn started(job: u64, tenant: usize, attempt: u64) -> EventKind {
    EventKind::JobStarted { job, tenant, attempt }
}

/// A completion at `at` whose one term spans the whole time since `since`.
fn completed(at: u64, since: u64, job: u64, tenant: usize) -> (u64, EventKind) {
    let kind = EventKind::JobCompleted {
        job,
        tenant,
        t_queue_ns: at - since,
        t_dispatch_ns: 0,
        t_kernel_ns: 0,
        t_reduce_ns: 0,
    };
    (at, kind)
}

#[test]
fn a_deadline_shed_at_the_ring_head_consumes_no_deficit() {
    // Weights 2:1. Tenant 0's expired front is shed, then its two units go
    // to 61 and 62 — had the shed spent one, 70 would have come between.
    let log = job_story(
        vec![2, 1],
        vec![
            (100, expiring(60, 0, 1)),
            (101, submitted(61, 0, 2)),
            (102, submitted(62, 0, 3)),
            (103, submitted(70, 1, 4)),
            (110, EventKind::JobShed { job: 60, tenant: 0, deadline_ns: 5 }),
            (111, started(61, 0, 0)),
            (112, started(62, 0, 0)),
            (113, started(70, 1, 0)),
            completed(200, 101, 61, 0),
            completed(201, 102, 62, 0),
            completed(202, 103, 70, 1),
        ],
    );
    let report = check_run(&log);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn a_shed_out_of_queue_order_trips_exactly_the_tenant_fairness_rule() {
    // 61's deadline has genuinely expired, but 60 is ahead of it.
    let log = job_story(
        vec![2, 1],
        vec![
            (100, submitted(60, 0, 1)),
            (101, expiring(61, 0, 2)),
            (102, submitted(70, 1, 3)),
            (110, EventKind::JobShed { job: 61, tenant: 0, deadline_ns: 5 }),
            (111, started(60, 0, 0)),
            (112, started(70, 1, 0)),
            completed(200, 100, 60, 0),
            completed(201, 102, 70, 1),
        ],
    );
    assert_eq!(rules_of(&log), vec!["tenant-fairness"]);
    assert!(check_run(&log).violations[0].message.contains("shed out of queue order"));
}

#[test]
fn a_retried_job_rejoins_the_back_of_its_tenants_line() {
    // Weights 2:1: 60 fails its first attempt and requeues behind 61, so
    // tenant 0's second unit goes to 61, then 70, then 60's second try.
    let plan = fault_plan();
    let backoff_ns = plan.backoff_ns(60, 1);
    let mut log = job_story(
        vec![2, 1],
        vec![
            (100, submitted(60, 0, 1)),
            (101, submitted(61, 0, 2)),
            (102, submitted(70, 1, 3)),
            (110, started(60, 0, 0)),
            (120, EventKind::JobRetried { job: 60, tenant: 0, attempt: 1, backoff_ns }),
            (121, started(61, 0, 0)),
            (122, started(70, 1, 0)),
            (123, started(60, 0, 1)),
            completed(200, 101, 61, 0),
            completed(201, 102, 70, 1),
            completed(202, 100, 60, 0),
        ],
    );
    log.fault_policy = Some(plan.to_spec());
    let report = check_run(&log);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn each_corrupted_job_story_trips_its_lifecycle_rule() {
    // The defects `mgps_obs::fold_jobs` used to refuse, now judged by the
    // checker alone: an inexact span partition, lifecycle events with no
    // admission record, and a completion after the job was shed.
    let story = |tail: Vec<(u64, EventKind)>| {
        let mut log = minimal_log();
        append(&mut log, tail);
        rules_of(&log)
    };
    let mut inexact = completed(200, 100, 60, 0);
    if let EventKind::JobCompleted { t_reduce_ns, .. } = &mut inexact.1 {
        *t_reduce_ns += 1;
    }
    let cases = [
        (vec![(100, submitted(60, 0, 1)), (110, started(60, 0, 0)), inexact], vec!["job-lifecycle"]),
        (vec![(110, started(60, 0, 0))], vec!["job-lifecycle"]),
        (vec![completed(200, 100, 60, 0)], vec!["job-lifecycle"]),
        (
            vec![
                (100, expiring(60, 0, 1)),
                (110, EventKind::JobShed { job: 60, tenant: 0, deadline_ns: 5 }),
                completed(200, 100, 60, 0),
            ],
            vec!["job-lifecycle", "job-retry"],
        ),
    ];
    for (i, (tail, rules)) in cases.into_iter().enumerate() {
        assert_eq!(story(tail), rules, "case {i}");
    }
}
