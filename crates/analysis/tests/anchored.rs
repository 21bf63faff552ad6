//! The benchmark's anchored digests, held in `cargo test`.
//!
//! `benchmark/anchors.json` pins `digest_hex` for the `sim_verify`
//! workload's five schedulers at seeds 1/2/3/7919, and `run.sh --check`
//! refuses a byte of drift in the canonical log form. That check needs the
//! harness built; this one recomputes the same digests from the same
//! configurations, so a codec or writer change that moves a byte fails
//! tier-1 first. It also holds the unrecorded `sim_core` runs to their
//! anchored task counts, context switches and makespans. The file is
//! read, never written.
//!
//! Beside it, a scaling guard for the critical-path walk the same
//! pipeline runs per log.

use cellsim::event::{EventKind, EventRecord, RunLog, SchedulerTag};
use cellsim::machine::{run, SimConfig};
use mgps_analysis::digest_hex;
use mgps_obs::CriticalPath;
use mgps_runtime::policy::SchedulerKind;

fn scheduler(name: &str) -> SchedulerKind {
    match name {
        "edtlp" => SchedulerKind::Edtlp,
        "linux" => SchedulerKind::LinuxLike,
        "llp2" => SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        "llp4" => SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        "mgps" => SchedulerKind::Mgps,
        other => panic!("anchors.json names a scheduler this test does not know: {other}"),
    }
}

fn anchors() -> minijson::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/anchors.json");
    let text = std::fs::read_to_string(path).expect("benchmark/anchors.json is readable");
    minijson::parse(&text).expect("benchmark/anchors.json parses")
}

#[test]
fn sim_verify_digests_match_the_benchmark_anchors() {
    let anchors = anchors();
    let full = anchors.get("full").and_then(minijson::Value::as_object).expect("a `full` section");
    let mut checked = 0;
    for (seed, workloads) in full {
        let seed: u64 = seed.parse().expect("seeds are integers");
        let rows = workloads.get("sim_verify").and_then(minijson::Value::as_array);
        for row in rows.expect("a `sim_verify` list per seed") {
            let name = row.get("scheduler").and_then(minijson::Value::as_str).expect("a name");
            let want = row.get("digest_hex").and_then(minijson::Value::as_str).expect("a digest");
            // The harness's `sim_verify` configuration at full size.
            let mut cfg = SimConfig::cell_42sc(scheduler(name), 8, 1_000);
            cfg.seed = seed;
            cfg.record_events = true;
            let log = run(cfg).run_log.expect("record_events was set");
            assert_eq!(digest_hex(&log), want, "{name}, seed {seed}: the canonical bytes moved");
            checked += 1;
        }
    }
    assert_eq!(checked, 4 * 5, "seeds 1/2/3/7919 × five schedulers");
}

/// The unrecorded path `sim_core` times: its anchored facts at the
/// harness's tiny size, and the same facts from a recorded run of the same
/// configuration, so recording cannot perturb the schedule.
#[test]
fn sim_core_facts_match_the_benchmark_anchors_recorded_or_not() {
    let anchors = anchors();
    let tiny = anchors.get("tiny").and_then(minijson::Value::as_object).expect("a `tiny` section");
    let mut checked = 0;
    for (seed, workloads) in tiny {
        let seed: u64 = seed.parse().expect("seeds are integers");
        let rows = workloads.get("sim_core").and_then(minijson::Value::as_array);
        for row in rows.expect("a `sim_core` list per seed") {
            let name = row.get("scheduler").and_then(minijson::Value::as_str).expect("a name");
            let fact = |key: &str| row.get(key).and_then(minijson::Value::as_u64).expect("a count");
            let want = (fact("tasks_completed"), fact("context_switches"), fact("makespan_ns"));
            // The harness's `sim_core` configuration at tiny size.
            let mut cfg = SimConfig::cell_42sc(scheduler(name), 8, 400);
            cfg.seed = seed;
            for record_events in [false, true] {
                cfg.record_events = record_events;
                let r = run(cfg);
                let got = (r.tasks_completed, r.context_switches, r.makespan.as_nanos());
                assert_eq!(got, want, "{name}, seed {seed}, recorded {record_events}");
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 4 * 5, "seeds 1/2/3/7919 × five schedulers");
}

/// 50 000 tasks of 8 processes serialized on one SPE, each starting the
/// instant its predecessor ends: every task is on the path, so a walk
/// that rescans the task list per step does 2.5 × 10⁹ visits (minutes);
/// the indexed walk finishes at once. No wall-clock assertion — it only
/// has to finish inside the test budget.
#[test]
fn the_critical_path_of_a_50_000_task_chain_is_found_in_test_time() {
    const TASKS: u64 = 50_000;
    const EXEC_NS: u64 = 100;
    let mut events = Vec::new();
    let mut emit = |at_ns: u64, kind: EventKind| {
        events.push(EventRecord { seq: events.len() as u64, at_ns, kind });
    };
    for task in 0..TASKS {
        let proc = (task % 8) as usize;
        let start = task * EXEC_NS;
        // Requested while the predecessor still runs, after this process's
        // own previous task (eight slots back) has ended.
        emit(start.saturating_sub(EXEC_NS / 2), EventKind::Offload { proc, task });
        if task > 0 {
            emit(start, EventKind::TaskEnd { proc: ((task - 1) % 8) as usize, task: task - 1, team: vec![0] });
        }
        emit(start, EventKind::TaskStart { proc, task, degree: 1, team: vec![0] });
    }
    let last = TASKS - 1;
    emit(TASKS * EXEC_NS, EventKind::TaskEnd { proc: (last % 8) as usize, task: last, team: vec![0] });
    let log = RunLog {
        scheduler: SchedulerTag::Edtlp,
        n_spes: 8,
        quantum_ns: 0,
        seed: 1,
        local_store_bytes: 256 * 1024,
        loop_iters: 1,
        mgps_window: None,
        fault_policy: None,
        tenant_weights: None,
        events,
    };
    let cp = CriticalPath::from_log(&log);
    assert_eq!(cp.steps.len() as u64, TASKS);
    assert_eq!(cp.makespan_ns, TASKS * EXEC_NS);
    assert_eq!(cp.blame.t_spe_ns, TASKS * EXEC_NS);
    assert_eq!(cp.blame.total(), cp.makespan_ns);
}
