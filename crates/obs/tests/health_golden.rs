//! Golden tests for the online health detector against *real* runs.
//!
//! The contract the live telemetry plane depends on: clean seeded
//! simulator runs never trip an alarm under any scheduler, while a
//! seeded fault (a starved PPE gate: windows evaluating with no task
//! parallelism and LLP throttled to degree 1) fires exactly the
//! utilization-collapse alarm — once, latched.

use cellsim::event::{EventKind, EventRecord, RunLog, SchedulerTag};
use cellsim::machine::{run, SimConfig};
use mgps_obs::{replay_health, AlarmKind, HealthDetector};
use mgps_runtime::metrics::{hist_bucket, Counter, HistKind, SnapshotDelta, HIST_BUCKETS};
use mgps_runtime::policy::SchedulerKind;

fn recorded(scheduler: SchedulerKind) -> RunLog {
    let mut cfg = SimConfig::cell_42sc(scheduler, 4, 300);
    cfg.seed = 0xfeed;
    cfg.record_events = true;
    run(cfg).run_log.expect("record_events was set")
}

#[test]
fn clean_seeded_runs_stay_silent_under_every_scheduler() {
    for scheduler in [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ] {
        let log = recorded(scheduler);
        let events = replay_health(&log);
        assert!(
            events.is_empty(),
            "{scheduler:?}: clean run raised {:?}",
            events.iter().map(|e| e.kind).collect::<Vec<_>>()
        );
    }
}

/// A starved gate, distilled: the controller keeps evaluating windows but
/// no off-loads land in any departing task's execution window (`U` = 0)
/// and the grant stays throttled at degree 1.
fn starved_gate_fixture(low_windows: usize) -> RunLog {
    let events: Vec<EventRecord> = (0..low_windows)
        .map(|i| EventRecord {
            seq: i as u64,
            at_ns: (i as u64 + 1) * 1_000_000,
            kind: EventKind::DegreeDecision {
                degree: 1,
                u: 0,
                waiting: 8,
                n_spes: 8,
                window: 8,
                window_fill: 8,
            },
        })
        .collect();
    RunLog {
        scheduler: SchedulerTag::Mgps,
        n_spes: 8,
        quantum_ns: 0,
        seed: 0xdead,
        local_store_bytes: 256 * 1024,
        loop_iters: 16,
        mgps_window: Some(8),
            fault_policy: None,
            tenant_weights: None,
        events,
    }
}

#[test]
fn a_starved_gate_fires_exactly_one_utilization_collapse() {
    let log = starved_gate_fixture(HealthDetector::COLLAPSE_WINDOWS + 3);
    let events = replay_health(&log);
    assert_eq!(
        events.iter().map(|e| e.kind).collect::<Vec<_>>(),
        vec![AlarmKind::UtilizationCollapse],
        "expected exactly one latched utilization-collapse alarm"
    );
    // It fires at the k-th consecutive low window, not before.
    assert_eq!(events[0].at_ns, HealthDetector::COLLAPSE_WINDOWS as u64 * 1_000_000);
}

#[test]
fn a_gate_that_recovers_before_k_windows_stays_silent() {
    // One window short of the trip threshold.
    let log = starved_gate_fixture(HealthDetector::COLLAPSE_WINDOWS - 1);
    assert!(replay_health(&log).is_empty());
}

/// One telemetry window's job-latency signal: `lats` completed-job wall
/// times folded into the `JobTotalNs` delta histogram.
fn job_window(epoch: u64, lats: &[u64]) -> SnapshotDelta {
    let mut d = SnapshotDelta {
        epoch,
        counters: [0; Counter::ALL.len()],
        hists: [[0; HIST_BUCKETS]; HistKind::ALL.len()],
        hist_sums: [0; HistKind::ALL.len()],
    };
    for &l in lats {
        d.hists[HistKind::JobTotalNs as usize][hist_bucket(l)] += 1;
        d.hist_sums[HistKind::JobTotalNs as usize] += l;
    }
    d
}

/// Seeded job wall times: `scale` exercises both sides of the SLO — the
/// clean traces draw from [1ms, ~17ms), the overload trace multiplies
/// past the 1s SLO.
fn seeded_latencies(seed: u64, n: usize, scale: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (1_000_000 + (state >> 33) % 16_000_000) * scale
        })
        .collect()
}

#[test]
fn a_seeded_overload_trace_fires_exactly_one_latency_slo_burn() {
    let mut det = HealthDetector::new(8);
    let mut fired = Vec::new();
    // Healthy warmup establishes the EWMA baseline...
    for w in 0..4u64 {
        fired.extend(det.observe_delta(w * 100, &job_window(w, &seeded_latencies(0xabc + w, 32, 1)), 0));
    }
    // ...then the overload: every job lands at or past the SLO and the
    // p99 a decade past it, window after window.
    for w in 4..12u64 {
        fired.extend(det.observe_delta(w * 100, &job_window(w, &seeded_latencies(0xabc + w, 32, 1_000)), 0));
    }
    assert_eq!(
        fired.iter().map(|e| e.kind).collect::<Vec<_>>(),
        vec![AlarmKind::LatencySloBurn],
        "a sustained overload fires the burn alarm exactly once, latched"
    );
    // It fires on the k-th consecutive burning window, not before.
    assert_eq!(fired[0].at_ns, (4 + HealthDetector::LATENCY_BURN_WINDOWS as u64 - 1) * 100);
}

#[test]
fn clean_seeded_job_traffic_stays_silent_under_every_scheduler() {
    for (i, scheduler) in [
        SchedulerKind::Edtlp,
        SchedulerKind::LinuxLike,
        SchedulerKind::StaticHybrid { spes_per_loop: 2 },
        SchedulerKind::StaticHybrid { spes_per_loop: 4 },
        SchedulerKind::Mgps,
    ]
    .into_iter()
    .enumerate()
    {
        let mut det = HealthDetector::new(8);
        for w in 0..32u64 {
            let lats = seeded_latencies(0x5eed + i as u64 * 101 + w, 24, 1);
            let fired = det.observe_delta(w * 100, &job_window(w, &lats), 0);
            assert!(
                fired.is_empty(),
                "{scheduler:?}: clean job traffic raised {:?}",
                fired.iter().map(|e| e.kind).collect::<Vec<_>>()
            );
        }
    }
}
