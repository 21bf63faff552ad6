//! End-to-end: a real native-runtime run, traced, drained, merged into a
//! [`RunLog`], and pushed through the *entire* observability stack — the
//! invariant checker in native mode, the timeline/phases folds, the
//! critical-path engine, and the Chrome trace exporter — with zero
//! violations and agreeing accounting.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use cellsim::event::{EventKind, RunLog, SchedulerTag};
use mgps_analysis::{check_run_with, check_trace_sanity, CheckMode};
use mgps_obs::{
    chrome_trace, runlog_from_trace, CriticalPath, NativeRunMeta, ObsSummary, PhaseBreakdown,
    RunSource, Timeline,
};
use mgps_runtime::native::{
    LoopBody, LoopSite, MgpsRuntime, RuntimeConfig, SpeContext, SpePool, TeamRunner, TraceTask,
};
use mgps_runtime::policy::SchedulerKind;
use mgps_runtime::{Counter, NopMetrics, TraceLog, Tracer};

/// A loop body with controllable per-iteration work.
struct Spin {
    n: usize,
    spin: Duration,
}

impl LoopBody for Spin {
    type Acc = f64;
    fn len(&self) -> usize {
        self.n
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        let mut s = 0.0;
        for i in range {
            let t0 = std::time::Instant::now();
            while t0.elapsed() < self.spin {
                std::hint::spin_loop();
            }
            s += i as f64;
        }
        s
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Run a two-process MGPS workload under the tracer and drain it.
fn traced_mgps_run() -> (TraceLog, usize) {
    let tracer = Tracer::with_default_capacity();
    let cfg = RuntimeConfig::cell(SchedulerKind::Mgps);
    let n_spes = cfg.n_spes;
    let rt =
        MgpsRuntime::with_observability(cfg, Arc::new(NopMetrics), Some(Arc::clone(&tracer)));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut ctx = rt.enter_process();
                for _ in 0..8 {
                    let body = Arc::new(Spin { n: 64, spin: Duration::from_micros(10) });
                    ctx.offload_loop(LoopSite(1), body).unwrap();
                }
            });
        }
    });
    (tracer.drain(), n_spes)
}

#[test]
fn native_run_passes_the_full_observability_stack() {
    let (trace, n_spes) = traced_mgps_run();

    // The raw rings are sane: monotone, nothing dropped.
    let sanity = check_trace_sanity(&trace);
    assert!(sanity.is_clean(), "{}", sanity.render());
    assert_eq!(sanity.dropped_events, 0);

    // Merge and check the full native invariant catalog.
    let log: RunLog = runlog_from_trace(
        &trace,
        NativeRunMeta { scheduler: SchedulerTag::Mgps, n_spes, seed: 0, fault_policy: None, tenant_weights: None },
    );
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.tasks_checked, 16, "2 processes x 8 off-loads");
    assert_eq!(report.events_checked, log.events.len());

    // The timeline fold agrees with the checker's busy accounting.
    let tl = Timeline::from_log(&log);
    assert_eq!(tl.busy_ns(), report.spe_busy_ns);
    assert!(tl.busy_ns().iter().sum::<u64>() > 0);

    // Phase accounting covers every off-load, and the critical path
    // partitions the makespan exactly.
    let pb = PhaseBreakdown::from_log(&log);
    assert_eq!(pb.offloads.len(), 16);
    let cp = CriticalPath::from_log(&log);
    assert!(cp.makespan_ns > 0);
    assert_eq!(cp.blame.total(), cp.makespan_ns);

    // The summary carries native-only counters as real values.
    let summary = ObsSummary::from_log_with_source(&log, RunSource::Native);
    assert_eq!(summary.counter(Counter::TasksCompleted), Some(16));
    assert!(summary.counter(Counter::MailboxStalls).is_some());

    // The Chrome exporter works unchanged on the merged native log.
    let json = chrome_trace(&log);
    let parsed = minijson::parse(&json).expect("native chrome trace parses");
    assert!(parsed.get("traceEvents").is_some());
    assert!(json.contains("task "));
}

/// An *armed* native run — pinned fault on off-load 0 plus a 20 % stall
/// rate — must still produce a log the native-mode checker accepts: every
/// faulted off-load resolved exactly once, retries sequential with the
/// declared backoff, quarantine intervals exclusive. The fault events
/// also have to survive the merge into RunLog order.
#[test]
fn armed_native_run_stays_checker_valid() {
    use mgps_runtime::faults::FaultPlan;

    let plan = FaultPlan::parse("seed=5,stall=0.2,pin=dma_error@0").expect("spec parses");
    let tracer = Tracer::with_default_capacity();
    let mut cfg = RuntimeConfig::cell(SchedulerKind::Edtlp);
    cfg.faults = plan;
    let n_spes = cfg.n_spes;
    let rt =
        MgpsRuntime::with_observability(cfg, Arc::new(NopMetrics), Some(Arc::clone(&tracer)));
    {
        let mut ctx = rt.enter_process();
        for _ in 0..16 {
            let body = Arc::new(Spin { n: 32, spin: Duration::from_micros(5) });
            ctx.offload_loop(LoopSite(1), body).unwrap();
        }
    }
    let trace = tracer.drain();

    let log: RunLog = runlog_from_trace(
        &trace,
        NativeRunMeta {
            scheduler: SchedulerTag::Edtlp,
            n_spes,
            seed: 0,
            fault_policy: Some(plan.to_spec()),
            tenant_weights: None,
        },
    );
    let injected = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FaultInjected { .. }))
        .count();
    let retried = log
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::OffloadRetry { .. }))
        .count();
    assert!(injected >= 1, "the pinned fault on off-load 0 must fire");
    assert!(retried >= 1, "a faulted off-load must retry (or fall back)");

    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "armed run must be checker-valid:\n{}", report.render());
    assert_eq!(report.tasks_checked, 16, "every admitted task completed exactly once");
}

/// An EDTLP run with more processes than SPEs: every task is a team of one
/// its caller drives, and a caller that finds both SPEs reserved waits for
/// one. Each task starts and ends naming the one SPE it reserved, its one
/// chunk names that SPE too, and the log passes the native checker.
#[test]
fn edtlp_teams_of_one_stay_checker_valid_when_callers_wait_for_an_spe() {
    const PROCS: u64 = 3;
    const TASKS_EACH: u64 = 12;
    let tracer = Tracer::with_default_capacity();
    let mut cfg = RuntimeConfig::cell(SchedulerKind::Edtlp);
    cfg.n_spes = 2;
    cfg.ppe_contexts = PROCS as usize;
    let rt =
        MgpsRuntime::with_observability(cfg, Arc::new(NopMetrics), Some(Arc::clone(&tracer)));
    std::thread::scope(|s| {
        for _ in 0..PROCS {
            s.spawn(|| {
                let mut ctx = rt.enter_process();
                for _ in 0..TASKS_EACH {
                    let body = Arc::new(Spin { n: 16, spin: Duration::from_micros(5) });
                    ctx.offload_loop(LoopSite(1), body).unwrap();
                }
            });
        }
    });
    assert_eq!(rt.idle_spes(), 2);
    let trace = tracer.drain();
    let sanity = check_trace_sanity(&trace);
    assert!(sanity.is_clean(), "{}", sanity.render());
    let meta = NativeRunMeta {
        scheduler: SchedulerTag::Edtlp,
        n_spes: 2,
        seed: 0,
        fault_policy: None,
        tenant_weights: None,
    };
    let log = runlog_from_trace(&trace, meta);
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.tasks_checked, (PROCS * TASKS_EACH) as usize);
    for task in 0..PROCS * TASKS_EACH {
        let team = team_of(&log, task);
        assert_eq!(team.len(), 1, "task {task}: {team:?}");
        assert_eq!(chunks_of(&log, task), [(0, 16, team[0])], "task {task}");
    }
}

/// Golden structure of [`PhaseBreakdown`] over a native LLP team run:
/// the master/worker reduction recorded by `parallel_reduce_traced`
/// yields one off-load whose span covers dispatch through reduction and
/// whose chunks tile the loop. A woken worker reads its chunk from memory
/// it shares with the master, so the native run records no DMA and its
/// `t_comm` is zero.
#[test]
fn llp_team_run_phases_include_the_reduction_span() {
    let tracer = Tracer::with_default_capacity();
    let pool = Arc::new(SpePool::with_observability(4, Arc::new(NopMetrics), Some(&*tracer)));
    let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
    let handle = tracer.handle();
    let body = Arc::new(Spin { n: 63, spin: Duration::from_micros(30) });
    let degree = 4;
    handle.record(EventKind::Offload { proc: 0, task: 0 });
    let trace_task = TraceTask { handle: &handle, proc: 0, task: 0 };
    let sum = runner
        .parallel_reduce_traced(LoopSite(7), degree, body, Some(trace_task))
        .expect("team run succeeds");
    assert_eq!(sum, (0..63).sum::<usize>() as f64);

    let log = runlog_from_trace(
        &tracer.drain(),
        NativeRunMeta { scheduler: SchedulerTag::Edtlp, n_spes: 4, seed: 0, fault_policy: None, tenant_weights: None },
    );
    let report = check_run_with(&log, CheckMode::Native);
    assert!(report.is_clean(), "{}", report.render());

    let pb = PhaseBreakdown::from_log(&log);
    assert_eq!(pb.offloads.len(), 1, "one team off-load");
    let ph = pb.offloads[0];
    assert_eq!(ph.task, 0);
    assert_eq!(ph.degree, degree);
    // The span is TaskStart..TaskEnd: dispatch, chunks, merge, reduction.
    // An even 63/4 split gives the master at least 15 iterations of 30 us
    // minimum spin each, so the span cannot be shorter than that.
    assert_eq!(ph.t_spe_ns, ph.end_ns - ph.start_ns);
    assert!(ph.t_spe_ns >= 15 * 30_000, "span covers the master chunk");
    // Neither the master nor a woken worker fetches anything: no DMA.
    assert_eq!(ph.t_comm_ns, 0);
    let chunks = chunks_of(&log, 0);
    assert!(chunks.iter().all(|(_, _, worker)| team_of(&log, 0).contains(worker)));
    // The chunks recorded tile the 63-iteration loop across the team.
    assert_eq!(chunks.iter().map(|(_, len, _)| len).sum::<usize>(), 63);
}

/// `(start, len, worker)` of every chunk recorded for `task`.
fn chunks_of(log: &RunLog, task: u64) -> Vec<(usize, usize, usize)> {
    log.events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Chunk { task: t, start, len, worker, .. } if *t == task => {
                Some((*start, *len, *worker))
            }
            _ => None,
        })
        .collect()
}

/// The team `task` started on.
fn team_of(log: &RunLog, task: u64) -> Vec<usize> {
    log.events
        .iter()
        .find_map(|e| match &e.kind {
            EventKind::TaskStart { task: t, team, .. } if *t == task => Some(team.clone()),
            _ => None,
        })
        .expect("the task started")
}

#[test]
fn team_runs_stay_checker_clean_whoever_runs_the_chunks() {
    // Chunks this short are over before a woken worker arrives, so the
    // master — the calling thread, on the master SPE's context — takes
    // most of them; which ones is up to the host scheduler. Once the site
    // has measured that, it stops waking the team and the master runs
    // every chunk alone. Whatever happened, every invocation's chunks must
    // tile its loop on SPEs of its team, and the log must pass the native
    // checker.
    const INVOCATIONS: u64 = 50;
    for degree in [2usize, 4, 8] {
        let tracer = Tracer::with_default_capacity();
        let pool = Arc::new(SpePool::with_observability(8, Arc::new(NopMetrics), Some(&*tracer)));
        let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        let handle = tracer.handle();
        for task in 0..INVOCATIONS {
            handle.record(EventKind::Offload { proc: 0, task });
            let body = Arc::new(Spin { n: 64, spin: Duration::ZERO });
            let trace_task = TraceTask { handle: &handle, proc: 0, task };
            let sum = runner
                .parallel_reduce_traced(LoopSite(8), degree, body, Some(trace_task))
                .expect("team run succeeds");
            assert_eq!(sum, (0..64).sum::<usize>() as f64);
        }
        // Worker jobs record on their rings until they are back in the pool.
        while pool.idle_count() < 8 {
            std::thread::yield_now();
        }

        let trace = tracer.drain();
        let sanity = check_trace_sanity(&trace);
        assert!(sanity.is_clean(), "{}", sanity.render());
        let meta = NativeRunMeta {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 8,
            seed: 0,
            fault_policy: None,
            tenant_weights: None,
        };
        let log = runlog_from_trace(&trace, meta);
        let report = check_run_with(&log, CheckMode::Native);
        assert!(report.is_clean(), "degree {degree}: {}", report.render());

        let mut solo = 0;
        let mut named = BTreeSet::new();
        for task in 0..INVOCATIONS {
            let team = team_of(&log, task);
            let chunks = chunks_of(&log, task);
            // The tiling is the site's; the team is whoever was woken.
            assert_eq!(chunks.len(), degree);
            assert!(team.len() == degree || team.len() == 1, "team {team:?}");
            solo += u64::from(team.len() == 1);
            for (start, _, worker) in chunks {
                assert!(team.contains(&worker));
                if start == 0 {
                    assert_eq!(worker, team[0], "chunk 0 is the master's");
                }
            }
            named.extend(team);
        }
        assert!(solo > 0, "degree {degree}: the team was woken every time");
        assert!(INVOCATIONS - solo >= 3, "degree {degree}: no optimistic wake");

        // Busy time is the reserved SPEs': a task's span once per member,
        // and nothing on an SPE no task reserved.
        let tl = Timeline::from_log(&log);
        let spans: u64 = (PhaseBreakdown::from_log(&log).offloads.iter())
            .map(|p| (p.end_ns - p.start_ns) * p.degree as u64)
            .sum();
        assert_eq!(tl.busy_ns().iter().sum::<u64>(), spans);
        for (spe, busy) in tl.busy_ns().into_iter().enumerate() {
            assert_eq!(busy > 0, named.contains(&spe), "SPE {spe}, busy {busy} ns");
        }
    }
}

/// [`Spin`] over again: round *k*'s sum is scaled by `k + 1`, so the value
/// that comes back names the round that produced it.
struct Rounds {
    n: usize,
    rounds: usize,
    asked: std::sync::atomic::AtomicUsize,
}

impl LoopBody for Rounds {
    type Acc = f64;
    fn len(&self) -> usize {
        self.n
    }
    fn identity(&self) -> f64 {
        0.0
    }
    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
        let round = self.asked.load(std::sync::atomic::Ordering::Relaxed) + 1;
        range.map(|i| (i * round) as f64).sum()
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
    fn again(&self, _merged: &mut f64) -> bool {
        self.asked.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1 < self.rounds
    }
}

#[test]
fn a_three_round_task_is_one_task_whose_chunks_tile_its_loop_once() {
    const INVOCATIONS: u64 = 50;
    for degree in [1usize, 4] {
        let tracer = Tracer::with_default_capacity();
        let pool = Arc::new(SpePool::with_observability(8, Arc::new(NopMetrics), Some(&*tracer)));
        let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        let handle = tracer.handle();
        for task in 0..INVOCATIONS {
            handle.record(EventKind::Offload { proc: 0, task });
            let body = Arc::new(Rounds { n: 64, rounds: 3, asked: Default::default() });
            let trace_task = TraceTask { handle: &handle, proc: 0, task };
            let sum = runner
                .parallel_reduce_traced(LoopSite(9), degree, body, Some(trace_task))
                .expect("team run succeeds");
            assert_eq!(sum, 3.0 * (0..64).sum::<usize>() as f64, "the third round's sum");
        }
        while pool.idle_count() < 8 {
            std::thread::yield_now();
        }

        let trace = tracer.drain();
        let sanity = check_trace_sanity(&trace);
        assert!(sanity.is_clean(), "{}", sanity.render());
        let meta = NativeRunMeta {
            scheduler: SchedulerTag::Edtlp,
            n_spes: 8,
            seed: 0,
            fault_policy: None,
            tenant_weights: None,
        };
        let log = runlog_from_trace(&trace, meta);
        let report = check_run_with(&log, CheckMode::Native);
        assert!(report.is_clean(), "degree {degree}: {}", report.render());
        assert_eq!(report.tasks_checked as u64, INVOCATIONS);

        // Three rounds ran, and the log shows each chunk once: the first
        // round's, on the team the task started on — a woken one, or the
        // master alone.
        let of_kind = |pred: fn(&EventKind) -> bool| {
            log.events.iter().filter(|e| pred(&e.kind)).count() as u64
        };
        assert_eq!(of_kind(|k| matches!(k, EventKind::TaskStart { .. })), INVOCATIONS);
        assert_eq!(of_kind(|k| matches!(k, EventKind::TaskEnd { .. })), INVOCATIONS);
        assert_eq!(of_kind(|k| matches!(k, EventKind::Chunk { .. })), INVOCATIONS * degree as u64);
        for task in 0..INVOCATIONS {
            let (team, chunks) = (team_of(&log, task), chunks_of(&log, task));
            assert_eq!(chunks.len(), degree);
            assert!(team.len() == degree || team.len() == 1, "team {team:?}");
            assert_eq!(chunks.iter().map(|(_, len, _)| len).sum::<usize>(), 64);
            assert!(chunks.iter().all(|(_, _, worker)| team.contains(worker)));
        }
    }
}
