//! Whole-run summaries in the shared metrics schema.
//!
//! [`ObsSummary::from_log`] folds a simulator [`RunLog`] into the same
//! [`MetricsSnapshot`] the native runtime fills through its
//! [`MetricsSink`], so a simulated run and a native run read identically
//! in reports. Counters the simulator cannot observe — `mailbox_stalls`
//! (the simulated PPE drains mailboxes synchronously, so writes never
//! block), `offload_queue_stalls`, and `dma_fallbacks` (fallback
//! transfers surface as longer `dma_latency_ns` observations instead) —
//! are *absent*, not zero: the summary carries a [`RunSource`] tag and
//! [`ObsSummary::counter`] returns `None` for them on simulated runs, so
//! reports render "n/a" rather than a falsely confident 0. A serve log's
//! job events fold into the per-tenant job states `/metrics` exports.
//!
//! [`RunLog`]: cellsim::event::RunLog
//! [`MetricsSink`]: mgps_runtime::MetricsSink

use std::collections::BTreeMap;

use cellsim::event::{AlarmKind, EventKind, RunLog, Severity, SwitchReason};
use mgps_runtime::{Counter, HistKind, MetricsSnapshot};
use minijson::Value;

use crate::critpath::PhaseBlame;
use crate::decisions::{decisions, DecisionRecord};
use crate::phases::PhaseBreakdown;
use crate::timeline::Timeline;

/// Where a run's log came from — which determines what its counters can
/// legitimately claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// A `cellsim` discrete-event run.
    Simulated,
    /// A native-runtime run drained through `runlog_from_trace`.
    Native,
}

/// Counters a [`RunSource::Simulated`] log structurally cannot observe.
const SIM_UNOBSERVABLE: [Counter; 3] =
    [Counter::MailboxStalls, Counter::OffloadQueueStalls, Counter::DmaFallbacks];

/// Everything a report needs to know about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsSummary {
    /// Provenance of the log (gates which counters are reportable).
    pub source: RunSource,
    /// Scheduling scheme of the run (`RunLog::scheduler` rendered).
    pub scheduler: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// SPEs on the machine.
    pub n_spes: usize,
    /// Run length, ns.
    pub makespan_ns: u64,
    /// Per-SPE busy time, ns.
    pub busy_ns: Vec<u64>,
    /// Per-SPE busy fraction of the makespan.
    pub utilization: Vec<f64>,
    /// Machine-mean SPE utilization.
    pub mean_utilization: f64,
    /// Granularity-phase sums over every completed off-load.
    pub phase_totals: PhaseBlame,
    /// MGPS window decisions, with `U` replayed.
    pub decisions: Vec<DecisionRecord>,
    /// Health alarms recorded in the log as `(alarm, severity, detail)`,
    /// in event order (live runs only; see [`crate::live`]).
    pub health: Vec<(AlarmKind, Severity, String)>,
    /// Serve-plane jobs per tenant, `[admitted, rejected, shed,
    /// in flight]` — the `multigrain_tenant_jobs` states (serve runs only).
    pub tenant_jobs: BTreeMap<usize, [u64; 4]>,
    /// Counters and histograms in the schema shared with the native engine.
    pub metrics: MetricsSnapshot,
}

impl ObsSummary {
    /// Fold a simulator `log` into a summary.
    pub fn from_log(log: &RunLog) -> ObsSummary {
        ObsSummary::from_log_with_source(log, RunSource::Simulated)
    }

    /// Fold `log` into a summary, declaring where the log came from.
    pub fn from_log_with_source(log: &RunLog, source: RunSource) -> ObsSummary {
        let tl = Timeline::from_log(log);
        let phases = PhaseBreakdown::from_log(log);
        let decisions = decisions(log);

        let mut m = MetricsSnapshot::default();
        for ph in &phases.offloads {
            m.observe(HistKind::OffloadWaitNs, ph.t_wait_ns);
            m.observe(HistKind::TaskDurNs, ph.t_spe_ns);
        }
        let mut degree = 1usize;
        let mut health = Vec::new();
        let mut tenant_jobs: BTreeMap<usize, [u64; 4]> = BTreeMap::new();
        for e in &log.events {
            if let Some((tenant, state, enters)) = tenant_job_state(&e.kind) {
                let n = &mut tenant_jobs.entry(tenant).or_default()[state];
                *n = if enters { *n + 1 } else { n.saturating_sub(1) };
            }
            match &e.kind {
                EventKind::Offload { .. } => m.bump(Counter::Offloads, 1),
                EventKind::CtxSwitch { reason, held_ns, .. } => {
                    let c = match reason {
                        SwitchReason::Offload => Counter::CtxSwitchOffload,
                        SwitchReason::Quantum => Counter::CtxSwitchQuantum,
                    };
                    m.bump(c, 1);
                    m.observe(HistKind::CtxHoldNs, *held_ns);
                }
                EventKind::TaskEnd { .. } => m.bump(Counter::TasksCompleted, 1),
                EventKind::CodeReload { .. } => m.bump(Counter::CodeReloads, 1),
                EventKind::MailboxWrite { .. } => m.bump(Counter::MailboxWrites, 1),
                EventKind::MailboxRead { .. } => m.bump(Counter::MailboxReads, 1),
                EventKind::Dma { .. } => m.bump(Counter::DmaIssues, 1),
                EventKind::DmaComplete { latency_ns, .. } => {
                    m.observe(HistKind::DmaLatencyNs, *latency_ns);
                }
                EventKind::DegreeDecision { degree: d, .. } => {
                    m.bump(Counter::MgpsEvaluations, 1);
                    if degree == 1 && *d > 1 {
                        m.bump(Counter::LlpActivations, 1);
                    } else if degree > 1 && *d == 1 {
                        m.bump(Counter::LlpDeactivations, 1);
                    }
                    degree = *d;
                }
                EventKind::Health { alarm, severity, detail } => {
                    health.push((*alarm, *severity, detail.clone()));
                }
                EventKind::FaultInjected { .. } => m.bump(Counter::FaultsInjected, 1),
                EventKind::OffloadRetry { .. } => m.bump(Counter::OffloadRetries, 1),
                EventKind::PpeFallback { .. } => m.bump(Counter::PpeFallbacks, 1),
                EventKind::SpeQuarantined { .. } => m.bump(Counter::SpeQuarantines, 1),
                EventKind::SpeReadmitted { .. } => m.bump(Counter::SpeReadmissions, 1),
                EventKind::GranularityVerdict { offload, reprobe, .. } => {
                    if !offload {
                        m.bump(Counter::KernelThrottles, 1);
                    } else if *reprobe {
                        m.bump(Counter::KernelReprobes, 1);
                    }
                }
                _ => {}
            }
        }

        ObsSummary {
            source,
            scheduler: log.scheduler.to_string(),
            seed: log.seed,
            n_spes: log.n_spes,
            makespan_ns: tl.makespan_ns,
            busy_ns: tl.busy_ns(),
            utilization: tl.utilization(),
            mean_utilization: tl.mean_utilization(),
            phase_totals: phases.totals(),
            decisions,
            health,
            tenant_jobs,
            metrics: m,
        }
    }

    /// The value of counter `c`, or `None` when this run's source cannot
    /// observe it (a simulator log has no mailbox back-pressure, off-load
    /// queue stalls, or DMA fallback path to count).
    pub fn counter(&self, c: Counter) -> Option<u64> {
        if self.source == RunSource::Simulated && SIM_UNOBSERVABLE.contains(&c) {
            None
        } else {
            Some(self.metrics.get(c))
        }
    }

    /// A deterministic JSON value tree of the summary. Unobservable
    /// counters serialize as `null`, not `0`.
    pub fn to_value(&self) -> Value {
        let counters = Counter::ALL
            .iter()
            .map(|&c| {
                let v = match self.counter(c) {
                    Some(v) => v.into(),
                    None => Value::Null,
                };
                (c.name().to_string(), v)
            })
            .collect::<Vec<_>>();
        let hists = HistKind::ALL
            .iter()
            .map(|&h| {
                let buckets = self
                    .metrics
                    .hist_buckets(h)
                    .into_iter()
                    .map(|(floor, n)| Value::array(vec![floor, n]))
                    .collect::<Vec<_>>();
                (h.name().to_string(), Value::Array(buckets))
            })
            .collect::<Vec<_>>();
        let decisions = self
            .decisions
            .iter()
            .map(|d| {
                Value::object(vec![
                    ("at_ns", d.at_ns.into()),
                    ("task", d.task.into()),
                    ("u", d.u.into()),
                    ("waiting", d.waiting.into()),
                    ("degree", d.degree.into()),
                ])
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            ("scheduler", self.scheduler.as_str().into()),
            ("seed", self.seed.into()),
            ("n_spes", self.n_spes.into()),
            ("makespan_ns", self.makespan_ns.into()),
            ("busy_ns", Value::array(self.busy_ns.clone())),
            ("mean_utilization", self.mean_utilization.into()),
            (
                "phase_totals",
                Value::object(vec![
                    ("t_ppe_ns", self.phase_totals.t_ppe_ns.into()),
                    ("t_wait_ns", self.phase_totals.t_wait_ns.into()),
                    ("t_spe_ns", self.phase_totals.t_spe_ns.into()),
                    ("t_code_ns", self.phase_totals.t_code_ns.into()),
                    ("t_comm_ns", self.phase_totals.t_comm_ns.into()),
                ]),
            ),
            ("decisions", Value::Array(decisions)),
            (
                "health",
                Value::Array(
                    self.health
                        .iter()
                        .map(|(alarm, severity, detail)| {
                            Value::object(vec![
                                ("alarm", alarm.as_str().into()),
                                ("severity", severity.as_str().into()),
                                ("detail", detail.as_str().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("counters", Value::Object(counters)),
            ("histograms", Value::Object(hists)),
        ];
        if !self.tenant_jobs.is_empty() {
            let tenants = self.tenant_jobs.iter().map(|(&t, &[a, r, s, f])| {
                Value::object(vec![
                    ("tenant", t.into()),
                    ("admitted", a.into()),
                    ("rejected", r.into()),
                    ("shed", s.into()),
                    ("inflight", f.into()),
                ])
            });
            fields.push(("tenant_jobs", Value::Array(tenants.collect())));
        }
        Value::object(fields)
    }

    /// A human-readable multi-line rendering (deterministic).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "run: scheduler={} seed={} n_spes={} makespan={} ns\n",
            self.scheduler, self.seed, self.n_spes, self.makespan_ns
        ));
        s.push_str(&format!(
            "spe utilization: mean {:.1}%\n",
            self.mean_utilization * 100.0
        ));
        for (i, (&busy, &u)) in self.busy_ns.iter().zip(&self.utilization).enumerate() {
            s.push_str(&format!("  spe{i}: busy {busy} ns ({:.1}%)\n", u * 100.0));
        }
        let t = &self.phase_totals;
        s.push_str(&format!(
            "phases: t_ppe={} t_wait={} t_spe={} t_code={} t_comm={} ns\n",
            t.t_ppe_ns, t.t_wait_ns, t.t_spe_ns, t.t_code_ns, t.t_comm_ns
        ));
        s.push_str("counters:\n");
        for &c in &Counter::ALL {
            match self.counter(c) {
                Some(v) if v > 0 => s.push_str(&format!("  {}: {v}\n", c.name())),
                Some(_) => {}
                None => s.push_str(&format!("  {}: n/a (not observable in simulation)\n", c.name())),
            }
        }
        for (t, [a, r, sh, f]) in &self.tenant_jobs {
            s.push_str(&format!(
                "tenant {t} jobs: admitted {a} rejected {r} shed {sh} inflight {f}\n"
            ));
        }
        if !self.health.is_empty() {
            s.push_str(&format!("health alarms ({}):\n", self.health.len()));
            for (alarm, severity, detail) in &self.health {
                s.push_str(&format!("  [{severity}] {alarm}: {detail}\n"));
            }
        }
        if !self.decisions.is_empty() {
            // Long runs take hundreds of window decisions; show the edges
            // (the full sequence is in the Chrome trace).
            const SHOWN: usize = 5;
            s.push_str(&format!("mgps decisions ({}):\n", self.decisions.len()));
            let n = self.decisions.len();
            for (i, d) in self.decisions.iter().enumerate() {
                if n > 2 * SHOWN && i == SHOWN {
                    s.push_str(&format!("  ... {} more ...\n", n - 2 * SHOWN));
                }
                if n > 2 * SHOWN && (SHOWN..n - SHOWN).contains(&i) {
                    continue;
                }
                s.push_str(&format!(
                    "  t={} ns: U={} T={} -> degree {}\n",
                    d.at_ns, d.u, d.waiting, d.degree
                ));
            }
        }
        s
    }
}

/// The `multigrain_tenant_jobs` state (`[admitted, rejected, shed, in
/// flight]` index) a job event moves for its tenant, and whether the job
/// enters it or — a retried, poisoned or completed job leaving flight —
/// leaves it.
fn tenant_job_state(kind: &EventKind) -> Option<(usize, usize, bool)> {
    Some(match kind {
        EventKind::JobSubmitted { tenant, .. } => (*tenant, 0, true),
        EventKind::JobRejected { tenant, .. } => (*tenant, 1, true),
        EventKind::JobShed { tenant, .. } => (*tenant, 2, true),
        EventKind::JobStarted { tenant, .. } => (*tenant, 3, true),
        EventKind::JobRetried { tenant, .. }
        | EventKind::JobPoisoned { tenant, .. }
        | EventKind::JobCompleted { tenant, .. } => (*tenant, 3, false),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::event::{EventRecord, KernelKind, MailboxKind, SchedulerTag};

    fn small_log() -> RunLog {
        let events = vec![
            (10, EventKind::Offload { proc: 0, task: 0 }),
            (10, EventKind::CtxSwitch { proc: 0, reason: SwitchReason::Offload, held_ns: 10 }),
            (20, EventKind::CodeReload { spe: 0, stall_ns: 40 }),
            (
                20,
                EventKind::MailboxWrite { spe: 0, mailbox: MailboxKind::Inbound, occupancy: 1 },
            ),
            (20, EventKind::TaskStart { proc: 0, task: 0, degree: 1, team: vec![0] }),
            (
                20,
                EventKind::Dma {
                    spe: 0,
                    element_bytes: vec![4096],
                    local_addr: 0,
                    main_addr: 0,
                },
            ),
            (20, EventKind::DmaComplete { spe: 0, bytes: 4096, latency_ns: 7 }),
            (120, EventKind::TaskEnd { proc: 0, task: 0, team: vec![0] }),
            (
                120,
                EventKind::DegreeDecision {
                    degree: 8,
                    u: 0,
                    waiting: 1,
                    n_spes: 2,
                    window: 1,
                    window_fill: 1,
                },
            ),
        ];
        RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 2,
            quantum_ns: 0,
            seed: 7,
            local_store_bytes: 256 * 1024,
            loop_iters: 16,
            mgps_window: Some(1),
            fault_policy: None,
            tenant_weights: None,
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, (at_ns, kind))| EventRecord { seq: i as u64, at_ns, kind })
                .collect(),
        }
    }

    #[test]
    fn fold_matches_the_native_schema() {
        let s = ObsSummary::from_log(&small_log());
        assert_eq!(s.metrics.get(Counter::Offloads), 1);
        assert_eq!(s.metrics.get(Counter::TasksCompleted), 1);
        assert_eq!(s.metrics.get(Counter::CtxSwitchOffload), 1);
        assert_eq!(s.metrics.get(Counter::CodeReloads), 1);
        assert_eq!(s.metrics.get(Counter::MailboxWrites), 1);
        assert_eq!(s.metrics.get(Counter::DmaIssues), 1);
        assert_eq!(s.metrics.get(Counter::MgpsEvaluations), 1);
        assert_eq!(s.metrics.get(Counter::LlpActivations), 1, "degree 1 -> 8");
        assert_eq!(s.counter(Counter::MailboxStalls), None, "unobservable in sim");
        assert_eq!(s.metrics.hist_count(HistKind::TaskDurNs), 1);
        assert_eq!(s.metrics.hist_count(HistKind::DmaLatencyNs), 1);
        assert_eq!(s.metrics.hist_count(HistKind::OffloadWaitNs), 1);
        assert_eq!(s.metrics.hist_count(HistKind::CtxHoldNs), 1);
        assert_eq!(s.busy_ns, vec![100, 0]);
        assert_eq!(s.makespan_ns, 120);
        assert_eq!(s.decisions.len(), 1);
        assert_eq!(s.decisions[0].u, 1);
    }

    #[test]
    fn granularity_verdicts_fold_into_throttle_counters() {
        let mut log = small_log();
        let base = log.events.len() as u64;
        for (i, (offload, reprobe)) in
            [(false, false), (false, false), (true, true), (true, false)].into_iter().enumerate()
        {
            log.events.push(EventRecord {
                seq: base + i as u64,
                at_ns: 300 + i as u64,
                kind: EventKind::GranularityVerdict {
                    kernel: KernelKind::NewView,
                    offload,
                    throttled: !offload,
                    reprobe,
                },
            });
        }
        let s = ObsSummary::from_log(&log);
        assert_eq!(s.metrics.get(Counter::KernelThrottles), 2);
        assert_eq!(s.metrics.get(Counter::KernelReprobes), 1);
        // A plain granted off-load bumps neither counter.
        assert_eq!(s.counter(Counter::KernelThrottles), Some(2), "observable in sim");
    }

    #[test]
    fn fault_plane_events_fold_into_their_counters() {
        let log = crate::testlogs::oracle_logs()
            .iter()
            .find(|l| l.fault_policy.is_some())
            .expect("a faulted oracle run");
        let s = ObsSummary::from_log(log);
        let count = |is: fn(&EventKind) -> bool| {
            log.events.iter().filter(|e| is(&e.kind)).count() as u64
        };
        for (c, n) in [
            (Counter::FaultsInjected, count(|k| matches!(k, EventKind::FaultInjected { .. }))),
            (Counter::OffloadRetries, count(|k| matches!(k, EventKind::OffloadRetry { .. }))),
            (Counter::PpeFallbacks, count(|k| matches!(k, EventKind::PpeFallback { .. }))),
            (Counter::SpeQuarantines, count(|k| matches!(k, EventKind::SpeQuarantined { .. }))),
            (Counter::SpeReadmissions, count(|k| matches!(k, EventKind::SpeReadmitted { .. }))),
        ] {
            assert!(n > 0, "{c}: the faulted run records some");
            assert_eq!(s.counter(c), Some(n), "{c}");
        }
    }

    #[test]
    fn llp_transitions_are_edge_triggered() {
        let mut log = small_log();
        // Append a second decision at the same degree (no transition) and a
        // third that deactivates.
        let base = log.events.len() as u64;
        for (i, degree) in [8usize, 1].into_iter().enumerate() {
            log.events.push(EventRecord {
                seq: base + i as u64,
                at_ns: 200 + i as u64,
                kind: EventKind::DegreeDecision {
                    degree,
                    u: 0,
                    waiting: 1,
                    n_spes: 2,
                    window: 1,
                    window_fill: 0,
                },
            });
        }
        let s = ObsSummary::from_log(&log);
        assert_eq!(s.metrics.get(Counter::MgpsEvaluations), 3);
        assert_eq!(s.metrics.get(Counter::LlpActivations), 1);
        assert_eq!(s.metrics.get(Counter::LlpDeactivations), 1);
    }

    #[test]
    fn sim_unobservable_counters_are_absent_not_zero() {
        let log = small_log();
        let sim = ObsSummary::from_log(&log);
        assert_eq!(sim.source, RunSource::Simulated);
        for c in [Counter::MailboxStalls, Counter::OffloadQueueStalls, Counter::DmaFallbacks] {
            assert_eq!(sim.counter(c), None, "{c:?} must be n/a under simulation");
        }
        assert_eq!(sim.counter(Counter::Offloads), Some(1));
        assert!(sim.to_value().to_json().contains("\"mailbox_stalls\":null"));
        assert!(sim.render_text().contains("mailbox_stalls: n/a"));

        // The same log tagged native reports the counters (genuinely zero).
        let native = ObsSummary::from_log_with_source(&log, RunSource::Native);
        assert_eq!(native.counter(Counter::MailboxStalls), Some(0));
        assert!(native.to_value().to_json().contains("\"mailbox_stalls\":0"));
        assert!(!native.render_text().contains("n/a"));
    }

    #[test]
    fn job_events_fold_into_the_tenant_job_states() {
        let mut log = small_log();
        let submitted = |job, tenant| EventKind::JobSubmitted {
            job,
            tenant,
            taxa: 8,
            sites: 64,
            bootstraps: 1,
            deadline_ns: 0,
            queue_depth: 1,
            queue_cap: 4,
        };
        for kind in [
            submitted(1, 0),
            submitted(2, 1),
            EventKind::JobRejected { job: 3, tenant: 1, queue_depth: 2, queue_cap: 2 },
            EventKind::JobStarted { job: 1, tenant: 0, attempt: 0 },
            EventKind::JobRetried { job: 1, tenant: 0, attempt: 1, backoff_ns: 5 },
            EventKind::JobShed { job: 2, tenant: 1, deadline_ns: 20 },
            EventKind::JobStarted { job: 1, tenant: 0, attempt: 1 },
        ] {
            log.events.push(EventRecord { seq: log.events.len() as u64, at_ns: 200, kind });
        }
        let s = ObsSummary::from_log_with_source(&log, RunSource::Native);
        assert_eq!(s.tenant_jobs, BTreeMap::from([(0, [1, 0, 0, 1]), (1, [1, 1, 1, 0])]));
        let kind = EventKind::JobCompleted {
            job: 1,
            tenant: 0,
            t_queue_ns: 70,
            t_dispatch_ns: 0,
            t_kernel_ns: 0,
            t_reduce_ns: 0,
        };
        log.events.push(EventRecord { seq: log.events.len() as u64, at_ns: 270, kind });
        let s = ObsSummary::from_log_with_source(&log, RunSource::Native);
        assert_eq!(s.tenant_jobs[&0], [1, 0, 0, 0], "a completion leaves flight");
        let json = s.to_value().to_json();
        assert!(json.contains(r#"{"tenant":1,"admitted":1,"rejected":1,"shed":1,"inflight":0}"#));
        assert!(s.render_text().contains("tenant 0 jobs: admitted 1 rejected 0 shed 0 inflight 0"));
        // A run with no job plane renders none of it.
        assert!(!ObsSummary::from_log(&small_log()).to_value().to_json().contains("tenant_jobs"));
    }

    #[test]
    fn renderings_are_deterministic() {
        let log = small_log();
        let a = ObsSummary::from_log(&log);
        let b = ObsSummary::from_log(&log);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_value().to_json(), b.to_value().to_json());
        assert!(a.render_text().contains("mgps decisions (1):"));
        assert!(a.to_value().to_json().contains("\"tasks_completed\":1"));
    }
}
