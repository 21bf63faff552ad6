//! Live telemetry: Prometheus rendering, NDJSON events, and the online
//! health detector behind `multigrain serve` / `multigrain top`.
//!
//! Post-mortem observability (the rest of this crate) folds a finished
//! [`RunLog`]; this module consumes the *running* side of the same schema:
//! epoch-stamped [`mgps_runtime::metrics::Snapshot`]s and incrementally
//! drained MGPS decisions. Three layers:
//!
//! * [`LiveStatus`] + [`prometheus_text`] — one scrape's worth of state
//!   rendered in the Prometheus text exposition format (every counter,
//!   the 7 histograms as cumulative log2 buckets, per-SPE busy gauges, the
//!   LLP degree in force, per-kernel throttle gauges, job latency
//!   quantile gauges interpolated from the log2 buckets, active alarms);
//! * [`parse_prometheus`] + [`validate_families`] — a minimal parser for
//!   the same format, used by `multigrain top` and by the CI smoke test to
//!   assert that the exporter's families actually parse;
//! * [`HealthDetector`] — the online failure-pattern detector: it consumes
//!   [`SnapshotDelta`]s and [`LiveDecision`]s and raises
//!   *utilization-collapse*, *stall-spike*, *ring-drop*,
//!   *quarantine-storm*, *latency-SLO-burn*, and *tenant-starvation*
//!   alarms as
//!   structured [`HealthEvent`]s, which flow into the `/events` NDJSON
//!   stream, the final [`RunLog`] (via [`merge_health_events`], as
//!   [`EventKind::Health`] records whose alarm and severity are typed), and the
//!   HTML report.
//!
//! Everything here is a pure function of its inputs — rendering the same
//! status twice yields byte-identical text — and nothing ever calls back
//! into a recording hot path.
//!
//! [`RunLog`]: cellsim::event::RunLog

use std::fmt::Write as _;

use crate::jobs::{quantile_from_log2_buckets, JOB_QUANTILES};
use cellsim::event::{json_line, EventKind, EventRecord, RunLog};
use mgps_runtime::metrics::{
    Counter, HistKind, MetricsSnapshot, SnapshotDelta, HIST_BUCKETS,
};
use mgps_runtime::events::{AlarmKind, KernelKind};
use mgps_runtime::policy::MgpsConfig;
use minijson::Value;

/// Exported metric-name prefix.
const PREFIX: &str = "multigrain";

/// One MGPS window decision observed live, with the paper's observables
/// spelled out: `U` (tasks off-loaded during the departing task's
/// execution window), `T` (tasks waiting for off-load), the granted
/// degree, and the window sample state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveDecision {
    /// When the controller evaluated, ns on the run's clock.
    pub at_ns: u64,
    /// The utilization sample the decision was based on.
    pub u: usize,
    /// Tasks waiting for off-load (the paper's `T`).
    pub t: usize,
    /// Degree granted for subsequent off-loads (1 = LLP off).
    pub degree: usize,
    /// SPEs on the machine.
    pub n_spes: usize,
    /// Configured window length.
    pub window: usize,
    /// Off-loads held in the window sample.
    pub window_fill: usize,
}

impl LiveDecision {
    /// One NDJSON line for the `/events` stream.
    pub fn to_json_line(&self) -> String {
        Value::object(vec![
            ("type", "decision".into()),
            ("at_ns", self.at_ns.into()),
            ("u", self.u.into()),
            ("t", self.t.into()),
            ("degree", self.degree.into()),
            ("n_spes", self.n_spes.into()),
            ("window", self.window.into()),
            ("window_fill", self.window_fill.into()),
        ])
        .to_json()
    }
}

/// A structured health alarm raised by the [`HealthDetector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthEvent {
    /// When the alarm fired, ns on the run's clock.
    pub at_ns: u64,
    /// What fired.
    pub kind: AlarmKind,
    /// Human-readable explanation of what tripped.
    pub detail: String,
}

impl HealthEvent {
    /// One NDJSON line for the `/events` stream.
    pub fn to_json_line(&self) -> String {
        json_line(self.at_ns, &self.to_kind())
    }

    /// The [`RunLog`] vocabulary for this alarm.
    pub fn to_kind(&self) -> EventKind {
        EventKind::Health {
            alarm: self.kind,
            severity: self.kind.severity(),
            detail: self.detail.clone(),
        }
    }
}

/// The online health detector: feed it decisions and snapshot deltas, get
/// edge-triggered [`HealthEvent`]s back.
///
/// Alarms are *latched per episode*: utilization-collapse fires once when
/// the pattern is confirmed and re-arms only after a healthy window;
/// stall-spike re-arms after a non-spiking interval; ring-drop fires once
/// per run (a drop cannot un-happen); latency-SLO-burn re-arms after a
/// window whose p99 is back under the SLO (or one with too few jobs to
/// estimate a p99 at all).
#[derive(Debug)]
pub struct HealthDetector {
    /// `U` at or below this is "low": the MGPS policy's own threshold.
    u_threshold: usize,
    /// Quarantines within one snapshot interval at or above this fire
    /// quarantine-storm.
    quarantine_storm_spes: u64,
    consecutive_low: usize,
    util_latched: bool,
    stall_baseline: Option<f64>,
    stall_latched: bool,
    drop_latched: bool,
    storm_latched: bool,
    latency_baseline: Option<f64>,
    latency_burning: usize,
    latency_latched: bool,
    // (tenant, consecutive starved windows) for every tenant currently
    // starving; tenants dispatch or drain their way off the list.
    starving: Vec<(usize, usize)>,
    starvation_latched: bool,
    active: Vec<AlarmKind>,
}

impl HealthDetector {
    /// Consecutive low-`U`, degree-1 windows before utilization-collapse
    /// fires.
    pub const COLLAPSE_WINDOWS: usize = 3;
    /// A stall delta must exceed its baseline by this factor to spike; a
    /// window's job p99 must beat its baseline by the same factor to burn.
    pub const SPIKE_FACTOR: f64 = 4.0;
    /// ... and a spike must be at least this many stalls (guards tiny
    /// baselines).
    pub const STALL_MIN_EVENTS: u64 = 16;
    /// EWMA weight of the newest interval in the rolling stall and
    /// latency baselines.
    pub const BASELINE_ALPHA: f64 = 0.3;
    /// Job p99 latency SLO, ns: a window whose estimated p99 exceeds this
    /// (and the EWMA baseline, once one exists) is *burning*. Loopback
    /// phylo jobs finish in micro- to milliseconds; a full second of p99
    /// is a burn on any spec the serve plane admits.
    pub const LATENCY_SLO_NS: u64 = 1_000_000_000;
    /// Consecutive burning windows before latency-SLO-burn fires.
    pub const LATENCY_BURN_WINDOWS: usize = 3;
    /// Windows with fewer completed jobs than this carry no p99 signal;
    /// they end any burn episode instead of extending it.
    pub const LATENCY_MIN_JOBS: u64 = 8;
    /// Consecutive telemetry windows a tenant may hold queued jobs
    /// without a single dispatch before tenant-starvation fires.
    pub const STARVATION_WINDOWS: usize = 3;

    /// A detector for a machine with `n_spes` SPEs, with no history.
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn new(n_spes: usize) -> HealthDetector {
        HealthDetector {
            u_threshold: MgpsConfig::for_spes(n_spes).u_threshold,
            // A quarter of the machine benched in one interval is a storm;
            // a single flaky SPE is the recovery plane doing its job.
            quarantine_storm_spes: (n_spes as u64 / 4).max(2),
            consecutive_low: 0,
            util_latched: false,
            stall_baseline: None,
            stall_latched: false,
            drop_latched: false,
            storm_latched: false,
            latency_baseline: None,
            latency_burning: 0,
            latency_latched: false,
            starving: Vec::new(),
            starvation_latched: false,
            active: Vec::new(),
        }
    }

    /// Alarms currently latched, in [`AlarmKind::ALL`] order.
    pub fn active_alarms(&self) -> Vec<AlarmKind> {
        AlarmKind::ALL.iter().copied().filter(|k| self.active.contains(k)).collect()
    }

    fn raise(&mut self, kind: AlarmKind, at_ns: u64, detail: String) -> HealthEvent {
        if !self.active.contains(&kind) {
            self.active.push(kind);
        }
        HealthEvent { at_ns, kind, detail }
    }

    fn clear(&mut self, kind: AlarmKind) {
        self.active.retain(|k| *k != kind);
    }

    /// Feed one MGPS window decision. Returns an alarm if this decision
    /// confirms a utilization collapse.
    pub fn observe_decision(&mut self, d: &LiveDecision) -> Option<HealthEvent> {
        let low = d.u <= self.u_threshold && d.degree <= 1;
        if low {
            self.consecutive_low += 1;
            if self.consecutive_low >= Self::COLLAPSE_WINDOWS && !self.util_latched {
                self.util_latched = true;
                return Some(self.raise(
                    AlarmKind::UtilizationCollapse,
                    d.at_ns,
                    format!(
                        "U={} <= {} with degree 1 for {} consecutive windows (T={})",
                        d.u, self.u_threshold, self.consecutive_low, d.t
                    ),
                ));
            }
        } else {
            self.consecutive_low = 0;
            self.util_latched = false;
            self.clear(AlarmKind::UtilizationCollapse);
        }
        None
    }

    /// Feed one snapshot interval: the counter deltas plus the cumulative
    /// trace-ring drop count. Returns any alarms the interval confirms.
    pub fn observe_delta(&mut self, at_ns: u64, delta: &SnapshotDelta, dropped_events: u64) -> Vec<HealthEvent> {
        let mut out = Vec::new();

        let stalls = delta.get(Counter::MailboxStalls) + delta.get(Counter::OffloadQueueStalls);
        match self.stall_baseline {
            Some(base) => {
                let spiking = stalls >= Self::STALL_MIN_EVENTS
                    && (stalls as f64) > base * Self::SPIKE_FACTOR;
                if spiking && !self.stall_latched {
                    self.stall_latched = true;
                    out.push(self.raise(
                        AlarmKind::StallSpike,
                        at_ns,
                        format!(
                            "{stalls} mailbox/offload-queue stalls this interval vs rolling baseline {base:.1}"
                        ),
                    ));
                } else if !spiking && self.stall_latched {
                    self.stall_latched = false;
                    self.clear(AlarmKind::StallSpike);
                }
                // Spiking intervals are excluded from the baseline so a
                // sustained storm keeps reading as anomalous.
                if !spiking {
                    let a = Self::BASELINE_ALPHA;
                    self.stall_baseline = Some(base * (1.0 - a) + stalls as f64 * a);
                }
            }
            // First interval seeds the baseline; nothing to compare yet.
            None => self.stall_baseline = Some(stalls as f64),
        }

        if dropped_events > 0 && !self.drop_latched {
            self.drop_latched = true;
            out.push(self.raise(
                AlarmKind::RingDrop,
                at_ns,
                format!("{dropped_events} trace event(s) dropped by full rings; downstream folds are incomplete"),
            ));
        }

        let quarantines = delta.get(Counter::SpeQuarantines);
        if quarantines >= self.quarantine_storm_spes {
            if !self.storm_latched {
                self.storm_latched = true;
                out.push(self.raise(
                    AlarmKind::QuarantineStorm,
                    at_ns,
                    format!(
                        "{quarantines} SPE(s) quarantined in one interval (threshold {}); compute capacity is collapsing",
                        self.quarantine_storm_spes
                    ),
                ));
            }
        } else if self.storm_latched {
            self.storm_latched = false;
            self.clear(AlarmKind::QuarantineStorm);
        }

        let job_buckets = &delta.hists[HistKind::JobTotalNs as usize];
        let jobs: u64 = job_buckets.iter().sum();
        if jobs >= Self::LATENCY_MIN_JOBS {
            let p99 = quantile_from_log2_buckets(job_buckets, 0.99)
                .expect("non-empty window has a p99");
            match self.latency_baseline {
                Some(base) => {
                    // The absolute SLO is the floor; the window must also
                    // beat the EWMA baseline by the spike factor, so a
                    // service legitimately running near its SLO does not
                    // page on every window.
                    let burning = p99
                        > (Self::LATENCY_SLO_NS as f64).max(base * Self::SPIKE_FACTOR);
                    if burning {
                        self.latency_burning += 1;
                        if self.latency_burning >= Self::LATENCY_BURN_WINDOWS
                            && !self.latency_latched
                        {
                            self.latency_latched = true;
                            out.push(self.raise(
                                AlarmKind::LatencySloBurn,
                                at_ns,
                                format!(
                                    "job p99 ~{p99:.0} ns over the {} ns SLO for {} consecutive windows ({jobs} jobs this window)",
                                    Self::LATENCY_SLO_NS, self.latency_burning
                                ),
                            ));
                        }
                    } else {
                        self.latency_burning = 0;
                        self.latency_latched = false;
                        self.clear(AlarmKind::LatencySloBurn);
                        // Burning windows are excluded from the baseline
                        // so a sustained burn keeps reading as anomalous.
                        let a = Self::BASELINE_ALPHA;
                        self.latency_baseline = Some(base * (1.0 - a) + p99 * a);
                    }
                }
                // First meaningful window seeds the baseline (like
                // stall-spike); nothing to compare yet.
                None => self.latency_baseline = Some(p99),
            }
        } else {
            // No p99 signal this window: the episode (if any) is over.
            self.latency_burning = 0;
            self.latency_latched = false;
            self.clear(AlarmKind::LatencySloBurn);
        }
        out
    }

    /// Feed one telemetry window's starvation observation: `starved` is
    /// every tenant that held queued jobs across the whole window while
    /// the dispatcher started none of them (ascending tenant order).
    /// Fires once per episode when any tenant has starved for
    /// [`Self::STARVATION_WINDOWS`] consecutive windows; a
    /// window in which no tenant crosses the threshold clears and
    /// re-arms the alarm.
    pub fn observe_tenant_starvation(
        &mut self,
        at_ns: u64,
        starved: &[usize],
    ) -> Option<HealthEvent> {
        // Tenants that dispatched (or drained) this window fall off the
        // list; tenants still starved extend their streak.
        self.starving.retain(|(t, _)| starved.contains(t));
        for &t in starved {
            match self.starving.iter_mut().find(|(s, _)| *s == t) {
                Some((_, n)) => *n += 1,
                None => self.starving.push((t, 1)),
            }
        }
        let mut confirmed: Vec<(usize, usize)> = self
            .starving
            .iter()
            .copied()
            .filter(|&(_, n)| n >= Self::STARVATION_WINDOWS)
            .collect();
        confirmed.sort_unstable();
        if confirmed.is_empty() {
            self.starvation_latched = false;
            self.clear(AlarmKind::TenantStarvation);
            return None;
        }
        if self.starvation_latched {
            return None;
        }
        self.starvation_latched = true;
        let worst = confirmed.iter().map(|&(_, n)| n).max().unwrap_or(0);
        let tenants: Vec<String> = confirmed.iter().map(|(t, _)| t.to_string()).collect();
        Some(self.raise(
            AlarmKind::TenantStarvation,
            at_ns,
            format!(
                "tenant(s) {} held queued jobs for {} consecutive windows with zero dispatches",
                tenants.join(","),
                worst
            ),
        ))
    }
}

/// Replay the detector over a finished log's decision stream (the offline
/// twin of the live path, used by golden tests and reports). Only the
/// decision-driven rule can fire offline: stall counters are unobservable
/// in simulated logs and ring drops never reach a merged log.
pub fn replay_health(log: &RunLog) -> Vec<HealthEvent> {
    let mut det = HealthDetector::new(log.n_spes);
    crate::decisions::decisions(log)
        .iter()
        .filter_map(|d| {
            det.observe_decision(&LiveDecision {
                at_ns: d.at_ns,
                u: d.u,
                t: d.waiting,
                degree: d.degree,
                n_spes: d.n_spes,
                window: d.window,
                window_fill: d.window_fill,
            })
        })
        .collect()
}

/// Embed health alarms into a [`RunLog`] as [`EventKind::Health`] records,
/// time-ordered (ties sort after the pre-existing event at the same
/// instant) and re-sequenced densely.
pub fn merge_health_events(log: &mut RunLog, events: &[HealthEvent]) {
    if events.is_empty() {
        return;
    }
    for e in events {
        log.events.push(EventRecord { seq: 0, at_ns: e.at_ns, kind: e.to_kind() });
    }
    log.events.sort_by_key(|e| e.at_ns);
    for (i, e) in log.events.iter_mut().enumerate() {
        e.seq = i as u64;
    }
}

/// Everything one `/metrics` scrape renders: an epoch-stamped snapshot
/// plus the instantaneous gauges the snapshot cannot carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveStatus {
    /// Epoch of the snapshot (1-based drain sequence number).
    pub epoch: u64,
    /// Nanoseconds since the serving runtime started.
    pub uptime_ns: u64,
    /// The drained counter/histogram state.
    pub metrics: MetricsSnapshot,
    /// Per-SPE busy flags, indexed by SPE id.
    pub spe_busy: Vec<bool>,
    /// SPEs currently in service (total minus quarantined).
    pub healthy_spes: usize,
    /// LLP degree currently in force.
    pub degree: usize,
    /// Off-loads waiting for an SPE (callers blocked in a reservation).
    pub pending_offloads: usize,
    /// Accumulated PPE-gate contention, ns.
    pub gate_contention_ns: u64,
    /// Cumulative trace-ring drops.
    pub dropped_events: u64,
    /// Kernels the granularity controller currently keeps on the PPE.
    pub throttled_kernels: Vec<KernelKind>,
    /// Alarms currently latched by the health detector.
    pub active_alarms: Vec<AlarmKind>,
    /// Per-tenant job-plane gauges, ascending tenant id:
    /// `(tenant, [admitted, rejected, shed, inflight])` — cumulative
    /// counts except `inflight`, which is instantaneous. Empty until the
    /// first submission arrives; the `multigrain_tenant_jobs` family is
    /// omitted entirely while empty so single-tenant scrapes stay
    /// byte-identical to the pre-fair-share exporter.
    pub tenant_jobs: Vec<(usize, [u64; 4])>,
}

/// The `state` label vocabulary of `multigrain_tenant_jobs`, in
/// rendering order (matches the `[u64; 4]` gauge array).
pub const TENANT_JOB_STATES: [&str; 4] = ["admitted", "rejected", "shed", "inflight"];

/// Upper bound of log2 bucket `i` (`le` label): values with bit length
/// `<= i`, i.e. `2^i - 1`; bucket 0 holds only the value 0.
fn bucket_le(i: usize) -> u64 {
    if i >= 64 { u64::MAX } else { (1u64 << i) - 1 }
}

/// Render `status` in the Prometheus text exposition format (version
/// 0.0.4). Deterministic: same status, same bytes.
pub fn prometheus_text(status: &LiveStatus) -> String {
    let mut out = String::new();

    for &c in &Counter::ALL {
        let name = format!("{PREFIX}_{}_total", c.name());
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {}", status.metrics.get(c));
    }

    for &h in &HistKind::ALL {
        let name = format!("{PREFIX}_{}", h.name());
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for b in 0..HIST_BUCKETS {
            let n = status.metrics.hists[h as usize][b];
            if n == 0 {
                continue; // cumulative value unchanged; bucket elided
            }
            cumulative += n;
            let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", bucket_le(b));
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(out, "{name}_sum {}", status.metrics.hist_sum(h));
        let _ = writeln!(out, "{name}_count {cumulative}");
    }

    let _ = writeln!(out, "# TYPE {PREFIX}_spe_busy gauge");
    for (spe, busy) in status.spe_busy.iter().enumerate() {
        let _ = writeln!(out, "{PREFIX}_spe_busy{{spe=\"{spe}\"}} {}", u8::from(*busy));
    }
    for (name, value) in [
        ("llp_degree", status.degree as u64),
        ("healthy_spes", status.healthy_spes as u64),
        ("pending_offloads", status.pending_offloads as u64),
        ("snapshot_epoch", status.epoch),
        ("uptime_ns", status.uptime_ns),
        ("trace_dropped_events", status.dropped_events),
        ("gate_contention_ns", status.gate_contention_ns),
    ] {
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} gauge");
        let _ = writeln!(out, "{PREFIX}_{name} {value}");
    }

    let _ = writeln!(out, "# TYPE {PREFIX}_kernel_throttled gauge");
    for k in KernelKind::ALL {
        let throttled = u8::from(status.throttled_kernels.contains(&k));
        let _ = writeln!(out, "{PREFIX}_kernel_throttled{{kernel=\"{k}\"}} {throttled}");
    }

    // Job latency quantiles, interpolated from the log2 buckets of the
    // job wall-time histogram (factor-2 worst-case error; see
    // `quantile_from_log2_buckets`). 0 until the first job completes.
    let job_buckets = &status.metrics.hists[HistKind::JobTotalNs as usize];
    let _ = writeln!(out, "# TYPE {PREFIX}_job_latency gauge");
    for q in JOB_QUANTILES {
        let est = quantile_from_log2_buckets(job_buckets, q).unwrap_or(0.0);
        let _ = writeln!(out, "{PREFIX}_job_latency{{quantile=\"{q}\"}} {est}");
    }

    let _ = writeln!(out, "# TYPE {PREFIX}_alarm_active gauge");
    for kind in AlarmKind::ALL {
        let active = u8::from(status.active_alarms.contains(&kind));
        let _ = writeln!(out, "{PREFIX}_alarm_active{{alarm=\"{kind}\"}} {active}");
    }

    // Per-tenant job-plane gauges; the family exists only once a tenant
    // has been seen, so pre-fair-share scrapes are byte-identical.
    if !status.tenant_jobs.is_empty() {
        let _ = writeln!(out, "# TYPE {PREFIX}_tenant_jobs gauge");
        for (tenant, counts) in &status.tenant_jobs {
            for (state, value) in TENANT_JOB_STATES.iter().zip(counts.iter()) {
                let _ = writeln!(
                    out,
                    "{PREFIX}_tenant_jobs{{tenant=\"{tenant}\",state=\"{state}\"}} {value}"
                );
            }
        }
    }
    out
}

/// The `/health` JSON document: overall status plus the latched alarms.
pub fn health_json(status: &LiveStatus) -> Value {
    let overall = if status.active_alarms.is_empty() { "ok" } else { "degraded" };
    Value::object(vec![
        ("status", overall.into()),
        ("epoch", status.epoch.into()),
        ("uptime_ns", status.uptime_ns.into()),
        ("degree", status.degree.into()),
        (
            "alarms",
            Value::array(
                status.active_alarms.iter().map(|k| Value::from(k.as_str())).collect::<Vec<_>>(),
            ),
        ),
    ])
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Full sample name (family name plus `_bucket`/`_sum`/`_count` for
    /// histogram series).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// Value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// One `# TYPE` family with its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PromFamily {
    /// Family name as declared by `# TYPE`.
    pub name: String,
    /// Declared type (`counter`, `gauge`, `histogram`, ...).
    pub kind: String,
    /// Samples belonging to the family, in source order.
    pub samples: Vec<PromSample>,
}

fn parse_sample(line: &str) -> Result<PromSample, String> {
    let bad = |what: &str| format!("{what} in sample line '{line}'");
    let (head, value) = line.rsplit_once(' ').ok_or_else(|| bad("missing value"))?;
    let value: f64 = value.parse().map_err(|_| bad("non-numeric value"))?;
    let (name, labels) = match head.split_once('{') {
        None => (head.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').ok_or_else(|| bad("unterminated labels"))?;
            let mut labels = Vec::new();
            for pair in body.split(',').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').ok_or_else(|| bad("label without '='"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| bad("unquoted label value"))?;
                labels.push((k.to_string(), v.to_string()));
            }
            (name.to_string(), labels)
        }
    };
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':') {
        return Err(bad("bad metric name"));
    }
    Ok(PromSample { name, labels, value })
}

/// Parse Prometheus text exposition into families. Every sample line must
/// belong to the most recently declared `# TYPE` family (its name, or a
/// `_bucket`/`_sum`/`_count` suffix of it for histograms); anything else
/// is an error — this is the strict parser the CI smoke test leans on.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromFamily>, String> {
    let mut families: Vec<PromFamily> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) =
                rest.split_once(' ').ok_or_else(|| format!("bad TYPE line '{line}'"))?;
            if families.iter().any(|f| f.name == name) {
                return Err(format!("duplicate family '{name}'"));
            }
            families.push(PromFamily {
                name: name.to_string(),
                kind: kind.to_string(),
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let sample = parse_sample(line)?;
        let family = families.last_mut().ok_or_else(|| {
            format!("sample '{}' before any # TYPE declaration", sample.name)
        })?;
        let member = if family.kind == "histogram" {
            sample.name == family.name
                || [format!("{}_bucket", family.name), format!("{}_sum", family.name), format!("{}_count", family.name)]
                    .contains(&sample.name)
        } else {
            sample.name == family.name
        };
        if !member {
            return Err(format!(
                "sample '{}' does not belong to family '{}'",
                sample.name, family.name
            ));
        }
        family.samples.push(sample);
    }
    Ok(families)
}

/// Semantic validation on parsed families: histograms must have monotone
/// cumulative buckets ending at a `+Inf` bucket that equals `_count`.
pub fn validate_families(families: &[PromFamily]) -> Result<(), String> {
    for f in families {
        if f.samples.is_empty() {
            return Err(format!("family '{}' has no samples", f.name));
        }
        if f.kind != "histogram" {
            continue;
        }
        let buckets: Vec<&PromSample> =
            f.samples.iter().filter(|s| s.name.ends_with("_bucket")).collect();
        let mut prev = 0.0f64;
        for b in &buckets {
            if b.value < prev {
                return Err(format!("family '{}': bucket counts not cumulative", f.name));
            }
            prev = b.value;
        }
        let inf = buckets
            .last()
            .filter(|b| b.label("le") == Some("+Inf"))
            .ok_or_else(|| format!("family '{}': missing le=\"+Inf\" bucket", f.name))?;
        let count = f
            .samples
            .iter()
            .find(|s| s.name.ends_with("_count"))
            .ok_or_else(|| format!("family '{}': missing _count", f.name))?;
        if (inf.value - count.value).abs() > f64::EPSILON {
            return Err(format!(
                "family '{}': +Inf bucket {} != count {}",
                f.name, inf.value, count.value
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgps_runtime::events::Severity;
    use mgps_runtime::metrics::{AtomicMetrics, MetricsSink, MetricsSinkExt, SnapshotSource};
    use std::sync::Arc;

    fn status_with(metrics: MetricsSnapshot) -> LiveStatus {
        LiveStatus {
            epoch: 3,
            uptime_ns: 1_000_000,
            metrics,
            spe_busy: vec![true, false, true, false],
            healthy_spes: 4,
            degree: 2,
            pending_offloads: 1,
            gate_contention_ns: 42,
            dropped_events: 0,
            throttled_kernels: vec![KernelKind::MakeNewz],
            active_alarms: vec![AlarmKind::StallSpike],
            tenant_jobs: Vec::new(),
        }
    }

    #[test]
    fn prometheus_text_round_trips_through_the_parser() {
        let m = Arc::new(AtomicMetrics::new());
        m.add(Counter::Offloads, 7);
        m.incr(Counter::MailboxStalls);
        m.observe(HistKind::TaskDurNs, 0);
        m.observe(HistKind::TaskDurNs, 5);
        m.observe(HistKind::TaskDurNs, 100_000);
        for _ in 0..4 {
            m.observe(HistKind::JobTotalNs, 4_096);
        }
        let mut src = SnapshotSource::new(m);
        let status = status_with(src.snapshot().metrics);

        let text = prometheus_text(&status);
        let families = parse_prometheus(&text).expect("exporter output must parse");
        validate_families(&families).expect("families must validate");

        // Every counter + 7 histograms + spe_busy + 7 scalar gauges +
        // kernel throttles + job latency quantiles + alarms.
        assert_eq!(families.len(), Counter::ALL.len() + 7 + 1 + 7 + 1 + 1 + 1);
        let offloads = families.iter().find(|f| f.name == "multigrain_offloads_total").unwrap();
        assert_eq!(offloads.kind, "counter");
        assert_eq!(offloads.samples[0].value, 7.0);

        let hist = families.iter().find(|f| f.name == "multigrain_task_dur_ns").unwrap();
        assert_eq!(hist.kind, "histogram");
        let count = hist.samples.iter().find(|s| s.name.ends_with("_count")).unwrap();
        assert_eq!(count.value, 3.0);
        let sum = hist.samples.iter().find(|s| s.name.ends_with("_sum")).unwrap();
        assert_eq!(sum.value, 100_005.0);

        let busy = families.iter().find(|f| f.name == "multigrain_spe_busy").unwrap();
        assert_eq!(busy.samples.len(), 4);
        assert_eq!(busy.samples[0].label("spe"), Some("0"));
        assert_eq!(busy.samples[0].value, 1.0);
        assert_eq!(busy.samples[1].value, 0.0);

        let throttled =
            families.iter().find(|f| f.name == "multigrain_kernel_throttled").unwrap();
        assert_eq!(throttled.samples.len(), 3, "one sample per kernel kind");
        let mk = throttled
            .samples
            .iter()
            .find(|s| s.label("kernel") == Some("makenewz"))
            .unwrap();
        assert_eq!(mk.value, 1.0);
        let nv = throttled.samples.iter().find(|s| s.label("kernel") == Some("newview")).unwrap();
        assert_eq!(nv.value, 0.0);

        let alarms = families.iter().find(|f| f.name == "multigrain_alarm_active").unwrap();
        let spike = alarms.samples.iter().find(|s| s.label("alarm") == Some("stall_spike")).unwrap();
        assert_eq!(spike.value, 1.0);
        assert!(
            alarms.samples.iter().any(|s| s.label("alarm") == Some("latency_slo_burn")),
            "the burn alarm must have a gauge even while silent"
        );

        let latency = families.iter().find(|f| f.name == "multigrain_job_latency").unwrap();
        assert_eq!(latency.kind, "gauge");
        assert_eq!(
            latency.samples.iter().map(|s| s.label("quantile").unwrap()).collect::<Vec<_>>(),
            vec!["0.5", "0.95", "0.99"]
        );
        for s in &latency.samples {
            // All 4 observations were 4096 ns: every quantile estimate
            // must land inside that value's log2 bucket, [4096, 8192).
            assert!(s.value >= 4_096.0 && s.value <= 8_192.0, "{}: {}", s.name, s.value);
        }

        // Determinism: same status, same bytes.
        assert_eq!(text, prometheus_text(&status));
    }

    #[test]
    fn tenant_job_gauges_render_only_once_a_tenant_is_seen() {
        // No tenants seen: the family is absent and the scrape is
        // byte-identical to the pre-fair-share exporter.
        let bare = status_with(MetricsSnapshot::default());
        let text = prometheus_text(&bare);
        assert!(!text.contains("multigrain_tenant_jobs"));

        let populated = LiveStatus {
            tenant_jobs: vec![(0, [5, 1, 0, 2]), (3, [2, 0, 1, 0])],
            ..status_with(MetricsSnapshot::default())
        };
        let text = prometheus_text(&populated);
        let families = parse_prometheus(&text).expect("tenant gauges must parse");
        validate_families(&families).expect("tenant gauges must validate");
        let fam = families.iter().find(|f| f.name == "multigrain_tenant_jobs").unwrap();
        assert_eq!(fam.kind, "gauge");
        assert_eq!(fam.samples.len(), 8, "2 tenants x 4 states");
        let sample = |tenant: &str, state: &str| {
            fam.samples
                .iter()
                .find(|s| s.label("tenant") == Some(tenant) && s.label("state") == Some(state))
                .map(|s| s.value)
        };
        assert_eq!(sample("0", "admitted"), Some(5.0));
        assert_eq!(sample("0", "inflight"), Some(2.0));
        assert_eq!(sample("3", "shed"), Some(1.0));
        assert_eq!(sample("3", "rejected"), Some(0.0));
        // Determinism: same status, same bytes.
        assert_eq!(text, prometheus_text(&populated));
    }

    #[test]
    fn job_latency_quantiles_render_zero_before_any_job() {
        let status = status_with(MetricsSnapshot::default());
        let text = prometheus_text(&status);
        let families = parse_prometheus(&text).unwrap();
        let latency = families.iter().find(|f| f.name == "multigrain_job_latency").unwrap();
        assert_eq!(latency.samples.len(), 3);
        assert!(latency.samples.iter().all(|s| s.value == 0.0), "empty histogram renders 0, never NaN");
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_prometheus("multigrain_x 1").is_err(), "sample before TYPE");
        assert!(parse_prometheus("# TYPE a counter\nb 1").is_err(), "foreign sample");
        assert!(parse_prometheus("# TYPE a counter\na one").is_err(), "non-numeric");
        assert!(parse_prometheus("# TYPE a counter\na{x=y} 1").is_err(), "unquoted label");
        let dup = "# TYPE a counter\na 1\n# TYPE a counter\na 2";
        assert!(parse_prometheus(dup).is_err(), "duplicate family");
    }

    #[test]
    fn validation_catches_histogram_inconsistency() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 9\nh_count 3\n";
        let fams = parse_prometheus(text).unwrap();
        assert!(validate_families(&fams).is_err(), "+Inf != count must fail");
    }

    #[test]
    fn health_json_reports_degraded_when_alarmed() {
        let ok = LiveStatus { active_alarms: Vec::new(), ..status_with(MetricsSnapshot::default()) };
        let v = health_json(&ok);
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));

        let bad = status_with(MetricsSnapshot::default());
        let v = health_json(&bad);
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("degraded"));
        let alarms = v.get("alarms").unwrap();
        assert!(alarms.to_json().contains("stall_spike"));
    }

    #[test]
    fn ndjson_lines_are_single_line_json() {
        let d = LiveDecision { at_ns: 9, u: 2, t: 4, degree: 2, n_spes: 8, window: 8, window_fill: 8 };
        let line = d.to_json_line();
        assert!(!line.contains('\n'));
        let v = minijson::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(|s| s.as_str()), Some("decision"));
        assert_eq!(v.get("u").and_then(|n| n.as_u64()), Some(2));

        let h = HealthEvent { at_ns: 10, kind: AlarmKind::RingDrop, detail: "x".into() };
        let v = minijson::parse(&h.to_json_line()).unwrap();
        assert_eq!(v.get("alarm").and_then(|s| s.as_str()), Some("ring_drop"));
        assert_eq!(v.get("severity").and_then(|s| s.as_str()), Some("critical"));
    }

    #[test]
    fn utilization_collapse_fires_once_after_k_windows_and_rearms() {
        let mut det = HealthDetector::new(8);
        let low = |at| LiveDecision { at_ns: at, u: 1, t: 6, degree: 1, n_spes: 8, window: 8, window_fill: 8 };
        let healthy = |at| LiveDecision { at_ns: at, u: 6, t: 2, degree: 1, n_spes: 8, window: 8, window_fill: 8 };

        assert!(det.observe_decision(&low(1)).is_none());
        assert!(det.observe_decision(&low(2)).is_none());
        let fired = det.observe_decision(&low(3)).expect("third low window fires");
        assert_eq!(fired.kind, AlarmKind::UtilizationCollapse);
        assert_eq!(det.active_alarms(), vec![AlarmKind::UtilizationCollapse]);
        // Latched: more low windows do not re-fire.
        assert!(det.observe_decision(&low(4)).is_none());
        // Recovery clears and re-arms.
        assert!(det.observe_decision(&healthy(5)).is_none());
        assert!(det.active_alarms().is_empty());
        assert!(det.observe_decision(&low(6)).is_none());
        assert!(det.observe_decision(&low(7)).is_none());
        assert!(det.observe_decision(&low(8)).is_some(), "re-armed after recovery");
    }

    #[test]
    fn high_u_or_wide_degree_never_collapses() {
        let mut det = HealthDetector::new(8);
        for at in 0..50 {
            // Wide degree: low U is the controller *working* (LLP active).
            let d = LiveDecision { at_ns: at, u: 2, t: 2, degree: 4, n_spes: 8, window: 8, window_fill: 8 };
            assert!(det.observe_decision(&d).is_none());
        }
        assert!(det.active_alarms().is_empty());
    }

    fn delta_with_stalls(epoch: u64, stalls: u64) -> SnapshotDelta {
        let mut d = SnapshotDelta {
            epoch,
            counters: [0; Counter::ALL.len()],
            hists: [[0; HIST_BUCKETS]; HistKind::ALL.len()],
            hist_sums: [0; HistKind::ALL.len()],
        };
        d.counters[Counter::MailboxStalls as usize] = stalls / 2;
        d.counters[Counter::OffloadQueueStalls as usize] = stalls - stalls / 2;
        d
    }

    #[test]
    fn stall_spike_needs_a_baseline_and_a_real_jump() {
        let mut det = HealthDetector::new(8);
        // Seeding interval: never fires, whatever the count.
        assert!(det.observe_delta(10, &delta_with_stalls(1, 500), 0).is_empty());
        // Steady state near the baseline: silent.
        for e in 2..6 {
            assert!(det.observe_delta(e * 10, &delta_with_stalls(e, 480), 0).is_empty());
        }
        // A 10x jump fires exactly once...
        let fired = det.observe_delta(100, &delta_with_stalls(7, 5_000), 0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlarmKind::StallSpike);
        assert!(det.observe_delta(110, &delta_with_stalls(8, 5_100), 0).is_empty(), "latched");
        // ...and clears when the storm passes.
        assert!(det.observe_delta(120, &delta_with_stalls(9, 400), 0).is_empty());
        assert!(det.active_alarms().is_empty());
    }

    #[test]
    fn small_absolute_stall_counts_never_spike() {
        let mut det = HealthDetector::new(8);
        assert!(det.observe_delta(1, &delta_with_stalls(1, 0), 0).is_empty());
        // 8 stalls is far above a 0 baseline but below stall_min_events.
        for e in 2..20 {
            assert!(det.observe_delta(e, &delta_with_stalls(e, 8), 0).is_empty());
        }
    }

    fn delta_with_quarantines(epoch: u64, quarantines: u64) -> SnapshotDelta {
        let mut d = delta_with_stalls(epoch, 0);
        d.counters[Counter::SpeQuarantines as usize] = quarantines;
        d
    }

    #[test]
    fn quarantine_storm_fires_on_mass_benching_and_rearms() {
        let mut det = HealthDetector::new(8);
        // One flaky SPE benched: the recovery plane working, not a storm.
        assert!(det.observe_delta(10, &delta_with_quarantines(1, 1), 0).is_empty());
        // Four of eight benched in one interval: storm.
        let fired = det.observe_delta(20, &delta_with_quarantines(2, 4), 0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlarmKind::QuarantineStorm);
        assert_eq!(fired[0].to_kind(), EventKind::Health {
            alarm: AlarmKind::QuarantineStorm,
            severity: Severity::Warning,
            detail: fired[0].detail.clone(),
        });
        // Latched while the storm continues...
        assert!(det.observe_delta(30, &delta_with_quarantines(3, 4), 0).is_empty());
        assert_eq!(det.active_alarms(), vec![AlarmKind::QuarantineStorm]);
        // ...clears on a quiet interval, and re-arms.
        assert!(det.observe_delta(40, &delta_with_quarantines(4, 0), 0).is_empty());
        assert!(det.active_alarms().is_empty());
        assert_eq!(det.observe_delta(50, &delta_with_quarantines(5, 5), 0).len(), 1);
    }

    #[test]
    fn ring_drop_fires_once_and_stays_latched() {
        let mut det = HealthDetector::new(8);
        assert!(det.observe_delta(1, &delta_with_stalls(1, 0), 0).is_empty());
        let fired = det.observe_delta(2, &delta_with_stalls(2, 0), 17);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlarmKind::RingDrop);
        assert_eq!(fired[0].to_kind(), EventKind::Health {
            alarm: AlarmKind::RingDrop,
            severity: Severity::Critical,
            detail: fired[0].detail.clone(),
        });
        assert!(det.observe_delta(3, &delta_with_stalls(3, 0), 17).is_empty());
        assert_eq!(det.active_alarms(), vec![AlarmKind::RingDrop]);
    }

    /// A window in which `jobs` jobs all completed in `latency_ns`.
    fn delta_with_jobs(epoch: u64, jobs: u64, latency_ns: u64) -> SnapshotDelta {
        use mgps_runtime::metrics::hist_bucket;
        let mut d = delta_with_stalls(epoch, 0);
        d.hists[HistKind::JobTotalNs as usize][hist_bucket(latency_ns)] = jobs;
        d.hist_sums[HistKind::JobTotalNs as usize] = jobs * latency_ns;
        d
    }

    #[test]
    fn latency_slo_burn_fires_once_after_k_burning_windows_and_rearms() {
        let mut det = HealthDetector::new(8);
        let over = 4 * HealthDetector::LATENCY_SLO_NS; // well past the SLO bucket
        let under = HealthDetector::LATENCY_SLO_NS / 100;

        // A healthy window seeds the EWMA baseline; no alarm possible yet.
        assert!(det.observe_delta(5, &delta_with_jobs(0, 16, under), 0).is_empty());
        // Two burning windows: pattern not yet confirmed.
        assert!(det.observe_delta(10, &delta_with_jobs(1, 16, over), 0).is_empty());
        assert!(det.observe_delta(20, &delta_with_jobs(2, 16, over), 0).is_empty());
        // Third consecutive burning window confirms the burn.
        let fired = det.observe_delta(30, &delta_with_jobs(3, 16, over), 0);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AlarmKind::LatencySloBurn);
        assert_eq!(fired[0].to_kind(), EventKind::Health {
            alarm: AlarmKind::LatencySloBurn,
            severity: Severity::Warning,
            detail: fired[0].detail.clone(),
        });
        // Latched while the burn continues.
        assert!(det.observe_delta(40, &delta_with_jobs(4, 16, over), 0).is_empty());
        assert_eq!(det.active_alarms(), vec![AlarmKind::LatencySloBurn]);
        // A healthy window clears and re-arms.
        assert!(det.observe_delta(50, &delta_with_jobs(5, 16, under), 0).is_empty());
        assert!(det.active_alarms().is_empty());
        assert!(det.observe_delta(60, &delta_with_jobs(6, 16, over), 0).is_empty());
        assert!(det.observe_delta(70, &delta_with_jobs(7, 16, over), 0).is_empty());
        assert_eq!(det.observe_delta(80, &delta_with_jobs(8, 16, over), 0).len(), 1, "re-armed");
    }

    #[test]
    fn slow_but_sparse_windows_never_burn() {
        let mut det = HealthDetector::new(8);
        let over = 4 * HealthDetector::LATENCY_SLO_NS;
        // Every window is over the SLO but below the min-jobs floor: one
        // slow straggler per window is not a burn signal.
        for e in 1..20 {
            assert!(det.observe_delta(e * 10, &delta_with_jobs(e, HealthDetector::LATENCY_MIN_JOBS - 1, over), 0).is_empty());
        }
        assert!(det.active_alarms().is_empty());
    }

    #[test]
    fn latency_baseline_suppresses_windows_under_the_spike_factor() {
        let slo = HealthDetector::LATENCY_SLO_NS;
        let mut det = HealthDetector::new(8);
        // Traffic at the SLO seeds an EWMA baseline around it.
        for e in 1..6 {
            assert!(det.observe_delta(e * 10, &delta_with_jobs(e, 16, slo), 0).is_empty());
        }
        // 2x the baseline is over the SLO but under the 4x spike factor:
        // the baseline keeps a chronically-over-SLO service from paging
        // on every window.
        for e in 6..12 {
            assert!(det.observe_delta(e * 10, &delta_with_jobs(e, 16, 2 * slo), 0).is_empty());
        }
        assert!(det.active_alarms().is_empty());
        // 16x the baseline burns.
        assert!(det.observe_delta(200, &delta_with_jobs(20, 16, 16 * slo), 0).is_empty());
        assert!(det.observe_delta(210, &delta_with_jobs(21, 16, 16 * slo), 0).is_empty());
        assert_eq!(det.observe_delta(220, &delta_with_jobs(22, 16, 16 * slo), 0).len(), 1);
    }

    #[test]
    fn tenant_starvation_fires_after_k_windows_and_rearms() {
        let mut det = HealthDetector::new(8);
        // Two starved windows: pattern not yet confirmed.
        assert!(det.observe_tenant_starvation(10, &[3]).is_none());
        assert!(det.observe_tenant_starvation(20, &[3]).is_none());
        // Third consecutive window confirms.
        let fired = det.observe_tenant_starvation(30, &[3]).expect("third window fires");
        assert_eq!(fired.kind, AlarmKind::TenantStarvation);
        assert_eq!(fired.kind.severity(), Severity::Warning);
        assert!(fired.detail.contains("tenant(s) 3"), "{}", fired.detail);
        assert_eq!(det.active_alarms(), vec![AlarmKind::TenantStarvation]);
        // Latched while the starvation continues.
        assert!(det.observe_tenant_starvation(40, &[3]).is_none());
        // A dispatch (tenant off the starved list) clears and re-arms.
        assert!(det.observe_tenant_starvation(50, &[]).is_none());
        assert!(det.active_alarms().is_empty());
        assert!(det.observe_tenant_starvation(60, &[3]).is_none());
        assert!(det.observe_tenant_starvation(70, &[3]).is_none());
        assert!(det.observe_tenant_starvation(80, &[3]).is_some(), "re-armed");
    }

    #[test]
    fn tenant_starvation_streaks_are_per_tenant() {
        let mut det = HealthDetector::new(8);
        // Tenant 1 starves twice, then recovers; tenant 2 starts late.
        assert!(det.observe_tenant_starvation(10, &[1]).is_none());
        assert!(det.observe_tenant_starvation(20, &[1, 2]).is_none());
        assert!(det.observe_tenant_starvation(30, &[2]).is_none());
        // Tenant 2's streak is only 2: a fresh window is needed.
        let fired = det.observe_tenant_starvation(40, &[2]).expect("tenant 2 hits 3 windows");
        assert!(fired.detail.contains("tenant(s) 2"), "{}", fired.detail);
    }

    #[test]
    fn merge_health_events_keeps_order_and_dense_seq() {
        use cellsim::event::SchedulerTag;
        let mut log = RunLog {
            scheduler: SchedulerTag::Mgps,
            n_spes: 2,
            quantum_ns: 0,
            seed: 1,
            local_store_bytes: 256 * 1024,
            loop_iters: 0,
            mgps_window: Some(2),
            fault_policy: None,
            tenant_weights: None,
            events: vec![
                EventRecord { seq: 0, at_ns: 10, kind: EventKind::Offload { proc: 0, task: 0 } },
                EventRecord { seq: 1, at_ns: 30, kind: EventKind::Offload { proc: 0, task: 1 } },
            ],
        };
        merge_health_events(
            &mut log,
            &[HealthEvent { at_ns: 20, kind: AlarmKind::StallSpike, detail: "d".into() }],
        );
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(log.events[1].at_ns, 20);
        assert!(matches!(log.events[1].kind, EventKind::Health { .. }));
        // JSON round-trip still holds with the merged alarm.
        let back = RunLog::from_value(&log.to_value()).unwrap();
        assert_eq!(back, log);
    }
}
