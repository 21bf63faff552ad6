//! One metrics schema for both execution engines.
//!
//! The simulator (`cellsim`) and the native runtime ([`crate::native`])
//! expose the same observable quantities — off-loads, context switches,
//! code reloads, mailbox traffic, MGPS adaptation events — so that a run
//! can be inspected with the same tooling regardless of which engine
//! produced it. This module defines that shared vocabulary:
//!
//! * [`Counter`] / [`HistKind`] — the closed set of counter and histogram
//!   names;
//! * [`MetricsSink`] — the recording trait. The native engine threads an
//!   `Arc<dyn MetricsSink>` through its hot paths; the simulator folds its
//!   event log into the same schema after the fact (`obs` crate).
//! * [`AtomicMetrics`] — a lock-free sink: one relaxed `AtomicU64` per
//!   counter, log2-bucketed histograms. Cheap enough to leave enabled.
//! * [`NopMetrics`] — the default sink; recording is a no-op.
//! * [`MetricsSnapshot`] — a plain-data snapshot for reporting.
//! * [`Snapshot`] / [`SnapshotSource`] / [`SnapshotDelta`] — the epoch
//!   layer for *live* telemetry: a scraper drains monotone snapshots (and
//!   per-epoch deltas) concurrently with a running engine without ever
//!   touching a recording hot path.
//!
//! ## Torn-read safety
//!
//! Counters are single atomics, so a concurrent read is always some value
//! the counter actually held. Histograms span many atomics and *could*
//! tear: a reader that sums buckets while a writer records might miss the
//! bucket increment of an observation whose count increment it saw, making
//! `bucket sum < count`. The protocol here prevents that direction
//! entirely: [`AtomicMetrics::observe`] bumps the bucket *first* (Release)
//! and the per-histogram total count *second* (Release); readers load the
//! count with Acquire *before* loading buckets, so every observation
//! published in the acquired count is visible in the bucket loads —
//! `bucket sum >= count` always. [`AtomicMetrics::snapshot`] then derives
//! the snapshot's count *from* the bucket sum, so a snapshot is internally
//! consistent (`bucket sum == count`) by construction and never loses a
//! published observation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone event counters shared by the simulated and native engines.
///
/// The discriminants are dense so sinks can index arrays by `as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Tasks off-loaded from the PPE to an SPE.
    Offloads = 0,
    /// Off-loaded tasks that ran to completion.
    TasksCompleted,
    /// Voluntary PPE context switches (EDTLP yield + re-acquire pairs).
    CtxSwitchOffload,
    /// Involuntary PPE context switches (quantum expiry; simulator only).
    CtxSwitchQuantum,
    /// SPE code-image reloads (the granularity term `t_code`).
    CodeReloads,
    /// Outbound mailbox writes (SPE → PPE completion signals).
    MailboxWrites,
    /// Mailbox reads drained by the PPE.
    MailboxReads,
    /// Writes that found the mailbox full and stalled.
    MailboxStalls,
    /// SPE reservations that had to wait because too few SPEs were idle.
    OffloadQueueStalls,
    /// MGPS evaluation points reached.
    MgpsEvaluations,
    /// MGPS directives that switched LLP on.
    LlpActivations,
    /// MGPS directives that switched LLP off.
    LlpDeactivations,
    /// DMA transfers issued (the granularity term `t_comm`).
    DmaIssues,
    /// DMA transfers that took the contended/fallback path.
    DmaFallbacks,
    /// Faults injected by an armed chaos plan.
    FaultsInjected,
    /// Off-loads re-queued after a watchdog-detected fault.
    OffloadRetries,
    /// Tasks that degraded to the scalar PPE fallback version.
    PpeFallbacks,
    /// SPEs benched after `k` consecutive faults.
    SpeQuarantines,
    /// Quarantined SPEs returned to service by a re-admission probe.
    SpeReadmissions,
    /// Granularity-controller verdicts that kept a kernel on the PPE
    /// (the §5.2 inequality failed or the kernel is throttled).
    KernelThrottles,
    /// Off-loads granted to a previously throttled kernel by a periodic
    /// re-probe.
    KernelReprobes,
}

impl Counter {
    /// Every counter, in discriminant order.
    pub const ALL: [Counter; 21] = [
        Counter::Offloads,
        Counter::TasksCompleted,
        Counter::CtxSwitchOffload,
        Counter::CtxSwitchQuantum,
        Counter::CodeReloads,
        Counter::MailboxWrites,
        Counter::MailboxReads,
        Counter::MailboxStalls,
        Counter::OffloadQueueStalls,
        Counter::MgpsEvaluations,
        Counter::LlpActivations,
        Counter::LlpDeactivations,
        Counter::DmaIssues,
        Counter::DmaFallbacks,
        Counter::FaultsInjected,
        Counter::OffloadRetries,
        Counter::PpeFallbacks,
        Counter::SpeQuarantines,
        Counter::SpeReadmissions,
        Counter::KernelThrottles,
        Counter::KernelReprobes,
    ];

    /// Stable snake_case name used in JSON summaries.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Offloads => "offloads",
            Counter::TasksCompleted => "tasks_completed",
            Counter::CtxSwitchOffload => "ctx_switch_offload",
            Counter::CtxSwitchQuantum => "ctx_switch_quantum",
            Counter::CodeReloads => "code_reloads",
            Counter::MailboxWrites => "mailbox_writes",
            Counter::MailboxReads => "mailbox_reads",
            Counter::MailboxStalls => "mailbox_stalls",
            Counter::OffloadQueueStalls => "offload_queue_stalls",
            Counter::MgpsEvaluations => "mgps_evaluations",
            Counter::LlpActivations => "llp_activations",
            Counter::LlpDeactivations => "llp_deactivations",
            Counter::DmaIssues => "dma_issues",
            Counter::DmaFallbacks => "dma_fallbacks",
            Counter::FaultsInjected => "faults_injected",
            Counter::OffloadRetries => "offload_retries",
            Counter::PpeFallbacks => "ppe_fallbacks",
            Counter::SpeQuarantines => "spe_quarantines",
            Counter::SpeReadmissions => "spe_readmissions",
            Counter::KernelThrottles => "kernel_throttles",
            Counter::KernelReprobes => "kernel_reprobes",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Duration histograms (values in nanoseconds, log2-bucketed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum HistKind {
    /// PPE context hold time per occupancy interval.
    CtxHoldNs = 0,
    /// Off-loaded task execution time (`t_spe`).
    TaskDurNs,
    /// DMA transfer latency (`t_comm` per transfer).
    DmaLatencyNs,
    /// Time an off-load waited in the queue before an SPE picked it up.
    OffloadWaitNs,
    /// Time a serve-plane job waited in the admission queue (`t_queue`).
    JobQueueNs,
    /// Job service time once a worker picked it up
    /// (`t_dispatch + t_kernel + t_reduce`).
    JobServiceNs,
    /// Job wall time from admission to completion (queue + service).
    JobTotalNs,
}

impl HistKind {
    /// Every histogram, in discriminant order.
    pub const ALL: [HistKind; 7] = [
        HistKind::CtxHoldNs,
        HistKind::TaskDurNs,
        HistKind::DmaLatencyNs,
        HistKind::OffloadWaitNs,
        HistKind::JobQueueNs,
        HistKind::JobServiceNs,
        HistKind::JobTotalNs,
    ];

    /// Stable snake_case name used in JSON summaries.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::CtxHoldNs => "ctx_hold_ns",
            HistKind::TaskDurNs => "task_dur_ns",
            HistKind::DmaLatencyNs => "dma_latency_ns",
            HistKind::OffloadWaitNs => "offload_wait_ns",
            HistKind::JobQueueNs => "job_queue_ns",
            HistKind::JobServiceNs => "job_service_ns",
            HistKind::JobTotalNs => "job_total_ns",
        }
    }
}

impl fmt::Display for HistKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Buckets per histogram: bucket `i` counts values whose bit length is `i`,
/// i.e. value 0 lands in bucket 0 and value `v > 0` in
/// `64 - v.leading_zeros()`.
pub const HIST_BUCKETS: usize = 65;

/// A recording destination for runtime metrics.
///
/// Implementations must be cheap and wait-free; both methods are called on
/// off-load hot paths.
pub trait MetricsSink: Send + Sync {
    /// Add `n` to `counter`.
    fn add(&self, counter: Counter, n: u64);
    /// Record one observation of `value` (nanoseconds) in `hist`.
    fn observe(&self, hist: HistKind, value: u64);
}

/// Convenience: increment a counter by one.
pub trait MetricsSinkExt: MetricsSink {
    /// `add(counter, 1)`.
    fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }
}

impl<T: MetricsSink + ?Sized> MetricsSinkExt for T {}

/// A sink that discards everything (the default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopMetrics;

impl MetricsSink for NopMetrics {
    fn add(&self, _counter: Counter, _n: u64) {}
    fn observe(&self, _hist: HistKind, _value: u64) {}
}

/// A lock-free sink backed by relaxed atomics.
#[derive(Debug)]
pub struct AtomicMetrics {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [[AtomicU64; HIST_BUCKETS]; HistKind::ALL.len()],
    /// Per-histogram observation totals, bumped *after* the bucket
    /// (Release/Release); O(1) live reads without summing 65 buckets.
    hist_counts: [AtomicU64; HistKind::ALL.len()],
    /// Per-histogram value sums (for Prometheus `_sum`).
    hist_sums: [AtomicU64; HistKind::ALL.len()],
}

impl Default for AtomicMetrics {
    fn default() -> AtomicMetrics {
        AtomicMetrics::new()
    }
}

impl AtomicMetrics {
    /// A sink with all counters and histograms at zero.
    pub fn new() -> AtomicMetrics {
        AtomicMetrics {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hist_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_sums: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Total observations recorded in `hist` so far — an O(1) Acquire load
    /// of the per-histogram total, never a bucket sum. A concurrent
    /// [`AtomicMetrics::snapshot`] whose loads start after this returns a
    /// bucket sum `>=` this value (see the module-level torn-read notes).
    pub fn hist_count(&self, hist: HistKind) -> u64 {
        self.hist_counts[hist as usize].load(Ordering::Acquire)
    }

    /// Copy the current state into a plain-data snapshot.
    ///
    /// Safe to call concurrently with recording: each histogram's count is
    /// Acquire-loaded *before* its buckets, so the bucket loads see at
    /// least every observation the count covers; the snapshot's count is
    /// then derived from the bucket sum, keeping `bucket sum == count`
    /// internally consistent while never dropping a published observation.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            hists: [[0; HIST_BUCKETS]; HistKind::ALL.len()],
            hist_sums: std::array::from_fn(|h| self.hist_sums[h].load(Ordering::Relaxed)),
        };
        for h in 0..HistKind::ALL.len() {
            // Acquire the published count first: it synchronizes with the
            // writer's bucket Release, so the loads below cannot miss an
            // observation this count includes.
            let floor = self.hist_counts[h].load(Ordering::Acquire);
            for b in 0..HIST_BUCKETS {
                snap.hists[h][b] = self.hists[h][b].load(Ordering::Acquire);
            }
            debug_assert!(
                snap.hists[h].iter().sum::<u64>() >= floor,
                "histogram snapshot tore: bucket sum below published count"
            );
        }
        snap
    }
}

/// Bucket index for a nanosecond value: its bit length.
pub fn hist_bucket(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl MetricsSink for AtomicMetrics {
    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, hist: HistKind, value: u64) {
        // Bucket first, total count second (both Release): a reader that
        // Acquire-loads the count before the buckets can never observe a
        // count that exceeds the bucket sum.
        self.hists[hist as usize][hist_bucket(value)].fetch_add(1, Ordering::Release);
        self.hist_sums[hist as usize].fetch_add(value, Ordering::Relaxed);
        self.hist_counts[hist as usize].fetch_add(1, Ordering::Release);
    }
}

/// A plain-data copy of a sink's state, suitable for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values indexed by `Counter as usize`.
    pub counters: [u64; Counter::ALL.len()],
    /// Histogram bucket counts indexed by `HistKind as usize`, then bucket.
    pub hists: [[u64; HIST_BUCKETS]; HistKind::ALL.len()],
    /// Sum of all observed values per histogram (Prometheus `_sum`).
    pub hist_sums: [u64; HistKind::ALL.len()],
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; Counter::ALL.len()],
            hists: [[0; HIST_BUCKETS]; HistKind::ALL.len()],
            hist_sums: [0; HistKind::ALL.len()],
        }
    }
}

impl MetricsSnapshot {
    /// Value of `counter` in this snapshot.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Set `counter` (used when folding an event log into the schema).
    pub fn set(&mut self, counter: Counter, value: u64) {
        self.counters[counter as usize] = value;
    }

    /// Add `n` to `counter`.
    pub fn bump(&mut self, counter: Counter, n: u64) {
        self.counters[counter as usize] += n;
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, hist: HistKind, value: u64) {
        self.hists[hist as usize][hist_bucket(value)] += 1;
        self.hist_sums[hist as usize] += value;
    }

    /// Total observations recorded in `hist`.
    pub fn hist_count(&self, hist: HistKind) -> u64 {
        self.hists[hist as usize].iter().sum()
    }

    /// Sum of every value observed in `hist`.
    pub fn hist_sum(&self, hist: HistKind) -> u64 {
        self.hist_sums[hist as usize]
    }

    /// Non-empty `(bucket_floor_ns, count)` pairs for `hist`, ascending.
    /// `bucket_floor_ns` is the smallest value that lands in the bucket.
    pub fn hist_buckets(&self, hist: HistKind) -> Vec<(u64, u64)> {
        self.hists[hist as usize]
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }
}

/// An epoch-stamped [`MetricsSnapshot`] taken from a live sink.
///
/// Epochs are assigned by the draining [`SnapshotSource`], start at 1, and
/// increase by exactly 1 per drain, so a consumer can detect missed or
/// duplicated scrapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Sequence number of this drain (1-based, per source).
    pub epoch: u64,
    /// The state at drain time (internally consistent; see module docs).
    pub metrics: MetricsSnapshot,
}

/// What changed between two consecutive [`Snapshot`]s of one source.
///
/// Every field is a non-negative delta: counters and histogram buckets are
/// monotone under recording, and [`SnapshotSource`] additionally clamps
/// against its previous snapshot, so a delta can never go "backwards" even
/// if an exotic platform reordered relaxed loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Epoch of the snapshot this delta ends at.
    pub epoch: u64,
    /// Counter increments since the previous snapshot.
    pub counters: [u64; Counter::ALL.len()],
    /// Histogram bucket increments since the previous snapshot.
    pub hists: [[u64; HIST_BUCKETS]; HistKind::ALL.len()],
    /// Histogram value-sum increments since the previous snapshot.
    pub hist_sums: [u64; HistKind::ALL.len()],
}

impl SnapshotDelta {
    /// Increment of `counter` over the delta's interval.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Observations added to `hist` over the delta's interval.
    pub fn hist_count(&self, hist: HistKind) -> u64 {
        self.hists[hist as usize].iter().sum()
    }
}

/// The draining side of the live telemetry plane.
///
/// One scraper owns a `SnapshotSource` and calls [`SnapshotSource::delta`]
/// (or [`SnapshotSource::snapshot`]) periodically; the recording engine
/// never sees it — drains are plain atomic loads against the shared
/// [`AtomicMetrics`], so scraping cannot block or slow a hot path.
#[derive(Debug)]
pub struct SnapshotSource {
    sink: Arc<AtomicMetrics>,
    epoch: u64,
    prev: MetricsSnapshot,
}

impl SnapshotSource {
    /// A source that will drain `sink`. Epoch 0 is the implicit all-zero
    /// snapshot, so the first delta reports everything recorded so far.
    pub fn new(sink: Arc<AtomicMetrics>) -> SnapshotSource {
        SnapshotSource { sink, epoch: 0, prev: MetricsSnapshot::default() }
    }

    /// Epoch of the most recent drain (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The snapshot taken at the most recent drain.
    pub fn last(&self) -> &MetricsSnapshot {
        &self.prev
    }

    /// Drain the sink into a fresh epoch-stamped snapshot.
    ///
    /// Monotone by construction: each field is clamped to at least its
    /// value in the previous snapshot, so consumers can subtract
    /// consecutive snapshots without underflow.
    pub fn snapshot(&mut self) -> Snapshot {
        let mut cur = self.sink.snapshot();
        for i in 0..Counter::ALL.len() {
            cur.counters[i] = cur.counters[i].max(self.prev.counters[i]);
        }
        for h in 0..HistKind::ALL.len() {
            for b in 0..HIST_BUCKETS {
                cur.hists[h][b] = cur.hists[h][b].max(self.prev.hists[h][b]);
            }
            cur.hist_sums[h] = cur.hist_sums[h].max(self.prev.hist_sums[h]);
        }
        self.epoch += 1;
        self.prev = cur.clone();
        Snapshot { epoch: self.epoch, metrics: cur }
    }

    /// Drain the sink and return only what changed since the last drain.
    pub fn delta(&mut self) -> SnapshotDelta {
        let before = self.prev.clone();
        let snap = self.snapshot();
        let cur = &snap.metrics;
        SnapshotDelta {
            epoch: snap.epoch,
            counters: std::array::from_fn(|i| cur.counters[i] - before.counters[i]),
            hists: std::array::from_fn(|h| {
                std::array::from_fn(|b| cur.hists[h][b] - before.hists[h][b])
            }),
            hist_sums: std::array::from_fn(|h| cur.hist_sums[h] - before.hist_sums[h]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_discriminants_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c} out of order");
        }
        for (i, h) in HistKind::ALL.iter().enumerate() {
            assert_eq!(*h as usize, i, "{h} out of order");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }

    #[test]
    fn atomic_sink_counts_and_snapshots() {
        let m = AtomicMetrics::new();
        m.incr(Counter::Offloads);
        m.add(Counter::Offloads, 2);
        m.incr(Counter::MailboxStalls);
        assert_eq!(m.get(Counter::Offloads), 3);
        let snap = m.snapshot();
        assert_eq!(snap.get(Counter::Offloads), 3);
        assert_eq!(snap.get(Counter::MailboxStalls), 1);
        assert_eq!(snap.get(Counter::DmaIssues), 0);
    }

    #[test]
    fn hist_buckets_are_log2() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 1);
        assert_eq!(hist_bucket(2), 2);
        assert_eq!(hist_bucket(3), 2);
        assert_eq!(hist_bucket(4), 3);
        assert_eq!(hist_bucket(u64::MAX), 64);

        let m = AtomicMetrics::new();
        m.observe(HistKind::TaskDurNs, 0);
        m.observe(HistKind::TaskDurNs, 5); // bucket 3, floor 4
        m.observe(HistKind::TaskDurNs, 7); // bucket 3
        let snap = m.snapshot();
        assert_eq!(snap.hist_count(HistKind::TaskDurNs), 3);
        assert_eq!(snap.hist_buckets(HistKind::TaskDurNs), vec![(0, 1), (4, 2)]);
    }

    #[test]
    fn nop_sink_is_usable_through_the_trait() {
        let sink: &dyn MetricsSink = &NopMetrics;
        sink.add(Counter::Offloads, 10);
        sink.observe(HistKind::DmaLatencyNs, 42);
    }

    #[test]
    fn snapshot_fold_helpers() {
        let mut s = MetricsSnapshot::default();
        s.set(Counter::CodeReloads, 4);
        s.bump(Counter::CodeReloads, 1);
        s.observe(HistKind::CtxHoldNs, 1024);
        assert_eq!(s.get(Counter::CodeReloads), 5);
        assert_eq!(s.hist_count(HistKind::CtxHoldNs), 1);
        assert_eq!(s.hist_sum(HistKind::CtxHoldNs), 1024);
        assert_eq!(s.hist_buckets(HistKind::CtxHoldNs), vec![(1024, 1)]);
    }

    #[test]
    fn hist_count_fast_path_matches_bucket_sum_when_quiescent() {
        let m = AtomicMetrics::new();
        for v in [0u64, 5, 7, 1024] {
            m.observe(HistKind::TaskDurNs, v);
        }
        assert_eq!(m.hist_count(HistKind::TaskDurNs), 4);
        let snap = m.snapshot();
        assert_eq!(snap.hist_count(HistKind::TaskDurNs), 4);
        assert_eq!(snap.hist_sum(HistKind::TaskDurNs), 1036);
    }

    #[test]
    fn snapshot_source_epochs_and_deltas_are_monotone() {
        let m = Arc::new(AtomicMetrics::new());
        let mut src = SnapshotSource::new(Arc::clone(&m));
        assert_eq!(src.epoch(), 0);

        m.add(Counter::Offloads, 3);
        m.observe(HistKind::TaskDurNs, 100);
        let d1 = src.delta();
        assert_eq!(d1.epoch, 1);
        assert_eq!(d1.get(Counter::Offloads), 3);
        assert_eq!(d1.hist_count(HistKind::TaskDurNs), 1);

        // Nothing recorded: the delta is all-zero, the epoch still advances.
        let d2 = src.delta();
        assert_eq!(d2.epoch, 2);
        assert_eq!(d2.get(Counter::Offloads), 0);
        assert_eq!(d2.hist_count(HistKind::TaskDurNs), 0);

        m.incr(Counter::Offloads);
        m.observe(HistKind::TaskDurNs, 7);
        let s3 = src.snapshot();
        assert_eq!(s3.epoch, 3);
        assert_eq!(s3.metrics.get(Counter::Offloads), 4);
        assert_eq!(s3.metrics.hist_count(HistKind::TaskDurNs), 2);
        assert_eq!(src.last(), &s3.metrics);
    }

    #[test]
    fn snapshot_under_concurrent_recording_is_internally_consistent() {
        let m = Arc::new(AtomicMetrics::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut v = t;
                    while !stop.load(Ordering::Relaxed) {
                        m.observe(HistKind::DmaLatencyNs, v % 4096);
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                });
            }
            for _ in 0..200 {
                // The fast count is published before these bucket loads, so
                // the snapshot's (bucket-derived) count can never be below it.
                let floor = m.hist_count(HistKind::DmaLatencyNs);
                let snap = m.snapshot();
                assert!(
                    snap.hist_count(HistKind::DmaLatencyNs) >= floor,
                    "snapshot tore: lost a published observation"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Quiescent: the fast count and the bucket sum agree exactly.
        assert_eq!(m.hist_count(HistKind::DmaLatencyNs), m.snapshot().hist_count(HistKind::DmaLatencyNs));
    }
}
