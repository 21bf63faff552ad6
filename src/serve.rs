//! `multigrain serve` — the live telemetry plane over the native runtime.
//!
//! Service mode keeps a native [`MgpsRuntime`] resident, runs admitted
//! phylo jobs on its worker processes — each job the bootstrap replicates
//! of a seeded alignment, scored through [`OffloadedEngine`] — and exposes
//! the run's observability state over a plain `std::net` HTTP listener:
//!
//! * `GET /metrics` — Prometheus text format: every counter in the shared
//!   schema as a `_total`, every histogram as cumulative buckets, per-SPE
//!   busy gauges, and the current LLP degree
//!   ([`mgps_obs::prometheus_text`]).
//! * `GET /health` — a JSON verdict (`ok` / `degraded`) with the active
//!   alarm list ([`mgps_obs::health_json`]).
//! * `GET /events` — an NDJSON stream of MGPS window decisions
//!   (`{"type":"decision","u":..,"t":..,"degree":..}`), job lifecycle
//!   records, and health alarms as they happen; the backlog is replayed
//!   first, then the connection stays open and tails the journal.
//! * `POST /jobs` — job admission: a phylo job spec
//!   (`taxa=..&sites=..&bootstraps=..&tenant=..&deadline_ms=..`) is
//!   assigned a seeded job id and either admitted to its tenant's line
//!   of the bounded job queue (`202`), refused with a computed
//!   `Retry-After` because the queue is full (`429`), or refused
//!   because the service is draining after a shutdown signal (`503`).
//!   Every admission decision is stamped under one lock, so the trace's
//!   job lifecycle replays exactly: occupancy, per-tenant FIFO order,
//!   and the queue bound are all checkable from the final RunLog
//!   (`job-lifecycle` rule).
//! * `GET /jobs/<id>` — where an admitted job stands (`queued`,
//!   `running`, `completed`, `shed` or `poisoned`) and, once completed,
//!   its replicate lnLs in bootstrap order, fewer than `bootstraps` after
//!   a contained off-load panic; `404` for any other id.
//!
//! # Surviving overload
//!
//! Dispatch is *deficit round-robin* over per-tenant queues
//! (`--tenant-weights`), held in one [`Drr`] — the pure policy type the
//! checker replays from the log: each active tenant in turn gets a
//! deficit refill equal to its weight and dispatches one job per deficit
//! unit, so a tenant's long-run dispatch share tracks its weight and no
//! nonempty tenant waits forever (the `tenant-starvation` alarm fires
//! if one does). One bound, `--job-queue`, caps the jobs queued across
//! all tenants. Jobs may carry a relative deadline (`deadline_ms`); a
//! job whose deadline expires while queued is *shed* — removed with an
//! explicit `JobShed` record, never silently dropped. When an execution attempt
//! dies on an unrecovered off-load fault (`--faults` arms the same
//! seeded [`FaultPlan`] the chaos harness uses), the job is requeued
//! with deterministic bounded backoff and an attempt counter
//! (`JobRetried`), and after the policy's retry budget it is
//! quarantined as a poison job (`JobPoisoned`). Every admitted job thus
//! ends in exactly one of {completed, shed, poisoned}, and a completed
//! job's four span terms telescope across all its attempts — the
//! checker's `job-retry` and `tenant-fairness` rules replay all of
//! this from the log alone.
//!
//! A worker process pops an admitted job, or waits for one outside the
//! PPE gate. A job is the paper's task-level unit, bootstrap replicates
//! off-loading their likelihood kernels (see `execute_job`), and decomposes
//! into the span terms
//! `t_queue` / `t_dispatch` / `t_kernel` / `t_reduce` — the granularity
//! vocabulary lifted one level up — and the
//! terms telescope by construction, so the checker's exact-partition rule
//! holds on every run. Job wall time feeds the `JobQueueNs` /
//! `JobServiceNs` / `JobTotalNs` histograms, which `/metrics` exports as
//! `multigrain_job_latency{quantile=...}` gauges.
//!
//! Scrapes never touch the hot path: a dedicated telemetry thread drains
//! [`SnapshotSource`] deltas and the trace rings on a fixed cadence, and
//! HTTP handlers render from that thread's last published [`LiveStatus`].
//! The same thread feeds the online [`HealthDetector`], so
//! utilization-collapse, stall-spike, ring-drop, quarantine-storm, and
//! latency-SLO-burn alarms appear both on `/events` and — merged as
//! [`EventKind::Health`] records — in the final RunLog the service
//! writes at shutdown.
//!
//! Shutdown (SIGINT or `--for-ms` expiry) is graceful and two-phase:
//! first the service *drains* — new submissions get `503`, admitted jobs
//! run to completion — then it stops: the rings are drained, health
//! events are merged into the RunLog, and the native-mode invariant
//! checker runs over the result. An interrupted run still yields a
//! checker-valid log with balanced job lifecycle events.
//!
//! [`EventKind::Health`]: cellsim::event::EventKind::Health
//! [`OffloadedEngine`]: crate::adapters::OffloadedEngine

use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cellsim::event::{json_line, EventKind, SchedulerTag};
use mgps_analysis::{check_run_with, check_trace_sanity, CheckMode};
use mgps_obs::{
    health_json, merge_health_events, prometheus_text, quantile_from_log2_buckets,
    runlog_from_trace, HealthDetector, HealthEvent, LiveDecision, LiveStatus,
    NativeRunMeta,
};
use mgps_runtime::metrics::{hist_bucket, HistKind, MetricsSink, HIST_BUCKETS};
use mgps_runtime::native::{MgpsRuntime, OffloadError, ProcessCtx, RuntimeConfig};
use mgps_runtime::FaultPlan;
use mgps_runtime::policy::{Drr, KernelKind, SchedulerKind};
use mgps_runtime::tracing::TraceHandle;
use mgps_runtime::{AtomicMetrics, SnapshotSource, Tracer};
use minijson::Value;
use phylo::prelude::{bootstrap_replicate, Alignment, Jc69, PatternAlignment, Tree};
use rand::{rngs::SmallRng, SeedableRng};

use crate::adapters::OffloadedEngine;
use crate::loadgen::Lcg;

/// Construction parameters for service mode.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to listen on (`0` asks the OS for an ephemeral port; the
    /// bound address is printed on stdout either way).
    pub port: u16,
    /// Worker processes running admitted jobs.
    pub workers: usize,
    /// Seed of the job-id stream; a job's id seeds its alignment, tree and
    /// replicates.
    pub seed: u64,
    /// Telemetry cadence: snapshot + ring drain + health evaluation.
    pub poll_ms: u64,
    /// Per-thread trace-ring capacity (small values demonstrate the
    /// ring-drop alarm).
    pub ring_capacity: usize,
    /// Self-terminate after this long (for tests and CI; interactive runs
    /// stop on SIGINT).
    pub duration_ms: Option<u64>,
    /// Where to write the final merged RunLog (JSON).
    pub out: Option<PathBuf>,
    /// Bound of the job admission queue: a `POST /jobs` arriving with
    /// this many jobs already queued is refused with `429`.
    pub job_queue: usize,
    /// Seeded fault-injection plan for the worker pool (`--faults`);
    /// `None` leaves the runtime unarmed and the retry ladder idle.
    pub faults: Option<FaultPlan>,
    /// Per-tenant dispatch weights for the deficit-round-robin
    /// scheduler: tenant `t` gets `tenant_weights[t]`, weight 1 beyond
    /// the list's end. Empty means every tenant weighs 1.
    pub tenant_weights: Vec<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: 2,
            seed: 7,
            poll_ms: 100,
            ring_capacity: mgps_runtime::tracing::DEFAULT_RING_CAPACITY,
            duration_ms: None,
            out: None,
            job_queue: 8,
            faults: None,
            tenant_weights: Vec::new(),
        }
    }
}

/// What a finished service run amounted to.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Invariant violations the native-mode checker found in the final
    /// merged log (plus one per trace-sanity issue).
    pub violations: usize,
    /// Jobs quarantined as poison after exhausting the retry budget.
    pub jobs_poisoned: u64,
}

/// SIGINT plumbing: the handler only flips an atomic, which is
/// async-signal-safe; everything else happens on ordinary threads.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    const SIGINT: i32 = 2;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    pub fn pending() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

/// A phylo job spec as parsed from a `POST /jobs` body. Fields are
/// clamped at admission so one request can never wedge a worker.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    tenant: usize,
    taxa: usize,
    sites: usize,
    bootstraps: usize,
    /// Relative completion deadline, ns since admission (0 = none): a
    /// job still queued when it expires is shed, never started.
    deadline_ns: u64,
}

impl JobSpec {
    /// Parse a `taxa=..&sites=..&bootstraps=..&tenant=..&deadline_ms=..`
    /// form body. Missing or malformed fields take defaults; present
    /// ones clamp to the ranges the serve plane is willing to run.
    fn parse(body: &str) -> JobSpec {
        let mut spec = JobSpec { tenant: 0, taxa: 16, sites: 256, bootstraps: 1, deadline_ns: 0 };
        for pair in body.trim().split('&') {
            let Some((k, v)) = pair.split_once('=') else { continue };
            let Ok(v) = v.trim().parse::<usize>() else { continue };
            match k.trim() {
                "tenant" => spec.tenant = v % 1024,
                "taxa" => spec.taxa = v.clamp(4, 256),
                "sites" => spec.sites = v.clamp(16, 8192),
                "bootstraps" => spec.bootstraps = v.clamp(1, 16),
                "deadline_ms" => spec.deadline_ns = (v.clamp(1, 3_600_000) as u64) * 1_000_000,
                _ => {}
            }
        }
        spec
    }
}

/// One admitted job waiting for a worker (or requeued between attempts).
///
/// The accumulators carry the span terms of every *failed* attempt, so
/// the eventual `JobCompleted` partitions the whole
/// admission-to-completion span exactly no matter how many times the
/// job bounced: each attempt contributes `queue + dispatch + kernel`
/// up to its failure instant, the next queue wait starts at exactly
/// that instant, and the terms telescope.
struct PendingJob {
    job: u64,
    spec: JobSpec,
    submitted_ns: u64,
    /// Zero-based execution attempt the next `JobStarted` will carry.
    attempt: u64,
    /// When the job (re-)entered the queue: admission stamp at first,
    /// then each attempt's failure instant.
    enqueued_ns: u64,
    /// Queue wait accumulated across all attempts so far.
    acc_queue_ns: u64,
    /// Dispatch time burned by failed attempts.
    acc_dispatch_ns: u64,
    /// Kernel time burned by failed attempts (up to the fault).
    acc_kernel_ns: u64,
}

impl PendingJob {
    /// The job declared a deadline and it has passed by `now_ns`.
    fn expired(&self, now_ns: u64) -> bool {
        let deadline = self.spec.deadline_ns;
        deadline != 0 && now_ns >= self.submitted_ns.saturating_add(deadline)
    }
}

/// Where an admitted job stands, as `GET /jobs/<id>` reports it.
enum JobState {
    Queued,
    Running,
    /// The lnL of each replicate scored, in bootstrap order.
    Completed(Box<[f64]>),
    Shed,
    Poisoned,
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed(_) => "completed",
            JobState::Shed => "shed",
            JobState::Poisoned => "poisoned",
        }
    }
}

/// Cumulative per-tenant admission accounting: the `/metrics`
/// `multigrain_tenant_jobs` gauges and the starvation detector's
/// dispatch progress signal both read from here.
#[derive(Debug, Default, Clone, Copy)]
struct TenantStats {
    admitted: u64,
    rejected: u64,
    shed: u64,
    /// Jobs popped but not yet terminal (an instantaneous gauge; a
    /// retried job leaves flight when it re-enters the queue).
    inflight: u64,
    /// Dispatches ever (monotone; the starvation signal is "queued jobs
    /// but no dispatch progress across consecutive windows").
    dispatched: u64,
}

/// Record one job-plane event on `ring` at stamp `at_ns` and return its
/// `/events` line, so the ring and the journal carry one value built once.
fn record_job(ring: &TraceHandle, at_ns: u64, kind: EventKind) -> String {
    let line = json_line(at_ns, &kind);
    ring.record_at(at_ns, kind);
    line
}

/// The admission plane plus everything whose order must equal lock
/// order: the id stream, the last stamp handed out, and the trace ring
/// that records admission decisions. All `JobSubmitted` / `JobStarted` /
/// `JobRejected` / `JobShed` / `JobRetried` / `JobPoisoned` stamps are
/// taken while holding this lock and are strictly increasing, so the
/// merged log's order *is* scheduler order and the checker's replay of
/// the same [`Drr`] is exact.
struct JobQueue {
    /// The deficit-round-robin queue: per-tenant lines, the activation
    /// ring, deficits, weights, and the weighted admission bound.
    drr: Drr<PendingJob>,
    /// Per-tenant accounting; tenants are never forgotten once seen.
    stats: BTreeMap<usize, TenantStats>,
    /// Every admitted job's state, by id: one small entry per admission,
    /// the rate the journal grows at.
    states: BTreeMap<u64, JobState>,
    admit: TraceHandle,
    id: Lcg,
    issued: u64,
    last_ns: u64,
    /// Jobs popped from the queue but neither terminal nor requeued yet.
    in_flight: usize,
    /// Drain requested: `POST /jobs` refuses with `503`, workers run the
    /// queue dry, and only then does `stop` flip. A field of the queue so
    /// that it can only change under the queue lock: an empty queue seen
    /// alongside it is empty for good.
    draining: bool,
}

impl JobQueue {
    /// A stamp strictly after every stamp this queue has handed out, and
    /// never behind the clock.
    fn stamp(&mut self, now_ns: u64) -> u64 {
        self.last_ns = now_ns.max(self.last_ns + 1);
        self.last_ns
    }

    /// The next seeded job id: unique by construction (the issue counter
    /// occupies the high bits), seeded flavor in the low bits.
    fn next_id(&mut self) -> u64 {
        let id = (self.issued << 24) | (self.id.next() & 0xff_ffff);
        self.issued += 1;
        id
    }

    /// Nothing queued and nothing in flight: what the drain waits for.
    fn quiescent(&self) -> bool {
        self.drr.is_empty() && self.in_flight == 0
    }

    /// Pop the next job under deficit round-robin, first shedding the
    /// expired jobs at the head's front (with `JobShed` records and
    /// journal lines). Returns the job and its `JobStarted` stamp; the
    /// caller records the start.
    fn drr_pop(&mut self, now_ns: u64, journal: &mut Vec<String>) -> Option<(PendingJob, u64)> {
        while let Some(tenant) = self.drr.head() {
            if !self.drr.front(tenant).is_some_and(|job| job.expired(now_ns)) {
                let (_, job) = self.drr.pop()?;
                let at = self.stamp(now_ns);
                return Some((job, at));
            }
            let Some(job) = self.drr.shed_front(tenant) else { break };
            self.stats.entry(tenant).or_default().shed += 1;
            self.states.insert(job.job, JobState::Shed);
            let at = self.stamp(now_ns);
            let shed =
                EventKind::JobShed { job: job.job, tenant, deadline_ns: job.spec.deadline_ns };
            journal.push(record_job(&self.admit, at, shed));
        }
        None
    }
}

/// State shared between the workers, the telemetry thread and the HTTP
/// handlers.
///
/// # Wake graph
///
/// Nothing here waits for a timer; every wait names the event that ends
/// it, and every such event happens under the lock the waiter holds:
///
/// * an **idle worker** waits on `work` (outside the PPE gate) while the
///   queue is empty, `!draining` and `!stop`. [`Shared::admit`] and the
///   requeue in [`Shared::retry_or_poison`] push under `jobs` and
///   `notify_one`; the drain flip and the stop flip
///   ([`Shared::drain_then_stop`]) happen under `jobs` and `notify_all`.
/// * the **drain waiter** waits on `quiet` until the queue is empty and
///   `in_flight == 0`. [`Shared::leave_flight`] lowers `in_flight` and
///   [`Shared::pop_job`] empties the queue (a pop can shed expired jobs
///   and start none), both under `jobs`, and each notifies when that leaves
///   both at zero during a drain ([`Shared::tell_drain`]).
/// * the **telemetry thread** waits on `quiet` for one period at a time,
///   cut short by the stop flip.
/// * an **`/events` tail** waits on `journal_grew` until the journal is
///   longer than what it has sent; every append notifies under `journal`,
///   and so does the stop flip.
/// * each of the [`ACCEPTORS`] **acceptors** blocks in `accept` on the
///   one listener and serves inline what it accepts, waiting in `read`
///   for a request at most [`FIRST_WAIT`] before it hands the connection
///   to a thread of its own; an `/events` tail gets a thread of its own
///   too. `serve` wakes the acceptors after the stop flip with one
///   loopback connection per acceptor to their listener; each leaves on
///   the first connection it accepts after the flip.
struct Shared {
    /// Shutdown requested. Stored only under the `jobs` lock (it is part
    /// of the idle-worker predicate); read anywhere.
    stop: AtomicBool,
    /// The admission queue; see [`JobQueue`] for the stamping contract.
    jobs: Mutex<JobQueue>,
    /// Paired with `jobs`: work arrived, or no more ever will.
    work: Condvar,
    /// Paired with `jobs`: the drain ran dry, or the service stopped.
    quiet: Condvar,
    /// The run's sanctioned clock, for admission stamps.
    tracer: Arc<Tracer>,
    /// The last published scrape material; handlers render from this and
    /// never touch the runtime or the rings.
    status: Mutex<Option<LiveStatus>>,
    /// NDJSON journal of decisions, job lifecycle, and health events,
    /// append-only.
    journal: Mutex<Vec<String>>,
    /// Paired with `journal`: it grew, or the service stopped.
    journal_grew: Condvar,
    /// Every health event, for the final RunLog merge.
    health: Mutex<Vec<HealthEvent>>,
    /// The armed fault plan (unarmed default when `--faults` is absent);
    /// the retry ladder recomputes its deterministic backoff from here.
    faults: FaultPlan,
    /// Worker-pool size, for the `Retry-After` estimate.
    workers: usize,
    /// EWMA of job service time, ns (shifted-update, no floats): the
    /// `Retry-After` estimate is `depth * ewma / workers`.
    service_ewma_ns: std::sync::atomic::AtomicU64,
}

/// What a worker found when it asked the admission queue for work.
enum Popped {
    /// A job, with its `JobStarted` stamp.
    Job(PendingJob, u64),
    /// Queue empty, service still accepting: more work may yet arrive.
    Idle,
    /// Queue empty *and* the drain flag set, both observed under the
    /// queue lock. Admission checks the flag under that same lock, so an
    /// empty queue seen alongside the flag is empty for good: the worker
    /// may exit.
    Drained,
}

/// The outcome of one admission decision, for the HTTP layer to render.
enum Verdict {
    Admitted { job: u64, depth: usize, cap: usize },
    Full { job: u64, depth: usize, cap: usize, retry_after: u64 },
    Draining,
}

impl Shared {
    fn new(cfg: &ServeConfig, tracer: &Arc<Tracer>) -> Shared {
        Shared {
            stop: AtomicBool::new(false),
            jobs: Mutex::new(JobQueue {
                drr: Drr::new(cfg.tenant_weights.clone()).bounded(cfg.job_queue),
                stats: BTreeMap::new(),
                states: BTreeMap::new(),
                admit: tracer.handle(),
                id: Lcg(cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
                issued: 0,
                last_ns: 0,
                in_flight: 0,
                draining: false,
            }),
            work: Condvar::new(),
            quiet: Condvar::new(),
            tracer: Arc::clone(tracer),
            status: Mutex::new(None),
            journal: Mutex::new(Vec::new()),
            journal_grew: Condvar::new(),
            health: Mutex::new(Vec::new()),
            faults: cfg.faults.unwrap_or_default(),
            workers: cfg.workers.max(1),
            service_ewma_ns: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Append to the journal and wake every `/events` tail.
    fn journal_extend(&self, lines: Vec<String>) {
        if lines.is_empty() {
            return;
        }
        self.journal.lock().unwrap_or_else(|e| e.into_inner()).extend(lines);
        self.journal_grew.notify_all();
    }

    fn journal_push(&self, line: String) {
        self.journal_extend(vec![line]);
    }

    /// Decide one `POST /jobs`: admit, refuse (the queue is full, see
    /// [`Drr::admits`]), or refuse (draining), stamping the decision under
    /// the queue lock — see [`JobQueue`]. An admission wakes one idle
    /// worker.
    fn admit(&self, spec: JobSpec) -> Verdict {
        let verdict = {
            let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            if q.draining {
                // Draining refusals record nothing: the final log describes
                // the run's admitted work, and a drain admits none.
                Verdict::Draining
            } else if !q.drr.admits() {
                let at = q.stamp(self.tracer.now_ns());
                let job = q.next_id();
                let (depth, cap) = (q.drr.len(), q.drr.cap());
                q.stats.entry(spec.tenant).or_default().rejected += 1;
                let rejected = EventKind::JobRejected {
                    job,
                    tenant: spec.tenant,
                    queue_depth: depth,
                    queue_cap: cap,
                };
                self.journal_push(record_job(&q.admit, at, rejected));
                Verdict::Full { job, depth, cap, retry_after: self.retry_after_s(depth) }
            } else {
                let at = q.stamp(self.tracer.now_ns());
                let job = q.next_id();
                q.drr.push(spec.tenant, PendingJob {
                    job,
                    spec,
                    submitted_ns: at,
                    attempt: 0,
                    enqueued_ns: at,
                    acc_queue_ns: 0,
                    acc_dispatch_ns: 0,
                    acc_kernel_ns: 0,
                });
                q.stats.entry(spec.tenant).or_default().admitted += 1;
                q.states.insert(job, JobState::Queued);
                let (depth, cap) = (q.drr.len(), q.drr.cap());
                let submitted = EventKind::JobSubmitted {
                    job,
                    tenant: spec.tenant,
                    taxa: spec.taxa,
                    sites: spec.sites,
                    bootstraps: spec.bootstraps,
                    deadline_ns: spec.deadline_ns,
                    queue_depth: depth,
                    queue_cap: cap,
                };
                self.journal_push(record_job(&q.admit, at, submitted));
                Verdict::Admitted { job, depth, cap }
            }
        };
        if matches!(verdict, Verdict::Admitted { .. }) {
            self.work.notify_one();
        }
        verdict
    }

    /// Pop the next admitted job under the DRR discipline, stamping
    /// `JobStarted` under the queue lock. In-flight is raised under the
    /// same lock, so the drain waiter can never observe "queue empty,
    /// nothing in flight" mid-handoff. Deadline sheds encountered on the
    /// way are recorded (and journaled) before the start.
    fn pop_job(&self) -> Popped {
        let mut lines: Vec<String> = Vec::new();
        let popped = {
            let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            match q.drr_pop(self.tracer.now_ns(), &mut lines) {
                Some((mut job, at)) => {
                    q.in_flight += 1;
                    let tenant = job.spec.tenant;
                    let st = q.stats.entry(tenant).or_default();
                    st.inflight += 1;
                    st.dispatched += 1;
                    q.states.insert(job.job, JobState::Running);
                    // This attempt's queue wait ends here; accumulate it
                    // so the final partition telescopes over retries.
                    job.acc_queue_ns += at.saturating_sub(job.enqueued_ns);
                    let started =
                        EventKind::JobStarted { job: job.job, tenant, attempt: job.attempt };
                    lines.push(record_job(&q.admit, at, started));
                    Popped::Job(job, at)
                }
                None => {
                    // Shedding may have emptied the queue with no job to
                    // start, and so no `leave_flight` to follow.
                    self.tell_drain(&q);
                    if q.draining {
                        Popped::Drained
                    } else {
                        Popped::Idle
                    }
                }
            }
        };
        self.journal_extend(lines);
        popped
    }

    /// Block until the queue has a job or never will again. The caller
    /// must be outside the PPE gate ([`ProcessCtx::block_outside`]): a
    /// process that sleeps on a context keeps it from one with work.
    fn wait_for_work(&self) {
        let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        while q.drr.is_empty() && !q.draining && !self.stopped() {
            q = self.work.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Drop one job from flight accounting (its terminal record is
    /// already stamped, or — for a retry — it is back in the queue), and
    /// tell the drain waiter if that was the last thing it waited for.
    fn leave_flight(&self, tenant: usize) {
        let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let st = q.stats.entry(tenant).or_default();
        st.inflight = st.inflight.saturating_sub(1);
        q.in_flight = q.in_flight.saturating_sub(1);
        self.tell_drain(&q);
    }

    /// Wake the drain waiter if the queue, whose lock the caller holds,
    /// just ran dry under a drain. Everything that empties the queue or
    /// lowers `in_flight` ends with this.
    fn tell_drain(&self, q: &JobQueue) {
        if q.draining && q.quiescent() {
            self.quiet.notify_all();
        }
    }

    /// The two-phase shutdown. Flip the drain flag (admission checks it
    /// under this same lock, so once it is set no job can ever enter the
    /// queue, which is what lets a worker treat "empty + draining" as
    /// final), wait until every admitted job is terminal, then flip
    /// `stop` — still under the queue lock, as every term of the
    /// idle-worker predicate must be — and wake everything that waits on
    /// it: workers, the telemetry thread, and the `/events` tails.
    fn drain_then_stop(&self) {
        let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        q.draining = true;
        self.work.notify_all();
        while !q.quiescent() {
            q = self.quiet.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        self.stop.store(true, Ordering::SeqCst);
        self.work.notify_all();
        self.quiet.notify_all();
        drop(q);
        // A tail checks `stopped()` under the journal lock before it
        // waits, so notifying under that lock cannot slip past it.
        let _journal = self.journal.lock().unwrap_or_else(|e| e.into_inner());
        self.journal_grew.notify_all();
    }

    /// Sleep one telemetry period, or until `stop` flips if that comes
    /// first; says whether the service has stopped.
    fn wait_period(&self, period: Duration) -> bool {
        let q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        drop(
            self.quiet
                .wait_timeout_while(q, period, |_| !self.stopped())
                .unwrap_or_else(|e| e.into_inner()),
        );
        self.stopped()
    }

    /// An execution attempt died on an unrecovered off-load fault at
    /// `fail_ns`: requeue the job with deterministic bounded backoff, or
    /// quarantine it as poison once the retry budget
    /// ([`mgps_runtime::RecoveryPolicy::job_retries`]) is spent. The job
    /// keeps its identity, admission stamp, and accumulated span terms
    /// either way — a poison quarantine is a terminal record, a retry is
    /// a re-entry into its tenant's queue (back of the line).
    fn retry_or_poison(&self, mut job: PendingJob, fail_ns: u64) {
        let tenant = job.spec.tenant;
        let next_attempt = job.attempt + 1;
        if next_attempt > u64::from(self.faults.policy.job_retries) {
            let line = {
                let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
                let at = q.stamp(self.tracer.now_ns());
                q.states.insert(job.job, JobState::Poisoned);
                let kind = EventKind::JobPoisoned { job: job.job, tenant, attempts: next_attempt };
                record_job(&q.admit, at, kind)
            };
            self.journal_push(line);
            self.leave_flight(tenant);
            return;
        }
        // Deterministic, bounded, seeded: the checker recomputes this
        // exact value from the log's fault spec and flags any drift.
        let backoff_ns = self.faults.backoff_ns(job.job, next_attempt as u32);
        // xtask-allow: request-sleep — the declared retry back-off (fault plane only); the checker's job-retry rule pins its value
        std::thread::sleep(Duration::from_nanos(backoff_ns));
        let line = {
            let mut q = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
            let at = q.stamp(self.tracer.now_ns());
            let kind =
                EventKind::JobRetried { job: job.job, tenant, attempt: next_attempt, backoff_ns };
            let journal_line = record_job(&q.admit, at, kind);
            job.attempt = next_attempt;
            // The next queue wait starts at the failure instant, so the
            // backoff sleep is accounted as queue time.
            job.enqueued_ns = fail_ns;
            q.states.insert(job.job, JobState::Queued);
            q.drr.push(tenant, job);
            journal_line
        };
        self.work.notify_one();
        self.journal_push(line);
        // Leave flight only after the job is safely requeued: the drain
        // waiter must never see "empty queue, zero in flight" while a
        // retry is in hand.
        self.leave_flight(tenant);
    }

    /// Seconds a refused client should wait before retrying: the queue's
    /// estimated drain time at the current service rate, clamped to
    /// [1, 30].
    fn retry_after_s(&self, depth: usize) -> u64 {
        let ewma = self.service_ewma_ns.load(Ordering::Relaxed);
        let ns = (depth as u128 * ewma as u128) / self.workers.max(1) as u128;
        ((ns.div_ceil(1_000_000_000)) as u64).clamp(1, 30)
    }
}

/// Run service mode to completion. Blocks until SIGINT or `duration_ms`.
/// It fails only on I/O: binding the listener or writing the run log.
pub fn serve(cfg: &ServeConfig) -> std::io::Result<ServeOutcome> {
    sigint::install();

    let listener = TcpListener::bind(("127.0.0.1", cfg.port))
        .map_err(|e| io_context(e, format!("bind 127.0.0.1:{}", cfg.port)))?;
    let addr = listener.local_addr().map_err(|e| io_context(e, "local_addr".into()))?;
    println!("multigrain serve: listening on http://{addr}");
    std::io::stdout().flush().ok();

    let metrics = Arc::new(AtomicMetrics::new());
    let tracer = Tracer::new(cfg.ring_capacity);
    let mut rt_cfg = RuntimeConfig::cell(SchedulerKind::Mgps);
    if let Some(plan) = cfg.faults {
        rt_cfg = rt_cfg.with_faults(plan);
    }
    let n_spes = rt_cfg.n_spes;
    let rt = MgpsRuntime::with_observability(
        rt_cfg,
        Arc::clone(&metrics) as Arc<dyn mgps_runtime::MetricsSink>,
        Some(Arc::clone(&tracer)),
    );

    let shared = Arc::new(Shared::new(cfg, &tracer));

    std::thread::scope(|s| {
        // Workers: each is one "process" that pops an admitted job or waits
        // for one. A process holds a PPE context only while it has
        // something to run on it: it yields the context for each off-load,
        // and with no job queued it waits *outside* the gate — so however
        // many workers there are per context, the one whose off-load just
        // finished always gets its context back.
        for _ in 0..cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            let rt = &rt;
            let metrics = Arc::clone(&metrics);
            let tracer = Arc::clone(&tracer);
            s.spawn(move || {
                let mut ctx = rt.enter_process();
                // This worker's own ring: `JobCompleted` stamps are
                // monotone per worker, so per-ring causal time holds.
                let done = tracer.handle();
                let mut last_done_ns = 0u64;
                loop {
                    match shared.pop_job() {
                        Popped::Job(mut job, started_ns) => {
                            match execute_job(
                                &mut ctx, &job, started_ns, &done, &mut last_done_ns,
                                &metrics, &shared,
                            ) {
                                JobRun::Completed => shared.leave_flight(job.spec.tenant),
                                JobRun::Faulted { dispatch_end, fail_ns } => {
                                    // This attempt's dispatch and kernel time
                                    // still count toward the job's totals.
                                    job.acc_dispatch_ns +=
                                        dispatch_end.saturating_sub(started_ns);
                                    job.acc_kernel_ns += fail_ns.saturating_sub(dispatch_end);
                                    shared.retry_or_poison(job, fail_ns);
                                }
                            }
                        }
                        Popped::Idle => ctx.block_outside(|| shared.wait_for_work()),
                        Popped::Drained => break,
                    }
                }
            });
        }

        // Telemetry: the only thread that drains snapshots and rings. The
        // first tick runs here, before any acceptor exists, so no request
        // is ever served without a published status.
        {
            let shared = Arc::clone(&shared);
            let rt = &rt;
            let tracer = Arc::clone(&tracer);
            let mut source = SnapshotSource::new(Arc::clone(&metrics));
            let mut detector = HealthDetector::new(n_spes);
            let poll = Duration::from_millis(cfg.poll_ms.max(1));
            // Per-ring read cursors: each tick copies only what arrived
            // since the previous one.
            let mut cursors: Vec<usize> = Vec::new();
            let mut starve: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
            let mut tick = move |shared: &Shared| {
                telemetry_tick(
                    shared, rt, &tracer, &mut source, &mut detector, &mut cursors, &mut starve,
                );
            };
            tick(&shared);
            s.spawn(move || loop {
                // A tick that starts after the stop flip has seen it all.
                let last = shared.wait_period(poll);
                tick(&shared);
                if last {
                    break;
                }
            });
        }

        // HTTP acceptors: each blocks in `accept` on the one listener and
        // serves what it accepts (see `accept_loop`).
        for _ in 0..ACCEPTORS {
            let (listener, shared) = (&listener, &*shared);
            s.spawn(move || accept_loop(s, listener, shared));
        }

        // Lifetime control: SIGINT or the --for-ms timer starts the
        // drain; `stop` flips only once every admitted job has completed,
        // so the final log's job lifecycle is always balanced.
        let started = std::time::Instant::now();
        loop {
            if sigint::pending() {
                println!("multigrain serve: SIGINT, draining");
                break;
            }
            if let Some(ms) = cfg.duration_ms {
                if started.elapsed() >= Duration::from_millis(ms) {
                    println!("multigrain serve: duration reached, draining");
                    break;
                }
            }
            // xtask-allow: request-sleep — a signal handler may only flip an atomic, so SIGINT and the --for-ms clock are polled; no request waits on this
            std::thread::sleep(Duration::from_millis(20));
        }
        shared.drain_then_stop();
        // Wake the acceptors: each leaves on the first connection it
        // accepts after the stop flip, so one connect per acceptor wakes
        // them all. A refused connection means they already left.
        for _ in 0..ACCEPTORS {
            let _ = TcpStream::connect(addr);
        }
    });

    // Workers, telemetry, acceptors and connection threads have joined;
    // tear the pool down so every SPE ring is complete, then drain once
    // more for the record.
    rt.shutdown();
    let trace = tracer.drain();
    let dropped = trace.dropped_events();
    let sanity = check_trace_sanity(&trace);

    let mut log = runlog_from_trace(
        &trace,
        NativeRunMeta {
            scheduler: SchedulerTag::Mgps,
            n_spes,
            seed: cfg.seed,
            fault_policy: cfg.faults.filter(|p| p.armed()).map(|p| p.to_spec()),
            // Declared only when fairness is actually shaped: an
            // equal-weight run keeps the pre-weights log byte-identical.
            tenant_weights: if cfg.tenant_weights.iter().any(|&w| w != 1) {
                Some(cfg.tenant_weights.clone())
            } else {
                None
            },
        },
    );
    let health = shared.health.lock().unwrap_or_else(|e| e.into_inner());
    merge_health_events(&mut log, &health);
    let report = check_run_with(&log, CheckMode::Native);

    if let Some(path) = &cfg.out {
        std::fs::write(path, log.to_json())
            .map_err(|e| io_context(e, format!("write {}", path.display())))?;
        println!("multigrain serve: wrote run log to {}", path.display());
    }
    let tasks_completed = metrics.get(mgps_runtime::Counter::TasksCompleted);
    let violations = report.violations.len() + sanity.violations.len();
    let mut jobs_retried = 0u64;
    let mut jobs_shed = 0u64;
    let mut jobs_poisoned = 0u64;
    for ev in &log.events {
        match ev.kind {
            EventKind::JobRetried { .. } => jobs_retried += 1,
            EventKind::JobShed { .. } => jobs_shed += 1,
            EventKind::JobPoisoned { .. } => jobs_poisoned += 1,
            _ => {}
        }
    }
    if !sanity.is_clean() {
        println!("{}", sanity.render());
    }
    if !report.is_clean() {
        println!("{}", report.render());
    }
    println!(
        "multigrain serve: {} tasks, {} events, {} dropped, {} alarm(s), {} violation(s)",
        tasks_completed,
        log.events.len(),
        dropped,
        health.len(),
        violations,
    );
    if jobs_retried + jobs_shed + jobs_poisoned > 0 {
        println!(
            "multigrain serve: job plane: {jobs_retried} retried, {jobs_shed} shed, \
             {jobs_poisoned} poisoned",
        );
    }

    Ok(ServeOutcome { violations, jobs_poisoned })
}

/// `e` with what was being done when it struck, keeping its kind.
fn io_context(e: std::io::Error, what: String) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// What became of one execution attempt.
enum JobRun {
    /// The job completed: its result is recorded, its terminal record
    /// stamped.
    Completed,
    /// An off-loaded kernel died on [`OffloadError::Unrecovered`]. The
    /// caller owns the verdict (retry or poison); the boundary stamps let
    /// it fold this attempt's dispatch/kernel time into the job's
    /// accumulators so the final partition still telescopes.
    Faulted { dispatch_end: u64, fail_ns: u64 },
}

/// Run one admitted job and record its completion.
///
/// Job `id` seeds everything it runs: `t_dispatch` generates the JC69
/// alignment `Alignment::synthetic(taxa, sites, &Jc69, 0.1, id)`,
/// compressed once, and the tree `Tree::random(taxa, 0.1,
/// SmallRng::seed_from_u64(id))` on the PPE; `t_kernel` scores replicate
/// `b = bootstrap_replicate(&data, id + b)` on that tree, one off-load per
/// replicate; `t_reduce` folds the lnLs into the job's result. Phase
/// boundaries chain with `max`, so the terms telescope: the accumulated
/// terms across all attempts plus this attempt's tail equal `completed -
/// submitted` *exactly*, which the checker's job-lifecycle rule asserts on
/// every log. A panicked-but-recovered off-load still completes the job
/// with the replicates scored before it; only [`OffloadError::Unrecovered`]
/// hands the job back for retry or quarantine.
///
/// Cost in a live one-worker service (2-vCPU x86-64; release, debug in
/// brackets), `t_dispatch` once + `t_kernel` per replicate: 8 × 79, the
/// benchmark's median job, 0.10 + 0.07 ms (≈ 3× a hot loop); 64 × 8 192
/// 14 + 3.7 ms [0.16 + 0.12 s]; 256 × 8 192 65 + 15 ms [0.7 + 0.47 s].
fn execute_job(
    ctx: &mut ProcessCtx<'_>,
    job: &PendingJob,
    started_ns: u64,
    done: &TraceHandle,
    last_done_ns: &mut u64,
    metrics: &AtomicMetrics,
    shared: &Shared,
) -> JobRun {
    let tracer = &shared.tracer;
    let spec = job.spec;

    // Dispatch: the job's seeded alignment and tree.
    let (data, tree) = ctx.ppe_compute(|| {
        let aln = Alignment::synthetic(spec.taxa, spec.sites, &Jc69, 0.1, job.job);
        let tree = Tree::random(spec.taxa, 0.1, &mut SmallRng::seed_from_u64(job.job));
        (PatternAlignment::compress(&aln), tree)
    });
    let dispatch_end = tracer.now_ns().max(started_ns);

    // Kernel: one off-loaded score per bootstrap replicate.
    let mut lnls = Vec::with_capacity(spec.bootstraps);
    for b in 0..spec.bootstraps as u64 {
        let replicate = Arc::new(bootstrap_replicate(&data, job.job.wrapping_add(b)));
        match OffloadedEngine::new(ctx, Jc69, replicate).try_log_likelihood(&tree) {
            Ok(lnl) => lnls.push(lnl),
            Err(OffloadError::Unrecovered) => {
                let fail_ns = tracer.now_ns().max(dispatch_end);
                return JobRun::Faulted { dispatch_end, fail_ns };
            }
            // A contained panic lost this replicate but the SPE is back
            // in service: finish the job with the replicates scored.
            Err(OffloadError::TaskPanicked) => break,
        }
    }
    let kernel_end = tracer.now_ns().max(dispatch_end);

    // Reduce: fold the replicate lnLs into the job's result.
    let result = JobState::Completed(ctx.ppe_compute(|| lnls.into_boxed_slice()));
    // Strictly after the kernel boundary AND after this worker's previous
    // completion, so the worker's ring keeps causal time even when two
    // jobs finish within the stamp-bump noise.
    let completed_ns = tracer.now_ns().max(kernel_end + 1).max(*last_done_ns + 1);
    *last_done_ns = completed_ns;

    // The accumulators carry every earlier attempt's wait/dispatch/kernel
    // time (the backoff sleep counts as queue time), so the four terms
    // still partition `completed - submitted` exactly after retries.
    let t_queue_ns = job.acc_queue_ns;
    let t_dispatch_ns = job.acc_dispatch_ns + (dispatch_end - started_ns);
    let t_kernel_ns = job.acc_kernel_ns + (kernel_end - dispatch_end);
    let t_reduce_ns = completed_ns - kernel_end;
    let completed = EventKind::JobCompleted {
        job: job.job,
        tenant: spec.tenant,
        t_queue_ns,
        t_dispatch_ns,
        t_kernel_ns,
        t_reduce_ns,
    };
    let line = record_job(done, completed_ns, completed);
    metrics.observe(HistKind::JobQueueNs, t_queue_ns);
    metrics.observe(HistKind::JobServiceNs, completed_ns - started_ns);
    metrics.observe(HistKind::JobTotalNs, completed_ns - job.submitted_ns);
    // Recorded before its completion line is journaled: a client that has
    // seen the line finds the result.
    shared.jobs.lock().unwrap_or_else(|e| e.into_inner()).states.insert(job.job, result);
    shared.journal_push(line);
    // Fold this service time into the Retry-After estimate (integer
    // EWMA, alpha = 1/8; first sample seeds it).
    let service = completed_ns - started_ns;
    let prev = shared.service_ewma_ns.load(Ordering::Relaxed);
    let next = if prev == 0 { service } else { prev - prev / 8 + service / 8 };
    shared.service_ewma_ns.store(next, Ordering::Relaxed);
    JobRun::Completed
}

/// Kernels the runtime's granularity controller currently keeps on the
/// PPE, in [`KernelKind::ALL`] order.
fn throttled_kernels(rt: &MgpsRuntime) -> Vec<KernelKind> {
    KernelKind::ALL.into_iter().filter(|k| rt.is_throttled(*k)).collect()
}

/// One telemetry tick: snapshot delta, new trace events, health rules,
/// publish `LiveStatus`.
fn telemetry_tick(
    shared: &Shared,
    rt: &MgpsRuntime,
    tracer: &Tracer,
    source: &mut SnapshotSource,
    detector: &mut HealthDetector,
    cursors: &mut Vec<usize>,
    starve: &mut BTreeMap<usize, (usize, u64)>,
) {
    let now_ns = tracer.now_ns();
    let delta = source.delta();
    let trace = tracer.drain_since(cursors);

    let mut lines: Vec<String> = Vec::new();
    let mut fired: Vec<HealthEvent> = Vec::new();
    for ev in trace.threads.iter().flat_map(|t| &t.events) {
        if let EventKind::DegreeDecision { degree, waiting, n_spes, window, window_fill, u } =
            ev.kind
        {
            let d = LiveDecision {
                at_ns: ev.at_ns,
                u,
                t: waiting,
                degree,
                n_spes,
                window,
                window_fill,
            };
            lines.push(d.to_json_line());
            if let Some(h) = detector.observe_decision(&d) {
                lines.push(h.to_json_line());
                fired.push(h);
            }
        }
    }
    for h in detector.observe_delta(now_ns, &delta, trace.dropped_events()) {
        lines.push(h.to_json_line());
        fired.push(h);
    }

    // Per-tenant gauges and the starvation signal come off the queue lock
    // together, so a tenant's gauge row and its starvation verdict always
    // describe the same instant. A tenant "starved this window" if its
    // queue was nonempty at this tick *and* the previous one with zero
    // dispatches in between; the detector latches after k such windows.
    let (tenant_jobs, starved) = {
        let q = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let tenant_jobs: Vec<(usize, [u64; 4])> = q
            .stats
            .iter()
            .map(|(&t, st)| (t, [st.admitted, st.rejected, st.shed, st.inflight]))
            .collect();
        let mut starved: Vec<usize> = Vec::new();
        let mut next: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
        for (t, depth) in q.drr.tenant_lens() {
            let dispatched = q.stats.get(&t).map(|st| st.dispatched).unwrap_or(0);
            if let Some(&(prev_depth, prev_dispatched)) = starve.get(&t) {
                if prev_depth > 0 && prev_dispatched == dispatched {
                    starved.push(t);
                }
            }
            next.insert(t, (depth, dispatched));
        }
        *starve = next;
        (tenant_jobs, starved)
    };
    if let Some(h) = detector.observe_tenant_starvation(now_ns, &starved) {
        lines.push(h.to_json_line());
        fired.push(h);
    }

    let status = LiveStatus {
        epoch: source.epoch(),
        uptime_ns: now_ns,
        metrics: source.last().clone(),
        spe_busy: rt.spe_busy(),
        healthy_spes: rt.healthy_spes(),
        degree: rt.current_degree(),
        pending_offloads: rt.pending_offloads(),
        gate_contention_ns: rt.gate_contention_ns(),
        dropped_events: trace.dropped_events(),
        throttled_kernels: throttled_kernels(rt),
        active_alarms: detector.active_alarms(),
        tenant_jobs,
    };

    shared.journal_extend(lines);
    if !fired.is_empty() {
        shared.health.lock().unwrap_or_else(|e| e.into_inner()).extend(fired);
    }
    *shared.status.lock().unwrap_or_else(|e| e.into_inner()) = Some(status);
}

/// Size of the per-connection request buffer: a request's head and body
/// must fit in it together.
const REQUEST_BUF: usize = 4096;

/// How long a client has, from its accept, to send its whole request;
/// past it the request is answered `408`.
const READ_TIMEOUT: Duration = Duration::from_millis(500);

/// Threads accepting connections, each serving inline the requests it
/// accepts. Spawning a thread per connection cost several times the tens
/// of µs a `202` takes. Four is twice the two cores the service is tuned
/// on: two acceptors can serve while two more sit in a [`FIRST_WAIT`] on
/// clients still sending, and an idle acceptor is only a parked thread.
pub const ACCEPTORS: usize = 4;

/// How long an acceptor waits for a request to arrive in full before it
/// hands the connection to a thread of its own. A loopback client's
/// request is all there within µs even when it is sent in several
/// writes; a silent or slow client holds an acceptor no longer than this.
pub const FIRST_WAIT: Duration = Duration::from_millis(5);

/// An HTTP status code with its reason phrase, as the status line spells it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Status(&'static str);

impl Status {
    const BAD_REQUEST: Status = Status("400 Bad Request");
    const TIMEOUT: Status = Status("408 Request Timeout");
    const BODY_TOO_LARGE: Status = Status("413 Content Too Large");
    const HEAD_TOO_LARGE: Status = Status("431 Request Header Fields Too Large");
}

/// A parsed request head.
#[derive(Debug, PartialEq, Eq)]
struct Request {
    method: String,
    path: String,
    /// Where the body lies in the request buffer: `Content-Length` bytes
    /// after the blank line, never past [`REQUEST_BUF`].
    body: Range<usize>,
}

/// Offset of the blank line that ends a request head, if it has arrived.
fn blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parse what has been read of one request (everything up to the blank
/// line at least, unless the peer never sent one). Pure and total: any
/// byte string yields a [`Request`] or the 4xx that says what is wrong
/// with it. Only the request line and `Content-Length` are interpreted.
fn parse_request(buf: &[u8]) -> Result<Request, Status> {
    let Some(head_len) = blank_line(buf) else {
        // No blank line in a full buffer: the head is too long. In a
        // short one: the peer stopped sending mid-head.
        let full = buf.len() >= REQUEST_BUF;
        return Err(if full { Status::HEAD_TOO_LARGE } else { Status::BAD_REQUEST });
    };
    let head = std::str::from_utf8(&buf[..head_len]).map_err(|_| Status::BAD_REQUEST)?;
    let mut lines = head.split("\r\n");
    let mut first = lines.next().unwrap_or("").split(' ');
    let (Some(method), Some(path), Some(version), None) =
        (first.next(), first.next(), first.next(), first.next())
    else {
        return Err(Status::BAD_REQUEST);
    };
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
        return Err(Status::BAD_REQUEST);
    }
    let mut content_length = 0usize;
    for line in lines {
        let Some((k, v)) = line.split_once(':') else { continue };
        if k.eq_ignore_ascii_case("content-length") {
            content_length = v.trim().parse().map_err(|_| Status::BAD_REQUEST)?;
        }
    }
    let start = head_len + 4;
    let end = start
        .checked_add(content_length)
        .filter(|&end| end <= REQUEST_BUF)
        .ok_or(Status::BODY_TOO_LARGE)?;
    Ok(Request { method: method.to_string(), path: path.to_string(), body: start..end })
}

/// One `read` into `dst` that gives up at `until`, with its failures
/// sorted: a timeout is the client's fault and gets `408`; any other error
/// means the peer is gone and there is nobody to answer (`None`).
fn read_by(
    stream: &mut TcpStream,
    dst: &mut [u8],
    until: Instant,
) -> Result<usize, Option<Status>> {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    let left = until.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(Some(Status::TIMEOUT));
    }
    stream.set_read_timeout(Some(left)).map_err(|_| None)?;
    stream
        .read(dst)
        .map_err(|e| matches!(e.kind(), TimedOut | WouldBlock).then_some(Status::TIMEOUT))
}

/// Accept connections until the stop flip, serving each request on this
/// thread. Only two kinds of connection get a thread of their own: an
/// `/events` tail, which lives as long as its connection, and a request
/// not in full within [`FIRST_WAIT`], whose thread finishes the read from
/// the bytes already read. The connection accepted after the stop flip —
/// the lifetime thread's wake-up or a client's — gets no answer.
fn accept_loop<'scope, 'env>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    listener: &'env TcpListener,
    shared: &'env Shared,
) {
    loop {
        let accepted = listener.accept();
        if shared.stopped() {
            break;
        }
        let mut conn = match accepted {
            Ok((stream, _)) => Conn::new(stream),
            Err(_) => {
                // xtask-allow: request-sleep — back-off on a failing accept (fd exhaustion), so a persistent error cannot spin
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        match conn.read_request() {
            Err(Some(Status::TIMEOUT)) => {
                s.spawn(move || {
                    conn.until = conn.accepted + READ_TIMEOUT;
                    let read = conn.read_request();
                    if let Some(tail) = handle_connection(conn, read, shared) {
                        stream_events(tail, shared);
                    }
                });
            }
            read => {
                if let Some(tail) = handle_connection(conn, read, shared) {
                    s.spawn(move || stream_events(tail, shared));
                }
            }
        }
    }
}

/// One accepted connection and what has been read of its request so far.
/// A handoff moves it whole, so no byte the acceptor read is lost.
struct Conn {
    stream: TcpStream,
    accepted: Instant,
    /// When reading gives up: [`FIRST_WAIT`] after `accepted` on an
    /// acceptor, [`READ_TIMEOUT`] after it once handed off.
    until: Instant,
    buf: [u8; REQUEST_BUF],
    len: usize,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let accepted = Instant::now();
        Conn { stream, accepted, until: accepted + FIRST_WAIT, buf: [0; REQUEST_BUF], len: 0 }
    }

    /// Read the rest of the request: the head up to the blank line, then
    /// the body `Content-Length` announces. After a timeout it can be
    /// called again with a later `until` and goes on where it stopped.
    fn read_request(&mut self) -> Result<Request, Option<Status>> {
        while self.len < REQUEST_BUF && blank_line(&self.buf[..self.len]).is_none() {
            match read_by(&mut self.stream, &mut self.buf[self.len..], self.until)? {
                0 => break,
                n => self.len += n,
            }
        }
        let request = parse_request(&self.buf[..self.len]).map_err(Some)?;
        while self.len < request.body.end {
            let rest = &mut self.buf[self.len..request.body.end];
            match read_by(&mut self.stream, rest, self.until)? {
                // The peer closed short of its own Content-Length.
                0 => return Err(Some(Status::BAD_REQUEST)),
                n => self.len += n,
            }
        }
        Ok(request)
    }
}

/// Answer what [`Conn::read_request`] made of `conn`. Request parsing is
/// deliberately minimal: the first line's method and path decide
/// everything; only `POST /jobs` uses the body. A request that cannot be
/// read is answered with the 4xx that says why, not hung up on. An
/// `/events` request is not answered here: its stream comes back for the
/// caller to tail.
fn handle_connection(
    conn: Conn,
    read: Result<Request, Option<Status>>,
    shared: &Shared,
) -> Option<TcpStream> {
    let Conn { mut stream, mut buf, until, .. } = conn;
    let request = match read {
        Ok(request) => request,
        Err(Some(status)) => {
            respond(&mut stream, status.0, "text/plain", "request not understood\n");
            // Whatever else the client sent is still unread, and closing
            // on unread input resets the connection, which can take the
            // answer with it: finish sending, then read the rest off —
            // until the read deadline, so a bad request holds an acceptor
            // no longer than a good one, and not past shutdown (the scope
            // joins this thread).
            let _ = stream.shutdown(std::net::Shutdown::Write);
            while !shared.stopped()
                && matches!(read_by(&mut stream, &mut buf, until), Ok(n) if n > 0)
            {}
            return None;
        }
        Err(None) => return None,
    };
    let body = String::from_utf8_lossy(&buf[request.body.clone()]);
    let id = request.path.strip_prefix("/jobs/");

    match (request.method.as_str(), if id.is_some() { "/jobs/<id>" } else { &request.path }) {
        ("GET", "/metrics") => {
            let status = shared.status.lock().unwrap_or_else(|e| e.into_inner()).clone();
            match status {
                Some(st) => respond(
                    &mut stream,
                    "200 OK",
                    "text/plain; version=0.0.4",
                    &prometheus_text(&st),
                ),
                None => respond(&mut stream, "503 Service Unavailable", "text/plain", "warming up\n"),
            }
        }
        ("GET", "/health") => {
            let status = shared.status.lock().unwrap_or_else(|e| e.into_inner()).clone();
            match status {
                Some(st) => {
                    let mut body = health_json(&st).to_json();
                    body.push('\n');
                    respond(&mut stream, "200 OK", "application/json", &body);
                }
                None => respond(&mut stream, "503 Service Unavailable", "text/plain", "warming up\n"),
            }
        }
        ("GET", "/events") => return Some(stream),
        ("POST", "/jobs") => handle_job_post(&mut stream, shared, &body),
        ("GET", "/jobs/<id>") => handle_job_get(&mut stream, shared, id.unwrap_or_default()),
        // Known path, wrong verb: say which verb works instead of
        // pretending the path does not exist.
        (_, "/metrics" | "/health" | "/events" | "/jobs/<id>") => respond_with(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            &[("Allow", "GET")],
            "method not allowed; this path serves GET\n",
        ),
        (_, "/jobs") => respond_with(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            &[("Allow", "POST")],
            "method not allowed; submit jobs with POST\n",
        ),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "try /metrics, /health, /events, /jobs, /jobs/<id>\n"),
    }
    None
}

/// `POST /jobs`: put the parsed spec to [`Shared::admit`] and render the
/// verdict. A refusal carries a computed `Retry-After` (the queue's
/// estimated drain time).
fn handle_job_post(stream: &mut TcpStream, shared: &Shared, body: &str) {
    let spec = JobSpec::parse(body);
    match shared.admit(spec) {
        Verdict::Admitted { job, depth, cap } => {
            let mut body = Value::object(vec![
                ("status", "admitted".into()),
                ("job", job.into()),
                ("tenant", spec.tenant.into()),
                ("queue_depth", depth.into()),
                ("queue_cap", cap.into()),
            ])
            .to_json();
            body.push('\n');
            respond(stream, "202 Accepted", "application/json", &body);
        }
        Verdict::Full { job, depth, cap, retry_after } => {
            let mut body = Value::object(vec![
                ("status", "rejected".into()),
                ("job", job.into()),
                ("queue_depth", depth.into()),
                ("queue_cap", cap.into()),
                ("retry_after_s", retry_after.into()),
            ])
            .to_json();
            body.push('\n');
            let retry_after = retry_after.to_string();
            respond_with(
                stream,
                "429 Too Many Requests",
                "application/json",
                &[("Retry-After", retry_after.as_str())],
                &body,
            );
        }
        Verdict::Draining => {
            let mut body =
                Value::object(vec![("status", "draining".into())]).to_json();
            body.push('\n');
            respond(stream, "503 Service Unavailable", "application/json", &body);
        }
    }
}

/// `GET /jobs/<id>`: the job's state and, once it completed, the lnL of
/// each replicate scored, in bootstrap order (a prefix of the replicates
/// if an off-load panicked). `404` for an id no admitted job holds.
fn handle_job_get(stream: &mut TcpStream, shared: &Shared, id: &str) {
    let body = id.parse::<u64>().ok().and_then(|job| {
        let q = shared.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let state = q.states.get(&job)?;
        let mut members = vec![("job", job.into()), ("state", state.name().into())];
        if let JobState::Completed(lnls) = state {
            members.push(("lnl", Value::Array(lnls.iter().map(|&lnl| lnl.into()).collect())));
        }
        Some(Value::object(members).to_json() + "\n")
    });
    match body {
        Some(body) => respond(stream, "200 OK", "application/json", &body),
        None => respond(stream, "404 Not Found", "text/plain", "no such job\n"),
    }
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    respond_with(stream, status, content_type, &[], body);
}

fn respond_with(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let mut header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (k, v) in extra_headers {
        header.push_str(&format!("{k}: {v}\r\n"));
    }
    header.push_str("Connection: close\r\n\r\n");
    let mut w = BufWriter::new(stream);
    let _ = w.write_all(header.as_bytes());
    let _ = w.write_all(body.as_bytes());
    let _ = w.flush();
}

/// `/events`: replay the journal backlog, then tail it until shutdown or
/// the client hangs up.
///
/// Every line is flushed as soon as it is written, so a tail sees each
/// decision the moment the journal records it rather than whenever a
/// buffer happens to fill. A mid-stream disconnect (EPIPE / connection
/// reset) only ends *this* connection thread: the error is swallowed
/// here, the telemetry thread never notices, and the service still shuts
/// down cleanly with a checker-valid log.
fn stream_events(stream: TcpStream, shared: &Shared) {
    let mut w = BufWriter::new(stream);
    let header = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n";
    if w.write_all(header.as_bytes()).is_err() {
        return;
    }
    if w.flush().is_err() {
        return;
    }
    let mut sent = 0usize;
    loop {
        let backlog: Vec<String> = {
            let mut journal = shared.journal.lock().unwrap_or_else(|e| e.into_inner());
            while journal.len() <= sent && !shared.stopped() {
                journal = shared.journal_grew.wait(journal).unwrap_or_else(|e| e.into_inner());
            }
            journal[sent.min(journal.len())..].to_vec()
        };
        if backlog.is_empty() {
            // Stopped, and everything the journal ever held is sent.
            return;
        }
        for line in &backlog {
            if w.write_all(line.as_bytes()).is_err()
                || w.write_all(b"\n").is_err()
                || w.flush().is_err()
            {
                return;
            }
        }
        sent += backlog.len();
    }
}

// ---------------------------------------------------------------------------
// `multigrain top` — the scrape-side terminal dashboard.
// ---------------------------------------------------------------------------

/// Construction parameters for the `top` dashboard.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Address of a running service, `host:port` (scheme optional).
    pub url: String,
    /// Frames to render before exiting; `0` runs until the scrape fails.
    pub frames: u64,
    /// Delay between frames.
    pub interval_ms: u64,
    /// Plain output: no ANSI clear between frames (for logs and CI).
    pub plain: bool,
}

/// One-shot HTTP/1.1 exchange with `addr` (`host:port`, scheme optional):
/// send `method path` with `body`, return the status code, the
/// `Retry-After` header in seconds when the server sent one, and the
/// response body. A server that accepts and never answers fails the read
/// after 5 s.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, Option<u64>, String), String> {
    let addr = addr.trim_start_matches("http://").trim_end_matches('/');
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(req.as_bytes()).map_err(|e| format!("send: {e}"))?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("read {addr}{path}: {e}"))?;
    let malformed = || format!("{addr}{path}: malformed HTTP response {raw:?}");
    let (head, payload) = raw.split_once("\r\n\r\n").ok_or_else(malformed)?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(malformed)?;
    let retry_after = lines.find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("retry-after").then(|| value.trim().parse().ok())?
    });
    Ok((status, retry_after, payload.to_string()))
}

/// Fetch `path` from `addr` over a one-shot HTTP/1.1 GET; anything but a
/// `200` is an error.
pub fn http_get(addr: &str, path: &str) -> Result<String, String> {
    match http_request(addr, "GET", path, "")? {
        (200, _, body) => Ok(body),
        (status, _, _) => Err(format!("{addr}{path}: HTTP {status}")),
    }
}

/// Cross-frame accumulation for the `top` renderer: busy samples for the
/// utilization bars, and the previous frame's histogram buckets so the
/// latency columns show quantiles of *this interval's* completions.
#[derive(Default)]
struct TopState {
    /// Busy samples per SPE index (utilization = busy / total).
    busy_samples: Vec<u64>,
    /// Frames rendered so far.
    total_samples: u64,
    /// Previous frame's per-bucket counts for `multigrain_task_dur_ns`.
    prev_task_buckets: Vec<u64>,
    /// Previous frame's per-bucket counts for `multigrain_job_total_ns`.
    prev_job_buckets: Vec<u64>,
}

/// Pull one `/metrics` scrape and render one frame per `cfg`, repeating.
pub fn run_top(cfg: &TopConfig) -> Result<(), String> {
    let mut frame = 0u64;
    let mut state = TopState::default();
    loop {
        let text = http_get(&cfg.url, "/metrics")?;
        let families = mgps_obs::parse_prometheus(&text)?;
        if !cfg.plain {
            // Clear screen + home, the ANSI way `top` does it.
            print!("\u{1b}[2J\u{1b}[H");
        }
        print!("{}", frame_text(&families, &cfg.url, &mut state));
        frame += 1;
        if cfg.frames != 0 && frame >= cfg.frames {
            return Ok(());
        }
        // xtask-allow: request-sleep — the `top` client's refresh interval; nothing in the service waits on it
        std::thread::sleep(Duration::from_millis(cfg.interval_ms.max(50)));
    }
}

fn gauge(families: &[mgps_obs::PromFamily], name: &str) -> Option<f64> {
    families
        .iter()
        .find(|f| f.name == name)
        .and_then(|f| f.samples.first())
        .map(|s| s.value)
}

/// Per-bucket (non-cumulative) counts of one histogram family in a
/// scrape, reconstructed from the cumulative `le`-labeled samples. The
/// exporter elides zero buckets, so missing `le`s contribute nothing.
fn scrape_hist_buckets(families: &[mgps_obs::PromFamily], name: &str) -> Vec<u64> {
    let mut buckets = vec![0u64; HIST_BUCKETS];
    let Some(f) = families.iter().find(|f| f.name == name && f.kind == "histogram") else {
        return buckets;
    };
    let mut prev_cum = 0u64;
    for s in f.samples.iter().filter(|s| s.name.ends_with("_bucket")) {
        let Some(le) = s.label("le") else { continue };
        if le == "+Inf" {
            continue;
        }
        let Ok(le) = le.parse::<u64>() else { continue };
        // `le` is `2^i - 1` (bucket i holds values of bit length i).
        let i = hist_bucket(le);
        let cum = s.value as u64;
        buckets[i] = cum.saturating_sub(prev_cum);
        prev_cum = cum;
    }
    buckets
}

/// `p50 .. p99 ..` of this frame's histogram delta; `n/a` (never NaN)
/// when nothing landed in the interval.
fn quantile_cols(delta: &[u64]) -> String {
    let fmt = |q: f64| match quantile_from_log2_buckets(delta, q) {
        Some(ns) if ns >= 1e9 => format!("{:.2}s", ns / 1e9),
        Some(ns) if ns >= 1e6 => format!("{:.1}ms", ns / 1e6),
        Some(ns) if ns >= 1e3 => format!("{:.1}us", ns / 1e3),
        Some(ns) => format!("{ns:.0}ns"),
        None => "n/a".to_string(),
    };
    format!("p50 {} p99 {}", fmt(0.5), fmt(0.99))
}

/// Render one `top` frame from a `/metrics` scrape. Total function of its
/// inputs: a zero-duration or zero-busy scrape (a run whose very first
/// off-load faulted, an idle service, a scrape with no SPE samples at all)
/// renders zeros and empty bars rather than dividing by zero or indexing
/// out of range.
fn frame_text(
    families: &[mgps_obs::PromFamily],
    url: &str,
    state: &mut TopState,
) -> String {
    use std::fmt::Write as _;
    let TopState { busy_samples, total_samples, prev_task_buckets, prev_job_buckets } = state;
    let mut out = String::new();
    let epoch = gauge(families, "multigrain_snapshot_epoch").unwrap_or(0.0);
    let uptime_s = gauge(families, "multigrain_uptime_ns").unwrap_or(0.0) / 1e9;
    let degree = gauge(families, "multigrain_llp_degree").unwrap_or(0.0);
    let pending = gauge(families, "multigrain_pending_offloads").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "multigrain top — {url}   epoch {epoch:.0}   uptime {uptime_s:.1}s   degree {degree:.0}   pending {pending:.0}"
    );

    let mut spes: Vec<(usize, bool)> = families
        .iter()
        .find(|f| f.name == "multigrain_spe_busy")
        .map(|f| {
            f.samples
                .iter()
                .filter_map(|s| {
                    let idx: usize = s.label("spe")?.parse().ok()?;
                    Some((idx, s.value > 0.5))
                })
                .collect()
        })
        .unwrap_or_default();
    spes.sort_by_key(|&(i, _)| i);
    // Size the accumulator by the largest labeled index, not the sample
    // count — a sparse or truncated scrape must not index out of range.
    let needed = spes.iter().map(|&(i, _)| i + 1).max().unwrap_or(0);
    if busy_samples.len() < needed {
        busy_samples.resize(needed, 0);
    }
    *total_samples += 1;
    for &(i, busy) in &spes {
        if busy {
            busy_samples[i] += 1;
        }
        let util = busy_samples[i] as f64 / (*total_samples).max(1) as f64;
        let filled = ((util * 20.0).round() as usize).min(20);
        let bar: String = std::iter::repeat_n('#', filled)
            .chain(std::iter::repeat_n('-', 20 - filled))
            .collect();
        let _ = writeln!(
            out,
            " SPE {i} [{bar}] {:>3.0}%  {}",
            util * 100.0,
            if busy { "busy" } else { "idle" }
        );
    }

    let counter = |name: &str| gauge(families, name).unwrap_or(0.0);
    let _ = writeln!(
        out,
        " offloads {:.0}   completed {:.0}   llp on/off {:.0}/{:.0}   ctx switches {:.0}",
        counter("multigrain_offloads_total"),
        counter("multigrain_tasks_completed_total"),
        counter("multigrain_llp_activations_total"),
        counter("multigrain_llp_deactivations_total"),
        counter("multigrain_ctx_switch_offload_total"),
    );
    let _ = writeln!(
        out,
        " stalls: mailbox {:.0}  queue {:.0}   gate wait {:.1}ms   ring drops {:.0}",
        counter("multigrain_mailbox_stalls_total"),
        counter("multigrain_offload_queue_stalls_total"),
        counter("multigrain_gate_contention_ns") / 1e6,
        counter("multigrain_trace_dropped_events"),
    );

    // Latency quantiles of what completed since the previous frame:
    // current cumulative buckets minus the last frame's. An interval in
    // which nothing completed renders n/a, never NaN.
    let task_buckets = scrape_hist_buckets(families, "multigrain_task_dur_ns");
    let job_buckets = scrape_hist_buckets(families, "multigrain_job_total_ns");
    let delta = |cur: &[u64], prev: &[u64]| -> Vec<u64> {
        cur.iter()
            .enumerate()
            .map(|(i, &c)| c.saturating_sub(prev.get(i).copied().unwrap_or(0)))
            .collect()
    };
    let task_delta = delta(&task_buckets, prev_task_buckets);
    let job_delta = delta(&job_buckets, prev_job_buckets);
    let _ = writeln!(
        out,
        " latency (frame delta): tasks {}   jobs {}",
        quantile_cols(&task_delta),
        quantile_cols(&job_delta),
    );
    *prev_task_buckets = task_buckets;
    *prev_job_buckets = job_buckets;
    let healthy = gauge(families, "multigrain_healthy_spes").unwrap_or(spes.len() as f64);
    let _ = writeln!(
        out,
        " faults {:.0}   retries {:.0}   fallbacks {:.0}   quarantined {:.0}   healthy {healthy:.0}",
        counter("multigrain_faults_injected_total"),
        counter("multigrain_offload_retries_total"),
        counter("multigrain_ppe_fallbacks_total"),
        counter("multigrain_spe_quarantines_total") - counter("multigrain_spe_readmissions_total"),
    );

    // Per-tenant admission columns from `multigrain_tenant_jobs`. The
    // family is absent until a tenant has been seen, and a tenant's row
    // shows `n/a` for any state the scrape did not carry.
    let mut tenants: BTreeMap<usize, BTreeMap<String, f64>> = BTreeMap::new();
    if let Some(f) = families.iter().find(|f| f.name == "multigrain_tenant_jobs") {
        for s in &f.samples {
            let (Some(t), Some(st)) = (s.label("tenant"), s.label("state")) else { continue };
            let Ok(t) = t.parse::<usize>() else { continue };
            tenants.entry(t).or_default().insert(st.to_string(), s.value);
        }
    }
    if tenants.is_empty() {
        let _ = writeln!(out, " tenants: (none)");
    } else {
        let _ = writeln!(out, " tenant   admitted  rejected      shed  inflight");
        for (t, states) in &tenants {
            let col = |k: &str| {
                states.get(k).map(|v| format!("{v:.0}")).unwrap_or_else(|| "n/a".to_string())
            };
            let _ = writeln!(
                out,
                " {:>6}  {:>9} {:>9} {:>9} {:>9}",
                t,
                col("admitted"),
                col("rejected"),
                col("shed"),
                col("inflight"),
            );
        }
    }

    let alarms: Vec<String> = families
        .iter()
        .find(|f| f.name == "multigrain_alarm_active")
        .map(|f| {
            f.samples
                .iter()
                .filter(|s| s.value > 0.5)
                .filter_map(|s| s.label("alarm").map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    if alarms.is_empty() {
        let _ = writeln!(out, " alarms: (none)");
    } else {
        let _ = writeln!(out, " alarms: {}", alarms.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A parse outcome is a request whose body lies inside the buffer, or
    /// a client error.
    fn well_formed(buf: &[u8], parsed: Result<Request, Status>) -> Result<(), String> {
        match parsed {
            Ok(r) if r.body.start <= r.body.end
                && r.body.start <= buf.len()
                && r.body.end <= REQUEST_BUF
                && !r.method.is_empty()
                && !r.path.is_empty() => Ok(()),
            Ok(r) => Err(format!("ill-formed request {r:?}")),
            Err(Status(line)) if line.starts_with('4') => Ok(()),
            Err(Status(line)) => Err(format!("not a client error: {line}")),
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_parse_to_a_request_or_a_4xx(
            bytes in prop::collection::vec(0u8..=255, 0..=REQUEST_BUF),
        ) {
            let parsed = parse_request(&bytes);
            prop_assert!(well_formed(&bytes, parsed).is_ok());
        }

        /// A valid request, then damaged: an arbitrary `Content-Length`,
        /// one byte overwritten, the tail cut off. Reaches the branches
        /// random bytes almost never do.
        #[test]
        fn damaged_requests_parse_to_a_request_or_a_4xx(
            verb in 0usize..4,
            content_length in 0u64..10_000,
            hit_at in 0usize..200,
            hit_with in 0u8..=255,
            keep in 0usize..200,
        ) {
            let verb = ["GET", "POST", "", "get it"][verb];
            let mut bytes = format!(
                "{verb} /jobs HTTP/1.1\r\nHost: h\r\nContent-Length: {content_length}\r\n\r\ntaxa=8"
            )
            .into_bytes();
            if let Some(b) = bytes.get_mut(hit_at) {
                *b = hit_with;
            }
            bytes.truncate(keep);
            let parsed = parse_request(&bytes);
            prop_assert!(well_formed(&bytes, parsed).is_ok());
        }
    }

    #[test]
    fn parse_request_names_what_is_wrong() {
        let post = b"POST /jobs HTTP/1.1\r\nHost: h\r\ncontent-length: 6\r\n\r\ntaxa=8";
        let head = post.len() - 6;
        assert_eq!(
            parse_request(post),
            Ok(Request { method: "POST".into(), path: "/jobs".into(), body: head..head + 6 })
        );
        // The body need not have arrived yet for the head to parse.
        assert_eq!(parse_request(&post[..head]).map(|r| r.body), Ok(head..head + 6));
        assert_eq!(parse_request(b"GET /health HTTP/1.1\r\n\r\n").map(|r| r.body), Ok(24..24));

        assert_eq!(parse_request(&[b'a'; REQUEST_BUF]), Err(Status::HEAD_TOO_LARGE));
        assert_eq!(parse_request(b"GET /health HTTP/1.1\r\nHost"), Err(Status::BAD_REQUEST));
        assert_eq!(
            parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 5000\r\n\r\n"),
            Err(Status::BODY_TOO_LARGE)
        );
        assert_eq!(
            parse_request(b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n"),
            Err(Status::BAD_REQUEST)
        );
        for line in ["", "GET", "GET /health", "GET /health FTP/1", "GET  /health HTTP/1.1", "a b c d"] {
            let raw = format!("{line}\r\n\r\n");
            assert_eq!(parse_request(raw.as_bytes()), Err(Status::BAD_REQUEST), "{line:?}");
        }
    }

    // -----------------------------------------------------------------
    // The wake contract, stressed: the serve worker loop minus the
    // runtime, many rounds over real threads. Nothing here sleeps to
    // "let a thread get there"; a lost wake-up shows as a worker that
    // never exits, which the watchdog turns into a failure.
    // -----------------------------------------------------------------

    fn test_shared(job_queue: usize, faults: Option<&str>) -> Shared {
        let cfg = ServeConfig {
            job_queue,
            faults: faults.map(|spec| FaultPlan::parse(spec).expect("fault spec")),
            ..ServeConfig::default()
        };
        Shared::new(&cfg, &Tracer::new(cfg.ring_capacity))
    }

    /// Run `scenario` on its own thread and fail, rather than hang, if it
    /// is not done within `limit`.
    fn within(limit: Duration, scenario: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            scenario();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => runner.join().expect("scenario thread"),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("a waiter was never woken: scenario still running after {limit:?}")
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("scenario panicked"))
            }
        }
    }

    /// `(job, attempt)` of every pop, in pop order.
    type Ran = Mutex<Vec<(u64, u64)>>;

    /// What a serve worker does, with "run the job" replaced by a record:
    /// pop; on a job, finish it (or, for `fault_first`, fail its first
    /// attempt into the retry ladder); idle on `work`; exit when drained.
    fn worker(shared: &Shared, ran: &Ran, fault_first: bool) {
        loop {
            match shared.pop_job() {
                Popped::Job(job, started_ns) => {
                    ran.lock().unwrap().push((job.job, job.attempt));
                    if fault_first && job.attempt == 0 {
                        shared.retry_or_poison(job, started_ns);
                    } else {
                        shared.leave_flight(job.spec.tenant);
                    }
                }
                Popped::Drained => return,
                Popped::Idle => shared.wait_for_work(),
            }
        }
    }

    fn admit_one(shared: &Shared, tenant: usize) -> Option<u64> {
        admit_spec(shared, JobSpec { tenant, ..JobSpec::parse("") })
    }

    fn admit_spec(shared: &Shared, spec: JobSpec) -> Option<u64> {
        match shared.admit(spec) {
            Verdict::Admitted { job, .. } => Some(job),
            Verdict::Full { .. } => panic!("the test queue is sized to hold every job"),
            Verdict::Draining => None,
        }
    }

    #[test]
    fn admissions_racing_idle_workers_are_each_popped_exactly_once() {
        within(Duration::from_secs(30), || {
            for round in 0..300usize {
                let (workers, admitters, per_admitter) = (1 + round % 4, 1 + round % 3, 8);
                let shared = test_shared(admitters * per_admitter, None);
                let ran = Ran::default();
                let mut admitted = std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| worker(&shared, &ran, false));
                    }
                    let handles: Vec<_> = (0..admitters)
                        .map(|a| {
                            let shared = &shared;
                            s.spawn(move || {
                                let mut mine = Vec::new();
                                for _ in 0..per_admitter {
                                    mine.extend(admit_one(shared, a));
                                    // Odd rounds wait for the queue to run
                                    // dry, so the next admission finds the
                                    // workers idle (or about to be) again.
                                    while round % 2 == 1
                                        && !shared.jobs.lock().unwrap().drr.is_empty()
                                    {
                                        std::thread::yield_now();
                                    }
                                }
                                mine
                            })
                        })
                        .collect();
                    let admitted: Vec<u64> =
                        handles.into_iter().flat_map(|h| h.join().expect("admitter")).collect();
                    // Returns only once every admitted job is terminal; the
                    // scope then joins the workers, i.e. every one exited.
                    shared.drain_then_stop();
                    admitted
                });
                let mut popped: Vec<u64> = ran.lock().unwrap().iter().map(|&(j, _)| j).collect();
                popped.sort_unstable();
                admitted.sort_unstable();
                assert_eq!(popped, admitted, "round {round}: every admitted job popped once");
                assert!(admit_one(&shared, 0).is_none(), "a stopped service admits nothing");
            }
        });
    }

    #[test]
    fn a_drain_flip_racing_retry_requeues_strands_no_job_and_no_worker() {
        within(Duration::from_secs(30), || {
            for round in 0..300usize {
                let (workers, jobs) = (1 + round % 4, 1 + round % 5);
                let shared = test_shared(jobs, Some("seed=3,jobr=1,backoff=1000"));
                let ran = Ran::default();
                let admitted: Vec<u64> = std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| worker(&shared, &ran, true));
                    }
                    let admitted = (0..jobs).filter_map(|t| admit_one(&shared, t % 2)).collect();
                    // The flip lands while first attempts are failing into
                    // requeues and idle workers are being woken for them.
                    shared.drain_then_stop();
                    let q = shared.jobs.lock().unwrap();
                    assert_eq!((q.drr.len(), q.in_flight), (0, 0), "round {round}: stop before dry");
                    admitted
                });
                let mut popped = ran.lock().unwrap().clone();
                popped.sort_unstable();
                let mut expected: Vec<(u64, u64)> =
                    admitted.iter().flat_map(|&j| [(j, 0), (j, 1)]).collect();
                expected.sort_unstable();
                assert_eq!(popped, expected, "round {round}: each attempt popped exactly once");
            }
        });
    }

    #[test]
    fn a_drain_whose_last_queued_jobs_are_shed_not_run_still_ends() {
        within(Duration::from_secs(30), || {
            for round in 0..300usize {
                let (workers, expired) = (1 + round % 3, 1 + round % 4);
                let shared = test_shared(1 + expired, None);
                let ran = Ran::default();
                // One job to run, and behind it jobs whose deadline has
                // passed by the time a worker reaches them: the pop that
                // sheds them starts nothing, so no `leave_flight` follows
                // it, and it alone can tell the drain the queue is dry.
                let live = admit_one(&shared, 0).expect("not draining yet");
                for _ in 0..expired {
                    admit_spec(&shared, JobSpec { deadline_ns: 1, ..JobSpec::parse("") });
                }
                // Workers start only now, so the drain flip is (nearly
                // always) in place before the shedding pop.
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| worker(&shared, &ran, false));
                    }
                    shared.drain_then_stop();
                });
                let shed = shared.jobs.lock().unwrap().stats[&0].shed as usize;
                let ran = ran.lock().unwrap();
                assert!(ran.contains(&(live, 0)), "round {round}: the live job never ran");
                assert_eq!(ran.len() + shed, 1 + expired, "round {round}: run or shed, once");
            }
        });
    }

    #[test]
    fn pop_job_dispatches_in_drr_order_and_journals_a_head_shed_before_the_next_start() {
        let cfg = ServeConfig { job_queue: 16, tenant_weights: vec![3, 1], ..ServeConfig::default() };
        let shared = Shared::new(&cfg, &Tracer::new(cfg.ring_capacity));
        // Tenant 0's first job expires at once; the rest carry no deadline.
        let expired = admit_spec(&shared, JobSpec { deadline_ns: 1, ..JobSpec::parse("") })
            .expect("not draining");
        let zero: Vec<u64> = (0..4).filter_map(|_| admit_one(&shared, 0)).collect();
        let one: Vec<u64> = (0..3).filter_map(|_| admit_one(&shared, 1)).collect();
        let mut popped = Vec::new();
        while let Popped::Job(job, _) = shared.pop_job() {
            popped.push(job.job);
            shared.leave_flight(job.spec.tenant);
        }
        // Weights 3:1 — three of tenant 0, one of tenant 1, tenant 0's
        // last, then tenant 1 alone; the shed consumed no deficit.
        let want = [zero[0], zero[1], zero[2], one[0], zero[3], one[1], one[2]];
        assert_eq!(popped, want);
        let q = shared.jobs.lock().unwrap();
        assert_eq!((q.stats[&0].shed, q.stats[&0].dispatched, q.stats[&1].dispatched), (1, 4, 3));
        assert!(q.quiescent());
        drop(q);
        let journal = shared.journal.lock().unwrap();
        let shed = journal.iter().position(|l| l.contains("\"job_shed\""));
        let first_start = journal.iter().position(|l| l.contains("\"job_started\""));
        assert!(shed < first_start, "the shed is journaled before the next start");
        assert!(journal[shed.unwrap()].contains(&format!("\"job\":{expired},")));
        let started: Vec<&String> = journal.iter().filter(|l| l.contains("\"job_started\"")).collect();
        for (line, job) in started.iter().zip(want) {
            assert!(line.contains(&format!("\"job\":{job},")), "{line}");
        }
    }

    #[test]
    fn top_frame_survives_a_zero_duration_scrape() {
        // A service scraped before any work ran (or whose very first
        // off-load faulted): every gauge zero, every SPE idle.
        let scrape = "\
# TYPE multigrain_spe_busy gauge
multigrain_spe_busy{spe=\"0\"} 0
multigrain_spe_busy{spe=\"1\"} 0
# TYPE multigrain_snapshot_epoch gauge
multigrain_snapshot_epoch 0
# TYPE multigrain_uptime_ns gauge
multigrain_uptime_ns 0
";
        let families = mgps_obs::parse_prometheus(scrape).unwrap();
        let mut state = TopState::default();
        let frame = frame_text(&families, "h:1", &mut state);
        assert!(frame.contains("epoch 0"));
        assert!(frame.contains("SPE 0 [--------------------]   0%  idle"));
        assert!(frame.contains("offloads 0"));
        assert!(frame.contains("healthy 2"), "absent gauge falls back to the SPE count");
        assert!(frame.contains("alarms: (none)"));
        assert!(
            frame.contains("tasks p50 n/a p99 n/a"),
            "no histogram at all renders n/a latency columns: {frame}"
        );
    }

    #[test]
    fn top_frame_survives_sparse_and_empty_spe_samples() {
        // No SPE family at all.
        let families = mgps_obs::parse_prometheus("# TYPE multigrain_llp_degree gauge\nmultigrain_llp_degree 1\n").unwrap();
        let mut state = TopState::default();
        let frame = frame_text(&families, "h:1", &mut state);
        assert!(frame.contains("degree 1"));
        // A sparse scrape whose only sample has a high index must size the
        // accumulator by index, not sample count.
        let sparse = "# TYPE multigrain_spe_busy gauge\nmultigrain_spe_busy{spe=\"5\"} 1\n";
        let families = mgps_obs::parse_prometheus(sparse).unwrap();
        let frame = frame_text(&families, "h:1", &mut state);
        assert!(frame.contains("SPE 5"));
        assert_eq!(state.busy_samples.len(), 6);
    }

    #[test]
    fn top_frame_reports_fault_plane_activity() {
        let scrape = "\
# TYPE multigrain_faults_injected_total counter
multigrain_faults_injected_total 7
# TYPE multigrain_offload_retries_total counter
multigrain_offload_retries_total 5
# TYPE multigrain_ppe_fallbacks_total counter
multigrain_ppe_fallbacks_total 2
# TYPE multigrain_spe_quarantines_total counter
multigrain_spe_quarantines_total 3
# TYPE multigrain_spe_readmissions_total counter
multigrain_spe_readmissions_total 1
# TYPE multigrain_healthy_spes gauge
multigrain_healthy_spes 6
# TYPE multigrain_alarm_active gauge
multigrain_alarm_active{alarm=\"quarantine_storm\"} 1
";
        let families = mgps_obs::parse_prometheus(scrape).unwrap();
        let mut state = TopState::default();
        let frame = frame_text(&families, "h:1", &mut state);
        assert!(frame.contains("faults 7   retries 5   fallbacks 2   quarantined 2   healthy 6"));
        assert!(frame.contains("alarms: quarantine_storm"));
    }

    #[test]
    fn top_latency_columns_come_from_frame_deltas() {
        // Frame 1: 4 jobs completed so far, all in the [2^12, 2^13)
        // bucket (le 8191); 2 tasks in [2^10, 2^11) (le 2047).
        let first = "\
# TYPE multigrain_task_dur_ns histogram
multigrain_task_dur_ns_bucket{le=\"2047\"} 2
multigrain_task_dur_ns_bucket{le=\"+Inf\"} 2
multigrain_task_dur_ns_sum 3000
multigrain_task_dur_ns_count 2
# TYPE multigrain_job_total_ns histogram
multigrain_job_total_ns_bucket{le=\"8191\"} 4
multigrain_job_total_ns_bucket{le=\"+Inf\"} 4
multigrain_job_total_ns_sum 20000
multigrain_job_total_ns_count 4
";
        // Frame 2: no new tasks; 4 new jobs, all in [2^20, 2^21)
        // (le 2097151) — the delta's quantiles must reflect ONLY the new
        // jobs, not the cumulative mix.
        let second = "\
# TYPE multigrain_task_dur_ns histogram
multigrain_task_dur_ns_bucket{le=\"2047\"} 2
multigrain_task_dur_ns_bucket{le=\"+Inf\"} 2
multigrain_task_dur_ns_sum 3000
multigrain_task_dur_ns_count 2
# TYPE multigrain_job_total_ns histogram
multigrain_job_total_ns_bucket{le=\"8191\"} 4
multigrain_job_total_ns_bucket{le=\"2097151\"} 8
multigrain_job_total_ns_bucket{le=\"+Inf\"} 8
multigrain_job_total_ns_sum 6020000
multigrain_job_total_ns_count 8
";
        let mut state = TopState::default();
        let frame1 = frame_text(&mgps_obs::parse_prometheus(first).unwrap(), "h:1", &mut state);
        // First frame deltas against zero: the lifetime quantiles.
        assert!(frame1.contains("tasks p50 1."), "first-frame task p50 in [1024, 2048): {frame1}");
        assert!(frame1.contains("jobs p50 5.6us"), "first-frame job p50 in [4096, 8192): {frame1}");

        let frame2 = frame_text(&mgps_obs::parse_prometheus(second).unwrap(), "h:1", &mut state);
        // Empty task delta: n/a, never NaN.
        assert!(frame2.contains("tasks p50 n/a p99 n/a"), "{frame2}");
        // Job delta holds only the 4 new jobs in [2^20, 2^21) = ~1-2 ms.
        assert!(frame2.contains("jobs p50 1.") && frame2.contains("ms"), "{frame2}");
        assert!(!frame2.contains("NaN"));
    }

    #[test]
    fn top_tenant_columns_track_the_gauge_family_across_frames() {
        // Frame 1: the service has seen no tenant yet, so the family is
        // absent from the scrape and the section says so.
        let first = "# TYPE multigrain_llp_degree gauge\nmultigrain_llp_degree 2\n";
        let mut state = TopState::default();
        let frame1 = frame_text(&mgps_obs::parse_prometheus(first).unwrap(), "h:1", &mut state);
        assert!(frame1.contains("tenants: (none)"), "{frame1}");

        // Frame 2: two tenants appear. Tenant 7's scrape carries no
        // `shed` sample — its cell renders n/a, not 0 (never seen is not
        // the same claim as zero).
        let second = "\
# TYPE multigrain_tenant_jobs gauge
multigrain_tenant_jobs{tenant=\"0\",state=\"admitted\"} 12
multigrain_tenant_jobs{tenant=\"0\",state=\"rejected\"} 3
multigrain_tenant_jobs{tenant=\"0\",state=\"shed\"} 1
multigrain_tenant_jobs{tenant=\"0\",state=\"inflight\"} 2
multigrain_tenant_jobs{tenant=\"7\",state=\"admitted\"} 5
multigrain_tenant_jobs{tenant=\"7\",state=\"rejected\"} 0
multigrain_tenant_jobs{tenant=\"7\",state=\"inflight\"} 1
";
        let frame2 = frame_text(&mgps_obs::parse_prometheus(second).unwrap(), "h:1", &mut state);
        assert!(!frame2.contains("tenants: (none)"), "{frame2}");
        assert!(frame2.contains("tenant   admitted  rejected      shed  inflight"), "{frame2}");
        assert!(frame2.contains("0         12         3         1         2"), "{frame2}");
        assert!(frame2.contains("7          5         0       n/a         1"), "{frame2}");
    }
}
