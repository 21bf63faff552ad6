//! The virtual-SPE pool: persistent worker threads standing in for the
//! eight SPEs, with the off-load semantics of the paper's runtime.
//!
//! Every off-load begins with a *reservation*: `SpePool::reserve` takes
//! idle SPEs out of the idle set atomically, and blocks while too few are
//! idle (the EDTLP scheduler "off-loads a task immediately upon request ...
//! if no idle SPE is found, the scheduler waits until an SPE becomes
//! available"). The thread that reserved them then drives them in one of
//! two ways, and only these:
//!
//! * it runs a job on a reserved SPE *itself* (`SpePool::run_here`), as a
//!   team's master does and as a single-SPE off-load does — nothing
//!   crosses a thread, and the SPE is idle and counted again when the job
//!   returns;
//! * it hands a job to a reserved SPE's own thread (`SpePool::run_on`), the
//!   way a master signals its workers without going through the PPE.
//!
//! So an SPE thread only ever runs woken team workers. [`SpePool::offload`]
//! is the single-SPE case on its own: `reserve(1)`, then `run_here`.
//!
//! # Lent contexts
//!
//! An SPE's [`SpeContext`] is not its thread's private state: it sits in a
//! per-SPE slot that the SPE's current *owner* locks for the length of one
//! job. The owner is the SPE's thread while it runs a woken worker's job,
//! and the reserving thread while it runs one with `run_here` — same
//! mailbox events, counters and panic containment (`run_job` is the one
//! copy of that protocol) — so the reserving thread pays no thread
//! wake-up and no reply hand-over, and the SPE's thread stays parked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};

use super::sync::{Condvar, Mutex, COMMAND_QUEUE_DEPTH};

use super::context::SpeContext;
use crate::events::{EventKind, MailboxKind};
use crate::metrics::{Counter, MetricsSink, MetricsSinkExt, NopMetrics};
use crate::policy::SpeId;
use crate::tracing::Tracer;

/// A unit of work executed on a virtual SPE.
pub type Job = Box<dyn FnOnce(&mut SpeContext) + Send>;

enum WorkerMsg {
    Run(Job),
    Shutdown,
}

/// Why an off-load failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadError {
    /// The job panicked on the SPE; the panic was contained and the SPE
    /// returned to service.
    TaskPanicked,
    /// An armed fault plan killed every SPE attempt, retries are exhausted,
    /// and the recovery policy forbids the PPE fallback.
    Unrecovered,
}

impl std::fmt::Display for OffloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OffloadError::TaskPanicked => f.write_str("off-loaded task panicked"),
            OffloadError::Unrecovered => {
                f.write_str("off-load unrecovered: retries exhausted and PPE fallback disabled")
            }
        }
    }
}

impl std::error::Error for OffloadError {}

/// The outcome of a finished [`SpePool::offload`].
#[derive(Debug)]
pub struct OffloadHandle<T> {
    outcome: Result<T, OffloadError>,
}

impl<T> OffloadHandle<T> {
    /// The task's result. The task has run by the time the handle exists:
    /// the SPE that ran it is idle again and the pool's counters include it.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if the job panicked.
    pub fn wait(self) -> Result<T, OffloadError> {
        self.outcome
    }
}

struct PoolState {
    idle: Vec<SpeId>,
    /// SPEs benched by the fault plane. Only an *idle* SPE can be benched
    /// (so a quarantined SPE is never mid-job and can never appear in a
    /// team that started after its quarantine); it sits out — neither idle
    /// nor busy — until re-admitted.
    quarantined: Vec<bool>,
    /// Threads blocked in [`SpePool::reserve`]. They register and wait
    /// under this lock, and whoever grows `idle` reads the count under it
    /// too: either the waiter sees the new idle SPE before it sleeps, or
    /// the count is already nonzero and it is notified. With nobody
    /// waiting, returning an SPE to the idle set skips the condvar, a futex
    /// call even with no one there.
    reserve_waiters: usize,
}

impl PoolState {
    /// Return `spe` to the idle set. True when a [`SpePool::reserve`]
    /// waiter is registered: notify `idle_changed` after unlocking.
    fn go_idle(&mut self, spe: SpeId) -> bool {
        self.idle.push(spe);
        self.reserve_waiters > 0
    }
}

struct Shared {
    state: Mutex<PoolState>,
    /// One context per virtual SPE. It lives here rather than on the SPE
    /// thread's stack so that whoever currently *owns* the SPE — its
    /// thread, or the thread that reserved it ([`SpePool::run_here`]) — can
    /// drive it. Only the owner ever locks it, so the lock is never
    /// contended; it is there to hand the context from one owner to the
    /// next.
    spes: Vec<Mutex<SpeContext>>,
    idle_changed: Condvar,
    panics: AtomicU64,
    completed: AtomicU64,
    metrics: Arc<dyn MetricsSink>,
}

struct Worker {
    tx: Sender<WorkerMsg>,
    handle: Option<JoinHandle<SpeStats>>,
}

/// Final per-SPE statistics returned when the pool shuts down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeStats {
    /// Which SPE these numbers describe.
    pub id: SpeId,
    /// Jobs executed.
    pub tasks_run: u64,
}

/// A pool of virtual SPEs.
pub struct SpePool {
    workers: Vec<Worker>,
    shared: Arc<Shared>,
}

impl SpePool {
    /// Spawn `n_spes` virtual SPEs.
    ///
    /// The `Duration` is ignored: it names the Cell's code-image reload
    /// stall, and a host thread has no code image to reload. The parameter
    /// is there because the frozen benchmark harness calls this
    /// signature.
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn new(n_spes: usize, _: Duration) -> SpePool {
        SpePool::with_metrics(n_spes, Arc::new(NopMetrics))
    }

    /// Like [`Self::new`], recording pool activity (completions,
    /// reservations that had to wait) into `metrics`.
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn with_metrics(n_spes: usize, metrics: Arc<dyn MetricsSink>) -> SpePool {
        SpePool::with_observability(n_spes, metrics, None)
    }

    /// Like [`Self::with_metrics`], additionally giving every virtual SPE a
    /// per-thread span-tracing ring from `tracer` (the team layer's chunk
    /// spans are recorded there; see [`crate::tracing`]).
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn with_observability(
        n_spes: usize,
        metrics: Arc<dyn MetricsSink>,
        tracer: Option<&Tracer>,
    ) -> SpePool {
        assert!(n_spes > 0, "a pool needs at least one SPE");
        let spes = (0..n_spes)
            .map(|i| {
                let mut ctx = SpeContext::new(SpeId(i));
                if let Some(t) = tracer {
                    ctx.set_trace(t.handle());
                }
                Mutex::new(ctx)
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                idle: (0..n_spes).rev().map(SpeId).collect(),
                quarantined: vec![false; n_spes],
                reserve_waiters: 0,
            }),
            spes,
            idle_changed: Condvar::new(),
            panics: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            metrics,
        });
        let workers = (0..n_spes)
            .map(|i| {
                // Bounded: an SPE thread is sent at most one job (only a
                // reserved SPE is sent one) plus one shutdown.
                let (tx, rx) = bounded::<WorkerMsg>(COMMAND_QUEUE_DEPTH);
                let shared_cl = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("vspe-{i}"))
                    .spawn(move || worker_loop(SpeId(i), rx, shared_cl))
                    .expect("spawn virtual SPE thread");
                Worker { tx, handle: Some(handle) }
            })
            .collect();
        SpePool { workers, shared }
    }

    /// Number of virtual SPEs.
    pub fn n_spes(&self) -> usize {
        self.workers.len()
    }

    /// SPEs currently idle.
    pub fn idle_count(&self) -> usize {
        self.shared.state.lock().idle.len()
    }

    /// Callers blocked in `reserve`: off-loads waiting for an SPE.
    pub(crate) fn reserve_waiters(&self) -> usize {
        self.shared.state.lock().reserve_waiters
    }

    /// Instantaneous per-SPE busy flags (`true` = running a job), indexed
    /// by SPE id. A point-in-time gauge for live telemetry: it takes the
    /// pool's state lock briefly (like [`SpePool::idle_count`]), never an
    /// SPE worker's time.
    pub fn busy_map(&self) -> Vec<bool> {
        let mut busy = vec![true; self.n_spes()];
        let st = self.shared.state.lock();
        for spe in &st.idle {
            busy[spe.0] = false;
        }
        // A quarantined SPE is sitting out, not running anything.
        for (spe, quarantined) in st.quarantined.iter().enumerate() {
            if *quarantined {
                busy[spe] = false;
            }
        }
        busy
    }

    /// SPEs in service (total minus quarantined).
    pub fn healthy_count(&self) -> usize {
        let st = self.shared.state.lock();
        st.quarantined.iter().filter(|q| !**q).count()
    }

    /// Bench an idle SPE: it is removed from the idle set and receives no
    /// work until re-admitted. Returns `false` if the id is out of range,
    /// the SPE is already quarantined, or the SPE is not idle — benching a
    /// busy SPE could race a reservation that already claimed it, so the
    /// fault plane retries at the SPE's next fault instead.
    pub fn quarantine(&self, spe: usize) -> bool {
        let mut st = self.shared.state.lock();
        if spe >= self.n_spes() || st.quarantined[spe] {
            return false;
        }
        let Some(pos) = st.idle.iter().position(|s| s.0 == spe) else {
            return false;
        };
        st.idle.remove(pos);
        st.quarantined[spe] = true;
        true
    }

    /// Return a quarantined SPE to service: it goes idle, and a caller
    /// blocked in `reserve` may take it. Returns `false` if the SPE
    /// was not quarantined.
    pub fn readmit(&self, spe: usize) -> bool {
        let mut st = self.shared.state.lock();
        if spe >= self.n_spes() || !st.quarantined[spe] {
            return false;
        }
        st.quarantined[spe] = false;
        let wake = st.go_idle(SpeId(spe));
        drop(st);
        if wake {
            self.shared.idle_changed.notify_all();
        }
        true
    }

    /// Jobs completed over the pool's lifetime.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Jobs that panicked (and were contained).
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Off-load `f` to one SPE and run it to completion: reserve an idle
    /// SPE — waiting, if none is idle, until one is — and run `f` on the
    /// calling thread as that SPE (`run_here`). The returned handle
    /// holds the outcome; the SPE is idle again and counted.
    pub fn offload<T, F>(&self, f: F) -> OffloadHandle<T>
    where
        F: FnOnce(&mut SpeContext) -> T,
    {
        let spe = self.reserve(1)[0];
        OffloadHandle { outcome: self.run_here(spe, f) }
    }

    /// Atomically reserve `k` idle SPEs, blocking until enough are idle
    /// (counted once as an [`Counter::OffloadQueueStalls`] when it has to
    /// wait). A reserved SPE is driven only by the reserving thread —
    /// [`Self::run_here`] or [`Self::run_on`] — and is idle again once its
    /// job has run.
    ///
    /// # Panics
    /// Panics if `k` exceeds the pool size (this would deadlock).
    pub(crate) fn reserve(&self, k: usize) -> Vec<SpeId> {
        assert!(k <= self.n_spes(), "cannot reserve {k} of {} SPEs", self.n_spes());
        let mut st = self.shared.state.lock();
        if st.idle.len() < k {
            self.shared.metrics.incr(Counter::OffloadQueueStalls);
            while st.idle.len() < k {
                st.reserve_waiters += 1;
                self.shared.idle_changed.wait(&mut st);
                st.reserve_waiters -= 1;
            }
        }
        let at = st.idle.len() - k;
        st.idle.split_off(at)
    }

    /// Wake reserved SPE `spe`'s thread to run `job`.
    pub(crate) fn run_on(&self, spe: SpeId, job: Job) {
        self.workers[spe.0]
            .tx
            .send(WorkerMsg::Run(job))
            .expect("virtual SPE thread hung up");
    }

    /// Run `job` on the calling thread as reserved SPE `spe`: the caller
    /// drives that SPE's context itself instead of waking its thread, and
    /// gets the job's value back without a hand-over. Everything an SPE
    /// thread does around a job happens here too (see `run_job`), a panic
    /// is contained the same way, and the SPE is idle again when this
    /// returns.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if the job panicked.
    pub(crate) fn run_here<R>(
        &self,
        spe: SpeId,
        job: impl FnOnce(&mut SpeContext) -> R,
    ) -> Result<R, OffloadError> {
        let outcome = run_job(&self.shared, &mut self.shared.spes[spe.0].lock(), job);
        self.shared.retire(spe);
        outcome
    }

    /// Final statistics, consuming the pool (joins all workers).
    pub fn shutdown(mut self) -> Vec<SpeStats> {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> Vec<SpeStats> {
        for w in &self.workers {
            let _ = w.tx.send(WorkerMsg::Shutdown);
        }
        self.workers
            .iter_mut()
            .filter_map(|w| w.handle.take())
            .filter_map(|h| h.join().ok())
            .collect()
    }
}

impl Drop for SpePool {
    fn drop(&mut self) {
        if self.workers.iter().any(|w| w.handle.is_some()) {
            let _ = self.shutdown_inner();
        }
    }
}

impl Shared {
    /// `spe` has finished a job: return it to the idle set. (A quarantined
    /// SPE never gets here: only idle SPEs can be benched.)
    fn retire(&self, spe: SpeId) {
        let wake_reservers = self.state.lock().go_idle(spe);
        if wake_reservers {
            self.idle_changed.notify_all();
        }
    }
}

/// Run one job on `ctx`'s SPE and book it: the per-job protocol, the same
/// whether the SPE's own thread or [`SpePool::run_here`]'s caller drives
/// the context. A panic in `job` is contained, counted and returned as
/// [`OffloadError::TaskPanicked`].
fn run_job<R>(
    shared: &Shared,
    ctx: &mut SpeContext,
    job: impl FnOnce(&mut SpeContext) -> R,
) -> Result<R, OffloadError> {
    let id = ctx.id;
    // Model the start signal: the PPE posts the job into this SPE's
    // inbound mailbox and the SPE drains it. Recorded back-to-back on the
    // SPE's own ring, so the per-SPE occupancy replay the checker runs
    // (0 → 1 → 0) is consistent by construction.
    if let Some(h) = ctx.trace() {
        h.record(EventKind::MailboxWrite {
            spe: id.0,
            mailbox: MailboxKind::Inbound,
            occupancy: 1,
        });
        h.record(EventKind::MailboxRead {
            spe: id.0,
            mailbox: MailboxKind::Inbound,
            occupancy: 0,
        });
    }
    ctx.begin_task();
    let result = catch_unwind(AssertUnwindSafe(|| job(ctx)));
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.incr(Counter::TasksCompleted);
    result.map_err(|_| {
        shared.panics.fetch_add(1, Ordering::Relaxed);
        OffloadError::TaskPanicked
    })
}

/// An SPE thread: run each woken worker's job, then go idle. A panic is
/// contained and booked by `run_job`; the job's team learns of it from
/// its own countdown.
fn worker_loop(id: SpeId, rx: Receiver<WorkerMsg>, shared: Arc<Shared>) -> SpeStats {
    while let Ok(WorkerMsg::Run(job)) = rx.recv() {
        // The slot is unlocked again before the SPE can go idle: its next
        // owner may be a `run_here` caller on another thread.
        let _ = run_job(&shared, &mut shared.spes[id.0].lock(), job);
        shared.retire(id);
    }
    SpeStats { id, tasks_run: shared.spes[id.0].lock().tasks_run() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AtomicMetrics;
    use std::sync::atomic::AtomicUsize;

    /// Yield until `done` holds.
    fn yield_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn offload_runs_on_the_caller_and_returns_with_the_spe_idle_and_counted() {
        let pool = SpePool::new(3, Duration::ZERO);
        let here = std::thread::current().id();
        for i in 1..=100u64 {
            let got = pool.offload(move |ctx| (i, ctx.id, std::thread::current().id())).wait();
            // The LIFO pop: SPE 0, back on top of the idle stack every time.
            assert_eq!(got, Ok((i, SpeId(0), here)));
            assert_eq!((pool.idle_count(), pool.completed()), (3, i), "after off-load {i}");
        }
    }

    #[test]
    fn offload_blocks_while_every_spe_is_reserved_and_proceeds_when_one_is_returned() {
        let metrics = Arc::new(AtomicMetrics::new());
        let pool = SpePool::with_metrics(2, Arc::<AtomicMetrics>::clone(&metrics));
        let team = pool.reserve(2);
        assert_eq!(metrics.get(Counter::OffloadQueueStalls), 0, "that one did not wait");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| pool.offload(|ctx| ctx.id).wait());
            yield_until(|| pool.reserve_waiters() == 1);
            assert_eq!((pool.idle_count(), pool.completed()), (0, 0));
            assert_eq!(metrics.get(Counter::OffloadQueueStalls), 1);
            // Returning one reserved SPE lets the waiting off-load run on it.
            pool.run_here(team[1], |_| ()).unwrap();
            assert_eq!(waiter.join().unwrap(), Ok(team[1]));
        });
        assert_eq!(pool.reserve_waiters(), 0);
        pool.run_here(team[0], |_| ()).unwrap();
        assert_eq!((pool.idle_count(), pool.completed()), (2, 3));
        assert_eq!(metrics.get(Counter::OffloadQueueStalls), 1);
    }

    #[test]
    fn offload_runs_and_returns_value() {
        let pool = SpePool::new(2, Duration::ZERO);
        let h = pool.offload(|_| 6 * 7);
        assert_eq!(h.wait().unwrap(), 42);
    }

    #[test]
    fn many_offloads_all_complete() {
        let pool = SpePool::new(4, Duration::ZERO);
        let handles: Vec<_> = (0..64).map(|i| pool.offload(move |_| i * 2)).collect();
        let mut sum = 0;
        for h in handles {
            sum += h.wait().unwrap();
        }
        assert_eq!(sum, (0..64).map(|i| i * 2).sum::<i32>());
        assert_eq!(pool.completed(), 64);
    }

    #[test]
    fn jobs_observe_spe_context() {
        let pool = SpePool::new(3, Duration::ZERO);
        let h = pool.offload(|ctx| (ctx.id.0, ctx.tasks_run()));
        let (id, run) = h.wait().unwrap();
        assert!(id < 3);
        assert_eq!(run, 1, "the context counts the job it is running");
    }

    #[test]
    fn panic_is_contained_and_spe_survives() {
        let pool = SpePool::new(1, Duration::ZERO);
        let h = pool.offload::<(), _>(|_| panic!("injected failure"));
        assert_eq!(h.wait(), Err(OffloadError::TaskPanicked));
        // Booked before the off-load returned.
        assert_eq!(pool.panics(), 1);
        assert_eq!((pool.completed(), pool.idle_count()), (1, 1));
        // The same (only) SPE still serves work.
        let h2 = pool.offload(|_| "alive");
        assert_eq!(h2.wait().unwrap(), "alive");
    }

    #[test]
    fn reserve_takes_spes_out_of_service() {
        let pool = SpePool::new(4, Duration::ZERO);
        let team = pool.reserve(3);
        assert_eq!(team.len(), 3);
        assert_eq!(pool.idle_count(), 1);
        // Reserved SPEs come back after running a direct job.
        let counter = Arc::new(AtomicUsize::new(0));
        for &spe in &team {
            let c = Arc::clone(&counter);
            pool.run_on(spe, Box::new(move |_| { c.fetch_add(1, Ordering::SeqCst); }));
        }
        yield_until(|| pool.idle_count() == 4);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_here_drives_a_reserved_spe_like_its_own_thread() {
        let pool = SpePool::new(2, Duration::ZERO);
        let here = std::thread::current().id();
        let spe = pool.reserve(1)[0];
        let got = pool.run_here(spe, |ctx| (ctx.id, std::thread::current().id()));
        assert_eq!(got, Ok((spe, here)));
        // Booked and idle again by the time it returns.
        assert_eq!((pool.completed(), pool.idle_count()), (1, 2));

        // A panic is contained on the calling thread, the SPE survives.
        let spe = pool.reserve(1)[0];
        let got = pool.run_here(spe, |_| -> u32 { panic!("injected failure") });
        assert_eq!(got, Err(OffloadError::TaskPanicked));
        assert_eq!((pool.completed(), pool.panics(), pool.idle_count()), (2, 1, 2));

        let stats = pool.shutdown();
        assert_eq!(stats.iter().map(|s| s.tasks_run).sum::<u64>(), 2);
    }

    #[test]
    fn shutdown_reports_stats() {
        let pool = SpePool::new(2, Duration::ZERO);
        for _ in 0..10 {
            pool.offload(|_| ()).wait().unwrap();
        }
        let mut stats = pool.shutdown();
        stats.sort_by_key(|s| s.id);
        assert_eq!(stats.len(), 2);
        let total: u64 = stats.iter().map(|s| s.tasks_run).sum();
        assert_eq!(total, 10);
    }

    #[test]
    #[should_panic(expected = "cannot reserve")]
    fn reserving_more_than_pool_size_panics() {
        let pool = SpePool::new(2, Duration::ZERO);
        let _ = pool.reserve(3);
    }

    #[test]
    fn quarantined_spe_receives_no_work_until_readmitted() {
        let pool = SpePool::new(2, Duration::ZERO);
        assert!(pool.quarantine(0));
        assert!(!pool.quarantine(0), "double quarantine must be refused");
        assert!(!pool.quarantine(9), "out-of-range id must be refused");
        assert_eq!(pool.healthy_count(), 1);
        for _ in 0..8 {
            let spe = pool.offload(|ctx| ctx.id.0).wait().unwrap();
            assert_eq!(spe, 1, "all work must land on the healthy SPE");
        }
        assert!(pool.readmit(0));
        assert!(!pool.readmit(0), "readmitting a healthy SPE must be refused");
        assert_eq!(pool.healthy_count(), 2);
        // The returning SPE is pushed to the back of the idle stack, so it
        // is the next one popped.
        assert_eq!(pool.offload(|ctx| ctx.id.0).wait().unwrap(), 0);
    }

    #[test]
    fn busy_spes_cannot_be_quarantined() {
        let pool = SpePool::new(1, Duration::ZERO);
        let spe = pool.reserve(1)[0];
        assert!(!pool.quarantine(spe.0), "a busy SPE must not be benched");
        pool.run_here(spe, |_| ()).unwrap();
        assert_eq!(pool.healthy_count(), 1);
        assert!(pool.quarantine(spe.0), "an idle one may be");
    }

    #[test]
    fn readmission_releases_an_offload_waiting_for_an_spe() {
        let pool = SpePool::new(1, Duration::ZERO);
        assert!(pool.quarantine(0));
        std::thread::scope(|scope| {
            // With the only SPE benched, the off-load waits for one.
            let waiter = scope.spawn(|| pool.offload(|_| 77).wait());
            yield_until(|| pool.reserve_waiters() == 1);
            assert_eq!(pool.completed(), 0);
            // Re-admission makes it idle, and the waiter takes it.
            assert!(pool.readmit(0));
            assert_eq!(waiter.join().unwrap(), Ok(77));
        });
        assert_eq!((pool.reserve_waiters(), pool.idle_count()), (0, 1));
    }
}
