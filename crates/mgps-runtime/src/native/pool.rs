//! The virtual-SPE pool: persistent worker threads standing in for the
//! eight SPEs, with the off-load semantics of the paper's runtime.
//!
//! Off-loads are immediate when an SPE is idle and queue FIFO otherwise
//! (the EDTLP scheduler "off-loads a task immediately upon request ... if
//! no idle SPE is found, the scheduler waits until an SPE becomes
//! available"). Teams for work-shared loops are *reserved* — removed from
//! the idle set atomically — and addressed directly, mirroring how a master
//! SPE signals its workers without going through the PPE.
//!
//! # Completion after idle, and the completion cell
//!
//! An off-load's result travels through a one-shot `Completion` cell
//! shared by the job, the worker and the [`OffloadHandle`] — one `Arc`, no
//! channel. The job only *parks* its return value there. The worker then
//! books the completion (`completed`, metrics, the panic count), returns
//! its SPE to the idle set (or takes the next queued job), and only after
//! that *publishes* the cell and wakes the waiter. So "`wait()` returned"
//! implies "that SPE is idle again and accounted for", and a contained
//! panic is an `Err` published the same way. The order is also what makes
//! dispatch cheap: the woken process usually runs at once on the waker's
//! CPU, and were the SPE still on its way back to the idle set the
//! process's next off-load would find it busy and have to wake a parked
//! one — a halted-CPU wake-up costing several times the kernel it ships.
//!
//! # Lent contexts
//!
//! An SPE's [`SpeContext`] is not its thread's private state: it sits in a
//! per-SPE slot that the SPE's current *owner* locks for the length of one
//! job. Normally the owner is the SPE's thread. The thread that reserved a
//! team is the owner of its master SPE: `SpePool::run_here` runs the job on
//! the caller's thread against that SPE's context — same mailbox events,
//! local-store accounting, counters and panic containment (`run_job` is
//! the one copy of that protocol) — so a team's master costs no thread
//! wake-up and no reply hand-over, and the SPE's thread stays parked.
//!
//! # Process→SPE affinity
//!
//! `SpePool::offload_near` takes the SPE that ran the caller's previous
//! task and hands it back when it is idle, falling back to the LIFO pop
//! otherwise: it never waits for the preferred SPE, and a quarantined one
//! is never idle. With the rule above, a process that off-loads one task
//! at a time keeps talking to one SPE thread, the locality-aware placement
//! the paper lists as future work (§6). [`SpePool::offload`] keeps the
//! plain LIFO placement.

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

/// A job and, for off-loads that return a value, the cell the worker
/// publishes once the SPE is idle again.
struct Task {
    job: Job,
    done: Option<Arc<dyn Publish>>,
}

enum WorkerMsg {
    Run(Task),
    Shutdown,
}

/// Why waiting on an [`OffloadHandle`] failed.
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

/// Where an off-load's result is in its one-shot life.
enum Slot<T> {
    /// The job has not returned.
    Running,
    /// What the job returned, parked until the worker publishes it.
    Returned(T),
    /// Published: the result, or the contained panic.
    Done(Result<T, OffloadError>),
    /// The handle has taken the published result.
    Taken,
}

impl<T> Slot<T> {
    fn take_done(&mut self) -> Option<Result<T, OffloadError>> {
        match std::mem::replace(self, Slot::Taken) {
            Slot::Done(outcome) => Some(outcome),
            other => {
                *self = other;
                None
            }
        }
    }
}

struct Cell<T> {
    slot: Slot<T>,
    /// The handle is blocked in `wait`. A publisher that finds it unset
    /// skips the condvar (a futex call even with nobody there); set and
    /// read under the cell's lock, so the wake-up cannot be lost.
    parked: bool,
}

/// The one-shot completion cell of an off-load (see the module doc).
struct Completion<T> {
    cell: Mutex<Cell<T>>,
    ready: Condvar,
}

/// The worker's type-erased view of a [`Completion`].
trait Publish: Send + Sync {
    /// Make the parked result — or, if the job `panicked` or never ran,
    /// [`OffloadError::TaskPanicked`] — visible to the handle and wake it.
    fn publish(&self, panicked: bool);
}

impl<T> Completion<T> {
    fn new() -> Completion<T> {
        Completion {
            cell: Mutex::new(Cell { slot: Slot::Running, parked: false }),
            ready: Condvar::new(),
        }
    }

    /// Called by the job with its return value.
    fn park(&self, value: T) {
        self.cell.lock().slot = Slot::Returned(value);
    }
}

impl<T: Send> Publish for Completion<T> {
    fn publish(&self, panicked: bool) {
        let mut cell = self.cell.lock();
        let outcome = match std::mem::replace(&mut cell.slot, Slot::Taken) {
            Slot::Returned(value) if !panicked => Ok(value),
            _ => Err(OffloadError::TaskPanicked),
        };
        cell.slot = Slot::Done(outcome);
        let parked = cell.parked;
        // Unlock first: the woken handle re-takes this lock.
        drop(cell);
        if parked {
            self.ready.notify_one();
        }
    }
}

/// Completion handle for an off-loaded task.
pub struct OffloadHandle<T> {
    done: Arc<Completion<T>>,
}

impl<T> std::fmt::Debug for OffloadHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OffloadHandle { .. }")
    }
}

impl<T> OffloadHandle<T> {
    /// Block until the task finishes. When this returns, the SPE that ran
    /// the task is idle again (or already running the next queued job) and
    /// the pool's counters include the task.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if the job panicked.
    pub fn wait(self) -> Result<T, OffloadError> {
        let mut cell = self.done.cell.lock();
        loop {
            if let Some(outcome) = cell.slot.take_done() {
                return outcome;
            }
            cell.parked = true;
            self.done.ready.wait(&mut cell);
            cell.parked = false;
        }
    }

    /// Non-blocking poll; `None` while the task is still running, and
    /// again once a poll has returned the result (it is handed out once).
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if the job panicked.
    pub fn try_wait(&self) -> Result<Option<T>, OffloadError> {
        self.done.cell.lock().slot.take_done().transpose()
    }
}

struct PoolState {
    idle: Vec<SpeId>,
    pending: std::collections::VecDeque<Task>,
    /// SPEs benched by the fault plane. Only an *idle* SPE can be benched
    /// (so a quarantined SPE is never mid-job and can never appear in a
    /// team that started after its quarantine); it sits out — neither idle
    /// nor busy — until re-admitted.
    quarantined: Vec<bool>,
    /// Threads blocked in [`SpePool::reserve`]. They register and wait
    /// under this lock, and whoever grows `idle` reads the count under it
    /// too: either the waiter sees the new idle SPE before it sleeps, or
    /// the count is already nonzero and it is notified. With no team
    /// forming — every single-SPE off-load — returning an SPE to the idle
    /// set skips the condvar, a futex call even with no one waiting.
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

/// One virtual SPE's execution state. It lives in [`Shared`] rather than
/// on the SPE thread's stack so that whoever currently *owns* the SPE —
/// its thread, or the thread that reserved it ([`SpePool::run_here`]) —
/// can drive it. Only the owner ever locks the slot, so the lock is never
/// contended; it is there to hand the context from one owner to the next.
struct SpeSlot {
    ctx: SpeContext,
    /// Code reloads already reported to the metrics sink.
    reloads_seen: u64,
}

struct Shared {
    state: Mutex<PoolState>,
    spes: Vec<Mutex<SpeSlot>>,
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
    /// Code-image reloads paid.
    pub code_reloads: u64,
    /// Peak local-store occupancy in bytes.
    pub local_store_high_water: usize,
}

/// A pool of virtual SPEs.
pub struct SpePool {
    workers: Vec<Worker>,
    shared: Arc<Shared>,
    direct: Vec<Sender<WorkerMsg>>,
}

impl SpePool {
    /// Spawn `n_spes` virtual SPEs with the given simulated code-reload
    /// stall (pass [`Duration::ZERO`] to disable).
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn new(n_spes: usize, code_load_cost: Duration) -> SpePool {
        SpePool::with_metrics(n_spes, code_load_cost, Arc::new(NopMetrics))
    }

    /// Like [`Self::new`], recording pool activity (completions, code
    /// reloads, queue stalls) into `metrics`.
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn with_metrics(
        n_spes: usize,
        code_load_cost: Duration,
        metrics: Arc<dyn MetricsSink>,
    ) -> SpePool {
        SpePool::with_observability(n_spes, code_load_cost, metrics, None)
    }

    /// Like [`Self::with_metrics`], additionally giving every virtual SPE a
    /// per-thread span-tracing ring from `tracer` (code reloads and the
    /// team layer's chunk/DMA spans are recorded there; see
    /// [`crate::tracing`]).
    ///
    /// # Panics
    /// Panics if `n_spes == 0`.
    pub fn with_observability(
        n_spes: usize,
        code_load_cost: Duration,
        metrics: Arc<dyn MetricsSink>,
        tracer: Option<&Tracer>,
    ) -> SpePool {
        assert!(n_spes > 0, "a pool needs at least one SPE");
        let spes = (0..n_spes)
            .map(|i| {
                let mut ctx = SpeContext::new(SpeId(i), code_load_cost);
                if let Some(t) = tracer {
                    ctx.set_trace(t.handle());
                }
                Mutex::new(SpeSlot { ctx, reloads_seen: 0 })
            })
            .collect();
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                idle: (0..n_spes).rev().map(SpeId).collect(),
                pending: std::collections::VecDeque::new(),
                quarantined: vec![false; n_spes],
                reserve_waiters: 0,
            }),
            spes,
            idle_changed: Condvar::new(),
            panics: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            metrics,
        });
        let mut workers = Vec::with_capacity(n_spes);
        let mut direct = Vec::with_capacity(n_spes);
        for i in 0..n_spes {
            // Bounded: the dispatch protocol queues at most one job plus
            // one shutdown per SPE (jobs only go to idle or reserved SPEs).
            let (tx, rx) = bounded::<WorkerMsg>(COMMAND_QUEUE_DEPTH);
            let shared_cl = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("vspe-{i}"))
                .spawn(move || worker_loop(SpeId(i), rx, shared_cl))
                .expect("spawn virtual SPE thread");
            direct.push(tx.clone());
            workers.push(Worker { tx, handle: Some(handle) });
        }
        SpePool { workers, shared, direct }
    }

    /// Number of virtual SPEs.
    pub fn n_spes(&self) -> usize {
        self.workers.len()
    }

    /// SPEs currently idle.
    pub fn idle_count(&self) -> usize {
        self.shared.state.lock().idle.len()
    }

    /// Off-loads queued waiting for an SPE.
    pub fn pending_len(&self) -> usize {
        self.shared.state.lock().pending.len()
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
    /// busy SPE could race a team reservation that already claimed it, so
    /// the fault plane retries at the SPE's next fault instead.
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

    /// Return a quarantined SPE to service. If work is queued it is handed
    /// to the returning SPE immediately; otherwise the SPE goes idle.
    /// Returns `false` if the SPE was not quarantined.
    pub fn readmit(&self, spe: usize) -> bool {
        let mut st = self.shared.state.lock();
        if spe >= self.n_spes() || !st.quarantined[spe] {
            return false;
        }
        st.quarantined[spe] = false;
        match st.pending.pop_front() {
            Some(task) => {
                drop(st);
                self.send(SpeId(spe), task);
            }
            None => {
                let wake = st.go_idle(SpeId(spe));
                drop(st);
                if wake {
                    self.shared.idle_changed.notify_all();
                }
            }
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

    /// Off-load `f` to the first available SPE, returning a completion
    /// handle. Dispatch is immediate if an SPE is idle, FIFO-queued
    /// otherwise.
    pub fn offload<T, F>(&self, f: F) -> OffloadHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut SpeContext) -> T + Send + 'static,
    {
        self.offload_near(None, f)
    }

    /// [`Self::offload`], preferring SPE `near` — the one that ran the
    /// caller's previous task — when it is idle. Any other idle SPE (LIFO)
    /// is taken otherwise: the preferred one is never waited for.
    pub(crate) fn offload_near<T, F>(&self, near: Option<SpeId>, f: F) -> OffloadHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut SpeContext) -> T + Send + 'static,
    {
        let (task, handle) = completing(f);
        self.dispatch(task, |st| {
            match near.and_then(|spe| st.idle.iter().rposition(|s| *s == spe)) {
                Some(pos) => Some(st.idle.remove(pos)),
                None => st.idle.pop(),
            }
        });
        handle
    }

    /// Hand `task` to the idle SPE `pick` removes from the idle set, or
    /// queue it FIFO when `pick` finds none.
    fn dispatch(&self, task: Task, pick: impl FnOnce(&mut PoolState) -> Option<SpeId>) {
        let mut st = self.shared.state.lock();
        match pick(&mut st) {
            Some(spe) => {
                drop(st);
                self.send(spe, task);
            }
            None => {
                st.pending.push_back(task);
                drop(st);
                self.shared.metrics.incr(Counter::OffloadQueueStalls);
            }
        }
    }

    fn send(&self, spe: SpeId, task: Task) {
        self.direct[spe.0]
            .send(WorkerMsg::Run(task))
            .expect("virtual SPE thread hung up");
    }

    /// Atomically reserve `k` idle SPEs, blocking until enough are idle.
    /// The reserved SPEs receive work only via [`Self::run_on`] until they
    /// finish it (each returns to the idle set after its job).
    ///
    /// # Panics
    /// Panics if `k` exceeds the pool size (this would deadlock).
    pub(crate) fn reserve(&self, k: usize) -> Vec<SpeId> {
        assert!(k <= self.n_spes(), "cannot reserve {k} of {} SPEs", self.n_spes());
        let mut st = self.shared.state.lock();
        loop {
            if st.idle.len() >= k {
                let at = st.idle.len() - k;
                let team = st.idle.split_off(at);
                return team;
            }
            st.reserve_waiters += 1;
            self.shared.idle_changed.wait(&mut st);
            st.reserve_waiters -= 1;
        }
    }

    /// Send a job directly to a reserved SPE.
    pub(crate) fn run_on(&self, spe: SpeId, job: Job) {
        self.send(spe, Task { job, done: None });
    }

    /// Run `job` on the calling thread as reserved SPE `spe`: the caller
    /// drives that SPE's context itself instead of waking its thread, and
    /// gets the job's value back without a hand-over. Everything an SPE
    /// thread does around a job happens here too (see `run_job`), a panic
    /// is contained the same way, and the SPE is idle again — or has been
    /// handed the next queued off-load — when this returns.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if the job panicked.
    pub(crate) fn run_here<R>(
        &self,
        spe: SpeId,
        job: impl FnOnce(&mut SpeContext) -> R,
    ) -> Result<R, OffloadError> {
        let outcome = run_job(&self.shared, &mut self.shared.spes[spe.0].lock(), job);
        if let Some(task) = self.shared.retire(spe) {
            self.send(spe, task);
        }
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
        let mut stats = Vec::with_capacity(self.workers.len());
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                if let Ok(s) = h.join() {
                    stats.push(s);
                }
            }
        }
        // Off-loads still queued (possible only while every SPE that could
        // take them is quarantined) will never run: fail their handles
        // rather than leave a waiter blocked forever.
        let abandoned = std::mem::take(&mut self.shared.state.lock().pending);
        for done in abandoned.into_iter().filter_map(|task| task.done) {
            done.publish(true);
        }
        stats
    }
}

/// Wrap `f` as a task whose return value reaches the returned handle
/// through a fresh completion cell.
fn completing<T, F>(f: F) -> (Task, OffloadHandle<T>)
where
    T: Send + 'static,
    F: FnOnce(&mut SpeContext) -> T + Send + 'static,
{
    let done = Arc::new(Completion::new());
    let cell = Arc::clone(&done);
    let job: Job = Box::new(move |ctx| cell.park(f(ctx)));
    let publish: Arc<dyn Publish> = done.clone();
    (Task { job, done: Some(publish) }, OffloadHandle { done })
}

impl Drop for SpePool {
    fn drop(&mut self) {
        if self.workers.iter().any(|w| w.handle.is_some()) {
            let _ = self.shutdown_inner();
        }
    }
}

impl Shared {
    /// `spe` has finished a job: hand back the next queued off-load for it
    /// to run, or return it to the idle set. (A quarantined SPE never gets
    /// here: only idle SPEs can be benched, and a benched SPE is fed again
    /// only by readmit.)
    fn retire(&self, spe: SpeId) -> Option<Task> {
        let mut st = self.state.lock();
        let next = st.pending.pop_front();
        let wake_reservers = next.is_none() && st.go_idle(spe);
        drop(st);
        if wake_reservers {
            self.idle_changed.notify_all();
        }
        next
    }
}

/// Run one job on `slot`'s SPE and book it: the per-job protocol, the same
/// whether the SPE's own thread or [`SpePool::run_here`]'s caller drives
/// the context. A panic in `job` is contained, counted and returned as
/// [`OffloadError::TaskPanicked`].
fn run_job<R>(
    shared: &Shared,
    slot: &mut SpeSlot,
    job: impl FnOnce(&mut SpeContext) -> R,
) -> Result<R, OffloadError> {
    let SpeSlot { ctx, reloads_seen } = slot;
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
    // Account the job's local-store scratch as an alloc/free pair: the
    // data region is bump-allocated during the job and released at task
    // teardown (`begin_task` resets it lazily).
    let scratch = ctx.local_store.used();
    if scratch > 0 {
        if let Some(h) = ctx.trace() {
            h.record(EventKind::LsAlloc {
                spe: id.0,
                bytes: scratch,
                in_use: scratch,
            });
            h.record(EventKind::LsFree { spe: id.0, bytes: scratch, in_use: 0 });
        }
    }
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.incr(Counter::TasksCompleted);
    let reloads_now = ctx.code_reloads();
    if reloads_now > *reloads_seen {
        shared.metrics.add(Counter::CodeReloads, reloads_now - *reloads_seen);
        *reloads_seen = reloads_now;
    }
    result.map_err(|_| {
        shared.panics.fetch_add(1, Ordering::Relaxed);
        OffloadError::TaskPanicked
    })
}

fn worker_loop(id: SpeId, rx: Receiver<WorkerMsg>, shared: Arc<Shared>) -> SpeStats {
    while let Ok(WorkerMsg::Run(mut task)) = rx.recv() {
        loop {
            let Task { job, done } = task;
            // The slot is unlocked again before the SPE can go idle: its
            // next owner may be a `run_here` caller on another thread.
            let panicked = run_job(&shared, &mut shared.spes[id.0].lock(), job).is_err();
            let next = shared.retire(id);
            // Completion after idle: only now may the waiter learn of the
            // result (see the module doc). The counters above are Relaxed;
            // the cell's lock orders them before the waiter's return.
            if let Some(done) = done {
                done.publish(panicked);
            }
            match next {
                Some(t) => task = t,
                None => break,
            }
        }
    }
    let slot = shared.spes[id.0].lock();
    SpeStats {
        id,
        tasks_run: slot.ctx.tasks_run(),
        code_reloads: slot.ctx.code_reloads(),
        local_store_high_water: slot.ctx.local_store.high_water(),
    }
}

/// The retired completion path — a one-slot channel per off-load, the
/// reply sent from *inside* the job — kept as a differential oracle: the
/// tests drive the same scripts through it and through the completion
/// cell and demand identical results and counters.
#[cfg(test)]
mod classic {
    use super::*;

    pub struct ClassicHandle<T> {
        rx: Receiver<T>,
    }

    impl<T> ClassicHandle<T> {
        pub fn wait(self) -> Result<T, OffloadError> {
            self.rx.recv().map_err(|_| OffloadError::TaskPanicked)
        }

        pub fn try_wait(&self) -> Result<Option<T>, OffloadError> {
            match self.rx.try_recv() {
                Ok(v) => Ok(Some(v)),
                Err(crossbeam::channel::TryRecvError::Empty) => Ok(None),
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    Err(OffloadError::TaskPanicked)
                }
            }
        }
    }

    pub fn offload<T, F>(pool: &SpePool, f: F) -> ClassicHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&mut SpeContext) -> T + Send + 'static,
    {
        let (tx, rx) = bounded(1);
        let job: Job = Box::new(move |ctx| {
            let out = f(ctx);
            let _ = tx.send(out);
        });
        pool.dispatch(Task { job, done: None }, |st| st.idle.pop());
        ClassicHandle { rx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A job that blocks its SPE until the returned gate is opened.
    fn gated<T: Send + 'static>(
        value: T,
    ) -> (impl FnOnce(&mut SpeContext) -> T + Send + 'static, impl FnOnce()) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let job = move |_: &mut SpeContext| {
            let (lock, cv) = &*g;
            let mut open = lock.lock();
            while !*open {
                cv.wait(&mut open);
            }
            value
        };
        let open = move || {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        };
        (job, open)
    }

    /// Spin on a handle's `try_wait` until it yields the outcome.
    fn poll<T>(
        mut try_wait: impl FnMut() -> Result<Option<T>, OffloadError>,
    ) -> Result<T, OffloadError> {
        loop {
            match try_wait() {
                Ok(Some(v)) => return Ok(v),
                Ok(None) => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn wait_returns_after_the_spe_is_idle_and_accounted() {
        let pool = SpePool::new(3, Duration::ZERO);
        for i in 1..=100u64 {
            assert_eq!(pool.offload(move |_| i).wait(), Ok(i));
            assert_eq!((pool.idle_count(), pool.completed()), (3, i), "after off-load {i}");
        }
        // try_wait is the same hand-over: once it yields the result, the
        // books are done.
        let h = pool.offload(|_| 7);
        let got = poll(|| h.try_wait());
        assert_eq!((got, pool.idle_count(), pool.completed()), (Ok(7), 3, 101));
        assert_eq!(h.try_wait(), Ok(None), "the result is handed out once");
    }

    #[test]
    fn queued_offloads_publish_in_order_with_the_books_done() {
        // One SPE, so every off-load but the first queues; the worker takes
        // the next job *before* publishing the previous result.
        let pool = SpePool::new(1, Duration::ZERO);
        let (job, open) = gated(0u64);
        let first = pool.offload(job);
        let rest: Vec<_> = (1..6u64).map(|i| pool.offload(move |_| i)).collect();
        open();
        assert_eq!(first.wait(), Ok(0));
        assert!(pool.completed() >= 1);
        for (i, h) in rest.into_iter().enumerate() {
            assert_eq!(h.wait(), Ok(i as u64 + 1));
            assert!(pool.completed() >= i as u64 + 2);
        }
        assert_eq!((pool.idle_count(), pool.completed()), (1, 6));
    }

    #[test]
    fn preferred_spe_is_handed_back_while_idle() {
        let pool = SpePool::new(4, Duration::ZERO);
        // Without a preference — or with one that names no SPE — the LIFO
        // pop: SPE 0, which goes back on top and is popped again.
        assert_eq!(pool.offload(|ctx| ctx.id).wait(), Ok(SpeId(0)));
        assert_eq!(pool.offload_near(None, |ctx| ctx.id).wait(), Ok(SpeId(0)));
        assert_eq!(pool.offload_near(Some(SpeId(9)), |ctx| ctx.id).wait(), Ok(SpeId(0)));
        // A preference is honoured from anywhere in the idle stack.
        for spe in [SpeId(2), SpeId(2), SpeId(3), SpeId(2), SpeId(1)] {
            assert_eq!(pool.offload_near(Some(spe), |ctx| ctx.id).wait(), Ok(spe));
        }
        assert_eq!(pool.idle_count(), 4);
    }

    #[test]
    fn busy_or_quarantined_preferred_spe_falls_back_without_blocking() {
        let pool = SpePool::new(3, Duration::ZERO);
        let (job, open) = gated(());
        let busy = pool.offload_near(Some(SpeId(1)), job);
        // SPE 1 is held by the gated job: these must complete elsewhere
        // while it still is.
        for _ in 0..5 {
            let spe = pool.offload_near(Some(SpeId(1)), |ctx| ctx.id).wait().unwrap();
            assert_ne!(spe, SpeId(1));
        }
        assert_eq!(busy.try_wait(), Ok(None));
        open();
        busy.wait().unwrap();

        assert!(pool.quarantine(1));
        for _ in 0..5 {
            let spe = pool.offload_near(Some(SpeId(1)), |ctx| ctx.id).wait().unwrap();
            assert_ne!(spe, SpeId(1), "a benched SPE is never picked");
        }
        assert!(pool.readmit(1));
        assert_eq!(pool.offload_near(Some(SpeId(1)), |ctx| ctx.id).wait(), Ok(SpeId(1)));
    }

    #[test]
    fn offloads_abandoned_at_shutdown_fail_their_handles() {
        let pool = SpePool::new(1, Duration::ZERO);
        assert!(pool.quarantine(0));
        let h = pool.offload(|_| 1);
        assert_eq!(pool.pending_len(), 1);
        drop(pool);
        assert_eq!(h.wait(), Err(OffloadError::TaskPanicked));
    }

    /// What one scripted off-load does and how its handle is consumed.
    #[derive(Clone, Copy)]
    enum Step {
        Wait(u64),
        Poll(u64),
        PanicWait,
        PanicPoll,
        /// Off-load, then drop the handle unread.
        Forget(u64),
    }

    fn body(step: Step) -> impl FnOnce(&mut SpeContext) -> u64 + Send + 'static {
        move |ctx| {
            ctx.local_store.alloc(256).unwrap();
            match step {
                Step::Wait(v) | Step::Poll(v) | Step::Forget(v) => v * 3,
                Step::PanicWait | Step::PanicPoll => panic!("scripted failure"),
            }
        }
    }

    #[test]
    fn completion_cell_matches_the_channel_oracle_on_scripted_runs() {
        // The differential satellite: the same seeded script of off-loads
        // through the retired reply-inside-the-job channel and through the
        // completion cell. Results, per-SPE totals and pool counters must
        // be identical; only *when* they become visible may differ (the
        // oracle has to be given time to settle, the cell must not).
        let seed = 0x5EEDu64;
        let script: Vec<Step> = (0..200u64)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i.wrapping_mul(1442695040888963407));
                match (x >> 33) % 8 {
                    0 => Step::PanicWait,
                    1 => Step::PanicPoll,
                    2 => Step::Forget(i),
                    3 | 4 => Step::Poll(i),
                    _ => Step::Wait(i),
                }
            })
            .collect();

        let panics_in = |steps: &[Step]| {
            steps.iter().filter(|s| matches!(s, Step::PanicWait | Step::PanicPoll)).count() as u64
        };

        let cell_pool = SpePool::new(2, Duration::ZERO);
        let mut cell_results = Vec::new();
        for (i, &step) in script.iter().enumerate() {
            let h = cell_pool.offload(body(step));
            match step {
                Step::Wait(_) | Step::PanicWait => cell_results.push(h.wait()),
                Step::Poll(_) | Step::PanicPoll => cell_results.push(poll(|| h.try_wait())),
                Step::Forget(_) => drop(h),
            }
            // Exact at every step: a panicking step is always waited for.
            assert_eq!(cell_pool.panics(), panics_in(&script[..=i]));
        }

        let classic_pool = SpePool::new(2, Duration::ZERO);
        let mut classic_results = Vec::new();
        for &step in &script {
            let h = classic::offload(&classic_pool, body(step));
            match step {
                Step::Wait(_) | Step::PanicWait => classic_results.push(h.wait()),
                Step::Poll(_) | Step::PanicPoll => classic_results.push(poll(|| h.try_wait())),
                Step::Forget(_) => drop(h),
            }
        }

        assert_eq!(cell_results, classic_results);
        // Shutdown joins the workers, which settles the oracle's counters.
        let counters = |pool: SpePool| {
            let shared = Arc::clone(&pool.shared);
            let stats = pool.shutdown();
            (
                shared.completed.load(Ordering::Relaxed),
                shared.panics.load(Ordering::Relaxed),
                stats.iter().map(|s| s.tasks_run).sum::<u64>(),
                stats.iter().map(|s| s.local_store_high_water).max(),
            )
        };
        let want = (script.len() as u64, panics_in(&script), script.len() as u64, Some(256));
        assert_eq!(counters(cell_pool), want);
        assert_eq!(counters(classic_pool), want);
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
    fn excess_offloads_queue_fifo() {
        let pool = SpePool::new(1, Duration::ZERO);
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));

        // First job blocks the only SPE until we open the gate.
        let g = Arc::clone(&gate);
        let o = Arc::clone(&order);
        let h0 = pool.offload(move |_| {
            let (lock, cv) = &*g;
            let mut open = lock.lock();
            while !*open {
                cv.wait(&mut open);
            }
            o.lock().push(0);
        });
        // These must queue and then run in submission order.
        let hs: Vec<_> = (1..4)
            .map(|i| {
                let o = Arc::clone(&order);
                pool.offload(move |_| o.lock().push(i))
            })
            .collect();
        assert_eq!(pool.idle_count(), 0);
        {
            let (lock, cv) = &*gate;
            *lock.lock() = true;
            cv.notify_all();
        }
        h0.wait().unwrap();
        for h in hs {
            h.wait().unwrap();
        }
        assert_eq!(*order.lock(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn jobs_observe_spe_context() {
        let pool = SpePool::new(3, Duration::ZERO);
        let h = pool.offload(|ctx| {
            let scratch = ctx.local_store.alloc(1024).unwrap();
            scratch[0] = 7;
            (ctx.id.0, scratch[0])
        });
        let (id, byte) = h.wait().unwrap();
        assert!(id < 3);
        assert_eq!(byte, 7);
    }

    #[test]
    fn panic_is_contained_and_spe_survives() {
        let pool = SpePool::new(1, Duration::ZERO);
        let h = pool.offload::<(), _>(|_| panic!("injected failure"));
        assert_eq!(h.wait(), Err(OffloadError::TaskPanicked));
        // Published after the books are done: no waiting for the counter.
        assert_eq!(pool.panics(), 1);
        assert_eq!((pool.completed(), pool.idle_count()), (1, 1));
        // The same (only) SPE still serves work.
        let h2 = pool.offload(|_| "alive");
        assert_eq!(h2.wait().unwrap(), "alive");
    }

    #[test]
    fn try_wait_polls_without_blocking() {
        let pool = SpePool::new(1, Duration::ZERO);
        let (job, open) = gated(99);
        let h = pool.offload(job);
        assert_eq!(h.try_wait().unwrap(), None);
        open();
        assert_eq!(poll(|| h.try_wait()), Ok(99));
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
        while pool.idle_count() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_here_drives_a_reserved_spe_like_its_own_thread() {
        let pool = SpePool::new(2, Duration::ZERO);
        let here = std::thread::current().id();
        let spe = pool.reserve(1)[0];
        let got = pool.run_here(spe, |ctx| {
            ctx.local_store.alloc(512).unwrap();
            (ctx.id, std::thread::current().id())
        });
        assert_eq!(got, Ok((spe, here)));
        // Booked and idle again by the time it returns.
        assert_eq!((pool.completed(), pool.idle_count()), (1, 2));

        // A panic is contained on the calling thread, the SPE survives.
        let spe = pool.reserve(1)[0];
        let got = pool.run_here(spe, |_| -> u32 { panic!("injected failure") });
        assert_eq!(got, Err(OffloadError::TaskPanicked));
        assert_eq!((pool.completed(), pool.panics(), pool.idle_count()), (2, 1, 2));

        // An off-load queued meanwhile is handed to the SPE's own thread.
        let team = pool.reserve(2);
        let queued = pool.offload(|ctx| (ctx.id, std::thread::current().id()));
        assert_eq!(pool.pending_len(), 1);
        pool.run_here(team[0], |_| ()).unwrap();
        let (ran_on, thread) = queued.wait().unwrap();
        assert_eq!(ran_on, team[0]);
        assert_ne!(thread, here);
        pool.run_here(team[1], |_| ()).unwrap();
        assert_eq!(pool.idle_count(), 2);

        let stats = pool.shutdown();
        assert_eq!(stats.iter().map(|s| s.tasks_run).sum::<u64>(), 5);
        assert_eq!(stats.iter().map(|s| s.local_store_high_water).max(), Some(512));
    }

    #[test]
    fn shutdown_reports_stats() {
        let pool = SpePool::new(2, Duration::ZERO);
        for _ in 0..10 {
            pool.offload(|ctx| {
                ctx.local_store.alloc(2048).unwrap();
            })
            .wait()
            .unwrap();
        }
        let mut stats = pool.shutdown();
        stats.sort_by_key(|s| s.id);
        assert_eq!(stats.len(), 2);
        let total: u64 = stats.iter().map(|s| s.tasks_run).sum();
        assert_eq!(total, 10);
        assert!(stats.iter().any(|s| s.local_store_high_water >= 2048));
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
        let (job, open) = gated(());
        let h = pool.offload(job);
        assert!(!pool.quarantine(0), "a busy SPE must not be benched");
        open();
        h.wait().unwrap();
        assert_eq!(pool.healthy_count(), 1);
    }

    #[test]
    fn readmission_drains_the_pending_queue() {
        let pool = SpePool::new(1, Duration::ZERO);
        assert!(pool.quarantine(0));
        // With the only SPE benched, work queues rather than dispatching.
        let h = pool.offload(|_| 77);
        assert_eq!(h.try_wait().unwrap(), None);
        assert_eq!(pool.pending_len(), 1);
        // Re-admission hands the queued job straight to the returning SPE.
        assert!(pool.readmit(0));
        assert_eq!(h.wait().unwrap(), 77);
        assert_eq!(pool.pending_len(), 0);
    }
}
