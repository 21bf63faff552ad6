//! Native span tracing: per-thread, lock-free, fixed-capacity event rings.
//!
//! The simulator records a structured `RunLog` as it schedules; the native
//! engine executes on real host threads, where stopping to take a lock (or
//! to grow a `Vec`) on the off-load hot path would perturb the very timings
//! MGPS adapts to. This module closes that gap with a design that never
//! blocks a recording thread:
//!
//! * **One ring per recording thread.** [`Tracer::handle`] hands out a
//!   [`TraceHandle`] backed by a freshly registered ring. A handle is not
//!   `Clone`: each ring has exactly one writer, so recording is a plain
//!   store — no CAS loop, no contention, no lock.
//! * **Fixed capacity, keep-first, drop-counted.** A ring holds at most
//!   its configured number of events. Once full, further events are
//!   *counted* (an atomic increment) and discarded; memory stays bounded
//!   and the hot path stays wait-free. Drops are surfaced, never silently
//!   absorbed: [`TraceLog::dropped_events`] reports them and the
//!   `mgps-analysis` native-sanity check turns a non-zero count into a
//!   violation.
//! * **One clock.** All timestamps come from the tracer's [`TraceClock`] —
//!   a single monotonic epoch read as integer nanoseconds. It is the
//!   *only* permitted wall-clock reader in this file (`cargo xtask lint`
//!   enforces this), so every event in every ring is comparable and
//!   per-ring timestamps are monotone by construction.
//!
//! Draining ([`Tracer::drain`]) snapshots every ring: published slots are
//! immutable once written (the writer only appends, releasing the new
//! length), so a concurrent drain sees a consistent prefix. Rings hold
//! [`crate::events::EventKind`] — the one vocabulary the simulator also
//! records — so `mgps_obs::runlog_from_trace` only merges the rings, sorts
//! stably by `(at_ns, rank)` and numbers the result; the checker, the
//! phase/timeline folds, and the Chrome-trace exporter then work on native
//! runs unchanged.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant; // xtask-allow: trace-clock — TraceClock is the designated owner of the host clock

/// Default per-ring capacity (events). At ~80 bytes an event this bounds a
/// ring at well under a megabyte.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// The designated monotonic clock: integer nanoseconds since the tracer's
/// epoch. This is the only type allowed to touch the host clock on the
/// tracing path.
#[derive(Debug, Clone, Copy)]
pub struct TraceClock {
    epoch: Instant, // xtask-allow: trace-clock — the epoch TraceClock measures from
}

impl TraceClock {
    fn new() -> TraceClock {
        TraceClock { epoch: Instant::now() } // xtask-allow: trace-clock — the one sanctioned clock read
    }

    /// Nanoseconds elapsed since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

use crate::events::EventKind;
// The old name, kept only for `benchmark/src/boot.rs`: the frozen harness
// matches `Offload { task, .. }` / `TaskStart { task, .. }` through it.
// In-tree code says `EventKind`.
pub use crate::events::EventKind as TraceEventKind;

/// One recorded event: a timestamp from the tracer's clock plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (ns since the tracer's epoch).
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

// Ring memory is `capacity × size_of::<TraceEvent>()` per recording
// thread; a vocabulary change must not silently grow every slot.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 80);

/// A single-writer event ring. Slots below the published length are
/// write-once; the writer only appends, so concurrent readers see a
/// consistent, immutable prefix.
struct ThreadRing {
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    /// Published event count; stored with `Release` after the slot write.
    len: AtomicUsize,
    /// Events discarded after the ring filled.
    dropped: AtomicU64,
}

// SAFETY: slot `i` is written exactly once (by the single TraceHandle
// owner) before `len` is released past it, and never touched again until
// Drop; readers only dereference slots below an `Acquire`-loaded `len`.
unsafe impl Sync for ThreadRing {}
unsafe impl Send for ThreadRing {}

impl ThreadRing {
    fn new(capacity: usize) -> ThreadRing {
        let slots = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ThreadRing { slots, len: AtomicUsize::new(0), dropped: AtomicU64::new(0) }
    }

    /// Called only by the owning [`TraceHandle`].
    fn push(&self, ev: TraceEvent) {
        let n = self.len.load(Ordering::Relaxed);
        if n < self.slots.len() {
            // SAFETY: single writer; slot n is unpublished and uninit.
            unsafe { (*self.slots[n].get()).write(ev) };
            self.len.store(n + 1, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The published events from index `from` on, and the drop count.
    fn snapshot(&self, from: usize) -> ThreadTrace {
        let n = self.len.load(Ordering::Acquire);
        let events = (from..n)
            // SAFETY: slots below the acquired len are initialized and
            // immutable (the writer never rewrites a published slot).
            .map(|i| unsafe { (*self.slots[i].get()).assume_init_ref() }.clone())
            .collect();
        ThreadTrace { events, dropped: self.dropped.load(Ordering::Relaxed) }
    }
}

impl Drop for ThreadRing {
    fn drop(&mut self) {
        let n = *self.len.get_mut();
        for slot in &mut self.slots[..n] {
            // SAFETY: slots below len are initialized; we have &mut self.
            unsafe { slot.get_mut().assume_init_drop() };
        }
    }
}

/// The single writing end of one ring. Not `Clone` — one owner, one
/// writer, so [`TraceHandle::record`] is wait-free.
pub struct TraceHandle {
    ring: Arc<ThreadRing>,
    clock: TraceClock,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("len", &self.ring.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceHandle {
    /// Record `kind` now. Never blocks; once the ring is full the event is
    /// dropped and counted instead.
    pub fn record(&self, kind: EventKind) {
        self.ring.push(TraceEvent { at_ns: self.clock.now_ns(), kind });
    }

    /// Record `kind` at an explicitly captured stamp from this tracer's
    /// clock. Two producers need this instead of [`TraceHandle::record`]:
    /// job admission/start stamps are taken under the admission lock so
    /// their order is the FIFO order, and `JobCompleted` is stamped at the
    /// instant its partition terms telescope to, keeping the partition
    /// exact. `at_ns` must not precede earlier events in this ring.
    pub fn record_at(&self, at_ns: u64, kind: EventKind) {
        self.ring.push(TraceEvent { at_ns, kind });
    }

    /// Current time on the tracer's clock, ns.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }
}

/// The events one ring captured, plus its drop count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Events in recording order (timestamps monotone within a ring).
    pub events: Vec<TraceEvent>,
    /// Events discarded after the ring filled.
    pub dropped: u64,
}

/// A drained snapshot of every ring a [`Tracer`] handed out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// One entry per [`TraceHandle`], in registration order.
    pub threads: Vec<ThreadTrace>,
}

impl TraceLog {
    /// Total events captured across all rings.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events dropped across all rings.
    pub fn dropped_events(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }
}

/// The trace collector: owns the clock and the ring registry.
///
/// Construction and [`Tracer::handle`] registration take a mutex (once per
/// recording thread, off the hot path); recording itself never does.
pub struct Tracer {
    clock: TraceClock,
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("capacity", &self.capacity).finish()
    }
}

impl Tracer {
    /// A tracer whose rings each hold `capacity_per_thread` events.
    ///
    /// # Panics
    /// Panics if `capacity_per_thread == 0`.
    pub fn new(capacity_per_thread: usize) -> Arc<Tracer> {
        assert!(capacity_per_thread > 0, "a trace ring needs at least one slot");
        Arc::new(Tracer {
            clock: TraceClock::new(),
            capacity: capacity_per_thread,
            rings: Mutex::new(Vec::new()),
        })
    }

    /// A tracer with [`DEFAULT_RING_CAPACITY`]-event rings.
    pub fn with_default_capacity() -> Arc<Tracer> {
        Tracer::new(DEFAULT_RING_CAPACITY)
    }

    /// Register a new ring and return its (sole) writing handle. Call once
    /// per recording thread / owner, not per event.
    pub fn handle(&self) -> TraceHandle {
        let ring = Arc::new(ThreadRing::new(self.capacity));
        self.rings.lock().expect("tracer registry poisoned").push(Arc::clone(&ring));
        TraceHandle { ring, clock: self.clock }
    }

    /// Current time on the tracer's clock, ns.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Snapshot every ring. Safe to call while recording continues (each
    /// ring contributes its published prefix); for a complete log, quiesce
    /// the traced runtime first.
    pub fn drain(&self) -> TraceLog {
        self.drain_since(&mut Vec::new())
    }

    /// Snapshot what every ring published past `cursors` (one per ring,
    /// in registration order; a ring registered since the last call
    /// starts at 0) and advance each cursor past it. Each ring still
    /// reports its total drop count, so [`TraceLog::dropped_events`] is
    /// the run's, not the interval's. A live reader polling this copies
    /// each event once, however long the run.
    pub fn drain_since(&self, cursors: &mut Vec<usize>) -> TraceLog {
        let rings = self.rings.lock().expect("tracer registry poisoned");
        cursors.resize(rings.len(), 0);
        let threads = rings
            .iter()
            .zip(cursors.iter_mut())
            .map(|(ring, cursor)| {
                let t = ring.snapshot(*cursor);
                *cursor += t.events.len();
                t
            })
            .collect();
        TraceLog { threads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_record_in_order_with_monotone_timestamps() {
        let tracer = Tracer::new(64);
        let h = tracer.handle();
        for task in 0..10u64 {
            h.record(EventKind::Offload { proc: 0, task });
        }
        let log = tracer.drain();
        assert_eq!(log.threads.len(), 1);
        let t = &log.threads[0];
        assert_eq!(t.events.len(), 10);
        assert_eq!(t.dropped, 0);
        for w in t.events.windows(2) {
            assert!(w[0].at_ns <= w[1].at_ns, "per-ring timestamps must be monotone");
        }
        for (i, e) in t.events.iter().enumerate() {
            assert_eq!(e.kind, EventKind::Offload { proc: 0, task: i as u64 });
        }
    }

    #[test]
    fn overflow_keeps_first_events_and_counts_drops() {
        let tracer = Tracer::new(4);
        let h = tracer.handle();
        for task in 0..9u64 {
            h.record(EventKind::Offload { proc: 1, task });
        }
        let t = &tracer.drain().threads[0];
        assert_eq!(t.events.len(), 4, "ring keeps its first `capacity` events");
        assert_eq!(t.dropped, 5, "the overflow is counted, not silently absorbed");
        assert_eq!(t.events[3].kind, EventKind::Offload { proc: 1, task: 3 });
        assert_eq!(tracer.drain().dropped_events(), 5);
    }

    #[test]
    fn drain_since_returns_each_event_once_and_the_total_drops() {
        let tracer = Tracer::new(4);
        let a = tracer.handle();
        let mut cursors = Vec::new();
        a.record(EventKind::Offload { proc: 0, task: 0 });
        a.record(EventKind::Offload { proc: 0, task: 1 });
        let first = tracer.drain_since(&mut cursors);
        assert_eq!(first.total_events(), 2);
        assert_eq!(cursors, vec![2]);
        assert_eq!(tracer.drain_since(&mut cursors).total_events(), 0, "nothing new");

        // A ring registered later starts at its first event; a full ring
        // reports every drop on every read.
        let b = tracer.handle();
        b.record(EventKind::Offload { proc: 1, task: 2 });
        for task in 3..7 {
            a.record(EventKind::Offload { proc: 0, task });
        }
        let next = tracer.drain_since(&mut cursors);
        assert_eq!(cursors, vec![4, 1]);
        let tasks = |t: &ThreadTrace| {
            t.events
                .iter()
                .map(|e| match e.kind {
                    EventKind::Offload { task, .. } => task,
                    ref other => panic!("unexpected event {other:?}"),
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(tasks(&next.threads[0]), vec![3, 4]);
        assert_eq!(tasks(&next.threads[1]), vec![2]);
        assert_eq!(next.dropped_events(), 2);
        assert_eq!(tracer.drain_since(&mut cursors).dropped_events(), 2);
        let full = tracer.drain();
        assert_eq!(tasks(&full.threads[0]), vec![0, 1, 3, 4], "a full drain starts at 0");
        assert_eq!(full.dropped_events(), 2);
    }

    #[test]
    fn rings_are_independent_per_handle() {
        let tracer = Tracer::new(16);
        let a = tracer.handle();
        let b = tracer.handle();
        a.record(EventKind::CodeReload { spe: 0, stall_ns: 10 });
        b.record(EventKind::CodeReload { spe: 1, stall_ns: 20 });
        b.record(EventKind::CodeReload { spe: 1, stall_ns: 30 });
        let log = tracer.drain();
        assert_eq!(log.threads[0].events.len(), 1);
        assert_eq!(log.threads[1].events.len(), 2);
        assert_eq!(log.total_events(), 3);
    }

    #[test]
    fn concurrent_writers_drain_consistently() {
        let tracer = Tracer::new(1024);
        std::thread::scope(|scope| {
            for p in 0..4usize {
                let h = tracer.handle();
                scope.spawn(move || {
                    for task in 0..256u64 {
                        h.record(EventKind::Offload { proc: p, task });
                    }
                });
            }
            // Drain mid-flight: must see a consistent prefix per ring.
            let partial = tracer.drain();
            for t in &partial.threads {
                for w in t.events.windows(2) {
                    assert!(w[0].at_ns <= w[1].at_ns);
                }
            }
        });
        let full = tracer.drain();
        assert_eq!(full.total_events(), 4 * 256);
        assert_eq!(full.dropped_events(), 0);
    }

    #[test]
    fn payloads_with_allocations_survive_snapshot_and_drop() {
        let tracer = Tracer::new(8);
        let h = tracer.handle();
        h.record(EventKind::TaskStart { proc: 0, task: 7, degree: 2, team: vec![3, 5] });
        let log = tracer.drain();
        match &log.threads[0].events[0].kind {
            EventKind::TaskStart { team, .. } => assert_eq!(team, &[3, 5]),
            other => panic!("unexpected event {other:?}"),
        }
        drop(log);
        drop(tracer); // exercises ThreadRing::drop over initialized slots
    }
}
