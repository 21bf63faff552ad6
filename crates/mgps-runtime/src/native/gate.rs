//! The PPE-context gate: admission control for worker processes.
//!
//! The Cell PPE has two SMT hardware contexts; oversubscribing it with more
//! worker processes only helps if a process *yields its context while its
//! off-loaded task runs* (EDTLP). The baseline behaviour — spinning on the
//! context until the OS quantum expires — strands the other processes and
//! starves the SPEs (§5.2, Table 1).
//!
//! Natively, a "PPE context" is a slot in this gate: a process must hold a
//! slot to execute PPE-side code. [`PpeToken::offload`] implements the two
//! disciplines: under [`GateMode::YieldOnOffload`] the slot is released for
//! the duration of the off-load and re-acquired afterwards (paying the
//! 1.5 µs voluntary-switch cost); under [`GateMode::HoldDuringOffload`] the
//! slot is kept, so at most `contexts` processes can have tasks in flight.
//!
//! # Sharded slots
//!
//! The gate used to be a single `Mutex<usize>` free-slot counter plus a
//! condvar, so *every* acquire and release — including the completely
//! uncontended ones that dominate EDTLP steady state — serialized through
//! one lock, and the lock's own acquisition latency was booked as
//! "contention". It is now striped: one cache-line-padded atomic word per
//! hardware context, claimed by compare-and-swap with a rotating probe
//! start so concurrent acquirers target different stripes. The mutex and
//! condvar survive only on the slow path, where a process that found every
//! slot taken registers as a waiter and parks. `wait_ns` is charged only
//! on that slow path — genuine contention — measured once per acquisition
//! regardless of how many spurious wakeups the condvar delivers, and
//! accumulated with saturating arithmetic.

use std::sync::Arc;
use std::time::{Duration, Instant};

use super::sync::{AtomicU32, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};
use crate::events::{EventKind, SwitchReason};
use crate::metrics::{Counter, HistKind, MetricsSink, MetricsSinkExt, NopMetrics};
use crate::tracing::TraceHandle;

/// How a process treats its PPE context while an off-loaded task runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// EDTLP: voluntarily yield the context on off-load.
    YieldOnOffload,
    /// Baseline: spin on the context for the whole off-load.
    HoldDuringOffload,
}

/// One hardware context's slot word, padded to a cache line so two
/// processes claiming different contexts never bounce the same line.
#[repr(align(64))]
struct SlotWord(AtomicU32);

const SLOT_FREE: u32 = 0;
const SLOT_HELD: u32 = 1;

/// The gate guarding the PPE's hardware contexts.
pub struct PpeGate {
    /// Per-context slot words (the stripes).
    slots: Box<[SlotWord]>,
    /// Rotating probe start: spreads concurrent acquirers across stripes.
    probe: AtomicUsize,
    /// Slow path only: count of processes parked (or about to park) on
    /// `freed`. Registration happens under the mutex, so a releaser that
    /// locks it observes every registered waiter.
    waiters: Mutex<usize>,
    freed: Condvar,
    mode: GateMode,
    switch_cost: Duration,
    switches: AtomicU64,
    wait_ns: AtomicU64,
    metrics: Arc<dyn MetricsSink>,
}

impl PpeGate {
    /// A gate with `contexts` slots (2 on a Cell PPE), the given mode, and
    /// voluntary context-switch cost (1.5 µs measured in the paper).
    pub fn new(contexts: usize, mode: GateMode, switch_cost: Duration) -> PpeGate {
        PpeGate::with_metrics(contexts, mode, switch_cost, Arc::new(NopMetrics))
    }

    /// Like [`Self::new`], recording context switches and hold times into
    /// `metrics`.
    pub fn with_metrics(
        contexts: usize,
        mode: GateMode,
        switch_cost: Duration,
        metrics: Arc<dyn MetricsSink>,
    ) -> PpeGate {
        assert!(contexts > 0, "a PPE has at least one context");
        PpeGate {
            slots: (0..contexts).map(|_| SlotWord(AtomicU32::new(SLOT_FREE))).collect(),
            probe: AtomicUsize::new(0),
            waiters: Mutex::new(0),
            freed: Condvar::new(),
            mode,
            switch_cost,
            switches: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            metrics,
        }
    }

    /// Configured number of hardware contexts.
    pub fn contexts(&self) -> usize {
        self.slots.len()
    }

    /// The gate's off-load discipline.
    pub fn mode(&self) -> GateMode {
        self.mode
    }

    /// Voluntary context switches performed (yield + re-acquire pairs).
    pub fn switches(&self) -> u64 {
        self.switches.load(Ordering::Relaxed)
    }

    /// Cumulative time processes spent waiting for a context, ns. Only
    /// slow-path waits count: an uncontended claim contributes zero.
    pub fn contention_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }

    /// Block until a context is free, then claim it.
    pub fn enter(&self) -> PpeToken<'_> {
        let slot = self.acquire_slot();
        PpeToken { gate: self, slot, held: true, held_since: Instant::now() }
    }

    /// Try every stripe once, starting at the rotating probe hint.
    fn try_claim(&self) -> Option<usize> {
        let n = self.slots.len();
        let start = self.probe.fetch_add(1, Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % n;
            if self.slots[i]
                .0
                .compare_exchange(SLOT_FREE, SLOT_HELD, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Some(i);
            }
        }
        None
    }

    fn acquire_slot(&self) -> usize {
        // Fast path: a CAS per stripe, no lock, no wait accounting.
        if let Some(i) = self.try_claim() {
            return i;
        }
        // Slow path: register as a waiter and park. The wait is measured
        // exactly once — from slow-path entry to successful claim — so
        // spurious condvar wakeups cannot double-count it.
        let start = Instant::now();
        let mut waiting = self.waiters.lock();
        loop {
            if let Some(i) = self.try_claim() {
                drop(waiting);
                saturating_add(&self.wait_ns, elapsed_ns(start));
                return i;
            }
            *waiting += 1;
            self.freed.wait(&mut waiting);
            *waiting -= 1;
        }
    }

    fn release_slot(&self, slot: usize) {
        let prev = self.slots[slot].0.swap(SLOT_FREE, Ordering::Release);
        debug_assert_eq!(prev, SLOT_HELD, "gate over-released slot {slot}");
        // Lost-wakeup safety: waiters re-check `try_claim` under the mutex
        // before parking, and this lock acquisition orders the slot release
        // before that re-check. If the count is zero here, any concurrent
        // acquirer has yet to register and will see the freed slot itself.
        let waiting = self.waiters.lock();
        if *waiting > 0 {
            self.freed.notify_one();
        }
    }
}

/// Add `ns` to `counter` without wrapping at the top of the range.
fn saturating_add(counter: &AtomicU64, ns: u64) {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(ns);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// Nanoseconds since `start`, clamped instead of wrapped on overflow.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Proof that the holder occupies a PPE context.
pub struct PpeToken<'g> {
    gate: &'g PpeGate,
    slot: usize,
    held: bool,
    held_since: Instant,
}

impl PpeToken<'_> {
    /// Run `f` — a blocking wait on an off-loaded task — under the gate's
    /// discipline: yielding the context for the duration (EDTLP) or
    /// spinning on it (baseline).
    pub fn offload<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.offload_traced(None, f)
    }

    /// [`Self::offload`] with span tracing: if `trace` is given, a yield
    /// (EDTLP voluntary context switch) is recorded on the process's ring
    /// as `(handle, proc)`.
    pub fn offload_traced<T>(
        &mut self,
        trace: Option<(&TraceHandle, usize)>,
        f: impl FnOnce() -> T,
    ) -> T {
        match self.gate.mode {
            GateMode::HoldDuringOffload => f(),
            GateMode::YieldOnOffload => {
                let held_ns = elapsed_ns(self.held_since);
                let out = self.block_outside(f);
                self.gate.switches.fetch_add(1, Ordering::Relaxed);
                self.gate.metrics.incr(Counter::CtxSwitchOffload);
                if !self.gate.switch_cost.is_zero() {
                    spin_for(self.gate.switch_cost);
                }
                if let Some((t, proc)) = trace {
                    t.record(EventKind::CtxSwitch {
                        proc,
                        reason: SwitchReason::Offload,
                        held_ns,
                    });
                }
                out
            }
        }
    }

    /// Run `f` — a wait for anything that is *not* an off-load in flight,
    /// such as an empty work queue — outside the gate, whatever the mode:
    /// a process blocked in the OS occupies no hardware context under
    /// either discipline. The context is released for the duration and
    /// re-acquired (possibly a different one) before returning. Not an
    /// off-load switch: `switches` and the switch cost are untouched.
    pub fn block_outside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.observe_hold();
        self.gate.release_slot(self.slot);
        self.held = false;
        let out = f();
        self.slot = self.gate.acquire_slot();
        self.held = true;
        self.held_since = Instant::now();
        out
    }

    fn observe_hold(&self) {
        self.gate
            .metrics
            .observe(HistKind::CtxHoldNs, elapsed_ns(self.held_since));
    }

    /// Whether the token currently holds a context (always true outside
    /// [`Self::offload`]).
    pub fn holds_context(&self) -> bool {
        self.held
    }
}

impl Drop for PpeToken<'_> {
    fn drop(&mut self) {
        if self.held {
            self.observe_hold();
            self.gate.release_slot(self.slot);
        }
    }
}

fn spin_for(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// The retired mutex+condvar gate, kept verbatim (modulo the accounting
/// fix) as a differential oracle: unit tests drive the same deterministic
/// scripts through both designs and demand identical `switches` /
/// `wait_ns` totals.
#[cfg(test)]
mod classic {
    use super::*;

    /// The pre-sharding gate: one mutex-guarded free-slot counter.
    pub struct ClassicGate {
        slots: Mutex<usize>,
        freed: Condvar,
        pub switches: AtomicU64,
        pub wait_ns: AtomicU64,
    }

    impl ClassicGate {
        pub fn new(contexts: usize) -> ClassicGate {
            ClassicGate {
                slots: Mutex::new(contexts),
                freed: Condvar::new(),
                switches: AtomicU64::new(0),
                wait_ns: AtomicU64::new(0),
            }
        }

        pub fn acquire(&self) {
            let mut free = self.slots.lock();
            if *free == 0 {
                // Contended: measure once across however many wakeups.
                let start = Instant::now();
                while *free == 0 {
                    self.freed.wait(&mut free);
                }
                saturating_add(&self.wait_ns, elapsed_ns(start));
            }
            *free -= 1;
        }

        pub fn release(&self) {
            let mut free = self.slots.lock();
            *free += 1;
            drop(free);
            self.freed.notify_one();
        }

        /// A yield/re-acquire pair around `f`.
        pub fn offload<T>(&self, f: impl FnOnce() -> T) -> T {
            self.release();
            let out = f();
            self.acquire();
            self.switches.fetch_add(1, Ordering::Relaxed);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    #[test]
    fn gate_admits_up_to_capacity() {
        let gate = PpeGate::new(2, GateMode::YieldOnOffload, Duration::ZERO);
        let t1 = gate.enter();
        let t2 = gate.enter();
        assert!(t1.holds_context() && t2.holds_context());
        drop(t1);
        let t3 = gate.enter();
        assert!(t3.holds_context());
        drop(t2);
        drop(t3);
        assert!(gate.slots.iter().all(|s| s.0.load(Ordering::Relaxed) == SLOT_FREE));
    }

    #[test]
    fn yield_mode_releases_context_during_offload() {
        let gate = Arc::new(PpeGate::new(1, GateMode::YieldOnOffload, Duration::ZERO));
        let observed = Arc::new(StdAtomicUsize::new(0));

        // Hold the only context, then offload; a second thread must be able
        // to enter while the offload is in flight.
        let g = Arc::clone(&gate);
        let obs = Arc::clone(&observed);
        let waiter = std::thread::spawn(move || {
            let _t = g.enter();
            obs.store(1, std::sync::atomic::Ordering::SeqCst);
        });

        let mut t = gate.enter();
        t.offload(|| {
            // Wait until the other thread managed to get in.
            while observed.load(std::sync::atomic::Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        });
        assert!(t.holds_context());
        waiter.join().unwrap();
        assert_eq!(gate.switches(), 1);
    }

    #[test]
    fn hold_mode_keeps_context_during_offload() {
        let gate = Arc::new(PpeGate::new(1, GateMode::HoldDuringOffload, Duration::ZERO));
        let entered = Arc::new(StdAtomicUsize::new(0));

        let mut t = gate.enter();
        let g = Arc::clone(&gate);
        let e = Arc::clone(&entered);
        let waiter = std::thread::spawn(move || {
            let _t = g.enter();
            e.store(1, std::sync::atomic::Ordering::SeqCst);
        });
        t.offload(|| {
            // Give the waiter ample chance; it must NOT get in.
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                entered.load(std::sync::atomic::Ordering::SeqCst),
                0,
                "context leaked during hold-mode offload"
            );
        });
        assert_eq!(gate.switches(), 0);
        drop(t);
        waiter.join().unwrap();
        assert_eq!(entered.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn blocking_outside_frees_the_context_in_either_mode() {
        for mode in [GateMode::YieldOnOffload, GateMode::HoldDuringOffload] {
            let gate = Arc::new(PpeGate::new(1, mode, Duration::ZERO));
            let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel(1);

            let mut t = gate.enter();
            let g = Arc::clone(&gate);
            let waiter = std::thread::spawn(move || {
                let _t = g.enter();
                entered_tx.send(()).unwrap();
            });
            // Returns only once the waiter got the sole context.
            t.block_outside(|| entered_rx.recv().unwrap());
            assert!(t.holds_context());
            waiter.join().unwrap();
            assert_eq!(gate.switches(), 0, "an idle wait is not an off-load switch");
        }
    }

    #[test]
    fn contention_time_is_recorded() {
        let gate = Arc::new(PpeGate::new(1, GateMode::YieldOnOffload, Duration::ZERO));
        let t = gate.enter();
        let g = Arc::clone(&gate);
        let h = std::thread::spawn(move || {
            let _t = g.enter(); // must wait ~10ms
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(t);
        h.join().unwrap();
        assert!(gate.contention_ns() >= 5_000_000, "got {}ns", gate.contention_ns());
    }

    #[test]
    fn uncontended_acquires_record_zero_contention() {
        // The old gate booked its own lock-acquisition latency as wait
        // time; the sharded fast path must book exactly nothing.
        let gate = PpeGate::new(2, GateMode::YieldOnOffload, Duration::ZERO);
        for _ in 0..100 {
            let mut t = gate.enter();
            t.offload(|| {});
        }
        assert_eq!(gate.contention_ns(), 0);
        assert_eq!(gate.switches(), 100);
    }

    #[test]
    fn switch_cost_is_paid_on_reacquire() {
        let gate = PpeGate::new(1, GateMode::YieldOnOffload, Duration::from_micros(500));
        let mut t = gate.enter();
        let start = Instant::now();
        t.offload(|| {});
        assert!(start.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn contention_accounting_does_not_double_count_wakeups() {
        // Capacity 1, three contenders churning enter/offload/drop: every
        // park/wake cycle re-runs the slow-path loop, so a double-counting
        // bug inflates wait_ns beyond physical time. Total recorded wait
        // can never exceed contenders × wall clock.
        let gate = Arc::new(PpeGate::new(1, GateMode::YieldOnOffload, Duration::ZERO));
        let start = Instant::now();
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let g = Arc::clone(&gate);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let mut t = g.enter();
                        t.offload(std::thread::yield_now);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let wall = elapsed_ns(start);
        assert!(
            gate.contention_ns() <= wall.saturating_mul(3),
            "wait_ns {} exceeds 3x wall {}",
            gate.contention_ns(),
            wall
        );
        assert_eq!(gate.switches(), 600);
    }

    #[test]
    fn wait_accounting_saturates_instead_of_wrapping() {
        let c = AtomicU64::new(u64::MAX - 5);
        saturating_add(&c, 100);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
        saturating_add(&c, 1);
        assert_eq!(c.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn sharded_gate_matches_classic_gate_on_seeded_single_thread_run() {
        // The differential satellite: one thread, a deterministic script of
        // enter / offload / drop derived from a seed, run through both the
        // sharded gate and the retired mutex+condvar design. Totals must be
        // identical: the redesign may change *how* slots are claimed, never
        // *what* the accounting reports.
        let seed = 0xC0FFEEu64;
        let script: Vec<usize> = (0..40u64)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i.wrapping_mul(1442695040888963407));
                (x >> 33) as usize % 4
            })
            .collect();

        let sharded = PpeGate::new(2, GateMode::YieldOnOffload, Duration::ZERO);
        for &offloads in &script {
            let mut t = sharded.enter();
            for _ in 0..offloads {
                t.offload(|| {});
            }
        }

        let old = classic::ClassicGate::new(2);
        for &offloads in &script {
            old.acquire();
            for _ in 0..offloads {
                old.offload(|| {});
            }
            old.release();
        }

        assert_eq!(sharded.switches(), old.switches.load(Ordering::Relaxed));
        // Single-threaded: neither design ever waits, and neither may book
        // phantom contention (the old accounting bug charged uncontended
        // lock latency here).
        assert_eq!(sharded.contention_ns(), 0);
        assert_eq!(sharded.contention_ns(), old.wait_ns.load(Ordering::Relaxed));
    }

    #[test]
    fn stripes_spread_concurrent_holders() {
        // With capacity 2 and two tokens held, both slot words are taken.
        let gate = PpeGate::new(2, GateMode::YieldOnOffload, Duration::ZERO);
        let t1 = gate.enter();
        let t2 = gate.enter();
        let held: u32 = gate.slots.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        assert_eq!(held, 2);
        drop(t1);
        drop(t2);
    }
}
