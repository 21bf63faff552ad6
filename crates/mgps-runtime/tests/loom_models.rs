//! Loom model checks for the native runtime's synchronization skeleton.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p mgps-runtime --test loom_models
//! ```
//!
//! Under `--cfg loom` the whole `mgps-runtime::native` module locks through
//! [`mgps_runtime::native::sync`]'s loom-backed shims, and `loom::model`
//! re-executes each scenario across many perturbed schedules. Each test
//! asserts a schedule-independent invariant:
//!
//! * the PPE gate never admits more holders than it has hardware contexts,
//!   and yield-on-offload really does hand the context to a waiter;
//! * a team's chunks are each claimed and run exactly once, by the worker
//!   they were cut for or by the master, and every partial is merged
//!   before `parallel_reduce` returns (the team barrier); the last
//!   finisher's countdown never loses the parked master's wake-up, a
//!   panicking worker's included;
//! * a loop that runs more than one round runs every iteration exactly once
//!   *per round*, each round seeing what the one before it published, when
//!   a held worker is still on its way out of a round as the master opens
//!   the next, and the closing of the team never leaves a worker parked —
//!   also when a site's wake verdict flips between invocations, from the
//!   master alone to a woken team and back;
//! * an off-load that finds every SPE reserved waits in the pool's
//!   reservation and is woken when one goes idle — the return to the idle
//!   set reads the waiter count under the lock the waiter registers under,
//!   so no wake-up is lost — and returns with its SPE idle and counted.
#![cfg(loom)]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mgps_runtime::metrics::{AtomicMetrics, Counter};
use mgps_runtime::native::{
    GateMode, LoopBody, LoopSite, OffloadError, PpeGate, SpeContext, SpePool, TeamRunner,
};

#[test]
fn gate_capacity_is_never_exceeded() {
    loom::model(|| {
        let gate = Arc::new(PpeGate::new(2, GateMode::YieldOnOffload, Duration::ZERO));
        let holders = Arc::new(AtomicUsize::new(0));

        let threads: Vec<_> = (0..3)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let holders = Arc::clone(&holders);
                loom::thread::spawn(move || {
                    let token = gate.enter();
                    let now = holders.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(now <= gate.contexts(), "{now} holders on a 2-context gate");
                    loom::thread::yield_now();
                    holders.fetch_sub(1, Ordering::SeqCst);
                    drop(token);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(holders.load(Ordering::SeqCst), 0);
    });
}

#[test]
fn yield_on_offload_hands_the_context_to_a_waiter() {
    loom::model(|| {
        let gate = Arc::new(PpeGate::new(1, GateMode::YieldOnOffload, Duration::ZERO));
        let entered = Arc::new(AtomicUsize::new(0));

        let mut token = gate.enter();
        let waiter = {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            loom::thread::spawn(move || {
                let _t = gate.enter();
                entered.store(1, Ordering::SeqCst);
            })
        };

        // With the sole context held and then yielded for the off-load, the
        // waiter must be able to get in before the off-load completes — in
        // every schedule, or this spin never terminates.
        token.offload(|| {
            while entered.load(Ordering::SeqCst) == 0 {
                loom::thread::yield_now();
            }
        });
        assert!(token.holds_context());
        waiter.join().unwrap();
        assert_eq!(gate.switches(), 1);
    });
}

#[test]
fn sharded_gate_slow_path_never_loses_a_wakeup() {
    loom::model(|| {
        // Capacity 1 with two releasers and one late acquirer: the acquirer
        // misses the CAS fast path in some schedules and must park on the
        // slow-path condvar. In every schedule it must eventually claim a
        // stripe — a lost wakeup shows up as a loom hang — and contention
        // accounting must stay monotone (never wrap from saturation bugs).
        let gate = Arc::new(PpeGate::new(1, GateMode::YieldOnOffload, Duration::ZERO));
        let first = {
            let gate = Arc::clone(&gate);
            loom::thread::spawn(move || {
                let token = gate.enter();
                loom::thread::yield_now();
                drop(token);
            })
        };
        let second = {
            let gate = Arc::clone(&gate);
            loom::thread::spawn(move || {
                let token = gate.enter();
                drop(token);
            })
        };
        let token = gate.enter();
        drop(token);
        first.join().unwrap();
        second.join().unwrap();
        assert!(gate.contention_ns() < u64::MAX);
        // All stripes free again once every holder is gone.
        let t = gate.enter();
        assert!(t.holds_context());
    });
}

/// Counts its chunk invocations so the barrier check can prove every
/// worker's partial was produced and merged exactly once.
struct CountingSum {
    len: usize,
    chunks: AtomicUsize,
}

impl LoopBody for CountingSum {
    type Acc = u64;

    fn len(&self) -> usize {
        self.len
    }

    fn identity(&self) -> u64 {
        0
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u64 {
        self.chunks.fetch_add(1, Ordering::SeqCst);
        range.map(|i| i as u64 + 1).sum()
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

#[test]
fn team_barrier_merges_every_partial_exactly_once() {
    loom::model(|| {
        let pool = Arc::new(SpePool::new(3, Duration::ZERO));
        let team = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        let body = Arc::new(CountingSum { len: 12, chunks: AtomicUsize::new(0) });

        let acc = team
            .parallel_reduce(LoopSite(1), 3, Arc::clone(&body))
            .expect("no panics in the loop body");

        // The reduction over 1..=12 is schedule-independent, and by the
        // time parallel_reduce returns, exactly `degree` chunks ran: the
        // master must have waited on every worker's Pass (the barrier).
        assert_eq!(acc, (1..=12).sum::<u64>());
        assert_eq!(body.chunks.load(Ordering::SeqCst), 3);
    });
}

/// Counts every iteration it is handed, and stalls chunks that run off the
/// calling thread — the workers' — so that the master's claims and its park
/// race them in both orders. `worker_bomb` makes those chunks panic instead
/// of returning.
struct RacedLoop {
    master: std::thread::ThreadId,
    runs: Vec<AtomicUsize>,
    worker_bomb: bool,
    worker_panics: AtomicUsize,
}

impl RacedLoop {
    fn new(len: usize, worker_bomb: bool) -> Arc<RacedLoop> {
        Arc::new(RacedLoop {
            master: std::thread::current().id(),
            runs: (0..len).map(|_| AtomicUsize::new(0)).collect(),
            worker_bomb,
            worker_panics: AtomicUsize::new(0),
        })
    }

    fn sum(&self) -> u64 {
        (1..=self.runs.len() as u64).sum()
    }

    fn assert_every_iteration_ran_once(&self) {
        let runs: Vec<usize> = self.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert!(runs.iter().all(|&r| r == 1), "iterations run {runs:?} times");
    }
}

impl LoopBody for RacedLoop {
    type Acc = u64;

    fn len(&self) -> usize {
        self.runs.len()
    }

    fn identity(&self) -> u64 {
        0
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u64 {
        if std::thread::current().id() != self.master {
            loom::thread::yield_now();
            if self.worker_bomb {
                self.worker_panics.fetch_add(1, Ordering::SeqCst);
                panic!("injected failure");
            }
        }
        for i in range.clone() {
            self.runs[i].fetch_add(1, Ordering::SeqCst);
        }
        range.map(|i| i as u64 + 1).sum()
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }
}

/// A pool of `n_spes` and the sink it books into: its `TasksCompleted`
/// counts the pool's jobs.
fn counted(n_spes: usize) -> (Arc<SpePool>, Arc<AtomicMetrics>) {
    let metrics = Arc::new(AtomicMetrics::new());
    (Arc::new(SpePool::with_metrics(n_spes, Arc::<AtomicMetrics>::clone(&metrics))), metrics)
}

/// Worker jobs book themselves after their chunk is counted down.
fn settle(pool: &SpePool) {
    while pool.idle_count() < pool.n_spes() {
        loom::thread::yield_now();
    }
}

#[test]
fn chunk_claim_is_exactly_once_under_a_racing_master_and_worker() {
    loom::model(|| {
        // Degree 2: the master, done with chunk 0, goes for chunk 1 while
        // the woken worker does. Whoever loses must leave it alone.
        let (pool, metrics) = counted(2);
        let team = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        team.pin(Some(true));
        for _ in 0..4 {
            let body = RacedLoop::new(6, false);
            let acc = team.parallel_reduce(LoopSite(2), 2, Arc::clone(&body));
            assert_eq!(acc, Ok(body.sum()));
            body.assert_every_iteration_ran_once();
        }
        settle(&pool);
        assert_eq!(
            metrics.get(Counter::TasksCompleted),
            8,
            "one job per team member, whoever ran the chunks"
        );
    });
}

#[test]
fn last_countdown_racing_the_masters_park_loses_no_wakeup() {
    loom::model(|| {
        // Three stalled workers count down around the instant the master
        // parks: a lost wake-up hangs the model.
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let team = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        team.pin(Some(true));
        for _ in 0..4 {
            let body = RacedLoop::new(8, false);
            let acc = team.parallel_reduce(LoopSite(3), 4, Arc::clone(&body));
            assert_eq!(acc, Ok(body.sum()));
            body.assert_every_iteration_ran_once();
        }
    });
}

#[test]
fn panicking_worker_racing_the_park_still_releases_the_master() {
    loom::model(|| {
        let (pool, metrics) = counted(3);
        let team = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        team.pin(Some(true));
        let mut panics = 0;
        for _ in 0..4 {
            let body = RacedLoop::new(6, true);
            let acc = team.parallel_reduce(LoopSite(4), 3, Arc::clone(&body));
            // A chunk the master got to first ran fine; one a worker ran
            // blew up, and the invocation with it.
            let blown = body.worker_panics.load(Ordering::SeqCst);
            if blown == 0 {
                assert_eq!(acc, Ok(body.sum()));
                body.assert_every_iteration_ran_once();
            } else {
                assert_eq!(acc, Err(OffloadError::TaskPanicked));
            }
            panics += blown as u64;
        }
        settle(&pool);
        assert_eq!((pool.panics(), metrics.get(Counter::TasksCompleted)), (panics, 12));
    });
}

/// Two rounds: the second adds the first's merged sum to every iteration,
/// so its own sum certifies that each chunk of round two ran after — and
/// saw — round one's verdict, exactly once. Chunks off the calling thread
/// stall, so a held worker leaves a round late in some schedules.
struct TwoRounds {
    master: std::thread::ThreadId,
    carry: AtomicUsize,
    asked: AtomicUsize,
    runs: Vec<AtomicUsize>,
}

impl LoopBody for TwoRounds {
    type Acc = u64;

    fn len(&self) -> usize {
        self.runs.len()
    }

    fn identity(&self) -> u64 {
        0
    }

    fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u64 {
        if std::thread::current().id() != self.master {
            loom::thread::yield_now();
        }
        for i in range.clone() {
            self.runs[i].fetch_add(1, Ordering::SeqCst);
        }
        // Relaxed: the runtime's hand-over is what orders this after `again`.
        let carry = self.carry.load(Ordering::Relaxed) as u64;
        range.map(|i| i as u64 + 1 + carry).sum()
    }

    fn merge(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn again(&self, merged: &mut u64) -> bool {
        self.carry.store(*merged as usize, Ordering::Relaxed);
        self.asked.fetch_add(1, Ordering::Relaxed) == 0
    }
}

impl TwoRounds {
    /// One two-round invocation of four iterations at degree 2 on `site`,
    /// checked: the right sum, every iteration run once per round.
    fn run_on(team: &TeamRunner, site: LoopSite) {
        let body = Arc::new(TwoRounds {
            master: std::thread::current().id(),
            carry: AtomicUsize::new(0),
            asked: AtomicUsize::new(0),
            runs: (0..4).map(|_| AtomicUsize::new(0)).collect(),
        });
        let acc = team.parallel_reduce(site, 2, Arc::clone(&body));
        // Round one sums 1..=4; round two adds that 10 to each of four.
        assert_eq!(acc, Ok(10 + 4 * 10));
        let runs: Vec<usize> = body.runs.iter().map(|r| r.load(Ordering::SeqCst)).collect();
        assert!(runs.iter().all(|&r| r == 2), "iterations run {runs:?} times in two rounds");
    }
}

#[test]
fn a_worker_late_out_of_one_round_cannot_disturb_the_next() {
    loom::model(|| {
        // Degree 2, twice over: the master opens the held round — countdown
        // restored, claims cleared, round number moved — while the worker
        // may still be leaving the one before, be parked, or not have
        // started. The third SPE lets the held team form while the first
        // round's worker has yet to wake: it then claims in a later round.
        let (pool, metrics) = counted(3);
        let team = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        team.pin(Some(true));
        for _ in 0..2 {
            TwoRounds::run_on(&team, LoopSite(6));
        }
        // Closing the team released the held worker: every SPE is back.
        settle(&pool);
        assert_eq!(
            metrics.get(Counter::TasksCompleted),
            8,
            "a first team and a held one, two members each, twice"
        );
    });
}

#[test]
fn a_site_that_flips_to_waking_strands_no_worker() {
    loom::model(|| {
        // One site, its verdict flipped between invocations: the master
        // alone for both rounds, then a woken team held into the second
        // round, then the master alone again while that team's workers
        // may still be on their way out. Nothing settles in between.
        let (pool, metrics) = counted(3);
        let team = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        for wake in [false, true, false] {
            team.pin(Some(wake));
            TwoRounds::run_on(&team, LoopSite(7));
        }
        settle(&pool);
        // One job on the master for each solo invocation; two members for
        // the woken round and two for the held one.
        assert_eq!(metrics.get(Counter::TasksCompleted), 1 + 4 + 1);
    });
}

#[test]
fn a_reservation_waiting_for_the_only_spe_is_never_stranded() {
    loom::model(|| {
        // One SPE, two callers off-loading twice each: whoever finds it
        // reserved waits in `reserve`, and the other's `go_idle` reads the
        // waiter count in both orders around the registration. A lost
        // wake-up hangs the model.
        let (pool, metrics) = counted(1);
        let callers: Vec<_> = (0..2u64)
            .map(|c| {
                let pool = Arc::clone(&pool);
                loom::thread::spawn(move || {
                    for i in 0..2 {
                        let got = pool
                            .offload(move |_| {
                                loom::thread::yield_now();
                                c * 10 + i
                            })
                            .wait();
                        assert_eq!(got, Ok(c * 10 + i));
                    }
                })
            })
            .collect();
        for t in callers {
            t.join().unwrap();
        }
        // Every off-load returned with its SPE idle and counted.
        assert_eq!((metrics.get(Counter::TasksCompleted), pool.idle_count()), (4, 1));
    });
}
