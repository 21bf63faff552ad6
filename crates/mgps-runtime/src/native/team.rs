//! Loop work-sharing across virtual SPEs (§5.3).
//!
//! One off-loaded function containing a parallel loop executes on a *team*:
//! a master SPE plus `degree - 1` workers. The master signals the workers,
//! runs its own (bias-enlarged) chunk, and merges every chunk's partial
//! result into the final value. Idle periods are timed on every invocation
//! and fed to a per-site [`LoadBalancer`] that tunes the master's
//! head-start compensation.
//!
//! # The off-loading thread is the master
//!
//! The thread that calls `parallel_reduce` reserves the team and then *is*
//! its master: it drives the master SPE's context itself
//! (`SpePool::run_here`) rather than waking another thread to do so and
//! waiting for that thread's reply. This holds at every degree: a
//! single-SPE off-load is a team of one, its master the off-loading thread
//! running the loop's one chunk, with no verdict asked and no balancer fed
//! — the pool has no other way to run an off-load. The loop is described
//! once, in one shared `Round`: the chunk ranges, a claim flag and a
//! result slot per chunk, and a countdown of unfinished chunks. Each woken
//! worker claims its own chunk, or returns at once if it is gone; the
//! master runs chunk 0 and then every chunk nobody has claimed yet, in
//! index order — so a worker that wakes late costs its own wake-up, not
//! the loop's latency, which is how the paper's master absorbs worker
//! start-up (§5.3). The master parks only while chunks claimed by workers
//! are unfinished, and the last finisher wakes it only if it did park.
//! Partials are merged in chunk order, so a loop's result does not depend
//! on who finished first.
//!
//! # Waking the team only when it pays
//!
//! Before it reserves anything, a loop site asks its balancer whether
//! waking workers pays ([`LoadBalancer::wake`]: §5.2's test one level down,
//! the team's cheapest invocation against the master's cheapest alone). If
//! it does not, the invocation reserves the master SPE only, wakes nobody,
//! and the master runs every chunk of the same tiling — the `Round` above
//! with no worker in it, merged in the same chunk order, so the result has
//! the same bits either way — and every round of a body that asks for
//! more. The trace names the SPEs reserved: `TaskStart`'s team is the
//! master alone, and every `Chunk` names it.
//!
//! # More than one round
//!
//! A loop whose next pass consumes this pass's reduction — §5.3's reason
//! for the `Pass` structure — says so through [`LoopBody::again`]: asked
//! once per round with the merged value, `true` runs every chunk again
//! over the same ranges, inside the same off-load. The first round is the
//! path above, untouched, so a one-round loop pays nothing for the
//! question. A body that answers `true` is then given a team that *stays*:
//! reserved once, the master SPE lent to the calling thread and the
//! workers inside one job each until the body has had enough, each parked
//! between rounds on the `Round`'s gate and woken by the master re-opening
//! the claims and the countdown. With nobody woken the master runs every
//! round itself, and in a kernel's PPE copy the rounds are a plain loop. A
//! task's trace carries one `Chunk` per chunk — the first round's, on the
//! team `TaskStart` names — however many rounds ran.
//!
//! This is the runtime's one way to keep a team across dependent loops. A
//! chain whose loops differ keeps its stage in the body and advances it in
//! `again`; a stage shorter than the body's `len` clips the range it is
//! handed (`examples/loop_chains.rs`).

use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};

use super::context::SpeContext;
use super::pool::{OffloadError, SpePool};
use crate::events::EventKind;
use crate::policy::balance::{LoadBalancer, LoopCost, LoopObservation};
use crate::policy::chunk::partition;
use crate::policy::SpeId;
use crate::tracing::TraceHandle;

/// Identifies the off-load a traced team invocation belongs to, so the
/// team layer can attribute its spans (task start/end, per-member chunks)
/// to the right task in the drained trace.
#[derive(Debug, Clone, Copy)]
pub struct TraceTask<'a> {
    /// The calling process's ring (task start/end land here).
    pub handle: &'a TraceHandle,
    /// The owning worker process.
    pub proc: usize,
    /// The task id assigned at off-load.
    pub task: u64,
}

/// A data-parallel loop body with a reduction, the shape of the paper's
/// `evaluate()` loop (Figure 3): dependence-free iterations plus a global
/// reduction.
pub trait LoopBody: Send + Sync + 'static {
    /// The reduction accumulator.
    type Acc: Send + 'static;

    /// Total number of iterations.
    fn len(&self) -> usize;

    /// True when the loop has no iterations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reduction identity.
    fn identity(&self) -> Self::Acc;

    /// Execute iterations `range`, returning the partial accumulator.
    fn run_chunk(&self, range: Range<usize>, ctx: &mut SpeContext) -> Self::Acc;

    /// Merge two partial accumulators.
    fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc;

    /// Whether the loop runs again. Asked once per round, with the round's
    /// partials merged in chunk order, by the thread that merged them;
    /// every chunk of the round has returned and none of the next has
    /// started. `true` drops `merged` and runs every chunk again over the
    /// same ranges within the same off-load (whatever the next round needs
    /// of this one, the body keeps); `false` makes `merged`, as this call
    /// leaves it, the loop's result. The default is one round.
    fn again(&self, _merged: &mut Self::Acc) -> bool {
        false
    }

    /// How much work the body has done, in units its kind of request
    /// shares; asked once it has run. Granularity control times a request
    /// per unit of it, so a kind's small and large requests compare
    /// ([`super::ProcessCtx::offload_adaptive`]). The default
    /// counts every request as one unit.
    fn work(&self) -> u64 {
        1
    }
}

/// The one place a body's rounds are driven from: run `round` — told how
/// many came before it — ask the body, and repeat until it says stop.
fn rounds<B: LoopBody, E>(
    body: &B,
    mut round: impl FnMut(usize) -> Result<B::Acc, E>,
) -> Result<B::Acc, E> {
    let mut before = 0;
    loop {
        let mut merged = round(before)?;
        if !body.again(&mut merged) {
            return Ok(merged);
        }
        before += 1;
    }
}

/// Every round of `body` as one chunk on `ctx`: a kernel's PPE copy.
pub(super) fn run_whole<B: LoopBody>(body: &B, ctx: &mut SpeContext) -> B::Acc {
    let n = body.len();
    let Ok(acc) = rounds(body, |_| Ok::<_, Infallible>(body.run_chunk(0..n, ctx)));
    acc
}

/// One chunk of a [`Round`].
struct Chunk<A> {
    range: Range<usize>,
    /// Set by whoever takes the chunk, the worker it was cut for or the
    /// master; cleared by the master when it re-opens the round. Exactly-
    /// once needs only the swap's atomicity; the swap is `Acquire` against
    /// the clearing `Release` so that a claim in a later round sees what
    /// the round before it left (the body's state, the countdown).
    claimed: AtomicBool,
    /// Where a worker leaves its partial and the instant it finished. Still
    /// empty once the chunk is counted down: the worker panicked.
    partial: Mutex<Option<(A, Instant)>>,
}

/// One team invocation: what the master and its workers share.
struct Round<B: LoopBody> {
    body: Arc<B>,
    total_iters: usize,
    chunks: Vec<Chunk<B::Acc>>,
    /// Chunks not finished yet. Workers count their chunk down after
    /// storing its partial (`AcqRel`); the master takes off what it ran and
    /// reads the rest with `Acquire`, so at zero every stored partial is
    /// visible to it.
    unfinished: AtomicUsize,
    gate: Mutex<Gate>,
    all_done: Condvar,
    /// Where a held team's workers wait between rounds.
    reopened: Condvar,
    /// The traced task the chunks belong to, if the invocation is traced.
    task: Option<u64>,
    /// `Chunk` events are still to be recorded: in the first round only,
    /// so a task's trace tiles its loop once.
    announce: AtomicBool,
}

/// Who is parked on a [`Round`], and which round it is in.
struct Gate {
    /// The master is blocked in [`Round::wait_for_workers`]. Whoever counts
    /// the last chunk down reads this under the lock and skips the condvar
    /// when unset; the master sets it and re-reads `unfinished` under the
    /// same lock, so the wake-up cannot be lost.
    master_parked: bool,
    /// Rounds re-opened so far ([`Round::reopen`]).
    round: usize,
    /// No round follows ([`Round::close`]).
    closed: bool,
    /// Held workers blocked in [`Round::await_round`]; re-opening and
    /// closing skip the condvar when there are none.
    waiting: usize,
}

/// Counts a worker's claimed chunk down when dropped — on unwind too, so a
/// panicking chunk cannot leave the master parked.
struct CountDown<'a, B: LoopBody>(&'a Round<B>);

impl<B: LoopBody> Drop for CountDown<'_, B> {
    fn drop(&mut self) {
        let round = self.0;
        if round.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            let parked = round.gate.lock().master_parked;
            if parked {
                round.all_done.notify_one();
            }
        }
    }
}

impl<B: LoopBody> Round<B> {
    fn new(body: Arc<B>, ranges: Vec<Range<usize>>, task: Option<u64>) -> Round<B> {
        Round {
            total_iters: body.len(),
            body,
            unfinished: AtomicUsize::new(ranges.len()),
            chunks: ranges
                .into_iter()
                .map(|range| Chunk {
                    range,
                    claimed: AtomicBool::new(false),
                    partial: Mutex::new(None),
                })
                .collect(),
            gate: Mutex::new(Gate { master_parked: false, round: 0, closed: false, waiting: 0 }),
            all_done: Condvar::new(),
            reopened: Condvar::new(),
            task,
            announce: AtomicBool::new(true),
        }
    }

    /// Take chunk `i`; false if someone already has.
    fn claim(&self, i: usize) -> bool {
        !self.chunks[i].claimed.swap(true, Ordering::Acquire)
    }

    /// Run chunk `i` on `ctx`'s SPE, which the `Chunk` event then names.
    fn run(&self, i: usize, ctx: &mut SpeContext) -> B::Acc {
        let range = self.chunks[i].range.clone();
        let acc = self.body.run_chunk(range.clone(), ctx);
        if let (Some(task), Some(h)) = (self.task, ctx.trace()) {
            if !range.is_empty() && self.announce.load(Ordering::Relaxed) {
                h.record(EventKind::Chunk {
                    task,
                    loop_iters: self.total_iters,
                    start: range.start,
                    len: range.len(),
                    worker: ctx.id.0,
                });
            }
        }
        acc
    }

    /// Worker `i`'s job: its own chunk, unless the master got there first.
    fn worker_share(&self, i: usize, ctx: &mut SpeContext) {
        if !self.claim(i) {
            return;
        }
        let _counted = CountDown(self);
        let acc = self.run(i, ctx);
        *self.chunks[i].partial.lock() = Some((acc, Instant::now()));
    }

    /// The master's job: chunk 0, then every chunk still unclaimed, in
    /// index order; their partials go to `taken[i]`. Returns chunk 0's
    /// partial, the time it took, ns, and the instant the master ran out
    /// of chunks to run.
    fn master_share(
        &self,
        taken: &mut [Option<B::Acc>],
        ctx: &mut SpeContext,
    ) -> (B::Acc, u64, Instant) {
        let started = Instant::now();
        let first = self.run(0, ctx);
        let chunk0_ns = started.elapsed().as_nanos() as u64;
        for (i, slot) in taken.iter_mut().enumerate().skip(1) {
            if self.claim(i) {
                *slot = Some(self.run(i, ctx));
            }
        }
        (first, chunk0_ns, Instant::now())
    }

    /// Block until the chunks the master did not run — it ran `ran` — are
    /// finished. Does not touch the lock when they already are.
    fn wait_for_workers(&self, ran: usize) {
        if self.unfinished.fetch_sub(ran, Ordering::AcqRel) == ran {
            return;
        }
        let mut gate = self.gate.lock();
        while self.unfinished.load(Ordering::Acquire) > 0 {
            gate.master_parked = true;
            self.all_done.wait(&mut gate);
        }
    }

    /// Merge the partials in chunk order, once every chunk is finished.
    /// Also returns when each worker-run chunk finished.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if a worker's chunk left no partial.
    fn merge(
        &self,
        first: B::Acc,
        taken: Vec<Option<B::Acc>>,
    ) -> Result<(B::Acc, Vec<Instant>), OffloadError> {
        let mut acc = first;
        let mut worker_finishes = Vec::new();
        for (chunk, mine) in self.chunks.iter().zip(taken).skip(1) {
            let partial = match mine {
                Some(partial) => partial,
                None => {
                    let (partial, finished) =
                        chunk.partial.lock().take().ok_or(OffloadError::TaskPanicked)?;
                    worker_finishes.push(finished);
                    partial
                }
            };
            acc = self.body.merge(acc, partial);
        }
        Ok((acc, worker_finishes))
    }

    /// Make every chunk claimable again: the master's, between a merged
    /// round and the next — every claim of the last round has been counted
    /// down, so nobody is inside a chunk. Returns the round now open.
    ///
    /// The countdown is restored before the claims are cleared, and those
    /// before the round number moves: a worker that claims the moment it
    /// can finds the countdown ready for it, and one woken by the number
    /// finds its chunk free.
    fn reopen(&self) -> usize {
        self.announce.store(false, Ordering::Relaxed);
        self.unfinished.store(self.chunks.len(), Ordering::Relaxed);
        for chunk in &self.chunks {
            chunk.claimed.store(false, Ordering::Release);
        }
        let mut gate = self.gate.lock();
        gate.master_parked = false;
        gate.round += 1;
        let (round, wake) = (gate.round, gate.waiting > 0);
        drop(gate);
        if wake {
            self.reopened.notify_all();
        }
        round
    }

    /// No round follows: held workers leave.
    fn close(&self) {
        let mut gate = self.gate.lock();
        gate.closed = true;
        let wake = gate.waiting > 0;
        drop(gate);
        if wake {
            self.reopened.notify_all();
        }
    }

    /// Block until a round after `seen` is open and return it, or `None`
    /// once the team is closed.
    fn await_round(&self, seen: usize) -> Option<usize> {
        let mut gate = self.gate.lock();
        while gate.round == seen && !gate.closed {
            gate.waiting += 1;
            self.reopened.wait(&mut gate);
            gate.waiting -= 1;
        }
        (!gate.closed).then_some(gate.round)
    }

    /// Held worker `i`'s job, started in round `round`: its share of every
    /// round from there on, parked in between, until the team is closed.
    fn worker_rounds(&self, i: usize, mut round: usize, ctx: &mut SpeContext) {
        loop {
            self.worker_share(i, ctx);
            match self.await_round(round) {
                Some(next) => round = next,
                None => return,
            }
        }
    }
}

/// Identifies one parallel-loop site in the program, so adaptive tuning
/// state persists across invocations of the same loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopSite(pub u64);

/// Executes work-shared loops on a pool, with a per-site wake verdict and
/// adaptive master bias.
pub struct TeamRunner {
    pool: Arc<SpePool>,
    balancers: Mutex<HashMap<LoopSite, LoadBalancer>>,
    invocations: AtomicU64,
    /// Overrides every site's wake verdict while set ([`Self::pin`]).
    #[cfg(any(test, loom))]
    pinned: Mutex<Option<bool>>,
}

impl TeamRunner {
    /// A runner over `pool`.
    ///
    /// The `Duration` is ignored: it names a Cell worker's start-up stall
    /// (the DMA fetch of its loop arguments), which a woken host thread
    /// does not pay — its chunk is already in memory it shares with the
    /// master. The parameter is there because the frozen benchmark harness
    /// calls this signature.
    pub fn new(pool: Arc<SpePool>, _: Duration) -> TeamRunner {
        TeamRunner {
            pool,
            balancers: Mutex::new(HashMap::new()),
            invocations: AtomicU64::new(0),
            #[cfg(any(test, loom))]
            pinned: Mutex::new(None),
        }
    }

    /// Test hook: from now on every loop site wakes its team (`Some(true)`)
    /// or runs every chunk on its master (`Some(false)`), whatever its
    /// measurements say; `None` hands the verdict back to them. For the
    /// tests whose schedule or job count needs one or the other.
    #[cfg(any(test, loom))]
    pub fn pin(&self, wake: Option<bool>) {
        *self.pinned.lock() = wake;
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<SpePool> {
        &self.pool
    }

    /// Number of team invocations executed.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// The current master bias for `site` (0.0 before any invocation).
    pub fn bias(&self, site: LoopSite) -> f64 {
        self.balancers.lock().get(&site).map_or(0.0, |b| b.bias())
    }

    /// Run `body` work-shared across `degree` SPEs and return the reduced
    /// result.
    ///
    /// Blocks the calling thread until the loop completes. The caller is
    /// the team's master and runs chunks itself — all of them at `degree
    /// == 1`, and when `site`'s measurements say waking workers does not
    /// pay (see the module doc). The caller is a worker process whose PPE
    /// context handling is the [`super::gate::PpeGate`]'s concern, not ours.
    ///
    /// # Errors
    /// Propagates [`OffloadError::TaskPanicked`] if any team member
    /// panicked.
    pub fn parallel_reduce<B: LoopBody>(
        &self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
    ) -> Result<B::Acc, OffloadError> {
        self.parallel_reduce_traced(site, degree, body, None)
    }

    /// As [`Self::parallel_reduce`], recording task and chunk spans for the
    /// off-load identified by `trace` (see [`crate::tracing`]). Task start
    /// and end land on the caller's ring; a chunk lands on the ring of the
    /// SPE whose context ran it — the master SPE's for every chunk the
    /// master ran.
    pub fn parallel_reduce_traced<B: LoopBody>(
        &self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
        trace: Option<TraceTask<'_>>,
    ) -> Result<B::Acc, OffloadError> {
        assert!(degree >= 1, "loop degree must be at least 1");
        let degree = degree.min(self.pool.n_spes()).min(body.len().max(1));
        self.invocations.fetch_add(1, Ordering::Relaxed);

        // One chunk has nobody to wake: no verdict to ask, none to feed.
        // Otherwise the tiling is the site's whoever runs it, so the
        // chunk-order merge gives the same bits either way.
        let (wake, bias) = if degree > 1 { self.verdict(site) } else { (false, 0.0) };
        let chunks = partition(body.len(), degree, bias);
        let team = self.pool.reserve(if wake { degree } else { 1 });
        let team_ids = || team.iter().map(|s| s.0).collect::<Vec<usize>>();
        if let Some(t) = &trace {
            t.handle.record(EventKind::TaskStart {
                proc: t.proc,
                task: t.task,
                degree: team.len(),
                team: team_ids(),
            });
        }

        let started = Instant::now();
        let round = Arc::new(Round::new(body, chunks, trace.as_ref().map(|t| t.task)));
        // This thread — the worker process that off-loaded the loop — is
        // the master, on the reserved master SPE's context.
        let acc = if wake {
            self.woken(site, &team, &round, started)?
        } else {
            let (acc, _) = self.drive(team[0], &round)?;
            if degree > 1 {
                let loop_ns = started.elapsed().as_nanos() as u64;
                self.balancer(site, |b| b.record(LoopCost::Solo { loop_ns }));
            }
            acc
        };
        if let Some(t) = &trace {
            t.handle
                .record(EventKind::TaskEnd { proc: t.proc, task: t.task, team: team_ids() });
        }
        Ok(acc)
    }

    /// An invocation on a woken `team`, the master on `team[0]`: the first
    /// round with a worker woken for each chunk, then any later ones on a
    /// team that stays. Feeds `site`'s balancer the first round's idle
    /// times — the tiling it biases is fixed for the invocation — and what
    /// the whole invocation cost.
    fn woken<B: LoopBody>(
        &self,
        site: LoopSite,
        team: &[SpeId],
        round: &Arc<Round<B>>,
        started: Instant,
    ) -> Result<B::Acc, OffloadError> {
        // "master sends signal to worker n": wake each worker for its chunk.
        self.wake(team, round, None);
        let mut taken: Vec<Option<B::Acc>> = (0..team.len()).map(|_| None).collect();
        let (first, mut chunk0_ns, master_finished) =
            self.pool.run_here(team[0], |ctx| round.master_share(&mut taken, ctx))?;
        round.wait_for_workers(1 + taken.iter().flatten().count());
        let (mut acc, worker_finishes) = round.merge(first, taken)?;
        let first_round =
            compute_timing(started, master_finished, &worker_finishes, Instant::now());
        if round.body.again(&mut acc) {
            let (last, later_chunk0_ns) = self.held_rounds(round)?;
            acc = last;
            chunk0_ns += later_chunk0_ns;
        }
        let loop_ns = started.elapsed().as_nanos() as u64;
        self.balancer(site, |b| {
            b.observe(first_round);
            b.record(LoopCost::Team {
                loop_ns,
                chunk0_ns,
                chunk0_iters: round.chunks[0].range.len(),
                total_iters: round.total_iters,
            });
        });
        Ok(acc)
    }

    /// Wake `team`'s workers, each for its own chunk of `round`: of the one
    /// round open now, or (`held`: that round's number) of every round
    /// until the team is closed.
    fn wake<B: LoopBody>(&self, team: &[SpeId], round: &Arc<Round<B>>, held: Option<usize>) {
        for (i, w) in team.iter().enumerate().skip(1) {
            let round = Arc::clone(round);
            self.pool.run_on(
                *w,
                Box::new(move |ctx: &mut SpeContext| match held {
                    None => round.worker_share(i, ctx),
                    Some(opened) => round.worker_rounds(i, opened, ctx),
                }),
            );
        }
    }

    /// The rounds after the first of a body that asked for them, on a team
    /// that stays (see the module doc): the chunks of `round`, again, until
    /// the body says stop. Returns the last round's merged value and the
    /// master's time in chunk 0 over these rounds, ns.
    fn held_rounds<B: LoopBody>(
        &self,
        round: &Arc<Round<B>>,
    ) -> Result<(B::Acc, u64), OffloadError> {
        let team = self.pool.reserve(round.chunks.len());
        self.wake(&team, round, Some(round.reopen()));
        let last = self.drive(team[0], round);
        // Whatever happened on this thread, the workers must not wait for
        // a round that will not come.
        round.close();
        last
    }

    /// The master's side of `round`, open now, and of every round after it
    /// until the body says stop, on reserved SPE `master`: each round every
    /// chunk no worker has claimed, then the merge in chunk order. With no
    /// worker woken that is every chunk. Returns the last round's merged
    /// value and the master's time in chunk 0 over the rounds, ns.
    fn drive<B: LoopBody>(
        &self,
        master: SpeId,
        round: &Round<B>,
    ) -> Result<(B::Acc, u64), OffloadError> {
        let degree = round.chunks.len();
        let mut chunk0_ns = 0;
        let last = self.pool.run_here(master, |ctx| {
            rounds(&*round.body, |before| {
                if before > 0 {
                    round.reopen();
                }
                let mut taken: Vec<Option<B::Acc>> = (0..degree).map(|_| None).collect();
                let (first, chunk0, _) = round.master_share(&mut taken, ctx);
                chunk0_ns += chunk0;
                round.wait_for_workers(1 + taken.iter().flatten().count());
                round.merge(first, taken).map(|(acc, _)| acc)
            })
        })?;
        Ok((last?, chunk0_ns))
    }

    /// `site`'s wake verdict for the next invocation, and its master bias.
    fn verdict(&self, site: LoopSite) -> (bool, f64) {
        let (wake, bias) = self.balancer(site, |b| (b.wake(), b.bias()));
        #[cfg(any(test, loom))]
        let wake = self.pinned.lock().unwrap_or(wake);
        (wake, bias)
    }

    /// Apply `f` to `site`'s balancer, creating it on first use.
    fn balancer<R>(&self, site: LoopSite, f: impl FnOnce(&mut LoadBalancer) -> R) -> R {
        f(self.balancers.lock().entry(site).or_insert_with(|| LoadBalancer::new(0.8, 2.0)))
    }
}

/// A team round's idle times, from its start, the master's and workers'
/// finishes, and the instant every partial was merged.
fn compute_timing(
    started: Instant,
    master_finished: Instant,
    worker_finishes: &[Instant],
    all_done: Instant,
) -> LoopObservation {
    let loop_ns = all_done.duration_since(started).as_nanos() as u64;
    let slowest = worker_finishes
        .iter()
        .copied()
        .chain(std::iter::once(master_finished))
        .max()
        .expect("at least the master finished");
    let master_idle_ns = slowest.duration_since(master_finished).as_nanos() as u64;
    let mean_worker_idle_ns = if worker_finishes.is_empty() {
        0
    } else {
        let total: u128 = worker_finishes
            .iter()
            .map(|&w| slowest.duration_since(w).as_nanos())
            .sum();
        (total / worker_finishes.len() as u128) as u64
    };
    LoopObservation { master_idle_ns, mean_worker_idle_ns, loop_ns }
}

/// The retired team path — the master's share shipped to the reserved
/// master SPE's thread, workers answering over a `Pass` channel, the result
/// handed back over a reply channel — kept as a differential oracle: the
/// tests drive one script through it and through the claimable-chunk
/// `Round` and demand identical results and counters.
#[cfg(test)]
mod classic {
    use super::*;
    use crossbeam::channel::bounded;

    /// The worker→master completion message, mirroring the paper's `Pass`
    /// structure: the partial result plus a timestamp for idle accounting.
    struct Pass<A> {
        res: A,
        finished: Instant,
    }

    pub fn parallel_reduce<B: LoopBody>(
        runner: &TeamRunner,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
    ) -> Result<B::Acc, OffloadError> {
        let clamped = degree.min(runner.pool.n_spes()).min(body.len().max(1));
        if clamped == 1 {
            return runner.parallel_reduce(site, degree, body);
        }
        let degree = clamped;
        runner.invocations.fetch_add(1, Ordering::Relaxed);
        let chunks = partition(body.len(), degree, runner.bias(site));
        let team = runner.pool.reserve(degree);
        let started = Instant::now();
        let (pass_tx, pass_rx) = bounded::<Pass<B::Acc>>(degree - 1);
        for (w, range) in team[1..].iter().zip(chunks[1..].iter().cloned()) {
            let b = Arc::clone(&body);
            let tx = pass_tx.clone();
            runner.pool.run_on(
                *w,
                Box::new(move |ctx: &mut SpeContext| {
                    let res = b.run_chunk(range, ctx);
                    let _ = tx.send(Pass { res, finished: Instant::now() });
                }),
            );
        }
        drop(pass_tx);

        let (res_tx, res_rx) = bounded(1);
        let b = Arc::clone(&body);
        let master_range = chunks[0].clone();
        runner.pool.run_on(
            team[0],
            Box::new(move |ctx: &mut SpeContext| {
                let mut acc = b.run_chunk(master_range, ctx);
                let master_finished = Instant::now();
                let mut worker_finishes = Vec::new();
                // A panicked worker dropped its sender: fewer passes arrive.
                for pass in pass_rx.iter() {
                    acc = b.merge(acc, pass.res);
                    worker_finishes.push(pass.finished);
                }
                let _ = res_tx.send((acc, master_finished, worker_finishes));
            }),
        );
        let (acc, master_finished, worker_finishes) =
            res_rx.recv().map_err(|_| OffloadError::TaskPanicked)?;
        if worker_finishes.len() < degree - 1 {
            return Err(OffloadError::TaskPanicked);
        }
        let t = compute_timing(started, master_finished, &worker_finishes, Instant::now());
        runner.balancer(site, |b| b.observe(t));
        Ok(acc)
    }
}

/// A loop that consumes the previous loop's reduction, for the tests of the
/// multi-round path here and in `adaptive`: round *k* sums `i + carry` over
/// the iterations, `carry` being round *k − 1*'s merged sum folded small.
#[cfg(test)]
pub(super) mod relay {
    use super::*;

    pub struct Relay {
        n: usize,
        rounds: usize,
        carry: AtomicU64,
        asked: AtomicUsize,
        /// Chunks run on the PPE copy's sentinel context.
        pub ppe_chunks: AtomicUsize,
        /// Panic in the chunk of round `.0` (from 0) holding iteration `.1`.
        pub bomb: Option<(usize, usize)>,
    }

    impl Relay {
        pub fn new(n: usize, rounds: usize) -> Relay {
            Relay {
                n,
                rounds,
                carry: AtomicU64::new(0),
                asked: AtomicUsize::new(0),
                ppe_chunks: AtomicUsize::new(0),
                bomb: None,
            }
        }

        /// What the loop returns, computed as the sequential fold it is.
        pub fn sequential(&self) -> u64 {
            let mut sum = 0;
            for _ in 0..self.rounds {
                sum = (0..self.n as u64).map(|i| i + sum % 97).sum();
            }
            sum
        }
    }

    impl LoopBody for Relay {
        type Acc = u64;
        fn len(&self) -> usize {
            self.n
        }
        fn identity(&self) -> u64 {
            0
        }
        fn run_chunk(&self, range: Range<usize>, ctx: &mut SpeContext) -> u64 {
            // Relaxed on purpose: the runtime orders `again` before every
            // chunk of the next round, whoever runs it.
            let round = self.asked.load(Ordering::Relaxed);
            if self.bomb.is_some_and(|(r, i)| r == round && range.contains(&i)) {
                panic!("failure injection in round {round}");
            }
            if ctx.id.0 == usize::MAX {
                self.ppe_chunks.fetch_add(1, Ordering::Relaxed);
            }
            let carry = self.carry.load(Ordering::Relaxed);
            range.map(|i| i as u64 + carry).sum()
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
        fn again(&self, merged: &mut u64) -> bool {
            self.carry.store(*merged % 97, Ordering::Relaxed);
            self.asked.fetch_add(1, Ordering::Relaxed) + 1 < self.rounds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::relay::Relay;
    use super::*;
    use crate::metrics::{AtomicMetrics, Counter};
    use crate::native::gate::{GateMode, PpeGate};

    /// Sum of f(i) over 0..n — the shape of the paper's `evaluate()` loop.
    struct SumLoop {
        n: usize,
    }

    impl LoopBody for SumLoop {
        type Acc = f64;
        fn len(&self) -> usize {
            self.n
        }
        fn identity(&self) -> f64 {
            0.0
        }
        fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
            range.map(|i| (i as f64).sqrt()).sum()
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
    }

    fn expected_sum(n: usize) -> f64 {
        (0..n).map(|i| (i as f64).sqrt()).sum()
    }

    /// A runner over a pool of `n_spes`, and the sink the pool books
    /// into: its `TasksCompleted` counts the pool's jobs.
    fn runner(n_spes: usize) -> (Arc<SpePool>, TeamRunner, Arc<AtomicMetrics>) {
        let metrics = Arc::new(AtomicMetrics::new());
        let pool = Arc::new(SpePool::with_metrics(n_spes, Arc::<AtomicMetrics>::clone(&metrics)));
        let tr = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        (pool, tr, metrics)
    }

    /// [`runner`] with every site's wake verdict pinned to `wake`.
    fn pinned(n_spes: usize, wake: bool) -> (Arc<SpePool>, TeamRunner, Arc<AtomicMetrics>) {
        let (pool, tr, metrics) = runner(n_spes);
        tr.pin(Some(wake));
        (pool, tr, metrics)
    }

    /// Jobs the pool has completed, as its sink counts them.
    fn completed(metrics: &AtomicMetrics) -> u64 {
        metrics.get(Counter::TasksCompleted)
    }

    /// Pool jobs one invocation at `degree` books: one per member woken.
    fn jobs(degree: usize, wake: bool) -> u64 {
        if wake {
            degree as u64
        } else {
            1
        }
    }

    /// Worker jobs book themselves after their chunk is counted down, so a
    /// returned team invocation may still have workers on their way back.
    fn settle(pool: &SpePool) {
        while pool.idle_count() < pool.n_spes() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn degree_one_matches_sequential() {
        let (_pool, tr, _) = runner(4);
        let acc = tr.parallel_reduce(LoopSite(1), 1, Arc::new(SumLoop { n: 228 })).unwrap();
        assert!((acc - expected_sum(228)).abs() < 1e-9);
    }

    #[test]
    fn all_degrees_produce_the_same_reduction() {
        let (_pool, tr, _) = runner(8);
        let want = expected_sum(228);
        for degree in 1..=8 {
            let body = Arc::new(SumLoop { n: 228 });
            let acc = tr.parallel_reduce(LoopSite(2), degree, body).unwrap();
            assert!(
                (acc - want).abs() < 1e-9,
                "degree {degree}: got {acc}, want {want}"
            );
        }
    }

    #[test]
    fn degree_is_clamped_to_loop_length() {
        let (_pool, tr, _) = runner(8);
        let acc = tr.parallel_reduce(LoopSite(3), 8, Arc::new(SumLoop { n: 3 })).unwrap();
        assert!((acc - expected_sum(3)).abs() < 1e-12);
    }

    #[test]
    fn empty_loop_returns_identity() {
        let (_pool, tr, _) = runner(2);
        let acc = tr.parallel_reduce(LoopSite(4), 4, Arc::new(SumLoop { n: 0 })).unwrap();
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn spes_return_to_pool_after_team_work() {
        for wake in [true, false] {
            let (pool, tr, metrics) = pinned(4, wake);
            for i in 1..=5 {
                tr.parallel_reduce(LoopSite(5), 4, Arc::new(SumLoop { n: 64 })).unwrap();
                settle(&pool);
                // One job per member woken, whoever ran the chunks.
                assert_eq!(completed(&metrics), jobs(4, wake) * i);
            }
        }
    }

    #[test]
    fn the_verdict_does_not_show_in_the_bits() {
        // The same tiling merged in the same order, whoever ran the chunks:
        // a float reduction has one value whether the team was woken or not.
        for n in [5, 64, 228, 1001] {
            for degree in [2, 3, 4, 8] {
                let [woken, solo] = [true, false].map(|wake| {
                    let (_pool, tr, _) = pinned(8, wake);
                    let body = Arc::new(SumLoop { n });
                    tr.parallel_reduce(LoopSite(14), degree, body).unwrap().to_bits()
                });
                assert_eq!(woken, solo, "{n} iterations at degree {degree}");
            }
        }
    }

    #[test]
    fn a_site_whose_team_does_not_pay_stops_waking_it() {
        // Empty-bodied chunks: waking a worker costs more than the whole
        // loop, so once both costs are measured the master runs alone —
        // one job per invocation — but for one team probe a period.
        use crate::policy::granularity::{MIN_SPE_SAMPLES, TEAM_PROBE_PERIOD};
        let (pool, tr, metrics) = runner(4);
        let woke: Vec<bool> = (0..2 * TEAM_PROBE_PERIOD)
            .map(|_| {
                let before = completed(&metrics);
                tr.parallel_reduce(LoopSite(15), 4, Arc::new(SumLoop { n: 8 })).unwrap();
                settle(&pool);
                completed(&metrics) - before == 4
            })
            .collect();
        let settled = MIN_SPE_SAMPLES as usize;
        assert!(woke[..settled].iter().all(|&w| w), "optimistic until measured");
        // Invocation numbers, from 1, of the wakes after that.
        let probes: Vec<u64> = (settled..woke.len())
            .filter(|&i| woke[i])
            .map(|i| i as u64 + 1)
            .collect();
        assert_eq!(probes, [TEAM_PROBE_PERIOD, 2 * TEAM_PROBE_PERIOD]);
    }

    /// The list of chunk starts, concatenated on merge: the reduction order
    /// made visible.
    struct ChunkStarts {
        n: usize,
    }

    impl LoopBody for ChunkStarts {
        type Acc = Vec<usize>;
        fn len(&self) -> usize {
            self.n
        }
        fn identity(&self) -> Vec<usize> {
            Vec::new()
        }
        fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> Vec<usize> {
            vec![range.start]
        }
        fn merge(&self, mut a: Vec<usize>, b: Vec<usize>) -> Vec<usize> {
            a.extend(b);
            a
        }
    }

    #[test]
    fn partials_merge_in_chunk_order() {
        let (_pool, tr, _) = runner(8);
        for invocation in 0..200 {
            let degree = 2 + invocation % 7;
            let body = Arc::new(ChunkStarts { n: 96 });
            let starts = tr.parallel_reduce(LoopSite(6), degree, body).unwrap();
            assert_eq!(starts.len(), degree);
            assert!(
                starts.windows(2).all(|w| w[0] < w[1]),
                "invocation {invocation}, degree {degree}: merged out of chunk order: {starts:?}"
            );
        }
    }

    /// Panics in the chunk that holds iteration `bomb`.
    #[derive(Clone, Copy)]
    struct Bomb {
        n: usize,
        bomb: Option<usize>,
    }

    impl LoopBody for Bomb {
        type Acc = u64;
        fn len(&self) -> usize {
            self.n
        }
        fn identity(&self) -> u64 {
            0
        }
        fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u64 {
            if self.bomb.is_some_and(|b| range.contains(&b)) {
                panic!("failure injection");
            }
            range.map(|i| (i as u64 + 1) * (i as u64 + 1)).sum()
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    #[test]
    fn worker_panic_propagates_as_error() {
        let (pool, tr, _) = runner(4);
        let err = tr.parallel_reduce(LoopSite(6), 4, Arc::new(Bomb { n: 16, bomb: Some(15) }));
        assert_eq!(err.unwrap_err(), OffloadError::TaskPanicked);
        // Pool remains serviceable.
        let h = pool.offload(|_| 5);
        assert_eq!(h.wait().unwrap(), 5);
    }

    #[test]
    fn master_share_panic_is_contained_on_the_calling_thread() {
        for wake in [true, false] {
            let (pool, tr, metrics) = pinned(4, wake);
            let gate = PpeGate::new(1, GateMode::YieldOnOffload, Duration::ZERO);
            let mut token = gate.enter();
            // Iteration 0 is in chunk 0, which only ever runs on this thread.
            let body = Arc::new(Bomb { n: 16, bomb: Some(0) });
            let got = token.offload(|| tr.parallel_reduce(LoopSite(7), 4, body));
            assert_eq!(got, Err(OffloadError::TaskPanicked));
            // Booked by `run_here` before it returned, like on an SPE thread.
            assert_eq!(pool.panics(), 1);
            assert!(token.holds_context(), "the PPE context came back");
            settle(&pool);
            assert_eq!((completed(&metrics), pool.panics()), (jobs(4, wake), 1));
            let body = Arc::new(SumLoop { n: 64 });
            let sum = token.offload(|| tr.parallel_reduce(LoopSite(7), 4, body));
            assert!((sum.unwrap() - expected_sum(64)).abs() < 1e-9);
        }
    }

    /// Forces the schedule in which every worker runs its own chunk and
    /// finishes after the master: chunk 0 returns only once every worker
    /// chunk has started, and a worker chunk returns — or panics — only
    /// once the master SPE is idle again, which `run_here` makes it after
    /// the master's share (and its `master_finished` stamp) is done.
    struct MasterFirst {
        pool: Arc<SpePool>,
        degree: usize,
        started: AtomicUsize,
        workers_panic: bool,
    }

    impl LoopBody for MasterFirst {
        type Acc = u32;
        fn len(&self) -> usize {
            self.degree
        }
        fn identity(&self) -> u32 {
            0
        }
        fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u32 {
            if range.start == 0 {
                while self.started.load(Ordering::SeqCst) < self.degree - 1 {
                    std::thread::yield_now();
                }
            } else {
                self.started.fetch_add(1, Ordering::SeqCst);
                // The whole pool is the team, so an idle SPE is the master's.
                while self.pool.idle_count() == 0 {
                    std::thread::yield_now();
                }
                if self.workers_panic {
                    panic!("worker failure injection");
                }
            }
            1
        }
        fn merge(&self, a: u32, b: u32) -> u32 {
            a + b
        }
    }

    fn master_first(pool: &Arc<SpePool>, workers_panic: bool) -> Arc<MasterFirst> {
        Arc::new(MasterFirst {
            pool: Arc::clone(pool),
            degree: pool.n_spes(),
            started: AtomicUsize::new(0),
            workers_panic,
        })
    }

    #[test]
    fn worker_panic_cannot_strand_the_master() {
        // Every worker panics while the master is parking or parked; the
        // drop guard must count each chunk down and the last one wake it.
        // (The schedule needs its workers: a master alone would spin in
        // chunk 0 for ever.)
        let (pool, tr, metrics) = pinned(4, true);
        for round in 1..=50 {
            let got = tr.parallel_reduce(LoopSite(8), 4, master_first(&pool, true));
            assert_eq!(got, Err(OffloadError::TaskPanicked));
            settle(&pool);
            assert_eq!((pool.panics(), completed(&metrics)), (3 * round, 4 * round));
        }
        assert_eq!(tr.parallel_reduce(LoopSite(8), 4, master_first(&pool, false)), Ok(4));
    }

    #[test]
    fn balancer_is_fed_the_master_idle_time_when_workers_finish_last() {
        let (pool, tr, _) = pinned(4, true);
        let site = LoopSite(9);
        assert_eq!(tr.parallel_reduce(site, 4, master_first(&pool, false)), Ok(4));
        // Every worker stamped its finish after the master's: the one
        // observation is a master that idled more than its workers did.
        assert_eq!(tr.balancers.lock()[&site].invocations(), 1);
        assert!(tr.bias(site) > 0.0, "an idle master is given a larger share");
    }

    #[test]
    fn timing_follows_the_finish_stamps() {
        let started = Instant::now();
        let at = |us| started + Duration::from_micros(us);
        let t = compute_timing(started, at(10), &[at(5), at(30), at(20)], at(40));
        assert_eq!(t.loop_ns, 40_000);
        assert_eq!(t.master_idle_ns, 20_000, "slowest worker minus master");
        assert_eq!(t.mean_worker_idle_ns, (25_000 + 10_000) / 3);
        // The master finished last: it never idled, the workers did.
        let t = compute_timing(started, at(30), &[at(10), at(20)], at(30));
        assert_eq!((t.master_idle_ns, t.mean_worker_idle_ns), (0, 15_000));
    }

    #[test]
    fn a_master_that_ran_every_chunk_reports_no_idle_time() {
        let round = Round::new(Arc::new(SumLoop { n: 64 }), partition(64, 4, 0.0), None);
        let ctx = |spe| SpeContext::new(SpeId(spe));
        let started = Instant::now();
        let mut taken: Vec<Option<f64>> = vec![None; 4];
        let (first, _, master_finished) = round.master_share(&mut taken, &mut ctx(0));
        assert_eq!(taken.iter().flatten().count(), 3);
        // The workers wake late, find their chunks gone and return at
        // once, without counting anything down.
        for i in 1..4 {
            round.worker_share(i, &mut ctx(i));
        }
        assert_eq!(round.unfinished.load(Ordering::SeqCst), 4);
        round.wait_for_workers(4);
        assert_eq!(round.unfinished.load(Ordering::SeqCst), 0);
        let (acc, worker_finishes) = round.merge(first, taken).unwrap();
        assert!((acc - expected_sum(64)).abs() < 1e-9);
        assert!(worker_finishes.is_empty(), "no chunk was worker-run");
        let t = compute_timing(started, master_finished, &worker_finishes, Instant::now());
        assert_eq!((t.master_idle_ns, t.mean_worker_idle_ns), (0, 0));
    }

    #[test]
    fn workers_that_got_there_first_keep_their_chunks() {
        let round = Round::new(Arc::new(SumLoop { n: 64 }), partition(64, 4, 0.0), None);
        let ctx = |spe| SpeContext::new(SpeId(spe));
        round.worker_share(1, &mut ctx(1));
        round.worker_share(3, &mut ctx(3));
        let mut taken: Vec<Option<f64>> = vec![None; 4];
        let (first, _, master_finished) = round.master_share(&mut taken, &mut ctx(0));
        assert!(taken[1].is_none() && taken[2].is_some() && taken[3].is_none());
        round.wait_for_workers(2);
        let (acc, worker_finishes) = round.merge(first, taken).unwrap();
        assert!((acc - expected_sum(64)).abs() < 1e-9);
        assert_eq!(worker_finishes.len(), 2);
        assert!(worker_finishes.iter().all(|w| *w <= master_finished));
    }

    #[test]
    fn a_multi_round_loop_is_its_sequential_fold_at_every_degree() {
        for (n_spes, degrees, wake) in
            [(8, [1, 2, 4, 8], true), (6, [1, 2, 3, 6], true), (8, [1, 2, 4, 8], false)]
        {
            let (pool, tr, _) = pinned(n_spes, wake);
            for invocation in 0..100 {
                let varied = 1 + invocation % 5;
                for degree in degrees {
                    for (n, rounds) in
                        [(228, varied), (3, 4), (0, 3), (1, 3), (7, 3), (13, 5), (100, 2)]
                    {
                        let body = Arc::new(Relay::new(n, rounds));
                        let got = tr.parallel_reduce(LoopSite(11), degree, Arc::clone(&body));
                        let want = Ok(body.sequential());
                        assert_eq!(got, want, "degree {degree}, n {n}, {rounds} rounds");
                    }
                }
            }
            settle(&pool);
            assert_eq!(pool.panics(), 0);
        }
    }

    #[test]
    fn a_team_is_formed_once_for_all_the_later_rounds() {
        for wake in [true, false] {
            let (pool, tr, metrics) = pinned(4, wake);
            for (rounds, teams) in [(1, 1), (2, 2), (5, 2)] {
                let before = completed(&metrics);
                let body = Arc::new(Relay::new(64, rounds));
                let got = tr.parallel_reduce(LoopSite(12), 4, Arc::clone(&body));
                assert_eq!(got, Ok(body.sequential()));
                settle(&pool);
                // One job per member woken for the first round, and one per
                // member of the team held for every round after it; with
                // nobody woken, one job on the master for every round.
                let want = if wake { teams * 4 } else { 1 };
                assert_eq!(completed(&metrics) - before, want, "{rounds} rounds");
            }
            assert_eq!(tr.invocations(), 3);
        }
    }

    #[test]
    fn a_panic_in_a_later_round_fails_the_task_and_strands_nobody() {
        for wake in [true, false] {
            let (pool, tr, _) = pinned(4, wake);
            let mut tasks = 0;
            for _ in 0..50 {
                // Round two's chunk 0 is the master's; its last chunk is a
                // held worker's, or the master's if it got there first.
                for (degree, iter) in [(1, 7), (4, 0), (4, 15)] {
                    let mut body = Relay::new(16, 3);
                    body.bomb = Some((1, iter));
                    let got = tr.parallel_reduce(LoopSite(13), degree, Arc::new(body));
                    let want = Err(OffloadError::TaskPanicked);
                    assert_eq!(got, want, "degree {degree}, iteration {iter}");
                    tasks += 1;
                    // Every SPE comes back: no held worker is left waiting
                    // for a round that will not come.
                    settle(&pool);
                    assert_eq!(pool.panics(), tasks);
                }
            }
            let body = Arc::new(Relay::new(64, 3));
            let got = tr.parallel_reduce(LoopSite(13), 4, Arc::clone(&body));
            assert_eq!(got, Ok(body.sequential()));
            assert_eq!(pool.offload(|_| 5).wait(), Ok(5));
        }
    }

    #[test]
    fn a_reopened_round_hands_every_chunk_out_once_more() {
        let round = Round::new(Arc::new(SumLoop { n: 64 }), partition(64, 4, 0.0), None);
        let ctx = |spe| SpeContext::new(SpeId(spe));
        for opened in 0..3 {
            assert_eq!(round.unfinished.load(Ordering::SeqCst), 4);
            round.worker_share(2, &mut ctx(2));
            // A second wake-up for a chunk of this round finds it gone.
            round.worker_share(2, &mut ctx(2));
            let mut taken: Vec<Option<f64>> = vec![None; 4];
            let (first, _, _) = round.master_share(&mut taken, &mut ctx(0));
            assert!(taken[1].is_some() && taken[2].is_none() && taken[3].is_some());
            round.wait_for_workers(3);
            let (acc, worker_finishes) = round.merge(first, taken).unwrap();
            assert!((acc - expected_sum(64)).abs() < 1e-9);
            assert_eq!(worker_finishes.len(), 1);
            assert_eq!(round.reopen(), opened + 1);
            // A worker that saw the last round is let into this one.
            assert_eq!(round.await_round(opened), Some(opened + 1));
        }
        round.close();
        assert_eq!(round.await_round(3), None);
    }

    #[test]
    fn claimable_chunks_match_the_channel_oracle_on_scripted_runs() {
        // The differential satellite: one seeded script of loops — degrees
        // 1–8, empty and short loops, a panicking chunk in some — through
        // the retired Pass-channel team and through the claimable-chunk
        // Round. Results and pool counters must be identical — and with
        // nobody woken, the results and panics too.
        let seed = 0x7EA4u64;
        let script: Vec<(usize, Bomb)> = (0..200u64)
            .map(|i| {
                let x = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i.wrapping_mul(1442695040888963407));
                let degree = 1 + (x >> 33) as usize % 8;
                let n = [0, 1, 3, 17, 64, 228][(x >> 40) as usize % 6];
                let bomb = ((x >> 48) % 4 == 0 && n > 0).then(|| (x >> 52) as usize % n);
                (degree, Bomb { n, bomb })
            })
            .collect();
        let want: Vec<Result<u64, OffloadError>> = script
            .iter()
            .map(|(_, b)| match b.bomb {
                Some(_) => Err(OffloadError::TaskPanicked),
                None => Ok((1..=b.n as u64).map(|i| i * i).sum()),
            })
            .collect();
        let panics = want.iter().filter(|r| r.is_err()).count() as u64;
        assert!(panics > 20 && want.contains(&Ok(0)), "the script covers its cases");

        type Reduce = fn(&TeamRunner, LoopSite, usize, Arc<Bomb>) -> Result<u64, OffloadError>;
        let drive = |reduce: Reduce, wake: bool| {
            let (pool, tr, metrics) = pinned(8, wake);
            let mut booked = 0;
            let results: Vec<_> = script
                .iter()
                .map(|(degree, b)| {
                    // One job per member woken, and the clamp makes the team.
                    booked += jobs((*degree).min(b.n.max(1)), wake);
                    let got = reduce(&tr, LoopSite(10), *degree, Arc::new(*b));
                    settle(&pool);
                    got
                })
                .collect();
            assert_eq!(tr.invocations(), script.len() as u64);
            drop(tr);
            let counters = (completed(&metrics), pool.panics());
            let stats = Arc::try_unwrap(pool).ok().expect("the runner is gone").shutdown();
            let tasks_run: u64 = stats.iter().map(|s| s.tasks_run).sum();
            assert_eq!((counters.0, tasks_run), (booked, booked));
            (results, counters)
        };
        let reduce: Reduce = |tr, site, degree, body| tr.parallel_reduce(site, degree, body);
        let round = drive(reduce, true);
        // The oracle wakes every member whatever the pin says.
        let oracle = drive(classic::parallel_reduce, true);
        assert_eq!(round.0, want);
        assert_eq!(round, oracle);
        assert_eq!(round.1 .1, panics);
        let (solo, (_, solo_panics)) = drive(reduce, false);
        assert_eq!((solo, solo_panics), (want, panics));
    }
}
