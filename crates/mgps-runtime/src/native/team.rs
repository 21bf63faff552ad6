//! Loop work-sharing across virtual SPEs (§5.3).
//!
//! One off-loaded function containing a parallel loop executes on a *team*:
//! a master SPE plus `degree - 1` workers. The master signals the workers,
//! runs its own (bias-enlarged) chunk, then accumulates each worker's
//! partial result — delivered master-to-master over a `Pass`-style
//! message, not through shared memory — and merges them into the final
//! value. Idle periods are timed on every invocation and fed to a per-site
//! [`LoadBalancer`] that tunes the master's head-start compensation.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::bounded;

use super::sync::{AtomicU64, Mutex, Ordering};

use super::context::SpeContext;
use super::pool::{OffloadError, SpePool};
use crate::events::EventKind;
use crate::policy::balance::{LoadBalancer, LoopObservation};
use crate::policy::chunk::partition;
use crate::policy::SpeId;
use crate::tracing::TraceHandle;

/// Notional size of a worker's loop-argument DMA fetch, bytes. Real Cell
/// code fetches a control block + argument arrays; 2 KB (16-byte aligned,
/// under the 16 KB MFC element limit) stands in for it in traces.
pub const ARG_FETCH_BYTES: usize = 2048;

/// Identifies the off-load a traced team invocation belongs to, so the
/// team layer can attribute its spans (task start/end, per-member chunks,
/// worker argument DMA) to the right task in the drained trace.
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
}

/// The worker→master completion message, mirroring the paper's `Pass`
/// structure: the partial result (`res`), plus the completion-notification
/// role of `sig` (the channel itself) and a timestamp for idle accounting.
struct Pass<A> {
    res: A,
    finished: Instant,
}

/// Identifies one parallel-loop site in the program, so adaptive tuning
/// state persists across invocations of the same loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopSite(pub u64);

/// Timing of one team invocation (for tests and instrumentation).
#[derive(Debug, Clone, Copy, Default)]
pub struct TeamTiming {
    /// Wall time of the whole invocation, ns.
    pub loop_ns: u64,
    /// Master idle time waiting for the slowest worker, ns.
    pub master_idle_ns: u64,
    /// Mean worker idle time relative to the slowest finisher, ns.
    pub mean_worker_idle_ns: u64,
}

/// Executes work-shared loops on a pool, with per-site adaptive master
/// bias.
pub struct TeamRunner {
    pool: Arc<SpePool>,
    balancers: Mutex<HashMap<LoopSite, LoadBalancer>>,
    /// Simulated worker startup latency (the DMA fetch of loop arguments
    /// in `fetch_data()`); zero disables the stall.
    worker_startup: Duration,
    invocations: AtomicU64,
}

impl TeamRunner {
    /// A runner over `pool` with the given simulated worker-startup stall.
    pub fn new(pool: Arc<SpePool>, worker_startup: Duration) -> TeamRunner {
        TeamRunner {
            pool,
            balancers: Mutex::new(HashMap::new()),
            worker_startup,
            invocations: AtomicU64::new(0),
        }
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
    /// result. `degree == 1` degrades to a plain single-SPE off-load.
    ///
    /// Blocks the calling thread until the loop completes (the caller is a
    /// worker process whose PPE context handling is the
    /// [`super::gate::PpeGate`]'s concern, not ours).
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
        let (acc, _t) = self.parallel_reduce_timed(site, degree, body)?;
        Ok(acc)
    }

    /// As [`Self::parallel_reduce`], recording task/chunk/DMA spans for the
    /// off-load identified by `trace` (see [`crate::tracing`]). Task start
    /// and end land on the caller's ring; each team member records its own
    /// chunk (and argument-fetch DMA) on its SPE ring.
    pub fn parallel_reduce_traced<B: LoopBody>(
        &self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
        trace: Option<TraceTask<'_>>,
    ) -> Result<B::Acc, OffloadError> {
        let (acc, _t) = self.parallel_reduce_timed_traced(site, degree, body, trace)?;
        Ok(acc)
    }

    /// As [`Self::parallel_reduce`], also returning invocation timing.
    pub fn parallel_reduce_timed<B: LoopBody>(
        &self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
    ) -> Result<(B::Acc, TeamTiming), OffloadError> {
        self.parallel_reduce_timed_traced(site, degree, body, None)
    }

    /// As [`Self::parallel_reduce_traced`], also returning invocation timing.
    pub fn parallel_reduce_timed_traced<B: LoopBody>(
        &self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
        trace: Option<TraceTask<'_>>,
    ) -> Result<(B::Acc, TeamTiming), OffloadError> {
        self.parallel_reduce_near(site, degree, body, trace, &mut None)
    }

    /// The kernel under all `parallel_reduce*` variants. `near` is the
    /// caller's SPE affinity for single-SPE off-loads: the SPE that ran its
    /// previous one is preferred (see `SpePool::offload_near`) and the one
    /// that ran this one is written back. Teams neither read nor write it.
    pub(crate) fn parallel_reduce_near<B: LoopBody>(
        &self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
        trace: Option<TraceTask<'_>>,
        near: &mut Option<SpeId>,
    ) -> Result<(B::Acc, TeamTiming), OffloadError> {
        assert!(degree >= 1, "loop degree must be at least 1");
        let degree = degree.min(self.pool.n_spes()).min(body.len().max(1));
        self.invocations.fetch_add(1, Ordering::Relaxed);

        if degree == 1 {
            let b = Arc::clone(&body);
            let n = body.len();
            // The pool picks the SPE, so the span events are recorded from
            // inside the job, where the context (and its ring) is known.
            let ids = trace.as_ref().map(|t| (t.proc, t.task));
            let started = Instant::now();
            let (acc, spe) = self
                .pool
                .offload_near(*near, move |ctx| {
                    if let (Some((proc, task)), Some(h)) = (ids, ctx.trace()) {
                        h.record(EventKind::TaskStart {
                            proc,
                            task,
                            degree: 1,
                            team: vec![ctx.id.0],
                        });
                    }
                    let out = b.run_chunk(0..n, ctx);
                    if let (Some((proc, task)), Some(h)) = (ids, ctx.trace()) {
                        if n > 0 {
                            h.record(EventKind::Chunk {
                                task,
                                loop_iters: n,
                                start: 0,
                                len: n,
                                worker: ctx.id.0,
                            });
                        }
                        h.record(EventKind::TaskEnd { proc, task, team: vec![ctx.id.0] });
                    }
                    (out, ctx.id)
                })
                .wait()?;
            *near = Some(spe);
            let timing = TeamTiming {
                loop_ns: started.elapsed().as_nanos() as u64,
                ..TeamTiming::default()
            };
            return Ok((acc, timing));
        }

        let bias = self.bias(site);
        let total_iters = body.len();
        let chunks = partition(total_iters, degree, bias);
        let team = self.pool.reserve(degree);
        let master = team[0];
        let workers = &team[1..];

        let team_ids: Vec<usize> = team.iter().map(|s| s.0).collect();
        if let Some(t) = &trace {
            t.handle.record(EventKind::TaskStart {
                proc: t.proc,
                task: t.task,
                degree,
                team: team_ids.clone(),
            });
        }
        let task_id = trace.as_ref().map(|t| t.task);

        let started = Instant::now();
        let (pass_tx, pass_rx) = bounded::<Result<Pass<B::Acc>, ()>>(workers.len());

        // "master sends signal to worker n": dispatch each worker its chunk.
        for (w, range) in workers.iter().zip(chunks[1..].iter().cloned()) {
            let b = Arc::clone(&body);
            let tx = pass_tx.clone();
            let startup = self.worker_startup;
            self.pool.run_on(
                *w,
                Box::new(move |ctx: &mut SpeContext| {
                    // fetch_data(): workers stage the argument block through
                    // local store and pay the fetch latency before their
                    // first iteration.
                    if !startup.is_zero() {
                        let staged = ctx.local_store.alloc(ARG_FETCH_BYTES).is_ok();
                        if let (Some(_), Some(h)) = (task_id, ctx.trace()) {
                            // The issue event models the argument fetch as a
                            // single-element list transfer into the start of
                            // the data region.
                            if staged {
                                h.record(EventKind::Dma {
                                    spe: ctx.id.0,
                                    element_bytes: vec![ARG_FETCH_BYTES],
                                    local_addr: 0,
                                    main_addr: 0,
                                });
                            }
                            // Timestamp = transfer start; the latency is the
                            // span length (mirrors the simulator's DMA span).
                            h.record(EventKind::DmaComplete {
                                spe: ctx.id.0,
                                bytes: ARG_FETCH_BYTES,
                                latency_ns: startup.as_nanos() as u64,
                            });
                        }
                        spin_for(startup);
                    }
                    let res = b.run_chunk(range.clone(), ctx);
                    if let (Some(task), Some(h)) = (task_id, ctx.trace()) {
                        if !range.is_empty() {
                            h.record(EventKind::Chunk {
                                task,
                                loop_iters: total_iters,
                                start: range.start,
                                len: range.len(),
                                worker: ctx.id.0,
                            });
                        }
                    }
                    let _ = tx.send(Ok(Pass { res, finished: Instant::now() }));
                }),
            );
        }
        drop(pass_tx);

        // Master chunk + reduction, dispatched to the reserved master SPE.
        let (res_tx, res_rx) = bounded(1);
        let b = Arc::clone(&body);
        let master_range = chunks[0].clone();
        let n_workers = workers.len();
        self.pool.run_on(
            master,
            Box::new(move |ctx: &mut SpeContext| {
                let acc0 = b.run_chunk(master_range.clone(), ctx);
                if let (Some(task), Some(h)) = (task_id, ctx.trace()) {
                    if !master_range.is_empty() {
                        h.record(EventKind::Chunk {
                            task,
                            loop_iters: total_iters,
                            start: master_range.start,
                            len: master_range.len(),
                            worker: ctx.id.0,
                        });
                    }
                }
                let mut acc = acc0;
                let master_finished = Instant::now();
                let mut worker_finishes = Vec::with_capacity(n_workers);
                let mut failed = false;
                for _ in 0..n_workers {
                    match pass_rx.recv() {
                        Ok(Ok(pass)) => {
                            acc = b.merge(acc, pass.res);
                            worker_finishes.push(pass.finished);
                        }
                        // A worker panicked: its sender was dropped inside
                        // the containment machinery; surface the failure.
                        Ok(Err(())) | Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                let msg =
                    if failed { Err(()) } else { Ok((acc, master_finished, worker_finishes)) };
                let _ = res_tx.send(msg);
            }),
        );
        // The calling worker-process thread — the PPE side — blocks here,
        // exactly like an MPI process waiting on its off-loaded function.
        let (acc, master_finished, worker_finishes) = match res_rx.recv() {
            Ok(Ok(v)) => v,
            Ok(Err(())) | Err(_) => return Err(OffloadError::TaskPanicked),
        };
        if let Some(t) = &trace {
            t.handle
                .record(EventKind::TaskEnd { proc: t.proc, task: t.task, team: team_ids });
        }

        let all_done = Instant::now();
        let timing = compute_timing(started, master_finished, &worker_finishes, all_done);
        self.balancers
            .lock()
            .entry(site)
            .or_insert_with(|| LoadBalancer::new(0.8, 2.0))
            .observe(LoopObservation {
                master_idle_ns: timing.master_idle_ns,
                mean_worker_idle_ns: timing.mean_worker_idle_ns,
                loop_ns: timing.loop_ns,
            });
        Ok((acc, timing))
    }
}

fn compute_timing(
    started: Instant,
    master_finished: Instant,
    worker_finishes: &[Instant],
    all_done: Instant,
) -> TeamTiming {
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
    TeamTiming { loop_ns, master_idle_ns, mean_worker_idle_ns }
}

/// Busy-wait for `d` (models an SPE stall; sleeping would deschedule the
/// thread and distort fine-grained timings).
fn spin_for(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of f(i) over 0..n — the shape of the paper's `evaluate()` loop.
    struct SumLoop {
        n: usize,
        per_iter_spin: Duration,
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
            let mut s = 0.0;
            for i in range {
                if !self.per_iter_spin.is_zero() {
                    spin_for(self.per_iter_spin);
                }
                s += (i as f64).sqrt();
            }
            s
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
    }

    fn expected_sum(n: usize) -> f64 {
        (0..n).map(|i| (i as f64).sqrt()).sum()
    }

    #[test]
    fn degree_one_matches_sequential() {
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let tr = TeamRunner::new(pool, Duration::ZERO);
        let body = Arc::new(SumLoop { n: 228, per_iter_spin: Duration::ZERO });
        let acc = tr.parallel_reduce(LoopSite(1), 1, body).unwrap();
        assert!((acc - expected_sum(228)).abs() < 1e-9);
    }

    #[test]
    fn all_degrees_produce_the_same_reduction() {
        let pool = Arc::new(SpePool::new(8, Duration::ZERO));
        let tr = TeamRunner::new(pool, Duration::ZERO);
        let want = expected_sum(228);
        for degree in 1..=8 {
            let body = Arc::new(SumLoop { n: 228, per_iter_spin: Duration::ZERO });
            let acc = tr.parallel_reduce(LoopSite(2), degree, body).unwrap();
            assert!(
                (acc - want).abs() < 1e-9,
                "degree {degree}: got {acc}, want {want}"
            );
        }
    }

    #[test]
    fn degree_is_clamped_to_loop_length() {
        let pool = Arc::new(SpePool::new(8, Duration::ZERO));
        let tr = TeamRunner::new(pool, Duration::ZERO);
        let body = Arc::new(SumLoop { n: 3, per_iter_spin: Duration::ZERO });
        let acc = tr.parallel_reduce(LoopSite(3), 8, body).unwrap();
        assert!((acc - expected_sum(3)).abs() < 1e-12);
    }

    #[test]
    fn empty_loop_returns_identity() {
        let pool = Arc::new(SpePool::new(2, Duration::ZERO));
        let tr = TeamRunner::new(pool, Duration::ZERO);
        let body = Arc::new(SumLoop { n: 0, per_iter_spin: Duration::ZERO });
        let acc = tr.parallel_reduce(LoopSite(4), 4, body).unwrap();
        assert_eq!(acc, 0.0);
    }

    #[test]
    fn spes_return_to_pool_after_team_work() {
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let tr = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        for _ in 0..5 {
            let body = Arc::new(SumLoop { n: 64, per_iter_spin: Duration::ZERO });
            tr.parallel_reduce(LoopSite(5), 4, body).unwrap();
        }
        while pool.idle_count() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(pool.idle_count(), 4);
    }

    #[test]
    fn worker_panic_propagates_as_error() {
        struct PanicLoop;
        impl LoopBody for PanicLoop {
            type Acc = u32;
            fn len(&self) -> usize {
                16
            }
            fn identity(&self) -> u32 {
                0
            }
            fn run_chunk(&self, range: Range<usize>, _ctx: &mut SpeContext) -> u32 {
                if range.start > 0 {
                    panic!("worker failure injection");
                }
                1
            }
            fn merge(&self, a: u32, b: u32) -> u32 {
                a + b
            }
        }
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let tr = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        let err = tr.parallel_reduce(LoopSite(6), 4, Arc::new(PanicLoop));
        assert_eq!(err.unwrap_err(), OffloadError::TaskPanicked);
        // Pool remains serviceable.
        let h = pool.offload(|_| 5);
        assert_eq!(h.wait().unwrap(), 5);
    }

    #[test]
    fn repeated_invocations_tune_master_bias_under_startup_latency() {
        // Wall-clock sensitive (worker startup vs per-iteration spin), so
        // preemption from concurrently running tests can wash one attempt
        // out; the property is that *some* fresh runner converges quickly.
        let mut last_bias = 0.0;
        for _attempt in 0..3 {
            let pool = Arc::new(SpePool::new(4, Duration::ZERO));
            // 200 µs worker startup over a ~2 ms loop: the balancer should
            // give the master extra iterations.
            let tr = TeamRunner::new(pool, Duration::from_micros(200));
            let site = LoopSite(7);
            for _ in 0..12 {
                let body = Arc::new(SumLoop { n: 400, per_iter_spin: Duration::from_micros(5) });
                tr.parallel_reduce(site, 4, body).unwrap();
            }
            assert_eq!(tr.invocations(), 12);
            last_bias = tr.bias(site);
            if last_bias > 0.0 {
                return;
            }
        }
        panic!("bias should grow under worker startup latency, got {last_bias}");
    }
}
