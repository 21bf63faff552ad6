//! Dependence-driven chains of parallel loops (§5.3).
//!
//! The paper's `Pass` structure is not only a result channel: "SPE to SPE
//! communication enables dependence-driven execution of multiple parallel
//! loops across SPEs" — a team executes loop B, which consumes loop A's
//! reduction, without bouncing through the PPE or re-forming the team.
//!
//! [`ChainRunner::chained_reduce`] reproduces that: the team is reserved
//! once; workers stay resident, receiving per-stage `(stage, carry, range)`
//! messages from the master and answering with partial results; the master
//! merges each stage's partials into the carry value fed to the next
//! stage. As in [`super::team`], the calling thread is the master: it
//! drives the reserved master SPE's context itself (`SpePool::run_here`)
//! and leaves with the final carry.

use std::ops::Range;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};

use super::sync::COMMAND_QUEUE_DEPTH;

use super::context::SpeContext;
use super::pool::{OffloadError, SpePool};
use crate::events::EventKind;
use crate::policy::chunk::partition;
use crate::tracing::TraceHandle;

/// Identifies a traced chain invocation: each stage becomes one task in the
/// drained trace, numbered `base_task + stage_index`, owned by `proc`.
#[derive(Debug, Clone, Copy)]
pub struct ChainTrace<'a> {
    /// The calling process's ring (per-stage off-load records land here).
    pub handle: &'a TraceHandle,
    /// The owning worker process.
    pub proc: usize,
    /// Task id of the chain's first stage.
    pub base_task: u64,
}

/// One stage of a dependence-driven loop chain. The carried value is the
/// previous stage's reduction result (`init` for the first stage).
pub trait ChainedLoop: Send + Sync + 'static {
    /// Iterations of this stage's loop.
    fn len(&self) -> usize;

    /// True when this stage has no iterations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reduction identity for this stage.
    fn identity(&self) -> f64;

    /// Execute iterations `range` given the carried value.
    fn run_chunk(&self, carry: f64, range: Range<usize>, ctx: &mut SpeContext) -> f64;

    /// Merge two partial results of this stage.
    fn merge(&self, a: f64, b: f64) -> f64;
}

enum WorkerMsg {
    Run { stage: usize, carry: f64, range: Range<usize> },
    Done,
}

/// Executes loop chains on a pool.
pub struct ChainRunner {
    pool: Arc<SpePool>,
}

impl ChainRunner {
    /// A runner over `pool`.
    pub fn new(pool: Arc<SpePool>) -> ChainRunner {
        ChainRunner { pool }
    }

    /// Run `stages` as one dependence-driven chain across `degree` SPEs,
    /// carrying each stage's reduction into the next; returns the final
    /// carry. The team is reserved exactly once for the whole chain.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if any team member panicked; the
    /// pool remains serviceable.
    ///
    /// # Panics
    /// Panics if `stages` is empty or `degree == 0`.
    pub fn chained_reduce(
        &self,
        degree: usize,
        stages: Vec<Arc<dyn ChainedLoop>>,
        init: f64,
    ) -> Result<f64, OffloadError> {
        self.chained_reduce_traced(degree, stages, init, None)
    }

    /// As [`Self::chained_reduce`], recording each stage as one task in the
    /// drained trace (see [`crate::tracing`]): the whole chain is submitted
    /// at once, so every stage's off-load record carries the submission
    /// instant; stage start/end and per-member chunks are recorded by the
    /// SPEs that run them.
    ///
    /// # Errors
    /// [`OffloadError::TaskPanicked`] if any team member panicked.
    ///
    /// # Panics
    /// Panics if `stages` is empty or `degree == 0`.
    pub fn chained_reduce_traced(
        &self,
        degree: usize,
        stages: Vec<Arc<dyn ChainedLoop>>,
        init: f64,
        trace: Option<ChainTrace<'_>>,
    ) -> Result<f64, OffloadError> {
        assert!(!stages.is_empty(), "a chain needs at least one stage");
        assert!(degree >= 1, "degree must be at least 1");
        let max_len = stages.iter().map(|s| s.len()).max().expect("nonempty");
        let degree = degree.min(self.pool.n_spes()).min(max_len.max(1));

        if let Some(t) = &trace {
            for si in 0..stages.len() {
                t.handle.record(EventKind::Offload {
                    proc: t.proc,
                    task: t.base_task + si as u64,
                });
            }
        }
        let ids = trace.as_ref().map(|t| (t.proc, t.base_task));

        if degree == 1 {
            // Single SPE: the whole chain as one resident job.
            let stages = stages.clone();
            return self
                .pool
                .offload(move |ctx| {
                    let mut carry = init;
                    for (si, s) in stages.iter().enumerate() {
                        let n = s.len();
                        let task = ids.map(|(proc, base)| (proc, base + si as u64));
                        if let (Some((proc, task)), Some(h)) = (task, ctx.trace()) {
                            h.record(EventKind::TaskStart {
                                proc,
                                task,
                                degree: 1,
                                team: vec![ctx.id.0],
                            });
                        }
                        carry = s.run_chunk(carry, 0..n, ctx);
                        if let (Some((proc, task)), Some(h)) = (task, ctx.trace()) {
                            if n > 0 {
                                h.record(EventKind::Chunk {
                                    task,
                                    loop_iters: n,
                                    start: 0,
                                    len: n,
                                    worker: ctx.id.0,
                                });
                            }
                            h.record(EventKind::TaskEnd {
                                proc,
                                task,
                                team: vec![ctx.id.0],
                            });
                        }
                    }
                    carry
                })
                .wait();
        }

        let team = self.pool.reserve(degree);
        let master = team[0];
        let workers = &team[1..];

        // Per-worker command and partial-result channels (the Pass
        // structures): one pair per worker, so a dead worker is observable
        // as *its own* channel disconnecting rather than a hang.
        let mut cmd_txs: Vec<Sender<WorkerMsg>> = Vec::with_capacity(workers.len());
        let mut pass_rxs: Vec<Receiver<f64>> = Vec::with_capacity(workers.len());
        for &w in workers {
            // Bounded: the master sends one Run per stage and waits for the
            // worker's pass before the next, so depth never exceeds two.
            let (tx, rx): (Sender<WorkerMsg>, Receiver<WorkerMsg>) =
                bounded(COMMAND_QUEUE_DEPTH);
            let (pass_tx, pass_rx) = bounded::<f64>(1);
            cmd_txs.push(tx);
            pass_rxs.push(pass_rx);
            let stages = stages.clone();
            self.pool.run_on(
                w,
                Box::new(move |ctx: &mut SpeContext| {
                    // Resident worker: serves every stage of the chain
                    // before returning to the pool.
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            WorkerMsg::Run { stage, carry, range } => {
                                let out = stages[stage].run_chunk(carry, range.clone(), ctx);
                                if let (Some((_, base)), Some(h)) = (ids, ctx.trace()) {
                                    if !range.is_empty() {
                                        h.record(EventKind::Chunk {
                                            task: base + stage as u64,
                                            loop_iters: stages[stage].len(),
                                            start: range.start,
                                            len: range.len(),
                                            worker: ctx.id.0,
                                        });
                                    }
                                }
                                let _ = pass_tx.send(out);
                            }
                            WorkerMsg::Done => break,
                        }
                    }
                }),
            );
        }

        // The master — this thread, on the reserved master SPE's context —
        // drives all stages, merging partials into the carry. The closure
        // owns the channels, so the workers are released when it ends, by
        // a panic included.
        let n_workers = workers.len();
        let worker_spes: Vec<usize> = workers.iter().map(|s| s.0).collect();
        self.pool.run_here(master, move |ctx| {
            let mut carry = init;
            let mut failed = false;
            'chain: for (si, stage) in stages.iter().enumerate() {
                let chunks = partition(stage.len(), n_workers + 1, 0.0);
                // The stage's effective team: master plus every worker
                // with a nonempty chunk (empty chunks are not sent).
                let stage_team = ids.map(|_| {
                    let mut t = vec![ctx.id.0];
                    for (w, range) in chunks[1..].iter().enumerate() {
                        if !range.is_empty() {
                            t.push(worker_spes[w]);
                        }
                    }
                    t
                });
                if let (Some((proc, base)), Some(team)) = (ids, stage_team.clone()) {
                    if let Some(h) = ctx.trace() {
                        h.record(EventKind::TaskStart {
                            proc,
                            task: base + si as u64,
                            degree: team.len(),
                            team,
                        });
                    }
                }
                // Empty chunks are never dispatched: short stages run
                // on fewer members without burdening stage authors
                // with empty-range handling.
                let mut dispatched = Vec::new();
                for (w, range) in chunks[1..].iter().cloned().enumerate() {
                    if range.is_empty() {
                        continue;
                    }
                    if cmd_txs[w]
                        .send(WorkerMsg::Run { stage: si, carry, range })
                        .is_err()
                    {
                        failed = true;
                        break 'chain;
                    }
                    dispatched.push(w);
                }
                let mut acc = stage.run_chunk(carry, chunks[0].clone(), ctx);
                if let (Some((_, base)), Some(h)) = (ids, ctx.trace()) {
                    if !chunks[0].is_empty() {
                        h.record(EventKind::Chunk {
                            task: base + si as u64,
                            loop_iters: stage.len(),
                            start: chunks[0].start,
                            len: chunks[0].len(),
                            worker: ctx.id.0,
                        });
                    }
                }
                for &w in &dispatched {
                    match pass_rxs[w].recv() {
                        Ok(p) => acc = stage.merge(acc, p),
                        Err(_) => {
                            // That worker panicked; its channel closed.
                            failed = true;
                            break 'chain;
                        }
                    }
                }
                carry = acc;
                if let (Some((proc, base)), Some(team)) = (ids, stage_team) {
                    if let Some(h) = ctx.trace() {
                        h.record(EventKind::TaskEnd {
                            proc,
                            task: base + si as u64,
                            team,
                        });
                    }
                }
            }
            for tx in &cmd_txs {
                let _ = tx.send(WorkerMsg::Done);
            }
            if failed {
                Err(OffloadError::TaskPanicked)
            } else {
                Ok(carry)
            }
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Stage: sum of (carry + i) over the range — carry-sensitive so stage
    /// order and data flow are observable.
    struct AffineSum {
        n: usize,
    }

    impl ChainedLoop for AffineSum {
        fn len(&self) -> usize {
            self.n
        }
        fn identity(&self) -> f64 {
            0.0
        }
        fn run_chunk(&self, carry: f64, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
            range.map(|i| carry / self.n as f64 + i as f64).sum()
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
    }

    fn sequential(stages: &[Arc<dyn ChainedLoop>], init: f64) -> f64 {
        let mut ctx = SpeContext::new(crate::policy::SpeId(0), Duration::ZERO);
        let mut carry = init;
        for s in stages {
            carry = s.run_chunk(carry, 0..s.len(), &mut ctx);
        }
        carry
    }

    fn stages(ns: &[usize]) -> Vec<Arc<dyn ChainedLoop>> {
        ns.iter().map(|&n| Arc::new(AffineSum { n }) as Arc<dyn ChainedLoop>).collect()
    }

    #[test]
    fn chain_matches_sequential_composition_at_every_degree() {
        let pool = Arc::new(SpePool::new(8, Duration::ZERO));
        let runner = ChainRunner::new(Arc::clone(&pool));
        let chain = stages(&[100, 57, 228]);
        let want = sequential(&chain, 3.0);
        for degree in [1usize, 2, 4, 8] {
            let got = runner.chained_reduce(degree, chain.clone(), 3.0).unwrap();
            assert!(
                (got - want).abs() < 1e-9,
                "degree {degree}: {got} vs sequential {want}"
            );
        }
    }

    #[test]
    fn team_is_reserved_once_for_the_whole_chain() {
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let runner = ChainRunner::new(Arc::clone(&pool));
        let before = pool.completed();
        runner.chained_reduce(4, stages(&[64, 64, 64, 64, 64]), 0.0).unwrap();
        while pool.idle_count() < 4 {
            std::thread::yield_now();
        }
        // Exactly `degree` jobs ran (1 master + 3 resident workers), not
        // degree × stages.
        assert_eq!(pool.completed() - before, 4);
    }

    #[test]
    fn single_stage_chain_equals_plain_reduce_semantics() {
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let runner = ChainRunner::new(pool);
        let got = runner.chained_reduce(3, stages(&[228]), 0.0).unwrap();
        let want: f64 = (0..228).map(|i| i as f64).sum();
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    fn worker_panic_in_any_stage_is_contained() {
        struct Bomb;
        impl ChainedLoop for Bomb {
            fn len(&self) -> usize {
                16
            }
            fn identity(&self) -> f64 {
                0.0
            }
            fn run_chunk(&self, _carry: f64, range: Range<usize>, _ctx: &mut SpeContext) -> f64 {
                if range.start > 0 {
                    panic!("chain failure injection");
                }
                1.0
            }
            fn merge(&self, a: f64, b: f64) -> f64 {
                a + b
            }
        }
        let pool = Arc::new(SpePool::new(4, Duration::ZERO));
        let runner = ChainRunner::new(Arc::clone(&pool));
        let mut chain = stages(&[64]);
        chain.push(Arc::new(Bomb));
        let err = runner.chained_reduce(4, chain, 0.0);
        assert_eq!(err.unwrap_err(), OffloadError::TaskPanicked);
        // Pool recovers.
        while pool.idle_count() < 4 {
            std::thread::yield_now();
        }
        assert_eq!(pool.offload(|_| 7u32).wait().unwrap(), 7);
    }

    #[test]
    fn short_stages_skip_idle_workers() {
        // A stage of length 1 in an 8-way chain must not dispatch empty
        // chunks (a stage that misreads its range would corrupt the carry).
        struct One;
        impl ChainedLoop for One {
            fn len(&self) -> usize {
                1
            }
            fn identity(&self) -> f64 {
                0.0
            }
            fn run_chunk(&self, carry: f64, _r: Range<usize>, _ctx: &mut SpeContext) -> f64 {
                // Deliberately ignores the range, like a "finalize" stage.
                carry + 1.0
            }
            fn merge(&self, a: f64, b: f64) -> f64 {
                a + b
            }
        }
        let pool = Arc::new(SpePool::new(8, Duration::ZERO));
        let runner = ChainRunner::new(pool);
        let mut chain = stages(&[64]);
        chain.push(Arc::new(One));
        let seq = sequential(&chain, 0.0);
        for degree in [2usize, 4, 8] {
            let got = runner.chained_reduce(degree, chain.clone(), 0.0).unwrap();
            assert!((got - seq).abs() < 1e-9, "degree {degree}: {got} vs {seq}");
        }
    }

    #[test]
    fn degree_clamps_to_longest_stage() {
        let pool = Arc::new(SpePool::new(8, Duration::ZERO));
        let runner = ChainRunner::new(pool);
        // Stages shorter than the requested degree still work.
        let got = runner.chained_reduce(8, stages(&[3, 2]), 1.0).unwrap();
        let want = sequential(&stages(&[3, 2]), 1.0);
        assert!((got - want).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_chain_rejected() {
        let pool = Arc::new(SpePool::new(2, Duration::ZERO));
        let runner = ChainRunner::new(pool);
        let _ = runner.chained_reduce(2, Vec::new(), 0.0);
    }
}
