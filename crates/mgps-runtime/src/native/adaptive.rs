//! The native multigrain runtime: EDTLP off-loading, LLP work-sharing, and
//! the adaptive MGPS policy, assembled over the virtual-SPE pool.
//!
//! [`MgpsRuntime`] is the public entry point a host application uses. Each
//! worker process (the analogue of one MPI rank) calls
//! [`MgpsRuntime::enter_process`], then alternates PPE-side computation
//! ([`ProcessCtx::ppe_compute`]) with kernel off-loads
//! ([`ProcessCtx::offload_loop`]). The runtime decides — per the configured
//! [`SchedulerKind`] — whether each off-loaded kernel runs whole on one SPE
//! or work-shares its loops across a team, and under MGPS it adapts that
//! choice on-line from the observed task-parallelism history.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::sync::Mutex;

use super::gate::{GateMode, PpeGate, PpeToken};
use super::pool::{OffloadError, SpePool, SpeStats};
use super::team::{run_whole, LoopBody, LoopSite, TeamRunner, TraceTask};
use crate::events::EventKind;
use crate::faults::FaultPlan;
use crate::metrics::{Counter, HistKind, MetricsSink, MetricsSinkExt, NopMetrics};
use crate::tracing::{TraceHandle, Tracer};
use crate::policy::granularity::{GranularityController, GranularityDecision};
use crate::policy::hybrid::SchedulerKind;
use crate::policy::mgps::{Directive, MgpsConfig, MgpsScheduler};
use crate::policy::types::{KernelKind, TaskId};
use crate::policy::SpeId;

/// Construction parameters for a native runtime.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Virtual SPEs (8 per Cell).
    pub n_spes: usize,
    /// PPE hardware contexts (2 on Cell).
    pub ppe_contexts: usize,
    /// Scheduling scheme.
    pub scheduler: SchedulerKind,
    /// Enable §5.2 dynamic granularity control (PPE fallback for kernels
    /// that fail the off-load profitability test). Re-probe period in
    /// requests; `None` makes [`ProcessCtx::offload_adaptive`] a plain
    /// [`ProcessCtx::offload_loop`].
    pub granularity_retry: Option<u64>,
    /// Seeded chaos plan (inert by default). When armed, off-load attempts
    /// can be killed deterministically; the runtime recovers by bounded
    /// retry with backoff, SPE quarantine, and the scalar PPE fallback.
    pub faults: FaultPlan,
}

impl RuntimeConfig {
    /// A Cell-shaped runtime (8 virtual SPEs, 2 PPE contexts) under the
    /// given scheduler. It pays what the host's threads pay, none of the
    /// Cell's hardware costs: those are the simulator's inputs.
    pub fn cell(scheduler: SchedulerKind) -> RuntimeConfig {
        RuntimeConfig {
            n_spes: 8,
            ppe_contexts: 2,
            scheduler,
            granularity_retry: None,
            faults: FaultPlan::inert(),
        }
    }

    /// Enable dynamic granularity control with the given re-probe period.
    pub fn with_granularity_control(mut self, retry_period: u64) -> RuntimeConfig {
        self.granularity_retry = Some(retry_period);
        self
    }

    /// Arm the given chaos plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> RuntimeConfig {
        self.faults = plan;
        self
    }
}

enum DegreePolicy {
    /// The configured degree, for good.
    Fixed,
    Adaptive(Mutex<MgpsScheduler>),
}

/// Mutable bookkeeping of the armed fault plane (absent on inert plans, so
/// the unfaulted hot path pays a single `Option` check per off-load).
struct FaultState {
    /// Consecutive faults charged to each SPE; reset on success.
    consec: Vec<u32>,
    /// Tick at which each quarantined SPE was benched (`None` = healthy).
    benched_at: Vec<Option<u64>>,
    /// Fault-plane clock: advances on every injected fault and every
    /// successful off-load, so re-admission probes are paced by runtime
    /// activity, not wall time.
    ticks: u64,
}

/// Outcome of one locked round against the fault plan.
enum FaultRound {
    /// No fault: run on the SPEs with the given (health-clamped) degree.
    Run { lead: usize, degree: usize },
    /// Faulted with retry budget left: back off, then try again.
    Retry { backoff_ns: u64 },
    /// Faulted with retries exhausted (or no healthy SPE remains):
    /// terminal degradation. `attempts` is the number of SPE attempts made.
    Exhausted { attempts: u64 },
}

/// The native multigrain runtime.
pub struct MgpsRuntime {
    pool: Arc<SpePool>,
    runner: TeamRunner,
    gate: PpeGate,
    degree_policy: DegreePolicy,
    current_degree: AtomicUsize,
    next_task: AtomicU64,
    next_proc: AtomicUsize,
    inflight: AtomicUsize,
    epoch: Instant,
    config: RuntimeConfig,
    granularity: Option<Mutex<GranularityController>>,
    fault_state: Option<Mutex<FaultState>>,
    metrics: Arc<dyn MetricsSink>,
    tracer: Option<Arc<Tracer>>,
}

impl MgpsRuntime {
    /// Build a runtime from `config`.
    pub fn new(config: RuntimeConfig) -> MgpsRuntime {
        MgpsRuntime::with_metrics(config, Arc::new(NopMetrics))
    }

    /// Build a runtime that records counters and histograms into `metrics`
    /// (see [`crate::metrics`] — the same schema the simulator reports in).
    pub fn with_metrics(config: RuntimeConfig, metrics: Arc<dyn MetricsSink>) -> MgpsRuntime {
        MgpsRuntime::with_observability(config, metrics, None)
    }

    /// Build a runtime that additionally records span traces into `tracer`
    /// (see [`crate::tracing`]): every off-load, task start/end, chunk,
    /// context switch, granularity verdict, fault, and MGPS degree decision
    /// lands on a per-thread ring, drainable into the simulator's RunLog
    /// vocabulary for the checker / timeline / Chrome-trace pipeline.
    pub fn with_observability(
        config: RuntimeConfig,
        metrics: Arc<dyn MetricsSink>,
        tracer: Option<Arc<Tracer>>,
    ) -> MgpsRuntime {
        let pool = Arc::new(SpePool::with_observability(
            config.n_spes,
            Arc::clone(&metrics),
            tracer.as_deref(),
        ));
        let runner = TeamRunner::new(Arc::clone(&pool), Duration::ZERO);
        let (gate_mode, degree_policy, initial_degree) = match config.scheduler {
            SchedulerKind::Edtlp => (GateMode::YieldOnOffload, DegreePolicy::Fixed, 1),
            SchedulerKind::LinuxLike => (GateMode::HoldDuringOffload, DegreePolicy::Fixed, 1),
            SchedulerKind::StaticHybrid { spes_per_loop } => {
                assert!(
                    spes_per_loop >= 1 && spes_per_loop <= config.n_spes,
                    "spes_per_loop out of range"
                );
                (GateMode::YieldOnOffload, DegreePolicy::Fixed, spes_per_loop)
            }
            SchedulerKind::Mgps => (
                GateMode::YieldOnOffload,
                DegreePolicy::Adaptive(Mutex::new(MgpsScheduler::new(MgpsConfig::for_spes(
                    config.n_spes,
                )))),
                1,
            ),
        };
        let gate = PpeGate::with_metrics(config.ppe_contexts, gate_mode, Arc::clone(&metrics));
        let granularity = config
            .granularity_retry
            .map(|retry| Mutex::new(GranularityController::new(retry)));
        let fault_state = config.faults.armed().then(|| {
            Mutex::new(FaultState {
                consec: vec![0; config.n_spes],
                benched_at: vec![None; config.n_spes],
                ticks: 0,
            })
        });
        MgpsRuntime {
            pool,
            runner,
            gate,
            degree_policy,
            current_degree: AtomicUsize::new(initial_degree),
            next_task: AtomicU64::new(0),
            next_proc: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            epoch: Instant::now(),
            config,
            granularity,
            fault_state,
            metrics,
            tracer,
        }
    }

    /// Whether `kind` is currently throttled to the PPE (granularity
    /// control only).
    pub fn is_throttled(&self, kind: KernelKind) -> bool {
        self.granularity.as_ref().is_some_and(|c| c.lock().is_throttled(kind))
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The loop degree the next off-load will use.
    pub fn current_degree(&self) -> usize {
        self.current_degree.load(Ordering::Relaxed)
    }

    /// Voluntary PPE context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.gate.switches()
    }

    /// Instantaneous per-SPE busy flags, indexed by SPE id (a gauge for
    /// live telemetry; see [`SpePool::busy_map`]).
    pub fn spe_busy(&self) -> Vec<bool> {
        self.pool.busy_map()
    }

    /// SPEs currently idle.
    pub fn idle_spes(&self) -> usize {
        self.pool.idle_count()
    }

    /// SPEs in service: total minus those quarantined by the fault plane
    /// (always the full pool when no fault plan is armed).
    pub fn healthy_spes(&self) -> usize {
        self.pool.healthy_count()
    }

    /// Off-loads waiting for an SPE: callers blocked in the pool's
    /// reservation while every SPE is busy.
    pub fn pending_offloads(&self) -> usize {
        self.pool.reserve_waiters()
    }

    /// Total nanoseconds worker processes have spent waiting for a PPE
    /// context (the gate's accumulated contention).
    pub fn gate_contention_ns(&self) -> u64 {
        self.gate.contention_ns()
    }

    /// MGPS adaptation counters `(evaluations, activations, deactivations)`;
    /// `None` unless the runtime was built with [`SchedulerKind::Mgps`].
    pub fn mgps_stats(&self) -> Option<(u64, u64, u64)> {
        match &self.degree_policy {
            DegreePolicy::Adaptive(sched) => {
                let s = sched.lock();
                Some((s.evaluations(), s.activations(), s.deactivations()))
            }
            DegreePolicy::Fixed => None,
        }
    }

    /// Enter the runtime as a worker process: blocks until a PPE context is
    /// available.
    pub fn enter_process(&self) -> ProcessCtx<'_> {
        let proc = self.next_proc.fetch_add(1, Ordering::Relaxed);
        let trace = self.tracer.as_ref().map(|t| t.handle());
        ProcessCtx {
            token: self.gate.enter(),
            rt: self,
            ppe_scratch: None,
            proc,
            trace,
        }
    }

    /// Tear down, returning per-SPE statistics.
    pub fn shutdown(self) -> Vec<SpeStats> {
        let MgpsRuntime { pool, runner, .. } = self;
        drop(runner);
        match Arc::try_unwrap(pool) {
            Ok(p) => p.shutdown(),
            Err(_) => Vec::new(),
        }
    }

    fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// One locked round against the fault plan for `(task, attempt)`: pick
    /// a deterministic probe lead from the healthy set, ask the plan, and
    /// book the consequences (fault counters, quarantine, re-admission)
    /// atomically — so a fault is never charged to an SPE another process
    /// just quarantined, which is exactly what the checker's quarantine
    /// rule forbids.
    ///
    /// The probe lead is the fault plane's *model* of placement (the pool
    /// races real threads for the actual SPE); charging the model's choice
    /// is what keeps the fault pattern reproducible per `(seed, spec)`.
    /// Faults are injected synchronously — the native engine has no
    /// simulated clock to stall against, so a stall and a crash both
    /// surface as an immediately-failed attempt; the watchdog-deadline
    /// derivation is exercised by the simulator, which owns virtual time.
    fn fault_round(
        &self,
        fault_state: &Mutex<FaultState>,
        task: TaskId,
        attempt: u32,
        trace: Option<&TraceHandle>,
    ) -> FaultRound {
        let plan = &self.config.faults;
        let mut st = fault_state.lock();
        let healthy: Vec<usize> =
            (0..st.benched_at.len()).filter(|&s| st.benched_at[s].is_none()).collect();
        if healthy.is_empty() {
            // Unreachable (the last healthy SPE is never benched), kept as
            // a terminal-degradation safety net.
            return FaultRound::Exhausted { attempts: u64::from(attempt) };
        }
        let lead = healthy[(task.0 as usize).wrapping_add(attempt as usize) % healthy.len()];
        let Some(kind) = plan.decide(task.0, attempt, lead) else {
            let degree = self.current_degree().clamp(1, healthy.len());
            return FaultRound::Run { lead, degree };
        };
        self.metrics.incr(Counter::FaultsInjected);
        if let Some(t) = trace {
            t.record(EventKind::FaultInjected {
                spe: lead,
                task: task.0,
                fault: kind,
                attempt: u64::from(attempt),
            });
        }
        st.ticks += 1;
        st.consec[lead] += 1;
        // Bench the SPE after k consecutive faults — but never below the
        // active loop degree (a team reservation must always be able to
        // fill), and only while it is idle (pool.quarantine refuses busy
        // SPEs; the next fault retries the bench).
        if st.consec[lead] >= plan.policy.quarantine_k
            && healthy.len() > self.current_degree().max(1)
            && self.pool.quarantine(lead)
        {
            st.benched_at[lead] = Some(st.ticks);
            self.metrics.incr(Counter::SpeQuarantines);
            if let Some(t) = trace {
                t.record(EventKind::SpeQuarantined {
                    spe: lead,
                    faults: u64::from(st.consec[lead]),
                });
            }
        }
        self.maybe_readmit(&mut st, trace);
        self.sync_healthy(&st);
        if attempt < plan.policy.max_retries {
            let next = attempt + 1;
            let backoff_ns = plan.backoff_ns(task.0, next);
            self.metrics.incr(Counter::OffloadRetries);
            if let Some(t) = trace {
                t.record(EventKind::OffloadRetry {
                    task: task.0,
                    attempt: u64::from(next),
                    backoff_ns,
                });
            }
            FaultRound::Retry { backoff_ns }
        } else {
            FaultRound::Exhausted { attempts: u64::from(attempt) + 1 }
        }
    }

    /// Book a successful off-load attempt with the fault plane.
    fn fault_success(
        &self,
        fault_state: &Mutex<FaultState>,
        lead: usize,
        trace: Option<&TraceHandle>,
    ) {
        let mut st = fault_state.lock();
        st.ticks += 1;
        st.consec[lead] = 0;
        self.maybe_readmit(&mut st, trace);
        self.sync_healthy(&st);
    }

    /// Re-admission probe: return every SPE benched at least
    /// `readmit_period` ticks ago to service, with its consecutive-fault
    /// count reset to `k - 1` — one more fault re-benches it immediately,
    /// so a still-broken SPE costs a single probe per period.
    fn maybe_readmit(&self, st: &mut FaultState, trace: Option<&TraceHandle>) {
        let policy = &self.config.faults.policy;
        let period = u64::from(policy.readmit_period.max(1));
        for spe in 0..st.benched_at.len() {
            let Some(mark) = st.benched_at[spe] else { continue };
            if st.ticks.saturating_sub(mark) < period || !self.pool.readmit(spe) {
                continue;
            }
            st.benched_at[spe] = None;
            st.consec[spe] = policy.quarantine_k.saturating_sub(1);
            self.metrics.incr(Counter::SpeReadmissions);
            if let Some(t) = trace {
                t.record(EventKind::SpeReadmitted { spe });
            }
        }
    }

    /// Report the healthy-SPE count to the MGPS scheduler, which sizes LLP
    /// teams as `⌊healthy / T⌋` while part of the pool is benched.
    fn sync_healthy(&self, st: &FaultState) {
        if let DegreePolicy::Adaptive(sched) = &self.degree_policy {
            let healthy = st.benched_at.iter().filter(|b| b.is_none()).count();
            sched.lock().set_healthy(healthy);
        }
    }

    fn record_offload(&self, task: TaskId, now_ns: u64) {
        if let DegreePolicy::Adaptive(sched) = &self.degree_policy {
            sched.lock().on_offload(task, now_ns);
        }
    }

    fn record_departure(&self, task: TaskId, started_ns: u64, trace: Option<&TraceHandle>) {
        if let DegreePolicy::Adaptive(sched) = &self.degree_policy {
            let waiting = self.inflight.load(Ordering::Relaxed).max(1);
            let mut s = sched.lock();
            let directive = s.on_departure(task, started_ns, self.ns(), waiting);
            if let Some(d) = directive {
                self.metrics.incr(Counter::MgpsEvaluations);
                let degree = match d {
                    Directive::ActivateLlp(ld) => ld.0,
                    Directive::DeactivateLlp => 1,
                };
                if let Some(t) = trace {
                    t.record(EventKind::DegreeDecision {
                        degree,
                        u: s.last_u(),
                        waiting,
                        n_spes: self.config.n_spes,
                        window: s.config().window,
                        window_fill: s.window_fill(),
                    });
                }
                let prev = self.current_degree.swap(degree, Ordering::Relaxed);
                if prev == 1 && degree > 1 {
                    self.metrics.incr(Counter::LlpActivations);
                } else if prev > 1 && degree == 1 {
                    self.metrics.incr(Counter::LlpDeactivations);
                }
            }
        }
    }
}

/// A worker process's handle on the runtime (holds one PPE context).
pub struct ProcessCtx<'rt> {
    token: PpeToken<'rt>,
    rt: &'rt MgpsRuntime,
    /// Reusable scratch context for PPE-fallback kernel execution (lazily
    /// created; re-allocating its local store per call would distort the
    /// granularity controller's PPE timings).
    ppe_scratch: Option<Box<super::context::SpeContext>>,
    /// Stable process id (0, 1, ... in `enter_process` order), used to
    /// attribute traced events to this worker process.
    proc: usize,
    /// This process's tracing ring (off-load / context-switch / MGPS
    /// decision records), if the runtime was built with a tracer.
    trace: Option<TraceHandle>,
}

impl ProcessCtx<'_> {
    /// Execute PPE-side (non-offloadable) computation while holding the
    /// context.
    pub fn ppe_compute<R>(&mut self, f: impl FnOnce() -> R) -> R {
        debug_assert!(self.token.holds_context());
        f()
    }

    /// Block in `f` — a wait for work to arrive, not for an off-load to
    /// finish — *outside* the PPE gate, so an idle process never keeps a
    /// context from one that has work (see [`PpeToken::block_outside`]).
    pub fn block_outside<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.token.block_outside(f)
    }

    /// Off-load a kernel whose parallel loop is `body`, blocking until it
    /// completes. The runtime picks the loop degree (1 = run whole on one
    /// SPE) and applies the PPE-context discipline while waiting. A body
    /// that runs more than one round ([`LoopBody::again`]) is still one
    /// off-load: one task, one context yield, one departure.
    ///
    /// With a fault plan armed, every attempt is put to the plan first:
    /// faulted attempts retry with the declared backoff, and exhausted
    /// tasks run the kernel's PPE copy on this thread. Unarmed, the first
    /// attempt is the only one.
    ///
    /// # Errors
    /// Propagates [`OffloadError::TaskPanicked`] if the kernel panicked,
    /// and surfaces [`OffloadError::Unrecovered`] if an armed plan exhausts
    /// a task's retries and its policy forbids the PPE fallback.
    pub fn offload_loop<B: LoopBody>(
        &mut self,
        site: LoopSite,
        body: Arc<B>,
    ) -> Result<B::Acc, OffloadError> {
        let rt = self.rt;
        let task = TaskId(rt.next_task.fetch_add(1, Ordering::Relaxed));
        let started_ns = rt.ns();
        rt.record_offload(task, started_ns);
        rt.metrics.incr(Counter::Offloads);
        if let Some(t) = &self.trace {
            t.record(EventKind::Offload { proc: self.proc, task: task.0 });
        }
        rt.inflight.fetch_add(1, Ordering::Relaxed);
        let result = match &rt.fault_state {
            None => self.run_on_spes(site, rt.current_degree(), body, task),
            Some(fault_state) => {
                let mut attempt: u32 = 0;
                loop {
                    match rt.fault_round(fault_state, task, attempt, self.trace.as_ref()) {
                        FaultRound::Run { lead, degree } => {
                            let r = self.run_on_spes(site, degree, body, task);
                            rt.fault_success(fault_state, lead, self.trace.as_ref());
                            break r;
                        }
                        FaultRound::Retry { backoff_ns } => {
                            attempt += 1;
                            std::thread::sleep(Duration::from_nanos(backoff_ns));
                        }
                        FaultRound::Exhausted { attempts } => {
                            if !rt.config.faults.policy.ppe_fallback {
                                break Err(OffloadError::Unrecovered);
                            }
                            // Terminal degradation: the kernel's PPE copy.
                            let out = run_whole(&*body, self.ppe_context());
                            rt.metrics.incr(Counter::PpeFallbacks);
                            if let Some(t) = &self.trace {
                                t.record(EventKind::PpeFallback {
                                    proc: self.proc,
                                    task: task.0,
                                    attempts,
                                });
                            }
                            break Ok(out);
                        }
                    }
                }
            }
        };
        rt.inflight.fetch_sub(1, Ordering::Relaxed);
        rt.metrics.observe(HistKind::TaskDurNs, rt.ns().saturating_sub(started_ns));
        rt.record_departure(task, started_ns, self.trace.as_ref());
        result
    }

    /// One attempt of `task` on the SPEs at loop degree `degree`, yielding
    /// or holding the PPE context as the gate's mode dictates.
    fn run_on_spes<B: LoopBody>(
        &mut self,
        site: LoopSite,
        degree: usize,
        body: Arc<B>,
        task: TaskId,
    ) -> Result<B::Acc, OffloadError> {
        let rt = self.rt;
        let proc = self.proc;
        let trace = self.trace.as_ref();
        self.token.offload_traced(trace.map(|t| (t, proc)), || {
            let tt = trace.map(|handle| TraceTask { handle, proc, task: task.0 });
            rt.runner.parallel_reduce_traced(site, degree, body, tt)
        })
    }

    /// The context a kernel's PPE copy runs in: on the calling thread,
    /// while it holds its PPE context (no SPE, no team). The sentinel SPE
    /// id lets kernels with distinct PPE/SPE code paths pick theirs.
    fn ppe_context(&mut self) -> &mut super::context::SpeContext {
        self.ppe_scratch
            .get_or_insert_with(|| Box::new(super::context::SpeContext::new(SpeId(usize::MAX))))
    }

    /// Off-load a kernel of the named `kind` under dynamic granularity
    /// control (§5.2), where the runtime was built with
    /// [`RuntimeConfig::with_granularity_control`]: it optimistically
    /// off-loads, measures both the SPE and the PPE versions, and throttles
    /// kernels that fail the test `t_spe + t_code + 2·t_comm < t_ppe` back
    /// to the PPE — where they run on the calling thread while it holds its
    /// context, exactly like the paper's PPE fallback copies of each
    /// function. Without granularity control this is [`Self::offload_loop`].
    /// The test is applied to what is shipped: `kind` names the whole
    /// request (for a likelihood traversal, the kernel it ends in), and
    /// both timings cover all of `body` — every round of it, if it runs
    /// more than one ([`LoopBody::again`]). `t_spe` is the wall time of the
    /// whole off-load, so it already holds what `t_code` and `t_comm` model
    /// (see [`crate::policy::granularity`]).
    ///
    /// # Errors
    /// As [`Self::offload_loop`].
    pub fn offload_adaptive<B: LoopBody>(
        &mut self,
        site: LoopSite,
        kind: KernelKind,
        body: Arc<B>,
    ) -> Result<B::Acc, OffloadError> {
        let rt = self.rt;
        let Some(controller) = rt.granularity.as_ref() else {
            return self.offload_loop(site, body);
        };
        let (decision, was_throttled, now_throttled) = {
            let mut c = controller.lock();
            let was = c.is_throttled(kind);
            let d = c.decide(kind);
            (d, was, c.is_throttled(kind))
        };
        match decision {
            GranularityDecision::Offload => {
                // An off-load granted to a throttled kernel is a periodic
                // re-probe (the controller rechecking its verdict).
                if was_throttled {
                    rt.metrics.incr(Counter::KernelReprobes);
                }
                if let Some(t) = &self.trace {
                    t.record(EventKind::GranularityVerdict {
                        kernel: kind,
                        offload: true,
                        throttled: now_throttled,
                        reprobe: was_throttled,
                    });
                }
                let start = Instant::now();
                let out = self.offload_loop(site, body)?;
                controller.lock().record_spe(kind, start.elapsed().as_nanos() as u64);
                Ok(out)
            }
            GranularityDecision::RunOnPpe => {
                rt.metrics.incr(Counter::KernelThrottles);
                if let Some(t) = &self.trace {
                    t.record(EventKind::GranularityVerdict {
                        kernel: kind,
                        offload: false,
                        throttled: true,
                        reprobe: false,
                    });
                }
                let scratch = self.ppe_context();
                let start = Instant::now();
                let out = run_whole(&*body, scratch);
                controller.lock().record_ppe(kind, start.elapsed().as_nanos() as u64);
                Ok(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::context::SpeContext;
    use std::ops::Range;

    /// A loop body whose per-iteration work is a spin, so task durations
    /// are controllable in tests.
    struct SpinSum {
        n: usize,
        spin: Duration,
    }

    impl LoopBody for SpinSum {
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
                if !self.spin.is_zero() {
                    let end = Instant::now() + self.spin;
                    while Instant::now() < end {
                        std::hint::spin_loop();
                    }
                }
                s += i as f64;
            }
            s
        }
        fn merge(&self, a: f64, b: f64) -> f64 {
            a + b
        }
    }

    fn run_workers(rt: &MgpsRuntime, workers: usize, offloads_each: usize, n: usize) -> f64 {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..workers {
                handles.push(scope.spawn(move || {
                    let mut ctx = rt.enter_process();
                    let mut total = 0.0;
                    for _ in 0..offloads_each {
                        let body = Arc::new(SpinSum { n, spin: Duration::ZERO });
                        total += ctx.offload_loop(LoopSite(1), body).unwrap();
                    }
                    total
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        })
    }

    fn expected(n: usize) -> f64 {
        (0..n).map(|i| i as f64).sum()
    }

    #[test]
    fn edtlp_runtime_computes_correct_results() {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        let total = run_workers(&rt, 4, 8, 100);
        assert!((total - 4.0 * 8.0 * expected(100)).abs() < 1e-6);
        assert!(rt.context_switches() >= 32, "every offload yields the context");
        assert_eq!(rt.current_degree(), 1);
    }

    #[test]
    fn linux_like_runtime_computes_correct_results_without_switches() {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::LinuxLike));
        let total = run_workers(&rt, 4, 4, 64);
        assert!((total - 4.0 * 4.0 * expected(64)).abs() < 1e-6);
        assert_eq!(rt.context_switches(), 0);
    }

    #[test]
    fn static_hybrid_uses_fixed_degree() {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::StaticHybrid {
            spes_per_loop: 4,
        }));
        assert_eq!(rt.current_degree(), 4);
        let total = run_workers(&rt, 2, 4, 228);
        assert!((total - 2.0 * 4.0 * expected(228)).abs() < 1e-6);
    }

    #[test]
    fn mgps_adapts_degree_for_single_worker() {
        let cfg = RuntimeConfig::cell(SchedulerKind::Mgps);
        let rt = MgpsRuntime::new(cfg);
        // One worker with long tasks: TLP leaves SPEs idle, so after a
        // window of 8 completions MGPS should activate LLP.
        let mut ctx = rt.enter_process();
        for _ in 0..16 {
            let body = Arc::new(SpinSum { n: 64, spin: Duration::from_micros(20) });
            ctx.offload_loop(LoopSite(2), body).unwrap();
        }
        assert!(
            rt.current_degree() > 1,
            "MGPS should have activated LLP, degree = {}",
            rt.current_degree()
        );
    }

    fn yield_until(done: impl Fn() -> bool) {
        while !done() {
            std::thread::yield_now();
        }
    }

    /// One task of a round in which eight tasks are in flight on eight
    /// SPEs, in a forced order. `phase` is `2·round − 1` once the leader's
    /// task runs (the followers off-load only then, so all their off-loads
    /// fall inside the leader's execution window) and `2·round` once the
    /// leader has seen the pool without an idle SPE, which releases the
    /// followers' tasks. The leader's task ends only when every follower
    /// has returned from its off-load, so the leader's departure is the
    /// round's eighth completion — the one MGPS evaluates, with U = 8.
    struct Saturating {
        pool: Arc<SpePool>,
        phase: Arc<AtomicUsize>,
        returned: Arc<AtomicUsize>,
        round: usize,
        leader: bool,
    }

    impl LoopBody for Saturating {
        type Acc = ();
        fn len(&self) -> usize {
            1
        }
        fn identity(&self) {}
        fn run_chunk(&self, _range: Range<usize>, _ctx: &mut SpeContext) {
            if self.leader {
                self.phase.store(2 * self.round - 1, Ordering::SeqCst);
                yield_until(|| self.pool.idle_count() == 0);
                self.phase.store(2 * self.round, Ordering::SeqCst);
                yield_until(|| self.returned.load(Ordering::SeqCst) == 7 * self.round);
            } else {
                yield_until(|| self.phase.load(Ordering::SeqCst) >= 2 * self.round);
            }
        }
        fn merge(&self, _a: (), _b: ()) {}
    }

    #[test]
    fn mgps_stays_tlp_under_high_task_parallelism() {
        const ROUNDS: usize = 16;
        let cfg = RuntimeConfig::cell(SchedulerKind::Mgps);
        let rt = MgpsRuntime::new(cfg);
        let phase = Arc::new(AtomicUsize::new(0));
        let returned = Arc::new(AtomicUsize::new(0));
        // 8 workers saturate the SPEs with task parallelism: every window
        // of 8 completions closes on a task whose execution overlapped the
        // other seven off-loads, so U = 8 at every evaluation.
        std::thread::scope(|scope| {
            for worker in 0..8 {
                let (rt, phase, returned) = (&rt, &phase, &returned);
                scope.spawn(move || {
                    let leader = worker == 0;
                    let mut ctx = rt.enter_process();
                    for round in 1..=ROUNDS {
                        if !leader {
                            // Wait for the leader's task outside the gate:
                            // the leader needs a PPE context to off-load.
                            ctx.block_outside(|| {
                                yield_until(|| phase.load(Ordering::SeqCst) >= 2 * round - 1)
                            });
                        }
                        let body = Arc::new(Saturating {
                            pool: Arc::clone(&rt.pool),
                            phase: Arc::clone(phase),
                            returned: Arc::clone(returned),
                            round,
                            leader,
                        });
                        ctx.offload_loop(LoopSite(3), body).unwrap();
                        if !leader {
                            returned.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        let (evals, acts, _deacts) = rt.mgps_stats().expect("adaptive runtime");
        assert!(evals >= 8, "expected >= 8 windows, got {evals}");
        assert!(
            acts <= 2,
            "high TLP must not trigger LLP in steady state: {acts} activations over {evals} windows"
        );
    }

    #[test]
    fn granularity_control_throttles_tiny_kernels() {
        // Kernels so small that channel/team overheads dwarf the work:
        // after the optimistic probe plus a PPE measurement the controller
        // must route them to the PPE.
        let cfg = RuntimeConfig::cell(SchedulerKind::Edtlp).with_granularity_control(10_000);
        let rt = MgpsRuntime::new(cfg);
        let mut ctx = rt.enter_process();
        for _ in 0..64 {
            let body = Arc::new(SpinSum { n: 1, spin: Duration::ZERO });
            let v = ctx.offload_adaptive(LoopSite(9), KernelKind::Evaluate, body).unwrap();
            assert_eq!(v, 0.0);
        }
        assert!(
            rt.is_throttled(KernelKind::Evaluate),
            "sub-microsecond kernels must be throttled to the PPE"
        );
    }

    /// A kernel with distinct PPE/SPE code versions: the PPE fallback
    /// (recognizable by the sentinel SPE id) runs 3x slower, like the
    /// paper's scalar PPE copies vs the vectorized SPE module.
    struct DualVersion {
        n: usize,
        spin: Duration,
    }

    impl LoopBody for DualVersion {
        type Acc = u64;
        fn len(&self) -> usize {
            self.n
        }
        fn identity(&self) -> u64 {
            0
        }
        fn run_chunk(&self, range: Range<usize>, ctx: &mut SpeContext) -> u64 {
            let on_ppe = ctx.id.0 == usize::MAX;
            let per_iter = if on_ppe { self.spin * 3 } else { self.spin };
            let end = Instant::now() + per_iter * range.len() as u32;
            while Instant::now() < end {
                std::hint::spin_loop();
            }
            range.len() as u64
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a + b
        }
    }

    #[test]
    fn granularity_control_keeps_offloading_coarse_kernels() {
        let cfg = RuntimeConfig::cell(SchedulerKind::Edtlp).with_granularity_control(10_000);
        let rt = MgpsRuntime::new(cfg);
        let mut ctx = rt.enter_process();
        for _ in 0..16 {
            // ~0.5 ms on the SPE vs ~1.5 ms on the PPE: far above the
            // off-load overhead, so the test must keep it off-loaded.
            let body = Arc::new(DualVersion { n: 100, spin: Duration::from_micros(5) });
            let v = ctx.offload_adaptive(LoopSite(10), KernelKind::NewView, body).unwrap();
            assert_eq!(v, 100);
        }
        assert!(
            !rt.is_throttled(KernelKind::NewView),
            "kernels whose SPE version wins must stay off-loaded"
        );
    }

    #[test]
    fn shutdown_yields_per_spe_stats() {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        run_workers(&rt, 2, 4, 32);
        let stats = rt.shutdown();
        assert_eq!(stats.len(), 8);
        let total: u64 = stats.iter().map(|s| s.tasks_run).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn metrics_sink_sees_native_activity() {
        use crate::metrics::AtomicMetrics;
        let metrics = Arc::new(AtomicMetrics::new());
        let rt = MgpsRuntime::with_metrics(
            RuntimeConfig::cell(SchedulerKind::Edtlp),
            Arc::<AtomicMetrics>::clone(&metrics),
        );
        run_workers(&rt, 4, 8, 100);
        // SPE-side accounting lands *before* a result is delivered to the
        // waiting PPE thread, so the totals are exact as soon as the
        // workers have their results — no shutdown/join needed.
        assert_eq!(metrics.get(Counter::Offloads), 32);
        assert_eq!(metrics.get(Counter::TasksCompleted), 32);
        assert_eq!(rt.idle_spes(), 8);
        assert_eq!(metrics.get(Counter::CtxSwitchOffload), rt.context_switches());
        assert!(metrics.get(Counter::CtxSwitchOffload) >= 32);
        let snap = metrics.snapshot();
        assert_eq!(snap.hist_count(HistKind::TaskDurNs), 32);
    }

    /// Reports the SPE its one chunk ran on and the thread that ran it.
    struct WhereRun;

    impl LoopBody for WhereRun {
        type Acc = Option<(usize, std::thread::ThreadId)>;
        fn len(&self) -> usize {
            1
        }
        fn identity(&self) -> Self::Acc {
            None
        }
        fn run_chunk(&self, _range: Range<usize>, ctx: &mut SpeContext) -> Self::Acc {
            Some((ctx.id.0, std::thread::current().id()))
        }
        fn merge(&self, a: Self::Acc, b: Self::Acc) -> Self::Acc {
            a.or(b)
        }
    }

    #[test]
    fn a_single_spe_offload_is_a_team_of_one_its_caller_drives() {
        use crate::metrics::AtomicMetrics;
        const TASKS: u64 = 20;
        let tracer = Tracer::with_default_capacity();
        let metrics = Arc::new(AtomicMetrics::new());
        let rt = MgpsRuntime::with_observability(
            RuntimeConfig::cell(SchedulerKind::Edtlp),
            Arc::<AtomicMetrics>::clone(&metrics),
            Some(Arc::clone(&tracer)),
        );
        let here = std::thread::current().id();
        let mut ctx = rt.enter_process();
        let mut ran_on = Vec::new();
        for n in 1..=TASKS {
            let got = ctx.offload_loop(LoopSite(1), Arc::new(WhereRun)).unwrap();
            let (spe, thread) = got.expect("the chunk ran");
            assert_eq!(thread, here, "off-load {n}: the chunk ran on another thread");
            // Idle and counted by the time the off-load returns.
            assert_eq!(rt.idle_spes(), 8, "after off-load {n}");
            assert_eq!(metrics.get(Counter::TasksCompleted), n);
            ran_on.push(spe);
        }
        drop(ctx);
        // The solo shape: task start and end on the caller's ring, naming
        // the one SPE reserved; the chunk on that SPE's ring (the SPEs'
        // rings are the first registered), naming it too.
        let log = tracer.drain();
        let mut seen = vec![(None, None, None); TASKS as usize];
        for (ring, thread) in log.threads.iter().enumerate() {
            for e in &thread.events {
                match &e.kind {
                    EventKind::TaskStart { task, degree, team, .. } => {
                        assert!(ring >= 8, "a task start on SPE {ring}'s ring");
                        assert_eq!(*degree, 1);
                        seen[*task as usize].0 = Some(team.clone());
                    }
                    EventKind::Chunk { task, worker, .. } => {
                        assert_eq!(ring, *worker, "a chunk on another SPE's ring");
                        seen[*task as usize].1 = Some(*worker);
                    }
                    EventKind::TaskEnd { task, team, .. } => {
                        assert!(ring >= 8, "a task end on SPE {ring}'s ring");
                        seen[*task as usize].2 = Some(team.clone());
                    }
                    _ => {}
                }
            }
        }
        for (task, (seen, spe)) in seen.into_iter().zip(ran_on).enumerate() {
            assert_eq!(seen, (Some(vec![spe]), Some(spe), Some(vec![spe])), "task {task}");
        }
    }

    #[test]
    fn inflight_counter_returns_to_zero() {
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp));
        run_workers(&rt, 3, 5, 16);
        assert_eq!(rt.inflight.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn armed_runtime_retries_pinned_faults_and_still_computes() {
        use crate::metrics::AtomicMetrics;
        let plan = FaultPlan::parse("seed=1,pin=crash@0,backoff=1000").unwrap();
        let metrics = Arc::new(AtomicMetrics::new());
        let tracer = Tracer::with_default_capacity();
        let rt = MgpsRuntime::with_observability(
            RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan),
            Arc::<AtomicMetrics>::clone(&metrics),
            Some(Arc::clone(&tracer)),
        );
        {
            let mut ctx = rt.enter_process();
            for _ in 0..4 {
                let body = Arc::new(SpinSum { n: 50, spin: Duration::ZERO });
                assert_eq!(ctx.offload_loop(LoopSite(1), body).unwrap(), expected(50));
            }
        }
        assert_eq!(metrics.get(Counter::FaultsInjected), 1);
        assert_eq!(metrics.get(Counter::OffloadRetries), 1);
        assert_eq!(metrics.get(Counter::PpeFallbacks), 0);
        let log = tracer.drain();
        let kinds: Vec<_> = log.threads.iter().flat_map(|t| &t.events).map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(
            k,
            EventKind::FaultInjected { task: 0, attempt: 0, .. }
        )));
        assert!(kinds.iter().any(|k| matches!(
            k,
            EventKind::OffloadRetry { task: 0, attempt: 1, .. }
        )));
    }

    #[test]
    fn exhausted_retries_run_the_ppe_fallback_copy() {
        use crate::metrics::AtomicMetrics;
        let plan = FaultPlan::parse("seed=2,pin=dma@0,retries=0,backoff=1000").unwrap();
        let metrics = Arc::new(AtomicMetrics::new());
        let rt = MgpsRuntime::with_metrics(
            RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan),
            Arc::<AtomicMetrics>::clone(&metrics),
        );
        let mut ctx = rt.enter_process();
        // Task 0 faults its only permitted attempt, so it must complete on
        // the PPE copy — observable through the sentinel SPE id.
        let body = Arc::new(DualVersion { n: 4, spin: Duration::from_micros(1) });
        assert_eq!(ctx.offload_loop(LoopSite(1), body).unwrap(), 4);
        assert_eq!(metrics.get(Counter::FaultsInjected), 1);
        assert_eq!(metrics.get(Counter::PpeFallbacks), 1);
        assert_eq!(metrics.get(Counter::OffloadRetries), 0);
        // Later tasks are untouched by the pin.
        let body = Arc::new(SpinSum { n: 10, spin: Duration::ZERO });
        assert_eq!(ctx.offload_loop(LoopSite(1), body).unwrap(), expected(10));
        assert_eq!(metrics.get(Counter::PpeFallbacks), 1);
    }

    #[test]
    fn both_ppe_copies_run_every_round_of_a_multi_round_loop() {
        use super::super::team::relay::Relay;
        // The throttled copy: loops this small go to the PPE for good.
        let cfg = RuntimeConfig::cell(SchedulerKind::Edtlp).with_granularity_control(10_000);
        let rt = MgpsRuntime::new(cfg);
        let mut ctx = rt.enter_process();
        let mut on_ppe = 0;
        for rounds in (1..=4).cycle().take(64) {
            let body = Arc::new(Relay::new(3, rounds));
            let got = ctx.offload_adaptive(LoopSite(9), KernelKind::MakeNewz, Arc::clone(&body));
            assert_eq!(got, Ok(body.sequential()), "{rounds} rounds");
            let ppe_chunks = body.ppe_chunks.load(Ordering::Relaxed);
            assert!(ppe_chunks == 0 || ppe_chunks == rounds, "one whole chunk per round");
            on_ppe += usize::from(ppe_chunks > 0);
        }
        assert!(rt.is_throttled(KernelKind::MakeNewz) && on_ppe > 32, "{on_ppe} of 64 on the PPE");

        // The fault plane's copy: task 0 exhausts its one attempt.
        let plan = FaultPlan::parse("seed=2,pin=dma@0,retries=0,backoff=1000").unwrap();
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan));
        let mut ctx = rt.enter_process();
        for fell_back in [true, false] {
            let body = Arc::new(Relay::new(16, 3));
            assert_eq!(ctx.offload_loop(LoopSite(1), Arc::clone(&body)), Ok(body.sequential()));
            assert_eq!(body.ppe_chunks.load(Ordering::Relaxed), if fell_back { 3 } else { 0 });
        }
    }

    #[test]
    fn a_multi_round_loop_is_one_offload_to_every_counter() {
        use super::super::team::relay::Relay;
        use crate::metrics::AtomicMetrics;
        let four_way = SchedulerKind::StaticHybrid { spes_per_loop: 4 };
        for (scheduler, wake, jobs) in [
            (SchedulerKind::Edtlp, None, 1),
            // The first round's team and the one held for the rest.
            (four_way, Some(true), 8),
            // The master alone, every round.
            (four_way, Some(false), 1),
        ] {
            let metrics = Arc::new(AtomicMetrics::new());
            let rt = MgpsRuntime::with_metrics(
                RuntimeConfig::cell(scheduler),
                Arc::<AtomicMetrics>::clone(&metrics),
            );
            rt.runner.pin(wake);
            let mut ctx = rt.enter_process();
            for n in 1..=20 {
                let body = Arc::new(Relay::new(64, 4));
                assert_eq!(ctx.offload_loop(LoopSite(1), Arc::clone(&body)), Ok(body.sequential()));
                assert_eq!(metrics.get(Counter::Offloads), n);
                assert_eq!(rt.context_switches(), n, "one yield per off-load");
            }
            drop(ctx);
            assert_eq!(metrics.snapshot().hist_count(HistKind::TaskDurNs), 20);
            let tasks_run: u64 = rt.shutdown().iter().map(|s| s.tasks_run).sum();
            assert_eq!(tasks_run, 20 * jobs, "{scheduler:?}, woken: {wake:?}");
        }
    }

    #[test]
    fn lethal_plans_surface_unrecovered_errors() {
        let plan = FaultPlan::parse("seed=3,pin=crash@0,retries=0,fallback=off").unwrap();
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan));
        let mut ctx = rt.enter_process();
        let body = Arc::new(SpinSum { n: 10, spin: Duration::ZERO });
        assert_eq!(
            ctx.offload_loop(LoopSite(1), Arc::clone(&body)),
            Err(OffloadError::Unrecovered)
        );
        // The runtime survives the loss; the next task is unaffected.
        assert_eq!(ctx.offload_loop(LoopSite(1), body).unwrap(), expected(10));
    }

    #[test]
    fn broken_spes_are_quarantined_and_later_probed_for_readmission() {
        use crate::metrics::AtomicMetrics;
        // SPE 0 is hard-broken: every probe that lands on it faults. After
        // k=3 consecutive faults it is benched; 4 fault-plane ticks later a
        // re-admission probe returns it (and its next fault re-benches it).
        let plan = FaultPlan::parse("seed=4,broken=1,k=3,readmit=4,backoff=1000").unwrap();
        let metrics = Arc::new(AtomicMetrics::new());
        let rt = MgpsRuntime::with_metrics(
            RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan),
            Arc::<AtomicMetrics>::clone(&metrics),
        );
        {
            let mut ctx = rt.enter_process();
            for _ in 0..64 {
                let body = Arc::new(SpinSum { n: 16, spin: Duration::ZERO });
                assert_eq!(ctx.offload_loop(LoopSite(1), body).unwrap(), expected(16));
            }
        }
        assert!(metrics.get(Counter::FaultsInjected) >= 3);
        assert!(
            metrics.get(Counter::SpeQuarantines) >= 1,
            "three consecutive faults must bench the broken SPE"
        );
        assert!(
            metrics.get(Counter::SpeReadmissions) >= 1,
            "the bench must be probed for re-admission"
        );
        assert!(
            metrics.get(Counter::SpeQuarantines) >= metrics.get(Counter::SpeReadmissions),
            "an SPE cannot be re-admitted more often than it was benched"
        );
        // Every admitted task completed exactly once on an SPE team.
        assert_eq!(metrics.get(Counter::PpeFallbacks), 0);
    }

    #[test]
    fn quarantine_shrinks_and_readmission_restores_healthy_spes() {
        let plan = FaultPlan::parse("seed=5,broken=2,k=1,readmit=1000,backoff=1000").unwrap();
        let rt = MgpsRuntime::new(RuntimeConfig::cell(SchedulerKind::Edtlp).with_faults(plan));
        assert_eq!(rt.healthy_spes(), 8);
        let mut ctx = rt.enter_process();
        // k=1: the first fault on each broken SPE benches it outright; the
        // huge readmit period keeps both benched for the whole run.
        for _ in 0..32 {
            let body = Arc::new(SpinSum { n: 8, spin: Duration::ZERO });
            ctx.offload_loop(LoopSite(1), body).unwrap();
        }
        assert_eq!(rt.healthy_spes(), 6, "both broken SPEs must be benched");
    }

    #[test]
    fn tracer_records_the_full_span_vocabulary() {
        let tracer = Tracer::with_default_capacity();
        let cfg = RuntimeConfig::cell(SchedulerKind::Mgps);
        let rt = MgpsRuntime::with_observability(
            cfg,
            Arc::new(NopMetrics),
            Some(Arc::clone(&tracer)),
        );
        {
            let mut ctx = rt.enter_process();
            for _ in 0..16 {
                let body = Arc::new(SpinSum { n: 64, spin: Duration::from_micros(20) });
                ctx.offload_loop(LoopSite(2), body).unwrap();
            }
        }
        let log = tracer.drain();
        assert_eq!(log.dropped_events(), 0);
        let count = |pred: fn(&EventKind) -> bool| -> usize {
            log.threads.iter().flat_map(|t| &t.events).filter(|e| pred(&e.kind)).count()
        };
        assert_eq!(count(|k| matches!(k, EventKind::Offload { .. })), 16);
        assert_eq!(count(|k| matches!(k, EventKind::TaskStart { .. })), 16);
        assert_eq!(count(|k| matches!(k, EventKind::TaskEnd { .. })), 16);
        assert_eq!(
            count(|k| matches!(k, EventKind::CtxSwitch { .. })) as u64,
            rt.context_switches()
        );
        assert!(
            count(|k| matches!(k, EventKind::DegreeDecision { .. })) >= 1,
            "MGPS should have evaluated at least one window"
        );
        assert!(count(|k| matches!(k, EventKind::Chunk { .. })) >= 16);
        // Every ring is internally monotone.
        for t in &log.threads {
            for w in t.events.windows(2) {
                assert!(w[0].at_ns <= w[1].at_ns);
            }
        }
    }
}
