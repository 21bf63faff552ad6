//! MGPS — multigrain parallelism scheduling (§5.4).
//!
//! MGPS extends the EDTLP scheduler with an *adaptive processor-saving
//! policy* that decides, on-line, whether off-loaded tasks should also
//! work-share their loops across idle SPEs:
//!
//! * On every off-load **arrival** the scheduler conservatively assigns one
//!   SPE, anticipating that task-level parallelism alone can fill the chip.
//! * On every **departure** it measures `U`, the degree of task-level
//!   parallelism exposed while the departing task executed (how many
//!   discrete tasks were off-loaded in that window).
//! * Every `window` completions (window = number of SPEs, giving the
//!   scheduler a hysteresis of up to 8 off-loads), the process that
//!   completed the window-closing task evaluates `U` and signals the others:
//!   - if `U ≤ n_spes/2` (task parallelism leaves more than half the SPEs
//!     idle) it **activates LLP** with `⌊n_spes / T⌋` SPEs per parallel
//!     loop, where `T` is the number of tasks waiting for off-load;
//!   - if `U > n_spes/2` it retains pure EDTLP, deactivating LLP if it was
//!     previously on.
//! * Applications that do not off-load often enough to trigger adaptation
//!   are handled by a timer interrupt that evaluates instantaneous SPE
//!   occupancy instead. Natively its clock is the requests the granularity
//!   test (§5.2) keeps on the PPE: every `window` of them since the last
//!   evaluation is a tick ([`MgpsScheduler::on_ppe_request`]).

use std::collections::VecDeque;

use super::types::{LoopDegree, TaskId};

/// A directive issued at an evaluation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Activate loop-level parallelism at the given degree (> 1).
    ActivateLlp(LoopDegree),
    /// Throttle loop-level parallelism; run pure EDTLP.
    DeactivateLlp,
}

/// Configuration for the MGPS policy.
#[derive(Debug, Clone, Copy)]
pub struct MgpsConfig {
    /// SPEs available to this scheduler (8 per Cell).
    pub n_spes: usize,
    /// Completions between evaluations. The paper uses a history length
    /// equal to the number of SPEs.
    pub window: usize,
    /// Activate LLP when `U` is at or below this threshold. The paper's
    /// finding: work-sharing pays when TLP leaves more than half the SPEs
    /// idle, i.e. threshold = `n_spes / 2`.
    pub u_threshold: usize,
}

impl MgpsConfig {
    /// The paper's configuration for a machine with `n_spes` SPEs.
    pub fn for_spes(n_spes: usize) -> MgpsConfig {
        assert!(n_spes > 0, "need at least one SPE");
        MgpsConfig { n_spes, window: n_spes, u_threshold: n_spes / 2 }
    }
}

/// The adaptive MGPS scheduler state. One logical instance is shared by all
/// worker processes (the paper implements this with a shared arena between
/// MPI processes).
#[derive(Debug)]
pub struct MgpsScheduler {
    cfg: MgpsConfig,
    /// Recent off-loads: (task, off-load time ns). Bounded by `window`.
    offload_log: VecDeque<(TaskId, u64)>,
    completions: u64,
    llp: LoopDegree,
    evaluations: u64,
    activations: u64,
    deactivations: u64,
    /// `U` of the most recent evaluation (0 before the first).
    last_u: usize,
    /// Requests run on the PPE since the most recent evaluation.
    ppe_requests: u64,
    /// SPEs currently in service (`n_spes` minus quarantined). LLP degree
    /// is computed as `⌊healthy / T⌋`, so quarantine throttles loop-level
    /// parallelism exactly as utilization does.
    healthy: usize,
}

impl MgpsScheduler {
    /// A scheduler with the given configuration.
    pub fn new(cfg: MgpsConfig) -> MgpsScheduler {
        assert!(cfg.window > 0, "window must be positive");
        assert!(cfg.n_spes > 0, "need at least one SPE");
        MgpsScheduler {
            cfg,
            offload_log: VecDeque::with_capacity(cfg.window),
            completions: 0,
            llp: LoopDegree::SEQUENTIAL,
            evaluations: 0,
            activations: 0,
            deactivations: 0,
            last_u: 0,
            ppe_requests: 0,
            healthy: cfg.n_spes,
        }
    }

    /// Report the number of SPEs currently in service. The fault plane
    /// calls this on every quarantine/re-admission transition; subsequent
    /// evaluations size LLP teams as `⌊healthy / T⌋` instead of
    /// `⌊n_spes / T⌋`. Clamped to `[0, n_spes]`.
    pub fn set_healthy(&mut self, healthy: usize) {
        self.healthy = healthy.min(self.cfg.n_spes);
    }

    /// SPEs currently in service (as last reported via [`set_healthy`]).
    ///
    /// [`set_healthy`]: MgpsScheduler::set_healthy
    pub fn healthy(&self) -> usize {
        self.healthy
    }

    /// Current loop-level parallelism directive.
    pub fn llp_degree(&self) -> LoopDegree {
        self.llp
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> MgpsConfig {
        self.cfg
    }

    /// Off-loads currently recorded in the sampling window (at most
    /// `config().window`).
    pub fn window_fill(&self) -> usize {
        self.offload_log.len()
    }

    /// Number of evaluation points reached.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Number of LLP activations issued.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Number of LLP deactivations issued.
    pub fn deactivations(&self) -> u64 {
        self.deactivations
    }

    /// The utilization sample `U` of the most recent evaluation (0 before
    /// any evaluation has happened). Lets callers surface the paper's
    /// window observable without re-deriving it from the off-load log.
    pub fn last_u(&self) -> usize {
        self.last_u
    }

    /// Record an off-load arrival at `now_ns`. The scheduler conservatively
    /// grants one SPE (the current `llp_degree` applies to the *loops* of
    /// the task, decided at activation time).
    pub fn on_offload(&mut self, task: TaskId, now_ns: u64) {
        if self.offload_log.len() == self.cfg.window {
            self.offload_log.pop_front();
        }
        self.offload_log.push_back((task, now_ns));
    }

    /// Record the departure of `task`, which executed over
    /// `[started_ns, now_ns]`. `waiting_tasks` is the number of tasks ready
    /// for off-load at this instant (the paper's `T`).
    ///
    /// Returns a directive at window boundaries, `None` otherwise.
    pub fn on_departure(
        &mut self,
        task: TaskId,
        started_ns: u64,
        now_ns: u64,
        waiting_tasks: usize,
    ) -> Option<Directive> {
        debug_assert!(now_ns >= started_ns);
        let _ = task;
        self.completions += 1;
        if !self.completions.is_multiple_of(self.cfg.window as u64) {
            return None;
        }
        // U: discrete tasks off-loaded while the departing task executed.
        let u = self
            .offload_log
            .iter()
            .filter(|&&(_, t)| t >= started_ns && t <= now_ns)
            .count();
        Some(self.evaluate(u, waiting_tasks))
    }

    /// Timer-interrupt evaluation for applications that off-load too rarely
    /// to reach a window boundary. `busy_spes` is the instantaneous count of
    /// busy SPEs; `waiting_tasks` as above.
    pub fn on_timer(&mut self, busy_spes: usize, waiting_tasks: usize) -> Directive {
        self.evaluate(busy_spes, waiting_tasks)
    }

    /// Record a request that ran on the PPE instead of off-loading: it
    /// neither arrives nor departs, so a process whose requests the
    /// granularity test keeps on the PPE would close no window, and MGPS
    /// would never see the SPEs it leaves idle. Every `window` such
    /// requests with no evaluation in between are the timer interrupt
    /// ([`Self::on_timer`]); `None` otherwise.
    pub fn on_ppe_request(&mut self, busy_spes: usize, waiting_tasks: usize) -> Option<Directive> {
        self.ppe_requests += 1;
        (self.ppe_requests >= self.cfg.window as u64).then(|| self.on_timer(busy_spes, waiting_tasks))
    }

    fn evaluate(&mut self, u: usize, waiting_tasks: usize) -> Directive {
        self.evaluations += 1;
        self.ppe_requests = 0;
        self.last_u = u;
        if u <= self.cfg.u_threshold {
            let t = waiting_tasks.max(1);
            let degree = (self.healthy.max(1) / t).clamp(1, self.cfg.n_spes);
            if degree > 1 {
                let d = LoopDegree(degree);
                if self.llp != d {
                    self.activations += 1;
                }
                self.llp = d;
                return Directive::ActivateLlp(d);
            }
            // ⌊n_spes/T⌋ == 1: LLP would not help; fall through to EDTLP.
        }
        if self.llp.is_parallel() {
            self.deactivations += 1;
        }
        self.llp = LoopDegree::SEQUENTIAL;
        Directive::DeactivateLlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> MgpsScheduler {
        MgpsScheduler::new(MgpsConfig::for_spes(8))
    }

    /// Drive `n` offload+departure pairs where `concurrency` tasks overlap
    /// each departing task's execution window.
    fn drive(s: &mut MgpsScheduler, n: u64, concurrency: usize, waiting: usize) -> Vec<Directive> {
        let mut out = Vec::new();
        let task_len = 96_000u64; // 96 µs
        for i in 0..n {
            let start = i * task_len;
            // `concurrency` offloads land inside [start, start+task_len].
            for c in 0..concurrency {
                s.on_offload(TaskId(i * 100 + c as u64), start + c as u64 * 1_000);
            }
            if let Some(d) = s.on_departure(TaskId(i * 100), start, start + task_len, waiting) {
                out.push(d);
            }
        }
        out
    }

    #[test]
    fn default_is_pure_edtlp() {
        let s = sched();
        assert_eq!(s.llp_degree(), LoopDegree::SEQUENTIAL);
    }

    #[test]
    fn evaluation_happens_every_window_completions() {
        let mut s = sched();
        let directives = drive(&mut s, 16, 2, 2);
        assert_eq!(directives.len(), 2, "two windows of 8 completions");
        assert_eq!(s.evaluations(), 2);
    }

    #[test]
    fn low_tlp_activates_llp_with_floor_8_over_t() {
        let mut s = sched();
        // 2 concurrent bootstraps => U = 2 <= 4; T = 2 waiting => degree 4.
        let d = drive(&mut s, 8, 2, 2);
        assert_eq!(d, vec![Directive::ActivateLlp(LoopDegree(4))]);
        assert_eq!(s.llp_degree(), LoopDegree(4));

        // 4 waiting => degree 2.
        let mut s = sched();
        let d = drive(&mut s, 8, 3, 4);
        assert_eq!(d, vec![Directive::ActivateLlp(LoopDegree(2))]);
    }

    #[test]
    fn single_bootstrap_gets_all_spes() {
        let mut s = sched();
        let d = drive(&mut s, 8, 1, 1);
        assert_eq!(d, vec![Directive::ActivateLlp(LoopDegree(8))]);
    }

    #[test]
    fn high_tlp_retains_edtlp() {
        let mut s = sched();
        // 8 concurrent bootstraps => U = 8 > 4 => stay EDTLP.
        let d = drive(&mut s, 8, 8, 8);
        assert_eq!(d, vec![Directive::DeactivateLlp]);
        assert_eq!(s.llp_degree(), LoopDegree::SEQUENTIAL);
    }

    #[test]
    fn llp_is_throttled_when_tlp_rises() {
        let mut s = sched();
        let d1 = drive(&mut s, 8, 2, 2);
        assert_eq!(d1, vec![Directive::ActivateLlp(LoopDegree(4))]);
        // Task parallelism ramps up (e.g. more bootstraps spawned).
        let d2 = drive(&mut s, 8, 7, 7);
        assert_eq!(d2, vec![Directive::DeactivateLlp]);
        assert_eq!(s.deactivations(), 1);
    }

    #[test]
    fn u_at_exactly_half_activates() {
        let mut s = sched();
        // U = 4 (threshold) => activate; T = 4 => degree 2.
        let d = drive(&mut s, 8, 4, 4);
        assert_eq!(d, vec![Directive::ActivateLlp(LoopDegree(2))]);
    }

    #[test]
    fn degree_one_result_means_deactivate() {
        let mut s = sched();
        // U low but T = 5 => floor(8/5) = 1 => LLP pointless.
        let d = drive(&mut s, 8, 2, 5);
        assert_eq!(d, vec![Directive::DeactivateLlp]);
    }

    #[test]
    fn offload_log_is_bounded_by_window() {
        let mut s = sched();
        for i in 0..100 {
            s.on_offload(TaskId(i), i * 10);
        }
        assert!(s.offload_log.len() <= 8);
    }

    #[test]
    fn timer_fallback_uses_instantaneous_occupancy() {
        let mut s = sched();
        assert_eq!(s.on_timer(2, 2), Directive::ActivateLlp(LoopDegree(4)));
        assert_eq!(s.on_timer(7, 7), Directive::DeactivateLlp);
    }

    #[test]
    fn a_window_of_ppe_requests_is_a_timer_tick() {
        let mut s = sched();
        for _ in 1..8 {
            assert_eq!(s.on_ppe_request(0, 1), None);
        }
        // The eighth: nothing on the SPEs, one process => every SPE.
        assert_eq!(s.on_ppe_request(0, 1), Some(Directive::ActivateLlp(LoopDegree(8))));
        assert_eq!(s.evaluations(), 1);
        // A window closed by off-loads restarts the count.
        for _ in 1..8 {
            assert_eq!(s.on_ppe_request(0, 1), None);
        }
        drive(&mut s, 8, 1, 1);
        assert_eq!(s.on_ppe_request(0, 1), None);
    }

    #[test]
    fn old_offloads_outside_execution_window_are_not_counted() {
        let mut s = sched();
        // Seven offloads long before the departing task ran.
        for i in 0..7 {
            s.on_offload(TaskId(i), i);
        }
        // Departing task ran [1_000_000, 1_096_000]; only its own offload
        // overlaps.
        s.on_offload(TaskId(99), 1_000_000);
        // Force a window boundary.
        for i in 0..7 {
            assert!(s.on_departure(TaskId(i), 0, 10, 1).is_none());
        }
        let d = s.on_departure(TaskId(99), 1_000_000, 1_096_000, 1);
        // U = 1 <= 4, T = 1 => all 8 SPEs to the loop.
        assert_eq!(d, Some(Directive::ActivateLlp(LoopDegree(8))));
    }

    #[test]
    fn activation_counters_track_transitions() {
        let mut s = sched();
        drive(&mut s, 8, 2, 2); // activate(4)
        drive(&mut s, 8, 2, 2); // same directive, no new transition
        assert_eq!(s.activations(), 1);
        drive(&mut s, 8, 8, 8); // deactivate
        assert_eq!(s.deactivations(), 1);
        drive(&mut s, 8, 1, 1); // activate(8)
        assert_eq!(s.activations(), 2);
    }

    #[test]
    fn quarantine_throttles_llp_degree() {
        let mut s = sched();
        assert_eq!(s.healthy(), 8);
        // Full health, one bootstrap: all 8 SPEs to the loop.
        assert_eq!(s.on_timer(1, 1), Directive::ActivateLlp(LoopDegree(8)));
        // Half the SPEs quarantined: degree drops to floor(4/1) = 4.
        s.set_healthy(4);
        assert_eq!(s.on_timer(1, 1), Directive::ActivateLlp(LoopDegree(4)));
        // Two waiting tasks share the healthy half: floor(4/2) = 2.
        assert_eq!(s.on_timer(1, 2), Directive::ActivateLlp(LoopDegree(2)));
        // Everything quarantined: LLP cannot help; deactivate.
        s.set_healthy(0);
        assert_eq!(s.on_timer(1, 1), Directive::DeactivateLlp);
        // Re-admission restores the full degree (clamped to n_spes).
        s.set_healthy(99);
        assert_eq!(s.healthy(), 8);
        assert_eq!(s.on_timer(1, 1), Directive::ActivateLlp(LoopDegree(8)));
    }

    #[test]
    fn dual_cell_config_scales_threshold() {
        let cfg = MgpsConfig::for_spes(16);
        assert_eq!(cfg.u_threshold, 8);
        assert_eq!(cfg.window, 16);
        let mut s = MgpsScheduler::new(cfg);
        // 4 bootstraps on a dual-Cell blade: U=4 <= 8 => degree 16/4 = 4.
        assert_eq!(s.on_timer(4, 4), Directive::ActivateLlp(LoopDegree(4)));
    }
}
