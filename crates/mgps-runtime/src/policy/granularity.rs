//! The EDTLP granularity test (§5.2).
//!
//! The scheduler off-loads a task only when
//!
//! ```text
//! t_spe + t_code + 2·t_comm < t_ppe
//! ```
//!
//! where `t_spe` is the task's SPE execution time, `t_code` the one-time
//! cost of shipping its code image to the SPE's local store (zero after the
//! first execution, because images are preloaded and cached), and `t_comm`
//! the PPE↔SPE signal latency (paid once to start the task and once to
//! return the result).
//!
//! Natively the two extra terms have no separate measurement: the `t_spe`
//! recorded is the wall time of the whole off-load, from the request to the
//! result back on the PPE, so the hand-over both ways is already in it (a
//! host thread reloads no code image). The test run is therefore
//! `t_spe < t_ppe`.
//!
//! Task lengths are unknown a priori, so the scheduler *optimistically
//! off-loads* any annotated task, measures it, and throttles off-loading of
//! functions that fail the test — which requires keeping both PPE and SPE
//! versions of every off-loadable function.

use std::collections::HashMap;

use super::types::KernelKind;

/// No verdict before this many samples of *each* version — a kernel's SPE
/// and PPE copies here, a loop site's woken team and its master alone in
/// [`super::balance::LoadBalancer::wake`]: a single wall-clock sample on a
/// multiprogrammed host can be inflated arbitrarily by preemption. An
/// inflated SPE sample must not park a profitable kernel on the PPE, and
/// an inflated PPE sample must not make every call of a fine-grained
/// kernel pay an off-load.
pub const MIN_SPE_SAMPLES: u64 = 3;

/// While a loop site's master is favoured to run every chunk alone, one of
/// this many invocations wakes the team anyway, so the team's time is
/// re-measured — the same periodic re-probe, one level down
/// ([`super::balance::LoadBalancer::wake`]).
pub const TEAM_PROBE_PERIOD: u64 = 64;

/// The minimum of a stream of wall-clock samples, the one estimator every
/// verdict here and in [`super::balance`] is taken on. Noise on a shared
/// host only ever adds to a sample, so the minimum is the estimator of
/// intrinsic cost.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Minimum {
    pub(super) samples: u64,
    pub(super) ns: u64,
}

impl Minimum {
    pub(super) fn add(&mut self, ns: u64) {
        self.ns = if self.samples == 0 { ns } else { self.ns.min(ns) };
        self.samples += 1;
    }

    /// The minimum, once there are enough samples ([`MIN_SPE_SAMPLES`])
    /// that one preempted sample cannot decide anything.
    pub(super) fn settled(self) -> Option<u64> {
        (self.samples >= MIN_SPE_SAMPLES).then_some(self.ns)
    }

    /// The minimum so far, if there is a sample.
    fn get(self) -> Option<u64> {
        (self.samples > 0).then_some(self.ns)
    }
}

/// Measured timing profile of one off-loadable function.
#[derive(Debug, Clone, Copy, Default)]
pub struct FunctionTimings {
    /// Best (minimum) observed wall time of an off-load, ns.
    pub t_spe_ns: u64,
    /// Best (minimum) observed PPE execution time of the fallback version, ns.
    pub t_ppe_ns: u64,
}

impl FunctionTimings {
    /// Evaluate the paper's granularity condition on native timings, where
    /// `t_spe` already holds `t_code` and both `t_comm`s (see the module
    /// doc).
    pub fn offload_profitable(&self) -> bool {
        self.t_spe_ns < self.t_ppe_ns
    }
}

/// Per-function decision state for dynamic granularity control.
///
/// A function's requests need not all take the same time (natively a
/// `makenewz` request orients the tree and then takes as many Newton steps
/// as the edge needs). Both estimators are minima, so the test compares
/// the function's cheapest request on the SPE with its cheapest on the PPE
/// — an edge that converged in one step with an edge that did: like with
/// like.
///
/// The first request for a function is always off-loaded (optimism); after
/// both sides have been measured, the test decides. Whichever way it went,
/// the version the verdict keeps the function away from is re-measured
/// periodically, so a change in workload (e.g. a longer alignment) — or a
/// verdict reached on inflated samples — is corrected.
#[derive(Debug)]
pub struct GranularityController {
    profiles: HashMap<KernelKind, Profile>,
    /// Every `retry_period` requests, a function's request goes to the
    /// version its verdict disfavours: the SPE for a throttled function,
    /// the PPE copy for an off-loaded one.
    retry_period: u64,
}

#[derive(Debug, Default)]
struct Profile {
    spe: Minimum,
    ppe: Minimum,
    requests: u64,
    throttled: bool,
}

impl Profile {
    fn timings(&self) -> FunctionTimings {
        FunctionTimings {
            t_spe_ns: self.spe.get().unwrap_or(0),
            t_ppe_ns: self.ppe.get().unwrap_or(u64::MAX),
        }
    }
}

/// What the controller wants done with one off-load request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GranularityDecision {
    /// Off-load to an SPE.
    Offload,
    /// Run the PPE fallback (task too fine-grained to ship).
    RunOnPpe,
}

impl GranularityController {
    /// A controller that re-probes the version its verdict disfavours every
    /// `retry_period` requests (the paper re-probes when the runtime system
    /// changes its parallelization strategy; a periodic probe subsumes that).
    pub fn new(retry_period: u64) -> Self {
        assert!(retry_period > 0, "retry period must be positive");
        GranularityController { profiles: HashMap::new(), retry_period }
    }

    /// Record a completed off-load of `kind`: its wall time, ns.
    pub fn record_spe(&mut self, kind: KernelKind, elapsed_ns: u64) {
        self.profiles.entry(kind).or_default().spe.add(elapsed_ns);
    }

    /// Record a completed PPE (fallback) execution of `kind`.
    pub fn record_ppe(&mut self, kind: KernelKind, elapsed_ns: u64) {
        self.profiles.entry(kind).or_default().ppe.add(elapsed_ns);
    }

    /// Decide the fate of a new off-load request for `kind`.
    pub fn decide(&mut self, kind: KernelKind) -> GranularityDecision {
        let retry = self.retry_period;
        let p = self.profiles.entry(kind).or_default();
        p.requests += 1;

        // Optimistic off-load until we have enough SPE measurements that a
        // single preemption-inflated sample cannot throttle the kernel.
        let Some(t_spe_ns) = p.spe.settled() else {
            return GranularityDecision::Offload;
        };
        // The test needs t_ppe too: probe the PPE fallback version (the
        // dual PPE/SPE copies of every off-loadable function exist
        // precisely to allow this, §5.2), as often as the SPE one and for
        // the same reason.
        let Some(t_ppe_ns) = p.ppe.settled() else {
            return GranularityDecision::RunOnPpe;
        };

        let profitable = FunctionTimings { t_spe_ns, t_ppe_ns }.offload_profitable();
        p.throttled = !profitable;
        // Periodic re-probe of the other version, so a workload change can
        // be noticed. Both estimators are minima, so a clean probe repairs
        // a verdict reached on inflated samples within one period — in
        // off-load mode too, where the PPE copy would otherwise never be
        // timed again.
        let probe = p.requests.is_multiple_of(retry);
        let offload = if probe { !profitable } else { profitable };
        if offload {
            GranularityDecision::Offload
        } else {
            GranularityDecision::RunOnPpe
        }
    }

    /// Whether `kind` is currently throttled to the PPE.
    pub fn is_throttled(&self, kind: KernelKind) -> bool {
        self.profiles.get(&kind).is_some_and(|p| p.throttled)
    }

    /// Current averaged timings for `kind` (None before any record).
    pub fn timings(&self, kind: KernelKind) -> Option<FunctionTimings> {
        self.profiles.get(&kind).map(Profile::timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_condition_matches_paper_formula() {
        // t_spe + t_code + 2 t_comm < t_ppe, with the off-load's measured
        // wall time as t_spe: 96 µs of kernel plus 2 × 13 µs of signals
        // loses to a 120 µs PPE copy, plus 2 × 1 µs wins.
        let t = FunctionTimings { t_spe_ns: 96_000 + 2 * 1_000, t_ppe_ns: 120_000 };
        assert!(t.offload_profitable());
        let t2 = FunctionTimings { t_spe_ns: 96_000 + 2 * 13_000, t_ppe_ns: 120_000 };
        assert!(!t2.offload_profitable());
    }

    #[test]
    fn first_request_is_optimistically_offloaded() {
        let mut c = GranularityController::new(64);
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
    }

    #[test]
    fn warmup_requests_probe_the_ppe_fallback_once() {
        // "Once": one warm-up round of MIN_SPE_SAMPLES probes, not one probe.
        let mut c = GranularityController::new(64);
        // Optimistic off-loads until MIN_SPE_SAMPLES measurements exist.
        for _ in 0..MIN_SPE_SAMPLES {
            assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
            c.record_spe(KernelKind::Evaluate, 5_000);
        }
        // As many PPE probes, so t_ppe is known as well as t_spe is...
        for _ in 0..MIN_SPE_SAMPLES {
            assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::RunOnPpe);
            assert!(!c.is_throttled(KernelKind::Evaluate), "a probe is not a verdict");
            c.record_ppe(KernelKind::Evaluate, 50_000);
        }
        // ... after which the (profitable) kernel off-loads again.
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
    }

    /// A controller whose warm-up of `kind` is over: MIN_SPE_SAMPLES samples
    /// of each version, through the same calls the runtime makes.
    fn warmed_up(
        retry: u64,
        kind: KernelKind,
        spe_ns: [u64; 3],
        ppe_ns: [u64; 3],
    ) -> GranularityController {
        let mut c = GranularityController::new(retry);
        for ns in spe_ns {
            assert_eq!(c.decide(kind), GranularityDecision::Offload);
            c.record_spe(kind, ns);
        }
        for ns in ppe_ns {
            assert_eq!(c.decide(kind), GranularityDecision::RunOnPpe);
            c.record_ppe(kind, ns);
        }
        c
    }

    #[test]
    fn one_inflated_ppe_sample_cannot_lock_a_kernel_into_offload_mode() {
        // A ~20 µs off-load around a ~3 µs kernel. The first PPE probe is
        // preempted; the later ones are clean, and the minimum decides.
        let kind = KernelKind::NewView;
        let mut c = warmed_up(64, kind, [20_000; 3], [9_000_000, 3_000, 3_100]);
        assert_eq!(c.decide(kind), GranularityDecision::RunOnPpe);
        assert!(c.is_throttled(kind));
    }

    #[test]
    fn inflated_ppe_warmup_is_corrected_within_one_retry_period() {
        // Every warm-up PPE probe is inflated, so the kernel tests
        // "profitable" and off-loads — but no longer for the life of the
        // runtime: within one period the PPE copy is probed again, and one
        // clean sample throttles the kernel.
        let kind = KernelKind::NewView;
        let retry = 16;
        let mut c = warmed_up(retry, kind, [20_000; 3], [9_000_000; 3]);
        let mut offloads = 0;
        for _ in 0..retry {
            match c.decide(kind) {
                GranularityDecision::Offload => {
                    c.record_spe(kind, 20_000);
                    offloads += 1;
                }
                GranularityDecision::RunOnPpe => {
                    c.record_ppe(kind, 3_000); // the host is quiet this time
                    break;
                }
            }
            assert!(!c.is_throttled(kind));
        }
        assert!((1..retry).contains(&offloads), "off-load mode, then a PPE re-probe");
        assert_eq!(c.decide(kind), GranularityDecision::RunOnPpe);
        assert!(c.is_throttled(kind));
    }

    #[test]
    fn unprofitable_function_gets_throttled_after_measurement() {
        let mut c = GranularityController::new(1000);
        // SPE is slower than PPE for this one.
        for _ in 0..MIN_SPE_SAMPLES {
            c.record_spe(KernelKind::Evaluate, 50_000);
            c.record_ppe(KernelKind::Evaluate, 20_000);
        }
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::RunOnPpe);
        assert!(c.is_throttled(KernelKind::Evaluate));
    }

    #[test]
    fn one_inflated_sample_cannot_throttle() {
        // A preempted wall-clock measurement inflates one SPE sample far
        // past the PPE time; the minimum estimator must shrug it off.
        let mut c = GranularityController::new(1000);
        c.record_spe(KernelKind::Evaluate, 9_000_000); // preempted outlier
        c.record_spe(KernelKind::Evaluate, 40_000);
        c.record_spe(KernelKind::Evaluate, 45_000);
        for _ in 0..MIN_SPE_SAMPLES {
            c.record_ppe(KernelKind::Evaluate, 120_000);
        }
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
        assert!(!c.is_throttled(KernelKind::Evaluate));
    }

    #[test]
    fn profitable_function_keeps_offloading() {
        let mut c = GranularityController::new(1000);
        for _ in 0..MIN_SPE_SAMPLES {
            c.record_spe(KernelKind::NewView, 96_000);
            c.record_ppe(KernelKind::NewView, 300_000);
        }
        for _ in 0..10 {
            assert_eq!(c.decide(KernelKind::NewView), GranularityDecision::Offload);
        }
        assert!(!c.is_throttled(KernelKind::NewView));
    }

    #[test]
    fn throttled_function_is_reprobed_periodically() {
        let mut c = GranularityController::new(4);
        for _ in 0..MIN_SPE_SAMPLES {
            c.record_spe(KernelKind::Evaluate, 50_000);
            c.record_ppe(KernelKind::Evaluate, 20_000);
        }
        let mut offloads = 0;
        for _ in 0..8 {
            if c.decide(KernelKind::Evaluate) == GranularityDecision::Offload {
                offloads += 1;
            }
        }
        assert_eq!(offloads, 2, "one probe per retry period");
    }

    #[test]
    fn fault_storm_timings_cannot_permanently_disable_a_kernel() {
        // Adversarial timing: every warmup sample lands during a fault
        // storm (retries + watchdog stalls inflate wall-clock SPE times
        // 100×), so the kernel gets throttled on corrupt data. Once the
        // storm passes — SPEs re-admitted from quarantine — the periodic
        // re-probe must observe one clean sample and the minimum estimator
        // must rehabilitate the kernel permanently.
        let mut c = GranularityController::new(4);
        for _ in 0..MIN_SPE_SAMPLES {
            assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
            c.record_spe(KernelKind::Evaluate, 5_000_000); // storm-inflated
        }
        for _ in 0..MIN_SPE_SAMPLES {
            assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::RunOnPpe);
            c.record_ppe(KernelKind::Evaluate, 120_000);
        }
        // Verdict on the corrupt profile: throttled, as it must be — the
        // controller cannot distinguish a storm from a genuinely slow SPE.
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::RunOnPpe);
        assert!(c.is_throttled(KernelKind::Evaluate));
        // Storm ends. Drain decisions until the periodic probe off-loads;
        // its clean measurement must win the minimum and clear the throttle.
        let mut probed = false;
        for _ in 0..8 {
            if c.decide(KernelKind::Evaluate) == GranularityDecision::Offload {
                c.record_spe(KernelKind::Evaluate, 40_000); // healthy again
                probed = true;
                break;
            }
        }
        assert!(probed, "a throttled kernel must still be re-probed");
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
        assert!(!c.is_throttled(KernelKind::Evaluate));
        // And no amount of later storm residue can undo the clean minimum.
        c.record_spe(KernelKind::Evaluate, 5_000_000);
        assert_eq!(c.decide(KernelKind::Evaluate), GranularityDecision::Offload);
    }

    #[test]
    fn timings_track_the_minimum_sample() {
        let mut c = GranularityController::new(8);
        c.record_spe(KernelKind::MakeNewz, 30_000);
        c.record_spe(KernelKind::MakeNewz, 10_000);
        c.record_spe(KernelKind::MakeNewz, 20_000);
        let t = c.timings(KernelKind::MakeNewz).expect("profile exists");
        assert_eq!(t.t_spe_ns, 10_000);
        assert_eq!(t.t_ppe_ns, u64::MAX, "no PPE samples yet");
    }

    #[test]
    #[should_panic(expected = "retry period")]
    fn zero_retry_period_rejected() {
        let _ = GranularityController::new(0);
    }
}
