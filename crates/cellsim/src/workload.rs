//! The RAxML workload model, calibrated to the paper's measurements.
//!
//! §5.1–5.2 report, for the `42_SC` input (42 taxa × 1,167 nucleotides):
//!
//! * one bootstrap, 1 worker, optimized off-loading: **28.46 s** (Table 1);
//! * mean SPE task: **96 µs**; mean PPE work between off-loads: **11 µs**
//!   (hence the 90 % / 10 % SPE/PPE split the paper quotes);
//! * parallel loops of **228 iterations** per off-loaded function;
//! * PPE-only execution: **38.23 s**; naive (unoptimized) off-loading:
//!   **50.38 s**; optimized off-loading: **28.82 s** (§5.1).
//!
//! From these we derive:
//!
//! * tasks per bootstrap `n = 28.46 s / (11 µs + 96 µs) ≈ 265,981`;
//! * the naive SPE kernel factor `(50.38 − 0.1·28.46) / (0.9·28.46) ≈ 1.86`
//!   — no vectorization, 20-cycle branch penalties on 45 % of the code,
//!   unaggregated DMA, and library `log()`/`exp()`;
//! * the PPE-version factor `(38.23 − 0.1·28.46) / (0.9·28.46) ≈ 1.38`.
//!
//! The LLP constants (`loop_fraction`, per-worker signal/fetch/reduce
//! overheads) are fitted so the simulated Table 2 matches the measured
//! speedup curve: peak ≈ 1.55–1.6× at 4–5 SPEs, degradation beyond.
//!
//! Simulating 266 k tasks per bootstrap is faithful but slow; experiments
//! use [`RaxmlWorkload::scaled`] to keep every *duration* exact while
//! reducing the task count, and multiply reported makespans by
//! [`RaxmlWorkload::scale_factor`]. Steady-state scheduling behaviour is
//! unchanged; only the number of repetitions shrinks.

use des::time::SimDuration;
use mgps_runtime::policy::KernelKind;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::params::{DMA_STARTUP, SPE_DMA_BANDWIDTH};

/// Which version of the off-loaded kernels runs (§5.1's ablation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelProfile {
    /// Fully optimized SPE code: vectorized loops and conditionals,
    /// pipelined vector ops, aggregated DMA, SDK math approximations.
    Optimized,
    /// Straightforward port: scalar double-precision code with mispredicted
    /// branches and unoptimized transfers.
    Naive,
    /// The original PPE version (no off-loading at all).
    PpeOnly,
    /// A custom slowdown factor relative to the optimized kernel — used by
    /// the incremental optimization-ladder ablation, which walks from
    /// `Naive` to `Optimized` one §5.1 optimization at a time.
    Custom(f64),
}

impl KernelProfile {
    /// Execution-time multiplier relative to the optimized SPE kernel.
    pub fn factor(self) -> f64 {
        match self {
            KernelProfile::Optimized => 1.0,
            KernelProfile::Naive => 1.86,
            KernelProfile::PpeOnly => 1.38,
            KernelProfile::Custom(f) => f,
        }
    }

    /// The §5.1 optimization ladder: each step's name and the speedup
    /// factor it removes from the naive kernel. The paper itemizes the
    /// causes (vectorization of loops and conditionals, pipelining,
    /// DMA aggregation, SDK math approximations) without publishing the
    /// per-step split; this decomposition is synthesized to multiply out
    /// to the measured 1.86× naive/optimized ratio, with vectorization
    /// dominating (the paper notes 45% of naive time was condition
    /// checking with 20-cycle mispredictions).
    pub const LADDER: [(&'static str, f64); 4] = [
        ("vectorize ML loops", 1.35),
        ("vectorize conditionals (branch penalty)", 1.15),
        ("aggregate DMA transfers", 1.08),
        ("SDK math approximations (log/exp)", 1.10),
    ];
}

/// A task's price at one loop degree, before jitter (see
/// [`RaxmlWorkload::degree_price`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DegreePrice {
    /// Serial part plus this degree's share of the loop, at factor 1.
    pub(crate) compute: SimDuration,
    /// Team signal, fetch and reduce costs (zero at degree 1).
    pub(crate) overhead: SimDuration,
}

impl DegreePrice {
    /// The compute base scaled by `profile_factor * mult`, plus the team
    /// overhead.
    #[inline]
    pub(crate) fn duration(self, profile_factor: f64, mult: f64) -> SimDuration {
        self.compute.mul_f64(profile_factor * mult) + self.overhead
    }
}

/// One run's grant prices, built once: the [`DegreePrice`] of every degree
/// the machine can grant, the profile factor, and the task buffers' DMA
/// base latency. A grant then pays one multiply for its duration.
#[derive(Debug, Clone)]
pub(crate) struct GrantCosts {
    prices: Vec<DegreePrice>,
    profile_factor: f64,
    mixed: bool,
    /// Bytes DMA'd per task: input plus output buffers.
    pub(crate) buffer_bytes: usize,
    /// Uncontended latency of moving `buffer_bytes` at per-SPE bandwidth.
    pub(crate) dma_base: SimDuration,
}

impl GrantCosts {
    /// Prices for degrees `1..=max_degree` of `workload` under `profile`.
    pub(crate) fn new(
        workload: &RaxmlWorkload,
        profile: KernelProfile,
        max_degree: usize,
    ) -> GrantCosts {
        let buffer_bytes = workload.input_bytes + workload.output_bytes;
        GrantCosts {
            prices: (1..=max_degree).map(|d| workload.degree_price(d)).collect(),
            profile_factor: profile.factor(),
            mixed: workload.heterogeneous_kernels,
            buffer_bytes,
            dma_base: SimDuration::from_secs_f64(buffer_bytes as f64 / SPE_DMA_BANDWIDTH)
                + DMA_STARTUP,
        }
    }

    /// The duration of a `kind` task at `degree` with drawn `jitter`:
    /// [`RaxmlWorkload::kernel_task_duration`] to the bit.
    #[inline]
    pub(crate) fn duration(&self, kind: KernelKind, degree: usize, jitter: f64) -> SimDuration {
        let kernel_mult = if self.mixed { RaxmlWorkload::kernel_factor(kind) } else { 1.0 };
        self.prices[degree - 1].duration(self.profile_factor, jitter * kernel_mult)
    }
}

/// Calibrated workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct RaxmlWorkload {
    /// Off-loadable tasks per bootstrap.
    pub tasks_per_bootstrap: usize,
    /// Mean PPE work between consecutive off-loads (11 µs).
    pub ppe_gap: SimDuration,
    /// Mean optimized SPE task duration (96 µs).
    pub task_mean: SimDuration,
    /// Iterations in each off-loaded function's parallel loop (228 for
    /// `42_SC`; proportional to alignment length).
    pub loop_iters: usize,
    /// Fraction of an SPE task's time spent in its parallelizable loops.
    pub loop_fraction: f64,
    /// Per-worker master→worker start signal cost.
    pub llp_signal: SimDuration,
    /// Per-worker argument/data fetch from the master's local store
    /// (serialized on the master's LS port).
    pub llp_fetch: SimDuration,
    /// Per-worker reduction/merge cost on the master.
    pub llp_reduce: SimDuration,
    /// Multiplicative jitter half-width on compute durations (±fraction).
    pub jitter: f64,
    /// Bytes DMA'd into local store at task start.
    pub input_bytes: usize,
    /// Bytes committed back to main memory at task end.
    pub output_bytes: usize,
    /// Accumulated task-count reduction applied by [`Self::scaled`]:
    /// reported makespans multiply by this to extrapolate to the full
    /// workload. 1.0 for an unscaled workload.
    pub extrapolation: f64,
    /// Draw tasks from the heterogeneous three-kernel mix (§5.1's gprof
    /// profile: newview 76.8 %, makenewz 19.6 %, evaluate 2.37 % of time)
    /// instead of uniform 96 µs tasks. The mean stays 96 µs; the duration
    /// *distribution* becomes bimodal, which is a fidelity knob for
    /// sensitivity analysis (see the `kernel_mix` experiment).
    pub heterogeneous_kernels: bool,
}

impl RaxmlWorkload {
    /// The faithful `42_SC` workload.
    pub fn paper_42sc() -> RaxmlWorkload {
        RaxmlWorkload {
            tasks_per_bootstrap: 265_981,
            ppe_gap: SimDuration::from_micros(11),
            task_mean: SimDuration::from_micros(96),
            loop_iters: 228,
            loop_fraction: 0.72,
            llp_signal: SimDuration::from_nanos(1_000),
            llp_fetch: SimDuration::from_nanos(2_500),
            llp_reduce: SimDuration::from_nanos(800),
            jitter: 0.15,
            input_bytes: 12 * 1024,
            output_bytes: 128,
            extrapolation: 1.0,
            heterogeneous_kernels: false,
        }
    }

    /// Enable the heterogeneous kernel mix.
    pub fn with_kernel_mix(mut self) -> RaxmlWorkload {
        self.heterogeneous_kernels = true;
        self
    }

    /// Call frequencies of the three kernels in the mix. `newview`
    /// dominates calls (one per internal node per tree change); `makenewz`
    /// runs per branch; `evaluate` rarely.
    pub const KERNEL_FREQS: [(KernelKind, f64); 3] = [
        (KernelKind::NewView, 0.60),
        (KernelKind::MakeNewz, 0.30),
        (KernelKind::Evaluate, 0.10),
    ];

    /// Mean duration multiplier of `kind` relative to [`Self::task_mean`],
    /// chosen so `Σ freq·dur` equals the mean and the per-kernel *time*
    /// shares match the gprof profile (§5.1, renormalized over the three
    /// kernels: 77.8 / 19.8 / 2.4 %).
    pub fn kernel_factor(kind: KernelKind) -> f64 {
        // share_k / freq_k, with shares renormalized to sum to 1.
        let total: f64 =
            KernelKind::ALL.iter().map(|k| k.sequential_share()).sum();
        let share = kind.sequential_share() / total;
        let freq = Self::KERNEL_FREQS
            .iter()
            .find(|&&(k, _)| k == kind)
            .map(|&(_, f)| f)
            .expect("kernel in mix");
        share / freq
    }

    /// Draw the kernel kind of the next task (uniform workload: always
    /// `NewView`).
    pub fn draw_kind(&self, rng: &mut SmallRng) -> KernelKind {
        if !self.heterogeneous_kernels {
            return KernelKind::NewView;
        }
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for &(k, f) in &Self::KERNEL_FREQS {
            acc += f;
            if u < acc {
                return k;
            }
        }
        KernelKind::Evaluate
    }

    /// Reduce the task count by `factor` (durations untouched); reported
    /// makespans should be multiplied by [`Self::scale_factor`].
    ///
    /// # Panics
    /// Panics if the reduction would leave zero tasks.
    pub fn scaled(mut self, factor: usize) -> RaxmlWorkload {
        assert!(factor >= 1, "scale factor must be >= 1");
        let before = self.tasks_per_bootstrap;
        self.tasks_per_bootstrap = (self.tasks_per_bootstrap / factor).max(1);
        self.extrapolation *= before as f64 / self.tasks_per_bootstrap as f64;
        self
    }

    /// Ratio of the full task count to this workload's (what reported
    /// makespans are multiplied by).
    pub fn scale_factor(&self) -> f64 {
        self.extrapolation
    }

    /// What a task costs at `degree` before jitter: the compute base
    /// (serial part plus a `ceil(iters/degree)` share of the loop) and the
    /// team overhead. Every duration is this price times one multiplier.
    ///
    /// # Panics
    /// Panics if `degree` is 0.
    pub(crate) fn degree_price(&self, degree: usize) -> DegreePrice {
        assert!(degree >= 1, "degree must be at least 1");
        let serial = self.task_mean.mul_f64(1.0 - self.loop_fraction);
        let chunk = self.loop_iters.div_ceil(degree);
        let loop_time = self.task_mean.mul_f64(self.loop_fraction);
        let par = loop_time.mul_f64(chunk as f64 / self.loop_iters as f64);
        let workers = (degree - 1) as u64;
        DegreePrice {
            compute: serial + par,
            overhead: self.llp_signal * workers
                + self.llp_fetch * workers
                + self.llp_reduce * workers,
        }
    }

    /// Duration of one off-loaded task executed with `degree`-way loop
    /// work-sharing under `profile`, with multiplicative `jitter_mult`
    /// applied to the compute portion.
    ///
    /// `degree == 1` is plain EDTLP; higher degrees shrink the loop portion
    /// to `ceil(iters/degree)` iterations and add the team overheads.
    pub fn task_duration(
        &self,
        profile: KernelProfile,
        degree: usize,
        jitter_mult: f64,
    ) -> SimDuration {
        self.kernel_task_duration(KernelKind::NewView, profile, degree, jitter_mult, false)
    }

    /// As [`Self::task_duration`], for a specific kernel of the
    /// heterogeneous mix (`mixed = true` applies the per-kernel factor).
    pub fn kernel_task_duration(
        &self,
        kind: KernelKind,
        profile: KernelProfile,
        degree: usize,
        jitter_mult: f64,
        mixed: bool,
    ) -> SimDuration {
        let kernel_mult = if mixed { Self::kernel_factor(kind) } else { 1.0 };
        self.degree_price(degree).duration(profile.factor(), jitter_mult * kernel_mult)
    }

    /// Draw a jitter multiplier in `[1 − jitter, 1 + jitter]`.
    pub fn draw_jitter(&self, rng: &mut SmallRng) -> f64 {
        if self.jitter == 0.0 {
            1.0
        } else {
            1.0 + rng.gen_range(-self.jitter..=self.jitter)
        }
    }

    /// Draw a PPE work gap (jittered around the mean).
    pub fn draw_ppe_gap(&self, rng: &mut SmallRng) -> SimDuration {
        self.ppe_gap.mul_f64(self.draw_jitter(rng))
    }

    /// Analytic single-worker EDTLP bootstrap estimate (sanity anchor for
    /// Table 1's first row).
    pub fn bootstrap_estimate_1worker(&self) -> SimDuration {
        (self.ppe_gap + self.task_duration(KernelProfile::Optimized, 1, 1.0))
            * self.tasks_per_bootstrap as u64
    }
}

/// The per-grant duration formula the cost tables replaced, kept as the
/// reference the tabled prices are held to.
#[cfg(test)]
mod classic {
    use super::*;

    pub fn kernel_task_duration(
        w: &RaxmlWorkload,
        kind: KernelKind,
        profile: KernelProfile,
        degree: usize,
        jitter_mult: f64,
        mixed: bool,
    ) -> SimDuration {
        let kernel_mult = if mixed { RaxmlWorkload::kernel_factor(kind) } else { 1.0 };
        let jitter_mult = jitter_mult * kernel_mult;
        let serial = w.task_mean.mul_f64(1.0 - w.loop_fraction);
        let chunk = w.loop_iters.div_ceil(degree);
        let par = w.task_mean.mul_f64(w.loop_fraction).mul_f64(chunk as f64 / w.loop_iters as f64);
        let compute = (serial + par).mul_f64(profile.factor() * jitter_mult);
        if degree == 1 {
            compute
        } else {
            let workers = (degree - 1) as u64;
            compute + w.llp_signal * workers + w.llp_fetch * workers + w.llp_reduce * workers
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// Every profile: the three named ones, and `Custom` at `custom`.
    fn profile(which: usize, custom: f64) -> KernelProfile {
        match which {
            0 => KernelProfile::Optimized,
            1 => KernelProfile::Naive,
            2 => KernelProfile::PpeOnly,
            _ => KernelProfile::Custom(custom),
        }
    }

    proptest! {
        #[test]
        fn tabled_durations_equal_the_classic_formula_to_the_bit(
            which in 0usize..4,
            custom in 0.25f64..4.0,
            degree in 1usize..=16,
            jitter in 0.85f64..=1.15,
            mixed in prop::bool::weighted(0.5),
            input_bytes in 16usize..=65_536,
        ) {
            let profile = profile(which, custom);
            let mut wl = RaxmlWorkload::paper_42sc();
            wl.heterogeneous_kernels = mixed;
            wl.input_bytes = input_bytes;
            let costs = GrantCosts::new(&wl, profile, 16);
            for kind in KernelKind::ALL {
                let want = classic::kernel_task_duration(&wl, kind, profile, degree, jitter, mixed);
                prop_assert_eq!(costs.duration(kind, degree, jitter), want);
                prop_assert_eq!(
                    wl.kernel_task_duration(kind, profile, degree, jitter, mixed),
                    want
                );
            }
            let bytes = wl.input_bytes + wl.output_bytes;
            prop_assert_eq!(costs.buffer_bytes, bytes);
            prop_assert_eq!(
                costs.dma_base,
                SimDuration::from_secs_f64(bytes as f64 / SPE_DMA_BANDWIDTH) + DMA_STARTUP
            );
        }
    }

    /// A compute base near 2^50 ns is fine enough that one ulp of the
    /// multiplier moves a duration by whole nanoseconds, where the 96 µs of
    /// `paper_42sc` rounds it away: the multiplier must be formed as
    /// `profile_factor * (jitter * kernel_mult)`, the order of the formula
    /// the tables replaced, not `(profile_factor * jitter) * kernel_mult`.
    #[test]
    fn a_compute_base_near_2_pow_50_sees_the_multiplier_product_order() {
        let mut wl = RaxmlWorkload::paper_42sc().with_kernel_mix();
        wl.task_mean = SimDuration::from_nanos((1 << 50) + 12_345);
        for which in 0..4 {
            let profile = profile(which, 1.7);
            let costs = GrantCosts::new(&wl, profile, 4);
            for step in 0..=300 {
                let jitter = 0.85 + 0.001 * step as f64;
                for kind in KernelKind::ALL {
                    for degree in 1..=4 {
                        let want =
                            classic::kernel_task_duration(&wl, kind, profile, degree, jitter, true);
                        let tabled = costs.duration(kind, degree, jitter);
                        let direct = wl.kernel_task_duration(kind, profile, degree, jitter, true);
                        let case = format!("{profile:?} {kind:?} degree {degree} jitter {jitter}");
                        assert_eq!((tabled, direct), (want, want), "{case}");
                    }
                }
            }
        }
    }

    fn w() -> RaxmlWorkload {
        RaxmlWorkload::paper_42sc()
    }

    #[test]
    fn one_worker_bootstrap_matches_table1_row1() {
        let est = w().bootstrap_estimate_1worker().as_secs_f64();
        assert!(
            (est - 28.46).abs() < 0.1,
            "1-worker bootstrap estimate {est}s should be ~28.46s"
        );
    }

    #[test]
    fn ppe_only_and_naive_match_section_5_1() {
        let wl = w();
        let n = wl.tasks_per_bootstrap as f64;
        let ppe_only = n
            * (wl.ppe_gap + wl.task_duration(KernelProfile::PpeOnly, 1, 1.0)).as_secs_f64();
        let naive =
            n * (wl.ppe_gap + wl.task_duration(KernelProfile::Naive, 1, 1.0)).as_secs_f64();
        assert!((ppe_only - 38.23).abs() < 1.5, "PPE-only {ppe_only}s vs paper 38.23s");
        assert!((naive - 50.38).abs() < 1.5, "naive {naive}s vs paper 50.38s");
        // And the headline: optimized off-loading is a ~1.32x speedup over
        // the PPE version.
        let opt =
            n * (wl.ppe_gap + wl.task_duration(KernelProfile::Optimized, 1, 1.0)).as_secs_f64();
        let speedup = ppe_only / opt;
        assert!((speedup - 1.32).abs() < 0.05, "speedup {speedup} vs paper 1.32");
    }

    #[test]
    fn llp_speedup_curve_matches_table2_shape() {
        let wl = w();
        let boot = |k: usize| {
            wl.tasks_per_bootstrap as f64
                * (wl.ppe_gap + wl.task_duration(KernelProfile::Optimized, k, 1.0)).as_secs_f64()
        };
        let t1 = boot(1);
        let times: Vec<f64> = (1..=8).map(boot).collect();
        // Peak speedup 1.5–1.65× somewhere in 4..=5 (paper: 1.58 at 5).
        let best = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let best_k = times.iter().position(|&t| t == best).unwrap() + 1;
        let speedup = t1 / best;
        assert!((4..=5).contains(&best_k), "best degree {best_k}, times {times:?}");
        assert!(
            (1.45..=1.70).contains(&speedup),
            "peak LLP speedup {speedup} out of Table-2 range"
        );
        // Monotone improvement up to 4, degradation from 5 to 8.
        assert!(times[0] > times[1] && times[1] > times[2] && times[2] > times[3]);
        assert!(times[7] > best, "8 SPEs must be worse than the peak");
        // 2 SPEs ≈ 20.4–21.5s (paper 20.83), 4 SPEs ≈ 18–18.6 (paper 18.28).
        assert!((times[1] - 20.83).abs() < 1.0, "k=2: {}", times[1]);
        assert!((times[3] - 18.28).abs() < 1.0, "k=4: {}", times[3]);
    }

    #[test]
    fn degree_one_has_no_team_overhead() {
        let wl = w();
        let d1 = wl.task_duration(KernelProfile::Optimized, 1, 1.0);
        assert_eq!(d1, wl.task_mean, "degree 1 must reproduce the 96µs mean");
    }

    #[test]
    fn jitter_is_bounded_and_seeded() {
        let wl = w();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let j = wl.draw_jitter(&mut rng);
            assert!((0.85..=1.15).contains(&j));
        }
        let mut a = SmallRng::seed_from_u64(2);
        let mut b = SmallRng::seed_from_u64(2);
        assert_eq!(wl.draw_jitter(&mut a), wl.draw_jitter(&mut b));
    }

    #[test]
    fn scaling_preserves_durations_and_reports_factor() {
        let wl = w().scaled(100);
        assert_eq!(wl.tasks_per_bootstrap, 2_659);
        assert_eq!(wl.task_mean, w().task_mean);
        let f = wl.scale_factor();
        assert!((f - 265_981.0 / 2_659.0).abs() < 1e-9);
        // Scaled estimate × factor ≈ faithful estimate.
        let scaled_est = wl.bootstrap_estimate_1worker().as_secs_f64() * f;
        assert!((scaled_est - 28.46).abs() < 0.2, "{scaled_est}");
    }

    #[test]
    fn kernel_mix_preserves_the_mean_and_shares() {
        use mgps_runtime::policy::KernelKind;
        let w = RaxmlWorkload::paper_42sc().with_kernel_mix();
        // Mean over the mix equals the uniform mean.
        let mean: f64 = RaxmlWorkload::KERNEL_FREQS
            .iter()
            .map(|&(k, f)| {
                f * w
                    .kernel_task_duration(k, KernelProfile::Optimized, 1, 1.0, true)
                    .as_nanos() as f64
            })
            .sum();
        assert!(
            (mean - w.task_mean.as_nanos() as f64).abs() < 2.0,
            "mix mean {mean} vs {}",
            w.task_mean.as_nanos()
        );
        // Time shares match the renormalized gprof profile.
        let total_share: f64 = KernelKind::ALL.iter().map(|k| k.sequential_share()).sum();
        for &(k, f) in &RaxmlWorkload::KERNEL_FREQS {
            let t = w.kernel_task_duration(k, KernelProfile::Optimized, 1, 1.0, true);
            let share = f * t.as_nanos() as f64 / mean;
            let want = k.sequential_share() / total_share;
            assert!((share - want).abs() < 0.01, "{k}: share {share} vs {want}");
        }
        // Sampling respects the frequencies.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(w.draw_kind(&mut rng)).or_insert(0u32) += 1;
        }
        for &(k, f) in &RaxmlWorkload::KERNEL_FREQS {
            let got = counts[&k] as f64 / 20_000.0;
            assert!((got - f).abs() < 0.02, "{k}: drew {got}, expected {f}");
        }
        // Uniform workloads always draw newview.
        let wu = RaxmlWorkload::paper_42sc();
        assert_eq!(wu.draw_kind(&mut rng), KernelKind::NewView);
    }

    #[test]
    fn profile_factors_ordered() {
        assert!(KernelProfile::Naive.factor() > KernelProfile::PpeOnly.factor());
        assert!(KernelProfile::PpeOnly.factor() > KernelProfile::Optimized.factor());
        assert_eq!(KernelProfile::Custom(1.5).factor(), 1.5);
    }

    #[test]
    fn optimization_ladder_multiplies_to_the_naive_factor() {
        let product: f64 = KernelProfile::LADDER.iter().map(|&(_, f)| f).product();
        let ratio = KernelProfile::Naive.factor() / product;
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "ladder product {product} must recover the 1.86x naive factor (residual {ratio})"
        );
    }
}
