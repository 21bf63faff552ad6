//! Adaptive master/worker load unbalancing (§5.3).
//!
//! Workers in a work-sharing team start late: they must complete several DMA
//! requests (fetching loop arguments from the master's local store or shared
//! memory) before their first iteration, while the master starts right after
//! sending the start signals. For the fine-grained loops of RAxML the
//! resulting imbalance is noticeable, so the master should execute a
//! *slightly larger* portion of the loop.
//!
//! The paper obtains the extra portion automatically "by timing idle
//! periods in the SPEs across multiple invocations of the same loop".
//! [`LoadBalancer`] reproduces that: after each invocation of a loop site it
//! observes how long the master idled waiting for workers (or vice versa)
//! and nudges the master bias so the two finish together.
//!
//! # Whether to wake the team at all
//!
//! Waking workers pays only when what they take off the master outweighs
//! what waking them costs — §5.2's off-load test one level down. The
//! balancer keeps the site's verdict ([`LoadBalancer::wake`]) by the
//! minimum-against-minimum rule of
//! [`super::granularity::GranularityController`]: wake while the cheapest
//! invocation that woke its team beat the cheapest the master ran — or
//! would have run — alone. The master's own time is measured for free: an
//! invocation that woke the team reports the master's chunk-0 time, which
//! scales to the whole loop, and one that did not reports its wall time.
//! So running alone is never re-measured by running alone, and a site
//! whose team pays never runs without it; a site whose master is favoured
//! wakes the team once per [`TEAM_PROBE_PERIOD`] invocations to re-measure
//! it.

use super::granularity::{Minimum, TEAM_PROBE_PERIOD};

/// Per-loop-site adaptive bias tuner and wake verdict.
///
/// Ask [`Self::wake`] before an invocation; feed it one [`LoopCost`] per
/// invocation and, when the team was woken, one [`LoopObservation`]; read
/// the bias to pass to [`super::chunk::partition`].
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    bias: f64,
    gain: f64,
    max_bias: f64,
    invocations: u64,
    /// Verdicts asked for.
    requests: u64,
    /// Wall time of invocations that woke the team, every round.
    team: Minimum,
    /// Wall time of the master running every chunk alone: measured, or
    /// scaled from its chunk 0 in an invocation that woke the team.
    solo: Minimum,
}

/// What one invocation of a loop site cost, as the wake verdict reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopCost {
    /// The team was woken. `loop_ns` is the whole invocation, every round;
    /// the master spent `chunk0_ns` of it, summed over the rounds, in chunk
    /// 0, which holds `chunk0_iters` of the loop's `total_iters`
    /// iterations.
    Team {
        /// Wall time of the invocation, ns.
        loop_ns: u64,
        /// The master's time in chunk 0, every round, ns.
        chunk0_ns: u64,
        /// Iterations in chunk 0.
        chunk0_iters: usize,
        /// Iterations in the loop.
        total_iters: usize,
    },
    /// Nobody was woken: the master ran every chunk of every round.
    Solo {
        /// Wall time of the invocation, ns.
        loop_ns: u64,
    },
}

/// Timing observation for one invocation of a work-shared loop that woke
/// its team.
#[derive(Debug, Clone, Copy)]
pub struct LoopObservation {
    /// Time the master spent idle waiting for the slowest worker, ns
    /// (zero if the master finished last).
    pub master_idle_ns: u64,
    /// Mean time workers spent idle after finishing their chunks while the
    /// master was still computing, ns (zero if workers finished last).
    pub mean_worker_idle_ns: u64,
    /// Wall time of the round the idle times were taken in, ns.
    pub loop_ns: u64,
}

impl Default for LoadBalancer {
    fn default() -> Self {
        LoadBalancer::new(0.5, 1.0)
    }
}

impl LoadBalancer {
    /// A balancer with proportional `gain` and a cap on the master bias.
    ///
    /// # Panics
    /// Panics on non-finite or non-positive parameters.
    pub fn new(gain: f64, max_bias: f64) -> LoadBalancer {
        assert!(gain.is_finite() && gain > 0.0, "gain must be positive");
        assert!(max_bias.is_finite() && max_bias > 0.0, "max_bias must be positive");
        LoadBalancer {
            bias: 0.0,
            gain,
            max_bias,
            invocations: 0,
            requests: 0,
            team: Minimum::default(),
            solo: Minimum::default(),
        }
    }

    /// Whether the next invocation wakes its team: optimistically until
    /// each cost's minimum is settled, then while the team's cheapest
    /// invocation beats the master's cheapest alone — and, while it does
    /// not, once per [`TEAM_PROBE_PERIOD`] invocations, to re-measure the
    /// team.
    pub fn wake(&mut self) -> bool {
        self.requests += 1;
        match (self.team.settled(), self.solo.settled()) {
            (Some(team), Some(solo)) => {
                team < solo || self.requests.is_multiple_of(TEAM_PROBE_PERIOD)
            }
            _ => true,
        }
    }

    /// Record what one invocation cost. One that woke its team measures
    /// both sides: its own wall time, and the master's chunk 0 scaled to
    /// the whole loop for the master alone.
    pub fn record(&mut self, cost: LoopCost) {
        match cost {
            LoopCost::Team { loop_ns, chunk0_ns, chunk0_iters, total_iters } => {
                self.team.add(loop_ns);
                if chunk0_iters > 0 {
                    let alone = u128::from(chunk0_ns) * total_iters as u128 / chunk0_iters as u128;
                    self.solo.add(u64::try_from(alone).unwrap_or(u64::MAX));
                }
            }
            LoopCost::Solo { loop_ns } => self.solo.add(loop_ns),
        }
    }

    /// Current master bias (`0.0` = even split).
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of observations incorporated.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Incorporate one invocation's timings and update the bias.
    ///
    /// If the master idled (workers were the critical path), the master's
    /// chunk grows; if workers idled, it shrinks. The step is proportional
    /// to the idle fraction of the loop, so the bias converges instead of
    /// oscillating.
    pub fn observe(&mut self, obs: LoopObservation) {
        self.invocations += 1;
        if obs.loop_ns == 0 {
            return;
        }
        let master_frac = obs.master_idle_ns as f64 / obs.loop_ns as f64;
        let worker_frac = obs.mean_worker_idle_ns as f64 / obs.loop_ns as f64;
        // Positive error: master finished early => enlarge master chunk.
        let error = master_frac - worker_frac;
        self.bias = (self.bias + self.gain * error).clamp(0.0, self.max_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::chunk::partition;
    use crate::policy::granularity::MIN_SPE_SAMPLES;

    #[test]
    fn bias_starts_even() {
        let b = LoadBalancer::default();
        assert_eq!(b.bias(), 0.0);
        assert_eq!(b.invocations(), 0);
    }

    #[test]
    fn master_idle_grows_bias() {
        let mut b = LoadBalancer::new(0.5, 1.0);
        b.observe(LoopObservation { master_idle_ns: 20, mean_worker_idle_ns: 0, loop_ns: 100 });
        assert!(b.bias() > 0.0);
    }

    #[test]
    fn worker_idle_shrinks_bias() {
        let mut b = LoadBalancer::new(0.5, 1.0);
        b.observe(LoopObservation { master_idle_ns: 40, mean_worker_idle_ns: 0, loop_ns: 100 });
        let high = b.bias();
        b.observe(LoopObservation { master_idle_ns: 0, mean_worker_idle_ns: 30, loop_ns: 100 });
        assert!(b.bias() < high);
    }

    #[test]
    fn bias_never_goes_negative_or_above_cap() {
        let mut b = LoadBalancer::new(10.0, 0.8);
        b.observe(LoopObservation { master_idle_ns: 0, mean_worker_idle_ns: 90, loop_ns: 100 });
        assert_eq!(b.bias(), 0.0);
        for _ in 0..10 {
            b.observe(LoopObservation { master_idle_ns: 90, mean_worker_idle_ns: 0, loop_ns: 100 });
        }
        assert_eq!(b.bias(), 0.8);
    }

    #[test]
    fn zero_length_loop_is_ignored() {
        let mut b = LoadBalancer::new(0.5, 1.0);
        b.observe(LoopObservation { master_idle_ns: 50, mean_worker_idle_ns: 0, loop_ns: 0 });
        assert_eq!(b.bias(), 0.0);
        assert_eq!(b.invocations(), 1);
    }

    /// End-to-end convergence check against a synthetic team where workers
    /// pay a fixed startup latency before iterating: the balancer should
    /// find a bias that nearly equalizes finish times.
    #[test]
    fn converges_on_synthetic_startup_latency() {
        const N: usize = 228; // iterations (42_SC alignment)
        const K: usize = 4; // team size
        const ITER_NS: u64 = 100; // per-iteration cost
        const STARTUP_NS: u64 = 1_500; // worker DMA startup

        let mut b = LoadBalancer::new(0.8, 2.0);
        let mut last_gap = u64::MAX;
        for _ in 0..60 {
            let chunks = partition(N, K, b.bias());
            let master_finish = chunks[0].len() as u64 * ITER_NS;
            let worker_finish: Vec<u64> =
                chunks[1..].iter().map(|c| STARTUP_NS + c.len() as u64 * ITER_NS).collect();
            let slowest = worker_finish.iter().copied().max().unwrap().max(master_finish);
            let master_idle = slowest - master_finish;
            let worker_idle: u64 = worker_finish.iter().map(|&w| slowest - w).sum::<u64>()
                / worker_finish.len() as u64;
            last_gap = master_idle.max(worker_idle);
            b.observe(LoopObservation {
                master_idle_ns: master_idle,
                mean_worker_idle_ns: worker_idle,
                loop_ns: slowest,
            });
        }
        // With startup 1500ns and 100ns/iter the master should absorb ~15
        // extra iterations; the residual idle gap must be small.
        assert!(b.bias() > 0.1, "bias {} should have grown", b.bias());
        assert!(last_gap < 800, "residual idle gap {last_gap}ns too large");
    }

    /// A woken four-way invocation of a 228-iteration loop whose master
    /// chunk is an even 57 iterations.
    fn team(loop_ns: u64, chunk0_ns: u64) -> LoopCost {
        LoopCost::Team { loop_ns, chunk0_ns, chunk0_iters: 57, total_iters: 228 }
    }

    /// Wake verdicts for `n` invocations, feeding each one's cost back.
    fn verdicts(b: &mut LoadBalancer, n: usize, cost: impl Fn(bool) -> LoopCost) -> Vec<bool> {
        (0..n)
            .map(|_| {
                let wake = b.wake();
                b.record(cost(wake));
                wake
            })
            .collect()
    }

    #[test]
    fn the_team_is_woken_until_both_costs_are_measured() {
        let mut b = LoadBalancer::default();
        // Samples that favour the master by far, but only once there are
        // enough of them: the first invocations wake the team regardless.
        let woke = verdicts(&mut b, MIN_SPE_SAMPLES as usize, |_| team(60_000, 1_000));
        assert!(woke.iter().all(|&w| w));
        assert!(!b.wake(), "4 µs alone against 60 µs woken");
        // A solo sample alone settles nothing on a fresh site.
        let mut b = LoadBalancer::default();
        for _ in 0..10 {
            b.record(LoopCost::Solo { loop_ns: 1 });
        }
        assert!(b.wake(), "no team sample yet");
    }

    #[test]
    fn the_masters_chunk_scales_to_the_whole_loop() {
        // 57 of 228 iterations in 10 µs: alone, the master needs 40 µs. A
        // woken team at 41 µs loses to it, at 39 µs beats it.
        for (loop_ns, wake) in [(41_000, false), (39_000, true)] {
            let mut b = LoadBalancer::default();
            verdicts(&mut b, MIN_SPE_SAMPLES as usize, |_| team(loop_ns, 10_000));
            assert_eq!(b.wake(), wake, "team at {loop_ns} ns against 40 µs alone");
        }
        // A biased tiling scales by its own share; an empty chunk 0 says
        // nothing about the master alone.
        let mut b = LoadBalancer::default();
        let share = |loop_ns, chunk0_ns, chunk0_iters| LoopCost::Team {
            loop_ns,
            chunk0_ns,
            chunk0_iters,
            total_iters: 5,
        };
        for _ in 0..MIN_SPE_SAMPLES {
            b.record(share(50_000, 30_000, 3));
            b.record(share(1, 1, 0));
        }
        assert_eq!((b.team.ns, b.solo.ns, b.solo.samples), (1, 50_000, MIN_SPE_SAMPLES));
    }

    #[test]
    fn a_favoured_master_wakes_the_team_once_a_period() {
        let mut b = LoadBalancer::default();
        let woke = verdicts(&mut b, 4 * TEAM_PROBE_PERIOD as usize, |wake| match wake {
            true => team(60_000, 1_000),
            false => LoopCost::Solo { loop_ns: 5_000 },
        });
        // Invocation numbers, from 1, of the wakes after the optimistic ones.
        let probes: Vec<usize> = (1..=woke.len())
            .filter(|&i| woke[i - 1] && i > MIN_SPE_SAMPLES as usize)
            .collect();
        let period = TEAM_PROBE_PERIOD as usize;
        assert_eq!(probes, [period, 2 * period, 3 * period, 4 * period]);
        // A probe that finds the team faster than the master alone flips
        // the verdict at once.
        b.record(team(3_000, 1_000));
        assert!(b.wake());
    }

    #[test]
    fn a_site_whose_team_pays_never_runs_without_it() {
        // The master alone is never re-measured by running alone: every
        // woken invocation brings its sample along.
        let mut b = LoadBalancer::default();
        let woke = verdicts(&mut b, 10 * TEAM_PROBE_PERIOD as usize, |_| team(20_000, 15_000));
        assert!(woke.iter().all(|&w| w));
        assert_eq!(b.solo.samples, 10 * TEAM_PROBE_PERIOD);
        // And one preempted team sample cannot send it solo.
        b.record(team(9_000_000, 15_000));
        assert!(b.wake());
    }
}
