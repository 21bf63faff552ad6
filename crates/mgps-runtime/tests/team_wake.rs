//! A loop site whose team pays keeps waking it.
//!
//! The wake verdict compares wall-clock minima, so this test has a binary
//! of its own: no other test of the suite competes with it for the host's
//! CPUs while it measures.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgps_runtime::events::EventKind;
use mgps_runtime::native::{LoopBody, LoopSite, MgpsRuntime, RuntimeConfig, SpeContext};
use mgps_runtime::policy::SchedulerKind;
use mgps_runtime::{NopMetrics, Tracer};

/// A loop whose every iteration spins for `spin`. The spin yields the host
/// CPU, so a team's chunks overlap in wall time however few CPUs the host
/// has, as SPEs computing side by side would.
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
            let end = Instant::now() + self.spin;
            while Instant::now() < end {
                std::thread::yield_now();
            }
            s += i as f64;
        }
        s
    }
    fn merge(&self, a: f64, b: f64) -> f64 {
        a + b
    }
}

#[test]
fn a_loop_whose_chunks_outweigh_a_wake_keeps_its_team() {
    // Eight 20 µs chunks: the woken team finishes in about one chunk and a
    // wake-up, the master alone in eight chunks. Once both costs are
    // measured the site still wakes its team, every time.
    const INVOCATIONS: usize = 64;
    let tracer = Tracer::with_default_capacity();
    let rt = MgpsRuntime::with_observability(
        RuntimeConfig::cell(SchedulerKind::StaticHybrid { spes_per_loop: 8 }),
        Arc::new(NopMetrics),
        Some(Arc::clone(&tracer)),
    );
    {
        let mut ctx = rt.enter_process();
        for _ in 0..INVOCATIONS {
            let body = Arc::new(SpinSum { n: 8, spin: Duration::from_micros(20) });
            assert_eq!(ctx.offload_loop(LoopSite(1), body), Ok(28.0));
        }
    }
    let log = tracer.drain();
    let teams: Vec<usize> = (log.threads.iter().flat_map(|t| &t.events))
        .filter_map(|e| match &e.kind {
            EventKind::TaskStart { team, .. } => Some(team.len()),
            _ => None,
        })
        .collect();
    assert_eq!(teams, [8; INVOCATIONS], "the team of every invocation");
}
