//! Non-flaky guard on the snapshot-layer overhead.
//!
//! DESIGN budgets snapshot drains at < 1 % of run wall time; that figure
//! is a budget, not a measurement. This smoke test only has to catch
//! catastrophic regressions — a lock shared with the record path, a
//! stop-the-world drain, snapshot reads turned into RMWs — so it compares
//! best-of-N wall times with and without a scraper draining every
//! millisecond and allows a generous 1.5x before failing. Best-of
//! minimizes scheduler noise: a loaded CI machine inflates the worst
//! runs, not the best ones. A timed run is 256 off-loads of about 50 µs,
//! so it spans at least 10 drains and no attempt can dodge a drain that
//! stalls the record path. It times wall clock, so it is a test binary
//! of its own: no other test competes with it for the host's CPUs.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::{interleaved_best, offload_wall};
use mgps_runtime::native::RuntimeConfig;
use mgps_runtime::policy::SchedulerKind;
use mgps_runtime::{AtomicMetrics, NopMetrics, SnapshotSource};

/// Wall time of `offloads` sequential EDTLP off-loads. `scraped` records
/// into a shared [`AtomicMetrics`] while a scraper thread drains epoch
/// snapshots of it ([`SnapshotSource::delta`]); the baseline records into
/// [`NopMetrics`] with no scraper. Drains are plain atomic loads, so a
/// scraper at any sane cadence must not perturb the SPE-side hot path.
fn snapshot_scrape_wall(scraped: bool, offloads: usize, work: Duration) -> Duration {
    let cfg = RuntimeConfig::cell(SchedulerKind::Edtlp);
    if !scraped {
        return offload_wall(cfg, Arc::new(NopMetrics), None, None, offloads, work);
    }
    let atomic = Arc::new(AtomicMetrics::new());
    let scraper = SnapshotSource::new(Arc::clone(&atomic));
    offload_wall(cfg, atomic, None, Some(scraper), offloads, work)
}

#[test]
fn concurrent_snapshot_drains_stay_within_the_overhead_budget() {
    const OFFLOADS: usize = 256;
    const WORK: Duration = Duration::from_micros(50);
    const ATTEMPTS: usize = 5;

    // Warm up both paths (thread spawns, lazy allocations).
    snapshot_scrape_wall(false, 8, WORK);
    snapshot_scrape_wall(true, 8, WORK);

    let (nop, scraped) = interleaved_best(ATTEMPTS, |on| snapshot_scrape_wall(on, OFFLOADS, WORK));

    let ratio = scraped.as_secs_f64() / nop.as_secs_f64();
    assert!(
        ratio < 1.5,
        "snapshot drains every 1 ms cost {ratio:.2}x the unscraped run \
         (nop {nop:?}, scraped {scraped:?}); drains must stay plain atomic \
         loads off the hot path"
    );
}
