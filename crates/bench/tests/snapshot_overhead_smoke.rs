//! Non-flaky guard on the snapshot-layer overhead budget.
//!
//! The precise number lives in the `snapshot_overhead` Criterion bench
//! (DESIGN budget: < 1 % of run wall time). This smoke test only has to
//! catch catastrophic regressions — a lock shared with the record path,
//! a stop-the-world drain, snapshot reads turned into RMWs — so it
//! compares best-of-N wall times with a flat-out scraper and allows a
//! generous 1.5x before failing. Best-of minimizes scheduler noise: a
//! loaded CI machine inflates the worst runs, not the best ones.

use std::time::Duration;

use bench::{interleaved_best, snapshot_scrape_wall};

#[test]
fn concurrent_snapshot_drains_stay_within_the_overhead_budget() {
    const OFFLOADS: usize = 48;
    const WORK: Duration = Duration::from_micros(50);
    const ATTEMPTS: usize = 5;

    // Warm up both paths (thread spawns, lazy allocations).
    snapshot_scrape_wall(false, 8, WORK);
    snapshot_scrape_wall(true, 8, WORK);

    let (nop, scraped) = interleaved_best(ATTEMPTS, |on| snapshot_scrape_wall(on, OFFLOADS, WORK));

    let ratio = scraped.as_secs_f64() / nop.as_secs_f64();
    assert!(
        ratio < 1.5,
        "a flat-out snapshot scraper cost {ratio:.2}x the unscraped run \
         (nop {nop:?}, scraped {scraped:?}); drains must stay plain atomic \
         loads off the hot path"
    );
}
