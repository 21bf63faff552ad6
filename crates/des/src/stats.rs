//! Measurement helpers for models: the busy/idle tracker behind SPE
//! utilization.

use crate::time::{SimDuration, SimTime};

/// Accumulates the total time a binary condition (busy/idle) held, yielding
/// a utilization fraction.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    busy: bool,
    since: SimTime,
    busy_total: SimDuration,
    start: SimTime,
}

impl BusyTracker {
    /// Start tracking at `now`, initially idle.
    pub fn new(now: SimTime) -> BusyTracker {
        BusyTracker { busy: false, since: now, busy_total: SimDuration::ZERO, start: now }
    }

    /// Mark the resource busy at `now`. Idempotent.
    pub fn set_busy(&mut self, now: SimTime) {
        if !self.busy {
            self.busy = true;
            self.since = now;
        }
    }

    /// Mark the resource idle at `now`. Idempotent.
    pub fn set_idle(&mut self, now: SimTime) {
        if self.busy {
            self.busy_total += now.since(self.since);
            self.busy = false;
            self.since = now;
        }
    }

    /// Whether the resource is currently busy.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Total busy time through `now`.
    pub fn busy_time(&self, now: SimTime) -> SimDuration {
        let mut t = self.busy_total;
        if self.busy {
            t += now.since(self.since);
        }
        t
    }

    /// Busy fraction of `[start, now]`, in `[0, 1]`. Zero if no time elapsed.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let total = now.since(self.start).as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.busy_time(now).as_nanos() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_accumulates_intervals() {
        let mut b = BusyTracker::new(SimTime(0));
        b.set_busy(SimTime(10));
        b.set_idle(SimTime(30));
        b.set_busy(SimTime(40));
        // busy [10,30] and [40,50] => 30ns of 50ns
        assert_eq!(b.busy_time(SimTime(50)), SimDuration(30));
        assert!((b.utilization(SimTime(50)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn busy_tracker_is_idempotent() {
        let mut b = BusyTracker::new(SimTime(0));
        b.set_busy(SimTime(10));
        b.set_busy(SimTime(20)); // should not reset the interval start
        b.set_idle(SimTime(30));
        b.set_idle(SimTime(40));
        assert_eq!(b.busy_time(SimTime(40)), SimDuration(20));
    }
}
