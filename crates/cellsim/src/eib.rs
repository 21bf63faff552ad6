//! The Element Interconnect Bus: aggregate-bandwidth contention model.
//!
//! The EIB is a 4-ring coherent bus moving 96 bytes/cycle (204.8 GB/s
//! aggregate at 3.2 GHz) and sustaining over 100 outstanding requests (§4).
//! We model contention macroscopically: a transfer's latency is its
//! uncontended latency inflated by the ratio of demanded to available
//! bandwidth when many requesters are in flight. With RAxML's small
//! transfers the bus never saturates — which is itself a result the model
//! should (and does) show — but the mechanism matters for the LLP worker
//! fetch storms, where `k` workers DMA from one local store at once.

use des::time::SimDuration;

use crate::params::{EIB_BANDWIDTH, EIB_MAX_OUTSTANDING, SPE_DMA_BANDWIDTH};

/// Bus occupancy tracker. Pure state; the machine model calls
/// [`Eib::begin_transfer`] / [`Eib::end_transfer`] from its events.
#[derive(Debug, Clone, Default)]
pub struct Eib {
    outstanding: usize,
    peak_outstanding: usize,
    total_bytes: u64,
    total_transfers: u64,
    rejected: u64,
}

impl Eib {
    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Peak concurrent requests observed.
    pub fn peak_outstanding(&self) -> usize {
        self.peak_outstanding
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total transfers completed or started.
    pub fn total_transfers(&self) -> u64 {
        self.total_transfers
    }

    /// Requests refused because the outstanding cap was hit (the MFC would
    /// stall and retry; the machine model treats this as back-pressure).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Try to begin a transfer of `bytes` with uncontended latency `base`.
    /// Returns the contention-adjusted latency, or `None` when the bus is
    /// at its outstanding-request cap (caller must retry later).
    pub fn begin_transfer(&mut self, bytes: usize, base: SimDuration) -> Option<SimDuration> {
        if self.outstanding >= EIB_MAX_OUTSTANDING {
            self.rejected += 1;
            return None;
        }
        self.outstanding += 1;
        self.peak_outstanding = self.peak_outstanding.max(self.outstanding);
        self.total_bytes += bytes as u64;
        self.total_transfers += 1;
        Some(self.contended(base))
    }

    /// Mark one transfer finished.
    ///
    /// # Panics
    /// Panics if nothing is in flight (a model bug).
    pub fn end_transfer(&mut self) {
        assert!(self.outstanding > 0, "EIB end_transfer with nothing in flight");
        self.outstanding -= 1;
    }

    /// The contention factor applied to a transfer starting now: demanded
    /// bandwidth is `outstanding` requesters at full per-SPE rate; when
    /// that exceeds the aggregate EIB rate, everyone slows proportionally.
    pub fn contention_factor(&self) -> f64 {
        let demanded = self.outstanding as f64 * SPE_DMA_BANDWIDTH;
        (demanded / EIB_BANDWIDTH).max(1.0)
    }

    fn contended(&self, base: SimDuration) -> SimDuration {
        // An uncontended transfer keeps `base` exactly, as multiplying by
        // 1.0 would, without the float round trip.
        let factor = self.contention_factor();
        if factor == 1.0 {
            base
        } else {
            base.mul_f64(factor)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eib() -> Eib {
        Eib::default()
    }

    #[test]
    fn uncontended_transfers_keep_base_latency() {
        let mut e = eib();
        let lat = e.begin_transfer(1024, SimDuration::from_nanos(340)).unwrap();
        assert_eq!(lat, SimDuration::from_nanos(340));
        assert_eq!(e.outstanding(), 1);
        e.end_transfer();
        assert_eq!(e.outstanding(), 0);
        assert_eq!(e.total_bytes(), 1024);
        assert_eq!(e.total_transfers(), 1);
    }

    #[test]
    fn contention_kicks_in_past_aggregate_bandwidth() {
        // 204.8 / 25.6 = 8 concurrent full-rate requesters saturate the bus.
        let mut e = eib();
        for _ in 0..8 {
            e.begin_transfer(16, SimDuration::from_nanos(100)).unwrap();
        }
        assert!((e.contention_factor() - 1.0).abs() < 1e-12, "8 requesters just saturate");
        e.begin_transfer(16, SimDuration::from_nanos(100)).unwrap();
        assert!(e.contention_factor() > 1.0, "9th requester oversubscribes");
        let lat = e.begin_transfer(16, SimDuration::from_nanos(100)).unwrap();
        assert!(lat > SimDuration::from_nanos(100));
    }

    #[test]
    fn outstanding_cap_back_pressures() {
        let mut e = eib();
        for _ in 0..128 {
            assert!(e.begin_transfer(16, SimDuration::from_nanos(10)).is_some());
        }
        assert!(e.begin_transfer(16, SimDuration::from_nanos(10)).is_none());
        assert_eq!(e.rejected(), 1);
        e.end_transfer();
        assert!(e.begin_transfer(16, SimDuration::from_nanos(10)).is_some());
        assert_eq!(e.peak_outstanding(), 128);
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn spurious_end_transfer_panics() {
        let mut e = eib();
        e.end_transfer();
    }
}
