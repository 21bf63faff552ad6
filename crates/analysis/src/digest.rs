//! Deterministic-replay digests.
//!
//! The simulator promises bit-determinism: the same [`SimConfig`] seed must
//! produce the same schedule. [`trace_digest`] collapses a [`RunLog`] into
//! one 64-bit FNV-1a hash of its canonical JSON serialization, so two runs
//! can be compared (and archived) without diffing megabytes of events.
//!
//! [`SimConfig`]: cellsim::machine::SimConfig

use cellsim::event::RunLog;
use minijson::Sink;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64 state; the bytes put into it are never stored.
struct Fnv1a(u64);

impl Sink for Fnv1a {
    fn put(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A 64-bit digest of the run's full event log: FNV-1a over the bytes of
/// its canonical JSON form (`log.to_value().to_json()`), hashed as the log
/// streams them — neither the tree nor the text is ever built.
/// Equal seeds and configurations must produce equal digests.
pub fn trace_digest(log: &RunLog) -> u64 {
    log.write_json(Fnv1a(FNV_OFFSET)).0
}

/// [`trace_digest`] rendered as fixed-width hex (for reports and logs).
pub fn digest_hex(log: &RunLog) -> String {
    format!("{:016x}", trace_digest(log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsim::machine::SimConfig;
    use mgps_runtime::policy::SchedulerKind;

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a(FNV_OFFSET);
        h.put(bytes);
        h.0
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn the_streamed_digest_is_the_hash_of_the_tree_rendered_text() {
        let mut sim = SimConfig::cell_42sc(SchedulerKind::Mgps, 2, 2_000);
        sim.record_events = true;
        let log = cellsim::machine::run(sim).run_log.expect("record_events was set");
        assert!(!log.events.is_empty());
        assert_eq!(trace_digest(&log), fnv1a(log.to_value().to_json().as_bytes()));
    }

    #[test]
    fn digest_is_stable_for_equal_logs() {
        let log = RunLog {
            scheduler: cellsim::event::SchedulerTag::Edtlp,
            n_spes: 8,
            quantum_ns: 1,
            seed: 7,
            local_store_bytes: 256 * 1024,
            loop_iters: 228,
            mgps_window: None,
            fault_policy: None,
            tenant_weights: None,
            events: Vec::new(),
        };
        assert_eq!(trace_digest(&log), trace_digest(&log.clone()));
        assert_eq!(digest_hex(&log).len(), 16);
        let mut other = log.clone();
        other.seed = 8;
        assert_ne!(trace_digest(&log), trace_digest(&other));
    }
}
