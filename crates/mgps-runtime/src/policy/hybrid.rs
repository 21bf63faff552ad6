//! The static EDTLP-LLP hybrid scheme (§5.4, Figure 7) and the top-level
//! scheduler taxonomy used throughout the experiments.
//!
//! The static hybrid partitions the SPEs into fixed teams of
//! `spes_per_loop` members. Each off-loaded task owns one team and
//! work-shares its loops across it, so at most `n_spes / spes_per_loop`
//! tasks run concurrently. The scheme is *not* the paper's final answer —
//! it lacks dynamicity and assumes prior knowledge of the workload — but it
//! brackets MGPS from the static side in Figures 7–9.

/// The four scheduling schemes the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Event-driven task-level parallelism (user-level scheduler, §5.2).
    Edtlp,
    /// The OS baseline: Linux 2.6-style quantum scheduling of the worker
    /// processes, no voluntary switch on off-load.
    LinuxLike,
    /// Static EDTLP-LLP hybrid with a fixed number of SPEs per loop.
    StaticHybrid {
        /// SPEs per parallel loop (2 or 4 in the paper's figures).
        spes_per_loop: usize,
    },
    /// The adaptive multigrain scheduler (§5.4).
    Mgps,
}

impl SchedulerKind {
    /// Human-readable label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            SchedulerKind::Edtlp => "EDTLP".to_string(),
            SchedulerKind::LinuxLike => "Linux".to_string(),
            SchedulerKind::StaticHybrid { spes_per_loop } => {
                format!("EDTLP-LLP with {spes_per_loop} SPEs per parallel loop")
            }
            SchedulerKind::Mgps => "MGPS".to_string(),
        }
    }

    /// Whether this scheme ever runs loops in parallel across SPEs.
    pub fn uses_llp(&self) -> bool {
        matches!(self, SchedulerKind::StaticHybrid { .. } | SchedulerKind::Mgps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(SchedulerKind::Edtlp.label(), "EDTLP");
        assert_eq!(
            SchedulerKind::StaticHybrid { spes_per_loop: 4 }.label(),
            "EDTLP-LLP with 4 SPEs per parallel loop"
        );
        assert_eq!(SchedulerKind::Mgps.label(), "MGPS");
        assert!(SchedulerKind::Mgps.uses_llp());
        assert!(!SchedulerKind::LinuxLike.uses_llp());
    }
}
