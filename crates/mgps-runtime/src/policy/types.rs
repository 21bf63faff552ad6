//! Identifiers and shared vocabulary for scheduling policies.
//!
//! Policies are *pure*: they never read clocks or touch threads. Engines
//! (the Cell simulator or the native host-thread runtime) feed them
//! timestamps in nanoseconds and act on the returned decisions, so the same
//! policy code drives both execution substrates.

use std::fmt;

/// Identifies a Synergistic Processing Element (or, natively, a virtual-SPE
/// worker thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpeId(pub usize);

/// Identifies a worker process (an "MPI process" in the paper's terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// Identifies one off-loaded task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl fmt::Display for SpeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPE{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

crate::events::slug_enum! {
    /// The three dominant RAxML kernels the paper off-loads (§5.1). The engine
    /// maps these to cost profiles (simulation) or real likelihood code
    /// (native execution).
    ///
    /// Natively a request is a traversal, named for the kernel it ends in:
    /// `Evaluate` is "orient the tree, then evaluate", `MakeNewz` is "orient,
    /// then Newton steps until the edge's length converges" — what those two
    /// functions are in RAxML, whose `newview` calls nest inside them and
    /// never cross the PPE↔SPE boundary on their own. Only the simulator's
    /// workloads request a bare `NewView`.
    ///
    /// Declared in the order the kernels dominate a bootstrap, which
    /// `ALL` follows.
    pub enum KernelKind {
        /// `newview()`: post-order conditional likelihood update (76.8 % of
        /// sequential runtime).
        NewView = "newview",
        /// `makenewz()`: Newton–Raphson branch-length optimization (19.6 %).
        MakeNewz = "makenewz",
        /// `evaluate()`: log-likelihood at an edge (2.37 %).
        Evaluate = "evaluate",
    }
}

impl KernelKind {
    /// The paper's measured share of sequential execution time (gprof on
    /// Power, §5.1). These do not sum to 1.0; the remainder is
    /// non-offloadable PPE work.
    pub fn sequential_share(self) -> f64 {
        match self {
            KernelKind::NewView => 0.768,
            KernelKind::Evaluate => 0.0237,
            KernelKind::MakeNewz => 0.196,
        }
    }
}

/// How many SPEs a parallel loop should use. `1` means loop-level
/// parallelism is off (pure EDTLP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopDegree(pub usize);

impl LoopDegree {
    /// LLP disabled: the task runs whole on one SPE.
    pub const SEQUENTIAL: LoopDegree = LoopDegree(1);

    /// Whether loop-level parallelism is active.
    pub fn is_parallel(self) -> bool {
        self.0 > 1
    }
}

/// A scheduling decision for an off-load request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadDecision {
    /// Run on SPE(s), work-shared across `degree` of them.
    Offload {
        /// Number of SPEs the task's parallel loops may use.
        degree: LoopDegree,
    },
    /// Run the PPE fallback version (granularity test failed).
    RunOnPpe,
    /// All SPEs busy: the request must queue.
    Wait,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_shares_cover_most_of_runtime() {
        let total: f64 = KernelKind::ALL.iter().map(|k| k.sequential_share()).sum();
        // The paper reports 98.77% combined coverage.
        assert!((total - 0.9877).abs() < 1e-9, "got {total}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(SpeId(3).to_string(), "SPE3");
        assert_eq!(ProcId(1).to_string(), "P1");
        assert_eq!(TaskId(9).to_string(), "T9");
        assert_eq!(KernelKind::NewView.to_string(), "newview");
    }

    #[test]
    fn loop_degree_parallel_predicate() {
        assert!(!LoopDegree::SEQUENTIAL.is_parallel());
        assert!(!LoopDegree(0).is_parallel());
        assert!(LoopDegree(2).is_parallel());
    }
}
