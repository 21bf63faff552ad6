//! Machine parameters of the Cell Broadband Engine, as reported in the
//! paper (§4, §5.2) and in Kistler et al.'s interconnect study.
//!
//! The paper models one machine, so each of its figures is a constant
//! here; only the blade's shape ([`CellParams`]) varies between runs.
//!
//! | constant | value | source |
//! |---|---|---|
//! | [`PPE_CONTEXTS_PER_CELL`] | 2 | §4: one two-way SMT PPE per Cell |
//! | [`CTX_SWITCH`] | 1.5 µs | §5.2, measured voluntary switch |
//! | [`LINUX_QUANTUM`] | 10 ms | §5.2, "a multiple of 10 ms" |
//! | [`LOCAL_STORE_BYTES`] | 256 KB | §4 |
//! | [`SMT_SLOWDOWN`] | 1.9× | fitted to Table 1 EDTLP at 2–3 workers |
//! | [`CODE_LOAD_COST`] | 20 µs | a 117 KB module (§5.1) at local-store bandwidth; §5.4 "not noticeable" |
//! | [`DMA_MAX_TRANSFER_BYTES`] | 16 KB | §4 |
//! | [`DMA_MAX_LIST_LEN`] | 2 048 | §4 |
//! | [`DMA_ALIGNMENT`] | 16 B | §4, 128-bit alignment |
//! | [`DMA_STARTUP`] | 300 ns | Kistler et al.: a few hundred ns |
//! | [`SPE_DMA_BANDWIDTH`] | 25.6 GB/s | Kistler et al., per SPE |
//! | [`EIB_BANDWIDTH`] | 204.8 GB/s | §4, 96 B/cycle at 3.2 GHz |
//! | [`EIB_MAX_OUTSTANDING`] | 128 | §4, "more than 100" requests |
//! | [`SWITCH_POLLUTION`] | 6 µs | fitted to Table 1 EDTLP growth |
//! | [`POLL_PER_PROC`] | 1.9 µs | fitted to Table 1 EDTLP at 8 workers |

use des::time::SimDuration;

/// SMT hardware contexts per PPE.
pub const PPE_CONTEXTS_PER_CELL: usize = 2;

/// Voluntary PPE context-switch cost (measured 1.5 µs, §5.2).
pub const CTX_SWITCH: SimDuration = SimDuration::from_nanos(1_500);

/// Linux scheduler quantum ("a multiple of 10 ms", §5.2).
pub const LINUX_QUANTUM: SimDuration = SimDuration::from_millis(10);

/// SPE local-store capacity in bytes. A native RunLog header records the
/// same figure, so that it reads like a simulated one.
pub const LOCAL_STORE_BYTES: usize = 256 * 1024;

/// Throughput penalty when both SMT contexts of a PPE execute
/// simultaneously: each thread runs this factor slower than alone.
/// (The PPE is one dual-issue core; SMT yields ~25–35 % aggregate
/// speedup, i.e. each thread at ~1.5–1.6× its solo latency.)
pub const SMT_SLOWDOWN: f64 = 1.9;

/// Cost of (re)loading a code image into an SPE's local store: the
/// 117 KB RAxML module (§5.1) by DMA plus program (re)start. §5.4 reports
/// it "not noticeable"; ~20 µs of DMA at local-store bandwidth.
pub const CODE_LOAD_COST: SimDuration = SimDuration::from_micros(20);

/// Maximum bytes in one DMA transfer (16 KB, §4).
pub const DMA_MAX_TRANSFER_BYTES: usize = 16 * 1024;

/// Maximum elements in a DMA list (2,048, §4).
pub const DMA_MAX_LIST_LEN: usize = 2048;

/// Required DMA address/size alignment (128-bit = 16 bytes, §4).
pub const DMA_ALIGNMENT: usize = 16;

/// Per-request DMA startup latency (local store ↔ main memory, from the
/// Kistler et al. microbenchmarks: a few hundred ns).
pub const DMA_STARTUP: SimDuration = SimDuration::from_nanos(300);

/// Sustained per-SPE DMA bandwidth, bytes per second.
pub const SPE_DMA_BANDWIDTH: f64 = 25.6e9;

/// Aggregate EIB bandwidth, bytes per second (204.8 GB/s, §4).
pub const EIB_BANDWIDTH: f64 = 204.8e9;

/// Maximum outstanding EIB requests ("more than 100", §4).
pub const EIB_MAX_OUTSTANDING: usize = 128;

/// Cache/TLB pollution cost added to the first PPE work section after a
/// context switch across address spaces (§5.2 names this explicitly). A
/// property of the user-level runtime, not the hardware; fitted.
pub const SWITCH_POLLUTION: SimDuration = SimDuration::from_micros(6);

/// Per-resident-process polling cost the user-level scheduler pays on
/// every off-load (scanning MPI process queues). Fitted, like
/// [`SWITCH_POLLUTION`].
pub const POLL_PER_PROC: SimDuration = SimDuration::from_nanos(1_900);

/// The shape of one Cell blade: the only machine figures a run may vary.
#[derive(Debug, Clone, Copy)]
pub struct CellParams {
    /// Cell processors on the blade (1 or 2 in the paper).
    pub n_cells: usize,
    /// SPEs per Cell.
    pub spes_per_cell: usize,
}

impl CellParams {
    /// A blade with `n_cells` Cell processors at the paper's settings.
    pub fn blade(n_cells: usize) -> CellParams {
        assert!(n_cells >= 1, "a blade has at least one Cell");
        CellParams { n_cells, spes_per_cell: 8 }
    }

    /// The single-Cell configuration used in §5.2–5.4.
    pub fn single() -> CellParams {
        CellParams::blade(1)
    }

    /// Total SPEs on the blade.
    pub fn n_spes(&self) -> usize {
        self.n_cells * self.spes_per_cell
    }

    /// Total PPE hardware contexts on the blade.
    pub fn ppe_contexts(&self) -> usize {
        self.n_cells * PPE_CONTEXTS_PER_CELL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let p = CellParams::single();
        assert_eq!(p.n_spes(), 8);
        assert_eq!(p.ppe_contexts(), 2);
        assert_eq!(CTX_SWITCH, SimDuration::from_micros(1).mul_f64(1.5));
        assert_eq!(LINUX_QUANTUM, SimDuration::from_millis(10));
        assert_eq!(LOCAL_STORE_BYTES, 262_144);
        assert_eq!(DMA_MAX_TRANSFER_BYTES, 16_384);
        assert_eq!(DMA_MAX_LIST_LEN, 2048);
    }

    #[test]
    fn dual_cell_blade_doubles_resources() {
        let p = CellParams::blade(2);
        assert_eq!(p.n_spes(), 16);
        assert_eq!(p.ppe_contexts(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one Cell")]
    fn zero_cells_rejected() {
        let _ = CellParams::blade(0);
    }
}
