//! Machine parameters of the Cell Broadband Engine, as reported in the
//! paper (§4, §5.2) and in Kistler et al.'s interconnect study.

use des::time::SimDuration;

/// Parameters of one Cell blade configuration.
#[derive(Debug, Clone, Copy)]
pub struct CellParams {
    /// Cell processors on the blade (1 or 2 in the paper).
    pub n_cells: usize,
    /// SPEs per Cell.
    pub spes_per_cell: usize,
    /// SMT hardware contexts per PPE.
    pub ppe_contexts_per_cell: usize,
    /// Core clock (3.2 GHz).
    pub clock_ghz: f64,
    /// Voluntary PPE context-switch cost (measured 1.5 µs, §5.2).
    pub ctx_switch: SimDuration,
    /// Linux scheduler quantum ("a multiple of 10 ms", §5.2).
    pub linux_quantum: SimDuration,
    /// SPE local-store capacity in bytes.
    pub local_store_bytes: usize,
    /// Size of the off-loaded RAxML code module (117 KB, §5.1).
    pub code_module_bytes: usize,
    /// Throughput penalty when both SMT contexts of a PPE execute
    /// simultaneously: each thread runs this factor slower than alone.
    /// (The PPE is one dual-issue core; SMT yields ~25–35 % aggregate
    /// speedup, i.e. each thread at ~1.5–1.6× its solo latency.)
    pub smt_slowdown: f64,
    /// One-way PPE↔SPE mailbox/signal latency.
    pub signal_latency: SimDuration,
    /// Cost of (re)loading a code image into an SPE's local store: a
    /// 117 KB DMA plus program (re)start. §5.4 reports it "not noticeable";
    /// ~20 µs of DMA at local-store bandwidth.
    pub code_load_cost: SimDuration,
    /// DMA and interconnect parameters.
    pub dma: DmaParams,
}

/// DMA engine and EIB parameters (§4).
#[derive(Debug, Clone, Copy)]
pub struct DmaParams {
    /// Maximum bytes in one DMA transfer (16 KB).
    pub max_transfer_bytes: usize,
    /// Maximum elements in a DMA list (2,048).
    pub max_list_len: usize,
    /// Required address/size alignment (128-bit = 16 bytes).
    pub alignment: usize,
    /// Per-request startup latency (local store ↔ main memory, from the
    /// Kistler et al. microbenchmarks: a few hundred ns).
    pub startup: SimDuration,
    /// Sustained per-SPE DMA bandwidth, bytes per second.
    pub spe_bandwidth: f64,
    /// Aggregate EIB bandwidth, bytes per second (204.8 GB/s).
    pub eib_bandwidth: f64,
    /// Maximum outstanding EIB requests ("more than 100").
    pub max_outstanding: usize,
}

impl Default for DmaParams {
    fn default() -> Self {
        DmaParams {
            max_transfer_bytes: 16 * 1024,
            max_list_len: 2048,
            alignment: 16,
            startup: SimDuration::from_nanos(300),
            spe_bandwidth: 25.6e9,
            eib_bandwidth: 204.8e9,
            max_outstanding: 128,
        }
    }
}

impl CellParams {
    /// A blade with `n_cells` Cell processors at the paper's settings.
    pub fn blade(n_cells: usize) -> CellParams {
        assert!(n_cells >= 1, "a blade has at least one Cell");
        CellParams {
            n_cells,
            spes_per_cell: 8,
            ppe_contexts_per_cell: 2,
            clock_ghz: 3.2,
            ctx_switch: SimDuration::from_nanos(1_500),
            linux_quantum: SimDuration::from_millis(10),
            local_store_bytes: 256 * 1024,
            code_module_bytes: 117 * 1024,
            smt_slowdown: 1.9,
            signal_latency: SimDuration::from_nanos(500),
            code_load_cost: SimDuration::from_micros(20),
            dma: DmaParams::default(),
        }
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
        self.n_cells * self.ppe_contexts_per_cell
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
        assert_eq!(p.ctx_switch, SimDuration::from_micros(1).mul_f64(1.5));
        assert_eq!(p.linux_quantum, SimDuration::from_millis(10));
        assert_eq!(p.local_store_bytes, 262_144);
        assert_eq!(p.code_module_bytes, 119_808);
        assert_eq!(p.dma.max_transfer_bytes, 16_384);
        assert_eq!(p.dma.max_list_len, 2048);
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
