//! DMA transfer legality and latency (§4).
//!
//! The MFC accepts transfers of 1, 2, 4, 8 bytes or multiples of 16 bytes,
//! up to 16 KB per request; larger moves use DMA lists of up to 2,048
//! elements. Addresses must be 16-byte (128-bit) aligned. Latency is
//! modeled as a fixed startup plus bytes over bandwidth, inflated by EIB
//! contention (see [`crate::eib`]).

use des::time::SimDuration;

use crate::params::{
    DMA_ALIGNMENT, DMA_MAX_LIST_LEN, DMA_MAX_TRANSFER_BYTES, DMA_STARTUP, SPE_DMA_BANDWIDTH,
};

/// Why a DMA request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// Size is not 1, 2, 4, 8, or a multiple of 16 bytes.
    BadSize(usize),
    /// Size exceeds the 16 KB single-transfer cap.
    TooLarge(usize),
    /// Source or destination address misaligned.
    Misaligned(usize),
    /// DMA list longer than 2,048 elements.
    ListTooLong(usize),
    /// Empty transfer or empty list.
    Empty,
}

impl std::fmt::Display for DmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DmaError::BadSize(s) => write!(f, "DMA size {s} is not 1,2,4,8 or a multiple of 16"),
            DmaError::TooLarge(s) => write!(f, "DMA size {s} exceeds the 16 KB transfer cap"),
            DmaError::Misaligned(a) => write!(f, "address {a:#x} violates 128-bit alignment"),
            DmaError::ListTooLong(n) => write!(f, "DMA list of {n} elements exceeds 2048"),
            DmaError::Empty => f.write_str("empty DMA request"),
        }
    }
}

impl std::error::Error for DmaError {}

/// One validated DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRequest {
    /// Bytes moved.
    pub bytes: usize,
}

impl DmaRequest {
    /// Validate a single transfer of `bytes` between the given addresses.
    ///
    /// # Errors
    /// Any violation of the MFC's size/alignment rules.
    pub fn new(bytes: usize, local_addr: usize, main_addr: usize) -> Result<DmaRequest, DmaError> {
        if bytes == 0 {
            return Err(DmaError::Empty);
        }
        if bytes > DMA_MAX_TRANSFER_BYTES {
            return Err(DmaError::TooLarge(bytes));
        }
        let size_ok = matches!(bytes, 1 | 2 | 4 | 8) || bytes.is_multiple_of(16);
        if !size_ok {
            return Err(DmaError::BadSize(bytes));
        }
        if !local_addr.is_multiple_of(DMA_ALIGNMENT) {
            return Err(DmaError::Misaligned(local_addr));
        }
        if !main_addr.is_multiple_of(DMA_ALIGNMENT) {
            return Err(DmaError::Misaligned(main_addr));
        }
        Ok(DmaRequest { bytes })
    }

    /// Uncontended transfer latency.
    pub fn base_latency(&self) -> SimDuration {
        let xfer = self.bytes as f64 / SPE_DMA_BANDWIDTH;
        DMA_STARTUP + SimDuration::from_secs_f64(xfer)
    }
}

/// A DMA list: how the runtime moves more than 16 KB in one logical
/// operation (§4: up to 2,048 elements of up to 16 KB each).
#[derive(Debug, Clone)]
pub struct DmaList {
    elements: Vec<DmaRequest>,
}

impl DmaList {
    /// Split a transfer of `total_bytes` into maximal 16 KB list elements
    /// (the tail padded up to the next 16-byte multiple, as an aligned
    /// buffer would be).
    ///
    /// # Errors
    /// Fails if the resulting list would exceed 2,048 elements or the
    /// transfer is empty/misaligned.
    pub fn for_bytes(
        total_bytes: usize,
        local_addr: usize,
        main_addr: usize,
    ) -> Result<DmaList, DmaError> {
        if total_bytes == 0 {
            return Err(DmaError::Empty);
        }
        let padded = total_bytes.div_ceil(16) * 16;
        let n_full = padded / DMA_MAX_TRANSFER_BYTES;
        let tail = padded % DMA_MAX_TRANSFER_BYTES;
        let n = n_full + usize::from(tail > 0);
        if n > DMA_MAX_LIST_LEN {
            return Err(DmaError::ListTooLong(n));
        }
        let mut elements = Vec::with_capacity(n);
        let mut off = 0usize;
        for _ in 0..n_full {
            elements.push(DmaRequest::new(DMA_MAX_TRANSFER_BYTES, local_addr + off, main_addr + off)?);
            off += DMA_MAX_TRANSFER_BYTES;
        }
        if tail > 0 {
            elements.push(DmaRequest::new(tail, local_addr + off, main_addr + off)?);
        }
        Ok(DmaList { elements })
    }

    /// The list's elements.
    pub fn elements(&self) -> &[DmaRequest] {
        &self.elements
    }

    /// Total bytes moved (after padding).
    pub fn total_bytes(&self) -> usize {
        self.elements.iter().map(|e| e.bytes).sum()
    }

    /// Uncontended latency: startup once, elements pipelined at bandwidth.
    pub fn base_latency(&self) -> SimDuration {
        let xfer = self.total_bytes() as f64 / SPE_DMA_BANDWIDTH;
        DMA_STARTUP + SimDuration::from_secs_f64(xfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_sizes_accepted() {
        for bytes in [1, 2, 4, 8, 16, 32, 128, 4096, 16 * 1024] {
            DmaRequest::new(bytes, 0, 0).unwrap_or_else(|e| panic!("{bytes}: {e}"));
        }
    }

    #[test]
    fn illegal_sizes_rejected() {
        for bytes in [3, 5, 6, 7, 9, 15, 17, 100] {
            assert_eq!(DmaRequest::new(bytes, 0, 0), Err(DmaError::BadSize(bytes)), "{bytes}");
        }
        assert_eq!(
            DmaRequest::new(16 * 1024 + 16, 0, 0),
            Err(DmaError::TooLarge(16 * 1024 + 16))
        );
        assert_eq!(DmaRequest::new(0, 0, 0), Err(DmaError::Empty));
    }

    #[test]
    fn misalignment_rejected() {
        assert_eq!(DmaRequest::new(16, 8, 0), Err(DmaError::Misaligned(8)));
        assert_eq!(DmaRequest::new(16, 0, 24), Err(DmaError::Misaligned(24)));
        assert!(DmaRequest::new(16, 32, 48).is_ok());
    }

    #[test]
    fn latency_scales_with_size() {
        let small = DmaRequest::new(16, 0, 0).unwrap().base_latency();
        let large = DmaRequest::new(16 * 1024, 0, 0).unwrap().base_latency();
        assert!(large > small);
        // 16 KB at 25.6 GB/s = 640 ns, plus 300 ns startup.
        assert_eq!(large.as_nanos(), 300 + 640);
    }

    #[test]
    fn list_splits_large_transfers() {
        let list = DmaList::for_bytes(100 * 1024, 0, 0).unwrap();
        assert_eq!(list.elements().len(), 7); // 6×16KB + 4KB tail
        assert_eq!(list.total_bytes(), 100 * 1024);
        assert_eq!(list.elements()[6].bytes, 4 * 1024);
    }

    #[test]
    fn list_pads_odd_sizes_to_sixteen() {
        let list = DmaList::for_bytes(100, 0, 0).unwrap();
        assert_eq!(list.total_bytes(), 112);
        assert_eq!(list.elements().len(), 1);
    }

    #[test]
    fn list_length_cap_enforced() {
        // 2048 × 16 KB = 32 MB is the largest legal list.
        let max_bytes = 2048 * 16 * 1024;
        assert!(DmaList::for_bytes(max_bytes, 0, 0).is_ok());
        match DmaList::for_bytes(max_bytes + 16, 0, 0) {
            Err(DmaError::ListTooLong(2049)) => {}
            other => panic!("expected ListTooLong(2049), got {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        assert!(DmaError::BadSize(7).to_string().contains("7"));
        assert!(DmaError::Misaligned(8).to_string().contains("0x8"));
    }
}
