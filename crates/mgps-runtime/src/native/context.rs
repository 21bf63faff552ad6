//! Per-virtual-SPE execution context.
//!
//! A virtual SPE mirrors the two properties of a real SPE that matter to
//! the scheduler: a *bounded local store* (256 KB on Cell; kernels stage
//! their working set through it, and exceeding it is an error, not a slow
//! path) and a *resident code image* (switching between the plain and the
//! loop-parallel version of an off-loaded function costs a reload, which
//! MGPS must amortize — §5.4 measures this cost and finds it lower than
//! SPE-side branching).

use std::time::Duration;

use crate::events::EventKind;
use crate::policy::SpeId;
use crate::tracing::TraceHandle;

/// Identifies a code image (one compiled SPE module). The paper ships the
/// three ML kernels as a single module with two variants: plain and
/// loop-parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageId(pub u64);

/// Local-store capacity of a Cell SPE, in bytes.
pub const LOCAL_STORE_BYTES: usize = 256 * 1024;

/// Error returned when a kernel's staging request exceeds local store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalStoreExhausted {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes that were still free.
    pub available: usize,
}

impl std::fmt::Display for LocalStoreExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "local store exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for LocalStoreExhausted {}

/// A bump-allocated scratch arena standing in for an SPE's local store.
/// Reset between off-loaded tasks, like the paper's stack/heap region.
#[derive(Debug)]
pub struct LocalStore {
    /// Backing memory, grown on demand up to `capacity`: a context that
    /// never stages anything never touches a quarter megabyte.
    buf: Vec<u8>,
    capacity: usize,
    used: usize,
    code_bytes: usize,
    high_water: usize,
}

impl LocalStore {
    /// A local store of `capacity` bytes.
    pub fn new(capacity: usize) -> LocalStore {
        LocalStore { buf: Vec::new(), capacity, used: 0, code_bytes: 0, high_water: 0 }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes reserved for the resident code image.
    pub fn code_bytes(&self) -> usize {
        self.code_bytes
    }

    /// Bytes currently allocated for data (excluding code).
    pub fn used(&self) -> usize {
        self.used
    }

    /// Bytes still available for data.
    pub fn available(&self) -> usize {
        self.capacity() - self.code_bytes - self.used
    }

    /// Largest combined occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Reserve space for a code image, evicting the previous one.
    ///
    /// # Errors
    /// Fails if the image alone exceeds capacity.
    pub fn load_code(&mut self, bytes: usize) -> Result<(), LocalStoreExhausted> {
        if bytes > self.capacity() {
            return Err(LocalStoreExhausted { requested: bytes, available: self.capacity() });
        }
        self.code_bytes = bytes;
        self.track();
        Ok(())
    }

    /// Allocate `len` bytes of zeroed scratch. The returned slice lives as
    /// long as the borrow of `self`; allocations stack until [`Self::reset`].
    pub fn alloc(&mut self, len: usize) -> Result<&mut [u8], LocalStoreExhausted> {
        if len > self.available() {
            return Err(LocalStoreExhausted { requested: len, available: self.available() });
        }
        let start = self.code_bytes + self.used;
        self.used += len;
        self.track();
        if self.buf.len() < start + len {
            self.buf.resize(start + len, 0);
        }
        let slice = &mut self.buf[start..start + len];
        slice.fill(0);
        Ok(slice)
    }

    /// Release all data allocations (the code image stays resident).
    pub fn reset(&mut self) {
        self.used = 0;
    }

    fn track(&mut self) {
        self.high_water = self.high_water.max(self.code_bytes + self.used);
    }
}

/// Mutable state handed to every job executing on a virtual SPE.
#[derive(Debug)]
pub struct SpeContext {
    /// Which virtual SPE this is.
    pub id: SpeId,
    /// The SPE's local store.
    pub local_store: LocalStore,
    resident_image: Option<ImageId>,
    code_reloads: u64,
    tasks_run: u64,
    code_load_cost: Duration,
    trace: Option<TraceHandle>,
}

impl SpeContext {
    /// A context for `id` with a full-size local store and the given
    /// simulated code-reload cost (zero disables the stall).
    pub fn new(id: SpeId, code_load_cost: Duration) -> SpeContext {
        SpeContext {
            id,
            local_store: LocalStore::new(LOCAL_STORE_BYTES),
            resident_image: None,
            code_reloads: 0,
            tasks_run: 0,
            code_load_cost,
            trace: None,
        }
    }

    /// Attach a tracing handle; subsequent code reloads (and any events the
    /// running kernel records via [`Self::trace`]) land on this SPE's ring.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// This SPE's tracing handle, if the pool was built with a tracer.
    pub fn trace(&self) -> Option<&TraceHandle> {
        self.trace.as_ref()
    }

    /// Ensure `image` (of `bytes` code) is resident, paying the reload cost
    /// if a different image (or none) was loaded. Returns whether a reload
    /// happened.
    pub fn ensure_image(&mut self, image: ImageId, bytes: usize) -> Result<bool, LocalStoreExhausted> {
        if self.resident_image == Some(image) {
            return Ok(false);
        }
        self.local_store.load_code(bytes)?;
        self.resident_image = Some(image);
        self.code_reloads += 1;
        if let Some(t) = &self.trace {
            // Timestamp = stall start, matching the simulator's convention.
            t.record(EventKind::CodeReload {
                spe: self.id.0,
                stall_ns: self.code_load_cost.as_nanos() as u64,
            });
        }
        if !self.code_load_cost.is_zero() {
            // A real reload DMAs the module from main memory; model it as a
            // stall of the configured length.
            std::thread::sleep(self.code_load_cost);
        }
        Ok(true)
    }

    /// The image currently resident, if any.
    pub fn resident_image(&self) -> Option<ImageId> {
        self.resident_image
    }

    /// Total code reloads performed.
    pub fn code_reloads(&self) -> u64 {
        self.code_reloads
    }

    /// Total jobs executed.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    /// Called by the pool around each job.
    pub(crate) fn begin_task(&mut self) {
        self.local_store.reset();
        self.tasks_run += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_store_bump_allocation() {
        let mut ls = LocalStore::new(1024);
        ls.load_code(100).unwrap();
        assert_eq!(ls.available(), 924);
        let a = ls.alloc(500).unwrap();
        assert_eq!(a.len(), 500);
        assert_eq!(ls.available(), 424);
        let err = ls.alloc(500).unwrap_err();
        assert_eq!(err, LocalStoreExhausted { requested: 500, available: 424 });
        ls.reset();
        assert_eq!(ls.available(), 924);
        assert_eq!(ls.high_water(), 600);
    }

    #[test]
    fn raxml_module_fits_with_paper_margins() {
        // §5.1: 117 KB of code leaves 139 KB for stack and heap.
        let mut ls = LocalStore::new(LOCAL_STORE_BYTES);
        ls.load_code(117 * 1024).unwrap();
        assert_eq!(ls.available(), 139 * 1024);
        assert!(ls.alloc(139 * 1024).is_ok());
        assert!(ls.alloc(1).is_err());
    }

    #[test]
    fn oversized_code_image_rejected() {
        let mut ls = LocalStore::new(1024);
        assert!(ls.load_code(2048).is_err());
        assert_eq!(ls.code_bytes(), 0);
    }

    #[test]
    fn allocations_are_zeroed() {
        let mut ls = LocalStore::new(64);
        ls.alloc(16).unwrap().fill(0xAB);
        ls.reset();
        let again = ls.alloc(16).unwrap();
        assert!(again.iter().all(|&b| b == 0), "scratch must be zeroed on reuse");
    }

    #[test]
    fn ensure_image_counts_reloads() {
        let mut ctx = SpeContext::new(SpeId(0), Duration::ZERO);
        assert!(ctx.ensure_image(ImageId(1), 1000).unwrap());
        assert!(!ctx.ensure_image(ImageId(1), 1000).unwrap(), "resident image is free");
        assert!(ctx.ensure_image(ImageId(2), 2000).unwrap());
        assert_eq!(ctx.code_reloads(), 2);
        assert_eq!(ctx.resident_image(), Some(ImageId(2)));
        assert_eq!(ctx.local_store.code_bytes(), 2000);
    }

    #[test]
    fn begin_task_resets_scratch_but_not_code() {
        let mut ctx = SpeContext::new(SpeId(3), Duration::ZERO);
        ctx.ensure_image(ImageId(9), 500).unwrap();
        ctx.local_store.alloc(128).unwrap();
        ctx.begin_task();
        assert_eq!(ctx.local_store.used(), 0);
        assert_eq!(ctx.resident_image(), Some(ImageId(9)));
        assert_eq!(ctx.tasks_run(), 1);
    }

    #[test]
    fn display_of_exhaustion_error() {
        let e = LocalStoreExhausted { requested: 10, available: 4 };
        assert!(e.to_string().contains("requested 10"));
    }
}
