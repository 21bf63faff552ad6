//! Synchronization layer for the native runtime, switchable to loom.
//!
//! Compiled normally these are exactly the `parking_lot` primitives. Under
//! `RUSTFLAGS="--cfg loom"` they become wrappers over `loom::sync`, so the
//! gate/pool/team machinery can be model-checked: loom intercepts every
//! lock acquisition and explores interleavings the OS scheduler may never
//! produce. The wrappers keep parking_lot's API shape (non-poisoning
//! `lock()`, `Condvar::wait(&mut guard)`), so the runtime code is identical
//! under both compilations.
//!
//! Channel capacity: all intra-runtime channels are *bounded* (see
//! [`COMMAND_QUEUE_DEPTH`]). The off-load protocol never holds more than
//! one job plus one shutdown message per virtual SPE, so a small fixed
//! capacity is a free deadlock-freedom argument: a send that would block
//! indicates a protocol violation, not load.

/// Capacity of per-SPE command channels. The dispatch protocol keeps at
/// most one in-flight job and one shutdown message queued per SPE; the
/// margin makes an accidental protocol change visible as backpressure
/// (or a loom hang) instead of unbounded memory growth.
pub const COMMAND_QUEUE_DEPTH: usize = 4;

#[cfg(not(loom))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub use self::loom_shim::{Condvar, Mutex, MutexGuard};

/// Atomics, routed through loom when model-checking. The sharded PPE gate
/// builds its per-context slot words, and the team layer its chunk claim
/// flags and countdown, from these so the same code is exercised by the
/// loom models and the real runtime.
#[cfg(not(loom))]
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(loom)]
mod loom_shim {
    //! parking_lot-shaped wrappers over `loom::sync`.

    /// RAII guard for [`Mutex`].
    pub type MutexGuard<'a, T> = loom::sync::MutexGuard<'a, T>;

    /// A non-poisoning mutex backed by `loom::sync::Mutex`.
    pub struct Mutex<T>(loom::sync::Mutex<T>);

    impl<T> Mutex<T> {
        /// A new mutex holding `value`.
        pub fn new(value: T) -> Mutex<T> {
            Mutex(loom::sync::Mutex::new(value))
        }

        /// Acquire the lock, blocking until available.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            match self.0.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            }
        }
    }

    /// A condition variable pairing with [`Mutex`].
    pub struct Condvar(loom::sync::Condvar);

    impl Condvar {
        /// A new condition variable.
        pub fn new() -> Condvar {
            Condvar(loom::sync::Condvar::new())
        }

        /// Atomically release the guard's lock and wait for a
        /// notification, re-acquiring before returning.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            take_guard(guard, |g| match self.0.wait(g) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            });
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        /// Wake all waiters.
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    /// Bridge loom's guard-consuming `wait` to parking_lot's `&mut guard`
    /// shape (same technique as the vendored parking_lot shim). Aborts if
    /// `f` panics mid-swap, which `wait` cannot (poison is absorbed).
    fn take_guard<T, F>(slot: &mut MutexGuard<'_, T>, f: F)
    where
        F: FnOnce(MutexGuard<'_, T>) -> MutexGuard<'_, T>,
    {
        unsafe {
            let old = std::ptr::read(slot);
            let new = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(old)))
                .unwrap_or_else(|_| std::process::abort());
            std::ptr::write(slot, new);
        }
    }
}
