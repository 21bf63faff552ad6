//! An unrecorded simulation allocates nothing per task.
//!
//! Events are a function pointer plus one word and a process's SPE team is
//! a buffer in its own state, so once the machine is built the event loop
//! runs on memory it already holds. This binary installs a global
//! allocator that counts the allocations made on the calling thread, and
//! holds a run of four times the tasks to within a small fixed difference
//! of the smaller run's count, for every scheduler.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cellsim::machine::{run, SimConfig};
use mgps_runtime::policy::SchedulerKind;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator can run while this thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation here is `System`'s).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const SCHEDULERS: [SchedulerKind; 5] = [
    SchedulerKind::Edtlp,
    SchedulerKind::LinuxLike,
    SchedulerKind::StaticHybrid { spes_per_loop: 2 },
    SchedulerKind::StaticHybrid { spes_per_loop: 4 },
    SchedulerKind::Mgps,
];

/// Allocations made by one unrecorded run, and the tasks it completed.
fn allocations(kind: SchedulerKind, scale: usize) -> (u64, u64) {
    let cfg = SimConfig::cell_42sc(kind, 8, scale);
    assert!(!cfg.record_events);
    let before = ALLOCATIONS.with(Cell::get);
    let tasks = run(cfg).tasks_completed;
    (ALLOCATIONS.with(Cell::get) - before, tasks)
}

#[test]
fn an_unrecorded_run_allocates_nothing_per_task() {
    for kind in SCHEDULERS {
        let (small, small_tasks) = allocations(kind, 400);
        let (large, large_tasks) = allocations(kind, 100);
        assert!(
            large_tasks >= 3 * small_tasks,
            "{kind:?}: the larger run must do several times the tasks ({large_tasks} vs {small_tasks})"
        );
        assert!(
            large.abs_diff(small) <= 16,
            "{kind:?}: {small} allocations for {small_tasks} tasks, {large} for {large_tasks}"
        );
    }
}
