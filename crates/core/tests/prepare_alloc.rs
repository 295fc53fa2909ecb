//! Allocation count of one exact-backend `Simulator::prepare`.
//!
//! Preparing a bound QAOA-12 circuit plans it (`fuse::plan`: one op list,
//! sized for the circuit, each sweep's kernel held inline), builds one
//! state vector (a single allocation holding both the real and the
//! imaginary parts), runs the plan, and turns that same allocation into
//! the sampling tables: the cumulative distribution over the real half,
//! the guide over the imaginary half. The count is pinned exactly, so a
//! change to the statevector storage, the sampler or the kernel layer
//! that allocates more, or less, shows up here. A counting
//! global allocator measures it;
//! the file holds a single `#[test]` so no sibling test's allocations
//! race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qtenon_quantum::Simulator;
use qtenon_workloads::{Workload, WorkloadKind};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn qaoa12_exact_prepare_allocation_count_is_pinned() {
    let workload = Workload::benchmark(WorkloadKind::Qaoa, 12, 7).expect("workload");
    let bound = workload
        .circuit
        .bind(&workload.initial_params)
        .expect("bind");
    let sim = Simulator::fast(12, 7);
    assert!(sim.is_exact(), "QAOA-12 must ride the exact backend");
    // One warm-up call, so one-time lazy set-up is not counted.
    drop(sim.prepare(&bound).expect("prepare"));
    let before = allocations();
    let prepared = sim.prepare(&bound).expect("prepare");
    let allocated = allocations() - before;
    drop(prepared);
    assert_eq!(allocated, 2, "allocations of one QAOA-12 exact prepare");
}
