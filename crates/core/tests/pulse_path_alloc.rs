//! Allocation count of the pulse path and of a program-image upload.
//!
//! `q_gen` walks every work item through the SLT, QSpace and the PGU
//! pool and writes fresh pulses into `.pulse`. Those tables are flat and
//! sized when the system is built, so once a cold `q_gen` has run, a
//! second one over fresh parameters (new tags: SLT misses, evictions into
//! QSpace, pulse allocations) must make the same small number of heap
//! allocations at 32 and at 128 qubits: none may scale with the work
//! items. A program upload walks the host cache hierarchy line by line
//! and must not allocate at all. A counting global allocator measures
//! both; the file holds a single `#[test]` so no sibling test's
//! allocations race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qtenon_compiler::QtenonCompiler;
use qtenon_core::config::{CoreModel, QtenonConfig};
use qtenon_core::system::QtenonSystem;
use qtenon_mem::{HierarchyConfig, MemoryHierarchy};
use qtenon_sim_engine::SimTime;
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

/// Allocations of a warm `q_gen` over fresh parameters on QAOA-`n_qubits`,
/// and the pulses it generated.
fn second_q_gen(n_qubits: u32) -> (u64, u64) {
    let config = QtenonConfig::table4(n_qubits, CoreModel::Rocket).expect("table-4 config");
    let workload = Workload::benchmark(WorkloadKind::Qaoa, n_qubits, 7).expect("workload");
    let program = QtenonCompiler::new(config.layout)
        .compile(&workload.circuit)
        .expect("compiles");
    let cold = program
        .work_items(&workload.initial_params)
        .expect("work items");
    let fresh_params: Vec<f64> = workload.initial_params.iter().map(|p| p + 0.37).collect();
    let fresh = program.work_items(&fresh_params).expect("work items");
    let mut system = QtenonSystem::new(config).expect("system builds");
    let (_, t) = system.q_gen(SimTime::ZERO, &cold).expect("cold q_gen");
    let before = allocations();
    let (report, _) = system.q_gen(t, &fresh).expect("warm q_gen");
    (allocations() - before, report.generated)
}

#[test]
fn warm_pulse_generation_and_uploads_do_not_allocate_per_item() {
    let (narrow, narrow_generated) = second_q_gen(32);
    let (wide, wide_generated) = second_q_gen(128);
    // The fresh parameters really reach the SLT misses and allocations.
    assert!(narrow_generated > 0 && wide_generated > 3 * narrow_generated);
    assert_eq!(
        narrow, wide,
        "a warm q_gen allocated {narrow} times at 32 qubits ({narrow_generated} pulses) \
         but {wide} times at 128 ({wide_generated} pulses)"
    );
    assert!(wide <= 4, "a warm q_gen allocated {wide} times (budget 4)");

    // A 104 KB program image: 1,664 lines through L1 and L2.
    let mut hierarchy = MemoryHierarchy::new(HierarchyConfig::default()).expect("hierarchy");
    let before = allocations();
    hierarchy.access_range(0x1000_0000, 104 * 1024, false);
    assert_eq!(allocations() - before, 0, "access_range allocated");
}
