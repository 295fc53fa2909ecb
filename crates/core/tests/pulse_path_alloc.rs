//! Allocation count of the pulse path and of a program-image upload.
//!
//! `q_gen` walks every work item through the SLT, QSpace and the PGU
//! pool and makes one `.pulse` write per fresh pulse, which stores no
//! payload. Those tables are flat and sized when the system is built, so
//! a cold `q_gen` stays within a small fixed budget, and a second one over
//! fresh parameters (new tags: SLT misses, evictions into QSpace, pulse
//! allocations) must make the same small number of heap allocations at
//! 32 and at 128 qubits: none may scale with the work items. A program
//! upload walks the host cache hierarchy line by line and must not
//! allocate at all. A counting global allocator measures both; the file
//! holds a single `#[test]` so no sibling test's allocations race the
//! counter.

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

/// Allocations of a cold and then a warm `q_gen` (fresh parameters) on
/// QAOA-`n_qubits`, and the pulses the warm one generated.
fn q_gen_allocations(n_qubits: u32) -> (u64, u64, u64) {
    let config = QtenonConfig::table4(n_qubits, CoreModel::Rocket).expect("table-4 config");
    let workload = Workload::benchmark(WorkloadKind::Qaoa, n_qubits, 7).expect("workload");
    let program = QtenonCompiler::new(config.layout)
        .compile(&workload.circuit)
        .expect("compiles");
    let first = program
        .work_items(&workload.initial_params)
        .expect("work items");
    let fresh_params: Vec<f64> = workload.initial_params.iter().map(|p| p + 0.37).collect();
    let fresh = program.work_items(&fresh_params).expect("work items");
    let mut system = QtenonSystem::new(config).expect("system builds");
    let before = allocations();
    let (_, t) = system.q_gen(SimTime::ZERO, &first).expect("cold q_gen");
    let cold = allocations() - before;
    let before = allocations();
    let (report, _) = system.q_gen(t, &fresh).expect("warm q_gen");
    (cold, allocations() - before, report.generated)
}

#[test]
fn warm_pulse_generation_and_uploads_do_not_allocate_per_item() {
    let (narrow_cold, narrow, narrow_generated) = q_gen_allocations(32);
    let (wide_cold, wide, wide_generated) = q_gen_allocations(128);
    // A cold q_gen stores no pulse payloads: it makes 10 allocations at
    // 32 qubits and 12 at 128, none per pulse written.
    assert!(
        narrow_cold <= 16 && wide_cold <= 16,
        "a cold q_gen allocated {narrow_cold} times at 32 qubits and {wide_cold} at 128 \
         (budget 16)"
    );
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
