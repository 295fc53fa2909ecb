//! Allocation budget of a steady-state VQA evaluation.
//!
//! One evaluation — parameter diff, `q_update`s, `q_gen`, `q_run`, the
//! fine-grained PUT drain and the bit-sliced cost — must not allocate per
//! shot, per QCC access or per Hamiltonian term. A counting global
//! allocator measures it: the allocations of a 4-iteration run minus
//! those of a 2-iteration run, divided by the extra evaluations, is the
//! steady-state cost of one evaluation (runner construction, setup and
//! report assembly cancel out). The file holds a single `#[test]` so no
//! sibling test's allocations race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qtenon_core::config::{CoreModel, QtenonConfig};
use qtenon_core::vqa::VqaRunner;
use qtenon_workloads::{
    GradientDescentOptimizer, Optimizer, SpsaOptimizer, Workload, WorkloadKind,
};

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

/// One benchmark shape: workload, width, optimizer, pool width.
#[derive(Clone, Copy)]
struct Shape {
    kind: WorkloadKind,
    n_qubits: u32,
    gd: bool,
    threads: Option<usize>,
}

impl Shape {
    /// Allocations and evaluations of one `iterations`-long run, runner
    /// construction included.
    fn run(self, iterations: usize, shots: u64) -> (u64, u64) {
        let mut config = QtenonConfig::table4(self.n_qubits, CoreModel::Rocket)
            .expect("table-4 config")
            .with_seed(7);
        if let Some(threads) = self.threads {
            config = config.with_threads(threads);
        }
        let workload = Workload::benchmark(self.kind, self.n_qubits, 7).expect("workload");
        let mut optimizer: Box<dyn Optimizer> = if self.gd {
            Box::new(GradientDescentOptimizer::new(0.05))
        } else {
            Box::new(SpsaOptimizer::new(7))
        };
        let before = allocations();
        let mut runner = VqaRunner::new(config, workload).expect("runner");
        runner
            .run(optimizer.as_mut(), iterations, shots)
            .expect("run");
        let allocated = allocations() - before;
        let mut m = qtenon_sim_engine::MetricsRegistry::new();
        runner.export_metrics(&mut m);
        let evaluations = match m.get("core.vqa.eval_latency_ns") {
            Some(qtenon_sim_engine::MetricValue::Histogram(h)) => h.count(),
            other => panic!("core.vqa.eval_latency_ns missing: {other:?}"),
        };
        (allocated, evaluations)
    }

    /// Steady-state allocations per evaluation at `shots` shots.
    fn per_evaluation(self, shots: u64) -> f64 {
        let (short_allocs, short_evals) = self.run(2, shots);
        let (long_allocs, long_evals) = self.run(4, shots);
        assert!(long_evals > short_evals, "no extra evaluations to measure");
        (long_allocs as f64 - short_allocs as f64) / (long_evals - short_evals) as f64
    }
}

#[test]
fn steady_state_evaluations_do_not_allocate_per_shot_access_or_term() {
    let vqe16 = Shape {
        kind: WorkloadKind::Vqe,
        n_qubits: 16,
        gd: true,
        threads: None,
    };
    let per_eval = vqe16.per_evaluation(100);
    assert!(
        per_eval <= 40.0,
        "VQE-16 GD at 100 shots allocates {per_eval:.1} times per evaluation (budget 40)"
    );

    // Quadrupling the shots must not scale the count: sampling,
    // `.measure` deposits, PUTs and cost blocks are allocation-free.
    let serial_vqe16 = Shape {
        threads: Some(1),
        ..vqe16
    };
    let exact_qaoa8 = Shape {
        kind: WorkloadKind::Qaoa,
        n_qubits: 8,
        gd: false,
        threads: Some(1),
    };
    for (name, shape, shots) in [
        ("VQE-16 GD", serial_vqe16, 100),
        ("QAOA-8 SPSA (exact)", exact_qaoa8, 1000),
    ] {
        let low = shape.per_evaluation(shots);
        let high = shape.per_evaluation(4 * shots);
        assert!(
            high - low <= 4.0,
            "{name}: {shots} -> {} shots grew allocations per evaluation \
             from {low:.1} to {high:.1} (budget +4)",
            4 * shots
        );
    }
}
