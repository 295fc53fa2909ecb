//! QAOA MAX-CUT head-to-head: the Qtenon tightly coupled system vs the
//! decoupled host+FPGA baseline on the same problem instance.
//!
//! Reproduces the paper's headline comparison in miniature: Qtenon runs
//! the workload and optimizer, and the baseline times the trajectory that
//! run recorded; the report shows who wins, by how much, and why
//! (per-component breakdown).
//!
//! ```text
//! cargo run --release --example qaoa_maxcut
//! ```

use qtenon::baseline::{BaselineConfig, BaselineRunner};
use qtenon::core::config::{CoreModel, QtenonConfig};
use qtenon::core::report::RunReport;
use qtenon::core::vqa::VqaRunner;
use qtenon::workloads::{Graph, SpsaOptimizer, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 24;
    let graph = Graph::circulant_3_regular(n);
    println!(
        "MAX-CUT on a 3-regular graph: {} vertices, {} edges",
        graph.n_vertices(),
        graph.edges().len()
    );

    let workload = Workload::qaoa_on_graph(&graph, 5, 99)?;
    let iterations = 5;
    let shots = 300;

    // --- Qtenon.
    let config = QtenonConfig::table4(n, CoreModel::BoomLarge)?;
    let mut qtenon = VqaRunner::new(config, workload.clone())?;
    let qtenon_report = qtenon.run(&mut SpsaOptimizer::new(99), iterations, shots)?;

    // --- Decoupled baseline, timing the same trajectory.
    let baseline = BaselineRunner::new(BaselineConfig::default(), workload);
    let baseline_report = baseline.run(qtenon.trajectory())?;

    print_system("decoupled baseline", &baseline_report);
    print_system("Qtenon (Boom-L)", &qtenon_report);

    let e2e = baseline_report.total.as_ns() / qtenon_report.total.as_ns();
    let classical =
        baseline_report.classical_time().as_ns() / qtenon_report.classical_time().as_ns();
    println!("\nend-to-end speedup: {e2e:.1}x");
    println!("classical-time speedup: {classical:.1}x");

    // One trajectory, so both report the same cost: expected cut value
    // is -cost.
    println!(
        "\nexpected cut value found: {:.2} (baseline) / {:.2} (Qtenon)",
        -baseline_report.final_cost, -qtenon_report.final_cost
    );
    Ok(())
}

fn print_system(name: &str, r: &RunReport) {
    let [q, c, p, h] = r.exposed_shares();
    println!("\n{name}");
    println!("  total {}", r.total);
    println!(
        "  quantum {:.1}% | comm {:.1}% | pulse {:.1}% | host {:.1}%",
        q * 100.0,
        c * 100.0,
        p * 100.0,
        h * 100.0
    );
    println!(
        "  comm by instruction: q_set {} | q_update {} | q_acquire/PUT {}",
        r.comm.q_set, r.comm.q_update, r.comm.q_acquire
    );
}
