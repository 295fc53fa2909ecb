//! Integration tests: driving the system through the raw ISA path and
//! checking functional correctness of the full compile → load → update →
//! generate → run → acquire chain.

use qtenon::compiler::{ParameterDiff, QtenonCompiler};
use qtenon::core::config::{CoreModel, QtenonConfig};
use qtenon::core::system::QtenonSystem;
use qtenon::isa::Instruction;
use qtenon::quantum::{transpile, Circuit, ParamId, StateVector};
use qtenon::sim_engine::SimTime;

fn system(n: u32) -> (QtenonConfig, QtenonSystem) {
    let config = QtenonConfig::table4(n, CoreModel::Rocket).unwrap();
    let system = QtenonSystem::new(config).unwrap();
    (config, system)
}

#[test]
fn ghz_state_measured_through_the_full_path() {
    let n = 3;
    let (config, mut sys) = system(n);
    let mut c = Circuit::new(n);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    let native = transpile::to_native(&c).unwrap();
    let program = QtenonCompiler::new(config.layout).compile(&native).unwrap();

    let mut now = SimTime::ZERO;
    // Load chunks.
    let chunks: Vec<_> = program
        .chunks()
        .iter()
        .enumerate()
        .filter(|(_, ch)| !ch.is_empty())
        .collect();
    for (load, (q, chunk)) in program.load_instructions(0x8000_0000).iter().zip(chunks) {
        if let Instruction::QSet {
            classical_addr,
            qaddr,
            length,
        } = *load
        {
            assert_eq!(
                config.layout.decode(qaddr).unwrap().qubit.unwrap().index(),
                q as u32
            );
            assert_eq!(length, chunk.len() as u64);
            now = sys.q_set(now, classical_addr, qaddr, length).unwrap();
        }
    }
    // Generate pulses and run.
    let items = program.work_items(&[]).unwrap();
    let (_, t) = sys.q_gen(now, &items).unwrap();
    let shots = 64;
    let outcome = sys.q_run(t, &native, shots).unwrap();

    // Acquire: the results' transfer back to host memory.
    let base = config.layout.measure_entry(0).unwrap();
    let done = sys
        .q_acquire(outcome.complete, base, shots, 0x9000_0000)
        .unwrap();
    assert!(done > outcome.complete);

    // GHZ: all qubits agree within each shot; both outcomes appear.
    let mut all_zero = 0;
    let mut all_one = 0;
    for bits in &outcome.shots {
        let first = bits.get(0);
        for q in 1..n {
            assert_eq!(bits.get(q), first, "GHZ correlation violated");
        }
        if first {
            all_one += 1;
        } else {
            all_zero += 1;
        }
    }
    assert!(
        all_zero > 0 && all_one > 0,
        "both GHZ branches should appear"
    );
}

#[test]
fn q_update_changes_subsequent_runs() {
    // A parameterised RX on one qubit: binding θ=0 leaves the qubit at
    // |0⟩; updating to θ=π flips it — all through ISA instructions.
    let n = 2;
    let (config, mut sys) = system(n);
    let mut c = Circuit::new(n);
    c.rx_param(0, ParamId::new(0)).measure_all();
    let program = QtenonCompiler::new(config.layout).compile(&c).unwrap();
    assert_eq!(program.slots().len(), 1);

    let mut now = SimTime::ZERO;
    for instr in program.load_instructions(0x8000_0000) {
        if let Instruction::QSet {
            classical_addr,
            qaddr,
            length,
        } = instr
        {
            now = sys.q_set(now, classical_addr, qaddr, length).unwrap();
        }
    }

    for (theta, expect_one) in [(0.0f64, false), (std::f64::consts::PI, true)] {
        for instr in program.bind_instructions(&[theta]).unwrap() {
            if let Instruction::QUpdate { qaddr, value } = instr {
                now = sys.q_update(now, qaddr, value).unwrap();
            }
        }
        let items = program.work_items(&[theta]).unwrap();
        let (_, t) = sys.q_gen(now, &items).unwrap();
        let bound = c.bind(&[theta]).unwrap();
        let outcome = sys.q_run(t, &bound, 32).unwrap();
        now = outcome.complete;
        assert!(
            outcome.shots.iter().all(|s| s.get(0) == expect_one),
            "theta={theta} should give qubit0={expect_one}"
        );
    }
}

#[test]
fn incremental_updates_equal_full_rebind() {
    // Applying a ParameterDiff must leave the regfile identical to a
    // from-scratch bind at the new parameters.
    let n = 4;
    let (config, mut sys_incremental) = system(n);
    let (_, mut sys_rebind) = system(n);
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry_param(q, ParamId::new(q));
    }
    let native = transpile::to_native(&c).unwrap();
    let program = QtenonCompiler::new(config.layout).compile(&native).unwrap();

    let old = vec![0.1, 0.2, 0.3, 0.4];
    let new = vec![0.1, 0.9, 0.3, 0.7];

    // System A: bind old, apply diff.
    let mut now = SimTime::ZERO;
    for instr in program.bind_instructions(&old).unwrap() {
        if let Instruction::QUpdate { qaddr, value } = instr {
            now = sys_incremental.q_update(now, qaddr, value).unwrap();
        }
    }
    let updates_before = sys_incremental.comm().q_update_count;
    let diff = ParameterDiff::between(&program, &old, &new).unwrap();
    assert_eq!(diff.changed_slots(), 2);
    for instr in diff.update_instructions(&program).unwrap() {
        if let Instruction::QUpdate { qaddr, value } = instr {
            now = sys_incremental.q_update(now, qaddr, value).unwrap();
        }
    }
    assert_eq!(
        sys_incremental.comm().q_update_count - updates_before,
        2,
        "only changed slots travel"
    );

    // System B: bind new directly.
    let mut now_b = SimTime::ZERO;
    for instr in program.bind_instructions(&new).unwrap() {
        if let Instruction::QUpdate { qaddr, value } = instr {
            now_b = sys_rebind.q_update(now_b, qaddr, value).unwrap();
        }
    }

    for i in 0..program.slots().len() as u32 {
        assert_eq!(
            sys_incremental.qcc().regfile_by_index(i),
            sys_rebind.qcc().regfile_by_index(i),
            "slot {i} diverged"
        );
    }
}

#[test]
fn system_run_matches_direct_statevector() {
    // The system's chip (exact backend at this size) must agree with a
    // hand-driven state vector on marginal probabilities.
    let n = 2;
    let (_, mut sys) = system(n);
    let mut c = Circuit::new(n);
    c.ry(0, 1.1).cz(0, 1).ry(1, 0.6).measure_all();
    let shots = 4000;
    let outcome = sys.q_run(SimTime::ZERO, &c, shots).unwrap();
    let measured_p1: f64 = outcome.shots.iter().filter(|s| s.get(1)).count() as f64 / shots as f64;

    let mut sv = StateVector::new(n).unwrap();
    sv.apply_circuit(&c).unwrap();
    let exact_p1 = sv.probability_of_one(1);
    assert!(
        (measured_p1 - exact_p1).abs() < 0.03,
        "measured {measured_p1} vs exact {exact_p1}"
    );
}

#[test]
fn tracing_records_the_whole_instruction_flow() {
    use qtenon::core::trace::TraceLane;
    let n = 2;
    let (config, mut sys) = system(n);
    sys.set_tracing(true);
    let mut c = Circuit::new(n);
    c.rx(0, 1.0).cz(0, 1).measure_all();
    let program = QtenonCompiler::new(config.layout).compile(&c).unwrap();
    let mut now = SimTime::ZERO;
    for instr in program.load_instructions(0x8000_0000) {
        if let Instruction::QSet {
            classical_addr,
            qaddr,
            length,
        } = instr
        {
            now = sys.q_set(now, classical_addr, qaddr, length).unwrap();
        }
    }
    let items = program.work_items(&[]).unwrap();
    let (_, t) = sys.q_gen(now, &items).unwrap();
    let outcome = sys.q_run(t, &c, 8).unwrap();
    sys.put_results(outcome.complete, 8).unwrap();

    let trace = sys.take_trace().unwrap();
    assert!(trace.len() >= 4, "expected q_set+q_gen+q_run+put events");
    for lane in [TraceLane::QuantumChip, TraceLane::PulsePipeline] {
        assert!(
            trace
                .events()
                .iter()
                .any(|e| e.lane == lane && e.duration > qtenon::sim_engine::SimDuration::ZERO),
            "no busy slice on {lane:?}"
        );
    }
    let json = trace.to_chrome_json();
    assert!(json.contains("q_run[8]"));
    assert!(json.contains("q_gen"));
    // Events are within the simulated timeline.
    for e in trace.events() {
        assert!(
            e.start + e.duration <= outcome.complete + qtenon::sim_engine::SimDuration::from_us(10)
        );
    }
}

#[test]
fn qasm_workload_runs_end_to_end() {
    use qtenon::quantum::{Hamiltonian, PauliTerm};
    use qtenon::workloads::{SpsaOptimizer, Workload, WorkloadKind};
    let src = r#"
        OPENQASM 2.0;
        qreg q[3];
        creg c[3];
        h q[0];
        cx q[0], q[1];
        cx q[1], q[2];
        measure q[0] -> c[0];
        measure q[1] -> c[1];
        measure q[2] -> c[2];
    "#;
    let h = Hamiltonian::new(3, vec![PauliTerm::zz(0, 2, 1.0)], 0.0);
    let workload = Workload::from_qasm(src, h, WorkloadKind::Qnn).unwrap();
    let config = QtenonConfig::table4(3, CoreModel::Rocket).unwrap();
    let mut runner = qtenon::core::vqa::VqaRunner::new(config, workload).unwrap();
    let report = runner.run(&mut SpsaOptimizer::new(1), 1, 200).unwrap();
    // GHZ: perfect ZZ correlation between qubits 0 and 2 → cost ≈ +1.
    assert!(report.final_cost > 0.9, "cost {}", report.final_cost);
}

#[test]
fn assembly_text_round_trips_through_encoding() {
    let samples = [
        "q_update @0x70000, 0x1234",
        "q_set 0x80000000, @0x400, 285",
        "q_acquire 0x90000000, @0x71000, 500",
        "q_gen @0x0, 1024",
        "q_run 500",
    ];
    for text in samples {
        let instr = Instruction::parse_asm(text).unwrap();
        let enc = instr.encode();
        let bits = enc.word.encode();
        let word = qtenon::isa::RoccWord::decode(bits).unwrap();
        let back = Instruction::decode(&qtenon::isa::EncodedInstruction {
            word,
            rs1_value: enc.rs1_value,
            rs2_value: enc.rs2_value,
        })
        .unwrap();
        assert_eq!(back, instr, "{text}");
    }
}
