//! Drive the Qtenon ISA by hand: assemble the five instructions, execute
//! them against the integrated system, time the transfer of the results
//! back to host memory, and check the shots `q_run` returned.
//!
//! This is the path a firmware author would take — no VQA runner, just
//! `q_set` / `q_update` / `q_gen` / `q_run` / `q_acquire`. The model is
//! timed: `q_run` hands back the measured shots, and `q_acquire` charges
//! moving their packed `.measure` words over the bus into host memory.
//!
//! ```text
//! cargo run --release --example isa_playground
//! ```

use qtenon::compiler::QtenonCompiler;
use qtenon::core::config::{CoreModel, QtenonConfig};
use qtenon::core::system::QtenonSystem;
use qtenon::isa::Instruction;
use qtenon::quantum::{transpile, Circuit};
use qtenon::sim_engine::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let config = QtenonConfig::table4(n, CoreModel::Rocket)?;
    let mut system = QtenonSystem::new(config)?;

    // A Bell-pair-plus-spectators circuit, transpiled to the native set.
    let mut circuit = Circuit::new(n);
    circuit.h(0).cx(0, 1).measure_all();
    let native = transpile::to_native(&circuit)?;
    println!("native circuit:\n{native}");

    // Compile to per-qubit program entries.
    let program = QtenonCompiler::new(config.layout).compile(&native)?;
    println!(
        "compiled: {} entries across {} chunks, {} register slots",
        program.total_entries(),
        program.chunks().iter().filter(|c| !c.is_empty()).count(),
        program.slots().len()
    );

    // --- q_set: load the program, printing each instruction's assembly.
    let mut now = SimTime::ZERO;
    for instr in program.load_instructions(0x8000_0000) {
        println!("  {instr}");
        // Round-trip through the textual assembler, then the RoCC
        // encoding, for demonstration.
        let reparsed = Instruction::parse_asm(&instr.to_string())?;
        assert_eq!(reparsed, instr);
        let encoded = instr.encode();
        assert_eq!(Instruction::decode(&encoded)?, instr);
        if let Instruction::QSet {
            classical_addr,
            qaddr,
            length,
        } = instr
        {
            now = system.q_set(now, classical_addr, qaddr, length)?;
        }
    }
    println!("program loaded at {now}");

    // --- q_gen: compute the pulses.
    let items = program.work_items(&[])?;
    let (gen, t) = system.q_gen(now, &items)?;
    println!(
        "q_gen: {} pulses generated, {} skipped, took {}",
        gen.generated,
        gen.entries - gen.generated,
        gen.total_time
    );
    now = t;

    // --- q_run: 16 shots.
    let shots = 16;
    let outcome = system.q_run(now, &native, shots)?;
    println!(
        "q_run: {} shots of {} each, done at {}",
        shots, outcome.shot_duration, outcome.complete
    );

    // --- q_acquire: move the packed results (one 64-bit `.measure` word
    // per 4-qubit shot) to host memory. The host may read the buffer once
    // the transfer completes.
    let measure_base = config.layout.measure_entry(0)?;
    let host_buf = 0x9000_0000u64;
    let done = system.q_acquire(outcome.complete, measure_base, shots, host_buf)?;
    println!(
        "q_acquire: {shots} words to {host_buf:#x}, took {}, done at {done}",
        done.saturating_since(outcome.complete)
    );

    println!("\nshots (q3 q2 q1 q0):");
    for bits in &outcome.shots {
        // Bell pair: qubits 0 and 1 always agree.
        assert_eq!(bits.get(0), bits.get(1), "Bell correlation violated");
        println!("  {bits}");
    }
    println!("\nBell correlation held across all {shots} shots.");
    Ok(())
}
