//! Property tests for the fleet compilation cache (`compiler::cache`).
//!
//! The contract under test: a cache **hit is byte-identical to a cold
//! compile** — at any pool width, under contention, after eviction —
//! and canonical keys never alias circuits that differ in structure,
//! layout, or hardware-visible parameter value.
//!
//! "Byte-identical" is checked through each artefact's canonical
//! `Debug` rendering, which covers every field of the compiled
//! program, the pulse work-item stream, and the bound circuit.

use std::sync::{Arc, Barrier};

use qtenon_compiler::{CompilationCache, CompileError, QtenonCompiler};
use qtenon_isa::QccLayout;
use qtenon_quantum::{Circuit, ParamId};

fn layout(n: u32) -> QccLayout {
    QccLayout::for_qubits(n).unwrap()
}

/// A small parameterised ansatz whose shape is controlled by `variant`,
/// so distinct variants must produce distinct program keys.
fn ansatz(n: u32, variant: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry_param(q, ParamId::new(q));
    }
    for q in 0..n.saturating_sub(1) {
        c.cz(q, q + 1);
    }
    // Structural twist: a literal-angle gate whose angle encodes the
    // variant, so every variant is a different cacheable program.
    c.rx(0, 0.1 + f64::from(variant) * 0.05);
    c.measure_all();
    c
}

fn params_for(n: u32, round: usize) -> Vec<f64> {
    (0..n)
        .map(|q| 0.3 + f64::from(q) * 0.01 + round as f64 * 0.11)
        .collect()
}

/// The cold-path reference: compile, generate, and bind directly,
/// bypassing the cache entirely.
fn reference(n: u32, variant: u32, params: &[f64]) -> (String, String, String) {
    let circuit = ansatz(n, variant);
    let program = QtenonCompiler::new(layout(n)).compile(&circuit).unwrap();
    let items = program.work_items(params).unwrap();
    let bound = circuit.bind(params).unwrap();
    (
        format!("{program:?}"),
        format!("{items:?}"),
        format!("{bound:?}"),
    )
}

/// Pull all three artefact renderings for one (variant, params) pair
/// through the shared cache.
fn via_cache(
    cache: &CompilationCache,
    n: u32,
    variant: u32,
    params: &[f64],
) -> (String, String, String) {
    let circuit = ansatz(n, variant);
    let program = cache.compile(layout(n), &circuit).unwrap();
    let items = cache.work_items(&program, params).unwrap();
    let bound = cache.bound_circuit(&program, params).unwrap();
    (
        format!("{:?}", program.program()),
        format!("{:?}", items.items()),
        format!("{:?}", bound.circuit().as_ref()),
    )
}

/// Cold-vs-hit byte equality at pool widths 1, 2, and 8: every worker
/// hammers one shared cache with overlapping (variant, params) pairs,
/// and every artefact served — filled or waited for, hit or miss —
/// must render identically to a direct cache-free compile. Each key is
/// filled once, so the hit/miss split is exact at every width.
#[test]
fn hits_are_byte_identical_to_cold_compiles_at_widths_1_2_8() {
    const N: u32 = 6;
    const VARIANTS: u32 = 3;
    const ROUNDS: usize = 4;
    const TRIALS: usize = 12;

    // Precompute the cache-free ground truth once.
    let mut truth = Vec::new();
    for variant in 0..VARIANTS {
        for round in 0..ROUNDS {
            let params = params_for(N, round);
            truth.push(((variant, round), reference(N, variant, &params)));
        }
    }
    let truth = Arc::new(truth);

    // A lookup race that fills one key twice is rare in any one trial,
    // so every width runs several; each trial's counts must be exact.
    for trial in 0..TRIALS {
        for width in [1usize, 2, 8] {
            let cache = CompilationCache::shared(64);
            let start = Barrier::new(width);
            std::thread::scope(|scope| {
                for worker in 0..width {
                    let cache = Arc::clone(&cache);
                    let truth = Arc::clone(&truth);
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        // Stagger iteration order per worker so hits and
                        // misses interleave differently on each thread.
                        for step in 0..truth.len() {
                            let idx = (step + worker * 5) % truth.len();
                            let ((variant, round), expected) = &truth[idx];
                            let params = params_for(N, *round);
                            let got = via_cache(&cache, N, *variant, &params);
                            assert_eq!(&got, expected, "trial {trial} width {width} diverged");
                        }
                    });
                }
            });
            let stats = cache.stats();
            // Every lookup is accounted as exactly one hit or one miss.
            let calls = (width * VARIANTS as usize * ROUNDS) as u64;
            assert_eq!(stats.program_hits + stats.program_misses, calls);
            assert_eq!(stats.pulse_hits + stats.pulse_misses, calls);
            assert_eq!(stats.bound_hits + stats.bound_misses, calls);
            // One miss per distinct key, whatever the interleaving.
            let unique = (VARIANTS as usize * ROUNDS) as u64;
            assert_eq!(
                stats.program_misses, VARIANTS as u64,
                "trial {trial} width {width}"
            );
            assert_eq!(stats.pulse_misses, unique, "trial {trial} width {width}");
            assert_eq!(stats.bound_misses, unique, "trial {trial} width {width}");
        }
    }
}

/// All contenders racing to compile the same circuit end up sharing
/// one program: the first compiles it, the others wait for its value.
#[test]
fn racing_writers_converge_on_one_program() {
    const N: u32 = 64;
    // A double fill is rare in any one race, so run several, each on a
    // fresh cache and a different circuit.
    for variant in 0..32 {
        let cache = CompilationCache::new(16);
        let circuit = ansatz(N, variant);
        let start = Barrier::new(8);
        let rendered: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let p = cache.compile(layout(N), &circuit).unwrap();
                        format!("{:?}", p.program())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &rendered[1..] {
            assert_eq!(r, &rendered[0]);
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.program_misses, stats.program_hits),
            (1, 7),
            "race {variant}"
        );
    }
}

/// Collision shape: program keys must separate every hardware-visible
/// structural difference.
#[test]
fn program_keys_separate_structure_layout_and_operands() {
    let base = ansatz(4, 0);
    let key = |c: &Circuit, l: &QccLayout| CompilationCache::program_key(c, l);

    // Different layout width, same circuit.
    assert_ne!(key(&base, &layout(4)), key(&base, &layout(8)));

    // Different literal angle (variant) in an otherwise equal circuit.
    assert_ne!(key(&base, &layout(4)), key(&ansatz(4, 1), &layout(4)));

    // Operand order of a symmetric two-qubit gate is still a distinct
    // program: the key encodes operands, not gate semantics.
    let mut ab = Circuit::new(2);
    ab.cz(0, 1).measure_all();
    let mut ba = Circuit::new(2);
    ba.cz(1, 0).measure_all();
    assert_ne!(key(&ab, &layout(2)), key(&ba, &layout(2)));

    // Gate order matters.
    let mut xy = Circuit::new(2);
    xy.rx(0, 0.5);
    xy.ry(0, 0.25);
    let mut yx = Circuit::new(2);
    yx.ry(0, 0.25);
    yx.rx(0, 0.5);
    assert_ne!(key(&xy, &layout(2)), key(&yx, &layout(2)));

    // Parameter slot identity matters even at equal arity.
    let mut p0 = Circuit::new(2);
    p0.ry_param(0, ParamId::new(0)).ry_param(1, ParamId::new(1));
    let mut p1 = Circuit::new(2);
    p1.ry_param(0, ParamId::new(1)).ry_param(1, ParamId::new(0));
    assert_ne!(key(&p0, &layout(2)), key(&p1, &layout(2)));
}

/// Collision shape at the parameter level: vectors that encode to the
/// same 27-bit hardware codes share pulse/bound entries; vectors that
/// differ by at least one code never alias.
#[test]
fn pulse_keys_follow_hardware_resolution() {
    let cache = CompilationCache::new(16);
    let n = 4u32;
    let p = cache.compile(layout(n), &ansatz(n, 0)).unwrap();
    let base = params_for(n, 0);

    // Sub-resolution wiggle: identical codes, must hit both levels.
    let mut wiggled = base.clone();
    wiggled[2] += 1e-12;
    let a = cache.work_items(&p, &base).unwrap();
    let b = cache.work_items(&p, &wiggled).unwrap();
    assert!(b.is_hit());
    assert!(Arc::ptr_eq(a.items(), b.items()));
    let ba = cache.bound_circuit(&p, &base).unwrap();
    let bb = cache.bound_circuit(&p, &wiggled).unwrap();
    assert!(bb.is_hit());
    assert!(Arc::ptr_eq(ba.circuit(), bb.circuit()));

    // A full-resolution change in any single coordinate must miss.
    for i in 0..base.len() {
        let mut moved = base.clone();
        moved[i] += 0.25;
        let c = cache.work_items(&p, &moved).unwrap();
        assert!(!c.is_hit(), "coordinate {i} aliased");
        assert!(!Arc::ptr_eq(a.items(), c.items()));
    }
}

/// Wrong-length parameter vectors are rejected before touching any
/// cache level, at both the pulse and bound entry points.
#[test]
fn wrong_length_vectors_are_typed_errors_and_leave_no_trace() {
    let cache = CompilationCache::new(16);
    let n = 4u32;
    let p = cache.compile(layout(n), &ansatz(n, 0)).unwrap();
    let expected = p.program().num_params();
    for bad in [vec![0.5; expected - 1], vec![0.5; expected + 1], vec![]] {
        match cache.work_items(&p, &bad) {
            Err(CompileError::ParameterCountMismatch { expected: e, got }) => {
                assert_eq!(e, expected);
                assert_eq!(got, bad.len());
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        match cache.bound_circuit(&p, &bad) {
            Err(CompileError::ParameterCountMismatch { expected: e, got }) => {
                assert_eq!(e, expected);
                assert_eq!(got, bad.len());
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.pulse_hits + stats.pulse_misses, 0);
    assert_eq!(stats.bound_hits + stats.bound_misses, 0);
}

/// Eviction never corrupts results: with a pathologically small cache,
/// re-compiling an evicted circuit still matches the cache-free
/// reference byte for byte.
#[test]
fn eviction_preserves_byte_equality() {
    const N: u32 = 4;
    let cache = CompilationCache::new(2);
    let params = params_for(N, 0);
    for pass in 0..2 {
        for variant in 0..8u32 {
            let got = via_cache(&cache, N, variant, &params);
            let want = reference(N, variant, &params);
            assert_eq!(got, want, "pass {pass} variant {variant}");
        }
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > 0,
        "capacity 2 must evict across 8 variants"
    );
}
