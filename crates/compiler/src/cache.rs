//! Fleet-scale content-addressed compilation/pulse cache.
//!
//! The paper's dynamic incremental compilation (Section 6.1) removes
//! recompiles *within* one run; at fleet scale most compilation work is
//! redundant *across* jobs, because thousands of queued jobs run
//! near-identical ansätze. The [`CompilationCache`] closes that gap: it
//! is shared by every worker in a `BatchScheduler` pool and maps
//! canonical content keys to immutable compiled artefacts, so a queue of
//! duplicated jobs compiles each distinct circuit once.
//!
//! Three levels are cached:
//!
//! - **programs** — `(circuit structure, QCC layout)` →
//!   [`CompiledProgram`]. The key encodes every operation (gate tag,
//!   operands, literal angle bits or `(param, scale)` bits) plus the
//!   full layout geometry, so equal keys imply equal compiler output.
//! - **pulses** — `(program key, encoded parameter vector)` → the
//!   resolved `(qubit, gate, data)` work-item stream. The parameter
//!   vector enters the key through the same 27-bit encoded register
//!   values that [`crate::ParameterDiff`] compares, so two parameter
//!   vectors share a pulse entry exactly when they are
//!   hardware-indistinguishable.
//! - **bound circuits** — the same pulse key → the parameter-bound
//!   circuit. Binding is a pure per-evaluation substitution, so
//!   duplicated jobs walking the same optimizer trajectory share every
//!   bound circuit too.
//!
//! Determinism rule: a hit must be byte-identical to a cold compile at
//! any pool width. Three properties enforce it. Keys store the *full*
//! canonical bytes and lookups compare them, so a 64-bit hash collision
//! can never alias two circuits. Each key is filled once: the first
//! lookup runs the compiler, a pure function of the key, and racing
//! lookups wait for its value instead of compiling again, so a level's
//! misses count the fills it ran and do not depend on the pool width.
//! And cached values are immutable behind `Arc`, so sharing cannot
//! mutate.
//!
//! Eviction is FIFO per level in the order keys were first claimed:
//! deterministic given that order, cheap, and a good fit for fleet
//! queues where near-identical jobs arrive near each other.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use qtenon_isa::{GateType, QccLayout, QubitId};
use qtenon_quantum::{Angle, Circuit, Gate};
use qtenon_sim_engine::MetricsRegistry;

use crate::program::{CompiledProgram, QtenonCompiler};
use crate::CompileError;

/// A cached, immutable pulse work-item stream.
pub type PulseSchedule = Arc<Vec<(QubitId, GateType, u32)>>;

/// Default entry budget per cache level (programs, pulses and bound
/// circuits each).
pub const DEFAULT_CAPACITY: usize = 1024;

/// Key-encoding version; bumped whenever the canonical byte layout
/// changes so stale persisted keys can never alias.
const KEY_VERSION: u8 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folded over 8-byte words (tail handled bytewise), seeded so
/// pulse hashes can continue from program hashes. Used only for
/// hash-table bucketing — equality always compares the full canonical
/// bytes, so hash quality affects speed, never correctness.
fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn gate_tag(gate: &Gate) -> u8 {
    match gate {
        Gate::H => 0,
        Gate::X => 1,
        Gate::Y => 2,
        Gate::Z => 3,
        Gate::S => 4,
        Gate::T => 5,
        Gate::Rx(_) => 6,
        Gate::Ry(_) => 7,
        Gate::Rz(_) => 8,
        Gate::Cx => 9,
        Gate::Cz => 10,
        Gate::Measure => 11,
    }
}

/// Canonical program key: every byte of circuit structure and layout
/// geometry that the compiler's output depends on.
///
/// The encoder is on the hot path of every cached compile (hits
/// included), so each operation is serialised into a fixed stack buffer
/// and appended with one `extend_from_slice`, and the output is sized
/// for the 23-byte worst case up front — a key for a 10k-op circuit
/// must cost far less than compiling it.
fn encode_program_key(circuit: &Circuit, layout: &QccLayout) -> Vec<u8> {
    let ops = circuit.operations();
    // Header: version(1) + n_qubits(4) + six u64 geometry fields(48) +
    // circuit qubits(4) + op count(4). Worst-case op: tag(1) +
    // qubit(4) + q2 flag/value(5) + angle tag(1) + param index(4) +
    // angle bits(8) = 23 bytes.
    let mut out = Vec::with_capacity(61 + ops.len() * 23);
    out.push(KEY_VERSION);
    // Layout geometry: compiled addresses depend on every field.
    push_u32(&mut out, layout.n_qubits());
    push_u64(&mut out, layout.program_entries_per_qubit());
    push_u64(&mut out, layout.pulse_entries_per_qubit());
    push_u64(&mut out, layout.measure_entries());
    push_u64(&mut out, layout.regfile_entries());
    push_u64(&mut out, layout.slt_ways());
    push_u64(&mut out, layout.slt_entries_per_way());
    // Circuit structure, in program order.
    push_u32(&mut out, circuit.n_qubits());
    push_u32(&mut out, ops.len() as u32);
    for op in ops {
        let mut buf = [0u8; 23];
        buf[0] = gate_tag(&op.gate);
        buf[1..5].copy_from_slice(&op.qubit.to_le_bytes());
        let mut n = 6; // buf[5] stays 0 for "no second operand"
        if let Some(q2) = op.qubit2 {
            buf[5] = 1;
            buf[6..10].copy_from_slice(&q2.to_le_bytes());
            n = 10;
        }
        if let Gate::Rx(a) | Gate::Ry(a) | Gate::Rz(a) = &op.gate {
            match a {
                Angle::Value(v) => {
                    buf[n] = 0;
                    buf[n + 1..n + 9].copy_from_slice(&v.to_bits().to_le_bytes());
                    n += 9;
                }
                Angle::Param { param, scale } => {
                    buf[n] = 1;
                    buf[n + 1..n + 5].copy_from_slice(&param.index().to_le_bytes());
                    buf[n + 5..n + 13].copy_from_slice(&scale.to_bits().to_le_bytes());
                    n += 13;
                }
            }
        }
        out.extend_from_slice(&buf[..n]);
    }
    out
}

/// The per-slot 27-bit register codes for `params` — the variable half
/// of a pulse key. Hash identity implies hardware identity, because two
/// parameter vectors that encode identically drive identical pulses.
fn encode_slot_codes(program: &CompiledProgram, params: &[f64]) -> Result<Vec<u8>, CompileError> {
    let codes = program.slot_codes(params)?;
    let mut out = Vec::with_capacity(codes.len() * 4);
    for code in codes {
        push_u32(&mut out, code);
    }
    Ok(out)
}

/// Interned canonical program key: the full bytes plus their hash,
/// computed once at interning so every probe and pulse-key derivation
/// reuses it instead of re-hashing ~20 bytes per operation.
#[derive(Debug, Clone)]
struct ProgramKey {
    hash: u64,
    bytes: Arc<[u8]>,
}

impl ProgramKey {
    fn new(bytes: Vec<u8>) -> Self {
        let hash = hash_bytes(FNV_OFFSET, &bytes);
        ProgramKey {
            hash,
            bytes: bytes.into(),
        }
    }
}

impl PartialEq for ProgramKey {
    fn eq(&self, other: &Self) -> bool {
        // Full-byte comparison (behind a pointer fast path) keeps hash
        // collisions harmless: they cost a memcmp, never an alias.
        self.hash == other.hash
            && (Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes)
    }
}

impl Eq for ProgramKey {}

impl std::hash::Hash for ProgramKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Canonical pulse key: the program key plus the encoded parameter
/// codes. The program half is shared by reference, so building one
/// costs O(slots), not O(circuit) — equality still compares every
/// canonical byte of both halves.
#[derive(Debug, Clone)]
struct PulseKey {
    hash: u64,
    program: ProgramKey,
    codes: Arc<[u8]>,
}

/// Domain separator folded between the program hash and the slot codes
/// so a pulse key can never hash like a program key.
const PULSE_DOMAIN: u64 = 0xA5;

impl PulseKey {
    fn new(program: ProgramKey, codes: Vec<u8>) -> Self {
        let hash = hash_bytes(program.hash ^ PULSE_DOMAIN, &codes);
        PulseKey {
            hash,
            program,
            codes: codes.into(),
        }
    }

    /// Approximate footprint charged to the bytes counter.
    fn cost(&self) -> u64 {
        (self.program.bytes.len() + 1 + self.codes.len()) as u64
    }
}

impl PartialEq for PulseKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.codes == other.codes && self.program == other.program
    }
}

impl Eq for PulseKey {}

impl std::hash::Hash for PulseKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A compiled program handed out by the cache, carrying its canonical
/// key so pulse lookups can reuse it.
#[derive(Debug, Clone)]
pub struct CachedProgram {
    program: Arc<CompiledProgram>,
    /// The source circuit, shared so bound-circuit misses can bind
    /// without the caller re-supplying it.
    source: Arc<Circuit>,
    key: ProgramKey,
    hit: bool,
}

impl CachedProgram {
    /// The shared compiled program.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.program
    }

    /// Whether this lookup was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.hit
    }
}

/// A parameter-bound circuit handed out by the cache: the pure result
/// of substituting a hardware-identical parameter vector into the
/// cached program's source circuit.
#[derive(Debug, Clone)]
pub struct CachedBound {
    circuit: Arc<Circuit>,
    hit: bool,
}

impl CachedBound {
    /// The shared bound circuit.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// Whether this lookup was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.hit
    }
}

/// A pulse work-item stream handed out by the cache.
#[derive(Debug, Clone)]
pub struct CachedPulses {
    items: PulseSchedule,
    hit: bool,
}

impl CachedPulses {
    /// The shared work-item stream.
    pub fn items(&self) -> &PulseSchedule {
        &self.items
    }

    /// Whether this lookup was served from the cache.
    pub fn is_hit(&self) -> bool {
        self.hit
    }
}

impl std::ops::Deref for CachedPulses {
    type Target = [(QubitId, GateType, u32)];
    fn deref(&self) -> &Self::Target {
        &self.items
    }
}

/// A fill-once cell: empty until a fill succeeds, then fixed. Its lock
/// is held for the whole fill, so racing lookups of one key wait for
/// the first instead of filling again.
type Slot<V> = Arc<Mutex<Option<V>>>;

/// A level's fill-once slots plus their keys in claim order, for FIFO
/// eviction.
type Slots<K, V> = (HashMap<K, Slot<V>>, VecDeque<K>);

/// One cache level. Its lock covers only claiming and evicting slots
/// and is never held during a fill.
struct Level<K, V> {
    slots: Mutex<Slots<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K, V> Level<K, V>
where
    K: std::hash::Hash + Eq + Clone,
    V: Clone,
{
    fn new(capacity: usize) -> Self {
        Level {
            slots: Mutex::new((HashMap::new(), VecDeque::new())),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The value for `key` and whether it was a hit. The lookup that
    /// finds the slot empty runs `fill` and counts a miss, even when
    /// the fill errors; every other lookup counts a hit. A fill that
    /// errors or panics leaves the slot empty, and the next lookup
    /// waiting on it fills it.
    fn get_or_fill<E>(&self, key: &K, fill: impl FnOnce() -> Result<V, E>) -> Result<(V, bool), E> {
        let slot = {
            let mut guard = self.slots.lock().expect("cache level poisoned");
            let (slots, order) = &mut *guard;
            match slots.get(key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    if slots.len() >= self.capacity {
                        let oldest = order.pop_front().expect("every slot's key is queued");
                        slots.remove(&oldest);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    let slot = Slot::default();
                    order.push_back(key.clone());
                    slots.insert(key.clone(), Arc::clone(&slot));
                    slot
                }
            }
        };
        // A panicking fill poisons the slot but never writes it, so the
        // `None` it leaves is valid and the next lookup fills it.
        let mut value = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(v) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((v.clone(), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = fill()?;
        *value = Some(v.clone());
        Ok((v, false))
    }
}

/// Point-in-time cache statistics, for telemetry export and studies.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Program-level hits.
    pub program_hits: u64,
    /// Program-level misses (cold compiles).
    pub program_misses: u64,
    /// Pulse-level hits.
    pub pulse_hits: u64,
    /// Pulse-level misses (cold work-item generation).
    pub pulse_misses: u64,
    /// Bound-circuit hits.
    pub bound_hits: u64,
    /// Bound-circuit misses (cold parameter binds).
    pub bound_misses: u64,
    /// Entries displaced by FIFO eviction (all levels).
    pub evictions: u64,
    /// Approximate bytes inserted (all levels). Cumulative: eviction
    /// does not subtract.
    pub bytes: u64,
}

impl CacheStats {
    /// Total lookups across all levels.
    pub fn lookups(&self) -> u64 {
        self.program_hits
            + self.program_misses
            + self.pulse_hits
            + self.pulse_misses
            + self.bound_hits
            + self.bound_misses
    }

    /// Hit fraction across all levels; `None` for zero lookups (so
    /// renderers can print a fixed placeholder instead of a NaN).
    pub fn hit_rate(&self) -> Option<f64> {
        let lookups = self.lookups();
        if lookups == 0 {
            None
        } else {
            Some((self.program_hits + self.pulse_hits + self.bound_hits) as f64 / lookups as f64)
        }
    }

    /// One-line human rendering. An idle cache prints a fixed
    /// placeholder — never a NaN or a division by zero.
    pub fn describe(&self) -> String {
        match self.hit_rate() {
            None => "compile cache: idle (0 lookups)".to_string(),
            Some(rate) => format!(
                "compile cache: {}/{} lookups hit ({:.1}%), {} evictions, {} bytes inserted",
                self.program_hits + self.pulse_hits + self.bound_hits,
                self.lookups(),
                rate * 100.0,
                self.evictions,
                self.bytes,
            ),
        }
    }

    /// Publishes the stats under `cache.fleet.*`.
    pub fn export(&self, m: &mut MetricsRegistry) {
        m.counter("cache.fleet.program.hits", self.program_hits);
        m.counter("cache.fleet.program.misses", self.program_misses);
        m.counter("cache.fleet.pulse.hits", self.pulse_hits);
        m.counter("cache.fleet.pulse.misses", self.pulse_misses);
        m.counter("cache.fleet.bound.hits", self.bound_hits);
        m.counter("cache.fleet.bound.misses", self.bound_misses);
        m.counter("cache.fleet.evictions", self.evictions);
        m.counter("cache.fleet.bytes", self.bytes);
        m.gauge("cache.fleet.hit_rate", self.hit_rate().unwrap_or_default());
    }
}

/// The shared content-addressed compilation/pulse cache.
///
/// # Examples
///
/// ```
/// use qtenon_compiler::CompilationCache;
/// use qtenon_isa::QccLayout;
/// use qtenon_quantum::{Circuit, ParamId};
///
/// let cache = CompilationCache::new(64);
/// let layout = QccLayout::for_qubits(2)?;
/// let mut c = Circuit::new(2);
/// c.ry_param(0, ParamId::new(0)).cz(0, 1).measure_all();
///
/// let cold = cache.compile(layout, &c)?;
/// let hit = cache.compile(layout, &c)?;
/// assert!(!cold.is_hit() && hit.is_hit());
/// assert_eq!(cold.program(), hit.program());
///
/// let items = cache.work_items(&hit, &[0.3])?;
/// assert_eq!(items.items(), cache.work_items(&cold, &[0.3])?.items());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CompilationCache {
    programs: Level<ProgramKey, (Arc<CompiledProgram>, Arc<Circuit>)>,
    pulses: Level<PulseKey, PulseSchedule>,
    bounds: Level<PulseKey, Arc<Circuit>>,
    bytes: AtomicU64,
}

impl std::fmt::Debug for CompilationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompilationCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CompilationCache {
    /// Creates a cache holding up to `capacity` entries per level.
    pub fn new(capacity: usize) -> Self {
        CompilationCache {
            programs: Level::new(capacity),
            pulses: Level::new(capacity),
            bounds: Level::new(capacity),
            bytes: AtomicU64::new(0),
        }
    }

    /// Creates a cache ready to share across a worker pool.
    pub fn shared(capacity: usize) -> Arc<Self> {
        Arc::new(CompilationCache::new(capacity))
    }

    /// The canonical program key for a circuit under a layout (exposed
    /// for collision-shape tests and per-job attribution).
    pub fn program_key(circuit: &Circuit, layout: &QccLayout) -> Vec<u8> {
        encode_program_key(circuit, layout)
    }

    /// Compiles `circuit` for `layout`, serving from the cache when an
    /// identical compile is already shared.
    ///
    /// # Errors
    ///
    /// Propagates any [`CompileError`] from a cold compile; hits cannot
    /// fail.
    pub fn compile(
        &self,
        layout: QccLayout,
        circuit: &Circuit,
    ) -> Result<CachedProgram, CompileError> {
        let key = ProgramKey::new(encode_program_key(circuit, &layout));
        let ((program, source), hit) = self.programs.get_or_fill(&key, || {
            let compiled = QtenonCompiler::new(layout).compile(circuit)?;
            let cost = program_bytes(&compiled) + circuit_bytes(circuit) + key.bytes.len() as u64;
            self.bytes.fetch_add(cost, Ordering::Relaxed);
            Ok((Arc::new(compiled), Arc::new(circuit.clone())))
        })?;
        Ok(CachedProgram {
            program,
            source,
            key,
            hit,
        })
    }

    /// Resolves the parameter-bound circuit for `params`, serving from
    /// the cache when a hardware-identical parameter vector already
    /// bound it. Binding is a pure function of `(circuit, params)`, so
    /// a hit is byte-identical to a cold bind.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ParameterCountMismatch`] on a
    /// wrong-length vector.
    pub fn bound_circuit(
        &self,
        cached: &CachedProgram,
        params: &[f64],
    ) -> Result<CachedBound, CompileError> {
        let codes = encode_slot_codes(cached.program(), params)?;
        let key = PulseKey::new(cached.key.clone(), codes);
        let mismatch = |_| CompileError::ParameterCountMismatch {
            expected: cached.program().num_params(),
            got: params.len(),
        };
        let (circuit, hit) = self.bounds.get_or_fill(&key, || {
            let bound = cached.source.bind(params).map_err(mismatch)?;
            let cost = circuit_bytes(&bound) + key.cost();
            self.bytes.fetch_add(cost, Ordering::Relaxed);
            Ok(Arc::new(bound))
        })?;
        Ok(CachedBound { circuit, hit })
    }

    /// Resolves the pulse work-item stream for `params`, serving from
    /// the cache when a hardware-identical parameter vector already
    /// generated it.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::ParameterCountMismatch`] on a wrong-length
    /// vector, and propagates work-item generation errors on a miss.
    pub fn work_items(
        &self,
        cached: &CachedProgram,
        params: &[f64],
    ) -> Result<CachedPulses, CompileError> {
        let codes = encode_slot_codes(cached.program(), params)?;
        let key = PulseKey::new(cached.key.clone(), codes);
        let (items, hit) = self.pulses.get_or_fill(&key, || {
            let generated = cached.program().work_items(params)?;
            let cost = pulse_bytes(&generated) + key.cost();
            self.bytes.fetch_add(cost, Ordering::Relaxed);
            Ok(Arc::new(generated))
        })?;
        Ok(CachedPulses { items, hit })
    }

    /// A consistent-enough snapshot of the counters for telemetry.
    pub fn stats(&self) -> CacheStats {
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        CacheStats {
            program_hits: count(&self.programs.hits),
            program_misses: count(&self.programs.misses),
            pulse_hits: count(&self.pulses.hits),
            pulse_misses: count(&self.pulses.misses),
            bound_hits: count(&self.bounds.hits),
            bound_misses: count(&self.bounds.misses),
            evictions: count(&self.programs.evictions)
                + count(&self.pulses.evictions)
                + count(&self.bounds.evictions),
            bytes: count(&self.bytes),
        }
    }
}

/// Approximate in-memory footprint of a compiled program: program
/// entries pack to 9-byte records, slots are `(param, scale)` pairs.
fn program_bytes(program: &CompiledProgram) -> u64 {
    32 + program.total_entries() * 9
        + program.slots().len() as u64 * 16
        + program.measured_qubits().len() as u64 * 4
}

/// Approximate in-memory footprint of a pulse work-item stream.
fn pulse_bytes(items: &[(QubitId, GateType, u32)]) -> u64 {
    16 + items.len() as u64 * 9
}

/// Approximate in-memory footprint of a circuit: per-op gate, operands,
/// and angle storage.
fn circuit_bytes(circuit: &Circuit) -> u64 {
    32 + circuit.operations().len() as u64 * 24
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtenon_quantum::ParamId;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn layout() -> QccLayout {
        QccLayout::for_qubits(4).unwrap()
    }

    fn ansatz() -> Circuit {
        let mut c = Circuit::new(4);
        c.ry_param(0, ParamId::new(0))
            .rx_param(1, ParamId::new(1))
            .cz(0, 1)
            .measure_all();
        c
    }

    #[test]
    fn cold_then_hit_shares_one_program() {
        let cache = CompilationCache::new(16);
        let cold = cache.compile(layout(), &ansatz()).unwrap();
        let hit = cache.compile(layout(), &ansatz()).unwrap();
        assert!(!cold.is_hit());
        assert!(hit.is_hit());
        assert!(Arc::ptr_eq(cold.program(), hit.program()));
        let stats = cache.stats();
        assert_eq!(stats.program_hits, 1);
        assert_eq!(stats.program_misses, 1);
    }

    #[test]
    fn pulse_level_reuses_hardware_identical_vectors() {
        let cache = CompilationCache::new(16);
        let p = cache.compile(layout(), &ansatz()).unwrap();
        let a = cache.work_items(&p, &[0.5, 0.25]).unwrap();
        // Below 27-bit resolution: encodes identically, must hit.
        let b = cache.work_items(&p, &[0.5 + 1e-12, 0.25]).unwrap();
        assert!(b.is_hit());
        assert!(Arc::ptr_eq(a.items(), b.items()));
        let c = cache.work_items(&p, &[0.9, 0.25]).unwrap();
        assert!(!c.is_hit());
        assert!(!Arc::ptr_eq(a.items(), c.items()));
        let stats = cache.stats();
        assert_eq!(stats.pulse_hits, 1);
        assert_eq!(stats.pulse_misses, 2);
    }

    #[test]
    fn wrong_length_vectors_never_touch_the_pulse_cache() {
        let cache = CompilationCache::new(16);
        let p = cache.compile(layout(), &ansatz()).unwrap();
        assert!(cache.work_items(&p, &[0.5]).is_err());
        assert!(cache.work_items(&p, &[0.5, 0.25, 0.125]).is_err());
        assert_eq!(cache.stats().pulse_misses, 0);
    }

    #[test]
    fn same_structure_different_params_do_not_collide() {
        let cache = CompilationCache::new(16);
        let p = cache.compile(layout(), &ansatz()).unwrap();
        let a = cache.work_items(&p, &[0.5, 0.25]).unwrap();
        let b = cache.work_items(&p, &[0.25, 0.5]).unwrap();
        assert_ne!(a.items(), b.items());
    }

    #[test]
    fn same_params_different_layout_do_not_collide() {
        let wide = QccLayout::for_qubits(8).unwrap();
        let key_a = CompilationCache::program_key(&ansatz(), &layout());
        let key_b = CompilationCache::program_key(&ansatz(), &wide);
        assert_ne!(key_a, key_b);
    }

    #[test]
    fn literal_and_parameterised_angles_do_not_collide() {
        let mut lit = Circuit::new(2);
        lit.ry(0, 0.5);
        let mut par = Circuit::new(2);
        par.ry_param(0, ParamId::new(0));
        let l = QccLayout::for_qubits(2).unwrap();
        assert_ne!(
            CompilationCache::program_key(&lit, &l),
            CompilationCache::program_key(&par, &l)
        );
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        let cache = CompilationCache::new(1);
        // Distinct single-qubit circuits with different literal angles:
        // in a 1-entry level every claim after the first evicts.
        for i in 0..64 {
            let mut c = Circuit::new(1);
            c.rx(0, i as f64 * 0.1);
            cache
                .compile(QccLayout::for_qubits(1).unwrap(), &c)
                .unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.program_misses, 64);
        assert_eq!(stats.evictions, 63);
    }

    /// Blocks until `waiters` lookups besides the filler hold `key`'s
    /// slot. Probes with `try_lock`, so a level lock held during the
    /// fill fails the deadline instead of hanging.
    fn await_waiters(level: &Level<u32, u32>, key: u32, waiters: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(guard) = level.slots.try_lock() {
                // The map, the filler, the waiters and this probe.
                if Arc::strong_count(&guard.0[&key]) >= waiters + 2 {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "no lookup waited on the slot");
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_failed_or_panicking_fill_hands_the_slot_to_its_waiter() {
        for panics in [false, true] {
            let level = Level::<u32, u32>::new(4);
            let (filling, started) = mpsc::channel();
            std::thread::scope(|scope| {
                let first = scope.spawn(|| {
                    level.get_or_fill(&7, || {
                        filling.send(()).expect("test thread listens");
                        await_waiters(&level, 7, 1);
                        if panics {
                            panic!("deliberate fill panic");
                        }
                        Err("deliberate fill error")
                    })
                });
                started.recv().expect("first lookup claims the slot");
                let waiter = scope.spawn(|| level.get_or_fill(&7, || Ok::<_, &str>(42)));
                match first.join() {
                    Ok(result) => assert!(!panics && result.is_err()),
                    Err(_) => assert!(panics),
                }
                assert_eq!(waiter.join().expect("waiter returns"), Ok((42, false)));
            });
            assert_eq!(
                level.get_or_fill(&7, || Err("filled twice")),
                Ok((42, true))
            );
            let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
            assert_eq!((count(&level.misses), count(&level.hits)), (2, 1));
        }
    }

    #[test]
    fn empty_cache_stats_render_without_nan() {
        let stats = CompilationCache::new(4).stats();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.hit_rate(), None);
        assert_eq!(stats.describe(), "compile cache: idle (0 lookups)");
        let mut m = MetricsRegistry::new();
        stats.export(&mut m);
        match m.get("cache.fleet.hit_rate") {
            Some(qtenon_sim_engine::MetricValue::Gauge(v)) => assert_eq!(*v, 0.0),
            other => panic!("missing hit_rate gauge: {other:?}"),
        }
    }
}
