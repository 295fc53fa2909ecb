//! QSpace: the DRAM region backing SLT evictions.
//!
//! QSpace reserves 2²⁰ × 4 B = 4 MB of DRAM per qubit (Fig. 7 ❸), indexed
//! by the 20-bit parameter tag. When the per-qubit SLT evicts an entry it
//! writes the `(tag → pulse QAddress)` mapping back here; on an SLT miss
//! the controller consults QSpace before allocating a fresh pulse address.
//! The region is shielded from the CPU — only the controller's private
//! data path ❸ reaches it.
//!
//! The model stores mappings sparsely (a dense 4 MB/qubit allocation would
//! be wasteful in a simulator) in one table for the whole system, keyed by
//! `(qubit, tag)` and sized once at construction; `ENTRIES_PER_QUBIT`
//! keeps the architectural capacity of 2²⁰ entries of 4 B per qubit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use qtenon_isa::QAddress;

/// Capacity in entries per qubit: one per 20-bit tag.
pub(crate) const ENTRIES_PER_QUBIT: u64 = 1 << 20;

/// Mappings per qubit the table is reserved for (it rounds up). A
/// two-iteration benchmark job at 32–128 qubits writes back at most 34 per
/// qubit over its whole run, so in practice the table is sized once per
/// system.
const RESERVED_PER_QUBIT: usize = 32;

/// Hashes a packed `(qubit, tag)` key with one folded multiply by the
/// golden-ratio constant, so the qubit bits reach the low bits that pick
/// a bucket. The table is only probed, filled, cleared and counted, never
/// iterated, so no output depends on the hasher; SipHash's resistance to
/// chosen keys buys nothing for controller-internal tags.
#[derive(Debug, Clone, Copy, Default)]
struct TagHasher(u64);

impl Hasher for TagHasher {
    fn finish(&self) -> u64 {
        let product = u128::from(self.0) * 0x9E37_79B9_7F4A_7C15;
        (product as u64) ^ ((product >> 64) as u64)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// The system's tag store, keyed by [`key`].
type TagMap = HashMap<u64, QSpaceEntry, BuildHasherDefault<TagHasher>>;

/// One qubit's stored tag→pulse mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QSpaceEntry {
    /// The pulse address the tag maps to.
    pub qaddr: QAddress,
}

/// The QSpace tag store of every qubit.
///
/// # Examples
///
/// ```
/// use qtenon_isa::QAddress;
/// use qtenon_mem::QSpace;
///
/// let mut qs = QSpace::new(64);
/// qs.store(3, 0x1234, QAddress::new(0x80010)?);
/// assert_eq!(qs.lookup(3, 0x1234).unwrap().qaddr.raw(), 0x80010);
/// assert!(qs.lookup(3, 0x9999).is_none());
/// # Ok::<(), qtenon_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct QSpace {
    table: TagMap,
    n_qubits: u32,
    reads: u64,
    writes: u64,
}

/// The table key of `tag` in `qubit`'s region: the qubit above the
/// 20 tag bits.
fn key(qubit: u32, tag: u32) -> u64 {
    (u64::from(qubit) << 20) | u64::from(tag)
}

impl QSpace {
    /// Creates an empty QSpace for `n_qubits` qubits.
    pub fn new(n_qubits: u32) -> Self {
        QSpace {
            table: TagMap::with_capacity_and_hasher(
                n_qubits as usize * RESERVED_PER_QUBIT,
                BuildHasherDefault::default(),
            ),
            n_qubits,
            reads: 0,
            writes: 0,
        }
    }

    /// Panics unless `(qubit, tag)` names an entry of this QSpace.
    fn check(&self, qubit: u32, tag: u32) {
        assert!(qubit < self.n_qubits, "qubit {qubit} outside QSpace");
        assert!((tag as u64) < ENTRIES_PER_QUBIT, "tag exceeds 20 bits");
    }

    /// Looks up a tag for one qubit.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` or `tag` is out of range.
    pub fn lookup(&mut self, qubit: u32, tag: u32) -> Option<QSpaceEntry> {
        self.check(qubit, tag);
        self.reads += 1;
        self.table.get(&key(qubit, tag)).copied()
    }

    /// Stores (or overwrites) a tag→pulse mapping for one qubit.
    ///
    /// # Panics
    ///
    /// Panics if `qubit` or `tag` is out of range.
    pub fn store(&mut self, qubit: u32, tag: u32, qaddr: QAddress) {
        self.check(qubit, tag);
        self.writes += 1;
        self.table.insert(key(qubit, tag), QSpaceEntry { qaddr });
    }

    /// Total QSpace reads performed (data path ❸ traffic, read side).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total QSpace writes performed (data path ❸ traffic, write side).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Clears all mappings and statistics, keeping the table's storage.
    pub fn reset(&mut self) {
        self.table.clear();
        self.reads = 0;
        self.writes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QSpace {
        /// Number of valid mappings currently held for one qubit.
        ///
        /// # Panics
        ///
        /// Panics if `qubit` is out of range.
        fn occupancy(&self, qubit: u32) -> usize {
            let region = key(qubit, 0)..key(qubit + 1, 0);
            self.table.keys().filter(|k| region.contains(k)).count()
        }
    }

    /// Bytes per entry (a packed 30-bit QAddress plus a valid bit).
    const BYTES_PER_ENTRY: u64 = 4;

    fn qa(raw: u64) -> QAddress {
        QAddress::new(raw).unwrap()
    }

    #[test]
    fn store_lookup_round_trip() {
        let mut qs = QSpace::new(4);
        qs.store(0, 100, qa(0x80000));
        qs.store(0, 200, qa(0x80001));
        qs.store(1, 100, qa(0x80400));
        assert_eq!(qs.lookup(0, 100).unwrap().qaddr, qa(0x80000));
        assert_eq!(qs.lookup(0, 200).unwrap().qaddr, qa(0x80001));
        // Per-qubit isolation: qubit 1's tag 100 differs from qubit 0's.
        assert_eq!(qs.lookup(1, 100).unwrap().qaddr, qa(0x80400));
        assert!(qs.lookup(2, 100).is_none());
    }

    #[test]
    fn overwrite_replaces() {
        let mut qs = QSpace::new(1);
        qs.store(0, 7, qa(1));
        qs.store(0, 7, qa(2));
        assert_eq!(qs.lookup(0, 7).unwrap().qaddr, qa(2));
        assert_eq!(qs.occupancy(0), 1);
    }

    #[test]
    fn traffic_counters() {
        let mut qs = QSpace::new(1);
        qs.store(0, 1, qa(1));
        qs.lookup(0, 1);
        qs.lookup(0, 2);
        assert_eq!(qs.writes(), 1);
        assert_eq!(qs.reads(), 2);
        qs.reset();
        assert_eq!(qs.reads() + qs.writes(), 0);
        assert_eq!(qs.occupancy(0), 0);
    }

    #[test]
    fn reserved_capacity_is_4mb_per_qubit() {
        assert_eq!(ENTRIES_PER_QUBIT * BYTES_PER_ENTRY, 4 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "qubit 1 outside QSpace")]
    fn out_of_range_qubit_panics() {
        let mut qs = QSpace::new(1);
        qs.lookup(1, 0);
    }

    #[test]
    #[should_panic(expected = "tag exceeds 20 bits")]
    fn oversized_tag_panics() {
        let mut qs = QSpace::new(1);
        qs.store(0, 1 << 20, qa(0));
    }
}
