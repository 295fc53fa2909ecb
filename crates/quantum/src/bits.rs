//! Packed measurement bitstrings.
//!
//! The scalability experiments run up to 320 qubits, past the width of any
//! primitive integer, so measurement outcomes are stored as packed 64-bit
//! words. One [`BitString`] is one shot's outcome across all measured
//! qubits.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Words stored inline before a bitstring spills to the heap: 128 bits
/// covers every benchmark width, so sampling a shot never allocates
/// there.
const INLINE_WORDS: usize = 2;

/// Packed word storage: inline up to [`INLINE_WORDS`] words, boxed
/// beyond. Unused inline words stay zero.
#[derive(Debug, Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

/// A fixed-width string of measurement bits, packed into 64-bit words.
///
/// Bit `i` is qubit `i`'s measured value. Up to 128 bits live inline, so
/// creating, cloning and dropping a bitstring of that width never touches
/// the heap; equality and hashing see only the length and the words, so
/// the storage choice is unobservable.
///
/// # Examples
///
/// ```
/// use qtenon_quantum::BitString;
///
/// let mut bits = BitString::zeros(70);
/// bits.set(69, true);
/// assert!(bits.get(69));
/// assert_eq!(bits.count_ones(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BitString {
    len: u32,
    words: Words,
}

impl Default for BitString {
    fn default() -> Self {
        BitString::zeros(0)
    }
}

impl PartialEq for BitString {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words() == other.words()
    }
}

impl Eq for BitString {}

impl Hash for BitString {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.words().hash(state);
    }
}

impl BitString {
    /// Creates an all-zero bitstring of `len` bits.
    pub fn zeros(len: u32) -> Self {
        let n = (len as usize).div_ceil(64);
        let words = if n <= INLINE_WORDS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; n].into_boxed_slice())
        };
        BitString { len, words }
    }

    /// Creates a bitstring from the low `len` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: u32) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits");
        let mut out = BitString::zeros(len);
        if len > 0 {
            let mask = if len == 64 { u64::MAX } else { (1 << len) - 1 };
            out.words_mut()[0] = value & mask;
        }
        out
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        (self.words()[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: u32, value: bool) {
        assert!(i < self.len, "bit index {i} out of range ({})", self.len);
        let word = &mut self.words_mut()[(i / 64) as usize];
        if value {
            *word |= 1 << (i % 64);
        } else {
            *word &= !(1 << (i % 64));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Parity (XOR) of the bits at `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub(crate) fn parity_of(&self, indices: &[u32]) -> bool {
        indices.iter().fold(false, |acc, &i| acc ^ self.get(i))
    }

    /// The packed words, least-significant first.
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &w[..(self.len as usize).div_ceil(64)],
            Words::Heap(w) => w,
        }
    }

    /// The packed words, mutably. Bits at or past `len` in the last word
    /// must stay zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        let n = (self.len as usize).div_ceil(64);
        match &mut self.words {
            Words::Inline(w) => &mut w[..n],
            Words::Heap(w) => w,
        }
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Most-significant qubit first, like ket notation.
        for i in (0..self.len).rev() {
            write!(f, "{}", self.get(i) as u8)?;
        }
        if self.len == 0 {
            write!(f, "ε")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitString {
        /// The number of bits.
        pub(crate) fn len(&self) -> u32 {
            self.len
        }

        /// The number of bytes needed to transmit this bitstring (the paper's
        /// Algorithm 1 uses ⌈N/8⌉ bytes per shot).
        fn byte_len(&self) -> u64 {
            (self.len as u64).div_ceil(8)
        }
    }

    #[test]
    fn set_get_across_word_boundary() {
        let mut b = BitString::zeros(130);
        b.set(0, true);
        b.set(63, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(65));
        assert_eq!(b.count_ones(), 4);
        b.set(64, false);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn from_u64_masks() {
        let b = BitString::from_u64(0b1011, 3);
        assert_eq!(b.count_ones(), 2); // top bit masked off
        assert!(b.get(0) && b.get(1) && !b.get(2));
    }

    #[test]
    fn parity() {
        let b = BitString::from_u64(0b101, 3);
        assert!(!b.parity_of(&[0, 2]));
        assert!(b.parity_of(&[0, 1]));
        assert!(!b.parity_of(&[]));
    }

    #[test]
    fn byte_len_matches_algorithm1() {
        assert_eq!(BitString::zeros(64).byte_len(), 8);
        assert_eq!(BitString::zeros(65).byte_len(), 9);
        assert_eq!(BitString::zeros(8).byte_len(), 1);
    }

    #[test]
    fn display_msb_first() {
        let b = BitString::from_u64(0b01, 2);
        assert_eq!(b.to_string(), "01");
        assert_eq!(BitString::zeros(0).to_string(), "ε");
    }

    /// Hash of a value under the std hasher.
    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_and_heap_storage_match_a_plain_word_vector() {
        // Either side of the one-word, inline (two-word) and heap limits.
        for len in [0u32, 1, 63, 64, 65, 128, 129, 320] {
            let mut bits = BitString::zeros(len);
            let mut reference = vec![0u64; (len as usize).div_ceil(64)];
            let mut state = u64::from(len);
            for _ in 0..4 * len {
                let i = (qtenon_sim_engine::rng::splitmix64(&mut state) % u64::from(len)) as u32;
                let value = qtenon_sim_engine::rng::unit(&mut state) < 0.6;
                bits.set(i, value);
                let word = &mut reference[(i / 64) as usize];
                *word = (*word & !(1 << (i % 64))) | (u64::from(value) << (i % 64));
            }
            assert_eq!(bits.words(), &reference[..], "{len} bits");
            for i in 0..len {
                assert_eq!(
                    bits.get(i),
                    (reference[(i / 64) as usize] >> (i % 64)) & 1 == 1
                );
            }
            let ones: u32 = reference.iter().map(|w| w.count_ones()).sum();
            assert_eq!(bits.count_ones(), ones, "{len} bits");
            assert_eq!(bits.byte_len(), u64::from(len).div_ceil(8));
            let text: String = (0..len)
                .rev()
                .map(|i| {
                    if (reference[(i / 64) as usize] >> (i % 64)) & 1 == 1 {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            let expected = if len == 0 { "ε".to_string() } else { text };
            assert_eq!(bits.to_string(), expected, "{len} bits");

            // Equality and hashing see only (len, words).
            let copy = bits.clone();
            assert_eq!(copy, bits);
            assert_eq!(hash_of(&copy), hash_of(&bits));
            assert_eq!(hash_of(&bits), hash_of(&(len, &reference[..])));
            assert_ne!(BitString::zeros(len), BitString::zeros(len + 1));
            if len > 0 {
                let mut flipped = bits.clone();
                flipped.set(len - 1, !bits.get(len - 1));
                assert_ne!(flipped, bits, "{len} bits");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let b = BitString::zeros(4);
        b.get(4);
    }
}
