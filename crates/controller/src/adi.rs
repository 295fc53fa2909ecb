//! SerDes and Analog-Digital Interface bandwidth model (data path ❹).
//!
//! Each qubit drives two 16-bit 2 GHz DACs, demanding 64 bit/ns
//! (8 GB/s) per qubit. A 640-bit `.pulse` entry is split into ten 64-bit
//! buffers and serialised at the DAC rate, so one entry streams in 10 ns
//! per qubit. The interface itself adds a fixed 100 ns latency per
//! direction (Section 7.1's baseline uses the same constant).

use qtenon_sim_engine::SimDuration;

/// The ADI/SerDes timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdiModel {
    /// Fixed interface latency per direction.
    pub interface_latency: SimDuration,
    /// Per-qubit output bandwidth in bits per nanosecond.
    pub bits_per_ns_per_qubit: u64,
    /// Width of one pulse entry in bits.
    pub pulse_entry_bits: u64,
}

impl Default for AdiModel {
    fn default() -> Self {
        AdiModel {
            interface_latency: SimDuration::from_ns(100),
            bits_per_ns_per_qubit: 64, // 2 DACs × 16 bit × 2 GHz
            pulse_entry_bits: 640,
        }
    }
}

impl AdiModel {
    /// Latency for one measurement result to cross back from the chip.
    pub fn readout_latency(&self) -> SimDuration {
        self.interface_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl AdiModel {
        /// Time to stream one pulse entry to one qubit's DACs.
        fn entry_stream_time(&self) -> SimDuration {
            SimDuration::from_ns(self.pulse_entry_bits / self.bits_per_ns_per_qubit)
        }

        /// Time to stream `entries` pulse entries to one qubit (entries for
        /// *different* qubits stream in parallel on their own DAC pairs).
        fn stream_time(&self, entries: u64) -> SimDuration {
            self.interface_latency + self.entry_stream_time() * entries
        }
    }

    #[test]
    fn entry_streams_in_10ns() {
        let adi = AdiModel::default();
        assert_eq!(adi.entry_stream_time(), SimDuration::from_ns(10));
    }

    #[test]
    fn per_qubit_bandwidth_is_8_gb_per_sec() {
        let adi = AdiModel::default();
        // 8 bytes per ns is 8 GB/s.
        assert_eq!(adi.bits_per_ns_per_qubit / 8, 8);
    }

    #[test]
    fn stream_time_includes_interface_latency() {
        let adi = AdiModel::default();
        assert_eq!(adi.stream_time(0), SimDuration::from_ns(100));
        assert_eq!(adi.stream_time(5), SimDuration::from_ns(150));
    }

    #[test]
    fn readout_uses_interface_latency() {
        let adi = AdiModel::default();
        assert_eq!(adi.readout_latency(), SimDuration::from_ns(100));
    }
}
