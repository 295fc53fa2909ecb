//! Analog-Digital Interface latency model (data path ❹).
//!
//! The interface adds a fixed 100 ns latency per direction (Section
//! 7.1's baseline uses the same constant). `q_run` charges it twice: once
//! before the first shot, as the pulses cross to the chip, and once after
//! the last, as the readout crosses back. Streaming the pulse entries
//! through the SerDes to the DACs is not charged (DESIGN §5).

use qtenon_sim_engine::SimDuration;

/// The ADI timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdiModel {
    /// Fixed interface latency per direction.
    pub interface_latency: SimDuration,
}

impl Default for AdiModel {
    fn default() -> Self {
        AdiModel {
            interface_latency: SimDuration::from_ns(100),
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

    #[test]
    fn readout_uses_interface_latency() {
        let adi = AdiModel::default();
        assert_eq!(adi.readout_latency(), SimDuration::from_ns(100));
    }
}
