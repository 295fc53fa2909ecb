//! The host↔FPGA Ethernet/UDP link.
//!
//! The paper's baseline connects host and controller with 100-gigabit
//! Ethernet under UDP, omitting switches — "optimal conditions". Even so,
//! every message pays protocol-stack latency, and streaming readout sends
//! one small packet per shot, which is what pushes decoupled
//! communication into the 1–10 ms band of Table 1.

use qtenon_sim_engine::SimDuration;

/// Link latency/bandwidth parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Fixed per-message cost (syscall + NIC + UDP stack both ends).
    pub per_message_latency: SimDuration,
    /// Per-packet cost for small streamed packets (readout results).
    pub per_packet_overhead: SimDuration,
    /// Raw link bandwidth in bits per second.
    pub bandwidth_bits_per_sec: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            per_message_latency: SimDuration::from_us(200),
            per_packet_overhead: SimDuration::from_us(15),
            bandwidth_bits_per_sec: 100_000_000_000, // 100 GbE
        }
    }
}

impl NetworkModel {
    /// Time to move one bulk message of `bytes` (program upload): fixed
    /// latency plus serialisation at link bandwidth.
    pub fn message_time(&self, bytes: u64) -> SimDuration {
        self.per_message_latency + self.serialisation_time(bytes)
    }

    /// Time to stream `count` small records of `record_bytes` each, one
    /// packet per record (the per-shot readout path).
    pub(crate) fn stream_time(&self, count: u64, record_bytes: u64) -> SimDuration {
        (self.per_packet_overhead + self.serialisation_time(record_bytes)) * count
    }

    /// Pure wire time for `bytes`.
    pub(crate) fn serialisation_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 * 8.0 / self.bandwidth_bits_per_sec as f64 * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_latency_dominates_small_transfers() {
        let net = NetworkModel::default();
        let t = net.message_time(64);
        // Table 1: decoupled communication is in the 0.1–10 ms class.
        assert!(t >= SimDuration::from_us(100));
        assert!(t <= SimDuration::from_ms(10));
    }

    #[test]
    fn serialisation_scales_with_size() {
        let net = NetworkModel::default();
        // 100 Gb/s = 12.5 GB/s → 125 MB in 10 ms.
        let t = net.serialisation_time(125_000_000);
        assert!((t.as_ms() - 10.0).abs() < 0.1, "t={t}");
    }

    #[test]
    fn per_shot_streaming_cost() {
        let net = NetworkModel::default();
        // 500 shots × 8 B each: overhead-dominated, ~7.5 ms.
        let t = net.stream_time(500, 8);
        assert!(t >= SimDuration::from_ms(7));
        assert!(t < SimDuration::from_ms(8));
    }
}
