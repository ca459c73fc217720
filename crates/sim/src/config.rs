//! Simulator configuration.

use noc_units::Mbps;

/// Largest accepted [`SimConfig::burst_packets`]: the traffic sources cap
/// a burst at eight times its mean length, which must fit in a `u32`.
pub const MAX_BURST_PACKETS: u32 = u32::MAX / 8;

/// Parameters of the simulated NoC and measurement window.
///
/// Defaults follow the paper's DSP design (Table 3): 64-byte packets,
/// 7-cycle switch delay, 4-byte (32-bit) flits, 8-flit input buffers, and
/// a 1 GHz clock (1 cycle = 1 ns).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Flit width in bytes (×pipes uses 32-bit phits).
    pub flit_bytes: usize,
    /// Packet payload size in bytes (Table 3: 64 B).
    pub packet_bytes: usize,
    /// Input buffer depth per router port, in flits.
    pub buffer_flits: usize,
    /// Router pipeline delay in cycles applied to each head flit per hop
    /// (Table 3: switch delay 7 cycles).
    pub router_pipeline_cycles: u64,
    /// Warm-up cycles excluded from statistics.
    pub warmup_cycles: u64,
    /// Measured cycles after warm-up.
    pub measure_cycles: u64,
    /// Drain window after measurement so in-flight packets can finish.
    pub drain_cycles: u64,
    /// Mean burst length of the on/off sources, in packets.
    pub burst_packets: u32,
    /// Peak-to-mean ratio of the on/off sources: packets inside a burst
    /// arrive this many times faster than the long-run average rate.
    // lint: allow(f64-api) — dimensionless peak-to-mean ratio.
    pub burst_intensity: f64,
    /// RNG seed for the traffic processes.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            flit_bytes: 4,
            packet_bytes: 64,
            buffer_flits: 8,
            router_pipeline_cycles: 7,
            warmup_cycles: 20_000,
            measure_cycles: 100_000,
            drain_cycles: 30_000,
            burst_packets: 8,
            burst_intensity: 3.0,
            seed: 0xA0C0_FFEE,
        }
    }
}

impl SimConfig {
    /// Number of flits a packet occupies: one head flit (routing header)
    /// plus the payload flits.
    pub fn flits_per_packet(&self) -> usize {
        1 + self.packet_bytes.div_ceil(self.flit_bytes)
    }

    /// Bytes a link moves per cycle at `bandwidth` MB/s under the
    /// 1 GHz clock: `MB/s × 10⁶ B/MB ÷ 10⁹ cycles/s`.
    // lint: allow(f64-api) — the return is bytes-per-cycle, a clock-local
    // conversion factor with no quantity type of its own.
    pub fn bytes_per_cycle(bandwidth: Mbps) -> f64 {
        bandwidth.to_f64() / 1000.0
    }

    /// Checks the configuration, returning the first violated constraint
    /// as a message. The single source of truth for what a runnable
    /// config looks like — [`SimConfig::validate`] panics on it and
    /// layers above (the DSE simulate spec) report it as an error.
    pub fn check(&self) -> Result<(), String> {
        if self.flit_bytes == 0 {
            return Err("flit size must be non-zero".into());
        }
        if self.packet_bytes == 0 {
            return Err("packet size must be non-zero".into());
        }
        if self.buffer_flits < 2 {
            return Err("buffers must hold at least 2 flits".into());
        }
        if self.measure_cycles == 0 {
            return Err("measurement window must be non-empty".into());
        }
        if self.burst_packets == 0 {
            return Err("burst length must be non-zero".into());
        }
        if self.burst_packets > MAX_BURST_PACKETS {
            return Err(format!("burst length must be at most {MAX_BURST_PACKETS} packets"));
        }
        if !(self.burst_intensity >= 1.0 && self.burst_intensity.is_finite()) {
            return Err("burst intensity must be >= 1".into());
        }
        // The loops compute `warmup + measure + drain` (and offsets a few
        // pipeline delays past it); reject configs where that arithmetic
        // would wrap rather than letting a release build run a "short"
        // wrapped horizon. The headroom term covers the stall threshold
        // and per-flit offsets added beyond the nominal end.
        if self
            .warmup_cycles
            .checked_add(self.measure_cycles)
            .and_then(|c| c.checked_add(self.drain_cycles))
            .and_then(|c| c.checked_add(self.router_pipeline_cycles))
            .and_then(|c| c.checked_add(1 << 16))
            .is_none()
        {
            return Err("simulation horizon (warmup + measure + drain) overflows".into());
        }
        Ok(())
    }

    /// Validates the configuration, panicking on nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics on the first [`SimConfig::check`] violation.
    pub fn validate(&self) {
        if let Err(message) = self.check() {
            panic!("{message}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_packet_is_17_flits() {
        // 64 B / 4 B = 16 payload flits + 1 head.
        assert_eq!(SimConfig::default().flits_per_packet(), 17);
    }

    #[test]
    fn odd_sizes_round_up() {
        let c = SimConfig { packet_bytes: 65, ..Default::default() };
        assert_eq!(c.flits_per_packet(), 18);
        let c = SimConfig { packet_bytes: 1, ..Default::default() };
        assert_eq!(c.flits_per_packet(), 2);
    }

    #[test]
    fn bytes_per_cycle_at_1ghz() {
        assert_eq!(SimConfig::bytes_per_cycle(noc_units::mbps(1000.0)), 1.0); // 1 GB/s = 1 B/ns
        assert_eq!(SimConfig::bytes_per_cycle(noc_units::mbps(1600.0)), 1.6);
        assert_eq!(SimConfig::bytes_per_cycle(noc_units::mbps(200.0)), 0.2);
    }

    #[test]
    fn default_validates() {
        SimConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "buffers must hold")]
    fn tiny_buffer_rejected() {
        SimConfig { buffer_flits: 1, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn overflowing_horizon_rejected() {
        SimConfig { warmup_cycles: u64::MAX - 1, measure_cycles: 2, ..Default::default() }
            .validate();
    }

    #[test]
    fn check_reports_overflow_not_panic() {
        let c = SimConfig {
            drain_cycles: u64::MAX / 2,
            warmup_cycles: u64::MAX / 2 + 10,
            ..Default::default()
        };
        let err = c.check().unwrap_err();
        assert!(err.contains("overflows"), "unexpected message: {err}");
    }

    #[test]
    fn non_finite_burst_intensity_rejected() {
        for bad in [f64::NAN, f64::INFINITY, 0.5] {
            let c = SimConfig { burst_intensity: bad, ..Default::default() };
            assert!(c.check().is_err(), "intensity {bad} accepted");
        }
    }

    #[test]
    fn oversized_burst_length_rejected() {
        // `burst 600000000 2` once overflowed the sources' 8x burst cap.
        for bad in [MAX_BURST_PACKETS + 1, 600_000_000, u32::MAX] {
            let c = SimConfig { burst_packets: bad, ..Default::default() };
            let err = c.check().unwrap_err();
            assert!(err.contains("burst length must be at most"), "{bad}: {err}");
        }
        let c = SimConfig { burst_packets: MAX_BURST_PACKETS, ..Default::default() };
        assert!(c.check().is_ok());
    }

    #[test]
    fn zero_warmup_is_a_valid_window() {
        // Zero-length warm-up is legitimate (measure from cycle 0); only
        // the measurement window itself must be non-empty.
        let c = SimConfig { warmup_cycles: 0, ..Default::default() };
        assert!(c.check().is_ok());
        let c = SimConfig { warmup_cycles: 0, measure_cycles: 0, ..Default::default() };
        assert!(c.check().is_err());
    }
}
