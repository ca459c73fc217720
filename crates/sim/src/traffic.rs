//! Flow specifications and bursty traffic generation.

use noc_graph::{LinkId, NodeId};
use noc_units::Mbps;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::config::SimConfig;

/// One path of a (possibly split) flow, with the fraction of the flow's
/// packets it should carry.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPath {
    /// Links to traverse, in order.
    pub links: Vec<LinkId>,
    /// Share of the flow's traffic (fractions of a flow sum to 1).
    // lint: allow(f64-api) — dimensionless share; weights of a flow sum
    // to 1.
    pub weight: f64,
}

/// A traffic flow: the simulator-facing form of one commodity plus its
/// routing-table entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Injecting node.
    pub source: NodeId,
    /// Consuming node.
    pub dest: NodeId,
    /// Average offered load.
    pub rate_mbps: Mbps,
    /// Alternative paths with their traffic shares.
    pub paths: Vec<WeightedPath>,
}

impl FlowSpec {
    /// Builds a flow with a single path carrying all traffic.
    pub fn single_path(source: NodeId, dest: NodeId, rate_mbps: Mbps, links: Vec<LinkId>) -> Self {
        Self { source, dest, rate_mbps, paths: vec![WeightedPath { links, weight: 1.0 }] }
    }

    /// Builds a flow splitting traffic over several weighted paths.
    /// Weights are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `paths` is empty or any weight is non-finite or ≤ 0.
    /// Each individual weight must be a positive share: a negative or NaN
    /// weight would corrupt the deficit-round-robin credits of the packet
    /// scheduler even when the weight *sum* looks healthy.
    // lint: allow(f64-api) — path weights are dimensionless shares.
    pub fn split(
        source: NodeId,
        dest: NodeId,
        rate_mbps: Mbps,
        paths: Vec<(Vec<LinkId>, f64)>,
    ) -> Self {
        assert!(!paths.is_empty(), "a flow needs at least one path");
        for (i, (_, w)) in paths.iter().enumerate() {
            assert!(
                w.is_finite() && *w > 0.0,
                "path weight {i} must be finite and positive, got {w}"
            );
        }
        let total: f64 = paths.iter().map(|(_, w)| w).sum();
        let paths =
            paths.into_iter().map(|(links, w)| WeightedPath { links, weight: w / total }).collect();
        Self { source, dest, rate_mbps, paths }
    }
}

/// Bursty on/off packet generator for one flow.
///
/// The source alternates between ON bursts (back-to-back packets, count
/// geometrically distributed with mean `burst_packets`) and OFF gaps sized
/// so the long-run average rate equals `rate_mbps`. Within a burst,
/// packets arrive [`SimConfig::burst_intensity`] times faster than the
/// long-run mean (mimicking the paper's "bursty in nature" transaction
/// traffic).
#[derive(Debug, Clone)]
pub struct BurstSource {
    /// Mean cycles between packet starts at the average rate.
    mean_gap: f64,
    /// Cycles between packets inside a burst.
    burst_gap: f64,
    /// Remaining packets in the current burst.
    remaining_in_burst: u32,
    /// Length of the current burst (for the OFF-gap computation).
    burst_len: u32,
    /// Next cycle at which a packet is generated.
    next_at: f64,
    mean_burst: u32,
    /// Deficit-weighted round-robin state per path.
    path_credit: Vec<f64>,
}

impl BurstSource {
    /// Creates the generator for one flow with the given config; `rng`
    /// seeds the burst process.
    pub fn new(spec: &FlowSpec, config: &SimConfig, rng: &mut ChaCha8Rng) -> Self {
        let bytes_per_packet = config.packet_bytes as f64;
        let bytes_per_cycle = SimConfig::bytes_per_cycle(spec.rate_mbps);
        // Zero-rate flows never fire.
        let mean_gap =
            if bytes_per_cycle > 0.0 { bytes_per_packet / bytes_per_cycle } else { f64::INFINITY };
        let burst_gap = mean_gap / config.burst_intensity;
        let start = if mean_gap.is_finite() {
            rng.gen_range(0.0..mean_gap.max(1.0))
        } else {
            f64::INFINITY
        };
        Self {
            mean_gap,
            burst_gap,
            remaining_in_burst: 0,
            burst_len: 0,
            next_at: start,
            mean_burst: config.burst_packets,
            path_credit: vec![0.0; spec.paths.len()],
        }
    }

    /// Returns the path index for the next packet and the updated
    /// round-robin state: deficit-weighted so long-run shares converge to
    /// the configured weights regardless of burst phase.
    fn pick_path(&mut self, spec: &FlowSpec) -> usize {
        for (credit, path) in self.path_credit.iter_mut().zip(&spec.paths) {
            *credit += path.weight;
        }
        let (best, _) = self
            .path_credit
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("credits are finite"))
            .expect("at least one path");
        self.path_credit[best] -= 1.0;
        best
    }

    /// If a packet is due at `cycle`, returns the path index to use and
    /// schedules the next packet.
    pub fn poll(&mut self, cycle: u64, spec: &FlowSpec, rng: &mut ChaCha8Rng) -> Option<usize> {
        if (cycle as f64) < self.next_at {
            return None;
        }
        if self.remaining_in_burst == 0 {
            // Start a new burst: geometric length with the configured mean.
            let mut len = 1u32;
            while len < self.mean_burst * 8 && rng.gen::<f64>() > 1.0 / self.mean_burst as f64 {
                len += 1;
            }
            self.remaining_in_burst = len;
            self.burst_len = len;
        }
        self.remaining_in_burst -= 1;
        let gap = if self.remaining_in_burst > 0 {
            self.burst_gap
        } else {
            // OFF period sized so the long-run rate is exact: the n
            // packets of this burst must occupy n·mean_gap in total, and
            // (n-1)·burst_gap of that has already elapsed. A ±20% jitter
            // decorrelates sources without biasing the mean.
            let n = self.burst_len as f64;
            let off = n * self.mean_gap - (n - 1.0) * self.burst_gap;
            off * (0.8 + 0.4 * rng.gen::<f64>())
        };
        self.next_at += gap.max(1.0);
        Some(self.pick_path(spec))
    }

    /// First cycle at which [`BurstSource::poll`] will return a packet
    /// (`None` for silent zero-rate sources). The simulator polls the
    /// source only from that cycle on, and an empty network fast-forwards
    /// to the earliest one. `poll` fires at the first integer cycle `c`
    /// with `c ≥ next_at`, hence the ceiling.
    pub fn next_fire_cycle(&self) -> Option<u64> {
        if !self.next_at.is_finite() {
            return None;
        }
        Some(self.next_at.max(0.0).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_units::mbps;
    use rand::SeedableRng;

    fn spec(rate: f64, paths: usize) -> FlowSpec {
        let p = (0..paths).map(|_| (vec![], 1.0)).collect();
        FlowSpec::split(NodeId::new(0), NodeId::new(1), mbps(rate), p)
    }

    #[test]
    fn single_path_constructor_normalizes() {
        let f = FlowSpec::single_path(NodeId::new(0), NodeId::new(1), mbps(100.0), vec![]);
        assert_eq!(f.paths.len(), 1);
        assert_eq!(f.paths[0].weight, 1.0);
    }

    #[test]
    fn split_constructor_normalizes_weights() {
        let f = FlowSpec::split(
            NodeId::new(0),
            NodeId::new(1),
            mbps(100.0),
            vec![(vec![], 2.0), (vec![], 6.0)],
        );
        assert!((f.paths[0].weight - 0.25).abs() < 1e-12);
        assert!((f.paths[1].weight - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn empty_paths_panics() {
        let _ = FlowSpec::split(NodeId::new(0), NodeId::new(1), mbps(1.0), vec![]);
    }

    #[test]
    #[should_panic(expected = "path weight 1 must be finite and positive, got -1")]
    fn negative_weight_panics_even_with_positive_sum() {
        // Sum is 2.0 > 0, but the negative share would drive path 1's
        // round-robin credit ever downward — rejected outright.
        let _ = FlowSpec::split(
            NodeId::new(0),
            NodeId::new(1),
            mbps(100.0),
            vec![(vec![], 3.0), (vec![], -1.0)],
        );
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn zero_weight_panics() {
        let _ = FlowSpec::split(
            NodeId::new(0),
            NodeId::new(1),
            mbps(100.0),
            vec![(vec![], 0.0), (vec![], 1.0)],
        );
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn nan_weight_panics() {
        let _ =
            FlowSpec::split(NodeId::new(0), NodeId::new(1), mbps(100.0), vec![(vec![], f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn infinite_weight_panics() {
        let _ = FlowSpec::split(
            NodeId::new(0),
            NodeId::new(1),
            mbps(100.0),
            vec![(vec![], f64::INFINITY)],
        );
    }

    #[test]
    fn long_run_rate_is_close_to_nominal() {
        let config = SimConfig::default();
        let spec = spec(400.0, 1); // 0.4 B/cycle => 160 cycles/packet mean
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut src = BurstSource::new(&spec, &config, &mut rng);
        let horizon = 2_000_000u64;
        let mut count = 0usize;
        for cycle in 0..horizon {
            if src.poll(cycle, &spec, &mut rng).is_some() {
                count += 1;
            }
        }
        let measured_rate = count as f64 * config.packet_bytes as f64 / horizon as f64 * 1000.0; // MB/s
        let err = (measured_rate - 400.0).abs() / 400.0;
        assert!(err < 0.15, "measured {measured_rate} MB/s, expected ~400");
    }

    #[test]
    fn packets_come_in_bursts() {
        let config = SimConfig::default();
        let spec = spec(200.0, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut src = BurstSource::new(&spec, &config, &mut rng);
        let mut gaps = Vec::new();
        let mut last: Option<u64> = None;
        for cycle in 0..500_000u64 {
            if src.poll(cycle, &spec, &mut rng).is_some() {
                if let Some(prev) = last {
                    gaps.push(cycle - prev);
                }
                last = Some(cycle);
            }
        }
        assert!(gaps.len() > 100);
        let mean_gap = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let short = gaps.iter().filter(|&&g| (g as f64) < mean_gap / 2.0).count();
        // Bursty: a solid share of gaps are much shorter than the mean.
        assert!(short as f64 > gaps.len() as f64 * 0.3, "only {short}/{} short gaps", gaps.len());
    }

    #[test]
    fn weighted_round_robin_converges_to_weights() {
        let config = SimConfig::default();
        let spec = FlowSpec::split(
            NodeId::new(0),
            NodeId::new(1),
            mbps(300.0),
            vec![(vec![], 1.0), (vec![], 3.0)],
        );
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut src = BurstSource::new(&spec, &config, &mut rng);
        let mut counts = [0usize; 2];
        for cycle in 0..3_000_000u64 {
            if let Some(path) = src.poll(cycle, &spec, &mut rng) {
                counts[path] += 1;
            }
        }
        let total = (counts[0] + counts[1]) as f64;
        assert!(total > 1000.0);
        let share = counts[1] as f64 / total;
        assert!((share - 0.75).abs() < 0.02, "share {share}, expected 0.75");
    }

    #[test]
    fn zero_rate_flow_is_silent() {
        let config = SimConfig::default();
        let spec = spec(0.0, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut src = BurstSource::new(&spec, &config, &mut rng);
        assert_eq!(src.next_fire_cycle(), None);
        for cycle in 0..10_000u64 {
            assert!(src.poll(cycle, &spec, &mut rng).is_none());
        }
    }

    #[test]
    fn next_fire_cycle_predicts_poll_exactly() {
        // Due-only polling and the empty-network fast-forward rely on
        // this equivalence: polling every cycle fires at exactly the
        // predicted cycle, never earlier or later, and non-due polls draw
        // no randomness.
        let config = SimConfig::default();
        let spec = spec(300.0, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut src = BurstSource::new(&spec, &config, &mut rng);
        let mut fires = 0u64;
        for cycle in 0..200_000u64 {
            let predicted = src.next_fire_cycle().expect("finite-rate source");
            let fired = src.poll(cycle, &spec, &mut rng).is_some();
            assert_eq!(fired, cycle == predicted, "cycle {cycle}, predicted {predicted}");
            if fired {
                assert!(src.next_fire_cycle().expect("still finite") > cycle);
                fires += 1;
            }
        }
        assert!(fires > 100, "only {fires} packets fired");
    }
}
