//! Seeded random core-graph generation — the substitute for the LEDA graph
//! package the paper uses to produce the 25–65-core graphs of Table 2.
//!
//! The generator builds a connected directed graph: first a random spanning
//! arborescence over a shuffled vertex order (guaranteeing weak
//! connectivity, like LEDA's `random_connected_graph`), then extra random
//! edges until the requested edge count is reached. Edge bandwidths are
//! drawn uniformly from a configurable range, mimicking the hundreds-of-MB/s
//! demands of the paper's video workloads.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use noc_units::Mbps;

use crate::parse::MAX_BANDWIDTH;
use crate::{CoreGraph, CoreId};

/// Parameters for [`RandomGraphConfig::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomGraphConfig {
    /// Number of cores `|V|`.
    pub cores: usize,
    /// Average out-degree; total edges ≈ `cores * avg_degree`, clamped to
    /// the simple-digraph maximum.
    // lint: allow(f64-api) — dimensionless mean degree.
    pub avg_degree: f64,
    /// Minimum edge bandwidth.
    pub min_bandwidth: Mbps,
    /// Maximum edge bandwidth.
    pub max_bandwidth: Mbps,
}

impl Default for RandomGraphConfig {
    /// Defaults chosen to echo the paper's Table 2 workloads: sparse graphs
    /// (average degree 2) with demands between 10 and 400 MB/s.
    fn default() -> Self {
        Self {
            cores: 25,
            avg_degree: 2.0,
            min_bandwidth: Mbps::raw(10.0),
            max_bandwidth: Mbps::raw(400.0),
        }
    }
}

impl RandomGraphConfig {
    /// Generates a random connected core graph from `seed`.
    ///
    /// The same `(config, seed)` pair always yields the same graph.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`, if the bandwidth range is empty or negative,
    /// if `max_bandwidth` exceeds [`crate::parse::MAX_BANDWIDTH`] (the cap
    /// every core-graph edge obeys), or if `avg_degree` is not finite and
    /// positive.
    pub fn generate(&self, seed: u64) -> CoreGraph {
        assert!(self.cores > 0, "need at least one core");
        assert!(self.max_bandwidth >= self.min_bandwidth, "invalid bandwidth range");
        assert!(self.max_bandwidth.to_f64() <= MAX_BANDWIDTH, "bandwidth above the cap");
        assert!(self.avg_degree.is_finite() && self.avg_degree > 0.0, "invalid average degree");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = CoreGraph::new();
        for i in 0..self.cores {
            g.add_core(format!("c{i}"));
        }
        if self.cores == 1 {
            return g;
        }

        let mut order: Vec<CoreId> = g.cores().collect();
        order.shuffle(&mut rng);

        let draw_bw = |rng: &mut ChaCha8Rng| {
            if self.max_bandwidth > self.min_bandwidth {
                rng.gen_range(self.min_bandwidth.to_f64()..self.max_bandwidth.to_f64())
            } else {
                self.min_bandwidth.to_f64()
            }
        };

        // Spanning structure: connect each vertex (in shuffled order) to a
        // random earlier vertex, with random direction.
        for i in 1..order.len() {
            let parent = order[rng.gen_range(0..i)];
            let child = order[i];
            let bw = draw_bw(&mut rng);
            let (src, dst) = if rng.gen_bool(0.5) { (parent, child) } else { (child, parent) };
            g.add_comm(src, dst, bw).expect("spanning edges are unique");
        }

        // Extra edges up to the target count.
        let max_edges = self.cores * (self.cores - 1);
        let target = ((self.cores as f64 * self.avg_degree).round() as usize)
            .clamp(self.cores - 1, max_edges);
        let mut guard = 0usize;
        while g.edge_count() < target && guard < 100 * target {
            guard += 1;
            let a = CoreId::new(rng.gen_range(0..self.cores));
            let b = CoreId::new(rng.gen_range(0..self.cores));
            if a == b || g.find_edge(a, b).is_some() {
                continue;
            }
            let bw = draw_bw(&mut rng);
            g.add_comm(a, b, bw).expect("checked for duplicates");
        }
        g
    }
}

/// A reproducible family of random graphs sharing one configuration —
/// convenience for parameter sweeps like Table 2 ("number of cores varied
/// from 25 to 65").
#[derive(Debug, Clone, Default)]
pub struct RandomGraphFamily {
    base: RandomGraphConfig,
}

impl RandomGraphFamily {
    /// Creates a family from a base configuration; `cores` is overridden
    /// per call.
    pub fn new(base: RandomGraphConfig) -> Self {
        Self { base }
    }

    /// Generates the `instance`-th graph with `cores` cores.
    pub fn graph(&self, cores: usize, instance: u64) -> CoreGraph {
        let config = RandomGraphConfig { cores, ..self.base.clone() };
        config.generate(Self::instance_seed(cores, instance))
    }

    /// The generator seed [`RandomGraphFamily::graph`] uses for
    /// `(cores, instance)` — public so external sweep drivers (e.g. the
    /// `noc-dse` engine) can reference the exact same graph instances.
    ///
    /// The instance is mixed into the seed; cores is in the config already
    /// but adding it decorrelates sweeps that share instance numbers.
    pub fn instance_seed(cores: usize, instance: u64) -> u64 {
        instance.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cores as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomGraphConfig::default();
        let a = cfg.generate(42);
        let b = cfg.generate(42);
        assert_eq!(a, b);
        let c = cfg.generate(43);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_graphs_are_connected() {
        let cfg = RandomGraphConfig { cores: 40, ..Default::default() };
        for seed in 0..20 {
            assert!(cfg.generate(seed).is_connected(), "seed {seed} disconnected");
        }
    }

    #[test]
    fn edge_count_tracks_degree() {
        let cfg = RandomGraphConfig { cores: 30, avg_degree: 3.0, ..Default::default() };
        let g = cfg.generate(7);
        assert_eq!(g.core_count(), 30);
        assert_eq!(g.edge_count(), 90);
    }

    #[test]
    fn bandwidths_respect_range() {
        let cfg = RandomGraphConfig {
            cores: 20,
            avg_degree: 2.5,
            min_bandwidth: Mbps::raw(50.0),
            max_bandwidth: Mbps::raw(60.0),
        };
        let g = cfg.generate(3);
        for (_, e) in g.edges() {
            assert!(
                (50.0..60.0).contains(&e.bandwidth.to_f64()),
                "bw {} out of range",
                e.bandwidth
            );
        }
    }

    #[test]
    fn degenerate_range_yields_constant_bandwidth() {
        let cfg = RandomGraphConfig {
            cores: 10,
            avg_degree: 2.0,
            min_bandwidth: Mbps::raw(100.0),
            max_bandwidth: Mbps::raw(100.0),
        };
        let g = cfg.generate(0);
        assert!(g.edges().all(|(_, e)| e.bandwidth.to_f64() == 100.0));
    }

    #[test]
    fn single_core_graph_has_no_edges() {
        let cfg = RandomGraphConfig { cores: 1, ..Default::default() };
        let g = cfg.generate(0);
        assert_eq!(g.core_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn family_sweep_matches_direct_generation() {
        let family = RandomGraphFamily::new(RandomGraphConfig::default());
        let g1 = family.graph(35, 2);
        let g2 = family.graph(35, 2);
        assert_eq!(g1, g2);
        assert_eq!(g1.core_count(), 35);
        assert_ne!(family.graph(35, 3), g1);
    }

    #[test]
    fn dense_request_clamps_to_simple_digraph() {
        let cfg = RandomGraphConfig { cores: 5, avg_degree: 100.0, ..Default::default() };
        let g = cfg.generate(1);
        assert_eq!(g.edge_count(), 20); // 5 * 4 ordered pairs
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth range")]
    fn invalid_range_panics() {
        let cfg = RandomGraphConfig {
            cores: 5,
            avg_degree: 2.0,
            min_bandwidth: Mbps::raw(10.0),
            max_bandwidth: Mbps::raw(5.0),
        };
        let _ = cfg.generate(0);
    }
}
