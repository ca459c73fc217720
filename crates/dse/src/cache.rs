//! The stage cache: content-addressed memoization of the map stage, so
//! sweep axes that reuse a placement (every routing, and every bandwidth
//! point of a capacity-invariant mapper) compute it exactly once.
//!
//! Keys are deterministic functions of the scenario spec — see
//! [`map_key`] — built from the same stable names the report columns
//! use, so a key never depends on memory addresses, hash iteration order
//! or worker identity. The engine owns the cache: one [`crate::run_sweep`]
//! spans every shard with one cache, and each
//! [`crate::run_scenarios`] call runs with a fresh one; carrying work
//! across runs is the checkpoint's job ([`crate::shard`]).
//!
//! The route stage is not memoized. Its inputs include the link
//! capacity, and every simulate bandwidth point is a capacity of its own,
//! so no two scenarios of a sweep share a route. [`route_key`] spells
//! those inputs; the shard fingerprint hashes it as each scenario's
//! descriptor.
//!
//! Determinism: each key's value is computed exactly once — entries are
//! `Arc<OnceLock>` slots that are never evicted, so concurrent workers
//! racing on a key block on one computation instead of duplicating it.
//! That makes the [`CacheStats`] counters thread-count-independent:
//! misses equal the number of distinct keys computed, hits equal lookups
//! minus distinct keys, no matter how the pool interleaves.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nmap::{LinkLoads, Mapping, MappingProblem, RoutingTables};

use crate::scenario::{AppSpec, Scenario};

/// Outcome of the map stage, as the cache stores it: the placement and
/// the mapper's work measure, or the failure message that became the
/// record's `error` field. Errors are cached too — a mapper that cannot
/// place an app fails identically for every routing that shares the key.
pub type MapResult = Result<(Mapping, usize), String>;

/// Outcome of the route stage: optional routing tables (present when the
/// scenario simulates) plus the link loads, or the failure message.
pub type RouteResult = Result<(Option<RoutingTables>, LinkLoads), String>;

/// Whether a cached stage lookup ran the stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the cache without running the stage.
    Hit,
    /// The key was cold: the stage computed and filled its slot.
    Miss,
}

/// Point-in-time snapshot of a cache's counters (see [`StageCache::stats`]).
///
/// Under the exactly-once contract the miss counter is deterministic:
/// `map_misses` equals the number of distinct map keys looked up,
/// independent of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Map-stage lookups served from the cache.
    pub map_hits: u64,
    /// Map-stage lookups that computed the mapper.
    pub map_misses: u64,
}

impl CacheStats {
    /// Total map-stage lookups.
    pub fn map_lookups(&self) -> u64 {
        self.map_hits + self.map_misses
    }
}

/// The stage cache: a once-filled slot per map key, plus the hit and
/// miss counters. See the module docs for the determinism contract.
#[derive(Default)]
pub struct StageCache {
    slots: Mutex<BTreeMap<String, Arc<OnceLock<MapResult>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCache").field("stats", &self.stats()).finish()
    }
}

impl StageCache {
    /// An empty cache.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Memoized map stage: returns the cached result for `key`, running
    /// `compute` exactly once per key, even under concurrent lookups. The
    /// slot is taken under the map lock and filled outside it, so workers
    /// racing on one key block on that slot only, and the one that runs
    /// `compute` is the one lookup counted as a miss. `_problem` is not
    /// read; `perfbench` still passes it.
    pub fn map_stage(
        &self,
        key: &str,
        _problem: &MappingProblem,
        compute: impl FnOnce() -> MapResult,
    ) -> (MapResult, Lookup) {
        let slot = {
            let mut slots = self.slots.lock().expect("stage slots not poisoned");
            Arc::clone(slots.entry(key.to_string()).or_default())
        };
        let mut ran = false;
        let value = slot
            .get_or_init(|| {
                ran = true;
                compute()
            })
            .clone();
        let (counter, lookup) =
            if ran { (&self.misses, Lookup::Miss) } else { (&self.hits, Lookup::Hit) };
        counter.fetch_add(1, Ordering::Relaxed);
        (value, lookup)
    }

    /// The route stage, unmemoized: runs `compute` and reports a miss.
    /// The engine routes without it; `perfbench` still calls it.
    pub fn route_stage(
        &self,
        _key: &str,
        compute: impl FnOnce() -> RouteResult,
    ) -> (RouteResult, Lookup) {
        (compute(), Lookup::Miss)
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            map_hits: self.hits.load(Ordering::Relaxed),
            map_misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The map stage's cache key: a pure function of everything the stage
/// reads — app spec, scenario seed, topology spec, mapper spec, and the
/// link capacity *only when the mapper reads it* (the constructive
/// placements never do — [`crate::MapperSpec::capacity_invariant`] — so
/// bandwidth-sweep points share their mapping; the search mappers'
/// feasibility scoring is capacity-dependent, so their keys pin it).
pub fn map_key(scenario: &Scenario) -> String {
    let capacity = if scenario.mapper.capacity_invariant() {
        "*".to_string()
    } else {
        scenario.capacity.to_f64().to_string()
    };
    format!(
        "app={};seed={};topo={};cap={};mapper={}",
        app_key(&scenario.app),
        scenario.seed,
        scenario.topology.name(),
        capacity,
        scenario.mapper.name()
    )
}

/// The route stage's inputs, spelled as a key: the map key plus the
/// link capacity (always: the MCF programs constrain on it and the
/// feasibility record derives from it), the routing regime, and whether
/// tables are materialized. No cache holds route results; the shard
/// fingerprint hashes this spelling as the scenario's descriptor, so it
/// must not change.
pub fn route_key(scenario: &Scenario, need_tables: bool) -> String {
    format!(
        "{};rcap={};routing={};tables={}",
        map_key(scenario),
        scenario.capacity.to_f64(),
        scenario.routing.name(),
        need_tables
    )
}

/// The lineage key: [`route_key`] minus the route-stage link capacity
/// (`rcap`). Scenarios sharing a lineage differ *only* in the capacities
/// their MCF program constrains on; the topology wiring, commodity set and
/// objective are pinned by every other key component. It named the chains
/// of the retired LP warm start and still groups capacity sweeps.
pub fn warm_lineage_key(scenario: &Scenario, need_tables: bool) -> String {
    format!("{};routing={};tables={}", map_key(scenario), scenario.routing.name(), need_tables)
}

/// Complete spelling of an app spec. [`AppSpec::family`] is not injective
/// for random graphs (it drops degree and bandwidth bounds), so the key
/// spells out every generation parameter.
fn app_key(app: &AppSpec) -> String {
    match app {
        AppSpec::Bundled(a) => a.name().to_string(),
        AppSpec::DspFilter => "DSP".to_string(),
        AppSpec::Random(c) => format!(
            "rand[c{},d{},bw{}..{}]",
            c.cores,
            c.avg_degree,
            c.min_bandwidth.to_f64(),
            c.max_bandwidth.to_f64()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MapperSpec, RoutingSpec, TopologySpec};
    use nmap::SinglePathOptions;
    use noc_apps::App;
    use noc_graph::RandomGraphConfig;
    use noc_units::mbps;

    fn scenario(mapper: MapperSpec, capacity: f64, routing: RoutingSpec) -> Scenario {
        Scenario {
            label: "VOPD".into(),
            app: AppSpec::Bundled(App::Vopd),
            seed: 7,
            topology: TopologySpec::FitMesh,
            capacity: mbps(capacity),
            mapper,
            routing,
            simulate: None,
        }
    }

    #[test]
    fn map_key_shares_bandwidth_points_for_constructive_mappers_only() {
        let a = scenario(MapperSpec::NmapInit, 800.0, RoutingSpec::MinPath);
        let b = scenario(MapperSpec::NmapInit, 1_600.0, RoutingSpec::MinPath);
        assert_eq!(map_key(&a), map_key(&b), "constructive mappers ignore capacity");

        let c = scenario(MapperSpec::Nmap(SinglePathOptions::default()), 800.0, RoutingSpec::Xy);
        let d = scenario(MapperSpec::Nmap(SinglePathOptions::default()), 1_600.0, RoutingSpec::Xy);
        assert_ne!(map_key(&c), map_key(&d), "search mappers read capacity");

        // The routing axis never reaches the map key.
        let e = scenario(MapperSpec::Nmap(SinglePathOptions::default()), 800.0, RoutingSpec::Xy);
        assert_eq!(map_key(&c), map_key(&e));
    }

    #[test]
    fn map_key_separates_every_other_axis() {
        let base = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let keys = [
            map_key(&base),
            map_key(&Scenario { seed: 8, ..base.clone() }),
            map_key(&Scenario { app: AppSpec::DspFilter, ..base.clone() }),
            map_key(&Scenario { topology: TopologySpec::FitTorus, ..base.clone() }),
            map_key(&Scenario { mapper: MapperSpec::Gmap, ..base.clone() }),
            map_key(&Scenario {
                app: AppSpec::Random(RandomGraphConfig::default()),
                ..base.clone()
            }),
            map_key(&Scenario {
                app: AppSpec::Random(RandomGraphConfig {
                    avg_degree: 3.0,
                    ..RandomGraphConfig::default()
                }),
                ..base.clone()
            }),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "keys {i} and {j} collide: {a}");
                }
            }
        }
        // The label is display-only: it never reaches the key.
        assert_eq!(map_key(&base), map_key(&Scenario { label: "other".into(), ..base }));
    }

    #[test]
    fn route_key_extends_map_key_with_capacity_routing_and_tables() {
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        assert!(route_key(&s, false).starts_with(&map_key(&s)));
        assert_ne!(route_key(&s, false), route_key(&s, true));
        let xy = Scenario { routing: RoutingSpec::Xy, ..s.clone() };
        assert_ne!(route_key(&s, false), route_key(&xy, false));
        // Capacity reaches the route key even for capacity-invariant
        // mappers — feasibility is judged against it.
        let tight = Scenario { capacity: mbps(100.0), ..s.clone() };
        assert_eq!(map_key(&s), map_key(&tight));
        assert_ne!(route_key(&s, false), route_key(&tight, false));
    }

    #[test]
    fn warm_lineage_key_drops_only_the_route_capacity() {
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::McfQuadrant);
        let tight = Scenario { capacity: mbps(250.0), ..s.clone() };
        assert_ne!(route_key(&s, false), route_key(&tight, false));
        assert_eq!(warm_lineage_key(&s, false), warm_lineage_key(&tight, false));
        // Everything else still separates lineages.
        let all = Scenario { routing: RoutingSpec::McfAllPaths, ..s.clone() };
        assert_ne!(warm_lineage_key(&s, false), warm_lineage_key(&all, false));
        assert_ne!(warm_lineage_key(&s, false), warm_lineage_key(&s, true));
        // Capacity-dependent mappers pin capacity inside the map key, so
        // their lineages never span bandwidth points (their placements —
        // hence commodity sets — may differ per point).
        let search = scenario(
            MapperSpec::Nmap(SinglePathOptions::default()),
            1_000.0,
            RoutingSpec::McfQuadrant,
        );
        let search_tight = Scenario { capacity: mbps(250.0), ..search.clone() };
        assert_ne!(warm_lineage_key(&search, false), warm_lineage_key(&search_tight, false));
    }

    #[test]
    fn map_stage_computes_exactly_once_per_key() {
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let cache = StageCache::in_memory();
        let key = map_key(&s);
        let mut runs = 0;
        for _ in 0..3 {
            let (result, _) = cache.map_stage(&key, &problem, || {
                runs += 1;
                Ok((nmap::initialize(&problem), 0))
            });
            assert!(result.is_ok());
        }
        assert_eq!(runs, 1, "compute must run once per key");
        let stats = cache.stats();
        assert_eq!((stats.map_misses, stats.map_hits), (1, 2));
        assert_eq!(stats.map_lookups(), 3);

        // A different key computes again.
        let (_, lookup) =
            cache.map_stage("other", &problem, || Ok((nmap::initialize(&problem), 0)));
        assert_eq!(lookup, Lookup::Miss);
    }

    #[test]
    fn cached_errors_are_replayed() {
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let cache = StageCache::in_memory();
        let (first, _) = cache.map_stage("k", &problem, || Err("does not fit".into()));
        let (second, lookup) = cache.map_stage("k", &problem, || panic!("must not recompute"));
        assert_eq!(first, second);
        assert_eq!(first.unwrap_err(), "does not fit");
        assert_eq!(lookup, Lookup::Hit);
    }

    #[test]
    fn route_stage_computes_on_every_call() {
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let mapping = nmap::initialize(&problem);
        let cache = StageCache::in_memory();
        let key = route_key(&s, false);
        let mut runs = 0;
        for _ in 0..2 {
            let (result, lookup) = cache.route_stage(&key, || {
                runs += 1;
                let (_, loads) = nmap::routing::route_min_paths(&problem, &mapping)
                    .map_err(|e| e.to_string())?;
                Ok((None, loads))
            });
            assert!(result.is_ok());
            assert_eq!(lookup, Lookup::Miss);
        }
        assert_eq!(runs, 2, "the route stage is not memoized");
        assert_eq!(cache.stats(), CacheStats::default(), "route calls touch no counter");
    }
}
