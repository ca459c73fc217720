//! The stage cache: content-addressed memoization of the map and route
//! stages, so sweep axes that reuse a stage (every routing × bandwidth
//! point shares its scenario's mapping; every simulate point shares its
//! routing) compute it exactly once.
//!
//! Keys are deterministic functions of the scenario spec — see
//! [`map_key`] / [`route_key`] — built from the same stable names the
//! report columns use, so a key never depends on memory addresses, hash
//! iteration order or worker identity. Values live in an in-memory
//! `BTreeMap` tier (always on), and the map stage optionally persists to
//! an on-disk JSONL tier for cross-run reuse ([`StageCache::with_disk`]).
//!
//! Determinism: each key's value is computed exactly once per process —
//! entries are `Arc<OnceLock>` slots, so concurrent workers racing on a
//! key block on one computation instead of duplicating it. That makes the
//! [`CacheStats`] counters thread-count-independent: misses equal the
//! number of distinct keys computed, hits equal lookups minus distinct
//! keys, no matter how the pool interleaves.
//!
//! An optional byte budget ([`StageCache::with_mem_cap`]) bounds the
//! in-memory tiers with least-recently-used eviction. Results stay
//! byte-identical at any cap — an evicted key simply recomputes its
//! deterministic value on the next lookup — but the exactly-once contract
//! weakens to exactly-once *per residency*, so hit/miss/eviction counters
//! under a finite cap depend on worker interleaving (they are exact at one
//! thread). The default is unbounded, which preserves the strict contract.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nmap::{LinkLoads, Mapping, MappingProblem, RoutingTables};
use noc_graph::{CoreId, EdgeId, NodeId};

use crate::report::{parse_flat_json, push_json_str, JsonValue};
use crate::scenario::{AppSpec, Scenario};

/// Outcome of the map stage, as the cache stores it: the placement and
/// the mapper's work measure, or the failure message that became the
/// record's `error` field. Errors are cached too — a mapper that cannot
/// place an app fails identically for every routing that shares the key.
pub type MapResult = Result<(Mapping, usize), String>;

/// Outcome of the route stage: optional routing tables (present when the
/// scenario simulates) plus the link loads, or the failure message.
pub type RouteResult = Result<(Option<RoutingTables>, LinkLoads), String>;

/// Where a cached stage lookup was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the in-memory tier without running the stage.
    Hit,
    /// The in-memory tier missed; the on-disk tier supplied the value.
    DiskHit,
    /// Both tiers missed; the stage computed (and populated both tiers).
    Miss,
}

/// Point-in-time snapshot of a cache's counters (see [`StageCache::stats`]).
///
/// Under the exactly-once contract the miss counters are deterministic:
/// `map_misses + map_disk_hits` equals the number of distinct map keys
/// looked up, independent of thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Map-stage lookups served from memory.
    pub map_hits: u64,
    /// Map-stage lookups served from the disk tier.
    pub map_disk_hits: u64,
    /// Map-stage lookups that computed the mapper.
    pub map_misses: u64,
    /// Route-stage lookups served from memory.
    pub route_hits: u64,
    /// Route-stage lookups that computed the routing.
    pub route_misses: u64,
    /// Entries dropped by the byte budget's LRU policy (0 when unbounded).
    pub evictions: u64,
}

impl CacheStats {
    /// Total map-stage lookups.
    pub fn map_lookups(&self) -> u64 {
        self.map_hits + self.map_disk_hits + self.map_misses
    }
}

#[derive(Default)]
struct Counters {
    map_hits: AtomicU64,
    map_disk_hits: AtomicU64,
    map_misses: AtomicU64,
    route_hits: AtomicU64,
    route_misses: AtomicU64,
    evictions: AtomicU64,
}

/// Which in-memory tier a byte-budget book entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Map,
    Route,
}

/// One resident entry's recency tick and estimated footprint.
#[derive(Debug, Clone, Copy)]
struct LruEntry {
    tick: u64,
    bytes: usize,
}

/// Recency and size bookkeeping for the byte budget. One logical clock
/// spans both stages, so pressure from either tier can reclaim stale
/// entries of the other. Only *filled* slots are booked (an entry enters
/// after its compute completes), so an in-flight `OnceLock` another worker
/// is blocking on is never evicted from under it.
#[derive(Default)]
struct LruBook {
    clock: u64,
    map: BTreeMap<String, LruEntry>,
    route: BTreeMap<String, LruEntry>,
    total_bytes: usize,
}

impl LruBook {
    fn entries(&mut self, stage: Stage) -> &mut BTreeMap<String, LruEntry> {
        match stage {
            Stage::Map => &mut self.map,
            Stage::Route => &mut self.route,
        }
    }

    /// The least-recently-used entry across both stages.
    fn oldest(&self) -> Option<(Stage, String, usize)> {
        let map = self.map.iter().map(|(k, e)| (e.tick, Stage::Map, k, e.bytes));
        let route = self.route.iter().map(|(k, e)| (e.tick, Stage::Route, k, e.bytes));
        map.chain(route)
            .min_by_key(|&(tick, ..)| tick)
            .map(|(_, stage, key, bytes)| (stage, key.clone(), bytes))
    }
}

/// The two-tier stage cache. See the module docs for the determinism
/// contract; construction is [`StageCache::in_memory`] or
/// [`StageCache::with_disk`].
pub struct StageCache {
    map_tier: Mutex<BTreeMap<String, Arc<OnceLock<MapResult>>>>,
    route_tier: Mutex<BTreeMap<String, Arc<OnceLock<RouteResult>>>>,
    disk: Option<DiskTier>,
    counters: Counters,
    mem_cap: Option<usize>,
    lru: Mutex<LruBook>,
}

impl std::fmt::Debug for StageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageCache")
            .field("stats", &self.stats())
            .field("disk", &self.disk.is_some())
            .field("mem_cap", &self.mem_cap)
            .finish()
    }
}

impl Default for StageCache {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl StageCache {
    /// A cache with only the in-memory tier (per-sweep memoization).
    pub fn in_memory() -> Self {
        Self {
            map_tier: Mutex::new(BTreeMap::new()),
            route_tier: Mutex::new(BTreeMap::new()),
            disk: None,
            counters: Counters::default(),
            mem_cap: None,
            lru: Mutex::new(LruBook::default()),
        }
    }

    /// Bounds the in-memory tiers to roughly `cap` bytes of cached results
    /// (estimated, not malloc-exact), evicting least-recently-used entries
    /// once the budget is exceeded; `None` (the default) is unbounded. A
    /// cap of 0 retains nothing — every lookup recomputes. Entries evicted
    /// from memory are still restorable from the disk tier when one is
    /// attached. See the module docs for the determinism trade-off.
    pub fn with_mem_cap(mut self, cap: Option<usize>) -> Self {
        self.mem_cap = cap;
        self
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn mem_cap(&self) -> Option<usize> {
        self.mem_cap
    }

    /// A cache whose map tier additionally persists to
    /// `dir/map-cache.jsonl` for cross-run reuse: existing entries are
    /// loaded up front, new computations append. Route results stay
    /// memory-only — they are cheap relative to their serialized size and
    /// re-derive from a disk-restored mapping in one routing pass.
    ///
    /// Truncated trailing lines (a previous process killed mid-append)
    /// are skipped, not fatal. The directory is created if absent.
    ///
    /// # Errors
    ///
    /// The underlying I/O error message when the directory or cache file
    /// cannot be created or read.
    pub fn with_disk(dir: &Path) -> Result<Self, String> {
        let path = dir.join("map-cache.jsonl");
        fs::create_dir_all(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        let mut entries = BTreeMap::new();
        match fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    // Later lines win: a recomputed key supersedes its
                    // earlier spelling on the next load.
                    if let Some((key, record)) = DiskRecord::parse(line) {
                        entries.insert(key, record);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cache file {}: {e}", path.display())),
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cache file {}: {e}", path.display()))?;
        Ok(Self {
            map_tier: Mutex::new(BTreeMap::new()),
            route_tier: Mutex::new(BTreeMap::new()),
            disk: Some(DiskTier { entries: Mutex::new(entries), file: Mutex::new(file) }),
            counters: Counters::default(),
            mem_cap: None,
            lru: Mutex::new(LruBook::default()),
        })
    }

    /// True when the on-disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// Memoized map stage: returns the cached result for `key`, running
    /// `compute` only on a cold key (checking the disk tier first, when
    /// attached). Exactly-once per key per process, even under concurrent
    /// lookups. `problem` validates disk-restored placements — an entry
    /// whose shape does not match the problem (stale file, colliding key
    /// from a foreign sweep) is recomputed, never trusted.
    pub fn map_stage(
        &self,
        key: &str,
        problem: &MappingProblem,
        compute: impl FnOnce() -> MapResult,
    ) -> (MapResult, Lookup) {
        let slot = {
            let mut tier = self.map_tier.lock().expect("map tier not poisoned");
            Arc::clone(tier.entry(key.to_string()).or_default())
        };
        let mut ran = false;
        let mut from_disk = false;
        let value = slot.get_or_init(|| {
            ran = true;
            if let Some(disk) = &self.disk {
                if let Some(restored) = disk.lookup(key, problem) {
                    from_disk = true;
                    return restored;
                }
            }
            let computed = compute();
            if let Some(disk) = &self.disk {
                disk.store(key, &computed);
            }
            computed
        });
        let lookup = if !ran {
            self.counters.map_hits.fetch_add(1, Ordering::Relaxed);
            Lookup::Hit
        } else if from_disk {
            self.counters.map_disk_hits.fetch_add(1, Ordering::Relaxed);
            Lookup::DiskHit
        } else {
            self.counters.map_misses.fetch_add(1, Ordering::Relaxed);
            Lookup::Miss
        };
        let value = value.clone();
        self.note_use(Stage::Map, key, ran.then(|| map_result_bytes(&value)));
        (value, lookup)
    }

    /// Memoized route stage (in-memory tier only): returns the cached
    /// result for `key`, running `compute` exactly once per key per
    /// process.
    pub fn route_stage(
        &self,
        key: &str,
        compute: impl FnOnce() -> RouteResult,
    ) -> (RouteResult, Lookup) {
        let slot = {
            let mut tier = self.route_tier.lock().expect("route tier not poisoned");
            Arc::clone(tier.entry(key.to_string()).or_default())
        };
        let mut ran = false;
        let value = slot.get_or_init(|| {
            ran = true;
            compute()
        });
        let lookup = if ran {
            self.counters.route_misses.fetch_add(1, Ordering::Relaxed);
            Lookup::Miss
        } else {
            self.counters.route_hits.fetch_add(1, Ordering::Relaxed);
            Lookup::Hit
        };
        let value = value.clone();
        self.note_use(Stage::Route, key, ran.then(|| route_result_bytes(&value)));
        (value, lookup)
    }

    /// Records a lookup in the byte-budget book (no-op when unbounded):
    /// `bytes` is `Some` when the slot was just filled (book the entry at
    /// its estimated size), `None` on a hit (refresh its recency tick).
    /// Then evicts least-recently-used entries until the budget holds.
    fn note_use(&self, stage: Stage, key: &str, bytes: Option<usize>) {
        let Some(cap) = self.mem_cap else { return };
        let mut book = self.lru.lock().expect("lru book not poisoned");
        book.clock += 1;
        let tick = book.clock;
        match bytes {
            Some(b) => {
                let prev = book.entries(stage).insert(key.to_string(), LruEntry { tick, bytes: b });
                book.total_bytes = book.total_bytes - prev.map_or(0, |p| p.bytes) + b;
            }
            None => {
                if let Some(entry) = book.entries(stage).get_mut(key) {
                    entry.tick = tick;
                }
            }
        }
        while book.total_bytes > cap {
            let Some((victim_stage, victim_key, victim_bytes)) = book.oldest() else { break };
            match victim_stage {
                Stage::Map => {
                    self.map_tier.lock().expect("map tier not poisoned").remove(&victim_key);
                }
                Stage::Route => {
                    self.route_tier.lock().expect("route tier not poisoned").remove(&victim_key);
                }
            }
            book.entries(victim_stage).remove(&victim_key);
            book.total_bytes -= victim_bytes;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            map_hits: self.counters.map_hits.load(Ordering::Relaxed),
            map_disk_hits: self.counters.map_disk_hits.load(Ordering::Relaxed),
            map_misses: self.counters.map_misses.load(Ordering::Relaxed),
            route_hits: self.counters.route_hits.load(Ordering::Relaxed),
            route_misses: self.counters.route_misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Estimated in-memory footprint of a map-stage result. Deliberately
/// coarse — the budget bounds growth, it does not account allocators.
fn map_result_bytes(value: &MapResult) -> usize {
    const BASE: usize = 64;
    match value {
        Ok((mapping, _)) => BASE + mapping.node_count() * 24,
        Err(e) => BASE + e.len(),
    }
}

/// Estimated in-memory footprint of a route-stage result: the load vector
/// plus, when tables were materialized, every split route's link list.
fn route_result_bytes(value: &RouteResult) -> usize {
    const BASE: usize = 64;
    match value {
        Ok((tables, loads)) => {
            let table_bytes = tables.as_ref().map_or(0, |t| {
                (0..t.commodity_count())
                    .map(|e| {
                        t.routes_of(EdgeId::new(e))
                            .iter()
                            .map(|r| 32 + r.links.len() * 8)
                            .sum::<usize>()
                            + 24
                    })
                    .sum()
            });
            BASE + loads.as_slice().len() * 8 + table_bytes
        }
        Err(e) => BASE + e.len(),
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

/// The route stage's cache key: the map key plus everything the route
/// stage additionally reads — the link capacity (always: the MCF programs
/// constrain on it and the feasibility record derives from it), the
/// routing regime, and whether tables are materialized (a tables-bearing
/// result and a loads-only result are different values).
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

/// The on-disk map tier: one JSONL file, one entry per line, loaded
/// whole at open, appended under a lock. Entry shape:
/// `{"key":..,"error":..,"evaluations":N,"nodes":K,"pairs":"c:n c:n .."}`.
struct DiskTier {
    entries: Mutex<BTreeMap<String, DiskRecord>>,
    file: Mutex<fs::File>,
}

impl DiskTier {
    fn lookup(&self, key: &str, problem: &MappingProblem) -> Option<MapResult> {
        let entries = self.entries.lock().expect("disk entries not poisoned");
        let record = entries.get(key)?;
        record.restore(problem)
    }

    fn store(&self, key: &str, value: &MapResult) {
        let record = DiskRecord::of(value);
        let line = record.to_json(key);
        {
            let mut file = self.file.lock().expect("disk file not poisoned");
            // Persistence is best-effort: a full disk degrades to
            // recompute-on-next-run, never to a failed sweep.
            let _ = writeln!(file, "{line}");
        }
        self.entries.lock().expect("disk entries not poisoned").insert(key.to_string(), record);
    }
}

struct DiskRecord {
    error: String,
    evaluations: usize,
    nodes: usize,
    pairs: Vec<(usize, usize)>,
}

impl DiskRecord {
    fn of(value: &MapResult) -> Self {
        match value {
            Ok((mapping, evaluations)) => Self {
                error: String::new(),
                evaluations: *evaluations,
                nodes: mapping.node_count(),
                pairs: mapping
                    .to_pairs()
                    .into_iter()
                    .map(|(c, n)| (c.index(), n.index()))
                    .collect(),
            },
            Err(e) => Self { error: e.clone(), evaluations: 0, nodes: 0, pairs: Vec::new() },
        }
    }

    fn to_json(&self, key: &str) -> String {
        let pairs =
            self.pairs.iter().map(|(c, n)| format!("{c}:{n}")).collect::<Vec<_>>().join(" ");
        let mut out = String::with_capacity(96 + pairs.len());
        out.push('{');
        push_json_str(&mut out, "key", key);
        out.push(',');
        push_json_str(&mut out, "error", &self.error);
        out.push_str(&format!(",\"evaluations\":{},\"nodes\":{},", self.evaluations, self.nodes));
        push_json_str(&mut out, "pairs", &pairs);
        out.push('}');
        out
    }

    fn parse(line: &str) -> Option<(String, DiskRecord)> {
        let pairs = parse_flat_json(line).ok()?;
        let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let str_field = |name: &str| match get(name)? {
            JsonValue::Str(s) => Some(s.clone()),
            _ => None,
        };
        let num_field = |name: &str| match get(name)? {
            JsonValue::Num(raw) => raw.parse::<usize>().ok(),
            _ => None,
        };
        let key = str_field("key")?;
        let error = str_field("error")?;
        let evaluations = num_field("evaluations")?;
        let nodes = num_field("nodes")?;
        let pairs_text = str_field("pairs")?;
        let mut placed = Vec::new();
        for token in pairs_text.split_whitespace() {
            let (c, n) = token.split_once(':')?;
            placed.push((c.parse().ok()?, n.parse().ok()?));
        }
        Some((key, DiskRecord { error, evaluations, nodes, pairs: placed }))
    }

    /// Rebuilds the cached [`MapResult`], validating the entry against
    /// the problem it is about to stand in for: node count must match,
    /// every core placed exactly once within bounds, no node reused.
    /// Invalid entries return `None` (recompute) rather than corrupt
    /// records.
    fn restore(&self, problem: &MappingProblem) -> Option<MapResult> {
        if !self.error.is_empty() {
            return Some(Err(self.error.clone()));
        }
        let node_count = problem.topology().node_count();
        let core_count = problem.cores().core_count();
        if self.nodes != node_count || self.pairs.len() != core_count {
            return None;
        }
        let mut core_seen = vec![false; core_count];
        let mut node_seen = vec![false; node_count];
        for &(c, n) in &self.pairs {
            if c >= core_count || n >= node_count || core_seen[c] || node_seen[n] {
                return None;
            }
            core_seen[c] = true;
            node_seen[n] = true;
        }
        let mut mapping = Mapping::new(node_count);
        for &(c, n) in &self.pairs {
            mapping.place(CoreId::new(c), NodeId::new(n));
        }
        Some(Ok((mapping, self.evaluations)))
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
    fn mem_cap_evicts_least_recently_used() {
        assert_eq!(StageCache::in_memory().mem_cap(), None, "default is unbounded");
        // Each loads-only result estimates to 96 bytes, so a 200-byte
        // budget holds two entries.
        let cache = StageCache::in_memory().with_mem_cap(Some(200));
        let compute = || Ok((None, LinkLoads::zeros(4)));
        let (_, l) = cache.route_stage("a", compute);
        assert_eq!(l, Lookup::Miss);
        let (_, l) = cache.route_stage("b", compute);
        assert_eq!(l, Lookup::Miss);
        assert_eq!(cache.stats().evictions, 0);
        // Touch "a" so "b" is the LRU victim when "c" overflows the budget.
        let (_, l) = cache.route_stage("a", || panic!("resident"));
        assert_eq!(l, Lookup::Hit);
        let (_, l) = cache.route_stage("c", compute);
        assert_eq!(l, Lookup::Miss);
        assert_eq!(cache.stats().evictions, 1);
        let (_, l) = cache.route_stage("a", || panic!("still resident"));
        assert_eq!(l, Lookup::Hit);
        let (replayed, l) = cache.route_stage("b", compute);
        assert_eq!(l, Lookup::Miss, "evicted key recomputes");
        assert_eq!(replayed, Ok((None, LinkLoads::zeros(4))));
    }

    #[test]
    fn mem_cap_zero_retains_nothing_but_stays_deterministic() {
        let cache = StageCache::in_memory().with_mem_cap(Some(0));
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let key = map_key(&s);
        let mut results = Vec::new();
        for _ in 0..3 {
            let (r, l) = cache.map_stage(&key, &problem, || Ok((nmap::initialize(&problem), 0)));
            assert_eq!(l, Lookup::Miss, "cap 0 retains nothing");
            results.push(r);
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "recomputes are deterministic");
        let stats = cache.stats();
        assert_eq!((stats.map_misses, stats.map_hits), (3, 0));
        assert_eq!(stats.evictions, 3);
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
        assert_eq!((stats.map_misses, stats.map_hits, stats.map_disk_hits), (1, 2, 0));
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
    fn route_stage_memoizes_in_memory() {
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let mapping = nmap::initialize(&problem);
        let cache = StageCache::in_memory();
        let key = route_key(&s, false);
        let compute = || {
            let (paths, loads) =
                nmap::routing::route_min_paths(&problem, &mapping).map_err(|e| e.to_string())?;
            let _ = paths;
            Ok((None, loads))
        };
        let (a, l1) = cache.route_stage(&key, compute);
        let (b, l2) = cache.route_stage(&key, || panic!("memoized"));
        assert_eq!(a, b);
        assert_eq!((l1, l2), (Lookup::Miss, Lookup::Hit));
        let stats = cache.stats();
        assert_eq!((stats.route_misses, stats.route_hits), (1, 1));
    }

    /// Hand-rolled scratch dir (no tempfile dependency): unique per test
    /// via process id + a name, removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("noc-dse-cache-{}-{name}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disk_tier_round_trips_across_cache_instances() {
        let scratch = ScratchDir::new("roundtrip");
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let key = map_key(&s);
        let expected = nmap::initialize(&problem);

        let warm = StageCache::with_disk(&scratch.0).unwrap();
        let (first, lookup) = warm.map_stage(&key, &problem, || Ok((expected.clone(), 3)));
        assert_eq!(lookup, Lookup::Miss);
        assert_eq!(first, Ok((expected.clone(), 3)));
        // Error entries persist too.
        let (_, lookup) = warm.map_stage("bad", &problem, || Err("no fit".into()));
        assert_eq!(lookup, Lookup::Miss);
        drop(warm);

        // A fresh cache over the same dir restores without computing.
        let reopened = StageCache::with_disk(&scratch.0).unwrap();
        let (restored, lookup) =
            reopened.map_stage(&key, &problem, || panic!("must restore from disk"));
        assert_eq!(lookup, Lookup::DiskHit);
        assert_eq!(restored, Ok((expected, 3)));
        let (err, lookup) = reopened.map_stage("bad", &problem, || panic!("cached error"));
        assert_eq!(lookup, Lookup::DiskHit);
        assert_eq!(err.unwrap_err(), "no fit");
        let stats = reopened.stats();
        assert_eq!((stats.map_disk_hits, stats.map_misses), (2, 0));
    }

    #[test]
    fn disk_tier_rejects_stale_and_corrupt_entries() {
        let scratch = ScratchDir::new("stale");
        let s = scenario(MapperSpec::NmapInit, 1_000.0, RoutingSpec::MinPath);
        let problem = s.problem().unwrap();
        let key = map_key(&s);

        // Seed the file with a valid-JSON entry whose shape cannot match
        // the problem (wrong node count), a corrupt line, and a truncated
        // trailing line.
        fs::create_dir_all(&scratch.0).unwrap();
        let mut record = DiskRecord::of(&Ok((nmap::initialize(&problem), 0)));
        record.nodes += 1;
        let mut text = record.to_json(&key);
        text.push('\n');
        text.push_str("not json\n");
        text.push_str("{\"key\":\"trunc");
        fs::write(scratch.0.join("map-cache.jsonl"), text).unwrap();

        let cache = StageCache::with_disk(&scratch.0).unwrap();
        let (_, lookup) = cache.map_stage(&key, &problem, || Ok((nmap::initialize(&problem), 0)));
        assert_eq!(lookup, Lookup::Miss, "stale entry must recompute");

        // A duplicated-node entry is rejected by the placement check.
        let pairs: Vec<_> = (0..problem.cores().core_count()).map(|c| (c, 0)).collect();
        let bad = DiskRecord {
            error: String::new(),
            evaluations: 0,
            nodes: problem.topology().node_count(),
            pairs,
        };
        assert!(bad.restore(&problem).is_none());
    }
}
