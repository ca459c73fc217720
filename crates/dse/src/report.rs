//! Sweep results: per-scenario [`RunRecord`]s, the aggregate
//! [`SweepReport`], JSON-lines and CSV writers, and summary statistics.
//!
//! Writers emit records in scenario order and, by default, exclude the
//! wall-clock timing fields — everything else is a deterministic function
//! of the scenario, so default-form output is byte-identical regardless of
//! how many engine threads produced it (asserted by the crate's
//! determinism integration test). Pass `timing = true` to include the
//! per-stage microsecond timings for profiling.
//!
//! Each record column is listed once, in `RunRecord::columns`: a name and
//! a [`noc_probe::Value`], in output order. The JSON line (through
//! [`noc_probe::json_object`]), the CSV header and every CSV row derive
//! from that list, and [`parse_record_json`] is its inverse, so a new
//! column is one list entry plus one field read there.

use std::fmt;
use std::time::Duration;

use noc_probe::{json_object, push_json_value, Value};
use noc_units::{HopMbps, Latency, Mbps, UnitError};

use crate::Scenario;

/// Wall-clock time spent in each stage of one scenario, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimes {
    /// Building the core graph and topology.
    pub build_us: u64,
    /// Running the mapper.
    pub map_us: u64,
    /// Routing the placed traffic and measuring loads.
    pub route_us: u64,
    /// Running the wormhole simulator (0 when the scenario has no
    /// simulate stage).
    pub sim_us: u64,
    /// Stage-cache bookkeeping: key derivation, lookup and store overhead
    /// of the map-stage memo (the route stage is not memoized). Kept
    /// separate so worker-utilization profiles attribute cache time
    /// honestly instead of folding it into the stage it displaced.
    pub cache_us: u64,
}

impl StageTimes {
    /// Total microseconds across all stages, saturating at `u64::MAX`
    /// (individual stage fields are `pub`, so hand-built records can
    /// legitimately hold values whose sum would overflow).
    pub fn total_us(&self) -> u64 {
        self.build_us
            .saturating_add(self.map_us)
            .saturating_add(self.route_us)
            .saturating_add(self.sim_us)
            .saturating_add(self.cache_us)
    }

    /// Converts a [`Duration`] to saturating microseconds (durations
    /// beyond ~584 000 years clamp to `u64::MAX` instead of truncating).
    pub fn us(d: Duration) -> u64 {
        u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
    }

    /// Field-wise saturating sum of two stage-time records (used by the
    /// sweep summary; keeps aggregate wall time overflow-safe).
    pub fn saturating_sum(&self, other: &StageTimes) -> StageTimes {
        StageTimes {
            build_us: self.build_us.saturating_add(other.build_us),
            map_us: self.map_us.saturating_add(other.map_us),
            route_us: self.route_us.saturating_add(other.route_us),
            sim_us: self.sim_us.saturating_add(other.sim_us),
            cache_us: self.cache_us.saturating_add(other.cache_us),
        }
    }
}

/// Simulation-stage measurements of one scenario (present when the
/// scenario carried a [`crate::SimulateSpec`]). All values are
/// deterministic functions of the scenario — the traffic seed derives
/// from the scenario seed, never from engine worker identity — so they
/// participate in the byte-identical-output guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Mean packet latency in cycles (generation → tail ejection,
    /// source queueing included).
    pub avg_latency_cycles: Latency,
    /// Mean network-only latency in cycles (network entry → ejection).
    pub avg_network_latency_cycles: Latency,
    /// Coarse 95th-percentile latency bound in cycles (histogram bucket
    /// upper edge; 0 when no packet was measured).
    pub p95_latency_cycles: u64,
    /// Accepted throughput over the measurement window: payload bytes of
    /// measured delivered packets per unit time.
    pub delivered_mbps: Mbps,
    /// Peak per-link throughput during the window.
    pub max_link_mbps: Mbps,
    /// Saturation flag (deadlock drops or in-flight measured packets at
    /// the end of the drain window).
    pub saturated: bool,
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Application label (e.g. `VOPD`, `rand25#2`).
    pub scenario: String,
    /// Number of cores in the application.
    pub cores: usize,
    /// Resolved topology label (e.g. `mesh4x4`).
    pub topology: String,
    /// Uniform link capacity.
    pub capacity: Mbps,
    /// Mapper name.
    pub mapper: String,
    /// Routing-regime name.
    pub routing: String,
    /// The scenario's seed.
    pub seed: u64,
    /// Empty on success, otherwise the failure message.
    pub error: String,
    /// Whether the routed loads satisfy every link capacity.
    pub feasible: bool,
    /// Equation-7 communication cost of the placement.
    pub comm_cost: HopMbps,
    /// Heaviest link load under the scenario's routing regime.
    pub max_link_load: Mbps,
    /// Sum of all link loads (total flow).
    pub total_load: Mbps,
    /// Mapper work measure (placements scored by the swap searches and
    /// NMAP-split, or PBB expansions; 0 for constructive mappers).
    pub evaluations: usize,
    /// Simulation-stage measurements (`None` when the scenario has no
    /// simulate stage; the sim columns then serialize as `null`).
    pub sim: Option<SimStats>,
    /// Per-stage wall-clock times (excluded from default-form output).
    pub times: StageTimes,
}

impl RunRecord {
    /// A record for a scenario that failed before producing a mapping.
    pub fn failed(scenario: &Scenario, cores: usize, topology: String, error: String) -> Self {
        RunRecord {
            scenario: scenario.label.clone(),
            cores,
            topology,
            capacity: scenario.capacity,
            mapper: scenario.mapper.name(),
            routing: scenario.routing.name().to_string(),
            seed: scenario.seed,
            error,
            ..RunRecord::default()
        }
    }

    /// True when the scenario ran to completion.
    pub fn is_ok(&self) -> bool {
        self.error.is_empty()
    }

    /// One JSON object (single line, no trailing newline).
    pub fn to_json(&self, timing: bool) -> String {
        json_object(self.columns(timing))
    }

    /// The record's columns in output order, the timing columns last when
    /// `timing` is set: the one list behind the JSON line, the CSV header
    /// and every CSV row ([`parse_record_json`] is its inverse). The sim
    /// columns are `null` when the scenario did not simulate.
    fn columns(&self, timing: bool) -> Vec<(&'static str, Value)> {
        let sim = |column: fn(&SimStats) -> Value| self.sim.as_ref().map_or(Value::Null, column);
        let mut columns = vec![
            ("scenario", Value::from(self.scenario.as_str())),
            ("cores", Value::from(self.cores)),
            ("topology", Value::from(self.topology.as_str())),
            ("capacity", Value::from(self.capacity.to_f64())),
            ("mapper", Value::from(self.mapper.as_str())),
            ("routing", Value::from(self.routing.as_str())),
            ("seed", Value::from(self.seed)),
            ("error", Value::from(self.error.as_str())),
            ("feasible", Value::from(self.feasible)),
            ("comm_cost", Value::from(self.comm_cost.to_f64())),
            ("max_link_load", Value::from(self.max_link_load.to_f64())),
            ("total_load", Value::from(self.total_load.to_f64())),
            ("evaluations", Value::from(self.evaluations)),
            ("sim_avg_latency", sim(|s| s.avg_latency_cycles.to_f64().into())),
            ("sim_network_latency", sim(|s| s.avg_network_latency_cycles.to_f64().into())),
            ("sim_p95_latency", sim(|s| s.p95_latency_cycles.into())),
            ("sim_delivered_mbps", sim(|s| s.delivered_mbps.to_f64().into())),
            ("sim_max_link_mbps", sim(|s| s.max_link_mbps.to_f64().into())),
            ("sim_saturated", sim(|s| s.saturated.into())),
        ];
        if timing {
            let t = &self.times;
            columns.extend([
                ("build_us", Value::from(t.build_us)),
                ("map_us", Value::from(t.map_us)),
                ("route_us", Value::from(t.route_us)),
                ("sim_us", Value::from(t.sim_us)),
                ("cache_us", Value::from(t.cache_us)),
            ]);
        }
        columns
    }
}

/// The complete result of one sweep: records in scenario order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepReport {
    /// Per-scenario records, in [`crate::ScenarioSet`] order.
    pub records: Vec<RunRecord>,
}

impl SweepReport {
    /// Wraps records (already in scenario order).
    pub fn new(records: Vec<RunRecord>) -> Self {
        Self { records }
    }

    /// All records as JSON lines (one object per line, trailing newline).
    pub fn write_jsonl(&self, timing: bool) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json(timing));
            out.push('\n');
        }
        out
    }

    /// All records as CSV with a header row (trailing newline). Text
    /// cells are quoted only when they hold a separator, quote or
    /// newline; every other cell is spelled as in the JSON line.
    pub fn write_csv(&self, timing: bool) -> String {
        let header: Vec<&str> =
            RunRecord::default().columns(timing).into_iter().map(|(name, _)| name).collect();
        let mut out = header.join(",");
        out.push('\n');
        for r in &self.records {
            for (i, (_, value)) in r.columns(timing).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match value {
                    Value::Str(text) => out.push_str(&csv_cell(text)),
                    other => push_json_value(&mut out, other),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Aggregate statistics over the records.
    pub fn summary(&self) -> SweepSummary {
        let mut costs: Vec<f64> =
            self.records.iter().filter(|r| r.is_ok()).map(|r| r.comm_cost.to_f64()).collect();
        // total_cmp keeps this panic-free even for hand-built records
        // holding non-finite costs (NaN sorts last).
        costs.sort_by(f64::total_cmp);
        let completed = costs.len();
        let feasible = self.records.iter().filter(|r| r.feasible).count();
        let times =
            self.records.iter().fold(StageTimes::default(), |acc, r| acc.saturating_sum(&r.times));
        let sims: Vec<&SimStats> = self.records.iter().filter_map(|r| r.sim.as_ref()).collect();
        let mut sim_latencies: Vec<f64> =
            sims.iter().map(|s| s.avg_latency_cycles.to_f64()).collect();
        sim_latencies.sort_by(f64::total_cmp);
        SweepSummary {
            scenarios: self.records.len(),
            failed: self.records.len() - completed,
            feasible,
            feasibility_rate: if completed == 0 { 0.0 } else { feasible as f64 / completed as f64 },
            // Nearest-rank quantiles select an element (no interpolation),
            // so the raw f64s are exactly the typed costs that went in.
            cost_min: HopMbps::raw(quantile(&costs, 0.0)),
            cost_median: HopMbps::raw(quantile(&costs, 0.5)),
            cost_p90: HopMbps::raw(quantile(&costs, 0.9)),
            cost_max: HopMbps::raw(quantile(&costs, 1.0)),
            simulated: sims.len(),
            saturated: sims.iter().filter(|s| s.saturated).count(),
            sim_latency_median: Latency::raw(quantile(&sim_latencies, 0.5)),
            sim_latency_p90: Latency::raw(quantile(&sim_latencies, 0.9)),
            times,
        }
    }
}

/// Aggregate statistics of a sweep (see [`SweepReport::summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Total scenarios run.
    pub scenarios: usize,
    /// Scenarios that errored before producing a mapping/routing.
    pub failed: usize,
    /// Scenarios whose routed loads met every link capacity.
    pub feasible: usize,
    /// `feasible / (scenarios - failed)`; 0 when nothing completed.
    // lint: allow(f64-api) — dimensionless ratio in [0, 1].
    pub feasibility_rate: f64,
    /// Minimum communication cost over completed scenarios (0 if none).
    pub cost_min: HopMbps,
    /// Median communication cost (nearest-rank).
    pub cost_median: HopMbps,
    /// 90th-percentile communication cost (nearest-rank).
    pub cost_p90: HopMbps,
    /// Maximum communication cost.
    pub cost_max: HopMbps,
    /// Scenarios that ran the simulation stage.
    pub simulated: usize,
    /// Simulated scenarios that showed saturation.
    pub saturated: usize,
    /// Median mean-packet-latency over simulated scenarios (cycles,
    /// nearest-rank; 0 when nothing was simulated).
    pub sim_latency_median: Latency,
    /// 90th-percentile mean-packet-latency over simulated scenarios.
    pub sim_latency_p90: Latency,
    /// Total wall-clock time per stage across all scenarios.
    pub times: StageTimes,
}

impl fmt::Display for SweepSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenarios: {} ({} failed), feasible: {} ({:.1}%)",
            self.scenarios,
            self.failed,
            self.feasible,
            self.feasibility_rate * 100.0
        )?;
        writeln!(
            f,
            "comm cost: min {:.1}, median {:.1}, p90 {:.1}, max {:.1}",
            self.cost_min, self.cost_median, self.cost_p90, self.cost_max
        )?;
        if self.simulated > 0 {
            writeln!(
                f,
                "simulated: {} ({} saturated), latency median {:.1} cy, p90 {:.1} cy",
                self.simulated, self.saturated, self.sim_latency_median, self.sim_latency_p90
            )?;
        }
        write!(
            f,
            "wall time: build {:.1} ms, map {:.1} ms, route {:.1} ms, sim {:.1} ms, cache {:.1} ms",
            self.times.build_us as f64 / 1e3,
            self.times.map_us as f64 / 1e3,
            self.times.route_us as f64 / 1e3,
            self.times.sim_us as f64 / 1e3,
            self.times.cache_us as f64 / 1e3
        )
    }
}

/// Nearest-rank quantile of an ascending-sorted slice; 0 when empty.
///
/// The nearest-rank definition: the smallest element such that at least
/// `⌈q·n⌉` samples are ≤ it (rank floored at 1, so `q = 0` reports the
/// minimum). No interpolation — the result is always an element of the
/// slice, which keeps medians of small sweeps honest.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

fn csv_cell(value: &str) -> String {
    if value.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_string()
    }
}

/// One parsed value of a flat (non-nested) JSON object. Numbers keep
/// their raw decimal spelling: `f64` round-trips through Rust's `{}`
/// formatting exactly, so a record parsed from a checkpoint shard and
/// re-serialized stays byte-identical to the original line.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    /// JSON `null`.
    Null,
    /// JSON `true`/`false`.
    Bool(bool),
    /// A number, kept as its raw source spelling.
    Num(String),
    /// An unescaped string.
    Str(String),
}

impl JsonValue {
    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
        }
    }
}

/// Parses one line holding a flat JSON object (string / number / bool /
/// null values only — exactly the shape [`json_object`] writes) into its
/// key/value pairs in source order.
fn parse_flat_json(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut p = JsonParser { bytes: line.as_bytes(), pos: 0 };
    let pairs = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input after JSON object at byte {}", p.pos));
    }
    Ok(pairs)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn object(&mut self) -> Result<Vec<(String, JsonValue)>, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(pairs);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-UTF-8 number".to_string())?;
                Ok(JsonValue::Num(raw.to_string()))
            }
            _ => Err(format!("unexpected value at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("malformed literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Collect raw spans between escapes so multi-byte UTF-8 passes
        // through untouched.
        let mut span = self.pos;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    out.push_str(self.span_str(span)?);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(self.span_str(span)?);
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            // The writers only \u-escape C0 controls, which
                            // are never surrogate halves.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("\\u{hex} is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                    span = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn span_str(&self, start: usize) -> Result<&str, String> {
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 string content".to_string())
    }
}

/// Key/value view of one parsed flat-JSON line with typed accessors: the
/// reader of the checkpoint's shard records and its manifest. When a key
/// repeats, its first occurrence wins.
pub(crate) struct Fields {
    pairs: Vec<(String, JsonValue)>,
}

impl Fields {
    /// Parses one flat JSON object line.
    pub(crate) fn parse(line: &str) -> Result<Self, String> {
        Ok(Fields { pairs: parse_flat_json(line)? })
    }

    fn get(&self, key: &str) -> Result<&JsonValue, String> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    pub(crate) fn str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            JsonValue::Str(s) => Ok(s.clone()),
            other => Err(format!("field '{key}': expected string, got {}", other.kind())),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            JsonValue::Num(raw) => {
                raw.parse().map_err(|_| format!("field '{key}': bad number '{raw}'"))
            }
            other => Err(format!("field '{key}': expected number, got {}", other.kind())),
        }
    }

    pub(crate) fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            JsonValue::Num(raw) => {
                raw.parse().map_err(|_| format!("field '{key}': bad integer '{raw}'"))
            }
            other => Err(format!("field '{key}': expected integer, got {}", other.kind())),
        }
    }

    pub(crate) fn usize(&self, key: &str) -> Result<usize, String> {
        usize::try_from(self.u64(key)?).map_err(|_| format!("field '{key}': out of range"))
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        if self.pairs.iter().any(|(k, _)| k == key) {
            self.u64(key)
        } else {
            Ok(default)
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key)? {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(format!("field '{key}': expected bool, got {}", other.kind())),
        }
    }

    fn is_null(&self, key: &str) -> Result<bool, String> {
        Ok(matches!(self.get(key)?, JsonValue::Null))
    }

    /// A number field through its quantity's checked constructor, so a
    /// negative or non-finite value is an error naming the field.
    fn quantity<Q>(&self, key: &str, new: fn(f64) -> Result<Q, UnitError>) -> Result<Q, String> {
        new(self.f64(key)?).map_err(|e| format!("field '{key}': {e}"))
    }
}

/// Parses one JSON line written by [`RunRecord::to_json`] back into a
/// [`RunRecord`]. Numbers round-trip exactly (shortest-representation
/// `f64` formatting is invertible), so re-serializing the result
/// reproduces the input line byte-for-byte — the property checkpointed
/// resume relies on. Timing fields are optional and default to zero.
///
/// A shard line is input from outside the process, so every quantity
/// goes through its checked constructor: a negative or non-finite value
/// is an error naming the field, never a record.
pub fn parse_record_json(line: &str) -> Result<RunRecord, String> {
    let f = Fields::parse(line)?;
    let sim = if f.is_null("sim_avg_latency")? {
        None
    } else {
        Some(SimStats {
            avg_latency_cycles: f.quantity("sim_avg_latency", Latency::new)?,
            avg_network_latency_cycles: f.quantity("sim_network_latency", Latency::new)?,
            p95_latency_cycles: f.u64("sim_p95_latency")?,
            delivered_mbps: f.quantity("sim_delivered_mbps", Mbps::new)?,
            max_link_mbps: f.quantity("sim_max_link_mbps", Mbps::new)?,
            saturated: f.bool("sim_saturated")?,
        })
    };
    Ok(RunRecord {
        scenario: f.str("scenario")?,
        cores: f.usize("cores")?,
        topology: f.str("topology")?,
        capacity: f.quantity("capacity", Mbps::new)?,
        mapper: f.str("mapper")?,
        routing: f.str("routing")?,
        seed: f.u64("seed")?,
        error: f.str("error")?,
        feasible: f.bool("feasible")?,
        comm_cost: f.quantity("comm_cost", HopMbps::new)?,
        max_link_load: f.quantity("max_link_load", Mbps::new)?,
        total_load: f.quantity("total_load", Mbps::new)?,
        evaluations: f.usize("evaluations")?,
        sim,
        times: StageTimes {
            build_us: f.u64_or("build_us", 0)?,
            map_us: f.u64_or("map_us", 0)?,
            route_us: f.u64_or("route_us", 0)?,
            sim_us: f.u64_or("sim_us", 0)?,
            cache_us: f.u64_or("cache_us", 0)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_units::{hop_mbps, latency, mbps};

    fn record(cost: f64, feasible: bool) -> RunRecord {
        RunRecord {
            scenario: "VOPD".into(),
            cores: 16,
            topology: "mesh4x4".into(),
            capacity: mbps(1_000.0),
            mapper: "nmap".into(),
            routing: "min-path".into(),
            seed: 42,
            error: String::new(),
            feasible,
            comm_cost: hop_mbps(cost),
            max_link_load: mbps(cost / 4.0),
            total_load: mbps(cost),
            evaluations: 7,
            sim: None,
            times: StageTimes { build_us: 10, map_us: 200, route_us: 30, sim_us: 0, cache_us: 0 },
        }
    }

    /// The CSV header and the one data row of `r` (without newlines).
    fn csv(r: &RunRecord, timing: bool) -> (String, String) {
        let text = SweepReport::new(vec![r.clone()]).write_csv(timing);
        let (header, row) = text.split_once('\n').expect("a header line");
        (header.to_string(), row.strip_suffix('\n').expect("a trailing newline").to_string())
    }

    /// The JSON spelling of one value through the shared writer.
    fn json(value: Value) -> String {
        let mut out = String::new();
        push_json_value(&mut out, &value);
        out
    }

    fn sim_stats(cycles: f64, saturated: bool) -> SimStats {
        SimStats {
            avg_latency_cycles: latency(cycles),
            avg_network_latency_cycles: latency(cycles - 10.0),
            p95_latency_cycles: 256,
            delivered_mbps: mbps(400.0),
            max_link_mbps: mbps(425.5),
            saturated,
        }
    }

    #[test]
    fn json_line_shape_and_escaping() {
        let mut r = record(4119.5, true);
        r.error = "bad \"quote\"\nline".into();
        let json = r.to_json(false);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"comm_cost\":4119.5"));
        assert!(json.contains("\"feasible\":true"));
        assert!(json.contains("\\\"quote\\\"\\nline"));
        assert!(!json.contains("build_us"));
        assert!(r.to_json(true).contains("\"map_us\":200"));
    }

    /// The whole record format, byte for byte: column order, number,
    /// boolean, `null` and escape spellings, the timing tail and the CSV
    /// quoting.
    #[test]
    fn record_format_is_pinned_byte_for_byte() {
        let mut r = record(4119.5, true);
        r.comm_cost = hop_mbps(0.1 + 0.2);
        r.error = "bad \"quote\"\nline\t\u{0001}end".into();
        r.sim = Some(sim_stats(123.5, true));
        r.times = StageTimes { build_us: 10, map_us: 200, route_us: 30, sim_us: 77, cache_us: 9 };
        let plain = "{\"scenario\":\"VOPD\",\"cores\":16,\"topology\":\"mesh4x4\",\
                     \"capacity\":1000,\"mapper\":\"nmap\",\"routing\":\"min-path\",\"seed\":42,\
                     \"error\":\"bad \\\"quote\\\"\\nline\\t\\u0001end\",\"feasible\":true,\
                     \"comm_cost\":0.30000000000000004,\"max_link_load\":1029.875,\
                     \"total_load\":4119.5,\"evaluations\":7,\"sim_avg_latency\":123.5,\
                     \"sim_network_latency\":113.5,\"sim_p95_latency\":256,\
                     \"sim_delivered_mbps\":400,\"sim_max_link_mbps\":425.5,\
                     \"sim_saturated\":true";
        assert_eq!(r.to_json(false), format!("{plain}}}"));
        assert_eq!(
            r.to_json(true),
            format!("{plain},\"build_us\":10,\"map_us\":200,\"route_us\":30,\"sim_us\":77,\"cache_us\":9}}")
        );
        let unsimulated = record(2.0, false);
        assert_eq!(
            unsimulated.to_json(false),
            "{\"scenario\":\"VOPD\",\"cores\":16,\"topology\":\"mesh4x4\",\"capacity\":1000,\
             \"mapper\":\"nmap\",\"routing\":\"min-path\",\"seed\":42,\"error\":\"\",\
             \"feasible\":false,\"comm_cost\":2,\"max_link_load\":0.5,\"total_load\":2,\
             \"evaluations\":7,\"sim_avg_latency\":null,\"sim_network_latency\":null,\
             \"sim_p95_latency\":null,\"sim_delivered_mbps\":null,\"sim_max_link_mbps\":null,\
             \"sim_saturated\":null}"
        );
        assert_eq!(
            SweepReport::new(vec![r, unsimulated]).write_csv(true),
            "scenario,cores,topology,capacity,mapper,routing,seed,error,feasible,comm_cost,\
             max_link_load,total_load,evaluations,sim_avg_latency,sim_network_latency,\
             sim_p95_latency,sim_delivered_mbps,sim_max_link_mbps,sim_saturated,build_us,map_us,\
             route_us,sim_us,cache_us\n\
             VOPD,16,mesh4x4,1000,nmap,min-path,42,\"bad \"\"quote\"\"\nline\t\u{0001}end\",true,\
             0.30000000000000004,1029.875,4119.5,7,123.5,113.5,256,400,425.5,true,10,200,30,77,9\n\
             VOPD,16,mesh4x4,1000,nmap,min-path,42,,false,2,0.5,2,7,\
             null,null,null,null,null,null,10,200,30,0,0\n"
        );
    }

    #[test]
    fn sim_columns_serialize_and_null_out() {
        let mut r = record(5.0, true);
        let json = r.to_json(false);
        assert!(json.contains("\"sim_avg_latency\":null"));
        assert!(json.contains("\"sim_saturated\":null"));
        assert!(csv(&r, false).1.ends_with(",null,null,null,null,null,null"));

        r.sim = Some(sim_stats(123.5, true));
        let json = r.to_json(false);
        assert!(json.contains("\"sim_avg_latency\":123.5"));
        assert!(json.contains("\"sim_network_latency\":113.5"));
        assert!(json.contains("\"sim_p95_latency\":256"));
        assert!(json.contains("\"sim_max_link_mbps\":425.5"));
        assert!(json.contains("\"sim_saturated\":true"));
        assert!(csv(&r, false).1.contains("123.5,113.5,256,400,425.5,true"));

        r.times.sim_us = 77;
        r.times.cache_us = 9;
        assert!(r.to_json(true).contains("\"sim_us\":77"));
        assert!(r.to_json(true).contains("\"cache_us\":9"));
        assert!(csv(&r, true).1.ends_with(",77,9"));
    }

    #[test]
    fn csv_row_matches_header_width() {
        let r = record(100.0, false);
        for timing in [false, true] {
            let (header, row) = csv(&r, timing);
            assert_eq!(header.split(',').count(), row.split(',').count(), "timing={timing}");
        }
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut r = record(1.0, true);
        r.scenario = "a,b".into();
        assert!(csv(&r, false).1.starts_with("\"a,b\","));
        assert_eq!(csv_cell("plain"), "plain");
        assert_eq!(csv_cell("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn summary_statistics() {
        let report = SweepReport::new(vec![
            record(10.0, true),
            record(20.0, true),
            record(30.0, false),
            record(40.0, true),
            {
                let mut r = record(0.0, false);
                r.error = "boom".into();
                r
            },
        ]);
        let s = report.summary();
        assert_eq!(s.scenarios, 5);
        assert_eq!(s.failed, 1);
        assert_eq!(s.feasible, 3);
        assert!((s.feasibility_rate - 0.75).abs() < 1e-12);
        assert_eq!(s.cost_min, hop_mbps(10.0));
        assert_eq!(s.cost_median, hop_mbps(20.0)); // nearest rank: ceil(0.5*4) = rank 2
        assert_eq!(s.cost_p90, hop_mbps(40.0)); // ceil(0.9*4) = rank 4
        assert_eq!(s.cost_max, hop_mbps(40.0));
        assert_eq!(s.simulated, 0);
        assert_eq!(s.sim_latency_median, Latency::ZERO);
        assert_eq!(s.times.map_us, 5 * 200);
        let shown = s.to_string();
        assert!(shown.contains("feasible: 3"));
        assert!(!shown.contains("simulated:"), "no sim line without simulated records");
    }

    #[test]
    fn summary_aggregates_sim_stats() {
        let mut fast = record(10.0, true);
        fast.sim = Some(sim_stats(80.0, false));
        fast.times.sim_us = 500;
        let mut slow = record(20.0, true);
        slow.sim = Some(sim_stats(200.0, true));
        let report = SweepReport::new(vec![fast, slow, record(30.0, true)]);
        let s = report.summary();
        assert_eq!(s.simulated, 2);
        assert_eq!(s.saturated, 1);
        assert_eq!(s.sim_latency_median, latency(80.0)); // ceil(0.5*2) = rank 1
        assert_eq!(s.sim_latency_p90, latency(200.0));
        assert_eq!(s.times.sim_us, 500);
        let shown = s.to_string();
        assert!(shown.contains("simulated: 2 (1 saturated)"), "display: {shown}");
    }

    #[test]
    fn writers_are_line_per_record() {
        let report = SweepReport::new(vec![record(1.0, true), record(2.0, true)]);
        assert_eq!(report.write_jsonl(false).lines().count(), 2);
        assert_eq!(report.write_csv(false).lines().count(), 3); // header + 2
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        // The typed quantity fields cannot hold non-finite values any
        // more — the serialization seam still guards, so a future f64
        // column (or a quantity grown through unchecked paths) can never
        // emit unparsable JSON.
        assert_eq!(json(Value::F64(f64::INFINITY)), "null");
        assert_eq!(json(Value::F64(f64::NEG_INFINITY)), "null");
        assert_eq!(json(Value::F64(f64::NAN)), "null");
        assert_eq!(json(Value::Null), "null");
        assert_eq!(json(Value::F64(4119.5)), "4119.5");
    }

    #[test]
    fn stage_times_saturate_instead_of_overflowing() {
        // `us` clamps durations whose microsecond count exceeds u64.
        assert_eq!(StageTimes::us(Duration::from_micros(123)), 123);
        assert_eq!(StageTimes::us(Duration::MAX), u64::MAX);

        // `total_us` saturates when the per-stage fields sum past u64.
        let near_max =
            StageTimes { build_us: u64::MAX - 10, map_us: 20, route_us: 5, sim_us: 5, cache_us: 0 };
        assert_eq!(near_max.total_us(), u64::MAX);
        let plain = StageTimes { build_us: 1, map_us: 2, route_us: 3, sim_us: 4, cache_us: 5 };
        assert_eq!(plain.total_us(), 15);

        // The sweep summary's fold saturates instead of panicking.
        let mut a = record(1.0, true);
        a.times = StageTimes {
            build_us: u64::MAX - 5,
            map_us: u64::MAX,
            route_us: 0,
            sim_us: 1,
            cache_us: 2,
        };
        let b = record(2.0, true);
        let s = SweepReport::new(vec![a, b]).summary();
        assert_eq!(s.times.build_us, u64::MAX);
        assert_eq!(s.times.map_us, u64::MAX);
        assert_eq!(s.times.route_us, 30);
        assert_eq!(s.times.sim_us, 1);
    }

    #[test]
    fn quantile_nearest_rank() {
        // Nearest-rank proper: the ⌈q·n⌉-th smallest element, never an
        // interpolated midpoint (the old round((n-1)·q) disagreed with
        // this for small n — e.g. it gave 3.0 as the "median" of four).
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 1.0); // ceil(1) = rank 1
        assert_eq!(quantile(&v, 0.5), 2.0); // ceil(2) = rank 2
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.0); // ceil(3.6) = rank 4
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn record_json_round_trips_byte_identically() {
        let mut r = record(4119.5, true);
        r.error = "bad \"quote\"\nline\t\u{0001}end".into();
        r.times.cache_us = 13;
        for timing in [false, true] {
            let line = r.to_json(timing);
            let back = parse_record_json(&line).expect("parse");
            assert_eq!(back.to_json(timing), line, "timing={timing}");
        }
        // Full equality when timing survives the trip.
        let back = parse_record_json(&r.to_json(true)).unwrap();
        assert_eq!(back, r);
        // Without timing the fields default to zero.
        let back = parse_record_json(&r.to_json(false)).unwrap();
        assert_eq!(back.times, StageTimes::default());

        let mut s = record(10.0, false);
        s.sim = Some(sim_stats(123.5, true));
        let line = s.to_json(true);
        let back = parse_record_json(&line).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(true), line);
    }

    #[test]
    fn parse_record_json_rejects_malformed_lines() {
        assert!(parse_record_json("").is_err());
        assert!(parse_record_json("{\"scenario\":\"x\"}").is_err(), "missing fields");
        assert!(parse_record_json("not json").is_err());
        let good = record(1.0, true).to_json(false);
        assert!(parse_record_json(&format!("{good}garbage")).is_err(), "trailing input");
        let wrong_type = good.replace("\"cores\":16", "\"cores\":\"16\"");
        assert!(parse_record_json(&wrong_type).is_err(), "string where integer expected");
    }

    #[test]
    fn parse_record_json_rejects_negative_and_non_finite_quantities() {
        let mut r = record(1.0, true);
        r.sim = Some(sim_stats(123.5, false));
        let good = r.to_json(false);
        for (from, to, field) in [
            ("\"capacity\":1000", "\"capacity\":-800", "capacity"),
            ("\"comm_cost\":1", "\"comm_cost\":1e999", "comm_cost"),
            ("\"sim_avg_latency\":123.5", "\"sim_avg_latency\":-1", "sim_avg_latency"),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from} not in {good}");
            let err = parse_record_json(&bad).expect_err(to);
            assert!(err.starts_with(&format!("field '{field}': ")), "{to}: {err}");
        }
    }

    #[test]
    fn flat_json_parser_handles_escapes_and_whitespace() {
        let pairs =
            parse_flat_json(" { \"a\" : \"x\\u0041\\n\" , \"b\" : -1.5e3 , \"c\" : null } ")
                .unwrap();
        assert_eq!(
            pairs,
            vec![
                ("a".to_string(), JsonValue::Str("xA\n".to_string())),
                ("b".to_string(), JsonValue::Num("-1.5e3".to_string())),
                ("c".to_string(), JsonValue::Null),
            ]
        );
        assert_eq!(parse_flat_json("{}").unwrap(), vec![]);
        assert!(parse_flat_json("{\"a\":\"unterminated").is_err());
        assert!(parse_flat_json("{\"a\":1,}").is_err());
    }

    #[test]
    fn quantile_small_slices() {
        // One and two elements: the documented nearest-rank results.
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(quantile(&[7.0], 1.0), 7.0);
        let two = [1.0, 9.0];
        assert_eq!(quantile(&two, 0.5), 1.0); // ceil(1) = rank 1: the lower value
        assert_eq!(quantile(&two, 0.51), 9.0); // ceil(1.02) = rank 2
        assert_eq!(quantile(&two, 0.9), 9.0);
        // Three elements: the median is the middle element.
        let three = [1.0, 5.0, 9.0];
        assert_eq!(quantile(&three, 0.5), 5.0);
        assert_eq!(quantile(&three, 0.9), 9.0);
    }
}
