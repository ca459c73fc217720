//! The snapshot model: what a [`Probe`](crate::Probe) has collected,
//! detached from the live atomics, plus its JSONL encoding. A disabled
//! probe's snapshot is always empty.

use std::fmt::Write as _;

/// One field value of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, cycle numbers, iteration indices).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (costs, temperatures, fractions).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (labels, mapper names).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// One emitted event: a name plus ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name (workspace convention: `<subsystem>.<event>`).
    pub name: String,
    /// Fields in emission order.
    pub fields: Vec<(String, Value)>,
}

/// Snapshot of one counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Snapshot of one histogram. Quantiles are nearest-rank over the
/// retained samples (exact while the recording stayed under the sample
/// cap; see [`crate::Histogram`]); `sum` saturates at `u64::MAX`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Saturating sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median (nearest-rank over retained samples; 0 when empty).
    pub p50: u64,
    /// 95th percentile (nearest-rank over retained samples; 0 when empty).
    pub p95: u64,
}

/// Everything a probe collected, detached from the live handles:
/// metrics sorted by name, events in emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Profile {
    /// Counter snapshots, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Events in emission order.
    pub events: Vec<Event>,
}

impl Profile {
    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.events.is_empty()
    }

    /// Value of the named counter, if it was registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Snapshot of the named histogram, if it was registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Events with the given name, in emission order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Encodes the profile as JSON lines: one object per metric and per
    /// event, each with a `"type"` discriminator (`counter`, `histogram`,
    /// `event`). Metrics come first (sorted by name), then
    /// events in emission order. Returns the empty string for an empty
    /// profile.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_json_string(&mut out, &c.name);
            let _ = write!(out, ",\"value\":{}}}", c.value);
            out.push('\n');
        }
        for h in &self.histograms {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_json_string(&mut out, &h.name);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95
            );
            out.push('\n');
        }
        for e in &self.events {
            out.push_str("{\"type\":\"event\",\"name\":");
            push_json_string(&mut out, &e.name);
            for (key, value) in &e.fields {
                out.push(',');
                push_json_string(&mut out, key);
                out.push(':');
                push_json_value(&mut out, value);
            }
            out.push_str("}\n");
        }
        out
    }
}

fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => push_json_f64(out, *v),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => push_json_string(out, v),
    }
}

/// JSON has no spelling for `inf`/`NaN`; non-finite values become `null`
/// rather than emitting unparsable output (same policy as the dse report
/// writers).
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_json_string(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_json_objects_with_type_tags() {
        let profile = Profile {
            counters: vec![CounterSnapshot { name: "a.b".into(), value: 7 }],
            histograms: vec![HistogramSnapshot {
                name: "h_us".into(),
                count: 2,
                sum: 30,
                min: 10,
                max: 20,
                p50: 10,
                p95: 20,
            }],
            events: vec![Event {
                name: "e".into(),
                fields: vec![
                    ("iter".into(), Value::U64(3)),
                    ("cost".into(), Value::F64(1.5)),
                    ("label".into(), Value::Str("a \"b\"\n".into())),
                    ("ok".into(), Value::Bool(true)),
                    ("delta".into(), Value::I64(-2)),
                ],
            }],
        };
        let jsonl = profile.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not an object: {line}");
        }
        assert_eq!(lines[0], "{\"type\":\"counter\",\"name\":\"a.b\",\"value\":7}");
        assert!(lines[1].contains("\"p95\":20"), "histogram line: {}", lines[1]);
        assert!(lines[2].contains("\"label\":\"a \\\"b\\\"\\n\""), "event line: {}", lines[2]);
        assert!(lines[2].contains("\"delta\":-2"));
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        let profile = Profile {
            events: vec![Event {
                name: "e".into(),
                fields: vec![
                    ("n".into(), Value::F64(f64::NAN)),
                    ("v".into(), Value::F64(f64::INFINITY)),
                ],
            }],
            ..Default::default()
        };
        let jsonl = profile.to_jsonl();
        assert!(jsonl.contains("\"n\":null"));
        assert!(jsonl.contains("\"v\":null"));
        assert!(!jsonl.contains("inf") && !jsonl.contains("NaN"));
    }

    #[test]
    fn lookups_find_metrics_by_name() {
        let profile = Profile {
            counters: vec![CounterSnapshot { name: "c".into(), value: 3 }],
            ..Default::default()
        };
        assert_eq!(profile.counter("c"), Some(3));
        assert_eq!(profile.counter("missing"), None);
        assert!(profile.histogram("h").is_none());
        assert!(!profile.is_empty());
        assert!(Profile::default().is_empty());
        assert_eq!(Profile::default().to_jsonl(), "");
    }

    #[test]
    fn value_from_impls_cover_the_common_types() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(3u64), Value::U64(3));
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(0.5), Value::F64(0.5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from("x".to_string()), Value::Str("x".into()));
    }
}
