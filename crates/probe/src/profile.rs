//! The snapshot model: what a [`Probe`](crate::Probe) has collected,
//! detached from the live atomics, plus its JSONL encoding. A disabled
//! probe's snapshot is always empty. The encoding's flat-JSON writer,
//! [`json_object`] with [`push_json_value`], is the workspace's one JSON
//! writer.

use std::fmt::Write as _;

/// One field value of an [`Event`], and one value of a line written by
/// [`json_object`].
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
    /// JSON `null`: an absent value.
    Null,
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
        let mut line = |fields: Vec<(&str, Value)>| {
            out.push_str(&json_object(fields));
            out.push('\n');
        };
        for c in &self.counters {
            line(vec![
                ("type", "counter".into()),
                ("name", c.name.as_str().into()),
                ("value", c.value.into()),
            ]);
        }
        for h in &self.histograms {
            line(vec![
                ("type", "histogram".into()),
                ("name", h.name.as_str().into()),
                ("count", h.count.into()),
                ("sum", h.sum.into()),
                ("min", h.min.into()),
                ("max", h.max.into()),
                ("p50", h.p50.into()),
                ("p95", h.p95.into()),
            ]);
        }
        for e in &self.events {
            let mut fields = vec![("type", "event".into()), ("name", e.name.as_str().into())];
            fields.extend(e.fields.iter().map(|(key, value)| (key.as_str(), value.clone())));
            line(fields);
        }
        out
    }
}

/// One flat JSON object holding `fields` in order, on one line:
/// `{"key":value,...}`. The workspace's one JSON writer: profile lines,
/// sweep records and the checkpoint manifest all go through it.
pub fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> String {
    let mut out = String::from("{");
    for (i, (key, value)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, key);
        out.push(':');
        push_json_value(&mut out, &value);
    }
    out.push('}');
    out
}

/// Appends the JSON spelling of `value`. Numbers use Rust's shortest
/// round-trip `{}` form, so a reader that keeps their spelling can
/// reproduce a line byte for byte. JSON has no spelling for `inf`/`NaN`,
/// so a non-finite float becomes `null`, as [`Value::Null`] does, rather
/// than unparsable output.
pub fn push_json_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) if v.is_finite() => {
            let _ = write!(out, "{v}");
        }
        Value::F64(_) | Value::Null => out.push_str("null"),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => push_json_string(out, v),
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
                    ("z".into(), Value::Null),
                ],
            }],
            ..Default::default()
        };
        let jsonl = profile.to_jsonl();
        assert!(jsonl.contains("\"n\":null"));
        assert!(jsonl.contains("\"v\":null"));
        assert!(jsonl.contains("\"z\":null"));
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
