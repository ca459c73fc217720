//! Instrumentation for the NMAP suite: counters, histograms and a JSONL
//! event sink, plus the workspace's one flat-JSON writer
//! ([`json_object`], [`push_json_value`]), which the sweep records and
//! the checkpoint manifest also go through.
//!
//! # One run-time switch
//!
//! A [`Probe`] handle is live or inert. [`Probe::new`] creates a live
//! collector; [`Probe::disabled`] (also the [`Default`]) is inert, and
//! so is every handle it hands out: each call costs one `Option` check.
//! Libraries thread a probe through unconditionally and let the binary
//! decide, so any binary can profile without a rebuild.
//!
//! # Out-of-band by construction
//!
//! Probes only *observe*: no method returns anything an instrumented
//! algorithm could branch on (reads like [`Counter::get`] exist for tests
//! and reporting, not for control flow). The workspace's differential
//! suite pins the stronger property that all primary outputs are
//! byte-identical with a live probe, a disabled probe and no probe.
//!
//! # Usage
//!
//! ```
//! use noc_probe::{Probe, Value};
//!
//! let probe = Probe::new(); // live; `Probe::disabled()` records nothing
//! let evals = probe.counter("search.evaluations");
//! evals.inc();
//! probe.histogram("dse.stage.route_us").record(42);
//! if probe.is_enabled() {
//!     probe.emit("sa.sample", &[("iter", Value::from(10u64))]);
//! }
//! let jsonl = probe.to_jsonl(); // one JSON object per line
//! # let _ = jsonl;
//! ```
//!
//! Metric names are free-form; the workspace convention is
//! `<subsystem>.<metric>[_<unit>]` (see DESIGN.md §16 for the catalog).

mod handles;
mod profile;

pub use handles::{Counter, Histogram, Probe};
pub use profile::{
    json_object, push_json_value, CounterSnapshot, Event, HistogramSnapshot, Profile, Value,
};

#[cfg(test)]
mod api_tests {
    use super::*;

    #[test]
    fn disabled_probe_is_inert_in_every_build() {
        let probe = Probe::disabled();
        assert!(!probe.is_enabled());
        let c = probe.counter("x");
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 0);
        probe.histogram("z").record(7);
        probe.emit("e", &[("k", Value::from(1u64))]);
        assert!(probe.snapshot().is_empty());
        assert_eq!(probe.to_jsonl(), "");
    }

    #[test]
    fn default_handles_are_disabled() {
        // Instrumented structs hold `Counter::default()` etc. until a
        // probe is attached; those must be no-ops, not panics.
        Counter::default().inc();
        Histogram::default().record(3);
        assert!(!Probe::default().is_enabled());
    }

    #[test]
    fn new_probe_is_live() {
        let probe = Probe::new();
        assert!(probe.is_enabled());
        probe.counter("c").inc();
        assert!(!probe.snapshot().is_empty());
    }
}
