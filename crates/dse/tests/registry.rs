//! Registry completeness: every mapper registered in the workspace-wide
//! registry must (1) parse from its canonical name back to an equal
//! `MapperSpec` through the `.dse` spec format, (2) display back to the
//! same name, and (3) run through the engine — so no algorithm can fall
//! out of sync with the spec format or the engine dispatch again.

use noc_baselines::standard_registry;
use noc_dse::{
    parse_spec, run_scenarios, AppSpec, MapperSpec, RoutingSpec, Scenario, TopologySpec,
};

/// `mapper <name>` must parse for every registered name, and the parsed
/// spec's Display name must be the registered name — the full
/// name → spec → name round trip.
#[test]
fn every_registered_name_round_trips_through_the_spec_format() {
    let registry = standard_registry();
    assert!(registry.len() >= 10, "expected the full mapper family, got {registry:?}");
    for name in registry.names() {
        let text = format!("app pip\nmapper {name}\n");
        let spec = parse_spec(&text)
            .unwrap_or_else(|e| panic!("registered mapper `{name}` does not parse: {e}"));
        assert_eq!(spec.mappers.len(), 1, "`{name}`");
        assert_eq!(spec.mappers[0].name(), name, "Display diverged from the registry name");
        // The registry's own instance agrees on the spelling.
        let built = registry.build(name, 0).expect("name came from the registry");
        assert_eq!(built.name(), name);
    }
}

/// The engine accepts every registry entry: each parsed mapper runs a
/// real scenario end to end and produces an ok record with a complete
/// placement.
#[test]
fn the_engine_runs_every_registered_mapper() {
    let registry = standard_registry();
    for name in registry.names() {
        let text = format!("app dsp\nmapper {name}\n");
        let spec = parse_spec(&text).expect("registered names parse");
        let scenario = Scenario {
            label: "DSP".into(),
            app: AppSpec::DspFilter,
            seed: 11,
            topology: TopologySpec::FitMesh,
            capacity: noc_units::mbps(2_000.0),
            mapper: spec.mappers[0].clone(),
            routing: RoutingSpec::MinPath,
            simulate: None,
        };
        let record = run_scenarios(std::slice::from_ref(&scenario), 1).remove(0);
        assert!(record.is_ok(), "mapper `{name}` failed: {}", record.error);
        assert_eq!(record.mapper, name);
        assert!(record.comm_cost > noc_units::HopMbps::ZERO, "mapper `{name}`");
        assert!(record.feasible, "DSP at 2 GB/s must be feasible for `{name}`");
    }
}

/// Parameterized spellings round-trip too (spot checks beyond the
/// registry's named defaults), and `MapperSpec` equality survives the
/// text form.
#[test]
fn parameterized_spellings_round_trip() {
    for name in
        ["nmap[p3r2]", "pbb[q100e2000]", "sa[m500t0.1c0.99]", "tabu[i20t3]", "nmap-split-all[p2]"]
    {
        let text = format!("app pip\nmapper {name}\n");
        let spec = parse_spec(&text).unwrap_or_else(|e| panic!("`{name}`: {e}"));
        assert_eq!(spec.mappers[0].name(), name);
        let reparsed = parse_spec(&spec.to_string()).unwrap();
        assert_eq!(reparsed.mappers, spec.mappers, "`{name}`");
    }
    let _ = MapperSpec::Pmap; // the enum stays public API
}
