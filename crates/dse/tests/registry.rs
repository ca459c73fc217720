//! Catalogue completeness: every named mapper configuration in
//! [`noc_dse::spec::mapper_catalogue`] must (1) parse from its keyword
//! back to the catalogued `MapperSpec` through the `.dse` spec format,
//! (2) display back to the same keyword, (3) build a mapper that places
//! every core at the Equation-7 cost it reports, and (4) run through the
//! engine — so no algorithm can fall out of sync with the spec format or
//! the engine dispatch again.

use nmap::{EvalContext, MappingProblem};
use noc_dse::spec::mapper_catalogue;
use noc_dse::{parse_spec, run_scenarios, AppSpec, RoutingSpec, Scenario, TopologySpec};
use noc_graph::{RandomGraphConfig, Topology};

/// `mapper <keyword>` must parse to the catalogued configuration for
/// every row, and that configuration's Display name must be the keyword —
/// the full keyword → spec → keyword round trip. Each built mapper places
/// every core and reports the placement's own Equation-7 cost.
#[test]
fn every_registered_name_round_trips_through_the_spec_format() {
    let catalogue = mapper_catalogue();
    let keywords: Vec<&str> = catalogue.iter().map(|&(keyword, _)| keyword).collect();
    assert_eq!(
        keywords,
        [
            "nmap-init",
            "nmap",
            "nmap-paper",
            "nmap-split-quadrant",
            "nmap-split-all",
            "sa",
            "tabu",
            "pmap",
            "gmap",
            "pbb"
        ],
        "the catalogue lists every mapper, in listing order"
    );
    let graph = RandomGraphConfig { cores: 8, ..Default::default() }.generate(4);
    let problem = MappingProblem::new(graph, Topology::mesh(3, 3, 2_000.0)).unwrap();
    for (keyword, mapper) in catalogue {
        let text = format!("app pip\nmapper {keyword}\n");
        let spec = parse_spec(&text)
            .unwrap_or_else(|e| panic!("catalogued mapper `{keyword}` does not parse: {e}"));
        assert_eq!(spec.mappers, std::slice::from_ref(&mapper), "`{keyword}`");
        assert_eq!(mapper.name(), keyword, "Display diverged from the catalogue keyword");
        let out = mapper.mapper(7).map(&mut EvalContext::new(&problem)).expect("small mesh maps");
        assert!(out.mapping.is_complete(problem.cores()), "{keyword} left cores unplaced");
        assert_eq!(out.comm_cost, problem.comm_cost(&out.mapping), "{keyword} cost mismatch");
    }
}

/// The engine accepts every catalogue row: each parsed mapper runs a
/// real scenario end to end and produces an ok record with a complete
/// placement.
#[test]
fn the_engine_runs_every_registered_mapper() {
    for (name, _) in mapper_catalogue() {
        let text = format!("app dsp\nmapper {name}\n");
        let spec = parse_spec(&text).expect("catalogued names parse");
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
/// catalogue's named defaults), and `MapperSpec` equality survives the
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
}
