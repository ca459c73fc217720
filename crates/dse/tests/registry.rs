//! Catalogue completeness: every named mapper configuration in
//! [`noc_dse::spec::mapper_catalogue`] must (1) parse from its keyword
//! back to the catalogued `MapperSpec` through the `.dse` spec format,
//! (2) display back to the same keyword, (3) dispatch to exactly the
//! algorithm its keyword names, placing every core, and (4) run through
//! the engine — so no algorithm can fall out of sync with the spec format
//! or the engine dispatch again.

use nmap::search::{anneal, tabu_search, SaOptions, TabuOptions};
use nmap::{
    initialize, map_single_path, map_with_splitting, EvalContext, Mapping, MappingProblem,
    PathScope, SinglePathOptions, SplitOptions,
};
use noc_baselines::{gmap, pbb, pmap, PbbOptions};
use noc_dse::spec::mapper_catalogue;
use noc_dse::{parse_spec, run_scenarios, AppSpec, RoutingSpec, Scenario, TopologySpec};
use noc_graph::{RandomGraphConfig, Topology};

/// One 8-core random graph on a 3×3 mesh.
fn problem() -> MappingProblem {
    let graph = RandomGraphConfig { cores: 8, ..Default::default() }.generate(4);
    MappingProblem::new(graph, Topology::mesh(3, 3, 2_000.0)).unwrap()
}

/// `mapper <keyword>` must parse to the catalogued configuration for
/// every row, and that configuration's Display name must be the keyword —
/// the full keyword → spec → keyword round trip. Each dispatched mapper
/// places every core.
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
    let problem = problem();
    for (keyword, mapper) in catalogue {
        let text = format!("app pip\nmapper {keyword}\n");
        let spec = parse_spec(&text)
            .unwrap_or_else(|e| panic!("catalogued mapper `{keyword}` does not parse: {e}"));
        assert_eq!(spec.mappers, std::slice::from_ref(&mapper), "`{keyword}`");
        assert_eq!(mapper.name(), keyword, "Display diverged from the catalogue keyword");
        let (mapping, _) =
            mapper.mapper(7).place(&mut EvalContext::new(&problem)).expect("small mesh maps");
        assert!(mapping.is_complete(problem.cores()), "{keyword} left cores unplaced");
    }
}

/// The dispatch adds nothing to the algorithms: for every catalogue row,
/// `mapper(7).place` returns the placement and work count of the bare
/// entry point its keyword names, called with that row's options.
#[test]
fn the_dispatch_is_the_algorithms() {
    type Bare = fn(&MappingProblem) -> (Mapping, usize);
    fn split(p: &MappingProblem, scope: PathScope) -> (Mapping, usize) {
        let out = map_with_splitting(p, &SplitOptions { scope, passes: 1 }).unwrap();
        (out.mapping, out.evaluations)
    }
    let bare: [(&str, Bare); 10] = [
        ("nmap-init", |p| (initialize(p), 0)),
        ("nmap", |p| {
            let out = map_single_path(p, &SinglePathOptions::default()).unwrap();
            (out.mapping, out.evaluations)
        }),
        ("nmap-paper", |p| {
            let out = map_single_path(p, &SinglePathOptions::paper_exact()).unwrap();
            (out.mapping, out.evaluations)
        }),
        ("nmap-split-quadrant", |p| split(p, PathScope::Quadrant)),
        ("nmap-split-all", |p| split(p, PathScope::AllPaths)),
        ("sa", |p| anneal(&mut EvalContext::new(p), &SaOptions::default(), 7).unwrap()),
        ("tabu", |p| tabu_search(&mut EvalContext::new(p), &TabuOptions::default()).unwrap()),
        ("pmap", |p| (pmap(p), 0)),
        ("gmap", |p| (gmap(p), 0)),
        ("pbb", |p| {
            let out = pbb(p, &PbbOptions::default());
            (out.mapping, out.expansions)
        }),
    ];
    let problem = problem();
    for ((keyword, mapper), (bare_keyword, run)) in mapper_catalogue().into_iter().zip(bare) {
        assert_eq!(keyword, bare_keyword, "the catalogue's listing order");
        let placed = mapper.mapper(7).place(&mut EvalContext::new(&problem)).unwrap();
        assert_eq!(placed, run(&problem), "`{keyword}`");
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
