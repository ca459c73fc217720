//! Golden pin of the §7.1 artifacts and the search ablation at printed
//! precision: Figure 3's 24 costs, Figure 4's 42 bandwidths, Table 1's
//! 12 ratios plus its average row, and the cost and evaluation count of
//! every row of both search-ablation tables. A change to how these rows
//! are derived must leave every printed cell as it is here.

use std::sync::OnceLock;

use noc_apps::App;
use noc_dse::run_scenarios;
use noc_experiments::mapper_comparison::{mapper_comparison_set, MapperComparison};
use noc_experiments::report::fmt;
use noc_experiments::search_ablation::{search_ablation_set, AblationPoint, SearchAblation};

/// Figure 3: PMAP, GMAP, PBB and NMAP cost per app (hops × MB/s).
const FIG3: [(&str, [&str; 4]); 6] = [
    ("MPEG4", ["4816", "6194", "4168", "4184"]),
    ("VOPD", ["4347", "5493", "3731", "4208"]),
    ("PIP", ["800", "800", "704", "768"]),
    ("MWA", ["1568", "2080", "1472", "1536"]),
    ("MWAG", ["1888", "2848", "1920", "1856"]),
    ("DSD", ["1712", "2832", "1584", "1680"]),
];

/// Figure 4: DPMAP, DGMAP, PMAP, GMAP, NMAP, NMAPTM and NMAPTA minimum
/// link bandwidth per app (MB/s).
const FIG4: [(&str, [&str; 7]); 6] = [
    ("MPEG4", ["500", "753", "500", "715", "500", "500", "285"]),
    ("VOPD", ["500", "857", "500", "719", "500", "500", "257"]),
    ("PIP", ["128", "160", "128", "128", "128", "128", "72"]),
    ("MWA", ["192", "224", "192", "192", "192", "192", "104"]),
    ("MWAG", ["256", "256", "192", "288", "192", "192", "128"]),
    ("DSD", ["160", "224", "160", "224", "160", "160", "96"]),
];

/// Table 1: cost ratio and bandwidth ratio per app.
const TABLE1: [(&str, [&str; 2]); 6] = [
    ("MPEG4", ["1.21", "2.01"]),
    ("VOPD", ["1.08", "2.23"]),
    ("PIP", ["1.00", "1.78"]),
    ("MWA", ["1.11", "1.85"]),
    ("MWAG", ["1.20", "1.75"]),
    ("DSD", ["1.22", "1.89"]),
];

/// Table 1's average row.
const TABLE1_AVG: [&str; 2] = ["1.13", "1.92"];

/// The search-knob table's configurations, in row order.
const KNOB_LABELS: [&str; 4] = [
    "paper (1 pass, 1 start)",
    "3 passes, 1 start",
    "1 pass, 8 starts",
    "default (2 passes, 8 starts)",
];

/// The search-knob table: per app, each configuration's (cost, evaluations).
const CONFIGURATIONS: [(&str, [(&str, usize); 4]); 6] = [
    ("MPEG4", [("4184", 120), ("4184", 358), ("4184", 959), ("4184", 1911)]),
    ("VOPD", [("4315", 121), ("4269", 361), ("4315", 968), ("4208", 1928)]),
    ("PIP", [("800", 37), ("800", 109), ("768", 296), ("768", 584)]),
    ("MWA", [("1536", 120), ("1536", 358), ("1536", 963), ("1536", 1916)]),
    ("MWAG", [("1856", 121), ("1856", 361), ("1856", 968), ("1856", 1928)]),
    ("DSD", [("1712", 121), ("1712", 361), ("1680", 968), ("1680", 1928)]),
];

/// The search-strategy table's mappers, in row order.
const STRATEGY_NAMES: [&str; 4] = ["nmap-paper", "nmap", "sa", "tabu"];

/// The search-strategy table: per app, each mapper's (cost, evaluations).
const STRATEGIES: [(&str, [(&str, usize); 4]); 6] = [
    ("MPEG4", [("4184", 120), ("4184", 1911), ("4168", 19850), ("4168", 7617)]),
    ("VOPD", [("4315", 121), ("4208", 1928), ("3731", 20001), ("3731", 7681)]),
    ("PIP", [("800", 37), ("768", 584), ("736", 20001), ("704", 2305)]),
    ("MWA", [("1536", 120), ("1536", 1916), ("1472", 19846), ("1472", 7617)]),
    ("MWAG", [("1856", 121), ("1856", 1928), ("1888", 20001), ("1856", 7681)]),
    ("DSD", [("1712", 121), ("1680", 1928), ("1584", 20001), ("1584", 7681)]),
];

/// The §7.1 sweep and its fold, run once for the three artifacts.
fn comparison() -> &'static MapperComparison {
    static RUN: OnceLock<MapperComparison> = OnceLock::new();
    RUN.get_or_init(|| {
        MapperComparison::from_records(&run_scenarios(mapper_comparison_set().scenarios(), 0))
    })
}

/// Figure 3's rows: (app, [PMAP, GMAP, PBB, NMAP]).
fn fig3_rows() -> Vec<(App, [f64; 4])> {
    comparison().fig3.iter().map(|r| (r.app, [r.pmap, r.gmap, r.pbb, r.nmap])).collect()
}

/// Figure 4's rows: (app, [DPMAP, DGMAP, PMAP, GMAP, NMAP, NMAPTM, NMAPTA]).
fn fig4_rows() -> Vec<(App, [f64; 7])> {
    comparison()
        .fig4
        .iter()
        .map(|r| (r.app, [r.dpmap, r.dgmap, r.pmap, r.gmap, r.nmap, r.nmaptm, r.nmapta]))
        .collect()
}

/// Table 1's rows and its average row: (app, [cstr, bwr]), [cstr, bwr].
fn table1_rows() -> (Vec<(App, [f64; 2])>, [f64; 2]) {
    let table1 = &comparison().table1;
    let rows = table1.rows.iter().map(|r| (r.app, [r.cstr, r.bwr])).collect();
    (rows, [table1.avg_cstr, table1.avg_bwr])
}

/// Both search-ablation tables: (app, label, cost, evaluations) rows of
/// the configuration table, then of the strategy table.
#[allow(clippy::type_complexity)]
fn search_ablation_rows() -> (Vec<(App, String, f64, usize)>, Vec<(App, String, f64, usize)>) {
    let ablation =
        SearchAblation::from_records(&run_scenarios(search_ablation_set().scenarios(), 0));
    let rows = |points: Vec<AblationPoint>| {
        points.into_iter().map(|p| (p.app, p.label, p.comm_cost, p.evaluations)).collect()
    };
    (rows(ablation.configurations), rows(ablation.strategies))
}

/// `(app, values)` rows as the study prints them: `app cell cell ...`.
fn printed<const N: usize>(rows: &[(App, [f64; N])], digits: usize) -> Vec<String> {
    rows.iter()
        .map(|(app, v)| format!("{} {}", app.name(), v.map(|x| fmt(x, digits)).join(" ")))
        .collect()
}

fn expected<const N: usize>(golden: &[(&str, [&str; N])]) -> Vec<String> {
    golden.iter().map(|(app, cells)| format!("{app} {}", cells.join(" "))).collect()
}

/// Search-ablation rows as `app label cost evaluations`.
fn printed_search(rows: &[(App, String, f64, usize)]) -> Vec<String> {
    let line = |(app, label, cost, evals): &(App, String, f64, usize)| {
        format!("{} {label} {} {evals}", app.name(), fmt(*cost, 0))
    };
    rows.iter().map(line).collect()
}

fn expected_search(labels: [&str; 4], golden: &[(&str, [(&str, usize); 4])]) -> Vec<String> {
    let mut lines = Vec::new();
    for (app, cells) in golden {
        for (label, (cost, evals)) in labels.iter().zip(cells) {
            lines.push(format!("{app} {label} {cost} {evals}"));
        }
    }
    lines
}

#[test]
fn fig3_costs_are_pinned() {
    assert_eq!(printed(&fig3_rows(), 0), expected(&FIG3));
}

#[test]
fn fig4_bandwidths_are_pinned() {
    assert_eq!(printed(&fig4_rows(), 0), expected(&FIG4));
}

#[test]
fn table1_ratios_and_average_are_pinned() {
    let (rows, avg) = table1_rows();
    assert_eq!(printed(&rows, 2), expected(&TABLE1));
    assert_eq!([fmt(avg[0], 2), fmt(avg[1], 2)], TABLE1_AVG);
}

#[test]
fn search_ablation_rows_are_pinned() {
    let (configurations, strategies) = search_ablation_rows();
    assert_eq!(printed_search(&configurations), expected_search(KNOB_LABELS, &CONFIGURATIONS));
    assert_eq!(printed_search(&strategies), expected_search(STRATEGY_NAMES, &STRATEGIES));
}
