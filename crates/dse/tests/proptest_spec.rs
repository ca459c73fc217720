//! Arbitrary-input and round-trip properties for the `.dse` spec parser.
//! Any line soup built from its directives, the keywords of its tables,
//! parameterized mapper tokens, junk and boundary numbers must come back
//! as `Ok` or a typed `SpecError` naming a line of the input — never a
//! panic — and every spec that parses must round-trip through its
//! canonical `Display` form.
//!
//! The generators mirror `crates/graph/tests/proptest_parse.rs`. This
//! crate does not depend on the proptest shim, so each property draws its
//! 2,048 cases from seeded ChaCha streams instead (case `n` is seed `n`);
//! a failure prints the soup that caused it.

use std::panic::catch_unwind;

use noc_dse::spec::{mapper_catalogue, APPS, FITTED_TOPOLOGIES, MAX_SCENARIOS, ROUTINGS};
use noc_dse::{parse_spec, SpecError};
use noc_graph::parse::{MAX_BANDWIDTH, MAX_GRID_EXTENT, MAX_NODES};
use noc_sim::MAX_BURST_PACKETS;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cases per property.
const CASES: u64 = 2_048;

/// Top-level directives and a comment marker.
const DIRECTIVES: [&str; 8] =
    ["app", "random", "topology", "mapper", "routing", "capacity", "seed", "#"];

/// Fields of a `simulate { ... }` block and a comment marker.
const FIELDS: [&str; 7] = ["bandwidths", "warmup", "measure", "drain", "burst", "seed", "#"];

/// Heads out of place everywhere: the block braces, `all` and junk.
const JUNK: [&str; 5] = ["simulate", "{", "}", "all", "frob"];

/// Boundary numbers: small valid values, huge, tiny, non-finite and
/// negative reals, `u64::MAX`, and every cap ± 1.
fn numbers() -> Vec<String> {
    let fixed = ["0", "1", "2", "2.5", "1e-9", "1e308", "-1", "nan", "inf", "18446744073709551615"];
    let caps = [
        MAX_NODES as f64,
        MAX_SCENARIOS as f64,
        MAX_BANDWIDTH,
        f64::from(MAX_BURST_PACKETS),
        MAX_GRID_EXTENT as f64,
    ];
    let around = caps.iter().flat_map(|&cap| [cap - 1.0, cap, cap + 1.0]).map(|n| n.to_string());
    fixed.iter().map(|s| s.to_string()).chain(around).collect()
}

/// Keyword tokens of the vocabulary tables, plus `all` and `dsp`,
/// grouped by the directive that takes them.
fn keywords(head: &str) -> Vec<&'static str> {
    match head {
        "app" => APPS.iter().map(|&(k, _)| k).chain(["dsp", "all"]).collect(),
        "topology" => FITTED_TOPOLOGIES.iter().map(|&(k, _)| k).collect(),
        "mapper" => mapper_catalogue().iter().map(|&(k, _)| k).chain(["all"]).collect(),
        "routing" => ROUTINGS.iter().map(|&(k, _)| k).chain(["all"]).collect(),
        _ => vec!["{"],
    }
}

/// Grid spellings of `topology mesh|torus <dims>`, valid and not.
const DIMS: [&str; 7] = ["4x4", "3x3x2", "0x3", "513x2", "2x2x2x2x2", "256x256", "257x256"];

/// A parameterized mapper token in one of the `[..]` forms (or a form
/// with a wrong base or a missing field). Each field is a boundary
/// number or, half the time, a small ordinary value, so that many tokens
/// pass their mapper's `check()` and reach the round trip.
fn mapper_token(rng: &mut ChaCha8Rng, numbers: &[String]) -> String {
    let mut n = || {
        if rng.gen_bool(0.5) {
            pick(rng, &["1", "2", "0.5"]).to_string()
        } else {
            numbers[rng.gen_range(0..numbers.len())].clone()
        }
    };
    let (a, b, c) = (n(), n(), n());
    let forms = [
        format!("nmap[p{a}r{b}]"),
        format!("nmap-split-quadrant[p{a}]"),
        format!("nmap-split-all[p{a}]"),
        format!("pbb[q{a}e{b}]"),
        format!("sa[m{a}t{b}c{c}]"),
        format!("tabu[i{a}t{b}]"),
        format!("nmap-paper[p{a}r{b}]"),
        format!("gmap[p{a}]"),
        format!("sa[m{a}t{b}]"),
    ];
    forms[rng.gen_range(0..forms.len())].clone()
}

/// One argument of a `head` line: a token that directive takes (a table
/// keyword, a parameterized mapper or a boundary number) or, in a `wild`
/// soup, now and then one from any source.
fn token(rng: &mut ChaCha8Rng, head: &str, numbers: &[String], wild: bool) -> String {
    let head = if wild && rng.gen_bool(0.1) {
        pick(rng, &["app", "topology", "mapper", "routing", "simulate", "seed"])
    } else {
        head
    };
    match head {
        "mapper" if rng.gen_bool(0.75) => mapper_token(rng, numbers),
        "app" | "topology" | "mapper" | "routing" | "simulate" => {
            pick(rng, &keywords(head)).to_string()
        }
        _ => numbers[rng.gen_range(0..numbers.len())].clone(),
    }
}

/// One line headed by a word of `heads` with as many arguments as it
/// takes; in a `wild` soup, now and then any head or any argument count.
fn line(rng: &mut ChaCha8Rng, heads: &[&'static str], numbers: &[String], wild: bool) -> String {
    let head = if wild && rng.gen_bool(0.05) {
        // Junk, or a directive or field outside its place.
        pick(rng, &[&JUNK[..], &DIRECTIVES, &FIELDS].concat())
    } else {
        pick(rng, heads)
    };
    let arity = match head {
        _ if wild && rng.gen_bool(0.15) => rng.gen_range(0..=4usize),
        "capacity" | "seed" | "warmup" | "measure" | "drain" | "simulate" => 1,
        "burst" => 2,
        "random" => pick(rng, &["2", "3", "5"]).parse().unwrap(),
        "}" => 0,
        "topology" if rng.gen_bool(0.5) => {
            let kind = pick(rng, &["mesh", "torus"]);
            return format!("topology {kind} {}\n", pick(rng, &DIMS));
        }
        "topology" => 1,
        _ => rng.gen_range(1..=3usize),
    };
    let mut text = head.to_string();
    for _ in 0..arity {
        text.push(' ');
        text.push_str(&token(rng, head, numbers, wild));
    }
    text + "\n"
}

/// A uniform pick from `words`.
fn pick(rng: &mut ChaCha8Rng, words: &[&'static str]) -> &'static str {
    words[rng.gen_range(0..words.len())]
}

/// Up to six top-level lines, some of them `simulate` blocks of up to
/// three fields (now and then left unclosed). Every other soup opens with
/// an `app` line and every other one with a `mapper` line, and every
/// other one is wild (junk heads, wrong argument counts, misplaced
/// tokens); the tame ones parse more often and carry parameterized
/// mappers into the round trip.
fn line_soup(rng: &mut ChaCha8Rng) -> String {
    let numbers = numbers();
    let wild = rng.gen_bool(0.5);
    let mut text = String::new();
    for head in ["app", "mapper"] {
        if rng.gen_bool(0.5) {
            text.push_str(&line(rng, &[head], &numbers, wild));
        }
    }
    for _ in 0..rng.gen_range(0..=6usize) {
        if rng.gen_bool(0.1) {
            text.push_str("simulate {\n");
            for _ in 0..rng.gen_range(0..=3usize) {
                text.push_str(&line(rng, &FIELDS, &numbers, wild));
            }
            if rng.gen_bool(0.9) {
                text.push_str("}\n");
            }
        } else {
            text.push_str(&line(rng, &DIRECTIVES, &numbers, wild));
        }
    }
    text
}

/// Runs `property` on `CASES` soups, one seeded stream per case.
fn for_each_soup(mut property: impl FnMut(&str)) {
    for case in 0..CASES {
        let text = line_soup(&mut ChaCha8Rng::seed_from_u64(case));
        property(&text);
    }
}

#[test]
fn spec_parser_returns_ok_or_a_line_numbered_error() {
    for_each_soup(|text| {
        let parsed = catch_unwind(|| parse_spec(text))
            .unwrap_or_else(|_| panic!("parse_spec panicked on {text:?}"));
        match parsed {
            Ok(_) | Err(SpecError::Empty) => {}
            Err(SpecError::Syntax { line, message }) => assert!(
                (1..=text.lines().count()).contains(&line),
                "line {line} ({message}) is outside {text:?}"
            ),
        }
    });
}

#[test]
fn every_parsed_spec_round_trips_through_its_canonical_form() {
    let mut parsed = 0u64;
    for_each_soup(|text| {
        if let Ok(spec) = parse_spec(text) {
            parsed += 1;
            let canonical = spec.to_string();
            assert_eq!(parse_spec(&canonical), Ok(spec), "{text:?} -> {canonical:?}");
        }
    });
    // The soups are rich enough that the property is not vacuous.
    assert!(parsed >= CASES / 10, "only {parsed} of {CASES} soups parsed");
}
