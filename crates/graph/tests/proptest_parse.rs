//! Arbitrary-input properties for the `.noc` and core-graph text parsers:
//! any line soup built from their keywords, junk, and boundary numbers
//! must come back as `Ok` or a typed `ParseError` naming a line of the
//! input — never a panic, an abort or an oversized topology.

use std::panic::catch_unwind;

use noc_graph::parse::{parse_core_graph, parse_topology, write_core_graph, ParseError, MAX_NODES};
use proptest::prelude::*;

/// Line keywords of both formats, a comment marker and junk.
const KEYWORDS: [&str; 9] = ["mesh", "torus", "custom", "link", "core", "comm", "#", "}", "frob"];

/// Argument tokens: core names, small valid numbers, and the boundary
/// values of every numeric field (extent and node caps, `u32`/`u64`
/// overflow, huge, non-finite and negative reals).
fn tokens() -> Vec<String> {
    let fixed =
        "a b c # 0 -1 1 2 3 512 513 4294967296 18446744073709551615 1e308 -1e308 nan inf 2.5";
    let caps = [MAX_NODES - 1, MAX_NODES, MAX_NODES + 1].map(|n| n.to_string());
    fixed.split(' ').map(str::to_string).chain(caps).collect()
}

/// Up to six lines, each a keyword and up to five argument tokens.
fn line_soup() -> impl Strategy<Value = String> {
    let tokens = tokens();
    let line = (0..KEYWORDS.len(), prop::collection::vec(0..tokens.len(), 0..=5));
    prop::collection::vec(line, 0..=6).prop_map(move |lines| {
        lines
            .into_iter()
            .map(|(keyword, args)| {
                let mut line = KEYWORDS[keyword].to_string();
                for arg in args {
                    line.push(' ');
                    line.push_str(&tokens[arg]);
                }
                line + "\n"
            })
            .collect()
    })
}

/// An error must name a line of the input (or report it empty).
fn line_is_in_range(err: &ParseError, text: &str) -> bool {
    match err {
        ParseError::Syntax { line, .. } | ParseError::Graph { line, .. } => {
            (1..=text.lines().count()).contains(line)
        }
        ParseError::Empty => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn topology_parser_returns_ok_or_a_typed_error(text in line_soup()) {
        let parsed = catch_unwind(|| parse_topology(&text));
        prop_assert!(parsed.is_ok(), "parse_topology panicked on {:?}", text);
        match parsed.unwrap() {
            Ok(t) => {
                prop_assert!(
                    (1..=MAX_NODES).contains(&t.node_count()),
                    "{} nodes from {:?}",
                    t.node_count(),
                    text
                );
                prop_assert!(t.is_strongly_connected(), "disconnected from {:?}", text);
            }
            Err(err) => prop_assert!(line_is_in_range(&err, &text), "{:?} on {:?}", err, text),
        }
    }

    #[test]
    fn core_graph_parser_returns_ok_or_a_typed_error(text in line_soup()) {
        let parsed = catch_unwind(|| parse_core_graph(&text));
        prop_assert!(parsed.is_ok(), "parse_core_graph panicked on {:?}", text);
        match parsed.unwrap() {
            // Whatever parses also round-trips through the writer.
            Ok(graph) => prop_assert_eq!(parse_core_graph(&write_core_graph(&graph)), Ok(graph)),
            Err(err) => prop_assert!(line_is_in_range(&err, &text), "{:?} on {:?}", err, text),
        }
    }
}
