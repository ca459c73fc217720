//! Plain-text formats for core graphs and topologies, so applications can
//! be loaded from files instead of being hard-coded.
//!
//! # Core-graph format (`.app`)
//!
//! Line-oriented; `#` starts a comment. Two record kinds:
//!
//! ```text
//! # Video Object Plane Decoder
//! core vld
//! core run_le_dec
//! comm vld run_le_dec 70        # src dst bandwidth-MB/s
//! ```
//!
//! Cores may also be declared implicitly by their first mention in a
//! `comm` record. [`write_core_graph`] emits this format; parsing a
//! written graph reproduces it exactly (round-trip property, tested).
//!
//! # Topology format (`.noc`)
//!
//! ```text
//! mesh 4 4 1000        # per-axis extents..., link-bandwidth-MB/s
//! torus 3 3 500
//! mesh 4 4 2 1000      # three or more extents declare a 3-D (N-D) grid
//! custom 4             # node count, followed by `link` records
//! link 0 1 250         # src dst capacity (directed)
//! ```
//!
//! Exactly one of `mesh`/`torus`/`custom` must appear. `mesh`/`torus`
//! take two to four extents (the final number is always the uniform
//! link bandwidth); the rank cap keeps a stray trailing number on a
//! legacy 2-D line from silently declaring a huge higher-rank grid. No
//! declaration may exceed [`MAX_NODES`] nodes, and no `link` endpoint may
//! reach it, so a typo cannot ask for an allocation that aborts. A
//! `custom` topology must be strongly connected: every mapper routes
//! traffic between arbitrary pairs of nodes.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::{CoreGraph, CoreId, GraphError, NodeId, Topology};

/// Errors produced by the text parsers.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line could not be interpreted; carries the 1-based line number
    /// and a description.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The underlying graph construction rejected a record.
    Graph {
        /// 1-based line number.
        line: usize,
        /// The graph-layer error.
        source: GraphError,
    },
    /// The file declared no usable content.
    Empty,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::Graph { line, source } => write!(f, "line {line}: {source}"),
            ParseError::Empty => write!(f, "no content found"),
        }
    }
}

impl Error for ParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Parses the core-graph format described in the [module docs](self).
///
/// # Errors
///
/// [`ParseError`] with the offending line on malformed input. Duplicate
/// edges and self-loops are syntax errors that name the cores as the file
/// writes them; invalid bandwidths are rejected via [`ParseError::Graph`].
pub fn parse_core_graph(text: &str) -> Result<CoreGraph, ParseError> {
    let mut graph = CoreGraph::new();
    let mut ids: BTreeMap<String, CoreId> = BTreeMap::new();
    let mut saw_content = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        saw_content = true;
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line");
        match keyword {
            "core" => {
                let name = parts.next().ok_or_else(|| ParseError::Syntax {
                    line: line_no,
                    message: "`core` needs a name".into(),
                })?;
                if parts.next().is_some() {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: "`core` takes exactly one name".into(),
                    });
                }
                if ids.contains_key(name) {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: format!("core `{name}` declared twice"),
                    });
                }
                let id = graph.add_core(name);
                ids.insert(name.to_string(), id);
            }
            "comm" => {
                let src = parts.next().ok_or_else(|| missing(line_no, "source core"))?;
                let dst = parts.next().ok_or_else(|| missing(line_no, "destination core"))?;
                let bw_text = parts.next().ok_or_else(|| missing(line_no, "bandwidth"))?;
                if parts.next().is_some() {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: "`comm` takes src dst bandwidth".into(),
                    });
                }
                let bandwidth: f64 = bw_text.parse().map_err(|_| ParseError::Syntax {
                    line: line_no,
                    message: format!("invalid bandwidth `{bw_text}`"),
                })?;
                let src_id = intern(&mut graph, &mut ids, src);
                let dst_id = intern(&mut graph, &mut ids, dst);
                // The graph names cores by internal id; the file by name.
                let syntax = |message| ParseError::Syntax { line: line_no, message };
                graph.add_comm(src_id, dst_id, bandwidth).map_err(|source| match source {
                    GraphError::SelfLoop(_) => {
                        syntax(format!("self-loop on core `{src}` is not allowed"))
                    }
                    GraphError::DuplicateEdge(..) => {
                        syntax(format!("duplicate communication edge (`{src}`, `{dst}`)"))
                    }
                    source => ParseError::Graph { line: line_no, source },
                })?;
            }
            other => {
                return Err(ParseError::Syntax {
                    line: line_no,
                    message: format!("unknown keyword `{other}` (expected `core` or `comm`)"),
                });
            }
        }
    }
    if !saw_content {
        return Err(ParseError::Empty);
    }
    Ok(graph)
}

/// Writes a core graph in the format [`parse_core_graph`] reads.
pub fn write_core_graph(graph: &CoreGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for core in graph.cores() {
        let _ = writeln!(out, "core {}", graph.name(core));
    }
    for (_, e) in graph.edges() {
        let _ = writeln!(out, "comm {} {} {}", graph.name(e.src), graph.name(e.dst), e.bandwidth);
    }
    out
}

/// Most grid axes a `mesh`/`torus` declaration may spell out. The `Grid`
/// type itself is rank-agnostic; the cap is parser policy so malformed
/// legacy 2-D lines fail loudly instead of becoming huge N-D grids.
pub const MAX_GRID_RANK: usize = 4;

/// Largest per-axis extent a declaration may spell out — far beyond any
/// realistic NoC radix, but well below bandwidth-scale numbers, so a
/// legacy `mesh W H BW <junk>` line (where the old parser ignored
/// trailing tokens) errors on `BW` being read as an extent instead of
/// silently building a grid with a bandwidth-sized axis.
pub const MAX_GRID_EXTENT: usize = 512;

/// Most nodes a topology declaration may ask for: a grid's extent
/// product, a `custom` node count, or a `.dse` `random` core count. It is
/// 128 times the largest grid this repository studies (8×8×8), and small
/// enough that building the topology cannot exhaust memory.
pub const MAX_NODES: usize = 1 << 16;

/// Largest communication bandwidth a core graph accepts, in MB/s — a
/// million times the busiest edge of the bundled apps. Summing Equation 7
/// over a [`MAX_NODES`]-core graph overflows `f64` only above about
/// 6e293 MB/s per edge, so every placement cost stays finite and
/// comparable. [`crate::CoreGraph::add_comm`] enforces it, which covers
/// app-file `comm` lines; the `.dse` `random` directive checks its
/// `max_bw` against it too.
pub const MAX_BANDWIDTH: f64 = 1e12;

/// Checks a declared node count against [`MAX_NODES`], returning the
/// message of the violation; `what` names the count (e.g. `custom node
/// count`).
pub fn check_node_count(what: &str, nodes: usize) -> Result<(), String> {
    if nodes > MAX_NODES {
        return Err(format!("{what} {nodes} exceeds the maximum {MAX_NODES}"));
    }
    Ok(())
}

/// Node count of a grid with per-axis `dims`, saturating on overflow.
pub fn grid_nodes(dims: &[usize]) -> usize {
    dims.iter().fold(1, |nodes: usize, &extent| nodes.saturating_mul(extent))
}

/// Parses the topology format described in the [module docs](self).
///
/// # Errors
///
/// [`ParseError`] on malformed input, duplicate topology declarations or
/// invalid link records.
pub fn parse_topology(text: &str) -> Result<Topology, ParseError> {
    #[derive(Debug)]
    enum Decl {
        Mesh(Vec<usize>, f64),
        Torus(Vec<usize>, f64),
        Custom(usize),
    }
    let mut decl: Option<(usize, Decl)> = None;
    let mut links: Vec<(usize, NodeId, NodeId, f64)> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().expect("non-empty line");
        match keyword {
            "mesh" | "torus" => {
                if decl.is_some() {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: "topology already declared".into(),
                    });
                }
                // At least two extents followed by the bandwidth: the last
                // numeric token is always the bandwidth, everything before
                // it a per-axis extent. Rank is capped so a stray trailing
                // number on a legacy `mesh W H BW` line is a loud error,
                // never a silently reinterpreted (and possibly enormous)
                // higher-rank grid.
                let numbers: Vec<&str> = parts.collect();
                if numbers.len() < 3 || numbers.len() > MAX_GRID_RANK + 1 {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: format!(
                            "`{keyword}` takes 2 to {MAX_GRID_RANK} extents and a link bandwidth"
                        ),
                    });
                }
                let mut dims = Vec::with_capacity(numbers.len() - 1);
                for text in &numbers[..numbers.len() - 1] {
                    let extent: usize = text.parse().map_err(|_| ParseError::Syntax {
                        line: line_no,
                        message: format!("invalid extent `{text}`"),
                    })?;
                    if extent == 0 {
                        return Err(ParseError::Syntax {
                            line: line_no,
                            message: "dimensions must be non-zero".into(),
                        });
                    }
                    if extent > MAX_GRID_EXTENT {
                        return Err(ParseError::Syntax {
                            line: line_no,
                            message: format!(
                                "extent {extent} exceeds the maximum {MAX_GRID_EXTENT} \
(is it a stray bandwidth?)"
                            ),
                        });
                    }
                    dims.push(extent);
                }
                check_node_count("grid node count", grid_nodes(&dims))
                    .map_err(|message| ParseError::Syntax { line: line_no, message })?;
                let bw_text = numbers[numbers.len() - 1];
                let bw: f64 = bw_text.parse().map_err(|_| ParseError::Syntax {
                    line: line_no,
                    message: format!("invalid link bandwidth `{bw_text}`"),
                })?;
                if !(bw.is_finite() && bw > 0.0) {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: format!("invalid link bandwidth {bw}"),
                    });
                }
                let d =
                    if keyword == "mesh" { Decl::Mesh(dims, bw) } else { Decl::Torus(dims, bw) };
                decl = Some((line_no, d));
            }
            "custom" => {
                if decl.is_some() {
                    return Err(ParseError::Syntax {
                        line: line_no,
                        message: "topology already declared".into(),
                    });
                }
                let n = parse_num::<usize>(&mut parts, line_no, "node count")?;
                check_node_count("custom node count", n)
                    .map_err(|message| ParseError::Syntax { line: line_no, message })?;
                decl = Some((line_no, Decl::Custom(n)));
            }
            "link" => {
                let src = parse_node(&mut parts, line_no, "source node")?;
                let dst = parse_node(&mut parts, line_no, "destination node")?;
                let cap = parse_num::<f64>(&mut parts, line_no, "capacity")?;
                links.push((line_no, src, dst, cap));
            }
            other => {
                return Err(ParseError::Syntax {
                    line: line_no,
                    message: format!("unknown keyword `{other}` (expected mesh/torus/custom/link)"),
                });
            }
        }
    }

    let Some((decl_line, decl)) = decl else {
        return Err(ParseError::Empty);
    };
    match decl {
        Decl::Mesh(dims, bw) => {
            reject_links(&links, "mesh")?;
            Topology::mesh_nd(&dims, bw)
                .map_err(|source| ParseError::Graph { line: decl_line, source })
        }
        Decl::Torus(dims, bw) => {
            reject_links(&links, "torus")?;
            Topology::torus_nd(&dims, bw)
                .map_err(|source| ParseError::Graph { line: decl_line, source })
        }
        Decl::Custom(n) => {
            let topology = Topology::custom(n, links.iter().map(|&(_, s, d, c)| (s, d, c)))
                .map_err(|source| {
                    // Attribute the failure to the first link line (or the
                    // declaration when there are no links).
                    let line = links.first().map_or(decl_line, |&(l, ..)| l);
                    ParseError::Graph { line, source }
                })?;
            // Every mapper routes between arbitrary node pairs.
            if !topology.is_strongly_connected() {
                let message = format!("custom topology of {n} nodes is not strongly connected");
                return Err(ParseError::Syntax { line: decl_line, message });
            }
            Ok(topology)
        }
    }
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn missing(line: usize, what: &str) -> ParseError {
    ParseError::Syntax { line, message: format!("missing {what}") }
}

fn intern(graph: &mut CoreGraph, ids: &mut BTreeMap<String, CoreId>, name: &str) -> CoreId {
    if let Some(&id) = ids.get(name) {
        return id;
    }
    let id = graph.add_core(name);
    ids.insert(name.to_string(), id);
    id
}

fn parse_num<T: std::str::FromStr>(
    parts: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    let text = parts.next().ok_or_else(|| missing(line, what))?;
    text.parse()
        .map_err(|_| ParseError::Syntax { line, message: format!("invalid {what} `{text}`") })
}

/// Parses a `link` endpoint, rejecting indices no topology can have.
fn parse_node(
    parts: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<NodeId, ParseError> {
    let index = parse_num::<usize>(parts, line, what)?;
    if index >= MAX_NODES {
        return Err(ParseError::Syntax {
            line,
            message: format!("{what} {index} is out of range (the maximum is {})", MAX_NODES - 1),
        });
    }
    Ok(NodeId::new(index))
}

fn reject_links(links: &[(usize, NodeId, NodeId, f64)], kind: &str) -> Result<(), ParseError> {
    if let Some(&(line, ..)) = links.first() {
        return Err(ParseError::Syntax {
            line,
            message: format!("`link` records are only valid for custom topologies, not {kind}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_explicit_and_implicit_cores() {
        let g =
            parse_core_graph("# demo\ncore a\ncomm a b 70\ncomm b c 30.5  # trailing comment\n")
                .unwrap();
        assert_eq!(g.core_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let a = g.cores().find(|&c| g.name(c) == "a").unwrap();
        let b = g.cores().find(|&c| g.name(c) == "b").unwrap();
        assert_eq!(g.edge(g.find_edge(a, b).unwrap()).bandwidth.to_f64(), 70.0);
    }

    #[test]
    fn core_graph_round_trips() {
        let original =
            crate::random::RandomGraphConfig { cores: 12, ..Default::default() }.generate(3);
        let text = write_core_graph(&original);
        let parsed = parse_core_graph(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn rejects_bad_syntax_with_line_numbers() {
        let err = parse_core_graph("core a\nfrobnicate x\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax {
                line: 2,
                message: "unknown keyword `frobnicate` (expected `core` or `comm`)".into()
            }
        );
        let err = parse_core_graph("comm a b not-a-number\n").unwrap_err();
        assert!(matches!(err, ParseError::Syntax { line: 1, .. }));
        let err = parse_core_graph("core a\ncore a\n").unwrap_err();
        assert!(err.to_string().contains("declared twice"));
    }

    #[test]
    fn rejects_semantic_errors_via_graph_layer() {
        let err = parse_core_graph("comm a a 5\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax { line: 1, message: "self-loop on core `a` is not allowed".into() }
        );
        let err = parse_core_graph("comm a b 5\ncomm a b 6\n").unwrap_err();
        assert_eq!(
            err,
            ParseError::Syntax {
                line: 2,
                message: "duplicate communication edge (`a`, `b`)".into()
            }
        );
        // Both name the cores as the file declares them, not by the
        // graph's internal ids (`v0`, `v1`).
        for (text, line, names) in [
            (
                "core alpha\ncore beta\ncomm alpha beta 5\ncomm alpha beta 5\n",
                4,
                &["alpha", "beta"][..],
            ),
            ("core alpha\ncore beta\ncomm beta beta 5\n", 3, &["beta"][..]),
        ] {
            let err = parse_core_graph(text).unwrap_err();
            assert!(matches!(err, ParseError::Syntax { line: l, .. } if l == line), "{err}");
            let shown = err.to_string();
            assert!(names.iter().all(|name| shown.contains(&format!("`{name}`"))), "{shown}");
            assert!(!shown.contains("v0") && !shown.contains("v1"), "{shown}");
        }
        // A bandwidth beyond `MAX_BANDWIDTH` once overflowed the placement
        // cost to infinity and panicked NMAP's `initialize` and GMAP.
        let err = parse_core_graph("comm a b 1e308\ncomm a c 1e308\ncomm b c 1e308\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::Graph { line: 1, source: GraphError::InvalidBandwidth(..) }
        ));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(parse_core_graph("# only comments\n\n").unwrap_err(), ParseError::Empty);
        assert_eq!(parse_topology("").unwrap_err(), ParseError::Empty);
    }

    #[test]
    fn parses_mesh_topology() {
        let t = parse_topology("mesh 4 3 1000\n").unwrap();
        assert_eq!(t.node_count(), 12);
        assert_eq!(t.kind(), &crate::TopologyKind::Grid(crate::Grid::mesh(&[4, 3]).unwrap()));
        let (_, link) = t.links().next().unwrap();
        assert_eq!(link.capacity.to_f64(), 1000.0);
    }

    #[test]
    fn parses_torus_topology() {
        let t = parse_topology("# fabric\ntorus 3 3 500\n").unwrap();
        assert_eq!(t.kind(), &crate::TopologyKind::Grid(crate::Grid::torus(&[3, 3]).unwrap()));
    }

    #[test]
    fn parses_3d_grid_topologies() {
        let t = parse_topology("mesh 4 4 2 1000\n").unwrap();
        assert_eq!(t.node_count(), 32);
        assert_eq!(t.kind().describe(), "mesh 4x4x2");
        let t = parse_topology("torus 3 3 3 500\n").unwrap();
        assert_eq!(t.node_count(), 27);
        assert_eq!(t.kind().describe(), "torus 3x3x3");
    }

    #[test]
    fn grid_topology_validation_errors() {
        // Too few numbers: extents + bandwidth are both mandatory.
        assert!(parse_topology("mesh 4 1000\n").unwrap_err().to_string().contains("2 to 4"));
        // A stray trailing number on a legacy 2-D line must fail loudly,
        // not silently declare a rank-4 grid with bandwidth 500...
        assert!(parse_topology("mesh 4 4 1000 500 2 2\n")
            .unwrap_err()
            .to_string()
            .contains("2 to 4"));
        // ...and a bandwidth read as an extent trips the extent cap
        // instead of building a 16,000-node `mesh 4x4x1000` at 500 MB/s.
        assert!(parse_topology("mesh 4 4 1000 500\n")
            .unwrap_err()
            .to_string()
            .contains("stray bandwidth"));
        // Zero extents and non-positive bandwidths are rejected.
        assert!(parse_topology("mesh 0 4 100\n")
            .unwrap_err()
            .to_string()
            .contains("dimensions must be non-zero"));
        assert!(parse_topology("mesh 4 4 0\n")
            .unwrap_err()
            .to_string()
            .contains("invalid link bandwidth"));
        assert!(parse_topology("mesh 4 4 -2\n")
            .unwrap_err()
            .to_string()
            .contains("invalid link bandwidth"));
        // Every extent passes its cap, but the product does not: rejected
        // before any node is allocated.
        for (text, nodes) in
            [("mesh 512 512 512 1000\n", 134_217_728), ("# big\ntorus 512 256 100\n", 131_072)]
        {
            let line = text.lines().count();
            assert_eq!(
                parse_topology(text).unwrap_err(),
                ParseError::Syntax {
                    line,
                    message: format!("grid node count {nodes} exceeds the maximum {MAX_NODES}")
                }
            );
        }
        // The cap itself is accepted.
        assert_eq!(parse_topology("mesh 256 256 1000\n").unwrap().node_count(), MAX_NODES);
    }

    #[test]
    fn parses_custom_topology_with_links() {
        let t = parse_topology("custom 3\nlink 0 1 100\nlink 1 2 200\nlink 2 0 300\n").unwrap();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn mesh_with_link_records_is_rejected() {
        let err = parse_topology("mesh 2 2 100\nlink 0 1 50\n").unwrap_err();
        assert!(err.to_string().contains("only valid for custom"));
    }

    #[test]
    fn double_declaration_is_rejected() {
        let err = parse_topology("mesh 2 2 100\ntorus 2 2 100\n").unwrap_err();
        assert!(err.to_string().contains("already declared"));
    }

    #[test]
    fn custom_topology_semantic_errors_carry_line() {
        let err = parse_topology("custom 2\nlink 0 9 10\n").unwrap_err();
        assert!(matches!(err, ParseError::Graph { line: 2, .. }));
        // Node counts and endpoints beyond `MAX_NODES` are syntax errors
        // on their own line, raised before anything is allocated or a
        // `NodeId` is built.
        for (text, line, needle) in [
            ("custom 18446744073709551615\n", 1, "custom node count 18446744073709551615"),
            ("custom 65537\n", 1, "custom node count 65537 exceeds the maximum 65536"),
            ("custom 3\nlink 0 4294967296 3\n", 2, "destination node 4294967296 is out of range"),
            ("link 65536 0 3\ncustom 3\n", 1, "source node 65536 is out of range"),
            ("custom 3\nlink 0 1 500\nlink 1 2 500\n", 1, "not strongly connected"),
        ] {
            match parse_topology(text) {
                Err(ParseError::Syntax { line: l, message }) => {
                    assert_eq!(l, line, "{text:?}");
                    assert!(message.contains(needle), "{text:?}: {message}");
                }
                other => panic!("{text:?} should be a syntax error, got {other:?}"),
            }
        }
        // The largest endpoint passes the parser's cap and is then checked
        // against the declared node count.
        let err = parse_topology("custom 3\nlink 0 65535 3\n").unwrap_err();
        assert!(matches!(err, ParseError::Graph { line: 2, source: GraphError::UnknownNode(_) }));
    }

    #[test]
    fn error_display_is_informative() {
        let err = parse_core_graph("core\n").unwrap_err();
        assert_eq!(err.to_string(), "line 1: `core` needs a name");
    }
}
