//! Human-readable rendering of mappings and link loads — the textual
//! equivalent of the paper's Figure 2(c) mapping diagram.

use std::fmt::Write as _;

use noc_graph::{NodeId, TopologyKind};

use crate::routing::LinkLoads;
use crate::{Mapping, MappingProblem};

/// Renders the mapping as a grid of core names (grid topologies; rank-3
/// and higher grids print one `layer ...` block per 2-D slice) or an
/// assignment list (custom topologies).
///
/// # Example
///
/// ```
/// use noc_graph::{CoreGraph, Topology};
/// use nmap::{MappingProblem, Mapping, render_mapping_grid};
///
/// let mut g = CoreGraph::new();
/// let a = g.add_core("alpha");
/// let b = g.add_core("beta");
/// g.add_comm(a, b, 10.0)?;
/// let problem = MappingProblem::new(g, Topology::mesh(2, 1, 100.0))?;
/// let mut m = Mapping::new(2);
/// m.place(a, noc_graph::NodeId::new(0));
/// m.place(b, noc_graph::NodeId::new(1));
/// let grid = render_mapping_grid(&problem, &m);
/// assert!(grid.contains("alpha"));
/// assert!(grid.contains("beta"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_mapping_grid(problem: &MappingProblem, mapping: &Mapping) -> String {
    let topology = problem.topology();
    let cores = problem.cores();
    match topology.kind() {
        TopologyKind::Grid(grid) => {
            // Column width: longest name (or the `.` placeholder).
            let cell = cores.cores().map(|c| cores.name(c).len()).max().unwrap_or(1).max(1);
            let width = grid.axis(0).extent;
            let height = if grid.rank() > 1 { grid.axis(1).extent } else { 1 };
            let layer_size = width * height;
            let layers = topology.node_count() / layer_size;
            let mut out = String::new();
            for layer in 0..layers {
                if grid.rank() > 2 {
                    if layer > 0 {
                        out.push('\n');
                    }
                    // Higher-axis coordinates of this slice, e.g. `layer 1`
                    // for z=1 of a 3-D grid, `layer 1,0` at rank 4.
                    let coords = topology.grid_coords(NodeId::new(layer * layer_size));
                    let label: Vec<String> = coords[2..].iter().map(usize::to_string).collect();
                    let _ = writeln!(out, "layer {}", label.join(","));
                }
                for y in 0..height {
                    for x in 0..width {
                        let node = NodeId::new(layer * layer_size + y * width + x);
                        let label = mapping.core_at(node).map(|c| cores.name(c)).unwrap_or(".");
                        if x > 0 {
                            out.push_str("  ");
                        }
                        let _ = write!(out, "{label:<cell$}");
                    }
                    // Trailing spaces make diffs noisy; trim per row.
                    while out.ends_with(' ') {
                        out.pop();
                    }
                    out.push('\n');
                }
            }
            out
        }
        TopologyKind::Custom => {
            let mut out = String::new();
            for (core, node) in mapping.assignments() {
                let _ = writeln!(out, "{} -> {node}", cores.name(core));
            }
            out
        }
    }
}

/// One-paragraph summary of a mapping's quality: cost, worst link and
/// utilization, ready for logs and CLI output.
pub fn summarize(problem: &MappingProblem, mapping: &Mapping, loads: &LinkLoads) -> String {
    let cost = problem.comm_cost(mapping);
    let lower_bound = problem.cores().total_bandwidth();
    let max_load = loads.max();
    let worst = problem
        .topology()
        .links()
        .max_by(|a, b| loads.get(a.0).partial_cmp(&loads.get(b.0)).expect("loads are finite"));
    let mut out = format!(
        "comm cost {cost:.0} hops*MB/s ({:.2}x the 1-hop lower bound)\n",
        cost.to_f64() / lower_bound.to_f64()
    );
    if let Some((id, link)) = worst {
        let _ = writeln!(
            out,
            "hottest link {id} ({} -> {}): {max_load:.0} MB/s of {:.0} capacity",
            link.src, link.dst, link.capacity
        );
    }
    let _ = writeln!(
        out,
        "feasible: {}",
        if loads.within_capacity(problem.topology()) { "yes" } else { "NO" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing;
    use noc_graph::{CoreGraph, NodeId, Topology};

    fn sample() -> (MappingProblem, Mapping) {
        let mut g = CoreGraph::new();
        let a = g.add_core("cpu");
        let b = g.add_core("mem");
        g.add_comm(a, b, 100.0).unwrap();
        let problem = MappingProblem::new(g, Topology::mesh(2, 2, 500.0)).unwrap();
        let mut m = Mapping::new(4);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(3));
        (problem, m)
    }

    #[test]
    fn grid_shows_cores_and_gaps() {
        let (p, m) = sample();
        let grid = render_mapping_grid(&p, &m);
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("cpu"));
        assert!(lines[0].contains('.'), "empty node must render as a dot");
        assert!(lines[1].ends_with("mem"));
    }

    #[test]
    fn summary_reports_cost_and_hotspot() {
        let (p, m) = sample();
        let (_, loads) = routing::route_min_paths(&p, &m).unwrap();
        let text = summarize(&p, &m, &loads);
        assert!(text.contains("comm cost 200"), "got: {text}");
        assert!(text.contains("100 MB/s of 500 capacity"));
        assert!(text.contains("feasible: yes"));
    }

    #[test]
    fn infeasible_summary_shouts() {
        let mut g = CoreGraph::new();
        let a = g.add_core("a");
        let b = g.add_core("b");
        g.add_comm(a, b, 900.0).unwrap();
        let p = MappingProblem::new(g, Topology::mesh(2, 1, 100.0)).unwrap();
        let mut m = Mapping::new(2);
        m.place(a, NodeId::new(0));
        m.place(b, NodeId::new(1));
        let (_, loads) = routing::route_min_paths(&p, &m).unwrap();
        assert!(summarize(&p, &m, &loads).contains("feasible: NO"));
    }

    #[test]
    fn grid_3d_renders_layer_blocks() {
        let mut g = CoreGraph::new();
        let a = g.add_core("cpu");
        let b = g.add_core("mem");
        g.add_comm(a, b, 10.0).unwrap();
        let t = Topology::mesh_nd(&[2, 2, 2], 100.0).unwrap();
        let front = t.node_at_coords(&[0, 0, 0]).unwrap();
        let back = t.node_at_coords(&[1, 1, 1]).unwrap();
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(8);
        m.place(a, front);
        m.place(b, back);
        let grid = render_mapping_grid(&p, &m);
        assert_eq!(grid, "layer 0\ncpu  .\n.    .\n\nlayer 1\n.    .\n.    mem\n");
    }

    #[test]
    fn custom_topology_renders_as_list() {
        let mut g = CoreGraph::new();
        let a = g.add_core("x");
        let (u0, u1) = (NodeId::new(0), NodeId::new(1));
        let t = Topology::custom(2, [(u0, u1, 1.0), (u1, u0, 1.0)]).unwrap();
        let p = MappingProblem::new(g, t).unwrap();
        let mut m = Mapping::new(2);
        m.place(a, u1);
        assert_eq!(render_mapping_grid(&p, &m), "x -> u1\n");
    }
}
