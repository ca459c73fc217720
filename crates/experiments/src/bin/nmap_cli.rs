//! `nmap_cli` — map an application file onto a NoC from the command line.
//!
//! ```text
//! nmap_cli <app-file> [--mesh WxH | --torus WxH | --noc <file>]
//!          [--capacity MB/s] [--algorithm nmap|nmap-split|pmap|gmap|pbb]
//!          [--scope quadrant|all] [--dot]
//! ```
//!
//! The application file uses the `noc-graph` text format:
//!
//! ```text
//! core vld
//! comm vld run_le_dec 70
//! ```
//!
//! Without `--mesh`/`--torus`/`--noc`, the smallest square-ish mesh that
//! fits the application is used. Exit code 1 on bad input, 2 when the
//! chosen algorithm cannot satisfy the bandwidth constraints.

use std::process::ExitCode;

use nmap::{
    map_single_path, map_with_splitting, render_mapping_grid, routing, summarize, Mapping,
    MappingProblem, PathScope, SinglePathOptions, SplitOptions,
};
use noc_baselines::{gmap, pbb, pmap, PbbOptions};
use noc_graph::parse::{check_node_count, MAX_GRID_EXTENT};
use noc_graph::{mapping_dot, parse_core_graph, parse_topology, Topology};

#[derive(Debug)]
struct Args {
    app_path: String,
    topology: TopologyChoice,
    capacity: f64,
    algorithm: Algorithm,
    scope: PathScope,
    dot: bool,
}

#[derive(Debug)]
enum TopologyChoice {
    Fit,
    Mesh(usize, usize),
    Torus(usize, usize),
    File(String),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Algorithm {
    Nmap,
    NmapSplit,
    Pmap,
    Gmap,
    Pbb,
}

const USAGE: &str = "usage: nmap_cli <app-file> [--mesh WxH | --torus WxH | --noc <file>] \
[--capacity MB/s] [--algorithm nmap|nmap-split|pmap|gmap|pbb] [--scope quadrant|all] [--dot]";

/// Parses the arguments after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut raw = argv.into_iter();
    let mut app_path = None;
    let mut topology = TopologyChoice::Fit;
    let mut capacity = 1_000.0;
    let mut algorithm = Algorithm::Nmap;
    let mut scope = PathScope::AllPaths;
    let mut dot = false;

    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--mesh" | "--torus" => {
                let dims = raw.next().ok_or(format!("{arg} needs WxH"))?;
                let (w, h) = parse_dims(&dims)?;
                topology = if arg == "--mesh" {
                    TopologyChoice::Mesh(w, h)
                } else {
                    TopologyChoice::Torus(w, h)
                };
            }
            "--noc" => {
                topology = TopologyChoice::File(raw.next().ok_or("--noc needs a file path")?);
            }
            "--capacity" => {
                let text = raw.next().ok_or("--capacity needs a value")?;
                capacity = text.parse().map_err(|_| format!("bad capacity `{text}`"))?;
            }
            "--algorithm" => {
                let name = raw.next().ok_or("--algorithm needs a name")?;
                algorithm = match name.as_str() {
                    "nmap" => Algorithm::Nmap,
                    "nmap-split" => Algorithm::NmapSplit,
                    "pmap" => Algorithm::Pmap,
                    "gmap" => Algorithm::Gmap,
                    "pbb" => Algorithm::Pbb,
                    other => return Err(format!("unknown algorithm `{other}`")),
                };
            }
            "--scope" => {
                let name = raw.next().ok_or("--scope needs quadrant|all")?;
                scope = match name.as_str() {
                    "quadrant" => PathScope::Quadrant,
                    "all" => PathScope::AllPaths,
                    other => return Err(format!("unknown scope `{other}`")),
                };
            }
            "--dot" => dot = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if app_path.is_none() && !other.starts_with('-') => {
                app_path = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Args {
        app_path: app_path.ok_or(USAGE.to_string())?,
        topology,
        capacity,
        algorithm,
        scope,
        dot,
    })
}

fn parse_dims(text: &str) -> Result<(usize, usize), String> {
    let (w, h) = text.split_once('x').ok_or(format!("bad dimensions `{text}`, want WxH"))?;
    let w: usize = w.parse().map_err(|_| format!("bad width `{w}`"))?;
    let h: usize = h.parse().map_err(|_| format!("bad height `{h}`"))?;
    if w == 0 || h == 0 || w.max(h) > MAX_GRID_EXTENT {
        return Err(format!("bad dimensions `{text}`, want extents from 1 to {MAX_GRID_EXTENT}"));
    }
    check_node_count("grid node count", w * h)?;
    Ok((w, h))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    match run(&args) {
        Ok(feasible) => {
            if feasible {
                ExitCode::SUCCESS
            } else {
                eprintln!("bandwidth constraints NOT satisfied");
                ExitCode::from(2)
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let app_text = std::fs::read_to_string(&args.app_path)
        .map_err(|e| format!("cannot read {}: {e}", args.app_path))?;
    let graph = parse_core_graph(&app_text).map_err(|e| format!("{}: {e}", args.app_path))?;

    let topology = match &args.topology {
        TopologyChoice::Fit => {
            let (w, h) = Topology::fit_mesh_dims(graph.core_count());
            Topology::mesh_nd(&[w, h], args.capacity).map_err(|e| e.to_string())?
        }
        TopologyChoice::Mesh(w, h) => {
            Topology::mesh_nd(&[*w, *h], args.capacity).map_err(|e| e.to_string())?
        }
        TopologyChoice::Torus(w, h) => {
            Topology::torus_nd(&[*w, *h], args.capacity).map_err(|e| e.to_string())?
        }
        TopologyChoice::File(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_topology(&text).map_err(|e| format!("{path}: {e}"))?
        }
    };

    let problem = MappingProblem::new(graph, topology).map_err(|e| e.to_string())?;

    let (mapping, loads): (Mapping, nmap::LinkLoads) = match args.algorithm {
        Algorithm::Nmap => {
            let out = map_single_path(&problem, &SinglePathOptions::default())
                .map_err(|e| e.to_string())?;
            (out.mapping, out.link_loads)
        }
        Algorithm::NmapSplit => {
            let out = map_with_splitting(&problem, &SplitOptions { scope: args.scope, passes: 1 })
                .map_err(|e| e.to_string())?;
            println!(
                "split routing: total flow {:.0}, slack {:.0}, up to {} paths per flow",
                out.total_flow,
                out.slack,
                out.tables.max_paths_per_commodity()
            );
            (out.mapping, out.link_loads)
        }
        Algorithm::Pmap | Algorithm::Gmap | Algorithm::Pbb => {
            let mapping = match args.algorithm {
                Algorithm::Pmap => pmap(&problem),
                Algorithm::Gmap => gmap(&problem),
                _ => pbb(&problem, &PbbOptions::default()).mapping,
            };
            let (_, loads) =
                routing::route_min_paths(&problem, &mapping).map_err(|e| e.to_string())?;
            (mapping, loads)
        }
    };

    println!("{}", render_mapping_grid(&problem, &mapping));
    print!("{}", summarize(&problem, &mapping, &loads));
    if args.dot {
        println!("\n{}", mapping_dot(problem.cores(), problem.topology(), &mapping.to_pairs()));
    }
    Ok(loads.within_capacity(problem.topology()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every argv of up to three tokens, drawn from every flag plus
    /// awkward operands, parses or fails with a message; none panics.
    /// Every accepted argv names an app file and keeps grid extents
    /// from 1 to `MAX_GRID_EXTENT`.
    #[test]
    fn every_short_argv_parses_or_fails_cleanly() {
        let tokens: Vec<&str> = "--mesh --torus --noc --capacity --algorithm --scope --dot \
                                 --help -h 0 1 -1 18446744073709551616 nan 2x2 0x3 x app.txt"
            .split_whitespace()
            .collect();
        let n = tokens.len();
        let mut accepted = 0;
        for len in 0..=3u32 {
            for code in 0..n.pow(len) {
                let argv: Vec<&str> = (0..len).map(|k| tokens[code / n.pow(k) % n]).collect();
                let owned = argv.iter().map(|t| t.to_string());
                let parsed = std::panic::catch_unwind(|| parse_args(owned))
                    .unwrap_or_else(|_| panic!("parse_args panicked on {argv:?}"));
                let args = match parsed {
                    Ok(args) => args,
                    Err(msg) => {
                        assert!(!msg.is_empty(), "{argv:?}: empty error");
                        continue;
                    }
                };
                accepted += 1;
                let app = args.app_path.as_str();
                assert!(argv.contains(&app) && !app.starts_with('-'), "{argv:?}: app {app}");
                if let TopologyChoice::Mesh(w, h) | TopologyChoice::Torus(w, h) = args.topology {
                    for extent in [w, h] {
                        assert!((1..=MAX_GRID_EXTENT).contains(&extent), "{argv:?}: {extent}");
                    }
                }
            }
        }
        assert!(accepted > 100, "only {accepted} argvs accepted");
    }
}
