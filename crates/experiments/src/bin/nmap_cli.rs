//! `nmap_cli` — map an application file onto a NoC from the command line.
//!
//! ```text
//! nmap_cli <app-file> [--mesh WxH | --torus WxH | --noc <file>]
//!          [--capacity MB/s] [--algorithm MAPPER] [--dot]
//! ```
//!
//! `MAPPER` is any `.dse` mapper spelling (default `nmap`): a keyword of
//! the mapper catalogue in `noc_dse::spec`, or a family keyword with a
//! `[..]` parameter suffix such as `nmap[p4r2]`. The mapper runs through
//! the same dispatch as a sweep scenario, `sa` with seed 0, except the
//! `nmap-split-*` mappers, which run `map_with_splitting` directly so that
//! the split routing they scored their placement with is printed as it
//! is. The application file uses the `noc-graph` text format:
//!
//! ```text
//! core vld
//! comm vld run_le_dec 70
//! ```
//!
//! Without `--mesh`/`--torus`/`--noc`, the smallest square-ish mesh that
//! fits the application is used. `--capacity` (default 1000 MB/s) sets
//! the link capacity of the grid choices; a `.noc` file declares its own,
//! so `--noc` with `--capacity` is rejected. The placement is routed as
//! its mapper scored it: split MCF routing at the mapper's path scope for
//! the `nmap-split-*` mappers (their own solution, not solved again),
//! load-balanced minimum-path routing otherwise. Exit code 1 on bad input, 2 when the routed loads exceed
//! the link capacities.

use std::process::ExitCode;

use nmap::{
    map_with_splitting, render_mapping_grid, routing, summarize, EvalContext, MappingProblem,
    McfKind, SinglePathOptions, SplitOutcome,
};
use noc_dse::spec::{mapper_catalogue, parse_mapper};
use noc_dse::MapperSpec;
use noc_graph::parse::{check_node_count, MAX_GRID_EXTENT};
use noc_graph::{mapping_dot, parse_core_graph, parse_topology, Topology};

#[derive(Debug)]
struct Args {
    app_path: String,
    topology: TopologyChoice,
    /// `--capacity`, when given; the grid choices default to 1000 MB/s.
    capacity: Option<f64>,
    mapper: MapperSpec,
    dot: bool,
}

#[derive(Debug)]
enum TopologyChoice {
    Fit,
    Mesh(usize, usize),
    Torus(usize, usize),
    File(String),
}

fn usage() -> String {
    let keywords: Vec<&str> = mapper_catalogue().iter().map(|&(keyword, _)| keyword).collect();
    format!(
        "usage: nmap_cli <app-file> [--mesh WxH | --torus WxH | --noc <file>] \
[--capacity MB/s] [--algorithm {}] [--dot]",
        keywords.join("|")
    )
}

/// Parses the arguments after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut raw = argv.into_iter();
    let mut app_path = None;
    let mut topology = TopologyChoice::Fit;
    let mut capacity = None;
    let mut mapper = MapperSpec::Nmap(SinglePathOptions::default());
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
                capacity = Some(text.parse().map_err(|_| format!("bad capacity `{text}`"))?);
            }
            "--algorithm" => {
                mapper = parse_mapper(&raw.next().ok_or("--algorithm needs a mapper name")?)?;
            }
            "--dot" => dot = true,
            "--help" | "-h" => return Err(usage()),
            other if app_path.is_none() && !other.starts_with('-') => {
                app_path = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument `{other}`\n{}", usage())),
        }
    }
    if matches!(topology, TopologyChoice::File(_)) && capacity.is_some() {
        let reason = "the .noc file declares its own link capacities";
        return Err(format!("--capacity cannot be combined with --noc: {reason}"));
    }
    Ok(Args { app_path: app_path.ok_or_else(usage)?, topology, capacity, mapper, dot })
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

    let capacity = args.capacity.unwrap_or(1_000.0);
    let topology = match &args.topology {
        TopologyChoice::Fit => {
            let (w, h) = Topology::fit_mesh_dims(graph.core_count());
            Topology::mesh_nd(&[w, h], capacity).map_err(|e| e.to_string())?
        }
        TopologyChoice::Mesh(w, h) => {
            Topology::mesh_nd(&[*w, *h], capacity).map_err(|e| e.to_string())?
        }
        TopologyChoice::Torus(w, h) => {
            Topology::torus_nd(&[*w, *h], capacity).map_err(|e| e.to_string())?
        }
        TopologyChoice::File(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            parse_topology(&text).map_err(|e| format!("{path}: {e}"))?
        }
    };

    let problem = MappingProblem::new(graph, topology).map_err(|e| e.to_string())?;

    let (mapping, loads) = if let MapperSpec::NmapSplit(options) = &args.mapper {
        let SplitOutcome { mapping, solution, .. } =
            map_with_splitting(&problem, options).map_err(|e| e.to_string())?;
        let (total_flow, slack) = match solution.kind {
            McfKind::FlowMin => (solution.objective, 0.0),
            _ => (f64::INFINITY, solution.objective),
        };
        println!(
            "split routing: total flow {total_flow:.0}, slack {slack:.0}, up to {} paths per flow",
            solution.tables.max_paths_per_commodity()
        );
        (mapping, solution.link_loads)
    } else {
        let (mapping, _) = args
            .mapper
            .mapper(0)
            .place(&mut EvalContext::new(&problem))
            .map_err(|e| e.to_string())?;
        let loads = routing::route_min_paths(&problem, &mapping).map_err(|e| e.to_string())?.1;
        (mapping, loads)
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
    /// Every accepted argv names an app file, keeps grid extents from 1
    /// to `MAX_GRID_EXTENT` and never holds both `--noc` and
    /// `--capacity`: appending the pair to it makes it fail.
    #[test]
    fn every_short_argv_parses_or_fails_cleanly() {
        let tokens: Vec<&str> = "--mesh --torus --noc --capacity --algorithm --dot --help -h \
                                 0 1 -1 18446744073709551616 nan 2x2 0x3 x app.txt pbb \
                                 nmap[p0r1]"
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
                let noc_file = matches!(args.topology, TopologyChoice::File(_));
                assert!(!(noc_file && args.capacity.is_some()), "{argv:?}: --noc with --capacity");
                let both = argv.iter().chain(&["--noc", "t.noc", "--capacity", "5"]);
                assert!(parse_args(both.map(|t| t.to_string())).is_err(), "{argv:?} + both");
            }
        }
        assert!(accepted > 100, "only {accepted} argvs accepted");
    }
}
