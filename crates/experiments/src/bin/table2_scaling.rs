//! Regenerates Table 2: PBB vs NMAP communication cost on random graphs
//! of 25–65 cores. The scenarios run on the engine pool on every core.

use noc_experiments::dse_bridge::table2_via_engine;
use noc_experiments::report::{fmt, TextTable};
use noc_experiments::table2::Table2Config;

fn main() {
    println!("Table 2 — communication cost on random graphs, PBB vs NMAP");
    println!("(paper ratios: 1.54, 1.61, 1.85, 1.69, 1.76)\n");
    let rows = table2_via_engine(&Table2Config::default(), 0);
    let mut table = TextTable::new(["cores", "PBB", "NMAP", "ratio"]);
    for row in rows {
        table.row([row.cores.to_string(), fmt(row.pbb, 0), fmt(row.nmap, 0), fmt(row.ratio, 2)]);
    }
    print!("{}", table.render());
}
