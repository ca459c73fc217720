//! Golden pin of PBB's Table 2 numbers at the paper budget
//! (`pbb[q5000e50000]`): seed 0's instances 0..3 of the 25- and 35-core
//! random graphs on their fitted meshes. `dse_table2.rs` pins the
//! engine's Table 2 rows on a reduced budget; this file pins PBB's own
//! outcomes at the paper budget, so a change to the PBB search that moves
//! any comm cost, expansion count or truncation flag fails here.

use nmap::MappingProblem;
use noc_baselines::pbb;
use noc_experiments::table2::Table2Config;
use noc_experiments::UNLIMITED_CAPACITY;
use noc_graph::{RandomGraphConfig, RandomGraphFamily, Topology};

/// `(cores, instance, comm_cost bits, expansions, truncated)`.
/// Captured from the search before its allocation-free rewrite.
const GOLDEN: [(usize, u64, u64, usize, bool); 6] = [
    (25, 0, 4670049510866112149, 49983, true),
    (25, 1, 4670926419047392877, 50000, true),
    (25, 2, 4671612950513283487, 50000, true),
    (35, 0, 4672770096007821403, 50000, true),
    (35, 1, 4674195066940410051, 50000, true),
    (35, 2, 4673349940918599166, 50000, true),
];

#[test]
fn pbb_table2_paper_budget_is_pinned() {
    let config = Table2Config::default();
    let family = RandomGraphFamily::new(RandomGraphConfig::default());
    let mut got = Vec::new();
    for cores in [25, 35] {
        for instance in 0..config.instances {
            let (w, h) = Topology::fit_mesh_dims(cores);
            let problem = MappingProblem::new(
                family.graph(cores, instance),
                Topology::mesh(w, h, UNLIMITED_CAPACITY),
            )
            .expect("generated graph fits");
            let out = pbb(&problem, &config.pbb);
            assert!(out.feasible, "unlimited capacity is always feasible");
            got.push((
                cores,
                instance,
                out.comm_cost.to_f64().to_bits(),
                out.expansions,
                out.truncated,
            ));
        }
    }
    assert_eq!(got, GOLDEN);
}
