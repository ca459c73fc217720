//! Baseline NoC mapping algorithms the NMAP paper compares against.
//!
//! * [`gmap`] — the greedy mapper used for upper-bound-cost (UBC)
//!   computation in Hu & Marculescu, *Energy-Aware Mapping for Tile-based
//!   NoC Architectures* (ASP-DAC 2003): cores sorted by total demand are
//!   placed one-by-one on the cheapest free tile.
//! * [`pmap`] — the physical-mapping phase of Koziris et al., *An
//!   Efficient Algorithm for the Physical Mapping of Clustered Task Graphs
//!   onto Multiprocessor Architectures* (Euro-PDP 2000): like a greedy
//!   constructive mapper but candidates are restricted to the free
//!   neighbourhood of the already-mapped region.
//! * [`pbb`] — the partial branch-and-bound mapper of Hu & Marculescu:
//!   best-first search over placement prefixes with an admissible lower
//!   bound and a bounded queue ("partial" search).
//!
//! All three consume the same [`nmap::MappingProblem`] and produce an
//! [`nmap::Mapping`], so every mapper can be evaluated under every routing
//! regime (XY, load-balanced min-path, split-traffic MCF).
//! `noc_dse::MapperSpec` calls them directly, PBB through
//! [`pbb_checked`], which turns its panicking inputs into errors; the
//! `.dse` keywords that name them live in the mapper catalogue of
//! `noc_dse::spec`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gmap;
mod pbb;
mod pmap;

pub use gmap::gmap;
pub use pbb::{pbb, pbb_checked, PbbOptions, PbbOutcome};
pub use pmap::pmap;
