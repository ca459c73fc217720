//! A self-contained linear-programming solver.
//!
//! The NMAP paper solves its multi-commodity-flow formulations (MCF1 and
//! MCF2, Equations 8–9) with the external `lp_solve` library. This crate is
//! the from-scratch substitute: a **two-phase primal simplex** method over a
//! dense tableau, sufficient for the problem sizes NMAP produces (hundreds
//! of constraints, a few thousand variables).
//!
//! * Build a model with [`LinearProgram`]: add variables (with their
//!   objective coefficients) and constraints (`≤`, `=`, `≥`).
//! * Call [`LinearProgram::solve`] to obtain a [`Solution`] or a
//!   [`SolveError`] describing infeasibility/unboundedness. The solution
//!   carries the row duals (shadow prices) read off the final tableau,
//!   which is what column-generation callers price new columns with;
//!   [`LinearProgram::solve_with_stats`] adds the pivot counters.
//!
//! There is one solve path and nothing to configure: every call is a cold
//! two-phase solve with full-width pivots, a fixed tolerance of `1e-9`
//! and a fixed budget of 200,000 pivots.
//!
//! Determinism: pivot selection uses Dantzig's rule with index tie-breaks
//! and falls back to Bland's rule when stalling is detected, so the solver
//! terminates on degenerate problems and always returns the same answer for
//! the same model. [`SolveStats`] reports pivot counts for instrumentation.
//!
//! # Example
//!
//! ```
//! use noc_lp::{LinearProgram, Sense};
//!
//! // min -x - 2y  s.t.  x + y <= 4, x <= 2, y <= 3, x,y >= 0
//! let mut lp = LinearProgram::new(Sense::Minimize);
//! let x = lp.add_variable("x", -1.0);
//! let y = lp.add_variable("y", -2.0);
//! lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
//! lp.add_le(&[(x, 1.0)], 2.0);
//! lp.add_le(&[(y, 1.0)], 3.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective - (-7.0)).abs() < 1e-9);
//! assert!((sol[x] - 1.0).abs() < 1e-9);
//! assert!((sol[y] - 3.0).abs() < 1e-9);
//! # Ok::<(), noc_lp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod problem;
mod simplex;

pub use problem::{Constraint, ConstraintSense, LinearProgram, Sense, Solution, VarId};
pub use simplex::{SolveError, SolveStats};
