//! Two-phase primal simplex over a dense tableau.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution (or prove infeasibility); phase 2 optimizes the real
//! objective. Entering variables follow Dantzig's rule until the objective
//! stalls, then Bland's rule, which guarantees termination on degenerate
//! problems. Every pivot is a full-width Gauss-Jordan elimination.

use std::error::Error;
use std::fmt;

use crate::problem::{Constraint, ConstraintSense};

/// Feasibility and optimality tolerance of the pivot rules.
const TOLERANCE: f64 = 1e-9;

/// Phase-1 threshold: the largest artificial sum that still counts as
/// feasible, and the smallest entry that may pivot an artificial out.
const PHASE1_EPSILON: f64 = 1e-7;

/// Non-improving pivots before Dantzig's rule gives way to Bland's.
const STALL_THRESHOLD: usize = 256;

/// Pivot budget of one solve across both phases.
pub(crate) const MAX_PIVOTS: usize = 200_000;

/// Failure modes of [`crate::LinearProgram::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint set has no feasible point.
    Infeasible,
    /// The objective is unbounded below (for minimization).
    Unbounded,
    /// The pivot budget was exhausted before reaching an optimum.
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "linear program is infeasible"),
            SolveError::Unbounded => write!(f, "linear program is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl Error for SolveError {}

/// Pivot counters from one solve, for instrumentation and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Simplex pivots performed in both phases.
    pub pivots: usize,
    /// Pivots spent in phase 1, including driving artificials out.
    pub phase1_pivots: usize,
}

/// Dense simplex tableau. Rows `0..m` are constraints; the last row is the
/// objective. Column layout: structural variables, then slacks/surpluses,
/// then artificials, then the RHS.
struct Tableau {
    rows: usize,
    cols: usize, // including rhs column
    data: Vec<f64>,
    basis: Vec<usize>,
    max_pivots: usize,
    stats: SolveStats,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    fn rhs_col(&self) -> usize {
        self.cols - 1
    }

    fn obj_row(&self) -> usize {
        self.rows - 1
    }

    /// Gauss-Jordan pivot on (`pivot_row`, `pivot_col`): scales the pivot
    /// row, then sweeps every other row with a nonzero pivot-column entry.
    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let cols = self.cols;
        let start = pivot_row * cols;
        let (before, rest) = self.data.split_at_mut(start);
        let (pivot, after) = rest.split_at_mut(cols);
        debug_assert!(pivot[pivot_col].abs() > 0.0, "zero pivot");
        let inv = 1.0 / pivot[pivot_col];
        for value in pivot.iter_mut() {
            *value *= inv;
        }
        // Snap the pivot entry exactly to 1 to limit drift.
        pivot[pivot_col] = 1.0;
        for row in before.chunks_exact_mut(cols).chain(after.chunks_exact_mut(cols)) {
            let factor = row[pivot_col];
            if factor == 0.0 {
                continue;
            }
            for (value, &p) in row.iter_mut().zip(&*pivot) {
                *value -= factor * p;
            }
            row[pivot_col] = 0.0;
        }
        self.basis[pivot_row] = pivot_col;
        self.stats.pivots += 1;
    }

    /// Installs an objective: zeroes the objective row, writes `costs`
    /// (indexed by column), and eliminates the reduced costs of every
    /// basic variable so the row is expressed over the current basis.
    fn install_objective(&mut self, costs: &[f64]) {
        let cols = self.cols;
        let obj = self.obj_row();
        let (constraints, objective) = self.data.split_at_mut(obj * cols);
        objective.fill(0.0);
        objective[..costs.len()].copy_from_slice(costs);
        for (row, &b) in constraints.chunks_exact(cols).zip(&self.basis) {
            let cost = costs.get(b).copied().unwrap_or(0.0);
            if cost != 0.0 {
                for (o, &v) in objective.iter_mut().zip(row) {
                    *o -= cost * v;
                }
            }
        }
    }

    /// Runs simplex until optimality over columns `< allowed_cols`.
    fn optimize(&mut self, allowed_cols: usize, iterations: &mut usize) -> Result<(), SolveError> {
        let mut stall = 0usize;
        let mut last_objective = self.at(self.obj_row(), self.rhs_col());
        loop {
            if *iterations >= self.max_pivots {
                return Err(SolveError::IterationLimit);
            }
            let bland = stall > STALL_THRESHOLD;
            let obj = self.obj_row();

            // Entering column.
            let mut entering: Option<usize> = None;
            let mut best = -TOLERANCE;
            for c in 0..allowed_cols {
                let reduced = self.at(obj, c);
                if bland {
                    if reduced < -TOLERANCE {
                        entering = Some(c);
                        break;
                    }
                } else if reduced < best {
                    best = reduced;
                    entering = Some(c);
                }
            }
            let Some(enter) = entering else {
                return Ok(()); // optimal
            };

            // Ratio test.
            let rhs_col = self.rhs_col();
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.rows - 1 {
                let coeff = self.at(r, enter);
                if coeff > TOLERANCE {
                    let ratio = self.at(r, rhs_col) / coeff;
                    let better = ratio < best_ratio - TOLERANCE
                        || (ratio < best_ratio + TOLERANCE
                            && leave.is_some_and(|l| self.basis[r] < self.basis[l]));
                    if leave.is_none() || better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(SolveError::Unbounded);
            };

            self.pivot(leave, enter);
            *iterations += 1;

            let objective = self.at(self.obj_row(), self.rhs_col());
            if objective < last_objective - TOLERANCE {
                stall = 0;
                last_objective = objective;
            } else {
                stall += 1;
            }
        }
    }

    /// Removes constraint row `r` (redundant after phase 1).
    fn remove_row(&mut self, r: usize) {
        let start = r * self.cols;
        self.data.drain(start..start + self.cols);
        self.basis.remove(r);
        self.rows -= 1;
    }
}

/// Result of [`solve_standard_form`]: structural values, row duals and
/// pivot counters.
pub(crate) struct FullSolution {
    pub(crate) values: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    pub(crate) stats: SolveStats,
}

/// Solves `min c·x` subject to `constraints` and `x ≥ 0` within
/// `max_pivots` simplex pivots, returning the structural values, the row
/// duals and the solve statistics.
pub(crate) fn solve_standard_form(
    costs: &[f64],
    constraints: &[Constraint],
    max_pivots: usize,
) -> Result<FullSolution, SolveError> {
    // ---- Starting tableau ----
    // Structural columns, then one slack/surplus per inequality, then one
    // artificial per effective `≥`/`=` row, then the RHS. Rows with a
    // negative RHS are stored negated. Every row starts with its unit
    // column basic; the objective row is left zero.
    let n = costs.len();
    let m = constraints.len();
    let senses: Vec<(ConstraintSense, bool)> = constraints
        .iter()
        .map(|c| {
            let flipped = c.rhs < 0.0;
            (effective_sense(c.sense, flipped), flipped)
        })
        .collect();
    let slack_count = senses.iter().filter(|(s, _)| *s != ConstraintSense::Eq).count();
    let artificial_count = senses.iter().filter(|(s, _)| *s != ConstraintSense::Le).count();
    let artificial_start = n + slack_count;
    let total_vars = artificial_start + artificial_count;
    let cols = total_vars + 1;
    let mut t = Tableau {
        rows: m + 1,
        cols,
        data: vec![0.0; (m + 1) * cols],
        basis: vec![usize::MAX; m],
        max_pivots,
        stats: SolveStats::default(),
    };
    // Per constraint: its starting unit column (the slack of an effective
    // `≤`, the artificial otherwise) and whether it was stored negated.
    let mut units: Vec<(usize, bool)> = Vec::with_capacity(m);
    let mut next_slack = n;
    let mut next_artificial = artificial_start;
    for (r, (c, &(sense, flipped))) in constraints.iter().zip(&senses).enumerate() {
        let sign = if flipped { -1.0 } else { 1.0 };
        for &(var, coeff) in &c.terms {
            t.data[r * cols + var.0] += sign * coeff; // accumulate duplicate terms
        }
        t.set(r, t.rhs_col(), sign * c.rhs);
        if sense != ConstraintSense::Eq {
            t.set(r, next_slack, if sense == ConstraintSense::Le { 1.0 } else { -1.0 });
            next_slack += 1;
        }
        let unit = if sense == ConstraintSense::Le {
            next_slack - 1
        } else {
            t.set(r, next_artificial, 1.0);
            next_artificial += 1;
            next_artificial - 1
        };
        t.basis[r] = unit;
        units.push((unit, flipped));
    }

    let mut iterations = 0usize;

    // ---- Phase 1: minimize the sum of artificials ----
    if artificial_count > 0 {
        let mut phase1_costs = vec![0.0; total_vars];
        phase1_costs[artificial_start..].fill(1.0);
        t.install_objective(&phase1_costs);
        t.optimize(total_vars, &mut iterations)?;
        // The objective row stores -value after eliminations; the
        // minimized sum of artificials is the negation of its RHS entry.
        let phase1 = -t.at(t.obj_row(), t.rhs_col());
        if phase1.abs() > PHASE1_EPSILON {
            return Err(SolveError::Infeasible);
        }

        // Drive remaining artificials out of the basis.
        let mut r = 0usize;
        while r < t.rows - 1 {
            if t.basis[r] >= artificial_start {
                match (0..artificial_start).find(|&c| t.at(r, c).abs() > PHASE1_EPSILON) {
                    Some(c) => t.pivot(r, c),
                    None => {
                        // Redundant row: remove it.
                        t.remove_row(r);
                        continue;
                    }
                }
            }
            r += 1;
        }
    }
    t.stats.phase1_pivots = t.stats.pivots;

    // ---- Phase 2: original objective; artificials may not re-enter ----
    t.install_objective(costs);
    t.optimize(artificial_start, &mut iterations)?;

    // ---- Read the optimum off the tableau, normalizing negative zeros ----
    // `duals[i]` is `∂(min c·x)/∂b_i` at the final basis, read off the
    // final objective row: row `i`'s starting unit column has cost zero,
    // so that column's reduced cost is `-y_i` of the row as stored. Rows
    // stored negated flip the sign back. A redundant row phase 1 removed
    // had its artificial basic, so that column is zero on every surviving
    // row and the row's dual reads 0.
    let normalize = |v: f64| if v == 0.0 { 0.0 } else { v };
    let mut values = vec![0.0; n];
    for r in 0..t.rows - 1 {
        let b = t.basis[r];
        if b < n {
            values[b] = normalize(t.at(r, t.rhs_col()));
        }
    }
    let obj = t.obj_row();
    let duals = units
        .iter()
        .map(|&(unit, flipped)| {
            let sign = if flipped { -1.0 } else { 1.0 };
            normalize(-sign * t.at(obj, unit))
        })
        .collect();
    Ok(FullSolution { values, duals, stats: t.stats })
}

fn effective_sense(sense: ConstraintSense, flipped: bool) -> ConstraintSense {
    if !flipped {
        return sense;
    }
    match sense {
        ConstraintSense::Le => ConstraintSense::Ge,
        ConstraintSense::Ge => ConstraintSense::Le,
        ConstraintSense::Eq => ConstraintSense::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearProgram, Sense, VarId};

    const EPS: f64 = 1e-7;

    #[test]
    fn infeasible_program_is_detected() {
        // x <= 1 and x >= 2
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        lp.add_le(&[(x, 1.0)], 1.0);
        lp.add_ge(&[(x, 1.0)], 2.0);
        assert_eq!(lp.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_program_is_detected() {
        // min -x, x unconstrained above
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", -1.0);
        lp.add_ge(&[(x, 1.0)], 0.0);
        assert_eq!(lp.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x <= -5  <=>  x >= 5
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        lp.add_le(&[(x, -1.0)], -5.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 5.0).abs() < EPS);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        // (x + x) <= 6  => x <= 3; maximize x
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable("x", 1.0);
        lp.add_le(&[(x, 1.0), (x, 1.0)], 6.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 3.0).abs() < EPS);
    }

    #[test]
    fn redundant_equalities_are_tolerated() {
        // x + y = 4 stated twice plus x - y = 0 => x = y = 2.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 2.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_eq(&[(x, 1.0), (y, -1.0)], 0.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 2.0).abs() < EPS);
        assert!((sol[y] - 2.0).abs() < EPS);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale's classic degenerate LP that cycles under naive Dantzig:
        // min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4
        // s.t. 0.25 x1 - 60 x2 - 0.04 x3 + 9 x4 <= 0
        //      0.50 x1 - 90 x2 - 0.02 x3 + 3 x4 <= 0
        //      x3 <= 1
        // Optimum: -0.05 at x = (0.04/0.8.., ...) — objective is -1/20.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x1 = lp.add_variable("x1", -0.75);
        let x2 = lp.add_variable("x2", 150.0);
        let x3 = lp.add_variable("x3", -0.02);
        let x4 = lp.add_variable("x4", 6.0);
        lp.add_le(&[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        lp.add_le(&[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        lp.add_le(&[(x3, 1.0)], 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - (-0.05)).abs() < 1e-6, "objective {}", sol.objective);
    }

    #[test]
    fn degenerate_transport_problem() {
        // Balanced 2x2 transportation problem with degenerate basis.
        // supplies (10, 10), demands (10, 10), costs [[1, 2], [3, 1]].
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x11 = lp.add_variable("x11", 1.0);
        let x12 = lp.add_variable("x12", 2.0);
        let x21 = lp.add_variable("x21", 3.0);
        let x22 = lp.add_variable("x22", 1.0);
        lp.add_eq(&[(x11, 1.0), (x12, 1.0)], 10.0);
        lp.add_eq(&[(x21, 1.0), (x22, 1.0)], 10.0);
        lp.add_eq(&[(x11, 1.0), (x21, 1.0)], 10.0);
        lp.add_eq(&[(x12, 1.0), (x22, 1.0)], 10.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 20.0).abs() < EPS);
        assert!((sol[x11] - 10.0).abs() < EPS);
        assert!((sol[x22] - 10.0).abs() < EPS);
    }

    #[test]
    fn zero_variable_program() {
        let lp = LinearProgram::new(Sense::Minimize);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.objective, 0.0);
        assert!(sol.values.is_empty());
    }

    #[test]
    fn constraint_only_feasibility_check() {
        // No objective (all costs zero): solver acts as a feasibility oracle.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 0.0);
        let y = lp.add_variable("y", 0.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 3.0);
        lp.add_ge(&[(x, 1.0)], 1.0);
        let sol = lp.solve().unwrap();
        assert!(sol[x] >= 1.0 - EPS);
        assert!((sol[x] + sol[y] - 3.0).abs() < EPS);
    }

    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let mut vars = Vec::new();
        for i in 0..20 {
            vars.push(lp.add_variable(format!("x{i}"), -1.0));
        }
        for i in 0..20 {
            let terms: Vec<(VarId, f64)> =
                vars.iter().map(|&v| (v, if v.index() == i { 2.0 } else { 1.0 })).collect();
            lp.add_le(&terms, 100.0);
        }
        assert!(lp.solve().is_ok(), "solves within the default budget");
        let err = solve_standard_form(lp.costs(), lp.constraints(), 1).err();
        assert_eq!(err, Some(SolveError::IterationLimit));
    }

    #[test]
    fn klee_minty_3d_solves_to_corner() {
        // Klee-Minty cube in 3 dimensions: max 100x1 + 10x2 + x3
        // s.t. x1 <= 1; 20x1 + x2 <= 100; 200x1 + 20x2 + x3 <= 10000.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x1 = lp.add_variable("x1", 100.0);
        let x2 = lp.add_variable("x2", 10.0);
        let x3 = lp.add_variable("x3", 1.0);
        lp.add_le(&[(x1, 1.0)], 1.0);
        lp.add_le(&[(x1, 20.0), (x2, 1.0)], 100.0);
        lp.add_le(&[(x1, 200.0), (x2, 20.0), (x3, 1.0)], 10_000.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 10_000.0).abs() < 1e-6);
        assert!(sol[x1].abs() < EPS);
        assert!(sol[x2].abs() < EPS);
        assert!((sol[x3] - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_sense_problem() {
        // min x + y + z
        // x + y >= 4; y + z = 6; x <= 3
        // optimum: x=0, y=4..6... let's check: y+z=6 fixed sum, minimize
        // x+y+z = x + y + (6-y) = x + 6 => x = 0 as long as y >= 4 feasible
        // (y <= 6, z = 6 - y >= 0). So optimum 6 with y in [4,6].
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 1.0);
        let z = lp.add_variable("z", 1.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_eq(&[(y, 1.0), (z, 1.0)], 6.0);
        lp.add_le(&[(x, 1.0)], 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 6.0).abs() < EPS, "objective {}", sol.objective);
        assert!(sol[x].abs() < EPS);
        assert!(sol[y] >= 4.0 - EPS && sol[y] <= 6.0 + EPS);
        assert!((sol[y] + sol[z] - 6.0).abs() < EPS);
    }

    #[test]
    fn equality_with_negative_rhs() {
        // -x - y = -8 with min x s.t. y <= 5 => x = 3.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 0.0);
        lp.add_eq(&[(x, -1.0), (y, -1.0)], -8.0);
        lp.add_le(&[(y, 1.0)], 5.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 3.0).abs() < EPS);
        assert!((sol[y] - 5.0).abs() < EPS);
    }

    fn mixed_example() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 1.0);
        let z = lp.add_variable("z", 1.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_eq(&[(y, 1.0), (z, 1.0)], 6.0);
        lp.add_le(&[(x, 1.0)], 3.0);
        lp
    }

    #[test]
    fn stats_count_pivots_and_phases() {
        let (_, stats) = mixed_example().solve_with_stats().unwrap();
        assert!(stats.pivots > 0);
        assert!(stats.phase1_pivots <= stats.pivots);
    }

    /// Checks complementary slackness and dual feasibility of `sol`
    /// against `lp`: the duals must price every column to a non-negative
    /// reduced cost (zero on positive columns) and reproduce the optimum
    /// as `y·b`.
    fn assert_dual_certificate(lp: &LinearProgram, sol: &crate::Solution) {
        let minimize = if lp.sense() == Sense::Minimize { 1.0 } else { -1.0 };
        let mut reduced: Vec<f64> = lp.costs().iter().map(|c| minimize * c).collect();
        let mut dual_objective = 0.0;
        for (c, &y) in lp.constraints().iter().zip(&sol.duals) {
            let y = minimize * y;
            for &(var, coeff) in &c.terms {
                reduced[var.index()] -= y * coeff;
            }
            dual_objective += y * c.rhs;
            match c.sense {
                ConstraintSense::Le => assert!(y <= EPS, "≤ row dual {y} must be ≤ 0"),
                ConstraintSense::Ge => assert!(y >= -EPS, "≥ row dual {y} must be ≥ 0"),
                ConstraintSense::Eq => {}
            }
        }
        for (j, (&d, &x)) in reduced.iter().zip(&sol.values).enumerate() {
            assert!(d >= -EPS, "column {j} prices negative: {d}");
            assert!(x <= EPS || d.abs() <= EPS, "positive column {j} has reduced cost {d}");
        }
        assert!((minimize * sol.objective - dual_objective).abs() < EPS, "strong duality");
    }

    #[test]
    fn duals_certify_the_optimum() {
        // y = (-1, 0, -1) by hand for the crate example: x + y <= 4 binds
        // with price 1, y <= 3 binds with price 1, x <= 2 is slack.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", -1.0);
        let y = lp.add_variable("y", -2.0);
        lp.add_le(&[(x, 1.0), (y, 1.0)], 4.0);
        lp.add_le(&[(x, 1.0)], 2.0);
        lp.add_le(&[(y, 1.0)], 3.0);
        let sol = lp.solve().unwrap();
        for (got, want) in sol.duals.iter().zip([-1.0, 0.0, -1.0]) {
            assert!((got - want).abs() < EPS, "duals {:?}", sol.duals);
        }
        assert_dual_certificate(&lp, &sol);
        let mixed = mixed_example();
        assert_dual_certificate(&mixed, &mixed.solve().unwrap());
    }

    #[test]
    fn duals_of_flipped_redundant_and_maximized_rows() {
        // -x - y = -8 is stored negated; the duplicate x + y = 8 is removed
        // as redundant after phase 1 and must price at zero.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 3.0);
        lp.add_eq(&[(x, -1.0), (y, -1.0)], -8.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 8.0);
        lp.add_le(&[(x, 1.0)], 5.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 14.0).abs() < EPS);
        assert_dual_certificate(&lp, &sol);
        // Shadow prices follow the program's own sense: raising the cap on
        // x by one adds one unit of profit to this maximization.
        let mut max = LinearProgram::new(Sense::Maximize);
        let x = max.add_variable("x", 3.0);
        let y = max.add_variable("y", 1.0);
        max.add_le(&[(x, 1.0)], 2.0);
        max.add_le(&[(x, 1.0), (y, 1.0)], 5.0);
        let sol = max.solve().unwrap();
        assert!((sol.objective - 9.0).abs() < EPS);
        assert!((sol.duals[0] - 2.0).abs() < EPS && (sol.duals[1] - 1.0).abs() < EPS);
    }
}
