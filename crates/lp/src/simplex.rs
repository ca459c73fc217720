//! Two-phase primal simplex over a dense tableau.
//
// lint: allow-file(f64-api) — solver options and statistics expose raw
// tolerances and objective reals; the unit-bearing wrappers live with
// the MCF callers in `nmap`.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution (or prove infeasibility); phase 2 optimizes the real
//! objective. Entering variables follow Dantzig's rule until the objective
//! stalls, then Bland's rule, which guarantees termination on degenerate
//! problems.
//!
//! Pivot updates run in one of two modes ([`PivotMode`]): the default
//! **sparse** mode skips row/column entries whose multiplier is exactly
//! `0.0`, while the **dense** mode performs every multiply-subtract. The
//! arithmetic the sparse mode does execute is identical in order and
//! operands to the dense mode, so the two produce the same pivot sequence
//! and bit-identical solutions; dense mode is retained as the differential
//! oracle for tests. (The only representational difference skipping can
//! introduce is the sign of an exact zero, which no comparison in the
//! solver distinguishes and which is normalized out of returned values.)

use std::error::Error;
use std::fmt;

use crate::problem::{Constraint, ConstraintSense};

/// How pivot eliminations traverse the tableau.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotMode {
    /// Skip entries whose multiplier is exactly `0.0` (the fast default).
    #[default]
    Sparse,
    /// Touch every entry; the differential oracle for the sparse mode.
    Dense,
}

/// Tunable solver parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimplexOptions {
    /// Feasibility/optimality tolerance. Must be positive and finite.
    pub tolerance: f64,
    /// Hard cap on pivots across both phases. Must be positive.
    pub max_iterations: usize,
    /// Number of non-improving pivots before switching to Bland's rule.
    /// Must be positive.
    pub stall_threshold: usize,
    /// Pivot elimination strategy (sparse by default).
    pub pivot_mode: PivotMode,
    /// Record the `(row, column)` pivot sequence in [`SolveStats::trace`].
    /// Off by default; used by differential tests.
    pub record_trace: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: 200_000,
            stall_threshold: 256,
            pivot_mode: PivotMode::Sparse,
            record_trace: false,
        }
    }
}

impl SimplexOptions {
    /// Checks that every field is usable before a solve starts.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidOptions`] naming the offending field when
    /// `tolerance` is not a positive finite number or either iteration
    /// bound is zero.
    pub fn validate(&self) -> Result<(), SolveError> {
        if self.tolerance <= 0.0 || !self.tolerance.is_finite() {
            return Err(SolveError::InvalidOptions("tolerance"));
        }
        if self.max_iterations == 0 {
            return Err(SolveError::InvalidOptions("max_iterations"));
        }
        if self.stall_threshold == 0 {
            return Err(SolveError::InvalidOptions("stall_threshold"));
        }
        Ok(())
    }
}

/// Failure modes of [`crate::LinearProgram::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint set has no feasible point.
    Infeasible,
    /// The objective is unbounded below (for minimization).
    Unbounded,
    /// The pivot budget was exhausted before reaching an optimum.
    IterationLimit,
    /// A [`SimplexOptions`] field is out of range; the payload names it.
    InvalidOptions(&'static str),
    /// A warm-start basis does not fit this program (shape, sense, or
    /// RHS-sign change, or the recorded basis is singular here). Callers
    /// should fall back to a cold [`crate::LinearProgram::solve`].
    BasisMismatch,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "linear program is infeasible"),
            SolveError::Unbounded => write!(f, "linear program is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            SolveError::InvalidOptions(field) => {
                write!(f, "invalid solver options: {field} must be positive and finite")
            }
            SolveError::BasisMismatch => {
                write!(f, "warm-start basis does not match this program")
            }
        }
    }
}

impl Error for SolveError {}

/// Pivot counters from one solve, for instrumentation and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Simplex pivots performed (both phases for a cold solve; dual plus
    /// cleanup pivots for a warm solve).
    pub pivots: usize,
    /// Pivots spent in phase 1, including driving artificials out
    /// (always zero for a warm solve, which has no phase 1).
    pub phase1_pivots: usize,
    /// Gauss-Jordan pivots spent refactorizing a warm-start basis
    /// (always zero for a cold solve).
    pub refactor_pivots: usize,
    /// True when the solve was warm-started from a previous basis.
    pub warm_start: bool,
    /// `(row, column)` of every pivot, recorded only when
    /// [`SimplexOptions::record_trace`] is set.
    pub trace: Vec<(usize, usize)>,
}

/// Longest run of zeros a sparse pivot folds into a contiguous elimination
/// segment rather than starting a new one. Merged zeros cost one redundant
/// `x -= factor * 0.0` each (what the dense oracle computes anyway), while
/// every segment break costs a bounds check and breaks vectorization, so
/// short gaps are cheaper to step over than to split on.
const SEGMENT_GAP: usize = 2;

/// Tableau width below which sparse mode runs the plain dense sweep
/// instead of building segments: a narrow tableau stays cache-resident,
/// where the branch-free vectorized sweep wins outright.
const SEGMENT_MIN_COLS: usize = 1024;

/// Dense simplex tableau. Rows `0..m` are constraints; the last row is the
/// objective. Column layout: structural variables, then slacks/surpluses,
/// then artificials, then the RHS.
pub(crate) struct Tableau {
    pub(crate) rows: usize,
    pub(crate) cols: usize, // including rhs column
    pub(crate) data: Vec<f64>,
    pub(crate) basis: Vec<usize>,
    /// Original constraint index behind each surviving row.
    pub(crate) origin: Vec<usize>,
    pub(crate) artificial_start: usize,
    pub(crate) options: SimplexOptions,
    pub(crate) stats: SolveStats,
    /// Reusable `(start, len)` segment list of the scaled pivot row for
    /// [`PivotMode::Sparse`]; kept on the tableau so repeated pivots reuse
    /// one allocation.
    scratch_segments: Vec<(usize, usize)>,
    /// Reusable concatenated segment values matching `scratch_segments`.
    scratch_values: Vec<f64>,
}

impl Tableau {
    #[inline]
    pub(crate) fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub(crate) fn rhs_col(&self) -> usize {
        self.cols - 1
    }

    pub(crate) fn obj_row(&self) -> usize {
        self.rows - 1
    }

    /// Gauss-Jordan pivot on (`pivot_row`, `pivot_col`).
    pub(crate) fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let cols = self.cols;
        let start = pivot_row * cols;
        let pivot_value = self.data[start + pivot_col];
        debug_assert!(pivot_value.abs() > 0.0, "zero pivot");
        let inv = 1.0 / pivot_value;
        match self.options.pivot_mode {
            PivotMode::Dense => self.dense_pivot(pivot_row, pivot_col, inv),
            PivotMode::Sparse if cols < SEGMENT_MIN_COLS => {
                // Small tableaux live in cache, where the fully vectorized
                // dense sweep beats segment bookkeeping; it computes the
                // same observable cells (see the segment-merge note below),
                // so the pivot trace and solution are unchanged.
                self.dense_pivot(pivot_row, pivot_col, inv);
            }
            PivotMode::Sparse => {
                // Scale the pivot row and gather its nonzeros into
                // contiguous segments in one pass; eliminations then run a
                // vectorized slice update per segment instead of touching
                // every column. Nonzeros separated by at most `SEGMENT_GAP`
                // zeros merge into one segment: the extra `x -= factor*0.0`
                // terms a merged gap adds are exactly what the dense oracle
                // computes anyway — they can only flip the sign of an exact
                // zero, which no comparison in the solver distinguishes and
                // which extraction normalizes away — so the pivot trace and
                // solution stay bit-identical while long runs amortize the
                // per-segment bounds check and autovectorize.
                let mut segments = std::mem::take(&mut self.scratch_segments);
                let mut values = std::mem::take(&mut self.scratch_values);
                segments.clear();
                values.clear();
                for c in 0..cols {
                    let v = self.data[start + c];
                    if v != 0.0 {
                        // Snap the pivot entry exactly to 1 to limit drift.
                        let scaled = if c == pivot_col { 1.0 } else { v * inv };
                        self.data[start + c] = scaled;
                        match segments.last_mut() {
                            Some((s, len)) if c - (*s + *len) <= SEGMENT_GAP => {
                                // Merge: carry the gap's zeros into the
                                // segment so it stays contiguous.
                                values.resize(values.len() + (c - (*s + *len)), 0.0);
                                *len = c - *s + 1;
                            }
                            _ => segments.push((c, 1)),
                        }
                        values.push(scaled);
                    }
                }
                for r in 0..self.rows {
                    if r == pivot_row {
                        continue;
                    }
                    let factor = self.data[r * cols + pivot_col];
                    if factor == 0.0 {
                        continue;
                    }
                    let row = &mut self.data[r * cols..(r + 1) * cols];
                    let mut offset = 0usize;
                    for &(s, len) in &segments {
                        let source = &values[offset..offset + len];
                        for (value, &p) in row[s..s + len].iter_mut().zip(source) {
                            *value -= factor * p;
                        }
                        offset += len;
                    }
                    row[pivot_col] = 0.0;
                }
                self.scratch_segments = segments;
                self.scratch_values = values;
            }
        }
        self.basis[pivot_row] = pivot_col;
        self.stats.pivots += 1;
        if self.options.record_trace {
            self.stats.trace.push((pivot_row, pivot_col));
        }
    }

    /// True when the optimum the tableau currently expresses is provably
    /// unique: every nonbasic non-artificial column has a strictly
    /// positive reduced cost. A zero reduced cost means the optimal face
    /// has dimension > 0 and another vertex attains the same objective.
    pub(crate) fn optimum_is_unique(&self, tol: f64) -> bool {
        let obj = self.obj_row();
        let mut in_basis = vec![false; self.artificial_start];
        for &b in &self.basis {
            if b < self.artificial_start {
                in_basis[b] = true;
            }
        }
        (0..self.artificial_start).all(|c| in_basis[c] || self.at(obj, c) > tol)
    }

    /// Full-width Gauss-Jordan elimination: scale the pivot row by `inv`,
    /// then sweep every other row with a nonzero pivot-column entry.
    fn dense_pivot(&mut self, pivot_row: usize, pivot_col: usize, inv: f64) {
        let cols = self.cols;
        let start = pivot_row * cols;
        for c in 0..cols {
            self.data[start + c] *= inv;
        }
        // Snap the pivot entry exactly to 1 to limit drift.
        self.data[start + pivot_col] = 1.0;

        let pivot_row_copy: Vec<f64> = self.data[start..start + cols].to_vec();
        for r in 0..self.rows {
            if r == pivot_row {
                continue;
            }
            let factor = self.data[r * cols + pivot_col];
            if factor == 0.0 {
                continue;
            }
            let row = &mut self.data[r * cols..(r + 1) * cols];
            for (value, &p) in row.iter_mut().zip(&pivot_row_copy) {
                *value -= factor * p;
            }
            row[pivot_col] = 0.0;
        }
    }

    /// Installs the phase-2 objective: zeroes the objective row, writes the
    /// structural costs, and eliminates the reduced costs of every basic
    /// variable so the row is expressed over the current basis.
    pub(crate) fn install_objective(&mut self, costs: &[f64]) {
        let obj = self.obj_row();
        let cols = self.cols;
        let n = costs.len();
        for c in 0..cols {
            self.set(obj, c, 0.0);
        }
        for (v, &cost) in costs.iter().enumerate() {
            self.set(obj, v, cost);
        }
        let sparse = self.options.pivot_mode == PivotMode::Sparse;
        for r in 0..self.rows - 1 {
            let b = self.basis[r];
            let cost = if b < n { costs[b] } else { 0.0 };
            if cost != 0.0 {
                let row: Vec<f64> = self.data[r * cols..(r + 1) * cols].to_vec();
                let orow = &mut self.data[obj * cols..(obj + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(&row) {
                    if sparse && v == 0.0 {
                        continue;
                    }
                    *o -= cost * v;
                }
            }
        }
    }

    /// Runs simplex until optimality over columns `< allowed_cols`.
    pub(crate) fn optimize(
        &mut self,
        allowed_cols: usize,
        iterations: &mut usize,
    ) -> Result<(), SolveError> {
        let tol = self.options.tolerance;
        let mut stall = 0usize;
        let mut last_objective = self.at(self.obj_row(), self.rhs_col());
        loop {
            if *iterations >= self.options.max_iterations {
                return Err(SolveError::IterationLimit);
            }
            let bland = stall > self.options.stall_threshold;
            let obj = self.obj_row();

            // Entering column.
            let mut entering: Option<usize> = None;
            let mut best = -tol;
            for c in 0..allowed_cols {
                let reduced = self.at(obj, c);
                if bland {
                    if reduced < -tol {
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
                if coeff > tol {
                    let ratio = self.at(r, rhs_col) / coeff;
                    let better = ratio < best_ratio - tol
                        || (ratio < best_ratio + tol
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
            if objective < last_objective - tol {
                stall = 0;
                last_objective = objective;
            } else {
                stall += 1;
            }
        }
    }
}

/// Result of [`solve_standard_form`]: structural values, row duals and
/// pivot counters.
pub(crate) struct FullSolution {
    pub(crate) values: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    pub(crate) stats: SolveStats,
}

/// Layout fingerprint of one constraint row as [`build_tableau`] laid it
/// out. Two programs whose rows have equal layouts share every column
/// index of the tableau, which is what lets a recorded basis be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowLayout {
    /// The sense the constraint was declared with.
    pub(crate) sense: ConstraintSense,
    /// Whether the row was negated because its RHS was negative.
    pub(crate) flipped: bool,
    /// The row's starting unit column: its slack for an effective `≤`,
    /// its artificial otherwise.
    pub(crate) unit: usize,
}

/// Solves `min c·x` subject to `constraints` and `x ≥ 0`, returning the
/// structural values, the row duals and the solve statistics.
pub(crate) fn solve_standard_form(
    costs: &[f64],
    constraints: &[Constraint],
    options: SimplexOptions,
) -> Result<FullSolution, SolveError> {
    let (t, layout) = solve_cold(costs, constraints, options)?;
    Ok(extract(t, &layout, costs.len()))
}

/// Lays `constraints` out as the starting tableau: structural columns,
/// then one slack/surplus per inequality, then one artificial per
/// effective `≥`/`=` row, then the RHS. Rows with a negative RHS are
/// stored negated. Every row starts with its unit column basic; the
/// objective row is left zero.
pub(crate) fn build_tableau(
    n: usize,
    constraints: &[Constraint],
    options: SimplexOptions,
) -> (Tableau, Vec<RowLayout>) {
    let m = constraints.len();
    let mut slack_count = 0usize;
    let mut artificial_count = 0usize;
    for c in constraints {
        match effective_sense(c.sense, c.rhs < 0.0) {
            ConstraintSense::Le => slack_count += 1,
            ConstraintSense::Ge => {
                slack_count += 1;
                artificial_count += 1;
            }
            ConstraintSense::Eq => artificial_count += 1,
        }
    }
    let slack_start = n;
    let artificial_start = n + slack_count;
    let cols = artificial_start + artificial_count + 1;
    let rows = m + 1;

    let mut t = Tableau {
        rows,
        cols,
        data: vec![0.0; rows * cols],
        basis: vec![usize::MAX; m],
        origin: (0..m).collect(),
        artificial_start,
        options,
        stats: SolveStats::default(),
        scratch_segments: Vec::new(),
        scratch_values: Vec::new(),
    };

    let mut layout: Vec<RowLayout> = Vec::with_capacity(m);
    let mut next_slack = slack_start;
    let mut next_artificial = artificial_start;
    for (r, c) in constraints.iter().enumerate() {
        let flip = c.rhs < 0.0;
        let sign = if flip { -1.0 } else { 1.0 };
        for &(var, coeff) in &c.terms {
            let cell = r * cols + var.0;
            t.data[cell] += sign * coeff; // accumulate duplicate terms
        }
        t.set(r, t.rhs_col(), sign * c.rhs);
        let unit = match effective_sense(c.sense, flip) {
            ConstraintSense::Le => {
                t.set(r, next_slack, 1.0);
                next_slack += 1;
                next_slack - 1
            }
            ConstraintSense::Ge => {
                t.set(r, next_slack, -1.0);
                next_slack += 1;
                t.set(r, next_artificial, 1.0);
                next_artificial += 1;
                next_artificial - 1
            }
            ConstraintSense::Eq => {
                t.set(r, next_artificial, 1.0);
                next_artificial += 1;
                next_artificial - 1
            }
        };
        t.basis[r] = unit;
        layout.push(RowLayout { sense: c.sense, flipped: flip, unit });
    }
    (t, layout)
}

/// The two-phase solve: returns the optimal tableau and its row layout.
pub(crate) fn solve_cold(
    costs: &[f64],
    constraints: &[Constraint],
    options: SimplexOptions,
) -> Result<(Tableau, Vec<RowLayout>), SolveError> {
    options.validate()?;
    let tol = options.tolerance;
    let (mut t, layout) = build_tableau(costs.len(), constraints, options);
    let cols = t.cols;
    let artificial_start = t.artificial_start;
    let total_vars = cols - 1;

    let mut iterations = 0usize;

    // ---- Phase 1: minimize sum of artificials ----
    if total_vars > artificial_start {
        let obj = t.obj_row();
        for a in artificial_start..total_vars {
            t.set(obj, a, 1.0);
        }
        // Zero out reduced costs of the basic artificials.
        let sparse = t.options.pivot_mode == PivotMode::Sparse;
        for r in 0..constraints.len() {
            if t.basis[r] >= artificial_start {
                let row: Vec<f64> = t.data[r * cols..(r + 1) * cols].to_vec();
                let orow = &mut t.data[obj * cols..(obj + 1) * cols];
                for (o, &v) in orow.iter_mut().zip(&row) {
                    if sparse && v == 0.0 {
                        continue;
                    }
                    *o -= v;
                }
            }
        }
        t.optimize(total_vars, &mut iterations)?;
        let phase1 = -t.at(t.obj_row(), t.rhs_col());
        // Objective row stores -value after eliminations; the minimized sum
        // of artificials is the negation of the stored rhs entry.
        if phase1.abs() > tol.max(1e-7) {
            return Err(SolveError::Infeasible);
        }

        // Drive remaining artificials out of the basis.
        let mut r = 0usize;
        while r < t.rows - 1 {
            if t.basis[r] >= artificial_start {
                let mut pivoted = false;
                for c in 0..artificial_start {
                    if t.at(r, c).abs() > 1e-7 {
                        t.pivot(r, c);
                        pivoted = true;
                        break;
                    }
                }
                if !pivoted {
                    // Redundant row: remove it.
                    remove_row(&mut t, r);
                    continue;
                }
            }
            r += 1;
        }
    }
    t.stats.phase1_pivots = t.stats.pivots;

    // ---- Phase 2: original objective ----
    t.install_objective(costs);
    // Artificials may not re-enter.
    t.optimize(t.artificial_start, &mut iterations)?;
    Ok((t, layout))
}

/// Reads the `n` structural values and the row duals off an optimal
/// tableau, normalizing negative zeros so sparse and dense pivot modes
/// return bit-identical values.
///
/// `duals[i]` is `∂(min c·x)/∂b_i` at the final basis, read off the final
/// objective row: every row starts with a unit column (its slack for an
/// effective `≤`, its artificial otherwise) whose cost is zero, so that
/// column's reduced cost is `-y_i` of the row as stored. Rows stored
/// negated (negative right-hand side) flip the sign back. A redundant row
/// phase 1 removed had its artificial basic, so that column is zero on
/// every surviving row and the row's dual reads 0.
pub(crate) fn extract(mut t: Tableau, layout: &[RowLayout], n: usize) -> FullSolution {
    let normalize = |v: f64| if v == 0.0 { 0.0 } else { v };
    let mut values = vec![0.0; n];
    let rhs = t.rhs_col();
    for r in 0..t.rows - 1 {
        let b = t.basis[r];
        if b < n {
            values[b] = normalize(t.at(r, rhs));
        }
    }
    let obj = t.obj_row();
    let duals = layout
        .iter()
        .map(|lay| {
            let sign = if lay.flipped { -1.0 } else { 1.0 };
            normalize(-sign * t.at(obj, lay.unit))
        })
        .collect();
    let stats = std::mem::take(&mut t.stats);
    FullSolution { values, duals, stats }
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

/// Removes constraint row `r` from the tableau (redundant after phase 1,
/// or not kept by a recorded basis).
pub(crate) fn remove_row(t: &mut Tableau, r: usize) {
    let cols = t.cols;
    let start = r * cols;
    t.data.drain(start..start + cols);
    t.basis.remove(r);
    t.origin.remove(r);
    t.rows -= 1;
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
        lp.set_options(SimplexOptions { max_iterations: 1, ..Default::default() });
        assert_eq!(lp.solve().unwrap_err(), SolveError::IterationLimit);
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
    fn sparse_and_dense_modes_agree_bit_for_bit() {
        let mut sparse = mixed_example();
        sparse.set_options(SimplexOptions {
            pivot_mode: PivotMode::Sparse,
            record_trace: true,
            ..Default::default()
        });
        let mut dense = mixed_example();
        dense.set_options(SimplexOptions {
            pivot_mode: PivotMode::Dense,
            record_trace: true,
            ..Default::default()
        });
        let (s_sol, s_stats) = sparse.solve_with_stats().unwrap();
        let (d_sol, d_stats) = dense.solve_with_stats().unwrap();
        assert_eq!(s_stats.trace, d_stats.trace, "pivot sequences differ");
        assert_eq!(s_sol.objective.to_bits(), d_sol.objective.to_bits());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&s_sol.values), bits(&d_sol.values));
        assert_eq!(bits(&s_sol.duals), bits(&d_sol.duals));
    }

    #[test]
    fn invalid_tolerance_is_rejected() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        lp.add_ge(&[(x, 1.0)], 1.0);
        for bad in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            lp.set_options(SimplexOptions { tolerance: bad, ..Default::default() });
            assert_eq!(lp.solve().unwrap_err(), SolveError::InvalidOptions("tolerance"));
        }
    }

    #[test]
    fn zero_iteration_budgets_are_rejected() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        lp.add_ge(&[(x, 1.0)], 1.0);
        lp.set_options(SimplexOptions { max_iterations: 0, ..Default::default() });
        assert_eq!(lp.solve().unwrap_err(), SolveError::InvalidOptions("max_iterations"));
        lp.set_options(SimplexOptions { stall_threshold: 0, ..Default::default() });
        assert_eq!(lp.solve().unwrap_err(), SolveError::InvalidOptions("stall_threshold"));
    }

    #[test]
    fn invalid_options_error_names_the_field() {
        let message = SolveError::InvalidOptions("tolerance").to_string();
        assert!(message.contains("tolerance"), "{message}");
    }

    #[test]
    fn stats_count_pivots_and_phases() {
        let mut lp = mixed_example();
        lp.set_options(SimplexOptions::default());
        let (_, stats) = lp.solve_with_stats().unwrap();
        assert!(stats.pivots > 0);
        assert!(stats.phase1_pivots <= stats.pivots);
        assert!(stats.trace.is_empty(), "trace off by default");
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
        for mut lp in [mixed_example(), lp] {
            assert_dual_certificate(&lp, &lp.solve().unwrap());
            lp.set_options(SimplexOptions { pivot_mode: PivotMode::Dense, ..Default::default() });
            assert_dual_certificate(&lp, &lp.solve().unwrap());
        }
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
