//! Warm-started re-optimization from a previous optimal basis.
//!
//! A parametric sweep re-solves the *same* LP at every point with only the
//! constraint right-hand sides changed. The optimal basis of the previous
//! solve is then dual-feasible for the new program: rebuilding the
//! tableau, refactorizing that basis, and running the **dual simplex**
//! method reaches the new optimum in a handful of pivots instead of a full
//! two-phase solve.
//!
//! Entry points are [`crate::LinearProgram::solve_with_basis`] (a cold
//! solve that also returns its optimal [`Basis`]) and
//! [`crate::LinearProgram::resolve_with_basis`] (the warm restart). The
//! warm path is strictly best-effort: any structural difference between
//! the recorded basis and the new program — variable/constraint counts,
//! constraint senses, an RHS sign flip that changes the slack layout, a
//! singular refactorization, or a previously-redundant row that the new
//! RHS makes binding — reports [`SolveError::BasisMismatch`] so the caller
//! can fall back to a cold solve.

use crate::problem::{Constraint, ConstraintSense};
use crate::simplex::{
    build_tableau, extract, remove_row, solve_cold, FullSolution, RowLayout, SimplexOptions,
    SolveError, Tableau,
};

/// An optimal simplex basis captured by
/// [`crate::LinearProgram::solve_with_basis`], reusable to warm-start a
/// program that differs only in its constraint right-hand sides.
///
/// The basis is opaque: it records the basic column set per surviving
/// tableau row plus a layout fingerprint (variable count, per-constraint
/// sense and RHS-sign pattern) that
/// [`crate::LinearProgram::resolve_with_basis`] validates before reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Basic column per surviving constraint row.
    columns: Vec<usize>,
    /// Original constraint index behind each surviving row (phase 1 may
    /// have dropped redundant rows).
    kept_rows: Vec<usize>,
    /// Structural variable count of the program that produced the basis.
    variables: usize,
    /// Per-original-constraint layout fingerprint.
    layout: Vec<RowLayout>,
    /// Whether the optimum this basis describes was provably unique (every
    /// nonbasic reduced cost strictly positive). Reduced costs do not
    /// depend on the RHS, so a basis recorded at a non-unique optimum
    /// would fail the warm path's uniqueness guard after paying for a full
    /// refactorization; recording the verdict lets
    /// [`crate::LinearProgram::resolve_with_basis`] refuse in O(1) instead.
    unique: bool,
}

impl Basis {
    /// Number of basic columns (equals the surviving constraint rows).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for the basis of a program with no constraints.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Records the basis of the optimal tableau `t` of an `n`-variable
    /// program laid out as `layout`.
    fn capture(t: &Tableau, layout: Vec<RowLayout>, n: usize) -> Self {
        Basis {
            columns: t.basis.clone(),
            kept_rows: t.origin.clone(),
            variables: n,
            layout,
            unique: t.optimum_is_unique(t.options.tolerance),
        }
    }
}

/// Threshold below which a refactorization pivot counts as singular. This
/// mirrors the `1e-7` pivot guard used when driving artificials out after
/// phase 1 and is deliberately independent of the user tolerance.
const SINGULAR_EPSILON: f64 = 1e-9;

/// The two-phase solve of `min c·x`, additionally recording its optimal
/// basis.
pub(crate) fn solve_standard_form_with_basis(
    costs: &[f64],
    constraints: &[Constraint],
    options: SimplexOptions,
) -> Result<(FullSolution, Basis), SolveError> {
    let n = costs.len();
    let (t, layout) = solve_cold(costs, constraints, options)?;
    let basis = Basis::capture(&t, layout, n);
    Ok((extract(t, &basis.layout, n), basis))
}

/// Re-optimizes `min c·x` from `prev`, assuming only constraint RHS values
/// changed since the basis was recorded. Returns the solution and the
/// (possibly updated) optimal basis.
pub(crate) fn resolve_standard_form(
    costs: &[f64],
    constraints: &[Constraint],
    options: SimplexOptions,
    prev: &Basis,
) -> Result<(FullSolution, Basis), SolveError> {
    options.validate()?;
    let n = costs.len();
    if prev.variables != n || prev.layout.len() != constraints.len() {
        return Err(SolveError::BasisMismatch);
    }
    // A basis recorded at a non-unique optimum would re-enter the same
    // degenerate optimal face and fail the uniqueness guard below in all
    // but contrived cases (reduced costs are RHS-independent), so refuse
    // before paying for the tableau rebuild and refactorization. Skipping
    // an attempt is output-neutral: the caller's fallback is the cold
    // solve, which is the reference answer.
    if !prev.unique {
        return Err(SolveError::BasisMismatch);
    }
    // Lay the new program out exactly as a cold solve would. A sense or
    // RHS-sign change alters the slack/artificial layout the basis columns
    // are numbered against.
    let (mut t, layout) = build_tableau(n, constraints, options);
    if layout != prev.layout {
        return Err(SolveError::BasisMismatch);
    }
    t.stats.warm_start = true;
    // Keep only the rows the recorded solve kept.
    let mut kept = vec![false; constraints.len()];
    for &k in &prev.kept_rows {
        kept[k] = true;
    }
    for r in (0..t.rows - 1).rev() {
        if !kept[t.origin[r]] {
            remove_row(&mut t, r);
        }
    }

    // Refactorize: turn every recorded basis column into a unit column via
    // Gauss-Jordan pivots. Row association is re-derived deterministically
    // (largest available magnitude, first row on ties); only the basic
    // column *set* matters for correctness. A recorded optimal basis never
    // contains artificials; their columns ride along as the basis inverse
    // the duals are read from.
    let mut assigned = vec![false; t.rows - 1];
    for &col in &prev.columns {
        if col >= t.artificial_start {
            return Err(SolveError::BasisMismatch);
        }
        let mut best: Option<usize> = None;
        let mut best_mag = SINGULAR_EPSILON;
        for (r, done) in assigned.iter().enumerate() {
            if *done {
                continue;
            }
            let mag = t.at(r, col).abs();
            if mag > best_mag {
                best_mag = mag;
                best = Some(r);
            }
        }
        let Some(r) = best else {
            return Err(SolveError::BasisMismatch);
        };
        t.pivot(r, col);
        assigned[r] = true;
    }
    t.stats.refactor_pivots = t.stats.pivots;
    t.stats.pivots = 0;
    t.stats.trace.clear();

    // Express the objective over the refactorized basis. Reduced costs are
    // independent of the RHS, so the row is dual-feasible (up to roundoff).
    t.install_objective(costs);
    dual_reoptimize(&mut t)?;

    let basis = Basis {
        columns: t.basis.clone(),
        kept_rows: t.origin.clone(),
        variables: n,
        layout,
        unique: true, // dual_reoptimize's uniqueness guard just proved it
    };
    let solution = extract(t, &basis.layout, n);
    check_dropped_rows(constraints, &basis.kept_rows, &solution.values, options.tolerance)?;
    Ok((solution, basis))
}

/// Dual simplex from a dual-feasible tableau, then primal cleanup and the
/// uniqueness guard.
fn dual_reoptimize(t: &mut Tableau) -> Result<(), SolveError> {
    let options = t.options;
    let tol = options.tolerance;

    // Dual simplex: repair primal feasibility while keeping dual
    // feasibility. Leaving row = most negative RHS (first row on ties);
    // entering column = dual ratio test (first column on ties).
    let mut iterations = 0usize;
    loop {
        if iterations >= options.max_iterations {
            return Err(SolveError::IterationLimit);
        }
        let rhs_col = t.rhs_col();
        let mut leave: Option<usize> = None;
        let mut most_negative = -tol;
        for r in 0..t.rows - 1 {
            let v = t.at(r, rhs_col);
            if v < most_negative {
                most_negative = v;
                leave = Some(r);
            }
        }
        let Some(lr) = leave else {
            break; // primal feasible again => optimal
        };
        let obj = t.obj_row();
        let mut enter: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for c in 0..t.artificial_start {
            let a = t.at(lr, c);
            if a < -tol {
                let ratio = t.at(obj, c) / -a;
                if ratio < best_ratio {
                    best_ratio = ratio;
                    enter = Some(c);
                }
            }
        }
        let Some(ec) = enter else {
            // The leaving row cannot be repaired: the new RHS is infeasible.
            return Err(SolveError::Infeasible);
        };
        t.pivot(lr, ec);
        iterations += 1;
    }

    // Clean up any residual dual infeasibility introduced by roundoff in
    // the refactorization with ordinary primal pivots.
    t.optimize(t.artificial_start, &mut iterations)?;

    // Uniqueness guard: a zero reduced cost on a nonbasic column means the
    // optimal face has dimension > 0, and a cold solve could legitimately
    // stop at a *different* optimal vertex than the dual simplex did. The
    // warm path only answers when the optimum is provably unique (every
    // nonbasic reduced cost strictly positive), so that warm and cold
    // always return the same solution; otherwise the caller falls back.
    if !t.optimum_is_unique(tol) {
        return Err(SolveError::BasisMismatch);
    }
    Ok(())
}

/// Rows the cold solve dropped as redundant were consistent for the old
/// RHS; verifies they still hold at `values`, otherwise the warm state is
/// unusable.
fn check_dropped_rows(
    constraints: &[Constraint],
    kept_rows: &[usize],
    values: &[f64],
    tol: f64,
) -> Result<(), SolveError> {
    if kept_rows.len() == constraints.len() {
        return Ok(());
    }
    let mut kept = vec![false; constraints.len()];
    for &k in kept_rows {
        kept[k] = true;
    }
    let slack_tol = tol.max(1e-7);
    for (i, c) in constraints.iter().enumerate() {
        if kept[i] {
            continue;
        }
        let lhs: f64 = c.terms.iter().map(|&(var, coeff)| coeff * values[var.index()]).sum();
        let ok = match c.sense {
            ConstraintSense::Le => lhs <= c.rhs + slack_tol,
            ConstraintSense::Ge => lhs >= c.rhs - slack_tol,
            ConstraintSense::Eq => (lhs - c.rhs).abs() <= slack_tol,
        };
        if !ok {
            return Err(SolveError::BasisMismatch);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{LinearProgram, PivotMode, Sense, SimplexOptions, SolveError};

    const EPS: f64 = 1e-7;

    /// A tiny transport-like LP whose optimum moves as `cap` changes.
    fn capacitated(cap: f64) -> LinearProgram {
        // min x + 3y  s.t.  x + y >= 10, x <= cap.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 3.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 10.0);
        lp.add_le(&[(x, 1.0)], cap);
        lp
    }

    #[test]
    fn warm_restart_tracks_rhs_changes() {
        let (cold, mut basis, stats) = capacitated(10.0).solve_with_basis().unwrap();
        assert!((cold.objective - 10.0).abs() < EPS);
        assert!(!stats.warm_start);
        for cap in [8.0, 6.0, 4.0, 2.0, 0.0] {
            let lp = capacitated(cap);
            let (warm, next, wstats) = lp.resolve_with_basis(&basis).unwrap();
            let reference = lp.solve().unwrap();
            assert!(wstats.warm_start);
            assert!(
                (warm.objective - reference.objective).abs() < EPS,
                "cap {cap}: warm {} vs cold {}",
                warm.objective,
                reference.objective
            );
            assert_eq!(warm.values.len(), reference.values.len());
            for (w, c) in warm.values.iter().zip(&reference.values) {
                assert!((w - c).abs() < EPS, "cap {cap}: {w} vs {c}");
            }
            assert_eq!(warm.duals.len(), reference.duals.len());
            for (w, c) in warm.duals.iter().zip(&reference.duals) {
                assert!((w - c).abs() < EPS, "cap {cap}: dual {w} vs {c}");
            }
            basis = next;
        }
    }

    #[test]
    fn warm_restart_with_unchanged_rhs_needs_no_dual_pivots() {
        let lp = capacitated(10.0);
        let (_, basis, _) = lp.solve_with_basis().unwrap();
        let (sol, _, stats) = lp.resolve_with_basis(&basis).unwrap();
        assert!((sol.objective - 10.0).abs() < EPS);
        assert_eq!(stats.pivots, 0, "identical RHS should re-verify without pivoting");
        assert_eq!(stats.refactor_pivots, basis.len());
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (_, basis, _) = capacitated(10.0).solve_with_basis().unwrap();
        // Different variable count.
        let mut other = LinearProgram::new(Sense::Minimize);
        let x = other.add_variable("x", 1.0);
        other.add_ge(&[(x, 1.0)], 1.0);
        assert_eq!(other.resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
        // Different constraint sense pattern.
        let mut flipped = LinearProgram::new(Sense::Minimize);
        let x = flipped.add_variable("x", 1.0);
        let y = flipped.add_variable("y", 3.0);
        flipped.add_le(&[(x, 1.0), (y, 1.0)], 10.0);
        flipped.add_le(&[(x, 1.0)], 10.0);
        assert_eq!(flipped.resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn rhs_sign_flip_is_a_mismatch() {
        let (_, basis, _) = capacitated(10.0).solve_with_basis().unwrap();
        // cap < 0 flips the row when the tableau is built, changing the
        // slack layout the basis columns are numbered against.
        let lp = capacitated(-1.0);
        assert_eq!(lp.resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn infeasible_new_rhs_is_detected() {
        // x <= cap with x >= 5: cap below 5 has no feasible point.
        let build = |cap: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            lp.add_ge(&[(x, 1.0)], 5.0);
            lp.add_le(&[(x, 1.0)], cap);
            lp
        };
        let (_, basis, _) = build(10.0).solve_with_basis().unwrap();
        assert_eq!(build(3.0).resolve_with_basis(&basis).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn warm_iteration_limit_is_reported() {
        let (_, basis, _) = capacitated(10.0).solve_with_basis().unwrap();
        let mut lp = capacitated(2.0);
        lp.set_options(SimplexOptions { max_iterations: 0, ..Default::default() });
        assert_eq!(
            lp.resolve_with_basis(&basis).unwrap_err(),
            SolveError::InvalidOptions("max_iterations")
        );
        // A budget of zero is invalid; the smallest valid budget still
        // trips once the dual pivots exceed it.
        let mut tight = capacitated(0.0);
        tight.set_options(SimplexOptions { max_iterations: 1, ..Default::default() });
        let got = tight.resolve_with_basis(&basis);
        assert!(
            matches!(got, Err(SolveError::IterationLimit) | Err(SolveError::BasisMismatch))
                || got.is_ok(),
            "unexpected {got:?}"
        );
    }

    #[test]
    fn degenerate_program_warm_restarts_or_falls_back() {
        // Degenerate: three constraints active at the (unique) optimum
        // vertex. Degeneracy may leave a zero reduced cost on a nonbasic
        // column, in which case the uniqueness guard refuses the warm
        // answer — acceptable, as long as it never returns a solution
        // that disagrees with the cold path.
        let build = |cap: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", -1.0);
            let y = lp.add_variable("y", -1.0);
            lp.add_le(&[(x, 1.0)], cap);
            lp.add_le(&[(y, 1.0)], cap);
            lp.add_le(&[(x, 1.0), (y, 1.0)], 2.0 * cap);
            lp
        };
        let (_, basis, _) = build(5.0).solve_with_basis().unwrap();
        for cap in [4.0, 2.0, 1.0] {
            let lp = build(cap);
            let cold = lp.solve().unwrap();
            match lp.resolve_with_basis(&basis) {
                Ok((warm, _, _)) => {
                    assert!((warm.objective - cold.objective).abs() < EPS, "cap {cap}");
                }
                Err(SolveError::BasisMismatch) => {} // guard fell back
                Err(e) => panic!("cap {cap}: unexpected {e:?}"),
            }
        }
    }

    #[test]
    fn alternative_optima_are_refused() {
        // min x + y s.t. x + y >= r: the whole segment is optimal, so a
        // cold solve could stop at a different vertex than the dual
        // simplex. The uniqueness guard must refuse the warm answer.
        let build = |r: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            let y = lp.add_variable("y", 1.0);
            lp.add_ge(&[(x, 1.0), (y, 1.0)], r);
            lp
        };
        let (_, basis, _) = build(4.0).solve_with_basis().unwrap();
        assert_eq!(build(6.0).resolve_with_basis(&basis).unwrap_err(), SolveError::BasisMismatch);
    }

    #[test]
    fn unbounded_cold_program_yields_no_basis_to_reuse() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", -1.0);
        lp.add_ge(&[(x, 1.0)], 0.0);
        assert_eq!(lp.solve_with_basis().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn redundant_row_consistency_is_rechecked() {
        // Cold solve sees x + y = 4 twice and drops one copy as redundant.
        let build = |second_rhs: f64| {
            let mut lp = LinearProgram::new(Sense::Minimize);
            let x = lp.add_variable("x", 1.0);
            let y = lp.add_variable("y", 2.0);
            lp.add_eq(&[(x, 1.0), (y, 1.0)], 4.0);
            lp.add_eq(&[(x, 1.0), (y, 1.0)], second_rhs);
            lp
        };
        let (_, basis, _) = build(4.0).solve_with_basis().unwrap();
        if basis.len() < 2 {
            // The duplicate was dropped; making its RHS inconsistent must
            // not silently succeed on the warm path.
            let got = build(7.0).resolve_with_basis(&basis);
            assert!(
                matches!(got, Err(SolveError::BasisMismatch) | Err(SolveError::Infeasible)),
                "unexpected {got:?}"
            );
        }
    }

    #[test]
    fn warm_path_matches_dense_oracle() {
        for cap in [9.0, 7.0, 3.5, 1.0] {
            let mut warm_lp = capacitated(10.0);
            warm_lp.set_options(SimplexOptions::default());
            let (_, basis, _) = warm_lp.solve_with_basis().unwrap();
            let lp = capacitated(cap);
            let (warm, _, _) = lp.resolve_with_basis(&basis).unwrap();
            let mut dense = capacitated(cap);
            dense
                .set_options(SimplexOptions { pivot_mode: PivotMode::Dense, ..Default::default() });
            let oracle = dense.solve().unwrap();
            assert!((warm.objective - oracle.objective).abs() < EPS, "cap {cap}");
        }
    }
}
