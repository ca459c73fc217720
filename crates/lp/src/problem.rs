//! Model-building API: variables, constraints, objective sense.
//
// lint: allow-file(f64-api) — the solver is a raw-numeric seam by
// design: costs, coefficients and right-hand sides are dimensionless
// reals whose units live with the caller (nmap wraps them in typed
// quantities at the MCF layer).

use std::fmt;
use std::ops::Index;

use crate::simplex::{solve_standard_form, SolveError, SolveStats, MAX_PIVOTS};

/// Identifier of a decision variable within one [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw column index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Objective direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (the native form of the solver).
    Minimize,
    /// Maximize the objective (costs are negated internally).
    Maximize,
}

/// Direction of one linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// A linear constraint `Σ aᵢxᵢ (≤|=|≥) b` over non-negative variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficient list `(variable, coefficient)`.
    pub terms: Vec<(VarId, f64)>,
    /// Constraint direction.
    pub sense: ConstraintSense,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// All variables satisfy `x ≥ 0`; richer bounds are expressed as explicit
/// constraints. See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct LinearProgram {
    sense: Sense,
    names: Vec<String>,
    costs: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates an empty program with the given objective sense.
    pub fn new(sense: Sense) -> Self {
        Self { sense, names: Vec::new(), costs: Vec::new(), constraints: Vec::new() }
    }

    /// Adds a non-negative variable with objective coefficient `cost` and
    /// returns its id. `name` is used only in diagnostics.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is not finite.
    pub fn add_variable(&mut self, name: impl Into<String>, cost: f64) -> VarId {
        assert!(cost.is_finite(), "objective coefficient must be finite");
        let id = VarId(self.costs.len());
        self.names.push(name.into());
        self.costs.push(cost);
        id
    }

    /// Adds `count` anonymous variables sharing the objective coefficient
    /// `cost`; returns the id of the first (ids are consecutive).
    pub fn add_variables(&mut self, count: usize, cost: f64) -> VarId {
        let first = VarId(self.costs.len());
        for i in 0..count {
            self.add_variable(format!("x{}", first.0 + i), cost);
        }
        first
    }

    /// Adds an arbitrary constraint.
    ///
    /// # Panics
    ///
    /// Panics if a term references an unknown variable or any value is not
    /// finite.
    pub fn add_constraint(&mut self, constraint: Constraint) {
        assert!(constraint.rhs.is_finite(), "rhs must be finite");
        for &(var, coeff) in &constraint.terms {
            assert!(var.0 < self.costs.len(), "unknown variable {var}");
            assert!(coeff.is_finite(), "coefficient must be finite");
        }
        self.constraints.push(constraint);
    }

    /// Convenience: adds `Σ aᵢxᵢ ≤ rhs`.
    pub fn add_le(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(Constraint { terms: terms.to_vec(), sense: ConstraintSense::Le, rhs });
    }

    /// Convenience: adds `Σ aᵢxᵢ = rhs`.
    pub fn add_eq(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(Constraint { terms: terms.to_vec(), sense: ConstraintSense::Eq, rhs });
    }

    /// Convenience: adds `Σ aᵢxᵢ ≥ rhs`.
    pub fn add_ge(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.add_constraint(Constraint { terms: terms.to_vec(), sense: ConstraintSense::Ge, rhs });
    }

    /// Number of decision variables.
    pub fn variable_count(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn variable_name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// The objective sense the program was created with.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective coefficients, indexed by [`VarId`].
    pub fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// The constraints added so far, in insertion order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Solves the program with the two-phase primal simplex method.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] — no point satisfies all constraints.
    /// * [`SolveError::Unbounded`] — the objective decreases without bound.
    /// * [`SolveError::IterationLimit`] — the fixed pivot budget (200,000
    ///   pivots) was exhausted.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with_stats().map(|(solution, _)| solution)
    }

    /// Like [`LinearProgram::solve`], additionally returning the
    /// [`SolveStats`] pivot counters.
    ///
    /// # Errors
    ///
    /// Same as [`LinearProgram::solve`].
    pub fn solve_with_stats(&self) -> Result<(Solution, SolveStats), SolveError> {
        let costs = self.minimization_costs();
        let full = solve_standard_form(&costs, &self.constraints, MAX_PIVOTS)?;
        Ok((self.finish(full.values, full.duals), full.stats))
    }

    /// Objective coefficients in the solver's native minimization sense.
    fn minimization_costs(&self) -> Vec<f64> {
        if self.sense == Sense::Maximize {
            self.costs.iter().map(|c| -c).collect()
        } else {
            self.costs.clone()
        }
    }

    /// Builds a [`Solution`] from raw structural values and minimization
    /// duals: computes the objective in the original sense, snaps tiny
    /// negatives introduced by elimination to zero, and expresses the
    /// duals in the original sense too.
    fn finish(&self, mut values: Vec<f64>, mut duals: Vec<f64>) -> Solution {
        let mut objective = 0.0;
        for (value, cost) in values.iter().zip(&self.costs) {
            objective += value * cost;
        }
        for v in &mut values {
            if *v < 0.0 && *v > -1e-9 {
                *v = 0.0;
            }
        }
        if self.sense == Sense::Maximize {
            for y in &mut duals {
                *y = if *y == 0.0 { 0.0 } else { -*y };
            }
        }
        Solution { objective, values, duals }
    }
}

/// An optimal solution returned by [`LinearProgram::solve`].
///
/// Index it with a [`VarId`] to read a variable's value.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal objective value (in the sense of the original program).
    pub objective: f64,
    /// Values of the decision variables, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Row duals (shadow prices), one per constraint in insertion order:
    /// the rate at which the optimal objective changes per unit increase
    /// of that constraint's right-hand side, at the final basis. For a
    /// minimization a binding `≤` row prices at or below zero and a
    /// binding `≥` row at or above; a maximization mirrors the signs.
    pub duals: Vec<f64>,
}

impl Index<VarId> for Solution {
    type Output = f64;

    fn index(&self, var: VarId) -> &f64 {
        &self.values[var.0]
    }
}

impl Solution {
    /// Value of `var` in the optimum.
    ///
    /// # Panics
    ///
    /// Panics if `var` belongs to a different program.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-8;

    #[test]
    fn maximization_negates_costs() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable("x", 3.0);
        let y = lp.add_variable("y", 5.0);
        lp.add_le(&[(x, 1.0)], 4.0);
        lp.add_le(&[(y, 2.0)], 12.0);
        lp.add_le(&[(x, 3.0), (y, 2.0)], 18.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 36.0).abs() < EPS, "objective {}", sol.objective);
        assert!((sol[x] - 2.0).abs() < EPS);
        assert!((sol[y] - 6.0).abs() < EPS);
    }

    #[test]
    fn equality_constraints() {
        // min x + y st x + y = 10, x - y = 4  => x = 7, y = 3
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        let y = lp.add_variable("y", 1.0);
        lp.add_eq(&[(x, 1.0), (y, 1.0)], 10.0);
        lp.add_eq(&[(x, 1.0), (y, -1.0)], 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol[x] - 7.0).abs() < EPS);
        assert!((sol[y] - 3.0).abs() < EPS);
        assert!((sol.objective - 10.0).abs() < EPS);
    }

    #[test]
    fn ge_constraints_and_surplus() {
        // min 2x + 3y st x + y >= 10, x >= 3 => (7,3)? cost 2*7+3*3 = 23 vs
        // x=10,y=0 => 20 (x>=3 ok). So optimum (10, 0) with cost 20.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 2.0);
        let y = lp.add_variable("y", 3.0);
        lp.add_ge(&[(x, 1.0), (y, 1.0)], 10.0);
        lp.add_ge(&[(x, 1.0)], 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective - 20.0).abs() < EPS, "objective {}", sol.objective);
        assert!((sol[x] - 10.0).abs() < EPS);
        assert!(sol[y].abs() < EPS);
    }

    #[test]
    fn add_variables_returns_consecutive_ids() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let first = lp.add_variables(5, 1.0);
        assert_eq!(first.index(), 0);
        assert_eq!(lp.variable_count(), 5);
        let next = lp.add_variable("z", 2.0);
        assert_eq!(next.index(), 5);
    }

    #[test]
    fn solution_indexing() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("x", 1.0);
        lp.add_ge(&[(x, 1.0)], 5.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol[x], sol.value(x));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_with_foreign_variable_panics() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let _ = lp.add_variable("x", 1.0);
        lp.add_le(&[(VarId(99), 1.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_cost_panics() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let _ = lp.add_variable("x", f64::INFINITY);
    }

    #[test]
    fn variable_names_are_kept() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable("flow_a_b", 0.0);
        assert_eq!(lp.variable_name(x), "flow_a_b");
    }
}
