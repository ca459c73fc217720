//! Property-based tests for the simplex solver: solutions of randomly
//! generated programs must be feasible and at least as good as a known
//! feasible point, and their row duals must certify optimality.

use noc_lp::{LinearProgram, Sense, SolveError, VarId};
use proptest::prelude::*;

const TOL: f64 = 1e-6;

/// A randomly generated LP together with a point known to be feasible.
#[derive(Debug, Clone)]
struct RandomLp {
    costs: Vec<f64>,
    /// (coefficients, sense, rhs); sense: 0 = Le, 1 = Ge, 2 = Eq.
    constraints: Vec<(Vec<f64>, u8, f64)>,
    feasible_point: Vec<f64>,
    bounded: bool,
}

fn random_lp(bounded: bool) -> impl Strategy<Value = RandomLp> {
    let dims = (1usize..=5, 1usize..=6);
    dims.prop_flat_map(move |(n, m)| {
        let costs = prop::collection::vec(-10.0..10.0f64, n);
        let point = prop::collection::vec(0.0..8.0f64, n);
        let rows =
            prop::collection::vec((prop::collection::vec(-5.0..5.0f64, n), 0u8..3, 0.0..6.0f64), m);
        (costs, point, rows).prop_map(move |(costs, feasible_point, raw_rows)| {
            let constraints = raw_rows
                .into_iter()
                .map(|(coeffs, sense, slack)| {
                    let activity: f64 =
                        coeffs.iter().zip(&feasible_point).map(|(a, x)| a * x).sum();
                    // Choose the rhs so `feasible_point` satisfies the row.
                    let rhs = match sense {
                        0 => activity + slack, // a.x <= rhs
                        1 => activity - slack, // a.x >= rhs
                        _ => activity,         // a.x == rhs
                    };
                    (coeffs, sense, rhs)
                })
                .collect();
            RandomLp { costs, constraints, feasible_point, bounded }
        })
    })
}

fn build(lp_data: &RandomLp) -> (LinearProgram, Vec<VarId>) {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let vars: Vec<VarId> = lp_data
        .costs
        .iter()
        .enumerate()
        .map(|(i, &c)| lp.add_variable(format!("x{i}"), c))
        .collect();
    for (coeffs, sense, rhs) in &lp_data.constraints {
        let terms: Vec<(VarId, f64)> = vars.iter().zip(coeffs).map(|(&v, &a)| (v, a)).collect();
        match sense {
            0 => lp.add_le(&terms, *rhs),
            1 => lp.add_ge(&terms, *rhs),
            _ => lp.add_eq(&terms, *rhs),
        }
    }
    if lp_data.bounded {
        // Box constraints keep the program bounded; the feasible point is
        // inside the box by construction (components < 8 <= 20).
        for &v in &vars {
            lp.add_le(&[(v, 1.0)], 20.0);
        }
    }
    (lp, vars)
}

fn check_feasible(lp_data: &RandomLp, values: &[f64]) {
    for (i, &v) in values.iter().enumerate() {
        assert!(v >= -TOL, "x{i} = {v} negative");
    }
    for (row, (coeffs, sense, rhs)) in lp_data.constraints.iter().enumerate() {
        let activity: f64 = coeffs.iter().zip(values).map(|(a, x)| a * x).sum();
        let ok = match sense {
            0 => activity <= rhs + TOL,
            1 => activity >= rhs - TOL,
            _ => (activity - rhs).abs() <= TOL,
        };
        assert!(ok, "row {row} violated: activity {activity}, sense {sense}, rhs {rhs}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bounded programs with a known feasible point must solve to an
    /// optimum that is (a) feasible and (b) no worse than that point.
    #[test]
    fn bounded_random_lps_solve_correctly(lp_data in random_lp(true)) {
        let (lp, _) = build(&lp_data);
        let solution = lp.solve().expect("feasible bounded LP must solve");
        check_feasible(&lp_data, &solution.values);
        let reference: f64 = lp_data
            .costs
            .iter()
            .zip(&lp_data.feasible_point)
            .map(|(c, x)| c * x)
            .sum();
        prop_assert!(
            solution.objective <= reference + TOL,
            "objective {} worse than known feasible point {}",
            solution.objective,
            reference
        );
        // The reported objective matches the reported point.
        let recomputed: f64 =
            lp_data.costs.iter().zip(&solution.values).map(|(c, x)| c * x).sum();
        prop_assert!((solution.objective - recomputed).abs() < 1e-6);
    }

    /// Unbounded-direction programs either solve (feasible optimum) or
    /// report unboundedness — never infeasibility, and never a bogus
    /// "optimal" point violating a constraint.
    #[test]
    fn unbounded_random_lps_never_report_infeasible(lp_data in random_lp(false)) {
        let (lp, _) = build(&lp_data);
        match lp.solve() {
            Ok(solution) => check_feasible(&lp_data, &solution.values),
            Err(SolveError::Unbounded) => {}
            Err(e) => prop_assert!(false, "unexpected error {e:?} on a feasible program"),
        }
    }

    /// The row duals are an optimality certificate: they price every
    /// column to a non-negative reduced cost, zero on every positive
    /// column, carry the sign each row sense requires, and reproduce the
    /// optimum as `y·b` (strong duality).
    #[test]
    fn duals_certify_every_random_optimum(lp_data in random_lp(true)) {
        let (lp, _) = build(&lp_data);
        let solution = lp.solve().expect("feasible bounded LP must solve");
        prop_assert_eq!(solution.duals.len(), lp.constraint_count());
        let mut reduced = lp.costs().to_vec();
        let mut dual_objective = 0.0;
        for (c, &y) in lp.constraints().iter().zip(&solution.duals) {
            for &(var, coeff) in &c.terms {
                reduced[var.index()] -= y * coeff;
            }
            dual_objective += y * c.rhs;
            let signed_ok = match c.sense {
                noc_lp::ConstraintSense::Le => y <= TOL,
                noc_lp::ConstraintSense::Ge => y >= -TOL,
                noc_lp::ConstraintSense::Eq => true,
            };
            prop_assert!(signed_ok, "dual {} has the wrong sign for {:?}", y, c.sense);
        }
        for (j, (&d, &x)) in reduced.iter().zip(&solution.values).enumerate() {
            prop_assert!(d >= -TOL, "column {} prices negative: {}", j, d);
            prop_assert!(x <= TOL || d.abs() <= TOL, "positive column {} costs {}", j, d);
        }
        prop_assert!(
            (solution.objective - dual_objective).abs() <= TOL * (1.0 + solution.objective.abs()),
            "primal {} != dual {}",
            solution.objective,
            dual_objective
        );
    }

    /// Scaling every cost by a positive constant scales the optimum and
    /// preserves feasibility of the reported point.
    #[test]
    fn objective_scaling_is_linear(lp_data in random_lp(true), scale in 0.5..4.0f64) {
        let (lp, _) = build(&lp_data);
        let scaled_data = RandomLp {
            costs: lp_data.costs.iter().map(|c| c * scale).collect(),
            ..lp_data.clone()
        };
        let (scaled_lp, _) = build(&scaled_data);
        let a = lp.solve().expect("solves");
        let b = scaled_lp.solve().expect("solves");
        prop_assert!(
            (a.objective * scale - b.objective).abs() < 1e-5 * (1.0 + a.objective.abs() * scale),
            "scaled optimum {} != {} * {}",
            b.objective,
            scale,
            a.objective
        );
    }
}
