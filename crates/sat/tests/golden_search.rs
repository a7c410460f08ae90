//! Golden search trajectories on fixed pure-CNF instances.
//!
//! The pinned `(result, conflicts, decisions, propagations, restarts)`
//! tuples are the solver's exact search path. A change to how clauses are
//! stored must leave them untouched; a change that alters them changes the
//! search itself and has to re-pin them deliberately.

mod common;

use beer_sat::{Lit, SatResult, Solver, Var};

type Trajectory = (SatResult, u64, u64, u64, u64);

fn solve(vars: usize, clauses: &[Vec<Lit>]) -> (Solver, Trajectory) {
    let mut s = Solver::new();
    s.reserve_vars(vars);
    for c in clauses {
        s.add_clause(c);
    }
    let result = s.solve();
    let st = s.stats();
    let t = (
        result,
        st.conflicts,
        st.decisions,
        st.propagations,
        st.restarts,
    );
    (s, t)
}

/// A satisfiable random 3-SAT instance below the threshold, followed by
/// two rounds of full-model blocking.
#[test]
fn random_3sat_with_blocking_is_pinned() {
    let clauses = common::random_3sat(140, 596, 3);
    let (mut s, first) = solve(140, &clauses);
    assert_eq!(first, (SatResult::Sat, 2648, 3198, 80566, 14));
    for _ in 0..2 {
        let model = s.model();
        assert!(common::satisfies(&model, &clauses));
        let block: Vec<Lit> = model
            .iter()
            .enumerate()
            .map(|(v, &b)| Var::new(v).lit(!b))
            .collect();
        s.add_clause(&block);
        assert_eq!(s.solve(), SatResult::Sat);
    }
    assert!(common::satisfies(&s.model(), &clauses));
    let st = s.stats();
    assert_eq!(
        (st.conflicts, st.decisions, st.propagations, st.restarts),
        (2649, 3225, 80845, 14)
    );
}

/// An unsatisfiable instance long enough to run learnt-clause reduction.
#[test]
fn unsat_3sat_through_reduction_is_pinned() {
    let clauses = common::random_3sat(190, 873, 1);
    let (_, t) = solve(190, &clauses);
    assert_eq!(t, (SatResult::Unsat, 7683, 9212, 267256, 30));
}
