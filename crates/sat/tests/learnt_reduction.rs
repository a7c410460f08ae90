//! Learnt-clause reduction and clause-arena compaction under incremental
//! use.
//!
//! A hard unsatisfiable instance, solved inside a retractable scope, runs
//! long enough to reduce the learnt-clause database at least twice and to
//! compact the clause arena mid-search. The same solver then keeps
//! answering queries over a second formula — with assumptions, nested
//! scopes and blocking clauses — and every model it returns is checked
//! against the original clauses, and every projected model count against
//! brute force.

mod common;

use beer_sat::{Lit, SatResult, SolverSession, Var};

/// Variables of the small formula enumerated after the hard search.
const SMALL_VARS: usize = 12;
/// Variables of the hard unsatisfiable instance.
const HARD_VARS: usize = 170;

fn model_of(s: &SolverSession, vars: usize) -> Vec<bool> {
    (0..vars)
        .map(|v| s.value(Var::new(v)).expect("model assigns every variable"))
        .collect()
}

/// Number of assignments of `vars` variables satisfying `clauses` with
/// the variable `fixed.var()` set so that `fixed` holds.
fn brute_force_count(vars: usize, clauses: &[Vec<Lit>], fixed: Lit) -> usize {
    (0u32..1 << vars)
        .map(|mask| (0..vars).map(|v| mask >> v & 1 == 1).collect::<Vec<_>>())
        .filter(|m| m[fixed.var().index()] == fixed.is_positive() && common::satisfies(m, clauses))
        .count()
}

#[test]
fn reduction_and_compaction_keep_incremental_solving_sound() {
    let small = common::planted_3sat(SMALL_VARS, 40, 17);
    let hard: Vec<Vec<Lit>> = common::random_3sat(HARD_VARS, 748, 51)
        .into_iter()
        .map(|c| {
            c.into_iter()
                .map(|l| Var::new(SMALL_VARS + l.var().index()).lit(l.is_positive()))
                .collect()
        })
        .collect();

    let mut s = SolverSession::new();
    for _ in 0..SMALL_VARS + HARD_VARS {
        s.new_var();
    }
    for c in &small {
        assert!(s.add_clause(c));
    }

    // The hard instance lives in a scope, so its refutation does not
    // poison the session.
    let hard_scope = s.push_scope();
    for c in &hard {
        s.add_scoped_clause(hard_scope, c);
    }
    assert_eq!(s.solve(), SatResult::Unsat, "the hard instance is UNSAT");
    let st = s.stats();
    assert!(st.reductions >= 2, "only {} reductions", st.reductions);
    assert!(st.compactions >= 1, "no compaction");
    s.pop_scope(hard_scope);

    // The same solver, learnt clauses and all, keeps solving.
    let vars = SMALL_VARS + HARD_VARS;
    assert_eq!(s.solve(), SatResult::Sat);
    assert!(common::satisfies(&model_of(&s, vars), &small));
    for fixed in [Var::new(0).positive(), Var::new(0).negative()] {
        let outer = s.push_scope();
        let mut models = 0;
        while s.solve_with_assumptions(&[fixed]) == SatResult::Sat {
            let m = model_of(&s, vars);
            assert!(common::satisfies(&m, &small), "model violates the formula");
            assert_eq!(m[0], fixed.is_positive(), "model ignores the assumption");
            models += 1;
            assert!(models <= 1 << SMALL_VARS, "enumeration does not terminate");
            // Block the projection onto the small formula's variables in
            // a nested scope, so popping the outer one retracts it too.
            let block: Vec<Lit> = (0..SMALL_VARS).map(|v| Var::new(v).lit(!m[v])).collect();
            let inner = s.push_scope();
            s.add_scoped_clause(inner, &block);
            // Checking the blocked model is gone.
            assert_ne!(
                s.solve_with_assumptions(&block.iter().map(|&l| !l).collect::<Vec<_>>()),
                SatResult::Sat,
                "blocked model is still reachable"
            );
            s.add_scoped_clause(outer, &block);
            s.pop_scope(inner);
            assert_eq!(s.open_scopes(), 1);
        }
        assert_eq!(models, brute_force_count(SMALL_VARS, &small, fixed));
        s.pop_scope(outer);
    }
    // Every scope retracted: the formula's models are all reachable again.
    assert_eq!(s.solve(), SatResult::Sat);
    assert!(common::satisfies(&model_of(&s, vars), &small));
    assert!(s.stats().compactions >= 1);
}
