//! Golden search trajectory of the progressive solver on a fixed BEER
//! instance: a k = 32 code's 1-CHARGED analytic profile.
//!
//! The pinned counters are the solver's exact search path. A change to
//! the SAT layer's storage (clause arena, watcher layout, builder
//! buffers) must leave them untouched; a change that alters them is a
//! change to the search itself and has to re-pin them deliberately.

use beer_core::analytic::analytic_profile;
use beer_core::pattern::PatternSet;
use beer_core::solve::{BeerSolverOptions, ProgressiveSolver};
use beer_ecc::{equivalence, hamming};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn k32_one_charged_search_is_pinned() {
    let k = 32;
    let secret = hamming::random_sec(k, &mut StdRng::seed_from_u64(32));
    let profile = analytic_profile(&secret, &PatternSet::One.patterns(k));
    let mut solver =
        ProgressiveSolver::new(k, hamming::parity_bits_for(k), BeerSolverOptions::default());
    solver
        .push_constraints(&profile)
        .expect("profile matches k");
    let report = solver.check();

    assert!(report.is_unique(), "{} solutions", report.solutions.len());
    assert!(equivalence::equivalent(&report.solutions[0], &secret));
    let st = report.solver_stats;
    assert_eq!(
        (st.conflicts, st.decisions, st.propagations, st.restarts),
        (27, 690, 26369, 0),
        "search trajectory changed"
    );
    assert_eq!((st.vars, st.clauses), (5970, 14042), "solver input changed");
    assert_eq!(solver.cnf_size(), (5970, 14149), "encoding changed");
}
