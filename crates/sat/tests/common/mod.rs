//! Deterministic random CNF instances shared by the integration tests.

#![allow(dead_code)] // each test binary uses a different subset

use beer_sat::{Lit, Var};

/// A xorshift64* generator: tiny, dependency-free and stable across
/// platforms, so pinned instances never drift.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next_u64() % n as u64).expect("below n fits usize")
    }
}

/// A uniform random 3-SAT instance: `clauses` clauses over `vars`
/// variables, each with three distinct variables and random signs.
pub fn random_3sat(vars: usize, clauses: usize, seed: u64) -> Vec<Vec<Lit>> {
    let mut rng = XorShift::new(seed);
    (0..clauses)
        .map(|_| {
            let mut picked: Vec<usize> = Vec::with_capacity(3);
            while picked.len() < 3 {
                let v = rng.below(vars);
                if !picked.contains(&v) {
                    picked.push(v);
                }
            }
            picked
                .into_iter()
                .map(|v| Var::new(v).lit(rng.next_u64() & 1 == 0))
                .collect()
        })
        .collect()
}

/// A random 3-SAT instance with a planted solution: clauses falsified by
/// a hidden random assignment are rejected, so the instance is
/// satisfiable by construction however many conflicts it takes to solve.
pub fn planted_3sat(vars: usize, clauses: usize, seed: u64) -> Vec<Vec<Lit>> {
    let mut rng = XorShift::new(seed);
    let hidden: Vec<bool> = (0..vars).map(|_| rng.next_u64() & 1 == 0).collect();
    let mut out = Vec::with_capacity(clauses);
    while out.len() < clauses {
        let c = random_3sat(vars, 1, rng.next_u64()).remove(0);
        if satisfies(&hidden, std::slice::from_ref(&c)) {
            out.push(c);
        }
    }
    out
}

/// True if `model` (indexed by variable) satisfies every clause.
pub fn satisfies(model: &[bool], clauses: &[Vec<Lit>]) -> bool {
    clauses
        .iter()
        .all(|c| c.iter().any(|l| model[l.var().index()] == l.is_positive()))
}
