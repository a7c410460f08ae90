//! Circuit-to-CNF construction with memoized Tseitin gates.

use crate::solver::Solver;
use crate::types::{Lit, Var};
use std::collections::HashMap;

/// The memo key of a gate, split by arity so that the two-input gates that
/// dominate BEER's encodings never allocate.
enum GateKey {
    Pair((GateOp, u32, u32)),
    Wide((GateOp, Vec<u32>)),
}

/// The operation of a memoized gate.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum GateOp {
    And,
    Or,
    Xor,
}

/// A CNF formula under construction, with a Tseitin gate library.
///
/// `CnfBuilder` allocates variables and emits clauses, memoizing
/// structurally identical gates so that BEER's large encodings (hundreds of
/// thousands of XOR/AND terms over the same parity-check matrix entries,
/// §5.3) stay compact. It holds only the clauses not yet shipped to a
/// solver, back to back in one flat buffer; [`CnfBuilder::flush_into`]
/// drains them into a live [`Solver`], and [`CnfBuilder::into_solver`]
/// drains them into a fresh one. Further clauses (e.g. model-blocking
/// clauses) can then be added directly to the solver.
///
/// All gate outputs are full biconditional (both-polarity) encodings, so
/// gate literals may be used under any polarity, including inside negative
/// constraints.
///
/// # Examples
///
/// ```
/// use beer_sat::{CnfBuilder, SatResult};
///
/// let mut cnf = CnfBuilder::new();
/// let bits: Vec<_> = (0..4).map(|_| cnf.new_lit()).collect();
/// cnf.at_most_k(&bits, 2);
/// cnf.at_least_one(&bits);
/// let mut s = cnf.into_solver();
/// assert_eq!(s.solve(), SatResult::Sat);
/// let ones = bits.iter().filter(|&&b| s.lit_value(b) == Some(true)).count();
/// assert!((1..=2).contains(&ones));
/// ```
pub struct CnfBuilder {
    num_vars: usize,
    /// Clauses added so far, shipped or not.
    num_clauses: usize,
    /// Literals of the clauses not yet shipped, back to back.
    pending_lits: Vec<Lit>,
    /// End offset in `pending_lits` of each clause not yet shipped.
    pending_ends: Vec<usize>,
    /// Two-input gates, keyed by their sorted input words.
    pair_gates: HashMap<(GateOp, u32, u32), Lit>,
    /// Wider AND/OR gates, keyed by their sorted input words.
    wide_gates: HashMap<(GateOp, Vec<u32>), Lit>,
    const_true: Option<Lit>,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CnfBuilder {
            num_vars: 0,
            num_clauses: 0,
            pending_lits: Vec::new(),
            pending_ends: Vec::new(),
            pair_gates: HashMap::new(),
            wide_gates: HashMap::new(),
            const_true: None,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Creates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far, including those already shipped.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Adds a raw clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.pending_lits.extend_from_slice(lits);
        self.pending_ends.push(self.pending_lits.len());
        self.num_clauses += 1;
    }

    /// Asserts that a literal holds (adds a unit clause).
    pub fn assert_lit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }

    /// Adds the implication `premise → (⋁ conclusion)`.
    pub fn add_implication(&mut self, premise: Lit, conclusion: &[Lit]) {
        // `add_clause` closes the clause this literal opens.
        self.pending_lits.push(!premise);
        self.add_clause(conclusion);
    }

    /// A literal constrained to be true (for building constant inputs).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.const_true {
            return t;
        }
        let t = self.new_lit();
        self.assert_lit(t);
        self.const_true = Some(t);
        t
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// Looks up a memoized gate; on a miss, returns the key to memoize the
    /// new gate under (its operation and sorted input words).
    fn lookup(&self, op: GateOp, lits: &[Lit]) -> Result<Lit, GateKey> {
        let key = if let [a, b] = lits {
            let (a, b) = (a.to_word(), b.to_word());
            GateKey::Pair((op, a.min(b), a.max(b)))
        } else {
            let mut words: Vec<u32> = lits.iter().map(|l| l.to_word()).collect();
            words.sort_unstable();
            GateKey::Wide((op, words))
        };
        let hit = match &key {
            GateKey::Pair(k) => self.pair_gates.get(k),
            GateKey::Wide(k) => self.wide_gates.get(k),
        };
        hit.copied().ok_or(key)
    }

    fn memoize(&mut self, key: GateKey, y: Lit) {
        match key {
            GateKey::Pair(k) => self.pair_gates.insert(k, y),
            GateKey::Wide(k) => self.wide_gates.insert(k, y),
        };
    }

    /// Returns a literal equivalent to the AND of `lits`.
    ///
    /// Memoized: the same input set yields the same output literal.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (an empty AND is a constant; use
    /// [`CnfBuilder::lit_true`]).
    pub fn and(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "AND of zero literals");
        if lits.len() == 1 {
            return lits[0];
        }
        let key = match self.lookup(GateOp::And, lits) {
            Ok(y) => return y,
            Err(key) => key,
        };
        let y = self.new_lit();
        // y → li for each i; (⋀ li) → y.
        for &l in lits {
            self.add_clause(&[!y, l]);
        }
        // (¬l1 ∨ … ∨ ¬ln ∨ y), opened here and closed by `add_clause`.
        self.pending_lits.extend(lits.iter().map(|&l| !l));
        self.add_clause(&[y]);
        self.memoize(key, y);
        y
    }

    /// Returns a literal equivalent to the OR of `lits`. Memoized.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn or(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "OR of zero literals");
        if lits.len() == 1 {
            return lits[0];
        }
        let key = match self.lookup(GateOp::Or, lits) {
            Ok(y) => return y,
            Err(key) => key,
        };
        let y = self.new_lit();
        for &l in lits {
            self.add_clause(&[y, !l]);
        }
        // (l1 ∨ … ∨ ln ∨ ¬y), opened here and closed by `add_clause`.
        self.pending_lits.extend_from_slice(lits);
        self.add_clause(&[!y]);
        self.memoize(key, y);
        y
    }

    /// Returns a literal equivalent to `a XOR b`. Memoized.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let key = match self.lookup(GateOp::Xor, &[a, b]) {
            Ok(y) => return y,
            Err(key) => key,
        };
        let y = self.new_lit();
        // y ↔ a ⊕ b, full four-clause biconditional.
        self.add_clause(&[!y, a, b]);
        self.add_clause(&[!y, !a, !b]);
        self.add_clause(&[y, a, !b]);
        self.add_clause(&[y, !a, b]);
        self.memoize(key, y);
        y
    }

    /// Returns a literal equivalent to the XOR of all `lits` (parity).
    ///
    /// The empty XOR is the constant false.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => self.lit_false(),
            1 => lits[0],
            _ => {
                let mut acc = lits[0];
                for &l in &lits[1..] {
                    acc = self.xor(acc, l);
                }
                acc
            }
        }
    }

    /// Returns a literal equivalent to `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Returns a literal equivalent to `if sel { then_branch } else { else_branch }`.
    pub fn mux(&mut self, sel: Lit, then_branch: Lit, else_branch: Lit) -> Lit {
        let a = self.and(&[sel, then_branch]);
        let b = self.and(&[!sel, else_branch]);
        self.or(&[a, b])
    }

    /// Asserts that at least one of `lits` holds.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (that would be an unsatisfiable empty
    /// clause; assert it explicitly if intended).
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        assert!(!lits.is_empty(), "at_least_one of zero literals");
        self.add_clause(lits);
    }

    /// Asserts that at most one of `lits` holds (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.add_clause(&[!lits[i], !lits[j]]);
            }
        }
    }

    /// Asserts that exactly one of `lits` holds.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// Asserts that at most `k` of `lits` hold, using a sequential counter.
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        if lits.len() <= k {
            return;
        }
        if k == 0 {
            for &l in lits {
                self.assert_lit(!l);
            }
            return;
        }
        // s[i][j] = "at least j+1 of the first i+1 literals are true".
        let n = lits.len();
        let mut s = vec![vec![Lit::from_code(0); k]; n];
        for (i, row) in s.iter_mut().enumerate() {
            for cell in row.iter_mut().take(k) {
                *cell = self.new_lit();
            }
            let _ = i;
        }
        self.add_clause(&[!lits[0], s[0][0]]);
        for &cell in &s[0][1..k] {
            self.assert_lit(!cell);
        }
        for i in 1..n {
            self.add_clause(&[!lits[i], s[i][0]]);
            self.add_clause(&[!s[i - 1][0], s[i][0]]);
            for j in 1..k {
                self.add_clause(&[!lits[i], !s[i - 1][j - 1], s[i][j]]);
                self.add_clause(&[!s[i - 1][j], s[i][j]]);
            }
            self.add_clause(&[!lits[i], !s[i - 1][k - 1]]);
        }
    }

    /// Asserts that at least `k` of `lits` hold (via at-most on negations).
    ///
    /// # Panics
    ///
    /// Panics if `k > lits.len()` (trivially unsatisfiable; assert false
    /// explicitly if intended).
    pub fn at_least_k(&mut self, lits: &[Lit], k: usize) {
        assert!(k <= lits.len(), "at_least_k with k > number of literals");
        if k == 0 {
            return;
        }
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        self.at_most_k(&negated, lits.len() - k);
    }

    /// Asserts `a ≤lex b` where index 0 is the most significant bit — the
    /// row-ordering constraint that canonicalizes parity-check matrices
    /// (DESIGN.md §2, symmetry breaking).
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn lex_le(&mut self, a: &[Lit], b: &[Lit]) {
        assert_eq!(a.len(), b.len(), "lex_le rows of different lengths");
        if a.is_empty() {
            return;
        }
        // eq_prefix = "a[..i] == b[..i]"; start with the empty prefix (true).
        let mut eq_prefix = self.lit_true();
        for i in 0..a.len() {
            // eq_prefix ∧ a[i] → b[i]  (no 1-over-0 at the first difference)
            self.add_clause(&[!eq_prefix, !a[i], b[i]]);
            if i + 1 < a.len() {
                let bits_equal = self.iff(a[i], b[i]);
                eq_prefix = self.and(&[eq_prefix, bits_equal]);
            }
        }
    }

    /// Consumes the builder and returns a fresh solver loaded with every
    /// clause not yet shipped — the whole formula, unless the builder was
    /// flushed before.
    pub fn into_solver(mut self) -> Solver {
        let mut solver = Solver::new();
        self.flush_into(&mut solver);
        solver
    }

    /// Ships every clause added since the last flush into a live solver,
    /// creating any new variables first. This keeps the builder usable as
    /// an *incremental* encoder: Tseitin gates built before the flush stay
    /// memoized, so constraints added later reuse them instead of
    /// re-encoding — the mechanism behind BEER's progressive solving
    /// (paper §6.3).
    ///
    /// Returns `false` if the solver derived a top-level conflict while
    /// absorbing the new clauses (the formula is then permanently UNSAT).
    pub fn flush_into(&mut self, solver: &mut Solver) -> bool {
        solver.reserve_vars(self.num_vars);
        solver.reserve_clauses(self.pending_ends.len(), self.pending_lits.len());
        let mut ok = true;
        let mut start = 0;
        for &end in &self.pending_ends {
            ok &= solver.add_clause(&self.pending_lits[start..end]);
            start = end;
        }
        self.pending_lits.clear();
        self.pending_ends.clear();
        ok
    }

    /// Number of clauses not yet shipped by [`CnfBuilder::flush_into`].
    pub fn pending_clauses(&self) -> usize {
        self.pending_ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;

    /// Exhaustively checks that a gate matches a boolean function on all
    /// inputs, by solving with each input combination asserted.
    fn check_gate<F>(n_inputs: usize, build: impl Fn(&mut CnfBuilder, &[Lit]) -> Lit, f: F)
    where
        F: Fn(&[bool]) -> bool,
    {
        for mask in 0..(1u32 << n_inputs) {
            let mut cnf = CnfBuilder::new();
            let inputs: Vec<Lit> = (0..n_inputs).map(|_| cnf.new_lit()).collect();
            let out = build(&mut cnf, &inputs);
            let in_vals: Vec<bool> = (0..n_inputs).map(|i| mask >> i & 1 == 1).collect();
            for (l, v) in inputs.iter().zip(&in_vals) {
                cnf.assert_lit(if *v { *l } else { !*l });
            }
            let mut s = cnf.into_solver();
            assert_eq!(s.solve(), SatResult::Sat);
            assert_eq!(
                s.lit_value(out),
                Some(f(&in_vals)),
                "gate mismatch on input {in_vals:?}"
            );
        }
    }

    #[test]
    fn and_gate_semantics() {
        check_gate(3, |c, ins| c.and(ins), |v| v.iter().all(|&b| b));
    }

    #[test]
    fn or_gate_semantics() {
        check_gate(3, |c, ins| c.or(ins), |v| v.iter().any(|&b| b));
    }

    #[test]
    fn xor_gate_semantics() {
        check_gate(2, |c, ins| c.xor(ins[0], ins[1]), |v| v[0] ^ v[1]);
    }

    #[test]
    fn xor_many_is_parity() {
        check_gate(
            4,
            |c, ins| c.xor_many(ins),
            |v| v.iter().fold(false, |a, &b| a ^ b),
        );
    }

    #[test]
    fn iff_gate_semantics() {
        check_gate(2, |c, ins| c.iff(ins[0], ins[1]), |v| v[0] == v[1]);
    }

    #[test]
    fn mux_gate_semantics() {
        check_gate(
            3,
            |c, ins| c.mux(ins[0], ins[1], ins[2]),
            |v| if v[0] { v[1] } else { v[2] },
        );
    }

    #[test]
    fn gates_are_memoized() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        let y1 = cnf.xor(a, b);
        let y2 = cnf.xor(b, a);
        assert_eq!(y1, y2, "XOR must memoize independent of argument order");
        let z1 = cnf.and(&[a, b]);
        let z2 = cnf.and(&[b, a]);
        assert_eq!(z1, z2);
        let vars_before = cnf.num_vars();
        let _ = cnf.xor(a, b);
        assert_eq!(cnf.num_vars(), vars_before, "cache hit must not allocate");
    }

    #[test]
    fn exactly_one_enumerates_n_models() {
        let mut cnf = CnfBuilder::new();
        let bits: Vec<Lit> = (0..5).map(|_| cnf.new_lit()).collect();
        cnf.exactly_one(&bits);
        let mut s = cnf.into_solver();
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 5);
            assert_eq!(
                bits.iter()
                    .filter(|&&b| s.lit_value(b) == Some(true))
                    .count(),
                1
            );
            let block: Vec<Lit> = bits
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn at_most_k_counts_models() {
        // C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11 assignments with ≤ 2 ones.
        let mut cnf = CnfBuilder::new();
        let bits: Vec<Lit> = (0..4).map(|_| cnf.new_lit()).collect();
        cnf.at_most_k(&bits, 2);
        let mut s = cnf.into_solver();
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 11);
            let ones = bits
                .iter()
                .filter(|&&b| s.lit_value(b) == Some(true))
                .count();
            assert!(ones <= 2, "model has {ones} ones");
            let block: Vec<Lit> = bits
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 11);
    }

    #[test]
    fn at_least_k_counts_models() {
        // C(4,3)+C(4,4) = 4+1 = 5 assignments with ≥ 3 ones.
        let mut cnf = CnfBuilder::new();
        let bits: Vec<Lit> = (0..4).map(|_| cnf.new_lit()).collect();
        cnf.at_least_k(&bits, 3);
        let mut s = cnf.into_solver();
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 5);
            let ones = bits
                .iter()
                .filter(|&&b| s.lit_value(b) == Some(true))
                .count();
            assert!(ones >= 3);
            let block: Vec<Lit> = bits
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn lex_le_orders_rows() {
        // Two 3-bit rows: number of pairs (a, b) with a ≤lex b is
        // C(8,2) + 8 = 36 (ordered pairs with a ≤ b).
        let mut cnf = CnfBuilder::new();
        let a: Vec<Lit> = (0..3).map(|_| cnf.new_lit()).collect();
        let b: Vec<Lit> = (0..3).map(|_| cnf.new_lit()).collect();
        cnf.lex_le(&a, &b);
        let mut s = cnf.into_solver();
        let mut count = 0;
        let all: Vec<Lit> = a.iter().chain(b.iter()).copied().collect();
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 36);
            let val = |lits: &[Lit]| -> u32 {
                lits.iter()
                    .fold(0, |acc, &l| acc << 1 | u32::from(s.lit_value(l).unwrap()))
            };
            assert!(val(&a) <= val(&b), "lex order violated");
            let block: Vec<Lit> = all
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 36);
    }

    #[test]
    fn constants_are_fixed() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.lit_true();
        let f = cnf.lit_false();
        let mut s = cnf.into_solver();
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.lit_value(t), Some(true));
        assert_eq!(s.lit_value(f), Some(false));
    }
}
