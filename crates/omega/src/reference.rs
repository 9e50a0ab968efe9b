//! Slow big-integer reference implementation of the Omega test.
//!
//! The production solver in [`crate::Conjunct::is_feasible`] runs on `i64`
//! coefficients with `i128`-widened checked arithmetic and degrades to a
//! typed overflow condition when even the widened result does not fit.  To
//! *prove* that degradation is the only effect of large coefficients — never
//! a wrapped, wrong verdict — the fault-injection test-suite cross-checks it
//! against this oracle: the same decision procedure (equality elimination
//! with Pugh's mod-reduction, Fourier–Motzkin with real/dark shadows and
//! splinters) executed over [`BigInt`], where overflow is impossible by
//! construction.
//!
//! This module trades every performance trick of the production path for
//! obvious correctness: plain `Vec<BigInt>` rows, clones everywhere, no
//! memoisation.  It is also the production path's exact fallback: every
//! feasibility query whose `i64` arithmetic overflows is re-decided here
//! (`decide_with_fallback` in `conjunct.rs`), and the exact verdict replaces
//! the degraded one whenever this solver stays within its work limit.

use crate::bigint::BigInt;
use crate::constraint::{Constraint, ConstraintKind};

/// Work limit of the reference solver, counted like the production solver's
/// (per elimination step).  When exceeded the oracle returns `None` — the
/// cross-check skips the case rather than mis-reporting it.
const WORK_LIMIT: usize = 400_000;

/// Decides integer feasibility of `constraints` over `n_vars` variables with
/// arbitrary-precision arithmetic.
///
/// Returns `Some(true)` / `Some(false)` for a decided system and `None` when
/// the work limit was exceeded.  Agreement contract with the production
/// solver: whenever both this oracle and
/// [`is_feasible`](crate::Conjunct::is_feasible) decide (no work-limit hit,
/// no overflow degradation), the verdicts must be equal.
pub fn reference_is_feasible(constraints: &[Constraint], n_vars: usize) -> Option<bool> {
    let mut p = Problem::new(n_vars);
    for c in constraints {
        if !p.add_constraint(c) {
            return Some(false);
        }
    }
    let mut work = 0usize;
    match p.solve(&mut work) {
        Outcome::Sat => Some(true),
        Outcome::Unsat => Some(false),
        Outcome::Unknown => None,
    }
}

enum Outcome {
    Sat,
    Unsat,
    Unknown,
}

/// A row `Σ coeffs[i]·xᵢ + k  (= 0 | ≥ 0)` over big integers.
#[derive(Clone)]
struct Row {
    coeffs: Vec<BigInt>,
    k: BigInt,
}

impl Row {
    fn zero(n: usize) -> Row {
        Row {
            coeffs: (0..n).map(|_| BigInt::zero()).collect(),
            k: BigInt::zero(),
        }
    }

    fn from_expr(e: &crate::LinExpr, n: usize) -> Row {
        let mut r = Row::zero(n);
        for (i, &c) in e.coeffs().iter().enumerate() {
            r.coeffs[i] = BigInt::from(c);
        }
        r.k = BigInt::from(e.constant());
        r
    }

    fn pad_to(&mut self, n: usize) {
        while self.coeffs.len() < n {
            self.coeffs.push(BigInt::zero());
        }
    }

    /// gcd of the variable coefficients.
    fn coeff_gcd(&self) -> BigInt {
        self.coeffs.iter().fold(BigInt::zero(), |g, c| g.gcd(c))
    }

    /// `self += m·other` (same width).
    fn add_scaled(&mut self, other: &Row, m: &BigInt) {
        for (a, b) in self.coeffs.iter_mut().zip(&other.coeffs) {
            *a = a.add(&b.mul(m));
        }
        self.k = self.k.add(&other.k.mul(m));
    }

    fn scale(&mut self, m: &BigInt) {
        for c in self.coeffs.iter_mut() {
            *c = c.mul(m);
        }
        self.k = self.k.mul(m);
    }

    /// Substitutes `xcol := value` (where `value.coeffs[col]` is zero).
    fn substitute(&mut self, col: usize, value: &Row) {
        let b = std::mem::replace(&mut self.coeffs[col], BigInt::zero());
        if !b.is_zero() {
            self.add_scaled(value, &b);
        }
    }

    /// Divides everything by `d` exactly (equalities).
    fn exact_div(&mut self, d: &BigInt) {
        for c in self.coeffs.iter_mut() {
            *c = c.div_euclid(d);
        }
        self.k = self.k.div_euclid(d);
    }

    /// Divides the coefficients exactly and the constant rounding down
    /// (inequality tightening).
    fn tighten_div(&mut self, d: &BigInt) {
        for c in self.coeffs.iter_mut() {
            *c = c.div_euclid(d);
        }
        self.k = self.k.div_euclid(d);
    }
}

/// Pugh's symmetric residue: `mod̂(a, b) ∈ (−b/2, b/2]` with
/// `mod̂(a, b) ≡ a (mod b)`.
fn mod_hat(a: &BigInt, b: &BigInt) -> BigInt {
    let r = a.rem_euclid(b);
    if r.add(&r) > *b {
        r.sub(b)
    } else {
        r
    }
}

struct Problem {
    n_vars: usize,
    eqs: Vec<Row>,
    geqs: Vec<Row>,
}

impl Problem {
    fn new(n_vars: usize) -> Self {
        Problem {
            n_vars,
            eqs: Vec::new(),
            geqs: Vec::new(),
        }
    }

    fn sub(&self) -> Self {
        Problem::new(self.n_vars)
    }

    fn add_constraint(&mut self, c: &Constraint) -> bool {
        match c.kind() {
            ConstraintKind::Eq => {
                let r = Row::from_expr(c.expr(), self.n_vars);
                self.eqs.push(r);
            }
            ConstraintKind::Geq => {
                let r = Row::from_expr(c.expr(), self.n_vars);
                self.geqs.push(r);
            }
            ConstraintKind::Mod => {
                // f ≡ 0 (mod m)  ⇔  ∃ w : f − m·w = 0
                let w = self.add_var();
                let mut r = Row::from_expr(c.expr(), self.n_vars);
                r.pad_to(self.n_vars);
                r.coeffs[w] = BigInt::from(-c.modulus());
                self.eqs.push(r);
            }
        }
        true
    }

    fn add_var(&mut self) -> usize {
        let col = self.n_vars;
        self.n_vars += 1;
        for r in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
            r.pad_to(col + 1);
        }
        col
    }

    /// Normalises rows; `false` on a trivially unsatisfiable constraint.
    fn normalize(&mut self) -> bool {
        let mut i = 0;
        while i < self.eqs.len() {
            let g = self.eqs[i].coeff_gcd();
            if g.is_zero() {
                if !self.eqs[i].k.is_zero() {
                    return false;
                }
                self.eqs.swap_remove(i);
                continue;
            }
            if !self.eqs[i].k.rem_euclid(&g).is_zero() {
                return false;
            }
            if g > BigInt::one() {
                self.eqs[i].exact_div(&g);
            }
            i += 1;
        }
        let mut i = 0;
        while i < self.geqs.len() {
            let g = self.geqs[i].coeff_gcd();
            if g.is_zero() {
                if self.geqs[i].k.signum() < 0 {
                    return false;
                }
                self.geqs.swap_remove(i);
                continue;
            }
            if g > BigInt::one() {
                self.geqs[i].tighten_div(&g);
            }
            i += 1;
        }
        true
    }

    fn solve(&mut self, work: &mut usize) -> Outcome {
        loop {
            *work += 1;
            if *work > WORK_LIMIT {
                return Outcome::Unknown;
            }
            if !self.normalize() {
                return Outcome::Unsat;
            }
            if !self.eqs.is_empty() {
                // Prefer an equality with a unit coefficient (cheapest).
                let idx = self
                    .eqs
                    .iter()
                    .position(|e| e.coeffs.iter().any(|c| c.abs() == BigInt::one()))
                    .unwrap_or(0);
                if !self.eliminate_equality(idx) {
                    return Outcome::Unsat;
                }
                continue;
            }
            return self.solve_inequalities(work);
        }
    }

    /// Eliminates one equality (unit substitution or mod-reduction); always
    /// succeeds — big integers cannot overflow.
    fn eliminate_equality(&mut self, idx: usize) -> bool {
        let e = self.eqs.swap_remove(idx);
        if let Some(col) = e.coeffs.iter().position(|c| c.abs() == BigInt::one()) {
            let a = e.coeffs[col].clone();
            // a·x + rest = 0  ⇒  x = −a·rest  (a = ±1 so 1/a = a)
            let mut value = e.clone();
            value.coeffs[col] = BigInt::zero();
            value.scale(&a.neg());
            for r in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
                r.substitute(col, &value);
            }
            return true;
        }
        // Mod-reduction with m = |a_k| + 1 on the smallest coefficient.
        let col = (0..self.n_vars)
            .filter(|&c| !e.coeffs[c].is_zero())
            .min_by_key(|&c| e.coeffs[c].abs())
            .expect("non-trivial equality");
        let m = e.coeffs[col].abs().add(&BigInt::one());
        let sigma = self.add_var();
        let mut e = e;
        e.pad_to(self.n_vars);
        let mut aux = Row::zero(self.n_vars);
        for c in 0..self.n_vars - 1 {
            aux.coeffs[c] = mod_hat(&e.coeffs[c], &m);
        }
        aux.coeffs[sigma] = m.neg();
        aux.k = mod_hat(&e.k, &m);
        debug_assert!(aux.coeffs[col].abs() == BigInt::one());
        self.eqs.push(e);
        self.eqs.push(aux);
        true
    }

    fn solve_inequalities(&mut self, work: &mut usize) -> Outcome {
        let used: Vec<usize> = (0..self.n_vars)
            .filter(|&c| self.geqs.iter().any(|r| !r.coeffs[c].is_zero()))
            .collect();
        if used.is_empty() {
            return if self.geqs.iter().all(|r| r.k.signum() >= 0) {
                Outcome::Sat
            } else {
                Outcome::Unsat
            };
        }

        // Same variable-choice heuristic as the production solver: prefer an
        // exact elimination, then the fewest bound pairs; drop one-sided
        // columns immediately.
        let one = BigInt::one();
        let minus_one = one.neg();
        let mut best: Option<(bool, usize, usize)> = None;
        for &col in &used {
            let lowers = self
                .geqs
                .iter()
                .filter(|r| r.coeffs[col].signum() > 0)
                .count();
            let uppers = self
                .geqs
                .iter()
                .filter(|r| r.coeffs[col].signum() < 0)
                .count();
            if lowers == 0 || uppers == 0 {
                self.geqs.retain(|r| r.coeffs[col].is_zero());
                return self.solve_inequalities(work);
            }
            let exact = self.geqs.iter().all(|r| r.coeffs[col] >= minus_one)
                || self.geqs.iter().all(|r| r.coeffs[col] <= one);
            let cost = lowers * uppers;
            let candidate = (exact, cost, col);
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    if (candidate.0 && !b.0) || (candidate.0 == b.0 && candidate.1 < b.1) {
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
        let (exact, _cost, col) = best.expect("at least one used variable");

        let lowers: Vec<Row> = self
            .geqs
            .iter()
            .filter(|r| r.coeffs[col].signum() > 0)
            .cloned()
            .collect();
        let uppers: Vec<Row> = self
            .geqs
            .iter()
            .filter(|r| r.coeffs[col].signum() < 0)
            .cloned()
            .collect();
        let rest: Vec<Row> = self
            .geqs
            .iter()
            .filter(|r| r.coeffs[col].is_zero())
            .cloned()
            .collect();

        let mut real = self.sub();
        let mut dark = self.sub();
        real.geqs.extend(rest.iter().cloned());
        dark.geqs.extend(rest.iter().cloned());
        for lo in &lowers {
            let a = lo.coeffs[col].clone();
            for up in &uppers {
                let b = up.coeffs[col].neg();
                // a·x + f ≥ 0  ∧  −b·x + g ≥ 0   ⇒ (reals)  a·g + b·f ≥ 0
                let mut combined = up.clone();
                combined.scale(&a);
                combined.add_scaled(lo, &b);
                debug_assert!(combined.coeffs[col].is_zero());
                real.geqs.push(combined.clone());
                let mut darkc = combined;
                let margin = a.sub(&one).mul(&b.sub(&one));
                darkc.k = darkc.k.sub(&margin);
                dark.geqs.push(darkc);
            }
        }

        *work += lowers.len() * uppers.len();
        match real.solve(work) {
            Outcome::Unsat => return Outcome::Unsat,
            Outcome::Unknown => return Outcome::Unknown,
            Outcome::Sat => {}
        }
        if exact {
            return Outcome::Sat;
        }
        match dark.solve(work) {
            Outcome::Sat => return Outcome::Sat,
            Outcome::Unknown => return Outcome::Unknown,
            Outcome::Unsat => {}
        }

        // Splinters close the real/dark gap: a·x + f = j for each lower
        // bound, 0 ≤ j ≤ (a·bmax − a − bmax)/bmax.
        let bmax = uppers
            .iter()
            .map(|r| r.coeffs[col].neg())
            .max()
            .unwrap_or_else(BigInt::one);
        for lo in &lowers {
            let a = lo.coeffs[col].clone();
            let max_j = a.mul(&bmax).sub(&a).sub(&bmax).div_euclid(&bmax);
            let mut j = BigInt::zero();
            while j <= max_j {
                *work += 1;
                if *work > WORK_LIMIT {
                    return Outcome::Unknown;
                }
                let mut sub = self.sub();
                sub.geqs = self.geqs.clone();
                let mut eq = lo.clone();
                eq.k = eq.k.sub(&j);
                sub.eqs.push(eq);
                match sub.solve(work) {
                    Outcome::Sat => return Outcome::Sat,
                    Outcome::Unknown => return Outcome::Unknown,
                    Outcome::Unsat => {}
                }
                j = j.add(&BigInt::one());
            }
        }
        Outcome::Unsat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;

    fn le(coeffs: &[i64], c: i64) -> LinExpr {
        LinExpr::from_coeffs(coeffs.to_vec(), c)
    }

    #[test]
    fn agrees_on_small_classics() {
        // 5 <= x <= 3 is empty; 0 <= x <= 10 is not.
        let empty = vec![Constraint::geq(le(&[1], -5)), Constraint::geq(le(&[-1], 3))];
        assert_eq!(reference_is_feasible(&empty, 1), Some(false));
        let ok = vec![Constraint::geq(le(&[1], 0)), Constraint::geq(le(&[-1], 10))];
        assert_eq!(reference_is_feasible(&ok, 1), Some(true));
        // 2x = 5 has no integer solution.
        assert_eq!(
            reference_is_feasible(&[Constraint::eq(le(&[2], -5))], 1),
            Some(false)
        );
        // Pugh's dark-shadow gap example.
        let gap = vec![
            Constraint::geq(le(&[11, 13], -27)),
            Constraint::geq(le(&[-11, -13], 45)),
            Constraint::geq(le(&[7, -9], 10)),
            Constraint::geq(le(&[-7, 9], 4)),
        ];
        assert_eq!(reference_is_feasible(&gap, 2), Some(false));
        // Congruences: x even, 5 <= x <= 5.
        let cong = vec![
            Constraint::congruent(le(&[1], 0), 2),
            Constraint::geq(le(&[1], -5)),
            Constraint::geq(le(&[-1], 5)),
        ];
        assert_eq!(reference_is_feasible(&cong, 1), Some(false));
    }

    #[test]
    fn decides_systems_the_narrow_solver_overflows_on() {
        // Coefficients near i64::MAX: the production solver degrades to a
        // typed overflow; this oracle must still decide exactly.
        let m = i64::MAX / 2;
        // m·x ≥ m  ∧  −m·x ≥ −m  ⇒  x = 1: feasible.
        let cs = vec![Constraint::geq(le(&[m], -m)), Constraint::geq(le(&[-m], m))];
        assert_eq!(reference_is_feasible(&cs, 1), Some(true));
        // m·x = m − 1 with m > 2: no integer solution.
        let cs = vec![Constraint::eq(le(&[m], -(m - 1)))];
        assert_eq!(reference_is_feasible(&cs, 1), Some(false));
    }
}
