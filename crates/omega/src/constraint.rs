//! Individual affine constraints: equalities, inequalities and congruences.

use crate::arith::ArithOverflow;
use crate::events::note_arith_overflow;
use crate::linexpr::{gcd, LinExpr};

/// The kind of a [`Constraint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ConstraintKind {
    /// `expr = 0`
    Eq,
    /// `expr >= 0`
    Geq,
    /// `expr ≡ 0 (mod m)` — the modulus is stored in [`Constraint::modulus`].
    Mod,
}

/// A single affine constraint over the columns of a conjunct.
///
/// Three forms are supported: `e = 0`, `e ≥ 0` and `e ≡ 0 (mod m)`.
/// Congruences are what keeps the constraint language closed under the
/// negation needed for set difference: strided loops (`k += 2`) produce
/// existential equalities `k = 2j` which are normalised to `k ≡ 0 (mod 2)`,
/// and `¬(e ≡ 0 mod m)` is the finite union `⋃_{r=1}^{m-1} e − r ≡ 0 (mod m)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Constraint {
    kind: ConstraintKind,
    expr: LinExpr,
    /// Modulus for `Mod` constraints; 0 otherwise.
    modulus: i64,
}

impl Constraint {
    /// The constraint `expr = 0`.
    pub fn eq(expr: LinExpr) -> Self {
        Constraint {
            kind: ConstraintKind::Eq,
            expr,
            modulus: 0,
        }
    }

    /// The constraint `expr >= 0`.
    pub fn geq(expr: LinExpr) -> Self {
        Constraint {
            kind: ConstraintKind::Geq,
            expr,
            modulus: 0,
        }
    }

    /// The constraint `expr ≡ 0 (mod modulus)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn congruent(expr: LinExpr, modulus: i64) -> Self {
        assert!(modulus >= 2, "modulus must be at least 2");
        Constraint {
            kind: ConstraintKind::Mod,
            expr,
            modulus,
        }
    }

    /// The kind of this constraint.
    pub fn kind(&self) -> ConstraintKind {
        self.kind
    }

    /// The affine expression constrained by this constraint.
    pub fn expr(&self) -> &LinExpr {
        &self.expr
    }

    /// Mutable access to the affine expression.
    pub fn expr_mut(&mut self) -> &mut LinExpr {
        &mut self.expr
    }

    /// The modulus (only meaningful for `Mod` constraints, 0 otherwise).
    pub fn modulus(&self) -> i64 {
        self.modulus
    }

    /// Number of variable columns the constraint ranges over.
    pub fn n_vars(&self) -> usize {
        self.expr.n_vars()
    }

    /// Whether the constraint involves variable column `col`.
    pub fn uses(&self, col: usize) -> bool {
        self.expr.coeff(col) != 0
    }

    /// Evaluates the constraint for a concrete assignment of all columns.
    ///
    /// The evaluation is widened to `i128` (which any sum of `i64`·`i64`
    /// products over the inline width fits) and, should even that overflow,
    /// a degraded answer is noted and the constraint conservatively reports
    /// `false`.
    pub fn holds(&self, values: &[i64]) -> bool {
        let v = match self.expr.try_eval_wide(values) {
            Ok(v) => v,
            Err(ArithOverflow) => {
                note_arith_overflow();
                return false;
            }
        };
        match self.kind {
            ConstraintKind::Eq => v == 0,
            ConstraintKind::Geq => v >= 0,
            ConstraintKind::Mod => v.rem_euclid(self.modulus as i128) == 0,
        }
    }

    /// Returns `Some(true)` / `Some(false)` if the constraint is trivially
    /// true/false (constant expression), `None` otherwise.
    pub fn trivial(&self) -> Option<bool> {
        if !self.expr.is_constant() {
            return None;
        }
        let c = self.expr.constant();
        Some(match self.kind {
            ConstraintKind::Eq => c == 0,
            ConstraintKind::Geq => c >= 0,
            ConstraintKind::Mod => c.rem_euclid(self.modulus) == 0,
        })
    }

    /// Normalises the constraint into its canonical structural form:
    ///
    /// * equalities are divided by the gcd of all coefficients (an equality
    ///   with a non-divisible constant is left intact — the feasibility test
    ///   reports it as unsatisfiable) and *sign-canonicalised*: since
    ///   `e = 0 ⇔ −e = 0`, the representative with a positive leading
    ///   coefficient is chosen, so `x − y = 0` and `y − x = 0` normalise to
    ///   the same constraint;
    /// * inequalities are divided by the gcd of the *variable* coefficients
    ///   with the constant rounded down (integer tightening);
    /// * congruences reduce their coefficients into `[0, m)` and divide by
    ///   the shared gcd with the modulus (which also fixes their sign).
    ///
    /// Normalisation is idempotent; [`Conjunct::simplify`](crate::Conjunct)
    /// applies it to every constraint, which is what makes the structural
    /// hashes of differently-written but syntactically equivalent conjuncts
    /// coincide.
    pub fn normalized(&self) -> Constraint {
        match self.kind {
            ConstraintKind::Eq => {
                let mut e = self.expr.clone();
                let g = e.coeff_gcd();
                if g > 1 && e.constant() % g == 0 {
                    e.exact_div_assign(g);
                }
                if e.leading_value() < 0 {
                    // Sign canonicalisation is skipped when negating would
                    // overflow (an `i64::MIN` entry): a missed canonical form
                    // only costs a memo hit, a wrapped one would poison the
                    // structural hash.
                    let _ = e.try_scale_assign(-1);
                }
                Constraint::eq(e)
            }
            ConstraintKind::Geq => {
                let g = self.expr.coeff_gcd();
                if g > 1 {
                    let mut e = self.expr.clone();
                    e.tighten_div_assign(g);
                    Constraint::geq(e)
                } else {
                    self.clone()
                }
            }
            ConstraintKind::Mod => {
                let m = self.modulus;
                let mut e = self.expr.clone();
                e.rem_euclid_assign(m);
                // If everything vanished the congruence is trivially true and
                // a later simplification pass drops it; keep it syntactically
                // valid here.
                let g = gcd(e.coeff_gcd(), gcd(e.constant(), m));
                if g > 1 && m / g >= 2 {
                    e.exact_div_assign(g);
                    Constraint::congruent(e, m / g)
                } else if g > 1 && m / g == 1 {
                    // Congruence modulo 1 is trivially true.
                    Constraint::geq(LinExpr::constant_expr(e.n_vars(), 0))
                } else {
                    Constraint::congruent(e, m)
                }
            }
        }
    }

    /// The negation of this constraint, as a disjunction of constraints.
    ///
    /// * `¬(e ≥ 0)` is `−e − 1 ≥ 0`;
    /// * `¬(e = 0)` is `e − 1 ≥ 0  ∨  −e − 1 ≥ 0`;
    /// * `¬(e ≡ 0 mod m)` is `⋁_{r=1}^{m−1} (e − r) ≡ 0 (mod m)`.
    pub fn negated(&self) -> Vec<Constraint> {
        match self.try_negated() {
            Ok(cs) => cs,
            Err(ArithOverflow) => {
                // Negating would overflow `i64` (an `i64::MIN` coefficient or
                // saturated constant).  Fall back to the trivially-true
                // constraint — the negation is *weakened*, which can only
                // enlarge a difference (spurious inequivalence direction) —
                // and note the degraded answer so the enclosing verdict
                // becomes inconclusive rather than asserting anything.
                note_arith_overflow();
                vec![Constraint::geq(LinExpr::constant_expr(
                    self.expr.n_vars(),
                    0,
                ))]
            }
        }
    }

    fn try_negated(&self) -> Result<Vec<Constraint>, ArithOverflow> {
        let lowered = |e: &LinExpr, by: i64| -> Result<LinExpr, ArithOverflow> {
            let mut e = e.clone();
            let c = e.constant().checked_sub(by).ok_or(ArithOverflow)?;
            e.set_constant(c);
            Ok(e)
        };
        Ok(match self.kind {
            ConstraintKind::Geq => vec![Constraint::geq(lowered(&self.expr.try_scale(-1)?, 1)?)],
            ConstraintKind::Eq => vec![
                Constraint::geq(lowered(&self.expr, 1)?),
                Constraint::geq(lowered(&self.expr.try_scale(-1)?, 1)?),
            ],
            ConstraintKind::Mod => (1..self.modulus)
                .map(|r| Ok(Constraint::congruent(lowered(&self.expr, r)?, self.modulus)))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Returns a copy with `extra` zero columns appended.
    pub fn extended(&self, extra: usize) -> Constraint {
        Constraint {
            kind: self.kind,
            expr: self.expr.extended(extra),
            modulus: self.modulus,
        }
    }

    /// Returns a copy with columns remapped (see [`LinExpr::remapped`]).
    pub fn remapped(&self, map: &[usize], new_len: usize) -> Constraint {
        Constraint {
            kind: self.kind,
            expr: self.expr.remapped(map, new_len),
            modulus: self.modulus,
        }
    }

    /// Returns a copy with unused column `col` removed.
    pub fn without_col(&self, col: usize) -> Constraint {
        Constraint {
            kind: self.kind,
            expr: self.expr.without_col(col),
            modulus: self.modulus,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(coeffs: &[i64], c: i64) -> LinExpr {
        LinExpr::from_coeffs(coeffs.to_vec(), c)
    }

    #[test]
    fn holds_checks_each_kind() {
        let eq = Constraint::eq(e(&[1, -1], 0)); // x = y
        assert!(eq.holds(&[3, 3]));
        assert!(!eq.holds(&[3, 4]));
        let ge = Constraint::geq(e(&[1, 0], -2)); // x >= 2
        assert!(ge.holds(&[2, 0]));
        assert!(!ge.holds(&[1, 0]));
        let md = Constraint::congruent(e(&[1, 0], 0), 2); // x even
        assert!(md.holds(&[4, 1]));
        assert!(!md.holds(&[5, 1]));
        assert!(md.holds(&[-2, 0]));
    }

    #[test]
    fn trivial_detection() {
        assert_eq!(Constraint::eq(e(&[0, 0], 0)).trivial(), Some(true));
        assert_eq!(Constraint::eq(e(&[0, 0], 3)).trivial(), Some(false));
        assert_eq!(Constraint::geq(e(&[0], -1)).trivial(), Some(false));
        assert_eq!(Constraint::geq(e(&[1], -1)).trivial(), None);
        assert_eq!(Constraint::congruent(e(&[0], 4), 2).trivial(), Some(true));
        assert_eq!(Constraint::congruent(e(&[0], 3), 2).trivial(), Some(false));
    }

    #[test]
    fn normalization_divides_by_gcd() {
        // 2x - 4 = 0  ->  x - 2 = 0
        let c = Constraint::eq(e(&[2], -4)).normalized();
        assert_eq!(c.expr().coeffs(), &[1]);
        assert_eq!(c.expr().constant(), -2);
        // 2x - 3 >= 0 -> x - 2 >= 0 (integer tightening: x >= 3/2 -> x >= 2)
        let c = Constraint::geq(e(&[2], -3)).normalized();
        assert_eq!(c.expr().coeffs(), &[1]);
        assert_eq!(c.expr().constant(), -2);
        // 2x - 3 = 0 has no integer solution; normalization must not mangle it
        let c = Constraint::eq(e(&[2], -3)).normalized();
        assert_eq!(c.expr().coeffs(), &[2]);
    }

    #[test]
    fn normalization_of_congruence() {
        // 4x + 6 ≡ 0 mod 2 is trivially x*0 ≡ 0: reduces to a true constraint
        let c = Constraint::congruent(e(&[4], 6), 2).normalized();
        assert_eq!(c.trivial(), Some(true));
        // 2x ≡ 0 (mod 4)  ->  x ≡ 0 (mod 2)
        let c = Constraint::congruent(e(&[2], 0), 4).normalized();
        assert_eq!(c.kind(), ConstraintKind::Mod);
        assert_eq!(c.modulus(), 2);
        assert_eq!(c.expr().coeffs(), &[1]);
    }

    #[test]
    fn negation_of_inequality() {
        // not(x - 2 >= 0)  =>  -x + 1 >= 0   (x <= 1)
        let neg = Constraint::geq(e(&[1], -2)).negated();
        assert_eq!(neg.len(), 1);
        assert_eq!(neg[0].expr().coeffs(), &[-1]);
        assert_eq!(neg[0].expr().constant(), 1);
    }

    #[test]
    fn negation_of_equality() {
        let neg = Constraint::eq(e(&[1], 0)).negated();
        assert_eq!(neg.len(), 2);
        // x - 1 >= 0 or -x - 1 >= 0
        assert!(neg[0].holds(&[1]));
        assert!(!neg[0].holds(&[0]));
        assert!(neg[1].holds(&[-1]));
    }

    #[test]
    fn negation_of_congruence() {
        let neg = Constraint::congruent(e(&[1], 0), 3).negated();
        assert_eq!(neg.len(), 2);
        // x ≡ 1 (mod 3) or x ≡ 2 (mod 3)
        assert!(neg.iter().any(|c| c.holds(&[4])));
        assert!(neg.iter().any(|c| c.holds(&[5])));
        assert!(!neg.iter().any(|c| c.holds(&[6])));
    }

    #[test]
    fn uses_and_remap() {
        let c = Constraint::geq(e(&[1, 0, -2], 5));
        assert!(c.uses(0));
        assert!(!c.uses(1));
        let r = c.remapped(&[2, 1, 0], 3);
        assert_eq!(r.expr().coeffs(), &[-2, 0, 1]);
    }
}
