//! Exact integer feasibility of a conjunction of affine constraints.
//!
//! This module implements the decision procedure of the Omega test
//! (W. Pugh, *The Omega test: a fast and practical integer programming
//! algorithm for dependence analysis*, 1991) specialised to what the
//! equivalence checker needs: given a list of equalities and inequalities
//! over `n` integer variables (all existentially quantified), decide whether
//! an integer solution exists.
//!
//! The procedure:
//!
//! 1. **Equality elimination.**  Equalities are normalised by their gcd (a
//!    non-divisible constant proves infeasibility) and eliminated one by one:
//!    a variable with a unit coefficient is substituted away; otherwise
//!    Pugh's *mod-reduction* introduces a fresh variable `σ` and an auxiliary
//!    equality with a guaranteed unit coefficient, shrinking coefficients
//!    until substitution applies.
//! 2. **Inequality elimination (Fourier–Motzkin with shadows).**  Variables
//!    are eliminated pairwise.  When either side of every bound pair has a
//!    unit coefficient the elimination is exact.  Otherwise the *real shadow*
//!    (unsatisfiable ⇒ unsatisfiable) and the *dark shadow*
//!    (satisfiable ⇒ satisfiable) are tried, and the remaining gap is closed
//!    by *splinters*: a finite case split on `a·x + f = j` that reduces to the
//!    equality case.
//!
//! The entry points are [`is_feasible`] (a yes/no oracle) and [`find_model`]
//! (model extraction: a concrete integer point satisfying the system).  A
//! work limit bounds the (rare) exponential blow-up; when it is hit the
//! procedure conservatively reports "feasible", which is the sound direction
//! for the equivalence checker (it can only cause a spurious *inequivalence*
//! verdict, never a spurious equivalence).
//!
//! ## Model extraction
//!
//! [`find_model`] runs the same elimination order as the decision procedure
//! and reconstructs a witness point by back-substitution:
//!
//! * every equality eliminated by substitution records `x := value(rest)`;
//!   once the fully-eliminated system is solved the recorded substitutions
//!   are replayed in reverse to recover the eliminated coordinates;
//! * a Fourier–Motzkin step first solves the projected problem, then places
//!   the eliminated variable inside `[max lower bound, min upper bound]`
//!   evaluated at the sub-model.  For *exact* eliminations the interval is
//!   guaranteed to contain an integer; for inexact ones the *dark shadow* is
//!   used (Pugh's theorem guarantees an integer in the interval at any dark
//!   shadow point), and when only the gap remains, each *splinter* carries
//!   the full original system plus the splintering equality, so a splinter
//!   model is already a model of the original problem;
//! * `Mod` constraints are lowered to equalities with fresh columns up front,
//!   and columns introduced during the run (congruence witnesses, σ variables
//!   of the mod-reduction) are truncated away at the end.

use crate::arith::{narrow, ArithOverflow};
use crate::constraint::{Constraint, ConstraintKind};
use crate::events::note_arith_overflow;
use crate::linexpr::{floor_div, mod_hat, LinExpr};

/// Maximum number of elimination steps before giving up and conservatively
/// reporting "feasible".  Generous for the problem sizes the checker builds.
const WORK_LIMIT: usize = 200_000;

/// Outcome of a feasibility query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Feasibility {
    /// An integer solution exists.
    Feasible,
    /// No integer solution exists.
    Infeasible,
    /// The work limit was exceeded; treat as (possibly) feasible.
    Unknown,
    /// Coefficient arithmetic overflowed `i64` even after `i128` widening;
    /// treat as (possibly) feasible.  A degraded answer is recorded in the
    /// [`crate::SolverEvents`] whenever this is produced, so the checker
    /// downgrades the enclosing verdict to inconclusive.
    Overflow,
}

impl Feasibility {
    /// Collapses `Unknown` and `Overflow` into the conservative `true`.
    pub(crate) fn as_bool(self) -> bool {
        !matches!(self, Feasibility::Infeasible)
    }
}

/// Decides integer feasibility of the conjunction of `constraints` over
/// `n_vars` variables (all of them existential for the purposes of the test).
///
/// `Mod` constraints are lowered to equalities with a fresh variable before
/// the elimination starts.
pub(crate) fn is_feasible(constraints: &[Constraint], n_vars: usize) -> Feasibility {
    let mut p = Problem::new(n_vars);
    for c in constraints {
        if !p.add_constraint(c) {
            return Feasibility::Infeasible;
        }
    }
    let mut work = 0usize;
    match p.solve(&mut work) {
        Outcome::Sat(_) => Feasibility::Feasible,
        Outcome::Unsat => Feasibility::Infeasible,
        Outcome::Unknown => Feasibility::Unknown,
        Outcome::Overflow => {
            note_arith_overflow();
            Feasibility::Overflow
        }
    }
}

/// Outcome of a model-extraction query (see [`find_model`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ModelOutcome {
    /// A satisfying assignment of the first `n_vars` columns.
    Model(Vec<i64>),
    /// No integer solution exists.
    Infeasible,
    /// The work limit was exceeded (or a defensive invariant failed); no
    /// model could be produced.  Treat as "possibly feasible, no witness".
    Unknown,
}

/// Finds a concrete integer point satisfying the conjunction of
/// `constraints` over `n_vars` variables, running the same elimination order
/// as [`is_feasible`] and back-substituting along it (see the module docs).
///
/// The returned vector assigns the original `n_vars` columns; auxiliary
/// columns introduced for congruences and mod-reductions are dropped.
pub(crate) fn find_model(constraints: &[Constraint], n_vars: usize) -> ModelOutcome {
    let mut p = Problem::new(n_vars);
    p.want_model = true;
    for c in constraints {
        if !p.add_constraint(c) {
            return ModelOutcome::Infeasible;
        }
    }
    let mut work = 0usize;
    match p.solve(&mut work) {
        Outcome::Sat(Some(mut m)) => {
            m.truncate(n_vars);
            debug_assert!(
                constraints.iter().all(|c| c.holds(&m)),
                "find_model produced a point violating its constraints"
            );
            ModelOutcome::Model(m)
        }
        Outcome::Sat(None) => ModelOutcome::Unknown,
        Outcome::Unsat => ModelOutcome::Infeasible,
        Outcome::Unknown => ModelOutcome::Unknown,
        Outcome::Overflow => {
            note_arith_overflow();
            ModelOutcome::Unknown
        }
    }
}

/// Result of one (sub-)problem solve: satisfiable (with a model when the
/// problem was asked for one), unsatisfiable, given up, or overflowed.
enum Outcome {
    Sat(Option<Vec<i64>>),
    Unsat,
    Unknown,
    /// Checked arithmetic overflowed `i64` even with `i128` intermediates.
    Overflow,
}

/// Internal solver state: equalities and inequalities as raw linear
/// expressions (`= 0` / `≥ 0`) over a growable set of columns.
struct Problem {
    n_vars: usize,
    eqs: Vec<LinExpr>,
    geqs: Vec<LinExpr>,
    /// Whether `solve` should reconstruct a satisfying point.  Off on the
    /// checker's hot path (`is_feasible`), so the decision procedure pays
    /// nothing for the machinery.
    want_model: bool,
}

impl Problem {
    fn new(n_vars: usize) -> Self {
        Problem {
            n_vars,
            eqs: Vec::new(),
            geqs: Vec::new(),
            want_model: false,
        }
    }

    fn sub(&self) -> Self {
        let mut p = Problem::new(self.n_vars);
        p.want_model = self.want_model;
        p
    }

    /// Adds a constraint; returns `false` if it is trivially unsatisfiable.
    fn add_constraint(&mut self, c: &Constraint) -> bool {
        let c = c.normalized();
        match c.trivial() {
            Some(true) => return true,
            Some(false) => return false,
            None => {}
        }
        match c.kind() {
            ConstraintKind::Eq => self.eqs.push(self.fit(c.expr())),
            ConstraintKind::Geq => self.geqs.push(self.fit(c.expr())),
            ConstraintKind::Mod => {
                // f ≡ 0 (mod m)  ⇔  ∃ w : f − m·w = 0
                let w = self.add_var();
                let mut e = self.fit(c.expr());
                e.set_coeff(w, -c.modulus());
                self.eqs.push(e);
            }
        }
        true
    }

    /// Pads an expression with zero columns up to the current variable count.
    fn fit(&self, e: &LinExpr) -> LinExpr {
        if e.n_vars() == self.n_vars {
            e.clone()
        } else {
            assert!(e.n_vars() < self.n_vars);
            e.extended(self.n_vars - e.n_vars())
        }
    }

    /// Adds a fresh variable column, padding all stored expressions.
    fn add_var(&mut self) -> usize {
        let col = self.n_vars;
        self.n_vars += 1;
        for e in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
            *e = e.extended(1);
        }
        col
    }

    fn solve(&mut self, work: &mut usize) -> Outcome {
        // Substitutions recorded by the equality elimination, in elimination
        // order: `column := value(other columns)`.  Only filled when a model
        // was requested; replayed in reverse once the residual inequality
        // system has been solved, so every eliminated coordinate is recovered
        // from coordinates eliminated later (or surviving to the end).
        let mut subs: Vec<(usize, LinExpr)> = Vec::new();
        loop {
            *work += 1;
            if *work > WORK_LIMIT {
                return Outcome::Unknown;
            }
            if !self.normalize() {
                return Outcome::Unsat;
            }
            if let Some(eq_idx) = self.pick_equality() {
                match self.eliminate_equality(eq_idx, &mut subs) {
                    Ok(true) => continue,
                    Ok(false) => return Outcome::Unsat,
                    Err(ArithOverflow) => return Outcome::Overflow,
                }
            }
            // Only inequalities remain.
            let mut outcome = self.solve_inequalities(work);
            if let Outcome::Sat(Some(model)) = &mut outcome {
                debug_assert_eq!(model.len(), self.n_vars);
                for (col, value) in subs.iter().rev() {
                    // `value` was recorded before later columns existed; it
                    // cannot use them, so evaluating over its own prefix of
                    // the model is exact.
                    let prefix = &model[..value.n_vars()];
                    model[*col] = match value.try_eval(prefix) {
                        Ok(v) => v,
                        Err(ArithOverflow) => return Outcome::Overflow,
                    };
                }
            }
            return outcome;
        }
    }

    /// Normalises all stored expressions; returns `false` on a trivially
    /// unsatisfiable constraint.
    fn normalize(&mut self) -> bool {
        let mut i = 0;
        while i < self.eqs.len() {
            let e = &self.eqs[i];
            let g = e.coeff_gcd();
            if g == 0 {
                if e.constant() != 0 {
                    return false;
                }
                self.eqs.swap_remove(i);
                continue;
            }
            if e.constant() % g != 0 {
                return false;
            }
            if g > 1 {
                self.eqs[i] = e.exact_div(g);
            }
            i += 1;
        }
        let mut i = 0;
        while i < self.geqs.len() {
            let e = &self.geqs[i];
            let g = e.coeff_gcd();
            if g == 0 {
                if e.constant() < 0 {
                    return false;
                }
                self.geqs.swap_remove(i);
                continue;
            }
            if g > 1 {
                let mut coeffs = Vec::with_capacity(e.n_vars());
                for c in 0..e.n_vars() {
                    coeffs.push(e.coeff(c) / g);
                }
                self.geqs[i] = LinExpr::from_coeffs(coeffs, floor_div(e.constant(), g));
            }
            i += 1;
        }
        // Drop duplicate inequalities (cheap syntactic dedup keeps FM small).
        self.geqs
            .sort_by(|a, b| (a.coeffs(), a.constant()).cmp(&(b.coeffs(), b.constant())));
        self.geqs.dedup();
        true
    }

    fn pick_equality(&self) -> Option<usize> {
        if self.eqs.is_empty() {
            None
        } else {
            // Prefer an equality that has a unit coefficient: cheapest.
            for (i, e) in self.eqs.iter().enumerate() {
                if (0..self.n_vars).any(|c| e.coeff(c).unsigned_abs() == 1) {
                    return Some(i);
                }
            }
            Some(0)
        }
    }

    /// Eliminates one equality; returns `Ok(false)` if infeasibility is
    /// detected and `Err` when checked arithmetic overflowed.  When a
    /// variable is substituted away, the substitution is recorded in `subs`
    /// (model reconstruction) if a model was requested.
    fn eliminate_equality(
        &mut self,
        idx: usize,
        subs: &mut Vec<(usize, LinExpr)>,
    ) -> Result<bool, ArithOverflow> {
        let e = self.eqs.swap_remove(idx);
        // Find a unit-coefficient variable.
        if let Some(col) = (0..self.n_vars).find(|&c| e.coeff(c).unsigned_abs() == 1) {
            let a = e.coeff(col);
            // a*x + rest = 0  =>  x = -rest / a  (a = ±1)
            let mut value = e.clone();
            value.set_coeff(col, 0);
            value.try_scale_assign(-a)?; // since a*a = 1
            for f in self.eqs.iter_mut().chain(self.geqs.iter_mut()) {
                f.try_substitute_assign(col, &value)?;
            }
            if self.want_model {
                subs.push((col, value));
            }
            return Ok(true);
        }
        // No unit coefficient: Pugh's mod-reduction.
        let col = (0..self.n_vars)
            .filter(|&c| e.coeff(c) != 0)
            .min_by_key(|&c| e.coeff(c).unsigned_abs())
            .expect("non-trivial equality");
        let ak = e.coeff(col);
        let m = ak
            .checked_abs()
            .and_then(|a| a.checked_add(1))
            .ok_or(ArithOverflow)?;
        let sigma = self.add_var();
        let e = e.extended(1);
        // Build:  Σ mod̂(aᵢ, m)·xᵢ + mod̂(c, m) − m·σ = 0
        let mut aux = LinExpr::zero(self.n_vars);
        for c in 0..self.n_vars - 1 {
            aux.set_coeff(c, mod_hat(e.coeff(c), m));
        }
        aux.set_coeff(sigma, -m);
        aux.set_constant(mod_hat(e.constant(), m));
        // mod̂(ak, m) is ∓1, so `aux` has a unit coefficient on `col`:
        debug_assert_eq!(aux.coeff(col).unsigned_abs(), 1);
        self.eqs.push(e);
        self.eqs.push(aux);
        Ok(true)
    }

    /// Decides feasibility when only inequalities remain; reconstructs a
    /// model when one was requested.
    fn solve_inequalities(&mut self, work: &mut usize) -> Outcome {
        // Find a variable that is still used.
        let used: Vec<usize> = (0..self.n_vars)
            .filter(|&c| self.geqs.iter().any(|e| e.coeff(c) != 0))
            .collect();
        if used.is_empty() {
            // All constraints are constants; normalize() already removed the
            // satisfied ones and reported the violated ones.
            return if self.geqs.iter().all(|e| e.constant() >= 0) {
                Outcome::Sat(self.want_model.then(|| vec![0; self.n_vars]))
            } else {
                Outcome::Unsat
            };
        }

        // Choose the variable whose elimination is cheapest, preferring exact
        // ones (unit coefficients on one side of every bound pair).
        let mut best: Option<(bool, usize, usize)> = None; // (exact, cost, col)
        for &col in &used {
            let lowers = self.geqs.iter().filter(|e| e.coeff(col) > 0).count();
            let uppers = self.geqs.iter().filter(|e| e.coeff(col) < 0).count();
            if lowers == 0 || uppers == 0 {
                // Unbounded on one side: dropping its constraints is exact and
                // free; do it immediately.  For a model, the dropped one-sided
                // bounds still pin the admissible values of `col`, so they are
                // kept aside and `col` is placed at the tightest bound once
                // the rest of the system has a point.  The clone only happens
                // when a model was requested — `is_feasible` stays free.
                let one_sided: Vec<LinExpr> = if self.want_model {
                    self.geqs
                        .iter()
                        .filter(|e| e.coeff(col) != 0)
                        .cloned()
                        .collect()
                } else {
                    Vec::new()
                };
                self.geqs.retain(|e| e.coeff(col) == 0);
                let mut outcome = self.solve_inequalities(work);
                if let Outcome::Sat(Some(model)) = &mut outcome {
                    let bound = if one_sided.iter().any(|e| e.coeff(col) > 0) {
                        lower_bound(&one_sided, col, model)
                    } else {
                        upper_bound(&one_sided, col, model)
                    };
                    match bound {
                        Ok(v) => model[col] = v,
                        Err(ArithOverflow) => return Outcome::Overflow,
                    }
                }
                return outcome;
            }
            let exact = self.geqs.iter().all(|e| e.coeff(col) >= -1)
                || self.geqs.iter().all(|e| e.coeff(col) <= 1);
            let cost = lowers * uppers;
            let candidate = (exact, cost, col);
            best = Some(match best {
                None => candidate,
                Some(b) => {
                    // Prefer exact, then lower cost.
                    if (candidate.0 && !b.0) || (candidate.0 == b.0 && candidate.1 < b.1) {
                        candidate
                    } else {
                        b
                    }
                }
            });
        }
        let (exact, _cost, col) = best.expect("at least one used variable");

        let lowers: Vec<LinExpr> = self
            .geqs
            .iter()
            .filter(|e| e.coeff(col) > 0)
            .cloned()
            .collect();
        let uppers: Vec<LinExpr> = self
            .geqs
            .iter()
            .filter(|e| e.coeff(col) < 0)
            .cloned()
            .collect();
        let rest: Vec<LinExpr> = self
            .geqs
            .iter()
            .filter(|e| e.coeff(col) == 0)
            .cloned()
            .collect();

        // Build the two shadows.
        let mut real = self.sub();
        let mut dark = self.sub();
        real.geqs.extend(rest.iter().cloned());
        dark.geqs.extend(rest.iter().cloned());
        for lo in &lowers {
            let a = lo.coeff(col);
            for up in &uppers {
                // `up.coeff(col)` is negative; its negation only fails for
                // i64::MIN, which is reported as overflow.
                let Some(b) = up.coeff(col).checked_neg() else {
                    return Outcome::Overflow;
                };
                // a·x + f ≥ 0  ∧  −b·x + g ≥ 0   ⇒ (reals)  a·g + b·f ≥ 0
                let mut combined = up.clone();
                if combined.try_scale_assign(a).is_err()
                    || combined.try_add_scaled_assign(lo, b).is_err()
                {
                    return Outcome::Overflow;
                }
                debug_assert_eq!(combined.coeff(col), 0);
                real.geqs.push(combined.clone());
                let mut darkc = combined;
                // The dark-shadow margin (a−1)(b−1) is widened to i128; its
                // subtraction from the constant must narrow to i64.
                let margin = (a as i128 - 1) * (b as i128 - 1);
                match narrow(darkc.constant() as i128 - margin) {
                    Ok(c) => darkc.set_constant(c),
                    Err(ArithOverflow) => return Outcome::Overflow,
                }
                dark.geqs.push(darkc);
            }
        }

        // Places `col` inside [max lower, min upper] at the given sub-model.
        // Exact eliminations and dark-shadow points guarantee the interval
        // contains an integer; the defensive fallback covers a violated
        // invariant without producing a wrong model.
        let place = |mut model: Vec<i64>, n_vars: usize| -> Outcome {
            model.truncate(n_vars);
            debug_assert_eq!(model.len(), n_vars);
            let (lo, hi) = match (
                lower_bound(&lowers, col, &model),
                upper_bound(&uppers, col, &model),
            ) {
                (Ok(lo), Ok(hi)) => (lo, hi),
                _ => return Outcome::Overflow,
            };
            if lo > hi {
                debug_assert!(false, "model interval for column {col} is empty");
                return Outcome::Unknown;
            }
            model[col] = lo;
            Outcome::Sat(Some(model))
        };

        *work += lowers.len() * uppers.len();
        let real_result = real.solve(work);
        if matches!(real_result, Outcome::Unsat) {
            return Outcome::Unsat;
        }
        if exact {
            // Real and dark shadow coincide: the elimination is exact.
            return match real_result {
                Outcome::Sat(Some(m)) => place(m, self.n_vars),
                other => other,
            };
        }
        match dark.solve(work) {
            Outcome::Sat(Some(m)) => return place(m, self.n_vars),
            Outcome::Sat(None) => return Outcome::Sat(None),
            Outcome::Unknown => return Outcome::Unknown,
            // An undecided dark shadow leaves the sat direction open; the
            // splinters below only cover the real/dark gap, so give up.
            Outcome::Overflow => return Outcome::Overflow,
            Outcome::Unsat => {}
        }

        // Gap between real and dark shadow: splinter on each lower bound.
        // Every splinter sub-problem carries the complete inequality system
        // plus the splintering equality, so its model (truncated to our
        // column count) is directly a model of this problem.
        // Widened to i128: coefficients can sit near i64::MAX, where both the
        // negation and the a·bmax product would overflow the narrow type.
        let bmax = uppers
            .iter()
            .map(|e| -(e.coeff(col) as i128))
            .max()
            .unwrap_or(1);
        for lo in &lowers {
            let a = lo.coeff(col) as i128;
            let max_j = (a * bmax - a - bmax) / bmax;
            let mut j = 0i64;
            while (j as i128) <= max_j.max(0) {
                *work += 1;
                if *work > WORK_LIMIT {
                    return Outcome::Unknown;
                }
                let mut sub = self.sub();
                sub.geqs = self.geqs.clone();
                // a·x + f = j
                let mut eq = lo.clone();
                match eq.constant().checked_sub(j) {
                    Some(c) => eq.set_constant(c),
                    None => return Outcome::Overflow,
                }
                sub.eqs.push(eq);
                match sub.solve(work) {
                    Outcome::Sat(Some(mut m)) => {
                        m.truncate(self.n_vars);
                        return Outcome::Sat(Some(m));
                    }
                    Outcome::Sat(None) => return Outcome::Sat(None),
                    Outcome::Unknown => return Outcome::Unknown,
                    Outcome::Overflow => return Outcome::Overflow,
                    Outcome::Unsat => {}
                }
                j += 1;
            }
        }
        Outcome::Unsat
    }
}

/// `max_i ⌈−fᵢ(model) / aᵢ⌉` over the lower bounds `aᵢ·x + fᵢ ≥ 0` of
/// column `col` (`i64::MIN` when there are none).  The contribution of `col`
/// itself is excluded from the evaluation.
///
/// Evaluation runs in `i128` (model coordinates reconstructed by
/// back-substitution can be large); only the final bound must narrow.  Model
/// extraction is never on the bench-critical `is_feasible` path, so this is
/// always checked.
fn lower_bound(bounds: &[LinExpr], col: usize, model: &[i64]) -> Result<i64, ArithOverflow> {
    let mut best = i64::MIN;
    for e in bounds.iter().filter(|e| e.coeff(col) > 0) {
        let a = e.coeff(col) as i128;
        let f = e
            .try_eval_wide(model)?
            .checked_sub(a * model[col] as i128)
            .ok_or(ArithOverflow)?;
        // a·x + f ≥ 0  ⇒  x ≥ ⌈−f/a⌉ = −⌊f/a⌋
        best = best.max(narrow(-f.div_euclid(a))?);
    }
    Ok(best)
}

/// `min_i ⌊gᵢ(model) / bᵢ⌋` over the upper bounds `−bᵢ·x + gᵢ ≥ 0` of
/// column `col` (`i64::MAX` when there are none).
fn upper_bound(bounds: &[LinExpr], col: usize, model: &[i64]) -> Result<i64, ArithOverflow> {
    let mut best = i64::MAX;
    for e in bounds.iter().filter(|e| e.coeff(col) < 0) {
        let b = -(e.coeff(col) as i128);
        let g = e
            .try_eval_wide(model)?
            .checked_add(b * model[col] as i128)
            .ok_or(ArithOverflow)?;
        best = best.min(narrow(g.div_euclid(b))?);
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(coeffs: &[i64], c: i64) -> LinExpr {
        LinExpr::from_coeffs(coeffs.to_vec(), c)
    }

    fn feasible(cs: &[Constraint], n: usize) -> bool {
        is_feasible(cs, n).as_bool()
    }

    #[test]
    fn empty_constraint_set_is_feasible() {
        assert!(feasible(&[], 0));
        assert!(feasible(&[], 3));
    }

    #[test]
    fn simple_bounds() {
        // 0 <= x <= 10
        let cs = vec![Constraint::geq(le(&[1], 0)), Constraint::geq(le(&[-1], 10))];
        assert!(feasible(&cs, 1));
        // 5 <= x <= 3  is empty
        let cs = vec![Constraint::geq(le(&[1], -5)), Constraint::geq(le(&[-1], 3))];
        assert!(!feasible(&cs, 1));
    }

    #[test]
    fn equality_with_gcd_violation() {
        // 2x = 5 has no integer solution
        let cs = vec![Constraint::eq(le(&[2], -5))];
        assert!(!feasible(&cs, 1));
        // 2x = 6 does
        let cs = vec![Constraint::eq(le(&[2], -6))];
        assert!(feasible(&cs, 1));
    }

    #[test]
    fn two_var_system() {
        // x = 2y, 1 <= x <= 3, y >= 1  =>  x = 2, y = 1
        let cs = vec![
            Constraint::eq(le(&[1, -2], 0)),
            Constraint::geq(le(&[1, 0], -1)),
            Constraint::geq(le(&[-1, 0], 3)),
            Constraint::geq(le(&[0, 1], -1)),
        ];
        assert!(feasible(&cs, 2));
        // x = 2y, 3 <= x <= 3  =>  x=3 odd, infeasible
        let cs = vec![
            Constraint::eq(le(&[1, -2], 0)),
            Constraint::geq(le(&[1, 0], -3)),
            Constraint::geq(le(&[-1, 0], 3)),
        ];
        assert!(!feasible(&cs, 2));
    }

    #[test]
    fn congruence_constraints() {
        // x even and 5 <= x <= 5  => infeasible
        let cs = vec![
            Constraint::congruent(le(&[1], 0), 2),
            Constraint::geq(le(&[1], -5)),
            Constraint::geq(le(&[-1], 5)),
        ];
        assert!(!feasible(&cs, 1));
        // x even and 4 <= x <= 5 => x = 4
        let cs = vec![
            Constraint::congruent(le(&[1], 0), 2),
            Constraint::geq(le(&[1], -4)),
            Constraint::geq(le(&[-1], 5)),
        ];
        assert!(feasible(&cs, 1));
    }

    #[test]
    fn classic_omega_gap_example() {
        // 3 <= 2x <= 5 has no integer solution but a rational one (x = 2 is
        // outside: 2*2=4 is inside! careful) — use 2x = between 3 and 3:
        // 3 <= 2x <= 3 -> infeasible.
        let cs = vec![Constraint::geq(le(&[2], -3)), Constraint::geq(le(&[-2], 3))];
        assert!(!feasible(&cs, 1));
        // Pugh's classic dark-shadow example: the rational region
        // 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4 is non-empty but contains
        // no integer point; only the splinter phase can prove that.
        let cs = vec![
            Constraint::geq(le(&[11, 13], -27)),
            Constraint::geq(le(&[-11, -13], 45)),
            Constraint::geq(le(&[7, -9], 10)),
            Constraint::geq(le(&[-7, 9], 4)),
        ];
        assert!(!feasible(&cs, 2));
        // Relaxing the last bound to 7x - 9y <= 10 admits (x, y) = (4, 2):
        // 11*4 + 13*2 = 70 is outside, so widen the first band too.
        let cs = vec![
            Constraint::geq(le(&[11, 13], -27)),
            Constraint::geq(le(&[-11, -13], 70)),
            Constraint::geq(le(&[7, -9], 10)),
            Constraint::geq(le(&[-7, 9], 10)),
        ];
        assert!(feasible(&cs, 2));
    }

    #[test]
    fn pugh_dark_shadow_infeasible_example() {
        // x and y such that 2y = x (x even), 2z = x + 1 (x odd): contradiction.
        let cs = vec![
            Constraint::eq(le(&[1, -2, 0], 0)),
            Constraint::eq(le(&[1, 0, -2], 1)),
        ];
        assert!(!feasible(&cs, 3));
    }

    #[test]
    fn strided_intersection() {
        // x ≡ 0 mod 2, x ≡ 0 mod 3, 1 <= x <= 5  => infeasible (lcm 6)
        let cs = vec![
            Constraint::congruent(le(&[1], 0), 2),
            Constraint::congruent(le(&[1], 0), 3),
            Constraint::geq(le(&[1], -1)),
            Constraint::geq(le(&[-1], 5)),
        ];
        assert!(!feasible(&cs, 1));
        // ... 1 <= x <= 6 => x = 6 works
        let cs = vec![
            Constraint::congruent(le(&[1], 0), 2),
            Constraint::congruent(le(&[1], 0), 3),
            Constraint::geq(le(&[1], -1)),
            Constraint::geq(le(&[-1], 6)),
        ];
        assert!(feasible(&cs, 1));
    }

    #[test]
    fn larger_chain_of_equalities() {
        // x0 = x1 + 1, x1 = x2 + 1, ..., x9 = 0, x0 = 9 : feasible
        let n = 10;
        let mut cs = Vec::new();
        for i in 0..n - 1 {
            let mut e = LinExpr::zero(n);
            e.set_coeff(i, 1);
            e.set_coeff(i + 1, -1);
            e.set_constant(-1);
            cs.push(Constraint::eq(e));
        }
        let mut last = LinExpr::zero(n);
        last.set_coeff(n - 1, 1);
        cs.push(Constraint::eq(last));
        let mut first = LinExpr::zero(n);
        first.set_coeff(0, 1);
        first.set_constant(-(n as i64 - 1));
        cs.push(Constraint::eq(first));
        assert!(feasible(&cs, n));
        // Make it contradictory: x0 = 5
        let mut wrong = LinExpr::zero(n);
        wrong.set_coeff(0, 1);
        wrong.set_constant(-5);
        cs.push(Constraint::eq(wrong));
        assert!(!feasible(&cs, n));
    }

    #[test]
    fn unbounded_direction_is_feasible() {
        // x >= 100 and y <= -100 (no interaction): feasible.
        let cs = vec![
            Constraint::geq(le(&[1, 0], -100)),
            Constraint::geq(le(&[0, -1], -100)),
        ];
        assert!(feasible(&cs, 2));
    }

    /// `find_model` on a feasible system must return a point satisfying every
    /// constraint; on an infeasible one it must agree with `is_feasible`.
    fn check_model(cs: &[Constraint], n: usize) -> Option<Vec<i64>> {
        match find_model(cs, n) {
            ModelOutcome::Model(m) => {
                assert_eq!(m.len(), n);
                for c in cs {
                    assert!(c.holds(&m), "model {m:?} violates {c:?}");
                }
                assert!(feasible(cs, n));
                Some(m)
            }
            ModelOutcome::Infeasible => {
                assert!(!feasible(cs, n));
                None
            }
            ModelOutcome::Unknown => panic!("work limit hit on a tiny system"),
        }
    }

    #[test]
    fn model_for_simple_bounds() {
        let cs = vec![Constraint::geq(le(&[1], -5)), Constraint::geq(le(&[-1], 9))];
        let m = check_model(&cs, 1).expect("5 <= x <= 9 has a model");
        assert!((5..=9).contains(&m[0]));
        // Empty interval.
        let cs = vec![Constraint::geq(le(&[1], -5)), Constraint::geq(le(&[-1], 3))];
        assert!(check_model(&cs, 1).is_none());
    }

    #[test]
    fn model_for_equalities_and_congruences() {
        // x = 2y, 3 <= x <= 7, y >= 2  =>  (x, y) in {(4,2),(6,3)}
        let cs = vec![
            Constraint::eq(le(&[1, -2], 0)),
            Constraint::geq(le(&[1, 0], -3)),
            Constraint::geq(le(&[-1, 0], 7)),
            Constraint::geq(le(&[0, 1], -2)),
        ];
        check_model(&cs, 2).expect("feasible");
        // x ≡ 3 (mod 5) and 10 <= x <= 20  =>  x ∈ {13, 18}
        let cs = vec![
            Constraint::congruent(le(&[1], -3), 5),
            Constraint::geq(le(&[1], -10)),
            Constraint::geq(le(&[-1], 20)),
        ];
        let m = check_model(&cs, 1).expect("feasible");
        assert!(m[0] == 13 || m[0] == 18);
    }

    #[test]
    fn model_for_dark_shadow_and_splinter_regions() {
        // Pugh's gap example is infeasible; model extraction must agree.
        let cs = vec![
            Constraint::geq(le(&[11, 13], -27)),
            Constraint::geq(le(&[-11, -13], 45)),
            Constraint::geq(le(&[7, -9], 10)),
            Constraint::geq(le(&[-7, 9], 4)),
        ];
        assert!(check_model(&cs, 2).is_none());
        // The widened variant is feasible only via non-exact elimination.
        let cs = vec![
            Constraint::geq(le(&[11, 13], -27)),
            Constraint::geq(le(&[-11, -13], 70)),
            Constraint::geq(le(&[7, -9], 10)),
            Constraint::geq(le(&[-7, 9], 10)),
        ];
        check_model(&cs, 2).expect("feasible via dark shadow / splinters");
        // A system whose only integer point sits in the splinter region:
        // 2 <= 3x <= 4 has exactly x = 1... (3x in {3}), keep coefficients
        // non-unit on both sides so the elimination is inexact.
        let cs = vec![
            Constraint::geq(le(&[3, -2], 0)),  // 3x >= 2y
            Constraint::geq(le(&[-3, 2], 1)),  // 3x <= 2y + 1
            Constraint::geq(le(&[0, 1], -4)),  // y >= 4
            Constraint::geq(le(&[0, -1], 10)), // y <= 10
        ];
        check_model(&cs, 2).expect("feasible");
    }

    #[test]
    fn model_for_unbounded_directions() {
        // Only lower bounds: x >= 100, y <= -7 (one-sided drops).
        let cs = vec![
            Constraint::geq(le(&[1, 0], -100)),
            Constraint::geq(le(&[0, -1], -7)),
        ];
        let m = check_model(&cs, 2).expect("feasible");
        assert!(m[0] >= 100 && m[1] <= -7);
    }

    #[test]
    fn model_for_equality_chain() {
        // x0 = x1 + 1, ..., x4 = 0  => unique model (4, 3, 2, 1, 0).
        let n = 5;
        let mut cs = Vec::new();
        for i in 0..n - 1 {
            let mut e = LinExpr::zero(n);
            e.set_coeff(i, 1);
            e.set_coeff(i + 1, -1);
            e.set_constant(-1);
            cs.push(Constraint::eq(e));
        }
        let mut last = LinExpr::zero(n);
        last.set_coeff(n - 1, 1);
        cs.push(Constraint::eq(last));
        let m = check_model(&cs, n).expect("feasible");
        assert_eq!(m, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn model_with_non_unit_equality_coefficients() {
        // 6x + 4y = 2 with bounds; mod-reduction path.
        let cs = vec![
            Constraint::eq(le(&[6, 4], -2)),
            Constraint::geq(le(&[1, 0], 5)),
            Constraint::geq(le(&[-1, 0], 5)),
            Constraint::geq(le(&[0, 1], 20)),
            Constraint::geq(le(&[0, -1], 20)),
        ];
        check_model(&cs, 2).expect("feasible");
    }

    #[test]
    fn non_unit_coefficient_system() {
        // 6x + 4y = 3 : gcd 2 does not divide 3 -> infeasible.
        let cs = vec![Constraint::eq(le(&[6, 4], -3))];
        assert!(!feasible(&cs, 2));
        // 6x + 4y = 2 : feasible (x=1, y=-1).
        let cs = vec![Constraint::eq(le(&[6, 4], -2))];
        assert!(feasible(&cs, 2));
    }
}
