//! Overflow-checked arithmetic support for the Omega test.
//!
//! Every verdict of the equivalence checker bottoms out in integer
//! feasibility, and the elimination steps of the Omega test multiply and
//! combine `i64` coefficients.  On large-coefficient systems those products
//! can exceed `i64` — and a silent wrap would change a *verdict*, not crash.
//! The solver therefore computes every potentially-growing operation in
//! `i128` and, when even the widened result does not fit back into the `i64`
//! representation, raises the typed [`ArithOverflow`] condition instead of
//! wrapping or panicking.
//!
//! The overflow then propagates out of band, as a degraded answer recorded
//! in the [`crate::SolverEvents`] of the enclosing [`crate::solver_events`]
//! scope.

/// Typed arithmetic-overflow condition raised by the checked solver paths.
///
/// Carried as the `Err` of the `try_*` operations on
/// [`LinExpr`](crate::LinExpr); the solver converts it into a degraded
/// answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithOverflow;

impl std::fmt::Display for ArithOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("arithmetic overflow beyond i128 widening")
    }
}

impl std::error::Error for ArithOverflow {}

/// Narrows a widened intermediate back into `i64`.
#[inline]
pub(crate) fn narrow(v: i128) -> Result<i64, ArithOverflow> {
    i64::try_from(v).map_err(|_| ArithOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_checks_i64_range() {
        assert_eq!(narrow(42), Ok(42));
        assert_eq!(narrow(i64::MAX as i128), Ok(i64::MAX));
        assert_eq!(narrow(i64::MIN as i128), Ok(i64::MIN));
        assert_eq!(narrow(i64::MAX as i128 + 1), Err(ArithOverflow));
        assert_eq!(narrow(i64::MIN as i128 - 1), Err(ArithOverflow));
    }
}
