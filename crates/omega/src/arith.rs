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
//! Overflow propagates out-of-band: the solver records it in a sticky
//! per-thread flag ([`note_arith_overflow`]) and conservatively reports the
//! affected query as "feasible" (the same direction as the work limit — it
//! can only cause a spurious *inequivalence*, never a spurious equivalence).
//! The checker polls the flag via [`take_arith_overflow`] and downgrades the
//! whole verdict to `Inconclusive` with a typed reason, so an overflow can
//! never be mistaken for a real decision.

use std::cell::Cell;

/// Typed arithmetic-overflow condition raised by the checked solver paths.
///
/// Carried as the `Err` of the `try_*` operations on
/// [`LinExpr`](crate::LinExpr); the solver converts it into the sticky
/// per-thread flag read by [`take_arith_overflow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArithOverflow;

impl std::fmt::Display for ArithOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("arithmetic overflow beyond i128 widening")
    }
}

impl std::error::Error for ArithOverflow {}

thread_local! {
    /// Sticky flag: an overflow occurred in a feasibility query on this
    /// thread since the last [`take_arith_overflow`].
    static OVERFLOW_PENDING: Cell<bool> = const { Cell::new(false) };

    /// Total overflow events on this thread (monotonic; for stats/tests).
    static OVERFLOW_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Records an arithmetic overflow: sets the sticky per-thread flag.
pub(crate) fn note_arith_overflow() {
    OVERFLOW_PENDING.with(|p| p.set(true));
    OVERFLOW_EVENTS.with(|e| e.set(e.get() + 1));
}

/// Whether an overflow is pending on this thread (does not clear the flag).
pub fn arith_overflow_pending() -> bool {
    OVERFLOW_PENDING.with(|p| p.get())
}

/// Records one synthetic overflow event on this thread, exactly as a real
/// checked-arithmetic overflow would.  Fault-injection hook for tests of
/// the degradation plumbing above the solver; real overflows are covered
/// by the omega-level oracle corpus.
#[doc(hidden)]
pub fn inject_arith_overflow() {
    note_arith_overflow();
}

/// Reads *and clears* this thread's sticky overflow flag.
///
/// The checker calls this at its budget-poll points and at the end of every
/// run: a `true` means some feasibility verdict since the previous call was
/// degraded by overflow (conservatively reported "feasible") and the
/// enclosing verdict must become `Inconclusive`.  Callers starting a fresh
/// verification also call it once up front to discard any stale flag left by
/// unrelated work on the same thread.
pub fn take_arith_overflow() -> bool {
    OVERFLOW_PENDING.with(|p| p.replace(false))
}

/// Total overflow events recorded on this thread (never reset).
pub fn arith_overflow_events() -> u64 {
    OVERFLOW_EVENTS.with(|e| e.get())
}

/// Narrows a widened intermediate back into `i64`.
#[inline]
pub(crate) fn narrow(v: i128) -> Result<i64, ArithOverflow> {
    i64::try_from(v).map_err(|_| ArithOverflow)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_is_sticky_and_take_clears() {
        assert!(!arith_overflow_pending());
        note_arith_overflow();
        note_arith_overflow();
        assert!(arith_overflow_pending());
        assert!(arith_overflow_pending(), "peek does not clear");
        assert!(take_arith_overflow());
        assert!(!take_arith_overflow(), "take clears");
        assert!(arith_overflow_events() >= 2);
    }

    #[test]
    fn narrow_checks_i64_range() {
        assert_eq!(narrow(42), Ok(42));
        assert_eq!(narrow(i64::MAX as i128), Ok(i64::MAX));
        assert_eq!(narrow(i64::MIN as i128), Ok(i64::MIN));
        assert_eq!(narrow(i64::MAX as i128 + 1), Err(ArithOverflow));
        assert_eq!(narrow(i64::MIN as i128 - 1), Err(ArithOverflow));
    }
}
