//! Solver events: what the solver reports beside its answers.
//!
//! Some outcomes of the relation algebra are not part of any operation's
//! result.  Checked arithmetic that overflows `i64` even after `i128`
//! widening degrades the affected answer to its conservative direction (a
//! feasibility query reports "feasible", which can only cause a spurious
//! *inequivalence*, never a spurious equivalence); the big-integer fallback
//! re-decides such a query exactly when it can; the DNF engine drops
//! duplicate and subsumed conjuncts.  The solver records these events on the
//! calling thread, and [`solver_events`] returns the ones caused by the work
//! run inside it.  The checker wraps every thread's share of a run in one
//! scope and withholds its verdict when a degraded answer still stands, so
//! an overflow can never be mistaken for a real decision.

use std::cell::Cell;

/// The solver events of one [`solver_events`] scope.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverEvents {
    /// Arithmetic overflow events, including those whose degraded answer an
    /// exact re-decision later replaced.
    pub overflow_events: u64,
    /// Whether an overflow-degraded answer still stands: some result of the
    /// scope rests on a conservative answer that no exact re-decision
    /// replaced, so a verdict built on it must be withheld.
    pub degraded: bool,
    /// Conjuncts dropped by DNF coalescing (structural duplicates and
    /// disjuncts subsumed by a sibling).
    pub conjuncts_subsumed: u64,
    /// Overflow-degraded feasibility queries re-decided exactly by the
    /// big-integer fallback.
    pub bigint_fallbacks: u64,
}

impl SolverEvents {
    const NONE: SolverEvents = SolverEvents {
        overflow_events: 0,
        degraded: false,
        conjuncts_subsumed: 0,
        bigint_fallbacks: 0,
    };

    /// Adds the events of `other` (another scope, typically another
    /// thread's share of the same work) to these.
    pub fn merge(&mut self, other: SolverEvents) {
        self.overflow_events += other.overflow_events;
        self.degraded |= other.degraded;
        self.conjuncts_subsumed += other.conjuncts_subsumed;
        self.bigint_fallbacks += other.bigint_fallbacks;
    }
}

thread_local! {
    /// Events of the innermost open scope on this thread.
    static EVENTS: Cell<SolverEvents> = const { Cell::new(SolverEvents::NONE) };
}

/// Runs `f` and returns its result together with the solver events it
/// caused on this thread.
///
/// The scope starts empty, so events of earlier work on the thread never
/// leak into it.  When it ends — normally or by a panic — its events also
/// count toward the enclosing scope, so scopes nest.  Work that `f` hands to
/// other threads is not seen here: run a scope on each of them and
/// [`SolverEvents::merge`] the results.
pub fn solver_events<R>(f: impl FnOnce() -> R) -> (R, SolverEvents) {
    /// Folds the scope's events into the enclosing scope's on drop.
    struct Close(SolverEvents);
    impl Drop for Close {
        fn drop(&mut self) {
            EVENTS.with(|cell| {
                let mut outer = self.0;
                outer.merge(cell.get());
                cell.set(outer);
            });
        }
    }
    let close = Close(EVENTS.with(|cell| cell.replace(SolverEvents::NONE)));
    let result = f();
    let events = EVENTS.with(Cell::get);
    drop(close);
    (result, events)
}

fn update(f: impl FnOnce(&mut SolverEvents)) {
    EVENTS.with(|cell| {
        let mut events = cell.get();
        f(&mut events);
        cell.set(events);
    });
}

/// Records an arithmetic overflow: the affected answer is degraded to its
/// conservative direction.
pub(crate) fn note_arith_overflow() {
    update(|e| {
        e.overflow_events += 1;
        e.degraded = true;
    });
}

pub(crate) fn note_conjuncts_subsumed(n: u64) {
    if n > 0 {
        update(|e| e.conjuncts_subsumed += n);
    }
}

/// Records an exact big-integer re-decision of the degraded query run in
/// the current scope: counts the fallback and withdraws the degradation.
/// The caller opens a scope for that one query, so a degradation noted
/// earlier, in an enclosing scope, still stands.
pub(crate) fn note_bigint_fallback() {
    update(|e| {
        e.bigint_fallbacks += 1;
        e.degraded = false;
    });
}

/// Withdraws the degradation of the current scope, whose degraded answers
/// fed only a cosmetic result (a redundant constraint kept) that no verdict
/// rests on.
pub(crate) fn withdraw_degraded() {
    update(|e| e.degraded = false);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scope_sees_only_its_own_events_and_nests() {
        note_arith_overflow();
        let ((), outer) = solver_events(|| {
            note_conjuncts_subsumed(2);
            let ((), inner) = solver_events(|| {
                note_arith_overflow();
                note_bigint_fallback();
            });
            assert_eq!(inner.overflow_events, 1);
            assert!(!inner.degraded, "the fallback withdrew its degradation");
            note_arith_overflow();
        });
        assert_eq!(
            outer,
            SolverEvents {
                overflow_events: 2,
                degraded: true,
                conjuncts_subsumed: 2,
                bigint_fallbacks: 1,
            },
            "the overflow before the scope is not seen; the inner scope is"
        );
    }

    #[test]
    fn a_fallback_keeps_a_degradation_of_the_enclosing_scope() {
        let ((), events) = solver_events(|| {
            note_arith_overflow();
            solver_events(note_bigint_fallback);
        });
        assert!(events.degraded, "the earlier degraded answer still stands");
        assert_eq!(events.bigint_fallbacks, 1);
    }

    #[test]
    fn a_panicking_scope_still_counts_toward_the_enclosing_one() {
        let ((), events) = solver_events(|| {
            let unwound = std::panic::catch_unwind(|| {
                solver_events(|| {
                    note_arith_overflow();
                    panic!("unwinds through the scope");
                })
            });
            assert!(unwound.is_err());
        });
        assert_eq!(events.overflow_events, 1);
        assert!(events.degraded);
    }
}
