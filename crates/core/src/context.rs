//! The per-call context of a verification run: everything [`crate::check`]
//! takes that is not a verdict option.
//!
//! With `CheckContext::default()` a check runs one-shot: empty caches, and
//! [`crate::CheckOptions::max_work`] as the only budget.  A long-lived engine
//! (the `arrayeq-engine` crate) fills the context in per request: a
//! wall-clock deadline, a cooperative [`CancelToken`], a
//! [`SharedEquivalenceTable`] whose entries outlive the call so later
//! queries reuse established sub-proofs, and — on an incremental re-check —
//! the [`BaselineProofs`] of an earlier run, the outputs they prove clean,
//! and the fingerprints the classification already computed.

use arrayeq_addg::Fingerprints;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation flag, cloneable and shareable across threads.
///
/// The checker polls the token at traversal checkpoints; once
/// [`CancelToken::cancel`] has been called, the run winds down promptly and
/// returns [`crate::Verdict::Inconclusive`] with
/// [`BudgetExhausted::Cancelled`] — it never hangs and never produces a
/// partial verdict dressed up as a real one.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every run polling this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The typed reason behind a [`crate::Verdict::Inconclusive`]: which budget
/// ran out before the traversal could finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetExhausted {
    /// The [`crate::CheckOptions::max_work`] node-pair-visit budget ran out.
    WorkLimit {
        /// The configured budget.
        max_work: u64,
    },
    /// The wall-clock deadline of the context passed mid-traversal.
    DeadlineExceeded {
        /// Milliseconds actually spent when the deadline fired.
        elapsed_ms: u64,
    },
    /// The [`CancelToken`] of the context was cancelled.
    Cancelled,
    /// Solver arithmetic overflowed past the `i128` widening, so a dependence
    /// or feasibility answer was degraded to its conservative direction.  The
    /// run is reported inconclusive rather than risking a verdict built on a
    /// weakened constraint system.
    ArithOverflow {
        /// Number of overflow events the solver recorded during the run.
        events: u64,
    },
    /// An obligation needed an Omega operation outside the exactly decidable
    /// fragment (the solver could not eliminate existential variables
    /// exactly, or a transitive closure left the uniform fragment).  The
    /// obligation is neither proven nor refuted, so the verdict is withheld.
    UnsupportedFragment {
        /// The Omega operation that left the decidable fragment.
        op: &'static str,
    },
    /// A parallel worker task panicked.  The panic was contained to its own
    /// obligation; this reason marks that obligation's verdict as unusable.
    WorkerPanicked {
        /// Best-effort panic payload (message), when one could be extracted.
        message: String,
    },
}

impl fmt::Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExhausted::WorkLimit { max_work } => {
                write!(f, "work limit of {max_work} node-pair visits exhausted")
            }
            BudgetExhausted::DeadlineExceeded { elapsed_ms } => {
                write!(f, "wall-clock deadline exceeded after {elapsed_ms} ms")
            }
            BudgetExhausted::Cancelled => write!(f, "cancelled by caller"),
            BudgetExhausted::ArithOverflow { events } => {
                write!(
                    f,
                    "solver arithmetic overflowed ({events} event{}) — \
                     conservative degradation, verdict withheld",
                    if *events == 1 { "" } else { "s" }
                )
            }
            BudgetExhausted::UnsupportedFragment { op } => {
                write!(
                    f,
                    "an obligation left the exactly decidable Omega fragment \
                     (inexact {op}) — verdict withheld"
                )
            }
            BudgetExhausted::WorkerPanicked { message } => {
                write!(f, "worker task panicked: {message}")
            }
        }
    }
}

/// Key of a cross-query tabling entry: the content fingerprints of the two
/// traversal positions ([`arrayeq_addg::Fingerprints`]) and the structural
/// hashes of the two output-current mappings.  Every component is a stable
/// content hash, so the key means the same thing in every query.
pub type SharedTableKey = (u64, u64, u64, u64);

/// A cross-query store of established sub-equivalences.
///
/// Implementations are expected to be sharded/lock-striped maps shared by
/// every query of one engine.  **Soundness contract:** an entry asserts that
/// the synchronized traversal, run with *the same* [`crate::CheckOptions`],
/// establishes the sub-equivalence behind the key.  Callers must therefore
/// key or segregate stores per options set — the engine does this by fixing
/// its options at construction time.  Only positive verdicts are stored
/// (failures keep their diagnostics specific to the run that found them),
/// and the checker never stores sub-proofs that leaned on a coinductive
/// recurrence assumption.
pub trait SharedEquivalenceTable: Send + Sync {
    /// Looks up an established sub-equivalence.
    fn get(&self, key: &SharedTableKey) -> Option<bool>;
    /// Records an established sub-equivalence.
    fn put(&self, key: SharedTableKey, established: bool);
    /// Looks up an established sub-equivalence together with where it came
    /// from, so the checker can report store-discharged proofs separately
    /// from in-memory hits.  The default maps [`Self::get`] to
    /// [`TableProvenance::Memory`], which is correct for any implementation
    /// that never seeds entries from a persistent store.
    fn get_with_provenance(&self, key: &SharedTableKey) -> Option<(bool, TableProvenance)> {
        self.get(key).map(|e| (e, TableProvenance::Memory))
    }
}

/// Where a [`SharedEquivalenceTable`] answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableProvenance {
    /// Established by a query of this process's session.
    Memory,
    /// Seeded from a persistent on-disk proof store at engine startup.
    Store,
}

/// A read-only store of sub-proofs carried over from an earlier run — the
/// substrate of incremental re-verification.
///
/// Entries use the same key shape as the [`SharedEquivalenceTable`]
/// (content fingerprints plus mapping hashes), and inherit the same
/// soundness contract: every entry asserts a *positive*, *assumption-free*
/// sub-equivalence established under the same [`crate::CheckOptions`].  The
/// guard holds by construction — baselines are exported from a shared
/// table, and the checker only ever publishes there when a sub-proof
/// succeeded without leaning on any in-flight coinductive assumption
/// (`assumption_uses` unchanged around the uncached check).  A consult hit
/// therefore discharges the sub-traversal with exactly the verdict the
/// traversal would re-derive; failures are never stored, so diagnostics and
/// rendered reports are byte-identical to a from-scratch run.
#[derive(Debug, Clone, Default)]
pub struct BaselineProofs {
    entries: std::collections::HashSet<SharedTableKey>,
}

impl BaselineProofs {
    /// Builds a store from previously exported proven entries.
    pub fn from_entries(entries: impl IntoIterator<Item = SharedTableKey>) -> Self {
        Self {
            entries: entries.into_iter().collect(),
        }
    }

    /// Whether the baseline proves the sub-equivalence behind `key`.
    pub fn contains(&self, key: &SharedTableKey) -> bool {
        self.entries.contains(key)
    }

    /// Number of proven entries carried by the baseline.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the baseline carries no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Per-call context threaded through [`crate::check`].
///
/// The default context (`CheckContext::default()`) is a plain one-shot run:
/// no deadline, no cancellation, no cross-query sharing, no baseline.
#[derive(Default, Clone)]
pub struct CheckContext<'a> {
    /// Cross-query equivalence table, shared between calls and threads.
    pub shared_table: Option<&'a dyn SharedEquivalenceTable>,
    /// Absolute wall-clock deadline for this call.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token polled during the traversal.
    pub cancel: Option<&'a CancelToken>,
    /// Proven sub-proofs from an earlier run, consulted before both table
    /// levels (see [`BaselineProofs`]).
    pub baseline: Option<&'a BaselineProofs>,
    /// Output arrays the caller has *proven* unchanged against `baseline`
    /// (their root obligations, [`crate::output_root_key`], are among its
    /// entries): the traversal skips them entirely — no domain check, no
    /// root obligation — while keeping them in
    /// [`crate::Report::outputs_checked`], so the rendered report is
    /// byte-identical to a from-scratch run in which they silently
    /// succeeded.  This is the dirty-cone focus of incremental
    /// re-verification; unlike [`crate::Focus::outputs`] it narrows *work*,
    /// not the set of outputs the verdict speaks about.  Soundness is the
    /// caller's obligation: list an output only when the baseline proves its
    /// root obligation under the same options.
    pub clean_outputs: &'a [String],
    /// Content fingerprints of `(original, transformed)`, when the caller
    /// already computed them with [`crate::CheckOptions::fingerprints`] (the
    /// incremental path does, to classify outputs clean) — the check then
    /// does not pay for the WL refinement twice.  `None` lets the check
    /// compute them.
    pub fingerprints: Option<&'a (Fingerprints, Fingerprints)>,
}

impl fmt::Debug for CheckContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckContext")
            .field("shared_table", &self.shared_table.is_some())
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.is_some())
            .field("baseline", &self.baseline.is_some())
            .field("clean_outputs", &self.clean_outputs)
            .field("fingerprints", &self.fingerprints.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_through_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn budget_reasons_render() {
        assert!(BudgetExhausted::WorkLimit { max_work: 7 }
            .to_string()
            .contains('7'));
        assert!(BudgetExhausted::DeadlineExceeded { elapsed_ms: 12 }
            .to_string()
            .contains("12 ms"));
        assert!(BudgetExhausted::Cancelled.to_string().contains("cancel"));
        assert!(BudgetExhausted::UnsupportedFragment { op: "subtract" }
            .to_string()
            .contains("subtract"));
    }
}
