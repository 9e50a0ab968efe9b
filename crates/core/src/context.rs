//! The per-call context of a verification run: everything [`crate::check`]
//! takes that is not a verdict option.
//!
//! With `CheckContext::default()` a check runs one-shot: a proof cache that
//! lives for the run, and [`crate::CheckOptions::max_work`] as the only
//! budget.  A long-lived engine (the `arrayeq-engine` crate) fills the
//! context in per request: a wall-clock deadline, a cooperative
//! [`CancelToken`], the session's [`ProofCache`], whose entries outlive the
//! call so later queries reuse established sub-proofs, and — on an
//! incremental re-check — the outputs an earlier run's baseline proves
//! clean and the fingerprints the classification already computed.

use crate::proofs::ProofCache;
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
    /// fragment: the solver could not eliminate existential variables
    /// exactly.  The obligation is neither proven nor refuted, so the
    /// verdict is withheld.
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

/// Per-call context threaded through [`crate::check`].
///
/// The default context (`CheckContext::default()`) is a plain one-shot run:
/// no deadline, no cancellation, no proofs from outside the run.
#[derive(Default, Clone)]
pub struct CheckContext<'a> {
    /// The proof cache the run looks up and publishes to, shared between
    /// calls and threads.  `None` makes a cache for this run only, which
    /// its workers share.
    pub proofs: Option<&'a ProofCache>,
    /// Absolute wall-clock deadline for this call.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation token polled during the traversal.
    pub cancel: Option<&'a CancelToken>,
    /// Output arrays the caller has *proven* unchanged against a baseline
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
            .field("proofs", &self.proofs.is_some())
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.is_some())
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
