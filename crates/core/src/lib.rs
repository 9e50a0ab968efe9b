//! # arrayeq-core
//!
//! The equivalence checker of the DATE 2005 paper *"Functional Equivalence
//! Checking for Verification of Algebraic Transformations on Array-Intensive
//! Source Code"* — the primary contribution this repository reproduces.
//!
//! Given two program functions in the restricted class (original and
//! transformed), the checker establishes input-output equivalence by a
//! synchronized traversal of their ADDGs, verifying the paper's sufficient
//! condition on every pair of corresponding data-dependence paths:
//!
//! 1. the **same computation** (operator sequence) is applied, and
//! 2. the **output-input mappings** (compositions of dependency mappings
//!    along the paths) are identical integer relations.
//!
//! The *basic method* ([`Method::Basic`]) handles expression propagations and
//! global loop transformations.  The *extended method* ([`Method::Extended`],
//! the default) additionally normalises at operator nodes that are declared
//! associative and/or commutative — **flattening** associative chains and
//! **matching** commutative operands by their output-input mappings — which
//! makes global algebraic transformations checkable in the same pass.
//!
//! On failure, the checker produces [`Diagnostic`]s in the spirit of
//! Section 6.1: the mismatching statements, the index expressions involved,
//! the differing mappings, and a heuristic blame assignment to the variable
//! common to the failing paths.
//!
//! The pipeline has two stages: [`lower`] runs the front end on one program
//! (parameter promotion, class check, def-use check, ADDG extraction) and
//! [`check`] runs the traversal on two lowered graphs under a per-call
//! [`CheckContext`].  Every sub-proof the traversal establishes goes into
//! one [`ProofCache`]; long-lived services use the `arrayeq-engine` crate's
//! `Verifier`, which drives these two stages with one cache per session.
//!
//! ```
//! use arrayeq_core::{check, lower, CheckContext, CheckOptions};
//! use arrayeq_lang::corpus::{FIG1_A, FIG1_C, FIG1_D};
//! use arrayeq_lang::parser::parse_program;
//!
//! # fn main() -> Result<(), arrayeq_core::CoreError> {
//! let opts = CheckOptions::default();
//! let graph = |src| lower(&parse_program(src)?, &opts);
//! let (a, c, d) = (graph(FIG1_A)?, graph(FIG1_C)?, graph(FIG1_D)?);
//!
//! // (a) vs (c): related by loop, propagation AND algebraic transformations.
//! let report = check(&a, &c, &opts, &CheckContext::default())?;
//! assert!(report.is_equivalent());
//!
//! // (a) vs (d): the erroneous transformation is caught and diagnosed.
//! let report = check(&a, &d, &opts, &CheckContext::default())?;
//! assert!(!report.is_equivalent());
//! assert!(!report.diagnostics.is_empty());
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checker;
mod context;
mod diagnostics;
mod look_through;
mod normalize;
mod operators;
mod parallel;
mod proofs;
mod report;

pub use checker::{check, lower, output_root_key, CheckOptions, Focus, Method};
pub use context::{BudgetExhausted, CancelToken, CheckContext};
pub use diagnostics::{Diagnostic, DiagnosticKind};
pub use operators::{OperatorClass, OperatorProperties};
#[doc(hidden)]
pub use parallel::inject_worker_panic_on_task;
pub use proofs::{ProofCache, ProofKey};
pub use report::{CheckStats, Report, Verdict, Witness};

use std::fmt;

/// Errors produced by the equivalence checker pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The frontend failed (parse error, class violation, def-use violation).
    Lang(arrayeq_lang::LangError),
    /// ADDG extraction failed.
    Addg(arrayeq_addg::AddgError),
    /// The omega layer failed during mapping manipulation.
    Omega(arrayeq_omega::OmegaError),
    /// The two functions cannot be compared (e.g. different output arrays).
    Incomparable {
        /// Description of the interface mismatch.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Lang(e) => write!(f, "frontend error: {e}"),
            CoreError::Addg(e) => write!(f, "ADDG error: {e}"),
            CoreError::Omega(e) => write!(f, "integer-set error: {e}"),
            CoreError::Incomparable { message } => write!(f, "functions not comparable: {message}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Lang(e) => Some(e),
            CoreError::Addg(e) => Some(e),
            CoreError::Omega(e) => Some(e),
            _ => None,
        }
    }
}

impl From<arrayeq_lang::LangError> for CoreError {
    fn from(e: arrayeq_lang::LangError) -> Self {
        CoreError::Lang(e)
    }
}

impl From<arrayeq_addg::AddgError> for CoreError {
    fn from(e: arrayeq_addg::AddgError) -> Self {
        CoreError::Addg(e)
    }
}

impl From<arrayeq_omega::OmegaError> for CoreError {
    fn from(e: arrayeq_omega::OmegaError) -> Self {
        CoreError::Omega(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
