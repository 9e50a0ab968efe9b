//! # arrayeq-transform
//!
//! Source-to-source transformations, fault injection and workload generation
//! for exercising the equivalence checker.
//!
//! The paper's designers apply global loop transformations, expression
//! propagations and algebraic transformations *by hand*; the checker then
//! verifies the result.  To reproduce the evaluation without the authors'
//! proprietary multimedia kernels, this crate provides
//!
//! * **correct-by-construction transformations** ([`loops`], [`dataflow`],
//!   [`algebraic`]) that produce transformed variants which *must* check as
//!   equivalent,
//! * one **fault injector** ([`mutate`]) that plants the typical index /
//!   operand / operator slips the diagnostics of Section 6.1 are meant to
//!   localise, and enumerates off-by-one bounds, swapped non-commutative
//!   operands, wrong coefficients and dropped statements over the whole
//!   corpus, curated into ground-truth-inequivalent pairs for the witness
//!   engine's self-test, and
//! * **synthetic kernel generators** ([`generator`]) whose ADDG size, loop
//!   depth and loop bounds can be swept for the scaling experiments of
//!   Section 6.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebraic;
pub mod dataflow;
pub mod generator;
pub mod loops;
pub mod mutate;
pub mod pipeline;

pub use pipeline::{random_pipeline, TransformStep};

use std::fmt;

/// Errors produced by the transformation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The requested transformation does not apply at the given location.
    NotApplicable {
        /// Which transformation and why it does not apply.
        message: String,
    },
    /// The location (loop index, statement label, ...) does not exist.
    NoSuchLocation {
        /// Description of the missing location.
        message: String,
    },
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotApplicable { message } => {
                write!(f, "transformation not applicable: {message}")
            }
            TransformError::NoSuchLocation { message } => write!(f, "no such location: {message}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TransformError>;

/// Shared by the modules' unit tests, which check transformed programs
/// against their originals.
#[cfg(test)]
mod test_support {
    use arrayeq_core::{check, lower, CheckContext, CheckOptions, Report, Result};
    use arrayeq_lang::ast::Program;

    /// Lowers both programs and checks them one-shot.
    pub(crate) fn check_programs(a: &Program, b: &Program, opts: &CheckOptions) -> Result<Report> {
        check(
            &lower(a, opts)?,
            &lower(b, opts)?,
            opts,
            &CheckContext::default(),
        )
    }
}
