//! # arrayeq-addg
//!
//! Array Data Dependence Graphs (ADDGs) — the program representation of
//! Section 3.2 of the DATE 2005 paper.
//!
//! An ADDG has a node for every array variable and for every operator
//! occurrence of a program in the restricted class.  Edges point against the
//! flow of data: from each defined array to the operator tree of the
//! statement defining it (labelled with the statement), and from operators to
//! their operands (labelled with the operand position).  Each array-read leaf
//! carries the statement's **dependency mapping** — the integer relation from
//! the elements being defined to the elements being read, represented with
//! [`arrayeq_omega::Relation`].
//!
//! The equivalence checker of `arrayeq-core` works directly on this graph;
//! this crate provides construction ([`extract`]), the reduction primitive
//! (composition of dependency mappings along a path, available through the
//! relations themselves), structural queries (roots, leaves, recurrence
//! cycles) and Graphviz export for inspection.
//!
//! ```
//! use arrayeq_addg::extract;
//! use arrayeq_lang::parser::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(arrayeq_lang::corpus::FIG1_A)?;
//! let addg = extract(&program)?;
//! assert_eq!(addg.output_arrays(), &["C".to_string()]);
//! assert_eq!(addg.definitions("C").len(), 1);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diff;
mod dot;
mod extract;
mod fingerprint;
mod graph;
mod slice;

pub use diff::{diff_addgs, diff_fingerprints, AddgDiff};
pub use dot::{to_dot, to_dot_highlighted};
pub use extract::{describe_node, extract, extract_from};
pub use fingerprint::{fingerprints, fingerprints_named, term_fingerprint, Fingerprints};
pub use graph::{Addg, Definition, Node, NodeId, OperatorKind};
pub use slice::{slice_for_point, Slice};

use std::fmt;

/// Errors produced while building or querying an ADDG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddgError {
    /// The underlying frontend analysis failed.
    Lang(arrayeq_lang::LangError),
    /// The omega layer failed while building dependency mappings.
    Omega(arrayeq_omega::OmegaError),
    /// The program uses a construct the ADDG extractor does not support.
    Unsupported {
        /// Description of the unsupported construct.
        message: String,
    },
}

impl fmt::Display for AddgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddgError::Lang(e) => write!(f, "frontend error: {e}"),
            AddgError::Omega(e) => write!(f, "integer-set error: {e}"),
            AddgError::Unsupported { message } => write!(f, "unsupported construct: {message}"),
        }
    }
}

impl std::error::Error for AddgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AddgError::Lang(e) => Some(e),
            AddgError::Omega(e) => Some(e),
            AddgError::Unsupported { .. } => None,
        }
    }
}

impl From<arrayeq_lang::LangError> for AddgError {
    fn from(e: arrayeq_lang::LangError) -> Self {
        AddgError::Lang(e)
    }
}

impl From<arrayeq_omega::OmegaError> for AddgError {
    fn from(e: arrayeq_omega::OmegaError) -> Self {
        AddgError::Omega(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, AddgError>;
