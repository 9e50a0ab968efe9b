//! # arrayeq-lang
//!
//! Frontend for the restricted C-like program class of the DATE 2005 paper
//! *"Functional Equivalence Checking for Verification of Algebraic
//! Transformations on Array-Intensive Source Code"*.
//!
//! The program class (Section 3.1 of the paper) has four properties:
//!
//! 1. **Dynamic single-assignment form** — every array element is written at
//!    most once during an execution;
//! 2. **Static control flow** — only `for` loops with affine bounds and
//!    simple affine `if` conditions;
//! 3. **Affine indices** — all array index expressions and loop bounds are
//!    (piecewise-)affine in the enclosing iterators;
//! 4. **No pointer references** — all memory accesses use explicit indexing.
//!
//! This crate provides everything needed to get from source text to the
//! analyses the equivalence checker builds on:
//!
//! * [`parser`] — lexer and recursive-descent parser for the class
//!   (functions such as the `foo` variants of Fig. 1 of the paper);
//! * [`ast`] — the abstract syntax tree and a programmatic builder;
//! * [`affine`] — lowering of loop nests and index expressions to
//!   iteration-domain [`Set`](arrayeq_omega::Set)s and access
//!   [`Relation`](arrayeq_omega::Relation)s, and the one
//!   [`Analysis`](affine::Analysis) per program that the checks below and
//!   ADDG extraction share;
//! * [`classcheck`] — verification that a parsed program actually lies in
//!   the class (single assignment, affine indices, static control);
//! * [`defuse`] — the def-use (schedule correctness) checker of Fig. 6;
//! * [`interp`] — a reference interpreter used as the "simulation" baseline
//!   and as a test oracle;
//! * [`pretty`] — a C pretty-printer for round-tripping and error reports.
//!
//! ## Example
//!
//! ```
//! use arrayeq_lang::parser::parse_program;
//!
//! let src = r#"
//!     #define N 8
//!     void foo(int A[], int C[]) {
//!         int k;
//!         for (k = 0; k < N; k++) {
//!     s1:     C[k] = A[k] + A[k + 1];
//!         }
//!     }
//! "#;
//! let program = parse_program(src).expect("parses");
//! assert_eq!(program.name, "foo");
//! assert_eq!(program.statements().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod ast;
pub mod classcheck;
pub mod corpus;
pub mod defuse;
pub mod interp;
pub mod parser;
pub mod pretty;

use std::fmt;

/// Whether a program passes both front-end checks, the class check and the
/// def-use check, run on one [`affine::Analysis`].  A program the analysis
/// rejects fails too.
pub fn passes_checks(program: &ast::Program) -> bool {
    affine::Analysis::new(program).is_ok_and(|mut analysis| {
        classcheck::assert_in_class(&analysis).is_ok()
            && defuse::assert_def_use_correct(&mut analysis).is_ok()
    })
}

/// Errors produced by the language frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// The source text could not be tokenised or parsed.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// 1-based line number of the offending token.
        line: usize,
    },
    /// The program is outside the supported class (Section 3.1 violations).
    Class {
        /// Which class property is violated and where.
        message: String,
    },
    /// An expression that must be affine is not.
    NotAffine {
        /// Rendering of the offending expression.
        expr: String,
        /// Context (statement label or loop) in which it appeared.
        context: String,
    },
    /// The def-use checker found a read that is not preceded by a write.
    DefUse {
        /// Description of the violating read.
        message: String,
    },
    /// A runtime error during interpretation (out-of-bounds, missing input,
    /// division by zero, ...).
    Runtime {
        /// Description of the failure.
        message: String,
    },
    /// An error bubbled up from the omega (integer set) layer.
    Omega(arrayeq_omega::OmegaError),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Parse { message, line } => write!(f, "parse error (line {line}): {message}"),
            LangError::Class { message } => write!(f, "program class violation: {message}"),
            LangError::NotAffine { expr, context } => {
                write!(f, "non-affine expression `{expr}` in {context}")
            }
            LangError::DefUse { message } => write!(f, "def-use violation: {message}"),
            LangError::Runtime { message } => write!(f, "runtime error: {message}"),
            LangError::Omega(e) => write!(f, "integer-set error: {e}"),
        }
    }
}

impl std::error::Error for LangError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LangError::Omega(e) => Some(e),
            _ => None,
        }
    }
}

impl From<arrayeq_omega::OmegaError> for LangError {
    fn from(e: arrayeq_omega::OmegaError) -> Self {
        LangError::Omega(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LangError>;
