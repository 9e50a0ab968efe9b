//! # arrayeq-omega
//!
//! An integer-set / affine-relation calculator in the spirit of the *Omega
//! calculator and library* used by the DATE 2005 paper
//! *"Functional Equivalence Checking for Verification of Algebraic
//! Transformations on Array-Intensive Source Code"* (Shashidhar et al.).
//!
//! The paper manipulates **dependency mappings** — relations between integer
//! tuples constrained by (piecewise-)affine formulas such as
//!
//! ```text
//! { [x] -> [y] : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }
//! ```
//!
//! and needs the following operations on them: natural join (composition),
//! inverse, domain/range, intersection, union, emptiness and subset/equality
//! tests.  This crate provides all of them, exactly, for the class of
//! relations the restricted program class of the paper generates.  No
//! transitive closure is needed: the checker discharges recurrences
//! coinductively, by assuming an obligation while it is being proven.
//!
//! ## Data model
//!
//! * [`LinExpr`] — an affine expression `Σ aᵢ·xᵢ + c` with `i64` coefficients.
//! * [`Constraint`] — `e = 0`, `e ≥ 0` or `e ≡ 0 (mod m)`.
//! * [`Space`] — names of the input-tuple dims, output-tuple dims and symbolic
//!   parameters a relation is defined over.
//! * [`Conjunct`] — a conjunction of constraints over a space, possibly with
//!   local existentially-quantified variables (used for strides and for the
//!   intermediate tuple introduced by composition).
//! * [`Relation`] — a finite union of conjuncts over one space; the workhorse
//!   type, which cannot change once built.  [`Set`] is a relation with no
//!   output dims.
//!
//! ## Decision procedure
//!
//! Emptiness of a conjunct is decided exactly with the classic *Omega test*
//! recipe: normalise and eliminate equalities first (unit-coefficient
//! substitution, otherwise Pugh's mod-reduction), then eliminate the remaining
//! variables with Fourier–Motzkin using the *real shadow* (unsat ⇒ unsat),
//! the *dark shadow* (sat ⇒ sat) and *splinters* for the gap, which makes the
//! test exact for arbitrary coefficients.  Subset and equality are reduced to
//! emptiness of set differences; the constraint language is closed under the
//! negation required by the difference because congruences negate into finite
//! unions of congruences.
//!
//! ## Model extraction
//!
//! Feasibility alone answers *whether* a relation is non-empty; the witness
//! engine of the equivalence checker also needs to know *where*.
//! [`Relation::sample_point`] (and [`Conjunct::sample_point`] /
//! [`Set::sample_point`]) run the Omega test's elimination order in a
//! model-producing mode: every equality substitution is recorded and
//! replayed in reverse once the fully-projected system is solved, and each
//! Fourier–Motzkin step re-inserts the eliminated variable at the tightest
//! lower bound inside `[max lower, min upper]` evaluated at the sub-model.
//! Exact eliminations guarantee an integer in that interval; inexact ones
//! take the model from the *dark shadow* (where Pugh's theorem gives the
//! same guarantee) or, in the gap, from a *splinter* sub-problem whose model
//! is already a model of the original system.  Congruences and existential
//! variables are witnessed internally (their columns are solved like any
//! other and truncated from the returned point), so a returned point always
//! satisfies `contains` — a property-tested invariant.  The machinery is
//! fully disabled on the `is_feasible` hot path.
//!
//! ## Canonical forms, hashing and the feasibility memo
//!
//! The equivalence checker spends essentially all of its time in chains of
//! these operations, and the same sub-relations keep re-appearing along
//! different traversal paths.  Four mechanisms make the repeats cheap:
//!
//! * **Canonical structural form.**  [`Constraint::normalized`] gcd-reduces
//!   every constraint, integer-tightens inequalities, reduces congruences
//!   into `[0, m)` and sign-canonicalises equalities (`x − y = 0` and
//!   `y − x = 0` become one representative).  A conjunct's canonical form
//!   drops trivially-true constraints and sorts and deduplicates the rest
//!   (constraints implement `Ord`, so no textual rendering is involved);
//!   a relation's canonical form treats its conjuncts as a set.
//!
//! * **Structural hashing.**  [`Conjunct::structural_hash`] and
//!   [`Relation::structural_hash`] digest the canonical form into a stable,
//!   deterministic 64-bit value (an FxHash-style polynomial — see the
//!   `StructuralHasher` used internally).  Both hashes are computed lazily,
//!   cached in the conjunct or relation and carried along by clones, so
//!   after the first computation a tabling key costs two integer loads where
//!   the previous string key re-ran a full feasibility pass and a `format!`
//!   per conjunct on every lookup, and the feasibility memo, DNF dedup and
//!   the relation hash digest each conjunct once.
//!
//! * **Simplified conjuncts stay simplified.**  [`Conjunct::simplify`]
//!   marks the conjunct it brought to canonical form (every constraint
//!   normalised, none trivially true, the list strictly ascending), and a
//!   second call returns at once; [`Relation::simplified`] and
//!   [`Relation::is_empty`] test such conjuncts in place instead of
//!   cloning and re-simplifying them.  Every method that changes a
//!   conjunct's constraints or existentials drops both the mark and the
//!   cached hash, and equality and `Hash` ignore both, as they ignore the
//!   relation's cached hash.  Debug builds check the canonical form
//!   wherever the mark is read and a cached hash against a fresh one
//!   wherever it is used.
//!
//! * **Feasibility memo.**  [`Conjunct::is_feasible`] memoises Omega-test
//!   verdicts in one map per thread, keyed by structural hash, so the
//!   emptiness queries that `Relation::simplified(true)`,
//!   [`Relation::subtract`] and [`Relation::is_subset`] issue for
//!   structurally identical conjuncts run the solver once per thread.  The
//!   memo lives as long as its thread, across checker runs and engines; it
//!   holds at most 2^15 verdicts and is cleared wholesale when full.  A
//!   verdict degraded by arithmetic overflow is never memoised.  Debug
//!   builds store the canonical constraint system next to each verdict and
//!   compare it on every hit: a 64-bit hash collision is a miss, whose
//!   recomputed verdict replaces the entry.  Release builds trust the hash,
//!   so a collision there answers with the other conjunct's verdict: the
//!   memo is the one structure of this crate where a hash decides identity
//!   (DNF dedup, by contrast, keys its buckets by hash and compares
//!   canonical constraints on every hit, in every build).
//!
//! All allocation-heavy inner loops (Fourier–Motzkin shadows, equality
//! elimination, existential elimination) operate on [`LinExpr`]s that store
//! up to six coefficients inline and are mutated in place via
//! `try_add_scaled_assign` / `try_scale_assign` / `try_substitute_assign`,
//! so the typical relation of the paper's program class never touches the
//! heap per elimination step.  Those operations are checked: one that
//! would overflow `i64` returns [`ArithOverflow`] and changes nothing, and
//! no public `LinExpr` operation can overflow unchecked, so solver
//! arithmetic answers alike in debug and release builds.
//!
//! ## Quick example
//!
//! ```
//! use arrayeq_omega::Relation;
//!
//! # fn main() -> Result<(), arrayeq_omega::OmegaError> {
//! // The two dependency mappings of statement s2 in Fig. 1(a) of the paper.
//! let m1 = Relation::parse("{ [x] -> [y] : exists k : x = 2k - 2 and y = 2k - 2 and 1 <= k <= 1024 }")?;
//! let m2 = Relation::parse("{ [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }")?;
//! assert!(!m1.is_equal(&m2)?);
//!
//! // Intermediate-variable reduction is relation composition (natural join).
//! let c_to_tmp = Relation::parse("{ [k] -> [k] : 0 <= k < 1024 }")?;
//! let tmp_to_b = Relation::parse("{ [k] -> [2k] : 0 <= k < 1024 }")?;
//! let c_to_b = c_to_tmp.compose(&tmp_to_b)?;
//! assert!(c_to_b.is_equal(&Relation::parse("{ [k] -> [2k] : 0 <= k < 1024 }")?)?);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod bigint;
mod conjunct;
mod constraint;
mod display;
mod dnf;
mod events;
mod feasible;
mod hash;
mod linexpr;
mod parse;
pub mod reference;
mod relation;
mod set;
mod space;

pub use arith::ArithOverflow;
pub use bigint::BigInt;
pub use conjunct::{feasibility_memo_stats, Conjunct};
pub use constraint::{Constraint, ConstraintKind};
pub use events::{solver_events, SolverEvents};
pub use hash::{structural_hash_of, StructuralHasher};
pub use linexpr::LinExpr;
pub use relation::{Relation, SamplePoint};
pub use set::Set;
pub use space::{Space, VarKind};

use std::fmt;

/// Errors produced by the omega layer.
///
/// All fallible public operations return `Result<_, OmegaError>`; the error
/// carries enough context to report which operation failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmegaError {
    /// Two operands were defined over incompatible spaces (different arity or
    /// parameter lists).
    SpaceMismatch {
        /// Description of the operation that was attempted.
        op: &'static str,
        /// Rendering of the left-hand space.
        lhs: String,
        /// Rendering of the right-hand space.
        rhs: String,
    },
    /// The text given to [`Relation::parse`] / [`Set::parse`] was malformed.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// Byte offset in the input at which the problem was detected.
        offset: usize,
    },
    /// An operation required eliminating an existential variable exactly and
    /// the implementation could not do so (outside the supported fragment).
    InexactElimination {
        /// Description of the operation that needed the elimination.
        op: &'static str,
    },
}

impl fmt::Display for OmegaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmegaError::SpaceMismatch { op, lhs, rhs } => {
                write!(f, "space mismatch in {op}: {lhs} vs {rhs}")
            }
            OmegaError::Parse { message, offset } => {
                write!(f, "parse error at offset {offset}: {message}")
            }
            OmegaError::InexactElimination { op } => {
                write!(f, "cannot exactly eliminate existential variables in {op}")
            }
        }
    }
}

impl std::error::Error for OmegaError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, OmegaError>;
