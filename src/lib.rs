//! # arrayeq
//!
//! Façade crate of the *arrayeq* workspace: a reproduction of the DATE 2005
//! paper *"Functional Equivalence Checking for Verification of Algebraic
//! Transformations on Array-Intensive Source Code"* (Shashidhar, Bruynooghe,
//! Catthoor, Janssens), grown into a persistent verification engine.
//!
//! The workspace is organised as one crate per subsystem; this crate simply
//! re-exports their public APIs under stable module names so applications can
//! depend on a single crate:
//!
//! * [`engine`] — **the recommended entry point**: a long-lived
//!   [`Verifier`](engine::Verifier) with cross-query shared caches, one
//!   request path ([`Verifier::verify`](engine::Verifier::verify)) whose
//!   requests carry their budgets (deadline / cancellation / work limit) and
//!   an optional incremental baseline, and JSON rendering,
//! * [`omega`] — integer sets and affine relations (the Omega-calculator
//!   substrate),
//! * [`lang`] — the restricted-C frontend, class checks, def-use analysis and
//!   the reference interpreter,
//! * [`addg`] — array data dependence graphs (plus content fingerprints for
//!   cross-query tabling),
//! * [`core`] — the equivalence checker (basic and extended methods) with
//!   error diagnostics: [`core::lower`] is the front end for one program,
//!   [`core::check`] the traversal over two lowered graphs,
//! * [`transform`] — source-to-source transformations, error injection,
//!   fault-injection mutation harness and workload generators,
//! * [`witness`] — concrete counterexamples for `NotEquivalent` verdicts:
//!   Omega model extraction, interpreter replay and failing-slice export
//!   (folded into the engine via
//!   [`VerifierBuilder::witnesses`](engine::VerifierBuilder::witnesses)).
//!
//! ## Quick start
//!
//! Construct a [`Verifier`](engine::Verifier) once and issue queries against
//! it, from as many threads as you like; the session amortises sub-proofs
//! and Omega-test verdicts across queries and threads:
//!
//! ```
//! use arrayeq::engine::{Verifier, VerifyRequest};
//!
//! let original = r#"
//!     #define N 16
//!     void f(int A[], int C[]) {
//!         int k;
//!         for (k = 0; k < N; k++)
//!     s1:     C[k] = A[2*k] + A[k];
//!     }
//! "#;
//! let transformed = r#"
//!     #define N 16
//!     void f(int A[], int C[]) {
//!         int k;
//!         for (k = 15; k >= 0; k--)
//!     t1:     C[k] = A[k] + A[2*k];
//!     }
//! "#;
//!
//! let verifier = Verifier::builder()
//!     .witnesses(true)                                  // counterexamples on failure
//!     .deadline(std::time::Duration::from_secs(5))      // per-request budget
//!     .build();
//!
//! let request = VerifyRequest::source(original, transformed);
//! let outcome = verifier.verify(&request).unwrap();
//! assert!(outcome.report.is_equivalent());
//!
//! // Re-checks and perturbed variants reuse the session's caches...
//! let again = verifier.verify(&request).unwrap();
//! assert!(again.report.stats.shared_table_hits > 0);
//!
//! // ...also from other threads: a batch is one scoped thread per request,
//! // joined in request order.
//! let batch = [
//!     VerifyRequest::source(original, transformed),
//!     VerifyRequest::source(original, original),
//! ];
//! std::thread::scope(|s| {
//!     let threads = batch.each_ref().map(|r| s.spawn(|| verifier.verify(r)));
//!     for thread in threads {
//!         assert!(thread.join().unwrap().unwrap().report.is_equivalent());
//!     }
//! });
//! ```
//!
//! One *large* request (many outputs, wide kernels) can itself be spread
//! over a worker pool with
//! [`VerifierBuilder::jobs`](engine::VerifierBuilder::jobs) (or
//! [`CheckOptions::jobs`](core::CheckOptions) on the one-shot path): each
//! output's root obligation is one task, workers share the session caches,
//! and the verdict, diagnostics and the stable rendering
//! ([`Report::render_stable`](core::Report::render_stable)) are
//! byte-identical at every worker count:
//!
//! ```
//! use arrayeq::engine::Verifier;
//! let wide = Verifier::builder().jobs(0).build(); // 0 = all cores
//! # let _ = wide;
//! ```
//!
//! The extended method normalises algebraic chains through the
//! [`core::normalize`-backed operator algebra](core::OperatorProperties):
//! out of the box `+`/`*` flatten with constant folding, identity and
//! annihilator elements, `-`/negation fold into the `+` chain, and `*`
//! distributes one level over `+` — so factored/expanded and
//! subtraction-shuffled kernels verify.  Declare *your own* operators
//! (e.g. saturating `min`/`max`) with
//! [`VerifierBuilder::declare_call`](engine::VerifierBuilder::declare_call)
//! (CLI: `--declare-op min=ac`):
//!
//! ```
//! use arrayeq::engine::{OperatorClass, Verifier};
//! let verifier = Verifier::builder()
//!     .declare_call("min", OperatorClass::AC)
//!     .build();
//! # let _ = verifier;
//! ```
//!
//! The engine drives the checker's two stages, which `core` also exports
//! for callers that want the pipeline without a session:
//! [`core::lower`] (parameter promotion, class and def-use checks, ADDG
//! extraction) and [`core::check`] (the synchronized traversal under a
//! per-call [`core::CheckContext`]).  A one-off check with counterexamples
//! is a [`Verifier`](engine::Verifier) built with
//! [`witnesses(true)`](engine::VerifierBuilder::witnesses).
//!
//! ## The `arrayeq` CLI
//!
//! The `crates/cli` binary exposes the engine on the command line:
//!
//! ```text
//! arrayeq verify a.c b.c [--method basic|extended] [--declare-op name=ac]...
//!                        [--witnesses] [--json] [--dot out.dot]
//!                        [--deadline-ms N] [--max-work N] [--jobs N]
//! arrayeq corpus --list          # built-in programs and fault-corpus mutants
//! arrayeq corpus fig1a           # print one of them
//! ```
//!
//! Exit codes are the machine contract: `0` equivalent, `1` not equivalent,
//! `2` inconclusive (typed budget reason in the JSON), `>2` usage or
//! pipeline error.  `--json` emits the full outcome — verdict, stats,
//! diagnostics, witnesses, session counters — as a single document parsable
//! with [`engine::JsonValue::parse`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arrayeq_addg as addg;
pub use arrayeq_core as core;
pub use arrayeq_engine as engine;
pub use arrayeq_lang as lang;
pub use arrayeq_omega as omega;
pub use arrayeq_transform as transform;
pub use arrayeq_witness as witness;
