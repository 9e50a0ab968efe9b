//! # arrayeq-engine
//!
//! The persistent verification engine: a long-lived [`Verifier`] that
//! amortises work *across* equivalence queries, where `arrayeq-core`'s
//! [`arrayeq_core::lower`] and [`arrayeq_core::check`] run one call at a
//! time.
//!
//! The DATE 2005 checker is presented as a single procedure, but a
//! verification service re-checks: the same pair after every refactoring
//! step, perturbed variants of a corpus, many pairs under one policy.  Those
//! queries overlap heavily — the same sub-ADDGs, the same composed
//! dependency mappings, the same feasibility questions — so the engine owns
//! one shared, lock-striped store that outlives every call: the **proof
//! cache** ([`arrayeq_core::ProofCache`], keyed by content fingerprints of
//! the traversal positions, [`arrayeq_addg::fingerprints`], plus the
//! structural hashes of the output-current mappings) through which every
//! established sub-proof discharges later sub-traversals, across queries
//! and threads.  It holds the session's own proofs, the entries of an
//! attached [`ProofStore`] and those of every baseline a request carried
//! ([`VerifyRequest::with_baseline`]), each with its provenance;
//! [`Verifier::export_baseline`] and [`Verifier::flush_store`] write from
//! it.  Feasibility questions repeat too, and `arrayeq-omega` memoises
//! their verdicts per thread ([`arrayeq_omega::Conjunct::is_feasible`]);
//! that memo outlives each query on its thread, so it needs no engine state.
//!
//! Every query goes through one pipeline, [`Verifier::verify`].  A
//! [`VerifyRequest`] carries the pair (source, programs or ADDGs), its
//! [`RequestLimits`] and, for an incremental re-check, a baseline.  The
//! engine enforces **budgets**: the work limit of
//! [`CheckOptions::max_work`], a wall-clock [`VerifierBuilder::deadline`]
//! (both overridable per request) and a per-request cooperative
//! [`CancelToken`].  Each surfaces as [`Verdict::Inconclusive`] with a
//! typed [`BudgetExhausted`] reason instead of a hang.  The engine is
//! `Sync`, so a batch is a `std::thread::scope` whose threads call
//! [`Verifier::verify`] on one engine and share its caches.
//!
//! Witness extraction is an engine *option* ([`VerifierBuilder::witnesses`],
//! overridable per request) rather than a separate entry point: a
//! `NotEquivalent` verdict comes back with concrete, replay-confirmed
//! counterexamples already attached.
//!
//! ```
//! use arrayeq_engine::{Verifier, VerifyRequest};
//! use arrayeq_lang::corpus::{FIG1_A, FIG1_C, FIG1_D};
//!
//! let verifier = Verifier::builder().witnesses(true).build();
//! let ok = verifier
//!     .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
//!     .unwrap();
//! assert!(ok.report.is_equivalent());
//!
//! let bad = verifier
//!     .verify(&VerifyRequest::source(FIG1_A, FIG1_D))
//!     .unwrap();
//! assert!(!bad.report.is_equivalent());
//! assert!(bad.report.witnesses.iter().any(|w| w.confirmed));
//!
//! // The session remembers: re-checking reuses established sub-proofs.
//! let again = verifier
//!     .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
//!     .unwrap();
//! assert!(again.report.stats.shared_table_hits > 0);
//! assert_eq!(verifier.session_stats().queries, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod json;
mod store;

pub use baseline::{
    baseline_to_json, options_fingerprint, Baseline, BaselineRejection, BaselineStatus,
    BASELINE_FORMAT,
};
pub use json::{
    hex64, outcome_to_json, parse_hex64, report_to_json, session_to_json, stats_from_json,
    stats_to_json, string as json_string, verdict_from_str, verdict_str, witness_to_json,
    JsonError, JsonValue,
};
pub use store::{ProofStore, StoreFlush, StoreWarning, StoreWarningKind, STORE_FORMAT};

/// Re-exported core vocabulary so engine users need only one import path.
pub use arrayeq_core::{
    BudgetExhausted, CancelToken, CheckOptions, CheckStats, Focus, Method, OperatorClass,
    OperatorProperties, Report, Verdict, Witness,
};
/// Re-exported witness tuning knobs ([`VerifierBuilder::witness_options`]).
pub use arrayeq_witness::WitnessOptions;

use arrayeq_addg::Addg;
use arrayeq_core::{check, lower, CheckContext, ProofCache, Result};
use arrayeq_lang::ast::Program;
use arrayeq_lang::parser::parse_program;
use arrayeq_witness::extract_witnesses;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One verification query: a pair at any pipeline stage, with its budgets
/// and, for an incremental re-check, a baseline.
///
/// [`VerifyRequest::source`] runs the full Fig. 6 flow (parse → class check
/// → def-use check → extraction → check); [`VerifyRequest::programs`] skips
/// parsing; [`VerifyRequest::addgs`] goes straight to the synchronized
/// traversal.  Witness extraction needs programs to replay, so ADDG requests
/// never carry witnesses even when the engine has them enabled.
#[derive(Debug, Clone)]
pub struct VerifyRequest {
    input: Input,
    limits: RequestLimits,
    baseline: Option<String>,
}

/// The pair of a [`VerifyRequest`], at the stage the caller has it.
#[derive(Debug, Clone)]
enum Input {
    Source {
        original: String,
        transformed: String,
    },
    Programs {
        original: Box<Program>,
        transformed: Box<Program>,
    },
    Addgs {
        original: Box<Addg>,
        transformed: Box<Addg>,
    },
}

impl VerifyRequest {
    /// A source-text request.
    pub fn source(original: impl Into<String>, transformed: impl Into<String>) -> Self {
        Self::new(Input::Source {
            original: original.into(),
            transformed: transformed.into(),
        })
    }

    /// A parsed-program request.
    pub fn programs(original: Program, transformed: Program) -> Self {
        Self::new(Input::Programs {
            original: Box::new(original),
            transformed: Box::new(transformed),
        })
    }

    /// An extracted-ADDG request.
    pub fn addgs(original: Addg, transformed: Addg) -> Self {
        Self::new(Input::Addgs {
            original: Box::new(original),
            transformed: Box::new(transformed),
        })
    }

    fn new(input: Input) -> Self {
        VerifyRequest {
            input,
            limits: RequestLimits::default(),
            baseline: None,
        }
    }

    /// Attaches per-request overrides of the engine's budgets.  Budgets
    /// are not verdict-relevant (they are excluded from
    /// [`options_fingerprint`]), so overriding them is sound against the
    /// shared caches and the proof store.
    pub fn with_limits(mut self, limits: RequestLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches `baseline`, a document exported by an earlier run
    /// ([`Verifier::export_baseline`]), so the request is re-checked
    /// *incrementally* against it.
    ///
    /// The request runs through the same pipeline as any other, parameter
    /// promotion and front-end checks included, so it proves the same
    /// claim.  The baseline is vetted first: a parse failure, an
    /// options-fingerprint mismatch or a different program interface
    /// rejects it with a typed [`BaselineRejection`] and the request runs
    /// from scratch — same verdict, just no reuse.  An accepted baseline is
    /// applied at two levels: outputs whose root obligations it already
    /// proves are classified **clean** and skipped entirely (the dirty-cone
    /// focus,
    /// [`CheckContext::clean_outputs`](arrayeq_core::CheckContext::clean_outputs)),
    /// and its entries join the session's proof cache as baseline entries,
    /// where they discharge sub-traversals inside the remaining dirty cone
    /// and in every later query, and go into later baselines and store
    /// flushes.  [`Outcome::baseline`] reports which happened.
    ///
    /// Because baselines carry only positive assumption-free sub-proofs and
    /// failures always re-derive their full diagnostics, the resulting
    /// report's [`Report::render_stable`] is byte-identical to a
    /// from-scratch run on the same pair.
    pub fn with_baseline(mut self, baseline: impl Into<String>) -> Self {
        self.baseline = Some(baseline.into());
        self
    }
}

/// Per-request overrides of the engine's budgets, attached with
/// [`VerifyRequest::with_limits`] — what lets a daemon schedule requests
/// with different deadlines, work budgets and cancellation scopes on one
/// shared engine.
///
/// Every field is *budget-only*: none is verdict-relevant (all are excluded
/// from [`options_fingerprint`]), so overriding them per request is sound
/// against the shared caches and the proof store.  `None` inherits the
/// engine-wide setting.
#[derive(Debug, Clone, Default)]
pub struct RequestLimits {
    /// Wall-clock budget for this request (overrides
    /// [`VerifierBuilder::deadline`]).
    pub deadline: Option<Duration>,
    /// Traversal work budget for this request (overrides
    /// [`CheckOptions::max_work`]).
    pub max_work: Option<u64>,
    /// Witness extraction for this request (overrides
    /// [`VerifierBuilder::witnesses`]).
    pub witnesses: Option<bool>,
    /// Cancellation scope for this request: the caller keeps a clone and
    /// [`CancelToken::cancel`] winds the request down.  One token may be
    /// shared by many requests; a request without one cannot be cancelled
    /// (the daemon registers one token per in-flight request, so one
    /// client's cancel never touches another's).
    pub cancel: Option<CancelToken>,
}

/// The result of one engine query: the checker's [`Report`] (with witnesses
/// attached when enabled), the request's wall time and a snapshot of the
/// session counters *after* the request.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Verdict, diagnostics, witnesses and per-request work counters.
    pub report: Report,
    /// Total request wall time (parsing, extraction, check, witnesses) in
    /// microseconds.
    pub wall_time_us: u64,
    /// Cumulative session statistics, sampled when this request finished.
    pub session: SessionStats,
    /// What happened to the request's baseline: `Some` exactly when the
    /// request carried one ([`VerifyRequest::with_baseline`]).
    pub baseline: Option<BaselineStatus>,
}

/// Cumulative counters of one [`Verifier`] session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests completed (including error outcomes).
    pub queries: u64,
    /// Requests that came back [`Verdict::Equivalent`].
    pub equivalent: u64,
    /// Requests that came back [`Verdict::NotEquivalent`].
    pub not_equivalent: u64,
    /// Requests that came back [`Verdict::Inconclusive`].
    pub inconclusive: u64,
    /// Requests that failed with a pipeline error.
    pub errors: u64,
    /// Entries currently held by the session's proof cache, whatever their
    /// provenance: the session's own sub-proofs and the entries seeded from
    /// the proof store and from applied baselines.
    pub shared_table_entries: u64,
    /// [`CheckStats::shared_table_lookups`], summed over all requests.
    pub shared_table_lookups: u64,
    /// [`CheckStats::shared_table_hits`], summed over all requests.
    pub shared_table_hits: u64,
    /// Always 0: the engine holds no feasibility memo of its own (each
    /// thread memoises its verdicts in `arrayeq-omega`, see
    /// [`arrayeq_omega::feasibility_memo_stats`]).  Kept only because the
    /// benchmark harness reads it; not part of [`session_to_json`].
    pub feasibility_hits: u64,
    /// [`CheckStats::table_lookups`], summed over all requests.
    pub table_lookups: u64,
    /// [`CheckStats::table_hits`], summed over all requests.
    pub table_hits: u64,
    /// [`CheckStats::store_hits`], summed over all requests (a subset of
    /// [`SessionStats::shared_table_hits`]).
    pub store_hits: u64,
    /// Equivalence entries loaded from the persistent proof store when the
    /// engine was built (0 without a store).
    pub store_eq_loaded: u64,
    /// Total check time over all requests, microseconds.
    pub check_time_us: u64,
    /// Total witness-extraction time over all requests, microseconds.
    pub witness_time_us: u64,
}

impl SessionStats {
    /// Fraction of all proof-cache lookups answered by any sub-proof over
    /// the whole session (the cross-query reuse measure).
    pub fn combined_hit_rate(&self) -> f64 {
        if self.table_lookups == 0 {
            0.0
        } else {
            (self.table_hits + self.shared_table_hits) as f64 / self.table_lookups as f64
        }
    }
}

/// Configures and constructs a [`Verifier`].
#[derive(Debug, Clone, Default)]
pub struct VerifierBuilder {
    options: CheckOptions,
    witness_options: WitnessOptions,
    witnesses: bool,
    deadline: Option<Duration>,
    trace_sink: Option<Arc<arrayeq_trace::Collector>>,
    metrics: bool,
    store_dir: Option<PathBuf>,
}

impl VerifierBuilder {
    /// Replaces the checker options wholesale.
    ///
    /// The options are fixed for the engine's lifetime: the proof cache's
    /// entries are only valid under the options that produced them, so
    /// they cannot change per request.
    pub fn options(mut self, options: CheckOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the basic or extended method (shorthand over [`Self::options`]).
    pub fn method(mut self, method: Method) -> Self {
        self.options.method = method;
        self
    }

    /// Sets the per-request traversal work budget.
    pub fn max_work(mut self, max_work: u64) -> Self {
        self.options.max_work = max_work;
        self
    }

    /// Declares symbolic parameters to promote in every request's programs
    /// (shorthand for [`CheckOptions::params`] via [`Self::options`]; the
    /// CLI surface `--param NAME>=MIN` maps here).  Verdict-relevant, so it
    /// participates in the baseline options fingerprint.
    pub fn params(mut self, params: Vec<(String, i64)>) -> Self {
        self.options.params = params;
        self
    }

    /// Replaces the operator property declarations wholesale (shorthand
    /// over [`Self::options`]).  Like every option, fixed for the engine's
    /// lifetime: the proof cache's entries are only valid under the algebra
    /// that produced them.
    pub fn operators(mut self, operators: OperatorProperties) -> Self {
        self.options.operators = operators;
        self
    }

    /// Declares the algebraic class of a user function by name (e.g.
    /// `min`/`max` as [`OperatorClass::AC`]), enabling flattening and
    /// matching at its call nodes.  Repeatable; the CLI surface
    /// `--declare-op name=ac` maps here through
    /// [`OperatorProperties::declare_spec`].
    pub fn declare_call(mut self, name: impl Into<String>, class: OperatorClass) -> Self {
        self.options.operators = self.options.operators.clone().declare_call(name, class);
        self
    }

    /// Sets the *intra-query* worker count: each output of a request is one
    /// task, its root obligation, and a scoped worker pool of up to this
    /// width (never wider than the request has outputs) drains the tasks
    /// (shorthand for [`CheckOptions::jobs`] via [`Self::options`]).
    ///
    /// `1` (the default) runs each request on the calling thread; `0` uses
    /// all available parallelism.  The workers of one request share this
    /// engine's proof cache, so sub-proofs established by one worker
    /// discharge identical obligations on the others mid-run.
    /// Verdicts, diagnostics and witnesses are identical at every setting
    /// ([`Report::render_stable`] is byte-stable); the cache/work counters
    /// in [`CheckStats`] are scheduling-dependent once `jobs > 1`.
    ///
    /// `jobs` scales the latency of one large request; callers that run
    /// many requests at once on their own threads multiply it by their
    /// thread count, so a batch of wide requests usually wants it at 1.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Enables or disables witness extraction for `NotEquivalent` verdicts
    /// (the default of [`RequestLimits::witnesses`]).
    pub fn witnesses(mut self, enabled: bool) -> Self {
        self.witnesses = enabled;
        self
    }

    /// Tunes witness extraction (implies nothing about [`Self::witnesses`]).
    pub fn witness_options(mut self, wopts: WitnessOptions) -> Self {
        self.witness_options = wopts;
        self
    }

    /// Sets a wall-clock budget applied to every request.  An overrun during
    /// the traversal yields [`Verdict::Inconclusive`] with
    /// [`BudgetExhausted::DeadlineExceeded`].  Witness extraction never
    /// *starts* past the deadline (the `NotEquivalent` verdict is returned
    /// without counterexamples); once started it runs to its own
    /// point/fill budgets ([`WitnessOptions`]), which bound it
    /// independently of the clock.  [`RequestLimits::deadline`] overrides
    /// it per request.
    pub fn deadline(mut self, per_request: Duration) -> Self {
        self.deadline = Some(per_request);
        self
    }

    /// Installs `sink` as the *process-global* trace collector when the
    /// engine is built, enabling structured proof tracing (spans, discharge
    /// provenance) on every request.  Tracing is instrumentation-only: it
    /// never changes verdicts, diagnostics or [`Report::render_stable`].
    ///
    /// The sink is process state (trace emission sites live below the
    /// engine, down to the Omega layer), so it stays installed until
    /// [`arrayeq_trace::uninstall`] — typically called after the session to
    /// serialize the events.
    pub fn trace_sink(mut self, sink: Arc<arrayeq_trace::Collector>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Enables the session metrics registry: log2-bucket latency histograms
    /// for the four hot operations (feasibility, composition, flatten,
    /// match), aggregated across every query of this engine.  Snapshot via
    /// [`Verifier::metrics_snapshot`].
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Attaches a persistent on-disk proof store (see [`ProofStore`]).  At
    /// build time the store's entries seed the proof cache;
    /// [`Verifier::flush_store`] and
    /// [`Verifier::checkpoint_store`] persist the session's new sub-proofs
    /// back.  Problems inside the store files degrade to a cold start with
    /// typed warnings ([`Verifier::store_warnings`]) — they never change
    /// verdicts and never make [`VerifierBuilder::build`] fail.
    pub fn store(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// Constructs the engine.
    pub fn build(self) -> Verifier {
        if let Some(sink) = &self.trace_sink {
            arrayeq_trace::install(sink.clone());
        }
        let metrics = self.metrics.then(|| {
            let m = Arc::new(arrayeq_trace::Metrics::new());
            arrayeq_trace::install_metrics(m.clone());
            m
        });
        let proofs = ProofCache::new();
        let mut store_warnings = Vec::new();
        let store = self.store_dir.as_ref().and_then(|dir| {
            match ProofStore::open(dir, baseline::options_fingerprint(&self.options)) {
                Ok(s) => Some(Arc::new(s)),
                Err(e) => {
                    store_warnings.push(StoreWarning {
                        kind: StoreWarningKind::Io,
                        file: dir.display().to_string(),
                        message: format!("cannot open store directory ({e}); running without"),
                    });
                    None
                }
            }
        });
        let mut store_eq_loaded = 0;
        if let Some(s) = &store {
            store_warnings.extend(s.warnings().iter().cloned());
            proofs.seed_store(s.eq_entries());
            store_eq_loaded = s.loaded_count();
        }
        Verifier {
            proofs,
            options: self.options,
            witness_options: self.witness_options,
            witnesses: self.witnesses,
            deadline: self.deadline,
            counters: Counters::default(),
            metrics,
            store,
            store_warnings,
            store_eq_loaded,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    equivalent: AtomicU64,
    not_equivalent: AtomicU64,
    inconclusive: AtomicU64,
    errors: AtomicU64,
    table_lookups: AtomicU64,
    table_hits: AtomicU64,
    shared_table_lookups: AtomicU64,
    shared_table_hits: AtomicU64,
    store_hits: AtomicU64,
    check_time_us: AtomicU64,
    witness_time_us: AtomicU64,
}

/// The persistent verification engine.  See the crate docs for the design;
/// construct via [`Verifier::builder`], share freely across threads (all
/// methods take `&self`).
pub struct Verifier {
    options: CheckOptions,
    witness_options: WitnessOptions,
    witnesses: bool,
    deadline: Option<Duration>,
    proofs: ProofCache,
    counters: Counters,
    metrics: Option<Arc<arrayeq_trace::Metrics>>,
    store: Option<Arc<ProofStore>>,
    store_warnings: Vec<StoreWarning>,
    store_eq_loaded: usize,
}

impl Verifier {
    /// Starts configuring an engine.
    pub fn builder() -> VerifierBuilder {
        VerifierBuilder::default()
    }

    /// An engine with all defaults (extended method, no witnesses, no
    /// deadline).
    pub fn new() -> Verifier {
        Self::builder().build()
    }

    /// The checker options this engine runs every request with.
    pub fn options(&self) -> &CheckOptions {
        &self.options
    }

    /// Runs one verification query: lower the request's pair with
    /// [`lower`], vet and apply its baseline if it carries one (which seeds
    /// the baseline's entries into the session's proof cache), [`check`]
    /// with the session caches and the request's budgets wired in, attach
    /// witnesses, and book the outcome.
    ///
    /// # Errors
    ///
    /// Propagates the pipeline errors of [`arrayeq_core::lower`] and
    /// [`arrayeq_core::check`] (parse/class/def-use failures, incomparable
    /// interfaces).  Inequivalence and exhausted budgets are *verdicts*,
    /// and baseline problems are *statuses* ([`Outcome::baseline`]), not
    /// errors.
    pub fn verify(&self, request: &VerifyRequest) -> Result<Outcome> {
        let started = Instant::now();
        let result = self.run(request);
        self.finish(result, started)
    }

    /// The pipeline of [`Verifier::verify`], up to the booking: the report
    /// and, when the request carried a baseline, its status.
    fn run(&self, request: &VerifyRequest) -> Result<(Report, Option<BaselineStatus>)> {
        let limits = &request.limits;
        let vetted = request
            .baseline
            .as_deref()
            .map(|text| Baseline::vet(text, self.options_fingerprint()));
        let opts_override;
        let opts = match limits.max_work {
            Some(w) => {
                opts_override = CheckOptions {
                    max_work: w,
                    ..self.options.clone()
                };
                &opts_override
            }
            None => &self.options,
        };
        let mut ctx = CheckContext {
            proofs: Some(&self.proofs),
            deadline: limits
                .deadline
                .or(self.deadline)
                .map(|d| Instant::now() + d),
            cancel: limits.cancel.as_ref(),
            ..CheckContext::default()
        };
        // ADDG requests arrive lowered and carry no programs to replay
        // witnesses on; everything else goes through the front end.
        let (parsed, lowered);
        let (programs, g1, g2) = match &request.input {
            Input::Source {
                original,
                transformed,
            } => {
                parsed = {
                    let _span = arrayeq_trace::span("parse");
                    [parse_program(original)?, parse_program(transformed)?]
                };
                lowered = [lower(&parsed[0], opts)?, lower(&parsed[1], opts)?];
                (Some((&parsed[0], &parsed[1])), &lowered[0], &lowered[1])
            }
            Input::Programs {
                original,
                transformed,
            } => {
                lowered = [lower(original, opts)?, lower(transformed, opts)?];
                (
                    Some((&**original, &**transformed)),
                    &lowered[0],
                    &lowered[1],
                )
            }
            Input::Addgs {
                original,
                transformed,
            } => (None, &**original, &**transformed),
        };
        let applied = vetted.as_ref().map(|vetted| {
            vetted
                .as_ref()
                .map_err(BaselineRejection::clone)
                .and_then(|b| b.apply(g1, g2, opts, &self.proofs))
        });
        if let Some(Ok(applied)) = &applied {
            ctx.clean_outputs = &applied.clean;
            ctx.fingerprints = Some(&applied.fingerprints);
        }
        let mut report = check(g1, g2, opts, &ctx)?;
        if let Some((p1, p2)) = programs {
            let enabled = limits.witnesses.unwrap_or(self.witnesses);
            self.attach_witnesses(p1, p2, &mut report, &ctx, enabled)?;
        }
        let status = applied.map(|applied| match applied {
            Ok(applied) => applied.finish(&mut report),
            Err(rejection) => BaselineStatus::Rejected(rejection),
        });
        Ok((report, status))
    }

    /// Books one finished request into the session counters and wraps the
    /// report into an [`Outcome`].
    fn finish(
        &self,
        result: Result<(Report, Option<BaselineStatus>)>,
        started: Instant,
    ) -> Result<Outcome> {
        let wall_time_us = started.elapsed().as_micros() as u64;
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok((report, baseline)) => {
                let bucket = match report.verdict {
                    Verdict::Equivalent => &self.counters.equivalent,
                    Verdict::NotEquivalent => &self.counters.not_equivalent,
                    Verdict::Inconclusive => &self.counters.inconclusive,
                };
                bucket.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .table_lookups
                    .fetch_add(report.stats.table_lookups, Ordering::Relaxed);
                self.counters
                    .table_hits
                    .fetch_add(report.stats.table_hits, Ordering::Relaxed);
                self.counters
                    .shared_table_lookups
                    .fetch_add(report.stats.shared_table_lookups, Ordering::Relaxed);
                self.counters
                    .shared_table_hits
                    .fetch_add(report.stats.shared_table_hits, Ordering::Relaxed);
                self.counters
                    .store_hits
                    .fetch_add(report.stats.store_hits, Ordering::Relaxed);
                self.counters
                    .check_time_us
                    .fetch_add(report.stats.check_time_us, Ordering::Relaxed);
                self.counters
                    .witness_time_us
                    .fetch_add(report.stats.witness_time_us, Ordering::Relaxed);
                Ok(Outcome {
                    report,
                    wall_time_us,
                    session: self.session_stats(),
                    baseline,
                })
            }
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// A snapshot of the session latency histograms, or `None` when the
    /// engine was built without [`VerifierBuilder::metrics`].
    pub fn metrics_snapshot(&self) -> Option<arrayeq_trace::MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot())
    }

    /// A snapshot of the cumulative session counters.
    pub fn session_stats(&self) -> SessionStats {
        SessionStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            equivalent: self.counters.equivalent.load(Ordering::Relaxed),
            not_equivalent: self.counters.not_equivalent.load(Ordering::Relaxed),
            inconclusive: self.counters.inconclusive.load(Ordering::Relaxed),
            errors: self.counters.errors.load(Ordering::Relaxed),
            shared_table_entries: self.proofs.len() as u64,
            shared_table_lookups: self.counters.shared_table_lookups.load(Ordering::Relaxed),
            shared_table_hits: self.counters.shared_table_hits.load(Ordering::Relaxed),
            feasibility_hits: 0,
            table_lookups: self.counters.table_lookups.load(Ordering::Relaxed),
            table_hits: self.counters.table_hits.load(Ordering::Relaxed),
            store_hits: self.counters.store_hits.load(Ordering::Relaxed),
            store_eq_loaded: self.store_eq_loaded as u64,
            check_time_us: self.counters.check_time_us.load(Ordering::Relaxed),
            witness_time_us: self.counters.witness_time_us.load(Ordering::Relaxed),
        }
    }

    /// Attaches replay-confirmed counterexamples to a `NotEquivalent`
    /// report when witnesses are enabled.
    ///
    /// Witness extraction is bounded by its own point/fill budgets (see
    /// `WitnessOptions`), not by the traversal deadline — but a request
    /// whose wall-clock budget is already spent (or that was cancelled)
    /// must not start it: the NotEquivalent verdict stands, just without
    /// counterexamples attached.
    fn attach_witnesses(
        &self,
        original: &Program,
        transformed: &Program,
        report: &mut Report,
        ctx: &CheckContext<'_>,
        enabled: bool,
    ) -> Result<()> {
        let budget_left = !ctx.cancel.is_some_and(CancelToken::is_cancelled)
            && ctx
                .deadline
                .is_none_or(|deadline| Instant::now() < deadline);
        if enabled && budget_left && report.verdict == Verdict::NotEquivalent {
            let started = Instant::now();
            report.witnesses =
                extract_witnesses(original, transformed, report, &self.witness_options)?;
            report.stats.witness_time_us = started.elapsed().as_micros() as u64;
        }
        Ok(())
    }

    /// The fingerprint of this engine's verdict-relevant options — the
    /// compatibility key stamped into exported baselines and checked on
    /// import (see [`options_fingerprint`]).
    pub fn options_fingerprint(&self) -> u64 {
        baseline::options_fingerprint(&self.options)
    }

    /// Whether a persistent proof store is attached to this engine.
    pub fn has_store(&self) -> bool {
        self.store.is_some()
    }

    /// Typed warnings collected while opening the proof store (empty
    /// without a store, or when the store was clean).
    pub fn store_warnings(&self) -> &[StoreWarning] {
        &self.store_warnings
    }

    /// The attached store's current compaction epoch, when one is attached.
    pub fn store_epoch(&self) -> Option<u64> {
        self.store.as_ref().map(|s| s.epoch())
    }

    /// Persists the session's proof cache (its own sub-proofs and every
    /// seeded baseline entry) to the attached store's append-only log,
    /// skipping entries already on disk.  The store holds proof keys only;
    /// feasibility verdicts stay in each thread's memo and are never
    /// persisted.  `Ok(None)` without a store.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the store files.
    pub fn flush_store(&self) -> io::Result<Option<StoreFlush>> {
        match &self.store {
            None => Ok(None),
            Some(s) => s.flush(self.proofs.entries()).map(Some),
        }
    }

    /// Compacts the attached store into a fresh snapshot carrying every
    /// proof key persisted so far plus the session's proof cache, bumping
    /// the epoch and truncating the log.  The snapshot holds proof keys
    /// only, so a store that still carried legacy feasibility (`fs`) lines
    /// is rewritten without them.  Returns the new epoch; `Ok(None)` without
    /// a store or when the store's writes are disabled (options mismatch on
    /// disk).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures writing the store files.
    pub fn checkpoint_store(&self) -> io::Result<Option<u64>> {
        match &self.store {
            None => Ok(None),
            Some(s) => s.checkpoint(self.proofs.entries()),
        }
    }

    /// Exports a baseline for later incremental re-verification: this
    /// engine's options fingerprint, the per-output position fingerprints
    /// recorded in `report`, and every entry of the session's proof cache
    /// (each a positive, assumption-free sub-proof).
    ///
    /// The cache is session-cumulative, so a baseline exported after many
    /// queries carries the union of their sub-proofs, the store's entries
    /// and those of every baseline applied in the session — sound, because
    /// every entry is content-keyed and means the same thing in any
    /// process.  A baseline exported from an incremental run therefore
    /// still proves the outputs that run skipped as clean.
    /// Pass the report of the run whose pair the baseline should describe;
    /// its output fingerprints gate the program-identity check on import.
    pub fn export_baseline(&self, report: &Report) -> String {
        let outputs: Vec<(String, u64, u64, Option<u64>)> = report
            .output_fingerprints
            .iter()
            .map(|(name, fa, fb)| {
                let dh = report
                    .output_domain_hashes
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, h)| *h);
                (name.clone(), *fa, *fb, dh)
            })
            .collect();
        baseline_to_json(self.options_fingerprint(), &outputs, &self.proofs.entries())
    }

    /// [`Verifier::verify`] of `request` with `baseline_json` attached
    /// ([`VerifyRequest::with_baseline`]).
    ///
    /// # Errors
    ///
    /// Same as [`Verifier::verify`].
    pub fn verify_incremental(
        &self,
        request: &VerifyRequest,
        baseline_json: &str,
    ) -> Result<Outcome> {
        self.verify(&request.clone().with_baseline(baseline_json))
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C, FIG1_D};

    #[test]
    fn one_shot_equivalence_and_witnesses() {
        let v = Verifier::builder().witnesses(true).build();
        let eq = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
        assert!(eq.report.is_equivalent());
        assert!(eq.report.witnesses.is_empty());

        let neq = v.verify(&VerifyRequest::source(FIG1_A, FIG1_D)).unwrap();
        assert_eq!(neq.report.verdict, Verdict::NotEquivalent);
        assert!(neq.report.witnesses.iter().any(|w| w.confirmed));
        assert!(neq.report.stats.witness_time_us > 0);

        let s = v.session_stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.equivalent, 1);
        assert_eq!(s.not_equivalent, 1);
    }

    #[test]
    fn repeat_queries_hit_the_shared_caches() {
        let v = Verifier::new();
        let first = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
        assert_eq!(first.report.stats.shared_table_hits, 0);
        assert!(first.report.stats.shared_table_inserts > 0);
        let second = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
        assert!(second.report.stats.shared_table_hits > 0);
        let s = v.session_stats();
        assert!(s.shared_table_entries > 0);
        assert!(s.shared_table_hits > 0);
        assert!(s.combined_hit_rate() > 0.0);
    }

    #[test]
    fn declared_operator_classes_reach_the_checker() {
        let src_a = "#define N 8\nvoid f(int X[], int Y[], int C[]) { int k; for (k=0;k<N;k++) s1: C[k] = qmax(X[k], Y[k]); }";
        let src_b = "#define N 8\nvoid f(int X[], int Y[], int C[]) { int k; for (k=0;k<N;k++) t1: C[k] = qmax(Y[k], X[k]); }";
        let plain = Verifier::new();
        assert_eq!(
            plain
                .verify(&VerifyRequest::source(src_a, src_b))
                .unwrap()
                .report
                .verdict,
            Verdict::NotEquivalent,
            "undeclared calls are uninterpreted"
        );
        let declared = Verifier::builder()
            .declare_call("qmax", OperatorClass::AC)
            .build();
        assert!(declared
            .verify(&VerifyRequest::source(src_a, src_b))
            .unwrap()
            .report
            .is_equivalent());
        let via_spec = Verifier::builder()
            .operators(
                OperatorProperties::default()
                    .declare_spec("qmax=ac")
                    .unwrap(),
            )
            .build();
        assert!(via_spec
            .verify(&VerifyRequest::source(src_a, src_b))
            .unwrap()
            .report
            .is_equivalent());
    }

    #[test]
    fn pipeline_errors_count_as_queries_and_errors() {
        let v = Verifier::new();
        assert!(v
            .verify(&VerifyRequest::source(FIG1_A, FIG1_B))
            .unwrap()
            .report
            .is_equivalent());
        assert!(
            v.verify(&VerifyRequest::source(FIG1_A, "not a program"))
                .is_err(),
            "a parse failure is an error, not a verdict"
        );
        let s = v.session_stats();
        assert_eq!(s.queries, 2);
        assert_eq!(s.equivalent, 1);
        assert_eq!(s.errors, 1);
    }

    #[test]
    fn addg_requests_skip_witness_extraction() {
        use arrayeq_addg::extract;
        use arrayeq_lang::parser::parse_program;
        let g1 = extract(&parse_program(FIG1_A).unwrap()).unwrap();
        let g2 = extract(&parse_program(FIG1_D).unwrap()).unwrap();
        let v = Verifier::builder().witnesses(true).build();
        let out = v.verify(&VerifyRequest::addgs(g1, g2)).unwrap();
        assert_eq!(out.report.verdict, Verdict::NotEquivalent);
        assert!(out.report.witnesses.is_empty());
    }
}
