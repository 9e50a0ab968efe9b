//! The synchronized ADDG traversal (Section 5 of the paper).

use crate::context::{BudgetExhausted, CheckContext};
use crate::diagnostics::{Diagnostic, DiagnosticKind};
use crate::look_through::LookThroughs;
use crate::normalize::{self, TermArena};
use crate::operators::OperatorProperties;
use crate::proofs::{ProofCache, ProofKey, Provenance, QueryProofs};
use crate::report::{CheckStats, Report};
use crate::{CoreError, Result};
use arrayeq_addg::{describe_node, extract_from, fingerprints, Addg, Fingerprints, Node, NodeId};
use arrayeq_lang::affine::Analysis;
use arrayeq_lang::ast::Program;
use arrayeq_lang::classcheck::assert_in_class;
use arrayeq_lang::defuse::assert_def_use_correct;
use arrayeq_omega::{Relation, Set};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Which variant of the method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Section 5.1: handles expression propagation and loop transformations
    /// only; operands are paired strictly by position.
    Basic,
    /// Section 5.2 (default): additionally normalises associative /
    /// commutative operators with the flattening and matching operations, so
    /// global algebraic transformations are handled in the same pass.
    #[default]
    Extended,
}

/// Focused checking (Section 6.1): restrict the check to parts of the
/// programs, which both speeds it up and sharpens diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Focus {
    /// Check only these output arrays (all common outputs when empty).
    pub outputs: Vec<String>,
    /// Declared correspondences between intermediate arrays of the original
    /// and the transformed program: when the traversal reaches such a pair
    /// with identical output-current mappings it stops early, treating the
    /// pair like a matching leaf.
    pub intermediate_pairs: Vec<(String, String)>,
}

/// Options controlling a verification run.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Basic or extended method.
    pub method: Method,
    /// Operator property declarations.
    pub operators: OperatorProperties,
    /// Optional focused checking.
    pub focus: Option<Focus>,
    /// Upper bound on traversal work (node-pair visits); exceeding it yields
    /// an inconclusive verdict instead of running forever.
    pub max_work: u64,
    /// Symbolic-parameter context applied to both programs before checking:
    /// each `(name, min)` entry *promotes* the named constant to a
    /// `#param name >= min` — an existing `#define` of that name is removed,
    /// an existing `#param` gets the new bound — so loop bounds over it stay
    /// symbolic and one verification covers every admissible value.
    /// Verdict-relevant (it changes what is being proven), hence part of the
    /// engine's options fingerprint.  Empty means "check the programs as
    /// written".
    pub params: Vec<(String, i64)>,
    /// Worker threads for *one* verification run: each output's root
    /// obligation is one task, proven whole by one traversal, and a scoped
    /// pool of at most one worker per task drains the tasks.  `1` (the
    /// default) runs every task on the calling thread and spawns no thread,
    /// as does a run with a single output to check; `0` means "use all
    /// available parallelism".  Verdicts and diagnostics are identical at
    /// every setting ([`crate::Report::render_stable`] is byte-stable);
    /// cache/work counters in [`CheckStats`] are scheduling-dependent at
    /// `jobs > 1`.
    pub jobs: usize,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            method: Method::Extended,
            operators: OperatorProperties::default(),
            focus: None,
            max_work: 2_000_000,
            params: Vec::new(),
            jobs: 1,
        }
    }
}

impl CheckOptions {
    /// Options for the basic method of Section 5.1.
    pub fn basic() -> Self {
        CheckOptions {
            method: Method::Basic,
            ..Default::default()
        }
    }

    /// Sets the worker count for one verification run (see
    /// [`CheckOptions::jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Declares symbolic parameters to promote in both programs (see
    /// [`CheckOptions::params`]).
    pub fn with_params(mut self, params: Vec<(String, i64)>) -> Self {
        self.params = params;
        self
    }

    /// Sets a focus.
    pub fn with_focus(mut self, focus: Focus) -> Self {
        self.focus = Some(focus);
        self
    }

    /// The content fingerprints that proof keys are built from under these
    /// options.  Intermediate array names are folded in only when they are
    /// verdict-relevant (a focus with declared intermediate
    /// correspondences); otherwise repeated idioms behind renamed
    /// temporaries share entries.
    pub fn fingerprints(&self, graph: &Addg) -> Fingerprints {
        let _span = arrayeq_trace::span("fingerprint");
        match &self.focus {
            Some(f) if !f.intermediate_pairs.is_empty() => arrayeq_addg::fingerprints_named(graph),
            _ => fingerprints(graph),
        }
    }

    /// The effective worker count: `jobs`, with `0` resolved to the
    /// machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            n => n,
        }
    }
}

/// The front end of the Fig. 6 flow for one program: promotes the
/// [`CheckOptions::params`] to symbolic parameters, analyses the program
/// once ([`Analysis`]), runs the program-class check and the def-use check
/// on that analysis, and extracts the ADDG from it.  Each access relation is
/// built once and interned by content (a hash picks the bucket, `==`
/// decides identity), and each fact derived from relations is computed once
/// per distinct input, whichever pass asks first.  Both checks always run:
/// the traversal's soundness argument assumes programs that pass them.
///
/// # Errors
///
/// Returns an error when the program violates the program class, fails the
/// def-use check, or cannot be lowered to an ADDG.
pub fn lower(program: &Program, opts: &CheckOptions) -> Result<Addg> {
    let promoted;
    let program = if opts.params.is_empty() {
        program
    } else {
        promoted = promote_params(program, &opts.params);
        &promoted
    };
    let mut analysis = {
        let _span = arrayeq_trace::span("analyze");
        Analysis::new(program)?
    };
    {
        let _span = arrayeq_trace::span("classcheck");
        assert_in_class(&analysis)?;
    }
    {
        let _span = arrayeq_trace::span("defuse");
        assert_def_use_correct(&mut analysis)?;
    }
    let _span = arrayeq_trace::span("extract");
    Ok(extract_from(&mut analysis)?)
}

/// Applies a [`CheckOptions::params`] context to one program: each named
/// constant becomes a symbolic `#param name >= min`.
fn promote_params(p: &Program, params: &[(String, i64)]) -> Program {
    let mut out = p.clone();
    for (name, min) in params {
        out.defines.remove(name);
        match out.symbolic_params.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = *min,
            None => out.symbolic_params.push((name.clone(), *min)),
        }
    }
    out
}

/// Checks two ADDGs ([`lower`]ed under the same `opts`) for equivalence by
/// the synchronized traversal — the one check entry of this crate.
///
/// The context carries everything per call that is not a verdict option:
/// the deadline and [`crate::CancelToken`] bound the traversal (an exceeded
/// budget surfaces as [`crate::Verdict::Inconclusive`] with a typed
/// [`BudgetExhausted`] reason in [`Report::budget_exhausted`] — never a
/// hang), a [`ProofCache`] lets this run consume and publish sub-proofs
/// shared with other queries, and the outputs a baseline proves clean
/// narrow the run to a dirty cone.  Proof keys are built from both graphs'
/// [`CheckOptions::fingerprints`], taken from the context when the caller
/// already computed them.  `CheckContext::default()` is a plain one-shot
/// run with a proof cache of its own.
///
/// # Errors
///
/// Returns [`CoreError::Incomparable`] when the two graphs do not expose the
/// same output arrays (or the focused outputs are missing).  Inequivalence
/// is *not* an error: it is reported in the returned [`Report`].
pub fn check(
    original: &Addg,
    transformed: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
) -> Result<Report> {
    let computed;
    let fps = match ctx.fingerprints {
        Some(fps) => fps,
        None => {
            computed = (opts.fingerprints(original), opts.fingerprints(transformed));
            &computed
        }
    };
    let run_cache;
    let proofs = match ctx.proofs {
        Some(cache) => cache,
        None => {
            run_cache = ProofCache::new();
            &run_cache
        }
    };
    crate::parallel::check_parallel(original, transformed, opts, ctx, fps, &proofs.begin_query())
}

/// The traversal state of one *worker* of a run: it executes a stream of
/// [`crate::parallel`] tasks against its own local state (coinductive
/// assumptions, term arena, stats, diagnostics buffer) while proofs go
/// through the run's [`ProofCache`] and budgets through the run-wide
/// [`SharedBudget`].
pub(crate) struct Checker<'x> {
    pub(crate) a: &'x Addg,
    pub(crate) b: &'x Addg,
    pub(crate) opts: &'x CheckOptions,
    /// Budgets and the caller's proof cache, if any (default context on
    /// the one-shot path).
    ctx: &'x CheckContext<'x>,
    /// Content fingerprints of both graphs; they key the proof cache and
    /// the term arena's interning keys.
    pub(crate) fps: &'x (Fingerprints, Fingerprints),
    /// The run's view of its proof cache: the one place sub-proofs are
    /// looked up and published, shared by the run's workers.
    proofs: &'x QueryProofs<'x>,
    pub(crate) stats: CheckStats,
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Depth of speculative checks in progress (the matcher's candidate
    /// checks, see [`Checker::diagnose`]): while it is above zero no
    /// diagnostic is built.
    pub(crate) speculating: u32,
    /// Hash-consed flattened terms plus the matched-pair memo (the
    /// normalization subsystem's state; see [`crate::normalize`]).
    pub(crate) arena: TermArena,
    /// The look-through steps this worker computed (see
    /// [`crate::look_through`]).
    pub(crate) look_throughs: LookThroughs<'x>,
    /// Coinduction for recurrences: array pairs currently being proven, with
    /// the element-pair relation assumed equal.
    in_progress: BTreeMap<(String, String), Relation>,
    /// Bumped every time a sub-check is discharged by an `in_progress`
    /// coinductive assumption.  A sub-proof during which this counter moved
    /// is only valid under that assumption and must not be published;
    /// everything else (the overwhelming majority) caches freely.
    pub(crate) assumption_uses: u64,
    /// This worker's traversal visits.
    work: u64,
    pub(crate) exhausted: bool,
    /// Start of the worker, for deadline bookkeeping.
    started: Instant,
    /// Run-wide budget shared by every worker of the run.
    shared_budget: &'x SharedBudget,
    /// Visits already flushed to the shared budget.
    flushed_work: u64,
}

/// The budget of one run, shared by all its workers.
///
/// Work accounting across workers is approximate by design: each worker
/// compares its own visit count with `max_work` on every visit but flushes
/// it into the run-wide count only every 64 visits, so a run with several
/// workers can overshoot `max_work` by at most `64 × workers` visits before
/// every worker has wound down.  A one-worker run stops after exactly
/// `max_work` visits.
#[derive(Debug, Default)]
pub(crate) struct SharedBudget {
    work: std::sync::atomic::AtomicU64,
    exhausted: std::sync::atomic::AtomicBool,
    reason: std::sync::Mutex<Option<BudgetExhausted>>,
}

impl SharedBudget {
    /// Marks the run exhausted; the first caller's reason wins.  The lock is
    /// recovered from poisoning so a panicked worker cannot wedge budget
    /// reporting for the surviving workers.
    pub(crate) fn trip(&self, reason: BudgetExhausted) {
        use std::sync::atomic::Ordering;
        let mut slot = self
            .reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.exhausted.store(true, Ordering::Relaxed);
    }

    /// Whether any worker tripped a budget.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.exhausted.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The reason of the first trip, if any.
    pub(crate) fn take_reason(&self) -> Option<BudgetExhausted> {
        self.reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }
}

/// A position in one ADDG during the synchronized traversal.
#[derive(Debug, Clone)]
pub(crate) enum Pos {
    /// The elements of an array variable (map range = array elements).
    Array(String),
    /// A node inside a statement's operator tree (map range = the elements
    /// defined by that statement).
    Node(NodeId),
}

/// The statement trail of one traversal path: the labels of the statements
/// the path passed through, which diagnostics report as the possible
/// locations of an error (Section 6.1).
///
/// A persistent list, newest statement first: extending a trail allocates
/// one link and shares the rest, and a clone is a reference-count bump, so
/// every branch of the traversal, every flattened term and every region
/// piece shares its prefix instead of copying it.  `Rc` because trails
/// never leave the worker thread whose traversal built them.  A trail
/// becomes a `Vec<String>` only where a diagnostic is built
/// ([`Trail::to_vec`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Trail(Option<Rc<TrailLink>>);

/// One statement of a [`Trail`] and the trail before it.
#[derive(Debug)]
struct TrailLink {
    stmt: String,
    prev: Trail,
}

impl Trail {
    /// This trail extended by `stmt` — the one way a trail grows.  A
    /// statement equal to the last one is not repeated: a path that stays
    /// inside one statement (its root operator, then its array reads) names
    /// that statement once.
    pub(crate) fn with(&self, stmt: &str) -> Trail {
        match &self.0 {
            Some(link) if link.stmt == stmt => self.clone(),
            _ => Trail(Some(Rc::new(TrailLink {
                stmt: stmt.to_owned(),
                prev: self.clone(),
            }))),
        }
    }

    /// The statements, oldest first, as a diagnostic lists them.
    pub(crate) fn to_vec(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut link = self.0.as_deref();
        while let Some(l) = link {
            out.push(l.stmt.clone());
            link = l.prev.0.as_deref();
        }
        out.reverse();
        out
    }
}

impl<'x> Checker<'x> {
    /// A fresh worker of the run behind `proofs`, accounting against the
    /// run's `shared_budget`.
    pub(crate) fn new(
        a: &'x Addg,
        b: &'x Addg,
        opts: &'x CheckOptions,
        ctx: &'x CheckContext<'x>,
        fps: &'x (Fingerprints, Fingerprints),
        proofs: &'x QueryProofs<'x>,
        shared_budget: &'x SharedBudget,
    ) -> Self {
        Checker {
            a,
            b,
            opts,
            ctx,
            fps,
            proofs,
            stats: CheckStats::default(),
            diagnostics: Vec::new(),
            speculating: 0,
            arena: TermArena::default(),
            look_throughs: LookThroughs::default(),
            in_progress: BTreeMap::new(),
            assumption_uses: 0,
            work: 0,
            exhausted: false,
            started: Instant::now(),
            shared_budget,
            flushed_work: 0,
        }
    }

    /// Runs one output's root obligation: `output` against itself under
    /// `identity`, the identity on its defined elements, from empty trails.
    /// The task starts from no coinductive assumption, whatever an earlier
    /// task that ended in an error left installed, and the diagnostics it
    /// produces are drained out for the coordinator's merge.
    pub(crate) fn run_task(
        &mut self,
        output: &str,
        identity: Relation,
    ) -> Result<(bool, Vec<Diagnostic>)> {
        self.in_progress.clear();
        let root = Trail::default();
        let pos = || Pos::Array(output.to_owned());
        let ok = self.check(pos(), identity.clone(), pos(), identity, &root, &root)?;
        Ok((ok, std::mem::take(&mut self.diagnostics)))
    }

    /// The worker's accumulated counters (merged by the coordinator).
    pub(crate) fn into_stats(self) -> CheckStats {
        self.stats
    }
}

/// The outputs one run must check: the focused subset when a focus names
/// outputs, otherwise all common outputs (with extra outputs on the
/// transformed side rejected as incomparable).
pub(crate) fn select_outputs(a: &Addg, b: &Addg, opts: &CheckOptions) -> Result<Vec<String>> {
    let wanted: Vec<String> = match opts.focus.as_ref().filter(|f| !f.outputs.is_empty()) {
        Some(f) => f.outputs.clone(),
        None => a.output_arrays().to_vec(),
    };
    let mut outputs = Vec::new();
    for o in wanted {
        if !a.is_output(&o) {
            return Err(CoreError::Incomparable {
                message: format!("`{o}` is not an output of the original program"),
            });
        }
        if !b.is_output(&o) {
            return Err(CoreError::Incomparable {
                message: format!(
                    "output `{o}` of the original program is not an output of the transformed one"
                ),
            });
        }
        outputs.push(o);
    }
    // Unless focused, the transformed program must not have extra outputs.
    if opts.focus.is_none() {
        for o in b.output_arrays() {
            if !outputs.contains(o) {
                return Err(CoreError::Incomparable {
                    message: format!("transformed program has an extra output `{o}`"),
                });
            }
        }
    }
    Ok(outputs)
}

/// Result of the per-output defined-elements comparison that precedes the
/// traversal of one output.
pub(crate) enum OutputDomains {
    /// Both programs define the same elements; the traversal starts from the
    /// identity relation on this set.
    Match(Set),
    /// The defined-element sets differ; the diagnostic carries their
    /// symmetric difference as the failing domain.
    Mismatch(Box<Diagnostic>),
}

/// Compares the defined-element sets of `output` in both graphs (the first
/// half of the per-output obligation).
pub(crate) fn check_output_domains(a: &Addg, b: &Addg, output: &str) -> Result<OutputDomains> {
    let ea = a
        .defined_elements(output)
        .ok_or_else(|| CoreError::Incomparable {
            message: format!("original program never defines output `{output}`"),
        })?;
    let eb = b
        .defined_elements(output)
        .ok_or_else(|| CoreError::Incomparable {
            message: format!("transformed program never defines output `{output}`"),
        })?;
    if ea.is_equal(&eb)? {
        return Ok(OutputDomains::Match(ea));
    }
    // The failing elements are exactly the symmetric difference of the two
    // defined-element sets.
    // `minimized` additionally gists each surviving conjunct against its
    // siblings' canonical forms, so the rendered failing domain is minimal.
    let failing = ea.subtract(&eb)?.union(&eb.subtract(&ea)?)?.minimized();
    Ok(OutputDomains::Mismatch(Box::new(Diagnostic {
        kind: DiagnosticKind::OutputDomainMismatch,
        output_array: None, // stamped by the caller
        original_statements: a
            .definitions(output)
            .iter()
            .map(|d| d.statement.clone())
            .collect(),
        transformed_statements: b
            .definitions(output)
            .iter()
            .map(|d| d.statement.clone())
            .collect(),
        expressions: vec![output.to_owned()],
        original_mapping: Some(ea.to_string()),
        transformed_mapping: Some(eb.to_string()),
        message: format!("the two programs do not define the same elements of `{output}`"),
        failing_domain: Some(failing),
    })))
}

/// Classifies a pipeline error that means the solver *cannot answer*: the
/// obligation needed an Omega operation outside the exactly decidable
/// fragment (inexact existential elimination, out-of-fragment closure).
/// Such an error is a property of the input's constraint systems — huge
/// coefficients the big-int fallback let through the front end — not a
/// malformed query, so callers downgrade the affected output to a typed
/// inconclusive instead of failing the whole pipeline.
pub(crate) fn unsupported_fragment(e: &CoreError) -> Option<BudgetExhausted> {
    match e {
        CoreError::Omega(arrayeq_omega::OmegaError::InexactElimination { op }) => {
            Some(BudgetExhausted::UnsupportedFragment { op })
        }
        CoreError::Omega(arrayeq_omega::OmegaError::UnsupportedClosure { .. }) => {
            Some(BudgetExhausted::UnsupportedFragment {
                op: "transitive closure",
            })
        }
        _ => None,
    }
}

/// The proof key of one output's *root obligation*: the whole-output
/// equivalence query `(Array(out), identity, Array(out), identity)` that
/// [`check`] poses per output.  `domain_hash` is the structural hash of
/// that identity relation, as recorded in [`Report::output_domain_hashes`],
/// so the key is rebuilt without any Omega work.  Presence of this key in a
/// baseline's entries proves the entire output equivalent under the
/// options the baseline was produced with — the basis on which incremental
/// re-verification classifies an output as clean and skips it via
/// [`CheckContext::clean_outputs`].
pub fn output_root_key(
    fps: (&Fingerprints, &Fingerprints),
    output: &str,
    domain_hash: u64,
) -> ProofKey {
    (
        fps.0.array(output),
        fps.1.array(output),
        domain_hash,
        domain_hash,
    )
}

impl Checker<'_> {
    /// Counts one traversal visit against the run's budgets; `false` once a
    /// budget of the run ran out (the traversal then unwinds without
    /// concluding anything).
    ///
    /// The worker's own visit count is compared with `max_work` on every
    /// visit, so a one-worker run stops at exactly the first visit beyond
    /// the limit.  The count is flushed into the run-wide
    /// [`SharedBudget`] on the first visit and every 64 after it — tightened
    /// to the budget itself when the work limit is smaller than one batch,
    /// so a tiny `max_work` still trips promptly across workers — and at
    /// each flush the worker observes trips by other workers, checks the
    /// combined work limit and polls cancellation and the deadline: prompt
    /// enough to wind down in microseconds, cheap enough to vanish against
    /// the relation algebra per visit.
    pub(crate) fn budget(&mut self) -> bool {
        use std::sync::atomic::Ordering;
        if self.exhausted {
            return false;
        }
        self.work += 1;
        let max_work = self.opts.max_work;
        if self.work > max_work {
            return self.trip(BudgetExhausted::WorkLimit { max_work });
        }
        let due = self.work == 1
            || if max_work >= 64 {
                self.work & 0x3f == 0
            } else {
                self.work.is_multiple_of(max_work)
            };
        if !due {
            return true;
        }
        let delta = self.work - self.flushed_work;
        self.flushed_work = self.work;
        let total = self.shared_budget.work.fetch_add(delta, Ordering::Relaxed) + delta;
        if self.shared_budget.is_exhausted() {
            self.exhausted = true;
            return false;
        }
        if total > max_work {
            return self.trip(BudgetExhausted::WorkLimit { max_work });
        }
        if self.ctx.cancel.is_some_and(|t| t.is_cancelled()) {
            return self.trip(BudgetExhausted::Cancelled);
        }
        if self.ctx.deadline.is_some_and(|d| Instant::now() >= d) {
            return self.trip(BudgetExhausted::DeadlineExceeded {
                elapsed_ms: self.started.elapsed().as_millis() as u64,
            });
        }
        true
    }

    /// Exhausts this worker and the run with `reason`; always `false`.
    fn trip(&mut self, reason: BudgetExhausted) -> bool {
        self.exhausted = true;
        self.shared_budget.trip(reason);
        false
    }

    /// The core synchronized traversal: checks that the sub-computations at
    /// `pos_a` / `pos_b` agree for every output element in the (common)
    /// domain of `map_a` / `map_b`.
    pub(crate) fn check(
        &mut self,
        pos_a: Pos,
        map_a: Relation,
        pos_b: Pos,
        map_b: Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        if !self.budget() {
            return Ok(false);
        }
        if map_a.is_empty() {
            return Ok(true); // nothing left to account for on this branch
        }

        // Resolve Access nodes: compose the output-current mapping with the
        // dependency mapping (the paper's intermediate variable reduction
        // happens when the resulting array is then looked through below).
        if let Pos::Node(n) = &pos_a {
            if let Node::Access {
                array,
                mapping,
                statement,
                ..
            } = self.a.node(*n)
            {
                let new_map = self.compose(&map_a, mapping)?;
                return self.check(
                    Pos::Array(array.clone()),
                    new_map,
                    pos_b,
                    map_b,
                    &trail_a.with(statement),
                    trail_b,
                );
            }
        }
        if let Pos::Node(n) = &pos_b {
            if let Node::Access {
                array,
                mapping,
                statement,
                ..
            } = self.b.node(*n)
            {
                let new_map = self.compose(&map_b, mapping)?;
                return self.check(
                    pos_a,
                    map_a,
                    Pos::Array(array.clone()),
                    new_map,
                    trail_a,
                    &trail_b.with(statement),
                );
            }
        }

        // Focused checking: declared intermediate correspondences terminate
        // the traversal early.
        if let (Pos::Array(va), Pos::Array(vb)) = (&pos_a, &pos_b) {
            if let Some(focus) = &self.opts.focus {
                if focus
                    .intermediate_pairs
                    .iter()
                    .any(|(x, y)| x == va && y == vb)
                {
                    return self.compare_leaf_mappings(va, vb, &map_a, &map_b, trail_a, trail_b);
                }
            }
        }

        // The proof cache: one lookup, whose provenance picks the counter
        // and the trace mechanism.  Whatever the provenance, an entry is a
        // positive, assumption-free sub-proof under these options, so a hit
        // returns exactly what the traversal would re-derive.  An entry of
        // this query must also hold these mappings: one that holds others
        // shares the key by a 64-bit collision and is a miss.
        let key = self.proof_key(&pos_a, &pos_b, &map_a, &map_b);
        let mut found = self.proofs.get(&key);
        if found == Some(Provenance::Query) && !self.proofs.published(&key, (&map_a, &map_b)) {
            self.stats.hash_collisions += 1;
            found = None;
        }
        self.count_lookup(found);
        if let Some(provenance) = found {
            arrayeq_trace::discharge(provenance.mechanism());
            return Ok(true);
        }

        let maps = (map_a.clone(), map_b.clone());
        let assumption_uses_before = self.assumption_uses;
        let result = self.check_uncached(&pos_a, map_a, &pos_b, map_b, trail_a, trail_b)?;

        // Only successful sub-proofs are published; failures keep their
        // diagnostics specific to the path that found them.  A proof that
        // leaned on a coinductive recurrence assumption is only valid under
        // that assumption and must not be replayed outside it, so it is not
        // published either.
        if result && self.assumption_uses == assumption_uses_before {
            self.proofs.publish(key, maps);
            self.stats.table_entries += 1;
            if self.ctx.proofs.is_some() {
                self.stats.shared_table_inserts += 1;
            }
        }
        Ok(result)
    }

    /// Books one proof-cache lookup under the counters its provenance
    /// picks.  A baseline hit counts only as a baseline hit.  Any other
    /// lookup is a table lookup, hit by this query's own proofs or, in a
    /// run given a cache ([`CheckContext::proofs`]), passed on as a shared
    /// lookup that another query's or the store's entry may answer.
    fn count_lookup(&mut self, found: Option<Provenance>) {
        let s = &mut self.stats;
        match found {
            Some(Provenance::Baseline) => s.baseline_hits += 1,
            Some(Provenance::Query) => {
                s.table_lookups += 1;
                s.table_hits += 1;
            }
            other => {
                s.table_lookups += 1;
                if self.ctx.proofs.is_some() {
                    s.shared_table_lookups += 1;
                }
                if other.is_some() {
                    s.shared_table_hits += 1;
                }
                if other == Some(Provenance::Store) {
                    s.store_hits += 1;
                }
            }
        }
    }

    /// Builds the proof key for a position pair.  It is fully
    /// *rename-invariant*: the content fingerprints of both positions
    /// ([`arrayeq_addg::fingerprints`]) plus the rename-canonical
    /// [`Relation::structural_hash`] of both mappings, so structurally
    /// identical sub-proofs — same computation at a different statement,
    /// same mapping written over differently-ordered iterators — share one
    /// entry.
    fn proof_key(&self, pos_a: &Pos, pos_b: &Pos, map_a: &Relation, map_b: &Relation) -> ProofKey {
        let (fa, fb) = self.fps;
        let pa = match pos_a {
            Pos::Node(n) => fa.node(*n),
            Pos::Array(v) => fa.array(v),
        };
        let pb = match pos_b {
            Pos::Node(n) => fb.node(*n),
            Pos::Array(v) => fb.array(v),
        };
        (pa, pb, map_a.structural_hash(), map_b.structural_hash())
    }

    fn check_uncached(
        &mut self,
        pos_a: &Pos,
        map_a: Relation,
        pos_b: &Pos,
        map_b: Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        match (pos_a, pos_b) {
            // Both sides are at an array variable.
            (Pos::Array(va), Pos::Array(vb)) => {
                let a_is_leaf = self.a.is_input(va);
                let b_is_leaf = self.b.is_input(vb);
                match (a_is_leaf, b_is_leaf) {
                    (true, true) => {
                        self.compare_leaf_mappings(va, vb, &map_a, &map_b, trail_a, trail_b)
                    }
                    (true, false) => {
                        // Reduce the transformed side.
                        self.reduce_side_b(pos_a.clone(), map_a, vb, map_b, trail_a, trail_b)
                    }
                    (false, _) => {
                        // Check for a recurrence assumption before reducing.
                        if let Some(assumed) = self.in_progress.get(&(va.clone(), vb.clone())) {
                            let needed = map_a.inverse().compose(&map_b)?;
                            self.stats.mapping_equalities += 1;
                            if needed.is_subset(assumed)? {
                                self.assumption_uses += 1;
                                arrayeq_trace::discharge("coinduction");
                                return Ok(true);
                            }
                            // Outside the assumed element pairs: fall through
                            // and reduce (bounded because def-use order is
                            // well-founded).
                        }
                        self.reduce_side_a(va, map_a, pos_b.clone(), map_b, trail_a, trail_b)
                    }
                }
            }
            // One side still inside an operator tree, the other at an array.
            (Pos::Array(va), Pos::Node(nb)) => {
                if self.a.is_input(va) {
                    // The leaf reads as the single term of a chain, so an
                    // operator side that normalises (`X + 0`, `X * 1`,
                    // `-(-X)`) gets the algebraic treatment before this is
                    // declared a mismatch.
                    let g = self.b;
                    if let Node::Operator {
                        kind, statement, ..
                    } = g.node(*nb)
                    {
                        if let Some(family) = normalize::family_against_leaf(
                            kind,
                            &self.opts.operators,
                            self.opts.method,
                        ) {
                            return self.check_algebraic(
                                &family,
                                pos_a.clone(),
                                map_a,
                                pos_b.clone(),
                                map_b,
                                trail_a,
                                &trail_b.with(statement),
                            );
                        }
                    }
                    self.report_operator_vs_leaf(
                        va, pos_b, &map_a, &map_b, trail_a, trail_b, true,
                    )?;
                    Ok(false)
                } else {
                    self.reduce_side_a(&va.clone(), map_a, pos_b.clone(), map_b, trail_a, trail_b)
                }
            }
            (Pos::Node(na), Pos::Array(vb)) => {
                if self.b.is_input(vb) {
                    let g = self.a;
                    if let Node::Operator {
                        kind, statement, ..
                    } = g.node(*na)
                    {
                        if let Some(family) = normalize::family_against_leaf(
                            kind,
                            &self.opts.operators,
                            self.opts.method,
                        ) {
                            return self.check_algebraic(
                                &family,
                                pos_a.clone(),
                                map_a,
                                pos_b.clone(),
                                map_b,
                                &trail_a.with(statement),
                                trail_b,
                            );
                        }
                    }
                    self.report_operator_vs_leaf(
                        vb, pos_a, &map_b, &map_a, trail_b, trail_a, false,
                    )?;
                    Ok(false)
                } else {
                    self.reduce_side_b(pos_a.clone(), map_a, &vb.clone(), map_b, trail_a, trail_b)
                }
            }
            // Both sides inside operator trees.
            (Pos::Node(na), Pos::Node(nb)) => {
                self.check_nodes(*na, map_a, *nb, map_b, trail_a, trail_b)
            }
        }
    }

    /// Reduces an intermediate (or output) array on the original side:
    /// splits the current domain across the array's definitions.
    fn reduce_side_a(
        &mut self,
        va: &str,
        map_a: Relation,
        pos_b: Pos,
        map_b: Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        let key = self.recurrence_key(va, &pos_b);
        if let Some(k) = &key {
            let pairs = map_a.inverse().compose(&map_b)?;
            self.in_progress.insert(k.clone(), pairs);
        }
        let a = self.a;
        let mut ok = true;
        for def in a.definitions(va) {
            let sub_a = self.restrict_to(&map_a, &def.elements)?;
            if sub_a.is_empty() {
                continue;
            }
            let sub_domain = sub_a.domain();
            let sub_b = map_b.restrict_domain(&sub_domain)?.simplified(true);
            let trail = trail_a.with(&def.statement);
            let _span = arrayeq_trace::span_with("definition", || {
                vec![
                    arrayeq_trace::s("array", va.to_owned()),
                    arrayeq_trace::s("statement", def.statement.clone()),
                ]
            });
            ok &= self.check(
                Pos::Node(def.root),
                sub_a,
                pos_b.clone(),
                sub_b,
                &trail,
                trail_b,
            )?;
        }
        if let Some(k) = key {
            self.in_progress.remove(&k);
        }
        Ok(ok)
    }

    /// Reduces an intermediate (or output) array on the transformed side.
    fn reduce_side_b(
        &mut self,
        pos_a: Pos,
        map_a: Relation,
        vb: &str,
        map_b: Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        let b = self.b;
        let mut ok = true;
        for def in b.definitions(vb) {
            let sub_b = self.restrict_to(&map_b, &def.elements)?;
            if sub_b.is_empty() {
                continue;
            }
            let sub_domain = sub_b.domain();
            let sub_a = map_a.restrict_domain(&sub_domain)?.simplified(true);
            let trail = trail_b.with(&def.statement);
            let _span = arrayeq_trace::span_with("definition", || {
                vec![
                    arrayeq_trace::s("array", vb.to_owned()),
                    arrayeq_trace::s("statement", def.statement.clone()),
                ]
            });
            ok &= self.check(
                pos_a.clone(),
                sub_a,
                Pos::Node(def.root),
                sub_b,
                trail_a,
                &trail,
            )?;
        }
        Ok(ok)
    }

    fn recurrence_key(&self, va: &str, pos_b: &Pos) -> Option<(String, String)> {
        if let Pos::Array(vb) = pos_b {
            Some((va.to_owned(), vb.clone()))
        } else {
            None
        }
    }

    /// Records the diagnostic `build` makes, unless a speculative check is
    /// in progress ([`Checker::speculating`]).  Speculation could not
    /// report it anyway: every site that records a diagnostic returns
    /// `false` up to the speculative candidate, so only a failed candidate
    /// has diagnostics, and they are discarded with it.  Only the
    /// diagnostic is skipped; the checks that decide a verdict run either
    /// way.
    pub(crate) fn diagnose(
        &mut self,
        build: impl FnOnce(&Self) -> Result<Diagnostic>,
    ) -> Result<()> {
        if self.speculating == 0 {
            let diagnostic = build(self)?;
            self.diagnostics.push(diagnostic);
        }
        Ok(())
    }

    /// Both traversals reached input arrays: the end of a pair of
    /// corresponding paths.  Check the second part of the sufficient
    /// condition — identical output-input mappings.
    fn compare_leaf_mappings(
        &mut self,
        va: &str,
        vb: &str,
        map_a: &Relation,
        map_b: &Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        self.stats.paths_compared += 1;
        if va != vb {
            self.diagnose(|_| {
                Ok(Diagnostic {
                    kind: DiagnosticKind::LeafMismatch,
                    output_array: None,
                    original_statements: trail_a.to_vec(),
                    transformed_statements: trail_b.to_vec(),
                    expressions: vec![va.to_owned(), vb.to_owned()],
                    original_mapping: Some(map_a.to_string()),
                    transformed_mapping: Some(map_b.to_string()),
                    message: format!(
                        "corresponding paths end at different input arrays `{va}` and `{vb}`"
                    ),
                    failing_domain: None,
                })
            })?;
            return Ok(false);
        }
        self.stats.mapping_equalities += 1;
        if map_a.is_equal(map_b)? {
            return Ok(true);
        }
        self.diagnose(|_| {
            let only_a = map_a.subtract(map_b)?;
            let only_b = map_b.subtract(map_a)?;
            // Minimized so the diagnostic renders without redundant constraints.
            let failing = only_a.union(&only_b)?.domain().minimized();
            Ok(Diagnostic {
                kind: DiagnosticKind::MappingMismatch,
                output_array: None,
                original_statements: trail_a.to_vec(),
                transformed_statements: trail_b.to_vec(),
                expressions: vec![va.to_owned()],
                original_mapping: Some(map_a.to_string()),
                transformed_mapping: Some(map_b.to_string()),
                message: format!("paths reading `{va}` have different output-input mappings"),
                failing_domain: Some(failing),
            })
        })?;
        Ok(false)
    }

    /// The generic "different computations" diagnostic shared by the node
    /// pairs that neither normalise nor compare structurally.
    fn report_computation_mismatch(
        &mut self,
        na: NodeId,
        nb: NodeId,
        map_a: &Relation,
        map_b: &Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<()> {
        self.diagnose(|this| {
            Ok(Diagnostic {
                kind: DiagnosticKind::OperatorMismatch,
                output_array: None,
                original_statements: trail_a.to_vec(),
                transformed_statements: trail_b.to_vec(),
                expressions: vec![node_brief(this.a, na), node_brief(this.b, nb)],
                original_mapping: Some(map_a.to_string()),
                transformed_mapping: Some(map_b.to_string()),
                message: "corresponding paths apply different computations".into(),
                failing_domain: None,
            })
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn report_operator_vs_leaf(
        &mut self,
        leaf: &str,
        node_pos: &Pos,
        leaf_map: &Relation,
        node_map: &Relation,
        leaf_trail: &Trail,
        node_trail: &Trail,
        leaf_is_original: bool,
    ) -> Result<()> {
        self.diagnose(|this| {
            let node_text = match node_pos {
                Pos::Node(n) => {
                    let g = if leaf_is_original { this.b } else { this.a };
                    describe_node(g, *n)
                }
                Pos::Array(v) => v.clone(),
            };
            let (orig_stmts, trans_stmts, orig_map, trans_map) = if leaf_is_original {
                (leaf_trail.to_vec(), node_trail.to_vec(), leaf_map, node_map)
            } else {
                (node_trail.to_vec(), leaf_trail.to_vec(), node_map, leaf_map)
            };
            Ok(Diagnostic {
                kind: DiagnosticKind::OperatorMismatch,
                output_array: None,
                original_statements: orig_stmts,
                transformed_statements: trans_stmts,
                expressions: vec![leaf.to_owned(), node_text],
                original_mapping: Some(orig_map.to_string()),
                transformed_mapping: Some(trans_map.to_string()),
                message: format!(
                    "one path reached input `{leaf}` while the corresponding path is still applying operators"
                ),
                failing_domain: None,
            })
        })
    }

    /// Both positions are operator/constant nodes.
    fn check_nodes(
        &mut self,
        na: NodeId,
        map_a: Relation,
        nb: NodeId,
        map_b: Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        match (self.a.node(na).clone(), self.b.node(nb).clone()) {
            (Node::Const { value: va, .. }, Node::Const { value: vb, .. }) => {
                if va == vb {
                    return Ok(true);
                }
                self.diagnose(|_| {
                    Ok(Diagnostic {
                        kind: DiagnosticKind::OperatorMismatch,
                        output_array: None,
                        original_statements: trail_a.to_vec(),
                        transformed_statements: trail_b.to_vec(),
                        expressions: vec![va.to_string(), vb.to_string()],
                        original_mapping: Some(map_a.to_string()),
                        transformed_mapping: Some(map_b.to_string()),
                        message: format!("constants differ: {va} vs {vb}"),
                        failing_domain: None,
                    })
                })?;
                Ok(false)
            }
            (
                Node::Operator {
                    kind: ka,
                    operands: oa,
                    statement: sa,
                },
                Node::Operator {
                    kind: kb,
                    operands: ob,
                    statement: sb,
                },
            ) => {
                // The normalization subsystem decides whether the two roots
                // share a chain family (`+`/`-`/negation fold together, `*`
                // against `+` reads additively through distribution, …).
                if let Some(family) =
                    normalize::chain_family(&ka, &kb, &self.opts.operators, self.opts.method)
                {
                    return self.check_algebraic(
                        &family,
                        Pos::Node(na),
                        map_a,
                        Pos::Node(nb),
                        map_b,
                        &trail_a.with(&sa),
                        &trail_b.with(&sb),
                    );
                }
                if ka != kb {
                    self.diagnose(|this| {
                        Ok(Diagnostic {
                            kind: DiagnosticKind::OperatorMismatch,
                            output_array: None,
                            original_statements: trail_a.with(&sa).to_vec(),
                            transformed_statements: trail_b.with(&sb).to_vec(),
                            expressions: vec![describe_node(this.a, na), describe_node(this.b, nb)],
                            original_mapping: Some(map_a.to_string()),
                            transformed_mapping: Some(map_b.to_string()),
                            message: format!("operators differ: `{ka}` vs `{kb}`"),
                            failing_domain: None,
                        })
                    })?;
                    return Ok(false);
                }
                if oa.len() != ob.len() {
                    self.diagnose(|this| {
                        Ok(Diagnostic {
                            kind: DiagnosticKind::Structural,
                            output_array: None,
                            original_statements: trail_a.with(&sa).to_vec(),
                            transformed_statements: trail_b.with(&sb).to_vec(),
                            expressions: vec![describe_node(this.a, na), describe_node(this.b, nb)],
                            original_mapping: None,
                            transformed_mapping: None,
                            message: format!(
                                "operator `{ka}` has {} operands in the original and {} in the transformed program",
                                oa.len(),
                                ob.len()
                            ),
                            failing_domain: None,
                        })
                    })?;
                    return Ok(false);
                }
                let (trail_a, trail_b) = (trail_a.with(&sa), trail_b.with(&sb));
                let mut ok = true;
                for (x, y) in oa.iter().zip(ob.iter()) {
                    ok &= self.check(
                        Pos::Node(*x),
                        map_a.clone(),
                        Pos::Node(*y),
                        map_b.clone(),
                        &trail_a,
                        &trail_b,
                    )?;
                }
                Ok(ok)
            }
            // An operator root against a constant: the chain may *fold* to
            // a constant (`x * 0` vs `0`, `2 + 3` vs `5`), so chains whose
            // family folds constants get the algebraic treatment; anything
            // else is the generic computation mismatch below.
            (
                Node::Operator {
                    kind, statement, ..
                },
                Node::Const { statement: sb, .. },
            ) => {
                if let Some(family) =
                    normalize::family_against_const(&kind, &self.opts.operators, self.opts.method)
                {
                    return self.check_algebraic(
                        &family,
                        Pos::Node(na),
                        map_a,
                        Pos::Node(nb),
                        map_b,
                        &trail_a.with(&statement),
                        &trail_b.with(&sb),
                    );
                }
                self.report_computation_mismatch(na, nb, &map_a, &map_b, trail_a, trail_b)?;
                Ok(false)
            }
            (
                Node::Const { statement: sa, .. },
                Node::Operator {
                    kind, statement, ..
                },
            ) => {
                if let Some(family) =
                    normalize::family_against_const(&kind, &self.opts.operators, self.opts.method)
                {
                    return self.check_algebraic(
                        &family,
                        Pos::Node(na),
                        map_a,
                        Pos::Node(nb),
                        map_b,
                        &trail_a.with(&sa),
                        &trail_b.with(&statement),
                    );
                }
                self.report_computation_mismatch(na, nb, &map_a, &map_b, trail_a, trail_b)?;
                Ok(false)
            }
            _ => {
                self.report_computation_mismatch(na, nb, &map_a, &map_b, trail_a, trail_b)?;
                Ok(false)
            }
        }
    }
}

/// A node as the computation-mismatch diagnostic names it: a constant by
/// its value, anything else as [`describe_node`] renders it.
fn node_brief(g: &Addg, id: NodeId) -> String {
    match g.node(id) {
        Node::Const { value, .. } => value.to_string(),
        _ => describe_node(g, id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CancelToken;
    use crate::report::Verdict;
    use arrayeq_lang::corpus::*;

    use arrayeq_lang::parser::parse_program;

    /// Parses both sources, lowers and checks them under `ctx`.
    fn run(a: &str, b: &str, opts: &CheckOptions, ctx: &CheckContext<'_>) -> Result<Report> {
        let (pa, pb) = (parse_program(a)?, parse_program(b)?);
        check(&lower(&pa, opts)?, &lower(&pb, opts)?, opts, ctx)
    }

    fn verify(a: &str, b: &str, opts: &CheckOptions) -> Report {
        run(a, b, opts, &CheckContext::default()).expect("verification pipeline runs")
    }

    #[test]
    fn a_trail_extension_skips_only_a_repeat_of_the_last_statement() {
        let t = Trail::default().with("a").with("a").with("b").with("a");
        assert_eq!(t.to_vec(), ["a", "b", "a"]);
    }

    #[test]
    fn a_trail_lists_its_oldest_statement_first() {
        assert!(Trail::default().to_vec().is_empty());
        let t = Trail::default().with("s3").with("s1").with("s2");
        assert_eq!(t.to_vec(), ["s3", "s1", "s2"]);
    }

    #[test]
    fn extending_a_clone_leaves_the_original_unchanged() {
        let base = Trail::default().with("s3");
        let copy = base.clone();
        let left = copy.with("s1");
        let right = copy.with("s2").with("s4");
        assert_eq!(base.to_vec(), ["s3"]);
        assert_eq!(copy.to_vec(), ["s3"]);
        assert_eq!(left.to_vec(), ["s3", "s1"]);
        assert_eq!(right.to_vec(), ["s3", "s2", "s4"]);
    }

    #[test]
    fn every_program_is_equivalent_to_itself() {
        for (name, src) in FIG1_ALL.iter().chain(KERNELS.iter()) {
            let r = verify(src, src, &CheckOptions::default());
            assert!(r.is_equivalent(), "{name} vs itself: {}", r.summary());
        }
    }

    #[test]
    fn fig1_a_equals_b_with_basic_method() {
        // (b) is obtained from (a) by expression propagation and loop
        // transformations only, which the basic method must handle.
        let r = verify(FIG1_A, FIG1_B, &CheckOptions::basic());
        assert!(r.is_equivalent(), "{}", r.summary());
        assert!(r.stats.paths_compared >= 4);
    }

    #[test]
    fn fig1_a_equals_c_needs_the_extended_method() {
        let extended = verify(FIG1_A, FIG1_C, &CheckOptions::default());
        assert!(extended.is_equivalent(), "{}", extended.summary());
        assert!(extended.stats.flattenings > 0);
        assert!(extended.stats.matchings > 0);

        // The basic method cannot pair the algebraically shuffled paths.
        let basic = verify(FIG1_A, FIG1_C, &CheckOptions::basic());
        assert!(!basic.is_equivalent());
    }

    #[test]
    fn fig1_b_equals_c_and_order_does_not_matter() {
        let r1 = verify(FIG1_B, FIG1_C, &CheckOptions::default());
        assert!(r1.is_equivalent(), "{}", r1.summary());
        let r2 = verify(FIG1_C, FIG1_B, &CheckOptions::default());
        assert!(r2.is_equivalent(), "{}", r2.summary());
    }

    #[test]
    fn fig1_d_is_rejected_with_diagnostics_pointing_at_v3_and_v1() {
        let r = verify(FIG1_A, FIG1_D, &CheckOptions::default());
        assert!(!r.is_equivalent());
        assert!(!r.diagnostics.is_empty());
        // Section 6.1: the failing paths involve statements v3 and v1 of the
        // transformed program; the blame heuristic should surface them.
        let mentioned: Vec<String> = r
            .diagnostics
            .iter()
            .flat_map(|d| d.transformed_statements.clone())
            .collect();
        assert!(
            mentioned.iter().any(|s| s == "v3") || mentioned.iter().any(|s| s == "v1"),
            "diagnostics should mention v3 or v1, got {mentioned:?}\n{}",
            r.summary()
        );
        let blame = r.blame();
        assert!(!blame.is_empty());
    }

    #[test]
    fn direction_is_symmetric_for_the_paper_pairs() {
        assert!(verify(FIG1_C, FIG1_A, &CheckOptions::default()).is_equivalent());
        assert!(!verify(FIG1_D, FIG1_A, &CheckOptions::default()).is_equivalent());
    }

    #[test]
    fn recurrence_kernel_is_equivalent_to_itself_and_detects_a_broken_base_case() {
        let r = verify(
            KERNEL_RECURRENCE,
            KERNEL_RECURRENCE,
            &CheckOptions::default(),
        );
        assert!(r.is_equivalent(), "{}", r.summary());

        let broken = KERNEL_RECURRENCE.replace("Y[0] = X[0] + 0;", "Y[0] = X[0] + 1;");
        let r = verify(KERNEL_RECURRENCE, &broken, &CheckOptions::default());
        assert!(!r.is_equivalent());
    }

    #[test]
    fn parallel_jobs_reproduce_sequential_verdicts_and_stable_reports() {
        // Equivalent, inequivalent and recurrence pairs at several worker
        // counts: verdicts identical, stable rendering byte-identical.
        let pairs = [
            (FIG1_A, FIG1_B),
            (FIG1_A, FIG1_C),
            (FIG1_A, FIG1_D),
            (KERNEL_RECURRENCE, KERNEL_RECURRENCE),
        ];
        for (a, b) in pairs {
            let seq = verify(a, b, &CheckOptions::default());
            for jobs in [2usize, 8] {
                let par = verify(a, b, &CheckOptions::default().with_jobs(jobs));
                assert_eq!(seq.verdict, par.verdict, "jobs={jobs}");
                assert_eq!(
                    seq.render_stable(),
                    par.render_stable(),
                    "stable report differs at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn parallel_budget_exhaustion_is_typed_and_prompt() {
        let opts = CheckOptions {
            max_work: 3,
            jobs: 4,
            ..Default::default()
        };
        let r = verify(FIG1_A, FIG1_C, &opts);
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(
            r.budget_exhausted,
            Some(BudgetExhausted::WorkLimit { max_work: 3 })
        );

        // A pre-cancelled token stops every worker.
        let token = CancelToken::new();
        token.cancel();
        let ctx = CheckContext {
            cancel: Some(&token),
            ..Default::default()
        };
        let r = run(FIG1_A, FIG1_C, &CheckOptions::default().with_jobs(4), &ctx).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(r.budget_exhausted, Some(BudgetExhausted::Cancelled));
    }

    #[test]
    fn parallel_focused_checking_matches_sequential() {
        let focus = Focus {
            outputs: vec!["C".into()],
            intermediate_pairs: vec![("tmp".into(), "tmp".into())],
        };
        let seq = verify(
            FIG1_A,
            FIG1_B,
            &CheckOptions::default().with_focus(focus.clone()),
        );
        let par = verify(
            FIG1_A,
            FIG1_B,
            &CheckOptions::default().with_focus(focus).with_jobs(4),
        );
        assert!(seq.is_equivalent() && par.is_equivalent());
        assert_eq!(seq.outputs_checked, par.outputs_checked);
        assert_eq!(seq.render_stable(), par.render_stable());
    }

    #[test]
    fn table_stats_are_reported() {
        let r = verify(FIG1_A, FIG1_C, &CheckOptions::default());
        assert!(r.stats.table_lookups > 0, "proof keys were looked up");
        assert!(r.stats.table_entries > 0, "sub-proofs were published");
        assert!(r.stats.table_hits <= r.stats.table_lookups);
        let rate = r.stats.table_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
        assert!(r.summary().contains("hit rate"));
    }

    #[test]
    fn focused_checking_restricts_outputs() {
        let focus = Focus {
            outputs: vec!["C".into()],
            intermediate_pairs: vec![("tmp".into(), "tmp".into())],
        };
        let r = verify(FIG1_A, FIG1_B, &CheckOptions::default().with_focus(focus));
        assert!(r.is_equivalent(), "{}", r.summary());
        assert_eq!(r.outputs_checked, vec!["C".to_string()]);
    }

    #[test]
    fn exhausted_work_budget_is_typed() {
        let opts = CheckOptions {
            max_work: 3,
            ..Default::default()
        };
        let r = verify(FIG1_A, FIG1_C, &opts);
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(
            r.budget_exhausted,
            Some(BudgetExhausted::WorkLimit { max_work: 3 })
        );
        assert!(r.summary().contains("work limit"));
    }

    #[test]
    fn one_worker_stops_exactly_at_the_work_limit() {
        // The thresholds are the visit counts of the whole traversal: a
        // one-worker run compares its own count with `max_work` on every
        // visit, so one visit less than the traversal needs is inconclusive
        // and the full count concludes.  The algebraic pairs' counts depend
        // on the pairing order: a term that pairs with its twin by arena id
        // costs no speculative visit.
        for (a, b, needed, conclusive) in [
            (FIG1_A, FIG1_B, 66, Verdict::Equivalent),
            (FIG1_A, FIG1_D, 72, Verdict::NotEquivalent),
            (FIG1_C, FIG1_B, 64, Verdict::Equivalent),
        ] {
            let at = |max_work| {
                let opts = CheckOptions {
                    max_work,
                    ..Default::default()
                };
                verify(a, b, &opts.with_jobs(1))
            };
            let short = at(needed - 1);
            assert_eq!(short.verdict, Verdict::Inconclusive);
            assert_eq!(
                short.budget_exhausted,
                Some(BudgetExhausted::WorkLimit {
                    max_work: needed - 1
                })
            );
            assert_eq!(at(needed).verdict, conclusive, "max_work = {needed}");
        }
    }

    #[test]
    fn cancelled_token_yields_inconclusive_immediately() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = CheckContext {
            cancel: Some(&token),
            ..Default::default()
        };
        let r = run(FIG1_A, FIG1_C, &CheckOptions::default(), &ctx).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert_eq!(r.budget_exhausted, Some(BudgetExhausted::Cancelled));
    }

    #[test]
    fn expired_deadline_yields_inconclusive_with_reason() {
        let ctx = CheckContext {
            deadline: Some(std::time::Instant::now()),
            ..Default::default()
        };
        let r = run(FIG1_A, FIG1_C, &CheckOptions::default(), &ctx).unwrap();
        assert_eq!(r.verdict, Verdict::Inconclusive);
        assert!(matches!(
            r.budget_exhausted,
            Some(BudgetExhausted::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn a_run_ending_past_its_deadline_is_inconclusive_without_a_poll() {
        // Every output clean: the run visits nothing, so no poll sees the
        // deadline, yet it ends past it.
        let clean = ["C".to_owned()];
        let ctx = CheckContext {
            clean_outputs: &clean,
            ..Default::default()
        };
        let opts = CheckOptions::default();
        assert!(run(FIG1_A, FIG1_C, &opts, &ctx).unwrap().is_equivalent());
        for jobs in [1, 2] {
            let ctx = CheckContext {
                deadline: Some(std::time::Instant::now()),
                ..ctx.clone()
            };
            let r = run(FIG1_A, FIG1_C, &opts.clone().with_jobs(jobs), &ctx).unwrap();
            assert_eq!(r.stats.paths_compared, 0);
            assert_eq!(r.verdict, Verdict::Inconclusive, "jobs = {jobs}");
            assert!(matches!(
                r.budget_exhausted,
                Some(BudgetExhausted::DeadlineExceeded { .. })
            ));
        }
    }

    #[test]
    fn shared_table_discharges_repeat_queries() {
        let cache = ProofCache::new();
        let ctx = CheckContext {
            proofs: Some(&cache),
            ..Default::default()
        };
        let first = run(FIG1_A, FIG1_C, &CheckOptions::default(), &ctx).unwrap();
        assert!(first.is_equivalent());
        assert!(first.stats.shared_table_inserts > 0, "sub-proofs published");
        assert_eq!(first.stats.shared_table_hits, 0, "nothing to reuse yet");
        let second = run(FIG1_A, FIG1_C, &CheckOptions::default(), &ctx).unwrap();
        assert!(second.is_equivalent());
        assert!(
            second.stats.shared_table_hits > 0,
            "re-check reuses published sub-proofs: {:?}",
            second.stats
        );
        assert!(second.stats.combined_hit_rate() > first.stats.combined_hit_rate());
        // A one-shot run's cache holds only its own proofs.
        let lone = verify(FIG1_A, FIG1_C, &CheckOptions::default());
        assert_eq!(lone.stats.shared_table_lookups, 0);
    }

    #[test]
    fn baseline_proofs_discharge_and_cone_skips_clean_outputs() {
        // Producing run: publish sub-proofs into a cache, then seed its
        // entries as a baseline into a fresh cache.
        let producer = ProofCache::new();
        let ctx = CheckContext {
            proofs: Some(&producer),
            ..Default::default()
        };
        let scratch = run(FIG1_A, FIG1_C, &CheckOptions::default(), &ctx).unwrap();
        assert!(scratch.is_equivalent());
        assert!(
            !scratch.output_fingerprints.is_empty(),
            "fingerprinted runs record per-output fingerprints"
        );
        let entries = producer.entries();
        assert!(!entries.is_empty());
        let baseline = ProofCache::new();
        baseline.seed_baseline(entries.iter().copied());

        // Baseline entries alone: every sub-proof replays, verdict and
        // stable rendering identical.
        let ctx2 = CheckContext {
            proofs: Some(&baseline),
            ..Default::default()
        };
        let incremental = run(FIG1_A, FIG1_C, &CheckOptions::default(), &ctx2).unwrap();
        assert!(
            incremental.stats.baseline_hits > 0,
            "{:?}",
            incremental.stats
        );
        assert_eq!(incremental.render_stable(), scratch.render_stable());

        // Cone focus on top: the (only) output is proven clean by its root
        // key, so the traversal skips it outright — zero path comparisons —
        // while the report still speaks about it.
        let opts = CheckOptions::default();
        let fpa = opts.fingerprints(&lower(&parse_program(FIG1_A).unwrap(), &opts).unwrap());
        let fpb = opts.fingerprints(&lower(&parse_program(FIG1_C).unwrap(), &opts).unwrap());
        let (output, domain_hash) = &scratch.output_domain_hashes[0];
        let root = output_root_key((&fpa, &fpb), output, *domain_hash);
        assert!(entries.contains(&root), "root obligation was published");
        let clean = ["C".to_owned()];
        let ctx3 = CheckContext {
            clean_outputs: &clean,
            ..ctx2.clone()
        };
        let skipped = run(FIG1_A, FIG1_C, &opts, &ctx3).unwrap();
        assert_eq!(skipped.stats.paths_compared, 0);
        assert_eq!(skipped.stats.cone_positions, 0, "nothing left in the cone");
        assert_eq!(skipped.render_stable(), scratch.render_stable());
        // ...and identically on the parallel path.
        let par = run(FIG1_A, FIG1_C, &opts.with_jobs(2), &ctx3).unwrap();
        assert_eq!(par.render_stable(), scratch.render_stable());
    }

    #[test]
    fn incomparable_interfaces_are_an_error() {
        let other = r#"
void foo(int A[], int B[], int D[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     D[k] = A[k] + B[k];
}
"#;
        let err = run(
            FIG1_A,
            other,
            &CheckOptions::default(),
            &CheckContext::default(),
        );
        assert!(matches!(err, Err(CoreError::Incomparable { .. })));
    }

    #[test]
    fn swapped_operands_of_a_commutative_operator_are_equivalent() {
        let p1 = r#"
#define N 32
void f(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = A[k] * B[2*k];
}
"#;
        let p2 = r#"
#define N 32
void f(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = B[2*k] * A[k];
}
"#;
        assert!(verify(p1, p2, &CheckOptions::default()).is_equivalent());
        assert!(!verify(p1, p2, &CheckOptions::basic()).is_equivalent());
        // Subtraction is not commutative: swapping its operands must fail.
        let m1 = p1.replace('*', "-");
        let m2 = p2.replace('*', "-");
        assert!(!verify(&m1, &m2, &CheckOptions::default()).is_equivalent());
    }

    #[test]
    fn reassociation_across_statements_is_handled() {
        // tmp = x + y; C = tmp + z   vs   C = x + (y + z)
        let p1 = r#"
#define N 16
void f(int X[], int Y[], int Z[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     tmp[k] = X[k] + Y[k];
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k] + Z[k];
}
"#;
        let p2 = r#"
#define N 16
void f(int X[], int Y[], int Z[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = X[k] + (Y[k] + Z[k]);
}
"#;
        assert!(verify(p1, p2, &CheckOptions::default()).is_equivalent());
        assert!(!verify(p1, p2, &CheckOptions::basic()).is_equivalent());
    }

    #[test]
    fn wrong_index_expression_is_reported_with_mappings() {
        let p1 = r#"
#define N 16
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = A[2*k] + A[k];
}
"#;
        let p2 = r#"
#define N 16
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = A[2*k] + A[k+1];
}
"#;
        let r = verify(p1, p2, &CheckOptions::default());
        assert!(!r.is_equivalent());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == DiagnosticKind::MappingMismatch)
            .expect("a mapping mismatch diagnostic");
        assert!(d.original_mapping.is_some());
        assert!(d.transformed_mapping.is_some());
    }

    #[test]
    fn failing_domains_are_structured_and_stamped_with_their_output() {
        let r = verify(FIG1_A, FIG1_D, &CheckOptions::default());
        assert!(!r.is_equivalent());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.failing_domain.is_some())
            .expect("a diagnostic with a failing domain");
        assert_eq!(d.output_array.as_deref(), Some("C"));
        let dom = d.failing_domain.as_ref().unwrap();
        // The domain is directly sampleable — no string reparsing anywhere.
        let (point, params) = dom.sample_point().expect("non-empty failing domain");
        assert!(dom.contains(&point, &params));
        // Fig. 1(d) is wrong on even k below N-1.
        assert_eq!(point[0].rem_euclid(2), 0);
    }
}
