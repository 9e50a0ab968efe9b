//! The checking driver: one verification run, on the calling thread or
//! sharded across outputs and independent correspondence sub-proofs.
//!
//! The synchronized traversal of Section 5 establishes correspondences
//! output by output, and below each output it reduces arrays definition by
//! definition and operators operand by operand.  Those sub-obligations are
//! independent up to the proofs they share, so every [`crate::check`] runs
//! in three phases:
//!
//! 1. **Decompose** (coordinator, the calling thread): per output, the
//!    defined-element sets of both programs are compared inside an `output`
//!    trace span, which either settles the output (a mismatch diagnostic)
//!    or yields its root [`CheckTask`].  With more than one
//!    [`CheckOptions::jobs`], the root tasks are then split by replaying
//!    the traversal's *reduction* steps without proving anything — per
//!    definition of the output array (carrying the coinductive recurrence
//!    assumption the reduction would have installed), then through `Access`
//!    compositions and per positional operand pair, and into per-piece
//!    matches at flatten/match positions while the pool is starved.  Tasks
//!    keep the traversal's depth-first order, so diagnostics merge back in
//!    the order one traversal emits them.
//! 2. **Execute**: workers pull tasks off a shared queue (an atomic cursor —
//!    idle workers steal whatever obligation is next, so one expensive
//!    output does not serialise the run).  A single worker drains the queue
//!    on the calling thread without spawning; more run in a scoped pool.
//!    Each worker owns a full [`Checker`] — coinductive assumptions, term
//!    arena, stats, diagnostics buffer — and all workers share the run's
//!    one [`crate::ProofCache`] (the caller's through
//!    [`CheckContext::proofs`], or one made for the run; rename-invariant
//!    keys mean one worker's sub-proof discharges another worker's
//!    identical obligation mid-run) and the session feasibility cache,
//!    re-installed in every spawned worker via
//!    [`arrayeq_omega::with_feasibility_cache`].  Budgets and cancellation
//!    propagate through one [`SharedBudget`]: any worker tripping the work
//!    limit, deadline or cancel token winds the whole pool down promptly.
//! 3. **Merge** (coordinator): per-task verdicts fold into one verdict,
//!    per-task diagnostics concatenate in task order (deterministic —
//!    [`crate::Report::render_stable`] is byte-identical at every `jobs`),
//!    and per-worker [`CheckStats`] and [`SolverEvents`] merge race-free at
//!    join.

use crate::checker::{
    check_output_domains, select_outputs, unsupported_fragment, CheckOptions, Checker,
    OutputDomains, Pos, SharedBudget, Trail,
};
use crate::context::{BudgetExhausted, CheckContext};
use crate::diagnostics::{Diagnostic, DiagnosticKind};
use crate::normalize::{self, matching, FlatTerm};
use crate::proofs::QueryProofs;
use crate::report::{CheckStats, Report, Verdict};
use crate::Result;
use arrayeq_addg::{Addg, Fingerprints, Node, OperatorKind};
use arrayeq_omega::{
    current_feasibility_cache, solver_events, with_feasibility_cache, Relation, Set, SolverEvents,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How many tasks the decomposition aims to produce per worker; a few per
/// worker keep the pool balanced when task costs are skewed without paying
/// decomposition overhead for thousands of micro-tasks.
const TASKS_PER_WORKER: usize = 4;

/// Fault-injection hook for the robustness tests: the worker that picks up
/// the task with this index panics before running it (`usize::MAX` = off).
/// One-shot — the trigger disarms itself when it fires, so a test arms it,
/// runs one verify, and every later run on the process is clean.
static PANIC_ON_TASK: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Arms (or with `None` disarms) the worker panic injection.  Test-only
/// instrumentation for exercising panic isolation; hidden from docs and not
/// part of the supported API.
#[doc(hidden)]
pub fn inject_worker_panic_on_task(task_idx: Option<usize>) {
    PANIC_ON_TASK.store(task_idx.unwrap_or(usize::MAX), Ordering::SeqCst);
}

/// One-shot arming of synthetic solver-overflow injection: the next worker
/// drain that observes the flag records one overflow event and disarms.
static INJECT_OVERFLOW: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Arms one synthetic solver-overflow event in the next verification.
/// Test-only instrumentation for the degradation plumbing (solver events →
/// typed inconclusive verdict); genuine overflow behaviour is covered by
/// the omega-level oracle corpus.
#[doc(hidden)]
pub fn inject_arith_overflow_once() {
    INJECT_OVERFLOW.store(true, Ordering::SeqCst);
}

/// Consumes the overflow injection (if armed) by recording a synthetic
/// event in the calling thread's solver events.
fn consume_injected_overflow() {
    if INJECT_OVERFLOW.swap(false, Ordering::SeqCst) {
        arrayeq_omega::inject_arith_overflow();
    }
}

/// Best-effort rendering of a panic payload for the poisoned obligation's
/// diagnostic (`panic!` with a literal or a formatted string covers
/// essentially every real panic; anything else is reported opaquely).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Outcome slot of one task: completed (verdict or pipeline error), or
/// poisoned by a worker panic.
enum TaskSlot {
    Done(Result<(bool, Vec<Diagnostic>)>),
    Panicked(String),
}

/// Reduction depth bound for the decomposition: expansion never recurses
/// deeper than this many reduction steps below a root obligation, so the
/// coordinator's phase stays a small fraction of the run.
const MAX_SPLIT_DEPTH: usize = 6;

/// One decomposed sub-obligation, plus the coinductive assumptions the
/// undecomposed traversal would have had installed when it reached this
/// position.
struct CheckTask {
    /// Index into the checked-outputs list (diagnostic stamping + ordering).
    output_idx: usize,
    /// Statement trails of both sides, shared with the parent task's.
    trail_a: Trail,
    trail_b: Trail,
    /// Recurrence assumptions accumulated along the decomposition path, in
    /// installation order: `((array_a, array_b), assumed element pairs)`.
    assumptions: Vec<((String, String), Relation)>,
    /// Reduction steps below the root obligation (bounds the decomposition).
    depth: usize,
    kind: TaskKind,
}

/// What one task proves.
enum TaskKind {
    /// A traversal obligation: exactly the argument tuple of
    /// `Checker::check`.
    Traverse {
        pos_a: Pos,
        map_a: Relation,
        pos_b: Pos,
        map_b: Relation,
    },
    /// One region piece of a flatten/match obligation, emitted by
    /// [`expand_algebraic`]: the coordinator flattened both sides and
    /// restricted the term lists to this piece; the worker runs the match.
    MatchPiece {
        family: OperatorKind,
        live_a: Vec<FlatTerm>,
        live_b: Vec<FlatTerm>,
        piece: Set,
    },
}

impl CheckTask {
    /// A traversal task inheriting bookkeeping from its parent.
    #[allow(clippy::too_many_arguments)]
    fn traverse(
        parent: &CheckTask,
        pos_a: Pos,
        map_a: Relation,
        pos_b: Pos,
        map_b: Relation,
        trail_a: Trail,
        trail_b: Trail,
        assumptions: Vec<((String, String), Relation)>,
    ) -> CheckTask {
        CheckTask {
            output_idx: parent.output_idx,
            trail_a,
            trail_b,
            assumptions,
            depth: parent.depth + 1,
            kind: TaskKind::Traverse {
                pos_a,
                map_a,
                pos_b,
                map_b,
            },
        }
    }
}

/// What the coordinator settled for one output before any task runs.
enum Prologue {
    /// Skipped as baseline-clean ([`CheckContext::clean_outputs`]): no
    /// domain check, no task, no verdict.
    Clean,
    /// The domains match; the output's tasks decide it.
    Tasks,
    /// The defined-element sets differ; this diagnostic refutes the output.
    Mismatch(Diagnostic),
    /// The domain check left the decidable fragment; the output's verdict
    /// is withheld for this reason.
    Unsupported(BudgetExhausted),
}

/// Runs one verification: the driver behind [`crate::check`] at every
/// [`CheckOptions::jobs`] setting, keyed by `fps` and proving through
/// `proofs`.
pub(crate) fn check_parallel(
    a: &Addg,
    b: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
    fps: &(Fingerprints, Fingerprints),
    proofs: QueryProofs<'_>,
) -> Result<Report> {
    let started = Instant::now();
    let jobs = opts.effective_jobs();
    let outputs = select_outputs(a, b, opts)?;

    // Phase 1: decompose.  The run-wide budget exists from the very first
    // phase: the algebraic expansion's flattening is real Omega work and
    // flushes into the same counter the workers use, so `max_work` bounds
    // the whole run.  Every thread's share of the run is one solver-events
    // scope, the coordinator's included.
    let budget = SharedBudget::default();
    let mut stats = CheckStats::default();
    let (decomposed, mut events) = solver_events(|| {
        decompose(
            a, b, opts, ctx, fps, proofs, &outputs, jobs, &budget, &mut stats,
        )
    });
    let (prologue, tasks, domain_hashes) = decomposed?;

    // Phase 2: the workers.  Every task runs under `catch_unwind`: a
    // panicking task poisons only its own obligation (its slot records the
    // payload; the merge turns it into a typed
    // [`DiagnosticKind::WorkerPanicked`] inconclusive), and the worker
    // *quarantines* its local state by discarding the whole `Checker` —
    // term arena, coinductive assumptions, buffered diagnostics could all
    // be mid-mutation — and continuing on a fresh one.  The *shared* caches
    // need no rollback: the session feasibility cache and the proof cache
    // only ever receive completed verdicts in a single insert, so an
    // unwound task has published either nothing or a finished entry, never
    // partial state.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TaskSlot>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let drained = Mutex::new((CheckStats::default(), SolverEvents::default()));
    let drain = || {
        let (worker_stats, worker_events) = solver_events(|| {
            consume_injected_overflow();
            let mut worker = Checker::new(a, b, opts, ctx, fps, proofs, &budget);
            let mut stats = CheckStats::default();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                if PANIC_ON_TASK
                    .compare_exchange(i, usize::MAX, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                        Some(TaskSlot::Panicked("injected worker panic".to_owned()));
                    continue;
                }
                let _span = arrayeq_trace::span_with("task", || {
                    vec![
                        arrayeq_trace::s("output", outputs[task.output_idx].clone()),
                        arrayeq_trace::s(
                            "kind",
                            match &task.kind {
                                TaskKind::Traverse { .. } => "traverse",
                                TaskKind::MatchPiece { .. } => "match_piece",
                            },
                        ),
                    ]
                });
                let outcome = catch_unwind(AssertUnwindSafe(|| match &task.kind {
                    TaskKind::Traverse {
                        pos_a,
                        map_a,
                        pos_b,
                        map_b,
                    } => worker.run_task(
                        pos_a.clone(),
                        map_a.clone(),
                        pos_b.clone(),
                        map_b.clone(),
                        &task.trail_a,
                        &task.trail_b,
                        &task.assumptions,
                    ),
                    TaskKind::MatchPiece {
                        family,
                        live_a,
                        live_b,
                        piece,
                    } => worker.run_match_task(
                        family,
                        live_a,
                        live_b,
                        piece,
                        &task.trail_a,
                        &task.trail_b,
                        &task.assumptions,
                    ),
                }));
                let slot = match outcome {
                    Ok(done) => TaskSlot::Done(done),
                    Err(payload) => {
                        // Quarantine: the unwound checker's local state is
                        // untrusted — replace it wholesale (keeping only its
                        // counters, which are volatile and excluded from
                        // stable output).
                        let poisoned = std::mem::replace(
                            &mut worker,
                            Checker::new(a, b, opts, ctx, fps, proofs, &budget),
                        );
                        stats.merge(&poisoned.into_stats());
                        TaskSlot::Panicked(panic_message(payload))
                    }
                };
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(slot);
            }
            stats.merge(&worker.into_stats());
            stats
        });
        let mut drained = drained.lock().unwrap_or_else(PoisonError::into_inner);
        drained.0.merge(&worker_stats);
        drained.1.merge(worker_events);
    };
    let workers = jobs.min(tasks.len()).max(1);
    if workers == 1 {
        drain();
    } else {
        // Spawned workers re-install the caller's session feasibility cache
        // so verdicts computed on one worker are visible to all of them.
        let cache = current_feasibility_cache();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (drain, cache) = (&drain, &cache);
                scope.spawn(move || {
                    // Worker lanes are 1-based; 0 is the coordinator thread.
                    arrayeq_trace::set_worker((w + 1) as u32);
                    match cache {
                        Some(c) => with_feasibility_cache(c.clone(), drain),
                        None => drain(),
                    }
                });
            }
        });
    }

    // Phase 3: deterministic merge.  Diagnostics concatenate in unit order
    // (per output: prologue first, then its tasks in decomposition order),
    // which is exactly one traversal's emission order; task verdicts
    // conjoin; the first pipeline error in task order wins.
    let (worker_stats, worker_events) =
        drained.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.merge(&worker_stats);
    events.merge(worker_events);
    stats.conjuncts_subsumed += events.conjuncts_subsumed;
    stats.bigint_fallbacks += events.bigint_fallbacks;
    let mut results: Vec<Option<TaskSlot>> = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect();
    let mut all_ok = true;
    // The first out-of-fragment obligation and the first panic, if any: the
    // affected output's verdict is withheld (typed inconclusive).
    let mut fragment_reason: Option<BudgetExhausted> = None;
    let mut first_panic: Option<String> = None;
    let mut diagnostics = Vec::new();
    for (output_idx, (output, settled)) in outputs.iter().zip(prologue).enumerate() {
        let mut output_ok = true;
        match settled {
            Prologue::Clean => continue,
            Prologue::Tasks => {}
            Prologue::Mismatch(diag) => {
                diagnostics.push(diag);
                output_ok = false;
            }
            Prologue::Unsupported(reason) => {
                fragment_reason.get_or_insert(reason);
                output_ok = false;
            }
        }
        for (i, task) in tasks.iter().enumerate() {
            if task.output_idx != output_idx {
                continue;
            }
            let outcome = results[i]
                .take()
                .expect("every task slot is filled by a worker");
            match outcome {
                TaskSlot::Done(Ok((ok, task_diags))) => {
                    diagnostics.extend(task_diags.into_iter().map(|mut d| {
                        d.output_array.get_or_insert_with(|| output.clone());
                        d
                    }));
                    output_ok &= ok;
                }
                TaskSlot::Done(Err(e)) => {
                    fragment_reason.get_or_insert(unsupported_fragment(&e).ok_or(e)?);
                    output_ok = false;
                }
                TaskSlot::Panicked(message) => {
                    // The obligation is poisoned, not refuted: it neither
                    // proves nor disproves anything, so the verdict is
                    // withheld while every other task's result stands.
                    diagnostics.push(Diagnostic {
                        kind: DiagnosticKind::WorkerPanicked,
                        output_array: Some(output.clone()),
                        original_statements: task.trail_a.to_vec(),
                        transformed_statements: task.trail_b.to_vec(),
                        expressions: Vec::new(),
                        original_mapping: None,
                        transformed_mapping: None,
                        message: format!(
                            "worker task panicked ({message}); this obligation's verdict is \
                             poisoned and the run is inconclusive"
                        ),
                        failing_domain: None,
                    });
                    first_panic.get_or_insert(message);
                    output_ok = false;
                }
            }
        }
        all_ok &= output_ok;
        arrayeq_trace::event_with("output_verdict", || {
            vec![
                arrayeq_trace::s("output", output.clone()),
                arrayeq_trace::b("ok", output_ok),
            ]
        });
    }
    // A degraded solver answer that still stands means the verdict would
    // rest on a weakened constraint system, so it is withheld as
    // inconclusive rather than risked — never silently wrapped, never
    // panicked.  Overflow does not wind the pool down (unlike a budget trip,
    // the remaining obligations still produce their diagnostics).
    let verdict = if budget.is_exhausted()
        || first_panic.is_some()
        || events.degraded
        || fragment_reason.is_some()
    {
        Verdict::Inconclusive
    } else if all_ok {
        Verdict::Equivalent
    } else {
        Verdict::NotEquivalent
    };
    stats.check_time_us = started.elapsed().as_micros() as u64;
    let (fa, fb) = fps;
    let output_fingerprints = outputs
        .iter()
        .map(|o| (o.clone(), fa.array(o), fb.array(o)))
        .collect();
    let budget_exhausted = budget
        .take_reason()
        .or(fragment_reason)
        .or(first_panic.map(|message| BudgetExhausted::WorkerPanicked { message }))
        .or(events.degraded.then_some(BudgetExhausted::ArithOverflow {
            events: events.overflow_events,
        }));
    Ok(Report {
        verdict,
        diagnostics,
        witnesses: Vec::new(),
        stats,
        outputs_checked: outputs,
        output_fingerprints,
        output_domain_hashes: domain_hashes,
        budget_exhausted,
    })
}

/// Phase 1 of a run: per output, the domain check inside the output's
/// `output` trace span and, when the domains match, the output's root task.
/// With more than one job the root tasks are then split until the pool has
/// enough independent obligations.  Returns each output's [`Prologue`], the
/// tasks and the domain hashes of the matched outputs.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn decompose(
    a: &Addg,
    b: &Addg,
    opts: &CheckOptions,
    ctx: &CheckContext<'_>,
    fps: &(Fingerprints, Fingerprints),
    proofs: QueryProofs<'_>,
    outputs: &[String],
    jobs: usize,
    budget: &SharedBudget,
    stats: &mut CheckStats,
) -> Result<(Vec<Prologue>, Vec<CheckTask>, Vec<(String, u64)>)> {
    let mut prologue = Vec::with_capacity(outputs.len());
    let mut tasks = Vec::new();
    let mut domain_hashes = Vec::new();
    let mut cone = 0u64;
    for (output_idx, output) in outputs.iter().enumerate() {
        // Dirty-cone focus: outputs the caller proved clean against a
        // baseline keep their prologue slot (so the merge stays positional)
        // but get no domain check, no task and no diagnostics — exactly what
        // a from-scratch run in which they succeed silently looks like.
        if ctx.clean_outputs.contains(output) {
            arrayeq_trace::event_with("output_clean", || {
                vec![arrayeq_trace::s("output", output.clone())]
            });
            prologue.push(Prologue::Clean);
            continue;
        }
        cone += 1;
        let _span = arrayeq_trace::span_with("output", || {
            vec![arrayeq_trace::s("output", output.clone())]
        });
        prologue.push(match check_output_domains(a, b, output) {
            Ok(OutputDomains::Mismatch(diag)) => Prologue::Mismatch(Diagnostic {
                output_array: Some(output.clone()),
                ..*diag
            }),
            Ok(OutputDomains::Match(ea)) => {
                let id = Relation::identity_on(&ea);
                domain_hashes.push((output.clone(), id.structural_hash()));
                tasks.push(CheckTask {
                    output_idx,
                    trail_a: Trail::default(),
                    trail_b: Trail::default(),
                    assumptions: Vec::new(),
                    depth: 0,
                    kind: TaskKind::Traverse {
                        pos_a: Pos::Array(output.clone()),
                        map_a: id.clone(),
                        pos_b: Pos::Array(output.clone()),
                        map_b: id,
                    },
                });
                Prologue::Tasks
            }
            Err(e) => Prologue::Unsupported(unsupported_fragment(&e).ok_or(e)?),
        });
    }
    if !ctx.clean_outputs.is_empty() {
        stats.cone_positions = cone;
    }
    if jobs > 1 {
        // The coordinator's scratch checkers account against the run-wide
        // budget: their visit counts flush into the same shared counter the
        // workers use, so coordinator-side flattening cannot exceed
        // `max_work` unbounded.
        let scratch = || Checker::new(a, b, opts, ctx, fps, proofs, budget);
        expand_tasks(
            &mut tasks,
            jobs,
            jobs * TASKS_PER_WORKER,
            a,
            b,
            opts,
            &scratch,
            stats,
        )?;
        stats.parallel_tasks = tasks.len() as u64;
        stats.algebraic_piece_tasks = tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::MatchPiece { .. }))
            .count() as u64;
    }
    Ok((prologue, tasks, domain_hashes))
}

/// Splits tasks until at least `target` of them exist (or nothing safely
/// expandable remains).  The shallowest expandable task is split first, so
/// every output contributes obligations before any one chain is split deep;
/// children are spliced in place of their parent, preserving the
/// traversal's depth-first diagnostic order.
#[allow(clippy::too_many_arguments)]
fn expand_tasks<'x>(
    tasks: &mut Vec<CheckTask>,
    jobs: usize,
    target: usize,
    a: &Addg,
    b: &Addg,
    opts: &CheckOptions,
    scratch: &dyn Fn() -> Checker<'x>,
    stats: &mut CheckStats,
) -> Result<()> {
    'grow: while tasks.len() < target {
        // Algebraic piece-splitting only runs while the pool is *starved*
        // (fewer obligations than workers): it is what un-serialises a run
        // dominated by one flatten/match position, but a piece task starts
        // below the obligation's proof key, so once every worker has work
        // the obligation stays whole and its sub-proof is published as
        // usual.
        let split_algebraic = tasks.len() < jobs;
        // Shallowest candidates first, so every output contributes
        // obligations before any single chain is split deep.
        let mut order: Vec<usize> = (0..tasks.len())
            .filter(|&j| tasks[j].depth < MAX_SPLIT_DEPTH)
            .collect();
        order.sort_by_key(|&j| (tasks[j].depth, j));
        for j in order {
            match expand_one(&tasks[j], a, b, opts, scratch, split_algebraic, stats)? {
                Some(children) => {
                    tasks.splice(j..=j, children);
                    continue 'grow;
                }
                // Unsplittable (algebraic root, leaf pair, …): mark so it is
                // never scanned again.
                None => tasks[j].depth = MAX_SPLIT_DEPTH,
            }
        }
        break; // nothing left to split
    }
    Ok(())
}

/// Splits one task a single reduction step, mirroring exactly what
/// `Checker::check` would do at that position — or `None` when the
/// position must be proven whole (leaf comparisons, positions under an
/// already-installed matching assumption, operand-count mismatches that
/// must produce their diagnostic inside a worker).  Algebraic flatten/match
/// positions are no longer opaque: [`expand_algebraic`] flattens them in
/// the coordinator and splits the obligation into one task per region
/// piece.
fn expand_one<'x>(
    task: &CheckTask,
    a: &Addg,
    b: &Addg,
    opts: &CheckOptions,
    scratch: &dyn Fn() -> Checker<'x>,
    split_algebraic: bool,
    stats: &mut CheckStats,
) -> Result<Option<Vec<CheckTask>>> {
    let TaskKind::Traverse {
        pos_a,
        map_a,
        pos_b,
        map_b,
    } = &task.kind
    else {
        return Ok(None); // per-piece match tasks are terminal
    };
    // Mirror of `check`'s Access resolution: compose through the dependency
    // mapping and continue at the array position.
    if let Pos::Node(n) = pos_a {
        if let Node::Access {
            array,
            mapping,
            statement,
            ..
        } = a.node(*n)
        {
            stats.compositions += 1;
            let new_map = {
                let _span = arrayeq_trace::span("compose");
                let t0 = arrayeq_trace::metrics_timer();
                let m = map_a.compose(mapping)?.simplified(true);
                arrayeq_trace::record_elapsed(arrayeq_trace::Metric::Composition, t0);
                m
            };
            return Ok(Some(vec![CheckTask::traverse(
                task,
                Pos::Array(array.clone()),
                new_map,
                pos_b.clone(),
                map_b.clone(),
                task.trail_a.with(statement),
                task.trail_b.clone(),
                task.assumptions.clone(),
            )]));
        }
    }
    if let Pos::Node(n) = pos_b {
        if let Node::Access {
            array,
            mapping,
            statement,
            ..
        } = b.node(*n)
        {
            stats.compositions += 1;
            let new_map = {
                let _span = arrayeq_trace::span("compose");
                let t0 = arrayeq_trace::metrics_timer();
                let m = map_b.compose(mapping)?.simplified(true);
                arrayeq_trace::record_elapsed(arrayeq_trace::Metric::Composition, t0);
                m
            };
            return Ok(Some(vec![CheckTask::traverse(
                task,
                pos_a.clone(),
                map_a.clone(),
                Pos::Array(array.clone()),
                new_map,
                task.trail_a.clone(),
                task.trail_b.with(statement),
                task.assumptions.clone(),
            )]));
        }
    }

    match (pos_a, pos_b) {
        (Pos::Array(va), Pos::Array(vb)) => {
            // Focused-checking correspondences terminate the traversal at
            // this pair; proving them is one leaf comparison.
            if let Some(focus) = &opts.focus {
                if focus
                    .intermediate_pairs
                    .iter()
                    .any(|(x, y)| x == va && y == vb)
                {
                    return Ok(None);
                }
            }
            // Under an assumption for this very pair the traversal
            // consults the assumed element pairs before reducing; leave that
            // decision to a worker.
            if task
                .assumptions
                .iter()
                .any(|((x, y), _)| x == va && y == vb)
            {
                return Ok(None);
            }
            if !a.is_input(va) {
                // Mirror of `reduce_side_a`, with the recurrence assumption
                // the reduction installs around its children.
                let pairs = map_a.inverse().compose(map_b)?;
                let mut assumptions = task.assumptions.clone();
                assumptions.push(((va.clone(), vb.clone()), pairs));
                return split_side_a(task, a, va, assumptions).map(Some);
            }
            if !b.is_input(vb) {
                return split_side_b(task, b, vb).map(Some);
            }
            Ok(None) // both inputs: a single leaf-mapping comparison
        }
        (Pos::Array(va), Pos::Node(_)) => {
            if a.is_input(va) {
                // Leaf-versus-operator: either the algebraic one-term
                // reading or its diagnostic — one task either way.
                return Ok(None);
            }
            // `reduce_side_a` without an assumption (the recurrence key
            // needs an array position on both sides).
            split_side_a(task, a, va, task.assumptions.clone()).map(Some)
        }
        (Pos::Node(_), Pos::Array(vb)) => {
            if b.is_input(vb) {
                return Ok(None);
            }
            split_side_b(task, b, vb).map(Some)
        }
        (Pos::Node(na), Pos::Node(nb)) => {
            let (
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
            ) = (a.node(*na), b.node(*nb))
            else {
                // Const pairs and operator/constant chains: trivial tasks
                // (the worker folds or diagnoses them whole).
                return Ok(None);
            };
            // Mirror of `check_nodes`' dispatch: a shared chain family means
            // a flatten/match obligation, which the coordinator can split
            // into per-piece sub-obligations.
            if let Some(family) = normalize::chain_family(ka, kb, &opts.operators, opts.method) {
                if !split_algebraic {
                    // Pool already saturated: the flatten/match obligation
                    // stays whole so its proof is published.
                    return Ok(None);
                }
                return expand_algebraic(
                    task,
                    family,
                    Pos::Node(*na),
                    map_a.clone(),
                    Pos::Node(*nb),
                    map_b.clone(),
                    task.trail_a.with(sa),
                    task.trail_b.with(sb),
                    scratch(),
                    stats,
                );
            }
            if ka != kb || oa.len() != ob.len() {
                return Ok(None); // the worker produces the diagnostic
            }
            // Mirror of the positional operand pairing.
            let trail_a = task.trail_a.with(sa);
            let trail_b = task.trail_b.with(sb);
            let children = oa
                .iter()
                .zip(ob.iter())
                .map(|(x, y)| {
                    CheckTask::traverse(
                        task,
                        Pos::Node(*x),
                        map_a.clone(),
                        Pos::Node(*y),
                        map_b.clone(),
                        trail_a.clone(),
                        trail_b.clone(),
                        task.assumptions.clone(),
                    )
                })
                .collect();
            Ok(Some(children))
        }
    }
}

/// Splits one flatten/match obligation into per-region-piece tasks: the
/// coordinator replays the *flattening* (compositions and restrictions, no
/// proving — the same work the traversal performs before its
/// first match) and restricts the term lists per piece; each piece's match
/// is an independent sub-obligation for the pool, and the coordinator's
/// flatten is reused even for single-region chains.  `None` only when a
/// budget tripped mid-flatten (a worker then re-derives the whole
/// obligation under the shared budget).  `scratch` is a fresh checker of
/// the run that does the flattening.
#[allow(clippy::too_many_arguments)]
fn expand_algebraic(
    task: &CheckTask,
    family: OperatorKind,
    pos_a: Pos,
    map_a: Relation,
    pos_b: Pos,
    map_b: Relation,
    trail_a: Trail,
    trail_b: Trail,
    mut scratch: Checker<'_>,
    stats: &mut CheckStats,
) -> Result<Option<Vec<CheckTask>>> {
    scratch.stats.flattenings += 1;
    let full = map_a.domain();
    let mut terms_a = Vec::new();
    let ok_a =
        scratch.flatten_family(true, &family, pos_a, map_a, &trail_a, 1, true, &mut terms_a)?;
    let mut terms_b = Vec::new();
    let ok_b = scratch.flatten_family(
        false,
        &family,
        pos_b,
        map_b,
        &trail_b,
        1,
        true,
        &mut terms_b,
    )?;
    if !ok_a || !ok_b {
        return Ok(None);
    }
    scratch.stats.terms_flattened += (terms_a.len() + terms_b.len()) as u64;
    let pieces = matching::split_pieces(&full, &terms_a, &terms_b)?;
    // Even a single-region chain becomes a piece task: the coordinator's
    // flatten is then *reused* by the worker (which runs only the match)
    // instead of re-derived — returning `None` here would double the
    // flatten work of every algebraic obligation the expansion reached.
    stats.merge(&scratch.into_stats());
    let mut children = Vec::with_capacity(pieces.len());
    for piece in pieces {
        let live_a = matching::restrict_terms(&terms_a, &piece)?;
        let live_b = matching::restrict_terms(&terms_b, &piece)?;
        children.push(CheckTask {
            output_idx: task.output_idx,
            trail_a: trail_a.clone(),
            trail_b: trail_b.clone(),
            assumptions: task.assumptions.clone(),
            // Pieces are atomic: the match itself is one greedy, stateful
            // obligation, never re-scanned for expansion.
            depth: MAX_SPLIT_DEPTH,
            kind: TaskKind::MatchPiece {
                family: family.clone(),
                live_a,
                live_b,
                piece,
            },
        });
    }
    Ok(Some(children))
}

/// Mirror of `reduce_side_a`: one child per definition of `va` whose
/// elements the current mapping reaches.
fn split_side_a(
    task: &CheckTask,
    a: &Addg,
    va: &str,
    assumptions: Vec<((String, String), Relation)>,
) -> Result<Vec<CheckTask>> {
    let TaskKind::Traverse {
        pos_b,
        map_a,
        map_b,
        ..
    } = &task.kind
    else {
        unreachable!("split_side_a is only called on traversal tasks");
    };
    let mut children = Vec::new();
    for def in a.definitions(va) {
        let sub_a = map_a.restrict_range(&def.elements)?.simplified(true);
        if sub_a.is_empty() {
            continue;
        }
        let sub_domain = sub_a.domain();
        let sub_b = map_b.restrict_domain(&sub_domain)?.simplified(true);
        children.push(CheckTask::traverse(
            task,
            Pos::Node(def.root),
            sub_a,
            pos_b.clone(),
            sub_b,
            task.trail_a.with(&def.statement),
            task.trail_b.clone(),
            assumptions.clone(),
        ));
    }
    Ok(children)
}

/// Mirror of `reduce_side_b`: one child per definition of `vb`.
fn split_side_b(task: &CheckTask, b: &Addg, vb: &str) -> Result<Vec<CheckTask>> {
    let TaskKind::Traverse {
        pos_a,
        map_a,
        map_b,
        ..
    } = &task.kind
    else {
        unreachable!("split_side_b is only called on traversal tasks");
    };
    let mut children = Vec::new();
    for def in b.definitions(vb) {
        let sub_b = map_b.restrict_range(&def.elements)?.simplified(true);
        if sub_b.is_empty() {
            continue;
        }
        let sub_domain = sub_b.domain();
        let sub_a = map_a.restrict_domain(&sub_domain)?.simplified(true);
        children.push(CheckTask::traverse(
            task,
            pos_a.clone(),
            sub_a,
            Pos::Node(def.root),
            sub_b,
            task.trail_a.clone(),
            task.trail_b.with(&def.statement),
            task.assumptions.clone(),
        ));
    }
    Ok(children)
}
