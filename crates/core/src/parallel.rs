//! One verification run, on the calling thread or on a pool of worker
//! threads, with one task per output.
//!
//! The synchronized traversal of Section 5 establishes correspondences
//! output by output, and the outputs' obligations are independent up to the
//! proofs they share, so every [`crate::check`] runs in three phases:
//!
//! 1. **Decompose** (coordinator, the calling thread): per output, the
//!    defined-element sets of both programs are compared inside an `output`
//!    trace span, which either settles the output (a mismatch diagnostic)
//!    or yields its one [`CheckTask`]: the output's root obligation, the
//!    output array against itself under the identity on its defined
//!    elements, which one traversal then proves whole.
//! 2. **Execute**: workers pull tasks off a shared queue (an atomic cursor —
//!    idle workers take whatever output is next, so one expensive output
//!    does not serialise the run).  A single worker drains the queue on the
//!    calling thread without spawning; more run in a scoped pool of at most
//!    one worker per task, so a one-output run never spawns.  Each worker
//!    owns a full [`Checker`] — coinductive assumptions, look-through
//!    steps, stats, diagnostics buffer; term arenas live for one region
//!    piece of a match, not in a worker — and all workers share the run's
//!    one [`crate::ProofCache`] (the caller's through [`CheckContext::proofs`],
//!    or one made for the run; rename-invariant keys mean one worker's
//!    sub-proof discharges another worker's identical obligation mid-run).
//!    Feasibility verdicts are memoised per thread by `arrayeq-omega`, so
//!    each worker decides on its own memo and shares nothing there.  Budgets
//!    and cancellation propagate through one [`SharedBudget`]: any worker
//!    tripping the work limit, deadline or cancel token winds the whole
//!    pool down promptly.
//! 3. **Merge** (coordinator): output by output, in output order, the
//!    prologue's diagnostic or the task's diagnostics (deterministic —
//!    [`crate::Report::render_stable`] is byte-identical at every `jobs`);
//!    the output verdicts conjoin, and per-worker [`CheckStats`] and
//!    [`SolverEvents`] merge race-free at join.

use crate::checker::{
    check_output_domains, select_outputs, unsupported_fragment, CheckOptions, Checker,
    OutputDomains, SharedBudget,
};
use crate::context::{BudgetExhausted, CheckContext};
use crate::diagnostics::{Diagnostic, DiagnosticKind};
use crate::proofs::QueryProofs;
use crate::report::{CheckStats, Report, Verdict};
use crate::Result;
use arrayeq_addg::{Addg, Fingerprints};
use arrayeq_omega::{solver_events, Relation, SolverEvents};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

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

/// One output's root obligation: the output array against itself under
/// the identity on its defined elements.
struct CheckTask {
    /// Index into the checked-outputs list.
    output_idx: usize,
    /// The identity relation on the output's defined elements.
    identity: Relation,
}

/// What the coordinator settled for one output before any task runs.
enum Prologue {
    /// Skipped as baseline-clean ([`CheckContext::clean_outputs`]): no
    /// domain check, no task, no verdict.
    Clean,
    /// The domains match; the output's one task decides it.
    Task,
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
    proofs: &QueryProofs<'_>,
) -> Result<Report> {
    let started = Instant::now();
    let jobs = opts.effective_jobs();
    let outputs = select_outputs(a, b, opts)?;

    // Phase 1: decompose.  Every thread's share of the run is one
    // solver-events scope, the coordinator's domain checks included.
    let mut stats = CheckStats::default();
    let (decomposed, mut events) = solver_events(|| decompose(a, b, ctx, &outputs, &mut stats));
    let (prologue, tasks, domain_hashes) = decomposed?;
    if jobs > 1 {
        stats.parallel_tasks = tasks.len() as u64;
    }

    // Phase 2: the workers.  Every task runs under `catch_unwind`: a
    // panicking task poisons only its own obligation (its slot records the
    // payload; the merge turns it into a typed
    // [`DiagnosticKind::WorkerPanicked`] inconclusive), and the worker
    // *quarantines* its local state by discarding the whole `Checker` —
    // look-through steps, coinductive assumptions, buffered diagnostics
    // could all be mid-mutation — and continuing on a fresh one.  The
    // *shared* proof cache needs no rollback: it only ever receives
    // completed sub-proofs in a single insert, so an unwound task has
    // published either nothing or a finished entry, never partial state.
    // The worker thread's feasibility memo likewise holds only finished
    // verdicts.
    let budget = SharedBudget::default();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<TaskSlot>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    let drained = Mutex::new((CheckStats::default(), SolverEvents::default()));
    let drain = || {
        let (worker_stats, worker_events) = solver_events(|| {
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
                let output = &outputs[task.output_idx];
                let _span = arrayeq_trace::span_with("task", || {
                    vec![arrayeq_trace::s("output", output.clone())]
                });
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    worker.run_task(output, task.identity.clone())
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
        // Each worker records into the coordinator's recorder, on its own
        // lane; lanes are 1-based, 0 is the coordinator thread.
        let recorder = arrayeq_trace::Recorder::current();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let drain = &drain;
                let lane = arrayeq_trace::Recorder {
                    worker: (w + 1) as u32,
                    ..recorder.clone()
                };
                scope.spawn(move || arrayeq_trace::recording(&lane, drain));
            }
        });
    }

    // The workers poll the deadline only every 64 visits, so a run can end
    // between two polls after its deadline; it answers as if a poll had
    // seen the overrun, whatever it concluded.
    if !budget.is_exhausted() && ctx.deadline.is_some_and(|d| Instant::now() >= d) {
        budget.trip(BudgetExhausted::DeadlineExceeded {
            elapsed_ms: started.elapsed().as_millis() as u64,
        });
    }

    // Phase 3: deterministic merge.  Output by output, in output order,
    // which is exactly one traversal's emission order: the prologue's
    // diagnostic, or the output's one task slot (the slots are in output
    // order too).  Output verdicts conjoin; the first pipeline error in
    // output order wins.
    let (worker_stats, worker_events) =
        drained.into_inner().unwrap_or_else(PoisonError::into_inner);
    stats.merge(&worker_stats);
    events.merge(worker_events);
    stats.conjuncts_subsumed += events.conjuncts_subsumed;
    stats.bigint_fallbacks += events.bigint_fallbacks;
    let mut results = slots.into_iter().map(|slot| {
        slot.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("every task slot is filled by a worker")
    });
    let mut all_ok = true;
    // The first out-of-fragment obligation and the first panic, if any: the
    // affected output's verdict is withheld (typed inconclusive).
    let mut fragment_reason: Option<BudgetExhausted> = None;
    let mut first_panic: Option<String> = None;
    let mut diagnostics = Vec::new();
    for (output, settled) in outputs.iter().zip(prologue) {
        let output_ok = match settled {
            Prologue::Clean => continue,
            Prologue::Mismatch(diag) => {
                diagnostics.push(diag);
                false
            }
            Prologue::Unsupported(reason) => {
                fragment_reason.get_or_insert(reason);
                false
            }
            Prologue::Task => match results.next().expect("one slot per task") {
                TaskSlot::Done(Ok((ok, task_diags))) => {
                    diagnostics.extend(task_diags.into_iter().map(|mut d| {
                        d.output_array.get_or_insert_with(|| output.clone());
                        d
                    }));
                    ok
                }
                TaskSlot::Done(Err(e)) => {
                    fragment_reason.get_or_insert(unsupported_fragment(&e).ok_or(e)?);
                    false
                }
                TaskSlot::Panicked(message) => {
                    // The obligation is poisoned, not refuted: it neither
                    // proves nor disproves anything, so the verdict is
                    // withheld while every other output's result stands.
                    diagnostics.push(Diagnostic {
                        kind: DiagnosticKind::WorkerPanicked,
                        output_array: Some(output.clone()),
                        original_statements: Vec::new(),
                        transformed_statements: Vec::new(),
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
                    false
                }
            },
        };
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
/// `output` trace span and, when the domains match, the output's task.
/// Returns each output's [`Prologue`], the tasks in output order and the
/// domain hashes of the matched outputs.
#[allow(clippy::type_complexity)]
fn decompose(
    a: &Addg,
    b: &Addg,
    ctx: &CheckContext<'_>,
    outputs: &[String],
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
                let identity = Relation::identity_on(&ea);
                domain_hashes.push((output.clone(), identity.structural_hash()));
                tasks.push(CheckTask {
                    output_idx,
                    identity,
                });
                Prologue::Task
            }
            Err(e) => Prologue::Unsupported(unsupported_fragment(&e).ok_or(e)?),
        });
    }
    if !ctx.clean_outputs.is_empty() {
        stats.cone_positions = cone;
    }
    Ok((prologue, tasks, domain_hashes))
}
