//! Guarantees of the checking driver at every worker count:
//!
//! * **Determinism** — the same request at `jobs = 1, 2, 8` yields identical
//!   verdicts and a byte-identical stable rendering
//!   ([`Report::render_stable`]) across the Fig. 1 corpus, the
//!   fault-injection corpus and generated (including wide multi-output)
//!   kernels;
//! * **Stats consistency** — one-worker runs are deterministic down to
//!   their counters (two runs give identical [`CheckStats`] apart from
//!   time); merged counters of a pool respect the same internal identities;
//! * **Cache sharing** — the workers of one parallel engine query feed the
//!   session's shared feasibility memo and proof cache across threads (the
//!   thread-local memo is scoped per installed cache, so a single parallel
//!   query produces cross-thread hits).

use arrayeq_core::{check, lower, CheckContext, CheckOptions, CheckStats, Report, Result};
use arrayeq_engine::{Verifier, VerifyRequest};
use arrayeq_lang::ast::Program;
use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C, FIG1_D, KERNELS};
use arrayeq_lang::parser::parse_program;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::mutate::fault_corpus;
use arrayeq_transform::random_pipeline;

fn check_programs(a: &Program, b: &Program, opts: &CheckOptions) -> Result<Report> {
    check(
        &lower(a, opts)?,
        &lower(b, opts)?,
        opts,
        &CheckContext::default(),
    )
}

/// Every pair of the determinism corpus: the Fig. 1 pairs (equivalent and
/// not), the curated fault-injection mutants (all inequivalent, diagnostics
/// heavy), self-checks of the realistic kernels, and generated kernels —
/// deep chains and wide multi-output ones.
fn determinism_corpus() -> Vec<(String, Program, Program)> {
    let parse = |s: &str| parse_program(s).expect("corpus parses");
    let mut pairs = vec![
        ("fig1-a-b".to_owned(), parse(FIG1_A), parse(FIG1_B)),
        ("fig1-a-c".to_owned(), parse(FIG1_A), parse(FIG1_C)),
        ("fig1-a-d".to_owned(), parse(FIG1_A), parse(FIG1_D)),
        ("fig1-c-b".to_owned(), parse(FIG1_C), parse(FIG1_B)),
    ];
    for (name, src) in KERNELS.iter() {
        let p = parse(src);
        pairs.push(((*name).to_owned(), p.clone(), p));
    }
    for (i, case) in fault_corpus().into_iter().enumerate() {
        pairs.push((
            format!("mutant-{i}-{}", case.name),
            case.original,
            case.mutant,
        ));
    }
    for (layers, outputs, seed) in [(6usize, 1usize, 3u64), (2, 6, 4), (3, 4, 5)] {
        let original = generate_kernel(&GeneratorConfig {
            n: 64,
            layers,
            outputs,
            seed,
            ..Default::default()
        });
        let (transformed, _) = random_pipeline(&original, 4, seed + 100);
        pairs.push((format!("gen-L{layers}-O{outputs}"), original, transformed));
    }
    pairs
}

#[test]
fn same_request_at_jobs_1_2_8_renders_byte_identically() {
    for (name, original, transformed) in determinism_corpus() {
        let seq = check_programs(&original, &transformed, &CheckOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let baseline = seq.render_stable();
        for jobs in [1usize, 2, 8] {
            let par = check_programs(
                &original,
                &transformed,
                &CheckOptions::default().with_jobs(jobs),
            )
            .unwrap_or_else(|e| panic!("{name} jobs={jobs}: {e}"));
            assert_eq!(seq.verdict, par.verdict, "{name} jobs={jobs}");
            assert_eq!(
                baseline,
                par.render_stable(),
                "{name}: stable report differs at jobs={jobs}"
            );
        }
    }
}

#[test]
fn one_worker_runs_repeat_their_counters_exactly() {
    // With one worker nothing is scheduled: two runs of the same request
    // give not just the same verdict but identical CheckStats, time aside.
    let counters = |pa: &Program, pb: &Program| -> CheckStats {
        let report = check_programs(pa, pb, &CheckOptions::default().with_jobs(1)).unwrap();
        CheckStats {
            check_time_us: 0,
            ..report.stats
        }
    };
    for (a, b) in [(FIG1_A, FIG1_C), (FIG1_A, FIG1_D)] {
        let pa = parse_program(a).unwrap();
        let pb = parse_program(b).unwrap();
        let first = counters(&pa, &pb);
        assert_eq!(first.parallel_tasks, 0, "one worker does not decompose");
        assert_eq!(first, counters(&pa, &pb));
    }
}

#[test]
fn merged_parallel_counters_respect_the_internal_identities() {
    let original = generate_kernel(&GeneratorConfig {
        n: 64,
        layers: 3,
        outputs: 6,
        seed: 11,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 4, 211);
    let par = check_programs(
        &original,
        &transformed,
        &CheckOptions::default().with_jobs(4),
    )
    .unwrap();
    assert!(par.is_equivalent(), "{}", par.summary());
    let s = par.stats;
    assert!(s.table_hits <= s.table_lookups);
    assert!(s.table_entries <= s.table_lookups);
    assert!(s.shared_table_hits <= s.shared_table_lookups);
    assert_eq!(s.hash_collisions, 0);
    // Every term of this kernel pairs with its twin by arena id, so no leaf
    // path is compared; the work is the compositions down to the chains
    // and the pairings themselves.
    assert!(s.fast_term_matches > 0, "{s:?}");
    assert!(s.compositions > 0, "{s:?}");
    // The pool genuinely decomposed the obligation: a wide kernel yields
    // many independent root tasks, so work happened on several outputs.
    assert_eq!(par.outputs_checked.len(), 6);
}

#[test]
fn repeated_chains_hit_the_local_table_without_collisions() {
    // The rename-invariant keys unify the repeated chains, so a one-worker
    // run gets local table hits; debug builds cross-check each hit against
    // the canonical renderings of the stored mappings.
    let original = generate_kernel(&GeneratorConfig {
        n: 64,
        layers: 3,
        outputs: 6,
        distinct_chains: 2,
        seed: 11,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 4, 211);
    let r = check_programs(&original, &transformed, &CheckOptions::default()).unwrap();
    assert!(r.is_equivalent(), "{}", r.summary());
    assert!(r.stats.table_hits > 0, "{:?}", r.stats);
    assert_eq!(r.stats.hash_collisions, 0);
}

#[test]
fn one_parallel_query_produces_cross_thread_feasibility_hits() {
    // Regression for the dead shared FeasibilityCache (BENCH_PR3.json:
    // feasibility_hits 0 vs 1931 entries): the workers of a single
    // parallel query are fresh OS threads sharing the session memo — their
    // thread-local L1s start cold, so the same canonical conjuncts arriving
    // on two workers must produce shared-level hits.
    let original = generate_kernel(&GeneratorConfig {
        n: 128,
        layers: 3,
        outputs: 8,
        seed: 21,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 4, 321);
    let verifier = Verifier::builder().jobs(8).build();
    let outcome = verifier
        .verify(&VerifyRequest::programs(original, transformed))
        .unwrap();
    assert!(outcome.report.is_equivalent());
    let session = verifier.session_stats();
    assert!(
        session.feasibility_hits > 0,
        "workers must hit the shared feasibility memo: {session:?}"
    );
    assert!(session.feasibility_entries > 0);
}

#[test]
fn parallel_workers_share_the_session_equivalence_table_within_one_run() {
    // The wide kernel's chains hang off one shared base layer; with
    // rename-invariant keys the sub-proof of that shared region is
    // established once and discharged on every other worker through the
    // session table — visible as shared-table hits on the *first* query.
    let original = generate_kernel(&GeneratorConfig {
        n: 128,
        layers: 4,
        outputs: 8,
        seed: 31,
        ..Default::default()
    });
    let (transformed, _) = random_pipeline(&original, 4, 431);
    let verifier = Verifier::builder().jobs(8).build();
    let outcome = verifier
        .verify(&VerifyRequest::programs(original, transformed))
        .unwrap();
    assert!(outcome.report.is_equivalent());
    assert!(
        outcome.report.stats.shared_table_inserts > 0,
        "workers publish sub-proofs: {:?}",
        outcome.report.stats
    );
}

#[test]
fn thread_local_memo_rescopes_when_a_session_store_appears() {
    // Warm this thread's feasibility memo *outside* any engine session,
    // then query through an engine: the pre-session entries must not mask
    // the session store — the engine's memo still receives the verdicts
    // (entries > 0), so other threads of the session can hit them.
    let pa = parse_program(FIG1_A).unwrap();
    let pc = parse_program(FIG1_C).unwrap();
    let warm = check_programs(&pa, &pc, &CheckOptions::default()).unwrap();
    assert!(warm.is_equivalent());

    let verifier = Verifier::new();
    let outcome = verifier
        .verify(&VerifyRequest::programs(pa.clone(), pc.clone()))
        .unwrap();
    assert!(outcome.report.is_equivalent());
    let session = verifier.session_stats();
    assert!(
        session.feasibility_entries > 0,
        "session store was populated despite the warm thread-local memo: {session:?}"
    );
}
