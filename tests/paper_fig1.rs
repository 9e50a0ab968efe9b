//! Integration test: the paper's running example end-to-end (E1, E3, E4).

use arrayeq::core::{DiagnosticKind, Method};
use arrayeq::engine::{Verifier, VerifyRequest};
use arrayeq::lang::corpus::*;
use arrayeq::transform::mutate::fault_corpus;

/// The matrix at one worker and at two; the stable reports must be
/// identical.  Fig. 1 has one output, so both run its one task on the
/// calling thread; `fault_corpus_trails_are_pinned` reaches the spawned
/// pool with a two-output pair.
#[test]
fn fig1_verdict_matrix_matches_the_paper() {
    let versions = [("a", FIG1_A), ("b", FIG1_B), ("c", FIG1_C), ("d", FIG1_D)];
    let verifiers = [1, 2].map(|jobs| Verifier::builder().jobs(jobs).build());
    for (n1, s1) in versions {
        for (n2, s2) in versions {
            let expect = n1 != "d" && n2 != "d" || n1 == n2;
            let [one, two] = verifiers
                .each_ref()
                .map(|v| v.verify(&VerifyRequest::source(s1, s2)).unwrap().report);
            assert_eq!(
                one.is_equivalent(),
                expect,
                "({n1}) vs ({n2}) expected equivalent={expect}\n{}",
                one.summary()
            );
            assert_eq!(
                one.render_stable(),
                two.render_stable(),
                "({n1}) vs ({n2}) differs between jobs 1 and 2"
            );
        }
    }
}

#[test]
fn erroneous_version_d_is_diagnosed_on_the_even_elements() {
    let r = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_D))
        .unwrap()
        .report;
    assert!(!r.is_equivalent());
    let mapping_mismatches: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.kind == DiagnosticKind::MappingMismatch)
        .collect();
    assert!(!mapping_mismatches.is_empty());
    // The paper localises the error to statements v3 / v1 of (d).
    let blamed: Vec<String> = r.blame().into_iter().map(|(s, _)| s).collect();
    assert!(
        blamed.iter().any(|s| s == "v3" || s == "v1"),
        "blame list {blamed:?} should contain v3 or v1"
    );
}

#[test]
fn checker_verdicts_agree_with_simulation_on_fig1() {
    use arrayeq::lang::interp::{Inputs, Interpreter};
    use arrayeq::lang::parser::parse_program;
    let n = 1024usize;
    let a: Vec<i64> = (0..2 * n as i64).map(|i| 5 * i - 3).collect();
    let b: Vec<i64> = (0..2 * n as i64).map(|i| 2 * i + 11).collect();
    let run = |src: &str| {
        let p = parse_program(src).unwrap();
        Interpreter::new(&p)
            .run_for_output(
                &Inputs::new()
                    .array("A", a.clone())
                    .array("B", b.clone())
                    .output("C", n),
                "C",
            )
            .unwrap()
    };
    let outs = [run(FIG1_A), run(FIG1_B), run(FIG1_C), run(FIG1_D)];
    assert_eq!(outs[0], outs[1]);
    assert_eq!(outs[0], outs[2]);
    assert_ne!(outs[0], outs[3]);
}

/// Checks one pair under `method` at one job and at two, and asserts the
/// exact statement trails `(original, transformed)` of every diagnostic, in
/// report order, and the blame ranking.  At two jobs each output is at most
/// one task.
fn assert_trails(
    method: Method,
    request: &VerifyRequest,
    trails: &[(&[&str], &[&str])],
    blame: &[(&str, usize)],
) {
    let owned = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let want: Vec<_> = trails.iter().map(|(o, t)| (owned(o), owned(t))).collect();
    let want_blame: Vec<_> = blame.iter().map(|(s, n)| (s.to_string(), *n)).collect();
    for jobs in [1, 2] {
        let verifier = Verifier::builder().method(method).jobs(jobs).build();
        let r = verifier.verify(request).unwrap().report;
        let got: Vec<_> = r
            .diagnostics
            .iter()
            .map(|d| {
                (
                    d.original_statements.clone(),
                    d.transformed_statements.clone(),
                )
            })
            .collect();
        assert_eq!(got, want, "trails at jobs {jobs}\n{}", r.summary());
        assert_eq!(r.blame(), want_blame, "blame at jobs {jobs}");
        if jobs > 1 {
            assert!(
                r.stats.parallel_tasks <= r.outputs_checked.len() as u64,
                "{} tasks for outputs {:?}",
                r.stats.parallel_tasks,
                r.outputs_checked
            );
        }
    }
}

/// The fault-corpus case named `name`, as a request.
fn fault_case(name: &str) -> VerifyRequest {
    let case = fault_corpus()
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no fault case {name}"));
    VerifyRequest::programs(case.original, case.mutant)
}

#[test]
fn fig1_d_trails_name_the_erroneous_statements() {
    // Each failing piece reports the matcher's concatenation of the four
    // transformed terms' trails.
    let v31: &[&str] = &["v3", "v1", "v3", "v1", "v3", "v1", "v3", "v1"];
    assert_trails(
        Method::Extended,
        &VerifyRequest::source(FIG1_A, FIG1_D),
        &[(&["s3", "s1"], v31), (&["s3", "s2"], v31)],
        &[("v1", 8), ("v3", 8)],
    );
}

#[test]
fn basic_method_trails_name_each_statement_once() {
    // Fig. 1 (a)/(c) fails under the basic method on three leaf paths; a
    // path reading inside one statement names that statement once.
    assert_trails(
        Method::Basic,
        &VerifyRequest::source(FIG1_A, FIG1_C),
        &[
            (&["s3", "s1"], &["u3", "u1"]),
            (&["s3", "s2"], &["u3", "u1"]),
            (&["s3", "s2"], &["u3", "u2"]),
        ],
        &[("u3", 3), ("u1", 2), ("u2", 1)],
    );
}

#[test]
fn fault_corpus_trails_are_pinned() {
    assert_trails(
        Method::Extended,
        &fault_case("fig1a-wrong-coefficient@s1"),
        &[(
            &["s3", "s1"],
            &["s3", "s1", "s3", "s1", "s3", "s2", "s3", "s2"],
        )],
        &[("s3", 4), ("s1", 2), ("s2", 2)],
    );
    // A leaf reached through an array read of the statement just entered
    // names that statement once.
    assert_trails(
        Method::Extended,
        &fault_case("recurrence-drop-identity@r0"),
        &[(&["r0"], &["r0"])],
        &[("r0", 1)],
    );
    // Two outputs, D and S, so at two jobs their tasks run on spawned
    // workers.  In each output's chain two operands of the original find no
    // partner; the transformed trails list every operand's trail.
    let s21: &[&str] = &["l2", "l2", "l1", "l2", "l1"];
    assert_trails(
        Method::Extended,
        &fault_case("lifting-swap-operands@l1"),
        &[
            (&["l1"], &["l1", "l1"]),
            (&["l1"], &["l1", "l1"]),
            (&["l2", "l1"], s21),
            (&["l2", "l1"], s21),
        ],
        &[("l1", 8), ("l2", 6)],
    );
}
