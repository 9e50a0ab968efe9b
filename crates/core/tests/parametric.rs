//! End-to-end tests of symbolic-parameter (`#param`) verification: one
//! parametric check must agree with a concrete sweep over every instantiated
//! size, and the `CheckOptions::params` promotion surface must turn a
//! `#define`-sized pair into a parametric proof.

use arrayeq_core::{check, lower, CheckContext, CheckOptions, Report, Result, Verdict};
use arrayeq_lang::ast::Program;
use arrayeq_lang::corpus::{
    FIG1_A, FIG1_C, KERNEL_SUB_SHUFFLE_A, KERNEL_SUB_SHUFFLE_B, PARAMETRIC_PAIRS,
};
use arrayeq_lang::parser::parse_program;

fn check_programs(a: &Program, b: &Program, opts: &CheckOptions) -> Result<Report> {
    check(
        &lower(a, opts)?,
        &lower(b, opts)?,
        opts,
        &CheckContext::default(),
    )
}

fn check_sources(a: &str, b: &str, opts: &CheckOptions) -> Result<Report> {
    check_programs(&parse_program(a)?, &parse_program(b)?, opts)
}

#[test]
fn parametric_pairs_verify_once_for_all_sizes() {
    for (name, a, b) in PARAMETRIC_PAIRS {
        let r =
            check_sources(a, b, &CheckOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(r.verdict, Verdict::Equivalent, "{name}: {}", r.summary());
    }
}

#[test]
fn parametric_verdicts_agree_with_concrete_sweeps() {
    for (name, a, b) in PARAMETRIC_PAIRS {
        let pa = parse_program(a).unwrap();
        let pb = parse_program(b).unwrap();
        let pname = pa.symbolic_params[0].0.clone();
        let min = pa.symbolic_params[0].1;
        let parametric = check_programs(&pa, &pb, &CheckOptions::default()).unwrap();
        // Every admissible concrete size must reproduce the parametric
        // verdict.
        for n in min..=64 {
            let ia = pa.with_param_values(&[(pname.clone(), n)]);
            let ib = pb.with_param_values(&[(pname.clone(), n)]);
            let concrete = check_programs(&ia, &ib, &CheckOptions::default()).unwrap();
            assert_eq!(
                concrete.verdict, parametric.verdict,
                "{name} at {pname} = {n} disagrees with the parametric verdict"
            );
        }
    }
}

#[test]
fn promoted_params_prove_a_size_generic_pair_for_every_size() {
    // The sub-shuffle pair is written with `#define N 64` but nothing in it
    // depends on the concrete size; promoting `N` via the options turns the
    // one concrete proof into an all-sizes proof.
    let opts = CheckOptions::default().with_params(vec![("N".to_string(), 1)]);
    let r = check_sources(KERNEL_SUB_SHUFFLE_A, KERNEL_SUB_SHUFFLE_B, &opts).unwrap();
    assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.summary());
}

#[test]
fn promotion_rejects_pairs_that_only_hold_at_special_sizes() {
    // Fig. 1 (a) vs (c) is only equivalent for *even* N: statement u2's
    // stride-2 loop starts at N, so for odd N the elements u3 reads at even
    // positions >= N are never written.  The concrete N = 1024 proof must
    // NOT generalize — promoting N has to fail the def-use coverage check
    // rather than claim an all-sizes proof.
    let opts = CheckOptions::default().with_params(vec![("N".to_string(), 1)]);
    let err = check_sources(FIG1_A, FIG1_C, &opts).unwrap_err();
    assert!(
        err.to_string().contains("buf"),
        "expected a def-use coverage failure on `buf`, got: {err}"
    );
}

#[test]
fn parametric_runs_are_jobs_invariant() {
    // render_stable must stay byte-identical between sequential and parallel
    // runs on parametric obligations too.
    for (name, a, b) in PARAMETRIC_PAIRS {
        let seq = check_sources(a, b, &CheckOptions::default()).unwrap();
        let par = check_sources(a, b, &CheckOptions::default().with_jobs(4)).unwrap();
        assert_eq!(
            seq.render_stable(),
            par.render_stable(),
            "{name}: sequential and parallel stable renderings differ"
        );
    }
}
