//! End-to-end scenarios for the normalization subsystem
//! (`crates/core/src/normalize/`): factored/expanded products, subtraction
//! shuffles, identity and constant folding, annihilators and negation —
//! each verified `Equivalent` under the extended method, rejected by the
//! basic method where algebra is required, and the broken variants
//! rejected outright.

use arrayeq_core::{check, lower, CheckContext, CheckOptions, Report, Result};
use arrayeq_lang::ast::Program;
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

fn eq(a: &str, b: &str) -> bool {
    check_sources(a, b, &CheckOptions::default())
        .unwrap()
        .is_equivalent()
}
fn eq_basic(a: &str, b: &str) -> bool {
    check_sources(a, b, &CheckOptions::basic())
        .unwrap()
        .is_equivalent()
}

#[test]
fn pr5_scenarios() {
    let hdr =
        "#define N 32\nvoid f(int A[], int B[], int D[], int C[]) { int k; for (k=0;k<N;k++) ";
    // factored vs expanded
    let fac = format!("{hdr}s1: C[k] = A[k]*(B[k]+D[k]); }}");
    let exp = format!("{hdr}t1: C[k] = A[k]*B[k] + A[k]*D[k]; }}");
    assert!(eq(&fac, &exp), "factored vs expanded");
    assert!(eq(&exp, &fac), "expanded vs factored");
    assert!(!eq_basic(&fac, &exp), "basic must fail");
    // mutant
    let bad = format!("{hdr}t1: C[k] = A[k]*B[k] + D[k]; }}");
    assert!(!eq(&fac, &bad), "broken distribution rejected");
    // subtraction shuffle
    let s1 = format!("{hdr}s1: C[k] = A[k] - B[k] + D[k]; }}");
    let s2 = format!("{hdr}t1: C[k] = A[k] + D[k] - B[k]; }}");
    let s3 = format!("{hdr}t1: C[k] = D[k] - (B[k] - A[k]); }}");
    assert!(eq(&s1, &s2), "sub shuffle");
    assert!(eq(&s1, &s3), "nested sub shuffle");
    assert!(!eq_basic(&s1, &s2));
    let sbad = format!("{hdr}t1: C[k] = B[k] + D[k] - A[k]; }}");
    assert!(!eq(&s1, &sbad), "swapped signs rejected");
    // identity / constant folding
    let i1 = format!("{hdr}s1: C[k] = A[k] + 0 + B[k]*1 + 2 + 3; }}");
    let i2 = format!("{hdr}t1: C[k] = 5 + B[k] + A[k]; }}");
    assert!(eq(&i1, &i2), "identity + const fold");
    let i3 = format!("{hdr}t1: C[k] = 6 + B[k] + A[k]; }}");
    assert!(!eq(&i1, &i3), "wrong constant rejected");
    // x + 0 vs x (leaf)
    let l1 = format!("{hdr}s1: C[k] = A[k] + 0; }}");
    let l2 = format!("{hdr}t1: C[k] = A[k]; }}");
    assert!(eq(&l1, &l2), "identity vs leaf");
    assert!(eq(&l2, &l1), "leaf vs identity");
    // x*1 vs x
    let m1 = format!("{hdr}s1: C[k] = A[k]*1; }}");
    assert!(eq(&m1, &l2), "mul identity vs leaf");
    // annihilator
    let z1 = format!("{hdr}s1: C[k] = A[k]*0; }}");
    let z2 = format!("{hdr}t1: C[k] = 0; }}");
    let z3 = format!("{hdr}t1: C[k] = B[k]*0; }}");
    assert!(eq(&z1, &z2), "annihilator vs const");
    assert!(eq(&z1, &z3), "annihilator both sides");
    let z4 = format!("{hdr}t1: C[k] = 1; }}");
    assert!(!eq(&z1, &z4), "wrong const rejected");
    // negation
    let n1 = format!("{hdr}s1: C[k] = -(-A[k]); }}");
    assert!(eq(&n1, &l2), "double negation");
    let n2 = format!("{hdr}s1: C[k] = -(A[k] - B[k]); }}");
    let n3 = format!("{hdr}t1: C[k] = B[k] - A[k]; }}");
    assert!(eq(&n2, &n3), "negated difference");
    // distribution with subtraction + constants
    let d1 = format!("{hdr}s1: C[k] = 2*(A[k] - B[k]); }}");
    let d2 = format!("{hdr}t1: C[k] = 2*A[k] - 2*B[k]; }}");
    assert!(eq(&d1, &d2), "const distribution over sub");
    // distribution through an intermediate
    let t1 = "#define N 32\nvoid f(int A[], int B[], int D[], int C[]) { int k, t[N]; for (k=0;k<N;k++) s1: t[k] = B[k] + D[k]; for (k=0;k<N;k++) s2: C[k] = A[k]*t[k]; }";
    let t2 = "#define N 32\nvoid f(int A[], int B[], int D[], int C[]) { int k; for (k=0;k<N;k++) u1: C[k] = A[k]*B[k] + A[k]*D[k]; }";
    assert!(eq(t1, t2), "distribution through intermediate");
}

#[test]
fn parallel_runs_check_each_output_as_one_task() {
    use arrayeq_lang::corpus::{FIG1_A, FIG1_C, KERNEL_PIECEWISE_A, KERNEL_PIECEWISE_B};
    // Both pairs meet a flatten/match obligation over several region
    // pieces (Fig. 1 (c)'s buf and the piecewise sum are defined in
    // pieces); the pieces are matched inside their output's one task.
    for (name, a, b) in [
        ("fig1-a-c", FIG1_A, FIG1_C),
        ("piecewise", KERNEL_PIECEWISE_A, KERNEL_PIECEWISE_B),
    ] {
        let seq = check_sources(a, b, &CheckOptions::default()).unwrap();
        let par = check_sources(a, b, &CheckOptions::default().with_jobs(8)).unwrap();
        assert!(seq.is_equivalent(), "{name}: {}", seq.summary());
        assert_eq!(seq.render_stable(), par.render_stable(), "{name}");
        assert_eq!(seq.stats.parallel_tasks, 0, "{name}: one job counts none");
        assert!(
            par.stats.parallel_tasks <= par.outputs_checked.len() as u64,
            "{name}: {} tasks for {} outputs",
            par.stats.parallel_tasks,
            par.outputs_checked.len()
        );
        assert_eq!(par.stats.algebraic_piece_tasks, 0, "{name}");
    }
}

#[test]
fn arena_dedup_and_fast_matching_engage() {
    use arrayeq_lang::corpus::{FIG1_A, FIG1_C};
    let r = check_sources(FIG1_A, FIG1_C, &CheckOptions::default()).unwrap();
    assert!(r.is_equivalent());
    assert!(r.stats.arena_interns > 0, "terms were interned");
    assert!(
        r.stats.fast_term_matches > 0,
        "identical terms matched by id: {:?}",
        r.stats
    );
    assert_eq!(r.stats.hash_collisions, 0);
    assert!(r.summary().contains("term arena"));
}

#[test]
fn corpus_algebraic_pairs_verify_and_simulate() {
    use arrayeq_core::Verdict;
    use arrayeq_lang::corpus::ALGEBRAIC_PAIRS;
    use arrayeq_lang::interp::{standard_inputs, Interpreter};
    for (name, a, b) in ALGEBRAIC_PAIRS {
        let pa = parse_program(a).unwrap();
        let pb = parse_program(b).unwrap();
        // Ground truth first: the interpreter agrees on every output.
        for seed in [1u64, 2] {
            let inputs = standard_inputs(&pa, seed);
            let (ma, _) = Interpreter::new(&pa).run(&inputs).unwrap();
            let (mb, _) = Interpreter::new(&pb).run(&inputs).unwrap();
            for out in pa.output_arrays() {
                assert_eq!(ma.array(&out), mb.array(&out), "{name} seed {seed}");
            }
        }
        // The extended method proves it; the basic method cannot.
        let ext = check_programs(&pa, &pb, &CheckOptions::default()).unwrap();
        assert!(ext.is_equivalent(), "{name}: {}", ext.summary());
        let basic = check_programs(&pa, &pb, &CheckOptions::basic()).unwrap();
        assert_eq!(basic.verdict, Verdict::NotEquivalent, "{name} under basic");
        // And byte-identical stable reports at every worker count.
        for jobs in [2usize, 8] {
            let par = check_programs(&pa, &pb, &CheckOptions::default().with_jobs(jobs)).unwrap();
            assert_eq!(
                ext.render_stable(),
                par.render_stable(),
                "{name} jobs={jobs}"
            );
        }
    }
}
