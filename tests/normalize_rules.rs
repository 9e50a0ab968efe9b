//! Property tests for the normalization rules: for randomly generated
//! algebra-rich kernels, every rewrite the subsystem claims to normalise —
//! one-level distribution, subtraction shuffling, identity/constant noise —
//! produces a program that (1) the interpreter agrees with on deterministic
//! input fills (ground truth, independent of the checker) and (2) the
//! extended method proves `Equivalent`, sequentially and in parallel with a
//! byte-identical stable report.

use arrayeq::core::{Report, Verdict};
use arrayeq::engine::{Method, Verifier, VerifyRequest};
use arrayeq::lang::ast::Program;
use arrayeq::lang::interp::{standard_inputs, Interpreter};
use arrayeq::transform::algebraic::{
    distribute_program, insert_identity_noise, shuffle_subtractions,
};
use arrayeq::transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq::transform::pipeline::random_pipeline;
use proptest::prelude::*;

fn algebra_kernel(seed: u64) -> Program {
    generate_kernel(&GeneratorConfig {
        n: 24,
        layers: 3,
        inputs: 3,
        fanin: 3,
        algebra: true,
        seed,
        ..Default::default()
    })
}

/// Verifies the pair on a fresh engine.
fn verify(verifier: &Verifier, a: &Program, b: &Program) -> arrayeq::core::Result<Report> {
    let request = VerifyRequest::programs(a.clone(), b.clone());
    verifier.verify(&request).map(|o| o.report)
}

/// Ground truth: both programs produce identical outputs on two
/// deterministic input fills.
fn simulation_agrees(a: &Program, b: &Program) -> bool {
    for seed in [1u64, 2] {
        let inputs = standard_inputs(a, seed);
        let (ma, _) = Interpreter::new(a).run(&inputs).expect("original runs");
        let (mb, _) = Interpreter::new(b).run(&inputs).expect("transformed runs");
        for out in a.output_arrays() {
            if ma.array(&out) != mb.array(&out) {
                return false;
            }
        }
    }
    true
}

/// The full acceptance for one rewrite: simulation agreement, an
/// `Equivalent` verdict under the extended method, and jobs-independent
/// stable reports.
fn assert_rule_holds(name: &str, original: &Program, rewritten: &Program) {
    assert!(
        simulation_agrees(original, rewritten),
        "{name}: rewrite changed observable behaviour"
    );
    let seq = verify(&Verifier::new(), original, rewritten)
        .unwrap_or_else(|e| panic!("{name}: pipeline error {e}"));
    assert_eq!(
        seq.verdict,
        Verdict::Equivalent,
        "{name}: {}",
        seq.summary()
    );
    let par = verify(&Verifier::builder().jobs(4).build(), original, rewritten)
        .unwrap_or_else(|e| panic!("{name}: parallel pipeline error {e}"));
    assert_eq!(seq.render_stable(), par.render_stable(), "{name} at jobs=4");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One-level distribution: expanding every factored product of a
    /// generated kernel is interp-identical and verified `Equivalent`.
    #[test]
    fn distribution_rule_replays_and_verifies(seed in 0u64..4096) {
        let p = algebra_kernel(seed);
        let (q, expanded) = distribute_program(&p);
        prop_assume!(expanded > 0); // this kernel drew no factored product
        assert_rule_holds("distribute", &p, &q);
    }

    /// Subtraction shuffling: rotating every additive chain (signs
    /// preserved) is interp-identical and verified `Equivalent`.
    #[test]
    fn subtraction_shuffle_rule_replays_and_verifies(seed in 0u64..4096) {
        let p = algebra_kernel(seed);
        let mut q = p.clone();
        let mut rotated = 0;
        let labels: Vec<String> = p.statements().map(|a| a.label.clone()).collect();
        for label in labels {
            let (next, n) = shuffle_subtractions(&q, &label);
            q = next;
            rotated += n;
        }
        prop_assume!(rotated > 0 && q != p);
        assert_rule_holds("sub-shuffle", &p, &q);
    }

    /// Identity/constant noise: sprinkling `+ 0` / `* 1` / split constants
    /// over a generated kernel is interp-identical and verified
    /// `Equivalent` (the checker folds the noise away).
    #[test]
    fn identity_noise_rule_replays_and_verifies(seed in 0u64..4096, noise in 0u64..64) {
        let p = algebra_kernel(seed);
        let (q, inserted) = insert_identity_noise(&p, noise);
        prop_assume!(inserted > 0);
        assert_rule_holds("identity-noise", &p, &q);
    }

    /// Composition of the rules: distribute, then shuffle, then noise —
    /// still interp-identical and still `Equivalent`.
    #[test]
    fn composed_rules_replay_and_verify(seed in 0u64..4096) {
        let p = algebra_kernel(seed);
        let (q1, _) = distribute_program(&p);
        let mut q2 = q1.clone();
        let labels: Vec<String> = q2.statements().map(|a| a.label.clone()).collect();
        for label in labels {
            let (next, _) = shuffle_subtractions(&q2, &label);
            q2 = next;
        }
        let (q3, _) = insert_identity_noise(&q2, seed ^ 0x5eed);
        prop_assume!(q3 != p);
        assert_rule_holds("composed", &p, &q3);
    }

    /// The basic method rejects what only the algebra proves: whenever the
    /// composed rewrite changed the program, `Method::Basic` must *not*
    /// report equivalence (the pairs genuinely require normalization).
    #[test]
    fn rules_are_invisible_to_the_basic_method_only_via_algebra(seed in 0u64..4096) {
        let p = algebra_kernel(seed);
        let (q, inserted) = insert_identity_noise(&p, seed);
        prop_assume!(inserted > 0);
        let basic = verify(&Verifier::builder().method(Method::Basic).build(), &p, &q).unwrap();
        prop_assert_eq!(basic.verdict, Verdict::NotEquivalent);
    }
}

/// The scaling suite's generated pairs (`generated_pair(layers, 256, 11)`:
/// a generated kernel against its random pipeline of `2 * layers` steps)
/// pair every term with its twin by arena id, so one job runs no
/// speculative term check: each interned original term finds its
/// transformed twin, and no leaf path is compared.
#[test]
fn generated_pairs_pair_every_term_with_its_twin() {
    for layers in [9, 17] {
        let original = generate_kernel(&GeneratorConfig {
            n: 256,
            layers,
            seed: 11,
            ..Default::default()
        });
        let (transformed, _) = random_pipeline(&original, 2 * layers, 12);
        let r = verify(
            &Verifier::builder().jobs(1).build(),
            &original,
            &transformed,
        )
        .expect("pipeline runs");
        assert_eq!(r.verdict, Verdict::Equivalent, "L{layers}: {}", r.summary());
        let s = &r.stats;
        assert_eq!(2 * s.fast_term_matches, s.arena_interns, "L{layers}: {s:?}");
        assert_eq!(s.paths_compared, 0, "L{layers}: {s:?}");
        assert!(s.fast_term_matches > 0, "L{layers}: {s:?}");
    }
}

/// A chain whose first term has no twin: `A[k] + B[k]` and `B[k] + A[k]`
/// fingerprint differently, so the original's first `absd` term tries the
/// transformed `absd(A[k], B[k])` first.  That speculative candidate fails
/// (a two-term chain against one leaf) before the right one pairs, and
/// leaves nothing in the report.
#[test]
fn a_failed_speculative_candidate_leaves_no_diagnostic() {
    let original = arrayeq::lang::parser::parse_program(
        r#"
#define N 16
void f(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = absd(A[k] + B[k], A[k]) + absd(A[k], B[k]);
}
"#,
    )
    .expect("parses");
    let transformed = arrayeq::lang::parser::parse_program(
        r#"
#define N 16
void f(int A[], int B[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
t1:     C[k] = absd(A[k], B[k]) + absd(B[k] + A[k], A[k]);
}
"#,
    )
    .expect("parses");
    let one = verify(
        &Verifier::builder().jobs(1).build(),
        &original,
        &transformed,
    )
    .expect("pipeline runs");
    assert_eq!(one.verdict, Verdict::Equivalent, "{}", one.summary());
    assert!(one.diagnostics.is_empty(), "{:?}", one.diagnostics);
    let eight = verify(
        &Verifier::builder().jobs(8).build(),
        &original,
        &transformed,
    )
    .expect("pipeline runs");
    assert_eq!(one.render_stable(), eight.render_stable());
}
