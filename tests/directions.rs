//! Both directions of the traversal steps that are written once for both
//! programs.  Each pair is checked original against transformed and then
//! the other way round, under the extended and the basic method: the two
//! verdicts agree, and each diagnostic of the reversed run has the kind of
//! its forward twin, with the original and transformed statements and
//! mappings swapped.

use arrayeq::core::{DiagnosticKind, Method, Report, Verdict};
use arrayeq::engine::{Verifier, VerifyRequest};

/// One loop over N = 16 writing `C[k] = rhs` at statement `{label}1`.
fn program(label: &str, rhs: &str) -> String {
    format!(
        "#define N 16\nfoo(int A[], int B[], int C[])\n{{\n    int k;\n    \
         for(k=0; k<N; k++)\n{label}1:  C[k] = {rhs};\n}}\n"
    )
}

/// `C[k] = A[k] + B[k]` through the temporary `t[k] = A[k]`, in one loop.
fn through_a_temporary(label: &str) -> String {
    format!(
        "#define N 16\nfoo(int A[], int B[], int C[])\n{{\n    int k, t[N];\n    \
         for(k=0; k<N; k++) {{\n{label}1:  t[k] = A[k];\n{label}2:  C[k] = t[k] + B[k];\n    }}\n}}\n"
    )
}

fn verify(verifier: &Verifier, original: &str, transformed: &str) -> Report {
    verifier
        .verify(&VerifyRequest::source(original, transformed))
        .expect("pipeline runs")
        .report
}

/// `backward` is `forward` with the two programs swapped.
fn assert_mirrored(forward: &Report, backward: &Report, what: &str) {
    assert_eq!(forward.verdict, backward.verdict, "{what}");
    assert_eq!(
        forward.diagnostics.len(),
        backward.diagnostics.len(),
        "{what}: {forward:?}\n{backward:?}"
    );
    for (f, b) in forward.diagnostics.iter().zip(&backward.diagnostics) {
        assert_eq!(f.kind, b.kind, "{what}");
        assert_eq!(f.original_statements, b.transformed_statements, "{what}");
        assert_eq!(f.transformed_statements, b.original_statements, "{what}");
        assert_eq!(f.original_mapping, b.transformed_mapping, "{what}");
        assert_eq!(f.transformed_mapping, b.original_mapping, "{what}");
    }
}

#[test]
fn every_merged_step_answers_alike_in_both_directions() {
    use DiagnosticKind::{MappingMismatch, OperatorMismatch};
    // The step each pair reaches, and what the extended method answers: no
    // diagnostic means equivalent, otherwise the one diagnostic's kind and
    // a fragment of its message.
    let pairs = [
        (
            "a leaf against an operator that normalises",
            program("s", "A[k]"),
            program("t", "A[k] + 0"),
            None,
        ),
        (
            "an operator against a constant",
            program("s", "A[k] * 0"),
            program("t", "0"),
            None,
        ),
        (
            "a reduction on one side only",
            program("s", "A[k] + B[k]"),
            through_a_temporary("t"),
            None,
        ),
        (
            "a leaf against an operator with no chain family",
            program("s", "A[k]"),
            program("t", "A[k] / 2"),
            Some((OperatorMismatch, "reached input `A`")),
        ),
        (
            "a computation mismatch",
            program("s", "3"),
            program("t", "A[k] / 2"),
            Some((OperatorMismatch, "apply different computations")),
        ),
        (
            "a mapping mismatch",
            program("s", "A[k]"),
            program("t", "A[k+1]"),
            Some((MappingMismatch, "different output-input mappings")),
        ),
    ];
    let extended = Verifier::builder().jobs(1).build();
    let basic = Verifier::builder().jobs(1).method(Method::Basic).build();
    for (step, original, transformed, expected) in &pairs {
        let forward = verify(&extended, original, transformed);
        match expected {
            None => assert_eq!(
                forward.verdict,
                Verdict::Equivalent,
                "{step}: {}",
                forward.summary()
            ),
            Some((kind, message)) => {
                assert_eq!(forward.verdict, Verdict::NotEquivalent, "{step}");
                let [d] = forward.diagnostics.as_slice() else {
                    panic!("{step}: {:?}", forward.diagnostics)
                };
                assert_eq!(d.kind, *kind, "{step}");
                assert!(d.message.contains(message), "{step}: {}", d.message);
            }
        }
        for (method, verifier) in [("extended", &extended), ("basic", &basic)] {
            let forward = verify(verifier, original, transformed);
            let backward = verify(verifier, transformed, original);
            assert_mirrored(&forward, &backward, &format!("{step} ({method})"));
        }
    }
}
