//! Property test: the hand-rolled JSON rendering of a report re-parses to
//! the same verdict, stats and witness points, across a generated corpus of
//! equivalent pairs, the paper's Fig. 1 pairs and the fault-injection
//! mutants (whose reports carry diagnostics and replay-confirmed witnesses).

use arrayeq_core::Report;
use arrayeq_engine::{
    report_to_json, stats_from_json, verdict_from_str, verdict_str, JsonValue, Verifier,
    VerifyRequest,
};
use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C, FIG1_D};
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::mutate::fault_corpus;
use arrayeq_transform::random_pipeline;
use proptest::prelude::*;

/// Renders, parses back and cross-checks one report.
fn assert_roundtrip(report: &Report) {
    let text = report_to_json(report);
    let value =
        JsonValue::parse(&text).unwrap_or_else(|e| panic!("rendered JSON must parse: {e}\n{text}"));

    // Verdict.
    let verdict = value
        .get("verdict")
        .and_then(JsonValue::as_str)
        .and_then(verdict_from_str)
        .expect("verdict round-trips");
    assert_eq!(verdict, report.verdict);
    assert_eq!(verdict_str(&report.verdict), verdict_str(&verdict));

    // Stats, field for field.
    let stats =
        stats_from_json(value.get("stats").expect("stats object")).expect("stats round-trip");
    assert_eq!(stats, report.stats);

    // Outputs.
    let outputs: Vec<&str> = value
        .get("outputs_checked")
        .and_then(JsonValue::as_array)
        .expect("outputs array")
        .iter()
        .map(|v| v.as_str().expect("output name"))
        .collect();
    assert_eq!(outputs, report.outputs_checked);

    // Per-output position fingerprints (rendered as fixed-width hex strings
    // — the values use the full u64 range, which JSON integers can't carry).
    let fingerprints = value
        .get("output_fingerprints")
        .and_then(JsonValue::as_array)
        .expect("output_fingerprints array");
    assert_eq!(fingerprints.len(), report.output_fingerprints.len());
    for (rendered, (name, fa, fb)) in fingerprints.iter().zip(&report.output_fingerprints) {
        assert_eq!(
            rendered.get("name").and_then(JsonValue::as_str),
            Some(name.as_str())
        );
        let hex = |member: &str| {
            let digits = rendered
                .get(member)
                .and_then(JsonValue::as_str)
                .expect("hex fingerprint string");
            assert_eq!(digits.len(), 16, "fixed-width hex: {digits}");
            u64::from_str_radix(digits, 16).expect("hex fingerprint parses")
        };
        assert_eq!(hex("original_fp"), *fa);
        assert_eq!(hex("transformed_fp"), *fb);
    }

    // Witness points and values.
    let witnesses = value
        .get("witnesses")
        .and_then(JsonValue::as_array)
        .expect("witness array");
    assert_eq!(witnesses.len(), report.witnesses.len());
    for (rendered, original) in witnesses.iter().zip(&report.witnesses) {
        assert_eq!(
            rendered.get("output").and_then(JsonValue::as_str),
            Some(original.output.as_str())
        );
        let point: Vec<i64> = rendered
            .get("point")
            .and_then(JsonValue::as_array)
            .expect("point array")
            .iter()
            .map(|v| v.as_i64().expect("point coordinate"))
            .collect();
        assert_eq!(point, original.point);
        assert_eq!(
            rendered.get("confirmed").and_then(JsonValue::as_bool),
            Some(original.confirmed)
        );
        assert_eq!(
            rendered.get("original_value").and_then(JsonValue::as_i64),
            original.original_value
        );
        assert_eq!(
            rendered
                .get("transformed_value")
                .and_then(JsonValue::as_i64),
            original.transformed_value
        );
    }

    // Diagnostics survive with their messages intact.
    let diagnostics = value
        .get("diagnostics")
        .and_then(JsonValue::as_array)
        .expect("diagnostics array");
    assert_eq!(diagnostics.len(), report.diagnostics.len());
    for (rendered, original) in diagnostics.iter().zip(&report.diagnostics) {
        assert_eq!(
            rendered.get("message").and_then(JsonValue::as_str),
            Some(original.message.as_str())
        );
    }
}

#[test]
fn fig1_reports_roundtrip_including_witnesses() {
    let verifier = Verifier::builder().witnesses(true).build();
    for (a, b) in [
        (FIG1_A, FIG1_B),
        (FIG1_A, FIG1_C),
        (FIG1_B, FIG1_C),
        (FIG1_A, FIG1_D),
        (FIG1_D, FIG1_A),
    ] {
        let outcome = verifier.verify(&VerifyRequest::source(a, b)).unwrap();
        assert!(
            !outcome.report.output_fingerprints.is_empty(),
            "engine runs record per-output fingerprints"
        );
        assert_roundtrip(&outcome.report);
    }
}

#[test]
fn fault_corpus_reports_roundtrip() {
    let verifier = Verifier::builder().witnesses(true).build();
    for case in fault_corpus().into_iter().take(10) {
        let outcome = verifier
            .verify(&VerifyRequest::programs(case.original, case.mutant))
            .unwrap();
        assert!(
            !outcome.report.is_equivalent(),
            "corpus mutant {} must be rejected",
            case.name
        );
        assert_roundtrip(&outcome.report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn generated_reports_roundtrip(layers in 2usize..6, seed in 0u64..1000) {
        let original = generate_kernel(&GeneratorConfig {
            n: 64,
            layers,
            inputs: 2,
            fanin: 2,
            seed,
            ..Default::default()
        });
        let (transformed, _) = random_pipeline(&original, 3, seed.wrapping_add(1));
        let verifier = Verifier::builder().witnesses(true).build();
        let outcome = verifier
            .verify(&VerifyRequest::programs(original, transformed))
            .unwrap();
        assert_roundtrip(&outcome.report);
    }
}
