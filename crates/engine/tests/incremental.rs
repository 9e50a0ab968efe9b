//! Incremental re-verification against exported baselines: the verdict and
//! the stable report rendering must be byte-identical to a from-scratch run
//! on every pair — equivalence-preserving single-statement edits reuse the
//! baseline, fault-injected mutants are caught inside the dirty cone with
//! replay-confirmed witnesses, and every baseline rejection path degrades
//! to a clean from-scratch check with a typed warning.

use arrayeq_engine::{
    outcome_to_json, BaselineRejection, BaselineStatus, Method, Verifier, VerifyRequest,
};
use arrayeq_lang::corpus::{FIG1_A, FIG1_C};
use arrayeq_transform::algebraic::commute_statement;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::mutate::fault_corpus;
use arrayeq_transform::random_pipeline;
use proptest::prelude::*;

/// A wide kernel with every chain distinct, so a single-statement edit
/// dirties one chain and leaves the others clean.
fn wide_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        n: 48,
        layers: 3,
        outputs: 4,
        distinct_chains: 0,
        inputs: 2,
        fanin: 2,
        seed,
        ..Default::default()
    }
}

#[test]
fn unchanged_pair_is_fully_clean() {
    let producer = Verifier::new();
    let first = producer
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();
    assert!(first.report.is_equivalent());
    let baseline = producer.export_baseline(&first.report);

    let request = VerifyRequest::source(FIG1_A, FIG1_C);
    let scratch = Verifier::new().verify(&request).unwrap();
    let consumer = Verifier::new();
    let inc = consumer
        .verify(&request.clone().with_baseline(baseline.as_str()))
        .unwrap();
    match &inc.baseline {
        Some(BaselineStatus::Applied {
            entries,
            clean_outputs,
        }) => {
            assert!(*entries > 0, "baseline carries sub-proofs");
            assert_eq!(
                clean_outputs, &inc.report.outputs_checked,
                "every output of the unchanged pair is clean"
            );
        }
        other => panic!("baseline must apply: {other:?}"),
    }
    assert_eq!(
        inc.report.stats.paths_compared, 0,
        "nothing left to traverse"
    );
    assert_eq!(inc.report.stats.cone_positions, 0);
    assert_eq!(inc.report.render_stable(), scratch.report.render_stable());
    let json = outcome_to_json(&inc);
    assert!(json.contains("\"status\":\"applied\""));

    // `verify_incremental` is the same request with the baseline attached.
    let delegated = Verifier::new()
        .verify(&request.clone().with_baseline(baseline.as_str()))
        .unwrap();
    assert_eq!(delegated.baseline, inc.baseline);
    assert_eq!(delegated.report.render_stable(), inc.report.render_stable());
}

#[test]
fn targeted_edit_re_checks_only_its_cone() {
    let original = generate_kernel(&wide_config(11));
    let (transformed, _) = random_pipeline(&original, 4, 12);
    let producer = Verifier::new();
    let first = producer
        .verify(&VerifyRequest::programs(
            original.clone(),
            transformed.clone(),
        ))
        .unwrap();
    assert!(first.report.is_equivalent());
    let baseline = producer.export_baseline(&first.report);

    // Commute one statement of one chain: an equivalence-preserving edit
    // whose cone is a single output.
    let label = transformed
        .statements()
        .map(|s| s.label.clone())
        .find(|l| {
            let (p, n) = commute_statement(&transformed, l);
            n > 0
                && p.statements().count() == transformed.statements().count()
                && l.starts_with("s3")
        })
        .expect("some chain-3 statement commutes");
    let (edited, changed) = commute_statement(&transformed, &label);
    assert!(changed > 0);

    let request = VerifyRequest::programs(original, edited);
    let scratch = Verifier::new().verify(&request).unwrap();
    assert!(scratch.report.is_equivalent());
    let inc = Verifier::new()
        .verify(&request.clone().with_baseline(baseline.as_str()))
        .unwrap();
    let outputs = inc.report.outputs_checked.len() as u64;
    match &inc.baseline {
        Some(BaselineStatus::Applied { clean_outputs, .. }) => {
            assert!(
                !clean_outputs.is_empty(),
                "untouched chains stay clean: {clean_outputs:?}"
            );
            assert!(
                !clean_outputs.contains(&"OUT3".to_owned()),
                "the edited chain is dirty"
            );
        }
        other => panic!("baseline must apply: {other:?}"),
    }
    let stats = &inc.report.stats;
    assert!(
        stats.cone_positions < outputs,
        "dirty cone is a strict subset: {} of {outputs}",
        stats.cone_positions
    );
    assert_eq!(inc.report.render_stable(), scratch.report.render_stable());
}

#[test]
fn in_cone_sub_proofs_discharge_from_the_baseline() {
    // Force one output into the dirty cone by removing its *root* entry
    // from an otherwise intact baseline: the traversal must re-enter that
    // output, and every interior sub-obligation must then discharge from
    // the baseline's remaining entries rather than being re-derived.
    use arrayeq_addg::{extract, fingerprints};
    use arrayeq_core::output_root_key;
    use arrayeq_engine::{baseline_to_json, Baseline};

    let original = generate_kernel(&wide_config(11));
    let (transformed, _) = random_pipeline(&original, 4, 12);
    let producer = Verifier::new();
    let first = producer
        .verify(&VerifyRequest::programs(
            original.clone(),
            transformed.clone(),
        ))
        .unwrap();
    assert!(first.report.is_equivalent());
    let exported = Baseline::parse(&producer.export_baseline(&first.report)).unwrap();

    let g1 = extract(&original).unwrap();
    let g2 = extract(&transformed).unwrap();
    let (fpa, fpb) = (fingerprints(&g1), fingerprints(&g2));
    let (_, domain_hash) = first
        .report
        .output_domain_hashes
        .iter()
        .find(|(n, _)| n == "OUT3")
        .expect("OUT3 domains match");
    let root = output_root_key((&fpa, &fpb), "OUT3", *domain_hash);
    let kept: Vec<_> = exported
        .entries
        .iter()
        .copied()
        .filter(|k| *k != root)
        .collect();
    assert_eq!(kept.len(), exported.entries.len() - 1, "root entry present");
    let doctored = baseline_to_json(exported.options_fp, &exported.outputs, &kept);

    let request = VerifyRequest::programs(original, transformed);
    let scratch = Verifier::new().verify(&request).unwrap();
    let inc = Verifier::new()
        .verify(&request.clone().with_baseline(doctored))
        .unwrap();
    match &inc.baseline {
        Some(BaselineStatus::Applied { clean_outputs, .. }) => {
            assert!(!clean_outputs.contains(&"OUT3".to_owned()));
            assert_eq!(clean_outputs.len() as u64, 3);
        }
        other => panic!("baseline must apply: {other:?}"),
    }
    let stats = &inc.report.stats;
    assert_eq!(stats.cone_positions, 1, "only OUT3 is re-entered");
    assert!(
        stats.baseline_hits > 0,
        "interior sub-proofs discharge from the baseline: {stats:?}"
    );
    assert_eq!(inc.report.render_stable(), scratch.report.render_stable());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn equivalence_preserving_edits_stay_byte_identical(seed in 0u64..500) {
        let original = generate_kernel(&wide_config(seed));
        let (transformed, _) = random_pipeline(&original, 3, seed.wrapping_add(1));
        let producer = Verifier::new();
        let first = producer
            .verify(&VerifyRequest::programs(original.clone(), transformed.clone()))
            .unwrap();
        prop_assert!(first.report.is_equivalent());
        let baseline = producer.export_baseline(&first.report);

        // One more random equivalence-preserving step is the "edit".
        let (edited, _) = random_pipeline(&transformed, 1, seed.wrapping_add(7));
        let request = VerifyRequest::programs(original, edited);
        let scratch = Verifier::new().verify(&request).unwrap();
        let inc = Verifier::new().verify(&request.with_baseline(baseline)).unwrap();
        prop_assert!(matches!(inc.baseline, Some(BaselineStatus::Applied { .. })));
        prop_assert!(inc.report.is_equivalent());
        prop_assert_eq!(scratch.report.render_stable(), inc.report.render_stable());
    }
}

#[test]
fn fault_mutants_are_caught_in_the_dirty_cone() {
    for case in fault_corpus().into_iter().take(6) {
        // The baseline captures the pre-edit state: the original verified
        // against itself (every sub-proof of its own cone established).
        let producer = Verifier::builder().witnesses(true).build();
        let good = producer
            .verify(&VerifyRequest::programs(
                case.original.clone(),
                case.original.clone(),
            ))
            .unwrap();
        assert!(good.report.is_equivalent(), "{}", case.name);
        let baseline = producer.export_baseline(&good.report);

        let request = VerifyRequest::programs(case.original.clone(), case.mutant.clone());
        let scratch = Verifier::builder()
            .witnesses(true)
            .build()
            .verify(&request)
            .unwrap();
        let inc = Verifier::builder()
            .witnesses(true)
            .build()
            .verify(&request.with_baseline(baseline))
            .unwrap();
        assert!(
            matches!(inc.baseline, Some(BaselineStatus::Applied { .. })),
            "{}: {:?}",
            case.name,
            inc.baseline
        );
        assert!(
            !inc.report.is_equivalent(),
            "mutant {} must be rejected inside the dirty cone",
            case.name
        );
        assert!(
            inc.report.witnesses.iter().any(|w| w.confirmed),
            "{}: witness replay confirms the bug",
            case.name
        );
        assert_eq!(
            inc.report.render_stable(),
            scratch.report.render_stable(),
            "{}",
            case.name
        );
    }
}

#[test]
fn rejected_baselines_degrade_to_from_scratch() {
    let request = VerifyRequest::source(FIG1_A, FIG1_C);
    let stable = Verifier::new()
        .verify(&request)
        .unwrap()
        .report
        .render_stable();

    // Options mismatch: produced under the basic method, consumed by an
    // extended-method engine.
    let basic = Verifier::builder().method(Method::Basic).build();
    let produced = basic.verify(&request).unwrap();
    let mismatched = basic.export_baseline(&produced.report);
    let consumer = Verifier::new();
    let inc = consumer
        .verify(&request.clone().with_baseline(mismatched))
        .unwrap();
    match &inc.baseline {
        Some(BaselineStatus::Rejected(BaselineRejection::OptionsMismatch { expected, found })) => {
            assert_eq!(*expected, consumer.options_fingerprint());
            assert_ne!(expected, found);
        }
        other => panic!("expected options mismatch: {other:?}"),
    }
    assert_eq!(inc.report.render_stable(), stable);
    let json = outcome_to_json(&inc);
    assert!(json.contains("\"status\":\"rejected\""));
    assert!(json.contains("\"reason\":\"options_mismatch\""));

    // Malformed: truncated, wrong format marker, garbage, empty.
    let producer = Verifier::new();
    let outcome = producer.verify(&request).unwrap();
    let good = producer.export_baseline(&outcome.report);
    let truncated = &good[..good.len() / 2];
    for bad in [truncated, "{\"format\":\"nope\"}", "not json at all", ""] {
        let inc = Verifier::new()
            .verify(&request.clone().with_baseline(bad))
            .unwrap();
        assert!(
            matches!(
                inc.baseline,
                Some(BaselineStatus::Rejected(
                    BaselineRejection::Malformed { .. }
                ))
            ),
            "doc {bad:?} gave {:?}",
            inc.baseline
        );
        assert_eq!(inc.report.render_stable(), stable);
        assert!(outcome_to_json(&inc).contains("\"reason\":\"malformed\""));
    }

    // Program mismatch: a baseline recorded for a different kernel under
    // the same options.
    let producer = Verifier::new();
    let wide = generate_kernel(&wide_config(3));
    let (wide_t, _) = random_pipeline(&wide, 3, 4);
    let w = producer
        .verify(&VerifyRequest::programs(wide, wide_t))
        .unwrap();
    assert!(w.report.is_equivalent());
    let foreign = producer.export_baseline(&w.report);
    let inc = Verifier::new()
        .verify(&request.clone().with_baseline(foreign))
        .unwrap();
    match &inc.baseline {
        Some(BaselineStatus::Rejected(BaselineRejection::ProgramMismatch { expected, found })) => {
            assert!(!expected.is_empty() && !found.is_empty());
            assert_ne!(expected, found);
        }
        other => panic!("expected program mismatch: {other:?}"),
    }
    assert_eq!(inc.report.render_stable(), stable);
    assert!(outcome_to_json(&inc).contains("\"reason\":\"program_mismatch\""));
}
