//! Persistent proof store integration: warm engines discharge sub-proofs
//! from disk with byte-identical stable reports, and every corruption mode
//! (bit flip, truncation, format/options/epoch mismatch) degrades to a cold
//! start with a typed warning — never a changed verdict, never a crash.

use arrayeq_engine::{RequestLimits, StoreWarningKind, Verifier, VerifyRequest};
use arrayeq_lang::corpus::{FIG1_A, FIG1_C, FIG1_D};
use arrayeq_transform::mutate::fault_corpus;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arrayeq-store-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Builds a store by verifying the Fig. 1 pair and flushing.
fn primed_store(tag: &str) -> PathBuf {
    let dir = tmp_store(tag);
    let v = Verifier::builder().store(&dir).build();
    assert!(v.store_warnings().is_empty());
    let out = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert!(out.report.is_equivalent());
    let flush = v.flush_store().unwrap().expect("store attached");
    assert!(flush.appended_eq > 0, "sub-proofs persisted: {flush:?}");
    dir
}

#[test]
fn warm_engine_discharges_from_store_with_identical_report() {
    let dir = primed_store("warm");
    let scratch = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();

    let warm = Verifier::builder().store(&dir).build();
    assert!(warm.store_warnings().is_empty());
    let s = warm.session_stats();
    assert!(s.store_eq_loaded > 0, "entries seeded: {s:?}");

    let out = warm.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert!(out.report.is_equivalent());
    assert!(
        out.report.stats.store_hits > 0,
        "store discharges sub-proofs: {:?}",
        out.report.stats
    );
    assert!(
        out.report.stats.store_hits <= out.report.stats.shared_table_hits,
        "store hits are a subset of shared-table hits"
    );
    assert_eq!(
        out.report.render_stable(),
        scratch.report.render_stable(),
        "store reuse never changes the stable rendering"
    );
    assert!(out.session.store_hits > 0);
    assert!(out.report.summary().contains("proof store"));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn store_never_changes_a_negative_verdict() {
    let dir = primed_store("negative");
    let scratch = Verifier::builder()
        .witnesses(true)
        .build()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_D))
        .unwrap();

    let warm = Verifier::builder().store(&dir).witnesses(true).build();
    let out = warm.verify(&VerifyRequest::source(FIG1_A, FIG1_D)).unwrap();
    assert!(!out.report.is_equivalent());
    assert_eq!(
        out.report.render_stable(),
        scratch.report.render_stable(),
        "failures re-derive their full diagnostics"
    );
    assert!(out.report.witnesses.iter().any(|w| w.confirmed));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_store_degrades_cold_with_identical_verdicts() {
    let dir = primed_store("bitflip");
    // Compact so both file shapes (snapshot) are exercised, then prime a
    // fresh log on top.
    {
        let v = Verifier::builder().store(&dir).build();
        v.checkpoint_store().unwrap();
        let v2 = Verifier::builder().store(&dir).build();
        v2.verify(&VerifyRequest::source(FIG1_A, FIG1_D)).unwrap();
        v2.flush_store().unwrap();
    }
    let scratch = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();

    for file in ["snapshot.jsonl", "log.jsonl"] {
        let path = dir.join(file);
        if !path.exists() {
            continue;
        }
        let original = fs::read(&path).unwrap();
        let mut flipped = original.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        fs::write(&path, &flipped).unwrap();

        let v = Verifier::builder().store(&dir).build();
        assert!(
            !v.store_warnings().is_empty(),
            "{file}: corruption must warn"
        );
        let out = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
        assert_eq!(
            out.report.render_stable(),
            scratch.report.render_stable(),
            "{file}: bit flip never changes the stable rendering"
        );
        fs::write(&path, &original).unwrap();
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_store_degrades_cold_with_identical_verdicts() {
    let dir = primed_store("truncate");
    let scratch = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();

    let log = dir.join("log.jsonl");
    let text = fs::read_to_string(&log).unwrap();
    fs::write(&log, &text[..text.len() * 2 / 3]).unwrap();

    let v = Verifier::builder().store(&dir).build();
    assert!(v.store_warnings().iter().any(|w| matches!(
        w.kind,
        StoreWarningKind::Truncated | StoreWarningKind::Corrupt
    )));
    let out = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert!(out.report.is_equivalent());
    assert_eq!(
        out.report.render_stable(),
        scratch.report.render_stable(),
        "truncation never changes the stable rendering"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn options_mismatched_store_is_ignored_and_protected() {
    let dir = primed_store("options");
    let before = fs::read_to_string(dir.join("log.jsonl")).unwrap();

    // A basic-method engine must not consume (or overwrite) extended-method
    // sub-proofs.
    let v = Verifier::builder()
        .method(arrayeq_engine::Method::Basic)
        .store(&dir)
        .build();
    assert!(v
        .store_warnings()
        .iter()
        .any(|w| w.kind == StoreWarningKind::OptionsMismatch));
    assert_eq!(v.session_stats().store_eq_loaded, 0, "cold start");
    let out = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert_eq!(out.report.stats.store_hits, 0);
    let flush = v.flush_store().unwrap().unwrap();
    assert!(flush.disabled, "writes disabled on options mismatch");
    assert_eq!(
        fs::read_to_string(dir.join("log.jsonl")).unwrap(),
        before,
        "the foreign store is left untouched"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_corpus_verdicts_are_byte_identical_with_a_warm_store() {
    // Prime a store across a slice of the fault corpus, then re-verify warm
    // and from scratch: every stable rendering must match byte for byte.
    let dir = tmp_store("faults");
    let cases: Vec<_> = fault_corpus().into_iter().take(6).collect();
    {
        let v = Verifier::builder().store(&dir).build();
        for case in &cases {
            v.verify(&VerifyRequest::programs(
                case.original.clone(),
                case.mutant.clone(),
            ))
            .unwrap();
            // Also prove the reflexive pair so the store carries positive
            // sub-proofs covering the mutants' shared structure.
            v.verify(&VerifyRequest::programs(
                case.original.clone(),
                case.original.clone(),
            ))
            .unwrap();
        }
        v.flush_store().unwrap();
    }
    let warm = Verifier::builder().store(&dir).build();
    assert!(warm.session_stats().store_eq_loaded > 0);
    let mut store_hits = 0;
    for case in &cases {
        let scratch = Verifier::new()
            .verify(&VerifyRequest::programs(
                case.original.clone(),
                case.mutant.clone(),
            ))
            .unwrap();
        let out = warm
            .verify(&VerifyRequest::programs(
                case.original.clone(),
                case.mutant.clone(),
            ))
            .unwrap();
        assert!(!out.report.is_equivalent(), "{}: mutant caught", case.name);
        assert_eq!(
            out.report.render_stable(),
            scratch.report.render_stable(),
            "{}: byte-identical to from-scratch",
            case.name
        );
        store_hits += out.report.stats.store_hits;
    }
    assert!(store_hits > 0, "the warm store discharged some sub-proofs");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_epoch_log_degrades_cold_and_heals_on_next_flush() {
    // A log from an older compaction generation than the snapshot must be
    // ignored with a typed warning, never merged — and the next flush must
    // rewrite the store clean so the warning does not recur forever.
    let dir = primed_store("epoch");
    let stale_log = fs::read(dir.join("log.jsonl")).unwrap();

    // Compact: snapshot moves to the next epoch, the log is consumed.
    Verifier::builder()
        .store(&dir)
        .build()
        .checkpoint_store()
        .unwrap();
    assert!(
        !dir.join("log.jsonl").exists(),
        "checkpoint consumed the log"
    );

    // Resurrect the pre-compaction log, as a crash between the snapshot
    // rename and the log unlink would.
    fs::write(dir.join("log.jsonl"), &stale_log).unwrap();
    let scratch = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();

    let v = Verifier::builder().store(&dir).build();
    assert!(
        v.store_warnings()
            .iter()
            .any(|w| w.kind == StoreWarningKind::EpochMismatch),
        "stale generation is a typed warning: {:?}",
        v.store_warnings()
    );
    assert!(
        v.session_stats().store_eq_loaded > 0,
        "the snapshot itself still seeds the session"
    );
    let out = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert_eq!(
        out.report.render_stable(),
        scratch.report.render_stable(),
        "a stale log never changes the stable rendering"
    );

    // The open marked the store for rewrite: this flush compacts, leaving
    // a single-generation store that reopens warning-free.
    v.flush_store().unwrap().unwrap();
    let healed = Verifier::builder().store(&dir).build();
    assert!(
        healed.store_warnings().is_empty(),
        "healed store reopens clean: {:?}",
        healed.store_warnings()
    );
    assert!(healed.session_stats().store_eq_loaded > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crash_during_checkpoint_leaves_a_loadable_store() {
    // A crash after writing `snapshot.jsonl.tmp` but before the rename
    // leaves the tmp file behind; the published files are untouched, so the
    // reopen must be warning-free and byte-identical, and the next
    // checkpoint must simply write over the debris.
    let dir = primed_store("crashckpt");
    fs::write(
        dir.join("snapshot.jsonl.tmp"),
        "{\"half\":\"written snapshot, no footer",
    )
    .unwrap();
    let scratch = Verifier::new()
        .verify(&VerifyRequest::source(FIG1_A, FIG1_C))
        .unwrap();

    let v = Verifier::builder().store(&dir).build();
    assert!(
        v.store_warnings().is_empty(),
        "an orphaned tmp file is not part of the store: {:?}",
        v.store_warnings()
    );
    assert!(v.session_stats().store_eq_loaded > 0);
    let out = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert!(out.report.stats.store_hits > 0);
    assert_eq!(out.report.render_stable(), scratch.report.render_stable());

    // Re-checkpoint: the tmp name is reused and consumed by the rename.
    v.checkpoint_store().unwrap();
    assert!(dir.join("snapshot.jsonl").exists());
    assert!(
        !dir.join("snapshot.jsonl.tmp").exists(),
        "the checkpoint consumed the orphaned tmp file"
    );
    let reopened = Verifier::builder().store(&dir).build();
    assert!(reopened.store_warnings().is_empty());
    assert!(reopened.session_stats().store_eq_loaded > 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn per_request_limits_override_budgets_without_cross_talk() {
    let v = Verifier::new();
    // A starved request comes back inconclusive...
    let starved = v
        .verify(
            &VerifyRequest::source(FIG1_A, FIG1_C).with_limits(RequestLimits {
                max_work: Some(1),
                ..RequestLimits::default()
            }),
        )
        .unwrap();
    assert!(!starved.report.is_equivalent());
    assert!(starved.report.budget_exhausted.is_some());
    // ...and the next ordinary request on the same engine is unaffected.
    let ok = v.verify(&VerifyRequest::source(FIG1_A, FIG1_C)).unwrap();
    assert!(ok.report.is_equivalent());

    // A pre-cancelled per-request token starves only its own request.
    let token = arrayeq_engine::CancelToken::new();
    token.cancel();
    let cancelled = v
        .verify(
            &VerifyRequest::source(FIG1_A, FIG1_C).with_limits(RequestLimits {
                cancel: Some(token),
                ..RequestLimits::default()
            }),
        )
        .unwrap();
    assert!(!cancelled.report.is_equivalent());
    let ok2 = v
        .verify(
            &VerifyRequest::source(FIG1_A, FIG1_C).with_limits(RequestLimits {
                deadline: Some(Duration::from_secs(60)),
                ..RequestLimits::default()
            }),
        )
        .unwrap();
    assert!(ok2.report.is_equivalent());
}
