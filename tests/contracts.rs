//! Standing contracts of the persistent proof store and of the options
//! fingerprint, in the Tier-1 suite: a store-backed run renders exactly as
//! a storeless one, a warm store discharges sub-proofs, the store files
//! hold proof keys (`eq` lines) only, and the fingerprints that stamp every
//! store and baseline on disk do not move.

use arrayeq::core::CheckOptions;
use arrayeq::engine::{options_fingerprint, Verifier, VerifyRequest};
use arrayeq::lang::corpus::{FIG1_A, FIG1_C};
use arrayeq::transform::mutate::fault_corpus;
use std::fs;
use std::path::{Path, PathBuf};

/// Fig. 1 (a)/(c), equivalent with one output, and fault-corpus mutant 15,
/// inequivalent with two outputs, so at two jobs its tasks run on spawned
/// workers.
fn cases() -> Vec<(String, VerifyRequest)> {
    let mutant = fault_corpus().swap_remove(15);
    vec![
        ("fig1 (a)/(c)".into(), VerifyRequest::source(FIG1_A, FIG1_C)),
        (
            format!("mutant 15 ({})", mutant.name),
            VerifyRequest::programs(mutant.original, mutant.mutant),
        ),
    ]
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arrayeq-contracts-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Asserts that every entry line of the store in `dir` is an `eq` line:
/// each file opens with a header, and a snapshot closes with its `end`
/// footer.
fn assert_proof_keys_only(dir: &Path) {
    for file in ["snapshot.jsonl", "log.jsonl"] {
        let Ok(text) = fs::read_to_string(dir.join(file)) else {
            continue;
        };
        let mut lines = text.lines();
        assert!(lines.next().is_some_and(|h| h.starts_with('{')), "{file}");
        for line in lines {
            let footer = file == "snapshot.jsonl" && line.starts_with("[\"end\",");
            assert!(
                footer || line.starts_with("[\"eq\","),
                "{file} holds a non-`eq` entry: {line}"
            );
        }
    }
}

#[test]
fn a_store_round_trip_keeps_the_report_and_holds_proof_keys_only() {
    for jobs in [1, 2] {
        for (name, request) in cases() {
            let storeless = Verifier::builder()
                .jobs(jobs)
                .build()
                .verify(&request)
                .unwrap()
                .report;
            let dir = fresh_dir(&format!("roundtrip-{jobs}"));

            let cold = Verifier::builder().jobs(jobs).store(&dir).build();
            assert!(cold.store_warnings().is_empty(), "{name}");
            let cold_report = cold.verify(&request).unwrap().report;
            cold.flush_store().unwrap().expect("store attached");
            assert_proof_keys_only(&dir);

            let warm = Verifier::builder().jobs(jobs).store(&dir).build();
            assert!(
                warm.store_warnings().is_empty(),
                "{name} jobs {jobs}: {:?}",
                warm.store_warnings()
            );
            let warm_report = warm.verify(&request).unwrap().report;
            for (run, report) in [("cold", &cold_report), ("warm", &warm_report)] {
                assert_eq!(
                    report.verdict, storeless.verdict,
                    "{name} jobs {jobs} {run}"
                );
                assert_eq!(
                    report.render_stable(),
                    storeless.render_stable(),
                    "{name} jobs {jobs}: the {run} store run renders as a storeless one"
                );
            }
            if storeless.is_equivalent() {
                assert!(
                    warm_report.stats.store_hits > 0,
                    "{name} jobs {jobs}: the warm run discharges from the store: {:?}",
                    warm_report.stats
                );
            }
            warm.checkpoint_store().unwrap().expect("store attached");
            assert_proof_keys_only(&dir);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn options_fingerprints_are_pinned() {
    // Every persistent store and baseline on disk is stamped with these
    // values; a change to the canonical text orphans all of them.
    assert_eq!(
        options_fingerprint(&CheckOptions::default()),
        0xb4cb_8344_b73a_0e6f
    );
    assert_eq!(
        options_fingerprint(&CheckOptions::basic()),
        0xaea3_70ee_37e8_7aa1
    );
}
