//! Baseline export and import for incremental re-verification.
//!
//! A *baseline* is the persisted residue of an earlier verification run:
//! the proven, assumption-free sub-equivalence entries of the engine's
//! proof cache (content-fingerprint keyed, so they mean the same thing in
//! any later process) plus the per-output position fingerprints of the pair
//! that produced them.  `arrayeq verify --emit-baseline out.json`
//! writes one; `--baseline out.json` attaches it to the request
//! ([`crate::VerifyRequest::with_baseline`]), and [`crate::Verifier::verify`]
//! classifies outputs clean/dirty against it and re-checks only the dirty
//! cone.
//!
//! Baselines are *proof carriers*, not caches of verdicts: every entry is a
//! positive sub-proof valid only under the [`CheckOptions`] that produced
//! it.  The header therefore carries an options fingerprint, and a baseline
//! whose fingerprint does not match the consuming engine — or that fails to
//! parse, or that belongs to a different program interface — is rejected
//! with a typed [`BaselineRejection`] and the run degrades to a clean
//! from-scratch check.  A rejected baseline can cost time; it can never
//! change a verdict.

use crate::json::{hex64, parse_hex64, string, JsonValue};
use arrayeq_addg::{Addg, Fingerprints};
use arrayeq_core::{output_root_key, CheckOptions, ProofCache, ProofKey, Report};
use arrayeq_omega::structural_hash_of;
use std::collections::HashSet;
use std::fmt;

/// Magic string identifying the baseline format (bumped on layout changes).
pub const BASELINE_FORMAT: &str = "arrayeq-baseline-v1";

/// A parsed baseline: options-fingerprint header, per-output position
/// fingerprints of the producing pair, and the proven entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Baseline {
    /// Fingerprint of the verdict-relevant options the entries were proven
    /// under (see [`options_fingerprint`]).
    pub options_fp: u64,
    /// `(output name, original-side fingerprint, transformed-side
    /// fingerprint, domain hash)` of the producing run, in its output
    /// order.  The domain hash is the structural hash of the identity
    /// relation on the output's defined elements, recorded by the producing
    /// run; together with the two fingerprints it reconstructs the output's
    /// root tabling key, so the consumer classifies clean outputs without
    /// re-running the Omega domain computation.  `None` when the producing
    /// run never reached the output's traversal (domain mismatch, skipped) —
    /// such an output can never be classified clean.
    pub outputs: Vec<(String, u64, u64, Option<u64>)>,
    /// The proven sub-proof entries (positive and assumption-free by the
    /// proof cache's publishing contract).
    pub entries: Vec<ProofKey>,
}

impl Baseline {
    /// Parses `text` and checks that it was proven under the options with
    /// fingerprint `expected`: the vetting every baseline passes before a
    /// request consults it.
    pub(crate) fn vet(text: &str, expected: u64) -> Result<Baseline, BaselineRejection> {
        match Baseline::parse(text) {
            Err(message) => Err(BaselineRejection::Malformed { message }),
            Ok(b) if b.options_fp != expected => Err(BaselineRejection::OptionsMismatch {
                expected,
                found: b.options_fp,
            }),
            Ok(b) => Ok(b),
        }
    }

    /// Parses a baseline document produced by [`baseline_to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first structural problem
    /// (parse failure, wrong format marker, missing or mistyped member) —
    /// the payload of [`BaselineRejection::Malformed`].
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let format = v
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or("missing `format` member")?;
        if format != BASELINE_FORMAT {
            return Err(format!(
                "unknown baseline format `{format}` (expected `{BASELINE_FORMAT}`)"
            ));
        }
        let options_fp = v
            .get("options_fp")
            .and_then(parse_hex64)
            .ok_or("missing or malformed `options_fp`")?;
        let mut outputs = Vec::new();
        for o in v
            .get("outputs")
            .and_then(JsonValue::as_array)
            .ok_or("missing `outputs` array")?
        {
            let name = o
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("output entry without `name`")?;
            let fa = o
                .get("original_fp")
                .and_then(parse_hex64)
                .ok_or("output entry without `original_fp`")?;
            let fb = o
                .get("transformed_fp")
                .and_then(parse_hex64)
                .ok_or("output entry without `transformed_fp`")?;
            let dh = match o.get("domain_h") {
                None => None,
                Some(raw) => {
                    Some(parse_hex64(raw).ok_or("output entry with malformed `domain_h`")?)
                }
            };
            outputs.push((name.to_owned(), fa, fb, dh));
        }
        let mut entries = Vec::new();
        for e in v
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("missing `entries` array")?
        {
            let parts = e.as_array().ok_or("entry is not an array")?;
            if parts.len() != 4 {
                return Err(format!("entry has {} components, expected 4", parts.len()));
            }
            let mut key = [0u64; 4];
            for (slot, part) in key.iter_mut().zip(parts) {
                *slot = parse_hex64(part).ok_or("malformed entry component")?;
            }
            entries.push((key[0], key[1], key[2], key[3]));
        }
        Ok(Baseline {
            options_fp,
            outputs,
            entries,
        })
    }

    /// Applies this (options-vetted) baseline to one request's graphs:
    /// rejects it when it was recorded for a different output interface,
    /// and otherwise classifies every output clean or dirty and seeds the
    /// baseline's entries into `proofs`, the session's proof cache.
    ///
    /// An output is clean iff its recorded fingerprints still match this
    /// pair's (the content is untouched) AND the baseline carries its *root
    /// obligation* ([`output_root_key`]) — the entry published only when the
    /// producing run proved the whole output.  Fingerprint equality alone is
    /// not enough: outputs that FAILED in the producing run have recorded
    /// fingerprints too, and skipping those would suppress diagnostics.  The
    /// root key is rebuilt from the recorded domain hash, so classification
    /// costs no Omega work — the whole point of an incremental run is to
    /// beat the from-scratch wall time, and per-output domain computations
    /// are a large fixed cost on wide kernels.
    pub(crate) fn apply(
        &self,
        original: &Addg,
        transformed: &Addg,
        opts: &CheckOptions,
        proofs: &ProofCache,
    ) -> Result<AppliedBaseline<'_>, BaselineRejection> {
        // Program-identity gate: a baseline recorded for a different output
        // interface proves nothing here and likely signals operator error
        // (wrong file), so reject it loudly rather than silently scoring
        // zero hits.
        let mut current: Vec<String> = original.output_arrays().to_vec();
        current.sort();
        let mut recorded: Vec<String> = self.outputs.iter().map(|(n, ..)| n.clone()).collect();
        recorded.sort();
        if current != recorded {
            return Err(BaselineRejection::ProgramMismatch {
                expected: current,
                found: recorded,
            });
        }
        let (fa, fb) = (opts.fingerprints(original), opts.fingerprints(transformed));
        let entries: HashSet<ProofKey> = self.entries.iter().copied().collect();
        let clean = original
            .output_arrays()
            .iter()
            .filter(|output| {
                self.recorded(output).is_some_and(|(_, ra, rb, dh)| {
                    *ra == fa.array(output)
                        && *rb == fb.array(output)
                        && dh.is_some_and(|h| {
                            entries.contains(&output_root_key((&fa, &fb), output, h))
                        })
                })
            })
            .cloned()
            .collect();
        proofs.seed_baseline(self.entries.iter().copied());
        Ok(AppliedBaseline {
            baseline: self,
            entries: entries.len(),
            clean,
            fingerprints: (fa, fb),
        })
    }

    /// The recorded entry of `output`, if the producing run had one.
    fn recorded(&self, output: &str) -> Option<&(String, u64, u64, Option<u64>)> {
        self.outputs.iter().find(|(n, ..)| n == output)
    }
}

/// A baseline applied to one request: what the classification computed
/// for the check.
pub(crate) struct AppliedBaseline<'b> {
    baseline: &'b Baseline,
    /// Distinct proven entries the baseline carries.
    entries: usize,
    /// Outputs whose root obligations the baseline proves; the check skips
    /// them.
    pub(crate) clean: Vec<String>,
    /// Content fingerprints of `(original, transformed)`, handed to the
    /// check so the WL refinement runs once per request.
    pub(crate) fingerprints: (Fingerprints, Fingerprints),
}

impl AppliedBaseline<'_> {
    /// Completes the report of a check run under this baseline and returns
    /// the applied status.  Skipped-clean outputs were never traversed, so
    /// the run recorded no domain hash for them; the baseline's recorded
    /// hashes are carried forward.  With the baseline's entries, which
    /// [`Baseline::apply`] seeded into the session's proof cache, a
    /// baseline exported after this run still proves those outputs' root
    /// obligations, so chained incremental runs keep them clean.
    pub(crate) fn finish(self, report: &mut Report) -> BaselineStatus {
        for output in &self.clean {
            if let Some((_, _, _, Some(h))) = self.baseline.recorded(output) {
                report.output_domain_hashes.push((output.clone(), *h));
            }
        }
        BaselineStatus::Applied {
            entries: self.entries,
            clean_outputs: self.clean,
        }
    }
}

/// Renders a baseline document: format marker, options fingerprint,
/// per-output fingerprints and the proven entries (all fingerprints as
/// fixed-width hex strings — they use the full u64 range).
pub fn baseline_to_json(
    options_fp: u64,
    outputs: &[(String, u64, u64, Option<u64>)],
    entries: &[ProofKey],
) -> String {
    let outputs: Vec<String> = outputs
        .iter()
        .map(|(name, fa, fb, dh)| {
            let domain = match dh {
                Some(h) => format!(",\"domain_h\":{}", hex64(*h)),
                None => String::new(),
            };
            format!(
                "{{\"name\":{},\"original_fp\":{},\"transformed_fp\":{}{}}}",
                string(name),
                hex64(*fa),
                hex64(*fb),
                domain,
            )
        })
        .collect();
    let entries: Vec<String> = entries
        .iter()
        .map(|(a, b, c, d)| format!("[{},{},{},{}]", hex64(*a), hex64(*b), hex64(*c), hex64(*d)))
        .collect();
    format!(
        concat!(
            "{{\"format\":{},\"options_fp\":{},\n",
            "\"outputs\":[{}],\n",
            "\"entries\":[{}]}}\n"
        ),
        string(BASELINE_FORMAT),
        hex64(options_fp),
        outputs.join(","),
        entries.join(",\n"),
    )
}

/// Fingerprints the *verdict-relevant* subset of [`CheckOptions`]: method,
/// operator algebra, focus and parameters — everything under which a
/// sub-proof entry is (in)valid.  Budgets (`max_work`) and parallelism
/// (`jobs`) are deliberately excluded: they change how much work a run
/// does, never which sub-proofs hold, so a baseline stays consumable across
/// budget and jobs settings.
pub fn options_fingerprint(opts: &CheckOptions) -> u64 {
    // The `tabling`, `*_table_keys`, `check_def_use` and `check_class`
    // entries name switches that no longer exist (sub-proofs are always
    // cached, the two table-key modes are gone, and both front-end checks
    // always run); they stay as fixed text so stores and baselines written
    // while those switches existed keep their fingerprint and keep loading.
    let mut canonical = format!(
        concat!(
            "method={:?};operators={:?};tabling=true;string_table_keys=false;",
            "position_table_keys=false;focus={:?};check_def_use=true;check_class=true"
        ),
        opts.method, opts.operators, opts.focus,
    );
    // Parameter promotion changes what is being proven (a sub-proof at
    // `N = 1024` says nothing about symbolic `N`), so it invalidates
    // baselines.  Appended conditionally to keep existing param-free
    // fingerprints — and the baselines stamped with them — stable.
    if !opts.params.is_empty() {
        canonical.push_str(&format!(";params={:?}", opts.params));
    }
    structural_hash_of(&("baseline-options-v1", canonical))
}

/// Why a supplied baseline was not consulted.  Every variant degrades the
/// run to a clean from-scratch check — a rejection is a warning, never a
/// verdict change.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineRejection {
    /// The baseline was produced under different verdict-relevant options.
    OptionsMismatch {
        /// Fingerprint of this engine's options.
        expected: u64,
        /// Fingerprint recorded in the baseline header.
        found: u64,
    },
    /// The baseline document is truncated, corrupted or structurally wrong.
    Malformed {
        /// Description of the first structural problem.
        message: String,
    },
    /// The baseline belongs to a program with a different output interface.
    ProgramMismatch {
        /// Output arrays of the current request.
        expected: Vec<String>,
        /// Output arrays recorded in the baseline.
        found: Vec<String>,
    },
}

impl BaselineRejection {
    /// Stable machine-readable slug for JSON output.
    pub fn slug(&self) -> &'static str {
        match self {
            BaselineRejection::OptionsMismatch { .. } => "options_mismatch",
            BaselineRejection::Malformed { .. } => "malformed",
            BaselineRejection::ProgramMismatch { .. } => "program_mismatch",
        }
    }
}

impl fmt::Display for BaselineRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineRejection::OptionsMismatch { expected, found } => write!(
                f,
                "baseline was produced under different options \
                 (engine {expected:016x}, baseline {found:016x}); running from scratch"
            ),
            BaselineRejection::Malformed { message } => {
                write!(f, "baseline unusable ({message}); running from scratch")
            }
            BaselineRejection::ProgramMismatch { expected, found } => write!(
                f,
                "baseline belongs to a different program (outputs [{}] vs [{}]); \
                 running from scratch",
                found.join(", "),
                expected.join(", "),
            ),
        }
    }
}

/// How the baseline fared on one request that carried one
/// ([`crate::Outcome::baseline`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineStatus {
    /// The baseline was consulted; the listed outputs were classified clean
    /// and skipped.
    Applied {
        /// Proven entries carried by the baseline.
        entries: usize,
        /// Outputs whose root obligations the baseline proved.
        clean_outputs: Vec<String>,
    },
    /// The baseline was rejected; the run was a plain from-scratch check.
    Rejected(BaselineRejection),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_round_trips_through_json() {
        let outputs = vec![
            ("C".to_owned(), 0xdead_beef_0123_4567, u64::MAX, Some(9)),
            ("D".to_owned(), 1, 2, None),
        ];
        let entries = vec![(1, 2, 3, 4), (u64::MAX, 0, 7, u64::MAX - 1)];
        let text = baseline_to_json(0x1234_5678_9abc_def0, &outputs, &entries);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.options_fp, 0x1234_5678_9abc_def0);
        assert_eq!(parsed.outputs, outputs);
        assert_eq!(parsed.entries, entries);
    }

    #[test]
    fn malformed_baselines_report_the_problem() {
        assert!(Baseline::parse("not json").is_err());
        assert!(Baseline::parse("{}").unwrap_err().contains("format"));
        let wrong = baseline_to_json(1, &[], &[]).replace(BASELINE_FORMAT, "other-format");
        assert!(Baseline::parse(&wrong)
            .unwrap_err()
            .contains("other-format"));
        // Truncation lands in the JSON parser.
        let full = baseline_to_json(1, &[("C".into(), 2, 3, Some(4))], &[(1, 2, 3, 4)]);
        let truncated = &full[..full.len() / 2];
        assert!(Baseline::parse(truncated).is_err());
    }

    #[test]
    fn options_fingerprint_tracks_verdict_relevant_options_only() {
        let base = CheckOptions::default();
        let same_proofs = CheckOptions {
            max_work: 42,
            jobs: 8,
            ..CheckOptions::default()
        };
        assert_eq!(
            options_fingerprint(&base),
            options_fingerprint(&same_proofs)
        );
        let different = CheckOptions::basic();
        assert_ne!(options_fingerprint(&base), options_fingerprint(&different));
        // Parameter promotion changes what is proven, so it must re-key.
        let parametric = CheckOptions::default().with_params(vec![("N".into(), 1)]);
        assert_ne!(options_fingerprint(&base), options_fingerprint(&parametric));
        let wider = CheckOptions::default().with_params(vec![("N".into(), 16)]);
        assert_ne!(
            options_fingerprint(&parametric),
            options_fingerprint(&wider)
        );
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
}
