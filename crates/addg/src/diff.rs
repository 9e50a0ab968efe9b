//! ADDG diff engine: classify positions clean/dirty across two versions of
//! a program and compute the dirty cone an incremental re-check must cover.
//!
//! The substrate is the WL-style content fingerprint of
//! [`fingerprints`](crate::fingerprints): a position whose fingerprint is
//! unchanged between the old and the new graph presents the checker with an
//! identical sub-computation, so every sub-proof below it is reusable as-is.
//! A position whose fingerprint changed — or that exists on only one side —
//! is *dirty*, and because the fingerprint of a reader digests the
//! fingerprints of everything it reads, dirtiness already propagates
//! transitively toward the outputs through the hashes themselves.  The cone
//! computation below re-derives that closure explicitly over the array
//! dependence edges anyway: it is cheap, it documents the intended
//! semantics (dirty positions plus everything reachable from them along
//! def-use edges toward the outputs), and it keeps the classification
//! conservative even if a 64-bit collision ever masked a changed reader.

use crate::fingerprint::{fingerprints, Fingerprints};
use crate::graph::Addg;
use std::collections::{BTreeMap, BTreeSet};

/// The result of diffing two versions of one program's ADDG.
///
/// Array names are the position vocabulary: node-level edits surface as a
/// changed fingerprint on the array whose definition contains the node, so
/// array granularity is exactly the granularity at which the checker can
/// skip work (one output obligation per output array).
#[derive(Debug, Clone)]
pub struct AddgDiff {
    /// Arrays present in both graphs with identical content fingerprints.
    pub clean: Vec<String>,
    /// Arrays whose fingerprints differ, or that exist on only one side.
    pub dirty: Vec<String>,
    /// The dirty cone: dirty arrays plus every array reachable from one
    /// along dependence edges toward the outputs (i.e. every array whose
    /// value can observe an edit).  Sorted; always a superset of `dirty`.
    pub cone: Vec<String>,
    /// Output arrays (of either side) inside the cone — the obligations an
    /// incremental re-check must actually traverse.
    pub dirty_outputs: Vec<String>,
    /// Output arrays of the *new* graph outside the cone — the obligations
    /// a baseline-seeded run may skip entirely.
    pub clean_outputs: Vec<String>,
}

/// Diffs two versions of a program by content fingerprint.
///
/// `old` and `new` are the pre-edit and post-edit graphs of the *same side*
/// of an equivalence query (the pair the baseline was produced on versus
/// the pair being re-checked).  Comparison is positional only in name:
/// fingerprints are rename-invariant for intermediates, so routing the same
/// computation through a renamed temporary stays clean.
pub fn diff_addgs(old: &Addg, new: &Addg) -> AddgDiff {
    diff_fingerprints(&fingerprints(old), &fingerprints(new), old, new)
}

/// Like [`diff_addgs`], but over fingerprints the caller already computed
/// (with whichever naming scheme the check options demand).
pub fn diff_fingerprints(
    old_fp: &Fingerprints,
    new_fp: &Fingerprints,
    old: &Addg,
    new: &Addg,
) -> AddgDiff {
    // Union of array vocabularies; BTreeMap keeps every listing sorted and
    // deterministic.
    let mut seen: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for (name, _) in old_fp.arrays() {
        seen.entry(name).or_insert((false, false)).0 = true;
    }
    for (name, _) in new_fp.arrays() {
        seen.entry(name).or_insert((false, false)).1 = true;
    }

    let mut clean = Vec::new();
    let mut dirty: BTreeSet<String> = BTreeSet::new();
    for (name, (in_old, in_new)) in &seen {
        if *in_old && *in_new && old_fp.array(name) == new_fp.array(name) {
            clean.push((*name).to_owned());
        } else {
            dirty.insert((*name).to_owned());
        }
    }

    // Dirty cone: propagate along the new graph's dependence edges (defined
    // array reads dirty array ⇒ defined array is in the cone), to fixpoint.
    // Arrays only the old graph knew stay in the cone as themselves — they
    // have no readers in the new graph by definition.
    let deps = new.array_dependences();
    let mut cone: BTreeSet<String> = dirty.clone();
    loop {
        let before = cone.len();
        for (defined, read) in &deps {
            if cone.contains(read) {
                cone.insert(defined.clone());
            }
        }
        if cone.len() == before {
            break;
        }
    }

    let mut outputs: BTreeSet<&str> = new.output_arrays().iter().map(String::as_str).collect();
    outputs.extend(old.output_arrays().iter().map(String::as_str));
    let dirty_outputs: Vec<String> = outputs
        .iter()
        .filter(|o| cone.contains(**o))
        .map(|o| (*o).to_owned())
        .collect();
    let clean_outputs: Vec<String> = new
        .output_arrays()
        .iter()
        .filter(|o| !cone.contains(o.as_str()))
        .cloned()
        .collect();

    AddgDiff {
        clean,
        dirty: dirty.into_iter().collect(),
        cone: cone.into_iter().collect(),
        dirty_outputs,
        clean_outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract;
    use arrayeq_lang::corpus::{FIG1_A, FIG1_D};
    use arrayeq_lang::parser::parse_program;

    fn addg(src: &str) -> Addg {
        extract(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn identical_graphs_diff_clean() {
        let g = addg(FIG1_A);
        let d = diff_addgs(&g, &addg(FIG1_A));
        assert!(d.dirty.is_empty(), "dirty: {:?}", d.dirty);
        assert!(d.cone.is_empty());
        assert!(d.dirty_outputs.is_empty());
        assert_eq!(d.clean_outputs, vec!["C".to_owned()]);
        assert!(d.clean.iter().any(|a| a == "C"));
    }

    #[test]
    fn edited_output_lands_in_the_cone() {
        // FIG1_D computes C differently from FIG1_A: the output must be
        // dirty, the untouched inputs clean.
        let d = diff_addgs(&addg(FIG1_A), &addg(FIG1_D));
        assert!(d.dirty.iter().any(|a| a == "C"), "dirty: {:?}", d.dirty);
        assert!(d.clean.iter().any(|a| a == "A"));
        assert!(d.clean.iter().any(|a| a == "B"));
        assert_eq!(d.dirty_outputs, vec!["C".to_owned()]);
        assert!(d.clean_outputs.is_empty());
    }

    #[test]
    fn edit_in_one_chain_keeps_the_other_output_clean() {
        let two = r#"
#define N 32
void f(int A[], int C[], int D[]) {
    int k, t1[N], t2[N];
    for (k = 0; k < N; k++)
s1:     t1[k] = A[k] + 1;
    for (k = 0; k < N; k++)
s2:     C[k] = t1[k] + A[k];
    for (k = 0; k < N; k++)
s3:     t2[k] = A[k] + 2;
    for (k = 0; k < N; k++)
s4:     D[k] = t2[k] + A[k];
}
"#;
        // Edit one statement of the D-chain only.
        let edited = two.replace("A[k] + 2", "A[k] + 3");
        let d = diff_addgs(&addg(two), &addg(&edited));
        assert_eq!(d.dirty_outputs, vec!["D".to_owned()]);
        assert_eq!(d.clean_outputs, vec!["C".to_owned()]);
        // The edited temporary and its reader are both in the cone.
        assert!(d.cone.iter().any(|a| a == "t2"));
        assert!(d.cone.iter().any(|a| a == "D"));
        assert!(!d.cone.iter().any(|a| a == "t1"));
    }
}
