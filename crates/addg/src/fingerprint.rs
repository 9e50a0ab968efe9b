//! Content fingerprints of ADDG positions.
//!
//! The checker's tabling cache identifies a sub-problem by a pair of
//! traversal positions plus the two output-current mappings.  Within one run
//! a position is just a node id or an array name — dense, but meaningless
//! outside the graph it came from.  To let a long-lived engine reuse
//! established sub-equivalences *across* queries (re-checking the same pair
//! after an edit, or a perturbed variant sharing most of its statements),
//! every position needs a name that depends only on the computation below
//! it, not on extraction order.
//!
//! [`fingerprints`] computes such a name: a 64-bit hash per node and per
//! array that digests, recursively, everything the synchronized traversal's
//! verdict can depend on at that position —
//!
//! * operator kinds and operand order,
//! * constants,
//! * dependency mappings (via [`Relation::structural_hash`], so cosmetic
//!   constraint-presentation differences do not split fingerprints),
//! * per-definition element sets and right-hand sides,
//! * array names and input/output/recurrence roles (leaf comparison and
//!   recurrence handling are name- and role-sensitive).
//!
//! Recurrences make the array-level graph cyclic, so the hashes are computed
//! by Weisfeiler–Lehman-style iteration: array hashes start from local facts
//! (name, roles, definition count) and are refined rounds-many times by
//! hashing each definition's tree over the previous round's array hashes.
//! After `#arrays + 1` rounds every acyclic chain has fully propagated and
//! cyclic structure is folded in up to hash strength.  Two positions with
//! equal fingerprints present identical sub-computations to the checker (up
//! to 64-bit collisions — the same trust boundary as the structural hashes
//! the tabling cache already rides on).

use crate::graph::{Addg, Node, NodeId};
use arrayeq_omega::{structural_hash_of, StructuralHasher};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Stable content hashes for every position of one ADDG (see the module
/// docs).  Produced by [`fingerprints`]; the checker's proof keys are
/// built from them.
#[derive(Debug, Clone)]
pub struct Fingerprints {
    nodes: Vec<u64>,
    arrays: BTreeMap<String, u64>,
}

impl Fingerprints {
    /// The fingerprint of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the fingerprinted graph.
    pub fn node(&self, id: NodeId) -> u64 {
        self.nodes[id]
    }

    /// The fingerprint of the array position `name`.  Arrays never seen by
    /// the fingerprinted graph fall back to a hash of the name alone, so a
    /// lookup can never panic mid-traversal.
    pub fn array(&self, name: &str) -> u64 {
        self.arrays
            .get(name)
            .copied()
            .unwrap_or_else(|| structural_hash_of(&("unknown-array", name)))
    }

    /// Every array the fingerprinted graph mentions, with its fingerprint,
    /// in name order.  The enumeration the diff engine and the baseline
    /// exporter walk; [`array`](Self::array) stays the point lookup.
    pub fn arrays(&self) -> impl Iterator<Item = (&str, u64)> {
        self.arrays.iter().map(|(name, &h)| (name.as_str(), h))
    }
}

/// Computes the content [`Fingerprints`] of a graph.
///
/// Names of *intermediate* arrays are not folded in: the traversal looks
/// straight through an intermediate (the paper's intermediate-variable
/// reduction), so its name never influences a verdict — only input names
/// (leaf comparison is name-sensitive), output names and recurrence arrays
/// (coinductive assumptions are keyed by name) are.  Dropping the
/// don't-care names makes repeated idioms — the same filter chain applied
/// per channel through differently-named temporaries — fingerprint
/// identically, so their sub-proofs share one tabling entry within a run.
/// Callers whose options make intermediate names significant (focused
/// checking with declared intermediate correspondences) must use
/// [`fingerprints_named`] instead.
pub fn fingerprints(g: &Addg) -> Fingerprints {
    fingerprints_impl(g, false)
}

/// Like [`fingerprints`], but folds *every* array name into the hashes.
///
/// Required when intermediate array names can change the verdict — i.e.
/// when checking under a focus that declares intermediate correspondences
/// by name ([`Focus::intermediate_pairs`]); always sound, just blind to
/// renamed-temporary sharing.
///
/// [`Focus::intermediate_pairs`]: https://docs.rs/arrayeq-core
pub fn fingerprints_named(g: &Addg) -> Fingerprints {
    fingerprints_impl(g, true)
}

/// Folds a flattened term's content — an integer coefficient times a
/// multiset of factors, each named by a `(position fingerprint, mapping
/// structural hash)` pair — into one 64-bit *term fingerprint*.
///
/// This extends the position-fingerprint vocabulary to the normalization
/// subsystem's hash-consed terms: factor pairs are sorted before hashing so
/// the fingerprint is order-free (a commutative-chain term is one multiset),
/// and because both ingredients are rename-invariant and cross-graph
/// comparable, so is the result — equal term fingerprints mean the same
/// `coeff · Π factors` whichever graph each side came from (up to 64-bit
/// collisions, the shared trust boundary of every fingerprint here).
pub fn term_fingerprint(coeff: i64, factor_keys: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = factor_keys.to_vec();
    sorted.sort_unstable();
    let mut h = StructuralHasher::default();
    ("term", coeff, sorted.len()).hash(&mut h);
    for pair in &sorted {
        pair.hash(&mut h);
    }
    h.finish()
}

fn fingerprints_impl(g: &Addg, name_all: bool) -> Fingerprints {
    // Collect every array name a position can mention: defined arrays plus
    // inputs (which have no definitions).
    let mut names: Vec<String> = g.input_arrays().to_vec();
    for (_, node) in g.nodes() {
        let mentioned = match node {
            Node::Array { name } => Some(name),
            Node::Access { array, .. } => Some(array),
            _ => None,
        };
        if let Some(name) = mentioned {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }

    // The part of an array's name that the verdict can depend on: the name
    // itself for inputs/outputs/recurrence arrays, nothing for plain
    // intermediates (unless the caller asked for all names).
    let label = |name: &str| -> String {
        if name_all || g.is_input(name) || g.is_output(name) || g.is_recurrent(name) {
            name.to_owned()
        } else {
            String::new()
        }
    };

    // Round 0: local facts only.
    let mut arrays: BTreeMap<String, u64> = names
        .iter()
        .map(|name| {
            let h = structural_hash_of(&(
                "array-seed",
                label(name),
                g.is_input(name),
                g.is_output(name),
                g.is_recurrent(name),
                g.definitions(name).len(),
            ));
            (name.clone(), h)
        })
        .collect();

    // The relation hashes folded into every round are round-invariant:
    // an access mapping and a definition's element set never change while
    // the array hashes refine.  Canonicalizing them is the expensive part
    // of a round on wide kernels, so compute each exactly once up front.
    let access_rel: Vec<u64> = g
        .nodes()
        .map(|(_, node)| match node {
            Node::Access { mapping, .. } => mapping.structural_hash(),
            _ => 0,
        })
        .collect();
    let def_rel: BTreeMap<&str, Vec<u64>> = names
        .iter()
        .map(|name| {
            let hashes = g
                .definitions(name)
                .iter()
                .map(|def| def.elements.as_relation().structural_hash())
                .collect();
            (name.as_str(), hashes)
        })
        .collect();

    // WL refinement: re-hash every array over the previous round's hashes of
    // the arrays its definitions read.  `#arrays + 1` rounds bound the
    // longest possible acyclic def-use chain, but refinement is a pure
    // function of the previous round's hashes — once a round changes
    // nothing, no later round can either, so stop at the fixpoint (typically
    // reached after depth-of-the-deepest-chain rounds, far below the bound).
    let rounds = arrays.len() + 1;
    let mut nodes = vec![0u64; g.node_count()];
    for _ in 0..rounds {
        hash_nodes(g, &arrays, &access_rel, &mut nodes);
        let mut next = BTreeMap::new();
        for name in &names {
            let mut h = StructuralHasher::default();
            ("array", label(name), g.is_input(name.as_str())).hash(&mut h);
            for (def, rel_hash) in g.definitions(name).iter().zip(&def_rel[name.as_str()]) {
                (*rel_hash, def.element_dims, nodes[def.root]).hash(&mut h)
            }
            next.insert(name.clone(), h.finish());
        }
        let stable = next == arrays;
        arrays = next;
        if stable {
            break;
        }
    }
    hash_nodes(g, &arrays, &access_rel, &mut nodes);
    Fingerprints { nodes, arrays }
}

/// One bottom-up pass over the statement trees, hashing every node against
/// the current array hashes.  `access_rel` carries the precomputed
/// structural hash of each Access node's mapping (round-invariant, see
/// [`fingerprints_impl`]).  Operator trees are acyclic (operands always
/// point at later-created nodes within the statement), but iterate to a
/// fixpoint over ids to stay independent of creation order.
fn hash_nodes(g: &Addg, arrays: &BTreeMap<String, u64>, access_rel: &[u64], out: &mut [u64]) {
    // Nodes reference only smaller-or-larger ids within their own tree; a
    // reverse pass resolves operands created after their operator, a forward
    // pass the (usual) opposite order.  Two passes always suffice because
    // trees are shallow chains of Operator → operand ids created in one
    // statement visit.
    for _ in 0..2 {
        for (id, node) in g.nodes() {
            out[id] = match node {
                Node::Array { name } => arrays[name],
                Node::Const { value, .. } => structural_hash_of(&("const", value)),
                Node::Access { array, .. } => {
                    structural_hash_of(&("access", arrays[array], access_rel[id]))
                }
                Node::Operator { kind, operands, .. } => {
                    let mut h = StructuralHasher::default();
                    ("operator", kind).hash(&mut h);
                    for &op in operands {
                        out[op].hash(&mut h);
                    }
                    h.finish()
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract;
    use arrayeq_lang::corpus::{FIG1_A, FIG1_D, KERNEL_RECURRENCE};
    use arrayeq_lang::parser::parse_program;

    fn addg(src: &str) -> Addg {
        extract(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn fingerprints_are_stable_across_extractions() {
        let g1 = addg(FIG1_A);
        let g2 = addg(FIG1_A);
        let f1 = fingerprints(&g1);
        let f2 = fingerprints(&g2);
        for name in ["A", "B", "C", "tmp", "buf"] {
            assert_eq!(f1.array(name), f2.array(name), "array {name}");
        }
        for (id, _) in g1.nodes() {
            assert_eq!(f1.node(id), f2.node(id), "node {id}");
        }
    }

    #[test]
    fn fingerprints_are_invariant_under_iterator_renaming() {
        // The same computation written over differently-named iterators:
        // every dependency mapping folds the iterator into an existential,
        // and the rename-canonical structural hashes ignore both the
        // dimension names and the existential order, so the fingerprints —
        // and with them the checker's tabling keys — coincide.
        let with_k = r#"
#define N 64
void f(int A[], int B[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     tmp[k] = A[2*k] + B[k];
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k] + A[k];
}
"#;
        let with_j = r#"
#define N 64
void f(int A[], int B[], int C[]) {
    int j, tmp[N];
    for (j = 0; j < N; j++)
s1:     tmp[j] = A[2*j] + B[j];
    for (j = 0; j < N; j++)
s2:     C[j] = tmp[j] + A[j];
}
"#
        .to_owned();
        assert_ne!(with_k, with_j, "renaming changed the source");
        let gk = addg(with_k);
        let gj = addg(&with_j);
        let fk = fingerprints(&gk);
        let fj = fingerprints(&gj);
        for name in ["A", "B", "C", "tmp"] {
            assert_eq!(fk.array(name), fj.array(name), "array {name}");
        }
        assert_eq!(gk.node_count(), gj.node_count());
        for (id, _) in gk.nodes() {
            assert_eq!(fk.node(id), fj.node(id), "node {id}");
        }
    }

    #[test]
    fn intermediate_names_are_transparent_unless_asked_for() {
        // The same computation routed through a differently-named
        // temporary: intermediate names are don't-cares for the verdict, so
        // the default fingerprints coincide while `fingerprints_named`
        // separates them.
        let via_tmp = r#"
#define N 32
void f(int A[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     tmp[k] = A[2*k] + A[k];
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k] + A[k];
}
"#;
        let via_buf = via_tmp.replace("tmp", "buf");
        let g1 = addg(via_tmp);
        let g2 = addg(&via_buf);
        let f1 = fingerprints(&g1);
        let f2 = fingerprints(&g2);
        assert_eq!(f1.array("tmp"), f2.array("buf"), "renamed temporaries");
        assert_eq!(f1.array("C"), f2.array("C"));
        let n1 = fingerprints_named(&g1);
        let n2 = fingerprints_named(&g2);
        assert_ne!(n1.array("tmp"), n2.array("buf"), "named variant keeps them");
        // ...transitively: C reads the renamed temporary, so its named
        // fingerprint splits too, while the untouched input keeps its hash.
        assert_ne!(n1.array("C"), n2.array("C"));
        assert_eq!(n1.array("A"), n2.array("A"));
    }

    #[test]
    fn different_programs_get_different_output_fingerprints() {
        let fa = fingerprints(&addg(FIG1_A));
        let fd = fingerprints(&addg(FIG1_D));
        // Version (d) computes C differently; the output fingerprint must
        // differ while the untouched inputs keep theirs.
        assert_ne!(fa.array("C"), fd.array("C"));
        assert_eq!(fa.array("A"), fd.array("A"));
        assert_eq!(fa.array("B"), fd.array("B"));
    }

    #[test]
    fn recurrent_graphs_fingerprint_without_diverging() {
        let g = addg(KERNEL_RECURRENCE);
        let f1 = fingerprints(&g);
        let f2 = fingerprints(&g);
        assert_eq!(f1.array("Y"), f2.array("Y"));
    }

    #[test]
    fn unknown_arrays_fall_back_to_a_name_hash() {
        let f = fingerprints(&addg(FIG1_A));
        assert_eq!(f.array("nope"), f.array("nope"));
        assert_ne!(f.array("nope"), f.array("other"));
    }
}
