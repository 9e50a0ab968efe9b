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
//! Two positions with equal fingerprints present identical sub-computations
//! to the checker (up to 64-bit collisions — the same trust boundary as the
//! structural hashes the tabling cache already rides on).
//!
//! # One pass in dependency order
//!
//! An array's hash folds in the hashes of the arrays its definitions read,
//! so the arrays are hashed in the dependency-first order of the strongly
//! connected components of the array read graph, which one Tarjan pass
//! finds and keeps on the [`Addg`] when the graph is extracted:
//!
//! * An array outside every recurrence reads only arrays whose hashes are
//!   final, so it is hashed once: the trees of its definitions node by node,
//!   then the array over its definitions.  Every node is hashed once.
//! * The arrays of a recurrence (a component of several arrays, or one
//!   array that reads itself) are refined Weisfeiler–Lehman style among
//!   themselves.  They start from local facts (name, roles, definition
//!   count), and each round re-hashes them over the previous round's hashes
//!   of the component and the final hashes of everything else they read,
//!   for |component| + 1 rounds or until a round changes nothing.
//!
//! On a graph without recurrences these are the values of the whole-graph
//! refinement that this pass replaced.  That loop re-hashed every array over
//! the previous round's hashes, for at most `#arrays + 1` rounds, and
//! stopped only when a round changed nothing.  On an acyclic graph its round
//! map has exactly one fixpoint: an input's hash is a constant and every
//! other array's hash is a function of the hashes of arrays strictly below
//! it, so by induction on height a fixpoint gives each array its bottom-up
//! value.  The loop reached that value by round height + 1 and stopped one
//! round later, within its bound because a height is below `#arrays`.  The
//! single pass computes the bottom-up value directly, so stores and
//! baselines of recurrence-free programs keep their fingerprints.
//!
//! Inside a recurrence, |component| + 1 rounds keep all the distinguishing
//! power that more rounds would have.  Every array of a recurrence is
//! recurrent, so its name is folded into each of its hashes, and an array's
//! hash after round r fixes its own definitions and the hashes after round
//! r - 1 of the arrays they read.  By induction, two arrays with equal hashes
//! after round r have equal definitions, name by name, for themselves and
//! every array within r - 1 steps of them.  A component of k arrays reaches
//! all of its arrays within k - 1 steps, so after k rounds equal hashes
//! already mean equal components over equal final inputs: the same
//! computation, which no later round could tell apart.  Components of
//! different sizes are different computations, and their different round
//! counts keep their hashes apart.  The extra round is the margin that the
//! whole-graph loop's `#arrays + 1` also kept.
//!
//! The hashes of a recurrence, and of everything that reads it, do not
//! depend on how many arrays the rest of the program has, so an edit away
//! from a recurrence leaves its fingerprint alone.  The whole-graph loop ran
//! `#arrays + 1` rounds there, so stores and baselines that it wrote for
//! graphs with a recurrence miss.

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
    let mut arrays: BTreeMap<String, u64> = BTreeMap::new();
    let mut nodes = vec![0u64; g.node_count()];
    for component in g.components() {
        if !g.is_recurrent(&component[0]) {
            // Everything the array reads is final: hash it once.
            let name = &component[0];
            let h = hash_array(g, name, name_all, &arrays, &mut nodes);
            arrays.insert(name.clone(), h);
            continue;
        }
        // A recurrence: WL refinement among its arrays, from local facts.
        for name in component {
            let seed = structural_hash_of(&(
                "array-seed",
                label(g, name, name_all),
                g.is_input(name),
                g.is_output(name),
                true,
                g.definitions(name).len(),
            ));
            arrays.insert(name.clone(), seed);
        }
        for _ in 0..=component.len() {
            let next: Vec<u64> = component
                .iter()
                .map(|name| hash_array(g, name, name_all, &arrays, &mut nodes))
                .collect();
            let mut stable = true;
            for (name, h) in component.iter().zip(next) {
                let slot = arrays.get_mut(name).expect("seeded above");
                stable &= *slot == h;
                *slot = h;
            }
            if stable {
                break;
            }
        }
        // The trees' nodes over the component's final hashes.
        for name in component {
            for def in g.definitions(name) {
                hash_tree(g, def.root, &arrays, &mut nodes);
            }
        }
    }
    for (id, node) in g.nodes() {
        if let Node::Array { name } = node {
            nodes[id] = arrays[name];
        }
    }
    Fingerprints { nodes, arrays }
}

/// The part of an array's name that the verdict can depend on: the name
/// itself for inputs, outputs and recurrence arrays, nothing for plain
/// intermediates (unless the caller asked for all names).
fn label<'a>(g: &Addg, name: &'a str, name_all: bool) -> &'a str {
    if name_all || g.is_input(name) || g.is_output(name) || g.is_recurrent(name) {
        name
    } else {
        ""
    }
}

/// Hashes `name` over its definitions, each an element set and a tree
/// hashed against `arrays`, the current hashes of the arrays it reads.
/// The trees' node hashes land in `nodes`.
fn hash_array(
    g: &Addg,
    name: &str,
    name_all: bool,
    arrays: &BTreeMap<String, u64>,
    nodes: &mut [u64],
) -> u64 {
    let mut h = StructuralHasher::default();
    ("array", label(g, name, name_all), g.is_input(name)).hash(&mut h);
    for def in g.definitions(name) {
        let root = hash_tree(g, def.root, arrays, nodes);
        let elements = def.elements.as_relation().structural_hash();
        (elements, def.element_dims, root).hash(&mut h);
    }
    h.finish()
}

/// Hashes the statement tree below `id` bottom-up against the array hashes
/// in `arrays`, records every node's hash in `nodes`, and returns the
/// hash of `id`.
fn hash_tree(g: &Addg, id: NodeId, arrays: &BTreeMap<String, u64>, nodes: &mut [u64]) -> u64 {
    let h = match g.node(id) {
        Node::Array { name } => arrays[name],
        Node::Const { value, .. } => structural_hash_of(&("const", value)),
        Node::Access { array, mapping, .. } => {
            structural_hash_of(&("access", arrays[array], mapping.structural_hash()))
        }
        Node::Operator { kind, operands, .. } => {
            let mut h = StructuralHasher::default();
            ("operator", kind).hash(&mut h);
            for &op in operands {
                hash_tree(g, op, arrays, nodes).hash(&mut h);
            }
            h.finish()
        }
    };
    nodes[id] = h;
    h
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
