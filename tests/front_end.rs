//! The front end of one program (`arrayeq::core::lower`) in the Tier-1
//! suite: which programs it rejects and with which error text, that every
//! dependency mapping and element set it puts into the ADDG is the one the
//! direct per-statement computation gives, that access relations whose
//! 64-bit hashes collide keep their own mappings, and that the one-pass
//! fingerprints of a recurrence-free graph are those of whole-graph WL
//! refinement.

use arrayeq::addg::{fingerprints, fingerprints_named, Addg, Fingerprints, Node, NodeId};
use arrayeq::core::{lower, CheckOptions};
use arrayeq::lang::affine::Analysis;
use arrayeq::lang::ast::Program;
use arrayeq::lang::corpus::{
    FIG1_A, FIG1_ALL, KERNELS, KERNEL_PIECEWISE_A, PARAM_SPLIT_A, PARAM_SUM_A,
};
use arrayeq::lang::parser::parse_program;
use arrayeq::omega::{structural_hash_of, Relation, StructuralHasher};
use arrayeq::transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq::transform::random_pipeline;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The statement of the ROADMAP's hash-collision pair with both `B` reads
/// in one statement.  Each offset the tests use gives the second read a
/// relation with the same structural hash as `B[k+1]`'s but different
/// content.
fn colliding_reads(second: &str) -> Program {
    parse_program(&format!(
        "#define N 16
foo(int B[], int D[], int C[])
{{
    int k;
    for(k=0; k<N; k++)
s1:  C[k] = B[k+1] + {second} + D[k];
}}
"
    ))
    .unwrap()
}

const COLLIDING: [&str; 3] = [
    "B[4*k-408709946564336430]",
    "B[2*k+8050342864314045404]",
    "B[6*k+915980439521819817]",
];

/// The mappings of the access nodes under `root`, left to right: the order
/// of the statement's reads.
fn access_mappings(g: &Addg, root: NodeId, out: &mut Vec<Relation>) {
    match g.node(root) {
        Node::Access { mapping, .. } => out.push(mapping.clone()),
        Node::Operator { operands, .. } => {
            for &o in operands {
                access_mappings(g, o, out);
            }
        }
        Node::Array { .. } | Node::Const { .. } => {}
    }
}

#[test]
fn reads_with_equal_hashes_are_interned_apart() {
    for second in COLLIDING {
        let program = colliding_reads(second);
        let mut analysis = Analysis::new(&program).unwrap();
        let info = analysis.statements()[0].clone();
        let direct: Vec<Relation> = info.reads[..2]
            .iter()
            .map(|r| info.read_relation(r).unwrap())
            .collect();
        assert_eq!(
            direct[0].structural_hash(),
            direct[1].structural_hash(),
            "{second}: the two reads no longer collide"
        );
        assert_ne!(direct[0], direct[1], "{second}");
        let ids = [analysis.read(0, 0).unwrap(), analysis.read(0, 1).unwrap()];
        assert_ne!(ids[0], ids[1], "{second}: one id for two relations");
        for (id, direct) in ids.into_iter().zip(&direct) {
            assert_eq!(analysis.relation(id), direct, "{second}");
        }
    }
}

#[test]
fn reads_with_equal_hashes_keep_their_own_mappings() {
    for second in COLLIDING {
        let program = colliding_reads(second);
        let g = lower(&program, &CheckOptions::default()).unwrap();
        let mut mappings = Vec::new();
        access_mappings(&g, g.definitions("C")[0].root, &mut mappings);
        assert_eq!(mappings.len(), 3, "{second}");
        assert_ne!(
            mappings[0], mappings[1],
            "{second}: the B reads share a mapping"
        );
        let analysis = Analysis::new(&program).unwrap();
        let info = &analysis.statements()[0];
        for (mapping, read) in mappings.iter().zip(&info.reads) {
            assert_eq!(*mapping, info.dependency_mapping(read).unwrap(), "{second}");
        }
    }
}

/// Programs `lower` rejects, with the full error text of each.
const REJECTED: [(&str, &str, &str); 11] = [
    (
        "non-injective write",
        "void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[0] = A[k] + 1;
}",
        "frontend error: program class violation: [s1] statement writes the same element of `C` in different iterations (not in dynamic single-assignment form)",
    ),
    (
        "two statements write one element",
        "void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[k] = A[k] + 1;
    for (k = 3; k < 8; k++)
s2:     C[k] = A[k] + 2;
}",
        "frontend error: program class violation: [s1, s2] statements both write overlapping elements of `C` (not in dynamic single-assignment form)",
    ),
    (
        "empty domain",
        "void f(int A[], int C[]) {
    int k;
    for (k = 10; k < 4; k++)
s1:     C[k] = A[k] + 1;
}",
        "frontend error: program class violation: [s1] statement has an empty iteration domain (dead code)",
    ),
    (
        "read before its write",
        "#define N 8
void f(int A[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     C[k] = tmp[k] + A[k];
    for (k = 0; k < N; k++)
s2:     tmp[k] = A[k] + 1;
}",
        "frontend error: def-use violation: s1 reading tmp: some instances read an element of `tmp` before statement s2 writes it",
    ),
    (
        "uncovered read",
        "#define N 8
void f(int A[], int C[]) {
    int k, tmp[16];
    for (k = 0; k < N; k++)
s1:     tmp[k] = A[k] + 1;
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k + 8] + A[k];
}",
        "frontend error: def-use violation: s2 reading tmp: reads elements of `tmp` that no statement writes",
    ),
    (
        "in-place update of a parameter",
        "#define N 8
void f(int A[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     A[k] = A[k] + 1;
}",
        "frontend error: def-use violation: s1 reading A: some instances read an element of `A` before statement s1 writes it",
    ),
    (
        "read with another index count than the write",
        "#define N 8
void f(int A[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     tmp[k] = A[k] + 1;
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k][0] + A[k];
}",
        "frontend error: integer-set error: space mismatch in subtract: [d0, d1] -> [] (params []) vs [d0] -> [] (params [])",
    ),
    (
        "non-affine read of an input",
        "#define N 8
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = A[k * k] + 1;
}",
        "ADDG error: frontend error: non-affine expression `k * k` in read of A in statement s1",
    ),
    (
        "non-affine read in a program outside the class",
        "#define N 8
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[0] = A[k * k] + 1;
}",
        "frontend error: program class violation: [s1] statement writes the same element of `C` in different iterations (not in dynamic single-assignment form)",
    ),
    (
        "several class violations",
        "void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[0] = A[k] + 1;
    for (k = 0; k < 4; k++)
s2:     C[k] = A[k] + 2;
    for (k = 9; k < 4; k++)
s3:     C[k] = A[k] + 3;
}",
        "frontend error: program class violation: [s1] statement writes the same element of `C` in different iterations (not in dynamic single-assignment form); [s1, s2] statements both write overlapping elements of `C` (not in dynamic single-assignment form); [s3] statement has an empty iteration domain (dead code)",
    ),
    (
        "several def-use violations",
        "#define N 8
void f(int A[], int C[]) {
    int k, tmp[16];
    for (k = 0; k < N; k++)
s1:     C[k] = tmp[k + 8] + tmp[k];
    for (k = 0; k < N; k++)
s2:     tmp[k] = A[k] + 1;
}",
        "frontend error: def-use violation: s1 reading tmp: reads elements of `tmp` that no statement writes; s1 reading tmp: some instances read an element of `tmp` before statement s2 writes it",
    ),
];

#[test]
fn rejected_programs_keep_their_error_text() {
    for (name, source, expected) in REJECTED {
        let program = parse_program(source).unwrap();
        let error = lower(&program, &CheckOptions::default()).unwrap_err();
        assert_eq!(error.to_string(), expected, "{name}");
    }
}

/// The guarded program: a `!=` guard splits the first loop's domain into
/// a union of two pieces.
const GUARDED: &str = "#define N 16
guarded(int A[], int C[])
{
    int k, t[N];
    for (k = 0; k < N; k++)
        if (k != 5)
s1:         t[k] = A[k] + 1;
        else
s2:         t[k] = A[k] + 2;
    for (k = 0; k < N; k++)
s3:     C[k] = t[k] + A[N - 1 - k];
}";

/// Every program of the reference check, by name.
fn reference_programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = FIG1_ALL
        .iter()
        .map(|(name, src)| (format!("fig1({name})"), parse_program(src).unwrap()))
        .collect();
    for (name, src) in KERNELS {
        out.push((name.to_owned(), parse_program(src).unwrap()));
    }
    for (name, src) in [
        ("param-sum", PARAM_SUM_A),
        ("param-split", PARAM_SPLIT_A),
        ("piecewise", KERNEL_PIECEWISE_A),
        ("guarded", GUARDED),
    ] {
        out.push((name.to_owned(), parse_program(src).unwrap()));
    }
    for layers in [9, 17, 33] {
        let original = generate_kernel(&GeneratorConfig {
            n: 256,
            layers,
            seed: 11,
            ..Default::default()
        });
        let (transformed, _) = random_pipeline(&original, 2 * layers, 12);
        out.push((format!("L{layers}"), original));
        out.push((format!("L{layers} transformed"), transformed));
    }
    out
}

#[test]
fn lowering_derives_what_each_statement_derives_directly() {
    for (name, program) in reference_programs() {
        let g = lower(&program, &CheckOptions::default()).unwrap();
        let analysis = Analysis::new(&program).unwrap();
        let mut definitions = 0;
        for info in analysis.statements() {
            let def = g
                .definitions(&info.target)
                .iter()
                .find(|d| d.statement == info.label)
                .unwrap_or_else(|| panic!("{name}: no definition for {}", info.label));
            definitions += 1;
            assert_eq!(
                def.elements,
                info.write_element_set().unwrap(),
                "{name}: elements of {}",
                info.label
            );
            let mut mappings = Vec::new();
            access_mappings(&g, def.root, &mut mappings);
            assert_eq!(mappings.len(), info.reads.len(), "{name}: {}", info.label);
            for (mapping, read) in mappings.iter().zip(&info.reads) {
                assert_eq!(
                    *mapping,
                    info.dependency_mapping(read).unwrap(),
                    "{name}: mapping of {} in {}",
                    arrayeq::lang::pretty::array_ref_to_string(read),
                    info.label
                );
            }
        }
        assert!(definitions > 0, "{name}");
    }
}

/// The whole-graph Weisfeiler–Lehman refinement that fingerprinted every
/// graph before the one-pass fingerprints: every array is re-hashed over
/// the previous round's hashes of the arrays it reads, for up to
/// `#arrays + 1` rounds or until a round changes nothing.  Kept here as the
/// reference that the one pass must equal on recurrence-free graphs.
fn whole_graph_wl(g: &Addg, name_all: bool) -> (Vec<u64>, BTreeMap<String, u64>) {
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
    let label = |name: &str| -> String {
        if name_all || g.is_input(name) || g.is_output(name) || g.is_recurrent(name) {
            name.to_owned()
        } else {
            String::new()
        }
    };
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
    let hash_nodes = |arrays: &BTreeMap<String, u64>, out: &mut [u64]| {
        for _ in 0..2 {
            for (id, node) in g.nodes() {
                out[id] = match node {
                    Node::Array { name } => arrays[name],
                    Node::Const { value, .. } => structural_hash_of(&("const", value)),
                    Node::Access { array, mapping, .. } => {
                        structural_hash_of(&("access", arrays[array], mapping.structural_hash()))
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
    };
    let mut nodes = vec![0u64; g.node_count()];
    for _ in 0..arrays.len() + 1 {
        hash_nodes(&arrays, &mut nodes);
        let mut next = BTreeMap::new();
        for name in &names {
            let mut h = StructuralHasher::default();
            ("array", label(name), g.is_input(name)).hash(&mut h);
            for def in g.definitions(name) {
                let elements = def.elements.as_relation().structural_hash();
                (elements, def.element_dims, nodes[def.root]).hash(&mut h);
            }
            next.insert(name.clone(), h.finish());
        }
        let stable = next == arrays;
        arrays = next;
        if stable {
            break;
        }
    }
    hash_nodes(&arrays, &mut nodes);
    (nodes, arrays)
}

/// Asserts that `fp` holds exactly the node and array hashes of `reference`.
fn assert_same_fingerprints(
    name: &str,
    g: &Addg,
    fp: &Fingerprints,
    reference: &(Vec<u64>, BTreeMap<String, u64>),
) {
    for (id, _) in g.nodes() {
        assert_eq!(fp.node(id), reference.0[id], "{name}: node {id}");
    }
    let arrays: BTreeMap<String, u64> = fp.arrays().map(|(a, h)| (a.to_owned(), h)).collect();
    assert_eq!(arrays, reference.1, "{name}: array fingerprints");
}

#[test]
fn one_pass_fingerprints_equal_whole_graph_refinement_without_recurrences() {
    let mut compared = 0;
    for (name, program) in reference_programs() {
        let g = lower(&program, &CheckOptions::default()).unwrap();
        if g.has_recurrence() {
            continue;
        }
        assert_same_fingerprints(&name, &g, &fingerprints(&g), &whole_graph_wl(&g, false));
        let named = format!("{name} (named)");
        assert_same_fingerprints(
            &named,
            &g,
            &fingerprints_named(&g),
            &whole_graph_wl(&g, true),
        );
        compared += 1;
    }
    assert!(compared >= 20, "only {compared} recurrence-free programs");
}

#[test]
fn fig1a_output_fingerprint_is_pinned() {
    // The value every earlier release computed: stores and baselines of
    // recurrence-free programs keep hitting.
    let g = lower(&parse_program(FIG1_A).unwrap(), &CheckOptions::default()).unwrap();
    assert_eq!(fingerprints(&g).array("C"), 0x9df4_ad5a_ff15_eef5);
}
