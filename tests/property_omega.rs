//! Property-based tests for the omega substrate and the frontend, checking
//! the algebraic laws the equivalence checker relies on.

use arrayeq::omega::{Conjunct, Constraint, LinExpr, Relation, Set, Space};
use proptest::prelude::*;

/// A small affine 1-D relation `{ [i] -> [a*i + b] : lo <= i < hi }`.
fn affine_relation(a: i64, b: i64, lo: i64, hi: i64) -> Relation {
    Relation::parse(&format!("{{ [i] -> [{a}i + {b}] : {lo} <= i < {hi} }}")).unwrap()
}

fn interval(lo: i64, hi: i64) -> Set {
    Set::parse(&format!("{{ [i] : {lo} <= i < {hi} }}")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Composition agrees with the pointwise application of the two maps.
    #[test]
    fn compose_is_pointwise_function_composition(
        a1 in 1i64..4, b1 in -3i64..4, a2 in 1i64..4, b2 in -3i64..4,
        x in 0i64..16,
    ) {
        let r1 = affine_relation(a1, b1, 0, 16);
        let r2 = affine_relation(a2, b2, -80, 80);
        let composed = r1.compose(&r2).unwrap();
        let mid = a1 * x + b1;
        let fin = a2 * mid + b2;
        prop_assert!(composed.contains(&[x], &[fin], &[]));
        prop_assert!(!composed.contains(&[x], &[fin + 1], &[]));
    }

    /// The inverse is an involution and swaps domain and range.
    #[test]
    fn inverse_is_an_involution(a in 1i64..5, b in -4i64..5, hi in 1i64..20) {
        let r = affine_relation(a, b, 0, hi);
        prop_assert!(r.inverse().inverse().is_equal(&r).unwrap());
        prop_assert!(r.inverse().domain().is_equal(&r.range()).unwrap());
        prop_assert!(r.inverse().range().is_equal(&r.domain()).unwrap());
    }

    /// Set difference, intersection and union behave like their pointwise
    /// definitions on intervals.
    #[test]
    fn set_algebra_matches_pointwise_semantics(
        lo1 in -8i64..8, len1 in 0i64..12,
        lo2 in -8i64..8, len2 in 0i64..12,
        probe in -10i64..24,
    ) {
        let s1 = interval(lo1, lo1 + len1);
        let s2 = interval(lo2, lo2 + len2);
        let in1 = probe >= lo1 && probe < lo1 + len1;
        let in2 = probe >= lo2 && probe < lo2 + len2;
        prop_assert_eq!(s1.union(&s2).unwrap().contains(&[probe], &[]), in1 || in2);
        prop_assert_eq!(s1.intersect(&s2).unwrap().contains(&[probe], &[]), in1 && in2);
        prop_assert_eq!(s1.subtract(&s2).unwrap().contains(&[probe], &[]), in1 && !in2);
        prop_assert_eq!(s1.is_subset(&s2).unwrap(), len1 == 0 || (lo1 >= lo2 && lo1 + len1 <= lo2 + len2));
    }

    /// Equality of relations is reflexive and symmetric, and strict subsets
    /// are never reported equal.
    #[test]
    fn equality_laws(a in 1i64..4, b in -3i64..4, hi in 2i64..20) {
        let r = affine_relation(a, b, 0, hi);
        let smaller = affine_relation(a, b, 0, hi - 1);
        prop_assert!(r.is_equal(&r).unwrap());
        prop_assert!(smaller.is_subset(&r).unwrap());
        prop_assert!(!r.is_equal(&smaller).unwrap());
        prop_assert!(!r.is_subset(&smaller).unwrap());
    }
}

/// Builds `{ [i] -> [o] : a·i + b − o = 0  ∧  i − lo ≥ 0  ∧  hi − 1 − i ≥ 0 }`
/// programmatically, with every constraint's expression scaled by the matching
/// entry of `scales` and the constraints ordered by `rotate` — structural
/// noise that canonicalization must erase.
fn noisy_conjunct(a: i64, b: i64, lo: i64, hi: i64, scales: [i64; 3], rotate: usize) -> Conjunct {
    let space = Space::relation(&["i"], &["o"], &[]);
    let mut c = Conjunct::universe(space);
    let mut eq = LinExpr::zero(2);
    eq.set_coeff(0, a);
    eq.set_coeff(1, -1);
    eq.set_constant(b);
    let mut lo_e = LinExpr::zero(2);
    lo_e.set_coeff(0, 1);
    lo_e.set_constant(-lo);
    let mut hi_e = LinExpr::zero(2);
    hi_e.set_coeff(0, -1);
    hi_e.set_constant(hi - 1);
    let mut cs = vec![
        Constraint::eq(eq.try_scale(scales[0]).unwrap()),
        Constraint::geq(lo_e.try_scale(scales[1].abs()).unwrap()),
        Constraint::geq(hi_e.try_scale(scales[2].abs()).unwrap()),
    ];
    let n = cs.len();
    cs.rotate_left(rotate % n);
    for k in cs {
        c.add(k);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Permuting the conjuncts of a union does not change the structural
    /// hash (and equal hashes come with one canonical form).
    #[test]
    fn structural_hash_ignores_conjunct_order(
        a1 in 1i64..4, b1 in -3i64..4, a2 in 1i64..4, b2 in -3i64..4, hi in 1i64..16,
    ) {
        let r1 = affine_relation(a1, b1, 0, hi);
        let r2 = affine_relation(a2, b2, -5, hi + 3);
        let u12 = r1.union(&r2).unwrap();
        let u21 = r2.union(&r1).unwrap();
        prop_assert_eq!(u12.structural_hash(), u21.structural_hash());
        prop_assert!(u12.same_canonical_form(&u21));
        // Duplicating a disjunct is also invisible.
        let u121 = u12.union(&r1).unwrap();
        prop_assert_eq!(u121.structural_hash(), u12.structural_hash());
    }

    /// Permuting the constraints inside a conjunct and scaling them by
    /// constants does not change the structural hash; genuinely different
    /// bounds do.
    #[test]
    fn structural_hash_is_canonical_over_constraint_noise(
        a in 1i64..4, b in -3i64..4, lo in -4i64..2, hi in 3i64..12,
        s0 in 1i64..4, s1 in 1i64..4, s2 in 1i64..4, rot in 0usize..3,
    ) {
        let space = Space::relation(&["i"], &["o"], &[]);
        let clean = Relation::from_conjuncts(
            space.clone(),
            vec![noisy_conjunct(a, b, lo, hi, [1, 1, 1], 0)],
        );
        let noisy = Relation::from_conjuncts(
            space.clone(),
            vec![noisy_conjunct(a, b, lo, hi, [s0, s1, s2], rot)],
        );
        prop_assert_eq!(clean.structural_hash(), noisy.structural_hash());
        prop_assert!(clean.same_canonical_form(&noisy));
        // A shifted upper bound must be visible to the hash.
        let different = Relation::from_conjuncts(
            space,
            vec![noisy_conjunct(a, b, lo, hi + 1, [1, 1, 1], 0)],
        );
        prop_assert!(clean.structural_hash() != different.structural_hash());
    }

    /// An equality constraint and its negated twin (`e = 0` vs `−e = 0`)
    /// canonicalise to the same structural hash.
    #[test]
    fn structural_hash_ignores_equality_sign(a in 1i64..5, b in -4i64..5) {
        let space = Space::relation(&["i"], &["o"], &[]);
        let mut eq = LinExpr::zero(2);
        eq.set_coeff(0, a);
        eq.set_coeff(1, -1);
        eq.set_constant(b);
        let mut pos = Conjunct::universe(space.clone());
        pos.add(Constraint::eq(eq.clone()));
        let mut neg = Conjunct::universe(space.clone());
        neg.add(Constraint::eq(eq.try_scale(-1).unwrap()));
        let rp = Relation::from_conjuncts(space.clone(), vec![pos]);
        let rn = Relation::from_conjuncts(space, vec![neg]);
        prop_assert_eq!(rp.structural_hash(), rn.structural_hash());
        prop_assert!(rp.is_equal(&rn).unwrap());
    }

    /// The cached hash survives cloning and equals a from-scratch
    /// recomputation on a structurally identical relation.
    #[test]
    fn structural_hash_is_stable_under_cloning(a in 1i64..4, b in -3i64..4, hi in 1i64..16) {
        let r = affine_relation(a, b, 0, hi);
        let h = r.structural_hash();
        let clone = r.clone();
        prop_assert_eq!(clone.structural_hash(), h);
        let fresh = affine_relation(a, b, 0, hi);
        prop_assert_eq!(fresh.structural_hash(), h);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Model extraction invariant: whenever a relation is non-empty,
    /// `sample_point` returns a point, and that point is a member
    /// (`contains` re-decides with the full existential machinery).  Covers
    /// plain bounds, congruences and explicit existential strides.
    #[test]
    fn sample_point_is_always_a_member(
        a in 1i64..5, b in -6i64..7, lo in -6i64..4, len in 0i64..12,
        m in 2i64..5, r in 0i64..4,
    ) {
        let bounded = affine_relation(a, b, lo, lo + len);
        let strided = Relation::parse(&format!(
            "{{ [i] -> [{a}i + {b}] : {lo} <= i < {hi} and i % {m} = {r} }}",
            hi = lo + len, r = r % m,
        )).unwrap();
        let existential = Relation::parse(&format!(
            "{{ [i] -> [{a}i + {b}] : exists k : i = {m}k + {r} and {lo} <= i < {hi} }}",
            hi = lo + len, r = r % m,
        )).unwrap();
        for rel in [&bounded, &strided, &existential] {
            match rel.sample_point() {
                Some(s) => {
                    prop_assert!(rel.contains(&s.input, &s.output, &s.params),
                        "sampled point outside relation {rel}");
                    prop_assert!(!rel.is_empty());
                }
                None => prop_assert!(rel.is_empty(), "no point for non-empty {rel}"),
            }
        }
        // Strided and existential describe the same set: sampling must agree
        // on emptiness.
        prop_assert_eq!(strided.sample_point().is_some(), existential.sample_point().is_some());
    }

    /// Every point of a set can be enumerated by sample-and-subtract, each
    /// sampled point satisfies every constraint, and the enumeration count
    /// matches the set's cardinality.
    #[test]
    fn sample_and_subtract_enumerates_exactly(lo in -5i64..5, len in 0i64..8, m in 2i64..4) {
        let s = Set::parse(&format!(
            "{{ [k] : k % {m} = 0 and {lo} <= k < {hi} }}", hi = lo + len,
        )).unwrap();
        let expected: Vec<i64> = (lo..lo + len).filter(|k| k.rem_euclid(m) == 0).collect();
        let mut seen = Vec::new();
        let mut remaining = s.clone();
        while let Some((p, _)) = remaining.sample_point() {
            prop_assert!(s.contains(&p, &[]), "{p:?} outside {s}");
            prop_assert!(!seen.contains(&p[0]), "duplicate {p:?}");
            seen.push(p[0]);
            remaining = remaining.without_point(&p).unwrap();
            prop_assert!(seen.len() <= expected.len(), "sampled too many points");
        }
        seen.sort_unstable();
        prop_assert_eq!(seen, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pretty-printing a generated kernel and re-parsing it yields a program
    /// the checker proves equivalent to the original.
    #[test]
    fn generated_kernels_round_trip_through_the_printer(seed in 0u64..50, layers in 1usize..4) {
        use arrayeq::engine::{Verifier, VerifyRequest};
        use arrayeq::lang::{parser::parse_program, pretty::program_to_string};
        use arrayeq::transform::generator::{generate_kernel, GeneratorConfig};

        let cfg = GeneratorConfig { n: 24, layers, seed, ..Default::default() };
        let p = generate_kernel(&cfg);
        let reparsed = parse_program(&program_to_string(&p)).unwrap();
        let report = Verifier::new().verify(&VerifyRequest::programs(p, reparsed)).unwrap().report;
        prop_assert!(report.is_equivalent());
    }

    /// Random transformation pipelines never produce a program the checker
    /// rejects (soundness of the correct-by-construction transformations).
    #[test]
    fn random_pipelines_always_verify(seed in 0u64..30) {
        use arrayeq::engine::{Verifier, VerifyRequest};
        use arrayeq::transform::generator::{generate_kernel, GeneratorConfig};
        use arrayeq::transform::random_pipeline;

        let cfg = GeneratorConfig { n: 24, layers: 2, seed, ..Default::default() };
        let p = generate_kernel(&cfg);
        let (t, _) = random_pipeline(&p, 4, seed * 31 + 7);
        let report = Verifier::new().verify(&VerifyRequest::programs(p, t)).unwrap().report;
        prop_assert!(report.is_equivalent());
    }
}
