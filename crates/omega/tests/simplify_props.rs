//! Property tests of the DNF constraint-set engine.
//!
//! Contract under test: *simplification is invisible*.  Coalescing subsumed
//! disjuncts and dropping redundant constraints (`minimized`) may change how
//! a set is represented, but never what it denotes.  Denotation is checked
//! two ways: per-point membership over an exhaustive box, and feasibility
//! cross-checked against the big-integer reference oracle
//! ([`arrayeq_omega::reference`]), where neither overflow nor any of the
//! production fast paths exist.

use arrayeq_omega::reference::reference_is_feasible;
use arrayeq_omega::{solver_events, Conjunct, Constraint, LinExpr, Relation, Set, Space};
use proptest::prelude::*;

/// One constraint: coefficients for (x, y), constant, and a kind selector
/// (0 = `≥ 0`, 1 = `= 0`, 2 = `≡ 0 (mod 3)`).
type ConstraintDesc = (i64, i64, i64, u8);

fn build_conjunct(space: &Space, cs: &[ConstraintDesc]) -> Conjunct {
    let mut c = Conjunct::universe(space.clone());
    for &(a, b, k, kind) in cs {
        let e = LinExpr::from_coeffs(vec![a, b], k);
        c.add(match kind % 3 {
            0 => Constraint::geq(e),
            1 => Constraint::eq(e),
            _ => Constraint::congruent(e, 3),
        });
    }
    c
}

fn build_set(desc: &[Vec<ConstraintDesc>]) -> Set {
    let names = ["x", "y"];
    let space = Space::set(&names, &[]);
    let conjuncts = desc
        .iter()
        .map(|cs| build_conjunct(&space, cs))
        .collect::<Vec<_>>();
    Set::from_relation(Relation::from_conjuncts(space, conjuncts))
}

/// Deterministic structure generator: the proptest shim samples scalars
/// only, so each property draws a `u64` seed and expands it into a DNF
/// description with this SplitMix64 stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn in_range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    /// A small DNF set: 1–3 conjuncts of 1–3 constraints with coefficients
    /// in `[-3, 3]` — large enough to hit subsumption, congruence negation
    /// and redundant-constraint dropping, small enough that the big-int
    /// oracle and an exhaustive box check stay instant.
    fn dnf(&mut self) -> Vec<Vec<ConstraintDesc>> {
        (0..self.in_range(1, 3))
            .map(|_| {
                (0..self.in_range(1, 3))
                    .map(|_| {
                        (
                            self.in_range(-3, 3),
                            self.in_range(-3, 3),
                            self.in_range(-5, 5),
                            self.in_range(0, 2) as u8,
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Emptiness of the set — raw, simplified and minimized — must agree
    /// with the disjunction of per-conjunct big-int oracle verdicts.
    #[test]
    fn simplification_preserves_feasibility_vs_bigint_oracle(
        seed in 0u64..u64::MAX,
    ) {
        let desc = Gen(seed).dnf();
        let set = build_set(&desc);
        let oracle: Option<Vec<bool>> = set
            .conjuncts()
            .iter()
            .map(|c| reference_is_feasible(c.constraints(), c.n_vars()))
            .collect();
        if let Some(verdicts) = oracle {
            let nonempty = verdicts.iter().any(|&v| v);
            prop_assert!(set.is_empty() != nonempty, "raw set disagrees with oracle");
            prop_assert!(
                set.simplified().is_empty() != nonempty,
                "simplified set disagrees with oracle"
            );
            prop_assert!(
                set.minimized().is_empty() != nonempty,
                "minimized set disagrees with oracle"
            );
        }
    }

    /// Membership at every point of a box must survive `simplified` and
    /// `minimized`, and union/subtract must compute the pointwise
    /// disjunction/difference.
    #[test]
    fn simplification_never_changes_membership(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let s = build_set(&gen.dnf());
        let t = build_set(&gen.dnf());
        let u = s.union(&t).unwrap();
        let d = s.subtract(&t).unwrap();
        for x in -4i64..=4 {
            for y in -4i64..=4 {
                let p = [x, y];
                let in_s = s.contains(&p, &[]);
                let in_t = t.contains(&p, &[]);
                prop_assert!(
                    s.simplified().contains(&p, &[]) == in_s,
                    "simplified changed membership at {p:?}"
                );
                prop_assert!(
                    s.minimized().contains(&p, &[]) == in_s,
                    "minimized changed membership at {p:?}"
                );
                prop_assert!(
                    u.contains(&p, &[]) == (in_s || in_t),
                    "union wrong at {p:?}"
                );
                prop_assert!(
                    d.contains(&p, &[]) == (in_s && !in_t),
                    "difference wrong at {p:?}"
                );
            }
        }
    }

    /// Sampling commutes with simplification: a point sampled from the
    /// simplified or minimized set is a member of the original, and a
    /// non-empty set stays sampleable after simplification.
    #[test]
    fn sample_points_survive_simplification(seed in 0u64..u64::MAX) {
        let desc = Gen(seed).dnf();
        let set = build_set(&desc);
        for (tag, view) in [("simplified", set.simplified()), ("minimized", set.minimized())] {
            match view.sample_point() {
                Some((p, params)) => prop_assert!(
                    set.contains(&p, &params),
                    "{tag} sampled {:?} outside the original set", p
                ),
                None => prop_assert!(
                    set.is_empty(),
                    "{tag} lost all sample points of a non-empty set"
                ),
            }
        }
    }
}

#[test]
fn construction_dedupes_structurally_identical_conjuncts() {
    let names = ["x", "y"];
    let space = Space::set(&names, &[]);
    // Same conjunct twice, written with different constraint orders — the
    // structural hash sees through the permutation.
    let c1 = build_conjunct(&space, &[(1, 0, 0, 0), (-1, 0, 5, 0)]);
    let c2 = build_conjunct(&space, &[(-1, 0, 5, 0), (1, 0, 0, 0)]);
    let r = Relation::from_conjuncts(space, vec![c1, c2]);
    assert_eq!(
        r.conjuncts().len(),
        1,
        "structurally identical conjuncts must be deduplicated at construction"
    );
}

#[test]
fn union_coalesces_subsumed_disjuncts_and_counts_them() {
    let big = Set::parse("{ [x] : 0 <= x <= 10 }").unwrap();
    let small = Set::parse("{ [x] : 2 <= x <= 5 }").unwrap();
    let (u, events) = solver_events(|| big.union(&small).unwrap());
    assert_eq!(
        u.conjuncts().len(),
        1,
        "the subsumed disjunct must be coalesced away: {u:?}"
    );
    assert!(
        events.conjuncts_subsumed > 0,
        "coalescing must be visible in the solver events"
    );
    // And the union still denotes the right set.
    for x in -2i64..=12 {
        assert_eq!(u.contains(&[x], &[]), (0..=10).contains(&x));
    }
}
