//! Overflow regression corpus and property tests.
//!
//! The soundness contract under test: on large-coefficient systems the
//! production solver either *decides correctly* (its `i128`-widened checked
//! arithmetic absorbed the intermediates) or reports the conservative
//! "feasible" as a degraded answer in its solver events — it never panics
//! and never returns a silently-wrapped wrong verdict.  Correctness is
//! established against [`arrayeq_omega::reference`], the big-integer port
//! of the same decision procedure, where overflow cannot occur.

use arrayeq_omega::reference::reference_is_feasible;
use arrayeq_omega::{solver_events, Conjunct, Constraint, LinExpr, Space, VarKind};
use proptest::prelude::*;

/// Builds the set-space conjunct of `constraints` over `n` variables.
fn conjunct(constraints: &[Constraint], n: usize) -> Conjunct {
    let names: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
    let mut c = Conjunct::universe(Space::set(&names, &[]));
    for cs in constraints {
        c.add(cs.clone());
    }
    c
}

fn le(coeffs: &[i64], k: i64) -> LinExpr {
    LinExpr::from_coeffs(coeffs.to_vec(), k)
}

/// Runs the production solver; returns `(verdict, overflow_degraded)`.
fn checked_verdict(constraints: &[Constraint], n: usize) -> (bool, bool) {
    let (feasible, events) = solver_events(|| conjunct(constraints, n).is_feasible());
    (feasible, events.degraded)
}

/// Asserts the soundness contract for one system: the production verdict
/// must match the oracle whenever the production run did not degrade; a
/// degraded run must report the conservative `true`.
fn assert_contract(constraints: &[Constraint], n: usize) {
    let (feasible, degraded) = checked_verdict(constraints, n);
    if degraded {
        assert!(
            feasible,
            "overflow-degraded verdict must be the conservative \"feasible\""
        );
        return;
    }
    if let Some(oracle) = reference_is_feasible(constraints, n) {
        // `feasible == false` is always a definite decision; `true` can in
        // principle be a work-limit hit, but not on systems this small.
        assert_eq!(
            feasible, oracle,
            "production solver disagrees with big-int oracle on {constraints:?}"
        );
    }
}

const M: i64 = i64::MAX;
const H: i64 = i64::MAX / 2;

/// Hand-picked large-coefficient kernels: every entry is
/// `(constraints, n_vars, expected_oracle_verdict)`.
fn corpus() -> Vec<(Vec<Constraint>, usize, bool)> {
    vec![
        // Saturated one-variable band: H·x ≥ H ∧ H·x ≤ H  ⇒  x = 1.
        (
            vec![Constraint::geq(le(&[H], -H)), Constraint::geq(le(&[-H], H))],
            1,
            true,
        ),
        // Non-divisible saturated equality: H·x = H − 1 (gcd refutes).
        (vec![Constraint::eq(le(&[H], -(H - 1)))], 1, false),
        // Bezout with huge coprime coefficients: M·x + (M−1)·y = 1.
        (vec![Constraint::eq(le(&[M, M - 1], -1))], 2, true),
        // Two saturated bands whose FM combination overflows i64:
        // H·x + H·y ≥ H ∧ −H·x ≥ 0 ∧ −H·y ≥ 0 (only x = y = 0 candidates
        // fail the first row).
        (
            vec![
                Constraint::geq(le(&[H, H], -H)),
                Constraint::geq(le(&[-H, 0], 0)),
                Constraint::geq(le(&[0, -H], 0)),
            ],
            2,
            false,
        ),
        // i64::MIN coefficient: MIN·x ≥ 0 ∧ x ≥ 1 is empty.
        (
            vec![
                Constraint::geq(le(&[i64::MIN], 0)),
                Constraint::geq(le(&[1], -1)),
            ],
            1,
            false,
        ),
        // i64::MIN the other way: MIN·x ≥ 0 ∧ x ≤ 0 holds at x = 0.
        (
            vec![
                Constraint::geq(le(&[i64::MIN], 0)),
                Constraint::geq(le(&[-1], 0)),
            ],
            1,
            true,
        ),
        // Congruence with a huge modulus: x ≡ 0 (mod H) ∧ 1 ≤ x < H.
        (
            vec![
                Constraint::congruent(le(&[1], 0), H),
                Constraint::geq(le(&[1], -1)),
                Constraint::geq(le(&[-1], H - 1)),
            ],
            1,
            false,
        ),
        // Saturated constants: x ≥ M ∧ x ≤ M pins x = M.
        (
            vec![Constraint::geq(le(&[1], -M)), Constraint::geq(le(&[-1], M))],
            1,
            true,
        ),
        // Dark-shadow margin blow-up: 7·x ≥ 3 ∧ H·x ≤ 10·H is inexact
        // (both coefficients non-unit) with margin 6·(H−1) > i64::MAX, but
        // the small lower coefficient keeps the splinter count at ≤ 6 so
        // the big-int oracle still decides it quickly.
        (
            vec![
                Constraint::geq(le(&[7], -3)),
                Constraint::geq(le(&[-H], H.saturating_mul(10))),
            ],
            1,
            true,
        ),
        // Equality chain that overflows during substitution:
        // x = H·y ∧ y = H (value H² needs more than i64).
        (
            vec![
                Constraint::eq(le(&[1, -H], 0)),
                Constraint::eq(le(&[0, 1], -H)),
            ],
            2,
            true,
        ),
    ]
}

#[test]
fn corpus_verdicts_match_big_int_oracle() {
    for (i, (constraints, n, expected)) in corpus().into_iter().enumerate() {
        let oracle = reference_is_feasible(&constraints, n);
        assert_eq!(
            oracle,
            Some(expected),
            "corpus entry {i}: oracle disagrees with the annotated verdict"
        );
        let (feasible, degraded) = checked_verdict(&constraints, n);
        if degraded {
            assert!(
                feasible,
                "corpus entry {i}: degraded verdict must be conservative"
            );
        } else {
            assert_eq!(feasible, oracle.unwrap(), "corpus entry {i}: wrong verdict");
        }
    }
}

#[test]
fn corpus_never_panics_with_witness_extraction() {
    for (i, (constraints, n, _)) in corpus().into_iter().enumerate() {
        let c = conjunct(&constraints, n);
        // Witness extraction exercises back-substitution and bound placement
        // on the same adversarial coefficients; a returned point must be a
        // real member unless the run degraded.
        let (point, events) = solver_events(|| c.sample_point());
        if let (Some(point), false) = (point, events.degraded) {
            assert!(
                c.contains(&point),
                "corpus entry {i}: sample_point returned a non-member"
            );
        }
    }
}

/// The big-int fallback contract: a conjunct whose checked `i64` solve
/// overflows is re-decided exactly by the reference solver.  Every system
/// gets the oracle's (and the annotated) verdict with no degraded answer
/// left standing.  Not every system reaches the fallback — the `i128`-widened
/// checked arithmetic absorbs some — but at least one must.
#[test]
fn bigint_fallback_decides_adversarial_systems_exactly() {
    let systems: Vec<(&str, Vec<Constraint>, usize, bool)> = vec![
        (
            "two-bands-infeasible",
            vec![
                Constraint::geq(le(&[H, H], -H)),
                Constraint::geq(le(&[-H, 0], 0)),
                Constraint::geq(le(&[0, -H], 0)),
            ],
            2,
            false,
        ),
        (
            "equality-chain-h-squared",
            vec![
                Constraint::eq(le(&[1, -H], 0)),
                Constraint::eq(le(&[0, 1], -H)),
            ],
            2,
            true,
        ),
        (
            "dark-shadow-margin",
            vec![
                Constraint::geq(le(&[7], -3)),
                Constraint::geq(le(&[-H], H.saturating_mul(10))),
            ],
            1,
            true,
        ),
        (
            "bezout-huge",
            vec![Constraint::eq(le(&[M, M - 1], -1))],
            2,
            true,
        ),
        (
            "min-coeff-band",
            vec![
                Constraint::geq(le(&[i64::MIN], 0)),
                Constraint::geq(le(&[1], -1)),
            ],
            1,
            false,
        ),
    ];
    let mut fired = 0;
    for (name, constraints, n, expected) in &systems {
        let (feasible, events) = solver_events(|| conjunct(constraints, *n).is_feasible());
        fired += usize::from(events.bigint_fallbacks > 0);
        let oracle =
            reference_is_feasible(constraints, *n).expect("the oracle decides every system");
        assert_eq!(
            feasible, oracle,
            "{name}: verdict differs from the big-int oracle"
        );
        assert_eq!(feasible, *expected, "{name}: annotated verdict is wrong");
        assert!(
            !events.degraded,
            "{name}: the exact fallback must withdraw the degradation"
        );
    }
    assert!(
        fired >= 1,
        "no adversarial system exercised the big-int fallback"
    );
}

#[test]
fn infeasible_verdicts_are_never_overflow_degraded() {
    // A "false" from the production solver is always a proof; it must never
    // be emitted by a run whose own answer degraded.
    for (i, (constraints, n, _)) in corpus().into_iter().enumerate() {
        let (feasible, degraded) = checked_verdict(&constraints, n);
        assert!(
            feasible || !degraded,
            "corpus entry {i}: infeasible verdict from a degraded run"
        );
    }
}

/// Scales `v` into the adversarial band: small magnitudes stay small, large
/// draws saturate near ±i64::MAX, so every case mixes both regimes.
fn stretch(v: i64) -> i64 {
    match v.rem_euclid(4) {
        0 => v,
        1 => v.saturating_mul(H / 2),
        2 => v.saturating_mul(H),
        _ => v.saturating_mul(M / 3),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random 2-variable systems with mixed small/saturated coefficients:
    /// the production verdict must match the big-int oracle on every
    /// non-degraded run, and never panic on any run.
    #[test]
    fn random_large_coefficient_systems_agree_with_oracle(
        a0 in -6i64..7, a1 in -6i64..7, k0 in -6i64..7,
        b0 in -6i64..7, b1 in -6i64..7, k1 in -6i64..7,
        c0 in -6i64..7, c1 in -6i64..7, k2 in -6i64..7,
        kind in 0usize..3,
    ) {
        let rows = [
            le(&[stretch(a0), stretch(a1)], stretch(k0)),
            le(&[stretch(b0), stretch(b1)], stretch(k1)),
            le(&[stretch(c0), stretch(c1)], stretch(k2)),
        ];
        let mut constraints = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            constraints.push(match (kind + i) % 3 {
                0 => Constraint::geq(row.clone()),
                1 => Constraint::eq(row.clone()),
                _ => Constraint::congruent(le(&[a0.rem_euclid(5) + 1, 1], k2), 7),
            });
        }
        assert_contract(&constraints, 2);
    }

    /// Existential simplification on saturated coefficients must keep
    /// membership answers consistent with the quantifier-free evaluation —
    /// or report a degraded answer, never silently diverge.
    #[test]
    fn simplify_on_saturated_coefficients_is_sound(
        a in -5i64..6, b in -5i64..6, k in -5i64..6, x in -4i64..5,
    ) {
        let sa = stretch(a.max(1));
        let names = ["x"];
        let mut c = Conjunct::universe(Space::set(&names, &[]));
        let e0 = c.add_exists(1);
        let n = c.n_vars();
        // sa·x + b·e + k = 0 with e bounded.
        let mut eq = LinExpr::zero(n);
        eq.set_coeff(c.col(VarKind::In, 0), sa);
        eq.set_coeff(e0, stretch(b) | 1);
        eq.set_constant(stretch(k));
        c.add(Constraint::eq(eq));
        let mut lo = LinExpr::zero(n);
        lo.set_coeff(e0, 1);
        lo.set_constant(8);
        c.add(Constraint::geq(lo));
        let before = c.clone();
        let mut simplified = c;
        let (sat, events) = solver_events(|| simplified.simplify());
        if !events.degraded && sat {
            // Membership of a concrete point must survive simplification.
            let p = [x];
            let (m_before, events_before) = solver_events(|| before.contains(&p));
            let (m_after, events_after) = solver_events(|| simplified.contains(&p));
            if !events_before.degraded && !events_after.degraded {
                prop_assert_eq!(m_before, m_after);
            }
        }
    }
}
