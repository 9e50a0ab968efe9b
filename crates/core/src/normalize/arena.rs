//! The hash-consed term arena.
//!
//! The matcher makes one arena per region piece ([`super::matching`]), and
//! the flattened terms ([`FlatTerm`]) of both sides restricted to that
//! piece intern into dense integer [`TermId`]s.
//! The interning key is *rename-invariant* and *cross-graph comparable*: a
//! term is identified by its integer coefficient plus the sorted multiset of
//! its factors' `(content fingerprint, mapping structural hash)` pairs —
//! the same vocabulary as the PR4 tabling keys ([`arrayeq_addg::fingerprints`]
//! names a position by the computation below it, and
//! `Relation::structural_hash` is canonical under iterator/existential
//! renaming).  Two terms interning to the same id therefore present
//! identical sub-computations with identical output-current mappings, no
//! matter which of the two graphs they came from or at which statement they
//! live — so the matcher's hot path degrades from "re-walk both ADDG
//! chains and compare relations" to one `u32` comparison.
//!
//! The 64-bit key only picks the bucket.  Each key keeps the content of
//! the term first interned under it — its coefficient and its factors'
//! `(position fingerprint, mapping)` pairs, the mappings borrowed from the
//! piece's terms, which outlive the arena — and a hit must match it, the
//! mappings by [`Relation::same_canonical_form`].  A term whose
//! content differs is a 64-bit collision: it gets a fresh id and counts in
//! [`CheckStats::hash_collisions`].  Position fingerprints are compared as
//! hashes.

use super::flatten::FlatTerm;
use crate::report::CheckStats;
use arrayeq_addg::term_fingerprint;
use arrayeq_omega::Relation;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Dense handle of an interned term.  Equal ids mean equal coefficients and
/// factor mappings equal by content, at positions with equal fingerprints.
pub(crate) type TermId = u32;

/// Hash-consing arena for the flattened terms `'t` of one region piece.
#[derive(Debug, Default)]
pub(crate) struct TermArena<'t> {
    /// Term fingerprint ([`arrayeq_addg::term_fingerprint`]) → the id and
    /// content of the first term interned under it.
    ids: HashMap<u64, (TermId, Interned<'t>)>,
    /// Ids handed out so far.
    next: TermId,
}

/// The content of an interned term: its coefficient and its factors'
/// `(position fingerprint, mapping)` pairs in factor-key order.
#[derive(Debug)]
struct Interned<'t>(i64, Vec<(u64, &'t Relation)>);

impl<'t> TermArena<'t> {
    /// Interns a term by its rename-invariant content key, returning the
    /// existing id when an identical term was interned before.
    ///
    /// `factor_keys` carries one `(position fingerprint, mapping structural
    /// hash)` pair per factor of `term`, in factor order (the caller
    /// resolves fingerprints per side, since original and transformed
    /// positions index different fingerprint tables — the *values* are
    /// cross-graph comparable).
    pub(crate) fn intern(
        &mut self,
        term: &'t FlatTerm,
        factor_keys: Vec<(u64, u64)>,
        stats: &mut CheckStats,
    ) -> TermId {
        stats.arena_interns += 1;
        let key = term_fingerprint(term.coeff, &factor_keys);
        let mut factors: Vec<(u64, u64, &'t Relation)> = factor_keys
            .into_iter()
            .zip(&term.factors)
            .map(|((fp, mh), f)| (fp, mh, &f.map))
            .collect();
        factors.sort_by_key(|&(fp, mh, _)| (fp, mh));
        let id = self.next;
        match self.ids.entry(key) {
            Entry::Occupied(e) => {
                let (first, Interned(coeff, known)) = e.get();
                let same = *coeff == term.coeff
                    && known.len() == factors.len()
                    && known
                        .iter()
                        .zip(&factors)
                        .all(|((fp, a), (fp2, _, b))| fp == fp2 && a.same_canonical_form(b));
                if same {
                    stats.arena_hits += 1;
                    return *first;
                }
                stats.hash_collisions += 1;
            }
            Entry::Vacant(v) => {
                let known = factors.iter().map(|&(fp, _, m)| (fp, m)).collect();
                v.insert((id, Interned(term.coeff, known)));
            }
        }
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CheckStats;
    use arrayeq_omega::Set;
    use proptest::prelude::*;

    /// A term whose factors are described by `(fp, maphash)` keys.  The
    /// arena reads `coeff`, the precomputed keys and the factor mappings, so
    /// a canonical placeholder relation per distinct key keeps the content
    /// consistent with the key.
    fn term(coeff: i64, keys: &[(u64, u64)]) -> FlatTerm {
        use crate::checker::{Half, Pos, Trail};
        let factors = keys
            .iter()
            .map(|&(fp, mh)| Half {
                pos: Pos::Node(fp as usize),
                // One distinct, trivially-parsable relation per map hash so
                // equal keys always carry equal canonical forms.
                map: arrayeq_omega::Relation::parse(&format!(
                    "{{ [i] -> [i] : 0 <= i < {} }}",
                    (mh % 97) + 1
                ))
                .unwrap(),
                trail: Trail::default(),
            })
            .collect();
        FlatTerm {
            coeff,
            factors,
            domain: Set::parse("{ [i] : 0 <= i < 4 }").unwrap(),
            trail: Trail::default(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Interning the same content twice yields the same id and counts
        /// a dedup hit; different coefficients or factor keys split ids.
        #[test]
        fn intern_is_idempotent_and_content_keyed(
            coeff in -4i64..5, fp in 0u64..6, mh in 0u64..6, other in 0u64..6,
        ) {
            prop_assume!(coeff != 0);
            let mut arena = TermArena::default();
            let mut stats = CheckStats::default();
            let t = term(coeff, &[(fp, mh)]);
            let id1 = arena.intern(&t, vec![(fp, mh)], &mut stats);
            let id2 = arena.intern(&t, vec![(fp, mh)], &mut stats);
            prop_assert_eq!(id1, id2);
            prop_assert_eq!(stats.arena_interns, 2);
            prop_assert_eq!(stats.arena_hits, 1);
            prop_assert_eq!(stats.hash_collisions, 0);

            let shifted = term(coeff + 1, &[(fp, mh)]);
            let id3 = arena.intern(&shifted, vec![(fp, mh)], &mut stats);
            prop_assert!(id1 != id3, "coefficient is part of the identity");
            let moved = term(coeff, &[(fp, mh + 101 + other)]);
            let id4 = arena.intern(&moved, vec![(fp, mh + 101 + other)], &mut stats);
            prop_assert!(id1 != id4, "factor keys are part of the identity");
        }

        /// Factor multisets are order-free: permuting the keys (and the
        /// factors backing them) interns to the same id.
        #[test]
        fn intern_ignores_factor_order(
            a_fp in 0u64..5, a_mh in 0u64..5, b_fp in 5u64..10, b_mh in 5u64..10,
        ) {
            let mut arena = TermArena::default();
            let mut stats = CheckStats::default();
            let fwd = term(2, &[(a_fp, a_mh), (b_fp, b_mh)]);
            let rev = term(2, &[(b_fp, b_mh), (a_fp, a_mh)]);
            let id1 = arena.intern(&fwd, vec![(a_fp, a_mh), (b_fp, b_mh)], &mut stats);
            let id2 = arena.intern(&rev, vec![(b_fp, b_mh), (a_fp, a_mh)], &mut stats);
            prop_assert_eq!(id1, id2);
            prop_assert_eq!(stats.hash_collisions, 0);
        }
    }

    /// The key only picks the bucket: a term whose forced-equal key hides a
    /// different mapping is a collision and gets an id of its own, while
    /// the first term keeps finding its id.
    #[test]
    fn forced_collisions_intern_apart_and_are_counted() {
        let mut arena = TermArena::default();
        let mut stats = CheckStats::default();
        let t1 = term(1, &[(7, 7)]);
        let mut t2 = term(1, &[(7, 7)]);
        // Same key, different mapping behind it: a forced 64-bit collision.
        t2.factors[0].map =
            arrayeq_omega::Relation::parse("{ [i] -> [i + 1] : 0 <= i < 3 }").unwrap();
        let id1 = arena.intern(&t1, vec![(7, 7)], &mut stats);
        let id2 = arena.intern(&t2, vec![(7, 7)], &mut stats);
        assert_ne!(id1, id2);
        assert_eq!((stats.arena_hits, stats.hash_collisions), (0, 1));
        assert_eq!(arena.intern(&t1, vec![(7, 7)], &mut stats), id1);
        assert_eq!(stats.arena_hits, 1);
    }

    /// A mapping written differently (constraint order, names) has the
    /// same canonical form, so it interns to the same id.
    #[test]
    fn presentation_variants_share_an_id() {
        let mut arena = TermArena::default();
        let mut stats = CheckStats::default();
        let t1 = term(1, &[(7, 7)]);
        let mut t2 = term(1, &[(7, 7)]);
        t2.factors[0].map =
            arrayeq_omega::Relation::parse("{ [j] -> [j] : j < 8 and j >= 0 }").unwrap();
        assert_ne!(t1.factors[0].map, t2.factors[0].map);
        let id1 = arena.intern(&t1, vec![(7, 7)], &mut stats);
        let id2 = arena.intern(&t2, vec![(7, 7)], &mut stats);
        assert_eq!(id1, id2);
        assert_eq!((stats.arena_hits, stats.hash_collisions), (1, 0));
    }
}
