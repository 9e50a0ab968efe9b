//! The hash-consed term arena.
//!
//! Flattened terms ([`FlatTerm`]) intern into dense integer [`TermId`]s.
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
//! On top of interning the arena carries the **match memo**: the outcome of
//! every speculative term-pair equivalence check, keyed by the two term
//! ids.  Matching the same pair again — the common case across region
//! pieces of one chain and across repeated chains — is a table lookup.
//! Entries are only recorded for assumption-free proofs (the checker's
//! no-tabling-under-recurrence-assumption guard applies here unchanged).
//!
//! Debug builds shadow every id with the canonical renderings of the
//! factor mappings and count 64-bit collisions, mirroring the tabling
//! cache's paranoia check.

use super::flatten::FlatTerm;
use crate::report::CheckStats;
use arrayeq_addg::term_fingerprint;
use std::collections::HashMap;

/// Dense handle of an interned term.  Equality of ids implies structural
/// equality of the terms (up to 64-bit hash collisions — the same trust
/// boundary as the tabling keys).
pub(crate) type TermId = u32;

/// Hash-consing arena for flattened terms plus the matched-pair memo.
#[derive(Debug, Default)]
pub(crate) struct TermArena {
    /// Term fingerprint ([`arrayeq_addg::term_fingerprint`]) → dense id.
    ids: HashMap<u64, TermId>,
    /// Outcomes of assumption-free term-pair equivalence checks.
    match_memo: HashMap<(TermId, TermId), bool>,
    /// Canonical factor renderings per id (debug builds): intern hits whose
    /// canonical forms differ from the stored ones are genuine 64-bit
    /// collisions and are counted in [`CheckStats::hash_collisions`].
    #[cfg(debug_assertions)]
    shadow: Vec<Vec<String>>,
}

impl TermArena {
    /// Interns a term by its rename-invariant content key, returning the
    /// existing id when an identical term was interned before.
    ///
    /// `factor_keys` carries one `(position fingerprint, mapping structural
    /// hash)` pair per factor (the caller resolves fingerprints per side,
    /// since original and transformed positions index different fingerprint
    /// tables — the *values* are cross-graph comparable).
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn intern(
        &mut self,
        term: &FlatTerm,
        factor_keys: Vec<(u64, u64)>,
        stats: &mut CheckStats,
    ) -> TermId {
        let key = term_fingerprint(term.coeff, &factor_keys);
        stats.arena_interns += 1;
        let next = self.ids.len() as TermId;
        match self.ids.get(&key) {
            Some(&id) => {
                stats.arena_hits += 1;
                #[cfg(debug_assertions)]
                self.check_for_collision(id, term, stats);
                id
            }
            None => {
                self.ids.insert(key, next);
                #[cfg(debug_assertions)]
                self.shadow.push(Self::canonical(term));
                next
            }
        }
    }

    /// The memoised outcome of matching this id pair, if recorded.
    pub(crate) fn lookup_match(&self, a: TermId, b: TermId) -> Option<bool> {
        self.match_memo.get(&(a, b)).copied()
    }

    /// Records the outcome of an assumption-free term-pair check.
    pub(crate) fn record_match(&mut self, a: TermId, b: TermId, matched: bool) {
        self.match_memo.insert((a, b), matched);
    }

    /// The canonical (rename-normal, fully rendered) factor forms backing
    /// the debug collision check.
    #[cfg(debug_assertions)]
    fn canonical(term: &FlatTerm) -> Vec<String> {
        let mut out: Vec<String> = term.factors.iter().map(|f| f.map.canonical_key()).collect();
        out.sort_unstable();
        out.insert(0, format!("coeff {}", term.coeff));
        out
    }

    /// Debug cross-check: an intern hit whose canonical factor mappings
    /// differ from the id's stored ones means two distinct terms collided
    /// on the same 64-bit key.
    #[cfg(debug_assertions)]
    fn check_for_collision(&self, id: TermId, term: &FlatTerm, stats: &mut CheckStats) {
        let fresh = Self::canonical(term);
        if self.shadow[id as usize] != fresh {
            stats.hash_collisions += 1;
            debug_assert!(false, "term-arena hash collision at id {id}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CheckStats;
    use arrayeq_omega::Set;
    use proptest::prelude::*;

    /// A term whose single factor is described by one `(fp, maphash)` key.
    /// The arena only reads `coeff`, the precomputed keys and (in debug
    /// builds) the factor mappings, so a canonical placeholder relation per
    /// distinct key keeps the shadow consistent with the key.
    fn term(coeff: i64, keys: &[(u64, u64)]) -> FlatTerm {
        use super::super::flatten::Factor;
        use crate::checker::{Pos, Trail};
        let factors = keys
            .iter()
            .map(|&(fp, mh)| Factor {
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

        /// The match memo is a function of the id pair: recorded verdicts
        /// come back verbatim, unrecorded pairs miss.
        #[test]
        fn match_memo_round_trips(a in 0u64..8, b in 0u64..8, verdict in 0u64..2) {
            let (a, b) = (a as TermId, b as TermId);
            let mut arena = TermArena::default();
            prop_assert_eq!(arena.lookup_match(a, b), None);
            arena.record_match(a, b, verdict == 1);
            prop_assert_eq!(arena.lookup_match(a, b), Some(verdict == 1));
            if a != b {
                prop_assert_eq!(arena.lookup_match(b, a), None);
            }
        }
    }

    /// Debug builds verify structural equality behind id equality: interning
    /// a *different* canonical form under a forced identical key is exactly
    /// a hash collision and must be counted.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "term-arena hash collision")]
    fn debug_shadow_flags_forced_collisions() {
        let mut arena = TermArena::default();
        let mut stats = CheckStats::default();
        let t1 = term(1, &[(7, 7)]);
        let mut t2 = term(1, &[(7, 7)]);
        // Same key, different canonical mapping behind it: a forced 64-bit
        // collision (cannot arise from honest keys, which include the
        // mapping's structural hash).
        t2.factors[0].map =
            arrayeq_omega::Relation::parse("{ [i] -> [i + 1] : 0 <= i < 3 }").unwrap();
        arena.intern(&t1, vec![(7, 7)], &mut stats);
        arena.intern(&t2, vec![(7, 7)], &mut stats);
    }
}
