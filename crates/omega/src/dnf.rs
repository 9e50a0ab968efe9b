//! DNF constraint-set engine: conjunct coalescing and its controls.
//!
//! A [`Relation`](crate::Relation) is a finite union (disjunctive normal
//! form) of [`Conjunct`](crate::Conjunct)s, and the relation algebra grows
//! that union multiplicatively: composition and intersection cross-multiply
//! the operand disjuncts, and set difference replaces every conjunct by one
//! piece per negated constraint of the subtrahend.  Piecewise kernels and
//! the sample-and-subtract enumeration loop both hit this blow-up head on —
//! and most of the generated disjuncts are duplicates of or strict subsets
//! of disjuncts already present.
//!
//! This module provides the *coalescing* pass that keeps the union small:
//!
//! * **Dedup** — structurally identical conjuncts (same canonical form) are
//!   collapsed to one.  [`Conjunct::structural_hash`] only picks the
//!   bucket: a conjunct is dropped as a duplicate when its content equals
//!   the kept one's, so two conjuncts whose 64-bit hashes collide both stay.
//! * **Subsumption** — a conjunct that provably contains another (decided
//!   syntactically by [`Conjunct::subsumes`], no solver call) absorbs it.
//!
//! Coalescing runs wherever the union can grow — the outputs of `union` /
//! `intersect` / `compose` and every round of
//! [`Relation::subtract`](crate::Relation::subtract) — and inside
//! [`Relation::simplified`](crate::Relation::simplified), where it is part of
//! a relation's canonical simplified form.

use crate::conjunct::Conjunct;
use crate::events::note_conjuncts_subsumed;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Coalesces a disjunct list: drops structural duplicates ([`dedup`]), then
/// drops every conjunct subsumed by another ([`Conjunct::subsumes`]).  Keeps
/// the first occurrence and the given order of the survivors, so the pass
/// is deterministic and idempotent.  Purely syntactic — no solver calls —
/// and set-preserving: the union of the result equals the union of the
/// input.
pub(crate) fn coalesce(conjuncts: Vec<Conjunct>) -> Vec<Conjunct> {
    if conjuncts.len() <= 1 {
        return conjuncts;
    }
    let _span = arrayeq_trace::span_with("simplify", || {
        vec![arrayeq_trace::u("conjuncts", conjuncts.len() as u64)]
    });
    let mut kept = dedup(conjuncts);
    let deduped = kept.len();

    // Pairwise subsumption.  Earlier disjuncts win ties; a dropped disjunct
    // never gets to drop others (its subsumer — a superset — keeps doing
    // that job).
    let mut alive = vec![true; kept.len()];
    for i in 0..kept.len() {
        if !alive[i] {
            continue;
        }
        for j in 0..kept.len() {
            if i != j && alive[j] && kept[i].subsumes(&kept[j]) {
                alive[j] = false;
            }
        }
    }
    let mut alive_iter = alive.iter();
    kept.retain(|_| *alive_iter.next().expect("alive mask length"));

    note_conjuncts_subsumed((deduped - kept.len()) as u64);
    kept
}

/// Structural dedup only (no subsumption): the cheap always-on pass used at
/// relation construction time, and the first pass of [`coalesce`].  The
/// hash absorbs constraint permutation, duplication, gcd scaling and
/// existential renaming, so presentation variants of one disjunct meet in
/// one bucket; a conjunct is dropped only when its content equals that of
/// the first conjunct kept in its bucket ([`Conjunct::same_canonical_form`]).
pub(crate) fn dedup(conjuncts: Vec<Conjunct>) -> Vec<Conjunct> {
    if conjuncts.len() <= 1 {
        return conjuncts;
    }
    let before = conjuncts.len();
    // The first kept conjunct of each hash.
    let mut seen: HashMap<u64, usize> = HashMap::with_capacity(conjuncts.len());
    let mut kept: Vec<Conjunct> = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        match seen.entry(c.structural_hash()) {
            Entry::Occupied(e) => {
                // A conjunct whose hash collides with the kept one's stays.
                if !kept[*e.get()].same_canonical_form(&c) {
                    kept.push(c);
                }
            }
            Entry::Vacant(v) => {
                v.insert(kept.len());
                kept.push(c);
            }
        }
    }
    note_conjuncts_subsumed((before - kept.len()) as u64);
    kept
}
