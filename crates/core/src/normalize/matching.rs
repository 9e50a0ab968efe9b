//! Matching (Section 5.2): pairing the flattened terms of the two sides
//! region by region.
//!
//! The output domain is split into pieces on which every term is fully
//! present or fully absent (unchanged from the paper).  Per piece the
//! matcher then
//!
//! 1. folds the constant terms of each side (`+`: sum, `*`: product) and
//!    compares the folded values — this is where identity operands vanish
//!    (`x + 0` folds to the same constant part as plain `x`) and constant
//!    folding proves `2 + x + 3` ≡ `x + 5`;
//! 2. applies the declared annihilator — a chain whose constant part folds
//!    to the annihilator (`x * 0`) *is* that constant, so both sides
//!    annihilating matches regardless of their remaining factors;
//! 3. greedily pairs the non-constant terms.  In a commutative chain each
//!    term of the original first tries its *twin*, the first unused term of
//!    the transformed side with the same arena id, which pairs by one
//!    integer comparison; then every other unused term in index order.  An
//!    associative-only chain tries only the next unused term.  A candidate
//!    pair is decided by arena id, then through the match memo, and only
//!    then by a speculative recursive equivalence check per factor pair.
//!    Speculation builds no diagnostics ([`Checker::diagnose`]): a failed
//!    candidate only means the next candidate's turn, so whatever it found
//!    is never reported.
//!
//! The terms restricted to each piece share their statement trails with
//! the flattened terms ([`crate::checker::Trail`]); a trail is listed out
//! only when a diagnostic is built.

use super::arena::TermId;
use super::flatten::FlatTerm;
use crate::checker::{Checker, Pos, Trail};
use crate::diagnostics::{Diagnostic, DiagnosticKind};
use crate::Result;
use arrayeq_addg::{describe_node, OperatorKind};
use arrayeq_omega::{Relation, Set};
use std::collections::HashMap;

/// Partitions `full` into pieces on which every term of either side is
/// fully present or fully absent.
///
/// Each *distinct* term domain cuts once, in order of first appearance:
/// cutting on a domain again would leave every piece inside or outside it
/// where it already is.  Domains are told apart by `Set` equality, which
/// is structural.
fn split_pieces(full: &Set, terms_a: &[FlatTerm], terms_b: &[FlatTerm]) -> Result<Vec<Set>> {
    let _span = arrayeq_trace::span("split");
    let mut domains: Vec<&Set> = Vec::new();
    for t in terms_a.iter().chain(terms_b) {
        if !domains.contains(&&t.domain) {
            domains.push(&t.domain);
        }
    }
    let mut pieces = vec![full.clone()];
    for dom in domains {
        let mut next = Vec::new();
        for p in pieces {
            let inside = p.intersect(dom)?.simplified();
            let outside = p.subtract(dom)?.simplified();
            if !inside.is_empty() {
                next.push(inside);
            }
            if !outside.is_empty() {
                next.push(outside);
            }
        }
        pieces = next;
    }
    Ok(pieces)
}

/// Restricts a term list to one piece: terms whose domain misses the piece
/// drop out, surviving terms get their factor mappings restricted and keep
/// their trails, shared rather than copied.  Each *distinct* factor mapping
/// is restricted once, and terms that share a mapping share its
/// restriction: mappings are bucketed by their cached
/// [`Relation::structural_hash`], computed once per mapping for all the
/// pieces, and told apart within a bucket by `Relation` equality.
fn restrict_terms(terms: &[FlatTerm], piece: &Set) -> Result<Vec<FlatTerm>> {
    let _span = arrayeq_trace::span("restrict");
    // Each distinct mapping with its restriction (`None` when empty),
    // bucketed by hash: a piece meets hundreds of factors over dozens of
    // distinct mappings, too many to scan for each factor.
    let mut restricted: HashMap<u64, Vec<(&Relation, Option<Relation>)>> = HashMap::new();
    let mut out = Vec::new();
    'terms: for t in terms {
        if t.factors.is_empty() {
            if t.domain.intersect(piece)?.is_empty() {
                continue;
            }
            out.push(FlatTerm {
                domain: piece.clone(),
                ..t.clone()
            });
            continue;
        }
        let mut factors = Vec::with_capacity(t.factors.len());
        for f in &t.factors {
            let bucket = restricted.entry(f.map.structural_hash()).or_default();
            let map = match bucket.iter().find(|(m, _)| *m == &f.map) {
                Some((_, map)) => map.clone(),
                None => {
                    let map = f.map.restrict_domain(piece)?.simplified(true);
                    let map = (!map.is_empty()).then_some(map);
                    bucket.push((&f.map, map.clone()));
                    map
                }
            };
            let Some(map) = map else {
                continue 'terms;
            };
            factors.push(super::flatten::Factor {
                pos: f.pos.clone(),
                map,
                trail: f.trail.clone(),
            });
        }
        out.push(FlatTerm {
            coeff: t.coeff,
            factors,
            domain: piece.clone(),
            trail: t.trail.clone(),
        });
    }
    Ok(out)
}

impl<'x> Checker<'x> {
    /// The extended method at an algebraic chain: flatten both sides into
    /// the resolved family, split the output domain into regions with a
    /// fixed term structure, and match terms within each region.  Entered
    /// from `check_nodes` (operator/operator and operator/constant pairs)
    /// and from the leaf-versus-operator traversal arms.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_algebraic(
        &mut self,
        family: &OperatorKind,
        pos_a: Pos,
        map_a: Relation,
        pos_b: Pos,
        map_b: Relation,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        self.stats.flattenings += 1;
        let full = map_a.domain();
        let mut terms_a = Vec::new();
        let mut terms_b = Vec::new();
        {
            let _span = arrayeq_trace::span("flatten");
            let t0 = arrayeq_trace::metrics_timer();
            self.flatten_family(true, family, pos_a, map_a, trail_a, 1, true, &mut terms_a)?;
            self.flatten_family(false, family, pos_b, map_b, trail_b, 1, true, &mut terms_b)?;
            arrayeq_trace::record_elapsed(arrayeq_trace::Metric::Flatten, t0);
        }
        self.stats.terms_flattened += (terms_a.len() + terms_b.len()) as u64;
        arrayeq_trace::event_with("flattened", || {
            vec![
                arrayeq_trace::u("terms_a", terms_a.len() as u64),
                arrayeq_trace::u("terms_b", terms_b.len() as u64),
            ]
        });

        let pieces = split_pieces(&full, &terms_a, &terms_b)?;
        let mut ok = true;
        for piece in &pieces {
            ok &= self.match_piece(family, &terms_a, &terms_b, piece, trail_a, trail_b)?;
            if !self.budget() {
                return Ok(false);
            }
        }
        Ok(ok)
    }

    /// Restricts both sides' flattened terms to one piece and matches them
    /// there (see the module docs for the three stages).
    fn match_piece(
        &mut self,
        family: &OperatorKind,
        flat_a: &[FlatTerm],
        flat_b: &[FlatTerm],
        piece: &Set,
        trail_a: &Trail,
        trail_b: &Trail,
    ) -> Result<bool> {
        let live_a = restrict_terms(flat_a, piece)?;
        let live_b = restrict_terms(flat_b, piece)?;
        self.stats.matchings += 1;
        let _span = arrayeq_trace::span_with("match", || {
            vec![
                arrayeq_trace::u("terms_a", live_a.len() as u64),
                arrayeq_trace::u("terms_b", live_b.len() as u64),
            ]
        });
        let _metric = arrayeq_trace::metric_guard(arrayeq_trace::Metric::Match);
        let class = self.opts.operators.class_of(family);
        let multiplicative = matches!(family, OperatorKind::Mul);
        let fold = |terms: &[FlatTerm]| -> i64 {
            let mut acc: i64 = if multiplicative { 1 } else { 0 };
            for t in terms.iter().filter(|t| t.factors.is_empty()) {
                acc = if multiplicative {
                    acc.wrapping_mul(t.coeff)
                } else {
                    acc.wrapping_add(t.coeff)
                };
            }
            acc
        };
        let const_a = fold(&live_a);
        let const_b = fold(&live_b);
        let terms_a: Vec<&FlatTerm> = live_a.iter().filter(|t| !t.factors.is_empty()).collect();
        let terms_b: Vec<&FlatTerm> = live_b.iter().filter(|t| !t.factors.is_empty()).collect();

        let fail = |this: &mut Self, message: std::fmt::Arguments<'_>| {
            this.diagnose(|_| {
                Ok(Diagnostic {
                    kind: DiagnosticKind::MatchingFailure,
                    output_array: None,
                    original_statements: trail_a.to_vec(),
                    transformed_statements: trail_b.to_vec(),
                    expressions: vec![format!("operator `{family}`")],
                    original_mapping: None,
                    transformed_mapping: None,
                    message: message.to_string(),
                    failing_domain: Some(piece.clone()),
                })
            })
        };

        // Annihilator: a chain whose constant part folds to the declared
        // absorbing element *is* that element, whatever else it multiplies.
        if let Some(z) = class.annihilator {
            let za = const_a == z;
            let zb = const_b == z;
            if za && zb {
                return Ok(true);
            }
            if za != zb {
                let side = if za { "original" } else { "transformed" };
                fail(
                    self,
                    format_args!(
                        "the `{family}` chain is annihilated (constant {z}) in the {side} \
                         program only, on part of the output domain"
                    ),
                )?;
                return Ok(false);
            }
        }

        if const_a != const_b {
            fail(
                self,
                format_args!(
                    "the folded constant part of the `{family}` chain differs: \
                     {const_a} in the original and {const_b} in the transformed \
                     program on part of the output domain"
                ),
            )?;
            return Ok(false);
        }

        if terms_a.len() != terms_b.len() {
            fail(
                self,
                format_args!(
                    "the `{family}` chain has {} operands in the original and {} in the \
                     transformed program on part of the output domain",
                    terms_a.len(),
                    terms_b.len()
                ),
            )?;
            return Ok(false);
        }

        // Hash-cons both sides' terms: id equality is the fast matching
        // path, and (id, id) pairs key the match memo.
        let ids_a: Vec<TermId> = terms_a.iter().map(|t| self.intern_term(true, t)).collect();
        let ids_b: Vec<TermId> = terms_b.iter().map(|t| self.intern_term(false, t)).collect();

        let factor_comm = self.opts.operators.class_of(&OperatorKind::Mul).commutative;
        let mut used = vec![false; terms_b.len()];
        let mut all_ok = true;
        for (i, ta) in terms_a.iter().enumerate() {
            let mut matched = false;
            let mut candidates: Vec<usize> = (0..terms_b.len()).filter(|&j| !used[j]).collect();
            if class.commutative {
                // The twin first: the first unused term with the same arena
                // id pairs by one integer comparison.  The other unused
                // terms follow in index order.
                if let Some(t) = candidates.iter().position(|&j| ids_b[j] == ids_a[i]) {
                    candidates[..=t].rotate_right(1);
                }
            } else {
                // Associative-only: order is preserved, so the i-th unused
                // operand is the only candidate.
                candidates.truncate(1);
            }
            for j in candidates {
                if self.terms_match(factor_comm, ta, ids_a[i], terms_b[j], ids_b[j])? {
                    used[j] = true;
                    matched = true;
                    break;
                }
            }
            if !matched {
                all_ok = false;
                self.diagnose(|this| {
                    let (name, mapping) = this.describe_term(true, ta);
                    // The closest unmatched candidate on the other side,
                    // for the diagnostic.
                    let other = terms_b
                        .iter()
                        .zip(&used)
                        .find(|(_, &u)| !u)
                        .map(|(t, _)| this.describe_term(false, t));
                    Ok(Diagnostic {
                        kind: DiagnosticKind::MappingMismatch,
                        output_array: None,
                        original_statements: ta.trail.to_vec(),
                        transformed_statements: other
                            .as_ref()
                            .map(|_| terms_b.iter().flat_map(|t| t.trail.to_vec()).collect())
                            .unwrap_or_default(),
                        expressions: {
                            let mut e = vec![name];
                            if let Some((n, _)) = &other {
                                e.push(n.clone());
                            }
                            e
                        },
                        original_mapping: Some(mapping),
                        transformed_mapping: other.map(|(_, m)| m),
                        message: format!(
                            "no operand of the transformed `{family}` chain matches this operand of the original"
                        ),
                        failing_domain: Some(piece.clone()),
                    })
                })?;
            }
        }
        Ok(all_ok)
    }

    /// Whether two flattened terms are equivalent (the matching criterion):
    /// equal coefficients and a factor-for-factor equivalence of their
    /// products.  Fast paths: identical arena ids, then the match memo.
    /// The fallback checks factor pairs *speculatively*: a failed candidate
    /// is simply the next one's turn, so the checks run with
    /// [`Checker::speculating`] raised and build no diagnostics.
    fn terms_match(
        &mut self,
        commutative_factors: bool,
        ta: &FlatTerm,
        ia: TermId,
        tb: &FlatTerm,
        ib: TermId,
    ) -> Result<bool> {
        if ia == ib {
            self.stats.fast_term_matches += 1;
            arrayeq_trace::discharge("arena_fast_match");
            return Ok(true);
        }
        if let Some(cached) = self.arena.lookup_match(ia, ib) {
            self.stats.term_memo_hits += 1;
            arrayeq_trace::discharge("match_memo");
            return Ok(cached);
        }
        if ta.coeff != tb.coeff || ta.factors.len() != tb.factors.len() {
            self.arena.record_match(ia, ib, false);
            return Ok(false);
        }
        let assumption_uses_before = self.assumption_uses;
        let saved = self.diagnostics.len();
        // Lowered again before `?` can leave: the depth is back where it
        // was on every exit path.
        self.speculating += 1;
        let all = self.factors_match(commutative_factors, ta, tb);
        self.speculating -= 1;
        let all = all?;
        debug_assert_eq!(
            self.diagnostics.len(),
            saved,
            "a speculative check recorded a diagnostic"
        );
        // A result derived under a coinductive recurrence assumption is
        // only valid inside that assumption's scope; a result produced
        // while a budget was winding the traversal down proves nothing.
        // Everything else memoises.
        if !self.exhausted && self.assumption_uses == assumption_uses_before {
            self.arena.record_match(ia, ib, all);
        }
        Ok(all)
    }

    /// Pairs every factor of `ta` with an equivalent unused factor of `tb`
    /// (in order when `*` is not commutative), greedily, by recursive
    /// checks.
    fn factors_match(
        &mut self,
        commutative_factors: bool,
        ta: &FlatTerm,
        tb: &FlatTerm,
    ) -> Result<bool> {
        let mut used = vec![false; tb.factors.len()];
        for fa in &ta.factors {
            let mut candidates: Vec<usize> = (0..tb.factors.len()).filter(|&j| !used[j]).collect();
            if !commutative_factors {
                candidates.truncate(1);
            }
            let mut matched = false;
            for j in candidates {
                let fb = &tb.factors[j];
                if self.check(
                    fa.pos.clone(),
                    fa.map.clone(),
                    fb.pos.clone(),
                    fb.map.clone(),
                    &fa.trail,
                    &fb.trail,
                )? {
                    used[j] = true;
                    matched = true;
                    break;
                }
            }
            if !matched {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Interns one term into the arena by its rename-invariant content key.
    fn intern_term(&mut self, original_side: bool, t: &FlatTerm) -> TermId {
        let fps = if original_side {
            &self.fps.0
        } else {
            &self.fps.1
        };
        let keys: Vec<(u64, u64)> = t
            .factors
            .iter()
            .map(|f| {
                let p = match &f.pos {
                    Pos::Node(n) => fps.node(*n),
                    Pos::Array(v) => fps.array(v),
                };
                (p, f.map.structural_hash())
            })
            .collect();
        self.arena.intern(t, keys, &mut self.stats)
    }

    /// Renders a term for diagnostics: `(name, mapping)` in the style the
    /// single-operand matcher always used, with multi-factor products
    /// joined by `*` and a leading coefficient when it is not `1`.
    fn describe_term(&self, original_side: bool, t: &FlatTerm) -> (String, String) {
        let g = if original_side { self.a } else { self.b };
        let names: Vec<String> = t
            .factors
            .iter()
            .map(|f| match &f.pos {
                Pos::Array(v) => v.clone(),
                Pos::Node(n) => describe_node(g, *n),
            })
            .collect();
        let mut name = names.join(" * ");
        if t.coeff != 1 {
            name = format!("{} * {name}", t.coeff);
        }
        let mapping = t
            .factors
            .iter()
            .map(|f| f.map.to_string())
            .collect::<Vec<_>>()
            .join(" ; ");
        (name, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::flatten::Factor;

    fn set(text: &str) -> Set {
        Set::parse(text).unwrap()
    }

    fn constant_on(domain: &str) -> FlatTerm {
        FlatTerm {
            coeff: 1,
            factors: Vec::new(),
            domain: set(domain),
            trail: Trail::default(),
        }
    }

    fn factor_term(array: &str, map: &Relation) -> FlatTerm {
        FlatTerm {
            coeff: 1,
            factors: vec![Factor {
                pos: Pos::Array(array.to_owned()),
                map: map.clone(),
                trail: Trail::default(),
            }],
            domain: map.domain(),
            trail: Trail::default(),
        }
    }

    fn overlapping_terms() -> (Vec<FlatTerm>, Vec<FlatTerm>) {
        let a = vec![
            constant_on("{ [k] : 0 <= k < 20 }"),
            constant_on("{ [k] : 10 <= k < 32 }"),
            constant_on("{ [k] : 0 <= k < 20 }"),
        ];
        let b = vec![
            constant_on("{ [k] : exists j : k = 2j and 0 <= k < 32 }"),
            constant_on("{ [k] : 10 <= k < 32 }"),
        ];
        (a, b)
    }

    #[test]
    fn split_pieces_partitions_the_full_domain_along_every_term_domain() {
        let full = set("{ [k] : 0 <= k < 32 }");
        let (a, b) = overlapping_terms();
        let pieces = split_pieces(&full, &a, &b).unwrap();
        assert!(pieces.len() > 1);
        let mut union = pieces[0].clone();
        for (i, p) in pieces.iter().enumerate() {
            assert!(!p.is_empty(), "piece {i} is empty");
            for q in &pieces[i + 1..] {
                assert!(p.intersect(q).unwrap().is_empty(), "pieces overlap");
            }
            union = union.union(p).unwrap();
            for t in a.iter().chain(&b) {
                let inside = p.is_subset(&t.domain).unwrap();
                let disjoint = p.intersect(&t.domain).unwrap().is_empty();
                assert!(inside || disjoint, "piece {p} straddles {}", t.domain);
            }
        }
        assert!(union.is_equal(&full).unwrap(), "pieces cover {union}");
    }

    #[test]
    fn duplicated_terms_split_into_the_same_pieces() {
        let full = set("{ [k] : 0 <= k < 32 }");
        let (a, b) = overlapping_terms();
        let twice = |ts: &[FlatTerm]| -> Vec<FlatTerm> { ts.iter().chain(ts).cloned().collect() };
        assert_eq!(
            split_pieces(&full, &twice(&a), &twice(&b)).unwrap(),
            split_pieces(&full, &a, &b).unwrap()
        );
    }

    #[test]
    fn terms_sharing_a_factor_map_get_equal_restrictions() {
        let shared = Relation::parse("{ [k] -> [j] : j = k + 1 and 0 <= k < 32 }").unwrap();
        let other = Relation::parse("{ [k] -> [j] : j = 2k and 0 <= k < 32 }").unwrap();
        let missing = Relation::parse("{ [k] -> [j] : j = k and 20 <= k < 32 }").unwrap();
        let terms = vec![
            factor_term("X", &shared),
            factor_term("Y", &other),
            factor_term("Z", &missing),
            factor_term("W", &shared),
        ];
        let piece = set("{ [k] : 0 <= k < 10 }");
        let live = restrict_terms(&terms, &piece).unwrap();
        assert_eq!(
            live.len(),
            3,
            "the term whose map misses the piece drops out"
        );
        let expected = shared.restrict_domain(&piece).unwrap().simplified(true);
        assert_eq!(live[0].factors[0].map, expected);
        assert_eq!(live[2].factors[0].map, expected);
        assert!(matches!(&live[2].factors[0].pos, Pos::Array(v) if v == "W"));
        assert_eq!(
            live[1].factors[0].map,
            other.restrict_domain(&piece).unwrap().simplified(true)
        );
        assert!(live.iter().all(|t| t.domain == piece));
    }
}
