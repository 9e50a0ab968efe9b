//! Flattening (Fig. 4 of the paper, widened by the operator algebra).
//!
//! Flattening walks the chain rooted at an operator node — looking through
//! `Access` compositions and intermediate variables exactly like the
//! synchronized traversal — and collects [`FlatTerm`]s: `coefficient ×
//! product-of-factors` with the accumulated output-current mappings.  The
//! paper's flattening is the special case where every term is `1 × (one
//! position)`; the algebra adds signs (inverse folding of `-`/negation),
//! folded constants, dropped identities, annihilated products and one-level
//! distribution of `*` over `+` (see the [`crate::normalize`] module docs).
//!
//! Every term and factor carries the [`Trail`] of statements that led to it.
//! Trails are shared, not copied: a look-through step extends its parent's
//! trail by one link, and the terms of one chain share their common prefix.

use crate::checker::{Checker, Half, Pos, Side, Trail};
use crate::Result;
use arrayeq_addg::{Definition, Node, NodeId, OperatorKind};
use arrayeq_omega::{Relation, Set};

/// One flattened term: `coeff · Π factors` over `domain`.
///
/// * A plain chain operand (the paper's case) is `coeff = ±1` with one
///   factor; the sign comes from inverse folding.
/// * A constant operand folds to `coeff = value` with **no** factors.
/// * A product inside a `+` chain decomposes into its factor multiset with
///   the constant factors folded into `coeff` (`2·a·b` → `coeff 2`,
///   factors `{a, b}`).
///
/// Each factor is a [`Half`]: a traversal position with its accumulated
/// output-current mapping and the statement trail that led there.
/// `domain` is the part of the output space on which the term is present —
/// region splitting partitions the output domain so every term is fully
/// present or fully absent on each piece.
///
/// Cloning a term, as restricting it to each region piece does, shares its
/// trails instead of copying them.
#[derive(Debug, Clone)]
pub(crate) struct FlatTerm {
    pub coeff: i64,
    pub factors: Vec<Half>,
    pub domain: Set,
    /// Statement trail at the term's emission point (diagnostics).
    pub trail: Trail,
}

impl FlatTerm {
    /// A pure-constant term.
    fn constant(coeff: i64, domain: Set, trail: &Trail) -> FlatTerm {
        FlatTerm {
            coeff,
            factors: Vec::new(),
            domain,
            trail: trail.clone(),
        }
    }

    /// A term of one opaque factor with coefficient `coeff`.
    fn single(coeff: i64, factor: Half) -> FlatTerm {
        FlatTerm {
            coeff,
            domain: factor.map.domain(),
            trail: factor.trail.clone(),
            factors: vec![factor],
        }
    }
}

/// The running decomposition of one product inside a `+` chain.
struct Product {
    /// The folded constant factors, times the chain's sign.
    coeff: i64,
    /// The opaque factors.
    factors: Vec<Half>,
    /// The first additive operand, kept for one-level distribution.
    distribute: Option<Half>,
}

/// The domain of a term: the intersection of its factors' mapping domains
/// (the base domain when there are no factors).
fn term_domain(base: Set, factors: &[Half]) -> Result<Set> {
    match factors {
        [] => Ok(base),
        [only] => Ok(only.map.domain()),
        many => {
            let mut dom = many[0].map.domain();
            for f in &many[1..] {
                dom = dom.intersect(&f.map.domain())?.simplified();
            }
            Ok(dom)
        }
    }
}

/// Evaluates a fully-constant operator subtree (`(2 + 1)`, `-(4)`, `2·3`)
/// to its value; `None` as soon as an array read, call or division is
/// involved.  Purely syntactic — no mappings, no look-through — so it is
/// sound on any domain.
fn const_eval(g: &arrayeq_addg::Addg, n: NodeId) -> Option<i64> {
    match g.node(n) {
        Node::Const { value, .. } => Some(*value),
        Node::Operator { kind, operands, .. } => match kind {
            OperatorKind::Add => {
                Some(const_eval(g, operands[0])?.wrapping_add(const_eval(g, operands[1])?))
            }
            OperatorKind::Sub => {
                Some(const_eval(g, operands[0])?.wrapping_sub(const_eval(g, operands[1])?))
            }
            OperatorKind::Mul => {
                Some(const_eval(g, operands[0])?.wrapping_mul(const_eval(g, operands[1])?))
            }
            OperatorKind::Neg => Some(const_eval(g, operands[0])?.wrapping_neg()),
            OperatorKind::Div | OperatorKind::Call(_) => None,
        },
        Node::Access { .. } | Node::Array { .. } => None,
    }
}

impl<'x> Checker<'x> {
    /// Flattens the chain of `family` rooted at `h`, on `side`, into `out`.
    ///
    /// `sign` is the additive sign accumulated through inverse folding
    /// (always `1` outside the `+` family); `root` marks the chain's root
    /// node, which expands one operand level even when the family is only
    /// commutative (deeper same-operator nodes require associativity, as in
    /// the paper).
    ///
    /// Returns `false` when a budget tripped mid-flatten (the caller's
    /// verdict is already inconclusive then).
    ///
    /// Every mapping that reaches here is either a deep `simplified(true)`
    /// result, whose conjuncts are all feasible, or one the traversal has
    /// already tested for emptiness, so an empty conjunct list is the whole
    /// emptiness test.
    pub(crate) fn flatten_family(
        &mut self,
        side: Side,
        family: &OperatorKind,
        h: Half,
        sign: i64,
        root: bool,
        out: &mut Vec<FlatTerm>,
    ) -> Result<bool> {
        if !self.budget() {
            return Ok(false);
        }
        debug_assert_eq!(h.map.is_empty(), h.map.conjuncts().is_empty());
        if h.map.conjuncts().is_empty() {
            return Ok(true);
        }
        // Access: compose through the dependency mapping and continue at
        // the array position (the paper's look-through).
        if let Some(next) = self.enter_access(side, &h)? {
            self.flatten_family(side, family, next, sign, false, out)?;
            return Ok(true);
        }
        let g = self.graph(side);
        let n = match &h.pos {
            Pos::Node(n) => *n,
            Pos::Array(v) if g.is_input(v) || g.is_recurrent(v) => {
                out.push(FlatTerm::single(sign, h));
                return Ok(true);
            }
            // Look through the intermediate variable: continue flattening
            // into each definition whose elements the mapping reaches
            // (non-chain definition roots land in the opaque-operand arm
            // below).
            Pos::Array(v) => {
                for def in g.definitions(v) {
                    let sub = self.restrict_to(&h.map, &def.elements)?;
                    if sub.is_empty() {
                        continue;
                    }
                    let def_half = Half {
                        pos: Pos::Node(def.root),
                        map: sub,
                        trail: h.trail.with(&def.statement),
                    };
                    self.flatten_family(side, family, def_half, sign, false, out)?;
                }
                return Ok(true);
            }
        };
        let class = self.opts.operators.class_of(family);
        let add = self.opts.operators.class_of(&OperatorKind::Add);
        let mul = self.opts.operators.class_of(&OperatorKind::Mul);
        let additive = matches!(family, OperatorKind::Add);
        match g.node(n) {
            // The chain's own operator: expand the operand level.  The root
            // always expands (that is what entering the algebraic path
            // means); deeper same-operator nodes flatten through only under
            // associativity.
            Node::Operator {
                kind,
                operands,
                statement,
            } if kind == family && (class.associative || root) => {
                let h = h.with(statement);
                for &child in operands {
                    self.flatten_family(side, family, h.at(Pos::Node(child)), sign, false, out)?;
                }
                Ok(true)
            }
            // Inverse folding: `a - b` is `a + (-1)·b`, `-a` is `(-1)·a`.
            Node::Operator {
                kind: OperatorKind::Sub,
                operands,
                statement,
            } if additive && add.is_ac() => {
                let h = h.with(statement);
                let left = h.at(Pos::Node(operands[0]));
                self.flatten_family(side, family, left, sign, false, out)?;
                let right = Half {
                    pos: Pos::Node(operands[1]),
                    ..h
                };
                self.flatten_family(side, family, right, sign.wrapping_neg(), false, out)?;
                Ok(true)
            }
            Node::Operator {
                kind: OperatorKind::Neg,
                operands,
                statement,
            } if additive && add.is_ac() => {
                let inner = Half {
                    pos: Pos::Node(operands[0]),
                    ..h.with(statement)
                };
                self.flatten_family(side, family, inner, sign.wrapping_neg(), false, out)
            }
            // A product inside a `+` chain: decompose into factors with
            // folded constant coefficient, distributing one level over
            // an additive operand when one is present.
            Node::Operator {
                kind: OperatorKind::Mul,
                ..
            } if additive && add.is_ac() && mul.is_ac() => {
                self.flatten_product_term(side, n, h.map, &h.trail, sign, out)
            }
            // Negation inside a `*` chain is a constant `-1` factor.
            Node::Operator {
                kind: OperatorKind::Neg,
                operands,
                statement,
            } if matches!(family, OperatorKind::Mul) && mul.is_ac() => {
                out.push(FlatTerm::constant(-1, h.map.domain(), &h.trail));
                let inner = Half {
                    pos: Pos::Node(operands[0]),
                    ..h.with(statement)
                };
                self.flatten_family(side, family, inner, sign, false, out)
            }
            // Constants fold into the chain (identity operands fold to the
            // neutral contribution and vanish; see the matcher's per-piece
            // constant comparison).
            Node::Const { value, .. } if additive && add.is_ac() => {
                let c = sign.wrapping_mul(*value);
                if c != 0 {
                    out.push(FlatTerm::constant(c, h.map.domain(), &h.trail));
                }
                Ok(true)
            }
            Node::Const { value, .. } if matches!(family, OperatorKind::Mul) && mul.is_ac() => {
                out.push(FlatTerm::constant(*value, h.map.domain(), &h.trail));
                Ok(true)
            }
            // Any other node is an opaque operand of the chain.
            _ => {
                out.push(FlatTerm::single(sign, h));
                Ok(true)
            }
        }
    }

    /// Flattens a `*` node encountered inside a `+` chain into one (or,
    /// when distributing, several) product terms.
    fn flatten_product_term(
        &mut self,
        side: Side,
        n: NodeId,
        map: Relation,
        trail: &Trail,
        sign: i64,
        out: &mut Vec<FlatTerm>,
    ) -> Result<bool> {
        let mut product = Product {
            coeff: sign,
            factors: Vec::new(),
            distribute: None,
        };
        if !self.flatten_product(side, n, &map, trail, &mut product)? {
            return Ok(false);
        }
        let Product {
            coeff,
            factors,
            distribute,
        } = product;
        match distribute {
            // One-level distribution: `m · (u ± v ± …)` contributes one
            // term `m·u`, `±m·v`, … per additive operand of the chain.
            Some(sum) => {
                let mut inner = Vec::new();
                self.flatten_family(side, &OperatorKind::Add, sum, 1, true, &mut inner)?;
                for t in inner {
                    let c = t.coeff.wrapping_mul(coeff);
                    if c == 0 {
                        continue; // annihilated: contributes the `+` identity
                    }
                    let mut fs = factors.clone();
                    fs.extend(t.factors);
                    let domain = term_domain(t.domain, &fs)?;
                    out.push(FlatTerm {
                        coeff: c,
                        factors: fs,
                        domain,
                        trail: t.trail,
                    });
                }
                Ok(true)
            }
            None => {
                if coeff == 0 {
                    return Ok(true); // `x·0` inside a sum: identity, vanishes
                }
                if factors.is_empty() {
                    out.push(FlatTerm::constant(coeff, map.domain(), trail));
                    return Ok(true);
                }
                let domain = term_domain(map.domain(), &factors)?;
                out.push(FlatTerm {
                    coeff,
                    factors,
                    domain,
                    trail: trail.clone(),
                });
                Ok(true)
            }
        }
    }

    /// Collects the factor multiset of a product into `acc`: constant
    /// factors fold into its coefficient, negation flips its sign, the
    /// *first* additive operand is remembered for one-level distribution,
    /// and everything else — including a second additive operand — stays
    /// an opaque factor.  `Access` operands compose through their
    /// dependency mapping and look through *single-definition*
    /// intermediates (multi-definition arrays stay opaque factors: their
    /// piecewise structure belongs to the recursive traversal, not the
    /// product decomposition).
    fn flatten_product(
        &mut self,
        side: Side,
        n: NodeId,
        map: &Relation,
        trail: &Trail,
        acc: &mut Product,
    ) -> Result<bool> {
        if !self.budget() {
            return Ok(false);
        }
        let g = self.graph(side);
        let here = || Half {
            pos: Pos::Node(n),
            map: map.clone(),
            trail: trail.clone(),
        };
        match g.node(n) {
            Node::Operator {
                kind: OperatorKind::Mul,
                operands,
                statement,
            } => {
                let trail = trail.with(statement);
                for &child in operands {
                    if !self.flatten_product(side, child, map, &trail, acc)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Node::Operator {
                kind: OperatorKind::Neg,
                operands,
                statement,
            } => {
                acc.coeff = acc.coeff.wrapping_neg();
                self.flatten_product(side, operands[0], map, &trail.with(statement), acc)
            }
            Node::Operator {
                kind: OperatorKind::Add | OperatorKind::Sub,
                ..
            } => {
                // A fully-constant subtree (`(2 + 1)·x`) evaluates into the
                // coefficient — distributing it would split one `3·x` term
                // into `2·x + 1·x`, which like-term-free matching cannot
                // reconcile with the other side's folded form.
                if let Some(c) = const_eval(g, n) {
                    acc.coeff = acc.coeff.wrapping_mul(c);
                } else if acc.distribute.is_none() {
                    acc.distribute = Some(here());
                } else {
                    acc.factors.push(here());
                }
                Ok(true)
            }
            Node::Const { value, .. } => {
                acc.coeff = acc.coeff.wrapping_mul(*value);
                Ok(true)
            }
            Node::Access {
                array,
                mapping,
                statement,
                ..
            } => {
                let m = self.compose(map, mapping)?;
                self.product_enter_array(side, array, m, trail.with(statement), acc)
            }
            _ => {
                acc.factors.push(here());
                Ok(true)
            }
        }
    }

    /// An array position reached inside a product: inputs and recurrence
    /// arrays are opaque factors; an intermediate is looked through when
    /// exactly *one* of its definitions is live on the current domain
    /// (def-use correctness guarantees that definition covers every read
    /// there, so the restriction never narrows the factor's domain).  With
    /// several live definitions the factor stays opaque — its piecewise
    /// structure belongs to the recursive traversal, not the product
    /// decomposition.
    fn product_enter_array(
        &mut self,
        side: Side,
        array: &str,
        map: Relation,
        trail: Trail,
        acc: &mut Product,
    ) -> Result<bool> {
        let g = self.graph(side);
        if !g.is_input(array) && !g.is_recurrent(array) {
            let mut live: Option<(&Definition, Relation)> = None;
            for def in g.definitions(array) {
                let sub = self.restrict_to(&map, &def.elements)?;
                if sub.is_empty() {
                    continue;
                }
                match live {
                    None => live = Some((def, sub)),
                    Some(_) => {
                        live = None; // several live definitions: stay opaque
                        break;
                    }
                }
            }
            if let Some((def, sub)) = live {
                return self.flatten_product(
                    side,
                    def.root,
                    &sub,
                    &trail.with(&def.statement),
                    acc,
                );
            }
        }
        acc.factors.push(Half {
            pos: Pos::Array(array.to_owned()),
            map,
            trail,
        });
        Ok(true)
    }
}
