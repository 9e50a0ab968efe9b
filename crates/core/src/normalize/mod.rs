//! Algebraic normalization — the extended method's flattening and matching
//! operations (Fig. 4 and Section 5.2 of the paper), grown into a
//! first-class subsystem.
//!
//! # Paper mapping
//!
//! The paper normalises at operators declared associative and/or
//! commutative: an operator node's chain is **flattened** (Fig. 4) into a
//! set of operands-with-mappings, looking through intermediate variables,
//! and the two sides' flattened operand sets are **matched** (Section 5.2)
//! region by region — the output domain is split into pieces on which every
//! operand is either fully present or fully absent, and within each piece
//! operands pair up by proving their sub-computations equivalent with
//! identical output-current mappings.
//!
//! This module keeps that skeleton and widens the algebra:
//!
//! * **[`flatten`]** produces [`FlatTerm`](flatten::FlatTerm)s: an integer
//!   *coefficient* times a product of *factors* (ADDG positions with
//!   accumulated mappings).
//!   Beyond the paper's operand collection it performs, per the declared
//!   [`OperatorProperties`]:
//!   - *inverse folding* — `a - b` and unary negation fold into the `+`
//!     chain as negated coefficients (`a + (-1)·b`), so subtraction
//!     shuffles normalise away;
//!   - *constant folding* — constant operands fold into one value per
//!     region (`2 + x + 3` ≡ `x + 5`, `2·x·3` ≡ `6·x`);
//!   - *identity elements* — `x + 0` and `x * 1` vanish (the fold reaches
//!     the declared identity);
//!   - *annihilators* — a `* 0` collapses the chain to the constant `0`;
//!   - one-level *distribution* of `*` over `+` — `a*(b+c)` flattens into
//!     the two terms `a·b` and `a·c`, matching expanded kernels.
//! * **[`TermArena`]** ([`arena`]) hash-conses flattened terms into integer
//!   [`TermId`]s keyed by content fingerprints and mapping structural
//!   hashes — rename-invariant exactly like the tabling keys — so term
//!   comparison, dedup across regions and the tabling of matched pairs are
//!   integer operations instead of re-walks of ADDG chains.
//! * **[`matching`]** splits the output domain into pieces (unchanged from
//!   the paper), folds and compares the constant part per piece, applies
//!   the annihilator short-circuit, and greedily matches the remaining
//!   terms.  Each term first tries its twin on the other side (same arena
//!   id: one integer comparison), then the other unused terms in index
//!   order; a candidate that is no twin goes through the match memo, and
//!   only then through a speculative recursive equivalence check, which
//!   builds no diagnostics.
//!
//! The entry point is [`crate::checker::Checker::check_algebraic`], whose
//! body lives in [`matching`]; `checker.rs` itself only dispatches here.
//! One algebraic obligation is checked whole, on the worker whose
//! traversal reached it.
//!
//! # Chain families
//!
//! The paper flattens chains of one operator.  Inverse folding and
//! distribution make membership wider: a `-` node belongs to the `+` chain,
//! a `*` node can appear as a single `+`-term.  [`chain_family`] resolves,
//! for a pair of operator kinds, which chain (if any) both sides normalise
//! into — preferring the tighter family (`*` for two `*` roots) and falling
//! back to `+` when only the additive reading is shared (a `*` root against
//! a `+` root, the factored/expanded scenario).
//!
//! [`OperatorProperties`]: crate::OperatorProperties

pub(crate) mod arena;
pub(crate) mod flatten;
pub(crate) mod matching;

pub(crate) use arena::TermArena;

use crate::checker::Method;
use crate::operators::OperatorProperties;
use arrayeq_addg::OperatorKind;

/// A chain family without owning its name: `Call` borrows the operator's
/// name, so candidate resolution on the traversal's hot path allocates
/// nothing (the old `Vec<OperatorKind>` form cloned a `String` per `Call`
/// dispatch).  Converted to an owned [`OperatorKind`] only on a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fam<'k> {
    Add,
    Mul,
    Call(&'k str),
}

impl Fam<'_> {
    fn to_kind(self) -> OperatorKind {
        match self {
            Fam::Add => OperatorKind::Add,
            Fam::Mul => OperatorKind::Mul,
            Fam::Call(name) => OperatorKind::Call(name.to_owned()),
        }
    }

    fn class(self, ops: &OperatorProperties) -> crate::operators::OperatorClass {
        match self {
            Fam::Add => ops.class_of(&OperatorKind::Add),
            Fam::Mul => ops.class_of(&OperatorKind::Mul),
            // Only reached in tests/diagnostics paths; chain resolution
            // derives Call classes before building the candidate.
            Fam::Call(name) => ops.class_of(&OperatorKind::Call(name.to_owned())),
        }
    }
}

/// The chains an operator kind can normalise into, most specific first,
/// given the declared operator algebra (at most two).  Both slots `None`
/// when the kind only compares structurally.
pub(crate) fn family_candidates<'k>(
    kind: &'k OperatorKind,
    ops: &OperatorProperties,
) -> [Option<Fam<'k>>; 2] {
    let add = ops.class_of(&OperatorKind::Add);
    let mul = ops.class_of(&OperatorKind::Mul);
    match kind {
        OperatorKind::Add if add.is_algebraic() => [Some(Fam::Add), None],
        // Inverse folding rewrites the chain's term structure, so it needs
        // the full AC class on `+` (a merely associative `+` keeps the
        // paper's ordered chains, where `-` stays structural).
        OperatorKind::Sub if add.is_ac() => [Some(Fam::Add), None],
        // Negation is `(-1)·x`: additive by inverse folding, multiplicative
        // through the constant factor.
        OperatorKind::Neg => [
            add.is_ac().then_some(Fam::Add),
            mul.is_ac().then_some(Fam::Mul),
        ],
        // A `*` chain is itself, or — via one-level distribution — a single
        // term of a `+` chain.
        OperatorKind::Mul => [
            mul.is_algebraic().then_some(Fam::Mul),
            (add.is_ac() && mul.is_ac()).then_some(Fam::Add),
        ],
        OperatorKind::Call(name) if ops.class_of(kind).is_algebraic() => {
            [Some(Fam::Call(name)), None]
        }
        _ => [None, None],
    }
}

/// Resolves the chain family of a pair of operator nodes: the most specific
/// chain *both* kinds normalise into, or `None` when the pair must be
/// compared structurally (same kind) or mismatched (different kinds).
pub(crate) fn chain_family(
    ka: &OperatorKind,
    kb: &OperatorKind,
    ops: &OperatorProperties,
    method: Method,
) -> Option<OperatorKind> {
    if method != Method::Extended {
        return None;
    }
    let ca = family_candidates(ka, ops);
    let cb = family_candidates(kb, ops);
    if let Some(f) = ca
        .iter()
        .flatten()
        .find(|f| cb.iter().flatten().any(|g| g == *f))
    {
        return Some(f.to_kind());
    }
    // Fallback: when one root normalises into a constant-folding chain and
    // the other shares no family, the other side reads as the chain's
    // single opaque term — this is how `f(x) + 0` or `f(x) * 1` verifies
    // against plain `f(x)` for an uninterpreted `f`.  Sound either way:
    // the opaque term is matched by the ordinary recursive check.
    let foldable = |cands: [Option<Fam<'_>>; 2]| {
        cands
            .into_iter()
            .flatten()
            .find(|f| matches!(f, Fam::Add | Fam::Mul) && f.class(ops).is_ac())
            .map(Fam::to_kind)
    };
    foldable(ca).or_else(|| foldable(cb))
}

/// The chain family for an operator node compared against a *constant*
/// node: constants fold into `+` and `*` chains (and only those), so the
/// family is the operator's most specific foldable chain.
pub(crate) fn family_against_const(
    kind: &OperatorKind,
    ops: &OperatorProperties,
    method: Method,
) -> Option<OperatorKind> {
    if method != Method::Extended {
        return None;
    }
    family_candidates(kind, ops)
        .into_iter()
        .flatten()
        .find(|f| matches!(f, Fam::Add | Fam::Mul) && f.class(ops).is_ac())
        .map(Fam::to_kind)
}

/// The chain family for an operator node compared against a *leaf* array
/// position (input or recurrence array): the leaf reads as the single term
/// of any chain, so the operator's most specific family applies — this is
/// how `X + 0` or `X * 1` against plain `X` verifies.
pub(crate) fn family_against_leaf(
    kind: &OperatorKind,
    ops: &OperatorProperties,
    method: Method,
) -> Option<OperatorKind> {
    if method != Method::Extended {
        return None;
    }
    family_candidates(kind, ops)
        .into_iter()
        .flatten()
        .next()
        .map(Fam::to_kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::OperatorClass;

    #[test]
    fn family_resolution_prefers_the_tight_chain() {
        let ops = OperatorProperties::default();
        let m = Method::Extended;
        assert_eq!(
            chain_family(&OperatorKind::Mul, &OperatorKind::Mul, &ops, m),
            Some(OperatorKind::Mul)
        );
        assert_eq!(
            chain_family(&OperatorKind::Mul, &OperatorKind::Add, &ops, m),
            Some(OperatorKind::Add),
            "factored vs expanded reads multiplicative roots additively"
        );
        assert_eq!(
            chain_family(&OperatorKind::Sub, &OperatorKind::Add, &ops, m),
            Some(OperatorKind::Add)
        );
        assert_eq!(
            chain_family(&OperatorKind::Neg, &OperatorKind::Sub, &ops, m),
            Some(OperatorKind::Add)
        );
        assert_eq!(
            chain_family(&OperatorKind::Div, &OperatorKind::Div, &ops, m),
            None
        );
        assert_eq!(
            chain_family(&OperatorKind::Add, &OperatorKind::Add, &ops, Method::Basic),
            None,
            "the basic method never normalises"
        );
    }

    #[test]
    fn families_respect_the_declared_algebra() {
        // Without full AC on `+`, inverse folding is off: `-` is structural.
        let assoc_only = OperatorProperties::default().with_add(OperatorClass::ASSOCIATIVE);
        assert_eq!(
            chain_family(
                &OperatorKind::Sub,
                &OperatorKind::Add,
                &assoc_only,
                Method::Extended
            ),
            None
        );
        // `+` chains themselves still flatten under associativity alone.
        assert_eq!(
            chain_family(
                &OperatorKind::Add,
                &OperatorKind::Add,
                &assoc_only,
                Method::Extended
            ),
            Some(OperatorKind::Add)
        );
        let none = OperatorProperties::none();
        assert_eq!(family_candidates(&OperatorKind::Add, &none), [None, None]);
        assert_eq!(family_candidates(&OperatorKind::Mul, &none), [None, None]);

        let ops = OperatorProperties::default().declare_call("min", OperatorClass::AC);
        assert_eq!(
            chain_family(
                &OperatorKind::Call("min".into()),
                &OperatorKind::Call("min".into()),
                &ops,
                Method::Extended
            ),
            Some(OperatorKind::Call("min".into()))
        );
        assert_eq!(
            family_against_const(&OperatorKind::Call("min".into()), &ops, Method::Extended),
            None,
            "constants only fold into the built-in chains"
        );
        assert_eq!(
            family_against_const(&OperatorKind::Mul, &ops, Method::Extended),
            Some(OperatorKind::Mul)
        );
        assert_eq!(
            family_against_leaf(&OperatorKind::Mul, &ops, Method::Extended),
            Some(OperatorKind::Mul)
        );
    }
}
