//! Integer tuple sets — relations without output dimensions.

use crate::conjunct::Conjunct;
use crate::constraint::Constraint;
use crate::relation::Relation;
use crate::space::{Space, VarKind};
use crate::Result;

/// A set of integer tuples described by (piecewise-)affine constraints.
///
/// `Set` is a thin wrapper around a [`Relation`] with zero output dimensions;
/// it exists so that domains, ranges and iteration domains have their own
/// type and cannot be confused with mappings.
///
/// ```
/// use arrayeq_omega::Set;
///
/// # fn main() -> Result<(), arrayeq_omega::OmegaError> {
/// let evens = Set::parse("{ [k] : k % 2 = 0 and 0 <= k < 10 }")?;
/// assert!(evens.contains(&[4], &[]));
/// assert!(!evens.contains(&[5], &[]));
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Set {
    inner: Relation,
}

impl Set {
    /// The empty set over `space`.
    ///
    /// # Panics
    ///
    /// Panics if `space` has output dimensions.
    pub fn empty(space: Space) -> Self {
        assert_eq!(space.n_out(), 0, "set space must have no output dims");
        Set {
            inner: Relation::empty(space),
        }
    }

    /// The universe set over `space`.
    ///
    /// # Panics
    ///
    /// Panics if `space` has output dimensions.
    pub fn universe(space: Space) -> Self {
        assert_eq!(space.n_out(), 0, "set space must have no output dims");
        Set {
            inner: Relation::universe(space),
        }
    }

    /// Parses the textual notation, e.g. `"[N] -> { [i] : 0 <= i < N }"`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::OmegaError::Parse`] on malformed input or if the text
    /// denotes a relation rather than a set.
    pub fn parse(text: &str) -> Result<Set> {
        crate::parse::parse_set(text)
    }

    /// Wraps a relation with no output dims as a set.
    ///
    /// # Panics
    ///
    /// Panics if the relation has output dimensions.
    pub fn from_relation(r: Relation) -> Self {
        assert_eq!(r.space().n_out(), 0, "set must have no output dims");
        Set { inner: r }
    }

    /// The underlying relation (zero output dims).
    pub fn as_relation(&self) -> &Relation {
        &self.inner
    }

    /// The space of this set.
    pub fn space(&self) -> &Space {
        self.inner.space()
    }

    /// The conjuncts of this set.
    pub fn conjuncts(&self) -> &[Conjunct] {
        self.inner.conjuncts()
    }

    /// Whether the set contains `point` for the given parameter values.
    pub fn contains(&self, point: &[i64], params: &[i64]) -> bool {
        self.inner.contains(point, &[], params)
    }

    /// Whether the set is empty for all parameter values.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Union of two sets.
    ///
    /// # Errors
    ///
    /// Returns a space-mismatch error if the spaces are incompatible.
    pub fn union(&self, other: &Set) -> Result<Set> {
        Ok(Set {
            inner: self.inner.union(&other.inner)?,
        })
    }

    /// Intersection of two sets.
    ///
    /// # Errors
    ///
    /// Returns a space-mismatch error if the spaces are incompatible.
    pub fn intersect(&self, other: &Set) -> Result<Set> {
        Ok(Set {
            inner: self.inner.intersect(&other.inner)?,
        })
    }

    /// Difference `self \ other`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Relation::subtract`].
    pub fn subtract(&self, other: &Set) -> Result<Set> {
        Ok(Set {
            inner: self.inner.subtract(&other.inner)?,
        })
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Relation::subtract`].
    pub fn is_subset(&self, other: &Set) -> Result<bool> {
        self.inner.is_subset(&other.inner)
    }

    /// Whether the two sets are equal.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Relation::subtract`].
    pub fn is_equal(&self, other: &Set) -> Result<bool> {
        self.inner.is_equal(&other.inner)
    }

    /// Simplified copy (drops empty conjuncts, coalesces duplicated and
    /// subsumed disjuncts).
    pub fn simplified(&self) -> Set {
        Set {
            inner: self.inner.simplified(true),
        }
    }

    /// Minimal-rendering copy for diagnostics (see [`Relation::minimized`]):
    /// simplified, with constraints implied by each conjunct's remaining
    /// constraints dropped.  Set-preserving, so sampling from the result is
    /// exactly as sound as sampling from the original.
    pub fn minimized(&self) -> Set {
        Set {
            inner: self.inner.minimized(),
        }
    }

    /// Returns a concrete member of the set as `(point, params)`, or `None`
    /// when the set is empty (see [`Relation::sample_point`]).
    pub fn sample_point(&self) -> Option<(Vec<i64>, Vec<i64>)> {
        self.inner.sample_point().map(|s| (s.input, s.params))
    }

    /// The singleton set `{ point }` over this set's space (the parameters
    /// stay unconstrained).
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the set's dimension count.
    pub fn singleton(&self, point: &[i64]) -> Set {
        assert_eq!(point.len(), self.space().n_in(), "wrong point arity");
        let mut c = Conjunct::universe(self.space().clone());
        for (d, &v) in point.iter().enumerate() {
            let mut e = c.var_expr(VarKind::In, d);
            e.set_constant(-v);
            c.add(Constraint::eq(e));
        }
        Set {
            inner: Relation::from_conjuncts(self.space().clone(), vec![c]),
        }
    }

    /// The set with the single tuple `point` removed (for *all* parameter
    /// values).  Used to enumerate several distinct members:
    /// sample, subtract, sample again.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the set's dimension count.
    pub fn without_point(&self, point: &[i64]) -> Result<Set> {
        self.subtract(&self.singleton(point))
    }

    /// Enumerates up to `max` distinct members by repeated
    /// sample-and-subtract, returning each point with the parameter values
    /// it was sampled under.  Stops early when the set is exhausted (so for
    /// finite sets smaller than `max` this is an exact enumeration).
    pub fn sample_points(&self, max: usize) -> Vec<(Vec<i64>, Vec<i64>)> {
        let mut out = Vec::new();
        let mut remaining = self.simplified();
        while out.len() < max {
            let Some((point, params)) = remaining.sample_point() else {
                break;
            };
            let Ok(next) = remaining.without_point(&point) else {
                break;
            };
            remaining = next;
            out.push((point, params));
        }
        out
    }

    /// Embeds the set's constraints into a relation space, constraining the
    /// relation's *input* tuple to lie in this set (used by
    /// [`Relation::restrict_domain`]).
    pub(crate) fn embed_as_domain_constraint(&self, rel_space: &Space) -> Relation {
        self.embed(rel_space, VarKind::In)
    }

    /// Embeds the set's constraints into a relation space, constraining the
    /// relation's *output* tuple to lie in this set (used by
    /// [`Relation::restrict_range`]).
    pub(crate) fn embed_as_range_constraint(&self, rel_space: &Space) -> Relation {
        self.embed(rel_space, VarKind::Out)
    }

    fn embed(&self, rel_space: &Space, target: VarKind) -> Relation {
        let n_dims = self.space().n_in();
        let n_param = self.space().n_param();
        let mut conjuncts = Vec::with_capacity(self.conjuncts().len());
        for c in self.conjuncts() {
            let n_ex = c.n_exists();
            let mut out = Conjunct::universe(rel_space.clone());
            let ex_base = out.add_exists(n_ex);
            let n_total = out.n_vars();
            let mut map = Vec::with_capacity(c.n_vars());
            for d in 0..n_dims {
                map.push(rel_space.col(target, d, 0));
            }
            for p in 0..n_param {
                map.push(rel_space.col(VarKind::Param, p, 0));
            }
            for e in 0..n_ex {
                map.push(ex_base + e);
            }
            for cons in c.constraints() {
                out.add(cons.remapped(&map, n_total));
            }
            conjuncts.push(out);
        }
        Relation::from_conjuncts(rel_space.clone(), conjuncts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_and_empty() {
        let space = Space::set(&["i"], &[]);
        assert!(Set::empty(space.clone()).is_empty());
        let u = Set::universe(space);
        assert!(u.contains(&[1234], &[]));
        assert!(!u.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = Set::parse("{ [i] : 0 <= i < 10 }").unwrap();
        let b = Set::parse("{ [i] : 5 <= i < 20 }").unwrap();
        assert!(a.union(&b).unwrap().contains(&[15], &[]));
        assert!(a.intersect(&b).unwrap().contains(&[7], &[]));
        assert!(!a.intersect(&b).unwrap().contains(&[2], &[]));
        assert!(a.subtract(&b).unwrap().contains(&[2], &[]));
        assert!(!a.subtract(&b).unwrap().contains(&[7], &[]));
        assert!(a.intersect(&b).unwrap().is_subset(&a).unwrap());
        assert!(!a.is_subset(&b).unwrap());
        assert!(a.is_equal(&a).unwrap());
    }

    #[test]
    fn strided_sets() {
        let evens = Set::parse("{ [k] : exists j : k = 2j and 0 <= k < 100 }").unwrap();
        let via_mod = Set::parse("{ [k] : k % 2 = 0 and 0 <= k < 100 }").unwrap();
        assert!(evens.is_equal(&via_mod).unwrap());
        let all = Set::parse("{ [k] : 0 <= k < 100 }").unwrap();
        let odds = all.subtract(&evens).unwrap();
        assert!(odds.contains(&[3], &[]));
        assert!(!odds.contains(&[4], &[]));
        assert!(odds
            .is_equal(&Set::parse("{ [k] : k % 2 = 1 and 0 <= k < 100 }").unwrap())
            .unwrap());
    }

    #[test]
    fn parameterised_set() {
        let s = Set::parse("[N] -> { [i] : 0 <= i < N }").unwrap();
        assert!(s.contains(&[5], &[10]));
        assert!(!s.contains(&[5], &[5]));
    }

    #[test]
    fn multi_dim_set() {
        let s = Set::parse("{ [i, j] : 0 <= i < 4 and 0 <= j <= i }").unwrap();
        assert!(s.contains(&[3, 2], &[]));
        assert!(!s.contains(&[2, 3], &[]));
    }
}
