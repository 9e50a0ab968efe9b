//! Relations between integer tuples: finite unions of affine conjuncts.

use crate::conjunct::Conjunct;
use crate::constraint::Constraint;
use crate::hash::combine_unordered;
use crate::linexpr::LinExpr;
use crate::set::Set;
use crate::space::{Space, VarKind};
use crate::{OmegaError, Result};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// A relation between integer tuples, represented as a finite union of
/// [`Conjunct`]s over one [`Space`].
///
/// This is the "dependency mapping" type of the paper: e.g. the mapping from
/// the elements of `buf[]` defined by statement `s2` of Fig. 1(a) to the
/// elements of the second occurrence of `A[]` it reads is
///
/// ```text
/// { [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }
/// ```
///
/// The algebra needed by the equivalence checker is provided as methods:
/// [`compose`](Relation::compose) (the paper's natural join `⋈` used for
/// intermediate-variable reduction), [`inverse`](Relation::inverse),
/// [`union`](Relation::union), [`intersect`](Relation::intersect),
/// [`domain`](Relation::domain) / [`range`](Relation::range),
/// [`subtract`](Relation::subtract), [`is_subset`](Relation::is_subset),
/// [`is_equal`](Relation::is_equal), [`is_empty`](Relation::is_empty),
/// [`is_function`](Relation::is_function) and
/// [`transitive_closure`](Relation::transitive_closure).
#[derive(Debug, Clone)]
pub struct Relation {
    space: Space,
    conjuncts: Vec<Conjunct>,
    /// Lazily-computed [`structural_hash`](Relation::structural_hash).
    ///
    /// Relations are immutable after construction except for
    /// [`add_conjunct`](Relation::add_conjunct), which resets this cell, so
    /// the hash is computed at most once per relation.  Cloning carries an
    /// already-computed hash along.
    hash_cache: OnceLock<u64>,
}

// `hash_cache` is a derived quantity: equality, ordering and hashing must see
// only the semantic fields, otherwise two equal relations could compare
// unequal depending on which of them has had its hash demanded already.
impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space && self.conjuncts == other.conjuncts
    }
}

impl Eq for Relation {}

impl Hash for Relation {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.space.hash(state);
        self.conjuncts.hash(state);
    }
}

impl Relation {
    /// Internal constructor shared by every operation.
    pub(crate) fn raw(space: Space, conjuncts: Vec<Conjunct>) -> Self {
        Relation {
            space,
            conjuncts,
            hash_cache: OnceLock::new(),
        }
    }

    /// The empty relation over `space`.
    pub fn empty(space: Space) -> Self {
        Relation::raw(space, Vec::new())
    }

    /// The universe relation (all pairs) over `space`.
    pub fn universe(space: Space) -> Self {
        let c = Conjunct::universe(space.clone());
        Relation::raw(space, vec![c])
    }

    /// The identity relation `{ [x] -> [x] }` over `space`.
    ///
    /// # Panics
    ///
    /// Panics if the space does not have equally many input and output dims.
    pub fn identity(space: Space) -> Self {
        assert_eq!(
            space.n_in(),
            space.n_out(),
            "identity requires square space"
        );
        let mut c = Conjunct::universe(space.clone());
        for d in 0..space.n_in() {
            let mut e = c.zero_expr();
            e.set_coeff(c.col(VarKind::In, d), 1);
            e.set_coeff(c.col(VarKind::Out, d), -1);
            c.add(Constraint::eq(e));
        }
        Relation::raw(space, vec![c])
    }

    /// The identity relation restricted to a set: `{ [x] -> [x] : x ∈ s }`.
    pub fn identity_on(s: &Set) -> Self {
        let set_space = s.space();
        let rel_space =
            Space::relation(set_space.in_vars(), set_space.in_vars(), set_space.params());
        let id = Relation::identity(rel_space);
        id.restrict_domain(s).expect("compatible by construction")
    }

    /// Builds a relation from explicit conjuncts.
    ///
    /// # Panics
    ///
    /// Panics if any conjunct's space is incompatible with `space`.
    pub fn from_conjuncts(space: Space, conjuncts: Vec<Conjunct>) -> Self {
        for c in &conjuncts {
            assert!(
                space.is_compatible(c.space()),
                "conjunct space incompatible with relation space"
            );
        }
        // Structurally identical disjuncts are collapsed at construction
        // time — piecewise merges hand the same disjunct in repeatedly, and
        // every copy would otherwise be re-solved downstream.
        Relation::raw(space, crate::dnf::dedup(conjuncts))
    }

    /// Parses the textual notation, e.g.
    /// `"[N] -> { [i] -> [2i] : 0 <= i < N }"`.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::Parse`] on malformed input.
    pub fn parse(text: &str) -> Result<Relation> {
        crate::parse::parse_relation(text)
    }

    /// The space of this relation.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// The conjuncts (disjuncts of the union) of this relation.
    pub fn conjuncts(&self) -> &[Conjunct] {
        &self.conjuncts
    }

    /// Adds one conjunct to the union.
    pub fn add_conjunct(&mut self, c: Conjunct) {
        assert!(self.space.is_compatible(c.space()));
        self.conjuncts.push(c);
        self.hash_cache = OnceLock::new();
    }

    /// Simplifies every conjunct, drops the ones that are syntactically or
    /// semantically empty and coalesces the survivors (structural dedup plus
    /// conjunct subsumption — see [`Conjunct::subsumes`]).  `deep`
    /// additionally runs the exact emptiness test per conjunct (more
    /// expensive, smaller result).  A conjunct that is already simplified
    /// is tested in place and cloned only when it survives.
    pub fn simplified(&self, deep: bool) -> Relation {
        let mut out = Vec::with_capacity(self.conjuncts.len());
        for c in &self.conjuncts {
            let Some(c) = c.simplified() else {
                continue;
            };
            if deep && !c.is_feasible() {
                continue;
            }
            out.push(c.into_owned());
        }
        Relation::raw(self.space.clone(), crate::dnf::coalesce(out))
    }

    /// Minimal-rendering form for diagnostics: [`Relation::simplified`]
    /// (deep) with every surviving conjunct additionally stripped of
    /// constraints implied by its own remaining constraints
    /// ([`Conjunct::drop_redundant`] — the self-gist).  Set-preserving, so
    /// witness sampling against the result is exactly as sound as against
    /// the original; noticeably more expensive than `simplified`, so it is
    /// reserved for failing domains that reach a report.
    pub fn minimized(&self) -> Relation {
        let mut conjuncts = self.simplified(true).conjuncts;
        for c in &mut conjuncts {
            c.drop_redundant();
        }
        Relation::raw(self.space.clone(), crate::dnf::coalesce(conjuncts))
    }

    /// Whether the relation contains the pair (`input`, `output`) for the
    /// given parameter values.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match the space arities.
    pub fn contains(&self, input: &[i64], output: &[i64], params: &[i64]) -> bool {
        assert_eq!(input.len(), self.space.n_in());
        assert_eq!(output.len(), self.space.n_out());
        assert_eq!(params.len(), self.space.n_param());
        let mut point = Vec::with_capacity(self.space.n_global());
        point.extend_from_slice(input);
        point.extend_from_slice(output);
        point.extend_from_slice(params);
        self.conjuncts.iter().any(|c| c.contains(&point))
    }

    /// Whether the relation is empty (no integer points for any parameter
    /// values).
    pub fn is_empty(&self) -> bool {
        self.conjuncts
            .iter()
            .all(|c| c.simplified().is_none_or(|c| !c.is_feasible()))
    }

    /// Union of two relations over compatible spaces.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::SpaceMismatch`] if the spaces are incompatible.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        self.space.check_compatible(&other.space, "union")?;
        let mut conjuncts = self.conjuncts.clone();
        conjuncts.extend(
            other
                .conjuncts
                .iter()
                .cloned()
                .map(|c| c.with_space(self.space.clone())),
        );
        Ok(Relation::raw(
            self.space.clone(),
            crate::dnf::coalesce(conjuncts),
        ))
    }

    /// Intersection of two relations over compatible spaces.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::SpaceMismatch`] if the spaces are incompatible.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        self.space.check_compatible(&other.space, "intersect")?;
        let mut conjuncts = Vec::with_capacity(self.conjuncts.len() * other.conjuncts.len());
        for a in &self.conjuncts {
            for b in &other.conjuncts {
                let mut c = a.intersect(&b.clone().with_space(self.space.clone()));
                if c.simplify() {
                    conjuncts.push(c);
                }
            }
        }
        Ok(Relation::raw(
            self.space.clone(),
            crate::dnf::coalesce(conjuncts),
        ))
    }

    /// The inverse relation (input and output tuples swapped).
    pub fn inverse(&self) -> Relation {
        Relation::raw(
            self.space.reversed(),
            self.conjuncts.iter().map(Conjunct::reversed).collect(),
        )
    }

    /// The domain of the relation, as a [`Set`] over the input dims.
    pub fn domain(&self) -> Set {
        let conjuncts = self.conjuncts.iter().map(Conjunct::domain).collect();
        Set::from_relation(Relation::raw(self.space.domain_space(), conjuncts))
    }

    /// The range of the relation, as a [`Set`] over the output dims.
    pub fn range(&self) -> Set {
        let conjuncts = self.conjuncts.iter().map(Conjunct::range).collect();
        Set::from_relation(Relation::raw(self.space.range_space(), conjuncts))
    }

    /// Composition (the paper's natural join `⋈`): `self : X → Y` composed
    /// with `other : Y → Z` yields `{ x → z : ∃y. (x,y) ∈ self ∧ (y,z) ∈ other }`.
    ///
    /// This is the *intermediate variable reduction* primitive of Section 3.2:
    /// reducing `tmp` on the path `C → tmp → B` composes `M_{C,tmp}` with
    /// `M_{tmp,B}`.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::SpaceMismatch`] if `self`'s output arity differs
    /// from `other`'s input arity or the parameter lists differ.
    pub fn compose(&self, other: &Relation) -> Result<Relation> {
        if self.space.n_out() != other.space.n_in() || self.space.params() != other.space.params() {
            return Err(OmegaError::SpaceMismatch {
                op: "compose",
                lhs: self.space.describe(),
                rhs: other.space.describe(),
            });
        }
        let n_in = self.space.n_in();
        let n_mid = self.space.n_out();
        let n_out = other.space.n_out();
        let n_param = self.space.n_param();
        let result_space = Space::relation(
            self.space.in_vars(),
            other.space.out_vars(),
            self.space.params(),
        );
        let mut conjuncts = Vec::with_capacity(self.conjuncts.len() * other.conjuncts.len());
        for a in &self.conjuncts {
            for b in &other.conjuncts {
                let n_ex_a = a.n_exists();
                let n_ex_b = b.n_exists();
                let n_exists = n_mid + n_ex_a + n_ex_b;
                let n_total = n_in + n_out + n_param + n_exists;
                let mid_base = n_in + n_out + n_param;

                // Remap a's columns: [in | mid | param | ex_a]
                let mut map_a = Vec::with_capacity(a.n_vars());
                for i in 0..n_in {
                    map_a.push(i);
                }
                for j in 0..n_mid {
                    map_a.push(mid_base + j);
                }
                for p in 0..n_param {
                    map_a.push(n_in + n_out + p);
                }
                for e in 0..n_ex_a {
                    map_a.push(mid_base + n_mid + e);
                }

                // Remap b's columns: [mid | out | param | ex_b]
                let mut map_b = Vec::with_capacity(b.n_vars());
                for j in 0..n_mid {
                    map_b.push(mid_base + j);
                }
                for o in 0..n_out {
                    map_b.push(n_in + o);
                }
                for p in 0..n_param {
                    map_b.push(n_in + n_out + p);
                }
                for e in 0..n_ex_b {
                    map_b.push(mid_base + n_mid + n_ex_a + e);
                }

                let mut constraints =
                    Vec::with_capacity(a.constraints().len() + b.constraints().len());
                for c in a.constraints() {
                    constraints.push(c.remapped(&map_a, n_total));
                }
                for c in b.constraints() {
                    constraints.push(c.remapped(&map_b, n_total));
                }
                let mut conj = Conjunct::from_parts(result_space.clone(), n_exists, constraints);
                if conj.simplify() {
                    conjuncts.push(conj);
                }
            }
        }
        Ok(Relation::raw(result_space, crate::dnf::coalesce(conjuncts)))
    }

    /// Restricts the domain of the relation to a set.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::SpaceMismatch`] if the set's space does not match
    /// the relation's input space.
    pub fn restrict_domain(&self, s: &Set) -> Result<Relation> {
        self.space
            .domain_space()
            .check_compatible(s.space(), "restrict_domain")?;
        let embedded = s.embed_as_domain_constraint(&self.space);
        self.intersect(&embedded)
    }

    /// Restricts the range of the relation to a set.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::SpaceMismatch`] if the set's space does not match
    /// the relation's output space.
    pub fn restrict_range(&self, s: &Set) -> Result<Relation> {
        self.space
            .range_space()
            .check_compatible(s.space(), "restrict_range")?;
        let embedded = s.embed_as_range_constraint(&self.space);
        self.intersect(&embedded)
    }

    /// The image of a set under the relation: `{ y : ∃x ∈ s. (x, y) ∈ self }`.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::SpaceMismatch`] if `s` is not over the relation's
    /// input space.
    pub fn apply(&self, s: &Set) -> Result<Set> {
        Ok(self.restrict_domain(s)?.range())
    }

    /// Set difference `self \ other`.
    ///
    /// # Errors
    ///
    /// * [`OmegaError::SpaceMismatch`] if the spaces are incompatible.
    /// * [`OmegaError::InexactElimination`] if `other` contains existential
    ///   variables that cannot be eliminated exactly (outside the supported
    ///   fragment), in which case an exact difference cannot be formed.
    pub fn subtract(&self, other: &Relation) -> Result<Relation> {
        self.space.check_compatible(&other.space, "subtract")?;
        // Normalise the subtrahend to quantifier-free conjuncts so that their
        // negation stays within the constraint language.
        let mut subtrahend = Vec::new();
        for c in &other.conjuncts {
            let Some(c) = c.simplified() else {
                continue; // empty disjunct removes nothing
            };
            if !c.is_feasible() {
                continue;
            }
            if !c.is_quantifier_free() {
                return Err(OmegaError::InexactElimination { op: "subtract" });
            }
            subtrahend.push(c.into_owned().with_space(self.space.clone()));
        }
        // Already coalesced by `simplified`, and every round below coalesces
        // its output, so the result needs no final pass.
        let mut current = self.simplified(false).conjuncts;
        for b in &subtrahend {
            let mut next = Vec::new();
            for a in &current {
                // a \ b  =  ⋃_{constraint c of b}  a ∧ ¬c
                for c in b.constraints() {
                    for neg in c.negated() {
                        let mut piece = a.clone();
                        let neg = neg.extended(piece.n_vars() - neg.n_vars());
                        piece.add(neg);
                        if piece.simplify() && piece.is_feasible() {
                            next.push(piece);
                        }
                    }
                }
            }
            // Every subtrahend round multiplies the disjunct count by the
            // negation fan-out; coalescing between rounds is what keeps the
            // sample-and-subtract enumeration loop polynomial in practice.
            current = crate::dnf::coalesce(next);
            if current.is_empty() {
                break;
            }
        }
        Ok(Relation::raw(self.space.clone(), current))
    }

    /// Whether `self ⊆ other`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Relation::subtract`].
    pub fn is_subset(&self, other: &Relation) -> Result<bool> {
        Ok(self.subtract(other)?.is_empty())
    }

    /// Whether the two relations contain exactly the same pairs (for all
    /// parameter values).  This is the identity check on *output-input
    /// mappings* at the heart of the paper's sufficient condition.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Relation::subtract`].
    pub fn is_equal(&self, other: &Relation) -> Result<bool> {
        Ok(self.is_subset(other)? && other.is_subset(self)?)
    }

    /// Whether the relation is a (partial) function: every input tuple maps to
    /// at most one output tuple.
    ///
    /// # Errors
    ///
    /// Propagates the errors of the underlying subset check.
    pub fn is_function(&self) -> Result<bool> {
        // (x, y1) ∈ R ∧ (x, y2) ∈ R  ⇒  y1 = y2
        // is equivalent to  R⁻¹ ∘ R ⊆ Id  over the output space.
        let pairs = self.inverse().compose(self)?;
        let id_space = Space::relation(
            self.space.out_vars(),
            self.space.out_vars(),
            self.space.params(),
        );
        pairs.is_subset(&Relation::identity(id_space))
    }

    /// Positive transitive closure `R⁺` for *uniform* (translation) relations,
    /// i.e. relations whose single conjunct forces `out = in + d` for a
    /// constant vector `d`.  Returns the closure and whether it is exact.
    ///
    /// The closure is
    /// `{ x → y : ∃k ≥ 1 . y = x + k·d ∧ x ∈ dom R ∧ y ∈ ran R }`,
    /// which is exact when consecutive intermediate points cannot escape the
    /// domain (guaranteed for `|dᵢ| ≤ 1`, the common case for the recurrences
    /// of signal-processing kernels); otherwise it is an over-approximation,
    /// which is the safe direction for the def-use checks that consume it.
    ///
    /// # Errors
    ///
    /// Returns [`OmegaError::UnsupportedClosure`] when the relation is not a
    /// single uniform conjunct.
    pub fn transitive_closure(&self) -> Result<(Relation, bool)> {
        if self.space.n_in() != self.space.n_out() {
            return Err(OmegaError::UnsupportedClosure {
                relation: format!("{self}"),
            });
        }
        let simplified = self.simplified(true);
        if simplified.conjuncts.len() != 1 {
            return Err(OmegaError::UnsupportedClosure {
                relation: format!("{self}"),
            });
        }
        let c = &simplified.conjuncts[0];
        let d = self.space.n_in();
        let mut offsets = Vec::with_capacity(d);
        for i in 0..d {
            match c.out_dim_as_affine_of_inputs(i) {
                Some((ins, pars, k))
                    if pars.iter().all(|&p| p == 0)
                        && ins.iter().enumerate().all(
                            |(j, &a)| {
                                if j == i {
                                    a == 1
                                } else {
                                    a == 0
                                }
                            },
                        ) =>
                {
                    offsets.push(k);
                }
                _ => {
                    return Err(OmegaError::UnsupportedClosure {
                        relation: format!("{self}"),
                    })
                }
            }
        }

        let dom = simplified.domain();
        let ran = simplified.range();
        let mut closure = Conjunct::universe(self.space.clone());
        let k_col = closure.add_exists(1);
        // out_i = in_i + k * d_i  for every dim, and k >= 1.
        for (i, &di) in offsets.iter().enumerate() {
            let mut e = closure.zero_expr();
            e.set_coeff(closure.col(VarKind::Out, i), 1);
            e.set_coeff(closure.col(VarKind::In, i), -1);
            e.set_coeff(k_col, -di);
            closure.add(Constraint::eq(e));
        }
        let mut kge1 = closure.zero_expr();
        kge1.set_coeff(k_col, 1);
        kge1.set_constant(-1);
        closure.add(Constraint::geq(kge1));

        let base = Relation::raw(self.space.clone(), vec![closure]);
        let restricted = base.restrict_domain(&dom)?.restrict_range(&ran)?;
        let exact = offsets.iter().all(|&k| k.unsigned_abs() <= 1);
        Ok((restricted.simplified(true), exact))
    }

    /// Reflexive-transitive closure `R*` restricted to the given universe set
    /// (identity on `universe` united with `R⁺`).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Relation::transitive_closure`].
    pub fn reflexive_transitive_closure(&self, universe: &Set) -> Result<(Relation, bool)> {
        let (plus, exact) = self.transitive_closure()?;
        let id = Relation::identity_on(universe);
        Ok((plus.union(&id)?, exact))
    }

    /// A stable 64-bit hash of the relation's canonical structural form —
    /// the tabling key of the checker.
    ///
    /// The hash combines the [`Conjunct::structural_hash`] of every conjunct
    /// order-insensitively (sorted, deduplicated), so it is invariant under
    /// conjunct permutation and duplication as well as everything the
    /// conjunct-level canonical form absorbs (constraint permutation,
    /// duplication, gcd scaling, equality sign).  Two relations with the
    /// same hash are equal up to those presentation choices — and up to
    /// 64-bit collisions, so a hash hit that must mean identity is
    /// confirmed by [`same_canonical_form`](Relation::same_canonical_form).
    ///
    /// The value is computed once and cached (`O(1)` on every later call);
    /// clones carry an already-computed hash with them.  Unlike the old
    /// string-keyed `canonical_key`, no feasibility pass and no textual
    /// rendering is involved.
    pub fn structural_hash(&self) -> u64 {
        *self.hash_cache.get_or_init(|| {
            let conjunct_hashes: Vec<u64> = self
                .conjuncts
                .iter()
                .map(Conjunct::structural_hash)
                .collect();
            let salt = crate::hash::structural_hash_of(&(
                self.space.n_in(),
                self.space.n_out(),
                self.space.n_param(),
            ));
            combine_unordered(conjunct_hashes, salt)
        })
    }

    /// Returns a concrete member of the relation — one `(input, output,
    /// params)` triple — or `None` when the relation is empty (or the
    /// solver's work limit was hit on every conjunct).
    ///
    /// This is the *model extraction* counterpart of
    /// [`is_empty`](Relation::is_empty): instead of a yes/no answer, the
    /// Omega test is asked for a satisfying integer point.  Conjuncts are
    /// tried in order; each is simplified first so syntactically empty
    /// disjuncts are skipped cheaply.  A returned point always satisfies
    /// [`contains`](Relation::contains); existential variables (strides,
    /// composition intermediates) are witnessed internally and do not appear
    /// in the point.
    pub fn sample_point(&self) -> Option<SamplePoint> {
        for c in &self.conjuncts {
            let Some(c) = c.simplified() else {
                continue;
            };
            if let Some(point) = c.sample_point() {
                let n_in = self.space.n_in();
                let n_out = self.space.n_out();
                let sample = SamplePoint {
                    input: point[..n_in].to_vec(),
                    output: point[n_in..n_in + n_out].to_vec(),
                    params: point[n_in + n_out..].to_vec(),
                };
                debug_assert!(self.contains(&sample.input, &sample.output, &sample.params));
                return Some(sample);
            }
        }
        None
    }

    /// Whether the two relations have one canonical form: `==`, or else
    /// equal [`canonical_key`](Relation::canonical_key)s.  This is what
    /// confirms that two relations with one
    /// [`structural_hash`](Relation::structural_hash) are one relation.
    pub fn same_canonical_form(&self, other: &Relation) -> bool {
        self == other || self.canonical_key() == other.canonical_key()
    }

    /// A canonical textual rendering of the structural form — what
    /// [`same_canonical_form`](Relation::same_canonical_form) compares, and
    /// a log aid; **not** the tabling key.
    ///
    /// Two relations with the same canonical key are equal (the converse
    /// does not hold).
    pub fn canonical_key(&self) -> String {
        let mut parts: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| format!("E{}:{:?}", c.n_exists(), c.canonical_constraints()))
            .collect();
        parts.sort();
        parts.dedup();
        parts.join(" | ")
    }
}

/// A concrete member of a relation, as returned by
/// [`Relation::sample_point`]: one input tuple, one output tuple and one
/// assignment of the symbolic parameters under which the pair is related.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePoint {
    /// Values of the input-tuple dimensions.
    pub input: Vec<i64>,
    /// Values of the output-tuple dimensions.
    pub output: Vec<i64>,
    /// Values chosen for the symbolic parameters.
    pub params: Vec<i64>,
}

/// Builder-style helpers used heavily by the ADDG extractor: construct the
/// relation `{ [w₁..w_n] -> [r₁..r_m] : w = W(iters), r = R(iters), iters ∈ D }`
/// from affine index maps over a common iteration vector.
#[derive(Debug, Clone)]
pub struct MapBuilder {
    /// Names of the iteration variables (become existentials).
    pub iter_names: Vec<String>,
    /// Names of the symbolic parameters.
    pub param_names: Vec<String>,
    /// Constraints over `[iters | params]` columns + constant describing the
    /// iteration domain.
    pub domain: Vec<(Vec<i64>, Vec<i64>, i64, DomKind)>,
    /// Write index expressions: coefficients over iters, over params, const.
    pub write: Vec<(Vec<i64>, Vec<i64>, i64)>,
    /// Read index expressions: coefficients over iters, over params, const.
    pub read: Vec<(Vec<i64>, Vec<i64>, i64)>,
}

/// Kind of a domain constraint row in [`MapBuilder::domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomKind {
    /// expression `= 0`
    Eq,
    /// expression `≥ 0`
    Geq,
    /// expression `≡ 0 (mod m)`; the modulus rides in the constant slot of a
    /// separate field, see [`MapBuilder::add_domain_mod`].
    Mod(i64),
}

impl MapBuilder {
    /// Creates a builder with the given iteration-variable and parameter
    /// names and no constraints.
    pub fn new(iter_names: &[String], param_names: &[String]) -> Self {
        MapBuilder {
            iter_names: iter_names.to_vec(),
            param_names: param_names.to_vec(),
            domain: Vec::new(),
            write: Vec::new(),
            read: Vec::new(),
        }
    }

    /// Adds a domain constraint `Σ aᵢ·iterᵢ + Σ bⱼ·paramⱼ + c (op) 0`.
    pub fn add_domain(&mut self, iters: Vec<i64>, params: Vec<i64>, c: i64, kind: DomKind) {
        self.domain.push((iters, params, c, kind));
    }

    /// Adds a congruence domain constraint (e.g. a loop stride).
    pub fn add_domain_mod(&mut self, iters: Vec<i64>, params: Vec<i64>, c: i64, modulus: i64) {
        self.domain.push((iters, params, c, DomKind::Mod(modulus)));
    }

    /// Adds one dimension of the write (defined-array) index expression.
    pub fn add_write_dim(&mut self, iters: Vec<i64>, params: Vec<i64>, c: i64) {
        self.write.push((iters, params, c));
    }

    /// Adds one dimension of the read (operand-array) index expression.
    pub fn add_read_dim(&mut self, iters: Vec<i64>, params: Vec<i64>, c: i64) {
        self.read.push((iters, params, c));
    }

    /// Builds the dependency mapping
    /// `{ [w] -> [r] : w = W(i), r = R(i), i ∈ D }` where the iteration vector
    /// `i` is existentially quantified.
    pub fn build(&self) -> Relation {
        let n_it = self.iter_names.len();
        let n_w = self.write.len();
        let n_r = self.read.len();
        let w_names: Vec<String> = (0..n_w).map(|i| format!("w{i}")).collect();
        let r_names: Vec<String> = (0..n_r).map(|i| format!("r{i}")).collect();
        let space = Space::relation(&w_names, &r_names, &self.param_names);
        let mut c = Conjunct::universe(space.clone());
        let it_base = c.add_exists(n_it);
        let n_vars = c.n_vars();

        let make = |iters: &[i64], params: &[i64], konst: i64, extra: Option<(usize, i64)>| {
            let mut e = LinExpr::zero(n_vars);
            for (j, &a) in iters.iter().enumerate() {
                e.set_coeff(it_base + j, a);
            }
            for (p, &b) in params.iter().enumerate() {
                e.set_coeff(space.col(VarKind::Param, p, n_it), b);
            }
            e.set_constant(konst);
            if let Some((col, coef)) = extra {
                e.set_coeff(col, coef);
            }
            e
        };

        for (d, (iters, params, konst)) in self.write.iter().enumerate() {
            // w_d = expr(iters)  =>  expr - w_d = 0
            let col = space.col(VarKind::In, d, n_it);
            c.add(Constraint::eq(make(iters, params, *konst, Some((col, -1)))));
        }
        for (d, (iters, params, konst)) in self.read.iter().enumerate() {
            let col = space.col(VarKind::Out, d, n_it);
            c.add(Constraint::eq(make(iters, params, *konst, Some((col, -1)))));
        }
        for (iters, params, konst, kind) in &self.domain {
            let e = make(iters, params, *konst, None);
            match kind {
                DomKind::Eq => c.add(Constraint::eq(e)),
                DomKind::Geq => c.add(Constraint::geq(e)),
                DomKind::Mod(m) => c.add(Constraint::congruent(e, *m)),
            }
        }
        c.simplify();
        Relation::from_conjuncts(space, vec![c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(s: &str) -> Relation {
        Relation::parse(s).expect("parse")
    }

    #[test]
    fn identity_and_membership() {
        let id = Relation::identity(Space::relation(&["i"], &["j"], &[]));
        assert!(id.contains(&[4], &[4], &[]));
        assert!(!id.contains(&[4], &[5], &[]));
    }

    #[test]
    fn compose_matches_paper_example() {
        // M_{C,tmp} = {[k] -> [k] : 0 <= k < 1024}
        // M_{tmp,B} = {[k] -> [2k] : 0 <= k < 1024}
        // Their join must be {[k] -> [2k] : 0 <= k < 1024}.
        let m_c_tmp = rel("{ [k] -> [k] : 0 <= k < 1024 }");
        let m_tmp_b = rel("{ [k] -> [2k] : 0 <= k < 1024 }");
        let joined = m_c_tmp.compose(&m_tmp_b).unwrap();
        assert!(joined
            .is_equal(&rel("{ [k] -> [2k] : 0 <= k < 1024 }"))
            .unwrap());
        assert!(joined.contains(&[3], &[6], &[]));
        assert!(!joined.contains(&[3], &[5], &[]));
    }

    #[test]
    fn compose_through_reindexing() {
        // {[i] -> [i+1]} ∘ {[j] -> [2j]} = {[i] -> [2i+2]}
        let a = rel("{ [i] -> [i+1] : 0 <= i < 100 }");
        let b = rel("{ [j] -> [2j] : 0 <= j < 200 }");
        let c = a.compose(&b).unwrap();
        assert!(c.contains(&[3], &[8], &[]));
        assert!(!c.contains(&[3], &[7], &[]));
        assert!(c
            .is_equal(&rel("{ [i] -> [2i+2] : 0 <= i < 100 }"))
            .unwrap());
    }

    #[test]
    fn inverse_and_domain_range() {
        let r = rel("{ [i] -> [2i] : 0 <= i < 4 }");
        let inv = r.inverse();
        assert!(inv.contains(&[6], &[3], &[]));
        let dom = r.domain();
        assert!(dom.contains(&[3], &[]));
        assert!(!dom.contains(&[4], &[]));
        let ran = r.range();
        assert!(ran.contains(&[6], &[]));
        assert!(!ran.contains(&[5], &[]));
        assert!(!ran.contains(&[8], &[]));
    }

    #[test]
    fn union_intersect_subtract() {
        let a = rel("{ [i] -> [i] : 0 <= i < 10 }");
        let b = rel("{ [i] -> [i] : 5 <= i < 15 }");
        let u = a.union(&b).unwrap();
        assert!(u.contains(&[12], &[12], &[]));
        let n = a.intersect(&b).unwrap();
        assert!(n.contains(&[7], &[7], &[]));
        assert!(!n.contains(&[2], &[2], &[]));
        let d = a.subtract(&b).unwrap();
        assert!(d.contains(&[2], &[2], &[]));
        assert!(!d.contains(&[7], &[7], &[]));
        assert!(!d.is_empty());
        assert!(a.subtract(&a).unwrap().is_empty());
    }

    #[test]
    fn equality_of_differently_written_relations() {
        let a = rel("{ [i] -> [i+i] : 0 <= i <= 9 }");
        let b = rel("{ [i] -> [2i] : 0 <= i < 10 }");
        assert!(a.is_equal(&b).unwrap());
        let c = rel("{ [i] -> [2i] : 0 <= i < 11 }");
        assert!(!a.is_equal(&c).unwrap());
        assert!(a.is_subset(&c).unwrap());
        assert!(!c.is_subset(&a).unwrap());
    }

    #[test]
    fn strided_relations_compare_exactly() {
        // even k mapped to k vs identity on all k: different.
        let even = rel("{ [k] -> [k] : exists j : k = 2j and 0 <= k < 100 }");
        let all = rel("{ [k] -> [k] : 0 <= k < 100 }");
        assert!(even.is_subset(&all).unwrap());
        assert!(!all.is_subset(&even).unwrap());
        // Same strided set expressed with a congruence.
        let even2 = rel("{ [k] -> [k] : k % 2 = 0 and 0 <= k < 100 }");
        assert!(even.is_equal(&even2).unwrap());
    }

    #[test]
    fn parameterised_relations() {
        let a = rel("[N] -> { [i] -> [2i] : 0 <= i < N }");
        let b = rel("[N] -> { [i] -> [i+i] : 0 <= i < N }");
        assert!(a.is_equal(&b).unwrap());
        let c = rel("[N] -> { [i] -> [2i] : 0 <= i <= N }");
        assert!(!a.is_equal(&c).unwrap());
        assert!(a.contains(&[3], &[6], &[10]));
        assert!(!a.contains(&[3], &[6], &[2]));
    }

    #[test]
    fn is_function_detects_functional_relations() {
        assert!(rel("{ [i] -> [2i] : 0 <= i < 10 }").is_function().unwrap());
        assert!(!rel("{ [i] -> [j] : 0 <= i < 10 and 0 <= j < 2 }")
            .is_function()
            .unwrap());
    }

    #[test]
    fn empty_relation_behaviour() {
        let e = rel("{ [i] -> [i] : i > 5 and i < 3 }");
        assert!(e.is_empty());
        let u = rel("{ [i] -> [i] : 0 <= i < 3 }");
        assert!(e.is_subset(&u).unwrap());
        assert!(!u.is_subset(&e).unwrap());
        assert!(Relation::empty(Space::relation(&["i"], &["j"], &[])).is_empty());
    }

    #[test]
    fn transitive_closure_of_shift() {
        let r = rel("{ [i] -> [i+1] : 0 <= i < 10 }");
        let (plus, exact) = r.transitive_closure().unwrap();
        assert!(exact);
        assert!(plus.contains(&[0], &[1], &[]));
        assert!(plus.contains(&[0], &[10], &[]));
        assert!(plus.contains(&[3], &[7], &[]));
        assert!(!plus.contains(&[3], &[3], &[]));
        assert!(!plus.contains(&[3], &[2], &[]));
        assert!(!plus.contains(&[0], &[11], &[]));
    }

    #[test]
    fn closure_rejects_non_uniform() {
        let r = rel("{ [i] -> [2i] : 0 <= i < 10 }");
        assert!(matches!(
            r.transitive_closure(),
            Err(OmegaError::UnsupportedClosure { .. })
        ));
    }

    #[test]
    fn reflexive_closure_includes_identity() {
        let r = rel("{ [i] -> [i+1] : 0 <= i < 10 }");
        let universe = Set::parse("{ [i] : 0 <= i <= 10 }").unwrap();
        let (star, _) = r.reflexive_transitive_closure(&universe).unwrap();
        assert!(star.contains(&[4], &[4], &[]));
        assert!(star.contains(&[4], &[9], &[]));
    }

    #[test]
    fn map_builder_constructs_dependency_mapping() {
        // Statement s2 of Fig. 1(a):  buf[2k-2] = A[2k-2] + A[k-1], 1<=k<=1024
        // Mapping to the SECOND operand A (index k-1):
        let mut b = MapBuilder::new(&["k".into()], &[]);
        b.add_domain(vec![1], vec![], -1, DomKind::Geq); // k - 1 >= 0
        b.add_domain(vec![-1], vec![], 1024, DomKind::Geq); // 1024 - k >= 0
        b.add_write_dim(vec![2], vec![], -2); // 2k - 2
        b.add_read_dim(vec![1], vec![], -1); // k - 1
        let m = b.build();
        let expected =
            rel("{ [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }");
        assert!(m.is_equal(&expected).unwrap());
        assert!(m.contains(&[0], &[0], &[]));
        assert!(m.contains(&[2], &[1], &[]));
        assert!(!m.contains(&[1], &[0], &[]));
    }

    #[test]
    fn canonical_key_is_stable_under_conjunct_order() {
        let a = rel("{ [i] -> [i] : 0 <= i < 5 }")
            .union(&rel("{ [i] -> [i] : 10 <= i < 15 }"))
            .unwrap();
        let b = rel("{ [i] -> [i] : 10 <= i < 15 }")
            .union(&rel("{ [i] -> [i] : 0 <= i < 5 }"))
            .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.structural_hash(), b.structural_hash());
    }

    #[test]
    fn structural_hash_absorbs_presentation_noise() {
        // Same set, different constraint order / scaling / equality sign.
        let a = rel("{ [i] -> [2i] : 0 <= i and i < 10 }");
        let b = rel("{ [i] -> [2i] : i < 10 and 0 <= i }");
        assert_eq!(a.structural_hash(), b.structural_hash());
        // Different relations must (modulo 64-bit luck) hash apart.
        let c = rel("{ [i] -> [2i] : 0 <= i and i < 11 }");
        assert_ne!(a.structural_hash(), c.structural_hash());
        let d = rel("{ [i] -> [3i] : 0 <= i and i < 10 }");
        assert_ne!(a.structural_hash(), d.structural_hash());
    }

    #[test]
    fn structural_hash_is_cached_and_reset_on_mutation() {
        let a = rel("{ [i] -> [i] : 0 <= i < 5 }");
        let h1 = a.structural_hash();
        assert_eq!(a.structural_hash(), h1);
        // A clone carries the computed hash along.
        assert_eq!(a.clone().structural_hash(), h1);
        // Mutation invalidates the cache.
        let mut grown = a.clone();
        let extra = rel("{ [i] -> [i] : 10 <= i < 15 }");
        grown.add_conjunct(extra.conjuncts()[0].clone());
        assert_ne!(grown.structural_hash(), h1);
    }

    #[test]
    fn equal_relations_hash_equal_even_when_only_one_cache_is_warm() {
        let a = rel("{ [i] -> [i+1] : 0 <= i < 7 }");
        let b = rel("{ [i] -> [i+1] : 0 <= i < 7 }");
        let _ = a.structural_hash(); // warm only a's cache
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let digest = |r: &Relation| {
            let mut s = DefaultHasher::new();
            r.hash(&mut s);
            s.finish()
        };
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn sample_point_returns_a_member() {
        let r = rel("{ [i] -> [2i] : 3 <= i < 10 }");
        let s = r.sample_point().expect("non-empty");
        assert!(r.contains(&s.input, &s.output, &s.params));
        assert_eq!(s.output[0], 2 * s.input[0]);
        assert!(rel("{ [i] -> [i] : i > 5 and i < 3 }")
            .sample_point()
            .is_none());
    }

    #[test]
    fn sample_point_handles_strides_and_existentials() {
        let r = rel("{ [k] -> [k] : exists j : k = 2j and 10 <= k < 13 }");
        let s = r.sample_point().expect("k = 10 or 12");
        assert!(s.input[0] == 10 || s.input[0] == 12);
        let m = rel("{ [k] -> [k] : k % 3 = 1 and 0 <= k < 9 }");
        let s = m.sample_point().expect("k in {1,4,7}");
        assert_eq!(s.input[0].rem_euclid(3), 1);
    }

    #[test]
    fn sample_point_picks_params_too() {
        let r = rel("[N] -> { [i] -> [2i] : 0 <= i < N }");
        let s = r.sample_point().expect("choose N >= 1");
        assert!(r.contains(&s.input, &s.output, &s.params));
        assert!(s.params[0] > s.input[0]);
    }

    #[test]
    fn sample_point_tries_every_conjunct() {
        let empty_first = rel("{ [i] -> [i] : i > 5 and i < 3 }")
            .union(&rel("{ [i] -> [i] : 7 <= i <= 7 }"))
            .unwrap();
        let s = empty_first.sample_point().expect("second disjunct");
        assert_eq!(s.input, vec![7]);
    }

    #[test]
    fn set_sampling_and_point_removal() {
        let s = Set::parse("{ [k] : k % 2 = 0 and 0 <= k < 6 }").unwrap();
        let mut remaining = s.clone();
        let mut seen = Vec::new();
        while let Some((p, _params)) = remaining.sample_point() {
            assert!(s.contains(&p, &[]));
            assert!(!seen.contains(&p[0]), "points must be distinct");
            seen.push(p[0]);
            remaining = remaining.without_point(&p).unwrap();
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 2, 4]);
    }

    #[test]
    fn restrict_and_apply() {
        let r = rel("{ [i] -> [2i] : 0 <= i < 100 }");
        let s = Set::parse("{ [i] : 3 <= i <= 5 }").unwrap();
        let img = r.apply(&s).unwrap();
        assert!(img.contains(&[6], &[]));
        assert!(img.contains(&[10], &[]));
        assert!(!img.contains(&[12], &[]));
        assert!(!img.contains(&[7], &[]));
    }
}
