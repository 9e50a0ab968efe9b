//! Conjunctions of affine constraints with local existential variables.

use crate::constraint::{Constraint, ConstraintKind};
use crate::events::{note_arith_overflow, solver_events};
use crate::feasible::{find_model, is_feasible, Feasibility, ModelOutcome};
use crate::hash::{combine_unordered, structural_hash_of, StructuralHasher};
use crate::linexpr::{gcd, LinExpr};
use crate::space::{Space, VarKind};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// Upper bound on the conjunct-level feasibility memo; when reached the memo
/// is cleared wholesale (an epoch eviction — cheap, and the working set of a
/// single checker run refills quickly).
const FEASIBILITY_MEMO_CAP: usize = 1 << 15;

thread_local! {
    /// Memo of exact feasibility verdicts keyed by structural hash: the one
    /// feasibility memo, per thread.
    ///
    /// The `simplified` / `subtract` / `is_subset` chains of the relation
    /// algebra re-derive structurally identical conjuncts over and over (the
    /// same bounds re-emerge after every compose/restrict), and each used to
    /// pay for a full Omega-test run.  The canonical structural hash makes
    /// those repeats a single map probe.  Verdicts are facts about the
    /// conjunct alone, so the memo lives as long as its thread, across
    /// checker runs and engines, until [`FEASIBILITY_MEMO_CAP`] clears it.
    /// In debug builds the canonical constraint system is stored alongside
    /// the verdict and compared on every hit: a hit whose system differs is a
    /// 64-bit collision and counts as a miss, so the verdict is recomputed
    /// and overwrites the entry. Release builds trust the hash.
    static FEASIBILITY_MEMO: RefCell<HashMap<u64, MemoEntry>> = RefCell::new(HashMap::new());
}

#[cfg(debug_assertions)]
type MemoEntry = (Feasibility, Vec<Constraint>, usize);
#[cfg(not(debug_assertions))]
type MemoEntry = Feasibility;

/// Running counters for the feasibility memo of this thread:
/// `(hits, misses)`, never reset.  Exposed for the benchmark harness, which
/// records the memo's hits and lookups per traced request.
pub fn feasibility_memo_stats() -> (u64, u64) {
    FEASIBILITY_MEMO_STATS.with(|s| *s.borrow())
}

thread_local! {
    static FEASIBILITY_MEMO_STATS: RefCell<(u64, u64)> = const { RefCell::new((0, 0)) };
}

/// A conjunction of [`Constraint`]s over a [`Space`], possibly with local
/// existentially-quantified variables.
///
/// A conjunct denotes the set of (input-tuple, output-tuple, parameter)
/// points for which *some* assignment of the existential variables satisfies
/// every constraint.  Strided iteration domains (`for (k = 0; k < N; k += 2)`)
/// and the intermediate tuples introduced by relation composition are the two
/// sources of existentials in this crate; the simplifier converts the former
/// into congruence constraints and eliminates the latter whenever the
/// elimination is exact.
///
/// Columns of every constraint are laid out as
/// `[input dims | output dims | parameters | existentials]` followed by the
/// constant term; see [`Space`] for the global part.
#[derive(Clone)]
pub struct Conjunct {
    space: Space,
    n_exists: usize,
    constraints: Vec<Constraint>,
    /// Whether [`Conjunct::simplify`] left the constraints in canonical
    /// form and nothing has changed them since; `simplify` then returns at
    /// once.
    simplified: bool,
    /// Lazily computed [`Conjunct::structural_hash`], carried by clones.
    hash_cache: OnceLock<u64>,
}

// `simplified` and `hash_cache` are derived from the other fields: equality,
// hashing and the debug rendering see only the semantic fields, as they do
// for `Relation`'s hash cache.
impl PartialEq for Conjunct {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.n_exists == other.n_exists
            && self.constraints == other.constraints
    }
}

impl Eq for Conjunct {}

impl Hash for Conjunct {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.space.hash(state);
        self.n_exists.hash(state);
        self.constraints.hash(state);
    }
}

impl fmt::Debug for Conjunct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Conjunct")
            .field("space", &self.space)
            .field("n_exists", &self.n_exists)
            .field("constraints", &self.constraints)
            .finish()
    }
}

impl Conjunct {
    /// A conjunct with no cached facts.
    fn new(space: Space, n_exists: usize, constraints: Vec<Constraint>) -> Conjunct {
        Conjunct {
            space,
            n_exists,
            constraints,
            simplified: false,
            hash_cache: OnceLock::new(),
        }
    }

    /// The universe conjunct (no constraints) over `space`.
    pub fn universe(space: Space) -> Self {
        Conjunct::new(space, 0, Vec::new())
    }

    /// Forgets the cached facts; every method that changes the constraints
    /// or the existentials calls it.
    fn invalidate(&mut self) {
        self.simplified = false;
        self.hash_cache.take();
    }

    /// The space this conjunct is defined over.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Number of local existential variables.
    pub fn n_exists(&self) -> usize {
        self.n_exists
    }

    /// Total number of variable columns (globals plus existentials).
    pub fn n_vars(&self) -> usize {
        self.space.n_global() + self.n_exists
    }

    /// The constraints of this conjunct.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Column index of dimension `idx` of `kind`.
    pub fn col(&self, kind: VarKind, idx: usize) -> usize {
        self.space.col(kind, idx, self.n_exists)
    }

    /// A fresh zero linear expression with this conjunct's column count.
    pub fn zero_expr(&self) -> LinExpr {
        LinExpr::zero(self.n_vars())
    }

    /// A linear expression selecting dimension `idx` of `kind`.
    pub fn var_expr(&self, kind: VarKind, idx: usize) -> LinExpr {
        LinExpr::var(self.n_vars(), self.col(kind, idx))
    }

    /// Adds a constraint.
    ///
    /// # Panics
    ///
    /// Panics if the constraint's column count does not match this conjunct.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(
            c.n_vars(),
            self.n_vars(),
            "constraint has wrong number of columns"
        );
        self.invalidate();
        self.constraints.push(c);
    }

    /// Adds `count` existential variables and returns the column index of the
    /// first new one.  Existing constraints are padded with zero columns.
    pub fn add_exists(&mut self, count: usize) -> usize {
        self.invalidate();
        let first = self.n_vars();
        self.n_exists += count;
        for c in &mut self.constraints {
            *c = c.extended(count);
        }
        first
    }

    /// Whether the conjunct contains the given point, where `point` lists the
    /// values of all *global* columns (inputs, then outputs, then parameters).
    ///
    /// Existential variables are handled by the exact feasibility test, so
    /// this is a decision, not a heuristic.
    ///
    /// # Panics
    ///
    /// Panics if `point.len()` differs from the number of global columns.
    pub fn contains(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.space.n_global(), "wrong point arity");
        if self.n_exists == 0 {
            // Quantifier-free: evaluate each constraint directly against the
            // point — no clones, no allocation, no solver.
            return self.constraints.iter().all(|c| c.holds(point));
        }
        // Residualise every constraint onto the existential columns: the
        // global columns are fixed by `point`, so their contribution folds
        // into the constant.  The resulting system is tiny (existentials
        // only) and goes straight to the feasibility test.
        let mut cs: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            let mut e = LinExpr::zero(self.n_exists);
            let global = self.space.n_global();
            for ex in 0..self.n_exists {
                e.set_coeff(ex, c.expr().coeff(global + ex));
            }
            let folded = match c.expr().try_eval_prefix(point) {
                Ok(v) => v,
                Err(_) => {
                    // The folded constant does not fit i64: report "outside"
                    // conservatively and note the degraded answer so the
                    // enclosing verdict becomes inconclusive.
                    note_arith_overflow();
                    return false;
                }
            };
            e.set_constant(folded);
            cs.push(match c.kind() {
                ConstraintKind::Eq => Constraint::eq(e),
                ConstraintKind::Geq => Constraint::geq(e),
                ConstraintKind::Mod => Constraint::congruent(e, c.modulus()),
            });
        }
        decide_with_fallback(&cs, self.n_exists).as_bool()
    }

    /// Whether the conjunct has at least one integer point (for some value of
    /// the parameters).
    ///
    /// Verdicts are memoised per thread, keyed by the conjunct's
    /// [`structural_hash`](Conjunct::structural_hash): the relation algebra
    /// (`simplified(true)`, `subtract`, `is_subset`) issues the same
    /// emptiness queries for structurally identical conjuncts many times per
    /// traversal, and only the first run on a thread pays for the Omega test.
    pub fn is_feasible(&self) -> bool {
        let key = self.structural_hash();
        let cached = FEASIBILITY_MEMO.with(|m| {
            #[cfg(debug_assertions)]
            {
                // A hit on another conjunct's system is a collision: a miss,
                // whose verdict replaces the entry below.
                m.borrow().get(&key).and_then(|(f, canon, n)| {
                    (*canon == self.canonical_constraints() && *n == self.n_vars()).then_some(*f)
                })
            }
            #[cfg(not(debug_assertions))]
            {
                m.borrow().get(&key).copied()
            }
        });
        if let Some(f) = cached {
            FEASIBILITY_MEMO_STATS.with(|s| s.borrow_mut().0 += 1);
            return f.as_bool();
        }
        FEASIBILITY_MEMO_STATS.with(|s| s.borrow_mut().1 += 1);
        // Memo hits deliberately get no span: they are nanosecond-scale and
        // would flood the trace. Only the actual Omega-test compute is timed.
        let _span = arrayeq_trace::span_with("feasibility", || {
            vec![
                arrayeq_trace::u("constraints", self.constraints.len() as u64),
                arrayeq_trace::u("vars", self.n_vars() as u64),
            ]
        });
        let f = decide_with_fallback(&self.constraints, self.n_vars());
        // Overflow-degraded verdicts are *never* memoised: the conservative
        // "feasible" stands for "unknown", and caching it would let one
        // overflow-afflicted query poison every structurally identical query
        // for the lifetime of the memo — even ones issued by a checker run
        // that would have reported the overflow as a typed inconclusive
        // verdict.
        if f != Feasibility::Overflow {
            FEASIBILITY_MEMO.with(|m| {
                let mut m = m.borrow_mut();
                if m.len() >= FEASIBILITY_MEMO_CAP {
                    m.clear();
                }
                #[cfg(debug_assertions)]
                m.insert(key, (f, self.canonical_constraints(), self.n_vars()));
                #[cfg(not(debug_assertions))]
                m.insert(key, f);
            });
        }
        f.as_bool()
    }

    /// Returns a concrete integer point of this conjunct — values for every
    /// *global* column (inputs, then outputs, then parameters) — or `None`
    /// when the conjunct is empty (or the solver's work limit was hit).
    ///
    /// The point is produced by the Omega test's model extraction
    /// ([`crate::Relation::sample_point`] documents the semantics): the same
    /// elimination order as the feasibility decision, with the witness
    /// reconstructed by back-substitution, so congruences, existential
    /// variables and dark-shadow/splinter cases are all handled exactly.
    /// Every returned point satisfies [`Conjunct::contains`].
    pub fn sample_point(&self) -> Option<Vec<i64>> {
        match find_model(&self.constraints, self.n_vars()) {
            ModelOutcome::Model(m) => {
                let point = m[..self.space.n_global()].to_vec();
                debug_assert!(
                    {
                        let (member, events) = solver_events(|| self.contains(&point));
                        member || events.degraded
                    },
                    "sample_point produced a point outside the conjunct"
                );
                Some(point)
            }
            ModelOutcome::Infeasible | ModelOutcome::Unknown => None,
        }
    }

    /// The canonical constraint list: existential columns renamed into their
    /// canonical order (sorted by a signature of the constraints each
    /// appears in), every constraint normalised (gcd-reduced,
    /// sign-canonicalised),
    /// trivially-true constraints dropped, sorted and deduplicated.  Two
    /// conjuncts whose constraint lists are permutations, duplications,
    /// gcd-scalings *or existential renamings* of each other share one
    /// canonical list.
    pub fn canonical_constraints(&self) -> Vec<Constraint> {
        let remap = self.canonical_exists_order().filter(|order| {
            // Skip the remap when the canonical order is the given order.
            order.iter().enumerate().any(|(new, &old)| new != old)
        });
        let mut cs: Vec<Constraint> = match remap {
            Some(order) => {
                let global = self.space.n_global();
                let n_vars = self.n_vars();
                let mut map: Vec<usize> = (0..n_vars).collect();
                for (new_pos, &old_e) in order.iter().enumerate() {
                    map[global + old_e] = global + new_pos;
                }
                self.constraints
                    .iter()
                    .map(|c| c.remapped(&map, n_vars).normalized())
                    .filter(|c| c.trivial() != Some(true))
                    .collect()
            }
            None => self
                .constraints
                .iter()
                .map(Constraint::normalized)
                .filter(|c| c.trivial() != Some(true))
                .collect(),
        };
        cs.sort_unstable();
        cs.dedup();
        cs
    }

    /// The canonical order of the existential columns, as the list of old
    /// existential indices in their new order — or `None` when fewer than
    /// two existentials leave nothing to permute.
    ///
    /// Existential variables are anonymous, so two structurally identical
    /// dependency mappings can reach the checker with their existential
    /// columns in different orders (composition concatenates the
    /// existentials of both operands in operand order; differently-written
    /// iterator nests introduce them in program order).  To make
    /// [`Conjunct::structural_hash`] invariant under that renaming, each
    /// existential gets a *signature* — a digest of the constraints it
    /// appears in, seen through column-order-insensitive lenses, refined
    /// Weisfeiler–Lehman-style so mutually-referencing existentials
    /// separate — and columns are sorted by signature (ties keep the given
    /// order, which can only cost a missed table hit, never a wrong one:
    /// the hash is always computed from one concrete renamed system).
    fn canonical_exists_order(&self) -> Option<Vec<usize>> {
        if self.n_exists < 2 {
            return None;
        }
        let global = self.space.n_global();
        let n = self.n_exists;
        let mut sig = vec![0u64; n];
        let mut next = vec![0u64; n];
        // Round 0 uses no neighbour signatures; each refinement round folds
        // the previous round's signatures of co-occurring existentials in.
        // One refinement separates every chain this crate builds (two for
        // larger existential sets); the multisets of lenses / neighbour
        // digests are folded with wrapping addition — commutative, so
        // order-insensitive without the sort-and-allocate of
        // `combine_unordered` on what is the `is_feasible` hot path.
        let refinements = if n <= 3 { 1 } else { 2 };
        for round in 0..=refinements {
            for (e, slot) in next.iter_mut().enumerate() {
                let col = global + e;
                let mut lens_acc = 0u64;
                let mut lens_count = 0u64;
                for c in &self.constraints {
                    let a = c.expr().coeff(col);
                    if a == 0 {
                        continue;
                    }
                    // Equalities and congruences are sign-symmetric; viewing
                    // each through the sign of this column's coefficient
                    // keeps the lens stable across `e - f = 0` vs
                    // `f - e = 0` presentations.
                    let s = match c.kind() {
                        ConstraintKind::Geq => 1,
                        _ => a.signum(),
                    };
                    let mut h = StructuralHasher::new();
                    let kind_tag = match c.kind() {
                        ConstraintKind::Eq => 0u8,
                        ConstraintKind::Geq => 1,
                        ConstraintKind::Mod => 2,
                    };
                    let modulus = match c.kind() {
                        ConstraintKind::Mod => c.modulus(),
                        _ => 0,
                    };
                    // Hash-only arithmetic: wrapping is fine here (the lens
                    // just needs determinism, `-i64::MIN` included).
                    (kind_tag, modulus, s.wrapping_mul(a)).hash(&mut h);
                    for g in 0..global {
                        s.wrapping_mul(c.expr().coeff(g)).hash(&mut h);
                    }
                    s.wrapping_mul(c.expr().constant()).hash(&mut h);
                    let mut neigh_acc = 0u64;
                    for o in (0..n).filter(|&o| o != e) {
                        let coeff = c.expr().coeff(global + o);
                        if coeff != 0 {
                            let prev = if round == 0 { 0 } else { sig[o] };
                            neigh_acc = neigh_acc
                                .wrapping_add(structural_hash_of(&(s.wrapping_mul(coeff), prev)));
                        }
                    }
                    h.write_u64(neigh_acc);
                    lens_acc = lens_acc.wrapping_add(h.finish());
                    lens_count += 1;
                }
                *slot = structural_hash_of(&(lens_acc, lens_count));
            }
            std::mem::swap(&mut sig, &mut next);
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&e| (sig[e], e));
        Some(order)
    }

    /// Whether the two conjuncts have one canonical form: equal space
    /// arities, equally many existentials and equal
    /// [`canonical_constraints`](Conjunct::canonical_constraints) — what
    /// [`structural_hash`](Conjunct::structural_hash) digests.  This is
    /// what confirms that two conjuncts with one structural hash are one
    /// conjunct.
    pub(crate) fn same_canonical_form(&self, other: &Conjunct) -> bool {
        self == other
            || (self.space.arities() == other.space.arities()
                && self.n_exists == other.n_exists
                && self.canonical_constraints() == other.canonical_constraints())
    }

    /// A stable 64-bit hash of the canonical structural form.
    ///
    /// Invariant under constraint permutation, duplication, gcd scaling
    /// (everything [`Constraint::normalized`] folds away) *and* renaming of
    /// the existential columns (the canonical order of
    /// [`canonical_constraints`](Conjunct::canonical_constraints));
    /// sensitive to the space arities, the number of existentials and every
    /// surviving canonical constraint.  Equal conjuncts — and conjuncts that
    /// differ only by those cosmetic presentation choices — hash
    /// identically; the converse holds up to 64-bit collisions, which DNF
    /// dedup and the debug-build feasibility memo confirm by
    /// [`canonical_constraints`](Conjunct::canonical_constraints).
    ///
    /// Computed once and cached; clones carry the cached value, and every
    /// method that changes the constraints or the existentials drops it.
    pub fn structural_hash(&self) -> u64 {
        let hash = *self
            .hash_cache
            .get_or_init(|| self.compute_structural_hash());
        debug_assert_eq!(
            hash,
            self.compute_structural_hash(),
            "a cached structural hash outlived a change of its conjunct"
        );
        hash
    }

    fn compute_structural_hash(&self) -> u64 {
        // With zero or one existential there is nothing to rename, so the
        // cheap per-constraint path (no remapping clone) is exact.
        let per_constraint: Vec<u64> = if self.n_exists >= 2 {
            self.canonical_constraints()
                .iter()
                .map(structural_hash_of)
                .collect()
        } else {
            self.constraints
                .iter()
                .map(Constraint::normalized)
                .filter(|c| c.trivial() != Some(true))
                .map(|c| structural_hash_of(&c))
                .collect()
        };
        let salt = structural_hash_of(&(
            self.space.n_in(),
            self.space.n_out(),
            self.space.n_param(),
            self.n_exists,
        ));
        combine_unordered(per_constraint, salt)
    }

    /// Intersects two conjuncts over compatible spaces.  The result keeps
    /// `self`'s space (dimension names) and concatenates the existentials.
    pub fn intersect(&self, other: &Conjunct) -> Conjunct {
        assert!(
            self.space.is_compatible(other.space()),
            "intersect: incompatible spaces"
        );
        let mut result = self.clone();
        // Drops the cached facts, which the pushes below would outdate.
        let offset = result.add_exists(other.n_exists);
        let n_new = result.n_vars();
        // Map other's columns into result's columns.
        let mut map = Vec::with_capacity(other.n_vars());
        for col in 0..other.space.n_global() {
            map.push(col);
        }
        for e in 0..other.n_exists {
            map.push(offset + e);
        }
        for c in other.constraints() {
            result.constraints.push(c.remapped(&map, n_new));
        }
        result
    }

    /// Returns the conjunct with input and output dims swapped (inverse).
    pub fn reversed(&self) -> Conjunct {
        let new_space = self.space.reversed();
        let n_in = self.space.n_in();
        let n_out = self.space.n_out();
        let n_param = self.space.n_param();
        let mut map = Vec::with_capacity(self.n_vars());
        // old input i  -> new output i (columns shift by new n_in = old n_out)
        for i in 0..n_in {
            map.push(n_out + i);
        }
        // old output j -> new input j
        for j in 0..n_out {
            map.push(j);
        }
        for p in 0..n_param {
            map.push(n_in + n_out + p);
        }
        for e in 0..self.n_exists {
            map.push(n_in + n_out + n_param + e);
        }
        let constraints = self
            .constraints
            .iter()
            .map(|c| c.remapped(&map, self.n_vars()))
            .collect();
        Conjunct::new(new_space, self.n_exists, constraints)
    }

    /// Projects the conjunct onto its input dims (for a relation: the domain;
    /// for a set this is the identity).  Output dims become existentials.
    pub fn domain(&self) -> Conjunct {
        let n_in = self.space.n_in();
        let n_out = self.space.n_out();
        let n_param = self.space.n_param();
        let new_space = self.space.domain_space();
        // New layout: [in | params | old outs (as exists) | old exists]
        let mut map = Vec::with_capacity(self.n_vars());
        for i in 0..n_in {
            map.push(i);
        }
        for j in 0..n_out {
            map.push(n_in + n_param + j);
        }
        for p in 0..n_param {
            map.push(n_in + p);
        }
        for e in 0..self.n_exists {
            map.push(n_in + n_param + n_out + e);
        }
        let constraints = self
            .constraints
            .iter()
            .map(|c| c.remapped(&map, self.n_vars()))
            .collect();
        let mut out = Conjunct::new(new_space, n_out + self.n_exists, constraints);
        out.simplify();
        out
    }

    /// Projects the conjunct onto its output dims (the range of a relation).
    pub fn range(&self) -> Conjunct {
        self.reversed().domain()
    }

    /// Simplifies the conjunct in place:
    ///
    /// * normalises every constraint;
    /// * turns matching `e ≥ 0 ∧ −e ≥ 0` pairs into equalities;
    /// * eliminates existential variables when the elimination is exact
    ///   (unit-coefficient equalities, single-occurrence equalities via
    ///   congruences, single-occurrence congruences, variables unconstrained
    ///   or bounded on only one side, unit-coefficient Fourier–Motzkin);
    /// * drops duplicate and trivially-true constraints.
    ///
    /// Returns `false` when a constraint is *syntactically* recognised as
    /// unsatisfiable (e.g. `0 ≥ 1`); the conjunct may still be empty even when
    /// `true` is returned — use [`Conjunct::is_feasible`] for the decision.
    ///
    /// A conjunct that returned `true` is marked simplified, and a second
    /// call returns `true` at once, until a method that changes the
    /// constraints or the existentials clears the mark.
    pub fn simplify(&mut self) -> bool {
        if self.is_simplified() {
            return true;
        }
        self.invalidate();
        loop {
            let mut changed = false;

            // 1. Normalise, drop trivially-true, detect trivially-false.
            let mut new_constraints = Vec::with_capacity(self.constraints.len());
            for c in &self.constraints {
                let n = c.normalized();
                match n.trivial() {
                    Some(true) => {
                        changed = true;
                        continue;
                    }
                    Some(false) => {
                        self.constraints = vec![n];
                        return false;
                    }
                    None => new_constraints.push(n),
                }
            }
            self.constraints = new_constraints;

            // 2. Opposite inequalities -> equality.
            changed |= self.promote_equalities();

            // 3. Try to eliminate each existential column.
            if self.eliminate_one_existential() {
                changed = true;
            }

            // 4. Dedup (structural order — no textual rendering involved).
            let before = self.constraints.len();
            self.constraints.sort_unstable();
            self.constraints.dedup();
            changed |= self.constraints.len() != before;

            // 5. Constraint-level subsumption: among inequalities sharing a
            // coefficient vector only the tightest can bind, and an equality
            // over the same (or negated) vector decides such inequalities
            // outright.
            changed |= self.drop_dominated_inequalities();

            if !changed {
                debug_assert!(
                    self.is_canonical(),
                    "simplify ended in a non-canonical form"
                );
                self.simplified = true;
                return true;
            }
        }
    }

    /// Whether [`Conjunct::simplify`] left this conjunct in canonical form
    /// and nothing has changed it since; debug builds check the form on
    /// every call.
    fn is_simplified(&self) -> bool {
        debug_assert!(
            !self.simplified || self.is_canonical(),
            "a conjunct marked simplified is not in canonical form"
        );
        self.simplified
    }

    /// The form [`Conjunct::simplify`] leaves the constraints in: each
    /// equals its normalised form, none is trivially true, and the list is
    /// strictly ascending.
    fn is_canonical(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| *c == c.normalized() && c.trivial() != Some(true))
            && self.constraints.windows(2).all(|w| w[0] < w[1])
    }

    /// This conjunct simplified: borrowed when [`Conjunct::simplify`]
    /// already left it so, a simplified clone otherwise, and `None` when
    /// simplification finds it syntactically empty.
    pub(crate) fn simplified(&self) -> Option<Cow<'_, Conjunct>> {
        if self.is_simplified() {
            return Some(Cow::Borrowed(self));
        }
        let mut c = self.clone();
        c.simplify().then_some(Cow::Owned(c))
    }

    /// Drops inequalities implied by a sibling constraint over the same
    /// coefficient vector: `a·x + c₁ ≥ 0` absorbs `a·x + c₂ ≥ 0` when
    /// `c₂ ≥ c₁`, and `a·x + c₁ = 0` (or its negation) decides both
    /// directions.  Constraints are assumed normalised (step 1 of
    /// [`Conjunct::simplify`] guarantees it), so coefficient vectors are
    /// primitive and directly comparable.  Returns whether anything changed.
    fn drop_dominated_inequalities(&mut self) -> bool {
        let n = self.constraints.len();
        if n < 2 {
            return false;
        }
        let mut drop = vec![false; n];
        for i in 0..n {
            if drop[i] || self.constraints[i].kind() != ConstraintKind::Geq {
                continue;
            }
            for j in 0..n {
                if i == j || drop[j] {
                    continue;
                }
                let (s, o) = (&self.constraints[i], &self.constraints[j]);
                // i128 spreads: constants near i64::MIN/MAX must not wrap.
                let (sc, oc) = (s.expr().constant() as i128, o.expr().constant() as i128);
                let implied = match o.kind() {
                    ConstraintKind::Geq => {
                        same_coeffs(o.expr(), s.expr()) && (oc < sc || (oc == sc && j < i))
                    }
                    ConstraintKind::Eq => {
                        (same_coeffs(o.expr(), s.expr()) && sc - oc >= 0)
                            || (opposite_coeffs(o.expr(), s.expr()) && sc + oc >= 0)
                    }
                    ConstraintKind::Mod => false,
                };
                if implied {
                    drop[i] = true;
                    break;
                }
            }
        }
        if drop.iter().any(|&d| d) {
            let mut it = drop.iter();
            self.constraints
                .retain(|_| !*it.next().expect("mask length"));
            true
        } else {
            false
        }
    }

    /// Whether `other` is provably a subset of `self`, decided syntactically
    /// (no solver call): `self` must be quantifier-free and every canonical
    /// constraint of `self` must be implied by a single constraint of
    /// `other` — verbatim, as a looser inequality over the same coefficient
    /// vector, or via an equality that pins that vector.  False negatives
    /// are allowed (and common); a `true` is always sound.  Used by the DNF
    /// coalescing pass to drop redundant disjuncts.
    pub fn subsumes(&self, other: &Conjunct) -> bool {
        if !self.space.is_compatible(other.space()) || self.n_exists != 0 {
            return false;
        }
        let mine = self.canonical_constraints();
        if mine.is_empty() {
            return true; // the universe subsumes everything
        }
        let theirs: Vec<Constraint> = other
            .constraints
            .iter()
            .map(Constraint::normalized)
            .filter(|c| c.trivial() != Some(true))
            .collect();
        mine.iter().all(|s| {
            // Zero-extend over other's existentials: a constraint without
            // existential columns holds at every point of `other` iff some
            // constraint of `other` implies it.
            let s = s.extended(other.n_exists);
            theirs.iter().any(|o| constraint_implies(o, &s))
        })
    }

    /// Removes constraints implied by the *remaining* constraints of this
    /// conjunct (each candidate is implied iff every negation piece of it is
    /// infeasible against the rest) — the self-gist that renders witnessed
    /// domains minimally.  Set-preserving by construction, so sampling and
    /// membership are unaffected.  Quantifier-free conjuncts only (a no-op
    /// otherwise); congruences with large moduli are skipped (their negation
    /// fans out into `m − 1` pieces).
    ///
    /// The redundancy probes run the solver in their own scope, whose
    /// degraded answers are withdrawn (the probes are cosmetic — dropping a
    /// constraint never changes the set — so they must not degrade the
    /// enclosing verdict).
    pub fn drop_redundant(&mut self) {
        if self.n_exists != 0 || self.constraints.len() < 2 {
            return;
        }
        solver_events(|| {
            self.drop_implied();
            crate::events::withdraw_degraded();
        });
    }

    /// Removes, one at a time and while at least two constraints remain,
    /// every constraint implied by the remaining ones (it is implied iff
    /// every negation piece of it is infeasible against them).  Congruences
    /// with large moduli are skipped: their negation fans out into `m − 1`
    /// pieces.
    fn drop_implied(&mut self) {
        let mut i = 0;
        while i < self.constraints.len() && self.constraints.len() >= 2 {
            let c = &self.constraints[i];
            if c.kind() == ConstraintKind::Mod && c.modulus() > 16 {
                i += 1;
                continue;
            }
            let rest: Vec<Constraint> = self
                .constraints
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c.clone())
                .collect();
            let implied = self.constraints[i].negated().into_iter().all(|neg| {
                let mut probe = Conjunct::from_parts(
                    self.space.clone(),
                    0,
                    rest.iter().cloned().chain(std::iter::once(neg)).collect(),
                );
                !(probe.simplify() && probe.is_feasible())
            });
            if implied {
                self.invalidate();
                self.constraints.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Replaces `e ≥ 0 ∧ −e ≥ 0` pairs by `e = 0`.  Returns whether anything
    /// changed.
    fn promote_equalities(&mut self) -> bool {
        let mut changed = false;
        let mut i = 0;
        while i < self.constraints.len() {
            if self.constraints[i].kind() != ConstraintKind::Geq {
                i += 1;
                continue;
            }
            // A non-negatable expression (i64::MIN entry) simply keeps its
            // inequality pair un-promoted — a cosmetic miss, not an error.
            let neg = match self.constraints[i].expr().try_scale(-1) {
                Ok(neg) => neg,
                Err(_) => {
                    i += 1;
                    continue;
                }
            };
            if let Some(j) =
                self.constraints.iter().enumerate().position(|(k, c)| {
                    k != i && c.kind() == ConstraintKind::Geq && *c.expr() == neg
                })
            {
                let expr = self.constraints[i].expr().clone();
                let (lo, hi) = (i.min(j), i.max(j));
                self.constraints.remove(hi);
                self.constraints.remove(lo);
                self.constraints.push(Constraint::eq(expr));
                changed = true;
                // restart scan
                i = 0;
            } else {
                i += 1;
            }
        }
        changed
    }

    /// Attempts to eliminate a single existential column exactly; returns
    /// whether one was eliminated.
    fn eliminate_one_existential(&mut self) -> bool {
        let global = self.space.n_global();
        for e in 0..self.n_exists {
            let col = global + e;
            let users: Vec<usize> = (0..self.constraints.len())
                .filter(|&i| self.constraints[i].uses(col))
                .collect();

            // Unused column: just drop it.
            if users.is_empty() {
                self.remove_exists_col(e);
                return true;
            }

            // Unit-coefficient equality: substitute everywhere.  Every
            // rewrite is validated (checked arithmetic) before the system is
            // replaced; if any substitution would overflow the elimination is
            // skipped wholesale, leaving the original — still exact — system.
            if let Some(&i) = users.iter().find(|&&i| {
                self.constraints[i].kind() == ConstraintKind::Eq
                    && self.constraints[i].expr().coeff(col).unsigned_abs() == 1
            }) {
                let eq = self.constraints[i].clone();
                let a = eq.expr().coeff(col);
                let mut value = eq.expr().clone();
                value.set_coeff(col, 0);
                if value.try_scale_assign(-a).is_ok() {
                    let mut next = Vec::with_capacity(self.constraints.len() - 1);
                    let mut ok = true;
                    for (j, c) in self.constraints.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        let mut expr = c.expr().clone();
                        if expr.try_substitute_assign(col, &value).is_err() {
                            ok = false;
                            break;
                        }
                        next.push(match c.kind() {
                            ConstraintKind::Eq => Constraint::eq(expr),
                            ConstraintKind::Geq => Constraint::geq(expr),
                            ConstraintKind::Mod => Constraint::congruent(expr, c.modulus()),
                        });
                    }
                    if ok {
                        self.constraints = next;
                        self.remove_exists_col(e);
                        return true;
                    }
                }
            }

            // Equality with a non-unit coefficient: ∃e: a·e + f = 0 pins
            // e = −f/a, so every other constraint g + b·e (op) 0 can be
            // scaled by |a| > 0 and rewritten as |a|·g − sign(a)·b·f (op) 0
            // (with the modulus also scaled for congruences), plus the
            // divisibility condition f ≡ 0 (mod |a|).  This is exact.
            if let Some(&i) = users.iter().find(|&&i| {
                self.constraints[i].kind() == ConstraintKind::Eq
                    && self.constraints[i].expr().coeff(col) != 0
            }) {
                let eq = self.constraints[i].clone();
                let a = eq.expr().coeff(col);
                let mut f = eq.expr().clone();
                f.set_coeff(col, 0);
                // Checked throughout: scaling by |a| and folding in b·f can
                // overflow on adversarial coefficients, in which case the
                // elimination is abandoned and the exact original kept.
                if let Some(abs_a) = a.checked_abs() {
                    let rewritten = (|| -> Option<Vec<Constraint>> {
                        let mut next = Vec::with_capacity(self.constraints.len());
                        for (j, c) in self.constraints.iter().enumerate() {
                            if j == i {
                                continue;
                            }
                            let b = c.expr().coeff(col);
                            if b == 0 {
                                next.push(c.clone());
                                continue;
                            }
                            // |a|·g  with the b·e term removed, then − sign(a)·b·f.
                            let mut scaled = c.expr().clone();
                            scaled.set_coeff(col, 0);
                            scaled.try_scale_assign(abs_a).ok()?;
                            let k = b.checked_mul(-a.signum())?;
                            scaled.try_add_scaled_assign(&f, k).ok()?;
                            next.push(match c.kind() {
                                ConstraintKind::Eq => Constraint::eq(scaled),
                                ConstraintKind::Geq => Constraint::geq(scaled),
                                ConstraintKind::Mod => {
                                    Constraint::congruent(scaled, c.modulus().checked_mul(abs_a)?)
                                }
                            });
                        }
                        Some(next)
                    })();
                    if let Some(mut next) = rewritten {
                        if abs_a >= 2 {
                            next.push(Constraint::congruent(f, abs_a));
                        }
                        self.constraints = next;
                        self.remove_exists_col(e);
                        return true;
                    }
                }
            }

            // Single occurrence in an equality with coefficient |a| >= 2 and
            // nowhere else: ∃e: f + a·e = 0  ⇔  f ≡ 0 (mod |a|).
            if users.len() == 1 {
                let i = users[0];
                let c = &self.constraints[i];
                let a = c.expr().coeff(col);
                match c.kind() {
                    ConstraintKind::Eq => {
                        let mut f = c.expr().clone();
                        f.set_coeff(col, 0);
                        // checked_abs: an i64::MIN coefficient has no i64
                        // magnitude to use as a modulus — keep the equality.
                        let replacement = match a.checked_abs() {
                            Some(m) if m >= 2 => Some(Constraint::congruent(f, m)),
                            _ => None, // |a| == 1 handled above
                        };
                        if let Some(r) = replacement {
                            self.constraints[i] = r;
                            self.remove_exists_col(e);
                            return true;
                        }
                    }
                    ConstraintKind::Mod => {
                        // ∃e: f + a·e ≡ 0 (mod m)  ⇔  f ≡ 0 (mod gcd(a, m))
                        let m = c.modulus();
                        let g = gcd(a, m);
                        let mut f = c.expr().clone();
                        f.set_coeff(col, 0);
                        if g >= 2 {
                            self.constraints[i] = Constraint::congruent(f, g);
                        } else {
                            self.constraints.remove(i);
                        }
                        self.remove_exists_col(e);
                        return true;
                    }
                    ConstraintKind::Geq => {
                        // Bounded on one side only: the constraint is always
                        // satisfiable by choosing e large/small enough.
                        self.constraints.remove(i);
                        self.remove_exists_col(e);
                        return true;
                    }
                }
            }

            // Only inequalities use it: exact FM elimination when one side has
            // unit coefficients, or drop when bounded on a single side.
            if users
                .iter()
                .all(|&i| self.constraints[i].kind() == ConstraintKind::Geq)
            {
                let lowers: Vec<usize> = users
                    .iter()
                    .copied()
                    .filter(|&i| self.constraints[i].expr().coeff(col) > 0)
                    .collect();
                let uppers: Vec<usize> = users
                    .iter()
                    .copied()
                    .filter(|&i| self.constraints[i].expr().coeff(col) < 0)
                    .collect();
                if lowers.is_empty() || uppers.is_empty() {
                    let keep: Vec<Constraint> = self
                        .constraints
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !users.contains(i))
                        .map(|(_, c)| c.clone())
                        .collect();
                    self.constraints = keep;
                    self.remove_exists_col(e);
                    return true;
                }
                let exact = lowers
                    .iter()
                    .all(|&i| self.constraints[i].expr().coeff(col) == 1)
                    || uppers
                        .iter()
                        .all(|&i| self.constraints[i].expr().coeff(col) == -1);
                if exact {
                    let mut new_cs: Vec<Constraint> = self
                        .constraints
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !users.contains(i))
                        .map(|(_, c)| c.clone())
                        .collect();
                    // Checked: a pair combination that overflows abandons the
                    // elimination of this column (the solver still decides it
                    // exactly later — or reports a typed overflow).
                    let mut ok = true;
                    'pairs: for &li in &lowers {
                        for &ui in &uppers {
                            let lo = self.constraints[li].expr();
                            let up = self.constraints[ui].expr();
                            let a = lo.coeff(col);
                            let Some(b) = up.coeff(col).checked_neg() else {
                                ok = false;
                                break 'pairs;
                            };
                            let mut combined = up.clone();
                            if combined.try_scale_assign(a).is_err()
                                || combined.try_add_scaled_assign(lo, b).is_err()
                            {
                                ok = false;
                                break 'pairs;
                            }
                            new_cs.push(Constraint::geq(combined));
                        }
                    }
                    if ok {
                        self.constraints = new_cs;
                        self.remove_exists_col(e);
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Removes existential column `e` (0-based among the existentials).  All
    /// constraints must no longer use it.
    fn remove_exists_col(&mut self, e: usize) {
        let col = self.space.n_global() + e;
        for c in &mut self.constraints {
            c.expr_mut().remove_col_assign(col);
        }
        self.n_exists -= 1;
    }

    /// Whether the conjunct has been fully reduced to constraints over the
    /// global columns only (a requirement for exact set difference).
    pub fn is_quantifier_free(&self) -> bool {
        self.n_exists == 0
    }

    /// Internal constructor used by the relation algebra.
    pub(crate) fn from_parts(
        space: Space,
        n_exists: usize,
        constraints: Vec<Constraint>,
    ) -> Conjunct {
        let c = Conjunct::new(space, n_exists, constraints);
        for cons in &c.constraints {
            assert_eq!(cons.n_vars(), c.n_vars());
        }
        c
    }

    /// Replaces the space (for renaming dims); arities must match.  The
    /// constraints stay, and so do the cached facts: neither the canonical
    /// form nor the structural hash depends on dimension names.
    pub(crate) fn with_space(mut self, space: Space) -> Conjunct {
        assert_eq!(space.arities(), self.space.arities());
        self.space = space;
        self
    }
}

/// Whether the coefficient vectors of `a` and `b` are identical.
fn same_coeffs(a: &LinExpr, b: &LinExpr) -> bool {
    debug_assert_eq!(a.n_vars(), b.n_vars());
    (0..a.n_vars()).all(|i| a.coeff(i) == b.coeff(i))
}

/// Whether the coefficient vectors of `a` and `b` are exact negations.
fn opposite_coeffs(a: &LinExpr, b: &LinExpr) -> bool {
    debug_assert_eq!(a.n_vars(), b.n_vars());
    (0..a.n_vars()).all(|i| a.coeff(i).checked_neg() == Some(b.coeff(i)))
}

/// Whether constraint `o` (normalised) single-handedly implies constraint
/// `s` (normalised, same width).  Sound but deliberately incomplete: only
/// verbatim matches, looser inequalities over the same primitive coefficient
/// vector, and equalities pinning that vector are recognised.
fn constraint_implies(o: &Constraint, s: &Constraint) -> bool {
    if o == s {
        return true;
    }
    if s.kind() != ConstraintKind::Geq {
        return false;
    }
    // i128 spreads so constants near i64::MIN/MAX cannot wrap.
    let (sc, oc) = (s.expr().constant() as i128, o.expr().constant() as i128);
    match o.kind() {
        // a·x + c₁ ≥ 0  implies  a·x + c₂ ≥ 0  when c₂ ≥ c₁.
        ConstraintKind::Geq => same_coeffs(o.expr(), s.expr()) && sc >= oc,
        // a·x + c₁ = 0 pins a·x, deciding inequalities over ±a.
        ConstraintKind::Eq => {
            (same_coeffs(o.expr(), s.expr()) && sc - oc >= 0)
                || (opposite_coeffs(o.expr(), s.expr()) && sc + oc >= 0)
        }
        ConstraintKind::Mod => false,
    }
}

/// Runs the production feasibility test in its own [`solver_events`] scope
/// and, when it degrades with the typed overflow, re-decides the system with
/// the big-integer port of the decision procedure ([`crate::reference`]),
/// where overflow cannot occur.  On success the exact verdict replaces the
/// conservative one and the query's degradation is withdrawn (one noted
/// before the query, in an enclosing scope, still stands), so the enclosing
/// checker run stays conclusive.  When the reference solver declines (work
/// limit), the degraded verdict stands.
fn decide_with_fallback(constraints: &[Constraint], n_vars: usize) -> Feasibility {
    let (f, _) = solver_events(|| {
        let f = is_feasible(constraints, n_vars);
        if f != Feasibility::Overflow {
            return f;
        }
        match crate::reference::reference_is_feasible(constraints, n_vars) {
            Some(exact) => {
                crate::events::note_bigint_fallback();
                if exact {
                    Feasibility::Feasible
                } else {
                    Feasibility::Infeasible
                }
            }
            None => f,
        }
    });
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_1_1() -> Space {
        Space::relation(&["x"], &["y"], &[])
    }

    #[test]
    fn universe_is_feasible_and_contains_everything() {
        let c = Conjunct::universe(space_1_1());
        assert!(c.is_feasible());
        assert!(c.contains(&[5, -3]));
        assert!(c.is_quantifier_free());
    }

    #[test]
    fn simple_membership() {
        // { [x] -> [y] : y = 2x and 0 <= x < 10 }
        let mut c = Conjunct::universe(space_1_1());
        let mut eq = c.zero_expr();
        eq.set_coeff(c.col(VarKind::Out, 0), 1);
        eq.set_coeff(c.col(VarKind::In, 0), -2);
        c.add(Constraint::eq(eq));
        let mut lo = c.zero_expr();
        lo.set_coeff(c.col(VarKind::In, 0), 1);
        c.add(Constraint::geq(lo));
        let mut hi = c.zero_expr();
        hi.set_coeff(c.col(VarKind::In, 0), -1);
        hi.set_constant(9);
        c.add(Constraint::geq(hi));

        assert!(c.contains(&[3, 6]));
        assert!(!c.contains(&[3, 7]));
        assert!(!c.contains(&[10, 20]));
        assert!(c.is_feasible());
    }

    #[test]
    fn existential_stride_becomes_congruence() {
        // { [x] -> [y] : exists k : x = 2k } — simplification should turn the
        // existential equality into x ≡ 0 (mod 2) and drop the variable.
        let mut c = Conjunct::universe(space_1_1());
        let k = c.add_exists(1);
        let mut eq = c.zero_expr();
        eq.set_coeff(c.col(VarKind::In, 0), 1);
        eq.set_coeff(k, -2);
        c.add(Constraint::eq(eq));
        assert!(c.simplify());
        assert!(c.is_quantifier_free());
        assert_eq!(c.constraints().len(), 1);
        assert_eq!(c.constraints()[0].kind(), ConstraintKind::Mod);
        assert!(c.contains(&[4, 0]));
        assert!(!c.contains(&[5, 0]));
    }

    #[test]
    fn existential_with_unit_coefficient_is_substituted() {
        // exists k : x = k + 1 and y = 2k  =>  y = 2x - 2
        let mut c = Conjunct::universe(space_1_1());
        let k = c.add_exists(1);
        let mut e1 = c.zero_expr();
        e1.set_coeff(c.col(VarKind::In, 0), 1);
        e1.set_coeff(k, -1);
        e1.set_constant(-1);
        c.add(Constraint::eq(e1));
        let mut e2 = c.zero_expr();
        e2.set_coeff(c.col(VarKind::Out, 0), 1);
        e2.set_coeff(k, -2);
        c.add(Constraint::eq(e2));
        assert!(c.simplify());
        assert!(c.is_quantifier_free());
        assert!(c.contains(&[3, 4]));
        assert!(!c.contains(&[3, 5]));
    }

    #[test]
    fn intersect_concatenates_constraints() {
        let mut a = Conjunct::universe(space_1_1());
        let mut lo = a.zero_expr();
        lo.set_coeff(0, 1);
        a.add(Constraint::geq(lo)); // x >= 0
        let mut b = Conjunct::universe(space_1_1());
        let mut hi = b.zero_expr();
        hi.set_coeff(0, -1);
        hi.set_constant(5);
        b.add(Constraint::geq(hi)); // x <= 5
        let both = a.intersect(&b);
        assert!(both.contains(&[3, 0]));
        assert!(!both.contains(&[-1, 0]));
        assert!(!both.contains(&[6, 0]));
    }

    #[test]
    fn reversed_swaps_roles() {
        // y = x + 1  reversed  becomes  (new in = old out) y' = x' - 1 check
        let mut c = Conjunct::universe(space_1_1());
        let mut eq = c.zero_expr();
        eq.set_coeff(c.col(VarKind::Out, 0), 1);
        eq.set_coeff(c.col(VarKind::In, 0), -1);
        eq.set_constant(-1);
        c.add(Constraint::eq(eq)); // y - x - 1 = 0, i.e. y = x + 1
        assert!(c.contains(&[2, 3]));
        let r = c.reversed();
        assert!(r.contains(&[3, 2]));
        assert!(!r.contains(&[2, 3]));
    }

    #[test]
    fn domain_projects_out_outputs() {
        // { [x] -> [y] : y = 2x and 0 <= x <= 3 }, domain = { [x] : 0<=x<=3 }
        let mut c = Conjunct::universe(space_1_1());
        let mut eq = c.zero_expr();
        eq.set_coeff(1, 1);
        eq.set_coeff(0, -2);
        c.add(Constraint::eq(eq));
        let mut lo = c.zero_expr();
        lo.set_coeff(0, 1);
        c.add(Constraint::geq(lo));
        let mut hi = c.zero_expr();
        hi.set_coeff(0, -1);
        hi.set_constant(3);
        c.add(Constraint::geq(hi));
        let d = c.domain();
        assert_eq!(d.space().n_out(), 0);
        assert!(d.contains(&[0]));
        assert!(d.contains(&[3]));
        assert!(!d.contains(&[4]));
    }

    #[test]
    fn promote_opposite_inequalities_to_equality() {
        let mut c = Conjunct::universe(space_1_1());
        let mut e = c.zero_expr();
        e.set_coeff(0, 1);
        e.set_coeff(1, -1);
        c.add(Constraint::geq(e.clone())); // x - y >= 0
        c.add(Constraint::geq(e.try_scale(-1).unwrap())); // y - x >= 0
        c.simplify();
        assert_eq!(c.constraints().len(), 1);
        assert_eq!(c.constraints()[0].kind(), ConstraintKind::Eq);
    }

    #[test]
    fn infeasible_is_detected() {
        let mut c = Conjunct::universe(space_1_1());
        let mut lo = c.zero_expr();
        lo.set_coeff(0, 1);
        lo.set_constant(-10); // x >= 10
        c.add(Constraint::geq(lo));
        let mut hi = c.zero_expr();
        hi.set_coeff(0, -1);
        hi.set_constant(5); // x <= 5
        c.add(Constraint::geq(hi));
        assert!(!c.is_feasible());
    }

    /// Builds `{ [x] -> [y] : x = 2·e_a and y = 3·e_b and e_a >= 0 and
    /// e_b >= 1 }` with the two existentials in the given order.
    fn two_exists_conjunct(swapped: bool) -> Conjunct {
        let mut c = Conjunct::universe(space_1_1());
        let first = c.add_exists(2);
        let (ea, eb) = if swapped {
            (first + 1, first)
        } else {
            (first, first + 1)
        };
        let n = c.n_vars();
        let mk = |pairs: &[(usize, i64)], k: i64| {
            let mut le = LinExpr::zero(n);
            for &(col, coef) in pairs {
                le.set_coeff(col, coef);
            }
            le.set_constant(k);
            le
        };
        let x = c.col(VarKind::In, 0);
        let y = c.col(VarKind::Out, 0);
        c.add(Constraint::eq(mk(&[(x, 1), (ea, -2)], 0)));
        c.add(Constraint::eq(mk(&[(y, 1), (eb, -3)], 0)));
        c.add(Constraint::geq(mk(&[(ea, 1)], 0)));
        c.add(Constraint::geq(mk(&[(eb, 1)], -1)));
        c
    }

    #[test]
    fn structural_hash_is_invariant_under_existential_renaming() {
        let a = two_exists_conjunct(false);
        let b = two_exists_conjunct(true);
        // Same set, existential columns introduced in opposite order.
        assert_ne!(a.constraints(), b.constraints(), "presentations differ");
        assert_eq!(a.canonical_constraints(), b.canonical_constraints());
        assert_eq!(a.structural_hash(), b.structural_hash());
        // The canonical form still separates genuinely different systems.
        let mut c = two_exists_conjunct(false);
        let n = c.n_vars();
        let mut extra = LinExpr::zero(n);
        extra.set_coeff(c.col(VarKind::In, 0), 1);
        extra.set_constant(100);
        c.add(Constraint::geq(extra));
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn feasibility_memo_agrees_across_existential_renamings() {
        // The memo keys on the rename-canonical hash; both presentations
        // must land on the same (correct) verdict.
        let a = two_exists_conjunct(false);
        let b = two_exists_conjunct(true);
        assert!(a.is_feasible());
        assert!(b.is_feasible());
        assert!(a.contains(&[2, 3]));
        assert!(b.contains(&[2, 3]));
        assert!(!a.contains(&[1, 3]));
        assert!(!b.contains(&[1, 3]));
    }

    #[test]
    fn fm_elimination_of_inequality_only_existential() {
        // exists e : x <= e <= x + 1 and 0 <= e <= 10   projects to
        // x <= 10 and x + 1 >= 0.
        let mut c = Conjunct::universe(space_1_1());
        let e = c.add_exists(1);
        let x = c.col(VarKind::In, 0);
        let mk = |pairs: &[(usize, i64)], k: i64, n: usize| {
            let mut le = LinExpr::zero(n);
            for &(col, coef) in pairs {
                le.set_coeff(col, coef);
            }
            le.set_constant(k);
            le
        };
        let n = c.n_vars();
        c.add(Constraint::geq(mk(&[(e, 1), (x, -1)], 0, n))); // e >= x
        c.add(Constraint::geq(mk(&[(e, -1), (x, 1)], 1, n))); // e <= x+1
        c.add(Constraint::geq(mk(&[(e, 1)], 0, n))); // e >= 0
        c.add(Constraint::geq(mk(&[(e, -1)], 10, n))); // e <= 10
        c.simplify();
        assert!(c.is_quantifier_free());
        assert!(c.contains(&[10, 0]));
        assert!(c.contains(&[-1, 0]));
        assert!(!c.contains(&[11, 0]));
        assert!(!c.contains(&[-2, 0]));
    }

    /// `a·x + b·y + k ≥ 0` over `c`'s columns.
    fn geq(c: &Conjunct, a: i64, b: i64, k: i64) -> Constraint {
        let mut e = c.zero_expr();
        e.set_coeff(c.col(VarKind::In, 0), a);
        e.set_coeff(c.col(VarKind::Out, 0), b);
        e.set_constant(k);
        Constraint::geq(e)
    }

    /// `{ [x] -> [y] : a·x + b·y + k ≥ 0 for each row }`, simplified, with
    /// its structural hash computed and cached.
    fn cached(rows: &[(i64, i64, i64)]) -> Conjunct {
        let mut c = Conjunct::universe(space_1_1());
        for &(a, b, k) in rows {
            c.add(geq(&c, a, b, k));
        }
        assert!(c.simplify());
        assert!(c.simplified);
        c.structural_hash();
        c
    }

    /// Asserts that a mutated conjunct keeps no stale cached fact: its hash
    /// is that of a conjunct built fresh from the same constraints, and
    /// `simplify` runs again, to what simplifying the fresh one gives.
    fn assert_caches_follow(mut c: Conjunct, what: &str) {
        let mut fresh = Conjunct::from_parts(c.space.clone(), c.n_exists, c.constraints.clone());
        assert_eq!(c.structural_hash(), fresh.structural_hash(), "{what}: hash");
        assert!(!c.simplified, "{what}: still marked simplified");
        assert!(c.simplify() && fresh.simplify(), "{what}");
        assert_eq!(
            (c.n_exists, &c.constraints),
            (fresh.n_exists, &fresh.constraints),
            "{what}: simplify did not run again"
        );
    }

    #[test]
    fn add_clears_the_cached_facts() {
        let mut c = cached(&[(1, 0, 0)]); // x >= 0
        let h = c.structural_hash();
        c.add(geq(&c, 0, 2, -4)); // 2y - 4 >= 0, which simplify halves
        assert_ne!(c.structural_hash(), h);
        assert_caches_follow(c, "add");
    }

    #[test]
    fn add_exists_clears_the_cached_facts() {
        let mut c = cached(&[(1, 0, 0)]);
        let h = c.structural_hash();
        c.add_exists(1); // an unused existential, which simplify drops
        assert_ne!(c.structural_hash(), h);
        assert_caches_follow(c, "add_exists");
    }

    #[test]
    fn an_intersection_starts_without_cached_facts() {
        let a = cached(&[(1, 0, 0)]);
        // Quantifier-free on both sides: no existential is added.
        let both = a.intersect(&cached(&[(-2, 0, 9)])); // x <= 4, once halved
        assert_ne!(both.structural_hash(), a.structural_hash());
        assert_caches_follow(both, "intersect");
    }

    #[test]
    fn drop_redundant_clears_the_cached_facts() {
        // x >= 0, y >= 0 and the implied x + y >= 0, which simplify keeps.
        let mut c = cached(&[(1, 0, 0), (0, 1, 0), (1, 1, 0)]);
        assert_eq!(c.constraints.len(), 3);
        let h = c.structural_hash();
        c.drop_redundant();
        assert_eq!(c.constraints.len(), 2);
        assert_ne!(c.structural_hash(), h);
        assert_caches_follow(c, "drop_redundant");
    }

    #[test]
    fn cached_hashes_of_a_colliding_pair_keep_both_conjuncts() {
        // Two conjuncts whose 64-bit structural hashes collide: dedup must
        // tell them apart by content, whatever hashes they cache, and so
        // must anything keyed by those hashes.
        let a = crate::Relation::parse("{ [k] -> [e] : e = k + 1 and 0 <= k < 16 }").unwrap();
        let b =
            crate::Relation::parse("{ [k] -> [e] : e = 4k - 408709946564336430 and 0 <= k < 16 }")
                .unwrap();
        let (ca, cb) = (&a.conjuncts()[0], &b.conjuncts()[0]);
        assert!(ca.simplified && cb.simplified);
        assert_eq!(
            ca.structural_hash(),
            cb.structural_hash(),
            "no longer a collision"
        );
        let u = a.union(&b).unwrap().simplified(true);
        assert_eq!(u.conjuncts().len(), 2, "{u}");
        assert!(!u.is_empty());
        assert!(u.contains(&[0], &[1], &[]));
        assert!(u.contains(&[0], &[-408709946564336430], &[]));
    }

    #[test]
    fn one_canonical_form_sees_through_presentation_only() {
        let parse = |s: &str| crate::Relation::parse(s).unwrap();
        let relation = |c: &Conjunct| crate::Relation::from_conjuncts(space_1_1(), vec![c.clone()]);
        let agree = |a: &Conjunct, b: &Conjunct| {
            assert_ne!(a, b, "presentations differ");
            assert_eq!(a.structural_hash(), b.structural_hash());
            assert!(a.same_canonical_form(b));
            assert!(relation(a).same_canonical_form(&relation(b)));
        };
        // Existential renaming.
        agree(&two_exists_conjunct(false), &two_exists_conjunct(true));
        // Constraint order, as written (nothing simplified).
        let written = |rows: &[(i64, i64, i64)]| {
            let mut c = Conjunct::universe(space_1_1());
            for &(a, b, k) in rows {
                c.add(geq(&c, a, b, k));
            }
            c
        };
        agree(
            &written(&[(1, 0, 0), (0, 2, -4), (1, 1, -3)]),
            &written(&[(1, 1, -3), (0, 1, -2), (1, 0, 0)]),
        );
        // Conjunct order.
        let lo = parse("{ [i] -> [i] : 0 <= i < 5 }");
        let hi = parse("{ [i] -> [i] : 10 <= i < 15 }");
        let (lo_hi, hi_lo) = (lo.union(&hi).unwrap(), hi.union(&lo).unwrap());
        assert_ne!(lo_hi, hi_lo);
        assert_eq!(lo_hi.structural_hash(), hi_lo.structural_hash());
        assert!(lo_hi.same_canonical_form(&hi_lo));
        // A colliding pair has one hash and two forms.
        let a = parse("{ [k] -> [e] : e = k + 1 and 0 <= k < 16 }");
        let b = parse("{ [k] -> [e] : e = 4k - 408709946564336430 and 0 <= k < 16 }");
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert!(!a.same_canonical_form(&b));
        assert!(!a.conjuncts()[0].same_canonical_form(&b.conjuncts()[0]));
        // One constraint system over two splits of the same three columns.
        let two_in = parse("{ [a, b] -> [c] : a + b - c = 0 and 0 <= a < 4 }");
        let two_out = parse("{ [a] -> [b, c] : a + b - c = 0 and 0 <= a < 4 }");
        assert_ne!(two_in.structural_hash(), two_out.structural_hash());
        assert!(!two_in.same_canonical_form(&two_out));
        assert!(!two_in.conjuncts()[0].same_canonical_form(&two_out.conjuncts()[0]));
    }
}
