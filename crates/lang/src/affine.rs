//! Lowering of loop nests and index expressions to affine form, and the one
//! analysis of a program that the front-end passes share.
//!
//! This module turns the AST of a program in the restricted class into the
//! per-statement geometric information everything else is built on:
//!
//! * the **iteration domain** of each assignment (a [`Set`] over its
//!   enclosing loop iterators, including strides and `if` guards),
//! * the **write access relation** `{ [iters] -> [element] }` of its
//!   left-hand side, and
//! * the **read access relations** of every array operand on its right-hand
//!   side.
//!
//! These are exactly the ingredients of the paper's *dependency mappings*
//! (Section 3.2): the mapping from the elements defined by a statement to the
//! elements of operand `v` is `write⁻¹ ∘ read_v`.
//!
//! [`Analysis`] is the one lowering pass per program that the class check,
//! the def-use check and ADDG extraction share.  It builds each access
//! relation once and interns it by content: the structural hash only picks
//! a bucket and `==` decides identity, so relations whose 64-bit hashes
//! collide stay apart.  The per-statement functions of [`StatementInfo`]
//! compute the same relations directly, with no sharing; they are the
//! reference the analysis is tested against.

use crate::ast::*;
use crate::{LangError, Result};
use arrayeq_omega::{Conjunct, Constraint, LinExpr, Relation, Set, Space, VarKind};
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An affine expression over loop-iterator names: `Σ aᵢ·iterᵢ + c`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    /// Coefficient per iterator name (absent means 0).
    pub coeffs: BTreeMap<String, i64>,
    /// Constant term.
    pub konst: i64,
}

impl Affine {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            coeffs: BTreeMap::new(),
            konst: c,
        }
    }

    /// The expression `1·name`.
    pub fn var(name: &str) -> Affine {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(name.to_owned(), 1);
        Affine { coeffs, konst: 0 }
    }

    /// `self + k·other`, wrapping in `i64` as the program's arithmetic does.
    pub fn add_scaled(&mut self, other: &Affine, k: i64) {
        for (n, &c) in &other.coeffs {
            let slot = self.coeffs.entry(n.clone()).or_insert(0);
            *slot = slot.wrapping_add(k.wrapping_mul(c));
        }
        self.konst = self.konst.wrapping_add(k.wrapping_mul(other.konst));
    }

    /// `k·self`, wrapping in `i64` as the program's arithmetic does.
    pub fn scale(&self, k: i64) -> Affine {
        Affine {
            coeffs: self
                .coeffs
                .iter()
                .map(|(n, &c)| (n.clone(), c.wrapping_mul(k)))
                .collect(),
            konst: self.konst.wrapping_mul(k),
        }
    }

    /// Whether the expression has no iterator terms.
    pub fn is_constant(&self) -> bool {
        self.coeffs.values().all(|&c| c == 0)
    }

    /// Evaluates the expression for concrete iterator values, wrapping in
    /// `i64` as the program's arithmetic does.
    pub fn eval(&self, env: &BTreeMap<String, i64>) -> i64 {
        self.coeffs.iter().fold(self.konst, |acc, (n, c)| {
            acc.wrapping_add(c.wrapping_mul(env.get(n).copied().unwrap_or(0)))
        })
    }

    /// Lowers the expression into a [`LinExpr`] over a conjunct whose input
    /// dims are the iterators listed in `iters` (in order).  Names not found
    /// among the iterators are resolved as symbolic parameters of the space.
    fn to_linexpr(
        &self,
        conj: &Conjunct,
        iters: &[String],
        params: &[String],
        kind: VarKind,
    ) -> LinExpr {
        let mut e = conj.zero_expr();
        for (name, &c) in &self.coeffs {
            let col = if let Some(idx) = iters.iter().position(|n| n == name) {
                conj.col(kind, idx)
            } else {
                let idx = params
                    .iter()
                    .position(|n| n == name)
                    .expect("name resolved during analysis");
                conj.col(VarKind::Param, idx)
            };
            e.set_coeff(col, c);
        }
        e.set_constant(self.konst);
        e
    }
}

/// Converts an AST expression into affine form over the given iterators and
/// symbolic parameters.
///
/// `#define` constants are folded; `#param` names stay symbolic (they become
/// parameter columns in the omega layer); any other variable, array access or
/// call makes the expression non-affine.
///
/// # Errors
///
/// Returns [`LangError::NotAffine`] when the expression cannot be brought to
/// affine form (e.g. a product of two iterators).
pub fn affine_of_expr(
    e: &Expr,
    iters: &[String],
    params: &[String],
    defines: &BTreeMap<String, i64>,
    context: &str,
) -> Result<Affine> {
    let not_affine = || LangError::NotAffine {
        expr: crate::pretty::expr_to_string(e),
        context: context.to_owned(),
    };
    match e {
        Expr::Const(v) => Ok(Affine::constant(*v)),
        Expr::Var(n) => {
            if iters.contains(n) || params.contains(n) {
                Ok(Affine::var(n))
            } else if let Some(&v) = defines.get(n) {
                Ok(Affine::constant(v))
            } else {
                Err(not_affine())
            }
        }
        Expr::Neg(inner) => Ok(affine_of_expr(inner, iters, params, defines, context)?.scale(-1)),
        Expr::Bin(op, l, r) => {
            let la = affine_of_expr(l, iters, params, defines, context)?;
            let ra = affine_of_expr(r, iters, params, defines, context)?;
            match op {
                BinOp::Add => {
                    let mut out = la;
                    out.add_scaled(&ra, 1);
                    Ok(out)
                }
                BinOp::Sub => {
                    let mut out = la;
                    out.add_scaled(&ra, -1);
                    Ok(out)
                }
                BinOp::Mul => {
                    if la.is_constant() {
                        Ok(ra.scale(la.konst))
                    } else if ra.is_constant() {
                        Ok(la.scale(ra.konst))
                    } else {
                        Err(not_affine())
                    }
                }
                BinOp::Div => {
                    if la.is_constant() && ra.is_constant() && ra.konst != 0 {
                        Ok(Affine::constant(la.konst.wrapping_div(ra.konst)))
                    } else {
                        Err(not_affine())
                    }
                }
            }
        }
        Expr::Access(_) | Expr::Call(..) => Err(not_affine()),
    }
}

/// One constraint of an iteration domain, over the enclosing iterators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainConstraint {
    /// `expr ≥ 0`
    Geq(Affine),
    /// `expr = 0`
    Eq(Affine),
    /// `expr ≡ 0 (mod m)` (loop strides)
    Mod(Affine, i64),
}

impl DomainConstraint {
    /// Evaluates the constraint for concrete iterator values.
    pub fn holds(&self, env: &BTreeMap<String, i64>) -> bool {
        match self {
            DomainConstraint::Geq(a) => a.eval(env) >= 0,
            DomainConstraint::Eq(a) => a.eval(env) == 0,
            DomainConstraint::Mod(a, m) => a.eval(env).rem_euclid(*m) == 0,
        }
    }
}

/// The geometric summary of one assignment statement.  It borrows the
/// statement's right-hand side and the program's `#define`s and parameters
/// from the analysed [`Program`].
#[derive(Debug, Clone)]
pub struct StatementInfo<'p> {
    /// The statement label.
    pub label: String,
    /// Index of the statement in textual order (0-based).
    pub position: usize,
    /// The array defined by the statement.
    pub target: String,
    /// Affine write index expressions, one per array dimension.
    pub write_indices: Vec<Affine>,
    /// The right-hand side expression (operator tree).
    pub rhs: &'p Expr,
    /// The array reads of `rhs`, left to right (as [`Expr::reads`] lists
    /// them).
    pub reads: Vec<&'p ArrayRef>,
    /// Enclosing loop iterators, outermost first.
    pub iters: Vec<String>,
    /// Iteration domain in disjunctive normal form: a union of conjunctions
    /// of [`DomainConstraint`]s (the union comes from `!=` guards).
    pub domains: Vec<Vec<DomainConstraint>>,
    /// Textual position constants of the 2d+1 schedule: one entry per loop
    /// level plus one for the innermost statement position.
    pub schedule_consts: Vec<i64>,
    /// The `#define` environment of the program (needed to lower reads).
    pub defines: &'p BTreeMap<String, i64>,
    /// Symbolic size parameters of the program (`#param N >= min`): name and
    /// declared lower bound.  They become parameter columns of every space
    /// built from this statement, so domains and access relations stay
    /// parametric in them.
    pub symbolic_params: &'p [(String, i64)],
}

/// Index of a distinct relation of an [`Analysis`].
pub type RelationId = usize;

/// One distinct relation of an [`Analysis`] with the facts derived from it
/// alone, each computed on first use.
#[derive(Debug)]
struct Interned {
    relation: Relation,
    elements: OnceCell<Set>,
    injective: OnceCell<bool>,
}

/// The one analysis of a program that the class check
/// ([`crate::classcheck`]), the def-use check ([`crate::defuse`]) and ADDG
/// extraction run on.
///
/// [`Analysis::new`] walks the program once: it lowers every statement,
/// collects each array's writers and the array parameters' roles, and
/// builds each statement's write relation.  A read's relation is built the
/// first time a pass asks for it.  Relations are interned by content, and
/// each fact is computed on first use, once per distinct input, and kept
/// until the analysis is dropped:
///
/// * the element set (range) of each distinct relation;
/// * the injectivity of each distinct write relation;
/// * the dependency mapping `write⁻¹ ∘ read` of each distinct (write, read)
///   pair;
/// * each array's written set, and the coverage of each distinct (read
///   relation, array) by it.
#[derive(Debug)]
pub struct Analysis<'p> {
    program: &'p Program,
    statements: Vec<StatementInfo<'p>>,
    roles: BTreeMap<String, ArrayRole>,
    writers: BTreeMap<String, Vec<usize>>,
    relations: Vec<Interned>,
    /// Relation ids by structural hash: a bucket, never an identity.
    buckets: HashMap<u64, Vec<RelationId>>,
    writes: Vec<RelationId>,
    reads: Vec<Vec<Option<RelationId>>>,
    mappings: HashMap<(RelationId, RelationId), Relation>,
    written: HashMap<&'p str, Option<Set>>,
    covered: HashMap<(RelationId, &'p str), bool>,
}

impl<'p> Analysis<'p> {
    /// Analyzes a program: lowers every assignment, in textual order, and
    /// builds each one's write relation.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::NotAffine`] / [`LangError::Class`] when bounds,
    /// steps, guards or write index expressions fall outside the affine
    /// class.  Read indices are lowered when a pass first asks for their
    /// relation ([`Analysis::read`]).
    pub fn new(program: &'p Program) -> Result<Self> {
        let mut statements = Vec::new();
        let mut walker = Walker {
            defines: &program.defines,
            symbolic_params: &program.symbolic_params,
            param_names: program
                .symbolic_params
                .iter()
                .map(|(n, _)| n.clone())
                .collect(),
            out: &mut statements,
        };
        let mut ctx = Ctx {
            iters: Vec::new(),
            domains: vec![Vec::new()],
            schedule_consts: vec![0],
        };
        walker.walk_block(&program.body, &mut ctx)?;

        let mut writers: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut read = BTreeSet::new();
        for (s, info) in statements.iter().enumerate() {
            writers.entry(info.target.clone()).or_default().push(s);
            read.extend(info.reads.iter().map(|r| r.array.as_str()));
        }
        let roles = program
            .params
            .iter()
            .map(|p| {
                let role =
                    ArrayRole::of(writers.contains_key(p.as_str()), read.contains(p.as_str()));
                (p.clone(), role)
            })
            .collect();
        let reads = statements
            .iter()
            .map(|s| vec![None; s.reads.len()])
            .collect();
        let mut analysis = Analysis {
            program,
            statements,
            roles,
            writers,
            relations: Vec::new(),
            buckets: HashMap::new(),
            writes: Vec::new(),
            reads,
            mappings: HashMap::new(),
            written: HashMap::new(),
            covered: HashMap::new(),
        };
        for s in 0..analysis.statements.len() {
            let write = analysis.statements[s].write_relation()?;
            let id = analysis.intern(write);
            analysis.writes.push(id);
        }
        Ok(analysis)
    }

    /// The analysed program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// One [`StatementInfo`] per assignment, in textual order; a statement's
    /// index in this slice is how the other methods name it.
    pub fn statements(&self) -> &[StatementInfo<'p>] {
        &self.statements
    }

    /// The role of each array parameter (as [`Program::param_roles`]).
    pub fn roles(&self) -> &BTreeMap<String, ArrayRole> {
        &self.roles
    }

    /// Whether `array` is an input parameter: read and never written.
    pub(crate) fn is_input(&self, array: &str) -> bool {
        self.roles.get(array) == Some(&ArrayRole::Input)
    }

    /// The statements that write `array`, in textual order.
    pub(crate) fn writers(&self, array: &str) -> &[usize] {
        self.writers.get(array).map_or(&[], Vec::as_slice)
    }

    /// The relation with the given id.
    pub fn relation(&self, id: RelationId) -> &Relation {
        &self.relations[id].relation
    }

    /// The id of statement `s`'s write relation.
    pub fn write(&self, s: usize) -> RelationId {
        self.writes[s]
    }

    /// The id of the relation of the `r`-th read of statement `s`.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::NotAffine`] if the read's index expressions are
    /// not affine in the statement's iterators.
    pub fn read(&mut self, s: usize, r: usize) -> Result<RelationId> {
        if let Some(id) = self.reads[s][r] {
            return Ok(id);
        }
        let info = &self.statements[s];
        let relation = info.read_relation(info.reads[r])?;
        let id = self.intern(relation);
        self.reads[s][r] = Some(id);
        Ok(id)
    }

    /// The element set (range) of a relation: the array elements it writes
    /// or reads.
    pub fn elements(&self, id: RelationId) -> &Set {
        let interned = &self.relations[id];
        interned.elements.get_or_init(|| interned.relation.range())
    }

    /// Whether statement `s` writes a different element in every iteration
    /// of its domain.
    ///
    /// # Errors
    ///
    /// Propagates integer-set errors.
    pub(crate) fn is_injective(&self, s: usize) -> Result<bool> {
        let interned = &self.relations[self.writes[s]];
        if let Some(&injective) = interned.injective.get() {
            return Ok(injective);
        }
        // Injective  ⇔  w ∘ w⁻¹ ⊆ Id  over the iteration space.
        let w = &interned.relation;
        let space = w.space();
        let id = Relation::identity(Space::relation(
            space.in_vars(),
            space.in_vars(),
            space.params(),
        ));
        let injective = w.compose(&w.inverse())?.is_subset(&id)?;
        Ok(*interned.injective.get_or_init(|| injective))
    }

    /// The paper's dependency mapping of the `r`-th read of statement `s`
    /// (see [`StatementInfo::dependency_mapping`]).
    ///
    /// # Errors
    ///
    /// As [`Analysis::read`], plus integer-set errors.
    pub fn mapping(&mut self, s: usize, r: usize) -> Result<&Relation> {
        let key = (self.writes[s], self.read(s, r)?);
        Ok(match self.mappings.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(dependency_mapping(
                &self.relations[key.0].relation,
                &self.relations[key.1].relation,
            )?),
        })
    }

    /// Whether every element that the `r`-th read of statement `s` reads is
    /// written by some statement of the program.
    ///
    /// # Errors
    ///
    /// As [`Analysis::read`], plus [`arrayeq_omega::OmegaError::SpaceMismatch`]
    /// when the read's index count differs from the writes' (or the writes'
    /// differ among themselves).
    pub(crate) fn covers(&mut self, s: usize, r: usize) -> Result<bool> {
        let array: &'p str = &self.statements[s].reads[r].array;
        let read = self.read(s, r)?;
        if let Some(&covered) = self.covered.get(&(read, array)) {
            return Ok(covered);
        }
        if !self.written.contains_key(array) {
            let mut written: Option<Set> = None;
            for &w in self.writers(array) {
                let ws = self.elements(self.writes[w]);
                written = Some(match written {
                    None => ws.clone(),
                    Some(acc) => acc.union(ws)?,
                });
            }
            self.written.insert(array, written);
        }
        let read_set = self.elements(read);
        let covered = match &self.written[array] {
            None => read_set.is_empty(),
            Some(written) => read_set.is_subset(written)?,
        };
        self.covered.insert((read, array), covered);
        Ok(covered)
    }

    /// Interns a relation: returns the id of an equal relation built
    /// earlier, or gives it a new id.
    fn intern(&mut self, relation: Relation) -> RelationId {
        let bucket = self.buckets.entry(relation.structural_hash()).or_default();
        if let Some(&id) = bucket
            .iter()
            .find(|&&id| self.relations[id].relation == relation)
        {
            return id;
        }
        let id = self.relations.len();
        bucket.push(id);
        self.relations.push(Interned {
            relation,
            elements: OnceCell::new(),
            injective: OnceCell::new(),
        });
        id
    }
}

/// The dependency mapping `write⁻¹ ∘ read` of a (write, read) relation pair.
fn dependency_mapping(write: &Relation, read: &Relation) -> Result<Relation> {
    Ok(write.inverse().compose(read)?.simplified(true))
}

/// Context accumulated while descending into loops and guards.
#[derive(Debug, Clone)]
struct Ctx {
    iters: Vec<String>,
    /// DNF of domain constraints accumulated so far.
    domains: Vec<Vec<DomainConstraint>>,
    /// Position constants per loop level (last entry = position in the
    /// current block).
    schedule_consts: Vec<i64>,
}

struct Walker<'p, 'a> {
    defines: &'p BTreeMap<String, i64>,
    symbolic_params: &'p [(String, i64)],
    param_names: Vec<String>,
    out: &'a mut Vec<StatementInfo<'p>>,
}

impl<'p> Walker<'p, '_> {
    fn walk_block(&mut self, stmts: &'p [Stmt], ctx: &mut Ctx) -> Result<()> {
        for s in stmts {
            match s {
                Stmt::Assign(a) => {
                    self.emit(a, ctx)?;
                    *ctx.schedule_consts.last_mut().expect("non-empty") += 1;
                }
                Stmt::For(f) => {
                    let mut inner = ctx.clone();
                    self.push_loop(f, &mut inner)?;
                    self.walk_block(&f.body, &mut inner)?;
                    *ctx.schedule_consts.last_mut().expect("non-empty") += 1;
                }
                Stmt::If(i) => {
                    let mut then_ctx = ctx.clone();
                    add_condition(
                        &mut then_ctx,
                        &i.cond,
                        false,
                        &ctx.iters,
                        &self.param_names,
                        self.defines,
                    )?;
                    // Keep the schedule position shared by both branches but
                    // distinct per statement inside, by continuing to count in
                    // the parent counter through the recursive calls.
                    then_ctx.schedule_consts = ctx.schedule_consts.clone();
                    self.walk_block(&i.then_branch, &mut then_ctx)?;
                    *ctx.schedule_consts.last_mut().expect("non-empty") =
                        *then_ctx.schedule_consts.last().expect("non-empty");

                    let mut else_ctx = ctx.clone();
                    add_condition(
                        &mut else_ctx,
                        &i.cond,
                        true,
                        &ctx.iters,
                        &self.param_names,
                        self.defines,
                    )?;
                    else_ctx.schedule_consts = ctx.schedule_consts.clone();
                    self.walk_block(&i.else_branch, &mut else_ctx)?;
                    *ctx.schedule_consts.last_mut().expect("non-empty") =
                        *else_ctx.schedule_consts.last().expect("non-empty");
                }
            }
        }
        Ok(())
    }

    fn push_loop(&mut self, f: &For, ctx: &mut Ctx) -> Result<()> {
        let context = format!("for-loop over `{}`", f.var);
        if f.step == 0 {
            return Err(LangError::Class {
                message: format!("{context} has step 0"),
            });
        }
        if ctx.iters.contains(&f.var) {
            return Err(LangError::Class {
                message: format!("iterator `{}` shadows an enclosing iterator", f.var),
            });
        }
        if self.param_names.contains(&f.var) {
            return Err(LangError::Class {
                message: format!("iterator `{}` shadows a #param", f.var),
            });
        }
        let outer_iters = ctx.iters.clone();
        ctx.iters.push(f.var.clone());
        let iters = ctx.iters.clone();

        let init = affine_of_expr(
            &f.init,
            &outer_iters,
            &self.param_names,
            self.defines,
            &context,
        )?;
        let var = Affine::var(&f.var);

        let mut constraints = Vec::new();
        if f.step > 0 {
            // var >= init
            let mut lower = var.clone();
            lower.add_scaled(&init, -1);
            constraints.push(DomainConstraint::Geq(lower));
        } else {
            // var <= init
            let mut upper = init.clone();
            upper.add_scaled(&var, -1);
            constraints.push(DomainConstraint::Geq(upper));
        }
        if f.step.abs() > 1 {
            // (var - init) ≡ 0  (mod |step|)
            let mut diff = var.clone();
            diff.add_scaled(&init, -1);
            constraints.push(DomainConstraint::Mod(diff, f.step.abs()));
        }
        // The loop-continuation condition.
        constraints.extend(condition_constraints(
            &f.cond,
            false,
            &iters,
            &self.param_names,
            self.defines,
            &context,
        )?);

        for conj in &mut ctx.domains {
            conj.extend(constraints.iter().cloned());
        }
        ctx.schedule_consts.push(0);
        Ok(())
    }

    fn emit(&mut self, a: &'p Assign, ctx: &Ctx) -> Result<()> {
        let context = format!("statement {}", a.label);
        let write_indices = a
            .lhs
            .indices
            .iter()
            .map(|e| affine_of_expr(e, &ctx.iters, &self.param_names, self.defines, &context))
            .collect::<Result<Vec<_>>>()?;
        self.out.push(StatementInfo {
            label: a.label.clone(),
            position: self.out.len(),
            target: a.lhs.array.clone(),
            write_indices,
            rhs: &a.rhs,
            reads: a.rhs.reads(),
            iters: ctx.iters.clone(),
            domains: ctx.domains.clone(),
            schedule_consts: ctx.schedule_consts.clone(),
            defines: self.defines,
            symbolic_params: self.symbolic_params,
        });
        Ok(())
    }
}

/// Adds an `if` condition (or its negation) to every disjunct of a context.
fn add_condition(
    ctx: &mut Ctx,
    cond: &Cond,
    negate: bool,
    iters: &[String],
    params: &[String],
    defines: &BTreeMap<String, i64>,
) -> Result<()> {
    let constraints = condition_constraints(cond, negate, iters, params, defines, "if condition")?;
    // `!=` (or a negated `==`) yields a disjunction of two constraints; any
    // other comparison yields a single conjunction.  `condition_constraints`
    // encodes the disjunctive case by returning `DisjunctionMarker`-free pairs
    // handled here: when two Geq constraints are returned for an (in)equality
    // split, each goes into its own copy of the DNF.
    match constraints.as_slice() {
        [only] => {
            for conj in &mut ctx.domains {
                conj.push(only.clone());
            }
        }
        [a, b] if is_disequality_split(cond, negate) => {
            let mut doubled = Vec::with_capacity(ctx.domains.len() * 2);
            for conj in &ctx.domains {
                let mut left = conj.clone();
                left.push(a.clone());
                doubled.push(left);
                let mut right = conj.clone();
                right.push(b.clone());
                doubled.push(right);
            }
            ctx.domains = doubled;
        }
        many => {
            for conj in &mut ctx.domains {
                conj.extend(many.iter().cloned());
            }
        }
    }
    Ok(())
}

/// Whether the (possibly negated) condition is a disequality, which lowers to
/// a *union* of two half-spaces rather than a conjunction.
fn is_disequality_split(cond: &Cond, negate: bool) -> bool {
    matches!((cond.op, negate), (CmpOp::Ne, false) | (CmpOp::Eq, true))
}

/// Lowers a single comparison (possibly negated) into domain constraints.
fn condition_constraints(
    cond: &Cond,
    negate: bool,
    iters: &[String],
    params: &[String],
    defines: &BTreeMap<String, i64>,
    context: &str,
) -> Result<Vec<DomainConstraint>> {
    let l = affine_of_expr(&cond.lhs, iters, params, defines, context)?;
    let r = affine_of_expr(&cond.rhs, iters, params, defines, context)?;
    let op = if negate { cond.op.negated() } else { cond.op };
    // diff_ge: r - l, diff_le: l - r
    let mut r_minus_l = r.clone();
    r_minus_l.add_scaled(&l, -1);
    let mut l_minus_r = l.clone();
    l_minus_r.add_scaled(&r, -1);
    Ok(match op {
        CmpOp::Lt => {
            let mut d = r_minus_l;
            d.konst -= 1;
            vec![DomainConstraint::Geq(d)]
        }
        CmpOp::Le => vec![DomainConstraint::Geq(r_minus_l)],
        CmpOp::Gt => {
            let mut d = l_minus_r;
            d.konst -= 1;
            vec![DomainConstraint::Geq(d)]
        }
        CmpOp::Ge => vec![DomainConstraint::Geq(l_minus_r)],
        CmpOp::Eq => vec![DomainConstraint::Eq(l_minus_r)],
        CmpOp::Ne => {
            // l < r  or  l > r — two half-spaces, turned into a DNF split by
            // the caller.
            let mut lt = r_minus_l;
            lt.konst -= 1;
            let mut gt = l_minus_r;
            gt.konst -= 1;
            vec![DomainConstraint::Geq(lt), DomainConstraint::Geq(gt)]
        }
    })
}

impl StatementInfo<'_> {
    /// Names of the program's symbolic parameters, in declaration order.
    pub fn param_names(&self) -> Vec<String> {
        self.symbolic_params
            .iter()
            .map(|(n, _)| n.clone())
            .collect()
    }

    /// Adds each parameter's declared lower bound (`param − min ≥ 0`) to a
    /// conjunct, so feasibility queries see the `#param N >= min` context.
    fn add_param_bounds(&self, c: &mut Conjunct) {
        for (p, (_, min)) in self.symbolic_params.iter().enumerate() {
            let mut e = c.zero_expr();
            e.set_coeff(c.col(VarKind::Param, p), 1);
            e.set_constant(-*min);
            c.add(Constraint::geq(e));
        }
    }

    /// The iteration-domain [`Set`] over the statement's iterators.
    pub fn iteration_domain(&self) -> Result<Set> {
        let params = self.param_names();
        let space = Space::set(&self.iters, &params);
        let mut conjuncts = Vec::new();
        for disjunct in &self.domains {
            let mut c = Conjunct::universe(space.clone());
            for dc in disjunct {
                c.add(lower_domain_constraint(dc, &c, &self.iters, &params));
            }
            self.add_param_bounds(&mut c);
            conjuncts.push(c);
        }
        Ok(Set::from_relation(Relation::from_conjuncts(
            space, conjuncts,
        )))
    }

    /// The write access relation `{ [iters] -> [element] : iters ∈ domain }`.
    pub fn write_relation(&self) -> Result<Relation> {
        self.access_relation(&self.write_indices)
    }

    /// The read access relation of one right-hand-side array operand.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::NotAffine`] if the access's index expressions are
    /// not affine in the statement's iterators.
    pub fn read_relation(&self, access: &ArrayRef) -> Result<Relation> {
        let context = format!("read of {} in statement {}", access.array, self.label);
        let idx = access
            .indices
            .iter()
            .map(|e| affine_of_expr(e, &self.iters, &self.param_names(), self.defines, &context))
            .collect::<Result<Vec<_>>>()?;
        self.access_relation(&idx)
    }

    /// The set of array elements written by the statement (the range of the
    /// write relation).
    pub fn write_element_set(&self) -> Result<Set> {
        Ok(self.write_relation()?.range())
    }

    /// The *dependency mapping* of the paper for one operand: from elements
    /// of the defined array to the elements of the operand array they are
    /// computed from (`write⁻¹ ∘ read`).
    pub fn dependency_mapping(&self, access: &ArrayRef) -> Result<Relation> {
        dependency_mapping(&self.write_relation()?, &self.read_relation(access)?)
    }

    /// The lexicographic schedule components of this statement: alternating
    /// block-position constants and iterator dimensions (the classic `2d+1`
    /// encoding).
    pub fn schedule_components(&self) -> Vec<ScheduleComponent> {
        let mut out = Vec::with_capacity(self.iters.len() * 2 + 1);
        for (level, &c) in self.schedule_consts.iter().enumerate() {
            out.push(ScheduleComponent::Const(c));
            if level < self.iters.len() {
                out.push(ScheduleComponent::Iter(level));
            }
        }
        out
    }

    fn access_relation(&self, indices: &[Affine]) -> Result<Relation> {
        let params = self.param_names();
        let out_names: Vec<String> = (0..indices.len()).map(|d| format!("d{d}")).collect();
        let space = Space::relation(&self.iters, &out_names, &params);
        let mut conjuncts = Vec::new();
        for disjunct in &self.domains {
            let mut c = Conjunct::universe(space.clone());
            for dc in disjunct {
                c.add(lower_domain_constraint(dc, &c, &self.iters, &params));
            }
            self.add_param_bounds(&mut c);
            for (d, a) in indices.iter().enumerate() {
                // a(iters) - out_d = 0
                let mut e = a.to_linexpr(&c, &self.iters, &params, VarKind::In);
                e.set_coeff(c.col(VarKind::Out, d), -1);
                c.add(Constraint::eq(e));
            }
            c.simplify();
            conjuncts.push(c);
        }
        Ok(Relation::from_conjuncts(space, conjuncts))
    }
}

/// One component of a statement's lexicographic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleComponent {
    /// A textual-position constant.
    Const(i64),
    /// The iterator at the given nesting level (index into `iters`).
    Iter(usize),
}

fn lower_domain_constraint(
    dc: &DomainConstraint,
    conj: &Conjunct,
    iters: &[String],
    params: &[String],
) -> Constraint {
    match dc {
        DomainConstraint::Geq(a) => Constraint::geq(a.to_linexpr(conj, iters, params, VarKind::In)),
        DomainConstraint::Eq(a) => Constraint::eq(a.to_linexpr(conj, iters, params, VarKind::In)),
        DomainConstraint::Mod(a, m) => {
            Constraint::congruent(a.to_linexpr(conj, iters, params, VarKind::In), *m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{FIG1_A, FIG1_B, FIG1_D};
    use crate::parser::parse_program;

    fn program(src: &str) -> Program {
        parse_program(src).unwrap()
    }

    #[test]
    fn fig1a_statement_s2_dependency_mappings_match_paper() {
        // The paper's Section 3.2 example: for statement s2 of (a),
        // M_{buf,A1} = {[x]->[y] : x = 2k-2, y = 2k-2, 1<=k<=1024}
        // M_{buf,A2} = {[x]->[y] : x = 2k-2, y = k-1,  1<=k<=1024}
        let p = program(FIG1_A);
        let analysis = Analysis::new(&p).unwrap();
        let infos = analysis.statements();
        let s2 = infos.iter().find(|i| i.label == "s2").unwrap();
        let reads = &s2.reads;
        assert_eq!(reads.len(), 2);
        let m1 = s2.dependency_mapping(reads[0]).unwrap();
        let m2 = s2.dependency_mapping(reads[1]).unwrap();
        let expect1 = Relation::parse(
            "{ [x] -> [y] : exists k : x = 2k - 2 and y = 2k - 2 and 1 <= k <= 1024 }",
        )
        .unwrap();
        let expect2 = Relation::parse(
            "{ [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }",
        )
        .unwrap();
        assert!(m1.is_equal(&expect1).unwrap());
        assert!(m2.is_equal(&expect2).unwrap());
        assert!(!m1.is_equal(&expect2).unwrap());
    }

    #[test]
    fn fig1a_iteration_domains() {
        let p = program(FIG1_A);
        let analysis = Analysis::new(&p).unwrap();
        let infos = analysis.statements();
        let s1 = &infos[0];
        assert_eq!(s1.label, "s1");
        let dom = s1.iteration_domain().unwrap();
        assert!(dom.contains(&[0], &[]));
        assert!(dom.contains(&[1023], &[]));
        assert!(!dom.contains(&[1024], &[]));
        assert!(!dom.contains(&[-1], &[]));
        // Down-counting loop of s2: 1 <= k <= 1024.
        let s2 = &infos[1];
        let dom2 = s2.iteration_domain().unwrap();
        assert!(dom2.contains(&[1], &[]));
        assert!(dom2.contains(&[1024], &[]));
        assert!(!dom2.contains(&[0], &[]));
    }

    #[test]
    fn guarded_statements_get_guard_constraints() {
        let p = program(FIG1_B);
        let analysis = Analysis::new(&p).unwrap();
        let infos = analysis.statements();
        let t3 = infos.iter().find(|i| i.label == "t3").unwrap();
        let d3 = t3.iteration_domain().unwrap();
        assert!(d3.contains(&[0], &[]));
        assert!(d3.contains(&[511], &[]));
        assert!(!d3.contains(&[512], &[]));
        let t4 = infos.iter().find(|i| i.label == "t4").unwrap();
        let d4 = t4.iteration_domain().unwrap();
        assert!(!d4.contains(&[511], &[]));
        assert!(d4.contains(&[512], &[]));
        assert!(d4.contains(&[1023], &[]));
        assert!(!d4.contains(&[1024], &[]));
    }

    #[test]
    fn strided_loops_produce_congruences() {
        let p = program(FIG1_D);
        let analysis = Analysis::new(&p).unwrap();
        let infos = analysis.statements();
        let v1 = infos.iter().find(|i| i.label == "v1").unwrap();
        let d = v1.iteration_domain().unwrap();
        assert!(d.contains(&[0], &[]));
        assert!(d.contains(&[2046], &[]));
        assert!(!d.contains(&[3], &[]));
        assert!(!d.contains(&[2047], &[]));
        let v2 = infos.iter().find(|i| i.label == "v2").unwrap();
        let d2 = v2.iteration_domain().unwrap();
        assert!(d2.contains(&[1], &[]));
        assert!(!d2.contains(&[2], &[]));
    }

    #[test]
    fn write_relations_and_element_sets() {
        let p = program(FIG1_A);
        let analysis = Analysis::new(&p).unwrap();
        let infos = analysis.statements();
        let s2 = &infos[1];
        let w = s2.write_relation().unwrap();
        // k = 1 writes buf[0]; k = 1024 writes buf[2046].
        assert!(w.contains(&[1], &[0], &[]));
        assert!(w.contains(&[1024], &[2046], &[]));
        assert!(!w.contains(&[1], &[1], &[]));
        let elems = s2.write_element_set().unwrap();
        assert!(elems.contains(&[0], &[]));
        assert!(elems.contains(&[2], &[]));
        assert!(!elems.contains(&[1], &[])); // only even elements are written
    }

    #[test]
    fn schedule_components_follow_textual_order() {
        let p = program(FIG1_A);
        let analysis = Analysis::new(&p).unwrap();
        let infos = analysis.statements();
        let s1 = &infos[0];
        let s3 = &infos[2];
        assert_eq!(s1.schedule_consts, vec![0, 0]);
        assert_eq!(s3.schedule_consts, vec![2, 0]);
        assert_eq!(s1.schedule_components().len(), 3);
        assert!(matches!(
            s1.schedule_components()[1],
            ScheduleComponent::Iter(0)
        ));
    }

    #[test]
    fn non_affine_expressions_are_rejected() {
        let src = r#"
void f(int A[], int C[]) {
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            C[i*j] = A[i] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        assert!(matches!(
            Analysis::new(&p),
            Err(LangError::NotAffine { .. })
        ));
    }

    #[test]
    fn affine_arithmetic_helpers() {
        let defines = BTreeMap::from([("N".to_string(), 8i64)]);
        let iters = vec!["i".to_string()];
        let e = Expr::sub(
            Expr::mul(Expr::Const(2), Expr::var("i")),
            Expr::sub(Expr::var("N"), Expr::Const(1)),
        );
        let a = affine_of_expr(&e, &iters, &[], &defines, "test").unwrap();
        assert_eq!(a.coeffs["i"], 2);
        assert_eq!(a.konst, -7);
        let env = BTreeMap::from([("i".to_string(), 5i64)]);
        assert_eq!(a.eval(&env), 3);
        assert!(Affine::constant(4).is_constant());
    }

    #[test]
    fn parametric_domains_and_instantiation_agree() {
        let p = parse_program(crate::corpus::PARAM_SUM_A).unwrap();
        let analysis = Analysis::new(&p).unwrap();
        let a1 = &analysis.statements()[0];
        assert_eq!(a1.param_names(), vec!["N".to_string()]);
        let dom = a1.iteration_domain().unwrap();
        // 0 <= k < N under the declared context N >= 1.
        assert!(dom.contains(&[0], &[1]));
        assert!(dom.contains(&[9], &[10]));
        assert!(!dom.contains(&[10], &[10]));
        assert!(!dom.contains(&[0], &[0])); // violates the #param bound

        // Instantiating N gives the same domain with the column gone.
        let inst = p.with_param_values(&[("N".into(), 16)]);
        let dom16 = Analysis::new(&inst).unwrap().statements()[0]
            .iteration_domain()
            .unwrap();
        for k in -2..20 {
            assert_eq!(
                dom16.contains(&[k], &[]),
                dom.contains(&[k], &[16]),
                "k = {k}"
            );
        }
    }
}
