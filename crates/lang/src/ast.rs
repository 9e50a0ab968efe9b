//! Abstract syntax tree for the restricted program class.

use std::collections::BTreeMap;
use std::fmt;

/// A comparison operator used in loop conditions and `if` conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// The logical negation (e.g. `<` becomes `>=`).
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
        }
    }

    /// Evaluates the comparison on concrete values.
    pub fn eval(self, l: i64, r: i64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        };
        write!(f, "{s}")
    }
}

/// A binary arithmetic operator appearing in right-hand sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division)
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// An array access `A[i][2*j + 1]`.  Scalars are modelled as arrays with an
/// empty index list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The array (or scalar) name.
    pub array: String,
    /// One index expression per dimension.
    pub indices: Vec<Expr>,
}

impl ArrayRef {
    /// Convenience constructor.
    pub fn new(array: impl Into<String>, indices: Vec<Expr>) -> Self {
        ArrayRef {
            array: array.into(),
            indices,
        }
    }
}

/// An expression appearing on the right-hand side of an assignment or inside
/// an index / bound / condition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Scalar variable reference (loop iterator or `#define` constant).
    Var(String),
    /// Array element read.
    Access(ArrayRef),
    /// Binary arithmetic.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Call of an (uninterpreted or user-declared) pure function.
    Call(String, Vec<Expr>),
}

// The `add`/`sub`/`mul` names mirror the operator being built; they are
// two-operand static constructors, not `self`-taking arithmetic, so the
// std operator traits do not fit.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `lhs + rhs`
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(lhs), Box::new(rhs))
    }
    /// `lhs - rhs`
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(lhs), Box::new(rhs))
    }
    /// `lhs * rhs`
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(lhs), Box::new(rhs))
    }
    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }
    /// A 1-D array access.
    pub fn access1(array: impl Into<String>, index: Expr) -> Expr {
        Expr::Access(ArrayRef::new(array, vec![index]))
    }

    /// All array reads occurring in this expression, left to right.
    pub fn reads(&self) -> Vec<&ArrayRef> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a ArrayRef>) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Access(a) => out.push(a),
            Expr::Bin(_, l, r) => {
                l.collect_reads(out);
                r.collect_reads(out);
            }
            Expr::Neg(e) => e.collect_reads(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_reads(out);
                }
            }
        }
    }

    /// Number of binary-operator applications in the expression (a simple
    /// size measure used by the operation-count statistics).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Access(_) => 0,
            Expr::Bin(_, l, r) => 1 + l.op_count() + r.op_count(),
            Expr::Neg(e) => e.op_count(),
            Expr::Call(_, args) => 1 + args.iter().map(Expr::op_count).sum::<usize>(),
        }
    }
}

/// A single comparison `lhs op rhs` used as a loop condition or `if` guard.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cond {
    /// Left-hand operand.
    pub lhs: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand operand.
    pub rhs: Expr,
}

impl Cond {
    /// Convenience constructor.
    pub fn new(lhs: Expr, op: CmpOp, rhs: Expr) -> Self {
        Cond { lhs, op, rhs }
    }
}

/// A `for` loop with affine bounds and a constant step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct For {
    /// The iterator variable.
    pub var: String,
    /// Initial value of the iterator.
    pub init: Expr,
    /// Loop-continuation condition (`var op bound`).
    pub cond: Cond,
    /// Constant step added each iteration (negative for down-counting loops).
    pub step: i64,
    /// Loop body.
    pub body: Vec<Stmt>,
}

/// An `if`/`else` statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct If {
    /// The guard condition.
    pub cond: Cond,
    /// Statements executed when the guard holds.
    pub then_branch: Vec<Stmt>,
    /// Statements executed when the guard does not hold (possibly empty).
    pub else_branch: Vec<Stmt>,
}

/// A labelled assignment `label: A[f(i)] = rhs;`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assign {
    /// The statement label (`s1`, `t3`, ...).  Labels are generated when the
    /// source text does not provide one.
    pub label: String,
    /// The defined array element.
    pub lhs: ArrayRef,
    /// The computed value.
    pub rhs: Expr,
}

/// A statement of the restricted language.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// A `for` loop.
    For(For),
    /// An `if`/`else`.
    If(If),
    /// A labelled assignment.
    Assign(Assign),
}

/// How an array parameter is used by the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayRole {
    /// Only read: an input of the function.
    Input,
    /// Only written: an output of the function.
    Output,
    /// Both read and written (allowed only for locals in the class).
    Intermediate,
}

impl ArrayRole {
    /// The role of an array parameter that the function writes (`written`)
    /// and reads (`read`).  A parameter that is never written is an input.
    pub fn of(written: bool, read: bool) -> ArrayRole {
        match (written, read) {
            (true, false) => ArrayRole::Output,
            (false, _) => ArrayRole::Input,
            (true, true) => ArrayRole::Intermediate,
        }
    }

    /// Whether the role makes the parameter an output of the function: it
    /// is written, and perhaps read as well.
    pub fn is_output(self) -> bool {
        matches!(self, ArrayRole::Output | ArrayRole::Intermediate)
    }
}

/// A local array (or scalar) declaration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Decl {
    /// Variable name.
    pub name: String,
    /// Declared sizes, one per dimension; empty for scalars (iterators).
    pub dims: Vec<Expr>,
}

/// A complete program function in the restricted class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Function name.
    pub name: String,
    /// `#define` constants, in declaration order.
    pub defines: BTreeMap<String, i64>,
    /// Array parameter names, in declaration order.
    pub params: Vec<String>,
    /// Symbolic size parameters (`#param N >= 1`): name and declared lower
    /// bound.  Unlike `defines`, these have no concrete value — loop bounds
    /// and index expressions over them stay symbolic all the way into the
    /// omega layer, so one verification covers every admissible value.
    pub symbolic_params: Vec<(String, i64)>,
    /// Local declarations (iterators and intermediate arrays).
    pub decls: Vec<Decl>,
    /// Function body.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Iterates over all assignment statements in program (textual) order.
    pub fn statements(&self) -> impl Iterator<Item = &Assign> {
        fn walk<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Assign>) {
            for s in stmts {
                match s {
                    Stmt::Assign(a) => out.push(a),
                    Stmt::For(f) => walk(&f.body, out),
                    Stmt::If(i) => {
                        walk(&i.then_branch, out);
                        walk(&i.else_branch, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.body, &mut out);
        out.into_iter()
    }

    /// Looks up an assignment by its label.
    pub fn statement(&self, label: &str) -> Option<&Assign> {
        self.statements().find(|a| a.label == label)
    }

    /// All array names written anywhere in the function.
    pub fn written_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in self.statements() {
            if !out.contains(&a.lhs.array) {
                out.push(a.lhs.array.clone());
            }
        }
        out
    }

    /// All array names read anywhere in the function.
    pub fn read_arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in self.statements() {
            for r in a.rhs.reads() {
                if !out.contains(&r.array) {
                    out.push(r.array.clone());
                }
            }
        }
        out
    }

    /// The role each array parameter plays (input / output / intermediate),
    /// inferred from its uses, as the paper does for the `foo` examples.
    pub fn param_roles(&self) -> BTreeMap<String, ArrayRole> {
        let written = self.written_arrays();
        let read = self.read_arrays();
        self.params
            .iter()
            .map(|p| {
                let role = ArrayRole::of(written.contains(p), read.contains(p));
                (p.clone(), role)
            })
            .collect()
    }

    /// The parameters that act as inputs (only read).
    pub fn input_arrays(&self) -> Vec<String> {
        self.param_roles()
            .into_iter()
            .filter(|(_, r)| *r == ArrayRole::Input)
            .map(|(n, _)| n)
            .collect()
    }

    /// The parameters that act as outputs (written).
    pub fn output_arrays(&self) -> Vec<String> {
        self.param_roles()
            .into_iter()
            .filter(|(_, r)| r.is_output())
            .map(|(n, _)| n)
            .collect()
    }

    /// Local arrays holding intermediate values (declared locally and both
    /// written and read, such as `tmp[]` and `buf[]` in Fig. 1).
    pub fn intermediate_arrays(&self) -> Vec<String> {
        self.decls
            .iter()
            .filter(|d| !d.dims.is_empty())
            .map(|d| d.name.clone())
            .collect()
    }

    /// The value of a `#define` constant, if present.
    pub fn define(&self, name: &str) -> Option<i64> {
        self.defines.get(name).copied()
    }

    /// The declared lower bound of a symbolic parameter, if present.
    pub fn symbolic_param(&self, name: &str) -> Option<i64> {
        self.symbolic_params
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, min)| min)
    }

    /// A concrete instantiation of this program: every symbolic parameter is
    /// replaced by the given value (turned into a `#define`).  Used by the
    /// interpreter and by the concrete sweeps that cross-check parametric
    /// verdicts.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not assign exactly the symbolic parameters.
    pub fn with_param_values(&self, values: &[(String, i64)]) -> Program {
        assert_eq!(
            values.len(),
            self.symbolic_params.len(),
            "instantiation must assign every symbolic parameter"
        );
        let mut out = self.clone();
        for (name, value) in values {
            assert!(
                self.symbolic_param(name).is_some(),
                "no symbolic parameter named `{name}`"
            );
            out.defines.insert(name.clone(), *value);
        }
        out.symbolic_params.clear();
        out
    }

    /// Total number of assignment statements.
    pub fn statement_count(&self) -> usize {
        self.statements().count()
    }
}

/// Fluent builder for constructing [`Program`]s programmatically — used by
/// the transformation engine and the synthetic-kernel generators, which need
/// to produce many program variants without going through text.
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    name: String,
    defines: BTreeMap<String, i64>,
    params: Vec<String>,
    symbolic_params: Vec<(String, i64)>,
    decls: Vec<Decl>,
    body: Vec<Stmt>,
}

impl ProgramBuilder {
    /// Starts building a function with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a `#define` constant.
    pub fn define(mut self, name: impl Into<String>, value: i64) -> Self {
        self.defines.insert(name.into(), value);
        self
    }

    /// Adds an array parameter.
    pub fn param(mut self, name: impl Into<String>) -> Self {
        self.params.push(name.into());
        self
    }

    /// Adds a symbolic size parameter (`#param name >= min`).
    pub fn symbolic_param(mut self, name: impl Into<String>, min: i64) -> Self {
        self.symbolic_params.push((name.into(), min));
        self
    }

    /// Adds a local declaration.
    pub fn decl(mut self, name: impl Into<String>, dims: Vec<Expr>) -> Self {
        self.decls.push(Decl {
            name: name.into(),
            dims,
        });
        self
    }

    /// Appends a statement to the function body.
    pub fn stmt(mut self, s: Stmt) -> Self {
        self.body.push(s);
        self
    }

    /// Finishes building.
    pub fn build(self) -> Program {
        Program {
            name: self.name,
            defines: self.defines,
            params: self.params,
            symbolic_params: self.symbolic_params,
            decls: self.decls,
            body: self.body,
        }
    }
}

/// Builds a simple counted loop `for (var = lo; var < hi; var += step)`.
pub fn simple_for(var: &str, lo: i64, hi: i64, step: i64, body: Vec<Stmt>) -> Stmt {
    Stmt::For(For {
        var: var.to_owned(),
        init: Expr::Const(lo),
        cond: Cond::new(Expr::var(var), CmpOp::Lt, Expr::Const(hi)),
        step,
        body,
    })
}

/// Builds a labelled 1-D assignment `label: target[idx] = rhs;`.
pub fn assign1(label: &str, target: &str, idx: Expr, rhs: Expr) -> Stmt {
    Stmt::Assign(Assign {
        label: label.to_owned(),
        lhs: ArrayRef::new(target, vec![idx]),
        rhs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> Program {
        // for (k = 0; k < 4; k++) s1: C[k] = A[k] + B[2k];
        ProgramBuilder::new("foo")
            .define("N", 4)
            .param("A")
            .param("B")
            .param("C")
            .decl("k", vec![])
            .stmt(simple_for(
                "k",
                0,
                4,
                1,
                vec![assign1(
                    "s1",
                    "C",
                    Expr::var("k"),
                    Expr::add(
                        Expr::access1("A", Expr::var("k")),
                        Expr::access1("B", Expr::mul(Expr::Const(2), Expr::var("k"))),
                    ),
                )],
            ))
            .build()
    }

    #[test]
    fn statements_are_enumerated_in_order() {
        let p = tiny_program();
        let labels: Vec<&str> = p.statements().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, vec!["s1"]);
        assert!(p.statement("s1").is_some());
        assert!(p.statement("zz").is_none());
        assert_eq!(p.statement_count(), 1);
    }

    #[test]
    fn roles_are_inferred_from_uses() {
        let p = tiny_program();
        let roles = p.param_roles();
        assert_eq!(roles["A"], ArrayRole::Input);
        assert_eq!(roles["B"], ArrayRole::Input);
        assert_eq!(roles["C"], ArrayRole::Output);
        assert_eq!(p.input_arrays(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(p.output_arrays(), vec!["C".to_string()]);
    }

    #[test]
    fn reads_are_collected_left_to_right() {
        let p = tiny_program();
        let s1 = p.statement("s1").unwrap();
        let reads: Vec<&str> = s1.rhs.reads().iter().map(|r| r.array.as_str()).collect();
        assert_eq!(reads, vec!["A", "B"]);
        // Only the value-level `+` counts; the `2*k` inside the index does not.
        assert_eq!(s1.rhs.op_count(), 1);
    }

    #[test]
    fn op_count_counts_rhs_operators_only_at_value_level() {
        // (A[k] + B[k]) + C[k] has two adds.
        let e = Expr::add(
            Expr::add(
                Expr::access1("A", Expr::var("k")),
                Expr::access1("B", Expr::var("k")),
            ),
            Expr::access1("C", Expr::var("k")),
        );
        assert_eq!(e.op_count(), 2);
    }

    #[test]
    fn cmp_op_helpers() {
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert!(CmpOp::Le.eval(3, 3));
        assert!(!CmpOp::Lt.eval(3, 3));
        assert!(CmpOp::Ne.eval(1, 2));
        assert_eq!(format!("{}", CmpOp::Ge), ">=");
    }

    #[test]
    fn define_lookup_and_intermediates() {
        let p = ProgramBuilder::new("f")
            .define("N", 16)
            .param("A")
            .param("C")
            .decl("k", vec![])
            .decl("tmp", vec![Expr::Const(16)])
            .build();
        assert_eq!(p.define("N"), Some(16));
        assert_eq!(p.define("M"), None);
        assert_eq!(p.intermediate_arrays(), vec!["tmp".to_string()]);
    }
}
