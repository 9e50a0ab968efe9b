//! Fault injection: the one injector of the typical slips a designer makes
//! while applying transformations by hand, and a mutation generator that
//! turns them into *known-inequivalent* program pairs.
//!
//! [`apply_mutation`] plants one [`Mutation`] at one location.  Three kinds
//! are *directed* — [`Mutation::IndexOffset`], [`Mutation::IndexScale`] and
//! [`Mutation::WrongOperator`] carry a hand-chosen offset, factor or target
//! and are only ever planted on request, to exercise the diagnostics of
//! Section 6.1.  [`enumerate_mutations`] lists every other kind over a whole
//! program — off-by-one loop bounds, swapped non-commutative operands, wrong
//! index coefficients, dropped statements — and [`fault_corpus`] curates
//! the results into pairs that stay inside the program class, pass the
//! def-use pre-check (so the equivalence checker proper must find the bug)
//! and are *ground-truth inequivalent*, established independently of the
//! checker by executing both programs on deterministic input fills.
//!
//! The corpus is what the witness engine's end-to-end self-test runs on:
//! for every case the checker must answer `NotEquivalent` and the witness
//! replay must exhibit two different values at a sampled point of the
//! failing domain.

use crate::Result as TransformResult;
use crate::TransformError;
use arrayeq_lang::ast::*;
use arrayeq_lang::corpus::{
    with_size, FIG1_A, FIG1_B, KERNELS, KERNEL_FACTORED_IDENT, KERNEL_IDENT_A, KERNEL_SUB_SHUFFLE_A,
};
use arrayeq_lang::interp::{standard_inputs, Interpreter};
use arrayeq_lang::parser::parse_program;
use arrayeq_lang::passes_checks;
use std::fmt;

/// One mutation the generator can apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Tighten the continuation condition of the `loop_index`-th loop
    /// (pre-order) by one iteration — the classic off-by-one bound.
    OffByOneBound {
        /// Pre-order index of the loop to mutate.
        loop_index: usize,
    },
    /// Bump the initial value of the `loop_index`-th loop by one step,
    /// skipping the first iteration.
    OffByOneStart {
        /// Pre-order index of the loop to mutate.
        loop_index: usize,
    },
    /// Swap the operands of the first non-commutative binary operator
    /// (`-` or `/`) in the labelled statement's right-hand side.
    SwapOperands {
        /// Label of the statement to mutate.
        label: String,
    },
    /// Swap the first two arguments of the first function call in the
    /// labelled statement (uninterpreted functions are not commutative).
    SwapCallArguments {
        /// Label of the statement to mutate.
        label: String,
    },
    /// Replace the first constant index coefficient `c` (with `|c| ≥ 2`) of a
    /// read in the labelled statement by `c − 1` (e.g. `buf[2*k]` → `buf[k]`,
    /// the Fig. 1(d) bug).
    WrongCoefficient {
        /// Label of the statement to mutate.
        label: String,
    },
    /// Remove the labelled statement entirely.  Only applicable when its
    /// array has another defining statement, so the mutant keeps a comparable
    /// interface and the bug manifests as a partially-undefined output.
    DropStatement {
        /// Label of the statement to remove.
        label: String,
    },
    /// Break the first factored product `x*(y+z)` (or `(y+z)*x`) in the
    /// labelled statement into `x*y + z` — a distribution applied to only
    /// one summand, the classic slip when expanding by hand.  The extended
    /// method's one-level distribution must reject the pair.
    BreakDistribution {
        /// Label of the statement to mutate.
        label: String,
    },
    /// Drop the first identity operand (`e + 0` or `e * 1`) of the labelled
    /// statement *and* perturb the surviving sibling's first read by one
    /// index position.  Dropping the identity alone is equivalence-
    /// preserving (exactly what identity elimination normalises away), so
    /// the mutation hides a real bug under the cosmetic change.
    DropIdentityOperand {
        /// Label of the statement to mutate.
        label: String,
    },
    /// Add `delta` to the first index of the labelled statement's first
    /// read (an off-by-`delta` index, like `buf[k]` for `buf[2*k]` in
    /// Fig. 1(d)).  Directed: never enumerated.
    IndexOffset {
        /// Label of the statement to mutate.
        label: String,
        /// The offset added to the index.
        delta: i64,
    },
    /// Multiply the first index of the labelled statement's first read by
    /// `factor`.  Directed: never enumerated.
    IndexScale {
        /// Label of the statement to mutate.
        label: String,
        /// The factor the index is multiplied by.
        factor: i64,
    },
    /// Replace the top-level operator of the labelled statement's
    /// right-hand side (`+` by `-`, `-` and `*` by `+`, `/` by `*`).
    /// Directed: never enumerated.
    WrongOperator {
        /// Label of the statement to mutate.
        label: String,
    },
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::OffByOneBound { loop_index } => write!(f, "off-by-one-bound@L{loop_index}"),
            Mutation::OffByOneStart { loop_index } => write!(f, "off-by-one-start@L{loop_index}"),
            Mutation::SwapOperands { label } => write!(f, "swap-operands@{label}"),
            Mutation::SwapCallArguments { label } => write!(f, "swap-call-args@{label}"),
            Mutation::WrongCoefficient { label } => write!(f, "wrong-coefficient@{label}"),
            Mutation::DropStatement { label } => write!(f, "drop-statement@{label}"),
            Mutation::BreakDistribution { label } => write!(f, "break-distribution@{label}"),
            Mutation::DropIdentityOperand { label } => write!(f, "drop-identity@{label}"),
            Mutation::IndexOffset { label, delta } => write!(f, "index-offset{delta:+}@{label}"),
            Mutation::IndexScale { label, factor } => write!(f, "index-scale*{factor}@{label}"),
            Mutation::WrongOperator { label } => write!(f, "wrong-operator@{label}"),
        }
    }
}

/// Applies a mutation to a program.
///
/// # Errors
///
/// [`TransformError::NoSuchLocation`] when the loop index / label does not
/// exist, [`TransformError::NotApplicable`] when the statement's shape does
/// not admit the mutation.
pub fn apply_mutation(p: &Program, m: &Mutation) -> TransformResult<Program> {
    let mut out = p.clone();
    let applied = match m {
        Mutation::OffByOneBound { loop_index } => {
            mutate_loop(&mut out.body, *loop_index, &mut |f| {
                let delta = match f.cond.op {
                    CmpOp::Lt | CmpOp::Le => -1,
                    CmpOp::Gt | CmpOp::Ge => 1,
                    _ => return false,
                };
                f.cond.rhs = Expr::add(f.cond.rhs.clone(), Expr::Const(delta));
                true
            })
        }
        Mutation::OffByOneStart { loop_index } => {
            mutate_loop(&mut out.body, *loop_index, &mut |f| {
                f.init = Expr::add(f.init.clone(), Expr::Const(f.step));
                true
            })
        }
        Mutation::SwapOperands { label } => mutate_stmt(&mut out.body, label, &mut |a| {
            swap_noncommutative(&mut a.rhs)
        }),
        Mutation::SwapCallArguments { label } => {
            mutate_stmt(&mut out.body, label, &mut |a| swap_call_args(&mut a.rhs))
        }
        Mutation::WrongCoefficient { label } => {
            mutate_stmt(&mut out.body, label, &mut |a| scale_down_coeff(&mut a.rhs))
        }
        Mutation::BreakDistribution { label } => mutate_stmt(&mut out.body, label, &mut |a| {
            break_distribution(&mut a.rhs)
        }),
        Mutation::DropIdentityOperand { label } => mutate_stmt(&mut out.body, label, &mut |a| {
            drop_identity_and_perturb(&mut a.rhs)
        }),
        Mutation::IndexOffset { label, delta } => mutate_stmt(&mut out.body, label, &mut |a| {
            offset_first_read(&mut a.rhs, *delta)
        }),
        Mutation::IndexScale { label, factor } => mutate_stmt(&mut out.body, label, &mut |a| {
            first_read_index(&mut a.rhs)
                .map(|i| *i = Expr::mul(Expr::Const(*factor), i.clone()))
                .is_some()
        }),
        Mutation::WrongOperator { label } => mutate_stmt(&mut out.body, label, &mut |a| {
            let Expr::Bin(op, _, _) = &mut a.rhs else {
                return false;
            };
            *op = match op {
                BinOp::Add => BinOp::Sub,
                BinOp::Sub | BinOp::Mul => BinOp::Add,
                BinOp::Div => BinOp::Mul,
            };
            true
        }),
        Mutation::DropStatement { label } => {
            let Some(target) = p.statement(label) else {
                return Err(TransformError::NoSuchLocation {
                    message: format!("no statement labelled `{label}`"),
                });
            };
            let array = target.lhs.array.clone();
            let other_defs = p
                .statements()
                .filter(|a| a.lhs.array == array && a.label != *label)
                .count();
            if other_defs == 0 {
                return Err(TransformError::NotApplicable {
                    message: format!(
                        "`{label}` is the only definition of `{array}`; dropping it would \
                         remove the array from the interface"
                    ),
                });
            }
            drop_stmt(&mut out.body, label);
            Some(true)
        }
    };
    match applied {
        None => Err(TransformError::NoSuchLocation {
            message: format!("mutation target of {m} does not exist"),
        }),
        Some(false) => Err(TransformError::NotApplicable {
            message: format!("{m} does not apply"),
        }),
        Some(true) => Ok(out),
    }
}

/// Enumerates every mutation that structurally applies to `p`, with the
/// mutated program.  The directed kinds ([`Mutation::IndexOffset`],
/// [`Mutation::IndexScale`], [`Mutation::WrongOperator`]) are not listed.
pub fn enumerate_mutations(p: &Program) -> Vec<(Mutation, Program)> {
    let mut candidates = Vec::new();
    let n_loops = count_loops(&p.body);
    for i in 0..n_loops {
        candidates.push(Mutation::OffByOneBound { loop_index: i });
        candidates.push(Mutation::OffByOneStart { loop_index: i });
    }
    for a in p.statements() {
        for m in [
            Mutation::SwapOperands {
                label: a.label.clone(),
            },
            Mutation::SwapCallArguments {
                label: a.label.clone(),
            },
            Mutation::WrongCoefficient {
                label: a.label.clone(),
            },
            Mutation::DropStatement {
                label: a.label.clone(),
            },
            Mutation::BreakDistribution {
                label: a.label.clone(),
            },
            Mutation::DropIdentityOperand {
                label: a.label.clone(),
            },
        ] {
            candidates.push(m);
        }
    }
    candidates
        .into_iter()
        .filter_map(|m| apply_mutation(p, &m).ok().map(|q| (m, q)))
        .filter(|(_, q)| q != p)
        .collect()
}

/// One curated fault-injection case: a program, a mutation, and the mutant —
/// guaranteed in-class, def-use-clean and *observably* inequivalent (the two
/// programs produce different outputs on a deterministic input fill).
#[derive(Debug, Clone)]
pub struct FaultCase {
    /// `"<program>-<mutation>"`, unique within the corpus.
    pub name: String,
    /// The unmutated program.
    pub original: Program,
    /// The mutated program.
    pub mutant: Program,
    /// The mutation that was applied.
    pub mutation: Mutation,
}

/// Input-fill seeds used for the ground-truth simulation filter (and reused
/// by the witness replay).
pub const GROUND_TRUTH_SEEDS: [u64; 2] = [1, 2];

/// Builds the fault-injection corpus over the standard program corpus.
///
/// Every enumerated mutant is kept only if
///
/// 1. it still parses the class and def-use pre-checks of Fig. 6 (so the
///    equivalence checker proper — not a front-end guard — must find the
///    bug), and
/// 2. executing original and mutant on the deterministic
///    [`standard_inputs`] fills shows *different* output values (ground
///    truth inequivalence, established by simulation, independent of the
///    checker under test).
///
/// The result is deterministic: no randomness beyond the fixed seeds.
pub fn fault_corpus() -> Vec<FaultCase> {
    let sources: Vec<(&str, String)> = vec![
        ("fig1a", with_size(FIG1_A, 64)),
        // Fig. 1(b) keeps its native size: its split output definitions make
        // dropped-statement faults detectable as output-domain mismatches.
        ("fig1b", FIG1_B.to_owned()),
        ("downsample", with_size(kernel("downsample"), 64)),
        ("lifting", with_size(kernel("lifting"), 64)),
        ("sad_tree", with_size(kernel("sad_tree"), 64)),
        ("matvec", with_size(kernel("matvec"), 64)),
        ("recurrence", with_size(kernel("recurrence"), 64)),
        // Hosts for the distribution / identity fault categories (native
        // sizes: their shapes carry extra `#define`s `with_size` ignores).
        ("factored", KERNEL_FACTORED_IDENT.to_owned()),
        ("subshuffle", KERNEL_SUB_SHUFFLE_A.to_owned()),
        ("identfold", KERNEL_IDENT_A.to_owned()),
    ];
    let mut corpus = Vec::new();
    for (pname, src) in &sources {
        let original = parse_program(src).expect("corpus program parses");
        corpus.extend(curated_mutants(pname, &original));
    }
    corpus
}

/// Enumerates the mutations of one program and curates them with the
/// [`fault_corpus`] filters (front-end checks pass, outputs observably
/// differ under simulation).  Public so property tests can build fault
/// cases over *generated* kernels too.
pub fn curated_mutants(name: &str, original: &Program) -> Vec<FaultCase> {
    enumerate_mutations(original)
        .into_iter()
        .filter(|(_, mutant)| passes_checks(mutant))
        .filter(|(_, mutant)| observably_different(original, mutant))
        .map(|(mutation, mutant)| FaultCase {
            name: format!("{name}-{mutation}"),
            original: original.clone(),
            mutant,
            mutation,
        })
        .collect()
}

fn kernel(name: &str) -> &'static str {
    KERNELS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .expect("known kernel")
}

/// Ground truth: do the two programs produce different outputs on at least
/// one deterministic input fill?  Runs that fail (out-of-bounds reads after a
/// bound mutation, …) disqualify the mutant — the corpus only keeps bugs the
/// checker must find by reasoning, not by crashing.
fn observably_different(a: &Program, b: &Program) -> bool {
    let mut any_diff = false;
    for seed in GROUND_TRUTH_SEEDS {
        let inputs = standard_inputs(a, seed);
        let (Ok((ma, _)), Ok((mb, _))) = (
            Interpreter::new(a).run(&inputs),
            Interpreter::new(b).run(&inputs),
        ) else {
            return false;
        };
        for out in a.output_arrays() {
            match (ma.array(&out), mb.array(&out)) {
                (Some(x), Some(y)) => {
                    if x != y {
                        any_diff = true;
                    }
                }
                _ => return false,
            }
        }
    }
    any_diff
}

fn count_loops(stmts: &[Stmt]) -> usize {
    let mut n = 0;
    for s in stmts {
        match s {
            Stmt::For(f) => {
                n += 1 + count_loops(&f.body);
            }
            Stmt::If(i) => {
                n += count_loops(&i.then_branch) + count_loops(&i.else_branch);
            }
            Stmt::Assign(_) => {}
        }
    }
    n
}

/// Applies `f` to the `target`-th loop in pre-order; `None` when the index is
/// out of range, otherwise whether `f` reported success.
fn mutate_loop(
    stmts: &mut [Stmt],
    target: usize,
    f: &mut dyn FnMut(&mut For) -> bool,
) -> Option<bool> {
    fn walk(
        stmts: &mut [Stmt],
        next: &mut usize,
        target: usize,
        f: &mut dyn FnMut(&mut For) -> bool,
    ) -> Option<bool> {
        for s in stmts {
            match s {
                Stmt::For(l) => {
                    if *next == target {
                        return Some(f(l));
                    }
                    *next += 1;
                    if let Some(r) = walk(&mut l.body, next, target, f) {
                        return Some(r);
                    }
                }
                Stmt::If(i) => {
                    if let Some(r) = walk(&mut i.then_branch, next, target, f) {
                        return Some(r);
                    }
                    if let Some(r) = walk(&mut i.else_branch, next, target, f) {
                        return Some(r);
                    }
                }
                Stmt::Assign(_) => {}
            }
        }
        None
    }
    let mut next = 0;
    walk(stmts, &mut next, target, f)
}

/// Applies `f` to the assignment labelled `label`; `None` when the label does
/// not exist.
fn mutate_stmt(
    stmts: &mut [Stmt],
    label: &str,
    f: &mut dyn FnMut(&mut Assign) -> bool,
) -> Option<bool> {
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                if a.label == label {
                    return Some(f(a));
                }
            }
            Stmt::For(l) => {
                if let Some(r) = mutate_stmt(&mut l.body, label, f) {
                    return Some(r);
                }
            }
            Stmt::If(i) => {
                if let Some(r) = mutate_stmt(&mut i.then_branch, label, f) {
                    return Some(r);
                }
                if let Some(r) = mutate_stmt(&mut i.else_branch, label, f) {
                    return Some(r);
                }
            }
        }
    }
    None
}

fn drop_stmt(stmts: &mut Vec<Stmt>, label: &str) {
    stmts.retain_mut(|s| match s {
        Stmt::Assign(a) => a.label != label,
        Stmt::For(l) => {
            drop_stmt(&mut l.body, label);
            true
        }
        Stmt::If(i) => {
            drop_stmt(&mut i.then_branch, label);
            drop_stmt(&mut i.else_branch, label);
            true
        }
    });
}

/// Swaps the operands of the first `-` or `/` whose operands differ.
fn swap_noncommutative(e: &mut Expr) -> bool {
    match e {
        Expr::Bin(op @ (BinOp::Sub | BinOp::Div), l, r) if l != r => {
            let _ = op;
            std::mem::swap(l, r);
            true
        }
        Expr::Bin(_, l, r) => swap_noncommutative(l) || swap_noncommutative(r),
        Expr::Neg(inner) => swap_noncommutative(inner),
        Expr::Call(_, _) => false, // handled by SwapCallArguments
        Expr::Const(_) | Expr::Var(_) | Expr::Access(_) => false,
    }
}

/// Swaps the first two arguments of the first call whose arguments differ.
fn swap_call_args(e: &mut Expr) -> bool {
    match e {
        Expr::Call(_, args) if args.len() >= 2 && args[0] != args[1] => {
            args.swap(0, 1);
            true
        }
        Expr::Bin(_, l, r) => swap_call_args(l) || swap_call_args(r),
        Expr::Neg(inner) => swap_call_args(inner),
        _ => false,
    }
}

/// Replaces the first `Const(c) * x` / `x * Const(c)` (|c| ≥ 2) inside a read
/// index by the same product with `c − 1`.
fn scale_down_coeff(e: &mut Expr) -> bool {
    fn in_index(e: &mut Expr) -> bool {
        match e {
            Expr::Bin(BinOp::Mul, l, r) => {
                if let Expr::Const(c) = **l {
                    if c.abs() >= 2 {
                        **l = Expr::Const(c - 1);
                        return true;
                    }
                }
                if let Expr::Const(c) = **r {
                    if c.abs() >= 2 {
                        **r = Expr::Const(c - 1);
                        return true;
                    }
                }
                in_index(l) || in_index(r)
            }
            Expr::Bin(_, l, r) => in_index(l) || in_index(r),
            Expr::Neg(inner) => in_index(inner),
            _ => false,
        }
    }
    match e {
        Expr::Access(r) => r.indices.iter_mut().any(in_index),
        Expr::Bin(_, l, r) => scale_down_coeff(l) || scale_down_coeff(r),
        Expr::Neg(inner) => scale_down_coeff(inner),
        Expr::Call(_, args) => args.iter_mut().any(scale_down_coeff),
        Expr::Const(_) | Expr::Var(_) => false,
    }
}

/// Rewrites the first `x*(y+z)` / `(y+z)*x` into `x*y + z`.
fn break_distribution(e: &mut Expr) -> bool {
    match e {
        Expr::Bin(BinOp::Mul, l, r) => {
            if let Expr::Bin(BinOp::Add, y, z) = (**r).clone() {
                *e = Expr::add(Expr::mul((**l).clone(), *y), *z);
                return true;
            }
            if let Expr::Bin(BinOp::Add, y, z) = (**l).clone() {
                *e = Expr::add(Expr::mul(*y, (**r).clone()), *z);
                return true;
            }
            break_distribution(l) || break_distribution(r)
        }
        Expr::Bin(_, l, r) => break_distribution(l) || break_distribution(r),
        Expr::Neg(inner) => break_distribution(inner),
        Expr::Call(_, args) => args.iter_mut().any(break_distribution),
        Expr::Const(_) | Expr::Var(_) | Expr::Access(_) => false,
    }
}

/// Replaces the first `e + 0` / `0 + e` / `e * 1` / `1 * e` by `e` with its
/// first array read shifted one index position — cosmetic identity removal
/// hiding a genuine off-by-one.
fn drop_identity_and_perturb(e: &mut Expr) -> bool {
    fn try_drop(e: &mut Expr) -> bool {
        let replacement = match e {
            Expr::Bin(BinOp::Add, l, r) => {
                if matches!(**r, Expr::Const(0)) {
                    Some((**l).clone())
                } else if matches!(**l, Expr::Const(0)) {
                    Some((**r).clone())
                } else {
                    None
                }
            }
            Expr::Bin(BinOp::Mul, l, r) => {
                if matches!(**r, Expr::Const(1)) {
                    Some((**l).clone())
                } else if matches!(**l, Expr::Const(1)) {
                    Some((**r).clone())
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(mut kept) = replacement {
            if offset_first_read(&mut kept, 1) {
                *e = kept;
                return true;
            }
            return false; // no read to perturb: dropping alone is equivalent
        }
        match e {
            Expr::Bin(_, l, r) => try_drop(l) || try_drop(r),
            Expr::Neg(inner) => try_drop(inner),
            Expr::Call(_, args) => args.iter_mut().any(try_drop),
            _ => false,
        }
    }
    try_drop(e)
}

/// The first index of the first array read that has one, in the order the
/// expression is written.
fn first_read_index(e: &mut Expr) -> Option<&mut Expr> {
    match e {
        Expr::Access(a) => a.indices.first_mut(),
        Expr::Bin(_, l, r) => first_read_index(l).or_else(|| first_read_index(r)),
        Expr::Neg(inner) => first_read_index(inner),
        Expr::Call(_, args) => args.iter_mut().find_map(first_read_index),
        Expr::Const(_) | Expr::Var(_) => None,
    }
}

/// Adds `delta` to the first array read's first index.
fn offset_first_read(e: &mut Expr, delta: i64) -> bool {
    first_read_index(e)
        .map(|i| *i = Expr::add(i.clone(), Expr::Const(delta)))
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::corpus::KERNEL_SAD_TREE;

    /// A planted bug counts as detected when either the def-use pre-check of
    /// Fig. 6 rejects the transformed program (the read is no longer covered
    /// by a write) or the equivalence check itself reports inequivalence.
    fn not_equiv(a: &Program, b: &Program) -> Option<arrayeq_core::Report> {
        match check_programs(a, b, &CheckOptions::default()) {
            Ok(r) => {
                assert!(!r.is_equivalent(), "bug was not detected: {}", r.summary());
                Some(r)
            }
            Err(arrayeq_core::CoreError::Lang(arrayeq_lang::LangError::DefUse { .. })) => None,
            Err(other) => panic!("unexpected pipeline error: {other}"),
        }
    }

    #[test]
    fn index_offset_is_detected_and_diagnosed() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        let offset = |label: &str, delta| {
            let m = Mutation::IndexOffset {
                label: label.into(),
                delta,
            };
            apply_mutation(&p, &m).unwrap()
        };
        // Offsetting the `buf[2*k]` read of s2 keeps every read covered, so
        // the bug must be found by the equivalence check proper.
        let r = not_equiv(&p, &offset("s2", 2)).expect("caught by the checker, not def-use");
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.transformed_statements.iter().any(|s| s == "s2")));
        // Offsetting the `tmp[k]` read of s3 instead breaks def-use coverage,
        // which the Fig. 6 pre-check reports.
        assert!(not_equiv(&p, &offset("s3", 1)).is_none());
    }

    #[test]
    fn index_scale_and_wrong_operator_are_detected() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        let scale = Mutation::IndexScale {
            label: "s1".into(),
            factor: 3,
        };
        not_equiv(&p, &apply_mutation(&p, &scale).unwrap());
        let wrong_op = Mutation::WrongOperator { label: "s2".into() };
        not_equiv(&p, &apply_mutation(&p, &wrong_op).unwrap());
    }

    #[test]
    fn swapping_arguments_of_a_noncommutative_call_is_detected() {
        let p = parse_program(KERNEL_SAD_TREE).unwrap();
        let m = Mutation::SwapCallArguments { label: "m1".into() };
        // `absd` is uninterpreted (not declared commutative), so swapping its
        // arguments must be flagged.
        not_equiv(&p, &apply_mutation(&p, &m).unwrap());
    }

    #[test]
    fn enumeration_plants_no_directed_kind_and_the_corpus_keeps_its_cases() {
        let directed = |m: &Mutation| {
            matches!(
                m,
                Mutation::IndexOffset { .. }
                    | Mutation::IndexScale { .. }
                    | Mutation::WrongOperator { .. }
            )
        };
        // Each directed kind applies to Fig. 1(a), and none is enumerated.
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        for m in [
            Mutation::IndexOffset {
                label: "s2".into(),
                delta: 2,
            },
            Mutation::IndexScale {
                label: "s1".into(),
                factor: 2,
            },
            Mutation::WrongOperator { label: "s2".into() },
        ] {
            assert!(apply_mutation(&p, &m).is_ok(), "{m}");
        }
        assert!(!enumerate_mutations(&p).iter().any(|(m, _)| directed(m)));
        let corpus = fault_corpus();
        assert!(!corpus.iter().any(|c| directed(&c.mutation)));
        let names: Vec<&str> = corpus.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, FAULT_CORPUS_NAMES);
    }

    /// The names of the fault corpus, in order: `arrayeq corpus mutant:i`
    /// prints case `i`.
    const FAULT_CORPUS_NAMES: [&str; 43] = [
        "fig1a-off-by-one-bound@L2",
        "fig1a-off-by-one-start@L2",
        "fig1a-wrong-coefficient@s1",
        "fig1b-off-by-one-bound@L1",
        "fig1b-off-by-one-start@L1",
        "fig1b-wrong-coefficient@t1",
        "fig1b-wrong-coefficient@t2",
        "fig1b-drop-statement@t3",
        "fig1b-wrong-coefficient@t4",
        "fig1b-drop-statement@t4",
        "downsample-off-by-one-bound@L1",
        "downsample-off-by-one-start@L1",
        "downsample-wrong-coefficient@d1",
        "lifting-off-by-one-bound@L1",
        "lifting-off-by-one-start@L1",
        "lifting-swap-operands@l1",
        "lifting-wrong-coefficient@l1",
        "lifting-wrong-coefficient@l2",
        "sad_tree-off-by-one-bound@L1",
        "sad_tree-off-by-one-start@L1",
        "sad_tree-swap-call-args@m1",
        "sad_tree-wrong-coefficient@m1",
        "sad_tree-swap-call-args@m2",
        "sad_tree-wrong-coefficient@m2",
        "matvec-off-by-one-bound@L0",
        "matvec-off-by-one-start@L0",
        "matvec-wrong-coefficient@v1",
        "recurrence-off-by-one-bound@L0",
        "recurrence-drop-identity@r0",
        "recurrence-drop-statement@r1",
        "factored-off-by-one-bound@L0",
        "factored-off-by-one-start@L0",
        "factored-wrong-coefficient@f1",
        "factored-break-distribution@f1",
        "factored-drop-identity@f1",
        "subshuffle-off-by-one-bound@L1",
        "subshuffle-off-by-one-start@L1",
        "subshuffle-swap-operands@q1",
        "subshuffle-wrong-coefficient@q1",
        "identfold-off-by-one-bound@L0",
        "identfold-off-by-one-start@L0",
        "identfold-wrong-coefficient@i1",
        "identfold-drop-identity@i1",
    ];

    #[test]
    fn corpus_is_nonempty_and_covers_every_mutation_kind() {
        let corpus = fault_corpus();
        assert!(corpus.len() >= 8, "got {} cases", corpus.len());
        let has = |f: &dyn Fn(&Mutation) -> bool| corpus.iter().any(|c| f(&c.mutation));
        assert!(has(&|m| matches!(
            m,
            Mutation::OffByOneBound { .. } | Mutation::OffByOneStart { .. }
        )));
        assert!(has(&|m| matches!(
            m,
            Mutation::SwapOperands { .. } | Mutation::SwapCallArguments { .. }
        )));
        assert!(has(&|m| matches!(m, Mutation::WrongCoefficient { .. })));
        assert!(has(&|m| matches!(m, Mutation::DropStatement { .. })));
        assert!(has(&|m| matches!(m, Mutation::BreakDistribution { .. })));
        assert!(has(&|m| matches!(m, Mutation::DropIdentityOperand { .. })));
        // Names are unique.
        let mut names: Vec<&str> = corpus.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn corpus_members_pass_the_frontend_and_differ_observably() {
        for case in fault_corpus() {
            assert!(passes_checks(&case.mutant), "{}", case.name);
            assert!(
                observably_different(&case.original, &case.mutant),
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn wrong_coefficient_reproduces_the_fig1d_style_bug() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        let m = Mutation::WrongCoefficient { label: "s3".into() };
        let q = apply_mutation(&p, &m).unwrap();
        // s3: C[k] = tmp[k] + buf[2*k]  →  buf[1*k]
        let s3 = q.statement("s3").unwrap();
        let reads = s3.rhs.reads();
        assert!(reads
            .iter()
            .any(|r| r.array == "buf" && format!("{:?}", r.indices[0]).contains("Const(1)")));
    }

    #[test]
    fn break_distribution_expands_only_one_summand() {
        let p = parse_program(KERNEL_FACTORED_IDENT).unwrap();
        let m = Mutation::BreakDistribution { label: "f1".into() };
        let q = apply_mutation(&p, &m).unwrap();
        // f1: C[k] = G[k] * (A[k] + B[2*k]) + 0  →  G[k]*A[k] + B[2*k] + 0
        let reads: Vec<&str> = q
            .statement("f1")
            .unwrap()
            .rhs
            .reads()
            .iter()
            .map(|r| r.array.as_str())
            .collect();
        assert_eq!(reads, vec!["G", "A", "B"]);
        assert!(
            observably_different(&p, &q),
            "broken distribution is a real bug"
        );
    }

    #[test]
    fn drop_identity_perturbs_the_surviving_sibling() {
        let p = parse_program(KERNEL_IDENT_A).unwrap();
        let m = Mutation::DropIdentityOperand { label: "i1".into() };
        let q = apply_mutation(&p, &m).unwrap();
        assert_ne!(p, q);
        // The `+ 0` is gone and the sibling read shifted: X[k] → X[k + 1].
        let i1 = q.statement("i1").unwrap();
        let x = i1.rhs.reads()[0].clone();
        assert_eq!(x.array, "X");
        assert!(format!("{:?}", x.indices[0]).contains("Const(1)"));
        assert!(observably_different(&p, &q));
        // Dropping the identity *without* the perturbation stays equivalent —
        // the whole point of identity elimination — so a rhs with no reads
        // next to its identity is NotApplicable rather than a silent no-op.
        let only_const = parse_program(
            "#define N 8
void f(int A[], int C[]) { int k; for (k=0;k<N;k++) s1: C[k] = 7 + 0; }",
        )
        .unwrap();
        assert!(matches!(
            apply_mutation(
                &only_const,
                &Mutation::DropIdentityOperand { label: "s1".into() }
            ),
            Err(TransformError::NotApplicable { .. })
        ));
    }

    #[test]
    fn drop_statement_requires_another_definition() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        // s3 is the only definition of C: dropping must be rejected.
        assert!(matches!(
            apply_mutation(&p, &Mutation::DropStatement { label: "s3".into() }),
            Err(TransformError::NotApplicable { .. })
        ));
        // Fig. 1(b) has two definitions of C.
        let b = parse_program(FIG1_B).unwrap();
        let q = apply_mutation(&b, &Mutation::DropStatement { label: "t3".into() }).unwrap();
        assert!(q.statement("t3").is_none());
        assert!(q.statement("t4").is_some());
    }

    #[test]
    fn off_by_one_bound_changes_the_iteration_count() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        let q = apply_mutation(&p, &Mutation::OffByOneBound { loop_index: 2 }).unwrap();
        assert_ne!(p, q);
        // The mutated final loop leaves C[15] unwritten.
        let inputs = standard_inputs(&p, 1);
        let ca = Interpreter::new(&p).run_for_output(&inputs, "C").unwrap();
        let cb = Interpreter::new(&q).run_for_output(&inputs, "C").unwrap();
        assert_ne!(ca[15], cb[15]);
        assert_eq!(cb[15], Interpreter::UNINIT);
    }

    #[test]
    fn bad_locations_are_reported() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        assert!(matches!(
            apply_mutation(&p, &Mutation::OffByOneBound { loop_index: 99 }),
            Err(TransformError::NoSuchLocation { .. })
        ));
        assert!(matches!(
            apply_mutation(&p, &Mutation::SwapOperands { label: "zz".into() }),
            Err(TransformError::NoSuchLocation { .. })
        ));
        assert!(matches!(
            apply_mutation(&p, &Mutation::WrongOperator { label: "zz".into() }),
            Err(TransformError::NoSuchLocation { .. })
        ));
    }
}
