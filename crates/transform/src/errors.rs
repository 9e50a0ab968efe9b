//! Error injection: the typical slips a designer makes while applying
//! transformations by hand, used to evaluate the diagnostics of Section 6.1.

use crate::{Result, TransformError};
use arrayeq_lang::ast::*;

/// The kinds of bugs the injector can plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Add a constant offset to the first index of the first read access
    /// (an off-by-one style index error, like `buf[k]` instead of `buf[2*k]`
    /// in Fig. 1(d)).
    IndexOffset(i64),
    /// Scale the first index of the first read access by a constant.
    IndexScale(i64),
    /// Replace the statement's top-level operator by another one.
    WrongOperator,
    /// Swap the first two read accesses of the right-hand side (wrong
    /// operand order for a non-commutative context).
    SwapReads,
}

/// Injects a bug into the statement with the given label and returns the
/// broken program.
///
/// # Errors
///
/// Returns [`TransformError::NoSuchLocation`] if the label does not exist,
/// or [`TransformError::NotApplicable`] if the statement's shape does not
/// admit the requested bug.
pub fn inject(p: &Program, label: &str, bug: Bug) -> Result<Program> {
    let mut out = p.clone();
    let mut found = false;
    let mut applied = false;
    visit(&mut out.body, &mut |a: &mut Assign| {
        if a.label != label {
            return;
        }
        found = true;
        applied = apply_bug(a, bug);
    });
    if !found {
        return Err(TransformError::NoSuchLocation {
            message: format!("no statement labelled `{label}`"),
        });
    }
    if !applied {
        return Err(TransformError::NotApplicable {
            message: format!("bug {bug:?} does not apply to statement `{label}`"),
        });
    }
    Ok(out)
}

fn visit(stmts: &mut [Stmt], f: &mut dyn FnMut(&mut Assign)) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => f(a),
            Stmt::For(l) => visit(&mut l.body, f),
            Stmt::If(i) => {
                visit(&mut i.then_branch, f);
                visit(&mut i.else_branch, f);
            }
        }
    }
}

fn apply_bug(a: &mut Assign, bug: Bug) -> bool {
    match bug {
        Bug::IndexOffset(delta) => modify_first_read(&mut a.rhs, &mut |r| {
            if let Some(first) = r.indices.first_mut() {
                *first = Expr::add(first.clone(), Expr::Const(delta));
                true
            } else {
                false
            }
        }),
        Bug::IndexScale(k) => modify_first_read(&mut a.rhs, &mut |r| {
            if let Some(first) = r.indices.first_mut() {
                *first = Expr::mul(Expr::Const(k), first.clone());
                true
            } else {
                false
            }
        }),
        Bug::WrongOperator => {
            if let Expr::Bin(op, l, r) = a.rhs.clone() {
                let new_op = match op {
                    BinOp::Add => BinOp::Sub,
                    BinOp::Sub => BinOp::Add,
                    BinOp::Mul => BinOp::Add,
                    BinOp::Div => BinOp::Mul,
                };
                a.rhs = Expr::Bin(new_op, l, r);
                true
            } else {
                false
            }
        }
        Bug::SwapReads => {
            let reads: Vec<ArrayRef> = a.rhs.reads().into_iter().cloned().collect();
            if reads.len() < 2 || reads[0] == reads[1] {
                return false;
            }
            // Swap the first two reads by rewriting occurrences.
            let (first, second) = (reads[0].clone(), reads[1].clone());
            let mut state = 0usize;
            a.rhs = swap_reads(a.rhs.clone(), &first, &second, &mut state);
            true
        }
    }
}

fn modify_first_read(e: &mut Expr, f: &mut dyn FnMut(&mut ArrayRef) -> bool) -> bool {
    match e {
        Expr::Access(r) => f(r),
        Expr::Bin(_, l, r) => modify_first_read(l, f) || modify_first_read(r, f),
        Expr::Neg(inner) => modify_first_read(inner, f),
        Expr::Call(_, args) => args.iter_mut().any(|a| modify_first_read(a, f)),
        Expr::Const(_) | Expr::Var(_) => false,
    }
}

fn swap_reads(e: Expr, first: &ArrayRef, second: &ArrayRef, state: &mut usize) -> Expr {
    match e {
        Expr::Access(r) => {
            if r == *first && *state == 0 {
                *state = 1;
                Expr::Access(second.clone())
            } else if r == *second && *state == 1 {
                *state = 2;
                Expr::Access(first.clone())
            } else {
                Expr::Access(r)
            }
        }
        Expr::Bin(op, l, r) => {
            let l = swap_reads(*l, first, second, state);
            let r = swap_reads(*r, first, second, state);
            Expr::Bin(op, Box::new(l), Box::new(r))
        }
        Expr::Neg(inner) => Expr::Neg(Box::new(swap_reads(*inner, first, second, state))),
        Expr::Call(name, args) => Expr::Call(
            name,
            args.into_iter()
                .map(|a| swap_reads(a, first, second, state))
                .collect(),
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::corpus::{with_size, FIG1_A, KERNEL_SAD_TREE};
    use arrayeq_lang::parser::parse_program;

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
    fn index_offset_bug_is_detected_and_diagnosed() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        // Offsetting the `buf[2*k]` read of s2 keeps every read covered, so
        // the bug must be found by the equivalence check proper.
        let broken = inject(&p, "s2", Bug::IndexOffset(2)).unwrap();
        let r = not_equiv(&p, &broken).expect("caught by the checker, not def-use");
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.transformed_statements.iter().any(|s| s == "s2")));
        // Offsetting the `tmp[k]` read of s3 instead breaks def-use coverage,
        // which the Fig. 6 pre-check reports.
        let broken = inject(&p, "s3", Bug::IndexOffset(1)).unwrap();
        assert!(not_equiv(&p, &broken).is_none());
    }

    #[test]
    fn index_scale_and_wrong_operator_bugs_are_detected() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        let broken = inject(&p, "s1", Bug::IndexScale(3)).unwrap();
        not_equiv(&p, &broken);
        let broken = inject(&p, "s2", Bug::WrongOperator).unwrap();
        not_equiv(&p, &broken);
    }

    #[test]
    fn swapping_arguments_of_a_noncommutative_call_is_detected() {
        let p = parse_program(KERNEL_SAD_TREE).unwrap();
        let broken = inject(&p, "m1", Bug::SwapReads).unwrap();
        // `absd` is uninterpreted (not declared commutative), so swapping its
        // arguments must be flagged.
        not_equiv(&p, &broken);
    }

    #[test]
    fn injector_reports_bad_locations() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        assert!(matches!(
            inject(&p, "zz", Bug::WrongOperator),
            Err(TransformError::NoSuchLocation { .. })
        ));
    }
}
