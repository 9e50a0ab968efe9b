//! Global loop transformations (reversal, fission, fusion, bound splitting).
//!
//! All transformations operate on top-level loops of a [`Program`] and are
//! correct by construction for programs in the single-assignment class when
//! the usual legality conditions hold (the helpers check the simple ones and
//! refuse otherwise).

use crate::{Result, TransformError};
use arrayeq_lang::ast::*;

/// Returns the indices of the top-level `for` loops of a program.
pub fn top_level_loops(p: &Program) -> Vec<usize> {
    p.body
        .iter()
        .enumerate()
        .filter_map(|(i, s)| matches!(s, Stmt::For(_)).then_some(i))
        .collect()
}

fn loop_at(p: &Program, index: usize) -> Result<&For> {
    match p.body.get(index) {
        Some(Stmt::For(f)) => Ok(f),
        _ => Err(TransformError::NoSuchLocation {
            message: format!("body item {index} is not a top-level for loop"),
        }),
    }
}

/// Extracts constant bounds `(lo, hi_exclusive)` of a unit-stride loop.
fn constant_bounds(p: &Program, f: &For) -> Option<(i64, i64)> {
    use arrayeq_lang::parser::eval_const;
    if f.step != 1 {
        return None;
    }
    let lo = eval_const(&f.init, &p.defines)?;
    let bound = eval_const(&f.cond.rhs, &p.defines)?;
    match f.cond.op {
        CmpOp::Lt => Some((lo, bound)),
        CmpOp::Le => Some((lo, bound + 1)),
        _ => None,
    }
}

/// **Loop reversal**: a unit-stride up-counting loop runs down instead.
/// Legal in the single-assignment class whenever the loop carries no
/// dependence on itself; the caller is responsible for picking such a loop
/// (the def-use checker re-validates the result).
///
/// # Errors
///
/// Returns [`TransformError`] if the indexed statement is not a for loop
/// with constant unit-stride bounds.
pub fn reverse_loop(p: &Program, index: usize) -> Result<Program> {
    let f = loop_at(p, index)?;
    let (lo, hi) = constant_bounds(p, f).ok_or_else(|| TransformError::NotApplicable {
        message: "loop reversal needs constant unit-stride bounds".into(),
    })?;
    let reversed = For {
        var: f.var.clone(),
        init: Expr::Const(hi - 1),
        cond: Cond::new(Expr::var(&f.var), CmpOp::Ge, Expr::Const(lo)),
        step: -1,
        body: f.body.clone(),
    };
    let mut out = p.clone();
    out.body[index] = Stmt::For(reversed);
    Ok(out)
}

/// **Loop fission** (distribution): a loop whose body holds several
/// statements becomes one loop per statement, preserving statement order.
///
/// # Errors
///
/// Returns [`TransformError`] if the loop body has fewer than two statements
/// or contains nested control flow.
pub fn fission_loop(p: &Program, index: usize) -> Result<Program> {
    let f = loop_at(p, index)?;
    if f.body.len() < 2 {
        return Err(TransformError::NotApplicable {
            message: "loop fission needs at least two body statements".into(),
        });
    }
    if !f.body.iter().all(|s| matches!(s, Stmt::Assign(_))) {
        return Err(TransformError::NotApplicable {
            message: "loop fission is only implemented for flat assignment bodies".into(),
        });
    }
    let mut replacement = Vec::with_capacity(f.body.len());
    for s in &f.body {
        replacement.push(Stmt::For(For {
            var: f.var.clone(),
            init: f.init.clone(),
            cond: f.cond.clone(),
            step: f.step,
            body: vec![s.clone()],
        }));
    }
    let mut out = p.clone();
    out.body.splice(index..=index, replacement);
    Ok(out)
}

/// **Loop fusion**: two adjacent top-level loops with identical iterator,
/// bounds and step are merged into one, concatenating their bodies.
///
/// # Errors
///
/// Returns [`TransformError`] if the two loops do not have identical headers.
pub fn fuse_loops(p: &Program, first: usize) -> Result<Program> {
    let f1 = loop_at(p, first)?.clone();
    let f2 = loop_at(p, first + 1)?.clone();
    let same_header =
        f1.var == f2.var && f1.init == f2.init && f1.cond == f2.cond && f1.step == f2.step;
    if !same_header {
        return Err(TransformError::NotApplicable {
            message: "loop fusion needs identical loop headers".into(),
        });
    }
    let fused = For {
        var: f1.var.clone(),
        init: f1.init.clone(),
        cond: f1.cond.clone(),
        step: f1.step,
        body: f1.body.iter().chain(f2.body.iter()).cloned().collect(),
    };
    let mut out = p.clone();
    out.body[first] = Stmt::For(fused);
    out.body.remove(first + 1);
    Ok(out)
}

/// **Bound splitting**: one unit-stride loop `[lo, hi)` becomes two loops
/// `[lo, mid)` and `[mid, hi)` with identical bodies (the transformation
/// applied between Fig. 1(a) and (b) at `mid = 512`).
///
/// # Errors
///
/// Returns [`TransformError`] if the loop does not have constant unit-stride
/// bounds or `mid` is outside them.
pub fn split_loop(p: &Program, index: usize, mid: i64) -> Result<Program> {
    let f = loop_at(p, index)?;
    let (lo, hi) = constant_bounds(p, f).ok_or_else(|| TransformError::NotApplicable {
        message: "bound splitting needs constant unit-stride bounds".into(),
    })?;
    if mid <= lo || mid >= hi {
        return Err(TransformError::NotApplicable {
            message: format!("split point {mid} outside ({lo}, {hi})"),
        });
    }
    // The second copy must not reuse statement labels (labels identify
    // statements in diagnostics); suffix them.
    let relabel = |stmts: &[Stmt]| -> Vec<Stmt> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Assign(a) => Stmt::Assign(Assign {
                    label: format!("{}_hi", a.label),
                    lhs: a.lhs.clone(),
                    rhs: a.rhs.clone(),
                }),
                other => other.clone(),
            })
            .collect()
    };
    let first = For {
        var: f.var.clone(),
        init: Expr::Const(lo),
        cond: Cond::new(Expr::var(&f.var), CmpOp::Lt, Expr::Const(mid)),
        step: 1,
        body: f.body.clone(),
    };
    let second = For {
        var: f.var.clone(),
        init: Expr::Const(mid),
        cond: Cond::new(Expr::var(&f.var), CmpOp::Lt, Expr::Const(hi)),
        step: 1,
        body: relabel(&f.body),
    };
    let mut out = p.clone();
    out.body
        .splice(index..=index, vec![Stmt::For(first), Stmt::For(second)]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::corpus::{with_size, FIG1_A, KERNEL_LIFTING};
    use arrayeq_lang::parser::parse_program;

    fn assert_equiv(a: &Program, b: &Program) {
        let r = check_programs(a, b, &CheckOptions::default()).expect("check runs");
        assert!(r.is_equivalent(), "{}", r.summary());
    }

    #[test]
    fn reversal_preserves_equivalence() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        let t = reverse_loop(&p, 0).unwrap();
        assert_equiv(&p, &t);
        // Reversing the already down-counting loop is rejected.
        assert!(reverse_loop(&p, 1).is_err());
    }

    #[test]
    fn fission_and_fusion_are_inverse_and_preserve_equivalence() {
        // The two lifting loops have identical headers (`k = 0; k < N; k++`),
        // and the producer statement precedes the consumer, so fusing them is
        // legal.
        let p = parse_program(KERNEL_LIFTING).unwrap();
        let fused = fuse_loops(&p, 0).expect("identical headers");
        assert_equiv(&p, &fused);
        let split = fission_loop(&fused, 0).unwrap();
        assert_equiv(&p, &split);
    }

    #[test]
    fn bound_split_preserves_equivalence() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        let t = split_loop(&p, 0, 17).unwrap();
        assert_equiv(&p, &t);
        assert!(split_loop(&p, 0, 0).is_err());
        assert!(split_loop(&p, 0, 64).is_err());
    }

    #[test]
    fn location_errors_are_reported() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        assert!(matches!(
            reverse_loop(&p, 99),
            Err(TransformError::NoSuchLocation { .. })
        ));
        assert!(fission_loop(&p, 0).is_err(), "single-statement body");
    }
}
