//! Global data-flow transformations: expression propagation (inlining an
//! intermediate array into its consumers, or introducing a fresh one).

use crate::{Result, TransformError};
use arrayeq_lang::ast::*;

/// **Forward expression propagation**: inlines an intermediate array that is
/// written with an *identity* index (`tmp[k] = rhs(k)`) by a single
/// statement into every statement that reads it, substituting the read index
/// into the producer's right-hand side, and removes the producer loop.  This
/// is the propagation applied between Fig. 1(a) and (b) (statement `t4`).
///
/// # Errors
///
/// Returns [`TransformError::NotApplicable`] when the array is defined by
/// more than one statement, written with a non-identity index, or not an
/// intermediate local array.
pub fn propagate_array(p: &Program, array: &str) -> Result<Program> {
    if !p.intermediate_arrays().contains(&array.to_owned()) {
        return Err(TransformError::NotApplicable {
            message: format!("`{array}` is not an intermediate local array"),
        });
    }
    // Find the unique producer statement and its enclosing iterator.
    let producers: Vec<&Assign> = p.statements().filter(|a| a.lhs.array == array).collect();
    if producers.len() != 1 {
        return Err(TransformError::NotApplicable {
            message: format!("`{array}` is defined by {} statements", producers.len()),
        });
    }
    let producer = producers[0].clone();
    if producer.lhs.indices.len() != 1 {
        return Err(TransformError::NotApplicable {
            message: "propagation is implemented for 1-D intermediates".into(),
        });
    }
    let iter_var = match &producer.lhs.indices[0] {
        Expr::Var(v) => v.clone(),
        _ => {
            return Err(TransformError::NotApplicable {
                message: format!("`{array}` is not written with an identity index"),
            })
        }
    };

    // Replace reads `array[f(k)]` by the producer's rhs with `iter := f(k)`,
    // then drop the producer statement (and its loop if it becomes empty).
    let mut out = p.clone();
    substitute_reads(&mut out.body, array, &producer.rhs, &iter_var);
    remove_statement(&mut out.body, &producer.label);
    out.body.retain(|s| !is_empty_loop(s));
    out.decls.retain(|d| d.name != array);
    Ok(out)
}

/// **Reverse expression propagation**: extracts the right-hand side of the
/// statement `label` into a fresh intermediate array `temp_name` written with
/// an identity index in its own preceding loop, and replaces the original
/// right-hand side by a read of the new array.  (The inverse of
/// [`propagate_array`] for statements nested in a single unit-stride loop.)
///
/// # Errors
///
/// Returns [`TransformError`] when the statement does not exist or is not
/// nested in exactly one top-level unit-stride loop.
pub fn introduce_temp(p: &Program, label: &str, temp_name: &str) -> Result<Program> {
    // Locate the top-level loop that (directly) contains the statement.
    for (i, s) in p.body.iter().enumerate() {
        if let Stmt::For(f) = s {
            if let Some(pos) = f
                .body
                .iter()
                .position(|s| matches!(s, Stmt::Assign(a) if a.label == label))
            {
                let Stmt::Assign(a) = &f.body[pos] else {
                    unreachable!()
                };
                let producer_loop = Stmt::For(For {
                    var: f.var.clone(),
                    init: f.init.clone(),
                    cond: f.cond.clone(),
                    step: f.step,
                    body: vec![Stmt::Assign(Assign {
                        label: format!("{label}_pre"),
                        lhs: ArrayRef::new(temp_name, vec![Expr::var(&f.var)]),
                        rhs: a.rhs.clone(),
                    })],
                });
                let mut new_loop = f.clone();
                new_loop.body[pos] = Stmt::Assign(Assign {
                    label: a.label.clone(),
                    lhs: a.lhs.clone(),
                    rhs: Expr::access1(temp_name, Expr::var(&f.var)),
                });
                let mut out = p.clone();
                out.body[i] = Stmt::For(new_loop);
                out.body.insert(i, producer_loop);
                // Size the temporary generously: the loop bound expression.
                out.decls.push(Decl {
                    name: temp_name.to_owned(),
                    dims: vec![new_loop_size(f)],
                });
                return Ok(out);
            }
        }
    }
    Err(TransformError::NoSuchLocation {
        message: format!("no top-level loop directly contains statement `{label}`"),
    })
}

fn new_loop_size(f: &For) -> Expr {
    // A safe size for the identity-indexed temporary: the loop's exclusive
    // upper bound (its condition right-hand side plus one for `<=`).
    match f.cond.op {
        CmpOp::Le => Expr::add(f.cond.rhs.clone(), Expr::Const(1)),
        _ => f.cond.rhs.clone(),
    }
}

fn substitute_reads(stmts: &mut [Stmt], array: &str, producer_rhs: &Expr, iter_var: &str) {
    for s in stmts {
        match s {
            Stmt::Assign(a) => {
                a.rhs = substitute_in_expr(a.rhs.clone(), array, producer_rhs, iter_var);
            }
            Stmt::For(f) => substitute_reads(&mut f.body, array, producer_rhs, iter_var),
            Stmt::If(i) => {
                substitute_reads(&mut i.then_branch, array, producer_rhs, iter_var);
                substitute_reads(&mut i.else_branch, array, producer_rhs, iter_var);
            }
        }
    }
}

fn substitute_in_expr(e: Expr, array: &str, producer_rhs: &Expr, iter_var: &str) -> Expr {
    match e {
        Expr::Access(r) if r.array == array && r.indices.len() == 1 => {
            let index = r.indices.into_iter().next().expect("one index");
            replace_var(producer_rhs.clone(), iter_var, &index)
        }
        Expr::Access(r) => Expr::Access(ArrayRef {
            array: r.array,
            indices: r
                .indices
                .into_iter()
                .map(|i| substitute_in_expr(i, array, producer_rhs, iter_var))
                .collect(),
        }),
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(substitute_in_expr(*l, array, producer_rhs, iter_var)),
            Box::new(substitute_in_expr(*r, array, producer_rhs, iter_var)),
        ),
        Expr::Neg(inner) => Expr::Neg(Box::new(substitute_in_expr(
            *inner,
            array,
            producer_rhs,
            iter_var,
        ))),
        Expr::Call(name, args) => Expr::Call(
            name,
            args.into_iter()
                .map(|a| substitute_in_expr(a, array, producer_rhs, iter_var))
                .collect(),
        ),
        other => other,
    }
}

/// Replaces every occurrence of the scalar `var` in `e` by `value`.
fn replace_var(e: Expr, var: &str, value: &Expr) -> Expr {
    match e {
        Expr::Var(n) if n == var => value.clone(),
        Expr::Var(n) => Expr::Var(n),
        Expr::Const(c) => Expr::Const(c),
        Expr::Access(r) => Expr::Access(ArrayRef {
            array: r.array,
            indices: r
                .indices
                .into_iter()
                .map(|i| replace_var(i, var, value))
                .collect(),
        }),
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(replace_var(*l, var, value)),
            Box::new(replace_var(*r, var, value)),
        ),
        Expr::Neg(inner) => Expr::Neg(Box::new(replace_var(*inner, var, value))),
        Expr::Call(name, args) => Expr::Call(
            name,
            args.into_iter()
                .map(|a| replace_var(a, var, value))
                .collect(),
        ),
    }
}

fn remove_statement(stmts: &mut Vec<Stmt>, label: &str) {
    stmts.retain_mut(|s| match s {
        Stmt::Assign(a) => a.label != label,
        Stmt::For(f) => {
            remove_statement(&mut f.body, label);
            true
        }
        Stmt::If(i) => {
            remove_statement(&mut i.then_branch, label);
            remove_statement(&mut i.else_branch, label);
            true
        }
    });
}

fn is_empty_loop(s: &Stmt) -> bool {
    match s {
        Stmt::For(f) => f.body.is_empty() || f.body.iter().all(is_empty_loop),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::corpus::{with_size, FIG1_A, KERNEL_DOWNSAMPLE};
    use arrayeq_lang::parser::parse_program;

    fn assert_equiv(a: &Program, b: &Program) {
        let r = check_programs(a, b, &CheckOptions::default()).expect("check runs");
        assert!(r.is_equivalent(), "{}", r.summary());
    }

    #[test]
    fn propagating_tmp_of_fig1a_preserves_equivalence() {
        let p = parse_program(&with_size(FIG1_A, 64)).unwrap();
        let t = propagate_array(&p, "tmp").unwrap();
        // tmp disappears from the declarations and the statement count drops.
        assert!(!t.intermediate_arrays().contains(&"tmp".to_string()));
        assert_eq!(t.statement_count(), p.statement_count() - 1);
        assert_equiv(&p, &t);
    }

    #[test]
    fn propagating_the_downsample_buffer() {
        let p = parse_program(KERNEL_DOWNSAMPLE).unwrap();
        let t = propagate_array(&p, "mid").unwrap();
        assert_equiv(&p, &t);
    }

    #[test]
    fn introduce_temp_is_the_inverse_transformation() {
        let p = parse_program(&with_size(FIG1_A, 32)).unwrap();
        let t = introduce_temp(&p, "s3", "fresh").unwrap();
        assert!(t.intermediate_arrays().contains(&"fresh".to_string()));
        assert_eq!(t.statement_count(), p.statement_count() + 1);
        assert_equiv(&p, &t);
        // Round trip back through propagation.
        let back = propagate_array(&t, "fresh").unwrap();
        assert_equiv(&p, &back);
    }

    #[test]
    fn propagation_of_non_intermediates_is_rejected() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        assert!(propagate_array(&p, "A").is_err());
        assert!(propagate_array(&p, "nope").is_err());
        // buf is written with a non-identity index (2k-2): rejected.
        assert!(propagate_array(&p, "buf").is_err());
    }
}
