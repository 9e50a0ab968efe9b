//! Global algebraic data-flow transformations: commutation and
//! re-association of associative/commutative operators (Section 4), plus
//! the wider rewrites the normalization subsystem verifies — one-level
//! distribution of `*` over `+`/`-`, subtraction shuffling, and
//! identity/constant noise insertion.

use arrayeq_lang::ast::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Swaps the operands of every `+` and `*` in the right-hand side of the
/// statement with the given label (commutativity).  Returns the transformed
/// program and how many operator applications were swapped.
pub fn commute_statement(p: &Program, label: &str) -> (Program, usize) {
    let mut count = 0;
    let out = map_rhs(p, label, &mut |e| commute_expr(e, &mut count));
    (out, count)
}

/// Rotates every left-leaning `+`/`*` chain in the statement's right-hand
/// side: `(a ⊕ b) ⊕ c` becomes `a ⊕ (b ⊕ c)` (associativity).  Returns the
/// transformed program and how many rotations were applied.
pub fn reassociate_statement(p: &Program, label: &str) -> (Program, usize) {
    let mut count = 0;
    let out = map_rhs(p, label, &mut |e| rotate_right(e, &mut count));
    (out, count)
}

/// Distributes every `x * (y ± z)` (and `(y ± z) * x`) in the statement's
/// right-hand side one level: `x*(y+z)` becomes `x*y + x*z`, `x*(y-z)`
/// becomes `x*y - x*z`.  Returns the transformed program and how many
/// products were expanded.  The inverse direction (factoring) is what the
/// extended method's one-level distribution re-normalises.
pub fn distribute_statement(p: &Program, label: &str) -> (Program, usize) {
    let mut count = 0;
    let out = map_rhs(p, label, &mut |e| distribute_expr(e, &mut count));
    (out, count)
}

/// Distributes every applicable product in *every* statement.
pub fn distribute_program(p: &Program) -> (Program, usize) {
    let mut out = p.clone();
    let mut count = 0;
    let labels: Vec<String> = p.statements().map(|a| a.label.clone()).collect();
    for label in labels {
        let (next, n) = distribute_statement(&out, &label);
        out = next;
        count += n;
    }
    (out, count)
}

/// Rewrites the additive chain of the statement's right-hand side with its
/// terms rotated by one position, signs preserved — `a - b + c` becomes
/// `c + a - b` — so the subtraction lands elsewhere in the chain.  Returns
/// the transformed program and `1` when a rotation was applied (`0` when
/// the chain has fewer than two terms).
pub fn shuffle_subtractions(p: &Program, label: &str) -> (Program, usize) {
    let mut count = 0;
    let out = map_rhs(p, label, &mut |e| rotate_additive_chain(e, &mut count));
    (out, count)
}

/// Sprinkles *identity noise* over every statement's right-hand side:
/// deterministic (seeded) insertion of `+ 0` tails, `* 1` wrappers around
/// array reads, and constants split as `(c - 1) + 1`.  The result is
/// functionally identical by the `+`/`*` identities — exactly what the
/// extended method's identity elimination and constant folding normalise
/// away (the basic method rejects the pair).  Returns the program and the
/// number of insertions.
pub fn insert_identity_noise(p: &Program, seed: u64) -> (Program, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = p.clone();
    let mut count = 0;
    let labels: Vec<String> = p.statements().map(|a| a.label.clone()).collect();
    for label in labels {
        out = map_rhs(&out, &label, &mut |e| {
            let mut noised = noise_expr(e, &mut rng, &mut count);
            // A `+ 0` tail on roughly every second statement.
            if rng.gen_range(0..2) == 0 {
                count += 1;
                noised = Expr::add(noised, Expr::Const(0));
            }
            noised
        });
    }
    (out, count)
}

fn distribute_expr(e: Expr, count: &mut usize) -> Expr {
    match e {
        Expr::Bin(BinOp::Mul, l, r) => {
            let l = distribute_expr(*l, count);
            let r = distribute_expr(*r, count);
            let split = |e: &Expr| -> Option<(BinOp, Expr, Expr)> {
                match e {
                    Expr::Bin(op @ (BinOp::Add | BinOp::Sub), a, b) => {
                        Some((*op, (**a).clone(), (**b).clone()))
                    }
                    _ => None,
                }
            };
            if let Some((op, a, b)) = split(&r) {
                *count += 1;
                return Expr::Bin(
                    op,
                    Box::new(Expr::mul(l.clone(), a)),
                    Box::new(Expr::mul(l, b)),
                );
            }
            if let Some((op, a, b)) = split(&l) {
                *count += 1;
                return Expr::Bin(
                    op,
                    Box::new(Expr::mul(a, r.clone())),
                    Box::new(Expr::mul(b, r)),
                );
            }
            Expr::mul(l, r)
        }
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(distribute_expr(*l, count)),
            Box::new(distribute_expr(*r, count)),
        ),
        Expr::Neg(inner) => Expr::Neg(Box::new(distribute_expr(*inner, count))),
        Expr::Call(name, args) => Expr::Call(
            name,
            args.into_iter()
                .map(|a| distribute_expr(a, count))
                .collect(),
        ),
        other => other,
    }
}

/// Collects the `+`/`-`/negation spine of an expression as signed terms.
fn additive_terms(e: &Expr, sign: bool, out: &mut Vec<(bool, Expr)>) {
    match e {
        Expr::Bin(BinOp::Add, l, r) => {
            additive_terms(l, sign, out);
            additive_terms(r, sign, out);
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            additive_terms(l, sign, out);
            additive_terms(r, !sign, out);
        }
        Expr::Neg(inner) => additive_terms(inner, !sign, out),
        other => out.push((sign, other.clone())),
    }
}

/// Rebuilds a signed term list as one chain: positive head (or a negation),
/// then `+`/`-` per term.
fn rebuild_additive(terms: &[(bool, Expr)]) -> Expr {
    let mut it = terms.iter();
    let (sign, head) = it.next().expect("at least one term");
    let mut acc = if *sign {
        head.clone()
    } else {
        Expr::Neg(Box::new(head.clone()))
    };
    for (sign, term) in it {
        acc = if *sign {
            Expr::add(acc, term.clone())
        } else {
            Expr::sub(acc, term.clone())
        };
    }
    acc
}

fn rotate_additive_chain(e: Expr, count: &mut usize) -> Expr {
    let mut terms = Vec::new();
    additive_terms(&e, true, &mut terms);
    if terms.len() < 2 {
        return e;
    }
    terms.rotate_left(1);
    *count += 1;
    rebuild_additive(&terms)
}

fn noise_expr(e: Expr, rng: &mut StdRng, count: &mut usize) -> Expr {
    match e {
        Expr::Access(a) => {
            if rng.gen_range(0..3) == 0 {
                *count += 1;
                Expr::mul(Expr::Access(a), Expr::Const(1))
            } else {
                Expr::Access(a)
            }
        }
        Expr::Const(c) => {
            if rng.gen_range(0..2) == 0 {
                *count += 1;
                Expr::add(Expr::Const(c - 1), Expr::Const(1))
            } else {
                Expr::Const(c)
            }
        }
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(noise_expr(*l, rng, count)),
            Box::new(noise_expr(*r, rng, count)),
        ),
        Expr::Neg(inner) => Expr::Neg(Box::new(noise_expr(*inner, rng, count))),
        // Call arguments stay untouched: an uninterpreted `f(x*1)` is not
        // provably `f(x)` to the checker (normalisation happens at declared
        // chains, not under uninterpreted functions).
        call @ Expr::Call(..) => call,
        other => other,
    }
}

fn map_rhs(p: &Program, label: &str, f: &mut dyn FnMut(Expr) -> Expr) -> Program {
    let mut out = p.clone();
    rewrite_stmts(&mut out.body, label, f);
    out
}

fn rewrite_stmts(stmts: &mut [Stmt], label: &str, f: &mut dyn FnMut(Expr) -> Expr) {
    for s in stmts {
        match s {
            Stmt::Assign(a) if a.label == label => {
                a.rhs = f(a.rhs.clone());
            }
            Stmt::Assign(_) => {}
            Stmt::For(fl) => rewrite_stmts(&mut fl.body, label, f),
            Stmt::If(i) => {
                rewrite_stmts(&mut i.then_branch, label, f);
                rewrite_stmts(&mut i.else_branch, label, f);
            }
        }
    }
}

fn is_ac(op: BinOp) -> bool {
    matches!(op, BinOp::Add | BinOp::Mul)
}

fn commute_expr(e: Expr, count: &mut usize) -> Expr {
    match e {
        Expr::Bin(op, l, r) if is_ac(op) => {
            *count += 1;
            Expr::Bin(
                op,
                Box::new(commute_expr(*r, count)),
                Box::new(commute_expr(*l, count)),
            )
        }
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(commute_expr(*l, count)),
            Box::new(commute_expr(*r, count)),
        ),
        Expr::Neg(inner) => Expr::Neg(Box::new(commute_expr(*inner, count))),
        Expr::Call(name, args) => Expr::Call(
            name,
            args.into_iter().map(|a| commute_expr(a, count)).collect(),
        ),
        other => other,
    }
}

fn rotate_right(e: Expr, count: &mut usize) -> Expr {
    match e {
        Expr::Bin(op, l, r) if is_ac(op) => {
            let l = rotate_right(*l, count);
            let r = rotate_right(*r, count);
            // (a op b) op c  ->  a op (b op c)
            if let Expr::Bin(inner_op, a, b) = l {
                if inner_op == op {
                    *count += 1;
                    return Expr::Bin(op, a, Box::new(Expr::Bin(op, b, Box::new(r))));
                }
                return Expr::Bin(op, Box::new(Expr::Bin(inner_op, a, b)), Box::new(r));
            }
            Expr::Bin(op, Box::new(l), Box::new(r))
        }
        Expr::Bin(op, l, r) => Expr::Bin(
            op,
            Box::new(rotate_right(*l, count)),
            Box::new(rotate_right(*r, count)),
        ),
        Expr::Neg(inner) => Expr::Neg(Box::new(rotate_right(*inner, count))),
        Expr::Call(name, args) => Expr::Call(
            name,
            args.into_iter().map(|a| rotate_right(a, count)).collect(),
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::corpus::{with_size, FIG1_A, KERNEL_FIR5, KERNEL_MATVEC};
    use arrayeq_lang::parser::parse_program;

    fn assert_equiv(a: &Program, b: &Program) {
        let r = check_programs(a, b, &CheckOptions::default()).expect("check runs");
        assert!(r.is_equivalent(), "{}", r.summary());
    }

    fn assert_not_equiv_basic(a: &Program, b: &Program) {
        let r = check_programs(a, b, &CheckOptions::basic()).expect("check runs");
        assert!(!r.is_equivalent());
    }

    #[test]
    fn commuting_additions_preserves_equivalence_only_with_the_extended_method() {
        let p = parse_program(&with_size(FIG1_A, 32)).unwrap();
        let (t, swapped) = commute_statement(&p, "s3");
        assert!(swapped >= 1);
        assert_equiv(&p, &t);
        assert_not_equiv_basic(&p, &t);
    }

    #[test]
    fn reassociating_fir_taps_preserves_equivalence() {
        let p = parse_program(KERNEL_FIR5).unwrap();
        let (t, rotated) = reassociate_statement(&p, "f1");
        assert!(rotated >= 1);
        assert_equiv(&p, &t);
    }

    #[test]
    fn combined_commutation_and_reassociation() {
        let p = parse_program(KERNEL_MATVEC).unwrap();
        let (t1, _) = reassociate_statement(&p, "v1");
        let (t2, _) = commute_statement(&t1, "v1");
        assert_equiv(&p, &t2);
    }

    #[test]
    fn distribution_preserves_equivalence_only_with_the_extended_method() {
        use arrayeq_lang::corpus::KERNEL_FACTORED_IDENT;
        let p = parse_program(KERNEL_FACTORED_IDENT).unwrap();
        let (t, expanded) = distribute_statement(&p, "f1");
        assert_eq!(expanded, 1);
        assert_ne!(p, t);
        assert_equiv(&p, &t);
        assert_not_equiv_basic(&p, &t);
        let (t2, n2) = distribute_program(&p);
        assert_eq!(n2, 1);
        assert_eq!(t, t2);
    }

    #[test]
    fn subtraction_shuffle_preserves_equivalence() {
        use arrayeq_lang::corpus::KERNEL_SUB_SHUFFLE_B;
        let p = parse_program(KERNEL_SUB_SHUFFLE_B).unwrap();
        let (t, rotated) = shuffle_subtractions(&p, "p1");
        assert_eq!(rotated, 1);
        assert_ne!(p, t);
        assert_equiv(&p, &t);
        assert_not_equiv_basic(&p, &t);
    }

    #[test]
    fn identity_noise_preserves_equivalence_and_is_seed_deterministic() {
        let p = parse_program(&with_size(FIG1_A, 32)).unwrap();
        let (t, inserted) = insert_identity_noise(&p, 5);
        assert!(inserted >= 1, "noise was inserted");
        assert_ne!(p, t);
        assert_equiv(&p, &t);
        assert_not_equiv_basic(&p, &t);
        let (t2, _) = insert_identity_noise(&p, 5);
        assert_eq!(t, t2, "same seed, same noise");
        let (t3, _) = insert_identity_noise(&p, 6);
        assert_ne!(t, t3, "different seed, different noise");
    }

    #[test]
    fn unknown_label_is_a_no_op() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        let (t, n) = commute_statement(&p, "does_not_exist");
        assert_eq!(n, 0);
        assert_eq!(p, t);
    }
}
