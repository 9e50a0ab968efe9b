//! Textual rendering of sets and relations in the `{ [i] -> [j] : ... }`
//! notation also accepted by the parser.
//!
//! Every column prints under its own name.  A name that repeats an earlier
//! input, output, parameter or existential name is primed (`d0'`, then
//! `d0''`), the same way in the tuple header and in the constraints, so a
//! relation such as `{ [d0] -> [d0'] : d0' = 2d0 }` reads unambiguously and
//! parses back to itself.

use crate::conjunct::Conjunct;
use crate::constraint::{Constraint, ConstraintKind};
use crate::linexpr::LinExpr;
use crate::relation::Relation;
use crate::set::Set;
use crate::space::Space;
use std::fmt;

/// Renders one linear expression with the given column names.
fn fmt_expr(e: &LinExpr, names: &[String], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let mut first = true;
    for (i, name) in names.iter().enumerate() {
        let a = e.coeff(i);
        if a == 0 {
            continue;
        }
        if first {
            if a == 1 {
                write!(f, "{name}")?;
            } else if a == -1 {
                write!(f, "-{name}")?;
            } else {
                write!(f, "{a}{name}")?;
            }
            first = false;
        } else if a > 0 {
            if a == 1 {
                write!(f, " + {name}")?;
            } else {
                write!(f, " + {a}{name}")?;
            }
        } else if a == -1 {
            write!(f, " - {name}")?;
        } else {
            write!(f, " - {}{name}", -a)?;
        }
    }
    let c = e.constant();
    if first {
        write!(f, "{c}")?;
    } else if c > 0 {
        write!(f, " + {c}")?;
    } else if c < 0 {
        write!(f, " - {}", -c)?;
    }
    Ok(())
}

/// Helper that adapts `fmt_expr` to `format!`.
struct ExprDisplay<'a> {
    expr: &'a LinExpr,
    names: &'a [String],
}

impl fmt::Display for ExprDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_expr(self.expr, self.names, f)
    }
}

fn constraint_string(c: &Constraint, names: &[String]) -> String {
    let e = ExprDisplay {
        expr: c.expr(),
        names,
    };
    match c.kind() {
        ConstraintKind::Eq => format!("{e} = 0"),
        ConstraintKind::Geq => format!("{e} >= 0"),
        ConstraintKind::Mod => format!("({e}) % {} = 0", c.modulus()),
    }
}

/// Appends `name` to `names`, primed until it differs from every name
/// already there.
fn push_distinct(names: &mut Vec<String>, name: &str) {
    let mut name = name.to_owned();
    while names.contains(&name) {
        name.push('\'');
    }
    names.push(name);
}

/// The printed names of the global columns of `space`: inputs, outputs,
/// then parameters.
fn global_names(space: &Space) -> Vec<String> {
    let mut names = Vec::with_capacity(space.n_global());
    for name in space
        .in_vars()
        .iter()
        .chain(space.out_vars())
        .chain(space.params())
    {
        push_distinct(&mut names, name);
    }
    names
}

/// Renders the formula of `c`, whose global columns print as `globals`.
fn conjunct_body(c: &Conjunct, globals: &[String]) -> String {
    let mut names = globals.to_vec();
    for e in 0..c.n_exists() {
        push_distinct(&mut names, &format!("e{e}"));
    }
    let mut body = String::new();
    if c.n_exists() > 0 {
        body.push_str(&format!("exists {} : ", names[globals.len()..].join(", ")));
    }
    if c.constraints().is_empty() {
        body.push_str("true");
    } else {
        let parts: Vec<String> = c
            .constraints()
            .iter()
            .map(|cons| constraint_string(cons, &names))
            .collect();
        body.push_str(&parts.join(" and "));
    }
    body
}

fn fmt_relation_like(
    space: &Space,
    conjuncts: &[Conjunct],
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    let names = global_names(space);
    let (ins, rest) = names.split_at(space.n_in());
    let (outs, params) = rest.split_at(space.n_out());
    let tuples = if outs.is_empty() {
        format!("[{}]", ins.join(", "))
    } else {
        format!("[{}] -> [{}]", ins.join(", "), outs.join(", "))
    };
    if !params.is_empty() {
        write!(f, "[{}] -> ", params.join(", "))?;
    }
    write!(f, "{{ ")?;
    if conjuncts.is_empty() {
        return write!(f, "{tuples} : false }}");
    }
    for (i, c) in conjuncts.iter().enumerate() {
        if i > 0 {
            write!(f, " or ")?;
        }
        write!(f, "{tuples} : {}", conjunct_body(c, &names))?;
    }
    write!(f, " }}")
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_relation_like(self.space(), self.conjuncts(), f)
    }
}

impl fmt::Display for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_relation_like(self.space(), self.conjuncts(), f)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Relation, Set, Space};

    /// Re-labels `r` over `space`, which must have the same arities.
    fn renamed(r: &Relation, space: &Space) -> Relation {
        let conjuncts = r
            .conjuncts()
            .iter()
            .map(|c| {
                let mut d = crate::Conjunct::universe(space.clone());
                d.add_exists(c.n_exists());
                for cons in c.constraints() {
                    d.add(cons.clone());
                }
                d
            })
            .collect();
        Relation::from_conjuncts(space.clone(), conjuncts)
    }

    #[test]
    fn display_round_trips_through_parser() {
        let texts = [
            "{ [i] -> [2i] : 0 <= i < 10 }",
            "[N] -> { [i] -> [i+1] : 0 <= i < N }",
            "{ [k] -> [k] : k % 2 = 0 and 0 <= k < 100 }",
            "{ [i] -> [j] : 0 <= i < 4 and 0 <= j <= i }",
            "{ [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }",
        ];
        let mut relations: Vec<Relation> = texts
            .iter()
            .map(|t| Relation::parse(t).expect("parse original"))
            .collect();
        // Column names that collide with each other, with a parameter, with
        // an existential and with an already-primed name.
        let collide = [
            ("{ [x] -> [2x] }", Space::relation(&["d0"], &["d0"], &[])),
            (
                "[N] -> { [i, j] -> [j, i] : 0 <= i < N and 0 <= j <= i }",
                Space::relation(&["d0", "d0"], &["d0", "d0'"], &["d0"]),
            ),
            (
                "{ [x] -> [y] : exists k : x = 2k and y = k + 1 and 0 <= k < 8 }",
                Space::relation(&["e0"], &["e0"], &[]),
            ),
        ];
        for (text, space) in collide {
            relations.push(renamed(&Relation::parse(text).unwrap(), &space));
        }
        for r in relations {
            let printed = format!("{r}");
            let back = Relation::parse(&printed)
                .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
            assert!(
                renamed(&back, r.space()).is_equal(&r).unwrap(),
                "round trip changed meaning: {printed}"
            );
        }
    }

    #[test]
    fn colliding_names_are_primed_in_the_header_and_the_constraints() {
        let r = Relation::parse("{ [x] -> [2x] }").unwrap();
        let printed = renamed(&r, &Space::relation(&["d0"], &["d0"], &[])).to_string();
        assert_eq!(printed, "{ [d0] -> [d0'] : 2d0 - d0' = 0 }");
    }

    #[test]
    fn display_of_set_and_empty() {
        let s = Set::parse("{ [i] : 0 <= i < 4 }").unwrap();
        let printed = format!("{s}");
        let back = Set::parse(&printed).unwrap();
        assert!(s.is_equal(&back).unwrap());

        let e = Relation::parse("{ [i] -> [i] : 1 = 0 }").unwrap();
        // Even a degenerate relation should render to something parseable.
        let printed = format!("{}", e.simplified(true));
        let back = Relation::parse(&printed).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn union_renders_with_or() {
        let a = Relation::parse("{ [i] -> [i] : 0 <= i < 5 }").unwrap();
        let b = Relation::parse("{ [i] -> [i] : 10 <= i < 15 }").unwrap();
        let u = a.union(&b).unwrap();
        let printed = format!("{u}");
        assert!(printed.contains(" or "));
        let back = Relation::parse(&printed).unwrap();
        assert!(u.is_equal(&back).unwrap());
    }
}
