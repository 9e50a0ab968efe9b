//! ADDG extraction from programs in the restricted class.

use crate::graph::{Addg, Definition, Node, NodeId, OperatorKind};
use crate::Result;
use arrayeq_lang::affine::Analysis;
use arrayeq_lang::ast::{ArrayRole, BinOp, Expr, Program};
use arrayeq_lang::pretty::array_ref_to_string;

/// Extracts the ADDG of a program.
///
/// Every assignment statement contributes one operator tree; array-read
/// leaves carry their dependency mapping (`write⁻¹ ∘ read`), and the
/// statement is registered as a definition of its target array together with
/// the set of elements it defines.
///
/// # Errors
///
/// Fails when the affine analysis of the frontend fails (non-affine indices
/// or bounds) or a dependency mapping cannot be built.
pub fn extract(program: &Program) -> Result<Addg> {
    extract_from(&mut Analysis::new(program)?)
}

/// [`extract`] on an existing analysis of the program: each distinct
/// (write, read) relation pair's dependency mapping and each distinct write
/// relation's element set come from the analysis, computed once.
///
/// # Errors
///
/// As [`extract`].
pub fn extract_from(analysis: &mut Analysis) -> Result<Addg> {
    let program = analysis.program();
    let mut g = Addg::new(program.name.clone());

    // Roles: inputs are parameters that are only read; outputs are written
    // parameters; intermediates are local arrays (plus written-and-read
    // parameters, which behave like intermediates for the traversal).
    let params = |pick: fn(ArrayRole) -> bool| {
        let roles = analysis.roles().iter().filter(|(_, &r)| pick(r));
        roles.map(|(name, _)| name.clone()).collect()
    };
    let inputs = params(|r| r == ArrayRole::Input);
    let outputs = params(ArrayRole::is_output);
    g.set_roles(inputs, outputs, program.intermediate_arrays());

    for s in 0..analysis.statements().len() {
        let rhs = analysis.statements()[s].rhs;
        let root = build_expr(&mut g, analysis, s, rhs, &mut 0)?;
        let info = &analysis.statements()[s];
        let def = Definition {
            statement: info.label.clone(),
            elements: analysis.elements(analysis.write(s)).clone(),
            root,
            lhs_text: format!(
                "{}[{}]",
                info.target,
                info.write_indices
                    .iter()
                    .map(render_affine)
                    .collect::<Vec<_>>()
                    .join("][")
            ),
            element_dims: info.write_indices.len(),
        };
        g.add_definition(&info.target, def);
    }
    g.mark_components();
    Ok(g)
}

fn render_affine(a: &arrayeq_lang::affine::Affine) -> String {
    let mut parts = Vec::new();
    for (n, &c) in &a.coeffs {
        if c == 0 {
            continue;
        }
        if c == 1 {
            parts.push(n.clone());
        } else {
            parts.push(format!("{c}{n}"));
        }
    }
    if a.konst != 0 || parts.is_empty() {
        parts.push(a.konst.to_string());
    }
    parts.join(" + ")
}

/// Recursively builds the operator tree of a right-hand side expression of
/// statement `s`.  `next_read` counts the array reads met so far: the walk
/// meets them left to right, in the order of the statement's `reads`.
fn build_expr(
    g: &mut Addg,
    analysis: &mut Analysis,
    s: usize,
    e: &Expr,
    next_read: &mut usize,
) -> Result<NodeId> {
    let statement = analysis.statements()[s].label.clone();
    match e {
        Expr::Const(v) => Ok(g.push_node(Node::Const {
            value: *v,
            statement,
        })),
        Expr::Var(name) => {
            // A bare scalar in a right-hand side: only `#define` constants
            // are allowed by the class, and those fold to constants.
            if let Some(v) = analysis.statements()[s].defines.get(name) {
                Ok(g.push_node(Node::Const {
                    value: *v,
                    statement,
                }))
            } else {
                Err(crate::AddgError::Unsupported {
                    message: format!("scalar `{name}` used as a value in statement {statement}"),
                })
            }
        }
        Expr::Access(access) => {
            let r = *next_read;
            *next_read += 1;
            debug_assert!(std::ptr::eq(analysis.statements()[s].reads[r], access));
            let mapping = analysis.mapping(s, r)?.clone();
            // Make sure the array variable node exists so the graph has one
            // node per variable, as in the paper's figures.
            g.array_node(&access.array);
            Ok(g.push_node(Node::Access {
                array: access.array.clone(),
                statement,
                mapping,
                index_text: array_ref_to_string(access),
            }))
        }
        Expr::Neg(inner) => {
            let child = build_expr(g, analysis, s, inner, next_read)?;
            Ok(g.push_node(Node::Operator {
                kind: OperatorKind::Neg,
                statement,
                operands: vec![child],
            }))
        }
        Expr::Bin(op, l, r) => {
            let lc = build_expr(g, analysis, s, l, next_read)?;
            let rc = build_expr(g, analysis, s, r, next_read)?;
            let kind = match op {
                BinOp::Add => OperatorKind::Add,
                BinOp::Sub => OperatorKind::Sub,
                BinOp::Mul => OperatorKind::Mul,
                BinOp::Div => OperatorKind::Div,
            };
            Ok(g.push_node(Node::Operator {
                kind,
                statement,
                operands: vec![lc, rc],
            }))
        }
        Expr::Call(name, args) => {
            let mut operands = Vec::with_capacity(args.len());
            for a in args {
                operands.push(build_expr(g, analysis, s, a, next_read)?);
            }
            Ok(g.push_node(Node::Operator {
                kind: OperatorKind::Call(name.clone()),
                statement,
                operands,
            }))
        }
    }
}

/// Renders the expression tree rooted at a node as readable text — used by
/// the error diagnostics of the equivalence checker and by the Graphviz
/// export.
pub fn describe_node(g: &Addg, id: NodeId) -> String {
    match g.node(id) {
        Node::Array { name } => name.clone(),
        Node::Const { value, .. } => value.to_string(),
        Node::Access { index_text, .. } => index_text.clone(),
        Node::Operator { kind, operands, .. } => {
            let parts: Vec<String> = operands.iter().map(|&o| describe_node(g, o)).collect();
            match kind {
                OperatorKind::Call(name) => format!("{name}({})", parts.join(", ")),
                OperatorKind::Neg => format!("-({})", parts[0]),
                _ => format!("({})", parts.join(&format!(" {kind} "))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arrayeq_lang::corpus::{FIG1_A, FIG1_C, KERNEL_SAD_TREE};
    use arrayeq_lang::parser::parse_program;
    use arrayeq_omega::Relation;

    fn addg(src: &str) -> Addg {
        extract(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn dependency_mappings_of_fig1a_match_the_paper() {
        let g = addg(FIG1_A);
        // Find statement s2's definition of buf and inspect its two A leaves.
        let def = &g
            .definitions("buf")
            .iter()
            .find(|d| d.statement == "s2")
            .expect("s2 defines buf")
            .clone();
        let mut access_mappings = Vec::new();
        collect_access_mappings(&g, def.root, &mut access_mappings);
        assert_eq!(access_mappings.len(), 2);
        let expect1 = Relation::parse(
            "{ [x] -> [y] : exists k : x = 2k - 2 and y = 2k - 2 and 1 <= k <= 1024 }",
        )
        .unwrap();
        let expect2 = Relation::parse(
            "{ [x] -> [y] : exists k : x = 2k - 2 and y = k - 1 and 1 <= k <= 1024 }",
        )
        .unwrap();
        assert!(access_mappings[0].1.is_equal(&expect1).unwrap());
        assert!(access_mappings[1].1.is_equal(&expect2).unwrap());
        assert_eq!(access_mappings[0].0, "A");
        assert_eq!(access_mappings[1].0, "A");
    }

    fn collect_access_mappings(g: &Addg, id: NodeId, out: &mut Vec<(String, Relation)>) {
        match g.node(id) {
            Node::Access { array, mapping, .. } => out.push((array.clone(), mapping.clone())),
            Node::Operator { operands, .. } => {
                for &o in operands {
                    collect_access_mappings(g, o, out);
                }
            }
            _ => {}
        }
    }

    #[test]
    fn strided_definitions_have_strided_element_sets() {
        let g = addg(FIG1_C);
        // u1 defines buf[0..N), u2 defines buf[N..2N-2] for even indices only.
        let defs = g.definitions("buf");
        assert_eq!(defs.len(), 2);
        let u2 = defs.iter().find(|d| d.statement == "u2").unwrap();
        assert!(u2.elements.contains(&[1024], &[]));
        assert!(u2.elements.contains(&[2046], &[]));
        assert!(!u2.elements.contains(&[1025], &[]));
    }

    #[test]
    fn calls_become_operator_nodes() {
        let g = addg(KERNEL_SAD_TREE);
        let mut found_call = false;
        for (_, n) in g.nodes() {
            if let Node::Operator {
                kind: OperatorKind::Call(name),
                ..
            } = n
            {
                assert_eq!(name, "absd");
                found_call = true;
            }
        }
        assert!(found_call);
    }

    #[test]
    fn describe_node_renders_readable_expressions() {
        let g = addg(FIG1_A);
        let def = &g.definitions("C")[0];
        let text = describe_node(&g, def.root);
        assert!(text.contains("tmp[k]"));
        assert!(text.contains("buf[2 * k]"));
    }

    #[test]
    fn scalars_in_value_position_are_rejected() {
        let src = r#"
void f(int A[], int C[]) {
    int k, x;
    for (k = 0; k < 4; k++)
s1:     C[k] = A[k] + x;
}
"#;
        let p = parse_program(src).unwrap();
        assert!(matches!(
            extract(&p),
            Err(crate::AddgError::Unsupported { .. })
        ));
    }
}
