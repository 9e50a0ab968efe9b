//! Lexer and recursive-descent parser for the restricted C subset.
//!
//! The accepted language is exactly what the paper's program class needs —
//! the four `foo` variants of Fig. 1 parse verbatim:
//!
//! ```c
//! #define N 1024
//! foo(int A[], int B[], int C[])
//! {
//!     int k, tmp[N], buf[2*N];
//!     for (k = 0; k < N; k++)
//! s1:     tmp[k] = B[2*k] + B[k];
//!     ...
//! }
//! ```
//!
//! Supported constructs: `#define` constants, a single function definition
//! with array parameters, local `int` declarations (scalars and arrays),
//! `for` loops with affine bounds and constant steps (`k++`, `k--`,
//! `k += c`, `k -= c`), `if`/`else` with a single affine comparison,
//! labelled assignments to array elements, and right-hand sides built from
//! `+ - * /`, parentheses and calls of uninterpreted functions.
//! `while`, pointers, and address arithmetic are rejected — programs using
//! them are outside the class by definition.

use crate::ast::*;
use crate::{LangError, Result};
use std::collections::BTreeMap;

/// Parses a complete function in the restricted class.
///
/// # Errors
///
/// Returns [`LangError::Parse`] on malformed input or constructs outside the
/// supported subset (e.g. `while` loops or pointer dereferences).
pub fn parse_program(src: &str) -> Result<Program> {
    Parser::new(src)?.parse_program()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(char),
    // multi-character punctuation
    Le,
    Ge,
    EqEq,
    Ne,
    PlusPlus,
    MinusMinus,
    PlusEq,
    MinusEq,
    Define,
    Param,
}

struct Parser {
    toks: Vec<(Tok, usize)>, // (token, line)
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Parser> {
        let mut toks = Vec::new();
        let chars: Vec<char> = src.chars().collect();
        let mut i = 0;
        let mut line = 1;
        while i < chars.len() {
            let c = chars[i];
            match c {
                '\n' => {
                    line += 1;
                    i += 1;
                }
                ' ' | '\t' | '\r' => i += 1,
                '/' if i + 1 < chars.len() && chars[i + 1] == '*' => {
                    i += 2;
                    while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                    i += 2;
                }
                '/' if i + 1 < chars.len() && chars[i + 1] == '/' => {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                }
                '#' => {
                    // `#define` / `#param`
                    let mut word = String::new();
                    i += 1;
                    while i < chars.len() && chars[i].is_ascii_alphabetic() {
                        word.push(chars[i]);
                        i += 1;
                    }
                    if word == "define" {
                        toks.push((Tok::Define, line));
                    } else if word == "param" {
                        toks.push((Tok::Param, line));
                    } else {
                        return Err(LangError::Parse {
                            message: format!("unsupported preprocessor directive `#{word}`"),
                            line,
                        });
                    }
                }
                '<' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                    toks.push((Tok::Le, line));
                    i += 2;
                }
                '>' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                    toks.push((Tok::Ge, line));
                    i += 2;
                }
                '=' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                    toks.push((Tok::EqEq, line));
                    i += 2;
                }
                '!' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                    toks.push((Tok::Ne, line));
                    i += 2;
                }
                '+' if i + 1 < chars.len() && chars[i + 1] == '+' => {
                    toks.push((Tok::PlusPlus, line));
                    i += 2;
                }
                '-' if i + 1 < chars.len() && chars[i + 1] == '-' => {
                    toks.push((Tok::MinusMinus, line));
                    i += 2;
                }
                '+' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                    toks.push((Tok::PlusEq, line));
                    i += 2;
                }
                '-' if i + 1 < chars.len() && chars[i + 1] == '=' => {
                    toks.push((Tok::MinusEq, line));
                    i += 2;
                }
                '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | ':' | '=' | '+' | '-' | '*'
                | '/' | '<' | '>' => {
                    toks.push((Tok::Punct(c), line));
                    i += 1;
                }
                _ if c.is_ascii_digit() => {
                    let mut v = 0i64;
                    while i < chars.len() && chars[i].is_ascii_digit() {
                        v = v * 10 + (chars[i] as i64 - '0' as i64);
                        i += 1;
                    }
                    toks.push((Tok::Int(v), line));
                }
                _ if c.is_ascii_alphabetic() || c == '_' => {
                    let mut name = String::new();
                    while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                        name.push(chars[i]);
                        i += 1;
                    }
                    toks.push((Tok::Ident(name), line));
                }
                _ => {
                    return Err(LangError::Parse {
                        message: format!("unexpected character `{c}`"),
                        line,
                    })
                }
            }
        }
        Ok(Parser { toks, pos: 0 })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|(_, l)| *l)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(LangError::Parse {
            message: message.into(),
            line: self.line(),
        })
    }

    fn expect_punct(&mut self, c: char) -> Result<()> {
        match self.bump() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => self.err(format!("expected `{c}`, found {other:?}")),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(n)) => Ok(n),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(p)) if *p == c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(n)) if n == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn parse_program(&mut self) -> Result<Program> {
        let mut defines: BTreeMap<String, i64> = BTreeMap::new();
        let mut symbolic_params: Vec<(String, i64)> = Vec::new();
        // (#define NAME VALUE | #param NAME [>= MIN])*
        while matches!(self.peek(), Some(Tok::Define | Tok::Param)) {
            let is_param = matches!(self.peek(), Some(Tok::Param));
            self.bump();
            let name = self.expect_ident()?;
            if is_param {
                if defines.contains_key(&name) || symbolic_params.iter().any(|(n, _)| *n == name) {
                    return self.err("duplicate #param / #define name");
                }
                // Optional declared lower bound; sizes default to >= 1.
                let min = if matches!(self.peek(), Some(Tok::Ge)) {
                    self.bump();
                    self.parse_const_expr(&defines)?
                } else {
                    1
                };
                symbolic_params.push((name, min));
            } else {
                let value = self.parse_const_expr(&defines)?;
                defines.insert(name, value);
            }
        }

        // Optional return type (`void` / `int`), then the function name.
        if matches!(self.peek(), Some(Tok::Ident(n)) if n == "void" || n == "int") {
            // Distinguish `void foo(` / `int foo(` from `foo(`.
            if matches!(self.peek2(), Some(Tok::Ident(_))) {
                self.bump();
            }
        }
        let name = self.expect_ident()?;
        self.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.eat_punct(')') {
            loop {
                if !self.eat_keyword("int") {
                    return self.err("parameters must be declared as `int name[]`");
                }
                if self.eat_punct('*') {
                    return self.err("pointer parameters are outside the program class");
                }
                let pname = self.expect_ident()?;
                // Zero or more `[]` or `[expr]` suffixes.
                while self.eat_punct('[') {
                    if !self.eat_punct(']') {
                        let _ = self.parse_expr()?;
                        self.expect_punct(']')?;
                    }
                }
                params.push(pname);
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        self.expect_punct('{')?;

        // Local declarations: `int a, b[N], c[2*N];`
        let mut decls = Vec::new();
        while self.eat_keyword("int") {
            loop {
                if self.eat_punct('*') {
                    return self.err("pointer declarations are outside the program class");
                }
                let dname = self.expect_ident()?;
                let mut dims = Vec::new();
                while self.eat_punct('[') {
                    let e = self.parse_expr()?;
                    self.expect_punct(']')?;
                    dims.push(e);
                }
                decls.push(Decl { name: dname, dims });
                if self.eat_punct(';') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }

        let mut label_counter = 0usize;
        let body = self.parse_block_items(&mut label_counter)?;
        // The closing `}` was consumed by parse_block_items' caller loop; it
        // stops at `}` and leaves it, so consume it here.
        self.expect_punct('}')?;

        Ok(Program {
            name,
            defines,
            params,
            symbolic_params,
            decls,
            body,
        })
    }

    /// Parses a `#define` value: an integer literal or an expression over
    /// previously defined constants (evaluated immediately).
    fn parse_const_expr(&mut self, defines: &BTreeMap<String, i64>) -> Result<i64> {
        let e = self.parse_expr()?;
        eval_const(&e, defines).ok_or_else(|| LangError::Parse {
            message: "a #define value must be a constant expression".into(),
            line: self.line(),
        })
    }

    /// Parses statements until the next unmatched `}` (not consumed).
    fn parse_block_items(&mut self, label_counter: &mut usize) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return self.err("unexpected end of input, missing `}`"),
                Some(Tok::Punct('}')) => return Ok(out),
                _ => out.push(self.parse_stmt(label_counter)?),
            }
        }
    }

    /// Parses a single statement or braced block (flattened into its items).
    fn parse_stmt(&mut self, label_counter: &mut usize) -> Result<Stmt> {
        // `while` is explicitly rejected with a class-specific message.
        if matches!(self.peek(), Some(Tok::Ident(n)) if n == "while") {
            return self
                .err("`while` loops are outside the program class; convert to for-loops first");
        }
        if self.eat_keyword("for") {
            return self.parse_for(label_counter);
        }
        if self.eat_keyword("if") {
            return self.parse_if(label_counter);
        }
        // Optional label: `ident :` followed by an assignment.
        let label = if matches!(self.peek(), Some(Tok::Ident(_)))
            && matches!(self.peek2(), Some(Tok::Punct(':')))
        {
            let l = self.expect_ident()?;
            self.expect_punct(':')?;
            l
        } else {
            *label_counter += 1;
            format!("__a{}", *label_counter - 1)
        };
        self.parse_assign(label)
    }

    /// Parses a statement body: either a braced block or a single statement.
    fn parse_body(&mut self, label_counter: &mut usize) -> Result<Vec<Stmt>> {
        if self.eat_punct('{') {
            let items = self.parse_block_items(label_counter)?;
            self.expect_punct('}')?;
            Ok(items)
        } else {
            Ok(vec![self.parse_stmt(label_counter)?])
        }
    }

    fn parse_for(&mut self, label_counter: &mut usize) -> Result<Stmt> {
        self.expect_punct('(')?;
        let var = self.expect_ident()?;
        self.expect_punct('=')?;
        let init = self.parse_expr()?;
        self.expect_punct(';')?;
        let cond_lhs = self.parse_expr()?;
        let op = self.parse_cmp_op()?;
        let cond_rhs = self.parse_expr()?;
        self.expect_punct(';')?;
        // Step: `var++`, `var--`, `var += c`, `var -= c`, `var = var + c`.
        let step_var = self.expect_ident()?;
        if step_var != var {
            return self.err(format!(
                "for-loop step must update the iterator `{var}`, found `{step_var}`"
            ));
        }
        let step = match self.bump() {
            Some(Tok::PlusPlus) => 1,
            Some(Tok::MinusMinus) => -1,
            Some(Tok::PlusEq) => self.parse_step_amount()?,
            Some(Tok::MinusEq) => -self.parse_step_amount()?,
            Some(Tok::Punct('=')) => {
                // var = var + c  or  var = var - c
                let e = self.parse_expr()?;
                match step_from_assignment(&var, &e) {
                    Some(s) => s,
                    None => return self.err("unsupported for-loop step expression"),
                }
            }
            other => return self.err(format!("unsupported for-loop step {other:?}")),
        };
        self.expect_punct(')')?;
        let body = self.parse_body(label_counter)?;
        let cond = Cond::new(cond_lhs, op, cond_rhs);
        Ok(Stmt::For(For {
            var,
            init,
            cond,
            step,
            body,
        }))
    }

    fn parse_step_amount(&mut self) -> Result<i64> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            other => self.err(format!("for-loop step must be a constant, found {other:?}")),
        }
    }

    fn parse_if(&mut self, label_counter: &mut usize) -> Result<Stmt> {
        self.expect_punct('(')?;
        let lhs = self.parse_expr()?;
        let op = self.parse_cmp_op()?;
        let rhs = self.parse_expr()?;
        self.expect_punct(')')?;
        let then_branch = self.parse_body(label_counter)?;
        let else_branch = if self.eat_keyword("else") {
            self.parse_body(label_counter)?
        } else {
            Vec::new()
        };
        Ok(Stmt::If(If {
            cond: Cond::new(lhs, op, rhs),
            then_branch,
            else_branch,
        }))
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp> {
        match self.bump() {
            Some(Tok::Punct('<')) => Ok(CmpOp::Lt),
            Some(Tok::Punct('>')) => Ok(CmpOp::Gt),
            Some(Tok::Le) => Ok(CmpOp::Le),
            Some(Tok::Ge) => Ok(CmpOp::Ge),
            Some(Tok::EqEq) => Ok(CmpOp::Eq),
            Some(Tok::Ne) => Ok(CmpOp::Ne),
            other => self.err(format!("expected comparison operator, found {other:?}")),
        }
    }

    fn parse_assign(&mut self, label: String) -> Result<Stmt> {
        let array = self.expect_ident()?;
        let mut indices = Vec::new();
        while self.eat_punct('[') {
            let e = self.parse_expr()?;
            self.expect_punct(']')?;
            indices.push(e);
        }
        self.expect_punct('=')?;
        let rhs = self.parse_expr()?;
        self.expect_punct(';')?;
        Ok(Stmt::Assign(Assign {
            label,
            lhs: ArrayRef::new(array, indices),
            rhs,
        }))
    }

    // Expression grammar: additive over multiplicative over unary/primary.
    fn parse_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            if self.eat_punct('+') {
                let rhs = self.parse_mul()?;
                lhs = Expr::add(lhs, rhs);
            } else if self.eat_punct('-') {
                let rhs = self.parse_mul()?;
                lhs = Expr::sub(lhs, rhs);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            if self.eat_punct('*') {
                let rhs = self.parse_unary()?;
                lhs = Expr::mul(lhs, rhs);
            } else if self.eat_punct('/') {
                let rhs = self.parse_unary()?;
                lhs = Expr::Bin(BinOp::Div, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_punct('-') {
            let e = self.parse_unary()?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(Expr::Const(v)),
            Some(Tok::Punct('(')) => {
                let e = self.parse_expr()?;
                self.expect_punct(')')?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if self.eat_punct('(') {
                    // Function call.
                    let mut args = Vec::new();
                    if !self.eat_punct(')') {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat_punct(')') {
                                break;
                            }
                            self.expect_punct(',')?;
                        }
                    }
                    return Ok(Expr::Call(name, args));
                }
                let mut indices = Vec::new();
                while self.eat_punct('[') {
                    let e = self.parse_expr()?;
                    self.expect_punct(']')?;
                    indices.push(e);
                }
                if indices.is_empty() {
                    Ok(Expr::Var(name))
                } else {
                    Ok(Expr::Access(ArrayRef::new(name, indices)))
                }
            }
            other => self.err(format!("expected an expression, found {other:?}")),
        }
    }
}

/// Derives the constant step from `var = var + c` / `var = c + var` /
/// `var = var - c` forms.
fn step_from_assignment(var: &str, e: &Expr) -> Option<i64> {
    match e {
        Expr::Bin(BinOp::Add, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), Expr::Const(c)) if v == var => Some(*c),
            (Expr::Const(c), Expr::Var(v)) if v == var => Some(*c),
            _ => None,
        },
        Expr::Bin(BinOp::Sub, l, r) => match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), Expr::Const(c)) if v == var => Some(-*c),
            _ => None,
        },
        _ => None,
    }
}

/// Evaluates an expression that uses only literals and `#define` constants,
/// wrapping in `i64` as the program's arithmetic does.
pub fn eval_const(e: &Expr, defines: &BTreeMap<String, i64>) -> Option<i64> {
    match e {
        Expr::Const(v) => Some(*v),
        Expr::Var(n) => defines.get(n).copied(),
        Expr::Neg(e) => eval_const(e, defines).map(i64::wrapping_neg),
        Expr::Bin(op, l, r) => {
            let l = eval_const(l, defines)?;
            let r = eval_const(r, defines)?;
            match op {
                BinOp::Add => Some(l.wrapping_add(r)),
                BinOp::Sub => Some(l.wrapping_sub(r)),
                BinOp::Mul => Some(l.wrapping_mul(r)),
                BinOp::Div => {
                    if r == 0 {
                        None
                    } else {
                        Some(l.wrapping_div(r))
                    }
                }
            }
        }
        Expr::Access(_) | Expr::Call(..) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::FIG1_A;

    #[test]
    fn parses_fig1_original_function() {
        let p = parse_program(FIG1_A).expect("fig 1(a) parses");
        assert_eq!(p.name, "foo");
        assert_eq!(p.params, vec!["A", "B", "C"]);
        assert_eq!(p.define("N"), Some(1024));
        let labels: Vec<&str> = p.statements().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, vec!["s1", "s2", "s3"]);
        // Down-counting loop is recognised.
        match &p.body[1] {
            Stmt::For(f) => {
                assert_eq!(f.step, -1);
                assert_eq!(f.cond.op, CmpOp::Ge);
            }
            other => panic!("expected for loop, got {other:?}"),
        }
        // Declarations include the 2*N-sized buffer.
        assert_eq!(p.decls.len(), 3);
        assert_eq!(p.intermediate_arrays(), vec!["tmp", "buf"]);
    }

    #[test]
    fn parses_if_else_and_strided_loops() {
        let src = r#"
#define N 1024
foo(int A[], int B[], int C[])
{
    int k, tmp[N], buf[N];
    for(k=0; k<512; k++)
t1:  tmp[k] = B[2*k] + B[k];
    for(k=0; k<N; k++){
t2:  buf[k] = A[2*k] + A[k];
     if (k < 512)
t3:    C[k] = tmp[k] + buf[k];
     else
t4:    C[k] = (B[2*k] + B[k])
                      + buf[k];
    }
}
"#;
        let p = parse_program(src).expect("fig 1(b) parses");
        let labels: Vec<&str> = p.statements().map(|a| a.label.as_str()).collect();
        assert_eq!(labels, vec!["t1", "t2", "t3", "t4"]);
        let strided = r#"
#define N 16
foo(int A[], int B[], int C[])
{
    int k, buf[2*N];
    for(k=0; k<=2*N-2; k+=2)
u1:  buf[k] = A[k] + B[k];
    for(k=1; k<N; k+=2)
u2:  C[k] = buf[k-1] + A[k];
}
"#;
        let p = parse_program(strided).expect("strided loops parse");
        match &p.body[0] {
            Stmt::For(f) => assert_eq!(f.step, 2),
            _ => panic!("expected for"),
        }
    }

    #[test]
    fn unlabelled_statements_get_fresh_labels() {
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
        C[k] = A[k] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        let labels: Vec<&str> = p.statements().map(|a| a.label.as_str()).collect();
        assert_eq!(labels.len(), 1);
        assert!(labels[0].starts_with("__a"));
    }

    #[test]
    fn rejects_while_and_pointers() {
        let w = r#"
void f(int A[], int C[]) {
    int k;
    while (k < 4) { C[k] = A[k]; }
}
"#;
        assert!(matches!(parse_program(w), Err(LangError::Parse { .. })));
        let ptr = r#"
void f(int *A, int C[]) {
    int k;
    for (k = 0; k < 4; k++)
        C[k] = A[k];
}
"#;
        assert!(matches!(parse_program(ptr), Err(LangError::Parse { .. })));
    }

    #[test]
    fn parses_calls_and_division() {
        let src = r#"
#define N 8
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < N; k++)
s1:     C[k] = clip(A[k] * 3, 255) + A[k] / 2;
}
"#;
        let p = parse_program(src).unwrap();
        let s1 = p.statement("s1").unwrap();
        match &s1.rhs {
            Expr::Bin(BinOp::Add, l, _) => match l.as_ref() {
                Expr::Call(name, args) => {
                    assert_eq!(name, "clip");
                    assert_eq!(args.len(), 2);
                }
                other => panic!("expected call, got {other:?}"),
            },
            other => panic!("expected add, got {other:?}"),
        }
    }

    #[test]
    fn define_arithmetic_and_multiple_defines() {
        let src = r#"
#define N 8
#define M 2*N
#define W (0 - 9223372036854775807 - 1) / (0 - 1)
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < M; k++)
s1:     C[k] = A[k] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.define("M"), Some(16));
        // Wraps in i64, as the program's arithmetic does.
        assert_eq!(p.define("W"), Some(i64::MIN));
    }

    #[test]
    fn step_written_as_assignment() {
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 8; k = k + 2)
s1:     C[k] = A[k] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        match &p.body[0] {
            Stmt::For(f) => assert_eq!(f.step, 2),
            _ => panic!("expected for"),
        }
    }

    #[test]
    fn error_carries_line_number() {
        let src = "#define N 8\nvoid f(int A[]) {\n  int k\n  for (k = 0; k < 2; k++) ;\n}";
        match parse_program(src) {
            Err(LangError::Parse { line, .. }) => assert!(line >= 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
