//! Verification that a program lies in the restricted class of Section 3.1.
//!
//! The parser already rules out `while` loops and pointers syntactically;
//! this module performs the semantic checks that need the affine machinery:
//!
//! * every loop bound, guard and index expression is affine (property ③),
//! * control flow is static (steps are non-zero constants, guards are single
//!   affine comparisons — enforced structurally, re-validated here), and
//! * the program is in **dynamic single-assignment** form (property ①):
//!   no array element is written by two different statement instances.
//!
//! The single-assignment check is exact: for every statement the write
//! relation restricted to its domain must be injective, and the element sets
//! written by different statements to the same array must be disjoint.
//!
//! The checks run on the program's one [`Analysis`], where each distinct
//! write relation's injectivity and element set is derived once, however
//! many statements share it.

use crate::affine::Analysis;
use crate::ast::Program;
use crate::{LangError, Result};

/// A single violation found by [`check_class`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassViolation {
    /// The statement label(s) involved.
    pub statements: Vec<String>,
    /// Description of the violated property.
    pub message: String,
}

impl std::fmt::Display for ClassViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.statements.join(", "), self.message)
    }
}

/// Result of a program-class check.
#[derive(Debug, Clone, Default)]
pub struct ClassReport {
    /// All violations found (empty when the program is in the class).
    pub violations: Vec<ClassViolation>,
}

impl ClassReport {
    /// Whether the program satisfies every class property that was checked.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks the class properties of a program and returns a report listing all
/// violations (rather than stopping at the first).
///
/// # Errors
///
/// Returns an error only when the analysis itself fails (e.g. a non-affine
/// index aborts the affine lowering); violations that can be reported
/// gracefully are collected in the returned [`ClassReport`].
pub fn check_class(program: &Program) -> Result<ClassReport> {
    class_report(&Analysis::new(program)?)
}

fn class_report(analysis: &Analysis) -> Result<ClassReport> {
    let infos = analysis.statements();
    let mut report = ClassReport::default();

    // ① dynamic single assignment.
    // (1) Within one statement: the write relation must be injective
    //     (different iterations write different elements).
    for (s, info) in infos.iter().enumerate() {
        if !analysis.is_injective(s)? {
            report.violations.push(ClassViolation {
                statements: vec![info.label.clone()],
                message: format!(
                    "statement writes the same element of `{}` in different iterations \
                     (not in dynamic single-assignment form)",
                    info.target
                ),
            });
        }
    }
    // (2) Across statements: element sets written to the same array by
    //     different statements must be disjoint.
    for (a, info) in infos.iter().enumerate() {
        for &b in analysis.writers(&info.target) {
            if b <= a {
                continue;
            }
            let ea = analysis.elements(analysis.write(a));
            let eb = analysis.elements(analysis.write(b));
            if !ea.intersect(eb)?.is_empty() {
                report.violations.push(ClassViolation {
                    statements: vec![info.label.clone(), infos[b].label.clone()],
                    message: format!(
                        "statements both write overlapping elements of `{}` \
                         (not in dynamic single-assignment form)",
                        info.target
                    ),
                });
            }
        }
    }

    // Every statement must execute at least once: an empty iteration
    // domain (reversed loop bounds, a guard no iteration meets) is dead
    // code.
    for info in infos {
        if info.iteration_domain()?.is_empty() {
            report.violations.push(ClassViolation {
                statements: vec![info.label.clone()],
                message: "statement has an empty iteration domain (dead code)".into(),
            });
        }
    }

    Ok(report)
}

/// [`check_class`] on an existing analysis of the program, as a gate: turns
/// any violation into an error, for callers that just need a yes/no answer.
///
/// # Errors
///
/// Returns [`LangError::Class`] listing the violations when the program is
/// outside the class, and the errors of [`check_class`].
pub fn assert_in_class(analysis: &Analysis) -> Result<()> {
    let report = class_report(analysis)?;
    if report.is_ok() {
        Ok(())
    } else {
        let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        Err(LangError::Class {
            message: rendered.join("; "),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{FIG1_ALL, KERNELS};
    use crate::parser::parse_program;

    #[test]
    fn paper_programs_are_in_the_class() {
        for (name, src) in FIG1_ALL {
            let p = parse_program(src).unwrap();
            let report = check_class(&p).unwrap();
            assert!(
                report.is_ok(),
                "fig1({name}) should be in the class, got {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn kernel_suite_is_in_the_class() {
        for (name, src) in KERNELS {
            let p = parse_program(src).unwrap();
            let report = check_class(&p).unwrap();
            assert!(
                report.is_ok(),
                "kernel {name} should be in the class, got {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn double_write_is_reported() {
        // Both statements write C[0..3]: not single assignment.
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[k] = A[k] + 1;
    for (k = 0; k < 4; k++)
s2:     C[k] = A[k] + 2;
}
"#;
        let p = parse_program(src).unwrap();
        let report = check_class(&p).unwrap();
        assert!(!report.is_ok());
        assert!(report.violations.iter().any(|v| {
            v.statements == vec!["s1".to_string(), "s2".to_string()]
                && v.message.contains("single-assignment")
        }));
        assert!(assert_in_class(&Analysis::new(&p).unwrap()).is_err());
    }

    #[test]
    fn non_injective_single_statement_write_is_reported() {
        // C[k/2] would be non-affine; use C[0] written in every iteration.
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[0] = A[k] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        let report = check_class(&p).unwrap();
        assert!(!report.is_ok());
        assert!(report.violations[0]
            .message
            .contains("different iterations"));
    }

    #[test]
    fn a_written_parameter_is_never_an_input() {
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[k] = A[k] + 1;
    for (k = 4; k < 8; k++)
s2:     A[k] = C[k - 4] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        // A is both read and written, so its role is Intermediate: writing
        // a parameter never writes an input.  A read of a parameter before
        // its write is the def-use check's to reject.
        assert_eq!(p.param_roles()["A"], crate::ast::ArrayRole::Intermediate);
        assert!(check_class(&p).unwrap().is_ok());
    }

    #[test]
    fn empty_domain_is_flagged_as_dead_code() {
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 10; k < 4; k++)
s1:     C[k] = A[k] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        let report = check_class(&p).unwrap();
        assert!(!report.is_ok());
        assert!(report.violations[0]
            .message
            .contains("empty iteration domain"));
    }
}
