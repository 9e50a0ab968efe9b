//! The def-use (schedule correctness) checker of Fig. 6.
//!
//! The paper's sufficient condition assumes that both programs are correctly
//! scheduled, i.e. that every value is written before it is read.  This
//! module checks that assumption with standard array data-flow analysis:
//!
//! * **Coverage** — every element of a non-input array that a statement reads
//!   is written by *some* statement of the program;
//! * **Ordering** — for every (write statement, read statement) pair touching
//!   the same element, no read instance executes at or before the write
//!   instance that produces its value, under the original lexicographic
//!   execution order (2d+1 schedules built from textual positions and loop
//!   iterators).
//!
//! Both checks are exact integer-set computations on the access relations
//! of the program's one [`Analysis`].  There each array's writers and
//! written set are collected once, and each distinct (read relation, array)
//! pair's coverage is decided once.  The ordering check builds the schedule
//! order of a (writer, reader) pair first and composes the access relations
//! only when that order is not already empty, which it is whenever the
//! textual schedule runs every write before every read.

use crate::affine::{Analysis, ScheduleComponent, StatementInfo};
use crate::ast::Program;
use crate::{LangError, Result};
use arrayeq_omega::{Conjunct, Constraint, Relation, Space, VarKind};

/// One def-use problem found in a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefUseViolation {
    /// Label of the reading statement.
    pub reader: String,
    /// The array whose element is read.
    pub array: String,
    /// Label of the writing statement involved (empty for coverage errors).
    pub writer: Option<String>,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for DefUseViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} reading {}: {}",
            self.reader, self.array, self.message
        )
    }
}

/// Result of the def-use check.
#[derive(Debug, Clone, Default)]
pub struct DefUseReport {
    /// All violations found.
    pub violations: Vec<DefUseViolation>,
}

impl DefUseReport {
    /// Whether the def-use order is correct.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the def-use check on a program.
///
/// # Errors
///
/// Returns an error when the underlying affine analysis fails; order and
/// coverage problems are reported in the [`DefUseReport`] instead.
pub fn check_def_use(program: &Program) -> Result<DefUseReport> {
    def_use_report(&mut Analysis::new(program)?)
}

fn def_use_report(analysis: &mut Analysis) -> Result<DefUseReport> {
    let mut report = DefUseReport::default();
    for reader in 0..analysis.statements().len() {
        let info = &analysis.statements()[reader];
        let (label, reads) = (info.label.clone(), info.reads.clone());
        for (r, access) in reads.into_iter().enumerate() {
            if analysis.is_input(&access.array) {
                continue; // inputs are defined by the environment
            }
            // Coverage: the read elements must be covered by writes.
            if !analysis.covers(reader, r)? {
                report.violations.push(DefUseViolation {
                    reader: label.clone(),
                    array: access.array.clone(),
                    writer: None,
                    message: format!(
                        "reads elements of `{}` that no statement writes",
                        access.array
                    ),
                });
            }
            // Ordering: no write of an element may execute at or after a read
            // of the same element.
            for w in analysis.writers(&access.array).to_vec() {
                if reads_before_write(analysis, w, reader, r)? {
                    let writer = analysis.statements()[w].label.clone();
                    report.violations.push(DefUseViolation {
                        reader: label.clone(),
                        array: access.array.clone(),
                        message: format!(
                            "some instances read an element of `{}` before statement {writer} writes it",
                            access.array
                        ),
                        writer: Some(writer),
                    });
                }
            }
        }
    }
    Ok(report)
}

/// [`check_def_use`] on an existing analysis of the program, as a gate:
/// turns any violation into an error.
///
/// # Errors
///
/// Returns [`LangError::DefUse`] when the def-use order is broken, and the
/// errors of [`check_def_use`].
pub fn assert_def_use_correct(analysis: &mut Analysis) -> Result<()> {
    let report = def_use_report(analysis)?;
    if report.is_ok() {
        Ok(())
    } else {
        let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
        Err(LangError::DefUse {
            message: rendered.join("; "),
        })
    }
}

/// Whether some instance of the `r`-th read of statement `reader` reads an
/// element that statement `writer` writes at the same time or later.
fn reads_before_write(
    analysis: &mut Analysis,
    writer: usize,
    reader: usize,
    r: usize,
) -> Result<bool> {
    // Schedule constraint: time(reader at ri) <= time(writer at wi), as
    // wi -> ri.  With no such pair of instances there is nothing to test.
    let infos = analysis.statements();
    let order = lex_le(&infos[reader], &infos[writer])?.inverse();
    if order.conjuncts().is_empty() {
        return Ok(false);
    }
    // Same-element pairs: write_rel : wi -> elem, read_rel : ri -> elem, so
    // pairs = write_rel ∘ read_rel⁻¹ : wi -> ri.
    let read = analysis.read(reader, r)?;
    let pairs = analysis
        .relation(analysis.write(writer))
        .compose(&analysis.relation(read).inverse())?;
    Ok(!pairs.intersect(&order)?.simplified(true).is_empty())
}

/// The relation `{ [a iters] -> [b iters] : time_a <= time_b }` under the
/// textual 2d+1 schedules of statements `a` and `b`.
fn lex_le(a: &StatementInfo, b: &StatementInfo) -> Result<Relation> {
    let space = Space::relation(&a.iters, &b.iters, &a.param_names());
    let comps_a = a.schedule_components();
    let comps_b = b.schedule_components();
    let min_len = comps_a.len().min(comps_b.len());

    let mut result = Relation::empty(space.clone());

    // Case "strictly less at position p, equal before": one disjunct per p.
    for p in 0..min_len {
        let mut conj = Conjunct::universe(space.clone());
        let mut feasible = true;
        for q in 0..p {
            if !add_component_cmp(&mut conj, &comps_a[q], &comps_b[q], Cmp::Eq) {
                feasible = false;
                break;
            }
        }
        if !feasible {
            continue;
        }
        if !add_component_cmp(&mut conj, &comps_a[p], &comps_b[p], Cmp::Lt) {
            continue;
        }
        result = result.union(&Relation::from_conjuncts(space.clone(), vec![conj]))?;
    }

    // Case "equal on the whole common prefix" (covers identical instances and
    // prefix-length schedules).
    let mut conj = Conjunct::universe(space.clone());
    let mut feasible = true;
    for q in 0..min_len {
        if !add_component_cmp(&mut conj, &comps_a[q], &comps_b[q], Cmp::Eq) {
            feasible = false;
            break;
        }
    }
    if feasible {
        result = result.union(&Relation::from_conjuncts(space.clone(), vec![conj]))?;
    }

    // The access relations that the caller intersects this order with carry
    // both statements' full iteration domains, so it needs none of its own.
    Ok(result)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Eq,
    Lt,
}

/// Adds the constraint `comp_a (cmp) comp_b` to `conj`; returns `false` when
/// the constraint is trivially unsatisfiable (constant vs constant), letting
/// the caller prune the disjunct early.
fn add_component_cmp(
    conj: &mut Conjunct,
    ca: &ScheduleComponent,
    cb: &ScheduleComponent,
    cmp: Cmp,
) -> bool {
    // Prune constant-vs-constant comparisons without touching the solver.
    if let (ScheduleComponent::Const(x), ScheduleComponent::Const(y)) = (ca, cb) {
        return match cmp {
            Cmp::Eq => x == y,
            Cmp::Lt => x < y,
        };
    }
    // `sign·(ea - eb) + offset`, with `ea` over the input columns and `eb`
    // over the output columns: `ea = eb` as an equality, and `ea < eb` as
    // `eb - ea - 1 >= 0`.  Each side is one unit coefficient or one
    // constant, and schedule constants are statement positions, so the
    // constant difference cannot overflow.
    let (sign, offset) = match cmp {
        Cmp::Eq => (1, 0),
        Cmp::Lt => (-1, -1),
    };
    let mut diff = conj.zero_expr();
    let mut constant = offset;
    for (c, kind, s) in [(ca, VarKind::In, sign), (cb, VarKind::Out, -sign)] {
        match c {
            ScheduleComponent::Const(v) => constant += s * v,
            ScheduleComponent::Iter(level) => diff.set_coeff(conj.col(kind, *level), s),
        }
    }
    diff.set_constant(constant);
    conj.add(match cmp {
        Cmp::Eq => Constraint::eq(diff),
        Cmp::Lt => Constraint::geq(diff),
    });
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{FIG1_ALL, KERNELS};
    use crate::parser::parse_program;

    #[test]
    fn paper_programs_pass_def_use() {
        for (name, src) in FIG1_ALL {
            let p = parse_program(src).unwrap();
            let report = check_def_use(&p).unwrap();
            assert!(
                report.is_ok(),
                "fig1({name}) def-use should pass: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn kernels_pass_def_use() {
        for (name, src) in KERNELS {
            let p = parse_program(src).unwrap();
            let report = check_def_use(&p).unwrap();
            assert!(
                report.is_ok(),
                "kernel {name} def-use should pass: {:?}",
                report.violations
            );
        }
    }

    #[test]
    fn reading_before_writing_is_detected() {
        // The consumer loop comes before the producer loop.
        let src = r#"
#define N 8
void f(int A[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++)
s1:     C[k] = tmp[k] + A[k];
    for (k = 0; k < N; k++)
s2:     tmp[k] = A[k] + 1;
}
"#;
        let p = parse_program(src).unwrap();
        let report = check_def_use(&p).unwrap();
        assert!(!report.is_ok());
        assert!(report
            .violations
            .iter()
            .any(|v| v.reader == "s1" && v.writer.as_deref() == Some("s2")));
        assert!(assert_def_use_correct(&mut Analysis::new(&p).unwrap()).is_err());
    }

    #[test]
    fn uncovered_reads_are_detected() {
        // tmp[8..15] is read but never written.
        let src = r#"
#define N 8
void f(int A[], int C[]) {
    int k, tmp[16];
    for (k = 0; k < N; k++)
s1:     tmp[k] = A[k] + 1;
    for (k = 0; k < N; k++)
s2:     C[k] = tmp[k + 8] + A[k];
}
"#;
        let p = parse_program(src).unwrap();
        let report = check_def_use(&p).unwrap();
        assert!(!report.is_ok());
        assert!(report
            .violations
            .iter()
            .any(|v| v.writer.is_none() && v.message.contains("no statement writes")));
    }

    #[test]
    fn same_loop_producer_consumer_order_is_respected() {
        // Within one loop body, s1 writes tmp[k] and s2 reads it afterwards:
        // correct.  Reading tmp[k+1] instead would be a violation because it
        // is written only in the *next* iteration.
        let good = r#"
#define N 8
void f(int A[], int C[]) {
    int k, tmp[N];
    for (k = 0; k < N; k++) {
s1:     tmp[k] = A[k] + 1;
s2:     C[k] = tmp[k] + A[k];
    }
}
"#;
        let p = parse_program(good).unwrap();
        assert!(check_def_use(&p).unwrap().is_ok());

        let bad = r#"
#define N 8
void f(int A[], int C[]) {
    int k, tmp[9];
    for (k = 0; k < N; k++) {
s1:     tmp[k] = A[k] + 1;
s2:     C[k] = tmp[k + 1] + A[k];
    }
}
"#;
        let p = parse_program(bad).unwrap();
        let report = check_def_use(&p).unwrap();
        assert!(!report.is_ok());
    }

    #[test]
    fn recurrence_reading_its_own_past_is_accepted() {
        let p = parse_program(crate::corpus::KERNEL_RECURRENCE).unwrap();
        let report = check_def_use(&p).unwrap();
        assert!(report.is_ok(), "{:?}", report.violations);
    }
}
