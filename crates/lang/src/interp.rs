//! Reference interpreter (the "simulation" baseline of the paper's intro).
//!
//! The paper motivates equivalence checking by the cost and incompleteness of
//! simulating the transformed program on test vectors.  This module provides
//! that simulation: it executes a program of the restricted class on concrete
//! input arrays and returns the values of its output arrays.  It is used
//!
//! * as the baseline whose runtime is compared against the checker in the
//!   scaling experiments (the checker's cost is independent of the loop
//!   bounds, simulation's is linear in them), and
//! * as a test oracle: programs the checker proves equivalent must produce
//!   identical outputs on random inputs, and programs it rejects with a
//!   concrete failing domain must differ somewhere in that domain.
//!
//! Uninterpreted function calls (`absd(...)`, `clip(...)`, ...) are executed
//! with a deterministic hash-mixing semantics so that two programs agree on a
//! call iff they agree on the function name and argument values — exactly the
//! congruence the checker assumes.

use crate::ast::*;
use crate::{LangError, Result};
use std::collections::BTreeMap;

/// Concrete values for the input arrays of a program, plus sizes for its
/// output arrays.
#[derive(Debug, Clone, Default)]
pub struct Inputs {
    /// Values of each input array, indexed by flat element offset.
    pub arrays: BTreeMap<String, Vec<i64>>,
    /// Number of elements to allocate for output / intermediate parameter
    /// arrays that are not listed in [`Inputs::arrays`].
    pub output_sizes: BTreeMap<String, usize>,
}

impl Inputs {
    /// Creates an empty input environment.
    pub fn new() -> Self {
        Inputs::default()
    }

    /// Sets the contents of an input array.
    pub fn array(mut self, name: impl Into<String>, values: Vec<i64>) -> Self {
        self.arrays.insert(name.into(), values);
        self
    }

    /// Declares the size of an output array.
    pub fn output(mut self, name: impl Into<String>, size: usize) -> Self {
        self.output_sizes.insert(name.into(), size);
        self
    }
}

/// Row pitch used when flattening multi-dimensional accesses (see
/// [`flat_offset`] and the interpreter's indexing).
pub const MD_ROW_PITCH: i64 = 1024;

/// The most elements one array of [`standard_inputs`] holds: well above
/// what the corpus, the kernels and the generated programs get (at most
/// 278,528, for `conv2d`'s two-dimensional arrays).
const MAX_STANDARD_ELEMENTS: usize = 1 << 22;

/// The flat element offset the interpreter uses for a (possibly
/// multi-dimensional) index tuple: `fold(o, i → o·1024 + i)`.  Exposed so
/// replay tooling can address the same element the program wrote.  Returns
/// `None` for offsets that do not fit a `usize` (negative indices).
pub fn flat_offset(point: &[i64]) -> Option<usize> {
    if point.is_empty() {
        return Some(0);
    }
    let mut offset: i64 = 0;
    for &p in point {
        if point.len() > 1 {
            offset = offset.checked_mul(MD_ROW_PITCH)?.checked_add(p)?;
        } else {
            offset = p;
        }
    }
    usize::try_from(offset).ok()
}

/// Builds a deterministic input environment for an arbitrary program of the
/// class: every input array is filled with a seed-dependent pseudo-random
/// pattern and sized generously from the program's `#define` constants;
/// output parameter arrays get matching sizes.  No array gets more than a
/// fixed cap of elements: a `#define` too large to size an array within it
/// is left out, so a program that really indexes that far stops at the
/// interpreter's typed out-of-bounds error instead of allocating it.
///
/// Different `seed`s give genuinely different fills (a hash mix, not an
/// affine ramp), so value-level coincidences between two inequivalent
/// programs on one fill are broken by the next — the property the witness
/// replay relies on.
pub fn standard_inputs(program: &Program, seed: u64) -> Inputs {
    // Span: generous multiple of the largest #define (strides of 2 and small
    // shifts appear throughout the class), over the defines whose span fits
    // the cap.
    let span_of = |define: i64| {
        let span = define.max(1).checked_mul(4)?.checked_add(16)?;
        usize::try_from(span)
            .ok()
            .filter(|&s| s <= MAX_STANDARD_ELEMENTS)
    };
    let span = program
        .defines
        .values()
        .filter_map(|&d| span_of(d))
        .max()
        .unwrap_or(4 * 64 + 16);
    // Arrays accessed with d indices need pitch^(d-1) * span elements.
    let dims_of = |name: &str| -> usize {
        let mut dims = 1usize;
        for a in program.statements() {
            if a.lhs.array == name {
                dims = dims.max(a.lhs.indices.len());
            }
            for r in a.rhs.reads() {
                if r.array == name {
                    dims = dims.max(r.indices.len());
                }
            }
        }
        dims
    };
    let size_for = |name: &str| -> usize {
        let rows = (MD_ROW_PITCH as usize).checked_pow(dims_of(name).saturating_sub(1) as u32);
        rows.and_then(|r| r.checked_mul(span))
            .map_or(MAX_STANDARD_ELEMENTS, |n| n.min(MAX_STANDARD_ELEMENTS))
    };
    let mix = |seed: u64, salt: u64, i: u64| -> i64 {
        let mut h = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(salt)
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(i);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
        // Keep values small so products of several inputs stay far from
        // overflow.
        (h % 997) as i64 - 498
    };
    let roles = program.param_roles();
    let mut inputs = Inputs::new();
    for (salt, p) in program.params.iter().enumerate() {
        match roles.get(p.as_str()) {
            Some(crate::ast::ArrayRole::Input) => {
                let n = size_for(p);
                let data: Vec<i64> = (0..n as u64).map(|i| mix(seed, salt as u64, i)).collect();
                inputs = inputs.array(p.clone(), data);
            }
            _ => {
                inputs = inputs.output(p.clone(), size_for(p));
            }
        }
    }
    inputs
}

/// The memory state after executing a program: one flat vector per array.
/// Unwritten elements keep the sentinel [`Interpreter::UNINIT`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Memory {
    arrays: BTreeMap<String, Vec<i64>>,
}

impl Memory {
    /// The final contents of an array.
    pub fn array(&self, name: &str) -> Option<&[i64]> {
        self.arrays.get(name).map(|v| v.as_slice())
    }

    /// The value of one element, if the array exists and the index is in
    /// bounds.
    pub fn element(&self, name: &str, index: usize) -> Option<i64> {
        self.arrays.get(name).and_then(|v| v.get(index)).copied()
    }
}

/// Statistics collected during one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of assignment-statement instances executed.
    pub assignments: u64,
    /// Number of binary operations evaluated on the value level.
    pub operations: u64,
}

/// The interpreter.  Construct one per program, then call
/// [`Interpreter::run`].
#[derive(Debug, Clone)]
pub struct Interpreter<'p> {
    program: &'p Program,
}

impl<'p> Interpreter<'p> {
    /// Sentinel stored in array elements that were never written.
    pub const UNINIT: i64 = i64::MIN + 7;

    /// Creates an interpreter for a program.
    pub fn new(program: &'p Program) -> Self {
        Interpreter { program }
    }

    /// Executes the program on the given inputs.
    ///
    /// # Errors
    ///
    /// Returns [`LangError::Runtime`] on out-of-bounds accesses, missing
    /// inputs, non-constant sizes or division by zero.
    pub fn run(&self, inputs: &Inputs) -> Result<(Memory, ExecStats)> {
        if !self.program.symbolic_params.is_empty() {
            return Err(LangError::Runtime {
                message: format!(
                    "program has symbolic parameters ({}); instantiate them with \
                     `Program::with_param_values` before interpreting",
                    self.program
                        .symbolic_params
                        .iter()
                        .map(|(n, _)| n.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
        let mut arrays: BTreeMap<String, Vec<i64>> = BTreeMap::new();

        // Parameters: inputs come from the caller, outputs are allocated.
        for p in &self.program.params {
            if let Some(values) = inputs.arrays.get(p) {
                arrays.insert(p.clone(), values.clone());
            } else if let Some(&size) = inputs.output_sizes.get(p) {
                arrays.insert(p.clone(), vec![Self::UNINIT; size]);
            } else {
                return Err(LangError::Runtime {
                    message: format!("no value or size provided for parameter array `{p}`"),
                });
            }
        }
        // Local arrays: sizes from their declarations.
        for d in &self.program.decls {
            if d.dims.is_empty() {
                continue; // scalar iterator
            }
            let mut size = 1usize;
            for dim in &d.dims {
                let v = crate::parser::eval_const(dim, &self.program.defines).ok_or_else(|| {
                    LangError::Runtime {
                        message: format!("size of local array `{}` is not a constant", d.name),
                    }
                })?;
                if v <= 0 {
                    return Err(LangError::Runtime {
                        message: format!("local array `{}` has non-positive size {v}", d.name),
                    });
                }
                size = size
                    .checked_mul(v as usize)
                    .ok_or_else(|| LangError::Runtime {
                        message: format!("size of local array `{}` overflows", d.name),
                    })?;
            }
            arrays.insert(d.name.clone(), vec![Self::UNINIT; size]);
        }

        let mut state = State {
            arrays,
            scalars: BTreeMap::new(),
            defines: &self.program.defines,
            stats: ExecStats::default(),
        };
        state.exec_block(&self.program.body)?;
        Ok((
            Memory {
                arrays: state.arrays,
            },
            state.stats,
        ))
    }

    /// Convenience helper: runs the program and returns the named output
    /// array.
    ///
    /// # Errors
    ///
    /// Propagates [`Interpreter::run`] errors and reports a missing output.
    pub fn run_for_output(&self, inputs: &Inputs, output: &str) -> Result<Vec<i64>> {
        let (mem, _) = self.run(inputs)?;
        mem.array(output)
            .map(|s| s.to_vec())
            .ok_or_else(|| LangError::Runtime {
                message: format!("program has no array `{output}`"),
            })
    }
}

struct State<'p> {
    arrays: BTreeMap<String, Vec<i64>>,
    scalars: BTreeMap<String, i64>,
    defines: &'p BTreeMap<String, i64>,
    stats: ExecStats,
}

impl State<'_> {
    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<()> {
        for s in stmts {
            self.exec_stmt(s)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<()> {
        match s {
            Stmt::Assign(a) => {
                let value = self.eval(&a.rhs)?;
                let offset = self.flat_index(&a.lhs)?;
                let arr = self
                    .arrays
                    .get_mut(&a.lhs.array)
                    .ok_or_else(|| LangError::Runtime {
                        message: format!("unknown array `{}`", a.lhs.array),
                    })?;
                if offset >= arr.len() {
                    return Err(LangError::Runtime {
                        message: format!(
                            "write out of bounds: {}[{offset}] (size {})",
                            a.lhs.array,
                            arr.len()
                        ),
                    });
                }
                arr[offset] = value;
                self.stats.assignments += 1;
                Ok(())
            }
            Stmt::For(f) => {
                let init = self.eval(&f.init)?;
                self.scalars.insert(f.var.clone(), init);
                loop {
                    let l = self.eval(&f.cond.lhs)?;
                    let r = self.eval(&f.cond.rhs)?;
                    if !f.cond.op.eval(l, r) {
                        break;
                    }
                    self.exec_block(&f.body)?;
                    let next = self.scalars[&f.var] + f.step;
                    self.scalars.insert(f.var.clone(), next);
                }
                Ok(())
            }
            Stmt::If(i) => {
                let l = self.eval(&i.cond.lhs)?;
                let r = self.eval(&i.cond.rhs)?;
                if i.cond.op.eval(l, r) {
                    self.exec_block(&i.then_branch)
                } else {
                    self.exec_block(&i.else_branch)
                }
            }
        }
    }

    /// Computes the flat element offset of a (possibly multi-dimensional)
    /// array reference.  Multi-dimensional local arrays are stored row-major;
    /// parameter arrays are always flat (the class uses explicit flattening).
    ///
    /// Index arithmetic is *not* counted in [`ExecStats::operations`]; the
    /// statistic tracks value-level operations only, matching the paper's
    /// "3N additions" style of operation counting.
    fn flat_index(&mut self, r: &ArrayRef) -> Result<usize> {
        let saved_ops = self.stats.operations;
        let result = self.flat_index_inner(r);
        self.stats.operations = saved_ops;
        result
    }

    fn flat_index_inner(&mut self, r: &ArrayRef) -> Result<usize> {
        if let [idx] = r.indices.as_slice() {
            let v = self.eval(idx)?;
            return usize::try_from(v).map_err(|_| LangError::Runtime {
                message: format!("negative index {v} into `{}`", r.array),
            });
        }
        // Row-major for declared multi-dimensional locals.
        let point = r
            .indices
            .iter()
            .map(|idx| self.eval(idx))
            .collect::<Result<Vec<_>>>()?;
        flat_offset(&point).ok_or_else(|| LangError::Runtime {
            message: format!(
                "flattened index into `{}` is negative or overflows",
                r.array
            ),
        })
    }

    fn eval(&mut self, e: &Expr) -> Result<i64> {
        match e {
            Expr::Const(v) => Ok(*v),
            Expr::Var(n) => {
                if let Some(v) = self.scalars.get(n) {
                    Ok(*v)
                } else if let Some(v) = self.defines.get(n) {
                    Ok(*v)
                } else {
                    Err(LangError::Runtime {
                        message: format!("unknown scalar `{n}`"),
                    })
                }
            }
            Expr::Neg(inner) => Ok(self.eval(inner)?.wrapping_neg()),
            Expr::Access(r) => {
                let offset = self.flat_index(r)?;
                let arr = self
                    .arrays
                    .get(&r.array)
                    .ok_or_else(|| LangError::Runtime {
                        message: format!("unknown array `{}`", r.array),
                    })?;
                let v = arr.get(offset).copied().ok_or_else(|| LangError::Runtime {
                    message: format!(
                        "read out of bounds: {}[{offset}] (size {})",
                        r.array,
                        arr.len()
                    ),
                })?;
                Ok(v)
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval(l)?;
                let rv = self.eval(r)?;
                self.stats.operations += 1;
                match op {
                    BinOp::Add => Ok(lv.wrapping_add(rv)),
                    BinOp::Sub => Ok(lv.wrapping_sub(rv)),
                    BinOp::Mul => Ok(lv.wrapping_mul(rv)),
                    BinOp::Div => {
                        if rv == 0 {
                            Err(LangError::Runtime {
                                message: "division by zero".into(),
                            })
                        } else {
                            Ok(lv.wrapping_div(rv))
                        }
                    }
                }
            }
            Expr::Call(name, args) => {
                let values = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.stats.operations += 1;
                Ok(uninterpreted(name, &values))
            }
        }
    }
}

/// Deterministic semantics for uninterpreted functions: a hash-mix of the
/// function name and argument values.  Two calls agree iff name and argument
/// values agree, which is the congruence assumption the checker relies on.
fn uninterpreted(name: &str, args: &[i64]) -> i64 {
    let mut h: i64 = 0x9e37_79b9;
    for b in name.bytes() {
        h = h.wrapping_mul(31).wrapping_add(b as i64);
    }
    for &a in args {
        h = h.wrapping_mul(0x0100_0000_01b3).wrapping_add(a ^ (a >> 7));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{with_size, FIG1_A, FIG1_B, FIG1_C, FIG1_D};
    use crate::parser::parse_program;

    fn run_fig1(src: &str, n: usize) -> Vec<i64> {
        let p = parse_program(&with_size(src, n as i64)).unwrap();
        let a: Vec<i64> = (0..2 * n as i64).map(|i| 3 * i + 1).collect();
        let b: Vec<i64> = (0..2 * n as i64).map(|i| 7 * i - 5).collect();
        let inputs = Inputs::new().array("A", a).array("B", b).output("C", n);
        Interpreter::new(&p).run_for_output(&inputs, "C").unwrap()
    }

    #[test]
    fn fig1_a_computes_the_documented_expression() {
        // C[k] = B[2k] + B[k] + A[2k] + A[k]
        let n = 16;
        let c = run_fig1(FIG1_A, n);
        for k in 0..n as i64 {
            let a = |i: i64| 3 * i + 1;
            let b = |i: i64| 7 * i - 5;
            assert_eq!(c[k as usize], b(2 * k) + b(k) + a(2 * k) + a(k), "k = {k}");
        }
    }

    #[test]
    fn equivalent_versions_agree_and_the_erroneous_one_differs() {
        // Fig. 1(b) hard-codes the 512 split point, so the comparison must run
        // at the paper's native size N = 1024.
        let n = 1024;
        let ca = run_fig1(FIG1_A, n);
        let cb = run_fig1(FIG1_B, n);
        let cc = run_fig1(FIG1_C, n);
        let cd = run_fig1(FIG1_D, n);
        assert_eq!(ca, cb);
        assert_eq!(ca, cc);
        assert_ne!(ca, cd);
        // The paper: (d) computes the wrong expression on even k and the right
        // one on odd k.  At k = 0 the wrong expression happens to evaluate to
        // the same value (both read element 0 of A and B twice), so the
        // value-level difference shows up for even k >= 2.
        for k in 0..n {
            if k % 2 == 0 && k >= 2 {
                assert_ne!(ca[k], cd[k], "even k = {k} must differ");
            } else if k % 2 == 1 {
                assert_eq!(ca[k], cd[k], "odd k = {k} must agree");
            }
        }
    }

    #[test]
    fn stats_count_operations() {
        let n = 8;
        let p = parse_program(&with_size(FIG1_A, n)).unwrap();
        let inputs = Inputs::new()
            .array("A", vec![1; 2 * n as usize])
            .array("B", vec![2; 2 * n as usize])
            .output("C", n as usize);
        let (_, stats) = Interpreter::new(&p).run(&inputs).unwrap();
        // 3 loops of N iterations, one assignment each, one addition each.
        assert_eq!(stats.assignments, 3 * n as u64);
        assert_eq!(stats.operations, 3 * n as u64);
    }

    #[test]
    fn missing_input_and_out_of_bounds_are_reported() {
        let p = parse_program(&with_size(FIG1_A, 8)).unwrap();
        let err = Interpreter::new(&p).run(&Inputs::new()).unwrap_err();
        assert!(matches!(err, LangError::Runtime { .. }));
        // B too small: reading B[2k] for k = 7 needs 15 elements.
        let inputs = Inputs::new()
            .array("A", vec![0; 16])
            .array("B", vec![0; 4])
            .output("C", 8);
        let err = Interpreter::new(&p).run(&inputs).unwrap_err();
        match err {
            LangError::Runtime { message } => assert!(message.contains("out of bounds")),
            other => panic!("expected runtime error, got {other}"),
        }
    }

    #[test]
    fn uninterpreted_functions_are_deterministic_and_congruent() {
        assert_eq!(
            uninterpreted("absd", &[3, 5]),
            uninterpreted("absd", &[3, 5])
        );
        assert_ne!(
            uninterpreted("absd", &[3, 5]),
            uninterpreted("absd", &[5, 3])
        );
        assert_ne!(
            uninterpreted("absd", &[3, 5]),
            uninterpreted("clip", &[3, 5])
        );
        let src = r#"
void f(int A[], int C[]) {
    int k;
    for (k = 0; k < 4; k++)
s1:     C[k] = absd(A[k], A[k + 1]) + 1;
}
"#;
        let p = parse_program(src).unwrap();
        let inputs = Inputs::new().array("A", vec![5, 1, 9, 2, 7]).output("C", 4);
        let out = Interpreter::new(&p).run_for_output(&inputs, "C").unwrap();
        assert_eq!(out[0], uninterpreted("absd", &[5, 1]) + 1);
    }

    #[test]
    fn standard_inputs_run_every_corpus_program() {
        for (name, src) in crate::corpus::FIG1_ALL
            .iter()
            .chain(crate::corpus::KERNELS.iter())
        {
            let p = parse_program(src).unwrap();
            for seed in [0u64, 1, 2] {
                let inputs = standard_inputs(&p, seed);
                let (mem, _) = Interpreter::new(&p)
                    .run(&inputs)
                    .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
                for out in p.output_arrays() {
                    assert!(mem.array(&out).is_some(), "{name}: missing output {out}");
                }
            }
            // Different seeds produce different input data.
            let a = standard_inputs(&p, 0);
            let b = standard_inputs(&p, 1);
            if let Some(name) = p.input_arrays().first() {
                assert_ne!(a.arrays[name], b.arrays[name]);
            }
        }
    }

    #[test]
    fn overflowing_indices_and_sizes_are_runtime_errors() {
        let run = |decl: &str, index: &str| {
            let src = format!(
                "void f(int A[], int C[]) {{ int k, {decl}; for (k = 0; k < 4; k++) \
                 s1: t[{index}][k] = A[k]; for (k = 0; k < 4; k++) s2: C[k] = t[0][k]; }}"
            );
            let p = parse_program(&src).unwrap();
            match Interpreter::new(&p).run(&standard_inputs(&p, 1)) {
                Err(LangError::Runtime { message }) => message,
                other => panic!("{decl}, t[{index}]: {other:?}"),
            }
        };
        // 2^53 rows of 1024 elements: the flattened index passes i64::MAX.
        assert!(run("t[4][4]", "9007199254740992").contains("overflows"));
        assert!(run("t[4294967296][4294967296]", "0").contains("overflows"));
    }

    #[test]
    fn flat_offset_matches_interpreter_addressing() {
        assert_eq!(flat_offset(&[7]), Some(7));
        assert_eq!(flat_offset(&[2, 3]), Some(2 * 1024 + 3));
        assert_eq!(flat_offset(&[-1]), None);
        assert_eq!(flat_offset(&[]), Some(0));
    }

    #[test]
    fn recurrence_kernel_runs() {
        let p = parse_program(crate::corpus::KERNEL_RECURRENCE).unwrap();
        let n = 128usize;
        let x: Vec<i64> = (0..n as i64).collect();
        let inputs = Inputs::new().array("X", x.clone()).output("Y", n);
        let y = Interpreter::new(&p).run_for_output(&inputs, "Y").unwrap();
        let mut acc = 0;
        for k in 0..n {
            acc += x[k];
            assert_eq!(y[k], acc);
        }
    }
}
