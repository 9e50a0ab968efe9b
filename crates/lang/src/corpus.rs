//! Source-text corpus: the four program versions of Fig. 1 of the paper and
//! a small library of signal-processing-style kernels used as the "realistic
//! examples" of Section 6.2.
//!
//! All programs are in the restricted class of Section 3.1 (dynamic single
//! assignment, static affine control, affine indices, no pointers).  The
//! `fig1_*` constants are verbatim transcriptions of the paper's figure,
//! including the erroneous version (d); the kernels are parameterised by
//! `N` through their `#define` so the benchmark harness can rewrite the size.

/// Fig. 1(a): the original function.
///
/// Computes `C[k] = B[2k] + B[k] + A[2k] + A[k]` for `k ∈ [0, N)` through two
/// intermediate arrays `tmp` and `buf`.
pub const FIG1_A: &str = r#"
/* Original function */
#define N 1024
foo(int A[], int B[], int C[])
{
    int k, tmp[N], buf[2*N];
    for(k=0; k<N; k++)
s1:  tmp[k] = B[2*k] + B[k];
    for(k=N; k>=1; k--)
s2:  buf[2*k-2] = A[2*k-2]
                       + A[k-1];
    for(k=0; k<N; k++)
s3:  C[k] = tmp[k] + buf[2*k];
}
"#;

/// Fig. 1(b): transformed version 1 — expression propagation (the `t4`
/// branch recomputes `tmp`'s value inline) plus loop transformations (bound
/// split at 512, loop fusion, reversal undone).
pub const FIG1_B: &str = r#"
/* Transformed function ver 1 */
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

/// Fig. 1(c): transformed version 2 — additionally applies *algebraic*
/// transformations (re-association/commutation of the additions), saving
/// N/2 additions with respect to (a) and (b).
pub const FIG1_C: &str = r#"
/* Transformed function ver 2 */
#define N 1024
foo(int A[], int B[], int C[])
{
    int k, buf[2*N];
    for(k=0; k<N; k++)
u1:  buf[k] = A[k] + B[k];
    for(k=N; k<=2*N-2; k+=2)
u2:  buf[k] = A[k] + B[k];
    for(k=0; k<N; k++)
u3:  C[k] = buf[k] + buf[2*k];
}
"#;

/// Fig. 1(d): transformed version 3 — an *erroneous* transformation.  For
/// even `k` it computes `A[k] + B[k] + A[k] + B[k]` instead of the intended
/// value (statement `v3` should read `buf[2*k]`), while for odd `k` it is
/// still correct.  The checker must report inequivalence and point at
/// statements `v3`/`v1` and the index expression of `buf`.
pub const FIG1_D: &str = r#"
/* Transformed function ver 3 */
#define N 1024
foo(int A[], int B[], int C[])
{
    int k, tmp[N], buf[2*N];
    for(k=0; k<=2*N-2; k+=2)
v1:  buf[k] = A[k] + B[k];
    for(k=1; k<N; k+=2)
v2:  tmp[k] = A[k] + B[k];
    for(k=0; k<N-1; k+=2){
v3:  C[k] = buf[k] + buf[k];
v4:  C[k+1] = tmp[k+1]
                 + buf[2*k+2];
    }
}
"#;

/// The four Fig. 1 versions in order (a), (b), (c), (d) with their names.
pub const FIG1_ALL: [(&str, &str); 4] =
    [("a", FIG1_A), ("b", FIG1_B), ("c", FIG1_C), ("d", FIG1_D)];

/// A 5-tap FIR filter in single-assignment form (fully unrolled taps).
pub const KERNEL_FIR5: &str = r#"
/* 5-tap FIR filter, expanded accumulator (single assignment) */
#define N 256
fir(int X[], int H[], int Y[])
{
    int k;
    for (k = 0; k < N; k++)
f1:     Y[k] = ((((X[k] * H[0]) + (X[k+1] * H[1])) + (X[k+2] * H[2]))
                + (X[k+3] * H[3])) + (X[k+4] * H[4]);
}
"#;

/// A 3x3 2-D convolution over an image with explicit 2-D indexing, expanded
/// accumulator (the kernel-coefficient array `K` stays 1-D).
pub const KERNEL_CONV2D: &str = r#"
/* 3x3 convolution over a 2-D image */
#define N 64
conv2d(int IMG[][], int K[], int OUT[][])
{
    int i, j;
    for (i = 0; i < N; i++)
        for (j = 0; j < N; j++)
c1:         OUT[i][j] =
                ((((((((IMG[i][j] * K[0]) + (IMG[i][j + 1] * K[1]))
                + (IMG[i][j + 2] * K[2])) + (IMG[i + 1][j] * K[3]))
                + (IMG[i + 1][j + 1] * K[4])) + (IMG[i + 1][j + 2] * K[5]))
                + (IMG[i + 2][j] * K[6])) + (IMG[i + 2][j + 1] * K[7]))
                + (IMG[i + 2][j + 2] * K[8]);
}
"#;

/// A factor-2 downsampler followed by a smoothing pass, using an intermediate
/// buffer (two statements, strided access).
pub const KERNEL_DOWNSAMPLE: &str = r#"
/* downsample by 2 then smooth */
#define N 128
down(int X[], int Y[])
{
    int k, mid[N];
    for (k = 0; k < N; k++)
d1:     mid[k] = X[2*k] + X[2*k + 1];
    for (k = 0; k < N - 1; k++)
d2:     Y[k] = mid[k] + mid[k + 1];
}
"#;

/// One lifting step of an integer wavelet transform (predict + update),
/// operating on even/odd subsequences.
pub const KERNEL_LIFTING: &str = r#"
/* wavelet lifting step: predict (detail) and update (approximation) */
#define N 128
lift(int X[], int D[], int S[])
{
    int k;
    for (k = 0; k < N; k++)
l1:     D[k] = X[2*k + 1] - X[2*k];
    for (k = 0; k < N; k++)
l2:     S[k] = X[2*k] + D[k];
}
"#;

/// A sum-of-absolute-differences style tree for motion estimation, with the
/// absolute value replaced by an uninterpreted function `absd` (kept
/// uninterpreted by the checker, exactly like a designer-declared operator).
pub const KERNEL_SAD_TREE: &str = r#"
/* block matching metric tree over 4-pixel groups */
#define N 64
sad(int CUR[], int REF[], int M[])
{
    int k, p[N];
    for (k = 0; k < N; k++)
m1:     p[k] = absd(CUR[4*k], REF[4*k]) + absd(CUR[4*k+1], REF[4*k+1]);
    for (k = 0; k < N; k++)
m2:     M[k] = p[k] + (absd(CUR[4*k+2], REF[4*k+2]) + absd(CUR[4*k+3], REF[4*k+3]));
}
"#;

/// A 4x4 matrix-vector product with the accumulation expanded so the program
/// stays in single-assignment form.
pub const KERNEL_MATVEC: &str = r#"
/* 4-wide matrix-vector product, expanded accumulation */
#define N 64
matvec(int A[], int X[], int Y[])
{
    int i;
    for (i = 0; i < N; i++)
v1:     Y[i] = ((A[4*i] * X[0] + A[4*i+1] * X[1]) + A[4*i+2] * X[2])
               + A[4*i+3] * X[3];
}
"#;

/// A first-order recurrence (prefix-style IIR filter) — exercises the cyclic
/// ADDG, which the checker discharges coinductively.
pub const KERNEL_RECURRENCE: &str = r#"
/* first-order recurrence: running sum */
#define N 128
scan(int X[], int Y[])
{
    int k;
r0: Y[0] = X[0] + 0;
    for (k = 1; k < N; k++)
r1:     Y[k] = Y[k-1] + X[k];
}
"#;

/// A *factored* weighted blend: a gain multiplies a piecewise sum held in
/// an intermediate buffer.  Equivalent to [`KERNEL_EXPANDED`] only through
/// one-level distribution of `*` over `+`/`-` (plus inverse folding on the
/// upper half) — the extended method with the full operator algebra proves
/// the pair; the basic method and plain AC matching cannot.
pub const KERNEL_FACTORED: &str = r#"
/* factored weighted blend: gain times a piecewise sum */
#define N 64
#define H 32
blend(int A[], int B[], int G[], int C[])
{
    int k, s[N];
    for (k = 0; k < H; k++)
b1:     s[k] = A[k] + B[2*k];
    for (k = H; k < N; k++)
b2:     s[k] = A[k] - B[2*k];
    for (k = 0; k < N; k++)
b3:     C[k] = G[k] * s[k];
}
"#;

/// The distributed/expanded form of [`KERNEL_FACTORED`]: the gain is
/// multiplied through each summand, per half of the output domain.
pub const KERNEL_EXPANDED: &str = r#"
/* expanded weighted blend: gain distributed over each summand */
#define N 64
#define H 32
blend(int A[], int B[], int G[], int C[])
{
    int k;
    for (k = 0; k < H; k++)
e1:     C[k] = G[k] * A[k] + G[k] * B[2*k];
    for (k = H; k < N; k++)
e2:     C[k] = G[k] * A[k] - G[k] * B[2*k];
}
"#;

/// A difference-and-sum chain computed through an intermediate: the `-`
/// rides inside the first statement.  Equivalent to
/// [`KERNEL_SUB_SHUFFLE_B`] only when subtraction folds into the `+` chain
/// with a negated coefficient (inverse folding).
pub const KERNEL_SUB_SHUFFLE_A: &str = r#"
/* difference plus correction, staged through a temporary */
#define N 64
diffsum(int X[], int Y[], int Z[], int C[])
{
    int k, t[N];
    for (k = 0; k < N; k++)
q1:     t[k] = X[k] - Y[2*k];
    for (k = 0; k < N; k++)
q2:     C[k] = t[k] + Z[k];
}
"#;

/// The shuffled single-statement form of [`KERNEL_SUB_SHUFFLE_A`]: the
/// subtraction moved to the end of the chain.
pub const KERNEL_SUB_SHUFFLE_B: &str = r#"
/* same chain, subtraction last */
#define N 64
diffsum(int X[], int Y[], int Z[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
p1:     C[k] = X[k] + Z[k] - Y[2*k];
}
"#;

/// A chain littered with identity operands and split constants.  Equivalent
/// to [`KERNEL_IDENT_B`] only through identity elimination (`+ 0`, `* 1`)
/// and constant folding (`2 + 3` = `5`).
pub const KERNEL_IDENT_A: &str = r#"
/* identity noise and split constants */
#define N 64
bias(int X[], int Y[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
i1:     C[k] = X[k] + 0 + Y[2*k] * 1 + 2 + 3;
}
"#;

/// The folded form of [`KERNEL_IDENT_A`].
pub const KERNEL_IDENT_B: &str = r#"
/* folded constants, no identities */
#define N 64
bias(int X[], int Y[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
j1:     C[k] = 5 + Y[2*k] + X[k];
}
"#;

/// A piecewise-assembled sum: the intermediate is written in two halves
/// split at `H`, the upper half with shuffled operands.  Equivalent to
/// [`KERNEL_PIECEWISE_B`], which assembles the *same* values split at a
/// different point `Q` — so one flatten/match obligation spans three
/// regions (`0..Q`, `Q..H`, `H..N`) with different term structures, the
/// workload that exercises region splitting inside a single chain.
pub const KERNEL_PIECEWISE_A: &str = r#"
/* piecewise-assembled sum, split at H, upper half shuffled */
#define N 64
#define H 32
pieces(int A[], int B[], int D[], int C[])
{
    int k, w[N];
    for (k = 0; k < H; k++)
w1:     w[k] = B[k] + D[2*k];
    for (k = H; k < N; k++)
w2:     w[k] = D[2*k] + B[k];
    for (k = 0; k < N; k++)
c1:     C[k] = A[k] + w[k];
}
"#;

/// The same values as [`KERNEL_PIECEWISE_A`], assembled with a different
/// split point and operand orders.
pub const KERNEL_PIECEWISE_B: &str = r#"
/* same sum, split at Q instead */
#define N 64
#define Q 16
pieces(int A[], int B[], int D[], int C[])
{
    int k, v[N];
    for (k = 0; k < Q; k++)
x1:     v[k] = D[2*k] + B[k];
    for (k = Q; k < N; k++)
x2:     v[k] = B[k] + D[2*k];
    for (k = 0; k < N; k++)
y1:     C[k] = v[k] + A[k];
}
"#;

/// A factored chain with an identity operand in one statement — the
/// fault-injection harness's host for distribution- and identity-breaking
/// mutations (`transform::mutate`).
pub const KERNEL_FACTORED_IDENT: &str = r#"
/* factored gain with an identity tail */
#define N 64
fblend(int A[], int B[], int G[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
f1:     C[k] = G[k] * (A[k] + B[2*k]) + 0;
}
"#;

/// A staged sum with the problem size left *symbolic* (`#param N >= 1`):
/// no concrete value of `N` appears anywhere, so every space built from the
/// program carries an `N` parameter column and one verification covers all
/// admissible sizes.  Equivalent to [`PARAM_SUM_B`] under copy propagation
/// and re-association.
pub const PARAM_SUM_A: &str = r#"
/* parametric staged sum */
#param N >= 1
psum(int A[], int B[], int C[])
{
    int k, t[N];
    for (k = 0; k < N; k++)
a1:     t[k] = A[k] + B[2*k];
    for (k = 0; k < N; k++)
a2:     C[k] = t[k] + A[2*k];
}
"#;

/// The fused, re-associated form of [`PARAM_SUM_A`], over the same symbolic
/// size.
pub const PARAM_SUM_B: &str = r#"
/* same parametric sum, fused and shuffled */
#param N >= 1
psum(int A[], int B[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
b1:     C[k] = A[2*k] + (A[k] + B[2*k]);
}
"#;

/// A parametric pair with a *split* intermediate: the lower half up to a
/// fixed pivot, the rest up to the symbolic bound.  Exercises parameter
/// columns inside piecewise domains (`0 <= k < 8` vs `8 <= k < N`).
pub const PARAM_SPLIT_A: &str = r#"
/* parametric piecewise sum, split at 8 */
#param N >= 16
pieces(int A[], int B[], int C[])
{
    int k, w[N];
    for (k = 0; k < 8; k++)
w1:     w[k] = A[k] + B[2*k];
    for (k = 8; k < N; k++)
w2:     w[k] = B[2*k] + A[k];
    for (k = 0; k < N; k++)
c1:     C[k] = w[k];
}
"#;

/// The single-loop form of [`PARAM_SPLIT_A`].
pub const PARAM_SPLIT_B: &str = r#"
/* same parametric sum, no split */
#param N >= 16
pieces(int A[], int B[], int C[])
{
    int k;
    for (k = 0; k < N; k++)
d1:     C[k] = A[k] + B[2*k];
}
"#;

/// The parametric scenario pairs: `(name, original, transformed)`, each
/// equivalent for *every* admissible value of its `#param` size.  Concrete
/// sweeps instantiate them via [`crate::ast::Program::with_param_values`].
pub const PARAMETRIC_PAIRS: [(&str, &str, &str); 2] = [
    ("param-sum", PARAM_SUM_A, PARAM_SUM_B),
    ("param-split", PARAM_SPLIT_A, PARAM_SPLIT_B),
];

/// The algebraic-normalization scenario pairs: `(name, original,
/// transformed)`, equivalent exactly under the extended method's widened
/// operator algebra (distribution, inverse folding, identity/constant
/// folding).  Kept separate from [`KERNELS`] (whose members pair with
/// random transformation pipelines); these pairs *are* the transformation.
pub const ALGEBRAIC_PAIRS: [(&str, &str, &str); 4] = [
    ("factored-expanded", KERNEL_FACTORED, KERNEL_EXPANDED),
    ("sub-shuffle", KERNEL_SUB_SHUFFLE_A, KERNEL_SUB_SHUFFLE_B),
    ("ident-fold", KERNEL_IDENT_A, KERNEL_IDENT_B),
    ("piecewise", KERNEL_PIECEWISE_A, KERNEL_PIECEWISE_B),
];

/// Names and sources of the realistic-kernel suite (Section 6.2 workload).
pub const KERNELS: [(&str, &str); 7] = [
    ("fir5", KERNEL_FIR5),
    ("conv2d", KERNEL_CONV2D),
    ("downsample", KERNEL_DOWNSAMPLE),
    ("lifting", KERNEL_LIFTING),
    ("sad_tree", KERNEL_SAD_TREE),
    ("matvec", KERNEL_MATVEC),
    ("recurrence", KERNEL_RECURRENCE),
];

/// Rewrites the `#define N <value>` line of a corpus program, so benchmarks
/// can sweep the problem size without string surgery at every call site.
pub fn with_size(src: &str, n: i64) -> String {
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        if line.trim_start().starts_with("#define N ") {
            out.push_str(&format!("#define N {n}\n"));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn all_fig1_versions_parse() {
        for (name, src) in FIG1_ALL {
            let p = parse_program(src).unwrap_or_else(|e| panic!("fig1({name}) parse: {e}"));
            assert_eq!(p.name, "foo");
            assert_eq!(p.params, vec!["A", "B", "C"]);
        }
    }

    #[test]
    fn all_kernels_parse() {
        for (name, src) in KERNELS {
            let p = parse_program(src).unwrap_or_else(|e| panic!("kernel {name} parse: {e}"));
            assert!(p.statement_count() >= 1, "kernel {name} has statements");
        }
    }

    #[test]
    fn algebraic_pairs_parse_with_matching_interfaces() {
        for (name, a, b) in ALGEBRAIC_PAIRS {
            let pa = parse_program(a).unwrap_or_else(|e| panic!("{name} original: {e}"));
            let pb = parse_program(b).unwrap_or_else(|e| panic!("{name} transformed: {e}"));
            assert_eq!(pa.output_arrays(), pb.output_arrays(), "{name}");
            assert_eq!(pa.input_arrays(), pb.input_arrays(), "{name}");
        }
        parse_program(KERNEL_FACTORED_IDENT).expect("mutation host parses");
    }

    #[test]
    fn parametric_pairs_parse_with_symbolic_sizes() {
        for (name, a, b) in PARAMETRIC_PAIRS {
            let pa = parse_program(a).unwrap_or_else(|e| panic!("{name} original: {e}"));
            let pb = parse_program(b).unwrap_or_else(|e| panic!("{name} transformed: {e}"));
            assert_eq!(pa.symbolic_params, pb.symbolic_params, "{name}");
            assert_eq!(pa.symbolic_params.len(), 1, "{name}");
            assert_eq!(pa.symbolic_params[0].0, "N", "{name}");
            assert_eq!(pa.output_arrays(), pb.output_arrays(), "{name}");
            // Instantiation turns the param into an ordinary define.
            let inst = pa.with_param_values(&[("N".into(), 32)]);
            assert!(inst.symbolic_params.is_empty());
            assert_eq!(inst.define("N"), Some(32));
        }
    }

    #[test]
    fn param_directive_grammar() {
        let p = parse_program("#param N >= 4\nf(int A[], int C[]) { int k; for (k = 0; k < N; k++) s1: C[k] = A[k]; }").unwrap();
        assert_eq!(p.symbolic_param("N"), Some(4));
        // The bound defaults to 1 when omitted.
        let q = parse_program(
            "#param M\nf(int A[], int C[]) { int k; for (k = 0; k < M; k++) s1: C[k] = A[k]; }",
        )
        .unwrap();
        assert_eq!(q.symbolic_param("M"), Some(1));
        // Round-trips through the pretty-printer.
        let text = crate::pretty::program_to_string(&p);
        assert!(text.contains("#param N >= 4"));
        assert_eq!(parse_program(&text).unwrap(), p);
    }

    #[test]
    fn with_size_rewrites_the_define() {
        let resized = with_size(FIG1_A, 16);
        let p = parse_program(&resized).unwrap();
        assert_eq!(p.define("N"), Some(16));
        // Other lines are untouched.
        assert!(resized.contains("s3:  C[k] = tmp[k] + buf[2*k];"));
    }
}
