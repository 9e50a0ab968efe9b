//! Affine linear expressions with integer coefficients.

use crate::arith::{narrow, ArithOverflow};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Number of coefficients stored inline before spilling to the heap.
///
/// The checker's relations are small: input dims + output dims + parameters +
/// a couple of existentials rarely exceeds six columns, so almost every
/// expression the hot paths (Fourier–Motzkin, equality elimination,
/// composition) clone and mutate fits inline and costs no allocation.
const INLINE: usize = 6;

/// Coefficient storage: inline array for up to [`INLINE`] columns, spilling
/// to a heap vector beyond that.  Comparisons, hashing and iteration always
/// go through the logical slice, so the two representations are
/// indistinguishable to callers.
#[derive(Clone)]
enum Coeffs {
    Inline { len: u8, buf: [i64; INLINE] },
    Heap(Vec<i64>),
}

impl Coeffs {
    #[inline]
    fn zeros(n: usize) -> Coeffs {
        if n <= INLINE {
            Coeffs::Inline {
                len: n as u8,
                buf: [0; INLINE],
            }
        } else {
            Coeffs::Heap(vec![0; n])
        }
    }

    #[inline]
    fn from_vec(v: Vec<i64>) -> Coeffs {
        if v.len() <= INLINE {
            let mut buf = [0; INLINE];
            buf[..v.len()].copy_from_slice(&v);
            Coeffs::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            Coeffs::Heap(v)
        }
    }

    #[inline]
    fn as_slice(&self) -> &[i64] {
        match self {
            Coeffs::Inline { len, buf } => &buf[..*len as usize],
            Coeffs::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [i64] {
        match self {
            Coeffs::Inline { len, buf } => &mut buf[..*len as usize],
            Coeffs::Heap(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Coeffs::Inline { len, .. } => *len as usize,
            Coeffs::Heap(v) => v.len(),
        }
    }

    /// Appends `extra` zero columns in place.
    fn grow(&mut self, extra: usize) {
        let new_len = self.len() + extra;
        match self {
            Coeffs::Inline { len, .. } if new_len <= INLINE => *len = new_len as u8,
            Coeffs::Inline { len, buf } => {
                let mut v = Vec::with_capacity(new_len);
                v.extend_from_slice(&buf[..*len as usize]);
                v.resize(new_len, 0);
                *self = Coeffs::Heap(v);
            }
            Coeffs::Heap(v) => v.resize(new_len, 0),
        }
    }

    /// Removes the column at `idx` in place.
    fn remove(&mut self, idx: usize) {
        match self {
            Coeffs::Inline { len, buf } => {
                let n = *len as usize;
                assert!(idx < n);
                buf.copy_within(idx + 1..n, idx);
                buf[n - 1] = 0;
                *len = (n - 1) as u8;
            }
            Coeffs::Heap(v) => {
                v.remove(idx);
            }
        }
    }
}

/// An affine expression `a₀·x₀ + a₁·x₁ + … + c` over the columns of a
/// [`Conjunct`](crate::Conjunct).
///
/// The expression stores one `i64` coefficient per variable column plus a
/// trailing constant term.  The meaning of each column (input dim, output
/// dim, parameter or existential) is determined by the conjunct that owns the
/// expression; `LinExpr` itself is just the coefficient vector.
///
/// Up to six coefficients are stored inline (no heap allocation); the
/// in-place operations ([`try_add_scaled_assign`](LinExpr::try_add_scaled_assign),
/// [`try_scale_assign`](LinExpr::try_scale_assign),
/// [`try_substitute_assign`](LinExpr::try_substitute_assign), …) let the
/// elimination loops of the Omega test mutate expressions without the
/// clone-then-rebuild pattern.
///
/// Every public operation is checked or cannot overflow: the `try_`
/// family computes in `i128` and returns [`ArithOverflow`] instead of a
/// result that does not fit `i64`, leaving the expression unmodified, and
/// every other operation only moves, drops or divides coefficients.  So
/// solver arithmetic gives one answer in debug and release builds.
///
/// ```
/// use arrayeq_omega::LinExpr;
///
/// // 2*x0 - x1 + 3   over two variables
/// let e = LinExpr::from_coeffs(vec![2, -1], 3);
/// assert_eq!(e.coeff(0), 2);
/// assert_eq!(e.constant(), 3);
/// assert_eq!(e.try_eval(&[5, 7]), Ok(2 * 5 - 7 + 3));
/// assert!(e.try_scale(i64::MAX).is_err());
/// ```
#[derive(Clone)]
pub struct LinExpr {
    /// Coefficients, one per variable column.
    coeffs: Coeffs,
    /// The constant term.
    constant: i64,
}

impl PartialEq for LinExpr {
    fn eq(&self, other: &Self) -> bool {
        self.constant == other.constant && self.coeffs.as_slice() == other.coeffs.as_slice()
    }
}

impl Eq for LinExpr {}

impl Hash for LinExpr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.coeffs.as_slice().hash(state);
        self.constant.hash(state);
    }
}

impl PartialOrd for LinExpr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LinExpr {
    fn cmp(&self, other: &Self) -> Ordering {
        self.coeffs
            .as_slice()
            .cmp(other.coeffs.as_slice())
            .then(self.constant.cmp(&other.constant))
    }
}

impl std::fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinExpr")
            .field("coeffs", &self.coeffs.as_slice())
            .field("constant", &self.constant)
            .finish()
    }
}

impl LinExpr {
    /// The zero expression over `n_vars` variables.
    pub fn zero(n_vars: usize) -> Self {
        LinExpr {
            coeffs: Coeffs::zeros(n_vars),
            constant: 0,
        }
    }

    /// A constant expression over `n_vars` variables.
    pub fn constant_expr(n_vars: usize, c: i64) -> Self {
        LinExpr {
            coeffs: Coeffs::zeros(n_vars),
            constant: c,
        }
    }

    /// The expression `1·x_col` over `n_vars` variables.
    pub fn var(n_vars: usize, col: usize) -> Self {
        let mut e = LinExpr::zero(n_vars);
        e.coeffs.as_mut_slice()[col] = 1;
        e
    }

    /// Builds an expression from an explicit coefficient vector and constant.
    pub fn from_coeffs(coeffs: Vec<i64>, constant: i64) -> Self {
        LinExpr {
            coeffs: Coeffs::from_vec(coeffs),
            constant,
        }
    }

    /// Number of variable columns this expression ranges over.
    pub fn n_vars(&self) -> usize {
        self.coeffs.len()
    }

    /// Coefficient of variable column `col`.
    pub fn coeff(&self, col: usize) -> i64 {
        self.coeffs.as_slice()[col]
    }

    /// Mutable access to the coefficient of column `col`.
    pub fn set_coeff(&mut self, col: usize, value: i64) {
        self.coeffs.as_mut_slice()[col] = value;
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// Sets the constant term.
    pub fn set_constant(&mut self, value: i64) {
        self.constant = value;
    }

    /// All coefficients as a slice (excluding the constant term).
    pub fn coeffs(&self) -> &[i64] {
        self.coeffs.as_slice()
    }

    /// Whether every coefficient is zero (the expression is a constant).
    pub fn is_constant(&self) -> bool {
        self.coeffs.as_slice().iter().all(|&c| c == 0)
    }

    /// Whether the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant == 0 && self.is_constant()
    }

    /// Greatest common divisor of the variable coefficients (0 if all zero).
    pub fn coeff_gcd(&self) -> i64 {
        self.coeffs.as_slice().iter().fold(0i64, |g, &c| gcd(g, c))
    }

    /// Divides every coefficient and the constant by `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d <= 0` or any coefficient or the constant is not
    /// divisible by `d`.
    pub fn exact_div(&self, d: i64) -> LinExpr {
        let mut out = self.clone();
        out.exact_div_assign(d);
        out
    }

    /// In-place version of [`exact_div`](LinExpr::exact_div).  A positive
    /// divisor cannot overflow.
    ///
    /// # Panics
    ///
    /// Panics if `d <= 0` or any coefficient or the constant is not
    /// divisible by `d`.
    pub fn exact_div_assign(&mut self, d: i64) {
        assert!(d > 0);
        assert!(
            self.coeffs.as_slice().iter().all(|c| c % d == 0) && self.constant % d == 0,
            "exact_div: not divisible"
        );
        for c in self.coeffs.as_mut_slice() {
            *c /= d;
        }
        self.constant /= d;
    }

    /// Divides the coefficients by `d` exactly and the constant rounded
    /// towards −∞ — the integer tightening used when normalising `e ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if a coefficient is not divisible by `d` or `d <= 0`.
    pub fn tighten_div_assign(&mut self, d: i64) {
        assert!(d > 0);
        for c in self.coeffs.as_mut_slice() {
            assert!(*c % d == 0, "tighten_div: coefficient not divisible");
            *c /= d;
        }
        self.constant = floor_div(self.constant, d);
    }

    /// Reduces every coefficient and the constant into `[0, m)`, in place
    /// (the canonical form of a congruence `e ≡ 0 (mod m)`).
    ///
    /// # Panics
    ///
    /// Panics if `m <= 0`.
    pub fn rem_euclid_assign(&mut self, m: i64) {
        assert!(m > 0);
        for c in self.coeffs.as_mut_slice() {
            *c = c.rem_euclid(m);
        }
        self.constant = self.constant.rem_euclid(m);
    }

    /// The first non-zero coefficient, or the constant when all coefficients
    /// are zero.  The sign of this value is what sign-canonicalisation of
    /// equalities pivots on.
    pub(crate) fn leading_value(&self) -> i64 {
        self.coeffs
            .as_slice()
            .iter()
            .copied()
            .find(|&c| c != 0)
            .unwrap_or(self.constant)
    }

    /// Returns a copy with `extra` zero columns appended (new existentials).
    pub fn extended(&self, extra: usize) -> LinExpr {
        let mut out = self.clone();
        out.extend_assign(extra);
        out
    }

    /// Appends `extra` zero columns in place.
    pub fn extend_assign(&mut self, extra: usize) {
        self.coeffs.grow(extra);
    }

    /// Returns a copy whose columns are permuted/embedded according to `map`:
    /// new column `map[i]` receives old column `i`'s coefficient.  The new
    /// expression has `new_len` columns.  `map` is injective: coefficients
    /// move and are never summed.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != self.n_vars()` or any target is out of range.
    pub fn remapped(&self, map: &[usize], new_len: usize) -> LinExpr {
        assert_eq!(map.len(), self.n_vars());
        let mut out = LinExpr::zero(new_len);
        let coeffs = out.coeffs.as_mut_slice();
        for (i, &target) in map.iter().enumerate() {
            assert!(target < new_len, "remap target out of range");
            coeffs[target] = self.coeffs.as_slice()[i];
        }
        out.constant = self.constant;
        out
    }

    /// Returns a copy with column `col` removed (its coefficient must be 0).
    ///
    /// # Panics
    ///
    /// Panics if the coefficient of `col` is non-zero.
    pub fn without_col(&self, col: usize) -> LinExpr {
        let mut out = self.clone();
        out.remove_col_assign(col);
        out
    }

    /// Removes column `col` in place (its coefficient must be 0).
    ///
    /// # Panics
    ///
    /// Panics if the coefficient of `col` is non-zero.
    pub fn remove_col_assign(&mut self, col: usize) {
        assert_eq!(self.coeffs.as_slice()[col], 0, "cannot drop a used column");
        self.coeffs.remove(col);
    }

    /// Evaluates the expression for a concrete assignment of the variables,
    /// or [`ArithOverflow`] when the value does not fit `i64`: the products
    /// and the running sum are computed in `i128` and the result narrowed
    /// back to `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.n_vars()`.
    pub fn try_eval(&self, values: &[i64]) -> Result<i64, ArithOverflow> {
        narrow(self.try_eval_wide(values)?)
    }

    /// Overflow-checked evaluation keeping the `i128` widened result.
    ///
    /// Each `aᵢ·vᵢ` product of two `i64`s always fits `i128`; only the
    /// running sum is checked.  Callers that merely need the *sign* of the
    /// value (constraint satisfaction) use this to avoid the final
    /// narrowing.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.n_vars()`.
    pub fn try_eval_wide(&self, values: &[i64]) -> Result<i128, ArithOverflow> {
        assert_eq!(values.len(), self.n_vars(), "wrong number of values");
        let mut acc = self.constant as i128;
        for (a, v) in self.coeffs.as_slice().iter().zip(values) {
            acc = acc
                .checked_add(*a as i128 * *v as i128)
                .ok_or(ArithOverflow)?;
        }
        Ok(acc)
    }

    /// Evaluates the first `prefix.len()` columns only, returning the partial
    /// sum `Σ_{i < prefix.len()} aᵢ·prefixᵢ + c`, or [`ArithOverflow`] when
    /// it does not fit `i64`.  Used to residualise an expression onto its
    /// trailing (existential) columns without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `prefix.len() > self.n_vars()`.
    pub fn try_eval_prefix(&self, prefix: &[i64]) -> Result<i64, ArithOverflow> {
        assert!(prefix.len() <= self.n_vars(), "prefix too long");
        let mut acc = self.constant as i128;
        for (a, v) in self.coeffs.as_slice().iter().zip(prefix) {
            acc = acc
                .checked_add(*a as i128 * *v as i128)
                .ok_or(ArithOverflow)?;
        }
        narrow(acc)
    }

    /// The whole expression multiplied by `k`, or [`ArithOverflow`] when an
    /// entry does not fit `i64`.
    pub fn try_scale(&self, k: i64) -> Result<LinExpr, ArithOverflow> {
        let mut out = self.clone();
        out.try_scale_assign(k)?;
        Ok(out)
    }

    /// In-place version of [`try_scale`](LinExpr::try_scale): every product
    /// is computed in `i128` and narrowed.  On `Err` the expression is left
    /// **unmodified** (the checks run before any store), so a failed attempt
    /// never leaves a half-scaled expression behind.
    pub fn try_scale_assign(&mut self, k: i64) -> Result<(), ArithOverflow> {
        let kw = k as i128;
        for c in self.coeffs.as_slice() {
            narrow(*c as i128 * kw)?;
        }
        narrow(self.constant as i128 * kw)?;
        for c in self.coeffs.as_mut_slice() {
            *c *= k;
        }
        self.constant *= k;
        Ok(())
    }

    /// Adds `k * other` to this expression, in place: each `aᵢ + k·bᵢ` is
    /// computed in `i128` and narrowed.  On `Err` the expression is left
    /// **unmodified**.
    ///
    /// # Panics
    ///
    /// Panics if the two expressions have different numbers of variables.
    pub fn try_add_scaled_assign(&mut self, other: &LinExpr, k: i64) -> Result<(), ArithOverflow> {
        assert_eq!(self.n_vars(), other.n_vars());
        let kw = k as i128;
        for (a, b) in self.coeffs.as_slice().iter().zip(other.coeffs.as_slice()) {
            narrow(*a as i128 + kw * *b as i128)?;
        }
        narrow(self.constant as i128 + kw * other.constant as i128)?;
        for (a, b) in self
            .coeffs
            .as_mut_slice()
            .iter_mut()
            .zip(other.coeffs.as_slice())
        {
            *a = (*a as i128 + kw * *b as i128) as i64;
        }
        self.constant = (self.constant as i128 + kw * other.constant as i128) as i64;
        Ok(())
    }

    /// Substitutes variable `col` with the expression `value` (which must not
    /// itself use `col`), in place: rewrites `self` under `x_col := value`.
    /// On `Err` the expression is left **unmodified**.
    ///
    /// # Panics
    ///
    /// Panics if `value` uses column `col` or sizes differ.
    pub fn try_substitute_assign(
        &mut self,
        col: usize,
        value: &LinExpr,
    ) -> Result<(), ArithOverflow> {
        assert_eq!(self.n_vars(), value.n_vars());
        assert_eq!(value.coeff(col), 0, "substitution value uses the variable");
        let k = self.coeffs.as_slice()[col];
        if k == 0 {
            return Ok(());
        }
        // `value` does not use `col`, so the column ends at 0 + k·0.
        self.coeffs.as_mut_slice()[col] = 0;
        let added = self.try_add_scaled_assign(value, k);
        if added.is_err() {
            self.coeffs.as_mut_slice()[col] = k;
        }
        added
    }
}

/// Greatest common divisor of two non-negative integers (`gcd(0, x) = x`).
pub(crate) fn gcd(a: i64, b: i64) -> i64 {
    // Magnitudes are taken as u64 so `i64::MIN` inputs cannot overflow.  The
    // result only exceeds `i64` when every input is 0 or `i64::MIN`; that
    // 2^63 gcd is clamped to 1 ("no common factor usable for division"),
    // which merely skips a canonicalising division — never changes a verdict.
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    i64::try_from(a).unwrap_or(1)
}

/// Floor division (rounds towards negative infinity).
pub(crate) fn floor_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

/// `a mod̂ b`: the symmetric remainder in `(-b/2, b/2]` used by the Omega
/// test's equality elimination.
pub(crate) fn mod_hat(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let r = a.rem_euclid(b);
    // `2r > b` phrased as `r > b/2` so huge moduli cannot overflow the
    // doubling (for integers with 0 <= r < b the two are equivalent).
    if r > b / 2 {
        r - b
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_eval() {
        let e = LinExpr::from_coeffs(vec![2, -1, 0], 3);
        assert_eq!(e.n_vars(), 3);
        assert_eq!(e.try_eval(&[1, 2, 100]), Ok(3)); // 2·1 − 1·2 + 3
        assert!(!e.is_constant());
        assert!(LinExpr::constant_expr(3, 5).is_constant());
        assert!(LinExpr::zero(2).is_zero());
        assert_eq!(LinExpr::var(3, 1).try_eval(&[9, 7, 5]), Ok(7));
        assert_eq!(e.try_eval(&[i64::MAX, 0, 0]), Err(ArithOverflow));
        assert_eq!(e.try_scale(3).unwrap().coeffs(), &[6, -3, 0]);
    }

    #[test]
    fn gcd_and_exact_div() {
        let e = LinExpr::from_coeffs(vec![4, -6, 0], 8);
        assert_eq!(e.coeff_gcd(), 2);
        let d = e.exact_div(2);
        assert_eq!(d.coeffs(), &[2, -3, 0]);
        assert_eq!(d.constant(), 4);
    }

    #[test]
    #[should_panic]
    fn exact_div_requires_divisibility() {
        LinExpr::from_coeffs(vec![3], 1).exact_div(2);
    }

    #[test]
    fn tighten_div_rounds_constant_down() {
        let mut e = LinExpr::from_coeffs(vec![2, -4], -3);
        e.tighten_div_assign(2);
        assert_eq!(e.coeffs(), &[1, -2]);
        assert_eq!(e.constant(), -2);
    }

    #[test]
    fn remap_and_extend() {
        let e = LinExpr::from_coeffs(vec![1, 2], 7);
        let ext = e.extended(2);
        assert_eq!(ext.n_vars(), 4);
        assert_eq!(ext.coeff(3), 0);
        let remapped = e.remapped(&[2, 0], 3);
        assert_eq!(remapped.coeffs(), &[2, 0, 1]);
        assert_eq!(remapped.constant(), 7);
    }

    #[test]
    fn substitution() {
        // e = 3x + y + 1, substitute x := 2y - 1  =>  3(2y-1) + y + 1 = 7y - 2
        let mut s = LinExpr::from_coeffs(vec![3, 1], 1);
        let v = LinExpr::from_coeffs(vec![0, 2], -1);
        s.try_substitute_assign(0, &v).unwrap();
        assert_eq!(s.coeffs(), &[0, 7]);
        assert_eq!(s.constant(), -2);
        // An overflowing substitution leaves the expression as it was.
        let before = LinExpr::from_coeffs(vec![3, 1], 1);
        let mut e = before.clone();
        let huge = LinExpr::from_coeffs(vec![0, i64::MAX], 0);
        assert_eq!(e.try_substitute_assign(0, &huge), Err(ArithOverflow));
        assert_eq!(e, before);
    }

    #[test]
    fn helpers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(mod_hat(7, 3), 1);
        assert_eq!(mod_hat(8, 3), -1);
        assert_eq!(mod_hat(-1, 5), -1);
        assert_eq!(mod_hat(3, 6), 3);
        assert_eq!(mod_hat(4, 6), -2);
    }

    #[test]
    fn without_col_drops_unused_column() {
        let e = LinExpr::from_coeffs(vec![1, 0, 5], 2);
        let d = e.without_col(1);
        assert_eq!(d.coeffs(), &[1, 5]);
    }

    #[test]
    fn inline_and_heap_representations_agree() {
        // Straddle the inline/heap boundary in both directions.
        for n in [0usize, 1, INLINE - 1, INLINE, INLINE + 1, 2 * INLINE] {
            let coeffs: Vec<i64> = (0..n as i64).map(|i| i - 2).collect();
            let e = LinExpr::from_coeffs(coeffs.clone(), 9);
            assert_eq!(e.coeffs(), &coeffs[..]);
            assert_eq!(e.n_vars(), n);
            let grown = e.extended(3);
            assert_eq!(grown.n_vars(), n + 3);
            assert_eq!(&grown.coeffs()[..n], &coeffs[..]);
            assert_eq!(&grown.coeffs()[n..], &[0, 0, 0]);
            // Equality and hashing see through the representation.
            let same = LinExpr::from_coeffs(coeffs.clone(), 9);
            assert_eq!(e, same);
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let h = |x: &LinExpr| {
                let mut s = DefaultHasher::new();
                x.hash(&mut s);
                s.finish()
            };
            assert_eq!(h(&e), h(&same));
        }
    }

    #[test]
    fn growing_across_the_inline_boundary_preserves_content() {
        let mut e = LinExpr::from_coeffs(vec![1, 2, 3, 4, 5, 6], 7);
        e.extend_assign(2); // spills to the heap
        assert_eq!(e.coeffs(), &[1, 2, 3, 4, 5, 6, 0, 0]);
        e.set_coeff(7, -1);
        e.remove_col_assign(6);
        assert_eq!(e.coeffs(), &[1, 2, 3, 4, 5, 6, -1]);
    }

    #[test]
    fn ordering_is_lexicographic_on_coeffs_then_constant() {
        let a = LinExpr::from_coeffs(vec![1, 2], 0);
        let b = LinExpr::from_coeffs(vec![1, 3], -5);
        let c = LinExpr::from_coeffs(vec![1, 2], 1);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }
}
