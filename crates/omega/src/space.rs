//! Tuple spaces: the named dimensions a set or relation is defined over.

use crate::{OmegaError, Result};
use std::sync::Arc;

/// The role a column plays inside a [`Conjunct`](crate::Conjunct).
///
/// Columns of every linear expression of a conjunct are laid out in the fixed
/// order *input dims, output dims, parameters, existentials, constant*; a
/// `VarKind` plus an index inside that kind identifies one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VarKind {
    /// A dimension of the input tuple (the `[x]` in `{ [x] -> [y] }`).
    In,
    /// A dimension of the output tuple (the `[y]` in `{ [x] -> [y] }`).
    Out,
    /// A symbolic parameter (e.g. a loop bound `N`), shared by all conjuncts.
    Param,
    /// A local existentially quantified variable of a single conjunct.
    Exists,
}

/// Describes the dimensions of a [`Relation`](crate::Relation) or
/// [`Set`](crate::Set): how many input dims, output dims and symbolic
/// parameters there are, and what they are called.
///
/// Two relations can only be combined (intersected, united, compared, ...)
/// when their spaces are *compatible*: same arities and same parameter names.
/// Dimension names themselves are cosmetic — they matter for printing and
/// parsing but not for the algebra.
///
/// ```
/// use arrayeq_omega::Space;
///
/// let s = Space::relation(&["x"], &["y"], &["N"]);
/// assert_eq!(s.n_in(), 1);
/// assert_eq!(s.n_out(), 1);
/// assert_eq!(s.n_param(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Space {
    /// The three name lists, shared behind one `Arc` so that cloning a space
    /// (which every conjunct of every relation carries) is a reference-count
    /// bump instead of three `Vec<String>` deep copies.
    names: Arc<SpaceNames>,
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct SpaceNames {
    in_vars: Vec<String>,
    out_vars: Vec<String>,
    params: Vec<String>,
}

impl Space {
    fn from_names(in_vars: Vec<String>, out_vars: Vec<String>, params: Vec<String>) -> Self {
        Space {
            names: Arc::new(SpaceNames {
                in_vars,
                out_vars,
                params,
            }),
        }
    }

    /// Creates the space of a relation with the given input dims, output dims
    /// and parameters.
    pub fn relation<S: AsRef<str>>(in_vars: &[S], out_vars: &[S], params: &[S]) -> Self {
        Space::from_names(
            in_vars.iter().map(|s| s.as_ref().to_owned()).collect(),
            out_vars.iter().map(|s| s.as_ref().to_owned()).collect(),
            params.iter().map(|s| s.as_ref().to_owned()).collect(),
        )
    }

    /// Creates the space of a set (no output dims).
    pub fn set<S: AsRef<str>>(vars: &[S], params: &[S]) -> Self {
        Space::relation(vars, &[], params)
    }

    /// Number of input-tuple dimensions.
    pub fn n_in(&self) -> usize {
        self.names.in_vars.len()
    }

    /// Number of output-tuple dimensions.
    pub fn n_out(&self) -> usize {
        self.names.out_vars.len()
    }

    /// Number of symbolic parameters.
    pub fn n_param(&self) -> usize {
        self.names.params.len()
    }

    /// `(n_in, n_out, n_param)`: what a canonical form compares of a space,
    /// as the structural hashes salt with it.
    pub(crate) fn arities(&self) -> (usize, usize, usize) {
        (self.n_in(), self.n_out(), self.n_param())
    }

    /// Names of the input-tuple dimensions.
    pub fn in_vars(&self) -> &[String] {
        &self.names.in_vars
    }

    /// Names of the output-tuple dimensions.
    pub fn out_vars(&self) -> &[String] {
        &self.names.out_vars
    }

    /// Names of the symbolic parameters.
    pub fn params(&self) -> &[String] {
        &self.names.params
    }

    /// The space of the inverse relation (input and output dims swapped).
    pub fn reversed(&self) -> Space {
        Space::from_names(
            self.names.out_vars.clone(),
            self.names.in_vars.clone(),
            self.names.params.clone(),
        )
    }

    /// The space of the domain set of a relation over this space.
    pub fn domain_space(&self) -> Space {
        if self.n_out() == 0 {
            return self.clone(); // a set is its own domain space
        }
        Space::from_names(
            self.names.in_vars.clone(),
            Vec::new(),
            self.names.params.clone(),
        )
    }

    /// The space of the range set of a relation over this space.
    pub fn range_space(&self) -> Space {
        Space::from_names(
            self.names.out_vars.clone(),
            Vec::new(),
            self.names.params.clone(),
        )
    }

    /// Whether `self` and `other` have the same arities and parameter names.
    ///
    /// Dimension names are ignored: `{ [x] -> [y] }` and `{ [i] -> [j] }` are
    /// compatible.
    pub fn is_compatible(&self, other: &Space) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
            || (self.n_in() == other.n_in()
                && self.n_out() == other.n_out()
                && self.names.params == other.names.params)
    }

    /// Checks compatibility and returns a descriptive error when it fails.
    pub fn check_compatible(&self, other: &Space, op: &'static str) -> Result<()> {
        if self.is_compatible(other) {
            Ok(())
        } else {
            Err(OmegaError::SpaceMismatch {
                op,
                lhs: self.describe(),
                rhs: other.describe(),
            })
        }
    }

    /// A compact human-readable description, used in error messages.
    pub fn describe(&self) -> String {
        format!(
            "[{}] -> [{}] (params [{}])",
            self.names.in_vars.join(", "),
            self.names.out_vars.join(", "),
            self.names.params.join(", ")
        )
    }

    /// The total number of *global* columns (inputs + outputs + params); the
    /// per-conjunct existential columns and the constant come after these.
    pub(crate) fn n_global(&self) -> usize {
        self.n_in() + self.n_out() + self.n_param()
    }

    /// Column index of dimension `idx` of the given kind, for a conjunct with
    /// `n_exists` existential variables.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range for the kind.
    pub(crate) fn col(&self, kind: VarKind, idx: usize, n_exists: usize) -> usize {
        match kind {
            VarKind::In => {
                assert!(idx < self.n_in(), "input dim {idx} out of range");
                idx
            }
            VarKind::Out => {
                assert!(idx < self.n_out(), "output dim {idx} out of range");
                self.n_in() + idx
            }
            VarKind::Param => {
                assert!(idx < self.n_param(), "param {idx} out of range");
                self.n_in() + self.n_out() + idx
            }
            VarKind::Exists => {
                assert!(idx < n_exists, "existential {idx} out of range");
                self.n_global() + idx
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities_and_names() {
        let s = Space::relation(&["i", "j"], &["k"], &["N"]);
        assert_eq!(s.n_in(), 2);
        assert_eq!(s.n_out(), 1);
        assert_eq!(s.n_param(), 1);
        assert_eq!(s.in_vars(), &["i".to_string(), "j".to_string()]);
        assert_eq!(s.out_vars(), &["k".to_string()]);
        assert_eq!(s.params(), &["N".to_string()]);
        assert_eq!(s.n_global(), 4);
    }

    #[test]
    fn set_space_has_no_outputs() {
        let s = Space::set(&["i"], &["N"]);
        assert_eq!(s.n_out(), 0);
        assert_eq!(s.n_in(), 1);
    }

    #[test]
    fn reversed_swaps_in_out() {
        let s = Space::relation(&["a"], &["b", "c"], &["N"]);
        let r = s.reversed();
        assert_eq!(r.n_in(), 2);
        assert_eq!(r.n_out(), 1);
        assert_eq!(r.in_vars(), &["b".to_string(), "c".to_string()]);
    }

    #[test]
    fn domain_and_range_spaces() {
        let s = Space::relation(&["a"], &["b", "c"], &["N"]);
        assert_eq!(s.domain_space().n_in(), 1);
        assert_eq!(s.domain_space().n_out(), 0);
        assert_eq!(s.range_space().n_in(), 2);
        assert_eq!(s.range_space().n_out(), 0);
    }

    #[test]
    fn compatibility_ignores_names_but_not_params() {
        let a = Space::relation(&["x"], &["y"], &["N"]);
        let b = Space::relation(&["i"], &["j"], &["N"]);
        let c = Space::relation(&["i"], &["j"], &["M"]);
        assert!(a.is_compatible(&b));
        assert!(!a.is_compatible(&c));
        assert!(a.check_compatible(&c, "test").is_err());
    }

    #[test]
    fn column_layout() {
        let s = Space::relation(&["i", "j"], &["k"], &["N"]);
        assert_eq!(s.col(VarKind::In, 0, 2), 0);
        assert_eq!(s.col(VarKind::In, 1, 2), 1);
        assert_eq!(s.col(VarKind::Out, 0, 2), 2);
        assert_eq!(s.col(VarKind::Param, 0, 2), 3);
        assert_eq!(s.col(VarKind::Exists, 1, 2), 5);
    }

    #[test]
    #[should_panic]
    fn out_of_range_column_panics() {
        let s = Space::relation(&["i"], &["k"], &["N"]);
        s.col(VarKind::In, 1, 0);
    }
}
