//! Operator property declarations (Section 4 and the "operator property
//! declarations" optional input of Fig. 6).
//!
//! Algebraic transformations exploit algebraic laws of operators on
//! fixed-point data (addition, multiplication, user-declared functions such
//! as `min`/`max`).  The checker only normalises at operators that are
//! declared to have these properties; everything else is compared
//! structurally, position by position.
//!
//! Beyond the paper's associativity/commutativity pair, the declarations
//! carry the rest of the operator algebra the normalization subsystem
//! ([`crate::normalize`]) exploits:
//!
//! * an **identity element** (`x + 0 = x`, `x * 1 = x`) — identity operands
//!   vanish from flattened chains;
//! * an **annihilator** (`x * 0 = 0`) — an annihilating constant collapses
//!   the whole chain to the constant;
//! * **constant folding** — constant operands of `+`/`*` chains fold into a
//!   single value per region (`2 + x + 3` ≡ `x + 5`);
//! * **inverse folding** — `-` and unary negation fold into the `+` chain
//!   with negated coefficients (`a - b` ≡ `a + (-1)·b`), so subtraction
//!   shuffles normalise away;
//! * one-level **distribution** of `*` over `+` (`a*(b+c)` ≡ `a*b + a*c`).
//!
//! The last two are laws of the fixed `+`/`*` pair, so they are derived from
//! the declared classes (both must be fully associative *and* commutative)
//! rather than declared separately; user calls never fold or distribute.

use arrayeq_addg::OperatorKind;
use std::collections::BTreeMap;

/// The algebraic class of one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OperatorClass {
    /// The operator is associative: `(a ⊕ b) ⊕ c = a ⊕ (b ⊕ c)`.
    pub associative: bool,
    /// The operator is commutative: `a ⊕ b = b ⊕ a`.
    pub commutative: bool,
    /// Two-sided identity element: `x ⊕ e = e ⊕ x = x`.
    pub identity: Option<i64>,
    /// Two-sided annihilator (absorbing element): `x ⊕ z = z ⊕ x = z`.
    pub annihilator: Option<i64>,
}

impl OperatorClass {
    /// Neither associative nor commutative, no identity or annihilator.
    pub const NONE: OperatorClass = OperatorClass {
        associative: false,
        commutative: false,
        identity: None,
        annihilator: None,
    };
    /// Both associative and commutative (integer `+` and `*` modulo
    /// overflow, which the paper explicitly ignores); no identity or
    /// annihilator declared.
    pub const AC: OperatorClass = OperatorClass {
        associative: true,
        commutative: true,
        identity: None,
        annihilator: None,
    };
    /// Associative only (order-preserving chains, e.g. declared string-like
    /// concatenation operators).
    pub const ASSOCIATIVE: OperatorClass = OperatorClass {
        associative: true,
        commutative: false,
        identity: None,
        annihilator: None,
    };
    /// Commutative only.
    pub const COMMUTATIVE: OperatorClass = OperatorClass {
        associative: false,
        commutative: true,
        identity: None,
        annihilator: None,
    };

    /// This class with an identity element declared.
    pub const fn with_identity(mut self, e: i64) -> OperatorClass {
        self.identity = Some(e);
        self
    }

    /// This class with an annihilator declared.
    pub const fn with_annihilator(mut self, z: i64) -> OperatorClass {
        self.annihilator = Some(z);
        self
    }

    /// Whether the extended method normalises at an operator of this class
    /// at all (flattening needs associativity or commutativity to have any
    /// effect).
    pub fn is_algebraic(&self) -> bool {
        self.associative || self.commutative
    }

    /// Whether the class allows full reordering of a flattened chain —
    /// required before inverse folding and distribution may rewrite the
    /// chain's term structure.
    pub fn is_ac(&self) -> bool {
        self.associative && self.commutative
    }

    /// Parses a CLI-style class specification: any combination of the
    /// letters `a` (associative) and `c` (commutative), e.g. `ac`, `a`, `c`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending character for anything else.
    pub fn parse_spec(spec: &str) -> Result<OperatorClass, String> {
        let mut class = OperatorClass::NONE;
        if spec.is_empty() {
            return Err("empty operator class (expected `a`, `c` or `ac`)".to_owned());
        }
        for ch in spec.chars() {
            match ch {
                'a' => class.associative = true,
                'c' => class.commutative = true,
                other => {
                    return Err(format!(
                        "unknown operator-class letter `{other}` in `{spec}` \
                         (expected a combination of `a` and `c`)"
                    ))
                }
            }
        }
        Ok(class)
    }
}

/// Declared properties for every operator the checker may encounter.
///
/// The defaults match integer arithmetic with overflow ignored, as the paper
/// does: fixed-point `+` and `*` are associative and commutative with their
/// usual identity elements (`0`, `1`) and `*`'s annihilator `0`; `-`, `/`
/// and unary negation carry no classes of their own (`-` and negation are
/// instead *folded into* the `+` chain by the normalizer), and calls are
/// uninterpreted until declared.  Designers declare properties for their own
/// functions (e.g. `min`, `max`) with [`OperatorProperties::declare_call`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperatorProperties {
    add: OperatorClass,
    mul: OperatorClass,
    calls: BTreeMap<String, OperatorClass>,
}

impl Default for OperatorProperties {
    fn default() -> Self {
        OperatorProperties {
            add: OperatorClass::AC.with_identity(0),
            mul: OperatorClass::AC.with_identity(1).with_annihilator(0),
            calls: BTreeMap::new(),
        }
    }
}

impl OperatorProperties {
    /// Properties with *no* operator declared associative or commutative —
    /// useful for ablation experiments where algebraic normalisation is
    /// disabled entirely.
    pub fn none() -> Self {
        OperatorProperties {
            add: OperatorClass::NONE,
            mul: OperatorClass::NONE,
            calls: BTreeMap::new(),
        }
    }

    /// Declares the class of a user function (by name).
    pub fn declare_call(mut self, name: impl Into<String>, class: OperatorClass) -> Self {
        self.calls.insert(name.into(), class);
        self
    }

    /// Declares the class of an operator by its CLI surface syntax
    /// `name=spec` (e.g. `min=ac`, `f=a`, `+=c`): `+` and `*` address the
    /// built-in operators, anything else a call by name.
    ///
    /// # Errors
    ///
    /// Returns a message when the `name=spec` shape or the class letters are
    /// malformed.
    pub fn declare_spec(self, decl: &str) -> Result<Self, String> {
        let (name, spec) = decl
            .split_once('=')
            .ok_or_else(|| format!("malformed operator declaration `{decl}` (expected name=ac)"))?;
        if name.is_empty() {
            return Err(format!("missing operator name in `{decl}`"));
        }
        let class = OperatorClass::parse_spec(spec)?;
        Ok(match name {
            "+" => self.with_add(class),
            "*" => self.with_mul(class),
            _ => self.declare_call(name, class),
        })
    }

    /// Overrides the class of `+`.
    pub fn with_add(mut self, class: OperatorClass) -> Self {
        self.add = class;
        self
    }

    /// Overrides the class of `*`.
    pub fn with_mul(mut self, class: OperatorClass) -> Self {
        self.mul = class;
        self
    }

    /// The class of an operator kind.
    ///
    /// `-`, `/` and unary negation report [`OperatorClass::NONE`]: the
    /// normalizer handles `-`/negation by *inverse folding* into the `+`
    /// chain (see the crate's private `normalize` module) rather than
    /// through a class of their own.
    pub fn class_of(&self, kind: &OperatorKind) -> OperatorClass {
        match kind {
            OperatorKind::Add => self.add,
            OperatorKind::Mul => self.mul,
            OperatorKind::Sub | OperatorKind::Div | OperatorKind::Neg => OperatorClass::NONE,
            OperatorKind::Call(name) => {
                self.calls.get(name).copied().unwrap_or(OperatorClass::NONE)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let p = OperatorProperties::default();
        assert!(p.class_of(&OperatorKind::Add).associative);
        assert!(p.class_of(&OperatorKind::Add).commutative);
        assert!(p.class_of(&OperatorKind::Mul).associative);
        assert!(!p.class_of(&OperatorKind::Sub).associative);
        assert!(!p.class_of(&OperatorKind::Div).commutative);
        assert_eq!(
            p.class_of(&OperatorKind::Call("absd".into())),
            OperatorClass::NONE
        );
    }

    #[test]
    fn defaults_carry_the_integer_algebra() {
        let p = OperatorProperties::default();
        assert_eq!(p.class_of(&OperatorKind::Add).identity, Some(0));
        assert_eq!(p.class_of(&OperatorKind::Add).annihilator, None);
        assert_eq!(p.class_of(&OperatorKind::Mul).identity, Some(1));
        assert_eq!(p.class_of(&OperatorKind::Mul).annihilator, Some(0));
        assert!(p.class_of(&OperatorKind::Add).is_ac());
        assert!(!p.class_of(&OperatorKind::Sub).is_algebraic());
    }

    #[test]
    fn user_declared_functions() {
        let p = OperatorProperties::default().declare_call("max", OperatorClass::AC);
        assert!(p.class_of(&OperatorKind::Call("max".into())).commutative);
        assert!(!p.class_of(&OperatorKind::Call("min".into())).commutative);
    }

    #[test]
    fn none_disables_everything() {
        let p = OperatorProperties::none();
        assert_eq!(p.class_of(&OperatorKind::Add), OperatorClass::NONE);
        assert_eq!(p.class_of(&OperatorKind::Mul), OperatorClass::NONE);
    }

    #[test]
    fn spec_parsing_accepts_the_cli_surface() {
        assert_eq!(OperatorClass::parse_spec("ac").unwrap(), OperatorClass::AC);
        assert_eq!(
            OperatorClass::parse_spec("ca").unwrap(),
            OperatorClass::AC,
            "letter order is free"
        );
        assert_eq!(
            OperatorClass::parse_spec("a").unwrap(),
            OperatorClass::ASSOCIATIVE
        );
        assert_eq!(
            OperatorClass::parse_spec("c").unwrap(),
            OperatorClass::COMMUTATIVE
        );
        assert!(OperatorClass::parse_spec("").is_err());
        assert!(OperatorClass::parse_spec("x").is_err());

        let p = OperatorProperties::default()
            .declare_spec("min=ac")
            .unwrap();
        assert!(p.class_of(&OperatorKind::Call("min".into())).is_ac());
        let p = p.declare_spec("f=a").unwrap();
        let f = p.class_of(&OperatorKind::Call("f".into()));
        assert!(f.associative && !f.commutative);
        assert!(p.clone().declare_spec("min").is_err());
        assert!(p.clone().declare_spec("=ac").is_err());
        assert!(p.clone().declare_spec("g=q").is_err());
        // Built-ins are addressable too (ablations from the CLI).
        let p = p.declare_spec("+=a").unwrap();
        let add = p.class_of(&OperatorKind::Add);
        assert!(add.associative && !add.commutative);
        assert_eq!(add.identity, None, "redeclaring resets the algebra");
    }
}
