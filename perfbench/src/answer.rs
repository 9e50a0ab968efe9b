//! The known-answer check applied to every verdict.

use crate::gen::{Expected, Pair};
use std::fmt;

/// What the program under test answered for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// `Equivalent`.
    Equivalent,
    /// `NotEquivalent`; `confirmed` tells whether at least one attached
    /// witness was confirmed by replay.
    NotEquivalent {
        /// A replay-confirmed witness came back.
        confirmed: bool,
    },
    /// `Inconclusive` (a budget ran out).
    Inconclusive,
    /// The request errored or was refused.
    Error(String),
}

/// How one request counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Judgement {
    /// The verdict is `Equivalent` or `NotEquivalent` (the deadline is
    /// applied by the caller, which knows the latency).
    pub decided: bool,
    /// The request errored, was refused, or lacked a confirmed witness.
    pub failed: bool,
}

/// A verdict that contradicts the pair's known answer: the run must abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrongVerdict {
    /// The pair's name.
    pub pair: String,
    /// What it should have been.
    pub expected: Expected,
    /// What came back.
    pub got: String,
}

impl fmt::Display for WrongVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wrong verdict on {}: expected {:?}, got {}",
            self.pair, self.expected, self.got
        )
    }
}

impl std::error::Error for WrongVerdict {}

/// Compares `answer` with `pair`'s known answer.
///
/// # Errors
///
/// [`WrongVerdict`] when a decided verdict contradicts the known answer.
pub fn judge(pair: &Pair, answer: &Answer) -> Result<Judgement, WrongVerdict> {
    let wrong = || WrongVerdict {
        pair: pair.name.clone(),
        expected: pair.expected,
        got: format!("{answer:?}"),
    };
    match (answer, pair.expected) {
        (Answer::Equivalent, Expected::Equivalent) => Ok(Judgement {
            decided: true,
            failed: false,
        }),
        (Answer::NotEquivalent { confirmed }, Expected::NotEquivalent) => Ok(Judgement {
            decided: true,
            failed: pair.witnesses && !confirmed,
        }),
        (Answer::Equivalent, Expected::NotEquivalent)
        | (Answer::NotEquivalent { .. }, Expected::Equivalent) => Err(wrong()),
        (Answer::Inconclusive, _) => Ok(Judgement {
            decided: false,
            failed: false,
        }),
        (Answer::Error(_), _) => Ok(Judgement {
            decided: false,
            failed: true,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(expected: Expected) -> Pair {
        Pair {
            name: "p".into(),
            original: String::new(),
            transformed: String::new(),
            expected,
            class: None,
            witnesses: expected == Expected::NotEquivalent,
            base: 0,
        }
    }

    #[test]
    fn contradicting_verdicts_are_wrong() {
        let eq = pair(Expected::Equivalent);
        let neq = pair(Expected::NotEquivalent);
        assert!(judge(&eq, &Answer::NotEquivalent { confirmed: true }).is_err());
        assert!(judge(&neq, &Answer::Equivalent).is_err());
        assert!(judge(&eq, &Answer::Equivalent).is_ok());
    }

    #[test]
    fn unconfirmed_witnesses_and_errors_fail_without_aborting() {
        let neq = pair(Expected::NotEquivalent);
        let j = judge(&neq, &Answer::NotEquivalent { confirmed: false }).unwrap();
        assert!(j.decided && j.failed);
        let j = judge(&neq, &Answer::Error("refused".into())).unwrap();
        assert!(!j.decided && j.failed);
        let j = judge(&neq, &Answer::Inconclusive).unwrap();
        assert!(!j.decided && !j.failed);
    }
}
