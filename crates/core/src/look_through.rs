//! The look-through steps of a worker, each done once.
//!
//! The traversal and the flattening look through the ADDG in two steps
//! (Section 3.2 of the paper): at an access they compose the
//! output-current mapping with the access's dependency mapping, and at an
//! intermediate array they restrict it to the elements one definition
//! defines.  The two programs share most of their paths, so one run
//! requests the same step with the same operands many times: a deep
//! request composes about 620 times over about 170 distinct operand pairs.
//!
//! Each [`Checker`] (one worker of one run) therefore records every step it
//! computes, with both operands and the result.  A step is keyed by the
//! structural hashes of its two relations, and a recorded step answers only
//! when both relations equal its operands by `==`: the hash picks a bucket
//! and content decides, so a 64-bit collision is a miss.  The relation
//! that comes from the ADDG lives as long as the run and is held by
//! reference.  A step that fails, unwinds or notes an arithmetic overflow
//! in its own [`solver_events`] scope is not recorded: the next request
//! runs it again and notes the overflow again, as the feasibility memo
//! never keeps an overflow-degraded verdict.  The conjuncts a step's DNF
//! coalescing dropped are counted again on every answer, so the work
//! counters read as if each step ran.

use crate::checker::Checker;
use crate::report::CheckStats;
use crate::Result;
use arrayeq_omega::{solver_events, Relation, Set};
use std::collections::HashMap;

/// The recorded look-through steps of one worker.
#[derive(Default)]
pub(crate) struct LookThroughs<'x> {
    /// `map` composed with an access's dependency mapping.
    compositions: Steps<'x>,
    /// `map` restricted to a definition's elements.
    restrictions: Steps<'x>,
}

/// Recorded steps of one kind, bucketed by the structural hashes of their
/// two operands.
type Steps<'x> = HashMap<(u64, u64), Vec<Step<'x>>>;

/// One computed step.
struct Step<'x> {
    /// The traversal's operand.
    map: Relation,
    /// The ADDG's operand.
    addg: &'x Relation,
    result: Relation,
    /// Conjuncts the step's DNF coalescing dropped.
    conjuncts_subsumed: u64,
}

/// Answers a step from `steps` when both operands equal a recorded step's,
/// and otherwise runs it and records it unless it failed or overflowed.
fn look_through<'x>(
    steps: &mut Steps<'x>,
    stats: &mut CheckStats,
    map: &Relation,
    addg: &'x Relation,
    run: impl FnOnce() -> Result<Relation>,
) -> Result<Relation> {
    let key = (map.structural_hash(), addg.structural_hash());
    let recorded = steps.get(&key).and_then(|bucket| {
        bucket
            .iter()
            .find(|s| s.map == *map && (std::ptr::eq(s.addg, addg) || *s.addg == *addg))
    });
    if let Some(step) = recorded {
        stats.conjuncts_subsumed += step.conjuncts_subsumed;
        return Ok(step.result.clone());
    }
    let (result, events) = solver_events(run);
    let result = result?;
    if events.overflow_events == 0 {
        // Most buckets only ever hold one step.
        let bucket = steps.entry(key).or_insert_with(|| Vec::with_capacity(1));
        bucket.push(Step {
            map: map.clone(),
            addg,
            result: result.clone(),
            conjuncts_subsumed: events.conjuncts_subsumed,
        });
    }
    Ok(result)
}

impl<'x> Checker<'x> {
    /// Looks through an access node: `map` composed with the node's
    /// dependency `mapping`, simplified.  Every request counts as one
    /// composition; only a computed one is timed by a `compose` span.
    pub(crate) fn compose(&mut self, map: &Relation, mapping: &'x Relation) -> Result<Relation> {
        self.stats.compositions += 1;
        look_through(
            &mut self.look_throughs.compositions,
            &mut self.stats,
            map,
            mapping,
            || {
                let _span = arrayeq_trace::span("compose");
                Ok(map.compose(mapping)?.simplified(true))
            },
        )
    }

    /// Looks into one definition of an intermediate array: `map`
    /// restricted to the definition's `elements`, simplified.
    pub(crate) fn restrict_to(&mut self, map: &Relation, elements: &'x Set) -> Result<Relation> {
        look_through(
            &mut self.look_throughs.restrictions,
            &mut self.stats,
            map,
            elements.as_relation(),
            || Ok(map.restrict_range(elements)?.simplified(true)),
        )
    }
}
