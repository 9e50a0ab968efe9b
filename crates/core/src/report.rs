//! The result of an equivalence check.

use crate::context::BudgetExhausted;
use crate::diagnostics::{blame_candidates, Diagnostic};
use std::fmt;

/// The verdict of the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The sufficient condition holds on every pair of corresponding paths:
    /// the two functions are functionally equivalent.
    Equivalent,
    /// The sufficient condition failed; diagnostics describe where.  (As the
    /// condition is sufficient but not necessary, a sufficiently creative
    /// transformation outside the supported set can also land here.)
    NotEquivalent,
    /// The checker could not decide within its resource limits.
    Inconclusive,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Equivalent => "EQUIVALENT",
            Verdict::NotEquivalent => "NOT EQUIVALENT",
            Verdict::Inconclusive => "INCONCLUSIVE",
        };
        write!(f, "{s}")
    }
}

/// Work counters collected during one check — the quantities the scaling
/// experiments (E5–E9) report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Pairs of corresponding paths whose output-input mappings were compared.
    pub paths_compared: u64,
    /// Look-through compositions requested (intermediate-variable
    /// reductions), memo hits included.  A worker computes each distinct
    /// composition once and answers repeats from its memo; the `compose`
    /// trace span and the `composition` metric count only the computed
    /// ones, so the memo's hits are this count minus those.
    pub compositions: u64,
    /// Relation equality checks performed.
    pub mapping_equalities: u64,
    /// Proof-cache lookups ([`crate::ProofCache`]), except those a
    /// baseline entry answered (see [`CheckStats::baseline_hits`]).
    pub table_lookups: u64,
    /// Lookups answered by a sub-proof this run established itself (trace
    /// mechanism `local_table`).
    pub table_hits: u64,
    /// Sub-proofs this run published to the proof cache.  A proof is only
    /// published after a miss, but the cache also holds other runs',
    /// stored and baseline entries, so this is not the cache's size.
    pub table_entries: u64,
    /// 64-bit hash collisions met, in every build: a term-arena intern or
    /// a hit on one of this run's own proof-cache entries whose key matched
    /// but whose content (coefficient, mappings) differed.  Each was
    /// answered as a miss.
    pub hash_collisions: u64,
    /// Flattening operations performed (extended method only).
    pub flattenings: u64,
    /// Matching operations performed (extended method only).
    pub matchings: u64,
    /// Flattened terms produced across all flattenings.
    pub terms_flattened: u64,
    /// Term-arena interning operations: one per restricted term entering
    /// a match, into the one arena of its region piece (see
    /// `normalize::TermArena`).
    pub arena_interns: u64,
    /// Interning operations answered by an already-interned identical term
    /// of the same piece: a term's twin on the other side, or a repeat on
    /// its own side.
    pub arena_hits: u64,
    /// Term pairs matched by arena-id equality alone (no recursive
    /// equivalence check, no relation algebra — one integer comparison).
    pub fast_term_matches: u64,
    /// Tasks of a run at more than one job: one per output whose defined
    /// elements match, that output's root obligation, so never more than
    /// the outputs checked (0 at one job, which runs the same tasks
    /// without counting them).
    pub parallel_tasks: u64,
    /// Always 0: no task is smaller than an output's root obligation, so
    /// no algebraic obligation is split into per-piece tasks.  Kept so the
    /// `--json` stats and the benchmark's layer metrics keep their key.
    pub algebraic_piece_tasks: u64,
    /// Lookups this run's own sub-proofs did not answer, in a run given a
    /// proof cache ([`crate::CheckContext::proofs`]): those that another
    /// query's or the store's entries could answer.  0 on the one-shot
    /// path, whose cache holds only the run's own proofs.
    pub shared_table_lookups: u64,
    /// Lookups answered by a sub-proof another query of the session
    /// established (trace mechanism `shared_table`) or the persistent proof
    /// store loaded (`store`).
    pub shared_table_hits: u64,
    /// Sub-proofs published to a proof cache given by the caller, where
    /// later queries see them (0 on the one-shot path).
    pub shared_table_inserts: u64,
    /// Lookups answered by an entry loaded from a persistent on-disk proof
    /// store (a subset of [`CheckStats::shared_table_hits`]).
    pub store_hits: u64,
    /// Output obligations inside the dirty cone of an incremental run — the
    /// outputs actually traversed after the baseline-clean outputs of
    /// [`crate::CheckContext::clean_outputs`] were skipped.  0 when no
    /// output was clean (a from-scratch run traverses everything but is not
    /// counting cone membership).
    pub cone_positions: u64,
    /// Lookups answered by an entry an incremental baseline carried into the
    /// proof cache (trace mechanism `baseline`).  They are not counted in
    /// [`CheckStats::table_lookups`].
    pub baseline_hits: u64,
    /// Conjuncts dropped by the DNF constraint-set engine during this check —
    /// structural-hash duplicates plus conjuncts subsumed by a sibling
    /// disjunct (`arrayeq_omega::SolverEvents::conjuncts_subsumed`, summed
    /// over every thread of the run).
    pub conjuncts_subsumed: u64,
    /// Conjunct feasibility questions whose checked arithmetic overflowed
    /// and that were re-decided *exactly* by the big-int reference solver
    /// instead of surfacing a degraded verdict
    /// (`arrayeq_omega::SolverEvents::bigint_fallbacks`, summed over every
    /// thread of the run).
    pub bigint_fallbacks: u64,
    /// Wall-clock time of the equivalence check itself, in microseconds.
    pub check_time_us: u64,
    /// Wall-clock time of witness extraction (sampling + replay + slicing),
    /// in microseconds; 0 when no extraction ran.
    pub witness_time_us: u64,
}

impl CheckStats {
    /// Accumulates another stats block into this one (summing every
    /// counter; the timing fields add up too, so merge per-worker counters
    /// first and stamp wall-clock times on the merged result).
    ///
    /// This is how a parallel run aggregates race-free: every worker owns a
    /// plain `CheckStats` (ordinary field increments, no atomics on the hot
    /// path) and the coordinator merges them after the pool joins.
    pub fn merge(&mut self, other: &CheckStats) {
        self.paths_compared += other.paths_compared;
        self.compositions += other.compositions;
        self.mapping_equalities += other.mapping_equalities;
        self.table_lookups += other.table_lookups;
        self.table_hits += other.table_hits;
        self.table_entries += other.table_entries;
        self.hash_collisions += other.hash_collisions;
        self.flattenings += other.flattenings;
        self.matchings += other.matchings;
        self.terms_flattened += other.terms_flattened;
        self.arena_interns += other.arena_interns;
        self.arena_hits += other.arena_hits;
        self.fast_term_matches += other.fast_term_matches;
        self.parallel_tasks += other.parallel_tasks;
        self.algebraic_piece_tasks += other.algebraic_piece_tasks;
        self.shared_table_lookups += other.shared_table_lookups;
        self.shared_table_hits += other.shared_table_hits;
        self.shared_table_inserts += other.shared_table_inserts;
        self.store_hits += other.store_hits;
        self.cone_positions += other.cone_positions;
        self.baseline_hits += other.baseline_hits;
        self.conjuncts_subsumed += other.conjuncts_subsumed;
        self.bigint_fallbacks += other.bigint_fallbacks;
        self.check_time_us += other.check_time_us;
        self.witness_time_us += other.witness_time_us;
        debug_assert!(self.table_hits <= self.table_lookups);
        debug_assert!(self.shared_table_hits <= self.shared_table_lookups);
        debug_assert!(self.store_hits <= self.shared_table_hits);
    }

    /// Fraction of [`CheckStats::table_lookups`] answered by this run's own
    /// sub-proofs (0.0 when the cache was never consulted).
    pub fn table_hit_rate(&self) -> f64 {
        if self.table_lookups == 0 {
            0.0
        } else {
            self.table_hits as f64 / self.table_lookups as f64
        }
    }

    /// Fraction of term-arena interning operations answered by an existing
    /// identical term (0.0 when the arena was never used) — the dedup
    /// measure of the normalization subsystem's hash-consing.
    pub fn arena_hit_rate(&self) -> f64 {
        if self.arena_interns == 0 {
            0.0
        } else {
            self.arena_hits as f64 / self.arena_interns as f64
        }
    }

    /// Fraction of [`CheckStats::table_lookups`] answered by any sub-proof —
    /// this run's own, another query's or the store's (0.0 when the cache
    /// was never consulted).  In an engine session this is the reuse
    /// measure: shared hits short-circuit whole sub-traversals that a
    /// one-shot run would re-derive.
    pub fn combined_hit_rate(&self) -> f64 {
        let lookups = self.table_lookups;
        if lookups == 0 {
            0.0
        } else {
            (self.table_hits + self.shared_table_hits) as f64 / lookups as f64
        }
    }
}

/// A concrete, machine-checked counterexample for a
/// [`Verdict::NotEquivalent`]: an output element at which the two programs
/// were *executed* and produced different values.
///
/// Witnesses are produced by the `arrayeq-witness` crate: it samples points
/// from the structured failing domains of the diagnostics
/// ([`crate::Diagnostic::failing_domain`]), replays both programs through the
/// reference interpreter on deterministic inputs, and records the first point
/// where the values diverge, together with the ADDG slices (statement sets)
/// feeding that point on each side.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The output array at which the divergence was exhibited.
    pub output: String,
    /// The concrete index of the diverging output element (one value per
    /// array dimension).
    pub point: Vec<i64>,
    /// Parameter values under which the point was sampled (empty for the
    /// fully-constant program class).
    pub params: Vec<i64>,
    /// Value computed by the original program at the point (`None` when the
    /// replay could not evaluate it).
    pub original_value: Option<i64>,
    /// Value computed by the transformed program at the point.
    pub transformed_value: Option<i64>,
    /// Whether the replay *confirmed* the divergence: both programs ran and
    /// their values at the point differ.  An unconfirmed witness still
    /// records the sampled point of the failing domain.
    pub confirmed: bool,
    /// How many candidate `(input fill, point)` replays were tried before
    /// this witness was produced.
    pub replays: usize,
    /// Statement labels of the original program feeding the witness point.
    pub original_slice: Vec<String>,
    /// Statement labels of the transformed program feeding the witness point.
    pub transformed_slice: Vec<String>,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idx = self
            .point
            .iter()
            .map(|v| format!("[{v}]"))
            .collect::<String>();
        write!(f, "witness: {}{idx}", self.output)?;
        match (self.original_value, self.transformed_value) {
            (Some(a), Some(b)) if self.confirmed => {
                write!(f, " = {a} (original) vs {b} (transformed)")?;
            }
            _ => write!(f, " (divergence not replay-confirmed)")?,
        }
        if !self.original_slice.is_empty() || !self.transformed_slice.is_empty() {
            write!(
                f,
                "  [slice: {} | {}]",
                self.original_slice.join(","),
                self.transformed_slice.join(",")
            )?;
        }
        Ok(())
    }
}

/// The full result of a verification run: verdict, diagnostics and work
/// statistics.
#[derive(Debug, Clone)]
pub struct Report {
    /// The verdict.
    pub verdict: Verdict,
    /// Diagnostics explaining a [`Verdict::NotEquivalent`] (or partial
    /// problems encountered on the way).
    pub diagnostics: Vec<Diagnostic>,
    /// Concrete counterexamples backing the diagnostics, filled in by the
    /// witness engine (`arrayeq-witness`); empty straight out of the checker.
    pub witnesses: Vec<Witness>,
    /// Work counters.
    pub stats: CheckStats,
    /// Name of the checked output arrays.
    pub outputs_checked: Vec<String>,
    /// Content fingerprint of every checked output on each side, as
    /// `(output name, original-side fingerprint, transformed-side
    /// fingerprint)` in [`Report::outputs_checked`] order.  This is what
    /// lets a baseline consumer correlate proven entries with source
    /// positions.  Never part of [`Report::render_stable`].
    pub output_fingerprints: Vec<(String, u64, u64)>,
    /// Structural hash of the identity relation on each output's defined
    /// elements, as `(output name, hash)` for every re-checked output whose
    /// element domains matched.  Together with an output's entry in
    /// [`Report::output_fingerprints`] this reconstructs the output's root
    /// proof key ([`crate::output_root_key`]) without re-running the Omega
    /// domain computation — which is what lets an exported baseline be
    /// consumed with no per-output Omega work.  Skipped-clean and
    /// domain-mismatched outputs have no entry; never part of
    /// [`Report::render_stable`].
    pub output_domain_hashes: Vec<(String, u64)>,
    /// The typed reason behind a [`Verdict::Inconclusive`]: which budget
    /// (work limit, wall-clock deadline, cancellation) ran out.  Always
    /// `None` for conclusive verdicts.
    pub budget_exhausted: Option<BudgetExhausted>,
}

impl Report {
    /// Whether the verdict is [`Verdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        self.verdict == Verdict::Equivalent
    }

    /// The blame heuristic of Section 6.1: transformed-program statements
    /// most likely to contain the error, ordered by how many failing paths
    /// they appear on.
    pub fn blame(&self) -> Vec<(String, usize)> {
        blame_candidates(&self.diagnostics)
    }

    /// The *stable* rendering of the report: verdict, checked outputs,
    /// budget reason, every diagnostic, every witness and the blame ranking
    /// — everything semantic — with the volatile quantities (wall-clock
    /// times, cache hit counters) left out.
    ///
    /// This rendering is byte-identical for one request regardless of
    /// [`crate::CheckOptions::jobs`]: the checker merges each output's
    /// diagnostics in output order, whichever worker ran the output's task,
    /// while its cache and work counters legitimately vary with scheduling
    /// (workers see the run's proofs in different task interleavings).
    /// [`Report::summary`] is the richer human rendering that includes
    /// those counters.
    pub fn render_stable(&self) -> String {
        let mut out = format!("{}\n", self.verdict);
        out.push_str(&format!("outputs: {}\n", self.outputs_checked.join(", ")));
        if let Some(reason) = &self.budget_exhausted {
            let kind = match reason {
                BudgetExhausted::WorkLimit { .. } => "work limit",
                BudgetExhausted::DeadlineExceeded { .. } => "deadline",
                BudgetExhausted::Cancelled => "cancelled",
                BudgetExhausted::ArithOverflow { .. } => "arithmetic overflow",
                BudgetExhausted::UnsupportedFragment { .. } => "unsupported fragment",
                BudgetExhausted::WorkerPanicked { .. } => "worker panic",
            };
            out.push_str(&format!("inconclusive: {kind}\n"));
        }
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
        }
        for w in &self.witnesses {
            out.push_str(&w.to_string());
            out.push('\n');
        }
        for (stmt, paths) in self.blame() {
            out.push_str(&format!("blame: {stmt} ({paths} failing paths)\n"));
        }
        out
    }

    /// A compact human-readable rendering of the whole report.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} ({} path pairs, {} mapping comparisons, {} table entries, {} table hits, {:.0}% hit rate)\n",
            self.verdict,
            self.stats.paths_compared,
            self.stats.mapping_equalities,
            self.stats.table_entries,
            self.stats.table_hits,
            self.stats.table_hit_rate() * 100.0,
        );
        if self.stats.compositions > 0
            || self.stats.flattenings > 0
            || self.stats.matchings > 0
            || self.stats.terms_flattened > 0
        {
            out.push_str(&format!(
                "traversal: {} compositions, {} flattenings, {} matchings, {} terms flattened\n",
                self.stats.compositions,
                self.stats.flattenings,
                self.stats.matchings,
                self.stats.terms_flattened,
            ));
        }
        if self.stats.parallel_tasks > 0 {
            out.push_str(&format!(
                "parallel: {} output tasks\n",
                self.stats.parallel_tasks,
            ));
        }
        if self.stats.shared_table_lookups > 0 {
            out.push_str(&format!(
                "shared table: {} hits / {} lookups ({:.0}% combined hit rate), {} published\n",
                self.stats.shared_table_hits,
                self.stats.shared_table_lookups,
                self.stats.combined_hit_rate() * 100.0,
                self.stats.shared_table_inserts,
            ));
        }
        if self.stats.store_hits > 0 {
            out.push_str(&format!(
                "proof store: {} sub-proofs discharged from the persistent store\n",
                self.stats.store_hits,
            ));
        }
        if self.stats.baseline_hits > 0 || self.stats.cone_positions > 0 {
            out.push_str(&format!(
                "incremental: {} baseline hits, {} of {} outputs in the dirty cone\n",
                self.stats.baseline_hits,
                self.stats.cone_positions,
                self.outputs_checked.len(),
            ));
        }
        if self.stats.arena_interns > 0 {
            out.push_str(&format!(
                "term arena: {} interns, {} dedup hits ({:.0}%), {} fast matches\n",
                self.stats.arena_interns,
                self.stats.arena_hits,
                self.stats.arena_hit_rate() * 100.0,
                self.stats.fast_term_matches,
            ));
        }
        if self.stats.conjuncts_subsumed > 0 || self.stats.bigint_fallbacks > 0 {
            out.push_str(&format!(
                "constraint sets: {} conjuncts coalesced away, {} big-int exact fallbacks\n",
                self.stats.conjuncts_subsumed, self.stats.bigint_fallbacks,
            ));
        }
        if self.stats.hash_collisions > 0 {
            out.push_str(&format!(
                "WARNING: {} structural-hash collisions detected in the proof cache or the term arena, each answered as a miss\n",
                self.stats.hash_collisions,
            ));
        }
        if self.stats.check_time_us > 0 || self.stats.witness_time_us > 0 {
            out.push_str(&format!(
                "timing: check {:.3} ms",
                self.stats.check_time_us as f64 / 1e3,
            ));
            if self.stats.witness_time_us > 0 {
                out.push_str(&format!(
                    ", witness extraction {:.3} ms",
                    self.stats.witness_time_us as f64 / 1e3,
                ));
            }
            out.push('\n');
        }
        if let Some(reason) = &self.budget_exhausted {
            out.push_str(&format!("inconclusive: {reason}\n"));
        }
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
        }
        for w in &self.witnesses {
            out.push_str(&w.to_string());
            out.push('\n');
        }
        let blame = self.blame();
        if !blame.is_empty() {
            out.push_str("most likely error locations (transformed program): ");
            let rendered: Vec<String> = blame
                .iter()
                .take(3)
                .map(|(s, n)| format!("{s} ({n} failing paths)"))
                .collect();
            out.push_str(&rendered.join(", "));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_summary_contains_verdict_and_stats() {
        let r = Report {
            verdict: Verdict::Equivalent,
            diagnostics: Vec::new(),
            witnesses: Vec::new(),
            stats: CheckStats {
                paths_compared: 4,
                ..Default::default()
            },
            outputs_checked: vec!["C".into()],
            output_fingerprints: Vec::new(),
            output_domain_hashes: Vec::new(),
            budget_exhausted: None,
        };
        assert!(r.is_equivalent());
        assert!(r.summary().contains("EQUIVALENT"));
        assert!(r.summary().contains("4 path pairs"));
        assert_eq!(format!("{}", Verdict::NotEquivalent), "NOT EQUIVALENT");
        assert_eq!(format!("{}", Verdict::Inconclusive), "INCONCLUSIVE");
    }

    #[test]
    fn summary_renders_budget_shared_table_and_collisions() {
        let r = Report {
            verdict: Verdict::Inconclusive,
            diagnostics: Vec::new(),
            witnesses: Vec::new(),
            stats: CheckStats {
                table_lookups: 10,
                table_hits: 2,
                shared_table_lookups: 8,
                shared_table_hits: 4,
                shared_table_inserts: 3,
                hash_collisions: 1,
                check_time_us: 1500,
                witness_time_us: 2500,
                ..Default::default()
            },
            outputs_checked: vec!["C".into()],
            output_fingerprints: Vec::new(),
            output_domain_hashes: Vec::new(),
            budget_exhausted: Some(BudgetExhausted::DeadlineExceeded { elapsed_ms: 9 }),
        };
        let s = r.summary();
        assert!(s.contains("shared table: 4 hits / 8 lookups"));
        assert!(s.contains("60% combined hit rate"));
        assert!(s.contains("1 structural-hash collisions"));
        assert!(s.contains("witness extraction 2.500 ms"));
        assert!(s.contains("inconclusive: wall-clock deadline exceeded after 9 ms"));
        assert!((r.stats.combined_hit_rate() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn summary_renders_traversal_and_parallel_counters() {
        let r = Report {
            verdict: Verdict::Equivalent,
            diagnostics: Vec::new(),
            witnesses: Vec::new(),
            stats: CheckStats {
                compositions: 12,
                flattenings: 3,
                matchings: 5,
                terms_flattened: 40,
                parallel_tasks: 2,
                baseline_hits: 4,
                cone_positions: 1,
                arena_interns: 9,
                arena_hits: 3,
                conjuncts_subsumed: 6,
                bigint_fallbacks: 2,
                check_time_us: 800,
                ..Default::default()
            },
            outputs_checked: vec!["C".into(), "D".into()],
            output_fingerprints: Vec::new(),
            output_domain_hashes: Vec::new(),
            budget_exhausted: None,
        };
        let s = r.summary();
        assert!(s.contains(
            "traversal: 12 compositions, 3 flattenings, 5 matchings, 40 terms flattened"
        ));
        assert!(s.contains("parallel: 2 output tasks"));
        assert!(s.contains("incremental: 4 baseline hits, 1 of 2 outputs in the dirty cone"));
        assert!(s.contains("term arena: 9 interns, 3 dedup hits"));
        assert!(
            s.contains("constraint sets: 6 conjuncts coalesced away, 2 big-int exact fallbacks")
        );
        assert!(s.contains("timing: check 0.800 ms"));
    }

    #[test]
    fn witness_display_shows_the_diverging_values() {
        let w = Witness {
            output: "C".into(),
            point: vec![4],
            params: vec![],
            original_value: Some(17),
            transformed_value: Some(21),
            confirmed: true,
            replays: 2,
            original_slice: vec!["s1".into(), "s3".into()],
            transformed_slice: vec!["v1".into(), "v3".into()],
        };
        let text = w.to_string();
        assert!(text.contains("C[4]"));
        assert!(text.contains("17"));
        assert!(text.contains("21"));
        assert!(text.contains("v3"));
    }
}
