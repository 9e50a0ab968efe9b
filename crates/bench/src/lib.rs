//! # arrayeq-bench
//!
//! Workload construction shared by the Criterion benches that time the
//! paper's evaluation (experiments E1–E12): `cargo bench -p arrayeq-bench`
//! runs one bench target per experiment.  E9, the tabling ablation, went
//! with the switch it measured (sub-proofs are always cached); its A/B
//! result is kept in `BENCH_PR1.json`.
//!
//! The heavy lifting lives in the other crates; this one only assembles
//! (original, transformed) program pairs of controlled size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use arrayeq_core::{check, lower, CheckContext, CheckOptions, Report};
use arrayeq_lang::ast::Program;
use arrayeq_lang::corpus::{with_size, FIG1_A};
use arrayeq_lang::interp::{Inputs, Interpreter};
use arrayeq_lang::parser::parse_program;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::random_pipeline;

/// A ready-to-check pair of programs plus a description.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name used in bench/table rows.
    pub name: String,
    /// The original program.
    pub original: Program,
    /// The transformed program (equivalent by construction unless noted).
    pub transformed: Program,
}

impl Workload {
    /// A workload of two programs given as source text.
    ///
    /// # Panics
    ///
    /// Panics if either source fails to parse.
    pub fn from_source(name: &str, original: &str, transformed: &str) -> Workload {
        Workload {
            name: name.to_owned(),
            original: parse_program(original).expect("original parses"),
            transformed: parse_program(transformed).expect("transformed parses"),
        }
    }

    /// Runs the checker on the pair with the given options: both programs
    /// through [`lower`], then one [`check`].
    ///
    /// # Panics
    ///
    /// Panics if the verification pipeline itself fails (the pairs produced
    /// by this crate are all in the supported class).
    pub fn check(&self, opts: &CheckOptions) -> Report {
        let run = || {
            let (a, b) = (
                lower(&self.original, opts)?,
                lower(&self.transformed, opts)?,
            );
            check(&a, &b, opts, &CheckContext::default())
        };
        run().unwrap_or_else(|e| panic!("workload {}: {e}", self.name))
    }
}

/// The Fig. 1 pairs of the paper at its native size (N = 1024).
pub fn fig1_pairs() -> Vec<Workload> {
    use arrayeq_lang::corpus::*;
    vec![
        Workload::from_source("a-vs-b", FIG1_A, FIG1_B),
        Workload::from_source("a-vs-c", FIG1_A, FIG1_C),
        Workload::from_source("b-vs-c", FIG1_B, FIG1_C),
        Workload::from_source("a-vs-d", FIG1_A, FIG1_D),
    ]
}

/// A Fig. 1(a)-shaped workload with the loop bound set to `n`, transformed by
/// a deterministic random pipeline (experiment E6).
pub fn fig1a_pipeline_at_size(n: i64, steps: usize, seed: u64) -> Workload {
    let original = parse_program(&with_size(FIG1_A, n)).expect("fig1(a) parses");
    let (transformed, _) = random_pipeline(&original, steps, seed);
    Workload {
        name: format!("fig1a-N{n}"),
        original,
        transformed,
    }
}

/// A generated kernel with `layers` statements, transformed by a random
/// pipeline (experiments E5, E7).
pub fn generated_pair(layers: usize, n: i64, seed: u64) -> Workload {
    let cfg = GeneratorConfig {
        n,
        layers,
        seed,
        ..Default::default()
    };
    let original = generate_kernel(&cfg);
    let (transformed, _) = random_pipeline(&original, 2 * layers, seed + 1);
    Workload {
        name: format!("gen-L{layers}-N{n}"),
        original,
        transformed,
    }
}

/// The realistic-kernel suite (experiment E8): every corpus kernel paired
/// with a random transformation pipeline of itself.
pub fn kernel_suite(seed: u64) -> Vec<Workload> {
    arrayeq_lang::corpus::KERNELS
        .iter()
        .map(|(name, src)| {
            let original = parse_program(src).expect("kernel parses");
            let (transformed, _) = random_pipeline(&original, 6, seed);
            Workload {
                name: (*name).to_owned(),
                original,
                transformed,
            }
        })
        .collect()
}

/// Simulation baseline: executes both programs of a Fig.-1-shaped pair on
/// one input vector and compares outputs.  Returns whether they agreed.
pub fn simulate_fig1_pair(original: &Program, transformed: &Program, n: i64) -> bool {
    let a: Vec<i64> = (0..2 * n + 4).map(|i| 3 * i + 1).collect();
    let b: Vec<i64> = (0..2 * n + 4).map(|i| 7 * i - 5).collect();
    let inputs = Inputs::new()
        .array("A", a)
        .array("B", b)
        .output("C", n as usize);
    let o1 = Interpreter::new(original)
        .run_for_output(&inputs, "C")
        .expect("original runs");
    let o2 = Interpreter::new(transformed)
        .run_for_output(&inputs, "C")
        .expect("transformed runs");
    o1 == o2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_equivalent_by_construction() {
        let w = generated_pair(3, 64, 5);
        assert!(w.check(&CheckOptions::default()).is_equivalent());
        let w = fig1a_pipeline_at_size(64, 4, 2);
        assert!(w.check(&CheckOptions::default()).is_equivalent());
    }

    #[test]
    fn kernel_suite_covers_every_corpus_kernel() {
        let suite = kernel_suite(1);
        assert_eq!(suite.len(), arrayeq_lang::corpus::KERNELS.len());
    }

    #[test]
    fn simulation_agrees_for_equivalent_pairs() {
        let w = fig1a_pipeline_at_size(64, 4, 2);
        assert!(simulate_fig1_pair(&w.original, &w.transformed, 64));
    }
}
