//! Random transformation pipelines: chains of correct-by-construction
//! transformations used to produce (original, transformed) pairs for the
//! benchmarks, replacing the manual design effort of the paper's authors.

use crate::algebraic::{commute_statement, reassociate_statement};
use crate::dataflow::propagate_array;
use crate::loops::{fission_loop, fuse_loops, reverse_loop, split_loop, top_level_loops};
use arrayeq_lang::ast::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of a transformation pipeline (recorded for reproducibility).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformStep {
    /// Loop reversal of the i-th top-level loop.
    ReverseLoop(usize),
    /// Loop fission of the i-th top-level loop.
    FissionLoop(usize),
    /// Fusion of the i-th and (i+1)-th top-level loops.
    FuseLoops(usize),
    /// Bound split of the i-th top-level loop at the given point.
    SplitLoop(usize, i64),
    /// Commutation of the operands in the statement with this label.
    Commute(String),
    /// Re-association of the operator chain in the statement with this label.
    Reassociate(String),
    /// Forward propagation (inlining) of the named intermediate array.
    Propagate(String),
}

/// Applies a pseudo-random sequence of up to `steps` legality-checked
/// transformations to `program`.  Steps that do not apply at the chosen
/// location are skipped, so the returned list may be shorter than `steps`.
/// The result is equivalent to the input by construction.
pub fn random_pipeline(
    program: &Program,
    steps: usize,
    seed: u64,
) -> (Program, Vec<TransformStep>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = program.clone();
    let mut applied = Vec::new();
    for _ in 0..steps {
        let loops = top_level_loops(&current);
        let labels: Vec<String> = current.statements().map(|a| a.label.clone()).collect();
        let intermediates = current.intermediate_arrays();
        let choice = rng.gen_range(0..7);
        let attempt: Option<(Program, TransformStep)> = match choice {
            0 if !loops.is_empty() => {
                let i = loops[rng.gen_range(0..loops.len())];
                reverse_loop(&current, i)
                    .ok()
                    .map(|p| (p, TransformStep::ReverseLoop(i)))
            }
            1 if !loops.is_empty() => {
                let i = loops[rng.gen_range(0..loops.len())];
                fission_loop(&current, i)
                    .ok()
                    .map(|p| (p, TransformStep::FissionLoop(i)))
            }
            2 if loops.len() >= 2 => {
                let pos = rng.gen_range(0..loops.len() - 1);
                let i = loops[pos];
                (loops[pos + 1] == i + 1)
                    .then(|| fuse_loops(&current, i).ok())
                    .flatten()
                    .map(|p| (p, TransformStep::FuseLoops(i)))
            }
            3 if !loops.is_empty() => {
                let i = loops[rng.gen_range(0..loops.len())];
                let n = current.define("N").unwrap_or(16);
                let mid = rng.gen_range(1..n.max(2));
                split_loop(&current, i, mid)
                    .ok()
                    .map(|p| (p, TransformStep::SplitLoop(i, mid)))
            }
            4 if !labels.is_empty() => {
                let l = labels[rng.gen_range(0..labels.len())].clone();
                let (p, n) = commute_statement(&current, &l);
                (n > 0).then_some((p, TransformStep::Commute(l)))
            }
            5 if !labels.is_empty() => {
                let l = labels[rng.gen_range(0..labels.len())].clone();
                let (p, n) = reassociate_statement(&current, &l);
                (n > 0).then_some((p, TransformStep::Reassociate(l)))
            }
            6 if !intermediates.is_empty() => {
                let a = intermediates[rng.gen_range(0..intermediates.len())].clone();
                propagate_array(&current, &a)
                    .ok()
                    .map(|p| (p, TransformStep::Propagate(a)))
            }
            _ => None,
        };
        if let Some((p, step)) = attempt {
            // Keep only transformations that preserve the class and def-use
            // validity (e.g. fusing a consumer before its producer would not).
            if arrayeq_lang::passes_checks(&p) {
                current = p;
                applied.push(step);
            }
        }
    }
    (current, applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_kernel, inputs_for, GeneratorConfig};
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::corpus::{with_size, FIG1_A};
    use arrayeq_lang::interp::Interpreter;
    use arrayeq_lang::parser::parse_program;

    #[test]
    fn random_pipelines_preserve_equivalence_on_fig1a() {
        let p = parse_program(&with_size(FIG1_A, 32)).unwrap();
        for seed in 0..4 {
            let (t, steps) = random_pipeline(&p, 6, seed);
            let r = check_programs(&p, &t, &CheckOptions::default()).unwrap();
            assert!(
                r.is_equivalent(),
                "seed {seed}, steps {steps:?}:\n{}",
                r.summary()
            );
        }
    }

    #[test]
    fn random_pipelines_preserve_equivalence_on_generated_kernels() {
        let cfg = GeneratorConfig {
            n: 32,
            layers: 3,
            seed: 7,
            ..Default::default()
        };
        let p = generate_kernel(&cfg);
        let (t, steps) = random_pipeline(&p, 8, 3);
        assert!(!steps.is_empty(), "at least one step should apply");
        let r = check_programs(&p, &t, &CheckOptions::default()).unwrap();
        assert!(r.is_equivalent(), "steps {steps:?}:\n{}", r.summary());
        // Cross-validate with the simulation oracle.
        let inputs = inputs_for(&cfg);
        let o1 = Interpreter::new(&p).run_for_output(&inputs, "OUT").unwrap();
        let o2 = Interpreter::new(&t).run_for_output(&inputs, "OUT").unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn pipelines_are_deterministic_in_the_seed() {
        let p = parse_program(&with_size(FIG1_A, 16)).unwrap();
        let (t1, s1) = random_pipeline(&p, 5, 42);
        let (t2, s2) = random_pipeline(&p, 5, 42);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }
}
