//! Synthetic kernel generation for the scaling experiments of Section 6.2.
//!
//! The paper evaluates on in-house multimedia kernels whose "control
//! complexity and ADDG sizes were comparable to real-life application
//! kernels".  Those sources are not available, so this module generates
//! programs with the same *shape*: layered producer/consumer loop nests over
//! intermediate arrays, with affine (possibly strided or reversed) accesses,
//! ending in one output array.  Both the number of statements (ADDG size) and
//! the loop bound `N` are parameters, which is exactly what experiments
//! E5–E9 sweep.

use arrayeq_lang::ast::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a generated kernel.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Loop bound of every loop (`#define N`).
    pub n: i64,
    /// Number of intermediate "layers" (each layer adds one loop + one
    /// statement between the inputs and the output).
    pub layers: usize,
    /// Number of input arrays.
    pub inputs: usize,
    /// Operands per statement (the length of the addition chain).
    pub fanin: usize,
    /// Number of output arrays.  `1` (the default) produces the classic
    /// single-`OUT` chain; larger values produce a *wide* kernel — a shared
    /// base layer feeding one independent `layers`-deep chain per output
    /// `OUT0..OUTm` — the workload shape the intra-query parallel checker
    /// shards across its worker pool.
    pub outputs: usize,
    /// For wide kernels (`outputs > 1`): the number of structurally
    /// *distinct* chains.  `0` (the default) makes every chain unique;
    /// `d > 0` repeats the same chain structure every `d` outputs through
    /// freshly-named temporaries — the multi-channel idiom (one filter
    /// applied per channel) whose repeated sub-proofs the rename-invariant
    /// tabling keys collapse to a single entry.
    pub distinct_chains: usize,
    /// Enrich right-hand sides with algebraic structure: factored products
    /// (`g·(x + y)`), subtractions, constant coefficients and identity
    /// operands (`+ 0`, `* 1`).  The workload shape of the normalization
    /// scenarios — pairs produced by `transform::algebraic`'s distribution /
    /// subtraction-shuffle / identity-noise rewrites of these kernels need
    /// the extended method's operator algebra to verify.
    pub algebra: bool,
    /// Seed for the deterministic pseudo-random choices.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            n: 256,
            layers: 4,
            inputs: 2,
            fanin: 3,
            outputs: 1,
            distinct_chains: 0,
            algebra: false,
            seed: 1,
        }
    }
}

/// Generates a kernel in the restricted class according to `config`.
///
/// Layer 0 reads the input arrays (with stride-2 and shifted affine
/// accesses); every later layer reads the previous layer's array with
/// identity/reversed accesses; the final statement writes the output `OUT`.
/// The result is guaranteed to be in the program class and to pass the
/// def-use check.
pub fn generate_kernel(config: &GeneratorConfig) -> Program {
    if config.outputs > 1 {
        return generate_wide_kernel(config);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n;
    let mut b = ProgramBuilder::new("generated").define("N", n);
    for i in 0..config.inputs {
        b = b.param(format!("IN{i}"));
    }
    b = b.param("OUT");
    b = b.decl("k", vec![]);

    let mut body = Vec::new();
    let mut prev_arrays: Vec<String> = (0..config.inputs).map(|i| format!("IN{i}")).collect();

    let input_names: Vec<String> = (0..config.inputs).map(|i| format!("IN{i}")).collect();
    for layer in 0..config.layers {
        let array = format!("t{layer}");
        b = b.decl(&array, vec![Expr::var("N")]);
        // The first operand chains to the previous layer (keeping the number
        // of output-to-input paths *linear* in the number of statements, as
        // in producer/consumer signal-processing chains); the remaining
        // operands read fresh input data.
        let chain = random_sum(&mut rng, &prev_arrays, layer == 0, 1, n);
        let rest = if config.algebra {
            random_algebraic_sum(
                &mut rng,
                &input_names,
                config.fanin.saturating_sub(1).max(1),
                n,
            )
        } else {
            random_sum(
                &mut rng,
                &input_names,
                true,
                config.fanin.saturating_sub(1).max(1),
                n,
            )
        };
        let rhs = Expr::add(chain, rest);
        body.push(simple_for(
            "k",
            0,
            n,
            1,
            vec![assign1(&format!("s{layer}"), &array, Expr::var("k"), rhs)],
        ));
        prev_arrays = vec![array];
    }

    // Final statement: OUT[k] = last layer (+ one input for good measure).
    let last = prev_arrays[0].clone();
    let final_rhs = Expr::add(
        Expr::access1(&last, Expr::var("k")),
        Expr::access1("IN0", Expr::var("k")),
    );
    body.push(simple_for(
        "k",
        0,
        n,
        1,
        vec![assign1("sout", "OUT", Expr::var("k"), final_rhs)],
    ));

    for s in body {
        b = b.stmt(s);
    }
    b.build()
}

/// The multi-output variant of [`generate_kernel`] (`outputs > 1`): one
/// shared base layer `t0` over the inputs, then per output `OUTj` an
/// independent chain of `layers - 1` intermediate arrays rooted at `t0`.
///
/// The chains are what an intra-query parallel checker shards across
/// workers; the shared base layer gives the workers structurally identical
/// sub-obligations whose proofs flow between them through the
/// (rename-invariant) proof cache.
fn generate_wide_kernel(config: &GeneratorConfig) -> Program {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.n;
    let inputs = config.inputs.max(1);
    let mut b = ProgramBuilder::new("generated_wide").define("N", n);
    for i in 0..inputs {
        b = b.param(format!("IN{i}"));
    }
    for j in 0..config.outputs {
        b = b.param(format!("OUT{j}"));
    }
    b = b.decl("k", vec![]);

    let input_names: Vec<String> = (0..inputs).map(|i| format!("IN{i}")).collect();
    let mut body = Vec::new();

    // Shared base layer read by every chain.
    b = b.decl("t0", vec![Expr::var("N")]);
    let base_rhs = random_sum(&mut rng, &input_names, true, config.fanin.max(1), n);
    body.push(simple_for(
        "k",
        0,
        n,
        1,
        vec![assign1("b0", "t0", Expr::var("k"), base_rhs)],
    ));

    for j in 0..config.outputs {
        // Chains of the same class make identical structural choices (their
        // own rng seeded by the class), so with `distinct_chains = d` every
        // d-th output repeats the same computation through fresh
        // temporaries — the repeated-idiom workload for rename-invariant
        // tabling.  `d = 0` keeps every chain unique.
        let class = if config.distinct_chains > 0 {
            j % config.distinct_chains
        } else {
            j
        };
        let mut chain_rng = StdRng::seed_from_u64(config.seed ^ (0x9e37 + class as u64 * 0x85eb));
        let mut prev = "t0".to_owned();
        for layer in 1..config.layers.max(1) {
            let array = format!("t{j}x{layer}");
            b = b.decl(&array, vec![Expr::var("N")]);
            let chain = random_sum(&mut chain_rng, std::slice::from_ref(&prev), false, 1, n);
            let rest = random_sum(
                &mut chain_rng,
                &input_names,
                true,
                config.fanin.saturating_sub(1).max(1),
                n,
            );
            body.push(simple_for(
                "k",
                0,
                n,
                1,
                vec![assign1(
                    &format!("s{j}x{layer}"),
                    &array,
                    Expr::var("k"),
                    Expr::add(chain, rest),
                )],
            ));
            prev = array;
        }
        // The final statement is per-output (it mixes in a rotating input),
        // so even outputs of the same chain class have distinct root
        // obligations — the repeated work sits one reduction below, where
        // the rename-invariant tabling keys pick it up.
        let final_rhs = Expr::add(
            Expr::access1(&prev, Expr::var("k")),
            Expr::access1(format!("IN{}", j % inputs), Expr::var("k")),
        );
        body.push(simple_for(
            "k",
            0,
            n,
            1,
            vec![assign1(
                &format!("o{j}"),
                &format!("OUT{j}"),
                Expr::var("k"),
                final_rhs,
            )],
        ));
    }

    for s in body {
        b = b.stmt(s);
    }
    b.build()
}

/// Builds a `fanin`-term addition chain over the given source arrays.
fn random_sum(
    rng: &mut StdRng,
    sources: &[String],
    sources_are_inputs: bool,
    fanin: usize,
    n: i64,
) -> Expr {
    let mut terms = Vec::new();
    for _t in 0..fanin.max(1) {
        let src = &sources[rng.gen_range(0..sources.len())];
        let idx = if sources_are_inputs {
            // Inputs may be read with strides and shifts (the driver sizes
            // them at 2N + 4 elements).
            match rng.gen_range(0..3) {
                0 => Expr::var("k"),
                1 => Expr::mul(Expr::Const(2), Expr::var("k")),
                _ => Expr::add(Expr::var("k"), Expr::Const(rng.gen_range(0..4))),
            }
        } else {
            // Intermediate layers are read with in-range permutations only.
            match rng.gen_range(0..2) {
                0 => Expr::var("k"),
                _ => Expr::sub(Expr::Const(n - 1), Expr::var("k")), // N-1-k
            }
        };
        let term = Expr::access1(src, idx);
        terms.push(term);
    }
    let mut expr = terms.remove(0);
    for t in terms {
        expr = Expr::add(expr, t);
    }
    expr
}

/// An algebra-rich `fanin`-term chain over input arrays: beyond plain
/// reads it mixes in subtracted terms, constant-scaled reads (`2·x`),
/// factored products (`x·(y + z)`, which `distribute_statement` expands),
/// identity operands (`x·1`) and plain constants — the raw material of the
/// normalization scenarios.  Terms join with `+`/`-` so inverse folding is
/// always exercised.
fn random_algebraic_sum(rng: &mut StdRng, sources: &[String], fanin: usize, n: i64) -> Expr {
    let read = |rng: &mut StdRng| -> Expr {
        let src = &sources[rng.gen_range(0..sources.len())];
        let idx = match rng.gen_range(0..3) {
            0 => Expr::var("k"),
            1 => Expr::mul(Expr::Const(2), Expr::var("k")),
            _ => Expr::add(Expr::var("k"), Expr::Const(rng.gen_range(0..4))),
        };
        Expr::access1(src, idx)
    };
    let _ = n;
    let mut terms = Vec::new();
    for _t in 0..fanin.max(1) {
        let term = match rng.gen_range(0..6) {
            0 => read(rng),
            1 => Expr::mul(Expr::Const(rng.gen_range(2..5)), read(rng)),
            2 => Expr::mul(read(rng), Expr::add(read(rng), read(rng))),
            3 => Expr::mul(read(rng), Expr::Const(1)),
            4 => Expr::Const(rng.gen_range(0..7)),
            _ => read(rng),
        };
        let negate = rng.gen_range(0..3) == 0;
        terms.push((negate, term));
    }
    let (_, head) = terms[0].clone();
    let mut expr = if terms[0].0 {
        Expr::Neg(Box::new(head))
    } else {
        head
    };
    for (negate, t) in terms.into_iter().skip(1) {
        expr = if negate {
            Expr::sub(expr, t)
        } else {
            Expr::add(expr, t)
        };
    }
    expr
}

/// Input data sized for a generated kernel (all inputs `2N + 4` elements,
/// output `N`), for use with the interpreter oracle.
pub fn inputs_for(config: &GeneratorConfig) -> arrayeq_lang::interp::Inputs {
    let mut inputs = arrayeq_lang::interp::Inputs::new();
    for i in 0..config.inputs.max(1) {
        let data: Vec<i64> = (0..(2 * config.n + 4))
            .map(|v| v * 13 + i as i64 * 7 + 1)
            .collect();
        inputs = inputs.array(format!("IN{i}"), data);
    }
    if config.outputs > 1 {
        for j in 0..config.outputs {
            inputs = inputs.output(format!("OUT{j}"), config.n as usize);
        }
        inputs
    } else {
        inputs.output("OUT", config.n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_programs;
    use arrayeq_core::CheckOptions;
    use arrayeq_lang::classcheck::check_class;
    use arrayeq_lang::defuse::check_def_use;
    use arrayeq_lang::interp::Interpreter;

    #[test]
    fn generated_kernels_are_in_the_class_and_pass_def_use() {
        for seed in 0..5 {
            let cfg = GeneratorConfig {
                n: 32,
                layers: 3,
                seed,
                ..Default::default()
            };
            let p = generate_kernel(&cfg);
            assert!(check_class(&p).unwrap().is_ok(), "seed {seed}");
            assert!(check_def_use(&p).unwrap().is_ok(), "seed {seed}");
            // And they actually run.
            let out = Interpreter::new(&p)
                .run_for_output(&inputs_for(&cfg), "OUT")
                .unwrap();
            assert_eq!(out.len(), 32);
            assert!(out.iter().all(|&v| v != Interpreter::UNINIT));
        }
    }

    #[test]
    fn wide_kernels_are_in_class_and_run_per_output() {
        let cfg = GeneratorConfig {
            n: 16,
            layers: 3,
            outputs: 4,
            seed: 9,
            ..Default::default()
        };
        let p = generate_kernel(&cfg);
        assert!(check_class(&p).unwrap().is_ok());
        assert!(check_def_use(&p).unwrap().is_ok());
        assert_eq!(p.output_arrays().len(), 4);
        // shared base + per output (layers-1 chain + final) statements
        assert_eq!(p.statement_count(), 1 + 4 * 3);
        for j in 0..4 {
            let out = Interpreter::new(&p)
                .run_for_output(&inputs_for(&cfg), &format!("OUT{j}"))
                .unwrap();
            assert_eq!(out.len(), 16);
            assert!(out.iter().all(|&v| v != Interpreter::UNINIT));
        }
        // Equivalent to itself, sequentially and in parallel.
        let r = check_programs(&p, &p, &CheckOptions::default().with_jobs(4)).unwrap();
        assert!(r.is_equivalent(), "{}", r.summary());
    }

    #[test]
    fn generated_kernels_scale_with_the_layer_count() {
        let small = generate_kernel(&GeneratorConfig {
            layers: 2,
            ..Default::default()
        });
        let large = generate_kernel(&GeneratorConfig {
            layers: 8,
            ..Default::default()
        });
        assert_eq!(small.statement_count(), 3);
        assert_eq!(large.statement_count(), 9);
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = generate_kernel(&GeneratorConfig::default());
        let b = generate_kernel(&GeneratorConfig::default());
        assert_eq!(a, b);
        let c = generate_kernel(&GeneratorConfig {
            seed: 99,
            ..Default::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn generated_kernels_are_self_equivalent() {
        let p = generate_kernel(&GeneratorConfig {
            n: 64,
            layers: 3,
            ..Default::default()
        });
        let r = check_programs(&p, &p, &CheckOptions::default()).unwrap();
        assert!(r.is_equivalent());
    }
}
