//! Seeded workload inputs.
//!
//! Every pair is generated from the workload seed with the repository's own
//! generators (`arrayeq_transform`) and handed to the program under test as
//! source text only.  Each pair carries its known answer, which never comes
//! from the checker: a semantics-preserving pipeline or edit is equivalent by
//! construction, and a fault is inequivalent because the reference
//! interpreter shows different outputs.

use crate::stats::Rng;
use arrayeq_lang::ast::Program;
use arrayeq_lang::corpus::{ALGEBRAIC_PAIRS, FIG1_A, FIG1_B, FIG1_C, FIG1_D, KERNELS};
use arrayeq_lang::interp::{standard_inputs, Interpreter};
use arrayeq_lang::parser::parse_program;
use arrayeq_lang::pretty::program_to_string;
use arrayeq_transform::algebraic::commute_statement;
use arrayeq_transform::generator::{generate_kernel, GeneratorConfig};
use arrayeq_transform::mutate::{curated_mutants, fault_corpus};
use arrayeq_transform::random_pipeline;

/// The answer a pair must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Equivalent by construction.
    Equivalent,
    /// Inequivalent by interpreter simulation.
    NotEquivalent,
}

/// One (original, transformed) request and its known answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// Where the pair comes from, e.g. `gen-L33-s123`.
    pub name: String,
    /// Original program source.
    pub original: String,
    /// Transformed program source.
    pub transformed: String,
    /// The known answer.
    pub expected: Expected,
    /// Statement-count class on `deep` (`L9` … `L65`).
    pub class: Option<&'static str>,
    /// Whether the request asks for replay-confirmed witnesses.
    pub witnesses: bool,
    /// The base kernel (and baseline) an `edit` request belongs to.
    pub base: usize,
}

impl Pair {
    fn new(name: String, original: &Program, transformed: &Program, expected: Expected) -> Pair {
        Pair {
            name,
            original: program_to_string(original),
            transformed: program_to_string(transformed),
            expected,
            class: None,
            witnesses: expected == Expected::NotEquivalent,
            base: 0,
        }
    }
}

/// A base kernel of the `edit` workload: the pair the baseline is produced
/// on.  Requests re-check `original` against an edited `transformed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Base {
    /// Original program source.
    pub original: String,
    /// Transformed program source, before the edit.
    pub transformed: String,
}

/// Everything a workload sends, generated from its seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Distinct pairs.
    pub pairs: Vec<Pair>,
    /// One request sequence (indices into `pairs`) per client.  A client
    /// that runs past the end of its sequence starts it again.
    pub sequences: Vec<Vec<usize>>,
    /// Base kernels (`edit` only).
    pub bases: Vec<Base>,
}

impl Inputs {
    /// All generated sources, in order: what "byte-identical for a seed"
    /// refers to.
    pub fn manifest(&self) -> String {
        let mut out = String::new();
        for b in &self.bases {
            out.push_str(&format!("== base\n{}\n{}\n", b.original, b.transformed));
        }
        for p in &self.pairs {
            out.push_str(&format!(
                "== {} {:?} {:?}\n{}\n{}\n",
                p.name, p.expected, p.class, p.original, p.transformed
            ));
        }
        for (c, s) in self.sequences.iter().enumerate() {
            out.push_str(&format!("== sequence {c}: {s:?}\n"));
        }
        out
    }
}

/// Statement counts of the `deep` classes; pairs are drawn in equal shares.
pub const DEEP_CLASSES: [(usize, &str); 5] = [
    (9, "L9"),
    (17, "L17"),
    (33, "L33"),
    (49, "L49"),
    (65, "L65"),
];

/// Pipeline seed of every `deep` pair: the one the ROADMAP scaling suite
/// (`generated_pair(L, 256, 11)`) transforms its kernels with.
pub const DEEP_RECIPE: u64 = 12;

/// `deep`: cycles of one pair per class, each cycle in a seeded order.  A
/// pair is a seeded `generate_kernel(L, N = 256)` kernel transformed by the
/// fixed [`DEEP_RECIPE`] pipeline of `2 L` steps.  The recipe is fixed
/// because the pipeline draw, not the kernel, is what makes check times
/// differ between pairs of one class (a coefficient of variation of about
/// 0.3 against 0.1 at L33), and that spread would swamp a run's medians.
pub fn deep(seed: u64, cycles: usize) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    let mut specs = Vec::new();
    for _ in 0..cycles {
        let mut order: Vec<usize> = (0..DEEP_CLASSES.len()).collect();
        rng.shuffle(&mut order);
        specs.extend(order.into_iter().map(|k| (DEEP_CLASSES[k], rng.seed())));
    }
    let pairs = par_map(&specs, |&((layers, class), s)| {
        let original = generate_kernel(&GeneratorConfig {
            n: 256,
            layers,
            seed: s,
            ..Default::default()
        });
        let (transformed, _) = random_pipeline(&original, 2 * layers, DEEP_RECIPE);
        let mut pair = Pair::new(
            format!("gen-{class}-s{s}"),
            &original,
            &transformed,
            Expected::Equivalent,
        );
        pair.class = Some(class);
        pair
    });
    let sequences = vec![(0..pairs.len()).collect()];
    Inputs {
        pairs,
        sequences,
        bases: Vec::new(),
    }
}

/// `f` over `items` on two threads (the generators are the bulk of set-up
/// time); the output keeps the order of `items`, so it does not depend on
/// scheduling.
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let mid = items.len() / 2;
    let (a, b) = items.split_at(mid);
    std::thread::scope(|scope| {
        let first = scope.spawn(|| a.iter().map(&f).collect::<Vec<U>>());
        let mut second: Vec<U> = b.iter().map(&f).collect();
        let mut out = first.join().expect("generator thread panicked");
        out.append(&mut second);
        out
    })
}

/// A wide kernel (`outputs` chains of `layers` statements over a shared
/// base layer, seeded by `s`) and its transformation by the `steps`-long
/// pipeline `recipe`; `steps == 0` means "as many steps as the kernel has
/// statements".
fn wide_kernel(
    layers: usize,
    outputs: usize,
    distinct_chains: usize,
    steps: usize,
    n: i64,
    (s, recipe): (u64, u64),
) -> (Program, Program) {
    let original = generate_kernel(&GeneratorConfig {
        n,
        layers,
        outputs,
        distinct_chains,
        inputs: 3,
        seed: s,
        ..Default::default()
    });
    let steps = if steps == 0 {
        original.statements().count()
    } else {
        steps
    };
    let (transformed, _) = random_pipeline(&original, steps, recipe);
    (original, transformed)
}

/// Pipeline seed of every `wide` pair (as [`DEEP_RECIPE`], and for the same
/// reason).
pub const WIDE_RECIPE: u64 = 8;

/// `wide`: `rounds` rounds over a fixed grid of shapes — 16, 20, 24, 28 and
/// 32 outputs, each once with repeated chains (2–4 distinct ones, short
/// pipelines: tabling and arena hits) and once with all-distinct chains
/// (pipelines as long as the statement count: heavy normalization).  The
/// kernels are seeded; the shapes and the pipeline recipe are fixed, so
/// every run sees the same mix of sizes.
pub fn wide(seed: u64, rounds: usize) -> Inputs {
    let mut rng = Rng::new(seed, 2);
    let mut specs: Vec<(usize, usize, usize, u64)> = Vec::new();
    for round in 0..rounds {
        for outputs in [16, 20, 24, 28, 32] {
            specs.push((outputs, 2 + (round + outputs) % 3, 4, rng.seed()));
            specs.push((outputs, 0, 0, rng.seed()));
        }
    }
    rng.shuffle(&mut specs);
    let pairs = par_map(&specs, |&(outputs, distinct, steps, s)| {
        let (original, transformed) =
            wide_kernel(3, outputs, distinct, steps, 192, (s, WIDE_RECIPE));
        Pair::new(
            format!("wide-O{outputs}-D{distinct}-s{s}"),
            &original,
            &transformed,
            Expected::Equivalent,
        )
    });
    let sequences = vec![(0..pairs.len()).collect()];
    Inputs {
        pairs,
        sequences,
        bases: Vec::new(),
    }
}

/// Whether the reference interpreter shows `a` and `b` computing different
/// outputs on the standard input fills.  Runs that fail count as "no".
fn observably_different(a: &Program, b: &Program) -> bool {
    let mut differ = false;
    for fill in [1, 2] {
        let inputs = standard_inputs(a, fill);
        let (Ok((ma, _)), Ok((mb, _))) = (
            Interpreter::new(a).run(&inputs),
            Interpreter::new(b).run(&inputs),
        ) else {
            return false;
        };
        for out in a.output_arrays() {
            match (ma.array(&out), mb.array(&out)) {
                (Some(x), Some(y)) => differ |= x != y,
                _ => return false,
            }
        }
    }
    differ
}

/// `edit`: `bases` all-distinct wide kernels; each request re-checks a base's
/// original against its transformed program with one statement edited.  Most
/// edits commute one statement (equivalent by construction); a `fault_share`
/// of the requests is a `curated_mutants` fault of the transformed program,
/// checked with witnesses.  Simulation shows each fault's outputs differ from
/// the transformed program's, which the pipeline keeps equal to the
/// original's.  The kernels use a small loop bound, which keeps that
/// simulation filter cheap and leaves the checker's work unchanged.
pub fn edit(seed: u64, bases: usize, requests: usize, fault_share: f64) -> Inputs {
    let mut rng = Rng::new(seed, 3);
    let base_seeds: Vec<u64> = (0..bases).map(|_| rng.seed()).collect();
    let built = par_map(&base_seeds, |&s| {
        let (original, transformed) = wide_kernel(4, 24, 0, 0, 32, (s, WIDE_RECIPE));
        let labels: Vec<String> = transformed.statements().map(|a| a.label.clone()).collect();
        let commutes: Vec<(String, Program)> = labels
            .iter()
            .filter_map(|label| {
                let (edited, swaps) = commute_statement(&transformed, label);
                (swaps > 0).then(|| (format!("commute-{label}"), edited))
            })
            .collect();
        let mut pick = Rng::new(s, 5);
        let mut faults = curated_mutants("fault", &transformed);
        pick.shuffle(&mut faults);
        faults.truncate(8);
        (original, transformed, commutes, faults)
    });
    let mut out = Inputs {
        pairs: Vec::new(),
        sequences: vec![Vec::new()],
        bases: Vec::new(),
    };
    // Per base: indices of its commute edits and of its faults in `pairs`.
    let mut by_base: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    for (b, (original, transformed, commutes, faults)) in built.into_iter().enumerate() {
        let mut add = |name: String, edited: &Program, expected| {
            let mut pair = Pair::new(format!("base{b}-{name}"), &original, edited, expected);
            pair.base = b;
            out.pairs.push(pair);
            out.pairs.len() - 1
        };
        let commutes: Vec<usize> = commutes
            .into_iter()
            .map(|(name, edited)| add(name, &edited, Expected::Equivalent))
            .collect();
        let faults: Vec<usize> = faults
            .into_iter()
            .map(|case| add(case.name, &case.mutant, Expected::NotEquivalent))
            .collect();
        out.bases.push(Base {
            original: program_to_string(&original),
            transformed: program_to_string(&transformed),
        });
        by_base.push((commutes, faults));
    }
    for _ in 0..requests {
        let (commutes, faults) = &by_base[rng.below(bases)];
        let pool = if !faults.is_empty() && rng.unit() < fault_share {
            faults
        } else {
            commutes
        };
        out.sequences[0].push(pool[rng.below(pool.len())]);
    }
    out
}

/// `service`: a hot set (corpus kernels under a fixed pipeline, the algebraic
/// corpus, Fig. 1 (a)–(c)), a pool of fresh seeded pipelines over the corpus
/// kernels, and the witness set (Fig. 1 a-vs-d and the fault corpus).  Each
/// of `clients` sequences draws half hot repeats, a third fresh pipelines
/// and the rest witness requests.
pub fn service(seed: u64, fresh: usize, clients: usize, requests: usize) -> Inputs {
    let mut rng = Rng::new(seed, 4);
    let parse = |src: &str| parse_program(src).expect("corpus programs parse");
    let kernels: Vec<(&str, Program)> = KERNELS.iter().map(|(n, s)| (*n, parse(s))).collect();
    let mut pairs = Vec::new();

    for (name, k) in &kernels {
        let (t, _) = random_pipeline(k, 6, WIDE_RECIPE);
        pairs.push(Pair::new(
            format!("hot-{name}"),
            k,
            &t,
            Expected::Equivalent,
        ));
    }
    for (name, a, b) in ALGEBRAIC_PAIRS {
        pairs.push(Pair::new(
            format!("hot-{name}"),
            &parse(a),
            &parse(b),
            Expected::Equivalent,
        ));
    }
    let fig1_a = parse(FIG1_A);
    for (name, other) in [("a-vs-b", FIG1_B), ("a-vs-c", FIG1_C)] {
        pairs.push(Pair::new(
            format!("hot-fig1-{name}"),
            &fig1_a,
            &parse(other),
            Expected::Equivalent,
        ));
    }
    pairs.push(Pair::new(
        "hot-fig1-b-vs-c".into(),
        &parse(FIG1_B),
        &parse(FIG1_C),
        Expected::Equivalent,
    ));
    let hot = 0..pairs.len();

    let fresh_start = pairs.len();
    let specs: Vec<(usize, u64)> = (0..fresh)
        .map(|_| (rng.below(kernels.len()), rng.seed()))
        .collect();
    pairs.extend(par_map(&specs, |&(k, s)| {
        let (name, kernel) = &kernels[k];
        let (t, _) = random_pipeline(kernel, 6, s);
        Pair::new(
            format!("fresh-{name}-s{s}"),
            kernel,
            &t,
            Expected::Equivalent,
        )
    }));

    let witness_start = pairs.len();
    let fig1_d = parse(FIG1_D);
    assert!(
        observably_different(&fig1_a, &fig1_d),
        "Fig. 1 (d) must differ from (a) under simulation"
    );
    pairs.push(Pair::new(
        "fig1-a-vs-d".into(),
        &fig1_a,
        &fig1_d,
        Expected::NotEquivalent,
    ));
    for case in fault_corpus() {
        pairs.push(Pair::new(
            format!("fault-{}", case.name),
            &case.original,
            &case.mutant,
            Expected::NotEquivalent,
        ));
    }
    let witness = witness_start..pairs.len();

    let mut sequences = vec![Vec::with_capacity(requests); clients];
    let mut next_fresh = fresh_start;
    for _ in 0..requests {
        for seq in sequences.iter_mut() {
            let u = rng.unit();
            let i = if u < 0.5 {
                hot.start + rng.below(hot.len())
            } else if u < 0.5 + 1.0 / 3.0 && fresh > 0 {
                let i = next_fresh;
                next_fresh = if next_fresh + 1 == witness_start {
                    fresh_start
                } else {
                    next_fresh + 1
                };
                i
            } else {
                witness.start + rng.below(witness.len())
            };
            seq.push(i);
        }
    }
    Inputs {
        pairs,
        sequences,
        bases: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        assert_eq!(deep(5, 1).manifest(), deep(5, 1).manifest());
        assert_ne!(deep(5, 1).manifest(), deep(6, 1).manifest());
        assert_eq!(wide(5, 2).manifest(), wide(5, 2).manifest());
        assert_ne!(wide(5, 2).manifest(), wide(6, 2).manifest());
        let e = edit(5, 1, 20, 0.25);
        assert_eq!(e.manifest(), edit(5, 1, 20, 0.25).manifest());
        assert!(e
            .pairs
            .iter()
            .any(|p| p.expected == Expected::NotEquivalent));
        assert_eq!(
            service(5, 8, 2, 30).manifest(),
            service(5, 8, 2, 30).manifest()
        );
        assert_ne!(
            service(5, 8, 2, 30).manifest(),
            service(6, 8, 2, 30).manifest()
        );
    }

    #[test]
    fn generated_sources_parse_back() {
        let inputs = deep(3, 1);
        assert_eq!(inputs.pairs.len(), DEEP_CLASSES.len());
        for p in &inputs.pairs {
            parse_program(&p.original).expect("original parses");
            parse_program(&p.transformed).expect("transformed parses");
        }
    }
}
