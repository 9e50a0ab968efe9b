//! The `arrayeq` command-line interface.
//!
//! ```text
//! arrayeq verify <original.c> <transformed.c> [--method basic|extended]
//!                [--declare-op name=ac]... [--witnesses] [--json]
//!                [--dot out.dot] [--deadline-ms N] [--max-work N] [--jobs N]
//!                [--baseline prev.json] [--emit-baseline out.json]
//!                [--trace out [--trace-format json|chrome]] [--explain]
//!                [--metrics] [--store dir]
//! arrayeq serve (--socket path | --stdio) [--store dir] [ENGINE OPTIONS]
//! arrayeq client --socket path (verify a.c b.c | ping | stats |
//!                               checkpoint | shutdown)
//! arrayeq corpus --list
//! arrayeq corpus <name>
//! ```
//!
//! `verify` runs the full checker pipeline through a one-shot
//! [`arrayeq_engine::Verifier`] and reports through the exit code — the
//! contract scripts and CI lean on:
//!
//! | code | meaning                                   |
//! |------|-------------------------------------------|
//! | 0    | equivalent                                |
//! | 1    | not equivalent                            |
//! | 2    | inconclusive (budget exhausted)           |
//! | 3    | pipeline error (parse / class / def-use…) |
//! | 4    | usage error                               |
//!
//! `--json` prints the full outcome (verdict, typed budget reason, stats,
//! diagnostics, witnesses, session counters) as a single JSON document on
//! stdout; `--dot` writes a Graphviz rendering of the transformed program's
//! ADDG, with the witness's failing slice highlighted when one exists.
//!
//! `--emit-baseline` writes the run's proven sub-proofs, with those its
//! `--baseline` and `--store` carried in, as a baseline document; a later
//! `--baseline` run attaches it to the request
//! ([`VerifyRequest::with_baseline`]), diffs the pair against it and
//! re-checks only the dirty cone.  A stale or incompatible baseline is
//! rejected with a warning on stderr and the run degrades to a
//! from-scratch check — the verdict and exit code are always identical to
//! a run without `--baseline`.
//!
//! `--store` attaches a persistent on-disk proof store: proven sub-proofs
//! are loaded on startup and flushed after the run, so repeated one-shot
//! invocations over the same corpus get warmer and warmer.  A corrupt,
//! truncated or incompatible store degrades to a cold start with a warning
//! on stderr — the verdict and exit code never change.
//!
//! `serve` runs the long-lived verification daemon
//! ([`arrayeq_serve::Server`]): one shared engine, many concurrent client
//! sessions, line-JSON protocol over a Unix socket (or stdio for
//! supervisors that prefer pipes).  `client` is the matching one-shot
//! protocol client; `client verify` mirrors the one-shot `verify` exit-code
//! contract.
//!
//! `corpus` prints the built-in example programs (the paper's Fig. 1
//! variants, the kernel suite, and the fault-injection mutants as
//! `mutant:<index>` / `mutant-original:<index>`), so shell pipelines can
//! exercise the checker without authoring C files.

use arrayeq_core::Verdict;
use arrayeq_engine::{outcome_to_json, BaselineStatus, Verifier, VerifierBuilder, VerifyRequest};
use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C, FIG1_D, KERNELS};
use arrayeq_lang::pretty::program_to_string;
use std::io::Write;
use std::time::Duration;

const EXIT_EQUIVALENT: i32 = 0;
const EXIT_NOT_EQUIVALENT: i32 = 1;
const EXIT_INCONCLUSIVE: i32 = 2;
const EXIT_ERROR: i32 = 3;
const EXIT_USAGE: i32 = 4;

const USAGE: &str = "\
arrayeq — functional equivalence checker for array-intensive programs
         (Shashidhar et al., DATE 2005)

USAGE:
    arrayeq verify <original.c> <transformed.c> [OPTIONS]
    arrayeq serve (--socket <path> | --stdio) [OPTIONS]
    arrayeq client --socket <path> <verify <a.c> <b.c> | ping | stats |
                                    checkpoint | shutdown> [OPTIONS]
    arrayeq corpus --list
    arrayeq corpus <name>
    arrayeq help

VERIFY OPTIONS:
    --method basic|extended   checking method (default: extended)
    --declare-op <name=spec>  declare the algebraic class of an operator for
                              the extended method's normalisation; spec is a
                              combination of `a` (associative) and `c`
                              (commutative), e.g. `--declare-op min=ac
                              --declare-op f=a`.  `+` and `*` re-declare the
                              built-ins (ablations).  Repeatable.
    --param <NAME[>=MIN]>     promote the `#define NAME` constant in both
                              programs to a symbolic `#param NAME >= MIN`
                              (default MIN 1) so one check proves the pair
                              equivalent for every admissible size.
                              Verdict-relevant: part of the baseline options
                              fingerprint.  Repeatable.
    --witnesses               extract replay-confirmed counterexamples on
                              a NOT EQUIVALENT verdict
    --json                    print the full outcome as JSON on stdout
    --dot <out.dot>           write the transformed program's ADDG as
                              Graphviz, failing slice highlighted
    --deadline-ms <N>         wall-clock budget; overrun => INCONCLUSIVE
    --max-work <N>            traversal work budget (node-pair visits)
    --jobs <N>                worker threads for this one check (0 = all
                              cores); verdicts are identical at any setting
    --baseline <prev.json>    re-verify incrementally against a baseline
                              from an earlier --emit-baseline run: outputs
                              it already proves are skipped, the rest
                              re-checked with its sub-proofs.  Incompatible
                              baselines are rejected with a warning and the
                              run proceeds from scratch; the verdict is
                              identical either way
    --emit-baseline <out.json> write this run's proven sub-proofs, with
                              those of --baseline and --store, as a
                              baseline for later --baseline runs (valid
                              only under the same method/operator options)
    --trace <out>             record a structured proof trace of the run
                              and write it to <out> (spans, discharge
                              provenance, per-worker lanes)
    --trace-format json|chrome  trace serialization (default: json = JSONL,
                              one event object per line; chrome = a Chrome
                              trace-event profile for chrome://tracing or
                              ui.perfetto.dev)
    --explain                 render the proof tree per output: verdict,
                              time, and which mechanism (local/shared
                              table, store, baseline, coinduction, arena)
                              discharged each sub-proof.  Written to
                              stderr when combined with --json
    --metrics                 print session latency histograms (feasibility,
                              composition, flatten, match, simplify) as
                              JSON on stderr after the outcome
    --store <dir>             attach a persistent proof store: load proven
                              sub-proofs on startup, flush this run's (and
                              those of --baseline) on exit.  Corrupt or
                              incompatible stores degrade to a cold start
                              with a warning; verdicts never change

SERVE OPTIONS:
    --socket <path>           listen on a Unix socket at <path>
    --stdio                   serve exactly one session on stdin/stdout
    --store <dir>             persistent proof store (loaded on start,
                              flushed periodically and on shutdown)
    --flush-every <N>         flush the store every N verifies (default 64,
                              0 = only on checkpoint/shutdown)
    plus the verify engine options: --method, --declare-op, --param,
    --witnesses, --jobs, --deadline-ms, --max-work (per-request budgets in
    the protocol override the daemon defaults)

CLIENT OPTIONS:
    --socket <path>           daemon socket to connect to (required)
    --json                    verify: print the raw response document
    --retry <N>               retry connect/IO failures up to N extra times
                              with exponential backoff + jitter, replaying
                              the identical request (responses are matched
                              by echoed id, so replay is idempotent).
                              Default 0 = fail fast
    --retry-max-ms <N>        cap on any single backoff sleep (default 2000)
    --witnesses, --deadline-ms <N>, --max-work <N>
                              verify: per-request overrides

EXIT CODES:
    0 equivalent, 1 not equivalent, 2 inconclusive,
    3 pipeline error, 4 usage error
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes to stdout without breaking the exit-code contract: once the
/// reader has gone away (`arrayeq verify a.c b.c | head -1`), output is
/// dropped and the exit code still reports the verdict.  Any other write
/// failure is an error (exit 3).
fn write_stdout(args: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(EXIT_ERROR);
        }
    }
}

fn usage_error(message: &str) -> i32 {
    eprintln!("error: {message}\n\n{USAGE}");
    EXIT_USAGE
}

fn run(args: &[String]) -> i32 {
    // `arrayeq verify --help` asks for the usage, not for a file or flag
    // named `--help`.
    let command = match args.first().map(String::as_str) {
        Some("verify" | "serve" | "client" | "corpus")
            if args[1..].iter().any(|arg| arg == "--help" || arg == "-h") =>
        {
            Some("help")
        }
        command => command,
    };
    match command {
        Some("verify") => run_verify(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("client") => run_client(&args[1..]),
        Some("corpus") => run_corpus(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            outln!("{USAGE}");
            EXIT_EQUIVALENT
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
        None => usage_error("missing command"),
    }
}

/// Parse a `--param` spec: `NAME` (lower bound defaults to 1) or
/// `NAME>=MIN`.  The name must be a plain identifier so typos like
/// `--param N=16` fail loudly instead of declaring a bogus parameter.
fn parse_param_spec(spec: &str) -> Result<(String, i64), String> {
    let (name, min) = match spec.split_once(">=") {
        Some((name, min)) => {
            let min = min
                .trim()
                .parse::<i64>()
                .map_err(|_| format!("--param `{spec}`: lower bound must be an integer"))?;
            (name.trim(), min)
        }
        None => (spec.trim(), 1),
    };
    let is_ident = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    if !is_ident {
        return Err(format!(
            "--param `{spec}`: expected `NAME` or `NAME>=MIN` with an identifier name"
        ));
    }
    Ok((name.to_string(), min))
}

/// The engine flags `verify` and `serve` share.
#[derive(Default)]
struct EngineArgs {
    method: arrayeq_core::Method,
    declare_ops: Vec<String>,
    params: Vec<(String, i64)>,
    witnesses: bool,
    jobs: Option<usize>,
    deadline_ms: Option<u64>,
    max_work: Option<u64>,
    store: Option<String>,
}

impl EngineArgs {
    /// Takes `flag`, reading its value through `value_of`, when it is an
    /// engine flag; `Ok(false)` leaves it to the subcommand.
    fn parse(
        &mut self,
        flag: &str,
        value_of: &mut impl FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        let mut int = |flag: &str| -> Result<u64, String> {
            value_of(flag)?
                .parse()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match flag {
            "--method" => {
                self.method = match value_of(flag)?.as_str() {
                    "basic" => arrayeq_core::Method::Basic,
                    "extended" => arrayeq_core::Method::Extended,
                    other => return Err(format!("unknown method `{other}`")),
                }
            }
            "--declare-op" => self.declare_ops.push(value_of(flag)?),
            "--param" => self.params.push(parse_param_spec(&value_of(flag)?)?),
            "--witnesses" => self.witnesses = true,
            "--jobs" => self.jobs = Some(int(flag)? as usize),
            "--deadline-ms" => self.deadline_ms = Some(int(flag)?),
            "--max-work" => self.max_work = Some(int(flag)?),
            "--store" => self.store = Some(value_of(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The engine these flags describe; an `Err` is a malformed
    /// `--declare-op`, a usage error.
    fn builder(&self) -> Result<VerifierBuilder, String> {
        let mut operators = arrayeq_core::OperatorProperties::default();
        for decl in &self.declare_ops {
            operators = operators.declare_spec(decl)?;
        }
        let mut builder = Verifier::builder()
            .method(self.method)
            .operators(operators)
            .params(self.params.clone())
            .witnesses(self.witnesses);
        if let Some(ms) = self.deadline_ms {
            builder = builder.deadline(Duration::from_millis(ms));
        }
        if let Some(w) = self.max_work {
            builder = builder.max_work(w);
        }
        if let Some(jobs) = self.jobs {
            builder = builder.jobs(jobs);
        }
        if let Some(dir) = &self.store {
            builder = builder.store(dir.clone());
        }
        Ok(builder)
    }
}

struct VerifyArgs {
    original: String,
    transformed: String,
    engine: EngineArgs,
    json: bool,
    dot: Option<String>,
    baseline: Option<String>,
    emit_baseline: Option<String>,
    trace: Option<String>,
    trace_chrome: bool,
    explain: bool,
    metrics: bool,
}

fn parse_verify_args(args: &[String]) -> Result<VerifyArgs, String> {
    let mut files = Vec::new();
    let mut parsed = VerifyArgs {
        original: String::new(),
        transformed: String::new(),
        engine: EngineArgs::default(),
        json: false,
        dot: None,
        baseline: None,
        emit_baseline: None,
        trace: None,
        trace_chrome: false,
        explain: false,
        metrics: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        if parsed.engine.parse(arg, &mut value_of)? {
            continue;
        }
        match arg.as_str() {
            "--json" => parsed.json = true,
            "--dot" => parsed.dot = Some(value_of("--dot")?),
            "--baseline" => parsed.baseline = Some(value_of("--baseline")?),
            "--emit-baseline" => parsed.emit_baseline = Some(value_of("--emit-baseline")?),
            "--trace" => parsed.trace = Some(value_of("--trace")?),
            "--trace-format" => {
                parsed.trace_chrome = match value_of("--trace-format")?.as_str() {
                    "json" => false,
                    "chrome" => true,
                    other => return Err(format!("unknown trace format `{other}`")),
                }
            }
            "--explain" => parsed.explain = true,
            "--metrics" => parsed.metrics = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            file => files.push(file.to_owned()),
        }
    }
    match files.len() {
        2 => {
            parsed.original = files.remove(0);
            parsed.transformed = files.remove(0);
            Ok(parsed)
        }
        n => Err(format!("verify needs exactly 2 input files, got {n}")),
    }
}

fn run_verify(args: &[String]) -> i32 {
    let parsed = match parse_verify_args(args) {
        Ok(p) => p,
        Err(message) => return usage_error(&message),
    };
    let read = |path: &str| -> Result<String, i32> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: cannot read `{path}`: {e}");
            EXIT_ERROR
        })
    };
    let original = match read(&parsed.original) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let transformed = match read(&parsed.transformed) {
        Ok(s) => s,
        Err(code) => return code,
    };

    let mut builder = match parsed.engine.builder() {
        Ok(builder) => builder.metrics(parsed.metrics),
        Err(message) => return usage_error(&message),
    };
    // --explain needs the event stream even when no --trace file was asked
    // for, so either flag gives the engine a collector.
    let collector = (parsed.trace.is_some() || parsed.explain)
        .then(|| std::sync::Arc::new(arrayeq_trace::Collector::new()));
    if let Some(c) = &collector {
        builder = builder.trace_sink(c.clone());
    }
    let verifier = builder.build();
    for warning in verifier.store_warnings() {
        eprintln!("warning: {warning}");
    }

    // A named-but-unreadable baseline is a hard error (the operator asked
    // for incremental mode and pointed at nothing); a readable-but-unusable
    // one is a typed rejection with a from-scratch fallback, handled below.
    let baseline_text = match &parsed.baseline {
        Some(path) => match read(path) {
            Ok(text) => Some(text),
            Err(code) => return code,
        },
        None => None,
    };

    let mut request = VerifyRequest::source(original, transformed.clone());
    if let Some(text) = baseline_text {
        request = request.with_baseline(text);
    }
    let outcome = match verifier.verify(&request) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return EXIT_ERROR;
        }
    };
    if let Some(BaselineStatus::Rejected(rejection)) = &outcome.baseline {
        eprintln!("warning: {rejection}");
    }

    // The engine records only while `verify` runs, so the collector now
    // holds a complete, balanced record of exactly this request.
    if let (Some(path), Some(c)) = (&parsed.trace, &collector) {
        let payload = if parsed.trace_chrome {
            c.to_chrome()
        } else {
            c.to_jsonl()
        };
        if let Err(e) = std::fs::write(path, payload) {
            eprintln!("error: cannot write `{path}`: {e}");
            return EXIT_ERROR;
        }
    }

    if let Some(path) = &parsed.emit_baseline {
        if let Err(e) = std::fs::write(path, verifier.export_baseline(&outcome.report)) {
            eprintln!("error: cannot write `{path}`: {e}");
            return EXIT_ERROR;
        }
    }

    // The operator asked for persistence, so failing to write it is a hard
    // error — mirroring --emit-baseline, and unlike the load path, which
    // degrades (a bad existing store must never block a verification).
    if parsed.engine.store.is_some() {
        if let Err(e) = verifier.flush_store() {
            eprintln!("error: cannot flush proof store: {e}");
            return EXIT_ERROR;
        }
    }

    if let Some(dot_path) = &parsed.dot {
        match render_dot(&transformed, &outcome) {
            Ok(dot) => {
                if let Err(e) = std::fs::write(dot_path, dot) {
                    eprintln!("error: cannot write `{dot_path}`: {e}");
                    return EXIT_ERROR;
                }
            }
            Err(message) => {
                eprintln!("error: {message}");
                return EXIT_ERROR;
            }
        }
    }

    if parsed.json {
        outln!("{}", outcome_to_json(&outcome));
    } else {
        out!("{}", outcome.report.summary());
        outln!("wall time: {:.3} ms", outcome.wall_time_us as f64 / 1e3);
    }
    if parsed.explain {
        if let Some(c) = &collector {
            let tree = arrayeq_trace::explain::render(c);
            if parsed.json {
                // Keep stdout machine-readable: the tree goes to stderr.
                eprint!("{tree}");
            } else {
                out!("{tree}");
            }
        }
    }
    if parsed.metrics {
        if let Some(snapshot) = verifier.metrics_snapshot() {
            eprintln!("{}", snapshot.to_json());
        }
    }
    match outcome.report.verdict {
        Verdict::Equivalent => EXIT_EQUIVALENT,
        Verdict::NotEquivalent => EXIT_NOT_EQUIVALENT,
        Verdict::Inconclusive => EXIT_INCONCLUSIVE,
    }
}

/// `arrayeq serve`: the long-lived verification daemon.  Engine options
/// mirror `verify`; clients override budgets per request.
fn run_serve(args: &[String]) -> i32 {
    let mut socket: Option<String> = None;
    let mut stdio = false;
    let mut config = arrayeq_serve::ServeConfig::default();
    let mut engine = EngineArgs::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let result: Result<(), String> = (|| {
            if engine.parse(arg, &mut value_of)? {
                return Ok(());
            }
            match arg.as_str() {
                "--socket" => socket = Some(value_of("--socket")?),
                "--stdio" => stdio = true,
                "--flush-every" => {
                    config.flush_every = value_of("--flush-every")?
                        .parse()
                        .map_err(|_| "--flush-every needs an integer".to_string())?
                }
                other => return Err(format!("unknown serve argument `{other}`")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    if stdio == socket.is_some() {
        return usage_error("serve needs exactly one of --socket <path> or --stdio");
    }

    let verifier = match engine.builder() {
        Ok(builder) => builder.build(),
        Err(message) => return usage_error(&message),
    };
    for warning in verifier.store_warnings() {
        eprintln!("warning: {warning}");
    }

    let server = arrayeq_serve::Server::new(verifier, config);
    let result = if stdio {
        server.run_stdio()
    } else {
        let path = socket.expect("checked above");
        eprintln!("arrayeq serve: listening on {path}");
        server.run_unix(std::path::Path::new(&path))
    };
    match result {
        Ok(()) => {
            eprintln!("arrayeq serve: shut down cleanly");
            EXIT_EQUIVALENT
        }
        Err(e) => {
            eprintln!("error: serve failed: {e}");
            EXIT_ERROR
        }
    }
}

/// `arrayeq client`: a one-shot protocol client.  `client verify` mirrors
/// the `verify` exit-code contract; control commands print the raw
/// response line.
fn run_client(args: &[String]) -> i32 {
    use arrayeq_serve::client::{
        control_request_line, request_with_retry, response_verdict, verify_request_line,
        RetryPolicy, VerifyParams,
    };

    let mut socket: Option<String> = None;
    let mut json = false;
    let mut retry: u32 = 0;
    let mut retry_max_ms: u64 = 2_000;
    let mut params = VerifyParams::default();
    let mut words: Vec<String> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--socket" => socket = Some(value_of("--socket")?),
                "--json" => json = true,
                "--retry" => {
                    retry = value_of("--retry")?
                        .parse()
                        .map_err(|_| "--retry needs an integer".to_string())?
                }
                "--retry-max-ms" => {
                    retry_max_ms = value_of("--retry-max-ms")?
                        .parse()
                        .map_err(|_| "--retry-max-ms needs an integer".to_string())?
                }
                "--witnesses" => params.witnesses = Some(true),
                "--deadline-ms" => {
                    params.deadline_ms = Some(
                        value_of("--deadline-ms")?
                            .parse()
                            .map_err(|_| "--deadline-ms needs an integer".to_string())?,
                    )
                }
                "--max-work" => {
                    params.max_work = Some(
                        value_of("--max-work")?
                            .parse()
                            .map_err(|_| "--max-work needs an integer".to_string())?,
                    )
                }
                flag if flag.starts_with("--") => {
                    return Err(format!("unknown client flag `{flag}`"))
                }
                word => words.push(word.to_owned()),
            }
            Ok(())
        })();
        if let Err(message) = result {
            return usage_error(&message);
        }
    }
    let Some(socket) = socket else {
        return usage_error("client needs --socket <path>");
    };
    let policy = RetryPolicy::with_retries(retry, retry_max_ms);
    // All client-side failures — connection refused, broken pipe, malformed
    // greeting, retries exhausted — land on exit code 3 with the typed
    // ClientError's message on stderr.
    let request = |line: &str| -> Result<String, i32> {
        request_with_retry(std::path::Path::new(&socket), line, 1, &policy).map_err(|e| {
            eprintln!("error: `{socket}`: {e}");
            EXIT_ERROR
        })
    };

    match words.first().map(String::as_str) {
        Some("verify") => {
            if words.len() != 3 {
                return usage_error("client verify needs exactly 2 input files");
            }
            let read = |path: &str| -> Result<String, i32> {
                std::fs::read_to_string(path).map_err(|e| {
                    eprintln!("error: cannot read `{path}`: {e}");
                    EXIT_ERROR
                })
            };
            let original = match read(&words[1]) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let transformed = match read(&words[2]) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let line = verify_request_line(1, &original, &transformed, &params);
            let response = match request(&line) {
                Ok(r) => r,
                Err(code) => return code,
            };
            if json {
                outln!("{response}");
            }
            match response_verdict(&response) {
                Ok(verdict) => {
                    if !json {
                        outln!("verdict: {}", verdict.replace('_', " "));
                    }
                    match verdict.as_str() {
                        "equivalent" => EXIT_EQUIVALENT,
                        "not_equivalent" => EXIT_NOT_EQUIVALENT,
                        _ => EXIT_INCONCLUSIVE,
                    }
                }
                Err(message) => {
                    eprintln!("error: {message}");
                    EXIT_ERROR
                }
            }
        }
        Some(cmd @ ("ping" | "stats" | "checkpoint" | "shutdown")) => {
            match request(&control_request_line(1, cmd)) {
                Ok(response) => {
                    outln!("{response}");
                    if response.contains("\"ok\":true") {
                        EXIT_EQUIVALENT
                    } else {
                        EXIT_ERROR
                    }
                }
                Err(code) => code,
            }
        }
        Some(other) => usage_error(&format!("unknown client command `{other}`")),
        None => usage_error("client needs a command (verify/ping/stats/checkpoint/shutdown)"),
    }
}

/// The transformed program's ADDG as Graphviz; when the outcome carries a
/// witness, its failing slice is painted red.
fn render_dot(
    transformed_source: &str,
    outcome: &arrayeq_engine::Outcome,
) -> Result<String, String> {
    let program =
        arrayeq_lang::parser::parse_program(transformed_source).map_err(|e| e.to_string())?;
    let graph = arrayeq_addg::extract(&program).map_err(|e| e.to_string())?;
    if let Some(witness) = outcome.report.witnesses.iter().find(|w| w.confirmed) {
        return arrayeq_witness::witness_dot(&graph, witness).map_err(|e| e.to_string());
    }
    Ok(arrayeq_addg::to_dot(&graph))
}

fn corpus_entries() -> Vec<(String, String)> {
    let mut entries = vec![
        ("fig1a".to_owned(), FIG1_A.to_owned()),
        ("fig1b".to_owned(), FIG1_B.to_owned()),
        ("fig1c".to_owned(), FIG1_C.to_owned()),
        ("fig1d".to_owned(), FIG1_D.to_owned()),
    ];
    for (name, src) in KERNELS {
        entries.push((name.to_owned(), src.to_owned()));
    }
    entries
}

fn run_corpus(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("--list") => {
            for (name, _) in corpus_entries() {
                outln!("{name}");
            }
            let corpus = arrayeq_transform::mutate::fault_corpus();
            for (i, case) in corpus.iter().enumerate() {
                outln!("mutant:{i}  ({})", case.name);
            }
            EXIT_EQUIVALENT
        }
        Some(name) => {
            if let Some(rest) = name.strip_prefix("mutant:") {
                return print_mutant(rest, false);
            }
            if let Some(rest) = name.strip_prefix("mutant-original:") {
                return print_mutant(rest, true);
            }
            match corpus_entries().into_iter().find(|(n, _)| n == name) {
                Some((_, src)) => {
                    out!("{}", src.trim_start_matches('\n'));
                    EXIT_EQUIVALENT
                }
                None => usage_error(&format!(
                    "unknown corpus program `{name}` (try `arrayeq corpus --list`)"
                )),
            }
        }
        None => usage_error("corpus needs a program name or --list"),
    }
}

/// Prints the mutant (or, when `original`, its unmutated original) at
/// `index` of the fault-injection corpus, pretty-printed back to source.
fn print_mutant(index: &str, original: bool) -> i32 {
    let Ok(index) = index.parse::<usize>() else {
        return usage_error("mutant index must be an integer");
    };
    let corpus = arrayeq_transform::mutate::fault_corpus();
    let Some(case) = corpus.get(index) else {
        return usage_error(&format!(
            "mutant index {index} out of range (corpus has {} cases)",
            corpus.len()
        ));
    };
    let program = if original {
        &case.original
    } else {
        &case.mutant
    };
    out!("{}", program_to_string(program));
    EXIT_EQUIVALENT
}
