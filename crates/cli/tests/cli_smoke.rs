//! End-to-end smoke test of the `arrayeq` binary: corpus printing, the
//! verify exit-code contract (0 equivalent / 1 not-equivalent /
//! 2 inconclusive / >2 usage-or-error) and `--json` output that parses.

use arrayeq_engine::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Output};

fn arrayeq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arrayeq"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_corpus(dir: &std::path::Path, name: &str) -> PathBuf {
    let out = arrayeq(&["corpus", name]);
    assert!(out.status.success(), "corpus {name} prints");
    let path = dir.join(format!("{}.c", name.replace(':', "_")));
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arrayeq-cli-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn equivalent_pair_exits_zero_with_parsable_json() {
    let dir = temp_dir("eq");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let out = arrayeq(&["verify", a.to_str().unwrap(), c.to_str().unwrap(), "--json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON");
    let report = doc.get("report").expect("report object");
    assert_eq!(
        report.get("verdict").and_then(JsonValue::as_str),
        Some("equivalent")
    );
    assert_eq!(
        doc.get("session")
            .and_then(|s| s.get("queries"))
            .and_then(JsonValue::as_i64),
        Some(1)
    );
}

#[test]
fn fault_corpus_mutant_exits_one_with_witness_in_json() {
    let dir = temp_dir("neq");
    let original = write_corpus(&dir, "mutant-original:0");
    let mutant = write_corpus(&dir, "mutant:0");
    let out = arrayeq(&[
        "verify",
        original.to_str().unwrap(),
        mutant.to_str().unwrap(),
        "--witnesses",
        "--json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON");
    let report = doc.get("report").expect("report object");
    assert_eq!(
        report.get("verdict").and_then(JsonValue::as_str),
        Some("not_equivalent")
    );
    let witnesses = report
        .get("witnesses")
        .and_then(JsonValue::as_array)
        .expect("witnesses array");
    assert!(
        witnesses
            .iter()
            .any(|w| w.get("confirmed").and_then(JsonValue::as_bool) == Some(true)),
        "a replay-confirmed witness is attached"
    );
}

#[test]
fn tiny_deadline_exits_two_with_typed_reason() {
    let dir = temp_dir("inc");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--json",
        "--max-work",
        "3",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let doc = JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON");
    let reason = doc
        .get("report")
        .and_then(|r| r.get("budget_exhausted"))
        .expect("budget reason present");
    assert_eq!(
        reason.get("reason").and_then(JsonValue::as_str),
        Some("work_limit")
    );
}

#[test]
fn usage_and_pipeline_errors_exit_above_two() {
    // Usage error: unknown command.
    let out = arrayeq(&["frobnicate"]);
    assert!(out.status.code().unwrap_or(0) > 2);
    // Usage error: missing files.
    let out = arrayeq(&["verify", "only-one.c"]);
    assert!(out.status.code().unwrap_or(0) > 2);
    // Pipeline error: unreadable file.
    let out = arrayeq(&["verify", "/nonexistent/a.c", "/nonexistent/b.c"]);
    assert!(out.status.code().unwrap_or(0) > 2);
    // Pipeline error: not a program in the class.
    let dir = temp_dir("err");
    let bad = dir.join("bad.c");
    std::fs::write(&bad, "int main() { return 0; }").unwrap();
    let a = write_corpus(&dir, "fig1a");
    let out = arrayeq(&["verify", a.to_str().unwrap(), bad.to_str().unwrap()]);
    assert!(out.status.code().unwrap_or(0) > 2);
}

/// The usage errors of `verify` and `serve`, byte for byte: each exits 4
/// and prints `error: <message>`, a blank line and the usage on stderr.
/// The engine flags both subcommands take fail alike in each.
#[test]
fn verify_and_serve_usage_errors_are_pinned() {
    let dir = temp_dir("usage");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let (a, c) = (a.to_str().unwrap(), c.to_str().unwrap());
    let usage = String::from_utf8(arrayeq(&["help"]).stdout).unwrap();
    let expect = |args: &[&str], message: &str| {
        let out = arrayeq(args);
        assert_eq!(out.status.code(), Some(4), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {message}\n\n{usage}"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} prints nothing on stdout");
    };
    let engine_flags: [(&[&str], &str); 13] = [
        (&["--jobs", "two"], "--jobs needs an integer"),
        (&["--deadline-ms", "1.5"], "--deadline-ms needs an integer"),
        (&["--max-work", "-3"], "--max-work needs an integer"),
        (&["--method", "fast"], "unknown method `fast`"),
        (
            &["--param", "N=16"],
            "--param `N=16`: expected `NAME` or `NAME>=MIN` with an identifier name",
        ),
        (
            &["--param", "N>=one"],
            "--param `N>=one`: lower bound must be an integer",
        ),
        (
            &["--declare-op", "min"],
            "malformed operator declaration `min` (expected name=ac)",
        ),
        (&["--declare-op", "=ac"], "missing operator name in `=ac`"),
        (
            &["--declare-op", "min=x"],
            "unknown operator-class letter `x` in `x` (expected a combination of `a` and `c`)",
        ),
        (&["--jobs"], "--jobs needs a value"),
        (&["--method"], "--method needs a value"),
        (&["--param"], "--param needs a value"),
        (&["--store"], "--store needs a value"),
    ];
    for (flags, message) in engine_flags {
        expect(&[&["verify", a, c], flags].concat(), message);
        expect(&[&["serve", "--stdio"], flags].concat(), message);
    }
    expect(
        &["verify", a, c, "--frobnicate"],
        "unknown flag `--frobnicate`",
    );
    expect(&["verify", a], "verify needs exactly 2 input files, got 1");
    expect(
        &["verify", a, c, "--trace-format", "xml"],
        "unknown trace format `xml`",
    );
    expect(&["verify", a, c, "--trace"], "--trace needs a value");
    expect(
        &["serve", "--stdio", "--frobnicate"],
        "unknown serve argument `--frobnicate`",
    );
    expect(
        &["serve", "--stdio", "extra"],
        "unknown serve argument `extra`",
    );
    expect(
        &["serve", "--stdio", "--flush-every", "x"],
        "--flush-every needs an integer",
    );
    let one_of = "serve needs exactly one of --socket <path> or --stdio";
    expect(&["serve"], one_of);
    expect(
        &["serve", "--stdio", "--socket", "/nonexistent/s.sock"],
        one_of,
    );
}

#[test]
fn help_after_any_command_prints_the_usage_and_exits_zero() {
    let usage = arrayeq(&["help"]).stdout;
    for args in [
        &["--help"][..],
        &["-h"],
        &["verify", "--help"],
        &["verify", "a.c", "b.c", "-h"],
        &["serve", "--help"],
        &["client", "--socket", "/nonexistent.sock", "--help"],
        &["corpus", "-h"],
    ] {
        let out = arrayeq(args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, usage, "{args:?} prints the usage on stdout");
        assert!(out.stderr.is_empty(), "{args:?} writes nothing to stderr");
    }
}

#[test]
fn exit_code_survives_a_stdout_reader_that_went_away() {
    // `arrayeq verify a.c c.c | head -1` and `arrayeq corpus --list | head
    // -1`, with the reader gone before the first write: the broken pipe
    // must not turn the verdict's exit code into a panic.
    let dir = temp_dir("pipe");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    for args in [
        vec!["verify", a.to_str().unwrap(), c.to_str().unwrap()],
        vec!["corpus", "--list"],
    ] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_arrayeq"))
            .args(&args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn dot_export_writes_a_digraph_with_highlighted_slice() {
    let dir = temp_dir("dot");
    let a = write_corpus(&dir, "fig1a");
    let d = write_corpus(&dir, "fig1d");
    let dot_path = dir.join("slice.dot");
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        d.to_str().unwrap(),
        "--witnesses",
        "--dot",
        dot_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("color=red"), "failing slice highlighted");
}

#[test]
fn baseline_loop_emits_applies_and_rejects() {
    let dir = temp_dir("baseline");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let baseline = dir.join("baseline.json");

    // First run: emit the baseline.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--emit-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&baseline).unwrap();
    assert!(text.contains("arrayeq-baseline-v1"));

    // Second run: the baseline applies and the pair is fully clean.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let doc = JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON");
    let status = doc.get("baseline").expect("baseline status object");
    assert_eq!(
        status.get("status").and_then(JsonValue::as_str),
        Some("applied")
    );
    assert!(
        !status
            .get("clean_outputs")
            .and_then(JsonValue::as_array)
            .expect("clean outputs")
            .is_empty(),
        "unchanged pair is clean"
    );

    // A baseline produced under different options is rejected with a
    // warning; verdict and exit code are unchanged.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--declare-op",
        "min=ac",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0), "verdict never changes");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different options"),
        "stderr warns: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON");
    let status = doc.get("baseline").expect("baseline status object");
    assert_eq!(
        status.get("status").and_then(JsonValue::as_str),
        Some("rejected")
    );
    assert_eq!(
        status.get("reason").and_then(JsonValue::as_str),
        Some("options_mismatch")
    );

    // A corrupted baseline is rejected the same way.
    let corrupt = dir.join("corrupt.json");
    std::fs::write(&corrupt, &text.as_bytes()[..text.len() / 2]).unwrap();
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--baseline",
        corrupt.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let doc = JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(
        doc.get("baseline")
            .and_then(|s| s.get("reason"))
            .and_then(JsonValue::as_str),
        Some("malformed")
    );

    // A missing baseline file is a hard error, not a silent fallback.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--baseline",
        "/nonexistent/baseline.json",
    ]);
    assert!(out.status.code().unwrap_or(0) > 2);
}

#[test]
fn corpus_list_names_every_entry() {
    let out = arrayeq(&["corpus", "--list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for name in ["fig1a", "fig1d", "matvec", "recurrence", "mutant:0"] {
        assert!(text.contains(name), "listing mentions {name}");
    }
    // Unknown corpus names are usage errors.
    let out = arrayeq(&["corpus", "no-such-program"]);
    assert!(out.status.code().unwrap_or(0) > 2);
}

#[test]
fn basic_method_flag_changes_the_verdict_on_fig1c() {
    let dir = temp_dir("method");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    // (a) vs (c) needs the extended method; basic must reject.
    let extended = arrayeq(&["verify", a.to_str().unwrap(), c.to_str().unwrap()]);
    assert_eq!(extended.status.code(), Some(0));
    let basic = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--method",
        "basic",
    ]);
    assert_eq!(basic.status.code(), Some(1));
}

#[test]
fn declare_op_enables_matching_at_user_calls() {
    let dir = temp_dir("declare");
    let a = dir.join("a.c");
    let b = dir.join("b.c");
    std::fs::write(
        &a,
        "#define N 16\nvoid f(int X[], int Y[], int C[]) { int k; for (k=0;k<N;k++) s1: C[k] = min(X[k], Y[2*k]); }\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "#define N 16\nvoid f(int X[], int Y[], int C[]) { int k; for (k=0;k<N;k++) t1: C[k] = min(Y[2*k], X[k]); }\n",
    )
    .unwrap();
    // Undeclared: `min` is uninterpreted and argument order matters.
    let out = arrayeq(&["verify", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "undeclared min is not commutative"
    );
    // Declared AC: the swapped arguments match.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--declare-op",
        "min=ac",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A malformed declaration is a usage error.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--declare-op",
        "min=zz",
    ]);
    assert_eq!(out.status.code(), Some(4));
    // And the flag is documented.
    let out = arrayeq(&["help"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("--declare-op"));
}

#[test]
fn param_flag_promotes_a_define_to_an_all_sizes_proof() {
    let dir = temp_dir("param");
    let a = dir.join("a.c");
    let b = dir.join("b.c");
    std::fs::write(
        &a,
        "#define N 16\nvoid f(int A[], int B[], int C[]) { int k; int t[64];\n  for (k=0;k<N;k++) a1: t[k] = A[k] + B[2*k];\n  for (k=0;k<N;k++) a2: C[k] = t[k] + A[2*k]; }\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "#define N 16\nvoid f(int A[], int B[], int C[]) { int k;\n  for (k=0;k<N;k++) b1: C[k] = A[2*k] + (A[k] + B[2*k]); }\n",
    )
    .unwrap();
    // The pair is size-generic: promoting N proves it for every N >= 1.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--param",
        "N",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // An explicit lower bound is accepted too.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--param",
        "N>=4",
    ]);
    assert_eq!(out.status.code(), Some(0));
    // Malformed specs are usage errors.
    for bad in ["N>=x", "2bad", ""] {
        let out = arrayeq(&[
            "verify",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--param",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(4), "`{bad}` must be rejected");
    }
    // And the flag is documented.
    let out = arrayeq(&["help"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("--param"));
}

#[test]
fn param_flag_holds_under_a_baseline() {
    // Fig. 1 (a) vs (c) holds only for even N, so promoting N fails the
    // def-use check on `buf` — with or without a baseline from (a) vs (a).
    let dir = temp_dir("param-baseline");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let baseline = dir.join("base.json");
    let (a, c, base) = (
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        baseline.to_str().unwrap(),
    );
    let out = arrayeq(&["verify", a, a, "--param", "N", "--emit-baseline", base]);
    assert_eq!(out.status.code(), Some(0));
    let scratch = arrayeq(&["verify", a, c, "--param", "N"]);
    assert_eq!(scratch.status.code(), Some(3));
    let out = arrayeq(&["verify", a, c, "--param", "N", "--baseline", base]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert_eq!(out.stderr, scratch.stderr);
}

#[test]
fn trace_flag_writes_parsable_jsonl_and_chrome_profiles() {
    let dir = temp_dir("trace");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let jsonl_path = dir.join("trace.jsonl");
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--trace",
        jsonl_path.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("trace file written");
    assert!(!jsonl.trim().is_empty(), "trace is non-empty");
    for line in jsonl.lines() {
        let v = JsonValue::parse(line).expect("every JSONL line parses");
        assert!(v.get("ts").is_some() && v.get("ph").is_some() && v.get("name").is_some());
    }

    let chrome_path = dir.join("trace-chrome.json");
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--trace",
        chrome_path.to_str().unwrap(),
        "--trace-format",
        "chrome",
        "--jobs",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let doc = JsonValue::parse(&std::fs::read_to_string(&chrome_path).unwrap())
        .expect("chrome profile parses");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // An unknown format is a usage error.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--trace-format",
        "xml",
    ]);
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn explain_names_discharge_mechanisms_on_an_incremental_run() {
    let dir = temp_dir("explain");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let baseline = dir.join("baseline.json");
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--emit-baseline",
        baseline.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));

    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--baseline",
        baseline.to_str().unwrap(),
        "--explain",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("proof tree"), "stdout: {stdout}");
    // Every output of this incremental run owes its verdict to the
    // baseline: the unchanged pair is fully clean.
    assert!(
        stdout.contains("discharged by baseline (clean"),
        "stdout: {stdout}"
    );

    // From scratch, the tree still names how each sub-proof was answered.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--explain",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("discharged via:"), "stdout: {stdout}");

    // With --json, stdout stays a single machine-readable document and the
    // tree moves to stderr.
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--explain",
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(0));
    JsonValue::parse(std::str::from_utf8(&out.stdout).unwrap()).expect("stdout is pure JSON");
    assert!(String::from_utf8_lossy(&out.stderr).contains("proof tree"));
}

#[test]
fn metrics_flag_prints_histogram_snapshot_on_stderr() {
    let dir = temp_dir("metrics");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let out = arrayeq(&[
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--metrics",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("metrics JSON on stderr");
    let doc = JsonValue::parse(line).expect("metrics snapshot parses");
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_array)
        .expect("metrics array");
    assert_eq!(metrics.len(), 5);
    assert!(metrics
        .iter()
        .any(|m| m.get("count").and_then(JsonValue::as_i64).unwrap_or(0) > 0));
    // The help names every histogram the flag prints.
    let usage = String::from_utf8(arrayeq(&["help"]).stdout).unwrap();
    let start = usage
        .find("--metrics")
        .expect("the help documents --metrics");
    let end = start + usage[start..].find(" as").expect("the histogram list ends");
    let named = usage[start..end]
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ");
    for m in metrics {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .expect("histogram name");
        assert!(
            named.contains(name),
            "the --metrics help omits `{name}`: {named}"
        );
    }
}

#[test]
fn store_loop_discharges_on_the_second_run_and_survives_corruption() {
    let dir = temp_dir("store");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let store = dir.join("proofstore");
    let _ = std::fs::remove_dir_all(&store);
    let args = [
        "verify",
        a.to_str().unwrap(),
        c.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--json",
    ];

    let cold = arrayeq(&args);
    assert_eq!(cold.status.code(), Some(0));
    let doc = JsonValue::parse(std::str::from_utf8(&cold.stdout).unwrap()).unwrap();
    let store_hits = |doc: &JsonValue| {
        doc.get("report")
            .and_then(|r| r.get("stats"))
            .and_then(|s| s.get("store_hits"))
            .and_then(JsonValue::as_i64)
            .unwrap()
    };
    assert_eq!(store_hits(&doc), 0, "first run has nothing to reuse");

    let warm = arrayeq(&args);
    assert_eq!(warm.status.code(), Some(0));
    let warm_doc = JsonValue::parse(std::str::from_utf8(&warm.stdout).unwrap()).unwrap();
    assert!(
        store_hits(&warm_doc) > 0,
        "second run discharges from the store: {}",
        String::from_utf8_lossy(&warm.stdout)
    );
    // Store reuse never changes the verdict-bearing content.
    assert_eq!(
        doc.get("report").unwrap().get("verdict").unwrap().as_str(),
        warm_doc
            .get("report")
            .unwrap()
            .get("verdict")
            .unwrap()
            .as_str(),
    );

    // Corrupt every store file: the run degrades to cold with a typed
    // warning on stderr, same verdict, exit 0.
    for entry in std::fs::read_dir(&store).unwrap() {
        std::fs::write(entry.unwrap().path(), "garbage\n").unwrap();
    }
    let degraded = arrayeq(&args);
    assert_eq!(degraded.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(
        stderr.contains("warning: proof store"),
        "typed warning surfaced: {stderr}"
    );
    let degraded_doc = JsonValue::parse(std::str::from_utf8(&degraded.stdout).unwrap()).unwrap();
    assert_eq!(store_hits(&degraded_doc), 0, "corrupt store seeds nothing");
    assert_eq!(
        degraded_doc
            .get("report")
            .unwrap()
            .get("verdict")
            .unwrap()
            .as_str(),
        Some("equivalent")
    );
}

#[test]
fn serve_daemon_round_trip_with_warm_restart() {
    let dir = temp_dir("serve");
    let a = write_corpus(&dir, "fig1a");
    let c = write_corpus(&dir, "fig1c");
    let original = write_corpus(&dir, "mutant-original:0");
    let mutant = write_corpus(&dir, "mutant:0");
    let store = dir.join("servestore");
    let socket = dir.join("daemon.sock");
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&socket);

    let spawn_daemon = || {
        let child = Command::new(env!("CARGO_BIN_EXE_arrayeq"))
            .args([
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--store",
                store.to_str().unwrap(),
            ])
            .spawn()
            .expect("daemon starts");
        for _ in 0..200 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        child
    };
    let client = |words: &[&str]| {
        let mut args = vec!["client", "--socket", socket.to_str().unwrap()];
        args.extend_from_slice(words);
        arrayeq(&args)
    };

    let mut daemon = spawn_daemon();
    let ping = client(&["ping"]);
    assert_eq!(ping.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&ping.stdout).contains("pong"));

    let eq = client(&["verify", a.to_str().unwrap(), c.to_str().unwrap()]);
    assert_eq!(eq.status.code(), Some(0), "equivalent over the socket");
    let neq = client(&[
        "verify",
        original.to_str().unwrap(),
        mutant.to_str().unwrap(),
    ]);
    assert_eq!(neq.status.code(), Some(1), "fault mutant rejected");

    let down = client(&["shutdown"]);
    assert_eq!(down.status.code(), Some(0));
    let status = daemon.wait().expect("daemon exits");
    assert_eq!(status.code(), Some(0), "clean shutdown");
    assert!(store.exists(), "shutdown flushed the store");

    // Restart on the same store: the warm daemon discharges from disk —
    // persistence across processes, not just the in-memory table.
    let mut daemon = spawn_daemon();
    let warm = client(&["verify", a.to_str().unwrap(), c.to_str().unwrap(), "--json"]);
    assert_eq!(warm.status.code(), Some(0));
    let line = String::from_utf8_lossy(&warm.stdout);
    let doc = JsonValue::parse(line.trim()).expect("response parses");
    let store_hits = doc
        .get("result")
        .and_then(|r| r.get("report"))
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("store_hits"))
        .and_then(JsonValue::as_i64)
        .unwrap();
    assert!(store_hits > 0, "warm restart discharges from disk: {line}");

    assert_eq!(client(&["shutdown"]).status.code(), Some(0));
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
}

#[test]
fn client_failures_exit_three_with_typed_errors() {
    let dir = temp_dir("clienterr");

    // Connection refused: nothing listens at the socket path.
    let missing = dir.join("nobody-home.sock");
    let out = arrayeq(&["client", "--socket", missing.to_str().unwrap(), "ping"]);
    assert_eq!(out.status.code(), Some(3), "connection failure is exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cannot connect after 1 attempt"),
        "typed connect error on stderr: {err}"
    );

    // Malformed greeting: the socket answers, but with something that is
    // not the daemon protocol.  Not retried — retrying cannot fix a wrong
    // server — and still exit 3.
    let imposter = dir.join("imposter.sock");
    let _ = std::fs::remove_file(&imposter);
    let listener = std::os::unix::net::UnixListener::bind(&imposter).unwrap();
    let greeter = std::thread::spawn(move || {
        use std::io::Write;
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .write_all(b"220 smtp.example.com ESMTP ready\n")
            .unwrap();
        // Hold the stream open until the client has reacted.
        std::thread::sleep(std::time::Duration::from_millis(200));
    });
    let out = arrayeq(&[
        "client",
        "--socket",
        imposter.to_str().unwrap(),
        "--retry",
        "3",
        "ping",
    ]);
    greeter.join().unwrap();
    assert_eq!(out.status.code(), Some(3), "malformed greeting is exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("malformed greeting"),
        "typed greeting error on stderr: {err}"
    );

    // Broken pipe: the server accepts and immediately hangs up before
    // greeting.  Exhausts the (bounded) retries, then exit 3.
    let flaky = dir.join("flaky.sock");
    let _ = std::fs::remove_file(&flaky);
    let listener = std::os::unix::net::UnixListener::bind(&flaky).unwrap();
    let slammer = std::thread::spawn(move || {
        for _ in 0..3 {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        }
    });
    let out = arrayeq(&[
        "client",
        "--socket",
        flaky.to_str().unwrap(),
        "--retry",
        "2",
        "--retry-max-ms",
        "50",
        "ping",
    ]);
    slammer.join().unwrap();
    assert_eq!(out.status.code(), Some(3), "broken pipe is exit 3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("after 3 attempt"),
        "the error counts all attempts: {err}"
    );
}

#[test]
fn client_retry_rides_out_a_late_starting_daemon() {
    let dir = temp_dir("clientretry");
    let socket = dir.join("late.sock");
    let _ = std::fs::remove_file(&socket);

    // Start the client first: with --retry it backs off and reconnects
    // until the daemon appears.
    let client = Command::new(env!("CARGO_BIN_EXE_arrayeq"))
        .args([
            "client",
            "--socket",
            socket.to_str().unwrap(),
            "--retry",
            "20",
            "--retry-max-ms",
            "100",
            "ping",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("client starts");

    std::thread::sleep(std::time::Duration::from_millis(150));
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_arrayeq"))
        .args(["serve", "--socket", socket.to_str().unwrap()])
        .spawn()
        .expect("daemon starts");

    let out = client.wait_with_output().expect("client finishes");
    assert_eq!(
        out.status.code(),
        Some(0),
        "retrying client succeeds once the daemon is up: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("pong"));

    let down = arrayeq(&["client", "--socket", socket.to_str().unwrap(), "shutdown"]);
    assert_eq!(down.status.code(), Some(0));
    assert_eq!(daemon.wait().unwrap().code(), Some(0));
}
