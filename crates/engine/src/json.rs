//! Hand-rolled JSON rendering and parsing for engine results.
//!
//! The build environment has no crates.io access, so there is no `serde`;
//! this module renders [`Report`]s, [`CheckStats`], [`Witness`]es and
//! [`SessionStats`] to plain JSON text and provides a small recursive-descent
//! parser ([`JsonValue::parse`]) so the CLI's output can be consumed — and
//! round-trip-tested — without external dependencies.

use crate::{BaselineStatus, Outcome, SessionStats};
use arrayeq_core::{BudgetExhausted, CheckStats, Diagnostic, Report, Verdict, Witness};
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders `s` as a JSON string literal (quoted and escaped).
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Renders a 64-bit fingerprint as a fixed-width lowercase hex *string*.
/// Fingerprints use the full u64 range, and JSON integers are parsed as
/// `i64` here, so a numeric spelling would overflow for half of all hashes.
pub fn hex64(v: u64) -> String {
    format!("\"{v:016x}\"")
}

/// Parses a fingerprint spelled by [`hex64`].
pub fn parse_hex64(v: &JsonValue) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

fn string_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", inner.join(","))
}

fn int_array(items: &[i64]) -> String {
    let inner: Vec<String> = items.iter().map(|v| v.to_string()).collect();
    format!("[{}]", inner.join(","))
}

fn opt_string(s: &Option<String>) -> String {
    match s {
        Some(s) => string(s),
        None => "null".into(),
    }
}

fn opt_int(v: Option<i64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".into(),
    }
}

/// The stable JSON spelling of a verdict (`"equivalent"`,
/// `"not_equivalent"`, `"inconclusive"`).
pub fn verdict_str(v: &Verdict) -> &'static str {
    match v {
        Verdict::Equivalent => "equivalent",
        Verdict::NotEquivalent => "not_equivalent",
        Verdict::Inconclusive => "inconclusive",
    }
}

/// Parses a verdict spelled by [`verdict_str`].
pub fn verdict_from_str(s: &str) -> Option<Verdict> {
    match s {
        "equivalent" => Some(Verdict::Equivalent),
        "not_equivalent" => Some(Verdict::NotEquivalent),
        "inconclusive" => Some(Verdict::Inconclusive),
        _ => None,
    }
}

fn budget_to_json(b: &Option<BudgetExhausted>) -> String {
    match b {
        None => "null".into(),
        Some(BudgetExhausted::WorkLimit { max_work }) => {
            format!("{{\"reason\":\"work_limit\",\"max_work\":{max_work}}}")
        }
        Some(BudgetExhausted::DeadlineExceeded { elapsed_ms }) => {
            format!("{{\"reason\":\"deadline_exceeded\",\"elapsed_ms\":{elapsed_ms}}}")
        }
        Some(BudgetExhausted::Cancelled) => "{\"reason\":\"cancelled\"}".into(),
        Some(BudgetExhausted::ArithOverflow { events }) => {
            format!("{{\"reason\":\"arith_overflow\",\"events\":{events}}}")
        }
        Some(BudgetExhausted::UnsupportedFragment { op }) => {
            format!(
                "{{\"reason\":\"unsupported_fragment\",\"op\":\"{}\"}}",
                escape(op)
            )
        }
        Some(BudgetExhausted::WorkerPanicked { message }) => {
            format!(
                "{{\"reason\":\"worker_panicked\",\"message\":\"{}\"}}",
                escape(message)
            )
        }
    }
}

/// Renders [`CheckStats`] as a JSON object.
pub fn stats_to_json(s: &CheckStats) -> String {
    format!(
        concat!(
            "{{\"paths_compared\":{},\"compositions\":{},\"mapping_equalities\":{},",
            "\"table_lookups\":{},\"table_hits\":{},\"table_entries\":{},",
            "\"hash_collisions\":{},\"flattenings\":{},\"matchings\":{},",
            "\"terms_flattened\":{},\"arena_interns\":{},\"arena_hits\":{},",
            "\"fast_term_matches\":{},\"term_memo_hits\":{},",
            "\"parallel_tasks\":{},\"algebraic_piece_tasks\":{},",
            "\"shared_table_lookups\":{},\"shared_table_hits\":{},",
            "\"shared_table_inserts\":{},\"store_hits\":{},",
            "\"cone_positions\":{},\"baseline_hits\":{},",
            "\"conjuncts_subsumed\":{},\"bigint_fallbacks\":{},",
            "\"check_time_us\":{},\"witness_time_us\":{}}}"
        ),
        s.paths_compared,
        s.compositions,
        s.mapping_equalities,
        s.table_lookups,
        s.table_hits,
        s.table_entries,
        s.hash_collisions,
        s.flattenings,
        s.matchings,
        s.terms_flattened,
        s.arena_interns,
        s.arena_hits,
        s.fast_term_matches,
        s.term_memo_hits,
        s.parallel_tasks,
        s.algebraic_piece_tasks,
        s.shared_table_lookups,
        s.shared_table_hits,
        s.shared_table_inserts,
        s.store_hits,
        s.cone_positions,
        s.baseline_hits,
        s.conjuncts_subsumed,
        s.bigint_fallbacks,
        s.check_time_us,
        s.witness_time_us,
    )
}

/// Rebuilds [`CheckStats`] from an object produced by [`stats_to_json`].
pub fn stats_from_json(v: &JsonValue) -> Option<CheckStats> {
    let g = |k: &str| v.get(k).and_then(JsonValue::as_i64).map(|n| n as u64);
    Some(CheckStats {
        paths_compared: g("paths_compared")?,
        compositions: g("compositions")?,
        mapping_equalities: g("mapping_equalities")?,
        table_lookups: g("table_lookups")?,
        table_hits: g("table_hits")?,
        table_entries: g("table_entries")?,
        hash_collisions: g("hash_collisions")?,
        flattenings: g("flattenings")?,
        matchings: g("matchings")?,
        terms_flattened: g("terms_flattened")?,
        arena_interns: g("arena_interns")?,
        arena_hits: g("arena_hits")?,
        fast_term_matches: g("fast_term_matches")?,
        term_memo_hits: g("term_memo_hits")?,
        parallel_tasks: g("parallel_tasks")?,
        algebraic_piece_tasks: g("algebraic_piece_tasks")?,
        shared_table_lookups: g("shared_table_lookups")?,
        shared_table_hits: g("shared_table_hits")?,
        shared_table_inserts: g("shared_table_inserts")?,
        store_hits: g("store_hits")?,
        cone_positions: g("cone_positions")?,
        baseline_hits: g("baseline_hits")?,
        // Added after the first persisted format: default to 0 so documents
        // written by older builds still parse.
        conjuncts_subsumed: g("conjuncts_subsumed").unwrap_or(0),
        bigint_fallbacks: g("bigint_fallbacks").unwrap_or(0),
        check_time_us: g("check_time_us")?,
        witness_time_us: g("witness_time_us")?,
    })
}

/// Renders a [`Witness`] as a JSON object.
pub fn witness_to_json(w: &Witness) -> String {
    format!(
        concat!(
            "{{\"output\":{},\"point\":{},\"params\":{},\"original_value\":{},",
            "\"transformed_value\":{},\"confirmed\":{},\"replays\":{},",
            "\"original_slice\":{},\"transformed_slice\":{}}}"
        ),
        string(&w.output),
        int_array(&w.point),
        int_array(&w.params),
        opt_int(w.original_value),
        opt_int(w.transformed_value),
        w.confirmed,
        w.replays,
        string_array(&w.original_slice),
        string_array(&w.transformed_slice),
    )
}

fn diagnostic_to_json(d: &Diagnostic) -> String {
    format!(
        concat!(
            "{{\"kind\":{},\"output_array\":{},\"message\":{},",
            "\"original_statements\":{},\"transformed_statements\":{},",
            "\"expressions\":{},\"original_mapping\":{},\"transformed_mapping\":{},",
            "\"failing_domain\":{}}}"
        ),
        string(&format!("{:?}", d.kind)),
        opt_string(&d.output_array),
        string(&d.message),
        string_array(&d.original_statements),
        string_array(&d.transformed_statements),
        string_array(&d.expressions),
        opt_string(&d.original_mapping),
        opt_string(&d.transformed_mapping),
        opt_string(&d.failing_domain.as_ref().map(|s| s.to_string())),
    )
}

/// Renders a full [`Report`] as a JSON object (verdict, typed budget reason,
/// stats, diagnostics, witnesses, blame).
pub fn report_to_json(r: &Report) -> String {
    let diagnostics: Vec<String> = r.diagnostics.iter().map(diagnostic_to_json).collect();
    let witnesses: Vec<String> = r.witnesses.iter().map(witness_to_json).collect();
    let blame: Vec<String> = r
        .blame()
        .iter()
        .map(|(stmt, n)| format!("{{\"statement\":{},\"failing_paths\":{}}}", string(stmt), n))
        .collect();
    // Per-output position fingerprints (hex-string spelled; see `hex64`):
    // what lets a baseline consumer correlate proven entries with source
    // positions.  Empty when the run computed no fingerprints.
    let fingerprints: Vec<String> = r
        .output_fingerprints
        .iter()
        .map(|(name, fa, fb)| {
            format!(
                "{{\"name\":{},\"original_fp\":{},\"transformed_fp\":{}}}",
                string(name),
                hex64(*fa),
                hex64(*fb),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"verdict\":{},\"budget_exhausted\":{},\"outputs_checked\":{},",
            "\"output_fingerprints\":[{}],",
            "\"stats\":{},\"diagnostics\":[{}],\"witnesses\":[{}],\"blame\":[{}]}}"
        ),
        string(verdict_str(&r.verdict)),
        budget_to_json(&r.budget_exhausted),
        string_array(&r.outputs_checked),
        fingerprints.join(","),
        stats_to_json(&r.stats),
        diagnostics.join(","),
        witnesses.join(","),
        blame.join(","),
    )
}

/// Renders [`SessionStats`] as a JSON object.
pub fn session_to_json(s: &SessionStats) -> String {
    format!(
        concat!(
            "{{\"queries\":{},\"equivalent\":{},\"not_equivalent\":{},",
            "\"inconclusive\":{},\"errors\":{},\"shared_table_entries\":{},",
            "\"shared_table_lookups\":{},\"shared_table_hits\":{},",
            "\"table_lookups\":{},\"table_hits\":{},",
            "\"store_hits\":{},\"store_eq_loaded\":{},",
            "\"check_time_us\":{},\"witness_time_us\":{}}}"
        ),
        s.queries,
        s.equivalent,
        s.not_equivalent,
        s.inconclusive,
        s.errors,
        s.shared_table_entries,
        s.shared_table_lookups,
        s.shared_table_hits,
        s.table_lookups,
        s.table_hits,
        s.store_hits,
        s.store_eq_loaded,
        s.check_time_us,
        s.witness_time_us,
    )
}

/// Renders an [`Outcome`] (report + request timing + session snapshot),
/// with a trailing `baseline` member carrying the applied/rejected status
/// when the request carried a baseline.
pub fn outcome_to_json(o: &Outcome) -> String {
    let baseline = match &o.baseline {
        None => String::new(),
        Some(BaselineStatus::Applied {
            entries,
            clean_outputs,
        }) => format!(
            ",\"baseline\":{{\"status\":\"applied\",\"entries\":{},\"clean_outputs\":{}}}",
            entries,
            string_array(clean_outputs),
        ),
        Some(BaselineStatus::Rejected(rejection)) => format!(
            ",\"baseline\":{{\"status\":\"rejected\",\"reason\":{},\"message\":{}}}",
            string(rejection.slug()),
            string(&rejection.to_string()),
        ),
    };
    format!(
        "{{\"report\":{},\"wall_time_us\":{},\"session\":{}{}}}",
        report_to_json(&o.report),
        o.wall_time_us,
        session_to_json(&o.session),
        baseline,
    )
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message on malformed input (including
    /// trailing garbage).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing characters after document".into(),
            });
        }
        Ok(value)
    }

    /// Member of an object, by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), JsonError> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{}`", c as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, format!("expected `{lit}`")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(members));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

/// Parses the four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(at..at + 4)
        .ok_or_else(|| err(at, "truncated \\u escape"))?;
    let hex = std::str::from_utf8(hex).map_err(|_| err(at, "non-ASCII \\u escape"))?;
    u32::from_str_radix(hex, 16).map_err(|_| err(at, "invalid \\u escape"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let scalar = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: a `\uDC00`–`\uDFFF` escape must
                            // follow; the pair combines into one code point.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(err(*pos, "unpaired high surrogate"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            *pos += 6;
                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                        } else if (0xDC00..0xE000).contains(&code) {
                            return Err(err(*pos, "unpaired low surrogate"));
                        } else {
                            code
                        };
                        out.push(
                            char::from_u32(scalar)
                                .ok_or_else(|| err(*pos, "invalid \\u code point"))?,
                        );
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| err(*pos, "invalid UTF-8"))?;
                let c = rest.chars().next().expect("non-empty by get() above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected a value"));
    }
    if is_float {
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| err(start, "invalid number"))
    } else {
        text.parse::<i64>()
            .map(JsonValue::Int)
            .map_err(|_| err(start, "integer out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let v =
            JsonValue::parse(r#"{"a": [1, -2, 3.5], "b": "x\ny", "c": null, "d": true}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[0],
            JsonValue::Int(1)
        );
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2],
            JsonValue::Float(3.5)
        );
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_escapes() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse(r#""\q""#).is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\te\u{1}f — ünïcode";
        let doc = format!("{{\"k\":{}}}", string(nasty));
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = JsonValue::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}"));
        let v = JsonValue::parse("\"A\\u00e9\"").unwrap();
        assert_eq!(v.as_str(), Some("A\u{e9}"));
    }

    #[test]
    fn surrogate_pairs_combine_and_lone_surrogates_fail() {
        // The ensure_ascii spelling of 😀 as emitted by conventional
        // serializers.
        let v = JsonValue::parse("\"\\ud83d\\ude00!\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}!"));
        assert!(JsonValue::parse("\"\\ud83d\"").is_err(), "unpaired high");
        assert!(JsonValue::parse("\"\\ud83dx\"").is_err(), "high + garbage");
        assert!(JsonValue::parse("\"\\ude00\"").is_err(), "unpaired low");
        assert!(
            JsonValue::parse("\"\\ud83d\\u0041\"").is_err(),
            "high followed by a non-surrogate escape"
        );
    }
}
