//! The daemon's wire protocol: line-delimited JSON over a Unix socket or
//! stdio, built on the engine's hand-rolled [`JsonValue`] (no serde).
//!
//! Every request is one line, an object with a client-chosen numeric `id`
//! and a `cmd`:
//!
//! ```json
//! {"id":1,"cmd":"verify","original":"<C source>","transformed":"<C source>",
//!  "witnesses":true,"deadline_ms":5000,"max_work":1000000}
//! {"id":2,"cmd":"ping"}
//! {"id":3,"cmd":"stats"}
//! {"id":4,"cmd":"cancel","target":1}
//! {"id":5,"cmd":"checkpoint"}
//! {"id":6,"cmd":"shutdown"}
//! ```
//!
//! Every response is one line echoing the id:
//!
//! ```json
//! {"id":1,"ok":true,"result":{...}}
//! {"id":7,"ok":false,"error":"..."}
//! ```
//!
//! On connect the server sends a greeting line carrying the protocol format
//! marker, the engine's options fingerprint (the PR 6 compatibility key) and
//! whether a persistent store is attached.  `verify` responses embed the
//! full engine outcome document ([`arrayeq_engine::outcome_to_json`]);
//! budget fields (`deadline_ms`, `max_work`, `witnesses`) override the
//! engine defaults per request and are never verdict-relevant.

use arrayeq_engine::{json_string, JsonValue};

/// Magic string identifying the protocol (bumped on breaking changes).
pub const PROTOCOL_FORMAT: &str = "arrayeq-serve-v1";

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Verify a source pair, with optional per-request budget overrides.
    Verify {
        /// Client-chosen request id, echoed in the response.
        id: u64,
        /// Original program source text.
        original: String,
        /// Transformed program source text.
        transformed: String,
        /// Per-request witness-extraction override.
        witnesses: Option<bool>,
        /// Per-request wall-clock budget in milliseconds.
        deadline_ms: Option<u64>,
        /// Per-request traversal work budget.
        max_work: Option<u64>,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen request id.
        id: u64,
    },
    /// Session statistics snapshot (cumulative, engine-wide).
    Stats {
        /// Client-chosen request id.
        id: u64,
    },
    /// Cancel the in-flight or queued verify with id `target` *on this
    /// connection*.
    Cancel {
        /// Client-chosen request id.
        id: u64,
        /// The id of the verify request to cancel.
        target: u64,
    },
    /// Flush and compact the persistent store now.
    Checkpoint {
        /// Client-chosen request id.
        id: u64,
    },
    /// Gracefully shut the server down: drain in-flight checks, flush the
    /// store, close every connection.
    Shutdown {
        /// Client-chosen request id.
        id: u64,
    },
}

impl Request {
    /// The client-chosen id of any request variant.
    pub fn id(&self) -> u64 {
        match self {
            Request::Verify { id, .. }
            | Request::Ping { id }
            | Request::Stats { id }
            | Request::Cancel { id, .. }
            | Request::Checkpoint { id }
            | Request::Shutdown { id } => *id,
        }
    }
}

/// A protocol-level parse failure: the response should echo `id` when the
/// line got far enough to carry one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The request id, when one could be extracted.
    pub id: Option<u64>,
    /// What was wrong with the line.
    pub message: String,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtocolError`] (carrying the id when present) on malformed
/// JSON, a missing/unknown `cmd`, missing command arguments, or a number or
/// flag of the wrong type or sign.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let err = |id: Option<u64>, message: String| ProtocolError { id, message };
    let v = JsonValue::parse(line).map_err(|e| err(None, format!("malformed request: {e}")))?;
    // A present key of the wrong type or sign is rejected, never ignored or
    // cast: read as absent, `"max_work":"1"` would run unbudgeted, and
    // `-1 as u64` would turn a budget into a practically unlimited one.
    let uint = |key: &str, id: Option<u64>| -> Result<Option<u64>, ProtocolError> {
        match v.get(key) {
            None => Ok(None),
            Some(JsonValue::Int(n)) => u64::try_from(*n)
                .map(Some)
                .map_err(|_| err(id, format!("`{key}` must be non-negative, got {n}"))),
            Some(_) => Err(err(id, format!("`{key}` must be a non-negative integer"))),
        }
    };
    let Some(id) = uint("id", None)? else {
        return Err(err(None, "request without numeric `id`".into()));
    };
    let cmd = v
        .get("cmd")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| err(Some(id), "request without `cmd`".into()))?;
    let opt_u64 = |key: &str| uint(key, Some(id));
    match cmd {
        "verify" => {
            let original = v
                .get("original")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| err(Some(id), "verify without `original`".into()))?
                .to_owned();
            let transformed = v
                .get("transformed")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| err(Some(id), "verify without `transformed`".into()))?
                .to_owned();
            let witnesses = match v.get("witnesses") {
                None => None,
                Some(JsonValue::Bool(b)) => Some(*b),
                Some(_) => return Err(err(Some(id), "`witnesses` must be a boolean".into())),
            };
            Ok(Request::Verify {
                id,
                original,
                transformed,
                witnesses,
                deadline_ms: opt_u64("deadline_ms")?,
                max_work: opt_u64("max_work")?,
            })
        }
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "cancel" => {
            let target = opt_u64("target")?
                .ok_or_else(|| err(Some(id), "cancel without numeric `target`".into()))?;
            Ok(Request::Cancel { id, target })
        }
        "checkpoint" => Ok(Request::Checkpoint { id }),
        "shutdown" => Ok(Request::Shutdown { id }),
        other => Err(err(Some(id), format!("unknown cmd `{other}`"))),
    }
}

/// Renders the greeting line sent once per connection.
pub fn greeting(options_fp: u64, store_attached: bool) -> String {
    format!(
        "{{\"format\":{},\"options_fp\":{},\"store\":{}}}",
        json_string(PROTOCOL_FORMAT),
        arrayeq_engine::hex64(options_fp),
        store_attached,
    )
}

/// Renders a success response wrapping an already-rendered JSON `result`.
pub fn ok_response(id: u64, result_json: &str) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"result\":{result_json}}}")
}

/// Renders an error response (id `null` when the request never yielded one).
pub fn err_response(id: Option<u64>, message: &str) -> String {
    let id = match id {
        Some(id) => id.to_string(),
        None => "null".into(),
    };
    format!(
        "{{\"id\":{id},\"ok\":false,\"error\":{}}}",
        json_string(message)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_round_trips_with_budget_overrides() {
        let line = "{\"id\":7,\"cmd\":\"verify\",\"original\":\"int a;\",\
                    \"transformed\":\"int b;\",\"witnesses\":true,\
                    \"deadline_ms\":250,\"max_work\":9999}";
        let req = parse_request(line).unwrap();
        assert_eq!(
            req,
            Request::Verify {
                id: 7,
                original: "int a;".into(),
                transformed: "int b;".into(),
                witnesses: Some(true),
                deadline_ms: Some(250),
                max_work: Some(9999),
            }
        );
        assert_eq!(req.id(), 7);
    }

    #[test]
    fn control_commands_parse() {
        assert_eq!(
            parse_request("{\"id\":1,\"cmd\":\"ping\"}").unwrap(),
            Request::Ping { id: 1 }
        );
        assert_eq!(
            parse_request("{\"id\":2,\"cmd\":\"cancel\",\"target\":1}").unwrap(),
            Request::Cancel { id: 2, target: 1 }
        );
        assert_eq!(
            parse_request("{\"id\":3,\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown { id: 3 }
        );
        assert_eq!(
            parse_request("{\"id\":4,\"cmd\":\"checkpoint\"}").unwrap(),
            Request::Checkpoint { id: 4 }
        );
        assert_eq!(
            parse_request("{\"id\":5,\"cmd\":\"stats\"}").unwrap(),
            Request::Stats { id: 5 }
        );
    }

    #[test]
    fn malformed_lines_carry_the_id_when_present() {
        assert_eq!(parse_request("not json").unwrap_err().id, None);
        assert_eq!(parse_request("{\"cmd\":\"ping\"}").unwrap_err().id, None);
        let e = parse_request("{\"id\":9,\"cmd\":\"fly\"}").unwrap_err();
        assert_eq!(e.id, Some(9));
        assert!(e.message.contains("fly"));
        let e = parse_request("{\"id\":9,\"cmd\":\"verify\"}").unwrap_err();
        assert_eq!(e.id, Some(9));
    }

    #[test]
    fn mistyped_or_negative_values_are_rejected_naming_the_key() {
        let verify = |extra: &str| {
            format!(
                "{{\"id\":3,\"cmd\":\"verify\",\"original\":\"a\",\"transformed\":\"b\",{extra}}}"
            )
        };
        for (line, key, id) in [
            ("{\"id\":-1,\"cmd\":\"ping\"}".to_owned(), "id", None),
            (verify("\"deadline_ms\":-1"), "deadline_ms", Some(3)),
            (verify("\"max_work\":-1"), "max_work", Some(3)),
            (
                "{\"id\":4,\"cmd\":\"cancel\",\"target\":-2}".to_owned(),
                "target",
                Some(4),
            ),
            ("{\"id\":\"1\",\"cmd\":\"ping\"}".to_owned(), "id", None),
            (verify("\"deadline_ms\":\"0\""), "deadline_ms", Some(3)),
            (verify("\"deadline_ms\":null"), "deadline_ms", Some(3)),
            (verify("\"max_work\":\"1\""), "max_work", Some(3)),
            (verify("\"max_work\":1.0"), "max_work", Some(3)),
            (verify("\"witnesses\":\"true\""), "witnesses", Some(3)),
            (verify("\"witnesses\":1"), "witnesses", Some(3)),
            (
                "{\"id\":4,\"cmd\":\"cancel\",\"target\":\"1\"}".to_owned(),
                "target",
                Some(4),
            ),
        ] {
            let e = parse_request(&line).unwrap_err();
            assert_eq!(e.id, id, "{line}");
            assert!(e.message.contains(&format!("`{key}`")), "{}", e.message);
        }
    }

    #[test]
    fn responses_and_greeting_are_valid_json() {
        for line in [
            greeting(0xdead_beef, true),
            ok_response(3, "{\"pong\":true}"),
            err_response(None, "nope \"quoted\""),
            err_response(Some(4), "bad"),
        ] {
            JsonValue::parse(&line).unwrap();
        }
        let g = JsonValue::parse(&greeting(7, false)).unwrap();
        assert_eq!(
            g.get("format").and_then(JsonValue::as_str),
            Some(PROTOCOL_FORMAT)
        );
        assert_eq!(g.get("store").and_then(JsonValue::as_bool), Some(false));
    }
}
