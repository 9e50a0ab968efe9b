//! Concurrent daemon sessions: N client threads over one Unix socket, mixed
//! equivalent and fault-corpus requests, per-client verdict correctness,
//! cross-client shared-table reuse, and budget/cancellation isolation — one
//! client's limits never leak into another's verdict.

use arrayeq_engine::{JsonValue, Verifier};
use arrayeq_lang::corpus::{FIG1_A, FIG1_B, FIG1_C};
use arrayeq_lang::pretty::program_to_string;
use arrayeq_serve::client::{
    cancel_request_line, control_request_line, response_verdict, verify_request_line, Client,
    VerifyParams,
};
use arrayeq_serve::{ServeConfig, Server, SpawnedServer};
use arrayeq_transform::mutate::fault_corpus;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("arrayeq-serve-it-{tag}-{}", std::process::id()))
}

fn start_daemon(tag: &str, verifier: Verifier) -> SpawnedServer {
    let socket = tmp_path(&format!("{tag}.sock"));
    let _ = fs::remove_file(&socket);
    SpawnedServer::start(Server::new(verifier, ServeConfig::default()), socket).unwrap()
}

#[test]
fn concurrent_clients_get_correct_verdicts_and_share_the_table() {
    let daemon = start_daemon("concurrent", Verifier::new());
    let corpus: Vec<(String, String, bool)> = {
        let mut pairs = vec![(FIG1_A.to_owned(), FIG1_C.to_owned(), true)];
        for case in fault_corpus().into_iter().take(3) {
            pairs.push((
                program_to_string(&case.original),
                program_to_string(&case.mutant),
                false,
            ));
        }
        pairs
    };

    std::thread::scope(|scope| {
        for client_no in 0..4u64 {
            let socket = daemon.socket().to_path_buf();
            let corpus = &corpus;
            scope.spawn(move || {
                let mut client = Client::connect(&socket).unwrap();
                assert!(client.greeting().contains("arrayeq-serve-v1"));
                for (i, (original, transformed, equivalent)) in corpus.iter().enumerate() {
                    let id = client_no * 100 + i as u64;
                    let response = client.verify(id, original, transformed).unwrap();
                    let verdict = response_verdict(&response).unwrap();
                    let expected = if *equivalent {
                        "equivalent"
                    } else {
                        "not_equivalent"
                    };
                    assert_eq!(verdict, expected, "client {client_no} pair {i}: {response}");
                    let v = JsonValue::parse(&response).unwrap();
                    assert_eq!(v.get("id").and_then(JsonValue::as_i64), Some(id as i64));
                }
            });
        }
    });

    // All four clients verified the same pairs against one engine: the
    // later ones must have discharged sub-proofs from the shared table.
    let mut client = Client::connect(daemon.socket()).unwrap();
    let stats = client.request(&control_request_line(1, "stats")).unwrap();
    let v = JsonValue::parse(&stats).unwrap();
    let session = v.get("result").and_then(|r| r.get("session")).unwrap();
    let queries = session.get("queries").and_then(JsonValue::as_i64).unwrap();
    let hits = session
        .get("shared_table_hits")
        .and_then(JsonValue::as_i64)
        .unwrap();
    assert_eq!(queries, 4 * corpus.len() as i64);
    assert!(hits > 0, "cross-client shared-table reuse: {stats}");
    drop(client);
    daemon.stop().unwrap();
}

#[test]
fn budgets_and_cancellation_stay_per_client() {
    let daemon = start_daemon("isolation", Verifier::new());

    std::thread::scope(|scope| {
        // Client A: starved budget -> inconclusive with a typed reason.
        let socket_a = daemon.socket().to_path_buf();
        scope.spawn(move || {
            let mut a = Client::connect(&socket_a).unwrap();
            let line = verify_request_line(
                1,
                FIG1_A,
                FIG1_C,
                &VerifyParams {
                    max_work: Some(1),
                    ..VerifyParams::default()
                },
            );
            let response = a.request(&line).unwrap();
            assert_eq!(response_verdict(&response).unwrap(), "inconclusive");
            let v = JsonValue::parse(&response).unwrap();
            let reason = v
                .get("result")
                .and_then(|r| r.get("report"))
                .and_then(|r| r.get("budget_exhausted"))
                .and_then(|b| b.get("reason"))
                .and_then(JsonValue::as_str)
                .map(str::to_owned);
            assert_eq!(reason.as_deref(), Some("work_limit"), "{response}");
        });

        // Client B, concurrently: full budget -> equivalent, untouched by
        // A's starvation.  It checks a different pair: a root proof of A's
        // pair published by B would let A's one allowed visit discharge
        // from the shared table.
        let socket_b = daemon.socket().to_path_buf();
        scope.spawn(move || {
            let mut b = Client::connect(&socket_b).unwrap();
            let response = b.verify(2, FIG1_A, FIG1_B).unwrap();
            assert_eq!(
                response_verdict(&response).unwrap(),
                "equivalent",
                "{response}"
            );
        });
    });

    // Cancellation is connection-scoped: cancelling an id that only exists
    // on another connection is a no-op.
    let mut a = Client::connect(daemon.socket()).unwrap();
    let mut b = Client::connect(daemon.socket()).unwrap();
    a.send(&verify_request_line(
        7,
        FIG1_A,
        FIG1_C,
        &VerifyParams::default(),
    ))
    .unwrap();
    let cancel = b.request(&cancel_request_line(8, 7)).unwrap();
    let v = JsonValue::parse(&cancel).unwrap();
    assert_eq!(
        v.get("result")
            .and_then(|r| r.get("cancelled"))
            .and_then(JsonValue::as_bool),
        Some(false),
        "other connections' ids are invisible: {cancel}"
    );
    let response = a.recv().unwrap();
    assert_eq!(response_verdict(&response).unwrap(), "equivalent");

    // Cancelling on the owning connection cancels (or races completion —
    // both are legal), but either way B's parallel request is untouched.
    a.send(&verify_request_line(
        9,
        FIG1_A,
        FIG1_C,
        &VerifyParams::default(),
    ))
    .unwrap();
    a.send(&cancel_request_line(10, 9)).unwrap();
    let mut verdicts = Vec::new();
    for _ in 0..2 {
        let line = a.recv().unwrap();
        let v = JsonValue::parse(&line).unwrap();
        if v.get("id").and_then(JsonValue::as_i64) == Some(9) {
            verdicts.push(response_verdict(&line).unwrap());
        }
    }
    assert_eq!(verdicts.len(), 1);
    assert!(
        verdicts[0] == "equivalent" || verdicts[0] == "inconclusive",
        "cancel races completion: {verdicts:?}"
    );
    let response = b.verify(11, FIG1_A, FIG1_C).unwrap();
    assert_eq!(response_verdict(&response).unwrap(), "equivalent");
    drop((a, b));
    daemon.stop().unwrap();
}

#[test]
fn shutdown_drains_queued_work_and_flushes_the_store() {
    let dir = tmp_path("drain-store");
    let _ = fs::remove_dir_all(&dir);

    let daemon = start_daemon("drain", Verifier::builder().store(&dir).build());
    let mut client = Client::connect(daemon.socket()).unwrap();
    // Queue a verify and immediately request shutdown: the queued check
    // must still complete and answer before the connection closes.
    client
        .send(&verify_request_line(
            1,
            FIG1_A,
            FIG1_C,
            &VerifyParams::default(),
        ))
        .unwrap();
    client.send(&control_request_line(2, "shutdown")).unwrap();
    let mut saw_verdict = false;
    let mut saw_shutdown = false;
    while let Ok(line) = client.recv() {
        let v = JsonValue::parse(&line).unwrap();
        match v.get("id").and_then(JsonValue::as_i64) {
            Some(1) => {
                assert_eq!(response_verdict(&line).unwrap(), "equivalent");
                saw_verdict = true;
            }
            Some(2) => saw_shutdown = true,
            other => panic!("unexpected response id {other:?}: {line}"),
        }
        if saw_verdict && saw_shutdown {
            break;
        }
    }
    assert!(saw_verdict, "queued verify drained before close");
    assert!(saw_shutdown);
    drop(client);
    daemon.stop().unwrap();

    // The shutdown path flushed: a fresh daemon on the same store starts
    // warm and discharges sub-proofs from disk.
    let daemon = start_daemon("drain2", Verifier::builder().store(&dir).build());
    assert!(daemon.server().verifier().store_warnings().is_empty());
    let mut client = Client::connect(daemon.socket()).unwrap();
    assert!(client.greeting().contains("\"store\":true"));
    let response = client.verify(1, FIG1_A, FIG1_C).unwrap();
    assert_eq!(response_verdict(&response).unwrap(), "equivalent");
    let v = JsonValue::parse(&response).unwrap();
    let store_hits = v
        .get("result")
        .and_then(|r| r.get("report"))
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("store_hits"))
        .and_then(JsonValue::as_i64)
        .unwrap();
    assert!(store_hits > 0, "restarted daemon starts warm: {response}");
    drop(client);
    daemon.stop().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

/// A `Write + Send` sink over shared memory for driving `run_session`
/// without a socket.
#[derive(Clone)]
struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn in_memory_session_speaks_the_protocol() {
    let server = Server::new(Verifier::new(), ServeConfig::default());
    let script = format!(
        "{}\n{}\nnot json at all\n{}\n",
        control_request_line(1, "ping"),
        verify_request_line(2, FIG1_A, FIG1_C, &VerifyParams::default()),
        control_request_line(3, "checkpoint"),
    );
    let out = SharedSink(Arc::new(Mutex::new(Vec::new())));
    server.run_session(script.as_bytes(), out.clone()).unwrap();

    let bytes = out.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Greeting + 4 responses (EOF ends the session without shutdown).
    assert_eq!(lines.len(), 5, "{text}");
    let greeting = JsonValue::parse(lines[0]).unwrap();
    assert_eq!(
        greeting.get("format").and_then(JsonValue::as_str),
        Some("arrayeq-serve-v1")
    );
    let by_id = |id: i64| {
        lines[1..]
            .iter()
            .map(|l| JsonValue::parse(l).unwrap())
            .find(|v| v.get("id").and_then(JsonValue::as_i64) == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}: {text}"))
    };
    assert_eq!(
        by_id(1)
            .get("result")
            .and_then(|r| r.get("pong"))
            .and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(
        response_verdict(lines[1..].iter().find(|l| l.contains("\"id\":2")).unwrap()).unwrap(),
        "equivalent"
    );
    // Checkpoint without a store: ok with a null epoch.
    let cp = by_id(3);
    assert_eq!(cp.get("ok").and_then(JsonValue::as_bool), Some(true));
    // The malformed line produced an id-less error.
    let err = lines[1..]
        .iter()
        .map(|l| JsonValue::parse(l).unwrap())
        .find(|v| v.get("ok").and_then(JsonValue::as_bool) == Some(false))
        .expect("malformed line answered");
    assert!(err
        .get("error")
        .and_then(JsonValue::as_str)
        .unwrap()
        .contains("malformed"));
}
