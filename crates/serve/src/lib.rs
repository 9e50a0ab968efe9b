//! # arrayeq-serve
//!
//! The verification daemon: a line-JSON protocol server multiplexing
//! concurrent client sessions onto one shared [`Verifier`], so many
//! short-lived clients hit one warm brain instead of each rebuilding the
//! engine's caches from nothing.
//!
//! Design:
//!
//! * **One engine, many sessions.**  Every connection gets a reader thread
//!   and a worker thread; verifies run sequentially *per connection* and
//!   concurrently *across* connections, all against the same
//!   [`Verifier`] — so one client's established sub-proofs discharge
//!   another client's sub-traversals through the engine's proof cache.
//! * **Per-request budgets.**  `deadline_ms`, `max_work` and `witnesses`
//!   map onto the [`arrayeq_engine::RequestLimits`] that each verify's
//!   [`VerifyRequest`] carries into [`Verifier::verify`]; budgets are not
//!   verdict-relevant, so mixed-budget clients share the caches soundly.
//!   A budget key of the wrong type is a protocol error naming the key.
//! * **Cooperative cancellation.**  Each verify gets its own
//!   [`CancelToken`] in its limits, registered while queued or in flight;
//!   `cancel` control messages are handled on the reader thread, so they
//!   overtake the queue.  One client's cancellation can never touch
//!   another client's request.
//! * **Graceful shutdown.**  `shutdown` (or EOF on stdio) stops intake,
//!   drains every in-flight and queued check, flushes the persistent store
//!   and only then returns.
//! * **Persistent store.**  When the engine carries a
//!   [`arrayeq_engine::ProofStore`], the server flushes it every
//!   [`ServeConfig::flush_every`] verifies, on `checkpoint` commands and on
//!   shutdown — so the next process (daemon or one-shot CLI) starts warm.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;

use arrayeq_engine::{
    outcome_to_json, session_to_json, CancelToken, RequestLimits, Verifier, VerifyRequest,
};
use protocol::{err_response, greeting, ok_response, parse_request, Request};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush the persistent store after this many completed verifies
    /// (0 flushes only on `checkpoint` and shutdown).
    pub flush_every: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { flush_every: 64 }
    }
}

/// One verification daemon: a shared engine plus the connection plumbing.
/// Construct with [`Server::new`], then run [`Server::run_unix`] or
/// [`Server::run_stdio`].
pub struct Server {
    verifier: Arc<Verifier>,
    config: ServeConfig,
    shutdown: AtomicBool,
    verifies_done: AtomicUsize,
    /// Read-halves of live socket connections, shut down to unblock their
    /// readers when shutdown is requested.
    live: Mutex<Vec<UnixStream>>,
    /// The socket the acceptor is blocked on, so `request_shutdown` can
    /// poke it awake with a throwaway connection.
    listen_path: Mutex<Option<PathBuf>>,
}

/// Work queued from a session's reader thread to its worker thread.
enum Job {
    Verify { id: u64, request: VerifyRequest },
    Checkpoint { id: u64 },
}

impl Server {
    /// Wraps an engine into a server.
    pub fn new(verifier: Verifier, config: ServeConfig) -> Arc<Server> {
        Arc::new(Server {
            verifier: Arc::new(verifier),
            config,
            shutdown: AtomicBool::new(false),
            verifies_done: AtomicUsize::new(0),
            live: Mutex::new(Vec::new()),
            listen_path: Mutex::new(None),
        })
    }

    /// The shared engine (for tests and embedding).
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Whether graceful shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests graceful shutdown: stops intake and unblocks every
    /// connection's reader.  In-flight and queued checks still drain.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let live = self.live.lock().unwrap();
        for stream in live.iter() {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        drop(live);
        // Wake the acceptor so it observes the flag: a blocked `accept`
        // only returns when someone connects.
        if let Some(path) = self.listen_path.lock().unwrap().as_ref() {
            let _ = UnixStream::connect(path);
        }
    }

    /// Serves connections on a Unix socket at `path` until a client sends
    /// `shutdown`.  Drains every session, flushes the store, removes the
    /// socket file.
    ///
    /// # Errors
    ///
    /// Propagates failures binding the socket and flushing the store;
    /// per-connection I/O errors only end their own session.
    pub fn run_unix(self: &Arc<Self>, path: &Path) -> io::Result<()> {
        // A stale socket file from a crashed daemon would make bind fail.
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        *self.listen_path.lock().unwrap() = Some(path.to_path_buf());
        std::thread::scope(|scope| -> io::Result<()> {
            for conn in listener.incoming() {
                if self.shutdown_requested() {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                if self.shutdown_requested() {
                    break;
                }
                self.live.lock().unwrap().push(stream.try_clone()?);
                let server = Arc::clone(self);
                scope.spawn(move || {
                    let reader = BufReader::new(match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => return,
                    });
                    let _ = server.run_session(reader, stream);
                });
            }
            Ok(())
        })?;
        *self.listen_path.lock().unwrap() = None;
        let _ = std::fs::remove_file(path);
        self.verifier.flush_store()?;
        Ok(())
    }

    /// Serves exactly one session on stdin/stdout (`arrayeq serve --stdio`).
    /// EOF or a `shutdown` command ends it; the store is flushed before
    /// returning.
    ///
    /// # Errors
    ///
    /// Propagates session I/O failures and store flush failures.
    pub fn run_stdio(self: &Arc<Self>) -> io::Result<()> {
        let stdin = io::stdin().lock();
        self.run_session(stdin, io::stdout())?;
        self.verifier.flush_store()?;
        Ok(())
    }

    /// Runs one client session: greeting, then request lines until EOF or
    /// shutdown.  Control messages (`ping`, `stats`, `cancel`, `shutdown`)
    /// are answered on the reader thread immediately; `verify` and
    /// `checkpoint` queue to this session's worker thread, which runs them
    /// in order and concurrently with other sessions.
    ///
    /// Generic over the transport so tests can drive it with in-memory
    /// buffers.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures; read failures end the session
    /// cleanly (the peer is gone).
    pub fn run_session<R, W>(&self, mut reader: R, writer: W) -> io::Result<()>
    where
        R: BufRead,
        W: Write + Send,
    {
        let writer = Arc::new(Mutex::new(writer));
        write_line(
            &writer,
            &greeting(
                self.verifier.options_fingerprint(),
                self.verifier.has_store(),
            ),
        )?;
        // Tokens of queued/in-flight verifies of THIS session, so `cancel`
        // is connection-scoped by construction.
        let active: Mutex<HashMap<u64, CancelToken>> = Mutex::new(HashMap::new());
        let (tx, rx) = mpsc::channel::<Job>();

        std::thread::scope(|scope| -> io::Result<()> {
            let worker_writer = Arc::clone(&writer);
            let worker_active = &active;
            let worker = scope.spawn(move || -> io::Result<()> {
                for job in rx {
                    let line = self.run_job(job, worker_active);
                    write_line(&worker_writer, &line)?;
                }
                Ok(())
            });

            let mut line = String::new();
            loop {
                if self.shutdown_requested() {
                    break;
                }
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => break,  // EOF: client hung up
                    Err(_) => break, // peer gone or read side shut down
                    Ok(_) => {}
                }
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match parse_request(trimmed) {
                    Err(e) => write_line(&writer, &err_response(e.id, &e.message))?,
                    Ok(Request::Ping { id }) => {
                        write_line(&writer, &ok_response(id, "{\"pong\":true}"))?
                    }
                    Ok(Request::Stats { id }) => {
                        let result = format!(
                            "{{\"session\":{},\"store_attached\":{},\"store_epoch\":{}}}",
                            session_to_json(&self.verifier.session_stats()),
                            self.verifier.has_store(),
                            match self.verifier.store_epoch() {
                                Some(e) => e.to_string(),
                                None => "null".into(),
                            },
                        );
                        write_line(&writer, &ok_response(id, &result))?;
                    }
                    Ok(Request::Cancel { id, target }) => {
                        let cancelled = match active.lock().unwrap().get(&target) {
                            Some(token) => {
                                token.cancel();
                                true
                            }
                            None => false,
                        };
                        let result = format!("{{\"cancelled\":{cancelled}}}");
                        write_line(&writer, &ok_response(id, &result))?;
                    }
                    Ok(Request::Shutdown { id }) => {
                        write_line(&writer, &ok_response(id, "{\"shutting_down\":true}"))?;
                        self.request_shutdown();
                        break;
                    }
                    Ok(Request::Verify {
                        id,
                        original,
                        transformed,
                        witnesses,
                        deadline_ms,
                        max_work,
                    }) => {
                        let token = CancelToken::new();
                        active.lock().unwrap().insert(id, token.clone());
                        let limits = RequestLimits {
                            deadline: deadline_ms.map(Duration::from_millis),
                            max_work,
                            witnesses,
                            cancel: Some(token),
                        };
                        let job = Job::Verify {
                            id,
                            request: VerifyRequest::source(original, transformed)
                                .with_limits(limits),
                        };
                        if tx.send(job).is_err() {
                            break; // worker died; session is over
                        }
                    }
                    Ok(Request::Checkpoint { id }) => {
                        if tx.send(Job::Checkpoint { id }).is_err() {
                            break;
                        }
                    }
                }
            }
            // Closing the channel lets the worker drain the queue and exit:
            // graceful shutdown finishes queued checks rather than dropping
            // them.
            drop(tx);
            worker.join().expect("session worker never panics")
        })
    }

    /// Runs one queued job on the shared engine and renders its response.
    fn run_job(&self, job: Job, active: &Mutex<HashMap<u64, CancelToken>>) -> String {
        match job {
            Job::Verify { id, request } => {
                // Per-request panic isolation: a panicking check answers
                // *this* request `ok:false` while the session worker, every
                // other connection and the engine keep going.  The shared
                // caches need no quarantine — entries are complete
                // single-put facts, never partially published mid-check.
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    injected_panic(id);
                    self.verifier.verify(&request)
                }));
                let response = match outcome {
                    Ok(Ok(outcome)) => ok_response(id, &outcome_to_json(&outcome)),
                    Ok(Err(e)) => err_response(Some(id), &e.to_string()),
                    Err(payload) => {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "<non-string panic payload>".into());
                        err_response(Some(id), &format!("verification worker panicked: {msg}"))
                    }
                };
                active.lock().unwrap().remove(&id);
                let done = self.verifies_done.fetch_add(1, Ordering::Relaxed) + 1;
                if self.config.flush_every > 0 && done.is_multiple_of(self.config.flush_every) {
                    // Periodic persistence is best-effort; shutdown flushes
                    // authoritatively and surfaces errors.
                    let _ = self.verifier.flush_store();
                }
                response
            }
            Job::Checkpoint { id } => match self.verifier.checkpoint_store() {
                Ok(Some(epoch)) => ok_response(id, &format!("{{\"epoch\":{epoch}}}")),
                Ok(None) => ok_response(id, "{\"epoch\":null}"),
                Err(e) => err_response(Some(id), &format!("checkpoint failed: {e}")),
            },
        }
    }
}

/// Fault injection for the robustness tests: when the environment variable
/// `ARRAYEQ_SERVE_PANIC_IDS` (comma-separated request ids, read once per
/// process) names this verify's id, the handler panics mid-request — driving
/// the `catch_unwind` containment in [`Server::run_job`] from outside the
/// process.  Unset in production, this is a no-op.
fn injected_panic(id: u64) {
    static IDS: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let ids = IDS.get_or_init(|| {
        std::env::var("ARRAYEQ_SERVE_PANIC_IDS")
            .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
            .unwrap_or_default()
    });
    if ids.contains(&id) {
        panic!("injected request panic (id {id})");
    }
}

/// Writes one response line and flushes (line-delimited protocol: the peer
/// blocks on whole lines).
fn write_line<W: Write>(writer: &Arc<Mutex<W>>, line: &str) -> io::Result<()> {
    let mut w = writer.lock().unwrap();
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// A convenience handle for a daemon spawned on a background thread of the
/// current process (bench and tests; production runs `arrayeq serve`).
pub struct SpawnedServer {
    server: Arc<Server>,
    socket: PathBuf,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl SpawnedServer {
    /// Starts `server` on `socket` in a background thread and waits until
    /// the socket accepts connections.
    ///
    /// # Errors
    ///
    /// Fails when the socket never comes up (bind failure in the server
    /// thread).
    pub fn start(server: Arc<Server>, socket: PathBuf) -> io::Result<SpawnedServer> {
        let thread_server = Arc::clone(&server);
        let thread_socket = socket.clone();
        let thread = std::thread::spawn(move || thread_server.run_unix(&thread_socket));
        // Poll for the socket to come up.
        for _ in 0..200 {
            if UnixStream::connect(&socket).is_ok() {
                return Ok(SpawnedServer {
                    server,
                    socket,
                    thread: Some(thread),
                });
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "server socket never came up",
        ))
    }

    /// The socket path clients should connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The server handle.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Requests shutdown (waking the acceptor) and joins the server thread.
    ///
    /// # Errors
    ///
    /// Propagates the server thread's exit result.
    pub fn stop(mut self) -> io::Result<()> {
        self.server.request_shutdown();
        // Wake the acceptor so it observes the flag.
        let _ = UnixStream::connect(&self.socket);
        match self.thread.take() {
            Some(t) => t.join().expect("server thread never panics"),
            None => Ok(()),
        }
    }
}
