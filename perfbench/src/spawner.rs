//! A helper process that runs the `arrayeq` CLI on the benchmark's behalf.
//!
//! Linux charges a child's peak memory with the peak of the process it was
//! spawned from, so CLI processes spawned by the benchmark itself would
//! report the benchmark's own set-up peak.  The helper is started before
//! set-up, while it is still small, and spawns every CLI process: the peak
//! it reports is the CLI's.  It also times each process from spawn to exit,
//! so the pipe between the two processes stays out of the latency.
//!
//! Protocol: one request line of tab-separated arguments; one reply line
//! `code latency_us peak_rss_kib stdout_len stderr_len`, then the raw
//! stdout and stderr bytes.

use crate::run::RunError;
use crate::sys;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The flag that turns the benchmark binary into the helper.
pub const FLAG: &str = "--spawner";

/// One finished CLI process.
#[derive(Debug)]
pub struct Ran {
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Spawn to exit, microseconds.
    pub latency_us: f64,
    /// Largest peak resident set of the processes run so far, MiB.
    pub peak_rss_mb: f64,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: Vec<u8>,
}

/// The helper's main loop: runs until its stdin closes.
pub fn serve() -> Result<(), RunError> {
    let stdin = std::io::stdin().lock();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lines() {
        let line = line?;
        let mut args = line.split('\t');
        let program = args.next().ok_or("empty spawn request")?;
        let started = Instant::now();
        let out = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .output()?;
        let latency_us = started.elapsed().as_secs_f64() * 1e6;
        let peak_kib = sys::children_peak_rss_mb().unwrap_or(0.0) * 1024.0;
        writeln!(
            stdout,
            "{} {latency_us} {peak_kib} {} {}",
            out.status.code().unwrap_or(-1),
            out.stdout.len(),
            out.stderr.len()
        )?;
        stdout.write_all(&out.stdout)?;
        stdout.write_all(&out.stderr)?;
        stdout.flush()?;
    }
    Ok(())
}

/// The benchmark's handle on the helper.
pub struct Spawner {
    child: Child,
    to: Option<ChildStdin>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    /// Starts the helper (this binary with [`FLAG`]).
    pub fn start() -> Result<Spawner, RunError> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child.stdin.take().ok_or("helper stdin")?;
        let from = BufReader::new(child.stdout.take().ok_or("helper stdout")?);
        Ok(Spawner {
            child,
            to: Some(to),
            from,
        })
    }

    /// Runs `program args…` to completion.
    pub fn run(&mut self, program: &str, args: &[String]) -> Result<Ran, RunError> {
        let mut line = program.to_string();
        for a in args {
            if a.contains(['\t', '\n']) {
                return Err(format!("argument `{a}` cannot be sent to the helper").into());
            }
            line.push('\t');
            line.push_str(a);
        }
        let to = self.to.as_mut().ok_or("helper already closed")?;
        writeln!(to, "{line}")?;
        to.flush()?;
        let mut header = String::new();
        if self.from.read_line(&mut header)? == 0 {
            return Err("the helper exited".into());
        }
        let f: Vec<f64> = header
            .split_whitespace()
            .map(|x| x.parse::<f64>())
            .collect::<Result<_, _>>()?;
        let [code, latency_us, peak_kib, out_len, err_len] = f[..] else {
            return Err(format!("malformed helper reply `{header}`").into());
        };
        let mut stdout = vec![0; out_len as usize];
        self.from.read_exact(&mut stdout)?;
        let mut stderr = vec![0; err_len as usize];
        self.from.read_exact(&mut stderr)?;
        Ok(Ran {
            code: (code >= 0.0).then_some(code as i32),
            latency_us,
            peak_rss_mb: peak_kib / 1024.0,
            stdout,
            stderr,
        })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // Closing stdin ends the helper's loop; wait so no process outlives
        // the run.
        drop(self.to.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
        }
    }
}
