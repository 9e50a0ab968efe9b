//! The persistent on-disk proof store behind `arrayeq serve` and
//! `arrayeq verify --store`.
//!
//! A store is a directory holding two JSON-lines files:
//!
//! * `snapshot.jsonl` — a compacted snapshot of every persisted entry,
//!   rewritten wholesale on checkpoint (atomically, via temp file + rename);
//! * `log.jsonl` — an append-only log of entries persisted since the last
//!   checkpoint.
//!
//! Both files open with a header line carrying the format marker, the
//! store's *epoch* (bumped on every compaction so a stale log from another
//! compaction generation is never mixed in) and the options fingerprint of
//! the producing engine ([`crate::options_fingerprint`] — the PR 6 guard:
//! sub-proofs are only valid under the same verdict-relevant options).
//! Every entry line ends with a per-line integrity hash over its payload,
//! and the snapshot closes with a footer recording the entry count, so bit
//! flips and truncation are both detected.
//!
//! Entries are the engine's cross-query facts: proven sub-equivalences
//! (`ProofKey`s — rename-invariant content fingerprints, so they mean the
//! same thing in every process, program and machine) and feasibility memo
//! entries (content hashes of the relation tested).  Only positive,
//! assumption-free sub-proofs ever reach the proof cache, so the store
//! inherits the same soundness contract as baselines: a loaded entry
//! discharges a sub-traversal with exactly the verdict a from-scratch run
//! would re-derive, failures always re-derive their diagnostics, and
//! rendered reports stay byte-identical.
//!
//! **Degradation policy:** a store that is corrupt, truncated, from another
//! format version, epoch or options set degrades to a cold start (for the
//! affected file) with a typed [`StoreWarning`] — never a changed verdict,
//! never a crash.  A torn log tail keeps its integrity-valid prefix.  A
//! store produced under *different options* additionally disables writing,
//! so a misdirected `--store` flag can never mix incompatible sub-proofs
//! into somebody else's store.

use crate::json::{hex64, parse_hex64, string, JsonValue};
use arrayeq_core::ProofKey;
use arrayeq_omega::structural_hash_of;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic string identifying the store format (bumped on layout changes).
pub const STORE_FORMAT: &str = "arrayeq-store-v1";

/// Auto-compaction threshold: a flush that would leave more than this many
/// entry lines in the log compacts into a fresh snapshot instead.
const COMPACT_LOG_LINES: usize = 8192;

/// Fault-injection hook: `ARRAYEQ_STORE_FSYNC_DELAY_MS` sleeps this many
/// milliseconds between writing store bytes and making them durable, widening
/// the window in which a `SIGKILL` lands mid-flush so the crash-recovery
/// tests can hit it deterministically.  Unset, empty or unparsable means no
/// delay; the env var is re-read on every flush so a long-lived daemon can
/// be driven from the outside.
fn fsync_delay() {
    if let Some(ms) = std::env::var("ARRAYEQ_STORE_FSYNC_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
    {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

/// Why (part of) a store was ignored at load time.  Every variant degrades
/// to a cold start for the affected file — a warning, never a verdict
/// change or a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreWarningKind {
    /// A header or entry line failed to parse or its integrity hash did not
    /// match (bit flip, partial write, hand editing).
    Corrupt,
    /// The file ends mid-entry or the snapshot footer is missing or
    /// inconsistent; for a log the integrity-valid prefix was kept.
    Truncated,
    /// The file carries an unknown format marker or kind.
    FormatMismatch,
    /// The file was produced under different verdict-relevant options;
    /// writing is disabled too, so incompatible sub-proofs are never mixed.
    OptionsMismatch,
    /// The log belongs to a different compaction generation than the
    /// snapshot.
    EpochMismatch,
    /// The file exists but could not be read.
    Io,
}

/// A typed warning emitted while opening a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreWarning {
    /// What went wrong.
    pub kind: StoreWarningKind,
    /// File the problem was found in (`snapshot.jsonl` or `log.jsonl`).
    pub file: String,
    /// Human-readable description of the first problem found.
    pub message: String,
}

impl StoreWarning {
    /// Stable machine-readable slug for JSON output.
    pub fn slug(&self) -> &'static str {
        match self.kind {
            StoreWarningKind::Corrupt => "corrupt",
            StoreWarningKind::Truncated => "truncated",
            StoreWarningKind::FormatMismatch => "format_mismatch",
            StoreWarningKind::OptionsMismatch => "options_mismatch",
            StoreWarningKind::EpochMismatch => "epoch_mismatch",
            StoreWarningKind::Io => "io",
        }
    }
}

impl fmt::Display for StoreWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proof store {}: {}", self.file, self.message)
    }
}

/// What one [`ProofStore::flush`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFlush {
    /// Equivalence entries newly persisted by this flush.
    pub appended_eq: usize,
    /// Feasibility entries newly persisted by this flush.
    pub appended_fs: usize,
    /// Whether the flush compacted into a fresh snapshot (epoch bump).
    pub compacted: bool,
    /// Whether the flush was skipped because writing is disabled (the store
    /// on disk belongs to a different options set).
    pub disabled: bool,
}

/// Everything loaded from / persisted to one store directory.
struct StoreState {
    /// Entries already durable on disk (snapshot ∪ valid log prefix).
    eq: HashSet<ProofKey>,
    fs: HashMap<u64, bool>,
    /// Entry lines currently in the log file.
    log_lines: usize,
    /// Current compaction generation.
    epoch: u64,
    /// The log had a torn tail (or other damage) at open; the next flush
    /// compacts instead of appending, which rewrites both files cleanly.
    needs_rewrite: bool,
}

/// A persistent store of assumption-free sub-proof entries, shared by the
/// daemon and the one-shot CLI (see the module docs for format and
/// soundness).  All methods take `&self`; the store is safe to share behind
/// an `Arc` across the engine's worker threads.
pub struct ProofStore {
    dir: PathBuf,
    options_fp: u64,
    writes_enabled: bool,
    warnings: Vec<StoreWarning>,
    state: Mutex<StoreState>,
    /// Entry counts as loaded at open time (before any flush).
    loaded_eq: usize,
    loaded_fs: usize,
}

impl ProofStore {
    /// Opens (creating if necessary) the store directory and loads every
    /// valid entry.
    ///
    /// Problems inside the files degrade to a cold start with typed
    /// [`StoreWarning`]s (see [`ProofStore::warnings`]); only failure to
    /// create or access the directory itself is a hard error.
    pub fn open(dir: &Path, options_fp: u64) -> io::Result<ProofStore> {
        fs::create_dir_all(dir)?;
        let mut warnings = Vec::new();
        let mut writes_enabled = true;

        let snap_path = dir.join("snapshot.jsonl");
        let log_path = dir.join("log.jsonl");

        let mut eq = HashSet::new();
        let mut fs_entries = HashMap::new();
        let mut epoch = 0u64;
        let mut needs_rewrite = false;

        // Snapshot: all-or-nothing.  Its entries were written in one
        // compaction, so a single bad line means the write (or the disk)
        // cannot be trusted and the whole file is ignored.
        let mut snapshot_epoch = None;
        match read_optional(&snap_path) {
            Err(e) => warnings.push(StoreWarning {
                kind: StoreWarningKind::Io,
                file: "snapshot.jsonl".into(),
                message: format!("unreadable ({e}); ignoring file"),
            }),
            Ok(None) => {}
            Ok(Some(text)) => match parse_snapshot(&text, options_fp) {
                Ok(loaded) => {
                    snapshot_epoch = Some(loaded.epoch);
                    epoch = loaded.epoch;
                    eq.extend(loaded.eq);
                    fs_entries.extend(loaded.fs);
                }
                Err(w) => {
                    if w.kind == StoreWarningKind::OptionsMismatch
                        || w.kind == StoreWarningKind::FormatMismatch
                    {
                        writes_enabled = false;
                    }
                    warnings.push(w);
                }
            },
        }

        // Log: prefix-valid.  Entries are appended one at a time, so a torn
        // tail invalidates only the lines from the first bad one on.
        match read_optional(&log_path) {
            Err(e) => warnings.push(StoreWarning {
                kind: StoreWarningKind::Io,
                file: "log.jsonl".into(),
                message: format!("unreadable ({e}); ignoring file"),
            }),
            Ok(None) => {}
            Ok(Some(text)) => {
                let parsed = parse_log(&text, options_fp, snapshot_epoch);
                if let Some(w) = parsed.warning {
                    if w.kind == StoreWarningKind::OptionsMismatch
                        || w.kind == StoreWarningKind::FormatMismatch
                    {
                        writes_enabled = false;
                    }
                    needs_rewrite = true;
                    warnings.push(w);
                }
                if let Some(log_epoch) = parsed.epoch {
                    // With no valid snapshot the log's generation is the
                    // store's generation.
                    if snapshot_epoch.is_none() {
                        epoch = log_epoch;
                    }
                }
                eq.extend(parsed.eq);
                fs_entries.extend(parsed.fs);
            }
        }

        let loaded_eq = eq.len();
        let loaded_fs = fs_entries.len();
        let log_lines = 0; // recounted below from what survived
        let mut state = StoreState {
            eq,
            fs: fs_entries,
            log_lines,
            epoch,
            needs_rewrite,
        };
        // Conservative: treat every surviving entry as log-resident when a
        // log file exists; the only consequence is a slightly earlier
        // auto-compaction.
        if log_path.exists() {
            state.log_lines = loaded_eq + loaded_fs;
        }

        Ok(ProofStore {
            dir: dir.to_path_buf(),
            options_fp,
            writes_enabled,
            warnings,
            state: Mutex::new(state),
            loaded_eq,
            loaded_fs,
        })
    }

    /// Typed warnings collected while opening the store (empty for a clean
    /// or brand-new store).
    pub fn warnings(&self) -> &[StoreWarning] {
        &self.warnings
    }

    /// Whether flush/checkpoint will write (false when the on-disk store
    /// belongs to a different options set or format).
    pub fn writes_enabled(&self) -> bool {
        self.writes_enabled
    }

    /// Equivalence entries loaded at open time, for seeding a proof cache.
    pub fn eq_entries(&self) -> Vec<ProofKey> {
        let mut v: Vec<_> = self.state.lock().unwrap().eq.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Feasibility entries loaded at open time, for seeding the memo.
    pub fn fs_entries(&self) -> Vec<(u64, bool)> {
        let mut v: Vec<_> = self
            .state
            .lock()
            .unwrap()
            .fs
            .iter()
            .map(|(k, f)| (*k, *f))
            .collect();
        v.sort_unstable();
        v
    }

    /// `(equivalence, feasibility)` entry counts as loaded at open time.
    pub fn loaded_counts(&self) -> (usize, usize) {
        (self.loaded_eq, self.loaded_fs)
    }

    /// Current compaction generation.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap().epoch
    }

    /// Persists any of the given entries not yet on disk, appending to the
    /// log (or compacting into a fresh snapshot when the log has grown past
    /// the auto-compaction threshold or was damaged at open).
    pub fn flush(
        &self,
        eq: impl IntoIterator<Item = ProofKey>,
        fs_entries: impl IntoIterator<Item = (u64, bool)>,
    ) -> io::Result<StoreFlush> {
        if !self.writes_enabled {
            return Ok(StoreFlush {
                disabled: true,
                ..StoreFlush::default()
            });
        }
        let mut state = self.state.lock().unwrap();
        let mut new_eq: Vec<ProofKey> = eq.into_iter().filter(|k| !state.eq.contains(k)).collect();
        let mut new_fs: Vec<(u64, bool)> = fs_entries
            .into_iter()
            .filter(|(k, _)| !state.fs.contains_key(k))
            .collect();
        new_eq.sort_unstable();
        new_eq.dedup();
        new_fs.sort_unstable();
        new_fs.dedup_by_key(|(k, _)| *k);

        if new_eq.is_empty() && new_fs.is_empty() && !state.needs_rewrite {
            return Ok(StoreFlush::default());
        }

        let appended = new_eq.len() + new_fs.len();
        let compact = state.needs_rewrite || state.log_lines + appended > COMPACT_LOG_LINES;
        if compact {
            for k in &new_eq {
                state.eq.insert(*k);
            }
            for (k, f) in &new_fs {
                state.fs.insert(*k, *f);
            }
            self.write_snapshot(&mut state)?;
        } else {
            self.append_log(&mut state, &new_eq, &new_fs)?;
            for k in &new_eq {
                state.eq.insert(*k);
            }
            for (k, f) in &new_fs {
                state.fs.insert(*k, *f);
            }
        }
        Ok(StoreFlush {
            appended_eq: new_eq.len(),
            appended_fs: new_fs.len(),
            compacted: compact,
            disabled: false,
        })
    }

    /// Compacts everything (persisted ∪ given entries) into a fresh
    /// snapshot, bumps the epoch and truncates the log.  Returns the new
    /// epoch, or `None` when writing is disabled.
    pub fn checkpoint(
        &self,
        eq: impl IntoIterator<Item = ProofKey>,
        fs_entries: impl IntoIterator<Item = (u64, bool)>,
    ) -> io::Result<Option<u64>> {
        if !self.writes_enabled {
            return Ok(None);
        }
        let mut state = self.state.lock().unwrap();
        state.eq.extend(eq);
        for (k, f) in fs_entries {
            state.fs.entry(k).or_insert(f);
        }
        self.write_snapshot(&mut state)?;
        Ok(Some(state.epoch))
    }

    /// Writes a fresh snapshot of everything in `state` (epoch + 1),
    /// atomically via temp file + rename, then drops the log.
    fn write_snapshot(&self, state: &mut StoreState) -> io::Result<()> {
        let epoch = state.epoch + 1;
        let mut eq: Vec<_> = state.eq.iter().copied().collect();
        eq.sort_unstable();
        let mut fs_entries: Vec<_> = state.fs.iter().map(|(k, f)| (*k, *f)).collect();
        fs_entries.sort_unstable();

        let mut text = String::new();
        text.push_str(&header_line("snapshot", epoch, self.options_fp));
        text.push('\n');
        for k in &eq {
            text.push_str(&eq_line(k));
            text.push('\n');
        }
        for (k, f) in &fs_entries {
            text.push_str(&fs_line(*k, *f));
            text.push('\n');
        }
        let count = (eq.len() + fs_entries.len()) as u64;
        text.push_str(&end_line(count));
        text.push('\n');

        let tmp = self.dir.join("snapshot.jsonl.tmp");
        let final_path = self.dir.join("snapshot.jsonl");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            fsync_delay();
            // The tmp file must be durable *before* the rename publishes it:
            // a crash after an un-synced rename could otherwise leave the
            // final name pointing at garbage — the one corruption the
            // snapshot's all-or-nothing load cannot distinguish from a
            // legitimate full file.
            file.sync_all()?;
        }
        fs::rename(&tmp, &final_path)?;
        // Make the rename itself durable.  Directory fsync is best-effort:
        // not every filesystem supports opening a directory for sync, and a
        // failure here only narrows durability, never correctness.
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        let log_path = self.dir.join("log.jsonl");
        if log_path.exists() {
            fs::remove_file(&log_path)?;
        }
        state.epoch = epoch;
        state.log_lines = 0;
        state.needs_rewrite = false;
        Ok(())
    }

    /// Appends entry lines to the log, creating it (with a header at the
    /// current epoch) when absent.
    fn append_log(
        &self,
        state: &mut StoreState,
        new_eq: &[ProofKey],
        new_fs: &[(u64, bool)],
    ) -> io::Result<()> {
        let log_path = self.dir.join("log.jsonl");
        let mut text = String::new();
        if !log_path.exists() {
            text.push_str(&header_line("log", state.epoch, self.options_fp));
            text.push('\n');
        }
        for k in new_eq {
            text.push_str(&eq_line(k));
            text.push('\n');
        }
        for (k, f) in new_fs {
            text.push_str(&fs_line(*k, *f));
            text.push('\n');
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)?;
        file.write_all(text.as_bytes())?;
        fsync_delay();
        // An unsynced append can tear or vanish on power loss.  The format
        // tolerates a torn *tail* (prefix-valid parse), so syncing here caps
        // the damage a crash can do at exactly the entries of the flush in
        // flight — never a previously acknowledged one.
        file.sync_all()?;
        state.log_lines += new_eq.len() + new_fs.len();
        Ok(())
    }
}

/// Reads a file that may legitimately not exist yet.
fn read_optional(path: &Path) -> io::Result<Option<String>> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Line formats.  Every entry line is a JSON array whose last element is the
// integrity hash (fixed-width hex) of the payload before it.

fn header_line(kind: &str, epoch: u64, options_fp: u64) -> String {
    format!(
        "{{\"format\":{},\"kind\":{},\"epoch\":{},\"options_fp\":{}}}",
        string(STORE_FORMAT),
        string(kind),
        epoch,
        hex64(options_fp),
    )
}

fn eq_line_sum(k: &ProofKey) -> u64 {
    structural_hash_of(&("store-line-v1", "eq", k.0, k.1, k.2, k.3))
}

fn fs_line_sum(key: u64, feasible: bool) -> u64 {
    structural_hash_of(&("store-line-v1", "fs", key, feasible))
}

fn end_line_sum(count: u64) -> u64 {
    structural_hash_of(&("store-line-v1", "end", count))
}

fn eq_line(k: &ProofKey) -> String {
    format!(
        "[\"eq\",{},{},{},{},{}]",
        hex64(k.0),
        hex64(k.1),
        hex64(k.2),
        hex64(k.3),
        hex64(eq_line_sum(k)),
    )
}

fn fs_line(key: u64, feasible: bool) -> String {
    format!(
        "[\"fs\",{},{},{}]",
        hex64(key),
        feasible,
        hex64(fs_line_sum(key, feasible)),
    )
}

fn end_line(count: u64) -> String {
    format!("[\"end\",{},{}]", count, hex64(end_line_sum(count)))
}

/// What one entry line carried.
enum Entry {
    Eq(ProofKey),
    Fs(u64, bool),
    End(u64),
}

/// Parses one entry line, validating its integrity hash.
fn parse_entry(line: &str) -> Result<Entry, String> {
    let v = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let parts = v.as_array().ok_or("entry is not an array")?;
    let tag = parts
        .first()
        .and_then(JsonValue::as_str)
        .ok_or("entry without tag")?;
    match tag {
        "eq" => {
            if parts.len() != 6 {
                return Err(format!("eq entry has {} components", parts.len()));
            }
            let mut key = [0u64; 4];
            for (slot, part) in key.iter_mut().zip(&parts[1..5]) {
                *slot = parse_hex64(part).ok_or("malformed eq component")?;
            }
            let key = (key[0], key[1], key[2], key[3]);
            let sum = parse_hex64(&parts[5]).ok_or("malformed eq checksum")?;
            if sum != eq_line_sum(&key) {
                return Err("eq entry integrity hash mismatch".into());
            }
            Ok(Entry::Eq(key))
        }
        "fs" => {
            if parts.len() != 4 {
                return Err(format!("fs entry has {} components", parts.len()));
            }
            let key = parse_hex64(&parts[1]).ok_or("malformed fs key")?;
            let feasible = parts[2].as_bool().ok_or("malformed fs value")?;
            let sum = parse_hex64(&parts[3]).ok_or("malformed fs checksum")?;
            if sum != fs_line_sum(key, feasible) {
                return Err("fs entry integrity hash mismatch".into());
            }
            Ok(Entry::Fs(key, feasible))
        }
        "end" => {
            if parts.len() != 3 {
                return Err(format!("end entry has {} components", parts.len()));
            }
            let count = parts[1].as_i64().ok_or("malformed end count")? as u64;
            let sum = parse_hex64(&parts[2]).ok_or("malformed end checksum")?;
            if sum != end_line_sum(count) {
                return Err("end entry integrity hash mismatch".into());
            }
            Ok(Entry::End(count))
        }
        other => Err(format!("unknown entry tag `{other}`")),
    }
}

/// Parses a header line, checking format, kind and options fingerprint.
fn parse_header(
    line: &str,
    expected_kind: &str,
    options_fp: u64,
    file: &str,
) -> Result<u64, StoreWarning> {
    let warn = |kind, message: String| StoreWarning {
        kind,
        file: file.into(),
        message,
    };
    let v = JsonValue::parse(line).map_err(|e| {
        warn(
            StoreWarningKind::Corrupt,
            format!("header unreadable ({e}); ignoring file"),
        )
    })?;
    let format = v.get("format").and_then(JsonValue::as_str).ok_or_else(|| {
        warn(
            StoreWarningKind::Corrupt,
            "header without `format`; ignoring file".into(),
        )
    })?;
    if format != STORE_FORMAT {
        return Err(warn(
            StoreWarningKind::FormatMismatch,
            format!("unknown format `{format}` (expected `{STORE_FORMAT}`); ignoring file"),
        ));
    }
    let kind = v.get("kind").and_then(JsonValue::as_str).ok_or_else(|| {
        warn(
            StoreWarningKind::Corrupt,
            "header without `kind`; ignoring file".into(),
        )
    })?;
    if kind != expected_kind {
        return Err(warn(
            StoreWarningKind::FormatMismatch,
            format!("header kind `{kind}` (expected `{expected_kind}`); ignoring file"),
        ));
    }
    let found_fp = v.get("options_fp").and_then(parse_hex64).ok_or_else(|| {
        warn(
            StoreWarningKind::Corrupt,
            "header without `options_fp`; ignoring file".into(),
        )
    })?;
    if found_fp != options_fp {
        return Err(warn(
            StoreWarningKind::OptionsMismatch,
            format!(
                "produced under different options (engine {options_fp:016x}, \
                 store {found_fp:016x}); ignoring file and disabling writes"
            ),
        ));
    }
    let epoch = v.get("epoch").and_then(JsonValue::as_i64).ok_or_else(|| {
        warn(
            StoreWarningKind::Corrupt,
            "header without `epoch`; ignoring file".into(),
        )
    })?;
    Ok(epoch as u64)
}

struct LoadedSnapshot {
    epoch: u64,
    eq: Vec<ProofKey>,
    fs: Vec<(u64, bool)>,
}

/// Parses a snapshot file.  All-or-nothing: any problem drops the whole
/// file with a typed warning.
fn parse_snapshot(text: &str, options_fp: u64) -> Result<LoadedSnapshot, StoreWarning> {
    let file = "snapshot.jsonl";
    let warn = |kind, message: String| StoreWarning {
        kind,
        file: file.into(),
        message,
    };
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| warn(StoreWarningKind::Truncated, "empty file".into()))?;
    let epoch = parse_header(header, "snapshot", options_fp, file)?;
    let mut eq = Vec::new();
    let mut fs_entries = Vec::new();
    let mut footer_count = None;
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        if footer_count.is_some() {
            return Err(warn(
                StoreWarningKind::Corrupt,
                format!("data after footer at line {}; ignoring file", i + 2),
            ));
        }
        match parse_entry(line) {
            Ok(Entry::Eq(k)) => eq.push(k),
            Ok(Entry::Fs(k, f)) => fs_entries.push((k, f)),
            Ok(Entry::End(count)) => footer_count = Some(count),
            Err(e) => {
                return Err(warn(
                    StoreWarningKind::Corrupt,
                    format!("line {}: {e}; ignoring file", i + 2),
                ));
            }
        }
    }
    let count = footer_count.ok_or_else(|| {
        warn(
            StoreWarningKind::Truncated,
            "missing footer (file truncated?); ignoring file".into(),
        )
    })?;
    if count != (eq.len() + fs_entries.len()) as u64 {
        return Err(warn(
            StoreWarningKind::Truncated,
            format!(
                "footer records {count} entries but {} present; ignoring file",
                eq.len() + fs_entries.len()
            ),
        ));
    }
    Ok(LoadedSnapshot {
        epoch,
        eq,
        fs: fs_entries,
    })
}

struct LoadedLog {
    epoch: Option<u64>,
    eq: Vec<ProofKey>,
    fs: Vec<(u64, bool)>,
    warning: Option<StoreWarning>,
}

/// Parses a log file.  Prefix-valid: the first bad line truncates the rest
/// with a typed warning; header problems drop the whole file.
fn parse_log(text: &str, options_fp: u64, snapshot_epoch: Option<u64>) -> LoadedLog {
    let file = "log.jsonl";
    let empty = |warning| LoadedLog {
        epoch: None,
        eq: Vec::new(),
        fs: Vec::new(),
        warning,
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return empty(Some(StoreWarning {
            kind: StoreWarningKind::Truncated,
            file: file.into(),
            message: "empty file".into(),
        }));
    };
    let epoch = match parse_header(header, "log", options_fp, file) {
        Ok(e) => e,
        Err(w) => return empty(Some(w)),
    };
    if let Some(snap_epoch) = snapshot_epoch {
        if epoch != snap_epoch {
            return empty(Some(StoreWarning {
                kind: StoreWarningKind::EpochMismatch,
                file: file.into(),
                message: format!(
                    "log epoch {epoch} does not match snapshot epoch {snap_epoch}; \
                     ignoring file"
                ),
            }));
        }
    }
    let mut eq = Vec::new();
    let mut fs_entries = Vec::new();
    let mut warning = None;
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        match parse_entry(line) {
            Ok(Entry::Eq(k)) => eq.push(k),
            Ok(Entry::Fs(k, f)) => fs_entries.push((k, f)),
            Ok(Entry::End(_)) => {
                warning = Some(StoreWarning {
                    kind: StoreWarningKind::Corrupt,
                    file: file.into(),
                    message: format!("unexpected footer at line {}; keeping prefix", i + 2),
                });
                break;
            }
            Err(e) => {
                warning = Some(StoreWarning {
                    kind: StoreWarningKind::Truncated,
                    file: file.into(),
                    message: format!(
                        "line {}: {e}; keeping {} valid entries",
                        i + 2,
                        eq.len() + fs_entries.len()
                    ),
                });
                break;
            }
        }
    }
    LoadedLog {
        epoch: Some(epoch),
        eq,
        fs: fs_entries,
        warning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("arrayeq-store-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_through_log_and_snapshot() {
        let dir = tmp_dir("roundtrip");
        let store = ProofStore::open(&dir, 7).unwrap();
        assert!(store.warnings().is_empty());
        assert_eq!(store.loaded_counts(), (0, 0));
        let flush = store
            .flush(
                vec![(1, 2, 3, 4), (5, 6, 7, 8)],
                vec![(9, true), (10, false)],
            )
            .unwrap();
        assert_eq!((flush.appended_eq, flush.appended_fs), (2, 2));
        assert!(!flush.compacted);

        // Reopen: everything loads from the log.
        let store2 = ProofStore::open(&dir, 7).unwrap();
        assert!(store2.warnings().is_empty());
        assert_eq!(store2.loaded_counts(), (2, 2));
        assert_eq!(store2.eq_entries(), vec![(1, 2, 3, 4), (5, 6, 7, 8)]);
        assert_eq!(store2.fs_entries(), vec![(9, true), (10, false)]);

        // A second flush of the same entries is a no-op.
        let again = store2.flush(vec![(1, 2, 3, 4)], vec![(9, true)]).unwrap();
        assert_eq!(again, StoreFlush::default());

        // Checkpoint compacts and bumps the epoch; the log disappears.
        let epoch = store2
            .checkpoint(vec![(11, 12, 13, 14)], Vec::new())
            .unwrap();
        assert_eq!(epoch, Some(1));
        assert!(!dir.join("log.jsonl").exists());
        let store3 = ProofStore::open(&dir, 7).unwrap();
        assert!(store3.warnings().is_empty());
        assert_eq!(store3.loaded_counts(), (3, 2));
        assert_eq!(store3.epoch(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn options_mismatch_degrades_cold_and_disables_writes() {
        let dir = tmp_dir("optmismatch");
        let store = ProofStore::open(&dir, 7).unwrap();
        store.flush(vec![(1, 2, 3, 4)], Vec::new()).unwrap();
        let before = fs::read_to_string(dir.join("log.jsonl")).unwrap();

        let other = ProofStore::open(&dir, 8).unwrap();
        assert_eq!(other.loaded_counts(), (0, 0));
        assert!(!other.writes_enabled());
        assert_eq!(other.warnings().len(), 1);
        assert_eq!(other.warnings()[0].kind, StoreWarningKind::OptionsMismatch);
        let flush = other.flush(vec![(9, 9, 9, 9)], Vec::new()).unwrap();
        assert!(flush.disabled);
        assert_eq!(other.checkpoint(Vec::new(), Vec::new()).unwrap(), None);
        // The foreign store was left byte-identical.
        assert_eq!(fs::read_to_string(dir.join("log.jsonl")).unwrap(), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_log_tail_keeps_valid_prefix() {
        let dir = tmp_dir("tornlog");
        let store = ProofStore::open(&dir, 7).unwrap();
        store
            .flush(vec![(1, 2, 3, 4), (5, 6, 7, 8)], vec![(9, true)])
            .unwrap();
        let log = dir.join("log.jsonl");
        let text = fs::read_to_string(&log).unwrap();
        // Drop the second half of the last line: a torn append.
        let cut = text.trim_end().len() - 10;
        fs::write(&log, &text[..cut]).unwrap();

        let store2 = ProofStore::open(&dir, 7).unwrap();
        assert_eq!(store2.warnings().len(), 1);
        assert_eq!(store2.warnings()[0].kind, StoreWarningKind::Truncated);
        let (eq, fs_count) = store2.loaded_counts();
        assert_eq!(eq + fs_count, 2, "prefix of 2 of the 3 entries survives");
        // The next flush heals the store by compacting.
        let flush = store2.flush(vec![(21, 22, 23, 24)], Vec::new()).unwrap();
        assert!(flush.compacted);
        let store3 = ProofStore::open(&dir, 7).unwrap();
        assert!(store3.warnings().is_empty());
        assert_eq!(store3.loaded_counts().0, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flipped_snapshot_is_dropped_with_typed_warning() {
        let dir = tmp_dir("bitflip");
        let store = ProofStore::open(&dir, 7).unwrap();
        store
            .checkpoint(vec![(1, 2, 3, 4), (5, 6, 7, 8)], vec![(9, false)])
            .unwrap();
        let snap = dir.join("snapshot.jsonl");
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&snap, &bytes).unwrap();

        let store2 = ProofStore::open(&dir, 7).unwrap();
        assert_eq!(store2.loaded_counts(), (0, 0), "cold start");
        assert_eq!(store2.warnings().len(), 1);
        assert!(matches!(
            store2.warnings()[0].kind,
            StoreWarningKind::Corrupt | StoreWarningKind::Truncated
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_format_is_a_typed_warning() {
        let dir = tmp_dir("format");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("snapshot.jsonl"),
            "{\"format\":\"arrayeq-store-v999\",\"kind\":\"snapshot\",\"epoch\":0,\"options_fp\":\"0000000000000007\"}\n",
        )
        .unwrap();
        let store = ProofStore::open(&dir, 7).unwrap();
        assert_eq!(store.warnings().len(), 1);
        assert_eq!(store.warnings()[0].kind, StoreWarningKind::FormatMismatch);
        assert!(!store.writes_enabled());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_log_epoch_is_ignored() {
        let dir = tmp_dir("epoch");
        let store = ProofStore::open(&dir, 7).unwrap();
        store.checkpoint(vec![(1, 2, 3, 4)], Vec::new()).unwrap();
        // Forge a log from a previous generation (epoch 0; snapshot is 1).
        let mut text = header_line("log", 0, 7);
        text.push('\n');
        text.push_str(&eq_line(&(5, 6, 7, 8)));
        text.push('\n');
        fs::write(dir.join("log.jsonl"), text).unwrap();

        let store2 = ProofStore::open(&dir, 7).unwrap();
        assert_eq!(store2.loaded_counts(), (1, 0), "stale log ignored");
        assert_eq!(store2.warnings().len(), 1);
        assert_eq!(store2.warnings()[0].kind, StoreWarningKind::EpochMismatch);
        let _ = fs::remove_dir_all(&dir);
    }
}
