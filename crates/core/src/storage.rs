//! Pluggable persistence: the [`StorageBackend`] trait and its
//! implementations.
//!
//! * [`MemoryBackend`] — snapshot + event log held in memory; the unit-test
//!   and caching substrate.
//! * [`JsonFileBackend`] — one pretty-printed JSON snapshot file, the
//!   format [`crate::persist`] has always written (archives stay
//!   readable). Recording deltas rewrites the whole file, so its cost
//!   scales with repository size — it is the compatibility backend.
//! * [`LogBackend`] — an append-only generation log of [`RepoEvent`]s
//!   next to an optional checkpoint manifest; recording a delta batch is
//!   O(batch), and recovery is checkpoint + replay. This is the scaling
//!   backend. It is one backend over two on-disk [`LogFormat`]s:
//!   [`Jsonl`] lines ([`EventLogBackend`]) and [`Binary`] frames
//!   ([`crate::binlog::BinaryLogBackend`]). Both share the manifest, the
//!   writer and one reader, [`read_tail`], which serves restore, replica
//!   tailing and lag alike.
//!
//! All of them observe the same contract, checked in
//! `tests/storage_backends.rs` and property-tested in
//! `tests/delta_equivalence.rs`: after `record`ing a repository's drained
//! events (or `checkpoint`ing its snapshot), `restore` returns exactly
//! [`crate::repo::Repository::snapshot`].
//!
//! ## Durability modes
//!
//! Durability is two-phase: `record` appends, [`StorageBackend::flush_durable`]
//! is the fsync point. In the default [`DurabilityMode::PerBatch`] the two
//! are fused — `record` returns only after its own fsync, exactly the
//! contract every pre-existing caller relies on, and `flush_durable` is a
//! no-op. Switching a file-backed backend to
//! [`DurabilityMode::GroupCommit`] decouples them: `record` stages bytes
//! through a persistent appender (no open, no fsync), and one
//! `flush_durable` makes *every* staged batch durable at once — which is
//! what lets [`crate::pipeline::BackgroundWriter`] amortise one fsync
//! over an entire group-commit window of concurrent producers.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::binlog::{is_binary_generation, Binary};
use crate::error::RepoError;
use crate::event::{apply_event, replay, RepoEvent};
use crate::persist;
use crate::repo::RepositorySnapshot;
use crate::runtime::{HealthReport, RuntimeHealth};

/// When a backend's `record` becomes durable; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// `record` fsyncs before returning — one call, one durable batch.
    /// The default, and the contract of every pre-group-commit caller.
    #[default]
    PerBatch,
    /// `record` only stages (buffered append, no fsync);
    /// [`StorageBackend::flush_durable`] is the explicit fsync point
    /// covering everything staged since the last one.
    GroupCommit,
}

/// Where a repository's state lives between processes (or merely between
/// drops). Deltas arrive in batches via `record`; `checkpoint` compacts;
/// `restore` recovers the latest state.
pub trait StorageBackend {
    /// A short human-readable backend name ("memory", "json-file", …).
    fn kind(&self) -> &'static str;

    /// Append a batch of deltas (typically
    /// [`crate::repo::Repository::drain_events`] output). In the default
    /// [`DurabilityMode::PerBatch`] the batch is durable when this
    /// returns; under [`DurabilityMode::GroupCommit`] it is merely staged
    /// until the next [`StorageBackend::flush_durable`].
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError>;

    /// Write a full checkpoint of `snapshot`, superseding recorded deltas.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError>;

    /// Recover the latest persisted state.
    fn restore(&self) -> Result<RepositorySnapshot, RepoError>;

    /// The fsync point of the two-phase durability API: make every batch
    /// staged since the last call durable. A no-op for backends whose
    /// `record` is already durable (memory, or a file-backed backend in
    /// [`DurabilityMode::PerBatch`] — the default implementation).
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        Ok(())
    }

    /// Select when `record` becomes durable. Backends without a staging
    /// buffer (memory; whole-file rewrites) ignore the request — their
    /// `record` is as durable as it will ever be, and `flush_durable`
    /// stays a no-op.
    fn set_durability(&mut self, _mode: DurabilityMode) {}

    /// The torn-tail repair this backend performed when it was opened,
    /// if any. File-backed log backends truncate a crash fragment at
    /// `open` (it was never durable — reads have always dropped it), but
    /// dropping bytes should be on the record, not silent. `None` for
    /// backends without an open-time repair.
    fn tail_repaired(&self) -> Option<TailRepaired> {
        None
    }
}

/// Record of a torn-tail truncation performed while opening a log
/// backend: a process killed mid-append left a partial final frame or
/// line, and the opener cut it off. The fragment was never durable, so
/// no acknowledged data is lost — but the repair is observable via
/// [`StorageBackend::tail_repaired`] (and `HealthReport::TailRepaired`
/// when the backend is opened on a runtime) instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailRepaired {
    /// The repaired log file (relative name).
    pub file: String,
    /// How many torn bytes were dropped.
    pub bytes_dropped: u64,
}

fn io_err(e: std::io::Error) -> RepoError {
    RepoError::Persist(e.to_string())
}

/// The typed error for a complete-but-unparseable JSONL line: a
/// [`RepoError::CorruptFrame`] whose offset is the line's first byte —
/// the boundary a `SalvagePrefix` recovery truncates at. `segment` is
/// the log file's relative name, mirroring the binary log's frames.
fn corrupt_jsonl_line(segment: &str, offset: u64, err: &dyn std::fmt::Display) -> RepoError {
    RepoError::CorruptFrame {
        segment: segment.to_string(),
        offset,
        reason: format!("corrupt event log line: {err}"),
    }
}

/// Boxed backends forward the contract, so heterogeneous backend
/// configurations (a federation driver mixing compacting and plain logs,
/// say) can be held behind one type.
impl StorageBackend for Box<dyn StorageBackend> {
    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        (**self).record(events)
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        (**self).checkpoint(snapshot)
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        (**self).restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        (**self).flush_durable()
    }

    fn set_durability(&mut self, mode: DurabilityMode) {
        (**self).set_durability(mode)
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        (**self).tail_repaired()
    }
}

/// In-memory backend: a base snapshot plus the deltas since.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    base: RepositorySnapshot,
    log: Vec<RepoEvent>,
}

impl MemoryBackend {
    /// A fresh, empty backend.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// How many deltas are pending since the last checkpoint.
    pub fn pending_events(&self) -> usize {
        self.log.len()
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> &'static str {
        "memory"
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        self.log.extend_from_slice(events);
        Ok(())
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        self.base = snapshot.clone();
        self.log.clear();
        Ok(())
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        Ok(replay(self.base.clone(), &self.log))
    }
}

/// The legacy single-file JSON backend: exactly the format
/// [`persist::save_file`] writes, so existing archives load unchanged.
#[derive(Debug, Clone)]
pub struct JsonFileBackend {
    path: PathBuf,
}

impl JsonFileBackend {
    /// Persist to (and restore from) `path`.
    pub fn new(path: impl Into<PathBuf>) -> JsonFileBackend {
        JsonFileBackend { path: path.into() }
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl StorageBackend for JsonFileBackend {
    fn kind(&self) -> &'static str {
        "json-file"
    }

    /// A snapshot file has no incremental representation: fold the deltas
    /// into the current state and rewrite the whole file.
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        let base = if self.path.exists() {
            self.restore()?
        } else {
            RepositorySnapshot::empty("")
        };
        self.checkpoint(&replay(base, events))
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        std::fs::write(&self.path, persist::to_json(snapshot)?).map_err(io_err)
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        let json = std::fs::read_to_string(&self.path).map_err(io_err)?;
        persist::from_json(&json)
    }

    /// The snapshot file is rewritten whole on every `record`, so there
    /// is nothing staged to batch — but it is file-backed, so the fsync
    /// point still pushes the latest rewrite past the page cache.
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        match std::fs::File::open(&self.path) {
            Ok(file) => file
                .sync_all()
                .map_err(|e| RepoError::persist_io("fsync json snapshot", e)),
            // Nothing recorded yet: nothing to make durable. Any other
            // open failure must surface — reporting Ok would acknowledge
            // events as durable with no fsync having happened.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(RepoError::persist_io("open json snapshot for fsync", e)),
        }
    }
}

/// How a [`LogBackend`]'s fsyncs split between the full
/// [`File::sync_all`] (data + all metadata, required whenever the file
/// grew since the last sync so the new length reaches disk) and the
/// cheaper [`File::sync_data`] (data + only the metadata needed to read
/// it back, sufficient when the file length is unchanged).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsyncStats {
    /// Full syncs: the file length changed since the last fsync.
    pub sync_all: u64,
    /// Data-only syncs: the file length was unchanged.
    pub sync_data: u64,
}

impl FsyncStats {
    /// Total fsyncs of either kind.
    pub fn total(&self) -> u64 {
        self.sync_all + self.sync_data
    }
}

/// The checkpoint manifest a [`LogBackend`] persists: the base state
/// plus the name of the generation log its deltas live in. Keeping both
/// in one file makes the manifest rename the single atomic commit point
/// of a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    /// Log generation (relative to the backend directory) this base replays.
    pub(crate) log: String,
    /// The checkpointed base state.
    pub(crate) state: RepositorySnapshot,
}

/// The on-disk shape of `checkpoint.json`: the [`Manifest`] body plus a
/// trailing `crc32` of the body's bytes (see [`manifest_json`]). The
/// checksum field is optional on read — manifests written before it
/// existed are accepted as-is (legacy tolerance); a *present but wrong*
/// checksum is real corruption and surfaces as
/// [`RepoError::CorruptManifest`].
#[derive(Debug, Deserialize)]
struct ManifestDisk {
    log: String,
    state: RepositorySnapshot,
    crc32: Option<u32>,
}

thread_local! {
    /// Test/bench instrumentation: how many checkpoint manifests this
    /// thread has parsed (the manifest embeds a whole snapshot, so a
    /// parse is the expensive path a poll's `(mtime, len)` stamp check
    /// exists to avoid). Lets tests assert that polling an idle
    /// replica/federation really is pure metadata stats.
    static MANIFESTS_PARSED: Cell<u64> = const { Cell::new(0) };
}

/// Number of checkpoint manifests parsed by this thread so far.
/// Instrumentation for tests and benches.
pub fn manifests_parsed() -> u64 {
    MANIFESTS_PARSED.with(Cell::get)
}

/// The exact `checkpoint.json` bytes for `manifest`: the canonical body
/// JSON with a `crc32` field over the body bytes spliced in as the
/// trailing key. Readers checksum the file text before that key plus
/// the closing `}` — exactly the body written — so any flipped byte that
/// survives JSON parsing fails the checksum comparison.
pub(crate) fn manifest_json(manifest: &Manifest) -> Result<String, RepoError> {
    let body = serde_json::to_string(manifest)
        .map_err(|e| RepoError::Persist(format!("cannot serialise manifest: {e}")))?;
    let crc = crate::binlog::crc32(body.as_bytes());
    debug_assert!(body.ends_with('}'));
    Ok(format!("{},\"crc32\":{crc}}}", &body[..body.len() - 1]))
}

/// Write `manifest` to `dir/checkpoint.json` with the atomic
/// write-fsync-rename protocol: the rename is the single commit point of
/// a checkpoint, so a crash at any step leaves either the old manifest
/// or the new one, never a torn mix.
fn write_manifest_in(dir: &Path, manifest: &Manifest) -> Result<(), RepoError> {
    let json = manifest_json(manifest)?;
    let tmp = dir.join("checkpoint.json.tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(json.as_bytes()).map_err(io_err)?;
        // The rename must not reach disk before the contents do, or a
        // power loss could publish an empty/partial manifest.
        file.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, dir.join("checkpoint.json")).map_err(io_err)?;
    // Persist the rename itself (directory entry); best-effort since
    // not every platform lets a directory be fsynced.
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// Parse (and integrity-check) `dir/checkpoint.json`. `Ok(None)` when
/// no checkpoint exists yet; [`RepoError::CorruptManifest`] when the
/// manifest carries a `crc32` that does not match its body (a
/// checksum-less manifest from an older writer is accepted as-is).
fn read_manifest_in(dir: &Path) -> Result<Option<Manifest>, RepoError> {
    let path = dir.join("checkpoint.json");
    if !path.exists() {
        return Ok(None);
    }
    let mut json = std::fs::read_to_string(path).map_err(io_err)?;
    let disk: ManifestDisk = serde_json::from_str(&json)
        .map_err(|e| RepoError::Persist(format!("corrupt checkpoint manifest: {e}")))?;
    MANIFESTS_PARSED.with(|c| c.set(c.get() + 1));
    if let Some(stored) = disk.crc32 {
        // `manifest_json` spliced the checksum in as the body's last
        // key, so the body is the text before that key plus `}`.
        if let Some(at) = json.rfind(",\"crc32\":") {
            json.truncate(at);
            json.push('}');
        }
        let computed = crate::binlog::crc32(json.as_bytes());
        if computed != stored {
            return Err(RepoError::CorruptManifest {
                dir: dir.display().to_string(),
                stored,
                computed,
            });
        }
    }
    Ok(Some(Manifest {
        log: disk.log,
        state: disk.state,
    }))
}

/// One on-disk encoding of a generation log: [`Jsonl`] lines or
/// [`Binary`] frames. Everything else about a log — open, append, roll,
/// torn-tail repair, checkpoint and restore in [`LogBackend`], tailing
/// in [`read_tail`] — is written once over this trait.
///
/// A *generation* is the logical log a checkpoint manifest names
/// (`events-<n>` plus [`LogFormat::SUFFIX`]); on disk it is a run of
/// files of which only the last is ever appended to.
pub trait LogFormat: std::fmt::Debug {
    /// Generation names of this format end in this suffix.
    const SUFFIX: &'static str;
    /// The [`StorageBackend::kind`] of a [`LogBackend`] in this format.
    const KIND: &'static str;
    /// The [`StorageBackend::kind`] of an [`AutoCompactingEventLog`] in
    /// this format.
    const COMPACTED_KIND: &'static str;
    /// Default cap on one file's length before the writer rolls to the
    /// next (records never span files). `u64::MAX` for a format whose
    /// generation is a single file.
    const SEGMENT_BYTES: u64;

    /// The files of `generation` in `dir`, in log order. Empty when the
    /// generation has never been written — or `dir` does not exist.
    fn files(dir: &Path, generation: &str) -> Result<Vec<String>, RepoError>;

    /// The name of file `index` of `generation`.
    fn file_name(generation: &str, index: u32) -> String;

    /// Append the encoded record of `event` to `out`.
    fn encode(event: &RepoEvent, out: &mut Vec<u8>) -> Result<(), RepoError>;

    /// Decode the complete records at the start of `buf`, which holds
    /// the bytes of `file` from file offset `at`. Returns the events and
    /// the bytes they span; a span shorter than `buf` means `buf` ends
    /// in an incomplete record. A record that fails its integrity check
    /// is [`RepoError::CorruptFrame`] at the record's file offset.
    fn decode(buf: &[u8], file: &str, at: u64) -> Result<(Vec<RepoEvent>, usize), RepoError>;

    /// Walk the record boundaries of `buf` without decoding a payload:
    /// `(records, end, torn)` — the complete records, the offset just
    /// past the last of them, and whether an incomplete record follows.
    /// A walk stopped by a damaged boundary reports `torn == false`: that
    /// is corruption, left for [`LogFormat::decode`] to report.
    fn scan(buf: &[u8]) -> (usize, usize, bool);
}

/// The JSONL format: one compact JSON [`RepoEvent`] per `\n`-terminated
/// line, in the single file `events-<n>.jsonl`. Human-readable and
/// parse-bound on replay. A final line without its `\n` is a torn
/// append, whether or not its text happens to parse.
#[derive(Debug)]
pub struct Jsonl;

impl LogFormat for Jsonl {
    const SUFFIX: &'static str = ".jsonl";
    const KIND: &'static str = "event-log";
    const COMPACTED_KIND: &'static str = "event-log+auto-compact";
    const SEGMENT_BYTES: u64 = u64::MAX;

    fn files(dir: &Path, generation: &str) -> Result<Vec<String>, RepoError> {
        Ok(if dir.join(generation).exists() {
            vec![generation.to_string()]
        } else {
            Vec::new()
        })
    }

    fn file_name(generation: &str, _index: u32) -> String {
        generation.to_string()
    }

    fn encode(event: &RepoEvent, out: &mut Vec<u8>) -> Result<(), RepoError> {
        // Compact JSON keeps each event on one line (newlines inside
        // strings are escaped by the serialiser).
        let line = serde_json::to_string(event)
            .map_err(|e| RepoError::Persist(format!("cannot serialise event: {e}")))?;
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        Ok(())
    }

    fn decode(buf: &[u8], file: &str, at: u64) -> Result<(Vec<RepoEvent>, usize), RepoError> {
        let end = line_end(buf);
        // A byte that is not UTF-8 corrupts the line holding it; the
        // lines before that one still decode.
        let (text, bad_byte) = match std::str::from_utf8(&buf[..end]) {
            Ok(text) => (text, None),
            Err(e) => {
                let line = line_end(&buf[..e.valid_up_to()]);
                let text = std::str::from_utf8(&buf[..line]).expect("valid up to this line");
                (text, Some(e.valid_up_to()))
            }
        };
        let mut events = Vec::new();
        let mut pos = 0usize;
        for line in text.split_inclusive('\n') {
            let start = pos;
            pos += line.len();
            let body = line.trim_end_matches(['\n', '\r']);
            if body.trim().is_empty() {
                continue;
            }
            events.push(
                serde_json::from_str::<RepoEvent>(body)
                    .map_err(|e| corrupt_jsonl_line(file, at + start as u64, &e))?,
            );
        }
        match bad_byte {
            Some(byte) => Err(corrupt_jsonl_line(
                file,
                at + pos as u64,
                &format!("invalid UTF-8 at byte {}", at + byte as u64),
            )),
            None => Ok((events, end)),
        }
    }

    fn scan(buf: &[u8]) -> (usize, usize, bool) {
        let end = line_end(buf);
        let records = buf[..end]
            .split(|&b| b == b'\n')
            .filter(|line| line.iter().any(|c| !c.is_ascii_whitespace()))
            .count();
        (records, end, end < buf.len())
    }
}

/// The offset just past the last `\n` in `buf` (0 when there is none):
/// where the complete lines end.
fn line_end(buf: &[u8]) -> usize {
    buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// The generation a log file belongs to: a JSONL log is its own
/// generation, binary segment `events-<n>.bin.NNNNNN` belongs to
/// `events-<n>.bin`. `None` for a file that is not a log.
fn generation_of(name: &str) -> Option<&str> {
    if !name.starts_with("events-") {
        return None;
    }
    if name.ends_with(Jsonl::SUFFIX) {
        return Some(name);
    }
    let (generation, index) = name.rsplit_once('.')?;
    (is_binary_generation(generation)
        && index.len() == 6
        && index.bytes().all(|b| b.is_ascii_digit()))
    .then_some(generation)
}

/// Every log file in `dir` whose generation passes `keep`, sorted (the
/// zero-padded segment indices make lexical order log order). Empty when
/// `dir` does not exist.
pub(crate) fn log_files(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<Vec<String>, RepoError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e)),
    };
    let mut files = Vec::new();
    for entry in entries {
        let name = entry
            .map_err(io_err)?
            .file_name()
            .to_string_lossy()
            .into_owned();
        if generation_of(&name).is_some_and(&keep) {
            files.push(name);
        }
    }
    files.sort();
    Ok(files)
}

/// The generation of a directory with no checkpoint manifest: generation
/// 0 of whichever format has written it (binary, should both have), or
/// `None` for a directory no writer has appended to.
fn unmanifested_generation(dir: &Path) -> Option<String> {
    let binary = format!("events-0{}", Binary::SUFFIX);
    if !log_files(dir, |g| g == binary)
        .unwrap_or_default()
        .is_empty()
    {
        return Some(binary);
    }
    let jsonl = format!("events-0{}", Jsonl::SUFFIX);
    dir.join(&jsonl).exists().then_some(jsonl)
}

/// A file's length, `None` when it no longer exists.
fn file_len(path: &Path) -> Result<Option<u64>, RepoError> {
    match std::fs::metadata(path) {
        Ok(meta) => Ok(Some(meta.len())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err(e)),
    }
}

/// The events of `generation` in `dir` from global byte `offset` — the
/// sum of the earlier files' lengths plus the position in the file that
/// holds it, always a record boundary an earlier call returned (0 for
/// the whole generation). This is the one reader of generation bytes,
/// for either format (dispatched on the generation name): cold restore
/// and replica tailing both go through it, and [`generation_len`]
/// measures lag against the offsets it returns.
///
/// Returns `Ok(None)` when the generation is shorter than `offset` — it
/// was checkpoint-rolled or truncated under the reader, which must
/// re-base — and otherwise the events plus the offset just past the
/// last complete record. Only the bytes past `offset` are read, so an
/// unchanged log costs metadata stats alone. An incomplete record at
/// the end of the last file is a torn tail and stays unconsumed for a
/// later call; inside an earlier, sealed file it is
/// [`RepoError::CorruptFrame`], as is every record that fails its
/// format's integrity check.
pub fn read_tail(
    dir: &Path,
    generation: &str,
    offset: u64,
) -> Result<Option<(Vec<RepoEvent>, u64)>, RepoError> {
    if is_binary_generation(generation) {
        tail::<Binary>(dir, generation, offset)
    } else {
        tail::<Jsonl>(dir, generation, offset)
    }
}

fn tail<F: LogFormat>(
    dir: &Path,
    generation: &str,
    offset: u64,
) -> Result<Option<(Vec<RepoEvent>, u64)>, RepoError> {
    let mut files = Vec::new();
    for name in F::files(dir, generation)? {
        // A file gone between the listing and the stat was pruned by a
        // checkpoint: the caller re-bases.
        let Some(len) = file_len(&dir.join(&name))? else {
            return Ok(None);
        };
        files.push((name, len));
    }
    if files.iter().map(|(_, len)| len).sum::<u64>() < offset {
        return Ok(None);
    }
    let mut events = Vec::new();
    let mut consumed = offset;
    let mut base = 0u64;
    for (i, (name, len)) in files.iter().enumerate() {
        if base + len <= offset {
            // Entirely before the tail: earlier files are sealed, so the
            // statted length is final.
            base += len;
            continue;
        }
        let start = offset.saturating_sub(base);
        let Some(buf) = read_from(&dir.join(name), start)? else {
            return Ok(None);
        };
        let (decoded, used) = F::decode(&buf, name, start)?;
        // Move rather than append the common one-file case: appending
        // into an empty vector would copy every event.
        if events.is_empty() {
            events = decoded;
        } else {
            events.extend(decoded);
        }
        consumed = base + start + used as u64;
        if used < buf.len() {
            if i + 1 < files.len() {
                return Err(RepoError::CorruptFrame {
                    segment: name.clone(),
                    offset: start + used as u64,
                    reason: "incomplete record inside a sealed segment".to_string(),
                });
            }
            // Torn tail: the bytes stay unconsumed for the next call (by
            // then the writer may have completed the record).
            break;
        }
        base += start + buf.len() as u64;
    }
    Ok(Some((events, consumed)))
}

/// The bytes of `path` from `start` on; `None` when the file is gone or
/// shorter than `start`.
fn read_from(path: &Path, start: u64) -> Result<Option<Vec<u8>>, RepoError> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(e)),
    };
    if file.metadata().map_err(io_err)?.len() < start {
        return Ok(None);
    }
    file.seek(SeekFrom::Start(start)).map_err(io_err)?;
    let mut buf = Vec::new();
    file.read_to_end(&mut buf).map_err(io_err)?;
    Ok(Some(buf))
}

/// Total on-disk length of a generation, the sum of its file lengths —
/// the offset a fully caught-up [`read_tail`] sits at, so lag is
/// measured by metadata alone.
pub fn generation_len(dir: &Path, generation: &str) -> Result<u64, RepoError> {
    let files = if is_binary_generation(generation) {
        Binary::files(dir, generation)?
    } else {
        Jsonl::files(dir, generation)?
    };
    let mut total = 0;
    for name in files {
        total += file_len(&dir.join(name))?.unwrap_or(0);
    }
    Ok(total)
}

/// The append-only generation log backend, in either on-disk
/// [`LogFormat`]: [`EventLogBackend`] writes JSONL lines,
/// [`crate::binlog::BinaryLogBackend`] binary frames. The generation's files sit beside an optional
/// `checkpoint.json` manifest. Recording appends through a persistent
/// appender (opened once per file, not per call), rolling to a new file
/// when the format's segment cap would be exceeded; checkpointing writes
/// a new manifest naming a fresh empty generation (one atomic rename of
/// the fsynced manifest is the commit point, so a crash at any step
/// leaves a state `restore` recovers exactly); recovery is snapshot +
/// replay through [`read_tail`], which drops a torn final record from an
/// append cut short mid-write.
///
/// Durability is two-phase (see the module docs): in the default
/// [`DurabilityMode::PerBatch`], `record` fsyncs before returning; in
/// [`DurabilityMode::GroupCommit`] it only stages, and
/// [`StorageBackend::flush_durable`] issues the one fsync covering every
/// staged batch.
///
/// The backend assumes a single writer per directory (the current
/// generation is cached at `open` and only advanced by this instance's
/// own `checkpoint`); concurrent readers are fine.
#[derive(Debug)]
pub struct LogBackend<F: LogFormat> {
    dir: PathBuf,
    /// Current generation's name, relative to `dir` (what the manifest
    /// records).
    generation: String,
    /// Index of the file being appended to (always 0 for JSONL).
    file_index: u32,
    /// Byte length of that file, tracked to decide rolls and the fsync
    /// split without a stat per batch; re-read whenever the appender
    /// opens.
    file_len: u64,
    /// Roll to a new file once the current one would exceed this.
    segment_bytes: u64,
    durability: DurabilityMode,
    /// The persistent appender, opened lazily on first `record` and
    /// dropped when a roll or a checkpoint moves to a new file.
    appender: Option<File>,
    /// Bytes staged (written but not fsynced) since the last
    /// `flush_durable` — only ever true in [`DurabilityMode::GroupCommit`].
    dirty: bool,
    /// The file's length at its last fsync, if one has happened — the
    /// length whose durability the next fsync may rely on to downgrade
    /// `sync_all` to `sync_data`.
    synced_len: Option<u64>,
    /// How this instance's fsyncs split between full and data-only syncs.
    fsync_stats: FsyncStats,
    /// The torn-tail truncation `open` performed, if any.
    tail_repaired: Option<TailRepaired>,
    format: PhantomData<F>,
}

/// The JSONL generation log (see [`LogBackend`]).
pub type EventLogBackend = LogBackend<Jsonl>;

/// A clone is a fresh writer over the same directory and generation: it
/// opens its own appender on first use and owes no fsync for bytes the
/// original staged (those remain the original's to flush). It performed
/// no open-time repair, so it carries no `tail_repaired` note.
impl<F: LogFormat> Clone for LogBackend<F> {
    fn clone(&self) -> LogBackend<F> {
        LogBackend {
            dir: self.dir.clone(),
            generation: self.generation.clone(),
            file_index: self.file_index,
            file_len: self.file_len,
            segment_bytes: self.segment_bytes,
            durability: self.durability,
            appender: None,
            dirty: false,
            synced_len: None,
            fsync_stats: FsyncStats::default(),
            tail_repaired: None,
            format: PhantomData,
        }
    }
}

impl<F: LogFormat> LogBackend<F> {
    /// Open (creating the directory if needed) a log of this format
    /// under `dir`. A directory whose log is in the other format is
    /// refused, untouched — with or without a checkpoint manifest.
    ///
    /// Opening also *repairs* a torn final record: a process killed
    /// mid-`write` leaves a partial record at the end of the last file,
    /// and a fresh writer appending after it would fuse the next record
    /// into the fragment and corrupt the log. The fragment was never
    /// durable (reads have always dropped it), so truncating it at open
    /// loses nothing; the repair is reported by
    /// [`StorageBackend::tail_repaired`]. Corrupt records are left in
    /// place for `restore` to report.
    pub fn open(dir: impl Into<PathBuf>) -> Result<LogBackend<F>, RepoError> {
        Self::open_segmented(dir.into(), F::SEGMENT_BYTES)
    }

    pub(crate) fn open_segmented(
        dir: PathBuf,
        segment_bytes: u64,
    ) -> Result<LogBackend<F>, RepoError> {
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let generation = match read_manifest_in(&dir)? {
            Some(manifest) => manifest.log,
            None => {
                unmanifested_generation(&dir).unwrap_or_else(|| format!("events-0{}", F::SUFFIX))
            }
        };
        if !generation.ends_with(F::SUFFIX) {
            return Err(RepoError::Persist(format!(
                "directory `{}` holds an event log in another format (generation \
                 `{generation}`); open it with that format's backend or convert it \
                 with bx_logconv",
                dir.display()
            )));
        }
        // Continue appending at the last file (JSONL names carry no index).
        let file_index = F::files(&dir, &generation)?
            .last()
            .and_then(|name| name.rsplit('.').next()?.parse().ok())
            .unwrap_or(0);
        let mut backend = LogBackend {
            dir,
            generation,
            file_index,
            file_len: 0,
            segment_bytes: segment_bytes.max(1),
            durability: DurabilityMode::default(),
            appender: None,
            dirty: false,
            synced_len: None,
            fsync_stats: FsyncStats::default(),
            tail_repaired: None,
            format: PhantomData,
        };
        backend.tail_repaired = backend.repair_torn_tail()?;
        Ok(backend)
    }

    /// The active [`DurabilityMode`].
    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    /// How this instance's fsyncs have split between [`File::sync_all`]
    /// and [`File::sync_data`] (see [`FsyncStats`]).
    pub fn fsync_stats(&self) -> FsyncStats {
        self.fsync_stats
    }

    /// The current generation's name (what the manifest records).
    pub fn current_generation(&self) -> &str {
        &self.generation
    }

    /// Every log file of this format in the directory, sorted: the
    /// current generation's, plus any superseded generation a crash in
    /// the checkpoint window stranded. A healthy, compacted JSONL
    /// directory holds at most one.
    pub fn generation_files(&self) -> Result<Vec<String>, RepoError> {
        log_files(&self.dir, |generation| generation.ends_with(F::SUFFIX))
    }

    /// Remove every log file, of either format, that is not part of the
    /// current generation. `checkpoint` already unlinks the generation
    /// it supersedes; this sweeps up strays left by crashes in the
    /// checkpoint window (and the source log of a converted directory).
    /// Returns how many files were removed.
    pub fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        let stale = log_files(&self.dir, |generation| generation != self.generation)?;
        for name in &stale {
            std::fs::remove_file(self.dir.join(name)).map_err(io_err)?;
        }
        Ok(stale.len())
    }

    /// How many deltas sit in the log beyond the last checkpoint, by a
    /// boundary walk that decodes no payload (the count is wanted on
    /// open and monitoring paths). A torn final record is not counted,
    /// exactly as a restore drops it; a corrupt record surfaces at
    /// `restore` instead.
    pub fn pending_events(&self) -> Result<usize, RepoError> {
        let mut count = 0;
        for name in F::files(&self.dir, &self.generation)? {
            count += F::scan(&std::fs::read(self.dir.join(name)).map_err(io_err)?).0;
        }
        Ok(count)
    }

    /// Truncate a torn final record off the generation's last file, if
    /// there is one, returning a note of what was dropped.
    fn repair_torn_tail(&self) -> Result<Option<TailRepaired>, RepoError> {
        let Some(last) = F::files(&self.dir, &self.generation)?.pop() else {
            return Ok(None);
        };
        let path = self.dir.join(&last);
        let buf = std::fs::read(&path).map_err(io_err)?;
        let (_, end, torn) = F::scan(&buf);
        if !torn {
            return Ok(None);
        }
        let file = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
        file.set_len(end as u64).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        Ok(Some(TailRepaired {
            file: last,
            bytes_dropped: (buf.len() - end) as u64,
        }))
    }

    /// The persistent appender for the current file, opened on first
    /// use. A roll or a checkpoint drops it, so a stale handle can never
    /// append to a sealed file or a superseded generation.
    fn appender(&mut self) -> Result<&mut File, RepoError> {
        if self.appender.is_none() {
            let name = F::file_name(&self.generation, self.file_index);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(name))
                .map_err(|e| RepoError::persist_io("open event log appender", e))?;
            self.file_len = file
                .metadata()
                .map_err(|e| RepoError::persist_io("stat event log", e))?
                .len();
            self.appender = Some(file);
        }
        Ok(self.appender.as_mut().expect("appender was just opened"))
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), RepoError> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.appender()?
            .write_all(bytes)
            .map_err(|e| RepoError::persist_io("append event log", e))?;
        self.file_len += bytes.len() as u64;
        Ok(())
    }

    /// Seal the current file (fsync, so its full length is durable
    /// before anything lands in the next one) and move to its successor.
    fn roll(&mut self) -> Result<(), RepoError> {
        if let Some(file) = self.appender.take() {
            file.sync_all()
                .map_err(|e| RepoError::persist_io("fsync sealed log segment", e))?;
            self.fsync_stats.sync_all += 1;
        }
        self.file_index += 1;
        self.file_len = 0;
        self.synced_len = None;
        Ok(())
    }

    /// `restore()` plus the replayed event count, off a single read of
    /// the log (the open path of [`AutoCompactingEventLog`] needs both).
    /// Reads follow the generation the on-disk manifest names, so they
    /// stay consistent even if a foreign writer advanced it.
    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        let (base, log) = match read_manifest_in(&self.dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (RepositorySnapshot::empty(""), self.generation.clone()),
        };
        let events = EventLogBackend::read_generation_events(&self.dir, &log)?;
        Ok((replay(base, &events), events.len()))
    }
}

impl EventLogBackend {
    /// The checkpointed base state and current generation name of a log
    /// directory, read without opening a writer (and therefore without
    /// the open-time torn-tail repair): `(base, generation)` from the
    /// manifest, or the empty state and generation 0 of whichever format
    /// has written the directory (JSONL for a fresh one) when no
    /// checkpoint exists yet. This is the read-side entry point replicas
    /// tail from.
    pub fn read_state_in(dir: &Path) -> Result<(RepositorySnapshot, String), RepoError> {
        Ok(match read_manifest_in(dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (
                RepositorySnapshot::empty(""),
                unmanifested_generation(dir).unwrap_or_else(|| "events-0.jsonl".to_string()),
            ),
        })
    }

    /// Every intact event of one generation in `dir`, in either format:
    /// [`read_tail`] from offset 0. A torn tail is dropped; corruption is
    /// the typed [`RepoError::CorruptFrame`].
    pub fn read_generation_events(
        dir: &Path,
        generation: &str,
    ) -> Result<Vec<RepoEvent>, RepoError> {
        match read_tail(dir, generation, 0)? {
            Some((events, _)) => Ok(events),
            None => Err(RepoError::Persist(format!(
                "log generation `{generation}` was removed while it was read"
            ))),
        }
    }

    /// Recover the durable state of a log directory purely by reading:
    /// manifest base + replay of the intact records of the generation it
    /// names, in either format. Unlike `open(dir)?.restore()` this never
    /// mutates the directory (no torn-tail repair), so tests and tooling
    /// can compute the expected fold of a directory that is concurrently
    /// being tailed or deliberately left torn.
    pub fn restore_dir(dir: &Path) -> Result<RepositorySnapshot, RepoError> {
        let (base, generation) = Self::read_state_in(dir)?;
        Ok(replay(
            base,
            &Self::read_generation_events(dir, &generation)?,
        ))
    }
}

impl<F: LogFormat> StorageBackend for LogBackend<F> {
    fn kind(&self) -> &'static str {
        F::KIND
    }

    /// One buffered write per file of the batch through the persistent
    /// appender. Records go greedily into the current file, rolling to
    /// a fresh one whenever the next would overflow the segment cap; a
    /// record larger than the cap still gets a (solo) file — the cap
    /// bounds file size, not event size.
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        if events.is_empty() {
            return Ok(());
        }
        // Make sure file_len is real before sizing against the cap.
        self.appender()?;
        let mut pending = Vec::new();
        for event in events {
            let before = pending.len();
            F::encode(event, &mut pending)?;
            let start = self.file_len + before as u64;
            if start > 0 && start + (pending.len() - before) as u64 > self.segment_bytes {
                let record = pending.split_off(before);
                self.write(&pending)?;
                self.roll()?;
                pending = record;
            }
        }
        self.write(&pending)?;
        match self.durability {
            DurabilityMode::PerBatch => {
                // "Durably append" means surviving power loss, not just
                // a process crash. The append grew the file, so the full
                // `sync_all` is required (the new length is metadata).
                self.appender()?
                    .sync_all()
                    .map_err(|e| RepoError::persist_io("fsync event log", e))?;
                self.fsync_stats.sync_all += 1;
                self.synced_len = Some(self.file_len);
            }
            DurabilityMode::GroupCommit => self.dirty = true,
        }
        Ok(())
    }

    /// Crash-safe compaction. The new manifest names a *fresh*
    /// generation, so the manifest rename is the single commit point:
    /// dying before it leaves the old manifest + old log (the
    /// pre-checkpoint state, fully replayable); dying after it leaves the
    /// new manifest whose generation is empty or absent (exactly the
    /// checkpointed state). The superseded generation's files are
    /// removed opportunistically afterwards.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        let n: u64 = self
            .generation
            .strip_prefix("events-")
            .and_then(|s| s.strip_suffix(F::SUFFIX))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let manifest = Manifest {
            log: format!("events-{}{}", n + 1, F::SUFFIX),
            state: snapshot.clone(),
        };
        write_manifest_in(&self.dir, &manifest)?;
        let old = std::mem::replace(&mut self.generation, manifest.log);
        // The generation rolled: drop the superseded appender (the next
        // `record` opens one on the fresh generation) and forget any
        // staged bytes — the manifest's snapshot supersedes them, so
        // they need no fsync of their own. The fresh file has never been
        // fsynced.
        self.file_index = 0;
        self.file_len = 0;
        self.appender = None;
        self.dirty = false;
        self.synced_len = None;
        // Past the commit point: the old generation is garbage now.
        for name in F::files(&self.dir, &old).unwrap_or_default() {
            std::fs::remove_file(self.dir.join(name)).ok();
        }
        Ok(())
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.restore_with_pending().map(|(state, _)| state)
    }

    /// One fsync covering every batch staged since the last call. A no-op
    /// when nothing is staged — including the whole
    /// [`DurabilityMode::PerBatch`] regime, where `record` already synced.
    /// Mid-window rolls already fsynced the sealed files, so only the
    /// live one needs syncing: the full `sync_all` when it grew since the
    /// last fsync (the new length must reach disk), the cheaper
    /// `sync_data` when its length is unchanged. [`Self::fsync_stats`]
    /// counts the split.
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        if !self.dirty {
            return Ok(());
        }
        let len = self.file_len;
        let data_only = self.synced_len == Some(len);
        let file = self.appender()?;
        if data_only {
            file.sync_data()
                .map_err(|e| RepoError::persist_io("fdatasync event log", e))?;
            self.fsync_stats.sync_data += 1;
        } else {
            file.sync_all()
                .map_err(|e| RepoError::persist_io("fsync event log", e))?;
            self.fsync_stats.sync_all += 1;
            self.synced_len = Some(len);
        }
        self.dirty = false;
        Ok(())
    }

    /// Switching to [`DurabilityMode::PerBatch`] does not retroactively
    /// sync staged bytes — call [`StorageBackend::flush_durable`] first
    /// (the next per-batch `record`'s `sync_all` would cover them too).
    fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.tail_repaired.clone()
    }
}

/// When an [`AutoCompactingEventLog`] checkpoints: after at least
/// `checkpoint_every` events have been recorded since the last
/// checkpoint. Restores therefore replay at most `checkpoint_every - 1`
/// events plus one `record` batch (behind a
/// [`crate::pipeline::BackgroundWriter`], at most
/// [`crate::pipeline::PipelineConfig::max_group_events`]), and the
/// directory holds O(1) generations no matter how long the repository
/// lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Checkpoint threshold, in events since the last checkpoint (≥ 1;
    /// 0 is clamped to 1).
    pub checkpoint_every: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            checkpoint_every: 256,
        }
    }
}

/// A generation log under an automatic compaction policy: the backend
/// maintains the live folded state alongside the log (seeded by
/// `restore` at open, advanced by [`crate::event::apply_event`] on every
/// recorded batch) and checkpoints it every
/// [`CompactionPolicy::checkpoint_every`] events — so checkpointing never
/// needs the live [`crate::repo::Repository`], which is what lets the
/// background durability pipeline compact off-thread. Superseded
/// generations (including strays from crashes mid-checkpoint) are pruned
/// after every checkpoint.
///
/// Generic over the [`LogFormat`]: the default is [`Jsonl`], and
/// [`AutoCompactingBinaryLog`] names the [`Binary`] instantiation.
#[derive(Debug)]
pub struct AutoCompactingEventLog<F: LogFormat = Jsonl> {
    inner: LogBackend<F>,
    policy: CompactionPolicy,
    /// The fold of everything durably recorded so far — exactly what
    /// `restore` would return.
    state: RepositorySnapshot,
    since_checkpoint: usize,
    /// Cumulative compaction accounting since open.
    checkpoints: u64,
    pruned_files: u64,
    /// When set, every compaction pass (automatic or explicit) publishes
    /// [`HealthReport::Compaction`] under this component name.
    observer: Option<(Arc<RuntimeHealth>, String)>,
}

/// An auto-compacting binary segmented log
/// ([`crate::binlog::BinaryLogBackend`] under a [`CompactionPolicy`]);
/// open with [`AutoCompactingEventLog::open_with`].
pub type AutoCompactingBinaryLog = AutoCompactingEventLog<Binary>;

impl AutoCompactingEventLog {
    /// Open (or create) a JSONL event log under `dir` with `policy`. A
    /// reopened log already past its checkpoint budget compacts
    /// immediately. (Inherent on the default format so pre-existing call
    /// sites need no turbofish; use [`Self::open_with`] for other
    /// formats.)
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: CompactionPolicy,
    ) -> Result<AutoCompactingEventLog, RepoError> {
        Self::open_with(dir, policy)
    }
}

impl<F: LogFormat> AutoCompactingEventLog<F> {
    /// Open (or create) a log of format `F` under `dir` with `policy`.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        policy: CompactionPolicy,
    ) -> Result<AutoCompactingEventLog<F>, RepoError> {
        let inner = LogBackend::<F>::open(dir)?;
        let (state, since_checkpoint) = inner.restore_with_pending()?;
        let mut backend = AutoCompactingEventLog {
            inner,
            policy,
            state,
            since_checkpoint,
            checkpoints: 0,
            pruned_files: 0,
            observer: None,
        };
        backend.maybe_checkpoint()?;
        Ok(backend)
    }

    /// Publish every compaction pass (automatic threshold crossings and
    /// explicit [`StorageBackend::checkpoint`] calls) as
    /// [`HealthReport::Compaction`] on a [`Runtime`](crate::runtime::Runtime)'s
    /// unified health channel, under `component`.
    pub fn set_observer(&mut self, health: &Arc<RuntimeHealth>, component: &str) {
        self.observer = Some((Arc::clone(health), component.to_string()));
    }

    /// Compaction passes completed since open (automatic + explicit).
    pub fn compactions(&self) -> u64 {
        self.checkpoints
    }

    /// The wrapped log backend.
    pub fn inner(&self) -> &LogBackend<F> {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Events recorded since the last checkpoint (what a restore would
    /// have to replay).
    pub fn events_since_checkpoint(&self) -> usize {
        self.since_checkpoint
    }

    fn maybe_checkpoint(&mut self) -> Result<(), RepoError> {
        if self.since_checkpoint >= self.policy.checkpoint_every.max(1) {
            self.compact_now()?;
        }
        Ok(())
    }

    /// One compaction pass: checkpoint the folded state, prune stale
    /// generations, publish to the observer if one is installed.
    fn compact_now(&mut self) -> Result<(), RepoError> {
        self.inner.checkpoint(&self.state)?;
        let pruned = self.inner.prune_stale_generations()?;
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        self.pruned_files += pruned as u64;
        if let Some((health, component)) = &self.observer {
            health.report(
                component,
                HealthReport::Compaction {
                    kind: F::COMPACTED_KIND.to_string(),
                    checkpoints: self.checkpoints,
                    pruned_files: self.pruned_files,
                },
            );
        }
        Ok(())
    }
}

impl<F: LogFormat> StorageBackend for AutoCompactingEventLog<F> {
    fn kind(&self) -> &'static str {
        F::COMPACTED_KIND
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        self.inner.record(events)?;
        for event in events {
            apply_event(&mut self.state, event);
        }
        self.since_checkpoint += events.len();
        self.maybe_checkpoint()
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        self.state = snapshot.clone();
        self.compact_now()
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.inner.restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        self.inner.flush_durable()
    }

    fn set_durability(&mut self, mode: DurabilityMode) {
        self.inner.set_durability(mode)
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.inner.tail_repaired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::template::{ExampleEntry, ExampleType};

    use crate::test_support::unique_dir;

    fn entry(title: &str) -> ExampleEntry {
        ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview("O.")
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build()
            .unwrap()
    }

    fn busy_repository() -> Repository {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        r.grant_role("c", "bob", crate::principal::Role::Reviewer)
            .unwrap();
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.comment("bob", &id, "2014-03-28", "Nice.").unwrap();
        r.request_review("alice", &id).unwrap();
        r.approve("bob", &id).unwrap();
        r.contribute("alice", entry("DATES")).unwrap();
        r
    }

    #[test]
    fn memory_backend_replays_deltas() {
        let r = busy_repository();
        let mut backend = MemoryBackend::new();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.kind(), "memory");
        assert!(backend.pending_events() > 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // Checkpoint compacts without changing the restored state.
        backend.checkpoint(&r.snapshot()).unwrap();
        assert_eq!(backend.pending_events(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
    }

    #[test]
    fn json_file_backend_keeps_the_legacy_format() {
        let dir = unique_dir("json");
        std::fs::create_dir_all(&dir).unwrap();
        let r = busy_repository();
        let mut backend = JsonFileBackend::new(dir.join("repo.json"));
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // The file is byte-identical to what persist has always written —
        // and loads through the legacy loader.
        let on_disk = std::fs::read_to_string(backend.path()).unwrap();
        assert_eq!(on_disk, persist::to_json(&r.snapshot()).unwrap());
        let legacy = persist::load_file(backend.path()).unwrap();
        assert_eq!(legacy.snapshot(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_log_backend_appends_and_recovers() {
        let dir = unique_dir("log");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();

        // Record in two batches, as a live system would.
        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        assert_eq!(backend.pending_events().unwrap(), events.len());
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // A reopened backend (fresh process) sees the same state.
        let reopened = EventLogBackend::open(&dir).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());

        // Checkpointing compacts the log; recovery switches to
        // snapshot + (empty) replay.
        backend.checkpoint(&r.snapshot()).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // Deltas after the checkpoint replay on top of it.
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-checkpoint",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 1);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_log_lines_report_typed_corrupt_frames() {
        let dir = unique_dir("corrupt");
        let backend = EventLogBackend::open(&dir).unwrap();
        // A complete (newline-terminated) unparseable line is corruption,
        // typed with the byte offset of the offending line so salvage can
        // truncate exactly there.
        std::fs::write(dir.join("events-0.jsonl"), "{ not an event\n").unwrap();
        match backend.restore() {
            Err(RepoError::CorruptFrame {
                segment, offset, ..
            }) => {
                assert_eq!(segment, "events-0.jsonl");
                assert_eq!(offset, 0);
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_append_recovers_the_intact_prefix() {
        let dir = unique_dir("torn");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let expected = backend.restore().unwrap();
        // Simulate a crash mid-append: a final line with no newline.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            expected,
            "the torn tail is dropped, the intact prefix recovered"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_previous_generation_log_is_ignored_after_checkpoint() {
        // Simulate dying in the checkpoint window after the manifest
        // rename but before the old generation's log is unlinked: the
        // manifest points at the new (absent) log, so the stale events
        // must not be double-applied.
        let dir = unique_dir("stale");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        let events = r.drain_events();
        backend.record(&events).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        // Resurrect the superseded generation file by hand.
        let mut stale = String::new();
        for e in &events {
            stale.push_str(&serde_json::to_string(e).unwrap());
            stale.push('\n');
        }
        std::fs::write(dir.join("events-0.jsonl"), stale).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_repairs_a_torn_tail_so_appends_stay_clean() {
        let dir = unique_dir("repair");
        let r = busy_repository();
        let events = r.drain_events();
        let (before, after) = events.split_at(events.len() - 2);
        {
            let mut backend = EventLogBackend::open(&dir).unwrap();
            backend.record(before).unwrap();
        }
        // Crash mid-append: a partial final line with no newline.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        // A fresh writer process appends the remaining events. Without the
        // open-time repair, its first line would fuse with the fragment
        // into a corrupt line.
        let mut backend = EventLogBackend::open(&dir).unwrap();
        let repair = backend
            .tail_repaired()
            .expect("the open-time repair is observable, never silent");
        assert_eq!(repair.file, "events-0.jsonl");
        assert_eq!(
            repair.bytes_dropped,
            "{\"Commented\":{\"id\":\"co".len() as u64
        );
        backend.record(after).unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        assert_eq!(backend.pending_events().unwrap(), events.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_removes_only_superseded_generations() {
        let dir = unique_dir("prune");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        // Strand two stale generations, as a crash inside the checkpoint
        // window would.
        std::fs::write(dir.join("events-0.jsonl"), "junk\n").unwrap();
        std::fs::write(dir.join("events-7.jsonl"), "junk\n").unwrap();
        // The current generation has live post-checkpoint deltas.
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "live",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.prune_stale_generations().unwrap(), 2);
        assert_eq!(
            backend.generation_files().unwrap(),
            vec![backend.current_generation().to_string()]
        );
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_bounds_replay_and_generations() {
        let dir = unique_dir("autocompact");
        let r = busy_repository();
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 4,
            },
        )
        .unwrap();
        let events = r.drain_events();
        // Feed one event at a time: the policy must fire repeatedly.
        for event in &events {
            backend.record(std::slice::from_ref(event)).unwrap();
        }
        assert!(backend.events_since_checkpoint() < 4);
        assert!(backend.inner().pending_events().unwrap() < 4);
        assert!(backend.inner().generation_files().unwrap().len() <= 1);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // A reopened instance with a tighter budget compacts immediately.
        drop(backend);
        let reopened = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 1,
            },
        )
        .unwrap();
        assert_eq!(reopened.events_since_checkpoint(), 0);
        assert_eq!(reopened.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_observer_publishes_on_the_unified_channel() {
        let dir = unique_dir("compact-observe");
        let r = busy_repository();
        let health = Arc::new(RuntimeHealth::new());
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 4,
            },
        )
        .unwrap();
        backend.set_observer(&health, "compaction:jsonl");
        let events = r.drain_events();
        for event in &events {
            backend.record(std::slice::from_ref(event)).unwrap();
        }
        // Explicit checkpoints publish too.
        backend.checkpoint(&r.snapshot()).unwrap();
        let report = health
            .latest("compaction:jsonl")
            .expect("every compaction pass publishes");
        match report.report {
            HealthReport::Compaction {
                ref kind,
                checkpoints,
                ..
            } => {
                assert_eq!(kind, "event-log+auto-compact");
                assert!(checkpoints >= 2, "auto passes plus the explicit one");
                assert_eq!(checkpoints, backend.compactions());
            }
            ref other => panic!("expected a compaction report, got {other:?}"),
        }

        // The binary instantiation reports its own kind.
        let bin_dir = unique_dir("compact-observe-bin");
        let mut binary: AutoCompactingBinaryLog = AutoCompactingEventLog::open_with(
            &bin_dir,
            CompactionPolicy {
                checkpoint_every: 1,
            },
        )
        .unwrap();
        binary.set_observer(&health, "compaction:bin");
        binary.record(&events).unwrap();
        match health.latest("compaction:bin").unwrap().report {
            HealthReport::Compaction { ref kind, .. } => {
                assert_eq!(kind, "binary-log+auto-compact")
            }
            ref other => panic!("expected a compaction report, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&bin_dir).ok();
    }

    #[test]
    fn missing_json_file_reports_persist_error() {
        let backend = JsonFileBackend::new("/nonexistent/definitely/missing.json");
        assert!(matches!(backend.restore(), Err(RepoError::Persist(_))));
    }

    #[test]
    fn json_flush_durable_skips_only_a_missing_file() {
        let dir = unique_dir("json-fsync");
        std::fs::create_dir_all(&dir).unwrap();
        // Absent snapshot: nothing recorded yet, nothing to sync.
        let mut absent = JsonFileBackend::new(dir.join("missing.json"));
        absent.flush_durable().unwrap();
        // Any other open failure must surface, not masquerade as durable:
        // a path routed *through* a regular file fails with NotADirectory.
        let blocking = dir.join("plain-file");
        std::fs::write(&blocking, "x").unwrap();
        let mut broken = JsonFileBackend::new(blocking.join("nested.json"));
        assert!(matches!(broken.flush_durable(), Err(RepoError::Persist(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_stages_then_one_flush_makes_everything_durable() {
        let dir = unique_dir("group-commit");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        assert_eq!(backend.durability(), DurabilityMode::PerBatch);
        backend.set_durability(DurabilityMode::GroupCommit);

        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        // Both batches are staged and visible to readers before the fsync
        // point; one flush covers them all.
        assert_eq!(backend.pending_events().unwrap(), events.len());
        backend.flush_durable().unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // Idempotent: nothing staged, nothing to sync.
        backend.flush_durable().unwrap();

        // A fresh process over the directory sees the flushed state.
        let reopened = EventLogBackend::open(&dir).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rolls_the_persistent_appender_to_the_new_generation() {
        let dir = unique_dir("appender-roll");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(&r.drain_events()).unwrap();
        // Checkpoint mid-stage: the manifest supersedes the staged bytes,
        // the appender must re-open on the fresh generation.
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-roll",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(backend.pending_events().unwrap(), 1);
        assert_eq!(backend.current_generation(), "events-1.jsonl");
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pending_events_counts_lines_without_parsing() {
        let dir = unique_dir("pending-count");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        // Tear the tail as a mid-write kill would, and pad with a blank
        // line the parser has always skipped.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("   \n{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        // The intact-line count is pinned to what full parsing yields.
        let parsed = EventLogBackend::read_generation_events(&dir, "events-0.jsonl")
            .unwrap()
            .len();
        assert_eq!(backend.pending_events().unwrap(), parsed);
        assert!(parsed > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_split_counts_sync_all_for_growth_and_sync_data_otherwise() {
        let dir = unique_dir("fsync-split");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();

        // Per-batch appends grow the segment: every record is a sync_all.
        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        assert_eq!(
            backend.fsync_stats(),
            FsyncStats {
                sync_all: 1,
                sync_data: 0
            }
        );

        // Group commit: a staged batch grew the segment, so the flush is
        // still a sync_all.
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(b).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(
            backend.fsync_stats(),
            FsyncStats {
                sync_all: 2,
                sync_data: 0
            }
        );
        // Clean flush: no fsync of either kind.
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsync_stats().total(), 2);

        // Dirty with the segment length unchanged since the last fsync
        // (no append happened): the durable size metadata is already
        // right, so the flush downgrades to sync_data.
        backend.dirty = true;
        backend.flush_durable().unwrap();
        assert_eq!(
            backend.fsync_stats(),
            FsyncStats {
                sync_all: 2,
                sync_data: 1
            }
        );
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // A checkpoint rolls the generation: the first flush over the new
        // segment must be a full sync again.
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-roll",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(
            backend.fsync_stats(),
            FsyncStats {
                sync_all: 3,
                sync_data: 1
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cloned_backend_owes_no_fsync_for_the_originals_staged_bytes() {
        let dir = unique_dir("clone-dirty");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(&r.drain_events()).unwrap();
        let mut clone = backend.clone();
        // The clone starts clean (its flush is a no-op) but shares the
        // directory, so reads agree; the original still flushes its own
        // staged bytes.
        clone.flush_durable().unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(clone.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }
}
