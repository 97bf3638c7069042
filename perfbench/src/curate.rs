//! `curate`: the contributor's commit path. A closed loop of one client
//! per core, each owning a disjoint slice of entries, runs the curation
//! mix against a `Repository` whose `BackgroundWriter` drives an
//! auto-compacting JSONL event log; every operation waits for `flush()`,
//! so an acknowledged operation is a durable one.
//!
//! The run is a sequence of epochs, each on a fresh repository and
//! directory. The checkpoint manifest embeds the whole state, and reading
//! it back costs time quadratic in its size with today's JSON parser, so
//! a single run-long repository could not be verified within the run's
//! time limit. Epochs bound the state; the first and last epoch of every
//! run are restored from disk and compared with the live repository.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bx_core::event::apply_event;
use bx_core::pipeline::PipelineStats;
use bx_core::repo::RepositorySnapshot;
use bx_core::runtime::HealthReport;
use bx_core::storage::{
    AutoCompactingEventLog, CompactionPolicy, DurabilityMode, EventLogBackend, StorageBackend,
};
use bx_core::{
    BackgroundWriter, EntryId, PipelineConfig, Principal, RepoEvent, Repository, Role, Runtime,
};

use crate::gen;
use crate::stats::{median, ms, us, Rng, Summary};
use crate::trace::Trace;
use crate::{dir_bytes, file_len, Ctx, Outcome};

/// Entries each client owns when an epoch starts.
const SLICE: usize = 256;
/// Operations each client runs per epoch.
const EPOCH_OPS: usize = 500;
/// Group-commit window of the durability pipeline.
const GROUP_COMMIT: Duration = Duration::from_millis(1);
/// Events between automatic checkpoints.
const CHECKPOINT_EVERY: usize = 1024;
/// Members who comment (besides the authors).
const MEMBERS: usize = 8;
/// A client hands the repository journal's backlog over this often.
const DRAIN_EVERY: usize = 64;

#[derive(Clone, Copy, PartialEq)]
enum Status {
    Provisional,
    Approved,
}

/// One client's view of the entries it owns.
struct Slice {
    ids: Vec<EntryId>,
    status: Vec<Status>,
}

/// What one epoch produced.
struct Epoch {
    setup: Duration,
    measured: Duration,
    /// Acknowledged operations, with their latencies (moved out into the
    /// run's totals as soon as the epoch ends).
    ops: usize,
    latencies_ms: Vec<f64>,
    errors: u64,
    /// The epoch's directory and the live repository's final state, kept
    /// for verification.
    dir: PathBuf,
    snapshot: RepositorySnapshot,
    stats: PipelineStats,
    compactions: u64,
    journal_overflow: u64,
    /// The epoch's event stream, in journal order (kept on request).
    stream: Vec<RepoEvent>,
    log_bytes: u64,
    manifest_bytes: u64,
    trace: Trace,
}

fn author(client: usize) -> String {
    format!("author{client}")
}

fn reviewer(client: usize) -> String {
    format!("reviewer{client}")
}

/// One client's closed loop: `EPOCH_OPS` operations, each acknowledged by
/// `flush()`. Returns per-operation latencies (ms) and the error count.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    client: usize,
    clients: usize,
    repo: &Repository,
    writer: &BackgroundWriter,
    slice: &mut Slice,
    rng: &mut Rng,
    trace: &mut Trace,
    stream: Option<&std::sync::Mutex<Vec<RepoEvent>>>,
) -> (Vec<f64>, u64) {
    let me = author(client);
    let independent = reviewer((client + 1) % clients);
    let mut latencies = Vec::with_capacity(EPOCH_OPS);
    let mut errors = 0u64;
    for n in 0..EPOCH_OPS {
        let op = ((client as u64) << 32) | n as u64;
        let pick = rng.below(slice.ids.len());
        let roll = rng.percent();
        let root = trace.open("bench.commit", op, None);
        let started = Instant::now();
        let result = if roll < 80 {
            let who = format!("member{}", rng.below(MEMBERS));
            let (date, text) = (gen::date(rng), gen::comment_text(rng));
            trace.span("repo.mutate", op, Some(root), || {
                repo.comment(&who, &slice.ids[pick], &date, &text)
            })
        } else if roll < 90 {
            let id = &slice.ids[pick];
            repo.latest(id).and_then(|latest| {
                let next = gen::revision(rng, &latest);
                trace
                    .span("repo.mutate", op, Some(root), || repo.revise(&me, id, next))
                    .map(|_| slice.status[pick] = Status::Provisional)
            })
        } else if roll < 95 {
            let title = format!(
                "Client {client} entry {} {}",
                slice.ids.len(),
                gen::WORDS[pick % 32]
            );
            let entry = gen::entry(rng, &title, &me);
            trace
                .span("repo.mutate", op, Some(root), || {
                    repo.contribute(&me, entry)
                })
                .map(|id| {
                    slice.ids.push(id);
                    slice.status.push(Status::Provisional);
                })
        } else {
            // Review the first provisional entry at or after `pick`.
            let at = (0..slice.ids.len())
                .map(|k| (pick + k) % slice.ids.len())
                .find(|&k| slice.status[k] == Status::Provisional)
                .expect("an epoch approves far fewer entries than a slice holds");
            let id = &slice.ids[at];
            trace
                .span("repo.mutate", op, Some(root), || {
                    repo.request_review(&me, id)
                })
                .and_then(|()| {
                    trace.span("repo.mutate", op, Some(root), || {
                        repo.approve(&independent, id)
                    })
                })
                .map(|_| slice.status[at] = Status::Approved)
        };
        let flushed = trace.span("pipeline.flush", op, Some(root), || writer.flush());
        let done = Instant::now();
        trace.close(root);
        if let Err(e) = result.and(flushed) {
            errors += 1;
            eprintln!("curate: client {client} op {n}: {e}");
        } else {
            latencies.push(ms(done - started));
        }
        if n % DRAIN_EVERY == DRAIN_EVERY - 1 {
            let drained = repo.drain_events();
            if let Some(stream) = stream {
                stream.lock().expect("stream lock").extend(drained);
            }
        }
    }
    (latencies, errors)
}

/// One epoch on a fresh repository and directory; a traced epoch records
/// spans and keeps its event stream.
fn run_epoch(ctx: &Ctx, index: usize, traced: bool) -> Epoch {
    let epoch_start = Instant::now();
    let mut rng = Rng::new(ctx.seed).fork(1000 + index as u64);
    let clients = ctx.threads;
    let dir = ctx.dir(&format!("curate-{index}"));

    let setup_start = Instant::now();
    let runtime = Runtime::named("bx-curate", 1);
    let mut backend = AutoCompactingEventLog::open(
        &dir,
        CompactionPolicy {
            checkpoint_every: CHECKPOINT_EVERY,
        },
    )
    .expect("a fresh event log opens");
    backend.set_observer(runtime.health(), "curate.storage");
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig::group_commit(GROUP_COMMIT),
        &runtime,
        "curate.pipeline",
    ));
    let repo = Repository::found("bx-examples", vec![Principal::curator("curator")]);
    repo.subscribe_with_backfill(writer.clone());
    let mut slices = Vec::with_capacity(clients);
    for c in 0..clients {
        repo.register(Principal::member(&author(c)))
            .expect("fresh account");
        repo.register(Principal::member(&reviewer(c)))
            .expect("fresh account");
        repo.grant_role("curator", &reviewer(c), Role::Reviewer)
            .expect("curators grant roles");
    }
    for m in 0..MEMBERS {
        repo.register(Principal::member(&format!("member{m}")))
            .expect("fresh account");
    }
    for c in 0..clients {
        let mut ids = Vec::with_capacity(SLICE + EPOCH_OPS / 10);
        for i in 0..SLICE {
            let title = format!("Client {c} entry {i}");
            ids.push(
                repo.contribute(&author(c), gen::entry(&mut rng, &title, &author(c)))
                    .expect("fresh titles contribute"),
            );
        }
        slices.push(Slice {
            status: vec![Status::Provisional; ids.len()],
            ids,
        });
    }
    writer.flush().expect("set-up history is durable");
    let setup_events = repo.drain_events();
    let setup = setup_start.elapsed();

    let stream = std::sync::Mutex::new(if traced { setup_events } else { Vec::new() });
    let measure_start = Instant::now();
    let results: Vec<(Vec<f64>, u64, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .iter_mut()
            .enumerate()
            .map(|(c, slice)| {
                let (repo, writer, stream) = (&repo, &writer, &stream);
                let mut rng = rng.fork(c as u64);
                scope.spawn(move || {
                    let mut trace = Trace::new(epoch_start, traced);
                    let keep = traced.then_some(stream);
                    let (lat, err) =
                        client_loop(c, clients, repo, writer, slice, &mut rng, &mut trace, keep);
                    (lat, err, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let measured = measure_start.elapsed();

    let mut trace = Trace::new(epoch_start, traced);
    let mut latencies_ms = Vec::new();
    let mut errors = 0;
    for (lat, err, t) in results {
        latencies_ms.extend(lat);
        errors += err;
        trace.absorb(t);
    }
    let tail_events = repo.drain_events();
    let mut stream = stream.into_inner().expect("stream lock");
    if traced {
        stream.extend(tail_events);
    }
    let stats = writer.stats();
    let compactions = match runtime.health().latest("curate.storage").map(|h| h.report) {
        Some(HealthReport::Compaction { checkpoints, .. }) => checkpoints,
        _ => 0,
    };
    let snapshot = repo.snapshot();
    let journal_overflow = repo.journal_overflow();
    let log_bytes = dir_bytes(&dir, |n| n.ends_with(".jsonl"));
    let manifest_bytes = file_len(&dir.join("checkpoint.json"));
    drop(repo);
    writer.shutdown().expect("writer shuts down cleanly");
    drop(writer);
    drop(runtime);
    Epoch {
        setup,
        measured,
        ops: latencies_ms.len(),
        latencies_ms,
        errors,
        dir,
        snapshot,
        stats,
        compactions,
        journal_overflow,
        stream,
        log_bytes,
        manifest_bytes,
        trace,
    }
}

/// Replay the stream in the pipeline's observed batch size into a fresh
/// JSONL backend, timing each layer call: one staged `record` and one
/// `flush_durable` per batch, a checkpoint every `checkpoint_every`
/// events. Returns the bytes left on disk (log and manifest) per event.
fn replay_into_storage(
    dir: &Path,
    stream: &[RepoEvent],
    batch: usize,
    checkpoint_every: usize,
    trace: &mut Trace,
) -> f64 {
    let mut backend = EventLogBackend::open(dir).expect("a fresh event log opens");
    backend.set_durability(DurabilityMode::GroupCommit);
    let mut state = RepositorySnapshot::default();
    let mut since = 0usize;
    for (op, chunk) in stream.chunks(batch.max(1)).enumerate() {
        let op = op as u64;
        trace
            .span("storage.record", op, None, || backend.record(chunk))
            .expect("replayed batches record");
        trace
            .span("storage.flush_durable", op, None, || {
                backend.flush_durable()
            })
            .expect("replayed batches flush");
        for event in chunk {
            apply_event(&mut state, event);
        }
        since += chunk.len();
        if since >= checkpoint_every {
            trace
                .span("storage.checkpoint", op, None, || {
                    backend.checkpoint(&state)
                })
                .expect("replayed state checkpoints");
            since = 0;
        }
    }
    let on_disk =
        dir_bytes(dir, |n| n.ends_with(".jsonl")) + file_len(&dir.join("checkpoint.json"));
    on_disk as f64 / stream.len().max(1) as f64
}

/// Release an epoch's directory and final state (idempotent), first
/// checking, when `verify` names the epoch, that the directory restores
/// to that state. An epoch that fails the check has every operation
/// counted incorrect.
fn retire(epoch: &mut Epoch, verify: Option<usize>) -> bool {
    let mut ok = true;
    if let Some(index) = verify {
        ok = EventLogBackend::restore_dir(&epoch.dir).is_ok_and(|r| r == epoch.snapshot);
        if !ok {
            epoch.errors += epoch.ops as u64;
            eprintln!("check failed: epoch {index} did not restore to the live state");
        }
    }
    std::fs::remove_dir_all(&epoch.dir).ok();
    epoch.snapshot = RepositorySnapshot::default();
    ok
}

/// The commit path's per-layer metrics from a traced run: the `repo.mutate`
/// and `pipeline.flush` spans already in `trace`, the writer's counters,
/// and a replay of `stream` into a fresh JSONL backend in `replay_dir`
/// (batched at the pipeline's observed events per fsync).
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_layers(
    out: &mut Outcome,
    trace: &mut Trace,
    stream: &[RepoEvent],
    replay_dir: &Path,
    checkpoint_every: usize,
    stats: PipelineStats,
    compactions: u64,
    journal_overflow: u64,
) {
    let per_fsync = stats.durable as f64 / stats.fsyncs.max(1) as f64;
    let batch = per_fsync.round() as usize;
    let bytes_per_event = replay_into_storage(replay_dir, stream, batch, checkpoint_every, trace);
    let pick = |name: &str, tail: bool| {
        let d: Vec<f64> = trace.durations(name).into_iter().map(us).collect();
        Summary::of(&d).map_or(0.0, |s| if tail { s.p99 } else { s.p50 })
    };
    out.layer("repo.mutate_us_p50", pick("repo.mutate", false));
    out.layer("repo.mutate_us_p99", pick("repo.mutate", true));
    out.layer("repo.journal_overflow", journal_overflow as f64);
    out.layer("pipeline.flush_wait_us_p50", pick("pipeline.flush", false));
    out.layer("pipeline.flush_wait_us_p99", pick("pipeline.flush", true));
    out.layer("pipeline.events_per_fsync", per_fsync);
    out.layer("pipeline.fsyncs", stats.fsyncs as f64);
    out.layer(
        "pipeline.backpressure_waits",
        stats.backpressure_waits as f64,
    );
    out.layer("storage.record_us_p50", pick("storage.record", false));
    out.layer(
        "storage.flush_durable_us_p50",
        pick("storage.flush_durable", false),
    );
    out.layer("storage.bytes_per_event", bytes_per_event);
    out.layer("storage.compactions", compactions as f64);
    let checkpoints: Vec<f64> = trace
        .durations("storage.checkpoint")
        .into_iter()
        .map(ms)
        .collect();
    out.layer(
        "storage.checkpoint_ms",
        if checkpoints.is_empty() {
            0.0
        } else {
            median(&checkpoints)
        },
    );
    out.note(format!(
        "trace: storage replay of {} events in batches of {batch} ({} durable events over {} fsyncs)",
        stream.len(),
        stats.durable,
        stats.fsyncs
    ));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // The first and the last epoch are restored from disk and compared
    // with the live repository's state: every acknowledged operation must
    // be there. Other epochs' directories and states are dropped as soon
    // as a later epoch exists, so memory stays flat over the run.
    let mut epochs: Vec<(bool, Epoch)> = Vec::new();
    let mut verified = Vec::new();
    // Latencies of the untraced and the traced epochs. The reservation is
    // address space only (pages are touched as samples arrive), so the
    // peak resident set grows with the samples taken instead of jumping
    // at each doubling of the vector.
    let reserve = ctx.seconds.as_secs() as usize * 20_000;
    let mut latencies = [Vec::with_capacity(reserve), Vec::with_capacity(reserve)];
    for (traced, budget) in ctx.phases() {
        let mut spent = Duration::ZERO;
        while spent < budget {
            let mut epoch = run_epoch(ctx, epochs.len(), traced);
            spent += epoch.measured;
            latencies[usize::from(traced)].append(&mut epoch.latencies_ms);
            if let Some((_, previous)) = epochs.last_mut() {
                retire(previous, None);
                if traced {
                    previous.stream = Vec::new();
                }
            }
            epochs.push((traced, epoch));
            if epochs.len() == 1 {
                verified.push(retire(&mut epochs[0].1, Some(0)));
            }
        }
    }
    let last = epochs.len() - 1;
    if last > 0 {
        verified.push(retire(&mut epochs[last].1, Some(last)));
    }

    let mut stats_sum = PipelineStats::default();
    let (mut compactions, mut overflow) = (0u64, 0u64);
    for (traced, e) in &epochs {
        out.setups.push(e.setup);
        out.measured += e.measured;
        out.ops += e.ops;
        out.attempted += e.ops as u64 + e.errors;
        out.failed += e.errors;
        if *traced {
            stats_sum.durable += e.stats.durable;
            stats_sum.fsyncs += e.stats.fsyncs;
            stats_sum.backpressure_waits += e.stats.backpressure_waits;
            compactions += e.compactions;
        }
        overflow += e.journal_overflow;
    }
    // A journal overflow means the drain cadence failed to keep up.
    out.check(overflow == 0, "repository journal overflowed");
    let [untraced_ms, traced_ms] = latencies;
    let overhead = ctx
        .trace
        .then(|| median(&traced_ms) / median(&untraced_ms) - 1.0);
    out.latencies_ms = if ctx.trace { traced_ms } else { untraced_ms };

    let (_, last) = epochs.last().expect("at least one epoch");
    out.note(format!(
        "policy: closed loop, {} clients x {SLICE} entries each, mix 80% comment / 10% revise / \
         5% contribute / 5% request_review+approve, flush() after every operation, group commit \
         {} ms, checkpoint_every {CHECKPOINT_EVERY}, {} ops per client per epoch",
        ctx.threads,
        GROUP_COMMIT.as_millis(),
        EPOCH_OPS
    ));
    out.note(format!(
        "data: {} epochs; last epoch ended with {} JSONL bytes and a {} byte manifest; \
         {} of {} epochs restored from disk and compared, {} equal",
        epochs.len(),
        last.log_bytes,
        last.manifest_bytes,
        verified.len(),
        epochs.len(),
        verified.iter().filter(|&&ok| ok).count()
    ));
    out.note(
        "why: the contributor's path, where ack means durable; loads repo, pipeline and storage \
         (append, fsync, periodic checkpoints) and not index or replica"
            .to_string(),
    );
    let commits = Summary::of_mut(&mut out.latencies_ms).expect("commits completed");
    out.note(format!(
        "commit_ops_per_s = {:.2} 1/s ({} commits in {:.3} s)",
        out.ops as f64 / out.measured.as_secs_f64(),
        out.ops,
        out.measured.as_secs_f64()
    ));
    out.note(format!(
        "commit_p50_ms = {:.4} ms (n={})",
        commits.p50, commits.n
    ));
    out.note(format!(
        "commit_p99_ms = {:.4} ms (n={})",
        commits.p99, commits.n
    ));

    if ctx.trace {
        let mut trace = Trace::new(Instant::now(), true);
        let mut stream_epoch = None;
        for (traced, e) in epochs.iter_mut() {
            if *traced {
                trace.absorb(std::mem::replace(
                    &mut e.trace,
                    Trace::new(Instant::now(), false),
                ));
                stream_epoch = Some(std::mem::take(&mut e.stream));
            }
        }
        let stream = stream_epoch.expect("a traced epoch ran");
        let replay = ctx.dir("curate-replay");
        commit_layers(
            &mut out,
            &mut trace,
            &stream,
            &replay,
            CHECKPOINT_EVERY,
            stats_sum,
            compactions,
            overflow,
        );
        out.layer("trace.overhead_frac", overhead.expect("a traced run"));
        out.trace = Some(trace);
    }
    out
}
