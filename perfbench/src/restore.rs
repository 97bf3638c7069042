//! `restore`: cold start. Set-up writes one seeded, revision-heavy
//! history into four directories — {JSONL, binary} × {one uncompacted
//! generation, a compacted manifest plus a short tail} — then a single
//! thread cold-opens each in turn with `Replica::open_on` on a runtime of
//! one worker per core, up to the first answered query. One operation is
//! one such restart of all four directories.
//!
//! The history is sized by today's manifest parse, which is quadratic in
//! the manifest's size: the compacted directories must open in well
//! under a second each so a run repeats the restart many times.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bx_core::binlog::crc32;
use bx_core::event::replay;
use bx_core::index::SearchIndex;
use bx_core::persist::to_json;
use bx_core::repo::RepositorySnapshot;
use bx_core::storage::{
    AutoCompactingBinaryLog, AutoCompactingEventLog, CompactionPolicy, DurabilityMode,
    EventLogBackend, StorageBackend,
};
use bx_core::wiki_bx::WikiBx;
use bx_core::{
    BinaryLogBackend, EntryId, Principal, Replica, RepoEvent, Repository, Role, Runtime, WikiSite,
};
use bx_theory::Bx;

use crate::gen;
use crate::stats::{median, ms, Rng};
use crate::trace::Trace;
use crate::{dir_bytes, file_len, Ctx, Outcome};

/// Entries in the history.
const ENTRIES: usize = 96;
/// Curation operations after the entries are contributed.
const OPERATIONS: usize = 700;
/// One operation in this many revises an entry, carrying its accumulated
/// comments into the new version (so JSONL lines grow with the history).
const REVISE_EVERY: usize = 200;
/// One operation in this many is a review followed by an approval.
const REVIEW_EVERY: usize = 50;
/// Checkpoint threshold of the compacted directories: their tail holds
/// fewer events than this.
const CHECKPOINT_EVERY: usize = 512;
/// Events handed to each `record` call while writing the directories.
const WRITE_BATCH: usize = 100;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 31;

/// The four directory kinds, in the order a restart opens them.
const KINDS: [&str; 4] = ["jsonl", "binary", "jsonl-compacted", "binary-compacted"];

/// The generated history and the state it must restore to.
struct History {
    events: Vec<RepoEvent>,
    expected: RepositorySnapshot,
    /// A term the first query asks for, and the entry that must answer.
    probe: (String, EntryId),
}

fn generate(seed: u64) -> History {
    let mut rng = Rng::new(seed).fork(2000);
    let repo = Repository::found("bx-examples", vec![Principal::curator("curator")]);
    let authors = ["alice", "bob", "carol", "dave"];
    for a in authors {
        repo.register(Principal::member(a)).expect("fresh account");
    }
    repo.register(Principal::member("rita"))
        .expect("fresh account");
    repo.grant_role("curator", "rita", Role::Reviewer)
        .expect("curators grant roles");
    let mut ids = Vec::with_capacity(ENTRIES);
    for i in 0..ENTRIES {
        let author = authors[i % authors.len()];
        let entry = gen::entry(&mut rng, &format!("Restore example r{i}x"), author);
        ids.push(
            repo.contribute(author, entry)
                .expect("fresh titles contribute"),
        );
    }
    for n in 1..=OPERATIONS {
        let k = rng.below(ids.len());
        let id = &ids[k];
        if n % REVISE_EVERY == 0 {
            let next = gen::revision(&mut rng, &repo.latest(id).expect("entry exists"));
            repo.revise(authors[k % authors.len()], id, next)
                .expect("authors revise");
        } else if n % REVIEW_EVERY == 0 {
            // Approved entries need a revision before another review.
            if repo.request_review(authors[k % authors.len()], id).is_ok() {
                repo.approve("rita", id)
                    .expect("independent reviewer approves");
            }
        } else {
            let who = authors[rng.below(authors.len())];
            repo.comment(who, id, &gen::date(&mut rng), &gen::comment_text(&mut rng))
                .expect("members comment");
        }
    }
    History {
        events: repo.drain_events(),
        expected: repo.snapshot(),
        probe: ("r0x".to_string(), ids[0].clone()),
    }
}

fn write_dir<B: StorageBackend>(mut backend: B, events: &[RepoEvent]) {
    // Staged appends with one fsync at the end (checkpoints still sync
    // their manifests): set-up time tracks the write path, not the disk's
    // fsync jitter.
    backend.set_durability(DurabilityMode::GroupCommit);
    for batch in events.chunks(WRITE_BATCH) {
        backend.record(batch).expect("history records");
    }
    backend.flush_durable().expect("history is durable");
}

/// Write the history into the four directories under `root`.
fn write_all(root: &Path, events: &[RepoEvent]) -> Vec<PathBuf> {
    let dirs: Vec<PathBuf> = KINDS.iter().map(|k| root.join(k)).collect();
    let policy = CompactionPolicy {
        checkpoint_every: CHECKPOINT_EVERY,
    };
    write_dir(EventLogBackend::open(&dirs[0]).expect("dir opens"), events);
    write_dir(BinaryLogBackend::open(&dirs[1]).expect("dir opens"), events);
    write_dir(
        AutoCompactingEventLog::open(&dirs[2], policy).expect("dir opens"),
        events,
    );
    write_dir(
        AutoCompactingBinaryLog::open_with(&dirs[3], policy).expect("dir opens"),
        events,
    );
    dirs
}

fn digest(snapshot: &RepositorySnapshot) -> u32 {
    crc32(to_json(snapshot).expect("snapshots serialise").as_bytes())
}

/// The stages of a restore, called one by one in sequence on `dir`:
/// manifest read, generation decode, replay, index build and wiki render.
/// Returns the restored snapshot.
fn stages(dir: &Path, op: u64, trace: &mut Trace) -> RepositorySnapshot {
    let root = trace.open("restore.stages", op, None);
    let (base, generation) = trace.span("storage.read_state_in", op, Some(root), || {
        EventLogBackend::read_state_in(dir).expect("state reads")
    });
    let decode = if bx_core::binlog::is_binary_generation(&generation) {
        "binlog.read_generation_events"
    } else {
        "storage.read_generation_events"
    };
    let events = trace.span(decode, op, Some(root), || {
        EventLogBackend::read_generation_events(dir, &generation).expect("generation reads")
    });
    let snapshot = trace.span("event.replay", op, Some(root), || replay(base, &events));
    let index = trace.span("index.build", op, Some(root), || {
        SearchIndex::build(&snapshot)
    });
    let site = trace.span("wiki_bx.fwd", op, Some(root), || {
        WikiBx::new().fwd(&snapshot, &WikiSite::new())
    });
    trace.close(root);
    std::hint::black_box((index, site));
    snapshot
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let runtime = Runtime::named("bx-restore", ctx.threads);

    let mut dirs = Vec::new();
    let mut history = None;
    for k in 0..SETUPS {
        let root = ctx.dir(&format!("setup-{k}"));
        let started = Instant::now();
        let generated = generate(ctx.seed);
        dirs = write_all(&root, &generated.events);
        out.setups.push(started.elapsed());
        history = Some(generated);
        if k + 1 < SETUPS {
            std::fs::remove_dir_all(&root).ok();
        }
    }
    let history = history.expect("at least one set-up");
    let expected_digest = digest(&history.expected);
    let (term, answer) = (history.probe.0.as_str(), &history.probe.1);

    // One restart: cold-open every directory in turn, each up to its
    // first answered query. Returns the open times and whether each
    // replica answered correctly and holds the generator's state.
    let restart = |trace: &mut Trace, op: u64| -> (Vec<Duration>, Vec<bool>) {
        let mut times = Vec::with_capacity(KINDS.len());
        let mut good = Vec::with_capacity(KINDS.len());
        for dir in &dirs {
            let started = Instant::now();
            let (replica, hits) = trace.span("replica.open_on", op, None, || {
                let replica = Replica::open_on(dir, &runtime).expect("directory opens");
                let hits = replica.query(&[term]);
                (replica, hits)
            });
            times.push(started.elapsed());
            good.push(
                hits.iter().any(|(id, _)| id == answer)
                    && digest(replica.snapshot()) == expected_digest,
            );
        }
        (times, good)
    };

    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); KINDS.len()];
    let mut rounds_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut trace = Trace::new(Instant::now(), ctx.trace);
    let mut stage_total = Duration::ZERO;
    let mut seq_total = Duration::ZERO;
    let (mut seq_ms, mut par_ms) = (Vec::new(), Vec::new());
    let mut op = 0u64;
    for (traced, budget) in ctx.phases() {
        let mut spent = Duration::ZERO;
        while spent < budget {
            let mut round_trace = Trace::new(Instant::now(), traced);
            let (times, good) = restart(&mut round_trace, op);
            let round: Duration = times.iter().sum();
            spent += round;
            out.measured += round;
            out.ops += times.len();
            rounds_ms[usize::from(traced)].push(ms(round));
            for (k, (t, ok)) in times.iter().zip(&good).enumerate() {
                per_kind[k].push(ms(*t));
                out.check(*ok, &format!("{} restores the generator's state", KINDS[k]));
            }
            if traced {
                // Reconcile the stages against a sequential open of the
                // same directory, and time the parallel open beside it.
                let (mut seq, mut par) = (Duration::ZERO, Duration::ZERO);
                for dir in &dirs {
                    let staged = stages(dir, op, &mut round_trace);
                    out.check(
                        digest(&staged) == expected_digest,
                        "the staged restore matches the generator's state",
                    );
                    let t = Instant::now();
                    round_trace.span("replica.open", op, None, || {
                        std::hint::black_box(Replica::open(dir).expect("directory opens"))
                    });
                    seq += t.elapsed();
                    let t = Instant::now();
                    std::hint::black_box(Replica::open_on(dir, &runtime).expect("directory opens"));
                    par += t.elapsed();
                }
                seq_ms.push(ms(seq));
                par_ms.push(ms(par));
                seq_total += seq;
                stage_total += round_trace.total("restore.stages");
                trace.absorb(round_trace);
            }
            op += 1;
        }
    }
    out.latencies_ms = rounds_ms[usize::from(ctx.trace)].clone();

    let jsonl = dirs[0].join(EventLogBackend::read_state_in(&dirs[0]).expect("reads").1);
    let jsonl_bytes = file_len(&jsonl);
    let binary_bytes = dir_bytes(&dirs[1], |n| n.contains(".bin."));
    let manifest_bytes = file_len(&dirs[2].join("checkpoint.json"));
    let tail_events = |dir: &Path| {
        let (_, generation) = EventLogBackend::read_state_in(dir).expect("reads");
        EventLogBackend::read_generation_events(dir, &generation)
            .expect("reads")
            .len()
    };
    out.note(format!(
        "policy: one thread cold-opens {} in turn with Replica::open_on on a runtime of {} workers, \
         up to the first answered query; compacted directories checkpoint every {CHECKPOINT_EVERY} events; \
         {SETUPS} set-ups per run",
        KINDS.join(", "),
        ctx.threads
    ));
    out.note(format!(
        "data: {} events over {} entries (a revise every {REVISE_EVERY} operations, a review every \
         {REVIEW_EVERY}); JSONL {jsonl_bytes} B, binary {binary_bytes} B, manifest {manifest_bytes} B \
         with tails of {} (JSONL) and {} (binary) events; state digest {expected_digest:08x}",
        history.events.len(),
        history.expected.records.len(),
        tail_events(&dirs[2]),
        tail_events(&dirs[3])
    ));
    out.note(
        "why: loads storage and binlog decode, the manifest parse, event fold, index build and \
         wiki render with no pipeline work, and splits format-specific decode from the shared fold"
            .to_string(),
    );
    let secs = |v: &[f64]| median(v) / 1e3;
    let compacted: Vec<f64> = per_kind[2].iter().chain(&per_kind[3]).copied().collect();
    out.note(format!(
        "restore_jsonl_s = {:.6} s (n={})",
        secs(&per_kind[0]),
        per_kind[0].len()
    ));
    out.note(format!(
        "restore_binary_s = {:.6} s (n={})",
        secs(&per_kind[1]),
        per_kind[1].len()
    ));
    out.note(format!(
        "restore_checkpoint_s = {:.6} s (n={}, both formats)",
        secs(&compacted),
        compacted.len()
    ));

    if ctx.trace {
        let med = |name: &str| {
            let d: Vec<f64> = trace.durations(name).into_iter().map(ms).collect();
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        // Every traced round runs the stages on the four kinds in turn,
        // so the `which`-th of every `per_round` spans called `name`
        // belongs to one directory kind.
        let nth = |name: &str, which: usize, per_round: usize| {
            let d: Vec<f64> = trace
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .skip(which)
                .step_by(per_round)
                .map(|s| ms(s.duration()))
                .collect();
            if d.is_empty() {
                0.0
            } else {
                median(&d)
            }
        };
        out.layer(
            "storage.manifest_parse_ms",
            nth("storage.read_state_in", 2, KINDS.len()),
        );
        out.layer("storage.manifest_bytes", manifest_bytes as f64);
        // Decodes alternate between the uncompacted generation and the
        // compacted directory's short tail; report the former.
        out.layer(
            "storage.jsonl_decode_ms",
            nth("storage.read_generation_events", 0, 2),
        );
        out.layer("storage.jsonl_bytes", jsonl_bytes as f64);
        out.layer(
            "binlog.decode_ms",
            nth("binlog.read_generation_events", 0, 2),
        );
        out.layer("binlog.bytes", binary_bytes as f64);
        out.layer("event.replay_ms", nth("event.replay", 0, KINDS.len()));
        out.layer("index.build_ms", med("index.build"));
        out.layer("wiki_bx.publish_ms", med("wiki_bx.fwd"));
        out.layer("runtime.open_seq_ms", median(&seq_ms));
        out.layer("runtime.open_par_ms", median(&par_ms));
        out.layer(
            "runtime.parallel_speedup",
            median(&seq_ms) / median(&par_ms),
        );
        out.layer(
            "runtime.panics_caught",
            runtime.pool_stats().panics_caught as f64,
        );
        let untracked = 1.0 - stage_total.as_secs_f64() / seq_total.as_secs_f64();
        out.layer("restore.untracked_frac", untracked);
        out.layer(
            "trace.overhead_frac",
            median(&rounds_ms[1]) / median(&rounds_ms[0]) - 1.0,
        );
        out.note(format!(
            "reconciliation: stages sum to {:.1} ms against {:.1} ms of sequential Replica::open \
             over the same directories; untracked share {:.3}",
            ms(stage_total),
            ms(seq_total),
            untracked
        ));
        out.trace = Some(trace);
    }
    out
}
