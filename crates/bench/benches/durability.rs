//! E13 — the `durability` group: what the fsync schedule costs on the
//! hot write path, over a real `EventLogBackend` directory.
//!
//! `append/*` rows push one fixed workload (1024 comment events) through
//! a `BackgroundWriter` from 1/4/16 producer threads, in producer
//! batches of 4 events, under two durability schedules:
//!
//! * `per-batch/<producers>` — `write_batch` pinned to the producer
//!   batch size, so the backend fsyncs once per 4-event batch: the
//!   seed's "every durable append pays a `sync_all`" regime.
//! * `group-commit/<producers>` — a 1 ms group-commit window: the writer
//!   stages every batch concurrent producers queue and issues one fsync
//!   per window ([`bx_core::pipeline::PipelineStats::group_commits`]).
//!
//! Both rows pay the same serialisation and append work; the gap is
//! purely the fsync schedule, which is the point. `restore/cold` checks
//! the read side is unharmed: a cold open + full replay over the same
//! 1024-event log that the staged appends produced.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bx_core::pipeline::{BackgroundWriter, PipelineConfig};
use bx_core::storage::{EventLogBackend, StorageBackend};
use bx_core::{BinaryLogBackend, Principal, RepoEvent, Repository, Runtime};

/// Events one producer hands over per enqueue call.
const PRODUCER_BATCH: usize = 4;
/// Total events per iteration, split across the producers.
const TOTAL_EVENTS: usize = 1024;

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bx-bench-durability-{}-{tag}", std::process::id()))
}

fn open_jsonl(dir: &Path) -> EventLogBackend {
    EventLogBackend::open(dir).expect("event log opens")
}

fn open_binary(dir: &Path) -> BinaryLogBackend {
    BinaryLogBackend::open(dir).expect("binary log opens")
}

/// A deterministic stream of `n` comment events.
fn workload(n: usize) -> Vec<RepoEvent> {
    let repo = Repository::found("bench-durability", vec![Principal::curator("curator")]);
    repo.register(Principal::member("bench-bot")).unwrap();
    let id = repo
        .contribute(
            "bench-bot",
            bx_bench::synthetic_entry(0, &mut bx_examples::benchmark::Lcg::new(0xD0D0)),
        )
        .unwrap();
    repo.drain_events();
    for i in 0..n {
        repo.comment("bench-bot", &id, "2014-03-28", &format!("durable {i}"))
            .unwrap();
    }
    repo.drain_events()
}

/// One timed iteration: a fresh log directory, `producers` threads each
/// enqueueing their share in `PRODUCER_BATCH`-sized slices, one final
/// acknowledged flush, orderly shutdown. Generic over the backend so
/// the same workload measures both on-disk formats.
fn run<B, F>(open: F, config: PipelineConfig, producers: usize, events: &[RepoEvent], dir: &Path)
where
    B: StorageBackend + Send + 'static,
    F: Fn(&Path) -> B,
{
    std::fs::remove_dir_all(dir).ok();
    let writer = Arc::new(BackgroundWriter::on_runtime(
        open(dir),
        config,
        &Runtime::named("bx-durability", 1),
        "writer",
    ));
    let share = events.len() / producers;
    let threads: Vec<_> = (0..producers)
        .map(|p| {
            let writer = writer.clone();
            let slice: Vec<RepoEvent> = events[p * share..(p + 1) * share].to_vec();
            std::thread::spawn(move || {
                for batch in slice.chunks(PRODUCER_BATCH) {
                    writer.enqueue(batch);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("producer threads succeed");
    }
    writer.flush().expect("acknowledged durability");
    writer.shutdown().expect("orderly shutdown");
}

fn bench_append(c: &mut Criterion) {
    let events = workload(TOTAL_EVENTS);
    let mut group = c.benchmark_group("durability/append");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TOTAL_EVENTS as u64));
    for &producers in &[1usize, 4, 16] {
        let per_batch = PipelineConfig {
            // One fsync per producer batch — the pre-group-commit regime.
            write_batch: PRODUCER_BATCH,
            ..PipelineConfig::default()
        };
        let dir = bench_dir(&format!("per-batch-{producers}"));
        group.bench_with_input(
            BenchmarkId::new("per-batch", producers),
            &producers,
            |b, &producers| b.iter(|| run(open_jsonl, per_batch, producers, &events, &dir)),
        );
        std::fs::remove_dir_all(&dir).ok();

        let grouped = PipelineConfig::group_commit(Duration::from_millis(1));
        let dir = bench_dir(&format!("group-commit-{producers}"));
        group.bench_with_input(
            BenchmarkId::new("group-commit", producers),
            &producers,
            |b, &producers| b.iter(|| run(open_jsonl, grouped, producers, &events, &dir)),
        );
        std::fs::remove_dir_all(&dir).ok();

        // The binary backend under the same group-commit schedule: the
        // fsync count is identical, the gap is serialisation + append.
        let dir = bench_dir(&format!("group-commit-binary-{producers}"));
        group.bench_with_input(
            BenchmarkId::new("group-commit-binary", producers),
            &producers,
            |b, &producers| b.iter(|| run(open_binary, grouped, producers, &events, &dir)),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

fn bench_restore(c: &mut Criterion) {
    // The read side: a cold process opening and replaying the log the
    // staged appends produced — in both on-disk formats.
    let events = workload(TOTAL_EVENTS);
    let dir = bench_dir("restore");
    let bin_dir = bench_dir("restore-binary");
    let grouped = PipelineConfig::group_commit(Duration::from_millis(1));
    run(open_jsonl, grouped, 4, &events, &dir);
    run(open_binary, grouped, 4, &events, &bin_dir);
    let mut group = c.benchmark_group("durability/restore");
    group.sample_size(10);
    group.throughput(Throughput::Elements(TOTAL_EVENTS as u64));
    group.bench_function(BenchmarkId::new("cold", TOTAL_EVENTS), |b| {
        b.iter(|| {
            let backend = EventLogBackend::open(&dir).expect("event log opens");
            criterion::black_box(backend.restore().expect("restores"))
        })
    });
    group.bench_function(BenchmarkId::new("cold-binary", TOTAL_EVENTS), |b| {
        b.iter(|| {
            let backend = BinaryLogBackend::open(&bin_dir).expect("binary log opens");
            criterion::black_box(backend.restore().expect("restores"))
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&bin_dir).ok();
}

criterion_group!(benches, bench_append, bench_restore);
criterion_main!(benches);
