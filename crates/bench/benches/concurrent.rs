//! E12 — the `concurrent` group: multi-threaded curation throughput over
//! the lock-striped store, reported alongside the single-lock baseline
//! and with the background durability pipeline attached.
//!
//! Each iteration founds a fresh repository (setup is inside the timed
//! body so every iteration does identical work), then runs N writer
//! threads — each commenting on its own disjoint slice of entries — in
//! parallel with M reader threads hammering `latest`/`snapshot`. Rows:
//!
//! * `writers/shards=1`  — the degenerate single-lock layout: every
//!   mutation serialises on one stripe.
//! * `writers/shards=16` — the default striping; disjoint entries take
//!   disjoint locks.
//! * `writers+pipeline/shards=16` — same, with a `BackgroundWriter`
//!   subscribed (bounded channel → `MemoryBackend`), measuring what
//!   commit-time push delivery plus flush costs under contention.
//!
//! Thread spawn overhead is part of every row, so compare rows against
//! each other, not against the single-threaded benches. On a single-core
//! host the writer threads time-slice instead of running in parallel and
//! the shards=1 and shards=16 rows converge; the striping payoff shows
//! on multi-core hardware, where disjoint entries really do commit
//! concurrently.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bx_core::pipeline::{BackgroundWriter, PipelineConfig};
use bx_core::storage::MemoryBackend;
use bx_core::{EntryId, EventSink, Principal, Repository, Runtime};
use bx_examples::benchmark::Lcg;

const WRITERS: usize = 4;
const READERS: usize = 2;
const COMMENTS_PER_WRITER: usize = 32;
const ENTRIES_PER_WRITER: usize = 4;

/// Total mutations one iteration commits.
const OPS: u64 = (WRITERS * COMMENTS_PER_WRITER) as u64;

/// A fresh repository with one disjoint entry slice per writer thread.
fn seeded_repository(shards: usize) -> (Arc<Repository>, Vec<Vec<EntryId>>) {
    let repo = Arc::new(Repository::with_shards(
        "bench-concurrent",
        vec![Principal::curator("curator")],
        shards,
    ));
    repo.register(Principal::member("bench-bot")).unwrap();
    let mut rng = Lcg::new(0xC0C0);
    let mut slices = Vec::with_capacity(WRITERS);
    for w in 0..WRITERS {
        let mut ids = Vec::with_capacity(ENTRIES_PER_WRITER);
        for e in 0..ENTRIES_PER_WRITER {
            let entry = bx_bench::synthetic_entry(w * ENTRIES_PER_WRITER + e, &mut rng);
            ids.push(repo.contribute("bench-bot", entry).unwrap());
        }
        slices.push(ids);
    }
    repo.drain_events();
    (repo, slices)
}

/// The contended workload: writers comment round-robin over their own
/// slice while readers poll `latest` and take periodic snapshots.
fn run_contended(repo: &Arc<Repository>, slices: &[Vec<EntryId>]) {
    let mut threads = Vec::with_capacity(WRITERS + READERS);
    for ids in slices.iter().cloned() {
        let repo = repo.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..COMMENTS_PER_WRITER {
                let id = &ids[i % ids.len()];
                repo.comment("bench-bot", id, "2014-03-28", "contended")
                    .expect("members comment");
            }
        }));
    }
    let all_ids: Vec<EntryId> = slices.iter().flatten().cloned().collect();
    for r in 0..READERS {
        let repo = repo.clone();
        let all_ids = all_ids.clone();
        threads.push(std::thread::spawn(move || {
            for i in 0..COMMENTS_PER_WRITER {
                let id = &all_ids[(i + r) % all_ids.len()];
                let _ = criterion::black_box(repo.latest(id));
                if i % 8 == 0 {
                    let _ = criterion::black_box(repo.snapshot().records.len());
                }
            }
        }));
    }
    for t in threads {
        t.join().expect("workload threads succeed");
    }
    // Keep the journal bounded across iterations.
    repo.drain_events();
}

fn bench_concurrent_writers(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent/writers");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS));
    for &shards in &[1usize, 16] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| {
                let (repo, slices) = seeded_repository(shards);
                run_contended(&repo, &slices);
            })
        });
    }
    group.finish();
}

fn bench_concurrent_with_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent/writers+pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(OPS));
    group.bench_with_input(BenchmarkId::new("shards", 16), &16usize, |b, &shards| {
        b.iter(|| {
            let (repo, slices) = seeded_repository(shards);
            let writer = Arc::new(BackgroundWriter::on_runtime(
                MemoryBackend::new(),
                PipelineConfig::default(),
                &Runtime::named("bx-durability", 1),
                "writer",
            ));
            repo.subscribe(writer.clone() as Arc<dyn EventSink>);
            run_contended(&repo, &slices);
            writer.flush().expect("background writer stays healthy");
            writer.shutdown().expect("orderly shutdown");
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_concurrent_writers,
    bench_concurrent_with_pipeline
);
criterion_main!(benches);
