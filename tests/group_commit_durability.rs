//! The group-commit durability pipeline end to end over real files:
//! concurrent producers converge through one fsync per window, the
//! window composes with auto-compaction's generation rolls, the health
//! reports on the runtime channel surface the amortisation, and the
//! per-batch default stays exactly as durable as it always was.

use std::sync::Arc;
use std::time::Duration;

use bx::core::pipeline::{BackgroundWriter, PipelineConfig, PipelineStats};
use bx::core::storage::{
    AutoCompactingEventLog, CompactionPolicy, EventLogBackend, StorageBackend,
};
use bx::core::{EntryId, ExampleEntry, ExampleType, HealthReport, Principal, Repository, Runtime};
use bx_testkit::ops::unique_temp_dir;

/// A writer on a one-worker runtime whose only handle is the writer's
/// own.
fn writer_on<B: StorageBackend + Send + 'static>(
    backend: B,
    config: PipelineConfig,
) -> BackgroundWriter {
    BackgroundWriter::on_runtime(
        backend,
        config,
        &Runtime::named("bx-durability", 1),
        "writer",
    )
}

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

/// A repository with one entry per producer thread, events drained.
fn seeded(producers: usize) -> (Arc<Repository>, Vec<EntryId>) {
    let repo = Arc::new(Repository::found("bx", vec![Principal::curator("c")]));
    repo.register(Principal::member("alice")).unwrap();
    let ids: Vec<EntryId> = (0..producers)
        .map(|i| {
            repo.contribute("alice", entry(&format!("ENTRY-{i}")))
                .unwrap()
        })
        .collect();
    (repo, ids)
}

#[test]
fn concurrent_producers_converge_through_group_commit() {
    let dir = unique_temp_dir("group-commit-concurrent");
    let (repo, ids) = seeded(4);
    let writer = Arc::new(writer_on(
        EventLogBackend::open(&dir).unwrap(),
        PipelineConfig::group_commit(Duration::from_millis(2)),
    ));
    repo.subscribe_with_backfill(writer.clone());

    const COMMENTS: usize = 24;
    let threads: Vec<_> = ids
        .iter()
        .cloned()
        .map(|id| {
            let repo = repo.clone();
            std::thread::spawn(move || {
                for i in 0..COMMENTS {
                    repo.comment("alice", &id, "2014-03-28", &format!("c{i}"))
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    writer.flush().unwrap();

    let stats = writer.stats();
    assert_eq!(stats.durable, stats.enqueued);
    assert_eq!(stats.dropped, 0);
    assert!(stats.group_commits >= 1);
    assert_eq!(stats.fsyncs, stats.group_commits);
    assert!(
        stats.fsyncs < stats.durable,
        "{} events must not cost {} fsyncs",
        stats.durable,
        stats.fsyncs
    );
    writer.shutdown().unwrap();

    // A fresh process over the directory recovers the primary exactly.
    let recovered = EventLogBackend::open(&dir).unwrap();
    assert_eq!(recovered.restore().unwrap(), repo.snapshot());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn group_commit_composes_with_auto_compaction() {
    let dir = unique_temp_dir("group-commit-compact");
    let (repo, ids) = seeded(2);
    // Aggressive checkpointing: the appender must roll generations many
    // times inside the group-commit regime.
    let backend = AutoCompactingEventLog::open(
        &dir,
        CompactionPolicy {
            checkpoint_every: 8,
        },
    )
    .unwrap();
    let writer = Arc::new(writer_on(
        backend,
        PipelineConfig::group_commit(Duration::from_millis(1)),
    ));
    repo.subscribe_with_backfill(writer.clone());
    for i in 0..40 {
        repo.comment("alice", &ids[i % ids.len()], "2014-03-28", &format!("c{i}"))
            .unwrap();
    }
    writer.flush().unwrap();
    writer.shutdown().unwrap();

    let recovered = EventLogBackend::open(&dir).unwrap();
    assert_eq!(recovered.restore().unwrap(), repo.snapshot());
    // Compaction kept working off-thread: the log was checkpointed, so a
    // restore replays far less than the full history.
    assert!(
        recovered.pending_events().unwrap() < 40,
        "auto-compaction must keep the replay tail bounded"
    );
    assert!(recovered.generation_files().unwrap().len() <= 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn periodic_health_reports_show_the_amortisation() {
    let dir = unique_temp_dir("group-commit-health");
    let (repo, ids) = seeded(1);
    let runtime = Runtime::named("bx-durability", 1);
    let writer = Arc::new(BackgroundWriter::on_runtime(
        EventLogBackend::open(&dir).unwrap(),
        PipelineConfig::group_commit(Duration::from_millis(1)),
        &runtime,
        "writer",
    ));
    repo.subscribe_with_backfill(writer.clone());
    for i in 0..16 {
        repo.comment("alice", &ids[0], "2014-03-28", &format!("c{i}"))
            .unwrap();
    }
    writer.flush().unwrap();
    // A report lands just after the commit it describes wakes the
    // flusher; shutdown waits for the writer's last pass.
    writer.shutdown().unwrap();

    let reports: Vec<(PipelineStats, Option<String>)> = runtime
        .health()
        .drain()
        .into_iter()
        .map(|entry| match entry.report {
            HealthReport::Pipeline { stats, error, .. } => (stats, error),
            other => panic!("unexpected report {other:?}"),
        })
        .collect();
    assert!(!reports.is_empty());
    let (last, error) = reports.last().unwrap();
    assert_eq!(*error, None);
    assert_eq!(last.group_commits, last.fsyncs);
    assert_eq!(*last, writer.stats());
    for pair in reports.windows(2) {
        assert!(
            pair[0].0.group_commits < pair[1].0.group_commits,
            "each report marks one more window"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_batch_default_remains_one_call_durable() {
    let dir = unique_temp_dir("per-batch-default");
    let (repo, ids) = seeded(1);
    let writer = Arc::new(writer_on(
        EventLogBackend::open(&dir).unwrap(),
        PipelineConfig::default(),
    ));
    repo.subscribe_with_backfill(writer.clone());
    for i in 0..8 {
        repo.comment("alice", &ids[0], "2014-03-28", &format!("c{i}"))
            .unwrap();
    }
    writer.flush().unwrap();
    let stats = writer.stats();
    assert_eq!(stats.durable, stats.enqueued);
    assert_eq!(stats.group_commits, 0, "no windows in per-batch mode");
    assert!(stats.fsyncs >= 1);
    writer.shutdown().unwrap();
    let recovered = EventLogBackend::open(&dir).unwrap();
    assert_eq!(recovered.restore().unwrap(), repo.snapshot());
    std::fs::remove_dir_all(&dir).ok();
}
