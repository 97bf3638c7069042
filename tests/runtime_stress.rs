//! Runtime stress: every background tenant the workspace has — durability
//! writers, a federation's replica daemon, auto-compaction, the lint
//! engine — multiplexed onto ONE small shared [`Runtime`] pool, under
//! fault injection (a `CrashingBackend` fuse burns a writer out
//! mid-stream, a planted lint check panics on a pool worker). The pool
//! must survive both faults, every healthy tenant must converge, and no
//! tenant may starve another. Runs in the CI release test step.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bx::core::index::SearchIndex;
use bx::core::pipeline::{BackgroundWriter, PipelineConfig};
use bx::core::replica::{federate_snapshots, DaemonConfig, Federation, ReplicaDaemon, SourceId};
use bx::core::runtime::{HealthReport, Runtime};
use bx::core::storage::{
    AutoCompactingEventLog, CompactionPolicy, EventLogBackend, StorageBackend,
};
use bx::core::template::ArtefactKind;
use bx::core::{EntryId, Principal, RepoError, Repository};
use bx::lint::{CheckCatalog, LawChecker};
use bx_testkit::faults::CrashingBackend;
use bx_testkit::ops::unique_temp_dir;

fn entry(title: &str) -> bx::core::ExampleEntry {
    bx::core::ExampleEntry::builder(title)
        .of_type(bx::core::template::ExampleType::Precise)
        .overview("O.")
        .models("M.")
        .consistency("C.")
        .restoration("F.", "B.")
        .discussion("D.")
        .author("alice")
        .build()
        .unwrap()
}

fn primary(name: &str) -> Repository {
    let r = Repository::found(name, vec![Principal::curator("c")]);
    r.register(Principal::member("alice")).unwrap();
    r
}

/// The headline scenario: writer + daemon + compaction + lint as tenants
/// of one two-worker pool, with a crashing backend and a panicking lint
/// check injected. Asserts (a) the pool survives both faults, (b) every
/// healthy tenant converges to its expected end state, (c) each tenant's
/// health lands on the unified channel — i.e. all of them made progress
/// on the shared pool, none starved another out.
#[test]
fn mixed_tenants_on_one_small_pool_survive_faults_and_converge() {
    let dir = unique_temp_dir("stress-writer");
    let crash_dir = unique_temp_dir("stress-crash");
    let runtime = Runtime::named("bx-stress", 2);

    // Tenant 1: a healthy group-commit writer into an auto-compacting
    // log that reports its compaction passes (tenant 2) on the channel.
    let mut backend = AutoCompactingEventLog::open(
        &dir,
        CompactionPolicy {
            checkpoint_every: 8,
        },
    )
    .unwrap();
    backend.set_observer(runtime.health(), "compaction");
    let writer = Arc::new(BackgroundWriter::on_runtime(
        backend,
        PipelineConfig {
            channel_capacity: 16,
            write_batch: 4,
            group_commit_window: Some(Duration::from_millis(2)),
            ..PipelineConfig::default()
        },
        &runtime,
        "writer",
    ));

    // Tenant 3: a doomed writer whose backend burns out mid-stream.
    let doomed = Arc::new(BackgroundWriter::on_runtime(
        CrashingBackend::new(EventLogBackend::open(&crash_dir).unwrap(), 5),
        PipelineConfig {
            channel_capacity: 16,
            write_batch: 4,
            ..PipelineConfig::default()
        },
        &runtime,
        "writer:crash",
    ));

    // Tenant 4: the lint engine, with a planted check that panics on the
    // pool worker that runs it.
    let mut catalog = CheckCatalog::new();
    catalog.register_lens_check("stress::panic_lens", || panic!("injected lint panic"));
    let checker = Arc::new(LawChecker::on_runtime(Arc::new(catalog), &runtime, "lint"));

    // Drive a primary through both writers and the checker.
    let repo = primary("bx");
    repo.subscribe(writer.clone());
    repo.subscribe(doomed.clone());
    repo.subscribe_with_backfill(checker.clone());

    let mut poisoned = entry("POISONED");
    poisoned.artefacts.push(bx::core::template::Artefact {
        name: "boom".to_string(),
        kind: ArtefactKind::Code,
        location: "stress::panic_lens".to_string(),
    });
    let titles = [
        "COMPOSERS",
        "UML2RDBMS",
        "DATES",
        "FAMILIES",
        "BIBTEX",
        "ASTS",
        "VIEWS",
        "SPREADSHEET",
    ];
    for title in titles {
        repo.contribute("alice", entry(title)).unwrap();
        repo.comment("alice", &EntryId::from_title(title), "2014-03-28", "stress")
            .unwrap();
    }
    repo.contribute("alice", poisoned).unwrap();

    // The lint panic is caught by the pool: wait_idle returns (the
    // panicked job still released its pending slot) and the pool's
    // workers survive to run everything below.
    checker.wait_idle();
    assert!(checker.checks_run() > 0, "healthy checks still fold");
    // wait_idle returns the moment the panicking job releases its
    // pending slot (mid-unwind); the worker bumps `panics_caught` an
    // instant later, once catch_unwind hands the payload back — settle.
    let settle = Instant::now();
    while runtime.pool_stats().panics_caught == 0 && settle.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert!(
        runtime.pool_stats().panics_caught >= 1,
        "the planted panic was caught, not fatal"
    );

    // The doomed writer surfaces its sticky injected error...
    let err = doomed.flush().unwrap_err();
    assert!(matches!(err, RepoError::Persist(ref m) if m.contains("injected crash")));
    assert!(doomed.shutdown().is_err());

    // ...while the healthy writer converges to full durability.
    writer.flush().unwrap();
    let event_count = writer.stats().enqueued;
    writer.shutdown().unwrap();
    assert_eq!(writer.stats().durable, event_count);

    // Tenant 5: a replica daemon federating the healthy directory, on
    // the same pool.
    let federation = Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap();
    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_millis(1),
        },
        &runtime,
        "daemon",
    );
    daemon.force_catch_up().unwrap();
    assert_eq!(
        daemon.with_federation(|f| f.snapshot().records.len()),
        titles.len() + 1, // the 8 clean entries plus POISONED
        "the daemon serves everything the writer made durable"
    );
    daemon.stop();

    // No tenant starved: every component reported on the one channel,
    // and the whole run used exactly the two bounded workers.
    let health = runtime.health();
    for component in ["writer", "writer:crash", "compaction", "lint", "daemon"] {
        let report = health
            .latest(component)
            .unwrap_or_else(|| panic!("`{component}` never reported"));
        match (component, &report.report) {
            ("writer", HealthReport::Pipeline { stats, error, .. }) => {
                assert_eq!(stats.durable, event_count);
                assert!(error.is_none());
            }
            ("writer:crash", HealthReport::Pipeline { error, .. }) => {
                assert!(
                    error.as_deref().is_some_and(|m| m.contains("injected")),
                    "the injected crash is visible on the channel"
                );
            }
            ("compaction", HealthReport::Compaction { checkpoints, .. }) => {
                assert!(*checkpoints >= 1)
            }
            ("lint", HealthReport::Lint { checks_run, .. }) => assert!(*checks_run >= 1),
            ("daemon", HealthReport::Daemon { polls, error, .. }) => {
                assert!(*polls >= 1);
                assert!(error.is_none());
            }
            (component, other) => panic!("`{component}` reported the wrong variant: {other:?}"),
        }
    }
    assert_eq!(runtime.pool_stats().threads, 2, "bounded: one small pool");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// 64 federated sources cold-opened and then daemon-polled on ONE shared
/// pool: the merged state is the `federate_snapshots` fold of the
/// sources, thread count stays bounded at the pool width, and stopping
/// the daemon is prompt. This is the test-suite twin of the `federation`
/// bench's shared-runtime rows.
#[test]
fn sixty_four_sources_cold_open_and_poll_on_one_shared_pool() {
    let mut sources = Vec::new();
    let mut dirs = Vec::new();
    for i in 0..64 {
        let dir = unique_temp_dir(&format!("stress-fed-{i}"));
        let r = primary(&format!("src{i}"));
        r.contribute("alice", entry(&format!("ENTRY{i}"))).unwrap();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        sources.push((SourceId::new(&format!("s{i}")), dir.clone()));
        dirs.push(dir);
    }

    let runtime = Runtime::named("bx-fed64", 4);
    let restored: Vec<_> = sources
        .iter()
        .map(|(id, dir)| (id.clone(), EventLogBackend::restore_dir(dir).unwrap()))
        .collect();
    let federation = Federation::open("fed", sources).unwrap();
    assert_eq!(federation.snapshot(), &federate_snapshots("fed", &restored));
    assert_eq!(
        federation.index(),
        &SearchIndex::build(federation.snapshot())
    );
    assert_eq!(runtime.pool_stats().threads, 4, "64 sources, 4 workers");

    let mut daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig {
            poll_interval: Duration::from_secs(5),
        },
        &runtime,
        "daemon",
    );
    let settle = Instant::now();
    while daemon.stats().polls == 0 && settle.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    assert_eq!(daemon.stats().source_lag.len(), 64);
    // Prompt stop: cancelling a 5 s tick must not wait the interval out.
    let begin = Instant::now();
    daemon.stop();
    assert!(
        begin.elapsed() < Duration::from_millis(100),
        "stop waited {:?}",
        begin.elapsed()
    );

    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}
