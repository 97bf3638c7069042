//! All three `StorageBackend` implementations round-trip the standard
//! repository — via checkpoint, via pure delta recording, and mixed —
//! and the auto-compaction policy keeps the event log O(1) generations
//! deep without changing the restored state. A byte-flip sweep pins the
//! checkpoint manifest's integrity contract.

use bx::core::storage::{
    AutoCompactingEventLog, CompactionPolicy, DurabilityMode, EventLogBackend, JsonFileBackend,
    MemoryBackend, StorageBackend,
};
use bx::core::{EntryId, RepoError, Repository};
use bx::examples::standard_repository;
use bx_testkit::ops::{scripted_repository, unique_temp_dir, valid_entry, AUTHOR};

#[test]
fn all_backends_roundtrip_the_standard_repository() {
    let repo = standard_repository();
    let events = repo.drain_events();
    let snapshot = repo.snapshot();
    assert!(
        events.len() > snapshot.records.len(),
        "the standard collection is built through the event-recording API"
    );

    let json_dir = unique_temp_dir("backends-json");
    let log_dir = unique_temp_dir("backends-log");
    let mut backends: Vec<Box<dyn StorageBackend>> = vec![
        Box::new(MemoryBackend::new()),
        Box::new(JsonFileBackend::new(json_dir.join("repo.json"))),
        Box::new(EventLogBackend::open(&log_dir).unwrap()),
    ];

    for backend in &mut backends {
        // Delta path: the standard collection's full construction history.
        backend.record(&events).unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            snapshot,
            "{} restores the recorded deltas",
            backend.kind()
        );
        // Checkpoint path: compaction changes nothing observable.
        backend.checkpoint(&snapshot).unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            snapshot,
            "{} restores its checkpoint",
            backend.kind()
        );
        // The restored state is a live repository again.
        let revived = Repository::from_snapshot(backend.restore().unwrap());
        assert_eq!(revived.len(), 13);
        revived
            .comment(
                "James Cheney",
                &EntryId::from_title("COMPOSERS"),
                "2014-05-01",
                "post-restore",
            )
            .unwrap();
    }

    std::fs::remove_dir_all(&json_dir).ok();
    std::fs::remove_dir_all(&log_dir).ok();
}

/// The compaction acceptance bar: M mutations, auto-checkpoint every
/// N < M events → O(1) generations on disk, restore replays ≤ N events,
/// and the restored state equals an uncompacted baseline fed the same
/// stream.
#[test]
fn auto_compaction_matches_the_uncompacted_baseline() {
    const M: usize = 120;
    const N: usize = 16;
    let auto_dir = unique_temp_dir("compact-auto");
    let base_dir = unique_temp_dir("compact-baseline");
    let mut compacting = AutoCompactingEventLog::open(
        &auto_dir,
        CompactionPolicy {
            checkpoint_every: N,
        },
    )
    .unwrap();
    let mut baseline = EventLogBackend::open(&base_dir).unwrap();

    let repo = standard_repository();
    let seed = repo.drain_events();
    compacting.record(&seed).unwrap();
    baseline.record(&seed).unwrap();

    let dates = EntryId::from_title("DATES");
    for i in 0..M {
        repo.comment("James Cheney", &dates, "2014-05-01", &format!("m{i}"))
            .unwrap();
        let events = repo.drain_events();
        compacting.record(&events).unwrap();
        baseline.record(&events).unwrap();
    }

    // O(1) generations: at most the current one (possibly none right
    // after a checkpoint), never the full history of superseded logs.
    assert!(compacting.inner().generation_files().unwrap().len() <= 1);
    // Restore replays at most N events.
    assert!(compacting.inner().pending_events().unwrap() <= N);
    assert!(compacting.events_since_checkpoint() <= N);
    // The baseline kept everything in one generation…
    assert_eq!(
        baseline.pending_events().unwrap(),
        seed.len() + M,
        "uncompacted baseline replays the full history"
    );
    // …and both restore the identical state, which is the live state.
    assert_eq!(compacting.restore().unwrap(), baseline.restore().unwrap());
    assert_eq!(compacting.restore().unwrap(), repo.snapshot());

    std::fs::remove_dir_all(&auto_dir).ok();
    std::fs::remove_dir_all(&base_dir).ok();
}

/// The two-phase durability API holds behind `Box<dyn StorageBackend>`
/// — the trait-object configuration the federation harness drives — for
/// every backend: `set_durability` + staged `record`s + one
/// `flush_durable` round-trips exactly like the fused default, and the
/// no-staging backends treat the new calls as no-ops.
#[test]
fn two_phase_durability_roundtrips_through_trait_objects() {
    let repo = standard_repository();
    let events = repo.drain_events();
    let snapshot = repo.snapshot();

    let json_dir = unique_temp_dir("two-phase-json");
    let log_dir = unique_temp_dir("two-phase-log");
    let auto_dir = unique_temp_dir("two-phase-auto");
    std::fs::create_dir_all(&json_dir).unwrap();
    let mut backends: Vec<Box<dyn StorageBackend>> = vec![
        Box::new(MemoryBackend::new()),
        Box::new(JsonFileBackend::new(json_dir.join("repo.json"))),
        Box::new(EventLogBackend::open(&log_dir).unwrap()),
        Box::new(
            AutoCompactingEventLog::open(
                &auto_dir,
                CompactionPolicy {
                    checkpoint_every: 16,
                },
            )
            .unwrap(),
        ),
    ];
    for backend in &mut backends {
        backend.set_durability(DurabilityMode::GroupCommit);
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            snapshot,
            "{} diverged under two-phase durability",
            backend.kind()
        );
        // Nothing staged: the fsync point is idempotent.
        backend.flush_durable().unwrap();
    }
    drop(backends);
    // The file-backed states survive a fresh process.
    assert_eq!(
        EventLogBackend::open(&log_dir).unwrap().restore().unwrap(),
        snapshot
    );
    assert_eq!(
        EventLogBackend::open(&auto_dir).unwrap().restore().unwrap(),
        snapshot
    );
    std::fs::remove_dir_all(&json_dir).ok();
    std::fs::remove_dir_all(&log_dir).ok();
    std::fs::remove_dir_all(&auto_dir).ok();
}

#[test]
fn event_log_survives_process_style_reopen_between_batches() {
    let dir = unique_temp_dir("backends-reopen");
    let repo = standard_repository();

    // First "process": record the construction history and drop the backend.
    {
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&repo.drain_events()).unwrap();
    }
    // Second "process": recover, keep curating, record the new deltas.
    {
        let mut backend = EventLogBackend::open(&dir).unwrap();
        let recovered = Repository::from_snapshot(backend.restore().unwrap());
        assert_eq!(recovered.snapshot(), repo.snapshot());
        recovered
            .comment(
                "James Cheney",
                &EntryId::from_title("DATES"),
                "2014-05-02",
                "second process",
            )
            .unwrap();
        backend.record(&recovered.drain_events()).unwrap();
    }
    // Third "process": both generations of deltas are there.
    let backend = EventLogBackend::open(&dir).unwrap();
    let final_state = backend.restore().unwrap();
    let dates = &final_state.records[&EntryId::from_title("DATES")];
    assert!(dates
        .latest()
        .comments
        .iter()
        .any(|c| c.text == "second process"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_flipped_manifest_byte_is_rejected_or_harmless() {
    let dir = unique_temp_dir("manifest-flips");
    let repo = scripted_repository();
    // Multi-byte characters and escapes on both sides of the body.
    repo.contribute(AUTHOR, valid_entry("CAFÉ", "Naïve \"round\" trips 😀\\ok"))
        .unwrap();
    let mut backend = EventLogBackend::open(&dir).unwrap();
    backend.checkpoint(&repo.snapshot()).unwrap();
    drop(backend);

    let manifest = dir.join("checkpoint.json");
    let original = std::fs::read(&manifest).unwrap();
    let expected = EventLogBackend::read_state_in(&dir).unwrap();
    assert_eq!(expected.0, repo.snapshot());

    let mut flips = [0usize; 3]; // corrupt manifest, parse error, harmless
    for at in 0..original.len() {
        for mask in [0x01, 0x20, 0x80] {
            let mut bytes = original.clone();
            bytes[at] ^= mask;
            std::fs::write(&manifest, &bytes).unwrap();
            match EventLogBackend::read_state_in(&dir) {
                Err(RepoError::CorruptManifest { .. }) => flips[0] += 1,
                Err(RepoError::Persist(_)) => flips[1] += 1,
                Ok(state) => {
                    assert_eq!(
                        state, expected,
                        "flip {mask:#04x} at byte {at} read back a different state"
                    );
                    flips[2] += 1;
                }
                Err(other) => panic!("flip {mask:#04x} at byte {at}: unexpected {other:?}"),
            }
        }
    }
    assert!(flips[0] > 0 && flips[1] > 0, "{flips:?}");

    // A checksum-less manifest from an older writer still opens.
    let text = String::from_utf8(original).unwrap();
    let at = text.rfind(",\"crc32\":").unwrap();
    std::fs::write(&manifest, format!("{}}}", &text[..at])).unwrap();
    assert_eq!(EventLogBackend::read_state_in(&dir).unwrap(), expected);
    std::fs::remove_dir_all(&dir).ok();
}
