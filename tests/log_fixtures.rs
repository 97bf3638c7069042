//! Golden on-disk fixtures for both generation-log formats. A small
//! history sits under `tests/fixtures/logs/` in the four directory
//! shapes — JSONL and binary, each as one generation and checkpointed —
//! exactly as an earlier writer left it, next to the state it folds to
//! (`state.json`). Today's readers must restore every shape to that
//! state, today's writer must re-record the same history byte for byte,
//! and a fresh writer must find no torn tail to repair. A change to
//! either format, or to how one is read, fails here before it reaches
//! anyone's archive.

use std::path::{Path, PathBuf};

use bx::core::binlog::BinaryLogBackend;
use bx::core::repo::RepositorySnapshot;
use bx::core::storage::{EventLogBackend, StorageBackend};
use bx::core::{persist, EntryId, Replica, RepoEvent};
use bx_testkit::ops::{apply_ops, scripted_repository, unique_temp_dir, RepoOp, REVIEWER};

/// The four shapes, by fixture directory name.
const SHAPES: [&str; 4] = [
    "jsonl",
    "jsonl-checkpointed",
    "binary",
    "binary-checkpointed",
];

fn script(titles: &[&str]) -> Vec<RepoOp> {
    let mut ops = Vec::new();
    for title in titles {
        ops.push(RepoOp::Contribute {
            title: title.to_string(),
            discussion: format!("discussion of {title}"),
        });
        ops.push(RepoOp::Comment {
            title: title.to_string(),
            text: format!("a note on {title}"),
        });
        ops.push(RepoOp::Revise {
            title: title.to_string(),
            overview: format!("revised {title}"),
        });
        ops.push(RepoOp::RequestReview {
            title: title.to_string(),
        });
        ops.push(RepoOp::Approve {
            title: title.to_string(),
        });
    }
    ops
}

/// The fixture history: a first batch, the state after it (what the
/// checkpointed shapes checkpoint), a second batch with non-ASCII text,
/// and the final state.
fn history() -> (
    Vec<RepoEvent>,
    RepositorySnapshot,
    Vec<RepoEvent>,
    RepositorySnapshot,
) {
    let repo = scripted_repository();
    apply_ops(&repo, &script(&["Composers", "Dates"]));
    let first = repo.drain_events();
    let middle = repo.snapshot();
    apply_ops(&repo, &script(&["Heaters"]));
    repo.comment(
        REVIEWER,
        &EntryId::from_title("Composers"),
        "2014-04-01",
        "café — naïve “quotes”",
    )
    .unwrap();
    let second = repo.drain_events();
    (first, middle, second, repo.snapshot())
}

/// Record the history into `dir` in the given shape, as the fixtures
/// were recorded (the one-generation binary shape rolls 512-byte
/// segments so that it spans several files).
fn record(shape: &str, dir: &Path) {
    let mut backend: Box<dyn StorageBackend> = match shape {
        "jsonl" | "jsonl-checkpointed" => Box::new(EventLogBackend::open(dir).unwrap()),
        "binary" => Box::new(BinaryLogBackend::open_with_segment_bytes(dir, 512).unwrap()),
        "binary-checkpointed" => Box::new(BinaryLogBackend::open(dir).unwrap()),
        other => panic!("unknown shape {other}"),
    };
    let (first, middle, second, _) = history();
    backend.record(&first).unwrap();
    if shape.ends_with("-checkpointed") {
        backend.checkpoint(&middle).unwrap();
    }
    backend.record(&second).unwrap();
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/logs")
        .join(name)
}

/// Every file of `dir` with its bytes, sorted by name.
fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A temporary copy of one fixture shape, so no test can alter the
/// fixture itself.
fn copy_of(shape: &str) -> PathBuf {
    let dir = unique_temp_dir(&format!("fixture-{shape}"));
    for (name, bytes) in contents(&fixture(shape)) {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

#[test]
fn every_fixture_shape_restores_the_pinned_state() {
    let pinned =
        persist::from_json(&std::fs::read_to_string(fixture("state.json")).unwrap()).unwrap();
    assert_eq!(
        pinned,
        history().3,
        "the pinned state is the history's fold"
    );
    for shape in SHAPES {
        let dir = copy_of(shape);
        assert_eq!(
            EventLogBackend::restore_dir(&dir).unwrap(),
            pinned,
            "restore_dir of {shape}"
        );
        assert_eq!(
            Replica::open(&dir).unwrap().snapshot(),
            &pinned,
            "replica of {shape}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn rerecording_the_history_reproduces_every_fixture_byte_for_byte() {
    for shape in SHAPES {
        let dir = unique_temp_dir(&format!("fixture-rerecord-{shape}"));
        record(shape, &dir);
        assert!(
            contents(&dir) == contents(&fixture(shape)),
            "re-recording {shape} must give the fixture's files exactly"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_fresh_writer_over_a_fixture_repairs_nothing() {
    let open = |shape: &str, dir: &Path| -> Box<dyn StorageBackend> {
        if shape.starts_with("binary") {
            Box::new(BinaryLogBackend::open(dir).unwrap())
        } else {
            Box::new(EventLogBackend::open(dir).unwrap())
        }
    };
    for shape in SHAPES {
        let dir = copy_of(shape);
        let writer = open(shape, &dir);
        assert_eq!(writer.tail_repaired(), None, "{shape} has no torn tail");
        assert!(
            contents(&dir) == contents(&fixture(shape)),
            "{shape} untouched"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
