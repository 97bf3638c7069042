//! Replica convergence, property-tested: for any random mutation script,
//! a `Replica` tailing the primary's event-log directory — written by the
//! background durability pipeline under an auto-compaction policy —
//! converges with the primary after `flush()`: snapshot, search results
//! and rendered wiki pages all agree, at every intermediate sync point
//! and across a writer restart.

use std::sync::Arc;

use bx::core::index::SearchIndex;
use bx::core::pipeline::{BackgroundWriter, PipelineConfig};
use bx::core::replica::Replica;
use bx::core::storage::{AutoCompactingEventLog, CompactionPolicy};
use bx::core::wiki_bx::WikiBx;
use bx::core::Runtime;
use bx::theory::Bx;
use bx_testkit::ops::{apply_op, arb_ops, scripted_repository, unique_temp_dir, TITLES};
use proptest::prelude::*;

/// A default-tuned writer on a one-worker runtime whose only handle is
/// the writer's own.
fn spawn_writer(backend: AutoCompactingEventLog) -> BackgroundWriter {
    BackgroundWriter::on_runtime(
        backend,
        PipelineConfig::default(),
        &Runtime::named("bx-durability", 1),
        "writer",
    )
}

/// Search-result parity on a spread of queries (empty, single-term,
/// conjunctive, absent).
fn assert_query_parity(replica: &Replica, primary_index: &SearchIndex) {
    for terms in [
        &["generated"][..],
        &["generated", "text"][..],
        &["composers"][..],
        &["zzz", "absent"][..],
    ] {
        assert_eq!(
            replica.query(terms),
            primary_index.query(terms),
            "terms {terms:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline acceptance property: random script, background
    /// writer, aggressive auto-compaction, periodic catch-up — the
    /// replica's three materializations equal the primary's after every
    /// flush, and a cold-opened replica agrees too.
    #[test]
    fn replica_converges_after_any_mutation_script(
        ops in arb_ops(24),
        checkpoint_every in 1usize..8,
        sync_every in 1usize..6,
    ) {
        let dir = unique_temp_dir("replica-conv");
        let repo = scripted_repository();
        let backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy { checkpoint_every },
        ).unwrap();
        let writer = Arc::new(spawn_writer(backend));
        // Backfill the pre-subscription history (founding + cast), then
        // switch to push delivery.
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());

        writer.flush().unwrap();
        let mut replica = Replica::open(&dir).unwrap();

        for (i, op) in ops.iter().enumerate() {
            apply_op(&repo, op);
            if i % sync_every == 0 {
                // Flush-then-catch-up is the documented sync point: after
                // it, the replica must hold exactly the primary's state.
                writer.flush().unwrap();
                replica.catch_up().unwrap();
                prop_assert_eq!(replica.snapshot(), &repo.snapshot());
            }
        }
        writer.flush().unwrap();
        replica.catch_up().unwrap();

        let snap = repo.snapshot();
        let primary_index = SearchIndex::build(&snap);
        let bx = WikiBx::new();
        prop_assert_eq!(replica.snapshot(), &snap);
        prop_assert_eq!(replica.index(), &primary_index);
        assert_query_parity(&replica, &primary_index);
        prop_assert!(bx.consistent(&snap, replica.site()), "replica wiki pages render the primary's entries");

        // A replica opened cold over the same directory agrees with the
        // incrementally maintained one.
        let cold = Replica::open(&dir).unwrap();
        prop_assert_eq!(cold.snapshot(), replica.snapshot());
        prop_assert_eq!(cold.index(), replica.index());
        prop_assert!(bx.consistent(&snap, cold.site()));

        writer.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Convergence survives a writer restart mid-script: the first writer
    /// is shut down (draining its queue), a second one reopens the same
    /// directory and continues. The replica tails across the boundary —
    /// including any compaction the reopen itself triggers.
    #[test]
    fn replica_converges_across_a_writer_restart(
        ops in arb_ops(20),
        checkpoint_every in 1usize..6,
    ) {
        let dir = unique_temp_dir("replica-restart");
        let repo = scripted_repository();
        let policy = CompactionPolicy { checkpoint_every };

        let writer = Arc::new(spawn_writer(
            AutoCompactingEventLog::open(&dir, policy).unwrap(),
        ));
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());

        let split = ops.len() / 2;
        for op in &ops[..split] {
            apply_op(&repo, op);
        }
        writer.shutdown().unwrap();

        let mut replica = Replica::open(&dir).unwrap();
        prop_assert_eq!(replica.snapshot(), &repo.snapshot());

        // Second writer process over the same directory. The old writer
        // is still subscribed but shut down; its accepts are counted as
        // dropped and must not disturb the successor.
        let writer2 = Arc::new(spawn_writer(
            AutoCompactingEventLog::open(&dir, policy).unwrap(),
        ));
        repo.drain_events(); // journal caught everything; second writer starts in sync
        repo.subscribe(writer2.clone());
        for op in &ops[split..] {
            apply_op(&repo, op);
        }
        writer2.flush().unwrap();
        replica.catch_up().unwrap();

        let snap = repo.snapshot();
        prop_assert_eq!(replica.snapshot(), &snap);
        prop_assert_eq!(replica.index(), &SearchIndex::build(&snap));
        prop_assert!(WikiBx::new().consistent(&snap, replica.site()));
        writer2.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Non-property smoke: titles used by the generator all map to distinct
/// slugs (a collision would weaken every property above).
#[test]
fn generator_titles_are_distinct_slugs() {
    let slugs: std::collections::BTreeSet<String> = TITLES
        .iter()
        .map(|t| bx::core::EntryId::from_title(t).as_str().to_string())
        .collect();
    assert_eq!(slugs.len(), TITLES.len());
}
