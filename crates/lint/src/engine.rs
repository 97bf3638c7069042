//! The incremental engines.
//!
//! [`Linter`] is the synchronous core: a mirrored snapshot, a [`DepMap`]
//! and a [`DiagnosticsIndex`], advanced one event at a time on the
//! caller's thread. It is the reference implementation the equivalence
//! property pins (`Linter` over a script ≡ [`full_check`] over the final
//! state) and what the benches measure.
//!
//! [`LawChecker`] wraps the same logic as a live service: an
//! [`EventSink`] whose `accept` does only O(affected-set) bookkeeping
//! under the publisher's lock — fold the event into a mirrored snapshot,
//! consult the dependency map, enqueue the affected entries — while the
//! pool of the [`bx_core::Runtime`] it was placed on
//! ([`LawChecker::on_runtime`]) runs the actual checks off-thread and
//! folds results into a shared index with last-write-wins version
//! stamps. Every folded check publishes `HealthReport::Lint` on that
//! runtime's health channel. Subscribe it to a
//! [`bx_core::Repository`], a [`bx_core::Replica`] or a
//! [`bx_core::Federation`] and query diagnostics next to search.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use bx_core::event::{apply_event, EventSink, RepoEvent};
use bx_core::repo::{EntryId, RepositorySnapshot};
use bx_core::runtime::{HealthReport, Runtime, RuntimeHealth};

use crate::catalog::CheckCatalog;
use crate::check::{check_entry, full_check};
use crate::deps::DepMap;
use crate::diagnostics::{Diagnostic, DiagnosticsIndex};

/// Called with `(entry, its new findings)` every time the engine folds a
/// fresh check result in — the push protocol for diagnostics deltas,
/// mirroring `RuntimeHealth::set_sink` for health reports.
pub type DeltaSink = Arc<dyn Fn(&EntryId, &[Diagnostic]) + Send + Sync>;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The synchronous incremental linter; see the module docs.
#[derive(Debug, Clone)]
pub struct Linter {
    snapshot: RepositorySnapshot,
    deps: DepMap,
    index: DiagnosticsIndex,
    catalog: Arc<CheckCatalog>,
}

impl Linter {
    /// Build over `snapshot` with a cold full check.
    pub fn new(snapshot: RepositorySnapshot, catalog: Arc<CheckCatalog>) -> Linter {
        let deps = DepMap::build(&snapshot);
        let index = full_check(&snapshot, &catalog);
        Linter {
            snapshot,
            deps,
            index,
            catalog,
        }
    }

    /// Fold one event in and re-check exactly the affected entries.
    pub fn apply(&mut self, event: &RepoEvent) {
        // Reverse dependencies are consulted both before and after the
        // dependency edges move, so an entry that *stops* being affected
        // still gets its final re-check.
        let mut affected = self.deps.affected(event);
        apply_event(&mut self.snapshot, event);
        if let Some(id) = event.touched() {
            self.deps.update_entry(id, self.snapshot.records.get(id));
            affected.extend(self.deps.affected(event));
        }
        for id in affected {
            let diagnostics = self
                .snapshot
                .records
                .get(&id)
                .map(|record| check_entry(&self.snapshot, &id, record, &self.catalog))
                .unwrap_or_default();
            self.index.set_entry(&id, diagnostics);
        }
    }

    /// Adopt `base` wholesale (a replica re-based) and re-check
    /// everything.
    pub fn rebase(&mut self, base: &RepositorySnapshot) {
        *self = Linter::new(base.clone(), self.catalog.clone());
    }

    /// The live diagnostics.
    pub fn diagnostics(&self) -> &DiagnosticsIndex {
        &self.index
    }

    /// The mirrored snapshot the diagnostics are about.
    pub fn snapshot(&self) -> &RepositorySnapshot {
        &self.snapshot
    }
}

/// The mirrored publisher state the accept path maintains. The snapshot
/// lives in an `Arc` so workers check against an O(1) clone taken at pop
/// time instead of holding this lock for the duration of a check.
struct EngineState {
    snapshot: Arc<RepositorySnapshot>,
    deps: DepMap,
    /// Bumped once per accepted event / rebase; stamps check results so
    /// a slow worker cannot overwrite a newer entry report.
    version: u64,
}

/// The folded output side: the index plus the version stamp of the state
/// each entry's current findings were computed against.
struct Fold {
    index: DiagnosticsIndex,
    stamps: BTreeMap<EntryId, u64>,
}

struct Inner {
    state: Mutex<EngineState>,
    fold: Mutex<Fold>,
    /// Entries scheduled but not yet folded; `idle` fires at zero.
    pending: Mutex<usize>,
    idle: Condvar,
    /// Set on drop: still-queued check jobs become no-ops (they only
    /// release their pending slot), so a shared runtime is handed back
    /// promptly.
    shutdown: AtomicBool,
    /// Checks completed (panicking checks don't count).
    checks_run: AtomicU64,
    catalog: Arc<CheckCatalog>,
    delta_sink: Mutex<Option<DeltaSink>>,
    /// Every folded check publishes [`HealthReport::Lint`] here under
    /// `component`.
    health: Arc<RuntimeHealth>,
    component: String,
}

/// Releases one pending slot when the check job ends — **including by
/// panic**. The pool catches the unwind and keeps its worker; this guard
/// keeps `wait_idle` from hanging on the slot the panicked check never
/// folded.
struct PendingGuard<'a>(&'a Inner);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        let mut pending = lock(&self.0.pending);
        *pending -= 1;
        if *pending == 0 {
            self.0.idle.notify_all();
        }
    }
}

impl Inner {
    /// One scheduled check, run as a pool job.
    fn run_one(&self, id: EntryId) {
        let _slot = PendingGuard(self);
        if self.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Check against the freshest state (≥ the version that
        // scheduled this entry) without holding any engine lock.
        let (snapshot, version) = {
            let state = lock(&self.state);
            (state.snapshot.clone(), state.version)
        };
        let diagnostics = snapshot
            .records
            .get(&id)
            .map(|record| check_entry(&snapshot, &id, record, &self.catalog))
            .unwrap_or_default();
        let (folded, entries_with_diagnostics) = {
            let mut fold = lock(&self.fold);
            let stamp = fold.stamps.get(&id).copied().unwrap_or(0);
            if version >= stamp {
                fold.stamps.insert(id.clone(), version);
                fold.index.set_entry(&id, diagnostics.clone());
            }
            (version >= stamp, fold.index.entries().count())
        };
        self.checks_run.fetch_add(1, Ordering::Relaxed);
        if folded {
            let sink = lock(&self.delta_sink).clone();
            if let Some(sink) = sink {
                sink(&id, &diagnostics);
            }
        }
        self.health.report(
            &self.component,
            HealthReport::Lint {
                checks_run: self.checks_run.load(Ordering::Relaxed),
                entries_with_diagnostics,
            },
        );
    }
}

/// The live law-checking service; see the module docs. Implements
/// [`EventSink`], so it plugs into `Repository::subscribe(_with_backfill)`,
/// `Replica::subscribe` and `Federation::subscribe` unchanged; the
/// `rebased` notification (replica checkpoint crossings, initial
/// backfill) triggers a full re-check.
pub struct LawChecker {
    inner: Arc<Inner>,
    runtime: Arc<Runtime>,
}

impl std::fmt::Debug for LawChecker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LawChecker")
            .field("workers", &self.runtime.pool_stats().threads)
            .field("pending", &*lock(&self.inner.pending))
            .finish()
    }
}

impl LawChecker {
    /// A checker over an initially empty state that runs its checks as
    /// a tenant of `runtime`, publishing [`HealthReport::Lint`] on the
    /// runtime's health channel under `component` after every check. The
    /// checker holds its own `Arc` of the runtime, so a standalone
    /// checker can be given `&Runtime::named("bx-lint", 2)` and the
    /// caller keep no handle.
    pub fn on_runtime(
        catalog: Arc<CheckCatalog>,
        runtime: &Arc<Runtime>,
        component: &str,
    ) -> LawChecker {
        let inner = Arc::new(Inner {
            state: Mutex::new(EngineState {
                snapshot: Arc::new(RepositorySnapshot::empty("")),
                deps: DepMap::default(),
                version: 0,
            }),
            fold: Mutex::new(Fold {
                index: DiagnosticsIndex::default(),
                stamps: BTreeMap::new(),
            }),
            pending: Mutex::new(0),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            checks_run: AtomicU64::new(0),
            catalog,
            delta_sink: Mutex::new(None),
            health: Arc::clone(runtime.health()),
            component: component.to_string(),
        });
        LawChecker {
            inner,
            runtime: Arc::clone(runtime),
        }
    }

    /// Push `(entry, findings)` deltas to `sink` as checks fold in (the
    /// LSP-style notification hook). Called on worker threads, outside
    /// every engine lock; replaces any previous sink.
    pub fn set_delta_sink(&self, sink: DeltaSink) {
        *lock(&self.inner.delta_sink) = Some(sink);
    }

    fn schedule(&self, affected: BTreeSet<EntryId>) {
        if affected.is_empty() {
            return;
        }
        // Pending is raised before the pool sees the work, so a
        // `wait_idle` racing this call can never observe zero between
        // enqueue and check.
        *lock(&self.inner.pending) += affected.len();
        for id in affected {
            let inner = self.inner.clone();
            self.runtime.execute(move || inner.run_one(id));
        }
    }

    /// Checks completed since construction (pool jobs that panicked
    /// don't count — the pool catches them and the worker survives).
    pub fn checks_run(&self) -> u64 {
        self.inner.checks_run.load(Ordering::Relaxed)
    }

    /// Block until every scheduled check has folded into the index.
    pub fn wait_idle(&self) {
        let mut pending = lock(&self.inner.pending);
        while *pending > 0 {
            pending = self
                .inner
                .idle
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// A point-in-time copy of the live diagnostics. Call
    /// [`LawChecker::wait_idle`] first for a quiescent view.
    pub fn diagnostics(&self) -> DiagnosticsIndex {
        lock(&self.inner.fold).index.clone()
    }

    /// The current findings for one entry.
    pub fn diagnostics_of(&self, id: &EntryId) -> Vec<Diagnostic> {
        lock(&self.inner.fold).index.diagnostics_of(id).to_vec()
    }
}

impl EventSink for LawChecker {
    fn accept(&self, event: &RepoEvent) {
        // Publishers deliver under their commit lock: do only the
        // bookkeeping here and leave the checking to the workers.
        let affected = {
            let mut state = lock(&self.inner.state);
            let mut affected = state.deps.affected(event);
            apply_event(Arc::make_mut(&mut state.snapshot), event);
            if let Some(id) = event.touched() {
                let record = state.snapshot.records.get(id).cloned();
                state.deps.update_entry(id, record.as_ref());
                affected.extend(state.deps.affected(event));
            }
            state.version += 1;
            affected
        };
        self.schedule(affected);
    }

    fn rebased(&self, base: &RepositorySnapshot) {
        let affected = {
            let mut state = lock(&self.inner.state);
            state.snapshot = Arc::new(base.clone());
            state.deps = DepMap::build(base);
            state.version += 1;
            let mut ids: BTreeSet<EntryId> = base.records.keys().cloned().collect();
            // Entries the new base no longer has must have their stale
            // findings cleared; scheduling them makes the worker see an
            // absent record and remove them.
            ids.extend(lock(&self.inner.fold).index.entries().cloned());
            ids
        };
        self.schedule(affected);
    }
}

impl Drop for LawChecker {
    fn drop(&mut self) {
        // Still-queued checks become no-ops. A runtime whose last Arc
        // drops with this struct then joins its workers; a shared one
        // just gets its slots back.
        self.inner.shutdown.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bx_core::principal::{Principal, Role};
    use bx_core::repo::Repository;
    use bx_core::template::{ExampleEntry, ExampleType};
    use std::sync::Mutex as StdMutex;

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

    fn catalog() -> Arc<CheckCatalog> {
        Arc::new(CheckCatalog::new())
    }

    /// A checker on a two-worker runtime whose only handle is the
    /// checker's own.
    fn checker() -> LawChecker {
        LawChecker::on_runtime(catalog(), &Runtime::named("bx-lint", 2), "lint")
    }

    #[test]
    fn linter_tracks_a_live_repository() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut linter = Linter::new(r.snapshot(), catalog());
        assert!(linter.diagnostics().is_clean());

        let mut e = entry("COMPOSERS");
        e.references = vec![bx_core::template::Reference {
            citation: "entry:ghost".to_string(),
            doi: None,
        }];
        r.contribute("alice", e).unwrap();
        for event in r.drain_events() {
            linter.apply(&event);
        }
        assert_eq!(linter.diagnostics().error_count(), 1, "dangling reference");
        assert_eq!(
            linter.diagnostics(),
            &full_check(&r.snapshot(), &CheckCatalog::new()),
            "incremental ≡ full"
        );

        // The ghost target appearing clears the referencer's error
        // without the referencer itself being touched.
        r.contribute("alice", entry("GHOST")).unwrap();
        for event in r.drain_events() {
            linter.apply(&event);
        }
        assert!(linter.diagnostics().is_clean());
        assert_eq!(
            linter.diagnostics(),
            &full_check(&r.snapshot(), &CheckCatalog::new())
        );
    }

    #[test]
    fn law_checker_subscribes_checks_and_pushes_deltas() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();

        let checker = Arc::new(checker());
        let deltas: Arc<StdMutex<Vec<EntryId>>> = Arc::default();
        let seen = deltas.clone();
        checker.set_delta_sink(Arc::new(move |id, _| {
            seen.lock().unwrap().push(id.clone());
        }));
        r.subscribe_with_backfill(checker.clone());

        // A reviewed entry whose reviewer lacks the role: inject the
        // approved state via the normal workflow.
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.request_review("alice", &id).unwrap();
        checker.wait_idle();
        // bob is only a Member; grant the role through the curator and
        // watch the diagnostics converge.
        r.grant_role("c", "bob", Role::Reviewer).unwrap();
        r.approve("bob", &id).unwrap();
        checker.wait_idle();
        assert!(
            checker.diagnostics().is_clean(),
            "workflow-produced states lint clean: {}",
            checker.diagnostics().report()
        );
        assert_eq!(
            checker.diagnostics(),
            full_check(&r.snapshot(), &CheckCatalog::new())
        );
        assert!(
            deltas.lock().unwrap().iter().any(|d| d == &id),
            "delta sink saw the entry"
        );
    }

    #[test]
    fn law_checker_rebases_and_clears_stale_entries() {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut bad = ExampleEntry::builder("BROKEN")
            .of_type(ExampleType::Precise)
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .build_unchecked();
        bad.overview = String::new();

        let checker = checker();
        let mut tampered = r.snapshot();
        tampered.records.insert(
            EntryId::from_title("BROKEN"),
            bx_core::repo::EntryRecord {
                status: bx_core::curation::EntryStatus::Provisional,
                history: vec![bad],
            },
        );
        checker.rebased(&tampered);
        checker.wait_idle();
        assert_eq!(checker.diagnostics().error_count(), 1);

        // Re-basing onto a state without the broken entry clears it.
        checker.rebased(&r.snapshot());
        checker.wait_idle();
        assert!(checker.diagnostics().is_clean());
        assert_eq!(checker.diagnostics(), DiagnosticsIndex::default());
    }
}
