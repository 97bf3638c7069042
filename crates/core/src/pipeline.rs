//! The background durability pipeline: a writer task fed by a bounded
//! channel, draining committed [`RepoEvent`]s into any
//! [`StorageBackend`].
//!
//! [`BackgroundWriter`] is an [`EventSink`]: subscribe it to a
//! [`crate::repo::Repository`] and persistence leaves the mutating
//! caller's thread — `contribute`/`revise`/… return as soon as the event
//! is *enqueued*; the writer batches queued events and calls
//! `StorageBackend::record` off to the side. The writer is a
//! [`crate::runtime::SerialTask`] tenant of a [`Runtime`], placed there
//! by [`BackgroundWriter::on_runtime`]: many writers can share one
//! bounded pool — a federation's per-source writers run as N serialized
//! tasks on a handful of threads, with group-commit window closes
//! arriving as timer-wheel one-shots instead of per-writer sleeps. A
//! standalone writer gets a one-worker runtime of its own
//! (`Runtime::named("bx-durability", 1)`); the writer keeps it alive.
//! Every commit point and failure publishes a
//! [`HealthReport::Pipeline`] on the runtime's health channel. Four
//! properties define the pipeline:
//!
//! * **Bounded, with backpressure.** The channel holds at most
//!   [`PipelineConfig::channel_capacity`] events. When it is full,
//!   `accept` blocks the mutating caller until the writer catches up —
//!   durability lag is bounded by the channel, never unbounded memory.
//!   Every such stall is counted ([`PipelineStats::backpressure_waits`]).
//! * **Explicit flush.** [`BackgroundWriter::flush`] blocks until every
//!   event enqueued before the call is durably recorded (or the writer
//!   has failed), surfacing any backend error. Write errors are sticky:
//!   after one, subsequent events are discarded (counted in
//!   [`PipelineStats::dropped`]) rather than blocking writers forever,
//!   and every later `flush`/`shutdown` keeps returning the error.
//! * **Group commit.** With [`PipelineConfig::group_commit_window`] set,
//!   the writer holds an fsync window open: it drains *everything*
//!   concurrent producers queue, appends it through the backend's staged
//!   (`DurabilityMode::GroupCommit`) path, and issues **one**
//!   `flush_durable` when the window closes — on the window timer, at
//!   [`PipelineConfig::max_group_events`], at shutdown, or early when a
//!   `flush` caller is waiting. One fsync then acknowledges every
//!   producer in the window ([`PipelineStats::fsyncs`] vs
//!   [`PipelineStats::group_commits`] make the amortisation observable).
//!   Without a window (the default), every `record` batch fsyncs on its
//!   own, exactly as before.
//! * **Drop-shutdown.** Dropping the writer (or calling
//!   [`BackgroundWriter::shutdown`]) drains the queue to the backend —
//!   closing any open group-commit window with its fsync — and waits for
//!   the writer task to confirm, so a scope exit cannot lose
//!   acknowledged events.
//!
//! The backend is moved into the writer task. For the scaling backend
//! ([`crate::storage::EventLogBackend`]), wrap it in
//! [`crate::storage::AutoCompactingEventLog`] first and the pipeline
//! checkpoints/prunes as it writes.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use crate::error::RepoError;
use crate::event::{EventSink, RepoEvent};
use crate::runtime::{HealthReport, Runtime, RuntimeHealth, SerialTask, WeakSerialTask};
use crate::storage::{DurabilityMode, StorageBackend};

/// Default bound on the writer's input channel, in events.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Default maximum events handed to one `StorageBackend::record` call.
pub const DEFAULT_WRITE_BATCH: usize = 256;

/// Default cap on how many events one group-commit window may cover
/// before it is forced closed (bounds both ack latency and the clean
/// suffix a crash inside the window can lose).
pub const DEFAULT_MAX_GROUP_EVENTS: usize = 4096;

/// Tuning knobs for a [`BackgroundWriter`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Channel bound: how many events may sit between the writers and the
    /// backend before `accept` applies backpressure.
    pub channel_capacity: usize,
    /// Largest batch handed to a single `record` call in per-batch mode
    /// (amortises per-call fsync cost without starving flush waiters).
    pub write_batch: usize,
    /// When `Some(window)`, the writer runs in group-commit mode: the
    /// backend is switched to `DurabilityMode::GroupCommit` and one
    /// fsync per window replaces one per batch. `None` (the default)
    /// keeps the one-call-durable per-batch behaviour.
    pub group_commit_window: Option<Duration>,
    /// Most events one group-commit window may cover before its fsync is
    /// forced (≥ 1; ignored in per-batch mode).
    pub max_group_events: usize,
    /// When true (and a group-commit window is set), the window adapts to
    /// load: [`PipelineConfig::group_commit_window`] becomes the *ceiling*
    /// and the writer halves the window toward zero whenever a window
    /// closes nearly empty (light load → per-event latency approaches a
    /// bare fsync) and doubles it back toward the ceiling whenever a
    /// window fills a quarter of [`PipelineConfig::max_group_events`]
    /// (saturation → maximum fsync amortisation). The window currently in
    /// force is observable as [`PipelineStats::window_micros`].
    pub adaptive_window: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            channel_capacity: DEFAULT_CHANNEL_CAPACITY,
            write_batch: DEFAULT_WRITE_BATCH,
            group_commit_window: None,
            max_group_events: DEFAULT_MAX_GROUP_EVENTS,
            adaptive_window: false,
        }
    }
}

impl PipelineConfig {
    /// The default configuration with a group-commit window of `window`.
    pub fn group_commit(window: Duration) -> PipelineConfig {
        PipelineConfig {
            group_commit_window: Some(window),
            ..PipelineConfig::default()
        }
    }

    /// Group commit with an adaptive window: `max_window` is the ceiling,
    /// and the writer sizes the actual window to the observed load (see
    /// [`PipelineConfig::adaptive_window`]). The first window opens at
    /// the ceiling — the safe choice for throughput — and shrinks within
    /// a few light windows.
    pub fn adaptive_group_commit(max_window: Duration) -> PipelineConfig {
        PipelineConfig {
            adaptive_window: true,
            ..PipelineConfig::group_commit(max_window)
        }
    }
}

/// Backpressure and progress accounting, readable at any time via
/// [`BackgroundWriter::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Events accepted into the channel.
    pub enqueued: u64,
    /// Events durably recorded by the backend (past its fsync point).
    pub durable: u64,
    /// Events discarded because the writer had already failed.
    pub dropped: u64,
    /// How many times an `accept` blocked on a full channel.
    pub backpressure_waits: u64,
    /// Durability commit points the writer has issued: one per `record`
    /// batch in per-batch mode, one per window in group-commit mode.
    /// (Real `sync_all` calls on file-backed backends; commit points on
    /// memory ones.)
    pub fsyncs: u64,
    /// Group-commit windows closed. Always 0 in per-batch mode;
    /// `durable / group_commits` is the realised amortisation factor.
    pub group_commits: u64,
    /// The group-commit window in force after the most recent window
    /// close, in microseconds: the configured window in fixed mode, the
    /// load-adapted value under [`PipelineConfig::adaptive_window`], and
    /// 0 in per-batch mode (or before the first window has closed).
    pub window_micros: u64,
}

/// Everything the producer side and the writer task share.
struct Shared {
    state: Mutex<State>,
    /// Signalled when queue space frees up.
    not_full: Condvar,
    /// Signalled when `durable` advances, the writer fails, or the
    /// shutdown drain completes (`State::closed`).
    progress: Condvar,
    /// Every commit point and failure publishes a
    /// [`HealthReport::Pipeline`] here under `component`.
    health: Arc<RuntimeHealth>,
    component: String,
}

struct State {
    queue: VecDeque<RepoEvent>,
    capacity: usize,
    shutdown: bool,
    /// The shutdown drain has completed: every accepted event is durable
    /// (or the error is sticky) and the writer task will do no more work.
    closed: bool,
    /// A `flush` caller is waiting: an open group-commit window should
    /// close at the next opportunity instead of running out its timer.
    flush_requested: bool,
    /// Events staged on the backend (recorded in `GroupCommit` mode) but
    /// not yet covered by a `flush_durable`. Always 0 in per-batch mode.
    staged: usize,
    /// When the open group-commit window times out; `None` when no
    /// window is open. The close is driven by a timer-wheel one-shot
    /// re-notifying the writer task, not by a sleeping thread.
    window_deadline: Option<Instant>,
    /// The group-commit window currently in force: the configured value
    /// in fixed mode, the load-adapted value in adaptive mode.
    current_window: Duration,
    /// First backend error, stringified; sticky once set.
    error: Option<String>,
    stats: PipelineStats,
}

/// Publish the writer's state as a [`HealthReport::Pipeline`]: built
/// under the state lock, so it is exactly the state the commit point (or
/// failure) left, and delivered after releasing it, since a health sink
/// is arbitrary user code. Only the writer task publishes, one pass at a
/// time, so reports arrive in commit order.
fn publish(shared: &Shared, state: MutexGuard<'_, State>) {
    let report = HealthReport::Pipeline {
        stats: state.stats,
        queue_len: state.queue.len(),
        error: state.error.clone(),
    };
    drop(state);
    shared.health.report(&shared.component, report);
}

/// The writer task's self-handle, filled in after the task exists so
/// the drive closure (and its window-close timers) can re-notify it.
type TaskSlot = Arc<Mutex<Option<WeakSerialTask>>>;

/// Schedule another writer pass, if the task is still alive.
fn poke(slot: &TaskSlot) {
    if let Some(task) = slot.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
        task.notify();
    }
}

/// The background durability pipeline's front end; see the module docs.
pub struct BackgroundWriter {
    shared: Arc<Shared>,
    task: SerialTask,
    /// The host runtime, kept alive for the writer's lifetime: its timer
    /// wheel closes group-commit windows.
    _runtime: Arc<Runtime>,
}

impl std::fmt::Debug for BackgroundWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BackgroundWriter")
            .field("stats", &stats)
            .finish()
    }
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl BackgroundWriter {
    /// Place a writer around `backend` on `runtime`: the writer becomes
    /// one serialized task among the runtime's tenants instead of owning
    /// a thread, and every commit point (and failure) publishes a
    /// [`HealthReport::Pipeline`] under `component` on the runtime's
    /// health channel. The writer holds its own `Arc` of the runtime, so
    /// the caller may drop theirs. A
    /// [`PipelineConfig::group_commit_window`] switches the backend to
    /// `DurabilityMode::GroupCommit` before the task starts, so staging
    /// and the window's single fsync line up automatically.
    pub fn on_runtime<B: StorageBackend + Send + 'static>(
        mut backend: B,
        config: PipelineConfig,
        runtime: &Arc<Runtime>,
        component: &str,
    ) -> BackgroundWriter {
        if config.group_commit_window.is_some() {
            backend.set_durability(DurabilityMode::GroupCommit);
        }
        // A backend that repaired a torn tail when it opened says so on
        // the health channel — the repair predates this writer, but this
        // is the first observer that can publish it.
        if let Some(repair) = backend.tail_repaired() {
            runtime.health().report(
                component,
                HealthReport::TailRepaired {
                    file: repair.file,
                    bytes_dropped: repair.bytes_dropped,
                },
            );
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                capacity: config.channel_capacity.max(1),
                shutdown: false,
                closed: false,
                flush_requested: false,
                staged: 0,
                window_deadline: None,
                current_window: config.group_commit_window.unwrap_or(Duration::ZERO),
                error: None,
                stats: PipelineStats::default(),
            }),
            not_full: Condvar::new(),
            progress: Condvar::new(),
            health: Arc::clone(runtime.health()),
            component: component.to_string(),
        });
        let tuning = WriterTuning {
            batch_max: config.write_batch.max(1),
            window: config.group_commit_window,
            group_max: config.max_group_events.max(1),
            adaptive: config.adaptive_window,
        };
        let slot: TaskSlot = Arc::default();
        let drive_shared = Arc::clone(&shared);
        let drive_slot = Arc::clone(&slot);
        let drive_runtime = Arc::downgrade(runtime);
        let task = runtime.serial_task(move || {
            drive(
                &drive_shared,
                &mut backend,
                tuning,
                &drive_runtime,
                &drive_slot,
            )
        });
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(task.downgrade());
        BackgroundWriter {
            shared,
            task,
            _runtime: Arc::clone(runtime),
        }
    }

    /// Enqueue a batch directly — the backfill path for events that
    /// happened *before* the writer was subscribed (e.g. the output of
    /// [`crate::repo::Repository::drain_events`]). Same backpressure and
    /// error semantics as sink delivery.
    pub fn enqueue(&self, events: &[RepoEvent]) {
        for event in events {
            self.accept(event);
        }
    }

    /// Block until every event enqueued before this call is durably
    /// recorded. An open group-commit window closes early for a waiting
    /// flush, so acknowledgement latency is bounded by the in-flight
    /// fsync, not the window timer.
    /// Any discarded event fails the flush: a backend error and a
    /// post-shutdown delivery both plant a sticky error, so `Ok(())`
    /// really means "everything accepted so far is on the backend".
    pub fn flush(&self) -> Result<(), RepoError> {
        let target = lock(&self.shared).stats.enqueued;
        let mut state = lock(&self.shared);
        while state.error.is_none() && state.stats.durable + state.stats.dropped < target {
            // Re-asserted on every wake-up, not just once: each window
            // fsync clears the flag, and a window that closed on its
            // group budget (or covered only events enqueued before ours)
            // may leave this flusher unacknowledged — without re-arming,
            // the next window would wait out its full timer.
            state.flush_requested = true;
            drop(state);
            self.task.notify();
            state = lock(&self.shared);
            if !(state.error.is_none() && state.stats.durable + state.stats.dropped < target) {
                break;
            }
            state = self
                .shared
                .progress
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        match &state.error {
            Some(e) => Err(RepoError::Persist(e.clone())),
            None => Ok(()),
        }
    }

    /// Drain the queue, close any open window with its fsync, and wait
    /// for the writer task to confirm it is done, returning the writer's
    /// sticky error, if any. Idempotent; also run (result ignored) by
    /// `Drop`.
    pub fn shutdown(&self) -> Result<(), RepoError> {
        {
            let mut state = lock(&self.shared);
            state.shutdown = true;
            self.shared.not_full.notify_all();
        }
        self.task.notify();
        let mut state = lock(&self.shared);
        while !state.closed && state.error.is_none() {
            state = self
                .shared
                .progress
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            if !state.closed && state.error.is_none() {
                // A pass may have gone idle between our notify and the
                // shutdown flag landing; make sure another one runs.
                drop(state);
                self.task.notify();
                state = lock(&self.shared);
            }
        }
        let result = match &state.error {
            Some(e) => Err(RepoError::Persist(e.clone())),
            None => Ok(()),
        };
        drop(state);
        // Wait out any in-flight pass so its health reports (including a
        // failure report) have landed — the task-world equivalent of
        // joining the old writer thread.
        self.task.wait_idle();
        result
    }

    /// Current progress/backpressure counters.
    pub fn stats(&self) -> PipelineStats {
        lock(&self.shared).stats
    }

    /// Events accepted but not yet durably recorded.
    pub fn lag(&self) -> u64 {
        let state = lock(&self.shared);
        state.stats.enqueued - state.stats.durable - state.stats.dropped
    }
}

impl EventSink for BackgroundWriter {
    fn accept(&self, event: &RepoEvent) {
        {
            let mut state = lock(&self.shared);
            // One stall = one count, however many condvar wake-ups it
            // takes (notify_all wakes every blocked producer; most loop
            // again).
            if state.queue.len() >= state.capacity && state.error.is_none() && !state.shutdown {
                state.stats.backpressure_waits += 1;
            }
            while state.queue.len() >= state.capacity && state.error.is_none() && !state.shutdown {
                state = self
                    .shared
                    .not_full
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
            state.stats.enqueued += 1;
            if state.error.is_some() || state.shutdown {
                // A dead writer must not block its producers forever; the
                // loss is counted, and flush()/shutdown() must report it —
                // so a drop after a *clean* shutdown plants the sticky
                // error too (a crashed writer already has one).
                state.stats.dropped += 1;
                if state.error.is_none() {
                    state.error = Some("event discarded: writer was already shut down".to_string());
                }
                self.shared.progress.notify_all();
                return;
            }
            state.queue.push_back(event.clone());
        }
        self.task.notify();
    }
}

impl Drop for BackgroundWriter {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The writer task's resolved knobs.
#[derive(Clone, Copy)]
struct WriterTuning {
    batch_max: usize,
    /// The configured window — the fixed value, or the adaptive ceiling.
    window: Option<Duration>,
    group_max: usize,
    adaptive: bool,
}

/// One pass of the writer task. Never blocks waiting for work or for a
/// window timer — producers (`accept`), flush/shutdown callers and
/// window-close one-shots all re-notify the task instead — and does one
/// bounded step per pass (one record batch, or one stage-and-maybe-
/// close round), re-notifying itself while work remains so sibling
/// tenants on a shared runtime are never starved.
fn drive<B: StorageBackend>(
    shared: &Arc<Shared>,
    backend: &mut B,
    tuning: WriterTuning,
    runtime: &Weak<Runtime>,
    slot: &TaskSlot,
) {
    if tuning.window.is_none() {
        drive_batch(shared, backend, tuning.batch_max, slot);
    } else {
        drive_group(shared, backend, tuning, runtime, slot);
    }
}

/// Mark the shutdown drain complete (nothing queued, nothing staged)
/// and wake shutdown waiters. Caller holds the state lock.
fn confirm_closed(shared: &Shared, state: &mut State) {
    if state.shutdown && !state.closed {
        state.closed = true;
        shared.progress.notify_all();
    }
}

/// Per-batch mode: pop one bounded batch, record it (the backend fsyncs
/// inside `record`), account for it; re-notify while events remain.
fn drive_batch<B: StorageBackend>(
    shared: &Arc<Shared>,
    backend: &mut B,
    batch_max: usize,
    slot: &TaskSlot,
) {
    let batch: Vec<RepoEvent> = {
        let mut state = lock(shared);
        if state.error.is_some() || state.queue.is_empty() {
            confirm_closed(shared, &mut state);
            return;
        }
        let n = state.queue.len().min(batch_max);
        let batch = state.queue.drain(..n).collect();
        shared.not_full.notify_all();
        batch
    };
    match backend.record(&batch) {
        Ok(()) => {
            let mut state = lock(shared);
            state.stats.durable += batch.len() as u64;
            state.stats.fsyncs += 1;
            state.flush_requested = false;
            shared.progress.notify_all();
            publish(shared, state);
        }
        Err(e) => {
            fail(shared, batch.len(), e);
            return;
        }
    }
    let more = {
        let state = lock(shared);
        !state.queue.is_empty() || (state.shutdown && !state.closed)
    };
    if more {
        poke(slot);
    }
}

/// Group-commit mode: stage whatever is queued (up to the group
/// budget), open a window (arming a timer-wheel one-shot for its
/// deadline) and close it — with the one `flush_durable` that makes
/// every staged batch durable at once — when the budget fills, the
/// deadline passes, shutdown begins, or a flush caller is waiting on a
/// drained queue.
fn drive_group<B: StorageBackend>(
    shared: &Arc<Shared>,
    backend: &mut B,
    tuning: WriterTuning,
    runtime: &Weak<Runtime>,
    slot: &TaskSlot,
) {
    let max_window = tuning.window.expect("group mode has a window");
    let (batch, staged_before) = {
        let mut state = lock(shared);
        if state.error.is_some() {
            confirm_closed(shared, &mut state);
            return;
        }
        if state.queue.is_empty() && state.staged == 0 {
            confirm_closed(shared, &mut state);
            return;
        }
        let room = tuning.group_max - state.staged;
        let n = state.queue.len().min(room);
        let batch: Vec<RepoEvent> = state.queue.drain(..n).collect();
        if n > 0 {
            shared.not_full.notify_all();
        }
        (batch, state.staged)
    };
    if !batch.is_empty() {
        // Staged, not yet durable: `durable` only advances at the fsync
        // below, so flush waiters cannot be acknowledged early.
        if let Err(e) = backend.record(&batch) {
            fail(shared, staged_before + batch.len(), e);
            return;
        }
    }
    let mut state = lock(shared);
    state.staged += batch.len();
    if state.staged > 0 && state.window_deadline.is_none() && !state.current_window.is_zero() {
        // Open the window: deadline first, then the timer — the wheel
        // measures its own delay from *after* the deadline was fixed,
        // so the one-shot can never fire before the deadline check
        // passes and strand the window open.
        let delay = state.current_window;
        state.window_deadline = Some(Instant::now() + delay);
        drop(state);
        let timer_slot = Arc::clone(slot);
        if let Some(runtime) = runtime.upgrade() {
            runtime.schedule_once(delay, move || poke(&timer_slot));
        }
        state = lock(shared);
    }
    let deadline_passed = state
        .window_deadline
        .is_some_and(|deadline| Instant::now() >= deadline);
    let close = state.staged > 0
        && (state.staged >= tuning.group_max
            || state.shutdown
            || (state.flush_requested && state.queue.is_empty())
            || deadline_passed
            || state.current_window.is_zero());
    if close {
        let staged = state.staged;
        // Decide the next window before the commit lock so flush
        // waiters see stats (including `window_micros`) fully settled
        // when they wake.
        let next_window = if tuning.adaptive {
            adapt_window(state.current_window, max_window, staged, tuning.group_max)
        } else {
            state.current_window
        };
        drop(state);
        // The window's single fsync point, covering every staged batch.
        match backend.flush_durable() {
            Ok(()) => {
                let mut state = lock(shared);
                state.stats.durable += staged as u64;
                state.stats.fsyncs += 1;
                state.stats.group_commits += 1;
                state.stats.window_micros = next_window.as_micros() as u64;
                state.staged = 0;
                state.window_deadline = None;
                state.current_window = next_window;
                state.flush_requested = false;
                shared.progress.notify_all();
                publish(shared, state);
            }
            Err(e) => {
                fail(shared, staged, e);
                return;
            }
        }
    } else {
        drop(state);
    }
    let more = {
        let state = lock(shared);
        state.error.is_none() && (!state.queue.is_empty() || (state.shutdown && !state.closed))
    };
    if more {
        poke(slot);
    }
}

/// Size the next group-commit window from how the one that just closed
/// went. `staged` near the group budget means producers are saturating
/// the writer: double the window (more amortisation per fsync), up to the
/// configured ceiling. A window that closed nearly empty means load is
/// light: halve it (down to zero — drain-and-fsync immediately) so a lone
/// producer's ack latency is one fsync, not one timer. The growth floor
/// is a small quantum of the ceiling so recovery from zero is geometric,
/// not stuck.
fn adapt_window(
    current: Duration,
    max_window: Duration,
    staged: usize,
    group_max: usize,
) -> Duration {
    let quantum = (max_window / 16)
        .max(Duration::from_micros(50))
        .min(max_window);
    if staged.saturating_mul(4) >= group_max {
        return current.saturating_mul(2).clamp(quantum, max_window);
    }
    if staged <= 1 {
        return if current <= quantum {
            Duration::ZERO
        } else {
            current / 2
        };
    }
    current
}

/// The writer failed with `in_flight` events handed to the backend but
/// not durable (a durable *prefix* of them may exist on disk; recovery
/// reconciles via the primary's journal). They and everything still
/// queued are lost and counted; the error turns sticky.
fn fail(shared: &Shared, in_flight: usize, e: RepoError) {
    let mut state = lock(shared);
    state.stats.dropped += in_flight as u64;
    state.stats.dropped += state.queue.len() as u64;
    state.queue.clear();
    if state.error.is_none() {
        state.error = Some(e.to_string());
    }
    state.flush_requested = false;
    state.staged = 0;
    state.window_deadline = None;
    shared.not_full.notify_all();
    shared.progress.notify_all();
    publish(shared, state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::storage::MemoryBackend;
    use crate::template::{ExampleEntry, ExampleType};

    /// A backend whose state outlives the writer, so tests can
    /// inspect what was durably recorded. Its `flush_durable` parks
    /// while the test holds the fsync gate, so a test can keep the
    /// writer inside one window's fsync while it lines up the next
    /// windows' input.
    #[derive(Clone, Default)]
    struct SharedMemory(Arc<Mutex<MemoryBackend>>, Arc<FsyncGate>);

    /// `(held, parked)`: fsyncs wait while the gate is held, and
    /// `parked` says one is waiting.
    type FsyncGate = (Mutex<(bool, bool)>, Condvar);

    impl SharedMemory {
        fn hold_fsyncs(&self, held: bool) {
            let (lock, changed) = &*self.1;
            lock.lock().unwrap().0 = held;
            changed.notify_all();
        }

        fn wait_parked(&self) {
            let (lock, changed) = &*self.1;
            let (state, _) = changed
                .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(10), |g| !g.1)
                .unwrap();
            assert!(state.1, "the writer parks in its fsync");
        }
    }

    impl StorageBackend for SharedMemory {
        fn kind(&self) -> &'static str {
            "shared-memory"
        }
        fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
            self.0.lock().unwrap().record(events)
        }
        fn checkpoint(
            &mut self,
            snapshot: &crate::repo::RepositorySnapshot,
        ) -> Result<(), RepoError> {
            self.0.lock().unwrap().checkpoint(snapshot)
        }
        fn restore(&self) -> Result<crate::repo::RepositorySnapshot, RepoError> {
            self.0.lock().unwrap().restore()
        }
        fn flush_durable(&mut self) -> Result<(), RepoError> {
            let (lock, changed) = &*self.1;
            let mut state = lock.lock().unwrap();
            state.1 = true;
            changed.notify_all();
            while state.0 {
                state = changed.wait(state).unwrap();
            }
            state.1 = false;
            Ok(())
        }
    }

    /// A backend that fails every write, for sticky-error tests.
    struct BrokenBackend;

    impl StorageBackend for BrokenBackend {
        fn kind(&self) -> &'static str {
            "broken"
        }
        fn record(&mut self, _events: &[RepoEvent]) -> Result<(), RepoError> {
            Err(RepoError::Persist("disk on fire".to_string()))
        }
        fn checkpoint(
            &mut self,
            _snapshot: &crate::repo::RepositorySnapshot,
        ) -> Result<(), RepoError> {
            Err(RepoError::Persist("disk on fire".to_string()))
        }
        fn restore(&self) -> Result<crate::repo::RepositorySnapshot, RepoError> {
            Err(RepoError::Persist("disk on fire".to_string()))
        }
    }

    /// A writer on a one-worker runtime whose only handle is the
    /// writer's own.
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

    /// The writer's latest report on `runtime`'s health channel.
    fn latest_pipeline(runtime: &Runtime, component: &str) -> (PipelineStats, Option<String>) {
        match runtime.health().latest(component).map(|h| h.report) {
            Some(HealthReport::Pipeline { stats, error, .. }) => (stats, error),
            other => panic!("expected a pipeline report, got {other:?}"),
        }
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

    #[test]
    fn subscribed_writer_persists_the_live_state() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(storage.clone(), PipelineConfig::default()));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        // Backfill the founding event, then go push-mode.
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        repo.comment("alice", &id, "2014-03-28", "bg").unwrap();

        writer.flush().unwrap();
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        let stats = writer.stats();
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.durable, 4);
        assert_eq!(stats.dropped, 0);
        // Per-batch mode: one commit point per record batch, no windows.
        assert!(stats.fsyncs >= 1);
        assert_eq!(stats.group_commits, 0);
        assert_eq!(writer.lag(), 0);
        writer.shutdown().unwrap();
    }

    #[test]
    fn drop_drains_the_queue() {
        let storage = SharedMemory::default();
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        repo.contribute("alice", entry("COMPOSERS")).unwrap();
        {
            let writer = writer_on(
                storage.clone(),
                PipelineConfig {
                    channel_capacity: 2, // force backpressure on the way in
                    write_batch: 1,
                    ..PipelineConfig::default()
                },
            );
            writer.enqueue(&repo.drain_events());
            // No flush: Drop must drain.
        }
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    #[test]
    fn backend_errors_are_sticky_and_do_not_block_producers() {
        let runtime = Runtime::named("bx-durability", 1);
        let writer = Arc::new(BackgroundWriter::on_runtime(
            BrokenBackend,
            PipelineConfig {
                channel_capacity: 2,
                write_batch: 8,
                ..PipelineConfig::default()
            },
            &runtime,
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        // Far more events than the channel holds: if the dead writer kept
        // blocking, this loop would hang.
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..16 {
            repo.comment("alice", &id, "2014-03-28", &format!("c{i}"))
                .unwrap();
        }
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("disk on fire")));
        let stats = writer.stats();
        assert_eq!(stats.durable, 0);
        assert!(stats.dropped > 0);
        assert_eq!(stats.enqueued, stats.dropped);
        assert!(writer.shutdown().is_err(), "the error stays sticky");
        // The failure is published on the runtime's health channel.
        let (_, error) = latest_pipeline(&runtime, "writer");
        assert!(error.is_some_and(|e| e.contains("disk on fire")));
    }

    #[test]
    fn events_after_shutdown_fail_the_next_flush() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(storage.clone(), PipelineConfig::default()));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        writer.shutdown().unwrap();
        // The repository still holds the sink; this event can no longer
        // reach the backend and flush must say so rather than lie Ok.
        repo.register(Principal::member("late")).unwrap();
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("shut down")));
        assert_eq!(writer.stats().dropped, 1);
    }

    #[test]
    fn flush_then_more_events_then_flush_again() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(storage.clone(), PipelineConfig::default()));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        writer.flush().unwrap();
        let mid = storage.0.lock().unwrap().restore().unwrap();
        assert_eq!(mid, repo.snapshot());
        repo.contribute("alice", entry("DATES")).unwrap();
        writer.flush().unwrap();
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    #[test]
    fn group_commit_coalesces_commit_points() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_millis(5)),
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..20 {
            repo.comment("alice", &id, "2014-03-28", &format!("g{i}"))
                .unwrap();
        }
        writer.flush().unwrap();
        let stats = writer.stats();
        assert_eq!(stats.durable, stats.enqueued);
        assert!(stats.group_commits >= 1);
        assert_eq!(stats.fsyncs, stats.group_commits);
        assert!(
            stats.fsyncs < stats.durable,
            "windows amortise: {} fsyncs for {} events",
            stats.fsyncs,
            stats.durable
        );
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn adaptive_window_shrinks_to_zero_under_light_load() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(
            storage.clone(),
            PipelineConfig::adaptive_group_commit(Duration::from_millis(4)),
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        // One event per flush: every window closes with staged ≤ 1, so
        // from the 4ms ceiling the window halves to the quantum and then
        // to zero within a handful of rounds.
        for i in 0..10 {
            repo.comment("alice", &id, "2014-03-28", &format!("solo{i}"))
                .unwrap();
            writer.flush().unwrap();
        }
        let stats = writer.stats();
        assert_eq!(stats.window_micros, 0, "light load shrinks to zero");
        assert_eq!(stats.durable, stats.enqueued);
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn adaptive_window_grows_back_under_saturation() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(
            storage.clone(),
            PipelineConfig {
                // A tiny group budget so a burst saturates many windows
                // in a row (growth needs staged*4 >= group_max).
                max_group_events: 8,
                ..PipelineConfig::adaptive_group_commit(Duration::from_millis(4))
            },
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        // Shrink first: sparse singles take the window to zero.
        for i in 0..10 {
            repo.comment("alice", &id, "2014-03-28", &format!("s{i}"))
                .unwrap();
            writer.flush().unwrap();
        }
        assert_eq!(writer.stats().window_micros, 0);
        // Hold the writer inside the fsync of a one-event window, queue a
        // 64-event burst behind it, then let it go: every following
        // window stages the full 8-event budget, so each one doubles the
        // window from the quantum.
        storage.hold_fsyncs(true);
        repo.comment("alice", &id, "2014-03-28", "held").unwrap();
        storage.wait_parked();
        for i in 0..64 {
            repo.comment("alice", &id, "2014-03-28", &format!("burst{i}"))
                .unwrap();
        }
        storage.hold_fsyncs(false);
        writer.flush().unwrap();
        let stats = writer.stats();
        assert!(
            stats.window_micros > 0,
            "saturation must grow the window back (got {} µs)",
            stats.window_micros
        );
        assert!(
            stats.window_micros <= 4_000,
            "the configured ceiling caps growth (got {} µs)",
            stats.window_micros
        );
        assert_eq!(stats.durable, stats.enqueued);
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn fixed_window_reports_its_configured_size() {
        let storage = SharedMemory::default();
        let writer = Arc::new(writer_on(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_millis(2)),
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        writer.flush().unwrap();
        assert_eq!(writer.stats().window_micros, 2_000);
        writer.shutdown().unwrap();
    }

    #[test]
    fn flush_closes_an_open_window_early() {
        let storage = SharedMemory::default();
        // A window far longer than any test timeout: only the
        // flush-requested path can acknowledge promptly.
        let writer = Arc::new(writer_on(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_secs(600)),
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        let started = Instant::now();
        writer.flush().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "flush must not wait out the window timer"
        );
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn flush_spanning_multiple_group_budgets_is_not_stranded() {
        let storage = SharedMemory::default();
        // A tiny group budget forces the flusher's events across several
        // windows; each window fsync clears `flush_requested`, so the
        // flusher must re-arm it or the last window waits out the 600 s
        // timer and this test hangs.
        let writer = Arc::new(writer_on(
            storage.clone(),
            PipelineConfig {
                max_group_events: 4,
                ..PipelineConfig::group_commit(Duration::from_secs(600))
            },
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..7 {
            repo.comment("alice", &id, "2014-03-28", &format!("s{i}"))
                .unwrap();
        }
        writer.enqueue(&repo.drain_events()); // 10 events > 2 budgets
        let started = Instant::now();
        writer.flush().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "flush must not wait out any window timer"
        );
        let stats = writer.stats();
        assert_eq!(stats.durable, 10);
        assert!(
            stats.group_commits >= 3,
            "a 4-event budget splits 10 events over ≥ 3 windows, got {}",
            stats.group_commits
        );
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn shutdown_fsyncs_an_open_window() {
        let storage = SharedMemory::default();
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        {
            let writer = writer_on(
                storage.clone(),
                PipelineConfig::group_commit(Duration::from_secs(600)),
            );
            writer.enqueue(&repo.drain_events());
            // No flush: Drop's shutdown must close the window durably.
        }
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
    }

    #[test]
    fn health_reports_arrive_in_commit_order() {
        let runtime = Runtime::named("bx-durability", 1);
        let writer = Arc::new(BackgroundWriter::on_runtime(
            SharedMemory::default(),
            PipelineConfig {
                max_group_events: 2,
                ..PipelineConfig::group_commit(Duration::from_millis(2))
            },
            &runtime,
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        repo.subscribe(writer.clone());
        repo.register(Principal::member("alice")).unwrap();
        let id = repo.contribute("alice", entry("COMPOSERS")).unwrap();
        for i in 0..6 {
            repo.comment("alice", &id, "2014-03-28", &format!("h{i}"))
                .unwrap();
        }
        writer.flush().unwrap();
        // Join the writer task first: a report is published after the
        // commit it describes has woken the flusher.
        writer.shutdown().unwrap();

        let reports: Vec<(u64, PipelineStats, usize, Option<String>)> = runtime
            .health()
            .drain()
            .into_iter()
            .map(|entry| match entry.report {
                HealthReport::Pipeline {
                    stats,
                    queue_len,
                    error,
                } => (entry.seq, stats, queue_len, error),
                other => panic!("unexpected report {other:?}"),
            })
            .collect();
        // A 2-event budget splits 9 events over ≥ 5 windows, one report
        // per window.
        assert!(reports.len() >= 5, "one report per commit: {reports:?}");
        assert!(reports.iter().all(|r| r.3.is_none()), "all healthy");
        for pair in reports.windows(2) {
            assert!(pair[0].0 < pair[1].0, "publish order");
            assert!(pair[0].1.durable <= pair[1].1.durable);
            assert!(pair[0].1.group_commits <= pair[1].1.group_commits);
        }
        // The last report agrees with the counters.
        let (_, stats, queue_len, _) = reports.last().unwrap();
        assert_eq!(*stats, writer.stats());
        assert_eq!(*queue_len, 0);
        assert_eq!(writer.lag(), 0);
    }

    #[test]
    fn a_group_commit_writer_on_a_dropped_runtime_still_closes_windows() {
        let storage = SharedMemory::default();
        // The caller keeps no runtime handle; only the window timer can
        // make the staged events durable, since nobody flushes.
        let writer = writer_on(
            storage.clone(),
            PipelineConfig::group_commit(Duration::from_millis(5)),
        );
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        repo.register(Principal::member("alice")).unwrap();
        writer.enqueue(&repo.drain_events());
        let deadline = Instant::now() + Duration::from_secs(10);
        while writer.stats().durable < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = writer.stats();
        assert_eq!(stats.durable, 2, "the window timer closed the window");
        assert!(stats.group_commits >= 1);
        assert_eq!(
            storage.0.lock().unwrap().restore().unwrap(),
            repo.snapshot()
        );
        writer.shutdown().unwrap();
    }

    #[test]
    fn writers_on_a_shared_runtime_report_into_the_unified_channel() {
        let runtime = Runtime::named("bx-worker", 2);
        let storages: Vec<SharedMemory> = (0..4).map(|_| SharedMemory::default()).collect();
        let writers: Vec<BackgroundWriter> = storages
            .iter()
            .enumerate()
            .map(|(i, storage)| {
                BackgroundWriter::on_runtime(
                    storage.clone(),
                    PipelineConfig::group_commit(Duration::from_millis(2)),
                    &runtime,
                    &format!("writer:s{i}"),
                )
            })
            .collect();
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        let events = repo.drain_events();
        for writer in &writers {
            writer.enqueue(&events);
            writer.flush().unwrap();
        }
        for (writer, storage) in writers.iter().zip(&storages) {
            assert_eq!(
                storage.0.lock().unwrap().restore().unwrap(),
                repo.snapshot()
            );
            writer.shutdown().unwrap();
        }
        // Every writer reported per-component on the one channel.
        for i in 0..4 {
            let latest = runtime
                .health()
                .latest(&format!("writer:s{i}"))
                .expect("each writer reported");
            match latest.report {
                HealthReport::Pipeline { stats, error, .. } => {
                    assert_eq!(stats.durable, events.len() as u64);
                    assert_eq!(error, None);
                }
                ref other => panic!("unexpected report {other:?}"),
            }
        }
        // And the shared pool stayed at its configured width the whole
        // time: tasks, not threads, per writer.
        assert_eq!(runtime.pool_stats().threads, 2);
    }

    #[test]
    fn a_tail_repair_at_open_is_published_on_the_unified_channel() {
        use std::io::Write as _;
        let dir = crate::test_support::unique_dir("pipe-torn");
        {
            let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
            let repo = Repository::found("bx", vec![Principal::curator("c")]);
            backend.record(&repo.drain_events()).unwrap();
        }
        let torn = b"{\"Commented\":{\"id\":\"co";
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("events-0.jsonl"))
            .unwrap();
        file.write_all(torn).unwrap();
        drop(file);

        let runtime = Runtime::named("bx-worker", 2);
        let backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        let writer =
            BackgroundWriter::on_runtime(backend, PipelineConfig::default(), &runtime, "writer");
        let repaired = runtime.health().drain().into_iter().any(|entry| {
            entry.component == "writer"
                && matches!(
                    entry.report,
                    HealthReport::TailRepaired { ref file, bytes_dropped }
                        if file == "events-0.jsonl" && bytes_dropped == torn.len() as u64
                )
        });
        assert!(repaired, "the open-time repair reaches the unified channel");
        writer.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_surfaces_backend_errors_via_flush() {
        let runtime = Runtime::named("bx-durability", 1);
        let writer = Arc::new(BackgroundWriter::on_runtime(
            BrokenBackend,
            PipelineConfig::group_commit(Duration::from_millis(2)),
            &runtime,
            "writer",
        ));
        let repo = Repository::found("bx", vec![Principal::curator("c")]);
        writer.enqueue(&repo.drain_events());
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("disk on fire")));
        assert!(writer.shutdown().is_err());
        let (stats, error) = latest_pipeline(&runtime, "writer");
        assert!(error.is_some_and(|e| e.contains("disk on fire")));
        assert_eq!(stats, writer.stats());
    }
}
