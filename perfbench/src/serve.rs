//! `serve`: a federated read node kept fresh while primaries commit. Two
//! primaries — one JSONL, one binary, both auto-compacting — feed one
//! `ReplicaDaemon` over a `Federation`, all on one runtime of a worker
//! per core. Two open loops drive it: a writer commits at a fixed rate
//! across both primaries, with periodic contributions whose fresh title
//! token the reader probes through `query`; the reader issues a fixed-rate
//! mix of queries, citations and manuscript exports. Latencies count from
//! each request's due time. The workload's operation is the query, timed
//! from its due time; freshness (from `contribute` + `flush()` returning
//! on a primary to the first query on the node that returns the new
//! entry) is reported beside it. Freshness is close to uniform over the
//! poll interval, so its median over the few hundred probes a run affords
//! does not repeat closely enough to gate on.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bx_core::pipeline::PipelineStats;
use bx_core::runtime::HealthReport;
use bx_core::storage::{AutoCompactingBinaryLog, AutoCompactingEventLog, CompactionPolicy};
use bx_core::{
    cite::cite_in, export_manuscript, federate_snapshots, BackgroundWriter, DaemonConfig, EntryId,
    Federation, ManuscriptOptions, PipelineConfig, Principal, ReplicaDaemon, RepoEvent, Repository,
    Role, Runtime, SourceHealth, SourceId,
};

use crate::gen;
use crate::stats::{median, ms, open_loop_timing, us, Rng, Schedule, Summary};
use crate::trace::Trace;
use crate::{file_len, Ctx, Outcome};

/// Entries each primary holds when the run starts.
const SEED_ENTRIES: usize = 64;
/// Writer period: one commit every 20 ms, alternating primaries.
const WRITE_PERIOD: Duration = Duration::from_millis(20);
/// One write in this many is a contribution whose freshness is probed
/// (odd, so probes alternate between the two primaries).
const PROBE_EVERY: u64 = 3;
/// Reader period: one read every 5 ms.
const READ_PERIOD: Duration = Duration::from_millis(5);
/// Daemon poll interval.
const POLL: Duration = Duration::from_millis(5);
/// Granularity of the freshness probe.
const PROBE_GRANULARITY: Duration = Duration::from_micros(500);
/// Checkpoint threshold of both primaries: several checkpoints, and so
/// several federation re-bases, per run.
const CHECKPOINT_EVERY: usize = 256;
/// Group-commit window of both primaries.
const GROUP_COMMIT: Duration = Duration::from_millis(1);
/// How long the reader keeps probing after the writer stops.
const PROBE_GRACE: Duration = Duration::from_secs(5);
/// Set-ups per run; the median is reported.
const SETUPS: usize = 31;
const FEDERATION: &str = "bx-federated";

struct Primary {
    source: SourceId,
    repo: Repository,
    writer: Arc<BackgroundWriter>,
    ids: Vec<EntryId>,
    /// On traced runs, every event the repository journal handed over,
    /// from the founding on (the stream the storage replay uses).
    kept: Option<Mutex<Vec<RepoEvent>>>,
}

impl Primary {
    /// Drain the repository journal (so it never overflows), keeping the
    /// events on traced runs.
    fn drain(&self) {
        let events = self.repo.drain_events();
        if let Some(kept) = &self.kept {
            kept.lock().expect("journal copy lock").extend(events);
        }
    }
}

struct Node {
    runtime: Arc<Runtime>,
    primaries: Vec<Primary>,
    daemon: ReplicaDaemon,
    dirs: Vec<PathBuf>,
}

/// A contribution waiting to become visible on the node.
struct Probe {
    token: String,
    id: EntryId,
    acked: Instant,
}

fn primary(
    label: &str,
    dir: &std::path::Path,
    binary: bool,
    runtime: &Arc<Runtime>,
    rng: &mut Rng,
    traced: bool,
) -> Primary {
    let policy = CompactionPolicy {
        checkpoint_every: CHECKPOINT_EVERY,
    };
    let config = PipelineConfig::group_commit(GROUP_COMMIT);
    let component = format!("serve.{label}");
    let storage = format!("serve.{label}.storage");
    let writer = Arc::new(if binary {
        let mut log = AutoCompactingBinaryLog::open_with(dir, policy).expect("log opens");
        log.set_observer(runtime.health(), &storage);
        BackgroundWriter::on_runtime(log, config, runtime, &component)
    } else {
        let mut log = AutoCompactingEventLog::open(dir, policy).expect("log opens");
        log.set_observer(runtime.health(), &storage);
        BackgroundWriter::on_runtime(log, config, runtime, &component)
    });
    let repo = Repository::found(&format!("bx-{label}"), vec![Principal::curator("curator")]);
    repo.subscribe_with_backfill(writer.clone());
    repo.register(Principal::member("alice"))
        .expect("fresh account");
    repo.register(Principal::member("bob"))
        .expect("fresh account");
    repo.grant_role("curator", "bob", Role::Reviewer)
        .expect("curators grant roles");
    let ids = (0..SEED_ENTRIES)
        .map(|i| {
            let entry = gen::entry(rng, &format!("Served {label} entry {i}"), "alice");
            repo.contribute("alice", entry)
                .expect("fresh titles contribute")
        })
        .collect();
    writer.flush().expect("seed entries are durable");
    let primary = Primary {
        source: SourceId::new(label),
        repo,
        writer,
        ids,
        kept: traced.then(|| Mutex::new(Vec::new())),
    };
    primary.drain();
    primary
}

fn set_up(ctx: &Ctx, k: usize, traced: bool) -> Node {
    let mut rng = Rng::new(ctx.seed).fork(3000);
    let runtime = Runtime::named("bx-serve", ctx.threads);
    let root = ctx.dir(&format!("serve-{k}"));
    let dirs = vec![root.join("eu"), root.join("us")];
    let primaries = vec![
        primary("eu", &dirs[0], false, &runtime, &mut rng, traced),
        primary("us", &dirs[1], true, &runtime, &mut rng, traced),
    ];
    let sources = primaries
        .iter()
        .zip(&dirs)
        .map(|(p, d)| (p.source.clone(), d.clone()))
        .collect();
    let federation = Federation::open_on(FEDERATION, sources, &runtime).expect("federation opens");
    // A traced run drives the catch-up passes itself (to time them), so
    // the daemon's own timer is parked.
    let poll_interval = if traced {
        Duration::from_secs(3600)
    } else {
        POLL
    };
    let daemon = ReplicaDaemon::spawn_on(
        federation,
        DaemonConfig { poll_interval },
        &runtime,
        "serve.daemon",
    );
    Node {
        runtime,
        primaries,
        daemon,
        dirs,
    }
}

fn tear_down(node: Node) {
    let Node {
        runtime,
        primaries,
        mut daemon,
        dirs,
    } = node;
    daemon.stop();
    drop(daemon);
    for p in primaries {
        p.writer.shutdown().expect("writer shuts down cleanly");
    }
    drop(runtime);
    if let Some(root) = dirs[0].parent() {
        std::fs::remove_dir_all(root).ok();
    }
}

/// What one measured phase observed.
#[derive(Default)]
struct Phase {
    freshness_ms: Vec<f64>,
    query_ms: Vec<f64>,
    cite_ms: Vec<f64>,
    export_ms: Vec<f64>,
    read_late_ms: Vec<f64>,
    write_late_ms: Vec<f64>,
    reads: usize,
    writes: usize,
    failed: u64,
    unanswered: usize,
    passes: Vec<(f64, usize, usize)>,
    lag_bytes_max: u64,
    unhealthy: u64,
    measured: Duration,
}

#[allow(clippy::too_many_arguments)]
fn writer_loop(
    node: &Node,
    rng: &mut Rng,
    schedule: Schedule,
    until: Instant,
    probes: &Mutex<VecDeque<Probe>>,
    seed: u64,
    phase_tag: u64,
    trace: &mut Trace,
) -> (usize, Vec<f64>, u64) {
    let (mut writes, mut late, mut failed) = (0usize, Vec::new(), 0u64);
    for i in 0.. {
        let due = schedule.due_jittered(i, rng);
        if due >= until {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        late.push(ms(sent.saturating_duration_since(due)));
        let p = &node.primaries[(i % 2) as usize];
        let k = rng.below(p.ids.len());
        let token = format!("fz{seed:x}p{phase_tag}n{i}q");
        let root = trace.open("bench.commit", i, None);
        let result = if i % PROBE_EVERY == PROBE_EVERY - 1 {
            let entry = gen::entry(rng, &format!("Fresh {token}"), "alice");
            trace.span("repo.mutate", i, Some(root), || {
                p.repo.contribute("alice", entry).map(Some)
            })
        } else if rng.percent() < 85 {
            let (date, text) = (gen::date(rng), gen::comment_text(rng));
            trace.span("repo.mutate", i, Some(root), || {
                p.repo
                    .comment("bob", &p.ids[k], &date, &text)
                    .map(|()| None)
            })
        } else {
            p.repo.latest(&p.ids[k]).and_then(|latest| {
                let next = gen::revision(rng, &latest);
                trace.span("repo.mutate", i, Some(root), || {
                    p.repo.revise("alice", &p.ids[k], next).map(|_| None)
                })
            })
        };
        let flushed = trace.span("pipeline.flush", i, Some(root), || p.writer.flush());
        trace.close(root);
        match result.and_then(|id| flushed.map(|()| id)) {
            Ok(Some(id)) => probes.lock().expect("probe lock").push_back(Probe {
                token,
                id: p.source.entry_id(&id),
                acked: Instant::now(),
            }),
            Ok(None) => {}
            Err(e) => {
                failed += 1;
                eprintln!("serve: write {i}: {e}");
            }
        }
        writes += 1;
        if i % 64 == 63 {
            p.drain();
        }
    }
    for p in &node.primaries {
        p.drain();
    }
    (writes, late, failed)
}

/// Answer every pending probe the node can now see; returns freshness
/// samples in ms.
fn probe_once(node: &Node, probes: &Mutex<VecDeque<Probe>>, out: &mut Vec<f64>) {
    let pending: Vec<(String, EntryId, Instant)> = probes
        .lock()
        .expect("probe lock")
        .iter()
        .map(|p| (p.token.clone(), p.id.clone(), p.acked))
        .collect();
    for (token, id, acked) in pending {
        let hits = node.daemon.query(&[token.as_str()]);
        if hits.iter().any(|(hit, _)| *hit == id) {
            out.push(ms(acked.elapsed()));
            probes
                .lock()
                .expect("probe lock")
                .retain(|p| p.token != token);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    node: &Node,
    rng: &mut Rng,
    schedule: Schedule,
    until: Instant,
    writer_done: &AtomicBool,
    probes: &Mutex<VecDeque<Probe>>,
    trace: &mut Trace,
    phase: &mut Phase,
) {
    let cited: Vec<EntryId> = node
        .primaries
        .iter()
        .flat_map(|p| p.ids.iter().map(|id| p.source.entry_id(id)))
        .collect();
    for i in 0.. {
        let due = schedule.due_jittered(i, rng);
        if due >= until {
            break;
        }
        while Instant::now() < due {
            probe_once(node, probes, &mut phase.freshness_ms);
            let left = due.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(PROBE_GRANULARITY));
        }
        let sent = Instant::now();
        let roll = rng.percent();
        let op = i;
        // Each read runs under the daemon's lock (`with_federation`); the
        // inner span isolates the layer call from the wait for the lock.
        let ok = if roll < 70 {
            let terms = gen::query_terms(rng);
            let root = trace.open("replica.query", op, None);
            let hits = node.daemon.with_federation(|f| {
                trace.span("index.query", op, Some(root), || f.index().query(&terms))
            });
            trace.close(root);
            std::hint::black_box(hits);
            true
        } else if roll < 90 {
            let id = &cited[rng.below(cited.len())];
            let root = trace.open("replica.cite", op, None);
            let cited = node.daemon.with_federation(|f| {
                trace.span("cite.cite_in", op, Some(root), || {
                    cite_in(f.snapshot(), id, None)
                })
            });
            trace.close(root);
            cited.is_ok()
        } else {
            let root = trace.open("replica.export", op, None);
            let text = node.daemon.with_federation(|f| {
                trace.span("manuscript.export", op, Some(root), || {
                    export_manuscript(f.snapshot(), ManuscriptOptions::default())
                })
            });
            trace.close(root);
            text.contains("@misc{")
        };
        let (latency, late) = open_loop_timing(due, sent, Instant::now());
        phase.read_late_ms.push(ms(late));
        let bucket = if roll < 70 {
            &mut phase.query_ms
        } else if roll < 90 {
            &mut phase.cite_ms
        } else {
            &mut phase.export_ms
        };
        bucket.push(ms(latency));
        phase.reads += 1;
        if !ok {
            phase.failed += 1;
        }
    }
    phase.measured = schedule.start.elapsed();
    // Keep probing until the writer has stopped and every contribution
    // it acknowledged is visible (or the grace period runs out).
    let grace = Instant::now() + PROBE_GRACE;
    while !writer_done.load(Ordering::SeqCst) || !probes.lock().expect("probe lock").is_empty() {
        if Instant::now() >= grace {
            break;
        }
        probe_once(node, probes, &mut phase.freshness_ms);
        std::thread::sleep(PROBE_GRANULARITY);
    }
}

/// A traced run's stand-in for the daemon's timer: one forced catch-up
/// pass every poll interval, timed, with the daemon's stats sampled
/// after each.
fn poller_loop(node: &Node, stop: &AtomicBool, trace: &mut Trace, phase: &mut Phase) {
    let mut op = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let started = Instant::now();
        let pass = trace.span("replica.catch_up", op, None, || {
            node.daemon.force_catch_up()
        });
        let took = ms(started.elapsed());
        match pass {
            Ok(pass) => phase.passes.push((took, pass.events_applied, pass.rebases)),
            Err(e) => {
                phase.failed += 1;
                eprintln!("serve: catch-up pass: {e}");
            }
        }
        let stats = node.daemon.stats();
        let lag: u64 = stats.source_lag.iter().map(|(_, bytes)| bytes).sum();
        phase.lag_bytes_max = phase.lag_bytes_max.max(lag);
        phase.unhealthy += stats
            .source_health
            .iter()
            .filter(|(_, s)| s.health != SourceHealth::Healthy)
            .count() as u64;
        op += 1;
        std::thread::sleep(POLL);
    }
}

/// One measured phase of `budget`. With `poller`, catch-up passes are
/// driven (and timed) by a thread of the benchmark instead of the
/// daemon's timer; spans are recorded when `trace` is on.
fn measure(
    ctx: &Ctx,
    node: &Node,
    budget: Duration,
    poller: bool,
    tag: u64,
    trace: &mut Trace,
) -> Phase {
    let probes = Mutex::new(VecDeque::new());
    let writer_done = AtomicBool::new(false);
    let stop_poller = AtomicBool::new(false);
    let start = Instant::now();
    let until = start + budget;
    let root = Rng::new(ctx.seed).fork(3100 + tag);
    let (epoch, spans) = (trace.epoch(), trace.is_on());
    let (writes, write_late, write_failed, writer_trace, reader_phase, reader_trace, poller) =
        std::thread::scope(|scope| {
            let poller = poller.then(|| {
                let stop = &stop_poller;
                scope.spawn(move || {
                    let mut t = Trace::new(epoch, spans);
                    let mut p = Phase::default();
                    poller_loop(node, stop, &mut t, &mut p);
                    (t, p)
                })
            });
            let (probes, done) = (&probes, &writer_done);
            let mut wrng = root.fork(1);
            let writer = scope.spawn(move || {
                let schedule = Schedule {
                    start,
                    period: WRITE_PERIOD,
                };
                let mut t = Trace::new(epoch, spans);
                let (writes, late, failed) = writer_loop(
                    node, &mut wrng, schedule, until, probes, ctx.seed, tag, &mut t,
                );
                done.store(true, Ordering::SeqCst);
                (writes, late, failed, t)
            });
            let mut rrng = root.fork(2);
            let reader = scope.spawn(move || {
                let schedule = Schedule {
                    start,
                    period: READ_PERIOD,
                };
                let mut t = Trace::new(epoch, spans);
                let mut p = Phase::default();
                reader_loop(
                    node, &mut rrng, schedule, until, done, probes, &mut t, &mut p,
                );
                (p, t)
            });
            let (writes, late, failed, wt) = writer.join().expect("writer thread");
            let (p, t) = reader.join().expect("reader thread");
            stop_poller.store(true, Ordering::SeqCst);
            let poller = poller.map(|h| h.join().expect("poller thread"));
            (writes, late, failed, wt, p, t, poller)
        });
    let mut phase = Phase {
        writes,
        write_late_ms: write_late,
        unanswered: probes.lock().expect("probe lock").len(),
        ..reader_phase
    };
    phase.failed += write_failed;
    trace.absorb(writer_trace);
    trace.absorb(reader_trace);
    if let Some((t, p)) = poller {
        trace.absorb(t);
        phase.passes = p.passes;
        phase.lag_bytes_max = p.lag_bytes_max;
        phase.unhealthy = p.unhealthy;
        phase.failed += p.failed;
    }
    phase
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut node = None;
    for k in 0..SETUPS {
        let started = Instant::now();
        let fresh = set_up(ctx, k, ctx.trace);
        out.setups.push(started.elapsed());
        if let Some(old) = node.replace(fresh) {
            tear_down(old);
        }
    }
    let node = node.expect("at least one set-up");

    // On a traced run the benchmark's poller drives the catch-up passes in
    // both halves, so only the spans differ between them.
    let mut trace = Trace::new(Instant::now(), true);
    let phases: Vec<Phase> = ctx
        .phases()
        .into_iter()
        .enumerate()
        .map(|(tag, (spans, budget))| {
            let mut off = Trace::new(Instant::now(), false);
            let sink = if spans { &mut trace } else { &mut off };
            measure(ctx, &node, budget, ctx.trace, tag as u64, sink)
        })
        .collect();

    // Final convergence check: after the primaries are durable and one
    // more forced pass, the node holds exactly the federation of the
    // primaries' states.
    for p in &node.primaries {
        p.writer.flush().expect("primary is durable");
    }
    node.daemon.force_catch_up().expect("final catch-up pass");
    let expected = federate_snapshots(
        FEDERATION,
        &node
            .primaries
            .iter()
            .map(|p| (p.source.clone(), p.repo.snapshot()))
            .collect::<Vec<_>>(),
    );
    let converged = node.daemon.with_federation(|f| *f.snapshot() == expected);
    out.check(
        converged,
        "the node converged on the federation of the primaries",
    );
    let stats = node.daemon.stats();
    let unhealthy_at_end = stats
        .source_health
        .iter()
        .filter(|(_, s)| s.health != SourceHealth::Healthy)
        .count();
    out.check(
        node.daemon.last_errors().is_empty(),
        "no source reported an error",
    );
    let overflow: u64 = node
        .primaries
        .iter()
        .map(|p| p.repo.journal_overflow())
        .sum();
    out.check(overflow == 0, "primary journals never overflowed");
    let manifest_bytes: Vec<u64> = node
        .dirs
        .iter()
        .map(|d| file_len(&d.join("checkpoint.json")))
        .collect();
    let entries = expected.records.len();
    let panics = node.runtime.pool_stats().panics_caught;
    // The commit path's counters, summed over both primaries, and the
    // JSONL primary's event stream for the storage replay.
    let mut writer_stats = PipelineStats::default();
    let mut compactions = 0;
    for p in &node.primaries {
        let stats = p.writer.stats();
        writer_stats.durable += stats.durable;
        writer_stats.fsyncs += stats.fsyncs;
        writer_stats.backpressure_waits += stats.backpressure_waits;
        let storage = format!("serve.{}.storage", p.source);
        if let Some(HealthReport::Compaction { checkpoints, .. }) =
            node.runtime.health().latest(&storage).map(|h| h.report)
        {
            compactions += checkpoints;
        }
    }
    node.primaries[0].drain();
    let stream = node.primaries[0]
        .kept
        .as_ref()
        .map(|kept| std::mem::take(&mut *kept.lock().expect("journal copy lock")));
    tear_down(node);

    let current = phases.last().expect("a measured phase");
    for phase in &phases {
        out.attempted +=
            (phase.reads + phase.writes + phase.freshness_ms.len() + phase.unanswered) as u64;
        out.failed += phase.failed + phase.unanswered as u64;
    }
    out.ops = current.reads;
    out.measured = current.measured;
    out.latencies_ms = current.query_ms.clone();

    out.note(format!(
        "policy: open loops, each request due at a random point of its period; writer every {} ms alternating a JSONL and a binary primary (a probed \
         contribute every {PROBE_EVERY} writes, otherwise 85% comment / 15% revise, flush() after each), \
         reader every {} ms (70% query / 20% cite / 10% export); daemon poll {} ms; probe granularity \
         {} us; group commit {} ms; checkpoint_every {CHECKPOINT_EVERY}; runtime of {} workers",
        WRITE_PERIOD.as_millis(),
        READ_PERIOD.as_millis(),
        POLL.as_millis(),
        PROBE_GRANULARITY.as_micros(),
        GROUP_COMMIT.as_millis(),
        ctx.threads
    ));
    out.note(format!(
        "data: {SEED_ENTRIES} seed entries per primary, {entries} federated entries at the end; \
         final manifests {manifest_bytes:?} B; {} writes, {} reads, {} probes ({} unanswered)",
        current.writes,
        current.reads,
        current.freshness_ms.len(),
        current.unanswered
    ));
    out.note(
        "why: uses index for reads beside incremental writes and loads replica catch-up and re-base \
         with pipeline only lightly, so a restore gain that costs live serving shows"
            .to_string(),
    );
    let line = |name: &str, v: &[f64], pick: fn(&Summary) -> f64| -> String {
        match Summary::of(v) {
            Some(s) => format!("{name} = {:.4} ms (n={})", pick(&s), s.n),
            None => format!("{name} = n/a (no samples)"),
        }
    };
    out.note(line("query_p50_ms", &current.query_ms, |s| s.p50));
    out.note(line("query_p99_ms", &current.query_ms, |s| s.p99));
    out.note(line("export_p50_ms", &current.export_ms, |s| s.p50));
    out.note(line("freshness_p50_ms", &current.freshness_ms, |s| s.p50));
    if let Some(s) = Summary::of(&current.freshness_ms) {
        out.note(format!(
            "freshness_p99_ms = {:.4} ms (n={}; the highest percentile with ten samples beyond it is {} = {:.4} ms)",
            s.p99,
            s.n,
            s.tail_label(),
            s.tail
        ));
    }
    out.note(line(
        "generator_late_ms_p99 (reads)",
        &current.read_late_ms,
        |s| s.p99,
    ));
    out.note(line(
        "generator_late_ms_p99 (writes)",
        &current.write_late_ms,
        |s| s.p99,
    ));

    if ctx.trace {
        let p = |name: &str, pick: fn(&Summary) -> f64| {
            let d: Vec<f64> = trace.durations(name).into_iter().map(us).collect();
            Summary::of(&d).map_or(0.0, |s| pick(&s))
        };
        out.layer("index.query_us_p50", p("index.query", |s| s.p50));
        out.layer("index.query_us_p99", p("index.query", |s| s.p99));
        out.layer("cite.cite_us", p("cite.cite_in", |s| s.p50));
        out.layer(
            "manuscript.export_ms",
            p("manuscript.export", |s| s.p50) / 1e3,
        );
        // Time a daemon query spends outside the index: waiting for the
        // federation lock while a catch-up pass holds it.
        let outer = trace.durations("replica.query");
        let inner = trace.durations("index.query");
        let waits: Vec<f64> = outer
            .iter()
            .zip(&inner)
            .map(|(o, i)| us(o.saturating_sub(*i)))
            .collect();
        out.layer(
            "replica.read_lock_wait_us",
            Summary::of(&waits).map_or(0.0, |s| s.p99),
        );
        let passes: Vec<f64> = current.passes.iter().map(|(t, _, _)| *t).collect();
        let pass_summary = Summary::of(&passes);
        out.layer(
            "replica.catch_up_ms_p50",
            pass_summary.as_ref().map_or(0.0, |s| s.p50),
        );
        out.layer(
            "replica.catch_up_ms_p99",
            pass_summary.as_ref().map_or(0.0, |s| s.p99),
        );
        let events: usize = current.passes.iter().map(|(_, e, _)| e).sum();
        out.layer(
            "replica.events_per_pass",
            events as f64 / current.passes.len().max(1) as f64,
        );
        let rebases: usize = phases
            .iter()
            .flat_map(|p| &p.passes)
            .map(|(_, _, r)| r)
            .sum();
        out.layer("replica.rebases", rebases as f64);
        out.layer(
            "replica.lag_bytes_max",
            phases.iter().map(|p| p.lag_bytes_max).max().unwrap_or(0) as f64,
        );
        let unhealthy: u64 = phases.iter().map(|p| p.unhealthy).sum();
        out.layer(
            "supervise.unhealthy_observations",
            (unhealthy + unhealthy_at_end as u64) as f64,
        );
        out.layer("runtime.panics_caught", panics as f64);
        out.layer(
            "trace.overhead_frac",
            median(&phases[1].query_ms) / median(&phases[0].query_ms) - 1.0,
        );
        crate::curate::commit_layers(
            &mut out,
            &mut trace,
            &stream.expect("traced runs keep the primary's stream"),
            &ctx.dir("serve-replay"),
            CHECKPOINT_EVERY,
            writer_stats,
            compactions,
            overflow,
        );
        out.trace = Some(trace);
    }
    out
}
