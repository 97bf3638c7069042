//! End-to-end benchmark of bx-core's three user paths: `curate` (the
//! commit path, where an acknowledgement means the write is durable),
//! `restore` (cold open of a persisted history up to the first answered
//! query) and `serve` (a federated read node kept fresh while primaries
//! commit).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload curate --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Scratch data goes under `.bench_work/`
//! in the current directory and is removed at exit, except the span file
//! a traced run writes. Human-readable report lines come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

mod curate;
mod gen;
mod restore;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use stats::{median, Summary};

/// Settings every workload receives.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory of this run (inside the current directory).
    pub work: PathBuf,
    /// Load threads: the machine's available parallelism.
    pub threads: usize,
}

impl Ctx {
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// The measured phases as (spans on, duration): the whole run
    /// untraced, or on a traced run half untraced and half traced, so the
    /// gap between the halves is the tracing overhead.
    pub fn phases(&self) -> Vec<(bool, Duration)> {
        if self.trace {
            vec![(false, self.seconds / 2), (true, self.seconds / 2)]
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Duration of each set-up the run performed.
    pub setups: Vec<Duration>,
    /// Latencies of the workload's user-facing operation, in ms.
    pub latencies_ms: Vec<f64>,
    /// Operations completed during `measured`.
    pub ops: usize,
    pub measured: Duration,
    /// Operations and checks attempted, and how many failed or returned
    /// a wrong result.
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics (filled on traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Report lines: policy, data sizes and the path's own named metrics.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<trace::Trace>,
}

impl Outcome {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Count one check; a failed one is reported on standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Every per-layer metric with its unit. A traced run prints all of them;
/// a layer the workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("error_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("repo.mutate_us_p50", "us"),
    ("repo.mutate_us_p99", "us"),
    ("repo.journal_overflow", "count"),
    ("repo.self_ms", "ms"),
    ("pipeline.flush_wait_us_p50", "us"),
    ("pipeline.flush_wait_us_p99", "us"),
    ("pipeline.events_per_fsync", "ratio"),
    ("pipeline.fsyncs", "count"),
    ("pipeline.backpressure_waits", "count"),
    ("pipeline.self_ms", "ms"),
    ("storage.record_us_p50", "us"),
    ("storage.flush_durable_us_p50", "us"),
    ("storage.bytes_per_event", "B"),
    ("storage.compactions", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.manifest_parse_ms", "ms"),
    ("storage.manifest_bytes", "B"),
    ("storage.jsonl_decode_ms", "ms"),
    ("storage.jsonl_bytes", "B"),
    ("storage.self_ms", "ms"),
    ("binlog.decode_ms", "ms"),
    ("binlog.bytes", "B"),
    ("event.replay_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.query_us_p50", "us"),
    ("index.query_us_p99", "us"),
    ("wiki_bx.publish_ms", "ms"),
    ("cite.cite_us", "us"),
    ("manuscript.export_ms", "ms"),
    ("replica.catch_up_ms_p50", "ms"),
    ("replica.catch_up_ms_p99", "ms"),
    ("replica.events_per_pass", "ratio"),
    ("replica.rebases", "count"),
    ("replica.lag_bytes_max", "B"),
    ("replica.read_lock_wait_us", "us"),
    ("runtime.parallel_speedup", "ratio"),
    ("runtime.open_seq_ms", "ms"),
    ("runtime.open_par_ms", "ms"),
    ("runtime.panics_caught", "count"),
    ("supervise.unhealthy_observations", "count"),
    ("restore.untracked_frac", "frac"),
    ("binlog.self_ms", "ms"),
    ("event.self_ms", "ms"),
    ("index.self_ms", "ms"),
    ("wiki_bx.self_ms", "ms"),
    ("cite.self_ms", "ms"),
    ("manuscript.self_ms", "ms"),
    ("replica.self_ms", "ms"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (curate, restore or serve)")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Filesystem type of the mount holding `dir`, from `/proc/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

/// Size of a file in bytes (0 when it does not exist).
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Total size of the files directly in `dir` whose names `keep` accepts.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .map(|e| e.metadata().map_or(0, |m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    assert!(value.is_finite(), "metric {name} is {value}");
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bx-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).expect("scratch directory can be created");
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.clone(),
        threads,
    };
    println!(
        "workload={} seed={} seconds={} trace={} nproc={} fs={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads,
        fs_type(&work)
    );
    let mut outcome = match args.workload.as_str() {
        "curate" => curate::run(&ctx),
        "restore" => restore::run(&ctx),
        "serve" => serve::run(&ctx),
        other => {
            eprintln!("bx-perfbench: unknown workload `{other}` (curate, restore or serve)");
            std::fs::remove_dir_all(&work).ok();
            std::process::exit(2);
        }
    };
    std::fs::remove_dir_all(&work).ok();
    for line in &outcome.notes {
        println!("{line}");
    }

    let op = Summary::of_mut(&mut outcome.latencies_ms).expect("the workload completed operations");
    let setup_s = median(
        &outcome
            .setups
            .iter()
            .map(Duration::as_secs_f64)
            .collect::<Vec<_>>(),
    );
    let ops_per_s = outcome.ops as f64 / outcome.measured.as_secs_f64();
    let error_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "end-to-end: setup_s={setup_s:.4} (median of {} set-ups) ops_per_s={ops_per_s:.2} ({} ops in {:.3} s) \
         p50_ms={:.4} {}_ms={:.4} (n={}) error_frac={error_frac} ({} of {})",
        outcome.setups.len(),
        outcome.ops,
        outcome.measured.as_secs_f64(),
        op.p50,
        op.tail_label(),
        op.tail,
        op.n,
        outcome.failed,
        outcome.attempted
    );

    let metrics: Vec<String> = if args.trace {
        outcome.layers.insert("error_frac", error_frac);
        if let Some(trace) = outcome.trace.take() {
            for (layer, busy) in trace.self_time_by_layer() {
                let name = format!("{layer}.self_ms");
                if let Some(&(declared, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
                    outcome.layers.insert(declared, stats::ms(busy));
                }
            }
            let path = root.join(format!("spans-{}.jsonl", args.workload));
            trace.write_jsonl(&path).expect("span file can be written");
            println!(
                "spans: {} written to {}",
                trace.spans().len(),
                path.display()
            );
        }
        for name in outcome.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not declared"
            );
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.layers.get(name).copied().unwrap_or(0.0);
                println!("layer {name} = {value} {unit}");
                json_metric(name, value, unit)
            })
            .collect()
    } else {
        vec![
            json_metric("setup_s", setup_s, "s"),
            json_metric("ops_per_s", ops_per_s, "1/s"),
            json_metric("p50_ms", op.p50, "ms"),
            json_metric("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ]
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
}
