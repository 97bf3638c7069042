//! Summary statistics shared by every workload: the seeded generator,
//! the percentile rule, open-loop timing and the peak-memory probe.

use std::time::{Duration, Instant};

/// SplitMix64: a small, fast, seedable generator. Every input the
/// benchmark feeds the program comes from one of these, so the same
/// `--seed` always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one actor (client, primary, reader).
    pub fn fork(&self, stream: u64) -> Rng {
        Rng(self.0 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `0..100`, for percentage mixes.
    pub fn percent(&mut self) -> u32 {
        (self.next_u64() % 100) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The percentile ladder a tail is chosen from, highest first.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile on the ladder with at least ten samples beyond
/// it, or `None` when there are too few samples for any (fewer than 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n >= rank + BEYOND_TAIL
    })
}

/// A timing distribution reduced to what the report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The percentile the tail was taken at (see [`tail_percentile`]);
    /// `None` means too few samples, and `tail` then holds the maximum.
    pub tail_at: Option<f64>,
    pub tail: f64,
    /// The 99th percentile whatever the sample count, for the report.
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Summary::of_mut(&mut samples.to_vec())
    }

    /// [`Summary::of`], sorting the samples in place instead of copying
    /// them (a run's latencies can be the largest thing it holds).
    pub fn of_mut(sorted: &mut [f64]) -> Option<Summary> {
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let sorted = &*sorted;
        let tail_at = tail_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: percentile(sorted, 50.0),
            tail_at,
            tail: match tail_at {
                Some(p) => percentile(sorted, p),
                None => sorted[sorted.len() - 1],
            },
            p99: percentile(sorted, 99.0),
        })
    }

    /// How the tail was chosen, for the report: `p99`, `p95`, … or `max`.
    pub fn tail_label(&self) -> String {
        match self.tail_at {
            Some(p) => format!("p{p}"),
            None => "max".to_string(),
        }
    }
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// An open-loop send schedule: request `i` is due in the `i`-th period
/// after `start`, whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    /// The start of request `i`'s period.
    pub fn due(&self, i: u64) -> Instant {
        self.start + self.period * u32::try_from(i).expect("schedules stay under 2^32 requests")
    }

    /// A uniformly random instant within request `i`'s period, so that
    /// the load does not phase-lock with a periodic timer in the system
    /// under test (the order of requests is kept).
    pub fn due_jittered(&self, i: u64, rng: &mut Rng) -> Instant {
        self.due(i) + self.period.mul_f64(rng.unit())
    }
}

/// Timing of one open-loop request: latency counts from when it was
/// *due*, so a stall that delays the generator is charged to every
/// request queued behind it; lateness is how far behind its schedule the
/// generator issued it.
pub fn open_loop_timing(due: Instant, sent: Instant, done: Instant) -> (Duration, Duration) {
    (
        done.saturating_duration_since(due),
        sent.saturating_duration_since(due),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB, parsed from the text
/// of `/proc/self/status`.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = fields.next()?.parse().ok()?;
    match fields.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// [`vm_hwm_mb`] of this process.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_mb(&s))
        .expect("/proc/self/status reports VmHWM")
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn summary_reports_rank_percentiles_and_leaves_ten_beyond_the_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        assert_eq!(
            (s.n, s.p50, s.tail_at, s.tail),
            (200, 100.0, Some(95.0), 190.0)
        );
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);
        assert_eq!(s.tail_label(), "p95");

        let few = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((few.p50, few.tail_at, few.tail), (2.0, None, 3.0));
        assert_eq!(few.tail_label(), "max");
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let start = Instant::now();
        let s = Schedule {
            start,
            period: Duration::from_millis(10),
        };
        // Request 3 is due at 30 ms; the generator was stalled and sent
        // it at 45 ms; it completed at 47 ms.
        let due = s.due(3);
        assert_eq!(due - start, Duration::from_millis(30));
        let sent = start + Duration::from_millis(45);
        let done = start + Duration::from_millis(47);
        let (latency, late) = open_loop_timing(due, sent, done);
        assert_eq!(latency, Duration::from_millis(17));
        assert_eq!(late, Duration::from_millis(15));
        // A request sent ahead of schedule is not late.
        let (latency, late) = open_loop_timing(due, start, start + Duration::from_millis(31));
        assert_eq!((latency, late), (Duration::from_millis(1), Duration::ZERO));
        // Jittered due times stay inside their own period.
        let mut rng = Rng::new(3);
        for i in 0..100 {
            let t = s.due_jittered(i, &mut rng);
            assert!(t >= s.due(i) && t < s.due(i + 1));
        }
    }

    #[test]
    fn vm_hwm_parses_kib_and_rejects_other_shapes() {
        let status =
            "Name:\tbx-perfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(50.0));
        assert_eq!(vm_hwm_mb("VmRSS:\t 40000 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t 10 MB\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn forks_are_reproducible_and_distinct() {
        let root = Rng::new(7);
        let a: Vec<u64> = (0..4).map(|_| root.fork(1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
    }
}
