//! Spans recorded around the benchmark's calls into each `bx_core` layer.
//!
//! Each thread records into its own [`Trace`]; the buffers are merged and
//! written out once the measured work is over, so recording costs one
//! clock read and one push per boundary. A span's layer is its name up to
//! the first `.` (`storage.read_state_in` belongs to `storage`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one operation (a commit, a cold open, a
    /// served request).
    pub op: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// One thread's span buffer. With tracing off every call is a plain call.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(epoch: Instant, on: bool) -> Trace {
        Trace {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Open a span now; pair with [`Trace::close`]. Returns its index
    /// (meaningless when tracing is off).
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        if self.on {
            let now = self.epoch.elapsed();
            self.spans.push(Span {
                name,
                op,
                parent,
                start: now,
                end: now,
            });
        }
        self.spans.len().wrapping_sub(1)
    }

    pub fn close(&mut self, index: usize) {
        if self.on {
            self.spans[index].end = self.epoch.elapsed();
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let index = self.open(name, op, parent);
        let out = f();
        self.close(index);
        out
    }

    /// Move another thread's spans into this trace, keeping their parent
    /// links valid.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.durations(name).into_iter().sum()
    }

    /// Each layer's self time: its spans' durations minus the part of
    /// each interval that child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.clamp(s.start, s.end), end.clamp(s.start, s.end));
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            *out.entry(s.layer()).or_default() += s.duration().saturating_sub(covered);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let mut t = Trace::new(Instant::now(), true);
        t.spans = vec![
            span("replica.open", None, 0, 100),
            span("storage.read_state_in", Some(0), 10, 40),
            span("event.replay", Some(0), 30, 50),
            span("index.build", Some(0), 60, 70),
        ];
        let by_layer = t.self_time_by_layer();
        // Children cover 10..50 and 60..70: 50 ms of the parent's 100.
        assert_eq!(by_layer["replica"], Duration::from_millis(50));
        assert_eq!(by_layer["storage"], Duration::from_millis(30));
        assert_eq!(by_layer["event"], Duration::from_millis(20));
        assert_eq!(by_layer["index"], Duration::from_millis(10));
    }

    #[test]
    fn absorb_rebases_parent_links_and_off_records_nothing() {
        let epoch = Instant::now();
        let mut a = Trace::new(epoch, true);
        a.span("repo.comment", 1, None, || ());
        let mut b = Trace::new(epoch, true);
        let root = b.open("bench.op", 2, None);
        b.span("pipeline.flush", 2, Some(root), || ());
        b.close(root);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.durations("pipeline.flush").len(), 1);

        let mut off = Trace::new(epoch, false);
        assert_eq!(off.span("repo.comment", 1, None, || 7), 7);
        assert!(off.spans().is_empty());
    }
}
