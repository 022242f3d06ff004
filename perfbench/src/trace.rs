//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end, parent span and request id
//! (plus the KB entry it ran for, where there is one). Spans stay in
//! memory while the run measures and are written out once at the end.
//! A span's self time is its duration minus the time its child spans
//! cover; children of one span never overlap (the traced run is
//! single-threaded).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub entry: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// Self time in seconds, keyed by `(span name, KB entry)`.
pub type SelfTimes = BTreeMap<(&'static str, Option<usize>), f64>;

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Start a new request: later spans carry `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_for(name, None, f)
    }

    /// Run `f` inside a span named `name` attributed to KB entry `entry`.
    pub fn span_entry<T>(
        &mut self,
        name: &'static str,
        entry: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_for(name, Some(entry), f)
    }

    fn span_for<T>(
        &mut self,
        name: &'static str,
        entry: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            entry,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Self time of every span, summed by `(name, entry)`.
    pub fn self_times(&self) -> SelfTimes {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = SelfTimes::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry((span.name, span.entry)).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let entry = s.entry.map_or("null".to_string(), |e| e.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": {:?}, \"entry\": {entry}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Sum of the self times of `name` over all entries.
pub fn total(times: &SelfTimes, name: &str) -> f64 {
    times
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, t)| t)
        .sum()
}

/// Self time of `name` for one KB entry.
pub fn for_entry(times: &SelfTimes, name: &'static str, entry: usize) -> f64 {
    times.get(&(name, Some(entry))).copied().unwrap_or(0.0)
}

/// Where a traced run writes its spans (kept after the run).
pub fn path(args: &crate::Args) -> PathBuf {
    Path::new(".perfbench")
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed))
}
