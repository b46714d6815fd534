//! The traced run's span recorder: spans are opened and closed by the
//! benchmark around its calls into each layer's public functions, kept
//! in memory, and written out as JSON lines when the run ends.

use crate::report::{obj, percentile, render, sorted, text, Json};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request (incident, query or plane run) the span belongs to.
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// Per-layer aggregate of a recording.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    /// Span durations, microseconds, ascending.
    pub durations_us: Vec<f64>,
    /// Total self time (duration minus time covered by child spans), ns.
    pub self_ns: u64,
}

impl LayerStats {
    pub fn p(&self, q: f64) -> f64 {
        percentile(&self.durations_us, q)
    }

    pub fn mean_us(&self) -> f64 {
        if self.durations_us.is_empty() {
            return 0.0;
        }
        self.durations_us.iter().sum::<f64>() / self.durations_us.len() as f64
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `body` inside a span named `name`; spans opened inside
    /// `body` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = body(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations and self times per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let layer = out.entry(s.name).or_default();
            layer.durations_us.push(s.nanos() as f64 / 1e3);
            layer.self_ns += s.nanos().saturating_sub(*covered);
        }
        for layer in out.values_mut() {
            layer.durations_us = sorted(std::mem::take(&mut layer.durations_us));
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let line = obj([
                ("name", text(s.name)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("request", Json::U64(s.request)),
            ]);
            writeln!(out, "{}", render(&line))?;
        }
        out.flush()
    }
}
