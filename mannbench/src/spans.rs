//! In-memory host-clock spans around the benchmark's calls into each
//! layer, written out as Chrome Trace Event JSON (Perfetto and
//! `chrome://tracing` open it).
//!
//! A disabled tracer records nothing: `span` just runs the closure, so
//! the untraced runs that give the end-to-end metrics pay no cost.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (µs since the tracer's epoch),
/// the span open around it, and the run (repetition) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub run: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags the spans recorded from now on with run id `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    pub fn run(&self) -> u64 {
        self.run
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// record this one as their parent.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.now_us();
        out
    }

    /// Total seconds spent in spans named `name` during `run`.
    pub fn total_s(&self, name: &str, run: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(|s| (s.end_us - s.start_us) * 1e-6)
            .sum()
    }

    /// Writes every span as a complete ("X") Chrome trace event; one
    /// thread row per run. Returns the bytes written.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<u64> {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_us,
                s.end_us - s.start_us,
                s.run,
                s.run,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, &out)?;
        Ok(out.len() as u64)
    }
}
