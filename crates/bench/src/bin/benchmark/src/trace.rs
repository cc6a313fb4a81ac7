//! In-memory spans, written out as JSON lines when the run ends.
//!
//! Each span has a name, start and end (microseconds since the log was
//! created), its own id, the id of the span that caused it (0 for a
//! root) and the id of the request it belongs to (the root span's id; 0
//! for work not tied to one request). Threads record into their own
//! [`SpanSink`] and merge it into the [`SpanLog`] when they finish, so
//! recording takes no lock.

use sesr_serve::json::JsonObject;
use std::borrow::Cow;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Debug)]
pub struct SpanLog {
    base: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(base: Instant) -> Self {
        Self {
            base,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (never 0).
    pub fn next_id(&self) -> u64 {
        // Relaxed: the counter only has to hand out distinct values.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn sink(&self) -> SpanSink<'_> {
        SpanSink {
            log: self,
            spans: Vec::new(),
        }
    }

    pub fn merge(&self, sink: Option<SpanSink<'_>>) {
        if let Some(sink) = sink {
            self.spans
                .lock()
                .expect("no thread panics while holding the span log")
                .extend(sink.spans);
        }
    }

    fn micros(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.base).as_secs_f64() * 1e6
    }

    /// Writes every span as one JSON object per line, ordered by start.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span log")
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &spans {
            let line = JsonObject::new()
                .str("name", &s.name)
                .int("id", s.id)
                .int("parent", s.parent)
                .int("request", s.request)
                .num("start_us", self.micros(s.start))
                .num("end_us", self.micros(s.end))
                .finish();
            writeln!(out, "{line}").map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// One thread's span buffer.
pub struct SpanSink<'a> {
    log: &'a SpanLog,
    spans: Vec<Span>,
}

impl SpanSink<'_> {
    /// Records a span with a fresh id under `parent` and returns the id.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
        parent: u64,
        request: u64,
    ) -> u64 {
        let id = self.log.next_id();
        self.push(name.into(), id, parent, request, start, end);
        id
    }

    /// Reserves an id for a span recorded later, after its children.
    pub fn reserve(&self) -> u64 {
        self.log.next_id()
    }

    /// Records the root span of a request whose id was reserved earlier.
    pub fn record_root(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        self.push(Cow::Borrowed(name), id, 0, id, start, end);
    }

    fn push(
        &mut self,
        name: Cow<'static, str>,
        id: u64,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start,
            end,
        });
    }
}
