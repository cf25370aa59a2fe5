//! In-memory host spans for the traced run, written out once at the end
//! as Chrome trace-event JSON (opens in Perfetto / `chrome://tracing`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: name, start and end relative to the tracer's origin,
/// the enclosing span and the cell (one algorithm in one pass) it ran for.
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub cell: Option<u32>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span. `cell` tags the span; `None` inherits the
    /// enclosing span's cell. Returns `f`'s result and the span's index.
    pub fn span<R>(
        &mut self,
        name: &str,
        cell: Option<u32>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, usize) {
        let parent = self.open.last().copied();
        let cell = cell.or_else(|| parent.and_then(|p| self.spans[p].cell));
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent,
            cell,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        (out, id)
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, all on one thread, since the benchmark runs cells serially.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = s.cell.map_or("null".to_string(), |c| c.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"cell\":{cell}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}
