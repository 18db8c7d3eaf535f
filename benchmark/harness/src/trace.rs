//! In-memory span recorder.
//!
//! A span is one call into a layer: its name, start and end (nanoseconds
//! since the recorder was created), the span open around it when it began
//! (its parent), the job or unit it worked for, and optional counts
//! measured at the same boundary. Spans stay in memory until the run ends
//! and are then written out as one JSON document for `run.py`.

use sa_bench::jobs::write_atomic_bytes;
use sa_model::json::JsonValue;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    id: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    counts: Vec<(&'static str, f64)>,
}

/// Records nested spans on one thread.
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

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for job or unit `id` and returns
    /// the span's index (for [`Tracer::count`]) with `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, id: &str, f: impl FnOnce() -> T) -> (usize, T) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f();
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        (idx, out)
    }

    /// The duration of span `idx`, in nanoseconds.
    pub fn duration_ns(&self, idx: usize) -> u64 {
        self.spans[idx].end_ns - self.spans[idx].start_ns
    }

    /// Attaches a count measured at span `idx`'s boundary.
    pub fn count(&mut self, idx: usize, key: &'static str, value: f64) {
        self.spans[idx].counts.push((key, value));
    }

    /// The spans as a JSON array, in start order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .map(|s| {
                    JsonValue::object([
                        ("name".to_string(), JsonValue::String(s.name.to_string())),
                        ("id".to_string(), JsonValue::String(s.id.clone())),
                        ("start_ns".to_string(), JsonValue::Number(s.start_ns as f64)),
                        ("end_ns".to_string(), JsonValue::Number(s.end_ns as f64)),
                        (
                            "parent".to_string(),
                            s.parent
                                .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                        ),
                        (
                            "counts".to_string(),
                            JsonValue::object(
                                s.counts
                                    .iter()
                                    .map(|(k, v)| (k.to_string(), JsonValue::Number(*v))),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// `jobs::write_atomic_bytes` inside an `io.write` span for job or unit
/// `id` that counts the bytes written.
pub fn write(tracer: &mut Tracer, id: &str, path: &Path, bytes: &[u8]) -> Result<(), String> {
    let (idx, written) = tracer.span("io.write", id, || write_atomic_bytes(path, bytes));
    tracer.count(idx, "bytes", bytes.len() as f64);
    written
}

/// A process's peak resident set (`VmHWM` in `/proc/<pid>/status`; `pid`
/// "self" for this process), in bytes.
pub fn vm_hwm_bytes(pid: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<u64>()
                        .ok()
                })
        })
        .map_or(0, |kb| kb * 1024)
}
