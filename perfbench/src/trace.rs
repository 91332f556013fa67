//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is opened before a call into a layer's public function and
//! closed after it returns. Spans of one end-to-end operation share a
//! request id; the operation's own span (named `op.*`) is the root.
//! Where a layer runs on a server thread the benchmark cannot reach
//! (the socket server's `handle_frame`), the same payload is replayed
//! directly on a twin system holding identical state, and the replayed
//! span is attributed to the span that carried the original call. Self
//! time is therefore a span's duration minus the durations of its
//! children; a negative self time means the replay ran slower than the
//! call it stands for, and is reported as such.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    request: u64,
}

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Per span name: calls, total and self time, and whether the spans
/// belong to an end-to-end operation (have an `op.*` root).
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: f64,
    pub self_ns: f64,
    pub in_op: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Duration of one recorded span, in seconds (0 when disabled).
    pub fn seconds(&self, id: SpanId) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self time per span name: duration minus the children's durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        // A parent is always opened before its children, so roots
        // resolve in one forward pass.
        let mut root: Vec<SpanId> = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => {
                    child_ns[p] += (s.end_ns - s.start_ns) as f64;
                    root.push(root[p]);
                }
                None => root.push(id),
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for ((s, children), r) in self.spans.iter().zip(child_ns).zip(root) {
            let total = (s.end_ns - s.start_ns) as f64;
            let e = table.entry(s.name).or_insert(SelfTime {
                calls: 0,
                total_ns: 0.0,
                self_ns: 0.0,
                in_op: self.spans[r].name.starts_with("op."),
            });
            e.calls += 1;
            e.total_ns += total;
            e.self_ns += total - children;
        }
        table
    }

    /// Share of the `op.*` root spans' time covered by layer spans:
    /// `1 − Σ root self time / Σ root time`.
    pub fn coverage(&self) -> f64 {
        let table = self.self_times();
        let (mut total, mut residue) = (0.0, 0.0);
        for (name, t) in &table {
            if name.starts_with("op.") {
                total += t.total_ns;
                residue += t.self_ns;
            }
        }
        if total == 0.0 {
            0.0
        } else {
            1.0 - residue / total
        }
    }

    /// The self-time table as text: one row per span name; rows inside
    /// an operation show their self time as a share of all `op.*` time
    /// (the shares add up to 100 %).
    pub fn self_time_table(&self, workload: &str) -> String {
        let table = self.self_times();
        let root_ns: f64 = table
            .iter()
            .filter(|(n, _)| n.starts_with("op."))
            .map(|(_, t)| t.total_ns)
            .sum();
        let mut out = format!(
            "# self time per span, workload {workload}\n{:<28} {:>9} {:>12} {:>12} {:>12} {:>8}\n",
            "span", "calls", "total_ms", "self_ms", "self_us/call", "share"
        );
        for (name, t) in &table {
            let share = if root_ns > 0.0 && t.in_op {
                format!("{:.1}%", 100.0 * t.self_ns / root_ns)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{name:<28} {:>9} {:>12.3} {:>12.3} {:>12.3} {share:>8}",
                t.calls,
                t.total_ns * 1e-6,
                t.self_ns * 1e-6,
                t.self_ns * 1e-3 / t.calls as f64,
            );
        }
        let _ = writeln!(out, "coverage {:.4}", self.coverage());
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
