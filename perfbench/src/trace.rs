//! In-memory span recorder for traced runs.
//!
//! A span records a name, its start and end (nanoseconds since the tracer
//! was created), the span that caused it, and the request or trial id it
//! belongs to. Spans are appended under a mutex (traced runs only: the
//! untraced runs that produce end-to-end metrics never touch a tracer) and
//! written out as JSON lines when the run ends. A span's self time is its
//! duration minus the union of the intervals its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call the span covers, e.g. `embeddings.verify`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The request or trial id the span belongs to.
    pub id: u64,
}

/// A recorder of spans, shared by reference across threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result. `f`
    /// receives the new span's id, to parent nested spans on.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let index = {
            let mut spans = self.spans.lock().expect("span list lock");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                id,
            });
            spans.len() - 1
        };
        let result = f(index);
        let end = self.now_ns();
        self.spans.lock().expect("span list lock")[index].end_ns = end;
        result
    }

    /// Records a span whose interval was measured elsewhere (a request
    /// timed across two threads).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Total self time per span name, in seconds, over the spans under
    /// `root` (the root included).
    pub fn self_seconds_under(&self, root: SpanId) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); spans.len()];
        for (index, span) in spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        let mut totals = BTreeMap::new();
        let mut stack = vec![root];
        while let Some(index) = stack.pop() {
            let span = &spans[index];
            let mut covered: Vec<(u64, u64)> = children[index]
                .iter()
                .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                .collect();
            covered.sort_unstable();
            // Union of the children's intervals (they overlap when the
            // children ran on several threads).
            let mut union = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            let duration = span.end_ns.saturating_sub(span.start_ns);
            *totals.entry(span.name).or_insert(0.0) += duration.saturating_sub(union) as f64 / 1e9;
            stack.extend(children[index].iter().copied());
        }
        totals
    }

    /// The duration of span `index`, in seconds.
    pub fn seconds(&self, index: SpanId) -> f64 {
        let spans = self.spans.lock().expect("span list lock");
        spans[index].end_ns.saturating_sub(spans[index].start_ns) as f64 / 1e9
    }

    /// Writes every span as one JSON line to `path`, creating its
    /// directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans().iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                span.name, span.start_ns, span.end_ns, span.id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::default();
        let root = tracer.span("root", None, 0, |root| {
            tracer.span("child", Some(root), 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            root
        });
        let totals = tracer.self_seconds_under(root);
        let sum: f64 = totals.values().sum();
        assert!((sum - tracer.seconds(root)).abs() < 1e-6);
        assert!(totals["child"] >= 0.02 && totals["root"] >= 0.01);
    }
}
