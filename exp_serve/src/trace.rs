//! Spans around the calls the replay makes into each layer.
//!
//! A span records a name, its request id, its parent span, and start and
//! end times on one monotonic clock. Spans stay in memory and are written
//! out as JSON lines when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request this span belongs to (shared by all its spans).
    pub req: u32,
    /// Index of the enclosing span; `None` for a request's root span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; a plain function call when off, so the same
/// replay code measures the tracing overhead by running both ways.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for request `req`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        // Stamp after the bookkeeping so the span times only the call.
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_ns.max(s.start_ns),
                        spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (a, b) in intervals {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Index of each span's root ancestor (a parent always precedes its
/// children in recording order).
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let r = s.parent.map_or(i, |p| root[p]);
        root.push(r);
    }
    root
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// For root spans named `root`: the share of their total time that each
/// of `layers` spends in its own code (self time of the layer's spans
/// below those roots).
pub fn self_shares(spans: &[Span], root: &str, layers: &[&str]) -> Vec<f64> {
    let own = self_times(spans);
    let root_of = roots(spans);
    let total: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(Span::dur_ns)
        .sum();
    layers
        .iter()
        .map(|layer| {
            let t: u64 = spans
                .iter()
                .enumerate()
                .filter(|(i, s)| {
                    s.name == *layer && s.parent.is_some() && spans[root_of[*i]].name == root
                })
                .map(|(i, _)| own[i])
                .sum();
            if total == 0 {
                0.0
            } else {
                t as f64 / total as f64
            }
        })
        .collect()
}

/// Writes the spans as JSON lines, one span per line with its self time,
/// creating the file's directory if needed.
pub fn write_jsonl(spans: &[Span], path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let own = self_times(spans);
    let mut text = String::new();
    for (i, (s, self_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        // Writing into a String cannot fail.
        let _ = writeln!(
            text,
            "{{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
            s.name, s.req, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 40), // overlaps a: [10, 40] counts once
            span("c", Some(0), 90, 120), // clipped to the parent's end
            span("a.inner", Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn shares_are_relative_to_the_named_roots() {
        let spans = vec![
            span("predict", None, 0, 100),
            span("search", Some(0), 0, 80),
            span("generate", Some(0), 80, 90),
            span("ingest", None, 100, 200),
            span("search", Some(3), 100, 200), // under another root: ignored
        ];
        let shares = self_shares(&spans, "predict", &["search", "generate", "position"]);
        assert_eq!(shares, vec![0.8, 0.1, 0.0]);
        assert_eq!(durations(&spans, "search"), vec![80.0, 100.0]);
        assert_eq!(self_shares(&spans, "query", &["search"]), vec![0.0]);
    }

    #[test]
    fn tracer_nests_spans_and_is_inert_when_off() {
        let mut on = Tracer::new(true);
        let v = on.span("root", 7, |t| t.span("child", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = on.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("root", 0, |_| 5), 5);
        assert!(off.into_spans().is_empty());
    }
}
