//! In-memory span recorder and the per-layer ledger derived from it.
//!
//! A span is one timed call into a layer: name, start, end, parent span
//! and op id. Spans are recorded only in traced rounds, kept in a `Vec`,
//! and written out once the run ends. A layer's self time is its spans'
//! duration minus the part covered by their child spans.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records nested spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Whether the current round is traced; when off, `open`/`close` cost
    /// one branch.
    pub on: bool,
    /// Op id stamped on every span opened from now on.
    pub op: u64,
}

/// Handle to an open span (`usize::MAX` when recording is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: false,
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn close(&mut self, span: Open) {
        if span.0 == usize::MAX {
            return;
        }
        let popped = self.open.pop();
        assert_eq!(popped, Some(span.0), "spans close in nesting order");
        self.spans[span.0].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.open(name);
        let out = f();
        self.close(s);
        out
    }

    /// Duration of a closed span, ns (0 when recording is off).
    pub fn duration_ns(&self, s: Open) -> u64 {
        self.spans.get(s.0).map_or(0, |s| s.end - s.start)
    }

    /// Σ durations of a closed span's direct children, ns.
    pub fn children_ns(&self, s: Open) -> u64 {
        if s.0 == usize::MAX {
            return 0;
        }
        self.spans[s.0 + 1..]
            .iter()
            .filter(|c| c.parent == Some(s.0))
            .map(|c| c.end - c.start)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    /// Σ span durations, ns.
    pub total_ns: u64,
    /// Σ self times (duration minus children), ns.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let d = s.end - s.start;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += d;
        t.self_ns += d.saturating_sub(child_ns[i]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("c", 55, 65, Some(2)),
        ];
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 10);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, t["op"].total_ns);
    }

    #[test]
    fn recorder_is_silent_when_off_and_nests_when_on() {
        let mut r = Recorder::new();
        r.span("off", || ());
        assert!(r.spans().is_empty());
        r.on = true;
        r.op = 7;
        let outer = r.open("op");
        r.span("inner", || ());
        r.close(outer);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].op, 7);
        assert!(r.spans()[0].end >= r.spans()[1].end);
    }
}
