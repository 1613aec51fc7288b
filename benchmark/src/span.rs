//! In-memory spans around the calls the benchmark makes into each
//! layer. Spans are kept in a vector while the traced run measures and
//! written out as JSON Lines when it ends; a layer's self time is its
//! span minus the part of that interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start.
    pub start_ns: u64,
    /// End (equal to `start_ns` until the span is closed).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one batch of packets.
    pub batch: u64,
}

/// Busy time of one span name, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span self times.
    pub self_ns: u64,
}

/// Span and count recorder for one single-threaded traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, child of whichever span is
    /// open, and returns what `f` returns.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        batch: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the count kept at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// Writes one JSON object per span, then one per count.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self_times(&self.spans);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id".to_string(), Json::Num(id as f64)),
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                ("self_ns".to_string(), Json::Num(self_ns[id] as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("batch".to_string(), Json::Num(s.batch as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        for (name, n) in &self.counts {
            let line = Json::obj([
                ("count".to_string(), Json::Str((*name).to_string())),
                ("value".to_string(), Json::Num(*n as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals, each clipped to the span. Children that
/// overlap one another are counted once; a child reaching outside its
/// parent only subtracts the part inside.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Sums durations and self times per span name.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = by_name.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end_ns.saturating_sub(s.start_ns);
        t.self_ns += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            batch: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_and_escaping_children_cover_their_union_inside_the_parent() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 120, 130, Some(0)), // inside a
            span("d", 190, 250, Some(0)), // leaves the parent at 200
            span("e", 50, 90, Some(0)),   // wholly before the parent
        ];
        // union inside [100, 200] = [110, 170] ∪ [190, 200] = 70
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn layer_self_times_add_up_to_the_root() {
        let mut t = Tracer::new();
        t.span("root", 1, |t| {
            t.span("x", 1, |t| t.count("items", 3));
            t.span("x", 1, |_| {});
            t.span("y", 1, |t| t.span("x", 1, |_| {}));
        });
        let times = t.layer_times();
        assert_eq!(times["x"].calls, 3);
        let root = times["root"];
        let sum: u64 = times.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, root.total_ns);
        assert_eq!(t.counts.get("items"), Some(&3));
        assert_eq!(t.spans()[3].parent, Some(0));
        assert_eq!(t.spans()[4].parent, Some(3));
    }

    #[test]
    fn jsonl_lists_every_span_and_count() {
        let mut t = Tracer::new();
        t.span("a", 7, |t| t.count("n", 2));
        let dir = crate::sys::TempDir::new().unwrap();
        let path = dir.path().join("trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(lines[0].get("batch").and_then(Json::as_f64), Some(7.0));
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("value").and_then(Json::as_f64), Some(2.0));
    }
}
