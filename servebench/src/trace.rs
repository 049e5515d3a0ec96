//! In-memory spans recorded around calls into each layer, and the self-time
//! arithmetic that attributes a request's time to its layers.

use ipsketch_serve::wire::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed interval: a layer boundary crossed on behalf of one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The request the span belongs to; spans of one request share it.
    pub request: u64,
    /// Index of the span that caused this one, in the same tracer.
    pub parent: Option<usize>,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
    /// Work done inside the span, counted where it happens (rows sketched,
    /// queries ranked, ...); its unit depends on the span's name.
    pub work: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Spans of one thread, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            work,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) finishes; for parents whose
    /// children are recorded while it is open.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, request, parent, now, now, 0)
    }

    pub fn close(&mut self, span: usize, work: u64) {
        self.spans[span].end = Instant::now().saturating_duration_since(self.origin);
        self.spans[span].work = work;
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        work: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, request, parent, start, Instant::now(), work);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (same origin), keeping parents pointing
    /// at the right spans.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = span.start;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: usize,
    pub total: Duration,
    pub self_time: Duration,
}

/// Spans grouped by name, in name order.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(selfs) {
        let row = rows.entry(span.name).or_insert(LayerRow {
            name: span.name,
            count: 0,
            total: Duration::ZERO,
            self_time: Duration::ZERO,
        });
        row.count += 1;
        row.total += span.duration();
        row.self_time += self_time;
    }
    rows.into_values().collect()
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<Duration> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Total duration and total work of the spans called `name`.
pub fn totals(spans: &[Span], name: &str) -> (Duration, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((Duration::ZERO, 0), |(d, w), s| {
            (d + s.duration(), w + s.work)
        })
}

/// The spans as JSON lines, for writing out when the run ends.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for span in spans {
        let line = Json::Obj(vec![
            ("name".to_string(), Json::str(span.name)),
            ("request".to_string(), Json::u64(span.request)),
            (
                "parent".to_string(),
                span.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
            ),
            (
                "start_ns".to_string(),
                Json::u64(span.start.as_nanos() as u64),
            ),
            ("end_ns".to_string(), Json::u64(span.end.as_nanos() as u64)),
            ("work".to_string(), Json::u64(span.work)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            work: 2,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 10),
            span("a", Some(0), 1, 3),
            span("b", Some(0), 2, 5),
            span("c", Some(0), 8, 12),
            span("leaf", Some(1), 1, 2),
        ];
        let selfs = self_times(&spans);
        // Children cover [1,5] and [8,10] of the root's [0,10].
        assert_eq!(selfs[0], Duration::from_micros(4));
        assert_eq!(selfs[1], Duration::from_micros(1));
        assert_eq!(selfs[2], Duration::from_micros(3));
        assert_eq!(selfs[3], Duration::from_micros(4));
        assert_eq!(selfs[4], Duration::from_micros(1));
        // A childless span is all self time; a span fully covered has none.
        let covered = vec![span("p", None, 0, 4), span("k", Some(0), 0, 4)];
        assert_eq!(
            self_times(&covered),
            vec![Duration::ZERO, Duration::from_micros(4)]
        );
    }

    #[test]
    fn layer_table_groups_by_name() {
        let spans = vec![
            span("replay", None, 0, 10),
            span("rank", Some(0), 0, 6),
            span("replay", None, 20, 24),
            span("rank", Some(2), 20, 22),
        ];
        let table = layer_table(&spans);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].name, "rank");
        assert_eq!(table[0].count, 2);
        assert_eq!(table[0].self_time, Duration::from_micros(8));
        assert_eq!(table[1].self_time, Duration::from_micros(6));
        assert_eq!(table[1].total, Duration::from_micros(14));
        assert_eq!(totals(&spans, "rank"), (Duration::from_micros(8), 4));
        assert_eq!(durations(&spans, "replay").len(), 2);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.open("x", 1, None);
        let mut b = Tracer::new(origin);
        let root = b.open("replay", 2, None);
        b.time("rank", 2, Some(root), 1, || ());
        b.close(root, 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].name, "replay");
        let lines = to_json_lines(a.spans());
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"parent\":1"));
    }
}
