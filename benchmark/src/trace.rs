//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into each layer from the benchmark's
//! own code, kept in memory, and summarised when the run ends. A disabled
//! tracer records nothing, so the untraced runs pay one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dataplane.replay`.
    pub name: &'static str,
    /// The epoch this span belongs to (`None` for set-up work).
    pub epoch: Option<u64>,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Offset from the tracer's origin.
    pub start: Duration,
    /// Offset from the tracer's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time covered, in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span starting now; `None` when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        epoch: Option<u64>,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            epoch,
            parent,
            start: now,
            end: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        epoch: Option<u64>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, epoch, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Records a child of `parent` that is known only by its duration
    /// (a counter delta of the program under test), laid out at
    /// `offset` after the parent's start.
    pub fn child_from_duration(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        offset: Duration,
        length: Duration,
    ) {
        let Some(p) = parent else {
            return;
        };
        let (start, epoch) = (self.spans[p].start + offset, self.spans[p].epoch);
        self.spans.push(Span {
            name,
            epoch,
            parent,
            start,
            end: start + length,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time (ms) of span `id`: its duration minus the part of it
    /// that its children cover.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let me = &self.spans[id];
        let children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(me.start), s.end.min(me.end)))
            .filter(|(a, b)| a < b)
            .collect();
        me.ms() - covered(children).as_secs_f64() * 1e3
    }

    /// Every span as one JSON line: name, epoch, parent, start and end
    /// (µs since the tracer was made) and self time (µs).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"name\":\"{}\",\"epoch\":{},\"parent\":{},\
                 \"start_us\":{},\"end_us\":{},\"self_us\":{:.1}}}",
                span.name,
                opt(span.epoch),
                opt(span.parent.map(|p| p as u64)),
                span.start.as_micros(),
                span.end.as_micros(),
                self.self_ms(id) * 1e3,
            );
        }
        s
    }

    /// Summed duration and self time per span name, for the trace dump.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += self.self_ms(id);
        }
        out
    }

    /// For each span named `epoch_name`, the share of its wall time that
    /// its direct children cover. The smallest share is the figure the
    /// benchmark checks against its coverage floor.
    pub fn child_coverage(&self, epoch_name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == epoch_name)
            .map(|(id, s)| {
                let total = s.ms();
                if total <= 0.0 {
                    1.0
                } else {
                    (total - self.self_ms(id)) / total
                }
            })
            .collect()
    }
}

/// Length of the union of `intervals`.
fn covered(mut intervals: Vec<(Duration, Duration)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, parent: Option<SpanId>, a: u64, b: u64) -> Span {
        Span {
            name,
            epoch: Some(0),
            parent,
            start: ms(a),
            end: ms(b),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("epoch", None, 0, 100),
            span("replay", Some(0), 0, 40),
            span("run_epoch", Some(0), 30, 90), // overlaps replay by 10
            span("solve", Some(2), 50, 60),
        ];
        assert!((t.self_ms(0) - 10.0).abs() < 1e-9);
        assert!((t.self_ms(2) - 50.0).abs() < 1e-9);
        let cov = t.child_coverage("epoch");
        assert_eq!(cov.len(), 1);
        assert!((cov[0] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(true);
        t.spans = vec![span("epoch", None, 0, 10), span("replay", Some(0), 2, 5)];
        let out = t.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"id\":1,\"name\":\"replay\",\"epoch\":0,\"parent\":0,\
             \"start_us\":2000,\"end_us\":5000,\"self_us\":3000.0}"
        );
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"self_us\":7000.0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", None, None, || 7);
        assert_eq!(v, 7);
        let id = t.open("y", Some(1), None);
        t.close(id);
        t.child_from_duration("z", id, Duration::ZERO, ms(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn duration_children_sit_inside_their_parent() {
        let mut t = Tracer::new(true);
        t.spans = vec![span("run_epoch", None, 10, 30)];
        t.child_from_duration("collect", Some(0), ms(0), ms(5));
        t.child_from_duration("solve", Some(0), ms(5), ms(10));
        assert_eq!(t.spans()[1].start, ms(10));
        assert_eq!(t.spans()[2].end, ms(25));
        assert!((t.self_ms(0) - 5.0).abs() < 1e-9);
        let s = t.summary();
        assert_eq!(s["collect"].0, 1);
        assert!((s["run_epoch"].1 - 20.0).abs() < 1e-9);
    }
}
