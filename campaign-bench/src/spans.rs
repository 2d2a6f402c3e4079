//! In-memory spans recorded by the benchmark around its calls into the
//! program. Nothing here runs inside the program: a span starts before
//! a public call and ends after it returns. Spans stay in memory and are
//! written once, when the traced run ends.

use crate::stats;
use alfi::serde::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: a name, its interval in nanoseconds since the
/// tracer started, the span that caused it, and the sampled row it
/// belongs to (shared by every span of one replayed row).
#[derive(Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub row: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder. A disabled tracer runs the closures and records
/// nothing, so untraced runs share the code path at the cost of one
/// branch per step.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let row = self.open.last().and_then(|&p| self.spans[p].row);
        self.record(name, row, f)
    }

    /// Runs `f` inside a span that opens sampled row `row`; every span
    /// nested in it carries the same row id.
    pub fn row_span<R>(
        &mut self,
        name: &'static str,
        row: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.record(name, Some(row), f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        row: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            name,
            parent,
            row,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&children) {
            *out.entry(s.name).or_insert(0) += stats::self_time(s.start_ns, s.end_ns, kids);
        }
        out
    }

    /// The spans, the self time per name and the per-name duration
    /// statistics (milliseconds) as one JSON document.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let ms = |ns: u64| Json::Float(ns as f64 / 1e6);
        let self_times = self.self_time_by_name();
        let durations = self_times
            .keys()
            .map(|name| {
                let d = self.durations_ms(name);
                let mut stat = vec![
                    ("n".to_string(), Json::Int(d.len() as i128)),
                    (
                        "median".to_string(),
                        Json::Float(stats::median(&d).unwrap_or(0.0)),
                    ),
                ];
                if let Some((p, v)) = stats::high_percentile(&d) {
                    stat.push((format!("p{p}"), Json::Float(v)));
                }
                (name.to_string(), Json::Obj(stat))
            })
            .collect();
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v.into()));
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("id".into(), Json::Int(s.id as i128)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("parent".into(), opt(s.parent.map(|p| p as u64))),
                    ("row".into(), opt(s.row)),
                    ("start_ns".into(), Json::Int(s.start_ns.into())),
                    ("end_ns".into(), Json::Int(s.end_ns.into())),
                ])
            })
            .collect();
        let mut doc: Vec<(String, Json)> = header
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
            .collect();
        doc.push((
            "self_time_ms".into(),
            Json::Obj(
                self_times
                    .iter()
                    .map(|(k, ns)| (k.to_string(), ms(*ns)))
                    .collect(),
            ),
        ));
        doc.push(("duration_ms".into(), Json::Obj(durations)));
        doc.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(doc).compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_parents_and_share_row_ids() {
        let mut t = Tracer::new(true);
        t.row_span("row", 7, |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| ()));
        });
        t.span("d", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), Some(2), None]
        );
        assert_eq!(
            s.iter().map(|s| s.row).collect::<Vec<_>>(),
            [Some(7), Some(7), Some(7), Some(7), None]
        );
        assert!(s.iter().all(|s| s.start_ns <= s.end_ns));
        let total: u64 = t.self_time_by_name().values().sum();
        assert_eq!(
            total,
            (s[0].end_ns - s[0].start_ns) + (s[4].end_ns - s[4].start_ns)
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", |t| t.span("b", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
