//! Execution tracing: record labelled spans of virtual time, one track
//! per simulated core. `telemetry::chrome` renders them as Chrome tracing
//! (`chrome://tracing` / Perfetto) JSON.
//!
//! Tracing is opt-in and zero-cost when disabled: the recorder is an
//! `Option` the caller owns; hot paths call [`Tracer::span`] only when
//! they hold one.

use crate::time::SimTime;

/// One recorded span of virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Track (e.g. `loc0/core3`).
    pub track: String,
    /// What ran (e.g. `task`, `lci.progress`, `bg`).
    pub label: &'static str,
    /// Span start (virtual).
    pub start: SimTime,
    /// Span end (virtual).
    pub end: SimTime,
}

/// A span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    /// Drop spans shorter than this many ns (noise filter).
    pub min_span_ns: u64,
}

impl Tracer {
    /// Create an empty tracer.
    pub fn new() -> Self {
        Tracer { spans: Vec::new(), min_span_ns: 0 }
    }

    /// Record a span on `track`.
    pub fn span(
        &mut self,
        track: impl Into<String>,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        debug_assert!(end >= start, "span must not be negative");
        if end.since(start) < self.min_span_ns {
            return;
        }
        self.spans.push(Span { track: track.into(), label, start, end });
    }

    /// Record an instantaneous (zero-length) event on `track`, bypassing
    /// the `min_span_ns` noise filter — alert/fault markers must survive
    /// any filter setting.
    pub fn instant(&mut self, track: impl Into<String>, label: &'static str, t: SimTime) {
        self.spans.push(Span { track: track.into(), label, start: t, end: t });
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Recorded spans in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total virtual time covered per label, descending.
    pub fn totals_by_label(&self) -> Vec<(&'static str, u64)> {
        let mut map = std::collections::HashMap::new();
        for s in &self.spans {
            *map.entry(s.label).or_insert(0u64) += s.end.since(s.start);
        }
        let mut v: Vec<_> = map.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut t = Tracer::new();
        t.span("loc0/core0", "task", SimTime::from_nanos(0), SimTime::from_nanos(100));
        t.span("loc0/core1", "bg", SimTime::from_nanos(50), SimTime::from_nanos(80));
        t.span("loc0/core0", "task", SimTime::from_nanos(100), SimTime::from_nanos(150));
        assert_eq!(t.len(), 3);
        let totals = t.totals_by_label();
        assert_eq!(totals[0], ("task", 150));
        assert_eq!(totals[1], ("bg", 30));
    }

    #[test]
    fn min_span_filters_noise() {
        let mut t = Tracer::new();
        t.min_span_ns = 100;
        t.span("x", "tiny", SimTime::ZERO, SimTime::from_nanos(50));
        t.span("x", "big", SimTime::ZERO, SimTime::from_nanos(500));
        assert_eq!(t.len(), 1);
        assert_eq!(t.spans()[0].label, "big");
    }

    #[test]
    fn instant_bypasses_min_span_filter() {
        let mut t = Tracer::new();
        t.min_span_ns = 100;
        t.instant("slo/lat", "alert", SimTime::from_nanos(42));
        assert_eq!(t.len(), 1);
        let s = &t.spans()[0];
        assert_eq!((s.start, s.end), (SimTime::from_nanos(42), SimTime::from_nanos(42)));
    }

    #[test]
    fn empty_tracer() {
        let t = Tracer::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
