//! Order statistics, the metric list a run prints, and span aggregation for
//! traced runs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use telemetry::{Collector, Span};

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The named measurements of one run; `main` knows each name's unit and
/// direction.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }
}

/// Aggregates the spans a traced run records, by span name. The collector's
/// ring buffer is drained after every step, so its bound never drops spans
/// between drains; the most recent spans are kept for the trace file.
pub struct SpanTally {
    pub collector: Arc<Collector>,
    by_name: BTreeMap<&'static str, Vec<f64>>,
    total: usize,
    recent: VecDeque<Span>,
}

/// Spans one step may record before the ring buffer would evict them.
const RING_CAPACITY: usize = 1 << 18;
/// Spans written to the trace file: the most recent ones.
const TRACE_SPANS: usize = 20_000;

impl SpanTally {
    pub fn new() -> Self {
        let collector = Arc::new(Collector::with_capacity(RING_CAPACITY));
        collector.set_enabled(false);
        SpanTally {
            collector,
            by_name: BTreeMap::new(),
            total: 0,
            recent: VecDeque::new(),
        }
    }

    /// Moves every completed span into the tally.
    pub fn drain(&mut self) {
        let spans = self.collector.drain_spans();
        assert!(
            spans.len() < RING_CAPACITY,
            "a traced step overflowed the span ring buffer"
        );
        self.total += spans.len();
        for span in spans {
            self.by_name
                .entry(span.name)
                .or_default()
                .push(span.duration_micros as f64 / 1e3);
            if self.recent.len() == TRACE_SPANS {
                self.recent.pop_front();
            }
            self.recent.push_back(span);
        }
    }

    /// Every span recorded so far.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Summed duration in ms of every span called `name`.
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |d| d.iter().sum())
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    /// The most recent spans, as Chrome Trace Event JSON.
    pub fn trace_json(&self) -> String {
        let spans: Vec<Span> = self.recent.iter().cloned().collect();
        telemetry::export::trace_json(&spans)
    }
}
