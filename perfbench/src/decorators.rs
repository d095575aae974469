//! Timing decorators for the traced run: a [`Scenario`] wrapper that spans
//! every run of a family, and [`RunSink`] / [`TraceSink`] wrappers that time
//! the campaign's artifact writers.
//!
//! Each decorator forwards every call unchanged, so a decorated campaign
//! writes the same report, JSONL and trace bytes as an undecorated one (the
//! output check compares them on every traced session).

use std::io;
use std::sync::Arc;

use karyon_scenario::{
    ParamGrid, RunMeta, RunRecord, RunSink, Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon_telemetry::trace::{RunCoords, TraceRecord};
use karyon_telemetry::TraceSink;

use crate::spans::SpanRecorder;

/// One artifact-writer call in this many is kept as a span; the counters
/// keep exact totals of all of them.  Artifact writes cost about a
/// microsecond, so spanning each would make clock reads a visible share.
pub const WRITER_SPAN_STRIDE: u64 = 16;

/// The span name of a family's runs.
pub fn family_span(family: &str) -> String {
    format!("family.{family}")
}

/// A [`Scenario`] that spans every run of the family it wraps.
pub struct TimedScenario {
    inner: Arc<dyn Scenario>,
    spans: Arc<SpanRecorder>,
    name: u32,
}

impl TimedScenario {
    /// Wraps `inner`, recording its runs as `family.<name>` spans.
    pub fn new(inner: Arc<dyn Scenario>, spans: Arc<SpanRecorder>) -> Self {
        let name = spans.name_id(&family_span(inner.name()));
        TimedScenario { inner, spans, name }
    }
}

impl Scenario for TimedScenario {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        let start = self.spans.now_ns();
        let record = self.inner.run(spec);
        self.spans.record(self.name, self.spans.parent(), start, self.spans.now_ns());
        record
    }

    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        self.inner.metric_range(metric)
    }

    fn param_domain(&self) -> ParamGrid {
        self.inner.param_domain()
    }

    fn engine_driven(&self) -> bool {
        self.inner.engine_driven()
    }

    fn default_spec(&self) -> ScenarioSpec {
        self.inner.default_spec()
    }
}

/// A registry holding every family of `base`, each wrapped in a
/// [`TimedScenario`].
pub fn timed_registry(base: &ScenarioRegistry, spans: &Arc<SpanRecorder>) -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    for name in base.names() {
        let family = Arc::clone(base.get(&name).expect("name listed by the registry"));
        registry.register(Arc::new(TimedScenario::new(family, Arc::clone(spans))));
    }
    registry
}

/// Exact call totals of one writer, published to the recorder's counters
/// as `<prefix>.calls`, `<prefix>.ns`, `<prefix>.records` on every flush.
struct WriterTotals {
    prefix: &'static str,
    call_span: u32,
    flush_span: u32,
    calls: u64,
    ns: u64,
    records: u64,
}

impl WriterTotals {
    fn new(prefix: &'static str, spans: &SpanRecorder) -> Self {
        WriterTotals {
            prefix,
            call_span: spans.name_id(&format!("{prefix}.write")),
            flush_span: spans.name_id(&format!("{prefix}.flush")),
            calls: 0,
            ns: 0,
            records: 0,
        }
    }

    fn timed_call(&mut self, spans: &SpanRecorder, records: u64, call: impl FnOnce()) {
        let start = spans.now_ns();
        call();
        let end = spans.now_ns();
        if self.calls.is_multiple_of(WRITER_SPAN_STRIDE) {
            spans.record(self.call_span, spans.parent(), start, end);
        }
        self.calls += 1;
        self.ns += (end - start).saturating_sub(spans.clock_ns());
        self.records += records;
    }

    fn timed_flush(
        &mut self,
        spans: &SpanRecorder,
        flush: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        let start = spans.now_ns();
        let result = flush();
        let end = spans.now_ns();
        spans.record(self.flush_span, spans.parent(), start, end);
        let prefix = self.prefix;
        spans.add(&format!("{prefix}.calls"), std::mem::take(&mut self.calls));
        let flushed = (end - start).saturating_sub(spans.clock_ns());
        spans.add(&format!("{prefix}.ns"), std::mem::take(&mut self.ns) + flushed);
        spans.add(&format!("{prefix}.records"), std::mem::take(&mut self.records));
        result
    }
}

/// A [`RunSink`] that times the sink it wraps (counters under `sink.*`).
pub struct TimedRunSink<S> {
    inner: S,
    spans: Arc<SpanRecorder>,
    totals: WriterTotals,
}

impl<S: RunSink> TimedRunSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, spans: Arc<SpanRecorder>) -> Self {
        let totals = WriterTotals::new("sink", &spans);
        TimedRunSink { inner, spans, totals }
    }
}

impl<S: RunSink> RunSink for TimedRunSink<S> {
    fn on_run(&mut self, meta: &RunMeta<'_>, record: &RunRecord) {
        let inner = &mut self.inner;
        self.totals.timed_call(&self.spans, 1, || inner.on_run(meta, record));
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.totals.timed_flush(&self.spans, || inner.flush())
    }
}

/// A [`TraceSink`] that times the trace writer it wraps (counters under
/// `trace.*`, including the number of trace records written).
pub struct TimedTraceSink<T> {
    inner: T,
    spans: Arc<SpanRecorder>,
    totals: WriterTotals,
}

impl<T: TraceSink> TimedTraceSink<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, spans: Arc<SpanRecorder>) -> Self {
        let totals = WriterTotals::new("trace", &spans);
        TimedTraceSink { inner, spans, totals }
    }
}

impl<T: TraceSink> TraceSink for TimedTraceSink<T> {
    fn on_run_records(&mut self, coords: &RunCoords, records: &[TraceRecord]) {
        let inner = &mut self.inner;
        let count = records.len() as u64;
        self.totals.timed_call(&self.spans, count, || inner.on_run_records(coords, records));
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.totals.timed_flush(&self.spans, || inner.flush())
    }
}
