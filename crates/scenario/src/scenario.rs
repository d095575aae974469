//! The `Scenario` trait and the per-run metric record.

use std::fmt;

use karyon_sim::{Engine, SimTime};
use karyon_telemetry::{trace, AttrValue};

use crate::grid::ParamGrid;
use crate::spec::ScenarioSpec;

/// The named metrics produced by one scenario run.
///
/// Metrics are flat `name → f64` pairs so the campaign runner can aggregate
/// any scenario family without knowing its result type; booleans are encoded
/// as 0/1 (their mean over a sweep is then a rate).  Enumeration
/// ([`RunRecord::metrics`]) is in sorted-name order, so report layout and
/// JSON output are deterministic.
///
/// The record is compact because the campaign runner holds thousands of
/// them in flight: all names share one string buffer, and the metrics are
/// one vector of `(name span, value)` slots kept sorted by name.  A record
/// therefore owns two allocations however many metrics it has, and
/// overwriting a metric allocates nothing.
#[derive(Clone, Default)]
pub struct RunRecord {
    /// Every metric name, concatenated in first-set order.
    names: String,
    /// One slot per metric, sorted by name.
    slots: Vec<Slot>,
    /// Past-time schedules clamped by the simulation engine during this run
    /// (see `karyon_sim::Engine::clamped_schedules`).  A non-zero value marks
    /// the run as causality-suspect in the campaign report.
    pub clamped_schedules: u64,
}

/// One metric of a [`RunRecord`]: its name as a byte range of the record's
/// name buffer, and its value.
#[derive(Debug, Clone, Copy)]
struct Slot {
    start: u32,
    end: u32,
    value: f64,
}

impl Slot {
    fn name<'a>(&self, names: &'a str) -> &'a str {
        &names[self.start as usize..self.end as usize]
    }
}

impl RunRecord {
    /// Creates an empty record.
    pub fn new() -> Self {
        RunRecord::default()
    }

    /// Sets one metric.  Non-finite values are stored as-is and skipped by
    /// the aggregators, which keeps a broken metric visible in a single-run
    /// record without poisoning campaign statistics.
    pub fn set(&mut self, name: &str, value: f64) {
        let names = &self.names;
        match self.slots.binary_search_by(|slot| slot.name(names).cmp(name)) {
            Ok(index) => self.slots[index].value = value,
            Err(index) => {
                let offset = |at: usize| u32::try_from(at).expect("metric names exceed 4 GiB");
                let start = offset(self.names.len());
                self.names.push_str(name);
                let end = offset(self.names.len());
                self.slots.insert(index, Slot { start, end, value });
            }
        }
    }

    /// Sets a boolean metric as 0/1 (its campaign mean is a rate).
    pub fn set_flag(&mut self, name: &str, value: bool) {
        self.set(name, if value { 1.0 } else { 0.0 });
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics().get(name)
    }

    /// All metrics as a read-only view that iterates `(name, value)` pairs
    /// in sorted-name (byte) order — the order of the JSONL `metrics`
    /// object and of the report's metric rows.
    pub fn metrics(&self) -> Metrics<'_> {
        Metrics { names: &self.names, slots: &self.slots }
    }

    /// Drops spare capacity from the record's buffers.  The campaign runner
    /// calls this before a record waits in a chunk for its turn at the
    /// canonical-order merge.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.names.shrink_to_fit();
        self.slots.shrink_to_fit();
    }

    /// Folds an engine's causality accounting into the record.
    ///
    /// Part of the Scenario-to-runner contract: every `Engine`-driven family
    /// must call this (once per engine, after the run) so the campaign can
    /// flag causality-suspect runs — otherwise a model that schedules into
    /// the past is silently clamped again, which is exactly what the counter
    /// exists to prevent.
    /// When a [trace collection scope](karyon_telemetry::trace::collect) is
    /// active (a campaign running with a trace sink attached), this also
    /// emits an `engine.run` summary span — so every engine-driven family is
    /// traceable without touching its code.
    pub fn absorb_engine_clamps<S, E>(&mut self, engine: &Engine<S, E>) {
        self.clamped_schedules += engine.clamped_schedules();
        if trace::active() {
            trace::span(
                "engine.run",
                SimTime::ZERO,
                engine.now(),
                &[
                    ("processed", AttrValue::U64(engine.processed())),
                    ("pending", AttrValue::U64(engine.pending() as u64)),
                    ("clamped", AttrValue::U64(engine.clamped_schedules())),
                ],
            );
        }
    }
}

/// Equal when the clamp counts and the `(name, value)` sequences are equal,
/// values compared as `f64` (so a NaN metric is never equal), exactly like
/// a `BTreeMap<String, f64>` of the same metrics.
impl PartialEq for RunRecord {
    fn eq(&self, other: &Self) -> bool {
        self.clamped_schedules == other.clamped_schedules
            && self.metrics().iter().eq(other.metrics().iter())
    }
}

impl fmt::Debug for RunRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunRecord")
            .field("metrics", &self.metrics())
            .field("clamped_schedules", &self.clamped_schedules)
            .finish()
    }
}

/// A read-only view of a [`RunRecord`]'s metrics, in sorted-name order.
#[derive(Clone, Copy)]
pub struct Metrics<'a> {
    names: &'a str,
    slots: &'a [Slot],
}

impl<'a> Metrics<'a> {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the record has no metrics.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Looks up one metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        let names = self.names;
        let index = self.slots.binary_search_by(|slot| slot.name(names).cmp(name)).ok()?;
        Some(self.slots[index].value)
    }

    /// `(name, value)` pairs in sorted-name order.
    pub fn iter(&self) -> MetricsIter<'a> {
        MetricsIter { names: self.names, slots: self.slots.iter() }
    }

    /// Metric names in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &'a str> + 'a {
        self.iter().map(|(name, _)| name)
    }
}

impl<'a> IntoIterator for Metrics<'a> {
    type Item = (&'a str, f64);
    type IntoIter = MetricsIter<'a>;

    fn into_iter(self) -> MetricsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Metrics<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Iterator over a [`RunRecord`]'s `(name, value)` pairs, in sorted-name
/// order (see [`RunRecord::metrics`]).
pub struct MetricsIter<'a> {
    names: &'a str,
    slots: std::slice::Iter<'a, Slot>,
}

impl<'a> Iterator for MetricsIter<'a> {
    type Item = (&'a str, f64);

    fn next(&mut self) -> Option<(&'a str, f64)> {
        self.slots.next().map(|slot| (slot.name(self.names), slot.value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

/// A named scenario family: anything that can turn a [`ScenarioSpec`] into a
/// [`RunRecord`].
///
/// Implementations must be deterministic — the same spec (including its seed)
/// must produce the same record — and `Send + Sync`, because the campaign
/// runner executes runs on worker threads.  Families that drive a
/// `karyon_sim::Engine` must fold its clamp counter into the record via
/// [`RunRecord::absorb_engine_clamps`] so campaigns can flag
/// causality-suspect runs.
pub trait Scenario: Send + Sync {
    /// The family name this scenario registers under.
    fn name(&self) -> &str;

    /// Runs one instance described by `spec` and returns its metrics.
    fn run(&self, spec: &ScenarioSpec) -> RunRecord;

    /// The pre-agreed `(lo, hi)` aggregation range of a metric, if the family
    /// declares one.
    ///
    /// With a declared range, campaign quantiles for the metric stream
    /// through a fixed-bucket histogram from the first sample — O(1) memory
    /// per (point, metric) no matter how many runs — at the cost of
    /// one-bucket quantile resolution even for small sweeps.  Without one,
    /// quantiles are exact up to
    /// [`QUANTILE_EXACT_LIMIT`](crate::report::QUANTILE_EXACT_LIMIT) samples
    /// and switch to a range derived from that prefix beyond it.  Declare
    /// ranges for continuous metrics with known scales (latencies, delays,
    /// ratios measured against a bound); leave 0/1 flag metrics undeclared so
    /// small sweeps report only values that actually occurred.
    ///
    /// The declaration must be a pure function of the metric name — the
    /// bounded-memory merge relies on every chunk agreeing on it.
    fn metric_range(&self, metric: &str) -> Option<(f64, f64)> {
        let _ = metric;
        None
    }

    /// The family's parameter domain: one grid axis per recognised parameter,
    /// sweeping a representative set of values with the **first value of each
    /// axis being the parameter's default**.
    ///
    /// This is the machine-readable contract behind
    /// `karyon-campaign list-families --output json`, the registry coverage
    /// tests, and [`Scenario::default_spec`].  A family with no parameters
    /// returns the empty grid.  Like [`Scenario::metric_range`], the
    /// declaration must be pure (constant per family).
    fn param_domain(&self) -> ParamGrid {
        ParamGrid::new()
    }

    /// True when this family drives a `karyon_sim::Engine` and therefore
    /// participates in the clamp audit: the registry-wide guard test asserts
    /// that every engine-driven builtin reports zero causality-suspect runs
    /// on its default spec, so a family that schedules into the past cannot
    /// land silently.  Families that override this must also call
    /// [`RunRecord::absorb_engine_clamps`].
    fn engine_driven(&self) -> bool {
        false
    }

    /// A spec exercising this family at its defaults: every
    /// [`Scenario::param_domain`] axis pinned to its first (default) value,
    /// seed and duration as in [`ScenarioSpec::new`].
    fn default_spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.name());
        for (name, values) in self.param_domain().axes() {
            spec = spec.with(name, values[0].clone());
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_encode_as_rates() {
        let mut r = RunRecord::new();
        r.set_flag("collision", true);
        r.set_flag("hazard", false);
        r.set("gap", 1.25);
        assert_eq!(r.get("collision"), Some(1.0));
        assert_eq!(r.get("hazard"), Some(0.0));
        assert_eq!(r.get("gap"), Some(1.25));
        assert_eq!(r.metrics().len(), 3);
        assert_eq!(r.clamped_schedules, 0);
    }
}
