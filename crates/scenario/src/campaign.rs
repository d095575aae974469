//! The campaign runner: grid × seed-sweep expansion and parallel chunked
//! execution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use karyon_sim::{splitmix64, SimDuration};
use karyon_telemetry::{trace, RunCoords, TraceRecord};

use crate::aggregate::{CampaignAccumulator, ChunkPartial, DEFAULT_CHUNK_SIZE};
use crate::checkpoint::{self, Checkpointer};
use crate::fault::FaultInjector;
use crate::grid::ParamGrid;
use crate::json::JsonValue;
use crate::recovery::WallClockBackoff;
use crate::registry::ScenarioRegistry;
use crate::report::{CampaignReport, PointReport};
use crate::scenario::{RunRecord, Scenario};
use crate::sink::{RunMeta, RunSink};
use crate::spec::{ParamValue, ScenarioSpec};
use crate::telemetry::CampaignTelemetry;

/// Derives the RNG seed of one run from the campaign seed and the run's
/// canonical coordinates (global parameter-point index, replication index).
///
/// The derivation depends only on those coordinates — never on thread
/// identity or execution order — which is what makes campaign results
/// reproducible regardless of the worker count.  Two splitmix64 rounds over
/// the mixed-in coordinates give well-separated streams even for adjacent
/// points and replications.
pub fn derive_run_seed(campaign_seed: u64, point: u64, replication: u64) -> u64 {
    let mut state = campaign_seed ^ point.wrapping_mul(0xA076_1D64_78BD_642F);
    let first = splitmix64(&mut state);
    let mut state = first ^ replication.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    splitmix64(&mut state)
}

/// One scenario family's slice of a campaign: the family name, the parameter
/// grid to expand and the Monte-Carlo seed sweep per parameter point.
#[derive(Debug, Clone)]
pub struct CampaignEntry {
    scenario: String,
    grid: ParamGrid,
    replications: u64,
    duration: Option<SimDuration>,
}

impl CampaignEntry {
    /// Creates an entry for the named scenario family with an empty grid and
    /// a single replication.
    pub fn new(scenario: &str) -> Self {
        CampaignEntry {
            scenario: scenario.to_string(),
            grid: ParamGrid::new(),
            replications: 1,
            duration: None,
        }
    }

    /// Sets the parameter grid.
    pub fn grid(mut self, grid: ParamGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the number of Monte-Carlo replications (distinct derived seeds)
    /// per parameter point.
    ///
    /// # Panics
    /// Panics if `replications` is zero.
    pub fn replications(mut self, replications: u64) -> Self {
        assert!(replications > 0, "a campaign entry needs at least one replication");
        self.replications = replications;
        self
    }

    /// Overrides the simulated duration of every run of this entry.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Overrides the simulated duration in whole seconds.
    pub fn duration_secs(self, secs: u64) -> Self {
        self.duration(SimDuration::from_secs(secs))
    }

    /// Number of runs this entry contributes.
    pub fn run_count(&self) -> u64 {
        self.grid.len() as u64 * self.replications
    }

    /// The scenario family this entry sweeps.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Builds an entry from one member of a campaign spec file's `entries`
    /// array: `{"scenario": "platoon", "replications": 30, "duration_secs":
    /// 140, "grid": {"mode": ["kernel", "los0"]}}`.  Every field but
    /// `scenario` is optional; unknown fields are rejected so a typo cannot
    /// silently configure a different sweep than the file reads.
    pub fn from_json(value: &JsonValue) -> Result<CampaignEntry, String> {
        let members = value.as_object().ok_or_else(|| {
            format!("a campaign entry must be a JSON object, not {}", value.type_name())
        })?;
        for (key, _) in members {
            if !matches!(
                key.as_str(),
                "scenario" | "replications" | "duration_secs" | "duration_micros" | "grid"
            ) {
                return Err(format!(
                    "unknown entry field {key:?} (known: scenario, replications, \
                     duration_secs, duration_micros, grid)"
                ));
            }
        }
        let scenario = value
            .get("scenario")
            .and_then(JsonValue::as_str)
            .ok_or("an entry needs a string \"scenario\" field")?;
        let mut entry = CampaignEntry::new(scenario);
        if let Some(reps) = value.get("replications") {
            let reps = reps
                .as_u64()
                .filter(|n| *n > 0)
                .ok_or("\"replications\" must be a positive integer")?;
            entry = entry.replications(reps);
        }
        match (value.get("duration_secs"), value.get("duration_micros")) {
            (Some(_), Some(_)) => {
                return Err(
                    "set either \"duration_secs\" or \"duration_micros\", not both".to_string()
                )
            }
            (Some(secs), None) => {
                let secs =
                    secs.as_u64().ok_or("\"duration_secs\" must be a non-negative integer")?;
                entry = entry.duration_secs(secs);
            }
            (None, Some(micros)) => {
                let micros =
                    micros.as_u64().ok_or("\"duration_micros\" must be a non-negative integer")?;
                entry = entry.duration(SimDuration::from_micros(micros));
            }
            (None, None) => {}
        }
        if let Some(grid) = value.get("grid") {
            entry = entry.grid(ParamGrid::from_json(grid)?);
        }
        Ok(entry)
    }
}

/// One fully expanded parameter point: the coordinates every run of the point
/// shares.  The canonical work list is *not* materialised per run — a run is
/// reconstructed from its global index, which keeps campaign memory
/// proportional to the number of points, not the number of runs.
#[derive(Debug, Clone)]
struct PointDef {
    scenario: String,
    params: BTreeMap<String, ParamValue>,
    replications: u64,
    duration: Option<SimDuration>,
    /// Global index of the point's first run.
    first_run: u64,
}

/// Execution statistics of one campaign run, returned by
/// [`Campaign::run_instrumented`].  Deliberately *not* part of
/// [`CampaignReport`]: these numbers depend on scheduling (worker count,
/// chunk completion order) and would break the bit-identity contract if they
/// travelled with the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerStats {
    /// Worker threads used.
    pub workers: usize,
    /// Canonical chunks executed **by this session** (a resumed session
    /// counts only the chunks past the checkpoint watermark).
    pub chunks: u64,
    /// Peak number of completed chunks held for in-order merging.
    pub peak_pending_chunks: usize,
    /// Peak number of raw [`RunRecord`]s resident awaiting canonical-order
    /// processing (0 unless a sink is attached).  Bounded by
    /// `chunk_size × in-flight window`, never by the run count.
    pub peak_resident_records: u64,
}

/// How a checkpointed campaign session ended: with the full report, or at a
/// bounded-session boundary with a checkpoint on disk to resume from.
///
/// Returned by [`Campaign::run_checkpointed`] and [`Campaign::resume`]; the
/// plain [`Campaign::run`] family always runs to completion and returns the
/// report directly.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignOutcome {
    /// Every canonical chunk was merged; this is the final report —
    /// bit-identical to an uninterrupted run's, whatever the session history.
    Complete(CampaignReport),
    /// The session hit its
    /// [bounded work slice](Checkpointer::max_chunks_per_session) with work
    /// remaining; the checkpoint manifest at the session's end boundary is on
    /// disk and [`Campaign::resume`] continues from it.
    Interrupted {
        /// Canonical chunks merged so far (across all sessions).
        chunks_done: usize,
        /// Runs covered by the watermark.
        runs_done: u64,
    },
}

impl CampaignOutcome {
    /// True when the campaign ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, CampaignOutcome::Complete(_))
    }

    /// The final report, if the campaign completed.
    pub fn into_report(self) -> Option<CampaignReport> {
        match self {
            CampaignOutcome::Complete(report) => Some(report),
            CampaignOutcome::Interrupted { .. } => None,
        }
    }
}

/// A worker's result for one canonical chunk.
struct ChunkOutput {
    partial: ChunkPartial,
    /// `(global run index, record)` pairs, captured only when a sink needs
    /// them; drained in canonical order by the collector.
    records: Vec<(u64, RunRecord)>,
    /// `(global run index, trace records)` pairs, captured only when a trace
    /// sink is attached; drained in canonical order by the collector so the
    /// trace stream is bit-identical for any worker count.
    traces: Vec<(u64, Vec<TraceRecord>)>,
    /// Runs actually executed (the full chunk unless the abort flag cut it
    /// short).
    runs: u64,
    /// False when the worker observed the abort flag and stopped mid-chunk:
    /// the output covers only a prefix of the chunk's runs and must never be
    /// merged into the accumulator or covered by a checkpoint watermark.
    completed: bool,
    /// Wall-clock execution time of the chunk (telemetry only — never part
    /// of the deterministic report).
    elapsed: Duration,
    /// Index of the worker that executed the chunk (0 on the sequential
    /// path), for per-worker busy-time attribution.
    worker: usize,
}

/// Raises the abort flag and wakes the gate if the collector unwinds.  A
/// panic in the merge or in a [`RunSink`] would otherwise leave workers
/// blocked in [`ChunkGate::claim`] at a full window, and `thread::scope`
/// would wait for them forever instead of propagating the panic.
struct AbortOnUnwind<'a> {
    gate: &'a ChunkGate,
    abort: &'a AtomicBool,
}

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort.store(true, Ordering::Relaxed);
            self.gate.wake_all();
        }
    }
}

/// Claim/merge coordination: workers may only claim a chunk while it is
/// within the in-flight window above the merge floor, which is what bounds
/// the memory the collector can ever have to buffer.
struct ChunkGate {
    state: Mutex<(usize, usize)>, // (next chunk to claim, chunks merged)
    ready: Condvar,
}

impl ChunkGate {
    /// A gate whose claim and merge frontiers start at chunk `start` (0 for
    /// a fresh campaign, the checkpoint watermark for a resumed one).
    fn new(start: usize) -> Self {
        ChunkGate { state: Mutex::new((start, start)), ready: Condvar::new() }
    }

    /// Claims the next chunk, waiting while the window is full.  Returns
    /// `None` when all chunks up to `end` are claimed or the campaign is
    /// aborting.
    fn claim(&self, end: usize, window: usize, abort: &AtomicBool) -> Option<usize> {
        let mut state = self.state.lock().expect("gate lock");
        loop {
            if abort.load(Ordering::Relaxed) || state.0 >= end {
                return None;
            }
            if state.0 < state.1 + window {
                let k = state.0;
                state.0 += 1;
                return Some(k);
            }
            state = self.ready.wait(state).expect("gate lock");
        }
    }

    /// Records one chunk as merged (or abandoned) and wakes waiting workers.
    fn advance(&self) {
        self.state.lock().expect("gate lock").1 += 1;
        self.ready.notify_all();
    }

    /// Wakes every waiting worker (used when aborting).  Taking the lock
    /// first means a worker between its abort check and its wait cannot miss
    /// the wakeup.
    fn wake_all(&self) {
        drop(self.state.lock());
        self.ready.notify_all();
    }

    /// Chunks claimed but not yet merged — the in-flight window's current
    /// occupancy (telemetry only).
    fn occupancy(&self) -> usize {
        let state = self.state.lock().expect("gate lock");
        state.0 - state.1
    }
}

/// A batch-runnable campaign: one or more [`CampaignEntry`]s executed over
/// `std::thread` workers with deterministic per-run seeds.
///
/// Determinism contract: for a fixed campaign seed, entry list and
/// [chunk size](Campaign::with_chunk_size), the [`CampaignReport`] is
/// bit-identical for every `threads` setting.  Workers only *execute* runs;
/// each run's seed is derived from its canonical coordinates
/// ([`derive_run_seed`]), each canonical chunk is reduced sequentially in
/// canonical run order, and chunk partials merge in canonical chunk order.
///
/// Memory model: runs are partitioned into canonical chunks and each run's
/// compact [`RunRecord`] is folded into its chunk's per-point streaming
/// aggregates ([`OnlineStats`](karyon_sim::OnlineStats) + bounded quantile
/// state, see [`crate::aggregate`]) the moment it finishes — no record
/// outlives its run unless a [`RunSink`] asked for it.  Workers may only be
/// a bounded window of chunks ahead of the canonical merge frontier, so peak
/// memory is O(points × chunks-in-flight) plus, with a sink attached, at
/// most `chunk_size × window` buffered records — independent of the total
/// run count either way.  A 10⁶-run campaign aggregates in the same
/// footprint as a 10³-run one.
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    seed: u64,
    threads: usize,
    chunk_size: usize,
    entries: Vec<CampaignEntry>,
}

impl Campaign {
    /// Creates an empty campaign with the given name and campaign seed.
    pub fn new(name: &str, seed: u64) -> Self {
        Campaign {
            name: name.to_string(),
            seed,
            threads: 0,
            chunk_size: DEFAULT_CHUNK_SIZE,
            entries: Vec::new(),
        }
    }

    /// Adds a scenario entry.
    pub fn entry(mut self, entry: CampaignEntry) -> Self {
        self.entries.push(entry);
        self
    }

    /// Sets the worker-thread count.  `0` (the default) uses the machine's
    /// available parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the canonical chunk size (runs per chunk; default
    /// [`DEFAULT_CHUNK_SIZE`]).
    ///
    /// The chunk size is part of the aggregation contract: reports are
    /// bit-identical across worker counts for a fixed chunk size, but
    /// changing it regroups the floating-point reduction and may change
    /// results in the last ulp.
    ///
    /// # Panics
    /// Panics if `chunk_size` is zero.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "the canonical chunk size must be at least 1");
        self.chunk_size = chunk_size;
        self
    }

    /// The canonical chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The campaign seed every per-run seed is derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured worker-thread count (0 = machine parallelism).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The campaign's entries, in declaration order.
    pub fn entries(&self) -> &[CampaignEntry] {
        &self.entries
    }

    /// Total number of runs the campaign will execute.
    pub fn run_count(&self) -> u64 {
        self.entries.iter().map(CampaignEntry::run_count).sum()
    }

    /// Number of canonical chunks the campaign partitions into.
    pub fn canonical_chunks(&self) -> usize {
        (self.run_count() as usize).div_ceil(self.chunk_size)
    }

    /// A stable 64-bit fingerprint of everything that determines the
    /// campaign's canonical run list and reduction: name, seed, chunk size
    /// and the full entry list (scenario families, replication counts,
    /// durations, grid axes **in order** with exactly typed values).
    ///
    /// The worker-thread count is deliberately excluded — a checkpoint taken
    /// by a 32-way run resumes fine on a single core.  Checkpoint manifests
    /// embed the fingerprint and [`Campaign::resume`] refuses one written by
    /// a different campaign definition, since its partials would be merged
    /// into the wrong reduction.
    pub fn fingerprint(&self) -> u64 {
        use std::fmt::Write as _;
        let mut text = format!(
            "karyon-campaign-fingerprint-v1 name={:?} seed={} chunk={}",
            self.name, self.seed, self.chunk_size
        );
        for entry in &self.entries {
            let _ = write!(
                text,
                " entry={:?} reps={} dur={:?}",
                entry.scenario,
                entry.replications,
                entry.duration.map(SimDuration::as_micros)
            );
            for (axis, values) in entry.grid.axes() {
                let _ = write!(text, " axis={axis:?}=[");
                for value in values {
                    // Type-tagged so Int(1), Float(1.0) and Text("1") hash
                    // apart; float identity is the bit pattern.
                    match value {
                        ParamValue::Int(i) => {
                            let _ = write!(text, "i{i},");
                        }
                        ParamValue::Float(f) => {
                            let _ = write!(text, "f{:016x},", f.to_bits());
                        }
                        ParamValue::Bool(b) => {
                            let _ = write!(text, "b{b},");
                        }
                        ParamValue::Text(s) => {
                            let _ = write!(text, "t{s:?},");
                        }
                    }
                }
                text.push(']');
            }
        }
        fnv1a64(text.as_bytes())
    }

    /// Builds a campaign from a JSON spec document — the format the
    /// `karyon-campaign` CLI consumes:
    ///
    /// ```
    /// use karyon_scenario::Campaign;
    ///
    /// let campaign = Campaign::from_json_str(r#"{
    ///     "name": "demo",
    ///     "seed": 42,
    ///     "chunk_size": 64,
    ///     "entries": [
    ///         {"scenario": "lane-change", "replications": 8,
    ///          "duration_secs": 30,
    ///          "grid": {"coordination": ["agreement", "none"]}}
    ///     ]
    /// }"#).expect("well-formed spec");
    /// assert_eq!(campaign.run_count(), 16);
    /// ```
    ///
    /// `chunk_size` and `threads` are optional (defaults: 4096 and machine
    /// parallelism); `entries` must name at least one scenario family.  Grid
    /// axes keep their file order, so the spec file pins the canonical run
    /// order — and with it the [fingerprint](Campaign::fingerprint) —
    /// exactly as written.
    pub fn from_json_str(text: &str) -> Result<Campaign, String> {
        let doc = JsonValue::parse(text)?;
        let members = doc.as_object().ok_or_else(|| {
            format!("a campaign spec must be a JSON object, not {}", doc.type_name())
        })?;
        for (key, _) in members {
            if !matches!(key.as_str(), "name" | "seed" | "chunk_size" | "threads" | "entries") {
                return Err(format!(
                    "unknown campaign field {key:?} (known: name, seed, chunk_size, threads, \
                     entries)"
                ));
            }
        }
        let name = doc
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("a campaign spec needs a string \"name\" field")?;
        let seed = doc
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("a campaign spec needs a non-negative integer \"seed\" field")?;
        let mut campaign = Campaign::new(name, seed);
        if let Some(chunk) = doc.get("chunk_size") {
            let chunk = chunk
                .as_u64()
                .filter(|n| *n > 0)
                .ok_or("\"chunk_size\" must be a positive integer")?;
            campaign = campaign.with_chunk_size(chunk as usize);
        }
        if let Some(threads) = doc.get("threads") {
            let threads = threads
                .as_u64()
                .ok_or("\"threads\" must be a non-negative integer (0 = machine parallelism)")?;
            campaign = campaign.with_threads(threads as usize);
        }
        let entries = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("a campaign spec needs an \"entries\" array")?;
        if entries.is_empty() {
            return Err("a campaign spec needs at least one entry".to_string());
        }
        for (index, entry) in entries.iter().enumerate() {
            campaign = campaign.entry(
                CampaignEntry::from_json(entry).map_err(|e| format!("entry #{index}: {e}"))?,
            );
        }
        Ok(campaign)
    }

    /// Expands the entries into the flattened parameter-point list.
    fn expand_points(&self) -> (Vec<PointDef>, u64) {
        let mut points = Vec::new();
        let mut next_run = 0u64;
        for entry in &self.entries {
            for params in entry.grid.expand() {
                points.push(PointDef {
                    scenario: entry.scenario.clone(),
                    params,
                    replications: entry.replications,
                    duration: entry.duration,
                    first_run: next_run,
                });
                next_run += entry.replications;
            }
        }
        (points, next_run)
    }

    /// Instantiates the spec of one run of `point`.
    fn spec_for(&self, point_index: usize, point: &PointDef, replication: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(&point.scenario)
            .with_params(point.params.clone())
            .with_seed(derive_run_seed(self.seed, point_index as u64, replication));
        if let Some(duration) = point.duration {
            spec = spec.with_duration(duration);
        }
        spec
    }

    /// Expands every entry's grid and seed sweep into the canonical run list,
    /// executes it in chunks across worker threads, and aggregates per
    /// parameter point in bounded memory.
    ///
    /// Returns an error naming the first entry whose scenario family is not
    /// in `registry` (checked up front, before any run executes).  A run that
    /// panics mid-campaign — e.g. an invalid parameter *value* that only the
    /// family's adapter can detect — also surfaces as an `Err` naming the
    /// offending spec, after in-flight runs wind down.
    pub fn run(&self, registry: &ScenarioRegistry) -> Result<CampaignReport, String> {
        self.run_instrumented(registry, None).map(|(report, _)| report)
    }

    /// Like [`Campaign::run`], additionally streaming every run's raw record
    /// to `sink` in canonical run order (see [`RunSink`]).
    pub fn run_with_sink(
        &self,
        registry: &ScenarioRegistry,
        sink: &mut dyn RunSink,
    ) -> Result<CampaignReport, String> {
        self.run_instrumented(registry, Some(sink)).map(|(report, _)| report)
    }

    /// Like [`Campaign::run`], additionally returning the runner's execution
    /// statistics (which are intentionally kept out of the deterministic
    /// report — see [`RunnerStats`]).
    pub fn run_instrumented(
        &self,
        registry: &ScenarioRegistry,
        sink: Option<&mut dyn RunSink>,
    ) -> Result<(CampaignReport, RunnerStats), String> {
        self.run_instrumented_with(registry, sink, CampaignTelemetry::none())
    }

    /// Like [`Campaign::run_instrumented`], with a
    /// [telemetry attachment](CampaignTelemetry): an optional deterministic
    /// trace sink (fed every run's virtual-time records in canonical run
    /// order — bit-identical for any worker count) and an optional wall-clock
    /// [`MetricsRegistry`](karyon_telemetry::MetricsRegistry) of runner
    /// throughput/latency metrics.
    ///
    /// Telemetry never changes the campaign's results: the report (and any
    /// `sink` stream) is bit-identical to an untraced run's.
    pub fn run_instrumented_with(
        &self,
        registry: &ScenarioRegistry,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
    ) -> Result<(CampaignReport, RunnerStats), String> {
        match self.run_from(registry, sink, None, 0, None, None, telemetry, None, None)? {
            (CampaignOutcome::Complete(report), stats) => Ok((report, stats)),
            (CampaignOutcome::Interrupted { .. }, _) => {
                unreachable!("without a checkpointer the session covers every chunk")
            }
        }
    }

    /// Like [`Campaign::run_instrumented`], additionally persisting a
    /// [checkpoint manifest](crate::checkpoint) through `ckpt` at its
    /// configured chunk cadence (and always at the session's final chunk
    /// boundary), so a killed process can [resume](Campaign::resume) instead
    /// of restarting.
    ///
    /// With a [bounded work slice](Checkpointer::max_chunks_per_session) the
    /// session may end early, returning
    /// [`CampaignOutcome::Interrupted`]; otherwise the outcome is
    /// [`CampaignOutcome::Complete`] with a report bit-identical to
    /// [`Campaign::run`]'s.  When `sink` streams JSONL artifacts alongside,
    /// it is flushed before every manifest write so the stream on disk never
    /// lags the checkpoint.
    pub fn run_checkpointed(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        self.run_checkpointed_with(registry, ckpt, sink, CampaignTelemetry::none())
    }

    /// Like [`Campaign::run_checkpointed`], with a
    /// [telemetry attachment](CampaignTelemetry).  An attached trace sink is
    /// flushed (like the run sink) before every manifest write, so the trace
    /// stream on disk never lags the checkpoint.
    pub fn run_checkpointed_with(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        self.run_from(registry, sink, Some(ckpt), 0, None, None, telemetry, None, None)
    }

    /// Like [`Campaign::run_checkpointed_with`], executing under an armed
    /// [`FaultInjector`]: the runner probes the injector at its canonical
    /// points (chunk claims, per-run boundaries, pre-checkpoint sink flushes,
    /// post-manifest writes) and injected failures surface as ordinary runner
    /// errors carrying [`crate::fault::INJECTED_PREFIX`].
    ///
    /// Transient injected sink errors are healed in place by the
    /// checkpointer's [retry policy](Checkpointer::with_retry); fatal ones
    /// (worker death, torn manifests, mid-chunk aborts) end the session like
    /// a crash would, leaving checkpoint state a later
    /// [`Campaign::resume_chaos`] (or plain [`Campaign::resume`]) continues
    /// from — with a final report **bit-identical** to a fault-free run's.
    pub fn run_checkpointed_chaos(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
        faults: &FaultInjector,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        self.run_from(registry, sink, Some(ckpt), 0, None, None, telemetry, Some(faults), None)
    }

    /// Resumes a checkpointed campaign from the manifest at `ckpt`'s path:
    /// validates the [fingerprint](Campaign::fingerprint) (same name, seed,
    /// chunk size and entry list — resume with a *different* worker count is
    /// fine), restores the aggregation state from the persisted partials,
    /// skips every canonical chunk at or below the watermark and continues
    /// with live workers.
    ///
    /// The final report is **bit-identical** to an uninterrupted run's, for
    /// any worker count and any interruption point.  A sink attached here
    /// receives only the runs *after* the watermark; to continue a JSONL
    /// stream, first cut it back to the manifest's `runs_done` lines with
    /// [`truncate_jsonl`](crate::checkpoint::truncate_jsonl) and reopen it
    /// in append mode.  Resuming an already-complete manifest executes
    /// nothing and re-emits the final report.
    pub fn resume(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        self.resume_with(registry, ckpt, sink, CampaignTelemetry::none())
    }

    /// Like [`Campaign::resume`], with a
    /// [telemetry attachment](CampaignTelemetry).  A trace sink attached here
    /// receives only the runs *after* the watermark — appending the resumed
    /// session's trace stream to the interrupted session's yields a file
    /// bit-identical to an uninterrupted traced run's.
    pub fn resume_with(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        self.resume_from(registry, ckpt, sink, telemetry, None)
    }

    /// Like [`Campaign::resume_with`], continuing under an armed
    /// [`FaultInjector`] — the resumed session of a chaos drill, sharing the
    /// injector (and its spent fault budgets) with the session that crashed.
    pub fn resume_chaos(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
        faults: &FaultInjector,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        self.resume_from(registry, ckpt, sink, telemetry, Some(faults))
    }

    /// The body of [`Campaign::resume_with`] and [`Campaign::resume_chaos`]:
    /// loads and validates the manifest, restores its accumulator and
    /// continues from its watermark, under `faults` when armed.
    fn resume_from(
        &self,
        registry: &ScenarioRegistry,
        ckpt: &mut Checkpointer,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
        faults: Option<&FaultInjector>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        let manifest = ckpt.load()?;
        let (points, total_runs) = self.expand_points();
        manifest.validate_for(self, total_runs, points.len(), self.canonical_chunks())?;
        let start_chunk = manifest.chunks_done;
        let accumulator = manifest.into_accumulator();
        self.run_from(
            registry,
            sink,
            Some(ckpt),
            start_chunk,
            None,
            Some(accumulator),
            telemetry,
            faults,
            None,
        )
    }

    /// Executes only the canonical chunks `[start_chunk, end_chunk)` — one
    /// shard of the campaign — returning the **per-chunk partials** in
    /// canonical chunk order, plus the session's [`RunnerStats`].
    ///
    /// This is the execution half of the shard protocol ([`crate::shard`]):
    /// each shard session runs an independent window of the canonical chunk
    /// range (with its own worker count — the window, like everything else,
    /// is thread-count-invariant) and persists the partials it produced.
    /// The merge half replays every shard's partials in global canonical
    /// chunk order through the same left-fold a single-machine run performs,
    /// which is why the merged report is **bit-identical** to an
    /// uninterrupted run's: per-chunk partials are the only shard artifact
    /// that preserves the exact floating-point operation sequence (merging
    /// pre-reduced per-shard accumulators would regroup it).
    ///
    /// A `sink` (and a trace sink in `telemetry`) attached here receives
    /// only the shard's runs, with **global** run indices/coordinates —
    /// shard JSONL/trace segments therefore concatenate byte-exactly, in
    /// shard order, into the stream an uninterrupted run writes.
    ///
    /// An empty window (`start_chunk == end_chunk`) is valid and executes
    /// nothing.  Errors if the window does not lie within the campaign's
    /// canonical chunk range.  There is no checkpointing inside a shard: the
    /// shard is the unit of retry — a faulted shard session is simply rerun
    /// from its window start.
    pub fn run_shard(
        &self,
        registry: &ScenarioRegistry,
        start_chunk: usize,
        end_chunk: usize,
        sink: Option<&mut dyn RunSink>,
    ) -> Result<(Vec<ChunkPartial>, RunnerStats), String> {
        self.run_shard_with(registry, start_chunk, end_chunk, sink, CampaignTelemetry::none(), None)
    }

    /// Like [`Campaign::run_shard`], with a
    /// [telemetry attachment](CampaignTelemetry) and an optional armed
    /// [`FaultInjector`] (probed exactly like
    /// [`Campaign::run_checkpointed_chaos`], with global chunk coordinates).
    pub fn run_shard_with(
        &self,
        registry: &ScenarioRegistry,
        start_chunk: usize,
        end_chunk: usize,
        sink: Option<&mut dyn RunSink>,
        telemetry: CampaignTelemetry<'_>,
        faults: Option<&FaultInjector>,
    ) -> Result<(Vec<ChunkPartial>, RunnerStats), String> {
        let chunks = self.canonical_chunks();
        if start_chunk > end_chunk || end_chunk > chunks {
            return Err(format!(
                "shard window [{start_chunk}, {end_chunk}) does not lie within campaign \
                 {:?}'s {chunks} canonical chunks",
                self.name
            ));
        }
        let mut partials: Vec<ChunkPartial> = Vec::with_capacity(end_chunk - start_chunk);
        let mut tap = |_chunk: usize, partial: &ChunkPartial| partials.push(partial.clone());
        let (_, stats) = self.run_from(
            registry,
            sink,
            None,
            start_chunk,
            Some(end_chunk),
            None,
            telemetry,
            faults,
            Some(&mut tap),
        )?;
        debug_assert_eq!(partials.len(), end_chunk - start_chunk);
        Ok((partials, stats))
    }
}

/// An optional observer invoked with each chunk partial at the
/// canonical-order merge frontier (see [`Campaign::run_from`]'s
/// `chunk_tap` parameter).
type ChunkTap<'a> = Option<&'a mut dyn FnMut(usize, &ChunkPartial)>;

impl Campaign {
    /// The shared session runner: executes canonical chunks
    /// `start_chunk..end` (where `end` is the chunk count, or earlier for a
    /// bounded checkpoint session or an explicit shard window) on 1..N
    /// workers, merging strictly in canonical order into `restored` (or a
    /// fresh accumulator).
    ///
    /// `chunk_tap`, when attached, observes every chunk partial at the
    /// canonical-order merge frontier — immediately before the partial is
    /// folded into the accumulator — which is how a shard session retains
    /// the per-chunk partials its manifest persists without disturbing the
    /// reduction.
    #[allow(clippy::too_many_arguments)]
    fn run_from(
        &self,
        registry: &ScenarioRegistry,
        mut sink: Option<&mut dyn RunSink>,
        mut ckpt: Option<&mut Checkpointer>,
        start_chunk: usize,
        end_override: Option<usize>,
        restored: Option<CampaignAccumulator>,
        mut telemetry: CampaignTelemetry<'_>,
        faults: Option<&FaultInjector>,
        mut chunk_tap: ChunkTap<'_>,
    ) -> Result<(CampaignOutcome, RunnerStats), String> {
        let (points, total_runs) = self.expand_points();
        let families = self.resolve_families(registry, &points)?;
        let chunks = (total_runs as usize).div_ceil(self.chunk_size);
        let end_chunk = match end_override {
            Some(end) => end,
            None => match &ckpt {
                Some(c) => c.session_end_chunk(start_chunk, chunks),
                None => chunks,
            },
        };
        let session_chunks = end_chunk - start_chunk;
        let workers = match self.threads {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
        .min(session_chunks.max(1));

        let mut accumulator = restored.unwrap_or_else(|| CampaignAccumulator::new(points.len()));
        let mut stats = RunnerStats {
            workers,
            chunks: session_chunks as u64,
            peak_pending_chunks: 0,
            peak_resident_records: 0,
        };
        let tracing = telemetry.tracing();
        let mut worker_busy = vec![Duration::ZERO; workers];

        if workers <= 1 {
            for chunk in start_chunk..end_chunk {
                let outcome = self.run_chunk(
                    &points,
                    &families,
                    chunk,
                    sink.is_some(),
                    tracing,
                    None,
                    faults,
                );
                let output = match outcome {
                    Ok(output) => output,
                    Err(error) => {
                        finish_session_metrics(&mut telemetry, &stats, &worker_busy, faults);
                        return Err(error);
                    }
                };
                debug_assert!(output.completed, "no abort flag on the sequential path");
                stats.peak_pending_chunks = stats.peak_pending_chunks.max(1);
                stats.peak_resident_records =
                    stats.peak_resident_records.max(output.records.len() as u64);
                worker_busy[0] += output.elapsed;
                if let Some(tap) = chunk_tap.as_deref_mut() {
                    tap(chunk, &output.partial);
                }
                self.merge_chunk(&points, &mut accumulator, output, &mut sink, &mut telemetry);
                if let Err(error) = self.checkpoint_if_due(
                    &mut ckpt,
                    &mut sink,
                    &mut telemetry,
                    chunk + 1,
                    end_chunk,
                    total_runs,
                    &accumulator,
                    faults,
                ) {
                    finish_session_metrics(&mut telemetry, &stats, &worker_busy, faults);
                    return Err(error);
                }
            }
            finish_session_metrics(&mut telemetry, &stats, &worker_busy, faults);
            return Ok(self.conclude(points, total_runs, accumulator, chunks, end_chunk, stats));
        }

        // Parallel path: workers claim canonical chunks through a windowed
        // gate, the main thread merges completed chunks strictly in
        // canonical order.  The window bounds how far execution may run
        // ahead of the merge frontier, which is what bounds peak memory.
        let window = workers * 2;
        let gate = ChunkGate::new(start_chunk);
        let abort = AtomicBool::new(false);
        let capture = sink.is_some();
        let (tx, rx) = mpsc::channel::<(usize, Result<ChunkOutput, String>)>();
        let mut first_error: Option<(usize, String)> = None;
        let mut saw_aborted_chunk = false;

        std::thread::scope(|scope| {
            for worker_index in 0..workers {
                let tx = tx.clone();
                let (gate, abort, points, families) = (&gate, &abort, &points, &families);
                scope.spawn(move || {
                    while let Some(chunk) = gate.claim(end_chunk, window, abort) {
                        let outcome = self
                            .run_chunk(
                                points,
                                families,
                                chunk,
                                capture,
                                tracing,
                                Some(abort),
                                faults,
                            )
                            .map(|mut output| {
                                output.worker = worker_index;
                                output
                            });
                        if outcome.is_err() {
                            abort.store(true, Ordering::Relaxed);
                            gate.wake_all();
                        }
                        if tx.send((chunk, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            let _unwind = AbortOnUnwind { gate: &gate, abort: &abort };

            let mut pending: BTreeMap<usize, ChunkOutput> = BTreeMap::new();
            let mut resident_records = 0u64;
            let mut next_merge = start_chunk;
            for (chunk, outcome) in rx {
                if let Some(metrics) = telemetry.metrics.as_deref_mut() {
                    // Sampled at every chunk completion: how full the
                    // in-flight window is (its mean near `window` means the
                    // merge frontier, not execution, is the bottleneck).
                    metrics
                        .configure_timer("campaign.gate_occupancy", 0.0, window as f64, window)
                        .record(gate.occupancy() as f64);
                }
                match outcome {
                    Err(error) => {
                        if first_error.as_ref().map_or(true, |(c, _)| chunk < *c) {
                            first_error = Some((chunk, error));
                        }
                        // Keep the window moving so workers drain quickly.
                        gate.advance();
                        if chunk == next_merge {
                            next_merge += 1;
                        }
                    }
                    Ok(output) if !output.completed => {
                        // A worker saw the abort flag mid-chunk: this output
                        // covers only a prefix of the chunk's runs.  The
                        // `Err` that raised the flag may still be in flight
                        // (mpsc ordering across senders is arbitrary), so
                        // merging — or letting a later merge checkpoint past
                        // this hole — would durably record runs that never
                        // executed.  Drop it, remember the session has a
                        // hole, and keep the window moving so workers drain.
                        saw_aborted_chunk = true;
                        worker_busy[output.worker] += output.elapsed;
                        gate.advance();
                        if chunk == next_merge {
                            next_merge += 1;
                        }
                    }
                    Ok(output) => {
                        resident_records += output.records.len() as u64;
                        worker_busy[output.worker] += output.elapsed;
                        pending.insert(chunk, output);
                        stats.peak_pending_chunks = stats.peak_pending_chunks.max(pending.len());
                        stats.peak_resident_records =
                            stats.peak_resident_records.max(resident_records);
                    }
                }
                while let Some(output) = pending.remove(&next_merge) {
                    resident_records -= output.records.len() as u64;
                    let merged_chunk = next_merge;
                    next_merge += 1;
                    gate.advance();
                    if first_error.is_some() || saw_aborted_chunk {
                        // The session is doomed to return Err: drop the
                        // output instead of merging — no checkpoint may
                        // cover it, and streaming its records would only
                        // write a sink tail the next resume truncates.
                        continue;
                    }
                    if let Some(tap) = chunk_tap.as_deref_mut() {
                        tap(merged_chunk, &output.partial);
                    }
                    self.merge_chunk(&points, &mut accumulator, output, &mut sink, &mut telemetry);
                    if let Err(error) = self.checkpoint_if_due(
                        &mut ckpt,
                        &mut sink,
                        &mut telemetry,
                        next_merge,
                        end_chunk,
                        total_runs,
                        &accumulator,
                        faults,
                    ) {
                        // A checkpoint that cannot be persisted voids the
                        // crash-safety contract: wind the campaign down
                        // and surface the I/O failure.
                        first_error = Some((next_merge, error));
                        abort.store(true, Ordering::Relaxed);
                        gate.wake_all();
                    }
                }
            }
        });

        finish_session_metrics(&mut telemetry, &stats, &worker_busy, faults);
        if let Some((_, error)) = first_error {
            return Err(error);
        }
        if saw_aborted_chunk {
            // The flag is only ever raised alongside a worker `Err` (which
            // always reaches the collector before the channel closes) or a
            // checkpoint failure (which sets `first_error` directly), so
            // this is unreachable — but never bless a session with a hole.
            return Err("a worker aborted mid-chunk without a recorded failure".to_string());
        }
        Ok(self.conclude(points, total_runs, accumulator, chunks, end_chunk, stats))
    }

    /// Writes a checkpoint manifest when the cadence (or the session's final
    /// boundary) calls for one, flushing the sink — and an attached trace
    /// sink — first so the streams on disk always cover at least the
    /// checkpointed runs.
    ///
    /// Every I/O edge here (sink flush, trace flush, manifest write) runs
    /// under the checkpointer's [`RetryPolicy`](crate::RetryPolicy): transient
    /// failures — including injected [`Fault::SinkIoError`](crate::Fault)s —
    /// heal with bounded backoff, and only the last error of an exhausted
    /// budget propagates.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint_if_due(
        &self,
        ckpt: &mut Option<&mut Checkpointer>,
        sink: &mut Option<&mut dyn RunSink>,
        telemetry: &mut CampaignTelemetry<'_>,
        chunks_done: usize,
        end_chunk: usize,
        total_runs: u64,
        accumulator: &CampaignAccumulator,
        faults: Option<&FaultInjector>,
    ) -> Result<(), String> {
        let Some(ckpt) = ckpt else { return Ok(()) };
        if !ckpt.due(chunks_done) && chunks_done != end_chunk {
            return Ok(());
        }
        let policy = ckpt.retry().clone();
        let mut backoff = WallClockBackoff;
        let mut extra_attempts = 0u32;
        let flush_started = Instant::now();
        if let Some(sink) = sink {
            match policy.run(&mut backoff, |_| {
                if let Some(injector) = faults {
                    if let Some(e) = injector.sink_flush_error(chunks_done) {
                        return Err(e);
                    }
                }
                sink.flush()
            }) {
                Ok(recovered) => extra_attempts += recovered.retried(),
                Err(e) => {
                    note_retry_exhausted(telemetry, extra_attempts + policy.max_attempts() - 1);
                    return Err(format!("flushing the run sink before a checkpoint: {e}"));
                }
            }
        }
        let mut trace_error: Option<std::io::Error> = None;
        if let Some(trace_sink) = telemetry.trace.as_deref_mut() {
            match policy.run(&mut backoff, |_| trace_sink.flush()) {
                Ok(recovered) => extra_attempts += recovered.retried(),
                Err(e) => trace_error = Some(e),
            }
        }
        if let Some(e) = trace_error {
            note_retry_exhausted(telemetry, extra_attempts + policy.max_attempts() - 1);
            return Err(format!("flushing the trace sink before a checkpoint: {e}"));
        }
        let flushed = flush_started.elapsed();
        let runs_done = (chunks_done as u64 * self.chunk_size as u64).min(total_runs);
        let manifest =
            checkpoint::render_manifest(self, total_runs, chunks_done, runs_done, accumulator);
        let write_started = Instant::now();
        match policy.run(&mut backoff, |_| ckpt.write(&manifest)) {
            Ok(recovered) => extra_attempts += recovered.retried(),
            Err(e) => {
                note_retry_exhausted(telemetry, extra_attempts + policy.max_attempts() - 1);
                return Err(e);
            }
        }
        if let Some(injector) = faults {
            injector.after_manifest_write(chunks_done, ckpt.path())?;
        }
        if let Some(metrics) = telemetry.metrics.as_deref_mut() {
            metrics.record_timer("campaign.sink_flush_ms", flushed.as_secs_f64() * 1e3);
            metrics.record_timer(
                "campaign.checkpoint_write_ms",
                write_started.elapsed().as_secs_f64() * 1e3,
            );
            if extra_attempts > 0 {
                metrics.add("retry.attempts", extra_attempts as u64);
                metrics.inc("recovery.outcome.recovered");
            }
        }
        Ok(())
    }

    /// Wraps up a session: the final report when every chunk is merged, the
    /// interruption watermark otherwise.
    fn conclude(
        &self,
        points: Vec<PointDef>,
        total_runs: u64,
        accumulator: CampaignAccumulator,
        chunks: usize,
        end_chunk: usize,
        stats: RunnerStats,
    ) -> (CampaignOutcome, RunnerStats) {
        if end_chunk < chunks {
            let runs_done = (end_chunk as u64 * self.chunk_size as u64).min(total_runs);
            (CampaignOutcome::Interrupted { chunks_done: end_chunk, runs_done }, stats)
        } else {
            (CampaignOutcome::Complete(self.finish(points, total_runs, accumulator)), stats)
        }
    }

    /// Re-aggregates retained per-run records (e.g. parsed back from a
    /// [`JsonlRunWriter`](crate::JsonlRunWriter) artifact) through the same
    /// canonical chunk pipeline the streaming runner uses.
    ///
    /// `records` must hold exactly one record per run, in canonical run
    /// order.  The result is **bit-identical** to what [`Campaign::run`]
    /// produces for any worker count with the same chunk size — the property
    /// the integration tests pin down.
    pub fn reduce_records(
        &self,
        registry: &ScenarioRegistry,
        records: &[RunRecord],
    ) -> Result<CampaignReport, String> {
        let (points, total_runs) = self.expand_points();
        let families = self.resolve_families(registry, &points)?;
        if records.len() as u64 != total_runs {
            return Err(format!(
                "campaign {:?} expands to {total_runs} runs but {} records were supplied",
                self.name,
                records.len()
            ));
        }
        let mut accumulator = CampaignAccumulator::new(points.len());
        for chunk in 0..(records.len().div_ceil(self.chunk_size)) {
            let start = chunk * self.chunk_size;
            let end = (start + self.chunk_size).min(records.len());
            let mut partial = ChunkPartial::new();
            let mut point_index = point_of(&points, start as u64);
            for (run, record) in (start as u64..).zip(&records[start..end]) {
                while !run_belongs_to(&points, point_index, run) {
                    point_index += 1;
                }
                let family = &families[point_index];
                partial.record_run(point_index, record, &|metric| family.metric_range(metric));
            }
            accumulator.merge_chunk(partial);
        }
        Ok(self.finish(points, total_runs, accumulator))
    }

    /// Folds per-chunk partials — one per canonical chunk, **in canonical
    /// chunk order** — into the final report, performing exactly the
    /// left-fold the streaming runner performs.  The shard `merge` path
    /// ([`crate::shard`]) feeds this the partials every shard persisted.
    ///
    /// Errors if a partial references a parameter point outside the
    /// campaign's expansion (a foreign or corrupt shard manifest).
    pub(crate) fn finish_from_chunks(
        &self,
        partials: impl IntoIterator<Item = ChunkPartial>,
    ) -> Result<CampaignReport, String> {
        let (points, total_runs) = self.expand_points();
        let mut accumulator = CampaignAccumulator::new(points.len());
        for (index, partial) in partials.into_iter().enumerate() {
            if let Some(out_of_range) = partial.points.keys().find(|p| **p >= points.len()) {
                return Err(format!(
                    "chunk partial #{index} references parameter point {out_of_range}, but \
                     campaign {:?} expands to only {} points",
                    self.name,
                    points.len()
                ));
            }
            accumulator.merge_chunk(partial);
        }
        Ok(self.finish(points, total_runs, accumulator))
    }

    /// Resolves each expanded point's scenario family, erroring on the first
    /// unknown entry before anything executes.
    fn resolve_families(
        &self,
        registry: &ScenarioRegistry,
        points: &[PointDef],
    ) -> Result<Vec<std::sync::Arc<dyn Scenario>>, String> {
        for entry in &self.entries {
            if registry.get(&entry.scenario).is_none() {
                return Err(format!(
                    "campaign {:?} references unknown scenario family {:?} (known: {})",
                    self.name,
                    entry.scenario,
                    registry.names().join(", ")
                ));
            }
        }
        Ok(points
            .iter()
            .map(|p| registry.get(&p.scenario).expect("validated above").clone())
            .collect())
    }

    /// Executes the canonical chunk `chunk` sequentially in run order,
    /// streaming every record into a fresh [`ChunkPartial`].  Returns the
    /// first run failure (canonical within the chunk) as `Err`; an output
    /// with `completed == false` when the abort flag cut the chunk short.
    #[allow(clippy::too_many_arguments)]
    fn run_chunk(
        &self,
        points: &[PointDef],
        families: &[std::sync::Arc<dyn Scenario>],
        chunk: usize,
        capture: bool,
        tracing: bool,
        abort: Option<&AtomicBool>,
        faults: Option<&FaultInjector>,
    ) -> Result<ChunkOutput, String> {
        let started = Instant::now();
        if let Some(injector) = faults {
            injector.before_chunk(chunk)?;
        }
        let total = points.last().map(|p| p.first_run + p.replications).unwrap_or(0);
        let start = (chunk * self.chunk_size) as u64;
        let end = (start + self.chunk_size as u64).min(total);
        let mut partial = ChunkPartial::new();
        // Sized for the whole chunk up front: the outputs wait in flight
        // until the canonical-order merge reaches them.
        let len = end.saturating_sub(start) as usize;
        let mut records = Vec::with_capacity(if capture { len } else { 0 });
        let mut traces = Vec::with_capacity(if tracing { len } else { 0 });
        let mut runs = 0u64;
        let mut completed = true;
        let mut point_index = point_of(points, start);
        for run in start..end {
            if abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
                completed = false;
                break;
            }
            if let Some(injector) = faults {
                injector.before_run(chunk, runs)?;
            }
            while !run_belongs_to(points, point_index, run) {
                point_index += 1;
            }
            let point = &points[point_index];
            let spec = self.spec_for(point_index, point, run - point.first_run);
            let mut record = if tracing {
                // The collection scope makes every `karyon_telemetry::trace`
                // call inside the run land in this run's record list; the
                // records contain only virtual-time data, so the list is a
                // pure function of the spec.
                let (record, mut run_trace) =
                    trace::collect(|| run_one(&*families[point_index], &spec));
                run_trace.shrink_to_fit();
                traces.push((run, run_trace));
                record?
            } else {
                run_one(&*families[point_index], &spec)?
            };
            let family = &families[point_index];
            partial.record_run(point_index, &record, &|metric| family.metric_range(metric));
            runs += 1;
            if capture {
                record.shrink_to_fit();
                records.push((run, record));
            }
        }
        Ok(ChunkOutput {
            partial,
            records,
            traces,
            runs,
            completed,
            elapsed: started.elapsed(),
            worker: 0,
        })
    }

    /// Folds one canonical chunk into the campaign accumulator, drains its
    /// captured records (already in canonical order) into the sink and its
    /// trace records into the trace sink, and notes the chunk's wall-clock
    /// metrics.
    ///
    /// Draining traces *here* — at the canonical-order merge frontier, never
    /// at execution time — is what makes the trace stream bit-identical for
    /// any worker count.
    fn merge_chunk(
        &self,
        points: &[PointDef],
        accumulator: &mut CampaignAccumulator,
        output: ChunkOutput,
        sink: &mut Option<&mut dyn RunSink>,
        telemetry: &mut CampaignTelemetry<'_>,
    ) {
        accumulator.merge_chunk(output.partial);
        if let Some(sink) = sink {
            let mut point_index = output.records.first().map(|(run, _)| point_of(points, *run));
            for (run, record) in &output.records {
                let mut index = point_index.expect("records imply a first record");
                while !run_belongs_to(points, index, *run) {
                    index += 1;
                }
                point_index = Some(index);
                let point = &points[index];
                let replication = run - point.first_run;
                let meta = RunMeta {
                    run_index: *run,
                    point: index,
                    scenario: &point.scenario,
                    params: &point.params,
                    replication,
                    seed: derive_run_seed(self.seed, index as u64, replication),
                };
                sink.on_run(&meta, record);
            }
        }
        if let Some(trace_sink) = telemetry.trace.as_deref_mut() {
            let mut point_index = output.traces.first().map(|(run, _)| point_of(points, *run));
            for (run, run_trace) in &output.traces {
                let mut index = point_index.expect("traces imply a first trace");
                while !run_belongs_to(points, index, *run) {
                    index += 1;
                }
                point_index = Some(index);
                let point = &points[index];
                let replication = run - point.first_run;
                let coords = RunCoords {
                    run_index: *run,
                    point: index as u64,
                    replication,
                    seed: derive_run_seed(self.seed, index as u64, replication),
                };
                trace_sink.on_run_records(&coords, run_trace);
            }
        }
        if let Some(metrics) = telemetry.metrics.as_deref_mut() {
            metrics.inc("campaign.chunks");
            metrics.add("campaign.runs", output.runs);
            metrics.record_timer("campaign.chunk_ms", output.elapsed.as_secs_f64() * 1e3);
        }
    }

    /// Builds the final report from the merged accumulator.
    fn finish(
        &self,
        points: Vec<PointDef>,
        total_runs: u64,
        accumulator: CampaignAccumulator,
    ) -> CampaignReport {
        let reports = points
            .into_iter()
            .zip(accumulator.points())
            .map(|(point, acc)| PointReport {
                scenario: point.scenario,
                params: point.params,
                runs: acc.runs,
                suspect_runs: acc.suspect_runs,
                metrics: acc.summaries(),
            })
            .collect();
        CampaignReport { name: self.name.clone(), seed: self.seed, total_runs, points: reports }
    }
}

/// Writes a session's end-of-run gauges into an attached metrics registry:
/// the worker count, the runner's peak-memory statistics and each worker's
/// accumulated busy time (chunk execution only — a worker idling at a full
/// window accrues nothing, so `busy / wall` per worker reads as utilisation).
fn finish_session_metrics(
    telemetry: &mut CampaignTelemetry<'_>,
    stats: &RunnerStats,
    worker_busy: &[Duration],
    faults: Option<&FaultInjector>,
) {
    let Some(metrics) = telemetry.metrics.as_deref_mut() else { return };
    metrics.set_gauge("campaign.workers", stats.workers as f64);
    metrics.set_gauge("campaign.peak_pending_chunks", stats.peak_pending_chunks as f64);
    metrics.set_gauge("campaign.peak_resident_records", stats.peak_resident_records as f64);
    for (index, busy) in worker_busy.iter().enumerate() {
        metrics.set_gauge(&format!("campaign.worker.{index}.busy_ms"), busy.as_secs_f64() * 1e3);
    }
    if let Some(injector) = faults {
        for (name, count) in injector.drain_counts() {
            metrics.add(name, count);
        }
    }
}

/// Records that a retried I/O edge exhausted its attempt budget: the attempts
/// spent show up under `retry.attempts` and the failure under
/// `recovery.outcome.exhausted`.
fn note_retry_exhausted(telemetry: &mut CampaignTelemetry<'_>, attempts: u32) {
    let Some(metrics) = telemetry.metrics.as_deref_mut() else { return };
    if attempts > 0 {
        metrics.add("retry.attempts", attempts as u64);
    }
    metrics.inc("recovery.outcome.exhausted");
}

/// FNV-1a over `bytes`: a small, stable, dependency-free 64-bit hash for the
/// campaign fingerprint (collision resistance against *accidental* edits is
/// all a checkpoint needs; manifests are not an attack surface).
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in bytes {
        hash ^= *byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Index of the point containing global run `run` (binary search over the
/// points' first-run offsets).
fn point_of(points: &[PointDef], run: u64) -> usize {
    points.partition_point(|p| p.first_run <= run).saturating_sub(1)
}

/// True when `run` falls inside `points[index]`.
fn run_belongs_to(points: &[PointDef], index: usize, run: u64) -> bool {
    let point = &points[index];
    run >= point.first_run && run < point.first_run + point.replications
}

/// Executes one run, converting a scenario panic (e.g. an invalid parameter
/// value that only surfaces inside the family's adapter) into an `Err`
/// naming the offending spec, so a mid-campaign failure reaches the caller
/// as `Campaign::run`'s error instead of a cross-thread panic.
fn run_one(scenario: &dyn Scenario, spec: &ScenarioSpec) -> Result<RunRecord, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario.run(spec))).map_err(
        |payload| {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            format!(
                "scenario {:?} failed for params [{}] seed {}: {message}",
                spec.name,
                spec.params_label(),
                spec.seed
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ScenarioRegistry;
    use crate::scenario::Scenario;
    use std::sync::Arc;

    /// A trivial deterministic scenario: metrics are pure functions of the
    /// spec, so campaign determinism failures can only come from the runner.
    struct Echo;

    impl Scenario for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn run(&self, spec: &ScenarioSpec) -> RunRecord {
            let mut record = RunRecord::new();
            record.set("seed_lo", (spec.seed % 1_000) as f64);
            record.set("x", spec.f64_or("x", 0.0) * 2.0);
            record
        }
    }

    fn echo_registry() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Arc::new(Echo));
        registry
    }

    #[test]
    fn derive_run_seed_is_pure_and_spread_out() {
        assert_eq!(derive_run_seed(1, 2, 3), derive_run_seed(1, 2, 3));
        let mut seen = std::collections::BTreeSet::new();
        for point in 0..50u64 {
            for rep in 0..50u64 {
                seen.insert(derive_run_seed(42, point, rep));
            }
        }
        assert_eq!(seen.len(), 2_500, "no collisions across a 50×50 sweep");
        assert_ne!(
            derive_run_seed(1, 0, 1),
            derive_run_seed(1, 1, 0),
            "coordinates are not interchangeable"
        );
    }

    #[test]
    fn work_list_expansion_counts() {
        let campaign = Campaign::new("c", 1)
            .entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [1, 2, 3]))
                    .replications(4),
            )
            .entry(CampaignEntry::new("echo").replications(2));
        assert_eq!(campaign.run_count(), 14);
        let report = campaign.with_threads(1).run(&echo_registry()).unwrap();
        assert_eq!(report.total_runs, 14);
        assert_eq!(report.points.len(), 4, "3 grid points + 1 empty point");
        assert_eq!(report.points[0].runs, 4);
        assert_eq!(report.points[3].runs, 2);
    }

    #[test]
    fn single_and_multi_thread_reports_are_bit_identical() {
        let build = || {
            Campaign::new("det", 2_026).entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [0.5, 1.5, 2.5]))
                    .replications(16),
            )
        };
        let one = build().with_threads(1).run(&echo_registry()).unwrap();
        let many = build().with_threads(8).run(&echo_registry()).unwrap();
        assert_eq!(one, many);
        assert_eq!(one.to_json(), many.to_json());
    }

    #[test]
    fn small_chunks_keep_reports_thread_count_invariant() {
        // Chunk boundaries cut through points and entries; every worker
        // count must still reduce identically.
        let build = || {
            Campaign::new("chunky", 99)
                .with_chunk_size(3)
                .entry(
                    CampaignEntry::new("echo")
                        .grid(ParamGrid::new().axis("x", [1.0, 2.0]))
                        .replications(7),
                )
                .entry(CampaignEntry::new("echo").replications(5))
        };
        let one = build().with_threads(1).run(&echo_registry()).unwrap();
        for threads in [2, 3, 8] {
            let many = build().with_threads(threads).run(&echo_registry()).unwrap();
            assert_eq!(one, many, "threads = {threads}");
        }
        assert_eq!(one.total_runs, 19);
    }

    #[test]
    fn an_aborted_chunk_reports_itself_incomplete() {
        let campaign = Campaign::new("abort", 3)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(8));
        let (points, _) = campaign.expand_points();
        let families = campaign.resolve_families(&echo_registry(), &points).unwrap();
        let clear = AtomicBool::new(false);
        let output =
            campaign.run_chunk(&points, &families, 0, true, false, Some(&clear), None).unwrap();
        assert!(output.completed);
        assert_eq!(output.records.len(), 4);
        assert_eq!(output.runs, 4);
        // With the abort flag raised, the chunk covers only a prefix (here:
        // nothing) and must say so — the collector relies on this to never
        // merge or checkpoint a hole.
        let raised = AtomicBool::new(true);
        let output =
            campaign.run_chunk(&points, &families, 0, true, false, Some(&raised), None).unwrap();
        assert!(!output.completed, "an aborted chunk must flag itself incomplete");
        assert!(output.records.is_empty(), "no run executes after the abort flag");
        assert_eq!(output.runs, 0);
    }

    #[test]
    fn sink_receives_every_run_in_canonical_order() {
        for threads in [1, 4] {
            let mut seen: Vec<(u64, u64, f64)> = Vec::new();
            let mut sink = |meta: &RunMeta<'_>, record: &RunRecord| {
                seen.push((meta.run_index, meta.seed, record.get("x").unwrap()));
            };
            let report = Campaign::new("stream", 5)
                .with_threads(threads)
                .with_chunk_size(4)
                .entry(
                    CampaignEntry::new("echo")
                        .grid(ParamGrid::new().axis("x", [1.0, 2.0, 3.0]))
                        .replications(6),
                )
                .run_with_sink(&echo_registry(), &mut sink)
                .unwrap();
            assert_eq!(report.total_runs, 18);
            assert_eq!(seen.len(), 18, "threads = {threads}");
            let indices: Vec<u64> = seen.iter().map(|(i, _, _)| *i).collect();
            assert_eq!(
                indices,
                (0..18).collect::<Vec<_>>(),
                "canonical order, threads = {threads}"
            );
            assert_eq!(seen[0].1, derive_run_seed(5, 0, 0), "seeds match canonical coordinates");
            assert_eq!(seen[17].2, 6.0, "x=3 doubles to 6");
        }
    }

    #[test]
    fn instrumented_run_reports_bounded_residency() {
        let campaign = Campaign::new("bounded", 1)
            .with_chunk_size(8)
            .entry(CampaignEntry::new("echo").replications(100));
        let mut count = 0u64;
        let mut sink = |_: &RunMeta<'_>, _: &RunRecord| count += 1;
        let (report, stats) =
            campaign.with_threads(4).run_instrumented(&echo_registry(), Some(&mut sink)).unwrap();
        assert_eq!(report.total_runs, 100);
        assert_eq!(count, 100);
        assert_eq!(stats.chunks, 13);
        let window = stats.workers * 2;
        assert!(
            stats.peak_resident_records <= (window * 8) as u64,
            "resident {} must stay within window × chunk ({})",
            stats.peak_resident_records,
            window * 8
        );
    }

    #[test]
    fn reduce_records_matches_streaming_run() {
        let campaign = Campaign::new("replay", 7).with_chunk_size(5).entry(
            CampaignEntry::new("echo")
                .grid(ParamGrid::new().axis("x", [0.25, 0.75]))
                .replications(13),
        );
        let registry = echo_registry();
        let mut records = Vec::new();
        let mut sink = |_: &RunMeta<'_>, record: &RunRecord| records.push(record.clone());
        let streamed =
            campaign.clone().with_threads(4).run_with_sink(&registry, &mut sink).unwrap();
        let replayed = campaign.reduce_records(&registry, &records).unwrap();
        assert_eq!(streamed, replayed);
        let err = campaign.reduce_records(&registry, &records[1..]).unwrap_err();
        assert!(err.contains("26 runs"), "record-count mismatch is reported: {err}");
    }

    /// A scenario that panics on demand (an invalid-parameter stand-in).
    struct Fussy;

    impl Scenario for Fussy {
        fn name(&self) -> &str {
            "fussy"
        }
        fn run(&self, spec: &ScenarioSpec) -> RunRecord {
            if spec.bool_or("explode", false) {
                panic!("unknown mode \"los3\"");
            }
            RunRecord::new()
        }
    }

    #[test]
    fn mid_campaign_run_panic_becomes_an_error() {
        let mut registry = ScenarioRegistry::new();
        registry.register(Arc::new(Fussy));
        for threads in [1, 4] {
            let err = Campaign::new("c", 1)
                .with_threads(threads)
                .with_chunk_size(2)
                .entry(
                    CampaignEntry::new("fussy")
                        .grid(ParamGrid::new().axis("explode", [false, true]))
                        .replications(3),
                )
                .run(&registry)
                .unwrap_err();
            assert!(err.contains("explode=true"), "error names the offending spec: {err}");
            assert!(err.contains("los3"), "error carries the panic message: {err}");
        }
    }

    #[test]
    fn unknown_scenario_is_rejected_before_running() {
        let campaign = Campaign::new("c", 1).entry(CampaignEntry::new("no-such-family"));
        let err = campaign.run(&echo_registry()).unwrap_err();
        assert!(err.contains("no-such-family"), "{err}");
        assert!(err.contains("echo"), "error lists known families: {err}");
    }

    #[test]
    fn fingerprint_tracks_everything_that_shapes_the_reduction() {
        let base = || {
            Campaign::new("fp", 7).with_chunk_size(8).entry(
                CampaignEntry::new("echo").grid(ParamGrid::new().axis("x", [1, 2])).replications(3),
            )
        };
        let fp = base().fingerprint();
        assert_eq!(fp, base().fingerprint(), "stable across rebuilds");
        assert_eq!(fp, base().with_threads(32).fingerprint(), "worker count is excluded");
        for (label, other) in [
            ("name", Campaign::new("fp2", 7).with_chunk_size(8)),
            ("seed", Campaign::new("fp", 8).with_chunk_size(8)),
            ("chunk size", Campaign::new("fp", 7).with_chunk_size(9)),
        ] {
            let other = other.entry(
                CampaignEntry::new("echo").grid(ParamGrid::new().axis("x", [1, 2])).replications(3),
            );
            assert_ne!(fp, other.fingerprint(), "{label} must change the fingerprint");
        }
        let int_axis = base().fingerprint();
        let float_axis = Campaign::new("fp", 7)
            .with_chunk_size(8)
            .entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [1.0, 2.0]))
                    .replications(3),
            )
            .fingerprint();
        assert_ne!(int_axis, float_axis, "Int(1) and Float(1.0) hash apart");
    }

    #[test]
    fn campaign_spec_json_round_trips_the_builder() {
        let from_json = Campaign::from_json_str(
            r#"{
                "name": "spec-demo",
                "seed": 2026,
                "chunk_size": 16,
                "threads": 2,
                "entries": [
                    {"scenario": "echo", "replications": 5,
                     "grid": {"x": [0.5, 1.5], "mode": ["a", "b"]}},
                    {"scenario": "echo", "duration_secs": 45}
                ]
            }"#,
        )
        .expect("well-formed spec");
        let builder = Campaign::new("spec-demo", 2026)
            .with_chunk_size(16)
            .with_threads(2)
            .entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [0.5, 1.5]).axis("mode", ["a", "b"]))
                    .replications(5),
            )
            .entry(CampaignEntry::new("echo").duration_secs(45));
        assert_eq!(from_json.run_count(), builder.run_count());
        assert_eq!(from_json.fingerprint(), builder.fingerprint());
        // And the two produce bit-identical reports.
        let a = from_json.run(&echo_registry()).unwrap();
        let b = builder.run(&echo_registry()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_spec_json_rejects_typos_and_bad_shapes() {
        for (doc, needle) in [
            (r#"[1]"#, "must be a JSON object"),
            (r#"{"seed": 1, "entries": []}"#, "\"name\""),
            (r#"{"name": "x", "entries": []}"#, "\"seed\""),
            (r#"{"name": "x", "seed": 1}"#, "\"entries\""),
            (r#"{"name": "x", "seed": 1, "entries": []}"#, "at least one entry"),
            (r#"{"name": "x", "seed": 1, "chunk_size": 0, "entries": [1]}"#, "chunk_size"),
            (
                r#"{"name": "x", "seed": 1, "entires": [], "entries": [1]}"#,
                "unknown campaign field",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries": [{"scenario": "e", "reps": 2}]}"#,
                "unknown entry field",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries": [{"scenario": "e", "replications": 0}]}"#,
                "positive integer",
            ),
            (
                r#"{"name": "x", "seed": 1, "entries":
                   [{"scenario": "e", "duration_secs": 1, "duration_micros": 2}]}"#,
                "not both",
            ),
        ] {
            let err = Campaign::from_json_str(doc).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically_at_every_boundary() {
        let dir = std::env::temp_dir().join(format!("karyon-campaign-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let build = || {
            Campaign::new("ckpt", 11).with_chunk_size(3).entry(
                CampaignEntry::new("echo")
                    .grid(ParamGrid::new().axis("x", [0.25, 0.75, 1.25]))
                    .replications(7),
            )
        };
        let registry = echo_registry();
        let uninterrupted = build().with_threads(1).run(&registry).unwrap();
        let chunks = build().canonical_chunks();
        assert_eq!(chunks, 7, "21 runs / chunk 3");
        for boundary in 1..chunks {
            let path = dir.join(format!("boundary-{boundary}.json"));
            let mut first = Checkpointer::new(&path).max_chunks_per_session(boundary);
            let (outcome, stats) =
                build().with_threads(2).run_checkpointed(&registry, &mut first, None).unwrap();
            assert_eq!(
                outcome,
                CampaignOutcome::Interrupted {
                    chunks_done: boundary,
                    runs_done: (boundary as u64 * 3).min(21),
                },
                "boundary {boundary}"
            );
            assert_eq!(stats.chunks, boundary as u64);
            let mut second = Checkpointer::new(&path);
            let (outcome, stats) =
                build().with_threads(4).resume(&registry, &mut second, None).unwrap();
            assert_eq!(stats.chunks, (chunks - boundary) as u64);
            let resumed = outcome.into_report().expect("completed");
            assert_eq!(resumed, uninterrupted, "boundary {boundary}");
            assert_eq!(resumed.to_json(), uninterrupted.to_json());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_fingerprint_and_rereads_finished_manifests() {
        let dir =
            std::env::temp_dir().join(format!("karyon-campaign-ckpt2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("done.json");
        let registry = echo_registry();
        let campaign = Campaign::new("done", 3)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(10));
        let mut ckpt = Checkpointer::new(&path).every_chunks(2);
        let (outcome, _) = campaign.run_checkpointed(&registry, &mut ckpt, None).unwrap();
        let report = outcome.into_report().expect("ran to completion");
        // Resuming a finished manifest re-emits the report without running.
        let (again, stats) = campaign.resume(&registry, &mut ckpt, None).unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(again.into_report().unwrap(), report);
        // A different campaign definition must be refused.
        let other = Campaign::new("done", 4)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(10));
        let err = other.resume(&registry, &mut Checkpointer::new(&path), None).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = CampaignEntry::new("echo").replications(0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be at least 1")]
    fn zero_chunk_size_rejected() {
        let _ = Campaign::new("c", 1).with_chunk_size(0);
    }

    #[test]
    fn a_panicking_sink_unwinds_the_parallel_runner_instead_of_hanging() {
        struct PanickingSink {
            seen: u64,
        }
        impl RunSink for PanickingSink {
            fn on_run(&mut self, _: &RunMeta<'_>, _: &RunRecord) {
                self.seen += 1;
                assert!(self.seen < 20, "sink failure");
            }
        }
        // One-run chunks on two workers: by the time the sink panics the
        // in-flight window is full and both workers wait at the gate.
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                Campaign::new("sink-panic", 1)
                    .with_chunk_size(1)
                    .with_threads(2)
                    .entry(CampaignEntry::new("echo").replications(256))
                    .run_with_sink(&echo_registry(), &mut PanickingSink { seen: 0 })
            });
            tx.send(outcome.is_err()).ok();
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a collector panic must not hang the parallel runner");
        assert!(panicked, "the sink's panic propagates out of the run entry point");
        runner.join().expect("the runner thread catches the campaign's panic");
    }

    // ---- ChunkGate window edge cases --------------------------------------
    //
    // The gate is the primitive both the parallel runner and the shard
    // windows lean on; these pin the degenerate windows a shard plan can
    // legally produce.

    #[test]
    fn gate_claim_on_an_empty_window_returns_none_immediately() {
        // start == end: a shard slice covering zero chunks must not block.
        let gate = ChunkGate::new(7);
        let abort = AtomicBool::new(false);
        assert_eq!(gate.claim(7, 4, &abort), None);
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn gate_hands_out_a_single_chunk_window_exactly_once() {
        // A single-chunk shard: one claim succeeds, the next returns None.
        let gate = ChunkGate::new(3);
        let abort = AtomicBool::new(false);
        assert_eq!(gate.claim(4, 8, &abort), Some(3));
        assert_eq!(gate.claim(4, 8, &abort), None);
        assert_eq!(gate.occupancy(), 1);
        gate.advance();
        assert_eq!(gate.occupancy(), 0);
    }

    #[test]
    fn gate_respects_the_abort_flag_and_the_window_bound() {
        let gate = ChunkGate::new(0);
        let abort = AtomicBool::new(false);
        // Window of 2: two claims fill it; a worker thread blocks on the
        // third until the collector advances the merge frontier.
        assert_eq!(gate.claim(10, 2, &abort), Some(0));
        assert_eq!(gate.claim(10, 2, &abort), Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| gate.claim(10, 2, &abort));
            std::thread::sleep(Duration::from_millis(10));
            gate.advance();
            assert_eq!(handle.join().unwrap(), Some(2));
        });
        // Aborting makes every further claim return None, even mid-window.
        abort.store(true, Ordering::Relaxed);
        assert_eq!(gate.claim(10, 2, &abort), None);
    }

    #[test]
    fn shard_windows_cover_their_chunks_and_reject_bad_bounds() {
        let registry = echo_registry();
        let campaign = Campaign::new("window", 5)
            .with_chunk_size(4)
            .entry(CampaignEntry::new("echo").replications(22)); // 6 chunks, ragged tail
        let chunks = campaign.canonical_chunks();
        assert_eq!(chunks, 6);

        // An empty window executes nothing.
        let (partials, stats) = campaign.run_shard(&registry, 2, 2, None).unwrap();
        assert!(partials.is_empty());
        assert_eq!(stats.chunks, 0);

        // A single-chunk window produces exactly one partial with the
        // chunk's runs.
        let (partials, _) = campaign.run_shard(&registry, 1, 2, None).unwrap();
        assert_eq!(partials.len(), 1);
        let runs: u64 = partials[0].points.values().map(|p| p.runs).sum();
        assert_eq!(runs, 4);

        // The ragged final chunk holds only the tail runs.
        let (partials, _) = campaign.run_shard(&registry, chunks - 1, chunks, None).unwrap();
        let runs: u64 = partials[0].points.values().map(|p| p.runs).sum();
        assert_eq!(runs, 22 - 4 * (chunks as u64 - 1));

        // Bounds outside the canonical range are refused up front.
        assert!(campaign.run_shard(&registry, 3, 2, None).unwrap_err().contains("shard window"));
        assert!(campaign
            .run_shard(&registry, 0, chunks + 1, None)
            .unwrap_err()
            .contains("shard window"));
    }

    #[test]
    fn shard_boundary_on_a_checkpoint_cadence_boundary_stays_byte_identical() {
        // A shard boundary that coincides with a checkpoint cadence boundary
        // must not perturb the reduction: folding the shard partials equals
        // running checkpointed sessions over the same split.
        let registry = echo_registry();
        let campaign = Campaign::new("cadence", 11)
            .with_chunk_size(3)
            .entry(CampaignEntry::new("echo").replications(27)); // 9 chunks
        let reference = campaign.run(&registry).unwrap();

        // Shard split at chunk 6 == cadence 3 × 2 checkpoint boundary.
        let (mut left, _) = campaign.run_shard(&registry, 0, 6, None).unwrap();
        let (right, _) = campaign.clone().with_threads(3).run_shard(&registry, 6, 9, None).unwrap();
        left.extend(right);
        let merged = campaign.finish_from_chunks(left).unwrap();
        assert_eq!(merged, reference);
        assert_eq!(merged.to_json(), reference.to_json());
    }

    #[test]
    fn sharded_partials_fold_to_the_single_session_report_for_any_split() {
        let registry = echo_registry();
        let campaign = Campaign::new("fold", 19)
            .with_chunk_size(2)
            .entry(CampaignEntry::new("echo").replications(13)); // 7 chunks
        let chunks = campaign.canonical_chunks();
        let reference = campaign.run(&registry).unwrap();
        for boundary in 0..=chunks {
            let (mut partials, _) = campaign.run_shard(&registry, 0, boundary, None).unwrap();
            let (tail, _) = campaign
                .clone()
                .with_threads(2)
                .run_shard(&registry, boundary, chunks, None)
                .unwrap();
            partials.extend(tail);
            let merged = campaign.finish_from_chunks(partials).unwrap();
            assert_eq!(merged, reference, "boundary {boundary}");
            assert_eq!(merged.to_json(), reference.to_json(), "boundary {boundary}");
        }
    }
}
