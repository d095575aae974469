//! The measurement loop: set-up, rounds of campaign sessions, the output
//! check and the metrics.
//!
//! A round runs every session of the workload once.  The untraced rounds
//! give the end-to-end metrics; with `--trace 1` a second set of rounds runs
//! through the timing decorators and the twins run after them, and the
//! per-layer metrics come from their spans.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use karyon_scenario::{
    builtin_registry, derive_run_seed, Campaign, Checkpointer, JsonlRunWriter, ScenarioRegistry,
    ScenarioSpec,
};
use karyon_telemetry::{JsonlTraceWriter, MetricsRegistry};

use crate::check::{self, Digests, Verdict};
use crate::decorators::{family_span, timed_registry, TimedRunSink, TimedTraceSink};
use crate::session::{flush_sinks, run_session, BoxedRunSink, BoxedTraceSink, Session};
use crate::spans::{median, quantile, SpanRecorder, NO_PARENT};
use crate::twins;
use crate::workload::{
    module_of, SessionSpec, Workload, DEFAULT_SEED, FLEET, KERNEL_RULES, MODULES, OVERLOAD_LOADS,
};

/// Set-ups timed after each round besides the round's own; `setup_s` is
/// the median of all of them.
const SETUP_REPS_PER_ROUND: usize = 3;
/// Subdirectory of the output directory holding the session artifacts.
const ARTIFACTS: &str = "artifacts";
/// Fewest measured rounds per phase, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Share of `--seconds` the traced run spends untraced, then traced; the
/// twins get the rest.
const UNTRACED_SHARE: f64 = 0.45;
const TRACED_SHARE: f64 = 0.4;
/// Most replications of each twinned point the twins run.
const TWIN_REPLICATIONS: u64 = 64;

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The campaign seed of every session.
    pub seed: u64,
    /// How long the rounds run, in seconds.
    pub seconds: f64,
    /// Measure the per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Where artifacts and spans are written.
    pub out_dir: PathBuf,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result line of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// True when every output matched its reference and every kernel run
    /// kept its hazard bound.
    pub correct: bool,
    /// Campaign runs attempted in the measured rounds.
    pub attempted: u64,
    /// Of those, runs of sessions that panicked, errored, hung or
    /// mismatched their reference, and kernel runs over their bound.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
}

impl Outcome {
    /// The single-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The artifact files of one `fleet` session.
#[derive(Debug, Clone)]
struct ArtifactPaths {
    jsonl: PathBuf,
    trace: PathBuf,
    checkpoint: PathBuf,
}

/// One session, set up and ready to run.
struct Prepared {
    spec: SessionSpec,
    campaign: Campaign,
    runs: u64,
    sink: Option<BoxedRunSink>,
    trace: Option<BoxedTraceSink>,
    checkpoint: Option<Checkpointer>,
    paths: Option<ArtifactPaths>,
}

/// What one measured session left behind.
#[derive(Debug)]
struct SessionRun {
    family: String,
    /// Index of the session in the round.
    index: usize,
    runs: u64,
    wall: Duration,
    workers: usize,
    /// Hashes of the outputs, or why there are none.
    digests: Result<Digests, String>,
    /// Kernel runs over their hazard bound.
    violations: u64,
    /// Set by the output check: the session's runs all failed.
    failed: bool,
    peak_resident_records: u64,
    metrics: Option<MetricsRegistry>,
    jsonl_bytes: u64,
    trace_bytes: u64,
    checkpoint_bytes: u64,
}

/// A measured round.
#[derive(Debug)]
struct Round {
    sessions: Vec<SessionRun>,
}

/// The set-up the benchmark times: the registry, the parsed specs and the
/// artifact files of every session of one round.  The artifact directory
/// must be empty ([`clear_artifacts`]), so every set-up creates its files.
fn setup(
    workload: Workload,
    seed: u64,
    spans: Option<&Arc<SpanRecorder>>,
    out_dir: &Path,
) -> Result<(Arc<ScenarioRegistry>, Vec<Prepared>), String> {
    let base = builtin_registry();
    let registry = match spans {
        Some(spans) => timed_registry(&base, spans),
        None => base,
    };
    let prepared = workload
        .sessions(seed, &registry)
        .into_iter()
        .map(|spec| prepare(spec, workload.writes_artifacts(), spans, out_dir))
        .collect::<Result<_, _>>()?;
    Ok((Arc::new(registry), prepared))
}

/// Parses one session's spec and, with `artifacts`, creates its files.
fn prepare(
    spec: SessionSpec,
    artifacts: bool,
    spans: Option<&Arc<SpanRecorder>>,
    out_dir: &Path,
) -> Result<Prepared, String> {
    let campaign = Campaign::from_json_str(&spec.json)?;
    let runs = campaign.run_count();
    let mut session =
        Prepared { spec, campaign, runs, sink: None, trace: None, checkpoint: None, paths: None };
    if !artifacts {
        return Ok(session);
    }
    let dir = out_dir.join(ARTIFACTS);
    let family = &session.spec.family;
    let paths = ArtifactPaths {
        jsonl: dir.join(format!("{family}.runs.jsonl")),
        trace: dir.join(format!("{family}.trace.jsonl")),
        checkpoint: dir.join(format!("{family}.checkpoint.json")),
    };
    let create = |path: &Path| {
        File::create(path)
            .map(BufWriter::new)
            .map_err(|e| format!("creating {}: {e}", path.display()))
    };
    let sink = JsonlRunWriter::new(create(&paths.jsonl)?);
    let trace = JsonlTraceWriter::new(create(&paths.trace)?);
    match spans {
        Some(spans) => {
            session.sink = Some(Box::new(TimedRunSink::new(sink, Arc::clone(spans))));
            session.trace = Some(Box::new(TimedTraceSink::new(trace, Arc::clone(spans))));
        }
        None => {
            session.sink = Some(Box::new(sink));
            session.trace = Some(Box::new(trace));
        }
    }
    session.checkpoint = Some(Checkpointer::new(&paths.checkpoint).every_chunks(1));
    session.paths = Some(paths);
    Ok(session)
}

/// Empties the artifact directory, so the next set-up creates fresh files.
fn clear_artifacts(out_dir: &Path) -> Result<(), String> {
    let dir = out_dir.join(ARTIFACTS);
    if dir.exists() {
        fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Runner metrics with timer ranges fine enough for millisecond chunks and
/// manifest writes (the default range has 39 ms buckets).
fn runner_metrics() -> MetricsRegistry {
    let mut metrics = MetricsRegistry::new();
    metrics.configure_timer("campaign.chunk_ms", 0.0, 2_000.0, 20_000);
    metrics.configure_timer("campaign.checkpoint_write_ms", 0.0, 500.0, 5_000);
    metrics
}

/// Runs every prepared session once.
fn run_round(
    registry: &Arc<ScenarioRegistry>,
    prepared: Vec<Prepared>,
    spans: Option<&Arc<SpanRecorder>>,
) -> Result<Round, String> {
    let mut sessions = Vec::new();
    for (index, p) in prepared.into_iter().enumerate() {
        let session_span = spans.map(|s| {
            let id = s.open(s.name_id(&format!("session.{}", p.spec.family)), NO_PARENT);
            s.set_parent(id);
            id
        });
        let mut result = run_session(Session {
            campaign: p.campaign,
            registry: Arc::clone(registry),
            sink: p.sink,
            trace: p.trace,
            checkpoint: p.checkpoint,
            metrics: spans.map(|_| runner_metrics()),
        });
        if let (Some(spans), Some(id)) = (spans, session_span) {
            spans.close(id);
            spans.set_parent(NO_PARENT);
        }
        flush_sinks(&mut result).map_err(|e| format!("flushing {}: {e}", p.spec.family))?;
        // Close the files before hashing them.
        result.sink = None;
        result.trace = None;
        let violations = result.outcome.as_ref().map_or(0, check::bound_violations);
        let mut run = SessionRun {
            family: p.spec.family.clone(),
            index,
            runs: p.runs,
            wall: result.wall,
            workers: result.stats.map_or(crate::workload::WORKERS, |s| s.workers),
            digests: Err(String::new()),
            violations,
            failed: false,
            peak_resident_records: result.stats.map_or(0, |s| s.peak_resident_records),
            metrics: result.metrics,
            jsonl_bytes: 0,
            trace_bytes: 0,
            checkpoint_bytes: 0,
        };
        run.digests = match result.outcome {
            Err(error) => Err(error),
            Ok(report) => {
                let mut digests = Digests {
                    report: check::digest(report.to_json().as_bytes()),
                    jsonl: None,
                    trace: None,
                };
                if let Some(paths) = &p.paths {
                    let hash = |path: &Path| {
                        check::digest_file(path)
                            .map_err(|e| format!("reading {}: {e}", path.display()))
                    };
                    digests.jsonl = Some(hash(&paths.jsonl)?);
                    digests.trace = Some(hash(&paths.trace)?);
                    run.jsonl_bytes = file_len(&paths.jsonl);
                    run.trace_bytes = file_len(&paths.trace);
                    run.checkpoint_bytes = file_len(&paths.checkpoint);
                }
                Ok(digests)
            }
        };
        sessions.push(run);
    }
    Ok(Round { sessions })
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// Sets up and runs rounds until `deadline` (at least `min_rounds`),
/// timing each round's set-up and [`SETUP_REPS_PER_ROUND`] more into
/// `setup_times`.  Spreading the set-ups over the whole run keeps a burst
/// of host noise from moving all of them at once.
fn rounds_until(
    opts: &Options,
    min_rounds: usize,
    deadline: Instant,
    spans: Option<&Arc<SpanRecorder>>,
    setup_times: &mut Vec<f64>,
) -> Result<Vec<Round>, String> {
    let timed_setup = |setup_times: &mut Vec<f64>| {
        if opts.workload.writes_artifacts() {
            clear_artifacts(&opts.out_dir)?;
        }
        let started = Instant::now();
        let prepared = setup(opts.workload, opts.seed, spans, &opts.out_dir)?;
        setup_times.push(started.elapsed().as_secs_f64());
        Ok::<_, String>(prepared)
    };
    let mut rounds = Vec::new();
    while rounds.len() < min_rounds || Instant::now() < deadline {
        let (registry, prepared) = timed_setup(setup_times)?;
        rounds.push(run_round(&registry, prepared, spans)?);
        for _ in 0..SETUP_REPS_PER_ROUND {
            drop(timed_setup(setup_times)?);
        }
    }
    Ok(rounds)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Checks every session of `rounds` against its reference, marking the
/// failed ones; returns the failed-run count, whether every output was
/// right, and the problems.
fn check_rounds(
    workload: Workload,
    seed: u64,
    rounds: &mut [Round],
) -> Result<(u64, bool, Vec<String>), String> {
    let registry = builtin_registry();
    let specs = workload.sessions(seed, &registry);
    let references: Vec<Result<Digests, String>> =
        specs.iter().map(|s| check::reference(s, workload.writes_artifacts())).collect();
    let mut failed = 0;
    let mut correct = true;
    let mut problems = Vec::new();
    for run in rounds.iter_mut().flat_map(|r| r.sessions.iter_mut()) {
        match check::verdict(&run.digests, &references[run.index]) {
            Verdict::Passed => {}
            Verdict::Failed => run.failed = true,
            Verdict::Wrong => {
                run.failed = true;
                correct = false;
            }
        }
        match &run.digests {
            Err(error) => problems.push(format!("{}: {error}", run.family)),
            Ok(_) if run.failed => {
                problems.push(format!("{}: output differs from the reference", run.family))
            }
            Ok(_) => {}
        }
        if run.failed {
            failed += run.runs;
        } else if run.violations > 0 {
            correct = false;
            failed += run.violations;
            problems.push(format!(
                "{}: {} kernel runs exceed their hazard bound",
                run.family, run.violations
            ));
        }
    }
    problems.sort();
    problems.dedup();
    Ok((failed, correct, problems))
}

/// Median over rounds of runs completed per second of campaign wall time.
fn runs_per_s(rounds: &[Round]) -> f64 {
    let mut throughputs: Vec<f64> = rounds
        .iter()
        .map(|round| {
            let wall: f64 = round.sessions.iter().map(|s| s.wall.as_secs_f64()).sum();
            let completed: u64 =
                round.sessions.iter().filter(|s| !s.failed).map(|s| s.runs - s.violations).sum();
            completed as f64 / wall
        })
        .collect();
    median(&mut throughputs)
}

fn attempted(rounds: &[Round]) -> u64 {
    rounds.iter().flat_map(|r| &r.sessions).map(|s| s.runs).sum()
}

/// Runs one invocation.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    // One unmeasured round warms caches, the allocator and the page cache.
    let mut setup_times = Vec::new();
    rounds_until(opts, 1, Instant::now(), None, &mut setup_times)?;
    setup_times.clear();

    let start = Instant::now();
    let seconds = |share: f64| Duration::from_secs_f64(opts.seconds * share);
    if !opts.trace {
        let mut rounds =
            rounds_until(opts, MIN_ROUNDS, start + seconds(1.0), None, &mut setup_times)?;
        let rss = peak_rss_mb()?;
        let (failed, correct, problems) = check_rounds(opts.workload, opts.seed, &mut rounds)?;
        let attempted = attempted(&rounds);
        let metrics = vec![
            metric("runs_per_s", runs_per_s(&rounds), "1/s"),
            metric("setup_s", median(&mut setup_times), "s"),
            metric("peak_rss_mb", rss, "MB"),
            metric("completed_runs_ratio", 1.0 - failed as f64 / attempted as f64, "ratio"),
        ];
        return Ok(Outcome { correct, attempted, failed, metrics, problems });
    }

    let untraced =
        rounds_until(opts, MIN_ROUNDS, start + seconds(UNTRACED_SHARE), None, &mut setup_times)?;
    let spans = Arc::new(SpanRecorder::default());
    let traced_deadline = start + seconds(UNTRACED_SHARE + TRACED_SHARE);
    let traced = rounds_until(opts, MIN_ROUNDS, traced_deadline, Some(&spans), &mut setup_times)?;
    let twin_problems = run_twins(opts, start + seconds(1.0), &spans);

    let untraced_rounds = untraced.len();
    let mut all = untraced;
    all.extend(traced);
    let (failed, mut correct, mut problems) = check_rounds(opts.workload, opts.seed, &mut all)?;
    correct &= twin_problems.is_empty();
    problems.extend(twin_problems);
    let (untraced, traced) = all.split_at(untraced_rounds);

    let mut metrics = family_metrics(untraced, traced, &spans);
    metrics.extend(twin_metrics(&spans));
    metrics.extend(runner_layer_metrics(traced, &spans));
    metrics.push(metric(
        "bench.trace_overhead",
        runs_per_s(traced) / runs_per_s(untraced),
        "ratio",
    ));
    metrics.push(metric(
        "bench.twin_overhead",
        ratio(spans.counter("twin.twin_ns") as f64, spans.counter("twin.family_ns") as f64),
        "ratio",
    ));
    let csv = opts.out_dir.join("spans.csv");
    spans.write_csv(&csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;
    Ok(Outcome {
        correct,
        attempted: attempted(untraced) + attempted(traced),
        failed,
        metrics,
        problems,
    })
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Worker-seconds of campaign wall time in `rounds`: the time the
/// session's workers had, which every `*.share` divides by.
fn worker_seconds(rounds: &[Round]) -> f64 {
    rounds.iter().flat_map(|r| &r.sessions).map(|s| s.wall.as_secs_f64() * s.workers as f64).sum()
}

fn span_seconds(spans: &SpanRecorder, name: &str) -> f64 {
    spans.durations_ns(name).iter().sum::<f64>() / 1e9
}

/// `families.*`: untraced throughput per family, traced run-time quantiles
/// per family, and each family module's share of the traced worker time.
fn family_metrics(untraced: &[Round], traced: &[Round], spans: &SpanRecorder) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let capacity = worker_seconds(traced);
    let mut module_seconds: BTreeMap<&str, f64> = BTreeMap::new();
    for (family, _) in FLEET {
        let mut throughputs: Vec<f64> = untraced
            .iter()
            .flat_map(|r| &r.sessions)
            .filter(|s| s.family == family && !s.failed)
            .map(|s| s.runs as f64 / s.wall.as_secs_f64())
            .collect();
        let mut us: Vec<f64> =
            spans.durations_ns(&family_span(family)).iter().map(|ns| ns / 1e3).collect();
        *module_seconds.entry(module_of(family)).or_default() += us.iter().sum::<f64>() / 1e6;
        metrics.push(metric(
            &format!("families.{family}.runs_per_s"),
            median(&mut throughputs),
            "1/s",
        ));
        metrics.push(metric(
            &format!("families.{family}.run_us_p50"),
            quantile(&mut us, 0.5),
            "us",
        ));
        metrics.push(metric(
            &format!("families.{family}.run_us_p99"),
            quantile(&mut us, 0.99),
            "us",
        ));
    }
    for module in MODULES {
        let seconds = module_seconds.get(module).copied().unwrap_or(0.0);
        metrics.push(metric(
            &format!("families.{module}.share"),
            ratio(seconds, capacity),
            "ratio",
        ));
    }
    metrics
}

/// The twin specs of the workload: every twinned point it runs, with the
/// seeds its campaign gives the point's replications, replication-major so
/// a short twin phase still covers every point.
fn twin_specs(workload: Workload, seed: u64) -> Vec<ScenarioSpec> {
    let registry = builtin_registry();
    let default = |family: &str| {
        registry.get(family).expect("twinned families are registered").default_spec()
    };
    // (index of the point in its session, spec)
    let points: Vec<(u64, ScenarioSpec)> = match workload {
        Workload::Kernel => (0..)
            .zip(
                KERNEL_RULES
                    .map(|rules| default("kernel-latency").with("rules_per_level", rules as i64)),
            )
            .collect(),
        Workload::Overload => (0..)
            .zip(OVERLOAD_LOADS.map(|load| default("middleware-overload").with("load_x", load)))
            .collect(),
        Workload::Fleet => twins::TWINNED.iter().map(|family| (0, default(family))).collect(),
    };
    (0..TWIN_REPLICATIONS)
        .flat_map(|replication| {
            points.iter().map(move |(index, spec)| {
                spec.clone().with_seed(derive_run_seed(seed, *index, replication))
            })
        })
        .collect()
}

/// Runs checked twins until `deadline` (each point at least once) and
/// returns the problems found.
fn run_twins(opts: &Options, deadline: Instant, spans: &SpanRecorder) -> Vec<String> {
    let registry = builtin_registry();
    let specs = twin_specs(opts.workload, opts.seed);
    let points = specs.len() / TWIN_REPLICATIONS as usize;
    let mut problems = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if i >= points && Instant::now() >= deadline {
            break;
        }
        let family = registry.get(&spec.name).expect("twinned families are registered");
        match twins::run_checked(family, spec, spans) {
            Ok(timing) => {
                spans.add("twin.twin_ns", timing.twin_ns);
                spans.add("twin.family_ns", timing.family_ns);
                spans.add(&format!("twin.runs.{}", spec.name), 1);
            }
            Err(problem) => problems.push(problem),
        }
    }
    problems
}

/// `core.*`, `middleware.*` and `sim.*` from the twins' spans.
fn twin_metrics(spans: &SpanRecorder) -> Vec<Metric> {
    let ns = |name: &str| spans.durations_ns(name);
    let mean = |values: &[f64]| ratio(values.iter().sum(), values.len() as f64);
    let per_run = |counter: &str, family: &str| {
        ratio(spans.counter(counter) as f64, spans.counter(&format!("twin.runs.{family}")) as f64)
    };

    let mut cycles = ns("core.run_cycle");
    let evaluations = ns("core.evaluate");
    let evaluate_share = ratio(evaluations.iter().sum(), cycles.iter().sum());

    let mut publish = ns("middleware.publish");
    let mut drain = ns("middleware.drain");
    let overload_wall: f64 = ns("twin.middleware-overload").iter().sum();
    let publish_total = mean(&publish) * spans.counter("middleware.publish.calls") as f64;
    let drain_total = mean(&drain) * spans.counter("middleware.drain.calls") as f64;
    let callbacks = mean(&ns("sim.callback.publish"))
        * spans.counter("sim.callbacks.publish") as f64
        + mean(&ns("sim.callback.drain")) * spans.counter("sim.callbacks.drain") as f64;
    let recording = (spans.outside_ns() * spans.counter("sim.sampled_spans")) as f64;
    let engine_self = (ns("sim.run_until").iter().sum::<f64>() - callbacks - recording).max(0.0);

    vec![
        metric("core.run_cycle_ns_p50", quantile(&mut cycles, 0.5), "ns"),
        metric("core.run_cycle_ns_p99", quantile(&mut cycles, 0.99), "ns"),
        metric("core.evaluate_share", evaluate_share, "ratio"),
        metric("core.evaluations", per_run("core.evaluations", "kernel-latency"), "count/run"),
        metric("middleware.publish_ns_p50", quantile(&mut publish, 0.5), "ns"),
        metric("middleware.publish_ns_p99", quantile(&mut publish, 0.99), "ns"),
        metric("middleware.drain_ns_p50", quantile(&mut drain, 0.5), "ns"),
        metric("middleware.drain_ns_p99", quantile(&mut drain, 0.99), "ns"),
        metric("middleware.share", ratio(publish_total + drain_total, overload_wall), "ratio"),
        metric(
            "middleware.published",
            per_run("middleware.publish.calls", "middleware-overload"),
            "count/run",
        ),
        metric(
            "middleware.delivered",
            per_run("middleware.delivered", "middleware-overload"),
            "count/run",
        ),
        metric("sim.engine_self_share", ratio(engine_self, overload_wall), "ratio"),
        metric("sim.events_processed", per_run("sim.events", "middleware-overload"), "count/run"),
        metric("sim.ns_per_event", ratio(engine_self, spans.counter("sim.events") as f64), "ns"),
    ]
}

/// `campaign.*`, `sink.*`, `checkpoint.*` and `trace.*` from the traced
/// rounds: the decorators' counters and spans and the runner's own timers.
fn runner_layer_metrics(traced: &[Round], spans: &SpanRecorder) -> Vec<Metric> {
    let sessions: Vec<&SessionRun> = traced.iter().flat_map(|r| &r.sessions).collect();
    let capacity = worker_seconds(traced);
    let mut timers = MetricsRegistry::new();
    let mut busy_ms = 0.0;
    for metrics in sessions.iter().filter_map(|s| s.metrics.as_ref()) {
        for name in ["campaign.chunk_ms", "campaign.checkpoint_write_ms"] {
            if let Some(timer) = metrics.timer(name) {
                timers.merge_timer(name, timer);
            }
        }
        busy_ms += metrics
            .gauges()
            .filter(|(name, _)| name.starts_with("campaign.worker.") && name.ends_with(".busy_ms"))
            .map(|(_, v)| v)
            .sum::<f64>();
    }
    let timer = |name: &str| timers.timer_summary(name);
    let chunk = timer("campaign.chunk_ms");
    let checkpoint = timer("campaign.checkpoint_write_ms");
    let checkpoint_s = checkpoint.map_or(0.0, |t| t.mean * t.count as f64 / 1e3);
    let runs: u64 = sessions.iter().filter(|s| !s.failed).map(|s| s.runs).sum();
    let written = |bytes: fn(&SessionRun) -> u64| {
        ratio(sessions.iter().filter(|s| !s.failed).map(|s| bytes(s) as f64).sum(), runs as f64)
    };
    let manifests: Vec<f64> = sessions
        .iter()
        .filter(|s| s.checkpoint_bytes > 0)
        .map(|s| s.checkpoint_bytes as f64)
        .collect();
    let sink_s = spans.counter("sink.ns") as f64 / 1e9;
    let trace_s = spans.counter("trace.ns") as f64 / 1e9;
    let family_s: f64 =
        FLEET.iter().map(|(family, _)| span_seconds(spans, &family_span(family))).sum();
    let mut flush_ms: Vec<f64> =
        spans.durations_ns("sink.flush").iter().map(|ns| ns / 1e6).collect();
    let trace_runs = ratio(spans.counter("trace.records") as f64, runs as f64);

    vec![
        // Worker time outside family runs: claiming chunks, folding runs
        // into chunk partials, waiting at the gate or for the last chunk.
        // Sink, trace and checkpoint work runs on the collector thread and
        // has shares of its own.
        metric("campaign.self_share", ratio((capacity - family_s).max(0.0), capacity), "ratio"),
        metric("campaign.worker_busy_ratio", ratio(busy_ms / 1e3, capacity), "ratio"),
        metric("campaign.chunk_ms_p50", chunk.map_or(0.0, |t| t.p50), "ms"),
        metric("campaign.chunk_ms_p99", chunk.map_or(0.0, |t| t.p99), "ms"),
        metric(
            "campaign.peak_resident_records",
            sessions.iter().map(|s| s.peak_resident_records).max().unwrap_or(0) as f64,
            "count",
        ),
        metric("sink.share", ratio(sink_s, capacity), "ratio"),
        metric("sink.bytes_per_run", written(|s| s.jsonl_bytes), "B/run"),
        metric("sink.flush_ms_p99", quantile(&mut flush_ms, 0.99), "ms"),
        metric("checkpoint.share", ratio(checkpoint_s, capacity), "ratio"),
        metric("checkpoint.write_ms_p99", checkpoint.map_or(0.0, |t| t.p99), "ms"),
        metric(
            "checkpoint.bytes_per_write",
            ratio(manifests.iter().sum(), manifests.len() as f64),
            "B",
        ),
        metric("trace.share", ratio(trace_s, capacity), "ratio"),
        metric("trace.records_per_run", trace_runs, "count/run"),
        metric("trace.bytes_per_run", written(|s| s.trace_bytes), "B/run"),
    ]
}

/// Wall seconds per run of each `fleet` family in its `fleet` session form
/// (two workers, JSONL sink, trace and a checkpoint every chunk), from a
/// session grown until it lasts `family_seconds`.  Growth stops at the
/// exact-quantile limit of 4096 runs per point, which `avionics-rpv`
/// cannot pass.
pub fn calibrate(out_dir: &Path, family_seconds: f64) -> Result<Vec<(&'static str, f64)>, String> {
    let registry = Arc::new(builtin_registry());
    let families = registry.describe();
    let mut costs = Vec::new();
    for (family, _) in FLEET {
        let mut replications = 8;
        loop {
            clear_artifacts(out_dir)?;
            let spec =
                crate::workload::fleet_session(&families, family, DEFAULT_SEED, replications);
            let p = prepare(spec, true, None, out_dir)?;
            let result = run_session(Session {
                campaign: p.campaign,
                registry: Arc::clone(&registry),
                sink: p.sink,
                trace: p.trace,
                checkpoint: p.checkpoint,
                metrics: None,
            });
            result.outcome.map_err(|e| format!("calibrating {family}: {e}"))?;
            let wall = result.wall.as_secs_f64();
            if wall >= family_seconds || replications >= 4_096 {
                costs.push((family, wall / replications as f64));
                break;
            }
            replications *= 2;
        }
    }
    Ok(costs)
}
