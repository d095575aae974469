//! Tests of the benchmark itself: twins equal their families, decorators
//! change no output byte, failures are counted, and one command prints
//! every metric `BENCHMARK.json` names with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! the command test runs the `kernel` workload, which is slow unoptimised.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use karyon_perfbench::check::{self, verdict, Digests, Verdict};
use karyon_perfbench::decorators::{timed_registry, TimedRunSink, TimedTraceSink};
use karyon_perfbench::session::{run_session, Session};
use karyon_perfbench::spans::SpanRecorder;
use karyon_perfbench::twins;
use karyon_scenario::{
    builtin_registry, Campaign, CampaignEntry, CampaignTelemetry, JsonValue, JsonlRunWriter,
    RunRecord, RunSink, Scenario, ScenarioRegistry, ScenarioSpec,
};
use karyon_telemetry::{JsonlTraceWriter, TraceSink};

#[test]
fn twins_equal_their_families() {
    let registry = builtin_registry();
    let spans = SpanRecorder::default();
    let specs = [
        ScenarioSpec::new("kernel-latency").with("rules_per_level", 32i64).with("cycles", 300i64),
        ScenarioSpec::new("kernel-latency").with_seed(7),
        ScenarioSpec::new("middleware-overload").with("load_x", 20.0).with_duration_secs(5),
        ScenarioSpec::new("middleware-overload")
            .with("qos_mix", "batched")
            .with("strategy", "aggregate")
            .with_seed(3)
            .with_duration_secs(5),
    ];
    for spec in &specs {
        let family = registry.get(&spec.name).expect("registered");
        twins::run_checked(family, spec, &spans)
            .unwrap_or_else(|e| panic!("twin must equal its family: {e}"));
    }
    assert_eq!(spans.counter("core.evaluations"), 300 + 2_000);
    assert!(!spans.durations_ns("core.run_cycle").is_empty());
    assert!(!spans.durations_ns("middleware.publish").is_empty());
    assert!(!spans.durations_ns("middleware.drain").is_empty());
    assert!(spans.counter("sim.events") > spans.counter("middleware.publish.calls"));
}

/// A family that registers under a twinned name but reports something
/// else: its twin's spans must not count.
struct Impostor;

impl Scenario for Impostor {
    fn name(&self) -> &str {
        "kernel-latency"
    }

    fn run(&self, _spec: &ScenarioSpec) -> RunRecord {
        let mut record = RunRecord::new();
        record.set("evaluations", 1.0);
        record
    }
}

#[test]
fn a_twin_that_differs_from_its_family_is_rejected() {
    let spans = SpanRecorder::default();
    let family: Arc<dyn Scenario> = Arc::new(Impostor);
    let spec = ScenarioSpec::new("kernel-latency").with("cycles", 10i64);
    let error = twins::run_checked(&family, &spec, &spans).expect_err("records differ");
    assert!(error.contains("differs"), "{error}");
    assert!(spans.durations_ns("core.run_cycle").is_empty(), "rejected spans must not count");
}

#[test]
fn decorators_forward_every_declaration() {
    let base = builtin_registry();
    let timed = timed_registry(&base, &Arc::new(SpanRecorder::default()));
    assert_eq!(timed.names(), base.names());
    for name in base.names() {
        let (plain, decorated) = (base.get(&name).unwrap(), timed.get(&name).unwrap());
        assert_eq!(decorated.name(), plain.name());
        assert_eq!(decorated.engine_driven(), plain.engine_driven());
        assert_eq!(decorated.param_domain().axes(), plain.param_domain().axes());
        assert_eq!(decorated.default_spec(), plain.default_spec());
        let record = plain.run(&plain.default_spec().with_duration_secs(5));
        for metric in record.metrics().keys() {
            assert_eq!(decorated.metric_range(metric), plain.metric_range(metric));
        }
    }
}

/// Report JSON, JSONL bytes and trace bytes of one campaign run.
fn outputs(
    campaign: &Campaign,
    registry: ScenarioRegistry,
    spans: Option<&Arc<SpanRecorder>>,
) -> (String, Vec<u8>, Vec<u8>) {
    let mut bytes = (Vec::new(), Vec::new());
    let report = {
        let sink = JsonlRunWriter::new(&mut bytes.0);
        let tracer = JsonlTraceWriter::new(&mut bytes.1);
        let (mut sink, mut tracer): (Box<dyn RunSink + '_>, Box<dyn TraceSink + '_>) = match spans {
            Some(spans) => (
                Box::new(TimedRunSink::new(sink, Arc::clone(spans))),
                Box::new(TimedTraceSink::new(tracer, Arc::clone(spans))),
            ),
            None => (Box::new(sink), Box::new(tracer)),
        };
        let telemetry = CampaignTelemetry::none().with_trace(tracer.as_mut());
        let (report, _) = campaign
            .run_instrumented_with(&registry, Some(sink.as_mut()), telemetry)
            .expect("campaign runs");
        sink.flush().expect("in-memory sink");
        tracer.flush().expect("in-memory trace");
        report
    };
    (report.to_json(), bytes.0, bytes.1)
}

#[test]
fn decorated_campaigns_write_identical_bytes() {
    let campaign = Campaign::new("identity", 2026)
        .with_threads(2)
        .with_chunk_size(3)
        .entry(CampaignEntry::new("tdma").replications(4).duration_secs(5))
        .entry(CampaignEntry::new("lane-change").replications(5).duration_secs(20))
        .entry(CampaignEntry::new("middleware-qos").replications(3).duration_secs(5));
    let spans = Arc::new(SpanRecorder::default());
    let plain = outputs(&campaign, builtin_registry(), None);
    let decorated = outputs(&campaign, timed_registry(&builtin_registry(), &spans), Some(&spans));
    assert!(!plain.1.is_empty() && !plain.2.is_empty(), "both streams carry data");
    assert_eq!(decorated.0, plain.0, "report JSON");
    assert_eq!(decorated.1, plain.1, "JSONL bytes");
    assert_eq!(decorated.2, plain.2, "trace bytes");
    assert_eq!(spans.durations_ns("family.tdma").len(), 4);
    assert_eq!(spans.counter("sink.calls"), 12);
}

/// A family whose every third run panics.
struct Flaky;

impl Scenario for Flaky {
    fn name(&self) -> &str {
        "flaky"
    }

    fn run(&self, spec: &ScenarioSpec) -> RunRecord {
        assert!(!spec.seed.is_multiple_of(3), "flaky run");
        let mut record = RunRecord::new();
        record.set("x", 1.0);
        record
    }
}

#[test]
fn a_panicking_family_fails_its_session_not_the_benchmark() {
    let mut registry = ScenarioRegistry::new();
    registry.register(Arc::new(Flaky));
    let registry = Arc::new(registry);
    let session = |threads| Session {
        campaign: Campaign::new("flaky", 1)
            .with_threads(threads)
            .with_chunk_size(2)
            .entry(CampaignEntry::new("flaky").replications(16)),
        registry: Arc::clone(&registry),
        sink: None,
        trace: None,
        checkpoint: None,
        metrics: None,
    };
    let measured = run_session(session(2));
    let reference = run_session(session(1));
    let (measured, reference) = (measured.outcome.map(|_| ()), reference.outcome.map(|_| ()));
    assert!(measured.is_err() && reference.is_err(), "the family panics on some seed");
    let digests =
        |r: Result<(), String>| r.map(|_| Digests { report: 0, jsonl: None, trace: None });
    assert_eq!(verdict(&digests(measured), &digests(reference)), Verdict::Failed);

    let ok = Ok(Digests { report: 1, jsonl: Some(2), trace: Some(3) });
    let other = Ok(Digests { report: 1, jsonl: Some(2), trace: Some(4) });
    assert_eq!(verdict(&ok, &ok), Verdict::Passed);
    assert_eq!(verdict(&ok, &other), Verdict::Wrong, "a changed trace stream is a wrong output");
    assert_eq!(verdict(&Err("panicked".into()), &ok), Verdict::Wrong);
}

#[test]
fn kernel_runs_over_their_hazard_bound_are_counted() {
    // `SafetyKernel::new` refuses designs whose reaction exceeds the
    // hazard bound, so a violation is made by editing a real report.
    let campaign = Campaign::new("bound", 5)
        .with_threads(1)
        .entry(CampaignEntry::new("kernel-latency").replications(2));
    let report = campaign.run(&builtin_registry()).expect("runs");
    assert_eq!(check::bound_violations(&report), 0);
    let mut broken = report.clone();
    let flag = broken.points[0].metrics.get_mut("bound_satisfied").expect("flag metric");
    flag.sum = 0.0;
    assert_eq!(check::bound_violations(&broken), 2);
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn declared(doc: &JsonValue, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs the benchmark command on `kernel` and returns its metrics.
fn run_command(trace: &str) -> (JsonValue, Vec<(String, String)>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("command-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_karyon-perfbench"))
        .args(["--workload", "kernel", "--seed", "7", "--seconds", "0.5", "--trace", trace])
        .current_dir(&dir)
        .output()
        .expect("benchmark runs");
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the last line is JSON");
    let metrics = result.get("metrics").and_then(JsonValue::as_object).expect("metrics object");
    let printed = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(JsonValue::as_f64).is_some(), "{name} has a value");
            (name.clone(), m.get("unit").and_then(JsonValue::as_str).expect("unit").to_string())
        })
        .collect();
    (result, printed)
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn one_command_prints_every_end_to_end_metric_and_checks_outputs() {
    let (result, printed) = run_command("0");
    assert_eq!(printed, declared(&benchmark_json(), "end_to_end"));
    assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(result.get("attempted").and_then(JsonValue::as_u64).unwrap() > 0);
}

#[test]
fn the_traced_command_prints_every_per_layer_metric() {
    let (result, printed) = run_command("1");
    assert_eq!(printed, declared(&benchmark_json(), "per_layer"));
    assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true), "twins pass");
}
