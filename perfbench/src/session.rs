//! One campaign session: the benchmark's single call site of the campaign
//! run entry points.
//!
//! A session runs on a thread of its own.  A session whose family panics in
//! a run ends with the runner's `Err`; one that panics in the runner's
//! merge unwinds out of the entry point, and can leave the runner's workers
//! waiting on its chunk gate forever, so the entry point never returns.
//! The benchmark counts both as failed sessions.  It times a session up to
//! its first panic, so a hang costs the benchmark a grace period but never
//! enters a measured wall time; the hung thread is left behind and ends
//! with the process.

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Once};
use std::time::{Duration, Instant};

use karyon_scenario::{
    Campaign, CampaignReport, CampaignTelemetry, Checkpointer, RunSink, RunnerStats,
    ScenarioRegistry,
};
use karyon_telemetry::{MetricsRegistry, TraceSink};

/// How long a session may stay silent after a panic before it counts as
/// hung.
const HANG_GRACE: Duration = Duration::from_secs(2);
/// How long any session may run before it counts as hung.
const SESSION_LIMIT: Duration = Duration::from_secs(120);

/// A boxed run sink a session thread can own.
pub type BoxedRunSink = Box<dyn RunSink + Send>;
/// A boxed trace sink a session thread can own.
pub type BoxedTraceSink = Box<dyn TraceSink + Send>;

/// Everything one session runs with.
pub struct Session {
    /// The campaign (one family's entries).
    pub campaign: Campaign,
    /// The registry the campaign resolves its families in.
    pub registry: Arc<ScenarioRegistry>,
    /// JSONL run sink, if the workload writes artifacts.
    pub sink: Option<BoxedRunSink>,
    /// Trace sink, if the workload writes artifacts.
    pub trace: Option<BoxedTraceSink>,
    /// Checkpointer, if the workload writes artifacts.
    pub checkpoint: Option<Checkpointer>,
    /// Runner metrics, in the traced run.
    pub metrics: Option<MetricsRegistry>,
}

/// How a session ended.
pub struct SessionResult {
    /// The report, or why the session produced none.
    pub outcome: Result<CampaignReport, String>,
    /// The runner's statistics, when the session returned.
    pub stats: Option<RunnerStats>,
    /// Wall time from dispatch to return, or to the first panic.
    pub wall: Duration,
    /// The runner metrics the session was given, filled in.
    pub metrics: Option<MetricsRegistry>,
    /// The sinks, handed back so the caller can flush and inspect them.
    pub sink: Option<BoxedRunSink>,
    /// See [`SessionResult::sink`].
    pub trace: Option<BoxedTraceSink>,
}

/// The time of the most recent panic in this process.
static LAST_PANIC: Mutex<Option<Instant>> = Mutex::new(None);

/// Installs a panic hook that notes when each panic happens and prints the
/// first panic's message only, so a failing session repeated every round
/// does not flood the log.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        let printed = Mutex::new(false);
        panic::set_hook(Box::new(move |info| {
            *LAST_PANIC.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
            let mut printed = printed.lock().unwrap_or_else(|p| p.into_inner());
            if !*printed {
                *printed = true;
                default(info);
            }
        }));
    });
}

fn last_panic() -> Option<Instant> {
    *LAST_PANIC.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs one session to its end and reports how it ended.
pub fn run_session(session: Session) -> SessionResult {
    install_panic_hook();
    let (tx, rx) = mpsc::channel();
    let dispatched = Instant::now();
    std::thread::spawn(move || {
        let Session { campaign, registry, mut sink, mut trace, mut checkpoint, mut metrics } =
            session;
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut telemetry = CampaignTelemetry::none();
            if let Some(trace) = trace.as_deref_mut() {
                telemetry = telemetry.with_trace(trace);
            }
            if let Some(metrics) = metrics.as_mut() {
                telemetry = telemetry.with_metrics(metrics);
            }
            let sink: Option<&mut dyn RunSink> = match sink.as_deref_mut() {
                Some(sink) => Some(sink),
                None => None,
            };
            match checkpoint.as_mut() {
                Some(ckpt) => campaign.run_checkpointed_with(&registry, ckpt, sink, telemetry).map(
                    |(outcome, stats)| {
                        (outcome.into_report().expect("an unbounded session completes"), stats)
                    },
                ),
                None => campaign.run_instrumented_with(&registry, sink, telemetry),
            }
        }));
        let wall = started.elapsed();
        let (outcome, stats) = match outcome {
            Ok(Ok((report, stats))) => (Ok(report), Some(stats)),
            Ok(Err(error)) => (Err(error), None),
            Err(payload) => (Err(panic_message(payload.as_ref())), None),
        };
        // The receiver is gone only when the session was given up on.
        let _ = tx.send(SessionResult { outcome, stats, wall, metrics, sink, trace });
    });
    loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(result) => return result,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return failed(dispatched, "the session thread ended without a result")
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let panicked = last_panic().filter(|at| *at >= dispatched);
                if panicked.is_some_and(|at| at.elapsed() >= HANG_GRACE) {
                    let wall = panicked.expect("checked above") - dispatched;
                    return SessionResult {
                        wall,
                        ..failed(dispatched, "the session hung after a panic")
                    };
                }
                if dispatched.elapsed() >= SESSION_LIMIT {
                    return failed(dispatched, "the session exceeded its time limit");
                }
            }
        }
    }
}

fn failed(dispatched: Instant, why: &str) -> SessionResult {
    SessionResult {
        outcome: Err(why.to_string()),
        stats: None,
        wall: dispatched.elapsed(),
        metrics: None,
        sink: None,
        trace: None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("session panicked: {text}")
}

/// Flushes the sinks a session handed back.
pub fn flush_sinks(result: &mut SessionResult) -> io::Result<()> {
    if let Some(sink) = result.sink.as_mut() {
        sink.flush()?;
    }
    if let Some(trace) = result.trace.as_mut() {
        trace.flush()?;
    }
    Ok(())
}
