//! The output check: every session's report, and on `fleet` its JSONL and
//! trace streams, must match a reference run of the same spec.
//!
//! The reference runs the session's campaign on one worker through the
//! undecorated builtin registry, with the streams hashed in memory.  The
//! campaign's contract is that report and streams are byte-identical for
//! any worker count, and the decorators' contract is that they change no
//! byte, so any difference is a defect of the program or the benchmark.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use karyon_scenario::{builtin_registry, Campaign, CampaignReport, JsonlRunWriter};
use karyon_telemetry::JsonlTraceWriter;

use crate::session::{run_session, Session};
use crate::workload::SessionSpec;

/// FNV-1a, 64 bit: a streaming hash, so a stream hashed in pieces and the
/// same bytes read back from a file agree.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// The hash of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.value()
}

/// The hash of a file's bytes.
pub fn digest_file(path: &Path) -> io::Result<u64> {
    let mut file = File::open(path)?;
    let mut h = Fnv::default();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(h.value());
        }
        h.update(&buf[..n]);
    }
}

/// A writer that only hashes what it is given; clones share the hash.
#[derive(Debug, Clone, Default)]
pub struct HashWriter(Arc<Mutex<Fnv>>);

impl HashWriter {
    /// The hash of everything written so far.
    pub fn value(&self) -> u64 {
        self.0.lock().expect("hash lock: a writer panicked").value()
    }
}

impl Write for HashWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("hash lock: a writer panicked").update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one session produced, reduced to hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// Hash of the report's JSON.
    pub report: u64,
    /// Hash of the JSONL run stream, when the session wrote one.
    pub jsonl: Option<u64>,
    /// Hash of the trace stream, when the session wrote one.
    pub trace: Option<u64>,
}

/// How a measured session compares with its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Same outputs as the reference.
    Passed,
    /// No outputs, like the reference: the session's runs failed, but
    /// nothing wrong was written.
    Failed,
    /// Different outputs, or outputs where the reference had none or the
    /// other way round: the session's runs failed and an output was wrong.
    Wrong,
}

/// Compares a measured session's digests, or its error, with its
/// reference's.
pub fn verdict(got: &Result<Digests, String>, reference: &Result<Digests, String>) -> Verdict {
    match (got, reference) {
        (Ok(got), Ok(want)) if got == want => Verdict::Passed,
        (Err(_), Err(_)) => Verdict::Failed,
        _ => Verdict::Wrong,
    }
}

/// Runs of `report` that break the paper's §III claim: a `kernel-latency`
/// run whose worst-case reaction exceeds the tightest hazard bound
/// (`bound_satisfied` is 0).
pub fn bound_violations(report: &CampaignReport) -> u64 {
    report
        .points
        .iter()
        .filter(|p| p.scenario == "kernel-latency")
        .map(|p| match p.metrics.get("bound_satisfied") {
            Some(flag) => p.runs - flag.sum.round() as u64,
            None => p.runs,
        })
        .sum()
}

/// The reference result of `spec`: its session on one worker, through the
/// undecorated builtin registry, with its streams hashed when `artifacts`.
pub fn reference(spec: &SessionSpec, artifacts: bool) -> Result<Digests, String> {
    let campaign = Campaign::from_json_str(&spec.json)?.with_threads(1);
    let jsonl = HashWriter::default();
    let trace = HashWriter::default();
    let mut session = Session {
        campaign,
        registry: Arc::new(builtin_registry()),
        sink: None,
        trace: None,
        checkpoint: None,
        metrics: None,
    };
    if artifacts {
        session.sink = Some(Box::new(JsonlRunWriter::new(jsonl.clone())));
        session.trace = Some(Box::new(JsonlTraceWriter::new(trace.clone())));
    }
    let report = run_session(session).outcome?;
    Ok(Digests {
        report: digest(report.to_json().as_bytes()),
        jsonl: artifacts.then(|| jsonl.value()),
        trace: artifacts.then(|| trace.value()),
    })
}
