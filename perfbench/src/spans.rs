//! In-memory spans and counters of the traced run.
//!
//! A span is `(name, start, end, parent)` in nanoseconds since the
//! recorder's epoch.  Spans are kept in memory while the benchmark runs and
//! written out once at the end ([`SpanRecorder::write_csv`]), so recording
//! costs two clock reads and one push.  Counters hold exact totals where
//! only a sample of the calls is kept as spans.
//!
//! Clock reads cost tens of nanoseconds, as much as the shortest calls the
//! twins time, so the recorder measures its own cost when it is created:
//! [`SpanRecorder::net_ns`] takes one back-to-back clock-read pair off every
//! span, and [`SpanRecorder::outside_ns`] is what each recorded span costs
//! the code around it.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interned name, see [`SpanRecorder::name_id`].
    pub name: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span and counter store shared by the decorators and twins.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    names: Mutex<Vec<String>>,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, u64>>,
    /// The span new decorator spans nest under (the running session's).
    parent: AtomicU32,
    /// Median length of an empty span: two back-to-back clock reads.
    clock_ns: u64,
    /// Median cost of recording one span, clock reads included.
    record_ns: u64,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        let mut recorder = SpanRecorder {
            epoch: Instant::now(),
            names: Mutex::default(),
            spans: Mutex::default(),
            counters: Mutex::default(),
            parent: AtomicU32::new(NO_PARENT),
            clock_ns: 0,
            record_ns: 0,
        };
        recorder.calibrate();
        recorder
    }
}

impl SpanRecorder {
    /// Measures [`SpanRecorder::clock_ns`] and the cost of one recorded span
    /// on a scratch span list.
    fn calibrate(&mut self) {
        const PAIRS: usize = 2_001;
        const BATCHES: usize = 101;
        const BATCH: usize = 64;
        let mut pairs: Vec<f64> = (0..PAIRS)
            .map(|_| {
                let a = self.now_ns();
                (self.now_ns() - a) as f64
            })
            .collect();
        self.clock_ns = median(&mut pairs) as u64;
        let scratch = Mutex::new(Vec::with_capacity(BATCHES * BATCH));
        let mut batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let started = Instant::now();
                for _ in 0..BATCH {
                    let start = self.now_ns();
                    let end = self.now_ns();
                    let span = Span { name: 0, parent: NO_PARENT, start_ns: start, end_ns: end };
                    scratch.lock().expect("scratch lock").push(std::hint::black_box(span));
                }
                started.elapsed().as_nanos() as f64 / BATCH as f64
            })
            .collect();
        self.record_ns = median(&mut batches) as u64;
    }

    /// Median length of an empty span, in ns.
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// A span's length without the clock-read pair that measured it.
    pub fn net_ns(&self, span: &Span) -> u64 {
        span.ns().saturating_sub(self.clock_ns)
    }

    /// What recording one span costs the surrounding code, outside the
    /// span's own net length.
    pub fn outside_ns(&self) -> u64 {
        self.record_ns.saturating_sub(self.clock_ns)
    }

    /// Net lengths of every span recorded so far under `name`, in ns.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans_named(name).iter().map(|s| self.net_ns(s) as f64).collect()
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Interns `name`, returning its id.
    pub fn name_id(&self, name: &str) -> u32 {
        let mut names = self.names.lock().expect("span names lock: a recorder user panicked");
        match names.iter().position(|n| n == name) {
            Some(id) => id as u32,
            None => {
                names.push(name.to_string());
                (names.len() - 1) as u32
            }
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(&self, name: u32, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        let mut spans = self.spans.lock().expect("span lock: a recorder user panicked");
        spans.push(Span { name, parent, start_ns, end_ns });
        (spans.len() - 1) as u32
    }

    /// Opens a span that [`SpanRecorder::close`] ends.
    pub fn open(&self, name: u32, parent: u32) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, now, now)
    }

    /// Ends a span opened with [`SpanRecorder::open`].
    pub fn close(&self, id: u32) {
        let now = self.now_ns();
        self.spans.lock().expect("span lock: a recorder user panicked")[id as usize].end_ns = now;
    }

    /// The span decorator spans currently nest under.
    pub fn parent(&self) -> u32 {
        self.parent.load(Ordering::Relaxed)
    }

    /// Sets the span decorator spans nest under.
    pub fn set_parent(&self, id: u32) {
        self.parent.store(id, Ordering::Relaxed);
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, counter: &str, n: u64) {
        let mut counters = self.counters.lock().expect("counter lock: a recorder user panicked");
        match counters.get_mut(counter) {
            Some(value) => *value += n,
            None => {
                counters.insert(counter.to_string(), n);
            }
        }
    }

    /// The named counter (0 when never added to).
    pub fn counter(&self, counter: &str) -> u64 {
        self.counters.lock().expect("counter lock").get(counter).copied().unwrap_or(0)
    }

    /// Every span recorded so far under `name`.
    pub fn spans_named(&self, name: &str) -> Vec<Span> {
        let Some(id) = self.names.lock().expect("span names lock").iter().position(|n| n == name)
        else {
            return Vec::new();
        };
        let spans = self.spans.lock().expect("span lock");
        spans.iter().filter(|s| s.name == id as u32).copied().collect()
    }

    /// Appends every span and counter of `self` to `other`, nesting
    /// top-level spans under `other`'s current parent.
    pub fn copy_into(&self, other: &SpanRecorder) {
        let names = self.names.lock().expect("span names lock");
        let ids: Vec<u32> = names.iter().map(|n| other.name_id(n)).collect();
        let parent = other.parent();
        let mut target = other.spans.lock().expect("span lock");
        let offset = target.len() as u32;
        for s in self.spans.lock().expect("span lock").iter() {
            target.push(Span {
                name: ids[s.name as usize],
                parent: if s.parent == NO_PARENT { parent } else { s.parent + offset },
                start_ns: s.start_ns,
                end_ns: s.end_ns,
            });
        }
        drop(target);
        for (name, value) in self.counters.lock().expect("counter lock").iter() {
            other.add(name, *value);
        }
    }

    /// Writes every span as CSV (`name,parent,start_ns,end_ns`), followed by
    /// the counters as `#counter,name,value` lines.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let names = self.names.lock().expect("span names lock");
        let spans = self.spans.lock().expect("span lock");
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,parent,start_ns,end_ns")?;
        for s in spans.iter() {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(out, "{},{},{},{}", names[s.name as usize], parent, s.start_ns, s.end_ns)?;
        }
        for (name, value) in self.counters.lock().expect("counter lock").iter() {
            writeln!(out, "#counter,{name},{value}")?;
        }
        out.flush()
    }
}

/// The nearest-rank quantile `q` of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * q).round() as usize]
}

/// The median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}
