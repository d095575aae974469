//! Allocation budgets of the per-run hand-off from campaign workers to the
//! collector.
//!
//! A campaign holds every in-flight run's trace and metric record until the
//! canonical-order merge reaches it, so what one record costs in heap
//! allocations is what a chunk costs many thousand times over.  A counting
//! global allocator pins the budgets: trace names and attribute keys are
//! stored without copying, overwriting a metric costs nothing, and a point
//! aggregate copies a metric name only the first time it sees it.
//!
//! The counter is per thread, so tests running in parallel in this binary do
//! not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use karyon::scenario::aggregate::PointAccumulator;
use karyon::scenario::RunRecord;
use karyon::sim::SimTime;
use karyon::telemetry::{trace, AttrValue, JsonlTraceWriter, RunCoords, TraceSink};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn two_attr_event(n: u64) {
    trace::event(
        "budget.tick",
        SimTime::from_micros(n),
        &[("pops", AttrValue::U64(n)), ("depth", AttrValue::U64(n % 7))],
    );
}

#[test]
fn a_traced_event_allocates_only_its_attribute_list() {
    assert_eq!(allocations_during(|| two_attr_event(0)), 0, "no scope, no allocation");
    let ((), records) = trace::collect(|| {
        // The first event grows the scope's buffer; measure the second.
        two_attr_event(1);
        let cost = allocations_during(|| two_attr_event(2));
        assert_eq!(cost, 1, "one allocation (the attribute list), none for name or keys");
        let bare = allocations_during(|| trace::event("budget.bare", SimTime::ZERO, &[]));
        assert_eq!(bare, 0, "an attribute-free event allocates nothing");
    });
    assert_eq!(records.len(), 3);
    assert_eq!(records[1].name(), "budget.tick");
    assert_eq!(records[1].attrs()[1], ("depth", AttrValue::U64(2)));
}

#[test]
fn overwriting_a_metric_allocates_nothing() {
    let mut record = RunRecord::new();
    record.set("delivery_ratio", 0.5);
    record.set_flag("collision", false);
    let dynamic = format!("class{}_p99_ms", 2);
    record.set(&dynamic, 12.0);
    let cost = allocations_during(|| {
        record.set("delivery_ratio", 0.75);
        record.set_flag("collision", true);
        record.set(&dynamic, 13.5);
    });
    assert_eq!(cost, 0);
    assert_eq!(record.get("delivery_ratio"), Some(0.75));
    assert_eq!(record.get(&dynamic), Some(13.5));
}

#[test]
fn a_record_owns_two_allocations_however_many_metrics_it_has() {
    let mut record = RunRecord::new();
    for i in 0..12 {
        record.set(&format!("metric_{i:02}"), i as f64);
    }
    // A copy of a record is what a sink-attached chunk holds per run: one
    // name buffer and one slot vector.
    assert_eq!(allocations_during(|| drop(record.clone())), 2);
}

#[test]
fn aggregating_known_metrics_allocates_nothing() {
    // Declared ranges stream into fixed histograms, so recording itself
    // never allocates; what is left to pin is the per-run name handling.
    let range = |_: &str| Some((0.0, 100.0));
    let mut point = PointAccumulator::default();
    let mut record = RunRecord::new();
    record.set("latency_ms", 10.0);
    record.set("delivery_ratio", 0.9);
    record.set_flag("hazard", false);
    point.record_run(&record, &range);
    record.set("latency_ms", 20.0);
    let cost = allocations_during(|| point.record_run(&record, &range));
    assert_eq!(cost, 0, "metrics seen before are looked up, not re-keyed");
    assert_eq!(point.runs, 2);
    assert_eq!(point.metrics.len(), 3);
}

#[test]
fn a_warm_trace_writer_formats_lines_without_allocating() {
    let ((), records) = trace::collect(|| {
        two_attr_event(5);
        trace::span("budget.run", SimTime::ZERO, SimTime::from_millis(1), &[]);
    });
    let coords = RunCoords { run_index: 7, point: 1, replication: 3, seed: 99 };
    let mut writer = JsonlTraceWriter::new(std::io::sink());
    writer.on_run_records(&coords, &records);
    let cost = allocations_during(|| writer.on_run_records(&coords, &records));
    assert_eq!(cost, 0, "the line buffer is reused and numbers are written in place");
    assert_eq!(writer.written(), 4);
}
