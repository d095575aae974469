//! Benchmark-side twins of two family bodies, with spans inside them.
//!
//! A twin is a copy of a registered family's `run` that calls the same
//! public functions in the same order and additionally times the layer
//! calls the family makes: `SafetyKernel::run_cycle` and
//! `SafetyManager::evaluate` in `kernel-latency`, `EventBus::publish`,
//! `EventBus::drain_with` and `Engine::run_until` in `middleware-overload`.
//! Its spans only count when its [`RunRecord`] equals the family's for the
//! same spec ([`run_checked`]).
//!
//! Only one call in a stride is timed, so clock reads stay a small part of
//! the twin's run; the counters keep the exact number of calls, from which
//! the totals are estimated as `mean sampled span × calls`.  Spans never
//! nest inside the twin's loop: one sampled callback is timed whole, another
//! has its bus calls timed, so no span carries another span's clock reads.

use std::sync::Arc;
use std::time::Instant;

use karyon_core::{DesignTimeSafetyInfo, SafetyKernel, SafetyManager};
use karyon_middleware::{
    EventBus, NetworkCapability, NetworkId, OverloadStrategy, Payload, QosClass, QosRequirement,
    SubscriptionId,
};
use karyon_scenario::{RunRecord, Scenario, ScenarioSpec};
use karyon_sensors::Validity;
use karyon_sim::{Engine, SimDuration, SimTime};

use crate::spans::SpanRecorder;

/// One kernel cycle in this many is timed.
pub const CYCLE_STRIDE: u64 = 16;
/// Of every this many publish callbacks, one is timed whole and one has
/// its `publish` call timed.
pub const PUBLISH_STRIDE: u64 = 64;
/// Of every this many drain ticks, one is timed whole and one has its
/// `drain_with` calls timed.  Coprime to the family's 8-tick bulk-drain
/// cycle, so the samples cover every phase of it.
pub const DRAIN_STRIDE: u64 = 9;

/// The families that have a twin.
pub const TWINNED: [&str; 2] = ["kernel-latency", "middleware-overload"];

/// Wall times of one checked twin run.
#[derive(Debug, Clone, Copy)]
pub struct TwinTiming {
    /// The twin's run, spans included.
    pub twin_ns: u64,
    /// The registered family's run of the same spec.
    pub family_ns: u64,
}

/// Runs the twin of `family` on `spec` and checks its record against
/// `family`'s own run of the same spec.
///
/// The twin's spans and counters reach `spans` only when the two records
/// are equal; otherwise they are dropped and the error names the spec.
pub fn run_checked(
    family: &Arc<dyn Scenario>,
    spec: &ScenarioSpec,
    spans: &SpanRecorder,
) -> Result<TwinTiming, String> {
    let started = Instant::now();
    let expected = family.run(spec);
    let family_ns = started.elapsed().as_nanos() as u64;
    let probe = SpanRecorder::default();
    let started = Instant::now();
    let record = match family.name() {
        "kernel-latency" => kernel_latency(spec, &probe),
        "middleware-overload" => middleware_overload(spec, &probe),
        other => return Err(format!("no twin for family {other:?}")),
    };
    let twin_ns = started.elapsed().as_nanos() as u64;
    if record != expected {
        return Err(format!(
            "twin of {} differs from the family on spec {}",
            family.name(),
            spec.to_json()
        ));
    }
    probe.copy_into(spans);
    Ok(TwinTiming { twin_ns, family_ns })
}

/// Twin of `KernelLatencyScenario::run`.
pub fn kernel_latency(spec: &ScenarioSpec, spans: &SpanRecorder) -> RunRecord {
    let run_span = spans.open(spans.name_id("twin.kernel-latency"), spans.parent());
    let cycle_name = spans.name_id("core.run_cycle");
    let evaluate_name = spans.name_id("core.evaluate");

    let rules_per_level = spec.u64_or("rules_per_level", 8).clamp(0, 100_000) as usize;
    let levels = spec.u64_or("levels", 2).clamp(1, 200) as u8;
    let design = DesignTimeSafetyInfo::synthetic(
        "kernel-latency",
        levels,
        rules_per_level,
        spec.f64_or("validity_threshold", 0.6).clamp(0.0, 1.0),
        SimDuration::from_millis(spec.u64_or("hazard_bound_ms", 500).max(1)),
        SimDuration::from_millis(50),
    );
    let tightest = design.hazards().tightest_reaction_bound().expect("one hazard declared");
    let cycle_period = SimDuration::from_millis(spec.u64_or("cycle_period_ms", 100).max(1));
    // `run_cycle` calls `evaluate` internally; a shadow manager over the
    // same design repeats the sampled cycles' evaluation, so the
    // evaluation's share of a cycle is measured without touching the kernel.
    let mut shadow = SafetyManager::new(design.clone());
    let mut kernel = SafetyKernel::new(design, cycle_period);
    for i in 0..rules_per_level {
        kernel.info_mut().update_data(
            &format!("item-{i}"),
            1.0,
            Validity::new(0.9),
            SimTime::from_millis(1),
        );
        kernel.info_mut().update_health(&format!("component-{i}"), true, SimTime::from_millis(1));
    }
    let cycles = spec.u64_or("cycles", 2_000).clamp(1, 10_000_000);
    for i in 0..cycles {
        let now = SimTime::from_millis(10 + i);
        if i % CYCLE_STRIDE == 0 {
            let start = spans.now_ns();
            kernel.run_cycle(now);
            let end = spans.now_ns();
            shadow.evaluate(kernel.info(), now);
            spans.record(cycle_name, run_span, start, end);
            spans.record(evaluate_name, run_span, end, spans.now_ns());
        } else {
            kernel.run_cycle(now);
        }
    }
    spans.add("core.evaluations", kernel.manager().evaluations());
    let reaction = kernel.worst_case_reaction();

    let mut record = RunRecord::new();
    record.set("rule_conditions", (rules_per_level * 3 * levels as usize) as f64);
    record.set("evaluations", kernel.manager().evaluations() as f64);
    record.set("final_los", f64::from(kernel.current_los().0));
    record.set("worst_case_reaction_ms", reaction.as_secs_f64() * 1e3);
    record.set("tightest_hazard_bound_ms", tightest.as_secs_f64() * 1e3);
    record.set_flag("bound_satisfied", reaction <= tightest);
    spans.close(run_span);
    record
}

#[derive(Debug, Clone, Copy)]
enum OverloadEvent {
    Publish,
    Drain,
}

/// The family's per-class mailbox capacities.
fn overload_mailbox_capacity(class: QosClass) -> usize {
    match class {
        QosClass::Realtime => 8,
        QosClass::Batched => 64,
        QosClass::Background => 1024,
    }
}

/// Twin of `MiddlewareOverloadScenario::run`.
pub fn middleware_overload(spec: &ScenarioSpec, spans: &SpanRecorder) -> RunRecord {
    let run_span = spans.open(spans.name_id("twin.middleware-overload"), spans.parent());
    let publish_name = spans.name_id("middleware.publish");
    let drain_name = spans.name_id("middleware.drain");
    let publish_cb_name = spans.name_id("sim.callback.publish");
    let drain_cb_name = spans.name_id("sim.callback.drain");
    let run_until_name = spans.name_id("sim.run_until");

    let load_x = spec.f64_or("load_x", 10.0).max(0.01);
    let rated_hz = spec.f64_or("rated_hz", 100.0).max(1.0);
    let backlog_threshold = spec.u64_or("backlog_threshold", 1024) as usize;
    let strategy = match spec.str_or("strategy", "class-default") {
        "class-default" => None,
        other => Some(
            OverloadStrategy::from_name(other)
                .unwrap_or_else(|| panic!("unknown overload strategy {other:?}")),
        ),
    };
    let classes: &[QosClass] = match spec.str_or("qos_mix", "mixed") {
        "mixed" => &[QosClass::Realtime, QosClass::Batched, QosClass::Background],
        "realtime" => &[QosClass::Realtime],
        "batched" => &[QosClass::Batched],
        "background" => &[QosClass::Background],
        other => panic!("unknown qos_mix {other:?} (expected mixed|realtime|batched|background)"),
    };

    let mut bus = EventBus::new(spec.seed);
    bus.attach_network(NetworkId(0), NetworkCapability::local_bus());
    bus.set_backlog_threshold(backlog_threshold);
    let mut subs: Vec<(QosClass, SubscriptionId)> = Vec::new();
    for &class in classes {
        let mut topic = bus.topic("overload.stream").mailbox(overload_mailbox_capacity(class));
        if let Some(strategy) = strategy {
            topic = topic.overload(strategy);
        }
        subs.push((class, topic.subscribe(class)));
    }
    let publisher = bus
        .topic("overload.stream")
        .announce(QosRequirement::realtime(SimDuration::from_millis(60), rated_hz * load_x));

    let publish_period =
        SimDuration::from_secs_f64(1.0 / (rated_hz * load_x)).max(SimDuration::from_micros(1));
    let drain_period = SimDuration::from_secs_f64(1.0 / rated_hz).max(SimDuration::from_micros(1));
    let end = SimTime::ZERO + spec.duration;
    let mut engine: Engine<EventBus, OverloadEvent> = Engine::new(bus);
    karyon_telemetry::observe_engine(&mut engine);
    engine.schedule_periodic(SimTime::ZERO, publish_period, OverloadEvent::Publish);
    engine.schedule_periodic(SimTime::ZERO, drain_period, OverloadEvent::Drain);
    let mut published: u64 = 0;
    let mut peak_backlog: usize = 0;
    let mut drain_tick: u64 = 0;
    let mut drain_calls: u64 = 0;
    // Spans recorded inside `run_until`, whose recording the engine's self
    // time must not be charged with.
    let mut sampled: u64 = 0;
    let run_until_start = spans.now_ns();
    engine.run_until(end, |bus, ctx, event| match event {
        OverloadEvent::Publish => {
            let phase = published % PUBLISH_STRIDE;
            if phase == 0 {
                let start = spans.now_ns();
                bus.publish(&publisher, Payload::tagged(published), ctx.now());
                published += 1;
                peak_backlog = peak_backlog.max(bus.backlog());
                spans.record(publish_cb_name, run_span, start, spans.now_ns());
                sampled += 1;
            } else if phase == PUBLISH_STRIDE / 2 {
                let start = spans.now_ns();
                bus.publish(&publisher, Payload::tagged(published), ctx.now());
                spans.record(publish_name, run_span, start, spans.now_ns());
                sampled += 1;
                published += 1;
                peak_backlog = peak_backlog.max(bus.backlog());
            } else {
                bus.publish(&publisher, Payload::tagged(published), ctx.now());
                published += 1;
                peak_backlog = peak_backlog.max(bus.backlog());
            }
        }
        OverloadEvent::Drain => {
            let phase = drain_tick % DRAIN_STRIDE;
            let callback_start = (phase == 0).then(|| spans.now_ns());
            for &(class, sub) in &subs {
                let budget = match class {
                    QosClass::Realtime => usize::MAX,
                    QosClass::Batched => 1,
                    QosClass::Background => {
                        if drain_tick.is_multiple_of(8) {
                            usize::MAX
                        } else {
                            0
                        }
                    }
                };
                if budget > 0 {
                    drain_calls += 1;
                    if phase == DRAIN_STRIDE / 2 {
                        let start = spans.now_ns();
                        bus.drain_with(sub, ctx.now(), budget, |_| {});
                        spans.record(drain_name, run_span, start, spans.now_ns());
                        sampled += 1;
                    } else {
                        bus.drain_with(sub, ctx.now(), budget, |_| {});
                    }
                }
            }
            drain_tick += 1;
            if let Some(start) = callback_start {
                spans.record(drain_cb_name, run_span, start, spans.now_ns());
                sampled += 1;
            }
        }
    });
    spans.record(run_until_name, run_span, run_until_start, spans.now_ns());
    spans.add("middleware.publish.calls", published);
    spans.add("middleware.drain.calls", drain_calls);
    spans.add("sim.callbacks.publish", published);
    spans.add("sim.callbacks.drain", drain_tick);
    spans.add("sim.events", engine.processed());
    spans.add("sim.sampled_spans", sampled);

    let mut record = RunRecord::new();
    record.absorb_engine_clamps(&engine);
    let bus = engine.into_state();
    record.set("published", published as f64);
    record.set("peak_backlog", peak_backlog as f64);
    let mut delivered = 0u64;
    for (class, sub) in subs {
        let stats = bus.subscription_stats(sub).expect("subscription exists");
        let prefix = class.name();
        delivered += stats.delivered;
        record.set(&format!("{prefix}_delivery_ratio"), stats.delivery_ratio());
        record.set(&format!("{prefix}_p99_ms"), stats.p99_latency_ms);
        record.set(&format!("{prefix}_delivered"), stats.delivered as f64);
        record.set(
            &format!("{prefix}_dropped"),
            (stats.dropped_pressure + stats.dropped_capacity + stats.sampled_out + stats.displaced)
                as f64,
        );
    }
    spans.add("middleware.delivered", delivered);
    spans.close(run_span);
    record
}
