//! Discrete-event and fixed-step simulation drivers.
//!
//! Two execution styles are provided because the KARYON experiments need
//! both:
//!
//! * [`Engine`] — a classic discrete-event loop (used by the network and
//!   middleware simulations where activity is bursty), and
//! * [`FixedStepSim`] — a fixed-period ticker (used by the vehicle dynamics
//!   and control loops, which the paper models as periodic tasks below the
//!   hybridization line).

use std::fmt;

use crate::events::{EventQueue, TrainId};
use crate::time::{SimDuration, SimTime};

/// Observer of an [`Engine`]'s internal transitions, installed with
/// [`Engine::set_observer`].
///
/// Every method has an empty default body, so an observer implements only the
/// transitions it cares about.  With no observer installed each hook site is
/// a single `Option` branch, which keeps the unobserved engine at its
/// original speed — observers exist for instrumentation (tracing,
/// queue-depth profiling), not for simulation logic: they receive shared
/// references only and cannot influence the run.
///
/// The observer sees:
/// * [`on_schedule`](EngineObserver::on_schedule) — every accepted schedule
///   (engine- or context-side), with the post-clamp firing time;
/// * [`on_clamp`](EngineObserver::on_clamp) — every causality clamp, with the
///   originally requested (past) time and the event, so clamp diagnostics can
///   carry the event's own label;
/// * [`on_periodic`](EngineObserver::on_periodic) — every periodic train
///   registration, with its (post-clamp) start and period.  Individual train
///   ticks are *not* reported as schedules (they never pass through the
///   queue's schedule path), but each dispatched tick still fires
///   [`on_pop`](EngineObserver::on_pop);
/// * [`on_pop`](EngineObserver::on_pop) — every event dispatch, with the
///   number of events still pending after the pop;
/// * [`on_stop`](EngineObserver::on_stop) — a handler's [`Context::stop`]
///   taking effect.
pub trait EngineObserver<E> {
    /// An event was accepted for execution at (post-clamp) time `time`.
    fn on_schedule(&mut self, now: SimTime, time: SimTime, event: &E) {
        let _ = (now, time, event);
    }

    /// A periodic train was registered: `event` fires at `start`,
    /// `start + period`, … until cancelled.  Fires once per
    /// [`Engine::schedule_periodic`] call, not per tick.
    fn on_periodic(&mut self, now: SimTime, start: SimTime, period: SimDuration, event: &E) {
        let _ = (now, start, period, event);
    }

    /// A schedule requested the past time `requested` and was clamped to
    /// `now`.  Fires in addition to (before) the matching
    /// [`on_schedule`](EngineObserver::on_schedule).
    fn on_clamp(&mut self, now: SimTime, requested: SimTime, event: &E) {
        let _ = (now, requested, event);
    }

    /// An event is about to be handled at `time`; `depth` is the queue length
    /// after the pop.
    fn on_pop(&mut self, time: SimTime, event: &E, depth: usize) {
        let _ = (time, event, depth);
    }

    /// A handler requested a stop; the run loop exits after this event.
    fn on_stop(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// A train control operation staged by a handler through [`Context`] and
/// applied after the handler returns (after any staged schedules).
#[derive(Debug, Clone, Copy)]
enum TrainOp {
    Cancel(TrainId),
    Retune(TrainId, SimDuration),
}

/// Scheduling handle passed to the event handler of an [`Engine`].
///
/// The handler cannot touch the engine directly (it is being iterated), so new
/// events are staged in the context and scheduled one by one, in staging
/// order, after the handler returns — so they take their sequence numbers
/// (and FIFO tie ranks) exactly as direct schedules would.  The staging
/// buffer is owned by the engine and reused across events.  Train
/// cancel/retune requests are staged the same way and applied after the
/// staged schedules.
pub struct Context<'a, E> {
    now: SimTime,
    staged: &'a mut Vec<(SimTime, E)>,
    train_ops: &'a mut Vec<TrainOp>,
    stop_requested: bool,
    clamped: u64,
    observer: Option<&'a mut (dyn EngineObserver<E> + 'a)>,
}

impl<E> fmt::Debug for Context<'_, E>
where
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("staged", &self.staged)
            .field("train_ops", &self.train_ops)
            .field("stop_requested", &self.stop_requested)
            .field("clamped", &self.clamped)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<'a, E> Context<'a, E> {
    fn new(
        now: SimTime,
        staged: &'a mut Vec<(SimTime, E)>,
        train_ops: &'a mut Vec<TrainOp>,
        observer: Option<&'a mut (dyn EngineObserver<E> + 'a)>,
    ) -> Self {
        Context { now, staged, train_ops, stop_requested: false, clamped: 0, observer }
    }

    /// The current simulation time (the firing time of the event being handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.  Times in the past are clamped
    /// to "now" so causality is never violated; every clamp is counted and
    /// surfaced through [`Engine::clamped_schedules`], because a model that
    /// schedules into the past is usually a model with a causality bug.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        // Clamp policy: identical to `Engine::schedule_at` — keep in sync.
        let t = if time < self.now {
            self.clamped += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_clamp(self.now, time, &event);
            }
            self.now
        } else {
            time
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.staged.push((t, event));
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let t = self.now + delay;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.staged.push((t, event));
    }

    /// Requests cancellation of a periodic train created with
    /// [`Engine::schedule_periodic`].  Applied after the current handler
    /// returns (after its staged schedules); unknown ids are ignored.
    pub fn cancel_train(&mut self, id: TrainId) {
        self.train_ops.push(TrainOp::Cancel(id));
    }

    /// Requests a period change for a periodic train, taking effect for the
    /// intervals after the train's next (already-materialized) tick.  Applied
    /// after the current handler returns; unknown ids are ignored.
    ///
    /// # Panics
    /// The engine panics when applying a zero `period`.
    pub fn retune_train(&mut self, id: TrainId, period: SimDuration) {
        self.train_ops.push(TrainOp::Retune(id, period));
    }

    /// Requests that the simulation stop after the current event is processed.
    pub fn stop(&mut self) {
        self.stop_requested = true;
    }
}

/// A deterministic discrete-event simulation engine.
///
/// `S` is the simulation state, `E` the event type.  Event handling is driven
/// by a closure passed to [`Engine::run`] / [`Engine::run_until`], which keeps
/// the engine free of trait-object plumbing and lets each experiment define
/// its own event enum.
pub struct Engine<S, E> {
    state: S,
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    clamped: u64,
    /// Reusable staging buffer lent to the per-event [`Context`].
    staged: Vec<(SimTime, E)>,
    /// Reusable staging buffer for train cancel/retune requests.
    staged_train_ops: Vec<TrainOp>,
    observer: Option<Box<dyn EngineObserver<E>>>,
}

impl<S, E> fmt::Debug for Engine<S, E>
where
    S: fmt::Debug,
    E: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("state", &self.state)
            .field("queue", &self.queue)
            .field("now", &self.now)
            .field("processed", &self.processed)
            .field("clamped", &self.clamped)
            .field("staged", &self.staged)
            .field("staged_train_ops", &self.staged_train_ops)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl<S, E> Engine<S, E> {
    /// Creates an engine at time zero with the given initial state.
    pub fn new(state: S) -> Self {
        Engine {
            state,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            clamped: 0,
            staged: Vec::new(),
            staged_train_ops: Vec::new(),
            observer: None,
        }
    }

    /// Installs an [`EngineObserver`] that will see every schedule, clamp,
    /// pop and stop from here on.  Replaces any previous observer.
    ///
    /// Observation is strictly read-only instrumentation: observers never
    /// change what the engine does, only record it, so an observed run and an
    /// unobserved run of the same model are identical.
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver<E>>) {
        self.observer = Some(observer);
    }

    /// Removes and returns the installed observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<dyn EngineObserver<E>>> {
        self.observer.take()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of schedules (via [`Engine::schedule_at`] or
    /// [`Context::schedule_at`]) whose requested time lay in the past and was
    /// clamped to "now".  A non-zero value flags a causality-suspect model;
    /// campaign runners use it to mark runs as suspect instead of silently
    /// accepting the clamp.
    pub fn clamped_schedules(&self) -> u64 {
        self.clamped
    }

    /// Shared access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the simulation state.
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the engine and returns the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules an event at an absolute simulation time (clamped to now).
    /// Clamps are counted in [`Engine::clamped_schedules`].
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        // Clamp policy: identical to `Context::schedule_at` — keep in sync.
        let t = if time < self.now {
            self.clamped += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_clamp(self.now, time, &event);
            }
            self.now
        } else {
            time
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.queue.schedule(t, event);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let t = self.now + delay;
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_schedule(self.now, t, &event);
        }
        self.queue.schedule(t, event);
    }

    /// Registers a periodic event train: `event` fires at `start`,
    /// `start + period`, … until [cancelled](Engine::cancel_train), cloning
    /// the payload per tick.  A `start` in the past is clamped to "now" (and
    /// counted) exactly like [`Engine::schedule_at`].
    ///
    /// Ticks are lazily materialized by the queue (no per-tick schedule) and
    /// keep exact FIFO tie semantics: the train consumes one sequence number
    /// at this call and behaves as if every tick had been scheduled up front
    /// here (see [`EventQueue::schedule_periodic`]).
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn schedule_periodic(&mut self, start: SimTime, period: SimDuration, event: E) -> TrainId {
        let t = if start < self.now {
            self.clamped += 1;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_clamp(self.now, start, &event);
            }
            self.now
        } else {
            start
        };
        if let Some(obs) = self.observer.as_deref_mut() {
            obs.on_periodic(self.now, t, period, &event);
        }
        self.queue.schedule_periodic(t, period, event)
    }

    /// Cancels a periodic train immediately, returning its payload (`None`
    /// if `id` is unknown or already cancelled).
    pub fn cancel_train(&mut self, id: TrainId) -> Option<E> {
        self.queue.cancel_train(id)
    }

    /// Changes a train's period for the intervals after its next
    /// (already-materialized) tick.  Returns false if `id` is unknown.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn retune_train(&mut self, id: TrainId, period: SimDuration) -> bool {
        self.queue.retune_train(id, period)
    }

    /// Number of pending events (each active periodic train counts as one).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Runs until the queue is empty or a handler calls [`Context::stop`].
    /// Returns the number of events processed by this call.
    ///
    /// Note that a queue with an active periodic train never drains on its
    /// own: bound such runs with [`Engine::run_until`] or a
    /// [`Context::stop`].
    pub fn run(&mut self, mut handler: impl FnMut(&mut S, &mut Context<'_, E>, E)) -> u64
    where
        E: Clone,
    {
        self.run_inner(SimTime::MAX, &mut handler).0
    }

    /// Runs until `deadline` (inclusive), the queue is empty, or a handler
    /// calls [`Context::stop`].  The engine clock is advanced to `deadline`
    /// if the queue drains earlier — but *not* after a stop: a stopped run
    /// stays at the stopping event's time, so events (or train ticks)
    /// between it and the deadline are not skipped on resume.  Returns
    /// events processed by this call.
    pub fn run_until(
        &mut self,
        deadline: SimTime,
        mut handler: impl FnMut(&mut S, &mut Context<'_, E>, E),
    ) -> u64
    where
        E: Clone,
    {
        let (n, stopped) = self.run_inner(deadline, &mut handler);
        if !stopped && self.now < deadline && deadline != SimTime::MAX {
            self.now = deadline;
        }
        n
    }

    /// Returns (events processed, whether a handler stopped the run).
    fn run_inner(
        &mut self,
        deadline: SimTime,
        handler: &mut impl FnMut(&mut S, &mut Context<'_, E>, E),
    ) -> (u64, bool)
    where
        E: Clone,
    {
        let mut count = 0;
        while let Some((t, ev)) = self.queue.pop_until(deadline) {
            self.now = t;
            if let Some(obs) = self.observer.as_deref_mut() {
                obs.on_pop(t, &ev, self.queue.len());
            }
            let observer: Option<&mut (dyn EngineObserver<E> + '_)> = match &mut self.observer {
                Some(obs) => Some(obs.as_mut()),
                None => None,
            };
            let mut ctx = Context::new(t, &mut self.staged, &mut self.staged_train_ops, observer);
            handler(&mut self.state, &mut ctx, ev);
            let (stop, clamped) = (ctx.stop_requested, ctx.clamped);
            // Schedule the handler's staged events in staging order, then
            // apply its train ops.
            for (time, event) in self.staged.drain(..) {
                self.queue.schedule(time, event);
            }
            for op in self.staged_train_ops.drain(..) {
                match op {
                    TrainOp::Cancel(id) => {
                        self.queue.cancel_train(id);
                    }
                    TrainOp::Retune(id, period) => {
                        self.queue.retune_train(id, period);
                    }
                }
            }
            self.clamped += clamped;
            self.processed += 1;
            count += 1;
            if stop {
                if let Some(obs) = self.observer.as_deref_mut() {
                    obs.on_stop(self.now);
                }
                return (count, true);
            }
        }
        (count, false)
    }
}

/// A fixed-step simulation driver: calls a step function every `period` until
/// a stop time is reached.
///
/// This mirrors how the paper's periodic control tasks (safety-manager cycle,
/// ACC control loop) execute: a statically known period with a design-time
/// bound on each cycle.
#[derive(Debug)]
pub struct FixedStepSim {
    now: SimTime,
    period: SimDuration,
    step_index: u64,
}

impl FixedStepSim {
    /// Creates a fixed-step driver with the given tick period.
    ///
    /// # Panics
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(!period.is_zero(), "FixedStepSim period must be non-zero");
        FixedStepSim { now: SimTime::ZERO, period, step_index: 0 }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The tick period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Index of the next step to execute (0 for the first).
    pub fn step_index(&self) -> u64 {
        self.step_index
    }

    /// Runs steps until simulated time reaches `until` (exclusive of steps
    /// that would start at or after it).  The step callback receives the
    /// current time and the step index.  Returns the number of steps run.
    pub fn run_until(&mut self, until: SimTime, mut step: impl FnMut(SimTime, u64)) -> u64 {
        let mut executed = 0;
        while self.now < until {
            step(self.now, self.step_index);
            self.step_index += 1;
            self.now += self.period;
            executed += 1;
        }
        executed
    }

    /// Runs exactly `n` steps.
    pub fn run_steps(&mut self, n: u64, mut step: impl FnMut(SimTime, u64)) {
        for _ in 0..n {
            step(self.now, self.step_index);
            self.step_index += 1;
            self.now += self.period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[test]
    fn engine_processes_in_order_and_reschedules() {
        let mut engine: Engine<Vec<u32>, Ev> = Engine::new(Vec::new());
        engine.schedule_in(SimDuration::from_millis(10), Ev::Ping(0));
        engine.run(|log, ctx, ev| {
            if let Ev::Ping(n) = ev {
                log.push(n);
                if n < 4 {
                    ctx.schedule_in(SimDuration::from_millis(10), Ev::Ping(n + 1));
                }
            }
        });
        assert_eq!(engine.state(), &vec![0, 1, 2, 3, 4]);
        assert_eq!(engine.now(), SimTime::from_millis(50));
        assert_eq!(engine.processed(), 5);
    }

    #[test]
    fn engine_stop_halts_early() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        for i in 0..10 {
            engine.schedule_at(SimTime::from_millis(i), Ev::Ping(i as u32));
        }
        engine.schedule_at(SimTime::from_millis(3), Ev::Stop);
        engine.run(|count, ctx, ev| match ev {
            Ev::Ping(_) => *count += 1,
            Ev::Stop => ctx.stop(),
        });
        // Events at t=0..=3 ms processed (4 pings) plus the stop event.
        assert_eq!(*engine.state(), 4);
        assert!(engine.pending() > 0);
    }

    #[test]
    fn engine_run_until_advances_clock_to_deadline() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.schedule_at(SimTime::from_millis(5), Ev::Ping(1));
        engine.schedule_at(SimTime::from_millis(500), Ev::Ping(2));
        let n = engine.run_until(SimTime::from_millis(100), |c, _, _| *c += 1);
        assert_eq!(n, 1);
        assert_eq!(*engine.state(), 1);
        assert_eq!(engine.now(), SimTime::from_millis(100));
        assert_eq!(engine.pending(), 1);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut engine: Engine<Vec<u64>, Ev> = Engine::new(Vec::new());
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|log, ctx, _| {
            log.push(ctx.now().as_millis());
            if log.len() == 1 {
                // Attempt to schedule in the past; must fire "now", not before.
                ctx.schedule_at(SimTime::from_millis(1), Ev::Ping(1));
            }
        });
        assert_eq!(engine.state(), &vec![10, 10]);
        assert_eq!(engine.clamped_schedules(), 1, "the past-time schedule must be counted");
    }

    #[test]
    fn clamp_counter_covers_engine_and_context_schedules() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|c, _, _| *c += 1);
        assert_eq!(engine.clamped_schedules(), 0, "forward schedules never clamp");
        // The engine clock is now at 10 ms: a direct past schedule clamps too.
        engine.schedule_at(SimTime::from_millis(2), Ev::Ping(1));
        assert_eq!(engine.clamped_schedules(), 1);
        engine.run(|c, _, _| *c += 1);
        assert_eq!(*engine.state(), 2);
    }

    #[test]
    fn observer_sees_schedules_clamps_pops_and_stop() {
        #[derive(Default)]
        struct Log(std::rc::Rc<RefCell<Vec<String>>>);
        use std::cell::RefCell;
        impl EngineObserver<Ev> for Log {
            fn on_schedule(&mut self, now: SimTime, time: SimTime, _ev: &Ev) {
                self.0.borrow_mut().push(format!(
                    "sched {}->{}",
                    now.as_millis(),
                    time.as_millis()
                ));
            }
            fn on_clamp(&mut self, now: SimTime, requested: SimTime, ev: &Ev) {
                self.0.borrow_mut().push(format!(
                    "clamp {}<-{} {ev:?}",
                    now.as_millis(),
                    requested.as_millis()
                ));
            }
            fn on_pop(&mut self, time: SimTime, _ev: &Ev, depth: usize) {
                self.0.borrow_mut().push(format!("pop {} depth {depth}", time.as_millis()));
            }
            fn on_stop(&mut self, now: SimTime) {
                self.0.borrow_mut().push(format!("stop {}", now.as_millis()));
            }
        }

        let log = Log::default();
        let lines = log.0.clone();
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.set_observer(Box::new(log));
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|n, ctx, ev| {
            *n += 1;
            if ev == Ev::Ping(0) {
                // One clamped (past-time) and one forward schedule from the
                // handler context — both must be observed.
                ctx.schedule_at(SimTime::from_millis(1), Ev::Ping(1));
                ctx.schedule_in(SimDuration::from_millis(5), Ev::Stop);
            }
            if ev == Ev::Stop {
                ctx.stop();
            }
        });
        assert_eq!(
            *lines.borrow(),
            vec![
                "sched 0->10",
                "pop 10 depth 0",
                "clamp 10<-1 Ping(1)",
                "sched 10->10",
                "sched 10->15",
                "pop 10 depth 1",
                "pop 15 depth 0",
                "stop 15",
            ]
        );
        assert_eq!(engine.clamped_schedules(), 1, "observation does not change counting");
        assert!(engine.take_observer().is_some());
        assert!(engine.take_observer().is_none());
    }

    #[test]
    fn periodic_train_drives_the_engine() {
        let mut engine: Engine<Vec<u64>, Ev> = Engine::new(Vec::new());
        let id = engine.schedule_periodic(
            SimTime::from_millis(10),
            SimDuration::from_millis(10),
            Ev::Ping(7),
        );
        let n = engine.run_until(SimTime::from_millis(45), |log, ctx, _| {
            log.push(ctx.now().as_millis());
        });
        assert_eq!(n, 4, "ticks at 10/20/30/40 ms fall inside the window");
        assert_eq!(engine.state(), &vec![10, 20, 30, 40]);
        assert_eq!(engine.now(), SimTime::from_millis(45), "clock still advances to deadline");
        assert_eq!(engine.pending(), 1, "the train stays pending");
        assert_eq!(engine.cancel_train(id), Some(Ev::Ping(7)));
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn periodic_start_in_the_past_is_clamped() {
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.schedule_at(SimTime::from_millis(10), Ev::Ping(0));
        engine.run(|c, ctx, _| {
            *c += 1;
            if *c >= 3 {
                ctx.stop();
            }
        });
        let id = engine.schedule_periodic(
            SimTime::from_millis(1),
            SimDuration::from_millis(100),
            Ev::Ping(1),
        );
        assert_eq!(engine.clamped_schedules(), 1, "past train starts are causality-suspect too");
        let mut first = None;
        engine.run(|_, ctx, _| {
            first = Some(ctx.now());
            ctx.stop();
        });
        assert_eq!(first, Some(SimTime::from_millis(10)), "the start was clamped to now");
        engine.cancel_train(id);
    }

    #[test]
    fn context_can_cancel_and_retune_trains() {
        let mut engine: Engine<Vec<(u64, u32)>, Ev> = Engine::new(Vec::new());
        let slow = engine.schedule_periodic(
            SimTime::from_millis(10),
            SimDuration::from_millis(10),
            Ev::Ping(1),
        );
        let doomed = engine.schedule_periodic(
            SimTime::from_millis(15),
            SimDuration::from_millis(10),
            Ev::Ping(2),
        );
        engine.run_until(SimTime::from_millis(100), |log, ctx, ev| {
            let Ev::Ping(k) = ev else { return };
            log.push((ctx.now().as_millis(), k));
            if ctx.now() == SimTime::from_millis(15) {
                // Applied after this handler: train 2 never fires again, and
                // train 1's period stretches after its next tick (20 ms).
                ctx.cancel_train(doomed);
                ctx.retune_train(slow, SimDuration::from_millis(30));
            }
        });
        assert_eq!(
            engine.state(),
            &vec![(10, 1), (15, 2), (20, 1), (50, 1), (80, 1)],
            "cancel stops the doomed train; retune applies after the materialized tick"
        );
    }

    #[test]
    fn stopped_run_until_does_not_skip_ahead() {
        // After a stop, the clock must stay at the stopping event so a
        // resumed run replays nothing and skips nothing.
        let mut engine: Engine<Vec<u64>, Ev> = Engine::new(Vec::new());
        engine.schedule_at(SimTime::from_millis(10), Ev::Stop);
        engine.schedule_at(SimTime::from_millis(20), Ev::Ping(1));
        let n = engine.run_until(SimTime::from_millis(100), |_, ctx, ev| {
            if ev == Ev::Stop {
                ctx.stop();
            }
        });
        assert_eq!(n, 1);
        assert_eq!(engine.now(), SimTime::from_millis(10), "no fast-forward past a stop");
        let mut seen = Vec::new();
        engine.run_until(SimTime::from_millis(100), |_, ctx, _| seen.push(ctx.now().as_millis()));
        assert_eq!(seen, vec![20], "the pending event between stop and deadline still fires");
        assert_eq!(engine.now(), SimTime::from_millis(100));
    }

    #[test]
    fn staged_same_timestamp_bursts_keep_fifo_order() {
        // A handler fanning out several events at one instant: staged events
        // keep their staging order among ties.
        let mut engine: Engine<Vec<u32>, Ev> = Engine::new(Vec::new());
        engine.schedule_at(SimTime::from_millis(1), Ev::Ping(0));
        engine.run(|log, ctx, ev| {
            let Ev::Ping(n) = ev else { return };
            log.push(n);
            if n == 0 {
                for k in 1..=8 {
                    ctx.schedule_in(SimDuration::from_millis(5), Ev::Ping(k));
                }
                ctx.schedule_in(SimDuration::from_millis(2), Ev::Ping(100));
            }
        });
        assert_eq!(engine.state(), &vec![0, 100, 1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn observer_sees_periodic_registrations() {
        use std::cell::RefCell;
        #[derive(Default)]
        struct Log(std::rc::Rc<RefCell<Vec<String>>>);
        impl EngineObserver<Ev> for Log {
            fn on_periodic(&mut self, now: SimTime, start: SimTime, period: SimDuration, _: &Ev) {
                self.0.borrow_mut().push(format!(
                    "train {}@{}+{}",
                    now.as_millis(),
                    start.as_millis(),
                    period.as_millis()
                ));
            }
        }
        let log = Log::default();
        let lines = log.0.clone();
        let mut engine: Engine<u32, Ev> = Engine::new(0);
        engine.set_observer(Box::new(log));
        engine.schedule_periodic(SimTime::from_millis(5), SimDuration::from_millis(2), Ev::Ping(0));
        engine.run_until(SimTime::from_millis(9), |c, _, _| *c += 1);
        assert_eq!(*engine.state(), 3);
        assert_eq!(*lines.borrow(), vec!["train 0@5+2"], "one hook per registration, not per tick");
    }

    #[test]
    fn fixed_step_runs_expected_number_of_steps() {
        let mut sim = FixedStepSim::new(SimDuration::from_millis(100));
        let mut times = Vec::new();
        let n = sim.run_until(SimTime::from_secs(1), |t, _| times.push(t.as_millis()));
        assert_eq!(n, 10);
        assert_eq!(times.first(), Some(&0));
        assert_eq!(times.last(), Some(&900));
        assert_eq!(sim.now(), SimTime::from_secs(1));
        sim.run_steps(3, |_, _| {});
        assert_eq!(sim.step_index(), 13);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn fixed_step_rejects_zero_period() {
        let _ = FixedStepSim::new(SimDuration::ZERO);
    }
}
