//! Property-based tests (proptest) on the core data structures and
//! invariants of the reproduction.

use std::collections::BTreeMap;

use proptest::prelude::*;

use karyon::net::end_to_end::{eventually_fifo, E2EConfig, EndToEndSession};
use karyon::scenario::RunRecord;
use karyon::sensors::abstract_sensor::combine_outcomes;
use karyon::sensors::detectors::{DetectionOutcome, DetectorClass};
use karyon::sensors::{marzullo_fuse, weighted_fuse, Interval, Measurement, Validity};
use karyon::sim::{EventQueue, Rng, SimDuration, SimTime, TrainId};

/// The naive reference for [`EventQueue`]'s pop-order contract: one-shots in
/// a `Vec` kept sorted by `(time, seq)` with linear insertion, trains in a
/// `Vec` scanned linearly for the earliest `(next, seq)`.  A train takes one
/// seq at registration, from the same counter as one-shots, and is
/// identified here by that seq.
#[derive(Default)]
struct Oracle {
    /// `(time, seq, payload)`, ascending by `(time, seq)`.
    one_shots: Vec<(SimTime, u64, u64)>,
    trains: Vec<OracleTrain>,
    next_seq: u64,
}

struct OracleTrain {
    seq: u64,
    next: SimTime,
    period: SimDuration,
    payload: u64,
}

impl Oracle {
    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn schedule(&mut self, time: SimTime, payload: u64) {
        let seq = self.take_seq();
        let at = self.one_shots.iter().position(|&(t, s, _)| (t, s) > (time, seq));
        self.one_shots.insert(at.unwrap_or(self.one_shots.len()), (time, seq, payload));
    }

    fn schedule_periodic(&mut self, start: SimTime, period: SimDuration, payload: u64) -> u64 {
        let seq = self.take_seq();
        self.trains.push(OracleTrain { seq, next: start, period, payload });
        seq
    }

    fn cancel_train(&mut self, seq: u64) -> Option<u64> {
        let at = self.trains.iter().position(|t| t.seq == seq)?;
        Some(self.trains.remove(at).payload)
    }

    fn retune_train(&mut self, seq: u64, period: SimDuration) {
        let train = self.trains.iter_mut().find(|t| t.seq == seq).expect("live train");
        train.period = period;
    }

    fn len(&self) -> usize {
        self.one_shots.len() + self.trains.len()
    }

    fn next_time(&self) -> Option<SimTime> {
        let ticks = self.trains.iter().map(|t| t.next);
        self.one_shots.first().map(|&(t, _, _)| t).into_iter().chain(ticks).min()
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let one_shot = self.one_shots.first().map(|&(t, s, _)| (t, s));
        match (one_shot, self.trains.iter_mut().min_by_key(|t| (t.next, t.seq))) {
            (key, Some(train)) if key.map_or(true, |key| (train.next, train.seq) < key) => {
                let time = train.next;
                train.next = time + train.period;
                Some((time, train.payload))
            }
            (Some(_), _) => {
                let (time, _, payload) = self.one_shots.remove(0);
                Some((time, payload))
            }
            (None, _) => None,
        }
    }
}

proptest! {
    /// The event queue always pops events in non-decreasing time order,
    /// regardless of the insertion order.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut queue = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = queue.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// The event queue pops in exactly the same order as the sorted-`Vec`
    /// oracle — including FIFO ties and far-future jumps — under random
    /// interleaved schedule/pop workloads.
    #[test]
    fn event_queue_matches_the_sorted_vec_oracle(
        seed in any::<u64>(),
        ops in 50usize..400,
        pop_bias in 1u64..4,
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut oracle = Oracle::default();
        let mut payload = 0u64;
        let mut last_popped = SimTime::ZERO;
        for _ in 0..ops {
            if rng.range_u64(0, 3) < pop_bias {
                let expected = oracle.pop();
                prop_assert_eq!(queue.pop(), expected);
                if let Some((t, _)) = expected {
                    last_popped = t;
                }
            } else {
                // Times relative to the pop frontier: ties, near, far, and
                // very far jumps.
                let delta = match rng.range_u64(0, 9) {
                    0..=3 => rng.range_u64(0, 2),
                    4..=6 => rng.range_u64(10, 5_000),
                    7 => rng.range_u64(600_000, 5_000_000),
                    _ => rng.range_u64(1_000_000_000, 30_000_000_000),
                };
                let t = last_popped + SimDuration::from_micros(delta);
                queue.schedule(t, payload);
                oracle.schedule(t, payload);
                payload += 1;
            }
            prop_assert_eq!(queue.len(), oracle.len());
            prop_assert_eq!(queue.next_time(), oracle.next_time());
        }
        loop {
            let expected = oracle.pop();
            prop_assert_eq!(queue.pop(), expected);
            if expected.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }

    /// Mixed workload against the oracle: periodic trains (created,
    /// cancelled and retuned mid-run, often on a shared millisecond grid so
    /// ticks of different trains tie), one-shots and same-timestamp bursts
    /// interleave, and the queue must stay pop-identical throughout.
    #[test]
    fn trains_one_shots_and_bursts_match_the_oracle(
        seed in any::<u64>(),
        ops in 50usize..300,
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut oracle = Oracle::default();
        let mut payload = 0u64;
        let mut frontier = SimTime::ZERO;
        // (queue id, oracle id) of every live train.
        let mut live: Vec<(TrainId, u64)> = Vec::new();
        for _ in 0..ops {
            match rng.range_u64(0, 8) {
                0..=2 => {
                    let expected = oracle.pop();
                    prop_assert_eq!(queue.pop(), expected);
                    if let Some((t, _)) = expected {
                        frontier = t;
                    }
                }
                3..=4 => {
                    // One-shot: tie with the frontier, near, or far.
                    let delta = match rng.range_u64(0, 2) {
                        0 => 0,
                        1 => rng.range_u64(1, 4_000),
                        _ => rng.range_u64(1_000_000, 20_000_000_000),
                    };
                    let t = frontier + SimDuration::from_micros(delta);
                    queue.schedule(t, payload);
                    oracle.schedule(t, payload);
                    payload += 1;
                }
                5 => {
                    // Same-timestamp burst, as a handler's staged fan-out.
                    let t = frontier + SimDuration::from_micros(rng.range_u64(0, 10_000));
                    for _ in 0..rng.range_u64(2, 6) {
                        queue.schedule(t, payload);
                        oracle.schedule(t, payload);
                        payload += 1;
                    }
                }
                6 => {
                    if live.len() < 6 {
                        // Half the trains sit on a 1 ms grid, so ticks of
                        // different trains coincide and must tie-break by
                        // creation order.
                        let (start, period) = if rng.chance(0.5) {
                            let grid = frontier.as_micros() / 1_000 * 1_000;
                            (
                                SimTime::from_micros(grid + 1_000 * rng.range_u64(0, 3)),
                                SimDuration::from_micros(1_000 * rng.range_u64(1, 3)),
                            )
                        } else {
                            (
                                frontier + SimDuration::from_micros(rng.range_u64(0, 5_000)),
                                SimDuration::from_micros(rng.range_u64(1, 3_000)),
                            )
                        };
                        let id = queue.schedule_periodic(start, period, payload);
                        live.push((id, oracle.schedule_periodic(start, period, payload)));
                        payload += 1;
                    }
                }
                7 => {
                    if !live.is_empty() {
                        let at = rng.range_u64(0, live.len() as u64 - 1) as usize;
                        let (id, oracle_id) = live.swap_remove(at);
                        prop_assert_eq!(queue.cancel_train(id), oracle.cancel_train(oracle_id));
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let at = rng.range_u64(0, live.len() as u64 - 1) as usize;
                        let period = SimDuration::from_micros(rng.range_u64(1, 10_000));
                        let (id, oracle_id) = live[at];
                        prop_assert!(queue.retune_train(id, period));
                        oracle.retune_train(oracle_id, period);
                    }
                }
            }
            prop_assert_eq!(queue.len(), oracle.len());
            prop_assert_eq!(queue.active_trains(), oracle.trains.len());
            prop_assert_eq!(queue.next_time(), oracle.next_time());
        }
        // Cancel the survivors (trains never drain on their own), then the
        // remaining one-shots must drain identically.
        for (id, oracle_id) in live {
            prop_assert_eq!(queue.cancel_train(id), oracle.cancel_train(oracle_id));
        }
        loop {
            let expected = oracle.pop();
            prop_assert_eq!(queue.pop(), expected);
            if expected.is_none() {
                break;
            }
        }
        prop_assert!(queue.is_empty());
    }

    /// The train fast path against its own semantic definition: a periodic
    /// train must pop exactly like all of its ticks eagerly scheduled as
    /// one-shots at the `schedule_periodic` call — including FIFO ties
    /// against one-shots placed exactly on tick times before and after the
    /// train's creation.
    #[test]
    fn periodic_fast_path_matches_eager_materialization(
        seed in any::<u64>(),
        trains in 1usize..5,
    ) {
        let horizon = SimTime::from_millis(50);
        let mut rng = Rng::seed_from(seed);
        let mut fast: EventQueue<u64> = EventQueue::new();
        let mut eager: EventQueue<u64> = EventQueue::new();
        let mut payload = 1_000_000u64;
        for train in 0..trains as u64 {
            let start = SimTime::from_micros(rng.range_u64(0, 10_000));
            let period = SimDuration::from_micros(rng.range_u64(100, 5_000));
            // A one-shot scheduled *before* the train, exactly on a future
            // tick time: it must win that tie in both queues.
            let before = start + period.saturating_mul(rng.range_u64(0, 10));
            fast.schedule(before, payload);
            eager.schedule(before, payload);
            payload += 1;
            fast.schedule_periodic(start, period, train);
            let mut t = start;
            while t <= horizon {
                eager.schedule(t, train);
                t += period;
            }
            // And one *after*, again on a tick time: it must lose the tie.
            let after = start + period.saturating_mul(rng.range_u64(0, 10));
            fast.schedule(after, payload);
            eager.schedule(after, payload);
            payload += 1;
        }
        loop {
            let expected = eager.pop_until(horizon);
            prop_assert_eq!(fast.pop_until(horizon), expected);
            if expected.is_none() {
                break;
            }
        }
    }

    /// Validity is always clamped into [0, 1] and combination never exceeds
    /// either operand.
    #[test]
    fn validity_combination_is_bounded(a in -2.0f64..3.0, b in -2.0f64..3.0) {
        let va = Validity::new(a);
        let vb = Validity::new(b);
        prop_assert!((0.0..=1.0).contains(&va.fraction()));
        let combined = va.combine(vb);
        prop_assert!(combined.fraction() <= va.fraction() + 1e-12);
        prop_assert!(combined.fraction() <= vb.fraction() + 1e-12);
        prop_assert!(combined.fraction() >= 0.0);
    }

    /// Combining detector outcomes yields 0 iff some dominant detector failed
    /// (continuous detectors alone can only approach zero).
    #[test]
    fn dominant_failures_always_invalidate(
        graded in proptest::collection::vec(0.01f64..1.0, 0..6),
        include_failure in any::<bool>(),
    ) {
        let mut outcomes: Vec<DetectionOutcome> =
            graded.iter().map(|v| DetectionOutcome::graded(Validity::new(*v))).collect();
        if include_failure {
            outcomes.push(DetectionOutcome::dominant_failure());
        } else {
            outcomes.push(DetectionOutcome::pass(DetectorClass::Dominant));
        }
        let combined = combine_outcomes(&outcomes);
        if include_failure {
            prop_assert!(combined.is_invalid());
        } else {
            prop_assert!(!combined.is_invalid());
        }
    }

    /// Marzullo fusion with f faulty sensors always returns an interval that
    /// overlaps the true value whenever at least n-f intervals contain it.
    #[test]
    fn marzullo_result_is_consistent_with_correct_majority(
        truth in -100.0f64..100.0,
        widths in proptest::collection::vec(0.5f64..5.0, 3..9),
        outlier_offset in 50.0f64..500.0,
    ) {
        let n = widths.len();
        let f = 1usize;
        // n-1 correct intervals around the truth, one outlier.
        let mut intervals: Vec<Interval> = widths
            .iter()
            .take(n - 1)
            .map(|w| Interval::new(truth - w, truth + w))
            .collect();
        intervals.push(Interval::new(truth + outlier_offset, truth + outlier_offset + 1.0));
        let fused = marzullo_fuse(&intervals, f).expect("fusion must succeed with one fault");
        prop_assert!(fused.contains(truth), "fused {fused:?} does not contain {truth}");
    }

    /// Validity-weighted fusion stays within the range of the valid inputs.
    #[test]
    fn weighted_fusion_stays_in_input_range(
        values in proptest::collection::vec(-50.0f64..50.0, 1..8),
        validities in proptest::collection::vec(0.1f64..1.0, 1..8),
    ) {
        let n = values.len().min(validities.len());
        let readings: Vec<(Measurement, Validity)> = (0..n)
            .map(|i| (Measurement::new(values[i], SimTime::ZERO, 1.0), Validity::new(validities[i])))
            .collect();
        let (fused, validity) = weighted_fuse(&readings).expect("non-empty fusion");
        let lo = values[..n].iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values[..n].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(fused >= lo - 1e-9 && fused <= hi + 1e-9);
        prop_assert!((0.0..=1.0).contains(&validity.fraction()));
    }

    /// The deterministic RNG produces identical streams for identical seeds
    /// and stays within requested ranges.
    #[test]
    fn rng_streams_are_reproducible(seed in any::<u64>(), lo in 0u64..1_000, span in 1u64..1_000) {
        let mut a = Rng::seed_from(seed);
        let mut b = Rng::seed_from(seed);
        for _ in 0..32 {
            let x = a.range_u64(lo, lo + span);
            let y = b.range_u64(lo, lo + span);
            prop_assert_eq!(x, y);
            prop_assert!((lo..=lo + span).contains(&x));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The self-stabilizing end-to-end protocol delivers FIFO without
    /// omission or duplication for arbitrary (bounded) channel error rates
    /// from a clean start.
    #[test]
    fn end_to_end_fifo_holds_for_random_error_rates(
        seed in any::<u64>(),
        omission in 0.0f64..0.4,
        duplication in 0.0f64..0.4,
        capacity in 1usize..10,
    ) {
        let config = E2EConfig { capacity, omission, duplication, reorder: true };
        let mut session = EndToEndSession::new(&config, seed);
        let sent: Vec<u64> = (1..=30).collect();
        for &m in &sent {
            session.sender.enqueue(m);
        }
        session.run_until_drained(2_000_000);
        prop_assert!(eventually_fifo(&sent, session.receiver.delivered(), 0));
    }
}

/// Metric names the `RunRecord` differential test draws from: literals that
/// are byte-order neighbours, prefixes of one another, empty, upper-case and
/// non-ASCII, so a sorting or slicing slip shows up as an order mismatch.
const METRIC_NAMES: [&str; 10] =
    ["", "a", "ab", "a.b", "a_b", "B", "b", "p99_ms", "z\u{e9}", "\u{e9}"];

/// A metric name for draw `x`: a literal from [`METRIC_NAMES`] or a
/// `format!`-built one, as families build per-class names.
fn metric_name(x: u64) -> String {
    if x % 3 == 0 {
        format!("class{}_ratio", (x >> 8) % 5)
    } else {
        METRIC_NAMES[((x >> 8) % METRIC_NAMES.len() as u64) as usize].to_string()
    }
}

/// A metric value for draw `x`, NaN now and then (a NaN metric makes records
/// unequal, exactly as in a `BTreeMap<String, f64>`).
fn metric_value(x: u64) -> f64 {
    if (x >> 20) % 23 == 0 {
        f64::NAN
    } else {
        ((x >> 24) % 10_000) as f64 / 7.0 - 500.0
    }
}

/// Replays `ops` on a `RunRecord` and on the `BTreeMap<String, f64>` it
/// replaced, checking every `get` against the oracle on the way.
fn replay_metric_ops(
    ops: &[u64],
) -> Result<(RunRecord, BTreeMap<String, f64>), proptest::test_runner::TestCaseError> {
    let mut record = RunRecord::new();
    let mut oracle = BTreeMap::new();
    for &op in ops {
        let name = metric_name(op >> 4);
        match op % 4 {
            0 => {
                let value = metric_value(op);
                record.set(&name, value);
                oracle.insert(name, value);
            }
            1 => {
                let flag = (op >> 3) & 1 == 1;
                record.set_flag(&name, flag);
                oracle.insert(name, if flag { 1.0 } else { 0.0 });
            }
            2 => {
                // Overwrite a metric already present, if any.
                let Some(existing) = oracle.keys().nth((op >> 4) as usize % oracle.len().max(1))
                else {
                    continue;
                };
                let existing = existing.clone();
                let value = metric_value(op.rotate_left(17));
                record.set(&existing, value);
                oracle.insert(existing, value);
            }
            _ => {
                let got = record.get(&name);
                let want = oracle.get(&name).copied();
                prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }
    Ok((record, oracle))
}

proptest! {
    /// `RunRecord`'s flat sorted metric vector behaves exactly like the
    /// `BTreeMap<String, f64>` it replaced: same lookups, same iteration
    /// order and values (the JSONL and report byte order), and `PartialEq`
    /// agrees with the maps' equality — including records built in another
    /// insertion order and records carrying NaN.
    #[test]
    fn run_record_matches_the_btreemap_oracle(
        ops in proptest::collection::vec(any::<u64>(), 0..80),
        other_ops in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let (record, oracle) = replay_metric_ops(&ops)?;
        let seen: Vec<(String, u64)> =
            record.metrics().iter().map(|(k, v)| (k.to_string(), v.to_bits())).collect();
        let want: Vec<(String, u64)> =
            oracle.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
        prop_assert_eq!(seen, want);
        prop_assert_eq!(record.metrics().len(), oracle.len());
        prop_assert_eq!(record.metrics().is_empty(), oracle.is_empty());
        let keys: Vec<&str> = record.metrics().keys().collect();
        let oracle_keys: Vec<&str> = oracle.keys().map(String::as_str).collect();
        prop_assert_eq!(keys, oracle_keys);

        // The same contents set in reverse order: another name-buffer
        // layout, the same record.
        let mut reversed = RunRecord::new();
        for (name, value) in oracle.iter().rev() {
            reversed.set(name, *value);
        }
        prop_assert_eq!(record == reversed, oracle == oracle.clone());

        // An unrelated sequence, and the same sequence with a few more ops.
        let (other, other_oracle) = replay_metric_ops(&other_ops)?;
        prop_assert_eq!(record == other, oracle == other_oracle);
        let extended: Vec<u64> = ops.iter().chain(&other_ops).copied().collect();
        let (longer, longer_oracle) = replay_metric_ops(&extended)?;
        prop_assert_eq!(record == longer, oracle == longer_oracle);

        // The clamp count takes part in equality, as a plain field did.
        let mut clamped = reversed.clone();
        clamped.clamped_schedules += 1;
        prop_assert!(record != clamped);
    }
}
