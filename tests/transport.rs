//! Integration and property tests for `karyon_net::transport`, the
//! simulated message fabric: the `SimTransport` seed-replay determinism
//! contract, stats accounting, partition scheduling, and thread-count
//! invariance of the `net-transport` campaign family built on top of it.

use proptest::prelude::*;

use karyon::net::{Delivery, LinkConfig, NodeId, PartitionWindow, SimTransport, TransportStats};
use karyon::scenario::{builtin_registry, Campaign, CampaignEntry, ParamGrid};
use karyon::sim::{SimDuration, SimTime};

/// A scheduled partition severs cross-group traffic during its window (both
/// directions), leaves intra-group traffic alone, and heals afterwards.
#[test]
fn partition_windows_sever_cross_group_traffic_then_heal() {
    let mut net = SimTransport::new(99).with_default_link(LinkConfig {
        delay: SimDuration::from_millis(1),
        jitter: SimDuration::ZERO,
        ..LinkConfig::default()
    });
    net.add_partition(PartitionWindow {
        from: SimTime::from_millis(10),
        until: SimTime::from_millis(20),
        group_a: vec![NodeId(0)],
        group_b: vec![NodeId(1)],
    });

    // Before the window: delivered.
    net.send(NodeId(0), NodeId(1), b"early".to_vec());
    assert_eq!(net.advance_to(SimTime::from_millis(10)).len(), 1);
    // Inside the window: the cross-cut send is severed at send time, the
    // intra-side send (to a third node) is unaffected.
    net.send(NodeId(0), NodeId(1), b"severed".to_vec());
    net.send(NodeId(1), NodeId(0), b"severed-back".to_vec());
    net.send(NodeId(0), NodeId(2), b"same-side".to_vec());
    let during = net.advance_to(SimTime::from_millis(20));
    assert_eq!(during.len(), 1);
    assert_eq!(during[0].payload, b"same-side");
    // After healing: delivered again.
    net.send(NodeId(1), NodeId(0), b"healed".to_vec());
    let after = net.drain();
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].payload, b"healed");
    let stats = net.stats();
    assert_eq!(stats.partition_dropped, 2);
    assert_eq!(stats.sent, 5);
    assert_eq!(stats.delivered, 3);
}

/// The lossy knobs actually fire at their extremes: probability 1 drops
/// everything, duplicates everything.
#[test]
fn drop_and_duplicate_probabilities_act_at_the_extremes() {
    let mut lossy = SimTransport::new(3)
        .with_default_link(LinkConfig { drop_probability: 1.0, ..LinkConfig::default() });
    let mut chatty = SimTransport::new(3)
        .with_default_link(LinkConfig { duplicate_probability: 1.0, ..LinkConfig::default() });
    for i in 0u8..8 {
        lossy.send(NodeId(0), NodeId(1), vec![i]);
        chatty.send(NodeId(0), NodeId(1), vec![i]);
    }
    assert!(lossy.drain().is_empty());
    assert_eq!(lossy.stats().dropped, 8);
    let copies = chatty.drain();
    assert_eq!(copies.len(), 16);
    assert_eq!(copies.iter().filter(|d| d.duplicate).count(), 8);
    assert_eq!(chatty.stats().duplicated, 8);
}

fn fuzz_link(delay_us: u64, jitter_us: u64, drop: f64, dup: f64, reorder: f64) -> LinkConfig {
    LinkConfig {
        delay: SimDuration::from_micros(delay_us),
        jitter: SimDuration::from_micros(jitter_us),
        drop_probability: drop,
        duplicate_probability: dup,
        reorder_probability: reorder,
        reorder_window: SimDuration::from_micros(1 + jitter_us * 4),
    }
}

/// Unpacks one fuzz word into a send: source and destination in `0..nodes`,
/// plus a payload byte.  (The vendored proptest has no tuple strategies, so
/// schedules are fuzzed as plain words.)
fn unpack_send(word: u64, nodes: u32) -> (u32, u32, u8) {
    ((word as u32) % nodes, ((word >> 16) as u32) % nodes, (word >> 32) as u8)
}

/// Replays the same send schedule (interleaved with clock advances) against a
/// fresh fabric and returns the full observable history.
fn run_schedule(
    seed: u64,
    link: LinkConfig,
    nodes: u32,
    sends: &[u64],
) -> (Vec<Delivery>, TransportStats) {
    let mut net = SimTransport::new(seed).with_default_link(link);
    let mut history = Vec::new();
    for (i, word) in sends.iter().enumerate() {
        let (src, dst, payload) = unpack_send(*word, nodes);
        net.send(NodeId(src), NodeId(dst), vec![payload]);
        if i % 3 == 2 {
            let deadline = SimTime::from_micros((i as u64 + 1) * 500);
            history.extend(net.advance_to(deadline));
        }
    }
    history.extend(net.drain());
    (history, net.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fabric's headline determinism contract: for a fixed seed, link
    /// configuration and send sequence, two independently constructed
    /// fabrics yield the identical delivery sequence — order, times,
    /// payloads, duplicate flags — and identical stats.  (That a different
    /// seed perturbs a lossy fabric is the unit test
    /// `different_seeds_perturb_a_lossy_fabric` in the fabric's module.)
    #[test]
    fn sim_transport_replays_bit_identically_from_its_seed(
        seed in any::<u64>(),
        delay_us in 0u64..20_000,
        jitter_us in 0u64..10_000,
        drop in 0.0f64..0.5,
        dup in 0.0f64..0.5,
        reorder in 0.0f64..0.9,
        sends in proptest::collection::vec(any::<u64>(), 1..80),
    ) {
        let link = fuzz_link(delay_us, jitter_us, drop, dup, reorder);
        let (first, first_stats) = run_schedule(seed, link, 4, &sends);
        let (second, second_stats) = run_schedule(seed, link, 4, &sends);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first_stats, second_stats);
        // Conservation: every submitted message is delivered exactly once,
        // lost exactly once, or delivered plus duplicated.
        prop_assert_eq!(
            first_stats.sent,
            first_stats.delivered - first_stats.duplicated + first_stats.lost()
        );
        prop_assert_eq!(first.iter().filter(|d| d.duplicate).count() as u64,
            first_stats.duplicated);
        // Delivery order is non-decreasing in delivered_at.
        for pair in first.windows(2) {
            prop_assert!(pair[0].delivered_at <= pair[1].delivered_at);
        }
    }

    /// A clean link (no loss knobs) delivers everything exactly once with the
    /// configured base delay, regardless of seed.
    #[test]
    fn clean_links_deliver_everything_exactly_once(
        seed in any::<u64>(),
        delay_us in 1u64..5_000,
        sends in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let link = fuzz_link(delay_us, 0, 0.0, 0.0, 0.0);
        let (history, stats) = run_schedule(seed, link, 3, &sends);
        prop_assert_eq!(history.len(), sends.len());
        prop_assert_eq!(stats.delivered, sends.len() as u64);
        prop_assert_eq!(stats.lost(), 0);
        prop_assert_eq!(stats.reordered, 0);
        for delivery in &history {
            prop_assert_eq!(delivery.delivered_at.as_micros(),
                delivery.sent_at.as_micros() + delay_us);
        }
    }
}

/// The `net-transport` campaign family inherits the flagship campaign
/// guarantee: reports are bit-identical across worker counts, including the
/// partitioned and lossy corners of its parameter grid.
#[test]
fn net_transport_family_reports_are_thread_count_invariant() {
    let registry = builtin_registry();
    let build = || {
        Campaign::new("fabric-determinism", 4242).entry(
            CampaignEntry::new("net-transport")
                .grid(ParamGrid::new().axis("partition", [false, true]).axis("drop", [0.0, 0.2]))
                .replications(5)
                .duration_secs(10),
        )
    };
    let one = build().with_threads(1).run(&registry).expect("family is registered");
    let four = build().with_threads(4).run(&registry).expect("family is registered");
    assert_eq!(one, four);
    assert_eq!(one.to_json(), four.to_json());
    assert_eq!(one.total_runs, 20);
}
