//! Property tests: ordering and convergence under randomized schedules.

use proptest::prelude::*;

use groupcast::{ChannelEvent, Cluster, GroupChannel, OrderingMode, StackConfig};

fn deliveries(chan: &GroupChannel) -> Vec<(u64, Vec<u8>)> {
    chan.poll()
        .into_iter()
        .filter_map(|e| match e {
            ChannelEvent::Message { from, bytes } => Some((from.0, bytes)),
            _ => None,
        })
        .collect()
}

fn build(cluster: &Cluster, n: usize, config: StackConfig) -> Vec<GroupChannel> {
    let chans: Vec<GroupChannel> = (0..n)
        .map(|_| cluster.create_channel(config.clone()))
        .collect();
    for c in &chans {
        c.connect("g").unwrap();
        cluster.pump_all();
    }
    for c in &chans {
        c.poll();
    }
    chans
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Sequencer: whatever the interleaving of senders and pump budgets,
    /// every member delivers the identical total order.
    #[test]
    fn sequencer_total_order_under_random_schedules(
        seed in any::<u64>(),
        sends in proptest::collection::vec((0usize..3, any::<u8>()), 1..30),
        budgets in proptest::collection::vec(1usize..7, 1..40),
    ) {
        let cluster = Cluster::new(seed);
        let chans = build(&cluster, 3, StackConfig::default());
        let mut budget_iter = budgets.iter().cycle();
        for (sender, byte) in &sends {
            chans[*sender].mcast(vec![*byte]).unwrap();
            cluster.pump(Some(*budget_iter.next().unwrap()));
        }
        cluster.pump_all();
        let orders: Vec<Vec<(u64, Vec<u8>)>> = chans.iter().map(deliveries).collect();
        prop_assert_eq!(orders[0].len(), sends.len(), "all messages delivered");
        prop_assert_eq!(&orders[0], &orders[1]);
        prop_assert_eq!(&orders[1], &orders[2]);
    }

    /// Bimodal with loss: after enough gossip rounds every member delivers
    /// every message, in per-sender FIFO order.
    #[test]
    fn bimodal_converges_despite_loss(
        seed in any::<u64>(),
        loss in 0.0f64..0.5,
        sends in proptest::collection::vec((0usize..3, any::<u8>()), 1..25),
    ) {
        let cluster = Cluster::new(seed);
        let config = StackConfig {
            ordering: OrderingMode::Bimodal { loss, fanout: 2 },
        };
        let chans = build(&cluster, 3, config);
        let mut per_sender: Vec<Vec<u8>> = vec![vec![]; 3];
        for (sender, byte) in &sends {
            chans[*sender].mcast(vec![*byte]).unwrap();
            per_sender[*sender].push(*byte);
        }
        cluster.pump_all();
        for _ in 0..24 {
            cluster.gossip_round();
            cluster.pump_all();
        }
        for (i, chan) in chans.iter().enumerate() {
            let got = deliveries(chan);
            prop_assert_eq!(got.len(), sends.len(), "member {} complete", i);
            // Per-sender FIFO: the subsequence from each origin matches the
            // send order.
            for (s, expected) in per_sender.iter().enumerate() {
                let addr = chans[s].addr().0;
                let stream: Vec<u8> = got
                    .iter()
                    .filter(|(from, _)| *from == addr)
                    .map(|(_, b)| b[0])
                    .collect();
                prop_assert_eq!(&stream, expected, "member {} origin {}", i, s);
            }
        }
    }

    /// View invariants under random crash/partition/heal scripts: view
    /// sequence numbers only grow at each member, the coordinator is
    /// always a view member, and co-located members agree on views.
    #[test]
    fn view_sequences_are_monotone(
        seed in any::<u64>(),
        script in proptest::collection::vec(0u8..5, 1..20),
    ) {
        let cluster = Cluster::new(seed);
        let chans = build(&cluster, 4, StackConfig::default());
        let mut last_seq = vec![0u64; 4];
        let mut down = [false; 4];
        let check = |chans: &[GroupChannel], last_seq: &mut Vec<u64>| {
            for (i, c) in chans.iter().enumerate() {
                for ev in c.poll() {
                    if let ChannelEvent::View(v) = ev {
                        assert!(
                            v.id.seq >= last_seq[i],
                            "member {i}: view seq went backwards"
                        );
                        assert!(v.contains(v.coordinator()));
                        assert!(v.contains(c.addr()));
                        last_seq[i] = v.id.seq;
                    }
                }
            }
        };
        for step in script {
            match step {
                0 if !down[3] && !down.iter().all(|d| *d) => {
                    cluster.crash(chans[3].addr());
                    down[3] = true;
                }
                1 => {
                    let a = chans[0].addr();
                    let rest: Vec<_> = chans[1..].iter().map(|c| c.addr()).collect();
                    cluster.partition(&[&[a], &rest]);
                }
                2 => cluster.heal(),
                _ => {}
            }
            cluster.detect_failures();
            cluster.pump_all();
            check(&chans, &mut last_seq);
        }
    }
}
