//! Property-based tests of simulator invariants: routing always delivers,
//! queues conserve packets, and the event engine never reorders time.

use proptest::prelude::*;
use uno_sim::{
    ecmp_pick, BlockPool, EnqueueOutcome, Packet, PacketPool, PortQueue, QueueProfile, RedParams,
    Topology, TopologyParams,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routing delivers any (src, dst, flow, entropy) within the hop bound
    /// for both k=4 and k=8 dual-DC fat-trees.
    #[test]
    fn routing_always_delivers(
        k_sel in 0usize..2,
        src_pick in any::<u32>(),
        dst_pick in any::<u32>(),
        flow in any::<u32>(),
        entropy in any::<u16>(),
    ) {
        let params = if k_sel == 0 {
            TopologyParams::small()
        } else {
            TopologyParams::default()
        };
        let topo = Topology::build(params);
        let n = topo.num_hosts() as u32;
        let src = topo.hosts[(src_pick % n) as usize];
        let mut dst = topo.hosts[(dst_pick % n) as usize];
        if src == dst {
            dst = topo.hosts[((dst_pick + 1) % n) as usize];
        }
        let path = topo.trace_path(src, dst, flow, entropy);
        prop_assert!(path.len() <= 10, "path too long: {}", path.len());
        prop_assert_eq!(*path.last().unwrap(), dst);
        // Hop-count helper is an upper bound on the traced path.
        prop_assert!(path.len() as u32 - 1 <= topo.path_hops(src, dst));
    }

    /// ECMP hashing stays in range and is deterministic.
    #[test]
    fn ecmp_pick_in_range(flow in any::<u32>(), e in any::<u16>(), salt in any::<u64>(), n in 1usize..64) {
        let a = ecmp_pick(flow, e, salt, n);
        prop_assert!(a < n);
        prop_assert_eq!(a, ecmp_pick(flow, e, salt, n));
    }

    /// Queue byte accounting, with several ports sharing one block pool:
    /// after arbitrary enqueue/dequeue interleavings across the ports, each
    /// port's tracked byte count equals the sum of its queued packet sizes,
    /// and accepted packets never exceed capacity. Each op picks a port, so
    /// pushes and pops cross block boundaries and the inline slots while
    /// other ports hold blocks (two ops in three enqueue, so backlogs grow
    /// past a block). Handles come out of each port in FIFO order
    /// carrying their packet's size, and `clear` hands back every handle
    /// still queued, in order, and every block.
    #[test]
    fn queue_conserves_bytes(
        ops in proptest::collection::vec((0usize..4, 0u8..3, 64u32..9000), 1..400),
    ) {
        use rand::SeedableRng;
        const CAP: u64 = 256 << 10;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut pool = PacketPool::new();
        let mut blocks = BlockPool::new();
        let prof = QueueProfile::new(CAP, RedParams::default());
        let mut ports: Vec<PortQueue> = (0..4).map(|_| PortQueue::new()).collect();
        let mut models = vec![std::collections::VecDeque::new(); 4];
        for (i, (port, op, size)) in ops.into_iter().enumerate() {
            let (q, model) = (&mut ports[port], &mut models[port]);
            if op > 0 {
                let pkt = pool.alloc(Packet::data(uno_sim::FlowId(0), i as u32, size, uno_sim::NodeId(1)));
                match q.try_enqueue(&prof, pkt, &mut pool, &mut blocks, 0, &mut rng) {
                    EnqueueOutcome::Enqueued { .. } => model.push_back((pkt, size)),
                    EnqueueOutcome::Dropped => {
                        prop_assert!(q.bytes() + size as u64 > CAP, "drop only when full");
                        pool.release(pkt);
                    }
                }
            } else if let Some((pkt, size)) = q.dequeue(&mut blocks) {
                let expect = model.pop_front().expect("model tracks the queue");
                prop_assert_eq!((pkt, size), expect, "FIFO order");
                prop_assert_eq!(pool.take(pkt).size, size, "the FIFO carries the packet's size");
            } else {
                prop_assert!(model.is_empty(), "dequeue finds every queued packet");
            }
            let sum: u64 = model.iter().map(|&(_, s)| s as u64).sum();
            prop_assert_eq!(q.bytes(), sum);
            prop_assert_eq!(q.len(), model.len());
            prop_assert!(q.bytes() <= CAP);
        }
        for (q, model) in ports.iter_mut().zip(&models) {
            let mut purged = Vec::new();
            let n = q.clear(&mut blocks, |pkt| purged.push(pkt));
            let queued: Vec<_> = model.iter().map(|&(pkt, _)| pkt).collect();
            prop_assert_eq!(n, queued.len());
            prop_assert_eq!(purged, queued, "clear returns every queued handle, in order");
            prop_assert_eq!((q.bytes(), q.len()), (0, 0));
        }
    }

    /// RED probability is monotone in occupancy and clamped to [0, 1].
    #[test]
    fn red_monotone(cap in 1u64..(1 << 24), a in any::<u64>(), b in any::<u64>()) {
        let red = RedParams::default();
        let (lo, hi) = (a.min(b) % (2 * cap), a.max(b) % (2 * cap));
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let p_lo = red.mark_probability(lo, cap);
        let p_hi = red.mark_probability(hi, cap);
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_lo <= p_hi);
    }
}
