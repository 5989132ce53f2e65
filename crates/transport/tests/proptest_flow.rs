//! Property-based tests: for arbitrary flow sizes, EC geometries, loss
//! rates and load balancers, a MessageFlow over the simulator either
//! completes exactly once with a sane FCT, or the loss environment makes
//! completion impossible — and the sender's accounting never corrupts.

use proptest::prelude::*;
use uno_erasure::EcParams;
use uno_sim::{FlowMeta, GilbertElliott, Simulator, Topology, TopologyParams, MILLIS, SECONDS};
use uno_transport::{CcConfig, FlowConfig, LbMode, MessageFlow, UnoCc};

fn build_flow(
    sim: &mut Simulator,
    size: u64,
    ec: Option<EcParams>,
    lb: LbMode,
    inter: bool,
) -> uno_sim::FlowId {
    let (src, dst) = if inter {
        (sim.topo.host(0, 1), sim.topo.host(1, 2))
    } else {
        (sim.topo.host(0, 1), sim.topo.host(0, 9))
    };
    let class = sim.topo.flow_class(src, dst);
    let cc = UnoCc::new(CcConfig::for_class(&sim.topo.params, class));
    let mut fc = FlowConfig::for_path(&sim.topo, src, dst, size);
    fc.ec = ec;
    fc.lb = lb;
    fc.min_rto = 2 * fc.base_rtt.max(MILLIS);
    let flow = MessageFlow::new(fc, Box::new(cc));
    sim.add_flow(
        FlowMeta {
            src,
            dst,
            size,
            start: 0,
        },
        Box::new(flow),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any flow size / geometry / balancer completes on a clean network,
    /// with an FCT at least the base RTT and at most a generous bound.
    #[test]
    fn completes_on_clean_network(
        size in 1u64..(4 << 20),
        ec_on in any::<bool>(),
        parity in 1u8..4,
        lb_kind in 0usize..3,
        inter in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut sim = Simulator::new(Topology::build(TopologyParams::small()), seed);
        let lb = match lb_kind {
            0 => LbMode::Ecmp,
            1 => LbMode::Spray,
            _ => LbMode::UnoLb { subflows: 8 },
        };
        let ec = if ec_on && inter {
            Some(EcParams { data: 8, parity })
        } else {
            None
        };
        build_flow(&mut sim, size, ec, lb, inter);
        prop_assert!(sim.run_to_completion(10 * SECONDS), "flow must finish");
        let fct = sim.fcts[0].fct();
        let base = if inter { sim.topo.params.inter_rtt } else { sim.topo.params.intra_rtt };
        // At least ~1 RTT (same-edge intra paths can undercut the
        // cross-pod base RTT, so allow half), at most a wild upper bound.
        prop_assert!(fct >= base / 4, "fct {fct} < base {base}");
        prop_assert!(fct < 5 * SECONDS);
        prop_assert_eq!(sim.fcts.len(), 1, "exactly one completion record");
    }

    /// Under moderate random loss, EC flows still complete, and losses
    /// never corrupt accounting (completion implies every block decodable).
    #[test]
    fn ec_completes_under_loss(
        size in 4096u64..(2 << 20),
        loss_pct in 0.0f64..0.05,
        seed in any::<u64>(),
    ) {
        let mut sim = Simulator::new(Topology::build(TopologyParams::small()), seed);
        for l in sim
            .topo
            .border_forward
            .clone()
            .into_iter()
            .chain(sim.topo.border_reverse.clone())
        {
            sim.set_link_loss(l, GilbertElliott::uniform(loss_pct));
        }
        build_flow(
            &mut sim,
            size,
            Some(EcParams::PAPER_DEFAULT),
            LbMode::UnoLb { subflows: 10 },
            true,
        );
        prop_assert!(
            sim.run_to_completion(30 * SECONDS),
            "EC flow must survive {loss_pct} loss"
        );
    }

    /// Determinism: identical seeds yield identical completion times for
    /// arbitrary configurations.
    #[test]
    fn deterministic_for_any_config(
        size in 1u64..(1 << 20),
        seed in any::<u64>(),
        inter in any::<bool>(),
    ) {
        let run = || {
            let mut sim = Simulator::new(Topology::build(TopologyParams::small()), seed);
            build_flow(&mut sim, size, None, LbMode::Spray, inter);
            sim.run_to_completion(10 * SECONDS);
            (sim.fcts[0].fct(), sim.events_processed)
        };
        prop_assert_eq!(run(), run());
    }
}
