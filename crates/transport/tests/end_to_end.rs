//! End-to-end tests: MessageFlow endpoints driven through the uno-sim
//! engine over the dual-DC fat-tree.

use uno_erasure::EcParams;
use uno_sim::{
    FlowMeta, GilbertElliott, NodeId, Simulator, Topology, TopologyParams, GBPS, MICROS, MILLIS,
    SECONDS,
};
use uno_transport::{Bbr, CcConfig, FlowConfig, LbMode, MessageFlow, Mprdma, UnoCc};

fn sim(seed: u64) -> Simulator {
    Simulator::new(Topology::build(TopologyParams::small()), seed)
}

/// The congestion-control configuration of a flow from `s` to `d`.
fn cc_config(topo: &Topology, s: NodeId, d: NodeId) -> CcConfig {
    CcConfig::for_class(&topo.params, topo.flow_class(s, d))
}

fn add_unocc_flow(
    sim: &mut Simulator,
    src: (u8, u32),
    dst: (u8, u32),
    size: u64,
    ec: Option<EcParams>,
    lb: LbMode,
) -> uno_sim::FlowId {
    let s = sim.topo.host(src.0, src.1);
    let d = sim.topo.host(dst.0, dst.1);
    let cfg = cc_config(&sim.topo, s, d);
    let mut fc = FlowConfig::for_path(&sim.topo, s, d, size);
    fc.ec = ec;
    fc.lb = lb;
    fc.min_rto = 4 * fc.base_rtt;
    let flow = MessageFlow::new(fc, Box::new(UnoCc::new(cfg)));
    sim.add_flow(
        FlowMeta {
            src: s,
            dst: d,
            size,
            start: 0,
        },
        Box::new(flow),
    )
}

#[test]
fn intra_flow_completes_near_line_rate() {
    let mut sim = sim(1);
    let size = 8u64 << 20; // 8 MiB
    add_unocc_flow(&mut sim, (0, 0), (0, 15), size, None, LbMode::Ecmp);
    assert!(sim.run_to_completion(SECONDS), "flow must complete");
    let fct = sim.fcts[0].fct();
    // Ideal: 8 MiB at 100 Gbps = 671 us (+RTT). Allow 3x slack for the
    // window ramp but catch order-of-magnitude regressions.
    let ideal = 8.0 * (size as f64) / (100.0 * GBPS as f64) * SECONDS as f64;
    assert!(
        (fct as f64) < 3.0 * ideal + (200 * MICROS) as f64,
        "fct {fct} vs ideal {ideal}"
    );
}

#[test]
fn inter_flow_completes() {
    let mut sim = sim(2);
    add_unocc_flow(&mut sim, (0, 0), (1, 7), 4 << 20, None, LbMode::Ecmp);
    assert!(sim.run_to_completion(SECONDS));
    let fct = sim.fcts[0].fct();
    assert!(fct >= 2 * MILLIS, "must pay at least one WAN RTT: {fct}");
    assert!(fct < 100 * MILLIS, "fct {fct}");
}

#[test]
fn tiny_flow_is_latency_bound() {
    let mut sim = sim(3);
    add_unocc_flow(&mut sim, (0, 0), (0, 1), 100, None, LbMode::Ecmp);
    assert!(sim.run_to_completion(SECONDS));
    let fct = sim.fcts[0].fct();
    // Same-edge path: well under the full intra RTT.
    assert!(fct < 20 * MICROS, "fct {fct}");
}

#[test]
fn ec_flow_survives_heavy_random_loss() {
    let mut sim = sim(4);
    // 1% uniform loss on every border link: without EC this costs RTOs;
    // with (8,2) EC most blocks still reconstruct on first delivery.
    for l in sim
        .topo
        .border_forward
        .clone()
        .into_iter()
        .chain(sim.topo.border_reverse.clone())
    {
        sim.set_link_loss(l, GilbertElliott::uniform(0.01));
    }
    add_unocc_flow(
        &mut sim,
        (0, 0),
        (1, 0),
        4 << 20,
        Some(EcParams::PAPER_DEFAULT),
        LbMode::UnoLb { subflows: 10 },
    );
    assert!(sim.run_to_completion(SECONDS));
    let fct = sim.fcts[0].fct();
    // 4 MiB = 1024 packets; at 1% loss ~10 losses, all recoverable by
    // parity: completion should take only a few RTTs.
    assert!(fct < 30 * MILLIS, "EC flow too slow: {fct}");
}

#[test]
fn ec_beats_no_ec_under_loss() {
    let mut fcts = Vec::new();
    for ec in [Some(EcParams::PAPER_DEFAULT), None] {
        let mut s = sim(5);
        for l in s
            .topo
            .border_forward
            .clone()
            .into_iter()
            .chain(s.topo.border_reverse.clone())
        {
            s.set_link_loss(l, GilbertElliott::uniform(0.02));
        }
        add_unocc_flow(
            &mut s,
            (0, 1),
            (1, 2),
            2 << 20,
            ec,
            LbMode::UnoLb { subflows: 10 },
        );
        assert!(s.run_to_completion(5 * SECONDS));
        fcts.push(s.fcts[0].fct());
    }
    assert!(
        fcts[0] < fcts[1],
        "EC ({}) must beat no-EC ({}) at 2% loss",
        fcts[0],
        fcts[1]
    );
}

#[test]
fn no_ec_flow_recovers_from_loss_via_rto() {
    let mut sim = sim(6);
    let up = sim.topo.host_uplink(sim.topo.host(0, 0));
    sim.set_link_loss(up, GilbertElliott::uniform(0.05));
    add_unocc_flow(&mut sim, (0, 0), (0, 9), 1 << 20, None, LbMode::Ecmp);
    assert!(
        sim.run_to_completion(5 * SECONDS),
        "RTO/fast-rtx must eventually deliver everything"
    );
}

#[test]
fn flow_survives_border_link_failure_with_unolb() {
    let mut sim = sim(7);
    // Fail one of the four border links mid-flow.
    let victim = sim.topo.border_forward[0];
    sim.schedule_link_down(victim, 3 * MILLIS);
    add_unocc_flow(
        &mut sim,
        (0, 2),
        (1, 3),
        8 << 20,
        Some(EcParams::PAPER_DEFAULT),
        LbMode::UnoLb { subflows: 10 },
    );
    assert!(
        sim.run_to_completion(5 * SECONDS),
        "must re-route around failure"
    );
}

#[test]
fn mprdma_intra_flow_completes() {
    let mut sim = sim(8);
    let s = sim.topo.host(0, 0);
    let d = sim.topo.host(0, 12);
    let cfg = cc_config(&sim.topo, s, d);
    let fc = FlowConfig::for_path(&sim.topo, s, d, 4 << 20);
    let flow = MessageFlow::new(fc, Box::new(Mprdma::new(cfg)));
    sim.add_flow(
        FlowMeta {
            src: s,
            dst: d,
            size: 4 << 20,
            start: 0,
        },
        Box::new(flow),
    );
    assert!(sim.run_to_completion(SECONDS));
}

#[test]
fn bbr_inter_flow_completes_with_pacing() {
    let mut sim = sim(9);
    let s = sim.topo.host(0, 0);
    let d = sim.topo.host(1, 1);
    let cfg = cc_config(&sim.topo, s, d);
    let mut fc = FlowConfig::for_path(&sim.topo, s, d, 16 << 20);
    fc.min_rto = 4 * fc.base_rtt;
    let flow = MessageFlow::new(fc, Box::new(Bbr::new(cfg)));
    sim.add_flow(
        FlowMeta {
            src: s,
            dst: d,
            size: 16 << 20,
            start: 0,
        },
        Box::new(flow),
    );
    assert!(sim.run_to_completion(2 * SECONDS));
    let fct = sim.fcts[0].fct();
    // 16 MiB at 100 Gbps is ~1.3 ms of serialization + 2 ms RTT; BBR's
    // startup needs a few RTTs. Anything past 200 ms is broken.
    assert!(fct < 200 * MILLIS, "fct {fct}");
}

#[test]
fn incast_flows_all_complete_and_share() {
    let mut sim = sim(10);
    let size = 2u64 << 20;
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(add_unocc_flow(
            &mut sim,
            (0, 1 + 3 * i),
            (0, 0),
            size,
            None,
            LbMode::Spray,
        ));
    }
    assert!(sim.run_to_completion(SECONDS));
    assert_eq!(sim.fcts.len(), 4);
    // All four share the same 100G edge->host bottleneck, so the last
    // completion cannot beat the aggregate serialization time...
    let min_fct = (4.0 * size as f64 * 8.0 / (100.0 * GBPS as f64) * SECONDS as f64) as u64;
    let last = sim.fcts.iter().map(|r| r.fct()).max().unwrap();
    assert!(last + 50 * MICROS >= min_fct, "{last} < {min_fct}");
    // ...and congestion control must keep the total within a small multiple
    // of it (no RTO stalls or collapse).
    assert!(last < 4 * min_fct, "incast took {last} vs ideal {min_fct}");
}

#[test]
fn karn_excludes_rtt_samples_from_retransmissions() {
    let mut sim = sim(13);
    let s = sim.topo.host(0, 0);
    let up = sim.topo.host_uplink(s);
    // The uplink is dark for the first millisecond: the original copy (and
    // any RTO copies queued meanwhile) die, and the copy that finally lands
    // is a retransmission. Karn's rule forbids sampling its ACK.
    sim.schedule_link_down(up, 0);
    sim.schedule_link_up(up, MILLIS);
    add_unocc_flow(&mut sim, (0, 0), (0, 9), 4096, None, LbMode::Ecmp);
    assert!(sim.run_to_completion(SECONDS));
    let c = sim.counter_snapshot();
    assert!(c.get("rc.retransmits") >= 1);
    assert_eq!(
        c.get("rc.rtt_samples"),
        0,
        "an ACK for a retransmitted packet is ambiguous and must not feed the estimator"
    );
}

fn blackhole_reverse_border(sim: &mut Simulator) {
    use uno_sim::{FaultEntry, FaultKind, FaultSpec, FaultTarget};
    let spec = FaultSpec {
        faults: (0..sim.topo.border_reverse.len())
            .map(|idx| FaultEntry {
                target: FaultTarget::BorderReverse { idx },
                kind: FaultKind::Down,
                at: 0,
                until: None,
            })
            .collect(),
    };
    sim.install_faults(&spec).unwrap();
}

fn add_degraded_inter_flow(sim: &mut Simulator, fc_tweak: impl FnOnce(&mut FlowConfig)) {
    let s = sim.topo.host(0, 0);
    let d = sim.topo.host(1, 0);
    let cfg = cc_config(&sim.topo, s, d);
    let mut fc = FlowConfig::for_path(&sim.topo, s, d, 1 << 20);
    fc_tweak(&mut fc);
    let flow = MessageFlow::new(fc, Box::new(UnoCc::new(cfg)));
    sim.add_flow(
        FlowMeta {
            src: s,
            dst: d,
            size: 1 << 20,
            start: 0,
        },
        Box::new(flow),
    );
}

#[test]
fn watchdog_stalls_flow_on_blackholed_reverse_path() {
    use uno_sim::{FlowId, FlowOutcome, StallCause};
    // Asymmetric gray failure: data crosses the border, every ACK dies on
    // the way back. The stall watchdog must terminate the flow instead of
    // letting it retry until the experiment horizon.
    let mut sim = sim(12);
    blackhole_reverse_border(&mut sim);
    add_degraded_inter_flow(&mut sim, |fc| {
        *fc = fc.clone().with_degradation(4, 16);
    });
    assert!(
        sim.run_to_completion(30 * SECONDS),
        "flow must terminate with a definite outcome instead of hanging"
    );
    assert!(sim.fcts.is_empty(), "the flow cannot have completed");
    assert_eq!(sim.failures.len(), 1);
    // On a lossy fabric the watchdog blames congestion, never PFC.
    assert_eq!(
        sim.flow_outcome(FlowId(0)),
        Some(FlowOutcome::Stalled {
            cause: StallCause::Congestion
        })
    );
    // The watchdog gave up long before the horizon.
    assert!(sim.now() < SECONDS, "stalled too late: {}", sim.now());
}

#[test]
fn bounded_retries_abort_flow_on_blackholed_reverse_path() {
    use uno_sim::{FlowId, FlowOutcome};
    let mut sim = sim(14);
    blackhole_reverse_border(&mut sim);
    add_degraded_inter_flow(&mut sim, |fc| {
        // Abort path only: three consecutive zero-progress RTOs give up.
        fc.max_rto_retries = Some(2);
    });
    assert!(sim.run_to_completion(30 * SECONDS));
    assert!(sim.fcts.is_empty());
    assert_eq!(sim.flow_outcome(FlowId(0)), Some(FlowOutcome::Aborted));
    assert_eq!(sim.failures[0].outcome, FlowOutcome::Aborted);
    assert!(sim.now() < SECONDS, "aborted too late: {}", sim.now());
}

#[test]
fn degradation_knobs_do_not_fire_on_healthy_paths() {
    use uno_sim::FlowId;
    // A healthy inter-DC flow with the watchdog and retry bound armed must
    // still complete normally — degradation is a last resort, not a tax.
    let mut sim = sim(15);
    add_degraded_inter_flow(&mut sim, |fc| {
        *fc = fc.clone().with_degradation(4, 8);
    });
    assert!(sim.run_to_completion(2 * SECONDS));
    assert_eq!(sim.fcts.len(), 1);
    assert!(sim.failures.is_empty());
    assert_eq!(
        sim.flow_outcome(FlowId(0)),
        Some(uno_sim::FlowOutcome::Completed)
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut s = sim(77);
        add_unocc_flow(
            &mut s,
            (0, 0),
            (1, 5),
            1 << 20,
            Some(EcParams::PAPER_DEFAULT),
            LbMode::UnoLb { subflows: 10 },
        );
        s.run_to_completion(SECONDS);
        s.fcts[0].fct()
    };
    assert_eq!(run(), run());
}

#[test]
fn mixed_incast_intra_and_inter_complete() {
    let mut sim = sim(11);
    for i in 0..2 {
        add_unocc_flow(&mut sim, (0, 1 + i), (0, 0), 1 << 20, None, LbMode::Spray);
        add_unocc_flow(&mut sim, (1, i), (0, 0), 1 << 20, None, LbMode::Spray);
    }
    assert!(sim.run_to_completion(2 * SECONDS));
    assert_eq!(sim.fcts.len(), 4);
}
