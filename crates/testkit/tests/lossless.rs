//! Lossless-fabric robustness tests: a deliberately planted high-fan-in
//! incast must trip the PFC-storm detector on a real simulated run (not a
//! synthetic trace), while the pause protocol itself stays disciplined —
//! and the identical workload on a lossy fabric must emit no PFC activity
//! at all.

use std::sync::{Arc, Mutex};

use uno::{Experiment, ExperimentConfig, SchemeSpec};
use uno_sim::{
    FabricMode, FaultEntry, FaultKind, FaultSpec, FaultTarget, PfcParams, RedParams, SampleConfig,
    Time, TopologyParams, TraceConfig, TraceEvent, Tracer, MILLIS, SECONDS,
};
use uno_testkit::invariant::{
    InvariantSuite, PauseDiscipline, PauseLiveness, PfcDeadlockDetector, PfcStormDetector,
};
use uno_testkit::NetSpec;
use uno_workloads::FlowSpec;

/// A tiny-buffer lossless fabric under a 14-to-1 incast whose victim drain
/// link is degraded to 5% line rate: the victim ToR port stays pinned above
/// XOFF, pauses propagate up the tree, and the pause duty cycle at the
/// congested port pins near 100% — the congestion-spreading storm that PFC
/// is infamous for.
fn storm_experiment(fabric: FabricMode) -> (Experiment, Vec<FlowSpec>) {
    let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), 4242);
    cfg.topo = TopologyParams::small();
    cfg.topo.fabric = fabric;
    // Shallow switch buffers with an aggressive XOFF, and ECN marking
    // pushed above the XOFF threshold so congestion control never sees a
    // mark before PFC engages: pauses become the dominant flow-control
    // mechanism. This is the classical mis-tuning that produces pause
    // storms on real lossless fabrics. The XOFF headroom (capacity - xoff)
    // must still absorb one propagation delay of line-rate arrivals from
    // every feeder (~58 KiB here), or PFC itself would drop.
    cfg.topo.queue_bytes = 256 << 10;
    cfg.topo.red = RedParams {
        min_frac: 0.95,
        max_frac: 1.0,
    };
    cfg.topo.pfc = PfcParams {
        xoff_frac: 0.25,
        xon_frac: 0.15,
    };
    cfg.telemetry = Some(SampleConfig::every(100_000));
    let mut exp = Experiment::new(cfg);
    let per_dc = exp.sim.topo.params.hosts_per_dc() as u32;
    let specs: Vec<FlowSpec> = (1..per_dc.min(15))
        .map(|i| FlowSpec {
            src_dc: 0,
            src_idx: i,
            dst_dc: 0,
            dst_idx: 0,
            size: 4 << 20,
            start: 0,
        })
        .collect();
    exp.add_specs(&specs);
    // The victim's drain link limps at 5% line rate for the whole run:
    // ack-clocking alone can no longer match arrival to departure, so the
    // victim port lives above XOFF and the pause tree spreads upstream.
    let victim_drain = exp.sim.topo.host_downlink(exp.sim.topo.host(0, 0));
    exp.sim
        .install_faults(&FaultSpec {
            faults: vec![FaultEntry {
                target: FaultTarget::Link { id: victim_drain.0 },
                kind: FaultKind::Degraded { factor: 0.05 },
                at: 0,
                until: None,
            }],
        })
        .expect("valid fault spec");
    (exp, specs)
}

fn pfc_spec(exp: &Experiment, window: Time, duty: f64) -> NetSpec {
    NetSpec {
        queue_capacity: exp
            .sim
            .topo
            .links
            .ids()
            .map(|l| exp.sim.topo.links.profile(l).queue.capacity)
            .collect(),
        flows: vec![],
        liveness_grace: SECONDS / 2,
        max_nacks_per_block: 8,
        require_outcome: false,
        stall_horizon: 0,
        pfc_storm_window: window,
        pfc_storm_duty: duty,
        pause_grace: SECONDS,
    }
}

/// Shared `(pauses, resumes)` tally of PFC trace events seen.
type PfcEventCounts = Arc<Mutex<(u64, u64)>>;

/// Arm `suite` on the experiment via a callback tracer, also counting PFC
/// trace events as they stream by.
fn arm(
    exp: &mut Experiment,
    suite: InvariantSuite,
) -> (Arc<Mutex<InvariantSuite>>, PfcEventCounts) {
    let suite = Arc::new(Mutex::new(suite));
    let pfc_events = Arc::new(Mutex::new((0u64, 0u64)));
    let s = Arc::clone(&suite);
    let n = Arc::clone(&pfc_events);
    exp.sim.set_tracer(Tracer::callback(
        Box::new(move |ev| {
            match ev {
                TraceEvent::PfcPause { .. } => n.lock().unwrap().0 += 1,
                TraceEvent::PfcResume { .. } => n.lock().unwrap().1 += 1,
                _ => {}
            }
            s.lock().unwrap().on_event(ev);
        }),
        TraceConfig::all(),
    ));
    (suite, pfc_events)
}

#[test]
fn planted_incast_storm_is_detected_and_pause_protocol_holds() {
    let (mut exp, specs) = storm_experiment(FabricMode::Lossless);
    let spec = pfc_spec(&exp, MILLIS, 0.5);
    let suite = InvariantSuite::with_checkers(
        spec,
        vec![
            Box::<PfcStormDetector>::default(),
            Box::<PauseDiscipline>::default(),
            Box::<PfcDeadlockDetector>::default(),
            Box::<PauseLiveness>::default(),
        ],
    );
    let (suite, pfc_events) = arm(&mut exp, suite);

    let r = exp.run(10 * SECONDS);
    let report = suite.lock().unwrap().finalize(r.sim_time);

    let (pauses, resumes) = *pfc_events.lock().unwrap();
    assert!(pauses > 0, "a lossless incast must assert pauses");
    assert_eq!(pauses, resumes, "every pause frame must be matched");

    // The planted storm fires; the protocol-discipline checks stay clean
    // (up-down fat-tree routing cannot form a cyclic buffer dependency,
    // HOL blocking holds, and every pause releases).
    let storms: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.invariant == "pfc-storm")
        .collect();
    assert!(
        !storms.is_empty(),
        "the planted incast must trip the storm detector"
    );
    assert!(
        storms[0].detail.contains("depth"),
        "storm report carries pause-tree depth attribution: {}",
        storms[0].detail
    );
    // Congestion spreading: one degraded 5-Gbps access link paused far more
    // than its own port — the storm engulfs links several hops upstream.
    assert!(
        storms.len() >= 8,
        "the storm must spread beyond the victim's direct feeders, got {}",
        storms.len()
    );
    assert!(
        storms.iter().any(|v| v.detail.contains("depth 3")
            || v.detail.contains("depth 4")
            || v.detail.contains("depth 5")),
        "pause-tree depth attribution must show multi-hop spreading"
    );
    for v in &report.violations {
        assert_eq!(
            v.invariant, "pfc-storm",
            "only the storm may fire, got: {v}"
        );
    }

    // Lossless means lossless: no queue ever dropped a packet, yet every
    // flow still completed (PFC throttled them instead).
    assert_eq!(
        r.manifest.counters.get("queue.drops"),
        0,
        "PFC must prevent queue overflow"
    );
    assert_eq!(r.fcts.len(), specs.len(), "all incast flows complete");
    assert!(r.manifest.counters.get("pfc.pauses") > 0);
    assert!(r.manifest.counters.get("pfc.paused_ns") > 0);
}

#[test]
fn lossy_fabric_same_workload_has_zero_pfc_activity() {
    let (mut exp, _specs) = storm_experiment(FabricMode::Lossy);
    let spec = pfc_spec(&exp, MILLIS, 0.5);
    let suite = InvariantSuite::with_checkers(
        spec,
        vec![
            Box::<PfcStormDetector>::default(),
            Box::<PauseDiscipline>::default(),
            Box::<PfcDeadlockDetector>::default(),
            Box::<PauseLiveness>::default(),
        ],
    );
    let (suite, pfc_events) = arm(&mut exp, suite);

    let r = exp.run(10 * SECONDS);
    let report = suite.lock().unwrap().finalize(r.sim_time);

    let (pauses, resumes) = *pfc_events.lock().unwrap();
    assert_eq!((pauses, resumes), (0, 0), "lossy fabric must never pause");
    assert!(report.violations.is_empty());
    assert_eq!(r.manifest.counters.get("pfc.pauses"), 0);
    // Same shallow buffers without PFC: the incast overflows and drops.
    assert!(
        r.manifest.counters.get("queue.drops") > 0,
        "lossy incast should tail-drop"
    );
}

#[test]
fn lossless_runs_are_deterministic() {
    let run = || {
        let (exp, _) = storm_experiment(FabricMode::Lossless);
        let r = exp.run(10 * SECONDS);
        (
            r.sim_time,
            r.manifest.events_processed,
            r.manifest.counters.get("pfc.pauses"),
            serde_json::to_string(&r.telemetry).unwrap(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // Telemetry carries pause series for the paused links.
    assert!(a.3.contains("paused_ns"), "pause telemetry must be sampled");
}
