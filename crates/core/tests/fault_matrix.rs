//! Fault-matrix smoke lane (CI): every fault kind x {UnoCC, Gemini} on the
//! tiny topology. The single property asserted is *graceful degradation*:
//! with the watchdog and bounded retries armed, every flow must reach a
//! definite [`uno::sim::FlowOutcome`] — completed, stalled, or aborted —
//! rather than spinning until the experiment horizon.

use uno::sim::{FaultEntry, FaultKind, FaultSpec, FaultTarget, MILLIS, SECONDS};
use uno::workloads::FlowSpec;
use uno::{Experiment, ExperimentConfig, SchemeSpec};

fn fault_cases() -> Vec<(&'static str, FaultEntry)> {
    let fwd = |idx| FaultTarget::BorderForward { idx };
    vec![
        (
            "down",
            FaultEntry {
                target: fwd(0),
                kind: FaultKind::Down,
                at: MILLIS,
                until: None,
            },
        ),
        (
            "gray_loss",
            FaultEntry {
                target: fwd(0),
                kind: FaultKind::GrayLoss { p: 0.3 },
                at: 0,
                until: Some(50 * MILLIS),
            },
        ),
        (
            "degraded",
            FaultEntry {
                target: fwd(0),
                kind: FaultKind::Degraded { factor: 0.25 },
                at: 0,
                until: None,
            },
        ),
        (
            "delay",
            FaultEntry {
                target: fwd(0),
                kind: FaultKind::Delay {
                    extra: 2 * MILLIS,
                    jitter: MILLIS,
                },
                at: 0,
                until: None,
            },
        ),
        (
            "flapping",
            FaultEntry {
                target: fwd(0),
                kind: FaultKind::Flapping {
                    mtbf: 5 * MILLIS,
                    mttr: 5 * MILLIS,
                },
                at: 0,
                until: Some(100 * MILLIS),
            },
        ),
        (
            "asymmetric",
            FaultEntry {
                target: FaultTarget::BorderReverse { idx: 0 },
                kind: FaultKind::Down,
                at: 0,
                until: None,
            },
        ),
    ]
}

fn spec(src_dc: u8, src: u32, dst_dc: u8, dst: u32, size: u64) -> FlowSpec {
    FlowSpec {
        src_dc,
        src_idx: src,
        dst_dc,
        dst_idx: dst,
        size,
        start: 0,
    }
}

#[test]
fn every_fault_kind_and_scheme_reaches_definite_outcomes() {
    let horizon = 20 * SECONDS;
    for scheme_of in [SchemeSpec::uno as fn() -> SchemeSpec, SchemeSpec::gemini] {
        for (name, fault) in fault_cases() {
            let scheme = scheme_of();
            let label = format!("{}/{name}", scheme.name);
            let mut cfg = ExperimentConfig::quick(scheme, 0xFA17);
            cfg.degrade = true;
            let mut e = Experiment::new(cfg);
            e.sim
                .install_faults(&FaultSpec {
                    faults: vec![fault],
                })
                .unwrap_or_else(|err| panic!("{label}: bad fault spec: {err}"));
            // Two border-crossing flows plus one intra bystander.
            e.add_specs(&[
                spec(0, 0, 1, 1, 512 << 10),
                spec(0, 2, 1, 3, 512 << 10),
                spec(0, 4, 0, 5, 256 << 10),
            ]);
            let r = e.run(horizon);
            assert_eq!(
                r.fcts.len() + r.failures.len(),
                r.flows,
                "{label}: every flow needs a definite outcome \
                 (completed={}, failed={}, flows={})",
                r.fcts.len(),
                r.failures.len(),
                r.flows
            );
            assert!(r.censored.is_empty(), "{label}: censored flows remain");
            assert!(
                r.sim_time < horizon,
                "{label}: run dragged to the horizon ({})",
                r.sim_time
            );
        }
    }
}
