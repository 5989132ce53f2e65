//! End-to-end proof that the harness catches a real protocol bug: with the
//! test-only block-accounting off-by-one armed in the transport, the
//! completion-soundness invariant must fire, and the shrinker must reduce
//! the case to a minimal reproducer.

use uno_sim::MILLIS;
use uno_testkit::{repro_hash, run_scenario, shrink, FlowDesc, Scenario};

/// An inter-DC EC flow under the `uno` scheme (the only scheme with
/// `ec_inter` armed) — exactly the situation the off-by-one corrupts.
fn bug_scenario() -> Scenario {
    Scenario {
        seed: 1,
        scheme: 0, // uno
        queue_kib: 1024,
        flows: vec![FlowDesc {
            src_dc: 0,
            src_idx: 0,
            dst_dc: 1,
            dst_idx: 0,
            size: 16 * 4096, // two (8,2) blocks
            start: 0,
        }],
        faults: vec![],
        horizon: 10_000 * MILLIS,
        inject_block_bug: true,
        lossless: false,
        pfc_xoff_permille: 0,
    }
}

#[test]
fn injected_block_bug_is_caught() {
    let out = run_scenario(&bug_scenario());
    assert!(out.failed(), "armed off-by-one escaped every invariant");
    assert!(
        out.violations
            .iter()
            .any(|v| v.invariant == "completion-soundness"),
        "expected a completion-soundness violation, got: {:?}",
        out.violations
    );
}

#[test]
fn same_scenario_is_clean_without_the_bug() {
    let mut sc = bug_scenario();
    sc.inject_block_bug = false;
    let out = run_scenario(&sc);
    assert!(
        !out.failed(),
        "scenario should be clean without the injected bug: {:?}",
        out.violations
    );
}

#[test]
fn shrinker_reduces_to_minimal_reproducer() {
    // Start from a noisier case: the bug flow plus bystander flows and an
    // irrelevant fault, all of which the shrinker should strip.
    let mut sc = bug_scenario();
    sc.flows.push(FlowDesc {
        src_dc: 0,
        src_idx: 2,
        dst_dc: 0,
        dst_idx: 3,
        size: 64 * 4096,
        start: 0,
    });
    sc.flows.push(FlowDesc {
        src_dc: 1,
        src_idx: 5,
        dst_dc: 1,
        dst_idx: 6,
        size: 32 * 4096,
        start: MILLIS,
    });
    sc.faults.push(uno_testkit::Fault::Loss {
        link: 3,
        permille: 5,
        from: 0,
        until: 2 * MILLIS,
    });
    assert!(run_scenario(&sc).failed());

    let r = shrink(&sc, 300);
    assert!(
        run_scenario(&r.scenario).failed(),
        "shrunk case must still fail"
    );
    assert_eq!(r.scenario.flows.len(), 1, "bystander flows not removed");
    assert!(r.scenario.faults.is_empty(), "irrelevant fault not removed");
    // The off-by-one needs a block with >= 2 data packets, so the minimal
    // message is two packets (8 KiB); shrinking halves sizes toward that.
    assert!(
        r.scenario.flows[0].size <= 16 * 4096,
        "size not shrunk: {}",
        r.scenario.flows[0].size
    );
    assert!(r.scenario.flows[0].size >= 2 * 4096);

    // The reproducer round-trips losslessly through its JSON form.
    let back = Scenario::from_json(&r.scenario.to_json_pretty()).unwrap();
    assert_eq!(back, r.scenario);
    assert_eq!(repro_hash(&back), repro_hash(&r.scenario));
}
