//! The full stack holds every protocol invariant on handcrafted stress
//! scenarios (per scheme, with faults) and on a band of generated fuzz
//! seeds. This is the deterministic core of what `uno-fuzz` sweeps more
//! widely in CI.

use uno_sim::MILLIS;
use uno_testkit::{run_scenario, Fault, FlowDesc, Scenario};

fn assert_clean(sc: &Scenario, what: &str) {
    let out = run_scenario(sc);
    assert!(
        !out.failed(),
        "{what}: {} violation(s), first: {:?}",
        out.violations.len(),
        out.violations.first()
    );
    assert!(out.completed, "{what}: flows missed the horizon");
    assert!(out.events_seen > 0, "{what}: tracer saw no events");
}

/// Mixed intra/inter workload under loss and a healed border-link failure.
fn stress(scheme: u8) -> Scenario {
    Scenario {
        seed: 11 + scheme as u64,
        scheme,
        queue_kib: 512,
        flows: vec![
            // Inter-DC flow crossing the faulted border.
            FlowDesc {
                src_dc: 0,
                src_idx: 0,
                dst_dc: 1,
                dst_idx: 4,
                size: 48 * 4096,
                start: 0,
            },
            // Same-rack short flow (tests the tight RTT-floor path).
            FlowDesc {
                src_dc: 0,
                src_idx: 1,
                dst_dc: 0,
                dst_idx: 2,
                size: 6 * 4096,
                start: 100_000,
            },
            // Cross-pod intra flow competing for fabric links.
            FlowDesc {
                src_dc: 1,
                src_idx: 3,
                dst_dc: 1,
                dst_idx: 12,
                size: 64 * 4096,
                start: MILLIS / 2,
            },
        ],
        faults: vec![
            Fault::LinkDown {
                fwd: true,
                idx: 0,
                at: MILLIS,
                up_after: 5 * MILLIS,
            },
            Fault::Loss {
                link: 17,
                permille: 20,
                from: 0,
                until: 4 * MILLIS,
            },
        ],
        horizon: 10_000 * MILLIS,
        inject_block_bug: false,
        lossless: false,
        pfc_xoff_permille: 0,
    }
}

#[test]
fn uno_holds_invariants_under_faults() {
    assert_clean(&stress(0), "uno");
}

#[test]
fn uno_ecmp_holds_invariants_under_faults() {
    assert_clean(&stress(1), "uno_ecmp");
}

#[test]
fn gemini_holds_invariants_under_faults() {
    assert_clean(&stress(2), "gemini");
}

#[test]
fn mprdma_bbr_holds_invariants_under_faults() {
    assert_clean(&stress(3), "mprdma_bbr");
}

#[test]
fn generated_seed_band_is_clean() {
    // A small deterministic slice of the fuzzer's search space; CI sweeps
    // seeds 0..200 via the uno-fuzz smoke job.
    for seed in 0..24 {
        let sc = Scenario::generate(seed, true);
        assert_clean(&sc, &format!("generated seed {seed}"));
    }
}
