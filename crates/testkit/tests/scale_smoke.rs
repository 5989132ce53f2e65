//! Scale smoke test: a 4-site, k=16 fabric (4096 hosts) running a mixed
//! intra/inter incast with telemetry sampling and the full invariant suite
//! armed. Guards the struct-of-arrays engine tables at a host count two
//! orders of magnitude above the unit-test topologies: the run must finish
//! inside a generous wall-clock budget, every flow must reach a definite
//! outcome, and no protocol invariant may fire.

use uno::{CcKind, Experiment, ExperimentConfig, SchemeSpec};
use uno_sim::{SampleConfig, TopologyParams, MICROS, MILLIS, SECONDS};
use uno_testkit::{ArmedChecker, FlowNetInfo, NetSpec};
use uno_workloads::FlowSpec;

/// Wall-clock ceiling for the whole run (debug builds on a loaded CI host;
/// release finishes in well under a second).
const BUDGET_SECS: u64 = 180;

#[test]
fn incast_4k_hosts_with_telemetry_and_invariants() {
    let started = std::time::Instant::now();

    let topo = TopologyParams::multi_dc(4, 16, 8);
    assert_eq!(topo.hosts_per_dc() * topo.dcs, 4096);
    let scheme = SchemeSpec::uno();
    let mut cfg = ExperimentConfig::quick(scheme.clone(), 42);
    cfg.topo = topo;
    cfg.telemetry = Some(SampleConfig::every(50 * MICROS));
    let mut exp = Experiment::new(cfg);

    // Incast into DC0 host 0: 24 intra senders spread across the fabric
    // plus 4 inter senders from each remote site.
    let per_dc = exp.sim.topo.params.hosts_per_dc() as u32;
    let mut specs: Vec<FlowSpec> = Vec::new();
    for i in 0..24u32 {
        specs.push(FlowSpec {
            src_dc: 0,
            src_idx: 1 + i * (per_dc - 2) / 24,
            dst_dc: 0,
            dst_idx: 0,
            size: 256 << 10,
            start: 0,
        });
    }
    for dc in 1..4u8 {
        for i in 0..4u32 {
            specs.push(FlowSpec {
                src_dc: dc,
                src_idx: i * per_dc / 4,
                dst_dc: 0,
                dst_idx: 0,
                size: 256 << 10,
                start: 0,
            });
        }
    }

    // Arm the standard invariant suite against the realised topology.
    let net_spec = {
        let topo = &exp.sim.topo;
        let queue_capacity: Vec<u64> = topo
            .links
            .ids()
            .map(|l| topo.links.profile(l).queue.capacity)
            .collect();
        let flows = specs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let src = topo.host(f.src_dc, f.src_idx);
                let dst = topo.host(f.dst_dc, f.dst_idx);
                let inter = f.src_dc != f.dst_dc;
                let base_rtt = topo.base_rtt(src, dst);
                let d_intra = (topo.params.intra_rtt / 12).max(1);
                let rtt_floor = if inter {
                    base_rtt
                } else {
                    2 * topo.path_hops(src, dst) as u64 * d_intra
                };
                let mtu = topo.params.mtu;
                let bdp = topo.params.link_bps as f64 / 8.0 * (base_rtt as f64 / 1e9);
                let bbr = inter && matches!(scheme.cc, CcKind::MprdmaBbr);
                let cwnd_max = if bbr {
                    8.0 * bdp + 64.0 * mtu as f64
                } else {
                    2.0 * bdp + 16.0 * mtu as f64
                };
                FlowNetInfo {
                    id: i as u32,
                    size: f.size,
                    mtu,
                    ec: scheme
                        .ec_for(inter)
                        .map(|p| (p.data as u32, p.parity as u32)),
                    rtt_floor,
                    cwnd_max,
                }
            })
            .collect();
        NetSpec {
            queue_capacity,
            flows,
            liveness_grace: SECONDS / 2,
            max_nacks_per_block: 8,
            require_outcome: false,
            stall_horizon: 3 * SECONDS,
            pfc_storm_window: 10 * MILLIS,
            pfc_storm_duty: 0.9,
            pause_grace: SECONDS,
        }
    };
    let armed = ArmedChecker::new(net_spec);
    exp.sim.set_tracer(armed.tracer());

    let n = specs.len();
    exp.add_specs(&specs);
    let r = exp.run(2 * SECONDS);

    // Definite outcomes for all flows — nothing censored at the horizon.
    assert_eq!(r.flows, n);
    assert_eq!(r.fcts.len(), n, "all {n} incast flows must complete");
    assert!(r.failures.is_empty());
    assert!(r.censored.is_empty());
    assert!(r.sim_time < 2 * SECONDS, "ended early, not at the horizon");

    // Telemetry was on and saw the incast bottleneck.
    let telemetry = r.telemetry.expect("telemetry enabled").to_value();
    let links = telemetry.get("links").and_then(|l| l.as_object()).unwrap();
    assert!(
        !links.is_empty(),
        "the bottleneck queue must have produced at least one link series"
    );
    let ticks = telemetry.get("ticks").and_then(|t| t.as_f64()).unwrap();
    assert!(ticks > 0.0);

    // The full invariant suite stayed quiet.
    let report = armed.finish(r.sim_time);
    assert!(
        !report.failed(),
        "invariant violations at 4k hosts: {:?}",
        report.violations.first()
    );
    assert!(report.events_seen > 0, "tracer saw no events");

    let elapsed = started.elapsed().as_secs();
    assert!(
        elapsed < BUDGET_SECS,
        "scale smoke took {elapsed}s (budget {BUDGET_SECS}s)"
    );
}
