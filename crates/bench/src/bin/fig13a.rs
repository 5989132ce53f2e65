//! Figure 13A — border-link failure.
//!
//! Latency-sensitive 5 MiB inter-DC flows saturate the WAN; one of the
//! border links fails mid-transfer. Each (scheme x seed) run records the
//! mean FCT; the distribution over seeds is reported as violin statistics
//! (the paper re-runs 100 times because a single run depends heavily on
//! the initial path selection).
//!
//! `--fault-variant hard|gray|asymmetric|flap` selects the failure mode:
//! `hard` (default) is the paper's clean link-down; the others are gray
//! variants — silent probabilistic loss, a one-direction (ACK-path)
//! blackhole, and Markov up/down flapping — run with per-flow graceful
//! degradation enabled so every flow reaches a definite outcome, which the
//! results table reports alongside the FCT distribution.

use uno::metrics::OutcomeCounts;
use uno::sim::{FaultEntry, FaultKind, FaultSpec, FaultTarget, MILLIS, SECONDS};
use uno::SchemeSpec;
use uno_bench::HarnessArgs;
use uno_workloads::FlowSpec;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultVariant {
    /// Clean link-down of one forward border link (the paper's Fig. 13A).
    Hard,
    /// Gray failure: the link stays up but silently drops 5% of packets.
    Gray,
    /// Asymmetric: one *reverse* border link blackholes — data crosses,
    /// ACKs on that path die.
    Asymmetric,
    /// Markov up/down flapping of one forward border link.
    Flap,
}

impl FaultVariant {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "hard" => Some(FaultVariant::Hard),
            "gray" => Some(FaultVariant::Gray),
            "asymmetric" => Some(FaultVariant::Asymmetric),
            "flap" => Some(FaultVariant::Flap),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultVariant::Hard => "one failed border link",
            FaultVariant::Gray => "gray loss (5%) on one border link",
            FaultVariant::Asymmetric => "asymmetric reverse-path blackhole",
            FaultVariant::Flap => "flapping border link (2 ms MTBF/MTTR)",
        }
    }

    /// Fault-plane entry for this variant, against the seed-chosen victim.
    fn fault_entry(self, idx: usize) -> Option<FaultEntry> {
        match self {
            FaultVariant::Hard => None, // legacy schedule_link_down path
            FaultVariant::Gray => Some(uno_bench::gray_border(idx)),
            FaultVariant::Asymmetric => Some(FaultEntry {
                target: FaultTarget::BorderReverse { idx },
                kind: FaultKind::Down,
                at: MILLIS / 2,
                until: None,
            }),
            FaultVariant::Flap => Some(uno_bench::flapping_border(idx)),
        }
    }
}

fn main() {
    let (args, extra) = HarnessArgs::parse_with_extra();
    let mut variant = FaultVariant::Hard;
    let mut it = extra.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fault-variant" => {
                let v = it
                    .next()
                    .expect("--fault-variant needs hard|gray|asymmetric|flap");
                variant = FaultVariant::parse(&v)
                    .unwrap_or_else(|| panic!("unknown fault variant `{v}`"));
            }
            other => panic!("unknown flag {other} (fig13a adds --fault-variant <kind>)"),
        }
    }
    let topo = args.topo();
    let runs: u64 = if args.full { 100 } else { 20 };
    let size = 5u64 << 20;
    // Enough flows to saturate the inter-DC links.
    let n_flows = 2 * topo.border_links as u32;
    let hosts = topo.hosts_per_dc() as u32;

    println!(
        "Figure 13A: {}, {n_flows} x 5 MiB inter-DC flows, {runs} runs",
        variant.label()
    );
    println!("{:>9} | FCT across runs (ms)", "scheme");
    println!("----------+--------------------------------------------");

    let schemes = SchemeSpec::fig13_matrix();
    let seeds: Vec<u64> = (0..runs).map(|i| args.seed + i).collect();
    let results = args.sweep_grid(&schemes, &seeds, |scheme, &seed| {
        let mut cfg = uno_bench::config(scheme, seed, &topo);
        if variant != FaultVariant::Hard {
            // Gray variants can permanently starve a flow; degrade it
            // to a definite outcome instead of censoring at the horizon.
            cfg.degrade = true;
        }
        let mut exp = uno_bench::experiment(cfg);
        for i in 0..n_flows {
            exp.add_spec(&FlowSpec {
                src_dc: 0,
                src_idx: (i * hosts / n_flows) % hosts,
                dst_dc: 1,
                dst_idx: ((i + 3) * hosts / n_flows) % hosts,
                size,
                start: 0,
            });
        }
        // The victim border link is seed-chosen, mirroring the paper's
        // sensitivity to initial path selection.
        let idx = (seed as usize) % exp.sim.topo.border_forward.len();
        match variant.fault_entry(idx) {
            Some(entry) => exp
                .sim
                .install_faults(&FaultSpec {
                    faults: vec![entry],
                })
                .expect("valid fault spec"),
            None => {
                let victim = exp.sim.topo.border_forward[idx];
                exp.sim.schedule_link_down(victim, MILLIS / 2);
            }
        }
        let r = uno_bench::run_cell(exp, 30 * SECONDS, variant.label());
        let fcts: Vec<f64> = r.fcts.iter().map(|f| f.fct() as f64 / 1e6).collect();
        let outcomes = OutcomeCounts::tally(&r.fcts, &r.failures, &r.censored);
        let mean = if r.all_completed {
            uno::metrics::mean(&fcts)
        } else {
            f64::NAN
        };
        (mean, outcomes)
    });
    for (scheme, runs) in schemes.iter().zip(results) {
        let means: Vec<f64> = runs.iter().map(|(m, _)| *m).collect();
        let total: OutcomeCounts = runs.iter().map(|(_, o)| *o).sum();
        let row = uno_bench::violin_row(scheme.name, &means, 7, |failed| {
            format!("{failed} runs incomplete; flows: {total}")
        });
        println!("{row}");
    }
    println!();
    println!("(paper: UnoLB+EC beats spraying and PLB with and without EC — up to");
    println!(" 3x vs no-EC, 2x vs RPS, 6x vs PLB — by avoiding the failed link");
    println!(" and spreading each block across subflows)");
    uno_bench::write_manifests("fig13a");
}
