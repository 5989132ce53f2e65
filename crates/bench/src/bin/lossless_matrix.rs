//! Lossless-fabric matrix — congestion spreading under faults.
//!
//! Every congestion-control scheme runs the same workload — inter-DC
//! transfers crossing the border plus innocent intra-DC bystander flows in
//! DC0 — on a lossy and on a PFC-lossless fabric, with a healthy border, a
//! gray-losing border link, and a flapping border link. The headline
//! comparison is the **bystander column**: on a lossy fabric a sick border
//! link only hurts the flows that cross it, while on a lossless fabric the
//! border switch backs up, PAUSE frames climb the tree, and head-of-line
//! blocking taxes intra-DC flows that never touch the WAN. The PFC
//! counters (pause frames sent, port-paused time) quantify how far the
//! congestion spread.
//!
//! ```text
//! lossless_matrix                   # quick matrix (5 seeds/cell)
//! lossless_matrix --full            # 20 seeds/cell
//! lossless_matrix --faults gray     # one fault column only
//! ```

use uno::metrics::OutcomeCounts;
use uno::sim::{FabricMode, FaultEntry, FaultSpec, FlowClass, MILLIS, SECONDS};
use uno::SchemeSpec;
use uno_bench::HarnessArgs;
use uno_workloads::FlowSpec;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultCol {
    /// Healthy fabric: the congestion-spreading baseline.
    None,
    /// Gray failure: one forward border link silently drops 5% of packets.
    Gray,
    /// Markov up/down flapping of one forward border link.
    Flap,
}

impl FaultCol {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(FaultCol::None),
            "gray" => Some(FaultCol::Gray),
            "flap" => Some(FaultCol::Flap),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            FaultCol::None => "healthy",
            FaultCol::Gray => "gray 5%",
            FaultCol::Flap => "flapping",
        }
    }

    fn fault_entry(self, idx: usize) -> Option<FaultEntry> {
        match self {
            FaultCol::None => None,
            FaultCol::Gray => Some(uno_bench::gray_border(idx)),
            FaultCol::Flap => Some(uno_bench::flapping_border(idx)),
        }
    }
}

/// Per-cell aggregate over seeds.
#[derive(Default)]
struct Cell {
    inter_fct_ms: Vec<f64>,
    bystander_fct_ms: Vec<f64>,
    pauses: u64,
    paused_ms: f64,
    outcomes: OutcomeCounts,
}

fn main() {
    let (args, extra) = HarnessArgs::parse_with_extra();
    let mut only_fault: Option<FaultCol> = None;
    let mut it = extra.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                let v = it.next().expect("--faults needs none|gray|flap");
                only_fault =
                    Some(FaultCol::parse(&v).unwrap_or_else(|| panic!("unknown fault col `{v}`")));
            }
            other => panic!("unknown flag {other} (lossless_matrix adds --faults <col>)"),
        }
    }
    let topo = args.topo();
    let runs: u64 = if args.full { 20 } else { 5 };
    let hosts = topo.hosts_per_dc() as u32;
    let n_inter = 2 * topo.border_links as u32;
    let n_bystander = 8u32;

    let fault_cols: Vec<FaultCol> = match only_fault {
        Some(c) => vec![c],
        None => vec![FaultCol::None, FaultCol::Gray, FaultCol::Flap],
    };
    let schemes = [
        SchemeSpec::uno(),
        SchemeSpec::uno_ecmp(),
        SchemeSpec::gemini(),
        SchemeSpec::mprdma_bbr(),
    ];

    println!(
        "Lossless matrix: {n_inter} x 5 MiB inter-DC + {n_bystander} x 1 MiB \
         intra-DC bystanders, {runs} seeds/cell"
    );
    println!(
        "{:>10} {:>9} {:>9} | {:>9} {:>10} | {:>8} {:>10} | outcomes",
        "scheme", "fabric", "fault", "inter ms", "bystand ms", "pauses", "paused ms"
    );
    println!("{}", "-".repeat(96));

    let mut rows = Vec::new();
    for scheme in &schemes {
        for fabric in [FabricMode::Lossy, FabricMode::Lossless] {
            for &fault in &fault_cols {
                rows.push((scheme, fabric, fault));
            }
        }
    }
    let seeds: Vec<u64> = (0..runs).map(|i| args.seed + i).collect();
    let per_seed = args.sweep_grid(&rows, &seeds, |&(scheme, fabric, fault), &seed| {
        run_seed(
            scheme,
            fabric,
            fault,
            &topo,
            seed,
            hosts,
            n_inter,
            n_bystander,
        )
    });
    for (i, (&(scheme, fabric, fault), seeds)) in rows.iter().zip(per_seed).enumerate() {
        let total = seeds.iter().fold(Cell::default(), |mut acc, c| {
            acc.inter_fct_ms.extend_from_slice(&c.inter_fct_ms);
            acc.bystander_fct_ms.extend_from_slice(&c.bystander_fct_ms);
            acc.pauses += c.pauses;
            acc.paused_ms += c.paused_ms;
            acc.outcomes += c.outcomes;
            acc
        });
        println!(
            "{:>10} {:>9} {:>9} | {:>9.2} {:>10.2} | {:>8} {:>10.2} | {}",
            scheme.name,
            fabric_name(fabric),
            fault.label(),
            uno::metrics::mean(&total.inter_fct_ms),
            uno::metrics::mean(&total.bystander_fct_ms),
            total.pauses,
            total.paused_ms,
            total.outcomes
        );
        // A rule closes each scheme's two fabrics' worth of rows.
        if (i + 1) % (2 * fault_cols.len()) == 0 {
            println!("{}", "-".repeat(96));
        }
    }
    println!();
    println!("(headline: on the lossy fabric a sick border link leaves bystander");
    println!(" intra-DC FCTs untouched; on the lossless fabric the border switch");
    println!(" backs up and PAUSE frames spread the congestion to flows that");
    println!(" never cross the WAN — the pauses / paused-ms columns measure it)");
    uno_bench::write_manifests("lossless_matrix");
}

fn fabric_name(fabric: FabricMode) -> &'static str {
    match fabric {
        FabricMode::Lossy => "lossy",
        FabricMode::Lossless => "lossless",
    }
}

#[allow(clippy::too_many_arguments)]
fn run_seed(
    scheme: &SchemeSpec,
    fabric: FabricMode,
    fault: FaultCol,
    topo: &uno::sim::TopologyParams,
    seed: u64,
    hosts: u32,
    n_inter: u32,
    n_bystander: u32,
) -> Cell {
    let mut cfg = uno_bench::config(scheme, seed, topo);
    cfg.topo.fabric = fabric;
    if fault != FaultCol::None {
        // Gray variants can permanently starve a flow; degrade it to a
        // definite outcome instead of censoring at the horizon.
        cfg.degrade = true;
    }
    let mut exp = uno_bench::experiment(cfg);
    // Inter-DC transfers crossing the (possibly sick) border.
    for i in 0..n_inter {
        exp.add_spec(&FlowSpec {
            src_dc: 0,
            src_idx: (i * hosts / n_inter) % hosts,
            dst_dc: 1,
            dst_idx: ((i + 3) * hosts / n_inter) % hosts,
            size: 5 << 20,
            start: 0,
        });
    }
    // Innocent intra-DC bystanders: never touch the WAN, but share the
    // DC0 fabric the paused ports live in.
    for i in 0..n_bystander {
        exp.add_spec(&FlowSpec {
            src_dc: 0,
            src_idx: (2 * i + 1) % hosts,
            dst_dc: 0,
            dst_idx: (2 * i + hosts / 2) % hosts,
            size: 1 << 20,
            start: MILLIS,
        });
    }
    if let Some(entry) = fault.fault_entry((seed as usize) % exp.sim.topo.border_forward.len()) {
        exp.sim
            .install_faults(&FaultSpec {
                faults: vec![entry],
            })
            .expect("valid fault spec");
    }
    let label = format!("{} fabric, {}", fabric_name(fabric), fault.label());
    let r = uno_bench::run_cell(exp, 30 * SECONDS, &label);
    let mut cell = Cell {
        pauses: r.manifest.counters.get("pfc.pauses"),
        paused_ms: r.manifest.counters.get("pfc.paused_ns") as f64 / 1e6,
        outcomes: OutcomeCounts::tally(&r.fcts, &r.failures, &r.censored),
        ..Cell::default()
    };
    for f in &r.fcts {
        let ms = f.fct() as f64 / 1e6;
        match f.class {
            FlowClass::Inter => cell.inter_fct_ms.push(ms),
            FlowClass::Intra => cell.bystander_fct_ms.push(ms),
        }
    }
    cell
}
