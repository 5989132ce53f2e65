//! Figure 9 — permutation workload.
//!
//! Every host sends one message to a distinct random host (possibly in the
//! other DC). Two provisioning regimes: the paper topology as-is (8 border
//! links = oversubscribed WAN) and a fully provisioned inter-DC
//! interconnect. Compared: Uno (UnoLB), Uno+ECMP, Gemini, MPRDMA+BBR.

use uno::metrics::{FctTable, TextTable};
use uno::sim::{FlowClass, SECONDS};
use uno_bench::HarnessArgs;
use uno_workloads::permutation;

fn main() {
    let args = HarnessArgs::parse();
    let base_topo = args.topo();
    let size = (256u64 << 20) / args.size_scale();
    let hosts = base_topo.hosts_per_dc() as u32;

    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(args.seed);
    let specs = permutation(hosts, 2, size, &mut rng);
    let inter = specs.iter().filter(|s| s.is_inter()).count();
    println!(
        "Figure 9: permutation workload, {} hosts x {} ({} inter-DC flows)",
        specs.len(),
        uno_bench::fmt_bytes(size),
        inter
    );
    println!();

    // As-is (8 border links: an oversubscribed WAN), then fully
    // provisioned: enough border links that the WAN is never the
    // bottleneck.
    let mut provisioned = base_topo.clone();
    provisioned.border_links = provisioned.hosts_per_dc();
    let regimes = [("as-is", base_topo), ("fully provisioned", provisioned)];
    let rows = args.sweep_grid(
        &regimes,
        &uno_bench::main_schemes(),
        |(label, topo), scheme| {
            let mut exp = uno_bench::experiment(uno_bench::config(scheme, args.seed, topo));
            exp.add_specs(&specs);
            let cell = format!("{} border links ({label})", topo.border_links);
            let r = uno_bench::run_cell(exp, 60 * SECONDS, &cell);
            let done = format!("{}/{}", r.fcts.len(), r.flows);
            let t = FctTable::new(r.fcts);
            let all = t.summary();
            let ia = t.summary_class(FlowClass::Intra);
            let ie = t.summary_class(FlowClass::Inter);
            [
                r.scheme,
                format!("{:.3}", all.mean_s * 1e3),
                format!("{:.3}", all.p99_s * 1e3),
                format!("{:.3}", ia.mean_s * 1e3),
                format!("{:.3}", ie.mean_s * 1e3),
                done,
            ]
        },
    );
    for ((label, topo), rows) in regimes.iter().zip(rows) {
        println!(
            "== inter-DC provisioning: {} border links ({label}) ==",
            topo.border_links
        );
        let mut table = TextTable::new([
            "scheme",
            "mean (ms)",
            "p99 (ms)",
            "intra mean (ms)",
            "inter mean (ms)",
            "done",
        ]);
        for row in rows {
            table.row(row);
        }
        print!("{table}");
        println!();
    }
    uno_bench::write_manifests("fig09");
}
