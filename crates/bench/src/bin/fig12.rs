//! Figure 12 — heterogeneous buffer sizes.
//!
//! Realistic 40 %-load workload with shallow intra-DC buffers (one intra
//! BDP per port) and deep WAN buffers (0.1x the inter-DC BDP per port),
//! matching the paper's §5.2.2 final experiment.

use uno::metrics::{FctTable, TextTable};
use uno::sim::{FlowClass, Time, MILLIS, SECONDS};
use uno_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse();
    let mut topo = args.topo();
    // Paper: intra queues ~ intra BDP (175 KiB), WAN queues ~ 0.1 x inter
    // BDP (~2.2 MiB at 2 ms / 100 Gbps — computed from the live params).
    topo.queue_bytes = topo.intra_bdp().max(64 << 10);
    topo.wan_queue_bytes = (topo.inter_bdp() / 10).max(1 << 20);
    let duration: Time = if args.full { 200 * MILLIS } else { 25 * MILLIS };
    let drain: Time = if args.full { 4 * SECONDS } else { 300 * MILLIS };

    println!("Figure 12: shallow intra buffers + deep WAN buffers, load 40%");
    println!(
        "intra queue {} KiB/port, WAN queue {} KiB/port",
        topo.queue_bytes >> 10,
        topo.wan_queue_bytes >> 10
    );
    println!();

    let specs = uno_bench::poisson_mix_specs(&topo, 0.4, duration, args.seed);
    println!(
        "{} flows ({} inter)",
        specs.len(),
        specs.iter().filter(|s| s.is_inter()).count()
    );

    let mut table = TextTable::new([
        "scheme",
        "intra mean(ms)",
        "intra p99(ms)",
        "inter mean(ms)",
        "inter p99(ms)",
        "done",
    ]);
    let rows = args.sweep().run(uno_bench::main_schemes(), |_, scheme| {
        let mut exp = uno_bench::experiment(uno_bench::config(&scheme, args.seed, &topo));
        exp.add_specs(&specs);
        let r = uno_bench::run_cell(exp, duration + drain, "load 40%");
        let done = format!("{}/{}", r.fcts.len(), r.flows);
        // Unfinished flows enter as FCT lower bounds (end = horizon):
        // dropping them would flatter slow schemes.
        let mut fcts = r.fcts;
        fcts.extend(r.censored);
        let t = FctTable::new(fcts);
        let ia = t.summary_class(FlowClass::Intra);
        let ie = t.summary_class(FlowClass::Inter);
        [
            r.scheme,
            format!("{:.3}", ia.mean_s * 1e3),
            format!("{:.3}", ia.p99_s * 1e3),
            format!("{:.3}", ie.mean_s * 1e3),
            format!("{:.3}", ie.p99_s * 1e3),
            done,
        ]
    });
    for row in rows {
        table.row(row);
    }
    print!("{table}");
    println!();
    println!("(paper: vs Gemini, Uno cuts tail FCT 3.1x intra / 1.7x inter;");
    println!(" vs MPRDMA+BBR, 3.6x / 1.8x)");
    uno_bench::write_manifests("fig12");
}
