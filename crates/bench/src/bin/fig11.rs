//! Figure 11 — sensitivity to the inter/intra RTT gap.
//!
//! The realistic 40 %-load workload of Fig. 10, repeated while the inter-DC
//! propagation delay scales the RTT ratio from 8x to 512x the intra-DC RTT
//! (intra stays at 14 µs). The paper reports FCT *slowdowns* (measured FCT /
//! unloaded ideal FCT); Uno's advantage grows with the gap — at 512x its
//! tail slowdown is ~5x lower than both baselines.

use uno::metrics::{percentile, TextTable};
use uno::sim::{FlowClass, Time, MILLIS, SECONDS};
use uno::{ideal_fct, sim::time::as_secs_f64};
use uno_bench::HarnessArgs;

fn main() {
    let args = HarnessArgs::parse();
    let base = args.topo();
    let duration: Time = if args.full { 100 * MILLIS } else { 20 * MILLIS };
    let drain: Time = if args.full { 4 * SECONDS } else { 300 * MILLIS };
    let ratios: &[u64] = if args.full {
        &[8, 32, 128, 512]
    } else {
        &[8, 64, 512]
    };

    println!("Figure 11: FCT slowdown vs inter/intra RTT ratio (load 40%)");
    println!();

    let sweeps: Vec<_> = ratios
        .iter()
        .map(|&ratio| {
            let mut topo = base.clone();
            topo.inter_rtt = topo.intra_rtt * ratio;
            let specs = uno_bench::poisson_mix_specs(&topo, 0.4, duration, args.seed);
            (ratio, topo, specs)
        })
        .collect();
    let rows = args.sweep_grid(
        &sweeps,
        &uno_bench::main_schemes(),
        |(ratio, topo, specs), scheme| {
            let mut exp = uno_bench::experiment(uno_bench::config(scheme, args.seed, topo));
            exp.add_specs(specs);
            let r = uno_bench::run_cell(exp, duration + drain, &format!("RTT ratio {ratio}"));
            let done = format!("{}/{}", r.fcts.len(), r.flows);
            // Unfinished flows enter as slowdown lower bounds.
            let mut fcts = r.fcts;
            fcts.extend(r.censored);
            let slowdowns: Vec<f64> = fcts
                .iter()
                .map(|f| {
                    let rtt = if f.class == FlowClass::Inter {
                        topo.inter_rtt
                    } else {
                        topo.intra_rtt
                    };
                    let ideal = ideal_fct(f.size, rtt, topo.link_bps);
                    as_secs_f64(f.fct()) / as_secs_f64(ideal)
                })
                .collect();
            let mean = uno::metrics::mean(&slowdowns);
            let p99 = percentile(&slowdowns, 0.99);
            [r.scheme, format!("{mean:.2}"), format!("{p99:.2}"), done]
        },
    );
    for ((ratio, topo, specs), rows) in sweeps.iter().zip(rows) {
        println!(
            "== RTT ratio {ratio} (inter RTT = {:.2} ms), {} flows ==",
            topo.inter_rtt as f64 / 1e6,
            specs.len()
        );
        let mut table = TextTable::new(["scheme", "mean slowdown", "p99 slowdown", "done"]);
        for row in rows {
            table.row(row);
        }
        print!("{table}");
        println!();
    }
    uno_bench::write_manifests("fig11");
}
