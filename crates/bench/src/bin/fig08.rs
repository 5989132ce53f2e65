//! Figure 8 — incast microbenchmarks.
//!
//! Three scenarios of eight 1 GiB flows (scaled in quick mode) toward one
//! receiver: 8 intra / 8 inter / 4+4 mixed. Top half of the paper's figure:
//! Uno's per-flow send rates (fairness); bottom half: mean and p99 FCT for
//! Uno vs Gemini vs MPRDMA+BBR. Packet spraying is used for every scheme
//! (load balancing is immaterial under receiver-side incast).

use uno::metrics::{jain_fairness, rates_from_progress, FctTable, TextTable};
use uno::sim::{MILLIS, SECONDS};
use uno::SchemeSpec;
use uno_bench::{fmt_ms, HarnessArgs};
use uno_transport::LbMode;
use uno_workloads::incast;

fn main() {
    let args = HarnessArgs::parse();
    let topo = args.topo();
    let size = (1u64 << 30) / args.size_scale();
    let hosts = topo.hosts_per_dc() as u32;
    let scenarios: [(&str, usize, usize); 3] = [
        ("8 intra + 0 inter", 8, 0),
        ("0 intra + 8 inter", 0, 8),
        ("4 intra + 4 inter", 4, 4),
    ];

    println!(
        "Figure 8: incast scenarios, 8 x {} flows to one receiver",
        uno_bench::fmt_bytes(size)
    );
    println!();

    // Top: Uno fairness per scenario. The three scenarios are independent
    // cells; the sweep returns them in scenario order whatever `--jobs` is.
    let fairness = args
        .sweep()
        .run(scenarios.to_vec(), |_, (label, n_intra, n_inter)| {
            let spray = SchemeSpec::uno().with_lb(LbMode::Spray);
            let mut cfg = uno_bench::config(&spray, args.seed, &topo);
            cfg.record_progress = true;
            let mut exp = uno_bench::experiment(cfg);
            exp.add_specs(&incast(n_intra, n_inter, size, hosts));
            let cell = format!("send rates: {label}");
            (label, uno_bench::run_cell(exp, 60 * SECONDS, &cell))
        });
    for (label, r) in fairness {
        let bin = 10 * MILLIS;
        let horizon = r.sim_time;
        let series: Vec<Vec<uno::metrics::RatePoint>> = r
            .progress
            .iter()
            .map(|(_, p)| rates_from_progress(p, bin, horizon))
            .collect();
        println!("== Uno send rates: {label} ==");
        let nbins = series.first().map_or(0, |s| s.len());
        let step = (nbins / 12).max(1);
        println!("{:>9} | per-flow rate (Gbps) | Jain", "t (ms)");
        for b in (0..nbins).step_by(step) {
            let rates: Vec<f64> = series.iter().map(|s| s[b].rate_bps).collect();
            if rates.iter().sum::<f64>() < 0.5e9 {
                continue;
            }
            let cells: Vec<String> = rates.iter().map(|r| format!("{:5.1}", r / 1e9)).collect();
            println!(
                "{:9.1} | {} | {:.3}",
                series[0][b].time as f64 / 1e6,
                cells.join(" "),
                jain_fairness(&rates)
            );
        }
        println!();
    }

    // Bottom: FCT comparison across schemes, all nine scenario x scheme
    // cells in one sweep.
    let schemes = [
        SchemeSpec::uno().with_lb(LbMode::Spray),
        SchemeSpec::gemini().with_lb(LbMode::Spray),
        SchemeSpec::mprdma_bbr().with_lb(LbMode::Spray),
    ];
    let rows = args.sweep_grid(
        &scenarios,
        &schemes,
        |&(label, n_intra, n_inter), scheme| {
            let mut exp = uno_bench::experiment(uno_bench::config(scheme, args.seed, &topo));
            exp.add_specs(&incast(n_intra, n_inter, size, hosts));
            let r = uno_bench::run_cell(exp, 120 * SECONDS, &format!("FCTs: {label}"));
            let s = FctTable::new(r.fcts).summary();
            [
                r.scheme,
                format!("{:.3}", s.mean_s * 1e3),
                format!("{:.3}", s.p99_s * 1e3),
                format!("{:.3}", s.max_s * 1e3),
            ]
        },
    );
    for ((label, _, _), rows) in scenarios.iter().zip(rows) {
        let mut table = TextTable::new(["scheme", "mean FCT (ms)", "p99 FCT (ms)", "max FCT (ms)"]);
        for row in rows {
            table.row(row);
        }
        println!("== FCTs: {label} ==");
        print!("{table}");
        // Ideal: aggregate serialization through the single 100G bottleneck.
        let ideal = uno::sim::time::serialization_time(8 * size, topo.link_bps);
        println!("(ideal last-flow completion ~ {} ms)", fmt_ms(ideal));
        println!();
    }
    uno_bench::write_manifests("fig08");
}
