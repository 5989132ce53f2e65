//! Figure 3 — fairness convergence under a mixed incast.
//!
//! Four intra-DC and four inter-DC 1 GiB flows (scaled in quick mode)
//! converge on one receiver. For each scheme (Gemini, MPRDMA+BBR, Uno) the
//! harness prints per-flow sending-rate time series plus Jain's fairness
//! index over time. The paper's qualitative result: Gemini converges to
//! fairness but slower than the flows live; MPRDMA+BBR never converges
//! (split control loops); Uno converges quickly.

use uno::sim::{FlowClass, MILLIS, SECONDS};
use uno::SchemeSpec;
use uno_bench::HarnessArgs;
use uno_metrics::{jain_fairness, rates_from_progress};
use uno_transport::LbMode;
use uno_workloads::incast;

fn main() {
    let args = HarnessArgs::parse();
    let topo = args.topo();
    let size = (1u64 << 30) / args.size_scale();
    let hosts = topo.hosts_per_dc() as u32;
    let specs = incast(4, 4, size, hosts);

    println!(
        "Figure 3: fairness during mixed incast (4 intra + 4 inter x {})",
        uno_bench::fmt_bytes(size)
    );
    println!();

    // Per the paper, Fig. 3 isolates congestion control: packet spraying
    // for everyone removes load-balancing artifacts.
    let schemes = vec![
        SchemeSpec::gemini().with_lb(LbMode::Spray),
        SchemeSpec::mprdma_bbr().with_lb(LbMode::Spray),
        SchemeSpec::uno().with_lb(LbMode::Spray),
    ];

    let results = args.sweep().run(schemes, |_, scheme| {
        let mut cfg = uno_bench::config(&scheme, args.seed, &topo);
        cfg.record_progress = true;
        let mut exp = uno_bench::experiment(cfg);
        exp.add_specs(&specs);
        uno_bench::run_cell(exp, 30 * SECONDS, "4 intra + 4 inter")
    });
    for r in results {
        let name = &r.scheme;
        let bin = 5 * MILLIS;
        let horizon = r.sim_time.min(30 * SECONDS);
        let series: Vec<(u32, Vec<uno_metrics::RatePoint>)> = r
            .progress
            .iter()
            .map(|(id, p)| (*id, rates_from_progress(p, bin, horizon)))
            .collect();

        println!("== {name} ==");
        println!(
            "{:>9} | per-flow rate (Gbps): 4 intra then 4 inter | Jain",
            "t (ms)"
        );
        let nbins = series.first().map_or(0, |(_, s)| s.len());
        // Jain's index over the flows still active in a bin (completed
        // flows drop out of the fairness comparison, as in the paper).
        let active_jain = |rates: &[f64]| {
            let act: Vec<f64> = rates.iter().copied().filter(|&r| r > 1e8).collect();
            jain_fairness(&act)
        };
        for b in 0..nbins {
            let rates: Vec<f64> = series.iter().map(|(_, s)| s[b].rate_bps).collect();
            let t_ms = series[0].1[b].time as f64 / 1e6;
            let cells: Vec<String> = rates.iter().map(|r| format!("{:5.1}", r / 1e9)).collect();
            println!(
                "{:9.1} | {} | {:.3}",
                t_ms,
                cells.join(" "),
                active_jain(&rates)
            );
        }
        // Convergence summary: time from start until Jain index stays >0.9.
        // Convergence to *cross-class* fairness: consider only bins where
        // both an intra and an inter flow are still active (flows 0..4 are
        // intra, 4..8 inter per the incast generator), and find the first
        // bin from which Jain stays above 0.9.
        let both_active = |bb: usize| {
            let intra_on = series[..4].iter().any(|(_, s)| s[bb].rate_bps > 1e8);
            let inter_on = series[4..].iter().any(|(_, s)| s[bb].rate_bps > 1e8);
            intra_on && inter_on
        };
        // Converged = five consecutive both-active bins with Jain > 0.9
        // (flows finishing naturally taper off and should not count as
        // divergence).
        let mut converged_at = None;
        let mut streak = 0;
        for b in 0..nbins {
            if !both_active(b) {
                streak = 0;
                continue;
            }
            let rates: Vec<f64> = series.iter().map(|(_, s)| s[b].rate_bps).collect();
            if active_jain(&rates) > 0.9 {
                streak += 1;
                if streak == 5 {
                    converged_at = Some(series[0].1[b - 4].time);
                    break;
                }
            } else {
                streak = 0;
            }
        }
        match converged_at {
            Some(t) => println!(
                "--> converged to fairness (Jain>0.9) at {} ms",
                uno_bench::fmt_ms(t)
            ),
            None => println!("--> never converged to fairness within the flows' lifetimes"),
        }
        let intra: Vec<_> = r
            .fcts
            .iter()
            .filter(|f| f.class == FlowClass::Intra)
            .collect();
        let inter: Vec<_> = r
            .fcts
            .iter()
            .filter(|f| f.class == FlowClass::Inter)
            .collect();
        println!(
            "--> mean FCT intra {} ms | inter {} ms | completed {}/{}",
            uno_bench::fmt_ms(
                intra.iter().map(|f| f.fct()).sum::<u64>() / intra.len().max(1) as u64
            ),
            uno_bench::fmt_ms(
                inter.iter().map(|f| f.fct()).sum::<u64>() / inter.len().max(1) as u64
            ),
            r.fcts.len(),
            r.flows
        );
        println!();
    }
    uno_bench::write_manifests("fig03");
}
