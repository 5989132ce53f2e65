//! Figure 13B — correlated random loss.
//!
//! A single inter-DC flow runs over border links afflicted by the
//! Gilbert–Elliott loss process fitted to the paper's Table 1 cloud
//! measurements (Setup 1, scaled up so losses are observable at simulation
//! sizes). With the (8,2) code, a block is lost only when three or more of
//! its ten packets drop — exactly the paper's framing.

use uno::metrics::ViolinSummary;
use uno::sim::{GilbertElliott, SECONDS};
use uno::ExperimentConfig;
use uno_bench::HarnessArgs;
use uno_workloads::FlowSpec;

fn main() {
    let args = HarnessArgs::parse();
    let topo = args.topo();
    let runs: u64 = if args.full { 100 } else { 20 };
    let size = 20u64 << 20;
    // The measured rates (5e-5) are too rare to bite a single 20 MiB flow;
    // keep the measured burst *shape* but raise the bad-state frequency so
    // each run sees a handful of loss bursts (documented substitution).
    let loss_scale = 100.0;

    println!("Figure 13B: correlated random loss (Table 1 burst model x{loss_scale}), single {} inter-DC flow, {runs} runs",
        uno_bench::fmt_bytes(size));
    println!("{:>9} | FCT across runs (ms)", "scheme");
    println!("----------+--------------------------------------------");

    for scheme in uno::SchemeSpec::fig13_matrix() {
        let name = scheme.name;
        let seeds: Vec<u64> = (0..runs).map(|i| args.seed + i).collect();
        let fcts: Vec<f64> = args.sweep().run(seeds, |_, seed| {
            let mut cfg = ExperimentConfig::quick(scheme.clone(), seed);
            cfg.topo = topo.clone();
            let mut exp = uno_bench::experiment(cfg);
            let base = GilbertElliott::table1_setup1();
            let model = GilbertElliott::new(
                (base.p_good_to_bad * loss_scale).min(0.01),
                base.p_bad_to_good,
                base.loss_good,
                base.loss_bad,
            );
            for l in exp
                .sim
                .topo
                .border_forward
                .clone()
                .into_iter()
                .chain(exp.sim.topo.border_reverse.clone())
            {
                exp.sim.set_link_loss(l, model.clone());
            }
            exp.add_spec(&FlowSpec {
                src_dc: 0,
                src_idx: (seed % 7) as u32,
                dst_dc: 1,
                dst_idx: (seed % 5) as u32,
                size,
                start: 0,
            });
            let r = exp.run(30 * SECONDS);
            uno_bench::record_manifest(r.manifest.clone());
            if r.all_completed {
                r.fcts[0].fct() as f64 / 1e6
            } else {
                f64::NAN
            }
        });
        let ok: Vec<f64> = fcts.iter().copied().filter(|m| m.is_finite()).collect();
        let v = ViolinSummary::of(&ok);
        let failed = fcts.len() - ok.len();
        println!(
            "{name:>9} | min {:7.2}  p25 {:7.2}  med {:7.2}  p75 {:7.2}  max {:7.2}  mean {:7.2}{}",
            v.min,
            v.p25,
            v.p50,
            v.p75,
            v.max,
            v.mean,
            if failed > 0 {
                format!("  ({failed} runs incomplete)")
            } else {
                String::new()
            }
        );
    }
    println!();
    println!("(paper: Uno ~matches spraying and beats PLB with and without EC;");
    println!(" PLB's single path makes a flaky link poison whole blocks)");
    uno_bench::write_manifests("fig13b");
}
