//! Figure 13B — correlated random loss.
//!
//! A single inter-DC flow runs over border links afflicted by the
//! Gilbert–Elliott loss process fitted to the paper's Table 1 cloud
//! measurements (Setup 1, scaled up so losses are observable at simulation
//! sizes). With the (8,2) code, a block is lost only when three or more of
//! its ten packets drop — exactly the paper's framing.

use uno::sim::{GilbertElliott, SECONDS};
use uno::SchemeSpec;
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

    let base = GilbertElliott::table1_setup1();
    let model = GilbertElliott::new(
        (base.p_good_to_bad * loss_scale).min(0.01),
        base.p_bad_to_good,
        base.loss_good,
        base.loss_bad,
    );
    let schemes = SchemeSpec::fig13_matrix();
    let seeds: Vec<u64> = (0..runs).map(|i| args.seed + i).collect();
    let fcts = args.sweep_grid(&schemes, &seeds, |scheme, &seed| {
        let mut exp = uno_bench::experiment(uno_bench::config(scheme, seed, &topo));
        exp.sim.set_border_loss(model.clone());
        exp.add_spec(&FlowSpec {
            src_dc: 0,
            src_idx: (seed % 7) as u32,
            dst_dc: 1,
            dst_idx: (seed % 5) as u32,
            size,
            start: 0,
        });
        let r = uno_bench::run_cell(exp, 30 * SECONDS, &format!("burst loss x{loss_scale}"));
        if r.all_completed {
            r.fcts[0].fct() as f64 / 1e6
        } else {
            f64::NAN
        }
    });
    for (scheme, fcts) in schemes.iter().zip(fcts) {
        let row = uno_bench::violin_row(scheme.name, &fcts, 7, |failed| {
            format!("{failed} runs incomplete")
        });
        println!("{row}");
    }
    println!();
    println!("(paper: Uno ~matches spraying and beats PLB with and without EC;");
    println!(" PLB's single path makes a flaky link poison whole blocks)");
    uno_bench::write_manifests("fig13b");
}
