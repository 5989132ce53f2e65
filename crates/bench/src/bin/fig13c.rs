//! Figure 13C — inter-DC Allreduce under failures and random drops.
//!
//! A data-parallel training job spans the two datacenters; each iteration
//! synchronizes gradients (70–500 MiB bursts, Llama-70B-style) across the
//! WAN over several concurrent channels. Each iteration runs under a
//! random border-link failure plus Table 1-style correlated drops, and the
//! metric is the ratio of the measured Allreduce time to the ideal
//! (contention- and loss-free) time.

use rand::{Rng, SeedableRng};
use uno::sim::{FaultEntry, FaultKind, FaultSpec, FaultTarget, GilbertElliott, MILLIS, SECONDS};
use uno::SchemeSpec;
use uno_bench::HarnessArgs;
use uno_workloads::{allreduce_ideal_time, allreduce_iteration};

fn main() {
    let args = HarnessArgs::parse();
    let topo = args.topo();
    let iterations: u64 = if args.full { 100 } else { 20 };
    let groups = topo.border_links as u32;
    let scale = args.size_scale();

    println!("Figure 13C: inter-DC Allreduce, {iterations} iterations, {groups} channels,");
    println!("random border-link failure + correlated drops per iteration");
    println!("{:>9} | iteration time / ideal", "scheme");
    println!("----------+--------------------------------------------");

    let base = GilbertElliott::table1_setup1();
    let model = GilbertElliott::new(
        (base.p_good_to_bad * 50.0).min(0.01),
        base.p_bad_to_good,
        base.loss_good,
        base.loss_bad,
    );
    let schemes = SchemeSpec::fig13_matrix();
    let seeds: Vec<u64> = (0..iterations).map(|i| args.seed * 1000 + i).collect();
    let ratios = args.sweep_grid(&schemes, &seeds, |scheme, &seed| {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        // Gradient burst volume per direction: 70..500 MiB (scaled).
        let volume = rng.gen_range((70u64 << 20)..(500u64 << 20)) / scale;
        let mut cfg = uno_bench::config(scheme, seed, &topo);
        // Under failure + loss an iteration can wedge; degrade wedged
        // flows to a definite outcome instead of burning the horizon.
        cfg.degrade = true;
        let mut exp = uno_bench::experiment(cfg);
        let specs = allreduce_iteration(groups, volume, topo.hosts_per_dc() as u32, &mut rng);
        exp.add_specs(&specs);
        // One random border link fails mid-iteration (through the fault
        // plane, so the transition is traced and counted)...
        let nb = exp.sim.topo.border_forward.len();
        exp.sim
            .install_faults(&FaultSpec {
                faults: vec![FaultEntry {
                    target: FaultTarget::BorderForward {
                        idx: rng.gen_range(0..nb),
                    },
                    kind: FaultKind::Down,
                    at: rng.gen_range(MILLIS / 4..2 * MILLIS),
                    until: None,
                }],
            })
            .expect("valid fault spec");
        // ...and every border link sees correlated random drops.
        exp.sim.set_border_loss(model.clone());
        let r = uno_bench::run_cell(exp, 60 * SECONDS, "border failure + burst loss x50");
        // Ideal assumes the full (pre-failure) aggregate WAN bandwidth
        // and no drops — the paper's "no ECMP collisions or random
        // drops" baseline.
        let agg_bw = topo.border_link_bps * topo.border_links as u64;
        let ideal = allreduce_ideal_time(volume, agg_bw, topo.inter_rtt);
        if r.all_completed {
            r.sim_time as f64 / ideal as f64
        } else {
            f64::NAN
        }
    });
    for (scheme, ratios) in schemes.iter().zip(ratios) {
        let row = uno_bench::violin_row(scheme.name, &ratios, 6, |failed| {
            format!("{failed} iterations incomplete")
        });
        println!("{row}");
    }
    println!();
    println!("(paper: with EC, Uno is >2x better than the runner-up and within");
    println!(" ~30% of the ideal iteration time)");
    uno_bench::write_manifests("fig13c");
}
