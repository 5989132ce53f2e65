//! Cross-datacenter training: gradient Allreduce over the WAN.
//!
//! The paper's motivating AI workload (§5.1, Fig. 13C): a data-parallel
//! job spans two datacenters; after each backward pass, gradient bursts
//! (70–500 MiB per direction at full scale; scaled down here) synchronize
//! across the border links over several concurrent channels. The example
//! runs a few iterations under loss and reports each iteration's Allreduce
//! time against the contention-free ideal.
//!
//! ```text
//! cargo run --release --example allreduce_training
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uno::sim::{GilbertElliott, SECONDS};
use uno::{Experiment, ExperimentConfig, SchemeSpec};
use uno_workloads::{allreduce_ideal_time, allreduce_iteration};

fn main() {
    let iterations = 5;
    let mut rng = SmallRng::seed_from_u64(3);

    println!("cross-DC data-parallel training: {iterations} Allreduce iterations\n");
    for iter in 0..iterations {
        let volume = rng.gen_range((16u64 << 20)..(64 << 20));
        let mut exp = Experiment::new(ExperimentConfig::quick(SchemeSpec::uno(), 100 + iter));
        let topo = exp.sim.topo.params.clone();
        let specs = allreduce_iteration(
            topo.border_links as u32,
            volume,
            topo.hosts_per_dc() as u32,
            &mut rng,
        );
        exp.add_specs(&specs);
        // WAN links drop packets in correlated bursts (Table 1 model).
        exp.sim
            .set_border_loss(GilbertElliott::new(2e-4, 0.4, 0.0, 0.5));
        let r = exp.run(30 * SECONDS);
        let agg_bw = topo.border_link_bps * topo.border_links as u64;
        let ideal = allreduce_ideal_time(volume, agg_bw, topo.inter_rtt);
        println!(
            "iteration {iter}: {:5.1} MiB/direction, allreduce {:7.3} ms (ideal {:6.3} ms, ratio {:.2}x)",
            volume as f64 / (1 << 20) as f64,
            r.sim_time as f64 / 1e6,
            ideal as f64 / 1e6,
            r.sim_time as f64 / ideal as f64,
        );
    }
}
