//! Figure 4 — the effect of phantom queues.
//!
//! Eight long-lived inter-DC flows incast into one receiver while small
//! Google-RPC messages flow to the same receiver inside its datacenter.
//! (A/B): bottleneck queue occupancy over time without/with phantom queues;
//! (C): mean and p99 FCT of the RPC messages. The paper reports ~2× mean
//! and ~8× tail improvement with phantom queues.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use uno::metrics::{FctSummary, TimeSeriesStats};
use uno::sim::{FlowClass, MICROS, MILLIS};
use uno::SchemeSpec;
use uno_bench::HarnessArgs;
use uno_workloads::{Cdf, FlowSpec};

fn main() {
    let args = HarnessArgs::parse();
    let topo = args.topo();
    let hosts = topo.hosts_per_dc() as u32;
    let horizon = if args.full {
        500 * MILLIS
    } else {
        300 * MILLIS
    };
    // Let the incast's initial window burst settle before injecting the
    // latency-sensitive RPCs (the paper measures steady-state queuing).
    let rpc_from = horizon / 2;

    // Long-lived inter-DC incast: 8 senders in DC1 -> host 0 of DC0; sized
    // to outlive the horizon.
    let long_size = 4u64 << 30;
    let mut specs: Vec<FlowSpec> = (0..8u32)
        .map(|i| FlowSpec {
            src_dc: 1,
            src_idx: (i * hosts / 8) % hosts,
            dst_dc: 0,
            dst_idx: 0,
            size: long_size,
            start: 0,
        })
        .collect();

    // Google-RPC background to the same receiver from its own DC.
    let rpc = Cdf::google_rpc();
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let n_rpc = if args.full { 2000 } else { 400 };
    let first_rpc = specs.len();
    for _ in 0..n_rpc {
        specs.push(FlowSpec {
            src_dc: 0,
            src_idx: rng.gen_range(1..hosts),
            dst_dc: 0,
            dst_idx: 0,
            size: rpc.sample(&mut rng),
            start: rng.gen_range(rpc_from..horizon - 5 * MILLIS),
        });
    }

    println!("Figure 4: phantom queues vs no phantom queues");
    println!("(8 long inter-DC flows incast + {n_rpc} Google-RPC messages to the receiver)");
    println!();

    let schemes = vec![
        SchemeSpec::uno()
            .with_phantom(false)
            .named("UnoCC, no phantom queues"),
        SchemeSpec::uno().named("UnoCC + phantom queues"),
    ];
    let results = args.sweep().run(schemes, |_, scheme| {
        let mut exp = uno_bench::experiment(uno_bench::config(&scheme, args.seed, &topo));
        exp.add_specs(&specs);
        let bottleneck = exp.sim.topo.host_downlink(exp.sim.topo.host(0, 0));
        exp.sim.add_queue_sampler(bottleneck, 100 * MICROS, 0);
        // The long flows outlive the horizon, so every cell runs to it.
        uno_bench::run_cell(exp, horizon, "8 long inter + RPC")
    });
    for r in results {
        let name = &r.scheme;
        let sampler = &r.samplers[0];
        // Steady-state statistics: second half of the run (the paper's
        // Fig. 4A/B shows the post-convergence regime).
        let steady: Vec<(u64, u64)> = sampler
            .samples
            .iter()
            .copied()
            .filter(|&(t, _)| t >= rpc_from)
            .collect();
        let qstats = TimeSeriesStats::of(&steady);
        // The bottleneck is a host link, which runs at the topology's
        // host line rate.
        let util =
            sampler.link.tx_bytes as f64 * 8.0 / (r.sim_time as f64 / 1e9) / topo.link_bps as f64;
        println!("== {name} ==");
        println!(
            "steady-state queue: mean {:7.1} KiB | p99 {:7.1} KiB | max {:7.1} KiB | bottleneck util {:4.1}%",
            qstats.mean / 1024.0,
            qstats.p99 / 1024.0,
            qstats.max / 1024.0,
            util * 100.0
        );
        // Occupancy trace, coarsened to 2 ms buckets (max within bucket).
        let bucket = 2 * MILLIS;
        let mut trace = Vec::new();
        let mut cur_end = bucket;
        let mut cur_max = 0u64;
        for &(t, v) in &sampler.samples {
            if t > cur_end {
                trace.push(cur_max);
                cur_end += bucket;
                cur_max = 0;
            }
            cur_max = cur_max.max(v);
        }
        let cells: Vec<String> = trace
            .iter()
            .map(|v| format!("{:.0}", *v as f64 / 1024.0))
            .collect();
        println!("occupancy max per 2ms (KiB): {}", cells.join(" "));

        // RPC FCTs (intra-class flows registered after the long flows).
        let rpc_fcts: Vec<f64> = r
            .fcts
            .iter()
            .filter(|f| f.class == FlowClass::Intra && f.flow.index() >= first_rpc)
            .map(|f| f.fct() as f64 / 1e9)
            .collect();
        let s = FctSummary::of_secs(rpc_fcts);
        println!(
            "RPC FCTs: n={} mean {:.1} us | p99 {:.1} us | max {:.1} us",
            s.n,
            s.mean_s * 1e6,
            s.p99_s * 1e6,
            s.max_s * 1e6
        );
        println!();
    }
    println!("(paper: phantom queues give ~2x mean and ~8x p99 RPC FCT improvement,");
    println!(" with near-zero physical queues at the incast bottleneck)");
    uno_bench::write_manifests("fig04");
}
