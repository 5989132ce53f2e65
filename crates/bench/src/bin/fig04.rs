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
use uno::sim::{FlowClass, MICROS, MILLIS, SECONDS};
use uno::{ExperimentConfig, SchemeSpec};
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

    for phantom in [false, true] {
        let scheme = if phantom {
            SchemeSpec::uno().named("UnoCC + phantom queues")
        } else {
            SchemeSpec::uno()
                .with_phantom(false)
                .named("UnoCC, no phantom queues")
        };
        let name = scheme.name;
        let mut cfg = ExperimentConfig::quick(scheme, args.seed);
        cfg.topo = topo.clone();
        let mut exp = uno_bench::experiment(cfg);
        for s in &specs {
            exp.add_spec(s);
        }
        let bottleneck = exp.sim.topo.host_downlink(exp.sim.topo.host(0, 0));
        exp.sim.add_queue_sampler(bottleneck, 100 * MICROS, 0);
        exp.sim.run_until(horizon);
        uno_bench::record_manifest(exp.manifest());

        let sampler = &exp.sim.samplers[0];
        // Steady-state statistics: second half of the run (the paper's
        // Fig. 4A/B shows the post-convergence regime).
        let steady: Vec<(u64, u64)> = sampler
            .samples
            .iter()
            .copied()
            .filter(|&(t, _)| t >= rpc_from)
            .collect();
        let qstats = TimeSeriesStats::of(&steady);
        let util = {
            let links = &exp.sim.topo.links;
            links.tx_bytes(bottleneck) as f64 * 8.0
                / (exp.sim.now() as f64 / 1e9)
                / links.bps(bottleneck) as f64
        };
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
        let rpc_fcts: Vec<f64> = exp
            .sim
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
        let inter_done = exp
            .sim
            .fcts
            .iter()
            .filter(|f| f.class == FlowClass::Inter)
            .count();
        let _ = inter_done; // long flows are designed to outlive the horizon
        println!();
    }
    println!("(paper: phantom queues give ~2x mean and ~8x p99 RPC FCT improvement,");
    println!(" with near-zero physical queues at the incast bottleneck)");
    let _ = SECONDS;
    uno_bench::write_manifests("fig04");
}
