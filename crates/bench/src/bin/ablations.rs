//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * `epoch`    — unified (intra-RTT) epochs vs per-own-RTT epochs;
//! * `pq`       — phantom-queue drain-factor sweep;
//! * `ec`       — (8,y) erasure-geometry sweep under correlated loss;
//! * `qa`       — Quick Adapt on/off under incast;
//! * `subflows` — UnoLB subflow-count sweep under a link failure.
//!
//! Run a single study with `ablations <name>` or all of them with no name.
//! The studies run fixed seeds at the quick preset, so of the shared flags
//! only `--jobs N` (every study sweeps its cells) and `--progress` apply.

use uno::metrics::{jain_fairness, rates_from_progress, FctTable};
use uno::sim::{GilbertElliott, PhantomParams, MILLIS, SECONDS};
use uno::transport::{CcAlgorithm, CcConfig, LbMode, UnoCc};
use uno::{ExperimentConfig, ExperimentResults, SchemeSpec};
use uno_bench::{experiment, run_cell, HarnessArgs};
use uno_erasure::EcParams;
use uno_workloads::{incast, FlowSpec};

const STUDIES: [&str; 6] = ["epoch", "pq", "ec", "qa", "subflows", "all"];

/// The seeds of the `ec` and `subflows` studies.
const SEEDS: [u64; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

fn main() {
    let (args, extra) = HarnessArgs::parse_with_extra();
    let usage = "usage: ablations [epoch|pq|ec|qa|subflows|all] [--jobs N] [--progress]";
    assert!(
        !args.full && args.seed == 1,
        "{usage}: --full and --seed do not apply"
    );
    let which = match extra.as_slice() {
        [] => "all",
        [name] if STUDIES.contains(&name.as_str()) => name.as_str(),
        _ => panic!("{usage}"),
    };
    if which == "epoch" || which == "all" {
        ablation_epoch(&args);
    }
    if which == "pq" || which == "all" {
        ablation_pq(&args);
    }
    if which == "ec" || which == "all" {
        ablation_ec(&args);
    }
    if which == "qa" || which == "all" {
        ablation_qa(&args);
    }
    if which == "subflows" || which == "all" {
        ablation_subflows(&args);
    }
    uno_bench::write_manifests("ablations");
}

/// UnoCC with the epoch granularity and Quick Adapt setting under study,
/// from the controller config the experiment derived for the flow.
fn tuned_uno(mut cfg: CcConfig, unified_epochs: bool, qa_enabled: bool) -> Box<dyn CcAlgorithm> {
    if !unified_epochs {
        // Gemini-style granularity: epochs are one own-RTT long.
        cfg.intra_rtt = cfg.base_rtt;
    }
    let mut cc = UnoCc::new(cfg);
    cc.qa_enabled = qa_enabled;
    Box::new(cc)
}

/// Epoch granularity: the paper's central unification claim — identical
/// (intra-RTT) epochs for both classes converge to fairness faster than
/// per-own-RTT epochs.
fn ablation_epoch(args: &HarnessArgs) {
    println!("== ablation: epoch granularity (mixed 4+4 incast) ==");
    let results = args.sweep().run(vec![true, false], |_, unified| {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 2);
        cfg.record_progress = true;
        let mut exp = experiment(cfg);
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        for s in &incast(4, 4, 128 << 20, hosts) {
            exp.add_spec_with(s, |cfg, _| tuned_uno(cfg, unified, true));
        }
        let label = if unified {
            "unified epochs"
        } else {
            "own-RTT epochs"
        };
        (unified, run_cell(exp, 30 * SECONDS, label))
    });
    for (unified, r) in results {
        // Mean Jain index across the run (active flows only).
        let series: Vec<_> = r
            .progress
            .iter()
            .map(|(_, p)| rates_from_progress(p, 5 * MILLIS, r.sim_time))
            .collect();
        let mut jains = Vec::new();
        for b in 0..series[0].len() {
            let rates: Vec<f64> = series
                .iter()
                .map(|s| s[b].rate_bps)
                .filter(|&x| x > 1e8)
                .collect();
            if rates.len() >= 4 {
                jains.push(jain_fairness(&rates));
            }
        }
        let t = FctTable::new(r.fcts);
        println!(
            "  epochs {:>9}: mean Jain {:.3} | mean FCT {:.1} ms | p99 {:.1} ms",
            if unified { "unified" } else { "own-RTT" },
            uno::metrics::mean(&jains),
            t.summary().mean_s * 1e3,
            t.summary().p99_s * 1e3
        );
    }
    println!();
}

/// Phantom drain-factor sweep: lower factors give more headroom (lower
/// queues) at the cost of bandwidth.
fn ablation_pq(args: &HarnessArgs) {
    println!("== ablation: phantom drain factor (8-flow intra incast) ==");
    let drains = vec![0.8, 0.9, 0.95, 1.0];
    let results = args.sweep().run(drains.clone(), |_, drain| {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 3);
        cfg.topo.phantom = Some(PhantomParams {
            drain_factor: drain,
            ..PhantomParams::for_topology(&cfg.topo)
        });
        let mut exp = experiment(cfg);
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        exp.add_specs(&incast(8, 0, 32 << 20, hosts));
        let bottleneck = exp.sim.topo.host_downlink(exp.sim.topo.host(0, 0));
        exp.sim.add_queue_sampler(bottleneck, 100_000, 0);
        run_cell(exp, 30 * SECONDS, &format!("drain {drain:.2}"))
    });
    for (drain, r) in drains.into_iter().zip(results) {
        let occ: Vec<f64> = r.samplers[0]
            .samples
            .iter()
            .map(|&(_, v)| v as f64 / 1024.0)
            .collect();
        let t = FctTable::new(r.fcts);
        println!(
            "  drain {drain:.2}: mean queue {:7.1} KiB | p99 queue {:7.1} KiB | mean FCT {:.2} ms",
            uno::metrics::mean(&occ),
            uno::metrics::percentile(&occ, 0.99),
            t.summary().mean_s * 1e3
        );
    }
    println!();
}

/// EC geometry sweep under bursty loss: more parity tolerates more loss
/// but costs wire overhead.
fn ablation_ec(args: &HarnessArgs) {
    println!("== ablation: EC geometry under bursty loss (single 20 MiB WAN flow) ==");
    let geometries = [(8u8, 1u8), (8, 2), (8, 4)];
    let fcts = args.sweep_grid(&geometries, &SEEDS, |&(x, y), &seed| {
        let ec = EcParams { data: x, parity: y };
        let scheme = SchemeSpec::unocc_with(
            "ec-sweep",
            LbMode::UnoLb {
                subflows: ec.total() as usize,
            },
            Some(ec),
        );
        let mut exp = experiment(ExperimentConfig::quick(scheme, seed));
        exp.sim
            .set_border_loss(GilbertElliott::new(2e-3, 0.4, 0.0, 0.5));
        exp.add_specs(&[FlowSpec {
            src_dc: 0,
            src_idx: 1,
            dst_dc: 1,
            dst_idx: 2,
            size: 20 << 20,
            start: 0,
        }]);
        first_fct_ms(run_cell(exp, 30 * SECONDS, &format!("EC ({x},{y})")))
    });
    for ((x, y), fcts) in geometries.into_iter().zip(fcts) {
        println!(
            "  ({x},{y}) overhead {:4.1}%: mean FCT {:7.2} ms | worst {:7.2} ms",
            100.0 * y as f64 / (x + y) as f64,
            uno::metrics::mean(&fcts),
            fcts.iter().cloned().fold(0.0f64, f64::max)
        );
    }
    println!();
}

/// Quick Adapt on/off: QA right-sizes windows within one RTT of an incast
/// (the paper's "extremely congested" state).
fn ablation_qa(args: &HarnessArgs) {
    println!("== ablation: Quick Adapt under 8-flow inter incast ==");
    let results = args.sweep().run(vec![true, false], |_, qa| {
        let cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 4);
        let mut exp = experiment(cfg);
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        for s in &incast(0, 8, 64 << 20, hosts) {
            exp.add_spec_with(s, |cfg, _| tuned_uno(cfg, true, qa));
        }
        let label = if qa { "QA on" } else { "QA off" };
        (qa, run_cell(exp, 60 * SECONDS, label))
    });
    for (qa, r) in results {
        let t = FctTable::new(r.fcts);
        let drops = r.manifest.counters.get("queue.drops");
        println!(
            "  QA {:>3}: mean FCT {:7.2} ms | p99 {:7.2} ms | drops {}",
            if qa { "on" } else { "off" },
            t.summary().mean_s * 1e3,
            t.summary().p99_s * 1e3,
            drops
        );
    }
    println!();
}

/// UnoLB subflow count under a border failure: more subflows localize the
/// damage of a dead path but increase reordering.
fn ablation_subflows(args: &HarnessArgs) {
    println!("== ablation: UnoLB subflow count under border failure ==");
    let counts = [2usize, 4, 10, 16];
    let fcts = args.sweep_grid(&counts, &SEEDS, |&subflows, &seed| {
        let scheme = SchemeSpec::unocc_with(
            "subflow-sweep",
            LbMode::UnoLb { subflows },
            Some(EcParams::PAPER_DEFAULT),
        );
        let mut exp = experiment(ExperimentConfig::quick(scheme, seed));
        let victim = exp.sim.topo.border_forward[0];
        exp.sim.schedule_link_down(victim, MILLIS / 2);
        exp.add_specs(&[FlowSpec {
            src_dc: 0,
            src_idx: 2,
            dst_dc: 1,
            dst_idx: 3,
            size: 16 << 20,
            start: 0,
        }]);
        first_fct_ms(run_cell(exp, 30 * SECONDS, &format!("{subflows} subflows")))
    });
    for (subflows, fcts) in counts.into_iter().zip(fcts) {
        println!(
            "  {subflows:2} subflows: mean FCT {:7.2} ms | worst {:7.2} ms",
            uno::metrics::mean(&fcts),
            fcts.iter().cloned().fold(0.0f64, f64::max)
        );
    }
    println!();
}

/// The FCT of a run's first completed flow in ms (NaN if none completed).
fn first_fct_ms(r: ExperimentResults) -> f64 {
    r.fcts
        .first()
        .map(|f| f.fct() as f64 / 1e6)
        .unwrap_or(f64::NAN)
}
