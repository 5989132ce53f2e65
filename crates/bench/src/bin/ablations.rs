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
//! only `--jobs N` (the ten-seed sweeps of `ec` and `subflows`) and
//! `--progress` apply.

use uno::metrics::{jain_fairness, rates_from_progress, FctTable};
use uno::sim::{FlowClass, FlowMeta, GilbertElliott, PhantomParams, MILLIS, SECONDS};
use uno::transport::{CcConfig, FlowConfig, LbMode, MessageFlow, UnoCc};
use uno::{dup_thresh_for, Experiment, ExperimentConfig, SchemeSpec, SweepRunner};
use uno_bench::{experiment, HarnessArgs};
use uno_erasure::EcParams;
use uno_workloads::{incast, FlowSpec};

const STUDIES: [&str; 6] = ["epoch", "pq", "ec", "qa", "subflows", "all"];

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
    let sweep = args.sweep();
    if which == "epoch" || which == "all" {
        ablation_epoch();
    }
    if which == "pq" || which == "all" {
        ablation_pq();
    }
    if which == "ec" || which == "all" {
        ablation_ec(&sweep);
    }
    if which == "qa" || which == "all" {
        ablation_qa();
    }
    if which == "subflows" || which == "all" {
        ablation_subflows(&sweep);
    }
    uno_bench::write_manifests("ablations");
}

/// Flow factory used by the epoch/QA ablations: a `MessageFlow` with a
/// hand-tuned `UnoCc` (the `Experiment` API wires the paper defaults).
struct CustomUno;

impl CustomUno {
    #[allow(clippy::too_many_arguments)]
    fn add_flow(
        exp: &mut Experiment,
        spec: &FlowSpec,
        unified_epochs: bool,
        qa_enabled: bool,
        record: bool,
    ) {
        let topo = exp.sim.topo.params.clone();
        let s = exp.sim.topo.host(spec.src_dc, spec.src_idx);
        let d = exp.sim.topo.host(spec.dst_dc, spec.dst_idx);
        let inter = exp.sim.topo.is_inter_dc(s, d);
        let (rtt, bdp) = if inter {
            (topo.inter_rtt, topo.inter_bdp() as f64)
        } else {
            (topo.intra_rtt, topo.intra_bdp() as f64)
        };
        let mut cfg = CcConfig::paper_defaults(bdp, rtt, topo.intra_bdp() as f64, topo.intra_rtt);
        if !unified_epochs {
            // Gemini-style granularity: epochs are one own-RTT long.
            cfg.intra_rtt = rtt;
        }
        let mut cc = UnoCc::new(cfg);
        cc.qa_enabled = qa_enabled;
        let mut fc = FlowConfig::basic(s, d, spec.size, rtt);
        fc.lb = LbMode::Spray;
        fc.dup_thresh = dup_thresh_for(LbMode::Spray);
        fc.ec = if inter {
            Some(EcParams::PAPER_DEFAULT)
        } else {
            None
        };
        fc.min_rto = if inter { 2 * rtt } else { MILLIS };
        let flow = MessageFlow::new(fc, Box::new(cc));
        exp.sim.add_flow_recorded(
            FlowMeta {
                src: s,
                dst: d,
                size: spec.size,
                start: spec.start,
                class: if inter {
                    FlowClass::Inter
                } else {
                    FlowClass::Intra
                },
            },
            Box::new(flow),
            record,
        );
    }
}

fn mixed_incast_specs(exp: &Experiment) -> Vec<FlowSpec> {
    let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
    incast(4, 4, 128 << 20, hosts)
}

/// Epoch granularity: the paper's central unification claim — identical
/// (intra-RTT) epochs for both classes converge to fairness faster than
/// per-own-RTT epochs.
fn ablation_epoch() {
    println!("== ablation: epoch granularity (mixed 4+4 incast) ==");
    for unified in [true, false] {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 2);
        cfg.record_progress = true;
        let mut exp = experiment(cfg);
        let specs = mixed_incast_specs(&exp);
        for s in &specs {
            CustomUno::add_flow(&mut exp, s, unified, true, true);
        }
        let r = exp.run(30 * SECONDS);
        uno_bench::record_manifest(r.manifest.clone());
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
fn ablation_pq() {
    println!("== ablation: phantom drain factor (8-flow intra incast) ==");
    for drain in [0.8, 0.9, 0.95, 1.0] {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 3);
        let base = Experiment::default_phantom(&cfg.topo);
        cfg.topo.phantom = Some(PhantomParams {
            drain_factor: drain,
            ..base
        });
        let mut exp = experiment(cfg);
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        exp.add_specs(&incast(8, 0, 32 << 20, hosts));
        let bottleneck = exp.sim.topo.host_downlink(exp.sim.topo.host(0, 0));
        exp.sim.add_queue_sampler(bottleneck, 100_000, 0);
        let r = exp.run(30 * SECONDS);
        uno_bench::record_manifest(r.manifest.clone());
        let occ: Vec<f64> = r.samplers[0]
            .1
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
fn ablation_ec(sweep: &SweepRunner) {
    println!("== ablation: EC geometry under bursty loss (single 20 MiB WAN flow) ==");
    for (x, y) in [(8u8, 1u8), (8, 2), (8, 4)] {
        let ec = EcParams { data: x, parity: y };
        let scheme = SchemeSpec::unocc_with(
            "ec-sweep",
            LbMode::UnoLb {
                subflows: ec.total() as usize,
            },
            Some(ec),
        );
        let fcts: Vec<f64> = sweep.run((0..10u64).collect(), |_, seed| {
            let mut exp = experiment(ExperimentConfig::quick(scheme.clone(), seed));
            for l in exp
                .sim
                .topo
                .border_forward
                .clone()
                .into_iter()
                .chain(exp.sim.topo.border_reverse.clone())
            {
                exp.sim
                    .set_link_loss(l, GilbertElliott::new(2e-3, 0.4, 0.0, 0.5));
            }
            exp.add_specs(&[FlowSpec {
                src_dc: 0,
                src_idx: 1,
                dst_dc: 1,
                dst_idx: 2,
                size: 20 << 20,
                start: 0,
            }]);
            let r = exp.run(30 * SECONDS);
            uno_bench::record_manifest(r.manifest.clone());
            r.fcts
                .first()
                .map(|f| f.fct() as f64 / 1e6)
                .unwrap_or(f64::NAN)
        });
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
fn ablation_qa() {
    println!("== ablation: Quick Adapt under 8-flow inter incast ==");
    for qa in [true, false] {
        let cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 4);
        let mut exp = experiment(cfg);
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        let specs = incast(0, 8, 64 << 20, hosts);
        for s in &specs {
            CustomUno::add_flow(&mut exp, s, true, qa, false);
        }
        let r = exp.run(60 * SECONDS);
        uno_bench::record_manifest(r.manifest.clone());
        let t = FctTable::new(r.fcts);
        let drops = r.stats.queue_drops;
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
fn ablation_subflows(sweep: &SweepRunner) {
    println!("== ablation: UnoLB subflow count under border failure ==");
    for subflows in [2usize, 4, 10, 16] {
        let scheme = SchemeSpec::unocc_with(
            "subflow-sweep",
            LbMode::UnoLb { subflows },
            Some(EcParams::PAPER_DEFAULT),
        );
        let fcts: Vec<f64> = sweep.run((0..10u64).collect(), |_, seed| {
            let mut exp = experiment(ExperimentConfig::quick(scheme.clone(), seed));
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
            let r = exp.run(30 * SECONDS);
            uno_bench::record_manifest(r.manifest.clone());
            r.fcts
                .first()
                .map(|f| f.fct() as f64 / 1e6)
                .unwrap_or(f64::NAN)
        });
        println!(
            "  {subflows:2} subflows: mean FCT {:7.2} ms | worst {:7.2} ms",
            uno::metrics::mean(&fcts),
            fcts.iter().cloned().fold(0.0f64, f64::max)
        );
    }
    println!();
}
