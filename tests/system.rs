//! Cross-crate integration tests: the full Uno stack (simulator, transport,
//! erasure coding, workloads and metrics) driven through the public
//! `uno::Experiment` API.

use uno::metrics::{jain_fairness, rates_from_progress, FctTable};
use uno::sim::{FlowClass, GilbertElliott, MILLIS, SECONDS};
use uno::transport::LbMode;
use uno::{Experiment, ExperimentConfig, SchemeSpec};
use uno_workloads::{incast, permutation, poisson_mix, Cdf, FlowSpec, PoissonMixParams};

fn quick(scheme: SchemeSpec, seed: u64) -> Experiment {
    Experiment::new(ExperimentConfig::quick(scheme, seed))
}

#[test]
fn every_scheme_completes_a_mixed_workload() {
    let specs = [
        FlowSpec {
            src_dc: 0,
            src_idx: 1,
            dst_dc: 0,
            dst_idx: 9,
            size: 2 << 20,
            start: 0,
        },
        FlowSpec {
            src_dc: 0,
            src_idx: 2,
            dst_dc: 1,
            dst_idx: 3,
            size: 2 << 20,
            start: 0,
        },
        FlowSpec {
            src_dc: 1,
            src_idx: 4,
            dst_dc: 0,
            dst_idx: 5,
            size: 512 << 10,
            start: MILLIS,
        },
    ];
    let mut all = uno_bench_schemes();
    all.extend(SchemeSpec::fig13_matrix());
    for scheme in all {
        let name = scheme.name;
        let mut e = quick(scheme, 3);
        e.add_specs(&specs);
        let r = e.run(10 * SECONDS);
        assert!(r.all_completed, "{name} failed to complete");
        assert_eq!(r.fcts.len(), 3, "{name}");
    }
}

fn uno_bench_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::uno(),
        SchemeSpec::uno_ecmp(),
        SchemeSpec::gemini(),
        SchemeSpec::mprdma_bbr(),
    ]
}

#[test]
fn uno_incast_converges_to_fairness() {
    // 2 intra + 2 inter long flows: by the second half of the run, active
    // flows should share the bottleneck with a high Jain index.
    let mut cfg = ExperimentConfig::quick(SchemeSpec::uno().with_lb(LbMode::Spray), 5);
    cfg.record_progress = true;
    let mut e = Experiment::new(cfg);
    let hosts = e.sim.topo.params.hosts_per_dc() as u32;
    // Flows must live long enough for the WAN flows' AIMD to equalize
    // (convergence takes tens of milliseconds at the Table 2 gains).
    e.add_specs(&incast(2, 2, 128 << 20, hosts));
    let r = e.run(30 * SECONDS);
    assert!(r.all_completed);
    let horizon = r.sim_time;
    let series: Vec<_> = r
        .progress
        .iter()
        .map(|(_, p)| rates_from_progress(p, 2 * MILLIS, horizon))
        .collect();
    let nbins = series[0].len();
    // Convergence: fairness improves over the flows' lifetimes, reaching a
    // high Jain index at some sustained point before completion.
    let mut jains = Vec::new();
    for b in 0..nbins {
        let rates: Vec<f64> = series
            .iter()
            .map(|s| s[b].rate_bps)
            .filter(|&x| x > 1e8)
            .collect();
        if rates.len() == 4 {
            jains.push(jain_fairness(&rates));
        }
    }
    let best = jains.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        best > 0.85,
        "mixed incast must converge toward fairness: best Jain {best}"
    );
    // And the second half should be fairer than the first on average.
    let (a, b) = jains.split_at(jains.len() / 2);
    assert!(
        uno::metrics::mean(b) + 0.02 >= uno::metrics::mean(a),
        "fairness should not degrade: first half {:.3}, second half {:.3}",
        uno::metrics::mean(a),
        uno::metrics::mean(b)
    );
}

#[test]
fn uno_survives_border_failure_where_ecmp_may_stall() {
    // Uno (UnoLB + EC) must complete despite a failed border link, for any
    // seed. (Plain ECMP stalls whenever its hash lands on the dead link —
    // that behaviour is demonstrated in the failover example.)
    for seed in 0..5 {
        let mut e = quick(SchemeSpec::uno(), seed);
        let victim = e.sim.topo.border_forward[0];
        e.sim.schedule_link_down(victim, MILLIS / 4);
        e.add_specs(&[FlowSpec {
            src_dc: 0,
            src_idx: 0,
            dst_dc: 1,
            dst_idx: 1,
            size: 8 << 20,
            start: 0,
        }]);
        let r = e.run(10 * SECONDS);
        assert!(r.all_completed, "seed {seed}: Uno must survive the failure");
        assert!(
            r.fcts[0].fct() < 500 * MILLIS,
            "seed {seed}: recovery too slow ({} ms)",
            r.fcts[0].fct() / MILLIS
        );
    }
}

#[test]
fn ec_flows_tolerate_correlated_loss_without_rtos() {
    let mut e = quick(SchemeSpec::uno(), 11);
    for l in e
        .sim
        .topo
        .border_forward
        .clone()
        .into_iter()
        .chain(e.sim.topo.border_reverse.clone())
    {
        e.sim
            .set_link_loss(l, GilbertElliott::new(1e-3, 0.4, 0.0, 0.5));
    }
    e.add_specs(&[FlowSpec {
        src_dc: 0,
        src_idx: 3,
        dst_dc: 1,
        dst_idx: 4,
        size: 8 << 20,
        start: 0,
    }]);
    let r = e.run(10 * SECONDS);
    assert!(r.all_completed);
    // (8,2) coding plus NACK repair should finish within a few WAN RTTs.
    assert!(
        r.fcts[0].fct() < 30 * MILLIS,
        "fct {} ms",
        r.fcts[0].fct() / MILLIS
    );
}

#[test]
fn permutation_workload_all_schemes() {
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(1);
    let specs = permutation(16, 2, 1 << 20, &mut rng);
    for scheme in uno_bench_schemes() {
        let name = scheme.name;
        let mut e = quick(scheme, 1);
        e.add_specs(&specs);
        let r = e.run(30 * SECONDS);
        assert!(
            r.fcts.len() >= specs.len() * 9 / 10,
            "{name}: only {}/{} flows completed",
            r.fcts.len(),
            specs.len()
        );
    }
}

#[test]
fn realistic_mix_produces_sane_fct_split() {
    let p = PoissonMixParams {
        hosts_per_dc: 16,
        dcs: 2,
        host_bps: 100 * uno::sim::GBPS,
        load: 0.3,
        inter_fraction: 0.2,
        duration: 10 * MILLIS,
    };
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(4);
    let specs = poisson_mix(&p, &Cdf::websearch(), &Cdf::alibaba_wan(), &mut rng);
    let mut e = quick(SchemeSpec::uno(), 4);
    e.add_specs(&specs);
    let r = e.run(30 * SECONDS);
    let t = FctTable::new(r.fcts);
    let intra = t.summary_class(FlowClass::Intra);
    let inter = t.summary_class(FlowClass::Inter);
    assert!(intra.n > 0 && inter.n > 0);
    // WAN flows pay at least the 2 ms propagation RTT; intra flows do not.
    assert!(inter.p50_s >= 2e-3, "inter p50 {}", inter.p50_s);
    assert!(intra.p50_s < 2e-3, "intra p50 {}", intra.p50_s);
}

#[test]
fn results_serialize_to_json() {
    let mut e = quick(SchemeSpec::uno(), 9);
    e.add_specs(&[FlowSpec {
        src_dc: 0,
        src_idx: 0,
        dst_dc: 0,
        dst_idx: 1,
        size: 64 << 10,
        start: 0,
    }]);
    let r = e.run(SECONDS);
    let json = serde_json::to_string(&r).expect("results are serializable");
    assert!(json.contains("\"scheme\":\"Uno\""));
    let back: uno::ExperimentResults = serde_json::from_str(&json).unwrap();
    assert_eq!(back.fcts.len(), r.fcts.len());
}

/// The quickstart example's workload: one inter-DC and one intra-DC 8 MiB
/// message on the k=4 topology, seed 42.
fn quickstart_experiment(seed: u64) -> Experiment {
    let mut e = quick(SchemeSpec::uno(), seed);
    e.add_specs(&[
        FlowSpec {
            src_dc: 0,
            src_idx: 0,
            dst_dc: 1,
            dst_idx: 3,
            size: 8 << 20,
            start: 0,
        },
        FlowSpec {
            src_dc: 0,
            src_idx: 1,
            dst_dc: 0,
            dst_idx: 9,
            size: 8 << 20,
            start: 0,
        },
    ]);
    e
}

#[test]
fn quickstart_emits_valid_manifest_and_summarizable_trace() {
    use uno::sim::{RunManifest, TraceConfig, TraceSummary, Tracer};

    let path = std::env::temp_dir().join("uno_system_quickstart_trace.jsonl");
    let mut e = quickstart_experiment(42);
    e.sim
        .set_tracer(Tracer::jsonl_file(&path, TraceConfig::all()).unwrap());
    let r = e.run(SECONDS);
    assert!(r.all_completed);

    // The manifest round-trips through JSON and reflects the run: events
    // were processed, both flows completed, and the no-loss quickstart
    // config never drops a packet.
    let m = RunManifest::from_json(&r.manifest.to_json()).expect("manifest JSON round-trips");
    assert_eq!(m.scheme, "Uno");
    assert_eq!(m.seed, 42);
    assert_eq!(m.flows, 2);
    assert_eq!(m.completed, 2);
    assert!(
        m.events_processed > 0,
        "engine.events_processed must be nonzero"
    );
    assert_eq!(
        m.counters.get("engine.events_processed"),
        m.events_processed
    );
    assert_eq!(
        m.counters.get("queue.drops"),
        0,
        "no-loss config must not drop"
    );
    assert!(m.events_per_sec > 0.0);

    // The JSONL trace parses into per-flow / per-queue summaries
    // (`uno-inspect summarize`'s engine) covering both flows.
    let text = std::fs::read_to_string(&path).unwrap();
    let summary = TraceSummary::from_jsonl(&text).expect("trace must parse");
    assert!(summary.events > 0);
    assert_eq!(summary.flows.len(), 2);
    assert!(summary.flows.iter().all(|f| f.acks > 0));
    assert!(!summary.queues.is_empty());
    let marks: u64 = summary.queues.iter().map(|q| q.marks).sum();
    assert_eq!(marks, m.counters.get("queue.ecn_marks"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn same_seed_runs_trace_and_count_identically() {
    use uno::sim::{TraceConfig, Tracer};

    let run = |tag: &str| {
        let path = std::env::temp_dir().join(format!("uno_system_determinism_{tag}.jsonl"));
        let mut e = quickstart_experiment(7);
        e.sim
            .set_tracer(Tracer::jsonl_file(&path, TraceConfig::all()).unwrap());
        let r = e.run(SECONDS);
        let trace = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        (trace, serde_json::to_string(&r.manifest.counters).unwrap())
    };
    let (trace_a, counters_a) = run("a");
    let (trace_b, counters_b) = run("b");
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "same seed must give byte-identical traces"
    );
    assert_eq!(
        counters_a, counters_b,
        "same seed must give identical counters"
    );
}

#[test]
fn table2_parameters_are_wired_through() {
    let e = quick(SchemeSpec::uno(), 0);
    let p = &e.sim.topo.params;
    assert_eq!(p.intra_rtt, 14 * uno::sim::MICROS);
    assert_eq!(p.inter_rtt, 2 * MILLIS);
    assert_eq!(p.mtu, 4096);
    assert_eq!(p.queue_bytes, 1 << 20);
    let ph = p.phantom.expect("Uno uses phantom queues");
    assert!((ph.drain_factor - 0.9).abs() < 1e-12);
}
