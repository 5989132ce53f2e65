//! `uno-scenario` — run a simulation scenario described by a JSON file.
//!
//! ```text
//! cargo run --release -p uno --bin uno-scenario -- scenario.json
//! cargo run --release -p uno --bin uno-scenario -- --print-template
//! cargo run --release -p uno --bin uno-scenario -- scenario.json \
//!     --trace trace.jsonl --trace-filter 'classes=cc,queue;flows=0'
//! ```
//!
//! The scenario file selects a topology preset, a scheme, a workload and
//! optional failure/loss injection; results (per-flow FCTs plus aggregate
//! statistics and the run manifest) are printed as JSON on stdout, ready for
//! plotting. `--trace <path>` streams a structured JSONL event trace (see
//! `uno-inspect summarize`), optionally gated by a `--trace-filter` spec.

use serde::{Deserialize, Serialize, Value};
use uno::metrics::OutcomeCounts;
use uno::sim::{
    FabricMode, FaultSpec, GilbertElliott, PfcParams, RunManifest, SampleConfig, Telemetry, Time,
    TopologyParams, TraceConfig, Tracer, MICROS, MILLIS, SECONDS,
};
use uno::{DegradationConfig, Experiment, ExperimentConfig, SchemeSpec, SweepRunner};
use uno_erasure::EcParams;
use uno_transport::{wire_packets, LbMode, PlbParams, MAX_WIRE_PACKETS};
use uno_workloads::{incast, permutation, poisson_mix, Cdf, FlowSpec, PoissonMixParams};

/// Scheme selector.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum SchemeSel {
    Uno,
    UnoEcmp,
    Gemini,
    MprdmaBbr,
    /// UnoCC with a custom load balancer and optional EC.
    Custom {
        lb: LbSel,
        ec: Option<(u8, u8)>,
    },
}

/// Load-balancer selector.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum LbSel {
    Ecmp,
    Spray,
    Plb,
    UnoLb { subflows: usize },
}

impl LbSel {
    fn to_mode(self) -> LbMode {
        match self {
            LbSel::Ecmp => LbMode::Ecmp,
            LbSel::Spray => LbMode::Spray,
            LbSel::Plb => LbMode::Plb(PlbParams::default()),
            LbSel::UnoLb { subflows } => LbMode::UnoLb { subflows },
        }
    }
}

/// Workload selector.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum WorkloadSel {
    /// Explicit flow list.
    Flows(Vec<FlowSpec>),
    /// N intra + M inter senders to one receiver.
    Incast {
        intra: usize,
        inter: usize,
        size: u64,
    },
    /// Random permutation, every host sends `size` bytes.
    Permutation { size: u64 },
    /// Poisson mix of websearch (intra) and Alibaba WAN (inter) flows.
    PoissonMix {
        load: f64,
        inter_fraction: f64,
        duration_ms: u64,
    },
}

/// A complete scenario description.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Scenario {
    /// Fat-tree arity (4 = quick preset, 8 = paper topology).
    #[serde(default = "default_k")]
    k: usize,
    /// Number of datacenter sites (1 = single DC; ≥ 2 adds one border
    /// switch per site joined by a full mesh of `border_links`-wide WAN
    /// bundles — 2 reproduces the paper).
    #[serde(default = "default_dcs")]
    dcs: usize,
    scheme: SchemeSel,
    workload: WorkloadSel,
    #[serde(default = "default_seed")]
    seed: u64,
    /// Simulation horizon in milliseconds.
    #[serde(default = "default_horizon")]
    horizon_ms: u64,
    /// Fail this many border links at t = 1 ms.
    #[serde(default)]
    fail_border_links: usize,
    /// Apply a uniform per-packet loss rate to all border links.
    #[serde(default)]
    border_loss: f64,
    /// Declarative fault-plane spec (gray loss, degraded links, flapping,
    /// asymmetric blackholes, ...). Also loadable from a separate file via
    /// `--faults <spec.json>`. When any fault is present, per-flow graceful
    /// degradation (stall watchdog + bounded retries) is enabled so every
    /// flow terminates with a definite outcome.
    #[serde(default)]
    faults: Option<FaultSpec>,
    /// `true` runs on a PFC-lossless fabric: switch egress ports assert
    /// PAUSE instead of tail-dropping, and congestion backpressure
    /// propagates hop by hop toward the sources.
    #[serde(default)]
    lossless: bool,
    /// XOFF threshold as a fraction of queue capacity (lossless fabrics
    /// only; `0.0` keeps the topology default). XON is set to 70% of XOFF.
    #[serde(default)]
    pfc_xoff_frac: f64,
}

fn default_k() -> usize {
    4
}
fn default_dcs() -> usize {
    2
}
fn default_seed() -> u64 {
    1
}
fn default_horizon() -> u64 {
    10_000
}

/// JSON output shape.
#[derive(Serialize)]
struct Output {
    scheme: String,
    flows: usize,
    completed: usize,
    /// Flows terminated by the stall watchdog (definite non-completion).
    stalled: usize,
    /// Flows aborted by the bounded-retry logic (definite non-completion).
    aborted: usize,
    /// Flows still running at the horizon (no definite outcome).
    censored: usize,
    sim_time_ms: f64,
    mean_fct_ms: f64,
    p99_fct_ms: f64,
    fcts_ms: Vec<f64>,
    ecn_marks: u64,
    queue_drops: u64,
    link_losses: u64,
    /// PFC pause frames asserted (0 on lossy fabrics).
    pfc_pauses: u64,
    /// Aggregate port-paused time in nanoseconds (0 on lossy fabrics).
    pfc_paused_ns: u64,
    manifest: RunManifest,
    /// Telemetry section (`--telemetry`): per-link/per-flow/fault series,
    /// byte-identical across repeated seeded runs.
    telemetry: Option<Telemetry>,
    /// Span-profiler report (`--profile`): wall-clock data, excluded from
    /// the determinism guarantee like `manifest.wall_seconds`.
    profile: Option<Value>,
    /// First error writing the `--trace` file; when set, the process exits 1
    /// after printing this output.
    trace_error: Option<String>,
}

/// Run options that live on the command line rather than in the scenario
/// file (they alter what gets recorded, never what gets simulated).
#[derive(Clone, Copy, Default)]
struct RunOpts {
    telemetry: bool,
    /// Sampling period override in µs (default: horizon/1024, min 1 µs).
    telemetry_interval_us: Option<u64>,
    profile: bool,
    progress: bool,
}

fn template() -> Scenario {
    Scenario {
        k: 4,
        dcs: 2,
        scheme: SchemeSel::Uno,
        workload: WorkloadSel::Incast {
            intra: 4,
            inter: 4,
            size: 16 << 20,
        },
        seed: 1,
        horizon_ms: 10_000,
        fail_border_links: 0,
        border_loss: 0.0,
        faults: None,
        lossless: false,
        pfc_xoff_frac: 0.0,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("uno-scenario: {msg}");
    eprintln!(
        "usage: uno-scenario <scenario.json> [--faults <spec.json>] \
         [--seeds <n>] [--jobs <n>] \
         [--telemetry] [--telemetry-interval-us <n>] [--profile] [--progress] \
         [--trace <out.jsonl>] [--trace-filter <spec>] | --print-template"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scenario_path: Option<String> = None;
    let mut faults_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_filter = TraceConfig::all();
    let mut print_template = false;
    let mut seeds: usize = 1;
    let mut jobs: usize = 0;
    let mut opts = RunOpts::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--print-template" => print_template = true,
            "--telemetry" => opts.telemetry = true,
            "--telemetry-interval-us" => {
                opts.telemetry_interval_us = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| die("--telemetry-interval-us needs a positive integer")),
                );
                opts.telemetry = true;
            }
            "--profile" => opts.profile = true,
            "--progress" => opts.progress = true,
            "--faults" => {
                faults_path = Some(args.next().unwrap_or_else(|| die("--faults needs a path")));
            }
            "--seeds" => {
                seeds = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seeds needs a positive integer"));
                if seeds == 0 {
                    die("--seeds needs a positive integer");
                }
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs an integer"));
            }
            "--trace" => {
                trace_path = Some(args.next().unwrap_or_else(|| die("--trace needs a path")));
            }
            "--trace-filter" => {
                let spec = args
                    .next()
                    .unwrap_or_else(|| die("--trace-filter needs a spec"));
                trace_filter = TraceConfig::parse(&spec)
                    .unwrap_or_else(|e| die(&format!("bad --trace-filter: {e}")));
            }
            other if !other.starts_with("--") && scenario_path.is_none() => {
                scenario_path = Some(other.to_string());
            }
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    if print_template {
        println!("{}", serde_json::to_string_pretty(&template()).unwrap());
        return;
    }
    let Some(arg) = scenario_path else {
        println!("{}", serde_json::to_string_pretty(&template()).unwrap());
        die("no scenario file given (template printed above)");
    };
    let text = std::fs::read_to_string(&arg)
        .unwrap_or_else(|e| die(&format!("cannot read scenario file {arg}: {e}")));
    let mut sc: Scenario =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("invalid scenario JSON: {e}")));
    if let Some(path) = &faults_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read fault spec {path}: {e}")));
        let extra = FaultSpec::from_json(&text)
            .unwrap_or_else(|e| die(&format!("invalid fault spec {path}: {e}")));
        // Faults from the CLI accumulate on top of any embedded in the
        // scenario file.
        sc.faults
            .get_or_insert_with(FaultSpec::empty)
            .faults
            .extend(extra.faults);
    }
    if seeds == 1 {
        let tracer = match &trace_path {
            Some(path) => Tracer::jsonl_file(path, trace_filter)
                .unwrap_or_else(|e| die(&format!("cannot open trace file {path}: {e}"))),
            None => Tracer::disabled(),
        };
        let out = run_scenario(&sc, tracer, opts);
        println!("{}", serde_json::to_string_pretty(&out).unwrap());
        if let (Some(path), Some(e)) = (&trace_path, &out.trace_error) {
            eprintln!("uno-scenario: writing trace file {path} failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    // Seed sweep: run the scenario at seeds base..base+n in parallel and
    // print a JSON array, ordered by seed regardless of `--jobs`. A single
    // simulation is inherently serial, so parallelism fans out across seeds.
    if trace_path.is_some() {
        die("--trace is only meaningful for a single run; drop --seeds or --trace");
    }
    let outs = run_seed_sweep(&sc, seeds, jobs, opts);
    println!("{}", serde_json::to_string_pretty(&outs).unwrap());
}

/// Run `sc` at `n` consecutive seeds (`sc.seed .. sc.seed + n`) on `jobs`
/// workers (0 = one per core), preserving seed order.
fn run_seed_sweep(sc: &Scenario, n: usize, jobs: usize, opts: RunOpts) -> Vec<Output> {
    let seeds = (0..n as u64).map(|i| sc.seed.wrapping_add(i)).collect();
    SweepRunner::new(jobs).run(seeds, |_, seed| {
        let cell = Scenario { seed, ..sc.clone() };
        run_scenario(&cell, Tracer::disabled(), opts)
    })
}

fn run_scenario(sc: &Scenario, tracer: Tracer, opts: RunOpts) -> Output {
    try_run_scenario(sc, tracer, opts).unwrap_or_else(|e| die(&e))
}

/// `value` in units of `unit` nanoseconds, as nanoseconds. A product past
/// the 64-bit clock is an error naming `field`, not a silently wrapped time.
fn nanos(field: &str, value: u64, unit: Time) -> Result<Time, String> {
    value
        .checked_mul(unit)
        .ok_or_else(|| format!("{field} {value} overflows the 64-bit nanosecond clock"))
}

/// Reject field values the simulator cannot run, naming the field. Left
/// to the run, each of these panicked deep inside it or silently simulated
/// something other than the file describes.
fn check_fields(sc: &Scenario) -> Result<(), String> {
    if sc.k < 2 || sc.k % 2 == 1 {
        return Err(format!("k {} must be even and at least 2", sc.k));
    }
    if !(1..=256).contains(&sc.dcs) {
        return Err(format!("dcs {} must be between 1 and 256", sc.dcs));
    }
    // The workload generators number sites with a `u8`.
    let generated = matches!(
        sc.workload,
        WorkloadSel::Permutation { .. } | WorkloadSel::PoissonMix { .. }
    );
    if generated && sc.dcs > u8::MAX as usize {
        return Err(format!(
            "dcs {} must be at most 255 for a permutation or poisson_mix workload",
            sc.dcs
        ));
    }
    if !(0.0..=1.0).contains(&sc.border_loss) {
        return Err(format!(
            "border_loss {} must be a probability in [0, 1]",
            sc.border_loss
        ));
    }
    if let SchemeSel::Custom { lb, ec } = sc.scheme {
        if let LbSel::UnoLb { subflows: 0 } = lb {
            return Err("scheme.custom.lb.uno_lb.subflows 0 must be at least 1".into());
        }
        if let Some((data, parity)) = ec {
            if data == 0 || data as u16 + parity as u16 > u8::MAX as u16 {
                return Err(format!(
                    "scheme.custom.ec ({data}, {parity}) needs at least 1 data shard \
                     and at most 255 shards per block"
                ));
            }
        }
    }
    if !(0.0..=0.95).contains(&sc.pfc_xoff_frac) {
        return Err(format!(
            "pfc_xoff_frac {} must be in [0, 0.95] (0 keeps the default)",
            sc.pfc_xoff_frac
        ));
    }
    let topo = topology(sc);
    let border_links = topo.border_links.saturating_mul(sc.dcs * (sc.dcs - 1) / 2);
    if sc.fail_border_links > border_links {
        return Err(format!(
            "fail_border_links {} exceeds the {border_links} forward border links of k {} \
             with dcs {}",
            sc.fail_border_links, sc.k, sc.dcs
        ));
    }
    let hosts = topo.hosts_per_dc();
    // A flow's wire packets, under the erasure coding the scheme gives its
    // class, must fit the `u32` sequences of its sender state.
    let scheme = scheme(sc);
    let size_fits = |field: &str, size: u64, inter: bool| {
        if size == 0 {
            return Err(format!("{field} must be at least 1 byte"));
        }
        let wire = wire_packets(size, topo.mtu, scheme.ec_for(inter));
        if wire > MAX_WIRE_PACKETS {
            return Err(format!(
                "{field} {size} is {wire} wire packets at MTU {}, above the \
                 {MAX_WIRE_PACKETS} one flow can track",
                topo.mtu
            ));
        }
        Ok(())
    };
    match &sc.workload {
        WorkloadSel::Flows(flows) => {
            for (i, f) in flows.iter().enumerate() {
                for (end, dc, idx) in [("src", f.src_dc, f.src_idx), ("dst", f.dst_dc, f.dst_idx)] {
                    if dc as usize >= sc.dcs {
                        return Err(format!(
                            "workload.flows[{i}].{end}_dc {dc} names no site (dcs {})",
                            sc.dcs
                        ));
                    }
                    if idx as usize >= hosts {
                        return Err(format!(
                            "workload.flows[{i}].{end}_idx {idx} names no host \
                             (k {} has {hosts} hosts per site)",
                            sc.k
                        ));
                    }
                }
                let field = format!("workload.flows[{i}].size");
                size_fits(&field, f.size, f.src_dc != f.dst_dc)?;
            }
        }
        WorkloadSel::Incast { intra, inter, size } => {
            // The receiver is host 0 of site 0, so one host there cannot send.
            if *intra >= hosts {
                return Err(format!(
                    "workload.incast.intra {intra} needs more hosts than k {} has per site ({hosts})",
                    sc.k
                ));
            }
            if *inter > hosts {
                return Err(format!(
                    "workload.incast.inter {inter} exceeds the {hosts} hosts per site of k {}",
                    sc.k
                ));
            }
            size_fits("workload.incast.size", *size, *inter > 0)?;
        }
        // Over more than one site the permutation pairs hosts across sites.
        WorkloadSel::Permutation { size } => {
            size_fits("workload.permutation.size", *size, sc.dcs > 1)?
        }
        WorkloadSel::PoissonMix {
            load,
            inter_fraction,
            ..
        } => {
            if !(*load > 0.0 && *load < 1.5) {
                return Err(format!(
                    "workload.poisson_mix.load {load} must be above 0 and below 1.5"
                ));
            }
            if !(0.0..=1.0).contains(inter_fraction) {
                return Err(format!(
                    "workload.poisson_mix.inter_fraction {inter_fraction} must be in [0, 1]"
                ));
            }
            if *inter_fraction != 0.0 && sc.dcs != 2 {
                return Err(format!(
                    "workload.poisson_mix.inter_fraction {inter_fraction} needs dcs 2, not {}",
                    sc.dcs
                ));
            }
        }
    }
    Ok(())
}

/// The fabric `sc` names: the paper's k=8 topology, or k-ary fat-trees
/// with `k` border links per site pair, over `sc.dcs` sites.
fn topology(sc: &Scenario) -> TopologyParams {
    let mut topo = if sc.k == 8 {
        TopologyParams::default()
    } else {
        TopologyParams {
            k: sc.k,
            border_links: sc.k,
            ..TopologyParams::default()
        }
    };
    topo.dcs = sc.dcs;
    topo
}

/// The scheme `sc` names.
fn scheme(sc: &Scenario) -> SchemeSpec {
    match &sc.scheme {
        SchemeSel::Uno => SchemeSpec::uno(),
        SchemeSel::UnoEcmp => SchemeSpec::uno_ecmp(),
        SchemeSel::Gemini => SchemeSpec::gemini(),
        SchemeSel::MprdmaBbr => SchemeSpec::mprdma_bbr(),
        SchemeSel::Custom { lb, ec } => SchemeSpec::unocc_with(
            "custom",
            lb.to_mode(),
            ec.map(|(data, parity)| EcParams { data, parity }),
        ),
    }
}

/// Run `sc`, or explain why the scenario cannot run.
fn try_run_scenario(sc: &Scenario, tracer: Tracer, opts: RunOpts) -> Result<Output, String> {
    check_fields(sc)?;
    let mut topo = topology(sc);
    if sc.lossless {
        topo.fabric = FabricMode::Lossless;
        if sc.pfc_xoff_frac > 0.0 {
            topo.pfc = PfcParams {
                xoff_frac: sc.pfc_xoff_frac,
                xon_frac: 0.7 * sc.pfc_xoff_frac,
            };
        }
    } else if sc.pfc_xoff_frac > 0.0 {
        return Err("pfc_xoff_frac requires \"lossless\": true".into());
    }
    let scheme = scheme(sc);
    let hosts = topo.hosts_per_dc() as u32;
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(sc.seed);
    let specs: Vec<FlowSpec> = match &sc.workload {
        WorkloadSel::Flows(v) => v.clone(),
        WorkloadSel::Incast { intra, inter, size } => {
            if *inter > 0 && sc.dcs < 2 {
                return Err("incast with inter senders needs dcs >= 2".into());
            }
            incast(*intra, *inter, *size, hosts)
        }
        WorkloadSel::Permutation { size } => permutation(hosts, sc.dcs as u8, *size, &mut rng),
        WorkloadSel::PoissonMix {
            load,
            inter_fraction,
            duration_ms,
        } => poisson_mix(
            &PoissonMixParams {
                hosts_per_dc: hosts,
                dcs: sc.dcs as u8,
                host_bps: topo.link_bps,
                load: *load,
                inter_fraction: *inter_fraction,
                duration: nanos("workload.poisson_mix.duration_ms", *duration_ms, MILLIS)?,
            },
            &Cdf::websearch(),
            &Cdf::alibaba_wan(),
            &mut rng,
        ),
    };

    let mut cfg = ExperimentConfig::quick(scheme, sc.seed);
    cfg.topo = topo;
    let has_faults = sc.faults.as_ref().is_some_and(|f| !f.faults.is_empty());
    if has_faults {
        // Under injected faults every flow must reach a definite outcome
        // instead of retrying into the horizon.
        cfg.degradation = Some(DegradationConfig::default());
    }
    let horizon: Time = nanos("horizon_ms", sc.horizon_ms, MILLIS)?.max(SECONDS / 100);
    if opts.telemetry {
        // Default cadence: ~1024 samples over the horizon, at least 1 µs.
        let interval = match opts.telemetry_interval_us {
            Some(us) => nanos("--telemetry-interval-us", us, MICROS)?,
            None => (horizon / 1024).max(MICROS),
        };
        cfg.telemetry = Some(SampleConfig::every(interval));
    }
    cfg.profile = opts.profile;
    let mut exp = Experiment::new(cfg);
    exp.sim.set_tracer(tracer);
    if opts.progress {
        exp.sim.set_heartbeat(std::time::Duration::from_secs(1));
    }
    if let Some(spec) = &sc.faults {
        exp.sim
            .install_faults(spec)
            .map_err(|e| format!("invalid fault spec: {e}"))?;
    }
    exp.add_specs(&specs);
    for i in 0..sc.fail_border_links {
        let l = exp.sim.topo.border_forward[i];
        exp.sim.schedule_link_down(l, MILLIS);
    }
    if sc.border_loss > 0.0 {
        exp.sim
            .set_border_loss(GilbertElliott::uniform(sc.border_loss));
    }
    let r = exp.run(horizon);

    let fcts_ms: Vec<f64> = r.fcts.iter().map(|f| f.fct() as f64 / 1e6).collect();
    let outcomes = OutcomeCounts::tally(&r.fcts, &r.failures, &r.censored);
    Ok(Output {
        scheme: r.scheme.clone(),
        flows: r.flows,
        completed: outcomes.completed,
        stalled: outcomes.stalled,
        aborted: outcomes.aborted,
        censored: outcomes.censored,
        sim_time_ms: r.sim_time as f64 / 1e6,
        mean_fct_ms: uno::metrics::mean(&fcts_ms),
        p99_fct_ms: uno::metrics::percentile(&fcts_ms, 0.99),
        fcts_ms,
        ecn_marks: r.stats.ecn_marks,
        queue_drops: r.stats.queue_drops,
        link_losses: r.stats.link_losses,
        pfc_pauses: r.manifest.counters.get("pfc.pauses"),
        pfc_paused_ns: r.manifest.counters.get("pfc.paused_ns"),
        manifest: r.manifest,
        telemetry: r.telemetry,
        profile: r.profile,
        trace_error: r.trace_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_round_trips() {
        let t = template();
        let json = serde_json::to_string(&t).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.k, 4);
        assert!(matches!(
            back.workload,
            WorkloadSel::Incast { intra: 4, .. }
        ));
    }

    #[test]
    fn seed_sweep_is_seed_ordered_and_identical_across_job_counts() {
        let sc = Scenario {
            workload: WorkloadSel::Incast {
                intra: 2,
                inter: 1,
                size: 256 << 10,
            },
            seed: 5,
            ..template()
        };
        // Each run's JSON with the wall-clock meters zeroed.
        let sweep = |jobs| -> Vec<(u64, String)> {
            run_seed_sweep(&sc, 3, jobs, RunOpts::default())
                .into_iter()
                .map(|mut out| {
                    out.manifest.wall_seconds = 0.0;
                    out.manifest.events_per_sec = 0.0;
                    let json = serde_json::to_string(&out).unwrap();
                    (out.manifest.seed, json)
                })
                .collect()
        };
        let serial = sweep(1);
        let seeds: Vec<u64> = serial.iter().map(|(seed, _)| *seed).collect();
        assert_eq!(seeds, [5, 6, 7]);
        assert_eq!(sweep(3), serial);
    }

    #[test]
    fn scenario_runs_end_to_end() {
        let sc = Scenario {
            k: 4,
            dcs: 2,
            scheme: SchemeSel::Uno,
            workload: WorkloadSel::Incast {
                intra: 2,
                inter: 1,
                size: 1 << 20,
            },
            seed: 3,
            horizon_ms: 5_000,
            fail_border_links: 0,
            border_loss: 0.0,
            faults: None,
            lossless: false,
            pfc_xoff_frac: 0.0,
        };
        let out = run_scenario(&sc, Tracer::disabled(), RunOpts::default());
        assert_eq!(out.flows, 3);
        assert_eq!(out.completed, 3);
        assert!(out.mean_fct_ms > 0.0);
        assert!(out.manifest.events_processed > 0);
        assert_eq!(out.manifest.counters.get("queue.drops"), out.queue_drops);
        assert_eq!(out.manifest.completed, 3);
    }

    #[test]
    fn scenario_with_failure_and_loss() {
        let sc = Scenario {
            k: 4,
            dcs: 2,
            scheme: SchemeSel::Custom {
                lb: LbSel::UnoLb { subflows: 10 },
                ec: Some((8, 2)),
            },
            workload: WorkloadSel::Flows(vec![FlowSpec {
                src_dc: 0,
                src_idx: 0,
                dst_dc: 1,
                dst_idx: 1,
                size: 4 << 20,
                start: 0,
            }]),
            seed: 5,
            horizon_ms: 10_000,
            fail_border_links: 1,
            border_loss: 0.001,
            faults: None,
            lossless: false,
            pfc_xoff_frac: 0.0,
        };
        let out = run_scenario(&sc, Tracer::disabled(), RunOpts::default());
        assert_eq!(out.completed, 1);
    }

    #[test]
    fn fault_plane_scenario_is_deterministic_and_terminates() {
        use uno::sim::{FaultEntry, FaultKind, FaultTarget};
        // Gray loss + flapping on the forward border, plus a permanent
        // asymmetric blackhole of every reverse border link: data crosses,
        // ACKs die, and graceful degradation must terminate the inter flow.
        let faults = FaultSpec {
            faults: vec![
                FaultEntry {
                    target: FaultTarget::BorderForward { idx: 0 },
                    kind: FaultKind::GrayLoss { p: 0.05 },
                    at: 0,
                    until: Some(20 * MILLIS),
                },
                FaultEntry {
                    target: FaultTarget::BorderForward { idx: 1 },
                    kind: FaultKind::Flapping {
                        mtbf: 5 * MILLIS,
                        mttr: 5 * MILLIS,
                    },
                    at: 0,
                    until: Some(50 * MILLIS),
                },
                FaultEntry {
                    target: FaultTarget::BorderReverse { idx: 0 },
                    kind: FaultKind::Down,
                    at: 0,
                    until: None,
                },
                FaultEntry {
                    target: FaultTarget::BorderReverse { idx: 1 },
                    kind: FaultKind::Down,
                    at: 0,
                    until: None,
                },
                FaultEntry {
                    target: FaultTarget::BorderReverse { idx: 2 },
                    kind: FaultKind::Down,
                    at: 0,
                    until: None,
                },
                FaultEntry {
                    target: FaultTarget::BorderReverse { idx: 3 },
                    kind: FaultKind::Down,
                    at: 0,
                    until: None,
                },
            ],
        };
        let sc = Scenario {
            k: 4,
            dcs: 2,
            scheme: SchemeSel::Uno,
            workload: WorkloadSel::Flows(vec![
                FlowSpec {
                    src_dc: 0,
                    src_idx: 0,
                    dst_dc: 1,
                    dst_idx: 1,
                    size: 1 << 20,
                    start: 0,
                },
                FlowSpec {
                    src_dc: 0,
                    src_idx: 2,
                    dst_dc: 0,
                    dst_idx: 3,
                    size: 256 << 10,
                    start: 0,
                },
            ]),
            seed: 11,
            horizon_ms: 30_000,
            fail_border_links: 0,
            border_loss: 0.0,
            faults: Some(faults),
            lossless: false,
            pfc_xoff_frac: 0.0,
        };
        // The scenario (including its fault spec) survives a JSON round trip.
        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults.as_ref().unwrap().faults.len(), 6);

        let run = || {
            let mut out = run_scenario(
                &back,
                Tracer::disabled(),
                RunOpts {
                    telemetry: true,
                    ..RunOpts::default()
                },
            );
            // Wall-clock fields legitimately vary between runs; everything
            // simulated must not.
            out.manifest.wall_seconds = 0.0;
            out.manifest.events_per_sec = 0.0;
            serde_json::to_string(&out).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must reproduce byte-identical output");

        let out = run_scenario(&back, Tracer::disabled(), RunOpts::default());
        // The intra flow completes; the ACK-blackholed inter flow reaches a
        // definite stalled/aborted outcome instead of censoring.
        assert_eq!(out.completed, 1);
        assert_eq!(out.stalled + out.aborted, 1);
        assert_eq!(out.censored, 0);
        assert!(out.sim_time_ms < 30_000.0);
    }

    #[test]
    fn lossless_scenario_pauses_instead_of_dropping() {
        let json = r#"{
            "scheme": "uno",
            "workload": {"incast": {"intra": 8, "inter": 0, "size": 4194304}},
            "lossless": true,
            "pfc_xoff_frac": 0.3,
            "horizon_ms": 20000
        }"#;
        let sc: Scenario = serde_json::from_str(json).unwrap();
        assert!(sc.lossless);
        let out = run_scenario(&sc, Tracer::disabled(), RunOpts::default());
        assert_eq!(out.completed, 8);
        assert_eq!(out.queue_drops, 0, "lossless fabric must not tail-drop");
        assert!(out.pfc_pauses > 0, "the incast must cross the XOFF mark");
        assert!(out.pfc_paused_ns > 0);
        // The same incast on the default lossy fabric emits no PFC at all.
        let mut lossy = sc.clone();
        lossy.lossless = false;
        lossy.pfc_xoff_frac = 0.0;
        let out2 = run_scenario(&lossy, Tracer::disabled(), RunOpts::default());
        assert_eq!(out2.pfc_pauses, 0);
        assert_eq!(out2.pfc_paused_ns, 0);
    }

    #[test]
    fn minimal_json_uses_defaults() {
        let json = r#"{"scheme":"uno","workload":{"incast":{"intra":1,"inter":0,"size":65536}}}"#;
        let sc: Scenario = serde_json::from_str(json).unwrap();
        assert_eq!(sc.k, 4);
        assert_eq!(sc.dcs, 2);
        assert_eq!(sc.horizon_ms, 10_000);
        assert_eq!(sc.fail_border_links, 0);
    }

    /// The error `try_run_scenario` reports for `json` run with `opts`.
    fn scenario_error(json: &str, opts: RunOpts) -> String {
        let sc: Scenario = serde_json::from_str(json).unwrap();
        try_run_scenario(&sc, Tracer::disabled(), opts)
            .err()
            .expect("the scenario must be rejected")
    }

    /// Each malformed field is rejected with an error that names it. Run,
    /// each of these panicked, except an `ec` of more than 255 shards and a
    /// host index past its site, which silently ran a different scenario.
    #[test]
    fn malformed_fields_are_rejected() {
        let incast = r#""workload":{"incast":{"intra":1,"inter":0,"size":65536}}"#;
        let flow = |fields: &str| {
            format!(
                r#""workload":{{"flows":[{{"src_dc":0,"src_idx":0,"dst_dc":1,"dst_idx":1,
                "size":4096,"start":0}},{{"start":0,{fields}}}]}}"#
            )
        };
        let poisson = |load: &str, inter: &str| {
            format!(
                r#""workload":{{"poisson_mix":{{"load":{load},"inter_fraction":{inter},
                "duration_ms":1}}}}"#
            )
        };
        let cases = [
            (format!(r#""k":5,{incast}"#), "k 5 "),
            (format!(r#""k":0,{incast}"#), "k 0 "),
            (format!(r#""dcs":257,{incast}"#), "dcs 257 "),
            (format!(r#""dcs":0,{incast}"#), "dcs 0 "),
            (format!(r#""border_loss":1.5,{incast}"#), "border_loss 1.5 "),
            (
                format!(r#""border_loss":-0.5,{incast}"#),
                "border_loss -0.5 ",
            ),
            (
                r#""workload":{"incast":{"intra":16,"inter":0,"size":1}}"#.into(),
                "workload.incast.intra 16 ",
            ),
            (
                r#""workload":{"incast":{"intra":1,"inter":17,"size":1}}"#.into(),
                "workload.incast.inter 17 ",
            ),
            (
                r#""workload":{"incast":{"intra":1,"inter":0,"size":0}}"#.into(),
                "workload.incast.size ",
            ),
            (
                r#""workload":{"permutation":{"size":0}}"#.into(),
                "workload.permutation.size ",
            ),
            (
                r#""dcs":256,"workload":{"permutation":{"size":1}}"#.into(),
                "dcs 256 ",
            ),
            (
                flow(r#""src_dc":0,"src_idx":0,"dst_dc":1,"dst_idx":1,"size":0"#),
                "workload.flows[1].size ",
            ),
            (
                flow(r#""src_dc":0,"src_idx":0,"dst_dc":2,"dst_idx":1,"size":1"#),
                "workload.flows[1].dst_dc 2 ",
            ),
            (
                flow(r#""src_dc":0,"src_idx":16,"dst_dc":1,"dst_idx":1,"size":1"#),
                "workload.flows[1].src_idx 16 ",
            ),
            (poisson("0", "0.2"), "workload.poisson_mix.load 0 "),
            (poisson("1.5", "0.2"), "workload.poisson_mix.load 1.5 "),
            (
                poisson("0.5", "1.2"),
                "workload.poisson_mix.inter_fraction 1.2 ",
            ),
            (
                poisson("0.5", "-0.1"),
                "workload.poisson_mix.inter_fraction -0.1 ",
            ),
            (
                format!(r#""dcs":3,{}"#, poisson("0.5", "0.2")),
                "workload.poisson_mix.inter_fraction 0.2 needs dcs 2",
            ),
            (
                format!(r#""scheme":{{"custom":{{"lb":"ecmp","ec":[0,2]}}}},{incast}"#),
                "scheme.custom.ec (0, 2) ",
            ),
            (
                format!(r#""scheme":{{"custom":{{"lb":"ecmp","ec":[200,100]}}}},{incast}"#),
                "scheme.custom.ec (200, 100) ",
            ),
            (
                format!(r#""scheme":{{"custom":{{"lb":{{"uno_lb":{{"subflows":0}}}}}}}},{incast}"#),
                "scheme.custom.lb.uno_lb.subflows 0 ",
            ),
            (
                format!(r#""lossless":true,"pfc_xoff_frac":-0.5,{incast}"#),
                "pfc_xoff_frac -0.5 ",
            ),
            (
                format!(r#""pfc_xoff_frac":-0.5,{incast}"#),
                "pfc_xoff_frac -0.5 ",
            ),
            (
                format!(r#""lossless":true,"pfc_xoff_frac":3.0,{incast}"#),
                "pfc_xoff_frac 3 ",
            ),
            (
                format!(r#""fail_border_links":5,{incast}"#),
                "fail_border_links 5 ",
            ),
            (
                format!(r#""k":8,"fail_border_links":9,{incast}"#),
                "fail_border_links 9 ",
            ),
            (
                format!(r#""dcs":3,"fail_border_links":13,{incast}"#),
                "fail_border_links 13 ",
            ),
            // Sizes past the u32 wire-packet limit: 2^52 packets, and one
            // (8, 2) block more than an inter-DC flow can track.
            (
                r#""workload":{"incast":{"intra":1,"inter":0,"size":18446744073709551615}}"#.into(),
                "workload.incast.size 18446744073709551615 ",
            ),
            (
                r#""workload":{"permutation":{"size":18446744073709551615}}"#.into(),
                "workload.permutation.size 18446744073709551615 ",
            ),
            (
                flow(r#""src_dc":0,"src_idx":0,"dst_dc":1,"dst_idx":1,"size":14073748819968"#),
                "workload.flows[1].size 14073748819968 ",
            ),
        ];
        let scenario = |fields: &str| match fields.contains(r#""scheme""#) {
            true => format!("{{{fields}}}"),
            false => format!(r#"{{"scheme":"uno",{fields}}}"#),
        };
        for (fields, field) in cases {
            let json = scenario(&fields);
            let err = scenario_error(&json, RunOpts::default());
            assert!(err.starts_with(field), "{json}: {err}");
        }
        // The limits themselves are accepted.
        for fields in [
            format!(r#""k":2,"border_loss":1.0,{incast}"#),
            format!(r#""dcs":256,{incast}"#),
            r#""workload":{"incast":{"intra":15,"inter":16,"size":1}}"#.into(),
            flow(r#""src_dc":1,"src_idx":15,"dst_dc":0,"dst_idx":15,"size":1"#),
            poisson("1.49", "1"),
            format!(r#""scheme":{{"custom":{{"lb":"ecmp","ec":[128,127]}}}},{incast}"#),
            format!(r#""scheme":{{"custom":{{"lb":{{"uno_lb":{{"subflows":1}}}}}}}},{incast}"#),
            format!(r#""lossless":true,"pfc_xoff_frac":0.95,{incast}"#),
            format!(r#""fail_border_links":4,{incast}"#),
            format!(r#""k":8,"fail_border_links":8,{incast}"#),
            format!(r#""dcs":3,"fail_border_links":12,{incast}"#),
            // Exactly u32::MAX wire packets; the inter-DC size above is
            // fine within a site, where no parity is added; and one block
            // less fits inter-DC. Checked only, never run.
            r#""workload":{"incast":{"intra":1,"inter":0,"size":17592186040320}}"#.into(),
            flow(r#""src_dc":0,"src_idx":0,"dst_dc":0,"dst_idx":1,"size":14073748819968"#),
            flow(r#""src_dc":0,"src_idx":0,"dst_dc":1,"dst_idx":1,"size":14073748815872"#),
        ] {
            let json = scenario(&fields);
            let sc: Scenario = serde_json::from_str(&json).unwrap();
            assert_eq!(check_fields(&sc), Ok(()), "{json}");
        }
    }

    #[test]
    fn overflowing_horizon_is_rejected() {
        // 18446744073710 ms is 2^64 + 448384 ns: it used to wrap to 448 µs,
        // get raised to the 10 ms floor and end the run with no flow done.
        let err = scenario_error(
            r#"{"scheme":"uno","workload":{"incast":{"intra":1,"inter":0,"size":65536}},
                "horizon_ms":18446744073710}"#,
            RunOpts::default(),
        );
        assert!(err.contains("horizon_ms 18446744073710"), "{err}");
    }

    #[test]
    fn overflowing_poisson_duration_is_rejected() {
        let err = scenario_error(
            r#"{"scheme":"uno","workload":{"poisson_mix":{"load":0.5,"inter_fraction":0.2,
                "duration_ms":18446744073710}}}"#,
            RunOpts::default(),
        );
        assert!(err.contains("duration_ms 18446744073710"), "{err}");
    }

    #[test]
    fn overflowing_telemetry_interval_is_rejected() {
        let err = scenario_error(
            r#"{"scheme":"uno","workload":{"incast":{"intra":1,"inter":0,"size":65536}}}"#,
            RunOpts {
                telemetry: true,
                telemetry_interval_us: Some(18_446_744_073_709_552),
                ..RunOpts::default()
            },
        );
        assert!(
            err.contains("--telemetry-interval-us 18446744073709552"),
            "{err}"
        );
    }

    #[test]
    fn multi_dc_scenario_routes_across_sites() {
        // Three sites: a flow from DC0 to DC2 must cross exactly one WAN
        // hop (never transiting DC1) and complete.
        let sc = Scenario {
            k: 4,
            dcs: 3,
            scheme: SchemeSel::Uno,
            workload: WorkloadSel::Flows(vec![
                FlowSpec {
                    src_dc: 0,
                    src_idx: 0,
                    dst_dc: 2,
                    dst_idx: 1,
                    size: 1 << 20,
                    start: 0,
                },
                FlowSpec {
                    src_dc: 1,
                    src_idx: 2,
                    dst_dc: 1,
                    dst_idx: 3,
                    size: 256 << 10,
                    start: 0,
                },
            ]),
            seed: 7,
            horizon_ms: 5_000,
            fail_border_links: 0,
            border_loss: 0.0,
            faults: None,
            lossless: false,
            pfc_xoff_frac: 0.0,
        };
        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dcs, 3);
        let out = run_scenario(&back, Tracer::disabled(), RunOpts::default());
        assert_eq!(out.flows, 2);
        assert_eq!(out.completed, 2);
    }
}
