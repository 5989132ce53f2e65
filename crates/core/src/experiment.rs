//! The experiment driver: binds workload [`FlowSpec`]s to a topology, wires
//! each flow with the scheme's congestion controller / load balancer /
//! erasure coding, runs the simulation and collects results.
//!
//! This is the public API the examples and the figure-harness binaries use.

use serde::{Serialize, Value};
use uno_sim::{
    FailRecord, FctRecord, FlowClass, FlowId, FlowMeta, LinkStats, PhantomParams, QueueSampler,
    RunManifest, SampleConfig, Simulator, Telemetry, Time, Topology, TopologyParams,
};
use uno_transport::{
    Bbr, CcAlgorithm, CcConfig, FaultInjection, FlowConfig, Gemini, MessageFlow, Mprdma, UnoCc,
};
use uno_workloads::FlowSpec;

use crate::scheme::{CcKind, SchemeSpec};

/// Experiment-level configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Topology to build (phantom queues are injected automatically when
    /// the scheme requires them).
    pub topo: TopologyParams,
    /// Scheme under test.
    pub scheme: SchemeSpec,
    /// Simulation seed (identical seeds give bit-identical runs).
    pub seed: u64,
    /// Record per-flow progress (rate time-series) for every flow.
    pub record_progress: bool,
    /// Test-only fault injection applied to every flow's transport (all off
    /// by default; `uno-testkit` arms these to validate its checkers).
    pub faults: FaultInjection,
    /// Arm graceful degradation on every flow's transport: a stall
    /// watchdog that checks progress every [`STALL_RTOS`] RTOs, and an
    /// abort after [`MAX_RTO_RETRIES`] consecutive RTOs without progress.
    /// `false` keeps the legacy behaviour: flows under a permanent fault
    /// retry until the horizon and show up as censored FCTs. Runs that
    /// inject faults should set this so such flows terminate with a definite
    /// [`uno_sim::FlowOutcome`] instead.
    pub degrade: bool,
    /// Periodic in-sim telemetry sampling (link queues, per-flow transport
    /// state, fault plane); `None` records nothing. The collected series
    /// land in [`ExperimentResults::telemetry`], deterministic per seed.
    pub telemetry: Option<SampleConfig>,
    /// Enable the wall-clock span self-profiler; its report lands in
    /// [`ExperimentResults::profile`] (non-deterministic, like
    /// `manifest.wall_seconds`).
    pub profile: bool,
    /// Ignored: the serial engine always runs. Kept only so existing
    /// callers that still assign it keep compiling; nothing reads it.
    pub lp_jobs: usize,
}

/// Stall-watchdog period in RTOs under [`ExperimentConfig::degrade`]; two
/// consecutive zero-progress checks declare the flow stalled (see
/// [`FlowConfig::with_degradation`]).
pub const STALL_RTOS: u32 = 8;
/// Consecutive zero-progress RTOs before a sender aborts under
/// [`ExperimentConfig::degrade`].
pub const MAX_RTO_RETRIES: u32 = 12;

impl ExperimentConfig {
    /// Config over the scaled-down (k=4) topology for fast runs.
    pub fn quick(scheme: SchemeSpec, seed: u64) -> Self {
        ExperimentConfig {
            topo: TopologyParams::small(),
            scheme,
            seed,
            record_progress: false,
            faults: FaultInjection::default(),
            degrade: false,
            telemetry: None,
            profile: false,
            lp_jobs: 0,
        }
    }
}

/// One queue sampler's output.
#[derive(Clone, Debug, Serialize)]
pub struct SamplerSeries {
    /// The sampled link's totals at the end of the run (its id included).
    pub link: LinkStats,
    /// (time, physical queue bytes) samples.
    pub samples: Vec<(Time, u64)>,
    /// (time, phantom queue bytes) samples; empty when the port has no
    /// phantom queue.
    pub phantom: Vec<(Time, u64)>,
}

/// Everything a finished run yields.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentResults {
    /// Scheme name.
    pub scheme: String,
    /// Completion records.
    pub fcts: Vec<FctRecord>,
    /// Per-flow progress series (flow id, (time, cumulative acked bytes)),
    /// recorded under [`ExperimentConfig::record_progress`] for every flow
    /// that acknowledged data.
    pub progress: Vec<(u32, Vec<(Time, u64)>)>,
    /// Queue samplers registered before the run.
    pub samplers: Vec<SamplerSeries>,
    /// Lower-bound records (end = horizon) for flows that did not complete;
    /// include them in tail statistics to avoid censoring bias.
    pub censored: Vec<FctRecord>,
    /// Flows that terminated without completing (stalled by the watchdog or
    /// aborted by the bounded-retry logic) — definite outcomes, unlike the
    /// censored lower bounds above.
    pub failures: Vec<FailRecord>,
    /// Whether every flow completed *successfully* within the horizon
    /// (stalled/aborted flows terminate the run but do not count).
    pub all_completed: bool,
    /// Final simulation time.
    pub sim_time: Time,
    /// Number of flows registered.
    pub flows: usize,
    /// Run manifest: seed, topology, throughput and final counter snapshot,
    /// whose `queue.*` and `link.*` counters are the run's network totals.
    /// `manifest.name` is the scheme name here; the figure binaries' cell
    /// runner (`uno_bench::run_cell`) replaces it with the cell's label,
    /// the swept parameters that tell the figure's cells apart.
    pub manifest: RunManifest,
    /// The telemetry collector (present when
    /// [`ExperimentConfig::telemetry`] was set): per-link/per-flow/fault
    /// series, serialized byte-identically across repeated seeded runs.
    pub telemetry: Option<Telemetry>,
    /// Serialized span-profiler report (present when
    /// [`ExperimentConfig::profile`] was set). Wall-clock data — excluded
    /// from the determinism guarantee.
    pub profile: Option<Value>,
    /// First error writing the run's trace (a JSONL tracer whose writer
    /// failed); `None` when the trace was written in full or tracing was off.
    pub trace_error: Option<String>,
}

/// A configured simulation ready to accept flows and run.
pub struct Experiment {
    /// The underlying simulator (exposed for failure injection, samplers
    /// and other advanced drivers).
    pub sim: Simulator,
    cfg: ExperimentConfig,
}

impl Experiment {
    /// Build the topology (with phantom queues sized to the network's BDPs
    /// when the scheme uses them) and the simulator.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let mut topo_params = cfg.topo.clone();
        if cfg.scheme.phantom_queues && topo_params.phantom.is_none() {
            topo_params.phantom = Some(PhantomParams::for_topology(&topo_params));
        } else if !cfg.scheme.phantom_queues {
            topo_params.phantom = None;
        }
        let topo = Topology::build(topo_params);
        let mut sim = Simulator::new(topo, cfg.seed);
        if let Some(sample_cfg) = cfg.telemetry {
            sim.enable_telemetry(sample_cfg);
        }
        if cfg.profile {
            sim.profiler.set_enabled(true);
        }
        if cfg.record_progress {
            sim.record_progress();
        }
        Experiment { sim, cfg }
    }

    /// The scheme under test.
    pub fn scheme(&self) -> &SchemeSpec {
        &self.cfg.scheme
    }

    /// Register one workload flow; returns its id.
    pub fn add_spec(&mut self, spec: &FlowSpec) -> FlowId {
        let kind = self.cfg.scheme.cc;
        self.add_spec_with(spec, |cc_cfg, inter| -> Box<dyn CcAlgorithm> {
            match kind {
                CcKind::UnoCc => Box::new(UnoCc::new(cc_cfg)),
                CcKind::Gemini => Box::new(Gemini::new(cc_cfg, inter)),
                CcKind::MprdmaBbr if inter => Box::new(Bbr::new(cc_cfg)),
                CcKind::MprdmaBbr => Box::new(Mprdma::new(cc_cfg)),
            }
        })
    }

    /// Register one workload flow wired as [`Experiment::add_spec`] wires
    /// it, except that `make_cc` builds its congestion controller from the
    /// flow's [`CcConfig::for_class`] and whether the flow crosses
    /// datacenters. Ablations use it to run a hand-tuned controller under
    /// the scheme's load balancing, erasure coding and timers.
    pub fn add_spec_with(
        &mut self,
        spec: &FlowSpec,
        make_cc: impl FnOnce(CcConfig, bool) -> Box<dyn CcAlgorithm>,
    ) -> FlowId {
        let topo = &self.sim.topo;
        let src = topo.host(spec.src_dc, spec.src_idx);
        let dst = topo.host(spec.dst_dc, spec.dst_idx);
        let class = topo.flow_class(src, dst);
        let inter = class == FlowClass::Inter;

        let cc = make_cc(CcConfig::for_class(&topo.params, class), inter);
        let mut fc = FlowConfig::for_path(topo, src, dst, spec.size);
        fc.ec = self.cfg.scheme.ec_for(inter);
        fc.lb = self.cfg.scheme.lb_for(inter);
        fc.faults = self.cfg.faults;
        if self.cfg.degrade {
            fc = fc.with_degradation(STALL_RTOS, MAX_RTO_RETRIES);
        }

        let flow = MessageFlow::new(fc, cc);
        let meta = FlowMeta {
            src,
            dst,
            size: spec.size,
            start: spec.start,
        };
        self.sim.add_flow(meta, Box::new(flow))
    }

    /// Register many workload flows.
    pub fn add_specs(&mut self, specs: &[FlowSpec]) -> Vec<FlowId> {
        specs.iter().map(|s| self.add_spec(s)).collect()
    }

    /// Run to completion (or `horizon`) and collect results.
    pub fn run(mut self, horizon: Time) -> ExperimentResults {
        // The engine counts failed flows as terminated (the run stops
        // waiting on them); `all_completed` means genuinely all-successful.
        let terminated = self.sim.run_to_completion(horizon);
        let all_completed = terminated && self.sim.failures.is_empty();
        self.collect(all_completed)
    }

    fn collect(self, all_completed: bool) -> ExperimentResults {
        let Experiment { mut sim, cfg } = self;
        let manifest = RunManifest {
            name: cfg.scheme.name.to_string(),
            scheme: cfg.scheme.name.to_string(),
            seed: cfg.seed,
            topo: sim.topo.params.serialize_value(),
            sim_time_ns: sim.now(),
            wall_seconds: sim.wall_seconds(),
            events_processed: sim.events_processed,
            events_per_sec: sim.events_per_sec(),
            flows: sim.num_flows() as u64,
            completed: sim.fcts.len() as u64,
            counters: sim.counter_snapshot(),
        };
        // The simulator is consumed here, so this is the last point where a
        // trace write error can reach the caller.
        let trace_error = sim.tracer.flush().err().map(|e| e.to_string());
        ExperimentResults {
            trace_error,
            manifest,
            telemetry: sim.telemetry.take(),
            profile: sim
                .profiler
                .is_enabled()
                .then(|| sim.profiler.report().to_value()),
            scheme: cfg.scheme.name.to_string(),
            censored: sim.censored_fcts(),
            failures: sim.failures.clone(),
            all_completed,
            sim_time: sim.now(),
            flows: sim.num_flows(),
            progress: sim
                .progress
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.is_empty())
                .map(|(i, p)| (i as u32, p.clone()))
                .collect(),
            samplers: sim
                .samplers
                .iter()
                .map(|s: &QueueSampler| SamplerSeries {
                    link: sim.link_stats(s.link),
                    samples: s.samples.clone(),
                    phantom: s.phantom_samples.clone(),
                })
                .collect(),
            fcts: sim.fcts,
        }
    }
}

/// Ideal (unloaded) FCT of a flow: one base RTT plus serialization at the
/// path's bottleneck rate. Used for slowdown metrics (Fig. 11).
pub fn ideal_fct(size: u64, base_rtt: Time, bottleneck_bps: u64) -> Time {
    base_rtt + uno_sim::time::serialization_time(size, bottleneck_bps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno_sim::{MILLIS, SECONDS};

    fn quick(scheme: SchemeSpec, seed: u64) -> Experiment {
        Experiment::new(ExperimentConfig::quick(scheme, seed))
    }

    fn spec(src_dc: u8, src: u32, dst_dc: u8, dst: u32, size: u64) -> FlowSpec {
        FlowSpec {
            src_dc,
            src_idx: src,
            dst_dc,
            dst_idx: dst,
            size,
            start: 0,
        }
    }

    #[test]
    fn uno_run_completes_mixed_flows() {
        let mut e = quick(SchemeSpec::uno(), 1);
        e.add_specs(&[
            spec(0, 0, 0, 9, 1 << 20),
            spec(0, 1, 1, 2, 1 << 20),
            spec(1, 3, 0, 4, 512 << 10),
        ]);
        let r = e.run(SECONDS);
        assert!(r.all_completed);
        assert_eq!(r.fcts.len(), 3);
        assert_eq!(r.scheme, "Uno");
        let inter = r
            .fcts
            .iter()
            .filter(|f| f.class == FlowClass::Inter)
            .count();
        assert_eq!(inter, 2);
    }

    #[test]
    fn phantom_only_for_schemes_that_want_it() {
        let e = quick(SchemeSpec::uno(), 1);
        assert!(e.sim.topo.params.phantom.is_some());
        let e = quick(SchemeSpec::gemini(), 1);
        assert!(e.sim.topo.params.phantom.is_none());
    }

    #[test]
    fn all_baselines_complete_the_same_workload() {
        for scheme in [
            SchemeSpec::uno(),
            SchemeSpec::uno_ecmp(),
            SchemeSpec::gemini(),
            SchemeSpec::mprdma_bbr(),
        ] {
            let name = scheme.name;
            let mut e = quick(scheme, 7);
            e.add_specs(&[spec(0, 0, 1, 1, 2 << 20), spec(0, 2, 0, 3, 2 << 20)]);
            let r = e.run(5 * SECONDS);
            assert!(r.all_completed, "{name} did not complete");
        }
    }

    #[test]
    fn supplying_the_schemes_own_controller_reproduces_add_spec() {
        let specs = [
            spec(0, 0, 1, 5, 1 << 20),
            spec(0, 2, 0, 3, 512 << 10),
            spec(1, 4, 0, 3, 256 << 10),
        ];
        for scheme in [
            SchemeSpec::uno(),
            SchemeSpec::uno_ecmp(),
            SchemeSpec::gemini(),
            SchemeSpec::mprdma_bbr(),
        ] {
            let kind = scheme.cc;
            let own_cc = |cfg, inter| -> Box<dyn CcAlgorithm> {
                match (kind, inter) {
                    (CcKind::UnoCc, _) => Box::new(UnoCc::new(cfg)),
                    (CcKind::Gemini, _) => Box::new(Gemini::new(cfg, inter)),
                    (CcKind::MprdmaBbr, true) => Box::new(Bbr::new(cfg)),
                    (CcKind::MprdmaBbr, false) => Box::new(Mprdma::new(cfg)),
                }
            };
            // FCT records (as JSON) and the counter snapshot of one run.
            let run = |through_seam: bool| {
                let mut e = quick(scheme.clone(), 13);
                for s in &specs {
                    if through_seam {
                        e.add_spec_with(s, own_cc);
                    } else {
                        e.add_spec(s);
                    }
                }
                let r = e.run(5 * SECONDS);
                assert!(r.all_completed, "{}", scheme.name);
                (serde_json::to_string(&r.fcts).unwrap(), r.manifest.counters)
            };
            assert_eq!(run(true), run(false), "{}", scheme.name);
        }
    }

    #[test]
    fn progress_recording_toggles() {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), 3);
        cfg.record_progress = true;
        let mut e = Experiment::new(cfg);
        e.add_specs(&[spec(0, 0, 0, 5, 256 << 10)]);
        let r = e.run(SECONDS);
        assert_eq!(r.progress.len(), 1);
        assert!(!r.progress[0].1.is_empty());
    }

    #[test]
    fn ideal_fct_math() {
        // 1 MiB at 100 Gbps = 83.9 us, plus 2 ms RTT.
        let t = ideal_fct(1 << 20, 2 * MILLIS, 100 * uno_sim::GBPS);
        assert!(t > 2 * MILLIS && t < 2 * MILLIS + 100_000);
    }

    #[test]
    fn faulted_run_terminates_with_definite_outcomes() {
        use uno_sim::{FaultEntry, FaultKind, FaultSpec, FaultTarget, FlowOutcome};
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), 21);
        cfg.degrade = true;
        let mut e = Experiment::new(cfg);
        // Permanently blackhole the reverse border direction: inter-DC data
        // arrives but its ACKs never return (an asymmetric gray failure).
        let n = e.sim.topo.border_reverse.len();
        e.sim
            .install_faults(&FaultSpec {
                faults: (0..n)
                    .map(|idx| FaultEntry {
                        target: FaultTarget::BorderReverse { idx },
                        kind: FaultKind::Down,
                        at: 0,
                        until: None,
                    })
                    .collect(),
            })
            .unwrap();
        e.add_specs(&[spec(0, 0, 1, 1, 1 << 20), spec(0, 2, 0, 3, 256 << 10)]);
        let r = e.run(30 * SECONDS);
        // The intra flow completes; the inter flow terminates with a
        // definite failure outcome instead of running to the horizon.
        assert!(!r.all_completed);
        assert_eq!(r.fcts.len(), 1);
        assert_eq!(r.failures.len(), 1);
        assert_ne!(r.failures[0].outcome, FlowOutcome::Completed);
        assert!(r.censored.is_empty(), "no censored flows under degradation");
        assert!(r.sim_time < 30 * SECONDS, "gave up early, not at horizon");
    }

    #[test]
    fn trace_write_errors_reach_the_results() {
        use std::io;
        use uno_sim::{TraceConfig, Tracer};

        /// A trace writer whose every `write` fails.
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let run = |out: Box<dyn io::Write + Send>| {
            let mut e = quick(SchemeSpec::uno(), 5);
            e.sim
                .set_tracer(Tracer::jsonl_writer(out, TraceConfig::all()));
            e.add_specs(&[spec(0, 0, 0, 5, 256 << 10)]);
            e.run(SECONDS)
        };
        let r = run(Box::new(Broken));
        assert!(r.all_completed, "a failing trace must not disturb the run");
        assert_eq!(r.trace_error.as_deref(), Some("disk on fire"));
        assert_eq!(run(Box::new(io::sink())).trace_error, None);
    }

    #[test]
    fn deterministic_runs() {
        let run = |seed| {
            let mut e = quick(SchemeSpec::uno(), seed);
            e.add_specs(&[spec(0, 0, 1, 5, 1 << 20)]);
            e.run(SECONDS).fcts[0].fct()
        };
        assert_eq!(run(9), run(9));
        // (Different seeds may legitimately coincide on a quiet network, so
        // only bit-identical reproducibility is asserted.)
    }
}
