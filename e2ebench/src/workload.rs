//! The benchmark's workloads and the single code path that runs one cell
//! of them: generate the flows, build the experiment, run it, check and
//! digest the simulated result, summarize the FCTs. Every step goes through
//! the simulator's public API and is timed from outside.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Value;
use uno::metrics::{FctSummary, FctTable};
use uno::sim::time::serialization_time;
use uno::sim::{
    Counters, FabricMode, FctRecord, FlowClass, ProfileReport, SampleConfig, Time, TopologyParams,
    TraceConfig, Tracer, MICROS, MILLIS, SECONDS,
};
use uno::workloads::{incast, permutation, poisson_mix, Cdf, FlowSpec, PoissonMixParams};
use uno::{Experiment, ExperimentConfig, ExperimentResults, SchemeSpec};

use crate::stats::Fnv;

/// Simulated horizon of every cell. Every flow of every workload finishes
/// long before it; one that does not fails the completion check.
const HORIZON: Time = 60 * SECONDS;
/// Telemetry sampling period of the observed incast.
const TELEMETRY_INTERVAL: Time = 10 * MICROS;
/// Length of one `run_until` call in the traced run's sliced pass.
const SLICE: Time = MILLIS;

/// One of the benchmark's workloads: a fixed list of cells, each the
/// equivalent of one `uno-scenario` run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IncastFig8,
    WebsearchMix,
    MultidcLossless,
    IncastObserved,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IncastFig8,
        Workload::WebsearchMix,
        Workload::MultidcLossless,
        Workload::IncastObserved,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IncastFig8 => "incast_fig8",
            Workload::WebsearchMix => "websearch_mix",
            Workload::MultidcLossless => "multidc_lossless",
            Workload::IncastObserved => "incast_observed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells one rep runs, in order. `seed` drives both the workload
    /// generator and the simulator, as in `uno-scenario`; `scale` divides
    /// every flow size and the arrival window (1 is the benchmark's size).
    pub fn cells(self, seed: u64, scale: u64) -> Vec<Cell> {
        let incast_cell = |name, scheme| Cell {
            name,
            scheme,
            topo: scenario_topo(4, 2, false),
            traffic: Traffic::Incast {
                size: (128 << 20) / scale,
            },
            seed,
            observers: Observers::default(),
        };
        match self {
            Workload::IncastFig8 => vec![
                incast_cell("uno", SchemeSpec::uno()),
                incast_cell("gemini", SchemeSpec::gemini()),
                incast_cell("mprdma_bbr", SchemeSpec::mprdma_bbr()),
            ],
            Workload::WebsearchMix => vec![Cell {
                name: "uno",
                scheme: SchemeSpec::uno(),
                topo: scenario_topo(4, 2, false),
                traffic: Traffic::PoissonMix {
                    budget: (3 << 30) / scale,
                    window: 40 * MILLIS / scale,
                },
                seed,
                observers: Observers::default(),
            }],
            Workload::MultidcLossless => vec![Cell {
                name: "uno",
                scheme: SchemeSpec::uno(),
                topo: scenario_topo(16, 4, true),
                traffic: Traffic::Permutation {
                    size: (256 << 10) / scale,
                },
                seed,
                observers: Observers::default(),
            }],
            Workload::IncastObserved => vec![Cell {
                observers: Observers {
                    jsonl: true,
                    telemetry: true,
                },
                ..incast_cell("uno", SchemeSpec::uno())
            }],
        }
    }
}

/// The topology `uno-scenario` builds from its `k`, `dcs` and `lossless`
/// fields.
fn scenario_topo(k: usize, dcs: usize, lossless: bool) -> TopologyParams {
    let mut topo = TopologyParams {
        k,
        dcs,
        border_links: k,
        ..TopologyParams::default()
    };
    if lossless {
        topo.fabric = FabricMode::Lossless;
    }
    topo
}

#[derive(Clone, Copy, Debug)]
enum Traffic {
    /// 4 intra + 4 inter senders into DC0 host 0.
    Incast { size: u64 },
    /// Web-search intra / Alibaba-WAN inter Poisson arrivals at load 0.6,
    /// one flow in five inter-DC, cut off once `budget` bytes have been
    /// offered. A fixed byte budget instead of a fixed arrival window keeps
    /// the simulated work nearly equal across seeds: over a 20 ms window
    /// the heavy-tailed sizes make it vary by ±35%. `window` only bounds
    /// generation and holds about three budgets on average.
    PoissonMix { budget: u64, window: Time },
    /// Every host sends `size` bytes to a distinct random host.
    Permutation { size: u64 },
}

impl Traffic {
    fn generate(self, topo: &TopologyParams, seed: u64) -> Vec<FlowSpec> {
        let hosts = topo.hosts_per_dc() as u32;
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Traffic::Incast { size } => incast(4, 4, size, hosts),
            Traffic::PoissonMix { budget, window } => {
                let mut flows = poisson_mix(
                    &PoissonMixParams {
                        hosts_per_dc: hosts,
                        dcs: topo.dcs as u8,
                        host_bps: topo.link_bps,
                        load: 0.6,
                        inter_fraction: 0.2,
                        duration: window,
                    },
                    &Cdf::websearch(),
                    &Cdf::alibaba_wan(),
                    &mut rng,
                );
                let mut offered = 0;
                let keep = flows
                    .iter()
                    .take_while(|f| {
                        let before = offered;
                        offered += f.size;
                        before < budget
                    })
                    .count();
                flows.truncate(keep);
                flows
            }
            Traffic::Permutation { size } => permutation(hosts, topo.dcs as u8, size, &mut rng),
        }
    }
}

/// Observers attached to a cell's simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Observers {
    /// Default-filter JSONL tracer writing into a byte-counting sink.
    pub jsonl: bool,
    /// Telemetry sampled every [`TELEMETRY_INTERVAL`].
    pub telemetry: bool,
}

/// Engine options the traced run varies. None of them may change the
/// simulated result within one engine universe: the serial engine with and
/// without the profiler and slicing, and LP(N) for every N ≥ 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct Variant {
    pub profile: bool,
    pub lp_jobs: usize,
    /// Run in [`SLICE`]-long `run_until` calls instead of one
    /// `Experiment::run`, recording events/s per slice.
    pub sliced: bool,
}

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    pub name: &'static str,
    scheme: SchemeSpec,
    topo: TopologyParams,
    traffic: Traffic,
    seed: u64,
    pub observers: Observers,
}

/// A built experiment, ready to run.
pub struct Setup {
    exp: Experiment,
    sink: Option<SinkCounts>,
    gen_s: f64,
    new_s: f64,
    add_specs_s: f64,
    flows: usize,
    bytes: u64,
    packets: u64,
    links: usize,
    hosts: usize,
}

impl Setup {
    /// Generator + `Experiment::new` + `add_specs`, in seconds.
    pub fn secs(&self) -> f64 {
        self.gen_s + self.new_s + self.add_specs_s
    }
}

/// Everything one cell execution measured and checked.
#[derive(Clone, Debug)]
pub struct CellRun {
    pub cell: &'static str,
    pub gen_s: f64,
    pub new_s: f64,
    pub add_specs_s: f64,
    pub run_s: f64,
    /// Process CPU time spent inside the run call (jiffy resolution).
    pub run_cpu_s: f64,
    pub summarize_s: f64,
    pub flows: usize,
    pub bytes: u64,
    /// Σ⌈size / MTU⌉: data packets the flows need without loss.
    pub packets: u64,
    pub links: usize,
    pub hosts: usize,
    pub counters: Counters,
    /// Digest of the simulated result; see [`digest`].
    pub digest: u64,
    /// Failed correctness checks; empty when the cell passed.
    pub problems: Vec<String>,
    pub fct: FctSummary,
    pub profile: Option<ProfileReport>,
    pub trace_bytes: u64,
    pub trace_lines: u64,
    /// Events per wall second of each `run_until` slice (sliced pass only).
    pub slice_rates: Vec<f64>,
}

impl CellRun {
    /// Host time a user pays for the cell: set-up, run and FCT summary.
    pub fn wall_s(&self) -> f64 {
        self.gen_s + self.new_s + self.add_specs_s + self.run_s + self.summarize_s
    }

    pub fn events(&self) -> u64 {
        self.counters.get("engine.events_processed")
    }
}

/// The simulated outcome of a run, taken either from
/// [`ExperimentResults`] or straight from the simulator after slicing.
struct Finished {
    fcts: Vec<FctRecord>,
    flows: usize,
    failures: usize,
    censored: usize,
    counters: Counters,
    sim_time: Time,
    profile: Option<ProfileReport>,
}

impl From<ExperimentResults> for Finished {
    fn from(r: ExperimentResults) -> Self {
        Finished {
            flows: r.flows,
            failures: r.failures.len(),
            censored: r.censored.len(),
            counters: r.manifest.counters,
            sim_time: r.sim_time,
            profile: r.profile.as_ref().and_then(ProfileReport::from_value),
            fcts: r.fcts,
        }
    }
}

impl Cell {
    /// This cell with `observers` attached instead of its own.
    pub fn with_observers(&self, observers: Observers) -> Cell {
        Cell {
            observers,
            ..self.clone()
        }
    }

    /// Generate the flows and build the experiment.
    pub fn setup(&self, variant: Variant, spans: &mut Spans) -> Setup {
        let t = spans.enter("workloads.generate");
        let specs = self.traffic.generate(&self.topo, self.seed);
        let gen_s = spans.exit(t);

        let mut cfg = ExperimentConfig::quick(self.scheme.clone(), self.seed);
        cfg.topo = self.topo.clone();
        cfg.profile = variant.profile;
        cfg.lp_jobs = variant.lp_jobs;
        if self.observers.telemetry {
            cfg.telemetry = Some(SampleConfig::every(TELEMETRY_INTERVAL));
        }
        let t = spans.enter("experiment.new");
        let mut exp = Experiment::new(cfg);
        let new_s = spans.exit(t);

        let sink = self.observers.jsonl.then(|| {
            let counts = SinkCounts::default();
            exp.sim.set_tracer(Tracer::jsonl_writer(
                Box::new(CountingSink(counts.clone())),
                TraceConfig::all(),
            ));
            counts
        });
        let t = spans.enter("experiment.add_specs");
        exp.add_specs(&specs);
        let add_specs_s = spans.exit(t);

        Setup {
            flows: specs.len(),
            bytes: specs.iter().map(|s| s.size).sum(),
            packets: specs
                .iter()
                .map(|s| s.size.div_ceil(self.topo.mtu as u64))
                .sum(),
            links: exp.sim.topo.links.len(),
            hosts: exp.sim.topo.num_hosts(),
            exp,
            sink,
            gen_s,
            new_s,
            add_specs_s,
        }
    }

    /// Run a built experiment to completion, check and digest the result,
    /// and summarize its FCTs.
    pub fn run(&self, setup: Setup, variant: Variant, spans: &mut Spans) -> CellRun {
        let Setup {
            exp,
            sink,
            gen_s,
            new_s,
            add_specs_s,
            flows,
            bytes,
            packets,
            links,
            hosts,
        } = setup;
        let cpu_before = uno_perfkit::cpu_time_nanos();
        let t = spans.enter("experiment.run");
        let mut slice_rates = Vec::new();
        let fin = if variant.sliced {
            run_sliced(exp, spans, &mut slice_rates)
        } else {
            Finished::from(exp.run(HORIZON))
        };
        let run_s = spans.exit(t);
        let run_cpu_s = match (cpu_before, uno_perfkit::cpu_time_nanos()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
            _ => run_s,
        };

        let problems = check(&fin, self.topo.link_bps);
        let digest = digest(&fin.fcts, &fin.counters, fin.sim_time);

        let t = spans.enter("metrics.summarize");
        let table = FctTable::new(fin.fcts);
        let fct = table.summary();
        std::hint::black_box((
            table.summary_class(FlowClass::Intra),
            table.summary_class(FlowClass::Inter),
        ));
        let summarize_s = spans.exit(t);

        let (trace_bytes, trace_lines) = sink.map_or((0, 0), |s| s.get());
        CellRun {
            cell: self.name,
            gen_s,
            new_s,
            add_specs_s,
            run_s,
            run_cpu_s,
            summarize_s,
            flows,
            bytes,
            packets,
            links,
            hosts,
            counters: fin.counters,
            digest,
            problems,
            fct,
            profile: fin.profile,
            trace_bytes,
            trace_lines,
            slice_rates,
        }
    }

    pub fn execute(&self, variant: Variant, spans: &mut Spans) -> CellRun {
        let setup = self.setup(variant, spans);
        self.run(setup, variant, spans)
    }
}

/// Run in [`SLICE`]-long `run_until` calls until every flow terminates or
/// the horizon passes — the same stopping rule as `Experiment::run`.
fn run_sliced(mut exp: Experiment, spans: &mut Spans, rates: &mut Vec<f64>) -> Finished {
    let sim = &mut exp.sim;
    let mut end = 0;
    while sim.num_terminated() < sim.num_flows() && end < HORIZON {
        end = (end + SLICE).min(HORIZON);
        let before = sim.events_processed;
        let t = spans.enter("sim.run_until");
        sim.run_until(end);
        let secs = spans.exit(t);
        rates.push((sim.events_processed - before) as f64 / secs.max(1e-9));
    }
    let t = spans.enter("sim.counter_snapshot");
    let counters = sim.counter_snapshot();
    spans.exit(t);
    Finished {
        flows: sim.num_flows(),
        failures: sim.failures.len(),
        censored: sim.censored_fcts().len(),
        counters,
        sim_time: sim.now(),
        profile: sim.profiler.is_enabled().then(|| sim.profiler.report()),
        fcts: std::mem::take(&mut sim.fcts),
    }
}

/// The correctness checks every cell must pass.
fn check(fin: &Finished, host_bps: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if fin.fcts.len() != fin.flows || fin.failures > 0 || fin.censored > 0 {
        problems.push(format!(
            "{} of {} flows completed ({} failed, {} censored)",
            fin.fcts.len(),
            fin.flows,
            fin.failures,
            fin.censored
        ));
    }
    let too_fast = fin
        .fcts
        .iter()
        .filter(|r| r.fct() < serialization_time(r.size, host_bps))
        .count();
    if too_fast > 0 {
        problems.push(format!(
            "{too_fast} flows finished faster than serializing their bytes at the host link rate"
        ));
    }
    problems
}

/// FNV-1a digest of a simulated result: every FCT record in completion
/// order, every counter, and the final simulated time. Wall-clock fields
/// are left out, so equal digests mean equal simulated results.
pub fn digest(fcts: &[FctRecord], counters: &Counters, sim_time: Time) -> u64 {
    let mut h = Fnv::default();
    for r in fcts {
        let class = match r.class {
            FlowClass::Intra => 0,
            FlowClass::Inter => 1,
        };
        h.u64(r.flow.0 as u64)
            .u64(r.size)
            .u64(r.start)
            .u64(r.end)
            .u64(class);
    }
    for (name, value) in counters.iter() {
        h.bytes(name.as_bytes()).bytes(&[0]).u64(value);
    }
    h.u64(sim_time).finish()
}

/// Byte and line totals of a [`CountingSink`], readable after the tracer
/// that owns the sink has been consumed with its simulator.
#[derive(Clone, Default)]
struct SinkCounts(Arc<[AtomicU64; 2]>);

impl SinkCounts {
    fn get(&self) -> (u64, u64) {
        (
            self.0[0].load(Ordering::Relaxed),
            self.0[1].load(Ordering::Relaxed),
        )
    }
}

/// An `io::sink` that counts the bytes and lines written to it.
struct CountingSink(SinkCounts);

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        (self.0).0[0].fetch_add(buf.len() as u64, Ordering::Relaxed);
        (self.0).0[1].fetch_add(lines as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Benchmark-side spans around the public calls a cell makes. Durations
/// are always measured (they feed the metrics); spans are only kept when
/// recording is on, in the traced run.
pub struct Spans {
    record: bool,
    base: Instant,
    label: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

struct Span {
    name: &'static str,
    label: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An entered span; hand it back to [`Spans::exit`].
#[must_use]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            record: false,
            base: Instant::now(),
            label: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            record: true,
            ..Spans::off()
        }
    }

    /// Label for the spans entered from now on (cell and pass).
    pub fn label(&mut self, label: String) {
        self.label = label;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let idx = self.record.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                label: self.label.clone(),
                start_ns: (start - self.base).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(idx);
            idx
        });
        Open { start, idx }
    }

    /// Close `open`, returning its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end_ns = (end - self.base).as_nanos() as u64;
            self.open.retain(|&i| i != idx);
        }
        (end - open.start).as_secs_f64()
    }

    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("cell".into(), Value::Str(s.label.clone())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno::sim::FlowId;

    fn records() -> Vec<FctRecord> {
        (0..4u32)
            .map(|i| FctRecord {
                flow: FlowId(i),
                size: 1 << (10 + i),
                start: 1_000 * i as u64,
                end: 50_000 + 7_000 * i as u64,
                class: if i % 2 == 0 {
                    FlowClass::Intra
                } else {
                    FlowClass::Inter
                },
            })
            .collect()
    }

    fn counters() -> Counters {
        let mut c = Counters::new();
        c.set("engine.events_processed", 12_345);
        c.set("queue.drops", 3);
        c
    }

    #[test]
    fn digest_is_stable_on_a_fixed_record_list() {
        let d = digest(&records(), &counters(), 99_000);
        assert_eq!(d, digest(&records(), &counters(), 99_000));
        // Pins the digest format: changing it invalidates e2e_digests.json.
        assert_eq!(format!("{d:016x}"), "182b61b6c98366c9");
    }

    #[test]
    fn digest_sees_every_simulated_field() {
        let base = digest(&records(), &counters(), 99_000);
        let mut swapped = records();
        swapped.swap(0, 1);
        assert_ne!(digest(&swapped, &counters(), 99_000), base);
        let mut later = records();
        later[2].end += 1;
        assert_ne!(digest(&later, &counters(), 99_000), base);
        let mut c = counters();
        c.set("queue.drops", 4);
        assert_ne!(digest(&records(), &c, 99_000), base);
        assert_ne!(digest(&records(), &counters(), 99_001), base);
    }

    #[test]
    fn spans_nest_and_time() {
        let mut spans = Spans::on();
        spans.label("c".into());
        let outer = spans.enter("outer");
        let inner = spans.enter("inner");
        let inner_s = spans.exit(inner);
        let outer_s = spans.exit(outer);
        assert!(outer_s >= inner_s);
        let v = spans.to_value();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].get("parent"), Some(&Value::U64(0)));
        assert_eq!(arr[0].get("parent"), Some(&Value::Null));
        let mut off = Spans::off();
        let t = off.enter("x");
        assert!(off.exit(t) >= 0.0);
        assert!(off.to_value().as_array().unwrap().is_empty());
    }
}
