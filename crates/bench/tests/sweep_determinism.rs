//! Parallel sweeps must be bit-for-bit deterministic.
//!
//! Runs a scaled-down Figure 8 slice (scheme x incast-scenario cells) through
//! [`SweepRunner`] at `--jobs 1` and `--jobs 8` and asserts the per-cell FCT
//! summaries and counter snapshots are byte-identical, and does the same for
//! cells built the way the other figure binaries build theirs: a queue
//! sampler, a fault-plane border fault under border loss, and a controller
//! supplied through [`Experiment::add_spec_with`], and compares the JSONL
//! traces of traced cells byte for byte. Wall-clock fields
//! (`wall_seconds`, `events_per_sec`) legitimately differ between runs and
//! are zeroed before comparison; everything simulated must match exactly.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use uno::metrics::FctTable;

use uno::sim::{
    FaultSpec, GilbertElliott, RunManifest, SampleConfig, TopologyParams, TraceConfig, Tracer,
    MICROS, SECONDS,
};
use uno::transport::UnoCc;
use uno::{Experiment, ExperimentConfig, ExperimentResults, SchemeSpec};
use uno_bench::{run_cell, SweepRunner};
use uno_transport::LbMode;
use uno_workloads::incast;

/// The JSON of a run's manifest with its wall-clock fields zeroed.
fn simulated(mut manifest: RunManifest) -> String {
    manifest.wall_seconds = 0.0;
    manifest.events_per_sec = 0.0;
    manifest.to_json()
}

/// One sweep cell: (scenario label, intra senders, inter senders, scheme).
fn cells() -> Vec<(&'static str, usize, usize, SchemeSpec)> {
    let scenarios = [("4 intra", 4usize, 0usize), ("2 intra + 2 inter", 2, 2)];
    let mut v = Vec::new();
    for (label, n_intra, n_inter) in scenarios {
        for scheme in [
            SchemeSpec::uno().with_lb(LbMode::Spray),
            SchemeSpec::gemini().with_lb(LbMode::Spray),
        ] {
            v.push((label, n_intra, n_inter, scheme));
        }
    }
    v
}

/// Run the slice at the given job count, returning one canonical JSON string
/// per cell (in cell order) covering the FCT summary and the full counter
/// snapshot, with wall-clock fields zeroed.
fn run_slice(jobs: usize) -> Vec<String> {
    let topo = TopologyParams::small();
    let size = 1u64 << 20; // small flows: the test must stay fast in debug
    let hosts = topo.hosts_per_dc() as u32;
    let runner = SweepRunner::new(jobs);
    runner.run(cells(), |_, (label, n_intra, n_inter, scheme)| {
        let mut exp = uno_bench::experiment(uno_bench::config(&scheme, 1, &topo));
        exp.add_specs(&incast(n_intra, n_inter, size, hosts));
        let r = run_cell(exp, 60 * SECONDS, label);
        let summary = FctTable::new(r.fcts).summary();
        format!(
            "{label}|{scheme}|mean={:.9}|p99={:.9}|max={:.9}|manifest={}",
            summary.mean_s,
            summary.p99_s,
            summary.max_s,
            simulated(r.manifest),
            scheme = r.scheme,
        )
    })
}

#[test]
fn jobs8_matches_jobs1_byte_for_byte() {
    let serial = run_slice(1);
    let parallel = run_slice(8);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "cell {i} diverged between --jobs 1 and --jobs 8");
    }
}

/// The same byte-identity contract at scale: a k=16 (1024 hosts/DC)
/// incast run per seed, compared between `--jobs 1` and `--jobs 8`. The
/// struct-of-arrays tables make per-link iteration id-ordered by
/// construction; this case would catch any scheduler- or map-order
/// dependence that only manifests on large fabrics.
#[test]
fn k16_cells_match_across_job_counts() {
    let run_k16 = |jobs: usize| -> Vec<String> {
        let topo = TopologyParams::k16();
        let hosts = topo.hosts_per_dc() as u32;
        let runner = SweepRunner::new(jobs);
        runner.run(vec![1u64, 2], |_, seed| {
            let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), seed);
            cfg.topo = topo.clone();
            cfg.telemetry = Some(SampleConfig::every(50 * MICROS));
            let mut exp = Experiment::new(cfg);
            exp.add_specs(&incast(6, 2, 256 << 10, hosts));
            let r = exp.run(60 * SECONDS);
            let mut manifest = r.manifest;
            manifest.wall_seconds = 0.0;
            manifest.events_per_sec = 0.0;
            format!(
                "{}|{}",
                manifest.to_json(),
                serde_json::to_string(&r.telemetry.expect("telemetry was enabled")).unwrap()
            )
        })
    };
    let serial = run_k16(1);
    let parallel = run_k16(8);
    assert_eq!(serial, parallel, "k=16 cells diverged across job counts");
}

/// Run per-seed cells with the telemetry sampler enabled, returning the
/// serialized `telemetry` section of each run.
fn run_telemetry_slice(jobs: usize) -> Vec<String> {
    let topo = TopologyParams::small();
    let hosts = topo.hosts_per_dc() as u32;
    let runner = SweepRunner::new(jobs);
    runner.run(vec![1u64, 2, 3], |_, seed| {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), seed);
        cfg.topo = topo.clone();
        cfg.telemetry = Some(SampleConfig::every(20 * MICROS));
        let mut exp = Experiment::new(cfg);
        exp.add_specs(&incast(3, 1, 1 << 20, hosts));
        let r = exp.run(60 * SECONDS);
        serde_json::to_string(&r.telemetry.expect("telemetry was enabled")).unwrap()
    })
}

/// Satellite: the telemetry sampler rides the event queue, so its series
/// are simulated state and must be byte-identical for a given seed no
/// matter how many sweep workers ran the cell.
#[test]
fn telemetry_series_are_byte_identical_across_job_counts() {
    let serial = run_telemetry_slice(1);
    let parallel = run_telemetry_slice(8);
    assert_eq!(serial, parallel);
    // The series must be non-trivial for the comparison to mean anything.
    for s in &serial {
        assert!(
            s.contains("\"links\""),
            "telemetry missing link series: {s}"
        );
        assert!(s.contains("\"cwnd\""), "telemetry missing flow series: {s}");
    }
}

/// How a cell of [`run_built_cells`] is built, after the figure binaries
/// that build theirs that way.
#[derive(Clone, Copy, Debug)]
enum Build {
    /// A queue sampler on the incast receiver's downlink (fig04, ablation
    /// `pq`).
    Sampler,
    /// A fault-plane gray failure of one border link plus Gilbert–Elliott
    /// loss on every border link (fig13a/c).
    BorderFaultAndLoss,
    /// A hand-tuned UnoCC supplied through `add_spec_with`, with progress
    /// recorded (ablations `epoch` and `qa`).
    SuppliedController,
}

/// Run each [`Build`] at seeds 1 and 2 through `run_cell`, returning one
/// string per cell with every simulated output of the run: FCTs, failures,
/// progress and sampler series, and the manifest.
fn run_built_cells(jobs: usize) -> Vec<String> {
    let builds = [
        Build::Sampler,
        Build::BorderFaultAndLoss,
        Build::SuppliedController,
    ];
    let cells = builds
        .iter()
        .flat_map(|&b| [1u64, 2].map(|seed| (b, seed)))
        .collect();
    SweepRunner::new(jobs).run(cells, |_, (build, seed)| {
        let mut cfg = ExperimentConfig::quick(SchemeSpec::uno(), seed);
        cfg.degrade = true;
        cfg.record_progress = matches!(build, Build::SuppliedController);
        let mut exp = uno_bench::experiment(cfg);
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        let specs = incast(2, 2, 512 << 10, hosts);
        match build {
            Build::Sampler => {
                exp.add_specs(&specs);
                let downlink = exp.sim.topo.host_downlink(exp.sim.topo.host(0, 0));
                exp.sim.add_queue_sampler(downlink, 10 * MICROS, 0);
            }
            Build::BorderFaultAndLoss => {
                exp.add_specs(&specs);
                let idx = seed as usize % exp.sim.topo.border_forward.len();
                exp.sim
                    .install_faults(&FaultSpec {
                        faults: vec![uno_bench::gray_border(idx)],
                    })
                    .expect("valid fault spec");
                exp.sim
                    .set_border_loss(GilbertElliott::new(2e-3, 0.4, 0.0, 0.5));
            }
            Build::SuppliedController => {
                for s in &specs {
                    exp.add_spec_with(s, |mut cc, _| {
                        cc.intra_rtt = cc.base_rtt;
                        let mut uno = UnoCc::new(cc);
                        uno.qa_enabled = false;
                        Box::new(uno)
                    });
                }
            }
        }
        let r: ExperimentResults = run_cell(exp, 60 * SECONDS, &format!("{build:?}"));
        // Each build must leave its mark, or the comparison shows nothing.
        let counters = &r.manifest.counters;
        match build {
            Build::Sampler => assert!(r.samplers[0].samples.iter().any(|&(_, b)| b > 0)),
            Build::BorderFaultAndLoss => {
                assert!(counters.get("link.losses") > 0);
                assert!(counters.get("fault.transitions") > 0);
            }
            Build::SuppliedController => assert_eq!(r.progress.len(), specs.len()),
        }
        format!(
            "{build:?}|{seed}|fcts={}|failures={}|progress={}|samplers={}|manifest={}",
            serde_json::to_string(&r.fcts).unwrap(),
            serde_json::to_string(&r.failures).unwrap(),
            serde_json::to_string(&r.progress).unwrap(),
            serde_json::to_string(&r.samplers).unwrap(),
            simulated(r.manifest),
        )
    })
}

#[test]
fn built_cells_match_across_job_counts() {
    let serial = run_built_cells(1);
    let parallel = run_built_cells(8);
    assert_eq!(serial.len(), 6);
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a, b, "cell {i} diverged between --jobs 1 and --jobs 8");
    }
}

/// A trace writer whose bytes stay readable after the tracer is gone.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Run an unfiltered JSONL-traced incast per seed through `run_cell`,
/// returning each cell's trace bytes.
fn run_traced_cells(jobs: usize) -> Vec<Vec<u8>> {
    SweepRunner::new(jobs).run(vec![1u64, 2, 3], |_, seed| {
        let mut exp = Experiment::new(ExperimentConfig::quick(SchemeSpec::uno(), seed));
        let hosts = exp.sim.topo.params.hosts_per_dc() as u32;
        exp.add_specs(&incast(2, 2, 1 << 20, hosts));
        let trace = SharedBuf::default();
        exp.sim.set_tracer(Tracer::jsonl_writer(
            Box::new(trace.clone()),
            TraceConfig::all(),
        ));
        let r = run_cell(exp, 60 * SECONDS, "traced");
        assert!(r.all_completed);
        assert_eq!(r.trace_error, None);
        trace.take()
    })
}

/// Each traced cell's writer thread runs beside every other cell's, yet
/// the bytes it writes must not depend on the job count.
#[test]
fn traced_cells_write_the_same_bytes_across_job_counts() {
    let serial = run_traced_cells(1);
    let parallel = run_traced_cells(2);
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        let lines = a.iter().filter(|&&c| c == b'\n').count();
        assert!(lines > 3 * 4096, "cell {i}: {lines} lines span few batches");
        assert!(
            a == b,
            "cell {i}'s trace differs between --jobs 1 and --jobs 2"
        );
    }
}
