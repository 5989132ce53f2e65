//! # uno-bench — experiment harness for the Uno reproduction
//!
//! One binary per paper figure/table (`fig01` … `fig13c`, `table1`, plus
//! ablations). Each prints the same rows/series the paper reports, on a
//! quick (scaled-down) preset by default or the paper-scale configuration
//! with `--full`. Shared plumbing lives here.

#![warn(missing_docs)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uno::sim::{RunManifest, Time, TopologyParams, GBPS, SECONDS};
use uno::{Experiment, ExperimentConfig, SchemeSpec};
use uno_workloads::FlowSpec;

/// The across-run runner behind [`HarnessArgs::sweep`], re-exported because
/// the `e2ebench/` benchmark and the `sweep_determinism` test import it
/// from here.
pub use uno::SweepRunner;

/// Manifests of every experiment this binary has run, drained by
/// [`write_manifests`] at the end of `main`.
static MANIFESTS: Mutex<Vec<RunManifest>> = Mutex::new(Vec::new());

/// Whether `--progress` was passed: [`experiment`] then attaches a
/// once-per-second wall-clock heartbeat (sim time, events/sec, queued
/// bytes) to every engine it builds. Stderr-only; never affects simulated
/// state, so results stay byte-identical with and without it.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Record a run manifest for inclusion in this binary's manifest file.
/// [`run_experiment`] records automatically; binaries that drive
/// [`Experiment`] directly call this with `results.manifest`.
pub fn record_manifest(m: RunManifest) {
    MANIFESTS.lock().expect("manifest lock").push(m);
}

/// Drain every recorded manifest into `results/MANIFEST_<figure>.json`.
/// Parallel sweeps record manifests in completion order, so the sort key
/// covers enough simulated fields (name, scheme, seed, sim time, event
/// count) to make the file stable apart from wall-clock fields no matter
/// how the cells interleaved. Returns the path written.
pub fn write_manifests(figure: &str) -> PathBuf {
    let mut v = std::mem::take(&mut *MANIFESTS.lock().expect("manifest lock"));
    v.sort_by(|a, b| {
        let ka = (
            a.name.as_str(),
            a.scheme.as_str(),
            a.seed,
            a.sim_time_ns,
            a.events_processed,
        );
        let kb = (
            b.name.as_str(),
            b.scheme.as_str(),
            b.seed,
            b.sim_time_ns,
            b.events_processed,
        );
        ka.cmp(&kb)
    });
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let path = dir.join(format!("MANIFEST_{figure}.json"));
    let json = serde_json::to_string_pretty(&v).expect("manifest serialization");
    std::fs::write(&path, json + "\n").expect("write manifest file");
    eprintln!(
        "[{figure}] wrote {} run manifest(s) to {}",
        v.len(),
        path.display()
    );
    path
}

/// Common command-line options for the figure binaries.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Run at paper scale (k=8, full flow counts) instead of the quick preset.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Worker threads for independent experiment cells (`--jobs N`;
    /// 0 = one per available core).
    pub jobs: usize,
    /// Emit a periodic stderr heartbeat from every engine run
    /// (`--progress`).
    pub progress: bool,
}

impl HarnessArgs {
    /// Parse from `std::env::args` (flags: `--full`, `--quick`, `--seed N`,
    /// `--jobs N`, `--progress`).
    pub fn parse() -> Self {
        let (args, extra) = Self::parse_with_extra();
        if let Some(other) = extra.first() {
            panic!("unknown flag {other} (use --full/--quick/--seed N/--jobs N/--progress)");
        }
        args
    }

    /// Parse the shared flags, returning unrecognized arguments (in order)
    /// for the figure binary to interpret itself instead of panicking.
    pub fn parse_with_extra() -> (Self, Vec<String>) {
        let (args, extra) = Self::parse_from(std::env::args().skip(1));
        PROGRESS.store(args.progress, Ordering::Relaxed);
        (args, extra)
    }

    /// [`HarnessArgs::parse_with_extra`] over an explicit argument list.
    pub fn parse_from<I: Iterator<Item = String>>(args: I) -> (Self, Vec<String>) {
        let mut parsed = HarnessArgs {
            full: false,
            seed: 1,
            jobs: 0,
            progress: false,
        };
        let mut extra = Vec::new();
        let mut it = args;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => parsed.full = true,
                "--quick" => parsed.full = false,
                "--progress" => parsed.progress = true,
                "--seed" => {
                    parsed.seed = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                }
                "--jobs" => {
                    parsed.jobs = it
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--jobs needs an integer");
                }
                _ => extra.push(a),
            }
        }
        (parsed, extra)
    }

    /// Sweep runner honouring this invocation's `--jobs`.
    pub fn sweep(&self) -> SweepRunner {
        SweepRunner::new(self.jobs)
    }

    /// Topology for this run: the paper's k=8 dual fat-tree under `--full`,
    /// otherwise the k=4 quick preset (identical RTTs and buffer rules).
    pub fn topo(&self) -> TopologyParams {
        if self.full {
            TopologyParams::default()
        } else {
            TopologyParams::small()
        }
    }

    /// Flow-size divisor: quick runs shrink the paper's 1 GiB-class
    /// messages to keep each figure under a few minutes of wall clock.
    pub fn size_scale(&self) -> u64 {
        if self.full {
            1
        } else {
            8
        }
    }
}

/// Print the Table 2 parameter set (`fig10 --params`).
pub fn print_table2(topo: &TopologyParams) {
    println!("Table 2: parameter defaults");
    println!("  alpha (UnoCC AI factor)      = 0.001 x BDP");
    println!("  beta (UnoCC QA factor)       = 0.5");
    println!("  K (UnoCC MD constant)        = 1/7 x intra-DC BDP");
    println!(
        "  intra-DC RTT                 = {} us",
        topo.intra_rtt / 1_000
    );
    println!(
        "  inter-DC RTT                 = {} ms",
        topo.inter_rtt / 1_000_000
    );
    println!("  phantom queue drain rate     = 0.9 x line rate");
    println!(
        "  link bandwidth               = {} Gbps",
        topo.link_bps / GBPS
    );
    println!(
        "  switch buffer per port       = {} KiB",
        topo.queue_bytes >> 10
    );
    println!("  MTU                          = {} B", topo.mtu);
    println!("  ECN RED thresholds           = 25% / 75% of queue capacity");
    println!("  EC scheme                    = (8, 2)");
}

/// The paper's headline scheme set (Figs. 8–12).
pub fn main_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::uno(),
        SchemeSpec::uno_ecmp(),
        SchemeSpec::gemini(),
        SchemeSpec::mprdma_bbr(),
    ]
}

/// `Experiment::new(cfg)` with the `--progress` heartbeat attached when
/// the flag was given. Every figure binary builds its engines here.
pub fn experiment(cfg: ExperimentConfig) -> Experiment {
    let mut exp = Experiment::new(cfg);
    if PROGRESS.load(Ordering::Relaxed) {
        exp.sim.set_heartbeat(Duration::from_secs(1));
    }
    exp
}

/// Run one experiment over `specs` to completion, timing the wall clock.
pub fn run_experiment(
    scheme: SchemeSpec,
    topo: TopologyParams,
    specs: &[FlowSpec],
    seed: u64,
    record_progress: bool,
    horizon: Time,
) -> uno::ExperimentResults {
    // Wall-clock policy: `started` only feeds the progress log line below;
    // every simulated result derives from the virtual clock alone.
    let started = Instant::now();
    let name = scheme.name;
    let mut cfg = ExperimentConfig::quick(scheme, seed);
    cfg.topo = topo;
    cfg.record_progress = record_progress;
    let mut exp = experiment(cfg);
    exp.add_specs(specs);
    let r = exp.run(horizon);
    eprintln!(
        "[{}] {} flows, sim {:.3}s, wall {:.1}s{}",
        name,
        r.flows,
        r.sim_time as f64 / SECONDS as f64,
        started.elapsed().as_secs_f64(),
        if r.all_completed {
            ""
        } else {
            " (horizon hit before completion)"
        },
    );
    record_manifest(r.manifest.clone());
    r
}

/// Human-readable bytes.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Milliseconds with 3 decimals from a [`Time`].
pub fn fmt_ms(t: Time) -> String {
    format!("{:.3}", t as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(1 << 30), "1.0 GiB");
    }

    #[test]
    fn parse_from_splits_shared_and_extra_flags() {
        let argv = ["--seed", "7", "--fault-variant", "gray", "--full"];
        let (args, extra) = HarnessArgs::parse_from(argv.iter().map(|s| s.to_string()));
        assert_eq!(args.seed, 7);
        assert!(args.full);
        assert!(!args.progress);
        assert_eq!(extra, vec!["--fault-variant", "gray"]);
        let argv = ["--progress", "--jobs", "2"];
        let (args, extra) = HarnessArgs::parse_from(argv.iter().map(|s| s.to_string()));
        assert!(args.progress);
        assert_eq!(args.jobs, 2);
        assert!(extra.is_empty());
        // `--params` is fig10's own flag, so every other binary rejects it.
        let (_, extra) = HarnessArgs::parse_from(std::iter::once("--params".to_string()));
        assert_eq!(extra, vec!["--params"]);
    }

    #[test]
    fn main_schemes_cover_paper_baselines() {
        let names: Vec<&str> = main_schemes().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["Uno", "Uno+ECMP", "Gemini", "MPRDMA+BBR"]);
    }
}
