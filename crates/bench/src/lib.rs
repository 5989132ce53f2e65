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
use std::time::Duration;

use rand::SeedableRng;
use uno::erasure::EcParams;
use uno::metrics::ViolinSummary;
use uno::sim::{
    FaultEntry, FaultKind, FaultTarget, PhantomParams, RunManifest, Time, TopologyParams, GBPS,
    MILLIS, SECONDS,
};
use uno::transport::cc::{ALPHA_FRAC, BETA, K_FRAC, PHANTOM_DELAY_THRESH};
use uno::{Experiment, ExperimentConfig, ExperimentResults, SchemeSpec};
use uno_workloads::{poisson_mix, Cdf, FlowSpec, PoissonMixParams};

/// The across-run runner behind [`HarnessArgs::sweep`], re-exported because
/// the `e2ebench/` benchmark and the `sweep_determinism` test import it
/// from here.
pub use uno::SweepRunner;

/// Manifests of every cell [`run_cell`] has run, drained by
/// [`write_manifests`] at the end of `main`.
static MANIFESTS: Mutex<Vec<RunManifest>> = Mutex::new(Vec::new());

/// Whether `--progress` was passed: [`experiment`] then attaches a
/// once-per-second wall-clock heartbeat (sim time, events/sec, queued
/// bytes) to every engine it builds. Stderr-only; never affects simulated
/// state, so results stay byte-identical with and without it.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Drain every recorded manifest into `results/MANIFEST_<figure>.json`,
/// sorted by cell label (`name`), scheme, seed, sim time and event count.
/// Returns the path written.
pub fn write_manifests(figure: &str) -> PathBuf {
    let mut v = std::mem::take(&mut *MANIFESTS.lock().expect("manifest lock"));
    v.sort_by(|a, b| manifest_key(a).cmp(&manifest_key(b)));
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

/// Where a cell's manifest goes in its figure's file: by cell label (the
/// manifest's `name`), scheme and seed, which tell every cell of a figure
/// apart, then sim time and event count. Parallel sweeps record manifests
/// in completion order; sorting on simulated fields alone makes the file
/// the same, apart from wall-clock fields, however the cells interleaved.
fn manifest_key(m: &RunManifest) -> (&str, &str, u64, u64, u64) {
    (
        &m.name,
        &m.scheme,
        m.seed,
        m.sim_time_ns,
        m.events_processed,
    )
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

    /// Run `cell(group, item)` for every item of every group as one sweep,
    /// so `--jobs` spreads the whole grid, and return each group's results
    /// in item order.
    pub fn sweep_grid<G: Sync, I: Sync, T: Send>(
        &self,
        groups: &[G],
        items: &[I],
        cell: impl Fn(&G, &I) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let cells = groups
            .iter()
            .flat_map(|g| items.iter().map(move |i| (g, i)))
            .collect();
        let mut results = self.sweep().run(cells, |_, (g, i)| cell(g, i)).into_iter();
        groups
            .iter()
            .map(|_| results.by_ref().take(items.len()).collect())
            .collect()
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

/// Print the Table 2 parameter set (`fig10 --params`), every value read
/// from the code that runs it.
pub fn print_table2(topo: &TopologyParams) {
    println!("Table 2: parameter defaults");
    println!("  alpha (UnoCC AI factor)      = {ALPHA_FRAC} x BDP");
    println!("  beta (UnoCC QA factor)       = {BETA}");
    println!(
        "  K (UnoCC MD constant)        = 1/{} x intra-DC BDP",
        1.0 / K_FRAC
    );
    println!(
        "  phantom-only ECN below       = {} us relative delay",
        PHANTOM_DELAY_THRESH / 1_000
    );
    println!(
        "  intra-DC RTT                 = {} us",
        topo.intra_rtt / 1_000
    );
    println!(
        "  inter-DC RTT                 = {} ms",
        topo.inter_rtt / 1_000_000
    );
    println!(
        "  phantom queue drain rate     = {} x line rate",
        PhantomParams::for_topology(topo).drain_factor
    );
    println!(
        "  link bandwidth               = {} Gbps",
        topo.link_bps / GBPS
    );
    println!(
        "  switch buffer per port       = {} KiB",
        topo.queue_bytes >> 10
    );
    println!("  MTU                          = {} B", topo.mtu);
    println!(
        "  ECN RED thresholds           = {}% / {}% of queue capacity",
        topo.red.min_frac * 100.0,
        topo.red.max_frac * 100.0
    );
    let ec = EcParams::PAPER_DEFAULT;
    println!(
        "  EC scheme                    = ({}, {})",
        ec.data, ec.parity
    );
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

/// The config of one figure cell: `scheme` at `seed` on `topo`.
pub fn config(scheme: &SchemeSpec, seed: u64, topo: &TopologyParams) -> ExperimentConfig {
    ExperimentConfig {
        topo: topo.clone(),
        ..ExperimentConfig::quick(scheme.clone(), seed)
    }
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

/// Run one figure cell: `exp`, built with every flow, fault and sampler,
/// runs until its flows terminate or `horizon`; one stderr line reports it
/// and its manifest is kept for [`write_manifests`]. Every simulation cell
/// of every figure binary ends here. `label` names the swept parameters
/// that tell the cell apart from the figure's other cells of the same
/// scheme and seed (load, EC geometry, fault variant, ...); it becomes the
/// manifest's `name`.
pub fn run_cell(exp: Experiment, horizon: Time, label: &str) -> ExperimentResults {
    let mut r = exp.run(horizon);
    r.manifest.name = label.to_string();
    eprintln!(
        "[{}] {label}, seed {}, {} flows, sim {:.3}s, wall {:.1}s{}",
        r.scheme,
        r.manifest.seed,
        r.flows,
        r.sim_time as f64 / SECONDS as f64,
        r.manifest.wall_seconds,
        if r.all_completed {
            ""
        } else {
            " (horizon hit before completion)"
        },
    );
    MANIFESTS
        .lock()
        .expect("manifest lock")
        .push(r.manifest.clone());
    r
}

/// The realistic workload of Figs. 10–12: web-search intra-DC and
/// Alibaba-WAN inter-DC flow sizes, 4:1, arriving as a Poisson process at
/// `load` of the hosts' line rate for `duration`, drawn from `seed`.
pub fn poisson_mix_specs(
    topo: &TopologyParams,
    load: f64,
    duration: Time,
    seed: u64,
) -> Vec<FlowSpec> {
    let p = PoissonMixParams {
        hosts_per_dc: topo.hosts_per_dc() as u32,
        dcs: 2,
        host_bps: topo.link_bps,
        load,
        inter_fraction: 0.2,
        duration,
    };
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    poisson_mix(&p, &Cdf::websearch(), &Cdf::alibaba_wan(), &mut rng)
}

/// Gray failure of forward border link `idx` (Fig. 13A, lossless matrix):
/// from 0.5 ms on the link stays up but silently drops 5% of packets.
pub fn gray_border(idx: usize) -> FaultEntry {
    FaultEntry {
        target: FaultTarget::BorderForward { idx },
        kind: FaultKind::GrayLoss { p: 0.05 },
        at: MILLIS / 2,
        until: None,
    }
}

/// Flapping forward border link `idx` (Fig. 13A, lossless matrix): from
/// 0.5 ms on it goes down and up with 2 ms mean time between failures and
/// 2 ms mean time to repair.
pub fn flapping_border(idx: usize) -> FaultEntry {
    FaultEntry {
        target: FaultTarget::BorderForward { idx },
        kind: FaultKind::Flapping {
            mtbf: 2 * MILLIS,
            mttr: 2 * MILLIS,
        },
        at: MILLIS / 2,
        until: None,
    }
}

/// One violin row of Figs. 13A–C: the finite `values` (one per run)
/// summarized at `width` digits, and `incomplete(n)` in parentheses when
/// `n` runs gave NaN because they did not complete.
pub fn violin_row(
    name: &str,
    values: &[f64],
    width: usize,
    incomplete: impl FnOnce(usize) -> String,
) -> String {
    let ok: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let v = ViolinSummary::of(&ok);
    let failed = values.len() - ok.len();
    let note = if failed > 0 {
        format!("  ({})", incomplete(failed))
    } else {
        String::new()
    };
    format!(
        "{name:>9} | min {:w$.2}  p25 {:w$.2}  med {:w$.2}  p75 {:w$.2}  max {:w$.2}  mean {:w$.2}{note}",
        v.min,
        v.p25,
        v.p50,
        v.p75,
        v.max,
        v.mean,
        w = width
    )
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
    fn manifests_sort_by_label_then_scheme_then_seed() {
        let manifest = |name: &str, scheme: &str, seed, events| RunManifest {
            name: name.to_string(),
            scheme: scheme.to_string(),
            seed,
            topo: serde_json::Value::Null,
            sim_time_ns: 1,
            wall_seconds: 0.0,
            events_processed: events,
            events_per_sec: 0.0,
            flows: 1,
            completed: 1,
            counters: Default::default(),
        };
        // Completion order: the label decides first, even against a
        // smaller seed or event count.
        let mut v = [
            manifest("load 60%", "Uno", 1, 10),
            manifest("load 20%", "Uno", 2, 30),
            manifest("load 20%", "Gemini", 1, 50),
            manifest("load 20%", "Uno", 1, 40),
            manifest("load 40%", "Uno", 1, 20),
        ];
        v.sort_by(|a, b| manifest_key(a).cmp(&manifest_key(b)));
        let keys: Vec<(&str, &str, u64)> = v
            .iter()
            .map(|m| (m.name.as_str(), m.scheme.as_str(), m.seed))
            .collect();
        assert_eq!(
            keys,
            [
                ("load 20%", "Gemini", 1),
                ("load 20%", "Uno", 1),
                ("load 20%", "Uno", 2),
                ("load 40%", "Uno", 1),
                ("load 60%", "Uno", 1),
            ]
        );
    }

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
    fn sweep_grid_returns_each_groups_results_in_item_order() {
        for jobs in [1, 3] {
            let (mut args, _) = HarnessArgs::parse_from(std::iter::empty());
            args.jobs = jobs;
            let grid = args.sweep_grid(&[10, 20], &[1, 2, 3], |g, i| g + i);
            assert_eq!(grid, [[11, 12, 13], [21, 22, 23]], "--jobs {jobs}");
        }
    }

    #[test]
    fn main_schemes_cover_paper_baselines() {
        let names: Vec<&str> = main_schemes().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["Uno", "Uno+ECMP", "Gemini", "MPRDMA+BBR"]);
    }
}
