//! `uno-e2e` — end-to-end and per-layer benchmark of the Uno simulator.
//!
//! ```text
//! uno-e2e [run] [--workload NAME|all] [--seed N] [--reps N | --seconds S]
//!         [--trace 0|1] [--out DIR]
//! uno-e2e compare A.json B.json [--bench BENCHMARK.json]
//! uno-e2e bless
//! ```
//!
//! `run` measures each workload in fresh child processes, one at a time and
//! round-robin across workloads, after one discarded warm-up round. It
//! prints one table per workload, writes `BENCH_e2e_<rev>.json` and ends
//! its standard output with one JSON line of results. `--trace 1` instead
//! runs each workload once through the traced passes of [`traced`] and
//! reports the per-layer metrics. See `README.md` for the workloads and
//! the metric glossary.

mod compare;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use stats::{Summary, Tally};
use workload::{Spans, Variant, Workload};

/// Set-ups per cell in each child; the child reports their median.
const SETUP_REPEATS: usize = 3;
/// The warm-up round runs every workload at this fraction of its size: it
/// loads the binary and exercises every code path without spending a
/// full rep.
const WARMUP_SCALE: u64 = 16;
/// Fewest measured rounds a time-boxed run makes.
const MIN_REPS: usize = 3;
const DEFAULT_REPS: usize = 5;
/// The seed whose digests are committed in `e2e_digests.json`.
const GOLDEN_SEED: u64 = 1;
const DIGESTS_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/e2e_digests.json");
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
const DEFAULT_BENCH_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// A reported metric: name, unit and direction.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Report the run's fastest sample instead of its median.
    pub fastest: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        fastest: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        higher_is_better: true,
        ..lower(name, unit)
    }
}

/// End-to-end metrics, measured with tracing off. `wall_s` reports the
/// fastest rep of the run: other tenants of a shared host only ever slow a
/// rep down, in spells long enough to cover a whole run, and the median of
/// a run's reps moves with them by up to 30% while the fastest rep holds
/// within about 15% (see README.md).
pub const END_TO_END: [MetricDef; 3] = [
    MetricDef {
        fastest: true,
        ..lower("wall_s", "s")
    },
    lower("setup_s", "s"),
    lower("peak_rss_mib", "MiB"),
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Child,
    Bless,
    Compare,
}

struct Args {
    mode: Mode,
    workloads: Vec<Workload>,
    seed: u64,
    reps: Option<usize>,
    seconds: Option<f64>,
    traced: bool,
    out: PathBuf,
    scale: u64,
    bench_json: PathBuf,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: uno-e2e [run] [--workload NAME|all] [--seed N] [--reps N | --seconds S] \
     [--trace 0|1] [--out DIR]\n       uno-e2e compare A.json B.json [--bench BENCHMARK.json]\n       \
     uno-e2e bless"
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workloads: Workload::ALL.to_vec(),
        seed: GOLDEN_SEED,
        reps: None,
        seconds: None,
        traced: false,
        out: PathBuf::from(DEFAULT_OUT),
        scale: 1,
        bench_json: PathBuf::from(DEFAULT_BENCH_JSON),
        files: Vec::new(),
    };
    fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
        v.as_deref()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a valid value"))
    }
    let mut first = true;
    while let Some(a) = it.next() {
        match a.as_str() {
            "run" if first => args.mode = Mode::Run,
            "child" if first => args.mode = Mode::Child,
            "bless" if first => args.mode = Mode::Bless,
            "compare" if first => args.mode = Mode::Compare,
            "--workload" => {
                let name: String = value("--workload", it.next())?;
                args.workloads = if name == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&name).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload `{name}` (one of {}, all)",
                            names.join(", ")
                        )
                    })?]
                };
            }
            "--seed" => args.seed = value("--seed", it.next())?,
            "--reps" => args.reps = Some(value("--reps", it.next())?).filter(|&r| r > 0),
            "--seconds" => {
                args.seconds = Some(value("--seconds", it.next())?).filter(|&s: &f64| s > 0.0)
            }
            "--trace" => {
                args.traced = match it.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--out" => args.out = value("--out", it.next())?,
            "--scale" => {
                args.scale = Some(value("--scale", it.next())?)
                    .filter(|&s| s > 0)
                    .ok_or("--scale needs a positive integer")?
            }
            "--bench" => args.bench_json = value("--bench", it.next())?,
            other if args.mode == Mode::Compare && !other.starts_with("--") => {
                args.files.push(PathBuf::from(other))
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        first = false;
    }
    if args.mode == Mode::Compare && args.files.len() != 2 {
        return Err("compare needs two BENCH_e2e_*.json files".into());
    }
    if args.mode == Mode::Child && args.workloads.len() != 1 {
        return Err("child needs one --workload".into());
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("uno-e2e: {e}\n{}", usage());
        std::process::exit(2);
    });
    let code = match args.mode {
        Mode::Run if args.traced => traced::run(&args),
        Mode::Run => run(&args),
        Mode::Child => {
            let rep = measure_rep(args.workloads[0], args.seed, args.scale);
            println!("{}", serde_json::to_string(&rep).expect("serializable"));
            0
        }
        Mode::Bless => bless(),
        Mode::Compare => compare::run(&args.files[0], &args.files[1], &args.bench_json),
    };
    std::process::exit(code);
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What one child process reports for one rep of one workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RepResult {
    cells: Vec<CellRep>,
    peak_rss_kib: u64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct CellRep {
    name: String,
    /// Each of the [`SETUP_REPEATS`] set-ups.
    setup_s: Vec<f64>,
    wall_s: f64,
    flows: usize,
    bytes: u64,
    events: u64,
    digest: u64,
    fct_p99_s: f64,
    problems: Vec<String>,
}

/// One rep of `workload`, in this process: each cell is set up
/// [`SETUP_REPEATS`] times (each set-up dropped before the next is built,
/// so they never coexist), and the last one runs.
fn measure_rep(workload: Workload, seed: u64, scale: u64) -> RepResult {
    let mut spans = Spans::off();
    let cells = workload
        .cells(seed, scale)
        .iter()
        .map(|cell| {
            let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
            let mut kept = None;
            for _ in 0..SETUP_REPEATS {
                drop(kept.take());
                let setup = cell.setup(Variant::default(), &mut spans);
                setup_s.push(setup.secs());
                kept = Some(setup);
            }
            let setup = kept.expect("at least one set-up");
            let run = cell.run(setup, Variant::default(), &mut spans);
            CellRep {
                name: cell.name.to_string(),
                setup_s,
                wall_s: run.wall_s(),
                flows: run.flows,
                bytes: run.bytes,
                events: run.events(),
                digest: run.digest,
                fct_p99_s: run.fct.p99_s,
                problems: run.problems,
            }
        })
        .collect();
    RepResult {
        cells,
        peak_rss_kib: uno_perfkit::peak_rss_kib(),
    }
}

/// Run one rep of `workload` in a fresh child process, so its peak RSS
/// is its own.
fn spawn_rep(workload: Workload, seed: u64, scale: u64) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string(), "--scale", &scale.to_string()])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("unreadable child output: {e}"))
}

/// Committed per-cell digests: workload → cell → 16-digit hex.
type Digests = BTreeMap<String, BTreeMap<String, String>>;

/// The committed digests when a run at `seed` and `scale` must match
/// them; exits when they cannot be read.
fn golden_digests(seed: u64, scale: u64) -> Option<Digests> {
    (seed == GOLDEN_SEED && scale == 1).then(|| {
        std::fs::read_to_string(DIGESTS_FILE)
            .map_err(|e| format!("cannot read {DIGESTS_FILE}: {e}"))
            .and_then(|text| {
                serde_json::from_str(&text).map_err(|e| format!("invalid {DIGESTS_FILE}: {e}"))
            })
            .unwrap_or_else(|e| {
                eprintln!("uno-e2e: {e}");
                std::process::exit(2);
            })
    })
}

/// A problem when `digest` is not the one committed for `cell`.
fn golden_mismatch(golden: &BTreeMap<String, String>, cell: &str, digest: u64) -> Option<String> {
    let want = golden.get(cell).map_or("none", String::as_str);
    (format!("{digest:016x}") != want).then(|| {
        format!("digest {digest:016x} differs from the committed {want} (seed {GOLDEN_SEED})")
    })
}

/// Everything a run gathered for one workload.
struct Ledger {
    workload: Workload,
    tally: Tally,
    /// Digest of each cell in the first measured rep; later reps must
    /// match it.
    first: BTreeMap<String, u64>,
    golden: Option<BTreeMap<String, String>>,
    wall_s: Vec<f64>,
    /// One sample per set-up repeat of each rep, summed over cells.
    setup_s: Vec<f64>,
    peak_rss_mib: Vec<f64>,
    /// The latest measured rep, for the simulated context in the table.
    last: Option<RepResult>,
}

impl Ledger {
    fn new(workload: Workload, golden: Option<&Digests>) -> Ledger {
        Ledger {
            workload,
            tally: Tally::default(),
            first: BTreeMap::new(),
            golden: golden.map(|g| g.get(workload.name()).cloned().unwrap_or_default()),
            wall_s: Vec::new(),
            setup_s: Vec::new(),
            peak_rss_mib: Vec::new(),
            last: None,
        }
    }

    /// Check one rep's cells and, unless it is the smaller warm-up rep,
    /// compare their digests and keep the measurements.
    fn absorb(&mut self, rep: Result<RepResult, String>, measured: bool, cells: usize) {
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                for i in 0..cells {
                    self.tally
                        .record(&format!("cell {i}"), std::slice::from_ref(&e));
                }
                return;
            }
        };
        for c in &rep.cells {
            let mut problems = c.problems.clone();
            if measured {
                problems.extend(self.digest_problems(c));
            }
            self.tally.record(&c.name, &problems);
        }
        if measured {
            self.wall_s.push(rep.cells.iter().map(|c| c.wall_s).sum());
            self.setup_s.extend((0..SETUP_REPEATS).map(|i| {
                rep.cells
                    .iter()
                    .filter_map(|c| c.setup_s.get(i))
                    .sum::<f64>()
            }));
            self.peak_rss_mib.push(rep.peak_rss_kib as f64 / 1024.0);
            self.last = Some(rep);
        }
    }

    /// A cell's digest must equal the first measured rep's and, at the
    /// golden seed, the committed one.
    fn digest_problems(&mut self, c: &CellRep) -> Vec<String> {
        let mut problems = Vec::new();
        let first = *self.first.entry(c.name.clone()).or_insert(c.digest);
        if c.digest != first {
            problems.push(format!(
                "digest {:016x} differs from the first rep's {first:016x}",
                c.digest
            ));
        }
        problems.extend(
            self.golden
                .as_ref()
                .and_then(|g| golden_mismatch(g, &c.name, c.digest)),
        );
        problems
    }

    /// Each end-to-end metric with its samples and their summary.
    fn metrics(&self) -> Vec<(&'static MetricDef, &[f64], Summary)> {
        let samples = [&self.wall_s, &self.setup_s, &self.peak_rss_mib];
        END_TO_END
            .iter()
            .zip(samples)
            .filter_map(|(def, v)| Summary::of(v).map(|s| (def, v.as_slice(), s)))
            .collect()
    }

    fn print(&self, seed: u64) {
        let cells = self.workload.cells(seed, 1).len();
        println!(
            "== {} ({cells} cell(s), seed {seed}, {} measured rep(s)) ==",
            self.workload.name(),
            self.wall_s.len()
        );
        println!(
            "{:<14} {:>6} {:>12} {:>12} {:>12} {:>12} {:>4}  reported",
            "metric", "unit", "median", "q1", "q3", "min", "n"
        );
        for (def, _, s) in self.metrics() {
            println!(
                "{:<14} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>4}  {}",
                def.name,
                def.unit,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.n,
                if def.fastest { "min" } else { "median" }
            );
        }
        println!(
            "{:<14} {:>6} {:>12.6} {:>12} {:>12} {:>12} {:>4}  ({} of {} cells failed)",
            "fail_rate",
            "ratio",
            self.tally.fail_rate(),
            "-",
            "-",
            "-",
            1,
            self.tally.failed,
            self.tally.attempted
        );
        for c in self.last.iter().flat_map(|r| &r.cells) {
            println!(
                "simulated {}: {} flows, {} bytes, {} events, p99 FCT {:.3} ms",
                c.name,
                c.flows,
                c.bytes,
                c.events,
                c.fct_p99_s * 1e3
            );
        }
        for p in &self.tally.problems {
            println!("FAILED CHECK {p}");
        }
        println!();
    }

    fn to_value(&self) -> Value {
        let metrics = self
            .metrics()
            .into_iter()
            .map(|(def, values, s)| {
                (
                    def.name.to_string(),
                    Value::Object(vec![
                        ("unit".into(), Value::Str(def.unit.into())),
                        ("value".into(), Value::F64(s.reading(def.fastest).value)),
                        ("median".into(), Value::F64(s.median)),
                        ("q1".into(), Value::F64(s.q1)),
                        ("q3".into(), Value::F64(s.q3)),
                        ("min".into(), Value::F64(s.min)),
                        ("n".into(), Value::U64(s.n as u64)),
                        ("values".into(), values.serialize_value()),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("attempted".into(), Value::U64(self.tally.attempted)),
            ("failed".into(), Value::U64(self.tally.failed)),
            ("fail_rate".into(), Value::F64(self.tally.fail_rate())),
            ("problems".into(), self.tally.problems.serialize_value()),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// Untraced measurement: a discarded warm-up round, then rounds until
/// `--reps` are done or `--seconds` have passed (and at least [`MIN_REPS`]
/// rounds ran).
fn run(args: &Args) -> i32 {
    let golden = golden_digests(args.seed, args.scale);
    let mut ledgers: Vec<Ledger> = args
        .workloads
        .iter()
        .map(|&w| Ledger::new(w, golden.as_ref()))
        .collect();
    let reps = args.reps.unwrap_or(if args.seconds.is_some() {
        usize::MAX
    } else {
        DEFAULT_REPS
    });
    let round = |ledgers: &mut Vec<Ledger>, measured: bool| {
        let scale = if measured {
            args.scale
        } else {
            args.scale * WARMUP_SCALE
        };
        for l in ledgers.iter_mut() {
            let cells = l.workload.cells(args.seed, scale).len();
            l.absorb(spawn_rep(l.workload, args.seed, scale), measured, cells);
        }
    };
    round(&mut ledgers, false);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < reps {
        if let Some(s) = args.seconds {
            if rounds >= MIN_REPS && started.elapsed().as_secs_f64() >= s {
                break;
            }
        }
        round(&mut ledgers, true);
        rounds += 1;
    }

    for l in &ledgers {
        l.print(args.seed);
    }
    let rev = uno_perfkit::git_rev();
    let report = Value::Object(vec![
        ("rev".into(), Value::Str(rev.clone())),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("seed".into(), Value::U64(args.seed)),
        ("reps".into(), Value::U64(rounds as u64)),
        ("seconds".into(), args.seconds.serialize_value()),
        ("scale".into(), Value::U64(args.scale)),
        (
            "workloads".into(),
            Value::Object(
                ledgers
                    .iter()
                    .map(|l| (l.workload.name().to_string(), l.to_value()))
                    .collect(),
            ),
        ),
    ]);
    write_report(&args.out, &format!("BENCH_e2e_{rev}.json"), &report);

    let single = ledgers.len() == 1;
    let mut metrics = Vec::new();
    let mut tally = Tally::default();
    for l in &ledgers {
        tally.attempted += l.tally.attempted;
        tally.failed += l.tally.failed;
        for (def, _, s) in l.metrics() {
            let value = s.reading(def.fastest).value;
            metrics.push((metric_key(single, l.workload, def.name), def.unit, value));
        }
    }
    print_result_line(&tally, &metrics);
    i32::from(tally.failed > 0)
}

/// Metric name in the result line: bare for a single workload, else
/// prefixed with the workload.
fn metric_key(single: bool, workload: Workload, name: &str) -> String {
    if single {
        name.to_string()
    } else {
        format!("{}.{name}", workload.name())
    }
}

/// The last line of standard output: one JSON object of results.
fn print_result_line(tally: &Tally, metrics: &[(String, &str, f64)]) {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::F64(*value)),
                    ("unit".into(), Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(tally.failed == 0)),
        ("attempted".into(), Value::U64(tally.attempted)),
        ("failed".into(), Value::U64(tally.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("serializable"));
}

fn write_report(dir: &Path, file: &str, report: &Value) {
    let path = dir.join(file);
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(report).expect("serializable") + "\n",
        )
    });
    match written {
        Ok(()) => eprintln!("uno-e2e: wrote {}", path.display()),
        Err(e) => eprintln!("uno-e2e: cannot write {}: {e}", path.display()),
    }
}

/// Rewrite `e2e_digests.json` from one rep of every workload at the golden
/// seed. Refuses when any cell fails its other checks.
fn bless() -> i32 {
    let mut digests = Digests::new();
    for w in Workload::ALL {
        let rep = match spawn_rep(w, GOLDEN_SEED, 1) {
            Ok(rep) => rep,
            Err(e) => {
                eprintln!("uno-e2e: {}: {e}", w.name());
                return 1;
            }
        };
        let mut cells = BTreeMap::new();
        for c in rep.cells {
            if !c.problems.is_empty() {
                eprintln!(
                    "uno-e2e: {}/{}: {}",
                    w.name(),
                    c.name,
                    c.problems.join("; ")
                );
                return 1;
            }
            cells.insert(c.name, format!("{:016x}", c.digest));
        }
        digests.insert(w.name().to_string(), cells);
    }
    let text = serde_json::to_string_pretty(&digests).expect("serializable") + "\n";
    match std::fs::write(DIGESTS_FILE, text) {
        Ok(()) => {
            eprintln!("uno-e2e: wrote {DIGESTS_FILE}");
            0
        }
        Err(e) => {
            eprintln!("uno-e2e: cannot write {DIGESTS_FILE}: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at 1/64 size through the child's code path and the
    /// run's checks, twice, so the cross-rep digest check runs too.
    #[test]
    fn every_workload_passes_its_checks_at_1_64_size() {
        for w in Workload::ALL {
            let mut ledger = Ledger::new(w, None);
            let cells = w.cells(7, 64).len();
            for measured in [false, true] {
                ledger.absorb(Ok(measure_rep(w, 7, 64)), measured, cells);
            }
            assert_eq!(ledger.tally.attempted, 2 * cells as u64);
            assert!(
                ledger.tally.problems.is_empty(),
                "{}: {:?}",
                w.name(),
                ledger.tally.problems
            );
            assert_eq!(ledger.wall_s.len(), 1);
            assert!(ledger.last.unwrap().cells.iter().all(|c| c.events > 0));
        }
    }

    #[test]
    fn a_diverging_rep_or_golden_digest_fails_its_cells() {
        let rep = |digest| RepResult {
            cells: vec![CellRep {
                name: "uno".into(),
                setup_s: vec![0.1; SETUP_REPEATS],
                wall_s: 1.0,
                flows: 1,
                bytes: 1000,
                events: 10,
                digest,
                fct_p99_s: 0.001,
                problems: Vec::new(),
            }],
            peak_rss_kib: 1024,
        };
        let mut golden = Digests::new();
        golden.insert(
            "websearch_mix".into(),
            [("uno".to_string(), format!("{:016x}", 5))].into(),
        );
        let mut l = Ledger::new(Workload::WebsearchMix, Some(&golden));
        l.absorb(Ok(rep(5)), false, 1);
        l.absorb(Ok(rep(5)), true, 1);
        assert_eq!((l.tally.attempted, l.tally.failed), (2, 0));
        l.absorb(Ok(rep(6)), true, 1);
        assert_eq!(l.tally.failed, 1);
        assert_eq!(l.tally.problems.len(), 2, "{:?}", l.tally.problems);
        l.absorb(Err("child crashed".into()), true, 1);
        assert_eq!((l.tally.attempted, l.tally.failed), (4, 2));
        assert_eq!(l.peak_rss_mib, [1.0, 1.0]);
    }

    /// BENCHMARK.json names exactly the workloads and metrics this binary
    /// reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let text = std::fs::read_to_string(DEFAULT_BENCH_JSON).unwrap();
        let bench = serde_json::parse_value(&text).unwrap();
        let list = |key: &str| bench.get(key).and_then(Value::as_array).unwrap().to_vec();
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &traced::PER_LAYER[..]),
        ] {
            let entries = list(key);
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (e, d) in entries.iter().zip(defs) {
                let field = |k: &str| e.get(k).and_then(Value::as_str).unwrap();
                assert_eq!(field("name"), d.name);
                assert_eq!(field("unit"), d.unit, "{}", d.name);
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field("better"), better, "{}", d.name);
            }
        }
    }

    #[test]
    fn args_parse_the_run_and_compare_forms() {
        let a = parse_args(
            [
                "--workload",
                "incast_fig8",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "0",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert!(a.mode == Mode::Run && !a.traced);
        assert_eq!(
            (a.workloads, a.seed, a.seconds),
            (vec![Workload::IncastFig8], 3, Some(10.0))
        );
        assert!(parse_args(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
        let c = parse_args(
            ["compare", "a.json", "b.json"]
                .map(String::from)
                .into_iter(),
        )
        .unwrap();
        assert!(c.mode == Mode::Compare && c.files.len() == 2);
    }
}
