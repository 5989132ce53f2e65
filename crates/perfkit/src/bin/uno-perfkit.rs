//! `uno-perfkit` — run the benchmark suite or gate against a baseline.
//!
//! ```text
//! uno-perfkit [--quick|--full] [--out results] [--rev NAME]
//! uno-perfkit compare [--baseline results/BENCH_perf_baseline.json]
//!                     [--current <newest BENCH_perf_*.json>]
//!                     [--tolerance 10%]
//! ```
//!
//! The run form writes `results/BENCH_perf_<rev>.json`; `compare` exits
//! non-zero when any benchmark regressed past the tolerance. Regenerate the
//! committed baseline with `uno-perfkit --quick --rev baseline` (see
//! TESTING.md for the workflow).

use std::path::PathBuf;

use uno_perfkit::{bench, compare, git_rev, newest_report, PerfReport, Verdict};

fn die(msg: &str) -> ! {
    eprintln!("uno-perfkit: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        run_compare(&args[1..]);
    } else {
        run_suite(&args);
    }
}

fn run_suite(args: &[String]) {
    let mut quick = true;
    let mut out = PathBuf::from("results");
    let mut rev: Option<String> = None;
    let mut row: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--full" => quick = false,
            // The suite's own child processes: one isolated row, printed as
            // one JSON line.
            "--row" => {
                row = Some(
                    it.next()
                        .unwrap_or_else(|| die("--row needs a name"))
                        .clone(),
                )
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| die("--out needs a path"))),
            "--rev" => {
                rev = Some(
                    it.next()
                        .unwrap_or_else(|| die("--rev needs a name"))
                        .clone(),
                )
            }
            other => die(&format!(
                "unknown argument `{other}` (run: [--quick|--full] [--out DIR] [--rev NAME])"
            )),
        }
    }
    if let Some(name) = row {
        let rows =
            bench::run_row(&name, quick).unwrap_or_else(|| die(&format!("unknown row `{name}`")));
        println!(
            "{}",
            serde_json::to_string(&rows).expect("row serialization")
        );
        return;
    }
    let report = bench::run_all(quick, rev.unwrap_or_else(git_rev));
    println!(
        "{:<24} {:>16} {:<12} {:>10}",
        "bench", "value", "unit", "wall (s)"
    );
    for b in &report.benches {
        println!(
            "{:<24} {:>16.2} {:<12} {:>10.2}",
            b.name, b.value, b.unit, b.wall_seconds
        );
    }
    println!(
        "cores={}  peak_rss={} KiB  mode={}",
        report.cores, report.peak_rss_kib, report.mode
    );
    match report.write(&out) {
        Ok(path) => eprintln!("[uno-perfkit] wrote {}", path.display()),
        Err(e) => die(&format!("cannot write report under {}: {e}", out.display())),
    }
}

/// Tolerance spec: `10%`, `10`, or `0.1` all mean ten percent.
fn parse_tolerance(s: &str) -> f64 {
    let t: f64 = s
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| die(&format!("bad --tolerance `{s}`")));
    if t < 0.0 {
        die("--tolerance must be non-negative");
    }
    if t > 1.0 || s.ends_with('%') {
        t / 100.0
    } else {
        t
    }
}

fn run_compare(args: &[String]) {
    let mut baseline = PathBuf::from("results/BENCH_perf_baseline.json");
    let mut current: Option<PathBuf> = None;
    let mut tolerance = 0.10;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = PathBuf::from(it.next().unwrap_or_else(|| die("--baseline needs a path")))
            }
            "--current" => {
                current = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| die("--current needs a path")),
                ))
            }
            "--tolerance" => {
                tolerance =
                    parse_tolerance(it.next().unwrap_or_else(|| die("--tolerance needs a value")))
            }
            other => die(&format!(
                "unknown argument `{other}` (compare: [--baseline P] [--current P] [--tolerance N%])"
            )),
        }
    }
    let current = current
        .or_else(|| {
            baseline
                .parent()
                .and_then(|dir| newest_report(dir, &baseline))
        })
        .unwrap_or_else(|| {
            die("no current report found (run `uno-perfkit` first or pass --current)")
        });
    let base = PerfReport::load(&baseline).unwrap_or_else(|e| die(&e));
    let cur = PerfReport::load(&current).unwrap_or_else(|e| die(&e));
    if base.mode != cur.mode {
        die(&format!(
            "mode mismatch: baseline is `{}`, current is `{}` — rerun with matching --quick/--full",
            base.mode, cur.mode
        ));
    }
    eprintln!(
        "[uno-perfkit] comparing {} (rev {}) against baseline {} (rev {}), tolerance {:.0}%",
        current.display(),
        cur.rev,
        baseline.display(),
        base.rev,
        tolerance * 100.0
    );
    if base.cores != cur.cores {
        eprintln!(
            "[uno-perfkit] note: core count changed ({} -> {}); wall-clock rows may shift",
            base.cores, cur.cores
        );
    }

    let rows = compare(&base, &cur, tolerance);
    println!(
        "{:<24} {:>14} {:>14} {:>9}  status",
        "bench", "baseline", "current", "change"
    );
    let mut failed = false;
    for r in &rows {
        let pct = if r.change.is_finite() {
            format!("{:+.1}%", r.change * 100.0)
        } else {
            "-".to_string()
        };
        let (status, change) = match r.verdict {
            Verdict::Ok => ("ok", pct),
            Verdict::Regressed => ("REGRESSED", pct),
            Verdict::Missing => ("MISSING", "-".to_string()),
            Verdict::Info => ("info", pct),
        };
        failed |= matches!(r.verdict, Verdict::Regressed | Verdict::Missing);
        println!(
            "{:<24} {:>14.2} {:>14.2} {:>9}  {status}",
            r.name, r.baseline, r.current, change
        );
    }
    if failed {
        // Name the baseline's provenance: most "regressions" in wall-clock
        // rows are really hardware changes, and the first question a reader
        // asks is what machine the committed numbers came from.
        eprintln!(
            "[uno-perfkit] FAIL: regression beyond {:.0}% against baseline rev {} \
             ({} mode, measured on a {}-core host; this host has {} cores). \
             If the hardware changed, regenerate the baseline here with \
             `uno-perfkit --{} --rev baseline` instead of chasing the numbers.",
            tolerance * 100.0,
            base.rev,
            base.mode,
            base.cores,
            cur.cores,
            base.mode,
        );
        std::process::exit(1);
    }
    eprintln!("[uno-perfkit] OK: all benches within tolerance");
}
