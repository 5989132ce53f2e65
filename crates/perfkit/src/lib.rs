//! # uno-perfkit — benchmark and performance-regression harness
//!
//! Micro and macro benchmarks over the simulator's hot paths, emitted as a
//! machine-readable [`PerfReport`] (`results/BENCH_perf_<rev>.json`) and
//! gated against a committed baseline by [`compare`]:
//!
//! * **event-queue ops** — push/pop throughput of the calendar-queue
//!   scheduler vs. the reference binary heap, over the "hold model"
//!   workload discrete-event simulators exhibit (pop the minimum, schedule
//!   a successor a random delta later), plus an informational dense
//!   variant with thousands of events pending in the scheduler's current
//!   1.024 µs tick, and informational port-queue enqueue + dequeue pairs
//!   through the packet slab;
//! * **incast step rate** — end-to-end engine events/sec on a Figure 8
//!   style incast experiment (the meter the simulator itself maintains),
//!   plus the same meter on a lossless (PFC) fabric;
//! * **transport step rate** — the same meter on an all-inter-DC incast,
//!   where UnoRC ACK/NACK processing and block settling dominate;
//! * **profiler rows** — span bookkeeping throughput, and the incast step
//!   rate with the span profiler enabled (informational);
//! * **scale rows** — events/sec and peak RSS on a multi-site fabric, and
//!   peak RSS of a lossless multi-site permutation, where PFC parks whole
//!   windows in buffers, and of fig04's long-flow incast; each peak-RSS row
//!   runs in a child process of its own, so it reads its own peak;
//! * **fig08 slice** — wall-clock for a scheme × scenario FCT sweep run
//!   sequentially and through the parallel [`uno::SweepRunner`], plus the
//!   resulting speedup.
//!
//! `uno-perfkit compare` fails (non-zero exit) when any benchmark regresses
//! more than the tolerance against the baseline — the CI `perf-smoke` lane
//! runs it on every push. Wall-clock numbers are only comparable between
//! runs on similar hardware; the report records the core count so a reader
//! can tell when a "regression" is really a machine change.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

pub mod bench;

/// One benchmark measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchResult {
    /// Stable benchmark name (`event_queue_calendar`, `fig08_slice_par8`, …).
    pub name: String,
    /// The headline metric.
    pub value: f64,
    /// Unit of `value` (`ops/sec`, `events/sec`, `seconds`, `x`).
    pub unit: String,
    /// Whether larger `value` is better (throughput/speedup: yes;
    /// wall-clock: no). Drives the regression direction in [`compare`].
    pub higher_is_better: bool,
    /// Whether [`compare`] fails the run on a regression in this bench.
    /// Informational benches (`false`) — the parallel wall-clock rows, whose
    /// value depends on the host's core count more than on the code — are
    /// reported but never gate.
    #[serde(default = "default_gated")]
    pub gated: bool,
    /// Wall-clock seconds this benchmark took to run.
    pub wall_seconds: f64,
}

fn default_gated() -> bool {
    true
}

/// A full benchmark run: environment fingerprint plus every measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PerfReport {
    /// Abbreviated git revision the run measured (or `unknown`).
    pub rev: String,
    /// `quick` or `full` — reports are only comparable within a mode.
    pub mode: String,
    /// Available cores (parallel speedups are bounded by this; a 1-core
    /// container cannot show a parallel win no matter the code).
    pub cores: usize,
    /// Peak resident set size of the suite's own process, in KiB (0 if
    /// unavailable). The rows of [`bench::ISOLATED_ROWS`] run in child
    /// processes and report their own peaks.
    pub peak_rss_kib: u64,
    /// Individual benchmark results, in run order.
    pub benches: Vec<BenchResult>,
}

impl PerfReport {
    /// Look up a bench by name.
    pub fn get(&self, name: &str) -> Option<&BenchResult> {
        self.benches.iter().find(|b| b.name == name)
    }

    /// Write the report to `dir/BENCH_perf_<rev>.json`, returning the path.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_perf_{}.json", self.rev));
        let json = serde_json::to_string_pretty(self).expect("report serialization");
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }

    /// Parse a report from a JSON file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("invalid report {}: {e}", path.display()))
    }
}

/// Abbreviated git revision of the source this crate was built from, with
/// `-dirty` appended when tracked files there have uncommitted changes. It
/// does not depend on the directory the process runs in. Outside a
/// repository (an exported tree) or without git it is `unknown-` and a short
/// hash of the source directory's path, so builds from trees at different
/// paths get different names.
pub fn git_rev() -> String {
    git_rev_in(Path::new(env!("CARGO_MANIFEST_DIR")))
}

/// [`git_rev`] of the repository holding `dir`.
fn git_rev_in(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return format!(
            "unknown-{:08x}",
            fnv1a(dir.as_os_str().as_encoded_bytes()) as u32
        );
    };
    // `diff --quiet` exits 1 when tracked files differ from HEAD.
    match git(&["diff", "--quiet", "HEAD"]).map(|o| o.status.code()) {
        Some(Some(1)) => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// 64-bit FNV-1a hash of `bytes`: fixed, so a path hashes the same in
/// every build and process.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set size of this process in KiB, from `/proc/self/status`
/// (`VmHWM`). Returns 0 where procfs is unavailable.
pub fn peak_rss_kib() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    parse_vm_hwm(&text).unwrap_or(0)
}

/// Parse the `VmHWM:` line out of a `/proc/<pid>/status` dump.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Process CPU time (user + system) in nanoseconds, from `/proc/self/stat`.
/// Single-threaded microbenches time themselves with this instead of the
/// wall clock: on shared hosts, steal time and descheduling inflate wall
/// readings by tens of percent while CPU time stays representative.
/// Resolution is one jiffy (typically 10 ms). `None` where procfs is
/// unavailable — callers fall back to wall clock.
pub fn cpu_time_nanos() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_time(&stat)
}

/// Parse utime+stime (fields 14 and 15) out of a `/proc/<pid>/stat` line,
/// in nanoseconds at the conventional 100 Hz USER_HZ.
fn parse_cpu_time(stat: &str) -> Option<u64> {
    // comm (field 2) may contain spaces; fields after the closing paren
    // start at field 3, so utime/stime sit at split indices 11 and 12.
    let rest = stat.rsplit_once(')')?.1;
    let mut it = rest.split_whitespace().skip(11);
    let utime: u64 = it.next()?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Outcome of one bench's baseline-vs-current comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within tolerance (or improved).
    Ok,
    /// Moved in the bad direction by more than the tolerance.
    Regressed,
    /// Present in the baseline but missing from the current run.
    Missing,
    /// Informational bench ([`BenchResult::gated`] is `false`) — shown for
    /// the record, never fails the comparison.
    Info,
}

/// One row of a comparison.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// Benchmark name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (0 when [`Verdict::Missing`]).
    pub current: f64,
    /// Relative change, signed so positive is always *better* (e.g. +0.07 =
    /// 7% faster / higher-throughput than baseline).
    pub change: f64,
    /// Pass/fail for this row.
    pub verdict: Verdict,
}

/// Compare `current` against `baseline` with a relative `tolerance`
/// (0.10 = 10%). A bench regresses when it moves in its bad direction by
/// more than the tolerance; benches that vanished from the current run also
/// fail. Benches only present in the current run are ignored (new benches
/// must first land in the baseline), and benches marked non-[`gated`]
/// on either side report [`Verdict::Info`] instead of pass/fail.
///
/// [`gated`]: BenchResult::gated
pub fn compare(baseline: &PerfReport, current: &PerfReport, tolerance: f64) -> Vec<CompareRow> {
    let mut rows = Vec::new();
    for b in &baseline.benches {
        let Some(c) = current.get(&b.name) else {
            rows.push(CompareRow {
                name: b.name.clone(),
                baseline: b.value,
                current: 0.0,
                change: f64::NEG_INFINITY,
                verdict: if b.gated {
                    Verdict::Missing
                } else {
                    Verdict::Info
                },
            });
            continue;
        };
        // Normalize so `change > 0` always means "better".
        let change = if b.value == 0.0 {
            0.0
        } else if b.higher_is_better {
            c.value / b.value - 1.0
        } else {
            b.value / c.value.max(f64::MIN_POSITIVE) - 1.0
        };
        let verdict = if !b.gated || !c.gated {
            Verdict::Info
        } else if change < -tolerance {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        rows.push(CompareRow {
            name: b.name.clone(),
            baseline: b.value,
            current: c.value,
            change,
            verdict,
        });
    }
    rows
}

/// Newest `BENCH_perf_*.json` under `dir`, excluding the baseline file
/// itself (the "current" run for [`compare`] when no path is given).
pub fn newest_report(dir: &Path, baseline: &Path) -> Option<PathBuf> {
    let mut candidates: Vec<(std::time::SystemTime, PathBuf)> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("BENCH_perf_")
                && name.ends_with(".json")
                && Some(e.path()) != baseline.canonicalize().ok()
                && e.path() != baseline
        })
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    candidates.sort();
    candidates.pop().map(|(_, p)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(benches: Vec<(&str, f64, bool)>) -> PerfReport {
        PerfReport {
            rev: "test".into(),
            mode: "quick".into(),
            cores: 1,
            peak_rss_kib: 0,
            benches: benches
                .into_iter()
                .map(|(name, value, higher_is_better)| BenchResult {
                    name: name.into(),
                    value,
                    unit: "ops/sec".into(),
                    higher_is_better,
                    gated: true,
                    wall_seconds: 0.1,
                })
                .collect(),
        }
    }

    #[test]
    fn git_rev_names_the_source_tree_not_the_working_directory() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR"));
        let rev = git_rev();
        assert_eq!(rev, git_rev_in(src));
        if !rev.starts_with("unknown-") {
            let hash = rev.strip_suffix("-dirty").unwrap_or(&rev);
            assert!(hash.len() >= 4, "{rev}");
            assert!(hash.bytes().all(|b| b.is_ascii_hexdigit()), "{rev}");
            let full = std::process::Command::new("git")
                .arg("-C")
                .arg(src)
                .args(["rev-parse", "HEAD"])
                .output()
                .unwrap();
            assert!(String::from_utf8_lossy(&full.stdout).starts_with(hash));
        }
        // Fresh directories under the system temp dir are in no
        // repository: each is named after its path, the same name each time.
        let outside = |n: u32| {
            let dir =
                std::env::temp_dir().join(format!("uno-perfkit-rev-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let revs = (git_rev_in(&dir), git_rev_in(&dir));
            std::fs::remove_dir(&dir).unwrap();
            revs
        };
        let (a, a_again) = outside(0);
        let (b, _) = outside(1);
        assert!(a.starts_with("unknown-"), "{a}");
        assert!(b.starts_with("unknown-"), "{b}");
        assert_eq!(a, a_again, "one tree always gets the same name");
        assert_ne!(a, b, "trees at different paths get different names");
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  200 kB\nVmHWM:\t  12345 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm(status), Some(12345));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_time_parses_stat_line() {
        // pid (comm with space) state ppid pgrp sess tty tpgid flags minflt
        // cminflt majflt cmajflt utime stime ...
        let stat = "42 (a b) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_cpu_time(stat), Some(300 * 10_000_000));
        assert_eq!(parse_cpu_time("garbage"), None);
    }

    #[test]
    fn cpu_time_is_monotonic_under_load() {
        let a = cpu_time_nanos().expect("procfs available in tests");
        // Burn a little CPU so the jiffy counter can only move forward.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(i ^ (x >> 3));
        }
        assert!(x != 42, "keep the loop alive");
        let b = cpu_time_nanos().expect("procfs available in tests");
        assert!(b >= a);
    }

    #[test]
    fn throughput_drop_beyond_tolerance_regresses() {
        let base = report(vec![("q", 100.0, true)]);
        let cur = report(vec![("q", 85.0, true)]);
        let rows = compare(&base, &cur, 0.10);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        let rows = compare(&base, &cur, 0.20);
        assert_eq!(rows[0].verdict, Verdict::Ok);
    }

    #[test]
    fn wall_clock_increase_regresses() {
        // lower-is-better: 1.0s -> 1.3s is a 23% slowdown (1/1.3 - 1).
        let base = report(vec![("wall", 1.0, false)]);
        let cur = report(vec![("wall", 1.3, false)]);
        let rows = compare(&base, &cur, 0.10);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(rows[0].change < -0.10);
        // ... and getting faster is never a regression.
        let cur = report(vec![("wall", 0.5, false)]);
        assert_eq!(compare(&base, &cur, 0.10)[0].verdict, Verdict::Ok);
    }

    #[test]
    fn missing_bench_fails_and_new_bench_is_ignored() {
        let base = report(vec![("a", 1.0, true)]);
        let cur = report(vec![("b", 1.0, true)]);
        let rows = compare(&base, &cur, 0.10);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Missing);
    }

    #[test]
    fn ungated_bench_reports_info_and_never_fails() {
        let mut base = report(vec![("par_speedup", 1.06, true)]);
        base.benches[0].gated = false;
        // A 35% drop in an informational bench must not regress.
        let mut cur = report(vec![("par_speedup", 0.69, true)]);
        cur.benches[0].gated = false;
        let rows = compare(&base, &cur, 0.10);
        assert_eq!(rows[0].verdict, Verdict::Info);
        // ... not even when it vanishes entirely.
        let rows = compare(&base, &report(vec![]), 0.10);
        assert_eq!(rows[0].verdict, Verdict::Info);
        // An absent `gated` key in older reports defaults to true.
        let legacy: BenchResult = serde_json::from_str(
            r#"{"name":"q","value":1.0,"unit":"x","higher_is_better":true,"wall_seconds":0.1}"#,
        )
        .unwrap();
        assert!(legacy.gated);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(vec![("a", 1.5, true), ("b", 2.0, false)]);
        let json = serde_json::to_string(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.benches.len(), 2);
        assert_eq!(back.get("b").unwrap().value, 2.0);
        assert!(back.get("a").unwrap().higher_is_better);
    }
}
