//! `uno-fuzz` — fault-injection scenario fuzzer for the full Uno stack.
//!
//! Generates deterministic random scenarios (topology knobs, workloads,
//! link-failure and loss schedules) from a seed range, runs each on the
//! complete simulator with every protocol invariant armed, and shrinks any
//! failure to a minimal reproducer under `results/`.
//!
//! ```text
//! uno-fuzz --seed-range 0..200 --quick          # CI smoke
//! uno-fuzz --seed 1337 --full                   # one big scenario
//! uno-fuzz --seed-range 0..50 --lossless        # PFC-armed lossless fabrics
//! uno-fuzz --seed-range 0..500 --erasure        # codec vs naive-RS oracle
//! uno-fuzz --replay results/repro_ab12cd.json   # rerun a reproducer
//! ```
//!
//! `--lossless` switches scenario generation to PFC-enabled fabrics
//! ([`Scenario::generate_lossless`]): the same topology/workload/fault
//! space, plus seed-derived XOFF thresholds, with the pause-discipline,
//! storm, deadlock, and pause-liveness invariants doing real work.
//!
//! `--erasure` switches from full-stack scenarios to codec differential
//! cases: each seed becomes a random `(data, parity, shard_len, erasure
//! pattern)` tuple run through each codec call — encode, reconstruct,
//! and indexed reconstruction from a shuffled survivor set — against the
//! naive GF(2^8) oracle byte-for-byte. Mismatches shrink to minimal cases and
//! are written as `erasure_<hash>.json`, the prefix the regression-corpus
//! test dispatches on once a fixed reproducer is committed.

use std::path::PathBuf;
use std::process::ExitCode;

use uno_testkit::{
    run_erasure_case, run_scenario, shrink, shrink_erasure_case, write_erasure_repro, write_repro,
    ErasureCase, Scenario,
};

struct Args {
    seeds: std::ops::Range<u64>,
    quick: bool,
    replay: Option<PathBuf>,
    inject_block_bug: bool,
    lossless: bool,
    erasure: bool,
    no_shrink: bool,
    out: PathBuf,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 0..50,
        quick: true,
        replay: None,
        inject_block_bug: false,
        lossless: false,
        erasure: false,
        no_shrink: false,
        out: PathBuf::from("results"),
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed-range" => {
                let spec = it.next().expect("--seed-range needs A..B");
                let (a, b) = spec.split_once("..").expect("--seed-range format: A..B");
                args.seeds = a.parse().expect("range start")..b.parse().expect("range end");
            }
            "--seed" => {
                let s: u64 = it.next().and_then(|s| s.parse().ok()).expect("--seed N");
                args.seeds = s..s + 1;
            }
            "--quick" => args.quick = true,
            "--full" => args.quick = false,
            "--replay" => args.replay = Some(PathBuf::from(it.next().expect("--replay FILE"))),
            "--inject-block-bug" => args.inject_block_bug = true,
            "--lossless" => args.lossless = true,
            "--erasure" => args.erasure = true,
            "--no-shrink" => args.no_shrink = true,
            "--out" => args.out = PathBuf::from(it.next().expect("--out DIR")),
            "--verbose" | "-v" => args.verbose = true,
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: uno-fuzz [--seed-range A..B] [--seed N] \
                     [--quick|--full] [--replay FILE] [--inject-block-bug] [--lossless] \
                     [--erasure] [--no-shrink] [--out DIR] [--verbose]"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

/// Run one erasure differential case, report, and (on mismatch) shrink +
/// write an `erasure_<hash>.json` reproducer. Returns true when every
/// production path agreed with the naive oracle byte-for-byte.
fn handle_erasure(case: &ErasureCase, args: &Args) -> bool {
    let mismatch = run_erasure_case(case);
    if args.verbose || mismatch.is_some() {
        println!(
            "seed {}: {} (({},{}) len {} erased {:?})",
            case.seed,
            if mismatch.is_some() { "FAIL" } else { "ok" },
            case.data,
            case.parity,
            case.shard_len,
            case.erased,
        );
    }
    let Some(why) = mismatch else {
        return true;
    };
    println!("  {why}");
    let final_case = if args.no_shrink {
        case.clone()
    } else {
        let r = shrink_erasure_case(case, 200);
        println!(
            "  shrunk in {} steps / {} runs: ({},{}) len {} erased {:?}",
            r.steps, r.runs, r.case.data, r.case.parity, r.case.shard_len, r.case.erased
        );
        r.case
    };
    match write_erasure_repro(&final_case, &args.out) {
        Ok(path) => println!("  reproducer written to {}", path.display()),
        Err(e) => eprintln!("  could not write reproducer: {e}"),
    }
    false
}

/// Run one scenario, report, and (on failure) shrink + write a reproducer.
/// Returns true when the scenario held every invariant.
fn handle(sc: &Scenario, args: &Args) -> bool {
    let out = run_scenario(sc);
    if args.verbose || out.failed() {
        println!(
            "seed {}: {} ({} events, sim end {:.3} ms, {} violation(s))",
            sc.seed,
            if out.failed() { "FAIL" } else { "ok" },
            out.events_seen,
            out.sim_end as f64 / 1e6,
            out.violations.len(),
        );
    }
    if !out.failed() {
        return true;
    }
    for v in out.violations.iter().take(5) {
        println!("  {v}");
    }
    if out.violations.len() > 5 {
        println!("  ... and {} more", out.violations.len() - 5);
    }
    let final_sc = if args.no_shrink {
        sc.clone()
    } else {
        let r = shrink(sc, 200);
        println!(
            "  shrunk in {} steps / {} runs: {} flow(s), {} fault(s)",
            r.steps,
            r.runs,
            r.scenario.flows.len(),
            r.scenario.faults.len()
        );
        r.scenario
    };
    match write_repro(&final_sc, &args.out) {
        Ok(path) => println!("  reproducer written to {}", path.display()),
        Err(e) => eprintln!("  could not write reproducer: {e}"),
    }
    false
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("uno-fuzz: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        // Erasure reproducers are self-describing (`"kind": "erasure_case"`),
        // so replay dispatches on content, not filename.
        if let Ok(case) = ErasureCase::from_json(&text) {
            println!("replaying erasure case {}", path.display());
            return if handle_erasure(&case, &args) {
                println!("replay: codec and oracle agree");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        let sc = match Scenario::from_json(&text) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("uno-fuzz: {} is not a scenario file: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        println!("replaying {}", path.display());
        return if handle(&sc, &args) {
            println!("replay: all invariants held");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let total = args.seeds.end.saturating_sub(args.seeds.start);

    if args.erasure {
        println!(
            "uno-fuzz: {} {} erasure case(s), seeds {}..{}",
            total,
            if args.quick { "quick" } else { "full" },
            args.seeds.start,
            args.seeds.end
        );
        let mut failures = 0u64;
        for (i, seed) in args.seeds.clone().enumerate() {
            let case = ErasureCase::generate(seed, args.quick);
            if !handle_erasure(&case, &args) {
                failures += 1;
            } else if !args.verbose && (i + 1) % 100 == 0 {
                println!("  ... {}/{} cases done", i + 1, total);
            }
        }
        println!("uno-fuzz: {total} erasure case(s), {failures} mismatch(es)");
        return if failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    println!(
        "uno-fuzz: {} {}{} scenario(s), seeds {}..{}",
        total,
        if args.quick { "quick" } else { "full" },
        if args.lossless { " lossless" } else { "" },
        args.seeds.start,
        args.seeds.end
    );
    let mut failures = 0u64;
    let mut events = 0u64;
    for (i, seed) in args.seeds.clone().enumerate() {
        let mut sc = if args.lossless {
            Scenario::generate_lossless(seed, args.quick)
        } else {
            Scenario::generate(seed, args.quick)
        };
        sc.inject_block_bug = args.inject_block_bug;
        let out = run_scenario(&sc);
        events += out.events_seen;
        if out.failed() {
            failures += 1;
            handle(&sc, &args);
        } else if args.verbose {
            println!("seed {seed}: ok ({} events)", out.events_seen);
        } else if (i + 1) % 25 == 0 {
            println!("  ... {}/{} scenarios done", i + 1, total);
        }
    }
    println!("uno-fuzz: {total} scenario(s), {failures} failure(s), {events} trace events checked");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
