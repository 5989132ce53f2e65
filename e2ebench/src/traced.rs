//! The traced run (`--trace 1`): each workload once through a series of
//! passes that split its host time across the simulator's layers. The
//! end-to-end metrics never come from here.
//!
//! * **plain** — the untraced path, with benchmark-side spans around every
//!   public call (generator, `Experiment::new`, `add_specs`,
//!   `Experiment::run`, FCT summary);
//! * **profiled** — the same cells with the span profiler on, for
//!   scheduler / transport / UnoRC self-times;
//! * **sliced** — 1 ms `run_until` calls, for an events/s series;
//! * **lp1 / lp2** — the logical-process engine with one and two workers;
//! * **sweep** — the cells (twice over when there is one) through
//!   `SweepRunner` with one and two jobs;
//! * **observers** — the first cell without observers, with a JSONL tracer
//!   only, and with telemetry only.
//!
//! Profiling, slicing and the worker count must not change a simulated
//! result, so each of those passes is also a correctness check.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::{Serialize, Value};
use uno_bench::SweepRunner;

use crate::stats::Tally;
use crate::workload::{Cell, CellRun, Observers, Spans, Variant, Workload};
use crate::{
    golden_digests, golden_mismatch, higher, lower, metric_key, nproc, print_result_line,
    write_report, Args, Digests, MetricDef,
};

/// Per-layer metrics, in report order.
pub const PER_LAYER: [MetricDef; 45] = [
    lower("workloads.gen_s", "s"),
    lower("workloads.flows", "count"),
    lower("workloads.bytes", "bytes"),
    lower("experiment.new_s", "s"),
    lower("experiment.add_specs_s", "s"),
    lower("topology.links", "count"),
    lower("topology.hosts", "count"),
    lower("engine.run_s", "s"),
    lower("engine.events", "count"),
    lower("engine.ns_per_event", "ns"),
    higher("engine.events_per_s", "1/s"),
    lower("host.cpu_s", "s"),
    lower("scheduler.self_s", "s"),
    lower("scheduler.share", "ratio"),
    lower("fabric.self_s", "s"),
    lower("fabric.tx_packets", "count"),
    lower("fabric.drops", "count"),
    lower("fabric.ecn_marks", "count"),
    lower("fabric.phantom_marks", "count"),
    lower("fabric.drop_ratio", "ratio"),
    lower("pfc.pauses", "count"),
    lower("pfc.paused_ns", "ns"),
    lower("transport.self_s", "s"),
    lower("transport.calls", "count"),
    lower("rc.block_s", "s"),
    lower("cc.epochs", "count"),
    lower("cc.epoch_md", "count"),
    lower("cc.quick_adapt_activations", "count"),
    lower("rc.nacks", "count"),
    lower("rc.rtos", "count"),
    lower("rc.retransmits", "count"),
    lower("rc.fast_rtx", "count"),
    lower("rc.rtt_samples", "count"),
    lower("lb.reroutes", "count"),
    lower("rc.retx_share", "ratio"),
    lower("trace.events", "count"),
    lower("trace.bytes", "bytes"),
    lower("trace.jsonl_overhead", "x"),
    lower("telemetry.overhead", "x"),
    lower("metrics.summarize_s", "s"),
    lower("profile.overhead", "x"),
    higher("lp.parity", "x"),
    higher("lp.speedup_2w", "x"),
    higher("lp.digest_match", "bool"),
    higher("sweep.speedup_2j", "x"),
];

/// Worker threads for the LP and sweep passes; never more than the host
/// has cores.
fn workers() -> usize {
    nproc().min(2)
}

pub fn run(args: &Args) -> i32 {
    let single = args.workloads.len() == 1;
    let golden = golden_digests(args.seed, args.scale);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut details = Vec::new();
    for &w in &args.workloads {
        let t = trace_workload(w, args.seed, args.scale, golden.as_ref());
        println!("== {} per layer (seed {}, traced) ==", w.name(), args.seed);
        for (def, v) in PER_LAYER.iter().zip(&t.values) {
            println!("{:<28} {:>6} {:>18.6}", def.name, def.unit, v);
            metrics.push((metric_key(single, w, def.name), def.unit, *v));
        }
        for p in &t.tally.problems {
            println!("FAILED CHECK {p}");
        }
        println!();
        tally.attempted += t.tally.attempted;
        tally.failed += t.tally.failed;
        details.push((w.name().to_string(), t.detail));
    }
    let rev = uno_perfkit::git_rev();
    let report = Value::Object(vec![
        ("rev".into(), Value::Str(rev.clone())),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("seed".into(), Value::U64(args.seed)),
        ("scale".into(), Value::U64(args.scale)),
        ("workloads".into(), Value::Object(details)),
    ]);
    write_report(&args.out, &format!("e2e_trace_{rev}.json"), &report);
    print_result_line(&tally, &metrics);
    i32::from(tally.failed > 0)
}

struct Traced {
    /// One value per [`PER_LAYER`] entry.
    values: Vec<f64>,
    tally: Tally,
    detail: Value,
}

/// Run `cells` once under `variant`, recording a span per cell. A cell
/// fails on its own checks and on whatever `expect(index, run)` reports.
fn pass(
    name: &str,
    cells: &[Cell],
    variant: Variant,
    expect: impl Fn(usize, &CellRun) -> Option<String>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<CellRun> {
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let label = format!("{}:{name}", cell.name);
            spans.label(label.clone());
            let root = spans.enter("cell");
            let run = cell.execute(variant, spans);
            spans.exit(root);
            let mut problems = run.problems.clone();
            problems.extend(expect(i, &run));
            tally.record(&label, &problems);
            run
        })
        .collect()
}

/// A problem when `run` does not reproduce the digest of `want`, a run of
/// the pass named `of`.
fn same_digest(run: &CellRun, want: &CellRun, of: &str) -> Option<String> {
    (run.digest != want.digest).then(|| {
        format!(
            "digest {:016x} differs from the {of} pass's {:016x}",
            run.digest, want.digest
        )
    })
}

/// No expectation beyond the cell's own checks.
fn anything(_: usize, _: &CellRun) -> Option<String> {
    None
}

fn sum(runs: &[CellRun], f: impl Fn(&CellRun) -> f64) -> f64 {
    runs.iter().map(f).sum()
}

/// Calls, inclusive and exclusive nanoseconds of every profiler row named
/// `span`, summed over `runs`.
fn span_totals(runs: &[CellRun], span: &str) -> (f64, f64, f64) {
    let rows = runs
        .iter()
        .filter_map(|r| r.profile.as_ref())
        .flat_map(|p| p.rows.iter())
        .filter(|row| row.name == span);
    rows.fold((0.0, 0.0, 0.0), |(c, i, e), row| {
        (
            c + row.calls as f64,
            i + row.inclusive_ns as f64,
            e + row.exclusive_ns as f64,
        )
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn trace_workload(w: Workload, seed: u64, scale: u64, golden: Option<&Digests>) -> Traced {
    let cells = w.cells(seed, scale);
    let mut spans = Spans::on();
    let mut tally = Tally::default();
    let serial = Variant::default();

    let committed = golden.map(|g| g.get(w.name()).cloned().unwrap_or_default());
    let plain = pass(
        "plain",
        &cells,
        serial,
        |_, r| {
            committed
                .as_ref()
                .and_then(|c| golden_mismatch(c, r.cell, r.digest))
        },
        &mut spans,
        &mut tally,
    );
    let like_plain = |i: usize, r: &CellRun| same_digest(r, &plain[i], "plain");
    let profiled = pass(
        "profiled",
        &cells,
        Variant {
            profile: true,
            ..serial
        },
        like_plain,
        &mut spans,
        &mut tally,
    );
    let sliced = pass(
        "sliced",
        &cells,
        Variant {
            sliced: true,
            ..serial
        },
        like_plain,
        &mut spans,
        &mut tally,
    );
    let lp1 = pass(
        "lp1",
        &cells,
        Variant {
            lp_jobs: 1,
            ..serial
        },
        anything,
        &mut spans,
        &mut tally,
    );
    let lp_n = pass(
        "lp2",
        &cells,
        Variant {
            lp_jobs: workers(),
            ..serial
        },
        |i, r| same_digest(r, &lp1[i], "lp1"),
        &mut spans,
        &mut tally,
    );
    let lp_match = lp1.iter().zip(&lp_n).all(|(a, b)| a.digest == b.digest);

    // Across-run parallelism: at least two cells, so two jobs have work.
    let sweep_cells: Vec<Cell> = cells
        .iter()
        .cycle()
        .take(cells.len().max(2))
        .cloned()
        .collect();
    let sweep = |jobs: usize, tally: &mut Tally| -> f64 {
        let runner = SweepRunner::new(jobs);
        let started = Instant::now();
        let runs = runner.run(sweep_cells.clone(), |_, c| {
            c.execute(serial, &mut Spans::off())
        });
        let secs = started.elapsed().as_secs_f64();
        for (i, r) in runs.iter().enumerate() {
            let mut problems = r.problems.clone();
            problems.extend(like_plain(i % plain.len(), r));
            tally.record(&format!("{}:sweep{jobs}", r.cell), &problems);
        }
        secs
    };
    let sweep_1 = sweep(1, &mut tally);
    let sweep_n = sweep(workers(), &mut tally);

    // Observer cost on the first cell: stripped of observers, with a JSONL
    // tracer only, and with telemetry only. The tracer must not change the
    // simulated result; telemetry adds engine events, so it may.
    let bare = cells[0].with_observers(Observers::default());
    let bare_run = if cells[0].observers == Observers::default() {
        plain[0].clone()
    } else {
        pass(
            "bare",
            std::slice::from_ref(&bare),
            serial,
            anything,
            &mut spans,
            &mut tally,
        )
        .remove(0)
    };
    let jsonl = pass(
        "jsonl",
        &[bare.with_observers(Observers {
            jsonl: true,
            telemetry: false,
        })],
        serial,
        |_, r| same_digest(r, &bare_run, "bare"),
        &mut spans,
        &mut tally,
    )
    .remove(0);
    let telemetry = pass(
        "telemetry",
        &[bare.with_observers(Observers {
            jsonl: false,
            telemetry: true,
        })],
        serial,
        anything,
        &mut spans,
        &mut tally,
    )
    .remove(0);

    let counter = |name: &str| plain.iter().map(|r| r.counters.get(name)).sum::<u64>() as f64;
    let run_s = sum(&plain, |r| r.run_s);
    let events = sum(&plain, |r| r.events() as f64);
    let profiled_run_s = sum(&profiled, |r| r.run_s);
    let profiled_total_s = sum(&profiled, |r| {
        r.profile.as_ref().map_or(0, |p| p.total_ns) as f64 / 1e9
    });
    let (_, _, scheduler_ns) = span_totals(&profiled, "scheduler");
    let (transport_calls, _, transport_ns) = span_totals(&profiled, "transport");
    let (_, encode_ns, _) = span_totals(&profiled, "erasure_encode");
    let (_, decode_ns, _) = span_totals(&profiled, "erasure_decode");
    let tx = counter("link.tx_packets");
    let drops = counter("queue.drops");
    let retransmits = counter("rc.retransmits");
    let lp1_run_s = sum(&lp1, |r| r.run_s);

    let values = vec![
        sum(&plain, |r| r.gen_s),
        sum(&plain, |r| r.flows as f64),
        sum(&plain, |r| r.bytes as f64),
        sum(&plain, |r| r.new_s),
        sum(&plain, |r| r.add_specs_s),
        plain[0].links as f64,
        plain[0].hosts as f64,
        run_s,
        events,
        ratio(run_s * 1e9, events),
        ratio(events, run_s),
        sum(&plain, |r| r.run_cpu_s),
        scheduler_ns / 1e9,
        ratio(scheduler_ns / 1e9, profiled_run_s),
        profiled_run_s - profiled_total_s,
        tx,
        drops,
        counter("queue.ecn_marks"),
        counter("queue.phantom_marks"),
        ratio(drops, tx + drops),
        counter("pfc.pauses"),
        counter("pfc.paused_ns"),
        transport_ns / 1e9,
        transport_calls,
        (encode_ns + decode_ns) / 1e9,
        counter("cc.epochs"),
        counter("cc.epoch_md"),
        counter("cc.quick_adapt_activations"),
        counter("rc.nacks"),
        counter("rc.rtos"),
        retransmits,
        counter("rc.fast_rtx"),
        counter("rc.rtt_samples"),
        counter("lb.reroutes"),
        ratio(retransmits, sum(&plain, |r| r.packets as f64) + retransmits),
        jsonl.trace_lines as f64,
        jsonl.trace_bytes as f64,
        ratio(jsonl.run_s, bare_run.run_s),
        ratio(telemetry.run_s, bare_run.run_s),
        sum(&plain, |r| r.summarize_s),
        ratio(profiled_run_s, run_s),
        ratio(
            ratio(sum(&lp1, |r| r.events() as f64), lp1_run_s),
            ratio(events, run_s),
        ),
        ratio(lp1_run_s, sum(&lp_n, |r| r.run_s)),
        f64::from(u8::from(lp_match)),
        ratio(sweep_1, sweep_n),
    ];
    assert_eq!(values.len(), PER_LAYER.len(), "one value per metric");

    let profiles = profiled
        .iter()
        .map(|r| {
            let report = r.profile.clone().unwrap_or_default();
            (r.cell.to_string(), report.to_value())
        })
        .collect();
    let slices = sliced
        .iter()
        .map(|r| (r.cell.to_string(), r.slice_rates.serialize_value()))
        .collect();
    let per_layer: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .zip(&values)
        .map(|(d, v)| (d.name.to_string(), *v))
        .collect();
    let detail = Value::Object(vec![
        ("per_layer".into(), per_layer.serialize_value()),
        ("lp_workers".into(), Value::U64(workers() as u64)),
        ("problems".into(), tally.problems.serialize_value()),
        ("profiles".into(), Value::Object(profiles)),
        ("slice_events_per_s".into(), Value::Object(slices)),
        ("spans".into(), spans.to_value()),
    ]);
    Traced {
        values,
        tally,
        detail,
    }
}
