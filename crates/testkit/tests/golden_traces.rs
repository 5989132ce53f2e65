//! Differential golden-trace regression suite.
//!
//! Every cell runs a fully seeded simulation with the JSONL tracer armed
//! and digests the complete event stream plus the byte-stable run tables
//! (counter snapshot, FCT records, telemetry section). The digests are
//! committed in `golden/trace_digests.json`; an engine refactor passes this
//! suite only if it is *byte-identical* to the engine that generated the
//! goldens — same packets, same queue decisions, same RNG draws, same JSON.
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! UNO_UPDATE_GOLDEN=1 cargo test -p uno-testkit --test golden_traces
//! ```
//!
//! and commit the updated golden file with an explanation of why the
//! simulated behaviour legitimately changed.

use std::io::Write as _;
use std::sync::{Arc, Mutex};

use serde::Value;
use uno::sim::{SampleConfig, TopologyParams, MICROS, SECONDS};
use uno::{Experiment, ExperimentConfig};
use uno_sim::{TraceConfig, Tracer};
use uno_testkit::digest::{hex, Sha256};
use uno_testkit::scenario::SCHEME_NAMES;
use uno_testkit::{run_scenario_traced, scheme_by_index, Scenario};
use uno_workloads::incast;

/// A `Write` sink sharing one buffer with the test, so the tracer can be
/// moved into the simulator while we keep a handle on the bytes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().unwrap())
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("trace_digests.json")
}

/// Digest one cell: the raw JSONL trace followed by labelled sections for
/// every other byte-stable artifact of the run.
fn digest(trace: &[u8], sections: &[(&str, &str)]) -> String {
    let mut h = Sha256::new();
    h.update(trace);
    for (name, body) in sections {
        h.update(b"\n#");
        h.update(name.as_bytes());
        h.update(b"\n");
        h.update(body.as_bytes());
    }
    hex(&h.finish())
}

/// One fig08-slice cell: an incast on the small 2-DC topology with the
/// tracer on, digesting trace + counters + FCT table.
fn fig08_cell(scheme_idx: u8, n_intra: usize, n_inter: usize, seed: u64) -> String {
    let topo = TopologyParams::small();
    let hosts = topo.hosts_per_dc() as u32;
    let mut cfg = ExperimentConfig::quick(scheme_by_index(scheme_idx), seed);
    cfg.topo = topo;
    let mut exp = Experiment::new(cfg);
    exp.add_specs(&incast(n_intra, n_inter, 1 << 20, hosts));
    let buf = SharedBuf::default();
    exp.sim.set_tracer(Tracer::jsonl_writer(
        Box::new(buf.clone()),
        TraceConfig::all(),
    ));
    let mut r = exp.run(60 * SECONDS);
    assert!(r.all_completed, "golden incast cell must complete");
    r.manifest.wall_seconds = 0.0;
    r.manifest.events_per_sec = 0.0;
    let fcts: Vec<String> = r
        .fcts
        .iter()
        .map(|f| {
            format!(
                "flow={} size={} start={} end={} class={:?}",
                f.flow.0, f.size, f.start, f.end, f.class
            )
        })
        .collect();
    digest(
        &buf.take(),
        &[
            ("manifest", &r.manifest.to_json()),
            ("fcts", &fcts.join("\n")),
        ],
    )
}

/// One telemetry cell: same incast, sampler armed at a fine interval; the
/// digest covers the serialized telemetry section (per-link/per-flow series
/// in id order), pinning the sampler's iteration order.
fn telemetry_cell(seed: u64) -> String {
    let topo = TopologyParams::small();
    let hosts = topo.hosts_per_dc() as u32;
    let mut cfg = ExperimentConfig::quick(scheme_by_index(0), seed);
    cfg.topo = topo;
    cfg.telemetry = Some(SampleConfig::every(20 * MICROS));
    let mut exp = Experiment::new(cfg);
    exp.add_specs(&incast(3, 1, 1 << 20, hosts));
    let r = exp.run(60 * SECONDS);
    assert!(r.all_completed);
    let telemetry = serde_json::to_string(&r.telemetry.expect("telemetry was enabled")).unwrap();
    assert!(telemetry.contains("\"links\"") && telemetry.contains("\"cwnd\""));
    digest(&[], &[("telemetry", &telemetry)])
}

/// The committed calendar-stress regression scenario (faults, flapping,
/// 512 KiB queues) through the scenario runner with a JSONL tracer.
fn calendar_stress_cell() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("regressions")
        .join("calendar_overflow_flap_completes.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let sc = Scenario::from_json(&text).expect("regression scenario parses");
    let buf = SharedBuf::default();
    let tracer = Tracer::jsonl_writer(Box::new(buf.clone()), TraceConfig::all());
    let run = run_scenario_traced(&sc, tracer);
    assert!(run.terminated > 0, "scenario must produce outcomes");
    digest(
        &buf.take(),
        &[
            ("counters", &run.counters),
            ("fcts", &run.fcts.join("\n")),
            ("sim_end", &run.sim_end.to_string()),
        ],
    )
}

/// One lossless cell: a seed-derived PFC-enabled scenario through the
/// scenario runner with a JSONL tracer. Pins the entire pause machinery —
/// XOFF/XON crossings, pause-frame propagation timing, HOL blocking, and
/// resume kicks — byte-for-byte, alongside the usual counters and FCTs.
fn lossless_cell(seed: u64) -> String {
    let sc = Scenario::generate_lossless(seed, true);
    assert!(sc.lossless, "generator must arm PFC");
    let buf = SharedBuf::default();
    let tracer = Tracer::jsonl_writer(Box::new(buf.clone()), TraceConfig::all());
    let run = run_scenario_traced(&sc, tracer);
    assert!(
        run.terminated > 0,
        "lossless scenario must produce outcomes"
    );
    digest(
        &buf.take(),
        &[
            ("counters", &run.counters),
            ("fcts", &run.fcts.join("\n")),
            ("sim_end", &run.sim_end.to_string()),
        ],
    )
}

/// Run every cell, returning `(name, digest)` pairs in a stable order.
fn all_cells() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for scheme_idx in 0..4u8 {
        for (n_intra, n_inter) in [(4usize, 0usize), (2, 2)] {
            for seed in [1u64, 2] {
                let name = format!(
                    "fig08/{}/{n_intra}x{n_inter}/seed{seed}",
                    SCHEME_NAMES[scheme_idx as usize]
                );
                out.push((name, fig08_cell(scheme_idx, n_intra, n_inter, seed)));
            }
        }
    }
    for seed in [1u64, 2] {
        out.push((format!("telemetry/uno/seed{seed}"), telemetry_cell(seed)));
    }
    out.push((
        "scenario/calendar_overflow_flap_completes".to_string(),
        calendar_stress_cell(),
    ));
    for seed in [3u64, 17, 29] {
        out.push((format!("lossless/seed{seed}"), lossless_cell(seed)));
    }
    out
}

fn write_goldens(cells: &[(String, String)]) {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let v = Value::Object(
        cells
            .iter()
            .map(|(k, d)| (k.clone(), Value::Str(d.clone())))
            .collect(),
    );
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "{}", serde_json::to_string_pretty(&v).unwrap()).unwrap();
    eprintln!("wrote {} digests to {}", cells.len(), path.display());
}

#[test]
fn traces_match_committed_golden_digests() {
    let cells = all_cells();
    if std::env::var_os("UNO_UPDATE_GOLDEN").is_some() {
        write_goldens(&cells);
        return;
    }
    let path = golden_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with UNO_UPDATE_GOLDEN=1 to generate",
            path.display()
        )
    });
    let golden = serde_json::parse_value(&text).expect("golden file parses");
    let golden = golden.as_object().expect("golden file is an object");
    // Every committed digest must be reproduced, and no cell may be
    // missing from the committed set: drift in either direction fails.
    let mut mismatches = Vec::new();
    for (name, got) in &cells {
        match golden
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_str())
        {
            Some(want) if want == got => {}
            Some(want) => mismatches.push(format!("{name}: digest {got} != committed {want}")),
            None => mismatches.push(format!("{name}: no committed digest")),
        }
    }
    for (k, _) in golden.iter() {
        if !cells.iter().any(|(name, _)| name == k) {
            mismatches.push(format!("{k}: committed digest has no cell"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden-trace mismatch(es) — the simulation is no longer \
         byte-identical to the engine that generated the goldens:\n  {}\n\
         If the change is intentional, regenerate with UNO_UPDATE_GOLDEN=1 \
         and explain the behaviour change in the commit.",
        mismatches.len(),
        mismatches.join("\n  ")
    );
}

/// The digest helper itself must be stable: two runs of the same seed in
/// the same process must agree (catches accidental global state).
#[test]
fn cells_are_deterministic_within_a_process() {
    let a = fig08_cell(0, 2, 2, 7);
    let b = fig08_cell(0, 2, 2, 7);
    assert_eq!(a, b);
}
