//! Quickstart: run one Uno flow across the simulated WAN and print its FCT.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use uno::sim::{FlowClass, SECONDS};
use uno::{Experiment, ExperimentConfig, SchemeSpec};
use uno_workloads::FlowSpec;

fn main() {
    // A scaled-down dual-datacenter fat-tree (k=4, 16 hosts per DC,
    // 100 Gbps links, 14 us intra-DC RTT, 2 ms inter-DC RTT) running the
    // full Uno stack: UnoCC congestion control over phantom queues, UnoLB
    // subflow load balancing, and (8,2) erasure coding on WAN flows.
    let mut exp = Experiment::new(ExperimentConfig::quick(SchemeSpec::uno(), 42));

    // One 8 MiB message from host 0 of DC 0 to host 3 of DC 1, plus one
    // intra-DC message between two hosts of DC 0.
    exp.add_specs(&[
        FlowSpec {
            src_dc: 0,
            src_idx: 0,
            dst_dc: 1,
            dst_idx: 3,
            size: 8 << 20,
            start: 0,
        },
        FlowSpec {
            src_dc: 0,
            src_idx: 1,
            dst_dc: 0,
            dst_idx: 9,
            size: 8 << 20,
            start: 0,
        },
    ]);

    let results = exp.run(SECONDS);
    assert!(results.all_completed);

    println!("scheme: {}", results.scheme);
    for fct in &results.fcts {
        let class = match fct.class {
            FlowClass::Inter => "inter-DC",
            FlowClass::Intra => "intra-DC",
        };
        println!(
            "{class} flow {:?}: {} bytes in {:.3} ms",
            fct.flow,
            fct.size,
            fct.fct() as f64 / 1e6
        );
    }
    let counters = &results.manifest.counters;
    println!(
        "network: {} packets transmitted, {} ECN marks, {} drops",
        counters.get("link.tx_packets"),
        counters.get("queue.ecn_marks"),
        counters.get("queue.drops")
    );

    // Every run carries a manifest: seed, topology, engine throughput and
    // the final counter snapshot. Drop it next to the results.
    let mut manifest = results.manifest;
    manifest.name = "quickstart".into();
    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/MANIFEST_quickstart.json";
    manifest.write_to(path).expect("write manifest");
    println!(
        "manifest: {path} ({:.0} events/s, {} events)",
        manifest.events_per_sec, manifest.events_processed
    );
}
