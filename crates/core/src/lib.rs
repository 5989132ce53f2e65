//! # uno — a from-scratch reproduction of *Uno: A One-Stop Solution for
//! Inter- and Intra-Data Center Congestion Control and Reliable
//! Connectivity* (SC '25)
//!
//! Uno unifies congestion control, load balancing and loss resiliency for
//! traffic inside and across datacenters:
//!
//! * **UnoCC** (`uno_transport::UnoCc`) — one AIMD control loop for both
//!   intra- and inter-DC flows, reacting to ECN at the *same* (intra-RTT)
//!   epoch granularity, with phantom-queue-aware gentle reduction and Quick
//!   Adapt for extreme congestion;
//! * **UnoRC** — erasure-coded blocks (`uno_erasure::EcParams`, default
//!   (8, 2)) spread over **UnoLB** subflows, with receiver block timers and
//!   NACKs, so inter-DC messages survive bursty loss and link failures
//!   without waiting out WAN retransmission timeouts. The receiver counts
//!   distinct arrivals per block; the byte-level codec in `uno_erasure`
//!   only checks that rule.
//!
//! This crate is the facade tying the substrates together: scheme
//! definitions matching the paper's comparisons ([`SchemeSpec`]), the
//! experiment driver ([`Experiment`]) binding workloads to the simulated
//! dual-datacenter fat-tree, the [`SweepRunner`] that fans independent runs
//! over threads, and the analytic models behind Fig. 1.
//!
//! ## Quickstart
//!
//! ```
//! use uno::{Experiment, ExperimentConfig, SchemeSpec};
//! use uno_workloads::FlowSpec;
//! use uno_sim::SECONDS;
//!
//! // Uno on a small dual-DC fat-tree; one 1 MiB flow across the WAN.
//! let mut exp = Experiment::new(ExperimentConfig::quick(SchemeSpec::uno(), 42));
//! exp.add_specs(&[FlowSpec {
//!     src_dc: 0, src_idx: 0, dst_dc: 1, dst_idx: 3,
//!     size: 1 << 20, start: 0,
//! }]);
//! let results = exp.run(SECONDS);
//! assert!(results.all_completed);
//! println!("FCT: {} us", results.fcts[0].fct() / 1_000);
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod experiment;
pub mod scheme;
pub mod sweep;

pub use experiment::{ideal_fct, Experiment, ExperimentConfig, ExperimentResults};
pub use scheme::{CcKind, SchemeSpec};
pub use sweep::SweepRunner;

// Re-export the substrate crates under one roof for downstream users.
pub use uno_erasure as erasure;
pub use uno_metrics as metrics;
pub use uno_sim as sim;
pub use uno_transport as transport;
pub use uno_workloads as workloads;
