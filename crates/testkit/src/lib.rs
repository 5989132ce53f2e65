//! # uno-testkit — cross-stack correctness harness for the Uno reproduction
//!
//! Three pillars (see `TESTING.md` at the repo root for the full catalogue):
//!
//! 1. **Protocol invariants** ([`invariant`]): stack-wide safety and
//!    liveness properties — queue byte conservation, capacity bounds, cwnd
//!    bounds, counter monotonicity, NACK discipline, UnoRC completion
//!    soundness, RTT sanity, recovery liveness, terminal-outcome soundness,
//!    watchdog liveness, and four lossless-fabric checks (PFC pause
//!    discipline, pause-storm detection, cyclic-buffer-dependency deadlock
//!    detection, pause liveness) — evaluated online from the `uno-trace`
//!    event stream. Arming them is a tracer choice, so the simulator's hot
//!    paths pay nothing when checking is off.
//! 2. **Differential oracles** ([`naive_rs`], [`fluid`]): an independent
//!    O(n·k) Reed–Solomon reference checked byte-for-byte against
//!    `uno-erasure`, and a fluid-model throughput bound checked against
//!    steady-state runs of every congestion-control scheme.
//! 3. **Fault-injection fuzzing** ([`scenario`], [`shrink`](mod@shrink),
//!    [`erasure_fuzz`], the `uno-fuzz` binary): seed-derived random
//!    topology/workload/fault scenarios run on the full stack with all
//!    invariants armed, plus `--erasure` codec cases differentially checked
//!    against the naive oracle; failures are greedily shrunk to minimal
//!    reproducers written to `results/` and replayable via committed
//!    regression files.

#![warn(missing_docs)]

pub mod digest;
pub mod erasure_fuzz;
pub mod fluid;
pub mod invariant;
pub mod naive_rs;
pub mod scenario;
pub mod shrink;
pub mod spec;

pub use digest::{sha256_hex, Sha256};
pub use erasure_fuzz::{
    erasure_case_hash, run_erasure_case, shrink_erasure_case, write_erasure_repro, ErasureCase,
    ErasureShrinkResult,
};
pub use fluid::{incast_check, FluidCheck};
pub use invariant::{ArmedChecker, CheckReport, InvariantChecker, InvariantSuite, Violation};
pub use naive_rs::NaiveReedSolomon;
pub use scenario::{
    run_scenario, run_scenario_traced, scheme_by_index, Fault, FlowDesc, Outcome, Scenario,
    TracedRun,
};
pub use shrink::{repro_hash, shrink, write_repro, ShrinkResult};
pub use spec::{FlowNetInfo, NetSpec};
