//! # uno-sim — packet-level discrete-event network simulator
//!
//! An htsim-style simulator purpose-built for reproducing *Uno: A One-Stop
//! Solution for Inter- and Intra-Data Center Congestion Control and Reliable
//! Connectivity* (SC '25). It models:
//!
//! * store-and-forward output-queued switches with byte-limited FIFO queues,
//!   RED ECN marking, and optional HULL-style **phantom queues**; in-flight
//!   packets live in one slab ([`PacketPool`]) and queues and events carry
//!   4-byte handles, in fixed blocks that the scheduler's wheel and the
//!   port FIFOs draw from one shared slab ([`BlockPool`]);
//! * links with serialization + propagation delay, failure events, and
//!   correlated (Gilbert–Elliott) loss processes;
//! * dual-datacenter **k-ary fat-tree** topologies joined by border switches
//!   (the paper's evaluation topology);
//! * entropy-hashed ECMP routing, the substrate for every load-balancing
//!   scheme in the paper (ECMP, packet spraying/RPS, PLB, UnoLB);
//! * a deterministic event engine with a protocol-agnostic [`FlowLogic`]
//!   callback interface that the transport crates plug into.
//!
//! The engine is single-threaded and deterministic by construction (seeded
//! RNG + FIFO tie-breaking in the event queue): the same seed always yields
//! bit-identical results, which the experiment harness relies on. Parallelism
//! across independent simulation runs lives in the harness, not here.
//!
//! ```
//! use uno_sim::{Simulator, Topology, TopologyParams};
//!
//! let topo = Topology::build(TopologyParams::small());
//! let sim = Simulator::new(topo, 42);
//! assert_eq!(sim.now(), 0);
//! ```

#![warn(missing_docs)]

pub mod blocks;
pub mod engine;
pub mod event;
pub mod fault;
pub mod ids;
pub mod loss;
pub mod packet;
pub mod pool;
pub mod queue;
pub mod tables;
pub mod time;
pub mod topology;

pub use blocks::BlockPool;
pub use engine::{
    Action, Ctx, FailRecord, FctRecord, FlowClass, FlowLogic, FlowMeta, FlowOutcome, LinkStats,
    QueueSampler, Simulator, StallCause,
};
pub use fault::{FaultEntry, FaultKind, FaultPlane, FaultSpec, FaultTarget, LinkHealth};
// Observability vocabulary, re-exported so dependents need not name
// `uno-trace` directly.
pub use ids::{FlowId, LinkId, NodeId};
pub use loss::{ChunkLossStats, GilbertElliott};
pub use packet::{Packet, PacketKind};
pub use pool::{PacketPool, PacketRef};
pub use queue::{EnqueueOutcome, PhantomProfile, PhantomQueue, PortQueue, QueueProfile, RedParams};
pub use tables::{FlowTable, FwdTable, LinkProfile, LinkTable};
pub use time::{Bps, Time, GBPS, MICROS, MILLIS, NANOS, SECONDS};
pub use topology::{
    ecmp_pick, FabricMode, HostCoords, LinkClass, Node, NodeKind, PfcParams, PhantomParams,
    Topology, TopologyParams,
};
pub use uno_trace::{
    Counters, FlowSample, ProfileReport, Profiler, RateMeter, RunManifest, SampleConfig, Series,
    Telemetry, TraceConfig, TraceEvent, TraceSummary, Tracer,
};
