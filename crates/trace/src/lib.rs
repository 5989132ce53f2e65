//! # uno-trace — observability for the Uno reproduction
//!
//! Three pieces, each usable on its own:
//!
//! * **Structured event traces** — a compact [`TraceEvent`] enum covering
//!   queue operations (enqueue / dequeue / drop / ECN mark), link losses,
//!   and transport decisions (ack / nack / timeout / reroute / cwnd change /
//!   epoch boundary / Quick Adapt), written through a [`Tracer`] to an
//!   in-memory ring buffer, a live callback, or a streaming JSONL writer
//!   that receives whole lines in 64 KiB blocks. A [`TraceConfig`]
//!   filters by flow, link, or event class; when tracing is off the hot-path
//!   cost is a single branch on [`Tracer::enabled`].
//! * **Counter registry** — hierarchically named monotonic [`Counters`]
//!   (`queue.drops`, `cc.quick_adapt_activations`, `rc.nacks`, …) that each
//!   component registers and the simulator snapshots per run. Snapshots are
//!   ordered maps, so their JSON form is deterministic: two same-seed runs
//!   produce byte-identical snapshots.
//! * **Run manifests** — a [`RunManifest`] records what an experiment ran
//!   (seed, topology parameters, scheme) and what happened (sim time,
//!   wall-clock, events/sec, final counter snapshot), written as JSON next
//!   to the experiment's results.
//!
//! The crate sits *below* the simulator: events refer to flows and links by
//! raw ids so `uno-sim`, `uno-transport`, and `uno` can all depend on it.
//!
//! Two further pieces form the telemetry plane:
//!
//! * **Deterministic time-series sampling** — a [`Telemetry`] collector the
//!   engine drives on a periodic event, recording per-link queue state,
//!   per-flow transport state ([`FlowSample`]) and fault-plane state into
//!   bounded-memory [`Series`] (2x-downsampling compaction). Serializes as
//!   the byte-stable `telemetry` section of run artifacts.
//! * **Span self-profiler** — a [`Profiler`] with hierarchical wall-clock
//!   spans and a one-branch disabled path, aggregated into a
//!   [`ProfileReport`] (inclusive/exclusive table, collapsed-stack export).
//!
//! The `uno-inspect` binary renders a run artifact (counters, telemetry
//! timelines, profile breakdown) and diffs two runs; `uno-inspect
//! summarize` turns a JSONL trace back into per-flow cwnd/rate timelines
//! and per-queue occupancy/mark tables.

#![warn(missing_docs)]

mod counters;
mod event;
mod manifest;
mod meter;
pub mod profile;
pub mod sample;
mod summary;
mod tracer;

pub use counters::Counters;
pub use event::{EventClass, Time, TraceEvent};
pub use manifest::RunManifest;
pub use meter::RateMeter;
pub use profile::{ProfileReport, ProfileRow, Profiler};
pub use sample::{FlowSample, SampleConfig, Series, Telemetry};
pub use summary::{FlowSummary, QueueSummary, TraceSummary};
pub use tracer::{TraceConfig, Tracer};
