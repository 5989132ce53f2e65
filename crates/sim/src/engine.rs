//! The discrete-event simulation engine.
//!
//! The engine owns the topology and a set of flows. Flow behaviour (transport
//! protocols, erasure coding, load balancing) is injected through the
//! [`FlowLogic`] trait: the engine calls back on packet delivery and timer
//! expiry, and the logic responds with [`Action`]s (send a packet, arm a
//! timer, report progress, declare completion). This inversion keeps the
//! engine free of protocol knowledge and the protocols free of borrow
//! entanglement with engine internals.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use uno_trace::{
    Counters, FlowSample, Profiler, RateMeter, SampleConfig, Telemetry, TraceEvent, Tracer,
};

use crate::event::{Event, EventQueue};
use crate::fault::{exp_dwell, FaultKind, FaultPlane, FaultSpec, LinkHealth};
use crate::ids::{FlowId, LinkId, NodeId};
use crate::loss::GilbertElliott;
use crate::packet::Packet;
use crate::pool::{PacketPool, PacketRef};
use crate::queue::EnqueueOutcome;
use crate::tables::{FlowTable, LinkTable};
use crate::time::{serialization_time, Time};
use crate::topology::Topology;

/// Whether a flow stays within one DC or crosses the WAN.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FlowClass {
    /// Both endpoints in the same datacenter.
    Intra,
    /// Endpoints in different datacenters.
    Inter,
}

/// Static description of a flow, used for bookkeeping and FCT records.
#[derive(Clone, Debug)]
pub struct FlowMeta {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size: u64,
    /// Absolute start time.
    pub start: Time,
    /// Intra- or inter-DC.
    pub class: FlowClass,
}

/// Completion record for a finished flow.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FctRecord {
    /// The flow.
    pub flow: FlowId,
    /// Application bytes transferred.
    pub size: u64,
    /// Start time.
    pub start: Time,
    /// Completion time (last needed ACK at the sender).
    pub end: Time,
    /// Intra or inter.
    pub class: FlowClass,
}

impl FctRecord {
    /// Flow completion time.
    pub fn fct(&self) -> Time {
        self.end - self.start
    }
}

/// Terminal disposition of a flow. Every flow that terminates is exactly
/// one of these; flows still running at the horizon have no outcome yet
/// (they show up as censored FCTs instead).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FlowOutcome {
    /// Delivered every byte.
    Completed,
    /// The stall watchdog declared the flow dead: no cumulative-ACK
    /// progress for its stall horizon. `cause` records what the watchdog
    /// believed was starving the flow at declaration time.
    Stalled {
        /// Why the flow made no progress.
        cause: StallCause,
    },
    /// The bounded-retry budget ran out: too many consecutive RTOs with no
    /// progress.
    Aborted,
}

impl FlowOutcome {
    /// True for either stall cause; use instead of `==` on the variant.
    pub fn is_stalled(&self) -> bool {
        matches!(self, FlowOutcome::Stalled { .. })
    }
}

/// What the stall watchdog blames when it declares a flow dead. On a
/// lossless fabric, zero progress under an asserted PFC pause is a
/// backpressure symptom (congestion spreading, possibly a pause storm or
/// buffer-dependency deadlock upstream), not ordinary path congestion —
/// the two need different operator responses, so the outcome keeps them
/// distinct.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum StallCause {
    /// No progress with the source uplink unpaused: loss, blackholing, or
    /// plain congestion along the path.
    Congestion,
    /// The source host's NIC uplink was paused by PFC when the watchdog
    /// fired: the fabric itself was refusing the flow's bytes.
    PfcBackpressure,
}

/// Record for a flow that terminated without completing (stalled or
/// aborted), the failure-side counterpart of [`FctRecord`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FailRecord {
    /// The flow.
    pub flow: FlowId,
    /// Application bytes it was supposed to transfer.
    pub size: u64,
    /// Start time.
    pub start: Time,
    /// Time the flow gave up.
    pub end: Time,
    /// Intra or inter.
    pub class: FlowClass,
    /// Why it gave up ([`FlowOutcome::Stalled`] or [`FlowOutcome::Aborted`]).
    pub outcome: FlowOutcome,
}

/// Actions a flow emits from its callbacks.
#[derive(Clone, Debug)]
pub enum Action {
    /// Inject a packet at its source host's NIC.
    Send(Packet),
    /// Arm a timer that fires [`FlowLogic::on_timer`] with `token`.
    Timer {
        /// Absolute fire time.
        at: Time,
        /// Opaque token returned to the flow.
        token: u64,
    },
    /// Declare the flow complete (records the FCT).
    Complete,
    /// Declare the flow terminally failed (stalled or aborted); the flow
    /// leaves the simulator and a [`FailRecord`] is kept instead of an FCT.
    Fail(FlowOutcome),
    /// Report cumulative acknowledged bytes (rate time-series).
    Progress(u64),
}

/// Callback context handed to [`FlowLogic`] methods.
pub struct Ctx<'a> {
    /// Current simulation time.
    pub now: Time,
    /// Id of the flow being called.
    pub flow: FlowId,
    /// Deterministic simulation RNG.
    pub rng: &'a mut SmallRng,
    /// Read access to the topology.
    pub topo: &'a Topology,
    /// Structured event sink (branch on [`Tracer::enabled`] before building
    /// events — see [`Ctx::tracing`]).
    pub tracer: &'a mut Tracer,
    /// Span self-profiler: transports may nest their own spans (e.g.
    /// erasure encode/decode) under the engine's `transport` span. With
    /// profiling off, [`Profiler::enter`]/[`Profiler::exit`] are one branch.
    pub profiler: &'a mut Profiler,
    actions: &'a mut Vec<Action>,
}

impl Ctx<'_> {
    /// Send `pkt` (injected at `pkt.src`'s NIC uplink).
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(Action::Send(pkt));
    }

    /// Arm a timer `delay` from now.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.actions.push(Action::Timer {
            at: self.now + delay,
            token,
        });
    }

    /// Declare the flow complete.
    pub fn complete(&mut self) {
        self.actions.push(Action::Complete);
    }

    /// Declare the flow terminally failed: it stops participating in the
    /// simulation and is recorded as stalled/aborted rather than hanging
    /// the run. `outcome` must not be [`FlowOutcome::Completed`].
    pub fn fail(&mut self, outcome: FlowOutcome) {
        debug_assert_ne!(outcome, FlowOutcome::Completed, "use complete()");
        self.actions.push(Action::Fail(outcome));
    }

    /// Report cumulative acked bytes (recorded only when the flow was added
    /// with progress recording enabled).
    pub fn progress(&mut self, cumulative_bytes: u64) {
        self.actions.push(Action::Progress(cumulative_bytes));
    }

    /// A uniformly random path-entropy value.
    pub fn random_entropy(&mut self) -> u16 {
        self.rng.gen()
    }

    /// True when a trace sink is attached: callers skip building
    /// [`TraceEvent`]s entirely when this is false.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.enabled()
    }

    /// Record a structured trace event.
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        if self.profiler.is_enabled() {
            self.profiler.enter("trace");
            self.tracer.emit(ev);
            self.profiler.exit();
        } else {
            self.tracer.emit(ev);
        }
    }
}

/// Protocol logic driven by the engine.
pub trait FlowLogic {
    /// Called once at the flow's start time.
    fn on_start(&mut self, ctx: &mut Ctx);
    /// Called when a packet addressed to one of the flow's endpoints arrives.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx);
    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx);
    /// Contribute this flow's counters (`cc.*`, `rc.*`, `lb.*`) to a run
    /// snapshot; values are summed across flows. Default: contributes none.
    fn report_counters(&self, counters: &mut Counters) {
        let _ = counters;
    }
    /// Snapshot this flow's transport state for the periodic telemetry
    /// collector (cwnd, srtt, outstanding, delivered). Default: no sample,
    /// so non-transport test logics opt out automatically.
    fn telemetry_sample(&self) -> Option<FlowSample> {
        None
    }
    /// Called exactly once, right after the flow reaches a terminal state
    /// (completed or failed). The engine never calls `on_start`/`on_packet`/
    /// `on_timer` again afterwards, so transports use this to release
    /// per-flow working memory (send state, receive bitmaps) while keeping
    /// the counters that [`FlowLogic::report_counters`] still reads at the
    /// end of the run. Default: no-op.
    fn on_terminated(&mut self) {}
}

/// Periodic sampler of a link queue's physical (and phantom) occupancy.
#[derive(Clone, Debug)]
pub struct QueueSampler {
    /// Sampled link.
    pub link: LinkId,
    /// Sampling period.
    pub interval: Time,
    /// (time, physical bytes) samples.
    pub samples: Vec<(Time, u64)>,
    /// (time, phantom bytes) samples (empty when no phantom queue).
    pub phantom_samples: Vec<(Time, u64)>,
}

/// Aggregate drop/mark/transmit statistics over all links.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Packets dropped at full queues.
    pub queue_drops: u64,
    /// Packets ECN-marked.
    pub ecn_marks: u64,
    /// Of [`NetworkStats::ecn_marks`], marks driven by phantom queues.
    pub phantom_marks: u64,
    /// Packets lost to loss processes or failed links.
    pub link_losses: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
}

/// Per-link drop/mark/transmit statistics (the per-link breakdown of
/// [`NetworkStats`]).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Link id.
    pub link: u32,
    /// Packets dropped at this link's (full) egress queue.
    pub drops: u64,
    /// Packets ECN-marked on enqueue.
    pub ecn_marks: u64,
    /// Of `ecn_marks`, marks driven by the phantom queue.
    pub phantom_marks: u64,
    /// Packets lost on the link (failures, loss processes).
    pub losses: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// High-water mark of the egress queue in bytes.
    pub max_queue_bytes: u64,
}

/// The simulator: topology + event queue + flows.
pub struct Simulator {
    /// The network.
    pub topo: Topology,
    events: EventQueue,
    /// Every packet between [`Action::Send`] and its delivery or drop; the
    /// event queue and port queues hold handles into it.
    packets: PacketPool,
    now: Time,
    rng: SmallRng,
    flows: FlowTable,
    terminated_flows: usize,
    /// Completion records, in completion order.
    pub fcts: Vec<FctRecord>,
    /// Failure records (stalled/aborted flows), in failure order.
    pub failures: Vec<FailRecord>,
    /// Installed fault plane (empty unless [`Simulator::install_faults`]
    /// was called).
    pub fault: FaultPlane,
    /// Registered queue samplers.
    pub samplers: Vec<QueueSampler>,
    /// Per-flow progress time-series (empty unless enabled per flow).
    pub progress: Vec<Vec<(Time, u64)>>,
    /// Free list of action buffers for [`Simulator::call_flow`]: buffers
    /// are checked out per callback and returned with their capacity
    /// intact, so the steady-state hot path performs no allocation.
    action_pool: Vec<Vec<Action>>,
    /// Total events processed (for engine benchmarking). A `LinkFree`
    /// transition the engine left unscheduled, because no packet waited for
    /// the port, counts too, once the run passes its position: at the
    /// port's next transmission or when [`Simulator::run_until`] returns.
    /// The total therefore equals the pops of an engine that scheduled
    /// every transition.
    pub events_processed: u64,
    /// Structured event sink (defaults to disabled; see [`Tracer`]).
    pub tracer: Tracer,
    /// Engine-speed meter: events processed per wall-clock second spent
    /// inside [`Simulator::run_until`] (consumed by run manifests and
    /// `uno-perfkit`).
    meter: RateMeter,
    /// Periodic telemetry collector (absent unless
    /// [`Simulator::enable_telemetry`] was called).
    pub telemetry: Option<Telemetry>,
    /// Span self-profiler (disabled by default: every span site is a
    /// single branch until [`Profiler::set_enabled`] switches it on).
    pub profiler: Profiler,
    /// Progress-heartbeat state (absent unless
    /// [`Simulator::set_heartbeat`] was called).
    heartbeat: Option<Heartbeat>,
}

/// Wall-clock progress-heartbeat state: prints a one-line status to stderr
/// at a wall interval. Reads the wall clock but never writes simulated
/// state, so it stays outside the determinism guarantee like the meter.
struct Heartbeat {
    interval: std::time::Duration,
    started: std::time::Instant,
    last: std::time::Instant,
    last_events: u64,
}

impl Simulator {
    /// Create a simulator over `topo` with a deterministic RNG `seed`.
    pub fn new(topo: Topology, seed: u64) -> Self {
        Simulator {
            topo,
            events: EventQueue::new(),
            packets: PacketPool::new(),
            now: 0,
            rng: SmallRng::seed_from_u64(seed),
            flows: FlowTable::default(),
            terminated_flows: 0,
            fcts: Vec::new(),
            failures: Vec::new(),
            fault: FaultPlane::default(),
            samplers: Vec::new(),
            progress: Vec::new(),
            action_pool: Vec::new(),
            events_processed: 0,
            tracer: Tracer::disabled(),
            meter: RateMeter::new(),
            telemetry: None,
            profiler: Profiler::disabled(),
            heartbeat: None,
        }
    }

    /// Attach a structured event sink (replacing any previous one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of registered flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of flows that delivered every byte.
    pub fn num_completed(&self) -> usize {
        self.fcts.len()
    }

    /// Number of terminated flows: completed plus failed (stalled/aborted).
    /// A run is over when this reaches [`Simulator::num_flows`].
    pub fn num_terminated(&self) -> usize {
        self.terminated_flows
    }

    /// Register a flow; its [`FlowLogic::on_start`] runs at `meta.start`.
    pub fn add_flow(&mut self, meta: FlowMeta, logic: Box<dyn FlowLogic>) -> FlowId {
        self.add_flow_recorded(meta, logic, false)
    }

    /// Like [`Self::add_flow`], optionally recording progress reports.
    pub fn add_flow_recorded(
        &mut self,
        meta: FlowMeta,
        logic: Box<dyn FlowLogic>,
        record_progress: bool,
    ) -> FlowId {
        let id = FlowId::from(self.flows.len());
        self.events.push(meta.start, Event::FlowStart(id));
        self.flows.push(meta, logic, record_progress);
        self.progress.push(Vec::new());
        id
    }

    /// Metadata of flow `id`.
    pub fn flow_meta(&self, id: FlowId) -> &FlowMeta {
        self.flows.meta(id.index())
    }

    /// Records for flows that have **not** completed, with `end` set to the
    /// current time — i.e. FCT lower bounds. Reporting these alongside the
    /// real completions avoids censoring bias when a run hits its horizon
    /// (dropping unfinished flows makes slow schemes look *better*).
    pub fn censored_fcts(&self) -> Vec<FctRecord> {
        (0..self.flows.len())
            .filter(|&i| !self.flows.is_done(i) && self.flows.meta(i).start < self.now)
            .map(|i| {
                let m = self.flows.meta(i);
                FctRecord {
                    flow: FlowId::from(i),
                    size: m.size,
                    start: m.start,
                    end: self.now,
                    class: m.class,
                }
            })
            .collect()
    }

    /// Attach a stochastic loss process to a link.
    pub fn set_link_loss(&mut self, link: LinkId, model: GilbertElliott) {
        self.topo.links.set_loss(link, Some(model));
    }

    /// Schedule a link failure at absolute time `t`.
    pub fn schedule_link_down(&mut self, link: LinkId, t: Time) {
        self.events.push(t, Event::LinkDown(link));
    }

    /// Schedule a link recovery at absolute time `t`.
    pub fn schedule_link_up(&mut self, link: LinkId, t: Time) {
        self.events.push(t, Event::LinkUp(link));
    }

    /// Resolve and install a declarative fault schedule. Every onset and
    /// healing transition becomes an ordinary event, so fault timing is as
    /// deterministic as the rest of the simulation. Errors on invalid
    /// targets or parameters; installing on top of an earlier spec replaces
    /// nothing (faults accumulate).
    pub fn install_faults(&mut self, spec: &FaultSpec) -> Result<(), String> {
        let plane = FaultPlane::resolve(spec, &self.topo)?;
        let base = self.fault.entries.len() as u32;
        for (i, e) in plane.entries.iter().enumerate() {
            self.events.push(e.at, Event::FaultStart(base + i as u32));
            if let Some(until) = e.until {
                self.events.push(until, Event::FaultEnd(base + i as u32));
            }
        }
        self.fault.entries.extend(plane.entries);
        Ok(())
    }

    /// Terminal outcome of flow `id`, if it has one yet.
    pub fn flow_outcome(&self, id: FlowId) -> Option<FlowOutcome> {
        self.flows.outcome(id.index())
    }

    /// Terminal outcomes for every flow, in flow-id order (`None` = still
    /// running at the current time).
    pub fn flow_outcomes(&self) -> Vec<Option<FlowOutcome>> {
        self.flows.outcomes()
    }

    /// Register a periodic occupancy sampler on `link`, starting at `start`.
    pub fn add_queue_sampler(&mut self, link: LinkId, interval: Time, start: Time) -> usize {
        let idx = self.samplers.len();
        self.samplers.push(QueueSampler {
            link,
            interval,
            samples: Vec::new(),
            phantom_samples: Vec::new(),
        });
        self.events.push(start, Event::Sample(idx as u32));
        idx
    }

    /// Install the periodic telemetry collector (replacing any previous
    /// one) and schedule its first tick at the current time. Each tick
    /// snapshots per-link queue state, per-flow transport state and
    /// fault-plane state into bounded-memory series; see [`Telemetry`].
    pub fn enable_telemetry(&mut self, cfg: SampleConfig) {
        self.telemetry = Some(Telemetry::new(cfg));
        self.events.push(self.now, Event::Telemetry);
    }

    /// Print a one-line progress heartbeat (sim time, wall time, events/s,
    /// total queued bytes) to stderr every `interval` of wall time while
    /// the run loop is active. Off by default.
    pub fn set_heartbeat(&mut self, interval: std::time::Duration) {
        self.heartbeat = Some(Heartbeat {
            interval,
            started: std::time::Instant::now(),
            last: std::time::Instant::now(),
            last_events: 0,
        });
    }

    /// Emit a heartbeat line if the wall interval elapsed. Reads clocks and
    /// queue occupancy; never mutates simulated state.
    fn heartbeat_tick(&mut self) {
        let Some(hb) = &mut self.heartbeat else {
            return;
        };
        let elapsed = hb.last.elapsed();
        if elapsed < hb.interval {
            return;
        }
        let mut meter = RateMeter::new();
        meter.record(self.events_processed - hb.last_events, elapsed);
        let queued: u64 = self.topo.links.total_queued_bytes();
        eprintln!(
            "[uno] sim {:.3} ms | wall {:.1} s | {:.2} Mev/s | {} events | queued {} B",
            self.now as f64 / 1e6,
            hb.started.elapsed().as_secs_f64(),
            meter.per_sec() / 1e6,
            self.events_processed,
            queued
        );
        hb.last = std::time::Instant::now();
        hb.last_events = self.events_processed;
    }

    /// Aggregate network statistics.
    pub fn network_stats(&self) -> NetworkStats {
        let mut s = NetworkStats::default();
        let links = &self.topo.links;
        for l in links.ids() {
            let q = links.queue(l);
            s.queue_drops += q.drops;
            s.ecn_marks += q.marks;
            s.phantom_marks += q.phantom_marks;
            s.link_losses += links.lost_packets(l);
            s.tx_packets += links.tx_packets(l);
            s.tx_bytes += links.tx_bytes(l);
        }
        s
    }

    /// Per-link breakdown of [`Simulator::network_stats`], in link-id order.
    pub fn per_link_stats(&self) -> Vec<LinkStats> {
        let links = &self.topo.links;
        links
            .ids()
            .map(|l| {
                let q = links.queue(l);
                LinkStats {
                    link: l.0,
                    drops: q.drops,
                    ecn_marks: q.marks,
                    phantom_marks: q.phantom_marks,
                    losses: links.lost_packets(l),
                    tx_packets: links.tx_packets(l),
                    tx_bytes: links.tx_bytes(l),
                    max_queue_bytes: q.max_bytes_seen,
                }
            })
            .collect()
    }

    /// Snapshot every counter the run registered: engine totals, queue/link
    /// aggregates, and whatever each flow's [`FlowLogic::report_counters`]
    /// contributes. Deterministic for a given seed — wall-clock timing is
    /// deliberately *not* part of the snapshot (it lives in the manifest).
    /// `engine.events_processed` is [`Simulator::events_processed`], so it
    /// counts the `LinkFree` transitions left unscheduled too.
    pub fn counter_snapshot(&self) -> Counters {
        let mut c = Counters::new();
        c.set("engine.events_processed", self.events_processed);
        let s = self.network_stats();
        c.set("queue.drops", s.queue_drops);
        c.set("queue.ecn_marks", s.ecn_marks);
        c.set("queue.phantom_marks", s.phantom_marks);
        c.set("link.losses", s.link_losses);
        c.set("link.tx_packets", s.tx_packets);
        c.set("link.tx_bytes", s.tx_bytes);
        if !self.fault.is_empty() {
            c.set("fault.transitions", self.fault.transitions);
            c.set("fault.downs", self.fault.downs);
        }
        if !self.failures.is_empty() {
            let aborted = self
                .failures
                .iter()
                .filter(|f| f.outcome == FlowOutcome::Aborted)
                .count() as u64;
            c.set("flow.aborted", aborted);
            c.set("flow.stalled", self.failures.len() as u64 - aborted);
        }
        // PFC aggregates, emitted only when pauses actually fired so lossy
        // runs keep a byte-identical counter set.
        let mut pfc_pauses = 0u64;
        let mut pfc_paused_ns = 0u64;
        let links = &self.topo.links;
        for i in 0..links.len() {
            let l = LinkId::from(i);
            pfc_pauses += links.queue(l).pauses_sent;
            pfc_paused_ns += links.paused_ns(l, self.now);
        }
        if pfc_pauses > 0 {
            c.set("pfc.pauses", pfc_pauses);
            c.set("pfc.paused_ns", pfc_paused_ns);
        }
        self.flows.report_counters(&mut c);
        c
    }

    /// Wall-clock seconds spent inside the run loop so far.
    pub fn wall_seconds(&self) -> f64 {
        self.meter.seconds()
    }

    /// Engine throughput: events processed per wall-clock second (0 before
    /// the first [`Simulator::run_until`] call).
    pub fn events_per_sec(&self) -> f64 {
        self.meter.per_sec()
    }

    /// Process events until simulated time exceeds `end` (which becomes the
    /// new `now`), the event queue drains, or all flows complete.
    pub fn run_until(&mut self, end: Time) {
        // Wall-clock policy: `Instant::now` feeds only the engine-speed
        // meters ([`Simulator::wall_seconds`] / [`Simulator::events_per_sec`],
        // consumed by run manifests). It must never influence simulated
        // state, which is driven exclusively by the virtual clock `self.now`
        // — `uno-testkit`'s wallclock-determinism test enforces this.
        let wall_start = std::time::Instant::now();
        let events_before = self.events_processed;
        if !self.flows.is_empty() && self.terminated_flows == self.flows.len() {
            // Every flow has terminated, so the loop handles one event and
            // stops. That event may be an unscheduled `LinkFree`: schedule
            // them all, so the loop stops where it would have had every
            // transition been scheduled.
            self.schedule_link_frees();
        }
        let mut all_done = false;
        loop {
            // Scheduler span: time spent peeking/popping the event queue.
            self.profiler.enter("scheduler");
            let head = self.events.peek_time();
            let popped = match head {
                Some(t) if t <= end => self.events.pop(),
                _ => None,
            };
            self.profiler.exit();
            let Some((t, ev)) = popped else {
                break;
            };
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(ev);
            self.events_processed += 1;
            if !self.flows.is_empty() && self.terminated_flows == self.flows.len() {
                all_done = true;
                break;
            }
            if self.heartbeat.is_some() && self.events_processed & 0x3FFF == 0 {
                self.heartbeat_tick();
            }
        }
        // Count the unscheduled transitions the run has now passed: up to
        // the last event handled if every flow terminated, otherwise every
        // one at or before `end`.
        let passed = if all_done {
            self.events.position()
        } else {
            self.now = self.now.max(end);
            (end, u64::MAX)
        };
        self.events_processed += self.topo.links.settle_free_transitions(passed);
        self.meter
            .record(self.events_processed - events_before, wall_start.elapsed());
    }

    /// Fill the reserved slot of every port whose free transition is still
    /// ahead and unscheduled.
    fn schedule_link_frees(&mut self) {
        let position = self.events.position();
        let links = &mut self.topo.links;
        for i in 0..links.len() {
            let l = LinkId::from(i);
            let (at, seq) = links.free_at(l);
            if (at, seq) > position && (at, seq) != LinkTable::FREE_SCHEDULED {
                self.events.push_reserved(at, seq, Event::LinkFree(l));
                links.set_free_at(l, LinkTable::FREE_SCHEDULED);
            }
        }
    }

    /// True when `link`'s transmitter is free at the event being handled.
    #[inline]
    fn port_idle(&self, link: LinkId) -> bool {
        self.topo.links.free_at(link) <= self.events.position()
    }

    /// Run until every registered flow terminates (completes or fails) or
    /// `hard_limit` is reached. Returns true when all flows terminated.
    pub fn run_to_completion(&mut self, hard_limit: Time) -> bool {
        self.run_until(hard_limit);
        self.terminated_flows == self.flows.len()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Arrive(link, pkt, epoch) => self.handle_arrive(link, pkt, epoch),
            Event::LinkFree(link) => {
                self.topo.links.set_free_at(link, LinkTable::FREE_PASSED);
                if self.topo.links.is_up(link) && !self.topo.links.queue(link).is_empty() {
                    self.start_transmit(link);
                }
            }
            Event::FlowTimer { flow, token } => self.call_flow(flow, |logic, ctx| {
                logic.on_timer(token, ctx);
            }),
            Event::FlowStart(flow) => self.call_flow(flow, |logic, ctx| {
                logic.on_start(ctx);
            }),
            Event::LinkDown(link) => {
                self.profiler.enter("fault");
                self.take_link_down(link);
                self.profiler.exit();
            }
            Event::LinkUp(link) => {
                self.profiler.enter("fault");
                self.bring_link_up(link);
                self.profiler.exit();
            }
            Event::Sample(idx) => {
                let s = &mut self.samplers[idx as usize];
                let queue = self.topo.links.queue_mut(s.link);
                s.samples.push((self.now, queue.bytes()));
                if let Some(ph) = &mut queue.phantom {
                    s.phantom_samples.push((self.now, ph.occupancy(self.now)));
                }
                let interval = s.interval;
                self.events.push(self.now + interval, Event::Sample(idx));
            }
            Event::Telemetry => self.telemetry_tick(),
            Event::FaultStart(idx) => {
                self.profiler.enter("fault");
                self.fault_start(idx);
                self.profiler.exit();
            }
            Event::FaultEnd(idx) => {
                self.profiler.enter("fault");
                self.fault_end(idx);
                self.profiler.exit();
            }
            Event::FaultFlap(idx) => {
                self.profiler.enter("fault");
                self.fault_flap(idx);
                self.profiler.exit();
            }
            Event::PfcPause { link, by, depth } => {
                self.topo.links.apply_pause(link, self.now, depth);
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::PfcPause {
                        t: self.now,
                        link: link.0,
                        by: by.0,
                        depth,
                    });
                }
            }
            Event::PfcResume { link, by } => {
                let released = self.topo.links.release_pause(link, self.now);
                if self.tracer.enabled() {
                    self.tracer.emit(TraceEvent::PfcResume {
                        t: self.now,
                        link: link.0,
                        by: by.0,
                    });
                }
                // Only the last outstanding pause releases the port; kick
                // transmission if packets queued while it was blocked.
                if released
                    && self.topo.links.is_up(link)
                    && self.port_idle(link)
                    && !self.topo.links.queue(link).is_empty()
                {
                    self.start_transmit(link);
                }
            }
        }
    }

    /// Assert PFC pause from egress `link`: mark its queue paused and send a
    /// pause frame up every feeder link of the asserting node, each arriving
    /// after that feeder's propagation delay (pause frames travel the wire
    /// like any other frame).
    fn assert_pause(&mut self, link: LinkId) {
        let (from, depth) = {
            let links = &mut self.topo.links;
            links.queue_mut(link).note_pause();
            // Pause-tree depth: if this port is itself paused from below,
            // the pauses it propagates sit one level deeper — the testkit
            // storm detector uses this to attribute spreading.
            let depth = if links.paused(link) {
                links.pause_depth(link) + 1
            } else {
                1
            };
            (links.from(link), depth)
        };
        let now = self.now;
        for &f in self.topo.fwd.feeders(from) {
            let at = now + self.topo.links.delay(f);
            self.events.push(
                at,
                Event::PfcPause {
                    link: f,
                    by: link,
                    depth,
                },
            );
        }
    }

    /// Release the pause asserted by egress `link`: resume frames travel to
    /// the same feeders with the same per-link delay, so for a given feeder
    /// pause and resume arrive in assertion order and refcounts balance.
    fn release_pause_from(&mut self, link: LinkId) {
        self.topo.links.queue_mut(link).note_resume();
        let from = self.topo.links.from(link);
        let now = self.now;
        for &f in self.topo.fwd.feeders(from) {
            let at = now + self.topo.links.delay(f);
            self.events.push(at, Event::PfcResume { link: f, by: link });
        }
    }

    /// One telemetry tick: snapshot links, live flows and the fault plane
    /// into the collector, then re-arm the periodic event. Reads simulated
    /// state only, so the collected series are deterministic per seed.
    fn telemetry_tick(&mut self) {
        let Some(tel) = &mut self.telemetry else {
            return; // collector removed; let the event chain die out
        };
        self.profiler.enter("telemetry");
        let now = self.now;
        let mut links_down = 0u64;
        let links = &mut self.topo.links;
        for i in 0..links.len() {
            let l = LinkId::from(i);
            let queue = links.queue_mut(l);
            let phantom = queue.phantom.as_mut().map_or(0, |ph| ph.occupancy(now));
            let bytes = queue.bytes();
            let up = links.is_up(l);
            if !up {
                links_down += 1;
            }
            let paused = links.paused(l);
            let paused_ns = links.paused_ns(l, now);
            tel.record_link(i as u32, now, bytes, phantom, up, paused, paused_ns);
        }
        for i in 0..self.flows.len() {
            if let Some(sample) = self.flows.telemetry_sample(i) {
                tel.record_flow(i as u32, now, sample);
            }
        }
        let active = self.fault.entries.iter().filter(|e| e.active).count() as u64;
        tel.record_fault(now, active, links_down);
        tel.tick();
        let interval = tel.interval();
        self.events.push(self.now + interval, Event::Telemetry);
        self.profiler.exit();
    }

    /// Fail `link`: purge its queue (counting the drops), bump the failure
    /// epoch so in-flight packets die, and mark it down.
    fn take_link_down(&mut self, link: LinkId) {
        let links = &mut self.topo.links;
        if links.is_up(link) {
            links.bump_epoch(link);
        }
        links.set_up(link, false);
        let purged_bytes = links.queue(link).bytes();
        let purged = links.queue_mut(link).clear();
        let dropped = purged.len();
        for pkt in purged {
            self.packets.release(pkt);
        }
        links.note_lost(link, dropped as u64);
        if dropped > 0 && self.tracer.enabled() {
            self.tracer.emit(TraceEvent::QueueClear {
                t: self.now,
                link: link.0,
                pkts: dropped as u64,
                bytes: purged_bytes,
            });
        }
        // A dead port must not keep its feeders paused: the purge drained
        // the queue below XON, so release any asserted pause now.
        if self.topo.links.queue(link).should_release_pause() {
            self.release_pause_from(link);
        }
    }

    /// Restore `link` and kick transmission if packets queued meanwhile.
    fn bring_link_up(&mut self, link: LinkId) {
        self.topo.links.set_up(link, true);
        if self.port_idle(link) && !self.topo.links.queue(link).is_empty() {
            self.start_transmit(link);
        }
    }

    /// Emit a fault-transition trace event and bump the plane's counters.
    fn note_fault_transition(&mut self, link: LinkId, up: bool) {
        self.fault.transitions += 1;
        if !up {
            self.fault.downs += 1;
        }
        if self.tracer.enabled() {
            self.tracer.emit(TraceEvent::FaultTransition {
                t: self.now,
                link: link.0,
                up,
            });
        }
    }

    fn fault_start(&mut self, idx: u32) {
        let e = &mut self.fault.entries[idx as usize];
        e.active = true;
        let kind = e.kind;
        let links = e.links.clone();
        match kind {
            FaultKind::Down => {
                for &l in &links {
                    self.take_link_down(l);
                    self.note_fault_transition(l, false);
                }
            }
            FaultKind::GrayLoss { p } => {
                for &l in &links {
                    self.topo.links.health_mut(l).gray_loss = p;
                    self.note_fault_transition(l, false);
                }
            }
            FaultKind::Degraded { factor } => {
                for &l in &links {
                    self.topo.links.health_mut(l).capacity_factor = factor;
                    self.note_fault_transition(l, false);
                }
            }
            FaultKind::Delay { extra, jitter } => {
                for &l in &links {
                    let h = self.topo.links.health_mut(l);
                    h.extra_delay = extra;
                    h.jitter = jitter;
                    self.note_fault_transition(l, false);
                }
            }
            FaultKind::Flapping { mtbf, .. } => {
                // The Markov process starts in the up state; schedule the
                // first failure after an exponential up-dwell.
                self.fault.entries[idx as usize].flap_up = true;
                let dwell = exp_dwell(&mut self.rng, mtbf);
                self.events.push(self.now + dwell, Event::FaultFlap(idx));
            }
        }
    }

    fn fault_flap(&mut self, idx: u32) {
        let e = &mut self.fault.entries[idx as usize];
        if !e.active {
            return; // the fault healed while this toggle was in flight
        }
        let FaultKind::Flapping { mtbf, mttr } = e.kind else {
            return;
        };
        e.flap_up = !e.flap_up;
        let up = e.flap_up;
        let links = e.links.clone();
        for &l in &links {
            if up {
                self.bring_link_up(l);
            } else {
                self.take_link_down(l);
            }
            self.note_fault_transition(l, up);
        }
        let dwell = exp_dwell(&mut self.rng, if up { mtbf } else { mttr });
        self.events.push(self.now + dwell, Event::FaultFlap(idx));
    }

    fn fault_end(&mut self, idx: u32) {
        let e = &mut self.fault.entries[idx as usize];
        if !e.active {
            return;
        }
        e.active = false;
        let kind = e.kind;
        let was_up = e.flap_up;
        let links = e.links.clone();
        match kind {
            FaultKind::Down => {
                for &l in &links {
                    self.bring_link_up(l);
                    self.note_fault_transition(l, true);
                }
            }
            FaultKind::GrayLoss { .. } | FaultKind::Degraded { .. } | FaultKind::Delay { .. } => {
                for &l in &links {
                    *self.topo.links.health_mut(l) = LinkHealth::default();
                    self.note_fault_transition(l, true);
                }
            }
            FaultKind::Flapping { .. } => {
                if !was_up {
                    for &l in &links {
                        self.bring_link_up(l);
                        self.note_fault_transition(l, true);
                    }
                }
            }
        }
    }

    /// A packet reaches the far end of `link`: it is lost on the wire, or
    /// delivered to a host (which consumes it), or routed onto the next
    /// egress queue. This is the one place per hop that reads the pooled
    /// packet.
    fn handle_arrive(&mut self, link: LinkId, pkt: PacketRef, epoch: u32) {
        let links = &mut self.topo.links;
        // A stale epoch means the link failed while this packet was on the
        // wire: the packet is lost even if the link has since recovered.
        let stale = !links.is_up(link) || epoch != links.epoch(link);
        if stale
            || links
                .loss_mut(link)
                .as_mut()
                .is_some_and(|loss| loss.drops(&mut self.rng))
        {
            self.lose(link, pkt);
            return;
        }
        // Gray fault: silent per-packet drop at rate p while active.
        let gray = links.health(link).gray_loss;
        if gray > 0.0 && self.rng.gen::<f64>() < gray {
            self.lose(link, pkt);
            return;
        }
        let node = links.to(link);
        if self.topo.nodes[node.index()].kind.is_host() {
            // Freed before the callback, so the flow's replies can reuse
            // the slot while it is still in cache.
            let pkt = self.packets.take(pkt);
            if pkt.dst == node {
                let flow = pkt.flow;
                self.call_flow(flow, |logic, ctx| logic.on_packet(pkt, ctx));
            }
            // Packets for other hosts are misrouted artifacts; drop silently.
        } else {
            match self.topo.route(node, self.packets.get(pkt)) {
                Some(out) => self.enqueue_on(out, pkt),
                None => self.packets.release(pkt),
            }
        }
    }

    /// Count `pkt` lost on `link`, trace it, and free its slot.
    fn lose(&mut self, link: LinkId, pkt: PacketRef) {
        self.topo.links.note_lost(link, 1);
        if self.tracer.enabled() {
            let p = self.packets.get(pkt);
            self.tracer.emit(TraceEvent::LinkLoss {
                t: self.now,
                link: link.0,
                flow: p.flow.0,
                seq: p.seq,
            });
        }
        self.packets.release(pkt);
    }

    /// Enqueue `pkt` on `link`'s egress queue, kicking transmission if idle.
    fn enqueue_on(&mut self, link: LinkId, pkt: PacketRef) {
        let now = self.now;
        if !self.topo.links.is_up(link) {
            self.lose(link, pkt);
            return;
        }
        let links = &mut self.topo.links;
        let outcome = links
            .queue_mut(link)
            .try_enqueue(pkt, &mut self.packets, now, &mut self.rng);
        let free_at = links.free_at(link);
        if self.tracer.enabled() {
            let qlen = links.queue(link).bytes();
            let p = self.packets.get(pkt);
            let (flow, seq, size) = (p.flow.0, p.seq, p.size);
            match outcome {
                EnqueueOutcome::Enqueued { marked, phantom } => {
                    self.tracer.emit(TraceEvent::Enqueue {
                        t: now,
                        link: link.0,
                        flow,
                        seq,
                        size,
                        qlen,
                    });
                    if marked {
                        self.tracer.emit(TraceEvent::Mark {
                            t: now,
                            link: link.0,
                            flow,
                            seq,
                            phantom,
                        });
                    }
                }
                EnqueueOutcome::Dropped => {
                    self.tracer.emit(TraceEvent::Drop {
                        t: now,
                        link: link.0,
                        flow,
                        seq,
                        qlen,
                    });
                }
            }
        }
        if outcome.is_enqueued() {
            // PFC: enqueue may push the queue across XOFF; pause frames go
            // out before any transmit decision. `should_assert_pause` is a
            // single short-circuit load when PFC is off.
            if self.topo.links.queue(link).should_assert_pause() {
                self.assert_pause(link);
            }
            if free_at <= self.events.position() {
                self.start_transmit(link);
            } else if free_at != LinkTable::FREE_SCHEDULED {
                // The port serializes with its `LinkFree` slot reserved but
                // unscheduled; now a packet waits for it.
                let (at, seq) = free_at;
                self.events.push_reserved(at, seq, Event::LinkFree(link));
                self.topo.links.set_free_at(link, LinkTable::FREE_SCHEDULED);
            }
        } else {
            self.packets.release(pkt);
        }
    }

    fn start_transmit(&mut self, link: LinkId) {
        let links = &mut self.topo.links;
        debug_assert!(links.is_up(link));
        debug_assert!(links.free_at(link) <= self.events.position(), "{link} busy");
        // PFC head-of-line blocking: a paused egress port holds its queue
        // until the last outstanding pause is released (the resume handler
        // kicks transmission). One load when PFC is off.
        if links.paused(link) {
            return;
        }
        // The ring carries the size: untraced, transmission never touches
        // the pooled packet.
        let Some((pkt, size)) = links.queue_mut(link).dequeue() else {
            return;
        };
        let release_pause = links.queue(link).should_release_pause();
        // Degraded-capacity faults stretch serialization by scaling the
        // effective line rate.
        let health = *links.health(link);
        let bps = if health.capacity_factor < 1.0 {
            ((links.bps(link) as f64 * health.capacity_factor) as u64).max(1)
        } else {
            links.bps(link)
        };
        let ser = serialization_time(size as u64, bps);
        if links.free_at(link) != LinkTable::FREE_PASSED {
            // The previous transition went unscheduled, and the run has
            // passed it.
            self.events_processed += 1;
        }
        links.note_tx(link, size as u64);
        // Delay faults add fixed latency plus uniform per-packet jitter.
        let mut delay = links.delay(link) + health.extra_delay;
        if health.jitter > 0 {
            delay += self.rng.gen_range(0..=health.jitter);
        }
        let epoch = links.epoch(link);
        if self.tracer.enabled() {
            let p = self.packets.get(pkt);
            self.tracer.emit(TraceEvent::Dequeue {
                t: self.now,
                link: link.0,
                flow: p.flow.0,
                seq: p.seq,
            });
        }
        // `LinkFree` is scheduled only if a packet waits for the port. If
        // none does, its slot in push order is reserved, for a packet
        // accepted while this one serializes to fill (`enqueue_on`).
        let free = self.now + ser;
        if links.queue(link).is_empty() {
            links.set_free_at(link, (free, self.events.reserve()));
        } else {
            self.events.push(free, Event::LinkFree(link));
            links.set_free_at(link, LinkTable::FREE_SCHEDULED);
        }
        self.events
            .push(free + delay, Event::Arrive(link, pkt, epoch));
        if release_pause {
            self.release_pause_from(link);
        }
    }

    fn call_flow<F>(&mut self, flow: FlowId, f: F)
    where
        F: FnOnce(&mut dyn FlowLogic, &mut Ctx),
    {
        let i = flow.index();
        if self.flows.is_done(i) {
            return;
        }
        let Some(mut logic) = self.flows.take_logic(i) else {
            return;
        };
        let mut actions = self.action_pool.pop().unwrap_or_default();
        actions.clear();
        self.profiler.enter("transport");
        {
            let mut ctx = Ctx {
                now: self.now,
                flow,
                rng: &mut self.rng,
                topo: &self.topo,
                tracer: &mut self.tracer,
                profiler: &mut self.profiler,
                actions: &mut actions,
            };
            f(logic.as_mut(), &mut ctx);
        }
        self.profiler.exit();
        self.flows.put_logic(i, logic);
        // Apply actions (may recurse into enqueue but not into flows).
        // Draining in place keeps the buffer's capacity for the free list.
        for action in actions.drain(..) {
            match action {
                Action::Send(pkt) => {
                    let uplink = self.topo.host_uplink(pkt.src);
                    let pkt = self.packets.alloc(pkt);
                    self.enqueue_on(uplink, pkt);
                }
                Action::Timer { at, token } => {
                    self.events
                        .push(at.max(self.now), Event::FlowTimer { flow, token });
                }
                Action::Complete => {
                    if self.flows.mark_terminated(i, FlowOutcome::Completed) {
                        self.terminated_flows += 1;
                        let m = self.flows.meta(i);
                        self.fcts.push(FctRecord {
                            flow,
                            size: m.size,
                            start: m.start,
                            end: self.now,
                            class: m.class,
                        });
                        if let Some(l) = self.flows.logic_mut(i) {
                            l.on_terminated();
                        }
                        if self.tracer.enabled() {
                            self.tracer.emit(TraceEvent::FlowDone {
                                t: self.now,
                                flow: flow.0,
                            });
                        }
                    }
                }
                Action::Fail(outcome) => {
                    // Failed flows count toward termination: a run in
                    // which every flow completed *or* gave up is over.
                    if self.flows.mark_terminated(i, outcome) {
                        self.terminated_flows += 1;
                        let m = self.flows.meta(i);
                        self.failures.push(FailRecord {
                            flow,
                            size: m.size,
                            start: m.start,
                            end: self.now,
                            class: m.class,
                            outcome,
                        });
                        if let Some(l) = self.flows.logic_mut(i) {
                            l.on_terminated();
                        }
                        if self.tracer.enabled() {
                            self.tracer.emit(TraceEvent::FlowFail {
                                t: self.now,
                                flow: flow.0,
                                aborted: outcome == FlowOutcome::Aborted,
                            });
                        }
                    }
                }
                Action::Progress(bytes) => {
                    if self.flows.records_progress(i) {
                        self.progress[i].push((self.now, bytes));
                    }
                }
            }
        }
        self.action_pool.push(actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;
    use crate::time::{GBPS, MICROS};
    use crate::topology::TopologyParams;
    use uno_trace::Counters;

    /// Minimal test transport: fire-and-forget `n` packets, receiver ACKs
    /// each, sender completes when all are acked.
    struct Blaster {
        src: NodeId,
        dst: NodeId,
        n: u64,
        acked: u64,
        mtu: u32,
    }

    impl FlowLogic for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for seq in 0..self.n {
                let mut p = Packet::data(ctx.flow, seq, self.mtu, self.src, self.dst);
                p.sent_at = ctx.now;
                p.entropy = ctx.random_entropy();
                ctx.send(p);
            }
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
            match pkt.kind {
                PacketKind::Data => {
                    let e = ctx.random_entropy();
                    ctx.send(Packet::ack_for(&pkt, 64, e));
                }
                PacketKind::Ack => {
                    self.acked += 1;
                    ctx.progress(self.acked * self.mtu as u64);
                    if self.acked == self.n {
                        ctx.complete();
                    }
                }
                PacketKind::Nack => {}
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}
    }

    fn small_sim(seed: u64) -> Simulator {
        Simulator::new(Topology::build(TopologyParams::small()), seed)
    }

    #[test]
    fn single_flow_delivers_and_completes() {
        let mut sim = small_sim(1);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 15));
        let meta = FlowMeta {
            src,
            dst,
            size: 10 * 4096,
            start: 0,
            class: FlowClass::Intra,
        };
        let logic = Blaster {
            src,
            dst,
            n: 10,
            acked: 0,
            mtu: 4096,
        };
        let id = sim.add_flow_recorded(meta, Box::new(logic), true);
        assert!(sim.run_to_completion(crate::time::SECONDS));
        assert_eq!(sim.fcts.len(), 1);
        let fct = sim.fcts[0].fct();
        // Must exceed the base RTT and be well under a millisecond.
        assert!(fct > sim.topo.params.intra_rtt, "fct {fct}");
        assert!(fct < 500 * MICROS, "fct {fct}");
        assert_eq!(sim.progress[id.index()].len(), 10);
    }

    #[test]
    fn inter_dc_flow_takes_at_least_inter_rtt() {
        let mut sim = small_sim(2);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(1, 0));
        let meta = FlowMeta {
            src,
            dst,
            size: 4096,
            start: 0,
            class: FlowClass::Inter,
        };
        let logic = Blaster {
            src,
            dst,
            n: 1,
            acked: 0,
            mtu: 4096,
        };
        sim.add_flow(meta, Box::new(logic));
        assert!(sim.run_to_completion(crate::time::SECONDS));
        assert!(sim.fcts[0].fct() >= sim.topo.params.inter_rtt);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mut fcts = Vec::new();
        for _ in 0..2 {
            let mut sim = small_sim(77);
            let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(1, 3));
            sim.add_flow(
                FlowMeta {
                    src,
                    dst,
                    size: 50 * 4096,
                    start: 0,
                    class: FlowClass::Inter,
                },
                Box::new(Blaster {
                    src,
                    dst,
                    n: 50,
                    acked: 0,
                    mtu: 4096,
                }),
            );
            sim.run_to_completion(crate::time::SECONDS);
            fcts.push(sim.fcts[0].fct());
        }
        assert_eq!(fcts[0], fcts[1]);
    }

    #[test]
    fn failed_link_drops_packets() {
        let mut sim = small_sim(3);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(1, 0));
        // Fail all border links before the flow starts.
        for l in sim.topo.border_forward.clone() {
            sim.schedule_link_down(l, 0);
        }
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 5 * 4096,
                start: 1000,
                class: FlowClass::Inter,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 5,
                acked: 0,
                mtu: 4096,
            }),
        );
        assert!(!sim.run_to_completion(50 * crate::time::MILLIS));
        assert!(sim.network_stats().link_losses > 0 || sim.network_stats().queue_drops > 0);
        assert_eq!(sim.fcts.len(), 0);

        // In-flight case: a packet already propagating on a link when it
        // fails must be dropped *and counted against that link*, even
        // though the link recovers before the packet would have arrived.
        let mut sim = small_sim(31);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 1));
        let up = sim.topo.host_uplink(src);
        // ser(4096 B @ 100 Gbps) ≈ 328 ns, prop ≈ 1166 ns: the packet is
        // on the wire during [328, 1494). Fail inside that window, recover
        // before arrival.
        sim.schedule_link_down(up, 600);
        sim.schedule_link_up(up, 700);
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 1,
                acked: 0,
                mtu: 4096,
            }),
        );
        assert!(!sim.run_to_completion(10 * crate::time::MILLIS));
        assert_eq!(
            sim.per_link_stats()[up.index()].losses,
            1,
            "mid-flight packet must be counted on the failed link"
        );
        assert!(sim.fcts.is_empty(), "the packet must not be delivered");
    }

    #[test]
    fn link_recovery_allows_completion() {
        let mut sim = small_sim(4);
        let (src, dst) = (sim.topo.host(0, 1), sim.topo.host(0, 2));
        let up = sim.topo.host_uplink(src);
        sim.schedule_link_down(up, 0);
        sim.schedule_link_up(up, 10 * MICROS);
        // Start after recovery; must complete.
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 4096,
                start: 20 * MICROS,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 1,
                acked: 0,
                mtu: 4096,
            }),
        );
        assert!(sim.run_to_completion(crate::time::SECONDS));
    }

    #[test]
    fn queue_sampler_records() {
        let mut sim = small_sim(5);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 4));
        let bottleneck = sim.topo.host_downlink(dst);
        sim.add_queue_sampler(bottleneck, 10 * MICROS, 0);
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 100 * 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 100,
                acked: 0,
                mtu: 4096,
            }),
        );
        sim.run_until(200 * MICROS);
        assert!(!sim.samplers[0].samples.is_empty());
    }

    #[test]
    fn queue_sampler_honours_interval() {
        let mut sim = small_sim(11);
        let (_src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 4));
        let bottleneck = sim.topo.host_downlink(dst);
        let interval = 10 * MICROS;
        sim.add_queue_sampler(bottleneck, interval, 0);
        sim.run_until(200 * MICROS);
        let samples = &sim.samplers[0].samples;
        // Samples at 0, 10us, ..., 200us inclusive.
        assert_eq!(samples.len(), 21, "got {}", samples.len());
        for (i, w) in samples.windows(2).enumerate() {
            assert_eq!(w[1].0 - w[0].0, interval, "sample {i} spacing");
        }
        assert_eq!(samples[0].0, 0);
    }

    #[test]
    fn censored_fcts_no_flows_is_empty() {
        let mut sim = small_sim(12);
        assert!(sim.censored_fcts().is_empty());
        sim.run_until(crate::time::MILLIS);
        assert!(sim.censored_fcts().is_empty());
    }

    #[test]
    fn censored_fcts_when_nothing_completes() {
        let mut sim = small_sim(13);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 8));
        // Kill the source uplink so the flow can never make progress.
        sim.schedule_link_down(sim.topo.host_uplink(src), 0);
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 4096,
                start: 1000,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 1,
                acked: 0,
                mtu: 4096,
            }),
        );
        // A second flow that never starts within the horizon: not censored.
        let late_start = crate::time::SECONDS;
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 4096,
                start: late_start,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 1,
                acked: 0,
                mtu: 4096,
            }),
        );
        assert!(!sim.run_to_completion(10 * crate::time::MILLIS));
        let censored = sim.censored_fcts();
        assert_eq!(censored.len(), 1, "only the started flow is censored");
        assert_eq!(censored[0].start, 1000);
        assert_eq!(censored[0].end, sim.now(), "end pins to the horizon");
        assert!(sim.fcts.is_empty());
    }

    #[test]
    fn ring_tracer_captures_queue_events_and_counters() {
        let mut sim = small_sim(14);
        sim.set_tracer(Tracer::ring(100_000));
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 15));
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 10 * 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 10,
                acked: 0,
                mtu: 4096,
            }),
        );
        assert!(sim.run_to_completion(crate::time::SECONDS));
        let events = sim.tracer.ring_events();
        let enq = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Enqueue { .. }))
            .count();
        let deq = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dequeue { .. }))
            .count();
        assert!(enq > 0, "traced enqueues");
        assert_eq!(enq, deq, "every accepted packet is eventually dequeued");
        let c = sim.counter_snapshot();
        assert_eq!(c.get("engine.events_processed"), sim.events_processed);
        assert_eq!(c.get("queue.drops"), 0);
        assert!(c.get("link.tx_packets") as usize >= enq);
        assert!(sim.events_per_sec() > 0.0, "throughput meter populated");
        assert!(sim.wall_seconds() > 0.0);
    }

    #[test]
    fn jsonl_traces_and_counters_are_deterministic() {
        let run = |path: &std::path::Path| {
            let mut sim = small_sim(99);
            sim.set_tracer(Tracer::jsonl_file(path, uno_trace::TraceConfig::all()).unwrap());
            let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(1, 3));
            sim.add_flow(
                FlowMeta {
                    src,
                    dst,
                    size: 50 * 4096,
                    start: 0,
                    class: FlowClass::Inter,
                },
                Box::new(Blaster {
                    src,
                    dst,
                    n: 50,
                    acked: 0,
                    mtu: 4096,
                }),
            );
            sim.run_to_completion(crate::time::SECONDS);
            sim.tracer.flush().unwrap();
            (
                std::fs::read(path).unwrap(),
                sim.counter_snapshot().to_json(),
            )
        };
        let dir = std::env::temp_dir();
        let (a_path, b_path) = (
            dir.join("uno_sim_det_a.jsonl"),
            dir.join("uno_sim_det_b.jsonl"),
        );
        let (trace_a, counters_a) = run(&a_path);
        let (trace_b, counters_b) = run(&b_path);
        assert!(!trace_a.is_empty());
        assert_eq!(
            trace_a, trace_b,
            "same seed must give byte-identical traces"
        );
        assert_eq!(counters_a, counters_b);
        let _ = std::fs::remove_file(a_path);
        let _ = std::fs::remove_file(b_path);
    }

    #[test]
    fn per_link_stats_sum_to_network_stats() {
        let mut sim = small_sim(15);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 8));
        sim.set_link_loss(sim.topo.host_uplink(src), GilbertElliott::uniform(0.2));
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 200 * 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 200,
                acked: 0,
                mtu: 4096,
            }),
        );
        sim.run_until(crate::time::MILLIS);
        let agg = sim.network_stats();
        let per_link = sim.per_link_stats();
        assert_eq!(per_link.len(), sim.topo.links.len());
        let drops: u64 = per_link.iter().map(|l| l.drops).sum();
        let marks: u64 = per_link.iter().map(|l| l.ecn_marks).sum();
        let losses: u64 = per_link.iter().map(|l| l.losses).sum();
        let txp: u64 = per_link.iter().map(|l| l.tx_packets).sum();
        assert_eq!(drops, agg.queue_drops);
        assert_eq!(marks, agg.ecn_marks);
        assert_eq!(losses, agg.link_losses);
        assert_eq!(txp, agg.tx_packets);
        assert!(losses > 0, "loss process must have fired");
        // The lossy uplink's losses are attributed to that link.
        let up = sim.topo.host_uplink(src);
        assert!(per_link[up.index()].losses > 0);
    }

    #[test]
    fn uniform_loss_prevents_unreliable_completion() {
        let mut sim = small_sim(6);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 8));
        let up = sim.topo.host_uplink(src);
        sim.set_link_loss(up, GilbertElliott::uniform(0.5));
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 200 * 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 200,
                acked: 0,
                mtu: 4096,
            }),
        );
        // Blaster has no retransmission: with 50% loss it cannot finish.
        assert!(!sim.run_to_completion(crate::time::SECONDS));
        assert!(sim.network_stats().link_losses > 50);
    }

    fn one_pkt_flow(sim: &mut Simulator, src: NodeId, dst: NodeId, class: FlowClass) {
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 4096,
                start: 0,
                class,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 1,
                acked: 0,
                mtu: 4096,
            }),
        );
    }

    fn spec_one(
        target: crate::fault::FaultTarget,
        kind: FaultKind,
        until: Option<Time>,
    ) -> FaultSpec {
        FaultSpec {
            faults: vec![crate::fault::FaultEntry {
                target,
                kind,
                at: 0,
                until,
            }],
        }
    }

    #[test]
    fn gray_loss_fault_eats_packets_then_heals() {
        use crate::fault::FaultTarget;
        let mut sim = small_sim(41);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 1));
        let up = sim.topo.host_uplink(src);
        // Certain loss until 100 µs; the flow's only packet dies silently.
        sim.install_faults(&spec_one(
            FaultTarget::Link { id: up.0 },
            FaultKind::GrayLoss { p: 1.0 },
            Some(100 * MICROS),
        ))
        .unwrap();
        one_pkt_flow(&mut sim, src, dst, FlowClass::Intra);
        assert!(!sim.run_to_completion(50 * MICROS));
        assert!(sim.per_link_stats()[up.index()].losses >= 1);
        // Onset + healing, one link each.
        sim.run_until(200 * MICROS);
        assert_eq!(sim.fault.transitions, 2);
        assert_eq!(sim.fault.downs, 1);
        assert!(
            sim.topo.links.health(up).is_healthy(),
            "healing must clear the gray state"
        );
    }

    #[test]
    fn degraded_capacity_stretches_serialization() {
        use crate::fault::FaultTarget;
        let fct_with = |factor: Option<f64>| {
            let mut sim = small_sim(42);
            let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 1));
            if let Some(f) = factor {
                let up = sim.topo.host_uplink(src);
                sim.install_faults(&spec_one(
                    FaultTarget::Link { id: up.0 },
                    FaultKind::Degraded { factor: f },
                    None,
                ))
                .unwrap();
            }
            one_pkt_flow(&mut sim, src, dst, FlowClass::Intra);
            assert!(sim.run_to_completion(crate::time::SECONDS));
            sim.fcts[0].fct()
        };
        let healthy = fct_with(None);
        let degraded = fct_with(Some(0.1));
        // 10x slower serialization on one hop: strictly slower end to end.
        let extra = serialization_time(4096, 10 * GBPS) - serialization_time(4096, 100 * GBPS);
        assert!(
            degraded >= healthy + extra / 2,
            "degraded {degraded} healthy {healthy}"
        );
    }

    #[test]
    fn delay_fault_adds_latency() {
        use crate::fault::FaultTarget;
        let mut sim = small_sim(43);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 1));
        let up = sim.topo.host_uplink(src);
        sim.install_faults(&spec_one(
            FaultTarget::Link { id: up.0 },
            FaultKind::Delay {
                extra: 500 * MICROS,
                jitter: 0,
            },
            None,
        ))
        .unwrap();
        one_pkt_flow(&mut sim, src, dst, FlowClass::Intra);
        assert!(sim.run_to_completion(crate::time::SECONDS));
        assert!(sim.fcts[0].fct() >= 500 * MICROS);
    }

    #[test]
    fn asymmetric_border_blackhole_kills_acks_only() {
        use crate::fault::{FaultEntry, FaultTarget};
        let mut sim = small_sim(44);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(1, 0));
        // Permanently blackhole every reverse border link: data reaches the
        // receiver, but ACKs die crossing back.
        let spec = FaultSpec {
            faults: (0..sim.topo.border_reverse.len())
                .map(|idx| FaultEntry {
                    target: FaultTarget::BorderReverse { idx },
                    kind: FaultKind::Down,
                    at: 0,
                    until: None,
                })
                .collect(),
        };
        sim.install_faults(&spec).unwrap();
        one_pkt_flow(&mut sim, src, dst, FlowClass::Inter);
        assert!(!sim.run_to_completion(50 * crate::time::MILLIS));
        let fwd_tx: u64 = sim
            .topo
            .border_forward
            .iter()
            .map(|l| sim.per_link_stats()[l.index()].tx_packets)
            .sum();
        let rev_losses: u64 = sim
            .topo
            .border_reverse
            .iter()
            .map(|l| sim.per_link_stats()[l.index()].losses)
            .sum();
        assert!(fwd_tx >= 1, "data must still cross the forward direction");
        assert!(rev_losses >= 1, "the ACK must die on the reverse direction");
        assert!(sim.fcts.is_empty());
    }

    #[test]
    fn flapping_fault_is_deterministic() {
        use crate::fault::FaultTarget;
        let run = || {
            let mut sim = small_sim(45);
            let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 8));
            let up = sim.topo.host_uplink(src);
            sim.install_faults(&spec_one(
                FaultTarget::Link { id: up.0 },
                FaultKind::Flapping {
                    mtbf: 20 * MICROS,
                    mttr: 20 * MICROS,
                },
                Some(crate::time::MILLIS),
            ))
            .unwrap();
            sim.add_flow(
                FlowMeta {
                    src,
                    dst,
                    size: 200 * 4096,
                    start: 0,
                    class: FlowClass::Intra,
                },
                Box::new(Blaster {
                    src,
                    dst,
                    n: 200,
                    acked: 0,
                    mtu: 4096,
                }),
            );
            sim.run_until(2 * crate::time::MILLIS);
            (
                sim.fault.transitions,
                sim.network_stats().link_losses,
                sim.counter_snapshot().to_json(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must give identical flap schedules");
        assert!(a.0 >= 3, "the link must actually flap (got {})", a.0);
        // After the healing time the link is up again.
    }

    #[test]
    fn switch_fault_downs_all_attached_links() {
        use crate::fault::FaultTarget;
        let mut sim = small_sim(46);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(1, 0));
        let border_node = sim.topo.links.from(sim.topo.border_forward[0]);
        sim.install_faults(&spec_one(
            FaultTarget::Switch {
                node: border_node.0,
            },
            FaultKind::Down,
            None,
        ))
        .unwrap();
        one_pkt_flow(&mut sim, src, dst, FlowClass::Inter);
        assert!(!sim.run_to_completion(50 * crate::time::MILLIS));
        assert!(sim.fcts.is_empty());
        assert!(sim.network_stats().link_losses >= 1);
        let links = &sim.topo.links;
        for l in links.ids() {
            if links.from(l) == border_node || links.to(l) == border_node {
                assert!(!links.is_up(l), "link {l} must be down");
            }
        }
    }

    #[test]
    fn fail_action_records_outcome_and_terminates_run() {
        struct GiveUp;
        impl FlowLogic for GiveUp {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(10 * MICROS, 0);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
                ctx.fail(FlowOutcome::Stalled {
                    cause: StallCause::Congestion,
                });
            }
        }
        let mut sim = small_sim(47);
        sim.set_tracer(Tracer::ring(1024));
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 1));
        let id = sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(GiveUp),
        );
        // The run terminates as soon as the only flow gives up — it does
        // not spin to the horizon.
        sim.run_until(crate::time::SECONDS);
        assert_eq!(sim.now(), 10 * MICROS);
        let stalled = FlowOutcome::Stalled {
            cause: StallCause::Congestion,
        };
        assert_eq!(sim.flow_outcome(id), Some(stalled));
        assert_eq!(sim.flow_outcomes(), vec![Some(stalled)]);
        assert!(sim.fcts.is_empty());
        assert_eq!(sim.failures.len(), 1);
        assert_eq!(sim.failures[0].outcome, stalled);
        // Failed flows are terminal, not censored.
        assert!(sim.censored_fcts().is_empty());
        assert!(sim
            .tracer
            .ring_events()
            .iter()
            .any(|e| matches!(e, TraceEvent::FlowFail { aborted: false, .. })));
        let c = sim.counter_snapshot();
        assert_eq!(c.get("flow.stalled"), 1);
        assert_eq!(c.get("flow.aborted"), 0);
    }

    /// Run `sim` until its event queue is empty, then check that every
    /// packet handle it allocated was released exactly once.
    fn drain_and_assert_no_live_packets(mut sim: Simulator) -> Simulator {
        while let Some((t, ev)) = sim.events.pop() {
            sim.now = t;
            sim.dispatch(ev);
        }
        assert!(sim.events.is_empty());
        assert_eq!(sim.packets.live(), 0, "packet handles leaked");
        assert!(sim.packets.high_water() > 0, "the run sent packets");
        sim
    }

    /// `senders` hosts of DC0 each blast `n` MTU packets at DC0 host 0.
    fn incast_sim(seed: u64, topo: TopologyParams, senders: u32, n: u64) -> Simulator {
        let mut sim = Simulator::new(Topology::build(topo), seed);
        let dst = sim.topo.host(0, 0);
        for i in 0..senders {
            let src = sim.topo.host(0, 4 + i);
            sim.add_flow(
                FlowMeta {
                    src,
                    dst,
                    size: n * 4096,
                    start: 0,
                    class: FlowClass::Intra,
                },
                Box::new(Blaster {
                    src,
                    dst,
                    n,
                    acked: 0,
                    mtu: 4096,
                }),
            );
        }
        sim
    }

    #[test]
    fn every_release_path_frees_its_packet() {
        use crate::fault::FaultTarget;
        // Delivery: data and ACKs are all consumed by hosts.
        let sim = drain_and_assert_no_live_packets(incast_sim(60, TopologyParams::small(), 2, 20));
        assert_eq!(sim.fcts.len(), 2);
        assert_eq!(sim.network_stats().queue_drops, 0);

        // Drop-tail at a full switch queue.
        let mut shallow = TopologyParams::small();
        shallow.queue_bytes = 16 << 10;
        let sim = drain_and_assert_no_live_packets(incast_sim(61, shallow, 4, 50));
        assert!(sim.network_stats().queue_drops > 0, "queues overflowed");

        // Link-down purge plus stale-epoch arrivals: the uplink fails with
        // a queue of packets behind it and two on the wire, then recovers
        // before they would have arrived.
        let mut sim = incast_sim(62, TopologyParams::small(), 1, 100);
        sim.set_tracer(Tracer::ring(100_000));
        let up = sim.topo.host_uplink(sim.topo.host(0, 4));
        sim.schedule_link_down(up, 600);
        sim.schedule_link_up(up, 700);
        let sim = drain_and_assert_no_live_packets(sim);
        let purged: u64 = sim
            .tracer
            .ring_events()
            .iter()
            .map(|e| match e {
                TraceEvent::QueueClear { pkts, .. } => *pkts,
                _ => 0,
            })
            .sum();
        assert!(purged > 0, "the failure purged a queue");
        assert_eq!(
            sim.per_link_stats()[up.index()].losses,
            100,
            "{purged} purged, the rest lost to a stale epoch"
        );

        // Enqueue onto a link that is already down.
        let mut sim = incast_sim(63, TopologyParams::small(), 1, 10);
        let up = sim.topo.host_uplink(sim.topo.host(0, 4));
        sim.schedule_link_down(up, 0);
        let sim = drain_and_assert_no_live_packets(sim);
        assert_eq!(sim.per_link_stats()[up.index()].losses, 10);

        // Gilbert–Elliott loss.
        let mut sim = incast_sim(64, TopologyParams::small(), 1, 100);
        let up = sim.topo.host_uplink(sim.topo.host(0, 4));
        sim.set_link_loss(up, GilbertElliott::uniform(0.3));
        let sim = drain_and_assert_no_live_packets(sim);
        assert!(sim.per_link_stats()[up.index()].losses > 0);

        // Gray loss.
        let mut sim = incast_sim(65, TopologyParams::small(), 1, 100);
        let up = sim.topo.host_uplink(sim.topo.host(0, 4));
        sim.install_faults(&spec_one(
            FaultTarget::Link { id: up.0 },
            FaultKind::GrayLoss { p: 0.5 },
            None,
        ))
        .unwrap();
        let sim = drain_and_assert_no_live_packets(sim);
        assert!(sim.per_link_stats()[up.index()].losses > 0);

        // A lossless run: PFC pauses hold packets in queues upstream.
        let mut lossless = TopologyParams::small();
        lossless.fabric = crate::topology::FabricMode::Lossless;
        lossless.queue_bytes = 256 << 10;
        let sim = drain_and_assert_no_live_packets(incast_sim(66, lossless, 4, 200));
        assert!(sim.counter_snapshot().get("pfc.pauses") > 0, "PFC paused");
        assert_eq!(sim.network_stats().queue_drops, 0);
        assert_eq!(sim.fcts.len(), 4);
    }

    #[test]
    fn serialization_is_modelled() {
        // 100 packets of 4096 B over a 100 Gbps bottleneck take at least
        // 100 * 327 ns of serialization.
        let mut sim = small_sim(7);
        let (src, dst) = (sim.topo.host(0, 0), sim.topo.host(0, 1));
        sim.add_flow(
            FlowMeta {
                src,
                dst,
                size: 100 * 4096,
                start: 0,
                class: FlowClass::Intra,
            },
            Box::new(Blaster {
                src,
                dst,
                n: 100,
                acked: 0,
                mtu: 4096,
            }),
        );
        sim.run_to_completion(crate::time::SECONDS);
        let min_ser = 100 * serialization_time(4096, 100 * GBPS);
        assert!(sim.fcts[0].fct() >= min_ser);
    }

    /// A `Write` into a shared buffer, so a test can read back the JSONL
    /// trace a tracer wrote.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Everything a run simulated: events processed, the final time, the
    /// counter snapshot, the FCTs and the JSONL trace.
    type Simulated = (u64, Time, Counters, Vec<(u32, Time)>, Vec<u8>);

    /// A seeded 4-sender incast on `topo`, traced, run to `horizon` in one
    /// `run_until` or, with `slice`, in calls ending every `slice` ns until
    /// every flow terminated. Also returns how many of those calls ended
    /// while a port serialized with its `LinkFree` unscheduled.
    fn sliced_incast(topo: TopologyParams, horizon: Time, slice: Option<Time>) -> (Simulated, u32) {
        let mut sim = incast_sim(70, topo, 4, 200);
        let trace = SharedBuf::default();
        sim.set_tracer(Tracer::jsonl_writer(
            Box::new(trace.clone()),
            uno_trace::TraceConfig::all(),
        ));
        let mut mid_serialization = 0;
        match slice {
            None => sim.run_until(horizon),
            Some(slice) => {
                let mut end = 0;
                while end < horizon && sim.num_terminated() < sim.num_flows() {
                    end = (end + slice).min(horizon);
                    sim.run_until(end);
                    let links = &sim.topo.links;
                    let pending = |l| {
                        let at = links.free_at(l);
                        at.0 > end && at != LinkTable::FREE_SCHEDULED
                    };
                    if links.ids().any(pending) {
                        mid_serialization += 1;
                    }
                }
            }
        }
        sim.tracer.flush().unwrap();
        let fcts = sim.fcts.iter().map(|r| (r.flow.0, r.end)).collect();
        let trace = std::mem::take(&mut *trace.0.lock().unwrap());
        let simulated = (
            sim.events_processed,
            sim.now(),
            sim.counter_snapshot(),
            fcts,
            trace,
        );
        (simulated, mid_serialization)
    }

    /// Slicing a run must not change what it simulates, although every
    /// slice that ends while a port serializes leaves that port's
    /// `LinkFree` uncounted until a later slice passes it.
    #[test]
    fn run_slices_ending_mid_serialization_match_one_run() {
        let mut lossy = TopologyParams::small();
        lossy.queue_bytes = 16 << 10;
        let mut lossless = TopologyParams::small();
        lossless.fabric = crate::topology::FabricMode::Lossless;
        lossless.queue_bytes = 256 << 10;
        for (name, topo) in [("lossy", lossy), ("lossless", lossless)] {
            let horizon = 2 * crate::time::MILLIS;
            let (one, _) = sliced_incast(topo.clone(), horizon, None);
            let (sliced, mid_serialization) = sliced_incast(topo, horizon, Some(1_009));
            assert!(
                mid_serialization >= 20,
                "{name}: only {mid_serialization} slices ended mid-serialization"
            );
            if name == "lossy" {
                assert!(one.2.get("queue.drops") > 0, "the lossy incast drops");
            } else {
                assert!(one.2.get("pfc.pauses") > 0, "the lossless incast pauses");
                assert_eq!(one.3.len(), 4, "every lossless flow completes");
            }
            assert_eq!(one.0, sliced.0, "{name}: events processed");
            assert_eq!(one.1, sliced.1, "{name}: final time");
            assert_eq!(one.2, sliced.2, "{name}: counter snapshot");
            assert_eq!(one.3, sliced.3, "{name}: FCTs");
            assert!(one.4 == sliced.4, "{name}: trace bytes differ");
        }
    }

    /// Once every flow has terminated, each `run_until` handles one event,
    /// and that event may be a `LinkFree` nothing waited for. Two flows
    /// send 20 packets each and complete at their first ACK, leaving the
    /// rest in flight. The counts and times were recorded with an engine
    /// that scheduled every `LinkFree`.
    #[test]
    fn run_after_every_flow_terminated_steps_one_event() {
        struct FirstAck(NodeId, NodeId);
        impl FlowLogic for FirstAck {
            fn on_start(&mut self, ctx: &mut Ctx) {
                for seq in 0..20 {
                    ctx.send(Packet::data(ctx.flow, seq, 4096, self.0, self.1));
                }
            }
            fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
                match pkt.kind {
                    PacketKind::Data => ctx.send(Packet::ack_for(&pkt, 64, 0)),
                    _ => ctx.complete(),
                }
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}
        }
        let mut sim = small_sim(71);
        let dst = sim.topo.host(0, 0);
        for i in [4, 9] {
            let src = sim.topo.host(0, i);
            let meta = FlowMeta {
                src,
                dst,
                size: 20 * 4096,
                start: 0,
                class: FlowClass::Intra,
            };
            sim.add_flow(meta, Box::new(FirstAck(src, dst)));
        }
        assert!(sim.run_to_completion(crate::time::SECONDS));
        let mut steps = vec![(sim.events_processed, sim.now())];
        for _ in 0..16 {
            sim.run_until(sim.now() + 150);
            steps.push((sim.events_processed, sim.now()));
        }
        assert_eq!(
            steps,
            [
                (598, 16311),
                (599, 16342),
                (600, 16347),
                (601, 16395),
                (602, 16400),
                (603, 16448),
                (604, 16453),
                (605, 16479),
                (606, 16532),
                (607, 16537),
                (608, 16585),
                (609, 16590),
                (610, 16621),
                (611, 16638),
                (612, 16669),
                (613, 16674),
                (614, 16722)
            ]
        );
    }

    /// A packet reaches a busy port at the instant it frees. The port's
    /// last packet `A` (`a_size` bytes) comes from the host beside the
    /// receiver; `B` (4096 bytes) comes from the pod's other edge switch.
    /// A small `A` means `B`'s arrival was scheduled before `A`'s
    /// transmission reserved the port's `LinkFree` slot, so `B` must queue
    /// and leave when that slot pops; a large `A` means after, so `B` finds
    /// the port idle. A queue sampler whose tick at that instant was
    /// scheduled between the two shows which happened. Returns the port's
    /// trace, the samples and the events processed.
    fn tie_at_free_time(a_size: u32) -> (Vec<TraceEvent>, Vec<(Time, u64)>, u64) {
        let mut sim = small_sim(80);
        sim.set_tracer(Tracer::ring(10_000));
        let (dst, near, far) = (
            sim.topo.host(0, 0),
            sim.topo.host(0, 1),
            sim.topo.host(0, 2),
        );
        let port = sim.topo.host_downlink(dst);
        let links = &sim.topo.links;
        let edge = links.from(port);
        assert_eq!(links.to(sim.topo.host_uplink(near)), edge);
        assert_ne!(links.to(sim.topo.host_uplink(far)), edge);
        let d = links.delay(port);
        let ser = |bytes| serialization_time(bytes, links.bps(port));
        // `A` starts at `a_start`, reaches the edge one hop later and frees
        // the port at `free`; `B` needs three hops to reach the edge.
        let hop_b = ser(4096) + d;
        let a_start = (3 * hop_b).saturating_sub(2 * ser(a_size as u64) + d);
        let free = a_start + 2 * ser(a_size as u64) + d;
        let b_start = free - 3 * hop_b;
        let interval = ser(4096) + d / 2;
        sim.add_queue_sampler(port, interval, free - interval);
        for (src, size, start) in [(near, a_size, a_start), (far, 4096, b_start)] {
            sim.add_flow(
                FlowMeta {
                    src,
                    dst,
                    size: size as u64,
                    start,
                    class: FlowClass::Intra,
                },
                Box::new(Blaster {
                    src,
                    dst,
                    n: 1,
                    acked: 0,
                    mtu: size,
                }),
            );
        }
        assert!(sim.run_to_completion(crate::time::SECONDS));
        let trace = sim
            .tracer
            .ring_events()
            .into_iter()
            .filter(|e| match e {
                TraceEvent::Enqueue { link, .. } | TraceEvent::Dequeue { link, .. } => {
                    *link == port.0
                }
                _ => false,
            })
            .collect();
        let samples = sim.samplers[0].samples[..3].to_vec();
        (trace, samples, sim.events_processed)
    }

    /// The ring trace, samples and event counts were recorded with an
    /// engine that scheduled every `LinkFree`.
    #[test]
    fn packet_reaching_a_port_at_its_free_time_orders_by_reserved_slot() {
        let lines = |trace: Vec<TraceEvent>| -> Vec<String> {
            trace.iter().map(TraceEvent::to_json).collect()
        };
        // `B`'s arrival precedes the slot: it queues behind `A`, and the
        // sample between them sees it waiting.
        let (trace, samples, events) = tie_at_free_time(4096);
        assert_eq!(
            lines(trace),
            [
                r#"{"t":4152,"ev":"enqueue","link":1,"flow":0,"seq":0,"size":4096,"qlen":4096}"#,
                r#"{"t":4152,"ev":"dequeue","link":1,"flow":0,"seq":0}"#,
                r#"{"t":4479,"ev":"enqueue","link":1,"flow":1,"seq":0,"size":4096,"qlen":4096}"#,
                r#"{"t":4479,"ev":"dequeue","link":1,"flow":1,"seq":0}"#,
            ]
        );
        assert_eq!(samples, [(3569, 0), (4479, 4096), (5389, 0)]);
        assert_eq!(events, 34);
        // `B`'s arrival follows the slot: the port is idle.
        let (trace, samples, events) = tie_at_free_time(32 << 10);
        assert_eq!(
            lines(trace),
            [
                r#"{"t":3787,"ev":"enqueue","link":1,"flow":0,"seq":0,"size":32768,"qlen":32768}"#,
                r#"{"t":3787,"ev":"dequeue","link":1,"flow":0,"seq":0}"#,
                r#"{"t":6408,"ev":"enqueue","link":1,"flow":1,"seq":0,"size":4096,"qlen":4096}"#,
                r#"{"t":6408,"ev":"dequeue","link":1,"flow":1,"seq":0}"#,
            ]
        );
        assert_eq!(samples, [(5498, 0), (6408, 0), (7318, 0)]);
        assert_eq!(events, 34);
    }
}
