//! Struct-of-arrays entity tables for the hot simulation state.
//!
//! The engine's inner loops touch one or two fields of one entity per event
//! (a queue, a free position, an epoch), so entity state is stored as dense
//! parallel `Vec`s indexed directly by the typed ids from [`crate::ids`]
//! rather than as arrays of structs or id-keyed maps. Every table is
//! interned once — links and forwarding state at topology-build time, flows
//! as they are registered — after which lookups are a bounds-checked index
//! with no hashing and the per-event working set is a handful of cache
//! lines instead of a whole `Link`.
//!
//! Three tables live here:
//!
//! * [`LinkTable`] — per-link state (endpoints, rate, delay, queue, fault
//!   health, counters), replacing the old `Vec<Link>` of 200-byte structs.
//! * [`FwdTable`] — forwarding ports as one flat arena of [`LinkId`]s with
//!   per-node ranges, replacing per-node `Vec`s; border peer groups are
//!   keyed by `(src_dc, dst_dc)` so N-site topologies route per
//!   destination DC.
//! * [`FlowTable`] — per-flow metadata, transport logic, and terminal
//!   state as parallel columns, replacing `Vec<FlowSlot>`.

use crate::engine::{FlowLogic, FlowMeta, FlowOutcome};
use crate::fault::LinkHealth;
use crate::ids::{LinkId, NodeId};
use crate::loss::GilbertElliott;
use crate::queue::PortQueue;
use crate::time::{Bps, Time};
use crate::topology::LinkClass;

/// Dense per-link state, one entry per [`LinkId`], in id order.
///
/// Columns are private so the table controls invariants (e.g. the epoch
/// bump on link-down); the engine and topology go through the accessors,
/// which the optimizer flattens to direct indexing.
#[derive(Clone, Debug, Default)]
pub struct LinkTable {
    from: Vec<NodeId>,
    to: Vec<NodeId>,
    bps: Vec<Bps>,
    delay: Vec<Time>,
    class: Vec<LinkClass>,
    queue: Vec<PortQueue>,
    /// Where the transmitter frees, as a `(time, seq)` position in the
    /// scheduler's order: the port is busy while this orders after the
    /// event being handled. While a packet serializes with none queued
    /// behind it, this is the slot the scheduler reserved for its
    /// `LinkFree` event, which nobody has scheduled; otherwise it is
    /// [`LinkTable::FREE_SCHEDULED`] or [`LinkTable::FREE_PASSED`].
    free_at: Vec<(Time, u64)>,
    /// False while the link is failed.
    up: Vec<bool>,
    /// Bumped on every down transition; in-flight packets carry the epoch
    /// they departed under and die on mismatch.
    epoch: Vec<u32>,
    health: Vec<LinkHealth>,
    loss: Vec<Option<GilbertElliott>>,
    tx_packets: Vec<u64>,
    tx_bytes: Vec<u64>,
    lost_packets: Vec<u64>,
    /// Outstanding PFC PAUSEs holding this link's transmitter (one per
    /// downstream egress port that asserted; transmit only when 0). Always
    /// 0 on a lossy fabric, so the hot-path gate is a single load.
    pause_refs: Vec<u32>,
    /// Deepest pause-tree depth attributed to this link while paused
    /// (1 = paused by a directly congested port, 2 = by a port that was
    /// itself paused, …). Reset when the last pause releases.
    pause_depth: Vec<u32>,
    /// When the current pause epoch began (valid while `pause_refs > 0`).
    paused_since: Vec<Time>,
    /// Cumulative nanoseconds this link has spent paused (closed epochs).
    paused_ns: Vec<u64>,
}

impl LinkTable {
    /// Free position of a port whose `LinkFree` event is in the scheduler.
    /// It orders after every event, so the port reads busy until that
    /// event pops and sets [`LinkTable::FREE_PASSED`].
    pub(crate) const FREE_SCHEDULED: (Time, u64) = (Time::MAX, u64::MAX);
    /// Free position of an idle port with no transition left to account
    /// for, as every port starts. It orders at or before every event, so
    /// the port reads idle from the first pop on.
    pub(crate) const FREE_PASSED: (Time, u64) = (0, 0);

    /// Number of links.
    pub fn len(&self) -> usize {
        self.from.len()
    }

    /// True when the table holds no links.
    pub fn is_empty(&self) -> bool {
        self.from.is_empty()
    }

    /// All link ids, in id order.
    pub fn ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.len()).map(LinkId::from)
    }

    /// Append a link; returns its id (always `len - 1`).
    pub fn push(
        &mut self,
        from: NodeId,
        to: NodeId,
        bps: Bps,
        delay: Time,
        class: LinkClass,
        queue: PortQueue,
    ) -> LinkId {
        let id = LinkId::from(self.len());
        self.from.push(from);
        self.to.push(to);
        self.bps.push(bps);
        self.delay.push(delay);
        self.class.push(class);
        self.queue.push(queue);
        self.free_at.push(Self::FREE_PASSED);
        self.up.push(true);
        self.epoch.push(0);
        self.health.push(LinkHealth::default());
        self.loss.push(None);
        self.tx_packets.push(0);
        self.tx_bytes.push(0);
        self.lost_packets.push(0);
        self.pause_refs.push(0);
        self.pause_depth.push(0);
        self.paused_since.push(0);
        self.paused_ns.push(0);
        id
    }

    /// Source node.
    pub fn from(&self, l: LinkId) -> NodeId {
        self.from[l.index()]
    }

    /// Destination node.
    pub fn to(&self, l: LinkId) -> NodeId {
        self.to[l.index()]
    }

    /// Line rate (bits/s).
    pub fn bps(&self, l: LinkId) -> Bps {
        self.bps[l.index()]
    }

    /// Propagation delay (ns).
    pub fn delay(&self, l: LinkId) -> Time {
        self.delay[l.index()]
    }

    /// Topology role of the link.
    pub fn class(&self, l: LinkId) -> LinkClass {
        self.class[l.index()]
    }

    /// The link's output port queue.
    pub fn queue(&self, l: LinkId) -> &PortQueue {
        &self.queue[l.index()]
    }

    /// Mutable output port queue.
    pub fn queue_mut(&mut self, l: LinkId) -> &mut PortQueue {
        &mut self.queue[l.index()]
    }

    /// True while the link is serviceable.
    pub fn is_up(&self, l: LinkId) -> bool {
        self.up[l.index()]
    }

    /// Set the up/down flag (epoch management is the caller's job via
    /// [`LinkTable::bump_epoch`] so purge accounting stays in the engine).
    pub fn set_up(&mut self, l: LinkId, up: bool) {
        self.up[l.index()] = up;
    }

    /// The transmitter's free position (see [`LinkTable::FREE_SCHEDULED`]
    /// and [`LinkTable::FREE_PASSED`]).
    #[inline]
    pub(crate) fn free_at(&self, l: LinkId) -> (Time, u64) {
        self.free_at[l.index()]
    }

    /// Set the transmitter's free position.
    #[inline]
    pub(crate) fn set_free_at(&mut self, l: LinkId, at: (Time, u64)) {
        self.free_at[l.index()] = at;
    }

    /// Mark every unscheduled free transition at or before `bound` as
    /// [`LinkTable::FREE_PASSED`]; returns how many there were.
    pub(crate) fn settle_free_transitions(&mut self, bound: (Time, u64)) -> u64 {
        let mut settled = 0;
        for at in &mut self.free_at {
            if *at != Self::FREE_PASSED && *at != Self::FREE_SCHEDULED && *at <= bound {
                *at = Self::FREE_PASSED;
                settled += 1;
            }
        }
        settled
    }

    /// Current failure epoch.
    pub fn epoch(&self, l: LinkId) -> u32 {
        self.epoch[l.index()]
    }

    /// Advance the failure epoch (invalidates in-flight packets).
    pub fn bump_epoch(&mut self, l: LinkId) {
        let e = &mut self.epoch[l.index()];
        *e = e.wrapping_add(1);
    }

    /// Current fault health.
    pub fn health(&self, l: LinkId) -> &LinkHealth {
        &self.health[l.index()]
    }

    /// Mutable fault health (fault plane transitions).
    pub fn health_mut(&mut self, l: LinkId) -> &mut LinkHealth {
        &mut self.health[l.index()]
    }

    /// Mutable correlated-loss model slot (`None` = lossless).
    pub fn loss_mut(&mut self, l: LinkId) -> &mut Option<GilbertElliott> {
        &mut self.loss[l.index()]
    }

    /// Install (or replace) the correlated-loss model.
    pub fn set_loss(&mut self, l: LinkId, model: Option<GilbertElliott>) {
        self.loss[l.index()] = model;
    }

    /// Record one transmitted packet of `bytes`.
    pub fn note_tx(&mut self, l: LinkId, bytes: u64) {
        self.tx_packets[l.index()] += 1;
        self.tx_bytes[l.index()] += bytes;
    }

    /// Record `n` packets lost on the link (down-drops, purges, loss model).
    pub fn note_lost(&mut self, l: LinkId, n: u64) {
        self.lost_packets[l.index()] += n;
    }

    /// Packets transmitted.
    pub fn tx_packets(&self, l: LinkId) -> u64 {
        self.tx_packets[l.index()]
    }

    /// Bytes transmitted.
    pub fn tx_bytes(&self, l: LinkId) -> u64 {
        self.tx_bytes[l.index()]
    }

    /// Packets lost on the link itself.
    pub fn lost_packets(&self, l: LinkId) -> u64 {
        self.lost_packets[l.index()]
    }

    /// True while at least one PFC PAUSE holds this link's transmitter.
    #[inline]
    pub fn paused(&self, l: LinkId) -> bool {
        self.pause_refs[l.index()] > 0
    }

    /// Apply one PFC PAUSE to this link at time `now` with pause-tree depth
    /// `depth`. Returns true when this opened a pause epoch (refs 0 → 1).
    pub fn apply_pause(&mut self, l: LinkId, now: Time, depth: u32) -> bool {
        let i = l.index();
        self.pause_refs[i] += 1;
        self.pause_depth[i] = self.pause_depth[i].max(depth);
        if self.pause_refs[i] == 1 {
            self.paused_since[i] = now;
            true
        } else {
            false
        }
    }

    /// Release one PFC PAUSE at time `now`. Returns true when this closed
    /// the pause epoch (refs 1 → 0) and the link may transmit again.
    pub fn release_pause(&mut self, l: LinkId, now: Time) -> bool {
        let i = l.index();
        debug_assert!(self.pause_refs[i] > 0, "resume without pause on {l}");
        self.pause_refs[i] = self.pause_refs[i].saturating_sub(1);
        if self.pause_refs[i] == 0 {
            self.paused_ns[i] += now.saturating_sub(self.paused_since[i]);
            self.pause_depth[i] = 0;
            true
        } else {
            false
        }
    }

    /// Pause-tree depth attributed to this link (0 while unpaused).
    pub fn pause_depth(&self, l: LinkId) -> u32 {
        self.pause_depth[l.index()]
    }

    /// Cumulative nanoseconds spent paused up to `now` (open epoch
    /// included).
    pub fn paused_ns(&self, l: LinkId, now: Time) -> u64 {
        let i = l.index();
        let open = if self.pause_refs[i] > 0 {
            now.saturating_sub(self.paused_since[i])
        } else {
            0
        };
        self.paused_ns[i] + open
    }

    /// Total bytes currently queued across all ports (heartbeat gauge).
    pub fn total_queued_bytes(&self) -> u64 {
        self.queue.iter().map(|q| q.bytes()).sum()
    }
}

/// Interned forwarding state: every node's port lists flattened into one
/// arena, plus per-`(src_dc, dst_dc)` border peer groups.
///
/// Built once by [`crate::Topology::build`]; read-only afterwards. Ranges
/// are `(start, end)` indices into the arena, so a node's up/down ports are
/// a contiguous slice — no per-node allocation survives the build.
#[derive(Clone, Debug, Default)]
pub struct FwdTable {
    /// Flat arena of port lists (up then down per node, then peer groups).
    ports: Vec<LinkId>,
    /// Per-node `(start, end)` range of uplinks in `ports`.
    up: Vec<(u32, u32)>,
    /// Per-node `(start, end)` range of downlinks in `ports`.
    down: Vec<(u32, u32)>,
    /// Per-node core→border uplink, if any.
    border_port: Vec<Option<LinkId>>,
    /// `dcs`, for peer-group indexing.
    dcs: u32,
    /// `(start, end)` ranges into `ports`, indexed `src_dc * dcs + dst_dc`;
    /// the peer links a border switch in `src_dc` may use toward `dst_dc`.
    peers: Vec<(u32, u32)>,
    /// Per-node `(start, end)` range of ingress (feeder) links in `ports` —
    /// every link whose destination is this node. PFC pause frames fan out
    /// across exactly this slice.
    feeders: Vec<(u32, u32)>,
}

/// Build-time scratch for [`FwdTable`]: plain per-node `Vec`s the topology
/// wiring pushes into, interned into the flat arena when the build ends.
#[derive(Debug, Default)]
pub struct FwdScratch {
    /// Per-node uplinks, host/edge/agg/core→border order as wired.
    pub up: Vec<Vec<LinkId>>,
    /// Per-node downlinks.
    pub down: Vec<Vec<LinkId>>,
    /// Per-node core→border uplink.
    pub border_port: Vec<Option<LinkId>>,
    /// Peer groups indexed `src_dc * dcs + dst_dc`.
    pub peers: Vec<Vec<LinkId>>,
    /// Per-node ingress (feeder) links.
    pub feeders: Vec<Vec<LinkId>>,
    /// Number of DCs (sizes the peer-group matrix).
    pub dcs: u32,
}

impl FwdScratch {
    /// Scratch for `nodes` nodes across `dcs` DCs.
    pub fn new(nodes: usize, dcs: u32) -> Self {
        FwdScratch {
            up: vec![Vec::new(); nodes],
            down: vec![Vec::new(); nodes],
            border_port: vec![None; nodes],
            peers: vec![Vec::new(); (dcs * dcs) as usize],
            feeders: vec![Vec::new(); nodes],
            dcs,
        }
    }
}

impl FwdTable {
    /// Intern `scratch` into the flat arena form.
    pub fn intern(scratch: FwdScratch) -> Self {
        let total: usize = scratch.up.iter().map(|v| v.len()).sum::<usize>()
            + scratch.down.iter().map(|v| v.len()).sum::<usize>()
            + scratch.peers.iter().map(|v| v.len()).sum::<usize>()
            + scratch.feeders.iter().map(|v| v.len()).sum::<usize>();
        let mut ports = Vec::with_capacity(total);
        let mut range = |list: &[LinkId]| {
            let start = ports.len() as u32;
            ports.extend_from_slice(list);
            (start, ports.len() as u32)
        };
        let mut up = Vec::with_capacity(scratch.up.len());
        let mut down = Vec::with_capacity(scratch.down.len());
        for (u, d) in scratch.up.iter().zip(&scratch.down) {
            up.push(range(u));
            down.push(range(d));
        }
        let peers = scratch.peers.iter().map(|p| range(p)).collect();
        let feeders = scratch.feeders.iter().map(|f| range(f)).collect();
        FwdTable {
            ports,
            up,
            down,
            border_port: scratch.border_port,
            dcs: scratch.dcs,
            peers,
            feeders,
        }
    }

    /// Uplink ports of `n`, in wiring order.
    pub fn up(&self, n: NodeId) -> &[LinkId] {
        let (s, e) = self.up[n.index()];
        &self.ports[s as usize..e as usize]
    }

    /// Downlink ports of `n`, in wiring order.
    pub fn down(&self, n: NodeId) -> &[LinkId] {
        let (s, e) = self.down[n.index()];
        &self.ports[s as usize..e as usize]
    }

    /// The core→border uplink of core switch `n`, if the topology has
    /// border switches.
    pub fn border_port(&self, n: NodeId) -> Option<LinkId> {
        self.border_port[n.index()]
    }

    /// Border peer links from `src_dc`'s border switch toward `dst_dc`.
    pub fn peers(&self, src_dc: u32, dst_dc: u32) -> &[LinkId] {
        let (s, e) = self.peers[(src_dc * self.dcs + dst_dc) as usize];
        &self.ports[s as usize..e as usize]
    }

    /// Ingress (feeder) links of `n` — every link terminating at this node,
    /// in wiring order. A congested egress port at `n` pauses this slice.
    pub fn feeders(&self, n: NodeId) -> &[LinkId] {
        let (s, e) = self.feeders[n.index()];
        &self.ports[s as usize..e as usize]
    }
}

/// Dense per-flow state, one entry per [`crate::FlowId`], in registration
/// order.
///
/// The transport logic column keeps its `Box<dyn FlowLogic>` (the engine
/// checks logic out during callbacks and back in afterwards); everything
/// the hot paths test first — the `done` flag — is its own dense column so
/// skipping a finished flow touches one byte, not a fat struct.
#[derive(Default)]
pub struct FlowTable {
    meta: Vec<FlowMeta>,
    logic: Vec<Option<Box<dyn FlowLogic>>>,
    done: Vec<bool>,
    outcome: Vec<Option<FlowOutcome>>,
    record_progress: Vec<bool>,
}

impl FlowTable {
    /// Number of registered flows.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Register a flow; its id is `len - 1` at return.
    pub fn push(&mut self, meta: FlowMeta, logic: Box<dyn FlowLogic>, record_progress: bool) {
        self.meta.push(meta);
        self.logic.push(Some(logic));
        self.done.push(false);
        self.outcome.push(None);
        self.record_progress.push(record_progress);
    }

    /// Flow metadata by index.
    pub fn meta(&self, i: usize) -> &FlowMeta {
        &self.meta[i]
    }

    /// True once the flow reached a terminal state.
    pub fn is_done(&self, i: usize) -> bool {
        self.done[i]
    }

    /// Terminal outcome, if the flow finished.
    pub fn outcome(&self, i: usize) -> Option<FlowOutcome> {
        self.outcome[i]
    }

    /// All terminal outcomes, index-aligned with flow ids.
    pub fn outcomes(&self) -> Vec<Option<FlowOutcome>> {
        self.outcome.clone()
    }

    /// Whether the flow records progress points.
    pub fn records_progress(&self, i: usize) -> bool {
        self.record_progress[i]
    }

    /// Check the transport logic out for a callback (`None` while already
    /// checked out, or for a stub flow).
    pub fn take_logic(&mut self, i: usize) -> Option<Box<dyn FlowLogic>> {
        self.logic[i].take()
    }

    /// Check the transport logic back in.
    pub fn put_logic(&mut self, i: usize, logic: Box<dyn FlowLogic>) {
        self.logic[i] = Some(logic);
    }

    /// Borrow the transport logic mutably (terminal-state hooks).
    pub fn logic_mut(&mut self, i: usize) -> Option<&mut (dyn FlowLogic + '_)> {
        match self.logic[i].as_deref_mut() {
            Some(l) => Some(l),
            None => None,
        }
    }

    /// Mark flow `i` terminated with `outcome`. Returns false (and changes
    /// nothing) if it already finished.
    pub fn mark_terminated(&mut self, i: usize, outcome: FlowOutcome) -> bool {
        if self.done[i] {
            return false;
        }
        self.done[i] = true;
        self.outcome[i] = Some(outcome);
        true
    }

    /// Fold every resident transport's counters into `c`.
    pub fn report_counters(&self, c: &mut uno_trace::Counters) {
        for logic in self.logic.iter().flatten() {
            logic.report_counters(c);
        }
    }

    /// Telemetry sample for flow `i` (`None` once done or for stub flows).
    pub fn telemetry_sample(&self, i: usize) -> Option<uno_trace::FlowSample> {
        if self.done[i] {
            return None;
        }
        self.logic[i].as_ref().and_then(|l| l.telemetry_sample())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_table_round_trips_fields() {
        let mut t = LinkTable::default();
        let q = PortQueue::new(64 * 1024, crate::queue::RedParams::default());
        let l = t.push(NodeId(3), NodeId(7), 100, 500, LinkClass::HostEdge, q);
        assert_eq!(l, LinkId(0));
        assert_eq!(t.len(), 1);
        assert_eq!((t.from(l), t.to(l)), (NodeId(3), NodeId(7)));
        assert_eq!((t.bps(l), t.delay(l)), (100, 500));
        assert!(t.is_up(l));
        assert_eq!(t.free_at(l), LinkTable::FREE_PASSED);
        t.set_up(l, false);
        t.bump_epoch(l);
        assert!(!t.is_up(l));
        assert_eq!(t.epoch(l), 1);
        t.note_tx(l, 1500);
        t.note_tx(l, 500);
        t.note_lost(l, 3);
        assert_eq!(
            (t.tx_packets(l), t.tx_bytes(l), t.lost_packets(l)),
            (2, 2000, 3)
        );
    }

    #[test]
    fn settling_passes_only_unscheduled_transitions_up_to_the_bound() {
        let mut t = LinkTable::default();
        let free = [
            LinkTable::FREE_PASSED,
            LinkTable::FREE_SCHEDULED,
            (100, 7),
            (100, 9),
            (250, 3),
        ];
        for at in free {
            let q = PortQueue::new(64 * 1024, crate::queue::RedParams::default());
            let l = t.push(NodeId(0), NodeId(1), 100, 500, LinkClass::EdgeAgg, q);
            t.set_free_at(l, at);
        }
        assert_eq!(t.settle_free_transitions((100, 8)), 1);
        assert_eq!(t.free_at(LinkId(2)), LinkTable::FREE_PASSED);
        assert_eq!(t.free_at(LinkId(3)), (100, 9));
        // A bound past every time still leaves the scheduled port busy.
        assert_eq!(t.settle_free_transitions((Time::MAX, u64::MAX)), 2);
        assert_eq!(t.free_at(LinkId(1)), LinkTable::FREE_SCHEDULED);
        assert_eq!(t.settle_free_transitions((Time::MAX, u64::MAX)), 0);
    }

    #[test]
    fn pause_refcount_and_time_accounting() {
        let mut t = LinkTable::default();
        let q = PortQueue::new(64 * 1024, crate::queue::RedParams::default());
        let l = t.push(NodeId(0), NodeId(1), 100, 500, LinkClass::EdgeAgg, q);
        assert!(!t.paused(l));
        assert_eq!(t.paused_ns(l, 100), 0);
        // Two overlapping pauses: the epoch opens on the first, closes on
        // the last, and the depth is the max of the contributors.
        assert!(t.apply_pause(l, 1000, 1));
        assert!(!t.apply_pause(l, 1500, 3));
        assert!(t.paused(l));
        assert_eq!(t.pause_depth(l), 3);
        assert_eq!(t.paused_ns(l, 2000), 1000, "open epoch counts");
        assert!(!t.release_pause(l, 2500));
        assert!(t.paused(l));
        assert!(t.release_pause(l, 3000));
        assert!(!t.paused(l));
        assert_eq!(t.pause_depth(l), 0, "depth resets on full release");
        assert_eq!(t.paused_ns(l, 9999), 2000);
        // A second epoch accumulates on top.
        assert!(t.apply_pause(l, 10_000, 1));
        assert!(t.release_pause(l, 10_500));
        assert_eq!(t.paused_ns(l, 99_999), 2500);
    }

    #[test]
    fn fwd_table_interns_ranges() {
        let mut s = FwdScratch::new(3, 2);
        s.up[0] = vec![LinkId(1), LinkId(2)];
        s.down[1] = vec![LinkId(3)];
        s.border_port[2] = Some(LinkId(9));
        s.peers[1] = vec![LinkId(4), LinkId(5)]; // (src 0, dst 1)
        s.peers[2] = vec![LinkId(6)]; // (src 1, dst 0)
        s.feeders[1] = vec![LinkId(1), LinkId(7)];
        let f = FwdTable::intern(s);
        assert_eq!(f.up(NodeId(0)), &[LinkId(1), LinkId(2)]);
        assert!(f.down(NodeId(0)).is_empty());
        assert_eq!(f.down(NodeId(1)), &[LinkId(3)]);
        assert_eq!(f.border_port(NodeId(2)), Some(LinkId(9)));
        assert_eq!(f.peers(0, 1), &[LinkId(4), LinkId(5)]);
        assert_eq!(f.peers(1, 0), &[LinkId(6)]);
        assert!(f.peers(0, 0).is_empty());
        assert_eq!(f.feeders(NodeId(1)), &[LinkId(1), LinkId(7)]);
        assert!(f.feeders(NodeId(0)).is_empty());
    }
}
