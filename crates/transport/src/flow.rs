//! `MessageFlow` — the full transport endpoint pair.
//!
//! One `MessageFlow` object implements both endpoints of a message transfer
//! (the engine delivers packets arriving at either host to the same logic):
//!
//! * **Sender half** — window-based transmission driven by a pluggable
//!   [`CcAlgorithm`], a pluggable [`LoadBalancer`] for path entropy,
//!   retransmission on RTO, reorder-tolerant fast retransmit, optional
//!   pacing (BBR), and optional UnoRC erasure-coded block framing.
//! * **Receiver half** — per-packet ACKs echoing ECN and timestamps; with
//!   erasure coding, per-block reassembly state, a block timer set to the
//!   estimated queuing+transmission delay, and NACKs for unrecoverable
//!   blocks (paper §4.2).
//!
//! The flow completes when the receiver provably holds the message: every
//! EC block has at least `x` distinct packets ACKed (any `x` of `x+y`
//! reconstruct), or every data packet is ACKed when EC is off.

use std::collections::VecDeque;

use uno_erasure::EcParams;
use uno_sim::pool::shrunk_capacity;
use uno_sim::{
    Counters, Ctx, FlowClass, FlowLogic, FlowOutcome, FlowSample, NodeId, Packet, PacketKind,
    StallCause, Time, Topology, TraceEvent, MILLIS,
};

use crate::cc::{AckEvent, CcAlgorithm};
use crate::lb::{LbMode, LoadBalancer};
use crate::rtt::RttEstimator;

/// Timer token kinds (low 8 bits; the argument rides in the high bits).
const TK_RTO: u64 = 1;
const TK_PACE: u64 = 2;
const TK_BLOCK: u64 = 3;
const TK_WATCHDOG: u64 = 4;

/// Maximum NACK retries per block before relying on the sender RTO.
const MAX_NACKS_PER_BLOCK: u8 = 8;

/// Wire size of ACK and NACK packets.
const ACK_SIZE: u32 = 64;

/// Test-only fault-injection switches. `uno-testkit` plants these bugs to
/// prove its invariant checkers catch them; production configs leave every
/// switch off (the [`Default`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Declare an EC block complete one ACK early (classic off-by-one in the
    /// sender's block accounting), violating completion soundness.
    pub block_accounting_off_by_one: bool,
}

/// Static configuration of a [`MessageFlow`].
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Application bytes to transfer.
    pub size: u64,
    /// Wire MTU for data packets.
    pub mtu: u32,
    /// Base (propagation) RTT of this flow's path. It is also the
    /// receiver's block timer (paper: the estimated max queuing and
    /// transmission delay), used with EC only.
    pub base_rtt: Time,
    /// Minimum retransmission timeout.
    pub min_rto: Time,
    /// Erasure coding geometry; `None` disables UnoRC framing.
    pub ec: Option<EcParams>,
    /// Load-balancing policy; it also sets the reorder tolerance of fast
    /// retransmit ([`LbMode::reorder_tolerance`]).
    pub lb: LbMode,
    /// Stall watchdog: check cumulative-ACK progress every `n × rto`; two
    /// consecutive checks without progress terminate the flow as
    /// [`FlowOutcome::Stalled`]. `None` disables the watchdog (flows under a
    /// permanent fault then run until the experiment horizon, i.e. legacy
    /// censored-FCT behaviour).
    pub stall_rtos: Option<u32>,
    /// Abort after this many *consecutive* RTO firings with no delivered-byte
    /// progress between them ([`FlowOutcome::Aborted`]). `None` retries
    /// forever.
    pub max_rto_retries: Option<u32>,
    /// Deliberate, test-only protocol bugs (all off by default).
    pub faults: FaultInjection,
}

impl FlowConfig {
    /// A `size`-byte message from `src` to `dst` over `topo`: the path's
    /// base RTT, the network's MTU, and a minimum RTO of 2 base RTTs across
    /// the WAN and max(1 ms, 4 base RTTs) within a DC. It starts on ECMP
    /// without EC or degradation; callers set those.
    pub fn for_path(topo: &Topology, src: NodeId, dst: NodeId, size: u64) -> Self {
        let base_rtt = topo.base_rtt(src, dst);
        let min_rto = match topo.flow_class(src, dst) {
            FlowClass::Inter => 2 * base_rtt,
            FlowClass::Intra => MILLIS.max(4 * base_rtt),
        };
        FlowConfig {
            src,
            dst,
            size,
            mtu: topo.params.mtu,
            base_rtt,
            min_rto,
            ec: None,
            lb: LbMode::Ecmp,
            stall_rtos: None,
            max_rto_retries: None,
            faults: FaultInjection::default(),
        }
    }

    /// Enable graceful degradation (stall watchdog + bounded-retry abort)
    /// with the given knobs, for runs that inject faults.
    pub fn with_degradation(mut self, stall_rtos: u32, max_rto_retries: u32) -> Self {
        self.stall_rtos = Some(stall_rtos);
        self.max_rto_retries = Some(max_rto_retries);
        self
    }
}

/// Where one wire packet stands in the send pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// Never transmitted.
    #[default]
    Fresh,
    /// Transmitted and counted in `inflight`.
    InFlight,
    /// Presumed lost and waiting in `rtx_queue`.
    Queued,
    /// Acknowledged, or settled with its EC block. Final.
    Acked,
}

/// Sender record of one wire packet.
#[derive(Clone, Copy, Debug, Default)]
struct PktState {
    sent_at: Time,
    order: u64,
    delivered_at_send: u64,
    /// Wire bytes. 0 marks the data slots that a short last EC block leaves
    /// empty; they are never sent.
    size: u32,
    entropy: u16,
    phase: Phase,
}

const _: () = assert!(std::mem::size_of::<PktState>() == 32);

/// Most wire packets one message may have: the fast-retransmit log and the
/// retransmission queue store sequences as `u32`.
pub const MAX_WIRE_PACKETS: u64 = u32::MAX as u64;

/// Wire packets of a `size`-byte message at `mtu`: its data packets, or with
/// erasure coding its blocks times `x + y`, empty data slots of a short last
/// block included. Saturates instead of overflowing, so any count too large
/// to track reads as above [`MAX_WIRE_PACKETS`].
pub fn wire_packets(size: u64, mtu: u32, ec: Option<EcParams>) -> u64 {
    let data = size.div_ceil(mtu as u64);
    match ec {
        Some(ec) => data
            .div_ceil(ec.data as u64)
            .saturating_mul(ec.total() as u64),
        None => data,
    }
}

/// Apply the storage rule of drained buffers ([`shrunk_capacity`]) to one
/// of the per-flow sender deques (the send ring, the fast-retransmit log
/// and the retransmission queue); called after every run of pops.
fn shrink<T>(q: &mut VecDeque<T>) {
    if let Some(capacity) = shrunk_capacity(q.len(), q.capacity()) {
        q.shrink_to(capacity);
    }
}

/// The sender records of wire sequences `[base, base + len)`, where `base`
/// is the oldest sequence not yet acked or settled. A sequence below the
/// ring reads as acked and one at or past its end as never sent, so the
/// ring spans the open window, not the message: it grows while a hole stays
/// open, and once the hole closes its base jumps forward and its storage
/// shrinks back towards the window.
#[derive(Debug, Default)]
struct SendRing {
    base: u64,
    slots: VecDeque<PktState>,
}

impl SendRing {
    /// One past the highest sequence touched.
    fn hi(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    fn get(&self, seq: u64) -> Option<&PktState> {
        self.slots.get(seq.checked_sub(self.base)? as usize)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut PktState> {
        self.slots.get_mut(seq.checked_sub(self.base)? as usize)
    }

    fn is_acked(&self, seq: u64) -> bool {
        seq < self.base || self.get(seq).is_some_and(|s| s.phase == Phase::Acked)
    }

    /// Append the record of sequence `hi()`. Storage starts at 16 slots and
    /// doubles, but never past `max`, the message's wire count.
    fn push(&mut self, s: PktState, max: u64) {
        if self.slots.len() == self.slots.capacity() {
            let cap = (self.slots.capacity() * 2).max(16).min(max as usize);
            self.slots.reserve_exact(cap - self.slots.len());
        }
        self.slots.push_back(s);
    }

    /// Move `base` past the acked and empty slots at the front.
    fn advance(&mut self) {
        while self
            .slots
            .front()
            .is_some_and(|s| s.phase == Phase::Acked || s.size == 0)
        {
            self.slots.pop_front();
            self.base += 1;
        }
        shrink(&mut self.slots);
    }
}

fn bit(words: &[u64], i: u64) -> bool {
    words[(i / 64) as usize] & (1 << (i % 64)) != 0
}

fn set_bit(words: &mut [u64], i: u64) {
    words[(i / 64) as usize] |= 1 << (i % 64);
}

/// The state of one EC block, `(acked, arrived, nacks)`:
///
/// * `acked` — sender: data packets counted as acked, up to the block's
///   data count;
/// * `arrived` — receiver: distinct packets arrived, up to the block's data
///   count, which makes the block decodable (any `x` of `x + y`);
/// * `nacks` — receiver: NACKs sent for the block.
///
/// Each count fits a `u8` because a block has at most 255 data packets. A
/// tuple rather than a struct, so that `vec![(0, 0, 0); n]` allocates zeroed
/// memory: the pages of blocks a long flow has not reached stay out of RSS.
type Block = (u8, u8, u8);

/// Controller/balancer state captured before a congestion signal is applied,
/// so tracing can emit delta events (cwnd change, epoch boundary, Quick
/// Adapt, reroute) without instrumenting every controller internally.
#[derive(Clone, Copy, Debug)]
struct CcSnapshot {
    cwnd: f64,
    md: u64,
    qa: u64,
    epochs: u64,
    reroutes: u64,
}

/// The transport endpoint pair (see module docs).
pub struct MessageFlow {
    cfg: FlowConfig,
    cc: Box<dyn CcAlgorithm>,
    lb: Option<LoadBalancer>,
    rtt: RttEstimator,

    // --- layout ---
    data_pkts: u64,
    nblocks: u64,
    /// x + y when EC is on; meaningless otherwise.
    block_n: u64,

    // --- sender ---
    ring: SendRing,
    /// One bit per wire packet: ever retransmitted. Karn's rule reads it on
    /// every ACK, also for packets already below the ring (a block settled
    /// by [`MessageFlow::finish_block`] still gets ACKs for its packets).
    rtx_bitmap: Vec<u64>,
    total_wire: u64,
    next_new: u64,
    rtx_queue: VecDeque<u32>,
    inflight: u64,
    delivered: u64,
    send_order: u64,
    max_acked_order: u64,
    /// The fast-retransmit log: one sequence per transmission of a flow
    /// without erasure coding, oldest first; entries leave from the front
    /// as [`MessageFlow::fast_rtx_scan`] passes them, or all at once on an
    /// RTO. Its orders are implicit (see [`MessageFlow::log_front`]).
    /// Erasure-coded flows never run fast retransmit, so theirs stays empty.
    sent_fifo: VecDeque<u32>,
    completed: bool,
    // Completion accounting.
    blocks_done: u64,
    acked_data: u64,
    // RTO (lazy single timer).
    rto_deadline: Time,
    rto_pending: bool,
    rto_backoff: u32,
    loss_guard_until: Time,
    /// RTO events fired (diagnostics).
    pub rto_count: u64,
    /// Fast-retransmit loss events (diagnostics).
    pub fast_rtx_count: u64,
    /// Wire packets retransmitted (diagnostics).
    pub rtx_packets: u64,
    // Pacing (lazy single timer).
    pace_next: Time,
    pace_pending: bool,
    // Graceful degradation (both paths only active when configured).
    failed: bool,
    /// Delivered bytes at the last watchdog check.
    watchdog_delivered: u64,
    /// Consecutive watchdog checks without delivered-byte progress.
    stall_strikes: u32,
    /// Consecutive genuine RTO firings without delivered-byte progress.
    rtos_since_progress: u32,
    /// Delivered bytes at the last genuine RTO.
    delivered_at_last_rto: u64,

    /// One record per EC block, shared by both halves (see [`Block`]);
    /// empty without EC.
    blocks: Vec<Block>,

    // --- receiver ---
    /// With EC, one bit per wire packet: arrived at least once, so that a
    /// duplicate does not count towards its block. Empty without EC.
    rx_bitmap: Vec<u64>,
    /// Blocks `[0, rx_armed)` have their NACK timers armed. Blocks are sent
    /// in order, so the first packet of block `b` proves every earlier block
    /// was sent: one whose packets were all lost never arms its own timer,
    /// so it is armed then too.
    rx_armed: u64,
    /// NACKs sent (diagnostics).
    pub nack_count: u64,
}

impl MessageFlow {
    /// Create a flow endpoint pair with the given congestion controller.
    ///
    /// Panics on an empty message, and on one of more than
    /// [`MAX_WIRE_PACKETS`] wire packets.
    pub fn new(cfg: FlowConfig, cc: Box<dyn CcAlgorithm>) -> Self {
        assert!(cfg.size > 0, "empty flows are not modelled");
        assert!(cfg.mtu > 0);
        let total_wire = wire_packets(cfg.size, cfg.mtu, cfg.ec);
        assert!(
            total_wire <= MAX_WIRE_PACKETS,
            "a {}-byte message is {total_wire} wire packets at MTU {}, above the \
             {MAX_WIRE_PACKETS} one flow can track",
            cfg.size,
            cfg.mtu
        );
        let data_pkts = cfg.size.div_ceil(cfg.mtu as u64);
        let (nblocks, block_n) = match cfg.ec {
            Some(ec) => (data_pkts.div_ceil(ec.data as u64), ec.total() as u64),
            None => (0, 0),
        };
        let words = (total_wire as usize).div_ceil(64);
        MessageFlow {
            ring: SendRing::default(),
            rtx_bitmap: vec![0; words],
            total_wire,
            data_pkts,
            nblocks,
            block_n,
            lb: None,
            rtt: RttEstimator::new(),
            next_new: 0,
            rtx_queue: VecDeque::new(),
            inflight: 0,
            delivered: 0,
            send_order: 0,
            max_acked_order: 0,
            sent_fifo: VecDeque::new(),
            completed: false,
            blocks_done: 0,
            acked_data: 0,
            rto_deadline: 0,
            rto_pending: false,
            rto_backoff: 0,
            loss_guard_until: 0,
            rto_count: 0,
            fast_rtx_count: 0,
            rtx_packets: 0,
            pace_next: 0,
            pace_pending: false,
            failed: false,
            watchdog_delivered: 0,
            stall_strikes: 0,
            rtos_since_progress: 0,
            delivered_at_last_rto: 0,
            blocks: vec![(0, 0, 0); nblocks as usize],
            rx_bitmap: if cfg.ec.is_some() {
                vec![0; words]
            } else {
                Vec::new()
            },
            rx_armed: 0,
            nack_count: 0,
            cfg,
            cc,
        }
    }

    /// Access the congestion controller (diagnostics).
    pub fn cc(&self) -> &dyn CcAlgorithm {
        self.cc.as_ref()
    }

    /// Access the load balancer, once started (diagnostics).
    pub fn lb(&self) -> Option<&LoadBalancer> {
        self.lb.as_ref()
    }

    /// Bytes currently believed in flight (diagnostics).
    pub fn inflight(&self) -> u64 {
        self.inflight
    }

    /// Cumulative acknowledged wire bytes (diagnostics).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Wire bytes of sequence `seq`, or 0 for an empty data slot of a short
    /// last EC block.
    fn wire_size(&self, seq: u64) -> u32 {
        let Some(ec) = self.cfg.ec else {
            return self.data_pkt_size(seq);
        };
        let x = ec.data as u64;
        let n = ec.total() as u64;
        let (b, i) = (seq / n, seq % n);
        if i >= x {
            // Parity: the same size as the block's first shard.
            self.data_pkt_size(b * x)
        } else if i < self.block_data_count(b) {
            self.data_pkt_size(b * x + i)
        } else {
            0
        }
    }

    /// Enter every sequence below `hi` into the ring, as never sent.
    fn extend_ring(&mut self, hi: u64) {
        while self.ring.hi() < hi {
            let size = self.wire_size(self.ring.hi());
            self.ring.push(
                PktState {
                    size,
                    ..PktState::default()
                },
                self.total_wire,
            );
        }
    }

    /// Snapshot of cc/lb observables, taken only when tracing is enabled.
    fn cc_snapshot(&self) -> CcSnapshot {
        CcSnapshot {
            cwnd: self.cc.cwnd(),
            md: self.cc.md_count(),
            qa: self.cc.qa_count(),
            epochs: self.cc.epoch_count(),
            reroutes: self.lb.as_ref().map_or(0, |lb| lb.reroutes),
        }
    }

    /// Emit delta events against a pre-update [`CcSnapshot`].
    fn trace_cc_deltas(&self, before: CcSnapshot, ctx: &mut Ctx) {
        let (t, flow) = (ctx.now, ctx.flow.0);
        let cwnd = self.cc.cwnd();
        if cwnd != before.cwnd {
            ctx.trace(TraceEvent::CwndChange { t, flow, cwnd });
        }
        if self.cc.epoch_count() != before.epochs {
            ctx.trace(TraceEvent::EpochBoundary {
                t,
                flow,
                ecn_frac: self.cc.ecn_fraction(),
                md: self.cc.md_count() != before.md,
            });
        }
        if self.cc.qa_count() != before.qa {
            ctx.trace(TraceEvent::QuickAdapt { t, flow, cwnd });
        }
        let reroutes = self.lb.as_ref().map_or(0, |lb| lb.reroutes);
        if reroutes != before.reroutes {
            ctx.trace(TraceEvent::Reroute { t, flow, reroutes });
        }
    }

    /// Bytes of global data packet `d` (the final packet may be short).
    fn data_pkt_size(&self, d: u64) -> u32 {
        let mtu = self.cfg.mtu as u64;
        let rem = self.cfg.size - d * mtu;
        rem.min(mtu) as u32
    }

    /// Number of real data packets in EC block `b`.
    fn block_data_count(&self, b: u64) -> u64 {
        let x = self.cfg.ec.expect("EC only").data as u64;
        (self.data_pkts - b * x).min(x)
    }

    /// The EC block of wire sequence `seq` (0 without EC). Packets carry
    /// no block field: both halves derive it from the sequence.
    fn seq_block(&self, seq: u64) -> u64 {
        match self.cfg.ec {
            Some(_) => seq / self.block_n,
            None => 0,
        }
    }

    /// Iterate the wire sequence numbers of EC block `b`.
    fn block_seqs(&self, b: u64) -> std::ops::Range<u64> {
        b * self.block_n..(b + 1) * self.block_n
    }

    // ------------------------------------------------------------------
    // Sender half
    // ------------------------------------------------------------------

    fn pump(&mut self, ctx: &mut Ctx) {
        while !self.completed && !self.failed {
            // Pacing gate (rate-based controllers).
            if self.cc.pacing_bps().is_some() && ctx.now < self.pace_next {
                self.ensure_pace_timer(ctx);
                return;
            }
            // Window gate.
            let Some((seq, size)) = self.peek_next_seq() else {
                return;
            };
            if self.inflight > 0 && (self.inflight + size as u64) as f64 > self.cc.cwnd() {
                return;
            }
            self.pop_next_seq(seq);
            self.transmit(seq, size, ctx);
            if let Some(rate) = self.cc.pacing_bps() {
                if rate > 0.0 {
                    let gap = (size as f64 * 8.0 * uno_sim::SECONDS as f64 / rate) as Time;
                    self.pace_next = ctx.now + gap.max(1);
                }
            }
        }
    }

    /// Next sequence to transmit and its wire size, preferring
    /// retransmissions.
    fn peek_next_seq(&mut self) -> Option<(u64, u32)> {
        // Drop stale rtx entries (already acked since queued).
        while let Some(&seq) = self.rtx_queue.front() {
            let seq = seq as u64;
            match self.ring.get(seq) {
                Some(s) if s.phase != Phase::Acked => return Some((seq, s.size)),
                _ => {
                    self.rtx_queue.pop_front();
                    shrink(&mut self.rtx_queue);
                }
            }
        }
        // Next fresh packet, skipping empty slots and packets settled with
        // their block before they were sent. Only a sequence past the ring
        // can be fresh: inside it, those at or past `next_new` were all
        // settled by `finish_block`, and below it every one is acked.
        while self.next_new < self.total_wire {
            let seq = self.next_new;
            let size = if seq >= self.ring.hi() {
                self.wire_size(seq)
            } else {
                0
            };
            if size > 0 {
                return Some((seq, size));
            }
            self.next_new += 1;
        }
        None
    }

    fn pop_next_seq(&mut self, seq: u64) {
        if self.rtx_queue.front().is_some_and(|&q| q as u64 == seq) {
            self.rtx_queue.pop_front();
            shrink(&mut self.rtx_queue);
        } else {
            debug_assert_eq!(seq, self.next_new);
            self.next_new += 1;
        }
    }

    fn transmit(&mut self, seq: u64, size: u32, ctx: &mut Ctx) {
        let entropy = self.lb.as_mut().expect("started").next_entropy(ctx.rng);
        let order = self.send_order;
        self.send_order += 1;
        let delivered = self.delivered;
        if seq >= self.ring.hi() {
            // First transmission: the packet enters the ring, after any
            // empty slots the fresh-packet scan skipped.
            self.extend_ring(seq);
            self.ring.push(
                PktState {
                    size,
                    ..PktState::default()
                },
                self.total_wire,
            );
        }
        let s = self
            .ring
            .get_mut(seq)
            .expect("unacked packets are in the ring");
        debug_assert!(s.size == size && matches!(s.phase, Phase::Fresh | Phase::Queued));
        let is_rtx = s.phase == Phase::Queued;
        s.phase = Phase::InFlight;
        s.sent_at = ctx.now;
        s.order = order;
        s.delivered_at_send = delivered;
        s.entropy = entropy;
        self.inflight += size as u64;
        if is_rtx {
            set_bit(&mut self.rtx_bitmap, seq);
            self.rtx_packets += 1;
        }
        let mut p = Packet::data(ctx.flow, seq as u32, size, self.cfg.dst);
        p.entropy = entropy;
        p.sent_at = ctx.now;
        if self.cfg.ec.is_none() {
            self.sent_fifo.push_back(seq as u32);
        }
        self.cc.on_send(p.size as u64, ctx.now);
        ctx.send(p);
        self.arm_rto(ctx);
    }

    fn ensure_pace_timer(&mut self, ctx: &mut Ctx) {
        if !self.pace_pending {
            self.pace_pending = true;
            ctx.set_timer(self.pace_next.saturating_sub(ctx.now), TK_PACE);
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx) {
        let rto =
            self.rtt.rto(self.cfg.min_rto, 3 * self.cfg.base_rtt.max(1)) << self.rto_backoff.min(6);
        self.rto_deadline = ctx.now + rto;
        if !self.rto_pending {
            self.rto_pending = true;
            ctx.set_timer(rto, TK_RTO);
        }
    }

    fn on_rto_timer(&mut self, ctx: &mut Ctx) {
        self.rto_pending = false;
        if self.completed || self.failed || self.inflight == 0 {
            return;
        }
        if ctx.now < self.rto_deadline {
            // The deadline moved forward since this timer was armed.
            self.rto_pending = true;
            ctx.set_timer(self.rto_deadline - ctx.now, TK_RTO);
            return;
        }
        // Genuine RTO: everything outstanding is presumed lost.
        self.rto_count += 1;
        // Bounded-retry abort: consecutive RTOs with zero delivered-byte
        // progress mean the path (or its reverse) is gone, not congested.
        if self.delivered > self.delivered_at_last_rto {
            self.rtos_since_progress = 0;
        }
        self.delivered_at_last_rto = self.delivered;
        self.rtos_since_progress += 1;
        if let Some(max) = self.cfg.max_rto_retries {
            if self.rtos_since_progress > max {
                self.fail(FlowOutcome::Aborted, ctx);
                return;
            }
        }
        let before = if ctx.tracing() {
            Some(self.cc_snapshot())
        } else {
            None
        };
        // Every packet in flight is queued again, in the order it was last
        // sent. That leaves every log entry dead, and an empty log keeps
        // the orders `log_front` derives valid.
        let tail = self.rtx_queue.len();
        for (seq, s) in (self.ring.base..).zip(self.ring.slots.iter_mut()) {
            if s.phase == Phase::InFlight {
                s.phase = Phase::Queued;
                self.rtx_queue.push_back(seq as u32);
            }
        }
        let ring = &self.ring;
        self.rtx_queue.make_contiguous()[tail..]
            .sort_unstable_by_key(|&seq| ring.get(seq as u64).expect("queued in the ring").order);
        self.sent_fifo.clear();
        shrink(&mut self.sent_fifo);
        self.inflight = 0;
        self.cc.on_loss(ctx.now);
        self.loss_guard_until = ctx.now + self.cfg.base_rtt;
        if let Some(lb) = self.lb.as_mut() {
            lb.on_nack_or_timeout(ctx.now, ctx.rng);
        }
        if let Some(before) = before {
            ctx.trace(TraceEvent::Timeout {
                t: ctx.now,
                flow: ctx.flow.0,
                rtos: self.rto_count,
            });
            self.trace_cc_deltas(before, ctx);
        }
        self.rto_backoff = (self.rto_backoff + 1).min(6);
        self.pump(ctx);
        if self.inflight > 0 {
            self.arm_rto(ctx);
        }
    }

    fn on_ack(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let seq = pkt.seq as u64;
        let b = self.seq_block(seq);
        let rtt_sample = ctx.now.saturating_sub(pkt.sent_at).max(1);
        // Karn's algorithm: an ACK for a packet that was ever retransmitted
        // is ambiguous (it may acknowledge any copy), so it must not feed
        // the RTT estimator — a stale-copy ACK measured against the newest
        // transmission would collapse the RTO below the real RTT.
        if !bit(&self.rtx_bitmap, seq) {
            self.rtt.sample(rtt_sample);
        }
        self.rto_backoff = 0;
        if self.ring.is_acked(seq) {
            // Duplicate (e.g. spurious retransmission): no byte accounting,
            // but a piggybacked block-completion signal still counts.
            if ctx.tracing() {
                ctx.trace(TraceEvent::Ack {
                    t: ctx.now,
                    flow: ctx.flow.0,
                    seq,
                    bytes: 0,
                    ecn: pkt.ecn,
                    rtt: rtt_sample,
                    done: pkt.block_complete,
                });
            }
            if self.cfg.ec.is_some() && pkt.block_complete {
                self.finish_block(b);
                if self.blocks_done == self.nblocks {
                    self.complete(ctx);
                    return;
                }
            }
            self.pump(ctx);
            return;
        }
        let s = self.ring.get_mut(seq).expect("an ACKed packet was sent");
        if s.phase == Phase::InFlight {
            self.inflight = self.inflight.saturating_sub(s.size as u64);
        }
        s.phase = Phase::Acked;
        // The ACK acknowledges the wire bytes its sequence was sent with.
        let (order, entropy, delivered_at_send, bytes) =
            (s.order, s.entropy, s.delivered_at_send, s.size as u64);
        self.ring.advance();
        self.delivered += bytes;
        self.max_acked_order = self.max_acked_order.max(order);

        let ev = AckEvent {
            now: ctx.now,
            bytes,
            ecn: pkt.ecn,
            rtt: rtt_sample,
            pkt_sent_at: pkt.sent_at,
            delivered_at_send,
            delivered_now: self.delivered,
            inflight: self.inflight,
        };
        let before = if ctx.tracing() {
            Some(self.cc_snapshot())
        } else {
            None
        };
        self.cc.on_ack(&ev);
        if let Some(lb) = self.lb.as_mut() {
            lb.on_ack(entropy, pkt.ecn, ctx.now, ctx.rng);
        }
        if let Some(before) = before {
            ctx.trace(TraceEvent::Ack {
                t: ctx.now,
                flow: ctx.flow.0,
                seq,
                bytes,
                ecn: pkt.ecn,
                rtt: rtt_sample,
                done: pkt.block_complete,
            });
            self.trace_cc_deltas(before, ctx);
        }
        ctx.progress(self.delivered);

        // Completion accounting.
        if self.cfg.ec.is_some() {
            ctx.profiler.enter("erasure_encode");
            let needed = self.block_data_count(b) as u8;
            let done_at = self.block_done_thresh(b);
            let acked = &mut self.blocks[b as usize].0;
            if *acked < needed {
                *acked += 1;
                if *acked == done_at {
                    self.blocks_done += 1;
                }
            }
            if pkt.block_complete {
                // The receiver reconstructed this block: its remaining
                // packets need neither retransmission nor individual ACKs.
                self.finish_block(b);
            }
            ctx.profiler.exit();
            if self.blocks_done == self.nblocks {
                self.complete(ctx);
                return;
            }
        } else {
            self.acked_data += 1;
            if self.acked_data == self.data_pkts {
                self.complete(ctx);
                return;
            }
        }

        self.fast_rtx_scan(ctx);
        if self.inflight > 0 {
            self.arm_rto(ctx);
        }
        self.pump(ctx);
    }

    /// The oldest fast-retransmit-log entry as `(order, seq)`. Every
    /// transmission of a flow without EC appends one entry, and entries
    /// leave only from the front or all at once, so the log holds the
    /// transmissions of orders `send_order - len .. send_order`, in order:
    /// entry `i` was sent as order `send_order - len + i`.
    fn log_front(&self) -> Option<(u64, u64)> {
        let &seq = self.sent_fifo.front()?;
        Some((self.send_order - self.sent_fifo.len() as u64, seq as u64))
    }

    /// Reorder-tolerant loss inference: a transmission is presumed lost once
    /// [`LbMode::reorder_tolerance`] later transmissions have been ACKed.
    ///
    /// Erasure-coded flows skip this entirely: their loss repair is the
    /// receiver's block-timer/NACK machinery (paper §4.2), and inferring
    /// losses twice would double-signal the congestion controller.
    fn fast_rtx_scan(&mut self, ctx: &mut Ctx) {
        if self.cfg.ec.is_some() {
            return;
        }
        let tolerance = self.cfg.lb.reorder_tolerance();
        let mut loss = false;
        while let Some((order, seq)) = self.log_front() {
            if order + tolerance > self.max_acked_order {
                break;
            }
            self.sent_fifo.pop_front();
            let Some(s) = self.ring.get_mut(seq) else {
                continue;
            };
            if s.phase == Phase::InFlight && s.order == order {
                s.phase = Phase::Queued;
                self.inflight = self.inflight.saturating_sub(s.size as u64);
                self.rtx_queue.push_back(seq as u32);
                loss = true;
            }
        }
        shrink(&mut self.sent_fifo);
        if loss {
            self.fast_rtx_count += 1;
            if ctx.now >= self.loss_guard_until {
                let before = if ctx.tracing() {
                    Some(self.cc_snapshot())
                } else {
                    None
                };
                self.cc.on_loss(ctx.now);
                self.loss_guard_until = ctx.now + self.cfg.base_rtt;
                if let Some(before) = before {
                    self.trace_cc_deltas(before, ctx);
                }
            }
        }
    }

    /// How many per-packet ACKs the sender counts before declaring a block
    /// done. Equals the block's data-packet count unless the test-only
    /// off-by-one fault is armed.
    fn block_done_thresh(&self, b: u64) -> u8 {
        let needed = self.block_data_count(b) as u8;
        if self.cfg.faults.block_accounting_off_by_one {
            needed.saturating_sub(1).max(1)
        } else {
            needed
        }
    }

    /// Mark EC block `b` fully settled at the sender (receiver decoded it):
    /// drop its packets from the in-flight/retransmission pipeline. Settling
    /// a block again changes nothing: it is counted, and each of its
    /// packets is acked or below the ring.
    fn finish_block(&mut self, b: u64) {
        let needed = self.block_data_count(b) as u8;
        let done_at = self.block_done_thresh(b);
        let acked = &mut self.blocks[b as usize].0;
        // Count the block at most once, even when the off-by-one fault made
        // the ACK path count it early at `needed - 1`.
        if *acked < done_at {
            self.blocks_done += 1;
        }
        *acked = needed;
        // Parity the window has not let out yet is settled too: it enters
        // the ring as acked and is never sent.
        let seqs = self.block_seqs(b);
        self.extend_ring(seqs.end);
        for seq in seqs {
            // Below the ring every packet is acked already.
            let Some(s) = self.ring.get_mut(seq) else {
                continue;
            };
            if s.phase == Phase::InFlight {
                self.inflight = self.inflight.saturating_sub(s.size as u64);
            }
            // Stale rtx-queue entries are dropped lazily by the pump.
            s.phase = Phase::Acked;
        }
        self.ring.advance();
    }

    fn on_nack(&mut self, pkt: Packet, ctx: &mut Ctx) {
        // A NACK's sequence is the block it asks for.
        let b = pkt.seq as u64;
        if self.cfg.ec.is_none() || b >= self.nblocks {
            return;
        }
        // A stale NACK for a settled block finds nothing in flight; the
        // (rate-limited) re-routing reaction below still runs, which keeps
        // the load balancer's decisions, and so the RNG stream, intact.
        for seq in self.block_seqs(b) {
            // Below the ring every packet is acked; past it none was sent,
            // and never-sent packets will go out in order anyway.
            let Some(s) = self.ring.get_mut(seq) else {
                continue;
            };
            if s.phase != Phase::InFlight {
                continue;
            }
            // Don't duplicate packets that are plausibly still in flight.
            if ctx.now.saturating_sub(s.sent_at) < self.cfg.base_rtt {
                continue;
            }
            s.phase = Phase::Queued;
            self.inflight = self.inflight.saturating_sub(s.size as u64);
            self.rtx_queue.push_back(seq as u32);
        }
        let before = if ctx.tracing() {
            Some(self.cc_snapshot())
        } else {
            None
        };
        if let Some(lb) = self.lb.as_mut() {
            lb.on_nack_or_timeout(ctx.now, ctx.rng);
        }
        if let Some(before) = before {
            self.trace_cc_deltas(before, ctx);
        }
        // Per Algorithm 2, a NACK triggers retransmission and (rate-limited)
        // re-routing — not an additional multiplicative decrease: rate
        // control stays with the ECN/Quick-Adapt loop.
        self.pump(ctx);
    }

    fn complete(&mut self, ctx: &mut Ctx) {
        if !self.completed {
            self.completed = true;
            ctx.progress(self.delivered);
            ctx.complete();
        }
    }

    /// Terminate the flow with a definite non-success outcome. The engine
    /// records it in the failure table and stops waiting on this flow.
    fn fail(&mut self, outcome: FlowOutcome, ctx: &mut Ctx) {
        if !self.completed && !self.failed {
            self.failed = true;
            ctx.progress(self.delivered);
            ctx.fail(outcome);
        }
    }

    /// Current retransmission timeout (shared by the RTO and watchdog paths).
    fn current_rto(&self) -> Time {
        self.rtt.rto(self.cfg.min_rto, 3 * self.cfg.base_rtt.max(1))
    }

    fn arm_watchdog(&mut self, ctx: &mut Ctx) {
        if let Some(n) = self.cfg.stall_rtos {
            ctx.set_timer(self.current_rto() * n.max(1) as Time, TK_WATCHDOG);
        }
    }

    /// Stall watchdog: fires every `stall_rtos × rto`. Zero cumulative-ACK
    /// progress between two consecutive checks declares the flow
    /// [`FlowOutcome::Stalled`]; a single zero-progress check already pokes
    /// the load balancer so UnoLB can try another path before we give up.
    fn on_watchdog_timer(&mut self, ctx: &mut Ctx) {
        if self.completed || self.failed {
            return;
        }
        if self.delivered > self.watchdog_delivered {
            self.watchdog_delivered = self.delivered;
            self.stall_strikes = 0;
        } else {
            self.stall_strikes += 1;
            let before = if ctx.tracing() {
                Some(self.cc_snapshot())
            } else {
                None
            };
            if let Some(lb) = self.lb.as_mut() {
                lb.on_nack_or_timeout(ctx.now, ctx.rng);
            }
            if let Some(before) = before {
                self.trace_cc_deltas(before, ctx);
            }
            if self.stall_strikes >= 2 {
                // Classify the stall: on a lossless fabric, zero progress
                // while our own NIC uplink is PFC-paused means the fabric
                // itself refused our bytes (congestion spreading reached
                // the source) — distinct from loss/blackhole congestion.
                let uplink = ctx.topo.host_uplink(self.cfg.src);
                let cause = if ctx.topo.links.paused(uplink) {
                    StallCause::PfcBackpressure
                } else {
                    StallCause::Congestion
                };
                self.fail(FlowOutcome::Stalled { cause }, ctx);
                return;
            }
        }
        self.arm_watchdog(ctx);
    }

    // ------------------------------------------------------------------
    // Receiver half
    // ------------------------------------------------------------------

    /// Whether the receiver holds enough distinct packets of EC block `b`
    /// to decode it.
    fn rx_done(&self, b: u64) -> bool {
        self.blocks[b as usize].1 as u64 == self.block_data_count(b)
    }

    fn on_data(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let seq = pkt.seq as u64;
        let b = self.seq_block(seq);
        if self.cfg.ec.is_some() && !bit(&self.rx_bitmap, seq) {
            set_bit(&mut self.rx_bitmap, seq);
            ctx.profiler.enter("erasure_decode");
            // Paper: timer set to the estimated max queuing and transmission
            // delay, armed on the block's first packet; blocks skipped so
            // far are armed first (see `rx_armed`).
            while self.rx_armed <= b {
                ctx.set_timer(self.cfg.base_rtt, TK_BLOCK | (self.rx_armed << 8));
                self.rx_armed += 1;
            }
            let needed = self.block_data_count(b);
            let arrived = &mut self.blocks[b as usize].1;
            if (*arrived as u64) < needed {
                *arrived += 1;
            }
            ctx.profiler.exit();
        }
        // ACK every arrival (duplicates included: the earlier ACK may have
        // been lost). The ACK sprays its own reverse-path entropy and, for
        // EC flows, tells the sender once the block is reconstructable.
        let e = ctx.random_entropy();
        let mut ack = Packet::ack_for(&pkt, self.cfg.src, ACK_SIZE, e);
        if self.cfg.ec.is_some() {
            ack.block_complete = self.rx_done(b);
        }
        ctx.send(ack);
    }

    fn on_block_timer(&mut self, b: u64, ctx: &mut Ctx) {
        if self.completed || self.rx_done(b) {
            return;
        }
        let nacks = &mut self.blocks[b as usize].2;
        if *nacks >= MAX_NACKS_PER_BLOCK {
            return; // give up; sender RTO owns recovery now
        }
        *nacks += 1;
        let backoff = (*nacks).min(4);
        self.nack_count += 1;
        if ctx.tracing() {
            ctx.trace(TraceEvent::Nack {
                t: ctx.now,
                flow: ctx.flow.0,
                block: b,
            });
        }
        let mut nack = Packet::nack(ctx.flow, b as u32, ACK_SIZE, self.cfg.src);
        nack.entropy = ctx.random_entropy();
        ctx.send(nack);
        // Re-arm with backoff: retransmissions need a round trip to land.
        ctx.set_timer(self.cfg.base_rtt << backoff, TK_BLOCK | (b << 8));
    }
}

impl FlowLogic for MessageFlow {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.lb = Some(LoadBalancer::new(self.cfg.lb, self.cfg.base_rtt, ctx.rng));
        self.arm_watchdog(ctx);
        self.pump(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        if self.failed {
            // Terminated: late arrivals (e.g. ACKs already on the wire when
            // the watchdog gave up) must not resurrect the flow.
            return;
        }
        match pkt.kind {
            PacketKind::Data => self.on_data(pkt, ctx),
            PacketKind::Ack => self.on_ack(pkt, ctx),
            PacketKind::Nack => self.on_nack(pkt, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        match token & 0xFF {
            TK_RTO => self.on_rto_timer(ctx),
            TK_PACE => {
                self.pace_pending = false;
                self.pump(ctx);
            }
            TK_BLOCK => self.on_block_timer(token >> 8, ctx),
            TK_WATCHDOG => self.on_watchdog_timer(ctx),
            t => unreachable!("unknown timer token {t}"),
        }
    }

    fn on_terminated(&mut self) {
        // The engine guarantees no further on_packet/on_timer calls after
        // termination, and counters/telemetry read only scalar fields (plus
        // cc/lb/rtt, which stay). Releasing the per-packet and per-block
        // arrays here keeps resident memory flat across scenarios that churn
        // through many short flows: completed flows cost O(1), not O(size).
        self.ring.slots = VecDeque::new();
        self.rtx_bitmap = Vec::new();
        self.rtx_queue = VecDeque::new();
        self.sent_fifo = VecDeque::new();
        self.blocks = Vec::new();
        self.rx_bitmap = Vec::new();
    }

    fn report_counters(&self, counters: &mut Counters) {
        counters.add("cc.epoch_md", self.cc.md_count());
        counters.add("cc.quick_adapt_activations", self.cc.qa_count());
        counters.add("cc.epochs", self.cc.epoch_count());
        counters.add("rc.nacks", self.nack_count);
        counters.add("rc.rtos", self.rto_count);
        counters.add("rc.fast_rtx", self.fast_rtx_count);
        counters.add("rc.retransmits", self.rtx_packets);
        counters.add("rc.rtt_samples", self.rtt.samples());
        counters.add("lb.reroutes", self.lb.as_ref().map_or(0, |lb| lb.reroutes));
        // Degradation diagnostics only exist when the machinery is enabled,
        // so fault-free runs keep their historical counter snapshots.
        if self.cfg.stall_rtos.is_some() {
            counters.add("rc.stall_strikes", self.stall_strikes as u64);
        }
    }

    fn telemetry_sample(&self) -> Option<FlowSample> {
        Some(FlowSample {
            cwnd: self.cc.cwnd() as u64,
            srtt: self.rtt.srtt(),
            outstanding: self.inflight,
            delivered: self.delivered,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcConfig;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    use uno_sim::{Action, FlowId, Profiler, TopologyParams, Tracer, MICROS};

    /// The k=4 test network, built once.
    fn topo() -> &'static Topology {
        static TOPO: OnceLock<Topology> = OnceLock::new();
        TOPO.get_or_init(|| Topology::build(TopologyParams::small()))
    }

    fn flow_with(size: u64, ec: Option<EcParams>) -> MessageFlow {
        let cc = CcConfig::for_class(&topo().params, FlowClass::Intra);
        flow_with_cc(size, ec, Box::new(crate::unocc::UnoCc::new(cc)))
    }

    /// An intra-DC flow between two hosts under one edge switch.
    fn flow_with_cc(size: u64, ec: Option<EcParams>, cc: Box<dyn CcAlgorithm>) -> MessageFlow {
        let t = topo();
        let mut cfg = FlowConfig::for_path(t, t.host(0, 0), t.host(0, 1), size);
        cfg.ec = ec;
        MessageFlow::new(cfg, cc)
    }

    /// A window of full packets that never moves and never paces,
    /// so a test alone decides when packets go out.
    struct FixedWindow(f64);

    impl CcAlgorithm for FixedWindow {
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: Time) {}
        fn cwnd(&self) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "fixed"
        }
    }

    fn flow_with_window(pkts: u64, ec: Option<EcParams>, window_pkts: u32) -> MessageFlow {
        let window = FixedWindow(window_pkts as f64 * 4096.0);
        flow_with_cc(pkts * 4096, ec, Box::new(window))
    }

    /// Enter every wire sequence into the ring; returns the slots' sizes.
    fn slot_sizes(f: &mut MessageFlow) -> Vec<u32> {
        f.extend_ring(f.total_wire);
        f.ring.slots.iter().map(|s| s.size).collect()
    }

    /// The ring slot of `seq`, entering it first.
    fn slot(f: &mut MessageFlow, seq: u64) -> &mut PktState {
        f.extend_ring(seq + 1);
        f.ring.get_mut(seq).expect("not below the ring")
    }

    /// Drives a flow by hand. One `MessageFlow` is both endpoints, so a test
    /// moves packets between its halves itself: it hands data packets to
    /// the receiver half and ACKs back to the sender, and may drop, hold or
    /// replay any of them. Timers are not fired.
    struct Wire {
        rng: rand::rngs::SmallRng,
        topo: Topology,
        tracer: Tracer,
        profiler: Profiler,
        now: Time,
    }

    impl Wire {
        fn new() -> Self {
            Wire::over(topo().clone())
        }

        fn over(topo: Topology) -> Self {
            Wire {
                rng: rand::rngs::SmallRng::seed_from_u64(1),
                topo,
                tracer: Tracer::disabled(),
                profiler: Profiler::disabled(),
                now: 0,
            }
        }

        /// Runs `call` on `f` now; returns the actions it took.
        fn act(
            &mut self,
            f: &mut MessageFlow,
            call: impl FnOnce(&mut MessageFlow, &mut Ctx),
        ) -> Vec<Action> {
            let mut actions = Vec::new();
            let mut ctx = Ctx::new(
                self.now,
                FlowId(0),
                &mut self.rng,
                &self.topo,
                &mut self.tracer,
                &mut self.profiler,
                &mut actions,
            );
            call(f, &mut ctx);
            actions
        }

        /// Runs `call` on `f` now; returns the packets it sent.
        fn call(
            &mut self,
            f: &mut MessageFlow,
            call: impl FnOnce(&mut MessageFlow, &mut Ctx),
        ) -> Vec<Packet> {
            self.act(f, call)
                .into_iter()
                .filter_map(|a| match a {
                    Action::Send(p) => Some(p),
                    _ => None,
                })
                .collect()
        }

        fn start(&mut self, f: &mut MessageFlow) -> Vec<Packet> {
            self.call(f, |f, ctx| f.on_start(ctx))
        }

        fn deliver(&mut self, f: &mut MessageFlow, pkt: Packet) -> Vec<Packet> {
            self.call(f, |f, ctx| f.on_packet(pkt, ctx))
        }

        /// Hands each data packet in `data` to the receiver half and its
        /// ACK straight back to the sender; returns what the sender sent.
        fn round_trip(&mut self, f: &mut MessageFlow, data: Vec<Packet>) -> Vec<Packet> {
            let mut sent = Vec::new();
            for p in data {
                for ack in self.deliver(f, p) {
                    sent.extend(self.deliver(f, ack));
                }
            }
            sent
        }
    }

    fn seqs(pkts: &[Packet]) -> Vec<u64> {
        pkts.iter().map(|p| p.seq as u64).collect()
    }

    #[test]
    fn layout_without_ec() {
        let mut f = flow_with(10_000, None);
        // 10 KB at 4 KiB MTU = 3 packets: 4096 + 4096 + 1808.
        assert_eq!(f.data_pkts, 3);
        assert_eq!(f.total_wire, 3);
        assert_eq!(f.nblocks, 0);
        // Every slot is sent (none is empty).
        assert_eq!(slot_sizes(&mut f), [4096, 4096, 10_000 - 8192]);
        // The ring is capped at the wire count, below its 16-slot start.
        assert_eq!(f.ring.slots.capacity(), 3);
    }

    #[test]
    fn layout_with_ec_full_blocks() {
        // 64 KiB = 16 data packets = exactly two (8,2) blocks.
        let mut f = flow_with(64 << 10, Some(EcParams::PAPER_DEFAULT));
        assert_eq!(f.data_pkts, 16);
        assert_eq!(f.nblocks, 2);
        assert_eq!(f.total_wire, 20);
        // All 20 wire slots are sent; parity sized like the data shards.
        assert_eq!(slot_sizes(&mut f), [4096; 20]);
        assert_eq!(
            [f.seq_block(9), f.seq_block(10), f.seq_block(19)],
            [0, 1, 1]
        );
    }

    #[test]
    fn layout_with_partial_last_block() {
        // 5 data packets in an (8,2) geometry: one block, 3 empty data
        // slots, 2 parity slots.
        let mut f = flow_with(5 * 4096, Some(EcParams::PAPER_DEFAULT));
        assert_eq!(f.data_pkts, 5);
        assert_eq!(f.nblocks, 1);
        assert_eq!(f.block_data_count(0), 5);
        let valid: Vec<bool> = slot_sizes(&mut f).iter().map(|&s| s > 0).collect();
        assert_eq!(
            valid,
            vec![true, true, true, true, true, false, false, false, true, true]
        );
    }

    #[test]
    fn tiny_message_single_short_packet() {
        let mut f = flow_with(100, Some(EcParams::PAPER_DEFAULT));
        assert_eq!(f.data_pkts, 1);
        assert_eq!(f.block_data_count(0), 1);
        let sizes = slot_sizes(&mut f);
        assert_eq!(sizes[0], 100);
        // Parity mirrors the first shard's size.
        assert_eq!(sizes[8], 100);
        assert_eq!(sizes[9], 100);
    }

    /// Packets carry neither their block nor, on ACKs, the acknowledged
    /// size: both halves derive them from the sequence (the sender reads
    /// the size from the sequence's send-ring slot). For every sequence of
    /// a plain message with a short last packet, a message of full (8, 2)
    /// blocks and one whose last block holds 3 data packets, the slot's
    /// size is the one `transmit` sent and the derived block is the one
    /// whose sequences hold it; the ACKs credit exactly the message.
    #[test]
    fn acks_derive_the_size_and_block_transmit_used() {
        let ec = Some(EcParams::PAPER_DEFAULT);
        for (size, ec) in [
            (10 * 4096 - 100, None),
            (24 * 4096, ec),
            (19 * 4096 - 100, ec),
        ] {
            let mut f = flow_with_cc(size, ec, Box::new(FixedWindow(64.0 * 4096.0)));
            let mut wire = Wire::new();
            let sent = wire.start(&mut f);
            let full: Vec<u64> = (0..f.total_wire).filter(|&s| f.wire_size(s) > 0).collect();
            assert_eq!(seqs(&sent), full, "the window lets every packet out");
            for p in &sent {
                let seq = p.seq as u64;
                assert_eq!(p.dst, f.cfg.dst);
                assert_eq!(f.wire_size(seq), p.size, "size of seq {seq}");
                assert_eq!(f.ring.get(seq).map(|s| s.size), Some(p.size));
                let b = f.seq_block(seq);
                match ec {
                    Some(_) => assert!(b < f.nblocks && f.block_seqs(b).contains(&seq)),
                    None => assert_eq!(b, 0),
                }
            }
            // Every data packet reaches the receiver, in order, then every
            // ACK the sender. A block's last data ACK settles its parity,
            // whose ACKs then credit nothing.
            let acks: Vec<Packet> = sent.iter().flat_map(|&p| wire.deliver(&mut f, p)).collect();
            assert_eq!(seqs(&acks), full);
            assert!(acks
                .iter()
                .all(|a| a.kind == PacketKind::Ack && a.dst == f.cfg.src));
            for ack in acks {
                wire.deliver(&mut f, ack);
            }
            assert!(f.completed);
            assert_eq!(f.delivered, size, "the ACKs credit the message");
        }
    }

    #[test]
    fn block_seqs_ranges() {
        let f = flow_with(64 << 10, Some(EcParams::PAPER_DEFAULT));
        assert_eq!(f.block_seqs(0), 0..10);
        assert_eq!(f.block_seqs(1), 10..20);
    }

    #[test]
    fn config_defaults_are_sane() {
        let t = topo();
        let (src, dst) = (t.host(0, 0), t.host(1, 0));
        let cfg = FlowConfig::for_path(t, src, dst, 1 << 20);
        assert_eq!((cfg.src, cfg.dst, cfg.size), (src, dst, 1 << 20));
        assert!(cfg.ec.is_none());
        assert!(matches!(cfg.lb, LbMode::Ecmp));
        assert_eq!((cfg.stall_rtos, cfg.max_rto_retries), (None, None));
        assert_eq!(cfg.faults, FaultInjection::default());
    }

    /// `FlowConfig::for_path` and `CcConfig::for_class` give, as literals,
    /// the values every experiment's flows run with (the golden digests and
    /// figure outputs were recorded with them): for intra and inter flows
    /// on the k=4 network, and on one whose WAN RTT is 8 intra-DC RTTs
    /// (fig11's smallest ratio). The load balancers' reorder tolerances
    /// are pinned in `lb.rs`.
    #[test]
    fn path_parameters_match_the_experiment_policy() {
        use FlowClass::{Inter, Intra};
        // (WAN RTT, class, base RTT, min RTO, path BDP), times in ns.
        let cases = [
            (2 * MILLIS, Intra, 14_000, 1_000_000, 175_000.0),
            (2 * MILLIS, Inter, 2_000_000, 4_000_000, 25_000_000.0),
            (112 * MICROS, Intra, 14_000, 1_000_000, 175_000.0),
            (112 * MICROS, Inter, 112_000, 224_000, 1_400_000.0),
        ];
        for (wan_rtt, class, base_rtt, min_rto, bdp) in cases {
            let mut p = TopologyParams::small();
            p.inter_rtt = wan_rtt;
            let t = Topology::build(p);
            let dst_dc = (class == Inter) as u8;
            let (src, dst) = (t.host(0, 3), t.host(dst_dc, 12));
            let cc = CcConfig::for_class(&t.params, class);
            assert_eq!((cc.mtu, cc.bdp, cc.base_rtt), (4096, bdp, base_rtt));
            assert_eq!((cc.intra_bdp, cc.intra_rtt), (175_000.0, 14_000));
            let mut cfg = FlowConfig::for_path(&t, src, dst, 1 << 20);
            assert_eq!(cfg.mtu, 4096);
            assert_eq!((cfg.base_rtt, cfg.min_rto), (base_rtt, min_rto));
            // The receiver arms a block's timer one base RTT out, and its
            // ACKs and NACKs are 64 B.
            cfg.ec = Some(EcParams::PAPER_DEFAULT);
            let mut f = MessageFlow::new(cfg, Box::new(FixedWindow(64.0 * 4096.0)));
            let mut wire = Wire::over(t);
            let sent = wire.start(&mut f);
            wire.now = 7;
            let acts = wire.act(&mut f, |f, ctx| f.on_packet(sent[0], ctx));
            let timer = acts.iter().find_map(|a| match *a {
                Action::Timer { at, token } if token == TK_BLOCK => Some(at),
                _ => None,
            });
            assert_eq!(timer, Some(7 + base_rtt));
            let nack = wire.call(&mut f, |f, ctx| f.on_timer(TK_BLOCK, ctx));
            for p in wire
                .call(&mut f, |f, ctx| f.on_packet(sent[1], ctx))
                .iter()
                .chain(&nack)
            {
                assert_eq!(p.size, 64, "{:?}", p.kind);
            }
            assert_eq!(nack[0].kind, PacketKind::Nack);
        }
    }

    #[test]
    #[should_panic(expected = "empty flows")]
    fn zero_size_rejected() {
        let _ = flow_with(0, None);
    }

    #[test]
    fn finish_block_clears_pipeline_state() {
        let mut f = flow_with(64 << 10, Some(EcParams::PAPER_DEFAULT));
        // Pretend block 0's packets are all in flight.
        for seq in 0..10 {
            let s = slot(&mut f, seq);
            s.phase = Phase::InFlight;
            let size = s.size as u64;
            f.inflight += size;
        }
        let before = f.inflight;
        assert_eq!(before, 10 * 4096);
        f.finish_block(0);
        assert_eq!(f.inflight, 0);
        assert!((0..10).all(|seq| f.ring.is_acked(seq)));
        // The settled block left the ring.
        assert_eq!(f.ring.base, 10);
        assert!(f.ring.slots.is_empty());
        assert_eq!(f.blocks_done, 1);
        // Idempotent.
        f.finish_block(0);
        assert_eq!(f.blocks_done, 1);
    }

    /// The fast-retransmit log as `(order, seq)` pairs, oldest first.
    fn log_entries(f: &MessageFlow) -> Vec<(u64, u64)> {
        let first = f.send_order - f.sent_fifo.len() as u64;
        (first..)
            .zip(f.sent_fifo.iter().map(|&s| s as u64))
            .collect()
    }

    /// A fixed window that shuts on loss: after an RTO it lets out only the
    /// one packet an empty pipe always gets, and the rest stay queued.
    struct ShutsOnLoss(f64);

    impl CcAlgorithm for ShutsOnLoss {
        fn on_ack(&mut self, _: &AckEvent) {}
        fn on_loss(&mut self, _: Time) {
            self.0 = 0.0;
        }
        fn cwnd(&self) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "shuts"
        }
    }

    #[test]
    fn rto_requeues_in_flight_packets_in_send_order() {
        // Under (8, 2) the eight packets are block 0's data, and the log
        // stays empty: the order comes from the send ring alone.
        for ec in [None, Some(EcParams::PAPER_DEFAULT)] {
            let mut f = flow_with_cc(20 * 4096, ec, Box::new(ShutsOnLoss(8.0 * 4096.0)));
            let mut wire = Wire::new();
            assert_eq!(seqs(&wire.start(&mut f)), (0..8).collect::<Vec<_>>());
            // Seq 0 is presumed lost and resent as order 8 before any RTO,
            // so the order of sending differs from the order of sequences.
            slot(&mut f, 0).phase = Phase::Queued;
            f.inflight -= 4096;
            f.rtx_queue.push_back(0);
            assert_eq!(seqs(&wire.call(&mut f, |f, ctx| f.pump(ctx))), [0]);
            if ec.is_none() {
                // The log's first entry is stale.
                let mut log: Vec<(u64, u64)> = (0..8).map(|seq| (seq, seq)).collect();
                log.push((8, 0));
                assert_eq!(log_entries(&f), log);
                assert_eq!(f.log_front(), Some((0, 0)));
            }
            // The RTO queues every packet in flight by its latest
            // transmission. The shut window lets out the first.
            wire.now = f.rto_deadline;
            assert_eq!(seqs(&wire.call(&mut f, |f, ctx| f.on_rto_timer(ctx))), [1]);
            assert_eq!(f.rto_count, 1);
            assert_eq!(f.rtx_queue, [2, 3, 4, 5, 6, 7, 0], "{ec:?}");
            if ec.is_none() {
                // The RTO emptied the log; the one packet sent since is in it.
                assert_eq!(log_entries(&f), [(9, 1)]);
                assert_eq!(f.log_front(), Some((9, 1)));
            } else {
                assert_eq!(f.sent_fifo.capacity(), 0);
            }
        }
    }

    #[test]
    fn send_state_gives_storage_back_when_a_hole_closes() {
        // 600 packets through a 16-packet window. The first copies of the
        // packets below `hole` are held back and every later copy is lost:
        // seq 0 without EC; under (8, 2), seqs 0 to 2, which leave block 0
        // one arrival short. No timer fires, so the EC flow never resends
        // them. Only the flow without EC logs its transmissions, and only
        // the EC flow keeps a receive bitmap.
        for (ec, hole) in [(None, 1), (Some(EcParams::PAPER_DEFAULT), 3)] {
            let mut f = flow_with_window(600, ec, 16);
            let mut wire = Wire::new();
            let mut queue: VecDeque<Packet> = wire.start(&mut f).into();
            let mut held: Vec<Packet> = Vec::new();
            while f.ring.slots.capacity() <= 256 {
                let p = queue.pop_front().expect("the hole keeps the flow open");
                if p.kind == PacketKind::Data && p.seq < hole {
                    if held.iter().all(|h| h.seq != p.seq) {
                        held.push(p);
                    }
                    continue;
                }
                queue.extend(wire.deliver(&mut f, p));
            }
            assert_eq!(f.ring.base, 0, "the hole holds the ring's base");
            assert_eq!(f.rx_bitmap.is_empty(), ec.is_none());
            // The held copies close the hole. From then on neither deque
            // keeps more than four times its live length past 64 slots.
            for p in held.into_iter().rev() {
                queue.push_front(p);
            }
            while let Some(p) = queue.pop_front() {
                queue.extend(wire.deliver(&mut f, p));
                for (name, cap, len) in [
                    ("ring", f.ring.slots.capacity(), f.ring.slots.len()),
                    ("log", f.sent_fifo.capacity(), f.sent_fifo.len()),
                ] {
                    assert!(cap <= 64.max(4 * len), "{ec:?}: {name} {len}/{cap}");
                }
                if ec.is_some() {
                    assert_eq!(f.sent_fifo.capacity(), 0, "a coded flow logs nothing");
                }
            }
            assert!(f.completed);
        }
    }

    #[test]
    fn wire_packets_counts_blocks_and_saturates() {
        assert_eq!(wire_packets(10_000, 4096, None), 3);
        let ec = Some(EcParams::PAPER_DEFAULT);
        assert_eq!(wire_packets(5 * 4096, 4096, ec), 10);
        assert_eq!(wire_packets(17 * 4096, 4096, ec), 30);
        let limit = MAX_WIRE_PACKETS * 4096;
        assert_eq!(wire_packets(limit, 4096, None), MAX_WIRE_PACKETS);
        assert_eq!(wire_packets(limit + 1, 4096, None), MAX_WIRE_PACKETS + 1);
        let widest = Some(EcParams {
            data: 1,
            parity: 254,
        });
        assert_eq!(wire_packets(u64::MAX, 1, widest), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "wire packets at MTU 4096, above the 4294967295")]
    fn oversized_message_rejected() {
        // One packet past the limit; the check runs before any allocation.
        let _ = flow_with(MAX_WIRE_PACKETS * 4096 + 1, None);
    }

    #[test]
    fn on_terminated_releases_per_packet_state() {
        let mut f = flow_with(4 << 20, Some(EcParams::PAPER_DEFAULT));
        assert!(!Wire::new().start(&mut f).is_empty());
        assert!(f.ring.slots.capacity() > 0);
        assert!(f.rtx_bitmap.capacity() > 0);
        assert!(f.rx_bitmap.capacity() > 0);
        assert_eq!(f.blocks.len(), 128);
        f.rto_count = 7;
        f.on_terminated();
        assert_eq!(f.ring.slots.capacity(), 0);
        assert_eq!(f.rtx_bitmap.capacity(), 0);
        assert_eq!(f.rx_bitmap.capacity(), 0);
        assert_eq!(f.blocks.capacity(), 0);
        // Diagnostics survive for report_counters.
        assert_eq!(f.rto_count, 7);
        let mut c = Counters::default();
        f.report_counters(&mut c);
        assert_eq!(c.get("rc.rtos"), 7);
    }

    #[test]
    fn new_allocates_no_sender_slots() {
        // 4 GiB under (8, 2): 1,048,576 data packets in 131,072 blocks.
        let f = flow_with(4 << 30, Some(EcParams::PAPER_DEFAULT));
        assert_eq!(f.total_wire, 1_310_720);
        assert_eq!(f.ring.slots.capacity(), 0);
    }

    #[test]
    fn ring_grows_over_an_open_hole_and_jumps_when_it_closes() {
        // 100 packets through a 16-packet window. The first copy of seq 0
        // is held back and every retransmission of it lost, so the hole at
        // seq 0 stays open while the rest of the message is sent and acked.
        let mut f = flow_with_window(100, None, 16);
        let mut wire = Wire::new();
        let mut queue: VecDeque<Packet> = wire.start(&mut f).into();
        assert_eq!(queue.len(), 16);
        let mut held = None;
        let mut longest = 0;
        while let Some(p) = queue.pop_front() {
            if p.kind == PacketKind::Data && p.seq == 0 {
                held.get_or_insert(p);
                continue;
            }
            queue.extend(wire.deliver(&mut f, p));
            assert_eq!(f.ring.base, 0, "the hole holds the ring's base");
            assert!(f.ring.slots.capacity() as u64 <= f.total_wire);
            longest = longest.max(f.ring.slots.len());
        }
        // Every other packet is acked; the ring spans the whole message,
        // and its storage stopped at the wire count instead of doubling to
        // 128 slots.
        assert_eq!(longest, 100);
        assert_eq!(f.ring.slots.capacity(), 100);
        assert!(!f.completed);
        // The held copy closes the hole: base jumps past every packet.
        let held = held.expect("seq 0 was sent");
        assert!(wire.round_trip(&mut f, vec![held]).is_empty());
        assert_eq!(f.ring.base, 100);
        assert!(f.ring.slots.is_empty());
        assert!(f.completed);
    }

    #[test]
    fn ring_spans_the_window_without_a_hole() {
        let mut f = flow_with_window(100, None, 16);
        let mut wire = Wire::new();
        let mut queue: VecDeque<Packet> = wire.start(&mut f).into();
        let mut longest = 0;
        while let Some(p) = queue.pop_front() {
            queue.extend(wire.deliver(&mut f, p));
            longest = longest.max(f.ring.slots.len());
        }
        assert!(f.completed);
        assert_eq!(longest, 16);
        assert_eq!(f.ring.slots.capacity(), 16);
    }

    #[test]
    fn karns_rule_holds_for_acks_below_the_ring() {
        // Three (8, 2) blocks, all 30 packets in the first window.
        let mut f = flow_with_window(24, Some(EcParams::PAPER_DEFAULT), 64);
        let mut wire = Wire::new();
        let first = wire.start(&mut f);
        assert_eq!(seqs(&first), (0..30).collect::<Vec<_>>());
        // A NACK for block 0 one base RTT later resends all of it.
        wire.now = f.cfg.base_rtt + 1;
        let nack = Packet::nack(FlowId(0), 0, 64, f.cfg.src);
        let resent = wire.deliver(&mut f, nack);
        assert_eq!(seqs(&resent), (0..10).collect::<Vec<_>>());
        // The resent data of block 0 and the first data of block 1 reach
        // the receiver; each block completes there, and the ACK saying so
        // settles the block's parity, which is still on the wire.
        let mut data: Vec<Packet> = resent[..8].to_vec();
        data.extend_from_slice(&first[10..18]);
        assert!(wire.round_trip(&mut f, data).is_empty());
        assert_eq!(f.ring.base, 20, "blocks 0 and 1 left the ring");
        // Late ACKs for settled parity: only the never-resent one (seq 18)
        // is a valid RTT sample.
        let samples = f.rtt.samples();
        wire.round_trip(&mut f, vec![first[8]]);
        assert_eq!(f.rtt.samples(), samples, "seq 8 was resent");
        wire.round_trip(&mut f, vec![first[18]]);
        assert_eq!(f.rtt.samples(), samples + 1, "seq 18 was not");
    }

    #[test]
    fn parity_settled_before_it_is_sent_never_goes_out() {
        // An 8-packet window: block 0's data fills it, its parity waits.
        let mut f = flow_with_window(24, Some(EcParams::PAPER_DEFAULT), 8);
        let mut wire = Wire::new();
        let first = wire.start(&mut f);
        assert_eq!(seqs(&first), (0..8).collect::<Vec<_>>());
        // The receiver gets all eight; only the last ACK, which reports the
        // block complete, reaches the sender. It settles block 0, parity
        // included, and the window moves on to block 1.
        let acks: Vec<Packet> = first
            .iter()
            .flat_map(|&p| wire.deliver(&mut f, p))
            .collect();
        let last = *acks.last().unwrap();
        assert!(last.block_complete);
        let next = wire.deliver(&mut f, last);
        assert_eq!(f.ring.base, 10);
        assert_eq!(seqs(&next), (10..18).collect::<Vec<_>>());
        // Run the rest of the message: seqs 8 and 9 never go out.
        let mut sent = seqs(&next);
        let mut queue: VecDeque<Packet> = next.into();
        queue.extend(acks);
        while let Some(p) = queue.pop_front() {
            let out = wire.deliver(&mut f, p);
            sent.extend(
                out.iter()
                    .filter(|p| p.kind == PacketKind::Data)
                    .map(|p| p.seq as u64),
            );
            queue.extend(out);
        }
        assert!(f.completed);
        assert!(!sent.contains(&8) && !sent.contains(&9), "sent {sent:?}");
    }

    #[test]
    fn receiver_arms_each_block_timer_once_and_in_order() {
        // Six (8, 2) blocks, all 60 packets in the first window; block b's
        // first data packet is sent[10 * b].
        let mut f = flow_with_window(48, Some(EcParams::PAPER_DEFAULT), 64);
        let mut wire = Wire::new();
        let sent = wire.start(&mut f);
        assert_eq!(sent.len(), 60);
        // The blocks whose timers an arrival arms, in the order armed.
        let mut armed = |p: Packet| -> Vec<u64> {
            wire.act(&mut f, |f, ctx| f.on_packet(p, ctx))
                .into_iter()
                .filter_map(|a| match a {
                    Action::Timer { token, .. } if token & 0xFF == TK_BLOCK => Some(token >> 8),
                    _ => None,
                })
                .collect()
        };
        // Block 3 first: blocks 0 to 2 were sent before it, so their timers
        // are armed with its own, lowest first.
        assert_eq!(armed(sent[30]), [0, 1, 2, 3]);
        assert_eq!(armed(sent[10]), []);
        assert_eq!(armed(sent[31]), []);
        assert_eq!(armed(sent[50]), [4, 5]);
        assert_eq!(armed(sent[0]), []);
    }

    #[test]
    fn receiver_block_done_matches_rs_decoder() {
        // The receiver counts distinct arrivals per block; the codec decodes
        // real bytes. After every arrival, a block must be done exactly when
        // `reconstruct`, fed the distinct shards that arrived plus zero
        // shards for a short block's empty (never sent) data slots, rebuilds
        // it byte for byte. Each sent packet arrives 0, 1 or 2 times, in
        // shuffled order.
        use rand::seq::SliceRandom;
        use rand::Rng;
        use uno_erasure::ReedSolomon;

        const GEOMETRIES: [(u8, u8); 5] = [(8, 2), (4, 4), (2, 1), (8, 1), (6, 3)];
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB10C);
        // Blocks left undecodable and decodable at the end of a case.
        let mut outcomes = [0; 2];
        for case in 0..400 {
            let (x, y) = GEOMETRIES[case % GEOMETRIES.len()];
            let ec = EcParams { data: x, parity: y };
            let pkts = rng.gen_range(1..=3 * x as u64);
            let mut f = flow_with_window(pkts, Some(ec), 64);
            let mut wire = Wire::new();
            // The window holds every packet; a short block's empty data
            // slots are never sent.
            let sent = wire.start(&mut f);
            assert_eq!(sent.len() as u64, pkts + f.nblocks * y as u64);

            let (x, n) = (x as usize, ec.total() as usize);
            let rs = ReedSolomon::new(x, y as usize);
            let mut blocks = Vec::new();
            let mut rx = Vec::new();
            for b in 0..f.nblocks {
                let d = f.block_data_count(b) as usize;
                let data: Vec<Vec<u8>> = (0..x)
                    .map(|i| (0..16).map(|_| if i < d { rng.gen() } else { 0 }).collect())
                    .collect();
                let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
                let parity = rs.encode(&refs).unwrap();
                let shards: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
                rx.push(
                    (0..n)
                        .map(|i| (d..x).contains(&i).then(|| shards[i].clone()))
                        .collect::<Vec<_>>(),
                );
                blocks.push(shards);
            }
            let mut rebuilt = vec![false; blocks.len()];

            let mut arrivals: Vec<Packet> = sent
                .iter()
                .flat_map(|&p| std::iter::repeat_n(p, rng.gen_range(0..=2)))
                .collect();
            arrivals.shuffle(&mut rng);
            for p in arrivals {
                wire.deliver(&mut f, p);
                let seq = p.seq as usize;
                let (b, i) = (seq / n, seq % n);
                assert_eq!(f.seq_block(seq as u64), b as u64);
                rx[b][i] = Some(blocks[b][i].clone());
                let mut decoded = rx[b].clone();
                rebuilt[b] = rs.reconstruct(&mut decoded).is_ok()
                    && decoded
                        .iter()
                        .zip(&blocks[b])
                        .all(|(s, t)| s.as_ref() == Some(t));
                let done: Vec<bool> = (0..f.nblocks).map(|b| f.rx_done(b)).collect();
                assert_eq!(
                    done, rebuilt,
                    "case {case}: ({x},{y}), {pkts} packets, after seq {}",
                    p.seq
                );
            }
            for done in rebuilt {
                outcomes[done as usize] += 1;
            }
        }
        assert!(outcomes.iter().all(|&k| k > 100), "{outcomes:?}");
    }

    #[test]
    fn data_pkt_size_math() {
        let f = flow_with(4096 * 2 + 1, None);
        assert_eq!(f.data_pkt_size(0), 4096);
        assert_eq!(f.data_pkt_size(1), 4096);
        assert_eq!(f.data_pkt_size(2), 1);
    }
}
