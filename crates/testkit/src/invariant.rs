//! Stack-wide protocol invariants evaluated from the live trace stream.
//!
//! Each checker is a small state machine fed every [`TraceEvent`] the
//! simulator emits. The suite attaches to a run through a
//! [`uno_trace::Tracer`] callback sink ([`ArmedChecker::tracer`]), so the
//! simulator's hot paths pay nothing when checking is disabled — arming is
//! purely a tracer choice.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

use uno_trace::{Time, TraceConfig, TraceEvent, Tracer};

use crate::spec::NetSpec;

/// Cap on retained violations: a badly broken run would otherwise allocate
/// without bound. Excess violations are counted, not stored.
const MAX_VIOLATIONS: usize = 4096;

/// One invariant breach, anchored to the event that exposed it.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Name of the invariant that fired.
    pub invariant: &'static str,
    /// Simulation time of the offending event (ns).
    pub t: Time,
    /// Flow concerned, when the invariant is flow-scoped.
    pub flow: Option<u32>,
    /// Link concerned, when the invariant is link-scoped.
    pub link: Option<u32>,
    /// Human-readable description of the breach.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] t={}ns", self.invariant, self.t)?;
        if let Some(fl) = self.flow {
            write!(f, " flow={fl}")?;
        }
        if let Some(l) = self.link {
            write!(f, " link={l}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// A single protocol invariant: a state machine over the trace stream.
pub trait InvariantChecker: Send {
    /// Stable name used in violation reports and docs.
    fn name(&self) -> &'static str;
    /// Feed one event.
    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>);
    /// Called once when the run ends (liveness-style checks fire here).
    fn at_end(&mut self, end: Time, spec: &NetSpec, out: &mut Vec<Violation>) {
        let _ = (end, spec, out);
    }
}

// ---------------------------------------------------------------------------
// 1. Queue conservation: every byte that enters a link's egress queue leaves
//    it exactly once (dequeue or failure purge), in FIFO order, and the
//    occupancy the engine reports always equals the sum of queued packets.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct LinkFifo {
    pkts: VecDeque<(u32, u64, u32)>, // (flow, seq, size)
    bytes: u64,
    /// After a violation the mirror is untrustworthy; stay quiet until the
    /// next full purge resynchronises it instead of cascading noise.
    desynced: bool,
}

/// Packet/byte conservation per link (see module docs).
#[derive(Default)]
pub struct QueueConservation {
    links: HashMap<u32, LinkFifo>,
}

impl InvariantChecker for QueueConservation {
    fn name(&self) -> &'static str {
        "queue-conservation"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::Enqueue {
                t,
                link,
                flow,
                seq,
                size,
                qlen,
            } => {
                let l = self.links.entry(link).or_default();
                if l.desynced {
                    return;
                }
                l.pkts.push_back((flow, seq, size));
                l.bytes += size as u64;
                if l.bytes != qlen {
                    l.desynced = true;
                    out.push(Violation {
                        invariant: "queue-conservation",
                        t,
                        flow: Some(flow),
                        link: Some(link),
                        detail: format!(
                            "enqueue reports occupancy {qlen} B but queued packets sum to {} B",
                            l.bytes
                        ),
                    });
                }
            }
            TraceEvent::Dequeue { t, link, flow, seq } => {
                let l = self.links.entry(link).or_default();
                if l.desynced {
                    return;
                }
                match l.pkts.pop_front() {
                    Some((f, s, size)) if f == flow && s == seq => l.bytes -= size as u64,
                    head => {
                        l.desynced = true;
                        out.push(Violation {
                            invariant: "queue-conservation",
                            t,
                            flow: Some(flow),
                            link: Some(link),
                            detail: format!(
                                "dequeued flow {flow} seq {seq} but FIFO head is {head:?}"
                            ),
                        });
                    }
                }
            }
            TraceEvent::Drop {
                t,
                link,
                flow,
                qlen,
                ..
            } => {
                // Drop-tail leaves the queue untouched; occupancy must match.
                let l = self.links.entry(link).or_default();
                if !l.desynced && l.bytes != qlen {
                    l.desynced = true;
                    out.push(Violation {
                        invariant: "queue-conservation",
                        t,
                        flow: Some(flow),
                        link: Some(link),
                        detail: format!(
                            "drop reports occupancy {qlen} B but queued packets sum to {} B",
                            l.bytes
                        ),
                    });
                }
            }
            TraceEvent::QueueClear {
                t,
                link,
                pkts,
                bytes,
            } => {
                let l = self.links.entry(link).or_default();
                if !l.desynced && (pkts != l.pkts.len() as u64 || bytes != l.bytes) {
                    out.push(Violation {
                        invariant: "queue-conservation",
                        t,
                        flow: None,
                        link: Some(link),
                        detail: format!(
                            "failure purge reports {pkts} pkts / {bytes} B but mirror holds \
                             {} pkts / {} B",
                            l.pkts.len(),
                            l.bytes
                        ),
                    });
                }
                // A purge empties the real queue: resynchronise on it.
                l.pkts.clear();
                l.bytes = 0;
                l.desynced = false;
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Queue occupancy never exceeds the configured capacity.
// ---------------------------------------------------------------------------

/// Occupancy <= capacity on every enqueue and drop decision.
#[derive(Default)]
pub struct QueueCapacityBound;

impl InvariantChecker for QueueCapacityBound {
    fn name(&self) -> &'static str {
        "queue-capacity"
    }

    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>) {
        let (t, link, flow, qlen) = match *ev {
            TraceEvent::Enqueue {
                t,
                link,
                flow,
                qlen,
                ..
            }
            | TraceEvent::Drop {
                t,
                link,
                flow,
                qlen,
                ..
            } => (t, link, flow, qlen),
            _ => return,
        };
        let Some(&cap) = spec.queue_capacity.get(link as usize) else {
            return;
        };
        if qlen > cap {
            out.push(Violation {
                invariant: "queue-capacity",
                t,
                flow: Some(flow),
                link: Some(link),
                detail: format!("occupancy {qlen} B exceeds capacity {cap} B"),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Congestion windows stay finite, above the one-MTU floor, and below the
//    scheme-aware ceiling.
// ---------------------------------------------------------------------------

/// Cwnd bounds on every `CwndChange`/`QuickAdapt` announcement.
#[derive(Default)]
pub struct CwndBounds;

impl InvariantChecker for CwndBounds {
    fn name(&self) -> &'static str {
        "cwnd-bounds"
    }

    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>) {
        let (t, flow, cwnd) = match *ev {
            TraceEvent::CwndChange { t, flow, cwnd } | TraceEvent::QuickAdapt { t, flow, cwnd } => {
                (t, flow, cwnd)
            }
            _ => return,
        };
        let Some(f) = spec.flow(flow) else { return };
        let floor = f.mtu as f64 - 1e-6;
        if !cwnd.is_finite() || cwnd < floor || cwnd > f.cwnd_max {
            out.push(Violation {
                invariant: "cwnd-bounds",
                t,
                flow: Some(flow),
                link: None,
                detail: format!("cwnd {cwnd} B outside [{} B, {} B]", f.mtu, f.cwnd_max),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// 4. Cumulative counters carried by events behave: RTO counts advance by
//    exactly one per timeout, reroute counts strictly increase.
// ---------------------------------------------------------------------------

/// Monotonicity of the cumulative counters events carry.
#[derive(Default)]
pub struct CounterMonotonic {
    rtos: HashMap<u32, u64>,
    reroutes: HashMap<u32, u64>,
}

impl InvariantChecker for CounterMonotonic {
    fn name(&self) -> &'static str {
        "counter-monotonic"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::Timeout { t, flow, rtos } => {
                let prev = self.rtos.insert(flow, rtos).unwrap_or(0);
                if rtos != prev + 1 {
                    out.push(Violation {
                        invariant: "counter-monotonic",
                        t,
                        flow: Some(flow),
                        link: None,
                        detail: format!("RTO count jumped {prev} -> {rtos} (expected +1)"),
                    });
                }
            }
            TraceEvent::Reroute { t, flow, reroutes } => {
                let prev = self.reroutes.insert(flow, reroutes).unwrap_or(0);
                if reroutes <= prev {
                    out.push(Violation {
                        invariant: "counter-monotonic",
                        t,
                        flow: Some(flow),
                        link: None,
                        detail: format!("reroute count went {prev} -> {reroutes} (not increasing)"),
                    });
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// 5. NACK discipline: only EC flows NACK, only for blocks that exist, and
//    never beyond the per-block budget.
// ---------------------------------------------------------------------------

/// Receiver NACK budget and addressing legality.
#[derive(Default)]
pub struct NackBudget {
    per_block: HashMap<(u32, u64), u64>,
}

impl InvariantChecker for NackBudget {
    fn name(&self) -> &'static str {
        "nack-budget"
    }

    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>) {
        let TraceEvent::Nack { t, flow, block } = *ev else {
            return;
        };
        let Some(f) = spec.flow(flow) else { return };
        if f.ec.is_none() || block >= f.nblocks() {
            out.push(Violation {
                invariant: "nack-budget",
                t,
                flow: Some(flow),
                link: None,
                detail: if f.ec.is_none() {
                    "NACK from a flow without erasure coding".to_string()
                } else {
                    format!("NACK for block {block} but flow has {} blocks", f.nblocks())
                },
            });
            return;
        }
        let n = self.per_block.entry((flow, block)).or_insert(0);
        *n += 1;
        if *n > spec.max_nacks_per_block {
            out.push(Violation {
                invariant: "nack-budget",
                t,
                flow: Some(flow),
                link: None,
                detail: format!(
                    "block {block} NACKed {n} times (budget {})",
                    spec.max_nacks_per_block
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// 6. Completion soundness: a flow may only declare itself done when every
//    byte is actually accounted for, and it must fall silent afterwards.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct FlowLedger {
    acked: HashSet<u64>,
    done_blocks: HashSet<u64>,
    enqueued: HashSet<u64>,
    done_at: Option<Time>,
}

/// UnoRC block-accounting soundness at `FlowDone`, plus post-completion
/// silence (a finished flow's logic must never run again).
#[derive(Default)]
pub struct CompletionSoundness {
    flows: HashMap<u32, FlowLedger>,
}

impl CompletionSoundness {
    fn check_done(f: &crate::spec::FlowNetInfo, led: &FlowLedger, t: Time) -> Option<String> {
        // Every acked sequence number must be a slot the transport can
        // legally send and must have been observed entering the network.
        for &seq in &led.acked {
            if !f.valid_seq(seq) {
                return Some(format!("acked seq {seq} is not a sendable slot"));
            }
            if !led.enqueued.contains(&seq) {
                return Some(format!("acked seq {seq} was never seen on any queue"));
            }
        }
        let _ = t;
        match f.ec {
            None => {
                let n = led.acked.len() as u64;
                if n < f.data_pkts() {
                    return Some(format!(
                        "flow done with {n}/{} distinct data packets acked",
                        f.data_pkts()
                    ));
                }
            }
            Some(_) => {
                for b in 0..f.nblocks() {
                    if led.done_blocks.contains(&b) {
                        continue; // receiver echoed block-complete: decodable
                    }
                    let have = led.acked.iter().filter(|&&s| f.block_of(s) == b).count() as u64;
                    let need = f.block_data_count(b);
                    if have < need {
                        return Some(format!(
                            "flow done but block {b} has {have}/{need} acked shards and no \
                             receiver block-complete echo"
                        ));
                    }
                }
            }
        }
        None
    }
}

impl InvariantChecker for CompletionSoundness {
    fn name(&self) -> &'static str {
        "completion-soundness"
    }

    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::Enqueue { flow, seq, .. } => {
                self.flows.entry(flow).or_default().enqueued.insert(seq);
            }
            TraceEvent::Ack {
                t, flow, seq, done, ..
            } => {
                let led = self.flows.entry(flow).or_default();
                if let Some(done_at) = led.done_at {
                    out.push(Violation {
                        invariant: "completion-soundness",
                        t,
                        flow: Some(flow),
                        link: None,
                        detail: format!("ACK processed after FlowDone at {done_at}ns"),
                    });
                    return;
                }
                led.acked.insert(seq);
                if done {
                    if let Some(f) = spec.flow(flow) {
                        if f.ec.is_some() {
                            led.done_blocks.insert(f.block_of(seq));
                        }
                    }
                }
            }
            TraceEvent::Nack { t, flow, .. } | TraceEvent::Timeout { t, flow, .. } => {
                let led = self.flows.entry(flow).or_default();
                if let Some(done_at) = led.done_at {
                    out.push(Violation {
                        invariant: "completion-soundness",
                        t,
                        flow: Some(flow),
                        link: None,
                        detail: format!(
                            "recovery event ({}) after FlowDone at {done_at}ns",
                            ev.kind()
                        ),
                    });
                }
            }
            TraceEvent::FlowDone { t, flow } => {
                let led = self.flows.entry(flow).or_default();
                if let Some(prev) = led.done_at {
                    out.push(Violation {
                        invariant: "completion-soundness",
                        t,
                        flow: Some(flow),
                        link: None,
                        detail: format!("second FlowDone (first at {prev}ns)"),
                    });
                    return;
                }
                led.done_at = Some(t);
                if let Some(f) = spec.flow(flow) {
                    if let Some(detail) = Self::check_done(f, led, t) {
                        out.push(Violation {
                            invariant: "completion-soundness",
                            t,
                            flow: Some(flow),
                            link: None,
                            detail,
                        });
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// 7. RTT sanity: no measured RTT below the path's propagation floor.
// ---------------------------------------------------------------------------

/// Measured RTT samples respect the propagation-delay floor.
#[derive(Default)]
pub struct RttSanity;

impl InvariantChecker for RttSanity {
    fn name(&self) -> &'static str {
        "rtt-sanity"
    }

    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>) {
        let TraceEvent::Ack { t, flow, rtt, .. } = *ev else {
            return;
        };
        let Some(f) = spec.flow(flow) else { return };
        if rtt < f.rtt_floor {
            out.push(Violation {
                invariant: "rtt-sanity",
                t,
                flow: Some(flow),
                link: None,
                detail: format!(
                    "measured RTT {rtt}ns below propagation floor {}ns",
                    f.rtt_floor
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// 8. Recovery liveness: a timeout or NACK must be answered — some packet of
//    the flow hits the network afterwards, or the flow completes. A pending
//    recovery older than the grace window at run end is a stalled flow.
// ---------------------------------------------------------------------------

/// Every timeout/NACK is followed by retransmission activity or completion.
#[derive(Default)]
pub struct RecoveryLiveness {
    pending: HashMap<u32, (Time, &'static str)>,
}

impl InvariantChecker for RecoveryLiveness {
    fn name(&self) -> &'static str {
        "recovery-liveness"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        let _ = out;
        match *ev {
            TraceEvent::Timeout { t, flow, .. } => {
                self.pending.entry(flow).or_insert((t, "timeout"));
            }
            TraceEvent::Nack { t, flow, .. } => {
                self.pending.entry(flow).or_insert((t, "nack"));
            }
            // Evidence of forward progress: a packet of the flow entered
            // (or was refused by) the network, or the flow reached a
            // terminal outcome (a stalled/aborted declaration *is* the
            // answer to a recovery that cannot succeed).
            TraceEvent::Enqueue { flow, .. }
            | TraceEvent::Drop { flow, .. }
            | TraceEvent::LinkLoss { flow, .. }
            | TraceEvent::FlowDone { flow, .. }
            | TraceEvent::FlowFail { flow, .. } => {
                self.pending.remove(&flow);
            }
            _ => {}
        }
    }

    fn at_end(&mut self, end: Time, spec: &NetSpec, out: &mut Vec<Violation>) {
        for (&flow, &(t, kind)) in &self.pending {
            if end.saturating_sub(t) > spec.liveness_grace {
                out.push(Violation {
                    invariant: "recovery-liveness",
                    t,
                    flow: Some(flow),
                    link: None,
                    detail: format!(
                        "{kind} at {t}ns never answered by {end}ns (grace {}ns): \
                         recovery stalled",
                        spec.liveness_grace
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 9. Outcome soundness: a flow reaches at most one terminal state —
//    completed (`FlowDone`) or failed (`FlowFail`) — never both and never
//    twice. With `require_outcome` armed (permanent-fault runs), every
//    spec flow must have exactly one by run end.
// ---------------------------------------------------------------------------

/// Exactly-one-terminal-outcome discipline per flow.
#[derive(Default)]
pub struct OutcomeSoundness {
    terminal: HashMap<u32, (Time, &'static str)>,
}

impl OutcomeSoundness {
    fn terminate(&mut self, t: Time, flow: u32, what: &'static str, out: &mut Vec<Violation>) {
        if let Some(&(t0, first)) = self.terminal.get(&flow) {
            out.push(Violation {
                invariant: "outcome-soundness",
                t,
                flow: Some(flow),
                link: None,
                detail: format!("flow declared {what} but was already {first} at {t0}ns"),
            });
            return;
        }
        self.terminal.insert(flow, (t, what));
    }
}

impl InvariantChecker for OutcomeSoundness {
    fn name(&self) -> &'static str {
        "outcome-soundness"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::FlowDone { t, flow } => self.terminate(t, flow, "completed", out),
            TraceEvent::FlowFail { t, flow, aborted } => {
                self.terminate(t, flow, if aborted { "aborted" } else { "stalled" }, out)
            }
            _ => {}
        }
    }

    fn at_end(&mut self, end: Time, spec: &NetSpec, out: &mut Vec<Violation>) {
        if !spec.require_outcome {
            return;
        }
        for f in &spec.flows {
            if !self.terminal.contains_key(&f.id) {
                out.push(Violation {
                    invariant: "outcome-soundness",
                    t: end,
                    flow: Some(f.id),
                    link: None,
                    detail: "flow never reached a terminal outcome (completed, stalled, \
                             or aborted) by run end"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 10. Watchdog liveness: a flow that stops making delivery progress must
//     eventually be declared done, stalled, or aborted. A non-terminal flow
//     whose last ACK is older than the stall horizon at run end means the
//     graceful-degradation watchdog is broken (or disarmed when it should
//     not be).
// ---------------------------------------------------------------------------

/// Zero-progress flows must reach a terminal outcome within the horizon.
#[derive(Default)]
pub struct WatchdogLiveness {
    last_progress: HashMap<u32, Time>,
    terminal: HashSet<u32>,
}

impl InvariantChecker for WatchdogLiveness {
    fn name(&self) -> &'static str {
        "watchdog-liveness"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        let _ = out;
        match *ev {
            // Delivery progress: an ACK reached the sender.
            TraceEvent::Ack { t, flow, .. } => {
                self.last_progress.insert(flow, t);
            }
            // Send-side activity only *starts* the clock for a flow; a
            // sender retransmitting into a blackhole enqueues forever
            // without delivering anything, and must not look alive.
            TraceEvent::Enqueue { t, flow, .. }
            | TraceEvent::Drop { t, flow, .. }
            | TraceEvent::Timeout { t, flow, .. }
            | TraceEvent::Nack { t, flow, .. } => {
                self.last_progress.entry(flow).or_insert(t);
            }
            TraceEvent::FlowDone { flow, .. } | TraceEvent::FlowFail { flow, .. } => {
                self.terminal.insert(flow);
            }
            _ => {}
        }
    }

    fn at_end(&mut self, end: Time, spec: &NetSpec, out: &mut Vec<Violation>) {
        if spec.stall_horizon == 0 {
            return;
        }
        for (&flow, &t) in &self.last_progress {
            if !self.terminal.contains(&flow) && end.saturating_sub(t) >= spec.stall_horizon {
                out.push(Violation {
                    invariant: "watchdog-liveness",
                    t,
                    flow: Some(flow),
                    link: None,
                    detail: format!(
                        "no delivery progress since {t}ns and no terminal outcome by \
                         {end}ns (stall horizon {}ns): the watchdog never fired",
                        spec.stall_horizon
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 11. PFC pause discipline: the lossless-aware companion to queue
//     conservation. A resume must match an outstanding pause from the same
//     asserting port, and a paused egress port must never start a new
//     transmission (head-of-line blocking is a hard guarantee, not a hint).
// ---------------------------------------------------------------------------

/// Pause/resume pairing and HOL-blocking discipline per link.
#[derive(Default)]
pub struct PauseDiscipline {
    /// Outstanding pauses per (paused link, asserting link) pair.
    edges: HashMap<(u32, u32), u64>,
    /// Aggregate outstanding-pause refcount per paused link.
    refs: HashMap<u32, u64>,
}

impl InvariantChecker for PauseDiscipline {
    fn name(&self) -> &'static str {
        "pause-discipline"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::PfcPause { link, by, .. } => {
                *self.edges.entry((link, by)).or_insert(0) += 1;
                *self.refs.entry(link).or_insert(0) += 1;
            }
            TraceEvent::PfcResume { t, link, by } => {
                let n = self.edges.entry((link, by)).or_insert(0);
                if *n == 0 {
                    out.push(Violation {
                        invariant: "pause-discipline",
                        t,
                        flow: None,
                        link: Some(link),
                        detail: format!("resume from port {by} without an outstanding pause"),
                    });
                    return;
                }
                *n -= 1;
                *self.refs.entry(link).or_insert(1) -= 1;
            }
            TraceEvent::Dequeue { t, link, flow, .. }
                if self.refs.get(&link).copied().unwrap_or(0) > 0 =>
            {
                out.push(Violation {
                    invariant: "pause-discipline",
                    t,
                    flow: Some(flow),
                    link: Some(link),
                    detail: "transmission started on a PFC-paused port (HOL blocking \
                             violated)"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// 12. PFC storm detection: a link whose pause duty cycle exceeds the spec
//     threshold over a sliding window is storming — pauses are spreading
//     faster than queues drain, the lossless fabric's classic congestion-
//     spreading failure. The violation reports the deepest pause-tree depth
//     observed, attributing how far the storm propagated.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct PauseHistory {
    /// Outstanding-pause refcount (paused while > 0).
    refs: u64,
    /// Start of the currently open paused epoch.
    since: Time,
    /// Closed paused intervals, pruned to the sliding window.
    closed: VecDeque<(Time, Time)>,
    /// Deepest pause-tree depth seen on this link.
    max_depth: u32,
    /// Storming already reported; stay quiet instead of cascading.
    fired: bool,
}

impl PauseHistory {
    /// Paused nanoseconds inside `[t - window, t]`, counting the open epoch.
    fn paused_in_window(&self, t: Time, window: Time) -> u64 {
        let lo = t.saturating_sub(window);
        let mut total: u64 = self
            .closed
            .iter()
            .map(|&(s, e)| e.min(t).saturating_sub(s.max(lo)))
            .sum();
        if self.refs > 0 {
            total += t.saturating_sub(self.since.max(lo));
        }
        total
    }

    fn prune(&mut self, lo: Time) {
        while self.closed.front().is_some_and(|&(_, e)| e < lo) {
            self.closed.pop_front();
        }
    }
}

/// Per-link pause duty cycle over a sliding window, with depth attribution.
#[derive(Default)]
pub struct PfcStormDetector {
    links: HashMap<u32, PauseHistory>,
}

impl PfcStormDetector {
    fn check(h: &mut PauseHistory, t: Time, link: u32, spec: &NetSpec, out: &mut Vec<Violation>) {
        if h.fired || spec.pfc_storm_window == 0 {
            return;
        }
        h.prune(t.saturating_sub(spec.pfc_storm_window));
        let paused = h.paused_in_window(t, spec.pfc_storm_window);
        let duty = paused as f64 / spec.pfc_storm_window as f64;
        if duty > spec.pfc_storm_duty {
            h.fired = true;
            out.push(Violation {
                invariant: "pfc-storm",
                t,
                flow: None,
                link: Some(link),
                detail: format!(
                    "pause duty cycle {:.0}% over the last {}ns exceeds {:.0}% \
                     (max pause-tree depth {})",
                    duty * 100.0,
                    spec.pfc_storm_window,
                    spec.pfc_storm_duty * 100.0,
                    h.max_depth
                ),
            });
        }
    }
}

impl InvariantChecker for PfcStormDetector {
    fn name(&self) -> &'static str {
        "pfc-storm"
    }

    fn on_event(&mut self, ev: &TraceEvent, spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::PfcPause { t, link, depth, .. } => {
                let h = self.links.entry(link).or_default();
                h.max_depth = h.max_depth.max(depth);
                if h.refs == 0 {
                    h.since = t;
                }
                h.refs += 1;
                Self::check(h, t, link, spec, out);
            }
            TraceEvent::PfcResume { t, link, .. } => {
                let h = self.links.entry(link).or_default();
                if h.refs > 0 {
                    h.refs -= 1;
                    if h.refs == 0 {
                        h.closed.push_back((h.since, t));
                    }
                }
                Self::check(h, t, link, spec, out);
            }
            _ => {}
        }
    }

    fn at_end(&mut self, end: Time, spec: &NetSpec, out: &mut Vec<Violation>) {
        for (&link, h) in &mut self.links {
            Self::check(h, end, link, spec, out);
        }
    }
}

// ---------------------------------------------------------------------------
// 13. PFC deadlock detection: pauses induce a wait-for graph over links —
//     `PfcPause { link: F, by: L }` means F cannot drain until L does. A
//     cycle in that graph is a cyclic buffer dependency: every port in the
//     ring waits on the next, nothing ever drains, and only packet loss
//     (forbidden on a lossless fabric) could break the ring. Hard violation.
// ---------------------------------------------------------------------------

/// Wait-for-graph cycle detection over paused ports.
#[derive(Default)]
pub struct PfcDeadlockDetector {
    /// Outstanding pause edges `paused link -> asserting link`, refcounted.
    edges: HashMap<u32, HashMap<u32, u64>>,
    fired: bool,
}

impl PfcDeadlockDetector {
    /// DFS from `start` along wait-for edges, returning a cycle if one is
    /// reachable. Graphs here are tiny (bounded by paused ports), so a
    /// simple coloured DFS is plenty.
    fn find_cycle(&self, start: u32) -> Option<Vec<u32>> {
        let mut stack = vec![(start, 0usize)];
        let mut path = Vec::new();
        let mut on_path = HashSet::new();
        let mut done = HashSet::new();
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next == 0 {
                path.push(node);
                on_path.insert(node);
            }
            let succ = self
                .edges
                .get(&node)
                .map(|m| m.keys().copied().collect::<Vec<_>>())
                .unwrap_or_default();
            if *next < succ.len() {
                let s = succ[*next];
                *next += 1;
                if on_path.contains(&s) {
                    // Found: slice the path from the first occurrence of s.
                    let i = path.iter().position(|&n| n == s).expect("on path");
                    let mut cycle = path[i..].to_vec();
                    cycle.push(s);
                    return Some(cycle);
                }
                if !done.contains(&s) {
                    stack.push((s, 0));
                }
            } else {
                stack.pop();
                path.pop();
                on_path.remove(&node);
                done.insert(node);
            }
        }
        None
    }
}

impl InvariantChecker for PfcDeadlockDetector {
    fn name(&self) -> &'static str {
        "pfc-deadlock"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        match *ev {
            TraceEvent::PfcPause { t, link, by, .. } => {
                *self.edges.entry(link).or_default().entry(by).or_insert(0) += 1;
                if self.fired {
                    return;
                }
                if let Some(cycle) = self.find_cycle(link) {
                    self.fired = true;
                    let ring = cycle
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(" -> ");
                    out.push(Violation {
                        invariant: "pfc-deadlock",
                        t,
                        flow: None,
                        link: Some(link),
                        detail: format!(
                            "cyclic buffer dependency among paused ports: {ring} \
                             (no port in the ring can ever drain)"
                        ),
                    });
                }
            }
            TraceEvent::PfcResume { link, by, .. } => {
                if let Some(m) = self.edges.get_mut(&link) {
                    if let Some(n) = m.get_mut(&by) {
                        *n = n.saturating_sub(1);
                        if *n == 0 {
                            m.remove(&by);
                        }
                    }
                    if m.is_empty() {
                        self.edges.remove(&link);
                    }
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// 14. Pause liveness: the lossless-aware companion to recovery liveness.
//     Every pause must eventually be released — a link still paused at run
//     end, continuously for longer than the grace window, means the resume
//     path is broken (lost resume, dead asserting port, or a deadlock the
//     cycle detector should also have caught).
// ---------------------------------------------------------------------------

/// Every asserted pause is eventually released.
#[derive(Default)]
pub struct PauseLiveness {
    refs: HashMap<u32, u64>,
    since: HashMap<u32, Time>,
}

impl InvariantChecker for PauseLiveness {
    fn name(&self) -> &'static str {
        "pause-liveness"
    }

    fn on_event(&mut self, ev: &TraceEvent, _spec: &NetSpec, out: &mut Vec<Violation>) {
        let _ = out;
        match *ev {
            TraceEvent::PfcPause { t, link, .. } => {
                let n = self.refs.entry(link).or_insert(0);
                if *n == 0 {
                    self.since.insert(link, t);
                }
                *n += 1;
            }
            TraceEvent::PfcResume { link, .. } => {
                let n = self.refs.entry(link).or_insert(0);
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.since.remove(&link);
                }
            }
            _ => {}
        }
    }

    fn at_end(&mut self, end: Time, spec: &NetSpec, out: &mut Vec<Violation>) {
        if spec.pause_grace == 0 {
            return;
        }
        for (&link, &t) in &self.since {
            if self.refs.get(&link).copied().unwrap_or(0) > 0
                && end.saturating_sub(t) > spec.pause_grace
            {
                out.push(Violation {
                    invariant: "pause-liveness",
                    t,
                    flow: None,
                    link: Some(link),
                    detail: format!(
                        "link continuously paused since {t}ns, never released by {end}ns \
                         (grace {}ns)",
                        spec.pause_grace
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Suite plumbing
// ---------------------------------------------------------------------------

/// Result of a checked run.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// All retained violations, in trace order.
    pub violations: Vec<Violation>,
    /// Violations dropped beyond the retention cap.
    pub suppressed: u64,
    /// Total events the suite observed.
    pub events_seen: u64,
}

impl CheckReport {
    /// True when the run broke at least one invariant.
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || self.suppressed > 0
    }
}

/// A registry of invariant checkers fed from one trace stream.
pub struct InvariantSuite {
    spec: NetSpec,
    checkers: Vec<Box<dyn InvariantChecker>>,
    violations: Vec<Violation>,
    suppressed: u64,
    events_seen: u64,
    finished: bool,
}

impl InvariantSuite {
    /// The standard stack-wide suite: all fourteen invariants. The four
    /// PFC checkers are always armed — on a lossy fabric no pause events
    /// exist, so they are trivially silent.
    pub fn standard(spec: NetSpec) -> Self {
        InvariantSuite::with_checkers(
            spec,
            vec![
                Box::<QueueConservation>::default(),
                Box::<QueueCapacityBound>::default(),
                Box::<CwndBounds>::default(),
                Box::<CounterMonotonic>::default(),
                Box::<NackBudget>::default(),
                Box::<CompletionSoundness>::default(),
                Box::<RttSanity>::default(),
                Box::<RecoveryLiveness>::default(),
                Box::<OutcomeSoundness>::default(),
                Box::<WatchdogLiveness>::default(),
                Box::<PauseDiscipline>::default(),
                Box::<PfcStormDetector>::default(),
                Box::<PfcDeadlockDetector>::default(),
                Box::<PauseLiveness>::default(),
            ],
        )
    }

    /// A suite over an explicit checker set (used to test checkers alone).
    pub fn with_checkers(spec: NetSpec, checkers: Vec<Box<dyn InvariantChecker>>) -> Self {
        InvariantSuite {
            spec,
            checkers,
            violations: Vec::new(),
            suppressed: 0,
            events_seen: 0,
            finished: false,
        }
    }

    /// Feed one event to every checker.
    pub fn on_event(&mut self, ev: &TraceEvent) {
        self.events_seen += 1;
        let mut fresh = Vec::new();
        for c in &mut self.checkers {
            c.on_event(ev, &self.spec, &mut fresh);
        }
        self.absorb(fresh);
    }

    /// Run end-of-trace checks (once) and snapshot the report.
    pub fn finalize(&mut self, end: Time) -> CheckReport {
        if !self.finished {
            self.finished = true;
            let mut fresh = Vec::new();
            for c in &mut self.checkers {
                c.at_end(end, &self.spec, &mut fresh);
            }
            self.absorb(fresh);
        }
        CheckReport {
            violations: self.violations.clone(),
            suppressed: self.suppressed,
            events_seen: self.events_seen,
        }
    }

    fn absorb(&mut self, fresh: Vec<Violation>) {
        for v in fresh {
            if self.violations.len() < MAX_VIOLATIONS {
                self.violations.push(v);
            } else {
                self.suppressed += 1;
            }
        }
    }
}

/// An [`InvariantSuite`] armed on a live simulator via a tracer callback:
/// install [`ArmedChecker::tracer`] with `Simulator::set_tracer`, run, and
/// read [`ArmedChecker::finish`]'s report. Here two events emitted by hand
/// stand in for a run: a packet enters link 0's queue, and one that never
/// entered it leaves.
///
/// ```
/// use uno_sim::TraceEvent;
/// use uno_testkit::{ArmedChecker, NetSpec};
///
/// let spec = NetSpec {
///     queue_capacity: vec![64 << 10],
///     flows: Vec::new(),
///     liveness_grace: 1_000_000,
///     max_nacks_per_block: 8,
///     require_outcome: false,
///     stall_horizon: 0,
///     pfc_storm_window: 0,
///     pfc_storm_duty: 1.0,
///     pause_grace: 0,
/// };
/// let armed = ArmedChecker::new(spec);
/// let mut tracer = armed.tracer();
/// tracer.emit(TraceEvent::Enqueue { t: 10, link: 0, flow: 0, seq: 0, size: 4096, qlen: 4096 });
/// tracer.emit(TraceEvent::Dequeue { t: 20, link: 0, flow: 0, seq: 1 });
/// let report = armed.finish(20);
/// assert_eq!(report.events_seen, 2);
/// assert!(report.failed());
/// assert_eq!(report.violations.len(), 1);
/// assert_eq!(report.violations[0].invariant, "queue-conservation");
/// ```
pub struct ArmedChecker {
    suite: Arc<Mutex<InvariantSuite>>,
}

impl ArmedChecker {
    /// Arm the standard suite against `spec`.
    pub fn new(spec: NetSpec) -> Self {
        ArmedChecker {
            suite: Arc::new(Mutex::new(InvariantSuite::standard(spec))),
        }
    }

    /// A tracer that feeds every event (unfiltered) into the suite. Install
    /// it with `Simulator::set_tracer`.
    pub fn tracer(&self) -> Tracer {
        let suite = Arc::clone(&self.suite);
        Tracer::callback(
            Box::new(move |ev| suite.lock().expect("invariant suite lock").on_event(ev)),
            TraceConfig::all(),
        )
    }

    /// Finish the run: evaluate end-of-trace invariants and return the
    /// report. Callable while the tracer still holds its handle.
    pub fn finish(&self, end: Time) -> CheckReport {
        self.suite
            .lock()
            .expect("invariant suite lock")
            .finalize(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FlowNetInfo;

    fn spec() -> NetSpec {
        NetSpec {
            queue_capacity: vec![1 << 20; 4],
            flows: vec![FlowNetInfo {
                id: 0,
                size: 16 * 4096,
                mtu: 4096,
                ec: Some((8, 2)),
                rtt_floor: 1_000,
                cwnd_max: 1e8,
            }],
            liveness_grace: 1_000_000,
            max_nacks_per_block: 8,
            require_outcome: false,
            stall_horizon: 1_000_000,
            pfc_storm_window: 1_000_000,
            pfc_storm_duty: 0.5,
            pause_grace: 1_000_000,
        }
    }

    fn feed(suite: &mut InvariantSuite, evs: &[TraceEvent]) {
        for ev in evs {
            suite.on_event(ev);
        }
    }

    #[test]
    fn conservation_flags_phantom_dequeue() {
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<QueueConservation>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::Enqueue {
                    t: 1,
                    link: 0,
                    flow: 0,
                    seq: 0,
                    size: 4096,
                    qlen: 4096,
                },
                TraceEvent::Dequeue {
                    t: 2,
                    link: 0,
                    flow: 0,
                    seq: 7, // wrong packet: FIFO head is seq 0
                },
            ],
        );
        let r = s.finalize(10);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "queue-conservation");
    }

    #[test]
    fn capacity_bound_fires_on_overflow() {
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<QueueCapacityBound>::default()]);
        s.on_event(&TraceEvent::Enqueue {
            t: 1,
            link: 2,
            flow: 0,
            seq: 0,
            size: 4096,
            qlen: (1 << 20) + 1,
        });
        assert_eq!(s.finalize(10).violations.len(), 1);
    }

    #[test]
    fn cwnd_bounds_reject_nan_and_huge() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<CwndBounds>::default()]);
        s.on_event(&TraceEvent::CwndChange {
            t: 1,
            flow: 0,
            cwnd: f64::NAN,
        });
        s.on_event(&TraceEvent::QuickAdapt {
            t: 2,
            flow: 0,
            cwnd: 1e12,
        });
        s.on_event(&TraceEvent::CwndChange {
            t: 3,
            flow: 0,
            cwnd: 8192.0,
        });
        assert_eq!(s.finalize(10).violations.len(), 2);
    }

    #[test]
    fn rto_counter_must_advance_by_one() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<CounterMonotonic>::default()]);
        s.on_event(&TraceEvent::Timeout {
            t: 1,
            flow: 0,
            rtos: 1,
        });
        s.on_event(&TraceEvent::Timeout {
            t: 2,
            flow: 0,
            rtos: 3, // skipped 2
        });
        assert_eq!(s.finalize(10).violations.len(), 1);
    }

    #[test]
    fn nack_budget_and_addressing() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<NackBudget>::default()]);
        for t in 0..9 {
            s.on_event(&TraceEvent::Nack {
                t,
                flow: 0,
                block: 0,
            });
        }
        s.on_event(&TraceEvent::Nack {
            t: 10,
            flow: 0,
            block: 99, // flow has 2 blocks
        });
        let r = s.finalize(20);
        // 9th NACK over the budget of 8, plus the out-of-range block.
        assert_eq!(r.violations.len(), 2);
    }

    #[test]
    fn premature_completion_is_caught() {
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<CompletionSoundness>::default()]);
        // Ack 7 of 8 shards of block 0 (all previously enqueued), then
        // declare the flow done: block 0 is short one shard.
        for seq in 0..7u64 {
            s.on_event(&TraceEvent::Enqueue {
                t: seq,
                link: 0,
                flow: 0,
                seq,
                size: 4096,
                qlen: 4096,
            });
            s.on_event(&TraceEvent::Ack {
                t: 100 + seq,
                flow: 0,
                seq,
                bytes: 4096,
                ecn: false,
                rtt: 2_000,
                done: false,
            });
        }
        s.on_event(&TraceEvent::FlowDone { t: 200, flow: 0 });
        let r = s.finalize(300);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].detail.contains("block 0"), "{r:?}");
    }

    #[test]
    fn done_echo_substitutes_for_missing_acks() {
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<CompletionSoundness>::default()]);
        // Block 0: 8 plain acks. Block 1 (seqs 10..): 7 acks, the last one
        // carrying the receiver's block-complete echo — decodable via EC.
        for seq in (0..8u64).chain(10..17u64) {
            s.on_event(&TraceEvent::Enqueue {
                t: seq,
                link: 0,
                flow: 0,
                seq,
                size: 4096,
                qlen: 4096,
            });
            s.on_event(&TraceEvent::Ack {
                t: 100 + seq,
                flow: 0,
                seq,
                bytes: 4096,
                ecn: false,
                rtt: 2_000,
                done: seq == 16,
            });
        }
        s.on_event(&TraceEvent::FlowDone { t: 200, flow: 0 });
        assert!(s.finalize(300).violations.is_empty());
    }

    #[test]
    fn events_after_done_are_flagged() {
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<CompletionSoundness>::default()]);
        // Legitimate completion needs full accounting; use block-complete
        // echoes for both blocks to keep the fixture short.
        for (seq, blk_last) in [(0u64, false), (7, true), (10, false), (16, true)] {
            s.on_event(&TraceEvent::Enqueue {
                t: seq,
                link: 0,
                flow: 0,
                seq,
                size: 4096,
                qlen: 4096,
            });
            s.on_event(&TraceEvent::Ack {
                t: 100 + seq,
                flow: 0,
                seq,
                bytes: 4096,
                ecn: false,
                rtt: 2_000,
                done: blk_last,
            });
        }
        s.on_event(&TraceEvent::FlowDone { t: 200, flow: 0 });
        s.on_event(&TraceEvent::Timeout {
            t: 300,
            flow: 0,
            rtos: 1,
        });
        let r = s.finalize(400);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].detail.contains("after FlowDone"));
    }

    #[test]
    fn rtt_below_floor_is_flagged() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<RttSanity>::default()]);
        s.on_event(&TraceEvent::Ack {
            t: 1,
            flow: 0,
            seq: 0,
            bytes: 4096,
            ecn: false,
            rtt: 500, // floor is 1000
            done: false,
        });
        assert_eq!(s.finalize(10).violations.len(), 1);
    }

    #[test]
    fn unanswered_timeout_is_a_stall() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<RecoveryLiveness>::default()]);
        s.on_event(&TraceEvent::Timeout {
            t: 1_000,
            flow: 0,
            rtos: 1,
        });
        // Grace is 1ms; end the run 10ms later with no further activity.
        let r = s.finalize(11_000_000);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "recovery-liveness");

        // Answered timeout: retransmit enqueue clears the pending state.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<RecoveryLiveness>::default()]);
        s.on_event(&TraceEvent::Timeout {
            t: 1_000,
            flow: 0,
            rtos: 1,
        });
        s.on_event(&TraceEvent::Enqueue {
            t: 2_000,
            link: 0,
            flow: 0,
            seq: 0,
            size: 4096,
            qlen: 4096,
        });
        assert!(s.finalize(11_000_000).violations.is_empty());
    }

    #[test]
    fn double_terminal_outcomes_are_flagged() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<OutcomeSoundness>::default()]);
        s.on_event(&TraceEvent::FlowDone { t: 100, flow: 0 });
        s.on_event(&TraceEvent::FlowFail {
            t: 200,
            flow: 0,
            aborted: true,
        });
        let r = s.finalize(300);
        assert_eq!(r.violations.len(), 1);
        assert!(
            r.violations[0].detail.contains("already completed"),
            "{r:?}"
        );
    }

    #[test]
    fn missing_outcome_is_flagged_only_when_required() {
        // require_outcome off: a flow with no terminal event is fine.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<OutcomeSoundness>::default()]);
        assert!(s.finalize(1_000).violations.is_empty());

        // require_outcome on: the spec's flow 0 never terminated.
        let mut req = spec();
        req.require_outcome = true;
        let mut s = InvariantSuite::with_checkers(req, vec![Box::<OutcomeSoundness>::default()]);
        let r = s.finalize(1_000);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "outcome-soundness");

        // A stalled declaration satisfies the requirement.
        let mut req = spec();
        req.require_outcome = true;
        let mut s = InvariantSuite::with_checkers(req, vec![Box::<OutcomeSoundness>::default()]);
        s.on_event(&TraceEvent::FlowFail {
            t: 500,
            flow: 0,
            aborted: false,
        });
        assert!(s.finalize(1_000).violations.is_empty());
    }

    #[test]
    fn silent_zero_progress_flow_breaks_watchdog_liveness() {
        // A flow retransmits into a blackhole (enqueues, no ACKs) and never
        // gets a terminal outcome: the watchdog should have fired.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<WatchdogLiveness>::default()]);
        s.on_event(&TraceEvent::Enqueue {
            t: 1_000,
            link: 0,
            flow: 0,
            seq: 0,
            size: 4096,
            qlen: 4096,
        });
        // Stall horizon is 1ms in the fixture spec; end 10ms later.
        let r = s.finalize(10_000_000);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "watchdog-liveness");

        // Same history but the flow is declared stalled: clean.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<WatchdogLiveness>::default()]);
        s.on_event(&TraceEvent::Enqueue {
            t: 1_000,
            link: 0,
            flow: 0,
            seq: 0,
            size: 4096,
            qlen: 4096,
        });
        s.on_event(&TraceEvent::FlowFail {
            t: 2_000_000,
            flow: 0,
            aborted: false,
        });
        assert!(s.finalize(10_000_000).violations.is_empty());

        // Recent delivery progress also keeps the flow alive.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<WatchdogLiveness>::default()]);
        s.on_event(&TraceEvent::Ack {
            t: 9_500_000,
            flow: 0,
            seq: 0,
            bytes: 4096,
            ecn: false,
            rtt: 2_000,
            done: false,
        });
        assert!(s.finalize(10_000_000).violations.is_empty());
    }

    #[test]
    fn pause_discipline_flags_hol_and_orphan_resume() {
        // Dequeue while paused: HOL blocking violated.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PauseDiscipline>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 10,
                    link: 3,
                    by: 7,
                    depth: 1,
                },
                TraceEvent::Dequeue {
                    t: 20,
                    link: 3,
                    flow: 0,
                    seq: 0,
                },
            ],
        );
        let r = s.finalize(100);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].detail.contains("HOL"), "{r:?}");

        // Resume with no outstanding pause from that port.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PauseDiscipline>::default()]);
        s.on_event(&TraceEvent::PfcResume {
            t: 10,
            link: 3,
            by: 9,
        });
        assert_eq!(s.finalize(100).violations.len(), 1);

        // Balanced pause/resume with a post-resume dequeue: clean.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PauseDiscipline>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 10,
                    link: 3,
                    by: 7,
                    depth: 1,
                },
                TraceEvent::PfcResume {
                    t: 20,
                    link: 3,
                    by: 7,
                },
                TraceEvent::Dequeue {
                    t: 30,
                    link: 3,
                    flow: 0,
                    seq: 0,
                },
            ],
        );
        assert!(s.finalize(100).violations.is_empty());
    }

    #[test]
    fn storm_detector_fires_on_high_duty_cycle() {
        // Window 1ms, duty threshold 50%. Pause link 5 for 0.8ms of the
        // first millisecond (with rising tree depth): storming.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PfcStormDetector>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 0,
                    link: 5,
                    by: 2,
                    depth: 1,
                },
                TraceEvent::PfcResume {
                    t: 400_000,
                    link: 5,
                    by: 2,
                },
                TraceEvent::PfcPause {
                    t: 500_000,
                    link: 5,
                    by: 2,
                    depth: 3,
                },
                TraceEvent::PfcResume {
                    t: 900_000,
                    link: 5,
                    by: 2,
                },
            ],
        );
        let r = s.finalize(1_000_000);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "pfc-storm");
        assert!(r.violations[0].detail.contains("depth 3"), "{r:?}");

        // A brief pause (10% duty) stays silent.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PfcStormDetector>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 0,
                    link: 5,
                    by: 2,
                    depth: 1,
                },
                TraceEvent::PfcResume {
                    t: 100_000,
                    link: 5,
                    by: 2,
                },
            ],
        );
        assert!(s.finalize(1_000_000).violations.is_empty());
    }

    #[test]
    fn deadlock_detector_finds_planted_three_switch_cycle() {
        // Three switches in a ring: egress port 10 (on switch A) pauses
        // A's feeder 20 (an egress of switch B), whose congestion pauses
        // B's feeder 30 (egress of C), which finally pauses 10 itself —
        // the classic cyclic buffer dependency. Edges read "waits for".
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<PfcDeadlockDetector>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 10,
                    link: 20,
                    by: 10,
                    depth: 1,
                },
                TraceEvent::PfcPause {
                    t: 20,
                    link: 30,
                    by: 20,
                    depth: 2,
                },
                TraceEvent::PfcPause {
                    t: 30,
                    link: 10,
                    by: 30,
                    depth: 3,
                },
            ],
        );
        let r = s.finalize(100);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "pfc-deadlock");
        assert!(
            r.violations[0].detail.contains("cyclic buffer dependency"),
            "{r:?}"
        );

        // Same chain without closing the ring: a pause *tree* is legal.
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<PfcDeadlockDetector>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 10,
                    link: 20,
                    by: 10,
                    depth: 1,
                },
                TraceEvent::PfcPause {
                    t: 20,
                    link: 30,
                    by: 20,
                    depth: 2,
                },
            ],
        );
        assert!(s.finalize(100).violations.is_empty());

        // Releasing an edge breaks the would-be ring before it closes.
        let mut s =
            InvariantSuite::with_checkers(spec(), vec![Box::<PfcDeadlockDetector>::default()]);
        feed(
            &mut s,
            &[
                TraceEvent::PfcPause {
                    t: 10,
                    link: 20,
                    by: 10,
                    depth: 1,
                },
                TraceEvent::PfcPause {
                    t: 20,
                    link: 30,
                    by: 20,
                    depth: 2,
                },
                TraceEvent::PfcResume {
                    t: 25,
                    link: 20,
                    by: 10,
                },
                TraceEvent::PfcPause {
                    t: 30,
                    link: 10,
                    by: 30,
                    depth: 3,
                },
            ],
        );
        assert!(s.finalize(100).violations.is_empty());
    }

    #[test]
    fn unreleased_pause_breaks_pause_liveness() {
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PauseLiveness>::default()]);
        s.on_event(&TraceEvent::PfcPause {
            t: 1_000,
            link: 4,
            by: 2,
            depth: 1,
        });
        // Grace is 1ms; end the run 10ms later with the pause still open.
        let r = s.finalize(10_000_000);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "pause-liveness");

        // A released pause is clean no matter how long the run tail is.
        let mut s = InvariantSuite::with_checkers(spec(), vec![Box::<PauseLiveness>::default()]);
        s.on_event(&TraceEvent::PfcPause {
            t: 1_000,
            link: 4,
            by: 2,
            depth: 1,
        });
        s.on_event(&TraceEvent::PfcResume {
            t: 2_000,
            link: 4,
            by: 2,
        });
        assert!(s.finalize(10_000_000).violations.is_empty());
    }

    #[test]
    fn armed_checker_plugs_into_a_tracer() {
        let armed = ArmedChecker::new(spec());
        let mut tracer = armed.tracer();
        tracer.emit(TraceEvent::Ack {
            t: 1,
            flow: 0,
            seq: 0,
            bytes: 4096,
            ecn: false,
            rtt: 100, // below the 1000ns floor
            done: false,
        });
        let r = armed.finish(10);
        assert_eq!(r.events_seen, 1);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].invariant, "rtt-sanity");
    }
}
