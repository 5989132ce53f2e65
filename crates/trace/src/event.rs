//! The trace event vocabulary and its JSONL encoding.

use std::fmt::{self, Write as _};

use serde::Value;

/// Simulation timestamp in nanoseconds (mirrors `uno_sim::Time` without
/// depending on the simulator crate — `uno-trace` sits below it).
pub type Time = u64;

/// Coarse event taxonomy used by [`crate::TraceConfig`] class filters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventClass {
    /// Switch queue operations: enqueue, dequeue, drop, ECN mark.
    Queue,
    /// Link-level losses (failed links, stochastic loss processes).
    Link,
    /// Congestion control: acks, cwnd changes, epoch boundaries, Quick Adapt.
    Cc,
    /// Reliable connectivity: NACKs and retransmission timeouts.
    Rc,
    /// Load balancing: path reroutes.
    Lb,
    /// Flow lifecycle: completion.
    Flow,
}

impl EventClass {
    /// Lower-case name as used in `--trace-filter` specs.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Queue => "queue",
            EventClass::Link => "link",
            EventClass::Cc => "cc",
            EventClass::Rc => "rc",
            EventClass::Lb => "lb",
            EventClass::Flow => "flow",
        }
    }

    /// Parse a filter-spec class name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queue" => Ok(EventClass::Queue),
            "link" => Ok(EventClass::Link),
            "cc" => Ok(EventClass::Cc),
            "rc" => Ok(EventClass::Rc),
            "lb" => Ok(EventClass::Lb),
            "flow" => Ok(EventClass::Flow),
            other => Err(format!(
                "unknown event class `{other}` (expected queue/link/cc/rc/lb/flow)"
            )),
        }
    }
}

/// One structured trace record. Every variant carries the simulation time
/// `t` (ns); most carry the flow id of the packet or flow they concern
/// ([`TraceEvent::QueueClear`] is the flow-less exception), and queue-side
/// variants also carry the link id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A packet was accepted into a link's egress queue.
    Enqueue {
        /// Simulation time (ns).
        t: Time,
        /// Egress link.
        link: u32,
        /// Owning flow.
        flow: u32,
        /// Packet sequence number.
        seq: u64,
        /// Packet size in bytes.
        size: u32,
        /// Physical queue occupancy in bytes *after* the enqueue.
        qlen: u64,
    },
    /// A packet left a link's egress queue and began transmission.
    Dequeue {
        /// Simulation time (ns).
        t: Time,
        /// Egress link.
        link: u32,
        /// Owning flow.
        flow: u32,
        /// Packet sequence number.
        seq: u64,
    },
    /// A packet was drop-tailed at a full queue.
    Drop {
        /// Simulation time (ns).
        t: Time,
        /// Egress link.
        link: u32,
        /// Owning flow.
        flow: u32,
        /// Packet sequence number.
        seq: u64,
        /// Physical queue occupancy in bytes at the drop decision.
        qlen: u64,
    },
    /// A packet was ECN-marked on enqueue.
    Mark {
        /// Simulation time (ns).
        t: Time,
        /// Egress link.
        link: u32,
        /// Owning flow.
        flow: u32,
        /// Packet sequence number.
        seq: u64,
        /// True when the phantom (virtual) queue drove the mark, false for
        /// the physical RED backstop.
        phantom: bool,
    },
    /// A packet was lost on a link (failure or stochastic loss process).
    LinkLoss {
        /// Simulation time (ns).
        t: Time,
        /// Lossy link.
        link: u32,
        /// Owning flow.
        flow: u32,
        /// Packet sequence number.
        seq: u64,
    },
    /// The sender processed an ACK.
    Ack {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// Acked sequence number.
        seq: u64,
        /// Newly acknowledged bytes.
        bytes: u64,
        /// ECN echo on the ACK.
        ecn: bool,
        /// Measured RTT of the acked packet (ns).
        rtt: Time,
        /// Receiver-side "block complete" echo carried by the ACK (always
        /// false for flows without erasure coding).
        done: bool,
    },
    /// The receiver requested a repair (sent a NACK).
    Nack {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// EC block the NACK concerns.
        block: u64,
    },
    /// The sender's retransmission timer fired.
    Timeout {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// Cumulative RTO count for the flow (after this timeout).
        rtos: u64,
    },
    /// The load balancer moved traffic to a new path.
    Reroute {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// Cumulative reroute count for the flow (after this reroute).
        reroutes: u64,
    },
    /// The congestion window changed while processing an ACK.
    CwndChange {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// New congestion window in bytes.
        cwnd: f64,
    },
    /// A congestion-control epoch terminated (UnoCC MD granularity).
    EpochBoundary {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// EWMA ECN fraction at the boundary.
        ecn_frac: f64,
        /// Whether a multiplicative decrease was applied.
        md: bool,
    },
    /// Quick Adapt collapsed the window (extreme congestion).
    QuickAdapt {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// Window after the collapse, in bytes.
        cwnd: f64,
    },
    /// The flow delivered its last byte and left the simulator.
    FlowDone {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
    },
    /// A link failure purged its egress queue (every queued packet of every
    /// flow was discarded at once). Carries no flow id.
    QueueClear {
        /// Simulation time (ns).
        t: Time,
        /// Failed link.
        link: u32,
        /// Packets discarded.
        pkts: u64,
        /// Bytes discarded.
        bytes: u64,
    },
    /// The fault plane changed a link's health state (hard down, gray loss,
    /// degraded capacity, added delay, flap transition, or healing back).
    /// Carries no flow id.
    FaultTransition {
        /// Simulation time (ns).
        t: Time,
        /// Affected link.
        link: u32,
        /// True when the link returned to fully healthy service, false when
        /// a fault (of any kind) took effect.
        up: bool,
    },
    /// The flow gave up without delivering its message: either the stall
    /// watchdog declared it dead or the bounded-retry budget ran out.
    FlowFail {
        /// Simulation time (ns).
        t: Time,
        /// Flow.
        flow: u32,
        /// True for a bounded-retry abort, false for a stall-watchdog
        /// verdict.
        aborted: bool,
    },
    /// A PFC PAUSE took effect: egress port `by` crossed its XOFF threshold
    /// and halted feeder link `link`. Carries no flow id.
    PfcPause {
        /// Simulation time (ns).
        t: Time,
        /// The feeder link being paused.
        link: u32,
        /// The congested egress port that asserted the pause.
        by: u32,
        /// Pause-tree depth of the assertion (1 = directly congested port,
        /// +1 per level of upstream cascade).
        depth: u32,
    },
    /// A PFC RESUME took effect: egress port `by` drained to its XON
    /// threshold and released its hold on feeder link `link`. Carries no
    /// flow id.
    PfcResume {
        /// Simulation time (ns).
        t: Time,
        /// The feeder link being released.
        link: u32,
        /// The egress port releasing its pause.
        by: u32,
    },
}

/// `DIGIT_PAIRS[2 * n..2 * n + 2]` spells `n` in two ASCII digits, `n < 100`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Room for the longest line [`TraceEvent::write_json`] can produce: an
/// `ack` with every integer at its maximum is 163 bytes, and the float
/// variants stay under 110.
pub(crate) const LINE_CAP: usize = 256;

/// One JSONL line under construction, on the stack.
struct Line {
    buf: [u8; LINE_CAP],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Line {
            buf: [0; LINE_CAP],
            len: 0,
        }
    }

    #[inline(always)]
    fn raw(&mut self, s: &[u8]) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    /// `key` then `n` in decimal, two digits per division.
    #[inline(always)]
    fn uint(&mut self, key: &[u8], n: impl Into<u64>) {
        self.raw(key);
        let mut n: u64 = n.into();
        let end = self.len + n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut i = end;
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            self.buf[i - 2..i].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
            i -= 2;
        }
        if n >= 10 {
            let pair = n as usize * 2;
            self.buf[i - 2..i].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            self.buf[i - 1] = b'0' + n as u8;
        }
        self.len = end;
    }

    #[inline(always)]
    fn flag(&mut self, key: &[u8], b: bool) {
        self.raw(key);
        self.raw(if b { b"true" } else { b"false" });
    }

    /// `key` then `n` formatted as the JSON printer does: integral finite
    /// values keep one decimal (`2.0`), everything else uses shortest
    /// round-trip form.
    fn float(&mut self, key: &[u8], n: f64) {
        self.raw(key);
        let _ = if n.is_finite() && n.fract() == 0.0 && n.abs() < 1e15 {
            write!(self, "{n:.1}")
        } else {
            write!(self, "{n:?}")
        };
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl fmt::Write for Line {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.raw(s.as_bytes());
        Ok(())
    }
}

impl TraceEvent {
    /// Event timestamp in ns.
    pub fn t(&self) -> Time {
        match *self {
            TraceEvent::Enqueue { t, .. }
            | TraceEvent::Dequeue { t, .. }
            | TraceEvent::Drop { t, .. }
            | TraceEvent::Mark { t, .. }
            | TraceEvent::LinkLoss { t, .. }
            | TraceEvent::Ack { t, .. }
            | TraceEvent::Nack { t, .. }
            | TraceEvent::Timeout { t, .. }
            | TraceEvent::Reroute { t, .. }
            | TraceEvent::CwndChange { t, .. }
            | TraceEvent::EpochBoundary { t, .. }
            | TraceEvent::QuickAdapt { t, .. }
            | TraceEvent::FlowDone { t, .. }
            | TraceEvent::QueueClear { t, .. }
            | TraceEvent::FaultTransition { t, .. }
            | TraceEvent::FlowFail { t, .. }
            | TraceEvent::PfcPause { t, .. }
            | TraceEvent::PfcResume { t, .. } => t,
        }
    }

    /// Flow the event concerns ([`TraceEvent::QueueClear`] concerns none).
    pub fn flow(&self) -> Option<u32> {
        match *self {
            TraceEvent::Enqueue { flow, .. }
            | TraceEvent::Dequeue { flow, .. }
            | TraceEvent::Drop { flow, .. }
            | TraceEvent::Mark { flow, .. }
            | TraceEvent::LinkLoss { flow, .. }
            | TraceEvent::Ack { flow, .. }
            | TraceEvent::Nack { flow, .. }
            | TraceEvent::Timeout { flow, .. }
            | TraceEvent::Reroute { flow, .. }
            | TraceEvent::CwndChange { flow, .. }
            | TraceEvent::EpochBoundary { flow, .. }
            | TraceEvent::QuickAdapt { flow, .. }
            | TraceEvent::FlowDone { flow, .. }
            | TraceEvent::FlowFail { flow, .. } => Some(flow),
            TraceEvent::QueueClear { .. }
            | TraceEvent::FaultTransition { .. }
            | TraceEvent::PfcPause { .. }
            | TraceEvent::PfcResume { .. } => None,
        }
    }

    /// Link the event concerns, when it is a queue/link-side event.
    pub fn link(&self) -> Option<u32> {
        match *self {
            TraceEvent::Enqueue { link, .. }
            | TraceEvent::Dequeue { link, .. }
            | TraceEvent::Drop { link, .. }
            | TraceEvent::Mark { link, .. }
            | TraceEvent::LinkLoss { link, .. }
            | TraceEvent::QueueClear { link, .. }
            | TraceEvent::FaultTransition { link, .. }
            | TraceEvent::PfcPause { link, .. }
            | TraceEvent::PfcResume { link, .. } => Some(link),
            _ => None,
        }
    }

    /// The event's class for filtering.
    pub fn class(&self) -> EventClass {
        match self {
            TraceEvent::Enqueue { .. }
            | TraceEvent::Dequeue { .. }
            | TraceEvent::Drop { .. }
            | TraceEvent::Mark { .. }
            | TraceEvent::QueueClear { .. } => EventClass::Queue,
            TraceEvent::LinkLoss { .. }
            | TraceEvent::FaultTransition { .. }
            | TraceEvent::PfcPause { .. }
            | TraceEvent::PfcResume { .. } => EventClass::Link,
            TraceEvent::Ack { .. }
            | TraceEvent::CwndChange { .. }
            | TraceEvent::EpochBoundary { .. }
            | TraceEvent::QuickAdapt { .. } => EventClass::Cc,
            TraceEvent::Nack { .. } | TraceEvent::Timeout { .. } => EventClass::Rc,
            TraceEvent::Reroute { .. } => EventClass::Lb,
            TraceEvent::FlowDone { .. } | TraceEvent::FlowFail { .. } => EventClass::Flow,
        }
    }

    /// Short tag written as the `ev` field in JSONL.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Mark { .. } => "mark",
            TraceEvent::LinkLoss { .. } => "link_loss",
            TraceEvent::Ack { .. } => "ack",
            TraceEvent::Nack { .. } => "nack",
            TraceEvent::Timeout { .. } => "timeout",
            TraceEvent::Reroute { .. } => "reroute",
            TraceEvent::CwndChange { .. } => "cwnd",
            TraceEvent::EpochBoundary { .. } => "epoch",
            TraceEvent::QuickAdapt { .. } => "qa",
            TraceEvent::FlowDone { .. } => "flow_done",
            TraceEvent::QueueClear { .. } => "queue_clear",
            TraceEvent::FaultTransition { .. } => "fault",
            TraceEvent::FlowFail { .. } => "flow_fail",
            TraceEvent::PfcPause { .. } => "pfc_pause",
            TraceEvent::PfcResume { .. } => "pfc_resume",
        }
    }

    /// Append the event's one-line JSON form (no trailing newline) to `out`.
    ///
    /// Hand-written rather than going through the generic serializer: this
    /// runs once per traced packet operation, so the line is assembled on
    /// the stack from constant keys and table-driven integer digits, with
    /// `core::fmt` left only for the two float fields, and lands in `out`
    /// with one copy.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let mut l = Line::new();
        l.uint(br#"{"t":"#, self.t());
        match *self {
            TraceEvent::Enqueue {
                link,
                flow,
                seq,
                size,
                qlen,
                ..
            } => {
                l.uint(br#","ev":"enqueue","link":"#, link);
                l.uint(br#","flow":"#, flow);
                l.uint(br#","seq":"#, seq);
                l.uint(br#","size":"#, size);
                l.uint(br#","qlen":"#, qlen);
            }
            TraceEvent::Dequeue {
                link, flow, seq, ..
            } => {
                l.uint(br#","ev":"dequeue","link":"#, link);
                l.uint(br#","flow":"#, flow);
                l.uint(br#","seq":"#, seq);
            }
            TraceEvent::Drop {
                link,
                flow,
                seq,
                qlen,
                ..
            } => {
                l.uint(br#","ev":"drop","link":"#, link);
                l.uint(br#","flow":"#, flow);
                l.uint(br#","seq":"#, seq);
                l.uint(br#","qlen":"#, qlen);
            }
            TraceEvent::Mark {
                link,
                flow,
                seq,
                phantom,
                ..
            } => {
                l.uint(br#","ev":"mark","link":"#, link);
                l.uint(br#","flow":"#, flow);
                l.uint(br#","seq":"#, seq);
                l.flag(br#","phantom":"#, phantom);
            }
            TraceEvent::LinkLoss {
                link, flow, seq, ..
            } => {
                l.uint(br#","ev":"link_loss","link":"#, link);
                l.uint(br#","flow":"#, flow);
                l.uint(br#","seq":"#, seq);
            }
            TraceEvent::Ack {
                flow,
                seq,
                bytes,
                ecn,
                rtt,
                done,
                ..
            } => {
                l.uint(br#","ev":"ack","flow":"#, flow);
                l.uint(br#","seq":"#, seq);
                l.uint(br#","bytes":"#, bytes);
                l.flag(br#","ecn":"#, ecn);
                l.uint(br#","rtt":"#, rtt);
                l.flag(br#","done":"#, done);
            }
            TraceEvent::Nack { flow, block, .. } => {
                l.uint(br#","ev":"nack","flow":"#, flow);
                l.uint(br#","block":"#, block);
            }
            TraceEvent::Timeout { flow, rtos, .. } => {
                l.uint(br#","ev":"timeout","flow":"#, flow);
                l.uint(br#","rtos":"#, rtos);
            }
            TraceEvent::Reroute { flow, reroutes, .. } => {
                l.uint(br#","ev":"reroute","flow":"#, flow);
                l.uint(br#","reroutes":"#, reroutes);
            }
            TraceEvent::CwndChange { flow, cwnd, .. } => {
                l.uint(br#","ev":"cwnd","flow":"#, flow);
                l.float(br#","cwnd":"#, cwnd);
            }
            TraceEvent::EpochBoundary {
                flow, ecn_frac, md, ..
            } => {
                l.uint(br#","ev":"epoch","flow":"#, flow);
                l.float(br#","ecn_frac":"#, ecn_frac);
                l.flag(br#","md":"#, md);
            }
            TraceEvent::QuickAdapt { flow, cwnd, .. } => {
                l.uint(br#","ev":"qa","flow":"#, flow);
                l.float(br#","cwnd":"#, cwnd);
            }
            TraceEvent::FlowDone { flow, .. } => {
                l.uint(br#","ev":"flow_done","flow":"#, flow);
            }
            TraceEvent::QueueClear {
                link, pkts, bytes, ..
            } => {
                l.uint(br#","ev":"queue_clear","link":"#, link);
                l.uint(br#","pkts":"#, pkts);
                l.uint(br#","bytes":"#, bytes);
            }
            TraceEvent::FaultTransition { link, up, .. } => {
                l.uint(br#","ev":"fault","link":"#, link);
                l.flag(br#","up":"#, up);
            }
            TraceEvent::FlowFail { flow, aborted, .. } => {
                l.uint(br#","ev":"flow_fail","flow":"#, flow);
                l.flag(br#","aborted":"#, aborted);
            }
            TraceEvent::PfcPause {
                link, by, depth, ..
            } => {
                l.uint(br#","ev":"pfc_pause","link":"#, link);
                l.uint(br#","by":"#, by);
                l.uint(br#","depth":"#, depth);
            }
            TraceEvent::PfcResume { link, by, .. } => {
                l.uint(br#","ev":"pfc_resume","link":"#, link);
                l.uint(br#","by":"#, by);
            }
        }
        l.raw(b"}");
        out.extend_from_slice(l.as_bytes());
    }

    /// The event's one-line JSON form as an owned string.
    pub fn to_json(&self) -> String {
        let mut s = Vec::with_capacity(96);
        self.write_json(&mut s);
        String::from_utf8(s).expect("trace JSON is ASCII")
    }

    /// Parse one JSONL line back into an event (summarizer / test path).
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
        Self::from_value(&v)
    }

    /// Reconstruct an event from a parsed [`Value`] object.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        fn num(v: &Value, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        }
        fn float(v: &Value, key: &str) -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        }
        fn boolean(v: &Value, key: &str) -> Result<bool, String> {
            match v.get(key) {
                Some(Value::Bool(b)) => Ok(*b),
                _ => Err(format!("missing bool field `{key}`")),
            }
        }
        fn flw(v: &Value) -> Result<u32, String> {
            num(v, "flow").map(|n| n as u32)
        }
        let t = num(v, "t")?;
        let kind = v
            .get("ev")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing `ev` tag".to_string())?;
        Ok(match kind {
            "enqueue" => TraceEvent::Enqueue {
                t,
                link: num(v, "link")? as u32,
                flow: flw(v)?,
                seq: num(v, "seq")?,
                size: num(v, "size")? as u32,
                qlen: num(v, "qlen")?,
            },
            "dequeue" => TraceEvent::Dequeue {
                t,
                link: num(v, "link")? as u32,
                flow: flw(v)?,
                seq: num(v, "seq")?,
            },
            "drop" => TraceEvent::Drop {
                t,
                link: num(v, "link")? as u32,
                flow: flw(v)?,
                seq: num(v, "seq")?,
                qlen: num(v, "qlen")?,
            },
            "mark" => TraceEvent::Mark {
                t,
                link: num(v, "link")? as u32,
                flow: flw(v)?,
                seq: num(v, "seq")?,
                phantom: boolean(v, "phantom")?,
            },
            "link_loss" => TraceEvent::LinkLoss {
                t,
                link: num(v, "link")? as u32,
                flow: flw(v)?,
                seq: num(v, "seq")?,
            },
            "ack" => TraceEvent::Ack {
                t,
                flow: flw(v)?,
                seq: num(v, "seq")?,
                bytes: num(v, "bytes")?,
                ecn: boolean(v, "ecn")?,
                rtt: num(v, "rtt")?,
                done: boolean(v, "done")?,
            },
            "nack" => TraceEvent::Nack {
                t,
                flow: flw(v)?,
                block: num(v, "block")?,
            },
            "timeout" => TraceEvent::Timeout {
                t,
                flow: flw(v)?,
                rtos: num(v, "rtos")?,
            },
            "reroute" => TraceEvent::Reroute {
                t,
                flow: flw(v)?,
                reroutes: num(v, "reroutes")?,
            },
            "cwnd" => TraceEvent::CwndChange {
                t,
                flow: flw(v)?,
                cwnd: float(v, "cwnd")?,
            },
            "epoch" => TraceEvent::EpochBoundary {
                t,
                flow: flw(v)?,
                ecn_frac: float(v, "ecn_frac")?,
                md: boolean(v, "md")?,
            },
            "qa" => TraceEvent::QuickAdapt {
                t,
                flow: flw(v)?,
                cwnd: float(v, "cwnd")?,
            },
            "flow_done" => TraceEvent::FlowDone { t, flow: flw(v)? },
            "queue_clear" => TraceEvent::QueueClear {
                t,
                link: num(v, "link")? as u32,
                pkts: num(v, "pkts")?,
                bytes: num(v, "bytes")?,
            },
            "fault" => TraceEvent::FaultTransition {
                t,
                link: num(v, "link")? as u32,
                up: boolean(v, "up")?,
            },
            "flow_fail" => TraceEvent::FlowFail {
                t,
                flow: flw(v)?,
                aborted: boolean(v, "aborted")?,
            },
            "pfc_pause" => TraceEvent::PfcPause {
                t,
                link: num(v, "link")? as u32,
                by: num(v, "by")? as u32,
                depth: num(v, "depth")? as u32,
            },
            "pfc_resume" => TraceEvent::PfcResume {
                t,
                link: num(v, "link")? as u32,
                by: num(v, "by")? as u32,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        })
    }
}

/// Reference encoder: the original `write!`-based [`TraceEvent::write_json`],
/// kept as the differential oracle for the byte encoder (`tests` below
/// require identical output for every variant across edge and random values).
#[cfg(test)]
fn reference_json(ev: &TraceEvent) -> String {
    fn write_f64(out: &mut String, n: f64) {
        if n.is_finite() && n.fract() == 0.0 && n.abs() < 1e15 {
            let _ = write!(out, "{n:.1}");
        } else {
            let _ = write!(out, "{n:?}");
        }
    }

    let mut out = String::new();
    let _ = write!(out, r#"{{"t":{},"ev":"{}""#, ev.t(), ev.kind());
    match *ev {
        TraceEvent::Enqueue {
            link,
            flow,
            seq,
            size,
            qlen,
            ..
        } => {
            let _ = write!(
                out,
                r#","link":{link},"flow":{flow},"seq":{seq},"size":{size},"qlen":{qlen}"#
            );
        }
        TraceEvent::Dequeue {
            link, flow, seq, ..
        }
        | TraceEvent::LinkLoss {
            link, flow, seq, ..
        } => {
            let _ = write!(out, r#","link":{link},"flow":{flow},"seq":{seq}"#);
        }
        TraceEvent::Drop {
            link,
            flow,
            seq,
            qlen,
            ..
        } => {
            let _ = write!(
                out,
                r#","link":{link},"flow":{flow},"seq":{seq},"qlen":{qlen}"#
            );
        }
        TraceEvent::Mark {
            link,
            flow,
            seq,
            phantom,
            ..
        } => {
            let _ = write!(
                out,
                r#","link":{link},"flow":{flow},"seq":{seq},"phantom":{phantom}"#
            );
        }
        TraceEvent::Ack {
            flow,
            seq,
            bytes,
            ecn,
            rtt,
            done,
            ..
        } => {
            let _ = write!(
                out,
                r#","flow":{flow},"seq":{seq},"bytes":{bytes},"ecn":{ecn},"rtt":{rtt},"done":{done}"#
            );
        }
        TraceEvent::Nack { flow, block, .. } => {
            let _ = write!(out, r#","flow":{flow},"block":{block}"#);
        }
        TraceEvent::Timeout { flow, rtos, .. } => {
            let _ = write!(out, r#","flow":{flow},"rtos":{rtos}"#);
        }
        TraceEvent::Reroute { flow, reroutes, .. } => {
            let _ = write!(out, r#","flow":{flow},"reroutes":{reroutes}"#);
        }
        TraceEvent::CwndChange { flow, cwnd, .. } | TraceEvent::QuickAdapt { flow, cwnd, .. } => {
            let _ = write!(out, r#","flow":{flow},"cwnd":"#);
            write_f64(&mut out, cwnd);
        }
        TraceEvent::EpochBoundary {
            flow, ecn_frac, md, ..
        } => {
            let _ = write!(out, r#","flow":{flow},"ecn_frac":"#);
            write_f64(&mut out, ecn_frac);
            let _ = write!(out, r#","md":{md}"#);
        }
        TraceEvent::FlowDone { flow, .. } => {
            let _ = write!(out, r#","flow":{flow}"#);
        }
        TraceEvent::QueueClear {
            link, pkts, bytes, ..
        } => {
            let _ = write!(out, r#","link":{link},"pkts":{pkts},"bytes":{bytes}"#);
        }
        TraceEvent::FaultTransition { link, up, .. } => {
            let _ = write!(out, r#","link":{link},"up":{up}"#);
        }
        TraceEvent::FlowFail { flow, aborted, .. } => {
            let _ = write!(out, r#","flow":{flow},"aborted":{aborted}"#);
        }
        TraceEvent::PfcPause {
            link, by, depth, ..
        } => {
            let _ = write!(out, r#","link":{link},"by":{by},"depth":{depth}"#);
        }
        TraceEvent::PfcResume { link, by, .. } => {
            let _ = write!(out, r#","link":{link},"by":{by}"#);
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueue {
                t: 10,
                link: 3,
                flow: 0,
                seq: 7,
                size: 4096,
                qlen: 8192,
            },
            TraceEvent::Dequeue {
                t: 11,
                link: 3,
                flow: 0,
                seq: 7,
            },
            TraceEvent::Drop {
                t: 12,
                link: 4,
                flow: 1,
                seq: 9,
                qlen: 1 << 20,
            },
            TraceEvent::Mark {
                t: 13,
                link: 3,
                flow: 0,
                seq: 8,
                phantom: true,
            },
            TraceEvent::LinkLoss {
                t: 14,
                link: 5,
                flow: 2,
                seq: 1,
            },
            TraceEvent::Ack {
                t: 15,
                flow: 0,
                seq: 7,
                bytes: 4096,
                ecn: false,
                rtt: 14_000,
                done: false,
            },
            TraceEvent::Nack {
                t: 16,
                flow: 2,
                block: 3,
            },
            TraceEvent::Timeout {
                t: 17,
                flow: 2,
                rtos: 1,
            },
            TraceEvent::Reroute {
                t: 18,
                flow: 2,
                reroutes: 4,
            },
            TraceEvent::CwndChange {
                t: 19,
                flow: 0,
                cwnd: 123456.5,
            },
            TraceEvent::EpochBoundary {
                t: 20,
                flow: 0,
                ecn_frac: 0.25,
                md: true,
            },
            TraceEvent::QuickAdapt {
                t: 21,
                flow: 0,
                cwnd: 8192.0,
            },
            TraceEvent::FlowDone { t: 22, flow: 0 },
            TraceEvent::QueueClear {
                t: 23,
                link: 5,
                pkts: 12,
                bytes: 49_152,
            },
            TraceEvent::FaultTransition {
                t: 24,
                link: 2,
                up: false,
            },
            TraceEvent::FlowFail {
                t: 25,
                flow: 1,
                aborted: true,
            },
            TraceEvent::PfcPause {
                t: 26,
                link: 6,
                by: 3,
                depth: 2,
            },
            TraceEvent::PfcResume {
                t: 27,
                link: 6,
                by: 3,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_variant() {
        for ev in samples() {
            let line = ev.to_json();
            let back = TraceEvent::from_json_line(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn classes_are_stable() {
        use EventClass::*;
        let want = [
            Queue, Queue, Queue, Queue, Link, Cc, Rc, Rc, Lb, Cc, Cc, Cc, Flow, Queue, Link, Flow,
            Link, Link,
        ];
        for (ev, w) in samples().iter().zip(want) {
            assert_eq!(ev.class(), w, "{ev:?}");
        }
    }

    #[test]
    fn class_names_round_trip() {
        for c in [
            EventClass::Queue,
            EventClass::Link,
            EventClass::Cc,
            EventClass::Rc,
            EventClass::Lb,
            EventClass::Flow,
        ] {
            assert_eq!(EventClass::parse(c.name()).unwrap(), c);
        }
        assert!(EventClass::parse("bogus").is_err());
    }

    /// Field values for [`every_variant`].
    pub(crate) trait Fields {
        fn int(&mut self) -> u64;
        fn float(&mut self) -> f64;
        fn small(&mut self) -> u32 {
            self.int() as u32
        }
        fn flag(&mut self) -> bool {
            self.int() & 1 == 1
        }
    }

    /// Every field at one integer and one float value.
    struct Same(u64, f64);

    impl Fields for Same {
        fn int(&mut self) -> u64 {
            self.0
        }
        fn float(&mut self) -> f64 {
            self.1
        }
    }

    /// Seeded random fields from splitmix64, inline so the crate needs no
    /// RNG dependency. Integers span every digit count.
    pub(crate) struct SplitMix(pub(crate) u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    impl Fields for SplitMix {
        fn int(&mut self) -> u64 {
            let shift = self.next() % 64;
            self.next() >> shift
        }
        fn float(&mut self) -> f64 {
            match self.next() % 3 {
                0 => f64::from_bits(self.next()),
                1 => (self.next() % 10u64.pow(16)) as f64,
                _ => (self.next() % 1_000_000) as f64 / 8.0,
            }
        }
    }

    /// Every variant with its fields drawn from `f` in declaration order.
    pub(crate) fn every_variant(f: &mut impl Fields) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueue {
                t: f.int(),
                link: f.small(),
                flow: f.small(),
                seq: f.int(),
                size: f.small(),
                qlen: f.int(),
            },
            TraceEvent::Dequeue {
                t: f.int(),
                link: f.small(),
                flow: f.small(),
                seq: f.int(),
            },
            TraceEvent::Drop {
                t: f.int(),
                link: f.small(),
                flow: f.small(),
                seq: f.int(),
                qlen: f.int(),
            },
            TraceEvent::Mark {
                t: f.int(),
                link: f.small(),
                flow: f.small(),
                seq: f.int(),
                phantom: f.flag(),
            },
            TraceEvent::LinkLoss {
                t: f.int(),
                link: f.small(),
                flow: f.small(),
                seq: f.int(),
            },
            TraceEvent::Ack {
                t: f.int(),
                flow: f.small(),
                seq: f.int(),
                bytes: f.int(),
                ecn: f.flag(),
                rtt: f.int(),
                done: f.flag(),
            },
            TraceEvent::Nack {
                t: f.int(),
                flow: f.small(),
                block: f.int(),
            },
            TraceEvent::Timeout {
                t: f.int(),
                flow: f.small(),
                rtos: f.int(),
            },
            TraceEvent::Reroute {
                t: f.int(),
                flow: f.small(),
                reroutes: f.int(),
            },
            TraceEvent::CwndChange {
                t: f.int(),
                flow: f.small(),
                cwnd: f.float(),
            },
            TraceEvent::EpochBoundary {
                t: f.int(),
                flow: f.small(),
                ecn_frac: f.float(),
                md: f.flag(),
            },
            TraceEvent::QuickAdapt {
                t: f.int(),
                flow: f.small(),
                cwnd: f.float(),
            },
            TraceEvent::FlowDone {
                t: f.int(),
                flow: f.small(),
            },
            TraceEvent::QueueClear {
                t: f.int(),
                link: f.small(),
                pkts: f.int(),
                bytes: f.int(),
            },
            TraceEvent::FaultTransition {
                t: f.int(),
                link: f.small(),
                up: f.flag(),
            },
            TraceEvent::FlowFail {
                t: f.int(),
                flow: f.small(),
                aborted: f.flag(),
            },
            TraceEvent::PfcPause {
                t: f.int(),
                link: f.small(),
                by: f.small(),
                depth: f.small(),
            },
            TraceEvent::PfcResume {
                t: f.int(),
                link: f.small(),
                by: f.small(),
            },
        ]
    }

    /// `write_json` must append exactly the reference line to `out`.
    fn assert_matches_reference(ev: &TraceEvent) {
        let mut out = b"prefix ".to_vec();
        ev.write_json(&mut out);
        assert_eq!(
            String::from_utf8_lossy(&out),
            format!("prefix {}", reference_json(ev)),
            "{ev:?}"
        );
    }

    #[test]
    fn encoder_matches_reference_at_edge_values() {
        let mut ints = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for p in 0..20 {
            let ten = 10u64.pow(p);
            ints.extend([ten - 1, ten, ten + 1]);
        }
        let floats = [
            0.0,
            0.5,
            8192.0,
            123456.5,
            1e-7,
            1e15,
            1e16,
            f64::MAX,
            -0.0,
            f64::MIN_POSITIVE,
        ];
        for &n in &ints {
            for &x in &floats {
                for ev in every_variant(&mut Same(n, x)) {
                    assert_matches_reference(&ev);
                }
            }
        }
    }

    #[test]
    fn encoder_matches_reference_on_random_events() {
        let mut rng = SplitMix(0x5EED);
        for _ in 0..2_000 {
            for ev in every_variant(&mut rng) {
                assert_matches_reference(&ev);
            }
        }
    }

    #[test]
    fn integral_floats_match_serde_json_formatting() {
        let ev = TraceEvent::QuickAdapt {
            t: 1,
            flow: 0,
            cwnd: 8192.0,
        };
        assert!(ev.to_json().contains(r#""cwnd":8192.0"#));
    }
}
