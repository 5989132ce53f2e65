//! Wall-clock isolation: `Instant::now` in the engine feeds only the
//! engine-speed meters, never simulated state. Two identical runs must
//! produce bit-identical simulated outputs even when one is artificially
//! slowed down and stepped with different wall-clock pacing.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use uno_sim::{
    FlowLogic, FlowMeta, Packet, PacketKind, Simulator, Time, Topology, TopologyParams,
    TraceConfig, TraceEvent, Tracer, MICROS, MILLIS, SECONDS,
};

/// Minimal transport: blast `n` spaced packets, receiver ACKs each, sender
/// completes when all are acked. Entropy is drawn from the flow RNG so the
/// run also covers the deterministic-randomness path.
struct Blaster {
    src: uno_sim::NodeId,
    dst: uno_sim::NodeId,
    n: u64,
    sent: u64,
    acked: u64,
}

impl FlowLogic for Blaster {
    fn on_start(&mut self, ctx: &mut uno_sim::Ctx) {
        self.pump(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut uno_sim::Ctx) {
        match pkt.kind {
            PacketKind::Data => {
                let mut ack = Packet::data(pkt.flow, pkt.seq, 64, self.src);
                ack.kind = PacketKind::Ack;
                ack.sent_at = pkt.sent_at;
                ctx.send(ack);
            }
            PacketKind::Ack => {
                self.acked += 1;
                ctx.trace(TraceEvent::Ack {
                    t: ctx.now,
                    flow: ctx.flow.0,
                    seq: pkt.seq as u64,
                    bytes: 4096,
                    ecn: pkt.ecn,
                    rtt: ctx.now.saturating_sub(pkt.sent_at),
                    done: false,
                });
                if self.acked == self.n {
                    ctx.complete();
                } else {
                    self.pump(ctx);
                }
            }
            PacketKind::Nack => {}
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut uno_sim::Ctx) {
        self.pump(ctx);
    }
}

impl Blaster {
    fn pump(&mut self, ctx: &mut uno_sim::Ctx) {
        while self.sent < self.n && self.sent < self.acked + 8 {
            let mut pkt = Packet::data(ctx.flow, self.sent as u32, 4096, self.dst);
            pkt.entropy = ctx.random_entropy();
            pkt.sent_at = ctx.now;
            ctx.send(pkt);
            self.sent += 1;
        }
        if self.sent < self.n {
            ctx.set_timer(10 * MICROS, 1);
        }
    }
}

/// One run, stepped through `run_until` in `chunks` slices of the horizon,
/// sleeping `delay` of wall time between slices. Returns everything
/// simulated the run produced: FCTs, counters JSON, and the full trace.
fn run(seed: u64, chunks: u64, delay: Duration) -> (Vec<(u32, Time)>, String, Vec<String>) {
    let mut sim = Simulator::new(Topology::build(TopologyParams::small()), seed);
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    sim.set_tracer(Tracer::callback(
        Box::new(move |ev: &TraceEvent| sink.lock().unwrap().push(ev.to_json())),
        TraceConfig::all(),
    ));
    let src = sim.topo.host(0, 0);
    let dst = sim.topo.host(0, 9);
    sim.add_flow(
        FlowMeta {
            src,
            dst,
            size: 64 * 4096,
            start: 0,
        },
        Box::new(Blaster {
            src,
            dst,
            n: 64,
            sent: 0,
            acked: 0,
        }),
    );
    let horizon = 20 * MILLIS;
    for i in 1..=chunks {
        sim.run_until(horizon * i / chunks);
        std::thread::sleep(delay);
    }
    sim.run_until(SECONDS);
    let fcts = sim
        .fcts
        .iter()
        .map(|r| (r.flow.0, r.end))
        .collect::<Vec<_>>();
    let counters = sim.counter_snapshot().to_json();
    let trace = log.lock().unwrap().clone();
    (fcts, counters, trace)
}

#[test]
fn artificial_wall_delays_cannot_change_simulated_outputs() {
    let fast = run(11, 1, Duration::ZERO);
    let slow = run(11, 7, Duration::from_millis(3));
    assert!(!fast.0.is_empty(), "flow must complete");
    assert!(!fast.2.is_empty(), "trace must capture events");
    assert_eq!(fast.0, slow.0, "FCTs must be wall-clock independent");
    assert_eq!(fast.1, slow.1, "counters must be wall-clock independent");
    assert_eq!(fast.2, slow.2, "traces must be wall-clock independent");
}

#[test]
fn wall_meters_do_not_leak_into_counter_snapshot() {
    let mut sim = Simulator::new(Topology::build(TopologyParams::small()), 1);
    sim.run_until(MILLIS);
    assert!(sim.wall_seconds() >= 0.0);
    let json = sim.counter_snapshot().to_json();
    assert!(
        !json.contains("wall"),
        "counter snapshots must stay virtual-time only: {json}"
    );
}
