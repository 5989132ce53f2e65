//! BBR baseline (Cardwell et al., CACM 2017): model-based congestion
//! control that estimates the bottleneck bandwidth (windowed-max delivery
//! rate) and propagation RTT (windowed-min), paces at `gain × BtlBw`, and
//! caps inflight at `2 × BDP`. In the Uno paper's MPRDMA+BBR baseline it
//! carries the inter-DC traffic.
//!
//! Simplifications versus Linux BBRv1, documented here and in DESIGN.md:
//! ProbeRTT is omitted (our experiment durations are far shorter than its
//! 10 s cycle) and the RTprop window is the whole flow lifetime. Startup,
//! Drain and the 8-phase ProbeBW gain cycle are implemented.

use uno_sim::{Time, SECONDS};

use crate::cc::{AckEvent, CcAlgorithm, CcConfig};

/// BBR's high startup gain: 2/ln(2).
const STARTUP_GAIN: f64 = 2.885;
/// ProbeBW pacing-gain cycle.
const PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// cwnd gain relative to estimated BDP.
const CWND_GAIN: f64 = 2.0;
/// Delivery-rate samples are windowed-maxed over this many rounds.
const BW_WINDOW_ROUNDS: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Startup,
    Drain,
    ProbeBw,
}

/// BBR controller state.
#[derive(Clone, Debug)]
pub struct Bbr {
    cfg: CcConfig,
    state: State,
    /// (round, bytes/s) max-filter samples.
    bw_samples: Vec<(u64, f64)>,
    rt_prop: Time,
    // Round tracking via the delivered-bytes counter.
    round: u64,
    round_end_delivered: u64,
    // Startup plateau detection.
    full_bw: f64,
    full_bw_rounds: u32,
    // ProbeBW cycling.
    cycle_idx: usize,
    cycle_start: Time,
    pacing_gain: f64,
}

impl Bbr {
    /// Create a BBR controller.
    pub fn new(cfg: CcConfig) -> Self {
        Bbr {
            cfg,
            state: State::Startup,
            bw_samples: Vec::new(),
            rt_prop: Time::MAX,
            round: 0,
            round_end_delivered: 0,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_idx: 0,
            cycle_start: 0,
            pacing_gain: STARTUP_GAIN,
        }
    }

    /// Current bottleneck-bandwidth estimate in bytes/s.
    pub fn btl_bw(&self) -> f64 {
        self.bw_samples
            .iter()
            .map(|&(_, bw)| bw)
            .fold(0.0, f64::max)
    }

    /// Current propagation-RTT estimate.
    pub fn rt_prop(&self) -> Time {
        if self.rt_prop == Time::MAX {
            self.cfg.base_rtt
        } else {
            self.rt_prop
        }
    }

    /// Estimated BDP in bytes.
    pub fn bdp_estimate(&self) -> f64 {
        let bw = self.btl_bw();
        if bw == 0.0 {
            return self.cfg.bdp;
        }
        bw * self.rt_prop() as f64 / SECONDS as f64
    }

    /// Current operating state name (tests/diagnostics).
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Startup => "startup",
            State::Drain => "drain",
            State::ProbeBw => "probe_bw",
        }
    }

    fn record_bw(&mut self, sample: f64) {
        // Aggregate to one (round, max) entry per round: thousands of ACKs
        // arrive per round at WAN BDPs, and a per-ACK push would make the
        // window scan quadratic.
        match self.bw_samples.last_mut() {
            Some((r, bw)) if *r == self.round => *bw = bw.max(sample),
            _ => self.bw_samples.push((self.round, sample)),
        }
        let min_round = self.round.saturating_sub(BW_WINDOW_ROUNDS);
        self.bw_samples.retain(|&(r, _)| r >= min_round);
    }
}

impl CcAlgorithm for Bbr {
    fn on_ack(&mut self, ev: &AckEvent) {
        self.rt_prop = self.rt_prop.min(ev.rtt);
        let rate = ev.delivery_rate();
        if rate > 0.0 {
            self.record_bw(rate);
        }
        // Round accounting: a round ends when cumulative delivery passes the
        // level recorded at the previous round's start.
        if ev.delivered_now >= self.round_end_delivered {
            self.round += 1;
            self.round_end_delivered = ev.delivered_now + ev.inflight.max(1);
            // Startup plateau check once per round.
            if self.state == State::Startup {
                let bw = self.btl_bw();
                if bw > self.full_bw * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= 3 {
                        self.state = State::Drain;
                        self.pacing_gain = 1.0 / STARTUP_GAIN;
                    }
                }
            }
        }
        match self.state {
            State::Startup => {}
            State::Drain => {
                if (ev.inflight as f64) <= self.bdp_estimate() {
                    self.state = State::ProbeBw;
                    self.cycle_idx = 0;
                    self.cycle_start = ev.now;
                    self.pacing_gain = PROBE_GAINS[0];
                }
            }
            State::ProbeBw => {
                if ev.now.saturating_sub(self.cycle_start) >= self.rt_prop() {
                    self.cycle_idx = (self.cycle_idx + 1) % PROBE_GAINS.len();
                    self.cycle_start = ev.now;
                    self.pacing_gain = PROBE_GAINS[self.cycle_idx];
                }
            }
        }
    }

    fn on_loss(&mut self, _now: Time) {
        // BBRv1 deliberately does not react to individual losses.
    }

    fn cwnd(&self) -> f64 {
        (CWND_GAIN * self.bdp_estimate()).max(self.cfg.min_cwnd() * 4.0)
    }

    fn pacing_bps(&self) -> Option<f64> {
        let bw = self.btl_bw();
        if bw == 0.0 {
            // Before any estimate: pace the initial window over the base RTT.
            let bytes_per_s = self.cfg.bdp * SECONDS as f64 / self.cfg.base_rtt as f64;
            Some(self.pacing_gain * bytes_per_s * 8.0)
        } else {
            Some(self.pacing_gain * bw * 8.0)
        }
    }

    fn name(&self) -> &'static str {
        "BBR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uno_sim::{FlowClass, TopologyParams, MILLIS};

    fn cfg() -> CcConfig {
        CcConfig::for_class(&TopologyParams::default(), FlowClass::Inter)
    }

    /// Feed `n` ACKs representing a steady `rate_bytes_per_s` delivery.
    fn steady(bbr: &mut Bbr, n: usize, rate: f64, rtt: Time, start: Time) -> Time {
        let mut now = start;
        let mut delivered = 0u64;
        let step = (4096.0 / rate * SECONDS as f64) as Time;
        for _ in 0..n {
            delivered += 4096;
            let ev = AckEvent {
                now,
                bytes: 4096,
                ecn: false,
                rtt,
                pkt_sent_at: now.saturating_sub(rtt),
                delivered_at_send: delivered
                    .saturating_sub((rate * rtt as f64 / SECONDS as f64) as u64),
                delivered_now: delivered,
                inflight: (rate * rtt as f64 / SECONDS as f64) as u64,
            };
            bbr.on_ack(&ev);
            now += step;
        }
        now
    }

    #[test]
    fn estimates_bandwidth_and_rtprop() {
        let mut b = Bbr::new(cfg());
        let rate = 1.25e9; // 10 Gbps in bytes/s
        steady(&mut b, 5000, rate, 2 * MILLIS, 2 * MILLIS);
        let bw = b.btl_bw();
        assert!((bw - rate).abs() / rate < 0.1, "bw {bw}");
        assert_eq!(b.rt_prop(), 2 * MILLIS);
        // BDP = 10 Gbps x 2 ms = 2.5 MB.
        assert!((b.bdp_estimate() - 2.5e6).abs() / 2.5e6 < 0.15);
    }

    #[test]
    fn leaves_startup_on_plateau() {
        let mut b = Bbr::new(cfg());
        assert_eq!(b.state_name(), "startup");
        steady(&mut b, 20_000, 1.25e9, 2 * MILLIS, 2 * MILLIS);
        assert_ne!(
            b.state_name(),
            "startup",
            "flat delivery rate must end startup"
        );
    }

    #[test]
    fn probe_bw_cycles_gains() {
        let mut b = Bbr::new(cfg());
        steady(&mut b, 40_000, 1.25e9, 2 * MILLIS, 2 * MILLIS);
        assert_eq!(b.state_name(), "probe_bw");
        // Pacing rate stays within the probe gain envelope of the estimate.
        let pace = b.pacing_bps().unwrap();
        let bw_bits = b.btl_bw() * 8.0;
        assert!(
            pace >= 0.7 * bw_bits && pace <= 1.3 * bw_bits,
            "pace {pace}"
        );
    }

    #[test]
    fn initial_pacing_covers_init_window() {
        let b = Bbr::new(cfg());
        let pace = b.pacing_bps().unwrap();
        // The BDP over base_rtt, times startup gain, in bits.
        let expect = STARTUP_GAIN * cfg().bdp * 8.0 * SECONDS as f64 / (2 * MILLIS) as f64;
        assert!((pace - expect).abs() / expect < 1e-6);
    }

    #[test]
    fn cwnd_tracks_twice_bdp() {
        let mut b = Bbr::new(cfg());
        steady(&mut b, 10_000, 1.25e9, 2 * MILLIS, 2 * MILLIS);
        let want = 2.0 * b.bdp_estimate();
        assert!((b.cwnd() - want).abs() / want < 1e-6);
    }

    #[test]
    fn loss_is_ignored() {
        let mut b = Bbr::new(cfg());
        steady(&mut b, 5000, 1.25e9, 2 * MILLIS, 2 * MILLIS);
        let w = b.cwnd();
        b.on_loss(10 * MILLIS);
        assert_eq!(b.cwnd(), w);
    }

    #[test]
    fn bw_window_expires_old_samples() {
        let mut b = Bbr::new(cfg());
        steady(&mut b, 5000, 2.5e9, 2 * MILLIS, 2 * MILLIS);
        let high = b.btl_bw();
        // Now deliver at a quarter of the rate for many rounds.
        steady(&mut b, 40_000, 0.625e9, 2 * MILLIS, 100 * MILLIS);
        assert!(b.btl_bw() < high, "old max must age out");
    }
}
