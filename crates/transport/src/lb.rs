//! Load-balancing schemes, expressed as per-flow path-entropy policies
//! (the simulator's switches hash the entropy at every ECMP fan-out point).
//!
//! * **ECMP** — one fixed entropy per flow (hash-collision prone);
//! * **Spray / RPS** — fresh random entropy per packet (best balance, worst
//!   reordering);
//! * **PLB** (Qureshi et al., SIGCOMM 2022) — one entropy per flow, redrawn
//!   after consecutive congested (ECN-heavy) rounds or on timeout;
//! * **UnoLB** (paper §4.2, Algorithm 2) — `n` subflows with round-robin
//!   packet spreading; on NACK or timeout, rate-limited to once per base
//!   RTT, the *least recently ACKed* subflow is re-routed onto a fresh path.

use rand::Rng;
use serde::{Deserialize, Serialize};
use uno_sim::Time;

/// PLB: consecutive congested rounds before repathing.
pub const PLB_CONGESTED_ROUNDS: u32 = 3;
/// PLB: ECN fraction above which a round counts as congested.
pub const PLB_ECN_FRAC_THRESH: f64 = 0.5;

/// Which load-balancing policy a flow uses.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum LbMode {
    /// Fixed per-flow path.
    Ecmp,
    /// Random Packet Spraying (per-packet random path).
    Spray,
    /// Protective Load Balancing ([`PLB_CONGESTED_ROUNDS`],
    /// [`PLB_ECN_FRAC_THRESH`]).
    Plb,
    /// Uno's subflow-level balancer.
    UnoLb {
        /// Number of concurrent subflows (paper: one per EC block packet).
        subflows: usize,
    },
}

impl LbMode {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            LbMode::Ecmp => "ECMP",
            LbMode::Spray => "RPS",
            LbMode::Plb => "PLB",
            LbMode::UnoLb { .. } => "UnoLB",
        }
    }

    /// Reorder tolerance for fast retransmit, in packets: a sent packet is
    /// presumed lost once this many later transmissions have been ACKed.
    /// Single-path policies see little reordering; spraying and subflow
    /// policies see a lot.
    pub fn reorder_tolerance(&self) -> u64 {
        match *self {
            LbMode::Ecmp | LbMode::Plb => 16,
            LbMode::Spray => 128,
            LbMode::UnoLb { subflows } => (8 * subflows as u64).max(64),
        }
    }
}

/// Per-flow load-balancer state machine.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    mode: LbMode,
    base_rtt: Time,
    entropies: Vec<u16>,
    last_ack: Vec<Time>,
    next_idx: usize,
    last_reroute: Time,
    // PLB round state.
    round_end: Time,
    round_total: u64,
    round_ecn: u64,
    congested_rounds: u32,
    /// Number of path changes performed (diagnostics).
    pub reroutes: u64,
}

impl LoadBalancer {
    /// Create the balancer, drawing initial entropies from `rng`.
    pub fn new<R: Rng>(mode: LbMode, base_rtt: Time, rng: &mut R) -> Self {
        let n = match mode {
            LbMode::UnoLb { subflows } => {
                assert!(subflows > 0, "UnoLB needs at least one subflow");
                subflows
            }
            _ => 1,
        };
        LoadBalancer {
            mode,
            base_rtt,
            entropies: (0..n).map(|_| rng.gen()).collect(),
            last_ack: vec![0; n],
            next_idx: 0,
            last_reroute: 0,
            round_end: 0,
            round_total: 0,
            round_ecn: 0,
            congested_rounds: 0,
            reroutes: 0,
        }
    }

    /// The policy in force.
    pub fn mode(&self) -> LbMode {
        self.mode
    }

    /// Number of concurrent subflows.
    pub fn subflow_count(&self) -> usize {
        self.entropies.len()
    }

    /// Entropy to stamp on the next outgoing packet (Alg. 2 ONSEND).
    pub fn next_entropy<R: Rng>(&mut self, rng: &mut R) -> u16 {
        match self.mode {
            LbMode::Ecmp | LbMode::Plb => self.entropies[0],
            LbMode::Spray => rng.gen(),
            LbMode::UnoLb { .. } => {
                let e = self.entropies[self.next_idx];
                self.next_idx = (self.next_idx + 1) % self.entropies.len();
                e
            }
        }
    }

    /// Feed an acknowledgement: `entropy` is the path the acked data packet
    /// took, `ecn` its congestion mark.
    pub fn on_ack<R: Rng>(&mut self, entropy: u16, ecn: bool, now: Time, rng: &mut R) {
        match self.mode {
            LbMode::UnoLb { .. } => {
                if let Some(i) = self.entropies.iter().position(|&e| e == entropy) {
                    self.last_ack[i] = now;
                }
            }
            LbMode::Plb => {
                self.round_total += 1;
                if ecn {
                    self.round_ecn += 1;
                }
                if now >= self.round_end {
                    if self.round_total > 0 {
                        let frac = self.round_ecn as f64 / self.round_total as f64;
                        if frac > PLB_ECN_FRAC_THRESH {
                            self.congested_rounds += 1;
                        } else {
                            self.congested_rounds = 0;
                        }
                        if self.congested_rounds >= PLB_CONGESTED_ROUNDS {
                            self.entropies[0] = rng.gen();
                            self.reroutes += 1;
                            self.congested_rounds = 0;
                        }
                    }
                    self.round_end = now + self.base_rtt;
                    self.round_total = 0;
                    self.round_ecn = 0;
                }
            }
            _ => {}
        }
    }

    /// NACK or retransmission-timeout signal (Alg. 2 ONNACKORTIMEOUT):
    /// rate-limited to once per base RTT, re-route the worst subflow.
    pub fn on_nack_or_timeout<R: Rng>(&mut self, now: Time, rng: &mut R) {
        if now.saturating_sub(self.last_reroute) <= self.base_rtt {
            return;
        }
        match self.mode {
            LbMode::UnoLb { .. } => {
                // The least-recently-ACKed subflow is the failure suspect;
                // move it onto a fresh path (biasing *away* from paths that
                // have not produced ACKs recently).
                let worst = (0..self.entropies.len())
                    .min_by_key(|&i| self.last_ack[i])
                    .expect("at least one subflow");
                self.entropies[worst] = rng.gen();
                self.last_ack[worst] = now; // grace period for the new path
                self.last_reroute = now;
                self.reroutes += 1;
            }
            LbMode::Plb => {
                self.entropies[0] = rng.gen();
                self.last_reroute = now;
                self.reroutes += 1;
            }
            LbMode::Ecmp | LbMode::Spray => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use uno_sim::{MICROS, MILLIS};

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(9)
    }

    #[test]
    fn reorder_tolerance_scales_with_reordering_risk() {
        for (lb, tolerance) in [
            (LbMode::Ecmp, 16),
            (LbMode::Plb, 16),
            (LbMode::Spray, 128),
            (LbMode::UnoLb { subflows: 8 }, 64),
            (LbMode::UnoLb { subflows: 10 }, 80),
        ] {
            assert_eq!(lb.reorder_tolerance(), tolerance, "{}", lb.name());
        }
    }

    #[test]
    fn ecmp_is_sticky() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::Ecmp, 14 * MICROS, &mut r);
        let e = lb.next_entropy(&mut r);
        for _ in 0..100 {
            assert_eq!(lb.next_entropy(&mut r), e);
        }
        lb.on_nack_or_timeout(MILLIS, &mut r);
        assert_eq!(lb.next_entropy(&mut r), e, "ECMP never re-routes");
        assert_eq!(lb.reroutes, 0);
    }

    #[test]
    fn spray_is_random_per_packet() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::Spray, 14 * MICROS, &mut r);
        let vals: std::collections::HashSet<u16> =
            (0..64).map(|_| lb.next_entropy(&mut r)).collect();
        assert!(vals.len() > 32, "spraying must vary: {}", vals.len());
    }

    #[test]
    fn unolb_round_robins_subflows() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::UnoLb { subflows: 4 }, 14 * MICROS, &mut r);
        let first: Vec<u16> = (0..4).map(|_| lb.next_entropy(&mut r)).collect();
        let second: Vec<u16> = (0..4).map(|_| lb.next_entropy(&mut r)).collect();
        assert_eq!(first, second, "round robin repeats the subflow set");
        assert_eq!(lb.subflow_count(), 4);
    }

    #[test]
    fn unolb_reroutes_least_recently_acked() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::UnoLb { subflows: 3 }, 14 * MICROS, &mut r);
        let es: Vec<u16> = (0..3).map(|_| lb.next_entropy(&mut r)).collect();
        // Subflows 1 and 2 receive ACKs; subflow 0 is silent (failed path).
        lb.on_ack(es[1], false, MILLIS, &mut r);
        lb.on_ack(es[2], false, MILLIS, &mut r);
        lb.on_nack_or_timeout(2 * MILLIS, &mut r);
        assert_eq!(lb.reroutes, 1);
        let new: Vec<u16> = (0..3).map(|_| lb.next_entropy(&mut r)).collect();
        assert_ne!(new[0], es[0], "silent subflow must be re-pathed");
        assert_eq!(new[1], es[1]);
        assert_eq!(new[2], es[2]);
    }

    #[test]
    fn unolb_reroute_rate_limited_to_one_per_rtt() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::UnoLb { subflows: 2 }, MILLIS, &mut r);
        lb.on_nack_or_timeout(2 * MILLIS, &mut r);
        lb.on_nack_or_timeout(2 * MILLIS + 10, &mut r); // within one RTT
        assert_eq!(lb.reroutes, 1);
        lb.on_nack_or_timeout(4 * MILLIS, &mut r);
        assert_eq!(lb.reroutes, 2);
    }

    #[test]
    fn plb_repaths_after_congested_rounds() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::Plb, 100 * MICROS, &mut r);
        let e0 = lb.next_entropy(&mut r);
        // Four rounds of fully marked ACKs (threshold is 3 rounds).
        let mut now = 0;
        for _ in 0..5 {
            now += 110 * MICROS;
            for _ in 0..10 {
                lb.on_ack(e0, true, now, &mut r);
            }
        }
        assert!(lb.reroutes >= 1, "PLB must repath under persistent ECN");
        assert_ne!(lb.next_entropy(&mut r), e0);
    }

    #[test]
    fn plb_stays_put_when_clean() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::Plb, 100 * MICROS, &mut r);
        let e0 = lb.next_entropy(&mut r);
        let mut now = 0;
        for _ in 0..10 {
            now += 110 * MICROS;
            for _ in 0..10 {
                lb.on_ack(e0, false, now, &mut r);
            }
        }
        assert_eq!(lb.reroutes, 0);
        assert_eq!(lb.next_entropy(&mut r), e0);
    }

    #[test]
    fn plb_repaths_on_timeout() {
        let mut r = rng();
        let mut lb = LoadBalancer::new(LbMode::Plb, 100 * MICROS, &mut r);
        let e0 = lb.next_entropy(&mut r);
        lb.on_nack_or_timeout(MILLIS, &mut r);
        assert_eq!(lb.reroutes, 1);
        assert_ne!(lb.next_entropy(&mut r), e0);
    }

    #[test]
    fn mode_names() {
        assert_eq!(LbMode::Ecmp.name(), "ECMP");
        assert_eq!(LbMode::Spray.name(), "RPS");
        assert_eq!(LbMode::Plb.name(), "PLB");
        assert_eq!(LbMode::UnoLb { subflows: 8 }.name(), "UnoLB");
    }
}
