//! FaultPlane: deterministic, seeded fault injection for links and switches.
//!
//! The simulator's only built-in failure primitive is a clean, scheduled,
//! unidirectional link kill. Real deployments fail grayer than that: silent
//! partial loss, degraded capacity, one-direction blackholes that eat ACKs,
//! and flapping governed by MTBF/MTTR processes. The fault plane owns that
//! vocabulary. A declarative [`FaultSpec`] (JSON via serde) names *what*
//! fails ([`FaultTarget`]), *how* ([`FaultKind`]) and *when* (`at`/`until`);
//! [`crate::Simulator::install_faults`] resolves it against the topology and
//! drives every transition through the ordinary event queue, so fault
//! schedules are exactly as deterministic as the rest of the simulation —
//! the same seed yields byte-identical traces.
//!
//! Each transition emits a [`uno_trace::TraceEvent::FaultTransition`] and
//! bumps the `fault.*` counters, so `uno-inspect summarize` and the testkit
//! invariants can see fault activity without knowing the schedule.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ids::LinkId;
use crate::time::Time;
use crate::topology::Topology;

/// What a fault does to each affected link while active.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultKind {
    /// Hard failure: the link goes down; queued and in-flight packets are
    /// lost (and counted against the link).
    Down,
    /// Gray failure: each arriving packet is silently dropped with
    /// probability `p`. The link otherwise looks healthy.
    GrayLoss {
        /// Per-packet drop probability in `(0, 1]`.
        p: f64,
    },
    /// Degraded capacity: the line rate is scaled by `factor`.
    Degraded {
        /// Remaining fraction of line rate, in `(0, 1]`.
        factor: f64,
    },
    /// Added one-way latency plus uniform jitter.
    Delay {
        /// Fixed extra propagation delay (ns).
        extra: Time,
        /// Additional uniform jitter in `[0, jitter]` ns per packet.
        jitter: Time,
    },
    /// Markov up/down flapping: the link alternates between up and down
    /// with exponentially distributed dwell times.
    Flapping {
        /// Mean time between failures (mean up-dwell, ns).
        mtbf: Time,
        /// Mean time to repair (mean down-dwell, ns).
        mttr: Time,
    },
}

/// Which links a fault applies to. Directed targets make *asymmetric*
/// faults first-class: failing only the reverse direction of a path gives
/// the classic gray failure where data flows but ACKs/NACKs die.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FaultTarget {
    /// One directed link by raw link id.
    Link {
        /// Raw link id.
        id: u32,
    },
    /// Both directions of the duplex pair containing raw link `id`.
    Duplex {
        /// Raw link id of either direction.
        id: u32,
    },
    /// The `idx`-th border link, forward (dc0→dc1) direction only.
    BorderForward {
        /// Border-link index.
        idx: usize,
    },
    /// The `idx`-th border link, reverse (dc1→dc0) direction only — the
    /// ACK-eating direction for dc0→dc1 flows.
    BorderReverse {
        /// Border-link index.
        idx: usize,
    },
    /// Both directions of the `idx`-th border link pair.
    Border {
        /// Border-link index.
        idx: usize,
    },
    /// Every link attached to node `node`, both directions (switch-level
    /// failure).
    Switch {
        /// Raw node id.
        node: u32,
    },
}

/// One scheduled fault: a target, a kind, and an activity window.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEntry {
    /// Which links are affected.
    pub target: FaultTarget,
    /// What happens to them.
    pub kind: FaultKind,
    /// Onset time (ns).
    #[serde(default)]
    pub at: Time,
    /// Healing time (ns); `None` means the fault is permanent.
    #[serde(default)]
    pub until: Option<Time>,
}

/// A declarative fault schedule. This is the serde shape behind
/// `uno-scenario --faults <spec.json>` and the experiment drivers'
/// fault-variant flags.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<FaultEntry>,
}

impl FaultSpec {
    /// A spec with no faults.
    pub fn empty() -> Self {
        FaultSpec::default()
    }

    /// Parse a spec from its JSON form.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The spec's pretty-printed JSON form.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("FaultSpec serializes")
    }

    /// Validate every entry's parameters (probabilities in range, positive
    /// dwell times, windows ordered).
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            let bad = |msg: String| Err(format!("fault {i}: {msg}"));
            match f.kind {
                FaultKind::GrayLoss { p } => {
                    if !(p > 0.0 && p <= 1.0) {
                        return bad(format!("gray_loss p must be in (0, 1], got {p}"));
                    }
                }
                FaultKind::Degraded { factor } => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        return bad(format!("degraded factor must be in (0, 1], got {factor}"));
                    }
                }
                FaultKind::Flapping { mtbf, mttr } => {
                    if mtbf == 0 || mttr == 0 {
                        return bad("flapping mtbf and mttr must be positive".to_string());
                    }
                }
                FaultKind::Down | FaultKind::Delay { .. } => {}
            }
            if let Some(until) = f.until {
                if until <= f.at {
                    return bad(format!("until ({until}) must follow at ({})", f.at));
                }
            }
        }
        Ok(())
    }
}

/// Per-link dynamic fault state consulted by the engine's hot paths. The
/// default value means "healthy". Only links with an active fault (or a
/// loss process) keep one, in the link table's side table of impaired
/// links, so the engine pays for faults on those links alone.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkHealth {
    /// Probability an arriving packet is silently dropped (0 = none).
    pub gray_loss: f64,
    /// Fraction of line rate available (1 = full).
    pub capacity_factor: f64,
    /// Fixed extra one-way delay (ns).
    pub extra_delay: Time,
    /// Uniform per-packet jitter bound (ns).
    pub jitter: Time,
}

impl Default for LinkHealth {
    fn default() -> Self {
        LinkHealth {
            gray_loss: 0.0,
            capacity_factor: 1.0,
            extra_delay: 0,
            jitter: 0,
        }
    }
}

impl LinkHealth {
    /// True when no gray fault is active on the link.
    pub fn is_healthy(&self) -> bool {
        *self == LinkHealth::default()
    }
}

/// A fault resolved against a concrete topology: the links it touches plus
/// its live flapping state.
#[derive(Clone, Debug)]
pub struct ResolvedFault {
    /// Concrete links the fault applies to.
    pub links: Vec<LinkId>,
    /// What happens to them.
    pub kind: FaultKind,
    /// Onset time.
    pub at: Time,
    /// Healing time (`None` = permanent).
    pub until: Option<Time>,
    /// True between onset and healing (gates stale flap events).
    pub active: bool,
    /// Flapping only: current Markov state (true = links up).
    pub flap_up: bool,
}

/// The installed fault plane: resolved faults plus transition counters.
#[derive(Clone, Debug, Default)]
pub struct FaultPlane {
    /// Resolved faults, indexed by the id carried in fault events.
    pub entries: Vec<ResolvedFault>,
    /// Fault-plane transitions applied (per affected link).
    pub transitions: u64,
    /// Of [`FaultPlane::transitions`], transitions that took a link down.
    pub downs: u64,
}

impl FaultPlane {
    /// True when no faults are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resolve `spec` against `topo`, validating targets. The result's
    /// entries keep the spec's order.
    pub fn resolve(spec: &FaultSpec, topo: &Topology) -> Result<Self, String> {
        spec.validate()?;
        let mut entries = Vec::with_capacity(spec.faults.len());
        for (i, f) in spec.faults.iter().enumerate() {
            let links = resolve_target(f.target, topo).map_err(|e| format!("fault {i}: {e}"))?;
            entries.push(ResolvedFault {
                links,
                kind: f.kind,
                at: f.at,
                until: f.until,
                active: false,
                flap_up: true,
            });
        }
        Ok(FaultPlane {
            entries,
            transitions: 0,
            downs: 0,
        })
    }
}

fn resolve_target(target: FaultTarget, topo: &Topology) -> Result<Vec<LinkId>, String> {
    let n_links = topo.links.len();
    let check = |id: usize| -> Result<LinkId, String> {
        if id < n_links {
            Ok(LinkId::from(id))
        } else {
            Err(format!("link id {id} out of range ({n_links} links)"))
        }
    };
    let border = |idx: usize, list: &[LinkId], dir: &str| -> Result<LinkId, String> {
        list.get(idx).copied().ok_or_else(|| {
            format!(
                "border index {idx} out of range ({} {dir} border links)",
                list.len()
            )
        })
    };
    Ok(match target {
        FaultTarget::Link { id } => vec![check(id as usize)?],
        FaultTarget::Duplex { id } => {
            // Duplex pairs are created back-to-back, so the partner of a
            // link id is its xor-1 sibling.
            vec![check(id as usize)?, check(id as usize ^ 1)?]
        }
        FaultTarget::BorderForward { idx } => {
            vec![border(idx, &topo.border_forward, "forward")?]
        }
        FaultTarget::BorderReverse { idx } => {
            vec![border(idx, &topo.border_reverse, "reverse")?]
        }
        FaultTarget::Border { idx } => vec![
            border(idx, &topo.border_forward, "forward")?,
            border(idx, &topo.border_reverse, "reverse")?,
        ],
        FaultTarget::Switch { node } => {
            if node as usize >= topo.nodes.len() {
                return Err(format!(
                    "node id {node} out of range ({} nodes)",
                    topo.nodes.len()
                ));
            }
            let n = crate::ids::NodeId::from(node as usize);
            let links: Vec<LinkId> = topo
                .links
                .ids()
                .filter(|&l| topo.links.from(l) == n || topo.links.to(l) == n)
                .collect();
            if links.is_empty() {
                return Err(format!("node {node} has no attached links"));
            }
            links
        }
    })
}

/// Exponentially distributed dwell time with the given mean, drawn from the
/// deterministic simulation RNG. Clamped to at least 1 ns so flap schedules
/// always make forward progress.
pub fn exp_dwell(rng: &mut SmallRng, mean: Time) -> Time {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    ((-(u.ln()) * mean as f64) as Time).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyParams;
    use rand::SeedableRng;

    fn k4() -> Topology {
        Topology::build(TopologyParams::small())
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = FaultSpec {
            faults: vec![
                FaultEntry {
                    target: FaultTarget::BorderReverse { idx: 0 },
                    kind: FaultKind::Down,
                    at: 1_000_000,
                    until: None,
                },
                FaultEntry {
                    target: FaultTarget::Border { idx: 1 },
                    kind: FaultKind::GrayLoss { p: 0.05 },
                    at: 0,
                    until: Some(5_000_000),
                },
                FaultEntry {
                    target: FaultTarget::Switch { node: 3 },
                    kind: FaultKind::Flapping {
                        mtbf: 2_000_000,
                        mttr: 500_000,
                    },
                    at: 100,
                    until: Some(10_000_000),
                },
            ],
        };
        let json = spec.to_json_pretty();
        let back = FaultSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut spec = FaultSpec {
            faults: vec![FaultEntry {
                target: FaultTarget::Link { id: 0 },
                kind: FaultKind::GrayLoss { p: 1.5 },
                at: 0,
                until: None,
            }],
        };
        assert!(spec.validate().is_err());
        spec.faults[0].kind = FaultKind::Degraded { factor: 0.0 };
        assert!(spec.validate().is_err());
        spec.faults[0].kind = FaultKind::Flapping { mtbf: 0, mttr: 1 };
        assert!(spec.validate().is_err());
        spec.faults[0].kind = FaultKind::Down;
        spec.faults[0].at = 10;
        spec.faults[0].until = Some(5);
        assert!(spec.validate().is_err());
        spec.faults[0].until = Some(20);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn targets_resolve_against_topology() {
        let topo = k4();
        let one = |t| resolve_target(t, &topo).unwrap();
        assert_eq!(
            one(FaultTarget::BorderForward { idx: 0 }),
            vec![topo.border_forward[0]]
        );
        assert_eq!(
            one(FaultTarget::Border { idx: 1 }),
            vec![topo.border_forward[1], topo.border_reverse[1]]
        );
        let dup = one(FaultTarget::Duplex {
            id: topo.border_forward[0].0,
        });
        assert!(dup.contains(&topo.border_forward[0]));
        assert_eq!(dup.len(), 2);
        // The duplex partner really is the opposite direction.
        let (a, b) = (dup[0], dup[1]);
        assert_eq!(
            (topo.links.from(a), topo.links.to(a)),
            (topo.links.to(b), topo.links.from(b))
        );

        // A switch target covers every attached link, both directions.
        let border_node = topo.links.from(topo.border_forward[0]);
        let sw = one(FaultTarget::Switch {
            node: border_node.0,
        });
        for &l in &sw {
            assert!(topo.links.from(l) == border_node || topo.links.to(l) == border_node);
        }
        // k=4: 4 core uplinks each way + 4 border links each way.
        assert_eq!(sw.len(), 2 * 4 + 2 * 4);

        assert!(resolve_target(FaultTarget::Link { id: 1 << 20 }, &topo).is_err());
        assert!(resolve_target(FaultTarget::BorderReverse { idx: 99 }, &topo).is_err());
        assert!(resolve_target(FaultTarget::Switch { node: 1 << 20 }, &topo).is_err());
    }

    #[test]
    fn exp_dwell_is_deterministic_and_positive() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        let mut sum = 0u64;
        for _ in 0..100 {
            let d = exp_dwell(&mut a, 1_000_000);
            assert_eq!(d, exp_dwell(&mut b, 1_000_000));
            assert!(d >= 1);
            sum += d;
        }
        // Mean of 100 draws should be within a factor of 3 of the target.
        let mean = sum / 100;
        assert!(
            (333_333..3_000_000).contains(&mean),
            "implausible mean dwell {mean}"
        );
    }
}
