//! Randomized full-stack scenarios: topologies, workloads, fault schedules,
//! and the runner that executes them with every invariant armed.
//!
//! A [`Scenario`] is a small, fully deterministic description — everything
//! the run does derives from its fields, so a failing scenario *is* the
//! reproducer. Scenarios serialize to JSON (hand-rolled against the
//! in-tree `serde_json` value model) so shrunken counterexamples can be
//! committed as regression files and replayed forever.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use uno::{CcKind, Experiment, ExperimentConfig, SchemeSpec};
use uno_sim::{
    FabricMode, FaultEntry, FaultKind, FaultSpec, FaultTarget, GilbertElliott, LinkId, PfcParams,
    Time, MILLIS, SECONDS,
};
use uno_workloads::FlowSpec;

use crate::invariant::{ArmedChecker, Violation};
use crate::spec::{FlowNetInfo, NetSpec};

/// Scheme table scenarios index into (keeps the JSON form stable).
pub const SCHEME_NAMES: [&str; 4] = ["uno", "uno_ecmp", "gemini", "mprdma_bbr"];

/// Resolve a scenario's scheme index.
pub fn scheme_by_index(i: u8) -> SchemeSpec {
    match i % 4 {
        0 => SchemeSpec::uno(),
        1 => SchemeSpec::uno_ecmp(),
        2 => SchemeSpec::gemini(),
        _ => SchemeSpec::mprdma_bbr(),
    }
}

/// One flow of the scenario workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowDesc {
    /// Source datacenter (0 or 1).
    pub src_dc: u8,
    /// Source host index within its DC.
    pub src_idx: u32,
    /// Destination datacenter (0 or 1).
    pub dst_dc: u8,
    /// Destination host index within its DC.
    pub dst_idx: u32,
    /// Message size in bytes.
    pub size: u64,
    /// Start time (ns).
    pub start: Time,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Fail one border link at `at`, reviving it `up_after` later.
    LinkDown {
        /// Pick from the forward (DC0→DC1) border set, else the reverse.
        fwd: bool,
        /// Index into the border-link set (taken modulo its length).
        idx: u32,
        /// Failure time (ns).
        at: Time,
        /// Downtime duration (ns); the link always comes back so every
        /// scenario is eventually completable.
        up_after: Time,
    },
    /// Apply a uniform random-loss process to one link for a window.
    Loss {
        /// Raw link index (taken modulo the topology's link count).
        link: u32,
        /// Loss probability in permille (1–999).
        permille: u32,
        /// Window start (ns).
        from: Time,
        /// Window end (ns).
        until: Time,
    },
    /// Gray failure through the fault plane: one border link silently
    /// drops packets while still looking up.
    Gray {
        /// Forward (DC0→DC1) border set, else the reverse.
        fwd: bool,
        /// Index into the border-link set (taken modulo its length).
        idx: u32,
        /// Drop probability in permille (clamped to 1–999).
        permille: u32,
        /// Onset time (ns).
        at: Time,
        /// Healing time (ns); `0` means the fault is permanent.
        until: Time,
    },
    /// Asymmetric blackhole: one *reverse* border link goes down for good —
    /// data still crosses, ACKs on that path die. Always permanent, so the
    /// runner arms graceful degradation and expects definite outcomes.
    Asym {
        /// Index into the reverse border-link set (modulo its length).
        idx: u32,
        /// Onset time (ns).
        at: Time,
    },
    /// Markov up/down flapping of one border link.
    Flap {
        /// Forward (DC0→DC1) border set, else the reverse.
        fwd: bool,
        /// Index into the border-link set (taken modulo its length).
        idx: u32,
        /// Mean up-dwell (ns).
        mtbf: Time,
        /// Mean down-dwell (ns).
        mttr: Time,
        /// Onset time (ns).
        at: Time,
        /// Healing time (ns); `0` means the fault is permanent.
        until: Time,
    },
}

impl Fault {
    /// True when the fault is guaranteed to heal, so every flow it touches
    /// can still finish. Permanent faults flip the runner into
    /// graceful-degradation mode instead.
    pub fn heals(&self) -> bool {
        match *self {
            Fault::LinkDown { .. } | Fault::Loss { .. } => true,
            Fault::Gray { until, .. } | Fault::Flap { until, .. } => until > 0,
            Fault::Asym { .. } => false,
        }
    }
}

/// A complete, deterministic full-stack test case.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Simulator seed (also the generation seed).
    pub seed: u64,
    /// Index into [`SCHEME_NAMES`].
    pub scheme: u8,
    /// Per-port switch buffering in KiB (varies queue pressure).
    pub queue_kib: u32,
    /// Workload.
    pub flows: Vec<FlowDesc>,
    /// Fault schedule.
    pub faults: Vec<Fault>,
    /// Hard run horizon (ns).
    pub horizon: Time,
    /// Arm the test-only block-accounting off-by-one in the transport
    /// (used to prove the checkers catch a real protocol bug).
    pub inject_block_bug: bool,
    /// Run on a lossless (PFC-enabled) fabric instead of the default lossy
    /// one. Serialized only when set, so pre-PFC scenario files parse (and
    /// hash) unchanged.
    pub lossless: bool,
    /// PFC XOFF threshold in permille of each port's queue capacity
    /// (`0` keeps the topology default). Only meaningful with `lossless`.
    pub pfc_xoff_permille: u32,
}

/// What a checked scenario run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Invariant violations (plus a synthetic `completion` violation when
    /// flows missed the horizon).
    pub violations: Vec<Violation>,
    /// Violations beyond the retention cap.
    pub suppressed: u64,
    /// Trace events the suite observed.
    pub events_seen: u64,
    /// True when every flow completed before the horizon.
    pub completed: bool,
    /// Simulated end time (ns).
    pub sim_end: Time,
}

impl Outcome {
    /// True when the run broke any invariant (including completion).
    pub fn failed(&self) -> bool {
        !self.violations.is_empty() || self.suppressed > 0
    }
}

impl Scenario {
    /// Generate a scenario from a seed. `quick` keeps workloads small
    /// enough for CI smoke runs (hundreds of scenarios per minute).
    pub fn generate(seed: u64, quick: bool) -> Scenario {
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x0075_6e6f);
        let scheme = rng.gen_range(0..4u32) as u8;
        let queue_kib = [256u32, 512, 1024, 2048][rng.gen_range(0..4usize)];
        let max_pkts: u64 = if quick { 96 } else { 768 };
        let nflows = 1 + rng.gen_range(0..if quick { 5usize } else { 8 });
        let flows = (0..nflows)
            .map(|_| {
                let src_dc = rng.gen_range(0..2u32) as u8;
                let dst_dc = rng.gen_range(0..2u32) as u8;
                let src_idx = rng.gen_range(0..16u32);
                let mut dst_idx = rng.gen_range(0..16u32);
                if src_dc == dst_dc && dst_idx == src_idx {
                    dst_idx = (dst_idx + 1) % 16;
                }
                FlowDesc {
                    src_dc,
                    src_idx,
                    dst_dc,
                    dst_idx,
                    size: 4096 * (1 + rng.gen_range(0..max_pkts)),
                    start: rng.gen_range(0..2 * MILLIS),
                }
            })
            .collect();
        let nfaults = rng.gen_range(0..4usize);
        let faults = (0..nfaults)
            .map(|_| match rng.gen_range(0..10u32) {
                0..=2 => Fault::LinkDown {
                    fwd: rng.gen_bool(0.5),
                    idx: rng.gen_range(0..8u32),
                    at: rng.gen_range(0..4 * MILLIS),
                    up_after: MILLIS + rng.gen_range(0..40 * MILLIS),
                },
                3..=5 => {
                    let from = rng.gen_range(0..3 * MILLIS);
                    Fault::Loss {
                        link: rng.gen_range(0..4096u32),
                        permille: 1 + rng.gen_range(0..40u32),
                        from,
                        until: from + MILLIS + rng.gen_range(0..8 * MILLIS),
                    }
                }
                6 | 7 => {
                    let at = rng.gen_range(0..3 * MILLIS);
                    // One in four gray faults never heals: the stall
                    // watchdog, not recovery, must deliver the outcome.
                    let until = if rng.gen_bool(0.25) {
                        0
                    } else {
                        at + MILLIS + rng.gen_range(0..20 * MILLIS)
                    };
                    Fault::Gray {
                        fwd: rng.gen_bool(0.5),
                        idx: rng.gen_range(0..8u32),
                        permille: 1 + rng.gen_range(0..400u32),
                        at,
                        until,
                    }
                }
                8 => Fault::Asym {
                    idx: rng.gen_range(0..8u32),
                    at: rng.gen_range(0..3 * MILLIS),
                },
                _ => {
                    let at = rng.gen_range(0..3 * MILLIS);
                    let until = if rng.gen_bool(0.25) {
                        0
                    } else {
                        at + 2 * MILLIS + rng.gen_range(0..30 * MILLIS)
                    };
                    Fault::Flap {
                        fwd: rng.gen_bool(0.5),
                        idx: rng.gen_range(0..8u32),
                        mtbf: MILLIS / 2 + rng.gen_range(0..8 * MILLIS),
                        mttr: MILLIS / 2 + rng.gen_range(0..8 * MILLIS),
                        at,
                        until,
                    }
                }
            })
            .collect();
        Scenario {
            seed,
            scheme,
            queue_kib,
            flows,
            faults,
            horizon: 10 * SECONDS,
            inject_block_bug: false,
            lossless: false,
            pfc_xoff_permille: 0,
        }
    }

    /// Generate a lossless-fabric scenario: the same workload and fault
    /// machinery as [`Scenario::generate`], plus PFC arming with a
    /// seed-varied XOFF threshold — so the fuzzer explores PFC thresholds ×
    /// fault schedules × schemes.
    pub fn generate_lossless(seed: u64, quick: bool) -> Scenario {
        let mut sc = Scenario::generate(seed, quick);
        let mut rng =
            SmallRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x0070_6663);
        sc.lossless = true;
        sc.pfc_xoff_permille = [350, 500, 650][rng.gen_range(0..3usize)];
        sc
    }

    // -- JSON encoding (hand-rolled over the in-tree Value model) ----------

    /// Encode as a JSON value tree.
    pub fn to_value(&self) -> Value {
        let flows = self
            .flows
            .iter()
            .map(|f| {
                obj(vec![
                    ("src_dc", Value::U64(f.src_dc as u64)),
                    ("src_idx", Value::U64(f.src_idx as u64)),
                    ("dst_dc", Value::U64(f.dst_dc as u64)),
                    ("dst_idx", Value::U64(f.dst_idx as u64)),
                    ("size", Value::U64(f.size)),
                    ("start", Value::U64(f.start)),
                ])
            })
            .collect();
        let faults = self
            .faults
            .iter()
            .map(|f| match *f {
                Fault::LinkDown {
                    fwd,
                    idx,
                    at,
                    up_after,
                } => obj(vec![
                    ("kind", Value::Str("link_down".to_string())),
                    ("fwd", Value::Bool(fwd)),
                    ("idx", Value::U64(idx as u64)),
                    ("at", Value::U64(at)),
                    ("up_after", Value::U64(up_after)),
                ]),
                Fault::Loss {
                    link,
                    permille,
                    from,
                    until,
                } => obj(vec![
                    ("kind", Value::Str("loss".to_string())),
                    ("link", Value::U64(link as u64)),
                    ("permille", Value::U64(permille as u64)),
                    ("from", Value::U64(from)),
                    ("until", Value::U64(until)),
                ]),
                Fault::Gray {
                    fwd,
                    idx,
                    permille,
                    at,
                    until,
                } => obj(vec![
                    ("kind", Value::Str("gray".to_string())),
                    ("fwd", Value::Bool(fwd)),
                    ("idx", Value::U64(idx as u64)),
                    ("permille", Value::U64(permille as u64)),
                    ("at", Value::U64(at)),
                    ("until", Value::U64(until)),
                ]),
                Fault::Asym { idx, at } => obj(vec![
                    ("kind", Value::Str("asym".to_string())),
                    ("idx", Value::U64(idx as u64)),
                    ("at", Value::U64(at)),
                ]),
                Fault::Flap {
                    fwd,
                    idx,
                    mtbf,
                    mttr,
                    at,
                    until,
                } => obj(vec![
                    ("kind", Value::Str("flap".to_string())),
                    ("fwd", Value::Bool(fwd)),
                    ("idx", Value::U64(idx as u64)),
                    ("mtbf", Value::U64(mtbf)),
                    ("mttr", Value::U64(mttr)),
                    ("at", Value::U64(at)),
                    ("until", Value::U64(until)),
                ]),
            })
            .collect();
        let mut fields = vec![
            ("seed", Value::U64(self.seed)),
            ("scheme", Value::U64(self.scheme as u64)),
            (
                "scheme_name",
                Value::Str(SCHEME_NAMES[(self.scheme % 4) as usize].to_string()),
            ),
            ("queue_kib", Value::U64(self.queue_kib as u64)),
            ("horizon", Value::U64(self.horizon)),
            ("inject_block_bug", Value::Bool(self.inject_block_bug)),
        ];
        // Lossless knobs appear only when armed: lossy scenario JSON (the
        // whole pre-PFC corpus) round-trips byte-identically.
        if self.lossless {
            fields.push(("lossless", Value::Bool(true)));
            fields.push((
                "pfc_xoff_permille",
                Value::U64(self.pfc_xoff_permille as u64),
            ));
        }
        fields.push(("flows", Value::Array(flows)));
        fields.push(("faults", Value::Array(faults)));
        obj(fields)
    }

    /// Canonical single-line JSON (hashing, logging).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("scenario serialization")
    }

    /// Pretty JSON for repro/regression files.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_value()).expect("scenario serialization")
    }

    /// Decode from a JSON value tree.
    pub fn from_value(v: &Value) -> Result<Scenario, String> {
        let flows = arr(v, "flows")?
            .iter()
            .map(|f| {
                Ok(FlowDesc {
                    src_dc: num(f, "src_dc")? as u8,
                    src_idx: num(f, "src_idx")? as u32,
                    dst_dc: num(f, "dst_dc")? as u8,
                    dst_idx: num(f, "dst_idx")? as u32,
                    size: num(f, "size")?,
                    start: num(f, "start")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let faults = arr(v, "faults")?
            .iter()
            .map(|f| {
                let kind = f
                    .get("kind")
                    .and_then(|k| k.as_str())
                    .ok_or("fault missing kind")?;
                match kind {
                    "link_down" => Ok(Fault::LinkDown {
                        fwd: boolean(f, "fwd")?,
                        idx: num(f, "idx")? as u32,
                        at: num(f, "at")?,
                        up_after: num(f, "up_after")?,
                    }),
                    "loss" => Ok(Fault::Loss {
                        link: num(f, "link")? as u32,
                        permille: num(f, "permille")? as u32,
                        from: num(f, "from")?,
                        until: num(f, "until")?,
                    }),
                    "gray" => Ok(Fault::Gray {
                        fwd: boolean(f, "fwd")?,
                        idx: num(f, "idx")? as u32,
                        permille: num(f, "permille")? as u32,
                        at: num(f, "at")?,
                        until: num(f, "until")?,
                    }),
                    "asym" => Ok(Fault::Asym {
                        idx: num(f, "idx")? as u32,
                        at: num(f, "at")?,
                    }),
                    "flap" => Ok(Fault::Flap {
                        fwd: boolean(f, "fwd")?,
                        idx: num(f, "idx")? as u32,
                        mtbf: num(f, "mtbf")?,
                        mttr: num(f, "mttr")?,
                        at: num(f, "at")?,
                        until: num(f, "until")?,
                    }),
                    other => Err(format!("unknown fault kind `{other}`")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Scenario {
            seed: num(v, "seed")?,
            scheme: num(v, "scheme")? as u8,
            queue_kib: num(v, "queue_kib")? as u32,
            flows,
            faults,
            horizon: num(v, "horizon")?,
            inject_block_bug: boolean(v, "inject_block_bug")?,
            // Absent in pre-PFC files: default lossy.
            lossless: matches!(v.get("lossless"), Some(Value::Bool(true))),
            pfc_xoff_permille: v
                .get("pfc_xoff_permille")
                .and_then(|x| x.as_f64())
                .map_or(0, |f| f as u32),
        })
    }

    /// Decode from JSON text.
    pub fn from_json(s: &str) -> Result<Scenario, String> {
        let v = serde_json::parse_value(s).map_err(|e| e.to_string())?;
        Scenario::from_value(&v)
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: &Value, key: &str) -> Result<u64, String> {
    let f = v
        .get(key)
        .and_then(|x| x.as_f64())
        .ok_or_else(|| format!("missing numeric field `{key}`"))?;
    if f < 0.0 || f.fract() != 0.0 {
        return Err(format!("field `{key}` is not a non-negative integer: {f}"));
    }
    Ok(f as u64)
}

fn boolean(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing boolean field `{key}`")),
    }
}

fn arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(|x| x.as_array())
        .ok_or_else(|| format!("missing array field `{key}`"))
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// Build the experiment a scenario describes — config, topology, and the
/// normalised workload — without arming any tracer. Both the invariant
/// runner ([`run_scenario`]) and the golden-trace runner
/// ([`run_scenario_traced`]) start from this, so they execute the exact
/// same construction.
fn prepare_scenario(sc: &Scenario) -> (Experiment, Vec<FlowSpec>, bool) {
    let scheme = scheme_by_index(sc.scheme);
    let mut cfg = ExperimentConfig::quick(scheme, sc.seed);
    cfg.topo.queue_bytes = (sc.queue_kib.max(64) as u64) << 10;
    cfg.faults.block_accounting_off_by_one = sc.inject_block_bug;
    if sc.lossless {
        cfg.topo.fabric = FabricMode::Lossless;
        if sc.pfc_xoff_permille > 0 {
            let xoff = (sc.pfc_xoff_permille.clamp(50, 950) as f64) / 1000.0;
            cfg.topo.pfc = PfcParams {
                xoff_frac: xoff,
                xon_frac: 0.7 * xoff,
            };
        }
    }
    // A fault that never heals can starve a flow forever; arm the stall
    // watchdog and bounded retries so every flow still reaches a definite
    // outcome, and hold the run to that (weaker) expectation instead of
    // full completion. Healing-only scenarios keep the legacy contract.
    let permanent = sc.faults.iter().any(|f| !f.heals());
    if permanent {
        cfg.degrade = true;
    }
    let mut e = Experiment::new(cfg);

    // Normalise workload addressing against the actual topology and add
    // the flows.
    let per_dc = e.sim.topo.params.hosts_per_dc() as u32;
    let specs: Vec<FlowSpec> = sc
        .flows
        .iter()
        .map(|f| {
            let src_dc = f.src_dc % 2;
            let dst_dc = f.dst_dc % 2;
            let src_idx = f.src_idx % per_dc;
            let mut dst_idx = f.dst_idx % per_dc;
            if src_dc == dst_dc && dst_idx == src_idx {
                dst_idx = (dst_idx + 1) % per_dc;
            }
            FlowSpec {
                src_dc,
                src_idx,
                dst_dc,
                dst_idx,
                size: f.size.max(1),
                start: f.start,
            }
        })
        .collect();
    for s in &specs {
        e.add_spec(s);
    }
    (e, specs, permanent)
}

/// Execute a scenario on the full stack with the standard invariant suite
/// armed. Fault application is virtual-time driven (the run is stepped to
/// each loss-window boundary), so identical scenarios give identical
/// outcomes.
pub fn run_scenario(sc: &Scenario) -> Outcome {
    let scheme = scheme_by_index(sc.scheme);
    let (mut e, specs, permanent) = prepare_scenario(sc);

    // Build the invariant spec from the realised topology and flow table.
    let net_spec = {
        let topo = &e.sim.topo;
        let queue_capacity: Vec<u64> = topo
            .links
            .ids()
            .map(|l| topo.links.profile(l).queue.capacity)
            .collect();
        let flows = specs
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let src = topo.host(f.src_dc, f.src_idx);
                let dst = topo.host(f.dst_dc, f.dst_idx);
                let inter = f.src_dc != f.dst_dc;
                // `base_rtt` is the nominal worst-case class RTT (the CC's
                // configuration input); the *floor* for measured samples is
                // the actual shortest path: per-link intra delay is
                // intra_rtt/12 (topology builder), same-rack paths cross
                // only 2 links each way. Inter paths always traverse the
                // full 9-hop route, so their floor is the class RTT itself.
                let base_rtt = topo.base_rtt(src, dst);
                let d_intra = (topo.params.intra_rtt / 12).max(1);
                let rtt_floor = if inter {
                    base_rtt
                } else {
                    2 * topo.path_hops(src, dst) as u64 * d_intra
                };
                let mtu = topo.params.mtu;
                let bdp = topo.params.link_bps as f64 / 8.0 * (base_rtt as f64 / 1e9);
                // Window-clamped controllers stay within 2xBDP; BBR has no
                // hard clamp (cwnd tracks its own bandwidth estimate), so
                // its ceiling is a sanity multiple, not a tight bound.
                let bbr = inter && matches!(scheme.cc, CcKind::MprdmaBbr);
                let cwnd_max = if bbr {
                    8.0 * bdp + 64.0 * mtu as f64
                } else {
                    2.0 * bdp + 16.0 * mtu as f64
                };
                FlowNetInfo {
                    id: i as u32,
                    size: f.size,
                    mtu,
                    ec: scheme
                        .ec_for(inter)
                        .map(|p| (p.data as u32, p.parity as u32)),
                    rtt_floor,
                    cwnd_max,
                }
            })
            .collect();
        NetSpec {
            queue_capacity,
            flows,
            liveness_grace: SECONDS / 2,
            max_nacks_per_block: 8,
            require_outcome: permanent,
            stall_horizon: 3 * SECONDS,
            // PFC detectors are always armed; on a lossy fabric they see no
            // pause events and stay silent. Storm threshold: >90% pause
            // duty over any 10ms window is spreading, not flow control.
            pfc_storm_window: 10 * MILLIS,
            pfc_storm_duty: 0.9,
            pause_grace: SECONDS,
        }
    };
    let armed = ArmedChecker::new(net_spec);
    e.sim.set_tracer(armed.tracer());

    drive_scenario(&mut e, sc);

    let sim_end = e.sim.now();
    let completed = e.sim.num_completed() == specs.len();
    let report = armed.finish(sim_end);
    let mut violations = report.violations;
    if permanent {
        // Some flows may legitimately never finish; graceful degradation
        // must still give every one a definite outcome.
        let terminated = e.sim.num_terminated();
        if terminated != specs.len() {
            violations.push(Violation {
                invariant: "completion",
                t: sim_end,
                flow: None,
                link: None,
                detail: format!(
                    "{}/{} flows reached a definite outcome ({} completed, {} \
                     failed) despite the armed watchdog: a permanent fault \
                     must stall or abort flows, never wedge them",
                    terminated,
                    specs.len(),
                    e.sim.num_completed(),
                    e.sim.failures.len()
                ),
            });
        }
    } else if !completed {
        violations.push(Violation {
            invariant: "completion",
            t: sim_end,
            flow: None,
            link: None,
            detail: format!(
                "{}/{} flows completed by the horizon (all faults heal, so \
                 every flow must finish)",
                e.sim.num_completed(),
                specs.len()
            ),
        });
    }
    Outcome {
        violations,
        suppressed: report.suppressed,
        events_seen: report.events_seen,
        completed,
        sim_end,
    }
}

/// What [`run_scenario_traced`] produced, alongside whatever the caller's
/// tracer captured: the byte-stable per-run tables the golden-trace suite
/// digests.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// Simulated end time (ns).
    pub sim_end: Time,
    /// Flows that completed successfully.
    pub completed: usize,
    /// Flows that reached any definite outcome.
    pub terminated: usize,
    /// Canonical JSON of the final counter snapshot (sorted keys).
    pub counters: String,
    /// One stable text line per completion record, in completion order.
    pub fcts: Vec<String>,
}

/// Execute a scenario with a caller-supplied tracer (typically a JSONL
/// sink) instead of the invariant suite. Construction and fault driving are
/// shared with [`run_scenario`], so for a given scenario the two runners
/// execute the same simulation event-for-event — this is what lets the
/// golden-trace differential tests pin the engine's behaviour to committed
/// digests.
pub fn run_scenario_traced(sc: &Scenario, tracer: uno_sim::Tracer) -> TracedRun {
    let (mut e, specs, _) = prepare_scenario(sc);
    e.sim.set_tracer(tracer);
    drive_scenario(&mut e, sc);
    let fcts = e
        .sim
        .fcts
        .iter()
        .map(|r| {
            format!(
                "flow={} size={} start={} end={} class={:?}",
                r.flow.0, r.size, r.start, r.end, r.class
            )
        })
        .collect();
    let terminated = e.sim.num_terminated();
    debug_assert!(terminated <= specs.len());
    TracedRun {
        sim_end: e.sim.now(),
        completed: e.sim.num_completed(),
        terminated,
        counters: e.sim.counter_snapshot().to_json(),
        fcts,
    }
}

/// Schedule a scenario's faults and drive the simulation to its horizon.
/// Must be called after the tracer is armed so the trace sees every event.
fn drive_scenario(e: &mut Experiment, sc: &Scenario) {
    let nlinks = e.sim.topo.links.len() as u32;
    let border_fwd = e.sim.topo.border_forward.clone();
    let border_rev = e.sim.topo.border_reverse.clone();

    // Schedule link failures up front; loss windows need live edits to the
    // loss process, so collect their boundaries and step through them.
    // Gray/asym/flap faults go through the fault plane, which drives its
    // own transitions off the event queue.
    let mut loss_edges: Vec<(Time, u32, Option<u32>)> = Vec::new();
    let mut plane: Vec<FaultEntry> = Vec::new();
    let border_target = |fwd: bool, idx: u32| -> Option<FaultTarget> {
        let set = if fwd { &border_fwd } else { &border_rev };
        if set.is_empty() {
            return None;
        }
        let idx = idx as usize % set.len();
        Some(if fwd {
            FaultTarget::BorderForward { idx }
        } else {
            FaultTarget::BorderReverse { idx }
        })
    };
    // `until == 0` encodes permanence; any other value is clamped past the
    // onset so the entry always passes fault-plane validation.
    let heal = |at: Time, until: Time| -> Option<Time> { (until > 0).then_some(until.max(at + 1)) };
    for f in &sc.faults {
        match *f {
            Fault::LinkDown {
                fwd,
                idx,
                at,
                up_after,
            } => {
                let set = if fwd { &border_fwd } else { &border_rev };
                if set.is_empty() {
                    continue;
                }
                let link = set[idx as usize % set.len()];
                e.sim.schedule_link_down(link, at);
                e.sim.schedule_link_up(link, at + up_after.max(1));
            }
            Fault::Loss {
                link,
                permille,
                from,
                until,
            } => {
                let l = link % nlinks;
                loss_edges.push((from, l, Some(permille.clamp(1, 999))));
                loss_edges.push((until.max(from + 1), l, None));
            }
            Fault::Gray {
                fwd,
                idx,
                permille,
                at,
                until,
            } => {
                if let Some(target) = border_target(fwd, idx) {
                    plane.push(FaultEntry {
                        target,
                        kind: FaultKind::GrayLoss {
                            p: permille.clamp(1, 999) as f64 / 1000.0,
                        },
                        at,
                        until: heal(at, until),
                    });
                }
            }
            Fault::Asym { idx, at } => {
                if let Some(target) = border_target(false, idx) {
                    plane.push(FaultEntry {
                        target,
                        kind: FaultKind::Down,
                        at,
                        until: None,
                    });
                }
            }
            Fault::Flap {
                fwd,
                idx,
                mtbf,
                mttr,
                at,
                until,
            } => {
                if let Some(target) = border_target(fwd, idx) {
                    plane.push(FaultEntry {
                        target,
                        kind: FaultKind::Flapping {
                            mtbf: mtbf.max(1),
                            mttr: mttr.max(1),
                        },
                        at,
                        until: heal(at, until),
                    });
                }
            }
        }
    }
    if !plane.is_empty() {
        e.sim
            .install_faults(&FaultSpec { faults: plane })
            .expect("scenario fault plane resolves against its own topology");
    }
    loss_edges.sort_by_key(|&(t, l, on)| (t, l, on.is_none()));
    for (t, l, edge) in loss_edges {
        e.sim.run_until(t.min(sc.horizon));
        match edge {
            Some(pm) => e
                .sim
                .set_link_loss(LinkId(l), GilbertElliott::uniform(pm as f64 / 1000.0)),
            None => e.sim.topo.links.set_loss(LinkId(l), None),
        }
    }
    e.sim.run_until(sc.horizon);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_varied() {
        let a = Scenario::generate(42, true);
        let b = Scenario::generate(42, true);
        assert_eq!(a, b);
        let c = Scenario::generate(43, true);
        assert_ne!(a, c);
        assert!(!a.flows.is_empty());
    }

    #[test]
    fn json_round_trip_is_lossless() {
        for seed in 0..20 {
            let sc = Scenario::generate(seed, true);
            let back = Scenario::from_json(&sc.to_json()).unwrap();
            assert_eq!(sc, back, "seed {seed}");
            let back2 = Scenario::from_json(&sc.to_json_pretty()).unwrap();
            assert_eq!(sc, back2, "seed {seed} (pretty)");
        }
    }

    #[test]
    fn new_fault_kinds_round_trip_and_classify() {
        let sc = Scenario {
            seed: 3,
            scheme: 0,
            queue_kib: 512,
            flows: vec![FlowDesc {
                src_dc: 0,
                src_idx: 0,
                dst_dc: 1,
                dst_idx: 1,
                size: 8 * 4096,
                start: 0,
            }],
            faults: vec![
                Fault::Gray {
                    fwd: true,
                    idx: 0,
                    permille: 50,
                    at: 0,
                    until: 5 * MILLIS,
                },
                Fault::Asym { idx: 1, at: MILLIS },
                Fault::Flap {
                    fwd: false,
                    idx: 2,
                    mtbf: MILLIS,
                    mttr: MILLIS,
                    at: 0,
                    until: 0,
                },
            ],
            horizon: 10 * SECONDS,
            inject_block_bug: false,
            lossless: false,
            pfc_xoff_permille: 0,
        };
        let back = Scenario::from_json(&sc.to_json_pretty()).unwrap();
        assert_eq!(sc, back);
        assert!(sc.faults[0].heals());
        assert!(!sc.faults[1].heals()); // asym is always permanent
        assert!(!sc.faults[2].heals()); // until == 0 means permanent
    }

    #[test]
    fn permanent_blackhole_scenario_degrades_gracefully() {
        // Every reverse border link blackholed: the inter-DC flow can never
        // see an ACK, so only graceful degradation keeps this scenario
        // clean — and the run must end well before the horizon.
        let sc = Scenario {
            seed: 7,
            scheme: 0,
            queue_kib: 512,
            flows: vec![
                FlowDesc {
                    src_dc: 0,
                    src_idx: 0,
                    dst_dc: 1,
                    dst_idx: 1,
                    size: 64 * 4096,
                    start: 0,
                },
                FlowDesc {
                    src_dc: 0,
                    src_idx: 2,
                    dst_dc: 0,
                    dst_idx: 3,
                    size: 16 * 4096,
                    start: 0,
                },
            ],
            faults: (0..8).map(|idx| Fault::Asym { idx, at: MILLIS }).collect(),
            horizon: 10 * SECONDS,
            inject_block_bug: false,
            lossless: false,
            pfc_xoff_permille: 0,
        };
        let out = run_scenario(&sc);
        assert!(
            !out.failed(),
            "first violation: {:?} (of {})",
            out.violations.first(),
            out.violations.len()
        );
        assert!(!out.completed, "the blackholed inter flow cannot complete");
        assert!(out.sim_end < sc.horizon, "the stalled flow wedged the run");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Scenario::from_json("{}").is_err());
        assert!(Scenario::from_json("not json").is_err());
        let sc = Scenario::generate(1, true);
        let bad = sc.to_json().replace("\"seed\"", "\"sneed\"");
        assert!(Scenario::from_json(&bad).is_err());
    }
}
