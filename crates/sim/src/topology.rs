//! Network topology: k-ary fat-tree datacenters joined by border switches.
//!
//! The paper's evaluation topology (§5.1) is two 8-ary fat-trees — 16 core
//! switches and 8 pods of 4 aggregation + 4 edge switches each, 4 servers per
//! edge switch — connected through two border switches interconnected by
//! eight links, with every core switch connected to its datacenter's border
//! switch. All interconnects default to 100 Gbps and 1 MiB per-port buffers.
//! Beyond the paper's pair, the builder generalizes to N sites: every DC gets
//! one border switch and the borders form a full mesh with `border_links`
//! parallel links per site pair.
//!
//! Routing is structural up–down forwarding. At every ECMP fan-out point the
//! output port is chosen by hashing `(flow, entropy, switch-salt)`, so all
//! load-balancing schemes are expressed purely by how senders assign the
//! per-packet [`Packet::entropy`](crate::packet::Packet::entropy) field.
//!
//! Link and forwarding state live in the struct-of-arrays tables from
//! [`crate::tables`]: the builder wires ports into plain scratch `Vec`s and
//! interns them once at the end, so the finished topology is dense
//! id-indexed columns with no per-node allocations. The link columns are
//! allocated once, at the final link count, and each link names one of a
//! handful of interned [`LinkProfile`]s instead of repeating its class's
//! constants.

use serde::{Deserialize, Serialize};

use crate::engine::FlowClass;
use crate::ids::{LinkId, NodeId};
use crate::packet::Packet;
use crate::queue::{PhantomProfile, QueueProfile, RedParams};
use crate::tables::{FwdScratch, FwdTable, LinkProfile, LinkTable};
use crate::time::{Bps, Time, GBPS, MICROS, MILLIS};

/// Location of a host within the multi-DC fat-tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HostCoords {
    /// Datacenter index.
    pub dc: u8,
    /// Pod within the datacenter.
    pub pod: u16,
    /// Edge switch within the pod.
    pub edge: u16,
    /// Host index under the edge switch.
    pub idx: u16,
}

/// Role of a node in the topology. Switch variants carry their (dc, pod,
/// index) coordinates.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub enum NodeKind {
    /// End host (server).
    Host(HostCoords),
    /// Top-of-rack (edge) switch.
    Edge { dc: u8, pod: u16, idx: u16 },
    /// Aggregation switch.
    Agg { dc: u8, pod: u16, idx: u16 },
    /// Core switch.
    Core { dc: u8, idx: u16 },
    /// Datacenter border (WAN gateway) switch.
    Border { dc: u8 },
}

impl NodeKind {
    /// Datacenter this node belongs to.
    pub fn dc(&self) -> u8 {
        match *self {
            NodeKind::Host(c) => c.dc,
            NodeKind::Edge { dc, .. }
            | NodeKind::Agg { dc, .. }
            | NodeKind::Core { dc, .. }
            | NodeKind::Border { dc } => dc,
        }
    }

    /// True for end hosts.
    pub fn is_host(&self) -> bool {
        matches!(self, NodeKind::Host(_))
    }
}

/// A node (host or switch). Forwarding state lives in
/// [`Topology::fwd`], indexed by the node id.
#[derive(Clone, Debug)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Host / Edge / Agg / Core / Border.
    pub kind: NodeKind,
}

/// Classification of a link, used to assign delays, buffers and phantom
/// queue sizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum LinkClass {
    /// Host NIC ↔ edge switch.
    HostEdge,
    /// Edge ↔ aggregation.
    EdgeAgg,
    /// Aggregation ↔ core.
    AggCore,
    /// Core ↔ border.
    CoreBorder,
    /// Border ↔ border (the inter-DC WAN hop).
    BorderBorder,
}

/// Loss discipline of the switching fabric.
///
/// `Lossy` is the paper's RED/ECN drop-tail fabric and the default
/// everywhere. `Lossless` arms Priority Flow Control on every switch
/// egress port: when a port's occupancy crosses its XOFF threshold the
/// switch pauses all of its ingress (feeder) links until the port drains
/// back to XON, trading drops for head-of-line blocking, congestion
/// spreading, and — in the pathological cases the robustness detectors
/// watch for — PFC storms and cyclic-buffer-dependency deadlock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum FabricMode {
    /// RED/ECN drop-tail fabric (the default; PFC fully disabled).
    #[default]
    Lossy,
    /// PFC-armed fabric: XOFF/XON pause instead of tail drop.
    Lossless,
}

/// PFC pause thresholds, as fractions of each port's physical capacity.
///
/// XOFF must exceed XON; the gap is the hysteresis band that keeps a port
/// from toggling pause on every packet. Headroom above XOFF absorbs the
/// in-flight bytes that arrive between sending PAUSE and the feeders
/// actually stopping (one link delay per feeder).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PfcParams {
    /// Occupancy fraction at which a port asserts PAUSE upstream.
    pub xoff_frac: f64,
    /// Occupancy fraction at or below which the port releases PAUSE.
    pub xon_frac: f64,
}

impl Default for PfcParams {
    fn default() -> Self {
        PfcParams {
            xoff_frac: 0.5,
            xon_frac: 0.35,
        }
    }
}

impl PfcParams {
    /// Byte thresholds `(xoff, xon)` for a port of `capacity` bytes.
    pub fn thresholds(&self, capacity: u64) -> (u64, u64) {
        let xoff = ((capacity as f64 * self.xoff_frac) as u64).max(1);
        let xon = (capacity as f64 * self.xon_frac) as u64;
        (xoff, xon.min(xoff - 1))
    }
}

/// Phantom-queue configuration (paper §4.1.3 / Table 2).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PhantomParams {
    /// Drain rate as a fraction of line rate (paper default: 0.9).
    pub drain_factor: f64,
    /// Virtual capacity for intra-DC link classes, in bytes.
    pub capacity_intra: u64,
    /// Virtual capacity for WAN-facing link classes (core↔border and
    /// border↔border), sized to match the inter-DC BDP.
    pub capacity_wan: u64,
    /// RED thresholds applied to the virtual occupancy.
    pub red_min_frac: f64,
    /// See `red_min_frac`.
    pub red_max_frac: f64,
}

impl PhantomParams {
    /// Phantom queues sized for `p`'s network: virtual capacity tracks the
    /// BDP of the traffic class crossing the port (paper §4.1.3: "virtual
    /// queues with arbitrary sizes ... to match the high BDPs of the
    /// inter-DC connections"), drained at Table 2's 0.9 x line rate.
    pub fn for_topology(p: &TopologyParams) -> Self {
        // Marking must engage while the *physical* queue is still empty —
        // the phantom builds whenever arrival exceeds the 0.9x drain, so its
        // marking region starts below the physical RED minimum (25% of the
        // 1 MiB port buffer). Intra ports track a couple of intra BDPs; WAN
        // ports scale with the inter-DC BDP per §4.1.3.
        PhantomParams {
            drain_factor: 0.9,
            capacity_intra: (2 * p.intra_bdp()).clamp(64 << 10, 1 << 20),
            capacity_wan: (p.inter_bdp() / 8).max(1 << 20),
            red_min_frac: 0.25,
            red_max_frac: 0.75,
        }
    }
}

/// Host NIC queue capacity in bytes: effectively unbounded, it models host
/// memory. Run manifests still list it under the topology's
/// `host_queue_bytes`.
const HOST_QUEUE_BYTES: u64 = 8 << 30;

/// Topology construction parameters.
///
/// `Serialize` is hand-written (below) so that `Lossy`-mode parameter sets
/// — the default, and the mode every committed golden digest was generated
/// in — serialize byte-identically to the pre-PFC layout: the `fabric` and
/// `pfc` keys only appear when the fabric is lossless.
#[derive(Clone, Debug, Deserialize)]
pub struct TopologyParams {
    /// Fat-tree arity (must be even). k=8 reproduces the paper.
    pub k: usize,
    /// Number of datacenters (≥ 1). Two reproduces the paper; more sites
    /// get a full mesh of border interconnects.
    pub dcs: usize,
    /// Line rate of all intra-DC links.
    pub link_bps: Bps,
    /// Line rate of each border–border link.
    pub border_link_bps: Bps,
    /// Number of parallel border–border links per site pair (paper: 8).
    pub border_links: usize,
    /// Per-port physical buffering for intra-DC switch ports.
    pub queue_bytes: u64,
    /// Per-port physical buffering for border–border (WAN) ports.
    pub wan_queue_bytes: u64,
    /// RED ECN thresholds for physical queues.
    pub red: RedParams,
    /// Target intra-DC base RTT (propagation; paper: 14 µs).
    pub intra_rtt: Time,
    /// Target inter-DC base RTT (propagation; paper: 2 ms).
    pub inter_rtt: Time,
    /// Enable phantom queues on switch egress ports.
    pub phantom: Option<PhantomParams>,
    /// MTU used by transports on this network.
    pub mtu: u32,
    /// Loss discipline of the fabric (default: [`FabricMode::Lossy`]).
    #[serde(default)]
    pub fabric: FabricMode,
    /// PFC thresholds, applied to switch egress ports when
    /// [`TopologyParams::fabric`] is [`FabricMode::Lossless`].
    #[serde(default)]
    pub pfc: PfcParams,
}

impl Default for TopologyParams {
    fn default() -> Self {
        TopologyParams {
            k: 8,
            dcs: 2,
            link_bps: 100 * GBPS,
            border_link_bps: 100 * GBPS,
            border_links: 8,
            queue_bytes: 1 << 20,
            wan_queue_bytes: 1 << 20,
            red: RedParams::default(),
            intra_rtt: 14 * MICROS,
            inter_rtt: 2 * MILLIS,
            phantom: None,
            mtu: 4096,
            fabric: FabricMode::Lossy,
            pfc: PfcParams::default(),
        }
    }
}

impl Serialize for TopologyParams {
    // Hand-written so a Lossy (default) parameter set serializes exactly as
    // it did before PFC existed — run manifests embed this value, and the
    // golden-trace digests cover the manifest bytes.
    fn serialize_value(&self) -> serde::Value {
        let mut fields = vec![
            ("k".to_string(), self.k.serialize_value()),
            ("dcs".to_string(), self.dcs.serialize_value()),
            ("link_bps".to_string(), self.link_bps.serialize_value()),
            (
                "border_link_bps".to_string(),
                self.border_link_bps.serialize_value(),
            ),
            (
                "border_links".to_string(),
                self.border_links.serialize_value(),
            ),
            (
                "queue_bytes".to_string(),
                self.queue_bytes.serialize_value(),
            ),
            (
                "wan_queue_bytes".to_string(),
                self.wan_queue_bytes.serialize_value(),
            ),
            (
                "host_queue_bytes".to_string(),
                HOST_QUEUE_BYTES.serialize_value(),
            ),
            ("red".to_string(), self.red.serialize_value()),
            ("intra_rtt".to_string(), self.intra_rtt.serialize_value()),
            ("inter_rtt".to_string(), self.inter_rtt.serialize_value()),
            ("phantom".to_string(), self.phantom.serialize_value()),
            ("mtu".to_string(), self.mtu.serialize_value()),
        ];
        if self.fabric != FabricMode::Lossy {
            fields.push(("fabric".to_string(), self.fabric.serialize_value()));
            fields.push(("pfc".to_string(), self.pfc.serialize_value()));
        }
        serde::Value::Object(fields)
    }
}

impl TopologyParams {
    /// A scaled-down preset (k=4, 16 hosts/DC) for fast tests and quick
    /// experiment presets; keeps the paper's RTTs and buffer sizing rules.
    pub fn small() -> Self {
        TopologyParams {
            k: 4,
            border_links: 4,
            ..Default::default()
        }
    }

    /// A scaled-up preset (k=16, 1024 hosts/DC) for scale tests.
    pub fn k16() -> Self {
        TopologyParams {
            k: 16,
            ..Default::default()
        }
    }

    /// The largest preset (k=32, 8192 hosts/DC) for macro-scale runs.
    pub fn k32() -> Self {
        TopologyParams {
            k: 32,
            ..Default::default()
        }
    }

    /// An N-site preset: `dcs` fat-trees of arity `k`, borders in a full
    /// mesh with `border_links` parallel links per site pair.
    pub fn multi_dc(dcs: usize, k: usize, border_links: usize) -> Self {
        TopologyParams {
            k,
            dcs,
            border_links,
            ..Default::default()
        }
    }

    /// Switch to a PFC-armed lossless fabric (builder-style).
    pub fn lossless(mut self) -> Self {
        self.fabric = FabricMode::Lossless;
        self
    }

    /// Hosts per datacenter: k pods × k/2 edges × k/2 hosts.
    pub fn hosts_per_dc(&self) -> usize {
        self.k * self.k / 2 * self.k / 2
    }

    /// Intra-DC bandwidth-delay product in bytes.
    pub fn intra_bdp(&self) -> u64 {
        crate::time::bdp_bytes(self.link_bps, self.intra_rtt)
    }

    /// Inter-DC bandwidth-delay product in bytes.
    pub fn inter_bdp(&self) -> u64 {
        crate::time::bdp_bytes(self.border_link_bps, self.inter_rtt)
    }
}

/// The built network: nodes, links and forwarding state.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Construction parameters (kept for introspection).
    pub params: TopologyParams,
    /// All nodes; indices are `NodeId`s.
    pub nodes: Vec<Node>,
    /// All unidirectional links as dense id-indexed columns.
    pub links: LinkTable,
    /// Interned forwarding ports, indexed by node id.
    pub fwd: FwdTable,
    /// Hosts in (dc-major, pod, edge, idx) order.
    pub hosts: Vec<NodeId>,
    /// Border–border links in the lower→higher DC direction, pair-major
    /// (all of pair (0,1), then (0,2), (1,2), … for N sites).
    pub border_forward: Vec<LinkId>,
    /// Border–border links in the higher→lower DC direction, aligned with
    /// [`Topology::border_forward`].
    pub border_reverse: Vec<LinkId>,
}

/// Build-time state: the growing topology plus the forwarding scratch that
/// is interned into [`FwdTable`] when wiring completes.
struct Builder {
    topo: Topology,
    fwd: FwdScratch,
}

impl Topology {
    /// Build the fat-tree network described by `params` (any number of
    /// DCs ≥ 1).
    pub fn build(params: TopologyParams) -> Self {
        assert!(
            params.k >= 2 && params.k.is_multiple_of(2),
            "k must be even"
        );
        assert!(params.dcs >= 1, "at least one DC required");
        assert!(params.dcs <= u8::MAX as usize + 1, "dc index must fit u8");
        let k = params.k;
        let half = k / 2;
        let cores_per_dc = half * half;
        let dcs = params.dcs;

        // Per-class one-way propagation delays solving for the target RTTs.
        // Intra path (cross-pod): host-edge-agg-core-agg-edge-host = 6 links
        // one way -> 12 traversals per RTT.
        let d_intra = (params.intra_rtt / 12).max(1);
        // Inter path: 8 intra-class links + 1 border-border link one way.
        let d_border = if params.inter_rtt > 16 * d_intra {
            (params.inter_rtt - 16 * d_intra) / 2
        } else {
            params.inter_rtt / 2
        }
        .max(1);

        // Every host has one duplex link to its edge switch, every edge
        // one to each agg of its pod, every agg one to each of its k/2
        // cores, every core (with several DCs) one to its border, and each
        // site pair `border_links` between their borders.
        let hosts = dcs * params.hosts_per_dc();
        let fabric_links = 2 * k * half * half;
        let border_up = if dcs >= 2 { cores_per_dc } else { 0 };
        let mesh = dcs * (dcs - 1) / 2 * params.border_links;
        let num_links = 2 * (hosts + dcs * (fabric_links + border_up) + mesh);
        let num_nodes =
            hosts + dcs * (2 * k * half + cores_per_dc) + if dcs >= 2 { dcs } else { 0 };

        let mut b = Builder {
            topo: Topology {
                params: params.clone(),
                nodes: Vec::with_capacity(num_nodes),
                links: LinkTable::with_capacity(num_links),
                fwd: FwdTable::default(),
                hosts: Vec::with_capacity(hosts),
                border_forward: Vec::new(),
                border_reverse: Vec::new(),
            },
            fwd: FwdScratch::default(),
        };

        // Node layout per DC.
        let mut edge_ids = vec![Vec::new(); dcs]; // [dc][pod*half+e]
        let mut agg_ids = vec![Vec::new(); dcs];
        let mut core_ids = vec![Vec::new(); dcs];
        let mut border_ids = Vec::new();

        for dc in 0..dcs {
            for pod in 0..k {
                for e in 0..half {
                    let id = b.add_node(NodeKind::Edge {
                        dc: dc as u8,
                        pod: pod as u16,
                        idx: e as u16,
                    });
                    edge_ids[dc].push(id);
                    for h in 0..half {
                        let hid = b.add_node(NodeKind::Host(HostCoords {
                            dc: dc as u8,
                            pod: pod as u16,
                            edge: e as u16,
                            idx: h as u16,
                        }));
                        b.topo.hosts.push(hid);
                    }
                }
                for a in 0..half {
                    let id = b.add_node(NodeKind::Agg {
                        dc: dc as u8,
                        pod: pod as u16,
                        idx: a as u16,
                    });
                    agg_ids[dc].push(id);
                }
            }
            for c in 0..cores_per_dc {
                let id = b.add_node(NodeKind::Core {
                    dc: dc as u8,
                    idx: c as u16,
                });
                core_ids[dc].push(id);
            }
            if dcs >= 2 {
                border_ids.push(b.add_node(NodeKind::Border { dc: dc as u8 }));
            }
        }
        b.fwd = FwdScratch::new(b.topo.nodes.len(), dcs as u32);

        // Hosts are interleaved with edges above; rebuild the dc-major host
        // list in canonical order.
        let nodes = &b.topo.nodes;
        b.topo.hosts.sort_by_key(|&h| {
            let NodeKind::Host(c) = nodes[h.index()].kind else {
                unreachable!()
            };
            (c.dc, c.pod, c.edge, c.idx)
        });

        // Wiring.
        for dc in 0..dcs {
            for pod in 0..k {
                for e in 0..half {
                    let edge = edge_ids[dc][pod * half + e];
                    // Host links.
                    for h in 0..half {
                        let host = b.topo.host(dc as u8, ((pod * half + e) * half + h) as u32);
                        let (up_l, down_l) =
                            b.add_duplex(host, edge, params.link_bps, d_intra, LinkClass::HostEdge);
                        b.fwd.up[host.index()].push(up_l);
                        b.fwd.down[edge.index()].push(down_l);
                    }
                    // Edge -> every agg in pod.
                    for a in 0..half {
                        let agg = agg_ids[dc][pod * half + a];
                        let (up_l, down_l) =
                            b.add_duplex(edge, agg, params.link_bps, d_intra, LinkClass::EdgeAgg);
                        b.fwd.up[edge.index()].push(up_l);
                        b.fwd.down[agg.index()].push(down_l);
                    }
                }
                // Agg -> its k/2 cores.
                for a in 0..half {
                    let agg = agg_ids[dc][pod * half + a];
                    for i in 0..half {
                        let core = core_ids[dc][a * half + i];
                        let (up_l, down_l) =
                            b.add_duplex(agg, core, params.link_bps, d_intra, LinkClass::AggCore);
                        b.fwd.up[agg.index()].push(up_l);
                        // Core downlink to pod `pod` is through this agg.
                        let core_down = &mut b.fwd.down[core.index()];
                        debug_assert_eq!(core_down.len(), pod);
                        core_down.push(down_l);
                    }
                }
            }
            // Core -> border.
            if dcs >= 2 {
                let border = border_ids[dc];
                for &core in &core_ids[dc] {
                    let (up_l, down_l) = b.add_duplex(
                        core,
                        border,
                        params.link_bps,
                        d_intra,
                        LinkClass::CoreBorder,
                    );
                    b.fwd.border_port[core.index()] = Some(up_l);
                    b.fwd.down[border.index()].push(down_l);
                }
            }
        }
        // Border <-> border: a full mesh over site pairs in lexicographic
        // order, `border_links` parallel links per pair. For dcs == 2 the
        // single (0, 1) pair reproduces the paper's eight-link bundle.
        for lo in 0..dcs {
            for hi in lo + 1..dcs {
                let (b_lo, b_hi) = (border_ids[lo], border_ids[hi]);
                for _ in 0..params.border_links {
                    let (fwd_l, rev_l) = b.add_duplex(
                        b_lo,
                        b_hi,
                        params.border_link_bps,
                        d_border,
                        LinkClass::BorderBorder,
                    );
                    b.fwd.peers[lo * dcs + hi].push(fwd_l);
                    b.fwd.peers[hi * dcs + lo].push(rev_l);
                    b.topo.border_forward.push(fwd_l);
                    b.topo.border_reverse.push(rev_l);
                }
            }
        }
        let Builder { mut topo, fwd } = b;
        debug_assert_eq!(topo.links.len(), num_links);
        debug_assert_eq!(topo.nodes.len(), num_nodes);
        topo.fwd = FwdTable::intern(fwd);
        topo
    }

    /// Number of hosts across all DCs.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// The `i`-th host of datacenter `dc`.
    pub fn host(&self, dc: u8, i: u32) -> NodeId {
        let per_dc = self.params.hosts_per_dc() as u32;
        self.hosts[(dc as u32 * per_dc + i) as usize]
    }

    /// Coordinates of a host node.
    pub fn host_coords(&self, id: NodeId) -> HostCoords {
        match self.nodes[id.index()].kind {
            NodeKind::Host(c) => c,
            ref k => panic!("{id} is not a host: {k:?}"),
        }
    }

    /// True when `a` and `b` are in different datacenters.
    pub fn is_inter_dc(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[a.index()].kind.dc() != self.nodes[b.index()].kind.dc()
    }

    /// The class of a flow between hosts `a` and `b`.
    pub fn flow_class(&self, a: NodeId, b: NodeId) -> FlowClass {
        if self.is_inter_dc(a, b) {
            FlowClass::Inter
        } else {
            FlowClass::Intra
        }
    }

    /// The host's NIC uplink (where locally sourced packets are injected).
    pub fn host_uplink(&self, host: NodeId) -> LinkId {
        self.fwd.up(host)[0]
    }

    /// The edge→host link feeding `host` (the classic incast bottleneck).
    pub fn host_downlink(&self, host: NodeId) -> LinkId {
        let c = self.host_coords(host);
        let up = self.host_uplink(host);
        let edge = self.links.to(up);
        self.fwd.down(edge)[c.idx as usize]
    }

    /// Base propagation RTT between two hosts (excludes serialization).
    pub fn base_rtt(&self, a: NodeId, b: NodeId) -> Time {
        if self.is_inter_dc(a, b) {
            self.params.inter_rtt
        } else {
            self.params.intra_rtt
        }
    }

    /// Number of forwarding hops (links) between two hosts, one way, for the
    /// longest (core-traversing) path. Used for RTO/timer estimation.
    pub fn path_hops(&self, a: NodeId, b: NodeId) -> u32 {
        if self.is_inter_dc(a, b) {
            9
        } else {
            let ca = self.host_coords(a);
            let cb = self.host_coords(b);
            if ca.pod == cb.pod && ca.edge == cb.edge {
                2
            } else if ca.pod == cb.pod {
                4
            } else {
                6
            }
        }
    }

    /// Route `pkt` arriving at (or originating from) switch `node`:
    /// returns the egress link, or `None` for delivery (host reached).
    pub fn route(&self, node: NodeId, pkt: &Packet) -> Option<LinkId> {
        if node == pkt.dst {
            return None;
        }
        let d = self.host_coords(pkt.dst);
        let pick = |ports: &[LinkId]| -> LinkId {
            ports[ecmp_pick(pkt.flow.0, pkt.entropy, node.0 as u64, ports.len())]
        };
        match self.nodes[node.index()].kind {
            NodeKind::Host(_) => Some(self.fwd.up(node)[0]),
            NodeKind::Edge { dc, pod, idx } => {
                if d.dc == dc && d.pod == pod && d.edge == idx {
                    Some(self.fwd.down(node)[d.idx as usize])
                } else {
                    Some(pick(self.fwd.up(node)))
                }
            }
            NodeKind::Agg { dc, pod, .. } => {
                if d.dc == dc && d.pod == pod {
                    Some(self.fwd.down(node)[d.edge as usize])
                } else {
                    Some(pick(self.fwd.up(node)))
                }
            }
            NodeKind::Core { dc, .. } => {
                if d.dc == dc {
                    Some(self.fwd.down(node)[d.pod as usize])
                } else {
                    self.fwd.border_port(node)
                }
            }
            NodeKind::Border { dc } => {
                if d.dc != dc {
                    Some(pick(self.fwd.peers(dc as u32, d.dc as u32)))
                } else {
                    Some(pick(self.fwd.down(node)))
                }
            }
        }
    }

    /// Walk the path a packet with the given identity would take; for tests
    /// and diagnostics. Panics if the path exceeds 32 hops (routing loop).
    pub fn trace_path(&self, src: NodeId, dst: NodeId, flow: u32, entropy: u16) -> Vec<NodeId> {
        let mut pkt = Packet::data(crate::ids::FlowId(flow), 0, 0, dst);
        pkt.entropy = entropy;
        let mut at = src;
        let mut path = vec![at];
        while at != dst {
            let link = self
                .route(at, &pkt)
                .unwrap_or_else(|| panic!("no route from {at} to {dst}"));
            at = self.links.to(link);
            path.push(at);
            assert!(path.len() <= 32, "routing loop: {path:?}");
        }
        path
    }
}

impl Builder {
    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from(self.topo.nodes.len());
        self.topo.nodes.push(Node { id, kind });
        id
    }

    fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        bps: Bps,
        delay: Time,
        class: LinkClass,
    ) -> (LinkId, LinkId) {
        let l1 = self.add_link(a, b, bps, delay, class);
        let l2 = self.add_link(b, a, bps, delay, class);
        (l1, l2)
    }

    fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        bps: Bps,
        delay: Time,
        class: LinkClass,
    ) -> LinkId {
        let params = &self.topo.params;
        let from_is_host = self.topo.nodes[from.index()].kind.is_host();
        let capacity = if from_is_host {
            HOST_QUEUE_BYTES
        } else if class == LinkClass::BorderBorder {
            params.wan_queue_bytes
        } else {
            params.queue_bytes
        };
        let mut queue = QueueProfile::new(capacity, params.red);
        if let Some(ph) = &params.phantom {
            if !from_is_host {
                let cap = match class {
                    LinkClass::BorderBorder | LinkClass::CoreBorder => ph.capacity_wan,
                    _ => ph.capacity_intra,
                };
                queue = queue.with_phantom(PhantomProfile::new(
                    bps,
                    ph.drain_factor,
                    cap,
                    RedParams {
                        min_frac: ph.red_min_frac,
                        max_frac: ph.red_max_frac,
                    },
                ));
            }
        }
        // Lossless fabric: arm PFC on switch egress ports. Host NIC queues
        // model host memory (effectively unbounded) and never assert pause
        // themselves — but their uplinks *receive* pause like any feeder.
        if params.fabric == FabricMode::Lossless && !from_is_host {
            let (xoff, xon) = params.pfc.thresholds(capacity);
            queue = queue.with_pfc(xoff, xon);
        }
        let profile = LinkProfile { bps, delay, queue };
        let id = self.topo.links.push(from, to, class, profile);
        self.fwd.feeders[to.index()].push(id);
        id
    }
}

/// Deterministic ECMP hash: maps (flow, entropy, switch salt) to one of `n`
/// equal-cost ports. SplitMix64 finalizer for good avalanche.
#[inline]
pub fn ecmp_pick(flow: u32, entropy: u16, salt: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    let mut x =
        (flow as u64) << 32 ^ (entropy as u64) << 11 ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D049BB133111EB);
    x ^= x >> 31;
    (x % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> Topology {
        Topology::build(TopologyParams::small())
    }

    /// Find the directed link `from → to`, if wired.
    fn find_link(t: &Topology, from: NodeId, to: NodeId) -> Option<LinkId> {
        t.links
            .ids()
            .find(|&l| t.links.from(l) == from && t.links.to(l) == to)
    }

    #[test]
    fn paper_topology_counts() {
        let t = Topology::build(TopologyParams::default());
        // 128 hosts per DC.
        assert_eq!(t.num_hosts(), 256);
        // Per DC: 32 edge + 32 agg + 16 core; plus 2 borders.
        let switches = t.nodes.iter().filter(|n| !n.kind.is_host()).count();
        assert_eq!(switches, 2 * (32 + 32 + 16) + 2);
        assert_eq!(t.border_forward.len(), 8);
        // Every core has a border uplink.
        for n in &t.nodes {
            if let NodeKind::Core { .. } = n.kind {
                assert!(t.fwd.border_port(n.id).is_some());
                assert_eq!(t.fwd.down(n.id).len(), 8); // one downlink per pod
            }
        }
    }

    #[test]
    fn k4_counts() {
        let t = k4();
        assert_eq!(t.num_hosts(), 32);
        assert_eq!(t.border_forward.len(), 4);
    }

    #[test]
    fn intra_same_edge_route() {
        let t = k4();
        let a = t.host(0, 0);
        let b = t.host(0, 1);
        let path = t.trace_path(a, b, 1, 0);
        // host -> edge -> host.
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn intra_cross_pod_route_has_six_hops() {
        let t = k4();
        let a = t.host(0, 0);
        let b = t.host(0, t.params.hosts_per_dc() as u32 - 1);
        let path = t.trace_path(a, b, 1, 0);
        // host edge agg core agg edge host = 7 nodes.
        assert_eq!(path.len(), 7);
        assert_eq!(t.path_hops(a, b), 6);
    }

    #[test]
    fn inter_dc_route_crosses_borders() {
        let t = k4();
        let a = t.host(0, 3);
        let b = t.host(1, 5);
        let path = t.trace_path(a, b, 9, 3);
        // host edge agg core border border core agg edge host = 10 nodes.
        assert_eq!(path.len(), 10);
        let borders: usize = path
            .iter()
            .filter(|&&n| matches!(t.nodes[n.index()].kind, NodeKind::Border { .. }))
            .count();
        assert_eq!(borders, 2);
        assert!(t.is_inter_dc(a, b));
        assert_eq!(t.path_hops(a, b), 9);
    }

    #[test]
    fn ecmp_is_deterministic_and_diverse() {
        let t = k4();
        let a = t.host(0, 0);
        let b = t.host(1, 0);
        let p1 = t.trace_path(a, b, 7, 42);
        let p2 = t.trace_path(a, b, 7, 42);
        assert_eq!(p1, p2, "same identity, same path");
        // Different entropies must reach different paths reasonably often.
        let mut distinct = std::collections::HashSet::new();
        for e in 0..64u16 {
            distinct.insert(t.trace_path(a, b, 7, e));
        }
        assert!(distinct.len() > 8, "only {} distinct paths", distinct.len());
    }

    #[test]
    fn rtt_targets_are_honoured() {
        let t = k4();
        // Sum propagation delays along an intra cross-pod path, both ways.
        let a = t.host(0, 0);
        let b = t.host(0, t.params.hosts_per_dc() as u32 - 1);
        let path = t.trace_path(a, b, 1, 0);
        let mut one_way = 0;
        for w in path.windows(2) {
            one_way += t.links.delay(find_link(&t, w[0], w[1]).unwrap());
        }
        let rtt = 2 * one_way;
        let target = t.params.intra_rtt;
        assert!(
            (rtt as i64 - target as i64).unsigned_abs() <= target / 5,
            "rtt {rtt} target {target}"
        );
    }

    #[test]
    fn inter_rtt_target_is_honoured() {
        let t = k4();
        let a = t.host(0, 0);
        let b = t.host(1, 0);
        let path = t.trace_path(a, b, 1, 0);
        let mut one_way = 0;
        for w in path.windows(2) {
            one_way += t.links.delay(find_link(&t, w[0], w[1]).unwrap());
        }
        let rtt = 2 * one_way;
        let target = t.params.inter_rtt;
        assert!(
            (rtt as i64 - target as i64).unsigned_abs() <= target / 10,
            "rtt {rtt} target {target}"
        );
    }

    #[test]
    fn host_downlink_points_at_host() {
        let t = k4();
        for dc in 0..2 {
            for i in 0..4 {
                let h = t.host(dc, i);
                let l = t.host_downlink(h);
                assert_eq!(t.links.to(l), h);
            }
        }
    }

    #[test]
    fn wan_ports_use_wan_buffers() {
        let mut p = TopologyParams::small();
        p.wan_queue_bytes = 7 << 20;
        let t = Topology::build(p);
        for &l in &t.border_forward {
            assert_eq!(t.links.profile(l).queue.capacity, 7 << 20);
        }
        let up = t.host_uplink(t.host(0, 0));
        assert_eq!(t.links.profile(up).queue.capacity, 8 << 30);
    }

    #[test]
    fn phantom_attached_to_switch_ports_only() {
        let mut p = TopologyParams::small();
        let ph = PhantomParams::for_topology(&p);
        p.phantom = Some(ph);
        let t = Topology::build(p);
        let up = t.host_uplink(t.host(0, 0));
        assert!(t.links.profile(up).queue.phantom.is_none());
        let down = t.host_downlink(t.host(0, 0));
        let intra = t.links.profile(down).queue.phantom.unwrap();
        assert_eq!(intra.capacity, ph.capacity_intra);
        for &l in &t.border_forward {
            let wan = t.links.profile(l).queue.phantom.unwrap();
            assert_eq!(wan.capacity, ph.capacity_wan);
        }
    }

    #[test]
    fn phantom_sizing_tracks_each_class_bdp() {
        let ph = PhantomParams::for_topology(&TopologyParams::small());
        // Two intra BDPs (2 x 175,000 B) and an eighth of the inter BDP
        // (25,000,000 B / 8), drained at 0.9 x line rate.
        assert_eq!(ph.capacity_intra, 350_000);
        assert_eq!(ph.capacity_wan, 3_125_000);
        assert_eq!(ph.drain_factor, 0.9);
        assert_eq!((ph.red_min_frac, ph.red_max_frac), (0.25, 0.75));
    }

    #[test]
    fn single_dc_build() {
        let mut p = TopologyParams::small();
        p.dcs = 1;
        let t = Topology::build(p);
        assert_eq!(t.num_hosts(), 16);
        assert!(t.border_forward.is_empty());
    }

    #[test]
    fn multi_dc_full_mesh() {
        let t = Topology::build(TopologyParams::multi_dc(4, 4, 3));
        assert_eq!(t.num_hosts(), 4 * 16);
        let borders: Vec<NodeId> = t
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Border { .. }))
            .map(|n| n.id)
            .collect();
        assert_eq!(borders.len(), 4);
        // 6 unordered site pairs × 3 links each way.
        assert_eq!(t.border_forward.len(), 6 * 3);
        assert_eq!(t.border_reverse.len(), 6 * 3);
        // Each ordered pair has a 3-link peer group; self groups are empty.
        for a in 0..4u32 {
            for b in 0..4u32 {
                let n = t.fwd.peers(a, b).len();
                assert_eq!(n, if a == b { 0 } else { 3 }, "peers({a},{b})");
            }
        }
        // Routing between any DC pair crosses exactly the two endpoints'
        // border switches (one WAN hop, no transit site).
        for (a_dc, b_dc) in [(0u8, 3u8), (2, 1), (3, 2)] {
            let a = t.host(a_dc, 0);
            let b = t.host(b_dc, 7);
            let path = t.trace_path(a, b, 11, 4);
            assert_eq!(path.len(), 10, "{a_dc}->{b_dc}: {path:?}");
            let border_dcs: Vec<u8> = path
                .iter()
                .filter_map(|&n| match t.nodes[n.index()].kind {
                    NodeKind::Border { dc } => Some(dc),
                    _ => None,
                })
                .collect();
            assert_eq!(border_dcs, vec![a_dc, b_dc]);
        }
    }

    #[test]
    fn ecmp_pick_distribution_is_roughly_uniform() {
        let mut counts = [0usize; 8];
        for e in 0..8000u16 {
            counts[ecmp_pick(1, e, 99, 8)] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "skewed: {counts:?}");
        }
    }
}
