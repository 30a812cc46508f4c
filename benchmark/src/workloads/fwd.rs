//! `fwd_plain` and `fwd_telemetry`: packets over BFS-routed core paths,
//! hop-major, every hop through `forward_instrumented`.
//!
//! The packet set mirrors the repo's forwarding experiment — including its
//! adversarial sliver of tampered MACs, pre-expired hop fields and failed
//! mid-path links — but with empty payloads: at the smallest packet size
//! per-packet cost is all there is.

use std::collections::{BTreeMap, VecDeque};

use crate::adapter::{
    forward_instrumented, ids, sample_pairs, AsIndex, AsTopology, Duration, EndToEndPath,
    ForwardAction, IfId, Label, Packet, SimTime, Telemetry, TelemetryConfig, TraceEvent, World,
};
use crate::span::Spans;
use crate::workloads::{scale, Digest, Workload};

/// Internet size (see `beacon::NUM_ASES`).
pub const NUM_ASES: usize = 3_500;
/// Core ASes routed over; 40 gives paths of two to four hops.
pub const NUM_CORE: usize = 40;
/// Ordered source–destination pairs that carry traffic, chosen by the seed.
pub const PAIRS: usize = 400;
/// Packets stamped onto each path.
pub const PACKETS_PER_PATH: usize = 20;
/// Passes over the packet set per rep: the plain path is about five times
/// faster per packet, so it makes five passes to fill a rep.
pub const PLAIN_PASSES: usize = 5;

const TAMPER_EVERY: usize = 17;
const EXPIRE_EVERY: usize = 23;
/// The adversarial sliver: digest field and the drop reason it counts.
const SLIVER: [(&str, &str); 3] = [
    ("drop_bad_mac", "bad_mac"),
    ("drop_expired", "expired"),
    ("drop_link_down", "link_down"),
];
/// Share of the paths that cross a failed link, as `(numerator, denominator)`.
const FAILED_PATH_SHARE: (usize, usize) = (1, 25);

/// Protocol outcome of one pass over the packet set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Packets that reached their destination AS.
    pub delivered: u64,
    /// Inter-domain links traversed.
    pub link_hops: u64,
    /// Border-router hop operations executed.
    pub hop_ops: u64,
    /// Drops by stable reason code, in first-seen order.
    pub drops: Vec<(&'static str, u64)>,
}

impl Outcome {
    fn drop_one(&mut self, reason: &'static str) {
        self.drop_many(reason, 1);
    }

    fn drop_many(&mut self, reason: &'static str, n: u64) {
        match self.drops.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, total)) => *total += n,
            None => self.drops.push((reason, n)),
        }
    }

    /// Adds another pass's counts to these.
    fn absorb(&mut self, other: &Outcome) {
        self.delivered += other.delivered;
        self.link_hops += other.link_hops;
        self.hop_ops += other.hop_ops;
        for &(reason, n) in &other.drops {
            self.drop_many(reason, n);
        }
    }

    /// Drops with the given reason.
    pub fn dropped_for(&self, reason: &str) -> u64 {
        self.drops
            .iter()
            .find(|(r, _)| *r == reason)
            .map_or(0, |&(_, n)| n)
    }

    /// All drops.
    pub fn dropped(&self) -> u64 {
        self.drops.iter().map(|&(_, n)| n).sum()
    }
}

/// A forwarding workload with its packets stamped.
pub struct Fwd {
    recording: bool,
    /// The derived topologies; packets travel over `world.core`.
    pub world: World,
    /// The packet set, cursors anywhere; [`Fwd::pass`] rewinds them.
    pub packets: Vec<Packet>,
    sources: Vec<AsIndex>,
    failed_links: Vec<bool>,
    /// Virtual time of every hop operation.
    pub now: SimTime,
    /// The long-lived handle the reps forward through: disabled for
    /// `fwd_plain`, recording for `fwd_telemetry`. A recording handle is not
    /// reset between reps — counters keep counting, the trace ring wraps —
    /// as on a router that has been up for a while; replacing it would also
    /// make every rep fault in tens of megabytes of fresh ring.
    pub tel: Telemetry,
    // Wave buffers, reused across passes.
    positions: Vec<(AsIndex, IfId)>,
    live: Vec<u32>,
    next_live: Vec<u32>,
    results: Vec<Result<ForwardAction, &'static str>>,
}

/// BFS shortest path with the topology's real interface ids. Neighbour
/// expansion follows the stable `incident` order, so the path is a pure
/// function of the topology.
fn shortest_path(topo: &AsTopology, src: AsIndex, dst: AsIndex) -> Option<EndToEndPath> {
    // prev[v] = (predecessor, its egress ifid, v's ingress ifid)
    let mut prev: Vec<Option<(AsIndex, IfId, IfId)>> = vec![None; topo.num_ases()];
    let mut queue = VecDeque::from([src]);
    'search: while let Some(u) = queue.pop_front() {
        for (_, v, local_if, remote_if) in topo.incident(u) {
            if v != src && prev[v.as_usize()].is_none() {
                prev[v.as_usize()] = Some((u, local_if, remote_if));
                if v == dst {
                    break 'search;
                }
                queue.push_back(v);
            }
        }
    }
    let mut hops = Vec::new();
    let (mut cur, mut egress) = (dst, IfId::NONE);
    while cur != src {
        let (pred, pred_egress, ingress) = prev[cur.as_usize()]?;
        hops.push((topo.node(cur).ia, ingress, egress));
        (cur, egress) = (pred, pred_egress);
    }
    hops.push((topo.node(src).ia, IfId::NONE, egress));
    hops.reverse();
    Some(EndToEndPath { hops })
}

impl Fwd {
    /// Builds the world, routes the sampled pairs and stamps the packets.
    pub fn build(recording: bool, seed: u64) -> Fwd {
        let params = scale(NUM_ASES, NUM_CORE, 3);
        let world = World::build(params);
        let topo = &world.core;
        // Route every pair the (not fully connected) core can route, in the
        // seed's shuffled order, then keep PAIRS of them with each path
        // length represented in proportion. The seed picks which pairs send;
        // hops per packet, and with it the work per rep, stay put.
        let routed: Vec<EndToEndPath> = sample_pairs(topo, usize::MAX, seed)
            .into_iter()
            .filter_map(|(src, dst)| shortest_path(topo, src, dst))
            .collect();
        let mut class_size: BTreeMap<usize, usize> = BTreeMap::new();
        for p in &routed {
            *class_size.entry(p.hops.len()).or_default() += 1;
        }
        let mut quota: BTreeMap<usize, usize> = class_size
            .iter()
            .map(|(&len, &n)| (len, n * PAIRS / routed.len()))
            .collect();
        let (&commonest, _) = class_size
            .iter()
            .max_by_key(|&(&len, &n)| (n, len))
            .expect("the core routes some pair");
        *quota.get_mut(&commonest).expect("a class") += PAIRS - quota.values().sum::<usize>();
        let paths: Vec<EndToEndPath> = routed
            .into_iter()
            .filter(|p| {
                let left = quota.get_mut(&p.hops.len()).expect("a class");
                let take = *left > 0;
                *left -= usize::from(take);
                take
            })
            .collect();
        assert_eq!(
            paths.len(),
            PAIRS,
            "the core routes fewer than {PAIRS} pairs"
        );

        // Fail the least-loaded links until FAILED_PATH_SHARE of the paths
        // cross a failed one. The core is hub-shaped: failing the mid-path
        // link of every n-th path, as the forwarding experiment does, takes
        // out between a tenth and a third of all traffic depending on the
        // seed, and this is meant to be a steady sliver.
        let path_links: Vec<Vec<usize>> = paths
            .iter()
            .map(|path| {
                let egress_hops = &path.hops[..path.hops.len() - 1];
                egress_hops
                    .iter()
                    .map(|&(ia, _, egress)| {
                        let idx = topo.by_address(ia).expect("path AS exists");
                        let li = topo.link_by_interface(idx, egress);
                        li.expect("BFS walked a real link").as_usize()
                    })
                    .collect()
            })
            .collect();
        let mut load = vec![0usize; topo.num_links()];
        for &li in path_links.iter().flatten() {
            load[li] += 1;
        }
        let mut by_load: Vec<usize> = (0..load.len()).filter(|&li| load[li] > 0).collect();
        by_load.sort_by_key(|&li| (load[li], li));
        let mut failed_links = vec![false; topo.num_links()];
        let crosses_failed = |failed: &[bool]| {
            path_links
                .iter()
                .filter(|p| p.iter().any(|&li| failed[li]))
                .count()
        };
        for li in by_load {
            if crosses_failed(&failed_links) * FAILED_PATH_SHARE.1 >= PAIRS * FAILED_PATH_SHARE.0 {
                break;
            }
            failed_links[li] = true;
        }

        let now = SimTime::ZERO + Duration::from_secs(1);
        let expiry = SimTime::ZERO + params.pcb_lifetime;
        let n = paths.len() * PACKETS_PER_PATH;
        let mut packets = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(n);
        for i in 0..n {
            let path = &paths[i % paths.len()];
            let exp = if i % EXPIRE_EVERY == 0 { now } else { expiry };
            let mut pkt = Packet::along(path, exp, 0);
            if i % TAMPER_EVERY == 0 {
                // Rewriting the egress interface invalidates the MAC.
                let mid = pkt.path.hops.len() / 2;
                pkt.path.hops[mid].1.egress = IfId(0x7E57);
            }
            sources.push(topo.by_address(pkt.source).expect("source AS exists"));
            packets.push(pkt);
        }

        Fwd {
            recording,
            world,
            packets,
            sources,
            failed_links,
            now,
            tel: if recording {
                Telemetry::new(TelemetryConfig::default())
            } else {
                Telemetry::disabled()
            },
            positions: Vec::with_capacity(n),
            live: Vec::with_capacity(n),
            next_live: Vec::with_capacity(n),
            results: Vec::with_capacity(n),
        }
    }

    fn passes(&self) -> usize {
        if self.recording {
            1
        } else {
            PLAIN_PASSES
        }
    }

    /// Sends every packet from its source to delivery or drop, in hop-major
    /// waves: wave *k* processes hop *k* of every packet still in flight.
    pub fn pass(&mut self, tel: &mut Telemetry, spans: &mut Spans) -> Outcome {
        let topo = &self.world.core;
        let now = self.now;
        let mut out = Outcome::default();
        self.positions.clear();
        self.positions
            .extend(self.sources.iter().map(|&s| (s, IfId::NONE)));
        self.live.clear();
        self.live.extend(0..self.packets.len() as u32);
        for p in &mut self.packets {
            p.path.current = 0;
        }

        while !self.live.is_empty() {
            out.hop_ops += self.live.len() as u64;

            let span = spans.enter("dataplane.forward_wave");
            self.results.clear();
            for &i in &self.live {
                let (cur, arrival_if) = self.positions[i as usize];
                let r = forward_instrumented(
                    &mut self.packets[i as usize],
                    topo.node(cur).ia,
                    cur.0,
                    arrival_if,
                    now,
                    None,
                    tel,
                );
                self.results.push(r.map_err(|e| e.reason()));
            }
            spans.exit(span);

            // The network between routers: move survivors across their
            // egress link, drop at failed links. Mirrors the forwarding
            // experiment, telemetry emissions included.
            let span = spans.enter("bench.link_wave");
            self.next_live.clear();
            for (&i, result) in self.live.iter().zip(&self.results) {
                let (cur, _) = self.positions[i as usize];
                let node = cur.0;
                match *result {
                    Ok(ForwardAction::Deliver) => out.delivered += 1,
                    Ok(ForwardAction::Egress(egress)) => {
                        let Some(li) = topo.link_by_interface(cur, egress) else {
                            tel.trace_event(now, || TraceEvent::PacketDropped {
                                node,
                                reason: "no_interface",
                            });
                            tel.inc(ids::FWD_DROPPED, Label::As(node), 1);
                            tel.inc(ids::FWD_DROP_NO_INTERFACE, Label::Global, 1);
                            out.drop_one("no_interface");
                            continue;
                        };
                        if self.failed_links[li.as_usize()] {
                            tel.trace_event(now, || TraceEvent::ScmpEmitted {
                                node,
                                interface: egress.0,
                                kind: "external_interface_down",
                            });
                            tel.inc(ids::FWD_SCMP_SENT, Label::As(node), 1);
                            tel.trace_event(now, || TraceEvent::PacketDropped {
                                node,
                                reason: "link_down",
                            });
                            tel.inc(ids::FWD_DROPPED, Label::As(node), 1);
                            tel.inc(ids::FWD_DROP_LINK_DOWN, Label::Global, 1);
                            out.drop_one("link_down");
                            continue;
                        }
                        let (next, _, remote_if) = topo.link(li).opposite(cur);
                        self.positions[i as usize] = (next, remote_if);
                        self.next_live.push(i);
                        out.link_hops += 1;
                    }
                    Err(reason) => out.drop_one(reason),
                }
            }
            std::mem::swap(&mut self.live, &mut self.next_live);
            spans.exit(span);
        }
        out
    }

    fn digest(&self, total: &Outcome, passes: usize) -> Digest {
        let mut fields = vec![
            ("delivered", total.delivered),
            ("dropped", total.dropped()),
            ("link_hops", total.link_hops),
            ("hop_ops", total.hop_ops),
        ];
        let sliver = SLIVER.map(|(field, reason)| (field, total.dropped_for(reason)));
        let other = total.dropped() - sliver.iter().map(|&(_, n)| n).sum::<u64>();
        fields.extend(sliver);
        fields.push(("drop_other", other));
        Digest {
            ops: (self.packets.len() * passes) as u64,
            fields,
        }
    }
}

impl Workload for Fwd {
    fn run(&mut self, spans: &mut Spans) -> Digest {
        let mut tel = std::mem::take(&mut self.tel);
        let mut total = Outcome::default();
        for _ in 0..self.passes() {
            total.absorb(&self.pass(&mut tel, spans));
        }
        self.tel = tel;
        self.digest(&total, self.passes())
    }

    fn verify(&mut self) -> Result<(), String> {
        let plain = self.pass(&mut Telemetry::disabled(), &mut Spans::disabled());
        let sent = self.packets.len() as u64;
        if plain.delivered + plain.dropped() != sent {
            return Err(format!(
                "sent {sent} packets, delivered {} + dropped {}",
                plain.delivered,
                plain.dropped()
            ));
        }
        for (_, reason) in SLIVER {
            if plain.dropped_for(reason) == 0 {
                return Err(format!("the adversarial sliver produced no {reason} drop"));
            }
        }
        if self.recording {
            let mut tel = Telemetry::new(TelemetryConfig::default());
            let recorded = self.pass(&mut tel, &mut Spans::disabled());
            if recorded != plain {
                return Err("recording handle changed the forwarding outcome".into());
            }
            let counted: u64 = tel
                .metrics
                .counters()
                .filter(|&(id, _, _)| id == ids::FWD_DELIVERED)
                .map(|(_, _, n)| n)
                .sum();
            if counted != recorded.delivered {
                return Err(format!(
                    "telemetry counted {counted} deliveries, the outcome has {}",
                    recorded.delivered
                ));
            }
        }
        Ok(())
    }
}
