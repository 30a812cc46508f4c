//! The beacon server: receives beacons, stores them, and runs the
//! configured path construction algorithm every interval (paper §2.2:
//! "The beaconing process in each AS is performed by its beacon server …
//! The beacon server decides which PCBs to propagate on which interfaces
//! based on AS-local policies").

use std::collections::HashMap;

use scion_crypto::trc::TrustStore;
use scion_proto::hopfield::HopField;
use scion_proto::pcb::{forwarding_key, Extender, Pcb, PcbError, PeerEntry};
use scion_telemetry::{ids, phase, Label, Telemetry, TraceEvent};
use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::{Duration, IfId, IsdAsn, SimTime};

use crate::baseline::BaselineAlgorithm;
use crate::config::{Algorithm, BeaconingConfig};
use crate::diversity::DiversityAlgorithm;
use crate::store::{BeaconStore, EvictedBeacon, StoredBeacon};

/// One candidate egress: the link, its local interface id, and the
/// neighbor on the far side.
#[derive(Clone, Copy, Debug)]
pub struct EgressRef {
    pub link: LinkIndex,
    pub local_if: IfId,
    pub neighbor: AsIndex,
    pub neighbor_ia: IsdAsn,
}

/// What a selection algorithm decided to send (before extension/signing).
#[derive(Clone, Debug)]
pub(crate) enum PickSource<'a> {
    /// Originate a fresh zero-hop beacon.
    Originate,
    /// Extend this stored beacon.
    Stored(&'a StoredBeacon),
}

#[derive(Clone, Debug)]
pub(crate) struct Pick<'a> {
    pub source: PickSource<'a>,
    pub egress: EgressRef,
}

/// Read-only context handed to selection algorithms.
pub(crate) struct SelectionCtx<'a> {
    pub topo: &'a AsTopology,
    pub me_ia: IsdAsn,
    pub egress_links: &'a [EgressRef],
    pub dissemination_limit: usize,
    pub originate: bool,
    pub pcb_lifetime: Duration,
}

/// A fully-built outgoing beacon, ready for the simulation to deliver.
#[derive(Clone, Debug)]
pub struct Propagation {
    pub pcb: Pcb,
    pub egress_link: LinkIndex,
    pub egress_if: IfId,
    pub to: AsIndex,
    /// Wire size of the message, for traffic accounting.
    pub bytes: u64,
}

/// Why an incoming beacon was dropped instead of stored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The local AS already appears on the path (loop).
    Loop,
    /// Validation failed.
    Invalid(PcbError),
}

/// Everything a caller needs to account for one accepted beacon *after*
/// the fact: store effects, delivery-histogram observations, and the
/// verification wall-clock.
///
/// This is the shard-phase output of the driver — the expensive work
/// (signature verification, store admission) runs on a worker thread, and
/// the serial merge step replays counters and traces from this record in
/// deterministic event order.
#[derive(Clone, Debug)]
pub struct BeaconOutcome {
    /// The store changed (new path or fresher instance).
    pub changed: bool,
    /// An entry was evicted to make room.
    pub evicted: Option<EvictedBeacon>,
    /// Origin AS of the handled beacon.
    pub origin: IsdAsn,
    /// Hop count of the handled beacon.
    pub hops: u32,
    /// Beacon age at delivery, seconds of virtual time.
    pub age_secs: f64,
    /// Wall-clock nanoseconds spent verifying (0 when verification was
    /// skipped or not timed). Wall-clock feeds only the profiler, which is
    /// exempt from the determinism guarantee.
    pub verify_ns: u64,
}

/// Why one outgoing send of an interval exists — the trace/counter info
/// the driver needs, separated from the [`Propagation`] itself so the
/// driver's merge can replay telemetry deterministically.
#[derive(Clone, Copy, Debug)]
pub enum SendKind {
    /// A fresh origination with this sequence number.
    Originated {
        /// Origination sequence number.
        seq: u32,
    },
    /// An extension of a stored beacon.
    Propagated {
        /// Origin of the extended beacon.
        origin: IsdAsn,
        /// Hop count after extension.
        hops: u32,
    },
}

/// Output of one beaconing interval, with per-send provenance and phase
/// wall-clocks (shard-phase output of the driver).
#[derive(Debug, Default)]
pub struct IntervalOutcome {
    /// The sends, each with its provenance.
    pub sends: Vec<(Propagation, SendKind)>,
    /// Wall-clock nanoseconds of the selection/scoring phase (0 untimed).
    pub selection_ns: u64,
    /// Wall-clock nanoseconds spent signing originations (0 untimed).
    pub origination_ns: u64,
}

enum AlgorithmState {
    Baseline(BaselineAlgorithm),
    Diversity(Box<DiversityAlgorithm>),
}

/// A beacon server instance for one AS.
pub struct BeaconServer {
    idx: AsIndex,
    ia: IsdAsn,
    cfg: BeaconingConfig,
    store: BeaconStore,
    algorithm: AlgorithmState,
    /// Origination sequence counter (disambiguates same-interval beacons).
    seq: u32,
    /// Messages dropped on receive, by reason (loop, invalid).
    pub drops: u64,
}

impl BeaconServer {
    /// Creates a beacon server for AS `idx` of `topo`.
    pub fn new(topo: &AsTopology, idx: AsIndex, cfg: BeaconingConfig) -> BeaconServer {
        BeaconServer {
            idx,
            ia: topo.node(idx).ia,
            store: BeaconStore::new(cfg.storage_limit),
            algorithm: match cfg.algorithm {
                Algorithm::Baseline => AlgorithmState::Baseline(BaselineAlgorithm),
                Algorithm::Diversity(p) => {
                    AlgorithmState::Diversity(Box::new(DiversityAlgorithm::new(p)))
                }
            },
            cfg,
            seq: 0,
            drops: 0,
        }
    }

    /// The AS this server belongs to.
    pub fn as_index(&self) -> AsIndex {
        self.idx
    }

    /// The AS address.
    pub fn isd_asn(&self) -> IsdAsn {
        self.ia
    }

    /// The beacon store (read-only; used for path-quality extraction).
    pub fn store(&self) -> &BeaconStore {
        &self.store
    }

    /// Handles a beacon arriving over `via`. Returns `Ok(true)` if the
    /// store changed, `Ok(false)` if it was a known-or-stale instance, and
    /// `Err` if the beacon was dropped.
    pub fn handle_beacon(
        &mut self,
        pcb: Pcb,
        via: LinkIndex,
        topo: &AsTopology,
        trust: &TrustStore,
        now: SimTime,
    ) -> Result<bool, DropReason> {
        self.handle_beacon_telemetry(pcb, via, topo, trust, now, &mut Telemetry::disabled())
    }

    /// Like [`BeaconServer::handle_beacon`], additionally profiling the
    /// verification phase, observing delivery histograms, and tracing
    /// store admissions and evictions.
    pub fn handle_beacon_telemetry(
        &mut self,
        pcb: Pcb,
        via: LinkIndex,
        topo: &AsTopology,
        trust: &TrustStore,
        now: SimTime,
        tel: &mut Telemetry,
    ) -> Result<bool, DropReason> {
        let timed = tel.profile.is_enabled();
        match self.handle_beacon_outcome(pcb, via, topo, trust, now, timed) {
            Err(e) => {
                tel.inc(ids::BEACONS_DROPPED, Label::As(self.idx.0), 1);
                Err(e)
            }
            Ok(out) => {
                if timed && self.cfg.verify_on_receive {
                    tel.profile.record_ns(phase::VERIFICATION, out.verify_ns);
                }
                self.replay_beacon_telemetry(&out, now, tel);
                Ok(out.changed)
            }
        }
    }

    /// Telemetry-free core of [`BeaconServer::handle_beacon`]: verifies,
    /// admits, and returns a [`BeaconOutcome`] describing what happened so
    /// the caller can emit counters and traces later (and elsewhere — this
    /// is the method the driver's shards call on worker threads). `timed`
    /// enables wall-clock measurement of the verification phase.
    ///
    /// Receive drops are still counted on [`BeaconServer::drops`]; only
    /// *telemetry* is deferred.
    pub fn handle_beacon_outcome(
        &mut self,
        pcb: Pcb,
        via: LinkIndex,
        topo: &AsTopology,
        trust: &TrustStore,
        now: SimTime,
        timed: bool,
    ) -> Result<BeaconOutcome, DropReason> {
        if pcb.contains_as(self.ia) {
            self.drops += 1;
            return Err(DropReason::Loop);
        }
        let mut verify_ns = 0u64;
        if self.cfg.verify_on_receive {
            let started = timed.then(std::time::Instant::now);
            let verdict = pcb.validate(trust, now);
            if let Some(start) = started {
                verify_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            }
            if let Err(e) = verdict {
                self.drops += 1;
                return Err(DropReason::Invalid(e));
            }
        } else if pcb.is_expired(now) {
            self.drops += 1;
            return Err(DropReason::Invalid(PcbError::Expired));
        }
        let (_, local_if, _) = topo.link(via).opposite(self.idx);
        let origin = pcb.origin;
        let hops = pcb.hop_count() as u32;
        let age_secs = now.since(pcb.initiated_at).as_secs_f64();
        let outcome = self.store.insert_outcome(
            StoredBeacon {
                pcb,
                ingress_link: via,
                ingress_if: local_if,
                received_at: now,
            },
            now,
        );
        Ok(BeaconOutcome {
            changed: outcome.changed,
            evicted: outcome.evicted,
            origin,
            hops,
            age_secs,
            verify_ns,
        })
    }

    /// Emits the counters and traces of one accepted beacon, exactly as
    /// the inline path does (observation first, then insert/evict). Used by
    /// both [`BeaconServer::handle_beacon_telemetry`] and the driver's
    /// merge step.
    pub fn replay_beacon_telemetry(&self, out: &BeaconOutcome, now: SimTime, tel: &mut Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        let node = self.idx.0;
        tel.observe(ids::PCB_AGE_AT_DELIVERY, Label::Global, out.age_secs);
        tel.observe(ids::PCB_HOPS_AT_DELIVERY, Label::Global, out.hops as f64);
        if out.changed {
            let (origin, hops) = (out.origin, out.hops);
            tel.inc(ids::STORE_INSERTS, Label::As(node), 1);
            tel.trace_event(now, || TraceEvent::BeaconStored { node, origin, hops });
        }
        if let Some(ev) = out.evicted {
            tel.inc(ids::STORE_EVICTIONS, Label::As(node), 1);
            tel.trace_event(now, || TraceEvent::BeaconEvicted {
                node,
                origin: ev.origin,
                hops: ev.hops as u32,
                expired: ev.expired,
            });
        }
    }

    /// Runs one beaconing interval without peering links or telemetry:
    /// purges expired state, runs the configured selection algorithm over
    /// `egress_links`, and returns the signed, extended beacons to send.
    /// `originate` is true for ASes that initiate beacons on these links
    /// (core ASes). See [`BeaconServer::run_interval_outcome`].
    pub fn run_interval(
        &mut self,
        topo: &AsTopology,
        trust: &TrustStore,
        now: SimTime,
        egress_links: &[EgressRef],
        originate: bool,
    ) -> Vec<Propagation> {
        self.run_interval_outcome(topo, trust, now, egress_links, originate, &[], false)
            .sends
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// One beaconing interval: purge, select, sign, extend. Every extended
    /// beacon additionally advertises `peer_links` (§2.2: "Non-core ASes
    /// can include their peering links in the PCBs, enabling valley-free
    /// forwarding if both up- and down-path segments contain the same
    /// peering link"); originations carry no peer entries — only the
    /// appending non-core ASes advertise theirs. Returns every send with
    /// its provenance ([`SendKind`]) plus phase wall-clocks (`timed`), so
    /// the driver's deterministic merge step can replay counters and
    /// traces later ([`BeaconServer::replay_interval_telemetry`]).
    #[allow(clippy::too_many_arguments)]
    pub fn run_interval_outcome(
        &mut self,
        topo: &AsTopology,
        trust: &TrustStore,
        now: SimTime,
        egress_links: &[EgressRef],
        originate: bool,
        peer_links: &[EgressRef],
        timed: bool,
    ) -> IntervalOutcome {
        self.store.purge_expired(now);
        let ctx = SelectionCtx {
            topo,
            me_ia: self.ia,
            egress_links,
            dissemination_limit: self.cfg.dissemination_limit,
            originate,
            pcb_lifetime: self.cfg.pcb_lifetime,
        };
        let sel_started = timed.then(std::time::Instant::now);
        let picks = match &mut self.algorithm {
            AlgorithmState::Baseline(b) => b.select(&ctx, &self.store, now),
            AlgorithmState::Diversity(d) => d.select(&ctx, &self.store, now),
        };
        let selection_ns = sel_started
            .map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64)
            .unwrap_or(0);

        let mut origination_ns = 0u64;
        let mut sends = Vec::with_capacity(picks.len());
        let mut extensions: HashMap<*const StoredBeacon, (Extender<'_>, Vec<PeerEntry>)> =
            HashMap::new();
        for pick in picks {
            let (pcb, kind) = match pick.source {
                PickSource::Originate => {
                    let seq = self.seq;
                    self.seq += 1;
                    let started = timed.then(std::time::Instant::now);
                    let pcb = Pcb::originate(
                        self.ia,
                        pick.egress.local_if,
                        now,
                        self.cfg.pcb_lifetime,
                        seq,
                        trust,
                    );
                    if let Some(start) = started {
                        origination_ns += start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                    }
                    (pcb, SendKind::Originated { seq })
                }
                PickSource::Stored(b) => {
                    // What the copies of one stored beacon share — the
                    // signed prefix and the peer entries, which depend on
                    // the beacon's expiry, not on the egress — is made
                    // once per interval, at the beacon's first pick.
                    let (extender, peers) = extensions.entry(b as *const _).or_insert_with(|| {
                        let peers: Vec<PeerEntry> = peer_links
                            .iter()
                            .map(|p| PeerEntry {
                                peer: p.neighbor_ia,
                                peer_if: topo.link(p.link).opposite(self.idx).2,
                                hop: HopField::new(
                                    p.local_if,
                                    IfId::NONE,
                                    b.pcb.expires_at,
                                    forwarding_key(self.ia),
                                ),
                            })
                            .collect();
                        (b.pcb.extender(self.ia, b.ingress_if, trust), peers)
                    });
                    let pcb = extender.extend(pick.egress.local_if, peers.clone());
                    let kind = SendKind::Propagated {
                        origin: pcb.origin,
                        hops: pcb.hop_count() as u32,
                    };
                    (pcb, kind)
                }
            };
            let bytes = pcb.wire_size();
            sends.push((
                Propagation {
                    pcb,
                    egress_link: pick.egress.link,
                    egress_if: pick.egress.local_if,
                    to: pick.egress.neighbor,
                    bytes,
                },
                kind,
            ));
        }
        IntervalOutcome {
            sends,
            selection_ns,
            origination_ns,
        }
    }

    /// Emits the origination counter and the per-send lifecycle traces of
    /// one interval, in send order, from the driver's merge step.
    pub fn replay_interval_telemetry(
        &self,
        sends: &[(Propagation, SendKind)],
        now: SimTime,
        tel: &mut Telemetry,
    ) {
        let node = self.idx.0;
        for (p, kind) in sends {
            let egress_if = p.egress_if.0;
            match *kind {
                SendKind::Originated { seq } => {
                    tel.inc(ids::BEACONS_ORIGINATED, Label::Global, 1);
                    tel.trace_event(now, || TraceEvent::PcbOriginated {
                        node,
                        egress_if,
                        seq,
                    });
                }
                SendKind::Propagated { origin, hops } => {
                    tel.trace_event(now, || TraceEvent::PcbPropagated {
                        node,
                        origin,
                        egress_if,
                        hops,
                    });
                }
            }
        }
    }
}

/// Computes the egress references of `idx` over the given links.
pub fn egress_refs(topo: &AsTopology, idx: AsIndex, links: &[LinkIndex]) -> Vec<EgressRef> {
    links
        .iter()
        .map(|&li| {
            let (neighbor, local_if, _) = topo.link(li).opposite(idx);
            EgressRef {
                link: li,
                local_if,
                neighbor,
                neighbor_ia: topo.node(neighbor).ia,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, DiversityParams};
    use scion_topology::{topology_from_edges, Relationship};
    use scion_types::{Asn, Isd};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    /// Triangle of three core ASes with a parallel link on one edge.
    fn triangle() -> AsTopology {
        let mut t = topology_from_edges(&[
            (1, 2, Relationship::PeerToPeer, 2),
            (2, 3, Relationship::PeerToPeer, 1),
            (1, 3, Relationship::PeerToPeer, 1),
        ]);
        for idx in t.as_indices().collect::<Vec<_>>() {
            t.set_core(idx, true);
        }
        t
    }

    fn trust(topo: &AsTopology) -> TrustStore {
        TrustStore::bootstrap(
            topo.as_indices()
                .map(|i| (topo.node(i).ia, topo.node(i).core)),
            SimTime::ZERO + Duration::from_days(365),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn core_egress(topo: &AsTopology, idx: AsIndex) -> Vec<EgressRef> {
        let links: Vec<LinkIndex> = topo
            .node(idx)
            .links
            .iter()
            .copied()
            .filter(|&li| {
                let l = topo.link(li);
                topo.node(l.a).core && topo.node(l.b).core
            })
            .collect();
        egress_refs(topo, idx, &links)
    }

    #[test]
    fn baseline_originates_on_every_interface_every_interval() {
        let topo = triangle();
        let tr = trust(&topo);
        let a = topo.by_address(ia(1)).unwrap();
        let mut srv = BeaconServer::new(&topo, a, BeaconingConfig::default());
        let egress = core_egress(&topo, a);
        assert_eq!(egress.len(), 3); // 2 parallel to AS2 + 1 to AS3

        let p1 = srv.run_interval(&topo, &tr, t(0), &egress, true);
        assert_eq!(p1.len(), 3, "one origination per interface");
        // And again next interval — the baseline never suppresses.
        let p2 = srv.run_interval(&topo, &tr, t(600), &egress, true);
        assert_eq!(p2.len(), 3);
    }

    #[test]
    fn diversity_suppresses_reorigination() {
        let topo = triangle();
        let tr = trust(&topo);
        let a = topo.by_address(ia(1)).unwrap();
        let mut srv = BeaconServer::new(
            &topo,
            a,
            BeaconingConfig::with_algorithm(Algorithm::Diversity(DiversityParams::default())),
        );
        let egress = core_egress(&topo, a);

        let p1 = srv.run_interval(&topo, &tr, t(0), &egress, true);
        assert_eq!(p1.len(), 3, "first interval explores every interface");
        let p2 = srv.run_interval(&topo, &tr, t(600), &egress, true);
        assert!(
            p2.is_empty(),
            "second interval suppressed, got {} sends",
            p2.len()
        );
    }

    #[test]
    fn diversity_refreshes_before_expiry() {
        let topo = triangle();
        let tr = trust(&topo);
        let a = topo.by_address(ia(1)).unwrap();
        let mut srv = BeaconServer::new(
            &topo,
            a,
            BeaconingConfig::with_algorithm(Algorithm::Diversity(DiversityParams::default())),
        );
        let egress = core_egress(&topo, a);
        assert_eq!(srv.run_interval(&topo, &tr, t(0), &egress, true).len(), 3);
        // Walk intervals for a full lifetime: refreshes must happen before
        // the original instances expire (connectivity objective), but far
        // fewer than the baseline's 36 per interface.
        let mut refreshes = 0;
        for i in 1..=36u64 {
            refreshes += srv
                .run_interval(&topo, &tr, t(i * 600), &egress, true)
                .len();
        }
        assert!(refreshes > 0, "must refresh before expiry");
        assert!(
            refreshes <= 3 * 6,
            "suppression failed: {refreshes} refreshes in one lifetime"
        );
    }

    #[test]
    fn handle_beacon_stores_and_loops_are_dropped() {
        let topo = triangle();
        let tr = trust(&topo);
        let a = topo.by_address(ia(1)).unwrap();
        let b = topo.by_address(ia(2)).unwrap();
        let link_ab = topo.links_between(a, b)[0];
        let (_, a_if, b_if) = topo.link(link_ab).opposite(a);

        let mut srv_b = BeaconServer::new(&topo, b, BeaconingConfig::default());
        let pcb = Pcb::originate(ia(1), a_if, t(0), Duration::from_hours(6), 0, &tr);
        assert_eq!(
            srv_b.handle_beacon(pcb.clone(), link_ab, &topo, &tr, t(1)),
            Ok(true)
        );
        assert_eq!(srv_b.store().beacons_of(ia(1), t(2)).len(), 1);
        assert_eq!(srv_b.store().beacons_of(ia(1), t(2))[0].ingress_if, b_if);

        // A beacon already containing AS 2 loops.
        let looped = pcb.extend(ia(2), b_if, IfId(9), vec![], &tr);
        assert_eq!(
            srv_b.handle_beacon(looped, link_ab, &topo, &tr, t(2)),
            Err(DropReason::Loop)
        );
        assert_eq!(srv_b.drops, 1);
    }

    #[test]
    fn handle_beacon_rejects_tampered() {
        let topo = triangle();
        let tr = trust(&topo);
        let a = topo.by_address(ia(1)).unwrap();
        let b = topo.by_address(ia(2)).unwrap();
        let link_ab = topo.links_between(a, b)[0];
        let (_, a_if, _) = topo.link(link_ab).opposite(a);

        let mut srv_b = BeaconServer::new(&topo, b, BeaconingConfig::default());
        let mut pcb = Pcb::originate(ia(1), a_if, t(0), Duration::from_hours(6), 0, &tr);
        pcb.expires_at = pcb.expires_at + Duration::from_hours(100); // forge
        assert!(matches!(
            srv_b.handle_beacon(pcb, link_ab, &topo, &tr, t(1)),
            Err(DropReason::Invalid(_))
        ));
    }

    #[test]
    fn propagation_extends_with_correct_interfaces() {
        let topo = triangle();
        let tr = trust(&topo);
        let a = topo.by_address(ia(1)).unwrap();
        let b = topo.by_address(ia(2)).unwrap();
        let link_ab = topo.links_between(a, b)[0];
        let (_, a_if, _) = topo.link(link_ab).opposite(a);

        let mut srv_b = BeaconServer::new(&topo, b, BeaconingConfig::default());
        let pcb = Pcb::originate(ia(1), a_if, t(0), Duration::from_hours(6), 0, &tr);
        srv_b.handle_beacon(pcb, link_ab, &topo, &tr, t(1)).unwrap();

        // B propagates toward C only (A is on the path).
        let egress = core_egress(&topo, b);
        let props = srv_b.run_interval(&topo, &tr, t(600), &egress, false);
        assert!(!props.is_empty());
        for p in &props {
            assert_eq!(p.pcb.hop_count(), 2);
            assert_eq!(p.pcb.as_path(), vec![ia(1), ia(2)]);
            let c = topo.by_address(ia(3)).unwrap();
            assert_eq!(p.to, c, "must not send back toward the origin");
            assert_eq!(p.pcb.validate(&tr, t(601)), Ok(()));
            assert!(p.bytes > 0);
        }
    }

    /// One extender and one peer list serve all of a stored beacon's
    /// egresses, picks of two beacons interleaved: every send is the beacon
    /// `Pcb::extend` makes for that egress alone, in selection order.
    #[test]
    fn sends_sharing_an_extender_equal_single_extensions() {
        let topo = triangle();
        let tr = trust(&topo);
        let (a, b, c) = (
            topo.by_address(ia(1)).unwrap(),
            topo.by_address(ia(2)).unwrap(),
            topo.by_address(ia(3)).unwrap(),
        );
        let mut srv_b = BeaconServer::new(&topo, b, BeaconingConfig::default());
        for (from, origin) in [(a, ia(1)), (c, ia(3))] {
            for (seq, &link) in topo.links_between(from, b).iter().enumerate() {
                let (_, from_if, _) = topo.link(link).opposite(from);
                let pcb = Pcb::originate(
                    origin,
                    from_if,
                    t(0),
                    Duration::from_hours(6),
                    seq as u32,
                    &tr,
                );
                srv_b.handle_beacon(pcb, link, &topo, &tr, t(1)).unwrap();
            }
        }
        let egress = core_egress(&topo, b);
        let peer_links = &egress[..2];
        let out = srv_b.run_interval_outcome(&topo, &tr, t(600), &egress, false, peer_links, false);

        let stored: Vec<&StoredBeacon> = [ia(1), ia(3)]
            .iter()
            .flat_map(|&origin| srv_b.store().beacons_of(origin, t(600)))
            .collect();
        let mut sends_of = vec![0; stored.len()];
        for (send, _) in &out.sends {
            let (ingress, egress_if) = {
                let e = send.pcb.entries.last().unwrap();
                (e.hop.ingress, e.hop.egress)
            };
            assert_eq!(egress_if, send.egress_if);
            let from = stored
                .iter()
                .position(|s| s.ingress_if == ingress && s.pcb.origin == send.pcb.origin)
                .unwrap();
            sends_of[from] += 1;
            let peers = send.pcb.entries.last().unwrap().peers.clone();
            assert_eq!(peers.len(), 2);
            assert_eq!(
                send.pcb,
                stored[from]
                    .pcb
                    .extend(ia(2), ingress, egress_if, peers, &tr)
            );
            assert_eq!(send.pcb.validate(&tr, t(601)), Ok(()));
        }
        assert!(
            sends_of.iter().any(|&n| n > 1),
            "no beacon left through two egresses: {sends_of:?}"
        );
        let order: Vec<IfId> = out.sends.iter().map(|(s, _)| s.egress_if).collect();
        let mut by_interface = order.clone();
        by_interface.sort_by_key(|i| egress.iter().position(|e| e.local_if == *i));
        assert_eq!(order, by_interface, "sends stay interface-major");
    }

    #[test]
    fn diversity_prefers_unused_parallel_link() {
        // AS2 has two parallel links to AS1 and receives beacons from AS3;
        // when propagating AS3's beacons to AS1 the algorithm must use both
        // parallel links before repeating one.
        let topo = triangle();
        let tr = trust(&topo);
        let b = topo.by_address(ia(2)).unwrap();
        let c = topo.by_address(ia(3)).unwrap();
        let link_cb = topo.links_between(c, b)[0];
        let (_, c_if, _) = topo.link(link_cb).opposite(c);

        let mut srv_b = BeaconServer::new(
            &topo,
            b,
            BeaconingConfig::with_algorithm(Algorithm::Diversity(DiversityParams::default())),
        );
        let pcb = Pcb::originate(ia(3), c_if, t(0), Duration::from_hours(6), 0, &tr);
        srv_b.handle_beacon(pcb, link_cb, &topo, &tr, t(1)).unwrap();

        let a = topo.by_address(ia(1)).unwrap();
        let to_a: Vec<LinkIndex> = topo.links_between(b, a);
        assert_eq!(to_a.len(), 2);
        let egress = egress_refs(&topo, b, &to_a);
        let props = srv_b.run_interval(&topo, &tr, t(600), &egress, false);
        let used: std::collections::HashSet<LinkIndex> =
            props.iter().map(|p| p.egress_link).collect();
        assert_eq!(used.len(), 2, "both parallel links should be used");
    }
}
