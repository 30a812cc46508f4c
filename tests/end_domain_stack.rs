//! Integration of the end-domain stack (§3.4) with the control plane and
//! data plane: real beacons → daemon resolution → SIG encapsulation →
//! stateless forwarding → SCMP failover; plus the peering-shortcut path
//! (§2.3) resolved from peer entries carried in real intra-ISD beacons.

use std::collections::HashSet;

use scion_core::crypto::trc::TrustStore;
use scion_core::dataplane::network::{deliver, DeliveryError};
use scion_core::endhost::asmap::{AsMap, Ipv4Prefix};
use scion_core::endhost::daemon::{ScionDaemon, SegmentSet};
use scion_core::endhost::sig::Sig;
use scion_core::prelude::*;

fn ia(asn: u64) -> IsdAsn {
    IsdAsn::new(Isd(1), Asn::from_u64(asn))
}

/// Core AS 1 providing to leaves 10 and 11 (dual-homed), with a peering
/// link between the two leaves.
fn world() -> AsTopology {
    let mut topo = AsTopology::new();
    let core = topo.add_as(ia(1));
    topo.set_core(core, true);
    for n in [10u64, 11] {
        let leaf = topo.add_as(ia(n));
        topo.add_link(core, leaf, Relationship::AProviderOfB);
        topo.add_link(core, leaf, Relationship::AProviderOfB);
    }
    let l10 = topo.by_address(ia(10)).unwrap();
    let l11 = topo.by_address(ia(11)).unwrap();
    topo.add_link(l10, l11, Relationship::PeerToPeer);
    topo
}

struct Stack {
    topo: AsTopology,
    segments: SegmentSet,
    now: SimTime,
}

fn build_stack() -> Stack {
    let topo = world();
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let out = run_beaconing(
        &topo,
        &BeaconingConfig::default(),
        &BeaconingRun::intra_isd(duration, 11),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let trust = TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        now + Duration::from_days(1),
    );
    let terminate = |leaf_ia: IsdAsn, ty| -> Vec<PathSegment> {
        let leaf = topo.by_address(leaf_ia).unwrap();
        out.server(leaf)
            .unwrap()
            .store()
            .beacons_of(ia(1), now)
            .into_iter()
            .map(|b| {
                // Terminating ASes keep advertising their peering links in
                // the terminal entry (that is how both sides of a peering
                // link end up in both segments).
                let peers: Vec<scion_core::proto::pcb::PeerEntry> = topo
                    .node(leaf)
                    .links
                    .iter()
                    .filter(|&&li| topo.link(li).is_peering())
                    .map(|&li| {
                        let (other, local_if, remote_if) = topo.link(li).opposite(leaf);
                        scion_core::proto::pcb::PeerEntry {
                            peer: topo.node(other).ia,
                            peer_if: remote_if,
                            hop: scion_core::proto::hopfield::HopField::new(
                                local_if,
                                IfId::NONE,
                                b.pcb.expires_at,
                                scion_core::proto::pcb::forwarding_key(leaf_ia),
                            ),
                        }
                    })
                    .collect();
                let pcb = b
                    .pcb
                    .extend(leaf_ia, b.ingress_if, IfId::NONE, peers, &trust);
                scion_core::proto::segment::PathSegment::from_terminated_pcb(ty, pcb)
            })
            .collect()
    };
    let segments = SegmentSet {
        up: terminate(ia(10), SegmentType::Up),
        core: vec![],
        down: terminate(ia(11), SegmentType::Down),
    };
    Stack {
        topo,
        segments,
        now,
    }
}

#[test]
fn daemon_resolves_core_and_peering_paths_from_real_beacons() {
    let stack = build_stack();
    let mut daemon = ScionDaemon::new();
    let n = daemon.resolve(ia(11), &stack.segments, stack.now);
    // 2 ups x 2 downs through the core + the peering shortcut.
    assert!(
        n >= 5,
        "expected core paths plus the peering shortcut, got {n}"
    );
    // The best (shortest) path is the 2-hop peering shortcut.
    let best = daemon.best_path(ia(11)).unwrap();
    assert_eq!(
        best.as_path(),
        vec![ia(10), ia(11)],
        "peering shortcut wins"
    );
    // Core paths exist as well.
    assert!(daemon
        .cached_paths(ia(11))
        .iter()
        .any(|p| p.as_path() == vec![ia(10), ia(1), ia(11)]));
}

#[test]
fn every_resolved_path_is_deliverable_on_the_data_plane() {
    let stack = build_stack();
    let mut daemon = ScionDaemon::new();
    daemon.resolve(ia(11), &stack.segments, stack.now);
    let expiry = stack.now + Duration::from_hours(1);
    for path in daemon.cached_paths(ia(11)).to_vec() {
        let mut pkt = scion_core::dataplane::packet::Packet::along(&path, expiry, 64);
        let hops = deliver(&stack.topo, &mut pkt, &HashSet::new(), stack.now)
            .unwrap_or_else(|e| panic!("path {:?} failed: {e:?}", path.as_path()));
        assert_eq!(hops, path.len() - 1);
    }
}

#[test]
fn sig_failover_cascades_through_the_whole_stack() {
    let stack = build_stack();
    let mut daemon = ScionDaemon::new();
    daemon.resolve(ia(11), &stack.segments, stack.now);
    let mut asmap = AsMap::new();
    asmap.insert(Ipv4Prefix::parse("203.0.113.0/24").unwrap(), ia(11));
    let mut sig = Sig::new(asmap, daemon);

    let dst_ip = u32::from_be_bytes([203, 0, 113, 9]);
    let expiry = stack.now + Duration::from_hours(1);

    // Fail links one by one; each failure triggers SCMP + failover until
    // the pair's whole min cut (3: two core attachments + the peering
    // link... from 10's perspective: 2 up links + 1 peer link) is gone.
    let mut failed: HashSet<_> = HashSet::new();
    let mut distinct_first_hops = HashSet::new();
    // Stop when no usable path is left.
    while let Ok(mut pkt) = sig.encapsulate(dst_ip, 500, expiry) {
        distinct_first_hops.insert(pkt.path.hops[0].1.egress);
        match deliver(&stack.topo, &mut pkt, &failed, stack.now) {
            Ok(_) => {
                // Delivered: fail the link it used and continue.
                let first_egress = pkt.path.hops[0].1.egress;
                let src = stack.topo.by_address(ia(10)).unwrap();
                let li = stack.topo.link_by_interface(src, first_egress).unwrap();
                failed.insert(li);
                // Tell the daemon (as the border router would).
                sig.daemon.handle_scmp(
                    &scion_core::dataplane::scmp::ScmpMessage::ExternalInterfaceDown {
                        at: ia(10),
                        interface: first_egress,
                        observed_at: stack.now,
                    },
                    stack.now,
                );
            }
            Err(DeliveryError::LinkDown(scmp)) => {
                sig.daemon.handle_scmp(&scmp, stack.now);
            }
            Err(other) => panic!("unexpected drop: {other:?}"),
        }
        if failed.len() > 4 {
            break;
        }
    }
    assert!(
        distinct_first_hops.len() >= 3,
        "failover should have exercised all 3 first-hop links, used {:?}",
        distinct_first_hops
    );
    // After exhausting the min cut the SIG reports NoPath.
    assert!(sig.encapsulate(dst_ip, 500, expiry).is_err());
}
