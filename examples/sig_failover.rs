//! The §3.4 SIG-based customer deployment (Case b), end to end: legacy IP
//! traffic enters a SCION-IP gateway, gets encapsulated along a resolved
//! multi-segment path, and is forwarded hop by hop through stateless
//! border routers. A link then fails mid-path: the observing router emits
//! an SCMP message, the daemon marks the link, and the very next packet
//! rides a disjoint path — no routing convergence anywhere.
//!
//! ```text
//! cargo run --release -p scion-core --example sig_failover
//! ```

use std::collections::HashSet;

use scion_core::crypto::trc::TrustStore;
use scion_core::dataplane::network::{deliver, DeliveryError};
use scion_core::endhost::asmap::{AsMap, Ipv4Prefix};
use scion_core::endhost::daemon::{ScionDaemon, SegmentSet};
use scion_core::endhost::sig::Sig;
use scion_core::prelude::*;

fn main() {
    // --- World: one ISD; provider core AS 1 with dual-homed customer
    //     ASes 10 (the SIG side) and 11 (the remote office).
    let mut topo = AsTopology::new();
    let core = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(1)));
    topo.set_core(core, true);
    let mut leaves = vec![];
    for n in [10u64, 11] {
        let leaf = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(n)));
        topo.add_link(core, leaf, Relationship::AProviderOfB);
        topo.add_link(core, leaf, Relationship::AProviderOfB);
        leaves.push(leaf);
    }
    let src_ia = topo.node(leaves[0]).ia;
    let dst_ia = topo.node(leaves[1]).ia;

    // --- Control plane: one hour of intra-ISD beaconing.
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let out = run_beaconing(
        &topo,
        &BeaconingConfig::default(),
        &BeaconingRun::intra_isd(duration, 5),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let trust = TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        now + Duration::from_days(1),
    );

    // --- The control service hands the daemon its segments.
    let terminate = |leaf: AsIndex, ty| -> Vec<PathSegment> {
        out.server(leaf)
            .unwrap()
            .store()
            .beacons_of(topo.node(core).ia, now)
            .into_iter()
            .map(|b| {
                let pcb =
                    b.pcb
                        .extend(topo.node(leaf).ia, b.ingress_if, IfId::NONE, vec![], &trust);
                scion_core::proto::segment::PathSegment::from_terminated_pcb(ty, pcb)
            })
            .collect()
    };
    let segments = SegmentSet {
        up: terminate(leaves[0], SegmentType::Up),
        core: vec![],
        down: terminate(leaves[1], SegmentType::Down),
    };
    let mut daemon = ScionDaemon::new();
    let n_paths = daemon.resolve(dst_ia, &segments, now);
    println!("daemon resolved {n_paths} paths {src_ia} -> {dst_ia}");

    // --- The SIG: legacy hosts in 192.0.2.0/24 live behind the remote AS.
    let mut asmap = AsMap::new();
    asmap.insert(Ipv4Prefix::parse("192.0.2.0/24").unwrap(), dst_ia);
    let mut sig = Sig::new(asmap, daemon);
    let dst_ip = u32::from_be_bytes([192, 0, 2, 80]);
    let expiry = now + Duration::from_hours(1);

    // --- Packet 1: encapsulate and deliver.
    let mut pkt = sig.encapsulate(dst_ip, 1200, expiry).unwrap();
    let path1: Vec<String> = pkt
        .path
        .hops
        .iter()
        .map(|(ia, hf)| format!("{ia}(in {}, out {})", hf.ingress, hf.egress))
        .collect();
    println!("packet 1 path: {}", path1.join(" -> "));
    let hops = deliver(&topo, &mut pkt, &HashSet::new(), now).unwrap();
    println!("packet 1 delivered over {hops} inter-domain links\n");

    // --- A link on that path fails; packet 2 runs into it.
    let first_egress = pkt.path.hops[0].1.egress;
    let failed_link = topo.link_by_interface(leaves[0], first_egress).unwrap();
    let failed: HashSet<_> = [failed_link].into_iter().collect();
    println!("link {} fails!", topo.link_id(failed_link));

    let mut pkt2 = sig.encapsulate(dst_ip, 1200, expiry).unwrap();
    match deliver(&topo, &mut pkt2, &failed, now) {
        Err(DeliveryError::LinkDown(scmp)) => {
            println!(
                "border router at {} sends SCMP ExternalInterfaceDown",
                scmp.origin()
            );
            sig.daemon.handle_scmp(&scmp, now);
        }
        other => panic!("expected LinkDown, got {other:?}"),
    }

    // --- Packet 3: the daemon already switched paths.
    let mut pkt3 = sig.encapsulate(dst_ip, 1200, expiry).unwrap();
    assert_ne!(
        pkt3.path.hops[0].1.egress, first_egress,
        "disjoint path chosen"
    );
    let hops = deliver(&topo, &mut pkt3, &failed, now).unwrap();
    println!(
        "packet 3 fails over instantly: delivered over {hops} links via interface {} \
         (was {first_egress})",
        pkt3.path.hops[0].1.egress
    );
    println!(
        "\nSIG stats: {} packets encapsulated toward {dst_ia}; daemon served {} paths, \
         processed {} SCMP messages",
        sig.encapsulated_to(dst_ia),
        sig.daemon.paths_served,
        sig.daemon.scmp_processed
    );
}
