//! The paper's first production use case (§3.1): a bank replacing leased
//! lines with SCION connections.
//!
//! A bank with N branches and K data centers needs N·K leased lines for a
//! full mesh, but only N+K SCION attachments — and gains multi-path
//! failover for free. This example builds that world: one ISD, a provider
//! core, branch ASes and data-center ASes, runs intra-ISD beaconing,
//! combines up+down segments into end-to-end paths for every
//! branch↔data-center pair, then fails a link and shows the immediate
//! SCMP-driven switch to a disjoint path.
//!
//! ```text
//! cargo run --release -p scion-core --example leased_line
//! ```

use scion_core::beaconing::server::BeaconServer;
use scion_core::crypto::trc::TrustStore;
use scion_core::pathserver::ledger::Ledger;
use scion_core::pathserver::revocation::{revoke_segments, segment_uses_link};
use scion_core::pathserver::server::PathServer;
use scion_core::prelude::*;
use scion_core::types::LinkId;

const BRANCHES: u64 = 4;
const DATACENTERS: u64 = 2;

fn main() {
    // --- Build the world: ISP core AS 1 provides to every bank site.
    //     Every site is dual-homed (two parallel links) for redundancy —
    //     the "redundant connection" ISP deployment model of Fig. 2c.
    let mut topo = AsTopology::new();
    let isp = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(1)));
    topo.set_core(isp, true);
    let mut sites = Vec::new();
    for n in 0..BRANCHES + DATACENTERS {
        let site = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(10 + n)));
        topo.add_link(isp, site, Relationship::AProviderOfB);
        topo.add_link(isp, site, Relationship::AProviderOfB);
        sites.push(site);
    }
    let (branches, datacenters) = sites.split_at(BRANCHES as usize);
    println!(
        "world: 1 provider, {BRANCHES} branches, {DATACENTERS} data centers, {} links",
        topo.num_links()
    );
    println!(
        "leased-line mesh would need {} lines; SCION needs {} attachments\n",
        BRANCHES * DATACENTERS,
        BRANCHES + DATACENTERS
    );

    // --- Control plane: intra-ISD beaconing from the ISP core.
    let cfg = BeaconingConfig::default();
    let outcome = run_beaconing(
        &topo,
        &cfg,
        &BeaconingRun::intra_isd(Duration::from_hours(1), 3),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + Duration::from_hours(1);

    // --- Each site terminates its freshest beacons into up/down segments
    //     and registers the down-segments at the ISP's core path server.
    let trust = TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        now + Duration::from_days(1),
    );
    let mut core_ps = PathServer::new(topo.node(isp).ia, true);
    let mut up_segments: Vec<Vec<PathSegment>> = Vec::new();
    for &site in &sites {
        let srv: &BeaconServer = outcome.server(site).expect("site has a beacon server");
        let mut ups = Vec::new();
        for stored in srv.store().beacons_of(topo.node(isp).ia, now) {
            let terminated = stored.pcb.extend(
                topo.node(site).ia,
                stored.ingress_if,
                IfId::NONE,
                vec![],
                &trust,
            );
            let down = PathSegment::from_terminated_pcb(SegmentType::Down, terminated.clone());
            core_ps
                .register_down_segment(down, now)
                .expect("fresh down-segment registers");
            ups.push(PathSegment::from_terminated_pcb(
                SegmentType::Up,
                terminated,
            ));
        }
        up_segments.push(ups);
    }

    // --- Data plane: combine an up-segment (branch→core) with a
    //     down-segment (core→data center) for every pair.
    println!("end-to-end paths (branch -> data center):");
    for (b, &branch) in branches.iter().enumerate() {
        for &dc in datacenters {
            let ups = &up_segments[b];
            let downs = core_ps
                .lookup_down(topo.node(dc).ia, now)
                .expect("data center registered its down-segments");
            let path = ups
                .iter()
                .flat_map(|u| downs.iter().map(move |d| (u, d)))
                .filter_map(|(u, d)| combine_paths(Some(u), None, Some(d)).ok())
                .next()
                .expect("pair is connected");
            let ases: Vec<String> = path.as_path().iter().map(|ia| ia.to_string()).collect();
            println!(
                "  {} -> {}: {}  ({} disjoint path options)",
                topo.node(branch).ia,
                topo.node(dc).ia,
                ases.join(" -> "),
                ups.len() * downs.len(),
            );
        }
    }

    // --- Failover: fail the first link of branch 0's first up-segment.
    let branch0 = branches[0];
    let dc0 = datacenters[0];
    let victim_links = up_segments[0][0].links();
    let (a, bnd) = victim_links[0];
    let failed = LinkId::new(a, bnd);
    println!("\nfailing link {failed} …");
    let mut ledger = Ledger::new();
    let rev = revoke_segments(&mut core_ps, failed, 2, &mut ledger, now);
    println!(
        "core path server revoked {} affected segment(s), {} SCMP notifications sent",
        rev.segments_revoked, rev.scmp_notifications
    );

    // The branch switches instantly to an up-segment avoiding the link.
    let alt = up_segments[0]
        .iter()
        .find(|u| !segment_uses_link(u, failed))
        .expect("dual-homing guarantees a disjoint up-segment");
    let downs = core_ps
        .lookup_down(topo.node(dc0).ia, now)
        .expect("data center registered its down-segments");
    let path = combine_paths(Some(alt), None, Some(&downs[0])).expect("combines");
    println!(
        "{} fails over to: {:?} — no convergence wait, the alternate segment was already cached",
        topo.node(branch0).ia,
        path.as_path()
            .iter()
            .map(|ia| ia.to_string())
            .collect::<Vec<_>>()
    );
}
