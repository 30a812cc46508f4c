//! The two IXP deployment models of §3.5, compared.
//!
//! * **Big switch**: the IXP is a transparent L2 fabric; member ASes peer
//!   bilaterally across it. The SCION control plane never sees the IXP —
//!   each member pair gets exactly one (logical) peering link.
//! * **Exposed topology** (Fig. 4): the IXP operates its own SCION ASes —
//!   one per site, with redundant inter-site links — so members can use
//!   the IXP's internal path diversity for multi-path and fast failover.
//!
//! The example builds both variants with the same four member ASes, runs
//! beaconing, and compares the failure resilience members obtain.
//!
//! ```text
//! cargo run --release -p scion-core --example ixp_models
//! ```

use scion_core::beaconing::paths::known_paths;
use scion_core::prelude::*;

const MEMBERS: u64 = 4;

/// Big switch: members peer directly pairwise over the fabric.
fn big_switch() -> AsTopology {
    let mut topo = AsTopology::new();
    let members: Vec<AsIndex> = (1..=MEMBERS)
        .map(|n| {
            let idx = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(n)));
            topo.set_core(idx, true);
            idx
        })
        .collect();
    for i in 0..members.len() {
        for j in (i + 1)..members.len() {
            topo.add_link(members[i], members[j], Relationship::PeerToPeer);
        }
    }
    topo
}

/// Exposed topology: four IXP site ASes in a redundant square (doubled
/// links), every member **dual-homed at two different sites** (Fig. 4's
/// shape: customers attach at multiple sites and can fail over across the
/// IXP's internal redundancy).
fn exposed_topology() -> AsTopology {
    let mut topo = AsTopology::new();
    let sites: Vec<AsIndex> = (1..=4u64)
        .map(|n| {
            let idx = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(100 + n)));
            topo.set_core(idx, true);
            idx
        })
        .collect();
    // Redundant square: each fabric edge is a parallel pair.
    for (a, b) in [(0, 1), (1, 3), (3, 2), (2, 0)] {
        topo.add_link(sites[a], sites[b], Relationship::PeerToPeer);
        topo.add_link(sites[a], sites[b], Relationship::PeerToPeer);
    }
    for n in 0..MEMBERS as usize {
        let m = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(n as u64 + 1)));
        topo.set_core(m, true);
        // Dual-homing: one port at the local site, one at the next.
        topo.add_link(m, sites[n], Relationship::PeerToPeer);
        topo.add_link(m, sites[(n + 1) % sites.len()], Relationship::PeerToPeer);
    }
    topo
}

fn member_resilience(topo: &AsTopology, label: &str) {
    let cfg = BeaconingConfig::diversity();
    let outcome = run_beaconing(
        topo,
        &cfg,
        &BeaconingRun::core(Duration::from_hours(6), 9),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + Duration::from_hours(6);

    // Member ASes are 1..=4 in both models.
    let members: Vec<AsIndex> = (1..=MEMBERS)
        .map(|n| {
            topo.by_address(IsdAsn::new(Isd(1), Asn::from_u64(n)))
                .expect("member exists")
        })
        .collect();

    let mut resilience = 0u64;
    let mut options = 0usize;
    let mut pairs = 0u64;
    for &src in &members {
        for &dst in &members {
            if src == dst {
                continue;
            }
            let srv = outcome.server(dst).expect("member runs control service");
            let paths = known_paths(topo, srv, topo.node(src).ia, now);
            options += paths.len();
            resilience += max_flow(topo, paths.iter().flatten().copied(), src, dst);
            pairs += 1;
        }
    }
    println!(
        "{label:<18} path options/pair: {:>5.1}   failure resilience: {:.2}   (beaconing: {})",
        options as f64 / pairs as f64,
        resilience as f64 / pairs as f64,
        scion_core::report::human_bytes(outcome.total_bytes()),
    );
}

fn main() {
    println!("IXP deployment models (§3.5): resilience members obtain\n");
    member_resilience(&big_switch(), "big switch");
    member_resilience(&exposed_topology(), "exposed topology");
    println!(
        "\nIn the big-switch model the fabric is one opaque failure domain: the\n\
         bilateral links all ride it, and none of its internal redundancy is\n\
         selectable. Exposing the topology multiplies the path options members\n\
         can choose between per application — the §3.5 incentive — and makes\n\
         the IXP's internal backup links usable for endpoint fast failover."
    );
}
