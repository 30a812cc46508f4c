//! Scalability properties from §4.1, asserted on real simulation runs:
//! the k·n per-interface bound of core beaconing, the locality of
//! intra-ISD beaconing, and the diversity algorithm's overhead reduction.

use scion_core::prelude::*;
use scion_core::topology::isd::assign_isds;

fn core_world(num_ases: usize, num_core: usize, seed: u64) -> AsTopology {
    let internet = generate_internet(&GeneratorConfig::small(num_ases, seed));
    let (mut core, _) = prune_to_top_degree(&internet, num_core);
    assign_isds(&mut core, 4);
    core
}

#[test]
fn core_beaconing_respects_the_kn_interface_bound() {
    // §4.1: "propagating at most a constant threshold k PCBs per origin AS
    // in each beaconing interval results in at most k·n PCBs being sent on
    // each interface" — n origins, k = dissemination limit.
    let core = core_world(150, 12, 5);
    let cfg = BeaconingConfig::default();
    let intervals = 6u64;
    let duration = Duration::from_mins(10) * intervals;
    let out = run_beaconing(
        &core,
        &cfg,
        &BeaconingRun::core(duration, 5),
        &mut Telemetry::disabled(),
    )
    .outcome;

    let n = core.num_ases() as u64;
    let k = cfg.dissemination_limit as u64;
    for ((as_idx, ifid), counter) in out.traffic.per_interface() {
        assert!(
            counter.messages <= k * n * intervals,
            "interface {as_idx:?}#{ifid} sent {} messages, bound is {}",
            counter.messages,
            k * n * intervals
        );
    }
}

#[test]
fn intra_isd_overhead_is_independent_of_other_isds() {
    // §4.1: "the number of PCBs received by non-core ASes in an ISD only
    // depends on the topology of that ISD, regardless of the size and
    // topology of the entire network." Build one ISD, then embed the
    // identical ISD inside a world with a second, larger ISD: per-AS
    // intra-ISD traffic of the first ISD must be identical.
    let build = |with_second_isd: bool| -> (AsTopology, Vec<IsdAsn>) {
        let mut topo = AsTopology::new();
        let core1 = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(1)));
        topo.set_core(core1, true);
        let mut members = vec![];
        let mut tier2 = vec![];
        for n in 0..3u64 {
            let mid = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(10 + n)));
            topo.add_link(core1, mid, Relationship::AProviderOfB);
            tier2.push(mid);
            members.push(IsdAsn::new(Isd(1), Asn::from_u64(10 + n)));
        }
        for n in 0..6u64 {
            let leaf = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(20 + n)));
            topo.add_link(tier2[(n % 3) as usize], leaf, Relationship::AProviderOfB);
            members.push(IsdAsn::new(Isd(1), Asn::from_u64(20 + n)));
        }
        if with_second_isd {
            let core2 = topo.add_as(IsdAsn::new(Isd(2), Asn::from_u64(1)));
            topo.set_core(core2, true);
            topo.add_link(core1, core2, Relationship::PeerToPeer);
            for n in 0..12u64 {
                let leaf = topo.add_as(IsdAsn::new(Isd(2), Asn::from_u64(10 + n)));
                topo.add_link(core2, leaf, Relationship::AProviderOfB);
            }
        }
        (topo, members)
    };

    let cfg = BeaconingConfig::default();
    let duration = Duration::from_hours(1);
    let (solo, members) = build(false);
    let (embedded, _) = build(true);
    let out_solo = run_beaconing(
        &solo,
        &cfg,
        &BeaconingRun::intra_isd(duration, 9),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let out_embedded = run_beaconing(
        &embedded,
        &cfg,
        &BeaconingRun::intra_isd(duration, 9),
        &mut Telemetry::disabled(),
    )
    .outcome;

    for ia in members {
        let a = solo.by_address(ia).unwrap();
        let b = embedded.by_address(ia).unwrap();
        assert_eq!(
            out_solo.traffic.node_total(a).messages,
            out_embedded.traffic.node_total(b).messages,
            "ISD-1 member {ia} traffic changed when another ISD was added"
        );
    }
}

#[test]
fn diversity_reduces_overhead_by_a_large_factor_over_a_lifetime() {
    // The §5.2 headline at miniature scale: over a full PCB lifetime of
    // intervals, the diversity algorithm's total beaconing bytes are a
    // small fraction of the baseline's on the same topology.
    let core = core_world(150, 12, 7);
    let cfg_base = BeaconingConfig {
        interval: Duration::from_secs(100),
        pcb_lifetime: Duration::from_secs(3600),
        ..BeaconingConfig::default()
    };
    let cfg_div = BeaconingConfig {
        algorithm: Algorithm::Diversity(DiversityParams::default()),
        ..cfg_base
    };
    let duration = Duration::from_secs(5400); // 1.5 lifetimes
    let base = run_beaconing(
        &core,
        &cfg_base,
        &BeaconingRun::core(duration, 7),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let div = run_beaconing(
        &core,
        &cfg_div,
        &BeaconingRun::core(duration, 7),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let ratio = base.total_bytes() as f64 / div.total_bytes() as f64;
    assert!(
        ratio > 4.0,
        "expected a large reduction, got only {ratio:.1}x ({} vs {})",
        base.total_bytes(),
        div.total_bytes()
    );
}

#[test]
fn diversity_reduction_is_robust_across_core_sizes() {
    // The overhead reduction is not an artifact of one topology size: at
    // both core sizes the baseline costs several times more. (The gap
    // keeps growing toward the paper's two orders of magnitude at the
    // 2000-core scale; at miniature scale we assert the floor.)
    let duration = Duration::from_secs(3600);
    let cadence = |alg| BeaconingConfig {
        interval: Duration::from_secs(100),
        pcb_lifetime: Duration::from_secs(3600),
        algorithm: alg,
        ..BeaconingConfig::default()
    };
    for num_core in [8usize, 16] {
        let core = core_world(160, num_core, 3);
        let base = run_beaconing(
            &core,
            &cadence(Algorithm::Baseline),
            &BeaconingRun::core(duration, 3),
            &mut Telemetry::disabled(),
        )
        .outcome;
        let div = run_beaconing(
            &core,
            &cadence(Algorithm::Diversity(DiversityParams::default())),
            &BeaconingRun::core(duration, 3),
            &mut Telemetry::disabled(),
        )
        .outcome;
        let ratio = base.total_bytes() as f64 / div.total_bytes() as f64;
        assert!(
            ratio > 4.0,
            "reduction at {num_core} cores only {ratio:.1}x"
        );
    }
}
