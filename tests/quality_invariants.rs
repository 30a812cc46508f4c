//! Property-based invariants of the path-quality pipeline on randomized
//! topologies: disseminated quality never exceeds the optimum, runs are
//! deterministic, and more storage never hurts the diversity algorithm.

use proptest::prelude::*;

use scion_core::analysis::quality::{optimum_quality, pair_quality};
use scion_core::beaconing::paths::known_paths;
use scion_core::prelude::*;
use scion_core::topology::isd::assign_isds;

fn quality_sum(
    core: &AsTopology,
    cfg: &BeaconingConfig,
    duration: Duration,
    seed: u64,
) -> (u64, u64) {
    let out = run_beaconing(
        core,
        cfg,
        &BeaconingRun::core(duration, seed),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + duration;
    let cores: Vec<AsIndex> = core.core_ases().collect();
    let links = core.core_links();
    let mut achieved = 0;
    let mut optimum = 0;
    for &origin in &cores {
        for &holder in &cores {
            if origin == holder {
                continue;
            }
            optimum += optimum_quality(core, &links, origin, holder).value;
            let srv = out.server(holder).expect("core AS");
            let paths = known_paths(core, srv, core.node(origin).ia, now);
            achieved += pair_quality(core, &paths, origin, holder).value;
        }
    }
    (achieved, optimum)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6, // each case runs several full simulations
        .. ProptestConfig::default()
    })]

    #[test]
    fn prop_quality_never_exceeds_optimum(seed in 0u64..1000, num_core in 6usize..12) {
        let internet = generate_internet(&GeneratorConfig::small(80, seed));
        let (mut core, _) = prune_to_top_degree(&internet, num_core);
        assign_isds(&mut core, 4);
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            pcb_lifetime: Duration::from_secs(3600),
            ..BeaconingConfig::diversity()
        };
        let (achieved, optimum) = quality_sum(&core, &cfg, Duration::from_secs(3600), seed);
        prop_assert!(achieved <= optimum, "achieved {achieved} > optimum {optimum}");
        prop_assert!(achieved > 0, "diversity must find some paths");
    }

    #[test]
    fn prop_runs_are_deterministic(seed in 0u64..1000) {
        let internet = generate_internet(&GeneratorConfig::small(60, seed));
        let (mut core, _) = prune_to_top_degree(&internet, 8);
        assign_isds(&mut core, 4);
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            pcb_lifetime: Duration::from_secs(3600),
            ..BeaconingConfig::diversity()
        };
        let a = run_beaconing(&core, &cfg, &BeaconingRun::core(Duration::from_secs(1800), seed), &mut Telemetry::disabled()).outcome;
        let b = run_beaconing(&core, &cfg, &BeaconingRun::core(Duration::from_secs(1800), seed), &mut Telemetry::disabled()).outcome;
        prop_assert_eq!(a.total_bytes(), b.total_bytes());
        prop_assert_eq!(a.beacons_delivered, b.beacons_delivered);
        prop_assert_eq!(a.traffic.per_interface(), b.traffic.per_interface());
    }
}

#[test]
fn more_storage_weakly_improves_diversity_quality() {
    let internet = generate_internet(&GeneratorConfig::small(120, 31));
    let (mut core, _) = prune_to_top_degree(&internet, 10);
    assign_isds(&mut core, 5);
    let duration = Duration::from_secs(3600);
    let mut prev = 0u64;
    for storage in [5usize, 15, 60] {
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            pcb_lifetime: Duration::from_secs(3600),
            storage_limit: Some(storage),
            ..BeaconingConfig::diversity()
        };
        let (achieved, _) = quality_sum(&core, &cfg, duration, 31);
        assert!(
            achieved + achieved / 10 >= prev,
            "storage {storage} dropped quality: {achieved} vs previous {prev}"
        );
        prev = prev.max(achieved);
    }
}

#[test]
fn baseline_and_diversity_both_reach_full_coverage() {
    let internet = generate_internet(&GeneratorConfig::small(100, 13));
    let (mut core, _) = prune_to_top_degree(&internet, 10);
    assign_isds(&mut core, 5);
    let duration = Duration::from_secs(3600);
    for cfg in [
        BeaconingConfig {
            interval: Duration::from_secs(100),
            pcb_lifetime: Duration::from_secs(3600),
            ..BeaconingConfig::default()
        },
        BeaconingConfig {
            interval: Duration::from_secs(100),
            pcb_lifetime: Duration::from_secs(3600),
            ..BeaconingConfig::diversity()
        },
    ] {
        let out = run_beaconing(
            &core,
            &cfg,
            &BeaconingRun::core(duration, 13),
            &mut Telemetry::disabled(),
        )
        .outcome;
        let now = SimTime::ZERO + duration;
        for origin in core.core_ases() {
            for holder in core.core_ases() {
                if origin == holder {
                    continue;
                }
                let srv = out.server(holder).unwrap();
                assert!(
                    !srv.store().beacons_of(core.node(origin).ia, now).is_empty(),
                    "{:?}: no live path {} -> {}",
                    cfg.algorithm,
                    core.node(origin).ia,
                    core.node(holder).ia
                );
            }
        }
    }
}
