//! Head-to-head: baseline vs path-diversity-based path construction on
//! one Internet-like core — the paper's §4.2 motivation in one run.
//!
//! Prints, per algorithm: beaconing bytes over six hours, beacons
//! delivered, and path quality (fraction of the optimal resilience over
//! sampled AS pairs), plus the BGP best case for reference.
//!
//! ```text
//! cargo run --release -p scion-core --example algorithm_comparison
//! ```

use scion_core::analysis::quality::{optimum_quality, pair_quality};
use scion_core::beaconing::paths::known_paths;
use scion_core::bgp::{best_paths_with_policy, bgp_multipath_links, PolicyMode};
use scion_core::prelude::*;
use scion_core::report::human_bytes;
use scion_core::topology::isd::assign_isds;

fn main() {
    let internet = generate_internet(&GeneratorConfig::small(200, 11));
    let (mut core, _) = prune_to_top_degree(&internet, 20);
    assign_isds(&mut core, 5);
    let duration = Duration::from_hours(6);
    let now = SimTime::ZERO + duration;

    // Sample ordered pairs.
    let cores: Vec<AsIndex> = core.core_ases().collect();
    let mut pairs = Vec::new();
    for (i, &a) in cores.iter().enumerate() {
        for &b in cores.iter().skip(i + 1).take(3) {
            pairs.push((a, b));
        }
    }
    let core_links = core.core_links();
    let optimum: u64 = pairs
        .iter()
        .map(|&(o, h)| optimum_quality(&core, &core_links, o, h).value)
        .sum();

    println!(
        "core: {} ASes, {} core links; {} sampled pairs; optimal Σ resilience = {optimum}\n",
        core.num_ases(),
        core_links.len(),
        pairs.len()
    );
    println!(
        "{:<22} {:>12} {:>10} {:>20}",
        "algorithm", "bytes (6h)", "beacons", "fraction of optimum"
    );

    for (name, cfg) in [
        ("baseline", BeaconingConfig::default()),
        ("diversity-based", BeaconingConfig::diversity()),
    ] {
        let outcome = run_beaconing(
            &core,
            &cfg,
            &BeaconingRun::core(duration, 5),
            &mut Telemetry::disabled(),
        )
        .outcome;
        let achieved: u64 = pairs
            .iter()
            .map(|&(origin, holder)| {
                let srv = outcome.server(holder).expect("core AS");
                let paths = known_paths(&core, srv, core.node(origin).ia, now);
                pair_quality(&core, &paths, origin, holder).value
            })
            .sum();
        println!(
            "{:<22} {:>12} {:>10} {:>20.3}",
            name,
            human_bytes(outcome.total_bytes()),
            outcome.beacons_delivered,
            achieved as f64 / optimum as f64,
        );
    }

    // BGP best case for reference (single best path + parallel links).
    let mut bgp_total = 0u64;
    let origins: std::collections::HashSet<AsIndex> = pairs.iter().map(|&(o, _)| o).collect();
    for origin in origins {
        let best = best_paths_with_policy(&core, origin, 5, PolicyMode::ShortestPath);
        for &(o, holder) in pairs.iter().filter(|&&(o, _)| o == origin) {
            if let Some(links) = bgp_multipath_links(&core, holder, &best[holder.as_usize()]) {
                bgp_total += pair_quality(&core, &[links], o, holder).value;
            }
        }
    }
    println!(
        "{:<22} {:>12} {:>10} {:>20.3}",
        "BGP (best case)",
        "-",
        "-",
        bgp_total as f64 / optimum as f64
    );
}
