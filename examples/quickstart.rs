//! Quickstart: build a small SCION network, run beaconing, and construct
//! an end-to-end multi-path forwarding path.
//!
//! ```text
//! cargo run --release -p scion-core --example quickstart
//! ```

use scion_core::beaconing::paths::known_paths;
use scion_core::prelude::*;
use scion_core::topology::isd::assign_isds;

fn main() {
    // 1. A synthetic Internet-like topology: 80 ASes grown by
    //    preferential attachment with provider/customer/peer labels and
    //    parallel inter-AS links.
    let internet = generate_internet(&GeneratorConfig::small(80, 7));
    println!(
        "generated Internet: {} ASes, {} physical links",
        internet.num_ases(),
        internet.num_links()
    );

    // 2. Derive a SCION core: the 12 best-connected ASes, grouped into
    //    ISDs of 4 (paper §5.1 does 2000 cores in ISDs of 10).
    let (mut core, _) = prune_to_top_degree(&internet, 12);
    let layout = assign_isds(&mut core, 4);
    println!(
        "core: {} core ASes across {} ISDs",
        core.num_ases(),
        layout.num_isds
    );

    // 3. Run six hours of core beaconing with the paper's
    //    path-diversity-based construction algorithm.
    let outcome = run_beaconing(
        &core,
        &BeaconingConfig::diversity(),
        &BeaconingRun::core(Duration::from_hours(6), 42),
        &mut Telemetry::disabled(),
    )
    .outcome;
    println!(
        "beaconing done: {} beacons delivered, {} sent on the wire",
        outcome.beacons_delivered,
        scion_core::report::human_bytes(outcome.total_bytes()),
    );

    // 4. Ask one AS which paths it now knows toward another.
    let now = SimTime::ZERO + Duration::from_hours(6);
    let holder = core.as_indices().last().expect("non-empty");
    let origin = core.as_indices().next().expect("non-empty");
    let srv = outcome
        .server(holder)
        .expect("core AS runs a beacon server");
    let paths = known_paths(&core, srv, core.node(origin).ia, now);
    println!(
        "{} knows {} link-level paths toward {}:",
        core.node(holder).ia,
        paths.len(),
        core.node(origin).ia
    );
    for (i, path) in paths.iter().take(5).enumerate() {
        let hops: Vec<String> = path
            .iter()
            .map(|&li| core.link_id(li).to_string())
            .collect();
        println!("  path {i}: {}", hops.join("  ->  "));
    }

    // 5. Path quality: how many link failures can this pair absorb?
    let resilience = max_flow(&core, paths.iter().flatten().copied(), origin, holder);
    let optimum = max_flow(&core, core.core_links(), origin, holder);
    println!("failure resilience: {resilience} (optimum on this topology: {optimum})");
}
