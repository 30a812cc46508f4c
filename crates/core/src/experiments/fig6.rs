//! Figures 6a / 6b: path quality of the SCION path construction
//! algorithms vs BGP multi-path vs the optimum, on the core-beaconing
//! topology.
//!
//! For each sampled ordered AS pair `(origin, holder)`, the per-series
//! value is the max-flow under unit link capacities over:
//!
//! * **optimum** — all core links ("All Paths (optimum)");
//! * **SCION Baseline (60)** and **SCION Diversity (15 / 30 / 60 / ∞)** —
//!   the links of the beacons stored at the holder for that origin after
//!   the beaconing run (the storage limit is the paper's parenthesized
//!   parameter);
//! * **BGP** — all parallel links along the converged BGP best path.
//!
//! That one value is simultaneously Fig. 6a's "minimum number of failing
//! links disconnecting the pair" and Fig. 6b's "capacity in multiples of
//! inter-AS links" (§5.3 equates the objectives; see `scion-analysis`).

use std::collections::HashMap;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::Serialize;

use scion_analysis::quality::{optimum_quality, pair_quality};
use scion_beaconing::paths::known_paths;
use scion_beaconing::{run_beaconing, Algorithm, BeaconingConfig, BeaconingRun, DiversityParams};
use scion_bgp::{best_paths_with_policy, bgp_multipath_links, PolicyMode};
use scion_telemetry::Telemetry;
use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::SimTime;

use crate::experiments::RunCtx;

/// Quality values per series, index-aligned with `pairs`.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Result {
    /// Sampled ordered pairs as `(origin ASN, holder ASN)`.
    pub pairs: Vec<(u64, u64)>,
    /// Series name → per-pair max-flow values.
    pub series: Vec<(String, Vec<u64>)>,
    /// Optimum per pair.
    pub optimum: Vec<u64>,
    /// Σ series / Σ optimum — the paper's "99 %, 97 %, 95 %, 82 % of the
    /// optimal capacity" numbers.
    pub fraction_of_optimum: Vec<(String, f64)>,
}

/// The §5.1 series: storage limits per algorithm.
fn series_configs(params: &crate::scale::ScaleParams) -> Vec<(String, BeaconingConfig)> {
    let mk = |name: &str, algorithm, storage_limit| {
        (
            name.to_string(),
            BeaconingConfig {
                storage_limit,
                ..params.beaconing_config(algorithm)
            },
        )
    };
    vec![
        mk("SCION Baseline (60)", Algorithm::Baseline, Some(60)),
        mk(
            "SCION Diversity (15)",
            Algorithm::Diversity(DiversityParams::default()),
            Some(15),
        ),
        mk(
            "SCION Diversity (30)",
            Algorithm::Diversity(DiversityParams::default()),
            Some(30),
        ),
        mk(
            "SCION Diversity (60)",
            Algorithm::Diversity(DiversityParams::default()),
            Some(60),
        ),
        mk(
            "SCION Diversity (inf)",
            Algorithm::Diversity(DiversityParams::default()),
            None,
        ),
    ]
}

/// Samples `count` distinct ordered core pairs deterministically.
pub fn sample_pairs(topo: &AsTopology, count: usize, seed: u64) -> Vec<(AsIndex, AsIndex)> {
    let cores: Vec<AsIndex> = topo.core_ases().collect();
    let mut all: Vec<(AsIndex, AsIndex)> = Vec::new();
    for &a in &cores {
        for &b in &cores {
            if a != b {
                all.push((a, b));
            }
        }
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xf16a);
    all.shuffle(&mut rng);
    all.truncate(count);
    all
}

/// Runs the Figure 6 pipeline on a prepared core topology. Exposed
/// separately so the SCIONLab experiment (Appendix B) can reuse it.
pub fn run_quality_on(
    core: &AsTopology,
    configs: &[(String, BeaconingConfig)],
    pairs: &[(AsIndex, AsIndex)],
    sim_duration: scion_types::Duration,
    seed: u64,
) -> Fig6Result {
    let now = SimTime::ZERO + sim_duration;
    let core_links: Vec<LinkIndex> = core.core_links();

    let optimum: Vec<u64> = pairs
        .iter()
        .map(|&(o, h)| optimum_quality(core, &core_links, o, h).value)
        .collect();

    let mut series: Vec<(String, Vec<u64>)> = Vec::new();

    // SCION series.
    for (name, cfg) in configs {
        let run = BeaconingRun::core(sim_duration, seed);
        let outcome = run_beaconing(core, cfg, &run, &mut Telemetry::disabled()).outcome;
        let values: Vec<u64> = pairs
            .iter()
            .map(|&(origin, holder)| {
                let Some(srv) = outcome.server(holder) else {
                    return 0;
                };
                let paths = known_paths(core, srv, core.node(origin).ia, now);
                pair_quality(core, &paths, origin, holder).value
            })
            .collect();
        series.push((name.clone(), values));
    }

    // BGP multi-path series: one converged run per distinct origin. Among
    // core ASes every link is transit (and shortest-path is BGP's best
    // case, which §5.3 grants it), so the Gao-Rexford export filter is
    // lifted here.
    let mut by_origin: HashMap<AsIndex, Vec<usize>> = HashMap::new();
    for (i, &(o, _)) in pairs.iter().enumerate() {
        by_origin.entry(o).or_default().push(i);
    }
    let mut bgp_values = vec![0u64; pairs.len()];
    for (&origin, idxs) in &by_origin {
        let best = best_paths_with_policy(core, origin, seed, PolicyMode::ShortestPath);
        for &i in idxs {
            let (_, holder) = pairs[i];
            if let Some(links) = bgp_multipath_links(core, holder, &best[holder.as_usize()]) {
                bgp_values[i] = pair_quality(core, &[links], origin, holder).value;
            }
        }
    }
    series.push(("BGP".to_string(), bgp_values));

    let opt_sum: u64 = optimum.iter().sum();
    let fraction_of_optimum = series
        .iter()
        .map(|(name, vals)| {
            let s: u64 = vals.iter().sum();
            (
                name.clone(),
                if opt_sum == 0 {
                    0.0
                } else {
                    s as f64 / opt_sum as f64
                },
            )
        })
        .collect();

    Fig6Result {
        pairs: pairs
            .iter()
            .map(|&(o, h)| (core.node(o).ia.asn.value(), core.node(h).ia.asn.value()))
            .collect(),
        series,
        optimum,
        fraction_of_optimum,
    }
}

/// Runs Figures 6a/6b on the context's world.
pub fn run(ctx: &mut RunCtx) -> Fig6Result {
    let world = ctx.world();
    let params = world.params;
    let pairs = sample_pairs(&world.core, params.quality_pairs, params.seed);
    run_quality_on(
        &world.core,
        &series_configs(&params),
        &pairs,
        params.sim_duration,
        params.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::world::World;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig6_tiny_has_expected_dominance_structure() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny));
        let get = |name: &str| -> f64 {
            r.fraction_of_optimum
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, f)| f)
                .unwrap_or_else(|| panic!("missing series {name}"))
        };
        let baseline = get("SCION Baseline (60)");
        let div60 = get("SCION Diversity (60)");
        let div_inf = get("SCION Diversity (inf)");
        let bgp = get("BGP");

        // Nothing exceeds the optimum.
        for (name, f) in &r.fraction_of_optimum {
            assert!(*f <= 1.0 + 1e-9, "{name} exceeds optimum: {f}");
        }
        // The paper's ordering: BGP worst, diversity beats baseline,
        // more storage helps diversity.
        assert!(bgp < baseline, "bgp {bgp} !< baseline {baseline}");
        assert!(
            div60 > baseline,
            "diversity(60) {div60} !> baseline {baseline}"
        );
        assert!(div_inf >= div60 - 1e-9);
        // Diversity with ample storage approaches the optimum.
        assert!(
            div_inf > 0.7,
            "diversity(inf) too far from optimum: {div_inf}"
        );
    }

    #[test]
    fn sampled_pairs_are_distinct_ordered_core_pairs() {
        let params = ExperimentScale::Tiny.params();
        let world = World::build(params);
        let pairs = sample_pairs(&world.core, 30, 1);
        assert_eq!(pairs.len(), 30);
        let set: std::collections::HashSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 30);
        for &(a, b) in &pairs {
            assert_ne!(a, b);
            assert!(world.core.node(a).core && world.core.node(b).core);
        }
    }
}
