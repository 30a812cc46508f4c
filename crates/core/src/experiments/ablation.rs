//! Ablation of the diversity algorithm's design choices (not in the
//! paper; motivated by DESIGN.md §6).
//!
//! Each variant disables or distorts one ingredient of the scoring:
//!
//! * **no-age** (α = 0): Eq. 2 never decays unsent beacons — stale
//!   instances keep competing with fresh ones;
//! * **no-history** (max_geomean → ∞): the link-diversity score is ≈ 1
//!   for every candidate — selection degenerates to resend suppression
//!   without disjointness preference;
//! * **no-suppression** (γ = 0 ⇒ g = 1): previously-sent paths score like
//!   unsent ones — the bandwidth objective disappears;
//! * **threshold sweep**: how the score threshold trades overhead against
//!   quality.
//!
//! Output per variant: total beaconing bytes plus the fraction-of-optimum
//! quality over sampled pairs — the two axes the paper optimizes.

use serde::Serialize;

use scion_analysis::quality::{optimum_quality, pair_quality};
use scion_beaconing::paths::known_paths;
use scion_beaconing::{run_beaconing, Algorithm, BeaconingRun, DiversityParams};
use scion_telemetry::Telemetry;
use scion_topology::LinkIndex;
use scion_types::SimTime;

use crate::experiments::fig6::sample_pairs;
use crate::experiments::RunCtx;

/// One ablation variant's outcome.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    pub variant: String,
    pub total_bytes: u64,
    pub fraction_of_optimum: f64,
}

/// Full ablation result.
#[derive(Clone, Debug, Serialize)]
pub struct AblationResult {
    pub rows: Vec<AblationRow>,
}

fn variants() -> Vec<(String, DiversityParams)> {
    let d = DiversityParams::default();
    vec![
        ("default".into(), d),
        (
            "no-age (alpha=0)".into(),
            DiversityParams { alpha: 0.0, ..d },
        ),
        (
            "no-history (max_gm=1e9)".into(),
            DiversityParams {
                max_geomean: 1e9,
                ..d
            },
        ),
        (
            "no-suppression (gamma=0)".into(),
            DiversityParams { gamma: 0.0, ..d },
        ),
        (
            "threshold=0.05".into(),
            DiversityParams {
                score_threshold: 0.05,
                ..d
            },
        ),
        (
            "threshold=0.7".into(),
            DiversityParams {
                score_threshold: 0.7,
                ..d
            },
        ),
    ]
}

/// Runs the ablation on the context's world.
pub fn run(ctx: &mut RunCtx) -> AblationResult {
    let world = ctx.world();
    let params = world.params;
    let pairs = sample_pairs(&world.core, params.quality_pairs.min(100), params.seed);
    let core_links: Vec<LinkIndex> = world.core.core_links();
    let now = SimTime::ZERO + params.sim_duration;

    let optimum: u64 = pairs
        .iter()
        .map(|&(o, h)| optimum_quality(&world.core, &core_links, o, h).value)
        .sum();

    let rows = variants()
        .into_iter()
        .map(|(variant, p)| {
            let cfg = params.beaconing_config(Algorithm::Diversity(p));
            let run = BeaconingRun::core(params.sim_duration, params.seed);
            let outcome =
                run_beaconing(&world.core, &cfg, &run, &mut Telemetry::disabled()).outcome;
            let achieved: u64 = pairs
                .iter()
                .map(|&(origin, holder)| {
                    outcome
                        .server(holder)
                        .map(|srv| {
                            let paths =
                                known_paths(&world.core, srv, world.core.node(origin).ia, now);
                            pair_quality(&world.core, &paths, origin, holder).value
                        })
                        .unwrap_or(0)
                })
                .sum();
            AblationRow {
                variant,
                total_bytes: outcome.total_bytes(),
                fraction_of_optimum: if optimum == 0 {
                    0.0
                } else {
                    achieved as f64 / optimum as f64
                },
            }
        })
        .collect();

    AblationResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn ablation_shows_each_ingredient_matters() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny));
        let get = |name: &str| {
            r.rows
                .iter()
                .find(|row| row.variant.starts_with(name))
                .unwrap_or_else(|| panic!("variant {name}"))
                .clone()
        };
        let default = get("default");
        let no_history = get("no-history");
        let no_supp = get("no-suppression");
        // Without the link-history diversity signal, nothing ever looks
        // redundant: the bandwidth objective collapses and overhead
        // explodes relative to the full algorithm.
        assert!(
            no_history.total_bytes > default.total_bytes * 3,
            "history saves bandwidth: {} vs {}",
            no_history.total_bytes,
            default.total_bytes
        );
        // Without the Eq. 3 exponent (γ = 0) the near-expiry score
        // recovery disappears: previously-sent paths are never boosted
        // back over the threshold, refreshes stop, and end-of-run quality
        // degrades (the connectivity objective).
        assert!(
            no_supp.fraction_of_optimum < default.fraction_of_optimum,
            "gamma drives refresh: {} vs {}",
            no_supp.fraction_of_optimum,
            default.fraction_of_optimum
        );
        // The full algorithm stays within a sane quality band.
        assert!(default.fraction_of_optimum > 0.5);
    }
}
