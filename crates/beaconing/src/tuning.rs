//! Grid search for the diversity parameters (§4.2: "we find suitable
//! parameters by first performing a grid search with exponentially spaced
//! values to narrow down the set of parameters followed by a grid search
//! with linearly spaced values").
//!
//! The objective balances the three §4.2 goals measurable from a run:
//! *coverage* (every AS pair should know ≥1 valid path at all times — a
//! hard constraint), *diversity* (distinct links per pair, the quantity
//! Fig. 6 evaluates), and *overhead* (bytes sent). The score is
//! `diversity / log2(bytes)` with zero-coverage configurations rejected,
//! which is monotone in what the paper optimizes without requiring the
//! full max-flow evaluation at tuning time.

use scion_telemetry::Telemetry;
use scion_topology::{AsIndex, AsTopology};
use scion_types::{Duration, SimTime};

use crate::config::{Algorithm, BeaconingConfig, DiversityParams};
use crate::driver::{run_beaconing, BeaconingRun};
use crate::paths::known_paths;

/// Outcome of evaluating one parameter set.
#[derive(Clone, Debug)]
pub struct TuningResult {
    pub params: DiversityParams,
    /// Total beaconing bytes sent during the run.
    pub total_bytes: u64,
    /// Fraction of ordered core pairs with at least one known path.
    pub coverage: f64,
    /// Mean number of distinct links known per covered pair.
    pub avg_distinct_links: f64,
    /// The scalar objective (higher is better).
    pub objective: f64,
}

/// Evaluates one parameter set on `topo`.
pub fn evaluate(
    topo: &AsTopology,
    base: &BeaconingConfig,
    params: DiversityParams,
    sim_duration: Duration,
    seed: u64,
) -> TuningResult {
    let cfg = BeaconingConfig {
        algorithm: Algorithm::Diversity(params),
        ..*base
    };
    let outcome = run_beaconing(
        topo,
        &cfg,
        &BeaconingRun::core(sim_duration, seed),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + sim_duration;

    let cores: Vec<AsIndex> = topo.core_ases().collect();
    let mut covered = 0usize;
    let mut pairs = 0usize;
    let mut distinct_total = 0usize;
    for &holder in &cores {
        let Some(srv) = outcome.server(holder) else {
            continue;
        };
        for &origin in &cores {
            if origin == holder {
                continue;
            }
            pairs += 1;
            let paths = known_paths(topo, srv, topo.node(origin).ia, now);
            if !paths.is_empty() {
                covered += 1;
                let links: std::collections::HashSet<_> = paths.iter().flatten().copied().collect();
                distinct_total += links.len();
            }
        }
    }
    let coverage = if pairs == 0 {
        0.0
    } else {
        covered as f64 / pairs as f64
    };
    let avg_distinct_links = if covered == 0 {
        0.0
    } else {
        distinct_total as f64 / covered as f64
    };
    let total_bytes = outcome.total_bytes();
    let objective = if coverage < 1.0 || total_bytes == 0 {
        0.0
    } else {
        avg_distinct_links / (total_bytes as f64).log2()
    };
    TuningResult {
        params,
        total_bytes,
        coverage,
        avg_distinct_links,
        objective,
    }
}

/// Two-stage grid search: exponential coarse sweep, then a linear
/// refinement around the coarse winner. Returns all evaluated results
/// sorted best-first.
pub fn grid_search(
    topo: &AsTopology,
    base: &BeaconingConfig,
    sim_duration: Duration,
    seed: u64,
) -> Vec<TuningResult> {
    let mut results = Vec::new();

    // Stage 1: exponentially spaced values.
    for &alpha in &[1.0, 2.0, 4.0, 8.0] {
        for &beta in &[1.0, 2.0, 4.0] {
            for &gamma in &[1.0, 2.0, 4.0] {
                for &score_threshold in &[0.1, 0.3] {
                    results.push(evaluate(
                        topo,
                        base,
                        DiversityParams {
                            alpha,
                            beta,
                            gamma,
                            max_geomean: 8.0,
                            score_threshold,
                        },
                        sim_duration,
                        seed,
                    ));
                }
            }
        }
    }
    let best = results
        .iter()
        .max_by(|a, b| a.objective.total_cmp(&b.objective))
        .expect("non-empty grid")
        .params;

    // Stage 2: linear refinement ±50% around the coarse winner.
    for &fa in &[0.5, 1.0, 1.5] {
        for &fb in &[0.5, 1.0, 1.5] {
            for &fg in &[0.5, 1.0, 1.5] {
                if fa == 1.0 && fb == 1.0 && fg == 1.0 {
                    continue; // already evaluated
                }
                results.push(evaluate(
                    topo,
                    base,
                    DiversityParams {
                        alpha: best.alpha * fa,
                        beta: (best.beta * fb).max(1.0),
                        gamma: (best.gamma * fg).max(1.0),
                        ..best
                    },
                    sim_duration,
                    seed,
                ));
            }
        }
    }

    results.sort_by(|a, b| b.objective.total_cmp(&a.objective));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_topology::{topology_from_edges, Relationship};

    fn tiny_core() -> AsTopology {
        let mut t = topology_from_edges(&[
            (1, 2, Relationship::PeerToPeer, 2),
            (2, 3, Relationship::PeerToPeer, 1),
            (3, 1, Relationship::PeerToPeer, 1),
        ]);
        for idx in t.as_indices().collect::<Vec<_>>() {
            t.set_core(idx, true);
        }
        t
    }

    #[test]
    fn evaluate_produces_full_coverage_on_triangle() {
        let topo = tiny_core();
        let r = evaluate(
            &topo,
            &BeaconingConfig::default(),
            DiversityParams::default(),
            Duration::from_hours(1),
            1,
        );
        assert_eq!(r.coverage, 1.0);
        assert!(r.avg_distinct_links >= 1.0);
        assert!(r.total_bytes > 0);
        assert!(r.objective > 0.0);
    }

    #[test]
    fn objective_rejects_zero_coverage() {
        // Degenerate: threshold so high nothing is ever sent.
        let topo = tiny_core();
        let r = evaluate(
            &topo,
            &BeaconingConfig::default(),
            DiversityParams {
                score_threshold: 2.0, // scores are capped at 1
                ..DiversityParams::default()
            },
            Duration::from_hours(1),
            1,
        );
        assert_eq!(r.coverage, 0.0);
        assert_eq!(r.objective, 0.0);
    }
}
