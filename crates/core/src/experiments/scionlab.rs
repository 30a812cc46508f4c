//! Appendix B: the SCIONLab-testbed evaluation (Figures 7, 8, 9).
//!
//! Runs on the bundled 21-core SCIONLab-like topology
//! (`scion_topology::scionlab`). The "Measurement" series of Figs. 7/8 is
//! substituted by the baseline algorithm with PCB storage limit 5, which
//! Appendix B itself observes "closely resembles the data gathered from
//! SCIONLab". Figure 9 is the CDF of per-core-interface beaconing
//! bandwidth; the paper's observation is "less than 4 KB/s per interface
//! for almost 80 % of all core interfaces".

use serde::Serialize;

use scion_analysis::Cdf;
use scion_beaconing::{run_beaconing, Algorithm, BeaconingConfig, BeaconingRun, DiversityParams};
use scion_telemetry::Telemetry;
use scion_topology::scionlab::scionlab_topology;

use crate::experiments::fig6::{run_quality_on, sample_pairs, Fig6Result};
use crate::experiments::RunCtx;

/// The Appendix B series: baseline(5) as the measurement proxy, diversity
/// at storage limits 5/10/15/60.
fn scionlab_series() -> Vec<(String, BeaconingConfig)> {
    let mk = |name: &str, algorithm, storage_limit| {
        (
            name.to_string(),
            BeaconingConfig {
                algorithm,
                storage_limit,
                ..BeaconingConfig::default()
            },
        )
    };
    let div = Algorithm::Diversity(DiversityParams::sparse());
    vec![
        mk("Measurement (Baseline 5)", Algorithm::Baseline, Some(5)),
        mk("SCION Diversity (5)", div, Some(5)),
        mk("SCION Diversity (10)", div, Some(10)),
        mk("SCION Diversity (15)", div, Some(15)),
        mk("SCION Diversity (60)", div, Some(60)),
    ]
}

/// Runs Figures 7/8 (quality on SCIONLab). The scale only affects the
/// simulated duration (the topology is fixed at 21 cores).
pub fn run_fig78(ctx: &mut RunCtx) -> Fig6Result {
    let params = ctx.params;
    let topo = scionlab_topology();
    // All ordered core pairs: 21 × 20 = 420, cheap enough everywhere.
    let pairs = sample_pairs(&topo, 420, params.seed);
    run_quality_on(
        &topo,
        &scionlab_series(),
        &pairs,
        params.sim_duration,
        params.seed,
    )
}

/// Figure 9 result: the per-interface bandwidth distribution.
#[derive(Clone, Debug, Serialize)]
pub struct Fig9Result {
    /// Bytes per second per active core interface, sorted.
    pub interface_bps: Vec<f64>,
    /// Fraction of interfaces below 4 KB/s (the paper's ~80 % check).
    pub fraction_below_4kbps: f64,
    /// CDF points `(Bps, fraction)` for plotting.
    pub cdf_points: Vec<(f64, f64)>,
}

/// Runs Figure 9: per-interface core-beaconing bandwidth on SCIONLab
/// (baseline algorithm, as deployed on the testbed).
pub fn run_fig9(ctx: &mut RunCtx) -> Fig9Result {
    let params = ctx.params;
    let topo = scionlab_topology();
    let cfg = BeaconingConfig {
        storage_limit: Some(5),
        ..BeaconingConfig::default()
    };
    let run = BeaconingRun::core(params.sim_duration, params.seed);
    let outcome = run_beaconing(&topo, &cfg, &run, &mut Telemetry::disabled()).outcome;

    let secs = params.sim_duration.as_secs_f64();
    let mut bps: Vec<f64> = outcome
        .traffic
        .per_interface()
        .into_iter()
        .map(|((_, _ifid), c)| c.bytes as f64 / secs)
        .collect();
    // Interfaces that never sent are part of the distribution too: count
    // every core interface.
    let active: usize = bps.len();
    let total_core_interfaces: usize = topo.core_links().len() * 2;
    bps.extend(std::iter::repeat_n(
        0.0,
        total_core_interfaces.saturating_sub(active),
    ));
    bps.sort_by(|a, b| a.total_cmp(b));

    let cdf = Cdf::new(bps.clone());
    let fraction_below_4kbps = cdf.at(4_000.0);
    Fig9Result {
        interface_bps: bps,
        fraction_below_4kbps,
        cdf_points: cdf.points(60),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn fig9_bandwidth_is_testbed_scale() {
        let r = run_fig9(&mut RunCtx::new(ExperimentScale::Tiny));
        assert!(!r.interface_bps.is_empty());
        // The paper's observation: the large majority of interfaces stay
        // in the single-digit KB/s range.
        assert!(
            r.fraction_below_4kbps > 0.5,
            "fraction below 4KB/s = {}",
            r.fraction_below_4kbps
        );
        // Nothing pathological: no interface above 100 KB/s on a
        // 21-core testbed.
        let max = r.interface_bps.last().copied().unwrap();
        assert!(max < 100_000.0, "max interface bandwidth {max} Bps");
    }

    #[test]
    fn fig78_diversity_with_more_storage_dominates() {
        let r = run_fig78(&mut RunCtx::new(ExperimentScale::Tiny));
        let get = |name: &str| -> f64 {
            r.fraction_of_optimum
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, f)| f)
                .unwrap()
        };
        let d5 = get("SCION Diversity (5)");
        let d60 = get("SCION Diversity (60)");
        // On the sparse SCIONLab topology storage barely matters (App. B:
        // "increasing the PCB storage limit over 15 provides negligible
        // benefits") — require only near-parity, not strict dominance.
        assert!(d60 >= d5 - 0.05, "d60 {d60} vs d5 {d5}");
        // And even small storage does well (App. B: "choosing the
        // shortest paths often yields paths without overlapping links").
        assert!(d5 > 0.5);
    }
}
