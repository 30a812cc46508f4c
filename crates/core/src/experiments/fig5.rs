//! Figure 5: distribution, over RouteViews-style monitors, of monthly
//! control-plane overhead **relative to BGP** for BGPsec, SCION core
//! beaconing (baseline and diversity-based), and SCION intra-ISD
//! beaconing.
//!
//! Method (§5.2): measure received control-plane traffic "in the same ASes
//! and during the same time period". BGP/BGPsec come from the per-origin
//! dynamics over one month; SCION beaconing is simulated for the paper's
//! six-hour window and extrapolated to a month "by leveraging the
//! periodicity of announcements and multiplying the traffic by the number
//! of periods in a month". Extrapolating periodicity presupposes the
//! window shows the *periodic* (steady-state) rate, so each beaconing run
//! warms up for one PCB lifetime before the measured window starts — the
//! diversity algorithm's one-time cold-start exploration burst belongs to
//! deployment, not to every month.

use serde::Serialize;

use scion_analysis::{Cdf, Summary};
use scion_beaconing::{run_beaconing, BeaconingOutcome, BeaconingRun, Scope};
use scion_bgp::monthly::pick_monitors;
use scion_bgp::{monthly_overhead, MonthlyConfig};
use scion_telemetry::phase;
use scion_topology::{AsIndex, AsTopology};
use scion_types::Duration;

use crate::experiments::RunCtx;

/// One monitor's monthly byte totals and ratios.
#[derive(Clone, Debug, Serialize)]
pub struct MonitorRow {
    pub monitor_asn: u64,
    pub bgp_bytes: u64,
    pub bgpsec_rel: f64,
    /// `None` when the monitor is absent from the respective derived
    /// topology (it was pruned / outside the ISD closure).
    pub core_baseline_rel: Option<f64>,
    pub core_diversity_rel: Option<f64>,
    pub intra_isd_rel: Option<f64>,
}

/// Summary statistics of one relative-overhead series.
#[derive(Clone, Debug, Serialize)]
pub struct SeriesSummary {
    pub series: String,
    pub monitors: usize,
    pub summary: Summary,
}

/// Full Figure 5 result.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Result {
    pub rows: Vec<MonitorRow>,
    pub summaries: Vec<SeriesSummary>,
    /// Network-wide monthly totals (bytes), for the EXPERIMENTS.md record.
    pub totals: Fig5Totals,
}

#[derive(Clone, Debug, Serialize)]
pub struct Fig5Totals {
    pub bgp: u64,
    pub bgpsec: u64,
    pub core_baseline: u64,
    pub core_diversity: u64,
    pub intra_isd: u64,
}

/// Bytes *received* by `idx` in a beaconing run: the sum of what each
/// neighbour sent over the far-end interfaces of `idx`'s links. (Beaconing
/// traffic is counted at the sender's egress interface, matching §5.2's
/// measurement point; reception is its mirror image.)
pub fn received_bytes(topo: &AsTopology, outcome: &BeaconingOutcome, idx: AsIndex) -> u64 {
    let mut total = 0;
    for (li, nb, _, remote_if) in topo.incident(idx) {
        let _ = li;
        total += outcome.traffic.interface(nb, remote_if).bytes;
    }
    total
}

/// Runs the Figure 5 pipeline on the context's world. A recording run
/// keeps each of the four runs under its own run label (`bgp_month`,
/// `core_baseline`, `core_diversity`, `intra_isd`).
pub fn run(ctx: &mut RunCtx) -> Fig5Result {
    let world = ctx.world();
    let mut handle = ctx.telemetry();
    let tel = &mut handle;
    let params = world.params;

    // --- BGP + BGPsec: one month of dynamics on the full topology. ---
    // The monthly workload fans out over rayon internally, so only the
    // aggregate wall-clock phase is profiled here.
    tel.begin_run("bgp_month");
    let span = tel.profile.span(phase::BGP_MONTH);
    let monthly = monthly_overhead(
        &world.internet,
        &MonthlyConfig {
            bgpsec_extrapolate_to: params.bgpsec_extrapolate_to,
            ..MonthlyConfig::default()
        },
    );
    tel.profile.finish(span);

    // --- SCION core beaconing: baseline and diversity. ---
    let base_cfg = params.beaconing_config(scion_beaconing::Algorithm::Baseline);
    let div_cfg = params.beaconing_config(scion_beaconing::Algorithm::Diversity(
        scion_beaconing::DiversityParams::default(),
    ));
    let core_run = BeaconingRun {
        warmup: params.pcb_lifetime,
        ..BeaconingRun::core(params.sim_duration, params.seed)
    };
    tel.begin_run("core_baseline");
    let core_base = run_beaconing(&world.core, &base_cfg, &core_run, tel).outcome;
    tel.begin_run("core_diversity");
    let core_div = run_beaconing(&world.core, &div_cfg, &core_run, tel).outcome;

    // --- SCION intra-ISD beaconing (baseline only, as in §5.1). ---
    tel.begin_run("intra_isd");
    let intra_run = BeaconingRun {
        scope: Scope::IntraIsd,
        ..core_run
    };
    let intra = run_beaconing(&world.intra, &base_cfg, &intra_run, tel).outcome;

    // Extrapolate the beaconing window to one month.
    let month = Duration::from_days(30);
    let factor = month.as_micros() as f64 / params.sim_duration.as_micros() as f64;
    let scaled = |b: u64| (b as f64 * factor) as u64;

    let monitors = pick_monitors(&world.internet, params.num_monitors);
    let mut rows = Vec::with_capacity(monitors.len());
    for &m in &monitors {
        let bgp = monthly.bgp_bytes[m.as_usize()].max(1);
        let rel = |v: Option<u64>| v.map(|b| b as f64 / bgp as f64);
        rows.push(MonitorRow {
            monitor_asn: world.internet.node(m).ia.asn.value(),
            bgp_bytes: bgp,
            bgpsec_rel: monthly.bgpsec_bytes[m.as_usize()] as f64 / bgp as f64,
            core_baseline_rel: rel(world.core_mapping[m.as_usize()]
                .map(|c| scaled(received_bytes(&world.core, &core_base, c)))),
            core_diversity_rel: rel(world.core_mapping[m.as_usize()]
                .map(|c| scaled(received_bytes(&world.core, &core_div, c)))),
            intra_isd_rel: rel(world.intra_mapping[m.as_usize()]
                .map(|i| scaled(received_bytes(&world.intra, &intra, i)))),
        });
    }

    let summaries = summarize(&rows);
    let totals = Fig5Totals {
        bgp: monthly.bgp_bytes.iter().sum(),
        bgpsec: monthly.bgpsec_bytes.iter().sum(),
        core_baseline: scaled(core_base.total_bytes()),
        core_diversity: scaled(core_div.total_bytes()),
        intra_isd: scaled(intra.total_bytes()),
    };
    ctx.keep("", handle);
    Fig5Result {
        rows,
        summaries,
        totals,
    }
}

type RowProjection = Box<dyn Fn(&MonitorRow) -> Option<f64>>;

fn summarize(rows: &[MonitorRow]) -> Vec<SeriesSummary> {
    let series: [(&str, RowProjection); 4] = [
        ("BGPsec / BGP", Box::new(|r| Some(r.bgpsec_rel))),
        (
            "SCION core baseline / BGP",
            Box::new(|r| r.core_baseline_rel),
        ),
        (
            "SCION core diversity / BGP",
            Box::new(|r| r.core_diversity_rel),
        ),
        ("SCION intra-ISD / BGP", Box::new(|r| r.intra_isd_rel)),
    ];
    series
        .iter()
        .filter_map(|(name, f)| {
            let vals: Vec<f64> = rows.iter().filter_map(f.as_ref()).collect();
            if vals.is_empty() {
                return None;
            }
            let cdf = Cdf::new(vals);
            Some(SeriesSummary {
                series: name.to_string(),
                monitors: cdf.len(),
                summary: cdf.summary(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::world::World;
    use crate::scale::ExperimentScale;
    use scion_telemetry::Telemetry;

    #[test]
    fn fig5_tiny_reproduces_the_ordering() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny));
        assert!(!r.rows.is_empty());
        // The paper's headline ordering on network totals:
        // diversity < baseline (by a lot), intra-ISD is small.
        assert!(
            r.totals.core_diversity * 3 < r.totals.core_baseline,
            "diversity {} vs baseline {}",
            r.totals.core_diversity,
            r.totals.core_baseline
        );
        // BGPsec costs far more than BGP.
        assert!(r.totals.bgpsec > r.totals.bgp);
        // All four series have data.
        assert_eq!(r.summaries.len(), 4);
    }

    #[test]
    fn fig5_telemetry_labels_all_runs() {
        let mut ctx = RunCtx::new(ExperimentScale::Tiny).recording();
        let _ = run(&mut ctx);
        let tel = ctx.dumped("");
        let runs: std::collections::HashSet<&str> =
            tel.series.samples().iter().map(|s| s.run).collect();
        assert!(runs.contains("core_baseline"), "runs: {runs:?}");
        assert!(runs.contains("core_diversity"));
        assert!(runs.contains("intra_isd"));
        assert!(tel.profile.stats(phase::BGP_MONTH).is_some());
    }

    #[test]
    fn received_bytes_mirrors_sent() {
        let params = ExperimentScale::Tiny.params();
        let world = World::build(params);
        let cfg = params.beaconing_config(scion_beaconing::Algorithm::Baseline);
        let out = run_beaconing(
            &world.core,
            &cfg,
            &BeaconingRun::core(params.sim_duration, 1),
            &mut Telemetry::disabled(),
        )
        .outcome;
        // Sum of received over all ASes equals sum of sent over all
        // interfaces (every sent beacon arrives somewhere).
        let received: u64 = world
            .core
            .as_indices()
            .map(|i| received_bytes(&world.core, &out, i))
            .sum();
        assert_eq!(received, out.total_bytes());
    }
}
