//! Resilience under churn (ours; motivated by §4.2's failure-resilience
//! objective and the §5.3 quality comparison).
//!
//! One seeded fault trace — the [`ChurnModel`] alternating-renewal process
//! over the core topology — is replayed against three control planes:
//!
//! * **diversity** — chaos-aware core beaconing with the path-diversity
//!   algorithm;
//! * **baseline** — the same with the production baseline algorithm;
//! * **BGP** — per-origin path-vector convergence (shortest-path policy,
//!   BGP's best case) with hold-timer session teardown on link loss.
//!
//! For each series we record the fraction of probed AS pairs with at least
//! one live path over virtual time, the time to reconverge after each
//! failure, and the message/byte overhead paid. A fourth leg replays an
//! independently-churned intra-ISD trace through the §4.1 revocation
//! machinery and counts the ledger messages.

use std::collections::BTreeMap;

use serde::Serialize;

use scion_beaconing::{run_beaconing, Algorithm, BeaconingRun, ChaosConfig, DiversityParams};
use scion_bgp::sizes::{bgp_announce_size, bgp_withdraw_size};
use scion_bgp::{simulate_origin_chaos, BgpChaosConfig, OriginSimConfig, PolicyMode};
use scion_chaos::{
    mean_fraction, mean_reconvergence, min_fraction, reconvergence_times, revoke_for_fault,
    ChurnModel, FaultSchedule, LinkFault,
};
use scion_crypto::trc::TrustStore;
use scion_pathserver::ledger::{Component, Ledger, Scope};
use scion_pathserver::server::PathServer;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_telemetry::{ids, Label, Telemetry};
use scion_topology::{AsIndex, AsTopology};
use scion_types::{Duration, IfId, SimTime};

use crate::experiments::fig6::sample_pairs;
use crate::experiments::world::World;
use crate::experiments::RunCtx;

/// Active flows assumed per failed link when accounting SCMP
/// notifications in the revocation leg (Table 1's per-flow global scope).
const ACTIVE_FLOWS_PER_LINK: u64 = 2;

/// One control plane's resilience measurements under the shared trace.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceSeries {
    pub name: String,
    /// Live-pair fraction over virtual time, as `(t_us, fraction)`.
    pub curve: Vec<(u64, f64)>,
    /// Unweighted mean of the curve.
    pub mean_fraction: f64,
    /// Worst point of the curve.
    pub min_fraction: f64,
    /// Mean time-to-reconverge over the failures that recovered.
    pub mean_reconvergence_us: Option<u64>,
    /// Failures whose dent never recovered within the probed window.
    pub unrecovered: usize,
    /// Control-plane messages sent during the run.
    pub messages: u64,
    /// Control-plane bytes sent during the run.
    pub bytes: u64,
}

/// Ledger accounting of the §4.1 revocation leg.
#[derive(Clone, Debug, Serialize)]
pub struct RevocationStats {
    /// Down events replayed against the path server.
    pub downs_replayed: usize,
    /// Segments dropped across all revocations.
    pub segments_revoked: usize,
    /// Intra-ISD revocation messages recorded.
    pub intra_isd_messages: u64,
    /// Global SCMP notifications recorded.
    pub global_scmp_messages: u64,
}

/// Everything the resilience experiment measures.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceResult {
    pub seed: u64,
    /// Probed `(origin ASN, holder ASN)` pairs.
    pub pairs: Vec<(u64, u64)>,
    /// Fault events in the core trace.
    pub fault_events: usize,
    /// Down events in the core trace (reconvergence anchors).
    pub link_downs: usize,
    /// One entry per control plane: diversity, baseline, BGP.
    pub series: Vec<ResilienceSeries>,
    pub revocation: RevocationStats,
}

/// Runs the resilience experiment on the context's world. A recording
/// run keeps each leg under its own run label (`diversity` / `baseline` /
/// `bgp` / `revocation`), so one dump holds all four curves.
pub fn run(ctx: &mut RunCtx) -> ResilienceResult {
    let world = ctx.world();
    let params = world.params;
    let seed = params.seed;
    let mut handle = ctx.telemetry();
    let tel = &mut handle;
    let topo = &world.core;
    let sim = params.sim_duration;

    let schedule = ChurnModel::scaled(sim).generate(topo, sim, seed);
    let downs = schedule.down_times();
    let pairs = sample_pairs(topo, params.quality_pairs, seed);

    let mut series = Vec::new();

    // SCION legs: same trace, same probes, two algorithms.
    let algos: [(&'static str, Algorithm); 2] = [
        (
            "diversity",
            Algorithm::Diversity(DiversityParams::default()),
        ),
        ("baseline", Algorithm::Baseline),
    ];
    for (name, algorithm) in algos {
        tel.begin_run(name);
        let cfg = params.beaconing_config(algorithm);
        let run = BeaconingRun {
            chaos: Some(ChaosConfig {
                schedule: &schedule,
                probe_pairs: &pairs,
                probe_cadence: params.interval,
            }),
            ..BeaconingRun::core(sim, seed)
        };
        let rep = run_beaconing(topo, &cfg, &run, tel);
        let total = rep.outcome.traffic.grand_total();
        series.push(make_series(
            name,
            rep.chaos.fraction_curve(),
            &downs,
            total.messages,
            total.bytes,
        ));
    }

    // BGP leg: one chaos-aware convergence run per distinct origin, all
    // replaying the same trace; a pair is live when the holder has a best
    // route toward the origin at the probe instant.
    tel.begin_run("bgp");
    series.push(run_bgp_leg(
        topo,
        &schedule,
        &pairs,
        &downs,
        params.interval,
        sim,
        seed,
        tel,
    ));

    // Revocation leg: an independently-churned intra-ISD trace replayed
    // through the §4.1 path-server machinery.
    tel.begin_run("revocation");
    let revocation = run_revocation_leg(&world, sim, seed, tel);

    ctx.keep("", handle);
    ResilienceResult {
        seed,
        pairs: pairs
            .iter()
            .map(|&(o, h)| (topo.node(o).ia.asn.value(), topo.node(h).ia.asn.value()))
            .collect(),
        fault_events: schedule.len(),
        link_downs: downs.len(),
        series,
        revocation,
    }
}

fn make_series(
    name: &str,
    curve: Vec<(SimTime, f64)>,
    downs: &[SimTime],
    messages: u64,
    bytes: u64,
) -> ResilienceSeries {
    let times = reconvergence_times(&curve, downs);
    ResilienceSeries {
        name: name.to_string(),
        mean_fraction: mean_fraction(&curve),
        min_fraction: min_fraction(&curve),
        mean_reconvergence_us: mean_reconvergence(&times).map(|d| d.as_micros()),
        unrecovered: times.iter().filter(|t| t.is_none()).count(),
        curve: curve.into_iter().map(|(t, f)| (t.as_micros(), f)).collect(),
        messages,
        bytes,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_bgp_leg(
    topo: &AsTopology,
    schedule: &FaultSchedule,
    pairs: &[(AsIndex, AsIndex)],
    downs: &[SimTime],
    probe_cadence: Duration,
    sim: Duration,
    seed: u64,
    tel: &mut Telemetry,
) -> ResilienceSeries {
    let cfg = OriginSimConfig {
        churn_resets: 0,
        seed,
        policy: PolicyMode::ShortestPath,
        ..OriginSimConfig::default()
    };
    let chaos = BgpChaosConfig {
        schedule,
        probe_cadence,
        run_until: SimTime::ZERO + sim,
    };
    let mut by_origin: BTreeMap<AsIndex, Vec<AsIndex>> = BTreeMap::new();
    for &(o, h) in pairs {
        by_origin.entry(o).or_default().push(h);
    }

    let mut reports = BTreeMap::new();
    let (mut messages, mut bytes) = (0u64, 0u64);
    // Announce sizes are linear in the path length, so per-AS sums
    // suffice: total = n·size(0) + per_hop·Σlen.
    let announce_base = bgp_announce_size(0, 1);
    let announce_per_hop = bgp_announce_size(1, 1) - announce_base;
    for &origin in by_origin.keys() {
        let (out, report) = simulate_origin_chaos(topo, origin, &cfg, &chaos);
        let announces: u64 = out.announces_received.iter().sum();
        let withdraws: u64 = out.withdraws_received.iter().sum();
        let pathlen_sum: u64 = out.announce_pathlen_sum.iter().sum();
        messages += announces + withdraws;
        bytes += announces * announce_base
            + announce_per_hop * pathlen_sum
            + withdraws * bgp_withdraw_size(1);
        reports.insert(origin, report);
    }

    // Aggregate per-origin probe vectors into the shared live-pair curve
    // (every run probes on the same upfront schedule).
    let num_probes = reports.values().map(|r| r.probes.len()).min().unwrap_or(0);
    let mut curve = Vec::with_capacity(num_probes);
    for k in 0..num_probes {
        let t = reports.values().next().expect("some origin").probes[k].t;
        let live = pairs
            .iter()
            .filter(|&&(o, h)| reports[&o].probes[k].reachable[h.as_usize()])
            .count();
        let frac = if pairs.is_empty() {
            1.0
        } else {
            live as f64 / pairs.len() as f64
        };
        tel.sample(t, ids::CHAOS_LIVE_PAIR_FRACTION, Label::Global, frac);
        curve.push((t, frac));
    }
    make_series("bgp", curve, downs, messages, bytes)
}

fn run_revocation_leg(
    world: &World,
    sim: Duration,
    seed: u64,
    tel: &mut Telemetry,
) -> RevocationStats {
    let intra = &world.intra;
    let now = SimTime::ZERO + sim;
    let cfg = world
        .params
        .beaconing_config(Algorithm::Diversity(DiversityParams::default()));
    let run = BeaconingRun::intra_isd(sim, seed);
    let out = run_beaconing(intra, &cfg, &run, &mut Telemetry::disabled()).outcome;

    // Register every leaf's down-segments toward the first core at that
    // core's path server, as the leaves would after beaconing.
    let trust = TrustStore::bootstrap(
        intra
            .as_indices()
            .map(|i| (intra.node(i).ia, intra.node(i).core)),
        now + Duration::from_days(1),
    );
    let core_idx = intra.core_ases().next().expect("intra has a core");
    let core_ia = intra.node(core_idx).ia;
    let mut ps = PathServer::new(core_ia, true);
    for leaf in intra.as_indices() {
        if intra.node(leaf).core {
            continue;
        }
        let Some(srv) = out.server(leaf) else {
            continue;
        };
        let leaf_ia = intra.node(leaf).ia;
        for b in srv.store().beacons_of(core_ia, now) {
            let pcb = b
                .pcb
                .extend(leaf_ia, b.ingress_if, IfId::NONE, vec![], &trust);
            ps.register_down_segment(
                PathSegment::from_terminated_pcb(SegmentType::Down, pcb),
                now,
            )
            .expect("resilience path server is core");
        }
    }

    let intra_schedule = ChurnModel::scaled(sim).generate(intra, sim, seed);
    let mut ledger = Ledger::new();
    let mut stats = RevocationStats {
        downs_replayed: 0,
        segments_revoked: 0,
        intra_isd_messages: 0,
        global_scmp_messages: 0,
    };
    for &(t, fault) in intra_schedule.events() {
        if matches!(fault, LinkFault::LinkDown(_) | LinkFault::AsDown(_)) {
            stats.downs_replayed += 1;
            let r = revoke_for_fault(
                &mut ps,
                intra,
                &fault,
                ACTIVE_FLOWS_PER_LINK,
                &mut ledger,
                t,
                tel,
            );
            stats.segments_revoked += r.segments_revoked;
        }
    }
    stats.intra_isd_messages = ledger.messages_at(Component::PathRevocation, Scope::IntraIsd);
    stats.global_scmp_messages = ledger.messages_at(Component::PathRevocation, Scope::Global);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn resilience_tiny_produces_all_series_and_sane_curves() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny).with_seed(7));
        assert_eq!(r.seed, 7);
        assert!(r.fault_events > 0, "a tiny run still churns");
        assert_eq!(r.series.len(), 3);
        let names: Vec<&str> = r.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["diversity", "baseline", "bgp"]);
        for s in &r.series {
            assert!(!s.curve.is_empty(), "{} probed nothing", s.name);
            for &(_, f) in &s.curve {
                assert!((0.0..=1.0).contains(&f), "{}: fraction {f}", s.name);
            }
            assert!(s.messages > 0, "{} sent nothing", s.name);
            assert!(s.bytes > 0, "{} accounted no bytes", s.name);
            // Curves are time-sorted.
            assert!(s.curve.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn resilience_is_deterministic_for_a_seed() {
        let a = run(&mut RunCtx::new(ExperimentScale::Tiny).with_seed(11));
        let b = run(&mut RunCtx::new(ExperimentScale::Tiny).with_seed(11));
        for (sa, sb) in a.series.iter().zip(&b.series) {
            assert_eq!(sa.curve, sb.curve, "{} curve differs", sa.name);
            assert_eq!(sa.messages, sb.messages);
            assert_eq!(sa.bytes, sb.bytes);
        }
        assert_eq!(
            a.revocation.intra_isd_messages,
            b.revocation.intra_isd_messages
        );
        assert_eq!(a.fault_events, b.fault_events);
    }
}
