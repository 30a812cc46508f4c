//! One stdout renderer per experiment row: the human-readable table of a
//! result struct. `main.rs` pairs each with its runner.

use scion_core::analysis::Cdf;
use scion_core::beaconing::tuning::TuningResult;
use scion_core::experiments::ablation::AblationResult;
use scion_core::experiments::fig5::Fig5Result;
use scion_core::experiments::fig6::Fig6Result;
use scion_core::experiments::forwarding::ForwardingResult;
use scion_core::experiments::lossy::LossyResult;
use scion_core::experiments::overload::OverloadResult;
use scion_core::experiments::recovery::RecoveryResult;
use scion_core::experiments::resilience::ResilienceResult;
use scion_core::experiments::scionlab::Fig9Result;
use scion_core::experiments::table1::Table1Result;
use scion_core::ingest::{Ingested, TopologyStats};
use scion_core::report::{human_bytes, sci, Table};

pub fn table1(result: &Table1Result) {
    let mut table = Table::new(&[
        "SCION Control Plane Component",
        "Scope",
        "Frequency",
        "Messages",
        "Bytes",
    ]);
    for row in &result.rows {
        table.row(&[
            row.component.clone(),
            row.scope.clone(),
            row.frequency.clone(),
            row.messages.to_string(),
            human_bytes(row.bytes),
        ]);
    }
    println!("Table 1: Path Management Overhead Comparison (measured)");
    println!("{}", table.render());
    println!(
        "down-segment lookup cache hit rate: {:.1} % (the §4.1 amortization)",
        result.lookup_cache_hit_rate * 100.0
    );
}

pub fn fig5(result: &Fig5Result) {
    println!("Figure 5: monthly control-plane overhead relative to BGP (per monitor)");
    let mut table = Table::new(&[
        "monitor ASN",
        "BGP bytes/mo",
        "BGPsec/BGP",
        "core baseline/BGP",
        "core diversity/BGP",
        "intra-ISD/BGP",
    ]);
    let opt = |v: Option<f64>| v.map(sci).unwrap_or_else(|| "-".into());
    for r in &result.rows {
        table.row(&[
            r.monitor_asn.to_string(),
            human_bytes(r.bgp_bytes),
            sci(r.bgpsec_rel),
            opt(r.core_baseline_rel),
            opt(r.core_diversity_rel),
            opt(r.intra_isd_rel),
        ]);
    }
    println!("{}", table.render());

    println!("Distribution over monitors (box-plot statistics, log-scale in the paper):");
    let mut sum = Table::new(&["series", "monitors", "min", "median", "max", "mean"]);
    for s in &result.summaries {
        sum.row(&[
            s.series.clone(),
            s.monitors.to_string(),
            sci(s.summary.min),
            sci(s.summary.median),
            sci(s.summary.max),
            sci(s.summary.mean),
        ]);
    }
    println!("{}", sum.render());

    println!("Network-wide monthly totals:");
    println!("  BGP             {}", human_bytes(result.totals.bgp));
    println!("  BGPsec          {}", human_bytes(result.totals.bgpsec));
    println!(
        "  core baseline   {}",
        human_bytes(result.totals.core_baseline)
    );
    println!(
        "  core diversity  {}",
        human_bytes(result.totals.core_diversity)
    );
    println!("  intra-ISD       {}", human_bytes(result.totals.intra_isd));
}

pub fn fig6(result: &Fig6Result) {
    min_cut(
        result,
        "Figure 6a: minimum number of failing links disconnecting an AS pair",
    );
    capacity(
        result,
        "Figure 6b: maximum capacity in multiples of inter-AS links",
    );
}

pub fn fig78(result: &Fig6Result) {
    min_cut(
        result,
        "Figure 7: minimum failing links disconnecting two SCIONLab core ASes",
    );
    capacity(
        result,
        "Figure 8: maximum capacity between SCIONLab core AS pairs",
    );
}

/// The per-pair max-flow read as resilience: its distribution per series,
/// the share of pairs at their optimum, and each series' CDF.
fn min_cut(result: &Fig6Result, title: &str) {
    println!("{title}");
    let mut table = Table::new(&[
        "series",
        "mean",
        "p25",
        "median",
        "p75",
        "max",
        "share at optimum",
    ]);
    let mut add = |name: &str, values: &[u64]| {
        let s = Cdf::from_u64(values.iter().copied()).summary();
        let at_optimum = values
            .iter()
            .zip(&result.optimum)
            .filter(|&(v, o)| v == o)
            .count() as f64
            / values.len() as f64;
        table.row(&[
            name.to_string(),
            format!("{:.2}", s.mean),
            format!("{}", s.q25),
            format!("{}", s.median),
            format!("{}", s.q75),
            format!("{}", s.max),
            format!("{at_optimum:.3}"),
        ]);
    };
    add("Optimum", &result.optimum);
    for (name, values) in &result.series {
        add(name, values);
    }
    println!("{}", table.render());

    println!("CDF points (value -> cumulative fraction of AS pairs):");
    for (name, values) in &result.series {
        println!("  {name:<24} {}", cdf_points(values, 8));
    }
}

/// The per-pair max-flow read as capacity: Σ series / Σ optimum, the mean,
/// and a few CDF points per series.
fn capacity(result: &Fig6Result, title: &str) {
    println!("{title}");
    let mut table = Table::new(&[
        "series",
        "Σ capacity / Σ optimum",
        "mean capacity",
        "CDF points",
    ]);
    let mut add = |name: &str, frac: f64, values: &[u64]| {
        table.row(&[
            name.to_string(),
            format!("{frac:.3}"),
            format!("{:.2}", Cdf::from_u64(values.iter().copied()).mean()),
            cdf_points(values, 6),
        ]);
    };
    add("All Paths (optimum)", 1.0, &result.optimum);
    for ((name, values), (_, frac)) in result.series.iter().zip(&result.fraction_of_optimum) {
        add(name, *frac, values);
    }
    println!("{}", table.render());
}

/// `n` points of the CDF of `values` as `value:fraction` pairs.
fn cdf_points(values: &[u64], n: usize) -> String {
    let points: Vec<String> = Cdf::from_u64(values.iter().copied())
        .points(n)
        .into_iter()
        .map(|(v, f)| format!("{v}:{f:.2}"))
        .collect();
    points.join("  ")
}

pub fn fig9(result: &Fig9Result) {
    println!("Figure 9: core beaconing bandwidth per interface (SCIONLab)");
    println!("CDF (bytes/second -> cumulative fraction of interfaces):");
    for (bps, frac) in &result.cdf_points {
        println!("  {bps:>10.1} Bps  {frac:.3}");
    }
    println!();
    println!(
        "interfaces below 4 KB/s: {:.1} %  (paper: ~80 %)",
        result.fraction_below_4kbps * 100.0
    );
}

pub fn ablation(result: &AblationResult) {
    println!("Diversity-algorithm ablation: overhead vs path quality");
    let mut table = Table::new(&["variant", "beaconing bytes", "fraction of optimum"]);
    for row in &result.rows {
        table.row(&[
            row.variant.clone(),
            human_bytes(row.total_bytes),
            format!("{:.3}", row.fraction_of_optimum),
        ]);
    }
    println!("{}", table.render());
}

pub fn tune(results: &[TuningResult]) {
    println!(
        "Grid search results (best first, top 15 of {}):",
        results.len()
    );
    let mut table = Table::new(&[
        "alpha",
        "beta",
        "gamma",
        "threshold",
        "bytes",
        "coverage",
        "links/pair",
        "objective",
    ]);
    for r in results.iter().take(15) {
        table.row(&[
            format!("{:.1}", r.params.alpha),
            format!("{:.1}", r.params.beta),
            format!("{:.1}", r.params.gamma),
            format!("{:.2}", r.params.score_threshold),
            human_bytes(r.total_bytes),
            format!("{:.2}", r.coverage),
            format!("{:.2}", r.avg_distinct_links),
            format!("{:.4}", r.objective),
        ]);
    }
    println!("{}", table.render());
    let best = &results[0];
    println!(
        "selected: alpha={:.1} beta={:.1} gamma={:.1} threshold={:.2}",
        best.params.alpha, best.params.beta, best.params.gamma, best.params.score_threshold
    );
}

pub fn resilience(result: &ResilienceResult) {
    println!(
        "Resilience under churn: seed {}, {} fault events ({} downs), {} probed AS pairs",
        result.seed,
        result.fault_events,
        result.link_downs,
        result.pairs.len()
    );
    let mut table = Table::new(&[
        "series",
        "mean live",
        "min live",
        "reconverge",
        "unrecovered",
        "messages",
        "bytes",
    ]);
    for s in &result.series {
        table.row(&[
            s.name.clone(),
            format!("{:.3}", s.mean_fraction),
            format!("{:.3}", s.min_fraction),
            match s.mean_reconvergence_us {
                Some(us) => format!("{}s", us / 1_000_000),
                None => "—".to_string(),
            },
            format!("{}", s.unrecovered),
            format!("{}", s.messages),
            human_bytes(s.bytes),
        ]);
    }
    println!("{}", table.render());

    println!("live-pair fraction over time (t_s:fraction):");
    for s in &result.series {
        let step = (s.curve.len() / 10).max(1);
        let pts: Vec<String> = s
            .curve
            .iter()
            .step_by(step)
            .map(|&(t, f)| format!("{}:{f:.2}", t / 1_000_000))
            .collect();
        println!("  {:<12} {}", s.name, pts.join("  "));
    }

    println!(
        "revocation leg: {} downs replayed, {} segments revoked, {} intra-ISD + {} global messages",
        result.revocation.downs_replayed,
        result.revocation.segments_revoked,
        result.revocation.intra_isd_messages,
        result.revocation.global_scmp_messages
    );
}

pub fn lossy(result: &LossyResult) {
    let rates: Vec<f64> = result.points.iter().map(|p| p.loss).collect();
    println!(
        "Lossy control plane: seed {}, {} probed AS pairs, rates {:?}",
        result.seed, result.pairs, rates
    );
    let mut table = Table::new(&[
        "loss",
        "arm",
        "final live",
        "converge",
        "msgs",
        "msg x",
        "bytes",
        "byte x",
        "lost",
        "retx",
        "dups",
        "give-ups",
    ]);
    for p in &result.points {
        for arm in [&p.reliable, &p.no_retry] {
            table.row(&[
                format!("{:.3}%", p.loss * 100.0),
                arm.name.clone(),
                format!("{:.3}", arm.final_fraction),
                match arm.convergence_us {
                    Some(us) => format!("{}s", us / 1_000_000),
                    None => "—".to_string(),
                },
                format!("{}", arm.messages),
                format!("{:.2}", arm.message_overhead),
                human_bytes(arm.bytes),
                format!("{:.2}", arm.byte_overhead),
                format!("{}", arm.loss.messages_lost),
                format!("{}", arm.loss.retransmits),
                format!("{}", arm.loss.duplicates_suppressed),
                format!("{}", arm.loss.give_ups),
            ]);
        }
    }
    println!("{}", table.render());

    let d = &result.degradation;
    println!(
        "degradation leg: {}/{} registrations stored ({} retransmits, {} duplicates \
         suppressed, {} abandoned); {} lookups ({} retries) → {} fresh, {} degraded, \
         {} unreachable, {} negative-cache hit(s)",
        d.registrations_stored,
        d.registrations_offered,
        d.registration_retransmits,
        d.registration_duplicates,
        d.registrations_abandoned,
        d.lookups_started,
        d.lookup_retries,
        d.lookups_resolved,
        d.degraded_serves,
        d.unreachable_verdicts,
        d.negative_hits
    );
}

/// Both legs must report identical protocol outcomes; a mismatch is a
/// determinism violation and exits 1 before any record is written.
pub fn fwd(result: &ForwardingResult) {
    println!(
        "Forwarding: {} packets over {} paths across {} core ASes ({} links, {} failed), seed {:#x}",
        result.num_packets,
        result.num_paths,
        result.num_ases,
        result.num_links,
        result.failed_links,
        result.seed,
    );
    let mut table = Table::new(&[
        "arm",
        "wall ms",
        "pkts/s",
        "hops/s",
        "delivered",
        "dropped",
        "scmp",
        "hop p50 ns",
        "hop p99 ns",
    ]);
    for arm in &result.arms {
        let (p50, p99) = arm
            .hop_latency
            .as_ref()
            .map_or((0.0, 0.0), |l| (l.p50_ns, l.p99_ns));
        table.row(&[
            arm.name.to_string(),
            format!("{:.1}", arm.wall_ms),
            format!("{:.0}", arm.packets_per_sec),
            format!("{:.0}", arm.hops_per_sec),
            arm.delivered.to_string(),
            arm.dropped.to_string(),
            arm.scmp_sent.to_string(),
            format!("{p50:.0}"),
            format!("{p99:.0}"),
        ]);
    }
    println!("{}", table.render());
    if let Some(arm) = result.arms.first() {
        let drops: Vec<String> = arm.drops.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("drop breakdown: {}", drops.join(", "));
    }
    println!(
        "plain (uninstrumented) throughput: {:.0} pkts/s; scalar instrumentation overhead: {:+.1}%",
        result.plain_packets_per_sec, result.telemetry_overhead_pct
    );
    println!(
        "outcomes identical across plain/scalar: {}",
        result.outcomes_identical
    );
    if !result.outcomes_identical {
        eprintln!("DETERMINISM VIOLATION: legs disagree on outcomes");
        std::process::exit(1);
    }
}

pub fn recovery(result: &RecoveryResult) {
    println!(
        "Recovery: {} flows across {} core ASes ({} links), seed {:#x}; \
         {} primary links down at t={}s, repair at t={}s, victim flow: {}",
        result.num_flows,
        result.num_ases,
        result.num_links,
        result.seed,
        result.primary_failed_links.len(),
        result.fault_at_us / 1_000_000,
        result.repair_at_us / 1_000_000,
        result
            .victim_flow
            .map_or("none".to_string(), |fi| format!("#{fi}")),
    );
    let mut table = Table::new(&[
        "arm",
        "sent",
        "delivered",
        "lost",
        "affected",
        "scmp",
        "failovers",
        "requeries",
        "revoked",
        "outage p50 ms",
        "outage max ms",
        "victim ms",
    ]);
    for arm in &result.arms {
        table.row(&[
            arm.name.to_string(),
            arm.packets_sent.to_string(),
            arm.delivered.to_string(),
            arm.lost.to_string(),
            arm.affected_flows.to_string(),
            arm.scmp_received.to_string(),
            arm.failovers.to_string(),
            arm.requeries.to_string(),
            arm.segments_revoked.to_string(),
            format!("{:.1}", arm.outage_us.p50 as f64 / 1e3),
            format!("{:.1}", arm.outage_us.max as f64 / 1e3),
            arm.victim_max_outage_us
                .map_or("-".to_string(), |us| format!("{:.1}", us as f64 / 1e3)),
        ]);
    }
    println!("{}", table.render());
    for arm in &result.arms {
        println!(
            "{}: {}/{} fast failovers within one RTT; limiter admitted {} of {} SCMPs",
            arm.name,
            arm.fast_failover_within_rtt,
            arm.fast_failover_flows,
            arm.scmp_admitted,
            arm.scmp_admitted + arm.scmp_suppressed,
        );
    }
}

pub fn overload(result: &OverloadResult) {
    let p = &result.params;
    println!(
        "Overload: capacity {}/tick ({} rps), upstream {}/tick, {} clients, \
         {} destinations ({} hot), {} arrival + {} drain ticks, seed {:#x}",
        p.capacity_per_tick,
        p.capacity_per_sec(),
        p.upstream_per_tick,
        p.num_clients,
        p.num_destinations,
        result.hot_destinations,
        p.arrival_ticks,
        p.drain_ticks,
        result.seed,
    );
    let mut table = Table::new(&[
        "load", "arm", "offered", "shed", "busy", "fresh", "stale", "ctl", "up fail", "in-ddl",
        "goodput", "p50 ms", "p99 ms", "peak q",
    ]);
    for point in &result.points {
        for arm in &point.arms {
            table.row(&[
                format!("{:.1}x", point.load_permille as f64 / 1e3),
                arm.name.clone(),
                arm.offered.to_string(),
                (arm.shed_rate_limited + arm.shed_queue_full + arm.shed_evicted).to_string(),
                arm.busy_backoffs.to_string(),
                arm.served_fresh.to_string(),
                arm.served_stale.to_string(),
                arm.served_control.to_string(),
                arm.upstream_failed.to_string(),
                arm.completed_in_deadline.to_string(),
                format!("{:.3}", arm.goodput_ratio),
                format!("{:.1}", arm.p50_us as f64 / 1e3),
                format!("{:.1}", arm.p99_us as f64 / 1e3),
                arm.peak_queue_depth.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
    for point in &result.points {
        let full = &point.arms[2];
        if full.brownout_entries + full.breaker_trips > 0 {
            println!(
                "{:.1}x full: {} brownout entries / {} exits, {} breaker trips, \
                 {} probes, {} short-circuits",
                point.load_permille as f64 / 1e3,
                full.brownout_entries,
                full.brownout_exits,
                full.breaker_trips,
                full.breaker_probes,
                full.breaker_short_circuits,
            );
        }
    }
}

pub fn ingest(ingested: &Ingested, stats: &TopologyStats) {
    let topo = &ingested.topology;
    println!(
        "source: {} ({})",
        ingested.provenance.origin, ingested.provenance.kind
    );
    println!("fingerprint: {}", topo.fingerprint());
    let mut table = Table::new(&["metric", "value"]);
    table.row(&["ASes".into(), stats.ases.to_string()]);
    table.row(&["links".into(), stats.links.to_string()]);
    table.row(&["p2c pairs".into(), stats.p2c_pairs.to_string()]);
    table.row(&["p2p pairs".into(), stats.p2p_pairs.to_string()]);
    table.row(&[
        "parallel extra links".into(),
        stats.parallel_extra_links.to_string(),
    ]);
    table.row(&[
        "degree min/p50/p90/p99/max".into(),
        format!(
            "{}/{}/{}/{}/{}",
            stats.degree.min,
            stats.degree.p50,
            stats.degree.p90,
            stats.degree.p99,
            stats.degree.max
        ),
    ]);
    println!("{}", table.render());

    let n = &topo.report;
    println!(
        "normalization: {} raw edges, {} self-loops dropped, {} duplicates merged, \
         {} conflicts resolved, {} components pruned ({} ASes, {} pairs)",
        n.input_edges,
        n.self_loops_dropped,
        n.duplicates_merged,
        n.conflicts_resolved,
        n.components_pruned,
        n.ases_pruned,
        n.pairs_pruned,
    );
    if let Some(ixp) = &ingested.ixp {
        println!(
            "ixp overlay: {} exchanges, {} members matched ({} unknown), \
             {} parallel links added, {} non-adjacent pairs skipped",
            ixp.ixps,
            ixp.members_matched,
            ixp.members_unknown,
            ixp.links_added,
            ixp.pairs_not_adjacent,
        );
    }
}
