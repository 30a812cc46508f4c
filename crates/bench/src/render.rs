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
use scion_core::experiments::scaling::ScalingResult;
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

pub fn fig6a(result: &Fig6Result) {
    println!("Figure 6a: minimum number of failing links disconnecting an AS pair");
    let mut table = Table::new(&["series", "mean", "p25", "median", "p75", "max"]);
    let mut add = |name: &str, values: &[u64]| {
        let cdf = Cdf::from_u64(values.iter().copied());
        let s = cdf.summary();
        table.row(&[
            name.to_string(),
            format!("{:.2}", s.mean),
            format!("{}", s.q25),
            format!("{}", s.median),
            format!("{}", s.q75),
            format!("{}", s.max),
        ]);
    };
    add("Optimum", &result.optimum);
    for (name, values) in &result.series {
        add(name, values);
    }
    println!("{}", table.render());

    println!("CDF points (value -> cumulative fraction of AS pairs):");
    for (name, values) in &result.series {
        let cdf = Cdf::from_u64(values.iter().copied());
        let pts: Vec<String> = cdf
            .points(8)
            .into_iter()
            .map(|(v, f)| format!("{v}:{f:.2}"))
            .collect();
        println!("  {name:<24} {}", pts.join("  "));
    }
}

pub fn fig6b(result: &Fig6Result) {
    println!("Figure 6b: maximum capacity in multiples of inter-AS links");
    let mut table = Table::new(&["series", "Σ capacity / Σ optimum", "mean capacity"]);
    let opt_cdf = Cdf::from_u64(result.optimum.iter().copied());
    table.row(&[
        "All Paths (optimum)".into(),
        "1.000".into(),
        format!("{:.2}", opt_cdf.mean()),
    ]);
    for (name, frac) in &result.fraction_of_optimum {
        let values = &result
            .series
            .iter()
            .find(|(n, _)| n == name)
            .expect("series exists")
            .1;
        let cdf = Cdf::from_u64(values.iter().copied());
        table.row(&[
            name.clone(),
            format!("{frac:.3}"),
            format!("{:.2}", cdf.mean()),
        ]);
    }
    println!("{}", table.render());
}

pub fn fig7(result: &Fig6Result) {
    println!("Figure 7: minimum failing links disconnecting two SCIONLab core ASes");
    let mut table = Table::new(&["series", "mean", "median", "max", "optimal share"]);
    let opt_cdf = Cdf::from_u64(result.optimum.iter().copied());
    table.row(&[
        "Optimum".into(),
        format!("{:.2}", opt_cdf.mean()),
        format!("{}", opt_cdf.summary().median),
        format!("{}", opt_cdf.summary().max),
        "1.000".into(),
    ]);
    for (name, values) in &result.series {
        let cdf = Cdf::from_u64(values.iter().copied());
        // Fraction of pairs achieving exactly the optimal resilience.
        let optimal_share = values
            .iter()
            .zip(&result.optimum)
            .filter(|&(v, o)| v == o)
            .count() as f64
            / values.len() as f64;
        table.row(&[
            name.clone(),
            format!("{:.2}", cdf.mean()),
            format!("{}", cdf.summary().median),
            format!("{}", cdf.summary().max),
            format!("{optimal_share:.3}"),
        ]);
    }
    println!("{}", table.render());
}

pub fn fig8(result: &Fig6Result) {
    println!("Figure 8: maximum capacity between SCIONLab core AS pairs");
    let mut table = Table::new(&["series", "Σ capacity / Σ optimum", "CDF points"]);
    let fmt_cdf = |values: &[u64]| {
        Cdf::from_u64(values.iter().copied())
            .points(6)
            .into_iter()
            .map(|(v, f)| format!("{v}:{f:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    table.row(&[
        "All Paths (optimum)".into(),
        "1.000".into(),
        fmt_cdf(&result.optimum),
    ]);
    for (name, frac) in &result.fraction_of_optimum {
        let values = &result
            .series
            .iter()
            .find(|(n, _)| n == name)
            .expect("series exists")
            .1;
        table.row(&[name.clone(), format!("{frac:.3}"), fmt_cdf(values)]);
    }
    println!("{}", table.render());
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

/// Every row must report identical protocol outcomes — the run doubles as
/// a determinism audit, and a violation exits 1 before any record is
/// written.
pub fn scaling(result: &ScalingResult) {
    println!(
        "Parallel beaconing scaling: {} core ASes, {} simulated seconds, verification on",
        result.num_core, result.sim_secs
    );
    let mut table = Table::new(&[
        "threads",
        "wall ms",
        "speedup",
        "events/s",
        "pop ms",
        "shard ms",
        "merge ms",
        "delivered",
    ]);
    for r in &result.rows {
        table.row(&[
            r.threads.to_string(),
            format!("{:.1}", r.wall_ms),
            format!("{:.2}x", r.speedup),
            format!("{:.0}", r.events_per_sec),
            format!("{:.1}", r.pop_ms),
            format!("{:.1}", r.shard_ms),
            format!("{:.1}", r.merge_ms),
            r.beacons_delivered.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "outcomes identical across thread counts: {}",
        result.outcomes_identical
    );
    if !result.outcomes_identical {
        eprintln!("DETERMINISM VIOLATION: outcomes differ across thread counts");
        std::process::exit(1);
    }
}

/// Both arms must report identical protocol outcomes; a mismatch is a
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
        "threads",
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
            arm.threads.to_string(),
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
        "outcomes identical across plain/scalar/batched: {}",
        result.outcomes_identical
    );
    if !result.outcomes_identical {
        eprintln!("DETERMINISM VIOLATION: arms disagree on outcomes or telemetry");
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
        "restored",
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
            arm.segments_restored.to_string(),
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
