//! Table 1: path-management overhead comparison — the scope and frequency
//! of every SCION control-plane component, measured from a full-stack run.
//!
//! The run combines, on one world:
//!
//! * **core beaconing** on the core topology (messages between core ASes
//!   of different ISDs ⇒ global scope; every 10 minutes);
//! * **intra-ISD beaconing** on the intra-ISD topology (ISD scope, every
//!   10 minutes);
//! * **path (de-)registrations**: every leaf AS registers its down-path
//!   segments with its core path server "every tens of minutes …
//!   around 10 KBytes" (§4.1) — ISD scope;
//! * **lookups** driven by a Zipf destination workload: endpoint →
//!   local path server (AS scope, seconds), local → core for core-path
//!   segments (ISD scope), core → remote core for down-path segments
//!   (global scope, heavily amortized by caching);
//! * **revocations** on injected hourly link failures (ISD scope plus
//!   SCMP notifications).

use serde::Serialize;

use scion_beaconing::{run_beaconing, BeaconingRun};
use scion_crypto::trc::TrustStore;
use scion_pathserver::ledger::{Component, Ledger, Scope};
use scion_pathserver::revocation::revoke_segments;
use scion_pathserver::server::{LookupResult, PathServer};
use scion_pathserver::workload::ZipfDestinations;
use scion_proto::pcb::Pcb;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_proto::wire;
use scion_types::{Duration, IfId, IsdAsn, SimTime};

use crate::experiments::RunCtx;

/// A rendered Table 1 row.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Row {
    pub component: String,
    pub scope: String,
    pub frequency: String,
    pub messages: u64,
    pub bytes: u64,
}

/// Full Table 1 result.
#[derive(Clone, Debug, Serialize)]
pub struct Table1Result {
    pub rows: Vec<Table1Row>,
    /// Lookup cache hit rate (the §4.1 amortization argument).
    pub lookup_cache_hit_rate: f64,
}

/// Runs the Table 1 scenario on the context's world. A recording run
/// keeps the two beaconing runs under their own run labels plus
/// path-server registration/lookup counters and segment-registration
/// traces; the beaconing runs are sharded over `ctx.threads` workers
/// (every output is identical for every count).
pub fn run(ctx: &mut RunCtx) -> Table1Result {
    let world = ctx.world();
    let threads = ctx.threads;
    let mut handle = ctx.telemetry();
    let tel = &mut handle;
    let params = world.params;
    let duration = params.sim_duration;
    let mut ledger = Ledger::new();

    // --- Beaconing components, accounted from real runs. ---
    let cfg = params.beaconing_config(scion_beaconing::Algorithm::Baseline);
    tel.begin_run("table1_core");
    let core_run = BeaconingRun {
        threads,
        ..BeaconingRun::core(duration, params.seed)
    };
    let core_out = run_beaconing(&world.core, &cfg, &core_run, tel).outcome;
    for ((as_idx, ifid), counter) in core_out.traffic.per_interface() {
        // Scope: a core link between ASes of different ISDs is global.
        let scope = core_link_scope(&world.core, as_idx, ifid);
        record_bulk(
            &mut ledger,
            Component::CoreBeaconing,
            scope,
            counter.messages,
            counter.bytes,
        );
    }
    record_periodic_events(
        &mut ledger,
        Component::CoreBeaconing,
        cfg.interval,
        duration,
    );

    tel.begin_run("table1_intra");
    let intra_run = BeaconingRun {
        threads,
        ..BeaconingRun::intra_isd(duration, params.seed)
    };
    let intra_out = run_beaconing(&world.intra, &cfg, &intra_run, tel).outcome;
    let intra_total = intra_out.traffic.grand_total();
    record_bulk(
        &mut ledger,
        Component::IntraIsdBeaconing,
        Scope::IntraIsd,
        intra_total.messages,
        intra_total.bytes,
    );
    record_periodic_events(
        &mut ledger,
        Component::IntraIsdBeaconing,
        cfg.interval,
        duration,
    );

    // --- Path servers: one core PS per ISD core (we use the intra-ISD
    //     world's first core as the ISD's designated core PS) plus local
    //     servers at leaves. ---
    tel.begin_run("table1_pathserver");
    let trust = TrustStore::bootstrap(
        world
            .intra
            .as_indices()
            .map(|i| (world.intra.node(i).ia, world.intra.node(i).core)),
        SimTime::ZERO + Duration::from_days(40),
    );
    let core_ia = world
        .intra
        .core_ases()
        .map(|i| world.intra.node(i).ia)
        .min()
        .expect("intra world has a core");
    let mut core_ps = PathServer::new(core_ia, true);

    // Registrations: each leaf registers `dissemination_limit` segments
    // every 20 minutes (§4.1: "typically performed every tens of minutes
    // … around 10 KBytes").
    let leaves: Vec<IsdAsn> = world
        .intra
        .as_indices()
        .filter(|&i| !world.intra.node(i).core)
        .map(|i| world.intra.node(i).ia)
        .collect();
    let reg_interval = Duration::from_mins(20);
    let reg_rounds = duration.as_micros() / reg_interval.as_micros();
    for round in 0..reg_rounds {
        let at = SimTime::ZERO + reg_interval * round;
        ledger.record_event(Component::PathRegistration, at);
        for &leaf in &leaves {
            let seg = synth_down_segment(&trust, core_ia, leaf, at);
            let bytes = wire::registration_size(seg.hop_count(), 0) * 5;
            core_ps
                .register_down_segment_telemetry(seg, at, tel)
                .expect("core server accepts leaf registrations");
            ledger.record(Component::PathRegistration, Scope::IntraIsd, bytes);
        }
    }

    // Lookups: Zipf-popular destinations, one local server with a cache
    // standing in for a typical leaf AS's path server.
    let mut local_ps = PathServer::new(leaves[0], false);
    let mut zipf = ZipfDestinations::try_new(leaves.clone(), 0.9, params.seed)
        .expect("scale params guarantee at least one leaf");
    let lookup_interval = Duration::from_secs(5);
    let lookups = duration.as_micros() / lookup_interval.as_micros();
    for i in 0..lookups {
        let at = SimTime::ZERO + lookup_interval * i;
        let dst = zipf.sample();
        // Endpoint → local PS: intra-AS, every lookup.
        ledger.record(
            Component::EndpointPathLookup,
            Scope::IntraAs,
            wire::SEGMENT_REQUEST,
        );
        ledger.record_event(Component::EndpointPathLookup, at);
        match local_ps.lookup_cached_telemetry(dst, at, tel) {
            LookupResult::Hit(_) => {}
            LookupResult::Miss => {
                // Local PS → core PS of own ISD: core-segment lookup
                // (intra-ISD)…
                ledger.record(
                    Component::CoreSegmentLookup,
                    Scope::IntraIsd,
                    wire::SEGMENT_REQUEST,
                );
                ledger.record_event(Component::CoreSegmentLookup, at);
                // …then core PS → origin ISD's core PS: down-segment
                // lookup (global).
                let segs = core_ps.lookup_down(dst, at).expect("core server");
                let resp_bytes: u64 = segs
                    .iter()
                    .map(|s| wire::registration_size(s.hop_count(), 0))
                    .sum::<u64>()
                    + wire::SEGMENT_REQUEST;
                ledger.record(Component::DownSegmentLookup, Scope::Global, resp_bytes);
                ledger.record_event(Component::DownSegmentLookup, at);
                if !segs.is_empty() {
                    local_ps.cache_insert(dst, segs, at);
                }
            }
        }
    }

    // Revocations: network-wide, some link fails every ~30 s (per-link
    // failures are rare, but the table's frequency column is the global
    // event rate a core path server observes).
    let failure_interval = Duration::from_secs(30);
    let failures = duration.as_micros() / failure_interval.as_micros();
    for k in 0..failures.max(1) {
        let at = SimTime::ZERO + failure_interval * k;
        // Fail the registered segment link of some leaf: synth segments
        // use per-leaf interface ids, so pick one deterministically.
        let leaf = leaves[(k as usize * 7 + 3) % leaves.len()];
        let seg = synth_down_segment(&trust, core_ia, leaf, at);
        let link = seg
            .links()
            .first()
            .map(|&(a, b)| scion_types::LinkId::new(a, b))
            .expect("segment has a link");
        revoke_segments(&mut core_ps, link, 5, &mut ledger, at);
    }

    let cache = local_ps.cache_stats();
    let hit_rate = if cache.hits + cache.misses == 0 {
        0.0
    } else {
        cache.hits as f64 / (cache.hits + cache.misses) as f64
    };

    let rows = ledger
        .table()
        .into_iter()
        .map(|r| Table1Row {
            component: r.component.label().to_string(),
            scope: r
                .scope
                .map(|s| s.label().to_string())
                .unwrap_or_else(|| "-".into()),
            frequency: r
                .frequency
                .map(|f| f.label().to_string())
                .unwrap_or_else(|| "-".into()),
            messages: r.messages,
            bytes: r.bytes,
        })
        .collect();

    ctx.keep("", handle);
    Table1Result {
        rows,
        lookup_cache_hit_rate: hit_rate,
    }
}

/// Scope of one core-beaconing interface: global when the link crosses
/// ISDs.
fn core_link_scope(
    core: &scion_topology::AsTopology,
    as_idx: scion_topology::AsIndex,
    ifid: IfId,
) -> Scope {
    if let Some(li) = core.link_by_interface(as_idx, ifid) {
        let l = core.link(li);
        if core.node(l.a).ia.isd == core.node(l.b).ia.isd {
            Scope::IntraIsd
        } else {
            Scope::Global
        }
    } else {
        Scope::Global
    }
}

fn record_bulk(ledger: &mut Ledger, c: Component, scope: Scope, messages: u64, bytes: u64) {
    if messages > 0 {
        ledger.record_many(c, scope, messages, bytes);
    }
}

fn record_periodic_events(
    ledger: &mut Ledger,
    c: Component,
    interval: Duration,
    duration: Duration,
) {
    let n = duration.as_micros() / interval.as_micros();
    for i in 0..n {
        ledger.record_event(c, SimTime::ZERO + interval * i);
    }
}

/// Synthesizes a 2-hop down-segment core→leaf (interface ids derived from
/// the leaf's AS number so revocation targets are reproducible).
fn synth_down_segment(trust: &TrustStore, core: IsdAsn, leaf: IsdAsn, at: SimTime) -> PathSegment {
    let egress = IfId((leaf.asn.value() % 60_000) as u16 + 1);
    let pcb = Pcb::originate(core, egress, at, Duration::from_hours(6), 0, trust).extend(
        leaf,
        IfId(1),
        IfId::NONE,
        vec![],
        trust,
    );
    PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn table1_telemetry_counts_pathserver_activity() {
        use scion_telemetry::{ids, Label};
        let mut ctx = RunCtx::new(ExperimentScale::Tiny).recording();
        let r = run(&mut ctx);
        let tel = ctx.dumped("");
        assert!(!r.rows.is_empty());
        let regs = tel.metrics.counter(ids::PS_REGISTRATIONS, Label::Global);
        let lookups = tel.metrics.counter(ids::PS_LOOKUPS, Label::Global);
        let hits = tel.metrics.counter(ids::PS_CACHE_HITS, Label::Global);
        assert!(regs > 0);
        assert!(lookups > 0);
        assert!(hits <= lookups);
        // The cached-hit telemetry must agree with the server's own rate.
        assert!((hits as f64 / lookups as f64 - r.lookup_cache_hit_rate).abs() < 1e-9);
    }

    #[test]
    fn table1_tiny_matches_paper_shape() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny));
        let row = |name: &str| {
            r.rows
                .iter()
                .find(|row| row.component == name)
                .unwrap_or_else(|| panic!("row {name}"))
                .clone()
        };
        // Scopes as in Table 1.
        assert_eq!(row("Core Beaconing").scope, "Global");
        assert_eq!(row("Intra-ISD Beaconing").scope, "ISD");
        assert_eq!(row("Down-Path Segment Lookup").scope, "Global");
        assert_eq!(row("Core-Path Segment Lookup").scope, "ISD");
        assert_eq!(row("Endpoint Path Lookup").scope, "AS");
        assert_eq!(row("Path (De-)Registration").scope, "ISD");
        // Frequencies.
        assert_eq!(row("Core Beaconing").frequency, "Minutes");
        assert_eq!(row("Intra-ISD Beaconing").frequency, "Minutes");
        assert_eq!(row("Path (De-)Registration").frequency, "Minutes");
        assert_eq!(row("Endpoint Path Lookup").frequency, "Seconds");
        assert_eq!(row("Core-Path Segment Lookup").frequency, "Seconds");
        assert_eq!(row("Path Revocation").frequency, "Seconds");
        // Caching works (the §4.1 amortization).
        assert!(
            r.lookup_cache_hit_rate > 0.3,
            "hit rate {}",
            r.lookup_cache_hit_rate
        );
        // Beaconing dominates the byte budget — the motivation for §4.2.
        let beaconing = row("Core Beaconing").bytes + row("Intra-ISD Beaconing").bytes;
        let rest: u64 = r
            .rows
            .iter()
            .filter(|row| !row.component.contains("Beaconing"))
            .map(|row| row.bytes)
            .sum();
        assert!(beaconing > rest, "beaconing {beaconing} vs rest {rest}");
    }
}
