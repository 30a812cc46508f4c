//! Failure-recovery experiment: live flows under link churn, SCMP fast
//! failover vs path-server re-query vs reconvergence baseline.
//!
//! ```text
//! cargo run --release -p scion-bench --bin recovery -- \
//!     [--scale tiny|small|paper] [--seed N] [--threads N] [--telemetry DIR] \
//!     [--source kind:path] [--ixp PATH]
//! ```
//!
//! Prints the three-arm recovery table (per-flow outage CDFs, failover and
//! revocation counters) and writes the JSON record to
//! `results/recovery.json`. With `--telemetry DIR`, dumps the recording
//! handle's deterministic telemetry (all three arms share one handle,
//! disambiguated by run label) under `DIR`.

use scion_bench::{parse_args, write_json, write_telemetry};
use scion_core::experiments::run_recovery_in;
use scion_core::report::{json_line, Table};

fn main() {
    let args = parse_args();
    let threads = args.thread_count(4);
    eprintln!(
        "running recovery experiment at {:?} scale, {threads} worker threads…",
        args.scale
    );
    let mut tel = args.telemetry_handle();
    let world = args.build_world();
    let result = run_recovery_in(&world, threads, &mut tel);

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

    let path = write_json("recovery", &json_line(&result));
    eprintln!("JSON written to {}", path.display());
    if let Some(dir) = &args.telemetry {
        write_telemetry(&tel, dir);
    }
}
