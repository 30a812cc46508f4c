//! Overload-protection experiment: a flash crowd of path lookups against
//! one front-end path server, unprotected vs shedding vs full degradation.
//!
//! ```text
//! cargo run --release -p scion-bench --bin overload -- \
//!     [--scale tiny|small|paper] [--seed N] [--threads N] [--telemetry DIR]
//! ```
//!
//! Sweeps offered load from 0.5× to 8× of the server's service capacity
//! and prints one three-arm table per load point (goodput, latency
//! percentiles, shed/degraded breakdowns). Writes the JSON record to
//! `results/overload.json`. With `--telemetry DIR`, dumps the recording
//! handle's deterministic telemetry (all arms and loads share one handle,
//! disambiguated by run label) under `DIR`.

use scion_bench::{parse_args, write_json, write_telemetry};
use scion_core::experiments::run_overload_with;
use scion_core::report::{json_line, Table};

fn main() {
    let args = parse_args();
    let threads = args.thread_count(4);
    eprintln!(
        "running overload experiment at {:?} scale, {threads} worker threads…",
        args.scale
    );
    let mut tel = args.telemetry_handle();
    let result = run_overload_with(args.scale, args.seed, threads, &mut tel);

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

    let path = write_json("overload", &json_line(&result));
    eprintln!("JSON written to {}", path.display());
    if let Some(dir) = &args.telemetry {
        write_telemetry(&tel, dir);
    }
}
