//! Forwarding microbenchmark: data-plane packets/sec through a chain of
//! border routers, scalar vs batched hop-field verification.
//!
//! ```text
//! cargo run --release -p scion-bench --bin fwd -- \
//!     [--scale tiny|small|paper] [--seed N] [--threads N] [--telemetry DIR] \
//!     [--source kind:path] [--ixp PATH]
//! ```
//!
//! Prints per-arm throughput, per-hop latency quantiles, and the drop
//! breakdown; writes the JSON record to `results/forwarding.json`. With
//! `--telemetry DIR`, dumps the scalar arm's telemetry under
//! `DIR/scalar/` and the batched arm's under `DIR/batched/` — their
//! deterministic files must be byte-identical (`telediff DIR/scalar
//! DIR/batched` exits 0). Both arms must report identical protocol
//! outcomes; a mismatch is a determinism violation and exits nonzero.

use scion_bench::{parse_args, write_json, write_telemetry};
use scion_core::experiments::run_forwarding_in;
use scion_core::report::{json_line, Table};

fn main() {
    let args = parse_args();
    let threads = args.thread_count(4);
    eprintln!(
        "running forwarding bench at {:?} scale, {threads} worker threads…",
        args.scale
    );
    let mut tel_scalar = args.telemetry_handle();
    let mut tel_batched = args.telemetry_handle();
    let world = args.build_world();
    let result = run_forwarding_in(&world, threads, &mut tel_scalar, &mut tel_batched);

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

    let path = write_json("forwarding", &json_line(&result));
    eprintln!("JSON written to {}", path.display());
    if let Some(dir) = &args.telemetry {
        write_telemetry(&tel_scalar, &dir.join("scalar"));
        write_telemetry(&tel_batched, &dir.join("batched"));
    }
}
