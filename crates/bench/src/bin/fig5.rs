//! Regenerates **Figure 5**: distribution of monthly control-plane
//! overhead relative to BGP, per monitor, for BGPsec, SCION core beaconing
//! (baseline and diversity-based), and SCION intra-ISD beaconing.
//!
//! ```text
//! cargo run --release -p scion-bench --bin fig5 \
//!     [--scale tiny|small|paper] [--telemetry DIR] [--threads N] \
//!     [--source kind:path] [--ixp PATH]
//! ```

use scion_bench::{parse_args, write_json, write_telemetry};
use scion_core::experiments::run_fig5_in;
use scion_core::report::{human_bytes, json_line, sci, Table};

fn main() {
    let args = parse_args();
    let scale = args.scale;
    eprintln!("running Figure 5 pipeline at {scale:?} scale (BGP/BGPsec month + SCION beaconing)…");
    let mut tel = args.telemetry_handle();
    let world = args.build_world();
    let result = run_fig5_in(&world, args.thread_count(1), &mut tel);

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

    let path = write_json("fig5", &json_line(&result));
    eprintln!("JSON written to {}", path.display());
    if let Some(dir) = &args.telemetry {
        write_telemetry(&tel, dir);
    }
}
