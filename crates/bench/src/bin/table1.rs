//! Regenerates **Table 1**: path-management overhead comparison —
//! measured scope and frequency per SCION control-plane component.
//!
//! ```text
//! cargo run --release -p scion-bench --bin table1 \
//!     [--scale tiny|small|paper] [--telemetry DIR] [--threads N] \
//!     [--source kind:path] [--ixp PATH]
//! ```

use scion_bench::{parse_args, write_json, write_telemetry};
use scion_core::experiments::run_table1_in;
use scion_core::report::{human_bytes, json_line, Table};

fn main() {
    let args = parse_args();
    let scale = args.scale;
    eprintln!("running Table 1 scenario at {scale:?} scale…");
    let mut tel = args.telemetry_handle();
    let world = args.build_world();
    let result = run_table1_in(&world, args.thread_count(1), &mut tel);

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

    let path = write_json("table1", &json_line(&result));
    eprintln!("JSON written to {}", path.display());
    if let Some(dir) = &args.telemetry {
        write_telemetry(&tel, dir);
    }
}
