//! Lossy control-plane sweep: diversity beaconing over the reliable
//! channel vs a no-retry control across a range of per-message loss
//! rates, reporting availability, convergence, and message/byte
//! overhead, plus the deterministic path-server degradation leg.
//!
//! ```text
//! cargo run --release -p scion-bench --bin lossy -- \
//!     [--scale tiny|small|paper] [--seed N] [--loss 0,0.01,0.05] \
//!     [--telemetry DIR] [--threads N]
//! ```

use scion_bench::{parse_args, write_json, write_telemetry};
use scion_core::experiments::{run_lossy_sweep, LOSS_RATES};
use scion_core::report::{human_bytes, json_line, Table};

fn main() {
    let args = parse_args();
    let rates = args.loss.clone().unwrap_or_else(|| LOSS_RATES.to_vec());
    eprintln!(
        "running lossy sweep at {:?} scale ({} rates × 2 arms + degradation leg)…",
        args.scale,
        rates.len()
    );
    let mut tel = args.telemetry_handle();
    let result = run_lossy_sweep(
        args.scale,
        args.seed,
        &rates,
        args.thread_count(1),
        &mut tel,
    );

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

    let path = write_json("lossy", &json_line(&result));
    eprintln!("JSON written to {}", path.display());
    if let Some(dir) = &args.telemetry {
        write_telemetry(&tel, dir);
    }
}
