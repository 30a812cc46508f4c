//! Report formatting: human-readable tables and machine-readable JSON
//! rows for every experiment, so EXPERIMENTS.md numbers can be diffed
//! against re-runs.

use std::fmt::Write as _;

use scion_telemetry::{Label, MetricId, Telemetry};
use serde::Serialize;

/// A simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders the table with per-column widths.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell, width = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a byte count with a binary-ish magnitude suffix.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1000.0 && unit < UNITS.len() - 1 {
        v /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Formats a ratio in scientific notation (the Fig. 5 y-axis is log scale).
pub fn sci(v: f64) -> String {
    format!("{v:.3e}")
}

/// Serializes an experiment result record as one JSON line.
pub fn json_line<T: Serialize>(record: &T) -> String {
    serde_json::to_string(record).expect("experiment records are serializable")
}

fn label_cell(label: Label) -> String {
    match label {
        Label::Global => "global".to_string(),
        Label::As(i) => format!("as:{i}"),
        Label::Iface(i, f) => format!("if:{i}/{f}"),
        Label::Link(l) => format!("link:{l}"),
    }
}

/// Renders a human-readable summary of a telemetry dump: counters,
/// gauges, histogram quantiles, trace volume, and the wall-clock phase
/// profile. Per-interface/per-AS counter and gauge instances are
/// aggregated per metric id to keep the tables readable at scale; the
/// full-resolution data lives in the JSONL export.
pub fn telemetry_summary(tel: &Telemetry) -> String {
    let mut out = String::new();

    // -- Counters, aggregated per metric id. --
    let mut by_id: Vec<(MetricId, u64, usize)> = Vec::new();
    for (id, _label, v) in tel.metrics.counters() {
        match by_id.last_mut() {
            Some((last, sum, n)) if *last == id => {
                *sum += v;
                *n += 1;
            }
            _ => by_id.push((id, v, 1)),
        }
    }
    if !by_id.is_empty() {
        let mut t = Table::new(&["counter", "total", "instances"]);
        for (id, sum, n) in &by_id {
            t.row(&[id.to_string(), sum.to_string(), n.to_string()]);
        }
        out.push_str("== Counters ==\n");
        out.push_str(&t.render());
        out.push('\n');
    }

    // -- Final gauge values: global instances verbatim, labelled
    //    instances summarised as count + sum. --
    let mut gauge_rows: Vec<[String; 2]> = Vec::new();
    let mut agg: Option<(MetricId, f64, usize)> = None;
    let flush = |agg: &mut Option<(MetricId, f64, usize)>, rows: &mut Vec<[String; 2]>| {
        if let Some((id, sum, n)) = agg.take() {
            rows.push([format!("{id} ({n} instances)"), format!("sum {sum:.1}")]);
        }
    };
    for (id, label, v) in tel.metrics.gauges() {
        if label == Label::Global {
            flush(&mut agg, &mut gauge_rows);
            gauge_rows.push([id.to_string(), format!("{v:.1}")]);
        } else {
            match &mut agg {
                Some((last, sum, n)) if *last == id => {
                    *sum += v;
                    *n += 1;
                }
                _ => {
                    flush(&mut agg, &mut gauge_rows);
                    agg = Some((id, v, 1));
                }
            }
        }
    }
    flush(&mut agg, &mut gauge_rows);
    if !gauge_rows.is_empty() {
        let mut t = Table::new(&["gauge (final)", "value"]);
        for r in &gauge_rows {
            t.row(&[r[0].clone(), r[1].clone()]);
        }
        out.push_str("== Gauges ==\n");
        out.push_str(&t.render());
        out.push('\n');
    }

    // -- Histograms: count/mean plus cumulative-walk quantiles. --
    let hists: Vec<_> = tel.metrics.histograms().collect();
    if !hists.is_empty() {
        let mut t = Table::new(&[
            "histogram",
            "label",
            "count",
            "mean",
            "p50",
            "p90",
            "p99",
            "max",
        ]);
        let q = |h: &scion_telemetry::Histogram, p: f64| {
            h.quantile(p)
                .map_or_else(|| "-".into(), |v| format!("{v:.3}"))
        };
        for (id, label, h) in hists {
            t.row(&[
                id.to_string(),
                label_cell(label),
                h.count().to_string(),
                format!("{:.3}", h.mean()),
                q(h, 0.5),
                q(h, 0.9),
                q(h, 0.99),
                h.max().map_or_else(|| "-".into(), |v| format!("{v:.3}")),
            ]);
        }
        out.push_str("== Histograms ==\n");
        out.push_str(&t.render());
        out.push('\n');
    }

    // -- Trace and series volume. --
    if tel.traces.emitted() > 0 || !tel.series.is_empty() {
        let mut t = Table::new(&["stream", "records"]);
        t.row(&["series samples".into(), tel.series.len().to_string()]);
        t.row(&["trace emitted".into(), tel.traces.emitted().to_string()]);
        t.row(&[
            "trace dropped (ring)".into(),
            tel.traces.dropped().to_string(),
        ]);
        out.push_str("== Streams ==\n");
        out.push_str(&t.render());
        if tel.traces.dropped() > 0 {
            let _ = writeln!(
                out,
                "WARNING: trace ring wrapped — the oldest {} of {} records are gone",
                tel.traces.dropped(),
                tel.traces.emitted()
            );
        }
        out.push('\n');
    }

    // -- Wall-clock phase profile: `timed ms` covers the timed calls only
    //    (all of them, except for sampled hot spans); `est. total ms`
    //    scales their mean to every call, so a sampled phase reads at its
    //    real weight beside the others. --
    if !tel.profile.is_empty() {
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        let mut t = Table::new(&[
            "phase",
            "calls",
            "timed",
            "timed ms",
            "est. total ms",
            "mean ms",
            "max ms",
        ]);
        for (name, s) in tel.profile.phases() {
            t.row(&[
                name.to_string(),
                s.calls.to_string(),
                s.timed.to_string(),
                ms(s.total_ns),
                ms(s.mean_ns().saturating_mul(s.calls)),
                ms(s.mean_ns()),
                ms(s.max_ns),
            ]);
        }
        out.push_str("== Wall-clock profile ==\n");
        out.push_str(&t.render());
    }

    if out.is_empty() {
        out.push_str("(telemetry disabled: nothing recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["longer-name".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
        assert!(lines[3].starts_with("longer-name"));
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn human_bytes_scales() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1_500), "1.50 KB");
        assert_eq!(human_bytes(2_000_000), "2.00 MB");
        assert_eq!(human_bytes(3_200_000_000), "3.20 GB");
    }

    #[test]
    fn telemetry_summary_covers_every_section() {
        use scion_telemetry::{ids, phase, TelemetryConfig, TraceEvent, HOT_SPAN_SAMPLE};
        use scion_types::SimTime;

        let mut tel = Telemetry::new(TelemetryConfig {
            trace_capacity: 2,
            ..TelemetryConfig::default()
        });
        let originated = |seq| TraceEvent::PcbOriginated {
            node: 0,
            egress_if: 1,
            seq,
        };
        tel.inc(ids::BEACONS_SENT, Label::As(0), 5);
        tel.inc(ids::BEACONS_SENT, Label::As(1), 7);
        tel.sample(SimTime::ZERO, ids::ENGINE_QUEUE_DEPTH, Label::Global, 3.0);
        tel.sample(SimTime::ZERO, ids::IFACE_BYTES, Label::Iface(0, 1), 9.0);
        tel.observe(ids::PCB_HOPS_AT_DELIVERY, Label::Global, 2.0);
        tel.trace_event(SimTime::ZERO, || originated(0));
        tel.profile.record_ns(phase::ORIGINATION, 1_000_000);

        let s = telemetry_summary(&tel);
        assert!(s.contains("== Counters =="), "{s}");
        // The two per-AS instances aggregate into one row.
        assert!(s.contains("beaconing.sent_messages"), "{s}");
        assert!(s.contains("12"), "{s}");
        assert!(s.contains("== Gauges =="), "{s}");
        assert!(s.contains("engine.queue_depth"), "{s}");
        assert!(s.contains("== Histograms =="), "{s}");
        assert!(s.contains("== Streams =="), "{s}");
        assert!(!s.contains("WARNING"), "{s}");
        assert!(s.contains("== Wall-clock profile =="), "{s}");
        assert!(s.contains("est. total ms"), "{s}");
        // phase, calls, timed, timed ms, est. total ms, ...: with every
        // call timed the estimate is the measured total.
        let cells = |s: &str, phase: &str| -> Vec<String> {
            let row = s.lines().find(|l| l.starts_with(phase)).expect("phase row");
            row.split_whitespace().map(String::from).collect()
        };
        assert_eq!(
            cells(&s, phase::ORIGINATION)[1..5],
            ["1", "1", "1.000", "1.000"]
        );

        // Wrap the two-record ring, and run one sampling period of hot
        // spans, of which only the first is timed.
        for seq in 1..5 {
            tel.trace_event(SimTime::ZERO, || originated(seq));
        }
        for _ in 0..HOT_SPAN_SAMPLE {
            let span = tel.profile.hot_span(phase::FWD_FORWARD);
            tel.profile.finish(span);
        }
        let s = telemetry_summary(&tel);
        assert!(
            s.contains("WARNING: trace ring wrapped — the oldest 3 of 5 records are gone"),
            "{s}"
        );
        let stats = tel.profile.stats(phase::FWD_FORWARD).unwrap();
        assert_eq!((stats.calls, stats.timed), (HOT_SPAN_SAMPLE, 1));
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        assert_eq!(
            cells(&s, phase::FWD_FORWARD)[3..5],
            [ms(stats.total_ns), ms(stats.total_ns * HOT_SPAN_SAMPLE)],
            "{s}"
        );
    }

    #[test]
    fn telemetry_summary_of_disabled_handle_is_a_stub() {
        let tel = Telemetry::disabled();
        assert!(telemetry_summary(&tel).contains("nothing recorded"));
    }

    #[test]
    fn json_line_roundtrips() {
        #[derive(serde::Serialize)]
        struct R {
            a: u32,
        }
        assert_eq!(json_line(&R { a: 7 }), "{\"a\":7}");
    }
}
