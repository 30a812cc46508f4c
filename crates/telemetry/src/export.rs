//! JSONL and Prometheus export of a telemetry dump.
//!
//! A dump directory holds five files:
//!
//! * `metrics.jsonl` — final counter/gauge/histogram values, one JSON
//!   object per line, in deterministic `(kind, id, label)` order;
//! * `metrics.prom` — the same final values in Prometheus text
//!   exposition format, ready for `promtool` or a file-based scrape;
//! * `series.jsonl` — the virtual-time samples, in recording order;
//! * `trace.jsonl` — the retained trace records, oldest first;
//! * `profile.jsonl` — the per-phase wall-clock profile (`calls`, how
//!   many of them were `timed`, totals and latency quantiles of the timed
//!   ones from the [`crate::profile::WALL_NS_BUCKETS`] histograms). This
//!   file is the only nondeterministic one; same-seed runs produce
//!   byte-identical `metrics`/`series`/`trace` files (asserted by
//!   `tests/telemetry_determinism.rs`).

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use serde::Serialize;

use crate::metrics::{Histogram, Label};
use crate::profile::PhaseStats;
use crate::Telemetry;

#[derive(Serialize)]
struct CounterRow<'a> {
    kind: &'static str,
    id: &'a str,
    label: Label,
    value: u64,
}

#[derive(Serialize)]
struct GaugeRow<'a> {
    kind: &'static str,
    id: &'a str,
    label: Label,
    value: f64,
}

#[derive(Serialize)]
struct HistogramRow<'a> {
    kind: &'static str,
    id: &'a str,
    label: Label,
    count: u64,
    sum: f64,
    #[serde(skip_serializing_if = "Option::is_none")]
    min: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    max: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p50: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p90: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p99: Option<f64>,
    bounds: &'a [f64],
    bucket_counts: &'a [u64],
}

impl<'a> HistogramRow<'a> {
    fn new(id: &'a str, label: Label, h: &'a Histogram) -> HistogramRow<'a> {
        HistogramRow {
            kind: "histogram",
            id,
            label,
            count: h.count(),
            sum: h.sum(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.5),
            p90: h.quantile(0.9),
            p99: h.quantile(0.99),
            bounds: h.bounds(),
            bucket_counts: h.bucket_counts(),
        }
    }
}

#[derive(Serialize)]
struct ProfileRow<'a> {
    phase: &'a str,
    calls: u64,
    timed: u64,
    total_ns: u64,
    mean_ns: u64,
    max_ns: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    p50_ns: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p90_ns: Option<f64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    p99_ns: Option<f64>,
}

fn write_line<T: Serialize>(out: &mut impl Write, row: &T) -> io::Result<()> {
    let json = serde_json::to_string(row).expect("telemetry rows are serializable");
    out.write_all(json.as_bytes())?;
    out.write_all(b"\n")
}

impl Telemetry {
    /// Writes the four JSONL files of this dump into `dir` (created if
    /// needed). Existing files are overwritten.
    pub fn export_jsonl(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;

        let mut metrics = io::BufWriter::new(fs::File::create(dir.join("metrics.jsonl"))?);
        for (id, label, value) in self.metrics.counters() {
            write_line(
                &mut metrics,
                &CounterRow {
                    kind: "counter",
                    id: id.name(),
                    label,
                    value,
                },
            )?;
        }
        // The sink's own accounting rides along as synthetic counters so
        // a dump is self-describing about ring-buffer truncation.
        write_line(
            &mut metrics,
            &CounterRow {
                kind: "counter",
                id: "trace.records_emitted",
                label: Label::Global,
                value: self.traces.emitted(),
            },
        )?;
        write_line(
            &mut metrics,
            &CounterRow {
                kind: "counter",
                id: "trace.records_dropped",
                label: Label::Global,
                value: self.traces.dropped(),
            },
        )?;
        for (id, label, value) in self.metrics.gauges() {
            write_line(
                &mut metrics,
                &GaugeRow {
                    kind: "gauge",
                    id: id.name(),
                    label,
                    value,
                },
            )?;
        }
        for (id, label, h) in self.metrics.histograms() {
            write_line(&mut metrics, &HistogramRow::new(id.name(), label, h))?;
        }
        metrics.flush()?;

        let mut series = io::BufWriter::new(fs::File::create(dir.join("series.jsonl"))?);
        for sample in self.series.samples() {
            write_line(&mut series, sample)?;
        }
        series.flush()?;

        let mut trace = io::BufWriter::new(fs::File::create(dir.join("trace.jsonl"))?);
        for record in self.traces.records() {
            write_line(&mut trace, record)?;
        }
        trace.flush()?;

        let mut profile = io::BufWriter::new(fs::File::create(dir.join("profile.jsonl"))?);
        for (phase, stats) in self.profile.phases() {
            let PhaseStats {
                calls,
                timed,
                total_ns,
                max_ns,
            } = stats;
            let latency = self.profile.latency(phase);
            write_line(
                &mut profile,
                &ProfileRow {
                    phase,
                    calls,
                    timed,
                    total_ns,
                    mean_ns: stats.mean_ns(),
                    max_ns,
                    p50_ns: latency.and_then(|h| h.quantile(0.5)),
                    p90_ns: latency.and_then(|h| h.quantile(0.9)),
                    p99_ns: latency.and_then(|h| h.quantile(0.99)),
                },
            )?;
        }
        profile.flush()?;

        let mut prom = io::BufWriter::new(fs::File::create(dir.join("metrics.prom"))?);
        self.export_prometheus(&mut prom)?;
        prom.flush()
    }

    /// Writes the final metric values in Prometheus text exposition
    /// format: one `# TYPE` line per metric family, dotted ids mapped to
    /// underscore names, and labels rendered per [`Label`] variant.
    /// Histograms expand into cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`, as the format requires.
    pub fn export_prometheus(&self, out: &mut impl Write) -> io::Result<()> {
        let mut last_family = String::new();

        for (id, label, value) in self.metrics.counters() {
            let name = prom_family(out, &mut last_family, id.name(), "counter")?;
            writeln!(out, "{name}{} {value}", prom_labels(label))?;
        }
        for (id, value) in [
            ("trace.records_emitted", self.traces.emitted()),
            ("trace.records_dropped", self.traces.dropped()),
        ] {
            let name = prom_family(out, &mut last_family, id, "counter")?;
            writeln!(out, "{name} {value}")?;
        }
        for (id, label, value) in self.metrics.gauges() {
            let name = prom_family(out, &mut last_family, id.name(), "gauge")?;
            writeln!(out, "{name}{} {value}", prom_labels(label))?;
        }
        for (id, label, h) in self.metrics.histograms() {
            let name = prom_family(out, &mut last_family, id.name(), "histogram")?;
            let labels = prom_label_pairs(label);
            let mut cumulative = 0u64;
            for (bound, count) in h.bounds().iter().zip(h.bucket_counts()) {
                cumulative += count;
                let le = prom_number(*bound);
                writeln!(
                    out,
                    "{name}_bucket{} {cumulative}",
                    prom_render_pairs(labels.iter().cloned().chain([("le".into(), le)]))
                )?;
            }
            writeln!(
                out,
                "{name}_bucket{} {}",
                prom_render_pairs(labels.iter().cloned().chain([("le".into(), "+Inf".into())])),
                h.count()
            )?;
            writeln!(
                out,
                "{name}_sum{} {}",
                prom_labels(label),
                prom_number(h.sum())
            )?;
            writeln!(out, "{name}_count{} {}", prom_labels(label), h.count())?;
        }
        Ok(())
    }
}

/// Emits the `# TYPE` header when entering a new metric family; returns
/// the sanitized family name.
fn prom_family(
    out: &mut impl Write,
    last_family: &mut String,
    id: &str,
    kind: &str,
) -> io::Result<String> {
    let name = prom_name(id);
    if name != *last_family {
        writeln!(out, "# TYPE {name} {kind}")?;
        *last_family = name.clone();
    }
    Ok(name)
}

/// Maps a dotted metric id onto a legal Prometheus metric name:
/// every character outside `[a-zA-Z0-9_:]` becomes `_`, and a leading
/// digit gets a `_` prefix.
fn prom_name(id: &str) -> String {
    let mut name: String = id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        name.insert(0, '_');
    }
    name
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn prom_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders an `f64` without a trailing `.0` for integral values, so bucket
/// bounds read `le="1000"` rather than `le="1000.0"`.
fn prom_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn prom_label_pairs(label: Label) -> Vec<(String, String)> {
    match label {
        Label::Global => Vec::new(),
        Label::As(i) => vec![("as".into(), i.to_string())],
        Label::Iface(a, i) => vec![
            ("as".into(), a.to_string()),
            ("iface".into(), i.to_string()),
        ],
        Label::Link(l) => vec![("link".into(), l.to_string())],
    }
}

fn prom_render_pairs(pairs: impl Iterator<Item = (String, String)>) -> String {
    let rendered: Vec<String> = pairs
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(&v)))
        .collect();
    if rendered.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", rendered.join(","))
    }
}

fn prom_labels(label: Label) -> String {
    prom_render_pairs(prom_label_pairs(label).into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use crate::{ids, TelemetryConfig};
    use scion_types::SimTime;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("scion-telemetry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn export_writes_parseable_jsonl() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.inc(ids::BEACONS_ORIGINATED, Label::Global, 3);
        tel.sample(
            SimTime::from_micros(5),
            ids::STORE_OCCUPANCY,
            Label::As(1),
            2.0,
        );
        tel.observe(ids::PCB_AGE_AT_DELIVERY, Label::Global, 1.5);
        tel.trace_event(SimTime::from_micros(9), || TraceEvent::PcbOriginated {
            node: 0,
            egress_if: 1,
            seq: 0,
        });
        tel.profile.record_ns("phase.x", 1234);

        let dir = tmp_dir("export");
        tel.export_jsonl(&dir).unwrap();
        for name in [
            "metrics.jsonl",
            "series.jsonl",
            "trace.jsonl",
            "profile.jsonl",
        ] {
            let content = fs::read_to_string(dir.join(name)).unwrap();
            assert!(!content.is_empty(), "{name} empty");
            for line in content.lines() {
                let v: serde_json::Value = serde_json::from_str(line).unwrap();
                assert!(v.is_object(), "{name}: {line}");
            }
        }
        let metrics = fs::read_to_string(dir.join("metrics.jsonl")).unwrap();
        assert!(metrics.contains("\"beaconing.originated\""));
        assert!(metrics.contains("trace.records_emitted"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prometheus_export_renders_types_labels_and_buckets() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.inc(ids::FWD_FORWARDED, Label::As(3), 12);
        tel.inc(ids::FWD_FORWARDED, Label::As(7), 1);
        tel.sample(
            SimTime::from_micros(1),
            ids::CHAOS_LIVE_PAIR_FRACTION,
            Label::Global,
            0.5,
        );
        for v in [0.5, 1.5, 99.0] {
            tel.observe(ids::FWD_HOPS_AT_DELIVERY, Label::Global, v);
        }

        let mut buf = Vec::new();
        tel.export_prometheus(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();

        assert!(text.contains("# TYPE dataplane_packets_forwarded counter"));
        // One TYPE line per family even with several label sets.
        assert_eq!(
            text.matches("# TYPE dataplane_packets_forwarded").count(),
            1
        );
        assert!(text.contains("dataplane_packets_forwarded{as=\"3\"} 12"));
        assert!(text.contains("dataplane_packets_forwarded{as=\"7\"} 1"));
        assert!(text.contains("# TYPE chaos_live_pair_fraction gauge"));
        assert!(text.contains("chaos_live_pair_fraction 0.5"));
        assert!(text.contains("# TYPE trace_records_emitted counter"));
        assert!(text.contains("# TYPE dataplane_hops_at_delivery histogram"));
        // Buckets are cumulative and end with +Inf == _count.
        assert!(text.contains("dataplane_hops_at_delivery_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("dataplane_hops_at_delivery_sum 101"));
        assert!(text.contains("dataplane_hops_at_delivery_count 3"));
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-cumulative bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn prometheus_names_and_label_values_are_escaped() {
        assert_eq!(
            prom_name("dataplane.drop.bad-mac"),
            "dataplane_drop_bad_mac"
        );
        assert_eq!(prom_name("7seconds"), "_7seconds");
        assert_eq!(prom_escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(prom_number(1000.0), "1000");
        assert_eq!(prom_number(2.5e6), "2500000");
        assert_eq!(prom_number(0.25), "0.25");
    }

    #[test]
    fn profile_rows_carry_latency_quantiles() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        for ns in [200u64, 2_000, 20_000, 200_000] {
            tel.profile.record_ns("phase.q", ns);
        }
        let dir = tmp_dir("prof-q");
        tel.export_jsonl(&dir).unwrap();
        let text = fs::read_to_string(dir.join("profile.jsonl")).unwrap();
        let row: serde_json::Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(row.get("calls").unwrap().as_u64(), Some(4));
        let p50 = row.get("p50_ns").unwrap().as_f64().unwrap();
        let p99 = row.get("p99_ns").unwrap().as_f64().unwrap();
        assert!(p50 > 0.0 && p99 >= p50, "p50={p50} p99={p99}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_content_exports_identical_bytes() {
        let build = || {
            let mut tel = Telemetry::new(TelemetryConfig::default());
            tel.inc(ids::FWD_FORWARDED, Label::As(2), 1);
            tel.inc(ids::BEACONS_ORIGINATED, Label::Global, 7);
            tel.sample(
                SimTime::from_micros(1),
                ids::ENGINE_QUEUE_DEPTH,
                Label::Global,
                0.5,
            );
            tel
        };
        let (da, db) = (tmp_dir("det-a"), tmp_dir("det-b"));
        build().export_jsonl(&da).unwrap();
        build().export_jsonl(&db).unwrap();
        for name in ["metrics.jsonl", "series.jsonl", "trace.jsonl"] {
            assert_eq!(
                fs::read(da.join(name)).unwrap(),
                fs::read(db.join(name)).unwrap(),
                "{name} differs"
            );
        }
        fs::remove_dir_all(&da).ok();
        fs::remove_dir_all(&db).ok();
    }
}
