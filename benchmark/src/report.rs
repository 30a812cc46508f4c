//! Where results go: `out/results.json`, one trace file per workload, a
//! one-line-per-metric table, and the single JSON line the driver reads.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Value};

use crate::kernels::Metric;
use crate::runner::{Length, Report, WorkloadResult};

/// `benchmark/out`, next to this package's manifest.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// `("<prefix><name>", {"value", "unit"})` per metric.
fn metric_fields<'a>(
    metrics: impl IntoIterator<Item = &'a Metric>,
    prefix: &str,
) -> Vec<(String, Value)> {
    let field = |m: &Metric| {
        let v = json!({ "value": m.value, "unit": m.unit });
        (format!("{prefix}{}", m.name), v)
    };
    metrics.into_iter().map(field).collect()
}

/// Facts about the machine and toolchain, for the results file. Anything
/// that cannot be found reads `unknown`.
fn host_facts() -> Value {
    let unknown = || "unknown".to_string();
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(unknown);
    // `output` waits for the child, so no process outlives this call.
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(unknown);
    // A driver checkout is not a git repository; a developer's is.
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let commit = fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => fs::read_to_string(git.join(r)).ok(),
            None => Some(head),
        })
        .map(|s| s.trim().to_string())
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    json!({ "nproc": nproc, "cpu": cpu, "rustc": rustc, "commit": commit })
}

fn workload_json(w: &WorkloadResult) -> Value {
    let reps = w.reps();
    let mut fields = vec![
        ("correct", Value::Bool(w.correct())),
        ("attempted", Value::U64(w.attempted)),
        ("failed", Value::U64(w.failed)),
        ("errors", json!(w.errors)),
        ("digest", w.digest.to_json()),
        ("end_to_end", object(metric_fields(&w.end_to_end(), ""))),
        (
            "reps",
            json!({
                "n": reps.n as u64,
                "min_s": reps.min,
                "p10_s": reps.p10,
                "q1_s": reps.q1,
                "median_s": reps.median,
                "q3_s": reps.q3
            }),
        ),
        ("rep_s", json!(w.rep_s)),
        ("setup_s", json!(w.setup_s)),
    ];
    if let Some(traced) = &w.traced {
        fields.push(("per_layer", object(metric_fields(&w.own_layers(), ""))));
        fields.push(("span_totals", traced.spans.totals_json()));
    }
    object(fields)
}

/// The whole report as the value written to `results.json`.
pub fn results_json(report: &Report) -> Value {
    let length = match report.options.length {
        Length::Reps(n) => json!({ "reps": n as u64 }),
        Length::Seconds(s) => json!({ "seconds": s }),
    };
    object([
        ("host", host_facts()),
        ("seed", Value::U64(report.options.seed)),
        ("length", length),
        ("trace", Value::Bool(report.options.trace)),
        ("total_s", Value::F64(report.total_s)),
        (
            "workloads",
            object(
                report
                    .workloads
                    .iter()
                    .map(|w| (w.name.to_string(), workload_json(w))),
            ),
        ),
        ("per_layer", object(metric_fields(&report.layers, ""))),
    ])
}

/// Writes `results.json` and one `trace-<workload>.json` per traced
/// workload into `dir`.
pub fn write_files(report: &Report, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(
        dir.join("results.json"),
        results_json(report).to_json() + "\n",
    )?;
    for w in &report.workloads {
        if let Some(traced) = &w.traced {
            let path = dir.join(format!("trace-{}.json", w.name));
            fs::write(path, traced.spans.to_json().to_json() + "\n")?;
        }
    }
    Ok(())
}

/// One line per metric: name, value, unit, workload.
pub fn table(report: &Report) -> String {
    let mut out = String::new();
    let mut line = |m: &Metric, workload: &str| {
        out.push_str(&format!(
            "{:<34} {:>16.6} {:<6} {workload}\n",
            m.name, m.value, m.unit
        ));
    };
    for w in &report.workloads {
        w.end_to_end().iter().for_each(|m| line(m, w.name));
        if w.traced.is_some() {
            w.own_layers().iter().for_each(|m| line(m, w.name));
        }
    }
    report.layers.iter().for_each(|m| line(m, "-"));
    out
}

/// The line the driver reads: `correct`, `attempted`, `failed`, and the
/// end-to-end metrics (untraced) or the per-layer metrics (traced). With
/// one workload the metric names are bare, as `BENCHMARK.json` lists them;
/// with several, a workload's own metrics are prefixed `<workload>/`.
pub fn summary_line(report: &Report) -> String {
    let single = report.workloads.len() == 1;
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for w in &report.workloads {
        let prefix = if single {
            String::new()
        } else {
            format!("{}/", w.name)
        };
        let own = if report.options.trace {
            w.own_layers()
        } else {
            w.end_to_end()
        };
        metrics.extend(metric_fields(&own, &prefix));
    }
    metrics.extend(metric_fields(&report.layers, ""));
    object([
        (
            "correct",
            Value::Bool(report.workloads.iter().all(WorkloadResult::correct)),
        ),
        (
            "attempted",
            Value::U64(report.workloads.iter().map(|w| w.attempted).sum()),
        ),
        (
            "failed",
            Value::U64(report.workloads.iter().map(|w| w.failed).sum()),
        ),
        ("metrics", Value::Object(metrics)),
    ])
    .to_json()
}

/// Rewrites `expected.json` with the outcomes of the workloads that ran,
/// keeping the entries of those that did not. Takes effect at the next
/// build: the file is compiled into the binary.
pub fn update_expected(report: &Report) -> io::Result<()> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let old = fs::read_to_string(&path)
        .ok()
        .and_then(|s| Value::parse_json(&s).ok())
        .and_then(|v| v.get("workloads")?.as_object().cloned())
        .unwrap_or_default();
    let mut entries: Vec<(String, Value)> = old
        .into_iter()
        .filter(|(name, _)| report.workloads.iter().all(|w| w.name != name))
        .collect();
    entries.extend(
        report
            .workloads
            .iter()
            .map(|w| (w.name.to_string(), w.digest.to_json())),
    );
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let file = object([
        ("seed", Value::U64(report.options.seed)),
        ("workloads", Value::Object(entries)),
    ]);
    fs::write(path, file.to_json() + "\n")
}
