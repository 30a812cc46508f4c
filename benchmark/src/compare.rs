//! `scion-benchmark compare A.json B.json`: did B get worse than A?
//!
//! For every workload both sides hold and every end-to-end metric, prints
//! both values, the relative change, the bound `BENCHMARK.json` fixes, and a
//! verdict. A side may be several results files (`a1.json,a2.json,..`, one
//! per run of a set); its value is then the median over the files, which is
//! what the driver compares. The two-sets acceptance check runs this in both
//! directions.

use serde_json::Value;

/// The benchmark's contract file, for bounds and directions.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// How B's value relates to A's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// Better by more than the bound.
    Better,
}

/// Change from `a` to `b` in the direction that counts as worse, as a share
/// of `a`, judged against `bound`.
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let delta = (b - a) / a;
    let worsening = if higher_is_better { -delta } else { delta };
    let verdict = if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A.
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// `(b − a) / a`.
    pub delta: f64,
    /// The bound from `BENCHMARK.json`.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The median of `metric` for `workload` over the results files of one side.
fn side_value(files: &[Value], workload: &str, metric: &str) -> Option<f64> {
    let mut values: Vec<f64> = files
        .iter()
        .filter_map(|f| {
            let w = f.get("workloads")?.get(workload)?;
            w.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    (!values.is_empty()).then(|| crate::stats::quantile(&values, 0.5))
}

/// Compares two sides, each one or more `results.json` texts.
pub fn compare(a: &[String], b: &[String]) -> Result<Vec<Row>, String> {
    let parse = |texts: &[String], side: &str| {
        let files = texts.iter().map(|t| Value::parse_json(t));
        files
            .collect::<Result<Vec<Value>, _>>()
            .map_err(|e| format!("{side}: {e}"))
    };
    let (a, b) = (parse(a, "A")?, parse(b, "B")?);
    let contract = Value::parse_json(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(gated)) = contract.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    // Every workload any A file holds, in first-seen order.
    let mut names: Vec<&String> = Vec::new();
    for (name, _) in a
        .iter()
        .filter_map(|f| f.get("workloads")?.as_object())
        .flatten()
    {
        if !names.contains(&name) {
            names.push(name);
        }
    }

    let mut rows = Vec::new();
    for name in names {
        for m in gated {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks {k}"))
            };
            let metric = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let bound = field("bound")?.as_f64().ok_or("bound is not a number")?;
            let higher = field("better")?.as_str() == Some("higher");
            let Some(va) = side_value(&a, name, metric) else {
                return Err(format!("{name}/{metric} is missing from A"));
            };
            // A workload only A ran is skipped, not an error.
            let Some(vb) = side_value(&b, name, metric) else {
                continue;
            };
            let (delta, verdict) = judge(va, vb, higher, bound);
            rows.push(Row {
                workload: name.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                delta,
                bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sides share no workload".into());
    }
    Ok(rows)
}

/// The rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<18} {:<13} {:>16} {:>16} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "delta", "bound"
    );
    for r in rows {
        let verdict = match r.verdict {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
        };
        out.push_str(&format!(
            "{:<18} {:<13} {:>16.6} {:>16.6} {:>+8.2}% {:>6.0}%  {verdict}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.delta * 100.0,
            r.bound * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_and_bound() {
        // Higher is better, bound 10%.
        assert_eq!(judge(100.0, 95.0, true, 0.10).1, Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, true, 0.10).1, Verdict::Worse);
        assert_eq!(judge(100.0, 111.0, true, 0.10).1, Verdict::Better);
        // Lower is better, bound 2%.
        assert_eq!(judge(50.0, 50.9, false, 0.02).1, Verdict::Ok);
        assert_eq!(judge(50.0, 51.1, false, 0.02).1, Verdict::Worse);
        assert_eq!(judge(50.0, 48.0, false, 0.02).1, Verdict::Better);
    }

    #[test]
    fn compares_shared_workloads_on_every_gated_metric() {
        let file = |ops: f64| {
            format!(
                r#"{{"workloads":{{"fwd_plain":{{"end_to_end":{{
                    "ops_per_s":{{"value":{ops},"unit":"1/s"}},
                    "setup_s":{{"value":0.1,"unit":"s"}},
                    "peak_live_mb":{{"value":30.0,"unit":"MB"}}}}}}}}}}"#
            )
        };
        let rows = compare(&[file(1000.0)], &[file(700.0)]).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("ops_per_s", Verdict::Worse)
        );
        assert!(rows[1..].iter().all(|r| r.verdict == Verdict::Ok));
        assert!(compare(&[file(1.0)], &[r#"{"workloads":{}}"#.to_string()]).is_err());

        // A side of several runs is judged by its median.
        let set = [file(700.0), file(1000.0), file(990.0)];
        let rows = compare(&[file(1000.0)], &set).unwrap();
        assert_eq!((rows[0].b, rows[0].verdict), (990.0, Verdict::Ok));
    }
}
