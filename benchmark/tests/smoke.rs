//! A short invocation of the whole benchmark, twice, plus the contract
//! between what it prints and what `BENCHMARK.json` promises.

use scion_benchmark::kernels;
use scion_benchmark::runner::{self, Length, Options, Report, MIN_REPS};
use scion_benchmark::workloads::{single_threaded, DEFAULT_SEED, UNGATED, WORKLOADS};
use serde_json::Value;

fn invocation() -> Report {
    runner::run(Options {
        workloads: WORKLOADS.iter().map(|&(name, _)| name).collect(),
        seed: DEFAULT_SEED,
        length: Length::Reps(MIN_REPS),
        trace: true,
        check_expected: true,
    })
}

fn names(contract: &Value, list: &str) -> Vec<String> {
    let Some(Value::Array(entries)) = contract.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    entries
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn six_workloads_run_correctly_and_allocations_repeat() {
    let (first, second) = (invocation(), invocation());
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        assert!(a.correct(), "{}: {:?}", a.name, a.errors);
        assert!(b.correct(), "{}: {:?}", b.name, b.errors);
        assert_eq!(a.rep_s.len(), MIN_REPS);
        assert_eq!(a.setup_s.len(), runner::REBUILDS);
        assert_eq!(a.digest, b.digest, "{}", a.name);
        assert!(a.attempted >= a.digest.ops * (MIN_REPS as u64 + 2));
        if single_threaded(a.name) {
            let (ta, tb) = (a.traced.as_ref().unwrap(), b.traced.as_ref().unwrap());
            assert_eq!(
                ta.alloc.count, tb.alloc.count,
                "{} allocation count",
                a.name
            );
            assert_eq!(ta.alloc.bytes, tb.alloc.bytes, "{} allocated bytes", a.name);
            assert_eq!(
                a.peak_live_bytes, b.peak_live_bytes,
                "{} live bytes",
                a.name
            );
        }
    }

    // What the driver is promised is what gets printed.
    let contract = Value::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
    let listed: Vec<String> = names(&contract, "workloads");
    let gated: Vec<&str> = first
        .workloads
        .iter()
        .map(|w| w.name)
        .filter(|name| !UNGATED.contains(name))
        .collect();
    assert_eq!(listed, gated);
    let w = &first.workloads[0];
    let printed: Vec<&str> = w.end_to_end().iter().map(|m| m.name).collect();
    assert_eq!(names(&contract, "end_to_end"), printed);

    let mut report = first;
    report.options.workloads.truncate(1);
    report.workloads.truncate(1);
    runner::measure_layers(&mut report);
    let mut printed: Vec<&str> = report.workloads[0]
        .own_layers()
        .iter()
        .map(|m| m.name)
        .collect();
    printed.extend(report.layers.iter().map(|m| m.name));
    assert_eq!(names(&contract, "per_layer"), printed);
    for m in report
        .layers
        .iter()
        .chain(&report.workloads[0].own_layers())
    {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    assert_eq!(kernels::BATCHES, 7);
}
