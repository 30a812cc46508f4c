//! `scion-benchmark`: run the benchmark, or compare two results files.

use std::path::PathBuf;
use std::process::ExitCode;

use scion_benchmark::compare::{compare, render, Verdict};
use scion_benchmark::report;
use scion_benchmark::runner::{self, Length, Options, DEFAULT_REPS, MIN_REPS};
use scion_benchmark::workloads::{DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
usage: scion-benchmark [--workload NAME[,NAME..]] [--seed N] [--reps N | --seconds S]
                       [--trace 0|1] [--out DIR] [--update-expected]
       scion-benchmark compare A.json[,A2.json..] B.json[,B2.json..]

Without --workload all six workloads run interleaved. --reps (default 600, at
least 10) fixes the number of rounds; --seconds runs rounds for that long.
--trace (default 1) adds the traced pass and the layer kernels, and makes the
final JSON line carry the per-layer metrics instead of the end-to-end ones.
--update-expected rewrites expected.json from this run (default seed only).
compare judges B against A; a side of several files is judged by its median.";

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes exactly two files".into());
    };
    let read = |side: &String| {
        let files = side
            .split(',')
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")));
        files.collect::<Result<Vec<String>, String>>()
    };
    let rows = compare(&read(a)?, &read(b)?)?;
    print!("{}", render(&rows));
    let worse = rows.iter().filter(|r| r.verdict == Verdict::Worse).count();
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_benchmark(args: &[String]) -> Result<ExitCode, String> {
    let mut options = Options {
        workloads: WORKLOADS.iter().map(|&(name, _)| name).collect(),
        seed: DEFAULT_SEED,
        length: Length::Reps(DEFAULT_REPS),
        trace: true,
        check_expected: true,
    };
    let mut out_dir = report::default_out_dir();
    let mut update_expected = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                options.workloads = value()?
                    .split(',')
                    .map(|name| {
                        let known = WORKLOADS.iter().find(|(n, _)| *n == name);
                        known
                            .map(|&(n, _)| n)
                            .ok_or_else(|| format!("unknown workload {name}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n < MIN_REPS {
                    return Err(format!("--reps must be at least {MIN_REPS}"));
                }
                options.length = Length::Reps(n);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                options.length = Length::Seconds(s);
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--update-expected" => update_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if update_expected && options.seed != DEFAULT_SEED {
        return Err(format!(
            "expected.json is recorded at seed {DEFAULT_SEED} only"
        ));
    }
    options.check_expected = !update_expected;

    let mut report = runner::run(options);
    if report.options.trace {
        runner::measure_layers(&mut report);
    }
    report::write_files(&report, &out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if update_expected {
        report::update_expected(&report).map_err(|e| format!("expected.json: {e}"))?;
    }
    for w in &report.workloads {
        for e in &w.errors {
            eprintln!("{}: {e}", w.name);
        }
    }
    print!("{}", report::table(&report));
    println!("{}", report::summary_line(&report));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((first, rest)) if first == "compare" => run_compare(rest),
        Some((first, _)) if first == "--help" || first == "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => run_benchmark(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("scion-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
