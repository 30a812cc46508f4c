//! The experiment harness: `scion-bench <experiment> [flags]`.
//!
//! Every experiment is one row of [`ROWS`]: the driver parses the flags
//! the row reads (any other flag is an error, so a typo or a flag the
//! experiment ignores never silently runs something else), builds the
//! [`RunCtx`], prints the rendered table to stdout, writes the JSON record
//! to `results/<record>.json` so EXPERIMENTS.md numbers can be regenerated
//! and diffed, and with `--telemetry DIR` dumps every handle the
//! experiment kept as JSONL plus a `summary.txt` (see README.md,
//! "Telemetry & profiling"). `scion-bench --help` lists the rows.

mod render;

use std::path::{Path, PathBuf};

use serde::Serialize;

use scion_core::beaconing::tuning::{grid_search, TuningResult};
use scion_core::beaconing::BeaconingConfig;
use scion_core::experiments::scaling::DEFAULT_THREAD_COUNTS;
use scion_core::experiments::{
    ablation, fig5, fig6, forwarding, lossy, overload, recovery, resilience, scaling, scionlab,
    table1, RunCtx,
};
use scion_core::ingest::{
    canonical_json, ingest_spec, IxpApplyReport, NormalizeReport, Provenance, TopologyStats,
};
use scion_core::prelude::*;
use scion_core::report::{json_line, telemetry_summary};
use scion_core::topology::isd::assign_isds;

/// A command-line flag. Each takes one value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flag {
    Scale,
    Seed,
    Threads,
    Telemetry,
    Source,
    Ixp,
    Loss,
    Export,
}

use Flag::{Export, Ixp, Loss, Scale, Seed, Source, Threads};

const FLAGS: [Flag; 8] = [
    Scale,
    Seed,
    Threads,
    Flag::Telemetry,
    Source,
    Ixp,
    Loss,
    Export,
];

impl Flag {
    const fn name(self) -> &'static str {
        match self {
            Scale => "--scale",
            Seed => "--seed",
            Threads => "--threads",
            Flag::Telemetry => "--telemetry",
            Source => "--source",
            Ixp => "--ixp",
            Loss => "--loss",
            Export => "--export",
        }
    }

    const fn usage(self) -> &'static str {
        match self {
            Scale => "--scale tiny|small|paper (default small; --tiny and --full are shorthands)",
            Seed => "--seed N: master seed, replacing the scale's built-in one",
            Threads => "--threads N: worker threads (results do not depend on it); `scaling` takes a list a,b,… and measures one row per count",
            Flag::Telemetry => "--telemetry DIR: record telemetry and dump JSONL + summary.txt under DIR",
            Source => "--source kind:path: run on an ingested topology (as-rel|graphml|rib) instead of the generator's",
            Ixp => "--ixp PATH: IXP-overlay document applied to --source",
            Loss => "--loss a,b,…: per-message loss probabilities swept, cleanest first",
            Export => "--export PATH: also write the canonical topology JSON",
        }
    }
}

/// One experiment: what it is called, what it regenerates, the flags its
/// runner reads, and how to run and print it.
struct Row {
    name: &'static str,
    about: &'static str,
    /// Base name of the `results/<record>.json` it writes.
    record: &'static str,
    flags: &'static [Flag],
    /// `--threads` when absent (rows that do not read it run on one).
    threads: &'static [usize],
    /// Runs the experiment, prints its table, returns the JSON record.
    run: fn(&mut RunCtx) -> String,
}

/// Flags of every experiment that runs on the context's world.
const WORLD: [Flag; 4] = [Scale, Seed, Source, Ixp];

static ROWS: [Row; 16] = [
    Row {
        name: "table1",
        about: "Table 1: scope and frequency of every control-plane component",
        record: "table1",
        flags: &[Scale, Seed, Source, Ixp, Threads, Flag::Telemetry],
        threads: &[1],
        run: |ctx| show(table1::run(ctx), render::table1),
    },
    Row {
        name: "fig5",
        about: "Figure 5: monthly control-plane overhead relative to BGP, per monitor",
        record: "fig5",
        flags: &[Scale, Seed, Source, Ixp, Threads, Flag::Telemetry],
        threads: &[1],
        run: |ctx| show(fig5::run(ctx), render::fig5),
    },
    Row {
        name: "fig6a",
        about: "Figure 6a: failing links needed to disconnect an AS pair",
        record: "fig6a",
        flags: &WORLD,
        threads: &[1],
        run: |ctx| show(fig6::run(ctx), render::fig6a),
    },
    Row {
        name: "fig6b",
        about: "Figure 6b: capacity between AS pairs as a fraction of the optimum",
        record: "fig6b",
        flags: &WORLD,
        threads: &[1],
        run: |ctx| show(fig6::run(ctx), render::fig6b),
    },
    Row {
        name: "fig7",
        about: "Figure 7 (App. B): Figure 6a on the SCIONLab topology, per storage limit",
        record: "fig7",
        flags: &[Scale, Seed],
        threads: &[1],
        run: |ctx| show(scionlab::run_fig78(ctx), render::fig7),
    },
    Row {
        name: "fig8",
        about: "Figure 8 (App. B): Figure 6b on the SCIONLab topology",
        record: "fig8",
        flags: &[Scale, Seed],
        threads: &[1],
        run: |ctx| show(scionlab::run_fig78(ctx), render::fig8),
    },
    Row {
        name: "fig9",
        about: "Figure 9 (App. B): core-beaconing bandwidth per SCIONLab interface",
        record: "fig9",
        flags: &[Scale, Seed],
        threads: &[1],
        run: |ctx| show(scionlab::run_fig9(ctx), render::fig9),
    },
    Row {
        name: "ablation",
        about: "Ablation of the diversity algorithm's scoring ingredients (DESIGN.md §6)",
        record: "ablation",
        flags: &WORLD,
        threads: &[1],
        run: |ctx| show(ablation::run(ctx), render::ablation),
    },
    Row {
        name: "tune",
        about: "§4.2 grid search for the diversity parameters on a small core",
        record: "tune",
        flags: &[Scale, Seed],
        threads: &[1],
        run: tune,
    },
    Row {
        name: "resilience",
        about: "Live-path fraction under link churn: diversity vs baseline vs BGP",
        record: "resilience",
        flags: &[Scale, Seed, Source, Ixp, Flag::Telemetry],
        threads: &[1],
        run: |ctx| show(resilience::run(ctx), render::resilience),
    },
    Row {
        name: "lossy",
        about: "Loss-rate sweep: reliable channel vs no-retry, plus the degradation leg",
        record: "lossy",
        flags: &[Scale, Seed, Source, Ixp, Threads, Flag::Telemetry, Loss],
        threads: &[1],
        run: |ctx| show(lossy::run(ctx), render::lossy),
    },
    Row {
        name: "scaling",
        about: "Beaconing wall-clock and events/s per worker-thread count (determinism audit)",
        record: "scaling",
        flags: &[Scale, Seed, Source, Ixp, Threads, Flag::Telemetry],
        threads: DEFAULT_THREAD_COUNTS,
        run: |ctx| show(scaling::run(ctx), render::scaling),
    },
    Row {
        name: "fwd",
        about: "Dataplane packets/s, scalar vs batched hop-field verification",
        record: "forwarding",
        flags: &[Scale, Seed, Source, Ixp, Threads, Flag::Telemetry],
        threads: &[4],
        run: |ctx| show(forwarding::run(ctx), render::fwd),
    },
    Row {
        name: "recovery",
        about: "Live flows under link failure: SCMP failover vs re-query vs reconvergence",
        record: "recovery",
        flags: &[Scale, Seed, Source, Ixp, Threads, Flag::Telemetry],
        threads: &[4],
        run: |ctx| show(recovery::run(ctx), render::recovery),
    },
    Row {
        name: "overload",
        about: "Flash crowd on one path server: unprotected vs shedding vs full degradation",
        record: "overload",
        flags: &[Scale, Seed, Threads, Flag::Telemetry],
        threads: &[4],
        run: |ctx| show(overload::run(ctx), render::overload),
    },
    Row {
        name: "ingest",
        about: "Topology-ingestion inspector: statistics and canonical form of --source",
        record: "ingest",
        flags: &[Source, Ixp, Export],
        threads: &[1],
        run: ingest,
    },
];

/// `--scale --seed …`: a flag set as the table and the error message show it.
fn names(flags: &[Flag]) -> String {
    let names: Vec<&str> = flags.iter().map(|f| f.name()).collect();
    names.join(" ")
}

/// Prints `result` through its renderer and serializes it as the record.
fn show<R: Serialize>(result: R, render: fn(&R)) -> String {
    render(&result);
    json_line(&result)
}

/// Tuning runs dozens of simulations, so it uses a deliberately small core
/// of its own rather than the context's world.
fn tune(ctx: &mut RunCtx) -> String {
    let params = ctx.params;
    let internet = generate_internet(&GeneratorConfig::small(
        params.num_ases.min(200),
        params.seed,
    ));
    let (mut core, _) = prune_to_top_degree(&internet, params.num_core.min(16));
    assign_isds(&mut core, params.isd_size);

    let base = BeaconingConfig {
        interval: params.interval,
        pcb_lifetime: params.pcb_lifetime,
        ..BeaconingConfig::default()
    };
    let results: Vec<TuningResult> = grid_search(&core, &base, params.sim_duration, params.seed);
    render::tune(&results);

    let rows: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "alpha": r.params.alpha,
                "beta": r.params.beta,
                "gamma": r.params.gamma,
                "threshold": r.params.score_threshold,
                "bytes": r.total_bytes,
                "coverage": r.coverage,
                "links_per_pair": r.avg_distinct_links,
                "objective": r.objective,
            })
        })
        .collect();
    json_line(&rows)
}

/// The `results/ingest.json` record of one run.
#[derive(Serialize)]
struct IngestRecord<'a> {
    provenance: &'a Provenance,
    fingerprint: String,
    stats: TopologyStats,
    normalize: NormalizeReport,
    ixp: &'a Option<IxpApplyReport>,
}

fn ingest(ctx: &mut RunCtx) -> String {
    let Some(ingested) = &ctx.source else {
        eprintln!("ingest requires --source kind:path (as-rel|graphml|rib)");
        std::process::exit(2);
    };
    let topo = &ingested.topology;
    let stats = TopologyStats::compute(topo);
    render::ingest(ingested, &stats);

    // The materialized multigraph must hold the topology invariants —
    // a cheap end-to-end audit of the whole pipeline on every run.
    topo.to_topology()
        .check_invariants()
        .expect("ingested topology violates multigraph invariants");

    json_line(&IngestRecord {
        provenance: &ingested.provenance,
        fingerprint: topo.fingerprint(),
        stats,
        normalize: topo.report,
        ixp: &ingested.ixp,
    })
}

/// What `--help` prints: the experiment table (README.md carries the same
/// lines; a test keeps them equal) and the flag syntax.
fn usage() -> String {
    let mut out = String::from(
        "usage: scion-bench <experiment> [flags]\n\n\
         | experiment | regenerates | flags it reads | default `--threads` |\n\
         |---|---|---|---|\n",
    );
    for row in &ROWS {
        let threads = if row.flags.contains(&Threads) {
            let counts: Vec<String> = row.threads.iter().map(|n| n.to_string()).collect();
            counts.join(",")
        } else {
            "–".to_string()
        };
        out += &format!(
            "| `{}` | {} | `{}` | {} |\n",
            row.name,
            row.about,
            names(row.flags),
            threads
        );
    }
    out.push_str("\nflags (a flag the experiment does not read is an error):\n");
    for flag in FLAGS {
        out += &format!("  {}\n", flag.usage());
    }
    out
}

/// A parsed command line: the row, its context (topology not yet
/// ingested), and the paths only the driver uses.
struct Invocation {
    row: &'static Row,
    ctx: RunCtx,
    source: Option<String>,
    ixp: Option<PathBuf>,
    telemetry: Option<PathBuf>,
    export: Option<PathBuf>,
}

/// Why the command line did not yield a run: the message and exit code.
#[derive(Debug)]
struct Stop {
    code: i32,
    message: String,
}

fn bad(message: String) -> Stop {
    Stop { code: 2, message }
}

fn parse_list<T: std::str::FromStr>(v: &str) -> Option<Vec<T>> {
    v.split(',').map(|s| s.trim().parse().ok()).collect()
}

fn parse(args: &[String]) -> Result<Invocation, Stop> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(Stop {
            code: 0,
            message: usage(),
        });
    }
    let Some(name) = args.first() else {
        return Err(bad(usage()));
    };
    let Some(row) = ROWS.iter().find(|r| r.name == name) else {
        let names: Vec<&str> = ROWS.iter().map(|r| r.name).collect();
        return Err(bad(format!(
            "unknown experiment '{name}' (expected one of: {})",
            names.join(" ")
        )));
    };

    let mut scale = ExperimentScale::Small;
    let mut seed = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut loss = None;
    let (mut source, mut ixp, mut telemetry, mut export) = (None, None, None, None);
    let mut args = args[1..].iter();
    while let Some(arg) = args.next() {
        let (flag, shorthand) = match arg.as_str() {
            "--tiny" => (Scale, Some("tiny")),
            "--full" => (Scale, Some("paper")),
            other => match FLAGS.iter().find(|f| f.name() == other) {
                Some(&flag) => (flag, None),
                None => return Err(bad(format!("unknown argument '{other}'"))),
            },
        };
        if !row.flags.contains(&flag) {
            return Err(bad(format!(
                "{} does not read {arg} (it reads: {})",
                row.name,
                names(row.flags)
            )));
        }
        let v = match shorthand {
            Some(v) => v,
            None => args.next().map(String::as_str).unwrap_or_default(),
        };
        let invalid = || bad(format!("invalid value '{v}': {}", flag.usage()));
        match flag {
            Scale => scale = ExperimentScale::parse(v).ok_or_else(invalid)?,
            Seed => seed = Some(v.parse().map_err(|_| invalid())?),
            Threads => {
                let counts = parse_list::<usize>(v).filter(|c| c.iter().all(|&n| n >= 1));
                threads = Some(counts.ok_or_else(invalid)?);
            }
            Loss => {
                let rates =
                    parse_list::<f64>(v).filter(|r| r.iter().all(|p| (0.0..=1.0).contains(p)));
                loss = Some(rates.ok_or_else(invalid)?);
            }
            Source | Ixp | Flag::Telemetry | Export if v.is_empty() => return Err(invalid()),
            Source => source = Some(v.to_string()),
            Ixp => ixp = Some(PathBuf::from(v)),
            Flag::Telemetry => telemetry = Some(PathBuf::from(v)),
            Export => export = Some(PathBuf::from(v)),
        }
    }
    if ixp.is_some() && source.is_none() {
        return Err(bad("--ixp applies to --source; give both".to_string()));
    }

    let mut ctx = RunCtx::new(scale);
    if let Some(seed) = seed {
        ctx.params.seed = seed;
    }
    let threads = threads.as_deref().unwrap_or(row.threads);
    ctx.threads = threads[0];
    ctx.thread_counts = threads.to_vec();
    if let Some(loss) = loss {
        ctx.loss_rates = loss;
    }
    ctx.recording = telemetry.is_some();
    Ok(Invocation {
        row,
        ctx,
        source,
        ixp,
        telemetry,
        export,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Invocation {
        row,
        mut ctx,
        source,
        ixp,
        telemetry,
        export,
    } = parse(&args).unwrap_or_else(|stop| {
        eprintln!("{}", stop.message.trim_end());
        std::process::exit(stop.code);
    });

    if let Some(spec) = &source {
        let ingested = ingest_spec(spec, ixp.as_deref()).unwrap_or_else(|e| {
            eprintln!("--source {spec}: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "ingested {} ({}): {} ASes, {} links, fingerprint {}",
            ingested.provenance.origin,
            ingested.provenance.kind,
            ingested.topology.num_ases(),
            ingested.topology.num_links(),
            ingested.topology.fingerprint(),
        );
        ctx.source = Some(ingested);
    }

    eprintln!("running {} — {}…", row.name, row.about);
    let record = (row.run)(&mut ctx);
    let path = PathBuf::from(format!("results/{}.json", row.record));
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, record).expect("write results file");
    eprintln!("JSON written to {}", path.display());

    // `ingest --export`: the canonical form alone, so equivalent inputs in
    // different formats export byte-identically and `telediff` gates on it.
    if let (Some(path), Some(ingested)) = (&export, &ctx.source) {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).expect("create export directory");
        }
        std::fs::write(path, canonical_json(&ingested.topology)).expect("write canonical export");
        eprintln!("canonical export written to {}", path.display());
    }

    if let Some(dir) = &telemetry {
        for (label, tel) in &ctx.dumps {
            write_telemetry(tel, &dir.join(label));
        }
    }
}

/// Dumps a telemetry handle as JSONL files plus a rendered `summary.txt`
/// under `dir`.
fn write_telemetry(tel: &Telemetry, dir: &Path) {
    tel.export_jsonl(dir).expect("write telemetry dump");
    std::fs::write(dir.join("summary.txt"), telemetry_summary(tel))
        .expect("write telemetry summary");
    eprintln!("telemetry dump written to {}", dir.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn stop(line: &str) -> Stop {
        match parse(&argv(line)) {
            Err(stop) => stop,
            Ok(inv) => panic!("'{line}' parsed as a run of {}", inv.row.name),
        }
    }

    #[test]
    fn every_row_rejects_each_flag_it_does_not_read() {
        for row in &ROWS {
            let unread: Vec<Flag> = FLAGS
                .into_iter()
                .filter(|f| !row.flags.contains(f))
                .collect();
            assert!(!unread.is_empty(), "{} reads every flag", row.name);
            for flag in unread {
                let s = stop(&format!("{} {} x", row.name, flag.name()));
                assert_eq!(s.code, 2);
                assert!(
                    s.message.contains(row.name) && s.message.contains(flag.name()),
                    "{}: {}",
                    row.name,
                    s.message
                );
            }
        }
    }

    #[test]
    fn shorthands_are_the_scale_flag() {
        assert_eq!(
            parse(&argv("fig9 --tiny")).unwrap().ctx.scale,
            ExperimentScale::Tiny
        );
        assert!(stop("ingest --full").message.contains("--full"));
    }

    #[test]
    fn unknown_experiment_and_unknown_flag_exit_2() {
        let s = stop("fig10 --scale tiny");
        assert_eq!(s.code, 2);
        assert!(s.message.contains("fig10") && s.message.contains("fig9"));
        let s = stop("fig9 --sclae tiny");
        assert_eq!(s.code, 2);
        assert!(s.message.contains("--sclae"));
        assert_eq!(stop("fig9 --scale huge").code, 2);
        assert_eq!(stop("table1 --ixp tests/data/equiv.ixp").code, 2);
        assert_eq!(stop("").code, 2);
    }

    #[test]
    fn help_lists_every_row() {
        for line in ["--help", "-h", "fig9 --help"] {
            let s = stop(line);
            assert_eq!(s.code, 0);
            for row in &ROWS {
                assert!(s.message.contains(&format!("| `{}` |", row.name)));
            }
        }
    }

    #[test]
    fn flags_land_in_the_context() {
        let inv = parse(&argv(
            "lossy --scale tiny --seed 7 --loss 0,0.05 --threads 2 --telemetry out/lossy",
        ))
        .unwrap();
        assert_eq!(inv.ctx.scale, ExperimentScale::Tiny);
        assert_eq!(inv.ctx.params.seed, 7);
        assert_eq!(inv.ctx.loss_rates, [0.0, 0.05]);
        assert_eq!(inv.ctx.threads, 2);
        assert!(inv.ctx.recording);
        assert_eq!(inv.telemetry, Some(PathBuf::from("out/lossy")));

        let inv = parse(&argv("scaling --threads 1,2")).unwrap();
        assert_eq!(inv.ctx.thread_counts, [1, 2]);
        let inv = parse(&argv("scaling")).unwrap();
        assert_eq!(inv.ctx.thread_counts, DEFAULT_THREAD_COUNTS);
        assert_eq!(parse(&argv("fwd")).unwrap().ctx.threads, 4);
        assert_eq!(parse(&argv("table1")).unwrap().ctx.threads, 1);
    }

    /// README's "Regenerating the paper's evaluation" table is the
    /// `--help` table: same rows, flag sets and defaults.
    #[test]
    fn readme_table_is_the_help_table() {
        let readme = include_str!("../../../README.md");
        let usage = usage();
        let table: Vec<&str> = usage.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(table.len(), ROWS.len() + 2);
        for line in &table {
            assert!(readme.contains(line), "README.md lacks the row:\n{line}");
        }
        // And README lists no experiment that is not a row.
        let section = readme
            .split("## Regenerating the paper's evaluation")
            .nth(1)
            .expect("README has the section")
            .split("\n## ")
            .next()
            .unwrap();
        for line in section.lines().filter(|l| l.starts_with("| `")) {
            assert!(table.contains(&line), "README.md lists a non-row:\n{line}");
        }
    }

    #[test]
    fn write_telemetry_dumps_jsonl_and_summary() {
        use scion_core::telemetry::{ids, Label};
        let tmp = std::env::temp_dir().join(format!("scion-bench-tel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.inc(ids::BEACONS_SENT, Label::As(0), 4);
        write_telemetry(&tel, &tmp);
        for name in [
            "metrics.jsonl",
            "series.jsonl",
            "trace.jsonl",
            "profile.jsonl",
            "summary.txt",
        ] {
            assert!(tmp.join(name).exists(), "{name} missing");
        }
        let summary = std::fs::read_to_string(tmp.join("summary.txt")).unwrap();
        assert!(summary.contains(ids::BEACONS_SENT.name()), "{summary}");
        std::fs::remove_dir_all(&tmp).ok();
    }
}
