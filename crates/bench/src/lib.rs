//! Shared plumbing for the experiment harness binaries.
//!
//! Every binary accepts `--scale tiny|small|paper` (default `small`),
//! prints a human-readable table to stdout, and writes a JSON record to
//! `results/<name>.json` so EXPERIMENTS.md numbers can be regenerated and
//! diffed. Binaries wired for telemetry additionally accept
//! `--telemetry <dir>` and dump the JSONL files plus a `summary.txt`
//! there (see README.md, "Telemetry & profiling").

use std::path::{Path, PathBuf};

use scion_core::experiments::World;
use scion_core::ingest::ingest_spec;
use scion_core::prelude::{ExperimentScale, Telemetry, TelemetryConfig};
use scion_core::report::telemetry_summary;

/// Parsed common CLI arguments of a harness binary.
pub struct BenchArgs {
    pub scale: ExperimentScale,
    /// Output directory of a telemetry dump, when `--telemetry DIR` was
    /// given.
    pub telemetry: Option<PathBuf>,
    /// Master-seed override, when `--seed N` was given. Binaries that
    /// ignore it run at the scale's built-in seed.
    pub seed: Option<u64>,
    /// Loss-rate sweep override, when `--loss a,b,…` was given. Only the
    /// `lossy` binary consumes it; others ignore it.
    pub loss: Option<Vec<f64>>,
    /// Worker-thread counts, when `--threads a,b,…` was given. The
    /// `scaling` binary sweeps the whole list; single-run binaries use the
    /// first entry ([`BenchArgs::thread_count`]).
    pub threads: Option<Vec<usize>>,
    /// Ingested-topology spec (`kind:path`), when `--source` was given.
    /// Experiment binaries then run on the file-derived topology instead
    /// of the synthetic generator's; see `scion-ingest`.
    pub source: Option<String>,
    /// IXP-overlay document path, when `--ixp PATH` was given (only
    /// meaningful together with `--source`).
    pub ixp: Option<PathBuf>,
    /// Canonical-export output path, when `--export PATH` was given.
    /// Only the `ingest` binary consumes it; others ignore it.
    pub export: Option<PathBuf>,
}

impl BenchArgs {
    /// The single thread count of `--threads` for non-sweep binaries:
    /// its first entry, or `default` when the flag was absent. The
    /// beaconing binaries (`table1`, `fig5`, `lossy`) default to one
    /// worker; results do not depend on the count.
    pub fn thread_count(&self, default: usize) -> usize {
        self.threads
            .as_ref()
            .and_then(|t| t.first().copied())
            .unwrap_or(default)
    }

    /// A telemetry handle matching the CLI: recording when `--telemetry`
    /// was given, the inert no-op handle otherwise.
    pub fn telemetry_handle(&self) -> Telemetry {
        if self.telemetry.is_some() {
            Telemetry::new(TelemetryConfig::default())
        } else {
            Telemetry::disabled()
        }
    }

    /// Builds the experiment world the CLI asked for: from the ingested
    /// `--source` topology (plus optional `--ixp` overlay) when given,
    /// otherwise from the synthetic generator at the requested scale. The
    /// `--seed` override applies either way.
    pub fn build_world(&self) -> World {
        let mut params = self.scale.params();
        if let Some(seed) = self.seed {
            params.seed = seed;
        }
        match &self.source {
            Some(spec) => {
                let ingested = ingest_spec(spec, self.ixp.as_deref()).unwrap_or_else(|e| {
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
                World::from_internet(ingested.topology.to_topology(), params)
            }
            None => World::build(params),
        }
    }
}

/// Parses the common CLI arguments of a harness binary.
///
/// Exits with a usage message on unknown arguments, so typos never
/// silently run at the wrong scale.
pub fn parse_args() -> BenchArgs {
    let mut args = std::env::args().skip(1);
    let mut scale = ExperimentScale::Small;
    let mut telemetry = None;
    let mut seed = None;
    let mut loss = None;
    let mut threads = None;
    let mut source = None;
    let mut ixp = None;
    let mut export = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = ExperimentScale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (expected tiny|small|paper)");
                    std::process::exit(2);
                });
            }
            "--full" => scale = ExperimentScale::Paper,
            "--tiny" => scale = ExperimentScale::Tiny,
            "--telemetry" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("--telemetry requires an output directory");
                    std::process::exit(2);
                }
                telemetry = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed requires an unsigned integer, got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--loss" => {
                let v = args.next().unwrap_or_default();
                let rates: Result<Vec<f64>, _> =
                    v.split(',').map(|s| s.trim().parse::<f64>()).collect();
                match rates {
                    Ok(r) if !r.is_empty() && r.iter().all(|p| (0.0..=1.0).contains(p)) => {
                        loss = Some(r);
                    }
                    _ => {
                        eprintln!(
                            "--loss requires comma-separated probabilities in [0,1], got '{v}'"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                let v = args.next().unwrap_or_default();
                let counts: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                match counts {
                    Ok(c) if !c.is_empty() && c.iter().all(|&n| n >= 1) => threads = Some(c),
                    _ => {
                        eprintln!("--threads requires comma-separated counts ≥ 1, got '{v}'");
                        std::process::exit(2);
                    }
                }
            }
            "--source" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("--source requires a kind:path spec (as-rel|graphml|rib)");
                    std::process::exit(2);
                }
                source = Some(v);
            }
            "--ixp" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("--ixp requires a path to an IXP-metadata document");
                    std::process::exit(2);
                }
                ixp = Some(PathBuf::from(v));
            }
            "--export" => {
                let v = args.next().unwrap_or_default();
                if v.is_empty() {
                    eprintln!("--export requires an output path");
                    std::process::exit(2);
                }
                export = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: <bin> [--scale tiny|small|paper] [--tiny] [--full] \
                     [--seed N] [--telemetry DIR] [--loss a,b,…] [--threads a,b,…] \
                     [--source kind:path] [--ixp PATH] [--export PATH]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    BenchArgs {
        scale,
        telemetry,
        seed,
        loss,
        threads,
        source,
        ixp,
        export,
    }
}

/// Parses the common CLI arguments, keeping only the scale (binaries not
/// yet wired for telemetry).
pub fn parse_scale() -> ExperimentScale {
    parse_args().scale
}

/// Dumps a telemetry handle as JSONL files plus a rendered `summary.txt`
/// under `dir`.
pub fn write_telemetry(tel: &Telemetry, dir: &Path) {
    tel.export_jsonl(dir).expect("write telemetry dump");
    std::fs::write(dir.join("summary.txt"), telemetry_summary(tel))
        .expect("write telemetry summary");
    eprintln!("telemetry dump written to {}", dir.display());
}

/// Writes an experiment's JSON record under `results/`.
pub fn write_json(name: &str, json: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn write_json_creates_file() {
        let tmp = std::env::temp_dir().join(format!("scion-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let prev = std::env::current_dir().unwrap();
        std::env::set_current_dir(&tmp).unwrap();
        let path = write_json("probe", "{\"x\":1}");
        assert!(path.exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"x\":1}");
        std::env::set_current_dir(prev).unwrap();
        std::fs::remove_dir_all(&tmp).ok();
    }
}
