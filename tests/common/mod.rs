//! Shared by the `*_determinism` suites: export a recording handle to a
//! scratch directory, and compare two such dumps.

use std::fs;
use std::path::{Path, PathBuf};

use scion_core::telemetry::Telemetry;

/// Exports `tel` as JSONL under a fresh `<tmp>/scion-<tag>-<pid>/` and
/// returns the directory. Tags must be unique within a test binary —
/// tests run on parallel threads.
pub fn export_dump(tel: &Telemetry, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scion-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    tel.export_jsonl(&dir).expect("export telemetry");
    dir
}

/// The three deterministic files of two dumps are byte-equal and not
/// empty; `profile.jsonl` exists in both but records real elapsed time, so
/// it is exempt. `empty_series_ok` is for experiments without a periodic
/// sampler, whose `series.jsonl` is legitimately empty (but must still
/// match).
pub fn assert_dumps_identical(reference: &Path, other: &Path, what: &str, empty_series_ok: bool) {
    for name in ["metrics.jsonl", "series.jsonl", "trace.jsonl"] {
        let fa = fs::read(reference.join(name)).unwrap();
        let fb = fs::read(other.join(name)).unwrap();
        if !(empty_series_ok && name == "series.jsonl") {
            assert!(!fa.is_empty(), "{name} is empty");
        }
        assert_eq!(fa, fb, "{name} differs: {what}");
    }
    assert!(reference.join("profile.jsonl").exists());
    assert!(other.join("profile.jsonl").exists());
}
