//! End-to-end drive of the `scion-bench` binary in a scratch working
//! directory: the two cheapest rows run for real (exit 0, record parses),
//! and a flag the row does not read stops the process with exit 2. Every
//! other row is covered by the experiment tests in `scion-core` and the
//! parser tests in `main.rs`; tier-1 runs in debug, so no heavier row is
//! run from here.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh `<tmp>/scion-bench-cli-<tag>-<pid>/` to run in.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scion-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn scion_bench(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scion-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn scion-bench")
}

fn record(cwd: &Path, name: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(cwd.join("results").join(format!("{name}.json")))
        .unwrap_or_else(|e| panic!("results/{name}.json: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("results/{name}.json: {e}"))
}

#[test]
fn fig9_runs_end_to_end() {
    let cwd = scratch("fig9");
    let out = scion_bench(&cwd, &["fig9", "--scale", "tiny"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("Figure 9:"), "{stdout}");
    let fig9 = record(&cwd, "fig9");
    let below = fig9.get("fraction_below_4kbps").and_then(|v| v.as_f64());
    assert!(below.is_some(), "{fig9:?}");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn ingest_runs_end_to_end_and_exports_the_canonical_form() {
    let cwd = scratch("ingest");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/equiv.graphml");
    let source = format!("graphml:{}", fixture.display());
    let out = scion_bench(
        &cwd,
        &[
            "ingest",
            "--source",
            &source,
            "--export",
            "out/graphml.json",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let ingest = record(&cwd, "ingest");
    let ases = ingest.get("stats").and_then(|s| s.get("ases"));
    assert_eq!(ases.and_then(|v| v.as_u64()), Some(16), "{ingest:?}");
    let reference =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/references/ingest-equiv.json");
    assert_eq!(
        std::fs::read(cwd.join("out/graphml.json")).unwrap(),
        std::fs::read(reference).unwrap(),
        "canonical export differs from the checked-in reference"
    );
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn a_flag_the_row_does_not_read_exits_2_before_running() {
    let cwd = scratch("reject");
    let out = scion_bench(&cwd, &["overload", "--source", "as-rel:x"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--source") && stderr.contains("overload"),
        "{stderr}"
    );
    assert!(!cwd.join("results").exists(), "nothing may have run");

    let out = scion_bench(&cwd, &["fig10"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&cwd).ok();
}
