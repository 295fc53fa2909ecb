//! Artefact determinism of `qtenon batch`, checked through the binary:
//! every per-job metrics file is byte-identical at pool widths 1 and 4,
//! against a standalone `--only` run, and with the fleet compilation
//! cache on or off; the cached ledger does not depend on the pool width;
//! and the fleet cache's hits reach both metrics exports.

use std::path::{Path, PathBuf};
use std::process::Command;

use qtenon::sim_engine::json::{self, JsonValue};

/// Runs `qtenon batch --jobs examples/<fleet> --job-metrics <dir>
/// <extra>` from a fresh `<dir>` under the test tmpdir and returns the
/// directory. Paths in `extra` are relative to the same tmpdir.
fn batch(fleet: &str, tag: &str, extra: &[&str]) -> PathBuf {
    let tmp = tmpdir();
    let dir = tmp.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let run = Command::new(env!("CARGO_BIN_EXE_qtenon"))
        .current_dir(&tmp)
        .args(["batch", "--jobs"])
        .arg(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("examples")
                .join(fleet),
        )
        .arg("--job-metrics")
        .arg(&dir)
        .args(extra)
        .output()
        .expect("qtenon binary runs");
    assert!(run.status.success(), "{fleet} {extra:?}: {run:?}");
    dir
}

fn tmpdir() -> PathBuf {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-artefacts");
    std::fs::create_dir_all(&tmp).expect("tmpdir");
    tmp
}

/// The per-job metrics files in `dir`, sorted by name.
fn job_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("job-metrics directory written")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("job metrics readable"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "{} holds no job files", dir.display());
    files
}

/// Asserts that `a` and `b` hold the same job files, byte for byte.
fn assert_same_job_files(a: &Path, b: &Path) {
    let (left, right) = (job_files(a), job_files(b));
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(
        names(&left),
        names(&right),
        "{} vs {}",
        a.display(),
        b.display()
    );
    for ((name, x), (_, y)) in left.iter().zip(&right) {
        assert!(
            x == y,
            "{name}: {} differs from {}",
            a.display(),
            b.display()
        );
    }
}

#[test]
fn fleet_job_metrics_match_across_widths_and_standalone() {
    let serial = batch(
        "fleet.json",
        "fleet-w1",
        &["--threads", "1", "--metrics", "fleet-w1.json"],
    );
    let pooled = batch("fleet.json", "fleet-w4", &["--threads", "4"]);
    assert_same_job_files(&serial, &pooled);
    // In-fleet == standalone, fault accounting included.
    let solo = batch(
        "fleet.json",
        "fleet-solo",
        &["--only", "qaoa-faulty", "--threads", "1"],
    );
    let solo = job_files(&solo);
    assert_eq!(solo.len(), 1);
    let in_fleet = std::fs::read(serial.join("qaoa-faulty.json")).expect("qaoa-faulty in fleet");
    assert!(solo[0] == ("qaoa-faulty.json".to_string(), in_fleet));
}

#[test]
fn widefleet_job_metrics_match_at_widths_1_and_4() {
    // 32-320 qubit jobs: the QCC's paged .program/.pulse storage.
    let serial = batch("widefleet.json", "wide-w1", &["--threads", "1"]);
    let pooled = batch("widefleet.json", "wide-w4", &["--threads", "4"]);
    assert_same_job_files(&serial, &pooled);
}

#[test]
fn cachefleet_artefacts_and_ledger_depend_on_neither_cache_nor_width() {
    let off = batch(
        "cachefleet.json",
        "cache-off-w1",
        &["--threads", "1", "--no-cache"],
    );
    let on_w1 = batch(
        "cachefleet.json",
        "cache-on-w1",
        &[
            "--threads",
            "1",
            "--ledger",
            "cache-on-w1.txt",
            "--metrics",
            "cache-on-w1.json",
        ],
    );
    let on_w4 = batch(
        "cachefleet.json",
        "cache-on-w4",
        &["--threads", "4", "--ledger", "cache-on-w4.txt"],
    );
    assert_same_job_files(&off, &on_w1);
    assert_same_job_files(&off, &on_w4);

    let tmp = tmpdir();
    let read = |name: &str| std::fs::read_to_string(tmp.join(name)).expect(name);
    assert_eq!(
        read("cache-on-w1.txt"),
        read("cache-on-w4.txt"),
        "cache attribution in the ledger depends on the pool width"
    );
    assert!(read("cache-on-w1.json.prom").contains("cache_fleet_"));
    let doc = json::parse(&read("cache-on-w1.json")).expect("metrics JSON parses");
    let hits: f64 = ["program", "pulse", "bound"]
        .iter()
        .map(|level| {
            doc.get("metrics")
                .and_then(|m| m.get(&format!("cache.fleet.{level}.hits")))
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("cache.fleet.{level}.hits missing"))
        })
        .sum();
    assert!(hits > 0.0, "the duplicated fleet produced no cache hits");
}
