//! Artefact determinism of the `qtenon` binary. For `qtenon batch`:
//! every per-job metrics file is byte-identical at any pool width,
//! against a standalone `--only` run, and with the fleet compilation
//! cache on or off; the cached ledger and the `cache.fleet.*` telemetry
//! do not depend on the pool width, and that telemetry reaches both
//! metrics exports; gate fusion changes no kernels-fleet artefact beyond
//! its own `quantum.fuse.*` accounting. For `qtenon run`: the
//! `--critpath` report, the Chrome trace and both metrics exports, inert
//! and fault-injected, are byte-identical at 1 and 4 shot-shard threads
//! (2,000 shots cut real shards), and the annotated trace paints the
//! critical path on its own lane.

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

/// Runs `qtenon run examples/qasm/bell.qasm --shots 2000 --seed 42
/// <extra>` in the test tmpdir and returns its stdout. Paths in `extra`
/// are relative to that tmpdir.
fn run_bell(extra: &[&str]) -> Vec<u8> {
    let run = Command::new(env!("CARGO_BIN_EXE_qtenon"))
        .current_dir(tmpdir())
        .arg("run")
        .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/qasm/bell.qasm"))
        .args(["--shots", "2000", "--seed", "42"])
        .args(extra)
        .output()
        .expect("qtenon binary runs");
    assert!(run.status.success(), "{extra:?}: {run:?}");
    run.stdout
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

/// The `metrics` entries of a metrics-JSON artefact, in file order.
fn metric_entries(text: &str) -> Vec<(String, JsonValue)> {
    json::parse(text)
        .expect("metrics JSON parses")
        .get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object")
        .to_vec()
}

/// The integer value of metric `key` in `entries`.
fn metric_u64(entries: &[(String, JsonValue)], key: &str) -> u64 {
    entries
        .iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.get("value"))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{key} missing"))
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
    // 32-320 qubit jobs: the widest QCC layouts and SLT tables.
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
    let tmp = tmpdir();
    let read = |name: &str| std::fs::read_to_string(tmp.join(name)).expect(name);
    let mut fleet_cache = Vec::new();
    for width in ["1", "2", "8"] {
        let ledger = format!("cache-on-w{width}.txt");
        let metrics = format!("cache-on-w{width}.json");
        let on = batch(
            "cachefleet.json",
            &format!("cache-on-w{width}"),
            &[
                "--threads",
                width,
                "--ledger",
                &ledger,
                "--metrics",
                &metrics,
            ],
        );
        assert_same_job_files(&off, &on);
        assert_eq!(
            read(&ledger),
            read("cache-on-w1.txt"),
            "cache attribution in the ledger depends on the pool width"
        );
        assert!(read(&format!("{metrics}.prom")).contains("cache_fleet_"));
        let mut entries = metric_entries(&read(&metrics));
        entries.retain(|(key, _)| key.starts_with("cache.fleet."));
        fleet_cache.push((width, entries));
    }
    // One fill per key: (hits, misses) per level at every width.
    let (_, serial) = &fleet_cache[0];
    for (level, hits, misses) in [("program", 2, 4), ("pulse", 10, 20), ("bound", 8, 16)] {
        assert_eq!(
            (
                metric_u64(serial, &format!("cache.fleet.{level}.hits")),
                metric_u64(serial, &format!("cache.fleet.{level}.misses"))
            ),
            (hits, misses),
            "cache.fleet.{level}"
        );
    }
    for (width, entries) in &fleet_cache[1..] {
        assert_eq!(entries, serial, "cache.fleet.* differs at width {width}");
    }
}

#[test]
fn kernels_fleet_artefacts_differ_by_fusion_only_in_its_accounting() {
    // 64q VQE rides the mean-field backend, which never fuses, so its file
    // is byte-identical. 8q and 12q QAOA ride the exact backend, where
    // fused runs sweep composed kernels and only the quantum.fuse.*
    // counters may differ. At 6 threads each of the three jobs gets two
    // shard threads, and its 1024 shots cut two real shards.
    for width in ["1", "6"] {
        let fused = batch(
            "kernels.json",
            &format!("kernels-fused-w{width}"),
            &["--threads", width],
        );
        let unfused = batch(
            "kernels.json",
            &format!("kernels-unfused-w{width}"),
            &["--threads", width, "--no-fuse"],
        );
        let read = |dir: &Path, job: &str| {
            std::fs::read_to_string(dir.join(format!("{job}.json"))).expect("job metrics readable")
        };
        assert!(
            read(&fused, "vqe-64-meanfield") == read(&unfused, "vqe-64-meanfield"),
            "vqe-64-meanfield differs fused vs unfused at width {width}"
        );
        for job in ["qaoa-8-exact", "qaoa-12-exact"] {
            let (f, u) = (
                metric_entries(&read(&fused, job)),
                metric_entries(&read(&unfused, job)),
            );
            let strip = |entries: &[(String, JsonValue)]| -> Vec<(String, JsonValue)> {
                let mut kept = entries.to_vec();
                kept.retain(|(key, _)| !key.starts_with("quantum.fuse."));
                kept
            };
            assert_eq!(
                strip(&f),
                strip(&u),
                "{job} at width {width}: fusion leaked beyond quantum.fuse.*"
            );
            let key = "quantum.fuse.gates_fused";
            assert!(metric_u64(&f, key) > 0, "{job}: fused run fused nothing");
            assert_eq!(metric_u64(&u, key), 0, "{job}: --no-fuse still fused");
        }
    }
}

#[test]
fn critpath_report_is_width_invariant_and_paints_its_trace_lane() {
    assert!(
        run_bell(&["--threads", "1", "--critpath"]) == run_bell(&["--threads", "4", "--critpath"]),
        "--critpath report differs between 1 and 4 threads"
    );
    run_bell(&["--critpath", "--trace", "critpath-trace.json"]);
    let trace = std::fs::read_to_string(tmpdir().join("critpath-trace.json")).expect("trace");
    assert!(
        trace.contains(r#""tid":6"#),
        "annotated trace has no critpath lane"
    );
}

#[test]
fn traces_and_metrics_are_width_invariant_inert_and_faulty() {
    let faulty = ["--faults", "all=0.25,max_attempts=8", "--fault-seed", "7"];
    for (kind, faults) in [("inert", &[][..]), ("faulty", &faulty[..])] {
        // The trace, the metrics JSON and its Prometheus twin of one run.
        let artefacts = |threads: &str| {
            let trace = format!("{kind}-t{threads}.json");
            let metrics = format!("{kind}-t{threads}-metrics.json");
            let mut args = vec![
                "--threads",
                threads,
                "--trace",
                &trace,
                "--metrics",
                &metrics,
            ];
            args.extend_from_slice(faults);
            run_bell(&args);
            [trace, metrics.clone(), format!("{metrics}.prom")]
                .map(|path| std::fs::read(tmpdir().join(&path)).expect("artefact written"))
        };
        let names = ["trace", "metrics JSON", "Prometheus metrics"];
        for ((name, serial), sharded) in names.iter().zip(artefacts("1")).zip(artefacts("4")) {
            assert!(
                serial == sharded,
                "{kind} {name} differs between 1 and 4 threads"
            );
        }
    }
}
