//! The `qtenon-bench` binary's surface: `distill --sim <suite> [--out
//! PATH]` is its one command, and a bad command, suite or flag is an
//! error with exit code 2. The binary runs in the test scratch
//! directory.

use std::process::Command;

use qtenon_bench::distill::distill_sim;

fn qtenon_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_qtenon-bench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("qtenon-bench binary runs")
}

#[test]
fn compare_is_an_unknown_command() {
    let out = qtenon_bench(&["compare", "--baseline", "a.json", "--current", "b.json"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn unknown_suite_exits_2_and_names_the_known_suites() {
    let out = qtenon_bench(&["distill", "--sim", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for suite in ["nosuch", "end_to_end", "profile_vqe"] {
        assert!(stderr.contains(suite), "{suite} missing from: {stderr}");
    }
}

#[test]
fn sim_without_a_value_exits_2() {
    let out = qtenon_bench(&["distill", "--sim"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--sim needs a value"), "{stderr}");
}

#[test]
fn distill_writes_the_library_snapshot_byte_for_byte() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("p.json");
    let _ = std::fs::remove_file(&path);
    let out = qtenon_bench(&[
        "distill",
        "--sim",
        "profile_vqe",
        "--out",
        path.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let written = std::fs::read_to_string(&path).expect("snapshot written");
    assert_eq!(written, distill_sim("profile_vqe").unwrap().to_json());
}
