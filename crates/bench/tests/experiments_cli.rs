//! The `experiments` binary's id handling: a known id runs its table, an
//! unknown one is an error that names the valid ids. The binary runs in
//! the test scratch directory, where it mirrors its tables.

use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_id_exits_2_and_lists_the_valid_ids() {
    // `chaos` named a study that has since been removed.
    for unknown in ["nosuchid", "chaos"] {
        let out = experiments(&[unknown]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let (head, valid) = stderr
            .split_once("valid ids: ")
            .expect("names the valid ids");
        assert!(head.contains(&format!("{unknown:?}")), "{stderr}");
        let valid: Vec<&str> = valid.split_whitespace().collect();
        for id in ["fig1", "table2", "fig14", "critpath"] {
            assert!(valid.contains(&id), "valid id {id} missing from: {stderr}");
        }
        assert!(!valid.contains(&unknown), "{stderr}");
        assert!(out.stdout.is_empty(), "an unknown id must run nothing");
    }
}

#[test]
fn known_id_exits_0_and_prints_its_table() {
    let out = experiments(&["table2"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## Table 2"), "{stdout}");
}
