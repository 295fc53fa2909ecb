//! The workspace's `unsafe` surface, pinned: every library crate root
//! carries `#![deny(unsafe_code)]`, and the one site that allows it is
//! the kernel-instance dispatch in `qtenon-quantum`'s kernel layer: one
//! call through the AVX2 or the AVX-512 instance, generic over the body
//! it runs, a plan's sweeps or a mean-field shot draw (DESIGN.md §13).
//! Any other `unsafe` in `src/` or `crates/*/src`, library or binary,
//! fails this test. Every library root also carries
//! `#![deny(dead_code)]`, so `cargo build` fails on crate-private code
//! that only unit tests reach (DESIGN.md §3).

use std::fs;
use std::path::{Path, PathBuf};

/// The file holding the one audited `unsafe` block.
const AUDITED: &str = "crates/quantum/src/kernels.rs";

/// The `src` directories of the root package and of every workspace crate.
fn source_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    dirs.push(root.join("src"));
    dirs.sort();
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_library_root_denies_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let lib_roots: Vec<PathBuf> = source_dirs(root)
        .into_iter()
        .map(|src| src.join("lib.rs"))
        .filter(|lib| lib.is_file())
        .collect();
    assert!(lib_roots.len() > 1, "found no workspace library crates");
    for lib in lib_roots {
        let text = fs::read_to_string(&lib).expect("library root is readable");
        for required in ["#![deny(unsafe_code)]", "#![deny(dead_code)]"] {
            assert!(
                text.lines().any(|l| l.trim() == required),
                "{} lacks {required}",
                lib.display()
            );
        }
    }
}

#[test]
fn the_instance_dispatch_is_the_only_unsafe_site() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for src in source_dirs(root) {
        rust_files(&src, &mut files);
    }
    // Every non-comment line that mentions `unsafe`, other than the
    // crate-root denials.
    let mut sites = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("source file is readable");
        let rel = file
            .strip_prefix(root)
            .expect("under the root")
            .to_path_buf();
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for (i, line) in lines.iter().enumerate() {
            if line.contains("unsafe")
                && !line.starts_with("//")
                && *line != "#![deny(unsafe_code)]"
            {
                let next = lines.get(i + 1).copied().unwrap_or_default();
                sites.push((rel.clone(), line.to_string(), next.to_string()));
            }
        }
    }
    let audited = Path::new(AUDITED);
    let found: Vec<(&Path, &str)> = sites
        .iter()
        .map(|(f, l, _)| (f.as_path(), l.as_str()))
        .collect();
    assert_eq!(
        found,
        [(audited, "#[allow(unsafe_code)]"), (audited, "unsafe {")],
        "the only unsafe code allowed is the kernel-instance dispatch in {AUDITED}"
    );
    assert_eq!(
        sites[1].2, "vector(re, im, ops)",
        "the audited unsafe block must call the chosen instance, `vector`"
    );
    // `vector` is bound once, to the AVX2 or the AVX-512 instance.
    let text = fs::read_to_string(root.join(AUDITED)).expect("audited file is readable");
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let bindings: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("let vector ="))
        .collect();
    assert_eq!(bindings.len(), 1, "`vector` must be bound exactly once");
    assert_eq!(
        lines[bindings[0]..bindings[0] + 5],
        [
            "let vector = match instance {",
            "KernelInstance::Baseline => return apply_ops_baseline(re, im, ops),",
            "KernelInstance::Avx2 => apply_ops_avx2,",
            "KernelInstance::Avx512 => apply_ops_avx512,",
            "};",
        ],
        "`vector` must be apply_ops_avx2 or apply_ops_avx512, nothing else"
    );
}
