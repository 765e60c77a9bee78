//! Guard test for the hermetic-build guarantee.
//!
//! The default feature set must build and test from a clean checkout with
//! no crates registry (`cargo build --release --offline && cargo test
//! --offline`).  That holds exactly when no workspace manifest names a
//! registry dependency — path dependencies on sibling crates are the only
//! kind allowed.  This test scans every Cargo.toml in the workspace and
//! fails loudly, naming the offending line, if an external dependency
//! sneaks back in.

use std::fs;
use std::path::{Path, PathBuf};

/// All Cargo.toml files in the workspace (root + crates/*).
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ dir") {
        let manifest = entry.expect("dir entry").path().join("Cargo.toml");
        if manifest.is_file() {
            found.push(manifest);
        }
    }
    assert!(
        found.len() >= 5,
        "expected the root and at least four crate manifests, found {}",
        found.len()
    );
    found
}

/// Whether a `[dependencies]`-style section may introduce registry deps.
fn is_dependency_section(header: &str) -> bool {
    let h = header.trim_start_matches('[').trim_end_matches(']').trim();
    h == "dependencies"
        || h == "dev-dependencies"
        || h == "build-dependencies"
        || h == "workspace.dependencies"
        || h.starts_with("target.") && h.contains("dependencies")
}

/// Whether a dependency declaration resolves inside the workspace.
fn is_workspace_local(decl: &str) -> bool {
    // `foo.workspace = true`, `foo = { workspace = true, .. }`, or an
    // explicit path dependency.  Anything else (`foo = "1"`, a git or
    // registry table) needs the network.
    decl.contains("workspace = true")
        || decl.contains(".workspace")
        || decl.contains("path =")
        || decl.contains("path=")
}

#[test]
fn default_feature_set_is_dependency_free() {
    let mut offenders = Vec::new();
    for manifest in workspace_manifests() {
        let text = fs::read_to_string(&manifest)
            .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
        let mut in_dep_section = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                in_dep_section = is_dependency_section(line);
                continue;
            }
            if in_dep_section && line.contains('=') && !is_workspace_local(line) {
                offenders.push(format!("{}:{}: {}", manifest.display(), lineno + 1, line));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "registry dependencies break the hermetic build:\n  {}",
        offenders.join("\n  ")
    );
}

#[test]
fn no_external_sync_crates_in_source() {
    // The migration off crossbeam/parking_lot/rand is structural: all
    // sync primitives live in force-machdep's portable module.  Catch a
    // reintroduction at the `use` site even if the manifest check above
    // were somehow bypassed (e.g. a vendored copy).
    //
    // Nor does any source in the workspace read an environment
    // variable, so a process-wide switch cannot come back unnoticed.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("src")];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).expect("read source");
                for (lineno, line) in text.lines().enumerate() {
                    let t = line.trim();
                    if t.starts_with("//") {
                        continue;
                    }
                    for banned in ["crossbeam", "parking_lot", "rand::", "env::var"] {
                        if t.contains(banned) {
                            offenders.push(format!("{}:{}: {}", path.display(), lineno + 1, t));
                        }
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "external sync/PRNG crates or environment reads in workspace source:\n  {}",
        offenders.join("\n  ")
    );
}
