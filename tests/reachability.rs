//! Every library module is reached by a run.
//!
//! The `experiments` binary is the whole user surface: it runs the
//! experiments, and it is also the serve daemon and the dispatch worker.
//! A module that contributes no symbol to it supports no claim, so it
//! should not be in the tree. This test lists the defined symbols of the
//! binary with `nm -C --defined-only` and checks that every
//! `crates/<crate>/src/<module>.rs` (other than `lib.rs`, and other than
//! the bench harness) owns at least one `humnet_<crate>::<module>::`
//! symbol.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[test]
fn every_library_module_contributes_to_the_experiments_binary() {
    let binary = env!("CARGO_BIN_EXE_experiments");
    let output = Command::new("nm")
        .args(["-C", "--defined-only", binary])
        .output()
        .unwrap_or_else(|e| {
            panic!("reachability needs `nm` (binutils) on PATH to list {binary}'s symbols: {e}")
        });
    assert!(
        output.status.success(),
        "nm failed on {binary}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let symbols = String::from_utf8_lossy(&output.stdout);
    let reached: BTreeSet<&str> = symbols
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .filter(|path| path.starts_with("humnet_"))
        .collect();

    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut modules = Vec::new();
    for krate in std::fs::read_dir(&crates).unwrap() {
        let krate = krate.unwrap().path();
        let name = krate.file_name().unwrap().to_string_lossy().into_owned();
        if name == "bench" {
            continue;
        }
        let Ok(sources) = std::fs::read_dir(krate.join("src")) else {
            continue;
        };
        for source in sources {
            let source = source.unwrap().path();
            if source.extension().is_some_and(|e| e == "rs") {
                let module = source.file_stem().unwrap().to_string_lossy().into_owned();
                if module != "lib" {
                    modules.push((name.clone(), module));
                }
            }
        }
    }
    modules.sort();
    assert!(
        modules.len() > 30,
        "found only {} modules under {}",
        modules.len(),
        crates.display()
    );

    let unreached: Vec<String> = modules
        .iter()
        .filter(|(krate, module)| {
            let prefix = format!("humnet_{krate}::{module}::");
            !reached.iter().any(|path| path.starts_with(&prefix))
        })
        .map(|(krate, module)| format!("{krate}::{module}"))
        .collect();
    assert!(
        unreached.is_empty(),
        "{} library modules contribute no symbol to the experiments binary; delete them \
         or make a run use them:\n  {}",
        unreached.len(),
        unreached.join("\n  ")
    );
}
