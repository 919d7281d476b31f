//! Stamps the code identity into the build so artifacts can say what code
//! produced them.
//!
//! * `$OUT_DIR/source_key` — the FNV-1a-128 fingerprint of every `.rs`
//!   file and `Cargo.toml` under `crates/`, `src/` and `vendor/`
//!   (`src/fingerprint.rs`). `code_rev()` is the crate version plus this
//!   key, so identical sources stamp the same identity in every build —
//!   the root workspace's and humbench's alike — and any edit changes it.
//! * `HUMNET_GIT_REV` — the short git revision, for humans only. It is
//!   `unknown` outside a git checkout (e.g. from a source tarball).

#[path = "src/fingerprint.rs"]
#[allow(dead_code)]
mod fingerprint;

fn main() {
    // Build scripts run in the package directory.
    let root = std::path::Path::new("../..");
    let key = fingerprint::source_key(root).expect("read workspace sources");
    let out = std::path::PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    std::fs::write(out.join("source_key"), format!("{key:032x}")).expect("write source key");
    for dir in fingerprint::SOURCE_DIRS {
        println!("cargo:rerun-if-changed=../../{dir}");
    }

    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("cargo:rustc-env=HUMNET_GIT_REV={rev}");
    // Cargo treats a missing watched path as always changed, so watch
    // HEAD only inside a git checkout; otherwise every build would rerun
    // this script and recompile the crate.
    if std::path::Path::new("../../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
    }
}
