//! Bakes the git revision into the build so artifacts can say what code
//! produced them (`code_rev()` = crate version + short rev). Falls back to
//! `unknown` when the build happens outside a git checkout (e.g. from a
//! source tarball).

fn main() {
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
    // Re-stamp when HEAD moves. Cargo treats a missing watched path as
    // always changed, so outside a git checkout watch only this script;
    // otherwise every build would rerun it and recompile the crate.
    // Build scripts run in the package directory.
    if std::path::Path::new("../../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../../.git/HEAD");
    } else {
        println!("cargo:rerun-if-changed=build.rs");
    }
}
