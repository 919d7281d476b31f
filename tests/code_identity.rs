//! Code identity: `code_rev()` names the sources a binary was built from.
//!
//! The serve cache keys every result by `code_rev()`, so a daemon rebuilt
//! from edited sources must stamp a new identity, and two builds of the
//! same sources (the workspace's and humbench's, on any branch, with or
//! without `.git`) must stamp the same one.

use humnet::resilience::code_rev;
use humnet::resilience::fingerprint::{fnv1a_128, source_key};
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch workspace with a source in each identity directory, plus a
/// file that must not count.
fn scratch_tree(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "humnet-code-identity-{name}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    for (path, body) in [
        ("Cargo.toml", "[workspace]\n"),
        ("crates/a/Cargo.toml", "[package]\nname = \"a\"\n"),
        ("crates/a/src/lib.rs", "pub fn a() {}\n"),
        ("src/main.rs", "fn main() {}\n"),
        ("vendor/v/src/lib.rs", "pub struct V;\n"),
        ("crates/a/README.md", "not a source\n"),
    ] {
        write(&root, path, body);
    }
    root
}

fn write(root: &Path, path: &str, body: &str) {
    let path = root.join(path);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, body).unwrap();
}

#[test]
fn fnv1a_128_matches_the_published_test_vectors() {
    assert_eq!(fnv1a_128(b""), 0x6c62272e07bb014262b821756295c58d);
    assert_eq!(fnv1a_128(b"a"), 0xd228cb696f1a8caf78912b704e4a8964);
}

#[test]
fn editing_one_source_file_changes_the_key() {
    let root = scratch_tree("edit");
    let before = source_key(&root).unwrap();
    write(&root, "crates/a/src/lib.rs", "pub fn a() { }\n");
    assert_ne!(source_key(&root).unwrap(), before);
    write(&root, "crates/a/src/lib.rs", "pub fn a() {}\n");
    assert_eq!(source_key(&root).unwrap(), before, "same bytes, same key");
    fs::rename(root.join("src/main.rs"), root.join("src/bin.rs")).unwrap();
    assert_ne!(source_key(&root).unwrap(), before, "a rename counts");
    fs::rename(root.join("src/bin.rs"), root.join("src/main.rs")).unwrap();
    write(&root, "vendor/v/Cargo.toml", "[package]\n");
    assert_ne!(source_key(&root).unwrap(), before, "a new manifest counts");
    fs::remove_dir_all(&root).unwrap();
}

#[test]
fn identical_sources_give_the_same_key_whatever_the_git_state() {
    let plain = scratch_tree("plain");
    let repo = scratch_tree("repo");
    // Git metadata, build output, the lock file, humbench and non-source
    // files do not enter the key.
    for (path, body) in [
        (".git/HEAD", "ref: refs/heads/topic\n"),
        (
            ".git/refs/heads/topic",
            "0123456789abcdef0123456789abcdef01234567\n",
        ),
        ("target/release/build/out.rs", "fn main() {}\n"),
        ("humbench/src/main.rs", "fn main() {}\n"),
        ("Cargo.lock", "version = 3\n"),
        ("crates/a/notes.txt", "scratch\n"),
    ] {
        write(&repo, path, body);
    }
    assert_eq!(source_key(&plain).unwrap(), source_key(&repo).unwrap());
    fs::remove_dir_all(&plain).unwrap();
    fs::remove_dir_all(&repo).unwrap();
}

#[test]
fn code_rev_is_the_key_of_the_sources_on_disk() {
    let key = source_key(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    assert_eq!(
        code_rev(),
        format!("{}+{key:032x}", env!("CARGO_PKG_VERSION")),
        "code_rev() is stale: it does not describe the sources this test was built from"
    );
}
