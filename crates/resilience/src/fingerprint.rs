//! The source fingerprint behind [`crate::code_rev`].
//!
//! `build.rs` includes this file as a module of its own, so the build
//! script and the library share one hash: the serve cache keys tuples
//! with [`fnv1a_128`], and the build stamps [`source_key`] of the
//! workspace sources into every binary.

use std::io;
use std::path::{Path, PathBuf};

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// 128-bit FNV-1a over `bytes`.
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    fnv1a_128_extend(FNV128_OFFSET, bytes)
}

fn fnv1a_128_extend(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// The directories, relative to the workspace root, whose sources make up
/// the code identity. Every dependency is an in-tree path crate under
/// `vendor/`, so these cover everything a build compiles.
pub const SOURCE_DIRS: [&str; 3] = ["crates", "src", "vendor"];

/// FNV-1a-128 over every `.rs` file and `Cargo.toml` under
/// [`SOURCE_DIRS`] of `root`, in sorted path order. Each file contributes
/// its `/`-separated path relative to `root`, a NUL, its length as eight
/// little-endian bytes, and its contents, so neither a rename nor bytes
/// moved across a file boundary go unnoticed. Nothing else about the
/// checkout (git state, timestamps, build output) enters the key.
pub fn source_key(root: &Path) -> io::Result<u128> {
    let mut files = Vec::new();
    for dir in SOURCE_DIRS {
        collect_sources(root, &root.join(dir), &mut files)?;
    }
    files.sort();
    let mut hash = FNV128_OFFSET;
    for (rel, path) in files {
        let contents = std::fs::read(path)?;
        hash = fnv1a_128_extend(hash, rel.as_bytes());
        hash = fnv1a_128_extend(hash, &[0]);
        hash = fnv1a_128_extend(hash, &(contents.len() as u64).to_le_bytes());
        hash = fnv1a_128_extend(hash, &contents);
    }
    Ok(hash)
}

fn collect_sources(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            collect_sources(root, &path, out)?;
            continue;
        }
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel: Vec<_> = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect();
            out.push((rel.join("/"), path));
        }
    }
    Ok(())
}
