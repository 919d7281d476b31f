//! Content-addressed result cache.
//!
//! Every cached result is one JSON file named by the 128-bit FNV-1a hash
//! of its request tuple — `experiment | seed | profile | intensity bits |
//! retries | code-rev` — so the filesystem *is* the index and two daemons
//! pointed at the same directory agree on addresses. Writes go through a
//! temp-file-then-rename so a crash mid-write can never leave a torn
//! entry under a valid name; a restarted daemon rehydrates by scanning
//! the directory, re-checking every entry's self-checksum, and evicting
//! (deleting) anything corrupt or misfiled.
//!
//! The in-memory index holds the full entries (artifact and metrics
//! strings included) and, beside each, its `hit` response line, encoded
//! once by the protocol's own serializer when the entry is inserted or
//! rehydrated. A hit writes those shared bytes ([`ResultCache::hit_line`])
//! without touching the disk or serializing anything, which is what makes
//! cached reads cost microseconds; the price is one more encoded copy of
//! the artifact and metrics per indexed entry.
//!
//! The code-rev component means a rebuilt binary simply *misses* on every
//! old entry rather than serving results a different code produced. Such
//! an entry can never be hit again, so rehydration deletes every intact
//! entry whose `code_rev` is not this binary's [`code_rev`] before it
//! applies a size bound: a dead entry never takes the place of a live one.
//! Every insert carries the current revision, so dead entries cannot build
//! up while a daemon runs and no sweep is needed. Under a size bound
//! ([`ResultCache::open_bounded`]) inserts evict least-recently-used
//! entries when they would exceed the cap.

use crate::protocol::{Response, STATUS_HIT};
use humnet_resilience::code_rev;
use humnet_resilience::fingerprint::fnv1a_128;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The content address of one request tuple, as 32 hex characters.
///
/// `intensity` enters through its IEEE-754 bit pattern so every distinct
/// float is a distinct address (no formatting round-trip); `deadline` is
/// deliberately absent — it bounds wall-clock, which canonical artifacts
/// exclude — while `retries` is included because it changes what a
/// faulted run reports.
pub fn cache_key(
    experiment: &str,
    seed: u64,
    profile: &str,
    intensity: f64,
    retries: u32,
    code_rev: &str,
) -> String {
    // String fields are length-prefixed so a delimiter *inside* one can
    // never splice into its neighbor's position.
    let tuple = format!(
        "{}:{experiment}|{seed}|{}:{profile}|{:016x}|{retries}|{}:{code_rev}",
        experiment.len(),
        profile.len(),
        intensity.to_bits(),
        code_rev.len()
    );
    format!("{:032x}", fnv1a_128(tuple.as_bytes()))
}

/// One cached result: the request tuple it answers, the artifacts, and a
/// self-checksum so corruption is detectable without re-running anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// Content address ([`cache_key`] of the tuple below).
    pub key: String,
    /// Experiment code.
    pub experiment: String,
    /// Seed.
    pub seed: u64,
    /// Fault profile label.
    pub profile: String,
    /// Fault-rate multiplier.
    pub intensity: f64,
    /// Retry budget the run executed under.
    pub retries: u32,
    /// Code revision that produced the artifact.
    pub code_rev: String,
    /// Canonicalized `RunArtifact` JSON, verbatim.
    pub artifact: String,
    /// The run's telemetry snapshot JSON, verbatim.
    pub metrics: String,
    /// FNV-1a-128 over `artifact` and `metrics` (see [`CacheEntry::checksum_of`]).
    pub checksum: String,
}

impl CacheEntry {
    /// The checksum an intact entry must carry.
    pub fn checksum_of(artifact: &str, metrics: &str) -> String {
        let mut bytes = Vec::with_capacity(artifact.len() + metrics.len() + 1);
        bytes.extend_from_slice(artifact.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(metrics.as_bytes());
        format!("{:032x}", fnv1a_128(&bytes))
    }

    /// Whether the entry is self-consistent: its stored key matches its
    /// tuple and its checksum matches its payload.
    pub fn intact(&self) -> bool {
        self.key
            == cache_key(
                &self.experiment,
                self.seed,
                &self.profile,
                self.intensity,
                self.retries,
                &self.code_rev,
            )
            && self.checksum == CacheEntry::checksum_of(&self.artifact, &self.metrics)
    }
}

/// What a [`ResultCache::open`] scan found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RehydrateStats {
    /// Intact entries loaded into the index.
    pub loaded: usize,
    /// Corrupt or misfiled entries deleted from disk.
    pub evicted: usize,
    /// Intact entries dropped (from index and disk) because they exceeded
    /// a configured size bound on rehydration.
    pub trimmed: usize,
    /// Intact entries deleted because they were written by another code
    /// revision, so no request to this binary can hit them.
    pub stale: usize,
}

/// One indexed entry, its encoded `hit` line, and its recency stamp for
/// LRU eviction.
#[derive(Debug)]
struct Slot {
    entry: Arc<CacheEntry>,
    /// `Response::artifact(STATUS_HIT, ..).to_line()` plus `\n`.
    hit_line: Arc<[u8]>,
    last_used: u64,
}

impl Slot {
    /// A slot for `entry` with its hit line encoded; not yet stamped.
    fn new(entry: CacheEntry) -> io::Result<Slot> {
        let mut line = Response::artifact(
            STATUS_HIT,
            &entry.key,
            &entry.code_rev,
            entry.artifact.clone(),
            entry.metrics.clone(),
        )
        .to_line()
        .map_err(invalid_data)?;
        line.push('\n');
        Ok(Slot {
            entry: Arc::new(entry),
            hit_line: line.into_bytes().into(),
            last_used: 0,
        })
    }
}

fn invalid_data(e: serde_json::Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// The mutex-guarded index state: the map plus a monotone tick that
/// stamps every touch (hit or insert) for least-recently-used ordering.
#[derive(Debug, Default)]
struct Index {
    map: HashMap<String, Slot>,
    tick: u64,
}

impl Index {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// The cache: a directory of content-addressed entry files fronted by an
/// in-memory index. All methods take `&self`; the index mutex is held
/// only for map operations, never across disk I/O of other callers' keys.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    /// `0` = unbounded; otherwise inserts evict LRU entries above this.
    max_entries: usize,
    index: Mutex<Index>,
}

impl ResultCache {
    /// Open (creating if needed) the cache at `dir` and rehydrate the
    /// index from whatever intact entries a previous daemon left behind.
    /// Corrupt entries — torn JSON, checksum mismatch, an entry filed
    /// under a name that is not its own key — are deleted, so the next
    /// request for that tuple recomputes instead of serving damage.
    /// Intact entries written by another code revision are deleted too
    /// (counted in [`RehydrateStats::stale`]): no request can hit them.
    pub fn open(dir: &Path) -> io::Result<(ResultCache, RehydrateStats)> {
        ResultCache::open_bounded(dir, 0)
    }

    /// [`ResultCache::open`] with a size bound: at most `max_entries`
    /// entries are kept (`0` = unbounded). Rehydration first deletes the
    /// other revisions' entries, then trims an over-full directory down to
    /// the bound (deterministically, by key order — recency is unknowable
    /// across a restart), and subsequent [`ResultCache::insert`]s evict
    /// least-recently-used entries.
    pub fn open_bounded(
        dir: &Path,
        max_entries: usize,
    ) -> io::Result<(ResultCache, RehydrateStats)> {
        fs::create_dir_all(dir)?;
        let rev = code_rev();
        let mut stats = RehydrateStats::default();
        let mut loaded: Vec<CacheEntry> = Vec::new();
        for dirent in fs::read_dir(dir)? {
            let path = dirent?.path();
            let Some(stem) = entry_key_of(&path) else {
                continue; // index.json, temp files, strays
            };
            match fs::read_to_string(&path)
                .ok()
                .and_then(|text| serde_json::from_str::<CacheEntry>(&text).ok())
            {
                Some(entry) if entry.intact() && entry.key == stem => {
                    if entry.code_rev == rev {
                        loaded.push(entry);
                        stats.loaded += 1;
                    } else {
                        let _ = fs::remove_file(&path);
                        stats.stale += 1;
                    }
                }
                _ => {
                    let _ = fs::remove_file(&path);
                    stats.evicted += 1;
                }
            }
        }
        loaded.sort_by(|a, b| a.key.cmp(&b.key));
        let cache = ResultCache {
            dir: dir.to_owned(),
            max_entries,
            index: Mutex::new(Index::default()),
        };
        let mut index = cache.index.lock().expect("cache index lock");
        for entry in loaded {
            if max_entries > 0 && index.map.len() >= max_entries {
                let _ = fs::remove_file(cache.entry_path(&entry.key));
                stats.trimmed += 1;
                stats.loaded -= 1;
                continue;
            }
            let key = entry.key.clone();
            let mut slot = Slot::new(entry)?;
            slot.last_used = index.touch();
            index.map.insert(key, slot);
        }
        drop(index);
        Ok((cache, stats))
    }

    /// The configured size bound (`0` = unbounded).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Look up a content address in the in-memory index, freshening its
    /// recency stamp.
    pub fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        self.touch(key, |slot| slot.entry.clone())
    }

    /// The `hit` response line for a content address, newline included,
    /// ready to write to the wire; freshens recency exactly as
    /// [`ResultCache::get`] does.
    pub fn hit_line(&self, key: &str) -> Option<Arc<[u8]>> {
        self.touch(key, |slot| slot.hit_line.clone())
    }

    fn touch<T>(&self, key: &str, read: impl FnOnce(&Slot) -> T) -> Option<T> {
        let mut index = self.index.lock().expect("cache index lock");
        let stamp = index.touch();
        index.map.get_mut(key).map(|slot| {
            slot.last_used = stamp;
            read(slot)
        })
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.index.lock().expect("cache index lock").map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persist an entry (write-then-rename, so readers and crashes only
    /// ever observe whole files) and publish it to the index. Two racing
    /// inserts of the same key write identical bytes, so last-rename-wins
    /// is harmless. Under a size bound, least-recently-used entries are
    /// evicted (index and disk) to make room; the count of evictions is
    /// returned so the daemon can feed its `serve.evicted` counter.
    pub fn insert(&self, entry: CacheEntry) -> io::Result<usize> {
        let json = serde_json::to_string_pretty(&entry).map_err(invalid_data)?;
        let tmp = self.dir.join(format!(".tmp-{}", entry.key));
        let fin = self.entry_path(&entry.key);
        fs::write(&tmp, &json)?;
        fs::rename(&tmp, &fin)?;
        let key = entry.key.clone();
        // Encoded before taking the lock: hits on other keys never wait
        // on this serialization.
        let mut slot = Slot::new(entry)?;
        let mut index = self.index.lock().expect("cache index lock");
        slot.last_used = index.touch();
        index.map.insert(key, slot);
        // Evict past the bound. The entry just inserted carries the
        // freshest stamp, so it is never its own victim.
        let mut victims = Vec::new();
        while self.max_entries > 0 && index.map.len() > self.max_entries {
            let Some(lru) = index
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            index.map.remove(&lru);
            victims.push(lru);
        }
        drop(index);
        for victim in &victims {
            let _ = fs::remove_file(self.entry_path(victim));
        }
        Ok(victims.len())
    }

    /// Write `index.json`: the sorted key list plus each entry's tuple,
    /// one advisory summary an operator (or the next daemon's logs) can
    /// read without scanning every entry file. Called at graceful
    /// shutdown; rehydration itself trusts only the entry files.
    pub fn flush_index(&self) -> io::Result<()> {
        let index = self.index.lock().expect("cache index lock");
        let mut keys: Vec<&String> = index.map.keys().collect();
        keys.sort();
        let mut lines = String::from("{\n  \"entries\": [\n");
        for (i, key) in keys.iter().enumerate() {
            let e = &index.map[key.as_str()].entry;
            lines.push_str(&format!(
                "    {{\"key\": \"{key}\", \"experiment\": \"{}\", \"seed\": {}, \"profile\": \"{}\", \"retries\": {}, \"code_rev\": \"{}\"}}{}\n",
                e.experiment,
                e.seed,
                e.profile,
                e.retries,
                e.code_rev,
                if i + 1 < keys.len() { "," } else { "" },
            ));
        }
        lines.push_str("  ]\n}\n");
        drop(index);
        let tmp = self.dir.join(".tmp-index");
        fs::write(&tmp, &lines)?;
        fs::rename(&tmp, self.dir.join("index.json"))
    }

    /// The on-disk path of a key's entry file.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }
}

/// The cache key a directory entry claims to hold, if its name has the
/// `<32-hex>.json` shape entry files use.
fn entry_key_of(path: &Path) -> Option<String> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".json")?;
    (stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit())).then(|| stem.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "humnet-serve-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(seed: u64) -> CacheEntry {
        entry_at(seed, &code_rev())
    }

    /// [`entry`] as if written by the binary built at `code_rev`.
    fn entry_at(seed: u64, code_rev: &str) -> CacheEntry {
        let (artifact, metrics) = (format!("{{\"seed\": {seed}}}"), "{}".to_owned());
        CacheEntry {
            key: cache_key("f1", seed, "none", 1.0, 1, code_rev),
            experiment: "f1".to_owned(),
            seed,
            profile: "none".to_owned(),
            intensity: 1.0,
            retries: 1,
            code_rev: code_rev.to_owned(),
            checksum: CacheEntry::checksum_of(&artifact, &metrics),
            artifact,
            metrics,
        }
    }

    #[test]
    fn every_tuple_component_changes_the_key() {
        let base = cache_key("f1", 7, "none", 1.0, 1, "0.1.0+aaa");
        assert_eq!(base, cache_key("f1", 7, "none", 1.0, 1, "0.1.0+aaa"));
        assert_eq!(base.len(), 32);
        for other in [
            cache_key("f2", 7, "none", 1.0, 1, "0.1.0+aaa"),
            cache_key("f1", 8, "none", 1.0, 1, "0.1.0+aaa"),
            cache_key("f1", 7, "chaos", 1.0, 1, "0.1.0+aaa"),
            cache_key("f1", 7, "none", 1.5, 1, "0.1.0+aaa"),
            cache_key("f1", 7, "none", 1.0, 2, "0.1.0+aaa"),
            cache_key("f1", 7, "none", 1.0, 1, "0.1.0+bbb"),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn key_is_delimiter_safe() {
        // "ab|c" + "d" must not collide with "ab" + "c|d": the length
        // prefixes on string fields break up naive splices.
        assert_ne!(
            cache_key("f1|2", 0, "none", 1.0, 0, "r"),
            cache_key("f1", 2, "0|none", 1.0, 0, "r"),
        );
    }

    #[test]
    fn insert_get_survives_reopen_byte_identically() {
        let dir = scratch("roundtrip");
        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(stats, RehydrateStats::default());
        let e = entry(7);
        cache.insert(e.clone()).unwrap();
        assert_eq!(cache.get(&e.key).unwrap().artifact, e.artifact);
        drop(cache);

        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(
            stats,
            RehydrateStats {
                loaded: 1,
                evicted: 0,
                trimmed: 0,
                stale: 0
            }
        );
        let back = cache.get(&e.key).unwrap();
        assert_eq!(back.artifact, e.artifact);
        assert_eq!(back.metrics, e.metrics);
        assert_eq!(*back, e);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_line_is_the_protocol_encoding_after_insert_and_rehydrate() {
        let dir = scratch("hit-line");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let awkward = [
            (
                "{\n  \"quote\": \"a\\\"b\",\n  \"path\": \"C:\\\\x\"\n}",
                "{}",
            ),
            (
                "tab\there\r\nbell\u{7}nul\u{0}esc\u{1b}del\u{7f}",
                "ünïcödé ✓ 😀 \u{10ffff}",
            ),
            ("", "\\\"\\\\\n"),
        ];
        let entries: Vec<CacheEntry> = awkward
            .iter()
            .enumerate()
            .map(|(seed, (artifact, metrics))| {
                let mut e = entry(seed as u64);
                e.artifact = (*artifact).to_owned();
                e.metrics = (*metrics).to_owned();
                e.checksum = CacheEntry::checksum_of(&e.artifact, &e.metrics);
                e
            })
            .collect();
        let expected = |e: &CacheEntry| {
            let resp = Response::artifact(
                STATUS_HIT,
                &e.key,
                &e.code_rev,
                e.artifact.clone(),
                e.metrics.clone(),
            );
            format!("{}\n", resp.to_line().unwrap()).into_bytes()
        };
        for e in &entries {
            cache.insert(e.clone()).unwrap();
            assert_eq!(
                *cache.hit_line(&e.key).unwrap(),
                *expected(e),
                "after insert"
            );
        }
        drop(cache);

        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(stats.loaded, entries.len());
        for e in &entries {
            let line = cache.hit_line(&e.key).unwrap();
            assert_eq!(*line, *expected(e), "after rehydrate");
            // One line on the wire, and it decodes back to the entry.
            assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
            let back = Response::from_line(std::str::from_utf8(&line).unwrap()).unwrap();
            assert_eq!(back.artifact.as_deref(), Some(e.artifact.as_str()));
            assert_eq!(back.metrics.as_deref(), Some(e.metrics.as_str()));
        }
        assert!(cache.hit_line(&entry(99).key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hit_line_freshens_recency_like_get() {
        let dir = scratch("hit-line-lru");
        let (cache, _) = ResultCache::open_bounded(&dir, 2).unwrap();
        let (e1, e2, e3) = (entry(1), entry(2), entry(3));
        cache.insert(e1.clone()).unwrap();
        cache.insert(e2.clone()).unwrap();
        assert!(cache.hit_line(&e1.key).is_some());
        assert_eq!(cache.insert(e3.clone()).unwrap(), 1);
        assert!(cache.hit_line(&e2.key).is_none(), "e2 was the LRU entry");
        assert!(cache.hit_line(&e1.key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_evicted_on_open() {
        let dir = scratch("corrupt");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let good = entry(1);
        let torn = entry(2);
        let lying = entry(3);
        cache.insert(good.clone()).unwrap();
        cache.insert(torn.clone()).unwrap();
        cache.insert(lying.clone()).unwrap();
        // Tear one entry mid-file and flip a payload byte in another
        // without updating its checksum.
        fs::write(cache.entry_path(&torn.key), "{\"key\": \"trunc").unwrap();
        let mut tampered = lying.clone();
        tampered.artifact.push('!');
        fs::write(
            cache.entry_path(&lying.key),
            serde_json::to_string_pretty(&tampered).unwrap(),
        )
        .unwrap();
        drop(cache);

        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(
            stats,
            RehydrateStats {
                loaded: 1,
                evicted: 2,
                trimmed: 0,
                stale: 0
            }
        );
        assert!(cache.get(&good.key).is_some());
        assert!(cache.get(&torn.key).is_none());
        assert!(cache.get(&lying.key).is_none());
        assert!(
            !cache.entry_path(&torn.key).exists(),
            "evicted from disk too"
        );
        // The evicted tuples recompute cleanly: a fresh insert under the
        // same key round-trips again.
        cache.insert(entry(2)).unwrap();
        assert!(cache.get(&entry(2).key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn misfiled_entries_are_evicted() {
        let dir = scratch("misfiled");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let e = entry(4);
        // An intact entry filed under some other tuple's name must not
        // be served for that name.
        let wrong = cache_key("f9", 999, "chaos", 2.0, 0, "elsewhere");
        fs::write(
            cache.entry_path(&wrong),
            serde_json::to_string_pretty(&e).unwrap(),
        )
        .unwrap();
        drop(cache);
        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(
            stats,
            RehydrateStats {
                loaded: 0,
                evicted: 1,
                trimmed: 0,
                stale: 0
            }
        );
        assert!(cache.get(&wrong).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_insert_evicts_least_recently_used() {
        let dir = scratch("lru");
        let (cache, _) = ResultCache::open_bounded(&dir, 2).unwrap();
        assert_eq!(cache.max_entries(), 2);
        let (e1, e2, e3) = (entry(1), entry(2), entry(3));
        assert_eq!(cache.insert(e1.clone()).unwrap(), 0);
        assert_eq!(cache.insert(e2.clone()).unwrap(), 0);
        // Touch e1 so e2 becomes the LRU victim.
        assert!(cache.get(&e1.key).is_some());
        assert_eq!(cache.insert(e3.clone()).unwrap(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&e2.key).is_none(), "LRU entry evicted");
        assert!(!cache.entry_path(&e2.key).exists(), "and removed from disk");
        assert!(cache.get(&e1.key).is_some());
        assert!(cache.get(&e3.key).is_some());
        // An evicted tuple can be recomputed and re-inserted.
        assert_eq!(cache.insert(entry(2)).unwrap(), 1);
        assert!(cache.get(&e2.key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cache_never_evicts_on_insert() {
        let dir = scratch("unbounded");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        for seed in 0..16 {
            assert_eq!(cache.insert(entry(seed)).unwrap(), 0);
        }
        assert_eq!(cache.len(), 16);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_reopen_trims_an_overfull_directory_to_the_cap() {
        let dir = scratch("trim");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        for seed in 0..5 {
            cache.insert(entry(seed)).unwrap();
        }
        drop(cache);
        let (cache, stats) = ResultCache::open_bounded(&dir, 3).unwrap();
        assert_eq!(stats.loaded, 3);
        assert_eq!(stats.trimmed, 2);
        assert_eq!(stats.evicted, 0);
        assert_eq!(cache.len(), 3);
        // Disk agrees with the index: exactly the cap remains.
        let on_disk = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|d| entry_key_of(&d.unwrap().path()))
            .count();
        assert_eq!(on_disk, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_reopen_keeps_current_revision_entries() {
        let dir = scratch("revision");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        let live: Vec<CacheEntry> = (0..4).map(entry).collect();
        let dead: Vec<CacheEntry> = (0..4).map(|seed| entry_at(seed, "0.0.0+gone")).collect();
        for e in live.iter().chain(&dead) {
            cache.insert(e.clone()).unwrap();
        }
        drop(cache);

        // The bound fits the live entries exactly: a dead one may never
        // take the place of one this binary can still hit.
        let (cache, stats) = ResultCache::open_bounded(&dir, live.len()).unwrap();
        assert_eq!(
            stats,
            RehydrateStats {
                loaded: 4,
                evicted: 0,
                trimmed: 0,
                stale: 4
            }
        );
        for e in &live {
            assert_eq!(*cache.get(&e.key).expect("live entry loaded"), *e);
        }
        for e in &dead {
            assert!(cache.get(&e.key).is_none());
            assert!(!cache.entry_path(&e.key).exists(), "dead entry deleted");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_index_writes_the_advisory_summary() {
        let dir = scratch("flush");
        let (cache, _) = ResultCache::open(&dir).unwrap();
        cache.insert(entry(1)).unwrap();
        cache.insert(entry(2)).unwrap();
        cache.flush_index().unwrap();
        let text = fs::read_to_string(dir.join("index.json")).unwrap();
        assert!(text.contains(&entry(1).key), "{text}");
        assert!(text.contains("\"seed\": 2"), "{text}");
        // index.json is advisory: rehydration ignores it (and never
        // mistakes it for an entry).
        let (cache, stats) = ResultCache::open(&dir).unwrap();
        assert_eq!(stats.loaded, 2);
        assert_eq!(cache.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
