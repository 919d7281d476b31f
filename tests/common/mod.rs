//! The one harness the integration tests share: a driver for the
//! `experiments` binary, a per-test scratch directory, the journal
//! canonicalizer, the report duration stripper, the `serve` daemon
//! fixture, and the in-process chaos suite.

// Each test crate includes this module and uses its own subset of it.
#![allow(dead_code)]

use humnet::core::experiments::ExperimentId;
use humnet::resilience::{
    ExperimentSpec, FaultProfile, RunnerConfig, Supervisor, SupervisorBuilder,
};
use humnet::serve::ServeClient;
use humnet::telemetry::{journal, Event, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

/// How long a request to a daemon under test may take.
pub const TIMEOUT: Duration = Duration::from_secs(120);

/// Run the `experiments` binary to completion with the words of `line`
/// as its arguments. No argument the tests pass contains a space.
pub fn experiments(line: &str) -> Output {
    experiments_in(Path::new("."), line)
}

/// [`experiments`], run in directory `dir`.
pub fn experiments_in(dir: &Path, line: &str) -> Output {
    Command::new(EXE)
        .current_dir(dir)
        .args(line.split_whitespace())
        .output()
        .expect("experiments binary runs")
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

pub fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A path as a CLI argument.
fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 path")
}

/// A fresh directory unique to this test process and `tag`, removed with
/// everything in it on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("humnet-it-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// [`experiments`], run in the scratch dir.
    pub fn run(&self, line: &str) -> Output {
        experiments_in(self, line)
    }
}

impl std::ops::Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The events of a `--journal-out` file.
pub fn journal_events(path: &Path) -> Vec<Event> {
    let text = std::fs::read_to_string(path).expect("journal file");
    journal::from_jsonl(&text).expect("journal parses")
}

/// The canonical journal of a `--journal-out` file.
pub fn canonical_journal(path: &Path) -> Vec<String> {
    journal_events(path).iter().map(Event::canonical).collect()
}

/// The report with each line's first `NNms` cell and the spaces before it
/// removed: what `sed 's/ *[0-9]*ms//'` leaves of it.
pub fn without_durations(report: &str) -> String {
    report
        .lines()
        .map(|line| match line.find("ms") {
            Some(end) => {
                let start = line[..end]
                    .trim_end_matches(|c: char| c.is_ascii_digit())
                    .trim_end_matches(' ')
                    .len();
                format!("{}{}\n", &line[..start], &line[end + 2..])
            }
            None => format!("{line}\n"),
        })
        .collect()
}

/// An `experiments serve` daemon on a free port, with its cache, ready
/// file and `daemon.log` in its own directory. Killed on drop unless it
/// has already exited.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Start a daemon in `dir` (created if needed) and wait until it is
    /// ready. Restarting in the same `dir` reuses the cache.
    pub fn start(dir: &Path, extra: &str) -> Daemon {
        std::fs::create_dir_all(dir).unwrap();
        let (ready, cache) = (dir.join("ready"), dir.join("cache"));
        // A restarted daemon reuses the path: never read a stale address.
        let _ = std::fs::remove_file(&ready);
        let child = Command::new(EXE)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--cache-dir", arg(&cache), "--ready-file", arg(&ready)])
            .args(extra.split_whitespace())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(dir.join("daemon.log")).unwrap())
            .spawn()
            .expect("daemon spawns");
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            dir: dir.to_owned(),
        };
        let t0 = Instant::now();
        while daemon.addr.is_empty() {
            assert!(t0.elapsed() < Duration::from_secs(60), "never ready");
            std::thread::sleep(Duration::from_millis(25));
            let text = std::fs::read_to_string(&ready).unwrap_or_default();
            daemon.addr = text.trim().to_owned();
        }
        daemon
    }

    /// A fresh persistent connection to the daemon.
    pub fn client(&self) -> ServeClient {
        ServeClient::connect(&self.addr, TIMEOUT).expect("connect to daemon")
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon running").id()
    }

    /// What the daemon has written to stderr.
    pub fn log(&self) -> String {
        std::fs::read_to_string(self.dir.join("daemon.log")).unwrap_or_default()
    }

    /// The daemon's counters, read through `experiments query --stats`.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let out = experiments(&format!("query --stats --addr {}", self.addr));
        assert!(out.status.success(), "query --stats: {}", stderr(&out));
        let snap = TelemetrySnapshot::from_json(&stdout(&out)).expect("stats snapshot");
        snap.metrics.counters.into_iter().collect()
    }

    /// Wait for the daemon to exit on its own.
    pub fn wait(&mut self) -> ExitStatus {
        let mut child = self.child.take().expect("daemon running");
        child.wait().expect("daemon exits")
    }

    /// Shut the daemon down through `experiments query --shutdown`, and
    /// require exit 0 and a `serve: drained` line.
    pub fn shutdown(mut self) {
        let out = experiments(&format!("query --shutdown --addr {}", self.addr));
        assert!(out.status.success(), "query --shutdown: {}", stderr(&out));
        let status = self.wait();
        let log = self.log();
        assert!(
            status.success() && log.contains("serve: drained"),
            "{status:?}\n{log}"
        );
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The fast cross-family fault-capable subset of the real experiments.
pub fn suite() -> Vec<ExperimentSpec> {
    use ExperimentId::{F1, F4, F5, T2};
    [F1, T2, F4, F5].map(ExperimentId::spec).into()
}

/// A chaos supervisor with retries and a generous deadline.
pub fn chaos(seed: u64) -> SupervisorBuilder {
    Supervisor::builder().config(RunnerConfig {
        retries: 2,
        deadline: Duration::from_secs(30),
        profile: FaultProfile::Chaos,
        seed,
        ..RunnerConfig::default()
    })
}

/// [`chaos`] at seed 2025 over `shards` workers.
pub fn supervisor(shards: u32) -> Supervisor {
    chaos(2025).shards(shards).build()
}
