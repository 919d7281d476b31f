//! Regenerates every table and figure recorded in `EXPERIMENTS.md`, under
//! a supervised runner with optional fault injection, sharding,
//! journal-driven replay, and cross-process dispatch.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin experiments -- run                # run everything
//! cargo run --release --bin experiments -- run f3 t1          # run a subset
//! cargo run --release --bin experiments -- run --fault-profile chaos --shards 4
//! cargo run --release --bin experiments -- run --metrics-out m.json --journal-out j.jsonl
//! cargo run --release --bin experiments -- dispatch --procs 4  # child processes
//! cargo run --release --bin experiments -- dispatch --procs 4 --chaos-proc kill:2
//! cargo run --release --bin experiments -- dispatch --procs 4 --workers host:7077,host:7078
//! cargo run --release --bin experiments -- list               # experiment catalog
//! cargo run --release --bin experiments -- merge-metrics a.json b.json
//! cargo run --release --bin experiments -- replay j.jsonl     # re-execute a capture
//! cargo run --release --bin experiments -- serve              # long-lived daemon
//! cargo run --release --bin experiments -- query f3 --seed 7  # ask the daemon
//! cargo run --release --bin experiments -- f3 t1              # bare form = `run`
//! ```
//!
//! Every experiment executes on a pooled worker thread under a deadline,
//! with panic isolation, bounded retries and a per-family circuit breaker. With
//! `--shards N`, N in-process workers each claim the next experiment until
//! none is left, and the merged canonical journal and report are
//! byte-identical to the single-shard run of the same seed. `dispatch
//! --procs K` splits the list into K contiguous slices run by supervised
//! *child processes* (the binary re-invokes itself per shard): children
//! heartbeat, crashed or hung shards are killed and retried with
//! deterministic backoff, `--allow-partial` degrades gracefully when a
//! shard stays dead, and the merged canonical
//! output remains byte-identical to the in-process run; with `--workers`
//! the shards are leased to `serve` daemons over TCP instead. `replay`
//! reconstructs a past run's configuration and fault schedule from its
//! captured journal, re-executes it, and diffs the canonical event
//! streams.
//!
//! Output is plain text: each experiment prints its rendered tables and
//! series (with ASCII sparklines standing in for figures). The supervised
//! run also collects telemetry — counters, latency histograms, tracing
//! spans, and a structured event journal — which `--metrics-out`,
//! `--journal-out`, and `--trace-summary` expose; `--report-out` writes
//! the serialized report+outputs artifact the dispatcher consumes.
//!
//! Exit codes: 0 — all experiments completed (or replay matched);
//! 1 — an experiment failed, or replay diverged from the capture;
//! 2 — an experiment timed out, a shard died without `--allow-partial`,
//! or bad arguments / unreadable input / unwritable output;
//! 3 — dispatch degraded to partial results under `--allow-partial`.

use humnet::core::experiments::ExperimentId;
use humnet::resilience::{
    code_rev, dispatch, git_rev, replay, ChaosNet, ChaosProc, DispatchConfig, ExperimentSpec,
    RunArtifact, RunnerConfig, ShardPlan, ShardSpec, SupervisedRun, Supervisor, CHAOS_ENV,
    CHAOS_KILL_CODE,
};
use humnet::serve::protocol::CMD_RUN;
use humnet::serve::{install_signal_handlers, Request, ServeClient, ServeConfig, Server};
use humnet::telemetry::{journal, TelemetrySnapshot, TextTable};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(args.split_off(1)),
        Some("dispatch") => cmd_dispatch(args.split_off(1)),
        Some("list") => cmd_list(args.split_off(1)),
        Some("merge-metrics") => cmd_merge_metrics(args.split_off(1)),
        Some("replay") => cmd_replay(args.split_off(1)),
        Some("serve") => cmd_serve(args.split_off(1)),
        Some("query") => cmd_query(args.split_off(1)),
        // Bare `experiments [OPTIONS] [ID...]` stays an alias for `run`.
        _ => cmd_run(args),
    };
    ExitCode::from(result.unwrap_or_else(Failure::report))
}

/// A command that cannot proceed: the single exit path for every error,
/// so no subcommand calls `std::process::exit` from the middle of its
/// control flow.
enum Failure {
    /// Bad CLI input — print the message and the usage text.
    Usage(String),
    /// Anything else fatal — unreadable input, unwritable output, a dead
    /// shard without `--allow-partial`.
    Fatal(String),
}

impl Failure {
    fn report(self) -> u8 {
        match self {
            Failure::Usage(msg) => {
                eprintln!("{msg}");
                eprintln!("{USAGE}");
            }
            Failure::Fatal(msg) => eprintln!("{msg}"),
        }
        2
    }
}

type CmdResult = Result<u8, Failure>;

// ---------------------------------------------------- shared run flags --

/// Consume `arg` (pulling its value from `args`) if it is one of the run
/// flags every load-bearing subcommand accepts — `run`, `dispatch`,
/// `serve` and `query` all take the same
/// `--fault-profile/--seed/--intensity/--retries/--deadline-ms` tuple
/// (plus `--breaker-cooldown` where a runner executes locally) — into
/// `tuple`, the run tuple of a wire [`Request`]; `Ok(false)` hands it
/// back to the caller's own match. Only the syntax is checked here:
/// [`runner_config`] checks the values.
fn run_flag(
    tuple: &mut Request,
    arg: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<bool, Failure> {
    let mut value = |flag: &str| -> Result<String, Failure> {
        args.next()
            .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
    };
    match arg {
        "--fault-profile" => tuple.profile = Some(value(arg)?),
        "--retries" => tuple.retries = Some(parse_num(&value(arg)?, arg)?),
        "--deadline-ms" => tuple.deadline_ms = Some(parse_num(&value(arg)?, arg)?),
        "--seed" => tuple.seed = Some(parse_num(&value(arg)?, arg)?),
        "--intensity" => tuple.intensity = Some(parse_num(&value(arg)?, arg)?),
        "--breaker-cooldown" => tuple.breaker_cooldown = Some(parse_num(&value(arg)?, arg)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// The runner configuration the run flags in `tuple` ask for: the
/// daemon's own step for runs and leases ([`Request::overlay`]) over the
/// runner defaults, so the CLI refuses exactly what a daemon would.
fn runner_config(tuple: &Request) -> Result<RunnerConfig, Failure> {
    tuple
        .overlay(&RunnerConfig::default())
        .map_err(Failure::Usage)
}

// ------------------------------------------------------------- output --

/// The output flags `run` and `dispatch` share, and the one place a
/// finished run is printed and written.
#[derive(Default)]
struct Outputs {
    report_only: bool,
    metrics_out: Option<String>,
    journal_out: Option<String>,
    /// Only `run` accepts `--report-out`.
    report_out: Option<String>,
    trace_summary: bool,
}

impl Outputs {
    /// Consume `arg` (pulling its value from `args`) if it is one of the
    /// shared output flags; `Ok(false)` hands it back to the caller.
    fn try_consume(
        &mut self,
        arg: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, Failure> {
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg {
            "--report-only" => self.report_only = true,
            "--metrics-out" => self.metrics_out = Some(value("--metrics-out")?),
            "--journal-out" => self.journal_out = Some(value("--journal-out")?),
            "--trace-summary" => self.trace_summary = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Create/truncate every output file now, so an unwritable path fails
    /// before minutes of experiments rather than after.
    fn preflight(&self) -> Result<(), Failure> {
        for (path, what) in [
            (&self.metrics_out, "metrics snapshot"),
            (&self.journal_out, "event journal"),
            (&self.report_out, "report artifact"),
        ] {
            if let Some(path) = path {
                preflight_writable(path, what)?;
            }
        }
        Ok(())
    }

    /// Print `run` — per-experiment outputs (missing ones flagged), the
    /// report, the dispatch `summary` when there is one, the metrics table
    /// — and write the requested artifacts.
    fn emit(
        &self,
        ids: &[ExperimentId],
        run: &SupervisedRun,
        summary: Option<&str>,
    ) -> Result<(), Failure> {
        if !self.report_only {
            for id in ids {
                banner(&format!("{} — {}", id.code().to_uppercase(), id.title()));
                match run.outputs.get(id.code()) {
                    Some(rendered) => println!("{rendered}"),
                    None => match run.report.experiments.iter().find(|r| r.code == id.code()) {
                        Some(row) => {
                            eprintln!(
                                "{} {}: {}",
                                id.code().to_uppercase(),
                                row.status,
                                row.message
                            )
                        }
                        None => eprintln!(
                            "{}: missing — its shard died and --allow-partial degraded the run",
                            id.code().to_uppercase()
                        ),
                    },
                }
            }
        }

        println!("\n{}", run.report.render());
        if let Some(summary) = summary {
            print!("{summary}");
        }

        // The metrics table carries timings, so it would break the
        // byte-stability of --report-only output across identical runs; the
        // report-only mode is what CI diffs.
        if !self.report_only {
            println!("\n{}", run.telemetry.render_metrics_table());
        }
        if self.trace_summary {
            println!("\n{}", run.telemetry.render_trace_summary());
        }
        if let Some(path) = &self.metrics_out {
            let json = run.telemetry.to_json().map_err(|e| {
                Failure::Fatal(format!("failed to serialize metrics snapshot: {e}"))
            })?;
            write_file(path, &json, "metrics snapshot")?;
        }
        if let Some(path) = &self.journal_out {
            let jsonl = run
                .telemetry
                .to_jsonl()
                .map_err(|e| Failure::Fatal(format!("failed to serialize event journal: {e}")))?;
            write_file(path, &jsonl, "event journal")?;
        }
        if let Some(path) = &self.report_out {
            // Canonicalized: the artifact is the reproducible face of the run
            // (the serve cache equates it byte-for-byte across same-seed
            // runs); wall-clock durations live in render() and the metrics.
            let artifact = RunArtifact {
                report: run.report.clone(),
                outputs: run.outputs.clone(),
            }
            .canonicalized();
            let json = artifact
                .to_json()
                .map_err(|e| Failure::Fatal(format!("failed to serialize report artifact: {e}")))?;
            write_file(path, &json, "report artifact")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- run --

struct RunCli {
    config: RunnerConfig,
    shards: u32,
    ids: Vec<ExperimentId>,
    out: Outputs,
    heartbeat: Option<String>,
    heartbeat_every: Duration,
}

fn cmd_run(args: Vec<String>) -> CmdResult {
    let Some(cli) = parse_run_args(args.into_iter())? else {
        return Ok(0); // --help
    };

    // Fail on unwritable output paths *before* spending minutes running
    // experiments.
    cli.out.preflight()?;
    if let Some(path) = &cli.heartbeat {
        preflight_writable(path, "heartbeat file")?;
    }

    // Cooperative process-level fault injection: a dispatch parent under
    // --chaos-proc stamps this variable on the targeted (shard, attempt)
    // spawn. `kill` simulates a crash before any work or heartbeat;
    // `hang` wedges silently so liveness/deadline supervision must fire.
    match std::env::var(CHAOS_ENV).as_deref() {
        Ok("kill") => {
            eprintln!("chaos-proc: kill — exiting {CHAOS_KILL_CODE}");
            return Ok(CHAOS_KILL_CODE as u8);
        }
        Ok("hang") => {
            eprintln!("chaos-proc: hang — sleeping without heartbeats");
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        _ => {}
    }

    if let Some(path) = &cli.heartbeat {
        start_heartbeat(path.clone(), cli.heartbeat_every);
    }

    let specs: Vec<ExperimentSpec> = cli.ids.iter().map(|id| id.spec()).collect();
    let run = Supervisor::builder()
        .config(cli.config)
        .shards(cli.shards)
        .build()
        .run(&specs);
    cli.out.emit(&cli.ids, &run, None)?;
    Ok(run.report.exit_code() as u8)
}

/// `Ok(None)` means `--help` was printed; there is nothing to run.
fn parse_run_args(mut args: impl Iterator<Item = String>) -> Result<Option<RunCli>, Failure> {
    let mut cli = RunCli {
        config: RunnerConfig::default(),
        shards: 1,
        ids: Vec::new(),
        out: Outputs::default(),
        heartbeat: None,
        heartbeat_every: Duration::from_millis(100),
    };
    let mut tuple = Request::default();

    while let Some(arg) = args.next() {
        if run_flag(&mut tuple, &arg, &mut args)? || cli.out.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--shards" => {
                let n: u32 = parse_num(&value("--shards")?, "--shards")?;
                if n == 0 {
                    return Err(Failure::Usage("--shards must be positive".to_owned()));
                }
                cli.shards = n;
            }
            "--report-out" => cli.out.report_out = Some(value("--report-out")?),
            "--heartbeat" => cli.heartbeat = Some(value("--heartbeat")?),
            "--heartbeat-ms" => {
                let ms: u64 = parse_num(&value("--heartbeat-ms")?, "--heartbeat-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--heartbeat-ms must be positive".to_owned()));
                }
                cli.heartbeat_every = Duration::from_millis(ms);
            }
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                if !cli.ids.contains(&parsed) {
                    cli.ids.push(parsed);
                }
            }
        }
    }

    cli.config = runner_config(&tuple)?;
    canonicalize_ids(&mut cli.ids);
    Ok(Some(cli))
}

// ----------------------------------------------------------- dispatch --

struct DispatchCli {
    config: RunnerConfig,
    procs: u32,
    ids: Vec<ExperimentId>,
    dispatch: DispatchConfig,
    out: Outputs,
}

fn cmd_dispatch(args: Vec<String>) -> CmdResult {
    let Some(cli) = parse_dispatch_args(args.into_iter())? else {
        return Ok(0); // --help
    };
    cli.out.preflight()?;

    let exe = std::env::current_exe()
        .map_err(|e| Failure::Fatal(format!("cannot locate own executable: {e}")))?;
    let plan = ShardPlan::new(cli.procs);
    let shards: Vec<ShardSpec> = (0..cli.procs)
        .map(|k| {
            let range = plan.range(k, cli.ids.len());
            ShardSpec {
                shard: k,
                spec_base: range.start as u64,
                codes: cli.ids[range]
                    .iter()
                    .map(|id| id.code().to_owned())
                    .collect(),
            }
        })
        .collect();

    let config = cli.config;
    let build = |spec: &ShardSpec, paths: &humnet::resilience::ShardPaths| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg("--shards")
            .arg("1")
            .arg("--fault-profile")
            .arg(config.profile.label())
            .arg("--retries")
            .arg(config.retries.to_string())
            .arg("--deadline-ms")
            .arg(config.deadline.as_millis().to_string())
            .arg("--seed")
            .arg(config.seed.to_string())
            .arg("--intensity")
            .arg(config.intensity.to_string())
            .arg("--breaker-cooldown")
            .arg(config.breaker_cooldown.to_string())
            .arg("--report-only")
            .arg("--metrics-out")
            .arg(&paths.metrics)
            .arg("--report-out")
            .arg(&paths.report)
            .arg("--heartbeat")
            .arg(&paths.heartbeat)
            .args(&spec.codes);
        cmd
    };

    let outcome = dispatch(&cli.dispatch, &config, shards, build)
        .map_err(|e| Failure::Fatal(format!("dispatch failed: {e}")))?;
    cli.out
        .emit(&cli.ids, &outcome.run, Some(&outcome.render_summary()))?;
    Ok(outcome.exit_code() as u8)
}

fn parse_dispatch_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<DispatchCli>, Failure> {
    let mut cli = DispatchCli {
        config: RunnerConfig::default(),
        procs: 0,
        ids: Vec::new(),
        dispatch: DispatchConfig::default(),
        out: Outputs::default(),
    };
    let mut tuple = Request::default();

    while let Some(arg) = args.next() {
        if run_flag(&mut tuple, &arg, &mut args)? || cli.out.try_consume(&arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--procs" => {
                let n: u32 = parse_num(&value("--procs")?, "--procs")?;
                if n == 0 {
                    return Err(Failure::Usage("--procs must be positive".to_owned()));
                }
                cli.procs = n;
            }
            "--shard-retries" => {
                cli.dispatch.shard_retries =
                    parse_num(&value("--shard-retries")?, "--shard-retries")?;
            }
            "--shard-deadline-ms" => {
                let ms: u64 = parse_num(&value("--shard-deadline-ms")?, "--shard-deadline-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage(
                        "--shard-deadline-ms must be positive".to_owned(),
                    ));
                }
                cli.dispatch.shard_deadline = Duration::from_millis(ms);
            }
            "--liveness-ms" => {
                // 0 is allowed: it disables heartbeat liveness checking and
                // leaves only the shard deadline.
                let ms: u64 = parse_num(&value("--liveness-ms")?, "--liveness-ms")?;
                cli.dispatch.liveness = Duration::from_millis(ms);
            }
            "--allow-partial" => cli.dispatch.allow_partial = true,
            "--chaos-proc" => {
                let v = value("--chaos-proc")?;
                let chaos = ChaosProc::parse(&v).ok_or_else(|| {
                    Failure::Usage(format!(
                        "bad --chaos-proc '{v}' (kill:<shard>[:attempt] | hang:<shard>[:attempt])"
                    ))
                })?;
                cli.dispatch.chaos.push(chaos);
            }
            "--workers" => {
                // Comma-separated and repeatable; order matters (chaos-net
                // and retry rotation address workers by index).
                for addr in value("--workers")?.split(',') {
                    let addr = addr.trim();
                    if addr.is_empty() {
                        return Err(Failure::Usage(
                            "--workers needs host:port[,host:port...]".to_owned(),
                        ));
                    }
                    cli.dispatch.workers.push(addr.to_owned());
                }
            }
            "--chaos-net" => {
                let v = value("--chaos-net")?;
                let chaos = ChaosNet::parse(&v).ok_or_else(|| {
                    Failure::Usage(format!(
                        "bad --chaos-net '{v}' (kill:<worker>[:lease] | stall:<worker>[:lease] \
                         | garble:<worker>[:lease])"
                    ))
                })?;
                cli.dispatch.chaos_net.push(chaos);
            }
            "--no-failover" => cli.dispatch.local_failover = false,
            "--connect-timeout-ms" => {
                let ms: u64 = parse_num(&value("--connect-timeout-ms")?, "--connect-timeout-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage(
                        "--connect-timeout-ms must be positive".to_owned(),
                    ));
                }
                cli.dispatch.connect_timeout = Duration::from_millis(ms);
            }
            "--scratch" => {
                cli.dispatch.scratch = std::path::PathBuf::from(value("--scratch")?);
            }
            "--keep-scratch" => cli.dispatch.keep_scratch = true,
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                if !cli.ids.contains(&parsed) {
                    cli.ids.push(parsed);
                }
            }
        }
    }

    if cli.procs == 0 {
        return Err(Failure::Usage(
            "dispatch needs --procs <K> (number of child processes)".to_owned(),
        ));
    }
    if cli.dispatch.workers.is_empty() {
        if !cli.dispatch.chaos_net.is_empty() {
            return Err(Failure::Usage(
                "--chaos-net needs --workers (it injects faults on the worker wire)".to_owned(),
            ));
        }
        if !cli.dispatch.local_failover {
            return Err(Failure::Usage(
                "--no-failover needs --workers (local dispatch has nothing to fail over from)"
                    .to_owned(),
            ));
        }
    }
    cli.config = runner_config(&tuple)?;
    canonicalize_ids(&mut cli.ids);
    // The retry backoff jitter stream derives from the run seed, like
    // every other deterministic decision.
    cli.dispatch.seed = cli.config.seed;
    Ok(Some(cli))
}

// --------------------------------------------------------------- list --

fn cmd_list(args: Vec<String>) -> CmdResult {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(0);
    }
    if let Some(stray) = args.first() {
        return Err(Failure::Usage(format!(
            "list takes no arguments (got '{stray}')"
        )));
    }
    let mut table = TextTable::new(&["code", "family", "faults", "experiment"]);
    for id in ExperimentId::ALL {
        table.row(vec![
            id.code().to_owned(),
            id.family().to_owned(),
            if id.fault_capable() { "yes" } else { "-" }.to_owned(),
            id.title().to_owned(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "{} experiments; run with: experiments run [ID...]",
        ExperimentId::ALL.len()
    );
    Ok(0)
}

// ------------------------------------------------------ merge-metrics --

fn cmd_merge_metrics(args: Vec<String>) -> CmdResult {
    let mut paths = Vec::new();
    let mut out = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            "--out" => match args.next() {
                Some(v) => out = Some(v),
                None => return Err(Failure::Usage("--out needs a value".to_owned())),
            },
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            path => paths.push(path.to_owned()),
        }
    }
    if paths.is_empty() {
        return Err(Failure::Usage(
            "merge-metrics needs at least one snapshot path".to_owned(),
        ));
    }

    let mut merged = TelemetrySnapshot::default();
    for path in &paths {
        let text = read_file(path, "metrics snapshot")?;
        // Scope "" leaves run-level events unscoped, exactly like the
        // sharded supervisor's own merge.
        let snap = TelemetrySnapshot::from_json(&text)
            .map_err(|e| Failure::Fatal(format!("failed to parse metrics snapshot {path}: {e}")))?;
        merged.merge(&snap, "");
    }
    let json = merged
        .to_json()
        .map_err(|e| Failure::Fatal(format!("failed to serialize merged snapshot: {e}")))?;
    match &out {
        Some(path) => write_file(path, &json, "merged snapshot")?,
        None => println!("{json}"),
    }
    eprintln!(
        "merged {} snapshots: {} counters, {} events",
        paths.len(),
        merged.metrics.counters.len(),
        merged.events.len()
    );
    Ok(0)
}

// -------------------------------------------------------------- replay --

fn cmd_replay(args: Vec<String>) -> CmdResult {
    let mut path = None;
    for arg in &args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            p if path.is_none() => path = Some(p.to_owned()),
            stray => {
                return Err(Failure::Usage(format!(
                    "replay takes one journal path (got '{stray}')"
                )));
            }
        }
    }
    let Some(path) = path else {
        return Err(Failure::Usage(
            "replay needs a journal path (JSONL from --journal-out)".to_owned(),
        ));
    };

    let text = read_file(&path, "event journal")?;
    let events = journal::from_jsonl(&text)
        .map_err(|e| Failure::Fatal(format!("failed to parse event journal {path}: {e}")))?;
    let factory = |code: &str| ExperimentId::parse(code).map(ExperimentId::spec);
    let report = replay::replay(&events, &factory)
        .map_err(|e| Failure::Fatal(format!("cannot replay {path}: {e}")))?;
    print!("{}", report.render());
    Ok(report.exit_code() as u8)
}

// -------------------------------------------------------------- serve --

const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7077";

fn cmd_serve(args: Vec<String>) -> CmdResult {
    let mut cfg = ServeConfig::default();
    cfg.addr = DEFAULT_SERVE_ADDR.to_owned();
    let mut ready_file = None;
    let mut tuple = Request::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if run_flag(&mut tuple, &arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            "--addr" => cfg.addr = value("--addr")?,
            "--cache-dir" => cfg.cache_dir = std::path::PathBuf::from(value("--cache-dir")?),
            "--cache-max-entries" => {
                cfg.cache_max_entries =
                    parse_num(&value("--cache-max-entries")?, "--cache-max-entries")?;
            }
            "--queue-depth" => {
                cfg.queue_depth = parse_num(&value("--queue-depth")?, "--queue-depth")?;
            }
            "--concurrency" => {
                let n: usize = parse_num(&value("--concurrency")?, "--concurrency")?;
                if n == 0 {
                    return Err(Failure::Usage("--concurrency must be positive".to_owned()));
                }
                cfg.concurrency = n;
            }
            "--hold-ms" => {
                // Deterministic-delay knob for overload tests, like
                // --chaos-proc is for dispatch tests.
                cfg.hold = Duration::from_millis(parse_num(&value("--hold-ms")?, "--hold-ms")?);
            }
            "--ready-file" => ready_file = Some(value("--ready-file")?),
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            stray => {
                return Err(Failure::Usage(format!(
                    "serve takes no positional arguments (got '{stray}')"
                )));
            }
        }
    }

    cfg.runner = runner_config(&tuple)?;
    install_signal_handlers();
    let factory = Arc::new(|code: &str| ExperimentId::parse(code).map(ExperimentId::spec));
    let server = Server::bind(cfg, factory)
        .map_err(|e| Failure::Fatal(format!("serve: cannot start: {e}")))?;
    let addr = server.local_addr();
    let rehydrated = server.rehydrated();
    // The ready file lets scripts (and tests) bind to port 0 and discover
    // the actual address without racing the daemon's startup.
    if let Some(path) = &ready_file {
        write_file(path, &addr.to_string(), "ready file")?;
    }
    eprintln!(
        "serve: listening on {addr} (code {}, git {}; {} cache entries rehydrated, {} evicted, \
         {} stale, {} trimmed)",
        code_rev(),
        git_rev(),
        rehydrated.loaded,
        rehydrated.evicted,
        rehydrated.stale,
        rehydrated.trimmed
    );

    let summary = server
        .run()
        .map_err(|e| Failure::Fatal(format!("serve: {e}")))?;
    let counters = &summary.stats.metrics.counters;
    let n = |name: &str| counters.get(name).copied().unwrap_or(0);
    eprintln!(
        "serve: drained — {} requests ({} hits, {} misses, {} shed, {} errors), \
         {} leases ({} done, {} faulted), {} cache entries",
        n("serve.requests"),
        n("serve.cache_hit"),
        n("serve.cache_miss"),
        n("serve.shed"),
        n("serve.error"),
        n("serve.leases"),
        n("serve.lease_done"),
        n("serve.lease_faulted"),
        summary.cache_entries
    );
    Ok(0)
}

// -------------------------------------------------------------- query --

fn cmd_query(args: Vec<String>) -> CmdResult {
    let mut addr = DEFAULT_SERVE_ADDR.to_owned();
    // The run flags go straight into the request; its empty `cmd` is set
    // by the experiment id, `--stats` or `--shutdown`.
    let mut req = Request::default();
    let mut artifact_out = None;
    let mut timeout = Duration::from_secs(120);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if run_flag(&mut req, &arg, &mut args)? {
            continue;
        }
        let mut value = |flag: &str| -> Result<String, Failure> {
            args.next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(0);
            }
            "--addr" => addr = value("--addr")?,
            "--stats" | "--shutdown" => {
                if !req.cmd.is_empty() {
                    return Err(Failure::Usage(
                        "query takes one of: an experiment id, --stats, or --shutdown".to_owned(),
                    ));
                }
                req.cmd = arg.trim_start_matches('-').to_owned();
            }
            "--timeout-ms" => {
                let ms: u64 = parse_num(&value("--timeout-ms")?, "--timeout-ms")?;
                if ms == 0 {
                    return Err(Failure::Usage("--timeout-ms must be positive".to_owned()));
                }
                timeout = Duration::from_millis(ms);
            }
            "--artifact-out" => artifact_out = Some(value("--artifact-out")?),
            flag if flag.starts_with('-') => {
                return Err(Failure::Usage(format!("unknown option '{flag}'")));
            }
            id => {
                if !req.cmd.is_empty() {
                    return Err(Failure::Usage(
                        "query takes one of: an experiment id, --stats, or --shutdown".to_owned(),
                    ));
                }
                let parsed = ExperimentId::parse(id)
                    .ok_or_else(|| Failure::Usage(format!("unknown experiment id '{id}'")))?;
                req.cmd = CMD_RUN.to_owned();
                req.experiment = Some(parsed.code().to_owned());
            }
        }
    }
    if req.cmd.is_empty() {
        return Err(Failure::Usage(
            "query needs an experiment id, --stats, or --shutdown".to_owned(),
        ));
    }
    if req.breaker_cooldown.is_some() {
        return Err(Failure::Usage(
            "--breaker-cooldown is not a query option: a run's cache key leaves it out, so the \
             daemon would never read it"
                .to_owned(),
        ));
    }
    // Refuse what the daemon would refuse, before dialling it.
    runner_config(&req)?;
    if let Some(path) = &artifact_out {
        preflight_writable(path, "artifact")?;
    }

    let resp = ServeClient::connect(&addr, timeout)
        .and_then(|mut client| client.request(&req))
        .map_err(|e| Failure::Fatal(format!("query: {e}")))?;
    match resp.status.as_str() {
        "hit" | "miss" => {
            eprintln!(
                "query: {} key={} rev={}",
                resp.status,
                resp.key.as_deref().unwrap_or("?"),
                resp.code_rev.as_deref().unwrap_or("?")
            );
            let artifact = resp.artifact.unwrap_or_default();
            match &artifact_out {
                Some(path) => write_file(path, &artifact, "artifact")?,
                None => println!("{artifact}"),
            }
            Ok(0)
        }
        "stats" => {
            println!("{}", resp.stats.unwrap_or_default());
            Ok(0)
        }
        "ok" => {
            eprintln!("query: {}", resp.message.unwrap_or_default());
            Ok(0)
        }
        "overloaded" => {
            eprintln!(
                "query: daemon overloaded: {}",
                resp.message.unwrap_or_default()
            );
            Ok(3)
        }
        _ => {
            eprintln!("query: server error: {}", resp.message.unwrap_or_default());
            Ok(1)
        }
    }
}

// ------------------------------------------------------------- shared --

/// Default to every experiment; run explicit subsets in canonical order
/// regardless of CLI order (contiguous shard slices depend on it).
fn canonicalize_ids(ids: &mut Vec<ExperimentId>) {
    if ids.is_empty() {
        *ids = ExperimentId::ALL.to_vec();
    } else {
        ids.sort_by_key(|id| ExperimentId::ALL.iter().position(|a| a == id));
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, Failure> {
    v.parse()
        .map_err(|_| Failure::Usage(format!("bad {flag} value '{v}'")))
}

/// Append a heartbeat line to `path` every `every` until process exit, on
/// a detached thread. The dispatch parent only watches the file *grow* —
/// the contents are for humans debugging a shard.
fn start_heartbeat(path: String, every: Duration) {
    let _ = std::thread::Builder::new()
        .name("humnet-heartbeat".to_owned())
        .spawn(move || {
            let mut beat = 0u64;
            loop {
                if let Ok(mut f) = std::fs::OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&path)
                {
                    use std::io::Write as _;
                    let _ = writeln!(f, "hb {beat} pid={}", std::process::id());
                }
                beat += 1;
                std::thread::sleep(every);
            }
        });
}

/// Create/truncate `path` now so an unwritable destination fails the
/// process (exit 2) before any experiment runs, not after.
fn preflight_writable(path: &str, what: &str) -> Result<(), Failure> {
    std::fs::File::create(path)
        .map(drop)
        .map_err(|e| Failure::Fatal(format!("cannot write {what} to {path}: {e}")))
}

fn read_file(path: &str, what: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path)
        .map_err(|e| Failure::Fatal(format!("failed to read {what} from {path}: {e}")))
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| Failure::Fatal(format!("failed to write {what} to {path}: {e}")))
}

const USAGE: &str = "\
usage: experiments <COMMAND> [ARGS]
       experiments [OPTIONS] [ID...]        (alias for `run`)

Commands:
  run [OPTIONS] [ID...]          run experiments under the supervisor
  dispatch --procs <K> [OPTIONS] [ID...]
                                 partition the run across K supervised child
                                 processes (crash retry, heartbeats, graceful
                                 partial-result degradation); with --workers
                                 the shards lease to `serve` daemons over TCP
                                 instead of local children
  list                           print the experiment catalog (codes, families, titles)
  merge-metrics <PATH>... [--out <PATH>]
                                 merge telemetry snapshots (e.g. per-shard
                                 --metrics-out files) into one JSON snapshot
  replay <JOURNAL.jsonl>         re-execute a captured run and diff canonical events
  serve [OPTIONS]                long-lived daemon: answer run requests over
                                 line-delimited JSON on TCP, from a
                                 content-addressed result cache (misses execute
                                 on the warm in-process pool), and run shard
                                 leases for `dispatch --workers`
  query [OPTIONS] <ID> | --stats | --shutdown
                                 one request against a running daemon

IDs (default: all, in EXPERIMENTS.md order):
  f1 t1 f2 t2 f3 f4 t3 f5 t4 f6 t5 f7 f8 f9 t6 t7 f10

Shared run-config options (accepted by run, dispatch, serve and query —
one validation path; each command overlays them on its own defaults):
  --fault-profile <none|churn|outage|chaos>  fault mix to inject (default none)
  --retries <N>        extra attempts per experiment (default 1)
  --deadline-ms <N>    per-attempt wall-clock deadline (default 30000)
  --seed <N>           seed for fault plans and retry jitter (default 42)
  --intensity <X>      multiplier on the profile's fault rates (default 1.0)
  --breaker-cooldown <N>
                       admit one half-open probe after N outcomes recorded
                       against an open breaker; 0 latches open (default 0;
                       not accepted by query: a run's cache key leaves it
                       out, so the daemon never reads it)

Run options (plus the shared options above):
  --shards <N>         run on N in-process workers, each claiming the next
                       experiment until none is left; the merged canonical
                       output is shard-invariant (default 1)
  --report-only        print only the final run report
  --metrics-out <PATH> write the telemetry snapshot (metrics + spans) as JSON
  --journal-out <PATH> write the structured event journal as JSONL
  --report-out <PATH>  write the report+outputs artifact as JSON (what a
                       dispatch child hands back to its parent)
  --heartbeat <PATH>   append a liveness line to PATH while running
  --heartbeat-ms <N>   heartbeat period (default 100)
  --trace-summary      print the per-span flame summary after the report
  --help               show this help

Dispatch options (shared options above plus the run options, minus --shards,
--report-out, --heartbeat and --heartbeat-ms, which dispatch manages itself;
children heartbeat every 100 ms):
  --procs <K>          number of shards (required); the merged canonical
                       output is byte-identical to the in-process 1-shard
                       run of the same seed
  --shard-retries <N>  extra attempts per crashed/hung shard on each rung: the
                       leases to --workers, then the child spawns (default 1)
  --shard-deadline-ms <N>
                       per-attempt wall-clock budget for one child (default 120000)
  --liveness-ms <N>    kill a child whose heartbeat file stalls this long;
                       0 disables liveness checking (default 10000)
  --allow-partial      degrade to a partial merged result (exit 3) instead of
                       failing when a shard exhausts its retries
  --chaos-proc <kill:<shard>[:attempt] | hang:<shard>[:attempt]>
                       deterministic process-fault injection (repeatable)
  --scratch <DIR>      artifact scratch directory (default under the temp dir);
                       a complete run removes DIR only if it is then empty
                       (failed attempts keep their child logs)
  --keep-scratch       keep per-shard artifacts and child logs on success
  --workers <HOST:PORT[,HOST:PORT...]>
                       lease shards to these `experiments serve` daemons (in
                       order; repeatable) instead of spawning local children;
                       each lease runs on the daemon's warm pool under its
                       admission queue and heartbeats every 100 ms; the
                       merged canonical output stays byte-identical to the
                       in-process run, failed leases retry on the next
                       surviving worker with the same deterministic backoff
  --chaos-net <kill:<worker>[:lease] | stall:<worker>[:lease] | garble:<worker>[:lease]>
                       deterministic wire-fault injection against worker
                       <worker>'s <lease>-th lease: drop the connection,
                       go silent, or emit a corrupt frame (repeatable;
                       needs --workers)
  --no-failover        give up after the remote retries instead of failing
                       the shard over to a local child process
  --connect-timeout-ms <N>
                       TCP connect budget per lease attempt (default 5000)

Serve options (plus the shared options above, which set the daemon's
per-request defaults; a shard lease from `dispatch --workers` carries its
own run tuple and is admitted like a cache miss):
  --addr <HOST:PORT>   listen address (default 127.0.0.1:7077; port 0 picks
                       a free port — see --ready-file)
  --cache-dir <DIR>    content-addressed result cache (default under the temp
                       dir; survives restarts and is rehydrated on startup,
                       which deletes the entries another code revision wrote,
                       counted in `serve.evicted_stale`)
  --cache-max-entries <N>
                       bound the result cache; inserting past the bound
                       evicts the least-recently-used entry (counted in
                       `serve.evicted`), and an overfull directory is
                       trimmed on startup; 0 = unbounded (default 0)
  --queue-depth <N>    pending-run queue, shared by misses and leases; requests
                       beyond it are answered `overloaded` instead of waiting
                       (default 32)
  --concurrency <N>    worker threads executing cache misses and shard leases
                       (default 2)
  --hold-ms <N>        hold each miss N ms before executing — deterministic
                       load knob for overload testing (default 0)
  --ready-file <PATH>  write the bound address here once listening
  The daemon drains and exits on SIGTERM or a `query --shutdown`.

Query options (the shared options form the request tuple; daemon defaults
fill whatever is absent, and deadline is wall-clock only — never part of the
cache key):
  --addr <HOST:PORT>   daemon address (default 127.0.0.1:7077)
  --timeout-ms <N>     socket timeout (default 120000)
  --artifact-out <PATH>
                       write the returned artifact JSON here instead of stdout

Exit codes:
  0  all experiments completed / replay matched the capture / query answered
  1  an experiment failed / replay diverged / the daemon reported an error
  2  an experiment timed out, a shard died without --allow-partial, or bad
     arguments / unreadable or unwritable files / the daemon is unreachable
  3  dispatch degraded to partial results under --allow-partial, or the
     daemon shed the query as overloaded";

fn banner(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}\n", "=".repeat(72));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_every_experiment_in_order() {
        let ids = USAGE
            .lines()
            .skip_while(|l| !l.starts_with("IDs "))
            .nth(1)
            .expect("USAGE has an IDs line");
        let codes: Vec<&str> = ExperimentId::ALL.iter().map(|id| id.code()).collect();
        assert_eq!(ids.split_whitespace().collect::<Vec<_>>(), codes);
    }
}
