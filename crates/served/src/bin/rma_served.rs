//! `rma-served` — the streaming multi-tenant detection daemon and its
//! file-spool client.
//!
//! ```text
//! rma-served serve    --spool DIR [--store ...] [--node-budget N]
//!                     [--workers N] [--queue-bound N] [--max-respawns N]
//!                     [--watchdog-ms N] [--ingest-delay-ms N]
//!                     [--durability none|batch|strict] [--serial]
//!                     [--fault-seed N]
//!                     [--chaos-kill-tenant T [--chaos-kill-times N] [--chaos-kill-at N]]
//! rma-served submit   FILE --spool DIR [--tenant T] [--name N] [--wait]
//! rma-served stats    --spool DIR [--check]
//! rma-served shutdown --spool DIR [--wait]
//! ```
//!
//! The spool protocol is plain files, so clients need no IPC machinery:
//! `submit` atomically drops `TENANT__NAME.rmatrc` into `DIR/inbox/`
//! (write a dotted `.part` name there, then rename — the daemon never
//! sees a partial file, and `DIR/tmp/` stays the daemon's); the daemon
//! feeds each stream chunk-by-chunk through the service's bounded
//! queues and atomically writes
//! `DIR/outbox/TENANT__NAME.verdict` whose `verdict:` line is
//! byte-comparable with `rma-trace replay` output. A `__shutdown__`
//! sentinel in the inbox triggers the structured drain: every in-flight
//! stream reports, the final deterministic `DIR/stats.json` is written,
//! and `DIR/served.exit` records the drain outcome.
//!
//! The daemon is crash-safe: admitted streams are journaled to
//! per-stream WALs under `DIR/wal/` (fsync discipline set by
//! `--durability`), their bytes parked under `DIR/work/` until the
//! verdict is out, and a restarted daemon recovers in-flight streams to
//! byte-identical verdicts before serving anything new — `kill -9`
//! mid-stream loses nothing. `--fault-seed` arms the injectable I/O
//! fault layer (torn/short writes, ENOSPC, failed renames) for chaos
//! drills; the run stops dead at the fault, exit code 3.
//!
//! The serve loop itself lives in [`rma_served::daemon`]; this binary
//! is flag parsing around it.

use rma_monitor::AnalyzerCfg;
use rma_served::daemon::{run_daemon, DaemonCfg, DaemonExit};
use rma_served::{
    check_stats_json, render_stats_json, ChaosCfg, DrainOutcome, Durability, ServeCfg, Spool,
};
use rma_sim::FaultKind;
use rma_substrate::fs::{Fs, FsPlan};
use rma_trace::Detector;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  rma-served serve    --spool DIR [--store naive|legacy|fragmerge|must] [--node-budget N]
                      [--workers N] [--queue-bound N] [--max-respawns N]
                      [--watchdog-ms N] [--ingest-delay-ms N]
                      [--memory-budget NODES] [--stream-deadline MS]
                      [--max-streams-per-tenant N] [--quarantine-after N]
                      [--durability none|batch|strict] [--serial] [--fault-seed N]
                      [--chaos-kill-tenant T] [--chaos-kill-times N] [--chaos-kill-at N]
  rma-served submit   FILE --spool DIR [--tenant T] [--name N] [--wait]
  rma-served stats    --spool DIR [--check] [--human]
  rma-served shutdown --spool DIR [--wait]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Pulls the value after `flag` out of `args`, if present.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(format!("{flag} needs a value\n{USAGE}"));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn take_num<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
) -> Result<Option<T>, String> {
    match take_opt(args, flag)? {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} wants a number, got {v:?}\n{USAGE}")),
        None => Ok(None),
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let spool_dir =
        take_opt(&mut args, "--spool")?.ok_or_else(|| format!("--spool required\n{USAGE}"))?;
    let store = take_opt(&mut args, "--store")?.unwrap_or_else(|| "fragmerge".into());
    let detector = Detector::parse(&store)
        .ok_or_else(|| format!("unknown store {store:?} (naive|legacy|fragmerge|must)"))?;
    let analyzer = AnalyzerCfg {
        node_budget: take_num(&mut args, "--node-budget")?,
        ..Default::default()
    };
    let mut cfg = ServeCfg { detector, analyzer, ..Default::default() };
    if let Some(w) = take_num(&mut args, "--workers")? {
        cfg.workers = w;
    }
    if let Some(q) = take_num(&mut args, "--queue-bound")? {
        cfg.queue_bound = q;
    }
    if let Some(r) = take_num(&mut args, "--max-respawns")? {
        cfg.max_respawns = r;
    }
    if let Some(w) = take_num(&mut args, "--watchdog-ms")? {
        cfg.watchdog_ms = w;
    }
    if let Some(d) = take_num::<u64>(&mut args, "--ingest-delay-ms")? {
        cfg.ingest_delay = Some(Duration::from_millis(d));
    }
    if let Some(b) = take_num::<usize>(&mut args, "--memory-budget")? {
        cfg.memory_budget = Some(b);
    }
    if let Some(d) = take_num::<u64>(&mut args, "--stream-deadline")? {
        cfg.stream_deadline = Some(d);
    }
    if let Some(q) = take_num(&mut args, "--max-streams-per-tenant")? {
        cfg.max_streams_per_tenant = q;
    }
    if let Some(q) = take_num(&mut args, "--quarantine-after")? {
        cfg.quarantine_after = q;
    }
    if let Some(tenant) = take_opt(&mut args, "--chaos-kill-tenant")? {
        let times = take_num(&mut args, "--chaos-kill-times")?.unwrap_or(1);
        let at_event = take_num(&mut args, "--chaos-kill-at")?.unwrap_or(0);
        cfg.chaos = Some(ChaosCfg { kind: FaultKind::KillWorker { times }, tenant, at_event });
    }
    let durability = match take_opt(&mut args, "--durability")? {
        Some(d) => Durability::parse(&d)
            .ok_or_else(|| format!("unknown durability {d:?} (none|batch|strict)"))?,
        None => Durability::default(),
    };
    let serial = take_flag(&mut args, "--serial");
    let fs = match take_num::<u64>(&mut args, "--fault-seed")? {
        Some(seed) => {
            let plan = FsPlan::from_seed(seed);
            eprintln!(
                "rma-served: armed I/O fault {} at mutating op {} (seed {seed})",
                plan.kind.name(),
                plan.at_op
            );
            Fs::faulty(plan)
        }
        None => Fs::real(),
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }

    let spool = Spool::create(Path::new(&spool_dir), fs)?;
    eprintln!(
        "rma-served: serving spool {spool_dir} (detector={} durability={durability})",
        detector.name()
    );
    let dcfg = DaemonCfg { serve: cfg, durability, serial, ..Default::default() };
    match run_daemon(&spool, &dcfg)? {
        DaemonExit::Drained { stats, outcome } => {
            let exit_line = match &outcome {
                DrainOutcome::Drained { streams } => format!("drained: {streams} stream(s)\n"),
                DrainOutcome::Wedged { pending } => {
                    format!("wedged: {} stream(s) stuck\n", pending.len())
                }
            };
            eprint!("rma-served: {exit_line}");
            eprint!("{}", stats.render());
            Ok(if matches!(outcome, DrainOutcome::Drained { .. }) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        DaemonExit::Crashed => {
            eprintln!("rma-served: injected fault tripped — stopping dead (restart to recover)");
            Ok(ExitCode::from(3))
        }
    }
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let spool_dir =
        take_opt(&mut args, "--spool")?.ok_or_else(|| format!("--spool required\n{USAGE}"))?;
    let tenant = take_opt(&mut args, "--tenant")?.unwrap_or_else(|| "default".into());
    let name = take_opt(&mut args, "--name")?;
    let wait = take_flag(&mut args, "--wait");
    let [file] = args.as_slice() else {
        return Err(format!("submit takes one FILE\n{USAGE}"));
    };
    let name = match name {
        Some(n) => n,
        None => Path::new(file)
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("{file}: cannot derive a stream name; pass --name"))?
            .to_string(),
    };
    if tenant.contains("__") || name.contains("__") {
        return Err("tenant/name must not contain \"__\" (the spool separator)".into());
    }
    let spool = Spool::attach(Path::new(&spool_dir))?;
    let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
    let stream_file = Spool::stream_file(&tenant, &name, "rmatrc");
    let verdict_path = spool.verdict_path(&tenant, &name);
    let _ = std::fs::remove_file(&verdict_path);
    spool
        .drop_stream(&tenant, &name, &bytes)
        .map_err(|e| format!("{stream_file}: {e}"))?;
    println!("submitted {file} as {tenant}/{name} ({} bytes)", bytes.len());
    if wait {
        loop {
            if let Ok(body) = std::fs::read_to_string(&verdict_path) {
                print!("{body}");
                // `shed:` bodies are structured refusals (tenant quota):
                // the machine-readable `retry-after-ms:` line tells the
                // caller when to resubmit. Both refusal shapes fail the
                // wait so scripts notice.
                return Ok(if body.contains("\nerror: ") || body.contains("\nshed: ") {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                });
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let spool_dir =
        take_opt(&mut args, "--spool")?.ok_or_else(|| format!("--spool required\n{USAGE}"))?;
    let check = take_flag(&mut args, "--check");
    let human = take_flag(&mut args, "--human");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }
    let path = PathBuf::from(&spool_dir).join("stats.json");
    let body = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e} (stats.json is written at daemon shutdown)", path.display()))?;
    if human {
        print!("{}", render_stats_json(&body).map_err(|e| format!("stats.json: {e}"))?);
    } else {
        print!("{body}");
    }
    if check {
        check_stats_json(&body).map_err(|e| format!("stats.json: {e}"))?;
        eprintln!("stats.json: schema ok");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_shutdown(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let spool_dir =
        take_opt(&mut args, "--spool")?.ok_or_else(|| format!("--spool required\n{USAGE}"))?;
    let wait = take_flag(&mut args, "--wait");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }
    let spool = Spool::attach(Path::new(&spool_dir))?;
    let exit_path = spool.root.join("served.exit");
    let _ = std::fs::remove_file(&exit_path);
    spool.request_shutdown().map_err(|e| format!("shutdown sentinel: {e}"))?;
    if wait {
        loop {
            if let Ok(body) = std::fs::read_to_string(&exit_path) {
                print!("{body}");
                return Ok(if body.starts_with("drained") {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                });
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    Ok(ExitCode::SUCCESS)
}
