//! `rma-trace` — record, replay, minimize and inspect binary RMA event
//! traces.
//!
//! ```text
//! rma-trace record   (--case NAME | --app bfs|cfd|minivite) --out FILE [--race]
//! rma-trace replay   FILE [--store naive|legacy|fragmerge|must] [--tolerate-truncation]
//! rma-trace minimize IN OUT [--oracle naive|legacy|fragmerge|must]
//! rma-trace gentest  IN OUT.rs --name ID [--provenance TEXT] [--truth race|safe]
//! rma-trace salvage  FILE [--out FILE]
//! rma-trace stat     FILE
//! rma-trace diff     FILE1 FILE2 [--verdict-only]
//! rma-trace pump     (--case NAME | FILE) --spool DIR [--tenant T] [--name N] [--wait]
//! ```
//!
//! `record` runs the program live with the frag-merge analyzer tee'd
//! behind a [`TraceWriter`] and prints the live verdict; `replay` prints
//! the offline verdict in the same canonical format, so the two lines
//! compare byte-for-byte (this is the round-trip check `ci.sh` gates on).
//! `salvage` recovers the longest epoch-aligned prefix of a damaged
//! file; `replay --tolerate-truncation` falls back to the same recovery
//! when a full decode fails, replaying whatever prefix survives.
//!
//! `minimize` delta-debugs a trace down to the smallest event
//! subsequence whose replay verdict (canonical race list + completeness)
//! is identical under the chosen oracle detector, and re-encodes the
//! survivor as a standalone `.rmatrc`. `gentest` turns a (preferably
//! minimized) trace into a self-contained Rust regression test that
//! embeds the bytes and pins every detector's verdict — together they
//! close the chaos-find → permanent-test loop (`rma-chaos
//! --gentest-dir` drives both).
//!
//! `pump` is the client side of the `rma-served` daemon: it records a
//! suite case (or takes an existing trace file) and submits it into the
//! daemon's file spool — written to the spool's `tmp/` and renamed into
//! `inbox/`, so the daemon never observes a partial stream. With
//! `--wait` it blocks for the verdict file and prints it; the file's
//! `verdict:` line compares byte-for-byte with `rma-trace replay`.

use rma_apps::{run_bfs, run_cfd, run_minivite, BfsCfg, CfdCfg, Method, MethodRun, MiniViteCfg};
use rma_monitor::{AnalyzerCfg, OnRace, RmaAnalyzer};
use rma_sim::{Monitor, Tee};
use rma_suite::{
    find_accum_case, find_case, generate_suite, run_accum_case_with_monitor,
    run_case_with_monitor,
};
use rma_trace::{
    generate_test, minimize, replay, salvage, verdict_line, Detector, Trace, TraceEvent,
    TraceWriter,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage:
  rma-trace record   (--case NAME | --app bfs|cfd|minivite) --out FILE [--race]
  rma-trace replay   FILE [--store naive|legacy|fragmerge|must] [--tolerate-truncation]
  rma-trace minimize IN OUT [--oracle naive|legacy|fragmerge|must]
  rma-trace gentest  IN OUT.rs --name ID [--provenance TEXT] [--truth race|safe]
  rma-trace salvage  FILE [--out FILE]
  rma-trace stat     FILE
  rma-trace diff     FILE1 FILE2 [--verdict-only]
  rma-trace pump     (--case NAME | FILE) --spool DIR [--tenant T] [--name N] [--wait]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("minimize") => cmd_minimize(&args[1..]),
        Some("gentest") => cmd_gentest(&args[1..]),
        Some("salvage") => cmd_salvage(&args[1..]),
        Some("stat") => cmd_stat(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("pump") => cmd_pump(&args[1..]),
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

fn load_trace(path: &str) -> Result<Trace, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let case = take_opt(&mut args, "--case")?;
    let app = take_opt(&mut args, "--app")?;
    let out = take_opt(&mut args, "--out")?.ok_or_else(|| format!("--out required\n{USAGE}"))?;
    let race = take_flag(&mut args, "--race");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}\n{USAGE}"));
    }

    let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        on_race: OnRace::Collect,
        ..AnalyzerCfg::default()
    }));
    let (writer, clean) = match (case.as_deref(), app.as_deref()) {
        (Some(name), None) => {
            let writer = Arc::new(TraceWriter::new(name, 0x5EED));
            let tee: Arc<dyn Monitor> =
                Arc::new(Tee::pair(writer.clone(), analyzer.clone()));
            // Accumulate-extension cases live beside the generated
            // 240-case validation suite; try both namespaces.
            let outcome = if let Some(partner) = find_accum_case(name) {
                run_accum_case_with_monitor(partner, tee)
            } else {
                let cases = generate_suite();
                let spec = find_case(&cases, name)
                    .ok_or_else(|| format!("unknown suite case {name:?} (see rma-suite)"))?;
                run_case_with_monitor(&spec, tee)
            };
            (writer, outcome.is_clean())
        }
        (None, Some(app)) => {
            let writer = Arc::new(TraceWriter::new(app, 0x5EED));
            let method =
                MethodRun::new(Method::Contribution, 4).observed(writer.clone());
            match app {
                "bfs" => {
                    let cfg = BfsCfg { nranks: 4, nv: 256, degree: 4, root: 0, seed: 0xBF5 };
                    run_bfs(&cfg, &method);
                }
                "cfd" => {
                    let cfg = CfdCfg {
                        nranks: 4,
                        iterations: 3,
                        halo_cells: 8,
                        neighbors: None,
                        inject_race: race,
                        interior_cells: 64,
                    };
                    run_cfd(&cfg, &method);
                }
                "minivite" => {
                    let cfg = MiniViteCfg {
                        nranks: 4,
                        nv: 400,
                        degree: 4,
                        lp_iters: 1,
                        seed: 0xC0FFEE,
                        locality: 16,
                        inject_race: race,
                    };
                    run_minivite(&cfg, &method);
                }
                other => return Err(format!("unknown app {other:?}\n{USAGE}")),
            }
            // MethodRun keeps the analyzer handle; fetch its races below.
            let races = method.races();
            let trace = writer.trace();
            let bytes = trace.encode();
            std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
            println!("recorded {} events ({} bytes) from app {app} -> {out}",
                trace.event_count(), bytes.len());
            println!("{}", verdict_line(&races));
            return Ok(ExitCode::SUCCESS);
        }
        _ => return Err(format!("need exactly one of --case / --app\n{USAGE}")),
    };
    let trace = writer.trace();
    let bytes = trace.encode();
    std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "recorded {} events ({} bytes, clean={clean}) -> {out}",
        trace.event_count(),
        bytes.len()
    );
    println!("{}", verdict_line(&analyzer.races()));
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let store = take_opt(&mut args, "--store")?.unwrap_or_else(|| "fragmerge".into());
    let tolerate = take_flag(&mut args, "--tolerate-truncation");
    let detector = Detector::parse(&store)
        .ok_or_else(|| format!("unknown store {store:?} (naive|legacy|fragmerge|must)"))?;
    let [path] = args.as_slice() else {
        return Err(format!("replay takes one FILE\n{USAGE}"));
    };
    let trace = if tolerate {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let rep = salvage(&bytes).map_err(|e| format!("{path}: unsalvageable: {e}"))?;
        if let Some(diag) = rep.diagnosis {
            eprintln!(
                "warning: {path}: {diag}; salvaged {} events / {} epoch(s), dropped {}",
                rep.trace.event_count(),
                rep.epochs_kept,
                rep.dropped_events
            );
        }
        rep.trace
    } else {
        load_trace(path)?
    };
    let t0 = Instant::now();
    let outcome = replay(&trace, detector);
    let secs = t0.elapsed().as_secs_f64();
    let rate = if secs > 0.0 { outcome.events as f64 / secs } else { f64::INFINITY };
    println!(
        "replayed {} events through {} in {:.3} ms ({:.0} events/s)",
        outcome.events,
        detector.name(),
        secs * 1e3,
        rate
    );
    println!(
        "stats: peak_nodes={} processed={} epochs={} fragments={} merges={} unsupported_flushes={}",
        outcome.stats.peak_nodes(),
        outcome.stats.events_processed(),
        outcome.stats.epochs,
        outcome.stats.fragments,
        outcome.stats.merges,
        outcome.unsupported_flushes,
    );
    if !outcome.complete {
        println!("warning: trace incomplete (ranks parked at an unmatched collective)");
    }
    println!("{}", verdict_line(&outcome.races));
    Ok(ExitCode::SUCCESS)
}

fn cmd_minimize(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let oracle = take_opt(&mut args, "--oracle")?.unwrap_or_else(|| "fragmerge".into());
    let detector = Detector::parse(&oracle)
        .ok_or_else(|| format!("unknown oracle {oracle:?} (naive|legacy|fragmerge|must)"))?;
    let [in_path, out_path] = args.as_slice() else {
        return Err(format!("minimize takes IN OUT\n{USAGE}"));
    };
    let trace = load_trace(in_path)?;
    let t0 = Instant::now();
    let rep = minimize(&trace, detector);
    let secs = t0.elapsed().as_secs_f64();
    let bytes = rep.trace.encode();
    std::fs::write(out_path, &bytes).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "minimized {} -> {} events ({} bytes) under {} in {:.3} ms, {} oracle replays",
        rep.original_events,
        rep.kept_events,
        bytes.len(),
        detector.name(),
        secs * 1e3,
        rep.oracle_calls
    );
    if !rep.complete {
        println!("warning: input replays incomplete; minimized to the same incompleteness");
    }
    println!("{}", verdict_line(&rep.verdict));
    Ok(ExitCode::SUCCESS)
}

fn cmd_gentest(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let name =
        take_opt(&mut args, "--name")?.ok_or_else(|| format!("--name required\n{USAGE}"))?;
    let provenance = take_opt(&mut args, "--provenance")?
        .unwrap_or_else(|| format!("rma-trace gentest --name {name}"));
    let truth = match take_opt(&mut args, "--truth")?.as_deref() {
        None => None,
        Some("race") => Some(true),
        Some("safe") => Some(false),
        Some(other) => return Err(format!("--truth takes race|safe, got {other:?}")),
    };
    let [in_path, out_path] = args.as_slice() else {
        return Err(format!("gentest takes IN OUT.rs\n{USAGE}"));
    };
    let bytes = std::fs::read(in_path).map_err(|e| format!("{in_path}: {e}"))?;
    let source = generate_test(&bytes, &name, &provenance, truth)
        .map_err(|e| format!("{in_path}: {e}"))?;
    std::fs::write(out_path, &source).map_err(|e| format!("{out_path}: {e}"))?;
    println!(
        "generated {} ({} lines) pinning {} trace bytes",
        out_path,
        source.lines().count(),
        bytes.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_salvage(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let out = take_opt(&mut args, "--out")?;
    let [path] = args.as_slice() else {
        return Err(format!("salvage takes one FILE\n{USAGE}"));
    };
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let rep = salvage(&bytes).map_err(|e| format!("{path}: unsalvageable: {e}"))?;
    match &rep.diagnosis {
        None => println!("{path}: intact ({} events, nothing to do)", rep.trace.event_count()),
        Some(diag) => println!(
            "{path}: {diag}; recovered {} events across {} complete epoch(s), dropped {} decoded events",
            rep.trace.event_count(),
            rep.epochs_kept,
            rep.dropped_events
        ),
    }
    if let Some(out) = out {
        let re = rep.trace.encode();
        std::fs::write(&out, &re).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote salvaged trace ({} bytes) -> {out}", re.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_stat(args: &[String]) -> Result<ExitCode, String> {
    let [path] = args else {
        return Err(format!("stat takes one FILE\n{USAGE}"));
    };
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = Trace::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let marks = Trace::epoch_marks(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let h = &trace.header;
    println!(
        "{path}: format v{} app={:?} nranks={} seed={:#x} ({} bytes)",
        h.version, h.app, h.nranks, h.seed, bytes.len()
    );
    let mut counts = [0usize; 11];
    for (rank, stream) in trace.streams.iter().enumerate() {
        let epochs = marks.iter().filter(|m| m.rank == rank as u32).count();
        println!("  rank {rank}: {} events, {} epoch seek points", stream.len(), epochs);
        for ev in stream {
            let slot = match ev {
                TraceEvent::Local { .. } => 0,
                TraceEvent::Rma { .. } => 1,
                TraceEvent::WinAllocate { .. } => 2,
                TraceEvent::WinFree { .. } => 3,
                TraceEvent::LockAll { .. } => 4,
                TraceEvent::UnlockAll { .. } => 5,
                TraceEvent::FlushAll { .. } => 6,
                TraceEvent::Flush { .. } => 7,
                TraceEvent::Fence { .. } => 8,
                TraceEvent::Barrier => 9,
                TraceEvent::Finish => 10,
            };
            counts[slot] += 1;
        }
    }
    let names = [
        "local", "rma", "win_allocate", "win_free", "lock_all", "unlock_all", "flush_all",
        "flush", "fence", "barrier", "finish",
    ];
    let summary: Vec<String> = names
        .iter()
        .zip(counts)
        .filter(|&(_, c)| c > 0)
        .map(|(n, c)| format!("{n}={c}"))
        .collect();
    println!("  totals: {} events [{}]", trace.event_count(), summary.join(" "));
    Ok(ExitCode::SUCCESS)
}

fn cmd_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    // Compare canonical verdicts only — the contract a minimized trace
    // keeps; its event streams differ from the original by design.
    let verdict_only = take_flag(&mut args, "--verdict-only");
    let [a_path, b_path] = args.as_slice() else {
        return Err(format!("diff takes two FILEs\n{USAGE}"));
    };
    let a = load_trace(a_path)?;
    let b = load_trace(b_path)?;
    let mut differs = false;
    if !verdict_only {
        if a.header != b.header {
            println!("headers differ: {:?} vs {:?}", a.header, b.header);
            differs = true;
        }
        let nranks = a.streams.len().max(b.streams.len());
        for r in 0..nranks {
            let (sa, sb) = (a.streams.get(r), b.streams.get(r));
            match (sa, sb) {
                (Some(sa), Some(sb)) => {
                    if let Some(i) = (0..sa.len().max(sb.len()))
                        .find(|&i| sa.get(i) != sb.get(i))
                    {
                        println!(
                            "rank {r}: first divergence at event {i}: {:?} vs {:?}",
                            sa.get(i),
                            sb.get(i)
                        );
                        differs = true;
                    }
                }
                _ => {
                    println!("rank {r}: present in only one trace");
                    differs = true;
                }
            }
        }
    }
    let va = verdict_line(&replay(&a, Detector::FragMerge).races);
    let vb = verdict_line(&replay(&b, Detector::FragMerge).races);
    if va != vb {
        println!("verdicts differ:\n  {a_path}: {va}\n  {b_path}: {vb}");
        differs = true;
    }
    if differs {
        Ok(ExitCode::FAILURE)
    } else if verdict_only {
        println!(
            "verdicts identical ({} vs {} events) — {va}",
            a.event_count(),
            b.event_count()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("traces identical ({} events) — {va}", a.event_count());
        Ok(ExitCode::SUCCESS)
    }
}

/// Client mode for the `rma-served` spool protocol (duplicated inline —
/// a dep on rma-served here would cycle the workspace graph): record or
/// load a trace, then atomically drop it into the daemon's inbox.
fn cmd_pump(args: &[String]) -> Result<ExitCode, String> {
    let mut args = args.to_vec();
    let case = take_opt(&mut args, "--case")?;
    let spool = take_opt(&mut args, "--spool")?
        .ok_or_else(|| format!("--spool required\n{USAGE}"))?;
    let tenant = take_opt(&mut args, "--tenant")?.unwrap_or_else(|| "default".into());
    let name = take_opt(&mut args, "--name")?;
    let wait = take_flag(&mut args, "--wait");

    let (bytes, name) = match (case, args.as_slice()) {
        (Some(case), []) => {
            let cases = generate_suite();
            let spec = find_case(&cases, &case)
                .ok_or_else(|| format!("unknown suite case {case:?} (see rma-suite)"))?;
            let writer = Arc::new(TraceWriter::new(case.as_str(), 0x5EED));
            run_case_with_monitor(&spec, writer.clone());
            (writer.trace().encode(), name.unwrap_or(case))
        }
        (None, [file]) => {
            let bytes = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
            let stem = std::path::Path::new(file)
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| format!("{file}: cannot derive a stream name; pass --name"))?;
            (bytes, name.unwrap_or_else(|| stem.to_string()))
        }
        _ => return Err(format!("pump takes exactly one of --case NAME / FILE\n{USAGE}")),
    };
    if tenant.contains("__") || name.contains("__") {
        return Err("tenant/name must not contain \"__\" (the spool separator)".into());
    }
    let spool = std::path::PathBuf::from(spool);
    let inbox = spool.join("inbox");
    if !inbox.is_dir() {
        return Err(format!(
            "{}: not a spool directory (no inbox/ — is rma-served up?)",
            spool.display()
        ));
    }
    let stream_file = format!("{tenant}__{name}.rmatrc");
    let verdict_path = spool.join("outbox").join(format!("{tenant}__{name}.verdict"));
    let _ = std::fs::remove_file(&verdict_path);
    // Staged in inbox/ under a dotted `.part` name the daemon never
    // claims, as `Spool::drop_stream` does: tmp/ is the daemon's, and
    // its startup recovery empties it.
    let part = inbox.join(format!(".{stream_file}.part"));
    std::fs::write(&part, &bytes).map_err(|e| format!("{}: {e}", part.display()))?;
    std::fs::rename(&part, inbox.join(&stream_file))
        .map_err(|e| format!("{}: {e}", inbox.display()))?;
    println!("pumped {tenant}/{name} ({} bytes)", bytes.len());
    if wait {
        loop {
            if let Ok(body) = std::fs::read_to_string(&verdict_path) {
                print!("{body}");
                return Ok(if body.contains("\nerror: ") {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }
    Ok(ExitCode::SUCCESS)
}
