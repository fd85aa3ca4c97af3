//! The serve loop as a library: spool polling, WAL-journaled admission,
//! feeder threads, crash simulation.
//!
//! `rma-served serve` is a thin wrapper over [`run_daemon`]. Hosting
//! the loop here lets the crash-restart test matrix drive a complete
//! daemon *in process* against a fault-injected [`Fs`]: when the
//! planned fault fires the daemon stops dead ([`DaemonExit::Crashed`] —
//! no drain, no stats, no cleanup, exactly what `kill -9` leaves), and
//! a restarted daemon against the same spool must recover to verdicts
//! byte-identical to an uninterrupted run.
//!
//! Per admitted stream the daemon follows the durability protocol
//! recovery relies on (see [`crate::recovery`]): WAL `Admit` → rename
//! `inbox/`→`work/` → feed through the service (WAL watermarks, epoch
//! checkpoints) → idempotent verdict publish → WAL `Published` → remove
//! work → remove WAL. A failed verdict publish is *surfaced* — counted
//! in `stats.json` (`recovery.publish_failures`), logged, and left
//! recoverable (WAL + work bytes stay put for the next start) — never
//! silently dropped.

use crate::recovery::{recover, RecoveryStats};
use crate::service::{ServeCfg, ServeError, Service, StreamHandle, Tier};
use crate::spool::{
    error_body, parse_stream_stem, shed_body, verdict_body, Spool, SHUTDOWN_SENTINEL,
};
use crate::stats::ServedStats;
use crate::wal::{Durability, WalRecord, WalWriter};
use crate::DrainOutcome;
use rma_trace::trace::fnv1a;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How the daemon feeds stream bytes to the service: small chunks so
/// the bounded queue (not the chunk size) is what limits buffering.
const FEED_CHUNK: usize = 4096;

/// Daemon configuration: the service config plus the spool-side knobs.
#[derive(Clone, Debug)]
pub struct DaemonCfg {
    /// The detection service configuration.
    pub serve: ServeCfg,
    /// Fsync discipline for the WAL and publishes.
    pub durability: Durability,
    /// Serve streams strictly one at a time (each feeder joined before
    /// the next admission). The crash-restart sweeps run this way so
    /// the sequence of mutating filesystem operations — and therefore
    /// every seeded crash point and recovery counter — is reproducible.
    pub serial: bool,
    /// Inbox poll interval.
    pub poll: Duration,
}

impl Default for DaemonCfg {
    fn default() -> DaemonCfg {
        DaemonCfg {
            serve: ServeCfg::default(),
            durability: Durability::default(),
            serial: false,
            poll: Duration::from_millis(10),
        }
    }
}

/// How a daemon run ended.
#[derive(Debug)]
pub enum DaemonExit {
    /// Structured shutdown: sentinel honored, everything drained,
    /// `stats.json` and `served.exit` published.
    Drained {
        /// Final telemetry (also published as `stats.json`).
        stats: Box<ServedStats>,
        /// The drain outcome (also published as `served.exit`).
        outcome: DrainOutcome,
    },
    /// The injected I/O fault fired: the run stopped dead at that write
    /// boundary — no drain, no stats, spool left exactly as the crash
    /// left it. Restart and recover.
    Crashed,
}

/// One stream renamed into `work/` but not yet admitted (service busy).
struct Pending {
    tenant: String,
    name: String,
    bytes: Vec<u8>,
    wal: WalWriter,
}

/// Runs the daemon over `spool` until its shutdown sentinel (or a
/// simulated crash). See module docs for the protocol.
pub fn run_daemon(spool: &Spool, cfg: &DaemonCfg) -> Result<DaemonExit, String> {
    let fs = spool.fs().clone();

    // Startup recovery: resolve whatever a previous incarnation left.
    let recovery = match recover(spool, &cfg.serve, cfg.durability) {
        Ok(r) => r,
        Err(e) if fs.tripped() => {
            let _ = e;
            return Ok(DaemonExit::Crashed);
        }
        Err(e) => return Err(format!("recovery: {e}")),
    };
    if recovery != RecoveryStats::default() {
        eprintln!("rma-served: recovery: {}", recovery.to_json());
    }

    let publish_failures = Arc::new(AtomicU64::new(0));
    let svc = Service::new(cfg.serve.clone());
    let mut feeders: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let sentinel = spool.inbox.join(SHUTDOWN_SENTINEL);
    let mut busy_rounds: u64 = 0;

    'serve: loop {
        if fs.tripped() {
            break 'serve;
        }
        let entries: Vec<PathBuf> = fs
            .list_files(&spool.inbox)
            .map_err(|e| format!("{}: {e}", spool.inbox.display()))?
            .into_iter()
            .filter(|p| p.extension().is_some_and(|x| x == "rmatrc"))
            .collect();

        // Per-tenant admission pressure as of this round: everything
        // already claimed but not yet admitted, plus live streams. The
        // quota decision keys on it *at claim time* — a sorted scan and
        // a deterministic count, so which stream sheds is reproducible.
        let quota = cfg.serve.max_streams_per_tenant;
        let mut tenant_load: HashMap<String, usize> = HashMap::new();
        if quota > 0 {
            for p in &pending {
                *tenant_load.entry(p.tenant.clone()).or_insert(0) += 1;
            }
        }

        // Claim every inbox entry: WAL-admit it, then atomically move
        // its bytes to work/. From this point a crash can no longer
        // lose the stream — recovery recomputes from work/.
        for path in entries {
            if fs.tripped() {
                break 'serve;
            }
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("stream").to_string();
            let (tenant, name) = parse_stream_stem(&stem);
            if quota > 0 {
                let load = tenant_load.entry(tenant.clone()).or_insert(0);
                if *load + svc.tenant_live(&tenant) >= quota {
                    // Load shed: refuse before journaling anything. The
                    // structured verdict carries a machine-readable
                    // retry hint; the submission is consumed so the
                    // client unblocks instead of being served late.
                    let retry_ms = (cfg.poll.as_millis() as u64).saturating_mul(2).max(1);
                    let body = shed_body(&tenant, &name, "tenant quota reached", retry_ms);
                    let file = Spool::stream_file(&tenant, &name, "verdict");
                    let shed = spool
                        .publish_idempotent(&spool.outbox, &file, body.as_bytes(), cfg.durability)
                        .and_then(|_| fs.remove_file(&path));
                    match shed {
                        Ok(()) => svc.note_shed(&tenant),
                        Err(e) => {
                            // Couldn't refuse cleanly: leave the inbox
                            // entry for the next round.
                            if !fs.tripped() {
                                eprintln!("rma-served: {tenant}/{name}: shed failed: {e}");
                            }
                        }
                    }
                    continue;
                }
                *load += 1;
            }
            let bytes = match fs.read(&path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("rma-served: skipping {}: {e}", path.display());
                    continue;
                }
            };
            let wal = match WalWriter::create(
                fs.clone(),
                spool.wal_path(&tenant, &name),
                cfg.durability,
            )
            .and_then(|w| {
                w.append(&WalRecord::Admit {
                    bytes_len: bytes.len() as u64,
                    bytes_fnv: fnv1a(&bytes),
                })?;
                Ok(w)
            }) {
                Ok(w) => w,
                Err(e) => {
                    // Admission not journaled: leave the inbox entry for
                    // the next round (or the next incarnation).
                    if !fs.tripped() {
                        eprintln!("rma-served: {tenant}/{name}: wal admit failed: {e}");
                    }
                    continue;
                }
            };
            if let Err(e) = fs.rename(&path, &spool.work_path(&tenant, &name)) {
                // Stream stays in the inbox; the fresh WAL is stale and
                // recovery (or the next round's re-admit) handles it.
                if !fs.tripped() {
                    eprintln!("rma-served: {tenant}/{name}: claim failed: {e}");
                }
                continue;
            }
            pending.push_back(Pending { tenant, name, bytes, wal });
        }

        // Admit claimed streams into the service, oldest first.
        let mut admitted = false;
        while let Some(p) = pending.front() {
            match svc.submit(&p.tenant, &p.name) {
                Ok(handle) => {
                    let p = pending.pop_front().expect("front exists");
                    admitted = true;
                    let ctx = FeederCtx {
                        spool: spool.clone(),
                        durability: cfg.durability,
                        serial: cfg.serial,
                        publish_failures: publish_failures.clone(),
                    };
                    feeders.push(std::thread::spawn(move || feed_stream(ctx, p, handle)));
                    if cfg.serial {
                        for h in feeders.drain(..) {
                            let _ = h.join();
                        }
                    }
                }
                Err(ServeError::Busy) => break, // retry next round
                Err(e) => {
                    // Shutdown race: publish a structured error verdict
                    // so a waiting client unblocks; work/ + WAL stay for
                    // the next incarnation to recover properly.
                    let p = pending.pop_front().expect("front exists");
                    let body = error_body(&p.tenant, &p.name, &format!("{e}"));
                    publish_verdict(&ctx_of(spool, cfg, &publish_failures), &p, body.as_bytes(), false);
                    break;
                }
            }
        }
        busy_rounds = if admitted || pending.is_empty() { 0 } else { busy_rounds + 1 };

        feeders.retain(|h| !h.is_finished());
        if sentinel.exists() && pending.is_empty() {
            let inbox_empty = fs
                .list_files(&spool.inbox)
                .map(|fs| !fs.iter().any(|p| p.extension().is_some_and(|x| x == "rmatrc")))
                .unwrap_or(true);
            if inbox_empty {
                break 'serve;
            }
        }
        // A service busy past the watchdog window with nothing admitted
        // is wedged: stop scanning, let shutdown report it structurally.
        if busy_rounds.saturating_mul(cfg.poll.as_millis().max(1) as u64)
            > cfg.serve.watchdog_ms.max(1)
        {
            eprintln!("rma-served: admission stalled past the watchdog window, draining");
            break 'serve;
        }
        std::thread::sleep(cfg.poll);
    }

    // Unblock and join every feeder. On the crash path the service is
    // torn down first (workers abort, parked producers wake) and the
    // tripped flag keeps the feeders from writing anything afterwards.
    if fs.tripped() {
        drop(svc);
        for h in feeders {
            let _ = h.join();
        }
        return Ok(DaemonExit::Crashed);
    }
    for h in feeders {
        let _ = h.join();
    }
    if fs.tripped() {
        return Ok(DaemonExit::Crashed);
    }

    let (mut stats, outcome) = svc.shutdown();
    stats.recovery = recovery;
    stats.recovery.publish_failures += publish_failures.load(Ordering::SeqCst);
    let publish = |name: &str, body: &[u8]| {
        spool
            .publish(&spool.root, name, body, cfg.durability)
            .map_err(|e| format!("{name}: {e}"))
    };
    let exit_line = match &outcome {
        DrainOutcome::Drained { streams } => format!("drained: {streams} stream(s)\n"),
        DrainOutcome::Wedged { pending } => format!("wedged: {} stream(s) stuck\n", pending.len()),
    };
    let published = publish("stats.json", format!("{}\n", stats.to_json()).as_bytes())
        .and_then(|()| publish("served.exit", exit_line.as_bytes()))
        .and_then(|()| {
            if sentinel.exists() {
                fs.remove_file(&sentinel).map_err(|e| format!("sentinel: {e}"))
            } else {
                Ok(())
            }
        });
    match published {
        Err(_) if fs.tripped() => return Ok(DaemonExit::Crashed),
        Err(e) => return Err(e),
        Ok(()) => {}
    }
    Ok(DaemonExit::Drained { stats: Box::new(stats), outcome })
}

/// What a feeder thread needs besides its stream.
struct FeederCtx {
    spool: Spool,
    durability: Durability,
    serial: bool,
    publish_failures: Arc<AtomicU64>,
}

fn ctx_of(spool: &Spool, cfg: &DaemonCfg, failures: &Arc<AtomicU64>) -> FeederCtx {
    FeederCtx {
        spool: spool.clone(),
        durability: cfg.durability,
        serial: cfg.serial,
        publish_failures: failures.clone(),
    }
}

/// Feeds one admitted stream through the service, journaling progress,
/// then publishes its verdict and clears its spool state.
fn feed_stream(ctx: FeederCtx, p: Pending, handle: StreamHandle) {
    let fs = ctx.spool.fs();
    let mut ok = true;
    let mut fed = 0u64;
    let mut last_epochs = 0u64;
    for piece in p.bytes.chunks(FEED_CHUNK) {
        if fs.tripped() {
            return; // simulated crash: stop dead, publish nothing
        }
        if handle.feed(piece).is_err() {
            ok = false;
            break;
        }
        fed += piece.len() as u64;
        // Progress records. A failed append degrades durability for
        // this stream (recovery falls back to the work/ bytes), never
        // the verdict — log and keep serving.
        if let Err(e) = p.wal.append(&WalRecord::Watermark { offset: fed }) {
            if !fs.tripped() {
                eprintln!("rma-served: {}/{}: wal watermark failed: {e}", p.tenant, p.name);
            }
        }
        // Epoch checkpoints track the worker's live decode progress.
        // Skipped in serial (crash-sweep) mode: the worker races the
        // feeder, and the sweep needs a reproducible operation count.
        if !ctx.serial {
            let (_, epochs) = handle.progress();
            if epochs > last_epochs {
                last_epochs = epochs;
                let rec = WalRecord::Epoch { epochs, offset: fed };
                if let Err(e) = p.wal.append(&rec) {
                    if !fs.tripped() {
                        eprintln!("rma-served: {}/{}: wal epoch failed: {e}", p.tenant, p.name);
                    }
                }
            }
        }
    }
    if fs.tripped() {
        return;
    }
    let (body, complete) = match handle.finish() {
        Ok(rep) if rep.tier == Tier::Quarantined => {
            // Poison stream: its bytes are retained, not cleaned up,
            // and the quarantine must survive a crash-restart without
            // recovery re-analyzing (and re-crashing on) them.
            if !fs.tripped() {
                publish_quarantined(&ctx, &p, &rep);
            }
            return;
        }
        Ok(rep) => {
            // Final epoch checkpoint: the analyzed count is exact
            // and reproducible once the verdict exists.
            let rec = WalRecord::Epoch { epochs: rep.epochs_kept as u64, offset: fed };
            if p.wal.append(&rec).is_err() && !fs.tripped() {
                eprintln!("rma-served: {}/{}: wal epoch failed", p.tenant, p.name);
            }
            (verdict_body(&rep), true)
        }
        // A mid-stream rejection whose stream the service still saw
        // through to a verdict (deadline eviction, lost worker):
        // `finish` above returned it and the arms before this ran. Here
        // the service produced nothing — surface a structured error.
        Err(_) if !ok => (error_body(&p.tenant, &p.name, "rejected mid-stream"), false),
        Err(e) => (error_body(&p.tenant, &p.name, &format!("{e}")), false),
    };
    if fs.tripped() {
        return;
    }
    publish_verdict(&ctx, &p, body.as_bytes(), complete);
}

/// Publishes a quarantined stream's verdict and parks its bytes under
/// `quarantine/` for offline replay, journaling so recovery can finish
/// (or byte-identically repeat) any step a crash interrupts:
/// `Quarantined` record → verdict → move `work/`→`quarantine/` →
/// `Published` record → rm WAL.
fn publish_quarantined(ctx: &FeederCtx, p: &Pending, rep: &crate::service::StreamReport) {
    let fs = ctx.spool.fs();
    let rec = WalRecord::Quarantined { deaths: u64::from(rep.respawns) };
    if p.wal.append(&rec).is_err() {
        if !fs.tripped() {
            eprintln!("rma-served: {}/{}: wal quarantine record failed", p.tenant, p.name);
        }
        return; // WAL + work stay; recovery re-runs the stream
    }
    let body = verdict_body(rep);
    let file = Spool::stream_file(&p.tenant, &p.name, "verdict");
    let published =
        ctx.spool.publish_idempotent(&ctx.spool.outbox, &file, body.as_bytes(), ctx.durability);
    if let Err(e) = published {
        ctx.publish_failures.fetch_add(1, Ordering::SeqCst);
        if !fs.tripped() {
            eprintln!(
                "rma-served: {}/{}: quarantine verdict publish failed: {e} (recoverable)",
                p.tenant, p.name
            );
        }
        return;
    }
    let parked = fs.rename(
        &ctx.spool.work_path(&p.tenant, &p.name),
        &ctx.spool.quarantine_path(&p.tenant, &p.name),
    );
    if let Err(e) = parked {
        if !fs.tripped() {
            eprintln!("rma-served: {}/{}: quarantine park failed: {e}", p.tenant, p.name);
        }
        return; // recovery sees the Quarantined record and finishes the move
    }
    let rec = WalRecord::Published {
        verdict_len: body.len() as u64,
        verdict_fnv: fnv1a(body.as_bytes()),
    };
    if p.wal.append(&rec).is_err() && !fs.tripped() {
        eprintln!("rma-served: {}/{}: wal publish record failed", p.tenant, p.name);
    }
    if let Err(e) = fs.remove_file(p.wal.path()) {
        if !fs.tripped() {
            eprintln!("rma-served: {}: cleanup failed: {e}", p.wal.path().display());
        }
    }
}

/// Publishes a verdict body and, if `complete`, clears the stream's
/// WAL + work bytes. Incomplete (error) verdicts keep their spool state
/// so the next incarnation recomputes a real verdict from the bytes.
fn publish_verdict(ctx: &FeederCtx, p: &Pending, body: &[u8], complete: bool) {
    let fs = ctx.spool.fs();
    let file = Spool::stream_file(&p.tenant, &p.name, "verdict");
    match ctx.spool.publish_idempotent(&ctx.spool.outbox, &file, body, ctx.durability) {
        Ok(_) if complete => {
            let rec = WalRecord::Published {
                verdict_len: body.len() as u64,
                verdict_fnv: fnv1a(body),
            };
            if p.wal.append(&rec).is_err() {
                if fs.tripped() {
                    return; // simulated crash: cleanup never happens
                }
                eprintln!("rma-served: {}/{}: wal publish record failed", p.tenant, p.name);
            }
            for path in [ctx.spool.work_path(&p.tenant, &p.name), p.wal.path().to_path_buf()] {
                if let Err(e) = fs.remove_file(&path) {
                    if !fs.tripped() {
                        eprintln!("rma-served: {}: cleanup failed: {e}", path.display());
                    }
                    return; // leave the rest; recovery sweeps it
                }
            }
        }
        Ok(_) => {}
        Err(e) => {
            // Satellite invariant: a lost verdict write is never
            // silent. Count it, log it, and leave WAL + work bytes in
            // place so the next start recovers the verdict.
            ctx.publish_failures.fetch_add(1, Ordering::SeqCst);
            if !fs.tripped() {
                eprintln!(
                    "rma-served: {}/{}: verdict publish failed: {e} (recoverable on restart)",
                    p.tenant, p.name
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_substrate::fs::Fs;

    /// Clients never stage in `tmp/`, which a restarting daemon's
    /// recovery empties: a stream drop and a shutdown request both
    /// succeed with `tmp/` gone, and the daemon then drains.
    #[test]
    fn client_drops_never_touch_tmp() {
        let dir =
            std::env::temp_dir().join(format!("rma-daemon-test-{}-no-tmp", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = Spool::create(&dir, Fs::real()).unwrap();
        std::fs::remove_dir(&first.tmp).unwrap();
        let client = Spool::attach(&dir).unwrap();
        let bytes = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/corpus/lo2_put_put_inwindow_target_race.rmatrc"
        ))
        .unwrap();
        client.drop_stream("alpha", "put-race", &bytes).unwrap();
        client.request_shutdown().unwrap();
        assert!(!first.tmp.exists(), "a client recreated tmp/");

        // The daemon's own open restores its staging directory.
        let spool = Spool::create(&dir, Fs::real()).unwrap();
        let cfg = DaemonCfg { poll: Duration::from_millis(1), ..Default::default() };
        match run_daemon(&spool, &cfg).unwrap() {
            DaemonExit::Drained { outcome: DrainOutcome::Drained { streams: 1 }, .. } => {}
            other => panic!("daemon did not drain the dropped stream: {other:?}"),
        }
        let verdict = std::fs::read_to_string(spool.verdict_path("alpha", "put-race")).unwrap();
        assert!(verdict.contains("\ntier: racy\n"), "{verdict}");
        assert!(!spool.inbox.join(SHUTDOWN_SENTINEL).exists(), "sentinel not consumed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
