//! Startup recovery: resolve whatever a crashed daemon incarnation
//! left in the spool before serving anything new.
//!
//! The invariant recovery restores is simple to state: **after
//! recovery, every stream that was ever admitted has exactly one
//! verdict file, byte-identical to what an uninterrupted daemon would
//! have published, and no spool debris remains.** It holds for a crash
//! at *any* write boundary because the serve protocol keeps one piece
//! of ground truth per stream — the admitted bytes in `work/` — until
//! after the verdict is out:
//!
//! ```text
//! WAL Admit → rename inbox→work → feed (WAL watermarks/epochs)
//!           → publish verdict → WAL Published → rm work → rm wal
//! ```
//!
//! Walking the crash points backwards: a leftover WAL *with* work bytes
//! means the verdict may or may not be out — recovery re-decodes the
//! work bytes through a fresh [`rma_trace::StreamDecoder`], recomputes
//! the verdict with the same classify path the live worker uses, and
//! publishes it *idempotently* (byte-identical re-publish is a no-op,
//! differing bytes are replaced, never duplicated). A WAL *without*
//! work bytes means either the verdict was fully published and only
//! cleanup was interrupted, or admission never got to the rename (the
//! inbox entry is still there and will simply be served); both are
//! stale-WAL cleanup. Orphan work bytes without a WAL (a faulted
//! cleanup) are recomputed the same way. `tmp/` is swept first — a
//! staged publish that never renamed is invisible debris by design.
//!
//! Every counter in [`RecoveryStats`] is a deterministic function of
//! the crash state (scans are sorted), so a seeded crash-restart sweep
//! can assert them byte-for-byte via `stats.json`.
//!
//! **Poison streams.** A WAL carrying a `Quarantined` record is never
//! re-analyzed — re-analysis is exactly what re-crashes on a poison
//! stream. Its verdict is a pure function of the record, so recovery
//! republishes it byte-identically, finishes parking the bytes under
//! `quarantine/`, and sweeps the WAL. Symmetrically, when
//! `quarantine_after` is enabled, recovery counts the WAL's `Admit`
//! records (one per incarnation that started the stream and died) and
//! appends a fresh one before re-analyzing; a stream that keeps taking
//! the daemon down crosses the threshold *at startup* and is
//! quarantined instead of analyzed — the restart loop converges.

use crate::service::{analyze_bytes, quarantined_report, ServeCfg};
use crate::spool::{parse_stream_stem, verdict_body, PublishOutcome, Spool};
use crate::wal::{read_wal, Durability, WalRecord, WalWriter};
use rma_substrate::json::{self, Value};
use rma_trace::trace::fnv1a;
use std::io;

/// Deterministic counters from one startup recovery pass, published in
/// `stats.json` under `"recovery"`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// In-flight streams resolved at startup (verdict recomputed from
    /// `work/` bytes, or verified already-published).
    pub recovered: u64,
    /// Verdict files recovery actually wrote (a crash after publish
    /// recovers as a byte-identical no-op and does not count here).
    pub republished: u64,
    /// Intact WAL records replayed across all scanned logs.
    pub wal_records: u64,
    /// WALs whose tail was torn, short-written or corrupt.
    pub torn_wals: u64,
    /// Stale WALs swept (stream fully published, or admission never
    /// claimed the inbox entry).
    pub stale_wals: u64,
    /// Orphan `work/` files without a WAL, recomputed anyway.
    pub orphan_work: u64,
    /// Staged-publish debris swept from `tmp/`.
    pub tmp_swept: u64,
    /// Verdict publishes that failed and were surfaced (serve-time
    /// counter; recovery retries these on the next start).
    pub publish_failures: u64,
    /// Streams resolved as poison at startup: a `Quarantined` WAL
    /// record was honored, or the restart-attempt count crossed
    /// `quarantine_after`. Their bytes sit in `quarantine/`, never
    /// re-analyzed.
    pub quarantined: u64,
}

impl RecoveryStats {
    /// The `stats.json` fragment — counts only, keys in struct order.
    pub fn to_json(&self) -> String {
        self.to_value().to_line()
    }

    pub(crate) fn to_value(&self) -> Value {
        json::obj([
            ("recovered", self.recovered.into()),
            ("republished", self.republished.into()),
            ("wal_records", self.wal_records.into()),
            ("torn_wals", self.torn_wals.into()),
            ("stale_wals", self.stale_wals.into()),
            ("orphan_work", self.orphan_work.into()),
            ("tmp_swept", self.tmp_swept.into()),
            ("publish_failures", self.publish_failures.into()),
            ("quarantined", self.quarantined.into()),
        ])
    }
}

/// Publishes the (purely record-derived) quarantined verdict, parks the
/// stream's bytes under `quarantine/`, and sweeps its WAL — without
/// ever decoding the bytes.
fn resolve_quarantined(
    spool: &Spool,
    durability: Durability,
    tenant: &str,
    name: &str,
    deaths: u64,
    stats: &mut RecoveryStats,
) -> io::Result<()> {
    let report = quarantined_report(tenant, name, deaths.min(u64::from(u32::MAX)) as u32);
    let body = verdict_body(&report);
    let file = Spool::stream_file(tenant, name, "verdict");
    match spool.publish_idempotent(&spool.outbox, &file, body.as_bytes(), durability)? {
        PublishOutcome::Written => stats.republished += 1,
        PublishOutcome::Identical => {}
    }
    let work = spool.work_path(tenant, name);
    if work.exists() {
        spool.fs().rename(&work, &spool.quarantine_path(tenant, name))?;
    }
    let wal = spool.wal_path(tenant, name);
    if wal.exists() {
        spool.fs().remove_file(&wal)?;
    }
    stats.recovered += 1;
    stats.quarantined += 1;
    Ok(())
}

/// Recomputes and idempotently publishes the verdict for `work` bytes,
/// then clears the stream's spool state. The shared resolution step for
/// WAL-with-work and orphan-work streams.
fn resolve_from_work(
    spool: &Spool,
    cfg: &ServeCfg,
    durability: Durability,
    tenant: &str,
    name: &str,
    bytes: &[u8],
    stats: &mut RecoveryStats,
) -> io::Result<()> {
    let report = analyze_bytes(cfg, tenant, name, bytes);
    let body = verdict_body(&report);
    let file = Spool::stream_file(tenant, name, "verdict");
    match spool.publish_idempotent(&spool.outbox, &file, body.as_bytes(), durability)? {
        PublishOutcome::Written => stats.republished += 1,
        PublishOutcome::Identical => {}
    }
    stats.recovered += 1;
    spool.fs().remove_file(&spool.work_path(tenant, name))?;
    let wal = spool.wal_path(tenant, name);
    if wal.exists() {
        spool.fs().remove_file(&wal)?;
    }
    Ok(())
}

/// Scans the spool for crash leftovers and resolves them (see module
/// docs). Errors are only propagated when the filesystem actually
/// refused an operation — on the fault-injected path that means the
/// simulated process died *during recovery*, and the next recovery
/// pass picks up from the new crash state.
pub fn recover(spool: &Spool, cfg: &ServeCfg, durability: Durability) -> io::Result<RecoveryStats> {
    let mut stats = RecoveryStats { tmp_swept: spool.sweep_tmp()?, ..Default::default() };

    // Pass 1: every WAL, sorted.
    for wal_path in spool.fs().list_files(&spool.wal)? {
        if wal_path.extension().is_none_or(|x| x != "wal") {
            continue;
        }
        let stem = wal_path.file_stem().and_then(|s| s.to_str()).unwrap_or("").to_string();
        let (tenant, name) = parse_stream_stem(&stem);
        let scan = read_wal(spool.fs(), &wal_path);
        stats.wal_records += scan.records.len() as u64;
        stats.torn_wals += u64::from(scan.torn);

        // Poison stream: the quarantine verdict is a pure function of
        // the record, the bytes are parked, never re-analyzed. Checked
        // before anything that would decode them.
        if let Some(deaths) = scan.quarantined() {
            resolve_quarantined(spool, durability, &tenant, &name, deaths, &mut stats)?;
            continue;
        }

        let work = spool.work_path(&tenant, &name);
        let Ok(bytes) = spool.fs().read(&work) else {
            // No admitted bytes: fully published (cleanup interrupted)
            // or the inbox entry was never claimed — either way the WAL
            // is stale.
            stats.stale_wals += 1;
            spool.fs().remove_file(&wal_path)?;
            continue;
        };

        // Fast path: the WAL says the verdict was published — verify
        // the outbox really holds those bytes and skip re-analysis.
        if let Some((vlen, vfnv)) = scan.published() {
            if let Ok(v) = spool.fs().read(&spool.verdict_path(&tenant, &name)) {
                if v.len() as u64 == vlen && fnv1a(&v) == vfnv {
                    stats.recovered += 1;
                    spool.fs().remove_file(&work)?;
                    spool.fs().remove_file(&wal_path)?;
                    continue;
                }
            }
        }

        // Restart-attempt accounting, only when quarantine is enabled
        // (the append changes the mutating-op sequence, and the fault
        // sweeps pin that). Every `Admit` in the log is an incarnation
        // that started this stream and died with it unresolved; at the
        // threshold the stream is declared poison *instead of* being
        // re-analyzed, so a crash loop converges at startup.
        let threshold = u64::from(cfg.quarantine_after);
        if threshold > 0 {
            let attempts = scan.admits();
            if attempts >= threshold {
                resolve_quarantined(spool, durability, &tenant, &name, attempts, &mut stats)?;
                continue;
            }
            let w = WalWriter::reopen(spool.fs().clone(), wal_path.clone(), durability, &scan)?;
            w.append(&WalRecord::Admit {
                bytes_len: bytes.len() as u64,
                bytes_fnv: fnv1a(&bytes),
            })?;
        }
        resolve_from_work(spool, cfg, durability, &tenant, &name, &bytes, &mut stats)?;
    }

    // Pass 2: orphan work bytes (their WAL removal raced the crash).
    for work in spool.fs().list_files(&spool.work)? {
        if work.extension().is_none_or(|x| x != "rmatrc") {
            continue;
        }
        let stem = work.file_stem().and_then(|s| s.to_str()).unwrap_or("").to_string();
        let (tenant, name) = parse_stream_stem(&stem);
        let Ok(bytes) = spool.fs().read(&work) else { continue };
        stats.orphan_work += 1;
        resolve_from_work(spool, cfg, durability, &tenant, &name, &bytes, &mut stats)?;
    }

    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_json_matches_declared_keys() {
        // The struct's declared fields, in order, are the JSON's keys.
        let stats = RecoveryStats { recovered: 3, tmp_swept: 1, ..Default::default() };
        let debug = format!("{stats:?}");
        let declared: Vec<String> = debug
            .split(['{', ','])
            .skip(1)
            .map(|field| field.split(':').next().unwrap().trim().to_string())
            .collect();
        let json = stats.to_json();
        assert_eq!(rma_substrate::json::parse(&json).unwrap().key_paths(), declared);
        assert!(json.contains("\"recovered\":3") && json.contains("\"tmp_swept\":1"));
    }

    #[test]
    fn golden_recovery_json() {
        let stats = RecoveryStats {
            recovered: 1,
            republished: 2,
            wal_records: 30,
            torn_wals: 4,
            stale_wals: 5,
            orphan_work: 6,
            tmp_swept: 7,
            publish_failures: 8,
            quarantined: 9,
        };
        assert_eq!(
            stats.to_json(),
            concat!(
                r#"{"recovered":1,"republished":2,"wal_records":30,"torn_wals":4,"stale_wals":5,"#,
                r#""orphan_work":6,"tmp_swept":7,"publish_failures":8,"quarantined":9}"#,
            )
        );
        assert_eq!(
            RecoveryStats::default().to_json(),
            concat!(
                r#"{"recovered":0,"republished":0,"wal_records":0,"torn_wals":0,"stale_wals":0,"#,
                r#""orphan_work":0,"tmp_swept":0,"publish_failures":0,"quarantined":0}"#,
            )
        );
    }
}
