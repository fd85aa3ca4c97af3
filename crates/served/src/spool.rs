//! The daemon's on-disk spool: layout, atomic publishes, verdict
//! rendering.
//!
//! ```text
//! DIR/inbox/TENANT__NAME.rmatrc   client → daemon (staged as
//!                                 `.TENANT__NAME.rmatrc.part`, then
//!                                 renamed in place)
//! DIR/inbox/__shutdown__          client → daemon: drain and exit
//! DIR/work/TENANT__NAME.rmatrc    admitted stream bytes (ground truth
//!                                 for crash recovery)
//! DIR/wal/TENANT__NAME.wal        per-stream progress WAL
//! DIR/outbox/TENANT__NAME.verdict daemon → client
//! DIR/tmp/                        staging for the daemon's atomic
//!                                 publishes (the daemon's alone)
//! DIR/quarantine/TENANT__NAME.rmatrc
//!                                 bytes of poison streams, parked for
//!                                 offline replay (never re-analyzed)
//! ```
//!
//! Every daemon publish is write-to-`tmp/`-then-rename and every client
//! drop is write-then-rename inside `inbox/`, so no reader (daemon or
//! client) ever observes a partial file. Clients never touch `tmp/`:
//! a restarting daemon's recovery empties it. Every
//! file operation goes through the fault-injectable
//! [`rma_substrate::fs::Fs`] handle so crash-restart tests can kill the
//! daemon at any write boundary. Publishes read the staged bytes back
//! before the rename — a silently short write (storage that lied about
//! a `write(2)`) is caught *before* the file becomes visible, turning
//! the one undetectable fault kind into an ordinary failed publish that
//! startup recovery will retry.

use crate::service::StreamReport;
use crate::wal::Durability;
use rma_substrate::fs::Fs;
use std::io;
use std::path::{Path, PathBuf};

/// The file in `inbox/` that asks the daemon to drain and exit.
pub const SHUTDOWN_SENTINEL: &str = "__shutdown__";

/// What [`Spool::publish_idempotent`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// The destination was written (fresh or replacing stale bytes).
    Written,
    /// The destination already held exactly these bytes — no write at
    /// all, the idempotent re-publish case.
    Identical,
}

/// Spool directory handles plus the filesystem they act through.
/// Cloning shares the [`Fs`] handle (and so its fault plan).
#[derive(Clone)]
pub struct Spool {
    /// Spool root (`stats.json`, `served.exit` live here).
    pub root: PathBuf,
    /// Client-visible submission directory.
    pub inbox: PathBuf,
    /// Verdict directory.
    pub outbox: PathBuf,
    /// Staging directory for atomic publishes.
    pub tmp: PathBuf,
    /// Per-stream progress WALs.
    pub wal: PathBuf,
    /// Admitted stream bytes, held until the verdict is published.
    pub work: PathBuf,
    /// Bytes of quarantined (poison) streams, retained for offline
    /// replay instead of being deleted with the WAL.
    pub quarantine: PathBuf,
    fs: Fs,
}

impl Spool {
    fn layout(dir: &Path, fs: Fs) -> Spool {
        Spool {
            inbox: dir.join("inbox"),
            outbox: dir.join("outbox"),
            tmp: dir.join("tmp"),
            wal: dir.join("wal"),
            work: dir.join("work"),
            quarantine: dir.join("quarantine"),
            root: dir.to_path_buf(),
            fs,
        }
    }

    /// Daemon-side open: creates the full layout under `dir`. All
    /// subsequent I/O (including fault injection) goes through `fs`.
    pub fn create(dir: &Path, fs: Fs) -> Result<Spool, String> {
        let s = Spool::layout(dir, fs);
        for d in [&s.inbox, &s.outbox, &s.tmp, &s.wal, &s.work, &s.quarantine] {
            s.fs.create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        Ok(s)
    }

    /// Client-side open: requires an existing spool (daemon running or
    /// at least initialized), never injects faults.
    pub fn attach(dir: &Path) -> Result<Spool, String> {
        let s = Spool::layout(dir, Fs::real());
        if !s.inbox.is_dir() {
            return Err(format!(
                "{}: not a spool directory (no inbox/ — is the daemon up?)",
                dir.display()
            ));
        }
        Ok(s)
    }

    /// The filesystem handle every spool operation goes through.
    pub fn fs(&self) -> &Fs {
        &self.fs
    }

    /// `TENANT__NAME.ext` for the stream's spool files.
    pub fn stream_file(tenant: &str, name: &str, ext: &str) -> String {
        format!("{tenant}__{name}.{ext}")
    }

    /// This stream's WAL path.
    pub fn wal_path(&self, tenant: &str, name: &str) -> PathBuf {
        self.wal.join(Spool::stream_file(tenant, name, "wal"))
    }

    /// This stream's admitted-bytes path.
    pub fn work_path(&self, tenant: &str, name: &str) -> PathBuf {
        self.work.join(Spool::stream_file(tenant, name, "rmatrc"))
    }

    /// This stream's verdict path.
    pub fn verdict_path(&self, tenant: &str, name: &str) -> PathBuf {
        self.outbox.join(Spool::stream_file(tenant, name, "verdict"))
    }

    /// Where this stream's bytes land if it is quarantined.
    pub fn quarantine_path(&self, tenant: &str, name: &str) -> PathBuf {
        self.quarantine.join(Spool::stream_file(tenant, name, "rmatrc"))
    }

    /// Atomic publish: stage in `tmp/`, read back and verify (catching
    /// silent short writes before visibility), fsync per `durability`,
    /// rename into place. Readers never observe a partial file.
    pub fn publish(
        &self,
        dir: &Path,
        name: &str,
        bytes: &[u8],
        durability: Durability,
    ) -> io::Result<()> {
        let tmp = self.tmp.join(name);
        self.fs.write(&tmp, bytes)?;
        let landed = self.fs.read(&tmp)?;
        if landed != bytes {
            return Err(io::Error::other(format!(
                "staged publish of {name} read back {} bytes, wrote {} (short write?)",
                landed.len(),
                bytes.len()
            )));
        }
        if durability.sync_publishes() {
            self.fs.sync_file(&tmp)?;
        }
        self.fs.rename(&tmp, &dir.join(name))?;
        if durability == Durability::Strict {
            // Make the rename itself durable: fsync the directory.
            self.fs.sync_file(dir)?;
        }
        Ok(())
    }

    /// [`Spool::publish`] that first checks the destination: if it
    /// already holds exactly `bytes`, nothing is written — re-publishing
    /// a recovered verdict is a byte-identical no-op, never a duplicate.
    pub fn publish_idempotent(
        &self,
        dir: &Path,
        name: &str,
        bytes: &[u8],
        durability: Durability,
    ) -> io::Result<PublishOutcome> {
        if let Ok(existing) = self.fs.read(&dir.join(name)) {
            if existing == bytes {
                return Ok(PublishOutcome::Identical);
            }
        }
        self.publish(dir, name, bytes, durability)?;
        Ok(PublishOutcome::Written)
    }

    /// Client-side stream drop: writes `bytes` into `inbox/` under a
    /// dotted `.part` name the daemon never claims, then renames it to
    /// the stream's file, so the daemon sees all of it or nothing.
    pub fn drop_stream(&self, tenant: &str, name: &str, bytes: &[u8]) -> io::Result<()> {
        let file = Spool::stream_file(tenant, name, "rmatrc");
        let part = self.inbox.join(format!(".{file}.part"));
        self.fs.write(&part, bytes)?;
        self.fs.rename(&part, &self.inbox.join(file))
    }

    /// Client-side shutdown request: creates the empty
    /// [`SHUTDOWN_SENTINEL`] directly in `inbox/`. Its presence is the
    /// whole message, so there is nothing to stage.
    pub fn request_shutdown(&self) -> io::Result<()> {
        self.fs.write(&self.inbox.join(SHUTDOWN_SENTINEL), b"")
    }

    /// Removes every file in `tmp/` — debris from publishes a crash
    /// interrupted between stage and rename. Returns how many.
    pub fn sweep_tmp(&self) -> io::Result<u64> {
        let mut swept = 0;
        for f in self.fs.list_files(&self.tmp)? {
            self.fs.remove_file(&f)?;
            swept += 1;
        }
        Ok(swept)
    }
}

/// `TENANT__NAME` → `(tenant, stream)`; no separator means the
/// `default` tenant.
pub fn parse_stream_stem(stem: &str) -> (String, String) {
    match stem.split_once("__") {
        Some((tenant, name)) if !tenant.is_empty() && !name.is_empty() => {
            (tenant.to_string(), name.to_string())
        }
        _ => ("default".to_string(), stem.to_string()),
    }
}

/// The verdict file body for a reported stream. One format, used by the
/// live daemon path and by startup recovery, so a recovered verdict is
/// byte-identical to the uninterrupted one.
pub fn verdict_body(rep: &StreamReport) -> String {
    format!(
        "stream: {}/{}\ntier: {}\n{}\ncompleteness: {}\nraces: {}\n\
         events: {}\nrespawns: {}\ndegraded: {}\n",
        rep.tenant,
        rep.stream,
        rep.tier.name(),
        rep.verdict,
        rep.completeness.label(),
        rep.races,
        rep.events,
        rep.respawns,
        rep.degraded,
    )
}

/// The verdict file body for a stream the service refused or lost
/// without a report (`error:` bodies fail `submit --wait`).
pub fn error_body(tenant: &str, name: &str, why: &str) -> String {
    format!("stream: {tenant}/{name}\nerror: {why}\n")
}

/// The verdict file body for a load-shed submission: the daemon never
/// admitted the stream (tenant quota), and the client should resubmit
/// after the machine-readable `retry-after-ms` hint. `shed:` bodies
/// fail `submit --wait` like `error:` bodies do, but carry the hint so
/// callers can back off instead of giving up.
pub fn shed_body(tenant: &str, name: &str, why: &str, retry_after_ms: u64) -> String {
    format!("stream: {tenant}/{name}\nshed: {why}\nretry-after-ms: {retry_after_ms}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rma_substrate::fs::{FsFault, FsPlan};

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rma-spool-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn parse_stream_stems() {
        assert_eq!(parse_stream_stem("acme__run1"), ("acme".into(), "run1".into()));
        assert_eq!(parse_stream_stem("solo"), ("default".into(), "solo".into()));
        assert_eq!(parse_stream_stem("__odd"), ("default".into(), "__odd".into()));
    }

    #[test]
    fn shed_body_carries_the_retry_hint() {
        let body = shed_body("acme", "run1", "tenant quota reached", 400);
        assert!(body.starts_with("stream: acme/run1\n"));
        assert!(body.contains("\nshed: tenant quota reached\n"));
        assert!(body.ends_with("retry-after-ms: 400\n"));
    }

    #[test]
    fn create_makes_the_quarantine_dir() {
        let d = tmpdir("qdir");
        let s = Spool::create(&d, Fs::real()).unwrap();
        assert!(s.quarantine.is_dir());
        assert_eq!(
            s.quarantine_path("t", "s"),
            s.quarantine.join("t__s.rmatrc")
        );
    }

    #[test]
    fn publish_is_idempotent_and_atomic() {
        let d = tmpdir("idem");
        let s = Spool::create(&d, Fs::real()).unwrap();
        let out = s.publish_idempotent(&s.outbox, "a.verdict", b"body\n", Durability::Batch);
        assert_eq!(out.unwrap(), PublishOutcome::Written);
        // Same bytes again: no write at all.
        let ops_before = s.fs().mutating_ops();
        let out = s.publish_idempotent(&s.outbox, "a.verdict", b"body\n", Durability::Batch);
        assert_eq!(out.unwrap(), PublishOutcome::Identical);
        assert_eq!(s.fs().mutating_ops(), ops_before, "idempotent re-publish must not write");
        // Different bytes: replaced.
        let out = s.publish_idempotent(&s.outbox, "a.verdict", b"other\n", Durability::Batch);
        assert_eq!(out.unwrap(), PublishOutcome::Written);
        assert_eq!(std::fs::read(s.outbox.join("a.verdict")).unwrap(), b"other\n");
        assert!(s.fs().list_files(&s.tmp).unwrap().is_empty(), "no staging debris");
    }

    #[test]
    fn silent_short_write_is_caught_before_visibility() {
        let d = tmpdir("short");
        // Op 1..5 are dir creates? create_dir_all is not counted; the
        // staged write is the first mutating op.
        let s = Spool::create(&d, Fs::faulty(FsPlan::new(FsFault::ShortWrite, 1))).unwrap();
        let err = s.publish(&s.outbox, "a.verdict", b"full body\n", Durability::None).unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
        assert!(s.fs().tripped());
        assert!(!s.outbox.join("a.verdict").exists(), "nothing became visible");
        // The damaged staging file is debris; a sweep clears it.
        assert_eq!(s.sweep_tmp().unwrap(), 1);
    }

    #[test]
    fn failed_rename_leaves_no_destination() {
        let d = tmpdir("rename");
        let s = Spool::create(&d, Fs::faulty(FsPlan::new(FsFault::RenameFail, 2))).unwrap();
        assert!(s.publish(&s.outbox, "a.verdict", b"x\n", Durability::None).is_err());
        assert!(!s.outbox.join("a.verdict").exists());
        assert_eq!(s.sweep_tmp().unwrap(), 1, "staged file remains as debris");
    }
}
