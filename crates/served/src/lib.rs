//! # rma-served — streaming multi-tenant detection service
//!
//! The detectors in this workspace are batch-shaped: one program, one
//! trace, one verdict. This crate turns them into a *serving system* —
//! a long-running daemon that ingests many concurrent binary trace
//! streams (the `rma-trace` wire format, decoded incrementally via
//! [`rma_trace::StreamDecoder`] rather than whole-file), routes each
//! stream through a supervised detector worker, and reports per-stream
//! verdicts plus aggregate telemetry.
//!
//! The moving parts, bottom up:
//!
//! * **Credit-based backpressure** — every stream gets a *bounded*
//!   substrate channel ([`rma_substrate::channel::bounded`]) of byte
//!   chunks. A producer that outruns its worker parks on the full
//!   queue (the block *is* the credit mechanism), so per-stream ingest
//!   memory is capped at `queue_bound × chunk size` no matter how fast
//!   the client pushes. Blocked-producer counts and peak queue depth
//!   are kept for telemetry.
//! * **Fair scheduling** — submitted streams queue per tenant; the
//!   shared worker pool round-robins across tenants, so one tenant
//!   with a thousand pending streams cannot starve another with one.
//! * **Supervised recovery per stream** — every consumed chunk is
//!   journaled until the stream's verdict is out. A worker death
//!   (injected deterministically via [`rma_sim::FaultKind::KillWorker`]
//!   chaos) is absorbed by redelivering the journal to a fresh decode
//!   attempt — at-least-once delivery, exactly-once analysis effect —
//!   bounded by a respawn budget. Within budget the verdict is
//!   *crash-equivalent* (byte-identical to the fault-free run); beyond
//!   it the stream fail-stops with a structured [`Tier::Lost`] verdict
//!   and [`rma_must::Completeness::Partial`], degrading that stream
//!   only — every other stream and tenant is untouched.
//! * **Structured shutdown** — [`Service::drain`] waits for in-flight
//!   streams with a *progress* watchdog (the same rule as the
//!   simulator's deadlock watchdog): a genuinely wedged pool becomes a
//!   structured [`DrainOutcome::Wedged`] listing the stuck streams,
//!   never a hang. [`Service::shutdown`] then tears down queues (waking
//!   any parked producer with an error) and joins the workers.
//! * **Deterministic telemetry** — [`ServedStats::to_json`] emits a
//!   single-line JSON object with counts only (streams, events, races,
//!   respawns, degraded stores, verdict tiers, per-tenant breakdown in
//!   sorted order): byte-stable across identical runs, the same
//!   discipline as `rma-chaos --json`. Wall-clock rates and queue
//!   occupancy live in [`ServedStats::render`] (human output) only.
//! * **Crash-restart durability** — the daemon journals every admitted
//!   stream to a per-stream on-disk WAL ([`wal`], reusing the trace
//!   codec's varint/FNV framing) with `--durability {none,batch,strict}`
//!   fsync discipline, keeps the stream's bytes in `work/` until its
//!   verdict is out, and on startup [`recovery`] replays the WALs,
//!   re-decodes unacknowledged bytes and re-publishes verdicts
//!   *idempotently* — a crash at any write boundary (exercised by the
//!   seeded fault plans of [`rma_substrate::fs`]) recovers to verdicts
//!   byte-identical to an uninterrupted run, with zero duplicates and
//!   zero losses.
//!
//! * **Overload resilience** — four independent pressure valves, each
//!   structured and each surfaced in the stats artifact: a global
//!   memory-pressure accountant ([`rma_core::MemGauge`] via
//!   `--memory-budget`) that tightens node budgets on admission and
//!   retroactively coalesces the heaviest live stores (*FP-only* — a
//!   brownout can add false positives, never lose a true race, and
//!   marks its verdicts `degraded`); per-stream progress deadlines
//!   (`--stream-deadline`, on an injectable [`rma_substrate::clock`])
//!   that evict zero-progress streams with [`Tier::Timeout`];
//!   poison-stream quarantine (`--quarantine-after`) that parks a
//!   stream whose worker keeps dying across respawns *or restarts*
//!   (persisted via a WAL `Quarantined` record) under
//!   `spool/quarantine/` with [`Tier::Quarantined`], bytes retained
//!   for offline replay; and per-tenant admission quotas
//!   (`--max-streams-per-tenant`) whose load-shed verdicts carry a
//!   machine-readable `retry-after-ms` hint.
//!
//! Verdict tiers follow the True-Positives-Theorem framing: a verdict
//! on a *complete* stream ([`Tier::Clean`] / [`Tier::Racy`]) is exact
//! for that execution, while [`Tier::Truncated`] marks a verdict that
//! only covers the salvaged epoch-aligned prefix (needs review) and
//! [`Tier::Lost`] / [`Tier::Malformed`] carry no verdict at all.
//! [`Tier::Timeout`] and [`Tier::Quarantined`] mark overload/poison
//! evictions: no verdict, but a structured, machine-readable reason.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod daemon;
pub mod recovery;
pub mod service;
pub mod spool;
pub mod stats;
pub mod wal;

pub use daemon::{run_daemon, DaemonCfg, DaemonExit};
pub use recovery::{recover, RecoveryStats};
pub use service::{
    resolve_rcfg, ChaosCfg, DrainOutcome, ServeCfg, ServeError, Service, StreamHandle,
    StreamReport, Tier,
};
pub use spool::{parse_stream_stem, shed_body, verdict_body, PublishOutcome, Spool};
pub use stats::{check_stats_json, render_stats_json, ServedStats, TenantStats};
pub use wal::{read_wal, Durability, WalRecord, WalScan, WalWriter};
