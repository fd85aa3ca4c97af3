//! # rma-trace — binary trace capture and offline replay for MPI-RMA
//! event streams
//!
//! Every detector in this workspace normally runs *online*, inside the
//! simulated ranks. This crate decouples instrumentation from analysis
//! the way the real MUST infrastructure does: a [`TraceWriter`] monitor
//! records any live run (apps, suite cases, property tests) into a
//! compact binary [`Trace`], and the [`replay`] engine feeds a recorded
//! trace back through any [`rma_core::AccessStore`] implementation — or
//! the MUST-like vector-clock tool — entirely offline, preserving the
//! epoch-clear and notification-ordering semantics of `rma-monitor`.
//!
//! Round-trip fidelity is the contract: replaying a recorded run yields
//! the same canonical race verdict (kind pair, intervals, source
//! locations) as the live run that produced it; the workspace's
//! differential tests prove this for every microbenchmark-suite case
//! across all detectors.
//!
//! The format itself (varint/delta records, per-rank streams, epoch
//! index for seeking, checksummed trailer) is documented in
//! [`format`] and [`trace`], and in DESIGN.md. Every reader shares the
//! per-record decoder [`format::decode_event`]. Whole-file reads
//! ([`Trace::decode`], [`Trace::decode_from_epoch`]) walk the footer's
//! stream index; `Finish`-delimited streams without a trailer are read
//! by the chunk-fed [`StreamDecoder`] alone, and [`salvage`] ends in the
//! same [`StreamEnd`] it does. The `rma-trace` CLI (`record` / `replay`
//! / `stat` / `diff` / `bench`) lives in this crate's `bin` target.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod format;
pub mod gentest;
pub mod minimize;
pub mod replay;
pub mod salvage;
pub mod stream;
pub mod trace;
pub mod varint;
pub mod writer;

pub use format::{intern_static, DeltaState, ResolvedStrings, StringTable, TraceEvent};
pub use gentest::{generate_test, sanitize_test_name};
pub use minimize::{is_one_minimal, minimize, MinimizeReport};
pub use replay::{
    canonical_verdict, replay, replay_trace, verdict_line, Detector, MustTarget, ReplayOutcome,
    ReplayTarget, Replayer, StoreTarget,
};
pub use salvage::salvage;
pub use stream::{StreamDecoder, StreamEnd};
pub use trace::{EpochMark, Trace, TraceHeader, FORMAT_VERSION, MAGIC, TAIL_MAGIC};
pub use writer::TraceWriter;

/// Errors raised while decoding a trace file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceError {
    /// The file ends before the structure it promises (or its trailer is
    /// missing — the signature of a torn write).
    Truncated,
    /// The file does not start with the trace magic.
    BadMagic,
    /// The trailer checksum does not match the contents.
    BadChecksum,
    /// The record-format version is newer than this reader.
    BadVersion(u64),
    /// A structurally invalid record or index.
    Corrupt(&'static str),
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Truncated => f.write_str("trace truncated"),
            TraceError::BadMagic => f.write_str("not a trace file (bad magic)"),
            TraceError::BadChecksum => f.write_str("trace checksum mismatch"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace format version {v}"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {}
