//! # rma-substrate — in-tree substitutes for external crates
//!
//! The build environment for this workspace has no registry access, so
//! the workspace is *hermetic*: nothing outside the standard library is
//! linked. This crate provides the pieces of infrastructure the
//! rest of the workspace needs and previously pulled from crates.io:
//!
//! * [`rng`] — a seeded [SplitMix64](rng::SmallRng) PRNG with
//!   `gen_range` and Fisher–Yates [`shuffle`](rng::SliceRandom::shuffle)
//!   (replaces `rand::SmallRng`); streams are stable across platforms
//!   and releases, which the simulator's deferred-completion shuffle
//!   relies on for reproducible executions.
//! * [`sync`] — `Mutex`/`Condvar`/`RwLock` shims over `std::sync` with
//!   the `parking_lot` API shape (no `Result` on `lock()`, poison
//!   unwrapping, `Condvar::wait_for(&mut guard, timeout)`).
//! * [`channel`] — unbounded *and* bounded MPMC channels with clonable
//!   senders and receivers and disconnect semantics (replaces
//!   `crossbeam::channel::{unbounded, bounded}`); the bounded flavour
//!   blocks full sends for credit-based backpressure and exposes
//!   queue-depth / blocked-producer accounting.
//! * [`prop`] — a seeded property-test harness (fixed case count,
//!   failing-seed reporting, halving shrink for integer/vec inputs)
//!   replacing `proptest`.
//! * [`fs`] — a fault-injectable filesystem shim (torn/short writes,
//!   `ENOSPC`, failed renames, keyed to a seed like the simulator's
//!   fault plans) for crash-restart durability testing.
//! * [`clock`] — an injectable monotonic clock (real or test-driven
//!   virtual milliseconds) so deadline and timeout logic is
//!   deterministic under test.
//! * [`json`] — the workspace's one JSON writer, reader and flat-schema
//!   check, behind every machine-readable artifact.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod channel;
pub mod clock;
pub mod fs;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sync;
