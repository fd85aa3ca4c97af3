//! # rma-core — data-race detection algorithms for MPI-RMA programs
//!
//! This crate implements the core contribution of *"Rethinking Data Race
//! Detection in MPI-RMA Programs"* (Vinayagame et al., Correctness'23 @ SC
//! 2023): per-process interval stores that record every memory access made
//! within an MPI-RMA *epoch* and detect conflicting accesses on the fly.
//!
//! Two complete detector implementations are provided:
//!
//! * [`LegacyStore`] — a faithful model of the original RMA-Analyzer
//!   insertion: accesses are kept in a binary search tree keyed by the
//!   lower bound of their address interval, the conflict check walks only
//!   the root-to-leaf insertion path, and stored intervals are neither made
//!   disjoint nor merged. This reproduces the paper's false negatives
//!   (Figure 5a) and false positives (order-insensitive matrix), and its
//!   linear node growth (Code 2).
//! * [`FragMergeStore`] — the paper's new insertion algorithm
//!   (Algorithm 1): an interval-aware race check, a *fragmentation* pass
//!   that keeps stored intervals disjoint (access-type precedence of
//!   Table 1), and a *merging* pass that collapses adjacent fragments with
//!   identical access type and debug information.
//!
//! A deliberately simple [`NaiveStore`] (a flat vector with an `O(n)`
//! conflict scan) serves as a semantic reference for tests.
//!
//! [`BlockedStore`] is the production engine (the one the analyzer and
//! the service build): the same algorithm as [`FragMergeStore`] over a
//! cache-friendly layout, the disjoint intervals in bounded sorted leaves
//! behind a last-`hi` index, so no insert moves more than one leaf. A
//! store of a few nodes is one lazily grown leaf. [`FragMergeStore`]
//! stays the paper-faithful reference the engine is differentially
//! verified against: both give byte-identical snapshots and statistics.
//!
//! The crate is self-contained: it knows nothing about how accesses are
//! produced. The companion crates `rma-sim` (an MPI-RMA runtime simulator)
//! and `rma-monitor` (the PMPI-style instrumentation runtime) feed it.
//!
//! ## Quick example
//!
//! ```
//! use rma_core::{AccessKind, FragMergeStore, Interval, MemAccess, RankId, SrcLoc, AccessStore};
//!
//! let mut store = FragMergeStore::new();
//! let origin = RankId(0);
//! // The origin loads buf[4], then issues MPI_Put(buf[2..=12]) — safe:
//! store.record(MemAccess::new(Interval::new(4, 4), AccessKind::LocalRead, origin, SrcLoc::here())).unwrap();
//! store.record(MemAccess::new(Interval::new(2, 12), AccessKind::RmaRead, origin, SrcLoc::here())).unwrap();
//! // ... then stores to buf[7] while the Put may still be reading it: race.
//! let err = store
//!     .record(MemAccess::new(Interval::new(7, 7), AccessKind::LocalWrite, origin, SrcLoc::here()))
//!     .unwrap_err();
//! assert_eq!(err.existing.kind, AccessKind::RmaRead);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod access;
pub mod avl;
pub mod blocked;
pub mod conflict;
pub mod fragmerge;
pub mod gauge;
pub mod interval;
pub mod legacy;
pub mod naive;
pub mod report;
pub mod store;
pub mod stride;

pub use access::{AccessKind, MemAccess, RankId, SrcLoc};
pub use blocked::BlockedStore;
pub use conflict::{combine, conflicts, legacy_conflicts, precedence};
pub use fragmerge::FragMergeStore;
pub use gauge::{MemGauge, MeteredStore, StoreRebuild};
pub use interval::{Addr, Interval};
pub use legacy::LegacyStore;
pub use naive::{NaiveStore, ShadowRef};
pub use report::RaceReport;
pub use store::{AccessStore, StoreStats};
pub use stride::{StrideMergeStore, StridedRun};
