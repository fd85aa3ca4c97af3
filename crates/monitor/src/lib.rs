//! # rma-monitor — the RMA-Analyzer instrumentation runtime
//!
//! This crate plays the role of the PARCOACH/RMA-Analyzer runtime of the
//! paper: it subscribes to the instrumentation events of `rma-sim` (the
//! PMPI + LLVM instrumentation stand-in) and maintains one access store
//! per (rank, window), backed by any of the insertion algorithms of
//! `rma-core`:
//!
//! * [`Algorithm::Legacy`] — the original RMA-Analyzer,
//! * [`Algorithm::FragMerge`] — the paper's contribution,
//! * [`Algorithm::FragmentOnly`] and [`Algorithm::FullHistory`] —
//!   ablations.
//!
//! The epoch protocol (which accesses reach which store, and when a
//! store is cleared) is [`epoch`], shared with offline replay. See
//! [`RmaAnalyzer`] for the live runtime around it (notification
//! messages, epoch-end reduction, receiver recovery).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod analyzer;
pub mod epoch;
mod reduce;

pub use analyzer::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer, BATCH_LEN};
