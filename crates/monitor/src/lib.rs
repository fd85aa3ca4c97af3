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
//! See [`RmaAnalyzer`] for the runtime protocol (notification messages,
//! epoch-end reduction, flush+barrier clearing).

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod analyzer;
mod reduce;

pub use analyzer::{Algorithm, AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
