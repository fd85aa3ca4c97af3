//! Round-trip fidelity, the subsystem's contract: for **every** case of
//! the microbenchmark suite, a recorded trace replayed offline reports
//! exactly the same canonical race verdict (kind pair, intervals, source
//! locations) as the live run — for all three detectors of the paper.
//!
//! The trace additionally makes a full container round-trip (encode →
//! decode) before being replayed, so the binary format is part of the
//! proven path, not just the in-memory event stream.

use rma_monitor::{AnalyzerCfg, OnRace, RmaAnalyzer};
use rma_must::MustRma;
use rma_sim::Monitor;
use rma_suite::{generate_suite, run_case_with_monitor, CaseSpec, SUITE_RANKS};
use rma_trace::{canonical_verdict, replay, Detector, Trace, TraceWriter};
use std::sync::Arc;

fn record(spec: &CaseSpec) -> Trace {
    let writer = Arc::new(TraceWriter::new(spec.name(), 0x5EED));
    let out = run_case_with_monitor(spec, writer.clone());
    assert!(out.is_clean(), "{}: recording run not clean: {:?}", spec.name(), out.panics);
    let trace = writer.trace();
    // Force the binary format into the loop.
    Trace::decode(&trace.encode()).expect("container round-trip")
}

fn live_races(spec: &CaseSpec, detector: Detector) -> Vec<rma_core::RaceReport> {
    match detector.algorithm() {
        Some(algorithm) => {
            let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
                algorithm,
                on_race: OnRace::Collect,
                ..AnalyzerCfg::default()
            }));
            let out = run_case_with_monitor(spec, analyzer.clone() as Arc<dyn Monitor>);
            assert!(out.is_clean(), "{}: live run not clean", spec.name());
            analyzer.races()
        }
        None => {
            let must = Arc::new(MustRma::for_world(SUITE_RANKS, rma_must::OnRace::Collect));
            let out = run_case_with_monitor(spec, must.clone() as Arc<dyn Monitor>);
            assert!(out.is_clean(), "{}: live run not clean", spec.name());
            must.races()
        }
    }
}

fn check_suite(detector: Detector) {
    let cases = generate_suite();
    let mut mismatches = Vec::new();
    for spec in &cases {
        let trace = record(spec);
        let live = canonical_verdict(&live_races(spec, detector));
        let offline = replay(&trace, detector);
        assert!(offline.complete, "{}: replay incomplete", spec.name());
        if live != offline.races {
            mismatches.push(format!(
                "{}: live {:?} vs replay {:?}",
                spec.name(),
                live,
                offline.races
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} verdict mismatches under {:?}:\n{}",
        mismatches.len(),
        detector,
        mismatches.join("\n")
    );
}

#[test]
fn legacy_replay_matches_live_on_every_suite_case() {
    check_suite(Detector::Legacy);
}

#[test]
fn fragmerge_replay_matches_live_on_every_suite_case() {
    check_suite(Detector::FragMerge);
}

#[test]
fn must_replay_matches_live_on_every_suite_case() {
    check_suite(Detector::Must);
}

/// The confusion-matrix entry (racy/clean boolean) is a consequence of
/// verdict identity, but assert it explicitly against the published
/// ground truth too: replay must classify exactly like the live tool.
#[test]
fn replay_confusion_matrix_matches_live_tools() {
    let cases = generate_suite();
    for spec in &cases {
        let trace = record(spec);
        for detector in [Detector::Legacy, Detector::FragMerge, Detector::Must] {
            let live_flagged = !canonical_verdict(&live_races(spec, detector)).is_empty();
            let replay_flagged = !replay(&trace, detector).races.is_empty();
            assert_eq!(
                live_flagged,
                replay_flagged,
                "{} under {:?}: live flagged={} replay flagged={}",
                spec.name(),
                detector,
                live_flagged,
                replay_flagged
            );
        }
    }
}
