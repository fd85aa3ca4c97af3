//! Verdict-equivalence campaign over the analyzer's delivery grid:
//! every one of the 240 suite cases must produce the *same* race-or-not
//! verdict — and therefore the same confusion matrix — under `Messages`
//! as under the default `Direct` transport.
//!
//! `Messages` batches up to [`BATCH_LEN`] notifications per (origin,
//! target), which only *delays* their delivery until a synchronization
//! point, and the transport only changes which thread performs the
//! insertion — neither may change what the detector reports. Every
//! grid point runs the production store ([`AnalyzerCfg::build_store`]'s
//! blocked engine); the tree reference is anchored separately by
//! `replay_fidelity`, which checks blocked live verdicts against tree
//! replay on all 240 cases. The baseline sweep is computed once
//! ([`OnceLock`]) and shared by the grid-point tests, which the harness
//! runs in parallel.

use rma_monitor::{AnalyzerCfg, Delivery, OnRace, RmaAnalyzer, BATCH_LEN};
use rma_sim::Monitor;
use rma_suite::{generate_suite, run_case_with_monitor, CaseSpec, Confusion};
use std::sync::{Arc, OnceLock};

/// Per-case verdicts (case name, tool flagged a race) for one config.
fn sweep(cfg: AnalyzerCfg) -> Vec<(String, bool)> {
    generate_suite()
        .iter()
        .map(|spec| (spec.name(), flagged(spec, cfg)))
        .collect()
}

fn flagged(spec: &CaseSpec, cfg: AnalyzerCfg) -> bool {
    let mon = Arc::new(RmaAnalyzer::new(cfg));
    let out = run_case_with_monitor(spec, mon.clone() as Arc<dyn Monitor>);
    assert!(
        out.is_clean(),
        "{} under {cfg:?}: {:?} {:?}",
        spec.name(),
        out.aborts,
        out.panics
    );
    !mon.races().is_empty()
}

fn grid_cfg(delivery: Delivery) -> AnalyzerCfg {
    AnalyzerCfg { on_race: OnRace::Collect, delivery, ..AnalyzerCfg::default() }
}

/// The default configuration's verdicts, computed once for all grid
/// tests.
fn baseline() -> &'static [(String, bool)] {
    static BASELINE: OnceLock<Vec<(String, bool)>> = OnceLock::new();
    BASELINE.get_or_init(|| sweep(grid_cfg(Delivery::Direct)))
}

/// Confusion matrix from a verdict sweep (needs the case list for the
/// ground truth).
fn confusion(verdicts: &[(String, bool)]) -> Confusion {
    let cases = generate_suite();
    assert_eq!(cases.len(), verdicts.len());
    let mut c = Confusion::default();
    for (spec, (name, flagged)) in cases.iter().zip(verdicts) {
        assert_eq!(&spec.name(), name);
        match (spec.races(), *flagged) {
            (true, true) => c.true_positives += 1,
            (true, false) => c.false_negatives += 1,
            (false, true) => c.false_positives += 1,
            (false, false) => c.true_negatives += 1,
        }
    }
    c
}

fn assert_grid_point(delivery: Delivery) {
    let base = baseline();
    let got = sweep(grid_cfg(delivery));
    for ((name, want), (_, have)) in base.iter().zip(&got) {
        assert_eq!(
            want, have,
            "{name}: verdict diverges under {delivery:?} (baseline {want}, grid point {have})"
        );
    }
    assert_eq!(confusion(base), confusion(&got), "confusion matrix diverges");
}

#[test]
fn baseline_covers_all_cases() {
    assert_eq!(baseline().len(), 240);
    // The paper's Table 3 row for the contribution: no misses.
    assert_eq!(confusion(baseline()).false_negatives, 0);
}

/// `Messages` always batches, at [`BATCH_LEN`] = 64 notifications.
#[test]
fn messages_batch64() {
    assert_eq!(BATCH_LEN, 64);
    assert_grid_point(Delivery::Messages);
}
