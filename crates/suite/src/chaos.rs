//! Seeded chaos sweeps over the validation suite.
//!
//! A chaos scenario is `(seed)` — nothing else. The seed picks a suite
//! case, derives a [`FaultPlan`] (kind, victim rank, trigger event) and
//! seeds the world's completion shuffle, so a failing scenario replays
//! bit-identically from its number alone. The runtime's robustness
//! contract, checked by [`classify`], is that every scenario ends in a
//! *structured* outcome:
//!
//! * **clean** — the fault never fired or was absorbed (stall/duplicate
//!   transport faults are delays, not losses);
//! * **raced** — the detector flagged the case (or the injected
//!   `HookError` took the detector's abort path);
//! * **crashed** — the injected rank crash was caught, recorded in
//!   `panics`, and unwound every sibling;
//! * **aborted** — a structured abort (failed window allocation);
//! * **deadlocked** — the watchdog converted a wedged world into
//!   `RunOutcome::deadlock`;
//! * **detector-lost** — a `KillWorker` fault exhausted a detector's
//!   respawn budget and the world aborted through the detector's
//!   structured quiescence panic (never a hang).
//!
//! Anything else — an unexplained panic, a poisoned lock, a hang past
//! the watchdog — is a contract violation and fails the sweep.
//!
//! # Verdict equivalence under recovery
//!
//! `KillWorker` scenarios run the *supervised* detector stack — the
//! RMA-Analyzer in its `Messages` architecture plus the MUST-RMA-like
//! detector, tee'd — and additionally run the same case on the same
//! stack **without** the fault. Whenever the faulted run survives
//! (within the respawn budgets), its raced-verdict must equal the
//! fault-free baseline's: crash recovery is only correct if it is
//! invisible in the verdict ([`ChaosResult::equivalent`]).

use crate::case::{CaseSpec, SUITE_RANKS};
use crate::run::run_case_with_cfg;
use rma_monitor::{AnalyzerCfg, Delivery, OnRace, RmaAnalyzer};
use rma_must::{MustCfg, MustRma, OnRace as MustOnRace};
use rma_sim::{FaultKind, FaultPlan, Monitor, RunOutcome, Tee, WorldCfg};
use rma_substrate::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Respawn budget used for both supervised detectors in kill-worker
/// scenarios. Deliberately below the largest sampled kill count (see
/// [`FaultPlan::from_seed`]) so sweeps exercise both recovered and
/// budget-exhausted endings.
pub const CHAOS_RESPAWN_BUDGET: u32 = 3;

/// Structured classification of one chaos scenario's outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosVerdict {
    /// Run finished clean and the detector stayed quiet.
    Clean,
    /// Run finished clean (or aborted on report) with a race flagged.
    Raced,
    /// The injected crash was recorded and siblings unwound.
    Crashed,
    /// A structured non-race abort (e.g. failed window allocation).
    Aborted,
    /// The deadlock watchdog fired and produced a description.
    Deadlocked,
    /// A detector's helper thread was killed past its respawn budget and
    /// the loss surfaced as the structured quiescence abort.
    DetectorLost,
}

impl ChaosVerdict {
    /// Tally-table label.
    pub fn name(self) -> &'static str {
        match self {
            ChaosVerdict::Clean => "clean",
            ChaosVerdict::Raced => "raced",
            ChaosVerdict::Crashed => "crashed",
            ChaosVerdict::Aborted => "aborted",
            ChaosVerdict::Deadlocked => "deadlocked",
            ChaosVerdict::DetectorLost => "detector-lost",
        }
    }
}

/// One scenario's result: what happened and how long it took.
#[derive(Debug)]
pub struct ChaosResult {
    /// The defining seed.
    pub seed: u64,
    /// Name of the suite case the seed selected.
    pub case: String,
    /// The derived fault plan.
    pub plan: FaultPlan,
    /// Structured verdict.
    pub verdict: ChaosVerdict,
    /// Helper-thread recoveries performed across the attached detectors
    /// (only ever non-zero for `KillWorker` scenarios).
    pub respawns: u32,
    /// For `KillWorker` scenarios that survived within budget: did the
    /// recovered run reach the same raced-verdict as a fault-free run
    /// of the same case on the same detector stack? `None` when the
    /// comparison does not apply (other fault kinds, or the run ended
    /// in a structured abort before a verdict existed).
    pub equivalent: Option<bool>,
    /// Wall-clock duration of the world run.
    pub elapsed: Duration,
}

impl ChaosResult {
    /// One-line machine-readable form (stable field order, no
    /// timestamps or durations), used by `rma-chaos --json` so two
    /// sweeps over the same seeds can be diffed byte-for-byte.
    pub fn to_json(&self) -> String {
        let times = match self.plan.kind {
            FaultKind::KillWorker { times } => times,
            _ => 0,
        };
        json::obj([
            ("seed", self.seed.into()),
            ("case", self.case.as_str().into()),
            ("fault", self.plan.kind.name().into()),
            ("rank", self.plan.rank.into()),
            ("at_event", self.plan.at_event.into()),
            ("times", times.into()),
            ("verdict", self.verdict.name().into()),
            ("respawns", self.respawns.into()),
            ("equivalent", self.equivalent.map_or(json::Value::Null, json::Value::Bool)),
        ])
        .to_line()
    }
}

/// The panic markers a detector emits when it loses its helper thread
/// beyond recovery. Several ranks may panic with these concurrently
/// (each rank's next quiescence point notices the same dead worker).
fn is_detector_lost_panic(msg: &str) -> bool {
    msg.contains("MUST analysis worker") || msg.contains("RMA-Analyzer receiver")
}

/// Maps a finished world outcome onto the structured-verdict contract.
/// `Err` is a violation: an outcome shape chaos must never produce.
pub fn classify(outcome: &RunOutcome<()>, detector_raced: bool) -> Result<ChaosVerdict, String> {
    if let Some(desc) = &outcome.deadlock {
        if !outcome.panics.is_empty() {
            return Err(format!("deadlock AND panics: {desc:?} + {:?}", outcome.panics));
        }
        return Ok(ChaosVerdict::Deadlocked);
    }
    if !outcome.panics.is_empty() {
        // A lost detector panics on the faulted rank — and possibly on
        // every sibling whose quiescence wait notices the same dead
        // worker. All such panics must carry a detector marker.
        if outcome.panics.iter().all(|(_, msg)| is_detector_lost_panic(msg)) {
            return Ok(ChaosVerdict::DetectorLost);
        }
        // The only other legitimate panic source under chaos is the
        // injected crash itself — exactly one, carrying its marker.
        if outcome.panics.len() != 1 {
            return Err(format!(
                "{} panics, expected at most 1: {:?}",
                outcome.panics.len(),
                outcome.panics
            ));
        }
        let (rank, msg) = &outcome.panics[0];
        if !msg.contains("fault injection") {
            return Err(format!("unexplained panic on {rank:?}: {msg}"));
        }
        return Ok(ChaosVerdict::Crashed);
    }
    if outcome.raced() || detector_raced {
        return Ok(ChaosVerdict::Raced);
    }
    if !outcome.aborts.is_empty() {
        return Ok(ChaosVerdict::Aborted);
    }
    Ok(ChaosVerdict::Clean)
}

/// The supervised detector stack used for kill-worker scenarios: the
/// RMA-Analyzer in its receiver-thread architecture tee'd with the
/// MUST-RMA-like detector, both collecting races and both carrying a
/// respawn budget of [`CHAOS_RESPAWN_BUDGET`]. Notification batches in
/// flight at the moment of a kill must redeliver exactly-once.
fn supervised_stack() -> (Arc<dyn Monitor>, Arc<RmaAnalyzer>, Arc<MustRma>) {
    let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        on_race: OnRace::Collect,
        delivery: Delivery::Messages,
        max_respawns: CHAOS_RESPAWN_BUDGET,
        ..AnalyzerCfg::default()
    }));
    let must = Arc::new(MustRma::with_cfg(
        SUITE_RANKS,
        MustCfg {
            on_race: MustOnRace::Collect,
            max_respawns: CHAOS_RESPAWN_BUDGET,
            quiescence_deadline: Duration::from_secs(5),
        },
    ));
    let tee: Arc<dyn Monitor> = Arc::new(Tee::pair(analyzer.clone(), must.clone()));
    (tee, analyzer, must)
}

/// Runs chaos scenario `seed` against `cases` (the seed picks one).
/// `watchdog_ms` bounds a wedged run. Most fault kinds run the
/// frag-merge analyzer directly; `KillWorker` scenarios run the
/// supervised stack plus a fault-free baseline for verdict equivalence.
pub fn run_chaos_scenario(
    seed: u64,
    cases: &[CaseSpec],
    watchdog_ms: u64,
) -> Result<ChaosResult, String> {
    assert!(!cases.is_empty());
    let spec = &cases[(seed as usize).wrapping_mul(0x9E37_79B9) % cases.len()];
    let plan = FaultPlan::from_seed(seed, SUITE_RANKS);
    let cfg = WorldCfg {
        fault: Some(plan),
        watchdog_ms,
        seed,
        ..WorldCfg::with_ranks(SUITE_RANKS)
    };

    if matches!(plan.kind, FaultKind::KillWorker { .. }) {
        return run_kill_worker_scenario(seed, spec, plan, cfg);
    }

    let mon = Arc::new(RmaAnalyzer::new(AnalyzerCfg {
        on_race: OnRace::Collect,
        max_respawns: CHAOS_RESPAWN_BUDGET,
        ..AnalyzerCfg::default()
    }));
    let started = Instant::now();
    let outcome = run_case_with_cfg(spec, mon.clone() as Arc<dyn Monitor>, cfg);
    let elapsed = started.elapsed();
    let verdict = classify(&outcome, !mon.races().is_empty())
        .map_err(|e| format!("seed {seed} ({} / {plan:?}): {e}", spec.name()))?;
    Ok(ChaosResult {
        seed,
        case: spec.name(),
        plan,
        verdict,
        respawns: 0,
        equivalent: None,
        elapsed,
    })
}

fn run_kill_worker_scenario(
    seed: u64,
    spec: &CaseSpec,
    plan: FaultPlan,
    cfg: WorldCfg,
) -> Result<ChaosResult, String> {
    let started = Instant::now();

    // Faulted run on the supervised stack.
    let (tee, analyzer, must) = supervised_stack();
    let outcome = run_case_with_cfg(spec, tee, cfg);
    let raced =
        outcome.raced() || !analyzer.races().is_empty() || !must.races().is_empty();
    let respawns = analyzer.respawns() + must.respawns();
    let verdict = classify(&outcome, raced)
        .map_err(|e| format!("seed {seed} ({} / {plan:?}): {e}", spec.name()))?;

    // Equivalence: a recovered run must reach the fault-free verdict.
    // Only comparable when the faulted run survived to a verdict at all.
    let equivalent = match verdict {
        ChaosVerdict::Raced | ChaosVerdict::Clean => {
            let (tee_b, analyzer_b, must_b) = supervised_stack();
            let baseline_cfg = WorldCfg { fault: None, ..cfg };
            let baseline = run_case_with_cfg(spec, tee_b, baseline_cfg);
            let baseline_raced = baseline.raced()
                || !analyzer_b.races().is_empty()
                || !must_b.races().is_empty();
            Some(raced == baseline_raced)
        }
        _ => None,
    };

    let elapsed = started.elapsed();
    Ok(ChaosResult {
        seed,
        case: spec.name(),
        plan,
        verdict,
        respawns,
        equivalent,
        elapsed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(kind: FaultKind, verdict: ChaosVerdict, equivalent: Option<bool>) -> ChaosResult {
        ChaosResult {
            seed: 42,
            case: "lo2_put_put_inwindow_target_race".to_string(),
            plan: FaultPlan::new(kind, 1, 17),
            verdict,
            respawns: 2,
            equivalent,
            elapsed: Duration::from_millis(5),
        }
    }

    /// Byte-exact `rma-chaos --json` lines.
    #[test]
    fn golden_json_lines() {
        let kill = FaultKind::KillWorker { times: 3 };
        let line = |kind, verdict, equivalent| result(kind, verdict, equivalent).to_json();
        assert_eq!(
            line(kill, ChaosVerdict::Raced, Some(false)),
            concat!(
                r#"{"seed":42,"case":"lo2_put_put_inwindow_target_race","fault":"kill-worker","#,
                r#""rank":1,"at_event":17,"times":3,"verdict":"raced","respawns":2,"#,
                r#""equivalent":false}"#,
            )
        );
        assert_eq!(
            line(kill, ChaosVerdict::DetectorLost, None),
            concat!(
                r#"{"seed":42,"case":"lo2_put_put_inwindow_target_race","fault":"kill-worker","#,
                r#""rank":1,"at_event":17,"times":3,"verdict":"detector-lost","respawns":2,"#,
                r#""equivalent":null}"#,
            )
        );
        assert_eq!(
            line(FaultKind::Crash, ChaosVerdict::Crashed, None),
            concat!(
                r#"{"seed":42,"case":"lo2_put_put_inwindow_target_race","fault":"crash","#,
                r#""rank":1,"at_event":17,"times":0,"verdict":"crashed","respawns":2,"#,
                r#""equivalent":null}"#,
            )
        );
        assert_eq!(
            line(FaultKind::StallSends, ChaosVerdict::Clean, Some(false)),
            concat!(
                r#"{"seed":42,"case":"lo2_put_put_inwindow_target_race","fault":"stall-sends","#,
                r#""rank":1,"at_event":17,"times":0,"verdict":"clean","respawns":2,"#,
                r#""equivalent":false}"#,
            )
        );
    }
}
