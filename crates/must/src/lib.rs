//! # rma-must — a MUST-RMA-like on-the-fly race detector
//!
//! Models MUST-RMA (Schwitanski et al., Correctness'22), the baseline the
//! paper compares against in Section 5: happens-before concurrent-region
//! construction forwarded to a ThreadSanitizer-style shadow-memory
//! checker. Three properties of the real tool matter for the paper's
//! experiments and are reproduced here:
//!
//! 1. **Everything is instrumented** — unlike RMA-Analyzer, there is no
//!    alias-analysis filter: every local access (tracked or not) pays a
//!    shadow-memory check. This is the paper's explanation for MUST-RMA's
//!    constant-factor slowdown on CFD-Proxy.
//! 2. **Vector clocks travel with communications** — every one-sided
//!    operation snapshots (copies) the origin's full `O(P)` clock, so
//!    per-operation cost grows with the number of processes: the paper's
//!    explanation for the widening gap in Figures 11/12.
//! 3. **Stack arrays are invisible** — ThreadSanitizer does not
//!    instrument stack arrays, so races whose local access happens on a
//!    stack buffer are missed: the 15 false negatives of Table 3 and the
//!    `ll_get_load_inwindow_origin_race` row of Table 2.
//!
//! Happens-before edges: program order per rank; `MPI_Barrier` and the
//! collective window calls join all clocks; a one-sided operation runs on
//! its origin's *shadow component*, which the origin only absorbs at
//! `flush_all`/`unlock_all` (so `MPI_Get; Load` races while
//! `Load; MPI_Get` does not — MUST-RMA gets this right, see Table 2).
//!
//! # Supervised recovery
//!
//! The analysis worker is owned by a supervisor (see `transport.rs`)
//! that journals every shadow-affecting event, checkpoints the analysis
//! state at epoch boundaries, and — within [`MustCfg::max_respawns`] —
//! survives worker deaths by restoring the checkpoint and re-delivering
//! the journal, reaching the same verdicts a fault-free run would.
//! Beyond the budget, worker death remains what it was before: a
//! structured epoch abort, never a hang.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod clock;
mod shadow;
mod transport;

pub use clock::VClock;

use rma_substrate::sync::Mutex;
use rma_core::RaceReport;
use rma_sim::{HookResult, LocalEvent, Monitor, RankId as SimRankId, RmaEvent, WinId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use transport::{AnalysisState, OwnedAccess, Quiescence, Supervisor};

/// What to do on a detected race (mirrors `rma-monitor`'s policy).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OnRace {
    /// Abort the world.
    Abort,
    /// Record and continue.
    Collect,
}

/// Detector configuration: race policy plus the supervision knobs.
#[derive(Clone, Copy, Debug)]
pub struct MustCfg {
    /// Race reaction.
    pub on_race: OnRace,
    /// How many analysis-worker deaths the supervisor absorbs by
    /// checkpoint-restore + journal redelivery before giving up. Beyond
    /// the budget a dead worker becomes the structured epoch abort.
    /// `0` disables recovery entirely (the pre-supervision behaviour).
    pub max_respawns: u32,
    /// How long an epoch-boundary quiescence wait may go without
    /// progress while the worker is alive before it aborts as
    /// `TimedOut`. Historic default: 30 s; tests shrink it so timeout
    /// paths do not stall the suite.
    pub quiescence_deadline: Duration,
}

impl Default for MustCfg {
    fn default() -> Self {
        MustCfg {
            on_race: OnRace::Collect,
            max_respawns: 3,
            quiescence_deadline: Duration::from_secs(30),
        }
    }
}

impl MustCfg {
    /// Default supervision knobs with the given race policy.
    pub fn with_on_race(on_race: OnRace) -> Self {
        MustCfg { on_race, ..Self::default() }
    }
}

/// Whether an analysis result covers everything that was shipped.
///
/// [`MustRma::races`] historically returned whatever had been analyzed
/// when the worker died — silently truncated. Callers that need to trust
/// a clean verdict must check this alongside the race list (or use
/// [`MustRma::races_checked`], which returns both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completeness {
    /// Every shipped operation was analyzed.
    Complete,
    /// The worker died (beyond the respawn budget) or timed out with
    /// `target - processed` operations unanalyzed: absence of races is
    /// *not* evidence of a clean run.
    Partial {
        /// Operations analyzed.
        processed: u64,
        /// Operations shipped.
        target: u64,
    },
}

impl Completeness {
    /// `true` when every shipped operation was analyzed.
    pub fn is_complete(self) -> bool {
        matches!(self, Completeness::Complete)
    }

    /// Canonical one-token rendering for verdict files and telemetry:
    /// `complete`, or `partial:<processed>/<target>`.
    pub fn label(self) -> String {
        match self {
            Completeness::Complete => "complete".to_string(),
            Completeness::Partial { processed, target } => {
                format!("partial:{processed}/{target}")
            }
        }
    }
}

/// Per-rank mutable state.
struct RankState {
    clock: VClock,
    /// Epoch counter of the rank's shadow (RMA) component: number of
    /// one-sided operations issued so far.
    rma_epoch: u64,
}

/// The MUST-RMA-like monitor. Create with [`MustRma::for_world`] (or
/// [`MustRma::with_cfg`] to tune supervision), sized for the world's
/// rank count.
pub struct MustRma {
    on_race: OnRace,
    nranks: u32,
    ranks: Vec<Mutex<RankState>>,
    /// Shadow memory, race log and quiescence counters, shared with the
    /// analysis worker.
    analysis: Arc<AnalysisState>,
    /// Owns the worker, the journal and the recovery machinery.
    supervisor: Supervisor,
    /// Total `u64` clock components copied into messages (the "larger
    /// messages add overhead" metric of Section 5.3).
    clock_words_sent: AtomicUsize,
    /// Local accesses skipped because they hit stack arrays.
    stack_skips: AtomicUsize,
}

impl MustRma {
    /// Creates a detector sized for `nranks` ranks with default
    /// supervision (see [`MustCfg`]). The per-rank tables must exist
    /// before the world starts because hooks only get `&self`.
    pub fn for_world(nranks: u32, on_race: OnRace) -> Self {
        Self::with_cfg(nranks, MustCfg::with_on_race(on_race))
    }

    /// Creates a detector with explicit supervision knobs.
    pub fn with_cfg(nranks: u32, cfg: MustCfg) -> Self {
        let analysis = AnalysisState::new(nranks, cfg.quiescence_deadline);
        let supervisor =
            Supervisor::new(analysis.clone(), cfg.on_race == OnRace::Abort, cfg.max_respawns);
        MustRma {
            on_race: cfg.on_race,
            nranks,
            ranks: (0..nranks)
                .map(|_| Mutex::new(RankState { clock: VClock::zero(nranks), rma_epoch: 0 }))
                .collect(),
            analysis,
            supervisor,
            clock_words_sent: AtomicUsize::new(0),
            stack_skips: AtomicUsize::new(0),
        }
    }

    /// Races found so far (drains the in-flight analysis queue first,
    /// recovering a dead worker within the respawn budget). Best-effort
    /// beyond the budget: whatever was analyzed is reported, never a
    /// hang — check [`MustRma::completeness`] (or call
    /// [`MustRma::races_checked`]) before trusting an empty list.
    pub fn races(&self) -> Vec<RaceReport> {
        self.races_checked().0
    }

    /// Races found so far, paired with whether the analysis covered
    /// everything shipped. A `Partial` completeness means the worker
    /// died beyond the respawn budget (or timed out): the race list is
    /// a truncated prefix, and an empty one proves nothing.
    pub fn races_checked(&self) -> (Vec<RaceReport>, Completeness) {
        let completeness = self.quiesce_completeness();
        (self.analysis.races.lock().clone(), completeness)
    }

    /// Drains the analysis queue (recovering within budget) and reports
    /// whether every shipped operation has been analyzed.
    pub fn completeness(&self) -> Completeness {
        self.quiesce_completeness()
    }

    fn quiesce_completeness(&self) -> Completeness {
        match self.supervisor.quiesce() {
            Quiescence::Drained => Completeness::Complete,
            Quiescence::WorkerDead { processed, target }
            | Quiescence::TimedOut { processed, target } => {
                Completeness::Partial { processed, target }
            }
        }
    }

    /// Number of times the supervisor respawned a dead analysis worker.
    pub fn respawns(&self) -> u32 {
        self.supervisor.respawns()
    }

    /// Has the analysis worker thread died beyond recovery, with events
    /// unprocessed?
    pub fn worker_failed(&self) -> bool {
        self.analysis.worker_dead()
            && matches!(self.supervisor.quiesce(), Quiescence::WorkerDead { .. })
    }

    /// Test-only sabotage: makes the analysis worker exit immediately,
    /// leaving any queued events unprocessed — the spontaneous failure
    /// mode the bounded quiescence wait (and now the supervisor's lazy
    /// recovery path) exists for.
    #[doc(hidden)]
    pub fn sabotage_worker_for_tests(&self) {
        self.supervisor.sabotage();
    }

    /// Shadow accesses the supervisor's in-flight journal retains since
    /// the last epoch-boundary checkpoint: two per shipped operation,
    /// one per inline local access.
    pub fn journal_len(&self) -> usize {
        self.supervisor.journal_len()
    }

    /// Waits until the worker has processed everything shipped so far —
    /// the quiescence wait MUST performs at synchronization points.
    /// Recovers a dead worker within the respawn budget; beyond it the
    /// wait ends silently (used on read-only paths that must not panic).
    fn drain(&self) {
        let _ = self.supervisor.quiesce();
    }

    /// Epoch-boundary quiescence: a dead worker (beyond the respawn
    /// budget) or a stuck queue here means the detector can no longer
    /// certify the epoch — convert it into a rank panic, which
    /// `World::run` records as a structured outcome and uses to unwind
    /// every sibling rank. The alternative — waiting forever on a
    /// Condvar nobody will signal — is exactly the hang this bound
    /// exists to prevent.
    fn drain_strict(&self) {
        match self.supervisor.quiesce() {
            Quiescence::Drained => {}
            Quiescence::WorkerDead { processed, target } => panic!(
                "MUST analysis worker died before quiescence \
                 ({processed}/{target} operations analyzed); aborting world"
            ),
            Quiescence::TimedOut { processed, target } => panic!(
                "MUST analysis quiescence wait timed out \
                 ({processed}/{target} operations analyzed); aborting world"
            ),
        }
    }

    /// In `Abort` mode: did the worker find a race that this rank thread
    /// should turn into an `MPI_Abort`?
    fn poisoned_verdict(&self) -> HookResult {
        if self.on_race == OnRace::Abort
            && self.analysis.poisoned.load(Ordering::Acquire)
        {
            if let Some(r) = self.analysis.races.lock().last() {
                return Err(Box::new(*r));
            }
        }
        Ok(())
    }

    /// Total clock words shipped with one-sided operations.
    pub fn clock_words_sent(&self) -> usize {
        self.clock_words_sent.load(Ordering::Relaxed)
    }

    /// Local accesses skipped due to the stack-array blind spot.
    pub fn stack_skips(&self) -> usize {
        self.stack_skips.load(Ordering::Relaxed)
    }

    /// Shadow-memory footprint: (granules, slots) summed over ranks.
    /// Best-effort like [`MustRma::races`]: pair with
    /// [`MustRma::completeness`] when the worker may have died.
    pub fn shadow_footprint(&self) -> (usize, usize) {
        self.drain();
        let mut g = 0;
        let mut s = 0;
        for sh in &self.analysis.shadows {
            let sh = sh.lock();
            g += sh.granules();
            s += sh.slots();
        }
        (g, s)
    }

    /// Joins every rank's clock into the global maximum — the HB effect
    /// of a barrier. Only called with all ranks quiescent (parked).
    fn join_all(&self) {
        let n = self.nranks as usize;
        if n == 0 {
            return;
        }
        let mut max = VClock::zero(self.nranks);
        for st in &self.ranks[..n] {
            max.join(&st.lock().clock);
        }
        for (r, st) in self.ranks[..n].iter().enumerate() {
            let mut st = st.lock();
            st.clock.join(&max);
            st.clock.tick(VClock::rank_ix(r as u32));
        }
    }
}

impl Monitor for MustRma {
    fn on_world_start(&self, nranks: u32) {
        assert_eq!(
            nranks, self.nranks,
            "MustRma::for_world was sized for a different world"
        );
    }

    fn on_local(&self, ev: &LocalEvent) -> HookResult {
        // ThreadSanitizer does not instrument stack arrays: skip, and
        // count the blind spot. (Note: unlike RMA-Analyzer there is no
        // `tracked` filter — every non-stack access is processed.)
        if ev.on_stack {
            self.stack_skips.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        // Plain CPU accesses are checked in-process, like TSan's inline
        // instrumentation: no transport hop — but the access is still
        // journaled (with a clock copy) so a recovery can replay it, and
        // journal + shadow are updated under one lock (see transport.rs
        // on the double-report window this closes). FIFO causality makes
        // the in-process check verdict-safe (see transport.rs).
        let r = ev.rank.index();
        let component = VClock::rank_ix(ev.rank.0);
        let owned = {
            let st = self.ranks[r].lock();
            OwnedAccess {
                shadow_of: r,
                interval: ev.interval,
                component,
                epoch: st.clock.0[component],
                clock: st.clock.clone(),
                write: ev.kind.is_write(),
                atomic: ev.kind.is_atomic(),
                kind: ev.kind,
                issuer: ev.rank,
                loc: ev.loc,
            }
        };
        if let Some(report) = self.supervisor.record_local(owned) {
            if self.on_race == OnRace::Abort {
                return Err(report);
            }
        }
        self.poisoned_verdict()
    }

    fn on_rma(&self, ev: &RmaEvent) -> HookResult {
        let o = ev.origin.index();
        // Snapshot ("send") the origin's clock and stamp a fresh shadow
        // epoch for this operation.
        let (clock, epoch) = {
            let mut st = self.ranks[o].lock();
            st.rma_epoch += 1;
            let snapshot = st.clock.clone();
            // Advance the issuing rank's own component past the snapshot:
            // the rank's *subsequent* local accesses are then provably not
            // covered by this operation's clock, so the deferred analysis
            // still sees `MPI_Get; Load` as concurrent regardless of when
            // the queued event is processed.
            st.clock.tick(VClock::rank_ix(ev.origin.0));
            (snapshot, st.rma_epoch)
        };
        // One clock ships per one-sided operation (the two shadow
        // accesses below share it).
        self.clock_words_sent.fetch_add(clock.0.len(), Ordering::Relaxed);
        let component = clock.shadow_ix(ev.origin.0);

        // Both access halves of the operation travel through the tool
        // transport with one shipped clock. RMA operations are
        // *annotated* through the TSan API, so — unlike compile-time
        // load/store instrumentation — they work even on stack buffers.
        let origin_side = OwnedAccess {
            shadow_of: o,
            interval: ev.origin_interval,
            component,
            epoch,
            clock: clock.clone(),
            write: ev.origin_kind().is_write(),
            atomic: ev.origin_kind().is_atomic(),
            kind: ev.origin_kind(),
            issuer: ev.origin,
            loc: ev.loc,
        };
        let target_side = OwnedAccess {
            shadow_of: ev.target.index(),
            interval: ev.target_interval,
            component,
            epoch,
            clock,
            write: ev.target_kind().is_write(),
            atomic: ev.target_kind().is_atomic(),
            kind: ev.target_kind(),
            issuer: ev.origin,
            loc: ev.loc,
        };
        self.supervisor.ship([origin_side, target_side]);
        self.poisoned_verdict()
    }

    fn on_flush_all(&self, rank: SimRankId, _win: WinId) {
        // The rank's issued operations completed: absorb the shadow
        // component into the rank's own clock.
        let mut st = self.ranks[rank.index()].lock();
        let ix = st.clock.shadow_ix(rank.0);
        let e = st.rma_epoch;
        st.clock.0[ix] = st.clock.0[ix].max(e);
        st.clock.tick(VClock::rank_ix(rank.0));
    }

    fn on_unlock_all(&self, rank: SimRankId, win: WinId) -> HookResult {
        self.on_flush_all(rank, win);
        // Quiescence: MUST's synchronization analyses complete before the
        // epoch close returns — the analysis wait is part of the measured
        // epoch time. Once drained, try to advance the recovery
        // checkpoint (taken only if no sibling shipped concurrently).
        self.drain_strict();
        self.supervisor.checkpoint_if_quiescent();
        self.poisoned_verdict()
    }

    fn on_barrier_last(&self) {
        // All ranks are parked in the barrier: after the drain the
        // analysis is globally quiescent — the canonical checkpoint spot.
        self.drain_strict();
        self.supervisor.checkpoint_if_quiescent();
        self.join_all();
    }

    fn on_flush(&self, rank: SimRankId, win: WinId, _target: SimRankId) {
        // Approximation (documented): the per-rank shadow component does
        // not distinguish targets, so a per-target flush is handled like
        // flush_all. This can hide races between ops towards *different*
        // targets that a flush did not actually order — the same
        // granularity compromise real tools make (Section 6).
        self.on_flush_all(rank, win);
    }

    fn on_fence(&self, rank: SimRankId, win: WinId) {
        // The fence completes this rank's operations...
        self.on_flush_all(rank, win);
    }

    fn on_fence_last(&self, _win: WinId) {
        // ...and synchronizes all ranks (active target). All ranks are
        // parked in the fence: checkpoint after the drain.
        self.drain_strict();
        self.supervisor.checkpoint_if_quiescent();
        self.join_all();
    }

    fn on_world_end(&self) {
        self.drain();
        self.supervisor.shutdown();
    }

    fn on_fault_kill_worker(&self, _rank: SimRankId) -> bool {
        // Deterministic kill-and-recover: the worker dies abruptly
        // (backlog abandoned); within the respawn budget the supervisor
        // restores the last checkpoint and re-delivers the journal
        // before this returns. Beyond the budget the kill is fail-stop
        // (a structured panic right here), so the verdict never depends
        // on how far the doomed worker happened to get.
        self.supervisor.kill_and_recover();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_detector_has_no_state() {
        let d = MustRma::for_world(4, OnRace::Collect);
        assert!(d.races().is_empty());
        assert_eq!(d.clock_words_sent(), 0);
        assert_eq!(d.shadow_footprint(), (0, 0));
        assert_eq!(d.completeness(), Completeness::Complete);
        assert_eq!(d.respawns(), 0);
        assert_eq!(d.journal_len(), 0);
    }
}
