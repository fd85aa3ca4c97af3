//! Offline replay: feed a recorded trace through a detector as if the
//! run were live.
//!
//! ## Scheduling
//!
//! A trace holds one stream per rank with no cross-rank order. The
//! replayer reconstructs a legal execution single-threadedly: it runs
//! each rank's stream until the rank arrives at a *collective* record
//! (`UnlockAll`, `Fence`, `Barrier` — exactly the points where the live
//! analyzer's protocol makes every rank rendezvous), and releases a
//! collective once all ranks are parked at a matching one. Per-rank
//! program order is preserved exactly; cross-rank interleaving within an
//! epoch is one of the legal live interleavings. Detection is
//! order-robust inside an epoch (conflicts are symmetric), so the race
//! verdict matches the live run — which the fidelity tests prove across
//! the whole microbenchmark suite.
//!
//! ## Targets
//!
//! * [`StoreTarget`] drives the RMA-Analyzer epoch protocol,
//!   [`rma_monitor::epoch`] — the same rules the live analyzer runs —
//!   over *any* [`AccessStore`] factory: legacy BST, frag-merge, naive,
//!   or a custom store.
//! * [`MustTarget`] drives a real [`MustRma`] instance through its
//!   monitor hooks, replaying the recorded hooks in a legal order.

use crate::format::TraceEvent;
use crate::trace::Trace;
use rma_core::{AccessKind, AccessStore, MemAccess, RaceReport, RankId, StoreStats};
use rma_monitor::epoch::{rma_halves, EpochState};
use rma_monitor::Algorithm;
use rma_must::MustRma;
use rma_sim::{LocalEvent, Monitor, RmaEvent, WinId};

/// Result of replaying a trace through a detector.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Canonicalized race reports (see [`canonical_verdict`]).
    pub races: Vec<RaceReport>,
    /// Aggregated store statistics (all zeros for the MUST target, which
    /// has no interval stores).
    pub stats: StoreStats,
    /// Trace events fed to the target.
    pub events: usize,
    /// `false` when the trace ended with ranks parked at a collective
    /// that can never complete (a truncated or aborted recording).
    pub complete: bool,
    /// `MPI_Win_flush` records seen but deliberately not acted on (the
    /// analyzer's documented Section 6 limitation).
    pub unsupported_flushes: u64,
}

/// Orders the two halves of each report, sorts and dedups the list, so
/// verdicts compare byte-identically regardless of which interleaving
/// (live or replayed) detected them. Conflict detection is symmetric —
/// the *pair* is the verdict, not which half happened to be stored first.
pub fn canonical_verdict(races: &[RaceReport]) -> Vec<RaceReport> {
    fn key(a: &MemAccess) -> (u64, u64, u8, u32, &'static str, u32) {
        (a.interval.lo, a.interval.hi, a.kind.precedence(), a.issuer.0, a.loc.file, a.loc.line)
    }
    let mut out: Vec<RaceReport> = races
        .iter()
        .map(|r| {
            if key(&r.existing) <= key(&r.new) {
                *r
            } else {
                RaceReport::new(r.new, r.existing)
            }
        })
        .collect();
    out.sort_by(|a, b| {
        (key(&a.existing), key(&a.new)).cmp(&(key(&b.existing), key(&b.new)))
    });
    out.dedup();
    out
}

/// A compact, deterministic one-line rendering of a canonical verdict —
/// the line `ci.sh` compares between a live run and its replay.
pub fn verdict_line(races: &[RaceReport]) -> String {
    let canon = canonical_verdict(races);
    if canon.is_empty() {
        return "verdict: clean".to_string();
    }
    let mut parts = Vec::with_capacity(canon.len());
    for r in &canon {
        let one = |a: &MemAccess| {
            format!("{} [{},{}] {} {}:{}", a.kind, a.interval.lo, a.interval.hi, a.issuer, a.loc.file, a.loc.line)
        };
        parts.push(format!("{{{} | {}}}", one(&r.existing), one(&r.new)));
    }
    format!("verdict: {} race(s) {}", canon.len(), parts.join(" "))
}

/// Consumes a replayed event stream. Arrival/release of collectives is
/// split so targets can mirror the live hook order (`on_fence` at
/// arrival, `on_fence_last` at release).
pub trait ReplayTarget {
    /// The world is starting with `nranks` ranks.
    fn start(&mut self, nranks: u32);
    /// A non-collective event of `rank`'s stream.
    fn event(&mut self, rank: RankId, ev: &TraceEvent);
    /// `rank` arrived at the collective `ev` (and is now parked).
    fn arrive(&mut self, rank: RankId, ev: &TraceEvent);
    /// All ranks arrived at a collective matching `ev`; they are about to
    /// be released.
    fn release(&mut self, ev: &TraceEvent);
    /// `rank`'s stream ended with a `Finish` record.
    fn rank_finish(&mut self, rank: RankId);
    /// The replay ended; produce the verdict and statistics.
    fn finish(self: Box<Self>, events: usize, complete: bool) -> ReplayOutcome;
}

/// The live hook event of `origin`'s recorded RMA `ev`.
fn rma_event(origin: RankId, ev: &TraceEvent) -> RmaEvent {
    let TraceEvent::Rma {
        dir,
        target,
        win,
        origin_interval,
        target_interval,
        origin_on_stack,
        loc,
    } = *ev
    else {
        unreachable!("not an RMA record: {ev:?}")
    };
    RmaEvent { dir, origin, target, win, origin_interval, target_interval, origin_on_stack, loc }
}

/// What a rank is parked on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pending {
    UnlockAll(WinId),
    Fence(WinId),
    Barrier,
}

fn pending_of(ev: &TraceEvent) -> Option<Pending> {
    match *ev {
        TraceEvent::UnlockAll { win } => Some(Pending::UnlockAll(win)),
        TraceEvent::Fence { win } => Some(Pending::Fence(win)),
        TraceEvent::Barrier => Some(Pending::Barrier),
        _ => None,
    }
}

/// Replays `trace` into `target`. See the module docs for the schedule.
pub fn replay_trace(trace: &Trace, mut target: Box<dyn ReplayTarget + '_>) -> ReplayOutcome {
    let n = trace.streams.len();
    target.start(trace.header.nranks);
    let mut cursor = vec![0usize; n];
    let mut parked: Vec<Option<(Pending, TraceEvent)>> = vec![None; n];
    let mut finished = vec![false; n];
    let mut fed = 0usize;
    let complete = loop {
        // Run every unparked, unfinished rank to its next sync point.
        for r in 0..n {
            if finished[r] || parked[r].is_some() {
                continue;
            }
            let rank = RankId(r as u32);
            let stream = &trace.streams[r];
            loop {
                let Some(ev) = stream.get(cursor[r]) else {
                    finished[r] = true; // stream ended without Finish
                    break;
                };
                cursor[r] += 1;
                fed += 1;
                if let Some(p) = pending_of(ev) {
                    target.arrive(rank, ev);
                    parked[r] = Some((p, *ev));
                    break;
                }
                if matches!(ev, TraceEvent::Finish) {
                    target.rank_finish(rank);
                    finished[r] = true;
                    break;
                }
                target.event(rank, ev);
            }
        }
        if finished.iter().all(|&f| f) {
            break true;
        }
        // Every unfinished rank is parked now. A collective releases only
        // when *all* ranks (none finished) park on a matching record.
        let all_parked_same = !finished.iter().any(|&f| f)
            && parked.iter().all(|p| {
                p.as_ref().map(|(k, _)| k) == parked[0].as_ref().map(|(k, _)| k)
            });
        if !all_parked_same {
            // Some rank finished while others wait, or mismatched
            // collectives: the live run could never release this — the
            // trace is truncated or torn.
            break false;
        }
        let (_, rep) = parked[0].take().expect("all ranks parked");
        for p in parked.iter_mut() {
            *p = None;
        }
        target.release(&rep);
    };
    target.finish(fed, complete)
}

// ---------------------------------------------------------------------
// Store-based target (RMA-Analyzer semantics, any AccessStore).
// ---------------------------------------------------------------------

/// Replays with the RMA-Analyzer epoch protocol ([`rma_monitor::epoch`],
/// the rules the live analyzer runs) over stores built by a factory —
/// one store per (rank, window).
pub struct StoreTarget<F: FnMut() -> Box<dyn AccessStore + Send>> {
    factory: F,
    epoch: EpochState,
    races: Vec<RaceReport>,
    unsupported_flushes: u64,
}

impl<F: FnMut() -> Box<dyn AccessStore + Send>> StoreTarget<F> {
    /// A target whose per-(rank, window) stores come from `factory`.
    pub fn new(factory: F) -> Self {
        StoreTarget {
            factory,
            epoch: EpochState::new(0),
            races: Vec::new(),
            unsupported_flushes: 0,
        }
    }

    /// The epoch state, with windows allocated up to `win`.
    fn win(&mut self, win: WinId) -> &EpochState {
        self.epoch.ensure_window(win, &mut self.factory);
        &self.epoch
    }
}

impl<F: FnMut() -> Box<dyn AccessStore + Send>> ReplayTarget for StoreTarget<F> {
    fn start(&mut self, nranks: u32) {
        self.epoch = EpochState::new(nranks);
    }

    fn event(&mut self, rank: RankId, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Local { interval, write, tracked, loc, .. } => {
                if !tracked {
                    return; // filtered out by the alias analysis
                }
                let kind = if write { AccessKind::LocalWrite } else { AccessKind::LocalRead };
                let acc = MemAccess::new(interval, kind, rank, loc);
                let races = &mut self.races;
                self.epoch.local(rank, acc, |_, verdict| races.extend(verdict.err().map(|r| *r)));
            }
            TraceEvent::Rma { target, win, .. } => {
                let [origin_acc, target_acc] = rma_halves(&rma_event(rank, ev));
                let origin = self.win(win).rma_origin(win, rank, origin_acc);
                let target = self.epoch.rma_target(win, target, target_acc);
                self.races.extend([origin, target].into_iter().filter_map(|v| v.err().map(|r| *r)));
            }
            TraceEvent::WinAllocate { win, .. } => {
                self.win(win);
            }
            TraceEvent::LockAll { win } => self.win(win).open(win, rank),
            TraceEvent::FlushAll { win } => self.win(win).flush_all(win, rank),
            TraceEvent::Flush { .. } => self.unsupported_flushes += 1,
            // WinFree is a no-op; collectives arrive via `arrive` and
            // `release`, Finish via `rank_finish`.
            _ => {}
        }
    }

    fn arrive(&mut self, rank: RankId, ev: &TraceEvent) {
        if let TraceEvent::Fence { win } = *ev {
            self.win(win).open(win, rank);
        }
    }

    fn release(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::UnlockAll { win } => {
                // Every rank is parked at the unlock, so every
                // notification has landed: each rank's unlock_all.
                let epoch = self.win(win);
                for r in 0..epoch.nranks() {
                    epoch.unlock_all(win, RankId(r));
                }
            }
            TraceEvent::Fence { win } => self.win(win).fence_release(win),
            // Replay delivers every notification synchronously.
            TraceEvent::Barrier => self.epoch.barrier_release(|_| true),
            _ => {}
        }
    }

    fn rank_finish(&mut self, _rank: RankId) {}

    fn finish(self: Box<Self>, events: usize, complete: bool) -> ReplayOutcome {
        ReplayOutcome {
            races: canonical_verdict(&self.races),
            stats: Algorithm::aggregate_stats(self.epoch.window_stats().into_iter().flatten()),
            events,
            complete,
            unsupported_flushes: self.unsupported_flushes,
        }
    }
}

// ---------------------------------------------------------------------
// MUST-RMA target (drives the real vector-clock tool through its hooks).
// ---------------------------------------------------------------------

/// Replays by invoking a real [`MustRma`]'s monitor hooks in the
/// reconstructed order. Hook-for-hook the same calls a live world makes,
/// minus the thread concurrency (which MUST's FIFO worker serialized
/// anyway).
pub struct MustTarget {
    must: Option<MustRma>,
}

impl MustTarget {
    /// A fresh MUST-RMA detector in collect mode.
    pub fn new() -> Self {
        MustTarget { must: None }
    }

    fn must(&self) -> &MustRma {
        self.must.as_ref().expect("start() not called")
    }
}

impl Default for MustTarget {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayTarget for MustTarget {
    fn start(&mut self, nranks: u32) {
        let must = MustRma::for_world(nranks, rma_must::OnRace::Collect);
        must.on_world_start(nranks);
        self.must = Some(must);
    }

    fn event(&mut self, rank: RankId, ev: &TraceEvent) {
        let must = self.must();
        match *ev {
            TraceEvent::Local { interval, write, on_stack, tracked, loc } => {
                let kind = if write { AccessKind::LocalWrite } else { AccessKind::LocalRead };
                let _ = must.on_local(&LocalEvent { rank, interval, kind, on_stack, tracked, loc });
            }
            TraceEvent::Rma { .. } => {
                let _ = must.on_rma(&rma_event(rank, ev));
            }
            TraceEvent::WinAllocate { win, base, len } => {
                must.on_win_allocate(rank, win, base, len)
            }
            TraceEvent::WinFree { win } => must.on_win_free(rank, win),
            TraceEvent::LockAll { win } => must.on_lock_all(rank, win),
            TraceEvent::FlushAll { win } => must.on_flush_all(rank, win),
            TraceEvent::Flush { win, target } => must.on_flush(rank, win, target),
            _ => {}
        }
    }

    fn arrive(&mut self, rank: RankId, ev: &TraceEvent) {
        let must = self.must();
        match *ev {
            // Live, unlock_all is not collective for MUST — the hook runs
            // at the rank's own arrival time.
            TraceEvent::UnlockAll { win } => {
                let _ = must.on_unlock_all(rank, win);
            }
            TraceEvent::Fence { win } => must.on_fence(rank, win),
            TraceEvent::Barrier => must.on_barrier(rank),
            _ => {}
        }
    }

    fn release(&mut self, ev: &TraceEvent) {
        let must = self.must();
        match *ev {
            TraceEvent::Fence { win } => must.on_fence_last(win),
            TraceEvent::Barrier => must.on_barrier_last(),
            _ => {}
        }
    }

    fn rank_finish(&mut self, rank: RankId) {
        self.must().on_rank_finish(rank);
    }

    fn finish(self: Box<Self>, events: usize, complete: bool) -> ReplayOutcome {
        let must = self.must.expect("start() not called");
        must.on_world_end();
        ReplayOutcome {
            races: canonical_verdict(&must.races()),
            stats: StoreStats::default(),
            events,
            complete,
            unsupported_flushes: 0,
        }
    }
}

// ---------------------------------------------------------------------
// Detector selection (the CLI/bench surface).
// ---------------------------------------------------------------------

/// The offline detectors a trace can be replayed through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Detector {
    /// Flat-vector reference store (`--store naive`).
    Naive,
    /// Pre-paper RMA-Analyzer BST (`--store legacy`).
    Legacy,
    /// The paper's Algorithm 1 (`--store fragmerge`).
    FragMerge,
    /// MUST-RMA-like vector-clock tool (`--store must`).
    Must,
}

impl Detector {
    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Detector::Naive => "naive",
            Detector::Legacy => "legacy",
            Detector::FragMerge => "fragmerge",
            Detector::Must => "must",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Option<Detector> {
        match s {
            "naive" => Some(Detector::Naive),
            "legacy" => Some(Detector::Legacy),
            "fragmerge" => Some(Detector::FragMerge),
            "must" => Some(Detector::Must),
            _ => None,
        }
    }

    /// All detectors, CLI order.
    pub const ALL: [Detector; 4] =
        [Detector::Naive, Detector::Legacy, Detector::FragMerge, Detector::Must];

    /// The store algorithm behind a store-based detector (`None` for
    /// MUST, which is not store-based).
    pub fn algorithm(self) -> Option<Algorithm> {
        match self {
            Detector::Naive => Some(Algorithm::FullHistory),
            Detector::Legacy => Some(Algorithm::Legacy),
            Detector::FragMerge => Some(Algorithm::FragMerge),
            Detector::Must => None,
        }
    }
}

/// Replays `trace` through the chosen detector.
pub fn replay(trace: &Trace, detector: Detector) -> ReplayOutcome {
    match detector.algorithm() {
        Some(algo) => replay_trace(trace, Box::new(StoreTarget::new(move || algo.new_store()))),
        None => replay_trace(trace, Box::new(MustTarget::new())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use rma_core::{Interval, SrcLoc};
    use rma_sim::{World, WorldCfg};
    use std::sync::Arc;

    fn record_racy_put_put() -> Trace {
        let writer = Arc::new(TraceWriter::new("racy", 1));
        let out = World::run(WorldCfg::with_ranks(3), writer.clone(), |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(8);
            ctx.win_lock_all(win);
            if ctx.rank() != RankId(2) {
                // Two origins put into the same window cells of rank 2.
                ctx.put(&buf, 0, 8, RankId(2), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        assert!(out.is_clean());
        writer.trace()
    }

    #[test]
    fn all_detectors_flag_the_put_put_race() {
        let trace = record_racy_put_put();
        for det in Detector::ALL {
            let out = replay(&trace, det);
            assert!(out.complete, "{:?} incomplete", det);
            assert!(!out.races.is_empty(), "{:?} missed the race", det);
        }
    }

    #[test]
    fn epoch_separation_clears_the_race() {
        let writer = Arc::new(TraceWriter::new("safe", 2));
        let out = World::run(WorldCfg::with_ranks(2), writer.clone(), |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(8);
            // Same target cells, but in two separate epochs: ordered.
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                ctx.put(&buf, 0, 8, RankId(1), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(1) {
                ctx.put(&buf, 0, 8, RankId(0), 0, win);
            }
            ctx.win_unlock_all(win);
            ctx.barrier();
        });
        assert!(out.is_clean());
        let trace = writer.trace();
        for det in [Detector::FragMerge, Detector::Legacy, Detector::Naive] {
            let out = replay(&trace, det);
            assert!(out.complete);
            assert!(out.races.is_empty(), "{:?} false positive across epochs", det);
            assert!(out.stats.epochs > 0, "{:?} never closed an epoch", det);
        }
    }

    #[test]
    fn truncated_stream_reports_incomplete() {
        let mut trace = record_racy_put_put();
        // Drop rank 0's tail from its unlock_all onwards: ranks 1-2 park
        // at the unlock collective forever.
        let s0 = &mut trace.streams[0];
        let cut = s0
            .iter()
            .position(|e| matches!(e, TraceEvent::UnlockAll { .. }))
            .unwrap();
        s0.truncate(cut);
        let out = replay(&trace, Detector::FragMerge);
        assert!(!out.complete);
    }

    #[test]
    fn canonical_verdict_is_order_independent() {
        let l1 = SrcLoc::synthetic("x.c", 1);
        let l2 = SrcLoc::synthetic("x.c", 2);
        let a = MemAccess::new(Interval::new(0, 7), AccessKind::RmaWrite, RankId(0), l1);
        let b = MemAccess::new(Interval::new(0, 7), AccessKind::RmaWrite, RankId(1), l2);
        let fwd = canonical_verdict(&[RaceReport::new(a, b)]);
        let rev = canonical_verdict(&[RaceReport::new(b, a)]);
        assert_eq!(fwd, rev);
        let both = canonical_verdict(&[RaceReport::new(a, b), RaceReport::new(b, a)]);
        assert_eq!(both.len(), 1);
    }

    #[test]
    fn verdict_line_is_stable() {
        assert_eq!(verdict_line(&[]), "verdict: clean");
        let a = MemAccess::new(
            Interval::new(0, 7),
            AccessKind::RmaWrite,
            RankId(0),
            SrcLoc::synthetic("x.c", 1),
        );
        let b = MemAccess::new(
            Interval::new(0, 7),
            AccessKind::LocalWrite,
            RankId(1),
            SrcLoc::synthetic("x.c", 2),
        );
        let fwd = verdict_line(&[RaceReport::new(a, b)]);
        let rev = verdict_line(&[RaceReport::new(b, a)]);
        assert_eq!(fwd, rev);
        assert!(fwd.contains("RMA_WRITE"), "{fwd}");
    }
}
