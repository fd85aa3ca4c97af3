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
//! The schedule is one incremental machine, [`Replayer`]: events are
//! pushed in wire order (rank-major, each rank closed by its `Finish`)
//! and run the moment the schedule reaches them, so a served stream is
//! analyzed as its bytes arrive. [`replay_trace`] is that machine fed a
//! whole trace, then finished.
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
use std::collections::VecDeque;
use std::rc::Rc;

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
    /// A run of `rank`'s `Local` events with no other event between
    /// them, in stream order: each as if passed to [`ReplayTarget::event`].
    fn locals(&mut self, rank: RankId, run: &[TraceEvent]) {
        for ev in run {
            self.event(rank, ev);
        }
    }
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

/// The access of `rank`'s recorded `Local` event, or `None` when the
/// alias analysis filtered it out (untracked).
fn local_access(rank: RankId, ev: &TraceEvent) -> Option<MemAccess> {
    let TraceEvent::Local { interval, write, tracked: true, loc, .. } = *ev else {
        return None;
    };
    let kind = if write { AccessKind::LocalWrite } else { AccessKind::LocalRead };
    Some(MemAccess::new(interval, kind, rank, loc))
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

/// A run of one rank's arrived events: `events.all()[lo..hi]`.
struct Seg<'a> {
    events: Events<'a>,
    lo: usize,
    hi: usize,
}

/// Arrived events: a borrowed slice, a batch one rank owns, or a batch
/// shared by the ranks it straddles.
enum Events<'a> {
    Borrowed(&'a [TraceEvent]),
    Owned(Vec<TraceEvent>),
    Shared(Rc<Vec<TraceEvent>>),
}

impl<'a> Events<'a> {
    fn all(&self) -> &[TraceEvent] {
        match self {
            Events::Borrowed(s) => s,
            Events::Owned(v) => v,
            Events::Shared(v) => v,
        }
    }

    /// A second handle on the same events; an owned batch becomes
    /// shared first. Never copies an event.
    fn share(&mut self) -> Events<'a> {
        if let Events::Owned(v) = self {
            *self = Events::Shared(Rc::new(std::mem::take(v)));
        }
        match self {
            Events::Borrowed(s) => Events::Borrowed(s),
            Events::Shared(v) => Events::Shared(v.clone()),
            Events::Owned(_) => unreachable!("made shared above"),
        }
    }
}

/// One rank's side of the schedule.
#[derive(Default)]
struct RankState<'a> {
    /// The oldest arrived segment the schedule has not run yet; `rest`
    /// holds any later ones. Inline, because a rank rarely holds more
    /// than one.
    head: Option<Seg<'a>>,
    rest: VecDeque<Seg<'a>>,
    /// No more events will arrive: the rank's `Finish` arrived, or
    /// [`Replayer::end_rank`] ended its stream.
    closed: bool,
    /// The collective the rank is parked on.
    parked: Option<(Pending, TraceEvent)>,
    finished: bool,
}

impl<'a> RankState<'a> {
    /// Runs the rank to its next sync point. `false` means it ran out
    /// of arrived events mid-run and more may still come; with `ended`
    /// (the input is over) or a closed stream, running out finishes the
    /// rank instead — a stream that ended without `Finish`.
    fn run(
        &mut self,
        rank: RankId,
        target: &mut dyn ReplayTarget,
        fed: &mut usize,
        ended: bool,
    ) -> bool {
        while self.parked.is_none() && !self.finished {
            let Some(seg) = self.head.as_mut() else {
                if self.closed || ended {
                    self.finished = true;
                    break;
                }
                return false;
            };
            let events = &seg.events.all()[seg.lo..seg.hi];
            let mut used = events.len();
            let mut from = 0; // where the current run of `Local` events starts
            for (i, ev) in events.iter().enumerate() {
                if matches!(ev, TraceEvent::Local { .. }) {
                    continue;
                }
                if from < i {
                    target.locals(rank, &events[from..i]);
                }
                from = i + 1;
                if let Some(p) = pending_of(ev) {
                    target.arrive(rank, ev);
                    self.parked = Some((p, *ev));
                } else if matches!(ev, TraceEvent::Finish) {
                    target.rank_finish(rank);
                    self.finished = true;
                } else {
                    target.event(rank, ev);
                    continue;
                }
                used = i + 1;
                break;
            }
            if from < used {
                target.locals(rank, &events[from..used]);
            }
            *fed += used;
            seg.lo += used;
            if seg.lo == seg.hi {
                self.head = self.rest.pop_front();
            }
        }
        true
    }

    fn queue(&mut self, seg: Seg<'a>) {
        if self.head.is_none() {
            self.head = Some(seg);
        } else {
            self.rest.push_back(seg);
        }
    }

    /// Segments queued.
    #[cfg(test)]
    fn queued(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    fn clear(&mut self) {
        self.head = None;
        self.rest.clear();
    }
}

/// The replay schedule as an incremental machine: events go in as they
/// arrive, in wire order, and each is run the moment the schedule
/// reaches it. See the module docs for the schedule; [`replay_trace`]
/// is this machine fed a whole trace.
///
/// Wire order is rank-major: rank 0's stream, then rank 1's, each
/// closed by its `Finish`. The schedule runs as far as the arrived
/// events allow, then waits where it stands. Events it cannot run yet
/// (a rank the round-robin has not reached, or one parked on a
/// collective) stay queued as the batches they arrived in, shared
/// between the ranks a batch straddles, never copied. A single-rank
/// stream therefore holds at most the batch being run.
pub struct Replayer<'a> {
    target: Box<dyn ReplayTarget + 'a>,
    ranks: Vec<RankState<'a>>,
    /// The rank whose events arrive next.
    arriving: usize,
    /// The rank the current round-robin pass runs next.
    next: usize,
    fed: usize,
    /// Set once the schedule is over: `true` when every rank finished.
    complete: Option<bool>,
}

impl<'a> Replayer<'a> {
    /// A replay of an `nranks`-rank stream into `target`.
    pub fn new(nranks: u32, target: Box<dyn ReplayTarget + 'a>) -> Replayer<'a> {
        Replayer::with_streams(nranks, nranks as usize, target)
    }

    /// `target` starts with `nranks`; the schedule runs `streams` ranks.
    fn with_streams(
        nranks: u32,
        streams: usize,
        mut target: Box<dyn ReplayTarget + 'a>,
    ) -> Replayer<'a> {
        target.start(nranks);
        Replayer {
            target,
            ranks: (0..streams).map(|_| RankState::default()).collect(),
            arriving: 0,
            next: 0,
            fed: 0,
            complete: None,
        }
    }

    /// The next events in wire order; a `Finish` closes the arriving
    /// rank. Runs the schedule as far as they allow. Events past the
    /// last rank, or pushed after the schedule ended, are ignored.
    pub fn push(&mut self, batch: Vec<TraceEvent>) {
        if !batch.is_empty() {
            self.arrive(Events::Owned(batch));
        }
    }

    /// Ends the arriving rank's stream where it stands, without a
    /// `Finish` — a truncated recording. The wire form never needs it.
    pub fn end_rank(&mut self) {
        if let Some(rank) = self.ranks.get_mut(self.arriving) {
            rank.closed = true;
            self.arriving += 1;
            self.advance(false);
        }
    }

    /// The input is over: runs the schedule to its end and produces the
    /// verdict. Ranks still short of `Finish` end where their events do.
    pub fn finish(mut self) -> ReplayOutcome {
        self.advance(true);
        let complete = self.complete.expect("an ended input always ends the schedule");
        self.target.finish(self.fed, complete)
    }

    /// Segments of arrived events the schedule has not run yet.
    #[cfg(test)]
    fn queued(&self) -> usize {
        self.ranks.iter().map(RankState::queued).sum()
    }

    fn arrive(&mut self, mut events: Events<'a>) {
        if self.complete.is_some() {
            return;
        }
        let len = events.all().len();
        let mut lo = 0;
        while lo < len && self.arriving < self.ranks.len() {
            let finish = events.all()[lo..].iter().position(|e| matches!(e, TraceEvent::Finish));
            let hi = finish.map_or(len, |i| lo + i + 1);
            // The last rank this batch reaches takes it; the ranks before
            // share it.
            let events = if hi == len || self.arriving + 1 == self.ranks.len() {
                std::mem::replace(&mut events, Events::Borrowed(&[]))
            } else {
                events.share()
            };
            let rank = &mut self.ranks[self.arriving];
            rank.queue(Seg { events, lo, hi });
            if finish.is_some() {
                rank.closed = true;
                self.arriving += 1;
            }
            lo = hi;
        }
        self.advance(false);
    }

    /// Runs the round-robin passes and collective releases as far as
    /// the arrived events allow (all of them once `ended`).
    fn advance(&mut self, ended: bool) {
        let Replayer { target, ranks, next, fed, complete, .. } = self;
        while complete.is_none() {
            // Run every unparked, unfinished rank to its next sync point.
            while let Some(rank) = ranks.get_mut(*next) {
                if !rank.run(RankId(*next as u32), target.as_mut(), fed, ended) {
                    return; // wait for more of this rank's events
                }
                *next += 1;
            }
            *next = 0;
            if ranks.iter().all(|r| r.finished) {
                *complete = Some(true);
                break;
            }
            // Every unfinished rank is parked now. A collective releases
            // only when *all* ranks (none finished) park on a matching
            // record.
            let first = ranks[0].parked.map(|(p, _)| p);
            if ranks.iter().any(|r| r.finished || r.parked.map(|(p, _)| p) != first) {
                // Some rank finished while others wait, or mismatched
                // collectives: the live run could never release this —
                // the trace is truncated or torn.
                *complete = Some(false);
                break;
            }
            let (_, rep) = ranks[0].parked.expect("all ranks parked");
            for r in ranks.iter_mut() {
                r.parked = None;
            }
            target.release(&rep);
        }
        // The schedule is over: nothing queued will ever run.
        for r in ranks.iter_mut() {
            r.clear();
        }
    }
}

/// Replays `trace` into `target`: every rank's stream pushed into one
/// [`Replayer`], then finished. See the module docs for the schedule.
pub fn replay_trace(trace: &Trace, target: Box<dyn ReplayTarget + '_>) -> ReplayOutcome {
    let mut rep = Replayer::with_streams(trace.header.nranks, trace.streams.len(), target);
    for stream in &trace.streams {
        // A rank's stream ends at its first `Finish`, else at its end.
        match stream.iter().position(|e| matches!(e, TraceEvent::Finish)) {
            Some(i) => rep.arrive(Events::Borrowed(&stream[..=i])),
            None => {
                rep.arrive(Events::Borrowed(stream));
                rep.end_rank();
            }
        }
    }
    rep.finish()
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
            TraceEvent::Local { .. } => self.locals(rank, std::slice::from_ref(ev)),
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

    /// The run's tracked accesses, recorded by [`EpochState::local_run`].
    fn locals(&mut self, rank: RankId, run: &[TraceEvent]) {
        let races = &mut self.races;
        let accs = run.iter().filter_map(|ev| local_access(rank, ev));
        self.epoch.local_run(rank, accs, |_, verdict| races.extend(verdict.err().map(|r| *r)));
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
            TraceEvent::Fence { win } => self.win(win).fence_release(win, |_| true),
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
    fn a_single_rank_stream_is_replayed_as_it_arrives() {
        let writer = Arc::new(TraceWriter::new("solo", 3));
        let out = World::run(WorldCfg::with_ranks(1), writer.clone(), |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(8);
            for _ in 0..3 {
                ctx.win_lock_all(win);
                ctx.put(&buf, 0, 8, RankId(0), 0, win);
                ctx.win_unlock_all(win);
            }
            ctx.win_fence(win);
            ctx.barrier();
        });
        assert!(out.is_clean());
        let trace = writer.trace();
        let whole = replay(&trace, Detector::FragMerge);
        assert!(whole.complete && whole.stats.epochs > 1);
        let events = &trace.streams[0];
        assert!(events.len() > 10, "{} events", events.len());
        for size in [1, 2, 3, 5] {
            let algo = Algorithm::FragMerge;
            let mut rep = Replayer::new(1, Box::new(StoreTarget::new(move || algo.new_store())));
            for batch in events.chunks(size) {
                rep.push(batch.to_vec());
                // Every arrived event has run: only the batch being run
                // was ever held.
                assert_eq!(rep.queued(), 0, "batch size {size}");
            }
            let inc = rep.finish();
            assert_eq!(
                (inc.races, inc.stats, inc.events, inc.complete),
                (whole.races.clone(), whole.stats, whole.events, whole.complete),
                "batch size {size}"
            );
        }
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
