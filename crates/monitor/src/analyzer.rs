//! The RMA-Analyzer runtime: glue between the simulator's instrumentation
//! events and the epoch protocol of [`crate::epoch`] (the paper's
//! Section 5.1 and Section 6 rules, shared with offline replay). This
//! module adds the threading, the notification transport and receiver
//! recovery:
//!
//! * every remote access is *notified* to the target — either inserted
//!   directly under the target slot's lock ([`Delivery::Direct`]) or
//!   sent as a message to a per-rank receiver thread
//!   ([`Delivery::Messages`], the paper's design: "each time a remote
//!   access is initiated... an MPI_Send is called... a thread is created
//!   to receive all the MPI_Send"). Unlike the paper's tool, which sends
//!   one message per access, `Messages` aggregates up to [`BATCH_LEN`]
//!   notifications per (origin, target) into one message;
//! * at `MPI_Win_unlock_all`, all processes join a reduction computing
//!   how many remote accesses were issued towards each window, and wait
//!   for those notifications to be processed before the epoch closes
//!   (notifications still missing after 30 s abort the world);
//! * a fence or barrier release first drains the notifications in
//!   flight.
//!
//! The alias-analysis stand-in: local events flagged `tracked = false`
//! are skipped, like the loads/stores the LLVM alias analysis proves
//! irrelevant. (The MUST-like detector of `rma-must` processes them all —
//! that difference is a measured overhead source in the paper.)

use crate::epoch::{self, EpochState, Slot, SlotCell, Verdict};
use crate::reduce::KeyedReduce;
use rma_substrate::channel::{unbounded, Receiver, Sender};
use rma_substrate::sync::{Condvar, Mutex, RwLock};
use rma_core::{
    AccessStore, BlockedStore, FragMergeStore, Interval, LegacyStore, MemAccess,
    MemGauge, MeteredStore, NaiveStore, RaceReport, StoreRebuild, StoreStats,
};
use rma_sim::{AbortView, HookResult, LocalEvent, Monitor, RankId, RmaEvent, WinId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `Messages` mode: each origin rank coalesces up to this many
/// notifications per target into one [`Note::Batch`], flushed when the
/// buffer fills and at every synchronization point (`unlock_all`,
/// `fence`, `barrier`, world end).
pub const BATCH_LEN: usize = 64;

/// How long `unlock_all` waits for the notifications the epoch-end
/// reduction counts before it declares them lost and aborts the world.
const UNLOCK_PATIENCE: Duration = Duration::from_secs(30);

/// Which insertion algorithm backs the per-(rank, window) stores.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// The pre-paper RMA-Analyzer (path-bound check, no fragmentation, no
    /// merging).
    Legacy,
    /// The paper's contribution (Algorithm 1).
    FragMerge,
    /// Ablation: fragmentation without the merging pass.
    FragmentOnly,
    /// Ablation: full history kept in a flat vector, `O(n)` checks.
    FullHistory,
    /// The paper's Section 6(3) future-work extension: constant-stride
    /// merging of non-adjacent accesses (prototype, see
    /// `rma_core::stride`).
    StrideExtension,
}

impl Algorithm {
    /// Human-readable name used by the benchmark harnesses.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Legacy => "RMA-Analyzer",
            Algorithm::FragMerge => "Our Contribution",
            Algorithm::FragmentOnly => "Fragmentation-only",
            Algorithm::FullHistory => "Full-history",
            Algorithm::StrideExtension => "Stride-merging (Sec. 6 ext.)",
        }
    }

    /// The paper-faithful **reference** store of this algorithm: the AVL
    /// tree [`FragMergeStore`] for the fragmentation-based algorithms,
    /// the one store the others have. Offline pipelines use it as the
    /// differential oracle — `replay`/`Detector`, the minimizer and
    /// generated tests, the corpus, and perfbench's tree timing — so a
    /// reference replay never runs on the production engine it checks.
    /// Production stores come from [`AnalyzerCfg::build_store`].
    pub fn new_store(self) -> Box<dyn AccessStore + Send> {
        match self {
            Algorithm::Legacy => Box::new(LegacyStore::new()),
            Algorithm::FragMerge => Box::new(FragMergeStore::new()),
            Algorithm::FragmentOnly => Box::new(FragMergeStore::without_merging()),
            Algorithm::FullHistory => Box::new(NaiveStore::new()),
            Algorithm::StrideExtension => Box::new(rma_core::StrideMergeStore::new()),
        }
    }

    /// Aggregated statistics over a set of per-store stats (uniform
    /// across store flavours — no downcasting).
    pub fn aggregate_stats(stats: impl IntoIterator<Item = StoreStats>) -> StoreStats {
        let mut total = StoreStats::default();
        for s in stats {
            total.absorb(&s);
        }
        total
    }
}

/// What to do when a race is detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OnRace {
    /// Abort the world (`MPI_Abort`), like the real tool.
    Abort,
    /// Record the report and keep running (used by the validation suite
    /// and by benchmarks on racy inputs).
    Collect,
}

/// How remote-access records reach the target's store.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Delivery {
    /// The origin thread inserts into the target's store under its lock.
    /// Same detection semantics as `Messages`, minus the threading.
    Direct,
    /// The origin sends a notification to the target's receiver thread,
    /// which performs the insertion — the paper's architecture.
    Messages,
}

/// Analyzer configuration.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzerCfg {
    /// Insertion algorithm.
    pub algorithm: Algorithm,
    /// Race reaction.
    pub on_race: OnRace,
    /// Notification transport (`Messages` batches, see [`BATCH_LEN`]).
    pub delivery: Delivery,
    /// Per-store node budget: when set, every per-(rank, window) store
    /// conservatively coalesces its contents whenever the node count
    /// exceeds this cap (graceful degradation — possible false positives,
    /// never false negatives; see [`rma_core::FragMergeStore::with_budget`]).
    pub node_budget: Option<usize>,
    /// How many receiver-thread deaths ([`Delivery::Messages`]) each
    /// rank's supervisor absorbs by checkpoint-restore + journal
    /// redelivery before giving up. Beyond the budget a dead receiver
    /// becomes a structured world abort, never a hang. `0` disables
    /// recovery. Ignored under [`Delivery::Direct`] (no helper threads).
    pub max_respawns: u32,
}

impl Default for AnalyzerCfg {
    fn default() -> Self {
        AnalyzerCfg {
            algorithm: Algorithm::FragMerge,
            on_race: OnRace::Abort,
            delivery: Delivery::Direct,
            node_budget: None,
            max_respawns: 3,
        }
    }
}

impl AnalyzerCfg {
    /// Configuration with the given algorithm, aborting on races, direct
    /// delivery.
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        AnalyzerCfg { algorithm, ..Self::default() }
    }

    /// The same configuration with a per-store node budget applied.
    pub fn budgeted(self, cap: usize) -> Self {
        AnalyzerCfg { node_budget: Some(cap), ..self }
    }

    /// Builds one per-(rank, window) store: the single production store
    /// constructor (live analyzer, served replay, brownout rebuilds).
    /// The fragmentation-based algorithms run on [`BlockedStore`], with
    /// `node_budget` as its whole-store budget; the other algorithms
    /// have one store each. The domain argument is ignored (no engine
    /// needs an address-range hint); it stays only so the perfbench
    /// harness's `build_store(None)` calls compile.
    pub fn build_store(&self, _domain: Option<Interval>) -> Box<dyn AccessStore + Send> {
        let merging = match self.algorithm {
            Algorithm::FragMerge => true,
            Algorithm::FragmentOnly => false,
            other => return other.new_store(),
        };
        Box::new(BlockedStore::with_cfg(merging, self.node_budget))
    }

    /// Like [`AnalyzerCfg::build_store`], but the store keeps its node
    /// count synced into `gauge` and retro-coalesces (FP-only, see
    /// [`rma_core::gauge`]) when the gauge crosses its budget and this
    /// store exceeds its fair share. Brownout replacements are built
    /// from this same configuration with `node_budget` set to the cap.
    pub fn build_store_metered(&self, gauge: &MemGauge) -> Box<dyn AccessStore + Send> {
        let cfg = *self;
        let rebuild: StoreRebuild = Box::new(move |cap| cfg.budgeted(cap).build_store(None));
        Box::new(MeteredStore::new(self.build_store(None), rebuild, gauge.clone()))
    }
}

/// The live epoch state: each (window, rank) slot behind its own lock.
type LiveEpoch = EpochState<Mutex<Slot>>;

/// Per-window notification accounting shared by all ranks.
struct WinDet {
    epoch_seq: Vec<AtomicU64>,
    /// Cumulative count of remote accesses issued by rank `o` towards
    /// rank `t`'s window: `sent[o][t]`.
    sent: Vec<Mutex<Vec<u64>>>,
    /// Cumulative count of remote-access records processed at each
    /// target.
    received: Vec<AtomicU64>,
    /// Wakes ranks waiting for `received` to advance.
    recv_gate: (Mutex<()>, Condvar),
}

impl WinDet {
    fn new(nranks: u32) -> Self {
        let n = nranks as usize;
        WinDet {
            epoch_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sent: (0..n).map(|_| Mutex::new(vec![0; n])).collect(),
            received: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recv_gate: (Mutex::new(()), Condvar::new()),
        }
    }

    /// Waits, for up to 5 s or until `cancelled`, until every
    /// notification sent on this window has been processed; `true` when
    /// drained. Called with every rank thread parked in a collective.
    fn drain(&self, cancelled: impl Fn() -> bool) -> bool {
        let expected: u64 = self.sent.iter().map(|s| s.lock().iter().sum::<u64>()).sum();
        let received = || self.received.iter().map(|r| r.load(Ordering::Acquire)).sum::<u64>();
        self.wait_until(|| received() >= expected, Duration::from_secs(5), cancelled)
    }

    /// Waits until `received[rank] >= expected`; `false` on cancel or
    /// after `patience`.
    fn wait_received(
        &self,
        rank: RankId,
        expected: u64,
        patience: Duration,
        cancelled: impl Fn() -> bool,
    ) -> bool {
        let received = &self.received[rank.index()];
        self.wait_until(|| received.load(Ordering::Acquire) >= expected, patience, cancelled)
    }

    /// Publishes `n` more processed notifications at `target`.
    fn bump_received(&self, target: RankId, n: u64) {
        self.received[target.index()].fetch_add(n, Ordering::Release);
        let _g = self.recv_gate.0.lock();
        self.recv_gate.1.notify_all();
    }

    /// The one wait for processed notifications: blocks on the receive
    /// gate, which every [`WinDet::bump_received`] notifies, until
    /// `done`; `false` on cancel or after `patience`. Cancellation does
    /// not notify the gate, so it is polled every 2 ms.
    fn wait_until(
        &self,
        done: impl Fn() -> bool,
        patience: Duration,
        cancelled: impl Fn() -> bool,
    ) -> bool {
        let deadline = Instant::now() + patience;
        let mut guard = self.recv_gate.0.lock();
        loop {
            if done() {
                return true;
            }
            if cancelled() || Instant::now() >= deadline {
                return false;
            }
            self.recv_gate.1.wait_for(&mut guard, Duration::from_millis(2));
        }
    }
}

/// A message to a receiver thread (the payload of the paper's
/// `MPI_Send`).
enum Note {
    /// A run of remote-access notifications, numbered from `base_seq` in
    /// order. Seqs number the notifications towards one target rank
    /// monotonically (assigned under that rank's journal lock, so
    /// channel order equals sequence order). The receiver applies
    /// items one at a time against its watermark, so a crash mid-batch
    /// leaves the watermark mid-batch and recovery re-delivers exactly
    /// the unprocessed tail: at-least-once on the wire, exactly-once in
    /// analysis effect.
    Batch { base_seq: u64, items: Vec<(WinId, MemAccess)> },
    Stop,
}

/// One supervised journal entry (`Messages` mode): an access bound for
/// rank `r`'s stores, retained since `r`'s last checkpoint so a receiver
/// death can be recovered by restore + redelivery.
enum RecvEntry {
    /// Inserted inline by a rank thread (a local access or the
    /// origin-side record of an operation): already applied, so a
    /// recovery replays it *silently* — its race, if any, was reported
    /// when first recorded.
    Applied { win: WinId, acc: MemAccess },
    /// Sent to the receiver as a notification. On recovery the
    /// watermark decides: at or below it the entry was processed
    /// (silent replay); above it the entry is still owed and is re-sent
    /// through the fresh channel and the normal reporting path.
    Sent { seq: u64, win: WinId, acc: MemAccess },
}

/// A live receiver thread plus its abrupt-kill switch. The flag is
/// checked before each note: setting it makes the receiver abandon its
/// backlog, which is how a *crash* differs from a clean `Note::Stop`
/// (FIFO delivery would let a queued Stop drain the backlog first).
struct RecvWorker {
    die: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// Supervision journal of one rank's receiver (guarded state).
#[derive(Default)]
struct RecvJournal {
    /// Everything bound for this rank's stores since the checkpoint.
    entries: Vec<RecvEntry>,
    /// Notifications sent towards this rank so far (seqs `1..=sent_seq`).
    sent_seq: u64,
    /// Per-window snapshots of this rank's stores, taken at the last
    /// quiescent epoch boundary (windows created later restore empty).
    checkpoint: Vec<Vec<MemAccess>>,
    /// Recoveries performed for this rank so far.
    respawns: u32,
    /// The receiver thread; `None` once dead beyond the budget.
    worker: Option<RecvWorker>,
}

/// Per-rank receiver supervision (`Messages` mode).
///
/// Lock order: `journal` → `epoch` read → slot lock → (`senders`/`wins`). The
/// receiver itself never takes `journal`, so killing and joining it
/// while holding the journal lock cannot deadlock.
struct RecvSup {
    journal: Mutex<RecvJournal>,
    /// Highest notification seq fully processed at this rank (the
    /// redelivery watermark). Advanced only by the receiver, under the
    /// target store's lock; read by recovery after joining the dead
    /// receiver, so it is exact there.
    processed: AtomicU64,
}

/// One origin rank's unflushed notification batch towards one target:
/// the window and access of every buffered `Note` item, in issue order.
type BatchBuf = Mutex<Vec<(WinId, MemAccess)>>;

/// Shared innards of the analyzer (receiver threads hold a second Arc).
struct Inner {
    cfg: AnalyzerCfg,
    nranks: AtomicU64,
    /// The per-(window, rank) stores and epoch marks. Lock order:
    /// journal → `epoch` (read) → slot.
    epoch: RwLock<LiveEpoch>,
    wins: RwLock<Vec<Arc<WinDet>>>,
    collected: Mutex<Vec<RaceReport>>,
    reduce: KeyedReduce<(u32, u64, u8)>,
    poisoned: AtomicBool,
    abort_view: Mutex<Option<AbortView>>,
    senders: RwLock<Vec<Sender<Note>>>,
    /// Per-rank receiver supervision (`Messages` mode; empty otherwise).
    sup: RwLock<Vec<Arc<RecvSup>>>,
    /// `Messages`-mode batch buffers, `pending[origin][target]`: window
    /// and access of every notification origin has issued towards target
    /// but not yet flushed into target's journal + channel. Empty under
    /// `Direct`. Lock order: buffer mutex → target journal (never the
    /// reverse).
    pending: RwLock<Vec<Vec<BatchBuf>>>,
    /// Total receiver recoveries performed across all ranks.
    total_respawns: AtomicU64,
    /// `MPI_Win_flush` calls observed but (deliberately) not acted upon —
    /// the paper's Section 6: "we cannot support this synchronization
    /// function yet".
    unsupported_flushes: AtomicU64,
}

impl Inner {
    fn nranks(&self) -> u32 {
        self.nranks.load(Ordering::Relaxed) as u32
    }

    fn cancelled(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
            || self
                .abort_view
                .lock()
                .as_ref()
                .is_some_and(|v| v.is_aborted())
    }

    fn windet(&self, win: WinId) -> Arc<WinDet> {
        self.wins.read()[win.index()].clone()
    }

    /// In `Abort` mode: the race (if any) a worker/receiver found, which
    /// the calling rank thread should escalate into an `MPI_Abort`.
    fn pending_poison(&self) -> HookResult {
        if self.cfg.on_race == OnRace::Abort && self.poisoned.load(Ordering::Relaxed) {
            if let Some(r) = self.collected.lock().last() {
                return Err(Box::new(*r));
            }
        }
        Ok(())
    }

    /// Registers a race and decides whether the acting rank must abort.
    fn race(&self, report: Box<RaceReport>) -> HookResult {
        self.collected.lock().push(*report);
        match self.cfg.on_race {
            OnRace::Abort => {
                self.poisoned.store(true, Ordering::Relaxed);
                Err(report)
            }
            OnRace::Collect => Ok(()),
        }
    }

    /// `Messages`-mode receiver side: records the target halves of one
    /// [`Note::Batch`], numbered `base_seq..` in order. The watermark
    /// makes analysis exactly-once: a redelivered duplicate is skipped
    /// and counts nothing. A run of consecutive same-window items is
    /// applied under a single slot-lock acquisition, the processed count
    /// advances by the whole run at once and the receive gate is
    /// notified once per run.
    /// Races found here are escalated by the next hook on any rank
    /// thread (via `pending_poison`).
    ///
    /// Returns `false` if the kill flag fired mid-run; the watermark
    /// then sits exactly at the last processed item and recovery
    /// re-delivers the unprocessed tail.
    fn deliver_recv(
        &self,
        items: &[(WinId, MemAccess)],
        target: RankId,
        base_seq: u64,
        die: &AtomicBool,
    ) -> bool {
        let sup = self.sup.read()[target.index()].clone();
        let mut i = 0;
        while i < items.len() {
            let win = items[i].0;
            let w = self.windet(win);
            let mut raced: Option<Box<RaceReport>> = None;
            let mut delivered = 0u64;
            let mut killed = false;
            self.epoch.read().slot(win, target).with(|slot| {
                while i < items.len() && items[i].0 == win {
                    // A kill can land mid-run: the loop exits with the
                    // watermark mid-batch, exactly at the last item
                    // processed.
                    if die.load(Ordering::Acquire) {
                        killed = true;
                        break;
                    }
                    let seq = base_seq + i as u64;
                    if sup.processed.load(Ordering::Acquire) < seq {
                        let verdict = slot.store().record(items[i].1);
                        // Watermark and store advance together (same
                        // critical section): a recovery joining this
                        // thread sees both effects of a note or neither.
                        sup.processed.store(seq, Ordering::Release);
                        match verdict {
                            Ok(()) => delivered += 1,
                            Err(report) => {
                                // End the run: the race must be registered
                                // (outside the store lock, and before this
                                // item counts as received) so a rank woken
                                // by `wait_received` observes the poison.
                                raced = Some(report);
                                i += 1;
                                break;
                            }
                        }
                    }
                    i += 1;
                }
            });
            if let Some(report) = raced {
                let _ = self.race(report);
                delivered += 1;
            }
            w.bump_received(target, delivered);
            if killed {
                return false;
            }
        }
        true
    }

    /// Records into `rank`'s own slots from its rank thread: `rule`
    /// applies epoch rules and reports each (window, access, verdict)
    /// it recorded. In `Messages` mode the rule runs, and each insert is
    /// journaled, under the rank's journal lock, so a concurrent
    /// recovery either replays the entry or observes a store without
    /// it, never a torn state. Returns the first race's hook result.
    fn record_inline(
        &self,
        rank: RankId,
        rule: impl FnOnce(&LiveEpoch, &mut dyn FnMut(WinId, MemAccess, Verdict)),
    ) -> HookResult {
        let sups = (self.cfg.delivery == Delivery::Messages).then(|| self.sup.read());
        let mut journal = sups.as_ref().map(|s| s[rank.index()].journal.lock());
        let mut hook = Ok(());
        rule(&self.epoch.read(), &mut |win, acc, verdict| match verdict {
            // A racing access is never inserted, so it is not journaled
            // either: a replay reproduces exactly the stored contents.
            Ok(()) => {
                if let Some(j) = journal.as_mut() {
                    j.entries.push(RecvEntry::Applied { win, acc });
                }
            }
            Err(report) => {
                let raced = self.race(report);
                if hook.is_ok() {
                    hook = raced;
                }
            }
        });
        hook
    }
}

/// The RMA-Analyzer monitor. Attach one per world run:
///
/// ```
/// use rma_monitor::{RmaAnalyzer, AnalyzerCfg, Algorithm};
/// use rma_sim::{World, WorldCfg, RankId};
/// use std::sync::Arc;
///
/// let analyzer = Arc::new(RmaAnalyzer::new(AnalyzerCfg::with_algorithm(Algorithm::FragMerge)));
/// let out = World::run(WorldCfg::with_ranks(2), analyzer.clone(), |ctx| {
///     let win = ctx.win_allocate(8);
///     let buf = ctx.alloc(8);
///     ctx.win_lock_all(win);
///     if ctx.rank() == RankId(0) {
///         ctx.put(&buf, 0, 8, RankId(1), 0, win);
///     }
///     ctx.win_unlock_all(win);
/// });
/// assert!(out.is_clean());
/// assert!(analyzer.races().is_empty());
/// ```
pub struct RmaAnalyzer {
    inner: Arc<Inner>,
}

impl RmaAnalyzer {
    /// Creates an analyzer with the given configuration.
    pub fn new(cfg: AnalyzerCfg) -> Self {
        RmaAnalyzer {
            inner: Arc::new(Inner {
                cfg,
                nranks: AtomicU64::new(0),
                epoch: RwLock::new(EpochState::new(0)),
                wins: RwLock::new(Vec::new()),
                collected: Mutex::new(Vec::new()),
                reduce: KeyedReduce::default(),
                poisoned: AtomicBool::new(false),
                abort_view: Mutex::new(None),
                senders: RwLock::new(Vec::new()),
                sup: RwLock::new(Vec::new()),
                pending: RwLock::new(Vec::new()),
                total_respawns: AtomicU64::new(0),
                unsupported_flushes: AtomicU64::new(0),
            }),
        }
    }

    /// All races detected so far (in `Collect` mode: the full list; in
    /// `Abort` mode: the one(s) that stopped the world).
    pub fn races(&self) -> Vec<RaceReport> {
        self.inner.collected.lock().clone()
    }

    /// Per-window, per-rank store statistics.
    pub fn window_stats(&self) -> Vec<Vec<StoreStats>> {
        self.inner.epoch.read().window_stats()
    }

    /// Sum of peak node counts over every store — the paper's "number of
    /// nodes in the BST" aggregated over the run (Table 4, Section 5.3).
    pub fn total_peak_nodes(&self) -> usize {
        self.window_stats().iter().flatten().map(|s| s.peak_len).sum()
    }

    /// Sum over stores of the node count accumulated at each epoch end.
    pub fn total_epoch_end_nodes(&self) -> usize {
        self.window_stats()
            .iter()
            .flatten()
            .map(|s| s.cum_epoch_end_len)
            .sum()
    }

    /// Total dynamic accesses recorded by all stores.
    pub fn total_recorded(&self) -> usize {
        self.window_stats().iter().flatten().map(|s| s.recorded).sum()
    }

    /// Number of `MPI_Win_flush` calls the analyzer observed but did not
    /// act on (its documented Section 6 limitation).
    pub fn unsupported_flushes(&self) -> u64 {
        self.inner.unsupported_flushes.load(Ordering::Relaxed)
    }

    /// Total receiver recoveries performed so far (`Messages` mode).
    pub fn respawns(&self) -> u32 {
        self.inner.total_respawns.load(Ordering::Relaxed) as u32
    }

    fn spawn_receiver(&self, rank: RankId, rx: Receiver<Note>) -> RecvWorker {
        let die = Arc::new(AtomicBool::new(false));
        let die_flag = die.clone();
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rma-analyzer-recv{}", rank.0))
            .spawn(move || {
                while let Ok(note) = rx.recv() {
                    // Abrupt-kill check before each note: a killed
                    // receiver abandons its backlog, modeling a crash.
                    if die_flag.load(Ordering::Acquire) {
                        break;
                    }
                    // The kill flag is re-checked per item inside: a
                    // crash can land mid-batch, leaving the watermark
                    // mid-batch, and recovery must re-deliver exactly
                    // the unprocessed tail.
                    let Note::Batch { base_seq, items } = note else { break };
                    if !inner.deliver_recv(&items, rank, base_seq, &die_flag) {
                        break;
                    }
                }
            })
            .expect("failed to spawn receiver thread");
        RecvWorker { die, handle }
    }

    /// `Messages`-mode send path: appends the notification to the
    /// per-(origin, target) buffer and flushes it once it holds
    /// [`BATCH_LEN`]. Only ever called from origin's own rank thread, so
    /// each buffer is filled single-threadedly.
    fn buffer_remote(&self, origin: RankId, target: RankId, win: WinId, acc: MemAccess) {
        let full = {
            let pending = self.inner.pending.read();
            let mut buf = pending[origin.index()][target.index()].lock();
            buf.push((win, acc));
            buf.len() >= BATCH_LEN
        };
        if full {
            self.flush_batch(origin, target);
        }
    }

    /// Flushes one `pending[origin][target]` buffer: assigns the run of
    /// sequence numbers and journals every entry under the target's
    /// journal lock *before* sending the batch. A failed send means the
    /// receiver is gone *without* a fault hook having run (spontaneous
    /// death): recovery happens lazily right here — `recover_locked`
    /// re-delivers the journaled-but-unprocessed suffix, this batch
    /// included, through the fresh channel — and beyond the budget the
    /// rank aborts the world through a structured panic instead of
    /// losing the notifications.
    fn flush_batch(&self, origin: RankId, target: RankId) {
        let items =
            std::mem::take(&mut *self.inner.pending.read()[origin.index()][target.index()].lock());
        if items.is_empty() {
            return;
        }
        let sup = self.inner.sup.read()[target.index()].clone();
        let mut j = sup.journal.lock();
        let base_seq = j.sent_seq + 1;
        for (i, (win, acc)) in items.iter().enumerate() {
            j.entries.push(RecvEntry::Sent { seq: base_seq + i as u64, win: *win, acc: *acc });
        }
        j.sent_seq += items.len() as u64;
        let sent = self.inner.senders.read()[target.index()]
            .send(Note::Batch { base_seq, items })
            .is_ok();
        if !sent && !self.recover_locked(target, &sup, &mut j) {
            panic!(
                "RMA-Analyzer receiver for rank {} died beyond the respawn \
                 budget with a notification batch in flight; aborting world",
                target.0
            );
        }
    }

    /// Flushes every batch buffer held by `origin` (all targets). Called
    /// at origin's synchronization points — before any epoch-close
    /// accounting reads `sent` counts that the buffered notifications
    /// already contributed to.
    fn flush_pending_from(&self, origin: RankId) {
        if self.inner.cfg.delivery != Delivery::Messages {
            return;
        }
        for t in 0..self.inner.nranks() {
            if RankId(t) != origin {
                self.flush_batch(origin, RankId(t));
            }
        }
    }

    /// Recovers rank `rank`'s dead receiver under its journal lock:
    /// joins the old thread, restores every store of the rank from the
    /// last epoch-boundary checkpoint, spawns a fresh receiver on a
    /// fresh channel, and re-delivers the journal (processed entries
    /// silently, the unprocessed suffix through the new channel).
    /// Returns `false` — leaving the rank receiver-less — once the
    /// respawn budget is exhausted.
    fn recover_locked(&self, rank: RankId, sup: &Arc<RecvSup>, j: &mut RecvJournal) -> bool {
        if let Some(w) = j.worker.take() {
            let _ = w.handle.join();
        }
        if j.respawns >= self.inner.cfg.max_respawns {
            return false;
        }
        j.respawns += 1;
        self.inner.total_respawns.fetch_add(1, Ordering::Relaxed);
        // Backoff before the respawn: transient causes of the death
        // (resource exhaustion) get room to clear; repeated deaths pay
        // progressively more. Held under the journal lock deliberately —
        // nothing may touch this rank's stores mid-recovery anyway.
        std::thread::sleep(Duration::from_millis(1 << j.respawns.min(5)));
        // Restore: roll every store of this rank back to the checkpoint
        // *before* re-delivering — replaying an already-recorded access
        // against a store that still holds it would self-conflict.
        let epoch = self.inner.epoch.read();
        for (wi, slot) in epoch.slots_of(rank).enumerate() {
            let snap = j.checkpoint.get(wi).map(Vec::as_slice).unwrap_or(&[]);
            slot.with(|s| s.store().restore(snap));
        }
        // Fresh channel + receiver; the stale sender is unreachable from
        // here on, so no notification can race past the journal.
        let (tx, rx) = unbounded();
        self.inner.senders.write()[rank.index()] = tx;
        j.worker = Some(self.spawn_receiver(rank, rx));
        // Re-deliver in two passes. Pass 1 reconstructs the pre-kill
        // store: entries the dead receiver had processed (and all inline
        // inserts) replay silently, in journal order — their races were
        // reported the first time. Pass 2 then re-sends the unprocessed
        // suffix, the contiguous seqs `processed + 1..=sent_seq`, as
        // batches through the fresh channel and the normal reporting
        // path, so its races (and `received` counts) surface exactly
        // once. The passes must not interleave: a re-sent note the fresh
        // receiver processes *before* a later silent entry would claim
        // the store slot first and turn that entry's replay into a
        // swallowed — never-reported — race. Splitting them is
        // verdict-safe because the order-sensitive conflict exemption
        // only concerns same-issuer pairs, and every inline insert in
        // this store carries the rank's own issuer while every
        // notification carries a remote one.
        let processed = sup.processed.load(Ordering::Acquire);
        for e in &j.entries {
            let (win, acc) = match e {
                RecvEntry::Applied { win, acc } => (win, acc),
                RecvEntry::Sent { seq, win, acc } if *seq <= processed => (win, acc),
                RecvEntry::Sent { .. } => continue,
            };
            let _ = epoch.slot(*win, rank).with(|s| s.store().record(*acc));
        }
        drop(epoch);
        let owed: Vec<(WinId, MemAccess)> = j
            .entries
            .iter()
            .filter_map(|e| match e {
                RecvEntry::Sent { seq, win, acc } if *seq > processed => Some((*win, *acc)),
                _ => None,
            })
            .collect();
        debug_assert_eq!(owed.len() as u64, j.sent_seq - processed);
        let senders = self.inner.senders.read();
        for (i, items) in owed.chunks(BATCH_LEN).enumerate() {
            let base_seq = processed + 1 + (i * BATCH_LEN) as u64;
            let _ = senders[rank.index()].send(Note::Batch { base_seq, items: items.to_vec() });
        }
        true
    }

    /// Takes an epoch-boundary checkpoint of `rank`'s stores and prunes
    /// its journal — but only when the receiver is provably idle
    /// (watermark equals everything sent): checkpointing mid-backlog
    /// would drop the unprocessed suffix from future recoveries.
    fn checkpoint_recv_if_quiescent(&self, rank: RankId) {
        if self.inner.cfg.delivery != Delivery::Messages {
            return;
        }
        let Some(sup) = self.inner.sup.read().get(rank.index()).cloned() else {
            return;
        };
        let mut j = sup.journal.lock();
        if j.worker.is_none() {
            return; // dead beyond budget: keep the journal as-is
        }
        if sup.processed.load(Ordering::Acquire) != j.sent_seq {
            return;
        }
        // Inline inserts and sends towards this rank both hold the
        // journal lock, and the idle receiver has nothing queued: the
        // snapshot below is a consistent cut of the rank's stores.
        j.checkpoint = self
            .inner
            .epoch
            .read()
            .slots_of(rank)
            .map(|slot| slot.with(|s| s.store().snapshot()))
            .collect();
        j.entries.clear();
    }

    /// The `unlock_all` hook, waiting at most `patience` for the
    /// notifications towards `rank` that the epoch-end reduction counts.
    fn unlock_all(&self, rank: RankId, win: WinId, patience: Duration) -> HookResult {
        let inner = &self.inner;
        let w = inner.windet(win);
        // Buffered batches contributed to `sent` when issued; flush them
        // into the channels before the reduction reads those counts, or
        // `wait_received` would wait for notifications never sent.
        self.flush_pending_from(rank);
        let seq = w.epoch_seq[rank.index()].load(Ordering::Relaxed);

        // The paper's epoch-end reduction: every rank contributes its
        // cumulative per-target notification counts; entry `t` of the sum
        // is the total number of notifications rank `t` must have
        // processed before it may clear its store.
        let sent: Vec<u64> = w.sent[rank.index()].lock().clone();
        let expected = inner.reduce.allreduce(
            (win.0, seq, 0),
            &sent,
            inner.nranks(),
            || inner.cancelled(),
        );
        let Some(expected) = expected else {
            // The reduce was cancelled: either another rank aborted the
            // world, or a receiver thread found a race (poisoning). In
            // the latter case this rank must escalate the abort itself.
            return inner.pending_poison();
        };
        if !w.wait_received(rank, expected[rank.index()], patience, || inner.cancelled()) {
            if inner.cancelled() {
                return inner.pending_poison();
            }
            // Notifications the reduction counted never arrived. Closing
            // the epoch would drop whatever races they carry, so the
            // world ends the way a receiver lost beyond its respawn
            // budget ends it.
            panic!(
                "RMA-Analyzer rank {} processed {} of {} notifications on window {} \
                 within {patience:?} at unlock_all; aborting world",
                rank.0,
                w.received[rank.index()].load(Ordering::Acquire),
                expected[rank.index()],
                win.0
            );
        }

        // Did draining surface a race (Messages mode)?
        inner.pending_poison()?;

        // End of epoch: every notification towards this rank landed.
        inner.epoch.read().unlock_all(win, rank);
        w.epoch_seq[rank.index()].fetch_add(1, Ordering::Relaxed);

        // Second phase: nobody leaves unlock_all until every rank cleared,
        // so next-epoch notifications cannot be swallowed by this clear.
        let _ = inner
            .reduce
            .allreduce((win.0, seq, 1), &[0], inner.nranks(), || inner.cancelled());

        // Epoch boundary: advance this rank's recovery checkpoint (taken
        // only if its receiver is idle — siblings may still be sending).
        self.checkpoint_recv_if_quiescent(rank);
        Ok(())
    }
}

impl Monitor for RmaAnalyzer {
    fn on_world_start(&self, nranks: u32) {
        self.inner.nranks.store(u64::from(nranks), Ordering::Relaxed);
        *self.inner.epoch.write() = EpochState::new(nranks);
        if self.inner.cfg.delivery == Delivery::Messages {
            let mut senders = self.inner.senders.write();
            let mut sups = self.inner.sup.write();
            for r in 0..nranks {
                let (tx, rx) = unbounded();
                senders.push(tx);
                let sup = Arc::new(RecvSup {
                    journal: Mutex::new(RecvJournal::default()),
                    processed: AtomicU64::new(0),
                });
                sup.journal.lock().worker = Some(self.spawn_receiver(RankId(r), rx));
                sups.push(sup);
            }
            let n = nranks as usize;
            *self.inner.pending.write() = (0..n)
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect();
        }
    }

    fn on_abort_view(&self, view: AbortView) {
        *self.inner.abort_view.lock() = Some(view);
    }

    fn on_world_end(&self) {
        if self.inner.cfg.delivery == Delivery::Messages {
            // Rank threads have all returned; drain any batches they
            // left buffered before stopping the receivers.
            for o in 0..self.inner.nranks() {
                self.flush_pending_from(RankId(o));
            }
            for tx in self.inner.senders.read().iter() {
                let _ = tx.send(Note::Stop);
            }
            let sups: Vec<Arc<RecvSup>> = self.inner.sup.read().clone();
            for sup in sups {
                let worker = sup.journal.lock().worker.take();
                if let Some(w) = worker {
                    let _ = w.handle.join();
                }
            }
            self.inner.senders.write().clear();
        }
    }

    fn on_win_allocate(&self, _rank: RankId, win: WinId, _base: u64, _len: u64) {
        let inner = &self.inner;
        {
            let mut wins = inner.wins.write();
            while wins.len() <= win.index() {
                wins.push(Arc::new(WinDet::new(inner.nranks())));
            }
        }
        inner.epoch.write().ensure_window(win, || inner.cfg.build_store(None));
    }

    fn on_lock_all(&self, rank: RankId, win: WinId) {
        self.inner.epoch.read().open(win, rank);
    }

    fn on_local(&self, ev: &LocalEvent) -> HookResult {
        if !ev.tracked {
            return Ok(()); // filtered out by the alias analysis
        }
        // A receiver thread may have found a race; propagate the abort
        // from this rank thread.
        self.inner.pending_poison()?;
        let acc = MemAccess::new(ev.interval, ev.kind, ev.rank, ev.loc);
        self.inner.record_inline(ev.rank, |epoch, on| {
            epoch.local(ev.rank, acc, |win, verdict| on(win, acc, verdict))
        })
    }

    fn on_rma(&self, ev: &RmaEvent) -> HookResult {
        let inner = &self.inner;
        inner.pending_poison()?;
        let [origin_acc, target_acc] = epoch::rma_halves(ev);
        let w = inner.windet(ev.win);
        w.sent[ev.origin.index()].lock()[ev.target.index()] += 1;
        // The target half is recorded inline too under `Direct`, and for
        // a self-targeted op under `Messages`: the order-aware conflict
        // rule reads the store's insertion order as program order for
        // same-issuer pairs, and only a self-notification can land in
        // the same store as its issuer's local accesses — routed through
        // the receiver it would arrive after later local accesses and
        // turn `Get; Store` into the safe-looking `Store; Get`,
        // nondeterministically masking the race.
        let inline_target = inner.cfg.delivery == Delivery::Direct || ev.target == ev.origin;
        let hook = inner.record_inline(ev.origin, |epoch, on| {
            on(ev.win, origin_acc, epoch.rma_origin(ev.win, ev.origin, origin_acc));
            if inline_target {
                on(ev.win, target_acc, epoch.rma_target(ev.win, ev.target, target_acc));
            }
        });
        if inline_target {
            // The race is registered (poisoning, in Abort mode) before
            // the processed count is published: a rank woken by
            // `wait_received` must already observe the poison flag, or
            // it would close its epoch without escalating the abort.
            w.bump_received(ev.target, 1);
        } else {
            self.buffer_remote(ev.origin, ev.target, ev.win, target_acc);
        }
        hook
    }

    fn on_flush_all(&self, rank: RankId, win: WinId) {
        self.inner.epoch.read().flush_all(win, rank);
    }

    fn on_unlock_all(&self, rank: RankId, win: WinId) -> HookResult {
        self.unlock_all(rank, win, UNLOCK_PATIENCE)
    }

    fn on_flush(&self, _rank: RankId, _win: WinId, _target: RankId) {
        // Section 6, item (2): a per-target flush only orders the calling
        // process's communications; the target cannot know in which order
        // remote accesses from several origins complete, so clearing any
        // store here would cause false negatives. The analyzer therefore
        // keeps everything — which can produce the false positive the
        // paper observed on CFD-Proxy (tested as a documented limitation).
        self.inner.unsupported_flushes.fetch_add(1, Ordering::Relaxed);
    }

    fn on_fence(&self, rank: RankId, win: WinId) {
        // Per-rank fence arrival runs before `on_fence_last`'s drain:
        // flushing here guarantees every buffered notification is in its
        // channel before the drain loop counts arrivals.
        self.flush_pending_from(rank);
        self.inner.epoch.read().open(win, rank);
    }

    fn on_fence_last(&self, win: WinId) {
        // All rank threads are parked in the fence, so no window can be
        // allocated while it drains under the epoch read lock. Release
        // (a window that did not drain keeps its stores: FP-only), then
        // checkpoint every rank whose receiver has drained.
        let inner = &self.inner;
        inner.epoch.read().fence_release(win, |win| inner.windet(win).drain(|| inner.cancelled()));
        for r in 0..inner.nranks() {
            self.checkpoint_recv_if_quiescent(RankId(r));
        }
    }

    fn on_barrier(&self, rank: RankId) {
        // Per-rank barrier arrival runs before `on_barrier_last`: flush
        // so the flush+barrier clearing rule sees every notification in
        // flight rather than parked in a batch buffer.
        self.flush_pending_from(rank);
    }

    fn on_barrier_last(&self) {
        // All rank threads are parked in the barrier, so no window can be
        // allocated while a flushed window drains (Messages mode) under
        // the epoch read lock. Then checkpoint every drained receiver.
        let inner = &self.inner;
        inner.epoch.read().barrier_release(|win| inner.windet(win).drain(|| inner.cancelled()));
        for r in 0..inner.nranks() {
            self.checkpoint_recv_if_quiescent(RankId(r));
        }
    }

    fn on_fault_kill_worker(&self, rank: RankId) -> bool {
        if self.inner.cfg.delivery != Delivery::Messages {
            return false; // no helper thread to kill
        }
        let Some(sup) = self.inner.sup.read().get(rank.index()).cloned() else {
            return false;
        };
        let mut j = sup.journal.lock();
        if let Some(w) = &j.worker {
            // Abrupt kill: the flag makes the receiver abandon whatever
            // backlog it holds (a queued Stop could never skip the FIFO);
            // the Stop below only wakes a receiver blocked in `recv`.
            w.die.store(true, Ordering::Release);
            let _ = self.inner.senders.read()[rank.index()].send(Note::Stop);
        }
        // Synchronous kill-and-recover keeps respawn counts a pure
        // function of the fault plan and the budget (deterministic
        // chaos JSON); beyond the budget the death is a structured
        // abort right here, never a stalled quiescence wait.
        if !self.recover_locked(rank, &sup, &mut j) {
            panic!(
                "RMA-Analyzer receiver for rank {} died beyond the respawn \
                 budget; aborting world",
                rank.0
            );
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Legacy.name(), "RMA-Analyzer");
        assert_eq!(Algorithm::FragMerge.name(), "Our Contribution");
    }

    #[test]
    fn default_cfg_is_paper_algorithm() {
        let cfg = AnalyzerCfg::default();
        assert_eq!(cfg.algorithm, Algorithm::FragMerge);
        assert_eq!(cfg.on_race, OnRace::Abort);
    }

    /// `unlock_all`'s patience in [`lost_notifications_abort_the_world`].
    const LOST_PATIENCE: Duration = Duration::from_millis(200);

    /// A `Messages` analyzer whose batches from rank 0 to rank 1 are
    /// lost on the way, and whose `unlock_all` waits [`LOST_PATIENCE`].
    struct LosingAnalyzer(RmaAnalyzer);

    impl Monitor for LosingAnalyzer {
        fn on_world_start(&self, nranks: u32) {
            self.0.on_world_start(nranks);
        }
        fn on_abort_view(&self, view: AbortView) {
            self.0.on_abort_view(view);
        }
        fn on_world_end(&self) {
            self.0.on_world_end();
        }
        fn on_win_allocate(&self, rank: RankId, win: WinId, base: u64, len: u64) {
            self.0.on_win_allocate(rank, win, base, len);
        }
        fn on_lock_all(&self, rank: RankId, win: WinId) {
            self.0.on_lock_all(rank, win);
        }
        fn on_rma(&self, ev: &RmaEvent) -> HookResult {
            self.0.on_rma(ev)
        }
        fn on_unlock_all(&self, rank: RankId, win: WinId) -> HookResult {
            if rank == RankId(0) {
                self.0.inner.pending.read()[0][1].lock().clear();
            }
            self.0.unlock_all(rank, win, LOST_PATIENCE)
        }
    }

    /// Three puts whose notifications never reach rank 1: its
    /// `unlock_all` runs out of patience and aborts the world with a
    /// structured panic, where it used to close the epoch as if clean.
    #[test]
    fn lost_notifications_abort_the_world() {
        let mon = Arc::new(LosingAnalyzer(RmaAnalyzer::new(AnalyzerCfg {
            delivery: Delivery::Messages,
            ..AnalyzerCfg::default()
        })));
        let out = rma_sim::World::run(rma_sim::WorldCfg::with_ranks(2), mon, |ctx| {
            let win = ctx.win_allocate(64);
            let buf = ctx.alloc(8);
            ctx.win_lock_all(win);
            if ctx.rank() == RankId(0) {
                for i in 0..3 {
                    ctx.put(&buf, 0, 8, RankId(1), 8 * i, win);
                }
            }
            ctx.win_unlock_all(win);
        });
        let [(rank, msg)] = &out.panics[..] else { panic!("one structured panic: {out:?}") };
        assert_eq!(*rank, RankId(1));
        assert!(msg.contains("rank 1 processed 0 of 3 notifications on window 0"), "{msg}");
    }
}
