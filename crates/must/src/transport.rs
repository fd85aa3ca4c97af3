//! The tool-side event transport and its supervisor.
//!
//! The real MUST is a distributed tool: the instrumented application
//! hands every event to tool agents which forward it (through MUST's
//! overlay network) to analysis modules; synchronization points wait for
//! the relevant analyses to quiesce. That transport — packing an event
//! record, shipping the origin's vector clock with it, queueing, and the
//! quiescence waits at epoch boundaries — is a first-order component of
//! MUST-RMA's measured overhead, so it is modelled here as a real worker
//! thread fed through a FIFO channel, not approximated by a constant.
//!
//! A single global FIFO preserves causal order: if event A is enqueued
//! before a synchronization that happens-before event B's enqueue, A is
//! processed before B, so happens-before verdicts are interleaving-safe.
//! That interleaving-safety is also what makes *recovery* sound: after a
//! worker death the journal is replayed in sequence order, which is a
//! legal interleaving of the original event stream, so the replayed
//! analysis reaches the same verdicts.
//!
//! # Supervision
//!
//! The [`Supervisor`] owns the analysis worker and makes its death
//! survivable:
//!
//! * every shipped `Msg::Op` carries a **monotone sequence number**;
//! * every shadow-affecting event (shipped operations *and* the inline
//!   local accesses the rank threads check in-process) is retained in an
//!   **in-flight journal**;
//! * at epoch boundaries — after a successful quiescence wait, with the
//!   journal lock held so no rank can ship concurrently — the supervisor
//!   takes a **checkpoint** (every rank's [`Shadow::snapshot`], the race
//!   list, and the processed-sequence watermark) and prunes the journal.
//!   The checkpoint is the effective *ack*: entries are only dropped
//!   once their effects are safely snapshotted;
//! * on `WorkerDead` the supervisor restores the checkpoint, respawns
//!   the worker (retry-with-backoff, bounded by the respawn budget) and
//!   **re-delivers** the journal: operations through the fresh channel,
//!   journaled locals applied in place. Delivery is at-least-once; the
//!   worker dedups by sequence number, so the analysis effect is
//!   exactly-once.
//!
//! Restoring to the checkpoint before replay is not an optimization but
//! a correctness requirement: a shipped clock does not cover its *own*
//! operation's shadow epoch (the origin ticks past the snapshot at issue
//! time), so re-processing an operation against a shadow that already
//! holds its record would make the operation race with itself.
//!
//! Rank vector clocks are deliberately **not** part of the checkpoint:
//! they live in the rank threads and advance with the application, which
//! does not roll back. Journal entries own a copy of the clock they were
//! issued with, so replay is self-contained.
//!
//! Lock order (must hold everywhere): rank state → supervisor journal →
//! shadow → races → processed. Inline local records are journaled *and*
//! applied under the journal lock — otherwise a recovery running between
//! the two steps would replay the entry and the rank thread would apply
//! it again, double-reporting any race it participates in.

use crate::clock::VClock;
use crate::shadow::{Shadow, ShadowAccess};
use rma_substrate::channel::{unbounded, Receiver, Sender};
use rma_substrate::sync::{Condvar, Mutex};
use rma_core::{AccessKind, Interval, RaceReport, RankId, SrcLoc};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An access event shipped to the analysis worker (owns its clock — the
/// O(P) copy the paper blames for the scaling overhead).
#[derive(Clone)]
pub(crate) struct OwnedAccess {
    pub shadow_of: usize,
    pub interval: Interval,
    pub component: usize,
    pub epoch: u64,
    pub clock: VClock,
    pub write: bool,
    pub atomic: bool,
    pub kind: AccessKind,
    pub issuer: RankId,
    pub loc: SrcLoc,
}

pub(crate) enum Msg {
    /// One one-sided operation: origin-side and target-side access
    /// records sharing one shipped clock, tagged with the supervisor's
    /// monotone sequence number.
    Op { seq: u64, pair: Box<[OwnedAccess; 2]> },
    Stop,
}

/// Outcome of a quiescence wait: either everything shipped was analyzed,
/// or the wait was cut short in a way the caller must surface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Quiescence {
    /// All `target` events were processed.
    Drained,
    /// The analysis worker is dead with events still unprocessed. A
    /// detector missing events can no longer certify anything — callers
    /// must turn this into a structured world abort, not wait forever.
    WorkerDead { processed: u64, target: u64 },
    /// The worker is alive but made no progress before the deadline.
    TimedOut { processed: u64, target: u64 },
}

/// State shared between the application-side hooks and the worker.
/// The shadows are also hit inline by the rank threads for plain CPU
/// accesses (ThreadSanitizer runs in-process; only MPI events travel
/// through the tool transport).
pub(crate) struct AnalysisState {
    pub shadows: Vec<Mutex<Shadow>>,
    pub races: Mutex<Vec<RaceReport>>,
    pub poisoned: AtomicBool,
    /// Set (with a wake-up) the moment the worker thread exits — by
    /// `Stop`, by a kill, or by unwinding. Checked inside the
    /// quiescence wait so a dead worker can never hang `unlock_all`.
    /// Cleared by the supervisor once a replacement worker is running.
    worker_dead: AtomicBool,
    /// High-watermark of processed operation sequence numbers (sequences
    /// are contiguous, so this doubles as a processed count). Rolled
    /// back to the checkpoint watermark during recovery.
    processed: Mutex<u64>,
    drained: Condvar,
    /// How long a quiescence wait may go without completion while the
    /// worker is still alive (a dead worker is detected within one
    /// poll). A `MustCfg` knob; the historic default is 30 s.
    deadline: Duration,
}

impl AnalysisState {
    pub fn new(nranks: u32, deadline: Duration) -> Arc<Self> {
        Arc::new(AnalysisState {
            shadows: (0..nranks).map(|_| Mutex::new(Shadow::default())).collect(),
            races: Mutex::new(Vec::new()),
            poisoned: AtomicBool::new(false),
            worker_dead: AtomicBool::new(false),
            processed: Mutex::new(0),
            drained: Condvar::new(),
            deadline,
        })
    }

    /// Has the analysis worker thread exited (and not been replaced)?
    pub fn worker_dead(&self) -> bool {
        self.worker_dead.load(Ordering::Acquire)
    }

    /// Checks and records one access; pushes any race found. Shared by
    /// the worker, the inline local path and journal replay.
    pub fn process(&self, a: &OwnedAccess, abort_on_race: bool) -> Option<Box<RaceReport>> {
        let view = ShadowAccess {
            interval: a.interval,
            component: a.component,
            epoch: a.epoch,
            clock: &a.clock,
            write: a.write,
            atomic: a.atomic,
            kind: a.kind,
            issuer: a.issuer,
            loc: a.loc,
        };
        let report = self.shadows[a.shadow_of].lock().check_and_record(&view);
        if let Some(report) = &report {
            self.races.lock().push(**report);
            if abort_on_race {
                self.poisoned.store(true, Ordering::Release);
            }
        }
        report
    }

    /// Blocks until `target` events have been processed, the worker is
    /// found dead, or the deadline passes. Never waits on a dead worker:
    /// the death flag is checked every poll, so detector-thread death
    /// surfaces within milliseconds instead of wedging the epoch close.
    pub fn wait_processed(&self, target: u64) -> Quiescence {
        let deadline = Instant::now() + self.deadline;
        let mut processed = self.processed.lock();
        loop {
            if *processed >= target {
                return Quiescence::Drained;
            }
            // Order matters: the worker bumps `processed` before exiting,
            // so checking the counter first never misreports a worker
            // that finished the backlog and then stopped.
            if self.worker_dead() {
                return Quiescence::WorkerDead { processed: *processed, target };
            }
            if Instant::now() >= deadline {
                return Quiescence::TimedOut { processed: *processed, target };
            }
            self.drained.wait_for(&mut processed, Duration::from_millis(2));
        }
    }
}

/// Sets the dead flag (and wakes waiters) when the worker exits, however
/// it exits — normal `Stop`, a kill, or a panic unwinding the thread.
struct DeadOnExit(Arc<AnalysisState>);

impl Drop for DeadOnExit {
    fn drop(&mut self) {
        self.0.worker_dead.store(true, Ordering::Release);
        self.0.drained.notify_all();
    }
}

/// The analysis worker: one thread draining the global event queue.
pub(crate) struct Worker {
    tx: Sender<Msg>,
    /// Abrupt-death switch: when set, the worker exits at the next loop
    /// iteration *without* touching its backlog — the FIFO discipline
    /// means a plain `Stop` message could never model a crash, since
    /// everything queued before it would still be analyzed.
    die_now: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Worker {
    pub fn spawn(state: Arc<AnalysisState>, abort_on_race: bool) -> Self {
        let (tx, rx): (Sender<Msg>, Receiver<Msg>) = unbounded();
        let die_now = Arc::new(AtomicBool::new(false));
        let die = die_now.clone();
        let handle = std::thread::Builder::new()
            .name("must-analysis".into())
            .spawn(move || {
                let _dead_on_exit = DeadOnExit(state.clone());
                while let Ok(msg) = rx.recv() {
                    if die.load(Ordering::Acquire) {
                        return; // abrupt death: the backlog is abandoned
                    }
                    match msg {
                        Msg::Stop => break,
                        Msg::Op { seq, pair } => {
                            // Dedup by sequence number: redelivery after a
                            // recovery is at-least-once, the analysis
                            // effect must stay exactly-once.
                            let duplicate = *state.processed.lock() >= seq;
                            if !duplicate {
                                let _ = state.process(&pair[0], abort_on_race);
                                let _ = state.process(&pair[1], abort_on_race);
                            }
                            let mut processed = state.processed.lock();
                            if *processed < seq {
                                *processed = seq;
                            }
                            state.drained.notify_all();
                        }
                    }
                }
            })
            .expect("failed to spawn MUST analysis worker");
        Worker { tx, die_now, handle: Some(handle) }
    }

    pub fn send(&self, msg: Msg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Kills the worker abruptly (backlog abandoned) without joining —
    /// models a spontaneous analysis-thread death that the runtime only
    /// notices at the next quiescence wait.
    pub fn kill_async(&self) {
        self.die_now.store(true, Ordering::Release);
        // Wake it if it is idle; the flag makes any received message
        // (including this one) lethal before processing.
        let _ = self.tx.send(Msg::Stop);
    }

    /// Has the worker been told to die (it may not have exited yet)?
    pub fn killed(&self) -> bool {
        self.die_now.load(Ordering::Acquire)
    }

    /// Kills the worker abruptly and waits for the thread to be gone.
    pub fn kill(&mut self) {
        self.kill_async();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Joins an already-dead worker thread (recovery path).
    pub fn join_dead(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    /// Stops and joins the worker after it drained its queue (idempotent).
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(Msg::Stop);
            let _ = handle.join();
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One retained shadow-affecting event, kept until the next checkpoint.
pub(crate) enum JournalEntry {
    /// A shipped one-sided operation (both access halves).
    Op { seq: u64, pair: Box<[OwnedAccess; 2]> },
    /// An inline local access, applied by the rank thread itself.
    Local(Box<OwnedAccess>),
}

/// Epoch-boundary checkpoint of everything the analysis owns.
struct Checkpoint {
    shadows: Vec<Shadow>,
    races: Vec<RaceReport>,
    /// Processed-sequence watermark at checkpoint time.
    seq: u64,
}

struct SupInner {
    worker: Worker,
    journal: Vec<JournalEntry>,
    /// Monotone sequence numbers assigned to shipped operations; also
    /// the count of operations shipped (quiescence target).
    next_seq: u64,
    checkpoint: Checkpoint,
}

/// Owns the analysis worker and the recovery machinery (see the module
/// docs for the protocol).
pub(crate) struct Supervisor {
    state: Arc<AnalysisState>,
    abort_on_race: bool,
    max_respawns: u32,
    respawns: AtomicU32,
    inner: Mutex<SupInner>,
}

impl Supervisor {
    pub fn new(state: Arc<AnalysisState>, abort_on_race: bool, max_respawns: u32) -> Self {
        let nranks = state.shadows.len();
        let worker = Worker::spawn(state.clone(), abort_on_race);
        Supervisor {
            state,
            abort_on_race,
            max_respawns,
            respawns: AtomicU32::new(0),
            inner: Mutex::new(SupInner {
                worker,
                journal: Vec::new(),
                next_seq: 0,
                checkpoint: Checkpoint {
                    shadows: vec![Shadow::default(); nranks],
                    races: Vec::new(),
                    seq: 0,
                },
            }),
        }
    }

    /// Operations shipped so far (the quiescence target).
    pub fn sent(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Workers respawned so far.
    pub fn respawns(&self) -> u32 {
        self.respawns.load(Ordering::Relaxed)
    }

    /// Ships one operation: assigns the sequence number, journals the
    /// pair, and sends it to the worker. A dead worker makes the send
    /// fail; that is tolerated here (never a rank panic at the issue
    /// site) — the journal retains the operation and the next quiescence
    /// wait recovers or structurally aborts.
    pub fn ship(&self, pair: [OwnedAccess; 2]) {
        let mut inner = self.inner.lock();
        inner.next_seq += 1;
        let seq = inner.next_seq;
        let pair = Box::new(pair);
        inner.journal.push(JournalEntry::Op { seq, pair: pair.clone() });
        let _ = inner.worker.send(Msg::Op { seq, pair });
    }

    /// Journals and applies one inline local access, both under the
    /// journal lock (see the module docs: doing either without the other
    /// races with a concurrent recovery and double-reports).
    pub fn record_local(&self, acc: OwnedAccess) -> Option<Box<RaceReport>> {
        let mut inner = self.inner.lock();
        let report = self.state.process(&acc, self.abort_on_race);
        inner.journal.push(JournalEntry::Local(Box::new(acc)));
        report
    }

    /// Quiescence wait with supervised recovery: on `WorkerDead` the
    /// supervisor restores the checkpoint, respawns and re-delivers,
    /// then waits again — until drained, out of budget, or timed out.
    /// A killed worker is recovered even if it drained first, so no epoch
    /// boundary closes on a dead worker; beyond the budget nothing
    /// shipped was lost, so that wait still reports `Drained`.
    ///
    /// A `Drained` wait is confirmed under the journal lock
    /// ([`Supervisor::confirm_drained`]); if that fails, the wait starts
    /// over.
    pub fn quiesce(&self) -> Quiescence {
        loop {
            let target = self.sent();
            match self.state.wait_processed(target) {
                Quiescence::Drained => {
                    let Some(killed) = self.confirm_drained(target) else { continue };
                    if !killed || !self.try_recover() {
                        return Quiescence::Drained;
                    }
                }
                q @ Quiescence::WorkerDead { .. } => {
                    if !self.try_recover() {
                        return q;
                    }
                }
                q @ Quiescence::TimedOut { .. } => return q,
            }
        }
    }

    /// Confirms, under the journal lock, a `Drained` wait for `target`:
    /// whether the worker was killed, or `None` when a recovery run by
    /// another thread since the wait rolled the watermark (and the race
    /// list) back to the checkpoint and is still replaying the journal,
    /// so the analysis has not yet caught up with `target`.
    fn confirm_drained(&self, target: u64) -> Option<bool> {
        let inner = self.inner.lock();
        (*self.state.processed.lock() >= target).then(|| inner.worker.killed())
    }

    /// Epoch-boundary checkpoint, taken only when the analysis is
    /// genuinely quiescent: the journal lock blocks every producer, and
    /// the processed watermark equalling `next_seq` proves the worker's
    /// queue is empty and it is parked in `recv`. Skipped silently
    /// otherwise (callers already drained, so a miss only means a
    /// slightly longer journal until the next boundary).
    pub fn checkpoint_if_quiescent(&self) {
        let mut inner = self.inner.lock();
        if self.state.worker_dead() {
            return;
        }
        if *self.state.processed.lock() != inner.next_seq {
            return;
        }
        inner.checkpoint = Checkpoint {
            shadows: self.state.shadows.iter().map(|s| s.lock().snapshot()).collect(),
            races: self.state.races.lock().clone(),
            seq: inner.next_seq,
        };
        // The checkpoint is the ack: everything journaled is now part of
        // the snapshot, so the journal can be pruned.
        inner.journal.clear();
    }

    /// Synchronous kill-and-recover, the deterministic fault-injection
    /// entry point: the worker dies abruptly (backlog abandoned) and —
    /// budget permitting — is respawned before this returns, so seeded
    /// sweeps observe an exact respawn count. Beyond the budget the kill
    /// is fail-stop: this panics on the killing rank immediately instead
    /// of leaving a dead worker whose discovery time (and hence the
    /// run's verdict) would race against sibling ranks' in-flight
    /// operations. Spontaneous deaths ([`Supervisor::sabotage`]) keep
    /// the lazy discovery path through the quiescence wait.
    pub fn kill_and_recover(&self) {
        let mut inner = self.inner.lock();
        inner.worker.kill();
        if !self.recover_locked(&mut inner) {
            panic!("MUST analysis worker killed beyond the respawn budget; aborting world");
        }
    }

    /// Kills the worker *without* recovery or joining — models the
    /// spontaneous mid-run death the bounded quiescence wait exists for
    /// (test sabotage). Recovery, if any, happens lazily at the next
    /// quiescence wait.
    pub fn sabotage(&self) {
        self.inner.lock().worker.kill_async();
    }

    pub fn shutdown(&self) {
        self.inner.lock().worker.shutdown();
    }

    fn try_recover(&self) -> bool {
        let mut inner = self.inner.lock();
        self.recover_locked(&mut inner)
    }

    /// Restores the checkpoint, respawns the worker and re-delivers the
    /// journal. Returns `false` when the respawn budget is exhausted.
    /// Caller holds the journal lock, so no rank can ship or record a
    /// local while the analysis state is rolled back.
    fn recover_locked(&self, inner: &mut SupInner) -> bool {
        if !self.state.worker_dead() && !inner.worker.killed() {
            return true; // another thread already recovered
        }
        inner.worker.join_dead(); // a killed worker may still be exiting
        let spawned = self.respawns.load(Ordering::Relaxed);
        if spawned >= self.max_respawns {
            return false;
        }
        self.respawns.store(spawned + 1, Ordering::Relaxed);
        // Retry-with-backoff: a brief, growing pause before each respawn
        // so a crash-looping worker does not spin the supervisor. Held
        // under the journal lock on purpose — producers cannot usefully
        // proceed against a dead analysis anyway.
        std::thread::sleep(Duration::from_millis(1 << spawned.min(5)));

        // Roll the analysis back to the checkpoint. The worker is gone
        // and the journal lock blocks every other producer, so this is
        // the only writer.
        for (shadow, snap) in self.state.shadows.iter().zip(&inner.checkpoint.shadows) {
            shadow.lock().restore(snap);
        }
        *self.state.races.lock() = inner.checkpoint.races.clone();
        *self.state.processed.lock() = inner.checkpoint.seq;

        // The old thread is joined, so its `DeadOnExit` has run; clear
        // the flag *before* spawning so the replacement's own death is
        // never masked.
        self.state.worker_dead.store(false, Ordering::Release);
        inner.worker = Worker::spawn(self.state.clone(), self.abort_on_race);

        // Re-deliver the journal in order: operations through the fresh
        // channel (at-least-once; the worker dedups by sequence number),
        // journaled locals applied in place. Replay order is a legal
        // interleaving of the original stream (see module docs), so the
        // re-derived verdicts match.
        for entry in &inner.journal {
            match entry {
                JournalEntry::Op { seq, pair } => {
                    let _ = inner.worker.send(Msg::Op { seq: *seq, pair: pair.clone() });
                }
                JournalEntry::Local(acc) => {
                    let _ = self.state.process(acc, self.abort_on_race);
                }
            }
        }
        true
    }

    /// Shadow accesses in the current journal: two per operation, one
    /// per local.
    pub fn journal_len(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .journal
            .iter()
            .map(|e| match e {
                JournalEntry::Op { .. } => 2,
                JournalEntry::Local(_) => 1,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(seq: u64, component: usize, nranks: u32) -> Msg {
        let mut clock = VClock::zero(nranks);
        clock.0[component] = seq;
        let half = |write| OwnedAccess {
            shadow_of: 0,
            interval: Interval::new(seq * 8, seq * 8 + 7),
            component,
            epoch: seq,
            clock: clock.clone(),
            write,
            atomic: false,
            kind: if write { AccessKind::RmaWrite } else { AccessKind::RmaRead },
            issuer: RankId(0),
            loc: SrcLoc::synthetic("transport.rs", seq as u32),
        };
        Msg::Op { seq, pair: Box::new([half(false), half(true)]) }
    }

    /// Satellite pin: a worker that finishes its backlog and then exits
    /// must report `Drained`, never `WorkerDead` — the counter is bumped
    /// before the death flag is raised, and `wait_processed` checks the
    /// counter first. The join makes both the final bump and the death
    /// flag visible before the wait, so a wrong check order would fail
    /// deterministically.
    #[test]
    fn backlog_finished_then_exit_reports_drained() {
        let state = AnalysisState::new(1, Duration::from_secs(5));
        let mut worker = Worker::spawn(state.clone(), false);
        for seq in 1..=16 {
            assert!(worker.send(op(seq, 0, 2)));
        }
        worker.shutdown(); // drains the queue, then the thread exits
        assert!(state.worker_dead(), "worker must be dead after shutdown");
        assert_eq!(
            state.wait_processed(16),
            Quiescence::Drained,
            "a dead worker with a finished backlog is Drained, not WorkerDead"
        );
    }

    /// Redelivered duplicates (same sequence number) must have no
    /// analysis effect: the watermark filter makes delivery effects
    /// exactly-once.
    #[test]
    fn duplicate_sequence_numbers_are_deduped() {
        let state = AnalysisState::new(1, Duration::from_secs(5));
        let mut worker = Worker::spawn(state.clone(), false);
        assert!(worker.send(op(1, 0, 2)));
        assert_eq!(state.wait_processed(1), Quiescence::Drained);
        assert_eq!(state.shadows[0].lock().granules(), 1);
        // Same seq re-delivered with a conflicting component — it would
        // race against the original record if re-processed (a shipped
        // clock does not cover its own operation's shadow epoch).
        assert!(worker.send(op(1, 1, 2)));
        // A later op flushes the queue so the duplicate was definitely seen.
        assert!(worker.send(op(2, 0, 2)));
        assert_eq!(state.wait_processed(2), Quiescence::Drained);
        assert_eq!(
            state.shadows[0].lock().granules(),
            2,
            "seq 2 must have been processed into its own granule"
        );
        assert!(
            state.races.lock().is_empty(),
            "the seq-1 duplicate must have been skipped, not re-analyzed"
        );
        worker.shutdown();
    }

    /// A drained wait that a recovery overtook is not confirmed: once the
    /// watermark is rolled back below the wait's target (what a recovery
    /// does before its journal replay catches up), `quiesce` must wait
    /// again rather than report `Drained` with the replayed races
    /// missing.
    #[test]
    fn drained_wait_overtaken_by_recovery_is_not_confirmed() {
        let state = AnalysisState::new(1, Duration::from_secs(5));
        let sup = Supervisor::new(state.clone(), false, 3);
        for seq in 1..=4 {
            let Msg::Op { pair, .. } = op(seq, 0, 2) else { unreachable!() };
            sup.ship(*pair);
        }
        assert_eq!(state.wait_processed(4), Quiescence::Drained);
        assert_eq!(sup.confirm_drained(4), Some(false));
        *state.processed.lock() = 0;
        assert_eq!(sup.confirm_drained(4), None);
    }

    /// A killed worker abandons its backlog: `wait_processed` surfaces
    /// `WorkerDead` with the exact shortfall.
    #[test]
    fn killed_worker_reports_dead_with_backlog() {
        let state = AnalysisState::new(1, Duration::from_secs(5));
        let mut worker = Worker::spawn(state.clone(), false);
        worker.kill();
        for seq in 1..=4 {
            let _ = worker.send(op(seq, 0, 2));
        }
        match state.wait_processed(4) {
            Quiescence::WorkerDead { processed, target } => {
                assert_eq!(target, 4);
                assert!(processed < 4);
            }
            q => panic!("expected WorkerDead, got {q:?}"),
        }
    }
}
